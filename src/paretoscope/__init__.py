"""Exact-rational Pareto improvement checks, frontier enumeration, windfall
accumulation runs, and welfare rankings over finite allocation spaces.

Every quantity is a ``fractions.Fraction``; every enumeration is
deterministic; the test suite holds every optimized code path against a
naive oracle.  Every frontier call also certifies its answer: each
dominated state is checked by definition against one dominator, and no
efficient state may dominate another.

Importing the package loads none of its modules.  Each exported name loads
its home module on first use (PEP 562), as does each submodule name, such
as ``paretoscope.engine``; ``load_scenario`` alone loads ``errors``,
``polity``, ``transforms`` and ``scenario``.
"""

from __future__ import annotations

__version__ = "0.1.0"

# Home module -> the names the package exports from it.
_EXPORTS = {
    "compare": (
        "MoveClassification",
        "PartialOrderResult",
        "Sign",
        "SignReport",
        "classify_move_agents",
        "compare_bundles",
        "compare_info",
        "cross_effect_sign",
        "verify_own_monotonicity",
    ),
    "discovery": ("DiscoveryRun", "simulate_discovery"),
    "engine": (
        "DEFAULT_SCAN_CAP",
        "EfficiencyVerdict",
        "FrontierReport",
        "ImprovementVerdict",
        "Method",
        "MoveVerdicts",
        "ScanReport",
        "check_improvement",
        "check_improvement_neoclassical",
        "check_improvement_ratio_form",
        "check_move",
        "check_moves",
        "enumerate_frontier",
        "is_pareto_efficient",
        "scan_all_moves",
    ),
    "errors": (
        "CapExceeded",
        "DimensionMismatch",
        "HypothesisViolated",
        "InfeasibleConfig",
        "InfeasibleLattice",
        "InternalInvariant",
        "InvalidAgent",
        "MissingField",
        "ParetoscopeError",
        "ParseError",
        "ScenarioError",
        "ValidationError",
        "VectorValuedAgentInfo",
        "ZeroReferencePoint",
    ),
    "polity": (
        "Allocation",
        "BoxGrid",
        "Bundle",
        "ExplicitList",
        "FeasibleSet",
        "FixedTotalLattice",
        "Move",
        "Polity",
        "Quantity",
        "ViolationKind",
        "alloc",
        "as_quantity",
        "count_feasible",
        "describe_feasible",
        "enumerate_feasible",
        "enumerate_upper_cone",
        "feasible_contains",
        "unrank_feasible",
    ),
    "report": ("Report", "emit_report", "render_allocation", "render_move"),
    "scenario": ("Scenario", "load_scenario", "parse_scenario"),
    "transforms": (
        "Maximin",
        "OwnBundle",
        "PreferenceInfo",
        "RelativeToMean",
        "RelativeToNeighborhood",
        "Sum",
        "SwfSpec",
        "TransformSpec",
        "WeightedOwn",
        "WeightedSum",
        "evaluate_transform",
        "parse_swf",
        "parse_transform",
        "swf_label",
        "transform_label",
        "transforms_for",
    ),
    "welfare": ("RankEntry", "Ranking", "welfare_rank", "welfare_value"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    from importlib import import_module

    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # the import binds the submodule in this namespace itself
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
