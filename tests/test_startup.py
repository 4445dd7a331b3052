"""Start-up contract: what importing the package and loading a scenario load.

Each check that counts loaded modules runs in a fresh interpreter, since
this test process has long since loaded every module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import paretoscope

# The directory this test process imports the package from.
_IMPORT_ROOT = str(Path(paretoscope.__file__).resolve().parent.parent)

SCENARIO = """\
agents = 2
commodities = 1
feasible.kind = box_grid
feasible.levels = 0,1,2
transform.1 = relative_nbhd(2)
swf = weighted_sum(1,1/2)
moves = (0,1) -> (1,1)
discover.initial = (1,1)
discover.beneficiary = 1
discover.steps = 2
"""

# The layers the benchmark's tracer reads from ``sys.modules`` after
# ``import paretoscope.cli``, with functions it rebinds there.
TRACED_LAYERS = {
    "scenario": ("load_scenario",),
    "polity": ("enumerate_feasible",),
    "transforms": ("evaluate_transform",),
    "engine": ("enumerate_frontier", "scan_all_moves"),
    "discovery": ("simulate_discovery",),
    "welfare": ("welfare_rank",),
    "report": ("render_bool", "emit_report"),
}


def _fresh(code: str):
    """Run ``code`` in a new interpreter, where ``loaded()`` lists the
    modules loaded since start-up; return what it prints, read as JSON."""
    prelude = (
        "import json, sys\n"
        "_start = set(sys.modules)\n"
        "def loaded():\n"
        "    return sorted(set(sys.modules) - _start)\n"
    )
    path = os.pathsep.join([_IMPORT_ROOT, *filter(None, [os.environ.get("PYTHONPATH")])])
    result = subprocess.run(
        [sys.executable, "-c", prelude + code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    return json.loads(result.stdout)


def test_import_loads_no_submodule():
    loaded, bound = _fresh(
        "import paretoscope\n"
        "print(json.dumps([loaded(), sorted(set(paretoscope.__all__) & set(vars(paretoscope)))]))"
    )
    assert [m for m in loaded if m.startswith("paretoscope")] == ["paretoscope"]
    assert bound == ["__version__"]


def test_load_scenario_compiles_only_its_four_modules(tmp_path):
    path = tmp_path / "startup.scn"
    path.write_text(SCENARIO)
    loaded, swf = _fresh(
        "import paretoscope\n"
        f"scenario = paretoscope.load_scenario({str(path)!r})\n"
        "print(json.dumps([loaded(), paretoscope.swf_label(scenario.swf)]))"
    )
    ours = [m for m in loaded if m.startswith("paretoscope.")]
    assert ours == [
        "paretoscope.errors",
        "paretoscope.polity",
        "paretoscope.scenario",
        "paretoscope.transforms",
    ]
    assert "logging" not in loaded
    assert swf == "weighted_sum(1,1/2)"


# Standard-library modules that cost start-up time and that no command needs.
_UNUSED_AT_START = ("dataclasses", "inspect", "logging")


def test_command_path_loads_no_unused_stdlib_module(tmp_path):
    path = tmp_path / "startup.scn"
    path.write_text(SCENARIO)
    after_load, after_cli = _fresh(
        "import paretoscope\n"
        f"paretoscope.load_scenario({str(path)!r})\n"
        "first = loaded()\n"
        "import paretoscope.cli\n"
        "print(json.dumps([first, loaded()]))"
    )
    assert [m for m in _UNUSED_AT_START if m in after_load] == []
    assert [m for m in _UNUSED_AT_START if m in after_cli] == []


def test_submodule_resolves_after_bare_import():
    found, loaded = _fresh(
        "import paretoscope\n"
        "engine = paretoscope.engine\n"
        "print(json.dumps([engine is sys.modules['paretoscope.engine'], loaded()]))"
    )
    assert found
    assert "paretoscope.welfare" not in loaded


@pytest.mark.parametrize("module", ["welfare", "compare"])
def test_reading_modules_load_no_engine(module):
    # welfare ranks, and compare evaluates, through the reading layer in
    # transforms, which needs nothing from the engine
    loaded = _fresh(f"import paretoscope.{module}\nprint(json.dumps(loaded()))")
    assert f"paretoscope.{module}" in loaded
    assert "paretoscope.engine" not in loaded


def test_transforms_for_has_one_definition():
    from paretoscope import engine, transforms

    assert paretoscope.transforms_for is transforms.transforms_for is engine.transforms_for
    assert paretoscope._HOME["transforms_for"] == "transforms"


def test_componentwise_order_has_one_definition():
    from paretoscope import discovery, engine, polity

    assert engine._tally is polity._tally and discovery._tally is polity._tally
    assert engine._dominates is polity._dominates
    assert engine.ViolationKind is polity.ViolationKind
    assert paretoscope._HOME["ViolationKind"] == "polity"


def test_cli_import_loads_every_traced_layer():
    found = _fresh(
        "import paretoscope.cli\n"
        f"layers = {TRACED_LAYERS!r}\n"
        "print(json.dumps({layer: [hasattr(sys.modules.get('paretoscope.' + layer), name)"
        " for name in names] for layer, names in layers.items()}))"
    )
    assert found == {layer: [True] * len(names) for layer, names in TRACED_LAYERS.items()}


def test_every_export_is_its_home_module_object():
    for name in paretoscope.__all__[1:]:
        home = import_module(f"paretoscope.{paretoscope._HOME[name]}")
        value = getattr(paretoscope, name)
        assert value is getattr(home, name), name
        assert vars(paretoscope)[name] is value, name  # resolved once, then bound
        if getattr(value, "__module__", "").startswith("paretoscope."):
            assert value.__module__ == home.__name__, name


def test_moved_names_have_their_new_homes():
    from paretoscope import compare, transforms

    for name in ("Sum", "WeightedSum", "Maximin", "SwfSpec", "parse_swf", "swf_label"):
        assert getattr(paretoscope, name) is getattr(transforms, name)
    for name in (
        "PartialOrderResult",
        "compare_bundles",
        "MoveClassification",
        "classify_move_agents",
        "compare_info",
        "Sign",
        "SignReport",
        "verify_own_monotonicity",
        "cross_effect_sign",
    ):
        assert getattr(paretoscope, name) is getattr(compare, name)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from paretoscope import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(paretoscope.__all__)
    assert len(paretoscope.__all__) == len(set(paretoscope.__all__))
    assert set(dir(paretoscope)) >= set(paretoscope.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError) as caught:
        paretoscope.x
    assert str(caught.value) == "module 'paretoscope' has no attribute 'x'"
    assert not hasattr(paretoscope, "_sign_of_change")
