"""Improvement checkers, efficiency, frontier, and scan.

Expected counts in this module were frozen from an independent brute-force
oracle (pure itertools over Fraction tuples) written before the engine.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from paretoscope import engine
from paretoscope import polity as polity_module
from paretoscope import transforms as transforms_module
from paretoscope.cli import run_command
from paretoscope.report import render_allocation, render_move
from paretoscope.scenario import load_scenario, parse_scenario
from paretoscope import (
    Allocation,
    BoxGrid,
    Bundle,
    CapExceeded,
    DimensionMismatch,
    EfficiencyVerdict,
    ExplicitList,
    FixedTotalLattice,
    HypothesisViolated,
    InfeasibleConfig,
    InternalInvariant,
    InvalidAgent,
    Method,
    Move,
    OwnBundle,
    ParetoscopeError,
    PartialOrderResult,
    Polity,
    RelativeToMean,
    RelativeToNeighborhood,
    ValidationError,
    ViolationKind,
    WeightedOwn,
    ZeroReferencePoint,
    alloc,
    check_improvement,
    check_improvement_neoclassical,
    check_improvement_ratio_form,
    check_move,
    check_moves,
    classify_move_agents,
    count_feasible,
    enumerate_feasible,
    enumerate_frontier,
    is_pareto_efficient,
    scan_all_moves,
    transforms_for,
    unrank_feasible,
)

from fraction_reference import compare_bundles as reference_compare_bundles
from fraction_reference import dominated_points as reference_dominated_points
from fraction_reference import evaluate_transform as reference_transform

DATA = Path(__file__).parent / "data"


def info_components(info):
    """Flatten ``reference_transform``'s information to its components: a
    bundle's quantities, or a scalar as a 1-tuple."""
    if isinstance(info, Bundle):
        return info.quantities
    return (info,)


def _moves(fs, polity):
    states = list(enumerate_feasible(fs, polity))
    return [
        Move(before=a, after=b) for a, b in permutations(states, 2)
    ]


def test_check_improvement_own_gain():
    verdict = check_improvement(Move(alloc(1, 1), alloc(2, 1)), OwnBundle())
    assert verdict.is_improvement
    assert verdict.strict_gainers == (1,)
    assert verdict.violators == ()
    assert verdict.method is Method.DEFINITIONAL


def test_check_improvement_relative_mean_blocks_solo_gain():
    # the gainer's rise drags the mean up, so the other agent's ratio falls
    verdict = check_improvement(Move(alloc(1, 1), alloc(2, 1)), RelativeToMean())
    assert not verdict.is_improvement
    assert verdict.violators == ((2, ViolationKind.STRICTLY_WORSE),)


def test_check_improvement_identity_move_is_never_improvement():
    for spec in (OwnBundle(), RelativeToMean(), WeightedOwn()):
        verdict = check_improvement(Move(alloc(1, 1), alloc(1, 1)), spec)
        assert not verdict.is_improvement
        assert verdict.strict_gainers == ()


def test_check_improvement_incomparable_info():
    move = Move(alloc((1, 1), (1, 1)), alloc((2, 0), (1, 1)))
    verdict = check_improvement(move, OwnBundle())
    assert not verdict.is_improvement
    assert verdict.violators == ((1, ViolationKind.INCOMPARABLE_INFO),)


def test_zero_reference_point_names_endpoint():
    with pytest.raises(ZeroReferencePoint) as exc:
        check_improvement(Move(alloc(0, 0), alloc(1, 1)), RelativeToMean())
    assert exc.value.endpoint == "from"
    with pytest.raises(ZeroReferencePoint) as exc:
        check_improvement(Move(alloc(1, 1), alloc(0, 0)), RelativeToMean())
    assert exc.value.endpoint == "to"


def test_neoclassical_examples():
    assert check_improvement_neoclassical(Move(alloc(1, 1), alloc(2, 1))).is_improvement
    redistribution = check_improvement_neoclassical(Move(alloc(1, 1), alloc(2, 0)))
    assert not redistribution.is_improvement
    assert redistribution.violators == ((2, ViolationKind.STRICTLY_WORSE),)
    mixed = check_improvement_neoclassical(
        Move(alloc((1, 1), (1, 1)), alloc((2, 0), (1, 1)))
    )
    assert not mixed.is_improvement
    assert mixed.violators == ((1, ViolationKind.INCOMPARABLE_INFO),)


def test_neoclassical_equals_generalized_own_on_box_grid():
    polity = Polity(2, 1)
    for move in _moves(BoxGrid.shared([0, 1, 2]), polity):
        general = check_improvement(move, OwnBundle())
        special = check_improvement_neoclassical(move)
        assert general.is_improvement == special.is_improvement
        assert general.strict_gainers == special.strict_gainers
        assert general.violators == special.violators


def test_ratio_form_own_gain():
    verdict = check_improvement_ratio_form(Move(alloc(1, 1), alloc(2, 1)), OwnBundle())
    assert verdict.is_improvement
    assert verdict.method is Method.RATIO_FORM


def test_ratio_form_relative_mean_blocked():
    verdict = check_improvement_ratio_form(
        Move(alloc(1, 1), alloc(2, 1)), RelativeToMean()
    )
    assert not verdict.is_improvement
    assert verdict.violators == ((2, ViolationKind.STRICTLY_WORSE),)


def test_ratio_form_all_gain():
    verdict = check_improvement_ratio_form(Move(alloc(1, 1), alloc(2, 2)), OwnBundle())
    assert verdict.is_improvement
    assert verdict.strict_gainers == (1, 2)


def test_ratio_form_hypothesis_violations():
    with pytest.raises(HypothesisViolated):
        check_improvement_ratio_form(Move(alloc(1, 1), alloc(1, 1)), OwnBundle())
    with pytest.raises(HypothesisViolated):
        check_improvement_ratio_form(Move(alloc(1, 1), alloc(0, 1)), OwnBundle())
    with pytest.raises(HypothesisViolated):
        check_improvement_ratio_form(
            Move(alloc((1, 1), (1, 1)), alloc((2, 2), (1, 1))), OwnBundle()
        )


def test_ratio_form_agrees_with_definition_on_small_grid():
    polity = Polity(3, 1)
    specs = (
        OwnBundle(),
        RelativeToMean(),
        RelativeToNeighborhood(frozenset({1, 3})),
        WeightedOwn((Fraction(2, 7),)),
    )
    # the second level set gives holding changes of 1/2, 3/2 and 2, not only 1
    moves = _moves(BoxGrid.shared([0, 1]), polity)
    moves += _moves(BoxGrid.shared([0, Fraction(1, 2), 2]), polity)
    for spec in specs:
        for move in moves:
            # the hypothesis is a precondition, checked before any transform
            if not classify_move_agents(move).gainers:
                with pytest.raises(HypothesisViolated):
                    check_improvement_ratio_form(move, spec)
                continue
            try:
                definitional = check_improvement(move, spec)
            except ZeroReferencePoint:
                with pytest.raises(ZeroReferencePoint):
                    check_improvement_ratio_form(move, spec)
                continue
            ratio = check_improvement_ratio_form(move, spec)
            assert ratio.is_improvement == definitional.is_improvement
            assert ratio.strict_gainers == definitional.strict_gainers
            assert ratio.violators == definitional.violators


@st.composite
def _component_pairs(draw):
    """Per-agent component tuples at two ends: 1-3 agents, 1-2 components each,
    some agents left equal."""
    after, before = [], []
    for _ in range(draw(st.integers(1, 3))):
        vector = st.tuples(*[st.integers(0, 3)] * draw(st.integers(1, 2)))
        b = draw(vector)
        after.append(b if draw(st.booleans()) else draw(vector))
        before.append(b)
    return tuple(after), tuple(before)


@given(_component_pairs())
def test_dominates_is_the_tally_verdict(pair):
    after, before = pair
    agents = range(1, len(after) + 1)
    gainers, violators = engine._tally(agents, after, before)
    flat_after, flat_before = (tuple(c for item in end for c in item) for end in pair)
    assert engine._dominates(flat_after, flat_before) == (not violators and bool(gainers))
    # each agent's class matches the reference's componentwise order on bundles
    kinds = dict(violators)
    for agent, a, b in zip(agents, after, before):
        result = reference_compare_bundles(Bundle(a), Bundle(b))
        assert (agent in gainers) == (result is PartialOrderResult.STRICTLY_GREATER)
        assert kinds.get(agent) == {
            PartialOrderResult.STRICTLY_LESS: ViolationKind.STRICTLY_WORSE,
            PartialOrderResult.INCOMPARABLE: ViolationKind.INCOMPARABLE_INFO,
        }.get(result)


# --- The int move evaluation against a Fraction reference ------------------
#
# The reference evaluates every transform on exact ``Fraction``s with
# ``reference_transform`` (``fraction_reference.evaluate_transform``, not the
# package's int reading), flattens it with ``info_components`` and tallies it;
# its ratio form divides each information change by each holding change.

_QUANTITIES = [0, 0, 0, Fraction(1, 2), 1, Fraction(3, 2), Fraction(2, 3), 3]
_WEIGHTS = [Fraction(1, 2), 1, Fraction(2, 3), 3]


def _identify(result):
    """An exception as its type, text, ``agent`` and ``endpoint``; a verdict
    as its fields."""
    if isinstance(result, Exception):
        return (
            type(result), str(result), getattr(result, "agent", None),
            getattr(result, "endpoint", None),
        )
    if isinstance(result, tuple):
        return result
    if isinstance(result, EfficiencyVerdict):
        return (result.is_efficient, result.witness, result.skipped_targets)
    return (result.is_improvement, result.strict_gainers, result.violators, result.method)


def _outcome(call):
    try:
        return _identify(call())
    except ParetoscopeError as exc:
        return _identify(exc)


def _reference_check_transforms(polity, specs):
    # every agent's transform is checked, in agent order, before any state
    # is read: a state of ones has a positive reference for every transform
    ones = alloc(*[(1,) * polity.commodity_dim] * polity.n_agents)
    for a, spec in specs.items():
        reference_transform(spec, ones, a)


def _reference_information(allocation, specs, endpoint):
    """Every agent's information components at ``allocation``, a zero
    reference tagged with ``endpoint``."""
    try:
        infos = [reference_transform(spec, allocation, a) for a, spec in specs.items()]
    except ZeroReferencePoint as exc:
        raise ZeroReferencePoint(
            f"{exc.args[0]} at the {endpoint} state of the move",
            agent=exc.agent,
            endpoint=endpoint,
        ) from exc
    return [info_components(info) for info in infos]


def _reference_components(move, specs):
    _reference_check_transforms(move.polity, specs)
    before = _reference_information(move.before, specs, "from")
    return _reference_information(move.after, specs, "to"), before


def _reference_verdict(tally, method):
    gainers, violators = tally
    return (not violators and bool(gainers), tuple(gainers), tuple(violators), method)


def _reference_holding_changes(move):
    """The ratio form's ``HypothesisViolated``, or each agent's holding change."""
    dim = move.polity.commodity_dim
    if dim != 1:
        return HypothesisViolated(f"ratio-form check requires a single commodity, got {dim}")
    deltas = [a - b for a, b in zip(move.after.flat(), move.before.flat())]
    if not any(d > 0 for d in deltas):
        return HypothesisViolated("ratio-form check requires at least one strict gainer")
    return deltas


def _reference_ratio(deltas, after, before, tally):
    ok, strict = True, False
    for (a,), (b,) in zip(after, before):
        for dx in deltas:
            if dx == 0:
                continue
            ratio = (a - b) / dx
            if (ratio < 0) if dx > 0 else (ratio > 0):
                ok = False
            elif ratio != 0:
                strict = True
    gainers, violators = tally
    return (ok and strict, tuple(gainers), tuple(violators), Method.RATIO_FORM)


def _reference_outcomes(move, specs):
    """What the definitional, neoclassical and ratio checkers must give."""
    agents = move.polity.agents
    neoclassical = _reference_verdict(
        engine._tally(
            agents,
            [b.quantities for b in move.after.bundles],
            [b.quantities for b in move.before.bundles],
        ),
        Method.NEOCLASSICAL,
    )
    deltas = _reference_holding_changes(move)
    try:
        after, before = _reference_components(move, specs)
    except ParetoscopeError as exc:
        # the ratio form checks its hypotheses before evaluating anything
        ratio = exc if isinstance(deltas, list) else deltas
        return _identify(exc), neoclassical, _identify(ratio)
    tally = engine._tally(agents, after, before)
    if isinstance(deltas, list):
        ratio = _reference_ratio(deltas, after, before, tally)
    else:
        ratio = _identify(deltas)
    return _reference_verdict(tally, Method.DEFINITIONAL), neoclassical, ratio


@st.composite
def _mixed_moves(draw):
    """A move of 1-3 agents over 1-2 commodities, with one transform each.

    Weights are unit or fractional, now and then of the wrong length; a
    neighbourhood now and then names an agent outside the polity; holdings
    are often zero, so references are zero at either end; agents are often
    left equal.
    """
    n_agents = draw(st.integers(1, 3))
    dim = draw(st.sampled_from([1, 1, 2]))

    def weights():
        length = dim if draw(st.integers(0, 9)) else 3 - dim
        return draw(st.none() | st.tuples(*[st.sampled_from(_WEIGHTS)] * length))

    specs = {}
    for agent in range(1, n_agents + 1):
        kind = draw(
            st.sampled_from([OwnBundle, WeightedOwn, RelativeToMean, RelativeToNeighborhood])
        )
        if kind is OwnBundle:
            specs[agent] = OwnBundle()
        elif kind is RelativeToNeighborhood:
            limit = n_agents + (draw(st.integers(0, 3)) == 0)
            members = draw(st.frozensets(st.integers(1, limit), min_size=1))
            specs[agent] = RelativeToNeighborhood(members, weights())
        else:
            specs[agent] = kind(weights())
    bundle = st.tuples(*[st.sampled_from(_QUANTITIES)] * dim)
    before = [draw(bundle) for _ in range(n_agents)]
    after = [b if draw(st.booleans()) else draw(bundle) for b in before]
    return Move(alloc(*before), alloc(*after)), specs


@settings(max_examples=400, deadline=None)
@given(_mixed_moves())
def test_int_move_evaluation_matches_fraction_reference(case):
    move, specs = case
    definitional, neoclassical, ratio = _reference_outcomes(move, specs)
    assert _outcome(lambda: check_improvement(move, specs)) == definitional
    assert _outcome(lambda: check_improvement_neoclassical(move)) == neoclassical
    assert _outcome(lambda: check_improvement_ratio_form(move, specs)) == ratio
    if isinstance(definitional[0], type):
        # check_move raises what the definitional checker raises
        assert _outcome(lambda: check_move(move, specs)) == definitional
    else:
        verdicts = check_move(move, specs)
        assert tuple(map(_identify, verdicts)) == (definitional, neoclassical, ratio)


# --- The check-move command against the same reference ----------------------
#
# The command decides and renders every move from the scenario's int
# holdings; the reference reads the moves as ``Fraction`` allocations.

_MOVE_QUANTITIES = [0, 0, Fraction(1, 2), 1, Fraction(2, 3), Fraction(5, 7), Fraction(5, 4), 3]


def _reference_state_text(state):
    """``state`` written as the report writes allocations."""
    groups = [",".join(str(q) for q in b.quantities) for b in state.bundles]
    if state.dimension > 1:
        groups = [f"({g})" for g in groups]
    return f"({','.join(groups)})"


def _reference_report(moves, specs):
    """The rows and diagnostics ``check-move`` gives on ``moves``, or the
    identified error it raises at the first move that fails."""
    all_own = all(isinstance(spec, OwnBundle) for spec in specs.values())
    rows, diagnostics = [], []
    for idx, move in enumerate(moves):
        definitional, neoclassical, ratio = _reference_outcomes(move, specs)
        if isinstance(definitional[0], type):
            return definitional
        applicable = [definitional[0]]
        if isinstance(ratio[0], type):
            ratio_cell = "n/a"
            diagnostics.append(f"move {idx}: ratio form not applicable ({ratio[1]})")
        else:
            ratio_cell = str(ratio[0]).lower()
            applicable.append(ratio[0])
        if all_own:
            applicable.append(neoclassical[0])
        rows.append(
            (
                str(idx),
                f"{_reference_state_text(move.before)} -> {_reference_state_text(move.after)}",
                str(definitional[0]).lower(),
                str(neoclassical[0]).lower(),
                ratio_cell,
                str(len(set(applicable)) == 1).lower(),
            )
        )
        gainers = ",".join(str(a) for a in definitional[1])
        violators = ",".join(f"{a}:{kind.value}" for a, kind in definitional[2])
        diagnostics.append(f"move {idx}: strict_gainers=[{gainers}] violators=[{violators}]")
    return tuple(rows), tuple(diagnostics)


@st.composite
def _move_scenarios(draw):
    """A scenario text with 1-4 moves of 1-3 agents over 1-2 commodities, and
    its moves as ``Fraction`` allocations.

    Every transform family appears, with weights now and then of the wrong
    length; each quantity is written as a ratio (now and then unreduced), a
    decimal or an integer, with leading zeros now and then.
    """
    n_agents = draw(st.integers(1, 3))
    dim = draw(st.sampled_from([1, 1, 2]))

    def weights():
        length = dim if draw(st.integers(0, 9)) else 3 - dim
        return ",".join(str(w) for w in draw(st.tuples(*[st.sampled_from(_WEIGHTS)] * length)))

    lines = [
        f"agents = {n_agents}",
        f"commodities = {dim}",
        "feasible.kind = box_grid",
        "feasible.levels = 0,1",
    ]
    for agent in range(1, n_agents + 1):
        kind = draw(st.sampled_from(["own", "weighted_own", "relative_mean", "relative_nbhd"]))
        if kind == "weighted_own":
            kind = f"weighted_own({weights()})"
        elif kind == "relative_mean" and draw(st.booleans()):
            kind = f"relative_mean({weights()})"
        elif kind == "relative_nbhd":
            members = draw(st.frozensets(st.integers(1, n_agents), min_size=1))
            kind = f"relative_nbhd({','.join(map(str, sorted(members)))}"
            kind += f";{weights()})" if draw(st.booleans()) else ")"
        lines.append(f"transform.{agent} = {kind}")

    def number(q):
        q = Fraction(q)
        k = draw(st.integers(1, 3))
        zeros = "0" * draw(st.integers(0, 2))
        forms = [f"{zeros}{q.numerator * k}/{q.denominator * k}"]
        if q.denominator == 1:
            forms.append(f"{zeros}{q.numerator}")
        for digits in (1, 2):
            whole, frac = divmod(q * 10**digits, 10**digits)
            if frac.denominator == 1:
                forms.append(f"{zeros}{whole}.{frac.numerator:0{digits}d}")
        return draw(st.sampled_from(forms))

    def literal(bundles):
        if dim == 1 and draw(st.booleans()):
            return "(" + ", ".join(number(b[0]) for b in bundles) + ")"
        return "(" + ",".join("(" + ",".join(map(number, b)) + ")" for b in bundles) + ")"

    bundle = st.tuples(*[st.sampled_from(_MOVE_QUANTITIES)] * dim)
    moves, texts = [], []
    for _ in range(draw(st.integers(1, 4))):
        before = [draw(bundle) for _ in range(n_agents)]
        after = [b if draw(st.booleans()) else draw(bundle) for b in before]
        moves.append(Move(alloc(*before), alloc(*after)))
        texts.append(f"{literal(before)} -> {literal(after)}")
    lines.append("moves = " + "; ".join(texts))
    return "\n".join(lines) + "\n", moves


# Each move's own denominators are 2, 3 and 7: only the scenario scale, 42,
# holds all three.
_SCALE_CASE = (
    "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
    "transform.2 = relative_mean\n"
    "moves = (1/2,1) -> (1,1); (2/3,1) -> (1,2/3); (5/7,1) -> (5/7,2)\n",
    [
        Move(alloc(Fraction(1, 2), 1), alloc(1, 1)),
        Move(alloc(Fraction(2, 3), 1), alloc(1, Fraction(2, 3))),
        Move(alloc(Fraction(5, 7), 1), alloc(Fraction(5, 7), 2)),
    ],
)


@settings(max_examples=300, deadline=None)
@given(_move_scenarios())
@example(_SCALE_CASE)
def test_check_move_report_matches_the_fraction_reference(case):
    text, moves = case
    scenario = parse_scenario(text)
    expected = _reference_report(moves, scenario.transforms)
    try:
        report = run_command(scenario, "check-move")
    except ParetoscopeError as exc:
        assert _identify(exc) == expected
        return
    assert (report.rows, report.diagnostics) == expected


def test_check_move_zero_reference_at_either_end():
    specs = {1: OwnBundle(), 2: RelativeToNeighborhood(frozenset({1}), (Fraction(1, 2),))}
    for move, endpoint in (
        (Move(alloc(0, 1), alloc(1, 1)), "from"),
        (Move(alloc(1, 1), alloc(0, 2)), "to"),
    ):
        for check in (check_improvement, check_move):
            with pytest.raises(ZeroReferencePoint) as exc:
                check(move, specs)
            assert (exc.value.agent, exc.value.endpoint) == (2, endpoint)
            assert str(exc.value) == (
                f"reference mean for agent 2 is zero at the {endpoint} state of the move"
            )


def test_ratio_form_hypothesis_comes_before_a_zero_reference():
    # nobody gains, and agent 2's reference is zero at the to end
    move = Move(alloc(1, 1), alloc(0, 1))
    specs = {1: OwnBundle(), 2: RelativeToNeighborhood(frozenset({1}))}
    with pytest.raises(HypothesisViolated, match="at least one strict gainer"):
        check_improvement_ratio_form(move, specs)
    with pytest.raises(ZeroReferencePoint):
        check_move(move, specs)


def test_check_move_neighbourhood_outside_the_polity():
    specs = {1: OwnBundle(), 2: RelativeToNeighborhood(frozenset({1, 3}))}
    for check in (check_improvement, check_improvement_ratio_form, check_move):
        with pytest.raises(InvalidAgent, match="names agent 3 but the polity has 2"):
            check(Move(alloc(1, 1), alloc(2, 1)), specs)


def _check_one(move, transforms):
    return next(check_moves([move], transforms))


@pytest.mark.parametrize(
    "check",
    [check_improvement, check_improvement_ratio_form, check_move, _check_one],
    ids=["check_improvement", "check_improvement_ratio_form", "check_move", "check_moves"],
)
def test_move_checkers_reject_bad_transforms_before_reading_either_end(check):
    # agent 1's reference is zero at the from end, yet agent 2's weights are
    # still checked: every reading is resolved before either end is read
    move = Move(alloc(0, 0), alloc(1, 0))
    with pytest.raises(DimensionMismatch, match="2 weights for a 1-commodity bundle"):
        check(move, {1: RelativeToMean(), 2: WeightedOwn((1, 2))})


def test_check_moves_decides_moves_of_two_shapes(monkeypatch):
    resolved = []
    reading = transforms_module._reading
    monkeypatch.setattr(
        transforms_module, "_reading", lambda *args: resolved.append(args[1:]) or reading(*args)
    )
    spec = RelativeToMean()
    pair = [Move(alloc(1, 2), alloc(2, 2)), Move(alloc(2, 1), alloc(1, 1))]
    trio = [
        Move(alloc((1, 1), (1, 1), (1, 1)), alloc((2, 1), (1, 1), (1, 1))),
        Move(alloc((1, 2), (2, 1), (1, 1)), alloc((1, 2), (2, 1), (1, 1))),
    ]
    moves = [pair[0], trio[0], pair[1], trio[1]]
    verdicts = [tuple(map(_identify, v)) for v in check_moves(iter(moves), spec)]
    # each shape's readings are resolved once, at its first move
    assert resolved == [(1, 2, 1), (2, 2, 1), (1, 3, 2), (2, 3, 2), (3, 3, 2)]
    assert verdicts == [tuple(map(_identify, check_move(m, spec))) for m in moves]


def test_check_moves_raises_at_the_move_that_fails():
    # two weights fit the first move's two commodities but not the second's one
    verdicts = check_moves(
        [Move(alloc((1, 1), (1, 1)), alloc((2, 1), (1, 1))), Move(alloc(1, 1), alloc(2, 1))],
        WeightedOwn((1, 2)),
    )
    assert next(verdicts).definitional.is_improvement
    with pytest.raises(DimensionMismatch, match="2 weights for a 1-commodity bundle"):
        next(verdicts)


def test_improvement_irreflexive_and_asymmetric():
    polity = Polity(2, 1)
    states = list(enumerate_feasible(BoxGrid.shared([0, 1, 2]), polity))
    for spec in (OwnBundle(), WeightedOwn((Fraction(2),))):
        for s in states:
            assert not check_improvement(Move(s, s), spec).is_improvement
        for a, b in permutations(states, 2):
            if check_improvement(Move(a, b), spec).is_improvement:
                assert not check_improvement(Move(b, a), spec).is_improvement


def test_transforms_for_validates_assignment():
    polity = Polity(2, 1)
    full = transforms_for(polity, RelativeToMean())
    assert set(full) == {1, 2}
    with pytest.raises(ValidationError):
        transforms_for(polity, {1: OwnBundle()})
    with pytest.raises(InvalidAgent):
        transforms_for(polity, {1: OwnBundle(), 2: OwnBundle(), 3: OwnBundle()})


def test_efficient_on_fixed_total_lattice():
    verdict = is_pareto_efficient(alloc(1, 1), FixedTotalLattice.shared(2), OwnBundle())
    assert verdict.is_efficient
    assert verdict.witness is None


def test_inefficient_with_first_witness_in_enumeration_order():
    verdict = is_pareto_efficient(alloc(1, 1), BoxGrid.shared([0, 1, 2]), OwnBundle())
    assert not verdict.is_efficient
    # targets are enumerated lexicographically, so (1,2) precedes (2,1)
    assert verdict.witness.after.flat() == (Fraction(1), Fraction(2))


def test_efficient_under_relative_mean_small_box():
    verdict = is_pareto_efficient(alloc(1, 1), BoxGrid.shared([1, 2]), RelativeToMean())
    assert verdict.is_efficient


def test_efficient_warns_on_state_outside_feasible_set(capsys):
    # the state is written as report rows write it, one line on stderr each
    is_pareto_efficient(alloc("1/2", 1), BoxGrid.shared([0, 1]), OwnBundle())
    is_pareto_efficient(alloc((5, 0), (1, 1)), BoxGrid.shared([0, 1], 2), OwnBundle())
    assert capsys.readouterr() == (
        "",
        "WARNING: state (1/2,1) is not in the declared feasible set\n"
        "WARNING: state ((5,0),(1,1)) is not in the declared feasible set\n",
    )


def test_efficient_raises_on_degenerate_state():
    with pytest.raises(ZeroReferencePoint):
        is_pareto_efficient(alloc(0, 0), BoxGrid.shared([0, 1]), RelativeToMean())


def test_efficient_checks_every_transform_before_reading_the_state():
    # agent 1's reference is zero at (0,0), yet agent 2's weights are
    # checked first, as check_move checks them on a move from that state
    spec = {1: RelativeToMean(), 2: WeightedOwn((1, 2))}
    state = alloc(0, 0)
    with pytest.raises(DimensionMismatch, match="2 weights for a 1-commodity bundle"):
        check_move(Move(before=state, after=alloc(1, 1)), spec)
    with pytest.raises(DimensionMismatch, match="2 weights for a 1-commodity bundle"):
        is_pareto_efficient(state, BoxGrid.shared([0, 1]), spec)
    with pytest.raises(InvalidAgent, match="neighborhood of agent 1"):
        is_pareto_efficient(
            state,
            BoxGrid.shared([0, 1]),
            {1: RelativeToNeighborhood(frozenset({3})), 2: WeightedOwn((1, 2))},
        )


def test_efficient_skips_degenerate_targets():
    verdict = is_pareto_efficient(alloc(1, 0), BoxGrid.shared([0, 1]), RelativeToMean())
    assert verdict.is_efficient
    assert verdict.skipped_targets == 1


def _frontier_states(report, fs, polity):
    """The flat quantities of the report's efficient states, by unranking."""
    return [unrank_feasible(fs, polity, i).flat() for i in report.efficient_ids]


def test_frontier_own_on_lattice_keeps_everything():
    fs, polity = FixedTotalLattice.shared(2), Polity(2, 1)
    report = enumerate_frontier(fs, polity, OwnBundle())
    assert report.states == 3
    assert report.efficient_ids == (0, 1, 2)
    assert _frontier_states(report, fs, polity) == [
        (Fraction(0), Fraction(2)),
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(0)),
    ]


def test_frontier_own_on_box_is_the_top_corner():
    fs, polity = BoxGrid.shared([0, 1, 2]), Polity(2, 1)
    report = enumerate_frontier(fs, polity, OwnBundle())
    assert _frontier_states(report, fs, polity) == [(Fraction(2), Fraction(2))]
    assert report.efficient_ids == (8,)
    assert report.states == 9 and report.degenerate_ids == ()


def test_frontier_relative_mean_keeps_all_states():
    report = enumerate_frontier(BoxGrid.shared([1, 2]), Polity(2, 1), RelativeToMean())
    assert report.states == 4
    assert report.efficient_ids == (0, 1, 2, 3)


def test_frontier_flags_degenerate_states():
    report = enumerate_frontier(BoxGrid.shared([0, 1]), Polity(2, 1), RelativeToMean())
    assert report.states == 4
    assert report.degenerate_ids == (0,)
    assert 0 not in report.efficient_ids
    # the three remaining states are mutually incomparable in relative terms
    assert report.efficient_ids == (1, 2, 3)


def test_frontier_every_state_degenerate_is_a_zero_reference_error():
    # a fact of the input, not a broken invariant
    fs = ExplicitList((alloc(0, 0),))
    with pytest.raises(ZeroReferencePoint) as caught:
        enumerate_frontier(fs, Polity(2, 1), RelativeToMean())
    assert str(caught.value) == (
        "every feasible state has an undefined reference point; frontier is empty"
    )
    assert caught.value.agent is None


def test_frontier_matches_per_state_efficiency():
    fs = BoxGrid.shared([0, 1, 2])
    polity = Polity(2, 1)
    spec = WeightedOwn((Fraction(1),))
    report = enumerate_frontier(fs, polity, spec)
    assert report.states == count_feasible(fs, polity)
    for i, state in enumerate(enumerate_feasible(fs, polity)):
        assert (i in report.efficient_ids) == is_pareto_efficient(state, fs, spec).is_efficient


_LEVEL = st.integers(min_value=0, max_value=3)
# Non-integer holdings give the signature table mixed denominators to scale.
_FRACTIONAL_LEVEL = st.sampled_from(
    [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2)]
)


def _explicit_states(n_agents, commodities=1, level=_LEVEL):
    point = st.tuples(*[level] * (n_agents * commodities))

    def build(points):
        return tuple(
            alloc(*(p[a * commodities : (a + 1) * commodities] for a in range(n_agents)))
            for p in points
        )

    return st.lists(point, min_size=1, max_size=12).map(build)


_MIXED = {
    1: OwnBundle(),
    2: RelativeToNeighborhood(frozenset({1, 3})),
    3: RelativeToMean(),
}

# Weighted relative transforms: the table's int reading must reproduce the
# weights' scale, and a neighbourhood's size, exactly.
_WEIGHTED_MIXED = {
    1: WeightedOwn((Fraction(5, 3),)),
    2: RelativeToNeighborhood(frozenset({1, 3}), (Fraction(3, 2),)),
    3: RelativeToMean((Fraction(1, 2),)),
}

# Levels include 0, so relative transforms meet degenerate states (a zero
# reference mean) among the random lists.
_FRONTIER_CASES = st.one_of(
    st.tuples(st.just(OwnBundle()), _explicit_states(2)),
    # proportional states such as (1,1) and (2,2) share one signature
    st.tuples(st.just(RelativeToMean()), _explicit_states(2)),
    st.tuples(st.just(RelativeToMean()), _explicit_states(3)),
    st.tuples(st.just(_MIXED), _explicit_states(3)),
    st.tuples(st.just(OwnBundle()), _explicit_states(2, commodities=2)),
    st.tuples(st.just(OwnBundle()), _explicit_states(3, level=_FRACTIONAL_LEVEL)),
    st.tuples(st.just(RelativeToMean()), _explicit_states(3, level=_FRACTIONAL_LEVEL)),
    st.tuples(st.just(_MIXED), _explicit_states(3, level=_FRACTIONAL_LEVEL)),
    st.tuples(
        st.just(OwnBundle()), _explicit_states(2, commodities=2, level=_FRACTIONAL_LEVEL)
    ),
    st.tuples(
        st.just(WeightedOwn((Fraction(2, 7), Fraction(5, 4)))),
        _explicit_states(2, commodities=2, level=_FRACTIONAL_LEVEL),
    ),
    st.tuples(
        st.just(RelativeToMean((Fraction(3, 2),))),
        _explicit_states(3, level=_FRACTIONAL_LEVEL),
    ),
    st.tuples(st.just(_WEIGHTED_MIXED), _explicit_states(3, level=_FRACTIONAL_LEVEL)),
    st.tuples(
        st.just(
            {
                1: RelativeToNeighborhood(frozenset({2}), (Fraction(2, 7), Fraction(5, 4))),
                2: RelativeToMean((Fraction(3), Fraction(1, 2))),
            }
        ),
        _explicit_states(2, commodities=2, level=_FRACTIONAL_LEVEL),
    ),
)


@given(_FRONTIER_CASES)
def test_frontier_routes_agree_on_random_explicit_lists(case):
    # enumerate_frontier cross-checks its two routes internally and raises
    # InternalInvariant on any disagreement; scan and per-state efficiency
    # must then agree with it on the efficient and the degenerate states
    spec, states = case
    fs = ExplicitList(states)
    polity = fs.states[0].polity
    degenerate, efficient = set(), set()
    for idx, state in enumerate(fs.states):
        try:
            verdict = is_pareto_efficient(state, fs, spec)
        except ZeroReferencePoint:
            degenerate.add(idx)
            continue
        if verdict.is_efficient:
            efficient.add(idx)

    scan = scan_all_moves(fs, polity, spec)
    improvable = {i for i, _ in scan.improving_moves}
    live = set(range(len(fs.states))) - degenerate
    assert scan.degenerate_states == len(degenerate)
    assert live - improvable == efficient

    if not live:
        with pytest.raises(ZeroReferencePoint):
            enumerate_frontier(fs, polity, spec)
        return
    report = enumerate_frontier(fs, polity, spec)
    assert set(report.efficient_ids) == efficient
    assert set(report.degenerate_ids) == degenerate


def _pairwise_reference(fs, polity, spec):
    """The frontier and the improving moves by brute force over ``Fraction``s.

    Every ordered pair of live states is compared on each agent's exact
    information: the move from i to j improves when no component of j's
    information is below i's and some agent's differs.  Returns the
    efficient ids, the improving moves by from-state then to-state, and the
    degenerate ids.
    """
    specs = transforms_for(polity, spec)
    infos = {}
    for idx, state in enumerate(enumerate_feasible(fs, polity)):
        try:
            infos[idx] = [
                info_components(reference_transform(s, state, agent))
                for agent, s in specs.items()
            ]
        except ZeroReferencePoint:
            pass
    moves = tuple(
        (i, j)
        for i in infos
        for j in infos
        if infos[j] != infos[i]
        and all(
            x >= y for a, b in zip(infos[j], infos[i]) for x, y in zip(a, b)
        )
    )
    improvable = {i for i, _ in moves}
    n = count_feasible(fs, polity)
    efficient = tuple(i for i in infos if i not in improvable)
    degenerate = tuple(i for i in range(n) if i not in infos)
    return efficient, moves, degenerate


@given(_FRONTIER_CASES)
@example((RelativeToMean(), (alloc(1, 1), alloc(2, 2), alloc(0, 0), alloc(1, 2))))
@example((RelativeToMean(), (alloc(0, 0),)))
def test_frontier_and_scan_match_the_pairwise_reference(case):
    spec, states = case
    fs = ExplicitList(states)
    polity = fs.states[0].polity
    efficient, moves, degenerate = _pairwise_reference(fs, polity, spec)
    scan = scan_all_moves(fs, polity, spec)
    assert scan.improving_moves == moves
    assert scan.degenerate_states == len(degenerate)
    assert scan.efficient_state_count == len(fs.states) - len({i for i, _ in moves})
    if not efficient:
        with pytest.raises(ZeroReferencePoint):
            enumerate_frontier(fs, polity, spec)
        return
    report = enumerate_frontier(fs, polity, spec)
    assert report.efficient_ids == efficient
    assert report.degenerate_ids == degenerate


@pytest.mark.parametrize(
    "fs,polity,spec",
    [
        (BoxGrid.shared([0, 1, 2]), Polity(2, 1), RelativeToMean()),
        (BoxGrid.shared([1, 2, 4]), Polity(3, 1), _MIXED),
        (BoxGrid.shared([0, 1, 3]), Polity(3, 1), OwnBundle()),
        (
            BoxGrid.shared([0, 1, 2], commodities=2),
            Polity(2, 2),
            WeightedOwn((Fraction(1), Fraction(2))),
        ),
        (FixedTotalLattice.shared(5), Polity(3, 1), RelativeToMean()),
        # the int stream's scale: the LCM of fractional level denominators,
        (BoxGrid.shared([0, Fraction(1, 2), Fraction(2, 3)]), Polity(3, 1), _WEIGHTED_MIXED),
        # a step whose numerator is not 1 over two commodities,
        (
            FixedTotalLattice((Fraction(2), Fraction(4, 3)), Fraction(2, 3)),
            Polity(2, 2),
            {
                1: WeightedOwn((Fraction(1, 2), Fraction(3))),
                2: WeightedOwn((Fraction(3), Fraction(1, 2))),
            },
        ),
        (
            FixedTotalLattice((Fraction(2), Fraction(4, 3)), Fraction(2, 3)),
            Polity(2, 2),
            RelativeToMean((Fraction(1), Fraction(5, 2))),
        ),
        # and the LCM over a listed set's mixed denominators
        (
            ExplicitList(
                (
                    alloc(Fraction(1, 2), Fraction(1, 3), 0),
                    alloc(Fraction(2, 3), Fraction(1, 4), Fraction(5, 6)),
                    alloc(1, Fraction(1, 3), Fraction(1, 7)),
                    alloc(Fraction(3, 4), Fraction(1, 2), Fraction(5, 6)),
                    alloc(0, 0, 0),
                )
            ),
            Polity(3, 1),
            {1: OwnBundle(), 2: OwnBundle(), 3: RelativeToMean()},
        ),
    ],
)
def test_frontier_and_scan_match_the_pairwise_reference_on_grids(fs, polity, spec):
    efficient, moves, degenerate = _pairwise_reference(fs, polity, spec)
    report = enumerate_frontier(fs, polity, spec)
    assert report.efficient_ids == efficient
    assert report.degenerate_ids == degenerate
    assert scan_all_moves(fs, polity, spec).improving_moves == moves


def test_frontier_cleared_witnesses_fail_the_antichain_check(monkeypatch):
    # a sweep that finds no witness keeps every state, but the top corner
    # (2,2) dominates the others: the antichain check must catch it
    monkeypatch.setattr(engine, "_frontier_sweep", lambda table: {})
    with pytest.raises(InternalInvariant, match="though kept state 8 dominates it"):
        enumerate_frontier(BoxGrid.shared([0, 1, 2]), Polity(2, 1), OwnBundle())


def test_frontier_empty_masks_fail_the_antichain_check(monkeypatch):
    # the bitset route, on four-component signatures: empty bitsets keep
    # every state, but the top corner dominates the others
    monkeypatch.setattr(
        engine, "_dominator_masks", lambda table: ((i, 0) for i in table.live)
    )
    with pytest.raises(InternalInvariant, match="though kept state 15 dominates it"):
        enumerate_frontier(BoxGrid.shared([0, 1], commodities=2), Polity(2, 2), OwnBundle())


def test_frontier_false_witness_raises(monkeypatch):
    # a sweep that marks (0,1) as dominated by (3,0), which does not
    # improve on it: the witness check by definition must catch it
    monkeypatch.setattr(engine, "_frontier_sweep", lambda table: {1: 0})
    fs = ExplicitList((alloc(3, 0), alloc(0, 1)))
    with pytest.raises(InternalInvariant, match="does not improve on it"):
        enumerate_frontier(fs, Polity(2, 1), OwnBundle())


def test_frontier_all_dominated_raises(monkeypatch):
    # witnesses that pass for every state still leave an empty frontier
    # over live states, which must fail
    monkeypatch.setattr(engine, "_frontier_sweep", lambda table: dict.fromkeys(table.live, 1))
    monkeypatch.setattr(engine, "_dominates", lambda a, b: True)
    with pytest.raises(InternalInvariant, match="empty frontier"):
        enumerate_frontier(BoxGrid.shared([0, 1]), Polity(2, 1), OwnBundle())


def _sweep_route(spec, polity, table):
    """Whether ``enumerate_frontier`` decides ``table`` by the sweep."""
    live = table.live
    return (
        bool(live)
        and not engine._shared_mean(transforms_for(polity, spec))
        and len(table.signatures[live[0]]) <= 3
    )


@given(_FRONTIER_CASES, st.data())
def test_frontier_certificate_catches_every_single_witness_corruption(case, data):
    # One state's sweep witness is corrupted in one of three ways: a
    # dominated state's witness cleared, a kept state given a witness, or a
    # dominated state given a witness that does not dominate it.  Each
    # changes which states are kept or which witness is checked, so the
    # certificate must raise every time.
    spec, states = case
    fs = ExplicitList(states)
    polity = fs.states[0].polity
    table = engine.build_signature_table(fs, polity, spec)
    assume(_sweep_route(spec, polity, table))
    live, signatures = table.live, table.signatures
    witnesses = engine._frontier_sweep(table)
    corruptions = []
    for i in live:
        if i in witnesses:
            corruptions.append((i, None))
            corruptions += [
                (i, j) for j in live if not engine._dominates(signatures[j], signatures[i])
            ]
        else:
            corruptions += [(i, j) for j in live]
    assume(corruptions)
    state, witness = data.draw(st.sampled_from(corruptions))
    corrupt = {i: w for i, w in witnesses.items() if i != state}
    if witness is not None:
        corrupt[state] = witness

    with mock.patch.object(engine, "_frontier_sweep", lambda table: corrupt):
        with pytest.raises(InternalInvariant):
            enumerate_frontier(fs, polity, spec)


# Signatures of more than three components, which the frontier decides by
# its dominator bitsets.
_MASK_ROUTE_CASES = st.one_of(
    st.tuples(st.just(OwnBundle()), _explicit_states(2, commodities=2)),
    st.tuples(
        st.just(OwnBundle()), _explicit_states(2, commodities=2, level=_FRACTIONAL_LEVEL)
    ),
    st.tuples(
        st.just({1: OwnBundle(), 2: OwnBundle(), 3: RelativeToMean()}),
        _explicit_states(3, commodities=2),
    ),
)


@given(_MASK_ROUTE_CASES, st.data())
def test_frontier_certificate_catches_every_single_mask_corruption(case, data):
    # One state's dominator bitset is corrupted in one of three ways: a
    # non-empty bitset cleared, an empty one given a bit, or a non-empty
    # one given a non-dominator below its lowest bit.  Each changes which
    # bitsets are empty or which witness is read, so the certificate must
    # raise every time.
    spec, states = case
    fs = ExplicitList(states)
    polity = fs.states[0].polity
    table = engine.build_signature_table(fs, polity, spec)
    live, masks = table.live, dict(engine._dominator_masks(table))
    assume(live and len(table.signatures[live[0]]) > 3)
    corruptions = []
    for i, mask in masks.items():
        if mask:
            corruptions.append((i, 0))
            low = mask & -mask
            corruptions += [(i, mask | 1 << j) for j in live if 1 << j < low]
        else:
            corruptions += [(i, 1 << j) for j in live]
    assume(corruptions)
    state, corrupt = data.draw(st.sampled_from(corruptions))

    def corrupted(table):
        return ((i, corrupt if i == state else mask) for i, mask in masks.items())

    with mock.patch.object(engine, "_dominator_masks", corrupted):
        with pytest.raises(InternalInvariant):
            enumerate_frontier(fs, polity, spec)


def _points(dimension):
    # few values per component, so duplicates and ties are common
    point = st.tuples(*[st.integers(min_value=-1, max_value=3)] * dimension)
    return st.lists(st.one_of(st.none(), point, point), max_size=30)


@given(st.integers(min_value=1, max_value=3).flatmap(_points), st.integers(1, 6))
@example([(1, 1, 1), (1, 1, 1), (2, 2, 2), (2, 2, 2), (0, 3, 0), None], 1)
@example([(2, 0), (0, 2), (1, 1), (2, 0), (1, 1)], 3)
@example([(1,), (3,), None, (3,), (0,)], 2)
def test_frontier_sweep_matches_the_pairwise_reference(signatures, scale):
    # the sweep's dominated states are those some other point dominates
    # over exact Fractions, and every witness dominates by _dominates
    witnesses = engine._frontier_sweep(engine.SignatureTable(scale, signatures))
    points = [None if s is None else tuple(Fraction(c, scale) for c in s) for s in signatures]
    assert set(witnesses) == reference_dominated_points(points)
    for i, witness in witnesses.items():
        assert signatures[witness] is not None
        assert engine._dominates(signatures[witness], signatures[i])


def test_shared_mean_is_read_from_the_transforms():
    three = Polity(3, 2)
    weighted = RelativeToMean((1, 2))
    assert engine._shared_mean(transforms_for(three, RelativeToMean()))
    assert engine._shared_mean({1: weighted, 2: RelativeToMean((1, 2)), 3: weighted})
    assert not engine._shared_mean({1: weighted, 2: RelativeToMean(), 3: weighted})
    assert not engine._shared_mean({1: weighted, 2: OwnBundle(), 3: weighted})
    assert not engine._shared_mean(
        transforms_for(three, RelativeToNeighborhood(frozenset({1, 2, 3})))
    )


def test_shared_mean_builds_no_masks_and_sweeps_nothing(monkeypatch):
    # every live state is efficient and no move improves, with no dominance work
    def refuse(table):
        raise AssertionError("dominance work under a shared relative_mean")

    monkeypatch.setattr(engine, "_dominator_masks", refuse)
    monkeypatch.setattr(engine, "_frontier_sweep", refuse)
    fs, polity = BoxGrid.shared([0, 1, 3]), Polity(3, 1)
    report = enumerate_frontier(fs, polity, RelativeToMean())
    assert report.efficient_ids == tuple(range(1, 27))
    assert report.degenerate_ids == (0,)
    scan = scan_all_moves(fs, polity, {a: RelativeToMean((2,)) for a in polity.agents})
    assert (scan.improvements_found, scan.efficient_state_count) == (0, 27)
    assert scan.dominators == ()


@pytest.mark.parametrize("run", [enumerate_frontier, scan_all_moves])
def test_shared_mean_row_corruption_raises(monkeypatch, run):
    # one live signature that does not sum to the agent count times the
    # scale breaks the shared-mean invariant
    build = engine.build_signature_table

    def corrupted(*args):
        table = build(*args)
        signatures = list(table.signatures)
        i = table.live[-1]
        signatures[i] = (signatures[i][0] + 1, *signatures[i][1:])
        return engine.SignatureTable(table.scale, signatures)

    monkeypatch.setattr(engine, "build_signature_table", corrupted)
    with pytest.raises(InternalInvariant, match="not the agent count 3, under a shared"):
        run(BoxGrid.shared([0, 1, 2]), Polity(3, 1), RelativeToMean())


@given(_FRONTIER_CASES)
def test_signature_table_scales_every_component_exactly(case):
    # each stored int is the information component times the one common
    # scale, so Fraction(component, scale) gives back the exact rational
    spec, states = case
    fs = ExplicitList(states)
    polity = fs.states[0].polity
    table = engine.build_signature_table(fs, polity, spec)
    states = list(enumerate_feasible(fs, polity))
    specs = transforms_for(polity, spec)
    denominators = []
    for i in table.live:
        state = states[i]
        expected = tuple(
            c
            for agent, agent_spec in specs.items()
            for c in info_components(reference_transform(agent_spec, state, agent))
        )
        denominators += [c.denominator for c in expected]
        assert all(type(c) is int for c in table.signatures[i])
        assert tuple(Fraction(c, table.scale) for c in table.signatures[i]) == expected
    assert len(table.signatures) == len(states)
    for i in set(range(len(states))) - set(table.live):
        assert table.signatures[i] is None
    # the scale is the smallest that makes every live component an int
    assert table.scale == math.lcm(*denominators)


@pytest.mark.parametrize("run", [enumerate_frontier, scan_all_moves])
def test_frontier_and_scan_reject_bad_transforms_before_reading_states(run):
    fs = BoxGrid.shared([0, 1], commodities=2)
    polity = Polity(2, 2)
    with pytest.raises(InvalidAgent, match="names agent 3 but the polity has 2"):
        run(fs, polity, {1: OwnBundle(), 2: RelativeToNeighborhood(frozenset({1, 3}))})
    with pytest.raises(DimensionMismatch, match="3 weights for a 2-commodity bundle"):
        run(fs, polity, {1: OwnBundle(), 2: RelativeToMean((1, 2, 3))})
    with pytest.raises(DimensionMismatch, match="1 weights for a 2-commodity bundle"):
        run(fs, polity, {1: WeightedOwn((1,)), 2: OwnBundle()})
    # the first agent in agent order whose transform is bad is named
    with pytest.raises(InvalidAgent, match="neighborhood of agent 1"):
        run(
            fs,
            polity,
            {
                1: RelativeToNeighborhood(frozenset({4})),
                2: RelativeToMean((1, 2, 3)),
            },
        )
    # a feasible set that does not fit the polity is reported before any
    # transform error
    with pytest.raises(InfeasibleConfig, match="2-dimensional but polity has 1"):
        run(fs, Polity(2, 1), {1: OwnBundle(), 2: RelativeToMean((1, 2))})
    with pytest.raises(InfeasibleConfig, match="explicit states have 3 agents"):
        run(
            ExplicitList((alloc(0, 1, 2),)),
            Polity(2, 1),
            {1: OwnBundle(), 2: RelativeToNeighborhood(frozenset({3}))},
        )
    # agent 1's reference is zero at the only state, yet agent 2's weights
    # are still checked: every reading is resolved before any state is read
    with pytest.raises(DimensionMismatch):
        run(
            BoxGrid.shared([0], commodities=2),
            polity,
            {1: RelativeToMean(), 2: WeightedOwn((1,))},
        )


def test_signature_table_reads_no_fraction_information(monkeypatch):
    # the table and the efficiency search read int holdings; the engine
    # does not even bind the Fraction evaluation
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction evaluation used")

    assert not hasattr(engine, "evaluate_transform")
    monkeypatch.setattr(transforms_module, "evaluate_transform", refuse)
    fs = BoxGrid.shared([0, Fraction(1, 2), 1, 3])
    polity = Polity(3, 1)
    table = engine.build_signature_table(fs, polity, _WEIGHTED_MIXED)
    assert len(table.live) == 60
    enumerate_frontier(fs, polity, _WEIGHTED_MIXED)
    scan_all_moves(fs, polity, _WEIGHTED_MIXED)

    # is_pareto_efficient, on an upper cone and on a full search
    cone = is_pareto_efficient(alloc(0, 1, Fraction(1, 3)), fs, OwnBundle())
    assert cone.witness.after == alloc(0, 1, Fraction(1, 2))
    mixed = load_scenario(DATA / "check_move_mixed.scn")
    state = unrank_feasible(mixed.feasible, mixed.polity, 40)
    full = is_pareto_efficient(state, mixed.feasible, mixed.transforms)
    assert full.witness.after == alloc(Fraction(1, 2), 0, 3)
    assert full.skipped_targets == 6
    # and the efficient command
    diagnostics = run_command(mixed, "efficient", state_id=7).diagnostics
    assert diagnostics == ("skipped 6 target(s) with undefined reference point",)

    # nor does the scan command, which renders the moves it shows from
    # the int state stream
    scenario = load_scenario(DATA / "scan_own_relmean.scn")
    report = scan_all_moves(scenario.feasible, scenario.polity, scenario.transforms)
    assert report.improvements_found > 100 and report.degenerate_states == 1
    diagnostics = run_command(scenario, "scan").diagnostics
    shown = [d for d in diagnostics if d.startswith("improving: ")]
    assert len(shown) == 100
    assert f"(+{report.improvements_found - 100} more improving moves)" in diagnostics


_EXPLICIT_SCENARIO = """\
agents = 2
commodities = 1
feasible.kind = explicit_list
feasible.list = (0,0); (1/2,1); (2/3,1/3); (1,1/4)
transform = relative_mean
"""


def test_frontier_rows_on_an_explicit_list():
    # a degenerate listed state is flagged, and the rows follow the sorted list
    report = run_command(parse_scenario(_EXPLICIT_SCENARIO), "frontier")
    assert [row[1:] for row in report.rows] == [
        ("(0,0)", "n/a"),
        ("(1/2,1)", "true"),
        ("(2/3,1/3)", "true"),
        ("(1,1/4)", "true"),
    ]


@pytest.mark.parametrize(
    "scenario,state_ids",
    [
        # relative transforms: the full search, with skipped targets
        ("check_move_mixed", (7, 40, 100, 215)),
        # own: the upper cone
        ("own_box", range(9)),
        ("explicit_fractional", range(6)),
        ("lattice_two_thirds", (3, 9, 15, 20)),
    ],
)
def test_efficient_command_rows_match_the_public_verdict(scenario, state_ids):
    # the command searches from unranked int holdings; the public function
    # from an Allocation: the rows agree with the public verdict
    loaded = load_scenario(DATA / f"{scenario}.scn")
    outcomes = set()
    for k in state_ids:
        state = unrank_feasible(loaded.feasible, loaded.polity, k)
        verdict = is_pareto_efficient(state, loaded.feasible, loaded.transforms)
        outcomes.add(verdict.is_efficient)
        report = run_command(loaded, "efficient", state_id=k)
        assert report.rows == (
            (
                str(k),
                render_allocation(state),
                "true" if verdict.is_efficient else "false",
                render_move(verdict.witness) if verdict.witness else "",
            ),
        )
        skipped = verdict.skipped_targets
        assert report.diagnostics == (
            (f"skipped {skipped} target(s) with undefined reference point",) if skipped else ()
        )
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "fs,polity,spec",
    [
        (BoxGrid.shared([0, 1, 2, 3]), Polity(2, 1), RelativeToMean()),
        (BoxGrid.shared([0, 1, 5]), Polity(3, 1), RelativeToMean()),
        (BoxGrid.shared([1, 2]), Polity(4, 1), RelativeToMean()),
        (BoxGrid.shared([0, 1], commodities=2), Polity(2, 2), RelativeToMean((1, 3))),
        (FixedTotalLattice.shared(4), Polity(3, 1), RelativeToMean()),
    ],
)
def test_relative_mean_signatures_sum_to_agent_count(fs, polity, spec):
    # sum_i x_i / mean = n: no state can dominate another, so every live
    # state is efficient
    table = engine.build_signature_table(fs, polity, spec)
    assert table.live
    for i in table.live:
        assert sum(table.signatures[i]) == polity.n_agents * table.scale
    report = enumerate_frontier(fs, polity, spec)
    assert report.efficient_ids == tuple(table.live)


def test_scan_own_small_box_counts():
    # oracle: 5 dominated ordered pairs among the 4 states of {0,1} x {0,1}
    report = scan_all_moves(BoxGrid.shared([0, 1]), Polity(2, 1), OwnBundle())
    assert report.states_examined == 4
    assert report.moves_examined == 12
    assert report.improvements_found == 5
    assert report.efficient_state_count == 1
    assert len(report.improving_moves) == 5


def test_scan_report_repr_leaves_out_the_bitsets():
    report = scan_all_moves(BoxGrid.shared([0, 1]), Polity(2, 1), OwnBundle())
    assert repr(report) == (
        "ScanReport(states_examined=4, moves_examined=12, improvements_found=5, "
        "efficient_state_count=1, skipped_moves=0, degenerate_states=0)"
    )


def test_scan_counts_moves_without_listing_them():
    # own on 4 agents x levels 0..7: 36^4 - 8^4 improving moves and one
    # efficient state, the top corner.  Listing every move as a tuple
    # peaked near 120 MiB; the counts come from the dominator bitsets.
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        report = scan_all_moves(
            BoxGrid.shared(range(8)), Polity(4, 1), OwnBundle(), cap=4096 * 4095
        )
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert report.improvements_found == 1_675_520
    assert report.efficient_state_count == 1
    assert peak < 16 * 2**20


def test_scan_own_lattice_has_no_improvements():
    report = scan_all_moves(FixedTotalLattice.shared(2), Polity(2, 1), OwnBundle())
    assert report.improvements_found == 0
    assert report.efficient_state_count == 3


def test_scan_relative_mean_box_grids():
    report = scan_all_moves(BoxGrid.shared([1, 2, 3]), Polity(2, 1), RelativeToMean())
    assert (report.states_examined, report.moves_examined) == (9, 72)
    assert report.improvements_found == 0
    assert report.efficient_state_count == 9
    report = scan_all_moves(BoxGrid.shared([1, 2]), Polity(3, 1), RelativeToMean())
    assert (report.states_examined, report.moves_examined) == (8, 56)
    assert report.improvements_found == 0
    assert report.efficient_state_count == 8


def test_scan_counts_degenerate_states():
    report = scan_all_moves(BoxGrid.shared([0, 1]), Polity(2, 1), RelativeToMean())
    assert report.states_examined == 4
    assert report.degenerate_states == 1
    assert report.moves_examined == 6
    assert report.skipped_moves == 6
    assert report.improvements_found == 0
    assert report.efficient_state_count == 4


def test_scan_zero_improvements_means_all_efficient():
    report = scan_all_moves(BoxGrid.shared([1, 2]), Polity(2, 1), RelativeToMean())
    assert report.improvements_found == 0
    assert report.efficient_state_count == report.states_examined


def test_scan_agrees_with_per_state_efficiency():
    fs = BoxGrid.shared([0, 1, 2])
    polity = Polity(2, 1)
    report = scan_all_moves(fs, polity, OwnBundle())
    improvable = {i for i, _ in report.improving_moves}
    for idx, state in enumerate(enumerate_feasible(fs, polity)):
        assert (idx not in improvable) == is_pareto_efficient(
            state, fs, OwnBundle()
        ).is_efficient


def test_scan_cap():
    with pytest.raises(CapExceeded) as exc:
        scan_all_moves(BoxGrid.shared([0, 1, 2]), Polity(2, 1), OwnBundle(), cap=10)
    assert exc.value.cap == 10
    assert exc.value.required == 72
    assert "cap is 10" in str(exc.value)


def _full_stream_verdict(state, fs, spec):
    """The efficiency search over every feasible state, as the reference.

    Tries every target in enumeration order by the definitional checker and
    returns (is_efficient, witness flat, skipped targets).
    """
    skipped = 0
    for target in enumerate_feasible(fs, state.polity):
        try:
            verdict = check_improvement(Move(before=state, after=target), spec)
        except ZeroReferencePoint:
            skipped += 1
            continue
        if verdict.is_improvement:
            return False, target.flat(), skipped
    return True, None, skipped


_CONE_SETS = [
    (BoxGrid.shared([0, 1, 2]), Polity(2, 1)),
    (BoxGrid.shared([0, "1/2", 2]), Polity(3, 1)),
    (BoxGrid(((0, 1, 3), ("1/2", 2))), Polity(2, 2)),
    (FixedTotalLattice.shared(4), Polity(3, 1)),
    (FixedTotalLattice.shared(2, step="1/2"), Polity(3, 1)),
    (FixedTotalLattice((Fraction(2), Fraction(1)), Fraction(1, 2)), Polity(2, 2)),
    (
        ExplicitList((alloc(1, 2), alloc(0, 3), alloc(2, 2), alloc(3, 0), alloc(2, 3))),
        Polity(2, 1),
    ),
    (
        ExplicitList((alloc((1, 0), (0, 1)), alloc((1, 1), (1, 1)), alloc((2, 1), (0, 1)))),
        Polity(2, 2),
    ),
]

# Own-type assignments: own, and weighted_own on one commodity, alone or mixed.
_CONE_SPECS = {
    1: [
        OwnBundle(),
        WeightedOwn((Fraction(3, 2),)),
        {1: OwnBundle(), 2: WeightedOwn((Fraction(2),)), 3: OwnBundle()},
    ],
    2: [OwnBundle()],
}


def _cone_floors(fs, polity):
    # every state of the set, then states off its grid and outside it
    states = list(enumerate_feasible(fs, polity))
    odd = [Fraction(0), Fraction(1, 3), Fraction(3, 4), Fraction(3, 2), Fraction(7)]
    dim = polity.commodity_dim
    off = [
        alloc(
            *(
                tuple(odd[(seed + 2 * a + c) % len(odd)] for c in range(dim))
                for a in range(polity.n_agents)
            )
        )
        for seed in range(len(odd))
    ]
    return states + off


@pytest.mark.parametrize("fs,polity", _CONE_SETS)
def test_cone_search_matches_full_enumeration(fs, polity):
    for spec in _CONE_SPECS[polity.commodity_dim]:
        if isinstance(spec, dict):
            spec = {a: spec[a] for a in polity.agents}
        for state in _cone_floors(fs, polity):
            verdict = is_pareto_efficient(state, fs, spec)
            expected = _full_stream_verdict(state, fs, spec)
            witness = verdict.witness.after.flat() if verdict.witness else None
            assert (verdict.is_efficient, witness, verdict.skipped_targets) == expected
            assert verdict.skipped_targets == 0


def test_cone_search_is_not_taken_for_other_transforms(monkeypatch):
    # weighted_own over two commodities can rise while a holding falls,
    # and relative transforms react to others' holdings: both need every
    # feasible state, so the cone must not be consulted
    def refuse(fs, polity, unit, floor):
        raise AssertionError("upper cone used")

    monkeypatch.setattr(engine, "_upper_cone", refuse)
    two = BoxGrid.shared([0, 1, 2], commodities=2)
    state = alloc((1, 1), (1, 1))
    verdict = is_pareto_efficient(state, two, WeightedOwn((1, 1)))
    # the first witness gives up a unit of agent 1's first commodity
    assert verdict.witness.after.flat() == (0, 2, 1, 2)
    assert _full_stream_verdict(state, two, WeightedOwn((1, 1)))[1] == (0, 2, 1, 2)
    is_pareto_efficient(alloc(1, 2), BoxGrid.shared([1, 2]), RelativeToMean())
    is_pareto_efficient(
        alloc(1, 1), BoxGrid.shared([0, 1]), {1: OwnBundle(), 2: RelativeToMean()}
    )


@pytest.mark.parametrize(
    "fs,polity",
    [
        (FixedTotalLattice.shared(6), Polity(3, 1)),
        (FixedTotalLattice((Fraction(2), Fraction(2)), Fraction(1)), Polity(2, 2)),
    ],
)
def test_every_redistribution_is_efficient_under_own(fs, polity):
    # the paper's redistribution fact: with fixed totals and own-bundle
    # preferences, no split of the totals can be improved upon
    states = list(enumerate_feasible(fs, polity))
    assert len(states) == (28 if polity.commodity_dim == 1 else 9)
    for state in states:
        verdict = is_pareto_efficient(state, fs, OwnBundle())
        assert verdict.is_efficient
        assert verdict.witness is None
        assert verdict.skipped_targets == 0


def test_redistribution_efficiency_needs_no_enumeration(monkeypatch):
    # a 3-agent lattice of total 10^6 holds about 5 * 10^11 states; under
    # own the search reads the state's upper cone, the state alone, and so
    # does the membership test: each cone stream yields at most the state
    lattice_holdings = polity_module._lattice_holdings
    streamed = []

    def counted(*args):
        for n, holdings in enumerate(lattice_holdings(*args)):
            assert n == 0, "lattice streamed past the state's cone"
            streamed.append(holdings)
            yield holdings

    monkeypatch.setattr(polity_module, "_lattice_holdings", counted)
    lattice = FixedTotalLattice.shared(10**6)
    verdict = is_pareto_efficient(alloc(1, 2, 10**6 - 3), lattice, OwnBundle())
    assert verdict.is_efficient and verdict.witness is None
    assert streamed == [((1,), (2,), (10**6 - 3,))] * 2


# --- The int efficiency search against a Fraction reference ----------------


def _reference_efficiency(state, fs, specs):
    """The efficiency search over ``Fraction``s, as the reference.

    Every transform is checked in agent order on a state of ones, the state
    is evaluated with ``reference_transform`` (a zero reference tagged with
    the from end), and then every target of ``enumerate_feasible`` in order;
    targets with a zero reference are skipped and counted.
    """
    polity = state.polity
    specs = transforms_for(polity, specs)
    _reference_check_transforms(polity, specs)
    before = _reference_information(state, specs, "from")
    skipped = 0
    for target in enumerate_feasible(fs, polity):
        try:
            after = _reference_information(target, specs, "to")
        except ZeroReferencePoint:
            skipped += 1
            continue
        if after != before and all(
            x >= y for a, b in zip(after, before) for x, y in zip(a, b)
        ):
            return EfficiencyVerdict(False, Move(before=state, after=target), skipped)
    return EfficiencyVerdict(True, None, skipped)


_EFFICIENCY_SETS = [
    (BoxGrid.shared([0, Fraction(1, 2), Fraction(2, 3), 1]), Polity(3, 1)),
    (BoxGrid.shared([0, 1, Fraction(3, 2)], commodities=2), Polity(2, 2)),
    (FixedTotalLattice((Fraction(2), Fraction(4, 3)), Fraction(2, 3)), Polity(3, 2)),
    (
        ExplicitList(
            (
                alloc(Fraction(1, 2), Fraction(1, 3), 0),
                alloc(Fraction(2, 3), Fraction(1, 4), Fraction(5, 6)),
                alloc(1, Fraction(1, 3), Fraction(1, 7)),
                alloc(Fraction(3, 4), Fraction(1, 2), Fraction(5, 6)),
                alloc(Fraction(3, 4), 1, Fraction(5, 6)),
                alloc(0, 0, 0),
            )
        ),
        Polity(3, 1),
    ),
]


def _efficiency_specs(polity):
    # own, relative_mean, weighted_own(1/2,3) (two weights: a dimension
    # mismatch on one commodity) and own/relative_nbhd/relative_mean mixed
    mixed = {1: OwnBundle(), 2: RelativeToNeighborhood(frozenset({1, polity.n_agents}))}
    mixed.update((a, RelativeToMean()) for a in polity.agents[2:])
    return [
        OwnBundle(),
        RelativeToMean(),
        WeightedOwn((Fraction(1, 2), Fraction(3))),
        mixed,
    ]


@pytest.mark.parametrize("fs,polity", _EFFICIENCY_SETS)
def test_efficiency_matches_the_fraction_reference(fs, polity):
    # every state of the set, then states off it whose denominators the
    # set's int scale does not divide: the state and its targets are read
    # on different scales, bundles included under own
    for spec in _efficiency_specs(polity):
        for state in _cone_floors(fs, polity):
            expected = _outcome(lambda: _reference_efficiency(state, fs, spec))
            assert _outcome(lambda: is_pareto_efficient(state, fs, spec)) == expected


def test_efficient_reads_the_state_before_the_set_is_checked():
    # a two-commodity set against one-commodity states: a bad transform
    # comes first, then a zero reference at the state, then the set
    fs = BoxGrid.shared([0, 1], commodities=2)
    cases = [
        (alloc(1, 1), RelativeToMean(), InfeasibleConfig),
        (alloc(1, 1), OwnBundle(), InfeasibleConfig),
        (alloc(0, 0), RelativeToMean(), ZeroReferencePoint),
        (alloc(0, 0), WeightedOwn((1, 2)), DimensionMismatch),
        (alloc(0, 0), {1: RelativeToMean(), 2: WeightedOwn((1, 2))}, DimensionMismatch),
    ]
    for state, spec, error in cases:
        with pytest.raises(error) as exc:
            is_pareto_efficient(state, fs, spec)
        expected = _outcome(lambda: _reference_efficiency(state, fs, spec))
        assert _identify(exc.value) == expected
    assert exc.value.args[0] == "2 weights for a 1-commodity bundle"
    with pytest.raises(ZeroReferencePoint) as exc:
        is_pareto_efficient(alloc(0, 0), fs, RelativeToMean())
    assert exc.value.endpoint == "from"
