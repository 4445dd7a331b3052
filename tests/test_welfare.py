"""Welfare functionals and rankings."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from paretoscope import (
    Bundle,
    BoxGrid,
    DimensionMismatch,
    ExplicitList,
    FixedTotalLattice,
    InvalidAgent,
    Maximin,
    Move,
    OwnBundle,
    ParetoscopeError,
    Polity,
    RelativeToMean,
    RelativeToNeighborhood,
    Sum,
    SwfSpec,
    ValidationError,
    VectorValuedAgentInfo,
    WeightedOwn,
    WeightedSum,
    ZeroReferencePoint,
    alloc,
    check_improvement_neoclassical,
    enumerate_feasible,
    load_scenario,
    parse_swf,
    render_allocation,
    simulate_discovery,
    swf_label,
    transforms_for,
    welfare_rank,
    welfare_value,
)
from paretoscope import transforms as transforms_module
from paretoscope import welfare as welfare_module
from paretoscope.cli import run_command
from paretoscope.polity import feasible_holdings
from paretoscope.report import RationalTexts, render_holdings

from fraction_reference import evaluate_transform as reference_transform

DATA = Path(__file__).parent / "data"


def test_welfare_value_sum():
    assert welfare_value(SwfSpec(Sum()), alloc(1, 1)) == Fraction(2)


def test_welfare_value_maximin():
    assert welfare_value(SwfSpec(Maximin()), alloc(0, 2)) == Fraction(0)


def test_welfare_value_weighted_sum_zero_margin():
    spec = SwfSpec(WeightedSum((Fraction(0), Fraction(1))))
    assert welfare_value(spec, alloc(2, 0)) == Fraction(0)


def test_weighted_sum_weights_not_all_zero():
    with pytest.raises(ValidationError, match="all zero"):
        WeightedSum((Fraction(0), Fraction(0)))


def test_weighted_sum_weight_count_must_match_agents():
    spec = SwfSpec(WeightedSum((Fraction(1),)))
    with pytest.raises(DimensionMismatch):
        welfare_value(spec, alloc(1, 1))


def test_vector_valued_agent_info_rejected():
    spec = SwfSpec(Sum(), agent_values=OwnBundle())
    with pytest.raises(VectorValuedAgentInfo):
        welfare_value(spec, alloc((1, 1), (2, 2)))


def test_custom_agent_values():
    spec = SwfSpec(Sum(), agent_values=WeightedOwn((Fraction(2), Fraction(1))))
    assert welfare_value(spec, alloc((1, 1), (0, 3))) == Fraction(6)


def test_maximin_rank_puts_even_split_first():
    states = list(enumerate_feasible(FixedTotalLattice.shared(2), Polity(2, 1)))
    ranking = welfare_rank(SwfSpec(Maximin()), states)
    assert ranking.entries[0].state.flat() == (Fraction(1), Fraction(1))
    assert ranking.entries[0].value == Fraction(1)
    assert not ranking.entries[0].tied
    assert {e.value for e in ranking.entries[1:]} == {Fraction(0)}
    assert all(e.tied for e in ranking.entries[1:])


def test_sum_rank_ties_whole_lattice():
    states = list(enumerate_feasible(FixedTotalLattice.shared(2), Polity(2, 1)))
    ranking = welfare_rank(SwfSpec(Sum()), states)
    assert all(e.value == Fraction(2) for e in ranking.entries)
    assert all(e.tied for e in ranking.entries)
    # stable: ties keep enumeration order
    assert [e.state_id for e in ranking.entries] == [0, 1, 2]


def test_weighted_sum_rank_dictates_by_weight():
    states = list(enumerate_feasible(FixedTotalLattice.shared(2), Polity(2, 1)))
    ranking = welfare_rank(SwfSpec(WeightedSum((Fraction(0), Fraction(1)))), states)
    assert ranking.entries[0].state.flat() == (Fraction(0), Fraction(2))


def test_values_non_increasing_down_the_ranking():
    states = list(enumerate_feasible(BoxGrid.shared([0, 1, 2]), Polity(2, 1)))
    for swf in (SwfSpec(Sum()), SwfSpec(Maximin())):
        ranking = welfare_rank(swf, states)
        values = [e.value for e in ranking.entries]
        assert values == sorted(values, reverse=True)
        assert [e.rank for e in ranking.entries] == list(range(1, len(states) + 1))


def test_dictatorship_by_weights():
    # weight 1 on one agent and 0 elsewhere hands that agent the argmax
    states = list(enumerate_feasible(FixedTotalLattice.shared(3), Polity(2, 1)))
    for dictator in (1, 2):
        weights = tuple(
            Fraction(1) if a == dictator else Fraction(0) for a in (1, 2)
        )
        ranking = welfare_rank(SwfSpec(WeightedSum(weights)), states)
        best = ranking.entries[0].state
        own = [s.bundle_for(dictator).quantities[0] for s in states]
        assert best.bundle_for(dictator).quantities[0] == max(own)


def test_sum_is_pareto_consistent_on_box_grid():
    states = list(enumerate_feasible(BoxGrid.shared([0, 1, 2]), Polity(2, 1)))
    swf = SwfSpec(Sum())
    for a, b in permutations(states, 2):
        if check_improvement_neoclassical(Move(a, b)).is_improvement:
            assert welfare_value(swf, b) > welfare_value(swf, a)


def test_maximin_constant_while_sum_grows_under_accumulation():
    run = simulate_discovery(alloc(1, 1), 1, 10)
    sums = [welfare_value(SwfSpec(Sum()), s) for s in run.trajectory]
    floors = [welfare_value(SwfSpec(Maximin()), s) for s in run.trajectory]
    assert all(b > a for a, b in zip(sums, sums[1:]))
    assert set(floors) == {Fraction(1)}


def test_parse_swf_grammar():
    assert parse_swf("sum").combiner == Sum()
    assert parse_swf("maximin").combiner == Maximin()
    assert parse_swf("weighted_sum(0,1)").combiner == WeightedSum(
        (Fraction(0), Fraction(1))
    )
    for bad, message in (
        ("product", "unknown welfare functional 'product'"),
        ("sum(1)", "sum takes no arguments"),
        ("maximin()", "maximin takes no arguments"),
        ("weighted_sum", "weighted_sum requires a weight list"),
        ("weighted_sum()", "weighted_sum requires a weight list"),
        ("weighted_sum(1,,2)", "empty entry in weight list: '1,,2'"),
        ("weighted_sum(0,0)", "weighted_sum weights are all zero"),
        ("", "cannot parse welfare functional ''"),
    ):
        with pytest.raises(ValidationError) as caught:
            parse_swf(bad)
        assert str(caught.value) == message
        assert caught.value.key is None


def test_swf_label_round_trips():
    for text in ("sum", "maximin", "weighted_sum(0,1)", "weighted_sum(1/2,3)"):
        assert swf_label(parse_swf(text)) == text


# --- The int ranking against a Fraction reference ---------------------------


def _reference_specs(spec, polity):
    """The value transforms of ``spec`` on ``polity``, checked before any
    state is read: every transform in agent order on a state of ones (whose
    references are all positive), then the weight count."""
    assignment = spec.agent_values if spec.agent_values is not None else WeightedOwn()
    specs = transforms_for(polity, assignment)
    ones = alloc(*[(1,) * polity.commodity_dim] * polity.n_agents)
    for agent, agent_spec in specs.items():
        reference_transform(agent_spec, ones, agent)
    if isinstance(spec.combiner, WeightedSum) and len(spec.combiner.weights) != polity.n_agents:
        raise DimensionMismatch(
            f"{len(spec.combiner.weights)} weights for {polity.n_agents} agents"
        )
    return specs


def _reference_combined(spec, specs, allocation):
    """The welfare of ``allocation``, each agent's value by ``reference_transform``."""
    values = []
    for agent, agent_spec in specs.items():
        info = reference_transform(agent_spec, allocation, agent)
        if isinstance(info, Bundle):
            raise VectorValuedAgentInfo(
                f"agent {agent} yields vector information; welfare needs scalars"
            )
        values.append(info)
    if isinstance(spec.combiner, Sum):
        return sum(values, Fraction(0))
    if isinstance(spec.combiner, WeightedSum):
        return sum((w * v for w, v in zip(spec.combiner.weights, values)), Fraction(0))
    return min(values)


def _reference_rank(spec, states):
    """The ranking as ``(rank, state_id, state, value, tied)`` rows: values
    on ``Fraction``s, transforms checked once per shape at its first state,
    and a stable sort."""
    resolved = {}
    valued = []
    for i, state in enumerate(states):
        if state.polity not in resolved:
            resolved[state.polity] = _reference_specs(spec, state.polity)
        valued.append((_reference_combined(spec, resolved[state.polity], state), i, state))
    ordered = sorted(valued, key=lambda t: t[0], reverse=True)
    counts = Counter(value for value, _, _ in ordered)
    return [
        (rank, i, state, value, counts[value] > 1)
        for rank, (value, i, state) in enumerate(ordered, 1)
    ]


def _reference_value(spec, allocation):
    return _reference_combined(spec, _reference_specs(spec, allocation.polity), allocation)


def _outcome(call):
    """A ranking as its rows, a value as itself, an exception as its type,
    text and ``agent``."""
    try:
        result = call()
    except ParetoscopeError as exc:
        return (type(exc), str(exc), getattr(exc, "agent", None))
    if isinstance(result, welfare_module.Ranking):
        assert all(type(e.value) is Fraction for e in result.entries)
        return [(e.rank, e.state_id, e.state, e.value, e.tied) for e in result.entries]
    assert type(result) in (Fraction, list)
    return result


_WELFARE_SETS = [
    (BoxGrid.shared([0, Fraction(1, 2), Fraction(2, 3)]), Polity(3, 1)),
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

_AGENT_VALUES = [
    None,
    # two weights: a dimension mismatch on one commodity
    WeightedOwn((Fraction(1, 2), Fraction(3))),
    # denominators that differ from state to state
    RelativeToMean(),
    {1: OwnBundle(), 2: RelativeToNeighborhood(frozenset({1, 3})), 3: RelativeToMean()},
    # scalar on one commodity, VectorValuedAgentInfo on two
    OwnBundle(),
]

_COMBINERS = [Sum(), Maximin(), WeightedSum((Fraction(1, 3), Fraction(0), Fraction(2)))]


def _state_lists(fs, polity, spec):
    """Every state in order; the states the reference can value, forwards
    and backwards, so relative values are ranked too."""
    states = list(enumerate_feasible(fs, polity))
    outcomes = [_outcome(lambda: _reference_value(spec, s)) for s in states]
    valued = [s for s, outcome in zip(states, outcomes) if not isinstance(outcome, tuple)]
    return [states, valued, valued[::-1]]


@pytest.mark.parametrize("fs,polity", _WELFARE_SETS)
def test_welfare_matches_the_fraction_reference(fs, polity):
    ranked = 0
    for agent_values in _AGENT_VALUES:
        for combiner in _COMBINERS:
            spec = SwfSpec(combiner, agent_values)
            for states in _state_lists(fs, polity, spec):
                expected = _outcome(lambda: _reference_rank(spec, states))
                assert _outcome(lambda: welfare_rank(spec, states)) == expected
                ranked += not isinstance(expected, tuple) and len(expected) > 1
            for state in states:
                expected = _outcome(lambda: _reference_value(spec, state))
                assert _outcome(lambda: welfare_value(spec, state)) == expected
    assert ranked > 0


def _raised(spec, states):
    with pytest.raises(ParetoscopeError) as exc:
        welfare_rank(spec, states)
    assert _outcome(lambda: welfare_rank(spec, states)) == _outcome(
        lambda: _reference_rank(spec, states)
    )
    return exc.value


def test_welfare_error_order():
    two = list(enumerate_feasible(BoxGrid.shared([0, 1], commodities=2), Polity(2, 2)))
    # at the first state, agent by agent: a zero reference before a bundle
    exc = _raised(SwfSpec(Sum(), {1: RelativeToMean(), 2: OwnBundle()}), two)
    assert isinstance(exc, ZeroReferencePoint) and exc.agent == 1
    exc = _raised(SwfSpec(Sum(), {1: OwnBundle(), 2: RelativeToMean()}), two)
    assert isinstance(exc, VectorValuedAgentInfo)
    assert str(exc) == "agent 1 yields vector information; welfare needs scalars"
    # a bundle at the first state before a zero reference at a later one
    exc = _raised(SwfSpec(Sum(), {1: RelativeToMean(), 2: OwnBundle()}), two[::-1])
    assert isinstance(exc, VectorValuedAgentInfo) and "agent 2" in str(exc)

    # bad transforms and the weight count before any state is read, though
    # the first state has a zero reference
    one = list(enumerate_feasible(BoxGrid.shared([0, 1]), Polity(3, 1)))
    cases = [
        ({1: RelativeToMean(), 2: RelativeToNeighborhood(frozenset({5})), 3: OwnBundle()},
         Sum(), InvalidAgent, "neighborhood of agent 2 names agent 5 but the polity has 3"),
        ({1: RelativeToMean(), 2: WeightedOwn((1, 2)), 3: OwnBundle()},
         Sum(), DimensionMismatch, "2 weights for a 1-commodity bundle"),
        (RelativeToMean(), WeightedSum((1, 2)), DimensionMismatch, "2 weights for 3 agents"),
    ]
    for agent_values, combiner, error, text in cases:
        exc = _raised(SwfSpec(combiner, agent_values), one)
        assert type(exc) is error and str(exc) == text


def test_welfare_rank_refuses_an_unknown_combiner():
    with pytest.raises(ValidationError) as caught:
        welfare_rank(SwfSpec(OwnBundle()), [alloc(1, 1)])
    assert str(caught.value) == "unknown combiner OwnBundle()"


def test_welfare_rank_of_no_states_is_empty():
    bad = SwfSpec(WeightedSum((1, 2, 3)), RelativeToNeighborhood(frozenset({9})))
    assert welfare_rank(bad, []).entries == ()
    assert welfare_rank(SwfSpec(Maximin()), ()).entries == ()


def test_welfare_rank_over_several_shapes():
    # readings are resolved per shape, when its first state is reached
    states = [
        alloc(1, 2),
        alloc(Fraction(1, 3), 2, 3),
        alloc(Fraction(5, 2), 0),
        alloc((1, 1), (0, 2)),
        alloc(1, Fraction(2, 3)),
        alloc(3, 0, 1),
    ]
    for combiner in (Sum(), Maximin()):
        for agent_values in (None, RelativeToMean(), WeightedOwn()):
            spec = SwfSpec(combiner, agent_values)
            expected = _reference_rank(spec, states)
            assert _outcome(lambda: welfare_rank(spec, states)) == expected
    # a transform that fits only three agents fails at the first two-agent
    # state, after the states before it were read
    nbhd = SwfSpec(Sum(), RelativeToNeighborhood(frozenset({3})))
    exc = _raised(nbhd, [alloc(1, 2, 3), alloc(0, 0, 1), alloc(1, 2)])
    assert isinstance(exc, InvalidAgent)
    exc = _raised(nbhd, [alloc(1, 2, 0), alloc(1, 2)])
    assert isinstance(exc, ZeroReferencePoint)


def test_welfare_command_makes_no_fraction_evaluation(monkeypatch):
    assert not hasattr(welfare_module, "evaluate_transform")
    assert not hasattr(welfare_module, "_agent_values")
    assert not hasattr(welfare_module, "_combine")
    scenarios = [
        load_scenario(DATA / f"{name}.scn")
        for name in ("maximin_lattice", "own_box", "welfare_weighted_lattice")
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction evaluation used")

    monkeypatch.setattr(transforms_module, "evaluate_transform", refuse)
    for scenario in scenarios:
        report = run_command(scenario, "welfare")
        assert len(report.rows) == len(set(row[1] for row in report.rows)) > 1


@pytest.mark.parametrize(
    "fs,polity",
    _WELFARE_SETS + [(BoxGrid(((0, Fraction(3, 2)), (Fraction(1, 3), 1))), Polity(2, 2))],
)
def test_rows_render_from_holdings_as_from_allocations(fs, polity):
    unit, stream = feasible_holdings(fs, polity)
    quantity = RationalTexts(unit).__getitem__
    states = list(enumerate_feasible(fs, polity))
    rendered = [render_holdings(holdings, quantity) for holdings in stream]
    assert rendered == [render_allocation(state) for state in states]
