"""Core value types: quantities, bundles, allocations, feasible sets."""

from __future__ import annotations

import copy
import inspect
import pickle
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paretoscope import (
    Allocation,
    BoxGrid,
    Bundle,
    DimensionMismatch,
    ExplicitList,
    FixedTotalLattice,
    InfeasibleConfig,
    InvalidAgent,
    Maximin,
    Move,
    OwnBundle,
    PartialOrderResult,
    Polity,
    RelativeToMean,
    RelativeToNeighborhood,
    Sum,
    ValidationError,
    WeightedOwn,
    WeightedSum,
    alloc,
    as_quantity,
    classify_move_agents,
    compare_bundles,
    compare_info,
    count_feasible,
    describe_feasible,
    enumerate_feasible,
    enumerate_upper_cone,
    evaluate_transform,
    feasible_contains,
    scan_all_moves,
    unrank_feasible,
)
from paretoscope.polity import _unrank, feasible_holdings

import fraction_reference


def test_as_quantity_parses_int_ratio_and_decimal():
    assert as_quantity(2) == Fraction(2)
    assert as_quantity("3/2") == Fraction(3, 2)
    assert as_quantity("1.5") == Fraction(3, 2)
    assert as_quantity(Fraction(1, 3)) == Fraction(1, 3)
    # ASCII digits, '.' and '/' in any of Fraction's arrangements, blanks around
    texts = ("007", " 1/2\t", "1.", ".5")
    assert [as_quantity(t) for t in texts] == [7, Fraction(1, 2), 1, Fraction(1, 2)]


def test_as_quantity_rejects_negative_float_and_garbage():
    with pytest.raises(ValidationError):
        as_quantity(-1)
    with pytest.raises(ValidationError):
        as_quantity(0.5)
    with pytest.raises(ValidationError):
        as_quantity("not-a-number")
    with pytest.raises(ValidationError):
        as_quantity("1/0")


# a quantity is ASCII digits, '.' and '/' with blanks and tabs around them;
# Fraction reads most of these (some only on some Python versions)
@pytest.mark.parametrize(
    "text", ["1e1", "1E0", "2e-1", "1_0", "+3", "\u0663", "\uff11", "1 / 2", "-0", "-1e1", "\n1", ""]
)
def test_as_quantity_refuses_the_rest_of_the_fraction_grammar(text):
    with pytest.raises(ValidationError) as caught:
        as_quantity(text)
    assert str(caught.value) == (
        f"cannot parse quantity {text!r}: Invalid literal for Fraction: {text!r}"
    )


@pytest.mark.parametrize("text, shown", [("-1/2", "-1/2"), ("-0.5", "-1/2"), (" -3\t", "-3")])
def test_as_quantity_refuses_a_negative_as_such(text, shown):
    with pytest.raises(ValidationError) as caught:
        as_quantity(text)
    assert str(caught.value) == f"quantity must be non-negative, got {shown}"


def test_bundle_coerces_and_rejects_empty():
    b = Bundle(("1/2", 1))
    assert b.quantities == (Fraction(1, 2), Fraction(1))
    assert b.dimension == 2
    with pytest.raises(ValidationError):
        Bundle(())


def test_bundle_rejects_float():
    with pytest.raises(ValidationError, match="float"):
        Bundle((Fraction(1), 0.5))


def test_bundle_rejects_negative():
    with pytest.raises(ValidationError, match="non-negative"):
        Bundle((Fraction(1), Fraction(-1, 2)))


def test_bundle_rejects_empty():
    with pytest.raises(ValidationError, match="at least one commodity"):
        Bundle(())


def test_bundle_plus_uniform():
    assert Bundle((1, 2)).plus_uniform(Fraction(1, 2)).quantities == (
        Fraction(3, 2),
        Fraction(5, 2),
    )


def test_compare_bundles_all_outcomes():
    assert compare_bundles(Bundle((1, 1)), Bundle((1, 1))) is PartialOrderResult.EQUAL
    assert (
        compare_bundles(Bundle((2, 1)), Bundle((1, 1)))
        is PartialOrderResult.STRICTLY_GREATER
    )
    assert (
        compare_bundles(Bundle((0, 1)), Bundle((1, 1)))
        is PartialOrderResult.STRICTLY_LESS
    )
    assert (
        compare_bundles(Bundle((2, 0)), Bundle((1, 1)))
        is PartialOrderResult.INCOMPARABLE
    )


def test_compare_bundles_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compare_bundles(Bundle((1,)), Bundle((1, 1)))


def test_weak_helpers():
    assert PartialOrderResult.EQUAL.weakly_ge
    assert PartialOrderResult.STRICTLY_GREATER.weakly_ge
    assert not PartialOrderResult.INCOMPARABLE.weakly_ge


_vectors = st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2)


@given(_vectors, _vectors)
def test_compare_bundles_antisymmetry(xs, ys):
    a, b = Bundle(tuple(xs)), Bundle(tuple(ys))
    forward = compare_bundles(a, b)
    backward = compare_bundles(b, a)
    flips = {
        PartialOrderResult.EQUAL: PartialOrderResult.EQUAL,
        PartialOrderResult.STRICTLY_GREATER: PartialOrderResult.STRICTLY_LESS,
        PartialOrderResult.STRICTLY_LESS: PartialOrderResult.STRICTLY_GREATER,
        PartialOrderResult.INCOMPARABLE: PartialOrderResult.INCOMPARABLE,
    }
    assert backward is flips[forward]


@given(_vectors, _vectors, _vectors)
def test_compare_bundles_transitive_on_chains(xs, ys, zs):
    a, b, c = Bundle(tuple(xs)), Bundle(tuple(ys)), Bundle(tuple(zs))
    if (
        compare_bundles(a, b).weakly_ge
        and compare_bundles(b, c).weakly_ge
    ):
        assert compare_bundles(a, c).weakly_ge


def test_allocation_shape_and_accessors():
    a = alloc((1, 0), (2, 1))
    assert a.n_agents == 2
    assert a.dimension == 2
    assert a.polity == Polity(2, 2)
    assert a.bundle_for(1).quantities == (Fraction(1), Fraction(0))
    assert a.flat() == (Fraction(1), Fraction(0), Fraction(2), Fraction(1))
    assert a.totals() == (Fraction(3), Fraction(1))


def test_allocation_rejects_ragged_bundles():
    with pytest.raises(DimensionMismatch):
        Allocation((Bundle((1,)), Bundle((1, 2))))


def test_allocation_agent_bounds():
    a = alloc(1, 2)
    with pytest.raises(InvalidAgent):
        a.bundle_for(0)
    with pytest.raises(InvalidAgent):
        a.bundle_for(3)


def test_with_bundle_replaces_one_agent():
    a = alloc(1, 2)
    b = a.with_bundle(1, Bundle((5,)))
    assert b.flat() == (Fraction(5), Fraction(2))
    assert a.flat() == (Fraction(1), Fraction(2))
    with pytest.raises(DimensionMismatch):
        a.with_bundle(1, Bundle((5, 5)))


def test_move_endpoint_shapes_must_match():
    with pytest.raises(DimensionMismatch):
        Move(alloc(1, 2), alloc(1, 2, 3))
    with pytest.raises(DimensionMismatch):
        Move(alloc(1, 2), alloc((1, 1), (2, 2)))


def test_classify_move_agents_partitions():
    # agent 1 gains, agent 2 equal (weak loser), agent 3 strictly loses
    move = Move(alloc(1, 1, 1), alloc(2, 1, 0))
    classes = classify_move_agents(move)
    assert classes.gainers == frozenset({1})
    assert classes.weak_losers == frozenset({2, 3})
    assert classes.mixed == frozenset()


def test_classify_move_agents_mixed():
    move = Move(alloc((1, 1), (1, 1)), alloc((2, 0), (1, 1)))
    classes = classify_move_agents(move)
    assert classes.mixed == frozenset({1})
    assert classes.weak_losers == frozenset({2})


# before is at least 1 and a step at most 1, so a lowered quantity stays >= 0
_quantities = st.fractions(min_value=0, max_value=3, max_denominator=4)
_steps = st.fractions(min_value=Fraction(1, 4), max_value=1, max_denominator=4)


@st.composite
def _changed_vectors(draw, dim):
    """``(after, before)``, two quantity tuples of length ``dim``: left
    equal, changed one way (up or down) in some components, or mixed."""
    before = [q + 1 for q in draw(st.lists(_quantities, min_size=dim, max_size=dim))]
    kind = draw(st.sampled_from([(0,), (0, 1), (-1, 0), (-1, 0, 1)]))
    signs = draw(st.lists(st.sampled_from(kind), min_size=dim, max_size=dim))
    steps = draw(st.lists(_steps, min_size=dim, max_size=dim))
    after = [b + sign * step for b, sign, step in zip(before, signs, steps)]
    return tuple(after), tuple(before)


@given(st.integers(1, 3).flatmap(_changed_vectors))
def test_componentwise_order_matches_the_reference(pair):
    after, before = pair
    a, b = Bundle(after), Bundle(before)
    assert compare_bundles(a, b) is fraction_reference.compare_bundles(a, b)
    assert compare_info(a, b) is fraction_reference.compare_info(a, b)
    x, y = after[-1], before[-1]
    assert compare_info(x, y) is fraction_reference.compare_info(x, y)


@st.composite
def _random_moves(draw):
    dim = draw(st.integers(1, 3))
    ends = draw(st.lists(_changed_vectors(dim), min_size=1, max_size=4))
    return Move(alloc(*[b for _, b in ends]), alloc(*[a for a, _ in ends]))


@given(_random_moves())
def test_classify_move_agents_matches_the_reference(move):
    assert classify_move_agents(move) == fraction_reference.classify_move_agents(move)


def test_box_grid_shared_sorts_and_dedupes():
    grid = BoxGrid.shared([2, 0, 1, 1])
    assert grid.levels == ((Fraction(0), Fraction(1), Fraction(2)),)


def test_box_grid_rejects_unsorted_levels():
    with pytest.raises(InfeasibleConfig):
        BoxGrid(((Fraction(1), Fraction(1)),))
    with pytest.raises(InfeasibleConfig):
        BoxGrid(())


def test_box_grid_enumeration_is_lexicographic():
    grid = BoxGrid.shared([0, 1, 2])
    states = list(enumerate_feasible(grid, Polity(2, 1)))
    assert len(states) == 9
    flats = [s.flat() for s in states]
    assert flats == sorted(flats)
    assert flats[0] == (Fraction(0), Fraction(0))
    assert flats[-1] == (Fraction(2), Fraction(2))


def test_box_grid_three_agents_count():
    grid = BoxGrid.shared([0, 1, 2])
    polity = Polity(3, 1)
    states = list(enumerate_feasible(grid, polity))
    assert len(states) == 27
    assert count_feasible(grid, polity) == 27


def test_lattice_enumeration_matches_redistributions():
    lattice = FixedTotalLattice.shared(2)
    states = list(enumerate_feasible(lattice, Polity(2, 1)))
    flats = [s.flat() for s in states]
    assert flats == [
        (Fraction(0), Fraction(2)),
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(0)),
    ]
    assert count_feasible(lattice, Polity(2, 1)) == 3


def test_lattice_fixed_total_size_is_t_plus_one():
    for total in range(1, 7):
        lattice = FixedTotalLattice.shared(total)
        states = list(enumerate_feasible(lattice, Polity(2, 1)))
        assert len(states) == total + 1
        assert all(s.totals() == (Fraction(total),) for s in states)


def test_lattice_fractional_step():
    lattice = FixedTotalLattice.shared(1, step="1/2")
    states = list(enumerate_feasible(lattice, Polity(2, 1)))
    assert [s.flat() for s in states] == [
        (Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(0)),
    ]


def test_lattice_step_must_divide_total():
    with pytest.raises(InfeasibleConfig):
        FixedTotalLattice.shared(1, step="2/3")
    with pytest.raises(InfeasibleConfig):
        FixedTotalLattice.shared(2, step=0)


def test_lattice_two_commodities():
    lattice = FixedTotalLattice((Fraction(1), Fraction(1)), Fraction(1))
    polity = Polity(2, 2)
    states = list(enumerate_feasible(lattice, polity))
    assert len(states) == 4
    assert count_feasible(lattice, polity) == 4
    assert all(s.totals() == (Fraction(1), Fraction(1)) for s in states)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=4),
)
def test_lattice_count_matches_enumeration(total, agents):
    lattice = FixedTotalLattice.shared(total)
    polity = Polity(agents, 1)
    states = list(enumerate_feasible(lattice, polity))
    assert len(states) == count_feasible(lattice, polity)
    assert all(s.totals() == (Fraction(total),) for s in states)
    flats = [s.flat() for s in states]
    assert flats == sorted(flats)


def test_explicit_list_canonicalizes():
    fs = ExplicitList((alloc(2, 0), alloc(0, 2), alloc(2, 0)))
    flats = [s.flat() for s in fs.states]
    assert flats == [
        (Fraction(0), Fraction(2)),
        (Fraction(2), Fraction(0)),
    ]


def test_explicit_list_rejects_empty_and_ragged():
    with pytest.raises(InfeasibleConfig):
        ExplicitList(())
    with pytest.raises(DimensionMismatch):
        ExplicitList((alloc(1, 2), alloc((1, 1), (2, 2))))


def test_enumerate_dimension_mismatch():
    with pytest.raises(InfeasibleConfig):
        list(enumerate_feasible(BoxGrid.shared([0, 1]), Polity(2, 2)))
    with pytest.raises(InfeasibleConfig):
        list(enumerate_feasible(ExplicitList((alloc(1, 2),)), Polity(3, 1)))


def test_count_feasible_checks_the_agent_count():
    # a list of 2-agent states read against a 3-agent polity is refused by
    # the count, the report header and the scan, as it is by enumeration
    fs = ExplicitList((alloc(1, 2), alloc(2, 2)))
    assert count_feasible(fs, Polity(2, 1)) == 2
    with pytest.raises(InfeasibleConfig, match="2 agents but polity has 3"):
        count_feasible(fs, Polity(3, 1))
    with pytest.raises(InfeasibleConfig):
        describe_feasible(fs, Polity(3, 1))
    with pytest.raises(InfeasibleConfig):
        scan_all_moves(fs, Polity(3, 1), OwnBundle(), cap=1)
    with pytest.raises(InfeasibleConfig):
        count_feasible(BoxGrid.shared([0, 1]), Polity(2, 2))


def test_feasible_contains():
    grid = BoxGrid.shared([0, 1, 2])
    assert feasible_contains(grid, alloc(0, 2))
    assert not feasible_contains(grid, alloc(0, 3))
    lattice = FixedTotalLattice.shared(2)
    assert feasible_contains(lattice, alloc(1, 1))
    assert not feasible_contains(lattice, alloc(1, 2))
    assert not feasible_contains(lattice, alloc("1/2", "3/2"))
    explicit = ExplicitList((alloc(1, 1),))
    assert feasible_contains(explicit, alloc(1, 1))
    assert not feasible_contains(explicit, alloc(0, 0))
    # the flattened quantities agree, but 4 agents of 1 commodity are not
    # 2 agents of 2 commodities
    pairs = ExplicitList((alloc((1, 2), (3, 4)),))
    assert feasible_contains(pairs, alloc((1, 2), (3, 4)))
    assert not feasible_contains(pairs, alloc(1, 2, 3, 4))


def _members(fs, polity):
    """The flat quantities of every state of ``fs`` for ``polity``, by
    enumeration; none when ``fs`` does not fit ``polity``."""
    try:
        return {state.flat() for state in enumerate_feasible(fs, polity)}
    except InfeasibleConfig:
        return set()


@pytest.mark.parametrize(
    "fs,polity,levels",
    [
        (
            FixedTotalLattice.shared(2, step="1/3"),
            Polity(3, 1),
            (0, "1/3", "1/2", "2/3", 1, "5/3", 2, 3),
        ),
        (FixedTotalLattice.shared(3), Polity(2, 1), (0, "1/2", 1, 2, 3, 4)),
        (
            FixedTotalLattice((Fraction(2), Fraction(4, 3)), Fraction(2, 3)),
            Polity(3, 2),
            (0, "1/3", "2/3", "4/3", 2),
        ),
        (BoxGrid.shared([0, "1/2", 2]), Polity(2, 1), (0, "1/3", "1/2", 1, 2, 3)),
        (BoxGrid(((0, 1), ("1/3", 2))), Polity(2, 2), (0, "1/3", 1, 2)),
        (
            ExplicitList((alloc("1/2", "2/3"), alloc(1, "1/4"))),
            Polity(2, 1),
            (0, "1/4", "1/2", "2/3", 1),
        ),
        (
            ExplicitList((alloc((1, 2), (3, 4)), alloc((0, "1/2"), (1, 1)))),
            Polity(2, 2),
            (0, "1/2", 1, 2, 3, 4),
        ),
    ],
)
def test_membership_matches_enumeration(fs, polity, levels):
    # every state of a box around the set: states in it, off its grid, and
    # on its grid but outside it; each also with one more agent, and with
    # several commodities spread over one agent each (4 agents of 1
    # commodity are not 2 agents of 2, though their quantities agree)
    members: dict[Polity, set] = {}
    box = BoxGrid.shared(levels, commodities=polity.commodity_dim)
    outcomes: dict[Polity, set] = {}
    for state in enumerate_feasible(box, polity):
        more = Allocation(state.bundles + state.bundles[-1:])
        spread = Allocation(tuple(Bundle((q,)) for q in state.flat()))
        for probe in (state, more, spread):
            if probe.polity not in members:
                members[probe.polity] = _members(fs, probe.polity)
            contained = feasible_contains(fs, probe)
            assert contained == (probe.flat() in members[probe.polity])
            outcomes.setdefault(probe.polity, set()).add(contained)
    assert outcomes[polity] == {True, False}
    # a state of another dimension is never a member
    assert not feasible_contains(fs, alloc(*[(0,) * (polity.commodity_dim + 1)] * 2))


# Small sets of every kind, with several commodities and fractional steps.
_SMALL_SETS = [
    (BoxGrid.shared([0, 1, 2]), Polity(3, 1)),
    (BoxGrid(((0, "1/2", 2), (1, 3))), Polity(2, 2)),
    (FixedTotalLattice.shared(5), Polity(3, 1)),
    (FixedTotalLattice.shared(3), Polity(1, 1)),
    (FixedTotalLattice((Fraction(2), Fraction(3, 2)), Fraction(1, 2)), Polity(3, 2)),
    (FixedTotalLattice((Fraction(3), Fraction(1)), Fraction(1)), Polity(2, 2)),
    (FixedTotalLattice((Fraction(2), Fraction(4, 3)), Fraction(2, 3)), Polity(2, 2)),
    (ExplicitList((alloc(1, 2), alloc(0, 3), alloc(2, 2), alloc(3, 0))), Polity(2, 1)),
    (ExplicitList((alloc((1, 0), (0, 1)), alloc((1, 1), (1, 1)))), Polity(2, 2)),
    (ExplicitList((alloc("1/2", "2/3"), alloc(1, "1/4"), alloc("5/6", 0))), Polity(2, 1)),
]


@pytest.mark.parametrize("fs,polity", _SMALL_SETS)
def test_enumerated_quantities_are_exact_fractions(fs, polity):
    for state in enumerate_feasible(fs, polity):
        assert all(type(q) is Fraction and q >= 0 for q in state.flat())
        assert {b.dimension for b in state.bundles} == {polity.commodity_dim}


def _reference_enumeration(fs, polity):
    """Every state of ``fs`` as its flat quantity tuple, by brute force and
    sorting: the enumeration order by its definition."""
    dim = polity.commodity_dim
    slots = range(polity.n_agents * dim)
    if isinstance(fs, BoxGrid):
        states = product(*[fs.levels[s % dim] for s in slots])
    elif isinstance(fs, FixedTotalLattice):
        multiples = [
            [fs.step * k for k in range(int(total / fs.step) + 1)] for total in fs.totals
        ]
        states = (
            flat
            for flat in product(*[multiples[s % dim] for s in slots])
            if all(sum(flat[c::dim]) == total for c, total in enumerate(fs.totals))
        )
    else:
        states = {state.flat() for state in fs.states}
    return sorted(states)


@pytest.mark.parametrize("fs,polity", _SMALL_SETS)
def test_int_holdings_are_the_enumeration_on_one_scale(fs, polity):
    expected = _reference_enumeration(fs, polity)
    scale, stream = feasible_holdings(fs, polity)
    holdings = list(stream)
    assert type(scale) is int and scale > 0
    assert all(
        len(h) == polity.n_agents
        and all(len(b) == polity.commodity_dim and all(type(q) is int for q in b) for b in h)
        for h in holdings
    )
    assert [tuple(Fraction(q, scale) for b in h for q in b) for h in holdings] == expected
    assert [state.flat() for state in enumerate_feasible(fs, polity)] == expected


def test_int_holdings_check_the_shape_before_any_state():
    with pytest.raises(InfeasibleConfig):
        feasible_holdings(BoxGrid.shared([0, 1]), Polity(2, 2))
    with pytest.raises(InfeasibleConfig):
        feasible_holdings(ExplicitList((alloc(1, 2),)), Polity(3, 1))


@pytest.mark.parametrize("fs,polity", _SMALL_SETS)
def test_unrank_matches_enumeration_at_every_index(fs, polity):
    expected = _reference_enumeration(fs, polity)
    states = list(enumerate_feasible(fs, polity))
    assert len(states) == len(expected) == count_feasible(fs, polity)
    scale, stream = feasible_holdings(fs, polity)
    for k, (state, holdings) in enumerate(zip(states, stream, strict=True)):
        unranked = unrank_feasible(fs, polity, k)
        assert unranked == state
        assert unranked.flat() == expected[k]
        # the int unranking is on the int stream's scale
        assert _unrank(fs, polity, k) == (scale, holdings)
    for k in (-1, len(states)):
        with pytest.raises(IndexError, match=f"not in 0..{len(states) - 1}"):
            unrank_feasible(fs, polity, k)


def test_unrank_reaches_the_last_state_of_a_huge_grid():
    # 10^8 states: unranking must not list the states before the index
    grid = BoxGrid.shared(range(10))
    polity = Polity(8, 1)
    assert unrank_feasible(grid, polity, 3).flat() == (0,) * 7 + (3,)
    assert unrank_feasible(grid, polity, 10**8 - 1).flat() == (9,) * 8
    lattice = FixedTotalLattice.shared(10**6)
    assert unrank_feasible(lattice, Polity(3, 1), 0).flat() == (0, 0, 10**6)


def _off_grid_floors(polity):
    # quantities off every grid above, and 5, beyond every level and total
    levels = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 2), Fraction(5)]
    dim = polity.commodity_dim
    return [
        alloc(
            *(
                tuple(levels[(seed + 2 * a + c) % len(levels)] for c in range(dim))
                for a in range(polity.n_agents)
            )
        )
        for seed in range(len(levels))
    ]


@pytest.mark.parametrize("fs,polity", _SMALL_SETS)
def test_upper_cone_is_the_filtered_enumeration(fs, polity):
    states = _reference_enumeration(fs, polity)
    for floor in list(enumerate_feasible(fs, polity)) + _off_grid_floors(polity):
        expected = [s for s in states if all(y >= x for y, x in zip(s, floor.flat()))]
        assert [state.flat() for state in enumerate_upper_cone(fs, floor)] == expected


@pytest.mark.parametrize(
    "fs,polity",
    [
        (BoxGrid(((0, "1/2", "4/3"), ("1/3", 2))), Polity(2, 2)),
        (FixedTotalLattice((Fraction(3), Fraction(9, 2)), Fraction(3, 2)), Polity(2, 2)),
        (ExplicitList((alloc("1/2", "2/3"), alloc(1, "1/4"), alloc("5/6", 0))), Polity(2, 1)),
    ],
)
def test_upper_cone_of_zero_is_the_whole_set(fs, polity):
    zero = alloc(*[(0,) * polity.commodity_dim] * polity.n_agents)
    assert list(enumerate_upper_cone(fs, zero)) == list(enumerate_feasible(fs, polity))


def test_upper_cone_of_a_lattice_state_is_the_state_alone():
    lattice = FixedTotalLattice.shared(10**6)
    state = alloc(1, 2, 10**6 - 3)
    assert list(enumerate_upper_cone(lattice, state)) == [state]
    # a floor above the total leaves nothing
    assert list(enumerate_upper_cone(lattice, alloc(10**6, 1, 0))) == []


def test_upper_cone_checks_the_shape():
    with pytest.raises(InfeasibleConfig):
        list(enumerate_upper_cone(BoxGrid.shared([0, 1]), alloc((0, 0), (1, 1))))
    with pytest.raises(InfeasibleConfig):
        list(enumerate_upper_cone(ExplicitList((alloc(1, 2),)), alloc(0, 0, 0)))


# Every value type of the package, each with a factory that builds a fresh
# instance and the instance's pinned repr.  Reprs reach error messages, such
# as ``unknown transform spec {spec!r}``.
_VALUES = {
    "Bundle": (
        lambda: Bundle(quantities=(1, "1/2")),
        "Bundle(quantities=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    "Polity": (lambda: Polity(n_agents=2, commodity_dim=1), "Polity(n_agents=2, commodity_dim=1)"),
    "Allocation": (
        lambda: Allocation(bundles=((1,), Bundle((2,)))),
        "Allocation(bundles=(Bundle(quantities=(Fraction(1, 1),)), "
        "Bundle(quantities=(Fraction(2, 1),))))",
    ),
    "Move": (
        lambda: Move(before=alloc(0), after=alloc(1)),
        "Move(before=Allocation(bundles=(Bundle(quantities=(Fraction(0, 1),)),)), "
        "after=Allocation(bundles=(Bundle(quantities=(Fraction(1, 1),)),)))",
    ),
    "BoxGrid": (
        lambda: BoxGrid(levels=((0, "1/2"),)),
        "BoxGrid(levels=((Fraction(0, 1), Fraction(1, 2)),))",
    ),
    "FixedTotalLattice": (
        lambda: FixedTotalLattice(totals=(2,), step="1/2"),
        "FixedTotalLattice(totals=(Fraction(2, 1),), step=Fraction(1, 2))",
    ),
    "ExplicitList": (
        lambda: ExplicitList(states=(alloc(1), alloc(0), alloc(1))),
        "ExplicitList(states=(Allocation(bundles=(Bundle(quantities=(Fraction(0, 1),)),)), "
        "Allocation(bundles=(Bundle(quantities=(Fraction(1, 1),)),))))",
    ),
    "OwnBundle": (OwnBundle, "OwnBundle()"),
    "WeightedOwn": (lambda: WeightedOwn(), "WeightedOwn(weights=None)"),
    "RelativeToMean": (
        lambda: RelativeToMean(weights=(1, "2/3")),
        "RelativeToMean(weights=(Fraction(1, 1), Fraction(2, 3)))",
    ),
    "RelativeToNeighborhood": (
        lambda: RelativeToNeighborhood(neighbors=[2, 1], weights=(3,)),
        "RelativeToNeighborhood(neighbors=frozenset({1, 2}), weights=(Fraction(3, 1),))",
    ),
    "Sum": (Sum, "Sum()"),
    "WeightedSum": (
        lambda: WeightedSum(weights=(0, "1.5")),
        "WeightedSum(weights=(Fraction(0, 1), Fraction(3, 2)))",
    ),
    "Maximin": (Maximin, "Maximin()"),
}


@pytest.mark.parametrize("name", _VALUES)
def test_value_types_keep_their_repr_equality_and_hash(name):
    make, text = _VALUES[name]
    value, twin = make(), make()
    assert type(value).__name__ == name
    assert repr(value) == text
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert {value: 1}[twin] == 1


@pytest.mark.parametrize("name", _VALUES)
def test_value_types_refuse_assignment_and_deletion(name):
    value = _VALUES[name][0]()
    before = repr(value)
    # the constructor's parameters are the fields
    for attr in [*inspect.signature(type(value)).parameters, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, attr, 1)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert repr(value) == before


@pytest.mark.parametrize("name", _VALUES)
def test_value_types_round_trip_through_pickle_and_copy(name):
    value = _VALUES[name][0]()
    for twin in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(twin) is type(value)
        assert twin == value and repr(twin) == repr(value)


def test_value_types_equal_only_within_one_type():
    assert OwnBundle() != Maximin()
    assert Sum() != Maximin() and Sum() != OwnBundle()
    assert RelativeToMean() != WeightedOwn()
    assert RelativeToMean((1, 2)) != WeightedOwn((1, 2))
    assert WeightedSum((1, 2)) != WeightedOwn((1, 2))
    assert Polity(2, 1) != (2, 1)
    assert Bundle((1,)) != (Fraction(1),)
    assert len({OwnBundle(), Sum(), Maximin(), WeightedOwn(), RelativeToMean()}) == 5


def test_value_types_keep_their_keyword_constructors():
    assert Polity(n_agents=2, commodity_dim=1) == Polity(2, 1)
    assert Polity(2, 1).n_agents == 2 and Polity(2, 1).commodity_dim == 1
    assert Bundle(quantities=(1,)).quantities == (Fraction(1),)
    assert Allocation(bundles=((1,),)) == alloc(1)
    assert Move(before=alloc(0), after=alloc(1)).after == alloc(1)
    assert FixedTotalLattice(totals=(1,), step=1) == FixedTotalLattice.shared(1)
    assert BoxGrid(levels=((0, 1),)) == BoxGrid.shared([1, 0])
    assert ExplicitList(states=(alloc(1),)).states == (alloc(1),)
    assert WeightedOwn().weights is None and RelativeToMean().weights is None
    assert RelativeToNeighborhood(neighbors={2}).weights is None
    assert RelativeToNeighborhood(neighbors={2}, weights=(1,)).neighbors == frozenset({2})
    assert WeightedSum(weights=(1,)).weights == (Fraction(1),)


_INVALID_VALUES = [
    (lambda: Bundle(()), ValidationError, "bundle must hold at least one commodity"),
    (
        lambda: Bundle((1, 0.5)),
        ValidationError,
        "float literal 0.5 not accepted; quantities are exact",
    ),
    (lambda: Bundle(("-1/2",)), ValidationError, "quantity must be non-negative, got -1/2"),
    (lambda: Polity(0, 1), ValidationError, "polity needs at least one agent"),
    (lambda: Polity(1, 0), ValidationError, "polity needs at least one commodity"),
    (lambda: Allocation(()), ValidationError, "allocation must cover at least one agent"),
    (
        lambda: Allocation(((1,), (1, 2))),
        DimensionMismatch,
        "all bundles in an allocation must share one dimension",
    ),
    (
        lambda: Move(alloc(1), alloc(1, 2)),
        DimensionMismatch,
        "move endpoints disagree on agent count",
    ),
    (
        lambda: Move(alloc((1, 2)), alloc(1)),
        DimensionMismatch,
        "move endpoints disagree on commodity dimension",
    ),
    (lambda: BoxGrid(()), InfeasibleConfig, "box grid needs levels for at least one commodity"),
    (lambda: BoxGrid(((),)), InfeasibleConfig, "each commodity needs at least one level"),
    (lambda: BoxGrid(((1, 1),)), InfeasibleConfig, "levels must be strictly increasing"),
    (
        lambda: FixedTotalLattice((), 1),
        InfeasibleConfig,
        "lattice needs a total for at least one commodity",
    ),
    (
        lambda: FixedTotalLattice((1,), 0),
        InfeasibleConfig,
        "lattice step must be strictly positive",
    ),
    (lambda: FixedTotalLattice((1,), "2/3"), InfeasibleConfig, "step 2/3 does not divide total 1"),
    (lambda: ExplicitList(()), InfeasibleConfig, "explicit state list must be non-empty"),
    (
        lambda: ExplicitList((alloc(1), alloc(1, 2))),
        DimensionMismatch,
        "explicit states disagree on agent count or dimension",
    ),
    (lambda: WeightedOwn(()), ValidationError, "weight list must be non-empty"),
    (
        lambda: RelativeToMean((1, 0)),
        ValidationError,
        "aggregation weights must be strictly positive",
    ),
    (
        lambda: RelativeToNeighborhood(frozenset()),
        ValidationError,
        "neighborhood must name at least one agent",
    ),
    (
        lambda: RelativeToNeighborhood({0}),
        ValidationError,
        "neighborhood ids must be positive integers",
    ),
    (lambda: WeightedSum(()), ValidationError, "weighted_sum needs at least one weight"),
    (lambda: WeightedSum((0, 0)), ValidationError, "weighted_sum weights are all zero"),
    (
        lambda: evaluate_transform(RelativeToMean, alloc(1), 1),
        ValidationError,
        "unknown transform spec <class 'paretoscope.transforms.RelativeToMean'>",
    ),
    (
        lambda: evaluate_transform(WeightedSum((1, "2/3")), alloc(1), 1),
        ValidationError,
        "unknown transform spec WeightedSum(weights=(Fraction(1, 1), Fraction(2, 3)))",
    ),
]


@pytest.mark.parametrize("make,error,message", _INVALID_VALUES)
def test_value_types_keep_their_validation_messages(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message
