"""Core value types: quantities, bundles, allocations, feasible sets."""

from __future__ import annotations

from fractions import Fraction

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
    Move,
    PartialOrderResult,
    Polity,
    ValidationError,
    alloc,
    as_quantity,
    classify_move_agents,
    compare_bundles,
    count_feasible,
    enumerate_feasible,
    feasible_contains,
)


def test_as_quantity_parses_int_ratio_and_decimal():
    assert as_quantity(2) == Fraction(2)
    assert as_quantity("3/2") == Fraction(3, 2)
    assert as_quantity("1.5") == Fraction(3, 2)
    assert as_quantity(Fraction(1, 3)) == Fraction(1, 3)


def test_as_quantity_rejects_negative_float_and_garbage():
    with pytest.raises(ValidationError):
        as_quantity(-1)
    with pytest.raises(ValidationError):
        as_quantity(0.5)
    with pytest.raises(ValidationError):
        as_quantity("not-a-number")
    with pytest.raises(ValidationError):
        as_quantity("1/0")


def test_bundle_coerces_and_rejects_empty():
    b = Bundle(("1/2", 1))
    assert b.quantities == (Fraction(1, 2), Fraction(1))
    assert b.dimension == 2
    with pytest.raises(ValidationError):
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
