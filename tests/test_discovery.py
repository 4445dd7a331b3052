"""Windfall accumulation runs."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretoscope import (
    FixedTotalLattice,
    InfeasibleLattice,
    InternalInvariant,
    InvalidAgent,
    OwnBundle,
    ParetoscopeError,
    Polity,
    RelativeToMean,
    ValidationError,
    alloc,
    check_improvement,
    discovery,
    scan_all_moves,
    simulate_discovery,
)

import fraction_reference


def test_basic_run_trajectory_and_gaps():
    run = simulate_discovery(alloc(1, 1), 1, 3)
    assert [s.flat() for s in run.trajectory] == [
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(1)),
        (Fraction(3), Fraction(1)),
        (Fraction(4), Fraction(1)),
    ]
    assert all(v.is_improvement for v in run.step_verdicts)
    assert all(v.is_efficient for v in run.efficiency_verdicts)
    assert run.gap_series == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))


def test_gain_from_zero():
    run = simulate_discovery(alloc(0, 0), 2, 1)
    assert [s.flat() for s in run.trajectory] == [
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    assert run.step_verdicts[0].is_improvement


def test_trajectory_changes_only_the_beneficiary():
    run = simulate_discovery(alloc(2, 3, 4), 2, 5)
    for before, after in zip(run.trajectory, run.trajectory[1:]):
        for agent in (1, 3):
            assert after.bundle_for(agent) == before.bundle_for(agent)
        delta = (
            after.bundle_for(2).quantities[0] - before.bundle_for(2).quantities[0]
        )
        assert delta == run.increment


def test_gap_series_strictly_increasing_and_linear():
    run = simulate_discovery(alloc(1, 1), 1, 10)
    assert all(b > a for a, b in zip(run.gap_series, run.gap_series[1:]))
    assert list(run.gap_series) == [Fraction(t) for t in range(11)]


def test_gap_linear_in_aggregate_increment_with_two_commodities():
    # +1 of each of two commodities per step moves the aggregate gap by 2
    run = simulate_discovery(alloc((1, 1), (1, 1)), 1, 4)
    assert [g - run.gap_series[0] for g in run.gap_series] == [
        Fraction(2 * t) for t in range(5)
    ]


def test_gap_uses_best_off_other_agent():
    run = simulate_discovery(alloc(1, 5, 2), 1, 2)
    assert run.gap_series == (Fraction(-4), Fraction(-3), Fraction(-2))


def test_every_redistribution_from_intermediate_states_fails():
    for agents, initial in ((2, alloc(1, 1)), (3, alloc(1, 1, 1))):
        run = simulate_discovery(initial, 1, 3)
        for state in run.trajectory:
            lattice = FixedTotalLattice(totals=state.totals(), step=Fraction(1))
            report = scan_all_moves(lattice, Polity(agents, 1), OwnBundle())
            assert report.improvements_found == 0
            assert report.efficient_state_count == report.states_examined


def test_relative_mean_rejects_the_same_steps():
    run = simulate_discovery(alloc(1, 1), 1, 2)
    from paretoscope import Move

    for before, after in zip(run.trajectory, run.trajectory[1:]):
        verdict = check_improvement(Move(before, after), RelativeToMean())
        assert not verdict.is_improvement


def test_fractional_increment_on_matching_lattice():
    run = simulate_discovery(
        alloc("1/2", "1/2"), 1, 2, increment="1/2", lattice_step="1/2"
    )
    assert run.trajectory[-1].flat() == (Fraction(3, 2), Fraction(1, 2))
    assert all(v.is_efficient for v in run.efficiency_verdicts)


def test_validation_errors():
    with pytest.raises(InvalidAgent):
        simulate_discovery(alloc(1, 1), 3, 1)
    with pytest.raises(ValidationError):
        simulate_discovery(alloc(1, 1), 1, 0)
    with pytest.raises(ValidationError):
        simulate_discovery(alloc(1, 1), 1, 1, increment=0)


def test_lattice_divisibility_enforced():
    with pytest.raises(InfeasibleLattice):
        simulate_discovery(alloc("1/2", 1), 1, 1)
    with pytest.raises(InfeasibleLattice):
        simulate_discovery(alloc(1, 1), 1, 1, increment="1/2")


@st.composite
def _windfall_cases(draw):
    """A run's arguments, valid or with one drawn fault, so that every
    error of a run is drawn too."""
    fault = draw(
        st.sampled_from([None] * 4 + ["beneficiary", "steps", "increment", "step", "stray"])
    )
    agents, dim = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    grid = Fraction(0 if fault == "step" else draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    units = draw(st.lists(st.integers(0, 4), min_size=agents * dim, max_size=agents * dim))
    flat = [k * grid for k in units]
    # a zero step keeps a positive increment, so its own error is raised
    increment = 0 if fault == "increment" else draw(st.integers(1, 3)) * (grid or 1)
    if fault == "stray":  # a quantity or the increment, likely off the grid
        stray = draw(st.builds(Fraction, st.integers(0, 5), st.integers(1, 6)))
        where = draw(st.integers(0, len(flat)))
        if where == len(flat):
            increment = stray
        else:
            flat[where] = stray
    beneficiary = draw(
        st.sampled_from([0, agents + 1]) if fault == "beneficiary" else st.integers(1, agents)
    )
    steps = 0 if fault == "steps" else draw(st.integers(1, 4))
    bundles = [tuple(flat[start : start + dim]) for start in range(0, len(flat), dim)]
    return alloc(*bundles), beneficiary, steps, increment, grid


def _outcome(simulate, case):
    try:
        return simulate(*case)
    except ParetoscopeError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_windfall_cases())
def test_simulate_discovery_matches_the_fraction_reference(case):
    # the whole record: trajectory, verdicts with their gainers, violators
    # and method, efficiency and gaps; or the same error with the same text
    assert _outcome(simulate_discovery, case) == _outcome(
        fraction_reference.simulate_discovery, case
    )


def test_a_cone_holding_a_second_state_breaks_the_run(monkeypatch):
    real = discovery._upper_cone

    def wider(fs, polity, unit, floor):
        scale, cone = real(fs, polity, unit, floor)
        return scale, iter([*cone, ((0,), (0,))])

    monkeypatch.setattr(discovery, "_upper_cone", wider)
    with pytest.raises(InternalInvariant, match="not alone in its upper cone"):
        simulate_discovery(alloc(1, 1), 1, 2)


def test_a_step_that_moves_another_agent_breaks_the_gap():
    # agent 2 gains with agent 1, so the gap stays 0; every state is still
    # alone in its cone and every step still improves
    trajectory = [((1,), (1,)), ((2,), (1,)), ((3,), (2,))]
    with pytest.raises(InternalInvariant, match="gap"):
        discovery._checked(Polity(2, 1), 1, Fraction(1), 1, 1, trajectory)
    # the same trajectory without agent 2's gain passes
    trajectory[2] = ((3,), (1,))
    assert discovery._checked(Polity(2, 1), 1, Fraction(1), 1, 1, trajectory).gaps == [0, 1, 2]
