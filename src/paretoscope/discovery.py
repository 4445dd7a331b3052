"""Simulation of repeated windfall accumulation by a single agent.

One agent (the beneficiary) repeatedly receives an increment of every
commodity out of nowhere; nobody else's holdings change.  The run records,
for every step, whether the step is a classical improvement, and for every
intermediate state, whether it is efficient when the only feasible
alternatives are redistributions of that state's own totals.  It also tracks
the gap between the beneficiary's aggregate holdings and the best-off other
agent's, which grows linearly without ever breaking improvement or
efficiency.

``_windfall`` computes the run from int holdings and checks its two facts,
raising ``InternalInvariant`` if either fails: each state is alone in its
upper cone on its own-total lattice, and the gap grows by the increment
times the commodity count a step.  ``discover`` runs it on the scenario's
parsed holdings, and ``simulate_discovery`` is a view of it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .engine import EfficiencyVerdict, ImprovementVerdict, Method, _verdict
from .errors import InfeasibleLattice, InternalInvariant, InvalidAgent, ValidationError
from .polity import Allocation, FixedTotalLattice, Polity, _allocations, _common_holdings
from .polity import _Holdings, _on_one_scale, _tally, _Tally, _upper_cone, as_quantity


class DiscoveryRun(NamedTuple):
    """Full record of an accumulation run.

    ``trajectory`` has ``steps + 1`` states; ``step_verdicts`` has one entry
    per step; ``efficiency_verdicts`` and ``gap_series`` cover every state.
    """

    initial: Allocation
    beneficiary: int
    steps: int
    increment: Fraction
    trajectory: tuple[Allocation, ...]
    step_verdicts: tuple[ImprovementVerdict, ...]
    efficiency_verdicts: tuple[EfficiencyVerdict, ...]
    gap_series: tuple[Fraction, ...]


class _Windfall(NamedTuple):
    """A checked run: each state's int holdings, step tally and gap, over ``scale``."""

    scale: int
    trajectory: list[_Holdings]
    tallies: list[_Tally]
    gaps: list[int]


def _windfall(
    unit: int, initial: _Holdings, beneficiary: int, steps: int, increment, lattice_step
) -> _Windfall:
    """``simulate_discovery``'s run on ints, from ``initial`` holdings on
    ``unit``, over the least common multiple of the increment's and the
    step's denominators, which every quantity on the step grid divides."""
    if not 1 <= beneficiary <= len(initial):
        raise InvalidAgent(f"beneficiary {beneficiary} not in 1..{len(initial)}")
    if steps < 1:
        raise ValidationError("steps must be a positive integer")
    inc = as_quantity(increment)
    if inc <= 0:
        raise ValidationError("increment must be strictly positive")
    grid = as_quantity(lattice_step)
    if grid <= 0:
        raise ValidationError("lattice step must be strictly positive")
    if (inc / grid).denominator != 1:
        raise InfeasibleLattice(f"increment {inc} is not a multiple of step {grid}")
    for q in [Fraction(h, unit) for bundle in initial for h in bundle]:
        if (q / grid).denominator != 1:
            raise InfeasibleLattice(f"initial quantity {q} is not a multiple of step {grid}")

    scale, (units, _) = _on_one_scale((inc, grid))
    state = tuple([tuple([h * scale // unit for h in bundle]) for bundle in initial])
    trajectory = [state]
    for _ in range(steps):
        gained = tuple([h + units for h in state[beneficiary - 1]])
        state = state[: beneficiary - 1] + (gained,) + state[beneficiary:]
        trajectory.append(state)
    polity = Polity(len(initial), len(initial[0]))
    return _checked(polity, beneficiary, grid, scale, units, trajectory)


def _checked(
    polity: Polity, beneficiary: int, grid: Fraction, scale: int, units: int, trajectory: list
) -> _Windfall:
    """Decide and measure ``trajectory``, int holdings on ``scale`` in which
    the beneficiary gains ``units`` of every commodity a step, and check that
    each state is alone in its upper cone on its own-total lattice of
    ``grid`` steps and that the gap series is gap₀ + t·units·dim."""
    for t, state in enumerate(trajectory):
        totals = tuple([Fraction(sum(column), scale) for column in zip(*state)])
        unit, cone = _upper_cone(FixedTotalLattice(totals, grid), polity, scale, state)
        # every quantity is whole steps, so the scale is the lattice's own
        if unit != scale or list(cone) != [state]:
            raise InternalInvariant(f"windfall state {t} is not alone in its upper cone")
    others = [agent - 1 for agent in polity.agents if agent != beneficiary]
    best_other = [max([sum(state[i]) for i in others], default=0) for state in trajectory]
    gaps = [sum(state[beneficiary - 1]) - best for state, best in zip(trajectory, best_other)]
    rise = units * polity.commodity_dim
    if gaps != [gaps[0] + t * rise for t in range(len(gaps))]:
        raise InternalInvariant("the windfall gap does not grow by the windfall at every step")
    tallies = [_tally(polity.agents, *move[::-1]) for move in zip(trajectory, trajectory[1:])]
    return _Windfall(scale, trajectory, tallies, gaps)


def simulate_discovery(
    initial: Allocation,
    beneficiary: int,
    steps: int,
    increment: Fraction | int | str = 1,
    lattice_step: Fraction | int | str = 1,
) -> DiscoveryRun:
    """Run ``steps`` rounds of windfall accumulation from ``initial``.

    Each round adds ``increment`` of every commodity to the beneficiary's
    bundle.  Efficiency of each state is judged against the lattice of
    redistributions of that state's totals on a grid of ``lattice_step``
    multiples; the initial quantities and the increment must sit on that
    grid.  This is a view of ``_windfall``'s run.
    """
    unit, (holdings,) = _common_holdings((initial,))
    run = _windfall(unit, holdings, beneficiary, steps, increment, lattice_step)
    return DiscoveryRun(
        initial=initial,
        beneficiary=beneficiary,
        steps=steps,
        increment=as_quantity(increment),
        trajectory=tuple(_allocations(run.scale, run.trajectory)),
        step_verdicts=tuple([_verdict(tally, Method.NEOCLASSICAL) for tally in run.tallies]),
        # each state's cone held only the state: no feasible target improves
        efficiency_verdicts=(EfficiencyVerdict(True, None),) * len(run.trajectory),
        gap_series=tuple([Fraction(gap, run.scale) for gap in run.gaps]),
    )
