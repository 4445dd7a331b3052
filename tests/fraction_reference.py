"""The ``Fraction`` evaluations of transforms and windfall runs, kept as the
tests' reference.

The package reads every transform on ints (``transforms._reading`` resolves
each agent's transform to a function of int holdings), and its public
``evaluate_transform`` is a wrapper over that reading.  A reference built
on the wrapper would compare the int reading with itself, so the tests
compare the package with this copy of the direct definition instead: each
transform computed on exact ``Fraction``s from the allocation's bundles.
``simulate_discovery`` is likewise the direct definition of a windfall run:
every state an ``Allocation``, every step decided by the neoclassical
checker, every state's efficiency by ``is_pareto_efficient`` on its
own-total lattice, and every gap a ``Fraction``.  The package computes the
run on ints instead.  ``compare_bundles``, ``classify_move_agents`` and
``compare_info`` place values in the componentwise order by their own sign
loop and comparisons, where the package reads that order from the one
improvement tally (``polity._tally``).  ``dominated_points`` is the
frontier's dominance by brute force: every pair of points compared on
``Fraction``s, where the package sweeps a staircase or reads bitsets.
"""

from __future__ import annotations

from fractions import Fraction

from paretoscope.compare import MoveClassification, PartialOrderResult
from paretoscope.discovery import DiscoveryRun
from paretoscope.engine import check_improvement_neoclassical, is_pareto_efficient
from paretoscope.errors import (
    DimensionMismatch,
    InfeasibleLattice,
    InvalidAgent,
    ValidationError,
    ZeroReferencePoint,
)
from paretoscope.polity import Allocation, Bundle, FixedTotalLattice, Move, as_quantity
from paretoscope.transforms import (
    OwnBundle,
    PreferenceInfo,
    RelativeToMean,
    RelativeToNeighborhood,
    TransformSpec,
    WeightedOwn,
)


def aggregate(bundle: Bundle, weights: tuple[Fraction, ...] | None) -> Fraction:
    """Weighted sum of a bundle's quantities (unit weights when ``None``)."""
    terms = bundle.quantities
    if weights is not None:
        if len(weights) != bundle.dimension:
            raise DimensionMismatch(
                f"{len(weights)} weights for a {bundle.dimension}-commodity bundle"
            )
        terms = tuple(w * q for w, q in zip(weights, terms))
    # A bundle is never empty; starting from the first term saves adding 0.
    return sum(terms[1:], terms[0])


def _mean_aggregate(
    bundles: tuple[Bundle, ...], weights: tuple[Fraction, ...] | None
) -> Fraction:
    total = aggregate(bundles[0], weights)
    for bundle in bundles[1:]:
        total += aggregate(bundle, weights)
    return total / len(bundles)


def evaluate_transform(
    spec: TransformSpec, allocation: Allocation, agent: int
) -> PreferenceInfo:
    """The information ``agent`` receives at ``allocation`` under ``spec``.

    Returns a ``Bundle`` for ``OwnBundle`` over multiple commodities and an
    exact scalar otherwise.  Raises ``ZeroReferencePoint`` when a relative
    transform's reference mean is zero: the ratio is undefined there.
    """
    if not 1 <= agent <= allocation.n_agents:
        raise InvalidAgent(f"agent {agent} not in 1..{allocation.n_agents}")
    own = allocation.bundle_for(agent)
    if isinstance(spec, OwnBundle):
        if own.dimension == 1:
            return own.quantities[0]
        return own
    if isinstance(spec, WeightedOwn):
        return aggregate(own, spec.weights)
    if isinstance(spec, RelativeToMean):
        members = allocation.bundles
    elif isinstance(spec, RelativeToNeighborhood):
        group = sorted(spec.neighbors)
        for member in group:
            if member > allocation.n_agents:
                raise InvalidAgent(
                    f"neighborhood of agent {agent} names agent {member} "
                    f"but the polity has {allocation.n_agents}"
                )
        members = tuple(allocation.bundle_for(m) for m in group)
    else:
        raise ValidationError(f"unknown transform spec {spec!r}")
    reference = _mean_aggregate(members, spec.weights)
    if reference == 0:
        raise ZeroReferencePoint(
            f"reference mean for agent {agent} is zero", agent=agent
        )
    return aggregate(own, spec.weights) / reference


def _gap(state: Allocation, beneficiary: int) -> Fraction:
    own = aggregate(state.bundle_for(beneficiary), None)
    others = [
        aggregate(state.bundle_for(a), None)
        for a in state.polity.agents
        if a != beneficiary
    ]
    best_other = max(others) if others else Fraction(0)
    return own - best_other


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
    grid.
    """
    if not 1 <= beneficiary <= initial.n_agents:
        raise InvalidAgent(f"beneficiary {beneficiary} not in 1..{initial.n_agents}")
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
    for bundle in initial.bundles:
        for q in bundle.quantities:
            if (q / grid).denominator != 1:
                raise InfeasibleLattice(
                    f"initial quantity {q} is not a multiple of step {grid}"
                )

    trajectory = [initial]
    for _ in range(steps):
        last = trajectory[-1]
        trajectory.append(
            last.with_bundle(
                beneficiary, last.bundle_for(beneficiary).plus_uniform(inc)
            )
        )

    step_verdicts = tuple(
        check_improvement_neoclassical(Move(before=a, after=b))
        for a, b in zip(trajectory, trajectory[1:])
    )
    efficiency_verdicts = tuple(
        is_pareto_efficient(
            state,
            FixedTotalLattice(totals=state.totals(), step=grid),
            OwnBundle(),
        )
        for state in trajectory
    )
    gap_series = tuple(_gap(state, beneficiary) for state in trajectory)
    return DiscoveryRun(
        initial=initial,
        beneficiary=beneficiary,
        steps=steps,
        increment=inc,
        trajectory=tuple(trajectory),
        step_verdicts=step_verdicts,
        efficiency_verdicts=efficiency_verdicts,
        gap_series=gap_series,
    )


def compare_bundles(a: Bundle, b: Bundle) -> PartialOrderResult:
    """Compare two bundles under the componentwise partial order."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"bundle dimensions differ: {a.dimension} vs {b.dimension}")
    some_up = some_down = False
    for x, y in zip(a.quantities, b.quantities):
        if x == y:
            continue
        if x > y:
            some_up = True
        else:
            some_down = True
        if some_up and some_down:
            return PartialOrderResult.INCOMPARABLE
    if some_up:
        return PartialOrderResult.STRICTLY_GREATER
    if some_down:
        return PartialOrderResult.STRICTLY_LESS
    return PartialOrderResult.EQUAL


def classify_move_agents(move: Move) -> MoveClassification:
    """Partition agents into strict gainers, weak losers, and mixed changers."""
    gainers, weak_losers, mixed = set(), set(), set()
    for agent in move.polity.agents:
        result = compare_bundles(move.after.bundle_for(agent), move.before.bundle_for(agent))
        if result is PartialOrderResult.STRICTLY_GREATER:
            gainers.add(agent)
        elif result is PartialOrderResult.INCOMPARABLE:
            mixed.add(agent)
        else:
            weak_losers.add(agent)
    return MoveClassification(frozenset(gainers), frozenset(weak_losers), frozenset(mixed))


def compare_info(a: PreferenceInfo, b: PreferenceInfo) -> PartialOrderResult:
    """Compare two pieces of preference information of the same shape."""
    if isinstance(a, Bundle) and isinstance(b, Bundle):
        return compare_bundles(a, b)
    if isinstance(a, Bundle) or isinstance(b, Bundle):
        raise DimensionMismatch("cannot compare vector information with scalar")
    if a > b:
        return PartialOrderResult.STRICTLY_GREATER
    if a < b:
        return PartialOrderResult.STRICTLY_LESS
    return PartialOrderResult.EQUAL


def dominated_points(points: list[tuple[Fraction, ...] | None]) -> set[int]:
    """The indices of the points that some other point strictly dominates.

    Each pair is compared component by component: ``q`` dominates ``p``
    when no component of ``q`` is below ``p``'s and the two differ.  A
    ``None`` point is neither dominated nor dominating.
    """
    live = [(i, p) for i, p in enumerate(points) if p is not None]
    return {
        i
        for i, p in live
        for _, q in live
        if q != p and all(x >= y for x, y in zip(q, p))
    }
