"""Improvement checking, efficiency testing, frontier enumeration, and scans.

A move is an improvement when every agent's transformed information weakly
rises and at least one agent's strictly rises.  Three checkers implement this:

* ``check_improvement`` applies the definition directly to any transforms.
* ``check_improvement_neoclassical`` is the classical special case where each
  agent's information is their own bundle.
* ``check_improvement_ratio_form`` evaluates, for single-commodity moves with
  no mixed agents, the sign conditions on the ratios of information changes to
  bundle changes.  It is a genuinely separate evaluation route: the tests
  confirm it agrees with the definitional checker rather than assuming it.

Every transform is read on ints by the one reading layer in ``transforms``:
``_readings`` resolves every agent's transform to a function of int
holdings before any state is read, and ``_read_state`` reads every agent's
information at one state as int components over a positive int, with no
``Fraction`` arithmetic.  All three checkers read one exact-int evaluation
of the move built from it (``_move_information``): each agent's information
at both ends as int component tuples that compare exactly as the
information does.  One core (``_move_outcome``) decides a move by all three
checkers from its ``(before, after)`` int holdings on one scale:
``check_moves`` gives it each move's ends on one int scale
(``_common_holdings``), resolving the readings once per polity shape, and
wraps it in ``MoveVerdicts``; the ``check-move`` command gives it the
scenario's parsed ints and renders its rows from them, with no
``Allocation`` made.  ``check_improvement`` and
``check_improvement_ratio_form`` each decide only their own verdict, by
``_tally`` on ``_move_information`` of the move's ``_common_holdings``,
with no other checker's work.  The checkers
share one definition of improvement with reasons, ``polity._tally``;
``polity._dominates`` is its yes/no form on flat int signatures, for the
loops that need no reasons.  Frontiers and scans read one ``SignatureTable``:
each state's flat signature, read and scaled to exact ints by one common
factor (``transforms._signatures``, the core that welfare ranks by too)
from the feasible set's int state stream (``feasible_holdings``, with no
``Allocation`` made).  Under one shared ``relative_mean``
(``_shared_mean``, read from the transforms alone) every live signature
sums to the agent count times the scale, which is checked row by row, and
no state dominates another: the frontier keeps every live state and the
scan finds no move, with no dominance work.  Otherwise the frontier gives
each dominated state one witness that dominates it, by a staircase sweep
(``_frontier_sweep``) for signatures of at most three components and by
the dominator bitsets (``_dominator_masks``) for longer ones.  A scan
reads the bitsets, which give each state the set of states dominating it,
counts its improving moves from them and keeps them, so the moves are
listed only on demand.
One int search (``_efficiency``), which ``efficient`` runs on unranked
holdings and ``is_pareto_efficient`` wraps, reads the state and each
target of that int stream, or of its upper cone (``_upper_cone``), by the
same readings, makes the ends comparable (``_comparable``) and decides by
``_dominates``.  The tests hold every int route against a separate
evaluation of the transforms on ``Fraction``s.  ``enumerate_frontier``
certifies its split on every call, whatever the route: each dominated
state is checked by ``_dominates`` against its witness, and no kept state
may dominate another, which is tested over the kept states only.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CapExceeded, HypothesisViolated, InternalInvariant, ZeroReferencePoint
from .polity import (
    Allocation,
    FeasibleSet,
    Move,
    Polity,
    ViolationKind,
    _Holdings,
    _Tally,
    _allocations,
    _common_holdings,
    _dominates,
    _tally,
    _upper_cone,
    count_feasible,
    feasible_contains,
    feasible_holdings,
)
from .report import render_allocation
from .transforms import (
    OwnBundle,
    RelativeToMean,
    TransformSpec,
    Transforms,
    WeightedOwn,
    _Reader,
    _read_state,
    _readings,
    _signatures,
    transforms_for,
)

DEFAULT_SCAN_CAP = 200_000

class Method(Enum):
    DEFINITIONAL = "definitional"
    NEOCLASSICAL = "neoclassical"
    RATIO_FORM = "ratio_form"


class ImprovementVerdict(NamedTuple):
    """Outcome of an improvement check.

    ``strict_gainers`` lists agents whose information strictly rose;
    ``violators`` lists agents blocking the improvement together with how
    they block it.  Both are ordered by agent id.
    """

    is_improvement: bool
    strict_gainers: tuple[int, ...]
    violators: tuple[tuple[int, ViolationKind], ...]
    method: Method


def _tagged_zero_reference(exc: ZeroReferencePoint, endpoint: str) -> ZeroReferencePoint:
    return ZeroReferencePoint(
        f"{exc.args[0]} at the {endpoint} state of the move",
        agent=exc.agent,
        endpoint=endpoint,
    )


def _improved(tally: _Tally) -> bool:
    """The ``_tally`` verdict: no violator and some strict gainer."""
    return not tally[1] and bool(tally[0])


def _verdict(
    tally: _Tally, method: Method, is_improvement: bool | None = None
) -> ImprovementVerdict:
    """``method``'s verdict with ``tally``'s reasons, by default its yes/no."""
    if is_improvement is None:
        is_improvement = _improved(tally)
    return ImprovementVerdict(is_improvement, tuple(tally[0]), tuple(tally[1]), method)


def _move_information(
    readings: list[tuple[int, _Reader | None]], holdings: Sequence[_Holdings]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Every agent's information at both ends of a move, as exact ints.

    ``readings`` is ``_readings`` for the move's polity and ``holdings`` the
    move's ``(before, after)`` ints on one scale.  Returns one component
    tuple per agent and end, ``(after, before)``, that compare agent by
    agent exactly as the information does: each end is read by
    ``_read_state`` in the units of the one holding scale both ends share,
    and the two ends are made comparable by ``_comparable``.

    Raises ``ZeroReferencePoint`` at the from end agent by agent, then at
    the to end, tagged with the end where the reference is zero.
    """
    before_holdings, after_holdings = holdings
    try:
        before = _read_state(readings, before_holdings, 1)
    except ZeroReferencePoint as exc:
        raise _tagged_zero_reference(exc, "from") from exc
    try:
        after = _read_state(readings, after_holdings, 1)
    except ZeroReferencePoint as exc:
        raise _tagged_zero_reference(exc, "to") from exc
    return _comparable(after, before)


def _comparable(
    after: list[tuple[tuple[int, ...], int]], before: list[tuple[tuple[int, ...], int]]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Every agent's ``_read_state`` at two ends as int tuples that compare exactly.

    The ends may be read on different holding scales.  Where an agent's
    denominators differ, each end's components are multiplied by the other
    end's denominator.
    """
    after_components, before_components = [], []
    for (a, den_a), (b, den_b) in zip(after, before):
        if den_a != den_b:
            a = tuple([x * den_b for x in a])
            b = tuple([y * den_a for y in b])
        after_components.append(a)
        before_components.append(b)
    return after_components, before_components


def _information(
    move: Move, transforms: Transforms, holdings: Sequence[_Holdings]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """``_move_information`` of ``move``'s ``holdings`` under ``transforms``,
    every agent's reading resolved first."""
    polity = move.polity
    return _move_information(_readings(transforms_for(polity, transforms), polity), holdings)


def check_improvement(move: Move, transforms: Transforms) -> ImprovementVerdict:
    """Decide by definition whether ``move`` improves on its starting state.

    Raises what ``check_move`` raises.
    """
    _, holdings = _common_holdings((move.before, move.after))
    after, before = _information(move, transforms, holdings)
    return _verdict(_tally(move.polity.agents, after, before), Method.DEFINITIONAL)


def check_improvement_neoclassical(move: Move) -> ImprovementVerdict:
    """Classical check: every agent's information is their own bundle."""
    _, (before, after) = _common_holdings((move.before, move.after))
    return _verdict(_tally(move.polity.agents, after, before), Method.NEOCLASSICAL)


def _direction(after: int, before: int) -> int:
    """The sign of ``after - before``: 1, 0 or -1."""
    return (after > before) - (after < before)


def _ratio_movers(
    polity: Polity, holdings: Sequence[_Holdings]
) -> list[int] | HypothesisViolated:
    """The sign of each holding change that is not zero, in agent order.

    1 marks a gainer, whose ratios form the first family, and -1 a loser
    (the second).  When the ratio form does not apply (several commodities,
    or no strict gainer) the ``HypothesisViolated`` that says so is returned
    instead.  It is not raised here: an exception kept as a value would hold
    its traceback, and with it this frame, in a reference cycle.
    """
    if polity.commodity_dim != 1:
        return HypothesisViolated(
            "ratio-form check requires a single commodity, "
            f"got {polity.commodity_dim}"
        )
    before, after = holdings
    x_signs = (_direction(a[0], b[0]) for a, b in zip(after, before))
    movers = [x_sign for x_sign in x_signs if x_sign]
    if 1 not in movers:
        return HypothesisViolated("ratio-form check requires at least one strict gainer")
    return movers


def _ratio_improves(
    movers: list[int], after: list[tuple[int, ...]], before: list[tuple[int, ...]]
) -> bool:
    """The ratio form's verdict, from ``_ratio_movers`` and the information."""
    ok = True
    strict = False
    for a, b in zip(after, before):
        info_sign = _direction(a[0], b[0])
        for x_sign in movers:
            # The sign of this ratio must not be the opposite of its
            # family's; one that equals its family's is strict.
            ratio_sign = info_sign * x_sign
            if ratio_sign == -x_sign:
                ok = False
            elif ratio_sign == x_sign:
                strict = True
    return ok and strict


def check_improvement_ratio_form(move: Move, transforms: Transforms) -> ImprovementVerdict:
    """Decide improvement via ratio sign conditions on information changes.

    Applies to single-commodity moves with at least one strict gainer; every
    other agent's holding weakly fell.  The conditions: for every agent k and
    every gainer i, the ratio of k's information change to i's holding change
    must be non-negative; for every agent k and every loser j whose holding
    actually changed, the corresponding ratio must be non-positive; and at
    least one ratio in either family must be strict.  Ratios against an
    unchanged holding are vacuously satisfied.  Only the sign of each ratio
    is read, so it is taken as the product of the signs of its two changes
    and nothing is divided.  Both hypotheses are checked before any
    transform is resolved; the verdict and its reasons are then ``check_move``'s.
    """
    _, holdings = _common_holdings((move.before, move.after))
    movers = _ratio_movers(move.polity, holdings)
    if isinstance(movers, HypothesisViolated):
        raise movers
    after, before = _information(move, transforms, holdings)
    tally = _tally(move.polity.agents, after, before)
    return _verdict(tally, Method.RATIO_FORM, _ratio_improves(movers, after, before))


class MoveVerdicts(NamedTuple):
    """The three verdicts on one move, from one evaluation of it.

    ``ratio_form`` holds the ``HypothesisViolated`` that says why the ratio
    form does not apply, when it does not.
    """

    definitional: ImprovementVerdict
    neoclassical: ImprovementVerdict
    ratio_form: ImprovementVerdict | HypothesisViolated


def _move_outcome(
    polity: Polity,
    readings: list[tuple[int, _Reader | None]],
    holdings: Sequence[_Holdings],
) -> tuple[_Tally, _Tally, bool | HypothesisViolated]:
    """One move's decision by all three checkers, from ``(before, after)``
    ints on one scale: the definitional tally, the neoclassical tally (of the
    holdings) and the ratio form's yes/no or its ``HypothesisViolated``.
    ``check_moves`` and the ``check-move`` command both decide by it.
    """
    after, before = _move_information(readings, holdings)
    movers = _ratio_movers(polity, holdings)
    if not isinstance(movers, HypothesisViolated):
        movers = _ratio_improves(movers, after, before)
    return _tally(polity.agents, after, before), _tally(polity.agents, *holdings[::-1]), movers


def check_moves(moves: Iterable[Move], transforms: Transforms) -> Iterator[MoveVerdicts]:
    """Decide each of ``moves`` by all three checkers, one move at a time.

    The transforms are assigned and every agent's reading resolved once per
    polity shape, at its first move, so a bad transform is raised there,
    before either end of that move is read.  Each move then raises what
    ``check_move`` raises on it.
    """
    shapes: dict[Polity, list[tuple[int, _Reader | None]]] = {}
    for move in moves:
        polity = move.polity
        readings = shapes.get(polity)
        if readings is None:
            readings = shapes[polity] = _readings(transforms_for(polity, transforms), polity)
        _, holdings = _common_holdings((move.before, move.after))
        tally, neoclassical, ratio = _move_outcome(polity, readings, holdings)
        if not isinstance(ratio, HypothesisViolated):
            ratio = _verdict(tally, Method.RATIO_FORM, ratio)
        definitional = _verdict(tally, Method.DEFINITIONAL)
        yield MoveVerdicts(definitional, _verdict(neoclassical, Method.NEOCLASSICAL), ratio)


def check_move(move: Move, transforms: Transforms) -> MoveVerdicts:
    """Decide ``move`` by all three checkers, evaluating it once.

    Raises ``ValidationError`` or ``InvalidAgent`` for a transform
    assignment that does not fit the polity, then ``InvalidAgent`` and
    ``DimensionMismatch`` for a bad transform in agent order, before either
    end is read; then ``ZeroReferencePoint``, tagged with its end.  The
    ratio form's ``HypothesisViolated`` is returned in its slot instead.
    """
    return next(check_moves((move,), transforms))


class EfficiencyVerdict(NamedTuple):
    """Whether a state admits no feasible improvement.

    ``witness`` is the first improving move in enumeration order when one
    exists.  ``skipped_targets`` counts feasible targets that could not be
    evaluated because a relative transform's reference point was zero there.
    """

    is_efficient: bool
    witness: Move | None
    skipped_targets: int = 0


class SignatureTable(NamedTuple):
    """Every feasible state's information as exact scaled integers.

    Row ``i`` is the state with enumeration index ``i``: its signature, the
    information components of every agent in agent order (one for scalar
    information) flattened to one int tuple, or ``None`` for a degenerate
    state.  Each agent's information is read once per state from the
    state's int holdings (``feasible_holdings``), by the readings
    ``check_move`` uses (``_read_state``), and every information component ``c``
    is stored as the int ``c * scale``, where ``scale`` is the least common
    multiple of the reduced denominators of all live components
    (``_signatures``).

    One common positive scale keeps every comparison exact: ``x < y`` exactly
    when ``x * scale < y * scale``, and equal rational sums stay equal.
    ``Fraction(component, scale)`` recovers the information, which equals
    what ``evaluate_transform`` gives there.

    Improvement between two states is equivalent to strict componentwise
    dominance between their signatures (``_dominates``): per-agent weak
    rises concatenate to a componentwise weak rise, and any strict
    component makes exactly one agent strictly better off.
    Strict dominance also implies a strictly larger signature sum, so
    signatures that share one sum form an antichain, as they do under one
    shared ``relative_mean`` (the agent count times ``scale``).
    """

    scale: int
    signatures: list[tuple[int, ...] | None]

    @property
    def live(self) -> list[int]:
        """Indices of the non-degenerate states, in enumeration order."""
        return [i for i, sig in enumerate(self.signatures) if sig is not None]


def build_signature_table(
    fs: FeasibleSet,
    polity: Polity,
    transforms: Transforms,
    warning: str | None = None,
) -> SignatureTable:
    """Stream ``fs`` as int holdings and read every agent's information once per state.

    A feasible set that does not fit the polity raises ``InfeasibleConfig``
    first.  Each agent's reading is then resolved once, so ``InvalidAgent``
    and ``DimensionMismatch`` are raised in agent order before any state is
    read.  Every state's holdings come on one scale, fixed before the first
    state (``feasible_holdings``), and are read and scaled by
    ``_signatures``, with no ``Fraction`` and no ``Allocation`` made.  When
    ``warning`` is given, each degenerate state is reported on stderr as
    "WARNING: state <index> <warning>: <reason>".
    """
    specs = transforms_for(polity, transforms)
    unit, feasible = feasible_holdings(fs, polity)
    readings = _readings(specs, polity)

    def degenerate(index: int, exc: ZeroReferencePoint) -> None:
        if warning is not None:
            print(f"WARNING: state {index} {warning}: {exc}", file=sys.stderr)

    return SignatureTable(*_signatures(readings, unit, feasible, degenerate))


def _own_type(specs: dict[int, TransformSpec], commodity_dim: int) -> bool:
    """Whether every agent's information can rise only if their own bundle does.

    ``OwnBundle`` information is the bundle itself.  ``WeightedOwn`` with one
    commodity is a positive multiple of the holding; over several
    commodities a weighted sum can rise while some holding falls, so it does
    not qualify.
    """
    return all(
        isinstance(spec, OwnBundle) or (isinstance(spec, WeightedOwn) and commodity_dim == 1)
        for spec in specs.values()
    )


def _efficiency(
    fs: FeasibleSet, polity: Polity, specs: dict, readings: list, scale: int, holdings: _Holdings
) -> tuple[int, _Holdings | None, int]:
    """``is_pareto_efficient``'s search from int ``holdings`` on ``scale``,
    given the polity's transform ``specs`` and their ``_readings``: the
    targets' scale, the witness's holdings or ``None``, and the skipped count.

    Targets stream through as int holdings on the feasible set's scale
    rather than filling a table, and the search stops at the first witness.
    """
    try:
        before = _read_state(readings, holdings, scale)
    except ZeroReferencePoint as exc:
        raise _tagged_zero_reference(exc, "from") from exc
    if _own_type(specs, polity.commodity_dim):
        unit, targets = _upper_cone(fs, polity, scale, holdings)
    else:
        unit, targets = feasible_holdings(fs, polity)
    skipped = 0
    for target in targets:
        try:
            after = _read_state(readings, target, unit)
        except ZeroReferencePoint:
            skipped += 1
            continue
        gained, kept = _comparable(after, before)
        if _dominates(tuple(chain(*gained)), tuple(chain(*kept))):
            return unit, target, skipped
    return unit, None, skipped


def is_pareto_efficient(
    state: Allocation, fs: FeasibleSet, transforms: Transforms
) -> EfficiencyVerdict:
    """Check ``state`` against every feasible alternative.

    Targets are tried in enumeration order and the first improving one is
    the witness.  When every agent's transform is own-type (``OwnBundle``,
    or ``WeightedOwn`` on a single commodity), an improving target must hold
    at least ``state``'s quantity in every slot, so only that upper cone is
    searched (``_upper_cone``, the subsequence of the feasible set's int
    stream that holds at least the state).  The cone keeps enumeration
    order, so the witness is the same.  The cone of a state of a
    fixed-total lattice is the state alone: under own-bundle preferences
    every redistribution is efficient, and this costs nothing to confirm.
    Other transforms search the whole int stream (``feasible_holdings``).

    This is a view of the int search ``_efficiency``, which the
    ``efficient`` command runs on an unranked state's holdings; only the
    witness is made an ``Allocation``, from its holdings.

    Raises ``InvalidAgent`` and ``DimensionMismatch`` for a bad transform in
    agent order before the state is read, as ``check_move`` does; then
    ``ZeroReferencePoint`` when the state itself has an undefined
    relative position; then ``InfeasibleConfig`` for a feasible set that
    does not fit the state.  Alternatives with undefined positions are
    skipped and counted in ``skipped_targets``.  The state itself needs no
    skipping: a move to an identical state leaves every agent equal, so it
    never improves.
    """
    polity = state.polity
    specs = transforms_for(polity, transforms)
    # Resolving every agent's reading checks every transform, in agent
    # order, before any agent's information is read at the state.
    readings = _readings(specs, polity)
    if not feasible_contains(fs, state):
        print(
            f"WARNING: state {render_allocation(state)} is not in the declared feasible set",
            file=sys.stderr,
        )
    scale, (holdings,) = _common_holdings((state,))
    unit, witness, skipped = _efficiency(fs, polity, specs, readings, scale, holdings)
    if witness is None:
        return EfficiencyVerdict(True, None, skipped)
    return EfficiencyVerdict(False, Move(state, next(_allocations(unit, (witness,)))), skipped)


class FrontierReport(NamedTuple):
    """Per-state efficiency over a whole feasible set.

    ``states`` counts the feasible states, whose ids are their enumeration
    indices.  ``efficient_ids`` is the frontier itself and
    ``degenerate_ids`` the states with an undefined reference point, which
    are flagged rather than classified; both are in enumeration order.
    """

    states: int
    efficient_ids: tuple[int, ...]
    degenerate_ids: tuple[int, ...]


def _dominator_masks(table: SignatureTable) -> Iterator[tuple[int, int]]:
    """Each live state's index with the bitset of the live states dominating it.

    Bit ``j`` of the mask is set when state ``j`` strictly dominates the
    state, that is when the move to ``j`` improves on it.  This is the Bitmap
    skyline of Tan, Eng & Ooi ("Efficient Progressive Skyline Computation",
    VLDB 2001), with Python ints as the bitsets.  For each signature
    dimension, each distinct value maps to the set of live states whose
    component there is at least that value, built as a running OR over the
    values in descending order; the running OR just before the value is the
    set strictly above it.  A state's strict dominators are the states at or
    above it in every dimension (the AND of its "at least" sets) that are
    strictly above it in some dimension (the OR of its "above" sets).  The
    sets take D·V·n bits for D dimensions with V distinct values each, since
    each "above" set is the "at least" set of the next value up; masks are
    made one state at a time, so no n × n structure is held.
    """
    live, signatures = table.live, table.signatures
    if not live:
        return
    # Per dimension: value -> (states at or above it, states strictly above it).
    bounds: list[dict[int, tuple[int, int]]] = []
    for d in range(len(signatures[live[0]])):
        exactly: dict[int, int] = {}
        for i in live:
            value = signatures[i][d]
            exactly[value] = exactly.get(value, 0) | 1 << i
        above = 0
        sets: dict[int, tuple[int, int]] = {}
        for value in sorted(exactly, reverse=True):
            at_least = above | exactly[value]
            sets[value] = (at_least, above)
            above = at_least
        bounds.append(sets)
    for i in live:
        weakly, strictly = -1, 0
        for sets, value in zip(bounds, signatures[i]):
            at_least, above = sets[value]
            weakly &= at_least
            strictly |= above
        yield i, weakly & strictly


def _shared_mean(specs: dict[int, TransformSpec]) -> bool:
    """Whether every agent reads ``RelativeToMean`` with the same weights.

    Each agent's information is then n·aggₖ / Σ agg, so at every live state
    the n agents' information sums to n, and no state dominates another.
    """
    first = next(iter(specs.values()))
    return isinstance(first, RelativeToMean) and all(spec == first for spec in specs.values())


def _check_shared_mean(table: SignatureTable, n_agents: int) -> None:
    """Raise ``InternalInvariant`` unless every live signature sums to
    ``n_agents`` times the table's scale, as ``_shared_mean`` implies."""
    total = n_agents * table.scale
    for i, signature in enumerate(table.signatures):
        if signature is not None and sum(signature) != total:
            raise InternalInvariant(
                f"state {i}'s information sums to {sum(signature)}/{table.scale}, "
                f"not the agent count {n_agents}, under a shared relative_mean"
            )


def _frontier_sweep(table: SignatureTable) -> dict[int, int]:
    """Each dominated live state's index with a live state dominating it,
    for signatures of at most three components, padded to three.

    This is the 3-D maxima sweep, the base case of Kung, Luccio & Preparata
    ("On finding the maxima of a set of vectors", JACM 22(4), 1975), in
    O(n log n) comparisons.  The states are swept in descending
    lexicographic order, so each state swept before a state is at least as
    large in the first component, and differs from it unless the two are
    equal.  A signature equal to the previous one takes its twin's fate.
    Any other state is dominated exactly when a kept state swept before it
    is at least its (y, z).  The staircase of the kept pairs that no kept
    pair covers is held y ascending and z descending, in lists searched
    with ``bisect``: the state is dominated exactly when the first entry
    with y′ ≥ y has z′ ≥ z, and that entry's state is its witness.
    Otherwise it is kept and replaces the entries it covers.
    """
    signatures, live = table.signatures, table.live
    if not live:
        return {}
    pad = (0,) * (3 - len(signatures[live[0]]))
    ys: list[int] = []
    zs: list[int] = []
    owners: list[int] = []
    witnesses: dict[int, int] = {}
    previous = witness = None
    for i in sorted(live, key=signatures.__getitem__, reverse=True):
        signature = signatures[i]
        if signature == previous:
            if witness is not None:
                witnesses[i] = witness
            continue
        previous = signature
        _, y, z = signature + pad
        at = bisect_left(ys, y)
        if at < len(ys) and zs[at] >= z:
            witness = witnesses[i] = owners[at]
            continue
        witness = None
        # the entries with y′ ≤ y and z′ ≤ z: one at ``at`` with y′ = y, and
        # the run before ``at`` whose z′ is at most z
        end = at + 1 if at < len(ys) and ys[at] == y else at
        start = at
        while start and zs[start - 1] <= z:
            start -= 1
        ys[start:end], zs[start:end], owners[start:end] = [y], [z], [i]
    return witnesses


def _kept_dominated(
    signatures: list[tuple[int, ...] | None], kept: list[int]
) -> Iterator[tuple[int, int]]:
    """Each kept state that a kept state dominates, with one that does,
    by ``_dominator_masks`` over a table of the kept states only."""
    # the bitsets read no scale
    for position, mask in _dominator_masks(SignatureTable(1, [signatures[i] for i in kept])):
        if mask:
            yield kept[position], kept[mask.bit_length() - 1]


def _kept_dominated_by_rank(
    signatures: list[tuple[int, ...] | None], kept: list[int]
) -> Iterator[tuple[int, int]]:
    """``_kept_dominated`` by ``_dominates`` alone, with no bitset.

    Strict dominance implies a strictly larger signature sum, so each kept
    state is tested only against the kept states of strictly larger sum.
    """
    ranked = sorted(((sum(signatures[i]), i) for i in kept), reverse=True)
    higher, previous = 0, None  # ranked[:higher] have a strictly larger sum
    for position, (total, i) in enumerate(ranked):
        if total != previous:
            higher, previous = position, total
        for _, k in ranked[:higher]:
            if _dominates(signatures[k], signatures[i]):
                yield i, k


def enumerate_frontier(
    fs: FeasibleSet, polity: Polity, transforms: Transforms
) -> FrontierReport:
    """Classify every feasible state as efficient or not.

    The route is chosen before any state is read.  When every agent reads
    one shared ``relative_mean`` (``_shared_mean``), every live state is
    efficient, and each live signature is checked to sum to the agent count
    times the table's scale (``_check_shared_mean``); no dominance test is
    made.  Otherwise each dominated state gets one state that dominates it,
    its witness: from the staircase sweep (``_frontier_sweep``) for
    signatures of at most three components, and from the lowest set bit of
    its dominator bitset (``_dominator_masks``) for longer ones.  The
    efficient states are the live states with no witness.

    Every call certifies that split, whatever the route, in the sense of
    McConnell, Mehlhorn, Näher & Schweitzer ("Certifying algorithms",
    Computer Science Review 5(2), 2011), in two parts:

    * (a) witnesses: each dominated state is checked by ``_dominates`` on
      the signatures against its witness;
    * (b) antichain: no kept state dominates another.  After the sweep
      this is ``_dominator_masks`` over a table of the kept states only
      (``_kept_dominated``).  After the bitsets it is ``_dominates`` against
      the kept states of larger sum (``_kept_dominated_by_rank``), so no
      check reads the bitsets it checks.  Strict dominance implies a
      strictly larger signature sum, so (b) is skipped when every kept sum
      is equal.

    By (a) every truly undominated state is kept.  A kept state that is
    truly dominated is dominated by some undominated state, which is kept
    too, and that breaks (b).  A failed check raises ``InternalInvariant``;
    so does an empty frontier over live states, which cannot happen on a
    finite set.  When every feasible state is degenerate no state is left
    to rank, a fact of the input, and ``ZeroReferencePoint`` is raised
    after each state's warning.  The report holds state ids only,
    so no ``Allocation`` is made: a caller that shows the states reads them
    from ``feasible_holdings``, in the table's order.
    """
    specs = transforms_for(polity, transforms)
    table = build_signature_table(fs, polity, specs, "excluded from frontier")
    signatures, live = table.signatures, table.live
    degenerate = tuple([i for i, signature in enumerate(signatures) if signature is None])
    if not live:
        raise ZeroReferencePoint(
            "every feasible state has an undefined reference point; frontier is empty"
        )
    if _shared_mean(specs):
        _check_shared_mean(table, polity.n_agents)
        return FrontierReport(len(signatures), tuple(live), degenerate)
    swept = len(signatures[live[0]]) <= 3
    if swept:
        witnesses = _frontier_sweep(table)
    else:
        witnesses = {
            i: (mask & -mask).bit_length() - 1 for i, mask in _dominator_masks(table) if mask
        }
    for i, witness in witnesses.items():
        if not _dominates(signatures[witness], signatures[i]):
            raise InternalInvariant(
                f"state {witness} is marked as dominating state {i} "
                "but does not improve on it"
            )
    efficient = [i for i in live if i not in witnesses]
    if not efficient:
        raise InternalInvariant("non-empty state set produced an empty frontier")
    if len({sum(signatures[i]) for i in efficient}) > 1:
        dominated = _kept_dominated if swept else _kept_dominated_by_rank
        found = next(dominated(signatures, efficient), None)
        if found is not None:
            raise InternalInvariant(
                "frontier keeps state {} though kept state {} dominates it".format(*found)
            )
    return FrontierReport(len(signatures), tuple(efficient), degenerate)


class ScanReport(NamedTuple):
    """Exhaustive ordered-move scan over a feasible set.

    ``moves_examined`` counts every ordered pair of live states, each decided
    by the dominator bitsets; pairs touching a degenerate state are skipped
    and counted separately.  Degenerate states have no evaluable improving
    move, so they count as efficient.

    ``dominators`` holds each improvable state's index with its non-empty
    dominator bitset, in enumeration order.  ``improvements_found`` and
    ``efficient_state_count`` are counted from it, and no move is listed
    until one is asked for: ``iter_improving_moves`` reads the moves off the
    bitsets one at a time, and ``improving_moves`` is all of them.
    """

    states_examined: int
    moves_examined: int
    improvements_found: int
    efficient_state_count: int
    skipped_moves: int = 0
    degenerate_states: int = 0
    dominators: tuple[tuple[int, int], ...] = ()

    def __repr__(self):
        # the bitsets are left out: each has one bit per state
        fields = ", ".join([f"{n}={v!r}" for n, v in zip(self._fields[:-1], self)])
        return f"ScanReport({fields})"

    def iter_improving_moves(self) -> Iterator[tuple[int, int]]:
        """Every improving move ``(from, to)`` by from-state, then to-state.

        The moves from state i are the set bits of its dominator bitset;
        read from low to high they come in to-state order, with no sort.
        """
        for i, mask in self.dominators:
            while mask:
                low = mask & -mask
                yield i, low.bit_length() - 1
                mask ^= low

    @property
    def improving_moves(self) -> tuple[tuple[int, int], ...]:
        """Every improving move, in ``iter_improving_moves`` order."""
        return tuple(self.iter_improving_moves())


def scan_all_moves(
    fs: FeasibleSet,
    polity: Polity,
    transforms: Transforms,
    cap: int = DEFAULT_SCAN_CAP,
) -> ScanReport:
    """Evaluate every ordered pair of distinct feasible states.

    Raises ``CapExceeded`` before enumerating when the pair count would pass
    ``cap``.  The moves from state i that improve are the set bits of i's
    dominator bitset (``_dominator_masks``), so the improvements are counted
    as the bitsets' population counts, and the states that have one are the
    non-empty bitsets.  Under one shared ``relative_mean`` (``_shared_mean``)
    no move improves: each live signature is checked to sum to the agent
    count times the table's scale, and no bitset is built.  The cap still
    counts ordered pairs, though the work follows the bitsets.
    """
    n = count_feasible(fs, polity)
    required = n * (n - 1)
    if required > cap:
        raise CapExceeded(cap, required)
    specs = transforms_for(polity, transforms)
    table = build_signature_table(fs, polity, specs, "skipped in scan")
    live = len(table.live)
    if _shared_mean(specs):
        _check_shared_mean(table, polity.n_agents)
        dominators = ()
    else:
        dominators = tuple((i, mask) for i, mask in _dominator_masks(table) if mask)
    examined = live * (live - 1)
    return ScanReport(
        states_examined=n,
        moves_examined=examined,
        improvements_found=sum(mask.bit_count() for _, mask in dominators),
        efficient_state_count=n - len(dominators),
        skipped_moves=required - examined,
        degenerate_states=n - live,
        dominators=dominators,
    )
