"""Partial-order comparisons and sign probes for library callers.

``compare_bundles`` and ``compare_info`` place two bundles, or two pieces of
preference information, in the componentwise partial order;
``classify_move_agents`` partitions a move's agents by how their bundles
changed.  ``verify_own_monotonicity`` and ``cross_effect_sign`` probe how a
transform's information responds when one bundle grows.

No command calls these: the engine decides moves and states on its exact-int
readings.  Only the package namespace loads this module, on first use of one
of its names.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import DimensionMismatch, ValidationError
from .polity import Allocation, Bundle, Move, as_quantity
from .transforms import PreferenceInfo, TransformSpec, evaluate_transform


class PartialOrderResult(Enum):
    """Outcome of comparing two values under a partial order.

    The componentwise comparison of exact vectors yields one of these four.
    """

    EQUAL = "equal"
    STRICTLY_GREATER = "strictly_greater"
    STRICTLY_LESS = "strictly_less"
    INCOMPARABLE = "incomparable"

    @property
    def weakly_ge(self) -> bool:
        return self in (PartialOrderResult.EQUAL, PartialOrderResult.STRICTLY_GREATER)


def compare_bundles(a: Bundle, b: Bundle) -> PartialOrderResult:
    """Compare two bundles under the componentwise partial order.

    ``STRICTLY_GREATER`` means every component of ``a`` is at least as large
    as ``b``'s with at least one strictly larger; ``INCOMPARABLE`` means the
    componentwise differences carry both signs.
    """
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


class MoveClassification(NamedTuple):
    """Partition of the polity by how a move changed each agent's bundle."""

    gainers: frozenset[int]
    weak_losers: frozenset[int]
    mixed: frozenset[int]


def classify_move_agents(move: Move) -> MoveClassification:
    """Partition agents into strict gainers, weak losers, and mixed changers.

    Gainers strictly increased their bundle in the componentwise order; weak
    losers stayed equal or (weakly or strictly) decreased; mixed agents saw an
    incomparable change.  The three sets always partition the polity.
    """
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


class Sign(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ZERO = "zero"
    MIXED = "mixed"


class SignReport(NamedTuple):
    """Sign of an information change, with the exact endpoint values."""

    sign: Sign
    before: PreferenceInfo
    after: PreferenceInfo


def _sign_of_change(before: PreferenceInfo, after: PreferenceInfo) -> Sign:
    result = compare_info(after, before)
    if result is PartialOrderResult.STRICTLY_GREATER:
        return Sign.POSITIVE
    if result is PartialOrderResult.STRICTLY_LESS:
        return Sign.NEGATIVE
    if result is PartialOrderResult.EQUAL:
        return Sign.ZERO
    return Sign.MIXED


def verify_own_monotonicity(
    spec: TransformSpec,
    allocation: Allocation,
    agent: int,
    delta: Fraction | int | str = 1,
) -> SignReport:
    """Sign of ``agent``'s information change when their own bundle grows.

    Adds ``delta`` to every commodity of the agent's bundle and compares the
    information before and after.  A well-behaved transform reports
    ``POSITIVE`` here; a transform whose reference group is exactly the agent
    itself reports ``ZERO`` (the ratio cancels).
    """
    step = as_quantity(delta)
    if step <= 0:
        raise ValidationError("monotonicity probe delta must be strictly positive")
    before = evaluate_transform(spec, allocation, agent)
    bumped = allocation.with_bundle(agent, allocation.bundle_for(agent).plus_uniform(step))
    after = evaluate_transform(spec, bumped, agent)
    return SignReport(_sign_of_change(before, after), before, after)


def cross_effect_sign(
    spec: TransformSpec,
    allocation: Allocation,
    observer: int,
    gainer: int,
    delta: Fraction | int | str = 1,
) -> SignReport:
    """Sign of ``observer``'s information change when ``gainer``'s bundle grows.

    The observer and gainer must be distinct agents; the observer's own bundle
    is untouched, so any change is a pure reference-group effect.  Absolute
    transforms (``OwnBundle``, ``WeightedOwn``) always report ``ZERO``.
    """
    if observer == gainer:
        raise ValidationError("cross effect requires distinct observer and gainer")
    step = as_quantity(delta)
    if step <= 0:
        raise ValidationError("cross effect probe delta must be strictly positive")
    before = evaluate_transform(spec, allocation, observer)
    bumped = allocation.with_bundle(gainer, allocation.bundle_for(gainer).plus_uniform(step))
    after = evaluate_transform(spec, bumped, observer)
    return SignReport(_sign_of_change(before, after), before, after)
