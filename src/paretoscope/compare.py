"""Partial-order comparisons and sign probes for library callers.

``compare_bundles`` and ``compare_info`` place two bundles, or two pieces of
preference information, in the componentwise partial order;
``classify_move_agents`` partitions a move's agents by how their bundles
changed.  All three read that order from its one definition, ``polity._tally``.
``verify_own_monotonicity`` and ``cross_effect_sign`` probe how a
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
from .polity import Allocation, Bundle, Move, ViolationKind, _tally, as_quantity
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


# Each tally of one agent, labelled 0, as (gainers, violators), and its order.
_ORDER = {
    ((), ()): PartialOrderResult.EQUAL,
    ((0,), ()): PartialOrderResult.STRICTLY_GREATER,
    ((), ((0, ViolationKind.STRICTLY_WORSE),)): PartialOrderResult.STRICTLY_LESS,
    ((), ((0, ViolationKind.INCOMPARABLE_INFO),)): PartialOrderResult.INCOMPARABLE,
}


def _order(a: tuple, b: tuple) -> PartialOrderResult:
    """The components ``a`` against ``b``, as one agent's move from ``b`` to ``a``."""
    return _ORDER[tuple(map(tuple, _tally((0,), (a,), (b,))))]


def compare_bundles(a: Bundle, b: Bundle) -> PartialOrderResult:
    """Compare two bundles under the componentwise partial order.

    ``STRICTLY_GREATER`` means every component of ``a`` is at least as large
    as ``b``'s with at least one strictly larger; ``INCOMPARABLE`` means the
    componentwise differences carry both signs.
    """
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"bundle dimensions differ: {a.dimension} vs {b.dimension}")
    return _order(a.quantities, b.quantities)


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
    agents = move.polity.agents
    ends = [[bundle.quantities for bundle in end.bundles] for end in (move.after, move.before)]
    gainers, violators = _tally(agents, *ends)
    mixed = frozenset([agent for agent, kind in violators if kind is ViolationKind.INCOMPARABLE_INFO])
    weak_losers = frozenset(agents).difference(gainers, mixed)
    return MoveClassification(frozenset(gainers), weak_losers, mixed)


def compare_info(a: PreferenceInfo, b: PreferenceInfo) -> PartialOrderResult:
    """Compare two pieces of preference information of the same shape."""
    if isinstance(a, Bundle) and isinstance(b, Bundle):
        return compare_bundles(a, b)
    if isinstance(a, Bundle) or isinstance(b, Bundle):
        raise DimensionMismatch("cannot compare vector information with scalar")
    return _order((a,), (b,))


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


_SIGNS = {
    PartialOrderResult.STRICTLY_GREATER: Sign.POSITIVE,
    PartialOrderResult.STRICTLY_LESS: Sign.NEGATIVE,
    PartialOrderResult.EQUAL: Sign.ZERO,
    PartialOrderResult.INCOMPARABLE: Sign.MIXED,
}


def _probe(
    spec: TransformSpec,
    allocation: Allocation,
    observer: int,
    grower: int,
    delta: Fraction | int | str,
    name: str,
) -> SignReport:
    """Sign of ``observer``'s information change when ``grower``'s bundle grows."""
    step = as_quantity(delta)
    if step <= 0:
        raise ValidationError(f"{name} probe delta must be strictly positive")
    before = evaluate_transform(spec, allocation, observer)
    bumped = allocation.with_bundle(grower, allocation.bundle_for(grower).plus_uniform(step))
    after = evaluate_transform(spec, bumped, observer)
    return SignReport(_SIGNS[compare_info(after, before)], before, after)


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
    return _probe(spec, allocation, agent, agent, delta, "monotonicity")


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
    return _probe(spec, allocation, observer, gainer, delta, "cross effect")
