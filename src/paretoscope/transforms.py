"""Per-agent preference transforms.

A transform maps a full allocation to the information an agent's preferences
respond to.  The classical case is ``OwnBundle`` (the agent sees only their
own holdings); the others compress holdings to a scalar, either absolutely
(``WeightedOwn``) or relative to a reference group's mean (``RelativeToMean``
over the whole polity, ``RelativeToNeighborhood`` over a declared set of
agents).

Scalar transforms aggregate a bundle as the weighted sum of its commodity
quantities.  Weights must be strictly positive so that aggregation preserves
strict componentwise dominance; ``None`` means unit weights.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .errors import (
    DimensionMismatch,
    InvalidAgent,
    ValidationError,
    ZeroReferencePoint,
)
from .polity import (
    Allocation,
    Bundle,
    PartialOrderResult,
    as_quantity,
    compare_bundles,
)

PreferenceInfo = Union[Fraction, Bundle]


def _validated_weights(weights: tuple[Fraction, ...] | None) -> tuple[Fraction, ...] | None:
    if weights is None:
        return None
    coerced = tuple(as_quantity(w) for w in weights)
    if not coerced:
        raise ValidationError("weight list must be non-empty")
    if any(w <= 0 for w in coerced):
        raise ValidationError("aggregation weights must be strictly positive")
    return coerced


@dataclass(frozen=True)
class OwnBundle:
    """The agent's information is their own bundle, unaggregated."""


@dataclass(frozen=True)
class WeightedOwn:
    """Weighted sum of the agent's own quantities; ``None`` = unit weights."""

    weights: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", _validated_weights(self.weights))


@dataclass(frozen=True)
class RelativeToMean:
    """Agent's aggregate divided by the polity-wide mean aggregate."""

    weights: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", _validated_weights(self.weights))


@dataclass(frozen=True)
class RelativeToNeighborhood:
    """Agent's aggregate divided by the mean aggregate of a declared set of
    agents.  The set is used verbatim; it may or may not include the agent."""

    neighbors: frozenset[int]
    weights: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "neighbors", frozenset(self.neighbors))
        object.__setattr__(self, "weights", _validated_weights(self.weights))
        if not self.neighbors:
            raise ValidationError("neighborhood must name at least one agent")
        if any(not isinstance(a, int) or a < 1 for a in self.neighbors):
            raise ValidationError("neighborhood ids must be positive integers")


TransformSpec = Union[OwnBundle, WeightedOwn, RelativeToMean, RelativeToNeighborhood]


def check_weight_count(weights: tuple[Fraction, ...], dimension: int) -> None:
    """Raise ``DimensionMismatch`` unless there is one weight per commodity."""
    if len(weights) != dimension:
        raise DimensionMismatch(f"{len(weights)} weights for a {dimension}-commodity bundle")


def aggregate(bundle: Bundle, weights: tuple[Fraction, ...] | None) -> Fraction:
    """Weighted sum of a bundle's quantities (unit weights when ``None``)."""
    terms = bundle.quantities
    if weights is not None:
        check_weight_count(weights, bundle.dimension)
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


def neighborhood_members(
    spec: RelativeToNeighborhood, agent: int, n_agents: int
) -> list[int]:
    """The sorted reference group of ``agent`` under ``spec``.

    Raises ``InvalidAgent`` for a member outside the ``n_agents``-agent
    polity.
    """
    group = sorted(spec.neighbors)
    for member in group:
        if member > n_agents:
            raise InvalidAgent(
                f"neighborhood of agent {agent} names agent {member} "
                f"but the polity has {n_agents}"
            )
    return group


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
        group = neighborhood_members(spec, agent, allocation.n_agents)
        members = tuple(allocation.bundle_for(m) for m in group)
    else:
        raise ValidationError(f"unknown transform spec {spec!r}")
    reference = _mean_aggregate(members, spec.weights)
    if reference == 0:
        raise ZeroReferencePoint(
            f"reference mean for agent {agent} is zero", agent=agent
        )
    return aggregate(own, spec.weights) / reference


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


@dataclass(frozen=True)
class SignReport:
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


_WEIGHTS_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\((.*)\))?\s*$")


def _parse_numbers(text: str, what: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise ValidationError(f"empty entry in {what} list: {text!r}")
    return tuple(as_quantity(p) for p in parts)


def parse_transform(text: str) -> TransformSpec:
    """Parse the textual transform grammar.

    ``own`` | ``weighted_own(w1,...)`` | ``relative_mean`` |
    ``relative_mean(w1,...)`` | ``relative_nbhd(id1,id2,...)`` |
    ``relative_nbhd(id1,...;w1,...)``
    """
    match = _WEIGHTS_RE.match(text)
    if not match:
        raise ValidationError(f"cannot parse transform {text!r}")
    name, args = match.group(1), match.group(2)
    if name == "own":
        if args is not None:
            raise ValidationError("own takes no arguments")
        return OwnBundle()
    if name == "weighted_own":
        if args is None or not args.strip():
            raise ValidationError("weighted_own requires a weight list")
        return WeightedOwn(_parse_numbers(args, "weight"))
    if name == "relative_mean":
        if args is None or not args.strip():
            return RelativeToMean()
        return RelativeToMean(_parse_numbers(args, "weight"))
    if name == "relative_nbhd":
        if args is None or not args.strip():
            raise ValidationError("relative_nbhd requires a neighbor list")
        head, sep, tail = args.partition(";")
        ids = []
        for part in head.split(","):
            part = part.strip()
            if not part.isdigit() or int(part) < 1:
                raise ValidationError(f"neighbor id must be a positive integer, got {part!r}")
            ids.append(int(part))
        weights = _parse_numbers(tail, "weight") if sep else None
        return RelativeToNeighborhood(frozenset(ids), weights)
    raise ValidationError(f"unknown transform {name!r}")


def transform_label(spec: TransformSpec) -> str:
    """Stable textual form of a transform (inverse of ``parse_transform``)."""
    if isinstance(spec, OwnBundle):
        return "own"
    if isinstance(spec, WeightedOwn):
        if spec.weights is None:
            return "weighted_own"
        return f"weighted_own({','.join(str(w) for w in spec.weights)})"
    if isinstance(spec, RelativeToMean):
        if spec.weights is None:
            return "relative_mean"
        return f"relative_mean({','.join(str(w) for w in spec.weights)})"
    ids = ",".join(str(i) for i in sorted(spec.neighbors))
    if spec.weights is None:
        return f"relative_nbhd({ids})"
    return f"relative_nbhd({ids};{','.join(str(w) for w in spec.weights)})"
