"""The ``Fraction`` evaluation of a transform, kept as the tests' reference.

The package reads every transform on ints (``transforms._reading`` and
``transforms._read``), and its public ``evaluate_transform`` is a wrapper
over that reading.  A reference built on the wrapper would compare the int
reading with itself, so the tests compare the package with this copy of the
direct definition instead: each transform computed on exact ``Fraction``s
from the allocation's bundles.
"""

from __future__ import annotations

from fractions import Fraction

from paretoscope.errors import InvalidAgent, ValidationError, ZeroReferencePoint
from paretoscope.polity import Allocation, Bundle
from paretoscope.transforms import (
    OwnBundle,
    PreferenceInfo,
    RelativeToMean,
    RelativeToNeighborhood,
    TransformSpec,
    WeightedOwn,
    aggregate,
    neighborhood_members,
)


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
