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

Each transform is defined once, on ints: ``_reading`` resolves an agent's
transform to a function that reads the information at one state from int
holdings as int components over a positive int; ``_readings`` resolves
every agent's, and ``_read_state`` reads every agent at one state.
Every command reads through them.  ``_signatures`` reads a whole stream of
states and scales every component to one int scale, the least common
multiple of their reduced denominators, as one flat int tuple per state;
the frontier, the scan and welfare all rank by it, and each decides what a
state with a zero reference means.  ``evaluate_transform`` is the public
one-state form: it reads one allocation on its own int scale and returns
the information as an exact ``Fraction`` or the agent's bundle.

A welfare functional (``SwfSpec``) combines per-agent scalar values with
``Sum``, ``WeightedSum`` or ``Maximin``.  Its specs live here beside the
transform specs, so that reading a scenario loads no ranking code;
``welfare`` ranks states by them.

Each grammar is declared once, as a table: ``_TRANSFORMS`` and ``_SWFS``
map each name to its spec type and to what its argument list holds.  One
reader (``_parse_spec``) and one writer (``_label``) serve both tables:
``parse_transform``, ``transform_label``, ``parse_swf`` and ``swf_label``
are each one call of them.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Union

from .errors import DimensionMismatch, InvalidAgent, ValidationError, ZeroReferencePoint
from .polity import Allocation, Bundle, Polity, _common_holdings, _Holdings, _on_one_scale, _Value
from .polity import as_quantity

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


class OwnBundle(_Value):
    """The agent's information is their own bundle, unaggregated."""

    __slots__ = ()


class WeightedOwn(_Value):
    """Weighted sum of the agent's own quantities; ``None`` = unit weights."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[Fraction, ...] | None = None):
        self._set(_validated_weights(weights))


class RelativeToMean(_Value):
    """Agent's aggregate divided by the polity-wide mean aggregate."""

    __slots__ = ("weights",)
    __init__ = WeightedOwn.__init__


class RelativeToNeighborhood(_Value):
    """Agent's aggregate divided by the mean aggregate of a declared set of
    agents.  The set is used verbatim; it may or may not include the agent."""

    __slots__ = ("neighbors", "weights")

    def __init__(self, neighbors: frozenset[int], weights: tuple[Fraction, ...] | None = None):
        neighbors = frozenset(neighbors)
        weights = _validated_weights(weights)
        if not neighbors:
            raise ValidationError("neighborhood must name at least one agent")
        if any(not isinstance(a, int) or a < 1 for a in neighbors):
            raise ValidationError("neighborhood ids must be positive integers")
        self._set(neighbors, weights)


TransformSpec = Union[OwnBundle, WeightedOwn, RelativeToMean, RelativeToNeighborhood]

Transforms = Union[TransformSpec, Mapping[int, TransformSpec]]

# What a grammar name's argument list holds: nothing, weights, optional
# weights, or neighbour ids with optional weights after ";".  A required
# list's word is the one its "requires a ... list" message names.
_NO_ARGS, _WEIGHTS, _OPTIONAL_WEIGHTS, _NEIGHBORS = "none", "weight", "optional", "neighbor"

# The transform grammar: each name with its spec type and its argument list.
_TRANSFORMS = {
    "own": (OwnBundle, _NO_ARGS),
    "weighted_own": (WeightedOwn, _WEIGHTS),
    "relative_mean": (RelativeToMean, _OPTIONAL_WEIGHTS),
    "relative_nbhd": (RelativeToNeighborhood, _NEIGHBORS),
}

_SPEC_TYPES = tuple(spec_type for spec_type, _ in _TRANSFORMS.values())


def transforms_for(polity: Polity, transforms: Transforms) -> dict[int, TransformSpec]:
    """Normalize a transform assignment to one spec per agent.

    A bare spec applies to every agent; a mapping must cover the polity
    exactly.
    """
    if isinstance(transforms, _SPEC_TYPES):
        return {a: transforms for a in polity.agents}
    mapping = dict(transforms)
    missing = [a for a in polity.agents if a not in mapping]
    if missing:
        raise ValidationError(f"no transform assigned to agent(s) {missing}")
    extra = sorted(a for a in mapping if a not in polity.agents)
    if extra:
        raise InvalidAgent(f"transform assigned to unknown agent(s) {extra}")
    return {a: mapping[a] for a in polity.agents}


_Reader = Callable[[_Holdings, int], tuple[tuple[int, ...], int]]


def _reading(spec: TransformSpec, agent: int, n_agents: int, dimension: int) -> _Reader | None:
    """``agent``'s reading under ``spec``: a function of a state's int holdings.

    ``None`` means the information is the bundle itself.  Otherwise the
    reading takes ``(holdings, unit)``, every quantity times ``unit``, and
    returns the information as int components over a positive int: over
    ``unit`` times the weight scale for a weighted sum, and for a relative
    transform, whose value aggₖ / (Σ_G agg / |G|) does not depend on either
    scale, |G|·aggₖ over Σ_G agg.  It raises ``ZeroReferencePoint`` when Σ_G
    agg is zero.

    Raises, before any holding is read: ``InvalidAgent`` for a neighbourhood
    member outside the polity, then ``DimensionMismatch`` for a weight count
    that does not match the commodities.
    """
    if isinstance(spec, OwnBundle):
        return None
    if isinstance(spec, WeightedOwn):
        group = None
    elif isinstance(spec, RelativeToMean):
        group = range(n_agents)
    elif isinstance(spec, RelativeToNeighborhood):
        group = sorted(spec.neighbors)
        for member in group:
            if member > n_agents:
                raise InvalidAgent(
                    f"neighborhood of agent {agent} names agent {member} "
                    f"but the polity has {n_agents}"
                )
        group = [m - 1 for m in group]
    else:
        raise ValidationError(f"unknown transform spec {spec!r}")
    if spec.weights is None:
        aggregate, weight_scale = sum, 1
    elif len(spec.weights) != dimension:
        raise DimensionMismatch(f"{len(spec.weights)} weights for a {dimension}-commodity bundle")
    else:
        weight_scale, weights = _on_one_scale(spec.weights)

        def aggregate(holding: tuple[int, ...]) -> int:
            return sum(map(operator.mul, weights, holding))

    own = agent - 1
    if group is None:
        return lambda holdings, unit: ((aggregate(holdings[own]),), unit * weight_scale)

    def relative(holdings: _Holdings, unit: int) -> tuple[tuple[int, ...], int]:
        reference = sum(map(aggregate, map(holdings.__getitem__, group)))
        if reference == 0:
            raise ZeroReferencePoint(f"reference mean for agent {agent} is zero", agent=agent)
        return (len(group) * aggregate(holdings[own]),), reference

    return relative


def _readings(
    specs: dict[int, TransformSpec], polity: Polity
) -> list[tuple[int, _Reader | None]]:
    """Every agent with its reading under ``specs``, resolved in agent order."""
    return [
        (agent, _reading(spec, agent, polity.n_agents, polity.commodity_dim))
        for agent, spec in specs.items()
    ]


def _read_state(
    readings: list[tuple[int, _Reader | None]], holdings: _Holdings, unit: int
) -> list[tuple[tuple[int, ...], int]]:
    """Every agent's information in ``readings`` at one state, in their order."""
    return [
        (holdings[agent - 1], unit) if read is None else read(holdings, unit)
        for agent, read in readings
    ]


def _signatures(
    readings: list[tuple[int, _Reader | None]],
    unit: int,
    stream: Iterable[_Holdings],
    degenerate: Callable[[int, ZeroReferencePoint], None],
) -> tuple[int, list[tuple[int, ...] | None]]:
    """Every state of ``stream``, int holdings times ``unit``, read by
    ``_read_state`` and scaled to ``(scale, signatures)``.

    Each live component ``c / den`` becomes the int ``c * scale // den``,
    where ``scale`` is the least common multiple of the reduced denominators
    of all live components: one flat tuple per state, in agent order.  A
    state with a zero reference is passed to ``degenerate`` as its index and
    the ``ZeroReferencePoint`` before the next state is read, and is kept as
    ``None``.
    """
    rows = []
    denominators: set[int] = set()
    for index, holdings in enumerate(stream):
        try:
            row = _read_state(readings, holdings, unit)
        except ZeroReferencePoint as exc:
            degenerate(index, exc)
            rows.append(None)
            continue
        # the denominator of item / den in lowest terms; the scale is their
        # least common multiple, so c * scale // den below is exact
        denominators.update([den // math.gcd(den, *item) for item, den in row])
        rows.append(row)
    scale = math.lcm(*denominators)
    return scale, [
        None if row is None else tuple([c * scale // den for item, den in row for c in item])
        for row in rows
    ]


def evaluate_transform(
    spec: TransformSpec, allocation: Allocation, agent: int
) -> PreferenceInfo:
    """The information ``agent`` receives at ``allocation`` under ``spec``.

    Returns a ``Bundle`` for ``OwnBundle`` over multiple commodities and an
    exact scalar, read by the agent's reading (``_reading``), otherwise.
    Raises ``InvalidAgent`` for an agent outside the polity, then what
    ``_reading`` and the reading raise.
    """
    if not 1 <= agent <= allocation.n_agents:
        raise InvalidAgent(f"agent {agent} not in 1..{allocation.n_agents}")
    read = _reading(spec, agent, allocation.n_agents, allocation.dimension)
    if read is None:
        own = allocation.bundles[agent - 1]
        return own.quantities[0] if own.dimension == 1 else own
    unit, (holdings,) = _common_holdings((allocation,))
    (value,), den = read(holdings, unit)
    return Fraction(value, den)


class Sum(_Value):
    """Unweighted total of agent values."""

    __slots__ = ()


class WeightedSum(_Value):
    """Weighted total; weights are per-agent, non-negative, not all zero."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[Fraction, ...]):
        weights = tuple(as_quantity(w) for w in weights)
        if not weights:
            raise ValidationError("weighted_sum needs at least one weight")
        if all(w == 0 for w in weights):
            raise ValidationError("weighted_sum weights are all zero")
        self._set(weights)


class Maximin(_Value):
    """Value of the worst-off agent."""

    __slots__ = ()


Combiner = Union[Sum, WeightedSum, Maximin]

# The welfare functional grammar, declared as the transform grammar is.
_SWFS = {
    "sum": (Sum, _NO_ARGS),
    "weighted_sum": (WeightedSum, _WEIGHTS),
    "maximin": (Maximin, _NO_ARGS),
}


class SwfSpec(NamedTuple):
    """A combiner plus the per-agent value transforms it combines.

    ``agent_values`` follows the same convention as the engine: a bare
    transform applies to every agent, a mapping assigns per agent, and
    ``None`` means unit-weighted own aggregates.
    """

    combiner: Combiner
    agent_values: object = None


_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\((.*)\))?\s*$")


def _parse_weights(text: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise ValidationError(f"empty entry in weight list: {text!r}")
    return tuple(as_quantity(p) for p in parts)


def _parse_spec(text: str, table: dict, what: str):
    """The spec that ``text``, ``name`` or ``name(args)``, names in ``table``
    (``_TRANSFORMS`` or ``_SWFS``); ``what`` names the grammar in messages."""
    match = _SPEC_RE.match(text)
    if not match:
        raise ValidationError(f"cannot parse {what} {text!r}")
    name, args = match.groups()
    if name not in table:
        raise ValidationError(f"unknown {what} {name!r}")
    spec_type, takes = table[name]
    if takes == _NO_ARGS:
        if args is not None:
            raise ValidationError(f"{name} takes no arguments")
        return spec_type()
    if args is None or not args.strip():
        if takes == _OPTIONAL_WEIGHTS:
            return spec_type()
        raise ValidationError(f"{name} requires a {takes} list")
    if takes != _NEIGHBORS:
        return spec_type(_parse_weights(args))
    head, sep, tail = args.partition(";")
    ids = []
    for part in head.split(","):
        part = part.strip()
        if not (part.isascii() and part.isdigit()) or int(part) < 1:
            raise ValidationError(f"neighbor id must be a positive integer, got {part!r}")
        ids.append(int(part))
    return spec_type(frozenset(ids), _parse_weights(tail) if sep else None)


def _label(spec, table: dict) -> str:
    """``spec``'s name in ``table``, then its set fields as comma lists
    (neighbour ids sorted) split by ``;`` in brackets: ``_parse_spec``'s form."""
    (name,) = [name for name, (spec_type, _) in table.items() if type(spec) is spec_type]
    lists = [
        ",".join(map(str, sorted(field) if isinstance(field, frozenset) else field))
        for field in [getattr(spec, slot) for slot in spec.__slots__]
        if field is not None
    ]
    return f"{name}({';'.join(lists)})" if lists else name


def parse_transform(text: str) -> TransformSpec:
    """Parse the textual transform grammar.

    ``own`` | ``weighted_own(w1,...)`` | ``relative_mean`` |
    ``relative_mean(w1,...)`` | ``relative_nbhd(id1,id2,...)`` |
    ``relative_nbhd(id1,...;w1,...)``
    """
    return _parse_spec(text, _TRANSFORMS, "transform")


def transform_label(spec: TransformSpec) -> str:
    """Stable textual form of a transform (inverse of ``parse_transform``)."""
    return _label(spec, _TRANSFORMS)


def parse_swf(text: str) -> SwfSpec:
    """Parse ``sum`` | ``weighted_sum(w1,...)`` | ``maximin``."""
    return SwfSpec(_parse_spec(text, _SWFS, "welfare functional"))


def swf_label(spec: SwfSpec) -> str:
    """Stable textual form of a welfare functional."""
    return _label(spec.combiner, _SWFS)
