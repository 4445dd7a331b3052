"""Social welfare functionals and state rankings.

A welfare functional combines per-agent scalar values into one number.  The
per-agent values come from a transform assignment (unit-weighted own
aggregates by default) and must be scalar: vector-valued information has no
canonical collapse, so it is rejected rather than silently averaged.

Only additive combiners and the maximin floor are offered.  A multiplicative
combiner is deliberately absent: any agent at zero would pin the product to
zero regardless of everyone else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .engine import transforms_for
from .errors import DimensionMismatch, ValidationError, VectorValuedAgentInfo
from .polity import Allocation, Bundle, Polity, as_quantity
from .transforms import TransformSpec, WeightedOwn, evaluate_transform


@dataclass(frozen=True)
class Sum:
    """Unweighted total of agent values."""


@dataclass(frozen=True)
class WeightedSum:
    """Weighted total; weights are per-agent, non-negative, not all zero."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        coerced = tuple(as_quantity(w) for w in self.weights)
        object.__setattr__(self, "weights", coerced)
        if not coerced:
            raise ValidationError("weighted_sum needs at least one weight")
        if all(w == 0 for w in coerced):
            raise ValidationError("weighted_sum weights are all zero")


@dataclass(frozen=True)
class Maximin:
    """Value of the worst-off agent."""


Combiner = Union[Sum, WeightedSum, Maximin]


@dataclass(frozen=True)
class SwfSpec:
    """A combiner plus the per-agent value transforms it combines.

    ``agent_values`` follows the same convention as the engine: a bare
    transform applies to every agent, a mapping assigns per agent, and
    ``None`` means unit-weighted own aggregates.
    """

    combiner: Combiner
    agent_values: object = None


def _resolve(spec: SwfSpec, polity: Polity) -> dict[int, TransformSpec]:
    """``spec``'s per-agent value transforms, one per agent of ``polity``."""
    assignment = spec.agent_values if spec.agent_values is not None else WeightedOwn()
    return transforms_for(polity, assignment)


def _agent_values(specs: dict[int, TransformSpec], allocation: Allocation) -> list[Fraction]:
    values = []
    for agent, agent_spec in specs.items():
        info = evaluate_transform(agent_spec, allocation, agent)
        if isinstance(info, Bundle):
            raise VectorValuedAgentInfo(
                f"agent {agent} yields vector information; welfare needs scalars"
            )
        values.append(info)
    return values


def _combine(spec: SwfSpec, values: list[Fraction]) -> Fraction:
    if isinstance(spec.combiner, Sum):
        return sum(values, Fraction(0))
    if isinstance(spec.combiner, WeightedSum):
        if len(spec.combiner.weights) != len(values):
            raise DimensionMismatch(
                f"{len(spec.combiner.weights)} weights for {len(values)} agents"
            )
        return sum(
            (w * v for w, v in zip(spec.combiner.weights, values)), Fraction(0)
        )
    if isinstance(spec.combiner, Maximin):
        return min(values)
    raise ValidationError(f"unknown combiner {spec.combiner!r}")


def welfare_value(spec: SwfSpec, allocation: Allocation) -> Fraction:
    """The welfare of one allocation under ``spec``."""
    return _combine(spec, _agent_values(_resolve(spec, allocation.polity), allocation))


@dataclass(frozen=True)
class RankEntry:
    """One ranked state.  ``tied`` marks a value shared with another entry."""

    rank: int
    state_id: int
    state: Allocation
    value: Fraction
    tied: bool


@dataclass(frozen=True)
class Ranking:
    entries: tuple[RankEntry, ...]


def welfare_rank(spec: SwfSpec, states: Sequence[Allocation]) -> Ranking:
    """Rank states by descending welfare.

    The sort is stable: states of equal value keep their input order and are
    flagged as tied.  State ids are input positions.  The value transforms
    are resolved once per agent count, not once per state.
    """
    resolved: dict[int, dict[int, TransformSpec]] = {}

    def value_of(state: Allocation) -> Fraction:
        if state.n_agents not in resolved:
            resolved[state.n_agents] = _resolve(spec, state.polity)
        return _combine(spec, _agent_values(resolved[state.n_agents], state))

    valued = [(value_of(s), i, s) for i, s in enumerate(states)]
    ordered = sorted(valued, key=lambda t: t[0], reverse=True)
    counts: dict[Fraction, int] = {}
    for value, _, _ in ordered:
        counts[value] = counts.get(value, 0) + 1
    entries = tuple(
        RankEntry(
            rank=pos + 1,
            state_id=i,
            state=s,
            value=value,
            tied=counts[value] > 1,
        )
        for pos, (value, i, s) in enumerate(ordered)
    )
    return Ranking(entries)


_SWF_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\((.*)\))?\s*$")


def parse_swf(text: str) -> SwfSpec:
    """Parse ``sum`` | ``weighted_sum(w1,...)`` | ``maximin``."""
    match = _SWF_RE.match(text)
    if not match:
        raise ValidationError(f"cannot parse welfare functional {text!r}")
    name, args = match.group(1), match.group(2)
    if name == "sum":
        if args is not None:
            raise ValidationError("sum takes no arguments")
        return SwfSpec(Sum())
    if name == "maximin":
        if args is not None:
            raise ValidationError("maximin takes no arguments")
        return SwfSpec(Maximin())
    if name == "weighted_sum":
        if args is None or not args.strip():
            raise ValidationError("weighted_sum requires a weight list")
        parts = [p.strip() for p in args.split(",")]
        if any(not p for p in parts):
            raise ValidationError(f"empty entry in weight list: {args!r}")
        return SwfSpec(WeightedSum(tuple(as_quantity(p) for p in parts)))
    raise ValidationError(f"unknown welfare functional {name!r}")


def swf_label(spec: SwfSpec) -> str:
    """Stable textual form of a welfare functional."""
    if isinstance(spec.combiner, Sum):
        return "sum"
    if isinstance(spec.combiner, Maximin):
        return "maximin"
    return f"weighted_sum({','.join(str(w) for w in spec.combiner.weights)})"
