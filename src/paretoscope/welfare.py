"""Social welfare functionals and state rankings.

A welfare functional combines per-agent scalar values into one number.  The
per-agent values come from a transform assignment (unit-weighted own
aggregates by default) and must be scalar: vector-valued information has no
canonical collapse, so it is rejected rather than silently averaged.

Only additive combiners and the maximin floor are offered.  A multiplicative
combiner is deliberately absent: any agent at zero would pin the product to
zero regardless of everyone else.  The specs themselves (``Sum``,
``WeightedSum``, ``Maximin``, ``SwfSpec``) and their grammar (``parse_swf``,
``swf_label``) live in ``transforms``, so a scenario is read without loading
this module or the engine.

Welfare is ranked on exact ints, by the one reading layer in ``transforms``
that also serves moves, frontiers and efficiency: every agent's transform
is resolved once (``_readings``), and each state is read from its int
holdings and its agent values scaled to one common positive denominator by
``_signatures``, the core that builds the frontier's and the scan's
signature table.  The combiner works on those ints (``_welfare_ints``).
The ``welfare`` command feeds it the feasible set's int state stream
(``feasible_holdings``) and renders its rows from the holdings;
``welfare_rank`` feeds it its allocations' holdings on one scale
(``_common_holdings``) and makes a ``Fraction`` only for each entry it
returns; ``welfare_value`` is the one-state case.  The tests hold it
against a ranking computed on ``Fraction``s from a separate evaluation of
the transforms.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, ValidationError, VectorValuedAgentInfo, ZeroReferencePoint
from .polity import Allocation, Polity, _common_holdings, _Holdings, _on_one_scale
from .transforms import (
    Combiner,
    Maximin,
    Sum,
    SwfSpec,
    WeightedOwn,
    WeightedSum,
    _read_state,
    _readings,
    _signatures,
    transforms_for,
)


def _int_combiner(combiner: Combiner, n_agents: int) -> tuple[int, list[int] | None]:
    """``combiner``'s weights as ints on one scale, ``(scale, weights)``
    (``polity._on_one_scale``); 1 and ``None`` for an unweighted combiner.
    """
    if isinstance(combiner, WeightedSum):
        if len(combiner.weights) != n_agents:
            raise DimensionMismatch(f"{len(combiner.weights)} weights for {n_agents} agents")
        return _on_one_scale(combiner.weights)
    if isinstance(combiner, (Sum, Maximin)):
        return 1, None
    raise ValidationError(f"unknown combiner {combiner!r}")


def _reraise(index: int, exc: ZeroReferencePoint) -> None:
    raise exc


def _welfare_ints(
    spec: SwfSpec, polity: Polity, unit: int, holdings: Sequence[_Holdings]
) -> tuple[list[int], int]:
    """Every state's welfare under ``spec`` as an int over one positive int.

    ``holdings`` gives each state of ``polity`` as int holdings, every
    quantity times ``unit``.  Returns ``(values, scale)``: the welfare of
    state ``i`` is exactly ``values[i] / scale``.  The agent values are read
    and scaled to one int scale by ``_signatures``, the reading that
    frontiers and scans use; ``Maximin`` takes the least of each state's
    ints, ``Sum`` adds them and ``WeightedSum`` adds them times its weights
    scaled to ints, whose factor joins the scale.

    Raises, before any state is read: what ``transforms_for`` raises, then
    ``InvalidAgent`` and ``DimensionMismatch`` for a bad transform in agent
    order, then ``DimensionMismatch`` for a weight count that does not match
    the agents.  Then, at the first state agent by agent,
    ``VectorValuedAgentInfo`` for an agent whose information is a bundle of
    several commodities, or ``ZeroReferencePoint`` for a zero reference; then
    ``ZeroReferencePoint`` at the first degenerate state.
    """
    assignment = spec.agent_values if spec.agent_values is not None else WeightedOwn()
    readings = _readings(transforms_for(polity, assignment), polity)
    weight_scale, weights = _int_combiner(spec.combiner, polity.n_agents)
    # the first agent whose information is its bundle, when that is a vector
    vector = polity.commodity_dim > 1 and next((a for a, r in readings if r is None), None)
    if vector and holdings:
        # the agents before it are read at the first state
        _read_state(readings[: vector - 1], holdings[0], unit)
        raise VectorValuedAgentInfo(
            f"agent {vector} yields vector information; welfare needs scalars"
        )
    scale, rows = _signatures(readings, unit, holdings, _reraise)
    if isinstance(spec.combiner, Maximin):
        values = [min(row) for row in rows]
    elif weights is None:
        values = [sum(row) for row in rows]
    else:
        values = [sum(map(operator.mul, weights, row)) for row in rows]
    return values, scale * weight_scale


def _ranked(values: list[int]) -> tuple[list[int], Counter]:
    """State ids by descending value, ties in input order, and how many
    states hold each value."""
    return sorted(range(len(values)), key=values.__getitem__, reverse=True), Counter(values)


class RankEntry(NamedTuple):
    """One ranked state.  ``tied`` marks a value shared with another entry."""

    rank: int
    state_id: int
    state: Allocation
    value: Fraction
    tied: bool


class Ranking(NamedTuple):
    entries: tuple[RankEntry, ...]


def welfare_rank(spec: SwfSpec, states: Sequence[Allocation]) -> Ranking:
    """Rank states by descending welfare.

    The sort is stable: states of equal value keep their input order and are
    flagged as tied.  State ids are input positions.  Each run of
    consecutive states of one shape is read by ``_welfare_ints`` from its
    holdings on one int scale (``_common_holdings``), so the value
    transforms are resolved once per run, when it starts, and raise what
    ``_welfare_ints`` raises.  The runs' values are brought to one scale and
    ranked together.
    """
    runs = []
    for (n_agents, dimension), run in groupby(states, lambda s: (s.n_agents, s.dimension)):
        unit, holdings = _common_holdings(list(run))
        runs.append(_welfare_ints(spec, Polity(n_agents, dimension), unit, holdings))
    scale = math.lcm(*[run_scale for _, run_scale in runs])
    values = [v * (scale // run_scale) for run_values, run_scale in runs for v in run_values]
    order, counts = _ranked(values)
    entries = tuple(
        RankEntry(
            rank=rank,
            state_id=i,
            state=states[i],
            value=Fraction(values[i], scale),
            tied=counts[values[i]] > 1,
        )
        for rank, i in enumerate(order, 1)
    )
    return Ranking(entries)


def welfare_value(spec: SwfSpec, allocation: Allocation) -> Fraction:
    """The welfare of one allocation under ``spec``."""
    return welfare_rank(spec, (allocation,)).entries[0].value
