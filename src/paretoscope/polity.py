"""Core value types: quantities, bundles, allocations, moves, and feasible sets.

All quantities are exact ``fractions.Fraction`` values; nothing in this package
ever rounds.  Dominance decisions are order-theoretic over the componentwise
partial order, so exactness removes epsilon tie-breaking entirely.  That order
is defined here, once: ``_tally`` with reasons, ``_dominates`` as its yes/no
form on flat ints.  ``engine``, ``discovery`` and ``compare`` decide by them.

Agent ids are 1-based throughout the public API.  Enumeration of feasible sets
is deterministic: states are produced in lexicographic order of the flattened
quantity tuple (agent-major, commodity-minor), so witnesses are reproducible
bit-for-bit across runs and platforms.  Each feasible set is enumerated once,
by ``_upper_cone``, as int holdings on one common scale, above a floor given
as int holdings on any scale; ``feasible_holdings``, the whole set, is the
cone of the zero floor, and ``_unrank`` finds one of its states by index.
``enumerate_feasible``, ``enumerate_upper_cone`` and ``unrank_feasible`` are
views of them that make each state an ``Allocation``.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import islice, product
from typing import Iterable, Iterator, Sequence, Union

from .errors import DimensionMismatch, InfeasibleConfig, InvalidAgent, ValidationError

Quantity = Fraction


def as_quantity(value: int | str | Fraction) -> Fraction:
    """Coerce a literal to an exact non-negative quantity.

    Accepts ints, Fractions, and strings of ASCII digits in integer, decimal
    (``"0.5"``) or ratio (``"3/2"``) form, blanks and tabs around them.  Floats
    are rejected: binary floats cannot represent decimal inputs exactly.
    """
    if isinstance(value, float):
        raise ValidationError(f"float literal {value!r} not accepted; quantities are exact")
    try:
        q = Fraction(value)
        sign = "-" if q < 0 else ""  # Fraction reads exponents, underscores, other digits
        if isinstance(value, str) and value.strip(" \t").removeprefix(sign).strip("0123456789./"):
            raise ValueError(f"Invalid literal for Fraction: {value!r}")
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse quantity {value!r}: {exc}") from exc
    if q < 0:
        raise ValidationError(f"quantity must be non-negative, got {q}")
    return q


class _Value:
    """A frozen value whose fields are its ``__slots__``.

    A type's ``__init__`` validates its arguments and sets each field once
    with ``_set``.  A value equals only values of its own type with equal
    fields; pickling and copying rebuild it through its constructor."""

    __slots__ = ()

    def __init_subclass__(cls):
        # equality and hashing read the one field, a tuple of several, or for none the type
        cls._key = operator.attrgetter(*cls.__slots__) if cls.__slots__ else type

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _raw(cls, *values):
        """The value holding ``values`` as given, with no validation."""
        value = object.__new__(cls)
        for name, item in zip(cls.__slots__, values):
            object.__setattr__(value, name, item)
        return value

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


class Bundle(_Value):
    """An agent's commodity holdings: a fixed-length vector of quantities."""

    __slots__ = ("quantities",)

    def __init__(self, quantities: tuple[Fraction, ...]):
        quantities = tuple(as_quantity(q) for q in quantities)
        if not quantities:
            raise ValidationError("bundle must hold at least one commodity")
        self._set(quantities)

    @property
    def dimension(self) -> int:
        return len(self.quantities)

    def plus_uniform(self, delta: Fraction) -> Bundle:
        """Return a copy with ``delta`` added to every commodity."""
        return Bundle(tuple(q + delta for q in self.quantities))


class Polity(_Value):
    """The shape of a society: how many agents, how many commodities."""

    __slots__ = ("n_agents", "commodity_dim")

    def __init__(self, n_agents: int, commodity_dim: int):
        if n_agents < 1:
            raise ValidationError("polity needs at least one agent")
        if commodity_dim < 1:
            raise ValidationError("polity needs at least one commodity")
        self._set(n_agents, commodity_dim)

    @property
    def agents(self) -> range:
        """1-based agent ids."""
        return range(1, self.n_agents + 1)


class Allocation(_Value):
    """One bundle per agent; all bundles share the same commodity dimension."""

    __slots__ = ("bundles",)

    def __init__(self, bundles: tuple[Bundle, ...]):
        bundles = tuple(b if isinstance(b, Bundle) else Bundle(b) for b in bundles)
        if not bundles:
            raise ValidationError("allocation must cover at least one agent")
        dim = bundles[0].dimension
        if any(b.dimension != dim for b in bundles):
            raise DimensionMismatch("all bundles in an allocation must share one dimension")
        self._set(bundles)

    @property
    def n_agents(self) -> int:
        return len(self.bundles)

    @property
    def dimension(self) -> int:
        return self.bundles[0].dimension

    @property
    def polity(self) -> Polity:
        return Polity(self.n_agents, self.dimension)

    def bundle_for(self, agent: int) -> Bundle:
        """The bundle of the 1-based ``agent``."""
        self._check_agent(agent)
        return self.bundles[agent - 1]

    def with_bundle(self, agent: int, bundle: Bundle) -> Allocation:
        """Copy of this allocation with ``agent``'s bundle replaced."""
        self._check_agent(agent)
        if bundle.dimension != self.dimension:
            raise DimensionMismatch("replacement bundle has wrong dimension")
        bundles = list(self.bundles)
        bundles[agent - 1] = bundle
        return Allocation(tuple(bundles))

    def flat(self) -> tuple[Fraction, ...]:
        """All quantities flattened agent-major, commodity-minor (the enumeration key)."""
        return tuple(q for b in self.bundles for q in b.quantities)

    def totals(self) -> tuple[Fraction, ...]:
        """Per-commodity totals across all agents."""
        return tuple(
            sum((b.quantities[c] for b in self.bundles), Fraction(0))
            for c in range(self.dimension)
        )

    def _check_agent(self, agent: int) -> None:
        if not 1 <= agent <= self.n_agents:
            raise InvalidAgent(f"agent {agent} not in 1..{self.n_agents}")


def alloc(*per_agent: int | str | Fraction | Iterable[int | str | Fraction]) -> Allocation:
    """Build an allocation from one value (1 commodity) or one tuple per agent.

    ``alloc(1, 2)`` is a two-agent, one-commodity allocation; ``alloc((1, 0),
    (2, 1))`` is two agents with two commodities each.
    """
    scalar = (int, str, Fraction)
    return Allocation(tuple([(e,) if isinstance(e, scalar) else e for e in per_agent]))


class Move(_Value):
    """An ordered movement between two allocations of the same shape."""

    __slots__ = ("before", "after")

    def __init__(self, before: Allocation, after: Allocation):
        if before.n_agents != after.n_agents:
            raise DimensionMismatch("move endpoints disagree on agent count")
        if before.dimension != after.dimension:
            raise DimensionMismatch("move endpoints disagree on commodity dimension")
        self._set(before, after)

    @property
    def polity(self) -> Polity:
        return self.before.polity


class ViolationKind(Enum):
    STRICTLY_WORSE = "strictly_worse"
    INCOMPARABLE_INFO = "incomparable_info"


def _tally(
    agents: Iterable[int], after: Iterable[tuple], before: Iterable[tuple]
) -> tuple[list[int], list[tuple[int, ViolationKind]]]:
    """Strict gainers and violators of a move, agent by agent.

    This is the one definition of improvement: a move improves when it has
    no violator and at least one strict gainer.  ``after`` and ``before``
    hold each agent's information components in ``agents`` order at the two
    ends, comparable agent by agent (see ``engine._move_information``).  An
    agent left equal is neither; an agent with some component lower is a
    violator, incomparable when another component is higher; any other
    agent who differs is a strict gainer.
    """
    gainers, violators = [], []
    for agent, a, b in zip(agents, after, before):
        if a == b:
            continue
        if not any(map(operator.lt, a, b)):
            gainers.append(agent)
        elif any(map(operator.gt, a, b)):
            violators.append((agent, ViolationKind.INCOMPARABLE_INFO))
        else:
            violators.append((agent, ViolationKind.STRICTLY_WORSE))
    return gainers, violators


_Tally = tuple[list[int], list[tuple[int, ViolationKind]]]


def _dominates(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether the move from ``b`` to ``a`` improves, yes or no.

    ``a`` and ``b`` hold every agent's information components in agent
    order, flattened, as ints that compare as the information does: two
    signatures of one ``SignatureTable``, or two readings made comparable
    by ``_comparable`` (both in ``engine``).  This is the ``_tally``
    verdict without its reasons.
    """
    return all(map(operator.ge, a, b)) and a != b


class BoxGrid(_Value):
    """Every agent independently holds any of the per-commodity levels."""

    __slots__ = ("levels",)

    def __init__(self, levels: tuple[tuple[Fraction, ...], ...]):
        levels = tuple(tuple(as_quantity(q) for q in commodity) for commodity in levels)
        if not levels:
            raise InfeasibleConfig("box grid needs levels for at least one commodity")
        for commodity_levels in levels:
            if not commodity_levels:
                raise InfeasibleConfig("each commodity needs at least one level")
            if any(b <= a for a, b in zip(commodity_levels, commodity_levels[1:])):
                raise InfeasibleConfig("levels must be strictly increasing")
        self._set(levels)

    @classmethod
    def shared(cls, levels: Iterable[int | str | Fraction], commodities: int = 1) -> BoxGrid:
        """One level set applied to every commodity."""
        ordered = tuple(sorted({as_quantity(q) for q in levels}))
        return cls(tuple(ordered for _ in range(commodities)))


class FixedTotalLattice(_Value):
    """All allocations whose per-commodity totals equal the configured totals,
    on a grid of multiples of ``step`` (the redistribution-only state space)."""

    __slots__ = ("totals", "step")

    def __init__(self, totals: tuple[Fraction, ...], step: Fraction):
        totals = tuple(as_quantity(t) for t in totals)
        step = as_quantity(step)
        if not totals:
            raise InfeasibleConfig("lattice needs a total for at least one commodity")
        if step <= 0:
            raise InfeasibleConfig("lattice step must be strictly positive")
        for total in totals:
            if (total / step).denominator != 1:
                raise InfeasibleConfig(f"step {step} does not divide total {total}")
        self._set(totals, step)

    @classmethod
    def shared(
        cls,
        total: int | str | Fraction,
        commodities: int = 1,
        step: int | str | Fraction = 1,
    ) -> FixedTotalLattice:
        t = as_quantity(total)
        return cls(tuple(t for _ in range(commodities)), as_quantity(step))


class ExplicitList(_Value):
    """A user-declared candidate set, canonicalized to sorted unique states."""

    __slots__ = ("states",)

    def __init__(self, states: tuple[Allocation, ...]):
        if not states:
            raise InfeasibleConfig("explicit state list must be non-empty")
        shape = states[0].polity
        if any(s.polity != shape for s in states):
            raise DimensionMismatch("explicit states disagree on agent count or dimension")
        unique = {s.flat(): s for s in states}
        self._set(tuple(unique[key] for key in sorted(unique)))


FeasibleSet = Union[BoxGrid, FixedTotalLattice, ExplicitList]


def feasible_dimension(fs: FeasibleSet) -> int:
    """Commodity dimension implied by a feasible-set declaration."""
    if isinstance(fs, BoxGrid):
        return len(fs.levels)
    if isinstance(fs, FixedTotalLattice):
        return len(fs.totals)
    return fs.states[0].dimension


def _check_shape(fs: FeasibleSet, polity: Polity) -> None:
    if feasible_dimension(fs) != polity.commodity_dim:
        raise InfeasibleConfig(
            f"feasible set is {feasible_dimension(fs)}-dimensional "
            f"but polity has {polity.commodity_dim} commodities"
        )
    if isinstance(fs, ExplicitList) and fs.states[0].n_agents != polity.n_agents:
        raise InfeasibleConfig(
            f"explicit states have {fs.states[0].n_agents} agents "
            f"but polity has {polity.n_agents}"
        )


def _lattice_units(fs: FixedTotalLattice) -> list[int]:
    """Each commodity's total as a count of lattice steps."""
    return [int(t / fs.step) for t in fs.totals]


def _splits(units: tuple[int, ...], agents: int) -> Iterator[tuple[int, ...]]:
    """Every way to split ``units`` of each commodity among ``agents`` agents.

    Yields flattened unit counts (agent-major, commodity-minor) in
    lexicographic order; the last agent absorbs the remainder.
    """
    if agents == 1:
        yield units
        return
    for head in product(*(range(u + 1) for u in units)):
        rest = tuple(u - h for u, h in zip(units, head))
        for tail in _splits(rest, agents - 1):
            yield head + tail


_Holdings = tuple[tuple[int, ...], ...]


def _on_one_scale(quantities: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``quantities`` as ints on one scale: ``(scale, ints)``.

    The scale is the least common multiple of the quantities' denominators,
    and each int is a quantity times it.  This is the one place a set of
    quantities is put on ints: grid levels, allocations, the scenario's
    literals and transform and welfare weights alike.
    """
    scale = math.lcm(*[q.denominator for q in quantities])
    return scale, [q.numerator * (scale // q.denominator) for q in quantities]


def _grid_levels(fs: BoxGrid) -> tuple[int, list[tuple[int, ...]]]:
    """Each commodity's levels as ints on one scale: ``(scale, levels)``."""
    scale, ints = _on_one_scale([q for levels in fs.levels for q in levels])
    flat = iter(ints)
    return scale, [tuple(islice(flat, len(levels))) for levels in fs.levels]


def _common_holdings(states: Sequence[Allocation]) -> tuple[int, list[_Holdings]]:
    """``states``' bundles as ints on one scale: ``(scale, holdings)``."""
    scale, ints = _on_one_scale([q for s in states for b in s.bundles for q in b.quantities])
    flat = iter(ints)
    return scale, [
        tuple([tuple(islice(flat, len(b.quantities))) for b in s.bundles]) for s in states
    ]


def _allocations(scale: int, stream: Iterable[_Holdings]) -> Iterator[Allocation]:
    """Each int state of ``stream``, on ``scale``, as an ``Allocation``.

    Each distinct holding's ``Fraction``, and each agent's distinct
    ``Bundle``, is made once per call and shared by the states that hold it.
    """
    quantity = cache(lambda holding: Fraction(holding, scale))
    bundle = cache(lambda holding: Bundle._raw(tuple(map(quantity, holding))))
    for holdings in stream:
        yield Allocation._raw(tuple(map(bundle, holdings)))


def feasible_holdings(fs: FeasibleSet, polity: Polity) -> tuple[int, Iterator[_Holdings]]:
    """Every state of the feasible set as int holdings, in enumeration order.

    No quantity is negative, so this is ``_upper_cone`` of the zero floor:
    a positive int ``scale`` and an iterator over the states, each given as
    one tuple of ints per agent, every quantity times ``scale``.
    """
    return _upper_cone(fs, polity, 1, ((0,) * polity.commodity_dim,) * polity.n_agents)


def _lattice_holdings(
    fs: FixedTotalLattice, polity: Polity, floor: tuple[int, ...], residual: tuple[int, ...]
) -> Iterator[_Holdings]:
    """The lattice states ``floor + split`` for every split of ``residual``,
    as step counts times the step's numerator.

    ``floor`` holds flattened step counts and ``residual`` the steps of
    each commodity left to split.  Adding a fixed vector keeps
    lexicographic order, so the states come out in enumeration order.  On
    a zero floor with a step of numerator 1, as for the whole lattice, each
    split is used as it comes.
    """
    numerator = fs.step.numerator
    dim = polity.commodity_dim
    shifted = numerator != 1 or any(floor)
    for split in _splits(residual, polity.n_agents):
        if shifted:
            split = [(f + k) * numerator for f, k in zip(floor, split)]
        # dim references to one iterator: zip takes each agent's dim slots
        yield tuple(zip(*[iter(split)] * dim))


def enumerate_feasible(fs: FeasibleSet, polity: Polity) -> Iterator[Allocation]:
    """Yield every allocation of the feasible set in lexicographic order.

    The order key is the flattened quantity tuple (agent-major,
    commodity-minor), ascending.  The states are ``feasible_holdings``'s,
    each made an ``Allocation``.
    """
    yield from _allocations(*feasible_holdings(fs, polity))


def _upper_cone(
    fs: FeasibleSet, polity: Polity, unit: int, floor: _Holdings
) -> tuple[int, Iterator[_Holdings]]:
    """The feasible states that hold at least ``floor`` in every slot, as
    int holdings on the set's scale, in enumeration order.

    This is the one enumeration of a feasible set.  A set that does not fit
    the polity raises ``InfeasibleConfig`` here, at the call, and the scale
    is fixed before any state is made.  ``floor`` is int holdings on the
    positive scale ``unit``.  A holding h on the set's scale is at least the
    quantity f / unit exactly when h is at least ceil(f · scale / unit), so
    ``floor`` need not be in the set, nor on its grid.

    * Box grid, on the least common multiple of the level denominators: the
      product of each slot's levels at or above the floor.
    * Fixed-total lattice, on the step's denominator (a holding is a count
      of steps times the step's numerator): the floor rounded up onto the
      step grid, plus every split of what the totals leave over; nothing
      when a commodity's rounded floor already exceeds its total.
    * Explicit list, on ``_common_holdings``'s scale: the listed states that
      pass the test.
    """
    _check_shape(fs, polity)
    dim = polity.commodity_dim

    def lowest(scale: int) -> list[int]:
        return [-(-f * scale // unit) for bundle in floor for f in bundle]

    if isinstance(fs, BoxGrid):
        scale, levels = _grid_levels(fs)
        slots = levels * polity.n_agents
        options = [levels[bisect_left(levels, q) :] for levels, q in zip(slots, lowest(scale))]
        bundles = [list(product(*options[s : s + dim])) for s in range(0, len(slots), dim)]
        return scale, product(*bundles)
    if isinstance(fs, FixedTotalLattice):
        scale = fs.step.denominator
        base = tuple([-(-q // fs.step.numerator) for q in lowest(scale)])
        residual = tuple(
            units - sum(base[c::dim]) for c, units in enumerate(_lattice_units(fs))
        )
        if min(residual) < 0:
            return scale, iter(())  # a commodity's floor exceeds its total
        return scale, _lattice_holdings(fs, polity, base, residual)
    scale, listed = _common_holdings(fs.states)
    low = lowest(scale)
    return scale, (
        holdings
        for holdings in listed
        if all(map(operator.ge, [h for bundle in holdings for h in bundle], low))
    )


def enumerate_upper_cone(fs: FeasibleSet, floor: Allocation) -> Iterator[Allocation]:
    """Yield the feasible states that hold at least ``floor`` in every slot.

    A state y is in the cone when every quantity of y is at least the same
    agent's quantity of the same commodity in ``floor``.  The states come
    in enumeration order: the cone is a subsequence of
    ``enumerate_feasible(fs, floor.polity)``.  ``floor`` need not be in the
    set, nor on its grid.  Each state is made from the cone's int holdings
    on ``feasible_holdings``'s scale.
    """
    unit, (holdings,) = _common_holdings((floor,))
    yield from _allocations(*_upper_cone(fs, floor.polity, unit, holdings))


def _unrank(fs: FeasibleSet, polity: Polity, index: int) -> tuple[int, _Holdings]:
    """The state at position ``index`` of ``feasible_holdings(fs, polity)``,
    as ``(scale, holdings)`` on that stream's scale.

    Computed without listing the states before it: a box grid reads
    ``index`` as mixed-radix digits, one per slot; a fixed-total lattice
    walks the agents and commodities in order and skips whole blocks of
    states, each counted by a binomial coefficient (the combinatorial number
    system); an explicit list's stream is read up to the index.  Raises
    ``IndexError`` outside ``0..count_feasible(fs, polity) - 1``.
    """
    size = count_feasible(fs, polity)
    if not 0 <= index < size:
        raise IndexError(f"state id {index} not in 0..{size - 1}")
    if isinstance(fs, ExplicitList):
        scale, stream = feasible_holdings(fs, polity)
        return scale, next(islice(stream, index, None))
    if isinstance(fs, BoxGrid):
        scale, levels = _grid_levels(fs)
        flat = []
        # each flattened slot's levels, agent-major, from the last slot
        for slot in reversed(levels * polity.n_agents):
            index, digit = divmod(index, len(slot))
            flat.append(slot[digit])
        # dim references to one iterator: zip takes each agent's dim slots
        return scale, tuple(zip(*[iter(flat[::-1])] * polity.commodity_dim))
    units = _lattice_units(fs)
    split: list[int] = []
    for agent in range(1, polity.n_agents):
        later = polity.n_agents - agent  # agents after this one
        # ways[c] counts the placements of commodity c's remaining units:
        # among this agent and the later ones until this agent takes its
        # share of c, among the later ones after.
        ways = [math.comb(u + later, later) for u in units]
        for c in range(len(units)):
            others = math.prod(w for i, w in enumerate(ways) if i != c)
            take = 0
            while True:
                block = others * math.comb(units[c] - take + later - 1, later - 1)
                if index < block:
                    break
                index -= block
                take += 1
            split.append(take)
            units[c] -= take
            ways[c] = math.comb(units[c] + later - 1, later - 1)
    # a holding is its count of steps times the step's numerator
    flat = [k * fs.step.numerator for k in split + units]
    return fs.step.denominator, tuple(zip(*[iter(flat)] * polity.commodity_dim))


def unrank_feasible(fs: FeasibleSet, polity: Polity, index: int) -> Allocation:
    """The state at position ``index`` of ``enumerate_feasible(fs, polity)``:
    ``_unrank``'s holdings made an ``Allocation``."""
    scale, holdings = _unrank(fs, polity, index)
    return next(_allocations(scale, (holdings,)))


def feasible_contains(fs: FeasibleSet, state: Allocation) -> bool:
    """Membership test, computed without enumerating the whole set: a member
    is the first state of its own upper cone (``_upper_cone``), since every
    other state there holds more somewhere and so comes later.  A state
    whose shape does not fit the set is no member."""
    unit, (holdings,) = _common_holdings((state,))
    try:
        cone = _upper_cone(fs, state.polity, unit, holdings)
    except InfeasibleConfig:
        return False
    return next(_allocations(*cone), None) == state


def count_feasible(fs: FeasibleSet, polity: Polity) -> int:
    """Number of states the feasible set enumerates to, computed in closed form."""
    _check_shape(fs, polity)
    if isinstance(fs, BoxGrid):
        per_agent = math.prod(len(levels) for levels in fs.levels)
        return per_agent**polity.n_agents
    if isinstance(fs, FixedTotalLattice):
        k = polity.n_agents - 1
        return math.prod(math.comb(units + k, k) for units in _lattice_units(fs))
    return len(fs.states)


def describe_feasible(fs: FeasibleSet, polity: Polity) -> str:
    """Stable one-line description used in report headers."""
    if isinstance(fs, BoxGrid):
        levels = "; ".join(",".join(str(q) for q in ls) for ls in fs.levels)
        kind = f"box_grid(levels={levels})"
    elif isinstance(fs, FixedTotalLattice):
        totals = ",".join(str(t) for t in fs.totals)
        kind = f"fixed_total_lattice(totals={totals}; step={fs.step})"
    else:
        kind = f"explicit_list({len(fs.states)} states)"
    return (
        f"{kind} agents={polity.n_agents} commodities={polity.commodity_dim} "
        f"states={count_feasible(fs, polity)}"
    )
