"""Scenario files: a line-oriented ``key = value`` format.

Blank lines and ``#`` comments are ignored.  Keys may appear once each.
Syntax problems raise ``ParseError`` with a 1-based line and column; every
other fault raises ``ValidationError`` as ``<key>: <message>``.  ``_read``
reads every value but the literals.  Counts are integers of at least 1 and
quantities are integers, decimals or ratios, all in ASCII digits.  Optional
keys read as their defaults: ``transform`` own, ``feasible.step`` 1,
``discover.increment`` 1 and ``discover.lattice_step`` 1; ``swf``,
``moves``, ``scan.cap`` and the other ``discover.*`` keys have none.

Allocation literals are ``(1,2)`` for one commodity (one number per agent) or
``((1,0),(2,1))`` for several (one group per agent), with blanks and tabs
allowed around every parenthesis, comma and number.  Moves are written
``FROM -> TO`` and separated by semicolons.  Each literal is read by one
pattern (``_Literals``); ``_Cursor`` parses only the literals that pattern
rejects, to report the fault at its column.  Moves, ``discover.initial`` and an
explicit list are each read to int holdings on one scale, the least common
multiple of their quantities' denominators.
"""

from __future__ import annotations

import codecs
import hashlib
import re
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import InfeasibleConfig, InternalInvariant, ParseError, ValidationError
from .polity import (
    Allocation,
    BoxGrid,
    ExplicitList,
    FeasibleSet,
    FixedTotalLattice,
    Move,
    Polity,
    _allocations,
    _Holdings,
    _on_one_scale,
    as_quantity,
)
from .transforms import (
    RelativeToNeighborhood,
    SwfSpec,
    TransformSpec,
    WeightedSum,
    parse_swf,
    parse_transform,
)

_TRANSFORM_KEY = re.compile(r"^transform\.([0-9]+)$")

_BASE_KEYS = {
    "agents",
    "commodities",
    "feasible.kind",
    "feasible.levels",
    "feasible.total",
    "feasible.step",
    "feasible.list",
    "transform",
    "swf",
    "moves",
    "discover.beneficiary",
    "discover.steps",
    "discover.increment",
    "discover.initial",
    "discover.lattice_step",
    "scan.cap",
}


class _ScenarioFields(NamedTuple):
    n_agents: int
    commodities: int
    feasible: FeasibleSet
    transforms: dict[int, TransformSpec]
    swf: SwfSpec | None = None
    move_scale: int = 1
    move_holdings: tuple[tuple[_Holdings, _Holdings], ...] = ()
    discover_beneficiary: int | None = None
    discover_steps: int | None = None
    discover_increment: Fraction = Fraction(1)
    initial_scale: int = 1
    initial_holdings: _Holdings | None = None
    discover_lattice_step: Fraction = Fraction(1)
    scan_cap: int | None = None
    digest: str = ""


class Scenario(_ScenarioFields):
    """A parsed scenario: the polity, its feasible set, and optional inputs
    for the individual commands.  Each move is kept as ``(before, after)``
    int holdings in ``move_holdings``: every quantity times ``move_scale``;
    so is ``discover.initial``, in ``initial_holdings`` on ``initial_scale``.
    Its ``polity``, ``moves`` and ``discover_initial`` are made once, in its ``__dict__``."""

    @cached_property
    def polity(self) -> Polity:
        return Polity(self.n_agents, self.commodities)

    @cached_property
    def moves(self) -> tuple[Move, ...]:
        """The moves as ``Move``s, made from ``move_holdings`` on first use."""
        states = _allocations(self.move_scale, (e for p in self.move_holdings for e in p))
        return tuple([Move(*pair) for pair in zip(states, states)])  # two states a move

    @cached_property
    def discover_initial(self) -> Allocation | None:
        """``discover.initial`` as an ``Allocation``, made from ``initial_holdings``."""
        if self.initial_holdings is None:
            return None
        return next(_allocations(self.initial_scale, (self.initial_holdings,)))


class _Entry(NamedTuple):
    value: str
    line: int
    column: int


class _Cursor:
    """Character cursor over one value string, reporting 1-based columns
    relative to the original scenario line."""

    def __init__(self, text: str, line: int, base_col: int):
        self.text = text
        self.pos = 0
        self.line = line
        self.base_col = base_col

    def fail(self, message: str):
        raise ParseError(message, line=self.line, column=self.base_col + self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            found = self.peek() or "end of input"
            self.fail(f"expected {ch!r}, found {found!r}")
        self.pos += 1

    def number(self) -> Fraction:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789./":
            self.pos += 1
        token = self.text[start : self.pos]
        if not token:
            self.fail("expected a number")
        if token.isdigit():
            return Fraction(int(token))
        try:
            return as_quantity(token)
        except ValidationError as exc:
            self.pos = start
            self.fail(str(exc))


def _parse_allocation_at(cur: _Cursor) -> list[Fraction | list[Fraction]]:
    cur.skip_ws()
    cur.expect("(")
    items: list[Fraction | list[Fraction]] = []
    while True:
        cur.skip_ws()
        if cur.peek() == "(":
            cur.expect("(")
            group: list[Fraction] = []
            while True:
                cur.skip_ws()
                group.append(cur.number())
                cur.skip_ws()
                if cur.peek() == ",":
                    cur.pos += 1
                    continue
                break
            cur.expect(")")
            items.append(group)
        else:
            items.append(cur.number())
        cur.skip_ws()
        if cur.peek() == ",":
            cur.pos += 1
            continue
        break
    cur.expect(")")
    return items


def _shape_allocation(
    items: list[Fraction | list[Fraction]],
    agents: int,
    commodities: int,
    key: str,
) -> None:
    """Raise ``ValidationError`` unless ``items`` has the scenario's shape."""
    scalars = [i for i in items if isinstance(i, Fraction)]
    groups = [i for i in items if isinstance(i, list)]
    if scalars and groups:
        raise ValidationError("mixed scalar and grouped entries", key=key)
    if len(items) != agents:
        raise ValidationError(
            f"allocation lists {len(items)} agents, scenario declares {agents}",
            key=key,
        )
    if scalars and commodities != 1:
        raise ValidationError(
            f"scalar entries imply 1 commodity, scenario declares {commodities}",
            key=key,
        )
    for g in groups:
        if len(g) != commodities:
            raise ValidationError(
                f"bundle lists {len(g)} commodities, scenario declares {commodities}",
                key=key,
            )


def _parse_allocation(
    text: str, line: int, base_col: int, agents: int, commodities: int, key: str
) -> None:
    """Raise the ``ParseError`` or ``ValidationError`` of the first fault in
    the literal ``text``, at its column; return when it has none."""
    cur = _Cursor(text, line, base_col)
    items = _parse_allocation_at(cur)
    cur.skip_ws()
    if cur.pos != len(cur.text):
        cur.fail(f"unexpected trailing text {cur.text[cur.pos:]!r}")
    _shape_allocation(items, agents, commodities, key)


_BLANKS = "[ \t]*"
_NUMBER = re.compile(r"[0-9./]+")


def _listed(item: str, count: int) -> str:
    """A pattern for ``count`` comma-separated ``item``s in parentheses, with
    blanks and tabs wherever ``_Cursor`` skips them."""
    entry = f"{_BLANKS}{item}{_BLANKS}"
    return rf"\({entry}(?:,{entry}){{{count - 1}}}\)"


class _Literals:
    """Parses the allocation literals of one scenario.

    One pattern, compiled for the scenario's agent and commodity counts,
    fullmatches exactly the literals that ``_Cursor`` and ``_shape_allocation``
    accept, short of converting their number tokens.  A literal it matches
    is read with one ``findall``, and each distinct token becomes a
    ``Fraction`` once, in ``quantities``.  A literal it rejects, or whose
    token is no quantity, is parsed again by ``_Cursor``, which raises the
    ``ParseError`` or ``ValidationError`` with its message and column; a
    rejected literal in which the cursor finds no fault is an
    ``InternalInvariant``.
    """

    def __init__(self, agents: int, commodities: int):
        self.agents = agents
        self.commodities = commodities
        self.quantities: dict[str, Fraction] = {}

    @cached_property
    def pattern(self) -> re.Pattern[str]:
        # compiled at the first literal: compiling costs about as much as
        # loading a scenario that has none
        number = _NUMBER.pattern
        shape = _listed(_listed(number, self.commodities), self.agents)
        if self.commodities == 1:
            shape = f"(?:{_listed(number, self.agents)}|{shape})"
        return re.compile(f"{_BLANKS}{shape}{_BLANKS}")

    def tokens(self, text: str, line: int, base_col: int, key: str) -> list[str]:
        """The literal's quantities, agent-major, as keys of ``quantities``."""
        if self.pattern.fullmatch(text):
            tokens = _NUMBER.findall(text)
            try:
                for token in set(tokens).difference(self.quantities):
                    self.quantities[token] = Fraction(token)
            except (ValueError, ZeroDivisionError):
                pass  # a token that is no quantity: the cursor says where
            else:
                return tokens
        _parse_allocation(text, line, base_col, self.agents, self.commodities, key)
        raise InternalInvariant(
            f"the literal pattern rejects {text!r} but the cursor finds no fault"
        )

    def holdings(self, literals: list[list[str]]) -> tuple[int, list[_Holdings]]:
        """Each of ``literals`` (from ``tokens``) as int holdings on one scale,
        ``polity._on_one_scale``'s, each distinct token converted once."""
        tokens = list(set().union(*literals))
        scale, values = _on_one_scale([self.quantities[t] for t in tokens])
        ints = dict(zip(tokens, values))
        # commodities references to one iterator: zip takes each agent's in turn
        return scale, [
            tuple(zip(*[map(ints.__getitem__, tokens)] * self.commodities))
            for tokens in literals
        ]


def _collect(text: str) -> dict[str, _Entry]:
    entries: dict[str, _Entry] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", line=line_no, column=1)
        key_part, value_part = stripped.split("=", 1)
        key = key_part.strip()
        if not key:
            raise ParseError("missing key before '='", line=line_no, column=1)
        if key in entries:
            raise ValidationError("duplicate key", key=key)
        if key not in _BASE_KEYS and not _TRANSFORM_KEY.match(key):
            raise ValidationError("unknown key", key=key)
        lead = len(value_part) - len(value_part.lstrip())
        value_col = len(key_part) + 2 + lead
        value = value_part.strip()
        if not value:
            raise ValidationError("empty value", key=key)
        entries[key] = _Entry(value, line_no, value_col)
    return entries


_REQUIRED = object()


def _read(entries: dict[str, _Entry], key: str, read, default=_REQUIRED):
    """``read`` applied to the value of ``key``, raising its
    ``ValidationError`` or ``InfeasibleConfig`` again as a ``ValidationError``
    that names the key.  An absent key is refused unless it has a default:
    a default text is read as if written, a ``None`` default is returned."""
    entry = entries.get(key)
    if entry is None:
        if default is _REQUIRED:
            raise ValidationError("missing required key", key=key)
        if default is None:
            return None
    try:
        return read(default if entry is None else entry.value)
    except (ValidationError, InfeasibleConfig) as exc:
        raise ValidationError(str(exc), key=key)


def _is_integer(text: str) -> bool:
    """Whether ``text`` is ASCII digits after at most one leading ``-``: how
    a count, and each int flag of the CLI, is written."""
    digits = text.removeprefix("-")
    return digits.isascii() and digits.isdigit()


def _integer(text: str) -> int:
    """A count: ASCII digits, an integer of at least 1."""
    if not _is_integer(text):
        raise ValidationError(f"expected an integer, got {text!r}")
    value = int(text)
    if value < 1:
        raise ValidationError(f"must be at least 1, got {value}")
    return value


def _positive(text: str) -> Fraction:
    value = as_quantity(text)
    if value <= 0:
        raise ValidationError("must be strictly positive")
    return value


def _per_commodity(items: list, commodities: int, noun: str) -> tuple:
    """One of ``items`` for each commodity: a single item applies to every
    commodity, and otherwise there must be one per commodity."""
    if len(items) == 1:
        return tuple(items) * commodities
    if len(items) != commodities:
        raise ValidationError(f"{len(items)} {noun} for {commodities} commodities")
    return tuple(items)


def _split_segments(value: str) -> list[tuple[str, int]]:
    """Split on ';', keeping each segment's offset within the value."""
    segments = []
    offset = 0
    for part in value.split(";"):
        segments.append((part, offset))
        offset += len(part) + 1
    return segments


def _build_feasible(
    entries: dict[str, _Entry], commodities: int, literals: _Literals
) -> FeasibleSet:
    kind = _read(entries, "feasible.kind", str)
    allowed = {
        "box_grid": {"feasible.levels"},
        "fixed_total_lattice": {"feasible.total", "feasible.step"},
        "explicit_list": {"feasible.list"},
    }
    if kind not in allowed:
        raise ValidationError(
            f"unknown kind {kind!r}; expected box_grid, "
            "fixed_total_lattice, or explicit_list",
            key="feasible.kind",
        )
    for key in entries:
        if key.startswith("feasible.") and key not in {"feasible.kind", *allowed[kind]}:
            raise ValidationError(f"not valid for kind {kind}", key=key)
    if kind == "box_grid":

        def grid(text: str) -> BoxGrid:
            groups = []
            for part in text.split(";"):
                values = [p.strip() for p in part.split(",")]
                if not all(values):
                    raise ValidationError(f"empty level entry in {part.strip()!r}")
                groups.append(tuple(sorted({as_quantity(v) for v in values})))
            return BoxGrid(_per_commodity(groups, commodities, "level groups"))

        return _read(entries, "feasible.levels", grid)
    if kind == "fixed_total_lattice":

        def totals(text: str) -> tuple[Fraction, ...]:
            parts = [p.strip() for p in text.split(",")]
            if not all(parts):
                raise ValidationError("empty total entry")
            return _per_commodity([as_quantity(p) for p in parts], commodities, "totals")

        total = _read(entries, "feasible.total", totals)
        return _read(
            entries, "feasible.step", lambda step: FixedTotalLattice(total, as_quantity(step)), "1"
        )
    _read(entries, "feasible.list", str)  # refuses an absent list
    entry = entries["feasible.list"]
    states = []
    for part, offset in _split_segments(entry.value):
        if not part.strip():
            raise ValidationError("empty state entry", key="feasible.list")
        states.append(
            literals.tokens(part, entry.line, entry.column + offset, "feasible.list")
        )
    return ExplicitList(tuple(_allocations(*literals.holdings(states))))


def _build_transforms(entries: dict[str, _Entry], agents: int) -> dict[int, TransformSpec]:
    def transform(text: str) -> TransformSpec:
        spec = parse_transform(text)
        if isinstance(spec, RelativeToNeighborhood):
            bad = sorted(a for a in spec.neighbors if a > agents)
            if bad:
                raise ValidationError(
                    f"neighborhood names agent(s) {bad} beyond the {agents}-agent polity"
                )
        return spec

    shared = _read(entries, "transform", transform, "own")
    overrides: dict[int, TransformSpec] = {}
    for key in entries:
        match = _TRANSFORM_KEY.match(key)
        if not match:
            continue
        agent = int(match.group(1))
        if not 1 <= agent <= agents:
            raise ValidationError(f"agent {agent} not in 1..{agents}", key=key)
        if agent in overrides:
            # transform.1 and transform.01 name one agent: one key twice
            raise ValidationError("duplicate key", key=key)
        overrides[agent] = _read(entries, key, transform)
    return {a: overrides.get(a, shared) for a in range(1, agents + 1)}


def parse_scenario(text: str, digest: str = "") -> Scenario:
    """Parse scenario text into a validated ``Scenario``."""
    entries = _collect(text)
    agents = _read(entries, "agents", _integer)
    commodities = _read(entries, "commodities", _integer)
    literals = _Literals(agents, commodities)
    feasible = _build_feasible(entries, commodities, literals)
    transforms = _build_transforms(entries, agents)

    def welfare(text: str) -> SwfSpec:
        spec = parse_swf(text)
        if isinstance(spec.combiner, WeightedSum) and len(spec.combiner.weights) != agents:
            raise ValidationError(f"{len(spec.combiner.weights)} weights for {agents} agents")
        return spec

    def agent(text: str) -> int:
        value = _integer(text)
        if value > agents:
            raise ValidationError(f"agent {value} not in 1..{agents}")
        return value

    swf = _read(entries, "swf", welfare, None)
    ends: list[list[str]] = []  # every move's two literals in turn
    if "moves" in entries:
        entry = entries["moves"]
        for part, offset in _split_segments(entry.value):
            if not part.strip():
                raise ValidationError("empty move entry", key="moves")
            arrow = part.find("->")
            if arrow < 0:
                raise ParseError(
                    "move must be written FROM -> TO",
                    line=entry.line,
                    column=entry.column + offset,
                )
            column = entry.column + offset
            for end, at in ((part[:arrow], column), (part[arrow + 2 :], column + arrow + 2)):
                ends.append(literals.tokens(end, entry.line, at, "moves"))
    move_scale, holdings = literals.holdings(ends)

    beneficiary = _read(entries, "discover.beneficiary", agent, None)
    steps = _read(entries, "discover.steps", _integer, None)
    increment = _read(entries, "discover.increment", _positive, "1")
    lattice_step = _read(entries, "discover.lattice_step", _positive, "1")
    initial_scale, initial_holdings, tokens = 1, None, []
    if "discover.initial" in entries:
        entry = entries["discover.initial"]
        tokens = literals.tokens(entry.value, entry.line, entry.column, "discover.initial")
        initial_scale, (initial_holdings,) = literals.holdings([tokens])
    if (increment / lattice_step).denominator != 1:
        raise ValidationError(
            f"increment {increment} is not a multiple of lattice step {lattice_step}",
            key="discover.increment",
        )
    for q in map(literals.quantities.__getitem__, tokens):
        if (q / lattice_step).denominator != 1:
            raise ValidationError(
                f"quantity {q} is not a multiple of lattice step {lattice_step}",
                key="discover.initial",
            )

    scan_cap = _read(entries, "scan.cap", _integer, None)

    return Scenario(
        n_agents=agents,
        commodities=commodities,
        feasible=feasible,
        transforms=transforms,
        swf=swf,
        move_scale=move_scale,
        move_holdings=tuple(zip(holdings[::2], holdings[1::2])),
        discover_beneficiary=beneficiary,
        discover_steps=steps,
        discover_increment=increment,
        initial_scale=initial_scale,
        initial_holdings=initial_holdings,
        discover_lattice_step=lattice_step,
        scan_cap=scan_cap,
        digest=digest,
    )


def load_scenario(path: str) -> Scenario:
    """Read, digest, and parse a scenario file.

    A leading UTF-8 byte order mark is dropped; the digest is of the raw bytes.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # the same as decoding with "utf-8-sig", without importing that codec
    body = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the body decodes up to the first bad byte; a stand-in for that byte
        # ends the lines, which are split as ``_collect`` splits them
        lines = (body[: exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(
            "scenario file is not valid UTF-8", line=len(lines), column=len(lines[-1])
        ) from None
    return parse_scenario(text, digest=hashlib.sha256(data).hexdigest()[:12])
