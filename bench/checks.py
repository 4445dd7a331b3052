"""Output checks for the benchmark, computed apart from paretoscope.

Every expected value here comes from closed forms or from plain ``Fraction``
arithmetic written for the benchmark; nothing is copied from an earlier run
of the program and nothing imports it.  Each ``*_checker`` returns a function
that takes the text a command printed (the default table format) and raises
``CheckFailed`` on the first disagreement.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path


class CheckFailed(Exception):
    """The program's output disagrees with the independent computation."""


@dataclass(frozen=True)
class Table:
    command: str
    header: dict[str, str]
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    diagnostics: tuple[str, ...]


def fmt(state) -> str:
    """An allocation as the CLI prints it: ``(1,2,3)``."""
    return "(" + ",".join(str(q) for q in state) + ")"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def parse_table(text: str) -> Table:
    """Split a table report into title, header block, rows and diagnostics.

    Cells are padded and joined with two spaces, and no cell holds two spaces
    in a row, so a run of two or more spaces separates cells.
    """
    lines = text.split("\n")
    _expect(len(lines) > 4 and lines[0].startswith("paretoscope "), "no report title")
    header = {}
    i = 1
    while lines[i]:
        key, _, value = lines[i].strip().partition(" ")
        header[key] = value.strip()
        i += 1
    columns = tuple(lines[i + 1].split())
    _expect(set(lines[i + 2]) <= {"-", " "}, "no rule under the column names")
    rows = []
    i += 3
    while i < len(lines) and lines[i]:
        cells = re.split(r" {2,}", lines[i])
        _expect(len(cells) <= len(columns), f"row has too many cells: {lines[i]!r}")
        rows.append(tuple(cells) + ("",) * (len(columns) - len(cells)))
        i += 1
    diagnostics = tuple(line for line in lines[i:] if line)
    return Table(lines[0][len("paretoscope "):], header, columns, tuple(rows), diagnostics)


def _parse(text: str, command: str, columns: tuple[str, ...], scenario: Path) -> Table:
    table = parse_table(text)
    _expect(table.command == command, f"report is for {table.command!r}, not {command!r}")
    _expect(table.columns == columns, f"columns {table.columns} != {columns}")
    digest = hashlib.sha256(scenario.read_bytes()).hexdigest()[:12]
    _expect(
        table.header.get("scenario") == digest,
        f"scenario digest {table.header.get('scenario')!r} != {digest!r}",
    )
    return table


def _bool(value: bool) -> str:
    return "true" if value else "false"


def information(state, transforms) -> tuple[Fraction, ...]:
    """Each agent's scalar information at ``state`` (one commodity).

    ``("own",)`` is the agent's holding, ``("mean",)`` the holding over the
    polity mean and ``("nbhd", ids)`` the holding over the mean of ``ids``.
    """
    values = [Fraction(q) for q in state]
    info = []
    for agent, spec in enumerate(transforms):
        if spec[0] == "own":
            info.append(values[agent])
            continue
        group = range(len(values)) if spec[0] == "mean" else [a - 1 for a in spec[1]]
        mean = sum(values[a] for a in group) / len(group)
        info.append(values[agent] / mean)
    return tuple(info)


def improves(after: tuple, before: tuple) -> bool:
    """Strict componentwise dominance: nobody lower, somebody higher."""
    return all(a >= b for a, b in zip(after, before)) and after != before


def frontier_checker(scenario: Path, levels, transforms):
    states = list(product(levels, repeat=len(transforms)))
    if all(spec == ("mean",) for spec in transforms):
        # Sum over agents of x_i / mean is the agent count for every state,
        # so no signature can dominate another: every state is efficient.
        expected = set(range(len(states)))
    else:
        sigs = [information(s, transforms) for s in states]
        expected = {
            i for i, sig in enumerate(sigs) if not any(improves(other, sig) for other in sigs)
        }

    def check(text: str) -> None:
        table = _parse(text, "frontier", ("state_id", "allocation", "efficient"), scenario)
        _expect(len(table.rows) == len(states), f"{len(table.rows)} rows, want {len(states)}")
        for idx, (row, state) in enumerate(zip(table.rows, states)):
            want = (str(idx), fmt(state), _bool(idx in expected))
            _expect(row == want, f"frontier row {idx}: {row} != {want}")
        summary = f"efficient: {len(expected)} of {len(states)} states"
        _expect(summary in table.diagnostics, f"missing {summary!r}")

    return check


def scan_checker(scenario: Path, levels, agents: int):
    n_levels = len(levels)
    n = n_levels**agents
    # Under own on a box grid an improving pair is a pair of distinct states
    # ordered componentwise: per agent, (L(L+1)/2) ordered level pairs.
    improvements = (n_levels * (n_levels + 1) // 2) ** agents - n
    want = (str(n), str(n * (n - 1)), str(improvements), "1")
    shown = min(improvements, 100)

    def check(text: str) -> None:
        table = _parse(
            text, "scan", ("states", "moves", "improvements", "efficient_states"), scenario
        )
        _expect(table.rows == (want,), f"scan row {table.rows} != {want}")
        listed = [d for d in table.diagnostics if d.startswith("improving: ")]
        _expect(len(listed) == shown, f"{len(listed)} improving moves listed, want {shown}")
        for line in listed:
            before, after = (
                tuple(int(q) for q in side.strip("()").split(","))
                for side in line[len("improving: "):].split(" -> ")
            )
            _expect(improves(after, before), f"listed move is no improvement: {line}")
            _expect(set(before + after) <= set(levels), f"listed move off the grid: {line}")
        if improvements > shown:
            more = f"(+{improvements - shown} more improving moves)"
            _expect(more in table.diagnostics, f"missing {more!r}")

    return check


def lattice(total: int) -> list[tuple[int, int, int]]:
    """Three-agent splits of ``total`` in lexicographic order."""
    return [(a, b, total - a - b) for a in range(total + 1) for b in range(total - a + 1)]


def discover_checker(scenario: Path, initial, beneficiary: int, steps: int):
    def state_at(t: int) -> tuple:
        state = list(initial)
        state[beneficiary - 1] += t
        return tuple(state)

    def check(text: str) -> None:
        table = _parse(
            text, "discover", ("step", "allocation", "step_improvement", "efficient", "gap"),
            scenario,
        )
        _expect(table.header.get("beneficiary") == str(beneficiary), "wrong beneficiary")
        _expect(len(table.rows) == steps + 1, f"{len(table.rows)} rows, want {steps + 1}")
        for t, row in enumerate(table.rows):
            # Each step adds one unit to the beneficiary alone, and under own
            # on a fixed-total lattice every split is efficient; the
            # beneficiary starts level with the best-off other agent.
            want = (str(t), fmt(state_at(t)), "n/a" if t == 0 else "true", "true", str(t))
            _expect(row == want, f"discover row {t}: {row} != {want}")

    return check


def welfare_checker(scenario: Path, total: int):
    states = lattice(total)

    def check(text: str) -> None:
        table = _parse(
            text, "welfare", ("rank", "state_id", "allocation", "value", "tied"), scenario
        )
        _expect(len(table.rows) == comb(total + 2, 2), f"{len(table.rows)} welfare rows")
        ids = [int(row[1]) for row in table.rows]
        _expect(sorted(ids) == list(range(len(states))), "state ids are not a permutation")
        values = [Fraction(row[3]) for row in table.rows]
        counts: dict[Fraction, int] = {}
        for value in values:
            counts[value] = counts.get(value, 0) + 1
        for pos, (row, state_id, value) in enumerate(zip(table.rows, ids, values)):
            state = states[state_id]
            _expect(row[0] == str(pos + 1), f"rank {row[0]} at position {pos}")
            _expect(row[2] == fmt(state), f"state {state_id} printed as {row[2]}")
            _expect(value == min(state), f"maximin of {state} is {min(state)}, not {value}")
            _expect(row[4] == _bool(counts[value] > 1), f"tied flag wrong at rank {pos + 1}")
            if pos:
                _expect(value <= values[pos - 1], f"value rises at rank {pos + 1}")
                if value == values[pos - 1]:
                    _expect(state_id > ids[pos - 1], f"unstable tie order at rank {pos + 1}")

    return check


def efficient_checker(scenario: Path, total: int, state_id: int):
    want = (str(state_id), fmt(lattice(total)[state_id]), "true", "")

    def check(text: str) -> None:
        table = _parse(
            text, "efficient", ("state_id", "allocation", "efficient", "witness"), scenario
        )
        _expect(table.rows == (want,), f"efficient row {table.rows} != {want}")

    return check


def check_move_checker(scenario: Path, moves, transforms):
    expected = []
    for idx, (before, after) in enumerate(moves):
        definitional = improves(information(after, transforms), information(before, transforms))
        neoclassical = improves(tuple(after), tuple(before))
        gainer = any(a > b for a, b in zip(after, before))
        ratio = _bool(definitional) if gainer else "n/a"
        expected.append(
            (str(idx), f"{fmt(before)} -> {fmt(after)}", _bool(definitional),
             _bool(neoclassical), ratio, "true")
        )

    def check(text: str) -> None:
        table = _parse(
            text, "check-move",
            ("move_id", "move", "definitional", "neoclassical", "ratio_form", "agree"),
            scenario,
        )
        _expect(len(table.rows) == len(expected), f"{len(table.rows)} rows, want {len(expected)}")
        for row, want in zip(table.rows, expected):
            _expect(row == want, f"check-move row {want[0]}: {row} != {want}")

    return check
