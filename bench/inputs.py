"""Seeded inputs for the paretoscope benchmark.

``build(workload, seed, out_dir)`` writes the workload's scenario files into
``out_dir`` and returns the commands to run, each with the checker for its
output and the number of ordered state pairs it must decide by definition.
The program under test only ever sees the scenario files.

The seed changes the values in the inputs but not the amount of work: level
sets, totals and move mixes are drawn so that every seed asks the program for
the same number of transform evaluations, comparisons and rows.

Run on its own, it writes one workload's files and prints its command lines:

    python3 bench/inputs.py --workload scan-own --seed 1 --out bench/work/inputs
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("frontier-relative", "scan-own", "windfall-lattice", "check-moves")

MIXED_TRANSFORMS = (("own",), ("nbhd", (1, 3)), ("mean",))
_TRANSFORM_TEXT = {"own": "own", "mean": "relative_mean"}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``paretoscope <argv...>``."""

    argv: tuple[str, ...]
    check: Callable[[str], None]
    pairs: int


@dataclass(frozen=True)
class Inputs:
    scenarios: tuple[Path, ...]
    commands: tuple[Command, ...]


def _transform_text(spec: tuple) -> str:
    if spec[0] == "nbhd":
        return "relative_nbhd(" + ",".join(str(a) for a in spec[1]) + ")"
    return _TRANSFORM_TEXT[spec[0]]


def _write(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _box_scenario(path: Path, agents: int, levels, transforms, extra=()) -> Path:
    lines = [
        f"agents = {agents}",
        "commodities = 1",
        "feasible.kind = box_grid",
        "feasible.levels = " + ",".join(str(q) for q in levels),
    ]
    lines += [f"transform.{a} = {_transform_text(t)}" for a, t in enumerate(transforms, 1)]
    return _write(path, lines + list(extra))


def _frontier_relative(rng: random.Random, out: Path, tiny: bool) -> Inputs:
    # Under relative_mean every state is efficient whatever the levels, so
    # the relative grid may take any positive levels.  The mixed grid's
    # efficient count depends on the level shape; scaling 1..L keeps it (and
    # so the oracle's early exits) fixed across seeds.
    n_levels = 2 if tiny else 6
    relative_levels = sorted(rng.sample(range(1, 25), n_levels))
    scale = rng.randint(1, 12)
    mixed_levels = [scale * k for k in range(1, n_levels + 1)]
    relative = (("mean",),) * 3
    grids = (
        ("relative", relative_levels, relative),
        ("mixed", mixed_levels, MIXED_TRANSFORMS),
    )
    scenarios, commands = [], []
    for label, levels, transforms in grids:
        path = _box_scenario(out / f"frontier-{label}.scn", 3, levels, transforms)
        n = len(levels) ** 3
        scenarios.append(path)
        commands.append(
            Command(
                ("frontier", "--scenario", str(path)),
                checks.frontier_checker(path, levels, transforms),
                n * (n - 1),
            )
        )
    return Inputs(tuple(scenarios), tuple(commands))


def _scan_own(rng: random.Random, out: Path, tiny: bool) -> Inputs:
    agents, n_levels = (2, 3) if tiny else (4, 5)
    levels = sorted(rng.sample(range(0, 50), n_levels))
    n = n_levels**agents
    path = _box_scenario(
        out / "scan-own.scn", agents, levels, (("own",),) * agents,
        [f"scan.cap = {n * (n - 1)}"],
    )
    command = Command(
        ("scan", "--parallel", "2", "--scenario", str(path)),
        checks.scan_checker(path, levels, agents),
        n * (n - 1),
    )
    return Inputs((path,), (command,))


def _windfall_lattice(rng: random.Random, out: Path, tiny: bool) -> Inputs:
    steps, total = (3, 6) if tiny else (40, 60)
    # The beneficiary starts level with the best-off other agent, so the gap
    # at step t is exactly t.  The initial total is fixed at 12, which fixes
    # the size of every lattice the run judges efficiency on.
    beneficiary = rng.randint(1, 3)
    top, rest = rng.choice(((4, 4), (5, 2), (6, 0)))
    others = [top, rest]
    rng.shuffle(others)
    initial = others[: beneficiary - 1] + [top] + others[beneficiary - 1 :]
    lattice_size = comb(total + 2, 2)
    state = rng.randrange(lattice_size)
    path = _write(
        out / "windfall-lattice.scn",
        [
            "agents = 3",
            "commodities = 1",
            "feasible.kind = fixed_total_lattice",
            f"feasible.total = {total}",
            "feasible.step = 1",
            "transform = own",
            "swf = maximin",
            "discover.initial = (" + ",".join(str(q) for q in initial) + ")",
            f"discover.beneficiary = {beneficiary}",
            f"discover.steps = {steps}",
        ],
    )
    start = sum(initial)
    discover_pairs = sum(comb(start + t + 2, 2) - 1 for t in range(steps + 1))
    commands = (
        Command(
            ("discover", "--scenario", str(path)),
            checks.discover_checker(path, initial, beneficiary, steps),
            discover_pairs,
        ),
        Command(
            ("welfare", "--scenario", str(path)),
            checks.welfare_checker(path, total),
            0,
        ),
        Command(
            ("efficient", "--state", str(state), "--scenario", str(path)),
            checks.efficient_checker(path, total, state),
            lattice_size - 1,
        ),
    )
    return Inputs((path,), commands)


def _random_state(rng: random.Random) -> list[int]:
    return [rng.randint(1, 9) for _ in range(3)]


# One block of moves, repeated: two random moves, a proportional growth (an
# improvement under every transform here), a lone windfall, a lone loss and a
# no-op.  Fixed shares keep the work per seed the same; the last two kinds
# have no strict gainer, so the ratio form must read n/a on them.
def _move_block(rng: random.Random) -> list[tuple[list[int], list[int]]]:
    moves = [(_random_state(rng), _random_state(rng)) for _ in range(2)]
    before = _random_state(rng)
    moves.append((before, [q * rng.randint(2, 3) for q in before]))
    before = _random_state(rng)
    after = list(before)
    after[rng.randrange(3)] += rng.randint(1, 5)
    moves.append((before, after))
    before = [q + 1 for q in _random_state(rng)]
    after = list(before)
    after[rng.randrange(3)] -= 1
    moves.append((before, after))
    before = _random_state(rng)
    moves.append((before, list(before)))
    return moves


def _check_moves(rng: random.Random, out: Path, tiny: bool) -> Inputs:
    blocks = 5 if tiny else 500
    moves = [m for _ in range(blocks) for m in _move_block(rng)]
    path = _box_scenario(
        out / "check-moves.scn", 3, range(1, 10), MIXED_TRANSFORMS,
        ["moves = " + "; ".join(f"{checks.fmt(a)} -> {checks.fmt(b)}" for a, b in moves)],
    )
    command = Command(
        ("check-move", "--scenario", str(path)),
        checks.check_move_checker(path, moves, MIXED_TRANSFORMS),
        len(moves),
    )
    return Inputs((path,), (command,))


_GENERATORS = {
    "frontier-relative": _frontier_relative,
    "scan-own": _scan_own,
    "windfall-lattice": _windfall_lattice,
    "check-moves": _check_moves,
}


def build(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> Inputs:
    """Write ``workload``'s scenario files for ``seed`` and return its commands.

    ``tiny`` shrinks every input to a few states or moves, for smoke tests.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, out_dir, tiny)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    for command in build(args.workload, args.seed, args.out, args.tiny).commands:
        print("paretoscope " + " ".join(command.argv))


if __name__ == "__main__":
    main()
