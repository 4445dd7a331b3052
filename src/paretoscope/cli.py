"""Command line interface.

``paretoscope <command> --scenario <path>`` with commands ``check-move``,
``efficient``, ``frontier``, ``scan``, ``discover``, and ``welfare``.
``_COMMANDS`` is the one list of commands: ``build_parser`` builds the
subcommands from it, and ``run_command`` dispatches through it and builds
every command's report.
Exit codes: 0 success, 1 scenario, argument or file problem, 2 engine error,
3 scan cap exceeded; a package error's code is its class's ``exit_code``.
"""

from __future__ import annotations

# The package modules are compiled before argparse is imported: argparse
# loads gettext and locale, and compiling after them raises the peak RSS of
# every command.
from . import __version__
from .discovery import _windfall
from .engine import (
    DEFAULT_SCAN_CAP,
    _efficiency,
    _improved,
    _move_outcome,
    enumerate_frontier,
    scan_all_moves,
)
from .errors import (
    HypothesisViolated,
    MissingField,
    ParetoscopeError,
    ValidationError,
)
from .polity import _unrank, describe_feasible, feasible_holdings
from .report import RationalTexts, Report, emit_report, render_bool, render_holdings
from .scenario import Scenario, _is_integer, load_scenario
from .transforms import OwnBundle, _readings, swf_label, transform_label, transforms_for
from .welfare import _ranked, _welfare_ints

import argparse
import gc
import sys
from itertools import islice

_IMPROVING_MOVES_SHOWN = 100


def _header(scenario: Scenario, extra: tuple[tuple[str, str], ...]) -> tuple:
    transforms = sorted(scenario.transforms.items())
    return (
        ("scenario", scenario.digest or "-"),
        ("engine", __version__),
        ("feasible", describe_feasible(scenario.feasible, scenario.polity)),
        ("transforms", "; ".join(f"{agent}={transform_label(spec)}" for agent, spec in transforms)),
        *extra,
    )


def _run_check_move(scenario: Scenario, **_) -> tuple:
    if not scenario.move_holdings:
        raise MissingField("moves")
    polity = scenario.polity
    all_own = all(isinstance(t, OwnBundle) for t in scenario.transforms.values())
    # every transform is checked before any move is read
    readings = _readings(transforms_for(polity, scenario.transforms), polity)
    quantity = RationalTexts(scenario.move_scale).__getitem__
    rows = []
    diagnostics = []
    for idx, holdings in enumerate(scenario.move_holdings):
        tally, neoclassical_tally, ratio = _move_outcome(polity, readings, holdings)
        definitional, neoclassical = _improved(tally), _improved(neoclassical_tally)
        applicable = [definitional]
        if isinstance(ratio, HypothesisViolated):
            ratio_cell = "n/a"
            diagnostics.append(f"move {idx}: ratio form not applicable ({ratio})")
        else:
            ratio_cell = render_bool(ratio)
            applicable.append(ratio)
        if all_own:
            applicable.append(neoclassical)
        before, after = holdings
        rows.append(
            (
                str(idx),
                f"{render_holdings(before, quantity)} -> {render_holdings(after, quantity)}",
                render_bool(definitional),
                render_bool(neoclassical),
                ratio_cell,
                render_bool(len(set(applicable)) == 1),
            )
        )
        gainers = ",".join(str(a) for a in tally[0])
        violators = ",".join(f"{agent}:{kind.value}" for agent, kind in tally[1])
        diagnostics.append(f"move {idx}: strict_gainers=[{gainers}] violators=[{violators}]")
    columns = ("move_id", "move", "definitional", "neoclassical", "ratio_form", "agree")
    return columns, rows, diagnostics, ()


def _run_efficient(scenario: Scenario, state_id: int | None, **_) -> tuple:
    if state_id is None:
        raise MissingField("state")
    fs, polity = scenario.feasible, scenario.polity
    try:
        scale, state = _unrank(fs, polity, state_id)
    except IndexError as exc:
        raise ValidationError(str(exc), key="state") from exc
    specs = transforms_for(polity, scenario.transforms)
    # the targets come on the feasible set's scale, the state's own
    _, witness, skipped = _efficiency(fs, polity, specs, _readings(specs, polity), scale, state)
    diagnostics = []
    if skipped:
        diagnostics.append(f"skipped {skipped} target(s) with undefined reference point")
    quantity = RationalTexts(scale).__getitem__
    shown = render_holdings(state, quantity)
    row = (
        str(state_id),
        shown,
        render_bool(witness is None),
        "" if witness is None else f"{shown} -> {render_holdings(witness, quantity)}",
    )
    return ("state_id", "allocation", "efficient", "witness"), (row,), diagnostics, ()


def _run_frontier(scenario: Scenario, **_) -> tuple:
    frontier = enumerate_frontier(scenario.feasible, scenario.polity, scenario.transforms)
    # The rows are rendered from the int state stream, as welfare's are.
    unit, stream = feasible_holdings(scenario.feasible, scenario.polity)
    quantity = RationalTexts(unit).__getitem__
    efficient, degenerate = set(frontier.efficient_ids), set(frontier.degenerate_ids)
    rows = tuple(
        (
            str(i),
            render_holdings(holdings, quantity),
            "n/a" if i in degenerate else render_bool(i in efficient),
        )
        for i, holdings in enumerate(stream)
    )
    diagnostics = [
        f"efficient: {len(frontier.efficient_ids)} of {frontier.states} states"
    ]
    if frontier.degenerate_ids:
        diagnostics.append(
            f"degenerate: {len(frontier.degenerate_ids)} state(s) "
            "with undefined reference point"
        )
    return ("state_id", "allocation", "efficient"), rows, diagnostics, ()


def _run_scan(scenario: Scenario, cap: int | None, **_) -> tuple:
    effective_cap = cap if cap is not None else (
        scenario.scan_cap if scenario.scan_cap is not None else DEFAULT_SCAN_CAP
    )
    result = scan_all_moves(
        scenario.feasible,
        scenario.polity,
        scenario.transforms,
        cap=effective_cap,
    )
    diagnostics = []
    # Only the shown moves are read off the bitsets, and only their states
    # are rendered, each once, from one pass of the int state stream.
    shown = list(islice(result.iter_improving_moves(), _IMPROVING_MOVES_SHOWN))
    ids = {i for move in shown for i in move}
    unit, stream = feasible_holdings(scenario.feasible, scenario.polity)
    quantity = RationalTexts(unit).__getitem__
    rendered = {i: render_holdings(h, quantity) for i, h in enumerate(stream) if i in ids}
    for i, j in shown:
        diagnostics.append(f"improving: {rendered[i]} -> {rendered[j]}")
    hidden = result.improvements_found - len(shown)
    if hidden > 0:
        diagnostics.append(f"(+{hidden} more improving moves)")
    if result.degenerate_states:
        diagnostics.append(
            f"degenerate: {result.degenerate_states} state(s) skipped, "
            f"{result.skipped_moves} move(s) not evaluated"
        )
    row = (
        str(result.states_examined),
        str(result.moves_examined),
        str(result.improvements_found),
        str(result.efficient_state_count),
    )
    return ("states", "moves", "improvements", "efficient_states"), (row,), diagnostics, ()


def _run_discover(scenario: Scenario, **_) -> tuple:
    if scenario.initial_holdings is None:
        raise MissingField("discover.initial")
    for key in ("beneficiary", "steps"):
        if getattr(scenario, f"discover_{key}") is None:
            raise MissingField(f"discover.{key}")
    # From the parsed holdings on, the run and its rows are ints: no Allocation.
    run = _windfall(
        scenario.initial_scale, scenario.initial_holdings, scenario.discover_beneficiary,
        scenario.discover_steps, scenario.discover_increment, scenario.discover_lattice_step,
    )
    quantity = RationalTexts(run.scale).__getitem__
    rows = tuple(
        (
            str(t),
            render_holdings(state, quantity),
            "n/a" if t == 0 else render_bool(_improved(run.tallies[t - 1])),
            render_bool(True),  # the run checked that no state's cone holds another
            quantity(run.gaps[t]),
        )
        for t, state in enumerate(run.trajectory)
    )
    extra = (
        ("beneficiary", str(scenario.discover_beneficiary)),
        ("increment", str(scenario.discover_increment)),
    )
    return ("step", "allocation", "step_improvement", "efficient", "gap"), rows, (), extra


def _run_welfare(scenario: Scenario, **_) -> tuple:
    if scenario.swf is None:
        raise MissingField("swf")
    # Every row is rendered from the int state stream: no Allocation, and a
    # Fraction only once per distinct quantity and value.
    unit, stream = feasible_holdings(scenario.feasible, scenario.polity)
    states = list(stream)
    values, scale = _welfare_ints(scenario.swf, scenario.polity, unit, states)
    order, counts = _ranked(values)
    quantity, value_texts = RationalTexts(unit).__getitem__, RationalTexts(scale)
    rows = tuple(
        (
            str(rank),
            str(i),
            render_holdings(states[i], quantity),
            value_texts[values[i]],
            render_bool(counts[values[i]] > 1),
        )
        for rank, i in enumerate(order, 1)
    )
    extra = (("swf", swf_label(scenario.swf)),)
    return ("rank", "state_id", "allocation", "value", "tied"), rows, (), extra


def _flag_int(minimum: int | None = None):
    """An argparse type: an int in a count's grammar, at least ``minimum`` if given."""

    def parse(text: str) -> int:
        if not _is_integer(text):
            raise ValueError(text)
        value = int(text)
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


# The one list of commands, in the order ``--help`` shows them: each name's
# runner, help string, and the flags only it takes.  A runner is called with
# the scenario and ``run_command``'s ``state_id`` and ``cap``, and returns
# the report's columns, rows, diagnostics and extra header pairs.
_COMMANDS = {
    "check-move": (_run_check_move, "check the scenario's moves", {}),
    "efficient": (
        _run_efficient,
        "check one state for efficiency",
        {"--state": dict(type=_flag_int(), help="state id (enumeration index) to check")},
    ),
    "frontier": (_run_frontier, "classify every feasible state", {}),
    "scan": (
        _run_scan,
        "evaluate every ordered move",
        {
            "--parallel": dict(
                type=_flag_int(1),
                default=1,
                metavar="N",
                help="accepted for compatibility and ignored; N must be at least 1",
            ),
            "--cap": dict(type=_flag_int(1), help="move-count cap override"),
        },
    ),
    "discover": (_run_discover, "run the accumulation simulation", {}),
    "welfare": (_run_welfare, "rank feasible states by welfare", {}),
}


def run_command(
    scenario: Scenario, command: str, state_id: int | None = None, cap: int | None = None
) -> Report:
    """Execute one CLI command against a parsed scenario."""
    if command not in _COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    run = _COMMANDS[command][0]
    columns, rows, diagnostics, extra = run(scenario, state_id=state_id, cap=cap)
    # the header is read after the run, so a run's own error comes first
    return Report(command, _header(scenario, extra), columns, tuple(rows), tuple(diagnostics))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="paretoscope",
        description="Improvement checks, frontiers, scans, accumulation runs, "
        "and welfare rankings over finite allocation spaces.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="path to a scenario file")
    common.add_argument(
        "--format", choices=("table", "csv"), default="table", help="output format"
    )
    common.add_argument("--output", help="write the report here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        for flag, options in flags.items():
            command.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    # the imports' objects live until exit: freeze them once, so no collection walks them
    if not gc.get_freeze_count():
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        scenario = load_scenario(args.scenario)
        report = run_command(
            scenario, args.command, getattr(args, "state", None), getattr(args, "cap", None)
        )
        payload = emit_report(report, args.format)
        if args.output:
            with open(args.output, "wb") as fh:
                fh.write(payload)
    except (OSError, ParetoscopeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, ParetoscopeError) else 1
    if not args.output:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
