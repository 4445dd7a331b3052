"""Command line interface: golden outputs, determinism, exit codes."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from paretoscope import transforms as transforms_module
from paretoscope.cli import main, run_command
from paretoscope.errors import ValidationError
from paretoscope.polity import Allocation
from paretoscope.report import emit_report
from paretoscope.scenario import load_scenario
from paretoscope.transforms import WeightedOwn

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

GOLDEN_RUNS = [
    ("check-move", "own_box", "csv", [], "check_move_own_box.csv"),
    ("check-move", "own_box", "table", [], "check_move_own_box.table.txt"),
    ("check-move", "check_move_mixed", "csv", [], "check_move_mixed.csv"),
    ("check-move", "check_move_mixed", "table", [], "check_move_mixed.table.txt"),
    ("check-move", "check_move_weighted", "csv", [], "check_move_weighted.csv"),
    ("check-move", "check_move_weighted", "table", [], "check_move_weighted.table.txt"),
    # decimals, leading zeros, blanks, tabs and grouped literals
    ("check-move", "check_move_literals", "csv", [], "check_move_literals.csv"),
    ("check-move", "check_move_literals", "table", [], "check_move_literals.table.txt"),
    ("efficient", "own_box", "csv", ["--state", "4"], "efficient_own_box.csv"),
    # the full search: relative transforms, skipped targets and a witness
    (
        "efficient",
        "check_move_mixed",
        "table",
        ["--state", "7"],
        "efficient_check_move_mixed.table.txt",
    ),
    (
        "efficient",
        "check_move_mixed",
        "csv",
        ["--state", "40"],
        "efficient_check_move_mixed.csv",
    ),
    ("frontier", "own_box", "csv", [], "frontier_own_box.csv"),
    ("frontier", "own_box", "table", [], "frontier_own_box.table.txt"),
    ("frontier", "relmean_pair", "csv", [], "frontier_relmean_pair.csv"),
    # fractional levels, weighted relative transforms and degenerate states
    ("frontier", "check_move_mixed", "table", [], "frontier_check_move_mixed.table.txt"),
    ("frontier", "check_move_weighted", "csv", [], "frontier_check_move_weighted.csv"),
    # efficient states on several signature sums
    ("frontier", "frontier_mixed_box", "csv", [], "frontier_mixed_box.csv"),
    ("frontier", "frontier_mixed_box", "table", [], "frontier_mixed_box.table.txt"),
    ("scan", "check_move_mixed", "csv", [], "scan_check_move_mixed.csv"),
    ("scan", "relmean_pair", "csv", [], "scan_relmean_pair.csv"),
    ("scan", "relmean_trio", "csv", [], "scan_relmean_trio.csv"),
    ("scan", "own_box", "csv", [], "scan_own_box.csv"),
    ("scan", "own_box", "table", [], "scan_own_box.table.txt"),
    # more than 100 improving moves, so only the first 100 are listed, and
    # one degenerate state
    ("scan", "scan_own_relmean", "table", [], "scan_own_relmean.table.txt"),
    # an explicit list of fractional states over two commodities: a witness
    # from the own-type cone, and shown moves
    (
        "efficient",
        "explicit_fractional",
        "csv",
        ["--state", "1"],
        "efficient_explicit_fractional.csv",
    ),
    ("scan", "explicit_fractional", "table", [], "scan_explicit_fractional.table.txt"),
    (
        "frontier",
        "explicit_fractional",
        "table",
        [],
        "frontier_explicit_fractional.table.txt",
    ),
    # a fixed-total lattice whose step has a numerator other than 1
    (
        "efficient",
        "lattice_two_thirds",
        "table",
        ["--state", "15"],
        "efficient_lattice_two_thirds.table.txt",
    ),
    ("scan", "lattice_two_thirds", "table", [], "scan_lattice_two_thirds.table.txt"),
    ("discover", "discover", "csv", [], "discover.csv"),
    ("discover", "discover", "table", [], "discover.table.txt"),
    # fractional quantities, increment and lattice step over two commodities
    ("discover", "discover_fractional", "csv", [], "discover_fractional.csv"),
    ("discover", "discover_fractional", "table", [], "discover_fractional.table.txt"),
    ("welfare", "maximin_lattice", "csv", [], "welfare_maximin.csv"),
    ("welfare", "maximin_lattice", "table", [], "welfare_maximin.table.txt"),
    # fractional holdings and values, and a weighted sum with ties
    ("welfare", "welfare_weighted_lattice", "table", [], "welfare_weighted_lattice.table.txt"),
    ("welfare", "welfare_weighted_lattice", "csv", [], "welfare_weighted_lattice.csv"),
    ("welfare", "own_box", "csv", [], "welfare_own_box.csv"),
]

# The exact stderr of the golden runs that write any, keyed by golden file;
# every other golden run writes nothing there.  Each degenerate state is
# one warning line, in enumeration order.
GOLDEN_STDERR = {
    "frontier_check_move_mixed.table.txt": (
        "WARNING: state 0 excluded from frontier: reference mean for agent 2 is zero\n"
        "WARNING: state 6 excluded from frontier: reference mean for agent 2 is zero\n"
        "WARNING: state 12 excluded from frontier: reference mean for agent 2 is zero\n"
        "WARNING: state 18 excluded from frontier: reference mean for agent 2 is zero\n"
        "WARNING: state 24 excluded from frontier: reference mean for agent 2 is zero\n"
        "WARNING: state 30 excluded from frontier: reference mean for agent 2 is zero\n"
    ),
    "scan_check_move_mixed.csv": (
        "WARNING: state 0 skipped in scan: reference mean for agent 2 is zero\n"
        "WARNING: state 6 skipped in scan: reference mean for agent 2 is zero\n"
        "WARNING: state 12 skipped in scan: reference mean for agent 2 is zero\n"
        "WARNING: state 18 skipped in scan: reference mean for agent 2 is zero\n"
        "WARNING: state 24 skipped in scan: reference mean for agent 2 is zero\n"
        "WARNING: state 30 skipped in scan: reference mean for agent 2 is zero\n"
    ),
    "scan_own_relmean.table.txt": (
        "WARNING: state 0 skipped in scan: reference mean for agent 3 is zero\n"
    ),
    "scan_lattice_two_thirds.table.txt": (
        "WARNING: state 0 skipped in scan: reference mean for agent 3 is zero\n"
        "WARNING: state 6 skipped in scan: reference mean for agent 2 is zero\n"
        "WARNING: state 7 skipped in scan: reference mean for agent 3 is zero\n"
        "WARNING: state 12 skipped in scan: reference mean for agent 2 is zero\n"
        "WARNING: state 13 skipped in scan: reference mean for agent 3 is zero\n"
        "WARNING: state 17 skipped in scan: reference mean for agent 2 is zero\n"
        "WARNING: state 18 skipped in scan: reference mean for agent 3 is zero\n"
        "WARNING: state 21 skipped in scan: reference mean for agent 2 is zero\n"
        "WARNING: state 22 skipped in scan: reference mean for agent 3 is zero\n"
        "WARNING: state 24 skipped in scan: reference mean for agent 2 is zero\n"
        "WARNING: state 25 skipped in scan: reference mean for agent 3 is zero\n"
        "WARNING: state 26 skipped in scan: reference mean for agent 2 is zero\n"
        "WARNING: state 27 skipped in scan: reference mean for agent 2 is zero\n"
    ),
}


def _run(command, scenario, fmt, extra, out_path):
    return main(
        [
            command,
            "--scenario",
            str(DATA / f"{scenario}.scn"),
            "--format",
            fmt,
            "--output",
            str(out_path),
            *extra,
        ]
    )


@pytest.mark.parametrize(
    "command,scenario,fmt,extra,golden",
    GOLDEN_RUNS,
    ids=[g for *_, g in GOLDEN_RUNS],
)
def test_golden_outputs(tmp_path, command, scenario, fmt, extra, golden):
    out = tmp_path / "out.bin"
    assert _run(command, scenario, fmt, extra, out) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "command,scenario,fmt,extra,golden",
    GOLDEN_RUNS,
    ids=[g for *_, g in GOLDEN_RUNS],
)
def test_golden_runs_write_their_stderr(capsysbinary, command, scenario, fmt, extra, golden):
    # in one process, each run writes its warnings to the stderr of its own call
    args = [command, "--scenario", str(DATA / f"{scenario}.scn"), "--format", fmt, *extra]
    assert main(args) == 0
    out, err = capsysbinary.readouterr()
    assert out == (GOLDEN / golden).read_bytes()
    assert err == GOLDEN_STDERR.get(golden, "").encode()


@pytest.mark.parametrize(
    "command,scenario,extra",
    [
        ("check-move", "check_move_mixed", []),
        ("efficient", "check_move_mixed", ["--state", "7"]),
        ("frontier", "check_move_mixed", []),
        ("scan", "check_move_mixed", []),
        ("welfare", "welfare_weighted_lattice", []),
    ],
)
def test_each_command_resolves_every_transform_once(
    monkeypatch, tmp_path, command, scenario, extra
):
    resolved, reads = [], []
    reading = transforms_module._reading

    def counted(spec, agent, n_agents, dimension):
        resolved.append((spec, agent, n_agents, dimension))
        read = reading(spec, agent, n_agents, dimension)
        if read is None:
            return None
        return lambda holdings, unit: reads.append(agent) or read(holdings, unit)

    monkeypatch.setattr(transforms_module, "_reading", counted)
    assert _run(command, scenario, "csv", extra, tmp_path / "out") == 0
    loaded = load_scenario(DATA / f"{scenario}.scn")
    polity = loaded.polity
    # welfare values default to unit-weighted own aggregates
    specs = {a: WeightedOwn() for a in polity.agents} if command == "welfare" else loaded.transforms
    expected = [(specs[a], a, polity.n_agents, polity.commodity_dim) for a in polity.agents]
    # once per agent, in agent order, however many states the readings read
    assert resolved == expected
    assert len(reads) > len(resolved)


def test_csv_uses_crlf_line_endings(tmp_path):
    out = tmp_path / "o.csv"
    assert _run("scan", "relmean_pair", "csv", [], out) == 0
    data = out.read_bytes()
    assert data.count(b"\r\n") == 2
    assert b"\n" not in data.replace(b"\r\n", b"")


def test_round_trip_determinism(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert _run("frontier", "own_box", "table", [], out) == 0
    assert first.read_bytes() == second.read_bytes()


def test_scan_parallel_output_is_byte_identical(tmp_path):
    for scenario in ("relmean_pair", "relmean_trio", "own_box"):
        outs = []
        for workers in ("1", "4"):
            out = tmp_path / f"{scenario}.{workers}.csv"
            code = main(
                [
                    "scan",
                    "--scenario",
                    str(DATA / f"{scenario}.scn"),
                    "--format",
                    "csv",
                    "--output",
                    str(out),
                    "--parallel",
                    workers,
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_stdout_receives_report_bytes(capsysbinary):
    assert main(["scan", "--scenario", str(DATA / "relmean_pair.scn"), "--format", "csv"]) == 0
    out = capsysbinary.readouterr().out
    assert out == b"states,moves,improvements,efficient_states\r\n9,72,0,9\r\n"


@pytest.mark.parametrize(
    "command,fmt,golden",
    [
        ("frontier", "table", "frontier_check_move_mixed.table.txt"),
        ("scan", "csv", "scan_check_move_mixed.csv"),
    ],
)
def test_degenerate_states_are_warned_in_order(command, fmt, golden):
    # agent 2's reference group is agents 1 and 3, so every state where both
    # hold nothing is degenerate; the warnings follow enumeration order
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "paretoscope.cli",
            command,
            "--scenario",
            str(DATA / "check_move_mixed.scn"),
            "--format",
            fmt,
        ],
        capture_output=True,
    )
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / golden).read_bytes()
    assert result.stderr.decode() == GOLDEN_STDERR[golden]


def test_unwritable_output_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    assert main(
        ["frontier", "--scenario", str(DATA / "own_box.scn"), "--output", str(target)]
    ) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert str(target) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not target.exists()


def test_missing_scenario_file_exits_1(capsys):
    assert main(["scan", "--scenario", "/nonexistent/path.scn"]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_scenario_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("agents = 2\nagents = 3\n")
    assert main(["frontier", "--scenario", str(bad)]) == 1
    assert "duplicate" in capsys.readouterr().err


def test_missing_command_field_exits_1(capsys):
    # own_box.scn declares no discovery section
    assert main(["discover", "--scenario", str(DATA / "own_box.scn")]) == 1
    assert "discover.initial" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, body, field",
    [
        ("discover", "discover.initial = (1,1)\ndiscover.steps = 2\n", "discover.beneficiary"),
        ("discover", "discover.initial = (1,1)\ndiscover.beneficiary = 1\n", "discover.steps"),
        ("welfare", "", "swf"),
    ],
)
def test_each_missing_command_field_is_named(tmp_path, capsys, command, body, field):
    scn = tmp_path / "missing.scn"
    scn.write_text(
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n" + body
    )
    assert main([command, "--scenario", str(scn)]) == 1
    assert capsys.readouterr() == ("", f"error: missing required field: {field}\n")


def test_frontier_of_only_degenerate_states_exits_2(tmp_path, capsys):
    # the one state's reference mean is zero, so no state is left to rank
    scn = tmp_path / "zero.scn"
    scn.write_text(
        "agents = 2\ncommodities = 1\nfeasible.kind = explicit_list\n"
        "feasible.list = (0,0)\ntransform = relative_mean\n"
    )
    assert main(["frontier", "--scenario", str(scn)]) == 2
    assert capsys.readouterr() == (
        "",
        "WARNING: state 0 excluded from frontier: reference mean for agent 1 is zero\n"
        "error: every feasible state has an undefined reference point; frontier is empty\n",
    )


def test_emit_report_refuses_an_unknown_format():
    report = run_command(load_scenario(DATA / "own_box.scn"), "scan")
    with pytest.raises(ValidationError) as caught:
        emit_report(report, "xml")
    assert str(caught.value) == "unknown format 'xml'; expected table or csv"


def test_efficient_without_state_exits_1(capsys):
    assert main(["efficient", "--scenario", str(DATA / "own_box.scn")]) == 1
    assert "missing required field: state" in capsys.readouterr().err


def test_state_out_of_range_exits_1(capsys):
    assert main(
        ["efficient", "--scenario", str(DATA / "own_box.scn"), "--state", "99"]
    ) == 1
    assert "state" in capsys.readouterr().err


def test_state_out_of_range_names_the_range(capsys):
    for state in ("9", "-1"):
        assert main(
            ["efficient", "--scenario", str(DATA / "own_box.scn"), "--state", state]
        ) == 1
        assert f"state id {state} not in 0..8" in capsys.readouterr().err


def test_efficient_on_a_huge_grid_judges_one_state(tmp_path):
    # 8 agents x 10 levels is 10^8 states: the state is unranked, not
    # listed, and under own only its upper cone is searched.  A separate
    # process is killed at the budget, so a regression cannot run on.
    scn = tmp_path / "huge.scn"
    scn.write_text(
        "agents = 8\ncommodities = 1\nfeasible.kind = box_grid\n"
        "feasible.levels = 0,1,2,3,4,5,6,7,8,9\ntransform = own\n"
    )
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "paretoscope.cli",
            "efficient",
            "--scenario",
            str(scn),
            "--state",
            "3",
            "--format",
            "csv",
        ],
        capture_output=True,
        timeout=2.0,
    )
    assert result.returncode == 0
    assert result.stdout.split(b"\r\n")[1] == (
        b'3,"(0,0,0,0,0,0,0,3)",false,"(0,0,0,0,0,0,0,3) -> (0,0,0,0,0,0,0,4)"'
    )


def test_engine_error_exits_2(tmp_path, capsys):
    scn = tmp_path / "degenerate.scn"
    scn.write_text(
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\n"
        "feasible.levels = 0,1\ntransform = relative_mean\n"
    )
    # state 0 is (0,0): the reference mean is zero there
    assert main(["efficient", "--scenario", str(scn), "--state", "0"]) == 2
    assert "reference" in capsys.readouterr().err


_CHECK_MOVE_HEADER = (
    "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1,2\n"
)


@pytest.mark.parametrize(
    "body,code,message",
    [
        # the third move takes agent 1, agent 2's whole reference group, to 0
        (
            "transform.2 = relative_nbhd(1)\n"
            "moves = (1,1) -> (2,1); (1,1) -> (1,2); (1,1) -> (0,2); (2,2) -> (1,1)\n",
            2,
            "reference mean for agent 2 is zero at the to state of the move",
        ),
        # agent 2's weights are checked before the first move's zero reference
        (
            "transform.1 = relative_mean\ntransform.2 = weighted_own(1,2)\n"
            "moves = (0,0) -> (1,0); (1,1) -> (2,1)\n",
            2,
            "2 weights for a 1-commodity bundle",
        ),
        ("transform = own\n", 1, "missing required field: moves"),
    ],
    ids=["zero-reference-at-third-move", "bad-transform-first", "no-moves"],
)
def test_check_move_errors_print_nothing_on_stdout(tmp_path, capsys, body, code, message):
    scn = tmp_path / "moves.scn"
    scn.write_text(_CHECK_MOVE_HEADER + body)
    assert main(["check-move", "--scenario", str(scn)]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "command,scenario,fmt,extra,golden",
    GOLDEN_RUNS,
    ids=[g for *_, g in GOLDEN_RUNS],
)
def test_no_command_makes_an_allocation(monkeypatch, command, scenario, fmt, extra, golden):
    # every command runs on int holdings from the parsed scenario to its
    # rendered rows; an explicit list holds its states as Allocations, so
    # only its scenario is loaded before Allocations are refused
    path = DATA / f"{scenario}.scn"
    explicit = load_scenario(path) if "explicit_list" in path.read_text() else None

    def no_state(*args, **kwargs):
        raise AssertionError("Allocation built")

    monkeypatch.setattr(Allocation, "_raw", no_state)
    monkeypatch.setattr(Allocation, "__init__", no_state)
    loaded = load_scenario(path) if explicit is None else explicit
    report = run_command(loaded, command, state_id=int(extra[1]) if extra else None)
    assert emit_report(report, fmt) == (GOLDEN / golden).read_bytes()


def test_cap_exceeded_exits_3(capsys):
    assert main(
        ["scan", "--scenario", str(DATA / "relmean_pair.scn"), "--cap", "10"]
    ) == 3
    err = capsys.readouterr().err
    assert "cap is 10" in err


def test_scenario_cap_key_respected_and_flag_overrides(tmp_path, capsys):
    scn = tmp_path / "capped.scn"
    scn.write_text(
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\n"
        "feasible.levels = 1,2,3\ntransform = relative_mean\nscan.cap = 10\n"
    )
    assert main(["scan", "--scenario", str(scn), "--format", "csv",
                 "--output", str(tmp_path / "x")]) == 3
    capsys.readouterr()
    assert main(["scan", "--scenario", str(scn), "--format", "csv",
                 "--output", str(tmp_path / "y"), "--cap", "100"]) == 0


def test_bad_arguments_exit_1(capsys):
    assert main(["scan"]) == 1
    capsys.readouterr()
    assert main(["not-a-command", "--scenario", "x"]) == 1
    capsys.readouterr()
    assert main(
        ["scan", "--scenario", str(DATA / "own_box.scn"), "--format", "xml"]
    ) == 1


@pytest.mark.parametrize(
    "flag,value", [("--parallel", "0"), ("--parallel", "-5"), ("--cap", "-1")]
)
def test_bad_scan_flag_values_exit_1(capsys, flag, value):
    assert main(["scan", "--scenario", str(DATA / "own_box.scn"), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert flag in err


# Flag texts that int() reads but the scenario's count grammar refuses:
# ASCII digits after at most one leading "-".  Each exits 1 with argparse's
# message for a text that is not an int, and nothing on stdout.
FLAG_ERRORS = [
    ("efficient", "own_box", "--state", "0_3", "argument --state: invalid int value: '0_3'"),
    ("efficient", "own_box", "--state", "\u0663", "argument --state: invalid int value: '\u0663'"),
    ("efficient", "own_box", "--state", "\uff13", "argument --state: invalid int value: '\uff13'"),
    ("efficient", "own_box", "--state", "+3", "argument --state: invalid int value: '+3'"),
    ("efficient", "own_box", "--state", " 3", "argument --state: invalid int value: ' 3'"),
    ("efficient", "own_box", "--state", "3 ", "argument --state: invalid int value: '3 '"),
    ("scan", "own_box", "--cap", "\u0662", "argument --cap: invalid int value: '\u0662'"),
    ("scan", "own_box", "--cap", "1_0", "argument --cap: invalid int value: '1_0'"),
    ("scan", "own_box", "--cap", "+5", "argument --cap: invalid int value: '+5'"),
    ("scan", "own_box", "--parallel", "+2", "argument --parallel: invalid int value: '+2'"),
    ("scan", "own_box", "--parallel", "\u0662", "argument --parallel: invalid int value: '\u0662'"),
    ("scan", "own_box", "--parallel", " 2", "argument --parallel: invalid int value: ' 2'"),
    ("scan", "own_box", "--parallel", "1_0", "argument --parallel: invalid int value: '1_0'"),
]


@pytest.mark.parametrize(
    "command,scenario,flag,text,message", FLAG_ERRORS, ids=[m for *_, m in FLAG_ERRORS]
)
def test_flag_texts_outside_the_count_grammar_exit_1(
    capsys, command, scenario, flag, text, message
):
    assert main([command, "--scenario", str(DATA / f"{scenario}.scn"), flag, text]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_run_command_refuses_an_unknown_command():
    with pytest.raises(ValidationError, match="^unknown command 'nope'$"):
        run_command(load_scenario(DATA / "own_box.scn"), "nope")


@pytest.mark.parametrize(
    "command,flag",
    [("frontier", ["--state", "1"]), ("efficient", ["--cap", "5"]), ("welfare", ["--parallel", "2"])],
)
def test_a_flag_of_another_command_exits_1(capsys, command, flag):
    assert main([command, "--scenario", str(DATA / "own_box.scn"), *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {' '.join(flag)}\n"


# Each command and its help string, in the order --help lists them, with
# the flags and flag help strings only that command takes.
_COMMAND_HELP = [
    ("check-move", "check the scenario's moves", {}),
    ("efficient", "check one state for efficiency", {
        "--state": "state id (enumeration index) to check",
    }),
    ("frontier", "classify every feasible state", {}),
    ("scan", "evaluate every ordered move", {
        "--parallel": "accepted for compatibility and ignored; N must be at least 1",
        "--cap": "move-count cap override",
    }),
    ("discover", "run the accumulation simulation", {}),
    ("welfare", "rank feasible states by welfare", {}),
]


def _help_text(capsys, argv) -> str:
    # whitespace is normalised: argparse's layout differs across versions
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return " ".join(captured.out.split())


def test_help_lists_the_commands_in_order(capsys):
    text = _help_text(capsys, ["--help"])
    names = [name for name, _, _ in _COMMAND_HELP]
    assert "{" + ",".join(names) + "}" in text
    at = [text.index(f" {name} {help_string}") for name, help_string, _ in _COMMAND_HELP]
    assert at == sorted(at)


@pytest.mark.parametrize("command,flags", [(c, f) for c, _, f in _COMMAND_HELP])
def test_command_help_lists_exactly_its_flags(capsys, command, flags):
    text = _help_text(capsys, [command, "--help"])
    common = {"--help", "--scenario", "--format", "--output"}
    assert set(re.findall(r"--[a-z]+", text)) == common | set(flags)
    for help_string in flags.values():
        assert help_string in text


def test_scan_help_names_the_parallel_value_n(capsys):
    # the value is named N, as its help string says
    assert "[--parallel N]" in _help_text(capsys, ["scan", "--help"])


def test_module_entry_point_runs():
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "paretoscope.cli",
            "scan",
            "--scenario",
            str(DATA / "relmean_trio.scn"),
            "--format",
            "csv",
        ],
        capture_output=True,
    )
    assert result.returncode == 0
    assert result.stdout == b"states,moves,improvements,efficient_states\r\n8,56,0,8\r\n"
