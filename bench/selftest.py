"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q bench/selftest.py

Smoke-runs every workload at a tiny size, traced and untraced, and shows
that each checker rejects a corrupted output.
"""

from __future__ import annotations

import filecmp
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


@pytest.fixture
def scratch(request):
    """A fresh directory under bench/work, removed after the test."""
    path = run.BENCH / "work" / "selftest" / request.node.name.replace("/", "_")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_is_correct(workload, trace):
    record = run.run_workload(workload, seed=7, seconds=0, trace=trace, tiny=True)
    result = record["result"]
    assert record["errors"] == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(record["commands"]) * len(record["rounds"])
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert metric["value"] >= 0
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in run.END_TO_END)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_depend_only_on_seed(workload, scratch):
    first = inputs.build(workload, 11, scratch / "a")
    again = inputs.build(workload, 11, scratch / "b")
    other = inputs.build(workload, 12, scratch / "c")
    for a, b in zip(first.scenarios, again.scenarios):
        assert filecmp.cmp(a, b, shallow=False)
    assert [c.pairs for c in first.commands] == [c.pairs for c in other.commands]


def _rows(lines: list[str]) -> range:
    rule = next(i for i, line in enumerate(lines) if line and set(line) <= {"-", " "})
    end = lines.index("", rule)
    return range(rule + 1, end)


def flip_verdict(text: str) -> str:
    """Flip the last true/false cell of the first data row, or bump a count."""
    lines = text.split("\n")
    row = _rows(lines)[0]
    line = lines[row]
    for old, new in (("true", "false"), ("false", "true")):
        at = line.rfind(old)
        if at >= 0:
            lines[row] = line[:at] + new + line[at + len(old):]
            return "\n".join(lines)
    cells = line.split("  ")
    cells[-1] = str(int(cells[-1]) + 1)
    lines[row] = "  ".join(cells)
    return "\n".join(lines)


def drop_row(text: str) -> str:
    lines = text.split("\n")
    del lines[_rows(lines)[-1]]
    return "\n".join(lines)


@pytest.mark.parametrize("corrupt", [flip_verdict, drop_row])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_checker_rejects_corrupted_output(workload, corrupt, scratch):
    spec = inputs.build(workload, 5, scratch / "inputs", tiny=True)
    for command in spec.commands:
        result, output = run.run_command(
            command, trace=False, work=scratch, deadline=time.perf_counter() + 60
        )
        assert result is not None, command.argv
        text = output.decode("utf-8")
        command.check(text)
        with pytest.raises(checks.CheckFailed):
            command.check(corrupt(text))


def test_run_fails_without_the_sources(scratch):
    shutil.copytree(run.BENCH, scratch / run.BENCH.name, ignore=shutil.ignore_patterns(
        "work", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "scan-own", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
