"""Benchmark for paretoscope: four workloads run through the real CLI.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Load model: a closed loop of one command at a time from this process.  Each
command is ``paretoscope.cli.main`` in a fresh interpreter (``child.py``), as
a shell user's invocation is, so no module-level cache carries over from one
command to the next.  A round runs every command of the workload once; whole
rounds repeat while the next one is expected to end within ``--seconds``.
Every metric but ``setup_s`` is its mean over the run's rounds; ``setup_s`` is
the median of several set-ups spread over the run.  The first output of every command is checked
against an independent computation (``checks.py``); later rounds must print
the same bytes.

With ``--trace 0`` the last stdout line is the end-to-end result, with
``--trace 1`` the per-layer result from spans recorded around the package's
public functions (``tracer.py``).  Every run also writes its result, with the
per-round values, to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

END_TO_END = {"wall_s": "s", "pairs_per_s": "pairs/s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "scenario.load_s": "s",
    "polity.enumerate_s": "s",
    "polity.states_enumerated": "count",
    "transforms.evaluate_s": "s",
    "transforms.evaluations": "count",
    "transforms.useful_eval_ratio": "ratio",
    "engine.check_improvement_calls": "count",
    "engine.frontier_s": "s",
    "engine.scan_s": "s",
    "engine.scan_cpu_per_wall": "ratio",
    "engine.efficient_s": "s",
    "discovery.simulate_s": "s",
    "welfare.rank_s": "s",
    "engine.check_definitional_s": "s",
    "engine.check_neoclassical_s": "s",
    "engine.check_ratio_form_s": "s",
    "report.render_s": "s",
    "report.emit_s": "s",
    "cli.self_s": "s",
    "cli.main_s": "s",
}

SETUP_REPEATS = 3
# Every child is killed by then, so that a run exits within 180 s.
RUN_DEADLINE_S = 170


def _child(args: list[str], deadline: float, stdout=None, stderr=None) -> tuple[int | None, float]:
    """Run ``child.py args``; return its exit code (None on timeout) and wall time.

    The child is killed at ``deadline`` (a ``time.perf_counter`` value).  The
    wait is on a pidfd, which wakes the moment the child exits; ``subprocess``
    with a timeout polls instead, at up to 50 ms intervals, which would
    quantise a 0.1 s set-up time.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args], cwd=ROOT, stdout=stdout, stderr=stderr
    )
    pidfd = os.pidfd_open(proc.pid)
    try:
        exited = select.select([pidfd], [], [], max(0.0, deadline - start))[0]
        seconds = time.perf_counter() - start
    finally:
        os.close(pidfd)
        if not exited:
            proc.kill()
        proc.wait()
    return (proc.returncode if exited else None), seconds


def time_setup(scenarios, deadline: float) -> float:
    """Seconds for a fresh interpreter to import paretoscope and load the files."""
    code, seconds = _child(["setup", *(str(p) for p in scenarios)], deadline)
    if code != 0:
        raise RuntimeError(f"set-up of {[str(p) for p in scenarios]} exited with {code}")
    return seconds


def run_command(
    command: inputs.Command, trace: bool, work: Path, deadline: float
) -> tuple[dict | None, bytes]:
    """Run one CLI command in a fresh interpreter; return its result and stdout.

    The result is None when the command failed: a non-zero exit, a crash or
    a timeout.
    """
    result_path, out_path = work / "result.json", work / "stdout.txt"
    result_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(work / "stderr.txt", "wb") as err:
        code, _ = _child(
            ["run", str(result_path), "1" if trace else "0", "--", *command.argv],
            deadline,
            stdout=out,
            stderr=err,
        )
    if code != 0 or not result_path.exists():
        return None, b""
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["exit"] != 0:
        return None, b""
    return result, out_path.read_bytes()


def layer_values(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one round, from the span summaries of its commands."""
    calls, seconds, self_s, cpu, yielded = Counter(), Counter(), Counter(), Counter(), Counter()
    distinct = 0
    for trace in traces:
        calls.update(trace["calls"])
        seconds.update(trace["seconds"])
        self_s.update(trace["self_seconds"])
        cpu.update(trace["cpu_seconds"])
        yielded.update(trace["yielded"])
        distinct += trace["distinct_evaluations"]
    evaluations = calls["evaluate_transform"]
    scan_s = seconds["scan_all_moves"]
    return {
        "scenario.load_s": seconds["load_scenario"],
        "polity.enumerate_s": seconds["enumerate_feasible"],
        "polity.states_enumerated": yielded["enumerate_feasible"],
        "transforms.evaluate_s": seconds["evaluate_transform"],
        "transforms.evaluations": evaluations,
        "transforms.useful_eval_ratio": distinct / evaluations if evaluations else 0.0,
        "engine.check_improvement_calls": calls["check_improvement"],
        "engine.frontier_s": seconds["enumerate_frontier"],
        "engine.scan_s": scan_s,
        "engine.scan_cpu_per_wall": cpu["scan_all_moves"] / scan_s if scan_s else 0.0,
        "engine.efficient_s": seconds["is_pareto_efficient"],
        "discovery.simulate_s": seconds["simulate_discovery"],
        "welfare.rank_s": seconds["welfare_rank"],
        "engine.check_definitional_s": seconds["check_improvement"],
        "engine.check_neoclassical_s": seconds["check_improvement_neoclassical"],
        "engine.check_ratio_form_s": seconds["check_improvement_ratio_form"],
        "report.render_s": seconds["render"],
        "report.emit_s": seconds["emit_report"],
        "cli.self_s": self_s["main"],
        "cli.main_s": seconds["main"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run ``name`` for ``seconds`` and return the result object with raw values."""
    work = BENCH / "work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run_workload(name, seed, seconds, trace, tiny, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name, seed, seconds, trace, tiny, work: Path) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    spec = inputs.build(name, seed, work / "inputs", tiny)
    setup: list[float] = []
    if not trace:
        # An untimed first set-up, so that every timed one finds compiled
        # bytecode, as a user's second invocation does.
        time_setup(spec.scenarios, deadline)
        setup = [time_setup(spec.scenarios, deadline) for _ in range(SETUP_REPEATS)]
    pairs = sum(c.pairs for c in spec.commands)
    verified: dict[int, bytes] = {}
    errors: list[str] = []
    attempted = failed = 0
    rounds: list[dict[str, float]] = []
    spans = None
    longest_round = 0.0
    while True:
        round_start = time.perf_counter()
        if not trace:
            # One more set-up per round spreads the samples over the run as
            # the rounds are, since a shared host's speed drifts over minutes.
            setup.append(time_setup(spec.scenarios, deadline))
        results = []
        for idx, command in enumerate(spec.commands):
            attempted += 1
            result, output = run_command(command, trace, work, deadline)
            if result is None:
                failed += 1
                continue
            results.append(result)
            if idx not in verified:
                try:
                    command.check(output.decode("utf-8"))
                except (checks.CheckFailed, UnicodeDecodeError) as exc:
                    errors.append(f"paretoscope {' '.join(command.argv)}: {exc}")
                verified[idx] = output
            elif output != verified[idx]:
                errors.append(f"paretoscope {' '.join(command.argv)}: output changed")
        if trace:
            traces = [r["trace"] for r in results]
            rounds.append(layer_values(traces))
            if spans is None:
                spans = [t["spans"] for t in traces]
        else:
            rounds.append(
                {
                    "wall_s": sum(r["main_s"] for r in results),
                    "peak_rss_mib": max((r["maxrss_kib"] for r in results), default=0) / 1024,
                }
            )
        # Whole rounds only, and none expected to end after ``seconds``.
        now = time.perf_counter()
        longest_round = max(longest_round, now - round_start)
        if now + longest_round > start + seconds:
            break

    # The mean over rounds, that is the run's total divided by its rounds.  On
    # a shared host the CPU's speed switches between a fast and a slow state
    # within seconds, so round times are bimodal: their median jumps between
    # the two modes, where their mean moves with the share of time in each.
    def mean(metric: str) -> float:
        return statistics.mean(r[metric] for r in rounds)

    if trace:
        units = PER_LAYER
        metrics = {metric: mean(metric) for metric in PER_LAYER}
    else:
        units = END_TO_END
        wall = mean("wall_s")
        metrics = {
            "wall_s": wall,
            "pairs_per_s": pairs / wall if wall else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": mean("peak_rss_mib"),
        }
    return {
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                metric: {"value": round(value) if units[metric] == "count" else float(value),
                         "unit": units[metric]}
                for metric, value in metrics.items()
            },
        },
        "workload": name,
        "seed": seed,
        "trace": trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commands": [" ".join(c.argv) for c in spec.commands],
        "errors": errors,
        "rounds": rounds,
        "setup_s": setup,
        "spans": spans,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="paretoscope benchmark")
    parser.add_argument("--workload", default="all", choices=("all", *inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "paretoscope" / "cli.py").is_file():
        print(f"error: no paretoscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        out = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        result = record["result"]
        for error in record["errors"]:
            print(f"{name}: CHECK FAILED: {error}", file=sys.stderr)
        metrics = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(
            f"{name}: {len(record['rounds'])} rounds, {result['attempted']} commands, "
            f"{result['failed']} failed: {metrics}",
            file=sys.stderr,
        )
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
