"""Spans around calls into paretoscope's public functions.

The tracer is installed from outside the package: ``Tracer.install`` rebinds
each traced function, in every loaded ``paretoscope`` module that holds it,
to a wrapper that opens a span on entry and closes it on return.  Calls made
through the public names are therefore timed and counted without editing the
package; calls to private helpers are timed as part of their caller.

High-frequency spans (hundreds of thousands of transform evaluations per
frontier) are folded into per-name totals as they close.  Only the root span
and its direct children are kept whole, with their parent, for the trace
file.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# Layer (module) -> public functions traced in it.
TRACED = {
    "scenario": ("load_scenario",),
    "polity": ("enumerate_feasible",),
    "transforms": ("evaluate_transform",),
    "engine": (
        "check_improvement",
        "check_improvement_neoclassical",
        "check_improvement_ratio_form",
        "is_pareto_efficient",
        "enumerate_frontier",
        "scan_all_moves",
    ),
    "discovery": ("simulate_discovery",),
    "welfare": ("welfare_rank",),
    "report": ("render_allocation", "render_move", "render_bool", "emit_report"),
}

# Functions whose time is summed as one: render_move calls render_allocation,
# and that inner time is counted once.
_GROUP = {name: "render" for name in ("render_allocation", "render_move", "render_bool")}

# Spans whose process CPU time is recorded as well as wall time.
_CPU_TIMED = ("scan_all_moves",)

# Spans at this depth or deeper (the root is depth 0) are only totalled.
_FOLDED_DEPTH = 2


class Tracer:
    """Collects spans for one process; ``summary()`` returns them as plain data."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [id, name, group, start, child_seconds]
        self.open_groups: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)  # by group, outermost calls
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.cpu_seconds: dict[str, float] = defaultdict(float)
        self.yielded: dict[str, int] = defaultdict(int)
        self.evaluated: set = set()  # distinct (state index, agent) pairs
        # Allocations are immutable, so each object's state index is looked
        # up by value once and then by id; keeping the objects alive keeps
        # their ids unique.
        self._state_index: dict = {}
        self._index_by_id: dict[int, int] = {}
        self._alive: list = []
        self.spans: list[tuple] = []
        self._next_id = 0

    def _enter(self, name: str) -> None:
        group = _GROUP.get(name, name)
        self.open_groups[group] += 1
        self._next_id += 1
        self.stack.append([self._next_id, name, group, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, group, start, child = self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_seconds[name] += duration - child
        self.open_groups[group] -= 1
        if not self.open_groups[group]:
            self.seconds[group] += duration
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[4] += duration
        if len(self.stack) < _FOLDED_DEPTH:
            self.spans.append((span_id, parent[0] if parent else None, name, start, end))

    def wrap(self, name: str, fn):
        """A wrapper that records one span per call of ``fn``.

        For a generator function, each step of the iterator is one span, so
        time spent by the consumer between steps is not counted.
        """
        enter, exit_ = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    enter(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    self.yielded[name] += 1
                    yield item
            return traced_generator

        if name == "evaluate_transform":
            def traced_evaluation(spec, allocation, agent):
                index = self._index_by_id.get(id(allocation))
                if index is None:
                    index = self._state_index.setdefault(allocation, len(self._state_index))
                    self._index_by_id[id(allocation)] = index
                    self._alive.append(allocation)
                self.evaluated.add((index, agent))
                enter(name)
                try:
                    return fn(spec, allocation, agent)
                finally:
                    exit_()
            return traced_evaluation

        if name in _CPU_TIMED:
            def traced_cpu(*args, **kwargs):
                cpu = time.process_time()
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
                    self.cpu_seconds[name] += time.process_time() - cpu
            return traced_cpu

        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded paretoscope module."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "paretoscope"]
        for layer, names in TRACED.items():
            home = sys.modules[f"paretoscope.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "cpu_seconds": dict(self.cpu_seconds),
            "yielded": dict(self.yielded),
            "distinct_evaluations": len(self.evaluated),
            "spans": self.spans,
        }
