"""Outside-in span tracing: wrap public functions of each ``repro`` layer.

The program has no tracing of its own at these boundaries, so the
benchmark installs wrappers from its own files around the public
functions named in :data:`TIMED` and :data:`COUNTED`.  Every wrapped
call is a span; a span's *self time* is its duration minus the time its
child spans cover, so self times partition the covered wall clock and
nothing is counted twice.

Spans live in memory.  Coarse spans (a few thousand per run) are kept
as records (id, parent id, layer, start, end); hot leaf spans only feed
per-layer aggregates (calls, total, self), because recording each of
their ~10^5-10^6 calls would cost more memory than the run itself.
:meth:`Tracer.dump` writes both out once, when the run ends.

Wrappers are installed only for the traced run and removed afterwards.
They are also removed while a process pool starts (see
:meth:`Tracer.untraced`), so forked workers run unwrapped code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

# (layer, module, owner, attribute, keep span records).  ``owner`` is
# a class name, or None for a module-level function.
TIMED = (
    ("workloads.trajectory", "repro.workloads.trajectories", "TaxiTrajectoryGenerator", "trajectory", False),
    ("workloads.build", "repro.workloads.streaming", None, "build_stream_events", True),
    ("workloads.build", "repro.workloads.scenario", None, "build_scenario", True),
    ("stream.step_epoch", "repro.stream.online_server", "StreamingTCSCServer", "step_epoch", True),
    ("stream.finish", "repro.stream.online_server", "StreamingTCSCServer", "finish", True),
    ("stream.session_step", "repro.stream.session", "TaskSession", "step", True),
    ("tree_index.build", "repro.core.tree_index", "TreeIndex", "__init__", True),
    ("tree_index.refresh_slots", "repro.core.tree_index", "TreeIndex", "refresh_slots", True),
    ("tree_index.refresh_range", "repro.core.tree_index", "TreeIndex", "refresh_range", False),
    ("tree_index.find_best", "repro.core.tree_index", "TreeIndex", "find_best", False),
    ("evaluator.gain", "repro.core.evaluator", "TemporalQualityEvaluator", "gain_if_executed", False),
    ("evaluator.execute", "repro.core.evaluator", "TemporalQualityEvaluator", "execute", False),
    ("greedy.solve", "repro.core.greedy", "SingleTaskGreedy", "solve", True),
    ("costs.table_build", "repro.engine.costs", "SingleTaskCostTable", "__init__", True),
    ("registry.nearest", "repro.engine.registry", "WorkerRegistry", "nearest_available", False),
    ("assignment.add", "repro.model.assignment", "Assignment", "add", False),
    ("serving.assign", "repro.shard.server", "SequentialServingSolver", "assign", True),
    ("shard.run", "repro.shard.streaming", "ShardedStreamingServer", "run", True),
    ("shard.route", "repro.shard.streaming", "ShardedStreamingServer", "route", True),
    ("par.encode", "repro.par.work", None, "encode_stream_unit", True),
    ("par.decode", "repro.par.work", None, "decode_stream_result", True),
    ("par.map_units", "repro.par.executor", "Executor", "map_units", True),
    ("snapshot.restore", "repro.journal.snapshot", None, "restore_server_state", True),
    ("realization.simulate", "repro.engine.realization", None, "simulate_execution", True),
)

# Paint-tree primitives: ~10^6 calls per stream run, so count only.
COUNTED = (
    ("range_tree.add", "repro.util.range_tree", "RangeAddMaxTree", "add"),
    ("range_tree.max_in", "repro.util.range_tree", "RangeAddMaxTree", "max_in"),
)


# Modules that import a wrapped module-level function by name; they
# must be loaded before the tracer looks for those bindings.
PRELOAD = ("repro", "repro.par.stream", "repro.runtime.factory", "cases")


class Tracer:
    """In-memory span recorder over wrapped ``repro`` functions."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # layer -> [calls, total_s, self_s]
        self.layers: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        # (span id, parent span id, layer, start_s, end_s), times
        # relative to the tracer's creation.
        self.spans: list[tuple] = []
        # One frame per open span: [child_time_s, span id, parent span
        # id].  Unkept spans take their parent's id, so a kept span's
        # parent is its nearest kept ancestor.  The root frame collects
        # the duration of top-level spans.
        self._stack: list[list] = [[0.0, 0, 0]]
        self._next_id = 1
        self._t0 = time.perf_counter()
        self._patches: list[tuple] = []
        self._installed = False
        # Every shipped shard payload and its worker result, in order,
        # for the inline single-threaded replay.
        self.unit_payloads: list[str] = []
        self.unit_results: list[str] = []
        self._build_patches()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, layer: str):
        """A span around a block of the benchmark's own code."""
        frame, start = self._enter(True)
        try:
            yield
        finally:
            self._exit(layer, frame, start, True)

    def _enter(self, keep: bool):
        parent_id = self._stack[-1][1]
        if keep:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent_id
        frame = [0.0, span_id, parent_id]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, layer: str, frame: list, start: float, keep: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        self._stack[-1][0] += duration
        stat = self.layers.get(layer)
        if stat is None:
            stat = self.layers[layer] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[0]
        if keep:
            self.spans.append(
                (frame[1], frame[2], layer, start - self._t0, end - self._t0)
            )

    def _timed(self, layer: str, fn, keep: bool):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, start = enter(keep)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(layer, frame, start, keep)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def _build_patches(self) -> None:
        for module_name in PRELOAD:
            importlib.import_module(module_name)
        for layer, module_name, owner, attr, keep in TIMED:
            original, sites = _locate(module_name, owner, attr)
            if layer == "par.map_units":
                wrapper = self._pool_guard(original)
            else:
                wrapper = self._timed(layer, original, keep)
            if layer == "par.encode":
                wrapper = _capture(wrapper, self.unit_payloads)
            self._patches.append((original, wrapper, sites))
        for name, module_name, owner, attr in COUNTED:
            original, sites = _locate(module_name, owner, attr)
            self._patches.append((original, self._counted(name, original), sites))

    def _pool_guard(self, original):
        def call(executor, fn, payloads):
            # The pool forks inside map_units: unwrap first so workers
            # run the untraced code, and the span measures exactly what
            # an untraced parent waits for.
            with self.untraced():
                return original(executor, fn, payloads)

        return _capture(self._timed("par.map_units", call, True), self.unit_results, many=True)

    def install(self) -> None:
        for _, wrapper, sites in self._patches:
            for target, attr, _ in sites:
                setattr(target, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for original, _, sites in self._patches:
            for target, attr, own in sites:
                if own:
                    setattr(target, attr, original)
                else:
                    delattr(target, attr)
        self._installed = False

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def untraced(self):
        """Run a block with every wrapper removed (restored after)."""
        was = self._installed
        if was:
            self.uninstall()
        try:
            yield
        finally:
            if was:
                self.install()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def self_s(self, layer: str) -> float:
        return self.layers.get(layer, [0, 0.0, 0.0])[2]

    def calls(self, layer: str) -> int:
        return self.layers.get(layer, [0, 0.0, 0.0])[0]

    def attributed_s(self) -> float:
        """Wall clock covered by top-level spans (= sum of self times)."""
        return self._stack[0][0]

    def dump(self, path) -> None:
        """Write every kept span and the per-layer aggregates once."""
        payload = {
            "run_id": self.run_id,
            "layers": {
                layer: {"calls": c, "total_s": t, "self_s": s}
                for layer, (c, t, s) in sorted(self.layers.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "spans": [
                {"id": i, "parent": p, "layer": layer, "run": self.run_id,
                 "start_s": a, "end_s": b}
                for i, p, layer, a, b in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _locate(module_name: str, owner, attr: str):
    """The function to wrap and every ``(target, attr, own)`` site that
    binds it; ``own`` is False for a method a class only inherits."""
    module = importlib.import_module(module_name)
    if owner is not None:
        cls = getattr(module, owner)
        return getattr(cls, attr), [(cls, attr, attr in cls.__dict__)]
    original = getattr(module, attr)
    # ``from x import f`` copies bind the function into other modules
    # (this benchmark's own included): rebind every copy.
    sites = [
        (mod, attr, True) for _, mod in sorted(sys.modules.items())
        if mod is not None and vars(mod).get(attr) is original
    ]
    return original, sites


def _capture(fn, sink: list, many: bool = False):
    """Wrap ``fn`` so its return value (or values) also land in ``sink``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if many:
            sink.extend(out)
        else:
            sink.append(out)
        return out

    return wrapper
