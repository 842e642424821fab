"""The observability subsystem: watch everything, touch nothing.

Three layers of contract.  Unit level: the metrics primitives
(counters, gauges, log2 histograms with exact nearest-rank
percentiles) and the trace recorder's framed JSONL round trip,
including the WAL-style torn-tail tolerance.  Seam level: phase spans
read op counters without incrementing them, ``ProfiledLayer`` wraps
any serving layer while staying discoverable through ``.inner``, and
the telemetry layer's records land in deterministic order.  End to
end: a telemetered run is byte-identical to a bare run (plan, op
counters, stream metrics), repeat runs produce byte-identical traces
once ``timing`` is masked (a seeded hypothesis property), and the CLI
round trip ``simulate --telemetry --trace-out`` -> ``trace-report``
renders phase timings and latency histograms from the file alone.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.core.instrumentation import OpCounters
from repro.errors import ConfigurationError, SpecError
from repro.obs import (
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    PhaseProfiler,
    ProfiledLayer,
    Telemetry,
    TraceRecorder,
    mask_timing,
    masked_trace_bytes,
    read_trace,
)
from repro.obs.report import render_trace_report, summarize
from repro.runtime import RunSpec, WorkloadSpec, build_runtime

STREAM_SPEC = RunSpec(
    mode="stream",
    workload=WorkloadSpec(
        horizon=10, task_rate=0.3, task_slots=8, initial_workers=12,
        join_rate=0.8, mean_lifetime=12.0, seed=9,
    ),
    k=2, epoch_length=3.0, budget_fraction=0.6,
    max_active_tasks=4, max_queue_depth=8, snapshot_every=2,
)

PLAIN_SPEC = RunSpec(
    mode="plain",
    workload=WorkloadSpec(tasks=6, slots=12, workers=150, seed=13),
)


class TestLogHistogram:
    def test_log2_bucketing(self):
        h = LogHistogram("x")
        h.observe(3.0)      # floor(log2 3) = 1 -> [2, 4)
        h.observe(2.0)      # exactly 2**1 -> same bucket
        h.observe(5.0)      # floor(log2 5) = 2 -> [4, 8)
        assert h.buckets == {1: 2, 2: 1}
        assert h.count == 3

    def test_nonpositive_goes_to_zero_bucket(self):
        h = LogHistogram("x")
        h.observe(0.0)
        h.observe(-3.0)
        assert h.zero_count == 2
        assert h.buckets == {}
        assert h.percentile(50) == 0.0

    def test_percentiles_are_exact_bucket_upper_edges(self):
        h = LogHistogram("x")
        for value in [1.0, 1.5, 3.0, 3.5, 100.0]:
            h.observe(value)
        # ranks: p50 -> 3rd of 5 -> bucket 1 (upper edge 4),
        # p99 -> 5th -> bucket 6 ([64, 128), upper edge 128).
        assert h.percentile(50) == 4.0
        assert h.percentile(99) == 128.0

    def test_empty_histogram_answers_zero(self):
        assert LogHistogram("x").percentile(95) == 0.0

    def test_render_and_to_dict(self):
        h = LogHistogram("lat")
        h.observe(0)
        h.observe(10.0)
        assert "n=2" in h.render()
        payload = h.to_dict()
        assert payload["kind"] == "histogram"
        assert payload["zero"] == 1
        assert payload["buckets"] == {"3": 1}

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(1e-6, 1e9, allow_nan=False), min_size=1),
           st.floats(0.0, 100.0, allow_nan=False))
    def test_percentile_is_an_upper_bound(self, values, q):
        """The nearest-rank answer is a true upper bound for at least
        the covered fraction of observations, and monotone in q."""
        h = LogHistogram("x")
        for value in values:
            h.observe(value)
        assert h.percentile(100) >= max(values)
        assert h.percentile(q) <= h.percentile(100)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1e9, allow_nan=False), max_size=8),
        st.sampled_from([
            float("nan"), float("inf"), float("-inf"), -float("nan"),
        ]),
    )
    def test_non_finite_rejected_without_state_change(self, prefix, bad):
        """nan/inf raise typed ConfigurationError *before* any state
        mutates: count, buckets, and the zero bucket are exactly what
        they were, so later percentiles stay exact."""
        h = LogHistogram("x")
        for value in prefix:
            h.observe(value)
        before = (h.count, h.zero_count, dict(h.buckets))
        with pytest.raises(ConfigurationError):
            h.observe(bad)
        assert (h.count, h.zero_count, dict(h.buckets)) == before

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-1e9, 0.0, allow_nan=False))
    def test_any_nonpositive_lands_in_zero_bucket(self, value):
        h = LogHistogram("x")
        h.observe(value)
        assert h.zero_count == 1
        assert h.buckets == {}
        assert h.percentile(99) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-6, 1e9, allow_nan=False),
           st.floats(0.0, 100.0, allow_nan=False))
    def test_single_observation_every_percentile_is_its_edge(self, v, q):
        """n=1: nearest rank is always rank 1, so every percentile —
        including q=0 — answers the one observation's bucket edge."""
        import math
        h = LogHistogram("x")
        h.observe(v)
        assert h.percentile(q) == 2.0 ** (math.floor(math.log2(v)) + 1)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-6, 1e9, allow_nan=False),
           st.floats(1e-6, 1e9, allow_nan=False))
    def test_two_observations_nearest_rank_split(self, a, b):
        """n=2: ceil(q/100 * 2) puts q <= 50 on rank 1 (the lower
        bucket edge) and q > 50 on rank 2 (the upper one); q=0 clamps
        to rank 1."""
        import math
        lo, hi = sorted([a, b])
        edge = lambda v: 2.0 ** (math.floor(math.log2(v)) + 1)
        h = LogHistogram("x")
        h.observe(a)
        h.observe(b)
        assert h.percentile(0) == edge(lo)
        assert h.percentile(50) == edge(lo)
        assert h.percentile(50.0001) == edge(hi)
        assert h.percentile(100) == edge(hi)


class TestCountersAndRegistry:
    def test_counter_monotone(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_gauge_last_value_wins(self):
        g = Gauge("active")
        g.set(3)
        g.set(7)
        assert g.value == 7
        assert g.updates == 2

    def test_registry_creates_on_first_touch(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        assert registry.counter("a").value == 1
        assert "a" in registry
        assert len(registry) == 1

    def test_registry_rejects_kind_collision(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError, match="counter"):
            registry.histogram("x")

    def test_timing_metrics_excluded_from_deterministic_view(self):
        registry = MetricsRegistry()
        registry.counter("work").inc()
        registry.histogram("wall_ms", timing=True).observe(1.25)
        full = registry.to_dict()
        deterministic = registry.to_dict(include_timing=False)
        assert set(full) == {"work", "wall_ms"}
        assert set(deterministic) == {"work"}

    def test_render_lines_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        lines = registry.render_lines()
        assert lines[0].startswith("a") and lines[1].startswith("b")


class TestTraceRecorder:
    def test_monotonic_seq_and_counts(self):
        recorder = TraceRecorder()
        recorder.record("open", format=1)
        recorder.record("solve", task_id=0)
        recorder.record("solve", task_id=1)
        assert [r["seq"] for r in recorder.records] == [0, 1, 2]
        assert recorder.counts() == {"open": 1, "solve": 2}

    def test_write_through_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = TraceRecorder(path)
        recorder.record("open", format=1)
        recorder.record("solve", task_id=3, timing={"wall_s": 0.25})
        recorder.close()
        assert read_trace(path) == recorder.records

    def test_torn_final_record_tolerated(self, tmp_path):
        """A crash mid-record leaves a readable prefix, like the WAL."""
        path = tmp_path / "t.jsonl"
        recorder = TraceRecorder(path)
        recorder.record("open", format=1)
        recorder.record("solve", task_id=0)
        recorder.close()
        with open(path, "ab") as fh:
            fh.write(b'deadbeef {"type": "torn"')  # no newline, bad CRC
        assert read_trace(path) == recorder.records

    def test_mid_file_damage_raises_typed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = TraceRecorder(path)
        for i in range(3):
            recorder.record("solve", task_id=i)
        recorder.close()
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"00000000 {corrupted}"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ConfigurationError, match="line 2"):
            read_trace(path)

    def test_missing_file_raises_typed(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_trace(tmp_path / "nope.jsonl")

    def test_mask_timing_strips_only_timing(self):
        record = {"type": "solve", "seq": 0, "timing": {"wall_s": 1.0},
                  "task_id": 4}
        masked = mask_timing(record)
        assert masked == {"type": "solve", "seq": 0, "task_id": 4}
        assert "timing" in record  # shallow copy, original intact

    def test_masked_bytes_equal_modulo_timing(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.record("solve", task_id=1, timing={"wall_s": 0.1})
        b.record("solve", task_id=1, timing={"wall_s": 99.9})
        assert masked_trace_bytes(a.records) == masked_trace_bytes(b.records)


class TestPhaseProfiler:
    def test_span_attributes_ops_without_incrementing(self):
        """The zero-overhead contract at its smallest scale: a span
        measures the counter delta its body caused and nothing else."""
        counters = OpCounters()
        profiler = PhaseProfiler()
        profiler.bind_counters(counters)
        with profiler.phase("solve"):
            counters.knn_queries += 3
        before = counters.snapshot()
        with profiler.phase("solve"):
            pass  # an empty span must leave the counters untouched
        assert repr(counters) == repr(before)
        stat = profiler.stats["solve"]
        assert stat.calls == 2
        assert stat.ops.knn_queries == 3

    def test_span_counters_override_bound_default(self):
        bound, local = OpCounters(), OpCounters()
        profiler = PhaseProfiler()
        profiler.bind_counters(bound)
        with profiler.phase("reconcile", counters=local):
            local.gain_evaluations += 2
        assert profiler.stats["reconcile"].ops.gain_evaluations == 2

    def test_emitted_record_isolates_wall_under_timing(self):
        recorder = TraceRecorder()
        profiler = PhaseProfiler(recorder=recorder, scope="shard-1")
        with profiler.phase("solve", task_id=7) as span:
            span["quality"] = 0.5
        (record,) = recorder.records
        assert record["type"] == "solve"
        assert record["task_id"] == 7
        assert record["quality"] == 0.5
        assert record["scope"] == "shard-1"
        assert set(record["timing"]) == {"wall_s"}
        assert mask_timing(record) == {k: v for k, v in record.items()
                                       if k != "timing"}

    def test_emit_false_accumulates_silently(self):
        recorder = TraceRecorder()
        profiler = PhaseProfiler(recorder=recorder)
        with profiler.phase("index-repair", emit=False):
            pass
        assert recorder.records == []
        assert profiler.stats["index-repair"].calls == 1

    def test_summary_separates_timing(self):
        profiler = PhaseProfiler()
        with profiler.phase("solve"):
            pass
        phases, timing = profiler.summary()
        assert set(phases) == set(timing) == {"solve"}
        assert "wall_s" not in str(phases)  # deterministic half
        assert timing["solve"] >= 0.0

    def test_registry_feeds_per_phase_histograms(self):
        registry = MetricsRegistry()
        profiler = PhaseProfiler(registry=registry, scope="shard-0")
        with profiler.phase("solve"):
            pass
        assert "shard-0/phase_ops/solve" in registry
        assert "shard-0/phase_wall_ms/solve" in registry
        assert registry.histogram("shard-0/phase_wall_ms/solve").timing


class _Probe:
    """Minimal layer standing in for a journal layer in wrap tests."""

    def __init__(self):
        self.calls = []

    def bind(self, server):
        self.calls.append("bind")

    def before_event(self, event, metrics):
        self.calls.append("before_event")

    def after_event(self, event, metrics):
        self.calls.append("after_event")

    def before_commit(self, session, worker_id, gslot, slot, cost):
        self.calls.append("before_commit")

    def before_finalize(self, session, metrics):
        self.calls.append("before_finalize")

    def on_epoch_end(self, metrics, now):
        self.calls.append("on_epoch_end")

    def on_run_complete(self, metrics):
        self.calls.append("on_run_complete")


class TestProfiledLayer:
    def test_hooks_delegate_and_accumulate_phase(self):
        inner = _Probe()
        profiler = PhaseProfiler()
        layer = ProfiledLayer(inner, profiler, phase="journal")
        layer.bind(None)
        layer.before_event(None, None)
        layer.after_event(None, None)
        layer.before_commit(None, 0, 0, 0, 0.0)
        layer.before_finalize(None, None)
        layer.on_epoch_end(None, 0.0)
        layer.on_run_complete(None)
        assert inner.calls == [
            "bind", "before_event", "after_event", "before_commit",
            "before_finalize", "on_epoch_end", "on_run_complete",
        ]
        # bind is direct (no cost to attribute); the six hooks span.
        assert profiler.stats["journal"].calls == 6

    def test_inner_stays_reachable(self):
        inner = _Probe()
        layer = ProfiledLayer(inner, PhaseProfiler())
        assert layer.inner is inner


class TestTelemetryEndToEnd:
    def test_stream_run_attaches_telemetry(self):
        outcome = build_runtime(STREAM_SPEC.replace(telemetry=True)).run()
        counts = outcome.telemetry.recorder.counts()
        for required in ("open", "event", "solve", "epoch", "finalize",
                         "phases", "run-complete", "trace-summary"):
            assert counts.get(required, 0) > 0, required
        assert "index-repair" in outcome.telemetry.profiler().stats
        report = outcome.telemetry.report()
        assert "phases" in report and "metrics:" in report

    def test_telemetry_off_by_default(self):
        assert build_runtime(STREAM_SPEC).run().telemetry is None

    def test_telemetered_run_is_byte_identical_to_bare(self):
        bare = build_runtime(STREAM_SPEC).run()
        telemetered = build_runtime(STREAM_SPEC.replace(telemetry=True)).run()
        assert telemetered.plan_signature == bare.plan_signature
        assert telemetered.metrics == bare.metrics
        assert repr(telemetered.counters) == repr(bare.counters)

    def test_plain_run_profiles_the_solve(self):
        outcome = build_runtime(PLAIN_SPEC.replace(telemetry=True)).run()
        assert outcome.telemetry.recorder.counts()["solve"] == (
            PLAIN_SPEC.workload.tasks
        )
        bare = build_runtime(PLAIN_SPEC).run()
        assert outcome.plan_signature == bare.plan_signature
        assert repr(outcome.counters) == repr(bare.counters)

    def test_sharded_scopes_stamp_records(self):
        spec = STREAM_SPEC.replace(shards=2, telemetry=True)
        outcome = build_runtime(spec).run()
        scopes = {r.get("scope") for r in outcome.telemetry.recorder.records
                  if r["type"] == "event"}
        assert scopes == {"shard-0", "shard-1"}

    def test_open_record_normalizes_paths(self, tmp_path):
        telemetry = Telemetry(
            spec={"journal": str(tmp_path / "j"), "trace_out": None,
                  "seed": 4},
        )
        (record,) = telemetry.recorder.records
        assert record["spec"] == {"journal": "<path>", "trace_out": None,
                                  "seed": 4}

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        horizon=st.integers(4, 10),
        shards=st.sampled_from([1, 2]),
    )
    def test_masked_traces_are_byte_identical_across_runs(
        self, seed, horizon, shards
    ):
        """Satellite 3: the trace determinism property.  Two runs of
        the same seeded spec differ only inside ``timing``."""
        spec = STREAM_SPEC.replace(
            shards=shards,
            telemetry=True,
            workload=dataclasses.replace(
                STREAM_SPEC.workload, seed=seed, horizon=horizon
            ),
        )
        first = build_runtime(spec).run()
        second = build_runtime(spec).run()
        assert masked_trace_bytes(first.telemetry.recorder.records) == (
            masked_trace_bytes(second.telemetry.recorder.records)
        )

    def test_trace_out_requires_telemetry(self):
        with pytest.raises(SpecError, match="trace_out"):
            STREAM_SPEC.replace(trace_out="t.jsonl").validate()

    def test_batch_telemetry_rejected_typed(self):
        with pytest.raises(SpecError):
            RunSpec(
                mode="batch",
                telemetry=True,
                workload=WorkloadSpec(tasks=4, slots=12, workers=100,
                                      rounds=2),
            ).validate()


class TestTraceReportOffline:
    def test_summarize_rebuilds_latency_and_starvation(self):
        records = [
            {"type": "finalize", "seq": 0, "latency": 2.0},
            {"type": "finalize", "seq": 1, "latency": None},
            {"type": "finalize", "seq": 2, "latency": 0.0},
            {"type": "epoch", "seq": 3, "queue_depth": 5},
        ]
        digest = summarize(records)
        assert digest["counts"] == {"epoch": 1, "finalize": 3}
        assert digest["starved"] == 1
        assert digest["latency"].count == 2
        assert digest["queue_depth"].percentile(50) == 8.0  # [4, 8) edge

    def test_render_from_real_run(self, tmp_path):
        path = tmp_path / "t.jsonl"
        spec = STREAM_SPEC.replace(telemetry=True, trace_out=str(path))
        build_runtime(spec).run()
        report = render_trace_report(path)
        assert "phase breakdown" in report
        assert "solve" in report
        assert "assignment latency" in report or "starved" in report
        assert "queue depth at epoch end" in report


class TestCLI:
    def test_simulate_telemetry_then_trace_report(self, tmp_path, capsys):
        """The acceptance pipeline: a telemetered simulate writes a
        trace that trace-report can fully render offline."""
        path = tmp_path / "trace.jsonl"
        code = main([
            "simulate", "--seed", "9", "--horizon", "10",
            "--task-slots", "8", "--initial-workers", "12",
            "--join-rate", "0.8", "--telemetry", "--trace-out", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "index-repair" in out
        assert path.exists()

        assert main(["trace-report", str(path)]) == 0
        report = capsys.readouterr().out
        assert "phase breakdown" in report
        assert "records" in report

    def test_trace_out_implies_telemetry(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        PLAIN_SPEC.replace(
            workload=dataclasses.replace(PLAIN_SPEC.workload, tasks=4,
                                         workers=80)
        ).to_json(spec_path)
        path = tmp_path / "implied.jsonl"
        code = main(["run", "--spec", str(spec_path),
                     "--trace-out", str(path)])
        assert code == 0
        assert "telemetry report" in capsys.readouterr().out
        assert read_trace(path)[0]["type"] == "open"

    def test_trace_report_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace-report", str(tmp_path / "nope.jsonl")]) == 2
        assert "nope.jsonl" in capsys.readouterr().err
