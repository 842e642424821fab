"""The trace analytics engine (PR 9).

Causal span graphs (:mod:`repro.obs.causal`), the trace query/diff
API (:mod:`repro.obs.query`), the TraceRecorder context-manager /
error-path close guarantee, and the hypothesis masked-determinism
properties extended to elastic and degradation-ladder runs.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.degrade.chaos import InjectionSpec
from repro.journal.layer import InjectedCrash
from repro.obs import (
    SpanGraph,
    TraceQuery,
    TraceRecorder,
    causal_id,
    diff_traces,
    masked_trace_bytes,
    read_trace,
)
from repro.obs.causal import ROOT_SPAN
from repro.runtime import RunSpec, WorkloadSpec, build_runtime
from repro.runtime.factory import StreamRuntime

STREAM_SPEC = RunSpec(
    mode="stream",
    telemetry=True,
    workload=WorkloadSpec(
        horizon=10, task_rate=0.3, task_slots=8, initial_workers=12,
        join_rate=0.8, mean_lifetime=12.0, seed=9,
    ),
    k=2, epoch_length=3.0, budget_fraction=0.6,
    max_active_tasks=4, max_queue_depth=8, snapshot_every=2,
)

PLAIN_SPEC = RunSpec(
    mode="plain",
    telemetry=True,
    workload=WorkloadSpec(tasks=6, slots=12, workers=150, seed=13),
)


@pytest.fixture(scope="module")
def stream_records():
    return build_runtime(STREAM_SPEC.validate()).run().telemetry.recorder.records


@pytest.fixture(scope="module")
def sharded_records():
    spec = STREAM_SPEC.replace(shards=2).validate()
    return build_runtime(spec).run().telemetry.recorder.records


class TestCausalStamping:
    def test_every_record_is_stamped(self, stream_records, sharded_records):
        for records in (stream_records, sharded_records):
            assert all("causal" in record for record in records)

    def test_derivation_is_the_stamping_contract(self, sharded_records):
        """A pre-causal trace (the stamp stripped) resolves to the very
        same span ids — the derivation and the stamp cannot drift."""
        for record in sharded_records:
            stripped = {k: v for k, v in record.items() if k != "causal"}
            assert causal_id(stripped) == record["causal"], record["type"]

    def test_vocabulary(self, stream_records):
        ids = {causal_id(record) for record in stream_records}
        assert ROOT_SPAN in ids
        assert any(name.startswith("task/") for name in ids)
        assert any(name.startswith("epoch/") for name in ids)
        assert "journal" not in ids  # no journal configured

    def test_plain_mode_has_task_spans(self):
        outcome = build_runtime(PLAIN_SPEC.validate()).run()
        ids = {causal_id(r) for r in outcome.telemetry.recorder.records}
        assert any(name.startswith("task/") for name in ids)


class TestSpanGraph:
    def test_every_seq_maps_to_a_span(self, sharded_records):
        graph = SpanGraph(sharded_records)
        for record in sharded_records:
            span = graph.span_of(record["seq"])
            assert record["seq"] in graph.spans[span].seqs

    def test_scope_spans_partition_the_parallel_axis(self, sharded_records):
        graph = SpanGraph(sharded_records)
        scopes = [s for s in graph.spans if s.startswith("scope/")]
        assert len(scopes) >= 2  # one per shard core
        for scope in scopes:
            assert graph.spans[scope].parent_id == ROOT_SPAN

    def test_task_attribution_matches_finalize_records(self, stream_records):
        graph = SpanGraph(stream_records)
        finalized = {
            record["task_id"]
            for record in stream_records
            if record["type"] == "finalize"
        }
        assert set(graph.tasks()) == finalized
        for row in graph.tasks().values():
            assert row["op_cost"] >= 0.0
            assert row["records"] >= 1

    def test_hot_tasks_sorted_by_descending_cost(self, stream_records):
        hot = SpanGraph(stream_records).hot_tasks(10)
        costs = [cost for _, cost in hot]
        assert costs == sorted(costs, reverse=True)

    def test_critical_path_is_bit_reproducible(self):
        spec = STREAM_SPEC.replace(shards=2).validate()
        paths = [
            SpanGraph(
                build_runtime(spec).run().telemetry.recorder.records
            ).critical_path()
            for _ in range(2)
        ]
        assert paths[0].total == paths[1].total
        assert paths[0].steps == paths[1].steps

    def test_critical_path_is_max_scope_cost(self, sharded_records):
        graph = SpanGraph(sharded_records)
        critical = graph.critical_path()
        scope_costs = [
            graph.subtree_cost(s) for s in graph.spans if s.startswith("scope/")
        ]
        assert critical.total == max(scope_costs)

    def test_from_trace_file(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        spec = STREAM_SPEC.replace(trace_out=str(trace)).validate()
        outcome = build_runtime(spec).run()
        graph = SpanGraph.from_trace(trace)
        live = SpanGraph(outcome.telemetry.recorder.records)
        assert graph.critical_path().total == live.critical_path().total


class TestTraceQuery:
    def test_type_filter_matches_tally(self, stream_records):
        query = TraceQuery(stream_records)
        for record_type, count in query.tally().items():
            assert query.of_type(record_type).count() == count

    def test_for_task_isolates_one_lifecycle(self, stream_records):
        graph = SpanGraph(stream_records)
        task_id = next(iter(graph.tasks()))
        rows = TraceQuery(stream_records).for_task(task_id)
        assert rows.count() >= 1
        assert all(
            causal_id(record) == f"task/{task_id}" for record in rows.records
        )

    def test_epoch_window_is_half_open(self, stream_records):
        query = TraceQuery(stream_records)
        total_epochs = query.of_type("epoch").count()
        assert total_epochs >= 2
        head = query.in_epochs(0, 1).of_type("epoch").count()
        assert head == 1
        assert query.in_epochs(0, total_epochs).of_type("epoch").count() == (
            total_epochs
        )

    def test_where_and_sum(self, stream_records):
        query = TraceQuery(stream_records).of_type("finalize")
        executed = query.where(lambda r: r.get("latency") is not None)
        assert executed.count() <= query.count()
        assert query.sum("op_cost") >= 0.0

    def test_scope_filter(self):
        spec = STREAM_SPEC.replace(shards=2).validate()
        records = build_runtime(spec).run().telemetry.recorder.records
        query = TraceQuery(records)
        shard0 = query.in_scope("shard-0").count()
        shard1 = query.in_scope("shard-1").count()
        assert shard0 > 0 and shard1 > 0
        assert shard0 + shard1 < query.count()  # run-level records remain


class TestTraceDiff:
    def test_same_spec_zero_divergence(self):
        spec = STREAM_SPEC.validate()
        runs = [
            build_runtime(spec).run().telemetry.recorder.records
            for _ in range(2)
        ]
        assert diff_traces(runs[0], runs[1]) is None

    def test_injected_fault_localizes_exactly(self):
        """The acceptance gate: a pair of runs differing only by an
        injected op-budget fault diverges at an exact, stable first
        ``seq`` inside a causal span."""
        spec = STREAM_SPEC.validate()
        clean = build_runtime(spec).run().telemetry.recorder.records
        fault = InjectionSpec(kind="slowdown", at=3.0, op_budget=60.0)
        seqs = []
        for _ in range(2):
            injected = StreamRuntime(spec, chaos=(fault,)).run()
            divergence = diff_traces(clean, injected.telemetry.recorder.records)
            assert divergence is not None
            assert divergence.record_a is not None
            assert divergence.record_b is not None
            assert divergence.span is not None
            seqs.append((divergence.seq, divergence.span))
        assert seqs[0] == seqs[1]

    def test_truncated_trace_reports_missing_side(self, stream_records):
        divergence = diff_traces(stream_records, stream_records[:-1])
        assert divergence is not None
        assert divergence.seq == stream_records[-1]["seq"]
        assert divergence.record_b is None
        text = divergence.describe()
        assert str(divergence.seq) in text

    def test_divergence_to_dict_roundtrips_json(self, stream_records):
        import json

        divergence = diff_traces(stream_records, stream_records[:-1])
        payload = json.loads(json.dumps(divergence.to_dict()))
        assert payload["seq"] == divergence.seq
        assert payload["span"] == divergence.span


class TestRecorderLifecycle:
    def test_context_manager_closes_on_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with TraceRecorder(path) as recorder:
                recorder.record("open", spec={"seed": 1})
                raise RuntimeError("boom")
        assert recorder.closed
        assert [r["type"] for r in read_trace(path)] == ["open"]

    def test_mid_epoch_kill_leaves_a_readable_trace(self, tmp_path):
        """Satellite: kill the run mid-epoch (journal crash injection)
        and the trace file on disk is still well-formed — every record
        up to the kill, no summary records after it."""
        trace = tmp_path / "killed.jsonl"
        spec = STREAM_SPEC.replace(
            journal=str(tmp_path / "journal"),
            crash_after_events=5,
            trace_out=str(trace),
        ).validate()
        with pytest.raises(InjectedCrash):
            build_runtime(spec).run()
        records = read_trace(trace)  # raises if any frame is torn
        types = {record["type"] for record in records}
        assert "open" in types
        assert "event" in types
        assert "run-complete" not in types
        assert "trace-summary" not in types
        # The analytics stack still works on the partial trace.
        graph = SpanGraph(records)
        assert graph.critical_path().total >= 0.0


class TestCli:
    @pytest.fixture()
    def traces(self, tmp_path):
        """Two same-spec trace files plus one injected-fault trace."""
        from repro.__main__ import main  # noqa: F401  (import check)

        paths = []
        for arm in ("a", "b"):
            path = tmp_path / f"{arm}.jsonl"
            spec = STREAM_SPEC.replace(trace_out=str(path)).validate()
            build_runtime(spec).run()
            paths.append(path)
        faulted = tmp_path / "faulted.jsonl"
        spec = STREAM_SPEC.replace(trace_out=str(faulted)).validate()
        StreamRuntime(
            spec, chaos=(InjectionSpec(kind="slowdown", at=3.0, op_budget=60.0),)
        ).run()
        paths.append(faulted)
        return paths

    def test_trace_diff_identical(self, traces, capsys):
        from repro.__main__ import main

        same_a, same_b, _ = traces
        assert main(["trace-diff", str(same_a), str(same_b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_trace_diff_divergent_json(self, traces, capsys):
        import json

        from repro.__main__ import main

        same_a, _, faulted = traces
        assert main(["trace-diff", "--json", str(same_a), str(faulted)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is False
        assert isinstance(payload["seq"], int)
        assert payload["span"]

    def test_trace_diff_missing_file_is_exit_2(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(
            ["trace-diff", str(tmp_path / "no.jsonl"), str(tmp_path / "pe.jsonl")]
        ) == 2

    def test_trace_report_json(self, traces, capsys):
        import json

        from repro.__main__ import main

        assert main(["trace-report", "--json", str(traces[0])]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["causal"]["critical_path"]["total"] > 0
        assert payload["counts"]["solve"] >= 1


class TestMaskedDeterminismProperties:
    """Satellite: the masked-trace determinism hypothesis property,
    extended from the matrix suite's plain/stream grid to elastic
    migrations and the degradation ladder."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 1_000), migrate_at=st.integers(1, 3))
    def test_elastic_migration_traces_are_deterministic(
        self, seed, migrate_at
    ):
        spec = STREAM_SPEC.replace(
            shards=2,
            elastic="fixed",
            migrate_at=migrate_at,
            workload=dataclasses.replace(STREAM_SPEC.workload, seed=seed),
        ).validate()
        traces = [
            masked_trace_bytes(
                build_runtime(spec).run().telemetry.recorder.records
            )
            for _ in range(2)
        ]
        assert traces[0] == traces[1]

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        ladder=st.sampled_from(
            [
                {"approx": "top_c", "approx_top_c": 2},
                {"approx": "floor", "approx_floor": 0.5},
                {"approx": "auto", "approx_top_c": 2, "approx_floor": 0.5},
            ]
        ),
    )
    def test_degradation_ladder_traces_are_deterministic(self, seed, ladder):
        spec = STREAM_SPEC.replace(
            workload=dataclasses.replace(STREAM_SPEC.workload, seed=seed),
            **ladder,
        ).validate()
        traces = [
            masked_trace_bytes(
                build_runtime(spec).run().telemetry.recorder.records
            )
            for _ in range(2)
        ]
        assert traces[0] == traces[1]
