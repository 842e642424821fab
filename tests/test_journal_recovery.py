"""Crash-consistent replay: recovery must be byte-identical.

The acceptance property of ``repro.journal``: killing a journaled run
at *every* event boundary and recovering (latest snapshot + log-suffix
replay) yields a run whose ``plan_signature()``, ``StreamMetrics``,
and ``OpCounters`` equal the uninterrupted run's exactly — for the
plain streaming server on both quality-kernel backends and for the
sharded deployment at shard counts 1/2/4.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import JournalReplayError
from repro.journal.layer import (
    CrashBudget,
    InjectedCrash,
    journal_layer,
    journaled_server,
    recover_server,
)
from repro.journal.sharded import (
    recover_sharded_server,
    resume_sharded,
    sharded_journaled_server,
)
from repro.journal.wal import Journal, WriteAheadLog, _frame
from repro.shard.streaming import ShardedStreamingServer
from repro.stream.online_server import StreamingTCSCServer
from repro.workloads.streaming import StreamScenarioConfig, build_stream_events

SERVER_KWARGS = dict(
    k=2,
    epoch_length=3.0,
    budget_fraction=0.6,
    max_active_tasks=4,
    max_queue_depth=8,
    realization_seed=9,
)


@pytest.fixture(scope="module")
def trace():
    """A churn-heavy streaming trace shared by every recovery test."""
    scenario = build_stream_events(
        StreamScenarioConfig(
            horizon=16,
            task_rate=0.3,
            task_slots=8,
            initial_workers=14,
            worker_join_rate=0.8,
            mean_worker_lifetime=12.0,
            seed=9,
            budget_refresh_interval=6.0,
            budget_refresh_amount=4.0,
        )
    )
    return scenario


def _clean_run(trace, backend: str):
    server = StreamingTCSCServer(
        trace.bbox, backend=backend, pool_budget=40.0, **SERVER_KWARGS
    )
    metrics = server.run(list(trace.events))
    return metrics, server.assignment().plan_signature()


def _resume(server, events):
    """Resume a recovered core through its journal layer."""
    return journal_layer(server).resume_with_trace(events)


def _crash_at(trace, tmp_path, boundary, backend, *, phase="apply", snapshot_every=2):
    jdir = tmp_path / f"crash-{backend}-{phase}-{boundary}"
    server = journaled_server(
        trace.bbox,
        journal=jdir,
        snapshot_every=snapshot_every,
        crash_after_events=boundary,
        crash_phase=phase,
        backend=backend,
        pool_budget=40.0,
        **SERVER_KWARGS,
    )
    with pytest.raises(InjectedCrash):
        server.run(list(trace.events))
    return jdir


class TestPlainRecovery:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_crash_recover_at_every_event_boundary(self, trace, tmp_path, backend):
        ref_metrics, ref_sig = _clean_run(trace, backend)
        assert len(ref_sig) > 5  # the trace must actually commit work
        for boundary in range(len(trace.events)):
            jdir = _crash_at(trace, tmp_path, boundary, backend)
            recovered = recover_server(jdir)
            metrics = _resume(recovered, list(trace.events))
            assert metrics == ref_metrics, f"boundary {boundary} diverged"
            assert recovered.assignment().plan_signature() == ref_sig
            assert metrics.counters == ref_metrics.counters

    def test_append_phase_crash_recovers(self, trace, tmp_path):
        """A record journaled but never applied is redone on recovery."""
        ref_metrics, ref_sig = _clean_run(trace, "python")
        for boundary in (1, 7, len(trace.events) // 2):
            jdir = _crash_at(trace, tmp_path, boundary, "python", phase="append")
            recovered = recover_server(jdir)
            metrics = _resume(recovered, list(trace.events))
            assert metrics == ref_metrics
            assert recovered.assignment().plan_signature() == ref_sig

    def test_journaling_adds_zero_op_count_overhead(self, trace, tmp_path):
        ref_metrics, ref_sig = _clean_run(trace, "python")
        server = journaled_server(
            trace.bbox,
            journal=tmp_path / "uninterrupted",
            snapshot_every=2,
            backend="python",
            pool_budget=40.0,
            **SERVER_KWARGS,
        )
        metrics = server.run(list(trace.events))
        assert metrics == ref_metrics
        assert metrics.counters == ref_metrics.counters
        assert server.assignment().plan_signature() == ref_sig
        journal = journal_layer(server).journal
        assert journal.wal.records_appended > len(trace.events)
        assert journal.snapshots_written > 0

    def test_snapshot_shortens_replay(self, trace, tmp_path):
        """A late crash recovers from a snapshot, replaying only the
        log suffix rather than the whole history."""
        boundary = len(trace.events) - 1
        jdir = _crash_at(trace, tmp_path, boundary, "python", snapshot_every=2)
        recovered = recover_server(jdir)
        info = journal_layer(recovered).recovery
        assert info.snapshot_loaded
        assert info.events_restored + info.events_replayed == boundary
        assert info.events_replayed < boundary
        ref_metrics, _ = _clean_run(trace, "python")
        assert _resume(recovered, list(trace.events)) == ref_metrics

    def test_recovery_after_compaction(self, trace, tmp_path):
        """Compacting the log behind the newest snapshot preserves
        exact recovery (absolute sequence numbers survive)."""
        boundary = len(trace.events) - 1
        jdir = _crash_at(trace, tmp_path, boundary, "python", snapshot_every=2)
        journal = Journal(jdir)
        journal.open_for_resume()
        assert journal.compact() > 0
        recovered = recover_server(jdir)
        ref_metrics, ref_sig = _clean_run(trace, "python")
        assert _resume(recovered, list(trace.events)) == ref_metrics
        assert recovered.assignment().plan_signature() == ref_sig

    def test_double_crash_after_compaction_with_empty_suffix(self, trace, tmp_path):
        """Regression: when compaction leaves an empty log suffix (the
        snapshot covers the whole log), the resumed run's appends must
        advance past the snapshot's wal_seq — otherwise a *second*
        recovery filters them out of its cursor and a valid journal
        becomes unrecoverable."""
        ref_metrics, ref_sig = _clean_run(trace, "python")
        # Find a boundary where the crash lands right on a snapshot
        # (empty log suffix once compacted) — the degenerate case.
        for boundary in range(1, len(trace.events)):
            jdir = _crash_at(trace, tmp_path, boundary, "python", snapshot_every=1)
            journal = Journal(jdir)
            journal.open_for_resume()
            journal.compact()
            recovered = recover_server(jdir)
            if not journal_layer(recovered)._replay:
                break
        else:
            pytest.fail("no snapshot-covered crash boundary in the trace")
        # Resume, but crash again shortly after recovery.
        layer = journal_layer(recovered)
        layer._crash = CrashBudget(layer.replayed_event_count + 4)
        with pytest.raises(InjectedCrash):
            _resume(recovered, list(trace.events))
        # The second recovery must still be exact.
        recovered = recover_server(jdir)
        assert _resume(recovered, list(trace.events)) == ref_metrics
        assert recovered.assignment().plan_signature() == ref_sig

    def test_completed_journal_resumes_idempotently(self, trace, tmp_path):
        ref_metrics, ref_sig = _clean_run(trace, "python")
        server = journaled_server(
            trace.bbox,
            journal=tmp_path / "done",
            snapshot_every=2,
            backend="python",
            pool_budget=40.0,
            **SERVER_KWARGS,
        )
        server.run(list(trace.events))
        recovered = recover_server(tmp_path / "done")
        assert journal_layer(recovered).recovery.events_replayed == 0
        assert _resume(recovered, list(trace.events)) == ref_metrics
        assert recovered.assignment().plan_signature() == ref_sig

    def test_resume_with_mismatched_trace_raises_typed(self, trace, tmp_path):
        """Resuming against a trace regenerated from different workload
        parameters must fail loudly, not splice two histories."""
        jdir = _crash_at(trace, tmp_path, len(trace.events) // 2, "python")
        other = build_stream_events(
            StreamScenarioConfig(
                horizon=16, task_rate=0.3, task_slots=8, initial_workers=14,
                worker_join_rate=0.8, mean_worker_lifetime=12.0,
                seed=10,  # != the journaled run's seed
                budget_refresh_interval=6.0, budget_refresh_amount=4.0,
            )
        )
        recovered = recover_server(jdir)
        with pytest.raises(JournalReplayError):
            _resume(recovered, list(other.events))
        # A too-short trace is equally rejected.
        recovered = recover_server(jdir)
        with pytest.raises(JournalReplayError):
            _resume(recovered, list(trace.events)[:3])

    def test_tampered_commit_record_raises_typed(self, trace, tmp_path):
        """Replay that regenerates a different record than the log
        holds must fail loudly, not fork history silently."""
        boundary = len(trace.events) - 1
        jdir = _crash_at(trace, tmp_path, boundary, "python", snapshot_every=0)
        wal_path = jdir / "wal.log"
        records, _, _ = WriteAheadLog.read(wal_path)
        commit_idx = next(
            i for i, r in enumerate(records) if r["type"] == "commit"
        )
        records[commit_idx]["worker_id"] += 1  # rewrite history
        with open(wal_path, "wb") as fh:
            for record in records:
                fh.write(_frame(record))
        recovered = recover_server(jdir)
        with pytest.raises(JournalReplayError):
            _resume(recovered, list(trace.events))


class TestShardedRecovery:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_crash_recover_at_every_event_boundary(
        self, trace, tmp_path, num_shards
    ):
        reference = ShardedStreamingServer(
            trace.bbox, num_shards=num_shards, **SERVER_KWARGS
        )
        ref_metrics = reference.run(list(trace.events))
        ref_sig = reference.assignment().plan_signature()
        ref_counters = [s.counters for s in reference.servers]
        assert len(ref_sig) > 5

        boundary = 0
        while True:
            jdir = tmp_path / f"s{num_shards}-{boundary}"
            crashed = sharded_journaled_server(
                trace.bbox,
                journal_root=jdir,
                num_shards=num_shards,
                snapshot_every=2,
                crash_after_events=boundary,
                **SERVER_KWARGS,
            )
            try:
                crashed.run(list(trace.events))
                break  # budget outlived the run: every boundary swept
            except InjectedCrash:
                pass
            recovered = recover_sharded_server(jdir)
            metrics = resume_sharded(recovered, list(trace.events))
            assert metrics.per_shard == ref_metrics.per_shard, (
                f"shards={num_shards} boundary {boundary} diverged"
            )
            assert metrics.makespan == ref_metrics.makespan
            assert metrics.serial_cost == ref_metrics.serial_cost
            assert recovered.assignment().plan_signature() == ref_sig
            assert [s.counters for s in recovered.servers] == ref_counters
            boundary += 1
        # Halo fan-out means at least every trace event is a boundary.
        assert boundary >= len(trace.events)

    def test_one_shard_equals_plain_server(self, trace, tmp_path):
        plain = StreamingTCSCServer(trace.bbox, **SERVER_KWARGS)
        plain_metrics = plain.run(list(trace.events))
        sharded = sharded_journaled_server(
            trace.bbox,
            journal_root=tmp_path / "one",
            num_shards=1,
            snapshot_every=2,
            **SERVER_KWARGS,
        )
        metrics = sharded.run(list(trace.events))
        assert metrics.per_shard[0].promised_quality == plain_metrics.promised_quality
        assert sharded.assignment().plan_signature() == plain.assignment().plan_signature()

    def test_recovered_metadata_round_trip(self, trace, tmp_path):
        root = tmp_path / "meta"
        sharded_journaled_server(
            trace.bbox,
            journal_root=root,
            num_shards=2,
            snapshot_every=3,
            **SERVER_KWARGS,
        )
        meta = json.loads((root / "meta.json").read_text())
        assert meta["num_shards"] == 2
        assert meta["snapshot_every"] == 3
        recovered = recover_sharded_server(root)
        assert recovered.num_shards == 2
        assert recovered.halo_margin == meta["halo_margin"]
