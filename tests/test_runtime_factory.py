"""The composable runtime: factory composition vs the legacy lattice.

Two contracts under test.  First, the layer seam itself: layers
observe every hook in order and never perturb a run (byte-identical
plan, metrics, and counters with or without a no-op layer).  Second,
the factory: the compositions it resolves agree with each other on a
seeded scenario (plan-identical across shard counts, one forced shard
equal to the plain streaming core), and attaching telemetry changes
nothing it observes.
"""

from __future__ import annotations

import pytest

from repro.errors import SpecError
from repro.runtime import (
    RunSpec,
    ServingLayer,
    StreamRuntime,
    WorkloadSpec,
    build_runtime,
    recover_runtime,
)
from repro.stream.online_server import StreamingTCSCServer

STREAM_WORKLOAD = WorkloadSpec(
    horizon=16, task_rate=0.3, task_slots=8, initial_workers=14,
    join_rate=0.8, mean_lifetime=12.0, seed=9,
)

STREAM_SPEC = RunSpec(
    mode="stream", workload=STREAM_WORKLOAD, k=2,
    epoch_length=3.0, budget_fraction=0.6,
    max_active_tasks=4, max_queue_depth=8, snapshot_every=2,
)


def _legacy_kwargs(spec: RunSpec) -> dict:
    return dict(
        k=spec.k, epoch_length=spec.epoch_length,
        budget_fraction=spec.budget_fraction,
        max_active_tasks=spec.max_active_tasks,
        max_queue_depth=spec.max_queue_depth,
        realization_seed=spec.workload.seed, backend=spec.backend,
    )


class RecordingLayer(ServingLayer):
    """A no-op layer that logs which hooks fired, in order."""

    def __init__(self):
        self.calls: list[str] = []
        self.server = None

    def bind(self, server):
        self.server = server
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


class TestLayerSeam:
    def test_noop_layer_observes_without_perturbing(self):
        scenario = build_runtime(STREAM_SPEC).scenario()
        bare = StreamingTCSCServer(scenario.bbox, **_legacy_kwargs(STREAM_SPEC))
        bare_metrics = bare.run(list(scenario.events))

        probe = RecordingLayer()
        layered = StreamingTCSCServer(
            scenario.bbox, layers=(probe,), **_legacy_kwargs(STREAM_SPEC)
        )
        layered_metrics = layered.run(list(scenario.events))

        # Observation is complete...
        assert probe.server is layered
        assert probe.calls[0] == "bind"
        assert probe.calls[-1] == "on_run_complete"
        assert probe.calls.count("before_event") == len(scenario.events)
        assert probe.calls.count("after_event") == len(scenario.events)
        assert probe.calls.count("on_epoch_end") == layered_metrics.epochs
        assert probe.calls.count("before_commit") == len(layered.assignment())
        assert probe.calls.count("before_finalize") > 0
        # ...and free: byte-identical run.
        assert layered_metrics == bare_metrics
        assert layered.assignment().plan_signature() == bare.assignment().plan_signature()
        assert layered_metrics.counters == bare_metrics.counters

    def test_before_event_precedes_application(self):
        """The seam's log-before-apply ordering: before_event for event
        N fires before after_event for event N, pairwise."""
        probe = RecordingLayer()
        scenario = build_runtime(STREAM_SPEC).scenario()
        server = StreamingTCSCServer(
            scenario.bbox, layers=(probe,), **_legacy_kwargs(STREAM_SPEC)
        )
        server.run(list(scenario.events))
        events_only = [c for c in probe.calls if c.endswith("_event")]
        assert events_only == ["before_event", "after_event"] * len(scenario.events)


class TestFactoryModes:
    def test_plain_shards_are_plan_identical(self):
        base = RunSpec(
            mode="plain",
            workload=WorkloadSpec(tasks=6, slots=12, workers=150, seed=13),
        )
        reference = build_runtime(base).run()
        assert len(reference.plan_signature) > 0
        for shards in (2, 4):
            outcome = build_runtime(base.replace(shards=shards)).run()
            assert outcome.plan_signature == reference.plan_signature
            assert outcome.qualities == reference.qualities

    def test_batch_mode_rounds_partition_the_taskset(self):
        base = RunSpec(
            mode="batch",
            workload=WorkloadSpec(tasks=6, slots=12, workers=150, seed=13,
                                  rounds=3),
        )
        outcome = build_runtime(base).run()
        assert outcome.server.rounds == 3
        assert len(outcome.plan_signature) > 0
        assert len(outcome.qualities) == 6  # every task served exactly once

    def test_stream_shards_one_matches_plain_streaming(self):
        plain = build_runtime(STREAM_SPEC).run()
        forced = StreamRuntime(STREAM_SPEC, force_sharded=True).run()
        assert forced.metrics.per_shard[0].promised_quality == (
            plain.metrics.promised_quality
        )
        assert forced.plan_signature == plain.plan_signature

    def test_build_runtime_rejects_non_spec(self):
        with pytest.raises(SpecError):
            build_runtime({"mode": "plain"})

    def test_recover_runtime_missing_journal_raises_typed(self, tmp_path):
        with pytest.raises(SpecError):
            recover_runtime(tmp_path / "nothing-here")


class TestTelemetrySeam:
    """Telemetry rides the same layer seam: attaching it must not
    change a single byte of the run it observes."""

    def test_stream_telemetry_off_identity(self):
        bare = build_runtime(STREAM_SPEC).run()
        telemetered = build_runtime(STREAM_SPEC.replace(telemetry=True)).run()
        assert bare.telemetry is None
        assert telemetered.telemetry is not None
        assert telemetered.plan_signature == bare.plan_signature
        assert telemetered.metrics == bare.metrics
        assert repr(telemetered.counters) == repr(bare.counters)

    def test_sharded_journaled_telemetry_off_identity(self, tmp_path):
        base = STREAM_SPEC.replace(shards=2)
        bare = build_runtime(
            base.replace(journal=str(tmp_path / "bare"))
        ).run()
        telemetered = build_runtime(
            base.replace(journal=str(tmp_path / "obs"), telemetry=True)
        ).run()
        assert telemetered.plan_signature == bare.plan_signature
        assert telemetered.metrics.per_shard == bare.metrics.per_shard
        assert repr(telemetered.counters) == repr(bare.counters)
        # The profiler saw the journal layer's hooks while the run
        # stayed identical: attribution without perturbation.
        assert "journal" in telemetered.telemetry.profiler(0).stats

