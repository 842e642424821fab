"""Tests for ``repro.par``: the serial/process executor.

The subsystem's contract is byte-identity — an executor may only
change *where* a shard's solve runs, never what it computes — so most
of this file compares executor arms against the serial reference:
plans, per-shard metrics, OpCounters, masked telemetry traces, and
(via hypothesis) the snapshot-codec round trip across a real process
boundary.  Worker death is survived exactly: a unit whose process
dies on its first attempt reruns on a fresh pool and the run still
equals the serial one.  The rest pins the typed rejection surface:
uncomposable spec pairings, zero-width pools, unknown (or retired)
executor kinds, and a worker that dies on every attempt.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SchedulingError, SpecError
from repro.obs.trace import masked_trace_bytes
from repro.par import EXECUTOR_KINDS, Executor, executor_from_spec, validate_max_workers
from repro.par.work import run_plain_unit, run_stream_unit
from repro.runtime import RunSpec, WorkloadSpec, build_serving_solver
from repro.runtime.factory import StreamRuntime
from repro.workloads.scenario import ScenarioConfig, build_scenario

#: Every kind an identity gate compares against the serial reference.
PARALLEL_KINDS = [kind for kind in EXECUTOR_KINDS if kind != "serial"]

_STREAM = RunSpec(
    mode="stream",
    workload=WorkloadSpec(
        horizon=10, task_rate=0.3, task_slots=8, initial_workers=12,
        join_rate=0.8, mean_lifetime=12.0, seed=9,
    ),
    k=2, epoch_length=3.0, budget_fraction=0.6,
    max_active_tasks=4, max_queue_depth=8,
)

#: Skewed arrivals (the elastic suite's hotspot-drift shape): late
#: tasks pile onto one region, so one shard's unit carries most work.
_DRIFT = _STREAM.replace(
    workload=WorkloadSpec(
        horizon=12, task_rate=0.6, task_slots=8, initial_workers=16,
        join_rate=1.0, mean_lifetime=12.0, hotspot_drift=1.0, seed=7,
    ),
)

#: The environment variable naming the marker file of the end-to-end
#: worker-death arms; forked workers inherit it.
_MARKER_ENV = "REPRO_TEST_DEATH_MARKER"


def _die_first(marker: Path) -> None:
    """Kill this worker process unless ``marker`` exists (creating it):
    the first unit to run dies, every later attempt proceeds."""
    if not marker.exists():
        marker.touch()
        os._exit(1)


def _echo_after_death(payload: str) -> str:
    unit = json.loads(payload)
    _die_first(Path(unit["marker"]))
    return unit["value"]


def _always_die(payload: str) -> str:
    os._exit(1)


def _plain_unit_dying_once(payload: str) -> str:
    _die_first(Path(os.environ[_MARKER_ENV]))
    return run_plain_unit(payload)


def _stream_unit_dying_once(payload: str) -> str:
    _die_first(Path(os.environ[_MARKER_ENV]))
    return run_stream_unit(payload)


@pytest.fixture(scope="module")
def plain_scenario():
    return build_scenario(
        ScenarioConfig(num_tasks=6, num_slots=12, num_workers=150, seed=13)
    )


def _plain_report(scenario, kind: str, shards: int):
    spec = RunSpec(mode="plain", shards=shards, executor=kind).validate()
    server = build_serving_solver(
        spec, scenario.pool, scenario.bbox, force_sharded=True
    )
    return server.assign(scenario.tasks)


def _stream_outcome(spec: RunSpec):
    # force_sharded keeps the serial arm on the same coordinator
    # composition (ShardedStreamMetrics) the executor arms produce.
    return StreamRuntime(spec.validate(), force_sharded=True).run()


def _stream_evidence(outcome):
    counters = outcome.counters
    if not isinstance(counters, tuple):
        counters = (counters,)
    metrics = outcome.metrics
    return (
        outcome.plan_signature,
        [c.to_dict() for c in counters],
        [asdict(m) for m in metrics.per_shard],
        metrics.tasks_routed,
        metrics.dropped_events,
        sorted(metrics.worker_routes.items()),
        metrics.makespan,
        metrics.serial_cost,
    )


def _plain_evidence(report):
    return (
        report.plan_signature(),
        report.counters.to_dict(),
        report.per_task_cost,
        report.qualities,
        report.total_cost,
        report.conflicts,
        report.reconciled_task_ids,
        report.revalidated_task_ids,
        report.messages,
        report.makespan,
    )


class TestExecutor:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown executor kind"):
            Executor("fiber")

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError, match="max_workers must be >= 1"):
            validate_max_workers(0)
        with pytest.raises(ConfigurationError, match="got -2"):
            Executor("process", max_workers=-2)

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_map_units_preserves_order(self, kind):
        executor = Executor(kind, max_workers=2)
        # len is importable from anywhere, so it survives pickling
        # into a worker process.
        assert executor.map_units(len, ["ccc", "bb", "a", ""]) == [3, 2, 1, 0]

    def test_worker_errors_propagate(self):
        # int is importable anywhere; the bad literal raises inside a
        # worker process and must surface in the parent.
        with pytest.raises(ValueError, match="shard 3 exploded"):
            Executor("process", max_workers=2).map_units(
                int, ["1", "shard 3 exploded"]
            )

    def test_spec_resolution(self):
        assert executor_from_spec(RunSpec()) is None
        executor = executor_from_spec(
            RunSpec(mode="stream", executor="process", max_workers=4)
        )
        assert (executor.kind, executor.max_workers) == ("process", 4)

    def test_default_width_is_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False
        )
        assert Executor("process")._cap() == 3
        assert Executor("process", max_workers=5)._cap() == 5
        # Platforms without an affinity mask fall back to the CPU count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert Executor("process")._cap() == 64

    def test_worker_death_reruns_on_a_fresh_pool(self, tmp_path):
        marker = str(tmp_path / "died")
        payloads = [
            json.dumps({"marker": marker, "value": value})
            for value in ("a", "b", "c")
        ]
        results = Executor("process", max_workers=2).map_units(
            _echo_after_death, payloads
        )
        assert (tmp_path / "died").exists()  # a worker really died
        assert results == Executor("serial").map_units(
            _echo_after_death, payloads
        )

    def test_repeated_worker_death_is_scheduling_error(self):
        with pytest.raises(SchedulingError, match="_always_die"):
            Executor("process", max_workers=2).map_units(
                _always_die, ["x", "y"]
            )


class TestSpecPairings:
    # "thread" is the retired GIL-bound kind: rejected like any other.
    @pytest.mark.parametrize("kind", ["fiber", "thread"])
    def test_unknown_executor_kind(self, kind):
        with pytest.raises(SpecError, match=r"\('serial', 'process'\)"):
            RunSpec(mode="stream", executor=kind).validate()

    def test_zero_max_workers(self):
        with pytest.raises(SpecError, match="max_workers"):
            RunSpec(
                mode="stream", executor="process", max_workers=0
            ).validate()

    def test_max_workers_requires_executor(self):
        with pytest.raises(SpecError, match="requires executor"):
            RunSpec(max_workers=2).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mode": "batch"},
            {"mode": "stream", "journal": "/tmp/never-used"},
            {"mode": "stream", "approx": "top_c", "approx_top_c": 2},
            {"mode": "stream", "shards": 2, "elastic": "auto"},
            {"mode": "plain", "telemetry": True},
        ],
    )
    def test_uncomposable_pairings_rejected(self, overrides):
        with pytest.raises(SpecError):
            RunSpec(executor="process", **overrides).validate()

    def test_stream_telemetry_composes(self):
        spec = RunSpec(
            mode="stream", shards=2, telemetry=True,
            executor="process", max_workers=2,
        )
        assert spec.validate() is spec


class TestPlainIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("kind", PARALLEL_KINDS)
    def test_byte_identical_to_serial(self, plain_scenario, kind, shards):
        reference = _plain_report(plain_scenario, "serial", shards)
        report = _plain_report(plain_scenario, kind, shards)
        assert _plain_evidence(report) == _plain_evidence(reference)


class TestStreamIdentity:
    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(_STREAM.replace(shards=1), id="1"),
            pytest.param(_STREAM.replace(shards=2), id="2"),
            pytest.param(_DRIFT.replace(shards=2), id="2-hotspot_drift"),
        ],
    )
    @pytest.mark.parametrize("kind", PARALLEL_KINDS)
    def test_byte_identical_to_serial(self, kind, spec):
        reference = _stream_outcome(spec)
        outcome = _stream_outcome(spec.replace(executor=kind))
        assert _stream_evidence(outcome) == _stream_evidence(reference)


class TestWorkerDeath:
    """A shard unit whose worker dies once still yields the serial run."""

    @pytest.fixture
    def dying_once(self, tmp_path, monkeypatch):
        import repro.par.stream
        import repro.par.work

        marker = tmp_path / "died"
        monkeypatch.setenv(_MARKER_ENV, str(marker))
        monkeypatch.setattr(
            repro.par.work, "run_plain_unit", _plain_unit_dying_once
        )
        monkeypatch.setattr(
            repro.par.stream, "run_stream_unit", _stream_unit_dying_once
        )
        return marker

    def test_plain_round_survives(self, plain_scenario, dying_once):
        reference = _plain_report(plain_scenario, "serial", 2)
        report = _plain_report(plain_scenario, "process", 2)
        assert dying_once.exists()
        assert _plain_evidence(report) == _plain_evidence(reference)

    def test_stream_drain_survives(self, dying_once):
        spec = _STREAM.replace(shards=2)
        reference = _stream_outcome(spec)
        outcome = _stream_outcome(spec.replace(executor="process"))
        assert dying_once.exists()
        assert _stream_evidence(outcome) == _stream_evidence(reference)


class TestTelemetryMerge:
    @pytest.mark.parametrize("kind", PARALLEL_KINDS)
    def test_masked_trace_and_registry_match_serial(self, kind):
        spec = _STREAM.replace(shards=2, telemetry=True)
        reference = _stream_outcome(spec)
        outcome = _stream_outcome(spec.replace(executor=kind))

        def comparable(telemetry):
            # The "open" record embeds the spec dict, which legitimately
            # differs between the arms (executor field); every other
            # record must match byte-for-byte under the timing mask.
            records = [
                r for r in telemetry.recorder.records if r["type"] != "open"
            ]
            return (
                masked_trace_bytes(records),
                telemetry.registry.to_dict(include_timing=False),
            )

        assert comparable(outcome.telemetry) == comparable(reference.telemetry)


class TestProcessRoundTrip:
    """Work units survive the snapshot codec across a real fork."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=3),
           shards=st.sampled_from([1, 2, 4]))
    def test_plan_signature_exact(self, seed, shards):
        base = _STREAM.replace(
            workload=WorkloadSpec(
                horizon=8, task_rate=0.4, task_slots=6, initial_workers=10,
                join_rate=0.6, mean_lifetime=10.0, seed=seed,
            ),
            shards=shards,
        )
        reference = _stream_outcome(base)
        outcome = _stream_outcome(base.replace(executor="process"))
        assert _stream_evidence(outcome) == _stream_evidence(reference)


_SIM_SMALL = [
    "simulate", "--seed", "7", "--horizon", "12", "--task-slots", "6",
    "--initial-workers", "10", "--join-rate", "0.3",
]


class TestCLI:
    @pytest.mark.parametrize("kind", ["fiber", "thread"])
    def test_unknown_executor_is_spec_error_not_traceback(self, kind, capsys):
        from repro.__main__ import main

        code = main([*_SIM_SMALL, "--executor", kind])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            f"unknown executor {kind!r}; choose one of ('serial', 'process')"
        ]

    def test_zero_max_workers_is_argparse_error(self, capsys):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [*_SIM_SMALL, "--executor", "process", "--max-workers", "0"]
            )
        assert "max_workers must be >= 1" in capsys.readouterr().err

    def test_process_executor_runs(self, capsys):
        from repro.__main__ import main

        code = main(
            [*_SIM_SMALL, "--shards", "2", "--executor", "process",
             "--max-workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "executor=process max_workers=2" in out
