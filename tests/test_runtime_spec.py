"""RunSpec: round-trip exactness and typed rejection of bad combos.

The spec is the new serving surface — a spec that silently drops a
field, or accepts a pairing the factory cannot compose, would turn
into a mis-configured production run.  Property tests pin the
``from_dict(to_dict(spec)) == spec`` contract over the whole valid
space (crash-injection and halo fields included), and every
documented invalid combination must fail with the typed
:class:`~repro.errors.SpecError`.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SpecError
from repro.runtime import (
    SEARCH_MODES,
    SERVING_MODES,
    RunSpec,
    SolverVariant,
    WorkloadSpec,
)


@st.composite
def valid_specs(draw) -> RunSpec:
    """Any spec the validator accepts, across every capability axis."""
    mode = draw(st.sampled_from(SERVING_MODES))
    use_index = draw(st.booleans())
    search = "enumerate" if use_index else draw(st.sampled_from(SEARCH_MODES))
    shards = 1 if mode == "batch" else draw(st.integers(1, 4))
    journal = None
    crash = None
    crash_phase = "apply"
    sync = False
    if mode == "stream" and draw(st.booleans()):
        journal = draw(st.sampled_from(["/tmp/journal", "relative/journal"]))
        crash = draw(st.one_of(st.none(), st.integers(0, 50)))
        crash_phase = draw(st.sampled_from(["apply", "append"]))
        sync = draw(st.booleans())
    telemetry = mode != "batch" and draw(st.booleans())
    trace_out = (
        draw(st.one_of(st.none(), st.just("traces/run.jsonl")))
        if telemetry else None
    )
    # Degradation modes compose with the un-indexed, single-shard,
    # journal-free solvers only; "auto" additionally needs the stream
    # telemetry signals.
    approx = "off"
    approx_top_c = None
    approx_floor = None
    slo_p99 = None
    if mode != "batch" and shards == 1 and journal is None and not use_index:
        choices = ["off", "top_c", "floor"]
        if mode == "stream" and telemetry:
            choices.append("auto")
        approx = draw(st.sampled_from(choices))
    if approx in ("top_c", "auto"):
        approx_top_c = draw(st.integers(1, 8))
    if approx in ("floor", "auto"):
        approx_floor = draw(st.floats(0.01, 1.0, allow_nan=False))
    if approx == "auto":
        slo_p99 = draw(
            st.one_of(st.none(), st.floats(0.5, 50.0, allow_nan=False))
        )
    queue_low = draw(st.integers(0, 5))
    queue_high = draw(st.integers(queue_low + 1, 12))
    tasks = draw(st.integers(1, 6))
    workload = WorkloadSpec(
        seed=draw(st.integers(0, 10_000)),
        distribution=draw(st.sampled_from(["uniform", "gaussian", "zipfian"])),
        tasks=tasks,
        slots=draw(st.integers(3, 40)),
        workers=draw(st.integers(1, 200)),
        rounds=draw(st.integers(1, tasks)),
        horizon=draw(st.integers(1, 60)),
        task_rate=draw(st.floats(0.0, 1.0, allow_nan=False)),
        burstiness=draw(st.floats(0.0, 1.0, allow_nan=False)),
        task_slots=draw(st.integers(3, 30)),
        initial_workers=draw(st.integers(0, 50)),
        join_rate=draw(st.floats(0.0, 2.0, allow_nan=False)),
        mean_lifetime=draw(st.floats(1.0, 50.0, allow_nan=False)),
        early_leave_prob=draw(st.floats(0.0, 1.0, allow_nan=False)),
    )
    return RunSpec(
        mode=mode,
        workload=workload,
        backend=draw(st.sampled_from(["python", "numpy"])),
        search=search,
        use_index=use_index,
        k=draw(st.integers(1, 5)),
        ts=draw(st.integers(2, 6)),
        budget_fraction=draw(st.floats(0.05, 1.0, allow_nan=False)),
        shards=shards,
        halo=draw(
            st.one_of(
                st.just("auto"),
                st.floats(0.0, 100.0, allow_nan=False),
            )
        ),
        cells_per_side=draw(st.one_of(st.none(), st.integers(1, 6))),
        epoch_length=draw(st.floats(0.5, 10.0, allow_nan=False)),
        index_mode=draw(st.sampled_from(["incremental", "rebuild"])),
        max_active_tasks=draw(st.integers(1, 8)),
        max_queue_depth=draw(st.integers(0, 16)),
        pool_budget=draw(
            st.one_of(st.none(), st.floats(0.0, 100.0, allow_nan=False))
        ),
        journal=journal,
        snapshot_every=draw(st.integers(0, 6)),
        sync=sync,
        crash_after_events=crash,
        crash_phase=crash_phase,
        telemetry=telemetry,
        trace_out=trace_out,
        approx=approx,
        approx_top_c=approx_top_c,
        approx_floor=approx_floor,
        degrade_queue_high=queue_high,
        degrade_queue_low=queue_low,
        slo_p99=slo_p99,
    ).validate()


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(valid_specs())
    def test_dict_round_trip_is_exact(self, spec):
        assert RunSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=40, deadline=None)
    @given(valid_specs())
    def test_json_round_trip_is_exact(self, spec):
        """Floats survive the JSON text representation bit-for-bit
        (shortest-repr round trip) — including halo radii and
        crash-injection boundaries."""
        text = json.dumps(spec.to_dict())
        assert RunSpec.from_dict(json.loads(text)) == spec

    def test_file_round_trip(self, tmp_path):
        spec = RunSpec(
            mode="stream",
            shards=3,
            halo=12.5,
            journal="journals/run-1",
            snapshot_every=2,
            crash_after_events=17,
            crash_phase="append",
            workload=WorkloadSpec(horizon=30, task_rate=0.35, seed=11),
        )
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert RunSpec.from_json(path) == spec

    def test_replace_returns_independent_copy(self):
        spec = RunSpec()
        other = spec.replace(shards=4, backend="numpy")
        assert spec.shards == 1  # frozen original untouched
        assert (other.shards, other.backend) == (4, "numpy")

    def test_solver_variant_projection(self):
        spec = RunSpec(backend="numpy", search="enumerate", use_index=True)
        assert spec.solver_variant == SolverVariant(
            backend="numpy", search="enumerate", use_index=True
        )


class TestRejection:
    """Every uncomposable or malformed spec fails with SpecError."""

    @pytest.mark.parametrize(
        "changes",
        [
            dict(mode="magic"),
            dict(backend="fortran"),
            dict(search="magic"),
            dict(index_mode="magic"),
            dict(crash_phase="magic"),
            dict(k=0),
            dict(ts=1),
            dict(budget_fraction=0.0),
            dict(budget_fraction=1.5),
            dict(shards=0),
            dict(halo="wide"),
            dict(halo=-2.0),
            dict(epoch_length=0.0),
            dict(max_active_tasks=0),
            dict(max_queue_depth=-1),
            dict(snapshot_every=-1),
            # The capability pairings the runtime cannot compose.
            dict(mode="plain", journal="/tmp/j"),
            dict(mode="batch", journal="/tmp/j"),
            dict(mode="batch", shards=2),
            dict(crash_after_events=3),          # crash without journal
            dict(sync=True),                     # sync without journal
            dict(trace_out="t.jsonl"),           # trace without telemetry
            dict(mode="batch", telemetry=True),
            dict(use_index=True, search="lazy"),
            dict(
                mode="stream", journal="/tmp/j", crash_after_events=-1
            ),
            # Degradation (the PR-7 knobs).
            dict(approx="magic"),
            dict(approx="top_c"),                # mode without its knob
            dict(approx="floor"),
            dict(approx="top_c", approx_top_c=0),
            dict(approx="floor", approx_floor=0.0),
            dict(approx="floor", approx_floor=1.5),
            dict(approx_top_c=3),                # knob without its mode
            dict(approx_floor=0.5),
            dict(mode="batch", approx="top_c", approx_top_c=3),
            dict(mode="stream", shards=2, approx="top_c", approx_top_c=3),
            dict(
                mode="stream", journal="/tmp/j",
                approx="floor", approx_floor=0.5,
            ),
            dict(use_index=True, approx="top_c", approx_top_c=3),
            dict(                                # auto without telemetry
                mode="stream", approx="auto",
                approx_top_c=3, approx_floor=0.5,
            ),
            dict(                                # auto outside stream
                mode="plain", telemetry=True, approx="auto",
                approx_top_c=3, approx_floor=0.5,
            ),
            dict(slo_p99=10.0),                  # SLO without the ladder
            dict(
                mode="stream", telemetry=True, approx="auto",
                approx_top_c=3, approx_floor=0.5, slo_p99=0.0,
            ),
            dict(degrade_queue_high=0),
            dict(degrade_queue_low=-1),
            dict(degrade_queue_low=6, degrade_queue_high=6),  # inverted
        ],
    )
    def test_invalid_spec_raises_typed(self, changes):
        with pytest.raises(SpecError):
            RunSpec(**changes).validate()

    @pytest.mark.parametrize(
        "changes",
        [
            dict(tasks=0),
            dict(slots=2),
            dict(workers=0),
            dict(rounds=0),
            dict(rounds=5, tasks=2),
            dict(horizon=0),
            dict(task_slots=2),
            dict(initial_workers=-1),
            dict(distribution="magic"),
        ],
    )
    def test_invalid_workload_raises_typed(self, changes):
        with pytest.raises(SpecError):
            RunSpec(workload=WorkloadSpec(**changes)).validate()

    def test_unknown_field_rejected(self):
        """A typo'd spec file must not silently run with defaults."""
        with pytest.raises(SpecError, match="shard_count"):
            RunSpec.from_dict({"shard_count": 4})
        with pytest.raises(SpecError, match="horizons"):
            RunSpec.from_dict({"workload": {"horizons": 10}})

    def test_non_object_payloads_rejected(self):
        with pytest.raises(SpecError):
            RunSpec.from_dict(["not", "a", "spec"])
        with pytest.raises(SpecError):
            RunSpec.from_dict({"workload": 7})
        # Wrong-typed fields fail at the JSON boundary, typed.
        for payload, field_name in (
            ({"shards": "two"}, "shards"),
            ({"workload": {"tasks": "3"}}, "tasks"),
            ({"mode": "stream", "shards": 2, "executor": "process",
              "max_workers": "2"}, "max_workers"),
            ({"k": 1.5}, "k"),
            ({"telemetry": "yes"}, "telemetry"),
            ({"shards": True}, "shards"),
            ({"budget_fraction": False}, "budget_fraction"),
            ({"workload": {"task_rate": "fast"}}, "task_rate"),
        ):
            with pytest.raises(SpecError, match=field_name):
                RunSpec.from_dict(payload)
        # JSON ints are valid floats.
        spec = RunSpec.from_dict({"budget_fraction": 1, "halo": 2})
        assert spec.budget_fraction == 1 and spec.halo == 2

    def test_from_json_missing_and_malformed(self, tmp_path):
        with pytest.raises(SpecError):
            RunSpec.from_json(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SpecError):
            RunSpec.from_json(bad)

    def test_from_dict_validates_combos(self):
        with pytest.raises(SpecError):
            RunSpec.from_dict({"mode": "plain", "journal": "/tmp/j"})

    def test_spec_error_is_configuration_error(self):
        """Typed, but still catchable as the library-wide hierarchy."""
        from repro.errors import ConfigurationError, TCSCError

        assert issubclass(SpecError, ConfigurationError)
        assert issubclass(SpecError, TCSCError)
