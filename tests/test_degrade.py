"""Graceful degradation (``repro.degrade``): certificates, ladder, chaos.

Four layers of contract.  Math level: :func:`gain_envelope_bound` is a
true fractional-knapsack upper bound on any feasible residual gain.
Solver level: degraded solves (top-c, floor) report a certificate the
measured quality ratio against the exact solve always clears, and the
heterogeneous-reliability fallback rule keeps uncertifiable instances
exact.  Policy level: the hysteresis controller walks the mode ladder
one level per epoch, never flaps on a boundary queue depth, and pinned
(static-mode) controllers never move.  Harness level: fault injections
are deterministic trace transforms (flash crowds, region outages) or
op-count budgets (slowdowns) — never wall clock — and the CLI surface
(``--approx`` / ``--inject`` / ``bench degrade``) composes them.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import build_parser, main
from repro.core.greedy import SingleTaskGreedy
from repro.degrade import (
    ChaosLayer,
    DegradationController,
    DegradationLayer,
    DegradeDirective,
    InjectionSpec,
    LEVEL_NAMES,
    apply_injections,
    gain_envelope_bound,
    load_injections,
)
from repro.errors import ConfigurationError, SpecError
from repro.obs import MetricsRegistry
from repro.runtime import RunSpec, WorkloadSpec, build_runtime
from repro.stream.events import TaskArrival, WorkerJoin, WorkerLeave
from repro.workloads.streaming import StreamScenarioConfig, build_stream_events


# ----------------------------------------------------------------------
# The gain-envelope bound
# ----------------------------------------------------------------------
class TestGainEnvelopeBound:
    def test_zero_capacity_bounds_nothing(self):
        assert gain_envelope_bound([(5.0, 1.0)], 0.0) == 0.0
        assert gain_envelope_bound([(5.0, 1.0)], -1.0) == 0.0

    def test_empty_envelope_is_zero(self):
        assert gain_envelope_bound([], 10.0) == 0.0

    def test_everything_affordable_sums_positive_gains(self):
        items = [(3.0, 1.0), (2.0, 1.0), (-4.0, 0.5), (0.0, 0.1)]
        assert gain_envelope_bound(items, 10.0) == pytest.approx(5.0)

    def test_boundary_item_taken_fractionally(self):
        # densities: 10/5 = 2.0, then 6/5 = 1.2 with 2 budget left.
        items = [(10.0, 5.0), (6.0, 5.0)]
        assert gain_envelope_bound(items, 7.0) == pytest.approx(10.0 + 6.0 * 2 / 5)

    def test_zero_cost_positive_gain_taken_in_full(self):
        assert gain_envelope_bound([(4.0, 0.0), (1.0, 2.0)], 1.0) == (
            pytest.approx(4.0 + 0.5)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 50.0, allow_nan=False),
                st.floats(0.01, 20.0, allow_nan=False),
            ),
            max_size=10,
        ),
        st.floats(0.0, 60.0, allow_nan=False),
    )
    def test_dominates_greedy_integral_selection(self, items, capacity):
        """The LP relaxation upper-bounds one concrete feasible plan:
        the density-greedy integral selection."""
        bound = gain_envelope_bound(items, capacity)
        remaining = capacity
        integral = 0.0
        for gain, cost in sorted(items, key=lambda it: -(it[0] / it[1])):
            if gain > 0.0 and cost <= remaining:
                integral += gain
                remaining -= cost
        assert bound + 1e-9 >= integral


# ----------------------------------------------------------------------
# Certified degraded solves
# ----------------------------------------------------------------------
class _ScaledReliabilityCosts:
    """Wrap a cost table with non-unit reliabilities (fallback probe)."""

    static_costs = True

    def __init__(self, inner, scale=0.9):
        self._inner = inner
        self._scale = scale

    def cost(self, slot):
        return self._inner.cost(slot)

    def offer(self, slot):
        return self._inner.offer(slot)

    def reliability(self, slot):
        return self._inner.reliability(slot) * self._scale


class TestCertifiedSolver:
    def test_exact_solve_certificate_is_one(self, small_scenario, small_costs):
        result = SingleTaskGreedy(
            small_scenario.single_task, small_costs,
            budget=small_scenario.budget,
        ).solve()
        assert result.certificate == 1.0

    def test_top_c_measured_ratio_clears_certificate(self, small_scenario):
        scenario = small_scenario
        from repro.engine.costs import SingleTaskCostTable

        exact = SingleTaskGreedy(
            scenario.single_task,
            SingleTaskCostTable(scenario.single_task, scenario.fresh_registry()),
            budget=scenario.budget,
        ).solve()
        for c in (2, 4, 8):
            degraded = SingleTaskGreedy(
                scenario.single_task,
                SingleTaskCostTable(
                    scenario.single_task, scenario.fresh_registry()
                ),
                budget=scenario.budget,
                top_c=c,
            ).solve()
            assert 0.0 <= degraded.certificate <= 1.0
            measured = degraded.quality / exact.quality
            assert measured + 1e-9 >= degraded.certificate
            # Bounded search only ever commits allowed slots.
            assert len(degraded.executed_slots) <= c

    def test_floor_measured_ratio_clears_certificate(self, small_scenario):
        scenario = small_scenario
        from repro.engine.costs import SingleTaskCostTable

        exact = SingleTaskGreedy(
            scenario.single_task,
            SingleTaskCostTable(scenario.single_task, scenario.fresh_registry()),
            budget=scenario.budget,
        ).solve()
        degraded = SingleTaskGreedy(
            scenario.single_task,
            SingleTaskCostTable(scenario.single_task, scenario.fresh_registry()),
            budget=scenario.budget,
            gain_floor=0.5,
        ).solve()
        assert degraded.quality <= exact.quality + 1e-9
        assert degraded.quality / exact.quality + 1e-9 >= degraded.certificate

    def test_heterogeneous_reliability_falls_back_to_exact(
        self, small_scenario
    ):
        """The DESIGN §5 fallback rule: non-unit reliabilities make the
        envelope premises fail, so a degraded request solves exactly —
        same plan, certificate 1.0."""
        scenario = small_scenario
        from repro.engine.costs import SingleTaskCostTable

        def costs():
            return _ScaledReliabilityCosts(
                SingleTaskCostTable(
                    scenario.single_task, scenario.fresh_registry()
                )
            )

        exact = SingleTaskGreedy(
            scenario.single_task, costs(), budget=scenario.budget
        ).solve()
        requested = SingleTaskGreedy(
            scenario.single_task, costs(), budget=scenario.budget,
            top_c=2, gain_floor=0.5,
        )
        assert requested.degraded is False
        result = requested.solve()
        assert result.certificate == 1.0
        assert result.assignment.plan_signature() == (
            exact.assignment.plan_signature()
        )

    def test_knob_validation(self, small_scenario, small_costs):
        with pytest.raises(ConfigurationError):
            SingleTaskGreedy(
                small_scenario.single_task, small_costs,
                budget=small_scenario.budget, top_c=0,
            )
        with pytest.raises(ConfigurationError):
            SingleTaskGreedy(
                small_scenario.single_task, small_costs,
                budget=small_scenario.budget, gain_floor=1.5,
            )


# ----------------------------------------------------------------------
# The mode ladder
# ----------------------------------------------------------------------
def _controller(**overrides):
    fields = dict(top_c=3, floor=0.2, queue_high=4, queue_low=1)
    fields.update(overrides)
    return DegradationController(**fields)


class TestDegradationController:
    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            _controller(top_c=0)
        with pytest.raises(ConfigurationError):
            _controller(floor=0.0)
        with pytest.raises(ConfigurationError):
            _controller(floor=1.5)
        with pytest.raises(ConfigurationError):
            _controller(queue_high=2, queue_low=2)
        with pytest.raises(ConfigurationError):
            _controller(queue_low=-1)

    def test_escalates_one_level_per_epoch_then_saturates(self):
        c = _controller()
        levels = []
        for _ in range(5):
            c.observe(queue_depth=9)
            levels.append(c.level)
        assert levels == [1, 2, 3, 3, 3]
        assert c.shedding
        assert [t[:3] for t in c.transitions] == [
            (1, 0, 1), (2, 1, 2), (3, 2, 3),
        ]

    def test_hysteresis_band_holds_the_level(self):
        c = _controller()
        c.observe(queue_depth=4)          # escalate to 1
        for depth in (2, 3, 2):           # between low and high: hold
            assert c.observe(queue_depth=depth) is None
        assert c.level == 1
        assert c.observe(queue_depth=1) == (1, 0)   # calm: de-escalate
        assert c.level == 0
        assert c.observe(queue_depth=0) is None     # floor of the ladder

    def test_slo_escalates_even_with_short_queue(self):
        c = _controller(slo_p99=16.0)
        assert c.observe(queue_depth=0, p99=32.0) == (0, 1)
        # Calm now needs *both* signals back under their thresholds.
        assert c.observe(queue_depth=0, p99=32.0) == (1, 2)
        assert c.observe(queue_depth=1, p99=8.0) == (2, 1)

    def test_directive_per_level(self):
        c = _controller()
        assert c.directive() == DegradeDirective(level=0)
        c.observe(queue_depth=9)
        assert c.directive() == DegradeDirective(level=1, top_c=3)
        c.observe(queue_depth=9)
        assert c.directive() == DegradeDirective(
            level=2, top_c=3, floor=0.2, shed=False
        )
        c.observe(queue_depth=9)
        directive = c.directive()
        assert directive.shed and directive.level == 3
        assert directive.name == LEVEL_NAMES[3] == "shed"

    def test_fixed_controller_never_moves(self):
        c = DegradationController.fixed(top_c=3)
        assert c.directive() == DegradeDirective(level=1, top_c=3)
        for _ in range(4):
            assert c.observe(queue_depth=99) is None
        assert c.directive() == DegradeDirective(level=1, top_c=3)
        assert not c.shedding
        assert c.transitions == []

    def test_fixed_floor_and_both(self):
        floor_only = DegradationController.fixed(floor=0.5)
        assert floor_only.directive() == DegradeDirective(level=2, floor=0.5)
        both = DegradationController.fixed(top_c=2, floor=0.5)
        assert both.directive() == DegradeDirective(
            level=2, top_c=2, floor=0.5
        )


class _FakeServer:
    def __init__(self, pending=0):
        self._pending = [object()] * pending
        self.degradation = None


class _FakeRecorder:
    def __init__(self):
        self.records = []

    def record(self, record_type, **fields):
        self.records.append((record_type, fields))


class _FakeMetrics:
    epochs = 5


class TestDegradationLayer:
    def test_bind_hands_server_the_controller(self):
        controller = _controller()
        server = _FakeServer()
        DegradationLayer(controller).bind(server)
        assert server.degradation is controller

    def test_epoch_end_feeds_queue_depth_and_records_transitions(self):
        controller = _controller(queue_high=3)
        server = _FakeServer(pending=5)
        recorder = _FakeRecorder()
        registry = MetricsRegistry()
        layer = DegradationLayer(controller, recorder=recorder,
                                 registry=registry)
        layer.bind(server)
        layer.on_epoch_end(_FakeMetrics(), now=10.0)
        assert controller.level == 1
        assert registry.gauge("degrade/level").value == 1
        assert registry.counter("degrade/transitions").value == 1
        ((record_type, fields),) = recorder.records
        assert record_type == "degrade"
        assert fields["from_level"] == "exact"
        assert fields["to_level"] == "top_c"
        assert fields["queue_depth"] == 5

    def test_p99_read_from_latency_histogram(self):
        controller = _controller(queue_high=50, slo_p99=4.0)
        server = _FakeServer(pending=0)
        registry = MetricsRegistry()
        registry.histogram("latency_slots").observe(60.0)
        layer = DegradationLayer(controller, registry=registry)
        layer.bind(server)
        layer.on_epoch_end(_FakeMetrics(), now=0.0)
        assert controller.level == 1       # SLO breach, not queue depth
        assert controller.transitions[0][4] == 64.0  # the exact p99


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
def _scenario(**overrides):
    fields = dict(
        horizon=16, task_rate=0.4, task_slots=8, initial_workers=12,
        worker_join_rate=0.8, mean_worker_lifetime=10.0, seed=9,
    )
    fields.update(overrides)
    return build_stream_events(StreamScenarioConfig(**fields))


class TestInjectionSpecs:
    def test_kind_is_validated(self):
        with pytest.raises(ConfigurationError):
            InjectionSpec(kind="meteor")

    @pytest.mark.parametrize(
        "fields",
        [
            dict(kind="flash_crowd", at=-1.0, tasks=4),
            dict(kind="flash_crowd", tasks=0),
            dict(kind="region_outage", radius=0.0),
            dict(kind="slowdown", op_budget=0),
            dict(kind="slowdown", op_budget=10, shard=-1),
        ],
    )
    def test_field_validation(self, fields):
        with pytest.raises(ConfigurationError):
            InjectionSpec(**fields)

    def test_from_dict_rejects_unknowns_and_missing_kind(self):
        with pytest.raises(ConfigurationError, match="severity"):
            InjectionSpec.from_dict(
                {"kind": "flash_crowd", "tasks": 2, "severity": 9}
            )
        with pytest.raises(ConfigurationError, match="kind"):
            InjectionSpec.from_dict({"tasks": 2})
        with pytest.raises(ConfigurationError):
            InjectionSpec.from_dict(["not", "an", "object"])

    def test_load_injections_round_trip(self, tmp_path):
        path = tmp_path / "inject.json"
        path.write_text(json.dumps({
            "injections": [
                {"kind": "flash_crowd", "at": 6.0, "tasks": 8},
                {"kind": "slowdown", "op_budget": 500, "shard": 1},
            ]
        }))
        specs = load_injections(path)
        assert [s.kind for s in specs] == ["flash_crowd", "slowdown"]
        assert specs[1].shard == 1

    def test_load_injections_guides_on_bad_files(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_injections(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_injections(bad)
        wrong_shape = tmp_path / "shape.json"
        wrong_shape.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="injections"):
            load_injections(wrong_shape)


class TestApplyInjections:
    def test_flash_crowd_is_deterministic_and_additive(self):
        scenario = _scenario()
        injections = (InjectionSpec(kind="flash_crowd", at=6.0, tasks=5),)
        once = apply_injections(scenario, injections)
        twice = apply_injections(scenario, injections)
        assert repr(once.events) == repr(twice.events)
        arrivals = [e for e in once.events
                    if isinstance(e, TaskArrival) and e.time == 6.0]
        base_arrivals = [e for e in scenario.events
                         if isinstance(e, TaskArrival) and e.time == 6.0]
        assert len(arrivals) - len(base_arrivals) == 5
        # Fresh task ids: no collision with the base trace.
        base_ids = {e.task.task_id for e in scenario.events
                    if isinstance(e, TaskArrival)}
        new_ids = {e.task.task_id for e in once.events
                   if isinstance(e, TaskArrival)} - base_ids
        assert len(new_ids) == 5

    def test_flash_crowd_leaves_input_scenario_untouched(self):
        scenario = _scenario()
        before = repr(scenario.events)
        apply_injections(
            scenario, (InjectionSpec(kind="flash_crowd", at=3.0, tasks=3),)
        )
        assert repr(scenario.events) == before

    def test_region_outage_moves_leaves_without_duplicating(self):
        scenario = _scenario()
        at = 8.0
        outage = InjectionSpec(
            kind="region_outage", at=at, x=0.0, y=0.0, radius=1e9
        )
        hit = apply_injections(scenario, (outage,))
        # Moved, never duplicated: one leave per worker either way.
        assert len(hit.events) == len(scenario.events)

        def leaves(events):
            return {e.worker_id: e.time for e in events
                    if isinstance(e, WorkerLeave)}

        before, after = leaves(scenario.events), leaves(hit.events)
        assert set(before) == set(after)
        # Every worker present at the outage with a later scheduled
        # departure now leaves at the outage instant (radius covers
        # the whole region); everyone else is untouched.
        joins = {e.worker.worker_id: e.time for e in scenario.events
                 if isinstance(e, WorkerJoin)}
        moved = 0
        for worker_id, leave_time in before.items():
            if joins[worker_id] <= at < leave_time:
                assert after[worker_id] == at
                moved += 1
            else:
                assert after[worker_id] == leave_time
        assert moved > 0

    def test_slowdown_is_not_a_trace_transform(self):
        scenario = _scenario()
        unchanged = apply_injections(
            scenario, (InjectionSpec(kind="slowdown", op_budget=100),)
        )
        assert repr(unchanged.events) == repr(scenario.events)

    def test_chaos_layer_caps_the_epoch_op_budget(self):
        class Server:
            op_epoch_budget = None

        server = Server()
        ChaosLayer(op_budget=250).bind(server)
        assert server.op_epoch_budget == 250


# ----------------------------------------------------------------------
# Spec-driven runtimes
# ----------------------------------------------------------------------
STREAM_SPEC = RunSpec(
    mode="stream",
    workload=WorkloadSpec(
        horizon=12, task_rate=0.4, task_slots=10, initial_workers=16,
        join_rate=0.8, mean_lifetime=12.0, seed=9,
    ),
    k=2, epoch_length=3.0, budget_fraction=0.6,
    max_active_tasks=4, max_queue_depth=8,
)


class TestApproxRuntime:
    def test_approx_off_reports_no_certificates(self):
        outcome = build_runtime(STREAM_SPEC).run()
        assert outcome.certificates is None

    def test_stream_top_c_certifies_every_completed_task(self):
        spec = STREAM_SPEC.replace(approx="top_c", approx_top_c=3)
        outcome = build_runtime(spec).run()
        assert outcome.certificates
        assert all(0.0 <= c <= 1.0 for c in outcome.certificates.values())

    def test_plain_measured_ratio_clears_certificate_per_task(self):
        base = RunSpec(
            mode="plain",
            workload=WorkloadSpec(tasks=5, slots=32, workers=150, seed=13),
            budget_fraction=0.3,
        )
        exact = build_runtime(base).run()
        degraded = build_runtime(
            base.replace(approx="top_c", approx_top_c=3)
        ).run()
        exact_q = dict(exact.qualities)
        compared = 0
        for task_id, certificate in degraded.certificates.items():
            if exact_q.get(task_id, 0.0) <= 0.0:
                continue
            measured = degraded.qualities[task_id] / exact_q[task_id]
            assert measured + 1e-9 >= certificate
            compared += 1
        assert compared > 0

    def test_auto_ladder_escalates_under_injected_overload(self):
        from repro.runtime.factory import StreamRuntime

        spec = STREAM_SPEC.replace(
            workload=STREAM_SPEC.workload,
            approx="auto", approx_top_c=3, approx_floor=0.2,
            telemetry=True, degrade_queue_high=2, degrade_queue_low=1,
            max_queue_depth=6,
        ).validate()
        injections = (
            InjectionSpec(kind="flash_crowd", at=3.0, tasks=10),
            InjectionSpec(kind="slowdown", op_budget=80),
        )
        trace = apply_injections(StreamRuntime(spec).scenario(), injections)
        runtime = StreamRuntime(spec, scenario=trace, chaos=injections)
        runtime.run()
        controller = runtime.server.degradation
        assert controller is not None
        assert controller.transitions            # the ladder moved
        assert max(t[2] for t in controller.transitions) >= 1

    def test_journal_x_slowdown_is_a_typed_rejection(self, tmp_path):
        from repro.runtime.factory import StreamRuntime

        spec = STREAM_SPEC.replace(journal=str(tmp_path / "j")).validate()
        runtime = StreamRuntime(
            spec, chaos=(InjectionSpec(kind="slowdown", op_budget=50),)
        )
        with pytest.raises(SpecError, match="replay"):
            runtime.server


# ----------------------------------------------------------------------
# The CLI surface
# ----------------------------------------------------------------------
SIM = ["simulate", "--seed", "9", "--horizon", "12", "--task-rate", "0.4",
       "--task-slots", "10", "--initial-workers", "16", "--join-rate", "0.8",
       "--mean-lifetime", "12", "--epoch", "3", "--budget-fraction", "0.6",
       "--max-active", "4", "--queue-depth", "8", "--k", "2"]


class TestDegradeCLI:
    def test_parser_accepts_degrade_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--approx", "auto", "--top-c", "3",
             "--floor", "0.2", "--slo-p99", "16", "--inject", "f.json"]
        )
        assert args.approx == "auto"
        assert args.top_c == 3
        assert args.floor == 0.2
        assert args.slo_p99 == 16.0
        assert args.inject == "f.json"

    def test_simulate_with_static_approx(self, capsys):
        assert main(SIM + ["--approx", "top_c", "--top-c", "3"]) == 0
        assert "streaming report" in capsys.readouterr().out

    def test_inject_end_to_end(self, tmp_path, capsys):
        inject = tmp_path / "inject.json"
        inject.write_text(json.dumps({"injections": [
            {"kind": "flash_crowd", "at": 3.0, "tasks": 6},
            {"kind": "slowdown", "op_budget": 200},
        ]}))
        assert main(SIM + ["--inject", str(inject)]) == 0
        out = capsys.readouterr().out
        assert "inject: 2 injections" in out
        assert "streaming report" in out

    def test_inject_is_incompatible_with_resume(self, tmp_path, capsys):
        inject = tmp_path / "inject.json"
        inject.write_text(json.dumps({"injections": []}))
        code = main(SIM + ["--inject", str(inject), "--resume",
                           "--journal", str(tmp_path / "j")])
        assert code == 2
        assert "--resume" in capsys.readouterr().err

    def test_bad_inject_file_is_a_clean_cli_error(self, tmp_path, capsys):
        assert main(SIM + ["--inject", str(tmp_path / "nope.json")]) == 2
        assert "nope.json" in capsys.readouterr().err

    def test_unsupported_pairing_is_a_clean_cli_error(self, capsys):
        code = main(SIM + ["--approx", "top_c", "--top-c", "3",
                           "--shards", "2"])
        assert code == 2
        assert "approx" in capsys.readouterr().err

    def test_crash_at_past_end_warns_and_completes(self, tmp_path, capsys):
        """Satellite 2: a --crash-at boundary past the trace's last
        event cannot fire; say so instead of silently never crashing."""
        code = main(SIM + ["--journal", str(tmp_path / "j"),
                           "--crash-at", "100000"])
        captured = capsys.readouterr()
        assert code == 0
        assert "at or beyond" in captured.err
        assert "will complete without crashing" in captured.err
        assert "streaming report" in captured.out

    def test_crash_at_within_trace_does_not_warn(self, tmp_path, capsys):
        code = main(SIM + ["--journal", str(tmp_path / "j"),
                           "--crash-at", "5"])
        captured = capsys.readouterr()
        assert code == 0
        assert "at or beyond" not in captured.err
        assert "crash injected" in captured.out

    def test_bench_degrade_smoke(self, bench_smoke):
        out, _ = bench_smoke("degrade")
        assert "certificate" in out


class TestDegradeSuitePayload:
    def test_smoke_payload_clears_every_gate(self):
        from repro.bench.degradesuite import check_payload, run_suite

        payload = run_suite(smoke=True)
        assert check_payload(payload) == []
        arms = {cell["arm"] for cell in payload["cells"]}
        assert {"identity", "certificate", "overload", "rejection"} <= arms
