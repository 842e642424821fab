"""Per-layer metrics from a traced pass (see README.md for what each moves).

Every ``*_s`` metric is the layer's *self* time summed over the traced
drains; ``*_calls`` and the other counts are exact call counts.  For
``stream-sharded-process`` the in-shard layers (stream, tree index,
paint tree, evaluator) run in worker processes, which are not traced;
their numbers come from the traced inline replay of the same shard
payloads.
"""

from __future__ import annotations

from repro.core.instrumentation import OpCounters

# (metric, unit, layer, "self" | "calls")
SPAN_METRICS = (
    ("workloads.trajectory_s", "s", "workloads.trajectory", "self"),
    ("workloads.trajectory_calls", "count", "workloads.trajectory", "calls"),
    ("workloads.build_s", "s", "workloads.build", "self"),
    ("runtime.build_s", "s", "runtime.build", "self"),
    ("serving.assign_s", "s", "serving.assign", "self"),
    ("stream.step_epoch_s", "s", "stream.step_epoch", "self"),
    ("stream.epochs", "count", "stream.step_epoch", "calls"),
    ("stream.session_step_s", "s", "stream.session_step", "self"),
    ("stream.session_steps", "count", "stream.session_step", "calls"),
    ("stream.finish_s", "s", "stream.finish", "self"),
    ("tree_index.build_s", "s", "tree_index.build", "self"),
    ("tree_index.builds", "count", "tree_index.build", "calls"),
    ("tree_index.refresh_slots_s", "s", "tree_index.refresh_slots", "self"),
    ("tree_index.refresh_range_s", "s", "tree_index.refresh_range", "self"),
    ("tree_index.refresh_range_calls", "count", "tree_index.refresh_range", "calls"),
    ("tree_index.find_best_s", "s", "tree_index.find_best", "self"),
    ("tree_index.find_best_calls", "count", "tree_index.find_best", "calls"),
    ("evaluator.gain_s", "s", "evaluator.gain", "self"),
    ("evaluator.gain_calls", "count", "evaluator.gain", "calls"),
    ("evaluator.execute_s", "s", "evaluator.execute", "self"),
    ("evaluator.execute_calls", "count", "evaluator.execute", "calls"),
    ("greedy.solve_s", "s", "greedy.solve", "self"),
    ("greedy.solves", "count", "greedy.solve", "calls"),
    ("costs.table_build_s", "s", "costs.table_build", "self"),
    ("registry.nearest_s", "s", "registry.nearest", "self"),
    ("registry.nearest_calls", "count", "registry.nearest", "calls"),
    ("assignment.add_s", "s", "assignment.add", "self"),
    ("assignment.add_calls", "count", "assignment.add", "calls"),
    ("shard.route_s", "s", "shard.route", "self"),
    ("par.encode_s", "s", "par.encode", "self"),
    ("par.decode_s", "s", "par.decode", "self"),
    ("par.map_units_s", "s", "par.map_units", "self"),
    ("snapshot.restore_s", "s", "snapshot.restore", "self"),
    ("realization.simulate_s", "s", "realization.simulate", "self"),
)

OPS = (
    "gain_evaluations",
    "slot_evaluations",
    "worker_cost_lookups",
    "tree_node_updates",
    "tree_node_visits",
    "index_full_builds",
    "index_incremental_refreshes",
)

DERIVED_UNITS = {
    "tree_index.rebuild_ratio": "ratio",
    "range_tree.add_calls": "count",
    "range_tree.max_in_calls": "count",
    "evaluator.gains_per_commit": "ratio",
    "shard.route_skew": "ratio",
    "par.payload_bytes": "bytes",
    "par.result_bytes": "bytes",
    "par.shard_solve_max_s": "s",
    "par.shard_solve_sum_s": "s",
    "par.ship_overhead_s": "s",
    "par.shard_skew": "ratio",
    "par.measured_speedup": "ratio",
    "par.modeled_speedup": "ratio",
    **{f"ops.{name}": "count" for name in OPS},
    "ops.virtual_cost": "op-units",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

UNITS = {name: unit for name, unit, _, _ in SPAN_METRICS} | DERIVED_UNITS


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, replay, drains, shard_solves, untraced_wall, traced_wall) -> dict:
    """Every per-layer metric, with its unit, for one traced pass."""

    def self_s(layer):
        return tracer.self_s(layer) + replay.self_s(layer)

    def calls(layer):
        return tracer.calls(layer) + replay.calls(layer)

    values = {
        name: self_s(layer) if kind == "self" else calls(layer)
        for name, _, layer, kind in SPAN_METRICS
    }
    builds = calls("tree_index.build")
    values["tree_index.rebuild_ratio"] = _ratio(builds, builds + calls("tree_index.refresh_slots"))
    for name in ("range_tree.add", "range_tree.max_in"):
        values[f"{name}_calls"] = tracer.counts.get(name, 0) + replay.counts.get(name, 0)
    values["evaluator.gains_per_commit"] = _ratio(
        calls("evaluator.gain"), calls("evaluator.execute")
    )
    routed = [sum(column) for column in zip(*(d.tasks_routed for d in drains))]
    values["shard.route_skew"] = _ratio(max(routed), sum(routed) / len(routed)) if routed else 0.0
    values["par.payload_bytes"] = sum(len(p.encode()) for p in tracer.unit_payloads)
    values["par.result_bytes"] = sum(len(r.encode()) for r in tracer.unit_results)
    solve_max = sum(max(solves) for solves in shard_solves)
    solve_sum = sum(sum(solves) for solves in shard_solves)
    solve_mean = sum(sum(solves) / len(solves) for solves in shard_solves)
    map_units = values["par.map_units_s"]
    values["par.shard_solve_max_s"] = solve_max
    values["par.shard_solve_sum_s"] = solve_sum
    values["par.ship_overhead_s"] = map_units - solve_max if shard_solves else 0.0
    values["par.shard_skew"] = _ratio(solve_max, solve_mean)
    values["par.measured_speedup"] = _ratio(solve_sum, map_units)
    modeled = [d.modeled_speedup for d in drains if d.modeled_speedup]
    values["par.modeled_speedup"] = sum(modeled) / len(modeled) if modeled else 0.0
    ops = OpCounters()
    for drain in drains:
        ops.merge(drain.counters)
    for name in OPS:
        values[f"ops.{name}"] = getattr(ops, name)
    values["ops.virtual_cost"] = ops.virtual_cost()
    values["trace.overhead_frac"] = _ratio(traced_wall - untraced_wall, untraced_wall)
    values["trace.unattributed_frac"] = 1.0 - _ratio(tracer.attributed_s(), traced_wall)
    return {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
