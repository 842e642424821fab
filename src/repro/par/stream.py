"""The executor-aware sharded streaming drain.

:func:`drain_sharded` replaces the shard-by-shard ``drive`` loop of
:meth:`~repro.shard.streaming.ShardedStreamingServer._drain` when the
server carries an :class:`~repro.par.executor.Executor`: each shard's
routed sub-trace becomes a JSON work unit (:mod:`repro.par.work`), the
executor runs the units wherever it runs (inline or in worker
processes), and the returned exact snapshots are restored into the
parent's matching cores **in shard-id order** — so plan signatures,
:class:`~repro.stream.metrics.StreamMetrics`, op counters, and the
modeled :class:`~repro.parallel.simcluster.SimCluster` makespan are
byte-identical to the serial drain, whatever order the workers
finished in.

Telemetry crosses the boundary the same way: each worker observes its
shard with a private recorder / registry / profiler
(:class:`repro.par.work._ShardTelemetry`) and
:func:`merge_shard_telemetry` folds the exports back into the parent
bundle in shard-id order.  The serial drain records shards strictly
one after another, so re-stamping the worker records in that same
order reproduces the serial record interleaving — the masked trace
stays byte-identical, and :meth:`~repro.obs.layer.Telemetry.finish`
still emits the phase summaries from the parent side exactly once.
"""

from __future__ import annotations

from repro.parallel.simcluster import SimCluster, WorkItem
from repro.par.work import (
    decode_stream_result,
    encode_stream_unit,
    run_stream_unit,
)

__all__ = ["drain_sharded", "merge_shard_telemetry"]


def drain_sharded(server, per_shard, metrics):
    """Drain every shard through ``server.executor``; merge exactly.

    ``server`` is a :class:`~repro.shard.streaming.ShardedStreamingServer`
    whose ``executor`` is set; ``per_shard`` / ``metrics`` come from its
    deterministic :meth:`route` pass.  Returns the merged
    :class:`~repro.shard.streaming.ShardedStreamMetrics`, shaped
    exactly as the serial drain would have shaped it.
    """
    from repro.journal.snapshot import restore_server_state

    telemetry = server.telemetry
    payloads = [
        encode_stream_unit(
            shard=shard,
            bbox=server.bbox,
            server_kwargs=server._server_kwargs,
            events=trace,
            telemetry=telemetry is not None,
            scope=None
            if telemetry is None
            else telemetry.profiler(shard).scope,
        )
        for shard, trace in enumerate(per_shard)
    ]
    results = server.executor.map_units(run_stream_unit, payloads)
    items: list[list[WorkItem]] = []
    for shard, result in enumerate(results):
        data = decode_stream_result(result)
        core = server.servers[shard]
        restore_server_state(core, data["state"])
        if telemetry is not None:
            merge_shard_telemetry(telemetry, shard, data["telemetry"])
        metrics.per_shard.append(core._metrics)
        items.append(
            [WorkItem(owner=shard, cost=core.counters.virtual_cost())]
        )
    cluster = SimCluster(server.num_shards)
    cluster.run_partitions(items)
    metrics.makespan = cluster.clock
    metrics.serial_cost = sum(item.cost for row in items for item in row)
    return metrics


def merge_shard_telemetry(telemetry, shard: int, export: dict) -> None:
    """Fold one shard's worker-side telemetry export into the parent.

    Called in shard-id order.  Trace records are re-stamped by the
    parent recorder (fresh monotonic ``seq``, write-through framing if
    the trace streams to disk); registry state merges by metric name;
    profiler stats accumulate into the parent's per-shard profiler so
    :meth:`~repro.obs.layer.Telemetry.finish` emits the ``phases``
    summaries in their usual end-of-run position.
    """
    from repro.core.instrumentation import OpCounters

    for record in export["records"]:
        payload = dict(record)
        record_type = payload.pop("type")
        payload.pop("seq")
        telemetry.recorder.record(record_type, **payload)
    telemetry.registry.merge_state(export["registry"])
    profiler = telemetry.profiler(shard)
    for name, stat_state in export["profiler"].items():
        stat = profiler.stats.setdefault(name, _fresh_stat())
        stat.calls += stat_state["calls"]
        stat.wall_s += stat_state["wall_s"]
        stat.ops.merge(OpCounters(**stat_state["ops"]))


def _fresh_stat():
    from repro.obs.profile import PhaseStat

    return PhaseStat()
