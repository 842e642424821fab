"""Durable sharded streaming: one journal layer per shard.

PR 4 paired durability with sharding through a dedicated subclass;
after the PR-5 refactor the pairing is pure composition: a
:class:`~repro.shard.streaming.ShardedStreamingServer` whose
``server_factory`` attaches a :class:`~repro.journal.layer.JournalLayer`
to each shard's core, each owning ``<root>/shard-<i>``, with the
deployment-level routing configuration in ``<root>/meta.json`` so
recovery needs only the journal root (plus the regenerable trace).

Because routing is a pure function of the trace and the partitioner
(DESIGN.md §6.3), recovery re-routes the full trace and resumes every
shard against its own journal: shards that finished before the crash
reload their final snapshot and merely re-realize, the crashed shard
replays its log suffix, and shards that never started recover to a
fresh state and consume their whole sub-trace.  The merged metrics,
op-count makespan, and combined plan are byte-identical to an
uninterrupted run — the journal bench suite asserts it for shard
counts 1, 2, and 4 at every event boundary.

Fault injection shares one :class:`~repro.journal.layer.CrashBudget`
across the shard layers, so ``crash_after_events=K`` counts event
boundaries in the deployment's serial run order.

Module functions (:func:`sharded_journaled_server`,
:func:`recover_sharded_server`, :func:`resume_sharded`) are what
:func:`repro.runtime.build_runtime` composes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import JournalCorruptionError, SchedulingError
from repro.geo.bbox import BoundingBox
from repro.journal.layer import (
    CrashBudget,
    journal_layer,
    journaled_server,
    recover_server,
)
from repro.shard.streaming import ShardedStreamingServer, ShardedStreamMetrics

__all__ = [
    "read_sharded_meta",
    "recover_sharded_server",
    "resume_sharded",
    "sharded_journaled_server",
]


# ----------------------------------------------------------------------
# Deployment metadata (<root>/meta.json)
# ----------------------------------------------------------------------
def _write_sharded_meta(root: Path, meta: dict) -> None:
    path = root / "meta.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def read_sharded_meta(journal_root: str | Path) -> dict:
    """The deployment's routing configuration (typed failure)."""
    meta_path = Path(journal_root) / "meta.json"
    try:
        return json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise JournalCorruptionError(
            f"{meta_path}: unreadable sharded-journal metadata: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Per-shard composition
# ----------------------------------------------------------------------
def _shard_factory(
    root: Path,
    *,
    snapshot_every: int,
    sync: bool,
    crash_budget: CrashBudget | None,
    resuming: bool,
    telemetry=None,
):
    """A ``server_factory`` that journals every shard core.

    Fresh deployments build core + layer and write each shard's open
    header; resuming ones recover each core from its own journal
    (``snapshot_every`` then overrides the interrupted cadence).  A
    :class:`~repro.obs.layer.Telemetry` bundle composes per-shard
    observability onto fresh cores (never persisted — a recovered run
    attaches its own).
    """

    def factory(shard: int, bbox, server_kwargs: dict):
        path = root / f"shard-{shard}"
        if resuming:
            return recover_server(
                path,
                sync=sync,
                snapshot_every=snapshot_every,
                crash_after_events=crash_budget,
            )
        return journaled_server(
            bbox,
            journal=path,
            snapshot_every=snapshot_every,
            sync=sync,
            crash_after_events=crash_budget,
            wrap_layer=None if telemetry is None else telemetry.journal_wrap(shard),
            extra_layers=() if telemetry is None else telemetry.layers(shard),
            **server_kwargs,
        )

    return factory


def sharded_journaled_server(
    bbox: BoundingBox,
    *,
    journal_root: str | Path,
    num_shards: int,
    cells_per_side: int | None = None,
    halo_margin: str | float = "auto",
    snapshot_every: int = 4,
    sync: bool = False,
    crash_after_events: int | CrashBudget | None = None,
    crash_phase: str = "apply",
    telemetry=None,
    **server_kwargs,
) -> ShardedStreamingServer:
    """A fresh sharded deployment with one journal layer per shard.

    ``telemetry`` composes per-shard observability onto each core; it
    is deliberately absent from ``meta.json`` — observability is a
    per-run choice, not part of the durable configuration.
    """
    root = Path(journal_root)
    root.mkdir(parents=True, exist_ok=True)
    crash = CrashBudget.coerce(crash_after_events, crash_phase)
    server = ShardedStreamingServer(
        bbox,
        num_shards=num_shards,
        cells_per_side=cells_per_side,
        halo_margin=halo_margin,
        server_factory=_shard_factory(
            root,
            snapshot_every=snapshot_every,
            sync=sync,
            crash_budget=crash,
            resuming=False,
            telemetry=telemetry,
        ),
        **server_kwargs,
    )
    _write_sharded_meta(
        root,
        {
            "bbox": [bbox.min_x, bbox.min_y, bbox.max_x, bbox.max_y],
            "num_shards": num_shards,
            "cells_per_side": cells_per_side,
            # Resolved to a plain radius so recovery cannot re-derive
            # it differently.
            "halo_margin": server.halo_margin,
            "snapshot_every": snapshot_every,
            "server_kwargs": dict(server_kwargs),
        },
    )
    return server


def recover_sharded_server(
    journal_root: str | Path,
    *,
    sync: bool = False,
    snapshot_every: int | None = None,
    crash_after_events: int | CrashBudget | None = None,
    crash_phase: str = "apply",
) -> ShardedStreamingServer:
    """Rebuild the deployment from its journal root.

    ``snapshot_every=None`` keeps the interrupted run's cadence;
    ``crash_after_events`` arms fault injection *during the resumed
    run* (double-fault testing), counting boundaries across shards as
    usual.  Drive the result with :func:`resume_sharded`.
    """
    root = Path(journal_root)
    meta = read_sharded_meta(root)
    crash = CrashBudget.coerce(crash_after_events, crash_phase)
    cadence = meta["snapshot_every"] if snapshot_every is None else snapshot_every
    return ShardedStreamingServer(
        BoundingBox(*meta["bbox"]),
        num_shards=meta["num_shards"],
        cells_per_side=meta["cells_per_side"],
        halo_margin=meta["halo_margin"],
        server_factory=_shard_factory(
            root,
            snapshot_every=cadence,
            sync=sync,
            crash_budget=crash,
            resuming=True,
        ),
        **meta["server_kwargs"],
    )


def resume_sharded(
    server: ShardedStreamingServer, events
) -> ShardedStreamMetrics:
    """Re-route the full trace and resume every recovered shard.

    Routing is deterministic, so each shard's journal layer skips the
    pops its log already accounts for and continues live; the merged
    metrics match an uninterrupted run exactly.
    """
    if server._ran:
        raise SchedulingError(
            "a recovered sharded deployment resumes once; recover a "
            "fresh instance per attempt"
        )
    server._ran = True
    return server._drain(
        events, lambda shard, trace: journal_layer(shard).resume_with_trace(trace)
    )
