"""Durable serving: write-ahead journal, snapshots, crash-consistent replay.

The streaming and sharded servers are in-memory; a crash mid-stream
loses every committed assignment, budget balance, and live session.
This package adds an *event-sourced* durability layer whose recovery
is **provably exact** rather than best-effort: because every solver in
the repo is deterministic in its input events (the determinism policy,
DESIGN.md §7), a recovered run reproduces the uninterrupted run's
``plan_signature()``, ``StreamMetrics``, and ``OpCounters``
byte-for-byte — and the tests and benchmarks hard-assert it.

Three pieces:

* :mod:`repro.journal.wal` — a checksummed append-only write-ahead
  log with typed records (events, slot commits, budget charges,
  finalizations, epoch markers), truncated-tail tolerance, and
  compaction; plus the :class:`~repro.journal.wal.Journal` directory
  manager that pairs the log with its snapshots.
* :mod:`repro.journal.snapshot` — an exact state codec for
  :class:`~repro.stream.online_server.StreamingTCSCServer`: worker
  registry, live sessions (quality evaluators re-executed bit-for-bit,
  tree indexes copied verbatim), budget pools, metrics, and counters.
* :mod:`repro.journal.layer` — the :class:`JournalLayer` serving
  layer (logs before applying, snapshots at epoch boundaries, recovers
  via latest-snapshot + log-suffix replay), the fault-injection crash
  harness, and the :func:`journaled_server` / :func:`recover_server`
  constructors; :mod:`repro.journal.sharded` composes one journal
  layer per shard of the sharded streaming deployment
  (:func:`sharded_journaled_server` / :func:`recover_sharded_server`
  / :func:`resume_sharded`).
"""

from repro.journal.layer import (
    CrashBudget,
    InjectedCrash,
    JournalLayer,
    RecoveryInfo,
    journal_layer,
    journaled_server,
    recover_server,
)
from repro.journal.sharded import (
    recover_sharded_server,
    resume_sharded,
    sharded_journaled_server,
)
from repro.journal.snapshot import restore_server_state, server_state
from repro.journal.wal import Journal, WriteAheadLog, decode_event, encode_event

__all__ = [
    "CrashBudget",
    "InjectedCrash",
    "Journal",
    "JournalLayer",
    "RecoveryInfo",
    "WriteAheadLog",
    "decode_event",
    "encode_event",
    "journal_layer",
    "journaled_server",
    "recover_sharded_server",
    "recover_server",
    "restore_server_state",
    "resume_sharded",
    "server_state",
    "sharded_journaled_server",
]
