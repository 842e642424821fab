"""Real parallelism: the process-pool shard executor.

Every speedup before this package was either algorithmic (numpy +
CELF) or *modeled* (the :class:`~repro.parallel.simcluster.SimCluster`
op-count makespan).  ``repro.par`` makes the sharded speedup real:
per-shard work units cross an OS process boundary through the PR-4
exact snapshot codec (floats bit-exact via JSON shortest repr), run in
worker processes, and merge back through the existing deterministic
reconciliation / metric-merge protocols — byte-identical to the serial
paths in plan signature, :class:`~repro.stream.metrics.StreamMetrics`,
and :class:`~repro.core.instrumentation.OpCounters`.

* :class:`~repro.par.executor.Executor` — the ``serial | process``
  abstraction, spec-driven via ``RunSpec.executor`` +
  ``RunSpec.max_workers``.
* :mod:`repro.par.work` — JSON work-unit codecs and the top-level
  worker-process entry points (plain shard solves and stream shard
  drains).
* :mod:`repro.par.stream` — the executor-aware sharded drain,
  including the deterministic per-shard telemetry merge.

Determinism-across-processes argument (DESIGN.md §14): work units and
results are JSON strings, so no pickle-dependent representation can
drift; solves are deterministic functions of decoded state; results
are merged in shard-id order regardless of completion order.  CI gates
only that identity — wall-clock speedup is measured and reported by
``bench-par`` but never asserted.
"""

from repro.par.executor import (
    EXECUTOR_KINDS,
    Executor,
    executor_from_spec,
    validate_max_workers,
)

__all__ = [
    "EXECUTOR_KINDS",
    "Executor",
    "executor_from_spec",
    "validate_max_workers",
]
