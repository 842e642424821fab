"""The ``serial | process`` executor abstraction.

One :class:`Executor` decides *where* a batch of independent work runs:

* ``serial`` — inline, in submission order.  The reference: every
  identity gate compares the process kind against it.
* ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor`.
  Work must be submitted as JSON strings through :meth:`map_units`
  with a *module-level* unit function (:mod:`repro.par.work`), so
  nothing pickle-dependent ever crosses the boundary.

There is no thread kind: the GIL serializes the solvers' bytecode, and
a thread pool measured 0.38-1.04x against serial (DESIGN.md §14).

Determinism: :meth:`map_units` always returns results in submission
order, whatever order the workers finish in.  Each call creates and
shuts down its own pool, so nothing outlives the batch.  A worker that
dies mid-batch breaks only that pool: units are pure functions of
their JSON payloads, so the batch runs once more on a fresh pool, and
a second death raises :class:`~repro.errors.SchedulingError`.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

from repro.errors import ConfigurationError, SchedulingError

__all__ = [
    "EXECUTOR_KINDS",
    "Executor",
    "executor_from_spec",
    "validate_max_workers",
]

EXECUTOR_KINDS = ("serial", "process")


def validate_max_workers(max_workers: int) -> int:
    """The shared ``--max-workers`` validation (CLI + constructor).

    Raises a typed :class:`~repro.errors.ConfigurationError` on
    ``max_workers < 1`` instead of letting a zero-width pool surface
    as a deep ``concurrent.futures`` traceback.
    """
    if max_workers < 1:
        raise ConfigurationError(
            f"max_workers must be >= 1, got {max_workers}"
        )
    return max_workers


class Executor:
    """Run independent work units serially or in worker processes."""

    def __init__(self, kind: str = "serial", *, max_workers: int | None = None):
        if kind not in EXECUTOR_KINDS:
            raise ConfigurationError(
                f"unknown executor kind {kind!r}; "
                f"choose one of {EXECUTOR_KINDS}"
            )
        if max_workers is not None:
            validate_max_workers(max_workers)
        self.kind = kind
        self.max_workers = max_workers

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def _cap(self) -> int:
        """Pool width: ``max_workers``, else the CPUs this process may
        run on (its affinity mask where the platform exposes one)."""
        if self.max_workers:
            return self.max_workers
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1

    # ------------------------------------------------------------------
    # JSON work units (module-level unit functions; process-safe)
    # ------------------------------------------------------------------
    def map_units(self, fn: Callable[[str], str], payloads: Sequence[str]) -> list:
        """``[fn(p) for p in payloads]``, wherever this executor runs.

        Results come back in submission order regardless of completion
        order; worker exceptions propagate to the caller.  For the
        ``process`` kind, ``fn`` must be importable at module level
        (the unit functions of :mod:`repro.par.work`).  A pool broken
        by a dying worker is replaced once; a second break raises
        :class:`~repro.errors.SchedulingError`.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        if self.kind == "serial":
            return [fn(payload) for payload in payloads]
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        width = min(len(payloads), self._cap())
        for _attempt in range(2):
            try:
                with ProcessPoolExecutor(max_workers=width) as pool:
                    return list(pool.map(fn, payloads))
            except BrokenProcessPool as exc:
                broken = exc
        name = getattr(fn, "__qualname__", repr(fn))
        raise SchedulingError(
            f"a worker process died running {name} on two fresh pools"
        ) from broken


def executor_from_spec(spec) -> Executor | None:
    """The spec's executor, or ``None`` for the legacy serial paths.

    ``None`` (not ``Executor("serial")``) keeps the default runtime
    composition byte-for-byte on the original code paths — executor
    plumbing only engages when a spec opts in.
    """
    if spec.executor == "serial":
        return None
    return Executor(spec.executor, max_workers=spec.max_workers)
