"""The ``serial | process`` executor abstraction.

One :class:`Executor` decides *where* a batch of independent work runs:

* ``serial`` — inline, in submission order.  The reference: every
  identity gate compares the process kind against it.
* ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor`.
  Work must be submitted as JSON strings through :meth:`map_units`
  with a *module-level* unit function (:mod:`repro.par.work`), so
  nothing pickle-dependent ever crosses the boundary.

There is no thread kind: the GIL serializes the solvers' bytecode, and
a thread pool measured 0.38-1.04x against serial on the committed
``bench par`` cells (DESIGN.md §14).

Determinism: :meth:`map_units` always returns results in submission
order, whatever order the workers finish in.

``persistent=True`` keeps the process pool warm across calls — the
bench suite sweeps many runs and should pay the fork cost once; the
one-shot runtime paths use a per-call pool so nothing leaks.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

from repro.errors import ConfigurationError

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

    def __init__(
        self,
        kind: str = "serial",
        *,
        max_workers: int | None = None,
        persistent: bool = False,
    ):
        if kind not in EXECUTOR_KINDS:
            raise ConfigurationError(
                f"unknown executor kind {kind!r}; "
                f"choose one of {EXECUTOR_KINDS}"
            )
        if max_workers is not None:
            validate_max_workers(max_workers)
        self.kind = kind
        self.max_workers = max_workers
        self.persistent = persistent
        self._pool = None

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def _cap(self) -> int:
        """Pool width: ``max_workers``, else the host's CPU count."""
        return self.max_workers or (os.cpu_count() or 1)

    # ------------------------------------------------------------------
    # JSON work units (module-level unit functions; process-safe)
    # ------------------------------------------------------------------
    def map_units(self, fn: Callable[[str], str], payloads: Sequence[str]) -> list:
        """``[fn(p) for p in payloads]``, wherever this executor runs.

        Results come back in submission order regardless of completion
        order; worker exceptions propagate to the caller.  For the
        ``process`` kind, ``fn`` must be importable at module level
        (the unit functions of :mod:`repro.par.work`).
        """
        payloads = list(payloads)
        if not payloads:
            return []
        if self.kind == "serial":
            return [fn(payload) for payload in payloads]
        from concurrent.futures import ProcessPoolExecutor

        if self.persistent:
            if self._pool is None:
                # Sized by the cap, not the first batch: a warm pool
                # outlives many differently-sized sweeps, and a small
                # first call must not pin its width for the large ones.
                self._pool = ProcessPoolExecutor(max_workers=self._cap())
            return list(self._pool.map(fn, payloads))
        width = min(len(payloads), self._cap())
        with ProcessPoolExecutor(max_workers=width) as pool:
            return list(pool.map(fn, payloads))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down a persistent process pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def executor_from_spec(spec) -> Executor | None:
    """The spec's executor, or ``None`` for the legacy serial paths.

    ``None`` (not ``Executor("serial")``) keeps the default runtime
    composition byte-for-byte on the original code paths — executor
    plumbing only engages when a spec opts in.
    """
    if spec.executor == "serial":
        return None
    return Executor(spec.executor, max_workers=spec.max_workers)
