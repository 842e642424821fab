"""Parallel-execution substrate: the virtual-clock cluster.

CPython's GIL makes real CPU-parallel speedups unobservable for the
pure-Python solvers' threads, so the multi-task parallel framework of
Section IV is timed on :mod:`repro.parallel.simcluster` — a
deterministic *virtual-clock* multi-core simulator: work items carry
virtual costs (derived from the solvers' operation counters) and the
cluster computes round makespans for any core count.  This is what
reproduces the paper's time-vs-cores curves (Fig. 9a/f) on any host.

The master/worker message protocol runs only in virtual time
(:class:`~repro.multi.scheduler.TaskLevelParallelSolver`); real cores
for per-shard work are the ``process`` executor of :mod:`repro.par`.
"""

from repro.parallel.simcluster import SimCluster, WorkItem

__all__ = ["SimCluster", "WorkItem"]
