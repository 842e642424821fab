"""Multi-task assignment (Section IV): MSQM, MMQM, and parallelization.

* :mod:`repro.multi.task_state` — per-task solver state shared by all
  multi-task algorithms (evaluator + live cost provider + optional
  tree index).
* :mod:`repro.multi.msqm` — Problem 2, maximizing the summation
  quality, serial greedy with CELF-style candidate caching.
* :mod:`repro.multi.mmqm` — Problem 3, maximizing the minimum quality.
* :mod:`repro.multi.conflicts` — worker-conflict detection and the
  NN-bound independence graph (Section IV-A.1).
* :mod:`repro.multi.grouping` — group-level parallelization.
* :mod:`repro.multi.scheduler` — task-level parallelization with the
  master thread's Heartbeat / Conflicting / Logging tables (Fig. 5),
  on the virtual-clock simulator and on real threads.
"""

from repro.multi.conflicts import ConflictRecord, build_independence_graph, detect_conflicts
from repro.multi.grouping import GroupLevelParallelSolver
from repro.multi.mmqm import MinQualityGreedy
from repro.multi.msqm import SumQualityGreedy
from repro.multi.result import MultiSolverResult, MultiStep
from repro.multi.scheduler import TaskLevelParallelSolver
from repro.multi.task_state import TaskState

__all__ = [
    "ConflictRecord",
    "GroupLevelParallelSolver",
    "MinQualityGreedy",
    "MultiSolverResult",
    "MultiStep",
    "SumQualityGreedy",
    "TaskLevelParallelSolver",
    "TaskState",
    "build_independence_graph",
    "detect_conflicts",
]
