"""Benchmark support: reporters, shared workloads, and baselines.

The ``benchmarks/`` tree regenerates every table and figure of the
paper's evaluation (Section V plus Appendix C).  This package holds
the pieces the benchmark modules share: a row reporter that both
prints and persists each figure's series
(:mod:`repro.bench.report`), and the multi-task random baseline the
quality figures compare against (:mod:`repro.bench.baselines`).
:mod:`repro.bench.report` also drives the system suites
(``python -m repro bench SUITE``, one ``<suite>suite`` module each).
"""

from repro.bench.baselines import random_multi_assignment
from repro.bench.report import Reporter

__all__ = ["Reporter", "random_multi_assignment"]
