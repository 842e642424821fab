"""Deterministic performance suite: the machine-readable perf trajectory.

``python -m repro bench perf`` runs seed-pinned micro and macro
benchmarks of the solver hot path and persists them as
``benchmarks/BENCH_perf.json``, the file the perf trajectory
accumulates in from PR to PR.

Two measurements per scenario, following the repo's determinism
policy:

* **operation counts** (``gain_evaluations`` / ``slot_evaluations`` /
  ``knn_queries``) — deterministic, the values CI gates on;
* **wall-clock seconds** — recorded for the human-readable speedup
  story, never asserted in CI.

Every macro scenario asserts *plan identity*: all benchmarked solver
variants (scalar/numpy backend x enumerated/lazy search x tree index)
must produce byte-identical assignments, so each speedup row is a
true apples-to-apples comparison of the same plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.instrumentation import OpCounters
from repro.engine.costs import SingleTaskCostTable
from repro.runtime import SolverVariant, build_single_task_solver
from repro.workloads.scenario import ScenarioConfig, build_scenario

__all__ = [
    "PerfScenario",
    "SCENARIOS",
    "SMOKE_SCENARIOS",
    "VARIANTS",
    "run_suite",
    "summary",
    "write_report_block",
    "check_payload",
]


#: The seed solver path every speedup is measured against.
BASELINE_VARIANT = "python-enumerate"
#: The optimized path this PR introduces.
OPTIMIZED_VARIANT = "numpy-lazy"

#: Lazy search must cut candidate heuristic evaluations to at most
#: this fraction of the enumerated argmax (deterministic CI gate).
LAZY_GAIN_EVAL_CEILING = 0.30


@dataclass(frozen=True, slots=True)
class PerfScenario:
    """One seed-pinned macro benchmark instance."""

    name: str
    m: int
    workers: int
    seed: int


#: Increasing-scale scenarios; the largest one (m >= 300, the paper's
#: default task length) carries the headline speedup number.
SCENARIOS = (
    PerfScenario("small", m=60, workers=300, seed=11),
    PerfScenario("medium", m=140, workers=600, seed=11),
    PerfScenario("large", m=300, workers=1000, seed=11),
)

#: CI smoke mode: just the smallest scenario (seconds, not minutes).
SMOKE_SCENARIOS = SCENARIOS[:1]


#: Solver variants benchmarked on every scenario, as the runtime's
#: shared :class:`~repro.runtime.SolverVariant` triples — the same
#: resolution the serving solvers use, so the suite cannot drift from
#: the production kwarg threading.  The seed hot path
#: (``python-enumerate``) uses scalar kernels with every candidate
#: re-scored per greedy round (the seed's faster ``strategy="local"``
#: configuration, so speedups are conservative).
VARIANTS = {
    "python-enumerate": SolverVariant(),
    "python-lazy": SolverVariant(search="lazy"),
    "numpy-enumerate": SolverVariant(backend="numpy"),
    "numpy-lazy": SolverVariant(backend="numpy", search="lazy"),
    "indexed-python": SolverVariant(use_index=True),
    "indexed-numpy": SolverVariant(backend="numpy", use_index=True),
}


def _run_scenario(scenario: PerfScenario) -> dict:
    built = build_scenario(
        ScenarioConfig(
            num_tasks=1,
            num_slots=scenario.m,
            num_workers=scenario.workers,
            seed=scenario.seed,
        )
    )
    task = built.single_task
    costs = SingleTaskCostTable(task, built.fresh_registry())
    variants: dict[str, dict] = {}
    signatures = {}
    for name, variant in VARIANTS.items():
        counters = OpCounters()
        solver = build_single_task_solver(
            variant, task, costs, budget=built.budget, counters=counters
        )
        start = time.perf_counter()
        result = solver.solve()
        elapsed = time.perf_counter() - start
        signatures[name] = result.assignment.plan_signature()
        variants[name] = {
            "wall_s": elapsed,
            "quality": result.quality,
            "gain_evaluations": counters.gain_evaluations,
            "slot_evaluations": counters.slot_evaluations,
            "knn_queries": counters.knn_queries,
            "candidates_total": counters.candidates_total,
            "candidates_pruned": counters.candidates_pruned,
            "iterations": counters.iterations,
        }
    reference = signatures[BASELINE_VARIANT]
    plan_identical = all(sig == reference for sig in signatures.values())
    # A divergence is reported through check_payload (the op-count
    # gate), not raised: the JSON must still be written so CI's
    # always()-uploaded artifact carries the diagnostic payload.
    base = variants[BASELINE_VARIANT]
    opt = variants[OPTIMIZED_VARIANT]
    return {
        "name": scenario.name,
        "m": scenario.m,
        "workers": scenario.workers,
        "seed": scenario.seed,
        "plan_identical": plan_identical,
        "divergent_variants": sorted(
            n for n, s in signatures.items() if s != reference
        ),
        "plan_length": len(reference),
        "variants": variants,
        "speedups": {
            "wall_numpy_lazy_vs_python_enumerate": base["wall_s"] / opt["wall_s"],
            "lazy_gain_evaluation_ratio": (
                opt["gain_evaluations"] / base["gain_evaluations"]
            ),
            "numpy_lazy_slot_evaluation_ratio": (
                opt["slot_evaluations"] / base["slot_evaluations"]
            ),
        },
    }


def _micro_phi(m: int = 300, k: int = 3, repeats: int = 200) -> dict:
    """Micro benchmark: one full-window vectorized gain vs the scalar loop."""
    from repro.core.evaluator import TemporalQualityEvaluator

    rows = {}
    for backend in ("python", "numpy"):
        ev = TemporalQualityEvaluator(m, k, backend=backend)
        for slot in range(20, m, 40):
            ev.execute(slot)
        candidate = 3
        start = time.perf_counter()
        for _ in range(repeats):
            ev.gain_full_rescan(candidate)
        elapsed = time.perf_counter() - start
        rows[backend] = {"wall_s": elapsed}
    return {"m": m, "k": k, "repeats": repeats, "full_rescan_gain": rows}


def run_suite(*, smoke: bool = False) -> dict:
    """Run the suite and return the machine-readable payload."""
    scenarios = SMOKE_SCENARIOS if smoke else SCENARIOS
    payload = {
        "suite": "perfsuite",
        "mode": "smoke" if smoke else "full",
        "baseline_variant": BASELINE_VARIANT,
        "optimized_variant": OPTIMIZED_VARIANT,
        "micro": _micro_phi(m=120 if smoke else 300, repeats=50 if smoke else 200),
        "scenarios": [_run_scenario(s) for s in scenarios],
    }
    return payload


def check_payload(payload: dict) -> list[str]:
    """Deterministic (op-count) gates; returns a list of failures.

    Wall-clock numbers are deliberately not checked — per the repo's
    determinism policy, CI gates only on operation counts.
    """
    failures = []
    for scenario in payload["scenarios"]:
        name = scenario["name"]
        if not scenario["plan_identical"]:
            failures.append(
                f"{name}: solver variants diverged from the "
                f"{payload['baseline_variant']} plan"
            )
        ratio = scenario["speedups"]["lazy_gain_evaluation_ratio"]
        if ratio > LAZY_GAIN_EVAL_CEILING:
            failures.append(
                f"{name}: lazy gain-evaluation ratio {ratio:.3f} exceeds "
                f"{LAZY_GAIN_EVAL_CEILING}"
            )
        base = scenario["variants"][BASELINE_VARIANT]
        opt = scenario["variants"][OPTIMIZED_VARIANT]
        for counter in ("iterations",):
            if base[counter] != opt[counter]:
                failures.append(
                    f"{name}: {counter} mismatch "
                    f"({base[counter]} vs {opt[counter]})"
                )
    return failures


def write_report_block(payload: dict, results_dir: Path) -> None:
    """Persist a human-readable summary block for REPORT.md."""
    from repro.bench import Reporter

    reporter = Reporter("perf1", "Perf suite: kernel backend x candidate search",
                        results_dir=results_dir)
    reporter.note(
        f"baseline={payload['baseline_variant']} "
        f"optimized={payload['optimized_variant']}; plans identical across all variants"
    )
    reporter.header("scenario", "m", "variant", "wall_s", "gain_evals", "slot_evals")
    for scenario in payload["scenarios"]:
        for name, row in scenario["variants"].items():
            reporter.row(
                scenario["name"], scenario["m"], name,
                row["wall_s"], row["gain_evaluations"], row["slot_evaluations"],
            )
    reporter.close()


def summary(payload: dict) -> list[str]:
    """One line per scenario: headline speedup and lazy gain-eval ratio."""
    lines = []
    for scenario in payload["scenarios"]:
        speed = scenario["speedups"]
        lines.append(
            f"{scenario['name']}: m={scenario['m']} "
            f"numpy+lazy {speed['wall_numpy_lazy_vs_python_enumerate']:.1f}x "
            f"wall-clock vs seed, lazy gain-eval ratio "
            f"{speed['lazy_gain_evaluation_ratio']:.3f}"
        )
    return lines
