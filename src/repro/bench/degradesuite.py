"""Graceful-degradation suite: identity, certificates, useful work.

``python -m repro bench-degrade`` (or ``python -m
repro.bench.degradesuite``) proves the three contracts of
:mod:`repro.degrade`:

* **approx-off identity** — with ``approx="off"`` the runtime is
  byte-identical (plan signature, op counters, stream metrics) to the
  pre-degradation legacy-class path, re-using the matrixsuite's legacy
  arms.  Degradation must be free when it is off.
* **certificate soundness** — for every approximate plan the measured
  quality ratio (approximate quality / exact quality on the same
  seed-pinned workload) is at least the certified ratio the solver
  reported.  A certificate that overstated quality would be worse
  than no certificate.
* **overload useful work** — under an injected overload (flash crowd
  + op-budget slowdown), the ``approx="auto"`` runtime completes
  strictly more tasks than the shed-only exact runtime, at bounded
  quality loss.  Degrading must beat dropping.

Typed-rejection cells ride along: the unsupported pairings
(approx x journal / shards / batch / use_index, ``auto`` without
telemetry) must raise :class:`~repro.errors.SpecError`.

Per the repo's determinism policy every gate is identity, certificate,
or op-count based; wall-clock is recorded for humans only.  The merged
artifact is ``benchmarks/BENCH_degrade.json`` via
:func:`repro.bench.collect.collect_degrade`.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.bench.report import signature_hash as _signature_hash
from repro.errors import SpecError
from repro.runtime import RunSpec, WorkloadSpec, build_runtime

__all__ = [
    "run_suite",
    "run_and_write",
    "check_payload",
    "main",
]

_DEFAULT_RESULTS = Path(__file__).resolve().parents[3] / "benchmarks" / "results"
_EPS = 1e-9

#: Seed-pinned bases.  The stream base keeps competition low (ample
#: workers, shallow admission pressure) so the exact arm's per-task
#: quality is a fair yardstick for the approximate arm's certificate.
_PLAIN_BASE = RunSpec(
    mode="plain",
    workload=WorkloadSpec(tasks=8, slots=48, workers=240, seed=13),
    budget_fraction=0.3,
)
_STREAM_BASE = RunSpec(
    mode="stream",
    workload=WorkloadSpec(
        horizon=24, task_rate=0.4, task_slots=16, initial_workers=30,
        join_rate=1.0, mean_lifetime=20.0, seed=9,
    ),
    epoch_length=3.0, budget_fraction=0.6,
    max_active_tasks=6, max_queue_depth=12,
)
#: The overload scenario: a bursty trace hit by a flash crowd and an
#: op-budget slowdown (a saturated solver, in virtual op-cost units —
#: never wall-clock).  The shed-only arm's overload response is queue
#: overflow (drop on arrival); the auto arm runs the degradation
#: ladder over the *same* queue, so serving policy is the only
#: difference between the arms.
_OVERLOAD_BASE = RunSpec(
    mode="stream",
    workload=WorkloadSpec(
        horizon=30, task_rate=1.2, task_slots=12, initial_workers=50,
        join_rate=1.5, mean_lifetime=25.0, seed=7,
    ),
    epoch_length=2.0, budget_fraction=0.5,
    max_active_tasks=10, max_queue_depth=4,
)

_SMOKE_PLAIN = _PLAIN_BASE.replace(
    workload=WorkloadSpec(tasks=4, slots=32, workers=150, seed=13)
)
_SMOKE_STREAM = _STREAM_BASE.replace(
    workload=WorkloadSpec(
        horizon=16, task_rate=0.4, task_slots=12, initial_workers=24,
        join_rate=1.0, mean_lifetime=20.0, seed=9,
    )
)
# The overload arm is one seed-pinned pair of runs either way; smoke
# mode keeps it unchanged rather than re-tuning a smaller scenario's
# useful-work margin.
_SMOKE_OVERLOAD = _OVERLOAD_BASE

#: Spec pairings the degradation subsystem must refuse (typed).
_REJECTION_ROWS = (
    {"approx": "top_c"},                                   # knob missing
    {"approx": "top_c", "approx_top_c": 0},                # knob nonsense
    {"approx": "floor", "approx_floor": 1.5},              # knob nonsense
    {"approx_top_c": 3},                                   # knob w/o mode
    {"approx": "auto", "approx_top_c": 3, "approx_floor": 0.3},  # no telemetry
    {"approx": "top_c", "approx_top_c": 3, "use_index": True},
    {"approx": "top_c", "approx_top_c": 3, "shards": 2},
    {"approx": "top_c", "approx_top_c": 3, "journal": "/tmp/never-used"},
    {"approx": "top_c", "approx_top_c": 3, "mode": "batch"},
    {"degrade_queue_high": 2, "degrade_queue_low": 4},     # inverted hysteresis
)


# ----------------------------------------------------------------------
# Arm 1: approx-off identity (vs the matrixsuite legacy classes)
# ----------------------------------------------------------------------
def _identity_cells(plain_base: RunSpec, stream_base: RunSpec) -> list[dict]:
    from repro.bench.matrixsuite import _legacy_plain, _legacy_stream

    cells = []
    for mode, base in (("plain", plain_base), ("stream", stream_base)):
        spec = base.validate()
        assert spec.approx == "off"
        start = time.perf_counter()
        outcome = build_runtime(spec).run()
        wall = time.perf_counter() - start
        legacy = (
            _legacy_plain(spec) if mode == "plain"
            else _legacy_stream(spec)
        )
        cells.append({
            "arm": "identity",
            "mode": mode,
            "plan_identical": outcome.plan_signature == legacy["plan"],
            "counters_identical": (
                _signature_hash(outcome.counters) == _signature_hash(legacy["counters"])
            ),
            "metrics_identical": (
                None if mode == "plain"
                else outcome.metrics == legacy["metrics"]
            ),
            "no_certificates": outcome.certificates is None,
            "signature": _signature_hash(outcome.plan_signature),
            "wall_s": wall,
        })
    return cells


# ----------------------------------------------------------------------
# Arm 2: certificate soundness (measured ratio >= certified ratio)
# ----------------------------------------------------------------------
def _certificate_cell(base: RunSpec, label: str, **approx_fields) -> dict:
    exact = build_runtime(base.validate()).run()
    spec = base.replace(**approx_fields).validate()
    start = time.perf_counter()
    outcome = build_runtime(spec).run()
    wall = time.perf_counter() - start
    violations = []
    compared = 0
    for task_id, certificate in sorted((outcome.certificates or {}).items()):
        if not 0.0 <= certificate <= 1.0:
            violations.append(
                f"task {task_id}: certificate {certificate:.6f} outside [0, 1]"
            )
            continue
        exact_q = exact.qualities.get(task_id)
        if exact_q is None or exact_q <= 0.0:
            continue  # the exact arm never planned this task
        compared += 1
        measured = outcome.qualities.get(task_id, 0.0) / exact_q
        if measured + _EPS < certificate:
            violations.append(
                f"task {task_id}: measured ratio {measured:.6f} < "
                f"certified {certificate:.6f}"
            )
    certificates = list((outcome.certificates or {}).values())
    return {
        "arm": "certificate",
        "label": label,
        "mode": base.mode,
        "approx": approx_fields.get("approx"),
        "tasks_certified": len(certificates),
        "tasks_compared": compared,
        "min_certificate": min(certificates, default=None),
        "mean_certificate": (
            sum(certificates) / len(certificates) if certificates else None
        ),
        "quality_exact": sum(exact.qualities.values()),
        "quality_approx": sum(outcome.qualities.values()),
        "violations": violations,
        "sound": not violations,
        "wall_s": wall,
    }


# ----------------------------------------------------------------------
# Arm 3: overload useful work (degrading beats shedding)
# ----------------------------------------------------------------------
def _overload_injections():
    from repro.degrade.chaos import InjectionSpec

    return (
        InjectionSpec(kind="flash_crowd", at=8.0, tasks=16),
        InjectionSpec(kind="slowdown", op_budget=60),
    )


def _run_overloaded(spec: RunSpec) -> dict:
    from repro.degrade.chaos import apply_injections
    from repro.runtime.factory import StreamRuntime

    injections = _overload_injections()
    trace = apply_injections(StreamRuntime(spec).scenario(), injections)
    runtime = StreamRuntime(spec, scenario=trace, chaos=injections)
    start = time.perf_counter()
    outcome = runtime.run()
    wall = time.perf_counter() - start
    metrics = outcome.metrics
    completed_q = [q for q in metrics.promised_quality.values() if q > 0.0]
    controller = getattr(runtime.server, "degradation", None)
    return {
        "completed": metrics.tasks_completed,
        "starved": metrics.tasks_starved,
        "rejected": metrics.tasks_rejected,
        "shed": metrics.tasks_shed,
        "useful": metrics.tasks_completed - metrics.tasks_starved,
        "mean_quality": (
            sum(completed_q) / len(completed_q) if completed_q else 0.0
        ),
        "min_certificate": (
            min(outcome.certificates.values(), default=None)
            if outcome.certificates else None
        ),
        "transitions": (
            0 if controller is None else len(controller.transitions)
        ),
        "wall_s": wall,
    }


def _overload_cells(base: RunSpec) -> list[dict]:
    exact = _run_overloaded(base.validate())
    degraded = _run_overloaded(
        base.replace(
            approx="auto", approx_top_c=3, approx_floor=0.1,
            telemetry=True, degrade_queue_high=3, degrade_queue_low=1,
        ).validate()
    )
    floor = 0.3
    return [
        {"arm": "overload", "variant": "exact-shed", **exact},
        {
            "arm": "overload", "variant": "auto-degrade", **degraded,
            # The headline gates, evaluated against the shed-only arm.
            "more_useful_work": degraded["useful"] > exact["useful"],
            "quality_floor": floor,
            "bounded_quality_loss": (
                degraded["mean_quality"] + _EPS
                >= floor * exact["mean_quality"]
            ),
        },
    ]


# ----------------------------------------------------------------------
# Arm 4: typed rejections
# ----------------------------------------------------------------------
def _rejection_cells() -> list[dict]:
    cells = []
    for fields in _REJECTION_ROWS:
        cell = {"arm": "rejection", "fields": dict(fields)}
        try:
            RunSpec(mode="stream").replace(**fields).validate()
        except SpecError as exc:
            cell.update(rejected=True, error=type(exc).__name__,
                        reason=str(exc))
        except Exception as exc:  # noqa: BLE001 — the wrong type is the bug
            cell.update(rejected=False, error=type(exc).__name__,
                        reason=str(exc))
        else:
            cell.update(rejected=False, error=None, reason=None)
        cells.append(cell)
    return cells


def run_suite(*, smoke: bool = False) -> dict:
    """Run every arm and return the machine-readable payload."""
    plain = _SMOKE_PLAIN if smoke else _PLAIN_BASE
    stream = _SMOKE_STREAM if smoke else _STREAM_BASE
    overload = _SMOKE_OVERLOAD if smoke else _OVERLOAD_BASE

    cells = _identity_cells(plain, stream)
    cells.append(_certificate_cell(
        plain, "plain/top_c=4", approx="top_c", approx_top_c=4
    ))
    cells.append(_certificate_cell(
        plain, "plain/floor=0.5", approx="floor", approx_floor=0.5
    ))
    if not smoke:
        cells.append(_certificate_cell(
            plain, "plain/top_c=2", approx="top_c", approx_top_c=2
        ))
    cells.append(_certificate_cell(
        stream, "stream/top_c=4", approx="top_c", approx_top_c=4
    ))
    cells.append(_certificate_cell(
        stream, "stream/floor=0.3", approx="floor", approx_floor=0.3
    ))
    cells.extend(_overload_cells(overload))
    cells.extend(_rejection_cells())
    return {
        "suite": "degradesuite",
        "mode": "smoke" if smoke else "full",
        "cells": cells,
    }


def check_payload(payload: dict) -> list[str]:
    """Deterministic gates; returns a list of failure strings.

    * **Identity** — both approx-off cells byte-identical to the
      legacy path, with no certificates attached.
    * **Certificate soundness** — no certificate cell reports a
      violation, and every approximate cell certified at least one
      task (an empty certificate map would read as vacuous success).
    * **Overload** — the auto-degrade arm did strictly more useful
      work than the shed-only arm, at bounded quality loss, and its
      ladder actually moved (>= 1 transition).
    * **Typed rejection** — every rejection row raised ``SpecError``.

    Wall-clock is deliberately unchecked (determinism policy).
    """
    failures = []
    for cell in payload["cells"]:
        arm = cell["arm"]
        if arm == "identity":
            name = f"identity/{cell['mode']}"
            for gate in ("plan_identical", "counters_identical"):
                if not cell[gate]:
                    failures.append(f"{name}: {gate} is False")
            if cell["metrics_identical"] is False:
                failures.append(f"{name}: stream metrics diverged")
            if not cell["no_certificates"]:
                failures.append(
                    f"{name}: approx=off attached certificates to the outcome"
                )
        elif arm == "certificate":
            name = f"certificate/{cell['label']}"
            if not cell["sound"]:
                for violation in cell["violations"]:
                    failures.append(f"{name}: {violation}")
            if cell["tasks_certified"] == 0:
                failures.append(f"{name}: no plans were certified (vacuous)")
        elif arm == "overload" and cell["variant"] == "auto-degrade":
            if not cell["more_useful_work"]:
                failures.append(
                    "overload: auto-degrade useful work "
                    f"({cell['useful']}) did not beat the shed-only arm"
                )
            if not cell["bounded_quality_loss"]:
                failures.append(
                    "overload: auto-degrade mean quality "
                    f"({cell['mean_quality']:.4f}) fell below the "
                    f"{cell['quality_floor']} quality floor"
                )
            if cell["transitions"] == 0:
                failures.append(
                    "overload: the degradation ladder never moved under "
                    "injected overload"
                )
        elif arm == "rejection":
            if not cell["rejected"] or cell["error"] != "SpecError":
                failures.append(
                    f"rejection {cell['fields']}: expected a typed "
                    f"SpecError, got {cell['error']} ({cell['reason']})"
                )
    return failures


def _write_report_block(payload: dict, results_dir: Path) -> None:
    """Persist the human-readable degradation block for REPORT.md."""
    from repro.bench import Reporter

    reporter = Reporter(
        "degrade1",
        "Graceful degradation: identity, certificates, overload useful work",
        results_dir=results_dir,
    )
    reporter.note(
        "approx=off byte-identical to the legacy path; measured quality "
        "ratio >= certified ratio for every approximate plan; under "
        "injected overload the auto-degrade ladder completes strictly "
        "more work than shedding at bounded quality loss"
    )
    reporter.header("arm", "cell", "status", "detail")
    for cell in payload["cells"]:
        arm = cell["arm"]
        if arm == "identity":
            ok = (cell["plan_identical"] and cell["counters_identical"]
                  and cell["metrics_identical"] in (None, True)
                  and cell["no_certificates"])
            reporter.row(arm, cell["mode"],
                         "identical" if ok else "DIVERGED",
                         cell["signature"])
        elif arm == "certificate":
            detail = (
                f"n={cell['tasks_certified']} "
                f"min={cell['min_certificate']:.3f}"
                if cell["tasks_certified"] else "n=0"
            )
            reporter.row(arm, cell["label"],
                         "sound" if cell["sound"] else "VIOLATED", detail)
        elif arm == "overload":
            reporter.row(
                arm, cell["variant"],
                f"useful={cell['useful']}",
                f"completed={cell['completed']} shed={cell['shed']} "
                f"meanq={cell['mean_quality']:.3f}",
            )
        else:
            reporter.row(
                arm, ",".join(sorted(cell["fields"])),
                "rejected" if cell["rejected"] else "ACCEPTED",
                cell["error"] or "-",
            )
    reporter.close()


def run_and_write(
    *, smoke: bool = False, results_dir: str | Path | None = None
) -> int:
    """Run the suite, persist JSON, refresh BENCH_degrade.json.

    The single entry point behind ``python -m repro bench-degrade``
    and ``python -m repro.bench.degradesuite``; returns a process exit
    code (non-zero when a gate fails).  Layout mirrors the other
    suites: the series lands in ``benchmarks/results/``, the merged
    ``BENCH_degrade.json`` next to them in ``benchmarks/``.
    """
    if results_dir is None:
        results_dir = _DEFAULT_RESULTS
        bench_dir = results_dir.parent
    else:
        results_dir = Path(results_dir)
        bench_dir = results_dir
    results_dir.mkdir(parents=True, exist_ok=True)

    payload = run_suite(smoke=smoke)
    out = results_dir / "degrade_suite.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    _write_report_block(payload, results_dir)

    from repro.bench.collect import collect_degrade

    merged = collect_degrade(results_dir)
    if merged is not None:
        bench_out = bench_dir / "BENCH_degrade.json"
        bench_out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"wrote {bench_out}")

    certified = sum(
        c.get("tasks_certified", 0)
        for c in payload["cells"] if c["arm"] == "certificate"
    )
    rejected = sum(
        1 for c in payload["cells"]
        if c["arm"] == "rejection" and c["rejected"]
    )
    print(
        f"degrade: {certified} plans certified across "
        f"{sum(1 for c in payload['cells'] if c['arm'] == 'certificate')} "
        f"approximate cells, {rejected} unsupported pairings rejected "
        "with typed SpecError"
    )

    failures = check_payload(payload)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Standalone CLI wrapper around :func:`run_and_write`."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro.bench.degradesuite")
    parser.add_argument("--smoke", action="store_true",
                        help="smallest scenarios only (CI smoke mode)")
    parser.add_argument("--results-dir", default=None,
                        help="override benchmarks/results output directory")
    args = parser.parse_args(argv)
    return run_and_write(smoke=args.smoke, results_dir=args.results_dir)


if __name__ == "__main__":
    sys.exit(main())
