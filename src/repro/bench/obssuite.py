"""Observability suite: telemetry must watch, never touch.

``python -m repro bench-obs`` (or ``python -m repro.bench.obssuite``)
sweeps the grid

    {plain, stream} x shards {1, 2} x journal {off, on}

and, for every *composable* cell, runs the same seed-pinned workload
three times: once bare (``telemetry=False``) and twice telemetered
(separate trace files and journal directories).  Three gates, all
equality/op-count based per the repo's determinism policy:

* **telemetry-off identity** — the telemetered run's
  ``plan_signature()``, ``OpCounters``, and ``StreamMetrics`` equal
  the bare run's byte-for-byte: spans snapshot/diff counters, they
  never increment them (zero op-count overhead).
* **trace determinism** — the two telemetered runs' traces are
  byte-identical after :func:`~repro.obs.trace.mask_timing` (all
  wall-clock lives under each record's ``timing`` key, and the
  ``open`` record normalizes filesystem paths), and the on-disk JSONL
  round-trips back to the in-memory records exactly.
* **trace completeness** — every record type the cell's composition
  implies is present (``solve`` everywhere, ``event``/``epoch``/
  ``phases`` in stream mode, ``snapshot`` when journaled).
* **causal analytics** — every record carries a ``causal`` span id
  (:func:`repro.obs.causal.causal_id` is stamped at emit time, not
  inferred later), and the span graph's critical path — total virtual
  cost and the step list — is bit-identical across the two
  telemetered runs.

Cells the spec layer rejects (journal x plain) are recorded as typed
rejections and the sweep asserts the rejection actually fires.
Wall-clock is recorded for humans, never gated.  The merged artifact
is ``benchmarks/BENCH_obs.json`` via
:func:`repro.bench.collect.collect_obs`.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

from repro.bench.report import signature_hash as _signature_hash
from repro.errors import SpecError
from repro.obs.causal import SpanGraph
from repro.obs.trace import masked_trace_bytes, read_trace
from repro.runtime import RunSpec, WorkloadSpec, build_runtime

__all__ = [
    "OBS_MODES",
    "SHARD_COUNTS",
    "run_suite",
    "run_and_write",
    "check_payload",
    "main",
]

_DEFAULT_RESULTS = Path(__file__).resolve().parents[3] / "benchmarks" / "results"

OBS_MODES = ("plain", "stream")
SHARD_COUNTS = (1, 2)

#: Workloads mirror the matrix suite's, so the identity gates here and
#: the equivalence gates there certify the same runs.
_FULL_BASES = {
    "plain": RunSpec(
        mode="plain",
        workload=WorkloadSpec(tasks=12, slots=16, workers=240, seed=13),
    ),
    "stream": RunSpec(
        mode="stream",
        workload=WorkloadSpec(
            horizon=16, task_rate=0.3, task_slots=8, initial_workers=14,
            join_rate=0.8, mean_lifetime=12.0, seed=9,
        ),
        k=2, epoch_length=3.0, budget_fraction=0.6,
        max_active_tasks=4, max_queue_depth=8, snapshot_every=2,
    ),
}

_SMOKE_BASES = {
    "plain": _FULL_BASES["plain"].replace(
        workload=WorkloadSpec(tasks=6, slots=12, workers=150, seed=13)
    ),
    "stream": _FULL_BASES["stream"].replace(
        workload=WorkloadSpec(
            horizon=10, task_rate=0.3, task_slots=8, initial_workers=12,
            join_rate=0.8, mean_lifetime=12.0, seed=9,
        )
    ),
}


def _run_one(spec: RunSpec):
    """One run; returns (outcome, wall seconds)."""
    start = time.perf_counter()
    outcome = build_runtime(spec).run()
    return outcome, time.perf_counter() - start


def _expected_types(mode: str, journaled: bool) -> list[str]:
    expected = ["open", "solve", "phases", "trace-summary"]
    if mode == "stream":
        expected += ["event", "epoch", "finalize", "run-complete"]
        if journaled:
            expected.append("snapshot")
    return sorted(expected)


def _run_cell(base: RunSpec, mode, shards, journaled, workdir: Path) -> dict:
    cell = {"mode": mode, "shards": shards, "journal": journaled}
    tag = f"{mode}-s{shards}-{'j' if journaled else 'p'}"
    try:
        spec = base.replace(
            mode=mode,
            shards=shards,
            journal=str(workdir / f"{tag}-off") if journaled else None,
        ).validate()
    except SpecError as exc:
        cell.update(valid=False, error=type(exc).__name__, reason=str(exc))
        return cell

    off, wall_off = _run_one(spec)

    telemetered = []
    for arm in ("on", "on2"):
        arm_spec = spec.replace(
            telemetry=True,
            trace_out=str(workdir / f"{tag}-{arm}.jsonl"),
            journal=str(workdir / f"{tag}-{arm}") if journaled else None,
        )
        telemetered.append(_run_one(arm_spec))
    (on, wall_on), (on2, _) = telemetered

    masked = [
        masked_trace_bytes(run.telemetry.recorder.records) for run, _ in telemetered
    ]
    roundtrip_ok = all(
        read_trace(run.spec.trace_out) == run.telemetry.recorder.records
        for run, _ in telemetered
    )
    present = sorted(on.telemetry.recorder.counts())
    missing = sorted(set(_expected_types(mode, journaled)) - set(present))
    critical = [
        SpanGraph(run.telemetry.recorder.records).critical_path()
        for run, _ in telemetered
    ]

    cell.update(
        valid=True,
        # Gate 1: telemetry-off identity (the zero-overhead contract).
        plan_identical=off.plan_signature == on.plan_signature,
        counters_identical=repr(off.counters) == repr(on.counters),
        metrics_identical=(
            None if mode == "plain" else off.metrics == on.metrics
        ),
        # Gate 2: trace determinism + JSONL round-trip.
        masked_trace_identical=masked[0] == masked[1],
        record_counts_identical=(
            on.telemetry.recorder.counts() == on2.telemetry.recorder.counts()
        ),
        trace_roundtrip_ok=roundtrip_ok,
        # Gate 3: trace completeness.
        record_types=present,
        missing_record_types=missing,
        # Gate 4: causal analytics (PR-9) — every record is stamped
        # with its span id and the virtual-cost critical path is a
        # bit-for-bit reproducible function of the masked trace.
        causal_complete=all(
            "causal" in record for record in on.telemetry.recorder.records
        ),
        critical_path_identical=(
            (critical[0].total, critical[0].steps)
            == (critical[1].total, critical[1].steps)
        ),
        critical_path_total=critical[0].total,
        records=len(on.telemetry.recorder.records),
        masked_trace_digest=_signature_hash(masked[0]),
        signature=_signature_hash(on.plan_signature),
        counters_digest=_signature_hash(
            list(on.counters) if isinstance(on.counters, tuple) else on.counters
        ),
        metrics_digest=None if mode == "plain" else _signature_hash(on.metrics),
        wall_off_s=wall_off,
        wall_on_s=wall_on,
    )
    return cell


def run_suite(*, smoke: bool = False) -> dict:
    """Run the grid and return the machine-readable payload."""
    bases = _SMOKE_BASES if smoke else _FULL_BASES
    cells: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="obssuite-") as tmp:
        workdir = Path(tmp)
        for mode in OBS_MODES:
            for shards in SHARD_COUNTS:
                for journaled in (False, True):
                    cells.append(
                        _run_cell(bases[mode], mode, shards, journaled, workdir)
                    )
    return {
        "suite": "obssuite",
        "mode": "smoke" if smoke else "full",
        "grid": {
            "modes": list(OBS_MODES),
            "shards": list(SHARD_COUNTS),
            "journal": [False, True],
        },
        "cells": cells,
    }


def check_payload(payload: dict) -> list[str]:
    """Deterministic gates; returns a list of failure strings."""
    failures = []
    for cell in payload["cells"]:
        name = (f"{cell['mode']}/shards={cell['shards']}/"
                f"journal={'on' if cell['journal'] else 'off'}")
        if not cell["valid"]:
            if cell["mode"] == "stream" or not cell["journal"]:
                failures.append(
                    f"{name}: unexpected rejection ({cell.get('reason')})"
                )
            elif cell["error"] != "SpecError":
                failures.append(
                    f"{name}: rejected with {cell['error']}, expected the "
                    "typed SpecError"
                )
            continue
        if cell["mode"] == "plain" and cell["journal"]:
            failures.append(
                f"{name}: journal x plain must be rejected by validation, "
                "but the cell ran"
            )
        for gate in ("plan_identical", "counters_identical",
                     "masked_trace_identical", "record_counts_identical",
                     "trace_roundtrip_ok", "causal_complete",
                     "critical_path_identical"):
            if not cell[gate]:
                failures.append(f"{name}: {gate} is False")
        if cell["metrics_identical"] is False:
            failures.append(f"{name}: telemetered metrics diverged from bare")
        if cell["missing_record_types"]:
            failures.append(
                f"{name}: trace is missing record type(s) "
                f"{cell['missing_record_types']}"
            )
    return failures


def _write_report_block(payload: dict, results_dir: Path) -> None:
    """Persist the human-readable observability block for REPORT.md."""
    from repro.bench import Reporter

    reporter = Reporter(
        "obs1",
        "Observability: telemetry-off identity and trace determinism",
        results_dir=results_dir,
    )
    reporter.note(
        "telemetered runs byte-identical to bare runs (plan, op counters, "
        "stream metrics); masked traces identical across repeat runs; "
        "wall-clock recorded, never gated"
    )
    reporter.header(
        "mode", "shards", "journal", "status", "records", "trace_digest",
        "signature",
    )
    for cell in payload["cells"]:
        if not cell["valid"]:
            reporter.row(
                cell["mode"], cell["shards"],
                "on" if cell["journal"] else "off",
                f"rejected:{cell['error']}", "-", "-", "-",
            )
            continue
        clean = (
            cell["plan_identical"] and cell["counters_identical"]
            and cell["metrics_identical"] in (None, True)
            and cell["masked_trace_identical"]
            and not cell["missing_record_types"]
        )
        reporter.row(
            cell["mode"], cell["shards"],
            "on" if cell["journal"] else "off",
            "identical" if clean else "DIVERGED",
            cell["records"], cell["masked_trace_digest"], cell["signature"],
        )
    reporter.close()


def run_and_write(
    *, smoke: bool = False, results_dir: str | Path | None = None
) -> int:
    """Run the suite, persist JSON, refresh BENCH_obs.json.

    The single entry point behind ``python -m repro bench-obs`` and
    ``python -m repro.bench.obssuite``; returns a process exit code
    (non-zero when a gate fails).  Layout mirrors the other suites.
    """
    if results_dir is None:
        results_dir = _DEFAULT_RESULTS
        bench_dir = results_dir.parent
    else:
        results_dir = Path(results_dir)
        bench_dir = results_dir
    results_dir.mkdir(parents=True, exist_ok=True)

    payload = run_suite(smoke=smoke)
    out = results_dir / "obs_suite.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    _write_report_block(payload, results_dir)

    from repro.bench.collect import collect_obs

    merged = collect_obs(results_dir)
    if merged is not None:
        bench_out = bench_dir / "BENCH_obs.json"
        bench_out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"wrote {bench_out}")

    valid = [c for c in payload["cells"] if c["valid"]]
    rejected = [c for c in payload["cells"] if not c["valid"]]
    clean = sum(
        1 for c in valid
        if c["plan_identical"] and c["counters_identical"]
        and c["metrics_identical"] in (None, True)
        and c["masked_trace_identical"] and not c["missing_record_types"]
    )
    print(
        f"obs: {clean}/{len(valid)} composable cells identical-with-"
        f"telemetry and trace-deterministic, {len(rejected)} uncomposable "
        "cells rejected with typed SpecError"
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

    parser = argparse.ArgumentParser(prog="repro.bench.obssuite")
    parser.add_argument("--smoke", action="store_true",
                        help="smallest scenarios only (CI smoke mode)")
    parser.add_argument("--results-dir", default=None,
                        help="override benchmarks/results output directory")
    args = parser.parse_args(argv)
    return run_and_write(smoke=args.smoke, results_dir=args.results_dir)


if __name__ == "__main__":
    sys.exit(main())
