"""The continuous op-count regression ledger.

Every bench suite gates *invariants* (plan identity, zero telemetry
overhead, crash-recovery exactness) but none of them pins the absolute
cost of a run: a PR that doubles ``gain_evaluations`` everywhere
passes every identity gate as long as it doubles them consistently.
The ledger closes that hole.  A **fingerprint** of one run is the
deterministic cost evidence the repo already produces:

* the plan signature hash (what was computed),
* the full :class:`~repro.core.instrumentation.OpCounters` table,
  per shard for sharded runs (how much work it took),
* the trace record tally by type (what the run emitted),
* the causal critical path — total virtual cost and the greedy
  max-cost walk (:meth:`repro.obs.causal.SpanGraph.critical_path`)
  (where the cost concentrated).

``python -m repro bench-regress`` (:mod:`repro.bench.regresssuite`)
fingerprints a pinned set of smoke cells and compares them against the
**committed baselines** under ``benchmarks/baselines/`` — one JSON
file per cell, reviewed in diffs like any other source change.

Exactness policy: every field is compared **exactly** — op counts
and virtual costs are deterministic, so any drift is a real behaviour
change, and wall-clock never appears in a fingerprint at all.
``--update`` regenerates the files (the PR diff then *shows* the cost
change); ``--check`` makes CI fail on any unexplained drift.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

from repro import __version__
from repro.core.instrumentation import OpCounters
from repro.obs.causal import SpanGraph

__all__ = [
    "LEDGER_FORMAT",
    "compare_fingerprints",
    "default_baselines_dir",
    "fingerprint_outcome",
    "git_commit",
    "load_baseline",
    "write_baseline",
]

LEDGER_FORMAT = 1

_REPO_ROOT = Path(__file__).resolve().parents[3]


def default_baselines_dir() -> Path:
    """The committed ledger directory: ``benchmarks/baselines/``."""
    return _REPO_ROOT / "benchmarks" / "baselines"


def git_commit() -> str:
    """The current short commit hash, or ``"unknown"`` outside git.

    Provenance only — comparisons never read it.  It is what lets the
    REPORT.md ledger section show how stale each baseline is.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _counters_dict(counters) -> dict | list[dict]:
    """OpCounters (or the sharded tuple) as stable nonzero dicts."""
    if isinstance(counters, tuple):
        return [_counters_dict(c) for c in counters]
    if isinstance(counters, OpCounters):
        return counters.to_dict(nonzero_only=True)
    return dict(counters)


def fingerprint_outcome(outcome) -> dict:
    """The ledger fingerprint of one telemetered
    :class:`~repro.runtime.factory.RunOutcome`.

    Requires ``outcome.telemetry`` (the trace tally and span graph
    come from its recorder).  Every field is a deterministic function
    of the spec, so two runs of one spec fingerprint identically —
    the regress suite asserts exactly that before trusting a
    fingerprint enough to compare it against the ledger.
    """
    from repro.bench.report import signature_hash

    recorder = outcome.telemetry.recorder
    graph = SpanGraph(recorder.records)
    critical = graph.critical_path()
    return {
        "plan": signature_hash(outcome.plan_signature),
        "plan_records": len(outcome.plan_signature),
        "counters": _counters_dict(outcome.counters),
        "trace": recorder.counts(),
        "critical_path": {
            "total": critical.total,
            "steps": [list(step) for step in critical.steps],
        },
    }


def _flatten(value, prefix: str, out: dict) -> None:
    if isinstance(value, dict):
        for key in value:
            _flatten(value[key], f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, list):
        out[f"{prefix}.length"] = len(value)
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}[{i}]", out)
    else:
        out[prefix] = value


def compare_fingerprints(baseline: dict, current: dict) -> list[str]:
    """Field-by-field drift between two fingerprints.

    Returns human-readable drift strings (empty = identical); every
    field must match exactly.
    """
    flat_base: dict = {}
    flat_cur: dict = {}
    _flatten(baseline, "", flat_base)
    _flatten(current, "", flat_cur)
    drifts: list[str] = []
    for path in sorted(set(flat_base) | set(flat_cur)):
        if path not in flat_base:
            drifts.append(f"{path}: not in baseline (now {flat_cur[path]!r})")
        elif path not in flat_cur:
            drifts.append(f"{path}: vanished (was {flat_base[path]!r})")
        elif flat_base[path] != flat_cur[path]:
            drifts.append(f"{path}: {flat_base[path]!r} -> {flat_cur[path]!r}")
    return drifts


# ----------------------------------------------------------------------
# The committed files
# ----------------------------------------------------------------------
def _baseline_path(baselines_dir: str | Path, cell: str) -> Path:
    return Path(baselines_dir) / f"{cell}.json"


def load_baseline(baselines_dir: str | Path, cell: str) -> dict | None:
    """The committed baseline document for ``cell`` (None = missing)."""
    path = _baseline_path(baselines_dir, cell)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_baseline(
    baselines_dir: str | Path, cell: str, fingerprint: dict
) -> Path:
    """Write one cell's baseline (meta stamps provenance, not policy)."""
    path = _baseline_path(baselines_dir, cell)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "format": LEDGER_FORMAT,
        "cell": cell,
        "meta": {"commit": git_commit(), "version": __version__},
        "fingerprint": fingerprint,
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
