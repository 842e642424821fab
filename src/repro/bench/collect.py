"""Consolidate persisted benchmark series into one report.

``python -m repro.bench.collect`` reads every ``benchmarks/results/
*.txt`` block written by the figure benches, orders them by figure id,
and emits a single ``REPORT.md`` — the artifact to skim after a full
``pytest benchmarks/ --benchmark-only`` run.

Machine-readable series are merged per name into ``BENCH_*.json``
records next to the results directory: every ``<name>*.json`` series
becomes ``BENCH_<name>.json``, for the names in :data:`COLLECTORS` —
``stream`` (events/sec and incremental-vs-rebuild speedups, written by
``benchmarks/test_stream_throughput.py``), every suite of
:data:`repro.bench.report.SUITES` (``python -m repro bench SUITE``),
and ``regress`` (op-count fingerprints vs the committed
``benchmarks/baselines/`` ledger, ``python -m repro bench-regress``).

The report also carries a **regression-ledger status** section:
cells checked, drift detected, and how stale each committed baseline
is (by the git commit stamped into its ``meta``).

``BENCH_*.json`` files next to the results directory that no
registered collector produces are *warned about* rather than silently
skipped — a stale or hand-dropped artifact would otherwise rot
unnoticed while looking authoritative.  A registered artifact that is
neither present nor regenerable from its series fails :func:`main`
(after ``REPORT.md`` is written): docs and CI link every one of them.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from repro.bench.report import DEFAULT_RESULTS, SUITES

__all__ = [
    "COLLECTORS",
    "collect",
    "collect_series",
    "unrecognized_artifacts",
    "main",
]


def _sort_key(path: Path) -> tuple:
    """fig6a < fig6b < ... < fig11c < abl1 < ...; numeric-aware."""
    name = path.stem
    match = re.match(r"([a-z]+)(\d+)([a-z]?)", name)
    if not match:
        return (2, name, 0, "")
    prefix, number, letter = match.groups()
    family = 0 if prefix == "fig" else 1
    return (family, prefix, int(number), letter)


def _generated_by(name: str) -> str:
    """The command that regenerates ``BENCH_<name>.json``."""
    if name in SUITES:
        return f"python -m repro bench {name}"
    if name == "regress":
        return "python -m repro bench-regress"
    return "python -m repro.bench.collect"


def collect_series(name: str, results_dir: Path | str = DEFAULT_RESULTS) -> dict | None:
    """Merge every ``<name>*.json`` series under ``results_dir``.

    Returns ``None`` when no series exist yet; otherwise the
    ``BENCH_<name>.json`` record: ``{"generated_by", "series":
    {series_name: payload}}``.
    """
    series: dict[str, dict] = {}
    for path in sorted(Path(results_dir).glob(f"{name}*.json")):
        try:
            series[path.stem] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"skipping unreadable {path}: {exc}", file=sys.stderr)
    if not series:
        return None
    return {"generated_by": _generated_by(name), "series": series}


#: Artifact name -> series name.  Every ``BENCH_*.json`` the repo
#: produces is registered here; ``main`` regenerates each one, fails
#: on any that is missing, and warns about artifacts no entry owns.
COLLECTORS: dict[str, str] = {
    f"BENCH_{name}.json": name for name in ("stream", *SUITES, "regress")
}


def unrecognized_artifacts(bench_dir: Path | str) -> list[str]:
    """``BENCH_*.json`` files no registered collector produces."""
    bench_dir = Path(bench_dir)
    return sorted(
        path.name
        for path in bench_dir.glob("BENCH_*.json")
        if path.name not in COLLECTORS
    )


def _artifact_section(bench_dir: Path) -> str:
    """Markdown block indexing the machine-readable ``BENCH_*.json``
    artifacts (series counts, provenance, unrecognized warnings)."""
    lines = ["## Machine-readable artifacts", ""]
    found = False
    for name in sorted(COLLECTORS):
        path = bench_dir / name
        if not path.exists():
            continue
        found = True
        try:
            payload = json.loads(path.read_text())
            detail = (
                f"{len(payload.get('series', {}))} series, "
                f"regenerate with `{payload.get('generated_by', '?')}`"
            )
        except (OSError, json.JSONDecodeError) as exc:
            detail = f"unreadable: {exc}"
        lines.append(f"* `{name}` — {detail}")
    if not found:
        lines.append("* (none yet — run the benchmark suites)")
    for name in unrecognized_artifacts(bench_dir):
        lines.append(
            f"* `{name}` — **unrecognized**: no registered collector "
            "produces this artifact"
        )
    return "\n".join(lines) + "\n"


def _ledger_section(results_dir: Path) -> str:
    """Markdown block on the regression ledger: cells checked, drift
    detected, and each committed baseline's age (by git commit)."""
    lines = ["## Regression-ledger status", ""]
    payload_path = results_dir / "regress_suite.json"
    if not payload_path.exists():
        lines.append(
            "* not run yet — `python -m repro bench-regress` fingerprints "
            "the smoke cells against `benchmarks/baselines/`"
        )
        return "\n".join(lines) + "\n"
    try:
        payload = json.loads(payload_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        lines.append(f"* `{payload_path.name}` unreadable: {exc}")
        return "\n".join(lines) + "\n"
    cells = payload.get("cells", [])
    drifted = [c["cell"] for c in cells if c.get("baseline") == "drift"]
    missing = [c["cell"] for c in cells if c.get("baseline") == "missing"]
    lines.append(
        f"* {len(cells)} cells checked against "
        f"`{payload.get('baselines_dir', '?')}`"
    )
    lines.append(
        "* drift detected: " + (", ".join(drifted) if drifted else "none")
    )
    if missing:
        lines.append("* missing baselines: " + ", ".join(missing))
    gates = payload.get("diff_gates", {})
    if gates:
        lines.append(
            "* trace-diff gates: "
            f"same-spec identical={gates.get('same_spec_identical')}, "
            f"fault localized at seq={gates.get('fault_seq')} "
            f"span=`{gates.get('fault_span')}` "
            f"stable={gates.get('fault_stable')}"
        )
    lines.append("")
    lines.append("| cell | status | critical path (op cost) | baseline commit |")
    lines.append("| --- | --- | --- | --- |")
    for cell in cells:
        lines.append(
            f"| `{cell['cell']}` | {cell.get('baseline', '?')} "
            f"| {cell.get('critical_path_total', '?')} "
            f"| {cell.get('baseline_commit') or '-'} |"
        )
    return "\n".join(lines) + "\n"


def collect(results_dir: Path | str = DEFAULT_RESULTS) -> str:
    """Concatenate all result blocks into one markdown document."""
    results_dir = Path(results_dir)
    blocks = []
    for path in sorted(results_dir.glob("*.txt"), key=_sort_key):
        blocks.append("```\n" + path.read_text().rstrip() + "\n```")
    header = (
        "# Benchmark report\n\n"
        f"{len(blocks)} figure series collected from `{results_dir}`.\n"
        "Regenerate with `pytest benchmarks/ --benchmark-only`.\n"
    )
    body = header + "\n\n" + "\n\n".join(blocks) + "\n"
    return (
        body
        + "\n"
        + _artifact_section(results_dir.parent)
        + "\n"
        + _ledger_section(results_dir)
    )


def main(argv: list[str] | None = None) -> int:
    """CLI: write REPORT.md and every registered BENCH_*.json.

    Exits 1 when a registered artifact is neither present nor
    regenerable from the series under the results directory.
    """
    argv = sys.argv[1:] if argv is None else argv
    results_dir = Path(argv[0]) if argv else DEFAULT_RESULTS
    if not results_dir.exists():
        print(f"no results at {results_dir}; run the benchmarks first", file=sys.stderr)
        return 1
    bench_dir = results_dir.parent
    missing = []
    for name, series in sorted(COLLECTORS.items()):
        merged = collect_series(series, results_dir)
        if merged is not None:
            out_path = bench_dir / name
            out_path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
            print(f"wrote {out_path} ({len(merged['series'])} series)")
        elif (bench_dir / name).exists():
            # The artifact exists but its source series are gone: it
            # can no longer be regenerated and is silently rotting.
            print(
                f"warning: {bench_dir / name} is stale — no {series}*.json "
                f"series under {results_dir} to regenerate it from",
                file=sys.stderr,
            )
        else:
            missing.append(name)
    for name in unrecognized_artifacts(bench_dir):
        print(
            f"warning: {bench_dir / name} matches no registered collector "
            "(stale or hand-dropped benchmark artifact?)",
            file=sys.stderr,
        )
    report = collect(results_dir)
    out = bench_dir / "REPORT.md"
    out.write_text(report)
    print(f"wrote {out} ({len(report.splitlines())} lines)")
    for name in missing:
        print(
            f"error: {bench_dir / name} is missing and no {COLLECTORS[name]}*.json "
            f"series under {results_dir} can regenerate it",
            file=sys.stderr,
        )
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
