"""Consolidate the benchmark report blocks into one ``REPORT.md``.

``python -m repro.bench.collect`` reads every ``benchmarks/results/
*.txt`` block written by the figure benches and the suites, orders
them by figure id, and emits a single ``REPORT.md`` — the artifact to
skim after a full ``pytest benchmarks/ --benchmark-only`` run.
``REPORT.md`` is the only file it writes.

The machine-readable artifacts are indexed, not rewritten: each suite
of :data:`repro.bench.report.SUITES` (``python -m repro bench SUITE``)
and the regression ledger (``python -m repro bench-regress``) writes
its own ``BENCH_<name>.json`` next to the results directory, and that
run is the file's only writer.

The report also carries a **regression-ledger status** section:
cells checked, drift detected, and how stale each committed baseline
is (by the git commit stamped into its ``meta``).

``BENCH_*.json`` files next to the results directory that no suite
writes are *warned about* rather than silently skipped — a stale or
hand-dropped artifact would otherwise rot unnoticed while looking
authoritative.  A listed artifact that is missing fails :func:`main`
(after ``REPORT.md`` is written): docs and CI link every one of them.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from repro.bench.report import DEFAULT_RESULTS, SUITES

__all__ = [
    "ARTIFACTS",
    "collect",
    "unrecognized_artifacts",
    "main",
]

#: The suites that write a ``BENCH_<name>.json`` artifact.
ARTIFACTS = (*SUITES, "regress")


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
    if name == "regress":
        return "python -m repro bench-regress"
    return f"python -m repro bench {name}"


def unrecognized_artifacts(bench_dir: Path | str) -> list[str]:
    """``BENCH_*.json`` files no suite of :data:`ARTIFACTS` writes."""
    known = {f"BENCH_{name}.json" for name in ARTIFACTS}
    return sorted(
        path.name
        for path in Path(bench_dir).glob("BENCH_*.json")
        if path.name not in known
    )


def _artifact_section(bench_dir: Path) -> str:
    """Markdown block indexing the machine-readable ``BENCH_*.json``
    artifacts (regenerate command, unrecognized warnings)."""
    lines = ["## Machine-readable artifacts", ""]
    found = False
    for name in ARTIFACTS:
        if not (bench_dir / f"BENCH_{name}.json").exists():
            continue
        found = True
        lines.append(
            f"* `BENCH_{name}.json` — regenerate with `{_generated_by(name)}`"
        )
    if not found:
        lines.append("* (none yet — run the benchmark suites)")
    for name in unrecognized_artifacts(bench_dir):
        lines.append(
            f"* `{name}` — **unrecognized**: no suite writes this artifact"
        )
    return "\n".join(lines) + "\n"


def _ledger_section(bench_dir: Path) -> str:
    """Markdown block on the regression ledger: cells checked, drift
    detected, and each committed baseline's age (by git commit)."""
    lines = ["## Regression-ledger status", ""]
    payload_path = bench_dir / "BENCH_regress.json"
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
    results_dir = Path(results_dir).resolve()
    blocks = []
    for path in sorted(results_dir.glob("*.txt"), key=_sort_key):
        blocks.append("```\n" + path.read_text().rstrip() + "\n```")
    header = (
        "# Benchmark report\n\n"
        # Named relative to the benchmarks dir, so the report does not
        # depend on where the checkout lives.
        f"{len(blocks)} figure series collected from "
        f"`{results_dir.parent.name}/{results_dir.name}`.\n"
        "Regenerate with `pytest benchmarks/ --benchmark-only`.\n"
    )
    body = header + "\n\n" + "\n\n".join(blocks) + "\n"
    return (
        body
        + "\n"
        + _artifact_section(results_dir.parent)
        + "\n"
        + _ledger_section(results_dir.parent)
    )


def main(argv: list[str] | None = None) -> int:
    """CLI: write REPORT.md, the one file this command owns.

    Exits 1 when a listed ``BENCH_*.json`` artifact is missing.
    """
    argv = sys.argv[1:] if argv is None else argv
    results_dir = Path(argv[0]) if argv else DEFAULT_RESULTS
    if not results_dir.exists():
        print(f"no results at {results_dir}; run the benchmarks first", file=sys.stderr)
        return 1
    bench_dir = results_dir.parent
    for name in unrecognized_artifacts(bench_dir):
        print(
            f"warning: {bench_dir / name} is written by no suite "
            "(stale or hand-dropped benchmark artifact?)",
            file=sys.stderr,
        )
    report = collect(results_dir)
    out = bench_dir / "REPORT.md"
    out.write_text(report)
    print(f"wrote {out} ({len(report.splitlines())} lines)")
    missing = [
        name for name in ARTIFACTS
        if not (bench_dir / f"BENCH_{name}.json").exists()
    ]
    for name in missing:
        print(
            f"error: {bench_dir / f'BENCH_{name}.json'} is missing; "
            f"regenerate it with `{_generated_by(name)}`",
            file=sys.stderr,
        )
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
