"""Figure reporter and the one suite driver.

``pytest`` captures stdout, so every benchmark writes its series both
to the terminal and to ``benchmarks/results/<figure>.txt``; the
EXPERIMENTS.md index links those files as the reproduction record.

The system suites share one driver: ``python -m repro bench SUITE``
calls :func:`run_and_write`, which runs ``repro.bench.<SUITE>suite``
and hands its payload to :func:`publish` — the write/merge/gate tail
``bench-regress`` goes through too.  Every file name derives from the
suite name: ``<suite>_suite.json`` and ``<suite>1.txt`` under the
results directory, ``BENCH_<suite>.json`` next to it.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from pathlib import Path

__all__ = [
    "DEFAULT_RESULTS",
    "SUITES",
    "Reporter",
    "publish",
    "run_and_write",
    "signature_hash",
]

#: Where series land by default; merged ``BENCH_*.json`` artifacts sit
#: one level up, in ``benchmarks/``.
DEFAULT_RESULTS = Path(__file__).resolve().parents[3] / "benchmarks" / "results"

#: The suites behind ``python -m repro bench SUITE``.  Each module
#: ``repro.bench.<suite>suite`` provides ``run_suite(*, smoke)``,
#: ``check_payload``, ``write_report_block`` and ``summary``.
SUITES = ("perf", "shard", "par", "journal", "matrix", "degrade", "elastic")


class Reporter:
    """Collects rows for one figure and writes them on close."""

    def __init__(self, figure: str, title: str, *, results_dir: str | os.PathLike | None = None):
        self.figure = figure
        self.title = title
        self.results_dir = DEFAULT_RESULTS if results_dir is None else Path(results_dir)
        self._lines: list[str] = [f"# {figure}: {title}"]

    def note(self, text: str) -> None:
        """A free-form annotation (scale-down notes, substitutions)."""
        self._lines.append(f"note: {text}")

    def header(self, *columns: str) -> None:
        """Column headers for the following rows."""
        self._lines.append(" | ".join(str(c) for c in columns))
        self._lines.append("-" * min(len(self._lines[-1]), 79))

    def row(self, *values) -> None:
        """One data row; floats are formatted to 6 significant digits."""
        formatted = [
            f"{v:.6g}" if isinstance(v, float) else str(v) for v in values
        ]
        self._lines.append(" | ".join(formatted))

    def chart(self, x_labels, series, *, log: bool = False, height: int = 10) -> None:
        """Append an ASCII line chart of the figure's series."""
        from repro.bench.ascii_plot import line_chart

        self._lines.append("")
        self._lines.append(line_chart(x_labels, series, log=log, height=height))

    def close(self) -> Path:
        """Print the figure block and persist it; returns the file path."""
        block = "\n".join(self._lines)
        print("\n" + block + "\n")
        self.results_dir.mkdir(parents=True, exist_ok=True)
        path = self.results_dir / f"{self.figure}.txt"
        path.write_text(block + "\n")
        return path


def signature_hash(signature) -> str:
    """Stable 16-hex digest of a plan signature, or of any state.

    The one digest every suite shares, so ``signature`` fields stay
    cross-comparable (the one-shard-equals-plain gate compares digests
    across payload sections).  ``bytes`` are hashed as-is (masked
    trace bytes); anything else by its ``repr``, which the determinism
    policy keeps stable (shortest-repr floats, insertion-ordered
    dicts), so equal digests mean byte-equal observable state.
    """
    import hashlib

    data = signature if isinstance(signature, bytes) else repr(signature).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def publish(name, payload, results_dir=None, *, write_block, summary, check) -> int:
    """Persist one suite run and gate it; returns the exit code.

    Writes ``<name>_suite.json`` and the suite's report block, merges
    every ``<name>*.json`` series into ``BENCH_<name>.json``, prints the
    ``summary(payload)`` lines, then one ``FAIL:`` line per failure
    ``check(payload)`` returns.  The payload is written before the gates
    run, so a failing run still leaves its diagnostic JSON behind.  The
    default layout puts ``BENCH_<name>.json`` in ``benchmarks/``; a
    custom ``results_dir`` keeps everything inside that directory.
    """
    from repro.bench.collect import collect_series

    if results_dir is None:
        results_dir, bench_dir = DEFAULT_RESULTS, DEFAULT_RESULTS.parent
    else:
        results_dir = bench_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)

    out = results_dir / f"{name}_suite.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    write_block(payload, results_dir)
    bench_out = bench_dir / f"BENCH_{name}.json"
    merged = collect_series(name, results_dir)
    bench_out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    print(f"wrote {bench_out}")

    for line in summary(payload):
        print(line)
    failures = check(payload)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def run_and_write(
    suite: str, *, smoke: bool = False, results_dir: str | os.PathLike | None = None
) -> int:
    """Run one of :data:`SUITES` and :func:`publish` it (CI gates on
    identity and op counts only; wall clock is recorded, never gated)."""
    module = importlib.import_module(f"repro.bench.{suite}suite")
    return publish(
        suite,
        module.run_suite(smoke=smoke),
        results_dir,
        write_block=module.write_report_block,
        summary=module.summary,
        check=module.check_payload,
    )
