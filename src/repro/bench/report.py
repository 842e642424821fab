"""Figure reporter: prints paper-style series and persists them.

``pytest`` captures stdout, so every benchmark writes its series both
to the terminal and to ``benchmarks/results/<figure>.txt``; the
EXPERIMENTS.md index links those files as the reproduction record.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["Reporter"]


class Reporter:
    """Collects rows for one figure and writes them on close."""

    def __init__(self, figure: str, title: str, *, results_dir: str | os.PathLike | None = None):
        self.figure = figure
        self.title = title
        if results_dir is None:
            results_dir = Path(__file__).resolve().parents[3] / "benchmarks" / "results"
        self.results_dir = Path(results_dir)
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
