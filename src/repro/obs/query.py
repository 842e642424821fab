"""Trace querying and cross-run divergence localization.

:class:`TraceQuery` is a small chainable filter/aggregate API over a
run's trace records — by type, task, shard scope, epoch window, or seq
range — so tests and tools stop re-writing the same list
comprehensions over raw dicts.

:func:`diff_traces` is the divergence localizer: it compares two
traces under the masking contract (every ``timing`` sub-object
stripped, then canonical re-framing — the same bytes
:func:`~repro.obs.trace.masked_trace_bytes` gates on) and, when they
differ, names the **first divergent** ``seq``, both records, and the
causal span (:mod:`repro.obs.causal`) containing it.  A "plans differ"
failure becomes a one-line localization: *the runs forked at seq 41,
inside task/7, where run B committed worker 12 instead of 9*.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.journal.wal import frame_record
from repro.obs.causal import SpanGraph, causal_id
from repro.obs.trace import mask_timing, read_trace

__all__ = ["TraceDivergence", "TraceQuery", "diff_traces"]


def _load(records) -> list[dict]:
    if isinstance(records, (str, Path)):
        return read_trace(records)
    return list(records)


class TraceQuery:
    """Chainable filters and aggregates over trace records.

    Every filter returns a new query over the matching records (the
    underlying dicts are shared, never copied), so filters compose:
    ``TraceQuery.from_trace(p).of_type("commit").for_task(7).count()``.
    """

    __slots__ = ("records", "_epochs")

    def __init__(self, records, *, _epochs: list[int] | None = None):
        self.records: list[dict] = _load(records)
        #: Epoch index per record, aligned with ``records`` — the count
        #: of *earlier* ``epoch`` boundary records in the record's
        #: scope, so "epoch window [i, j)" means "between those
        #: boundaries".  Computed once on the root query and sliced
        #: through filters.
        if _epochs is None:
            _epochs = []
            seen: dict[object, int] = {}
            for record in self.records:
                scope = record.get("scope")
                _epochs.append(seen.get(scope, 0))
                if record.get("type") == "epoch":
                    seen[scope] = seen.get(scope, 0) + 1
        self._epochs = _epochs

    @classmethod
    def from_trace(cls, path: str | Path) -> "TraceQuery":
        return cls(read_trace(path))

    # -- filters --------------------------------------------------------
    def _filter(self, keep) -> "TraceQuery":
        kept = [i for i, record in enumerate(self.records) if keep(i, record)]
        return TraceQuery(
            [self.records[i] for i in kept],
            _epochs=[self._epochs[i] for i in kept],
        )

    def of_type(self, *types: str) -> "TraceQuery":
        """Records whose ``type`` is one of ``types``."""
        wanted = frozenset(types)
        return self._filter(lambda i, r: r.get("type") in wanted)

    def for_task(self, task_id: int) -> "TraceQuery":
        """One task's records (its causal span membership — the
        arrival event, every solve/reconcile span, commits, and the
        finalize)."""
        span = f"task/{task_id}"
        return self._filter(lambda i, r: causal_id(r) == span)

    def in_scope(self, scope: str | None) -> "TraceQuery":
        """Records of one shard scope (``None`` = the unscoped core)."""
        return self._filter(lambda i, r: r.get("scope") == scope)

    def in_epochs(self, lo: int = 0, hi: int | None = None) -> "TraceQuery":
        """Records in the half-open epoch window ``[lo, hi)`` of their
        own scope (records before the first boundary are epoch 0)."""
        return self._filter(
            lambda i, r: self._epochs[i] >= lo
            and (hi is None or self._epochs[i] < hi)
        )

    def where(self, predicate) -> "TraceQuery":
        """Records satisfying an arbitrary predicate."""
        return self._filter(lambda i, r: predicate(r))

    # -- aggregates -----------------------------------------------------
    def count(self) -> int:
        return len(self.records)

    def tally(self) -> dict[str, int]:
        """Record counts by type, sorted by type name."""
        return self.count_by("type")

    def count_by(self, key: str) -> dict:
        """Record counts grouped by a payload field (missing field
        groups under ``None``), sorted by group."""
        groups: dict = {}
        for record in self.records:
            value = record.get(key)
            groups[value] = groups.get(value, 0) + 1
        return dict(sorted(groups.items(), key=lambda kv: (kv[0] is None, str(kv[0]))))

    def sum(self, key: str) -> float:
        """Sum of a numeric payload field over records carrying it."""
        return sum(
            record[key]
            for record in self.records
            if isinstance(record.get(key), (int, float))
        )

    def first(self) -> dict | None:
        return self.records[0] if self.records else None

    def last(self) -> dict | None:
        return self.records[-1] if self.records else None


# ----------------------------------------------------------------------
# Cross-run divergence
# ----------------------------------------------------------------------
@dataclass(slots=True)
class TraceDivergence:
    """The first point where two masked traces disagree.

    ``seq`` is the first divergent record's sequence number; the
    records are the masked payloads from each side (``None`` when one
    trace ended first — a pure-prefix divergence); ``span`` is the
    causal span containing the divergence, resolved from whichever
    side still has a record there.
    """

    seq: int
    record_a: dict | None
    record_b: dict | None
    span: str

    def describe(self) -> str:
        lines = [f"first divergence at seq={self.seq} (span {self.span})"]
        for label, record in (("a", self.record_a), ("b", self.record_b)):
            if record is None:
                lines.append(f"  {label}: <trace ended>")
            else:
                keys = ", ".join(
                    f"{key}={record[key]!r}"
                    for key in sorted(record)
                    if key not in ("seq",)
                )
                lines.append(f"  {label}: {keys}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "span": self.span,
            "record_a": self.record_a,
            "record_b": self.record_b,
        }


def diff_traces(a, b) -> TraceDivergence | None:
    """Locate the first masked-byte divergence between two traces.

    ``a`` / ``b`` are trace file paths or record lists.  Returns
    ``None`` when the masked traces are byte-identical (the
    determinism contract two runs of one spec must meet), otherwise
    the :class:`TraceDivergence` at the first differing record —
    compared on canonical framed bytes, so field ordering and float
    formatting cannot produce false matches.
    """
    records_a = _load(a)
    records_b = _load(b)
    masked_a = [mask_timing(record) for record in records_a]
    masked_b = [mask_timing(record) for record in records_b]
    for i in range(max(len(masked_a), len(masked_b))):
        ra = masked_a[i] if i < len(masked_a) else None
        rb = masked_b[i] if i < len(masked_b) else None
        if (
            ra is not None
            and rb is not None
            and frame_record(ra) == frame_record(rb)
        ):
            continue
        witness = ra if ra is not None else rb
        seq = witness.get("seq", i)
        graph = SpanGraph(records_a if ra is not None else records_b)
        span = graph.span_of(seq)
        if span is None:
            span = causal_id(witness)
        return TraceDivergence(seq=seq, record_a=ra, record_b=rb, span=span)
    return None
