"""Structured, deterministic JSONL trace records.

One record per line, in the journal's canonical-JSON framing
(:func:`repro.journal.wal.frame_record`): an 8-hex-digit CRC32, a
space, compact sort-keys JSON, a newline.  Every record carries a
monotonic ``seq`` and a ``type`` (``open``, ``event``, ``solve``,
``reconcile``, ``commit``, ``finalize``, ``epoch``, ``snapshot``,
``phases``, ``run-complete``, ``trace-summary``).

Determinism contract: *all* wall-clock measurements live under each
record's ``timing`` key and nowhere else.  :func:`mask_timing` strips
that key, so :func:`masked_trace_bytes` of two runs of the same
:class:`~repro.runtime.RunSpec` are byte-identical — the trace is
diffable evidence, not just a log.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ConfigurationError
from repro.journal.wal import frame_record, unframe_record

__all__ = [
    "TraceRecorder",
    "mask_timing",
    "masked_trace_bytes",
    "read_trace",
]


class TraceRecorder:
    """Collects typed trace records; optionally streams them to disk.

    Records are always kept in memory (``.records``); with a ``path``
    each record is additionally framed and flushed to the file as soon
    as it is emitted, so a crashed run still leaves a readable trace
    prefix (the same torn-tail tolerance as the WAL).
    """

    __slots__ = ("records", "path", "next_seq", "_fh")

    def __init__(self, path: str | Path | None = None):
        self.records: list[dict] = []
        self.path = None if path is None else Path(path)
        self.next_seq = 0
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "wb")

    def record(self, record_type: str, **payload) -> dict:
        """Stamp and store one typed record (write-through if on disk)."""
        record = {"type": record_type, "seq": self.next_seq, **payload}
        self.next_seq += 1
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(frame_record(record))
            self._fh.flush()
        return record

    def counts(self) -> dict[str, int]:
        """Record tally by type, sorted by type name."""
        tally: dict[str, int] = {}
        for record in self.records:
            tally[record["type"]] = tally.get(record["type"], 0) + 1
        return dict(sorted(tally.items()))

    @property
    def closed(self) -> bool:
        """True once no file handle remains open (or none ever was)."""
        return self._fh is None

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Unconditional close, success or error: every record is
        # already flushed, so the file is a valid trace prefix either
        # way.
        self.close()


def read_trace(path: str | Path) -> list[dict]:
    """Parse a trace file back into its records.

    A damaged *final* line is tolerated (a crash mid-record, exactly
    like a torn WAL tail); damage anywhere earlier raises
    :class:`~repro.errors.ConfigurationError`, and so does an intact
    record without a ``str`` ``type`` or an ``int`` ``seq``.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace {path}: {exc}") from exc
    records: list[dict] = []
    lines = raw.split(b"\n")
    tail = lines.pop() if lines else b""
    for i, line in enumerate(lines):
        record = unframe_record(line + b"\n")
        if record is None:
            if i == len(lines) - 1 and not tail:
                break  # torn final record: a crashed run's trace
            raise ConfigurationError(
                f"{path}: damaged trace record on line {i + 1}"
            )
        seq = record.get("seq")
        if not isinstance(record.get("type"), str) or not (
            isinstance(seq, int) and not isinstance(seq, bool)
        ):
            raise ConfigurationError(
                f"{path}: trace record on line {i + 1} lacks a str 'type' "
                "or an int 'seq'"
            )
        records.append(record)
    return records


def mask_timing(record: dict) -> dict:
    """The record without its ``timing`` sub-object (shallow copy)."""
    return {key: value for key, value in record.items() if key != "timing"}


def masked_trace_bytes(records) -> bytes:
    """Re-framed trace bytes with every ``timing`` key stripped.

    ``records`` is a record list or a trace file path.  Two runs of
    the same spec must produce *equal* masked bytes — the matrix suite's
    trace-determinism gate compares exactly this.
    """
    if isinstance(records, (str, Path)):
        records = read_trace(records)
    return b"".join(frame_record(mask_timing(record)) for record in records)
