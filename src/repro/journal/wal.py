"""Checksummed write-ahead log and journal directory management.

Record framing
--------------

One record per line::

    <crc32 of the JSON, 8 hex digits> <canonical JSON>\\n

Canonical JSON is ``sort_keys=True`` with compact separators, so a
record's bytes — and therefore the journal's size, reported by the
bench suite — are a deterministic function of its payload (Python
floats round-trip exactly through ``json`` via shortest repr).

Torn tails vs corruption
------------------------

A crash can tear the *last* record (partial line, missing newline,
truncated JSON): :func:`WriteAheadLog.read` tolerates that by dropping
the tail and reporting ``truncated=True``; resuming first truncates
the file back to its last valid byte so new records append cleanly.
Damage anywhere *before* the tail — a failed checksum, unparsable
JSON, or a non-monotone sequence number — cannot be explained by a
single crash and raises :class:`~repro.errors.JournalCorruptionError`.

Record types
------------

``open`` (configuration header), ``event`` (one input event in
consumption order: task arrival, worker join/leave, budget refresh),
``commit`` (one executed subtask: worker, slot, cost), ``charge``
(a draw on the shared budget pool), ``finalize`` (a session retired),
``epoch`` (an epoch boundary).  Every record carries a monotonically
increasing ``seq``; snapshots reference the ``seq`` they cover, which
keeps recovery correct across :meth:`Journal.compact`.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from repro.errors import ConfigurationError, JournalCorruptionError
from repro.stream.events import (
    BudgetRefresh,
    Event,
    TaskArrival,
    WorkerJoin,
    WorkerLeave,
)
from repro.model.task import Task
from repro.model.worker import Worker

__all__ = [
    "encode_event",
    "decode_event",
    "frame_record",
    "journal_kind",
    "unframe_record",
    "WriteAheadLog",
    "Journal",
]

_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"


def journal_kind(root: str | Path) -> str | None:
    """What journal (if any) lives at ``root``.

    ``"sharded"`` (a deployment's ``meta.json`` routing header),
    ``"plain"`` (a single server's ``wal.log``), or ``None``.  The
    single place that knows the on-disk layout — the CLI's
    resume/overwrite guards route through it.
    """
    root = Path(root)
    if (root / "meta.json").exists():
        return "sharded"
    if (root / "wal.log").exists():
        return "plain"
    return None


# ----------------------------------------------------------------------
# Event codec
# ----------------------------------------------------------------------
def encode_event(event: Event) -> dict:
    """JSON-ready representation of one input event.

    Payloads use only JSON-native shapes (lists, not tuples), so a
    record regenerated during replay compares ``==`` against its
    parsed journal counterpart.
    """
    if isinstance(event, TaskArrival):
        return {
            "kind": "arrival",
            "time": event.time,
            "task": event.task.to_dict(),
            "budget": event.budget,
        }
    if isinstance(event, WorkerJoin):
        return {"kind": "join", "time": event.time, "worker": event.worker.to_dict()}
    if isinstance(event, WorkerLeave):
        return {"kind": "leave", "time": event.time, "worker_id": event.worker_id}
    if isinstance(event, BudgetRefresh):
        return {"kind": "refresh", "time": event.time, "amount": event.amount}
    raise ConfigurationError(f"unknown event type {type(event).__name__}")


#: The JSON types :func:`encode_event` writes, field by field.  Types
#: match exactly (``type(v) in types``), so a bool never passes as an
#: int; a JSON int is a valid float.
_NUMBER = (int, float)
_EVENT_FIELDS = {
    "arrival": {"kind": (str,), "time": _NUMBER, "task": (dict,),
                "budget": (int, float, type(None))},
    "join": {"kind": (str,), "time": _NUMBER, "worker": (dict,)},
    "leave": {"kind": (str,), "time": _NUMBER, "worker_id": (int,)},
    "refresh": {"kind": (str,), "time": _NUMBER, "amount": _NUMBER},
}
_TASK_FIELDS = {"task_id": (int,), "loc": (list,), "num_slots": (int,),
                "start_slot": (int,)}
_WORKER_FIELDS = {"worker_id": (int,), "availability": (list,),
                  "reliability": _NUMBER}


def _check_fields(payload, schema: dict, label: str) -> None:
    """Raise unless ``payload`` has exactly ``schema``'s fields and types."""
    if type(payload) is not dict or payload.keys() != schema.keys():
        raise JournalCorruptionError(
            f"malformed {label} in journal: expected fields {sorted(schema)}, "
            f"got {sorted(payload) if type(payload) is dict else type(payload).__name__}"
        )
    for name, types in schema.items():
        value = payload[name]
        # value != value: NaN, which no encoded event carries.
        if type(value) not in types or value != value:
            raise JournalCorruptionError(
                f"malformed {label} in journal: {name}={value!r}"
            )


def _check_point(coords: list, label: str) -> None:
    """Raise unless ``coords`` is ``[x, y]`` with exact float values."""
    try:
        # Points hold floats: an int must convert exactly.
        exact = len(coords) == 2 and all(
            type(c) in _NUMBER and float(c) == c for c in coords
        )
    except OverflowError:  # an int past the float range
        exact = False
    if not exact:
        raise JournalCorruptionError(f"malformed {label} in journal: {coords!r}")


def decode_event(payload: dict) -> Event:
    """Inverse of :func:`encode_event`.

    Anything :func:`encode_event` cannot have written — a missing,
    extra or wrong-typed field, a malformed nested task or worker, or a
    value the event types reject — raises
    :class:`~repro.errors.JournalCorruptionError`; whatever decodes
    re-encodes to a payload ``==`` the input.
    """
    kind = payload.get("kind") if type(payload) is dict else None
    schema = _EVENT_FIELDS.get(kind) if type(kind) is str else None
    if schema is None:
        raise JournalCorruptionError(f"unknown event kind {kind!r} in journal")
    _check_fields(payload, schema, f"{kind} event")
    try:
        if kind == "arrival":
            task = payload["task"]
            _check_fields(task, _TASK_FIELDS, "task")
            _check_point(task["loc"], "task loc")
            return TaskArrival(
                time=payload["time"],
                task=Task.from_dict(task),
                budget=payload["budget"],
            )
        if kind == "join":
            worker = payload["worker"]
            _check_fields(worker, _WORKER_FIELDS, "worker")
            last = 0
            for entry in worker["availability"]:
                # [slot, x, y], slots strictly ascending from 1 — the
                # order to_dict writes, so the re-encoding is identical.
                if type(entry) is not list or len(entry) != 3:
                    raise JournalCorruptionError(
                        f"malformed availability entry {entry!r} in journal"
                    )
                if type(entry[0]) is not int or entry[0] <= last:
                    raise JournalCorruptionError(
                        f"availability slot {entry[0]!r} after {last} in journal"
                    )
                _check_point(entry[1:], "availability")
                last = entry[0]
            return WorkerJoin(time=payload["time"], worker=Worker.from_dict(worker))
        if kind == "leave":
            return WorkerLeave(time=payload["time"], worker_id=payload["worker_id"])
        return BudgetRefresh(time=payload["time"], amount=payload["amount"])
    except ConfigurationError as exc:
        # In-range checks of the event and model types (negative time,
        # num_slots < 3, reliability outside [0, 1], ...).
        raise JournalCorruptionError(f"malformed {kind} event in journal: {exc}") from exc


# ----------------------------------------------------------------------
# Framing helpers
# ----------------------------------------------------------------------
def _frame(payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return b"%08x %s\n" % (crc, body)


def _unframe(line: bytes) -> dict | None:
    """Parse one framed line; ``None`` when the line is damaged."""
    if len(line) < 10 or not line.endswith(b"\n") or line[8:9] != b" ":
        return None
    body = line[9:-1]
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        return None
    try:
        payload = json.loads(body)
    except ValueError:  # bad JSON, or a body that is not UTF-8
        return None
    return payload if isinstance(payload, dict) else None


#: Public spellings of the framing pair: the canonical-JSON line
#: format is shared verbatim by the telemetry trace (repro.obs.trace),
#: so a trace line and a WAL line verify with the same code.
frame_record = _frame
unframe_record = _unframe


class WriteAheadLog:
    """Append-only log of framed records with durable positions.

    ``sync=True`` fsyncs after every append (real durability);
    the default flushes to the OS only, which is what the
    deterministic test and bench harnesses need.
    """

    def __init__(self, path: str | Path, *, sync: bool = False):
        self.path = Path(path)
        self.sync = sync
        self.records_appended = 0
        self.bytes_written = 0
        self._fh = None

    # -- writing -------------------------------------------------------
    def _handle(self):
        if self._fh is None:
            self._fh = open(self.path, "ab")
        return self._fh

    def append(self, record: dict) -> int:
        """Append one record; returns the bytes written."""
        frame = _frame(record)
        fh = self._handle()
        fh.write(frame)
        fh.flush()
        if self.sync:
            os.fsync(fh.fileno())
        self.records_appended += 1
        self.bytes_written += len(frame)
        return len(frame)

    def close(self) -> None:
        """Close the underlying file handle (appends reopen it)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading -------------------------------------------------------
    @classmethod
    def read(cls, path: str | Path) -> tuple[list[dict], int, bool]:
        """Read every record of the log at ``path``.

        Returns ``(records, valid_bytes, truncated)`` where
        ``valid_bytes`` is the offset just past the last intact record.
        A damaged or partial *final* record is tolerated (dropped,
        ``truncated=True``); damage before it, or a non-monotone
        ``seq``, raises :class:`JournalCorruptionError`.
        """
        path = Path(path)
        records: list[dict] = []
        valid_bytes = 0
        truncated = False
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        # split() leaves a trailing '' for a newline-terminated file.
        tail = lines.pop() if lines else b""
        last_seq = -1
        for i, raw in enumerate(lines):
            record = _unframe(raw + b"\n")
            if record is None:
                if i == len(lines) - 1 and not tail:
                    truncated = True
                    break
                raise JournalCorruptionError(
                    f"{path}: damaged record at byte {valid_bytes} "
                    f"(not the final record — cannot be a torn tail)"
                )
            seq = record.get("seq")
            if not isinstance(seq, int) or seq <= last_seq:
                raise JournalCorruptionError(
                    f"{path}: non-monotone record sequence {seq!r} after {last_seq}"
                )
            last_seq = seq
            records.append(record)
            valid_bytes += len(raw) + 1
        if tail:
            truncated = True  # crash mid-write: no trailing newline
        return records, valid_bytes, truncated

    def truncate_to(self, valid_bytes: int) -> None:
        """Chop a torn tail so subsequent appends form valid frames."""
        self.close()
        with open(self.path, "rb+") as fh:
            fh.truncate(valid_bytes)


class Journal:
    """One journal directory: ``wal.log`` plus its snapshots.

    The journal owns record sequencing: :meth:`append` stamps each
    record with the next ``seq`` and :meth:`write_snapshot` stamps the
    snapshot with the last appended ``seq``, which is the replay
    cursor's starting position during recovery.
    """

    def __init__(self, root: str | Path, *, sync: bool = False):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(self.root / "wal.log", sync=sync)
        self.next_seq = 0
        self.snapshots_written = 0
        self.snapshot_bytes = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def wal_path(self) -> Path:
        return self.wal.path

    def create(self, config: dict) -> None:
        """Start a fresh journal: truncate and write the ``open`` header.

        Snapshots of any previous incarnation are deleted too —
        recovery must never resurrect state the new log does not
        describe.
        """
        self.wal.close()
        self.wal_path.write_bytes(b"")
        for path in self.snapshot_paths():
            path.unlink()
        self.next_seq = 0
        self.append("open", format=1, config=config)

    def open_for_resume(self) -> tuple[list[dict], bool]:
        """Load the log for recovery and prepare it for appending.

        Returns ``(records, truncated)``; a torn tail is chopped off
        the file so the resumed run's appends stay well-framed.
        """
        if not self.wal_path.exists():
            raise JournalCorruptionError(
                f"{self.wal_path}: no write-ahead log to recover from "
                "(wrong journal path, or a sharded journal root — those "
                "hold shard-<i>/wal.log and are recovered through "
                "recover_sharded_server or RunSpec(shards=N, journal=...))"
            )
        records, valid_bytes, truncated = WriteAheadLog.read(self.wal_path)
        if truncated:
            self.wal.truncate_to(valid_bytes)
        if not records or records[0].get("type") != "open":
            raise JournalCorruptionError(
                f"{self.wal_path}: missing 'open' header record"
            )
        self.next_seq = records[-1]["seq"] + 1
        return records, truncated

    # -- records -------------------------------------------------------
    def append(self, record_type: str, **payload) -> dict:
        """Stamp, frame, and append one typed record; returns it."""
        record = self.make_record(record_type, **payload)
        self.wal.append(record)
        return record

    def make_record(self, record_type: str, **payload) -> dict:
        """The record :meth:`append` *would* write, without writing it.

        The replay path regenerates records and verifies them against
        the journal instead of re-appending; the stamped ``seq``
        advances identically either way.
        """
        record = {"type": record_type, "seq": self.next_seq, **payload}
        self.next_seq += 1
        return record

    # -- snapshots -----------------------------------------------------
    def _snapshot_path(self, wal_seq: int) -> Path:
        return self.root / f"{_SNAPSHOT_PREFIX}{wal_seq:012d}{_SNAPSHOT_SUFFIX}"

    def write_snapshot(self, state: dict) -> Path:
        """Persist a checksummed snapshot covering the log so far."""
        payload = {"wal_seq": self.next_seq - 1, "state": state}
        frame = _frame(payload)
        path = self._snapshot_path(payload["wal_seq"])
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(frame)
        os.replace(tmp, path)
        self.snapshots_written += 1
        self.snapshot_bytes += len(frame)
        return path

    def snapshot_paths(self) -> list[Path]:
        """Snapshot files, oldest first."""
        return sorted(self.root.glob(f"{_SNAPSHOT_PREFIX}*{_SNAPSHOT_SUFFIX}"))

    def latest_snapshot(self) -> dict | None:
        """Newest intact snapshot payload, or ``None``.

        A torn snapshot (crash during :meth:`write_snapshot` of a
        non-atomic filesystem) is skipped in favour of the next older
        one — recovery then simply replays a longer log suffix.
        """
        for path in reversed(self.snapshot_paths()):
            payload = _unframe(path.read_bytes())
            if payload is not None and "wal_seq" in payload and "state" in payload:
                return payload
        return None

    # -- compaction ----------------------------------------------------
    def compact(self) -> int:
        """Drop log records already covered by the newest snapshot.

        Rewrites ``wal.log`` keeping the ``open`` header and every
        record with ``seq`` beyond the snapshot's ``wal_seq``; returns
        the number of records dropped.  Older snapshot files are
        removed as well (they could no longer seed a full replay).
        """
        snapshot = self.latest_snapshot()
        if snapshot is None:
            return 0
        records, _, _ = WriteAheadLog.read(self.wal_path)
        if not records:
            # A fully torn log next to a surviving snapshot: nothing to
            # anchor compaction on (the open header is gone too).
            raise JournalCorruptionError(
                f"{self.wal_path}: cannot compact an empty or fully "
                "damaged log"
            )
        keep = [records[0]] + [
            r for r in records[1:] if r["seq"] > snapshot["wal_seq"]
        ]
        dropped = len(records) - len(keep)
        self.wal.close()
        tmp = self.wal_path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            for record in keep:
                fh.write(_frame(record))
        os.replace(tmp, self.wal_path)
        newest = self._snapshot_path(snapshot["wal_seq"])
        for path in self.snapshot_paths():
            if path != newest:
                path.unlink()
        return dropped
