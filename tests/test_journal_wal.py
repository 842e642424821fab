"""Tests for the write-ahead log: framing, corruption, compaction."""

from __future__ import annotations

import json

import pytest

import repro.journal
from repro.errors import JournalCorruptionError
from repro.geo.point import Point
from repro.journal.wal import Journal, WriteAheadLog, decode_event, encode_event
from repro.model.task import Task
from repro.model.worker import Worker
from repro.stream.events import BudgetRefresh, TaskArrival, WorkerJoin, WorkerLeave


class TestEventCodec:
    def test_round_trip_all_kinds(self):
        events = [
            TaskArrival(time=1.5, task=Task(1, Point(2, 3), 8, start_slot=2), budget=4.5),
            TaskArrival(time=2.0, task=Task(2, Point(0, 0), 5), budget=None),
            WorkerJoin(time=0.0, worker=Worker(7, {1: Point(1, 1)}, 0.5)),
            WorkerLeave(time=9.25, worker_id=7),
            BudgetRefresh(time=4.0, amount=2.5),
        ]
        for event in events:
            clone = decode_event(json.loads(json.dumps(encode_event(event))))
            assert clone == event

    def test_unknown_kind_raises_typed(self):
        with pytest.raises(JournalCorruptionError):
            decode_event({"kind": "meteor", "time": 0.0})


class TestWriteAheadLog:
    def _journal(self, tmp_path) -> Journal:
        journal = Journal(tmp_path / "j")
        journal.create({"demo": True})
        return journal

    def test_append_and_read_back(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append("event", event={"kind": "refresh", "time": 1.0, "amount": 2.0})
        journal.append("epoch", epoch=1, now=5.0)
        records, valid_bytes, truncated = WriteAheadLog.read(journal.wal_path)
        assert [r["type"] for r in records] == ["open", "event", "epoch"]
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert not truncated
        assert valid_bytes == journal.wal_path.stat().st_size

    def test_torn_tail_is_tolerated_and_truncated_on_resume(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append("epoch", epoch=1, now=5.0)
        journal.wal.close()
        intact = journal.wal_path.read_bytes()
        journal.wal_path.write_bytes(intact + b"deadbeef {\"type\": \"ep")
        records, valid_bytes, truncated = WriteAheadLog.read(journal.wal_path)
        assert truncated
        assert len(records) == 2
        assert valid_bytes == len(intact)
        # open_for_resume chops the tail so appends stay well-framed.
        resumed = Journal(tmp_path / "j")
        resumed.open_for_resume()
        assert resumed.wal_path.read_bytes() == intact
        resumed.append("epoch", epoch=2, now=10.0)
        records, _, truncated = WriteAheadLog.read(resumed.wal_path)
        assert not truncated
        assert records[-1]["epoch"] == 2

    def test_damaged_final_full_line_is_tolerated(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append("epoch", epoch=1, now=5.0)
        journal.wal.close()
        lines = journal.wal_path.read_bytes().splitlines(keepends=True)
        lines[-1] = b"00000000 {\"type\": \"epoch\"}\n"  # bad checksum
        journal.wal_path.write_bytes(b"".join(lines))
        records, _, truncated = WriteAheadLog.read(journal.wal_path)
        assert truncated
        assert len(records) == 1

    def test_mid_log_damage_raises_typed(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append("epoch", epoch=1, now=5.0)
        journal.append("epoch", epoch=2, now=10.0)
        journal.wal.close()
        lines = journal.wal_path.read_bytes().splitlines(keepends=True)
        lines[1] = b"00000000 garbage\n"
        journal.wal_path.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorruptionError):
            WriteAheadLog.read(journal.wal_path)

    def test_non_monotone_seq_raises_typed(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append("epoch", epoch=1, now=5.0)
        journal.next_seq = 1  # force a duplicate sequence number
        journal.append("epoch", epoch=2, now=10.0)
        with pytest.raises(JournalCorruptionError):
            WriteAheadLog.read(journal.wal_path)

    def test_missing_open_header_raises_typed(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.append("epoch", epoch=1, now=5.0)
        with pytest.raises(JournalCorruptionError):
            journal.open_for_resume()

    def test_missing_wal_raises_typed(self, tmp_path):
        """Recovering from a wrong/empty path (e.g. a sharded journal
        root, or a typo) must not surface a raw FileNotFoundError, and
        the message must name recovery entry points that exist."""
        with pytest.raises(JournalCorruptionError) as info:
            Journal(tmp_path / "nothing-here").open_for_resume()
        message = str(info.value)
        assert "recover_sharded_server" in message
        assert callable(repro.journal.recover_sharded_server)
        assert "RunSpec(shards=N, journal=...)" in message


class TestSnapshots:
    def test_latest_snapshot_and_torn_fallback(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.create({})
        journal.append("epoch", epoch=1, now=5.0)
        journal.write_snapshot({"epoch": 1})
        journal.append("epoch", epoch=2, now=10.0)
        newest = journal.write_snapshot({"epoch": 2})
        assert journal.latest_snapshot()["state"]["epoch"] == 2
        # A torn newest snapshot falls back to the older intact one.
        newest.write_bytes(b"deadbeef {\"wal_s")
        assert journal.latest_snapshot()["state"]["epoch"] == 1

    def test_create_clears_stale_snapshots(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.create({})
        journal.write_snapshot({"epoch": 1})
        journal.create({})  # a new incarnation in the same directory
        assert journal.latest_snapshot() is None

    def test_compaction_drops_covered_records_and_old_snapshots(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.create({})
        for epoch in range(1, 5):
            journal.append("epoch", epoch=epoch, now=float(epoch))
            journal.write_snapshot({"epoch": epoch})
        journal.append("epoch", epoch=5, now=5.0)
        dropped = journal.compact()
        assert dropped == 4
        records, _, _ = WriteAheadLog.read(journal.wal_path)
        assert [r["type"] for r in records] == ["open", "epoch"]
        assert records[-1]["epoch"] == 5
        assert records[-1]["seq"] == 5  # absolute numbering survives
        assert len(journal.snapshot_paths()) == 1
        # Recovery semantics intact: cursor = records past the snapshot.
        snapshot = journal.latest_snapshot()
        cursor = [r for r in records[1:] if r["seq"] > snapshot["wal_seq"]]
        assert [r["epoch"] for r in cursor] == [5]

    def test_compact_without_snapshot_is_a_no_op(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.create({})
        journal.append("epoch", epoch=1, now=1.0)
        assert journal.compact() == 0
        records, _, _ = WriteAheadLog.read(journal.wal_path)
        assert len(records) == 2

    def test_snapshot_bytes_deterministic(self, tmp_path):
        a = Journal(tmp_path / "a")
        a.create({"x": 1})
        b = Journal(tmp_path / "b")
        b.create({"x": 1})
        pa = a.write_snapshot({"state": [1.5, "two", None]})
        pb = b.write_snapshot({"state": [1.5, "two", None]})
        assert pa.read_bytes() == pb.read_bytes()


class TestCompactEdgeCases:
    def test_compact_empty_log_with_surviving_snapshot_raises_typed(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.create({})
        journal.append("epoch", epoch=1, now=1.0)
        journal.write_snapshot({"epoch": 1})
        journal.wal.close()
        journal.wal_path.write_bytes(b"")  # power loss tore the whole log
        with pytest.raises(JournalCorruptionError):
            journal.compact()
