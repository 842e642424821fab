"""Tests for the write-ahead log: framing, corruption, compaction."""

from __future__ import annotations

import copy
import json
import zlib

import pytest
from hypothesis import given, settings, strategies as st

import repro.journal
from repro.errors import JournalCorruptionError
from repro.geo.point import Point
from repro.journal.wal import (
    Journal,
    WriteAheadLog,
    decode_event,
    encode_event,
    unframe_record,
)
from repro.model.task import Task
from repro.model.worker import Worker
from repro.stream.events import BudgetRefresh, TaskArrival, WorkerJoin, WorkerLeave


def _frame_body(body: bytes) -> bytes:
    """Frame raw body bytes with a valid checksum, whatever they hold."""
    return b"%08x %s\n" % (zlib.crc32(body) & 0xFFFFFFFF, body)


#: A CRC-valid line whose body is not UTF-8.
NON_UTF8_LINE = _frame_body(b'{"a":"\xff"}')


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


# Valid events, then damaged copies of their encodings.
_coord = st.floats(-1e6, 1e6, allow_nan=False)
_tasks = st.builds(
    Task,
    task_id=st.integers(0, 10**6),
    loc=st.builds(Point, _coord, _coord),
    num_slots=st.integers(3, 500),
    start_slot=st.integers(1, 500),
)
_workers = st.builds(
    Worker,
    worker_id=st.integers(0, 10**6),
    availability=st.dictionaries(
        st.integers(1, 400), st.builds(Point, _coord, _coord), max_size=6
    ),
    reliability=st.floats(0.0, 1.0),
)
_times = st.floats(0.0, 1e6)
_events = st.one_of(
    st.builds(TaskArrival, time=_times, task=_tasks,
              budget=st.none() | st.floats(0.0, 1e6)),
    st.builds(WorkerJoin, time=_times, worker=_workers),
    st.builds(WorkerLeave, time=_times, worker_id=st.integers(0, 10**6)),
    st.builds(BudgetRefresh, time=_times, amount=st.floats(0.0, 1e6)),
)
# JSON number edges: ints with no exact float (past 2**53) or none at
# all (past 10**308), NaN, infinities, negative zero.
_edges = st.sampled_from(
    [2**53 + 1, -(2**63) - 1, 10**30 + 1, 10**400, float("nan"),
     float("inf"), -0.0]
)
_leaves = (
    st.none() | st.booleans() | st.integers(-5, 5) | _edges
    | st.integers() | st.floats() | st.text(max_size=4)
)
_json_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _positions(node, out):
    """``(container, key)`` of every value inside ``node``."""
    if isinstance(node, dict):
        keys = sorted(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return out
    for key in keys:
        out.append((node, key))
        _positions(node[key], out)
    return out


@st.composite
def _damaged_payloads(draw):
    payload = copy.deepcopy(encode_event(draw(_events)))
    for _ in range(draw(st.integers(1, 2))):
        positions = _positions(payload, [])
        op = draw(st.sampled_from(["replace", "replace", "drop", "add", "reverse"]))
        if op == "replace" and positions:
            container, key = draw(st.sampled_from(positions))
            container[key] = draw(_leaves | _json_values)
            continue
        containers = [payload] + [
            c[k] for c, k in positions if isinstance(c[k], (dict, list))
        ]
        target = draw(st.sampled_from(containers))
        if isinstance(target, dict):
            if op == "drop" and target:
                del target[draw(st.sampled_from(sorted(target)))]
            else:
                target[draw(st.text(max_size=6))] = draw(_json_values)
        elif op == "drop" and target:
            del target[draw(st.integers(0, len(target) - 1))]
        elif op == "reverse":
            target.reverse()
        else:
            target.insert(draw(st.integers(0, len(target))), draw(_json_values))
    return draw(st.sampled_from([payload, payload, payload, draw(_json_values)]))


class TestDecodeEventRobustness:
    @settings(deadline=None, max_examples=300)
    @given(event=_events)
    def test_valid_events_round_trip(self, event):
        payload = json.loads(json.dumps(encode_event(event)))
        assert decode_event(payload) == event
        assert encode_event(decode_event(payload)) == payload

    @settings(deadline=None, max_examples=1000)
    @given(payload=_damaged_payloads())
    def test_damaged_payload_is_typed_error_or_exact_round_trip(self, payload):
        try:
            event = decode_event(payload)
        except JournalCorruptionError:
            return
        assert encode_event(event) == payload

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {"kind": ["arrival"], "time": 0.0},
            {"time": 1.0, "amount": 2.0},
            {"kind": "refresh", "time": 1.0},
            {"kind": "refresh", "time": 1.0, "amount": 2.0, "extra": 0},
            {"kind": "refresh", "time": "1.0", "amount": 2.0},
            {"kind": "refresh", "time": True, "amount": 2.0},
            {"kind": "refresh", "time": float("nan"), "amount": 2.0},
            {"kind": "refresh", "time": -1.0, "amount": 2.0},
            {"kind": "leave", "time": 1.0, "worker_id": 1.5},
            {"kind": "arrival", "time": 1.0, "budget": None, "task": {
                "task_id": 1, "loc": "xy", "num_slots": 8, "start_slot": 1}},
            {"kind": "arrival", "time": 1.0, "budget": None, "task": {
                "task_id": 1, "loc": [0, 10**400], "num_slots": 8, "start_slot": 1}},
            {"kind": "arrival", "time": 1.0, "budget": None, "task": {
                "task_id": 1, "loc": [0, 10**30], "num_slots": 8, "start_slot": 1}},
            {"kind": "arrival", "time": 1.0, "budget": None, "task": {
                "task_id": 1, "loc": [0, 0], "num_slots": 2, "start_slot": 1}},
            {"kind": "join", "time": 1.0, "worker": {
                "worker_id": 1, "availability": [[2, 0, 0], [1, 0, 0]],
                "reliability": 1.0}},
            {"kind": "join", "time": 1.0, "worker": {
                "worker_id": 1, "availability": [[1, 0]], "reliability": 1.0}},
            {"kind": "join", "time": 1.0, "worker": {
                "worker_id": 1, "availability": [], "reliability": 1.5}},
        ],
    )
    def test_known_malformations_raise_typed(self, payload):
        with pytest.raises(JournalCorruptionError):
            decode_event(payload)


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

    def test_non_utf8_body_reads_as_damaged(self, tmp_path):
        """A checksum-valid line that is not UTF-8 is treated exactly
        like a checksum mismatch: a torn final line, or mid-log damage."""
        assert unframe_record(NON_UTF8_LINE) is None
        journal = self._journal(tmp_path)
        journal.append("epoch", epoch=1, now=5.0)
        journal.wal.close()
        lines = journal.wal_path.read_bytes().splitlines(keepends=True)
        journal.wal_path.write_bytes(b"".join(lines[:-1]) + NON_UTF8_LINE)
        records, _, truncated = WriteAheadLog.read(journal.wal_path)
        assert truncated
        assert len(records) == 1
        journal.wal_path.write_bytes(b"".join(lines[:-1]) + NON_UTF8_LINE + lines[-1])
        with pytest.raises(JournalCorruptionError):
            WriteAheadLog.read(journal.wal_path)

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
