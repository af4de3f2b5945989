"""Torn-tail property: every byte-level chop of a stream reads cleanly.

A concurrent reader (``campaign watch`` tailing ``live.ndjson``, a
memostore recovering its index while yesterday's daemon was
SIGKILLed mid-append) can observe an NDJSON file cut at *any* byte
offset.  The property, swept exhaustively over every chop point of a
representative stream, is:

* the reader never raises;
* it returns exactly the records whose full line (including the
  terminating newline) survived the chop — the longest intact prefix,
  never a partial or reassembled record;
* for the sealed readers, a chop is indistinguishable from a torn
  write: the dropped-tail count matches what was cut.

This is the byte-level generalisation of the line-level torn-tail
tests the journal already has.  It covers all five append-only
streams: the campaign journal, the deterministic and live event
streams, the request span stream, the memostore index journal, and the
service queue journal.  A last sweep chops each stream at every byte,
appends one record through the stream's own writer, and checks that
the append heals the tear: the reader then sees the intact prefix plus
the new record.
"""

import json

import pytest

from repro.campaign.journal import Journal
from repro.ioutils import seal_record
from repro.obs.events import EventBus, read_events
from repro.sim.memo import content_digest
from repro.sim.memostore import INDEX_VERSION, MemoStore, _index_log, read_index
from repro.obs.requests import RequestLog, read_requests
from repro.service.state import ServiceState, normalize_request


def _chop_points(data: bytes) -> range:
    return range(len(data) + 1)


def _intact_prefix_lines(data: bytes, chop: int) -> int:
    """Lines wholly (newline included) inside ``data[:chop]``."""
    return data[:chop].count(b"\n")


class TestLiveStreamChopSweep:
    def test_every_chop_reads_longest_intact_prefix(self, tmp_path):
        bus = EventBus(tmp_path)
        for index in range(6):
            bus.live("worker-heartbeat", index=index, unit=f"u{index}")
        data = open(bus.live_path, "rb").read()
        full = read_events(bus.live_path)
        assert len(full) == 6
        chopped = tmp_path / "chopped.ndjson"
        for chop in _chop_points(data):
            chopped.write_bytes(data[:chop])
            records = read_events(chopped)
            expected = _intact_prefix_lines(data, chop)
            assert records == full[:expected], f"chop at byte {chop}"

    def test_garbage_tail_ends_prefix(self, tmp_path):
        bus = EventBus(tmp_path)
        bus.live("pool-degraded")
        with open(bus.live_path, "ab") as fh:
            fh.write(b"\x00\xffnot json\n")
        records = read_events(bus.live_path)
        assert len(records) == 1
        assert records[0]["type"] == "pool-degraded"


class TestJournalChopSweep:
    def test_every_chop_reads_longest_intact_prefix(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.append("campaign-start", spec="smoke", seed=0)
        for index in range(4):
            journal.append("unit-start", unit=f"u{index}")
        data = path.read_bytes()
        full = Journal.load(path).records
        assert len(full) == 5
        chopped = tmp_path / "chopped.jsonl"
        for chop in _chop_points(data):
            chopped.write_bytes(data[:chop])
            loaded = Journal.load(chopped)
            expected = _intact_prefix_lines(data, chop)
            assert loaded.records == full[:expected], f"chop at byte {chop}"
            torn = int(not data[:chop].endswith(b"\n") and chop > 0)
            assert loaded.dropped_tail == torn, f"chop at byte {chop}"


class TestEventStreamChopSweep:
    def test_every_chop_reads_longest_intact_prefix(self, tmp_path):
        bus = EventBus(tmp_path)
        bus.emit("campaign-start", sim_us=0.0, spec="smoke", spec_digest="d",
                 scenario=None, seed=0, units=4)
        for index in range(4):
            bus.emit("unit-committed", sim_us=float(index), unit=f"u{index}",
                     status="OK", digest="e" * 64, simulated_s=0.5)
        bus.emit("campaign-done", sim_us=4.0, exit=0)
        data = open(bus.events_path, "rb").read()
        full = read_events(bus.events_path)
        assert len(full) == 6
        chopped = tmp_path / "chopped.ndjson"
        for chop in _chop_points(data):
            chopped.write_bytes(data[:chop])
            records = read_events(chopped)
            expected = _intact_prefix_lines(data, chop)
            assert records == full[:expected], f"chop at byte {chop}"


class TestMemostoreIndexChopSweep:
    def test_every_chop_recovers_without_error(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        keys = [content_digest(("k", i)) for i in range(5)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
        data = open(store.index_path, "rb").read()
        full, dropped = read_index(store.index_path)
        assert dropped == 0 and len(full) == 5
        chopped = tmp_path / "chopped.jsonl"
        for chop in _chop_points(data):
            chopped.write_bytes(data[:chop])
            records, _ = read_index(chopped)
            expected = _intact_prefix_lines(data, chop)
            assert records == full[:expected], f"chop at byte {chop}"

    def test_store_survives_chopped_index_at_every_point(self, tmp_path):
        """A SIGKILL mid-index-append never loses objects on disk."""
        seed_root = tmp_path / "seed"
        store = MemoStore(seed_root)
        keys = [content_digest(("k", i)) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
        data = open(store.index_path, "rb").read()
        # Sweep a coarse grid (every 7 bytes) of index truncations: the
        # rebuilt store must always serve every object.
        for chop in range(0, len(data) + 1, 7):
            with open(store.index_path, "wb") as fh:
                fh.write(data[:chop])
            recovered = MemoStore(seed_root)
            for i, key in enumerate(keys):
                assert recovered.get(key) == {"i": i}, f"chop at byte {chop}"

    def test_checksum_flip_ends_prefix(self, tmp_path):
        rec1 = seal_record({"v": INDEX_VERSION, "op": "put", "key": "a" * 64})
        rec2 = seal_record({"v": INDEX_VERSION, "op": "put", "key": "b" * 64})
        rec2["sha256"] = "0" * 64  # forged seal
        path = tmp_path / "index.jsonl"
        path.write_text(
            json.dumps(rec1, sort_keys=True) + "\n"
            + json.dumps(rec2, sort_keys=True) + "\n"
        )
        records, dropped = read_index(path)
        assert [r["key"] for r in records] == ["a" * 64]
        assert dropped == 1


class TestRequestLogChopSweep:
    def _seed_log(self, directory) -> RequestLog:
        log = RequestLog(directory)
        for index in range(5):
            log.append(
                "request-span",
                trace_id=f"{index:032x}",
                span_id=f"{index:016x}",
                request=f"r-{index}",
                tenant=f"tenant-{index % 2}",
                endpoint="bench:table4",
                status="done",
                cached=bool(index % 2),
                latency_s=0.01 * (index + 1),
                phases={"queue": 0.001, "execute": 0.009},
            )
        log.append(
            "request-shed",
            trace_id="f" * 32,
            request="r-shed",
            tenant="tenant-0",
            endpoint="bench:table4",
            reason="tenant-rate",
        )
        return log

    def test_every_chop_reads_longest_intact_prefix(self, tmp_path):
        log = self._seed_log(tmp_path)
        data = open(log.path, "rb").read()
        full = read_requests(log.path)
        assert len(full) == 6
        chopped = tmp_path / "chopped.ndjson"
        for chop in _chop_points(data):
            chopped.write_bytes(data[:chop])
            records = read_requests(chopped)
            expected = _intact_prefix_lines(data, chop)
            assert records == full[:expected], f"chop at byte {chop}"

    def test_schema_invalid_record_ends_prefix(self, tmp_path):
        """Unlike raw NDJSON readers, the request reader also stops at
        the first record that parses but fails schema validation — a
        half-migrated or corrupted stream never feeds garbage into the
        RED fold."""
        log = self._seed_log(tmp_path)
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {"v": 1, "type": "request-span", "ts": 0.0,
                     "trace_id": "a" * 32, "span_id": "b" * 16,
                     "request": "r-bad", "tenant": "t", "endpoint": "e",
                     "status": "done", "cached": False,
                     "latency_s": 0.1, "phases": {"bogus": 0.1}}
                )
                + "\n"
            )
            fh.write(
                json.dumps(
                    {"v": 1, "type": "request-shed", "ts": 0.0,
                     "trace_id": "c" * 32, "request": "r-after",
                     "tenant": "t", "endpoint": "e", "reason": "x"}
                )
                + "\n"
            )
        records = read_requests(log.path)
        assert len(records) == 6
        assert all(r["request"] != "r-bad" for r in records)
        assert all(r["request"] != "r-after" for r in records)

    def test_garbage_tail_ends_prefix(self, tmp_path):
        log = self._seed_log(tmp_path)
        with open(log.path, "ab") as fh:
            fh.write(b"\x00\xffnot json\n")
        records = read_requests(log.path)
        assert len(records) == 6


class TestQueueJournalChopSweep:
    def test_every_chop_yields_valid_recovery(self, tmp_path):
        state = ServiceState(tmp_path / "svc")
        body = normalize_request({"command": "table4"})
        for i in range(4):
            state.journal_accepted(f"r-{i}", "default", body)
        state.journal_done("r-0", "done", "d" * 64)
        data = open(state.queue_path, "rb").read()
        for chop in _chop_points(data):
            root = tmp_path / f"chop-{chop}"
            chopped = ServiceState(root)
            with open(chopped.queue_path, "wb") as fh:
                fh.write(data[:chop])
            survivors = chopped.recover()
            ids = [s["request_id"] for s in survivors]
            # Recovery must be a prefix of the true backlog story:
            # never a duplicate, never an unknown id, never r-0 after
            # its 'done' record became visible.
            assert len(ids) == len(set(ids))
            assert set(ids) <= {f"r-{i}" for i in range(4)}
            if chop == len(data):
                assert ids == ["r-1", "r-2", "r-3"]

    def test_recovery_compaction_is_itself_chop_safe(self, tmp_path):
        """recover() rewrites the journal; the rewrite must be sealed
        NDJSON a second recovery reads identically."""
        state = ServiceState(tmp_path / "svc")
        body = normalize_request({"command": "table1"})
        for i in range(3):
            state.journal_accepted(f"r-{i}", "t", body)
        first = [s["request_id"] for s in state.recover()]
        second = [s["request_id"] for s in state.recover()]
        assert first == second == ["r-0", "r-1", "r-2"]


# ----------------------------------------------------------------------
# chop, append one record, read: every stream heals its torn tail
# ----------------------------------------------------------------------


class _Journal:
    name = "journal.jsonl"

    def seed(self, d):
        journal = Journal(d / self.name)
        journal.append("campaign-start", spec="smoke", seed=0)
        for index in range(2):
            journal.append("unit-start", unit=f"u{index}")

    def append(self, d):
        return Journal.load(d / self.name).append("resume", skipped=[], rerun=[])

    def read(self, d):
        return Journal.load(d / self.name).records


class _Events:
    name = "events.ndjson"

    def seed(self, d):
        bus = EventBus(d)
        for index in range(3):
            bus.emit("unit-committed", sim_us=float(index), unit=f"u{index}",
                     status="OK", digest="e" * 64, simulated_s=0.5)

    def append(self, d):
        return EventBus(d).emit("campaign-done", sim_us=9.0, exit=0)

    def read(self, d):
        return read_events(d / self.name)


class _Live:
    name = "live.ndjson"

    def seed(self, d):
        bus = EventBus(d)
        for index in range(3):
            bus.live("worker-heartbeat", index=index, unit=f"u{index}")

    def append(self, d):
        return EventBus(d).live("pool-degraded")

    def read(self, d):
        return read_events(d / self.name)


class _Requests:
    name = "requests.ndjson"

    def seed(self, d):
        log = RequestLog(d)
        for index in range(3):
            log.append("request-shed", trace_id=f"{index:032x}",
                       request=f"r-{index}", tenant="t", endpoint="e",
                       reason="tenant-rate")

    def append(self, d):
        return RequestLog(d).append(
            "request-shed", trace_id="f" * 32, request="r-new", tenant="t",
            endpoint="e", reason="queue-full",
        )

    def read(self, d):
        return read_requests(d / self.name)


class _Index:
    name = "index.jsonl"

    def seed(self, d):
        store = MemoStore(d)
        for index in range(3):
            store.put(content_digest(("k", index)), {"i": index})

    def append(self, d):
        return _index_log(d / self.name).append(
            {"v": INDEX_VERSION, "op": "put", "key": "a" * 64}
        )

    def read(self, d):
        return read_index(d / self.name)[0]


class _Queue:
    name = "queue.jsonl"

    def seed(self, d):
        state = ServiceState(d)
        body = normalize_request({"command": "table4"})
        for index in range(3):
            state.journal_accepted(f"r-{index}", "default", body)

    def append(self, d):
        state = ServiceState(d)
        state.journal_done("r-0", "done", "d" * 64)
        return state.read_queue()[0][-1]

    def read(self, d):
        return ServiceState(d).read_queue()[0]


@pytest.mark.parametrize(
    "stream",
    [_Journal(), _Events(), _Live(), _Requests(), _Index(), _Queue()],
    ids=lambda stream: stream.name,
)
def test_every_chop_then_append_reads_prefix_plus_record(tmp_path, stream):
    """A writer opened over a stream cut at any byte cuts the torn tail
    off before its first append, so the new record is visible right
    after the intact prefix — never glued to a partial line."""
    stream.seed(tmp_path)
    path = tmp_path / stream.name
    data = path.read_bytes()
    full = stream.read(tmp_path)
    assert len(full) == data.count(b"\n")
    for chop in _chop_points(data):
        path.write_bytes(data[:chop])
        record = stream.append(tmp_path)
        expected = full[: _intact_prefix_lines(data, chop)] + [record]
        assert stream.read(tmp_path) == expected, f"chop at byte {chop}"
