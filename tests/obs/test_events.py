"""Event bus: schema validation, torn tails, seq resume, determinism.

The load-bearing property is the last class: the deterministic stream
(``events.ndjson``) is byte-identical between a serial run and a
``--jobs N`` run of the same (spec, scenario, seed) — that is what the
CI ``obs-smoke`` job ``cmp``\\ s.
"""

import json

import pytest

from repro.campaign.orchestrator import Orchestrator
from repro.campaign.spec import get_spec
from repro.obs.events import (
    DETERMINISTIC_EVENTS,
    EVENT_SCHEMA_VERSION,
    EventBus,
    LIVE_EVENTS,
    read_events,
    validate_event,
)

#: One well-formed payload per deterministic event type.
_DET_SAMPLES = {
    "campaign-start": dict(
        spec="smoke", spec_digest="d" * 64, scenario=None, seed=0, units=4
    ),
    "unit-committed": dict(
        unit="u", status="OK", digest="d" * 64, simulated_s=1.5
    ),
    "cache-stats": dict(unit="u", hits=3.0, misses=1.0, bypasses=0.0),
    "fault-injected": dict(unit="u", incident="device-loss"),
    "profile-attributed": dict(
        unit="u", digest="d" * 64, device_us=12.5, kernels=2
    ),
    "resume": dict(skipped=2, rerun=2),
    "interrupted": dict(before="u"),
    "deadline": dict(before="u", simulated_s=9.0),
    "campaign-done": dict(exit=0),
}

#: One well-formed payload per live event type.
_LIVE_SAMPLES = {
    "run-live": dict(jobs=4, pid=123, units=19),
    "worker-spawn": dict(worker="campaign-worker-0", index=0),
    "unit-dispatched": dict(unit="u", index=0, attempt=1),
    "worker-heartbeat": dict(index=0, unit="u"),
    "unit-completed": dict(unit="u", status="ok"),
    "worker-exit": dict(worker="campaign-worker-0", exitcode=-9, unit="u"),
    "worker-respawn": dict(
        worker="campaign-worker-2",
        replaces="campaign-worker-0",
        respawns_used=1,
    ),
    "worker-hang-kill": dict(worker="campaign-worker-0", unit="u"),
    "pool-degraded": dict(),
    "quarantine": dict(unit="u", exit_codes=[-9, -9, -9]),
    "service-start": dict(pid=123, port=8080, recovered=2),
    "request-accepted": dict(request="r-1", tenant="default", kind="bench"),
    "request-shed": dict(tenant="default", reason="tenant rate"),
    "request-completed": dict(request="r-1", status="done", cached=True),
    "request-recovered": dict(request="r-1", tenant="default"),
    "request-executing": dict(request="r-1", tenant="default"),
    "request-cache": dict(request="r-1", hit=True),
    "cache-quarantined": dict(key="d" * 64),
    "service-drain": dict(inflight=1, queued=3),
}


class TestValidateEvent:
    @pytest.mark.parametrize("etype", sorted(DETERMINISTIC_EVENTS))
    def test_every_deterministic_type_validates(self, etype):
        record = {
            "v": EVENT_SCHEMA_VERSION,
            "type": etype,
            "seq": 0,
            "sim_us": 0.0,
            **_DET_SAMPLES[etype],
        }
        assert validate_event(record) == etype

    @pytest.mark.parametrize("etype", sorted(LIVE_EVENTS))
    def test_every_live_type_validates(self, etype):
        record = {
            "v": EVENT_SCHEMA_VERSION,
            "type": etype,
            "ts": 1000.0,
            **_LIVE_SAMPLES[etype],
        }
        assert validate_event(record) == etype

    def test_samples_cover_every_schema_type(self):
        assert set(_DET_SAMPLES) == set(DETERMINISTIC_EVENTS)
        assert set(_LIVE_SAMPLES) == set(LIVE_EVENTS)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            validate_event({"v": 1, "type": "nope", "seq": 0, "sim_us": 0.0})

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError, match="schema version"):
            validate_event({"v": 99, "type": "campaign-done", "exit": 0})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing field 'exit'"):
            validate_event(
                {"v": 1, "type": "campaign-done", "seq": 0, "sim_us": 0.0}
            )

    def test_wrong_field_type_rejected(self):
        with pytest.raises(ValueError, match="field 'exit'"):
            validate_event(
                {
                    "v": 1,
                    "type": "campaign-done",
                    "seq": 0,
                    "sim_us": 0.0,
                    "exit": "zero",
                }
            )

    def test_deterministic_record_must_not_carry_wall_time(self):
        with pytest.raises(ValueError, match="wall time"):
            validate_event(
                {
                    "v": 1,
                    "type": "campaign-done",
                    "seq": 0,
                    "sim_us": 0.0,
                    "ts": 12.0,
                    "exit": 0,
                }
            )

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="not an object"):
            validate_event(["campaign-done"])


class TestEventBus:
    def test_emit_assigns_monotonic_seq(self, tmp_path):
        bus = EventBus(tmp_path)
        r0 = bus.emit("campaign-done", sim_us=0.0, exit=0)
        r1 = bus.emit("campaign-done", sim_us=1.0, exit=0)
        assert (r0["seq"], r1["seq"]) == (0, 1)

    def test_seq_resumes_after_existing_stream(self, tmp_path):
        EventBus(tmp_path).emit("campaign-done", sim_us=0.0, exit=0)
        rec = EventBus(tmp_path).emit("campaign-done", sim_us=1.0, exit=0)
        assert rec["seq"] == 1
        assert [r["seq"] for r in read_events(tmp_path / "events.ndjson")] == [
            0,
            1,
        ]

    def test_disabled_bus_writes_nothing(self, tmp_path):
        bus = EventBus(tmp_path, enabled=False)
        assert bus.emit("campaign-done", sim_us=0.0, exit=0) is None
        assert bus.live("pool-degraded") is None
        assert not (tmp_path / "events.ndjson").exists()
        assert not (tmp_path / "live.ndjson").exists()

    def test_unknown_types_rejected_at_emit(self, tmp_path):
        bus = EventBus(tmp_path)
        with pytest.raises(ValueError):
            bus.emit("worker-spawn", sim_us=0.0, worker="w", index=0)
        with pytest.raises(ValueError):
            bus.live("campaign-done", exit=0)

    def test_live_records_carry_wall_clock(self, tmp_path):
        bus = EventBus(tmp_path)
        rec = bus.live("pool-degraded")
        assert rec["ts"] > 0
        assert validate_event(rec) == "pool-degraded"

    def test_read_tolerates_torn_last_line(self, tmp_path):
        bus = EventBus(tmp_path)
        bus.emit("campaign-done", sim_us=0.0, exit=0)
        bus.emit("campaign-done", sim_us=1.0, exit=0)
        path = tmp_path / "events.ndjson"
        torn = path.read_bytes()[:-10]
        path.write_bytes(torn)
        records = read_events(path)
        assert len(records) == 1 and records[0]["seq"] == 0
        # A bus over the torn stream resumes after the trusted prefix.
        rec = EventBus(tmp_path).emit("campaign-done", sim_us=2.0, exit=0)
        assert rec["seq"] == 1

    def test_missing_stream_reads_empty(self, tmp_path):
        assert read_events(tmp_path / "events.ndjson") == []

    def test_first_emit_creates_the_directory(self, tmp_path):
        bus = EventBus(tmp_path / "run")
        bus.emit("campaign-done", sim_us=0.0, exit=0)
        assert [r["seq"] for r in bus.deterministic_records()] == [0]

    def test_emit_after_torn_tail_heals_the_stream(self, tmp_path):
        bus = EventBus(tmp_path)
        bus.emit("campaign-start", sim_us=0.0, **_DET_SAMPLES["campaign-start"])
        bus.emit("resume", sim_us=0.0, skipped=0, rerun=1)
        path = tmp_path / "events.ndjson"
        path.write_bytes(path.read_bytes()[:-15])
        bus = EventBus(tmp_path)
        bus.emit("resume", sim_us=0.0, skipped=0, rerun=1)
        bus.emit("campaign-done", sim_us=1.0, exit=0)
        records = read_events(path)
        assert [r["type"] for r in records] == [
            "campaign-start", "resume", "campaign-done",
        ]
        assert [r["seq"] for r in records] == [0, 1, 2]

    def test_live_after_torn_tail_heals_the_stream(self, tmp_path):
        bus = EventBus(tmp_path)
        bus.live("run-live", jobs=2, pid=1, units=4)
        bus.live("pool-degraded")
        path = tmp_path / "live.ndjson"
        path.write_bytes(path.read_bytes()[:-15])
        bus = EventBus(tmp_path)
        bus.live("pool-degraded")
        bus.live("worker-spawn", worker="w1", index=1)
        assert [r["type"] for r in read_events(path)] == [
            "run-live", "pool-degraded", "worker-spawn",
        ]

    def test_schema_invalid_record_ends_prefix(self, tmp_path):
        bus = EventBus(tmp_path)
        rec = bus.live("pool-degraded")
        with open(bus.live_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"v": 1, "type": "bogus", "ts": 0.0}) + "\n")
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        assert read_events(bus.live_path) == [rec]


class TestStreamDeterminism:
    def _run(self, directory, jobs):
        orch = Orchestrator(directory, spec=get_spec("smoke"), jobs=jobs)
        assert int(orch.run()) == 0
        return (directory / "events.ndjson").read_bytes()

    def test_serial_and_parallel_streams_byte_identical(self, tmp_path):
        serial = self._run(tmp_path / "serial", jobs=1)
        parallel = self._run(tmp_path / "parallel", jobs=2)
        assert serial == parallel

    def test_every_emitted_record_validates(self, tmp_path):
        self._run(tmp_path / "run", jobs=2)
        for name in ("events.ndjson", "live.ndjson"):
            records = read_events(tmp_path / "run" / name)
            assert records
            for rec in records:
                validate_event(rec)

    def test_stream_tells_the_campaign_story_in_commit_order(self, tmp_path):
        self._run(tmp_path / "run", jobs=2)
        records = read_events(tmp_path / "run" / "events.ndjson")
        types = [r["type"] for r in records]
        assert types[0] == "campaign-start"
        assert types[-1] == "campaign-done"
        committed = [r["unit"] for r in records if r["type"] == "unit-committed"]
        assert committed == [
            u.id for u in get_spec("smoke").execution_order()
        ]
        assert json.loads(json.dumps(records)) == records  # JSON-pure

    def test_resume_extends_the_stream(self, tmp_path):
        from repro.faults.scenarios import build_campaign_plan

        directory = tmp_path / "crashed"
        plan = build_campaign_plan("crash-midrun", 0, len(get_spec("smoke")))
        orch = Orchestrator(
            directory, spec=get_spec("smoke"), campaign_plan=plan
        )
        assert orch.run() is not None
        before = read_events(directory / "events.ndjson")
        assert int(Orchestrator(directory).resume()) == 0
        after = read_events(directory / "events.ndjson")
        assert after[: len(before)] == before
        types = [r["type"] for r in after]
        assert "resume" in types and types[-1] == "campaign-done"
        assert [r["seq"] for r in after] == list(range(len(after)))
