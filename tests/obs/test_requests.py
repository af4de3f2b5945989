"""Request observability: trace minting, stream schema, RED fold, SLO."""

import pytest

from repro.obs.requests import (
    LATENCY_BUCKETS_S,
    PHASES,
    RequestLog,
    SLOConfig,
    SLOTracker,
    TraceContext,
    child_span_id,
    mint_trace,
    parse_traceparent,
    read_requests,
    record_span_metrics,
    red_registry,
    register_red_metrics,
    validate_request_record,
)
from repro.telemetry.metrics import MetricsRegistry


class TestTraceContext:
    def test_mint_is_deterministic(self):
        a = mint_trace("req-1", "d" * 64)
        b = mint_trace("req-1", "d" * 64)
        assert a == b
        assert len(a.trace_id) == 32 and len(a.span_id) == 16
        assert set(a.trace_id) <= set("0123456789abcdef")

    def test_mint_varies_with_inputs(self):
        base = mint_trace("req-1", "d" * 64)
        assert mint_trace("req-2", "d" * 64).trace_id != base.trace_id
        assert mint_trace("req-1", "e" * 64).trace_id != base.trace_id

    def test_traceparent_roundtrip(self):
        ctx = mint_trace("req-1", "d" * 64)
        parsed = parse_traceparent(ctx.traceparent)
        assert parsed == ctx
        assert ctx.traceparent.startswith("00-")
        assert ctx.traceparent.endswith("-01")

    def test_parse_rejects_malformed(self):
        assert parse_traceparent(None) is None
        assert parse_traceparent("") is None
        assert parse_traceparent("not-a-traceparent") is None
        assert parse_traceparent("00-short-beef-01") is None
        # The W3C all-zeros invalid sentinel.
        assert parse_traceparent(f"00-{'0' * 32}-{'0' * 16}-01") is None
        # Uppercase hex is invalid per spec.
        assert parse_traceparent(f"00-{'A' * 32}-{'b' * 16}-01") is None

    def test_parse_is_lenient_on_version_and_flags(self):
        ctx = TraceContext("ab" * 16, "cd" * 8)
        assert parse_traceparent(f"01-{ctx.trace_id}-{ctx.span_id}-00") == ctx
        assert (
            parse_traceparent(f"00-{ctx.trace_id}-{ctx.span_id}-01-extra")
            == ctx
        )

    def test_child_span_is_deterministic_and_distinct(self):
        ctx = mint_trace("req-1", "d" * 64)
        assert child_span_id(ctx, "execute") == child_span_id(ctx, "execute")
        assert child_span_id(ctx, "execute") != child_span_id(ctx, "queue")
        assert child_span_id(ctx, "execute") != ctx.span_id


def _span(**overrides) -> dict:
    record = {
        "v": 1,
        "type": "request-span",
        "ts": 100.0,
        "trace_id": "a" * 32,
        "span_id": "b" * 16,
        "request": "r-1",
        "tenant": "alpha",
        "endpoint": "bench:table4",
        "status": "done",
        "cached": False,
        "latency_s": 0.25,
        "phases": {"queue": 0.01, "execute": 0.2},
    }
    record.update(overrides)
    return record


class TestValidation:
    def test_valid_span_and_shed(self):
        assert validate_request_record(_span()) == "request-span"
        shed = {
            "v": 1, "type": "request-shed", "ts": 1.0,
            "trace_id": "c" * 32, "request": "r-2", "tenant": "beta",
            "endpoint": "bench:fig1", "reason": "tenant-rate",
        }
        assert validate_request_record(shed) == "request-shed"

    def test_rejects_bad_envelope(self):
        with pytest.raises(ValueError):
            validate_request_record("not a dict")
        with pytest.raises(ValueError):
            validate_request_record(_span(v=99))
        with pytest.raises(ValueError):
            validate_request_record(_span(type="request-mystery"))

    def test_rejects_missing_and_mistyped_fields(self):
        record = _span()
        del record["latency_s"]
        with pytest.raises(ValueError):
            validate_request_record(record)
        with pytest.raises(ValueError):
            validate_request_record(_span(cached="yes"))

    def test_rejects_unknown_or_negative_phase(self):
        with pytest.raises(ValueError):
            validate_request_record(_span(phases={"warmup": 0.1}))
        with pytest.raises(ValueError):
            validate_request_record(_span(phases={"queue": -0.1}))

    def test_phase_names_cover_lifecycle(self):
        assert PHASES == (
            "parse", "admission", "queue", "cache", "execute", "serialize"
        )


class TestRequestLog:
    def test_append_read_roundtrip(self, tmp_path):
        log = RequestLog(tmp_path)
        rec = log.append(
            "request-span",
            trace_id="a" * 32, span_id="b" * 16, request="r-1",
            tenant="alpha", endpoint="bench:table4", status="done",
            cached=True, latency_s=0.1, phases={"execute": 0.09},
        )
        assert rec["v"] == 1 and rec["ts"] > 0
        records = log.records()
        assert [r["request"] for r in records] == ["r-1"]

    def test_append_validates(self, tmp_path):
        log = RequestLog(tmp_path)
        with pytest.raises(ValueError):
            log.append("request-span", trace_id="a" * 32)

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_requests(tmp_path / "requests.ndjson") == []

    def test_append_after_torn_tail_heals_the_stream(self, tmp_path):
        def shed(log, request):
            log.append("request-shed", trace_id="a" * 32, request=request,
                       tenant="t", endpoint="bench:table4", reason="queue-full")

        log = RequestLog(tmp_path)
        shed(log, "r-1")
        shed(log, "r-2")
        path = tmp_path / "requests.ndjson"
        path.write_bytes(path.read_bytes()[:-15])
        log = RequestLog(tmp_path)
        shed(log, "r-2")
        shed(log, "r-3")
        assert [r["request"] for r in read_requests(path)] == [
            "r-1", "r-2", "r-3",
        ]


class TestRedFold:
    def test_span_and_shed_fold(self):
        registry = MetricsRegistry()
        register_red_metrics(registry)
        record_span_metrics(registry, _span())
        record_span_metrics(registry, _span(
            request="r-2", status="failed", latency_s=9.0,
        ))
        record_span_metrics(registry, {
            "v": 1, "type": "request-shed", "ts": 2.0,
            "trace_id": "c" * 32, "request": "r-3", "tenant": "alpha",
            "endpoint": "bench:table4", "reason": "tenant-rate",
        })
        count = registry.counter("service.request.count")
        assert count.total(tenant="alpha") == 2
        assert count.total(tenant="alpha", status="failed") == 1
        assert registry.counter("service.request.errors").total() == 1
        assert registry.counter("service.request.sheds").total(
            reason="tenant-rate"
        ) == 1
        latency = registry.histogram("service.request.latency_s")
        assert latency.folded_state(tenant="alpha").total == 2

    def test_red_registry_offline_matches_fold(self, tmp_path):
        log = RequestLog(tmp_path)
        for index in range(3):
            log.append(
                "request-span",
                trace_id=f"{index:032x}", span_id=f"{index:016x}",
                request=f"r-{index}", tenant="alpha",
                endpoint="bench:table4",
                status="done" if index else "failed",
                cached=False, latency_s=0.01, phases={},
            )
        registry = red_registry(tmp_path)
        assert registry.counter("service.request.count").total() == 3
        assert registry.counter("service.request.errors").total() == 1

    def test_openmetrics_exposition_is_wellformed(self):
        registry = MetricsRegistry()
        register_red_metrics(registry)
        record_span_metrics(registry, _span())
        text = registry.to_openmetrics()
        assert "service_request_latency" in text
        assert text.rstrip().endswith("# EOF")

    def test_bucket_layout_is_shared(self):
        # The loadgen client and the daemon must use one estimator.
        from repro.service.loadgen import LoadgenReport

        report = LoadgenReport()
        assert report.latency.buckets == tuple(LATENCY_BUCKETS_S)


class TestSLO:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SLOConfig(latency_s=0.0)
        with pytest.raises(ValueError):
            SLOConfig(availability=1.5)
        with pytest.raises(ValueError):
            SLOConfig(windows_s=())

    def test_good_requires_done_within_latency(self):
        tracker = SLOTracker(SLOConfig(latency_s=1.0))
        assert tracker.record(True, 0.5, now=0.0) is True
        assert tracker.record(True, 2.0, now=1.0) is False
        assert tracker.record(False, 0.1, now=2.0) is False
        assert tracker.total == 3 and tracker.good == 1

    def test_burn_rate_math(self):
        config = SLOConfig(latency_s=1.0, availability=0.99,
                           windows_s=(60.0,))
        tracker = SLOTracker(config)
        for i in range(99):
            tracker.record(True, 0.1, now=float(i) / 10)
        tracker.record(False, 0.1, now=10.0)
        # 1% errors against a 1% budget: burn rate exactly 1.0.
        assert tracker.burn_rate(60.0, now=10.0) == pytest.approx(1.0)
        snap = tracker.snapshot(now=10.0)
        assert snap["status"] == "ok"
        assert snap["windows"]["60s"]["burn_rate"] == pytest.approx(1.0)

    def test_burning_status_above_budget(self):
        tracker = SLOTracker(
            SLOConfig(availability=0.99, windows_s=(60.0,))
        )
        for i in range(10):
            tracker.record(i % 2 == 0, 0.1, now=float(i))
        snap = tracker.snapshot(now=10.0)
        assert snap["status"] == "burning"
        assert snap["compliance"] == pytest.approx(0.5)

    def test_windows_are_trailing(self):
        tracker = SLOTracker(SLOConfig(windows_s=(10.0, 100.0)))
        tracker.record(False, 0.1, now=0.0)
        tracker.record(True, 0.1, now=50.0)
        assert tracker.window_counts(10.0, now=50.0) == (1, 1)
        assert tracker.window_counts(100.0, now=50.0) == (1, 2)

    def test_empty_tracker_snapshot(self):
        snap = SLOTracker().snapshot(now=0.0)
        assert snap["total"] == 0
        assert snap["compliance"] == 1.0
        assert snap["status"] == "ok"
