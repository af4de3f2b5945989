"""The registry's update fast path keeps every check and every byte."""

import sys
import threading

import pytest

from repro.telemetry.metrics import MetricsRegistry

GOLDEN_OPENMETRICS = """\
# TYPE kernel_count counter
kernel_count_total{bound="compute",kernel="dgemm"} 2
kernel_count_total{bound="memory",kernel="triad"} 2
# TYPE kernel_time_us histogram
kernel_time_us_bucket{kernel="dgemm",le="1"} 0
kernel_time_us_bucket{kernel="dgemm",le="10"} 1
kernel_time_us_bucket{kernel="dgemm",le="100"} 1
kernel_time_us_bucket{kernel="dgemm",le="1000"} 2
kernel_time_us_bucket{kernel="dgemm",le="10000"} 2
kernel_time_us_bucket{kernel="dgemm",le="100000"} 2
kernel_time_us_bucket{kernel="dgemm",le="1000000"} 2
kernel_time_us_bucket{kernel="dgemm",le="10000000"} 2
kernel_time_us_bucket{kernel="dgemm",le="+Inf"} 2
kernel_time_us_sum{kernel="dgemm"} 135.5
kernel_time_us_count{kernel="dgemm"} 2
# TYPE rep_time_us histogram
rep_time_us_bucket{benchmark="gemm",le="1",unit="t2"} 0
rep_time_us_bucket{benchmark="gemm",le="10",unit="t2"} 0
rep_time_us_bucket{benchmark="gemm",le="100",unit="t2"} 1
rep_time_us_bucket{benchmark="gemm",le="1000",unit="t2"} 1
rep_time_us_bucket{benchmark="gemm",le="10000",unit="t2"} 1
rep_time_us_bucket{benchmark="gemm",le="100000",unit="t2"} 1
rep_time_us_bucket{benchmark="gemm",le="1000000",unit="t2"} 1
rep_time_us_bucket{benchmark="gemm",le="10000000",unit="t2"} 2
rep_time_us_bucket{benchmark="gemm",le="+Inf",unit="t2"} 2
rep_time_us_sum{benchmark="gemm",unit="t2"} 2000040
rep_time_us_count{benchmark="gemm",unit="t2"} 2
# TYPE roofline_regime gauge
roofline_regime{kernel="dgemm"} 1
roofline_regime{kernel="triad"} 2
# TYPE simcache_hit counter
simcache_hit_total 4
# EOF
"""


class TestChecksSurviveFirstUse:
    def test_bad_label_raises_on_existing_metric(self):
        reg = MetricsRegistry()
        reg.inc("kernel.count", kernel="dgemm")
        reg.observe("kernel.time_us", 1.0, kernel="dgemm")
        reg.set_gauge("roofline.regime", 1.0, kernel="dgemm")
        for _ in range(2):  # a rejected name is never remembered as good
            with pytest.raises(ValueError, match="bad label name"):
                reg.inc("kernel.count", **{"bad-label": "x"})
            with pytest.raises(ValueError, match="bad label name"):
                reg.observe("kernel.time_us", 1.0, **{"9lives": "x"})
            with pytest.raises(ValueError, match="bad label name"):
                reg.set_gauge("roofline.regime", 1.0, **{"a b": "x"})
        assert reg.counter("kernel.count").total() == 1.0

    def test_new_label_names_are_still_checked(self):
        reg = MetricsRegistry()
        reg.inc("x", kernel="a")
        reg.inc("x", kernel="a", fresh_label="b")
        with pytest.raises(ValueError, match="bad label name"):
            reg.inc("x", kernel="a", **{"fresh-label": "b"})

    @pytest.mark.parametrize(
        "first, clash",
        [
            (lambda r: r.inc("m"), lambda r: r.set_gauge("m", 1.0)),
            (lambda r: r.set_gauge("m", 1.0), lambda r: r.inc("m")),
            (lambda r: r.inc("m"), lambda r: r.observe("m", 1.0)),
            (lambda r: r.observe("m", 1.0), lambda r: r.gauge("m")),
        ],
    )
    def test_kind_clash_raises_after_first_use(self, first, clash):
        reg = MetricsRegistry()
        first(reg)
        first(reg)  # the metric now exists and takes the fast path
        for _ in range(2):
            with pytest.raises(ValueError, match="already registered"):
                clash(reg)

    def test_bad_metric_name_still_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="bad metric name"):
            reg.inc("kernel flops")
        assert "kernel flops" not in reg

    def test_negative_counter_increment_rejected(self):
        reg = MetricsRegistry()
        reg.inc("c", kernel="a")
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.inc("c", -1.0, kernel="a")
        assert reg.value("c", kernel="a") == 1.0


class TestExposition:
    def test_golden_openmetrics_independent_of_kwarg_order(self):
        reg = MetricsRegistry()
        reg.inc("kernel.count", bound="memory", kernel="triad")
        reg.inc("kernel.count", kernel="triad", bound="memory")
        reg.inc("kernel.count", 2, kernel="dgemm", bound="compute")
        reg.inc("simcache.hit")
        reg.inc("simcache.hit", 3)
        reg.observe("kernel.time_us", 130.0, kernel="dgemm")
        reg.observe("kernel.time_us", 5.5, kernel="dgemm")
        reg.observe("rep.time_us", 2e6, unit="t2", benchmark="gemm")
        reg.observe("rep.time_us", 40.0, benchmark="gemm", unit="t2")
        reg.set_gauge("roofline.regime", 0.0, kernel="triad")
        reg.set_gauge("roofline.regime", 1.0, kernel="dgemm")
        reg.set_gauge("roofline.regime", 2.0, kernel="triad")
        assert reg.to_openmetrics() == GOLDEN_OPENMETRICS


class TestConcurrency:
    @pytest.fixture()
    def eager_thread_switches(self):
        # Switch threads every few bytecodes so a read-modify-write
        # outside the lock would lose updates in this test.
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(old)

    def test_concurrent_increments_are_exact(self, eager_thread_switches):
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 2000
        start = threading.Barrier(n_threads)

        def worker(rank: int) -> None:
            start.wait()
            for i in range(per_thread):
                reg.inc("mpi.messages")
                reg.inc("mpi.bytes", 2.0, rank=rank % 2)
                reg.inc(f"fresh.{i % 5}")  # creation races too

        threads = [
            threading.Thread(target=worker, args=(r,))
            for r in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        total = n_threads * per_thread
        assert reg.value("mpi.messages") == total
        assert reg.counter("mpi.bytes").total() == 2.0 * total
        assert reg.value("mpi.bytes", rank=0) == total
        assert sum(reg.value(f"fresh.{k}") for k in range(5)) == total
