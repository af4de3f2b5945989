"""Functional numerics checks run once per process and still fail loudly."""

import importlib

import pytest

from repro.analysis.tables import table_ii
from repro.dtypes import Precision
from repro.micro.fft import Fft, check_fft_numerics
from repro.micro.gemm import Gemm, check_gemm_numerics
from repro.micro.peak_flops import PeakFlops, check_fma_numerics
from repro.micro.triad import Triad, check_triad_numerics

# ``repro.micro`` re-exports functions named like these modules.
fft_mod = importlib.import_module("repro.micro.fft")
gemm_mod = importlib.import_module("repro.micro.gemm")
peak_mod = importlib.import_module("repro.micro.peak_flops")
triad_mod = importlib.import_module("repro.micro.triad")


def _corrupt(fn):
    def broken(*args, **kwargs):
        return fn(*args, **kwargs) + 1
    return broken


class TestFailuresAreNeverMemoised:
    @pytest.mark.parametrize(
        "precision, message",
        [
            (Precision.FP64, "GEMM numerics diverged"),
            (Precision.I8, "I8 GEMM numerics diverged"),
        ],
    )
    def test_corrupt_gemm_fails_every_measure(
        self, aurora, monkeypatch, precision, message
    ):
        bench = Gemm(precision)
        bench.measure(aurora)  # a good run is memoised ...
        monkeypatch.setattr(
            gemm_mod, "blocked_gemm", _corrupt(gemm_mod.blocked_gemm)
        )
        check_gemm_numerics.cache_clear()
        # ... a failing one is not: both calls re-run the check.
        for _ in range(2):
            with pytest.raises(AssertionError, match=f"^{message}$"):
                bench.measure(aurora)
        assert check_gemm_numerics.cache_info().currsize == 0

    def test_corrupt_fft_fails_every_measure(self, aurora, monkeypatch):
        bench = Fft(ndim=1)
        bench.measure(aurora)
        monkeypatch.setattr(fft_mod, "fft", _corrupt(fft_mod.fft))
        check_fft_numerics.cache_clear()
        for _ in range(2):
            with pytest.raises(AssertionError, match="^FFT numerics diverged$"):
                bench.measure(aurora)
        assert check_fft_numerics.cache_info().currsize == 0

    def test_corrupt_triad_fails_every_measure(self, aurora, monkeypatch):
        monkeypatch.setattr(triad_mod, "triad", _corrupt(triad_mod.triad))
        for _ in range(2):
            with pytest.raises(AssertionError, match="triad numerics diverged"):
                Triad().measure(aurora)

    def test_corrupt_fma_chain_fails_every_measure(self, aurora, monkeypatch):
        monkeypatch.setattr(
            peak_mod, "fma_chain", _corrupt(peak_mod.fma_chain)
        )
        for _ in range(2):
            with pytest.raises(AssertionError, match="FMA chain numerics"):
                PeakFlops().measure(aurora)


class TestMemoKeys:
    def test_functional_n_is_part_of_the_gemm_key(self, aurora, monkeypatch):
        calls = []
        real = gemm_mod.blocked_gemm

        def spy(a, b, **kwargs):
            calls.append(a.shape[0])
            return real(a, b, **kwargs)

        monkeypatch.setattr(gemm_mod, "blocked_gemm", spy)
        Gemm(functional_n=32).measure(aurora)
        Gemm(functional_n=32).measure(aurora)
        Gemm(functional_n=48).measure(aurora)
        assert calls == [32, 48]

    def test_functional_n_is_part_of_the_fft_key(self, aurora):
        Fft(functional_n=32).measure(aurora)
        Fft(functional_n=48).measure(aurora)
        info = check_fft_numerics.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert info.hits > 0

    def test_triad_and_fma_keys(self, aurora):
        Triad(functional_elements=1024).measure(aurora)
        Triad(functional_elements=2048).measure(aurora)
        PeakFlops(Precision.FP64).measure(aurora)
        PeakFlops(Precision.FP32).measure(aurora)
        PeakFlops(Precision.FP32, functional_chain=32).measure(aurora)
        assert check_triad_numerics.cache_info().misses == 2
        assert check_fma_numerics.cache_info().misses == 3


class TestTableIIPass:
    def test_numerics_run_once_per_variant(self, monkeypatch):
        entries = {"gemm": 0, "fft": 0}
        for name, cls in (("gemm", Gemm), ("fft", Fft)):
            real = cls._functional_check

            def counting(self, real=real, name=name):
                entries[name] += 1
                real(self)

            monkeypatch.setattr(cls, "_functional_check", counting)
        kernel_calls = {"blocked_gemm": 0, "fft": 0}
        for module, attr in ((gemm_mod, "blocked_gemm"), (fft_mod, "fft")):
            real = getattr(module, attr)

            def spy(*args, real=real, attr=attr, **kwargs):
                kernel_calls[attr] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, attr, spy)
        table_ii(("aurora", "dawn"))
        # 6 GEMM precisions + 4 FFT variants (1D/2D x forward/backward)
        # at most, however many repetitions and scopes asked for them.
        # One GEMM check is one blocked_gemm call; one FFT check is at
        # most two fft calls (a 2D transform makes a row and a column
        # pass).
        assert kernel_calls["blocked_gemm"] <= 6
        assert kernel_calls["fft"] <= 2 * 4
        gemm_runs = check_gemm_numerics.cache_info().misses
        fft_runs = check_fft_numerics.cache_info().misses
        assert gemm_runs + fft_runs <= 10
        assert entries["gemm"] + entries["fft"] > 10 * (gemm_runs + fft_runs)
