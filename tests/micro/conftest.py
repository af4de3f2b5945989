"""Micro fixtures: start and end every test with cold numerics memos."""

from __future__ import annotations

import pytest

from repro.micro.fft import check_fft_numerics
from repro.micro.gemm import check_gemm_numerics
from repro.micro.peak_flops import check_fma_numerics
from repro.micro.triad import check_triad_numerics

NUMERICS_CHECKS = (
    check_gemm_numerics,
    check_fft_numerics,
    check_triad_numerics,
    check_fma_numerics,
)


@pytest.fixture(autouse=True)
def cold_numerics_checks():
    """Clear the per-process check memos so test order does not matter."""
    for check in NUMERICS_CHECKS:
        check.cache_clear()
    yield
    for check in NUMERICS_CHECKS:
        check.cache_clear()
