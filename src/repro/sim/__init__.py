"""Performance simulator: kernels, calibration, roofline, transfers, engine."""

from .calibration import (
    APP_CALIBRATIONS,
    CALIBRATIONS,
    ScalingCurve,
    SystemCalibration,
    get_app_calibration,
    get_calibration,
)
from .batch import BatchEngine, BatchResult, KernelBatch
from .contention import aggregate_rate, proportional_share, shared_throughput
from .engine import PerfEngine
from .memo import MemoCache, content_digest, kernel_signature
from .memostore import MemoStore
from .kernel import (
    GEMM_N,
    TRIAD_ARRAY_BYTES,
    KernelSpec,
    fft_kernel,
    fma_chain_kernel,
    gemm_kernel,
    pointer_chase_kernel,
    triad_kernel,
)
from .noise import QUIET, NoiseModel
from .power import EnergyReport, PowerModel
from .roofline import RooflinePoint, classify, kernel_time
from .transfer import TransferModel

__all__ = [
    "APP_CALIBRATIONS",
    "CALIBRATIONS",
    "ScalingCurve",
    "SystemCalibration",
    "get_app_calibration",
    "get_calibration",
    "aggregate_rate",
    "proportional_share",
    "shared_throughput",
    "PerfEngine",
    "BatchEngine",
    "BatchResult",
    "KernelBatch",
    "MemoCache",
    "MemoStore",
    "content_digest",
    "kernel_signature",
    "GEMM_N",
    "TRIAD_ARRAY_BYTES",
    "KernelSpec",
    "fft_kernel",
    "fma_chain_kernel",
    "gemm_kernel",
    "pointer_chase_kernel",
    "triad_kernel",
    "QUIET",
    "NoiseModel",
    "EnergyReport",
    "PowerModel",
    "RooflinePoint",
    "classify",
    "kernel_time",
    "TransferModel",
]
