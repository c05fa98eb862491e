"""Baseline systems: CPU/GPU cost models and accelerator comparisons."""

from .accelerators import (
    PUBLISHED_PE_AREA_MM2,
    AcceleratorComparison,
    compare_accelerators,
    compute_density_speedup,
)
from .software import (
    GLUMIN,
    GRAPHPI,
    GRAPHSET,
    BaselineResult,
    CpuBaselineModel,
    GpuBaselineModel,
)

__all__ = [
    "GLUMIN",
    "GRAPHPI",
    "GRAPHSET",
    "AcceleratorComparison",
    "BaselineResult",
    "CpuBaselineModel",
    "GpuBaselineModel",
    "PUBLISHED_PE_AREA_MM2",
    "compare_accelerators",
    "compute_density_speedup",
]
