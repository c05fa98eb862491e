"""Memory subsystem: caches, DRAM timing, CACTI-lite, and the hierarchy."""

from .cache import LINE_BYTES, WORDS_PER_LINE, CacheConfig, CacheModel, CacheStats
from .cacti import SRAMEstimate, estimate_sram
from .dram import DRAMConfig, DRAMModel, DRAMStats
from .hierarchy import MemoryConfig, MemoryHierarchy

__all__ = [
    "LINE_BYTES",
    "WORDS_PER_LINE",
    "CacheConfig",
    "CacheModel",
    "CacheStats",
    "DRAMConfig",
    "DRAMModel",
    "DRAMStats",
    "MemoryConfig",
    "MemoryHierarchy",
    "SRAMEstimate",
    "estimate_sram",
]
