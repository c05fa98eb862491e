"""Core public API: accelerator object, system configurations, experiments."""

from .api import XSetAccelerator, count_motifs3
from .incremental import IncrementalGPM
from .config import (
    SystemConfig,
    config_table,
    fingers_config,
    flexminer_config,
    shogun_config,
    xset_default,
)

__all__ = [
    "IncrementalGPM",
    "SystemConfig",
    "XSetAccelerator",
    "config_table",
    "count_motifs3",
    "fingers_config",
    "flexminer_config",
    "shogun_config",
    "xset_default",
]
