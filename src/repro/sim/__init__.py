"""Event-driven accelerator simulation: PEs, RoCC interface, host model."""

from .accelerator import AcceleratorSim
from .hwexec import HardwareTaskExecutor
from .host import HostModel, run_on_soc
from .report import SimReport
from .rocc import RoCCInstruction, RoCCInterface
from .trace import ActivityTrace, TraceEvent
from .validation import CrossValidation, cross_validate

__all__ = [
    "AcceleratorSim",
    "ActivityTrace",
    "TraceEvent",
    "HardwareTaskExecutor",
    "HostModel",
    "RoCCInstruction",
    "RoCCInterface",
    "CrossValidation",
    "SimReport",
    "cross_validate",
    "run_on_soc",
]
