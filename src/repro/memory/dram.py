"""Simplified DDR4 main-memory timing model.

Stands in for DRAMSys 5.0 in the paper's stack.  Captures the first-order
behaviour GPM cares about: access latency (CL/tRCD/tRP, row-hit vs row-miss),
per-channel bandwidth ceilings with queueing, and address interleaving across
channels.  Timing defaults follow Table 2: 4-channel DDR4-2400, 16-16-16,
76.84 GB/s aggregate peak, with the accelerator clocked at 1 GHz (so one
core cycle = 1 ns).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from .cache import LINE_BYTES

__all__ = ["DRAMConfig", "DRAMModel", "DRAMStats"]


@dataclass(frozen=True)
class DRAMConfig:
    """DDR timing/geometry expressed in 1 GHz core cycles (= ns)."""

    channels: int = 4
    #: data rate per channel in bytes per core cycle (DDR4-2400 x64 ≈ 19.2)
    bytes_per_cycle_per_channel: float = 19.2
    cl: int = 16            # CAS latency (cycles at 1 GHz ≈ ns)
    trcd: int = 16          # RAS-to-CAS delay
    trp: int = 16           # row precharge
    row_bytes: int = 8192   # row-buffer span per channel
    static_latency: int = 30  # controller + on-chip network overhead

    def validate(self) -> None:
        if self.channels <= 0 or self.bytes_per_cycle_per_channel <= 0:
            raise ConfigError("DRAM config must be positive")

    @property
    def row_hit_latency(self) -> int:
        return self.static_latency + self.cl

    @property
    def row_miss_latency(self) -> int:
        return self.static_latency + self.trp + self.trcd + self.cl

    @property
    def line_transfer_cycles(self) -> float:
        return LINE_BYTES / self.bytes_per_cycle_per_channel

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate peak bandwidth in GB/s (cycles are 1 ns at 1 GHz)."""
        return self.channels * self.bytes_per_cycle_per_channel


@dataclass
class DRAMStats:
    requests: int = 0
    row_hits: int = 0
    row_misses: int = 0
    bytes_transferred: int = 0
    queue_cycles: float = 0.0


class DRAMModel:
    """Channel-interleaved DRAM with row-buffer locality and queueing.

    Each channel tracks when its data bus frees up (``busy_until``) and the
    currently open row; a request pays queueing delay, a row-hit or row-miss
    access latency, and occupies the bus for the line transfer.
    """

    def __init__(self, config: DRAMConfig | None = None) -> None:
        self.config = config or DRAMConfig()
        self.config.validate()
        self.stats = DRAMStats()
        self._busy_until = [0.0] * self.config.channels
        self._open_row = [-1] * self.config.channels

    def channel_of(self, line_addr: int) -> int:
        return line_addr % self.config.channels

    def request_line(self, now: float, line_addr: int) -> float:
        """Issue a line fill at time ``now``; returns completion time."""
        cfg = self.config
        ch = self.channel_of(line_addr)
        row = (line_addr * LINE_BYTES) // cfg.row_bytes
        queue = max(self._busy_until[ch] - now, 0.0)
        if self._open_row[ch] == row:
            access = cfg.row_hit_latency
            self.stats.row_hits += 1
        else:
            access = cfg.row_miss_latency
            self.stats.row_misses += 1
            self._open_row[ch] = row
        start = now + queue
        finish = start + access + cfg.line_transfer_cycles
        self._busy_until[ch] = start + cfg.line_transfer_cycles
        self.stats.requests += 1
        self.stats.bytes_transferred += LINE_BYTES
        self.stats.queue_cycles += queue
        return finish

    def reset(self) -> None:
        self.stats = DRAMStats()
        self._busy_until = [0.0] * self.config.channels
        self._open_row = [-1] * self.config.channels
