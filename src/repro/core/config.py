"""System configurations (paper Table 2) and baseline accelerator presets.

A :class:`SystemConfig` fully describes one simulated accelerator: PE count,
SIU microarchitecture and width, scheduler policy, BitmapCSR width and the
memory subsystem.  Presets reproduce the configurations compared in the
evaluation: X-SET's default, plus FlexMiner / FINGERS / Shogun as published
(40/20/20 PEs, merge-queue SIUs, their respective schedulers, DDR4-2666).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields, is_dataclass, replace

from ..engine.base import available_engines
from ..errors import ConfigError
from ..memory.dram import DRAMConfig
from ..memory.hierarchy import MemoryConfig

__all__ = [
    "SystemConfig",
    "xset_default",
    "flexminer_config",
    "fingers_config",
    "shogun_config",
    "config_table",
]


@dataclass(frozen=True)
class SystemConfig:
    """Full accelerator configuration."""

    name: str = "xset"
    num_pes: int = 16
    sius_per_pe: int = 4
    siu_kind: str = "order-aware"          # "order-aware" | "merge" | "sma"
    segment_width: int = 8
    bitmap_width: int = 8
    scheduler: str = "barrier-free"        # see repro.sched.make_scheduler
    scheduler_params: dict = field(default_factory=dict)
    num_task_sets: int = 96
    task_set_width: int = 4
    private_kb: int = 32
    shared_mb: float = 4.0
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    frequency_ghz: float = 1.0
    #: deepest pattern level handled in hardware; deeper levels fall back to
    #: the host RISC-V core (paper §4.2 "patterns with arbitrary size")
    max_hw_levels: int = 8
    #: per-task management overhead in cycles.  X-SET's Fast Spawning
    #: Register + candidate-buffer prefetch (Fig. 10) make spawning free;
    #: baselines manage task frames in software / task dividers.
    task_overhead_cycles: int = 0
    #: root-vertex distribution across PEs: "round-robin" (the paper's
    #: streaming order) or "degree-balanced" (greedy bin packing by degree,
    #: a load-balancing extension for skewed graphs)
    root_partition: str = "round-robin"
    #: execution engine: "event" (cycle-approximate event-driven
    #: simulation) or "codegen" (plan-compiled NumPy kernels with analytic
    #: timing); both return byte-identical counts, and a run always uses
    #: the one named here
    engine: str = "event"
    #: number of query-cluster shards (repro.cluster); 0 = single node,
    #: no cluster layer involved
    cluster_shards: int = 0
    #: halo depth replicated around each shard's owned vertex range.  Must
    #: be >= the deepest plan's stop level for exact per-root counts; the
    #: coordinator validates this per query.
    cluster_halo_hops: int = 4
    #: workers per shard group (repro.cluster.coordinator); 1 = no
    #: replication, >= 2 buys automatic failover on replica death
    cluster_replicas: int = 1

    def __post_init__(self) -> None:
        if self.num_pes < 1 or self.sius_per_pe < 1:
            raise ConfigError("PE/SIU counts must be positive")
        if self.cluster_shards < 0:
            raise ConfigError("cluster_shards must be >= 0")
        if self.cluster_halo_hops < 1:
            raise ConfigError("cluster_halo_hops must be >= 1")
        if self.cluster_replicas < 1:
            raise ConfigError("cluster_replicas must be >= 1")
        if self.segment_width & (self.segment_width - 1):
            raise ConfigError("segment_width must be a power of two")
        if self.root_partition not in ("round-robin", "degree-balanced"):
            raise ConfigError(
                f"unknown root partition {self.root_partition!r}"
            )
        if self.engine not in available_engines():
            raise ConfigError(
                f"unknown execution engine {self.engine!r}; "
                f"available: {', '.join(available_engines())}"
            )

    def memory_config(self) -> MemoryConfig:
        return MemoryConfig(
            num_pes=self.num_pes,
            private_kb=self.private_kb,
            shared_mb=self.shared_mb,
            dram=self.dram,
        )

    def scheduler_kwargs(self) -> dict:
        params = dict(self.scheduler_params)
        if self.scheduler in ("barrier-free", "shogun"):
            params.setdefault("num_task_sets", self.num_task_sets)
            params.setdefault("task_set_width", self.task_set_width)
        elif self.scheduler == "dfs":
            # conventional DFS runs one independent walk per SIU
            params.setdefault("lanes", self.sius_per_pe)
        return params

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """Copy with fields replaced (used by the sweep benchmarks).

        Runs the full ``__post_init__`` validation, so bad values — e.g.
        ``engine="nope"`` — raise :class:`~repro.errors.ConfigError`
        eagerly instead of failing deep inside a run.
        """
        return replace(self, **kwargs)

    def cache_key(self) -> tuple:
        """Stable hashable projection of every configuration field.

        The service result cache keys on this: embedding *counts* only
        depend on the workload, but a cached :class:`SimReport` also
        carries timing/utilisation numbers, so any knob that could change
        the report (engine, PE count, memory subsystem, ...) must be part
        of the key.  Nested dataclasses flatten to tuples and dict params
        to sorted item tuples so the result is hashable and
        order-insensitive.  Derived once per (frozen) instance.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            parts = []
            for f in fields(self):
                value = getattr(self, f.name)
                if is_dataclass(value):
                    value = (type(value).__name__,) + astuple(value)
                elif isinstance(value, dict):
                    value = tuple(sorted(value.items()))
                parts.append((f.name, value))
            key = self.__dict__["_cache_key"] = tuple(parts)
        return key

    def __getstate__(self) -> dict:
        # the memoised key is derived state: never shipped to pool workers
        return {f.name: getattr(self, f.name) for f in fields(self)}


def xset_default(**overrides) -> SystemConfig:
    """The paper's Table 2 configuration."""
    cfg = SystemConfig()
    return cfg.with_overrides(**overrides) if overrides else cfg


def _baseline_dram() -> DRAMConfig:
    # FlexMiner/FINGERS/Shogun use 4-channel DDR4-2666 (85 GB/s peak)
    return DRAMConfig(bytes_per_cycle_per_channel=21.3)


def flexminer_config(**overrides) -> SystemConfig:
    """FlexMiner: 40 PEs, one merge-queue SIU each, DFS scheduling."""
    cfg = SystemConfig(
        name="flexminer",
        num_pes=40,
        sius_per_pe=1,
        siu_kind="merge",
        segment_width=1,
        bitmap_width=0,
        scheduler="dfs",
        dram=_baseline_dram(),
        task_overhead_cycles=4,
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def fingers_config(**overrides) -> SystemConfig:
    """FINGERS: 20 PEs, fine-grained merge SIUs, pseudo-DFS windows."""
    cfg = SystemConfig(
        name="fingers",
        num_pes=20,
        sius_per_pe=8,
        siu_kind="merge",
        segment_width=1,
        bitmap_width=0,
        scheduler="pseudo-dfs",
        scheduler_params={"window": 8},
        dram=_baseline_dram(),
        task_overhead_cycles=4,
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def shogun_config(**overrides) -> SystemConfig:
    """Shogun: 20 PEs, merge SIUs, incremental OoO + locality barriers."""
    cfg = SystemConfig(
        name="shogun",
        num_pes=20,
        sius_per_pe=8,
        siu_kind="merge",
        segment_width=1,
        bitmap_width=0,
        scheduler="shogun",
        dram=_baseline_dram(),
        task_overhead_cycles=4,
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def config_table(config: SystemConfig | None = None) -> str:
    """Render the Table-2-style configuration summary."""
    cfg = config or xset_default()
    mem = cfg.memory_config()
    rows = [
        ("#PE", str(cfg.num_pes)),
        (
            "SIU",
            f"{cfg.sius_per_pe} x {cfg.siu_kind} per PE, "
            f"input width {cfg.segment_width}",
        ),
        (
            "Scheduler",
            f"{cfg.scheduler} (TaskSet width {cfg.task_set_width}, "
            f"#TaskSet {cfg.num_task_sets})",
        ),
        ("BitmapCSR width", str(cfg.bitmap_width)),
        (
            "Private Cache",
            f"{cfg.private_kb}KB per PE, LRU, "
            f"{mem.private_banks} banks, {mem.private_ways} ways",
        ),
        (
            "Shared Cache",
            f"{cfg.shared_mb}MB total, LRU, "
            f"{mem.shared_banks} banks, {mem.shared_ways} ways",
        ),
        (
            "Main Memory",
            f"{cfg.dram.channels} channel, "
            f"{cfg.dram.peak_bandwidth_gbps:.2f} GB/s, "
            f"CL-tRCD-tRP {cfg.dram.cl}-{cfg.dram.trcd}-{cfg.dram.trp}",
        ),
        ("Frequency", f"{cfg.frequency_ghz} GHz"),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)
