"""Private-cache / shared-cache / DRAM hierarchy used by the simulator.

Per Figure 5: every PE owns a private cache holding graph data and
intermediate candidate sets; all PEs share one banked cache in front of
DRAM.  The hierarchy exposes *stream* operations because the SIUs consume
and produce whole neighbour sets: a stream touches a line range, probes each
level functionally (real LRU state), and reports two quantities the SIU cost
model combines —

``first_latency``
    cycles until the first words arrive (fills the pipeline), and
``stream_cycles``
    occupancy cycles for the remainder, i.e. the bandwidth-limited service
    time of bank conflicts, shared-cache refills and DRAM transfers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import MemoryModelError
from .cache import WORDS_PER_LINE, CacheConfig, CacheModel
from .cacti import estimate_sram
from .dram import DRAMConfig, DRAMModel

__all__ = ["MemoryConfig", "MemoryHierarchy"]


@dataclass(frozen=True)
class MemoryConfig:
    """Geometry of the full memory subsystem (paper Table 2 defaults)."""

    num_pes: int = 16
    private_kb: int = 32
    private_ways: int = 4
    private_banks: int = 4
    shared_mb: float = 4.0
    shared_ways: int = 8
    shared_banks: int = 8
    dram: DRAMConfig = field(default_factory=DRAMConfig)

    def private_config(self, pe: int) -> CacheConfig:
        lat = estimate_sram(
            self.private_kb * 1024, self.private_ways, self.private_banks
        ).access_latency_cycles
        return CacheConfig(
            size_bytes=self.private_kb * 1024,
            ways=self.private_ways,
            banks=self.private_banks,
            hit_latency=lat,
            name=f"private{pe}",
        )

    def shared_config(self) -> CacheConfig:
        lat = estimate_sram(
            int(self.shared_mb * 1024 * 1024),
            self.shared_ways,
            self.shared_banks,
        ).access_latency_cycles
        return CacheConfig(
            size_bytes=int(self.shared_mb * 1024 * 1024),
            ways=self.shared_ways,
            banks=self.shared_banks,
            hit_latency=lat,
            name="shared",
        )


class MemoryHierarchy:
    """Functional-state memory hierarchy shared by all PEs."""

    def __init__(self, config: MemoryConfig | None = None) -> None:
        self.config = config or MemoryConfig()
        self.private = [
            CacheModel(self.config.private_config(pe))
            for pe in range(self.config.num_pes)
        ]
        self.shared = CacheModel(self.config.shared_config())
        self.dram = DRAMModel(self.config.dram)
        # bump allocator for intermediate-set buffers (word addresses),
        # placed far above the graph region
        self._scratch_next = [
            0x8000_0000 + pe * 0x0400_0000 for pe in range(self.config.num_pes)
        ]
        # per-bank port availability of the shared cache (PE contention)
        self._shared_bank_busy = [0.0] * self.shared.config.banks
        # what a stream needs of each private cache, looked up once
        self._private = [
            (c, c._sets, c._set_mask, c.config.ways,
             float(c.config.hit_latency), c.config.banks)
            for c in self.private
        ]

    # -- scratch allocation -------------------------------------------------

    def allocate_scratch(self, pe: int, n_words: int) -> int:
        """Reserve a private buffer for an intermediate candidate set."""
        if not 0 <= pe < self.config.num_pes:
            raise MemoryModelError(f"PE {pe} out of range")
        addr = self._scratch_next[pe]
        self._scratch_next[pe] += max(n_words, 1)
        return addr

    # -- streams --------------------------------------------------------------

    def stream_read(
        self, now: float, pe: int, addr_words: int, n_words: int
    ) -> tuple[float, float]:
        """Read ``n_words`` starting at ``addr_words`` through PE ``pe``;
        returns ``(first_latency, stream_cycles)``.

        The private cache is probed first for every line of the stream
        (its LRU state is the PE's own, so the order against the shared
        levels does not matter); only the lines that miss there touch the
        shared banks, the shared cache and DRAM, in stream order.
        """
        if n_words <= 0:
            return 0.0, 0.0
        first = addr_words // WORDS_PER_LINE
        end = (addr_words + n_words - 1) // WORDS_PER_LINE + 1
        priv, sets, mask, ways, hit_latency, banks = self._private[pe]
        missed = None  # built at the first miss: most streams have none
        for line in range(first, end):
            way_set = sets[line & mask]
            if line in way_set:
                del way_set[line]
                way_set[line] = None  # move to MRU position
                continue
            if len(way_set) >= ways:
                del way_set[next(iter(way_set))]  # evict LRU
            way_set[line] = None
            if missed is None:
                missed = [line]
            else:
                missed.append(line)
        n_lines = end - first
        stats = priv.stats
        bank_cycles = (n_lines + banks - 1) // banks
        if missed is None:
            stats.hits += n_lines
            return hit_latency, float(bank_cycles)
        private_misses = len(missed)
        stats.hits += n_lines - private_misses
        stats.misses += private_misses
        first_latency = hit_latency
        shared = self.shared
        shared_banks = shared.config.banks
        shared_hit = shared.config.hit_latency
        bank_busy = self._shared_bank_busy
        request_dram = self.dram.request_line
        dram_finish = now
        shared_queue = 0.0
        for line in missed:
            # shared-cache bank port contention between PEs: each refill
            # occupies its bank for one cycle
            bank = line % shared_banks
            wait = bank_busy[bank] - now
            if wait < 0.0:
                wait = 0.0
            bank_busy[bank] = now + wait + 1.0
            if wait > shared_queue:
                shared_queue = wait
            if shared.access_line(line):
                if line == first:
                    first_latency += shared_hit + wait
                continue
            finish = request_dram(now, line)
            if finish > dram_finish:
                dram_finish = finish
            if line == first:
                first_latency += shared_hit + wait + (finish - now)
        # Bandwidth-limited occupancy: bank throughput at each level plus
        # DRAM bus time already folded into dram_finish.
        cycles = bank_cycles
        shared_cycles = (private_misses + shared_banks - 1) // shared_banks
        if shared_cycles > cycles:
            cycles = shared_cycles
        dram_cycles = dram_finish - now - first_latency  # < 0 never wins:
        if dram_cycles > cycles:  # cycles >= bank_cycles >= 1
            cycles = dram_cycles
        if shared_queue > cycles:
            cycles = shared_queue
        return first_latency, float(cycles)

    def stream_write(
        self, now: float, pe: int, addr_words: int, n_words: int
    ) -> tuple[float, float]:
        """Write an intermediate set; allocates into the private cache.
        Returns ``(first_latency, stream_cycles)`` like :meth:`stream_read`."""
        if n_words <= 0:
            return 0.0, 0.0
        priv = self.private[pe]
        first = addr_words // WORDS_PER_LINE
        end = (addr_words + n_words - 1) // WORDS_PER_LINE + 1
        for line in range(first, end):
            priv.access_line(line)  # write-allocate
        return 0.0, float(priv.stream_bank_cycles(end - first))

    def reset(self) -> None:
        for c in self.private:
            c.reset()
        self.shared.reset()
        self.dram.reset()
        self._shared_bank_busy = [0.0] * self.shared.config.banks
