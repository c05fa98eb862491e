"""Set-associative LRU cache model with banking.

Functional hit/miss state is tracked per cache line (64 B default, 16
32-bit words) with true LRU replacement inside each set, matching the
paper's configuration (Table 2: 32 KB / 4-way / 4-bank private caches and a
4 MB / 8-way / 8-bank shared cache, both LRU).  Banking is modelled as a
throughput constraint — each bank services one line access per cycle — which
the hierarchy turns into stream-latency terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError

__all__ = ["CacheConfig", "CacheModel", "CacheStats"]

LINE_BYTES = 64
WORD_BYTES = 4
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    ways: int
    banks: int
    hit_latency: int
    name: str = "cache"
    line_bytes: int = LINE_BYTES

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways

    def validate(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.banks <= 0:
            raise ConfigError(f"{self.name}: sizes must be positive")
        if self.num_lines % self.ways:
            raise ConfigError(f"{self.name}: lines not divisible by ways")
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError(f"{self.name}: set count must be a power of 2")


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class CacheModel:
    """One level of set-associative LRU cache.

    LRU state per set is an insertion-ordered dict (most recently used last);
    Python dicts preserve order, so ``pop`` + re-insert implements the policy
    with O(1) amortised cost per access.
    """

    def __init__(self, config: CacheConfig) -> None:
        config.validate()
        self.config = config
        self.stats = CacheStats()
        self._sets: list[dict[int, None]] = [
            {} for _ in range(config.num_sets)
        ]
        self._set_mask = config.num_sets - 1

    def access_line(self, line_addr: int, allocate: bool = True) -> bool:
        """Touch one line; returns True on hit.  Misses allocate by default."""
        idx = line_addr & self._set_mask
        way_set = self._sets[idx]
        if line_addr in way_set:
            way_set.pop(line_addr)
            way_set[line_addr] = None  # move to MRU position
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if allocate:
            if len(way_set) >= self.config.ways:
                # evict LRU (first key in insertion order)
                way_set.pop(next(iter(way_set)))
            way_set[line_addr] = None
        return False

    def contains(self, line_addr: int) -> bool:
        """Non-mutating presence probe (used by tests/invariants)."""
        return line_addr in self._sets[line_addr & self._set_mask]

    def stream_bank_cycles(self, num_lines: int) -> int:
        """Cycles the banked array needs to serve ``num_lines`` accesses."""
        banks = self.config.banks
        return (num_lines + banks - 1) // banks

    def reset(self) -> None:
        self.stats = CacheStats()
        for s in self._sets:
            s.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)
