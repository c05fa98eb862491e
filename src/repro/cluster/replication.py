"""Replica groups, the retry policy, and probe-driven membership.

The coordinator's failover layer.  Pattern-matching work over a vertex
range is stateless and re-routable — any replica holding the same
:class:`~repro.cluster.partition.ShardSpec` produces byte-identical
root-restricted counts — so a shard backed by ``cluster_replicas``
workers can lose any single member without losing *results*.  This
module holds the policy objects that decide who serves and when to give
up:

* :class:`ReplicaGroup` — per-shard membership + health ranking.  Query
  failures mark a replica SUSPECT (it sorts behind healthy siblings);
  only the prober EVICTS (removes from routing) and reintegrates.
* :class:`RetryPolicy` — how hard one scattered subquery tries: one
  pass over the candidate replicas per *round* (failover to the next
  replica is immediate), capped exponential backoff between rounds,
  everything bounded by the coordinator's ``request_timeout`` (or a
  tighter prediction-derived budget).  A replica that is
  slow but alive is waited out, not duplicated: only a failure moves
  the subquery on, so exactly one reply per shard reaches the merge.
* :class:`HealthProber` — background membership: consecutive failed
  pings evict a replica, consecutive passes bring it back (the
  coordinator re-registers graphs on rejoin before routing resumes).
  ``step()`` runs one deterministic probe round for tests; ``start()``
  runs rounds on a thread at ``interval`` for production.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..errors import ClusterError

__all__ = [
    "HealthProber",
    "ReplicaGroup",
    "ReplicaState",
    "RetryPolicy",
]


class ReplicaState(enum.Enum):
    """Routing condition of one replica (values are gauge levels)."""

    HEALTHY = 0  #: preferred target
    SUSPECT = 1  #: recent failure; sorts behind healthy siblings
    EVICTED = 2  #: out of rotation until the prober reintegrates it


@dataclass(frozen=True)
class RetryPolicy:
    """How persistently one scattered subquery chases an answer.

    ``rounds`` passes are made over the (ranked) candidate replicas;
    within a round, failover to the next replica is immediate — the
    backoff ``base * multiplier**(round-1)``, capped at ``cap``, applies
    *between* rounds, when every candidate has already failed once and
    hammering them again immediately would just burn the deadline.  The
    per-subquery wall-clock budget is the coordinator's
    ``request_timeout``.
    """

    rounds: int = 2
    base: float = 0.05
    multiplier: float = 4.0
    cap: float = 2.0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ClusterError(f"rounds must be >= 1, got {self.rounds}")
        if self.base < 0 or self.cap < 0:
            raise ClusterError("backoff base/cap must be >= 0")
        if self.multiplier < 1.0:
            raise ClusterError(
                f"backoff multiplier must be >= 1, got {self.multiplier}"
            )

    def backoff(self, round_index: int) -> float:
        """Seconds to pause before retry round ``round_index`` (1-based)."""
        if round_index < 1:
            return 0.0
        return min(
            self.base * self.multiplier ** (round_index - 1), self.cap
        )


class ReplicaGroup:
    """Membership + health ranking for one shard's replicas.

    Thread-safe: scatter threads mark successes/failures while the
    prober evicts/reintegrates.  Ranking prefers (state, fewest
    consecutive failures, configured order) — with everything healthy
    the configured primary always serves, so a single-replica group
    behaves exactly like the pre-replication coordinator.
    """

    def __init__(self, name: str, replicas: Sequence[str]) -> None:
        if not replicas:
            raise ClusterError(
                f"shard {name!r} needs at least one replica"
            )
        if len(set(replicas)) != len(replicas):
            raise ClusterError(
                f"shard {name!r} has duplicate replica names: "
                f"{list(replicas)}"
            )
        self.name = name
        self._order = tuple(replicas)
        self._states = {r: ReplicaState.HEALTHY for r in replicas}
        self._consecutive = {r: 0 for r in replicas}
        self._lock = threading.Lock()

    @property
    def replica_names(self) -> tuple[str, ...]:
        return self._order

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, replica: str) -> bool:
        return replica in self._states

    def _require(self, replica: str) -> None:
        if replica not in self._states:
            raise ClusterError(
                f"shard {self.name!r} has no replica {replica!r}"
            )

    def state(self, replica: str) -> ReplicaState:
        self._require(replica)
        with self._lock:
            return self._states[replica]

    def states(self) -> dict[str, ReplicaState]:
        with self._lock:
            return dict(self._states)

    def mark_success(self, replica: str) -> ReplicaState:
        """A request succeeded: clear suspicion (eviction stays)."""
        self._require(replica)
        with self._lock:
            self._consecutive[replica] = 0
            if self._states[replica] is ReplicaState.SUSPECT:
                self._states[replica] = ReplicaState.HEALTHY
            return self._states[replica]

    def mark_failure(self, replica: str) -> ReplicaState:
        """A request failed: healthy replicas become suspect."""
        self._require(replica)
        with self._lock:
            self._consecutive[replica] += 1
            if self._states[replica] is ReplicaState.HEALTHY:
                self._states[replica] = ReplicaState.SUSPECT
            return self._states[replica]

    def evict(self, replica: str) -> bool:
        """Remove from rotation (prober decision). True if it changed."""
        self._require(replica)
        with self._lock:
            changed = self._states[replica] is not ReplicaState.EVICTED
            self._states[replica] = ReplicaState.EVICTED
            return changed

    def reintegrate(self, replica: str) -> bool:
        """Return an evicted replica to rotation. True if it changed."""
        self._require(replica)
        with self._lock:
            changed = self._states[replica] is not ReplicaState.HEALTHY
            self._states[replica] = ReplicaState.HEALTHY
            self._consecutive[replica] = 0
            return changed

    def ranked(self) -> list[str]:
        """Candidates healthiest-first; evicted excluded.

        If *every* replica is evicted the full membership is returned
        as a last resort — an all-evicted shard should still be tried
        rather than silently dropped from the scatter.
        """
        with self._lock:
            index = {r: i for i, r in enumerate(self._order)}
            live = [
                r for r in self._order
                if self._states[r] is not ReplicaState.EVICTED
            ]
            pool = live or list(self._order)
            return sorted(
                pool,
                key=lambda r: (
                    self._states[r].value,
                    self._consecutive[r],
                    index[r],
                ),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        states = {r: s.name.lower() for r, s in self.states().items()}
        return f"ReplicaGroup({self.name!r}, {states})"


class HealthProber:
    """Consecutive-ping membership: evict the flaky, rejoin the recovered.

    ``ping(replica) -> bool`` is the caller's probe (the coordinator
    pings over a dedicated connection so a slow data-plane request
    cannot fail a probe).  A replica is evicted after ``probe_failures``
    consecutive failed pings and offered back after
    ``probe_recoveries`` consecutive passes; ``on_evict`` /
    ``on_rejoin`` make the membership change real (the rejoin callback
    may veto by returning False — e.g. graph re-registration failed —
    keeping the replica evicted until a later round).

    ``step()`` runs exactly one probe round synchronously — the
    deterministic test surface.  ``start()`` runs rounds every
    ``interval`` seconds on a daemon thread until ``stop()``.
    """

    def __init__(
        self,
        ping: Callable[[str], bool],
        replicas: Iterable[str],
        *,
        probe_failures: int = 3,
        probe_recoveries: int = 2,
        interval: float = 1.0,
        on_evict: "Callable[[str], None] | None" = None,
        on_rejoin: "Callable[[str], bool] | None" = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if probe_failures < 1 or probe_recoveries < 1:
            raise ClusterError(
                "probe_failures and probe_recoveries must be >= 1"
            )
        self._ping = ping
        self._names = tuple(replicas)
        self.probe_failures = probe_failures
        self.probe_recoveries = probe_recoveries
        self.interval = interval
        self._on_evict = on_evict
        self._on_rejoin = on_rejoin
        self._sleep = sleep
        self._fails = {r: 0 for r in self._names}
        self._passes = {r: 0 for r in self._names}
        self._evicted: set[str] = set()
        self._rounds = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def evicted(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._evicted))

    @property
    def rounds(self) -> int:
        with self._lock:
            return self._rounds

    def step(self) -> dict[str, bool]:
        """One probe round; returns ``{replica: ping passed}``."""
        results: dict[str, bool] = {}
        for name in self._names:
            try:
                alive = bool(self._ping(name))
            except Exception:
                alive = False
            results[name] = alive
            if alive:
                self._on_pass(name)
            else:
                self._on_fail(name)
        with self._lock:
            self._rounds += 1
        return results

    def _on_pass(self, name: str) -> None:
        with self._lock:
            self._fails[name] = 0
            if name not in self._evicted:
                return
            self._passes[name] += 1
            if self._passes[name] < self.probe_recoveries:
                return
            self._passes[name] = 0
        # rejoin outside the lock: the callback re-registers graphs
        accepted = (
            self._on_rejoin(name) if self._on_rejoin is not None else True
        )
        if accepted:
            with self._lock:
                self._evicted.discard(name)

    def _on_fail(self, name: str) -> None:
        with self._lock:
            self._passes[name] = 0
            if name in self._evicted:
                return
            self._fails[name] += 1
            if self._fails[name] < self.probe_failures:
                return
            self._fails[name] = 0
            self._evicted.add(name)
        if self._on_evict is not None:
            self._on_evict(name)

    # -- background loop ---------------------------------------------------

    def start(self) -> None:
        """Probe every ``interval`` seconds on a daemon thread."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="cluster-prober", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.step()
            self._sleep(self.interval)

    def stop(self, join_timeout: float = 2.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=join_timeout)
            self._thread = None
