"""Deterministic fault injection: seeded plans, named sites, zero-cost off.

The chaos-engineering half of the resilience layer.  A :class:`FaultPlan`
is a *seeded* description of which failures to inject where; the service
arms one with :meth:`QueryService.arm_faults` and, at dispatch time,
derives the per-job fault assignment with :meth:`FaultPlan.for_job` — a
pure function of ``(seed, job_id, attempt)``, so a chaos run replays
identically regardless of thread or process scheduling.

The assigned specs travel to the worker (they are small frozen
dataclasses, picklable across a process pool), where
:func:`repro.service.worker.run_job` builds a :class:`FaultInjector` and
applies them around the job's run.  Nothing below the worker — engines,
simulator, memory model — knows faults exist.

Registered sites
----------------
``worker.run``
    The worker entry point (:func:`repro.service.worker.run_job`).
    CRASH raises a crash-shaped error the service retry path sees exactly
    like a dying worker and HANG stalls the worker, both before the run;
    CORRUPT flips a bit in the run's embedding count after it, before
    the cross-check — the soft-error model for a wide comparator
    datapath silently producing a wrong intersection.
``comm.send`` / ``comm.recv``
    The cluster comm layer, client side: ``comm.send`` fires before a
    request frame leaves, ``comm.recv`` after the reply arrives.  DROP
    raises :class:`~repro.errors.CommClosedError` (the peer "never saw"
    the request, or the reply was lost *after* the work ran — the
    nastier case), DELAY sleeps ``seconds`` before delivery, and
    CORRUPT_FRAME flips a byte of the encoded frame's length prefix so
    the receiver exercises its corrupt-stream handling.

    Comm faults are armed *globally* via :func:`inject_comm`: scatter
    requests run on coordinator pool threads that never see the
    submitting context.

Every spec fires at most once per injector, on the first hit of its
site.
"""

from __future__ import annotations

import enum
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from ..errors import CommClosedError, FaultInjectionError, InjectedCrashError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.report import SimReport

__all__ = [
    "COMM_SITES",
    "FAULT_SITES",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "comm_active",
    "inject_comm",
]

#: comm-layer sites (client side of every transport request)
COMM_SITES = (
    "comm.send",
    "comm.recv",
)


class FaultKind(enum.Enum):
    """What goes wrong when a spec fires."""

    CRASH = "crash"      #: the worker dies mid-job (crash-shaped error)
    HANG = "hang"        #: the worker stalls for ``FaultSpec.seconds``
    CORRUPT = "corrupt"  #: bit-flip in the embedding count (soft error)
    DROP = "drop"        #: a comm frame is lost (CommClosedError)
    DELAY = "delay"      #: a comm frame is delayed ``FaultSpec.seconds``
    CORRUPT_FRAME = "corrupt-frame"  #: a byte of the length prefix flips


#: the kinds each site applies
_SITE_KINDS = {
    "worker.run": (FaultKind.CRASH, FaultKind.HANG, FaultKind.CORRUPT),
    **dict.fromkeys(
        COMM_SITES,
        (FaultKind.DROP, FaultKind.DELAY, FaultKind.CORRUPT_FRAME),
    ),
}

#: the sites faults fire at: the worker's entry point and the wire
FAULT_SITES = tuple(_SITE_KINDS)


@dataclass(frozen=True)
class FaultSpec:
    """One kind of failure at one site, with its selection rule.

    ``rate`` is the fraction of *job attempts* the spec is assigned to
    (1.0 = every attempt); selection is a pure function of the plan seed
    and ``(job_id, attempt)``.  ``max_fires`` caps how many assignments
    the plan hands out in total, so a chaos scenario can be "the first N
    jobs crash, then the system recovers".  A spec whose site is not
    registered, or whose kind its site never applies, is rejected here.
    """

    site: str
    kind: FaultKind
    rate: float = 1.0
    max_fires: int | None = None
    #: HANG / DELAY: how long the worker or the frame stalls (wall seconds)
    seconds: float = 0.05
    #: CORRUPT: which bit of the embedding count is flipped;
    #: CORRUPT_FRAME: which byte of the length prefix (mod 8)
    bit: int = 0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise FaultInjectionError(
                f"unknown fault site {self.site!r}; one of {FAULT_SITES}"
            )
        if self.kind not in _SITE_KINDS[self.site]:
            raise FaultInjectionError(
                f"{self.kind.name} never fires at {self.site!r}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultInjectionError(
                f"rate must be in [0, 1], got {self.rate}"
            )
        if self.bit < 0:
            raise FaultInjectionError("corrupt bit index must be >= 0")


@dataclass
class FaultPlan:
    """A seeded set of :class:`FaultSpec` — the unit a service arms.

    ``for_job`` is deterministic per ``(job_id, attempt)``; only the
    ``max_fires`` budget is shared mutable state (guarded by a lock and
    consumed in dispatch order, which the service serialises).
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)
        self._assigned = [0] * len(self.specs)
        self._lock = threading.Lock()

    def for_job(
        self, job_id: int, attempt: int = 1
    ) -> tuple[FaultSpec, ...]:
        """The specs assigned to this job attempt (possibly empty).

        Selection draws one uniform variate per spec from a RNG seeded
        by ``(plan seed, job_id, attempt, spec index)`` — identical
        across runs, threads and processes.
        """
        out: list[FaultSpec] = []
        for i, spec in enumerate(self.specs):
            if spec.rate <= 0.0:
                continue
            if spec.rate < 1.0:
                rng = random.Random(hash((self.seed, job_id, attempt, i)))
                if rng.random() >= spec.rate:
                    continue
            if spec.max_fires is not None:
                with self._lock:
                    if self._assigned[i] >= spec.max_fires:
                        continue
                    self._assigned[i] += 1
            out.append(spec)
        return tuple(out)


class FaultInjector:
    """Applicator of a set of specs, each fired at most once.

    The worker builds one per job attempt; :func:`inject_comm` arms one
    process-wide for the comm sites.  ``events`` records what actually
    fired, keyed ``site:kind`` — the worker ships it home in
    ``report.notes`` so the service can count injections in its metrics.
    """

    def __init__(
        self,
        specs: tuple[FaultSpec, ...],
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._specs = tuple(specs)
        self._sleep = sleep
        self._spent: set[int] = set()
        #: ``{"site:kind": fire count}`` of everything that actually fired
        self.events: dict[str, int] = {}

    def _due(self, site: str, kinds) -> Iterator[FaultSpec]:
        """Unspent specs of ``kinds`` at ``site``, spent and recorded."""
        for i, spec in enumerate(self._specs):
            if (
                spec.site == site
                and spec.kind in kinds
                and i not in self._spent
            ):
                self._spent.add(i)
                key = f"{spec.site}:{spec.kind.value}"
                self.events[key] = self.events.get(key, 0) + 1
                yield spec

    # -- site hooks --------------------------------------------------------

    def fire(self, site: str) -> None:
        """CRASH / HANG hook, called before the site's work runs."""
        for spec in self._due(site, (FaultKind.CRASH, FaultKind.HANG)):
            if spec.kind is FaultKind.CRASH:
                raise InjectedCrashError(site)
            self._sleep(spec.seconds)

    def corrupt(self, site: str, report: "SimReport") -> None:
        """CORRUPT hook: flip ``spec.bit`` of the final embedding count."""
        for spec in self._due(site, (FaultKind.CORRUPT,)):
            report.embeddings ^= 1 << spec.bit

    def comm(self, site: str) -> None:
        """DROP / DELAY hook for one comm frame at ``site``.

        DROP raises :class:`~repro.errors.CommClosedError` — on
        ``comm.send`` the request never reaches the peer, on
        ``comm.recv`` the reply is lost after the peer did the work
        (the caller cannot tell the difference, which is the point).
        """
        for spec in self._due(site, (FaultKind.DROP, FaultKind.DELAY)):
            if spec.kind is FaultKind.DROP:
                raise CommClosedError(
                    f"injected frame drop at {site}"
                )
            self._sleep(spec.seconds)

    def corrupt_frame(self, site: str, frame: bytes) -> bytes:
        """CORRUPT_FRAME hook: flip one byte of the length prefix.

        ``spec.bit`` selects which header byte (mod the 8-byte prefix);
        flipping the high byte turns the length into petabytes (the
        receiver's size cap rejects it), flipping a low byte misaligns
        the pickle body — either way the receiver must fail *typed*,
        not hang.
        """
        for spec in self._due(site, (FaultKind.CORRUPT_FRAME,)):
            mutated = bytearray(frame)
            mutated[spec.bit % 8] ^= 0xFF
            frame = bytes(mutated)
        return frame


#: the process-wide comm-fault injector (None = no comm chaos, no cost).
#: Module-global rather than a contextvar: transport requests run on
#: scatter pool threads whose contexts never saw the arming scope.
_COMM_ACTIVE: FaultInjector | None = None
_COMM_LOCK = threading.Lock()


def comm_active() -> FaultInjector | None:
    """The armed comm injector, if any (one attribute load when off)."""
    return _COMM_ACTIVE


@contextmanager
def inject_comm(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Arm ``injector`` for comm sites, process-wide, for the block.

    Nesting replaces (and later restores) the previous injector; the
    lock only guards the swap — the hot-path read is lock-free.
    """
    global _COMM_ACTIVE
    with _COMM_LOCK:
        previous = _COMM_ACTIVE
        _COMM_ACTIVE = injector
    try:
        yield injector
    finally:
        with _COMM_LOCK:
            _COMM_ACTIVE = previous
