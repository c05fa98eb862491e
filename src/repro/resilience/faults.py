"""Deterministic fault injection: seeded plans, named sites, zero-cost off.

The chaos-engineering half of the resilience layer.  A :class:`FaultPlan`
is a *seeded* description of which failures to inject where; the service
arms one with :meth:`QueryService.arm_faults` and, at dispatch time,
derives the per-job fault assignment with :meth:`FaultPlan.for_job` — a
pure function of ``(seed, job_id, attempt)``, so a chaos run replays
identically regardless of thread or process scheduling.

The assigned specs travel to the worker (they are small frozen
dataclasses, picklable across a process pool), where a
:class:`FaultInjector` is armed in a :mod:`contextvars` variable for the
duration of the job.  Instrumented layers check the active injector with
the same single-``None``-check pattern the observability hooks use::

    inj = _faults.active()
    if inj is not None:
        inj.fire("engine.batched")          # CRASH / HANG, before compute
    ...
    if inj is not None:
        inj.corrupt("engine.batched", report)   # CORRUPT, after compute

With no plan armed, ``active()`` is one contextvar load returning None —
the hot paths carry no other cost, which is what keeps the
no-faults-armed byte-identical guarantee honest.

Registered sites
----------------
``worker.run``
    The pool-worker entry point (:func:`repro.service.worker.run_job`).
    CRASH raises a crash-shaped error the service retry path sees exactly
    like a dying worker; HANG stalls the worker thread/process.
``engine.batched`` / ``engine.event``
    The two execution backends.  CRASH/HANG fire before the run, CORRUPT
    flips a bit in the final embedding count — the soft-error model for a
    wide comparator datapath silently producing a wrong intersection.
``memory.stream``
    Every stream access of the simulated memory hierarchy.  STALL
    multiplies both the fill latency and the occupancy cycles, modelling
    a degraded (thermally throttled / contended) memory system.
``comm.send`` / ``comm.recv``
    The cluster comm layer, client side: ``comm.send`` fires before a
    request frame leaves, ``comm.recv`` after the reply arrives.  DROP
    raises :class:`~repro.errors.CommClosedError` (the peer "never saw"
    the request, or the reply was lost *after* the work ran — the
    nastier case), DELAY sleeps ``seconds`` before delivery, and
    CORRUPT_FRAME flips a byte of the encoded frame's length prefix so
    the receiver exercises its corrupt-stream handling.

    Comm faults are armed *globally* via :func:`inject_comm` rather than
    through the per-job contextvar: scatter requests run on coordinator
    pool threads that never see the submitting context, so a contextvar
    could not reach them.
"""

from __future__ import annotations

import enum
import random
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
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
    "active",
    "comm_active",
    "inject",
    "inject_comm",
]

#: comm-layer sites (client side of every transport request)
COMM_SITES = (
    "comm.send",
    "comm.recv",
)

#: injection sites registered by the instrumented layers
FAULT_SITES = (
    "worker.run",
    "engine.batched",
    "engine.codegen",
    "engine.event",
    "memory.stream",
) + COMM_SITES


class FaultKind(enum.Enum):
    """What goes wrong when a spec fires."""

    CRASH = "crash"      #: the worker dies mid-job (crash-shaped error)
    HANG = "hang"        #: compute stalls for ``FaultSpec.seconds``
    CORRUPT = "corrupt"  #: bit-flip in the embedding count (soft error)
    STALL = "stall"      #: memory latency inflated by ``FaultSpec.factor``
    DROP = "drop"        #: a comm frame is lost (CommClosedError)
    DELAY = "delay"      #: a comm frame is delayed ``FaultSpec.seconds``
    CORRUPT_FRAME = "corrupt-frame"  #: a byte of the length prefix flips


#: one-shot kinds fire at most once per job; STALL applies to every hit
_ONE_SHOT = (FaultKind.CRASH, FaultKind.HANG, FaultKind.CORRUPT)

#: comm kinds are one-shot per injector too: a chaos scenario arms "the
#: Nth frame is dropped", not an unbounded packet-loss model
_COMM_KINDS = (FaultKind.DROP, FaultKind.DELAY, FaultKind.CORRUPT_FRAME)


@dataclass(frozen=True)
class FaultSpec:
    """One kind of failure at one site, with its selection rule.

    ``rate`` is the fraction of *job attempts* the spec is assigned to
    (1.0 = every attempt); selection is a pure function of the plan seed
    and ``(job_id, attempt)``.  ``max_fires`` caps how many assignments
    the plan hands out in total, so a chaos scenario can be "the first N
    jobs crash, then the system recovers".  ``on_hit`` picks which hit of
    the site (0-based, within one job) triggers a one-shot kind.
    """

    site: str
    kind: FaultKind
    rate: float = 1.0
    max_fires: int | None = None
    #: HANG: how long the compute stalls (wall seconds)
    seconds: float = 0.05
    #: STALL: multiplier applied to memory latencies
    factor: float = 10.0
    #: CORRUPT: which bit of the embedding count is flipped
    bit: int = 0
    #: one-shot kinds: fire on this hit index of the site (0-based)
    on_hit: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise FaultInjectionError(
                f"rate must be in [0, 1], got {self.rate}"
            )
        if self.kind is FaultKind.STALL and self.factor <= 0:
            raise FaultInjectionError("stall factor must be positive")
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

    def assigned(self) -> dict[str, int]:
        """``{site:kind: n}`` assignments handed out so far."""
        with self._lock:
            counts = list(self._assigned)
        return {
            f"{spec.site}:{spec.kind.value}": n
            for spec, n in zip(self.specs, counts)
            if n
        }


class FaultInjector:
    """Per-job applicator of the assigned specs (armed via :func:`inject`).

    One-shot kinds (CRASH/HANG/CORRUPT) fire at most once per injector,
    on the ``on_hit``-th hit of their site; STALL applies to every hit of
    its site.  ``events`` records what actually fired, keyed
    ``site:kind`` — the worker ships it home in ``report.notes`` so the
    service can count injections in its metrics.
    """

    def __init__(
        self,
        specs: tuple[FaultSpec, ...],
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._specs = tuple(specs)
        self._sleep = sleep
        self._hits: dict[tuple[str, str], int] = {}
        self._spent: set[int] = set()
        #: ``{"site:kind": fire count}`` of everything that actually fired
        self.events: dict[str, int] = {}

    def _record(self, spec: FaultSpec) -> None:
        key = f"{spec.site}:{spec.kind.value}"
        self.events[key] = self.events.get(key, 0) + 1

    def _one_shot(self, site: str, group: str, kinds) -> Iterator[FaultSpec]:
        """Specs of ``kinds`` due to fire on this hit of ``site``."""
        hit = self._hits.get((site, group), 0)
        self._hits[(site, group)] = hit + 1
        for i, spec in enumerate(self._specs):
            if (
                spec.site == site
                and spec.kind in kinds
                and i not in self._spent
                and spec.on_hit == hit
            ):
                self._spent.add(i)
                yield spec

    # -- site hooks (called by the instrumented layers) --------------------

    def fire(self, site: str) -> None:
        """CRASH / HANG hook, called before the site's work runs."""
        for spec in self._one_shot(
            site, "enter", (FaultKind.CRASH, FaultKind.HANG)
        ):
            self._record(spec)
            if spec.kind is FaultKind.CRASH:
                raise InjectedCrashError(site)
            self._sleep(spec.seconds)

    def corrupt(self, site: str, report: "SimReport") -> None:
        """CORRUPT hook: flip ``spec.bit`` of the final embedding count."""
        for spec in self._one_shot(site, "corrupt", (FaultKind.CORRUPT,)):
            self._record(spec)
            report.embeddings ^= 1 << spec.bit

    def comm(self, site: str) -> None:
        """DROP / DELAY hook for one comm frame at ``site``.

        DROP raises :class:`~repro.errors.CommClosedError` — on
        ``comm.send`` the request never reaches the peer, on
        ``comm.recv`` the reply is lost after the peer did the work
        (the caller cannot tell the difference, which is the point).
        """
        for spec in self._one_shot(
            site, "comm", (FaultKind.DROP, FaultKind.DELAY)
        ):
            self._record(spec)
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
        for spec in self._one_shot(
            site, "corrupt_frame", (FaultKind.CORRUPT_FRAME,)
        ):
            self._record(spec)
            mutated = bytearray(frame)
            mutated[spec.bit % 8] ^= 0xFF
            frame = bytes(mutated)
        return frame

    def stall(
        self, site: str, first_latency: float, stream_cycles: float
    ) -> tuple[float, float]:
        """STALL hook: inflate one stream access's latencies.

        The inflation applies to *every* access of the site, but the
        event is recorded once per injector — "this job ran on degraded
        memory" is one fault, however many accesses it slowed.
        """
        for i, spec in enumerate(self._specs):
            if spec.site == site and spec.kind is FaultKind.STALL:
                if i not in self._spent:
                    self._spent.add(i)
                    self._record(spec)
                first_latency *= spec.factor
                stream_cycles *= spec.factor
        return first_latency, stream_cycles


#: the injector armed for the current execution context, if any
_ACTIVE: ContextVar[FaultInjector | None] = ContextVar(
    "repro_fault_injector", default=None
)


def active() -> FaultInjector | None:
    """The armed injector of this context (None = no faults, no cost)."""
    return _ACTIVE.get()


@contextmanager
def inject(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Arm ``injector`` for the scope of the ``with`` block."""
    token = _ACTIVE.set(injector)
    try:
        yield injector
    finally:
        _ACTIVE.reset(token)


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
