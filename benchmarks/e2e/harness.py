"""Child-side machinery shared by every workload of the benchmark.

A workload process builds its inputs from the seed, computes the oracle
counts, sets the system up (several times: ``setup_s`` is the median),
measures in time-sliced blocks with the calibration loop interleaved, and
hands back per-block values.  Nothing here is imported by ``repro``; the
benchmark only calls ``repro``'s public entry points.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from calib import CalibClock, median_iqr

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: blocks per measured run (a metric is the median of per-block values)
BLOCKS = 6
#: set-ups per measured run (``setup_s`` is their median)
SETUPS = 3
#: per-operation deadlines in seconds: light query, heavy query, one
#: simulated run (checked after the fact: a synchronous call cannot be
#: interrupted; the parent's wall limit is what ends a hang)
DEADLINE_LIGHT = 2.0
DEADLINE_HEAVY = 30.0
DEADLINE_SIM = 60.0
#: a workload whose per-block calibration medians differ by more than
#: this share is flagged unstable
CALIB_DRIFT_LIMIT = 0.25
#: fixed generator seed of every synthetic graph: graphs do not depend on
#: ``--seed`` so that simulated cycle counts repeat to the digit across
#: seeds; the seed drives query order and edge-update endpoints
GRAPH_SEED = 7


def spec() -> dict:
    """The benchmark's declaration (names, units, directions, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_repro() -> float:
    """Put ``src/`` on the path and import ``repro``; returns seconds.

    Exits non-zero when the program under test is not in the checkout.
    """
    t0 = perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program to measure at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import repro.cluster  # noqa: F401
    import repro.core  # noqa: F401
    import repro.service  # noqa: F401

    return perf_counter() - t0


class Recorder:
    """In-memory spans around the public calls the benchmark makes.

    Off by default: end-to-end metrics come from untraced blocks.  A span
    is (id, parent, name, layer, query id, start, end) on the
    ``perf_counter`` clock of the workload process.
    """

    def __init__(self) -> None:
        self.on = False
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, qid: int | None = None):
        if not self.on:
            yield
            return
        sid = len(self.spans)
        record = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": layer,
            "qid": qid,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = perf_counter()


class Oracle:
    """Reference counts from the plan-free executor, one per (graph, pattern).

    ``brute=True`` additionally requires the backtracking matcher (which
    shares no code with the set-centric plans) to agree; it is only
    affordable on the 200-vertex graph.  Counts are memoised per graph
    content for the life of the process: the traced run asks for the
    same ones from several workloads.
    """

    _memo: dict[tuple[str, str, bool], int] = {}

    def __init__(self) -> None:
        self._counts: dict[tuple[str, str], int] = {}

    def add(self, key: str, graph, pattern_names, brute: bool = False):
        fingerprint = graph.fingerprint()
        for name in pattern_names:
            memo_key = (fingerprint, name, brute)
            if memo_key not in self._memo:
                self._memo[memo_key] = self._count(graph, name, brute)
            self._counts[key, name] = self._memo[memo_key]

    @staticmethod
    def _count(graph, name: str, brute: bool) -> int:
        from repro.patterns import PATTERNS
        from repro.patterns.bruteforce import count_unique_embeddings
        from repro.patterns.executor import count_embeddings
        from repro.patterns.plan import build_plan

        plan = build_plan(PATTERNS[name])
        count = count_embeddings(graph, plan).embeddings
        if brute:
            other = count_unique_embeddings(
                graph, PATTERNS[name], induced=plan.induced
            )
            if other != count:
                raise RuntimeError(
                    f"oracles disagree on {graph.name}/{name}: "
                    f"executor {count}, brute force {other}"
                )
        return count

    def put(self, key: str, name: str, count: int) -> None:
        self._counts[key, name] = count

    def expect(self, key: str, name: str) -> int:
        return self._counts[key, name]


def induced_wedges(graph, triangles: int) -> int:
    """Induced 2-paths from degrees and the triangle count.

    Every pair of neighbours of a vertex is a wedge unless closed by an
    edge, and each triangle closes three of them — an oracle for WEDGE
    that needs no matcher at all.
    """
    degrees = graph.degrees
    return int((degrees * (degrees - 1) // 2).sum()) - 3 * triangles


class Tally:
    """Operations attempted and failed, and latency samples by class."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.lat: dict[str, list[float]] = {}
        #: simulated tasks behind the correct, uncached answers
        self.sim_tasks = 0

    def attempt(self, kind, call, ok=None, deadline=None):
        """Run ``call`` once; returns its result, or None if it failed.

        A typed error (refusal, expired deadline, shard failure) is a
        failed operation; see :meth:`settle` for the rest.
        """
        from repro.errors import XSetError

        t0 = perf_counter()
        try:
            result = call()
        except XSetError as exc:
            self.attempted += 1
            self.failed += 1
            print(f"benchmark: {kind} failed: {exc!r}", file=sys.stderr)
            return None
        return self.settle(kind, perf_counter() - t0, result, ok, deadline)

    def settle(self, kind, seconds, result, ok=None, deadline=None):
        """Count one finished operation; a wrong or late one fails.

        ``ok`` is the correctness check on the result.  Only operations
        that pass contribute a latency sample.
        """
        self.attempted += 1
        late = deadline is not None and seconds > deadline
        if late or (ok is not None and not ok(result)):
            self.failed += 1
            print(
                f"benchmark: {kind} {'late' if late else 'wrong'}: "
                f"{result!r} after {seconds:.3f}s",
                file=sys.stderr,
            )
            return None
        self.lat.setdefault(kind, []).append(seconds)
        return result

    def flag(self, what: str) -> None:
        """A later check disproved an answer already counted."""
        self.failed = min(self.failed + 1, max(self.attempted, 1))
        self.attempted = max(self.attempted, 1)
        print(f"benchmark: check failed: {what}", file=sys.stderr)

    def all(self, *kinds: str) -> list[float]:
        return [x for k in kinds for x in self.lat.get(k, [])]

    def absorb(self, part: "Tally") -> None:
        self.attempted += part.attempted
        self.failed += part.failed
        self.sim_tasks += part.sim_tasks
        for kind, values in part.lat.items():
            self.lat.setdefault(kind, []).extend(values)


def answers(expected: int):
    """Correctness check of a query answer: exact count, no partial merge."""

    def ok(report) -> bool:
        notes = getattr(report, "notes", None) or {}
        return (
            report.embeddings == expected
            and not notes.get("cluster", {}).get("partial", False)
        )

    return ok


def time_left(end: float, last: float) -> bool:
    """Whether another chunk of work like the last one (``last`` seconds)
    fits before ``end`` better than stopping now does."""
    return perf_counter() + last / 2 < end


def pctl(values, q: float) -> float:
    """The ``q``-quantile (0..1) by nearest rank; ``values`` non-empty."""
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def seeded_order(seed: int, cycle, length: int = 4096) -> list:
    """A seed-fixed query order: ``cycle`` repeated, each repetition in
    its own order, so every window of whole cycles has the same mix."""
    rng = random.Random(seed)
    order = []
    while len(order) < length:
        order.extend(rng.sample(list(cycle), len(cycle)))
    return order


def mid_degree_band(graph) -> list[int]:
    """The vertices in the middle tenth of the degree ranking.

    An edge write costs what its endpoints' neighbourhoods cost; drawing
    the endpoints from one degree band keeps the write cost from
    depending on which seed was given.
    """
    ranked = sorted(range(graph.num_vertices), key=graph.degrees.__getitem__)
    lo = int(len(ranked) * 0.45)
    return ranked[lo: max(int(len(ranked) * 0.55), lo + 2)]


def absent_edge(seed: int, graph) -> tuple[int, int]:
    """A seed-fixed mid-degree vertex pair that is not an edge of ``graph``."""
    rng = random.Random(seed)
    band = mid_degree_band(graph)
    while True:
        u, v = rng.sample(band, 2)
        if v not in set(int(w) for w in graph.neighbors(u)):
            return u, v


def with_edge(graph, u: int, v: int, name: str):
    """A new snapshot of ``graph`` with edge (u, v) added."""
    from repro.graph.csr import CSRGraph

    edges = [
        (a, int(b))
        for a in range(graph.num_vertices)
        for b in graph.neighbors(a)
        if a < b
    ]
    edges.append((u, v))
    return CSRGraph.from_edges(graph.num_vertices, edges, name=name)


def clear_caches() -> None:
    """Make the next set-up pay what a fresh process would pay."""
    from repro.graph.datasets import load_dataset
    from repro.patterns.codegen import clear_kernel_cache

    load_dataset.cache_clear()
    clear_kernel_cache()


class Workload:
    """Interface of one workload module's ``Workload`` class.

    ``__init__`` builds inputs and oracle counts from the seed (untimed);
    ``setup`` is everything a user waits for before the first answer;
    ``run_block`` measures for the given time and returns the block's
    end-to-end values; ``layer_metrics`` are per-layer numbers taken from
    the workload's own samples and the system's ``stats()``.
    """

    name = ""
    why = ""

    def __init__(self, seed: int, rec: Recorder) -> None:
        self.seed = seed
        self.rec = rec
        self.tally = Tally()
        #: simulated cycles by distinct query, from the warm-up answers
        self.sim_cycles: dict[str, float] = {}
        #: calibration unit (seconds) of every block measured so far
        self.block_cu: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_block(self, seconds: float) -> dict[str, float]:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def layer_metrics(self) -> dict[str, float]:
        return {}

    def extras(self) -> dict:
        """Non-numeric results (merged into the workload's result)."""
        return {}

    # -- helpers for subclasses --------------------------------------------

    @property
    def cu(self) -> float:
        """The run's calibration unit: median over the blocks, seconds."""
        return statistics.median(self.block_cu)

    def note_cycles(self, key: str, report) -> None:
        """Record (and require to repeat exactly) a query's cycle count."""
        cycles = float(report.cycles)
        if self.sim_cycles.setdefault(key, cycles) != cycles:
            raise RuntimeError(
                f"simulated cycles of {key} moved within one run: "
                f"{self.sim_cycles[key]} then {cycles}"
            )

    def block_values(
        self, clock: CalibClock, tally: Tally, lat, writes, wall,
        answered=None,
    ) -> dict[str, float]:
        """Fold one block into the values every workload reports.

        ``lat`` are the read latencies the p50 is taken over, ``writes``
        the write latencies and ``wall`` the measured wall of the block's
        operations with the calibration calls excluded, all in seconds;
        ``answered`` counts the correct answers (default: one per
        ``lat`` sample).
        """
        cu = clock.cu
        self.block_cu.append(cu)
        self.tally.absorb(tally)
        kcu = wall / cu / 1e3
        return {
            "calib_ms": cu * 1e3,
            "query_p50_cu": statistics.median(lat) / cu,
            "query_p50_ms": statistics.median(lat) * 1e3,
            "write_p50_cu": statistics.median(writes) / cu,
            "write_p50_ms": statistics.median(writes) * 1e3,
            "throughput_q_per_kcu": (
                len(lat) if answered is None else answered
            ) / kcu,
            "sim_tasks_per_kcu": tally.sim_tasks / kcu,
        }


def measure(
    cls,
    seed: int,
    seconds: float,
    rec: Recorder,
    *,
    import_s: float,
    setups: int = SETUPS,
    blocks: int = BLOCKS,
    trace_alternate: bool = False,
    progress=None,
) -> dict:
    """Set up, measure and tear down one workload; returns its result.

    With ``trace_alternate`` blocks run with span recording off, on, on,
    off, … (balanced against a drifting host); the ratio of the two
    groups' ``query_p50_cu`` medians is what recording costs.  A single
    block is recorded, and the workload's ``layer_metrics`` are taken
    (under ``"layer"``) while the system is still up.
    """
    wl = cls(seed, rec)
    setup_times = []
    for i in range(setups):
        if i:
            wl.teardown()
        clear_caches()
        t0 = perf_counter()
        with rec.span("setup", "bench"):
            wl.setup()
        setup_times.append(perf_counter() - t0)
    per_block: list[dict[str, float]] = []
    traced_flags: list[bool] = []
    try:
        for b in range(blocks):
            rec.on = trace_alternate and (blocks == 1 or b % 4 in (1, 2))
            traced_flags.append(rec.on)
            with rec.span("block", "bench"):
                per_block.append(wl.run_block(seconds / blocks))
            if progress is not None:
                progress(wl.tally.attempted, wl.tally.failed)
        rec.on = trace_alternate
        layer = wl.layer_metrics() if trace_alternate else {}
    finally:
        rec.on = False
        wl.teardown()
    setup_s = import_s + statistics.median(setup_times)
    result = summarise(wl, per_block, setup_s)
    result["setup_runs_s"] = [import_s + t for t in setup_times]
    result.update(wl.extras())
    result["layer"] = layer
    if trace_alternate and any(traced_flags) and not all(traced_flags):
        on = [b["query_p50_cu"] for b, f in zip(per_block, traced_flags) if f]
        off = [
            b["query_p50_cu"]
            for b, f in zip(per_block, traced_flags)
            if not f
        ]
        result["trace_overhead_ratio"] = (
            statistics.median(on) / statistics.median(off)
        )
    return result


def summarise(wl: Workload, per_block, setup_s: float) -> dict:
    """Fold per-block values into medians with their IQR and flags."""
    declared = {m["name"]: m for m in spec()["end_to_end"]}
    metrics: dict[str, dict] = {}
    info: dict[str, dict] = {}
    names = sorted({k for b in per_block for k in b})
    for name in names:
        values = [b[name] for b in per_block if name in b]
        med, iqr = median_iqr(values)
        entry = {"value": med, "iqr": iqr, "blocks": values}
        if name in declared:
            entry["unit"] = declared[name]["unit"]
            metrics[name] = entry
        else:
            info[name] = entry
    metrics["setup_s"] = {"value": setup_s, "iqr": 0.0, "unit": "s"}
    metrics["peak_rss_mb"] = {
        "value": peak_rss_mb(), "iqr": 0.0, "unit": "MB",
    }
    metrics["sim_cycles_total"] = {
        "value": sum(wl.sim_cycles.values()), "iqr": 0.0, "unit": "cycles",
    }
    calibs = info["calib_ms"]["blocks"]
    drift = max(calibs) / min(calibs) - 1.0
    wide = [
        name
        for name, entry in metrics.items()
        if entry["iqr"] > declared[name]["bound"] * abs(entry["value"])
    ]
    t = wl.tally
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": wl.seed,
        "attempted": t.attempted,
        "failed": t.failed,
        "failed_share": t.failed / max(t.attempted, 1),
        "correct": t.failed == 0 and t.attempted > 0,
        "calib_ms": calibs,
        "calib_drift": drift,
        "unstable": drift > CALIB_DRIFT_LIMIT or bool(wide),
        "unstable_metrics": wide,
        "metrics": metrics,
        "info": info,
        "samples": {k: len(v) for k, v in t.lat.items()},
        "sim_cycles": dict(wl.sim_cycles),
    }
