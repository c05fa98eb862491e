"""What the three service workloads share: one ``QueryService`` in process
mode with two workers, the 200-vertex light graph in two snapshots, and
the light query / light write operations."""

from __future__ import annotations

from harness import (
    DEADLINE_HEAVY,
    DEADLINE_LIGHT,
    GRAPH_SEED,
    Oracle,
    Tally,
    Workload,
    absent_edge,
    answers,
    seeded_order,
    with_edge,
)

LIGHT = ("3CF", "WEDGE", "DIA", "TT")
#: ``nproc`` is 2 on the host this benchmark was sized on
MAX_WORKERS = 2


def light_graph():
    from repro.graph.generators import erdos_renyi

    return erdos_renyi(200, 6.0, seed=GRAPH_SEED, name="er200")


def heavy_graph():
    from repro.graph import load_dataset

    return load_dataset("WV", scale=0.18)


def codegen_config():
    """``engine`` is pinned: ``auto`` may flip 4CF between a 160 ms and a
    260 ms backend in the middle of a run."""
    from repro.core.config import xset_default

    return xset_default().with_overrides(engine="codegen")


class ServiceWorkload(Workload):
    """A closed loop of one client against one process-mode service."""

    def __init__(self, seed, rec) -> None:
        super().__init__(seed, rec)
        self.oracle = Oracle()
        base = light_graph()
        self.light_edge = absent_edge(seed, base)
        self.oracle.add("light/a", base, LIGHT, brute=True)
        self.oracle.add(
            "light/b", with_edge(base, *self.light_edge, "er200"), LIGHT
        )
        self.order = seeded_order(seed, LIGHT)
        self.cursor = 0
        self.svc = None

    # -- set-up ------------------------------------------------------------

    def start(self) -> None:
        """Graph build, service start and registration of the light graph."""
        from repro.service import QueryService

        a = light_graph()
        self.light = {"a": a, "b": with_edge(a, *self.light_edge, "er200")}
        self.light_now = "a"
        self.svc = QueryService(
            codegen_config(), mode="process", max_workers=MAX_WORKERS
        )
        self.light_gid = self.svc.register_graph(a, "light")

    def warm(self, queries) -> None:
        """Answer every distinct query correctly, twice at once so that
        both pool workers fork, attach the graphs and compile the kernels.

        ``queries`` are (key, graph id, pattern name, expected, deadline).
        """
        from repro.patterns import PATTERNS

        handles = [
            (q, self.svc.submit(q[1], PATTERNS[q[2]], use_cache=False))
            for q in queries
            for _ in range(MAX_WORKERS)
        ]
        for (key, _, name, expected, deadline), handle in handles:
            report = handle.result(timeout=deadline)
            if report.embeddings != expected:
                raise RuntimeError(
                    f"warm-up answer for {key} is {report.embeddings}, "
                    f"expected {expected}"
                )
            self.note_cycles(key, report)

    def light_queries(self):
        return [
            (
                f"er200/{name}", self.light_gid, name,
                self.oracle.expect("light/a", name), DEADLINE_LIGHT,
            )
            for name in LIGHT
        ]

    def teardown(self) -> None:
        if self.svc is not None:
            self.svc.shutdown()
            self.svc = None

    # -- operations --------------------------------------------------------

    def query(self, tally: Tally, kind, gid, name, expected, deadline,
              use_cache=False):
        """One submit → result round trip; returns (report, from_cache).

        ``expected=None`` defers the correctness check to the caller.
        """
        from repro.patterns import PATTERNS

        self.cursor += 1
        qid = self.cursor
        handle = None

        def call():
            nonlocal handle
            with self.rec.span("submit", "service", qid):
                handle = self.svc.submit(
                    gid, PATTERNS[name], use_cache=use_cache
                )
            with self.rec.span("result", "service", qid):
                return handle.result(timeout=deadline)

        ok = None if expected is None else answers(expected)
        report = tally.attempt(kind, call, ok, deadline)
        cached = handle is not None and handle.from_cache
        if report is not None and not cached:
            tally.sim_tasks += report.tasks
        return report, cached

    def light_query(self, tally: Tally) -> None:
        name = self.order[self.cursor % len(self.order)]
        self.query(
            tally, "light", self.light_gid, name,
            self.oracle.expect(f"light/{self.light_now}", name),
            DEADLINE_LIGHT,
        )

    def light_write(self, tally: Tally) -> None:
        """Publish the other snapshot of the light graph (one edge apart).

        The workers hold the old segment; their next read re-attaches.
        """
        nxt = "b" if self.light_now == "a" else "a"

        def call():
            with self.rec.span("update_graph", "service"):
                return self.svc.update_graph(self.light_gid, self.light[nxt])

        if tally.attempt("write", call, deadline=DEADLINE_HEAVY) is not None:
            self.light_now = nxt

    # -- per-layer ---------------------------------------------------------

    def service_counters(self) -> dict[str, float]:
        """Counters that must stay 0 on an undisturbed service."""
        s = self.svc.stats()
        return {
            "service.retries": s.retries,
            "service.timed_out": s.timed_out,
            "service.rerouted": s.rerouted,
            "service.crosscheck_mismatches": s.crosscheck_mismatches,
        }
