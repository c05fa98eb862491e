#!/usr/bin/env python3
"""Resilience tour: seeded chaos against the query service, verified live.

Computes clean reference counts for a handful of patterns, then replays
the same queries through a :class:`QueryService` that cross-checks every
query on the event engine while a deterministic :class:`FaultPlan`
injects worker crashes and silent bit-flips in the count each codegen
run returns, both at the worker's fault site ``worker.run``.  The demo
asserts — not just prints — that every query still comes back with the
*correct* embedding count from the codegen engine it named, and that
every armed fault fired, then shows how each query survived: retried on
codegen after an injected crash, or cross-checked and served from the
verifying engine.

Because the plan is seeded, the run is reproducible: same seed, same
faults, same recovery story every time.

Usage::

    python examples/chaos_demo.py [--seed 2024] [--scale 1.0]

Set ``REPRO_LOG=INFO`` (or pass ``-v``) to watch the service log the
crashes, retries and caught mismatches as they happen.
"""

import argparse

from repro.core.api import XSetAccelerator
from repro.graph import erdos_renyi
from repro.obs import configure_logging
from repro.patterns import PATTERNS
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.service import QueryService

DEMO_PATTERNS = ("3CF", "TT", "WEDGE", "DIA", "CYC")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2024,
                        help="fault-plan seed (same seed = same chaos)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="graph size knob (vertices = 60 * scale)")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    args = parser.parse_args()
    configure_logging(args.verbose)

    graph = erdos_renyi(
        max(20, int(60 * args.scale)), 8.0, seed=7, name="chaos-demo"
    )

    print("clean reference counts (no service, no faults):")
    expected = {}
    for name in DEMO_PATTERNS:
        expected[name] = XSetAccelerator(engine="codegen").count(
            graph, PATTERNS[name]
        ).embeddings
        print(f"  {name:6s} {expected[name]}")

    # a crash is retried on codegen in a fresh worker, and every query is
    # cross-checked on the event engine (verify_fraction=1.0 for the
    # demo's sake; production would sample a fraction).  Faults fire in
    # the worker, around the codegen run; the event engine's cross-check
    # is never faulted.  The first two attempts crash, whatever the seed.
    plan = FaultPlan(seed=args.seed, specs=(
        FaultSpec(site="worker.run", kind=FaultKind.CRASH,
                  rate=1.0, max_fires=2),
        FaultSpec(site="worker.run", kind=FaultKind.CORRUPT,
                  rate=0.5, bit=3),
    ))
    print(f"\nreplaying under chaos (seed={args.seed}): worker crashes, "
          "bit-flips in the codegen count\n")

    with QueryService(mode="inline", verify_fraction=1.0) as service:
        gid = service.register_graph(graph)
        service.arm_faults(plan)
        for name in DEMO_PATTERNS:
            handle = service.submit(gid, PATTERNS[name],
                                    engine="codegen", use_cache=False)
            report = handle.result(timeout=120)
            assert report.embeddings == expected[name], (
                f"{name}: {report.embeddings} != {expected[name]}"
            )
            assert handle.engine == "codegen"
            story = []
            if handle.attempts > 1:
                story.append(f"retried on codegen x{handle.attempts - 1}")
            injected = report.notes.get("injected", {})
            for event, n in injected.items():
                story.append(f"injected {event} x{n}")
            if report.notes.get("crosscheck", {}).get("mismatch"):
                story.append("cross-check caught a wrong count")
            print(f"  {name:6s} {report.embeddings:>8d}  correct"
                  + (f"  [{', '.join(story)}]" if story else ""))

        print("\nevery count survived the chaos plan.\n")
        print(service.health().summary())
        stats = service.stats()
        print(f"\nretries={stats.retries} "
              f"crosscheck_mismatches={stats.crosscheck_mismatches} "
              f"faults_injected={stats.faults_injected}")
        assert stats.retries >= 1, "no injected crash was retried"
        silent = [
            f"{spec.site}:{spec.kind.value}" for spec in plan.specs
            if not stats.metrics.get(
                "repro_faults_injected_total"
                f'{{kind="{spec.kind.value}",site="{spec.site}"}}'
            )
        ]
        assert not silent, f"armed faults that never fired: {silent}"


if __name__ == "__main__":
    main()
