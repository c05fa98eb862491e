"""Command-line interface: ``python -m repro <command>``.

Gives the library a shell-level surface mirroring the paper artifact's
``xset_systemc_simulator <dataset> <pattern> [--cfg ...]`` entry point::

    python -m repro count --dataset WV --pattern 3CF --scale 0.25
    python -m repro compare --dataset PP --pattern DIA --scale 0.2
    python -m repro datasets
    python -m repro config
    python -m repro area
    python -m repro plan --pattern DIA
    python -m repro engines
    python -m repro serve --mode process --nodes 60
    python -m repro stats --dataset WV --pattern 3CF
    python -m repro trace --export out.json
    python -m repro health --chaos --prometheus
    python -m repro cluster --shards 4 --kill 2

``stats`` and ``health`` accept ``--json`` for machine-readable output.

Pass ``-v``/``-vv`` (or set ``REPRO_LOG=INFO``/``DEBUG``) to surface the
library's log output — worker retries, crashes and job timeouts are
logged rather than printed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]

_SYSTEMS = ("xset", "flexminer", "fingers", "shogun")


def _jsonable(obj):
    """Best-effort conversion of report dataclasses to JSON-safe values."""
    import dataclasses
    import enum

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.name.lower()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def _config_for(name: str, overrides: dict):
    from .core.config import (
        fingers_config,
        flexminer_config,
        shogun_config,
        xset_default,
    )

    factory = {
        "xset": xset_default,
        "flexminer": flexminer_config,
        "fingers": fingers_config,
        "shogun": shogun_config,
    }[name]
    return factory(**overrides)


def _cmd_count(args: argparse.Namespace) -> int:
    from .core.api import XSetAccelerator
    from .graph.datasets import load_dataset
    from .patterns.pattern import PATTERNS

    overrides = {}
    if args.pes:
        overrides["num_pes"] = args.pes
    if args.sius:
        overrides["sius_per_pe"] = args.sius
    if args.engine:
        overrides["engine"] = args.engine
    config = _config_for(args.system, overrides)
    graph = load_dataset(args.dataset, scale=args.scale)
    accel = XSetAccelerator(config)
    report = accel.count(graph, PATTERNS[args.pattern.upper()])
    print(report.summary())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .baselines.accelerators import compare_accelerators
    from .graph.datasets import load_dataset
    from .patterns.pattern import PATTERNS

    graph = load_dataset(args.dataset, scale=args.scale)
    cmp = compare_accelerators(graph, PATTERNS[args.pattern.upper()])
    flex = cmp.seconds("flexminer")
    print(f"{args.pattern} on {args.dataset} (scale {args.scale}):")
    for system in _SYSTEMS:
        report = cmp.reports[system]
        print(
            f"  {system:<10} {report.cycles:>14.0f} cycles   "
            f"{flex / report.seconds:>6.2f}x vs FlexMiner"
        )
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .graph.datasets import dataset_table

    print(f"{'name':<6}{'#nodes':>10}{'#edges':>11}"
          f"{'avg deg':>9}{'max deg':>9}{'skew':>8}")
    for st in dataset_table(scale=args.scale):
        print(
            f"{st.name:<6}{st.num_vertices:>10}{st.num_edges:>11}"
            f"{st.avg_degree:>9.2f}{st.max_degree:>9}{st.skew:>8.2f}"
        )
    return 0


def _cmd_config(args: argparse.Namespace) -> int:
    from .core.config import config_table

    print(config_table(_config_for(args.system, {})))
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    from .hw.area import pe_area_breakdown

    breakdown = pe_area_breakdown()
    for key, mm2 in breakdown.items():
        print(f"{key:<10}{mm2:>8.3f} mm^2")
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    from .analysis.reporting import experiment_summary

    print(experiment_summary())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .patterns.pattern import PATTERNS
    from .patterns.plan import build_plan

    print(build_plan(PATTERNS[args.pattern.upper()]).describe())
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from .core.config import SystemConfig
    from .engine import engine_descriptions

    default = SystemConfig().engine
    descriptions = engine_descriptions()
    width = max(len(name) for name in descriptions)
    for name, description in sorted(descriptions.items()):
        marker = "*" if name == default else " "
        print(f"{marker} {name:<{width}}  {description}")
    print("(* = default engine; select with --engine / "
          "SystemConfig(engine=...))")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Demo the query service: a batch of jobs over generated graphs."""
    from .graph.generators import erdos_renyi
    from .patterns.pattern import PATTERNS
    from .service import QueryService

    patterns = [PATTERNS[name] for name in ("3CF", "4CF", "TT", "CYC",
                                            "DIA", "WEDGE", "HOUSE", "C5")]
    graphs = [
        erdos_renyi(args.nodes, args.degree, seed=seed,
                    name=f"er{args.nodes}-{seed}")
        for seed in (11, 23)
    ]
    with QueryService(
        mode=args.mode,
        max_workers=args.workers or None,
    ) as service:
        handles = []
        for graph in graphs:
            gid = service.register_graph(graph)
            handles += [
                service.submit(gid, p, engine=args.engine) for p in patterns
            ]
        # a second wave of identical queries exercises the result cache
        for graph in graphs:
            handles += [
                service.submit(graph.name, p, engine=args.engine)
                for p in patterns
            ]
        for handle in handles:
            report = handle.result(timeout=600)
            origin = "cache" if handle.from_cache else handle.engine
            print(
                f"{handle.pattern_name:<6} on {handle.graph_id:<10} "
                f"{report.embeddings:>10} embeddings   [{origin}]"
            )
        print()
        print(service.stats().summary())
    return 0


def _traced_query(args: argparse.Namespace):
    """Run one query through an inline traced service; returns the service.

    Shared by ``stats`` and ``trace``: the caller reads the profile /
    trace off the returned (still-open) service and must shut it down.
    """
    from .graph.datasets import load_dataset
    from .patterns.pattern import PATTERNS
    from .service import QueryService

    graph = load_dataset(args.dataset, scale=args.scale)
    service = QueryService(mode="inline", observability=True)
    gid = service.register_graph(graph)
    service.count(gid, PATTERNS[args.pattern.upper()], engine=args.engine)
    return service


def _cmd_stats(args: argparse.Namespace) -> int:
    from .analysis.reporting import render_profile

    with _traced_query(args) as service:
        if args.json:
            import json

            print(json.dumps(_jsonable(service.stats()), indent=2,
                             sort_keys=True))
            return 0
        profiles = service.profiles()
        if profiles:
            print(render_profile(profiles[-1]))
            print()
        print(service.stats().summary())
        if args.prometheus:
            print()
            print(service.metrics_text())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    with _traced_query(args) as service:
        events = service.export_trace()
        spans = sum(1 for e in events if e.get("cat") == "span")
        pe = sum(1 for e in events if e.get("cat") == "pe")
        if args.export:
            service.export_trace(args.export)
            print(
                f"wrote {args.export}: {spans} spans, {pe} PE activity "
                f"events (open at https://ui.perfetto.dev)"
            )
        else:
            import json

            print(json.dumps({"traceEvents": events,
                              "displayTimeUnit": "ms"}))
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    """Run a demo workload and print the service's health report.

    With ``--chaos`` every query is cross-checked on the event engine and
    a deterministic seeded fault plan is armed — worker crashes and
    corrupted counts, both at the worker's one fault site ``worker.run``
    — so the report shows crashes retried and wrong counts caught.
    Without it, a clean service reports ``healthy`` across the board.
    """
    from .graph.generators import erdos_renyi
    from .patterns.pattern import PATTERNS
    from .resilience import FaultKind, FaultPlan, FaultSpec
    from .service import QueryService

    graph = erdos_renyi(
        args.nodes, args.degree, seed=7, name="health-demo"
    )
    patterns = [PATTERNS[n] for n in ("3CF", "TT", "DIA", "WEDGE", "CYC")]
    with QueryService(
        mode="inline", verify_fraction=1.0 if args.chaos else 0.0
    ) as service:
        gid = service.register_graph(graph)
        if args.chaos:
            service.arm_faults(FaultPlan(seed=args.seed, specs=(
                FaultSpec(site="worker.run", kind=FaultKind.CRASH,
                          rate=0.4, max_fires=2),
                FaultSpec(site="worker.run", kind=FaultKind.CORRUPT,
                          rate=0.4, bit=2),
            )))
        for pattern in patterns:
            try:
                report = service.count(
                    gid, pattern, engine=args.engine, use_cache=False
                )
            except Exception as exc:  # noqa: BLE001 - reported, not fatal
                if not args.json:
                    print(f"{pattern.name:<6} FAILED "
                          f"[{type(exc).__name__}: {exc}]")
            else:
                if args.json:
                    continue
                notes = getattr(report, "notes", {})
                tags = sorted(notes.get("injected", {}))
                if notes.get("crosscheck", {}).get("mismatch"):
                    tags.append("crosscheck-recovered")
                suffix = f"   [{', '.join(tags)}]" if tags else ""
                print(f"{pattern.name:<6} {report.embeddings:>10} "
                      f"embeddings{suffix}")
        if args.json:
            import json

            print(json.dumps(
                _jsonable(service.health()), indent=2, sort_keys=True
            ))
            return 0
        print()
        print(service.health().summary())
        if args.prometheus:
            print()
            print(service.metrics_text())
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Demo the sharded query cluster on a generated graph.

    Shards a graph across ``--shards`` workers, runs a few patterns
    through the coordinator's scatter/gather path, and prints the merged
    counts next to a single-node reference so the exactly-once boundary
    accounting is visible.  With ``--kill N`` one shard is killed before
    the last pattern to demonstrate degraded (partial) operation.
    """
    from .cluster import LocalCluster
    from .core.config import xset_default
    from .graph.generators import erdos_renyi
    from .patterns.pattern import PATTERNS
    from .patterns.plan import build_plan
    from .sim.host import run_on_soc

    config = xset_default(engine=args.engine)
    graph = erdos_renyi(
        args.nodes, args.degree, seed=13, name="cluster-demo"
    )
    patterns = [PATTERNS[n] for n in ("3CF", "4CF", "DIA", "TT")]
    with LocalCluster(
        num_shards=args.shards,
        config=config,
        transport=args.transport,
        mode=args.mode,
        max_workers=1,
        replicas=args.replicas,
    ) as cluster:
        coord = cluster.coordinator
        gid = coord.register_graph(graph)
        replicas_note = (
            f" x{args.replicas} replicas" if args.replicas > 1 else ""
        )
        print(
            f"{graph.name}: {graph.num_vertices} vertices sharded "
            f"{args.shards} ways{replicas_note} over {args.transport!r} "
            f"({args.mode}-mode workers)"
        )
        for i, pattern in enumerate(patterns):
            if args.kill >= 0 and i == len(patterns) - 1:
                name = cluster.kill_shard(args.kill)
                print(f"-- killed {name} --")
            reference = run_on_soc(
                graph, build_plan(pattern), config
            ).embeddings
            report = coord.query(gid, pattern)
            info = report.notes["cluster"]
            status = (
                f"PARTIAL (lost {', '.join(info['failed_shards'])})"
                if info["partial"]
                else f"exact, matches single-node {reference}"
            )
            if info.get("failovers"):
                status += f", {info['failovers']} failover(s)"
            print(
                f"{pattern.name:<6} {report.embeddings:>10} embeddings "
                f"from {info['ok']}/{info['queried']} shards   [{status}]"
            )
        print()
        print(coord.health().summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="X-SET graph pattern matching accelerator (reproduction)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log more (-v: INFO, -vv: DEBUG); see also REPRO_LOG",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count a pattern on a dataset")
    count.add_argument("--dataset", default="WV")
    count.add_argument("--pattern", default="3CF")
    count.add_argument("--scale", type=float, default=0.25)
    count.add_argument("--system", choices=_SYSTEMS, default="xset")
    count.add_argument("--pes", type=int, default=0)
    count.add_argument("--sius", type=int, default=0)
    from .engine import available_engines

    engine_choices = available_engines()

    count.add_argument(
        "--engine",
        choices=engine_choices,
        default="",
        help="execution backend (see `python -m repro engines`)",
    )
    count.set_defaults(func=_cmd_count)

    compare = sub.add_parser(
        "compare", help="run all four accelerators on one workload"
    )
    compare.add_argument("--dataset", default="PP")
    compare.add_argument("--pattern", default="3CF")
    compare.add_argument("--scale", type=float, default=0.2)
    compare.set_defaults(func=_cmd_compare)

    datasets = sub.add_parser("datasets", help="print the Table-3 stand-ins")
    datasets.add_argument("--scale", type=float, default=0.25)
    datasets.set_defaults(func=_cmd_datasets)

    config = sub.add_parser("config", help="print a system configuration")
    config.add_argument("--system", choices=_SYSTEMS, default="xset")
    config.set_defaults(func=_cmd_config)

    area = sub.add_parser("area", help="print the PE area breakdown")
    area.set_defaults(func=_cmd_area)

    plan = sub.add_parser("plan", help="print a pattern's matching plan")
    plan.add_argument("--pattern", default="DIA")
    plan.set_defaults(func=_cmd_plan)

    results = sub.add_parser(
        "results", help="consolidated report of regenerated tables/figures"
    )
    results.set_defaults(func=_cmd_results)

    engines = sub.add_parser(
        "engines", help="list registered execution-engine backends"
    )
    engines.set_defaults(func=_cmd_engines)

    serve = sub.add_parser(
        "serve",
        help="demo the async query service on generated graphs",
    )
    serve.add_argument(
        "--mode", choices=("process", "inline"), default="process"
    )
    serve.add_argument("--workers", type=int, default=0,
                       help="pool size (default: one per CPU)")
    serve.add_argument("--nodes", type=int, default=60,
                       help="vertices per generated demo graph")
    serve.add_argument("--degree", type=float, default=8.0,
                       help="average degree of the demo graphs")
    serve.add_argument("--engine", choices=engine_choices,
                       default="codegen")
    serve.set_defaults(func=_cmd_serve)

    stats = sub.add_parser(
        "stats",
        help="run one traced query and print its execution profile",
    )
    stats.add_argument("--dataset", default="WV")
    stats.add_argument("--pattern", default="3CF")
    stats.add_argument("--scale", type=float, default=0.25)
    stats.add_argument("--engine", choices=engine_choices,
                       default="event")
    stats.add_argument("--prometheus", action="store_true",
                       help="also dump the metrics registry in "
                            "Prometheus text format")
    stats.add_argument("--json", action="store_true",
                       help="print the stats snapshot as JSON")
    stats.set_defaults(func=_cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="run one traced query and export a Chrome/Perfetto trace",
    )
    trace.add_argument("--dataset", default="WV")
    trace.add_argument("--pattern", default="3CF")
    trace.add_argument("--scale", type=float, default=0.25)
    trace.add_argument("--engine", choices=engine_choices,
                       default="event")
    trace.add_argument("--export", default="",
                       help="write the trace JSON here (default: stdout)")
    trace.set_defaults(func=_cmd_trace)

    health = sub.add_parser(
        "health",
        help="run a demo workload and print the service health report",
    )
    health.add_argument("--nodes", type=int, default=60,
                        help="vertices of the generated demo graph")
    health.add_argument("--degree", type=float, default=8.0,
                        help="average degree of the demo graph")
    health.add_argument("--engine", choices=engine_choices,
                        default="codegen")
    health.add_argument("--chaos", action="store_true",
                        help="arm a deterministic fault plan and "
                             "cross-check every query")
    health.add_argument("--seed", type=int, default=1234,
                        help="fault-plan seed used with --chaos")
    health.add_argument("--prometheus", action="store_true",
                        help="also dump the metrics registry in "
                             "Prometheus text format")
    health.add_argument("--json", action="store_true",
                        help="print the health report as JSON")
    health.set_defaults(func=_cmd_health)

    cluster = sub.add_parser(
        "cluster",
        help="demo the sharded query cluster (scatter/gather matching)",
    )
    cluster.add_argument("--shards", type=int, default=4,
                         help="number of shard workers")
    cluster.add_argument("--nodes", type=int, default=200,
                         help="vertices of the generated demo graph")
    cluster.add_argument("--degree", type=float, default=10.0,
                         help="average degree of the demo graph")
    cluster.add_argument("--engine", choices=engine_choices,
                         default="codegen")
    cluster.add_argument("--transport", choices=("inproc", "tcp"),
                         default="inproc",
                         help="comm transport between coordinator and "
                              "shards")
    cluster.add_argument("--mode",
                         choices=("inline", "thread", "process"),
                         default="inline",
                         help="where each shard runs its subquery: "
                              "inline and thread alike on the serving "
                              "thread, process in the shard's own "
                              "process pool")
    cluster.add_argument("--replicas", type=int, default=1,
                         help="workers per shard group; >= 2 enables "
                              "automatic failover when a replica dies")
    cluster.add_argument("--kill", type=int, default=-1,
                         help="chaos: kill this shard index before the "
                              "last pattern (-1 = don't)")
    cluster.set_defaults(func=_cmd_cluster)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    from .obs.logsetup import configure_logging

    args = build_parser().parse_args(argv)
    configure_logging(args.verbose)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
