"""Documentation consistency: the docs describe what actually exists."""

import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.fixture(scope="module")
def readme():
    return (ROOT / "README.md").read_text()


@pytest.fixture(scope="module")
def design():
    return (ROOT / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def experiments():
    return (ROOT / "EXPERIMENTS.md").read_text()


@pytest.fixture(scope="module")
def architecture():
    return (ROOT / "docs" / "ARCHITECTURE.md").read_text()


class TestReadme:
    def test_install_and_quickstart_present(self, readme):
        assert "pip install -e ." in readme
        assert "XSetAccelerator" in readme

    def test_every_mentioned_example_exists(self, readme):
        for line in readme.splitlines():
            if "python examples/" in line:
                script = line.split("python ")[1].split()[0]
                assert (ROOT / script).exists(), script

    def test_every_subpackage_described(self, readme):
        for pkg in ("graph", "patterns", "setops", "siu", "sched",
                    "memory", "sim", "baselines", "hw", "core"):
            assert pkg in readme, pkg


class TestClusterDocs:
    def test_readme_has_cluster_quickstart(self, readme):
        assert "### Cluster" in readme
        assert "LocalCluster" in readme
        assert "python -m repro cluster" in readme
        assert "cluster.throughput_vs_1shard" in readme

    def test_architecture_has_cluster_section(self, architecture):
        assert "## Cluster" in architecture
        for phrase in ("halo", "exactly-once", "inproc", "tcp",
                       "python -m repro cluster"):
            assert phrase in architecture, phrase

    def test_documented_cluster_api_exists(self, readme):
        import repro

        for name in ("LocalCluster", "Coordinator", "ShardWorker",
                     "ClusterHealth"):
            assert hasattr(repro, name), name
        assert "LocalCluster" in readme

    def test_referenced_cluster_files_exist(self, readme, architecture):
        for rel in ("benchmarks/e2e", "tests/test_cluster.py"):
            assert (ROOT / rel).exists(), rel
            assert rel in readme or rel in architecture, rel


class TestDesign:
    def test_substitution_table(self, design):
        for phrase in ("DRAMSys", "CACTI", "SNAP", "Chisel"):
            assert phrase in design, phrase

    def test_experiment_index_covers_all_tables_figures(self, design):
        for exp in ("Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
                    "Fig 12", "Fig 13", "Fig 14", "Fig 15", "Fig 16",
                    "Fig 17", "Fig 18", "Fig 19"):
            assert exp in design, exp

    def test_referenced_bench_modules_exist(self, design):
        for line in design.splitlines():
            if "`benchmarks/bench_" in line:
                name = line.split("`benchmarks/")[1].split("`")[0]
                assert (ROOT / "benchmarks" / name).exists(), name


class TestExperiments:
    def test_every_evaluation_item_covered(self, experiments):
        for exp in ("Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
                    "Figure 12", "Figure 13", "Figure 14", "Figure 15",
                    "Figure 16", "Figure 17", "Figure 18", "Figure 19"):
            assert exp in experiments, exp

    def test_paper_anchor_numbers_recorded(self, experiments):
        # headline paper numbers the reproduction compares against
        for anchor in ("6.4", "3.6", "2.9", "1.64", "1.9", "0.305",
                       "75.4", "1.30"):
            assert anchor in experiments, anchor


class TestExamplesDocstrings:
    def test_every_example_has_usage_docstring(self):
        import ast

        for path in sorted((ROOT / "examples").glob("*.py")):
            tree = ast.parse(path.read_text())
            doc = ast.get_docstring(tree)
            assert doc and "Usage" in doc, path.name


class TestBenchmarkCoverage:
    def test_one_bench_module_per_eval_item(self):
        benches = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        for required in (
            "bench_table1_theory.py",
            "bench_table2_config.py",
            "bench_table3_datasets.py",
            "bench_table4_area.py",
            "bench_table5_simtime.py",
            "bench_fig12_software.py",
            "bench_fig13_accelerators.py",
            "bench_fig14_siu.py",
            "bench_fig15_area_power.py",
            "bench_fig16_ablation.py",
            "bench_fig17_scalability.py",
            "bench_fig18_cache.py",
            "bench_fig19_bitmap.py",
        ):
            assert required in benches, required


class TestReplicationDocs:
    def test_readme_section(self, readme):
        assert "### Replication & failover" in readme
        for phrase in (
            "replicas=2", "FAILOVER_ROUNDS", "BREAKER_RECOVERY_SECONDS",
            "zero partial", "byte-identical", "served_by",
            "replica_failovers_total",
            "cluster.failovers",
            "python -m repro cluster --replicas 2",
        ):
            assert phrase in readme, phrase

    def test_architecture_section(self, architecture):
        assert "## Replication & failover" in architecture
        for phrase in (
            "FAILOVER_ROUNDS", "FAILOVER_BACKOFF_SECONDS",
            "BREAKER_RECOVERY_SECONDS", "half-open", "exactly-once",
            "FRAME_BODY_TIMEOUT", "comm.send",
        ):
            assert phrase in architecture, phrase

    def test_documented_replication_api_exists(self):
        from repro.cluster import coordinator

        for name in (
            "FAILOVER_ROUNDS", "FAILOVER_BACKOFF_SECONDS",
            "BREAKER_RECOVERY_SECONDS",
        ):
            assert hasattr(coordinator, name), name

    def test_replicas_one_semantics_documented(self, readme, architecture):
        # the compat contract: replicas=1 is the pre-replication cluster
        assert "replicas=1" in readme
        assert "tests/test_cluster.py` passes unmodified" in architecture

    def test_cli_replicas_flag_matches_docs(self, readme):
        from repro.cli import build_parser

        parser = build_parser()
        sub = parser._subparsers._group_actions[0]
        assert "--replicas" in [
            opt
            for action in sub.choices["cluster"]._actions
            for opt in action.option_strings
        ]
        assert "--replicas" in readme

    def test_referenced_files_exist(self, readme, architecture):
        for rel in (
            "tests/test_replication.py",
            "tests/test_comm_hardening.py",
            "benchmarks/e2e",
        ):
            assert (ROOT / rel).exists(), rel
            assert rel in readme or rel in architecture, rel


class TestAdaptiveSchedulingDocs:
    def test_readme_section(self, readme):
        assert "### Adaptive scheduling\n" in readme
        for phrase in (
            "shortest-predicted-job-first", "fastest", "math.inf",
            "anti-starvation", "AGE_LIMIT_SECONDS",
            "repro_predictor_error_ratio", "svc-burst",
        ):
            assert phrase in readme, phrase

    def test_architecture_section(self, architecture):
        assert "## Adaptive scheduling\n" in architecture
        for phrase in (
            "CostPredictor", "QueryFeatures", "fastest clean run",
            "math.inf", "root range", "relabeling-invariant",
            "cost_key", "AGE_LIMIT_SECONDS", "MAX_RETRIES",
            "RETRY_BACKOFF_SECONDS",
            "predicted_seconds", "repro_predictor_error_ratio",
        ):
            assert phrase in architecture, phrase
        # the tiers, their work proxy and the by-tier estimate are gone
        for phrase in (
            "analytic_work", "CostEstimate", "predicted_source", "EWMA",
        ):
            assert phrase not in architecture, phrase

    def test_documented_adaptive_api_exists(self):
        import repro
        import repro.sched

        assert hasattr(repro, "CostPredictor")
        for module in (repro, repro.sched):
            assert not hasattr(module, "CostEstimate")
            assert not hasattr(module, "QueryFeatures")

    def test_scheduling_defaults_match_docs(self, readme, architecture):
        # the docs quote the shipped constants by name; keep them honest
        from repro.service import scheduler, service

        assert f"AGE_LIMIT_SECONDS = {scheduler.AGE_LIMIT_SECONDS}" in readme
        # the coordinator prices nothing: one cost model, the service's
        assert "keeps no cost model" in readme
        assert 'notes["cluster"]["predicted_seconds"]' not in architecture
        assert f"`MAX_RETRIES` ({service.MAX_RETRIES})" in architecture
        assert (
            f"`RETRY_BACKOFF_SECONDS` ({service.RETRY_BACKOFF_SECONDS} s)"
            in architecture
        )

    def test_no_cli_engine_offers_auto(self, readme):
        # a job runs on the engine it names: no --engine picks one
        from repro.cli import build_parser
        from repro.engine import available_engines

        parser = build_parser()
        sub = parser._subparsers._group_actions[0]
        offered = [
            (cmd, tuple(action.choices))
            for cmd, cmd_parser in sub.choices.items()
            for action in cmd_parser._actions
            if "--engine" in action.option_strings
        ]
        assert {cmd for cmd, _ in offered} >= {
            "count", "serve", "stats", "cluster"
        }
        for cmd, choices in offered:
            assert choices == available_engines(), cmd
        assert 'engine="auto"' not in readme
        assert "--engine auto" not in readme

    def test_referenced_files_exist(self, readme, architecture):
        for rel in (
            "benchmarks/e2e",
            "tests/test_adaptive_sched.py",
            "tests/test_predictor_features.py",
        ):
            assert (ROOT / rel).exists(), rel
            assert rel in readme or rel in architecture, rel


class TestClusterObservabilityDocs:
    def test_readme_section(self, readme):
        assert "### Observability across the cluster" in readme
        for phrase in (
            '"trace": True', "re-anchor", "TRACE_SPAN_LIMIT",
            "BreakerSnapshot", "obs.observability_overhead_ratio", "L3obs",
        ):
            assert phrase in readme, phrase
        for gone in ("coord.metrics_text()", "REPRO_FLIGHT_DIR", "flight_dir"):
            assert gone not in readme, gone

    def test_architecture_section(self, architecture):
        assert "## Observability across the cluster" in architecture
        for phrase in (
            '"trace": True', "TRACE_SPAN_LIMIT",
            "BreakerSnapshot", "re-anchor",
        ):
            assert phrase in architecture, phrase
        for gone in ("FlightRecorder", "REPRO_FLIGHT_DIR", "flight_dir"):
            assert gone not in architecture, gone

    def test_cli_surface_matches_docs(self, readme):
        from repro.cli import build_parser

        parser = build_parser()
        sub = parser._subparsers._group_actions[0]
        for name in ("stats", "health"):
            assert name in sub.choices, name
            assert f"python -m repro {name}" in readme, name
        # the machine-readable flags exist on both surfaces
        for cmd in ("stats", "health"):
            assert "--json" in [
                opt
                for action in sub.choices[cmd]._actions
                for opt in action.option_strings
            ], cmd

    def test_documented_obs_api_exists(self):
        from repro import obs

        assert hasattr(obs, "collect_job_spans")
        # one registry per process: nothing ships or merges metric
        # deltas; and one record per event: no flight-recorder ring
        for name in (
            "TraceContext", "MetricsSnapshot", "FederatedMetrics",
            "FlightRecorder", "FlightEvent", "FLIGHT_DIR_ENV",
        ):
            assert not hasattr(obs, name), name

    def test_referenced_files_exist(self, readme, architecture):
        for rel in (
            "benchmarks/e2e",
            "tests/test_obs_cluster.py",
        ):
            assert (ROOT / rel).exists(), rel
            assert rel in readme or rel in architecture, rel


class TestClaimTable:
    """"Where each claim lives": every pointer in the table resolves."""

    def test_every_test_id_and_metric_exists(self, architecture):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {
            entry["name"]
            for key in ("workloads", "end_to_end", "per_layer")
            for entry in bench[key]
        }
        # printed by benchmarks/e2e beside the declared metrics
        declared |= {"failed_share", "sim.stats_digest"}
        section = architecture.split("## Where each claim lives")[1]
        rows = [
            line for line in section.split("\n## ")[0].splitlines()
            if line.startswith("| ") and not line.startswith("| claim")
        ]
        assert len(rows) >= 25
        for row in rows:
            source = None
            for token in re.findall("`([^`]+)`", row.split(" | ")[1]):
                if token.startswith("tests/"):
                    path, *names = token.split("::")
                    source = (ROOT / path).read_text()
                elif token.startswith("::"):
                    names = token.split("::")[1:]
                else:  # a metric, or the stem of its .light/.heavy pair
                    assert {token, f"{token}.light"} & declared, token
                    continue
                for name in names:
                    assert re.search(
                        rf"(def|class) {name}\b", source
                    ), token


def _imports(path: Path) -> set[str]:
    """Absolute names a module under ``src/repro`` imports: each module,
    and each ``from`` import as ``module.name``."""
    package = ROOT / "src" / "repro"
    parts = ("repro",) + path.relative_to(package).parent.parts
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = parts[:len(parts) - node.level + 1] if node.level else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
            imported.add(module)
            imported |= {f"{module}.{alias.name}" for alias in node.names}
    return imported


#: Public names under ``src/repro`` that nothing in ``src/``,
#: ``benchmarks/``, ``examples/`` or the CI workflow uses, each with what
#: keeps it: a reference a test compares against, a seam a test drives, or
#: an artefact of the paper.  Anything else without a user is deleted.
KEPT = {
    # references the tests compare the fast paths against
    "cross_validate": "analytic SIU costs against the element-level "
    "pipelines (tests/test_sim_validation.py)",
    "SIUCostModel.op_cost": "exact word-stream cost of one set operation, "
    "the oracle of tests/test_siu_models.py",
    "_WordCostMixin.op_cost": "the SIU models' implementation of "
    "SIUCostModel.op_cost",
    "encoded_length": "BitmapCSR word count without materialising words, "
    "checked against encode (tests/test_graph_bitmapcsr.py, "
    "tests/test_sim_hwexec.py)",
    "decode": "encode's inverse: the BitmapCSR word operations are checked "
    "by decoding their results (tests/test_graph_bitmapcsr.py)",
    "ChunkTrace.child_row": "locates a task in a trace, so "
    "tests/test_event_golden.py can compare every traced set with the "
    "per-task form",
    "CacheModel.contains": "non-mutating LRU probe (tests/test_memory.py)",
    "LevelSpec.num_set_ops": "a plan level's SIU operation count, which "
    "the traced expansions must match (tests/test_property_fullstack.py, "
    "tests/test_sim_rocc_host.py)",
    "Pattern.relabeled": "isomorphic copy for the relabelling-invariance "
    "tests (tests/test_patterns_pattern.py, "
    "tests/test_predictor_features.py)",
    "TaskSetState.ready": "task-set accounting probe "
    "(tests/test_sched_policies.py, tests/test_sched_property.py)",
    "TaskSetState.complete_one": "task-set accounting probe "
    "(tests/test_sched_policies.py)",
    # named by string in the engine table (repro.engine.base._ENGINES),
    # imported on first use
    "EventEngine": "the event engine's class",
    "CodegenEngine": "the codegen engine's class",
    # seams the tests drive
    "Pattern.with_labels": "builds the labelled patterns of "
    "tests/test_labeled_matching.py and the service and cluster tests",
    "CSRGraph.with_labels": "builds the labelled graphs of "
    "tests/test_labeled_matching.py and the service and cluster tests",
    "current_span": "the active span, read by tests/test_obs_tracing.py's "
    "nesting checks",
    "worker_graph_cache_info": "attach-vs-pickle counters of a pool "
    "worker (tests/test_graph_store.py, tests/test_service_sets.py)",
    "kernel_cache_info": "codegen kernel-cache hits and misses "
    "(tests/test_patterns_codegen.py)",
    "QueryService.pause": "holds the queue so tests can stage jobs "
    "(tests/test_service_concurrency.py, tests/test_service_core.py)",
    "QueryService.resume": "releases a paused queue",
    "inject_comm": "arms the wire fault sites for "
    "tests/test_replication.py (ROADMAP item 5(a))",
    "LocalCluster.revive_replica": "brings a killed replica back, so "
    "tests/test_replication.py sees its breaker close",
    "load_edge_list": "the public edge-list reader (ROADMAP item 5's fuzz "
    "target)",
    "save_edge_list": "the public edge-list writer, load_edge_list's "
    "round trip",
    # artefacts of the paper
    "render_task_list": "the Fig. 10e task list as text "
    "(tests/test_patterns_codegen.py)",
    "encode_task_op": "the Fig. 10e packed task encoding",
    "decode_task_op": "encode_task_op's inverse",
    "Const": "IEP expression term (tests/test_patterns_iep.py, "
    "tests/test_property_fullstack.py)",
    "PairIntersection": "IEP expression term (tests/test_patterns_iep.py)",
}


def _definitions():
    """``(path, key, node)`` for every public module-level function and
    class under ``src/repro``, and every public method of a module-level
    class (``key`` is ``Class.method``)."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if not node.name.startswith("_"):
                yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not item.name.startswith("_"):
                        yield path, f"{node.name}.{item.name}", item


def _callee(node: ast.expr) -> str:
    """The name a decorator (or a call) resolves to, without its module."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) or getattr(node, "attr", "")


def _uses() -> dict[str, list[tuple[Path, int]]]:
    """Where each name is used in ``src/``, ``benchmarks/`` and
    ``examples/``: every ``ast.Name``, ``ast.Attribute`` and import alias,
    except the imports of package ``__init__`` files (re-exports)."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias) and not reexports:
                    name = node.name.rpartition(".")[2]
                else:
                    continue
                uses.setdefault(name, []).append((path, node.lineno))
    return uses


class TestStructure:
    """Shapes of ``src/`` the docs promise, checked on the syntax tree."""

    def test_level_spec_is_interpreted_in_one_place(self):
        """The plan's reuse annotations are read by the plan compiler, the
        reference executor, the task-list emitter and ``engine.functional``
        — a further reader would be one more copy of the Fig. 1c loop."""
        interpreters = {
            "patterns/plan.py", "patterns/executor.py",
            "patterns/codegen.py", "engine/functional.py",
        }
        fields = {"extra_deps", "extra_anti", "reuse_from"}
        package = ROOT / "src" / "repro"
        readers = {
            path.relative_to(package).as_posix()
            for path in package.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in fields
        }
        assert readers == interpreters

    def test_the_executor_seam_is_one_shape_wide(self):
        """The service hands an executor ``run_job`` (one job, a report
        back) and nothing else, whether the pool runs it or the dispatcher
        does — what the ``executor=`` stubs of the tests have to answer."""
        tree = ast.parse(
            (ROOT / "src/repro/service/service.py").read_text()
        )
        submitted = sorted(
            ast.unparse(node.args[0])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            # self.submit(...) is the service's own entry point
            and ast.unparse(node.func.value) != "self"
        )
        assert submitted == ["run_job"]

    def test_the_dispatch_core_holds_no_thread_clock_or_executor(self):
        """Every dispatch decision is ``service/core.py``'s, fed events
        with the time they happen at: it imports no thread, executor,
        clock, logger or tracer, and it is the only caller of
        ``JobQueue.push`` — the shell applies its answers, it does not
        queue jobs itself."""
        package = ROOT / "src" / "repro"
        imported = _imports(package / "service" / "core.py")
        forbidden = ("threading", "concurrent.futures", "time", "logging",
                     "repro.obs")
        assert not {
            m for m in imported
            for f in forbidden if m == f or m.startswith(f + ".")
        }
        assert "repro.service.scheduler.JobQueue" in imported  # resolved
        pushers = {
            path.relative_to(package).as_posix()
            for path in package.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "push"
        }
        assert pushers == {"service/core.py"}

    def test_the_cluster_keeps_no_cost_model(self):
        """Nothing under ``cluster/`` imports ``sched.adaptive``: each
        process has one cost model, its service's, and the coordinator
        gives every subquery the whole ``request_timeout``."""
        package = ROOT / "src" / "repro"
        imported = set()
        for path in (package / "cluster").rglob("*.py"):
            imported |= _imports(path)
        assert "repro.cluster.partition" in imported  # resolved at all
        assert not {
            m for m in imported if m.startswith("repro.sched.adaptive")
        }

    def test_only_the_cluster_keeps_breakers(self):
        """The coordinator's per-replica comm breakers are the only
        breakers: no module under ``src/repro/`` outside ``cluster/``
        imports or names one.  The service keeps a failure count per
        engine instead."""
        package = ROOT / "src" / "repro"
        breaker = {"BreakerBoard", "CircuitBreaker", "BreakerState"}
        named = set()
        for path in package.rglob("*.py"):
            rel = path.relative_to(package)
            if rel.parts[0] == "cluster":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = {a.name.split(".")[-1] for a in node.names}
                elif isinstance(node, ast.Name):
                    names = {node.id}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                else:
                    continue
                named |= {(rel.as_posix(), n) for n in names & breaker}
        assert named == set()
        assert not (package / "resilience" / "breaker.py").exists()

    def test_the_event_replay_does_no_set_work(self):
        """The event engine's NumPy set work happens once per chunk, when
        ``engine.functional.trace_chunk`` traces it; the event loop, the
        executor and the cost annotator only replay it against the clock.
        ``sim/validation.py``, the exact reference, is exempt."""
        set_work = {
            "expand_task", "intersect_sorted", "difference_sorted",
            "stream_words", "searchsorted",
        }
        for rel in ("sim/accelerator.py", "sim/hwexec.py",
                    "engine/temporal.py"):
            tree = ast.parse((ROOT / "src/repro" / rel).read_text())
            called = {
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else getattr(node.func, "id", None)
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
            }
            assert not called & set_work, (rel, called & set_work)

    def test_a_job_has_no_deadline_and_no_priority_class(self):
        """One dispatch rule and no deadlines: ``submit`` takes neither
        ``timeout`` nor ``priority``, nothing watches running jobs, and no
        job settles as TIMEOUT — ``result(timeout=)`` bounds only the
        caller's wait."""
        import inspect

        from repro import resilience
        from repro.service import JobStatus, QueryService

        params = inspect.signature(QueryService.submit).parameters
        assert not {"timeout", "priority"} & set(params)
        assert not hasattr(resilience, "Watchdog")
        assert "Watchdog" not in resilience.__all__
        assert "TIMEOUT" not in JobStatus.__members__

    def test_each_event_has_one_record(self):
        """No flight recorder: job outcomes and failovers are counters,
        breaker trips are breaker snapshots, and where a job ran is a
        span attribute.  Nothing brings back the ring, its ``flight`` /
        ``flight_dir`` members on the service, coordinator or local
        cluster, or the breakers' ``on_transition`` hook that fed it."""
        import importlib.util
        import inspect

        from repro.cluster import Coordinator, LocalCluster
        from repro.cluster.breaker import BreakerBoard, CircuitBreaker
        from repro.service import QueryService

        assert importlib.util.find_spec("repro.obs.flight") is None
        for cls in (QueryService, Coordinator, LocalCluster):
            params = inspect.signature(cls.__init__).parameters
            assert not {"flight", "flight_dir"} & set(params), cls
            assert not hasattr(cls, "flight"), cls
        for cls in (CircuitBreaker, BreakerBoard):
            params = inspect.signature(cls.__init__).parameters
            assert "on_transition" not in params, cls
        # nor is one assigned or read anywhere in the package
        package = ROOT / "src" / "repro"
        members = {
            (path.relative_to(package).as_posix(), node.attr)
            for path in package.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and node.attr in {"flight", "flight_dir", "_on_transition"}
        }
        assert members == set()

    def test_a_job_is_pending_exactly_while_it_is_queued(self):
        """The queue's list is the pending state: no tombstones, no
        ``taken`` flag beside it and no compare-and-set cancel, so
        nothing in the service can disagree with it."""
        from repro.service import Job, JobHandle, JobQueue

        assert "taken" not in {f.name for f in dataclasses.fields(Job)}
        assert not hasattr(JobHandle, "_finish_if")
        assert not hasattr(JobQueue, "__len__")
        package = ROOT / "src" / "repro" / "service"
        gone = {"_heap", "taken", "_finish_if", "_take_starving", "expect"}
        named = {
            (path.name, name)
            for path in package.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            for name in (
                [node.attr] if isinstance(node, ast.Attribute)
                else [node.id] if isinstance(node, ast.Name)
                else [node.arg] if isinstance(node, (ast.arg, ast.keyword))
                else []
            )
            if name in gone
        }
        assert named == set()

    def test_faults_fire_only_in_run_job_and_on_the_wire(self):
        """A job's faults fire in ``service/worker.py::run_job`` and the
        cluster's on the wire: no module of the accelerator model imports
        ``repro.resilience``, and only the worker builds an injector."""
        package = ROOT / "src" / "repro"
        below = ("engine", "sim", "memory", "setops", "siu", "sched",
                 "patterns", "graph")
        reaching = {
            path.relative_to(package).as_posix()
            for pkg in below
            for path in (package / pkg).rglob("*.py")
            if any(m.startswith("repro.resilience") for m in _imports(path))
        }
        assert reaching == set()
        builders = {
            path.relative_to(package).as_posix()
            for path in package.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and "FaultInjector" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            )
        }
        assert builders == {"service/worker.py"}

    def test_every_public_name_has_a_user(self):
        """Every public function, class and method under ``src/repro`` is
        used outside its own body in ``src/``, ``benchmarks/`` or
        ``examples/``, named by the CI workflow, registered by a
        decorator, or kept in ``KEPT`` with its reason.  Matching is by
        name alone, so a shared name only hides dead code; and a ``KEPT``
        entry that gains a user or disappears must leave the dict."""
        uses = _uses()
        ci = set(re.findall(
            r"\w+", (ROOT / ".github/workflows/ci.yml").read_text()
        ))
        unused = set()
        for path, key, node in _definitions():
            registered = any(
                _callee(d).startswith("register") for d in node.decorator_list
            )
            if registered or node.name in ci or any(
                where != path or not node.lineno <= line <= node.end_lineno
                for where, line in uses.get(node.name, ())
            ):
                continue
            unused.add(key)
        assert sorted(unused - KEPT.keys()) == [], "delete or keep these"
        assert sorted(KEPT.keys() - unused) == [], "stale KEPT entries"
        assert len(KEPT) <= 30
