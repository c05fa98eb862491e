"""CLI tests (in-process, via the argparse entry point)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_count_defaults(self):
        args = build_parser().parse_args(["count"])
        assert args.dataset == "WV"
        assert args.system == "xset"

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["count", "--system", "tpu"])


class TestCommands:
    def test_count(self, capsys):
        rc = main(
            ["count", "--dataset", "PP", "--pattern", "3CF",
             "--scale", "0.05"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "embeddings" in out and "3CF" in out

    def test_compare(self, capsys):
        rc = main(
            ["compare", "--dataset", "PP", "--pattern", "3CF",
             "--scale", "0.05"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "flexminer" in out and "xset" in out

    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        for key in ("PP", "WV", "LJ"):
            assert key in out

    def test_config(self, capsys):
        assert main(["config"]) == 0
        assert "barrier-free" in capsys.readouterr().out

    def test_config_baseline(self, capsys):
        assert main(["config", "--system", "fingers"]) == 0
        assert "pseudo-dfs" in capsys.readouterr().out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        assert "mm^2" in capsys.readouterr().out

    def test_plan(self, capsys):
        assert main(["plan", "--pattern", "DIA"]) == 0
        out = capsys.readouterr().out
        assert "choose2" in out

    def test_count_with_overrides(self, capsys):
        rc = main(
            ["count", "--dataset", "PP", "--pattern", "3CF",
             "--scale", "0.05", "--pes", "2", "--sius", "2"]
        )
        assert rc == 0

    def test_results_command(self, capsys):
        assert main(["results"]) == 0
        out = capsys.readouterr().out
        assert "===" in out or "no results found" in out


class TestEnginesCommand:
    def test_lists_all_backends(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "event" in out and "codegen" in out
        assert "batched" not in out  # a retired name, not an engine
        assert "*" in out  # the default engine is marked

    def test_descriptions_present(self, capsys):
        main(["engines"])
        out = capsys.readouterr().out
        assert "event-driven" in out
        assert "frontier expansion" in out


class TestServeCommand:
    def test_inline_round_trip(self, capsys):
        rc = main(
            ["serve", "--mode", "inline", "--nodes", "24", "--degree", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "embeddings" in out
        assert "[cache]" in out       # the second wave hits the cache
        assert "hit rate" in out      # stats summary printed

    def test_thread_mode(self, capsys):
        # the service has two modes; thread is not one of them
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--mode", "thread", "--nodes", "20"])
        assert exc.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_engine_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--engine", "warp"])


class TestStatsCommand:
    def test_profile_and_summary_printed(self, capsys):
        rc = main(
            ["stats", "--dataset", "PP", "--pattern", "3CF",
             "--scale", "0.05"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-level work" in out
        assert "span durations" in out
        assert "1 submitted" in out

    def test_prometheus_dump(self, capsys):
        rc = main(
            ["stats", "--dataset", "PP", "--pattern", "WEDGE",
             "--scale", "0.05", "--engine", "codegen", "--prometheus"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_jobs_submitted_total counter" in out


class TestTraceCommand:
    def test_export_writes_perfetto_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        rc = main(
            ["trace", "--dataset", "PP", "--pattern", "3CF",
             "--scale", "0.05", "--export", str(path)]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        data = json.loads(path.read_text())
        cats = {e.get("cat") for e in data["traceEvents"]}
        assert "span" in cats and "pe" in cats

    def test_stdout_json_when_no_export(self, capsys):
        import json

        rc = main(
            ["trace", "--dataset", "PP", "--pattern", "WEDGE",
             "--scale", "0.05", "--engine", "codegen"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert any(
            e.get("name") == "service.job" for e in data["traceEvents"]
        )

    def test_verbose_flag_parses(self):
        args = build_parser().parse_args(["-vv", "engines"])
        assert args.verbose == 2


class TestCluster:
    def test_clean_run_matches_single_node(self, capsys):
        rc = main(["cluster", "--shards", "3", "--nodes", "80"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sharded 3 ways" in out
        assert "matches single-node" in out
        assert "PARTIAL" not in out
        assert "cluster health: healthy" in out

    def test_chaos_kill_degrades(self, capsys):
        rc = main(
            ["cluster", "--shards", "3", "--nodes", "80", "--kill", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "killed shard1" in out
        assert "PARTIAL" in out
        assert "cluster health: degraded" in out
        assert "UNREACHABLE" in out

    def test_replica_kill_fails_over(self, capsys):
        rc = main(
            ["cluster", "--shards", "2", "--nodes", "60", "--degree", "6",
             "--replicas", "2", "--kill", "0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "killed shard0/r0" in out
        assert "1 failover(s)" in out
        assert "PARTIAL" not in out

    def test_transport_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--transport", "smoke"])


class TestHealthChaos:
    def test_every_armed_fault_fires(self, capsys, monkeypatch):
        """A fault armed at a site the demo's engine never passes through
        shows up as a zero series, or none: each must have fired."""
        from repro.service import QueryService

        armed = []
        arm = QueryService.arm_faults

        def recording(self, plan):
            armed.append(plan)
            arm(self, plan)

        monkeypatch.setattr(QueryService, "arm_faults", recording)
        assert main(["health", "--chaos", "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "FAILED" not in out
        series = dict(
            line.rsplit(" ", 1) for line in out.splitlines()
            if line.startswith("repro_faults_injected_total{")
        )
        (plan,) = armed
        assert plan.specs
        for spec in plan.specs:
            name = (
                f'repro_faults_injected_total{{kind="{spec.kind.value}",'
                f'site="{spec.site}"}}'
            )
            assert float(series.get(name, 0)) > 0, name


class TestJsonFlags:
    def test_stats_json(self, capsys):
        import json

        rc = main(
            ["stats", "--json", "--dataset", "PP", "--scale", "0.05"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "inline"
        assert payload["completed"] == 1
        assert "latency" in payload

    def test_health_json(self, capsys):
        import json

        rc = main(["health", "--json", "--nodes", "30"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "healthy"
        # five clean runs leave no engine failure on record
        assert payload["engine_failures"] == {}
        assert "flight" not in payload
