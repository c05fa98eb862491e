"""Error hierarchy and public-API surface tests."""

from pathlib import Path

import pytest

from repro import errors


class TestErrorHierarchy:
    def test_all_derive_from_base(self):
        for name in (
            "GraphFormatError",
            "PatternError",
            "PlanError",
            "ConfigError",
            "SimulationError",
            "SchedulerError",
            "MemoryModelError",
            "ServiceError",
            "LoadShedError",
            "QueueFullError",
            "JobTimeoutError",
            "JobCancelledError",
            "WorkerCrashError",
            "ClusterError",
            "CommError",
            "CommClosedError",
            "CommTimeoutError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.XSetError)

    def test_plan_error_is_pattern_error(self):
        assert issubclass(errors.PlanError, errors.PatternError)

    def test_scheduler_and_memory_are_simulation_errors(self):
        assert issubclass(errors.SchedulerError, errors.SimulationError)
        assert issubclass(errors.MemoryModelError, errors.SimulationError)

    def test_service_errors_are_service_errors(self):
        for name in ("QueueFullError", "JobTimeoutError",
                     "JobCancelledError", "WorkerCrashError",
                     "LoadShedError"):
            assert issubclass(getattr(errors, name), errors.ServiceError)

    def test_cluster_errors_nest_under_service_error(self):
        assert issubclass(errors.ClusterError, errors.ServiceError)
        for name in ("CommError", "CommClosedError", "CommTimeoutError"):
            assert issubclass(getattr(errors, name), errors.ClusterError)

    def test_one_except_clause_catches_everything(self):
        with pytest.raises(errors.XSetError):
            raise errors.SchedulerError("boom")


class TestPackageSurface:
    def test_all_subpackages_import(self):
        import repro.analysis
        import repro.baselines
        import repro.cli
        import repro.cluster
        import repro.core
        import repro.graph
        import repro.hw
        import repro.memory
        import repro.patterns
        import repro.sched
        import repro.service
        import repro.setops
        import repro.sim
        import repro.siu  # noqa: F401

    def test_dunder_all_resolves(self):
        """Every name exported in __all__ must actually exist."""
        import repro.analysis
        import repro.baselines
        import repro.cluster
        import repro.core
        import repro.graph
        import repro.hw
        import repro.memory
        import repro.patterns
        import repro.sched
        import repro.service
        import repro.setops
        import repro.sim
        import repro.siu

        for module in (
            repro.analysis, repro.baselines, repro.cluster, repro.core,
            repro.graph, repro.hw, repro.memory, repro.patterns,
            repro.sched, repro.service, repro.setops, repro.sim,
            repro.siu,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_version(self):
        import repro

        assert repro.__version__ == "1.5.0"

    def test_packaged_version_is_the_module_version(self):
        import repro

        tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11
        pyproject = Path(__file__).parent.parent / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert project["version"] == repro.__version__

    def test_public_docstrings(self):
        """Every public class/function in the core API carries a docstring."""
        import inspect

        import repro.core as core

        for name in core.__all__:
            obj = getattr(core, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, name
