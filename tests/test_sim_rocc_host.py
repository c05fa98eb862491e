"""RoCC interface protocol and host-model tests."""

import pytest

from repro.core import xset_default
from repro.errors import SimulationError
from repro.patterns import PATTERNS, Pattern, build_plan, count_embeddings
from repro.sim import HostModel, RoCCInstruction, RoCCInterface, run_on_soc
from repro.sim.host import HOST_CYCLES_PER_COMPARISON, HOST_ROCC_ISSUE_CYCLES


class TestRoCCProtocol:
    def test_full_flow(self, medium_er):
        rocc = RoCCInterface(xset_default())
        plan = build_plan(PATTERNS["3CF"])
        rocc.config_graph(medium_er)
        rocc.config_tasklist(plan)
        rocc.run()
        report = rocc.poll()
        assert report.embeddings == count_embeddings(medium_er, plan
                                                     ).embeddings

    def test_instruction_trace(self, medium_er):
        rocc = RoCCInterface(xset_default())
        rocc.config_graph(medium_er)
        rocc.config_tasklist(build_plan(PATTERNS["3CF"]))
        rocc.run()
        rocc.poll()
        kinds = [e.instruction for e in rocc.trace]
        assert kinds == [
            RoCCInstruction.XSET_CONFIG_GRAPH,
            RoCCInstruction.XSET_CONFIG_TASKLIST,
            RoCCInstruction.XSET_RUN,
            RoCCInstruction.XSET_POLL,
        ]

    def test_run_before_config_rejected(self):
        rocc = RoCCInterface(xset_default())
        with pytest.raises(SimulationError):
            rocc.run()

    def test_tasklist_before_graph_rejected(self):
        rocc = RoCCInterface(xset_default())
        with pytest.raises(SimulationError):
            rocc.config_tasklist(build_plan(PATTERNS["3CF"]))

    def test_poll_before_run_rejected(self, medium_er):
        rocc = RoCCInterface(xset_default())
        rocc.config_graph(medium_er)
        rocc.config_tasklist(build_plan(PATTERNS["3CF"]))
        with pytest.raises(SimulationError):
            rocc.poll()

    def test_max_vertex_limits_roots(self, medium_er):
        rocc = RoCCInterface(xset_default())
        plan = build_plan(PATTERNS["3CF"])
        rocc.config_graph(medium_er)
        rocc.config_tasklist(plan)
        rocc.run(max_vertex=10)
        partial = rocc.poll()
        rocc.run()
        full = rocc.poll()
        assert partial.embeddings <= full.embeddings


class TestHostModel:
    def test_deep_pattern_falls_back_to_host(self, medium_er):
        """A 5-clique with max_hw_levels=2 forces a software prefix."""
        plan = build_plan(PATTERNS["5CF"])
        deep_cfg = xset_default(max_hw_levels=2, name="shallow-hw")
        full_cfg = xset_default()
        want = count_embeddings(medium_er, plan).embeddings
        split = run_on_soc(medium_er, plan, deep_cfg)
        whole = run_on_soc(medium_er, plan, full_cfg)
        assert split.embeddings == want
        assert whole.embeddings == want
        assert split.host_cycles > whole.host_cycles

    def test_host_cycles_include_rocc_issue(self, medium_er):
        report = run_on_soc(
            medium_er, build_plan(PATTERNS["3CF"]), xset_default()
        )
        assert report.host_cycles > 0

    def test_host_model_object(self, medium_er):
        host = HostModel(xset_default())
        report = host.run(medium_er, build_plan(PATTERNS["3CF"]))
        assert report.embeddings == count_embeddings(
            medium_er, build_plan(PATTERNS["3CF"])
        ).embeddings

    @pytest.mark.parametrize(
        "pattern",
        [
            PATTERNS["DIA"],
            # three wings on one spine: levels 3 and 4 both re-read level
            # 2's set, so a reuse_from level lands in the host prefix
            Pattern.from_edges(
                "FAN3",
                [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)],
            ),
        ],
        ids=["DIA", "FAN3"],
    )
    def test_prefix_charges_the_plans_set_ops(self, pattern, small_er):
        """With one hardware level left, and that level a ``reuse_from``
        (``num_set_ops`` 0), every set operation of the plan is the host's:
        it charges the reference executor's merge comparisons, no more."""
        plan = build_plan(pattern, collection="enumerate")
        per_level = [lv.num_set_ops for lv in plan.levels]
        assert per_level[2] == 1 and not any(per_level[3:])
        oracle = count_embeddings(small_er, plan)
        report = run_on_soc(small_er, plan, xset_default(max_hw_levels=1))
        assert report.embeddings == oracle.embeddings
        assert report.host_cycles == (
            3 * HOST_ROCC_ISSUE_CYCLES
            + HOST_CYCLES_PER_COMPARISON * oracle.merge_comparisons
        )
