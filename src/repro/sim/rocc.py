"""RoCC co-processor interface model (paper §4.2, Figure 7).

X-SET integrates into a Rocket-based SoC through the RoCC instruction
extension; the host CPU configures the PE, launches execution and polls for
results.  This module models that contract: a :class:`RoCCInterface` accepts
the custom instructions in order, validates the protocol (you cannot run
before configuring, poll before running, ...), records an instruction trace
and drives the accelerator simulator underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto

from ..core.config import SystemConfig
from ..engine.functional import root_tasks
from ..errors import SimulationError
from ..graph.csr import CSRGraph
from ..patterns.plan import MatchingPlan
from .accelerator import AcceleratorSim
from .report import SimReport

__all__ = ["RoCCInstruction", "RoCCInterface"]


class RoCCInstruction(Enum):
    """The xset_* custom instruction set of Figure 7a."""

    XSET_CONFIG_GRAPH = auto()     # ③ configure data-graph base/CSR layout
    XSET_CONFIG_TASKLIST = auto()  # ③ load the compiled task list
    XSET_RUN = auto()              # ④ start; operand = maximum root vertex
    XSET_POLL = auto()             # ⑤ retrieve result / completion flag


@dataclass
class _TraceEntry:
    instruction: RoCCInstruction
    operand: int


class RoCCInterface:
    """Instruction-level wrapper over the accelerator simulator."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.trace: list[_TraceEntry] = []
        self._graph: CSRGraph | None = None
        self._plan: MatchingPlan | None = None
        self._report: SimReport | None = None

    def _log(self, instr: RoCCInstruction, operand: int = 0) -> None:
        self.trace.append(_TraceEntry(instr, operand))

    def config_graph(self, graph: CSRGraph) -> None:
        """``xset_config`` for the data graph (stage ③)."""
        self._log(RoCCInstruction.XSET_CONFIG_GRAPH, graph.base_address)
        self._graph = graph
        self._report = None

    def config_tasklist(self, plan: MatchingPlan) -> None:
        """``xset_config`` for the compiled task list (stage ③)."""
        if self._graph is None:
            raise SimulationError("configure the graph before the task list")
        self._log(RoCCInstruction.XSET_CONFIG_TASKLIST, plan.depth)
        self._plan = plan
        self._report = None

    def run(self, max_vertex: int | None = None, start_tasks=None) -> None:
        """``xset_run`` (stage ④): launch GPM over roots ≤ ``max_vertex``."""
        if self._graph is None or self._plan is None:
            raise SimulationError("xset_run before configuration")
        self._log(
            RoCCInstruction.XSET_RUN,
            max_vertex if max_vertex is not None else self._graph.num_vertices,
        )
        graph = self._graph
        if max_vertex is not None and start_tasks is None:
            start_tasks = root_tasks(
                graph, self._plan, range(min(max_vertex, graph.num_vertices))
            )
        sim = AcceleratorSim(graph, self._plan, self.config)
        self._report = sim.run(start_tasks)

    def poll(self) -> SimReport:
        """``xset_poll`` (stage ⑤): retrieve the completed run's report."""
        self._log(RoCCInstruction.XSET_POLL)
        if self._report is None:
            raise SimulationError("xset_poll before xset_run completed")
        return self._report
