"""svc-light: closed loop of sub-millisecond kernels through the service."""

from __future__ import annotations

from time import perf_counter

from calib import CalibClock
from harness import Tally, pctl
from svc_base import ServiceWorkload

#: one calibration call per this many light queries
CALIB_EVERY = 8
#: one light write per this many groups of CALIB_EVERY queries
WRITE_EVERY = 5


class Workload(ServiceWorkload):
    name = "svc-light"
    why = (
        "closed loop of er200 queries, cache off: the kernel is ~0.3 ms of "
        "a ~1.3 ms round trip, so service/IPC/attach work shows here and "
        "kernel work barely does"
    )

    def setup(self) -> None:
        self.start()
        self.warm(self.light_queries())

    def run_block(self, seconds: float) -> dict[str, float]:
        tally, clock = Tally(), CalibClock()
        end = perf_counter() + seconds
        clock.tick()
        while perf_counter() < end:
            for _ in range(WRITE_EVERY):
                for _ in range(CALIB_EVERY):
                    self.light_query(tally)
                clock.tick()
            self.light_write(tally)
        lat = tally.all("light")
        return self.block_values(
            clock, tally, lat, tally.all("write"),
            sum(lat) + sum(tally.all("write")),
        )

    def layer_metrics(self) -> dict[str, float]:
        lat = self.tally.all("light")
        cu = self.cu
        return {
            "service.query_p99_cu": pctl(lat, 0.99) / cu,
            **self.service_counters(),
        }
