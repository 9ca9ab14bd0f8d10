"""Simulation statistics — the raw data behind Fig. 11 and Table 1.

The kernel counts processed events (every queue pop: process resumes,
non-blocking updates, continuous-assign evaluations) and, when
``SimOptions.trace_stats`` is on, snapshots a cumulative
(sim-time, events, CPU-seconds) series on every simulation-time
advance.  ``benchmarks/bench_fig11.py`` prints these series for runs
with and without event accumulation, reproducing both panels of
Fig. 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class TimePoint:
    """Cumulative counters sampled when simulation time advances."""

    sim_time: int
    events: int
    cpu_seconds: float


@dataclass
class SimStats:
    """Aggregate counters for one simulation run."""

    events_processed: int = 0
    events_scheduled: int = 0
    events_merged: int = 0
    process_events: int = 0
    nba_events: int = 0
    assign_events: int = 0
    instructions: int = 0
    symbols_injected: int = 0
    timeline: List[TimePoint] = field(default_factory=list)
    #: BDD manager cache/arena counters — populated by the kernel at
    #: the end of every ``run()`` from ``BddManager.cache_stats()``
    #: (the paper's memory story: node growth and cache behaviour).
    bdd: Dict[str, float] = field(default_factory=dict)

    def snapshot(self, sim_time: int, cpu_seconds: float) -> None:
        self.timeline.append(
            TimePoint(sim_time=sim_time, events=self.events_processed,
                      cpu_seconds=cpu_seconds)
        )

    def summary(self) -> str:
        text = (
            f"events processed={self.events_processed} "
            f"(proc={self.process_events}, nba={self.nba_events}, "
            f"assign={self.assign_events}), scheduled={self.events_scheduled}, "
            f"merged={self.events_merged}, "
            f"instructions={self.instructions}, "
            f"symbols={self.symbols_injected}"
        )
        if self.bdd:
            ite_total = self.bdd["ite_hits"] + self.bdd["ite_misses"]
            not_total = self.bdd["not_hits"] + self.bdd["not_misses"]

            def pct(hits: float, total: float) -> str:
                return f"{100.0 * hits / total:.1f}%" if total else "n/a"

            text += (
                f"; bdd: kernel={self.bdd.get('kernel', '?')}, "
                f"nodes={int(self.bdd['nodes'])} "
                f"(peak {int(self.bdd['peak_nodes'])}), "
                f"vars={int(self.bdd['var_count'])}, "
                f"ite-cache {pct(self.bdd['ite_hits'], ite_total)} hit, "
                f"not-cache {pct(self.bdd['not_hits'], not_total)} hit"
            )
        return text
