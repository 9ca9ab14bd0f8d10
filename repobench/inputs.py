"""Every input the four workloads can draw, as data.

The workload seed chooses among these inputs (concrete ``$random``
seeds, submission order, arrival times) but never changes how much
work a pass does, so two seed sets measure the same work.  The oracle
(:mod:`repobench.oracle`) holds the expected outcome of each one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api import REQUEST_SCHEMA


@dataclass(frozen=True)
class Cell:
    """One simulation: a builtin design, its size, bound and mode."""

    #: Oracle key (unique across all workloads).
    key: str
    design: str
    params: Tuple[Tuple[str, object], ...]
    until: Optional[int]
    mode: str = "full"
    #: Concrete ``$random`` seed; None runs symbolically.
    seed: Optional[int] = None
    #: Concretely resimulate the first error trace after the run.
    resim: bool = False
    #: Runs of this cell in each closed-loop pass: short cells repeat,
    #: so that their fastest time rests on several samples.
    repeat: int = 1

    def spec(self) -> dict:
        """The ``repro.serve.request/1`` body for this cell."""
        spec = {"schema": REQUEST_SCHEMA, "design": self.design,
                "params": dict(self.params)}
        if self.until is not None:
            spec["until"] = self.until
        options = {}
        if self.mode != "full":
            options["accumulation"] = self.mode
        if self.seed is not None:
            options["seed"] = self.seed
        if options:
            spec["options"] = options
        return spec

    def request(self, name: Optional[str] = None):
        """The cell as a :class:`repro.RunRequest` (parsed through the
        same schema the serve front door uses)."""
        from repro.api import parse_run

        return parse_run(self.spec(), base_dir=None, name=name or self.key)


def _p(**params) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(params.items()))


# ---------------------------------------------------------------------
# symbolic: Table 1 FULL cells, gcd in MERGE and NONE, the mcu8 hunt
# ---------------------------------------------------------------------

#: The Table 1 designs below ``benchmarks/bench_table1.py`` sizes (dram
#: 2 bursts, risc8 runtime 180, gcd width 5 take about 14 CPU s between
#: them), so that a run fits two passes and each cell's time is the
#: fastest of two or more; the mcu8 cell is the Section 7 hunt of
#: ``benchmarks/bench_bughunt.py`` followed by resimulation, which
#: finds the bug at the same point (about 6 CPU s) whatever the
#: runtime.
SYMBOLIC: Tuple[Cell, ...] = (
    Cell("symbolic/dram-full", "dram", _p(bursts=1), 3000, repeat=8),
    Cell("symbolic/risc8-full", "risc8", _p(runtime=90), 200, repeat=2),
    Cell("symbolic/gcd-full", "gcd", _p(rounds=1, width=4), 5000,
         repeat=4),
    Cell("symbolic/gcd-merge", "gcd", _p(rounds=1, width=4), 5000,
         mode="queue_merge_only", repeat=3),
    Cell("symbolic/gcd-none", "gcd", _p(rounds=1, width=4), 5000,
         mode="none"),
    Cell("symbolic/mcu8-hunt", "mcu8", _p(runtime=100), 200, resim=True),
)


# ---------------------------------------------------------------------
# conventional: the same designs plus mcu8, concrete $random
# ---------------------------------------------------------------------

#: (design, params, until) sized to about two host seconds per cell.
#: mcu8 is the repaired edition: a concrete seed can hit the planted
#: bug and stop the run early, which would make the work depend on the
#: seed.
CONVENTIONAL_DESIGNS = (
    ("dram", _p(bursts=1600), None),
    ("risc8", _p(runtime=50000), 100000),
    ("gcd", _p(rounds=1200, width=8), None),
    ("mcu8", _p(runtime=60000, fixed=True), 120000),
)

#: Concrete seed pool; the workload seed picks one per design.
CONVENTIONAL_SEEDS = (3, 17, 29, 41, 59, 71, 83, 97)


def conventional_cells(seed: int) -> Tuple[Cell, ...]:
    rng = random.Random(seed)
    return tuple(
        Cell(f"conventional/{design}/{pick}", design, params, until,
             seed=pick)
        for design, params, until in CONVENTIONAL_DESIGNS
        for pick in (rng.choice(CONVENTIONAL_SEEDS),)
    )


def all_conventional() -> List[Cell]:
    return [Cell(f"conventional/{design}/{pick}", design, params, until,
                 seed=pick)
            for design, params, until in CONVENTIONAL_DESIGNS
            for pick in CONVENTIONAL_SEEDS]


# ---------------------------------------------------------------------
# batch: about a hundred short runs, four kinds
# ---------------------------------------------------------------------

BATCH_FIXED: Tuple[Cell, ...] = (
    Cell("batch/gcd-w3", "gcd", _p(rounds=1, width=3), None),
    Cell("batch/arbiter", "arbiter", _p(runtime=30), None),
    Cell("batch/alu4-bug", "alu4", _p(runtime=60), 80),
)
BATCH_RISC8 = ("risc8", _p(runtime=400), 800)
BATCH_RISC8_SEEDS = tuple(range(1, 65))
#: Runs of each kind per batch (four kinds).
BATCH_PER_KIND = 25


def _batch_risc8(pick: int) -> Cell:
    design, params, until = BATCH_RISC8
    return Cell(f"batch/risc8/{pick}", design, params, until, seed=pick)


def batch_cells(seed: int) -> List[Tuple[str, Cell]]:
    """(run name, cell) in submission order.  The four kinds are
    interleaved in the same order for every seed, since the order sets
    when each run completes; the seed picks the risc8 ``$random``
    seeds."""
    rng = random.Random(seed)
    runs = []
    for i, pick in enumerate(rng.sample(BATCH_RISC8_SEEDS, BATCH_PER_KIND)):
        for cell in BATCH_FIXED:
            runs.append((f"{cell.key.split('/', 1)[1]}-{i:02d}", cell))
        runs.append((f"risc8-{i:02d}", _batch_risc8(pick)))
    return runs


def all_batch() -> List[Cell]:
    return list(BATCH_FIXED) + [_batch_risc8(p) for p in BATCH_RISC8_SEEDS]


# ---------------------------------------------------------------------
# serve: small conventional runs made distinct by their seed
# ---------------------------------------------------------------------

SERVE_DESIGNS = (
    ("risc8", _p(runtime=60), 120),
    ("gcd", _p(rounds=2, width=6), None),
    ("dram", _p(bursts=1), None),
)
#: Seed 0 is the warm-up run of each design; 1..N are cold requests.
SERVE_SEEDS_PER_DESIGN = 700


def serve_cell(design_index: int, pick: int) -> Cell:
    design, params, until = SERVE_DESIGNS[design_index]
    return Cell(f"serve/{design}/{pick}", design, params, until, seed=pick)


def serve_warmups() -> List[Cell]:
    return [serve_cell(i, 0) for i in range(len(SERVE_DESIGNS))]


def serve_pool() -> List[Cell]:
    return [serve_cell(i, pick)
            for pick in range(1, SERVE_SEEDS_PER_DESIGN + 1)
            for i in range(len(SERVE_DESIGNS))]


def all_serve() -> List[Cell]:
    return serve_warmups() + serve_pool()


def all_cells() -> Dict[str, Cell]:
    cells = (list(SYMBOLIC) + all_conventional() + all_batch()
             + all_serve())
    return {cell.key: cell for cell in cells}
