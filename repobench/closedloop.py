"""The ``symbolic`` and ``conventional`` workloads.

Both are in-process closed loops: one cell after another, each pass
over the same fixed cells.  Set-up (parse → elaborate → compile →
kernel construction with its codegen) is timed apart from the runs.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Dict, List, Optional

from repobench import counters, inputs, oracle, spans
from repobench.inputs import Cell
from repobench.stats import percentile

#: Rounds of set-up samples taken before each cell's run; a round
#: sets up every cell once, timing each cell apart (about a tenth of a
#: second per round).  ``setup_s`` is the sum over cells of each
#: cell's fastest sample.  The host's speed changes within seconds, so
#: the fastest of many samples spread over the whole run repeats from
#: run to run where a median follows the share of slow moments.
SETUP_ROUNDS = 2

#: Set-up and run times are CPU seconds of this (single-threaded)
#: process: on a shared virtual machine they leave out the time the
#: hypervisor gives the CPU to someone else, which wall time does not.
_cpu = time.process_time


def _setup(requests, rec) -> List[object]:
    """Build one ready kernel per cell through the public pipeline."""
    from repro.compile import compile_design
    from repro.compile.codegen import compiled_tables
    from repro.frontend import elaborate, parse_source
    from repro.sim import Kernel

    kernels = []
    for request in requests:
        with rec.span("parse_source", "frontend"):
            modules = parse_source(
                request.source,
                defines=dict(request.defines) if request.defines else None)
        with rec.span("elaborate", "frontend"):
            design = elaborate(modules, top=request.top)
        with rec.span("compile_design", "compile"):
            program = compile_design(design)
        # Kernel construction plus the codegen its first run() would
        # otherwise do, so run() times simulation only.
        with rec.span("codegen", "compile"):
            options = request.options
            kernel = Kernel(program, options=options)
            if options.compile_tier:
                compiled_tables(program, options.accumulation,
                                specialize=not options.no_fastpath)
        kernels.append(kernel)
    return kernels


def _setup_round(requests, samples: List[List[float]]) -> None:
    """Set up every cell once; append each cell's CPU time to its
    list in ``samples``."""
    for request, cell_samples in zip(requests, samples):
        gc.collect()
        started = _cpu()
        kernels = _setup([request], spans.NullRecorder())
        cell_samples.append(_cpu() - started)
        del kernels


def _run_pass(cells, requests, rec, expected, setup=None) -> dict:
    """Set up and run every cell ``cell.repeat`` times; returns the
    pass record, with one time per run in ``cell_s``.  With ``setup``
    (the distinct cells' requests and one sample list per cell),
    set-up rounds are taken before each of the first round's runs."""
    from repro import resimulate

    with rec.span("pass", "harness") as root:
        kernels = _setup(requests, rec)
        gc.collect()
        cell_s: List[float] = []
        wall_s = 0.0
        failed = 0
        counts: Dict[str, float] = {}
        build_s = 0.0
        gcd_none = None

        def add(key, value):
            counters.add(counts, key, value)

        for index, (cell, request) in enumerate(zip(cells, requests)):
            if setup is not None and index < len(setup[1]):
                for _ in range(SETUP_ROUNDS):
                    _setup_round(*setup)
                gc.collect()
            kernel = kernels[index]
            kernels[index] = None
            started, wall = _cpu(), time.perf_counter()
            with rec.span("run", "sim", rid=cell.key):
                result = kernel.run(until=request.until)
            elapsed = _cpu() - started
            resim = None
            if cell.resim:
                started = _cpu()
                with rec.span("resimulate", "sim", rid=cell.key):
                    replay = resimulate(kernel.program,
                                        result.violations[0].trace,
                                        until=request.until,
                                        expect_violation=False)
                elapsed += _cpu() - started
                resim = replay.status.value
                del replay
            cell_s.append(elapsed)
            wall_s += time.perf_counter() - wall
            got = oracle.outcome(result.to_dict())
            if not oracle.matches(expected.get(cell.key), got, resim):
                failed += 1
            metrics = result.metrics()
            for key in ("events_processed", "events_merged", "instructions"):
                add(key, metrics[key])
            mgr = kernel.mgr
            add("word_ops", mgr.fastpath_word_ops)
            add("symbolic_ops", mgr.fastpath_symbolic_ops)
            for kind in counters.HIT_KINDS:
                add(f"{kind}_hits", getattr(mgr, f"{kind}_cache_hits"))
                add(f"{kind}_misses", getattr(mgr, f"{kind}_cache_misses"))
            add("nodes_created", mgr.total_nodes)
            counts["peak_nodes"] = max(counts.get("peak_nodes", 0),
                                       mgr.peak_nodes)
            tier = kernel.compile_tier_stats()
            if tier is not None:
                add("tier_hits", tier["tier_hits"])
                add("tier_misses", tier["tier_misses"])
                add("fused_instructions", tier["fused_instructions"])
                build_s += tier["build_seconds"]
            if cell.key == "symbolic/gcd-none":
                gcd_none = (elapsed, metrics["events_processed"])
            del result, kernel, mgr
            gc.collect()
    return {"run_s": sum(cell_s), "cell_s": cell_s, "wall_s": wall_s,
            "failed": failed, "counts": counts,
            "build_s": build_s, "gcd_none": gcd_none, "root": root}


#: Passes an untraced run makes at least, so that each cell's time is
#: the fastest of several runs and every run rests on as many.
MIN_PASSES = {"symbolic": 2, "conventional": 3}


def _passes(cells, requests, rec, expected, budget: float,
            setup=None, least: int = 1) -> List[dict]:
    """At least ``least`` passes; another only while it is expected to
    end within ``budget`` seconds."""
    out = []
    started = time.perf_counter()
    while True:
        out.append(_run_pass(cells, requests, rec, expected, setup))
        spent = time.perf_counter() - started
        if len(out) >= least and spent + spent / len(out) > budget:
            return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        trace_path: Optional[str] = None) -> dict:
    distinct = (inputs.SYMBOLIC if workload == "symbolic"
                else inputs.conventional_cells(seed))
    # A short cell's repeats are spread through the pass (the first
    # round runs every cell, each later round only the cells that
    # repeat), so that its runs meet different host moments.
    cells = [cell for rnd in range(max(c.repeat for c in distinct))
             for cell in distinct if cell.repeat > rnd]
    requests = [cell.request() for cell in cells]
    expected = oracle.load()

    # Warm-up: first-use imports and caches are not set-up cost.
    setup_requests = [cell.request() for cell in distinct]
    _setup_round(setup_requests, [[] for _ in distinct])
    setup: List[List[float]] = [[] for _ in distinct]
    null = spans.NullRecorder()
    if not trace:
        passes = _passes(cells, requests, null, expected, seconds,
                         (setup_requests, setup), least=MIN_PASSES[workload])
        traced = []
    else:
        passes = _passes(cells, requests, null, expected, seconds / 2)
        rec = spans.Recorder()
        undo = spans.wrap_bdd(rec.fold_bdd)
        try:
            traced = _passes(cells, requests, rec, expected, seconds / 2)
        finally:
            undo()
    everything = passes + traced
    attempted = len(cells) * len(everything)
    failed = sum(p["failed"] for p in everything)
    # Simulated statistics must not depend on tracing or repetition.
    deterministic = all(p["counts"] == everything[0]["counts"]
                        for p in everything)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"attempted": attempted, "failed": failed,
           "correct": failed == 0 and deterministic}
    if not trace:
        # Like setup_s, each cell's time to result is its fastest over
        # its runs in every pass (two passes on symbolic, three on
        # conventional).  run_s is their sum; the latency percentiles
        # are taken over the fixed set of cells.
        best: Dict[Cell, float] = {}
        for p in passes:
            for cell, elapsed in zip(cells, p["cell_s"]):
                best[cell] = min(best.get(cell, elapsed), elapsed)
        cell_best = [best[cell] for cell in distinct]
        out["metrics"] = {
            "setup_s": (sum(min(samples) for samples in setup), "s"),
            "run_s": (sum(cell_best), "s"),
            "latency_p50_ms": (1e3 * percentile(cell_best, 50, fixed=True),
                               "ms"),
            "latency_p90_ms": (1e3 * percentile(cell_best, 90, fixed=True),
                               "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_share": ((attempted - failed) / attempted, "share"),
        }
        out["notes"] = [
            "fastest time per cell: " + ", ".join(
                f"{cell.key}={best[cell]:.4f}" for cell in distinct),
            f"setup samples per cell={len(setup[0])} median round="
            f"{statistics.median(map(sum, zip(*setup))):.4f} "
            f"passes={len(passes)} wall run_s="
            f"{statistics.median(p['wall_s'] for p in passes):.4f}"]
        return out
    out["metrics"], out["coverage"] = _layer_metrics(rec, passes, traced,
                                                     workload)
    if trace_path:
        rec.write_chrome(trace_path)
    return out


def _layer_metrics(rec, passes, traced, workload) -> tuple:
    """(per-layer metrics, coverage of the traced pass)."""
    first = traced[0]
    within = rec.within(first["root"])
    layers = spans.Recorder.layer_self_times(within)
    bdd = spans.Recorder.bdd_totals(within)
    counts = first["counts"]
    run_spans = spans.Recorder.total(within, "run")
    metrics = {
        "frontend.parse_s": (spans.Recorder.total(within, "parse_source"),
                             "s"),
        "frontend.elaborate_s": (spans.Recorder.total(within, "elaborate"),
                                 "s"),
        "compile.compile_s": (spans.Recorder.total(within, "compile_design"),
                              "s"),
        "compile.codegen_s": (spans.Recorder.total(within, "codegen"), "s"),
        "compile.build_s": (first["build_s"], "s"),
        "compile.tier_hit_ratio": (
            counters.ratio(counts.get("tier_hits", 0),
                           counts.get("tier_misses", 0)), "share"),
        "compile.fused_instructions": (counts.get("fused_instructions", 0),
                                       "count"),
        "sim.self_s": (layers["sim"], "s"),
        "sim.host_us_per_event": (
            1e6 * run_spans / max(counts["events_processed"], 1), "us"),
        "bdd.self_s": (layers["bdd"], "s"),
        "bdd.nodes_created": (counts["nodes_created"], "count"),
    }
    metrics.update(counters.layer_metrics(counts))
    for kind in spans.BDD_KINDS:
        seconds, calls = bdd[kind]
        metrics[f"bdd.{kind}_s"] = (seconds, "s")
        metrics[f"bdd.{kind}_calls"] = (calls, "count")
    if workload == "symbolic":
        metrics["sim.resim_s"] = (spans.Recorder.total(within, "resimulate"),
                                  "s")
        gcd_s, gcd_events = first["gcd_none"]
        metrics["sim.gcd_none_us_per_event"] = (1e6 * gcd_s / gcd_events,
                                                "us")
    # Share of the traced pass covered by layer self times (checked by
    # the tests, not a metric: it says whether the spans can be trusted).
    coverage = sum(v for k, v in layers.items() if k != "harness") \
        / first["root"].duration
    untraced = statistics.median(p["run_s"] for p in passes)
    metrics["trace.overhead_share"] = (
        statistics.median(p["run_s"] for p in traced) / untraced - 1.0,
        "share")
    return metrics, coverage
