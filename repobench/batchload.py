"""The ``batch`` workload: about a hundred short runs through
``run_batch`` with two workers, all submitted at once to one waiting
caller, so the queue stays saturated and the controller's dispatch,
reap and journal work plus the worker IPC set throughput.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from typing import Dict, List, Optional

from repobench import counters, inputs, oracle, spans
from repobench.stats import percentile

WORKERS = 2
PIPELINE = ("parse_source", "elaborate", "compile_design")


def _one_pass(requests, cells, rec, expected, pass_dir) -> dict:
    from repro.batch import run_batch

    shutil.rmtree(pass_dir, ignore_errors=True)
    done_at: Dict[str, float] = {}
    first_span = len(rec.spans)
    gc.collect()
    started = time.perf_counter()
    with rec.span("run_batch", "batch") as root:
        result = run_batch(
            requests, workers=WORKERS, out_dir=pass_dir,
            on_result=lambda o: done_at.__setitem__(o.name,
                                                    time.perf_counter()))
    wall = time.perf_counter() - started
    new = rec.spans[first_span:]
    failed = 0
    for outcome in result.outcomes:
        got = oracle.outcome(outcome.result) if outcome.result else None
        if got is None or not oracle.matches(
                expected.get(cells[outcome.name].key), got):
            failed += 1
    busy = [o.wall_seconds for o in result.outcomes]
    shutil.rmtree(pass_dir, ignore_errors=True)
    return {
        "counts": counters.from_payloads(o.result for o in result.outcomes
                                         if o.result),
        "wall": wall,
        "setup": [s.duration for s in new if s.name in PIPELINE],
        "latencies": [done_at[o.name] - started for o in result.outcomes],
        "failed": failed,
        "busy": sum(busy),
        "critical": max(busy),
        "retries": result.retries,
        "root": root,
    }


def _passes(requests, cells, rec, expected, out_dir, budget) -> List[dict]:
    out = []
    started = time.perf_counter()
    while True:
        pass_dir = os.path.join(out_dir, f"batch-pass-{os.getpid()}")
        out.append(_one_pass(requests, cells, rec, expected, pass_dir))
        spent = time.perf_counter() - started
        if spent + spent / len(out) > budget:
            return out


def run(seed: int, seconds: float, trace: bool, out_dir: str,
        trace_path: Optional[str]) -> dict:
    runs = inputs.batch_cells(seed)
    cells = dict(runs)
    requests = [cell.request(name=name) for name, cell in runs]
    expected = oracle.load()

    # The pipeline wrappers stay on in untraced runs too: set-up is
    # the front end plus compile inside run_batch, and only a span
    # around those calls can see it (a few calls per pass).
    rec = spans.Recorder()
    undo = spans.wrap_pipeline(rec)
    try:
        _passes(requests, cells, rec, expected, out_dir, 0)  # warm-up
        rec.spans.clear()
        if not trace:
            passes = _passes(requests, cells, rec, expected, out_dir,
                             seconds)
            traced = []
        else:
            passes = _passes(requests, cells, rec, expected, out_dir,
                             seconds / 2)
            mark = len(rec.spans)
            traced = _passes(requests, cells, rec, expected, out_dir,
                             seconds / 2)
            del rec.spans[:mark]
    finally:
        undo()
    everything = passes + traced
    attempted = len(requests) * len(everything)
    failed = sum(p["failed"] for p in everything)
    # Simulated statistics must not depend on tracing or repetition.
    deterministic = all(p["counts"] == everything[0]["counts"]
                        for p in everything)
    out = {"attempted": attempted, "failed": failed,
           "correct": failed == 0 and deterministic}
    # Workers are reaped children; the largest one's peak RSS.
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if not trace:
        # Both CPUs are busy through a pass, so a pass feels every slow
        # moment of the host and the fastest pass is an outlier of its
        # own: run_s is the median pass, and the latency percentiles
        # pool the runs of every pass.  Each pass makes the same
        # pipeline calls in the same order; setup_s sums each call's
        # fastest time over the passes.
        latencies = [t for p in passes for t in p["latencies"]]
        out["metrics"] = {
            "setup_s": (sum(min(calls) for calls in
                            zip(*(p["setup"] for p in passes))), "s"),
            "run_s": (statistics.median(p["wall"] for p in passes), "s"),
            "latency_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
            "latency_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_share": ((attempted - failed) / attempted, "share"),
        }
        out["notes"] = [f"passes={len(passes)}, latency samples="
                        f"{len(latencies)} (p50 and p90 over all of them)"]
        return out

    first = traced[0]
    within = rec.within(first["root"])
    wall = first["wall"]
    untraced = statistics.median(p["wall"] for p in passes)
    out["metrics"] = {
        "frontend.parse_s": (spans.Recorder.total(within, "parse_source"),
                             "s"),
        "frontend.elaborate_s": (spans.Recorder.total(within, "elaborate"),
                                 "s"),
        "compile.compile_s": (spans.Recorder.total(within, "compile_design"),
                              "s"),
        "batch.worker_busy_s": (first["busy"], "s"),
        "batch.critical_path_s": (first["critical"], "s"),
        "batch.critical_path_share": (first["critical"] / wall, "share"),
        "batch.pool_utilization": (first["busy"] / (WORKERS * wall),
                                   "share"),
        "batch.idle_slot_s": (WORKERS * wall - first["busy"], "s"),
        "batch.retries": (first["retries"], "count"),
        "sim.host_us_per_event": (
            1e6 * first["busy"] / first["counts"]["events_processed"], "us"),
        "trace.overhead_share": (
            statistics.median(p["wall"] for p in traced) / untraced - 1.0,
            "share"),
    }
    out["metrics"].update(counters.layer_metrics(first["counts"]))
    if trace_path:
        rec.write_chrome(trace_path)
    return out
