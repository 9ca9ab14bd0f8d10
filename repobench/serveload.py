"""The ``serve`` workload: an open loop of HTTP submissions to an
in-process ``serve_app`` with one worker.

Three in four requests are cold, small conventional runs made distinct
by their seed; one in four repeats an earlier request and must come
back from the result cache byte-identical to its cold twin.  Arrivals
are a seeded Poisson process at a nominal rate low enough that the
pool is mostly idle, so the controller's idle tick shows in latency.
Latency runs from the moment a request was due to the moment its
result bytes were read.

After the open loop, bursts of distinct cold requests are sent all at
once, one burst at a time (a burst is not sent before the one before it
has been read back); the time from a burst's first submission until
its last result was read is the service's time for a fixed set of runs
submitted together.
"""

from __future__ import annotations

import bisect
import http.client
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from typing import List, Optional

from repro.serve import Scheduler, serve_app

from repobench import counters, inputs, oracle, spans
from repobench.stats import percentile

#: Nominal arrival rate (requests per second).
RATE = 40.0
#: Share of requests that repeat an earlier one.
REPEAT_EVERY = 4
#: A repeat's twin was due at least this long before it, so the twin
#: has normally finished and the repeat is a cache hit, not coalesced.
REPEAT_GAP_S = 1.0
#: Share of a run's time given to the bursts after the open loop.
BURST_SHARE = 0.4
#: Requests per burst (below the default tenant's ``max_pending`` of
#: 16, so none is refused) and the time between two bursts' due
#: moments (a burst drains in about a third of it).  Each gap adds a
#: share of the controller's 0.1 s idle tick, so that the bursts meet
#: the tick at phases spread evenly over it rather than all at one.
BURST_SIZE = 12
BURST_GAP_S = 0.5
TICK_S = 0.1
#: Server boots per run (before the open loop, then after it);
#: set-up is the fastest of them.
BOOTS = 9
BOOTS_BEFORE = 5
WORKERS = 1

_LOADGEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "loadgen.py")


def build_schedule(seed: int, seconds: float,
                   exclude: frozenset = frozenset()) -> List[dict]:
    """``[{"due", "cell", "twin"}]`` for ``seconds`` of arrivals; cold
    requests never reuse a cell in ``exclude``."""
    rng = random.Random(f"{seed}/{len(exclude)}")
    count = int(RATE * seconds) // REPEAT_EVERY * REPEAT_EVERY
    due, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(RATE)
        due.append(t)
    eligible = [k for k in range(count) if due[k] >= due[0] + REPEAT_GAP_S]
    repeats = set(rng.sample(eligible, count // REPEAT_EVERY))
    colds = [k for k in range(count) if k not in repeats]
    pool = [cell for cell in inputs.serve_pool() if cell not in exclude]
    if len(colds) > len(pool):
        raise ValueError(f"{len(colds)} cold requests exceed the "
                         f"{len(pool)}-input pool; shorten --seconds")
    picks = rng.sample(pool, len(colds))
    cold_due = [due[k] for k in colds]
    schedule = [None] * count
    for k, cell in zip(colds, picks):
        schedule[k] = {"due": due[k], "cell": cell, "twin": None}
    for k in sorted(repeats):
        last = bisect.bisect_right(cold_due, due[k] - REPEAT_GAP_S)
        twin = colds[rng.randrange(last)]
        schedule[k] = {"due": due[k], "cell": schedule[twin]["cell"],
                       "twin": twin}
    return schedule


def build_bursts(seed: int, seconds: float,
                 exclude: frozenset = frozenset()) -> List[dict]:
    """Bursts of :data:`BURST_SIZE` distinct cold requests, the same
    number of each design in every burst, for ``seconds`` of bursts;
    items as in :func:`build_schedule` plus the burst index and
    ``after``, the last request of the burst before."""
    rng = random.Random(f"{seed}/bursts")
    count = max(1, int(seconds / BURST_GAP_S))
    per_design = BURST_SIZE // len(inputs.SERVE_DESIGNS)
    pools = [[cell for cell in inputs.serve_pool()
              if cell.design == design and cell not in exclude]
             for design, _, _ in inputs.SERVE_DESIGNS]
    picks = [rng.sample(pool, count * per_design) for pool in pools]
    schedule = []
    for burst in range(count):
        cells = [pool[burst * per_design + i] for pool in picks
                 for i in range(per_design)]
        rng.shuffle(cells)
        due = burst * (BURST_GAP_S + TICK_S / count)
        after = len(schedule) - 1 if schedule else None
        schedule += [{"due": due, "cell": cell, "twin": None,
                      "burst": burst, "after": after} for cell in cells]
    return schedule


def _get(host: str, port: int, path: str, body: Optional[dict] = None):
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        if body is None:
            conn.request("GET", path)
        else:
            conn.request("POST", path, body=json.dumps(body).encode("utf-8"))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _boot(app_dir: str, expected: dict):
    """Boot to ``/healthz`` 200 plus one warm-up cold run per design.

    Returns ``(app, seconds, failed warm-ups)``.
    """
    shutil.rmtree(app_dir, ignore_errors=True)
    started = time.perf_counter()
    app = serve_app(workers=WORKERS, out_dir=app_dir).start()
    host, port = app.config.host, app.port
    while True:
        try:
            if _get(host, port, "/healthz")[0] == 200:
                break
        except OSError:
            pass
        time.sleep(0.002)
    warmups = inputs.serve_warmups()
    ids = [json.loads(_get(host, port, "/v1/runs", cell.spec())[1])["id"]
           for cell in warmups]
    payloads = [_get(host, port, f"/v1/runs/{rid}/result?wait=30")[1]
                for rid in ids]
    elapsed = time.perf_counter() - started
    failed = sum(not _cold_ok(json.loads(payload), cell, expected)
                 for payload, cell in zip(payloads, warmups))
    return app, elapsed, failed


def _cold_ok(outcome: dict, cell, expected: dict) -> bool:
    """A cold run's ``RunOutcome.to_dict()`` against the oracle."""
    return bool(outcome.get("result")) and oracle.matches(
        expected.get(cell.key), oracle.outcome(outcome["result"]))


def _cache_counts(app) -> tuple:
    status, text = _get(app.config.host, app.port, "/metrics")
    values = []
    for name in ("serve_cache_hits_total", "serve_cache_misses_total"):
        match = re.search(rf"^{name}(?:{{[^}}]*}})? (\S+)$",
                          text.decode("utf-8"), re.M)
        values.append(float(match.group(1)) if match else 0.0)
    return tuple(values)


def _phase(app, schedule: List[dict], expected: dict) -> dict:
    """Drive one schedule through a load-generator process."""
    plan = {"host": app.config.host, "port": app.port,
            "start": time.monotonic() + 0.5,
            "requests": [{"due": item["due"], "body": item["cell"].spec(),
                          "after": item["twin"] if item["twin"] is not None
                          else item.get("after")} for item in schedule]}
    before = _cache_counts(app)
    proc = subprocess.Popen([sys.executable, _LOADGEN],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(json.dumps(plan).encode("utf-8"),
                                  timeout=150)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    doc = json.loads(out)
    after = _cache_counts(app)
    hits, misses = after[0] - before[0], after[1] - before[1]
    records = doc["records"]
    latency, cold_lat, hit_lat, overhead, run_ms, admit, late = \
        [], [], [], [], [], [], []
    results = []
    failed = refused = 0
    worker_pid = None
    for item, record in zip(schedule, records):
        if record.get("post_code") not in (200, 202) or \
                record.get("result_code") != 200:
            refused += record.get("post_code") in (429, 503)
            failed += 1
            latency.append(math.inf)
            continue
        elapsed = record["done"] - record["due"]
        latency.append(elapsed)
        admit.append(record["post_end"] - record["post_start"])
        late.append(record["post_start"] - record["due"])
        if item["twin"] is None:
            outcome = json.loads(record["payload"])
            ok = record["cache"] == "miss" and \
                _cold_ok(outcome, item["cell"], expected)
            worker_pid = outcome.get("worker_pid") or worker_pid
            results.append(outcome["result"])
            cold_lat.append(elapsed)
            run_ms.append(outcome["wall_seconds"])
            overhead.append(elapsed - outcome["wall_seconds"])
        else:
            twin = records[item["twin"]]
            ok = record["cache"] == "hit" and \
                record["payload"] == twin.get("payload")
            hit_lat.append(elapsed)
        failed += not ok
    return {"latency": latency, "cold": cold_lat, "hit": hit_lat,
            "overhead": overhead, "run": run_ms, "admit": admit,
            "late": late, "failed": failed, "refused": refused,
            "hits": hits, "misses": misses, "worker_pid": worker_pid,
            "results": results,
            "client_pid": doc["pid"], "records": records,
            "errors": doc["errors"]}


def _burst_seconds(phase: dict, schedule: List[dict]) -> List[float]:
    """Each burst's time from its first submission to its last
    result."""
    sent: dict = {}
    done: dict = {}
    for item, record in zip(schedule, phase["records"]):
        burst = item["burst"]
        sent[burst] = min(sent.get(burst, math.inf), record["post_start"])
        done[burst] = max(done.get(burst, 0.0), record["done"])
    return [done[burst] - sent[burst] for burst in sorted(done)]


def _peak_rss_mb(pid: Optional[int]) -> float:
    """Peak RSS (VmHWM) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _client_events(phase: dict, schedule: List[dict]) -> List[dict]:
    """The load generator's HTTP calls as Chrome trace events."""
    events = []
    for item, record in zip(schedule, phase["records"]):
        if "post_start" not in record:
            continue
        rid = record.get("id")
        kind = "hit" if item["twin"] is not None else "cold"
        events.append({"name": "POST /v1/runs", "cat": "serve", "ph": "X",
                       "ts": record["post_start"] * 1e6,
                       "dur": (record["post_end"] - record["post_start"])
                       * 1e6, "pid": phase["client_pid"], "tid": 1,
                       "args": {"rid": rid, "kind": kind}})
        if "done" in record:
            start = record["post_end"]
            events.append({"name": "GET result", "cat": "serve", "ph": "X",
                           "ts": start * 1e6,
                           "dur": (record["done"] - start) * 1e6,
                           "pid": phase["client_pid"], "tid": 2,
                           "args": {"rid": rid, "kind": kind}})
    return events


def run(seed: int, seconds: float, trace: bool, out_dir: str,
        trace_path: Optional[str]) -> dict:
    expected = oracle.load()
    if trace:
        # untraced then traced half, never sharing a cold input
        first = build_schedule(seed, seconds / 2)
        schedule = build_schedule(
            seed, seconds / 2,
            exclude=frozenset(item["cell"] for item in first))
    else:
        schedule = build_schedule(seed, seconds * (1 - BURST_SHARE))
        bursts = build_bursts(
            seed, seconds * BURST_SHARE,
            exclude=frozenset(item["cell"] for item in schedule))
    base = os.path.join(out_dir, f"serve-{os.getpid()}")
    setup, attempted, failed = [], 0, 0
    rec = spans.Recorder()

    def boot(index: int, traced: bool = False):
        nonlocal attempted, failed
        undo = spans.wrap_pipeline(rec) if traced else (lambda: None)
        try:
            with (rec if traced else spans.NullRecorder()).span("boot",
                                                                "serve"):
                app, elapsed, bad = _boot(f"{base}-{index}", expected)
        finally:
            undo()
        setup.append(elapsed)
        attempted += len(inputs.SERVE_DESIGNS)
        failed += bad
        return app

    # Boots before and after the open loop, so the set-up samples span
    # the run; the last boot before it serves the measured traffic.
    app = None
    try:
        for index in range(BOOTS_BEFORE):
            if app is not None:
                app.close()
            app = boot(index, traced=trace and index == BOOTS_BEFORE - 1)
        phases = [_phase(app, first if trace else schedule, expected)]
        if not trace:
            phases.append(_phase(app, bursts, expected))
            burst_s = _burst_seconds(phases[-1], bursts)
        else:
            undo = spans.wrap_method(
                Scheduler, "submit", lambda orig: _traced_submit(rec, orig))
            try:
                phases.append(_phase(app, schedule, expected))
            finally:
                undo()
        peak_rss_mb = _peak_rss_mb(phases[-1]["worker_pid"])
        app.close()
        app = None
        for index in range(BOOTS_BEFORE, BOOTS):
            boot(index).close()
    finally:
        if app is not None:
            app.close()
        for index in range(BOOTS):
            shutil.rmtree(f"{base}-{index}", ignore_errors=True)
    for phase in phases:
        attempted += len(phase["latency"])
        failed += phase["failed"]
    out = {"attempted": attempted, "failed": failed,
           "correct": failed == 0 and not any(p["errors"] for p in phases)}
    notes = [f"{p['errors']}" for p in phases if p["errors"]]
    notes += [f"failed request {index}: POST {record.get('post_code')}, "
              f"result {record.get('result_code')}, cache "
              f"{record.get('cache')}"
              for p in phases if p["failed"]
              for index, record in enumerate(p["records"])
              if record.get("result_code") != 200
              or record.get("cache") not in ("hit", "miss")]
    if not trace:
        phase = phases[0]
        lat = phase["latency"]
        out["metrics"] = {
            "setup_s": (min(setup), "s"),
            "run_s": (statistics.median(burst_s), "s"),
            "latency_p50_ms": (1e3 * percentile(lat, 50), "ms"),
            "latency_p90_ms": (1e3 * percentile(lat, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_share": ((attempted - failed) / attempted, "share"),
        }
        notes.append(f"boots={len(setup)} latency samples={len(lat)} "
                     f"at {RATE:g}/s (p50 and p90 over all of them); "
                     f"run_s: median of {len(burst_s)} bursts of "
                     f"{BURST_SIZE}")
        out["notes"] = notes
        return out

    base_phase, phase = phases
    total = phase["hits"] + phase["misses"]
    counts = counters.from_payloads(phase["results"])
    out["metrics"] = {
        "frontend.parse_s": (spans.Recorder.total(rec.spans, "parse_source"),
                             "s"),
        "frontend.elaborate_s": (spans.Recorder.total(rec.spans, "elaborate"),
                                 "s"),
        "compile.compile_s": (spans.Recorder.total(rec.spans,
                                                   "compile_design"), "s"),
        "serve.admit_ms": (1e3 * percentile(phase["admit"], 50), "ms"),
        "serve.worker_run_ms": (1e3 * percentile(phase["run"], 50), "ms"),
        "serve.overhead_p50_ms": (1e3 * percentile(phase["overhead"], 50),
                                  "ms"),
        "serve.overhead_p90_ms": (1e3 * percentile(phase["overhead"], 90),
                                  "ms"),
        "serve.cold_latency_p50_ms": (1e3 * percentile(phase["cold"], 50),
                                      "ms"),
        "serve.hit_latency_p50_ms": (1e3 * percentile(phase["hit"], 50),
                                     "ms"),
        "serve.cache_hit_ratio": (phase["hits"] / total if total else 0.0,
                                  "share"),
        "serve.refused": (phase["refused"], "count"),
        "loadgen.late_p90_ms": (1e3 * percentile(phase["late"], 90), "ms"),
        "sim.host_us_per_event": (
            1e6 * sum(phase["run"]) / counts["events_processed"], "us"),
        "trace.overhead_share": (
            percentile(phase["latency"], 50)
            / percentile(base_phase["latency"], 50) - 1.0, "share"),
    }
    out["metrics"].update(counters.layer_metrics(counts))
    out["notes"] = notes
    if trace_path:
        rec.write_chrome(trace_path, extra=_client_events(phase, schedule))
    return out


def _traced_submit(rec, orig):
    def submit(self, spec):
        with rec.span("Scheduler.submit", "serve") as record:
            doc = orig(self, spec)
            record.rid = doc.get("id")
            return doc
    return submit
