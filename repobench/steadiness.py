"""Steadiness record: two sets of runs with disjoint seeds.

For every end-to-end metric of every workload this records each set's
median, quartiles and spread (inter-quartile distance over the
median), and the drift of the second median from the first.  The
bounds in ``BENCHMARK.json`` are derived from this record::

    python3 repobench/steadiness.py --first 101-110 --second 201-210 \\
        --out repobench/steadiness.json

Runs are made one at a time, never in parallel, through the same
command line the benchmark is run by.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def _run(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["wall_s"] = time.perf_counter() - started
    return doc


#: Largest regression bound a metric may have.
BOUND_CAP = 0.25


def bound_need(spreads, drift: float) -> float:
    """The bound the record supports: three times the widest spread
    seen, or one and a half times the drift between sets if that is
    wider, rounded up to a multiple of 0.05 and at least 0.01.  It is
    not capped; a need above :data:`BOUND_CAP` marks an unsteady
    metric."""
    need = max([3 * spread for spread in spreads] + [1.5 * abs(drift)])
    if need <= 0:
        return 0.01
    return round(math.ceil(round(need / 0.05, 9)) * 0.05, 2)


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first", required=True, help="seed range a-b")
    parser.add_argument("--second", required=True,
                        help="disjoint seed range c-d")
    parser.add_argument("--out", required=True,
                        help="write the record here (JSON)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = [_seeds(args.first), _seeds(args.second)]
    if set(sets[0]) & set(sets[1]):
        parser.error("the two seed ranges overlap")

    record = {"seconds": seconds,
              "sets": [f"{s[0]}-{s[-1]}" for s in sets], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        per_set = []
        for seeds in sets:
            runs = []
            for seed in seeds:
                doc = _run(workload, seed, seconds)
                runs.append(doc)
                print(f"{workload} seed={seed} wall={doc['wall_s']:.1f}s "
                      f"correct={doc['correct']} " + " ".join(
                          f"{k}={v['value']:.6g}"
                          for k, v in doc["metrics"].items()),
                      file=sys.stderr, flush=True)
            per_set.append(runs)
        entry = {}
        for name in per_set[0][0]["metrics"]:
            first, second = (summarize([r["metrics"][name]["value"]
                                        for r in runs]) for runs in per_set)
            drift = ((second["median"] - first["median"]) / first["median"]
                     if first["median"] else 0.0)
            need = bound_need([first["spread"], second["spread"]], drift)
            entry[name] = {"unit": per_set[0][0]["metrics"][name]["unit"],
                           "bound": bounds[name], "sets": [first, second],
                           "drift": drift, "need": need,
                           "steady": need <= BOUND_CAP}
        entry["correct"] = all(r["correct"] for runs in per_set
                               for r in runs)
        entry["max_wall_s"] = max(r["wall_s"] for runs in per_set
                                  for r in runs)
        record["workloads"][workload] = entry
        for name, item in entry.items():
            if isinstance(item, dict):
                print(f"{workload}/{name}: " + ", ".join(
                    f"median={s['median']:.6g} spread={s['spread']:.3f}"
                    for s in item["sets"])
                    + f", drift={item['drift']:+.3f} (bound {item['bound']},"
                    f" need {item['need']}"
                    + ("" if item["steady"] else ", UNSTEADY") + ")",
                    file=sys.stderr, flush=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
