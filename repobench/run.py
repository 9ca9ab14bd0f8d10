"""Run one benchmark workload and print its metrics.

    python3 repobench/run.py --workload symbolic --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``:
every end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  A per-layer metric of a layer the
workload does not run in the traced process reads 0.  Lines before it
are a human-readable summary.  A traced run also writes a Chrome trace
under ``.repobench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("symbolic", "conventional", "batch", "serve")
#: Scratch space for batch/serve artifacts and traces (git-ignored).
OUT_DIR = ".repobench_out"


def _checkout_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: str = OUT_DIR) -> dict:
    """Run one workload in this process; returns ``correct``,
    ``attempted``, ``failed``, ``metrics`` ({name: (value, unit)}) and
    optional ``notes``."""
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{workload}-{seed}.json") \
        if trace else None
    if workload in ("symbolic", "conventional"):
        from repobench import closedloop
        return closedloop.run(workload, seed, seconds, trace, trace_path)
    if workload == "batch":
        from repobench import batchload
        return batchload.run(seed, seconds, trace, out_dir, trace_path)
    from repobench import serveload
    return serveload.run(seed, seconds, trace, out_dir, trace_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = _checkout_root()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"error: no simulator sources under {root}/src/repro",
              file=sys.stderr)
        return 2
    for path in (os.path.join(root, "src"), root):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.chdir(root)

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        manifest = json.load(f)["per_layer" if args.trace else "end_to_end"]
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    for note in result.get("notes", ()):
        print(note)
    measured = dict(result["metrics"])
    metrics = {}
    for entry in manifest:
        name = entry["name"]
        if name in measured:
            value, unit = measured.pop(name)
        elif args.trace:
            value, unit = 0, entry["unit"]
        else:
            raise RuntimeError(f"{args.workload} measured no {name}")
        if unit != entry["unit"]:
            raise RuntimeError(f"{name} measured in {unit}, "
                               f"BENCHMARK.json says {entry['unit']}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload}/{name} = {value} {unit}")
    if measured:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(measured)}")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
