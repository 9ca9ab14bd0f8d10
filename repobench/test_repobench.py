"""The benchmark's own tests: oracle coverage, determinism, self-time
accounting, and the sensitivity self-check of the prediction table.

    PYTHONPATH=src python3 -m pytest repobench -q

The sensitivity tests inject a harness-side delay at one layer
boundary and check that the predicted end-to-end metric moves on the
predicted workload while the control workload stays within its bound.
They take a few minutes: each runs whole workload passes.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

from repobench import inputs, oracle, serveload, spans
from repobench.run import run_workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)
BOUND = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
#: Stated tolerance of the self-time check: layer self times must cover
#: this share of the traced pass (the rest is the harness's own work,
#: mostly garbage collection between cells and the oracle check).
COVERAGE_TOLERANCE = 0.10


def _value(result, name):
    return result["metrics"][name][0]


def _run(workload, seed=1, seconds=1.0, trace=False, tmp=None):
    result = run_workload(workload, seed, seconds, trace,
                          out_dir=str(tmp) if tmp else ".repobench_out")
    assert result["correct"], result
    return result


# ---------------------------------------------------------------------
# inputs and oracle
# ---------------------------------------------------------------------


def test_oracle_covers_every_drawable_input():
    expected = oracle.load()
    missing = sorted(set(inputs.all_cells()) - set(expected))
    assert not missing, missing[:5]
    for seed in range(20):
        for cell in inputs.conventional_cells(seed):
            assert cell.key in expected
        for _, cell in inputs.batch_cells(seed):
            assert cell.key in expected


@pytest.mark.parametrize("key", ["batch/alu4-bug", "batch/risc8/7",
                                 "serve/gcd/0", "serve/dram/11",
                                 "symbolic/gcd-full"])
def test_oracle_entry_matches_direct_simulation(key):
    assert oracle.simulate(inputs.all_cells()[key]) == oracle.load()[key]


def test_seed_changes_inputs_not_work():
    first, second = inputs.batch_cells(1), inputs.batch_cells(2)
    assert [cell for _, cell in first] != [cell for _, cell in second]
    assert [name for name, _ in first] == [name for name, _ in second]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_serve_schedule_repeat_share_is_exact(seed):
    schedule = serveload.build_schedule(seed, 20)
    repeats = [item for item in schedule if item["twin"] is not None]
    assert len(repeats) * serveload.REPEAT_EVERY == len(schedule)
    colds = [item["cell"] for item in schedule if item["twin"] is None]
    assert len(set(colds)) == len(colds)
    for item in repeats:
        twin = schedule[item["twin"]]
        assert twin["twin"] is None and twin["cell"] == item["cell"]
        assert item["due"] - twin["due"] >= serveload.REPEAT_GAP_S


# ---------------------------------------------------------------------
# tracing: determinism and self-time accounting
# ---------------------------------------------------------------------


def test_traced_counts_repeat_exactly_and_cover_the_pass(tmp_path):
    runs = [_run("conventional", seed=3, trace=True, tmp=tmp_path)
            for _ in range(2)]
    exact = [name for name in runs[0]["metrics"]
             if name.startswith(("sim.events", "sim.instructions",
                                 "fourval.word_ops", "fourval.symbolic_ops",
                                 "bdd.")) and name.endswith(
                                     ("_calls", "_processed", "_merged",
                                      "instructions", "_ops"))]
    assert len(exact) >= 9
    for name in exact:
        assert _value(runs[0], name) == _value(runs[1], name), name
    coverage = runs[0]["coverage"]
    assert 1 - COVERAGE_TOLERANCE <= coverage <= 1.0 + 1e-9
    with open(tmp_path / "trace-conventional-3.json", encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    names = {event["name"] for event in events}
    assert {"pass", "parse_source", "elaborate", "compile_design",
            "codegen", "run"} <= names
    assert all("parent" in event["args"] for event in events
               if event["name"] != "pass")


def test_serve_trace_cache_hit_ratio_is_the_repeat_share(tmp_path):
    result = _run("serve", seconds=8, trace=True, tmp=tmp_path)
    assert _value(result, "serve.cache_hit_ratio") == \
        1 / serveload.REPEAT_EVERY
    assert _value(result, "serve.refused") == 0


# ---------------------------------------------------------------------
# sensitivity self-check of the prediction table
# ---------------------------------------------------------------------


def _paired(workload, metric, inject, seconds=1.0, rounds=1):
    """Median ``metric`` without and with ``inject()`` installed,
    alternating which side runs first."""
    base, moved = [], []
    for i in range(rounds):
        for injected in ((False, True) if i % 2 == 0 else (True, False)):
            undo = inject() if injected else (lambda: None)
            try:
                value = _value(_run(workload, seed=1 + i, seconds=seconds),
                               metric)
            finally:
                undo()
            (moved if injected else base).append(value)
    return statistics.median(base), statistics.median(moved)


def _bdd_delay(fraction=1.0):
    return lambda: spans.wrap_bdd(
        lambda kind, seconds: spans.busy_wait(seconds * fraction))


def _admission_delay(seconds=0.02):
    from repro.serve import Scheduler

    def make(orig):
        def submit(self, spec):
            spans.busy_wait(seconds)
            return orig(self, spec)
        return submit
    return lambda: spans.wrap_method(Scheduler, "submit", make)


def test_bdd_delay_moves_symbolic_run_s():
    base, moved = _paired("symbolic", "run_s", _bdd_delay())
    assert moved > base * (1 + BOUND["run_s"]), (base, moved)


def test_bdd_delay_leaves_conventional_run_s():
    base, moved = _paired("conventional", "run_s", _bdd_delay(), rounds=3)
    assert abs(moved / base - 1) <= BOUND["run_s"], (base, moved)


def test_admission_delay_moves_serve_latency_p50():
    base, moved = _paired("serve", "latency_p50_ms", _admission_delay(),
                          seconds=6)
    assert moved > base * (1 + BOUND["latency_p50_ms"]), (base, moved)


def test_admission_delay_leaves_batch_run_s():
    base, moved = _paired("batch", "run_s", _admission_delay(),
                          seconds=4, rounds=5)
    assert abs(moved / base - 1) <= BOUND["run_s"], (base, moved)


# ---------------------------------------------------------------------
# the command line contract
# ---------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_manifest_metric(trace):
    proc = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", "batch",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    manifest = BENCH["per_layer" if trace else "end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in manifest]
    assert all(doc["metrics"][m["name"]]["unit"] == m["unit"]
               for m in manifest)
    assert doc["correct"] and doc["failed"] == 0


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "repobench"),
                    tmp_path / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", "batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
