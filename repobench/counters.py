"""Exact simulated counters and the per-layer metrics made from them.

The closed loops read the counters off each kernel; ``batch`` and
``serve`` run their simulations in worker processes and read the same
counters from each run's ``SimResult.to_dict()`` payload.
"""

from __future__ import annotations

from typing import Dict, Iterable

HIT_KINDS = ("ite", "not", "apply")


def add(counts: Dict[str, float], key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


def from_payloads(payloads: Iterable[dict]) -> Dict[str, float]:
    """Sum the exact counters of ``SimResult.to_dict()`` payloads."""
    counts: Dict[str, float] = {}
    for payload in payloads:
        metrics = payload["metrics"]
        for key in ("events_processed", "events_merged", "instructions"):
            add(counts, key, metrics[key])
        bdd = metrics["bdd"]
        add(counts, "word_ops", bdd["fastpath_word_ops"])
        add(counts, "symbolic_ops", bdd["fastpath_symbolic_ops"])
        for kind in HIT_KINDS:
            add(counts, f"{kind}_hits", bdd[f"{kind}_hits"])
            add(counts, f"{kind}_misses", bdd[f"{kind}_misses"])
        counts["peak_nodes"] = max(counts.get("peak_nodes", 0),
                                   bdd["peak_nodes"])
    return counts


def layer_metrics(counts: Dict[str, float]) -> dict:
    """The per-layer metrics every workload reads from its counters."""
    metrics = {
        "sim.events_processed": (counts["events_processed"], "count"),
        "sim.events_merged": (counts["events_merged"], "count"),
        "sim.instructions": (counts["instructions"], "count"),
        "fourval.word_ops": (counts["word_ops"], "count"),
        "fourval.symbolic_ops": (counts["symbolic_ops"], "count"),
        "fourval.concrete_ratio": (ratio(counts["word_ops"],
                                         counts["symbolic_ops"]), "share"),
        "bdd.peak_nodes": (counts["peak_nodes"], "count"),
    }
    for kind in HIT_KINDS:
        metrics[f"bdd.{kind}_hit_rate"] = (
            ratio(counts[f"{kind}_hits"], counts[f"{kind}_misses"]), "share")
    return metrics


def ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0
