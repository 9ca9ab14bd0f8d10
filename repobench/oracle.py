"""Expected outcome of every input the workloads can draw.

Each entry records the verdict, ``events_processed``, the end time,
``symbols_injected``, the violation times, a digest of the first error
trace and that trace's resimulated verdict.  BDD node counts are left
out on purpose: a change of BDD encoding is not a failure.

Every entry is made by direct simulation (``RunRequest.open()``, i.e.
``repro.open_sim``), so the batch and serve paths are checked against
the in-process simulator.  Regenerate after a deliberate semantic
change with::

    PYTHONPATH=src python3 repobench/oracle.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Optional

ORACLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "oracle.json")
SCHEMA = "repobench.oracle/1"
FIELDS = ("verdict", "events", "time", "symbols", "violation_times",
          "trace_digest")


def trace_digest(payload: dict) -> Optional[str]:
    """sha256 of the first violation's error trace (None when clean)."""
    violations = payload.get("violations") or []
    if not violations:
        return None
    text = json.dumps(violations[0]["trace"], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def outcome(payload: dict) -> dict:
    """The oracle fields of one ``SimResult.to_dict()`` payload."""
    metrics = payload["metrics"]
    return {
        "verdict": payload["status"],
        "events": metrics["events_processed"],
        "time": payload["time"],
        "symbols": metrics["symbols_injected"],
        "violation_times": [v["time"] for v in payload["violations"]],
        "trace_digest": trace_digest(payload),
    }


def load() -> Dict[str, dict]:
    with open(ORACLE_PATH, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{ORACLE_PATH}: unknown schema {doc.get('schema')!r}")
    return doc["entries"]


def matches(expected: Optional[dict], got: dict,
            resim: Optional[str] = None) -> bool:
    """True when ``got`` (from :func:`outcome`) equals the oracle entry;
    ``resim`` is the resimulated verdict when the workload replayed the
    trace."""
    if expected is None:
        return False
    if any(expected[field] != got[field] for field in FIELDS):
        return False
    return resim is None or resim == expected["resim"]


def simulate(cell) -> dict:
    """Direct in-process simulation of one cell → oracle entry."""
    from repro.errors import ResimulationError

    request = cell.request()
    sim = request.open()
    result = sim.run(until=request.until)
    entry = outcome(result.to_dict())
    entry["resim"] = None
    if result.violations:
        try:
            replay = sim.resimulate(result.violations[0],
                                    until=request.until)
            entry["resim"] = replay.status.value
        except ResimulationError:
            entry["resim"] = "resimulation_failed"
    return entry


def main() -> int:
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from repobench import inputs

    cells = inputs.all_cells()
    entries = {}
    for index, (key, cell) in enumerate(sorted(cells.items())):
        entries[key] = simulate(cell)
        if index % 200 == 0:
            print(f"{index}/{len(cells)} {key}", file=sys.stderr, flush=True)
    # one entry per line keeps diffs of the committed file readable
    lines = [f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
             for key, entry in sorted(entries.items())]
    with open(ORACLE_PATH, "w", encoding="utf-8") as handle:
        handle.write('{"schema": "%s", "entries": {\n' % SCHEMA)
        handle.write(",\n".join(lines))
        handle.write("\n}}\n")
    print(f"wrote {len(entries)} entries to {ORACLE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
