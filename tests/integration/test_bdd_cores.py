"""Whole simulations agree on the native kernel and the reference core.

Each cell runs twice — every BDD manager on the native kernel, then on
the pure-Python reference core — and must produce the same
``SimResult.to_dict()`` payload (BDD node counts and the core's name
aside), the same error trace and the same resimulated verdict.
"""

from __future__ import annotations

import pytest

from repro.api import REQUEST_SCHEMA, parse_run
from repro.bdd._pycore import PyCore
from repro.errors import ResimulationError
from tests.bdd_cores import native_core, use_core

CELLS = {
    "gcd-full": ("gcd", {"rounds": 1, "width": 4}, 5000, "full"),
    "gcd-merge": ("gcd", {"rounds": 1, "width": 4}, 5000, "queue_merge_only"),
    "gcd-none": ("gcd", {"rounds": 1, "width": 4}, 5000, "none"),
    "alu4-planted": ("alu4", {"runtime": 60}, 80, "full"),
    "arbiter": ("arbiter", {"runtime": 30}, None, "full"),
}

#: ``metrics.bdd`` keys that may differ between cores.
_CORE_DEPENDENT = {"kernel", "nodes", "peak_nodes"}


def _simulate(design, params, until, mode):
    spec = {"schema": REQUEST_SCHEMA, "design": design, "params": params,
            "options": {"accumulation": mode}}
    if until is not None:
        spec["until"] = until
    request = parse_run(spec, base_dir=None, name=design)
    sim = request.open()
    result = sim.run(until=request.until)
    payload = result.to_dict()
    kernel = payload["metrics"]["bdd"]["kernel"]
    for key in _CORE_DEPENDENT:
        del payload["metrics"]["bdd"][key]
    resim = None
    if result.violations:
        try:
            resim = sim.resimulate(result.violations[0],
                                   until=request.until).status.value
        except ResimulationError:
            resim = "resimulation_failed"
    return kernel, payload, resim


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cores_agree(cell):
    native_core()  # skips when the native kernel is unavailable
    native = _simulate(*CELLS[cell])
    with use_core(PyCore):
        reference = _simulate(*CELLS[cell])
    assert (native[0], reference[0]) == ("c", "python")
    assert native[1] == reference[1]
    assert native[2] == reference[2]
    if cell == "alu4-planted":
        assert native[1]["status"] == "assert_failed"
        assert native[1]["violations"][0]["trace"]
        assert native[2] == "assert_failed"
