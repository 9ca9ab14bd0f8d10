"""Micro-benchmarks for the BDD substrate.

Not a paper table — these pin the cost of the primitive operations the
whole simulator is built from, so performance regressions in the BDD
layer are caught before they show up as mysterious Table-1 slowdowns.
The paper's simulator used CUDD; these numbers document what the
substitute costs on whichever core ``BddManager`` runs (the native
kernel, or the pure-Python reference core without cffi).
"""

from __future__ import annotations

import pytest

from repro.bdd import BddManager
from repro.fourval import FourVec, ops


def _fresh_manager(nvars: int) -> BddManager:
    mgr = BddManager()
    for i in range(nvars):
        mgr.new_var(f"x{i}")
    return mgr


def test_bdd_ite_chain(benchmark):
    """Deep ite nesting (the control-merge workload)."""
    mgr = _fresh_manager(24)

    def build():
        f = 1
        for i in range(24):
            f = mgr.ite(mgr.var(i), f, mgr.not_(f))
        return f

    benchmark(build)


def test_bdd_adder_16bit(benchmark):
    """Symbolic 16-bit ripple adder — the arithmetic workload."""
    mgr = _fresh_manager(32)

    def build():
        a = FourVec(mgr, [(mgr.var(i), 0) for i in range(16)])
        b = FourVec(mgr, [(mgr.var(16 + i), 0) for i in range(16)])
        return ops.add(a, b)

    benchmark(build)


def test_bdd_multiplier_6bit(benchmark):
    """Symbolic 6x6 multiplier (BDD-hostile structure)."""
    mgr = _fresh_manager(12)

    def build():
        a = FourVec(mgr, [(mgr.var(i), 0) for i in range(6)])
        b = FourVec(mgr, [(mgr.var(6 + i), 0) for i in range(6)])
        return ops.multiply(a, b)

    benchmark(build)


def test_bdd_comparator_16bit(benchmark):
    mgr = _fresh_manager(32)

    def build():
        a = FourVec(mgr, [(mgr.var(i), 0) for i in range(16)])
        b = FourVec(mgr, [(mgr.var(16 + i), 0) for i in range(16)])
        return ops.less_than(a, b)

    benchmark(build)


def test_bdd_sat_count(benchmark):
    mgr = _fresh_manager(20)
    f = 1
    for i in range(0, 20, 2):
        f = mgr.and_(f, mgr.or_(mgr.var(i), mgr.var(i + 1)))

    benchmark(lambda: mgr.sat_count(f))


def test_bdd_change_condition(benchmark):
    """The per-write cost driver of the event machinery."""
    mgr = _fresh_manager(16)
    a = FourVec(mgr, [(mgr.var(i), 0) for i in range(8)])
    b = FourVec(mgr, [(mgr.var(8 + i), 0) for i in range(8)])

    benchmark(lambda: a.change_condition(b))


def test_fourval_conditional_merge(benchmark):
    """ite-merge of two 16-bit four-valued vectors under a control."""
    mgr = _fresh_manager(33)
    control = mgr.var(32)
    a = FourVec(mgr, [(mgr.var(i), 0) for i in range(16)])
    b = FourVec(mgr, [(mgr.var(16 + i), 0) for i in range(16)])

    benchmark(lambda: a.ite(control, b))
