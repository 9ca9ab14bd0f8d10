"""Property-based BDD suite: random expressions vs a truth-table oracle.

Every operator the simulator relies on — ite/and/or/xor/restrict/
compose/exists/forall/sat_count — is checked on randomized expression
trees over ``N_VARS`` variables against a brute-force truth-table
oracle (functions as ``2**N_VARS``-bit masks), *before and after*
forced garbage collections and random in-place reorders.  Three
invariants are pinned per case:

* truth: the BDD's table equals the oracle mask;
* handle stability: a :class:`BddRef` taken before GC/reorder still
  denotes the same function afterwards;
* canonicity: recomputing the operation from the remapped operand
  handles yields the *identical node id* as the remapped result.

Deterministic stdlib ``random`` seeds — no hypothesis shrinking, every
failure reproduces.  ``REPRO_FUZZ_SCALE`` multiplies the case count
(the scheduled fuzz lane runs at 10x).
"""

import os
import random

import pytest

from repro.bdd import FALSE, TRUE, BddManager
from tests.bdd_cores import reference_core

N_VARS = 5
N_ASSIGN = 1 << N_VARS
FULL = (1 << N_ASSIGN) - 1
SCALE = float(os.environ.get("REPRO_FUZZ_SCALE", "1"))
CASES = max(1, int(200 * SCALE))

#: mask of assignments (indexed by ``a``) on which named var ``xi`` is 1
VAR_MASKS = [
    sum(1 << a for a in range(N_ASSIGN) if a >> i & 1)
    for i in range(N_VARS)
]


def fresh():
    mgr = BddManager()
    for i in range(N_VARS):
        mgr.new_var(f"x{i}")
    return mgr


def level_of(mgr, i):
    """Current level of the variable *named* ``xi`` (moves on reorder)."""
    for level in range(mgr.var_count):
        if mgr.var_name(level) == f"x{i}":
            return level
    raise AssertionError(f"x{i} vanished")


def table_of(mgr, node):
    """Truth table of ``node`` as an oracle mask, keyed by var *name*."""
    levels = [level_of(mgr, i) for i in range(N_VARS)]
    mask = 0
    for a in range(N_ASSIGN):
        cube = {levels[i]: bool(a >> i & 1) for i in range(N_VARS)}
        if mgr.eval(node, cube):
            mask |= 1 << a
    return mask


def random_expr(mgr, rng, depth=3):
    """A random expression tree; returns ``(node, oracle_mask)``."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(N_VARS + 2)
        if choice == N_VARS:
            return FALSE, 0
        if choice == N_VARS + 1:
            return TRUE, FULL
        return mgr.var(level_of(mgr, choice)), VAR_MASKS[choice]
    op = rng.choice(("and", "or", "xor", "not", "ite"))
    f, fm = random_expr(mgr, rng, depth - 1)
    if op == "not":
        return mgr.not_(f), ~fm & FULL
    g, gm = random_expr(mgr, rng, depth - 1)
    if op == "and":
        return mgr.and_(f, g), fm & gm
    if op == "or":
        return mgr.or_(f, g), fm | gm
    if op == "xor":
        return mgr.xor(f, g), fm ^ gm
    h, hm = random_expr(mgr, rng, depth - 1)
    return mgr.ite(f, g, h), (fm & gm) | (~fm & hm & FULL)


def churn(mgr, rng, case):
    """Force a collection and, periodically, a random reorder."""
    mgr.collect()
    if case % 5 == 0:
        order = list(range(mgr.var_count))
        rng.shuffle(order)
        mgr.reorder(order)


def mask_restrict(fm, i, value):
    out = 0
    for a in range(N_ASSIGN):
        src = (a | 1 << i) if value else (a & ~(1 << i))
        if fm >> src & 1:
            out |= 1 << a
    return out


def mask_compose(fm, i, gm):
    out = 0
    for a in range(N_ASSIGN):
        bit = gm >> a & 1
        src = (a | 1 << i) if bit else (a & ~(1 << i))
        if fm >> src & 1:
            out |= 1 << a
    return out


def run_cases(op_arity, apply_mgr, apply_mask, seed):
    """Shared harness: build operands, apply, verify, churn, re-verify.

    ``apply_mgr(mgr, sub_rng, *nodes)`` and ``apply_mask(sub_rng,
    *masks)`` each receive a *fresh* generator seeded identically per
    case, so ops that draw random parameters (restrict level, compose
    target, quantified sets) see the same draws on both sides — and
    again on the post-churn canonicity recompute.
    """
    rng = random.Random(seed)
    mgr = fresh()
    for case in range(CASES):
        operands = [random_expr(mgr, rng) for _ in range(op_arity)]
        nodes = [node for node, _ in operands]
        masks = [mask for _, mask in operands]
        sub = rng.randrange(1 << 30)
        result = apply_mgr(mgr, random.Random(sub), *nodes)
        expected = apply_mask(random.Random(sub), *masks)
        assert table_of(mgr, result) == expected, f"case {case} (pre-GC)"
        refs = [mgr.ref(n) for n in nodes]
        result_ref = mgr.ref(result)
        churn(mgr, rng, case)
        # handle stability: same function after GC/reorder
        assert table_of(mgr, result_ref.deref()) == expected, \
            f"case {case} (post-churn)"
        # canonicity: recomputing the op from the remapped operand
        # handles (same parameter draws) gives the identical node id
        again = apply_mgr(mgr, random.Random(sub),
                          *[r.deref() for r in refs])
        assert again == result_ref.deref(), f"case {case} (canonicity)"


class TestOperatorProperties:
    def test_ite(self):
        run_cases(
            3,
            lambda mgr, rng, f, g, h: mgr.ite(f, g, h),
            lambda rng, fm, gm, hm: (fm & gm) | (~fm & hm & FULL),
            seed=101,
        )

    def test_and(self):
        run_cases(
            2,
            lambda mgr, rng, f, g: mgr.and_(f, g),
            lambda rng, fm, gm: fm & gm,
            seed=102,
        )

    def test_or(self):
        run_cases(
            2,
            lambda mgr, rng, f, g: mgr.or_(f, g),
            lambda rng, fm, gm: fm | gm,
            seed=103,
        )

    def test_xor(self):
        run_cases(
            2,
            lambda mgr, rng, f, g: mgr.xor(f, g),
            lambda rng, fm, gm: fm ^ gm,
            seed=104,
        )

    def test_restrict(self):
        run_cases(
            1,
            lambda mgr, rng, f: mgr.restrict(
                f, level_of(mgr, rng.randrange(N_VARS)),
                rng.random() < 0.5),
            lambda rng, fm: mask_restrict(
                fm, rng.randrange(N_VARS), rng.random() < 0.5),
            seed=105,
        )

    def test_compose(self):
        run_cases(
            2,
            lambda mgr, rng, f, g: mgr.compose(
                f, level_of(mgr, rng.randrange(N_VARS)), g),
            lambda rng, fm, gm: mask_compose(
                fm, rng.randrange(N_VARS), gm),
            seed=106,
        )

    def test_exists(self):
        def picks(rng):
            return [i for i in range(N_VARS) if rng.random() < 0.4]

        def apply_mask(rng, fm):
            for i in picks(rng):
                fm = mask_restrict(fm, i, False) | mask_restrict(fm, i, True)
            return fm

        run_cases(
            1,
            lambda mgr, rng, f: mgr.exists(
                f, [level_of(mgr, i) for i in picks(rng)]),
            apply_mask,
            seed=107,
        )

    def test_forall(self):
        def picks(rng):
            return [i for i in range(N_VARS) if rng.random() < 0.4]

        def apply_mask(rng, fm):
            for i in picks(rng):
                fm = mask_restrict(fm, i, False) & mask_restrict(fm, i, True)
            return fm

        run_cases(
            1,
            lambda mgr, rng, f: mgr.forall(
                f, [level_of(mgr, i) for i in picks(rng)]),
            apply_mask,
            seed=108,
        )

    def test_sat_count(self):
        rng = random.Random(109)
        mgr = fresh()
        for case in range(CASES):
            node, mask = random_expr(mgr, rng)
            expected = bin(mask).count("1")
            assert mgr.sat_count(node, N_VARS) == expected, f"case {case}"
            ref = mgr.ref(node)
            churn(mgr, rng, case)
            assert mgr.sat_count(ref.deref(), N_VARS) == expected, \
                f"case {case} (post-churn)"


@pytest.mark.fuzz
class TestScaledSweep:
    """Deep randomized soak for the scheduled fuzz lane.

    One mixed stream exercising every operator with churn after each
    case; runs ``2 * CASES`` iterations (REPRO_FUZZ_SCALE multiplies).
    """

    def test_mixed_operator_soak(self):
        rng = random.Random(4242)
        mgr = fresh()
        pinned = []  # (ref, mask) — long-lived handles across many GCs
        for case in range(2 * CASES):
            node, mask = random_expr(mgr, rng, depth=4)
            assert table_of(mgr, node) == mask
            if rng.random() < 0.2:
                pinned.append((mgr.ref(node), mask))
            if len(pinned) > 12:
                pinned = pinned[-8:]  # drop old handles: nodes may die
            churn(mgr, rng, case)
            for ref, pinned_mask in pinned:
                assert table_of(mgr, ref.deref()) == pinned_mask


# The same tests on the pure-Python reference core.
TestOperatorPropertiesReferenceCore = reference_core(TestOperatorProperties)
TestScaledSweepReferenceCore = reference_core(TestScaledSweep)
