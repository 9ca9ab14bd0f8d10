"""Unit tests for the BDD manager."""

import pytest

from repro.bdd import FALSE, TRUE, BddManager
from repro.errors import BddError
from tests.bdd_cores import reference_core


@pytest.fixture
def m():
    return BddManager()


@pytest.fixture
def abc(m):
    return m.new_var("a"), m.new_var("b"), m.new_var("c")


class TestBasics:
    def test_terminals(self, m):
        assert TRUE == 1
        assert FALSE == 0
        assert m.not_(TRUE) == FALSE
        assert m.not_(FALSE) == TRUE

    def test_var_creation(self, m):
        a = m.new_var("a")
        assert m.var(0) == a
        assert m.var_name(0) == "a"
        assert m.var_count == 1

    def test_var_default_name(self, m):
        m.new_var()
        assert m.var_name(0) == "v0"

    def test_unknown_var_raises(self, m):
        with pytest.raises(BddError):
            m.var(3)
        with pytest.raises(BddError):
            m.var_name(3)

    def test_hash_consing(self, m):
        a, b = m.new_var("a"), m.new_var("b")
        assert m.and_(a, b) == m.and_(a, b)
        assert m.and_(a, b) == m.and_(b, a)
        assert m.or_(a, b) == m.or_(b, a)
        assert m.xor(a, b) == m.xor(b, a)

    def test_idempotence_and_identity(self, m, abc):
        a, b, c = abc
        assert m.and_(a, a) == a
        assert m.or_(a, a) == a
        assert m.and_(a, TRUE) == a
        assert m.and_(a, FALSE) == FALSE
        assert m.or_(a, FALSE) == a
        assert m.or_(a, TRUE) == TRUE
        assert m.xor(a, a) == FALSE
        assert m.xor(a, FALSE) == a
        assert m.xnor(a, a) == TRUE

    def test_complementation(self, m, abc):
        a, b, c = abc
        f = m.or_(m.and_(a, b), c)
        assert m.not_(m.not_(f)) == f
        assert m.and_(f, m.not_(f)) == FALSE
        assert m.or_(f, m.not_(f)) == TRUE

    def test_de_morgan(self, m, abc):
        a, b, _ = abc
        assert m.not_(m.and_(a, b)) == m.or_(m.not_(a), m.not_(b))
        assert m.nand(a, b) == m.not_(m.and_(a, b))
        assert m.nor(a, b) == m.not_(m.or_(a, b))

    def test_implies(self, m, abc):
        a, b, _ = abc
        assert m.implies(a, a) == TRUE
        assert m.implies(FALSE, a) == TRUE
        assert m.implies(a, TRUE) == TRUE
        assert m.implies(TRUE, a) == a

    def test_ite_triple_reductions(self, m, abc):
        a, b, _ = abc
        assert m.ite(a, a, b) == m.or_(a, b)
        assert m.ite(a, b, a) == m.and_(a, b)
        assert m.ite(a, TRUE, FALSE) == a
        assert m.ite(a, FALSE, TRUE) == m.not_(a)

    def test_and_all_or_all(self, m, abc):
        a, b, c = abc
        assert m.and_all([a, b, c]) == m.and_(a, m.and_(b, c))
        assert m.or_all([a, b, c]) == m.or_(a, m.or_(b, c))
        assert m.and_all([]) == TRUE
        assert m.or_all([]) == FALSE


class TestEvaluation:
    def test_eval(self, m, abc):
        a, b, c = abc
        f = m.ite(a, b, c)
        assert m.eval(f, {0: True, 1: True, 2: False})
        assert not m.eval(f, {0: True, 1: False, 2: True})
        assert m.eval(f, {0: False, 1: False, 2: True})

    def test_eval_missing_defaults_false(self, m, abc):
        a, _, _ = abc
        assert not m.eval(a, {})
        assert m.eval(m.not_(a), {})

    def test_sat_one_none_for_false(self, m):
        assert m.sat_one(FALSE) is None

    def test_sat_one_satisfies(self, m, abc):
        a, b, c = abc
        f = m.and_(a, m.xor(b, c))
        cube = m.sat_one(f)
        assert m.eval(f, cube)

    def test_sat_count(self, m, abc):
        a, b, c = abc
        assert m.sat_count(TRUE) == 8
        assert m.sat_count(FALSE) == 0
        assert m.sat_count(a) == 4
        assert m.sat_count(m.and_(a, b)) == 2
        assert m.sat_count(m.or_(a, m.or_(b, c))) == 7
        assert m.sat_count(m.xor(a, b)) == 4

    def test_sat_count_var_above_root(self, m, abc):
        # c alone: variables a, b are free
        _, _, c = abc
        assert m.sat_count(c) == 4

    def test_sat_count_explicit_nvars(self, m):
        a = m.new_var("a")
        assert m.sat_count(a, nvars=1) == 1
        assert m.sat_count(TRUE, nvars=5) == 32

    def test_all_sat_partial(self, m, abc):
        a, b, _ = abc
        f = m.and_(a, b)
        cubes = list(m.all_sat(f))
        assert cubes == [{0: True, 1: True}]

    def test_all_sat_expanded(self, m, abc):
        a, b, c = abc
        f = m.and_(a, b)
        full = list(m.all_sat(f, levels=[0, 1, 2]))
        assert len(full) == 2
        for cube in full:
            assert m.eval(f, cube)

    def test_all_sat_count_matches(self, m, abc):
        a, b, c = abc
        f = m.or_(m.and_(a, b), m.xor(b, c))
        full = list(m.all_sat(f, levels=[0, 1, 2]))
        assert len(full) == m.sat_count(f)


class TestStructuralOps:
    def test_restrict(self, m, abc):
        a, b, c = abc
        f = m.ite(a, b, c)
        assert m.restrict(f, 0, True) == b
        assert m.restrict(f, 0, False) == c
        assert m.restrict(f, 2, True) == m.or_(m.and_(a, b), m.not_(a))

    def test_restrict_untouched_var(self, m, abc):
        a, _, _ = abc
        assert m.restrict(a, 2, True) == a

    def test_restrict_many(self, m, abc):
        a, b, c = abc
        f = m.and_(a, m.or_(b, c))
        assert m.restrict_many(f, {0: True, 1: False}) == c
        assert m.restrict_many(f, {0: False}) == FALSE
        assert m.restrict_many(f, {}) == f

    def test_compose(self, m, abc):
        a, b, c = abc
        f = m.and_(a, b)
        # substitute b := c
        assert m.compose(f, 1, c) == m.and_(a, c)
        # substitute a := b|c
        g = m.compose(f, 0, m.or_(b, c))
        assert g == m.and_(m.or_(b, c), b)

    def test_compose_constant(self, m, abc):
        a, b, _ = abc
        f = m.xor(a, b)
        assert m.compose(f, 0, TRUE) == m.not_(b)
        assert m.compose(f, 0, FALSE) == b

    def test_exists(self, m, abc):
        a, b, c = abc
        f = m.and_(a, b)
        assert m.exists(f, [0]) == b
        assert m.exists(f, [0, 1]) == TRUE
        assert m.exists(f, []) == f

    def test_forall(self, m, abc):
        a, b, _ = abc
        f = m.or_(a, b)
        assert m.forall(f, [0]) == b
        assert m.forall(m.and_(a, b), [0]) == FALSE

    def test_support(self, m, abc):
        a, b, c = abc
        assert m.support(m.and_(a, c)) == {0, 2}
        assert m.support(TRUE) == set()
        assert m.support(m.xor(b, b)) == set()

    def test_node_count(self, m, abc):
        a, b, c = abc
        assert m.node_count(TRUE) == 0
        assert m.node_count(a) == 1
        assert m.node_count(m.and_(a, m.and_(b, c))) == 3

    def test_cofactors(self, m, abc):
        a, b, _ = abc
        f = m.and_(a, b)
        low, high = m.cofactors(f, 0)
        assert low == FALSE
        assert high == b
        low, high = m.cofactors(f, -5)  # above top: unchanged
        assert low == f and high == f


class TestIntrospection:
    def test_to_expr(self, m, abc):
        a, b, _ = abc
        assert m.to_expr(TRUE) == "1"
        assert m.to_expr(FALSE) == "0"
        assert m.to_expr(a) == "a"
        assert m.to_expr(m.not_(a)) == "!a"
        assert "ite" in m.to_expr(m.and_(a, b))

    def test_clear_caches_preserves_semantics(self, m, abc):
        a, b, _ = abc
        f = m.and_(a, b)
        m.clear_caches()
        assert m.and_(a, b) == f

    def test_check_node(self, m):
        a = m.new_var("a")
        m.check_node(a)
        with pytest.raises(BddError):
            m.check_node(10**9)
        with pytest.raises(BddError):
            m.check_node("nope")

    def test_total_nodes_grows(self, m, abc):
        a, b, c = abc
        before = m.total_nodes
        m.and_(a, m.or_(b, c))
        assert m.total_nodes > before


# The same tests on the pure-Python reference core.
TestBasicsReferenceCore = reference_core(TestBasics)
TestEvaluationReferenceCore = reference_core(TestEvaluation)
TestStructuralOpsReferenceCore = reference_core(TestStructuralOps)
TestIntrospectionReferenceCore = reference_core(TestIntrospection)
