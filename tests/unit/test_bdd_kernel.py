"""The native BDD kernel: build cache, fallback, memory ownership, and
manager-level equivalence with the pure-Python reference core."""

from __future__ import annotations

import gc
import random
import sys

import pytest

from repro.bdd import BddManager, TRUE, _kernel
from repro.bdd._pycore import PyCore
from repro.errors import BddError
from tests.bdd_cores import native_core, reference_core, use_core


@pytest.fixture
def fresh_status():
    """Restore the process's kernel status after a test that fakes it."""
    _kernel.native.cache_clear()
    yield
    _kernel.native.cache_clear()


def _churn(mgr, seed, steps=400):
    """A reproducible mix of every core operator; returns the results."""
    rng = random.Random(seed)
    pool = [mgr.new_var(f"v{i}") for i in range(8)]
    for _ in range(steps):
        op = rng.randrange(5)
        f, g, h = (rng.choice(pool) for _ in range(3))
        if op == 0:
            pool.append(mgr.and_(f, g))
        elif op == 1:
            pool.append(mgr.or_(f, g))
        elif op == 2:
            pool.append(mgr.xor(f, g))
        elif op == 3:
            pool.append(mgr.not_(f))
        else:
            pool.append(mgr.ite(f, g, h))
    return pool


class TestEquivalence:
    def test_same_nodes_and_counters_as_reference(self):
        managers = []
        for factory in (native_core, PyCore):
            with use_core(factory):
                mgr = BddManager()
                results = _churn(mgr, seed=7)
                mgr.collect()
                after_gc = _churn(mgr, seed=8, steps=100)
            managers.append((mgr, results, after_gc))
        (c, c_res, c_gc), (py, py_res, py_gc) = managers
        assert (c.kernel, py.kernel) == ("c", "python")
        assert c_res == py_res and c_gc == py_gc
        assert c.snapshot() == py.snapshot()
        c_stats, py_stats = c.cache_stats(), py.cache_stats()
        del c_stats["kernel"], py_stats["kernel"]
        del c_stats["gc_seconds"], py_stats["gc_seconds"]
        assert c_stats == py_stats

    def test_deep_chain_needs_no_recursion(self):
        with use_core(native_core):
            mgr = BddManager()
            depth = sys.getrecursionlimit() * 3
            variables = [mgr.new_var() for _ in range(depth)]
            chain = mgr.and_all(variables)
            assert mgr.node_count(mgr.not_(chain)) == depth

    def test_foreign_node_ids_raise(self):
        with use_core(native_core):
            mgr = BddManager()
            a = mgr.new_var()
            with pytest.raises(BddError):
                mgr.and_(a, 10 ** 6)
            with pytest.raises(BddError):
                mgr.ite(a, TRUE, 10 ** 6)


class TestMemory:
    def test_dropping_a_manager_frees_its_arena(self):
        native_core()  # skips when the native kernel is unavailable
        live = _kernel.native()[0].lib.bdd_live_kernels
        gc.collect()
        before = live()
        with use_core(native_core):
            mgr = BddManager()
        _churn(mgr, seed=3)
        assert live() == before + 1
        del mgr
        gc.collect()
        assert live() == before

    def test_allocation_failure_raises_and_leaves_a_usable_manager(self):
        with use_core(native_core):
            mgr = BddManager()
        a, b = mgr.new_var(), mgr.new_var()
        before = mgr.total_nodes
        with pytest.raises(MemoryError):
            mgr.inject_dead_nodes(2 ** 31)  # beyond the int32 id space
        assert mgr.total_nodes == before
        assert mgr.eval(mgr.and_(a, b), {0: True, 1: True})

    def test_restore_rejects_a_malformed_arena(self):
        with use_core(native_core):
            mgr = BddManager()
        _churn(mgr, seed=5, steps=50)
        image = mgr.snapshot()
        image["low"][-1] = len(image["low"])  # a child after its parent
        with pytest.raises(BddError):
            mgr.restore(image)
        image = mgr.snapshot()
        del image["high"][-1]
        with pytest.raises(BddError):
            mgr.restore(image)


class TestBuild:
    def test_compile_error_is_reported(self, tmp_path):
        pytest.importorskip("cffi", exc_type=ImportError)
        with pytest.raises(_kernel.KernelBuildError, match="compile failed"):
            _kernel.build(source="int broken = ;\n", cache_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []  # no partial artifacts

    def test_build_is_cached_by_source_hash(self, tmp_path):
        native_core()
        with open(_kernel.SOURCE_PATH, encoding="utf-8") as handle:
            source = handle.read()
        module = _kernel.build(source=source, cache_dir=str(tmp_path))
        built = [path.name for path in tmp_path.iterdir()]
        assert len(built) == 1 and built[0].startswith(module.__name__)
        again = _kernel.build(source=source, cache_dir=str(tmp_path))
        assert again.__name__ == module.__name__
        assert [path.name for path in tmp_path.iterdir()] == built
        edited = _kernel.build(source=source + "\n", cache_dir=str(tmp_path))
        assert edited.__name__ != module.__name__

    def test_failing_build_falls_back_and_reports(self, monkeypatch,
                                                  fresh_status):
        def broken(*args, **kwargs):
            raise _kernel.KernelBuildError("compile failed: no compiler")

        monkeypatch.setattr(_kernel, "build", broken)
        kind, reason = _kernel.status()
        assert kind == "python"
        assert "no compiler" in reason
        mgr = BddManager()
        assert mgr.kernel == "python"
        assert mgr.cache_stats()["kernel"] == "python"

    def test_missing_cffi_falls_back(self, monkeypatch, fresh_status):
        monkeypatch.setitem(sys.modules, "_cffi_backend", None)
        monkeypatch.setitem(sys.modules, "cffi", None)
        kind, reason = _kernel.status()
        assert kind == "python" and "cffi" in reason
        assert BddManager().kernel == "python"


class _Probe:
    def test_manager_core(self):
        assert BddManager().kernel == "python"


TestProbeReferenceCore = reference_core(_Probe)
