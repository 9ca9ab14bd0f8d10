"""Hash-consed reduced ordered binary decision diagrams.

Nodes are plain integers.  The two terminals are the constants
:data:`FALSE` (``0``) and :data:`TRUE` (``1``); internal nodes are ids
``>= 2`` indexing parallel arrays inside the owning
:class:`BddManager`.  Because the unique table enforces structural
sharing, two nodes represent the same Boolean function iff their ids
are equal — the property the simulator relies on to detect dead
execution paths (``control == FALSE``) in O(1).

The arena, the unique table and the ite/not/and/or/xor recursions live
in the manager's *core*: the native kernel (``_kernel.c``, built with
cffi) when it is available, else the pure-Python reference core
(:mod:`repro.bdd._pycore`).  Both create the same nodes in the same
order; everything in this module reads the arena only through the
core's per-node accessors or its bulk ``export``/``load``, so the
arena format is private to :mod:`repro.bdd`.

The manager deliberately avoids *reference counting*: symbolic
simulation creates and drops huge numbers of intermediate functions,
and per-operation count maintenance in pure Python costs more than it
saves at the scale this package targets.  Instead, memory is managed
at *safe points* with mark-and-sweep garbage collection
(:meth:`BddManager.collect`): holders of node ids register as *root
providers* (:meth:`register_root_provider`) or pin individual nodes
through the stable handle table (:meth:`ref`); a collection marks from
the registered roots, compacts the arena, rebuilds the unique table
and remaps every registered reference, so all held ids stay valid.

Variable order management comes in three flavours:

* :meth:`rebuild` — static reordering into a *fresh* manager (the
  original API, kept for standalone analyses);
* :meth:`reorder` — in-place reordering of *this* manager: live roots
  are re-expressed under the new order and every registered reference
  is remapped;
* :meth:`sift` — dynamic sifting (Rudell): each variable is moved
  through the order with adjacent-level swaps on a scratch copy of the
  live graph, bounded by ``sift_max_swap``/``sift_max_growth`` the way
  CUDD bounds its reordering passes, and the best order found is then
  applied with :meth:`reorder`.

``clear_caches`` can still be called to drop just the operator caches
between simulation phases if memory pressure matters.
"""

from __future__ import annotations

import time as _time
import weakref
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.bdd import _kernel
from repro.bdd._pycore import COUNTERS, FALSE, TRUE, PyCore
from repro.errors import BddError


def _new_core():
    """The core of a new manager: the native kernel when it can be
    loaded, else the reference core.  Tests replace this function to
    run on a chosen core."""
    module, _ = _kernel.native()
    return PyCore() if module is None else _kernel.CCore(module)


def _fail(code: int):
    """Raise for a negative native-kernel return code."""
    if code == -1:
        raise MemoryError("BDD kernel out of memory")
    raise BddError("not a node of this manager")


class BddRef:
    """A GC-stable reference to one node of a :class:`BddManager`.

    Raw node ids held outside the manager are invalidated by
    :meth:`BddManager.collect` and :meth:`BddManager.reorder` unless
    their holder participates in the root-provider protocol.  A
    ``BddRef`` (from :meth:`BddManager.ref`) is the lightweight
    alternative: the manager keeps a weak handle table and rewrites
    ``ref.node`` on every collection/reorder, so the reference both
    pins the node (it is a GC root) and stays valid across arena
    compactions.  Dropping the last strong reference to the handle
    un-pins the node automatically.
    """

    __slots__ = ("manager", "node", "__weakref__")

    def __init__(self, manager: "BddManager", node: int) -> None:
        self.manager = manager
        self.node = node

    def deref(self) -> int:
        """The current node id (valid until the next safe-point op)."""
        return self.node

    def __repr__(self) -> str:
        return f"BddRef({self.node})"


class BddManager:
    """Owner of a BDD node arena and its operator caches.

    All node ids returned by one manager are only meaningful to that
    manager.  Typical use::

        m = BddManager()
        a = m.new_var("a")
        b = m.new_var("b")
        f = m.and_(a, m.not_(b))
        assert m.eval(f, {0: True, 1: False})
    """

    def __init__(self) -> None:
        # Arena, unique table, computed tables and their hit/miss
        # counters (see repro.bdd._pycore for the interface).
        self._core = _new_core()
        # Interned constant FourVecs (terminal rails only, so entries
        # stay valid across GC and reordering).  Owned here because the
        # vector layer has no per-manager state of its own.
        self._const_vec_cache: Dict[Tuple[int, int, bool], object] = {}
        self._var_names: List[str] = []
        self._var_bdds: List[int] = []
        # --- word-level fast-path telemetry (repro.fourval.ops) -------
        # The four-valued operator layer dispatches to pure-integer
        # word-level implementations when operands are fully
        # concrete-known; it reports here so the concrete-hit ratio is
        # one place (the manager travels with every FourVec).
        self.fastpath = True          # SimOptions.no_fastpath clears it
        self._fp_word = 0             # whole operators done word-level
        self._fp_bits = 0             # per-bit constant short-circuits
        self._fp_sym = 0              # operators on the per-bit BDD path
        # --- memory management (safe-point operations) ----------------
        # Knobs are plain attributes so the kernel/CLI can configure a
        # manager after construction; ``None``/``False`` keep the
        # original append-only behaviour.
        self.gc_threshold: Optional[int] = None  # arena growth before GC
        self.dyn_reorder = False          # enable sifting at safe points
        self.reorder_growth = 2.0         # re-sift after this live growth
        self.sift_threshold = 4096        # min arena size worth sifting
        self.sift_max_swap = 1_000_000    # swap budget per sift (cf. CUDD)
        self.sift_max_growth = 1.2        # per-variable growth bound
        self.sift_max_vars = 1000         # variables sifted per pass
        self.sift_converge = False        # repeat passes until no gain
        self._handles: "weakref.WeakSet[BddRef]" = weakref.WeakSet()
        self._root_providers: List[object] = []
        self._last_gc_size = 0            # arena size after the last GC
        self._next_sift_at = 0            # arena size that re-arms sifting
        self._peak = 0                    # high-water mark across GCs
        self._gc_runs = 0
        self._gc_reclaimed = 0
        self._gc_seconds = 0.0
        self._reorder_runs = 0
        self._reorder_swaps = 0
        self._reorder_seconds = 0.0
        self._reorder_saved = 0
        # Variables forced to a constant by the resource guard
        # (level -> chosen value); keys follow the order on reorder().
        self._concretized: Dict[int, bool] = {}
        self._concretize_runs = 0
        self._concretize_seconds = 0.0

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------

    @property
    def var_count(self) -> int:
        """Number of variables created so far."""
        return len(self._var_names)

    def new_var(self, name: Optional[str] = None) -> int:
        """Create a fresh variable at the bottom of the order.

        Returns the BDD of the variable itself.  ``name`` is only used
        for diagnostics (:meth:`var_name`, :meth:`to_expr`).
        """
        level = len(self._var_names)
        self._var_names.append(name if name is not None else f"v{level}")
        node = self._mk(level, FALSE, TRUE)
        self._var_bdds.append(node)
        return node

    def var(self, level: int) -> int:
        """Return the BDD for the existing variable at ``level``."""
        try:
            return self._var_bdds[level]
        except IndexError:
            raise BddError(f"unknown variable level {level}") from None

    def var_name(self, level: int) -> str:
        """Return the diagnostic name of the variable at ``level``."""
        try:
            return self._var_names[level]
        except IndexError:
            raise BddError(f"unknown variable level {level}") from None

    def level_of(self, node: int) -> int:
        """Return the level (order position) of ``node``'s top variable."""
        return self._core.level(node)

    @property
    def kernel(self) -> str:
        """Which core runs this manager: ``"c"`` or ``"python"``."""
        return self._core.kind

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------

    def _mk(self, level: int, low: int, high: int) -> int:
        """Find-or-create the node ``(level, low, high)`` (reduced)."""
        node = self._core.mk(level, low, high)
        if node < 0:
            _fail(node)
        return node

    def cofactors(self, node: int, level: int) -> Tuple[int, int]:
        """Return the (low, high) cofactors of ``node`` w.r.t. ``level``.

        ``level`` must not be below ``node``'s top level.
        """
        core = self._core
        if core.level(node) == level:
            return core.low(node), core.high(node)
        return node, node

    # ------------------------------------------------------------------
    # core operators
    # ------------------------------------------------------------------

    #: opcodes for the specialized binary apply (see ``_apply2``)
    _OP_AND = 0
    _OP_OR = 1
    _OP_XOR = 2

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f·g + ¬f·h`` — the universal BDD operator.

        Implemented with an explicit stack (no Python recursion, so deep
        variable orders cannot hit the interpreter recursion limit) and
        with commutative-triple canonicalization: conjunction-shaped
        triples ``ite(f, g, 0)`` and disjunction-shaped triples
        ``ite(f, 1, h)`` are routed to the dedicated :meth:`and_` /
        :meth:`or_` recursions, whose operand-sorted two-key caches
        recognize ``ite(f, g, 0) == ite(g, f, 0)`` as one entry.
        """
        # Terminal and triple reductions (cheap canonicalization that
        # multiplies computed-table hit rates).
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == f:
            g = TRUE
        if h == f:
            h = FALSE
        if g == TRUE:
            if h == FALSE:
                return f
            return self.or_(f, h)
        if h == FALSE:
            return self.and_(f, g)
        node = self._core.ite(f, g, h)
        if node < 0:
            _fail(node)
        return node

    def not_(self, f: int) -> int:
        """Boolean complement (explicit stack; cached both directions)."""
        if f <= TRUE:
            return f ^ 1
        node = self._core.not_(f)
        if node < 0:
            _fail(node)
        return node

    def and_(self, f: int, g: int) -> int:
        """Conjunction — dedicated apply (operands sorted, own cache)."""
        if f > g:
            f, g = g, f
        if f == FALSE:
            return FALSE
        if f == TRUE or f == g:
            return g
        node = self._core.and_(f, g)
        if node < 0:
            _fail(node)
        return node

    def or_(self, f: int, g: int) -> int:
        """Disjunction — dedicated apply (operands sorted, own cache)."""
        if f > g:
            f, g = g, f
        if f == FALSE or f == g:
            return g
        if f == TRUE:
            return TRUE
        node = self._core.or_(f, g)
        if node < 0:
            _fail(node)
        return node

    def xor(self, f: int, g: int) -> int:
        """Exclusive or — dedicated apply (operands sorted, own cache)."""
        if f > g:
            f, g = g, f
        if f == FALSE:
            return g
        if f == g:
            return FALSE
        if f == TRUE:
            return self.not_(g)
        node = self._core.xor(f, g)
        if node < 0:
            _fail(node)
        return node

    def xnor(self, f: int, g: int) -> int:
        """Equivalence (complement of the shared xor cache entry)."""
        return self.not_(self.xor(f, g))

    def nand(self, f: int, g: int) -> int:
        """Negated conjunction."""
        return self.not_(self.and_(f, g))

    def nor(self, f: int, g: int) -> int:
        """Negated disjunction."""
        return self.not_(self.or_(f, g))

    def implies(self, f: int, g: int) -> int:
        """Implication ``f → g``."""
        return self.ite(f, g, TRUE)

    def and_all(self, nodes: Iterable[int]) -> int:
        """Conjunction of an iterable of functions (TRUE when empty).

        Reduces as a balanced tree rather than a linear fold: wide
        reductions combine neighbours pairwise, which keeps intermediate
        BDDs small and lets repeated subtrees hit the apply cache.
        Absorbing elements (FALSE) still exit early.
        """
        items: List[int] = []
        for node in nodes:
            if node == FALSE:
                return FALSE
            if node != TRUE:
                items.append(node)
        if not items:
            return TRUE
        while len(items) > 1:
            paired: List[int] = []
            for i in range(0, len(items) - 1, 2):
                result = self.and_(items[i], items[i + 1])
                if result == FALSE:
                    return FALSE
                paired.append(result)
            if len(items) & 1:
                paired.append(items[-1])
            items = paired
        return items[0]

    def or_all(self, nodes: Iterable[int]) -> int:
        """Disjunction of an iterable of functions (FALSE when empty).

        Balanced-tree reduction; see :meth:`and_all`.
        """
        items: List[int] = []
        for node in nodes:
            if node == TRUE:
                return TRUE
            if node != FALSE:
                items.append(node)
        if not items:
            return FALSE
        while len(items) > 1:
            paired: List[int] = []
            for i in range(0, len(items) - 1, 2):
                result = self.or_(items[i], items[i + 1])
                if result == TRUE:
                    return TRUE
                paired.append(result)
            if len(items) & 1:
                paired.append(items[-1])
            items = paired
        return items[0]

    # ------------------------------------------------------------------
    # restriction / composition / quantification
    # ------------------------------------------------------------------

    def restrict(self, f: int, level: int, value: bool) -> int:
        """Cofactor ``f`` with the variable at ``level`` fixed to ``value``."""
        return self._restrict(f, level, bool(value), {})

    def _restrict(
        self, f: int, level: int, value: bool, memo: Dict[int, int]
    ) -> int:
        core = self._core
        node_level = core.level(f)
        if node_level > level:
            return f
        cached = memo.get(f)
        if cached is not None:
            return cached
        if node_level == level:
            result = core.high(f) if value else core.low(f)
        else:
            low = self._restrict(core.low(f), level, value, memo)
            high = self._restrict(core.high(f), level, value, memo)
            result = self._mk(node_level, low, high)
        memo[f] = result
        return result

    def restrict_many(self, f: int, assignment: Dict[int, bool]) -> int:
        """Cofactor ``f`` under a partial assignment ``{level: value}``."""
        if not assignment:
            return f
        return self._restrict_many(f, assignment, {})

    def _restrict_many(
        self, f: int, assignment: Dict[int, bool], memo: Dict[int, int]
    ) -> int:
        if f <= TRUE:
            return f
        cached = memo.get(f)
        if cached is not None:
            return cached
        core = self._core
        level = core.level(f)
        value = assignment.get(level)
        if value is None:
            low = self._restrict_many(core.low(f), assignment, memo)
            high = self._restrict_many(core.high(f), assignment, memo)
            result = self._mk(level, low, high)
        elif value:
            result = self._restrict_many(core.high(f), assignment, memo)
        else:
            result = self._restrict_many(core.low(f), assignment, memo)
        memo[f] = result
        return result

    def compose(self, f: int, level: int, g: int) -> int:
        """Substitute the function ``g`` for the variable at ``level`` in ``f``."""
        return self._compose(f, level, g, {})

    def _compose(self, f: int, level: int, g: int, memo: Dict[int, int]) -> int:
        core = self._core
        node_level = core.level(f)
        if node_level > level:
            return f
        cached = memo.get(f)
        if cached is not None:
            return cached
        if node_level == level:
            result = self.ite(g, core.high(f), core.low(f))
        else:
            low = self._compose(core.low(f), level, g, memo)
            high = self._compose(core.high(f), level, g, memo)
            result = self.ite(self.var(node_level), high, low)
        memo[f] = result
        return result

    def exists(self, f: int, levels: Iterable[int]) -> int:
        """Existentially quantify the variables at ``levels`` out of ``f``."""
        level_set = frozenset(levels)
        if not level_set:
            return f
        return self._exists(f, level_set, {})

    def _exists(self, f: int, levels: frozenset, memo: Dict[int, int]) -> int:
        if f <= TRUE:
            return f
        cached = memo.get(f)
        if cached is not None:
            return cached
        core = self._core
        level = core.level(f)
        low = self._exists(core.low(f), levels, memo)
        high = self._exists(core.high(f), levels, memo)
        if level in levels:
            result = self.or_(low, high)
        else:
            result = self._mk(level, low, high)
        memo[f] = result
        return result

    def forall(self, f: int, levels: Iterable[int]) -> int:
        """Universally quantify the variables at ``levels`` out of ``f``."""
        return self.not_(self.exists(self.not_(f), levels))

    # ------------------------------------------------------------------
    # evaluation / satisfiability
    # ------------------------------------------------------------------

    def eval(self, f: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate ``f`` under a total assignment ``{level: value}``.

        Variables missing from ``assignment`` default to ``False`` — the
        convention used when completing an error-trace witness (don't
        care bits are reported as zero, like the paper's resimulation).
        """
        core = self._core
        while f > TRUE:
            if assignment.get(core.level(f), False):
                f = core.high(f)
            else:
                f = core.low(f)
        return f == TRUE

    def sat_one(self, f: int) -> Optional[Dict[int, bool]]:
        """Return one satisfying (partial) assignment, or ``None``.

        Only the variables on the chosen path appear in the result;
        absent variables are don't-cares.
        """
        if f == FALSE:
            return None
        core = self._core
        cube: Dict[int, bool] = {}
        while f > TRUE:
            high = core.high(f)
            if high != FALSE:
                cube[core.level(f)] = True
                f = high
            else:
                cube[core.level(f)] = False
                f = core.low(f)
        return cube

    def sat_count(self, f: int, nvars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables.

        ``nvars`` defaults to the total number of manager variables.
        """
        if nvars is None:
            nvars = self.var_count
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << nvars
        memo: Dict[int, int] = {}
        core = self._core

        def eff_level(node: int) -> int:
            return nvars if node <= TRUE else core.level(node)

        def count(node: int) -> int:
            # Satisfying assignments over the variables in
            # [level(node), nvars); terminals sit at level nvars.
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            cached = memo.get(node)
            if cached is None:
                level = core.level(node)
                low, high = core.low(node), core.high(node)
                cached = count(low) * (1 << (eff_level(low) - level - 1)) + count(
                    high
                ) * (1 << (eff_level(high) - level - 1))
                memo[node] = cached
            return cached

        # Variables ordered above the root are free choices.
        return count(f) * (1 << core.level(f))

    def all_sat(self, f: int, levels: Optional[Sequence[int]] = None) -> Iterator[Dict[int, bool]]:
        """Yield every satisfying assignment of ``f``.

        When ``levels`` is given, each yielded assignment is total over
        exactly those levels (don't-cares expanded); otherwise partial
        path assignments are yielded.
        """
        if f == FALSE:
            return
        if levels is None:
            yield from self._all_paths(f, {})
            return
        level_list = list(levels)

        def expand(index: int, cube: Dict[int, bool]) -> Iterator[Dict[int, bool]]:
            if index == len(level_list):
                yield dict(cube)
                return
            level = level_list[index]
            if level in cube:
                yield from expand(index + 1, cube)
                return
            for value in (False, True):
                cube[level] = value
                yield from expand(index + 1, cube)
                del cube[level]

        for path in self._all_paths(f, {}):
            yield from expand(0, path)

    def _all_paths(self, f: int, cube: Dict[int, bool]) -> Iterator[Dict[int, bool]]:
        if f == FALSE:
            return
        if f == TRUE:
            yield dict(cube)
            return
        core = self._core
        level = core.level(f)
        cube[level] = False
        yield from self._all_paths(core.low(f), cube)
        cube[level] = True
        yield from self._all_paths(core.high(f), cube)
        del cube[level]

    def support(self, f: int) -> Set[int]:
        """Set of variable levels ``f`` depends on."""
        core = self._core
        seen: Set[int] = set()
        support: Set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            support.add(core.level(node))
            stack.append(core.low(node))
            stack.append(core.high(node))
        return support

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def node_count(self, f: int) -> int:
        """Number of internal nodes in ``f`` (terminals excluded)."""
        core = self._core
        seen: Set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            stack.append(core.low(node))
            stack.append(core.high(node))
        return len(seen)

    @property
    def total_nodes(self) -> int:
        """Nodes currently in the arena (a growth metric).

        Between collections this grows append-only; :meth:`collect`
        compacts it back down to the live count.
        """
        return self._core.size() - 2

    @property
    def peak_nodes(self) -> int:
        """High-water mark of the arena across collections."""
        current = self._core.size() - 2
        return self._peak if self._peak > current else current

    def _counters(self) -> Dict[str, int]:
        """The core's cache hit/miss counters by name.

        A miss is counted once per computed-table entry stored (a not
        miss stores the complement pair); hits are counted only on the
        cache fast path, and terminal shortcuts that never consult a
        cache are counted by neither side.  Dropping the caches (GC,
        reorder, :meth:`clear_caches`) keeps the counts.
        """
        return dict(zip(COUNTERS, self._core.counters()))

    @property
    def ite_cache_hits(self) -> int:
        return self._counters()["ite_hits"]

    @property
    def ite_cache_misses(self) -> int:
        return self._counters()["ite_misses"]

    @property
    def not_cache_hits(self) -> int:
        return self._counters()["not_hits"]

    @property
    def not_cache_misses(self) -> int:
        return self._counters()["not_misses"]

    @property
    def apply_cache_hits(self) -> int:
        """Hits across the specialized and/or/xor apply caches."""
        c = self._counters()
        return c["and_hits"] + c["or_hits"] + c["xor_hits"]

    @property
    def apply_cache_misses(self) -> int:
        """Misses across the specialized and/or/xor apply caches."""
        c = self._counters()
        return c["and_misses"] + c["or_misses"] + c["xor_misses"]

    @property
    def fastpath_word_ops(self) -> int:
        """Operators the word-level (fully concrete) fast path handled."""
        return self._fp_word

    @property
    def fastpath_bit_shortcuts(self) -> int:
        """Per-bit constant-cofactor short-circuits on mixed operands."""
        return self._fp_bits

    @property
    def fastpath_symbolic_ops(self) -> int:
        """Operators that fell through to the per-bit BDD path."""
        return self._fp_sym

    def cache_stats(self) -> Dict[str, object]:
        """Cache/arena counters as a flat dict (repro.obs schema).

        Hit rates are fractions in [0, 1]; ``nodes``/``peak_nodes``
        count internal nodes (terminals excluded); ``kernel`` names the
        core (``c`` or ``python``).
        """
        c = self._counters()
        ite_hits, ite_misses = c["ite_hits"], c["ite_misses"]
        not_hits, not_misses = c["not_hits"], c["not_misses"]
        apply_hits = c["and_hits"] + c["or_hits"] + c["xor_hits"]
        apply_misses = c["and_misses"] + c["or_misses"] + c["xor_misses"]
        ite_total = ite_hits + ite_misses
        not_total = not_hits + not_misses
        apply_total = apply_hits + apply_misses
        fp_total = self._fp_word + self._fp_sym
        return {
            "kernel": self._core.kind,
            "ite_hits": ite_hits,
            "ite_misses": ite_misses,
            "ite_hit_rate": ite_hits / ite_total if ite_total else 0.0,
            "not_hits": not_hits,
            "not_misses": not_misses,
            "not_hit_rate": not_hits / not_total if not_total else 0.0,
            "apply_hits": apply_hits,
            "apply_misses": apply_misses,
            "apply_hit_rate": apply_hits / apply_total if apply_total else 0.0,
            "fastpath_word_ops": self._fp_word,
            "fastpath_bit_shortcuts": self._fp_bits,
            "fastpath_symbolic_ops": self._fp_sym,
            "fastpath_word_ratio": self._fp_word / fp_total if fp_total
            else 0.0,
            "nodes": self.total_nodes,
            "peak_nodes": self.peak_nodes,
            "var_count": self.var_count,
            "gc_runs": self._gc_runs,
            "gc_reclaimed": self._gc_reclaimed,
            "gc_seconds": self._gc_seconds,
            "reorder_runs": self._reorder_runs,
            "reorder_swaps": self._reorder_swaps,
            "reorder_seconds": self._reorder_seconds,
            "reorder_saved": self._reorder_saved,
            "concretize_runs": self._concretize_runs,
            "concretize_seconds": self._concretize_seconds,
        }

    def attach_metrics(self, registry) -> None:
        """Register live gauges on a :class:`repro.obs.MetricsRegistry`.

        Gauges are callback-backed: they read the manager at snapshot
        time, so attaching costs nothing on the operator hot paths.
        """
        pairs = (
            ("bdd.nodes", "internal nodes in the arena",
             lambda: self.total_nodes),
            ("bdd.peak_nodes", "arena high-water mark across GCs",
             lambda: self.peak_nodes),
            ("bdd.vars", "BDD variables created",
             lambda: self.var_count),
            ("bdd.ite_cache.hits", "ite computed-table hits",
             lambda: self.ite_cache_hits),
            ("bdd.ite_cache.misses", "ite computed-table misses",
             lambda: self.ite_cache_misses),
            ("bdd.not_cache.hits", "not cache hits",
             lambda: self.not_cache_hits),
            ("bdd.not_cache.misses", "not cache misses",
             lambda: self.not_cache_misses),
            ("bdd.apply.hits", "and/or/xor apply-cache hits",
             lambda: self.apply_cache_hits),
            ("bdd.apply.misses", "and/or/xor apply-cache misses",
             lambda: self.apply_cache_misses),
            ("bdd.apply.and.hits", "and apply-cache hits",
             lambda: self._counters()["and_hits"]),
            ("bdd.apply.and.misses", "and apply-cache misses",
             lambda: self._counters()["and_misses"]),
            ("bdd.apply.or.hits", "or apply-cache hits",
             lambda: self._counters()["or_hits"]),
            ("bdd.apply.or.misses", "or apply-cache misses",
             lambda: self._counters()["or_misses"]),
            ("bdd.apply.xor.hits", "xor apply-cache hits",
             lambda: self._counters()["xor_hits"]),
            ("bdd.apply.xor.misses", "xor apply-cache misses",
             lambda: self._counters()["xor_misses"]),
            ("bdd.gc.runs", "mark-and-sweep collections",
             lambda: self._gc_runs),
            ("bdd.gc.reclaimed_nodes", "dead nodes reclaimed by GC",
             lambda: self._gc_reclaimed),
            ("bdd.gc.live_nodes", "live nodes after the last GC",
             lambda: self._last_gc_size),
            ("bdd.gc.seconds", "wall time spent collecting",
             lambda: self._gc_seconds),
            ("bdd.reorder.runs", "in-place reorders applied",
             lambda: self._reorder_runs),
            ("bdd.reorder.swaps", "adjacent-level swaps while sifting",
             lambda: self._reorder_swaps),
            ("bdd.reorder.seconds", "wall time spent reordering",
             lambda: self._reorder_seconds),
            ("bdd.reorder.nodes_saved", "live-node reduction from sifting",
             lambda: self._reorder_saved),
        )
        for name, help_, fn in pairs:
            registry.gauge(name, help_).set_function(fn)
        registry.gauge("bdd.kernel", "BDD core running this manager "
                       "(1 for the named core)", labels=("core",)).labels(
            core=self._core.kind).set(1)

    def instrument_latency(self, registry, sample_every: int = 64) -> None:
        """Record per-operation latency histograms (opt-in, sampled).

        Wraps :meth:`ite`, :meth:`not_` and the specialized apply
        operators (:meth:`and_`/:meth:`or_`/:meth:`xor`) on *this
        instance* so every ``sample_every``-th top-level call is timed
        into ``bdd.op_seconds{op=...}``.  Nested inner calls (e.g. the
        ``and_`` an ``ite`` delegates a conjunction-shaped triple to)
        pass through untimed (a shared depth counter), so a sample
        measures one whole operator application.  Only instrumented
        managers pay the wrapper cost; plain managers are untouched.
        """
        import time as _time

        hist = registry.histogram(
            "bdd.op_seconds", "top-level BDD operator latency",
            labels=("op",),
        )
        state = {"depth": 0, "n": 0}

        def timed(orig, op_hist):
            def wrapper(*args: int) -> int:
                if state["depth"]:
                    return orig(*args)
                state["n"] += 1
                if state["n"] % sample_every:
                    state["depth"] = 1
                    try:
                        return orig(*args)
                    finally:
                        state["depth"] = 0
                started = _time.perf_counter()
                state["depth"] = 1
                try:
                    return orig(*args)
                finally:
                    state["depth"] = 0
                    op_hist.observe(_time.perf_counter() - started)
            return wrapper

        for name, attr in (("ite", "ite"), ("not", "not_"),
                           ("and", "and_"), ("or", "or_"), ("xor", "xor")):
            orig = getattr(BddManager, attr).__get__(self)
            setattr(self, attr, timed(orig, hist.labels(op=name)))

    def clear_caches(self) -> None:
        """Drop the operator caches (the unique table is kept)."""
        self._core.clear_caches()

    def to_expr(self, f: int) -> str:
        """Render ``f`` as a nested ``ite(...)`` string for debugging."""
        if f == FALSE:
            return "0"
        if f == TRUE:
            return "1"
        core = self._core
        name = self._var_names[core.level(f)]
        low = self.to_expr(core.low(f))
        high = self.to_expr(core.high(f))
        if low == "0" and high == "1":
            return name
        if low == "1" and high == "0":
            return f"!{name}"
        return f"ite({name}, {high}, {low})"

    def rebuild(
        self, order: Sequence[int], roots: Iterable[int]
    ) -> Tuple["BddManager", Dict[int, int]]:
        """Re-express ``roots`` in a fresh manager with a new variable order.

        ``order`` lists existing levels in their new order (a
        permutation of ``range(var_count)``).  Returns the new manager
        and a map from each requested old root to its translated node.

        This is *static* reordering: the paper's experiments ran with
        dynamic reordering disabled, but order still matters enormously
        (see ``benchmarks/bench_ordering.py`` for the classic adder
        example), and callers that know their structure — e.g.
        interleaving operand bits — can use this between phases.
        """
        order = list(order)
        if sorted(order) != list(range(self.var_count)):
            raise BddError(
                f"order must be a permutation of range({self.var_count})"
            )
        new = BddManager()
        new_var_bdd: Dict[int, int] = {}
        for old_level in order:
            new_var_bdd[old_level] = new.new_var(self._var_names[old_level])
        memo: Dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
        core = self._core

        def translate(node: int) -> int:
            cached = memo.get(node)
            if cached is not None:
                return cached
            low = translate(core.low(node))
            high = translate(core.high(node))
            result = new.ite(new_var_bdd[core.level(node)], high, low)
            memo[node] = result
            return result

        return new, {root: translate(root) for root in set(roots)}

    # ------------------------------------------------------------------
    # garbage collection / in-place reordering (safe-point operations)
    # ------------------------------------------------------------------
    #
    # Node ids are arena indices, so compaction and in-place reordering
    # renumber them.  Both operations are therefore only legal at *safe
    # points* — when no raw ids live in Python locals of an in-flight
    # operator (the kernel calls them between time steps).  Everything
    # that holds ids across a safe point must be reachable through the
    # handle table (:meth:`ref`) or a registered root provider.

    def ref(self, node: int) -> BddRef:
        """Pin ``node`` with a GC-stable handle (see :class:`BddRef`)."""
        handle = BddRef(self, node)
        self._handles.add(handle)
        return handle

    def register_root_provider(self, provider) -> None:
        """Register an object enumerating live roots for GC/reordering.

        ``provider`` must implement ``bdd_roots() -> Iterable[int]``
        (every node id it holds) and ``bdd_remap(lookup, level_map)``
        where ``lookup`` is a callable taking each previously-yielded
        old id to its new id and ``level_map`` — ``None`` for a pure
        collection — maps old variable levels to their new order
        positions (for state keyed by level, e.g. witness cubes).
        """
        self._root_providers.append(provider)

    def unregister_root_provider(self, provider) -> None:
        """Remove a previously registered root provider."""
        self._root_providers.remove(provider)

    def _iter_roots(self) -> Iterator[int]:
        """Every externally live node: variables, handles, providers."""
        yield from self._var_bdds
        for handle in list(self._handles):
            yield handle.node
        for provider in self._root_providers:
            yield from provider.bdd_roots()

    def collect(self) -> int:
        """Mark-and-sweep: compact the arena down to the live nodes.

        Marks from the registered roots, slides the survivors down
        (children always precede parents in the arena, so one ascending
        pass suffices), rebuilds the unique table, drops the operator
        caches and remaps every handle and root provider.  Returns the
        number of nodes reclaimed.
        """
        started = _time.perf_counter()
        levels, lows, highs = self._core.export()
        size = len(levels)
        if size - 2 > self._peak:
            self._peak = size - 2
        marked = bytearray(size)
        marked[FALSE] = marked[TRUE] = 1
        stack: List[int] = []
        handles = list(self._handles)
        for root in self._iter_roots():
            if not marked[root]:
                marked[root] = 1
                stack.append(root)
        while stack:
            node = stack.pop()
            child = lows[node]
            if not marked[child]:
                marked[child] = 1
                stack.append(child)
            child = highs[node]
            if not marked[child]:
                marked[child] = 1
                stack.append(child)
        # Compact in place: ids only ever shrink, and a node's children
        # have smaller ids than the node itself, so by the time a node
        # is moved its children's new ids are already final.
        node_map = list(range(size))
        write = 2
        for node in range(2, size):
            if marked[node]:
                node_map[node] = write
                levels[write] = levels[node]
                lows[write] = node_map[lows[node]]
                highs[write] = node_map[highs[node]]
                write += 1
        del levels[write:]
        del lows[write:]
        del highs[write:]
        # Loading rebuilds the unique table and drops the computed
        # tables, which are keyed by old ids (the counters stay).
        self._core.load(levels, lows, highs)
        self._var_bdds = [node_map[node] for node in self._var_bdds]
        for handle in handles:
            handle.node = node_map[handle.node]
        lookup = node_map.__getitem__
        for provider in self._root_providers:
            provider.bdd_remap(lookup, None)
        reclaimed = size - write
        self._last_gc_size = write - 2
        self._gc_runs += 1
        self._gc_reclaimed += reclaimed
        self._gc_seconds += _time.perf_counter() - started
        return reclaimed

    def gc_due(self) -> bool:
        """True when the arena grew ``gc_threshold`` nodes since last GC."""
        threshold = self.gc_threshold
        return (threshold is not None
                and self._core.size() - 2 - self._last_gc_size >= threshold)

    def maybe_collect(self) -> int:
        """Collect iff :meth:`gc_due`; a no-op with the default config.

        The kernel calls this at every safe point.
        """
        if not self.gc_due():
            return 0
        return self.collect()

    def reorder(self, order: Sequence[int]) -> None:
        """Re-express the live graph of *this* manager under a new order.

        ``order`` lists existing levels in their new order (a
        permutation of ``range(var_count)``), exactly like
        :meth:`rebuild` — but instead of returning a fresh manager, the
        rebuilt arena replaces this manager's own, dead nodes are
        dropped as a side effect, and every handle and root provider is
        remapped (``level_map`` tells providers where each old level
        went, for anything keyed by variable level).  Node ids held
        outside the root protocol are invalidated.
        """
        order = list(order)
        if sorted(order) != list(range(self.var_count)):
            raise BddError(
                f"order must be a permutation of range({self.var_count})"
            )
        started = _time.perf_counter()
        before = self._core.size() - 2
        if before > self._peak:
            self._peak = before
        # Translation runs ite() on a scratch manager; its recursion is
        # bounded by the variable count, which can exceed the default
        # interpreter limit on long runs with many symbolic inputs.
        import sys
        need = 2 * self.var_count + 200
        if sys.getrecursionlimit() < need:
            sys.setrecursionlimit(need)
        scratch = BddManager()
        var_bdd = [0] * self.var_count
        level_map = [0] * self.var_count
        for pos, old_level in enumerate(order):
            var_bdd[old_level] = scratch.new_var(self._var_names[old_level])
            level_map[old_level] = pos
        levels, lows, highs = self._core.export()
        memo: Dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
        handles = list(self._handles)
        roots = list(self._iter_roots())
        stack: List[int] = []
        for root in roots:
            if root in memo:
                continue
            stack.append(root)
            while stack:
                node = stack[-1]
                if node in memo:
                    stack.pop()
                    continue
                low, high = lows[node], highs[node]
                done = True
                if high not in memo:
                    stack.append(high)
                    done = False
                if low not in memo:
                    stack.append(low)
                    done = False
                if done:
                    memo[node] = scratch.ite(
                        var_bdd[levels[node]], memo[high], memo[low]
                    )
                    stack.pop()
        # Translation litters the scratch arena with superseded
        # intermediate ite results, and translations of *internal* old
        # nodes need not be subgraphs of the translated roots under
        # the new order.  Compact the scratch arena pinning only the
        # external roots, so the adopted arena is exactly their live
        # graph.
        pin = _ReorderPin({root: memo[root] for root in roots})
        scratch.register_root_provider(pin)
        scratch.collect()
        root_map = pin.memo
        # Adopt the scratch core wholesale (its computed tables were
        # dropped by the collect above).  This manager's counters carry
        # over: translation work in the scratch manager is maintenance,
        # not workload, so the scratch counters are deliberately dropped.
        counters = self._core.counters()
        self._core = scratch._core
        self._core.set_counters(counters)
        self._var_names = [self._var_names[old] for old in order]
        self._var_bdds = scratch._var_bdds
        for handle in handles:
            handle.node = root_map[handle.node]
        lookup = root_map.__getitem__
        for provider in self._root_providers:
            provider.bdd_remap(lookup, level_map)
        self._concretized = {
            level_map[level]: chosen
            for level, chosen in self._concretized.items()
        }
        self._last_gc_size = self._core.size() - 2
        self._reorder_runs += 1
        self._reorder_seconds += _time.perf_counter() - started

    def sift(self) -> int:
        """One round of dynamic sifting (Rudell); returns nodes saved.

        Collects first (sifting cost scales with live size), then moves
        each variable through the order with adjacent-level swaps on a
        scratch copy of the live graph — bounded by ``sift_max_swap``
        total swaps, ``sift_max_growth`` intermediate growth per
        variable and ``sift_max_vars`` candidates per pass, with
        ``sift_converge`` repeating passes while they improve, the same
        shape as CUDD's ``CUDD_REORDER_SIFT``/``_CONVERGE`` — and
        finally applies the best order found with :meth:`reorder`.
        """
        started = _time.perf_counter()
        self.collect()
        before = self._core.size() - 2
        saved = 0
        if self.var_count >= 2 and before > 0:
            space = _SiftSpace(self)
            space.run()
            self._reorder_swaps += space.swaps
            self._reorder_seconds += _time.perf_counter() - started
            if space.order != list(range(self.var_count)):
                self.reorder(space.order)  # adds its own time share
            saved = before - (self._core.size() - 2)
            if saved > 0:
                self._reorder_saved += saved
        else:
            self._reorder_seconds += _time.perf_counter() - started
        live = self._core.size() - 2
        self._next_sift_at = int(live * self.reorder_growth)
        return saved

    def sift_due(self) -> bool:
        """True when dynamic sifting is armed and the arena outgrew it."""
        if not self.dyn_reorder:
            return False
        trigger = self._next_sift_at
        if trigger < self.sift_threshold:
            trigger = self.sift_threshold
        return self._core.size() - 2 >= trigger

    def maybe_sift(self) -> int:
        """Sift iff :meth:`sift_due`.

        After each sift the trigger re-arms at ``live_nodes *
        reorder_growth`` (never below ``sift_threshold``), so sifting
        runs when the live graph has grown by the configured ratio —
        not on every safe point.
        """
        if not self.sift_due():
            return 0
        return self.sift()

    # ------------------------------------------------------------------
    # concretization (graceful degradation under memory pressure)
    # ------------------------------------------------------------------

    @property
    def concretized(self) -> Dict[int, bool]:
        """Levels the guard has forced to a constant (level -> value)."""
        return dict(self._concretized)

    def _restricted_size(
        self, roots: Sequence[int], level: int, value: bool
    ) -> int:
        """Live node count if every root were cofactored at ``level``.

        Builds the restricted functions in the arena (the junk is
        reclaimed by the ``collect`` that follows a concretization) and
        counts the unique internal nodes reachable from them.
        """
        memo: Dict[int, int] = {}
        seen: Set[int] = set()
        stack: List[int] = []
        for root in roots:
            restricted = self._restrict(root, level, value, memo)
            if restricted > TRUE and restricted not in seen:
                seen.add(restricted)
                stack.append(restricted)
        low = self._core.low
        high = self._core.high
        while stack:
            node = stack.pop()
            for child in (low(node), high(node)):
                if child > TRUE and child not in seen:
                    seen.add(child)
                    stack.append(child)
        return len(seen)

    def concretize(self, level: int, value: Optional[bool] = None) -> bool:
        """Fix the variable at ``level`` to a constant in every live root.

        The graceful-degradation lever (cf. Ryan & Sturton's selective
        concretization): every handle and root-provider reference is
        replaced by its cofactor with ``level`` forced to ``value``,
        then the arena is collected.  Restricting *all* roots with the
        same assignment keeps the state sound — path controls, value
        rails, violation conditions and the ``$random`` invocation
        vectors are all conditioned on the same choice, so error traces
        built afterwards remain witnesses of real runs (the dropped
        half of the space is simply no longer explored).

        When ``value`` is ``None`` the smaller cofactor is chosen by
        sizing both restrictions.  This is a safe-point operation: raw
        node ids outside the root protocol are invalidated.  Returns
        the value chosen.
        """
        if not 0 <= level < self.var_count:
            raise BddError(f"unknown variable level {level}")
        started = _time.perf_counter()
        # Restriction recursion is bounded by the variable count, like
        # reorder translation.
        import sys
        need = 2 * self.var_count + 200
        if sys.getrecursionlimit() < need:
            sys.setrecursionlimit(need)
        handles = list(self._handles)
        roots: List[int] = [handle.node for handle in handles]
        for provider in self._root_providers:
            roots.extend(provider.bdd_roots())
        if value is None:
            high_size = self._restricted_size(roots, level, True)
            low_size = self._restricted_size(roots, level, False)
            value = high_size < low_size
        value = bool(value)
        memo: Dict[int, int] = {}

        def lookup(node: int) -> int:
            return self._restrict(node, level, value, memo)

        for handle in handles:
            handle.node = lookup(handle.node)
        for provider in self._root_providers:
            provider.bdd_remap(lookup, None)
        self._concretized[level] = value
        self._concretize_runs += 1
        # The variable's own node survives (it is pinned by the
        # manager's variable table), so levels stay stable; everything
        # the sizing pass and the restriction built gets swept here.
        self.collect()
        self._concretize_seconds += _time.perf_counter() - started
        return value

    def check_node(self, f: int) -> None:
        """Validate that ``f`` is a node of this manager (for API misuse)."""
        if not isinstance(f, int) or f < 0 or f >= self._core.size():
            raise BddError(f"not a node of this manager: {f!r}")

    # ------------------------------------------------------------------
    # arena images, per-level sizes, fault injection
    # ------------------------------------------------------------------

    def level_sizes(self) -> List[int]:
        """Arena nodes per variable level (index = level).

        Dead nodes count until the next :meth:`collect` reclaims them.
        """
        sizes = [0] * self.var_count
        levels = self._core.export()[0]
        for node in range(2, len(levels)):
            sizes[levels[node]] += 1
        return sizes

    def inject_dead_nodes(self, count: int) -> None:
        """Append ``count`` unreachable nodes to the arena (fault injection).

        The rows have an internal node's shape but no unique-table
        entry and no parent, so they only inflate the arena the way a
        runaway operator would; the next :meth:`collect` reclaims them.
        """
        level = max(0, self.var_count - 1)
        self._core.append_raw(level, FALSE, TRUE, count)

    def snapshot(self) -> Dict[str, object]:
        """The arena and the manager's bookkeeping, as builtins.

        This is the ``mgr`` image of a ``REPROCKPT`` v1 checkpoint:
        node ids held anywhere stay valid in a manager that
        :meth:`restore` s it.
        """
        levels, lows, highs = self._core.export()
        return {
            "level": levels,
            "low": lows,
            "high": highs,
            "var_names": list(self._var_names),
            "var_bdds": list(self._var_bdds),
            "concretized": dict(self._concretized),
            "last_gc_size": self._last_gc_size,
            "next_sift_at": self._next_sift_at,
            "peak": self._peak,
        }

    def restore(self, image: Dict[str, object]) -> None:
        """Replace this manager's arena and bookkeeping with ``image``.

        ``image`` comes from :meth:`snapshot`.  The computed tables
        start empty and every cache and fast-path counter restarts
        from zero.  Raises :class:`BddError` for an arena whose rows
        are malformed (native core).
        """
        self._core.load(list(image["level"]), list(image["low"]),
                        list(image["high"]))
        self._core.set_counters([0] * len(COUNTERS))
        self._fp_word = self._fp_bits = self._fp_sym = 0
        self._var_names = list(image["var_names"])
        self._var_bdds = list(image["var_bdds"])
        self._concretized = {int(level): bool(value)
                             for level, value in image["concretized"].items()}
        self._last_gc_size = image["last_gc_size"]
        self._next_sift_at = image["next_sift_at"]
        self._peak = image["peak"]


class _ReorderPin:
    """Pins translated roots while a reorder scratch arena compacts.

    ``memo`` maps old-manager ids to scratch ids; the scratch
    manager's own :meth:`BddManager.collect` rewrites the scratch side
    through this provider so the mapping survives the compaction.
    """

    def __init__(self, memo: Dict[int, int]) -> None:
        self.memo = memo

    def bdd_roots(self) -> Iterable[int]:
        return self.memo.values()

    def bdd_remap(self, lookup, level_map) -> None:
        self.memo = {old: lookup(new) for old, new in self.memo.items()}


class _SiftSpace:
    """Scratch graph for dynamic sifting.

    A mutable copy of a (freshly collected, hence all-live) manager
    arena that supports the classic adjacent-level swap: exchanging
    order positions ``p`` and ``p+1`` only touches nodes at those two
    levels, so a swap costs O(nodes at p) and a full sift explores
    every position for a variable in O(arena) amortized.  Node ids
    never change here — nodes are relabeled and rewritten in place —
    so ``order`` (position → original level) is the only output; the
    owning manager applies it with :meth:`BddManager.reorder`.

    Unlike the manager itself, the scratch graph *is* reference
    counted (``parents``), because swaps must know when a node at the
    lower level dies; roots are pinned with an extra count.
    """

    def __init__(self, mgr: BddManager) -> None:
        self.level, self.low, self.high = mgr._core.export()
        size = len(self.level)
        self.nvars = mgr.var_count
        self.order = list(range(self.nvars))     # position -> orig level
        self.pos_of = list(range(self.nvars))    # orig level -> position
        self.buckets: List[Set[int]] = [set() for _ in range(self.nvars)]
        self.parents = [0] * size
        for node in range(2, size):
            self.buckets[self.level[node]].add(node)
            low, high = self.low[node], self.high[node]
            if low > TRUE:
                self.parents[low] += 1
            if high > TRUE:
                self.parents[high] += 1
        for root in mgr._iter_roots():
            if root > TRUE:
                self.parents[root] += 1          # pin
        self.unique: Dict[Tuple[int, int, int], int] = {
            (self.level[node], self.low[node], self.high[node]): node
            for node in range(2, size)
        }
        self.size = size - 2
        self.free: List[int] = []
        self.swaps = 0
        self.max_growth = mgr.sift_max_growth
        self.max_swap = mgr.sift_max_swap
        self.max_vars = mgr.sift_max_vars
        self.converge = mgr.sift_converge

    def swap(self, p: int) -> None:
        """Exchange the variables at order positions ``p`` and ``p+1``."""
        self.swaps += 1
        q = p + 1
        level = self.level
        low = self.low
        high = self.high
        unique = self.unique
        parents = self.parents
        bucket_p = self.buckets[p]
        bucket_q = self.buckets[q]
        upper = list(bucket_p)
        lower = list(bucket_q)
        for node in upper:
            del unique[(p, low[node], high[node])]
        for node in lower:
            del unique[(q, low[node], high[node])]
        # Classify the upper nodes *before* any relabeling: a node
        # interacts with the swap iff a child sits at the lower level.
        work = []
        solitary = []
        for node in upper:
            f0, f1 = low[node], high[node]
            f0w = level[f0] == q
            f1w = level[f1] == q
            if f0w or f1w:
                work.append((node, f0, f1, f0w, f1w))
            else:
                solitary.append(node)
        # Solitary upper nodes are independent of the rising variable:
        # they keep their children and simply move down one position.
        # Their keys go in first so re-expression can share them.
        for node in solitary:
            level[node] = q
            unique[(q, low[node], high[node])] = node
            bucket_p.discard(node)
            bucket_q.add(node)
        # Original lower nodes move up one position wholesale.  (Their
        # new keys cannot collide with re-expressed ones: these
        # children are all at positions >= p+2, a re-expressed node
        # always keeps at least one child at p+1.)
        for node in lower:
            level[node] = p
            unique[(p, low[node], high[node])] = node
            bucket_q.discard(node)
            bucket_p.add(node)
        pending: List[int] = []
        free = self.free

        def decref(node: int) -> None:
            if node > TRUE:
                parents[node] -= 1
                if parents[node] == 0:
                    pending.append(node)

        def mk_lower(lo: int, hi: int) -> int:
            # Find-or-create (q, lo, hi); the caller owns one reference
            # to the returned node.  Sharing with an existing node —
            # including one whose count just hit zero — revives it;
            # the sweep below re-checks counts for exactly that reason.
            if lo == hi:
                return lo
            key = (q, lo, hi)
            node = unique.get(key)
            if node is None:
                if free:
                    node = free.pop()
                    level[node] = q
                    low[node] = lo
                    high[node] = hi
                else:
                    node = len(level)
                    level.append(q)
                    low.append(lo)
                    high.append(hi)
                    parents.append(0)
                unique[key] = node
                bucket_q.add(node)
                if lo > TRUE:
                    parents[lo] += 1
                if hi > TRUE:
                    parents[hi] += 1
                self.size += 1
            return node

        # Re-express interacting nodes over the risen variable:
        #   ite(u, f1, f0) == ite(w, ite(u, f11, f01), ite(u, f10, f00))
        # The node keeps its id (parents above are untouched) but now
        # branches on w; its u-cofactors are fresh/shared lower nodes.
        for node, f0, f1, f0w, f1w in work:
            if f0w:
                f00, f01 = low[f0], high[f0]
            else:
                f00 = f01 = f0
            if f1w:
                f10, f11 = low[f1], high[f1]
            else:
                f10 = f11 = f1
            hi_node = mk_lower(f01, f11)
            if hi_node > TRUE:
                parents[hi_node] += 1
            lo_node = mk_lower(f00, f10)
            if lo_node > TRUE:
                parents[lo_node] += 1
            decref(f0)
            decref(f1)
            low[node] = lo_node
            high[node] = hi_node
            unique[(p, lo_node, hi_node)] = node
        # Sweep nodes orphaned by the re-expression (cascading to
        # their children), skipping any that sharing revived.
        buckets = self.buckets
        while pending:
            node = pending.pop()
            if parents[node] != 0 or level[node] < 0:
                continue
            key = (level[node], low[node], high[node])
            if unique.get(key) == node:
                del unique[key]
            buckets[level[node]].discard(node)
            decref(low[node])
            decref(high[node])
            level[node] = -1
            free.append(node)
            self.size -= 1
        u, w = self.order[p], self.order[q]
        self.order[p], self.order[q] = w, u
        self.pos_of[w] = p
        self.pos_of[u] = q

    def _sift_one(self, pos: int, budget: List[int]) -> None:
        """Move one variable through the order, settle at its best spot."""
        limit = int(self.size * self.max_growth) + 2
        best_size = self.size
        best_pos = pos
        cur = pos
        top = self.nvars - 1
        # Head for the nearer end first (fewer swaps wasted if the
        # sweep aborts on the growth limit).
        phases = ("up", "down") if pos <= top - pos else ("down", "up")
        for phase in phases:
            if phase == "up":
                while cur > 0 and budget[0] > 0 and self.size <= limit:
                    self.swap(cur - 1)
                    budget[0] -= 1
                    cur -= 1
                    if self.size < best_size:
                        best_size = self.size
                        best_pos = cur
            else:
                while cur < top and budget[0] > 0 and self.size <= limit:
                    self.swap(cur)
                    budget[0] -= 1
                    cur += 1
                    if self.size < best_size:
                        best_size = self.size
                        best_pos = cur
        # Return to the best position seen — off budget, since stopping
        # anywhere else would leave a worse order than we started with.
        while cur > best_pos:
            self.swap(cur - 1)
            cur -= 1
        while cur < best_pos:
            self.swap(cur)
            cur += 1

    def run(self) -> None:
        """Sift the largest levels first; optionally repeat to converge."""
        budget = [self.max_swap]
        while True:
            start_size = self.size
            candidates = sorted(
                range(self.nvars),
                key=lambda pos: len(self.buckets[pos]),
                reverse=True,
            )[: self.max_vars]
            # Track candidates by variable, not position: earlier
            # sifts shift the positions of later candidates.
            for var in [self.order[pos] for pos in candidates]:
                if budget[0] <= 0:
                    break
                self._sift_one(self.pos_of[var], budget)
            if not self.converge or budget[0] <= 0 or self.size >= start_size:
                break
