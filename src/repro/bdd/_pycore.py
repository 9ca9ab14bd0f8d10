"""The pure-Python reference core of :class:`repro.bdd.BddManager`.

A *core* owns a manager's node arena (parallel ``level``/``low``/
``high`` arrays), its unique table, the ite/not/and/or/xor recursions
with their computed tables, and the cache hit/miss counters.  The
manager keeps everything else (variables, handles, root providers, the
safe-point walkers) and talks to its core through one small interface,
implemented twice:

* :class:`PyCore` (this module) — the original Python hot path, kept
  as the reference the native kernel is tested against and used when
  the native kernel cannot be built;
* :class:`repro.bdd._kernel.CCore` — the same recursions in C.

Interface (both cores): ``kind``; ``ite``/``not_``/``and_``/``or_``/
``xor``/``mk`` returning a node id (the native core returns a negative
error code instead of raising; the manager maps it); per-node
accessors ``level``/``low``/``high``; ``size()``; bulk ``export()`` /
``load()`` for whole-arena passes; ``append_raw``; ``clear_caches``;
``counters()``/``set_counters()`` over :data:`COUNTERS`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

FALSE = 0
TRUE = 1

TERMINAL_LEVEL = 1 << 30

#: Counter slots of ``counters()``/``set_counters()`` (both cores).
COUNTERS = ("ite_hits", "ite_misses", "not_hits", "not_misses",
            "and_hits", "and_misses", "or_hits", "or_misses",
            "xor_hits", "xor_misses")


class PyCore:
    """Arena, unique table and operator recursions in pure Python."""

    kind = "python"

    def __init__(self) -> None:
        # Parallel node arrays; slots 0/1 are placeholders for terminals.
        self._level: List[int] = [TERMINAL_LEVEL, TERMINAL_LEVEL]
        self._low: List[int] = [0, 0]
        self._high: List[int] = [0, 0]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._not_cache: Dict[int, int] = {}
        # Specialized apply layer: and/or/xor run dedicated binary
        # recursions with their own (smaller-keyed, commutatively
        # canonicalized) computed tables instead of routing through the
        # generic ite triple.
        self._and_cache: Dict[Tuple[int, int], int] = {}
        self._or_cache: Dict[Tuple[int, int], int] = {}
        self._xor_cache: Dict[Tuple[int, int], int] = {}
        # Cache instrumentation (repro.obs).  Misses are derived for
        # free: every miss inserts exactly one computed-table entry and
        # the table only shrinks when the caches are dropped, where the
        # length is folded into the epoch base.  Only hits pay an
        # increment, and only on the cache fast path; terminal
        # shortcuts that never consult a cache are counted by neither
        # side.
        self._ite_hits = 0
        self._ite_miss_base = 0
        self._not_hits = 0
        self._not_miss_base = 0
        self._and_hits = 0
        self._and_miss_base = 0
        self._or_hits = 0
        self._or_miss_base = 0
        self._xor_hits = 0
        self._xor_miss_base = 0
        self._bind_accessors()

    def _bind_accessors(self) -> None:
        self.level = self._level.__getitem__
        self.low = self._low.__getitem__
        self.high = self._high.__getitem__

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------

    def mk(self, level: int, low: int, high: int) -> int:
        """Find-or-create the node ``(level, low, high)`` (reduced)."""
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else with commutative-triple canonicalization."""
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
        cache = self._ite_cache
        key = (f, g, h)
        cached = cache.get(key)
        if cached is not None:
            self._ite_hits += 1
            return cached
        levels = self._level
        lows = self._low
        highs = self._high
        unique = self._unique
        results: List[int] = []
        # Frames: (0, f, g, h) expands a triple; (1, key, top) builds a
        # node from the two results produced by its cofactor frames.
        # The high cofactor is pushed *below* the low one so the build
        # frame pops r1 then r0.
        stack: List[Tuple[int, ...]] = [(0, f, g, h)]
        while stack:
            frame = stack.pop()
            if frame[0] == 0:
                _, f, g, h = frame
                if f == TRUE:
                    results.append(g)
                    continue
                if f == FALSE:
                    results.append(h)
                    continue
                if g == h:
                    results.append(g)
                    continue
                if g == f:
                    g = TRUE
                if h == f:
                    h = FALSE
                if g == TRUE:
                    results.append(f if h == FALSE else self.or_(f, h))
                    continue
                if h == FALSE:
                    results.append(self.and_(f, g))
                    continue
                key = (f, g, h)
                cached = cache.get(key)
                if cached is not None:
                    self._ite_hits += 1
                    results.append(cached)
                    continue
                lf, lg, lh = levels[f], levels[g], levels[h]
                top = lf if lf < lg else lg
                if lh < top:
                    top = lh
                if lf == top:
                    f0, f1 = lows[f], highs[f]
                else:
                    f0 = f1 = f
                if lg == top:
                    g0, g1 = lows[g], highs[g]
                else:
                    g0 = g1 = g
                if lh == top:
                    h0, h1 = lows[h], highs[h]
                else:
                    h0 = h1 = h
                stack.append((1, key, top))
                stack.append((0, f1, g1, h1))
                stack.append((0, f0, g0, h0))
            else:
                _, key, top = frame
                r1 = results.pop()
                r0 = results.pop()
                if r0 == r1:
                    result = r0
                else:
                    ukey = (top, r0, r1)
                    result = unique.get(ukey)
                    if result is None:
                        result = len(levels)
                        levels.append(top)
                        lows.append(r0)
                        highs.append(r1)
                        unique[ukey] = result
                cache[key] = result
                results.append(result)
        return results[0]

    def not_(self, f: int) -> int:
        """Boolean complement (explicit stack; cached both directions)."""
        if f <= TRUE:
            return f ^ 1
        cache = self._not_cache
        cached = cache.get(f)
        if cached is not None:
            self._not_hits += 1
            return cached
        levels = self._level
        lows = self._low
        highs = self._high
        unique = self._unique
        results: List[int] = []
        stack: List[Tuple[int, int]] = [(0, f)]
        while stack:
            tag, node = stack.pop()
            if tag == 0:
                if node <= TRUE:
                    results.append(node ^ 1)
                    continue
                cached = cache.get(node)
                if cached is not None:
                    self._not_hits += 1
                    results.append(cached)
                    continue
                stack.append((1, node))
                stack.append((0, highs[node]))
                stack.append((0, lows[node]))
            else:
                r1 = results.pop()
                r0 = results.pop()
                if r0 == r1:
                    result = r0
                else:
                    ukey = (levels[node], r0, r1)
                    result = unique.get(ukey)
                    if result is None:
                        result = len(levels)
                        levels.append(levels[node])
                        lows.append(r0)
                        highs.append(r1)
                        unique[ukey] = result
                cache[node] = result
                cache[result] = node
                results.append(result)
        return results[0]

    def _apply2(self, op: int, cache: Dict[Tuple[int, int], int],
                f: int, g: int) -> int:
        """Dedicated binary apply recursion for and/or/xor.

        Explicit-stack post-order walk; operands are kept sorted at
        every step so the computed table is commutatively canonical.
        Terminal short-circuits never touch the cache.  Callers handle
        the top-level terminal cases; ``f``/``g`` here are internal
        nodes with ``f < g``.
        """
        hits = 0
        levels = self._level
        lows = self._low
        highs = self._high
        unique = self._unique
        not_ = self.not_
        results: List[int] = []
        stack: List[Tuple[int, ...]] = [(0, f, g)]
        while stack:
            frame = stack.pop()
            if frame[0] == 0:
                _, f, g = frame
                if f > g:
                    f, g = g, f
                # f <= g, so a terminal g implies a terminal f: the
                # f-checks below cover every terminal case.
                if f == FALSE:
                    results.append(FALSE if op == 0 else g)
                    continue
                if f == TRUE:
                    if op == 0:
                        results.append(g)
                    elif op == 1:
                        results.append(TRUE)
                    else:
                        results.append(not_(g))
                    continue
                if f == g:
                    results.append(FALSE if op == 2 else g)
                    continue
                key = (f, g)
                cached = cache.get(key)
                if cached is not None:
                    hits += 1
                    results.append(cached)
                    continue
                lf, lg = levels[f], levels[g]
                top = lf if lf < lg else lg
                if lf == top:
                    f0, f1 = lows[f], highs[f]
                else:
                    f0 = f1 = f
                if lg == top:
                    g0, g1 = lows[g], highs[g]
                else:
                    g0 = g1 = g
                stack.append((1, key, top))
                stack.append((0, f1, g1))
                stack.append((0, f0, g0))
            else:
                _, key, top = frame
                r1 = results.pop()
                r0 = results.pop()
                if r0 == r1:
                    result = r0
                else:
                    ukey = (top, r0, r1)
                    result = unique.get(ukey)
                    if result is None:
                        result = len(levels)
                        levels.append(top)
                        lows.append(r0)
                        highs.append(r1)
                        unique[ukey] = result
                cache[key] = result
                results.append(result)
        if op == 0:
            self._and_hits += hits
        elif op == 1:
            self._or_hits += hits
        else:
            self._xor_hits += hits
        return results[0]

    def and_(self, f: int, g: int) -> int:
        """Conjunction — dedicated apply (operands sorted, own cache)."""
        if f > g:
            f, g = g, f
        if f == FALSE:
            return FALSE
        if f == TRUE or f == g:
            return g
        cached = self._and_cache.get((f, g))
        if cached is not None:
            self._and_hits += 1
            return cached
        return self._apply2(0, self._and_cache, f, g)

    def or_(self, f: int, g: int) -> int:
        """Disjunction — dedicated apply (operands sorted, own cache)."""
        if f > g:
            f, g = g, f
        if f == FALSE or f == g:
            return g
        if f == TRUE:
            return TRUE
        cached = self._or_cache.get((f, g))
        if cached is not None:
            self._or_hits += 1
            return cached
        return self._apply2(1, self._or_cache, f, g)

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
        cached = self._xor_cache.get((f, g))
        if cached is not None:
            self._xor_hits += 1
            return cached
        return self._apply2(2, self._xor_cache, f, g)

    # ------------------------------------------------------------------
    # arena-wide operations
    # ------------------------------------------------------------------

    def size(self) -> int:
        """Arena length, terminals included."""
        return len(self._level)

    def export(self) -> Tuple[List[int], List[int], List[int]]:
        """Copies of the three arena arrays (terminals included)."""
        return list(self._level), list(self._low), list(self._high)

    def load(self, levels: List[int], lows: List[int],
             highs: List[int]) -> None:
        """Adopt the given arena arrays (taking ownership of the lists),
        rebuild the unique table and drop the computed tables."""
        self._level = levels
        self._low = lows
        self._high = highs
        self._unique = {
            (levels[node], lows[node], highs[node]): node
            for node in range(2, len(levels))
        }
        self._bind_accessors()
        self.clear_caches()

    def append_raw(self, level: int, low: int, high: int,
                   count: int) -> None:
        """Append ``count`` rows that bypass the unique table."""
        self._level.extend([level] * count)
        self._low.extend([low] * count)
        self._high.extend([high] * count)

    def clear_caches(self) -> None:
        """Drop every computed table, folding lengths into miss bases."""
        self._ite_miss_base += len(self._ite_cache)
        self._not_miss_base += len(self._not_cache) // 2
        self._and_miss_base += len(self._and_cache)
        self._or_miss_base += len(self._or_cache)
        self._xor_miss_base += len(self._xor_cache)
        self._ite_cache = {}
        self._not_cache = {}
        self._and_cache = {}
        self._or_cache = {}
        self._xor_cache = {}

    def counters(self) -> List[int]:
        """Hit/miss counts in :data:`COUNTERS` order."""
        return [
            self._ite_hits, self._ite_miss_base + len(self._ite_cache),
            # Each not miss inserts a complement *pair* (f -> r and
            # r -> f); neither key can pre-exist (a present r -> f
            # implies f -> r was inserted alongside it, which would
            # have been a hit).
            self._not_hits, self._not_miss_base + len(self._not_cache) // 2,
            self._and_hits, self._and_miss_base + len(self._and_cache),
            self._or_hits, self._or_miss_base + len(self._or_cache),
            self._xor_hits, self._xor_miss_base + len(self._xor_cache),
        ]

    def set_counters(self, values: Sequence[int]) -> None:
        """Overwrite the counters (the computed tables stay as they are)."""
        (self._ite_hits, ite_misses, self._not_hits, not_misses,
         self._and_hits, and_misses, self._or_hits, or_misses,
         self._xor_hits, xor_misses) = values
        self._ite_miss_base = ite_misses - len(self._ite_cache)
        self._not_miss_base = not_misses - len(self._not_cache) // 2
        self._and_miss_base = and_misses - len(self._and_cache)
        self._or_miss_base = or_misses - len(self._or_cache)
        self._xor_miss_base = xor_misses - len(self._xor_cache)
