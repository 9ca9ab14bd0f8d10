"""Harness-side spans, layer wrappers and self-time accounting.

Every span is recorded by the benchmark around its own call into one of
the package's public functions; nothing under ``src/`` is instrumented.
Spans live in memory and are written out once, at the end of a traced
run, as one Chrome trace (``chrome://tracing`` / Perfetto JSON).

A layer's self time is its spans' duration minus the part covered by
child spans, minus the BDD time folded into it.  BDD operators are far
too hot for one span per call, so the class-level wrappers on
:class:`repro.bdd.BddManager` time only depth-0 calls and fold them
into the innermost open span as per-kind totals.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional

#: BddManager operators by kind.  Depth-0 calls of these are timed;
#: ``all_sat`` is left out because it is a generator (its work happens
#: after the call returns).
BDD_KINDS: Dict[str, tuple] = {
    "ite": ("ite", "implies"),
    "not": ("not_",),
    "apply": ("and_", "or_", "xor", "xnor", "nand", "nor",
              "and_all", "or_all"),
    "quant": ("exists", "forall", "restrict", "restrict_many", "compose",
              "sat_one", "sat_count"),
}

#: Layer of each span name recorded by the harness.
LAYERS = ("frontend", "compile", "sim", "bdd", "batch", "serve", "harness")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "rid", "tid",
                 "child_s", "bdd_s", "bdd_calls")

    def __init__(self, name: str, layer: str, parent: Optional["Span"],
                 rid: Optional[str]) -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.rid = rid if rid is not None else (
            parent.rid if parent is not None else None)
        self.tid = threading.get_ident()
        self.child_s = 0.0
        self.bdd_s: Dict[str, float] = {}
        self.bdd_calls: Dict[str, int] = {}
        self.start = time.monotonic()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - sum(self.bdd_s.values())


class Recorder:
    """In-memory span store.  Thread-safe for spans opened and closed
    on the same thread (each thread keeps its own stack)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, layer: str, rid: Optional[str] = None):
        stack = self._stack()
        record = Span(name, layer, stack[-1] if stack else None, rid)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.monotonic()
            stack.pop()
            if record.parent is not None:
                record.parent.child_s += record.duration
            with self._lock:
                self.spans.append(record)

    def fold_bdd(self, kind: str, seconds: float) -> None:
        record = self.current()
        if record is not None:
            record.bdd_s[kind] = record.bdd_s.get(kind, 0.0) + seconds
            record.bdd_calls[kind] = record.bdd_calls.get(kind, 0) + 1

    # -- accounting ------------------------------------------------------

    def within(self, root: Span) -> List[Span]:
        """``root`` and every span nested under it."""
        out = []
        for record in self.spans:
            node = record
            while node is not None and node is not root:
                node = node.parent
            if node is root:
                out.append(record)
        return out

    @staticmethod
    def layer_self_times(spans: List[Span]) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for record in spans:
            totals[record.layer] += record.self_s
            totals["bdd"] += sum(record.bdd_s.values())
        return totals

    @staticmethod
    def bdd_totals(spans: List[Span]) -> Dict[str, tuple]:
        """kind -> (seconds, depth-0 calls) over ``spans``."""
        out = {kind: [0.0, 0] for kind in BDD_KINDS}
        for record in spans:
            for kind, seconds in record.bdd_s.items():
                out[kind][0] += seconds
                out[kind][1] += record.bdd_calls[kind]
        return {kind: tuple(pair) for kind, pair in out.items()}

    @staticmethod
    def total(spans: List[Span], name: str) -> float:
        return sum(record.duration for record in spans if record.name == name)

    def write_chrome(self, path: str,
                     extra: Optional[List[dict]] = None) -> None:
        """One Chrome trace: ``X`` events with parent links and request
        ids in ``args``; ``extra`` events (already in trace format, e.g.
        from the load-generator process) are appended unchanged."""
        events = []
        ids = {id(record): index for index, record in enumerate(self.spans)}
        for index, record in enumerate(self.spans):
            args: Dict[str, object] = {"span": index}
            if record.parent is not None:
                args["parent"] = ids.get(id(record.parent))
            if record.rid is not None:
                args["rid"] = record.rid
            for kind, seconds in record.bdd_s.items():
                args[f"bdd_{kind}_s"] = round(seconds, 6)
                args[f"bdd_{kind}_calls"] = record.bdd_calls[kind]
            events.append({
                "name": record.name, "cat": record.layer, "ph": "X",
                "ts": record.start * 1e6, "dur": record.duration * 1e6,
                "pid": 1, "tid": record.tid, "args": args,
            })
        events.extend(extra or [])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


class NullRecorder:
    """A recorder stand-in for untraced runs: a span costs one call."""

    def span(self, name: str, layer: str, rid: Optional[str] = None):
        return nullcontext()


# ---------------------------------------------------------------------
# wrappers (installed by the harness; each returns its undo callable)
# ---------------------------------------------------------------------


def wrap_bdd(on_call: Callable[[str, float], None]) -> Callable[[], None]:
    """Class-level wrappers on the public BddManager operators.

    ``on_call(kind, seconds)`` runs after every depth-0 call; nested
    calls (an ``ite`` that reaches ``and_``) pass straight through.
    Install before any kernel is built so that codegen-bound methods
    resolve to the wrappers.
    """
    from repro.bdd import BddManager

    depth = [0]
    originals = {}

    def make(kind: str, orig):
        def wrapper(self, *args, **kwargs):
            if depth[0]:
                return orig(self, *args, **kwargs)
            depth[0] = 1
            started = time.perf_counter()
            try:
                return orig(self, *args, **kwargs)
            finally:
                depth[0] = 0
                on_call(kind, time.perf_counter() - started)
        wrapper.__name__ = orig.__name__
        wrapper.__doc__ = orig.__doc__
        return wrapper

    for kind, names in BDD_KINDS.items():
        for name in names:
            orig = BddManager.__dict__[name]
            originals[name] = orig
            setattr(BddManager, name, make(kind, orig))

    def undo() -> None:
        for name, orig in originals.items():
            setattr(BddManager, name, orig)
    return undo


def busy_wait(seconds: float) -> None:
    """Spin (not sleep) so an injected delay costs host CPU the way a
    slower layer would."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def wrap_function(attr: str, make: Callable) -> Callable[[], None]:
    """Replace the public function ``attr`` everywhere it is bound.

    The package imports its pipeline functions both at module top and
    inside function bodies; patching every ``repro.*`` module whose
    ``attr`` is the original covers both.
    """
    import repro

    orig = getattr(repro, attr)
    wrapper = make(orig)
    patched = []
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and \
                getattr(module, attr, None) is orig:
            setattr(module, attr, wrapper)
            patched.append(module)

    def undo() -> None:
        for module in patched:
            setattr(module, attr, orig)
    return undo


def wrap_method(cls, attr: str, make: Callable) -> Callable[[], None]:
    """Class-level replacement of one method."""
    orig = cls.__dict__[attr]
    setattr(cls, attr, make(orig))
    return lambda: setattr(cls, attr, orig)


def wrap_pipeline(rec) -> Callable[[], None]:
    """Spans around the front end and compiler wherever the package
    calls them (the batch controller's catalog, serve admission)."""
    undos = []
    for attr, layer in (("parse_source", "frontend"),
                        ("elaborate", "frontend"),
                        ("compile_design", "compile")):
        def make(orig, attr=attr, layer=layer):
            def wrapper(*args, **kwargs):
                with rec.span(attr, layer):
                    return orig(*args, **kwargs)
            return wrapper
        undos.append(wrap_function(attr, make))

    def undo() -> None:
        for step in reversed(undos):
            step()
    return undo
