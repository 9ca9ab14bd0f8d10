"""The native BDD kernel: build cache, loader and :class:`CCore`.

``_kernel.c`` (next to this file) is compiled with ``cffi`` the first
time a process needs it, into a per-user cache
(``$XDG_CACHE_HOME/repro/bdd-kernel``, default ``~/.cache/...``).  The
module name carries a hash of the C source, the declarations, the
interpreter ABI and the cffi version, so an edited source or another
Python gets its own build and a stale binary is never loaded.  The
compile runs in a child interpreter (it changes directory and imports
setuptools) and writes into a private temporary directory; the
finished extension is moved into place with an atomic rename, so
processes racing to build never load a half-written file.  Nothing
binary is committed.

When ``cffi`` or a C compiler is missing, or the build fails, the
manager falls back to the pure-Python reference core
(:class:`repro.bdd._pycore.PyCore`); :func:`status` says which core new
managers get and why, and every manager reports its core as
``bdd.kernel`` (``c``/``python``).
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from importlib.machinery import EXTENSION_SUFFIXES
from typing import List, Optional, Sequence, Tuple

#: C declarations shared with ``_kernel.c``.
CDEF = """
typedef ... bdd_kernel;
bdd_kernel *bdd_new(void);
void bdd_free(bdd_kernel *k);
int64_t bdd_live_kernels(void);
int64_t bdd_size(const bdd_kernel *k);
int32_t bdd_level(const bdd_kernel *k, int32_t n);
int32_t bdd_low(const bdd_kernel *k, int32_t n);
int32_t bdd_high(const bdd_kernel *k, int32_t n);
int32_t bdd_mk(bdd_kernel *k, int32_t level, int32_t low, int32_t high);
int32_t bdd_ite(bdd_kernel *k, int32_t f, int32_t g, int32_t h);
int32_t bdd_not(bdd_kernel *k, int32_t f);
int32_t bdd_and(bdd_kernel *k, int32_t f, int32_t g);
int32_t bdd_or(bdd_kernel *k, int32_t f, int32_t g);
int32_t bdd_xor(bdd_kernel *k, int32_t f, int32_t g);
void bdd_export(const bdd_kernel *k, int32_t *level, int32_t *low,
                int32_t *high);
int bdd_load(bdd_kernel *k, const int32_t *level, const int32_t *low,
             const int32_t *high, int64_t n);
int bdd_append_raw(bdd_kernel *k, int32_t level, int32_t low,
                   int32_t high, int64_t count);
void bdd_clear_caches(bdd_kernel *k);
void bdd_get_counters(const bdd_kernel *k, int64_t *out);
void bdd_set_counters(bdd_kernel *k, const int64_t *in);
"""

SOURCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "_kernel.c")

#: Seconds a kernel compile may take before the build counts as failed.
BUILD_TIMEOUT = 300

_N_COUNTERS = 10

#: File suffix of this interpreter's extension modules (a constant of
#: the running interpreter, unlike ``sysconfig``, whose lazy set-up is
#: not thread-safe).
_SUFFIX = EXTENSION_SUFFIXES[0]

#: Core attributes served by a kernel function with the kernel bound
#: as its first argument (see :meth:`CCore.__getattr__`).
_BOUND = {
    "ite": "bdd_ite", "not_": "bdd_not", "and_": "bdd_and",
    "or_": "bdd_or", "xor": "bdd_xor", "mk": "bdd_mk",
    "level": "bdd_level", "low": "bdd_low", "high": "bdd_high",
    "size": "bdd_size", "clear_caches": "bdd_clear_caches",
}


class KernelBuildError(RuntimeError):
    """The native kernel could not be compiled."""


def default_cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "bdd-kernel")


def module_name(source: str) -> str:
    """Extension module name for ``source`` (content-addressed)."""
    import _cffi_backend

    digest = hashlib.sha256()
    for part in (source, CDEF, sys.version, _SUFFIX,
                 _cffi_backend.__version__):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return "_repro_bdd_kernel_" + digest.hexdigest()[:16]


def build(source: Optional[str] = None,
          cache_dir: Optional[str] = None):
    """Return the compiled kernel module, compiling it when not cached.

    The returned module has ``ffi`` and ``lib`` attributes.  Raises
    ``ImportError`` when cffi is not installed and
    :class:`KernelBuildError` when the compile fails.
    """
    if source is None:
        with open(SOURCE_PATH, encoding="utf-8") as handle:
            source = handle.read()
    directory = cache_dir or default_cache_dir()
    name = module_name(source)
    path = os.path.join(directory, name + _SUFFIX)
    if not os.path.exists(path):
        _compile(name, source, directory, path)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compile(name: str, source: str, directory: str, path: str) -> None:
    os.makedirs(directory, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=name + ".", dir=directory)
    try:
        source_file = os.path.join(scratch, "kernel.c")
        with open(source_file, "w", encoding="utf-8") as handle:
            handle.write(source)
        try:
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), name,
                 source_file, scratch],
                stdin=subprocess.DEVNULL, capture_output=True, text=True,
                timeout=BUILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise KernelBuildError(
                f"compile did not finish in {BUILD_TIMEOUT} s") from None
        if done.returncode != 0:
            tail = (done.stderr or done.stdout).strip().splitlines()[-5:]
            raise KernelBuildError("compile failed: " + " | ".join(tail))
        built = done.stdout.strip().splitlines()[-1]
        os.replace(built, path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _compile_main(argv: List[str]) -> int:
    """Child-process entry: compile ``argv = [name, source, tmpdir]``
    and print the path of the built extension."""
    import cffi

    name, source_file, tmpdir = argv
    with open(source_file, encoding="utf-8") as handle:
        source = handle.read()
    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    ffi.set_source(name, source, extra_compile_args=["-O2"])
    print(ffi.compile(tmpdir=tmpdir))
    return 0


@functools.lru_cache(maxsize=None)
def native() -> Tuple[object, str]:
    """``(module, "")`` for the loaded kernel, or ``(None, reason)``.

    Built (or loaded from the cache) once per process.  Deliberately
    unlocked: a lock held across the compile could be inherited locked
    by a process forked meanwhile (serve forks workers from a thread).
    Threads racing the first call may both build, which is harmless:
    the rename into the cache is atomic and the extension loads twice.
    """
    try:
        return build(), ""
    except ImportError as exc:
        return None, f"cffi is not available ({exc})"
    except (KernelBuildError, OSError) as exc:
        return None, f"kernel build failed ({exc})"


def status() -> Tuple[str, str]:
    """``(kind, reason)``: the core new managers get (``c`` or
    ``python``) and, for ``python``, why the native kernel is missing."""
    module, reason = native()
    return ("c", "") if module is not None else ("python", reason)


class CCore:
    """A manager core backed by one native kernel (see ``_pycore``).

    Operators and accessors are bound C functions: they return a
    negative code instead of raising (-1 out of memory, -2 not a node),
    which the manager turns into an exception.  Python never holds a
    pointer into the arena; whole-arena passes go through
    :meth:`export`/:meth:`load`, which copy.  The kernel is freed when
    the core is garbage collected.
    """

    kind = "c"

    def __init__(self, module) -> None:
        ffi, lib = module.ffi, module.lib
        kernel = lib.bdd_new()
        if kernel == ffi.NULL:
            raise MemoryError("cannot allocate a BDD kernel")
        self._ffi = ffi
        self._lib = lib
        self._kernel = ffi.gc(kernel, lib.bdd_free)

    def __getattr__(self, name: str):
        # Bind each operator on first use, so the many managers that
        # never leave the terminals (constant folding) stay cheap.
        symbol = _BOUND.get(name)
        if symbol is None:
            raise AttributeError(name)
        bound = functools.partial(getattr(self._lib, symbol), self._kernel)
        setattr(self, name, bound)
        return bound

    def export(self) -> Tuple[List[int], List[int], List[int]]:
        """Copies of the three arena arrays (terminals included)."""
        ffi = self._ffi
        n = self.size()
        arrays = [ffi.new("int32_t[]", n) for _ in range(3)]
        self._lib.bdd_export(self._kernel, *arrays)
        return tuple(ffi.unpack(array, n) for array in arrays)

    def load(self, levels: Sequence[int], lows: Sequence[int],
             highs: Sequence[int]) -> None:
        """Replace the arena, rebuild the unique table and drop the
        computed tables."""
        # Imported here: this file also runs as a bare script in the
        # compiler child process, where ``repro`` need not be importable.
        from repro.errors import BddError

        ffi = self._ffi
        if not len(levels) == len(lows) == len(highs):
            raise BddError("malformed BDD arena: arrays differ in length")
        code = self._lib.bdd_load(
            self._kernel, ffi.new("int32_t[]", levels),
            ffi.new("int32_t[]", lows), ffi.new("int32_t[]", highs),
            len(levels))
        if code == -1:
            raise MemoryError("BDD kernel out of memory")
        if code == -2:
            raise BddError("malformed BDD arena: every row needs a level "
                           "below 2**30 and children that precede it")

    def append_raw(self, level: int, low: int, high: int,
                   count: int) -> None:
        """Append ``count`` rows that bypass the unique table."""
        if self._lib.bdd_append_raw(self._kernel, level, low, high,
                                    count) < 0:
            raise MemoryError("BDD kernel out of memory")

    def counters(self) -> List[int]:
        """Hit/miss counts in ``_pycore.COUNTERS`` order."""
        counts = self._ffi.new("int64_t[]", _N_COUNTERS)
        self._lib.bdd_get_counters(self._kernel, counts)
        return list(counts)

    def set_counters(self, values: Sequence[int]) -> None:
        self._lib.bdd_set_counters(
            self._kernel, self._ffi.new("int64_t[]", list(values)))


if __name__ == "__main__":
    sys.exit(_compile_main(sys.argv[1:]))
