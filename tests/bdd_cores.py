"""Running BDD tests on a chosen manager core.

:class:`repro.bdd.BddManager` runs on the native kernel when it can be
built and on the pure-Python reference core otherwise.  The suites keep
their own names on the default core; :func:`reference_core` derives a
``<Name>ReferenceCore`` class that runs the same tests with every
manager created on the reference core (``pytest -k ReferenceCore``
selects them).
"""

from __future__ import annotations

import contextlib

import pytest

from repro.bdd import _kernel
from repro.bdd import manager as _manager
from repro.bdd._pycore import PyCore


@contextlib.contextmanager
def use_core(factory):
    """Make every manager created inside the block use ``factory()``."""
    saved = _manager._new_core
    _manager._new_core = factory
    try:
        yield
    finally:
        _manager._new_core = saved


def native_core():
    """A fresh native core (skips the test when the kernel is missing)."""
    module, reason = _kernel.native()
    if module is None:
        pytest.skip(f"native BDD kernel unavailable: {reason}")
    return _kernel.CCore(module)


class _OnReferenceCore:
    # Class scope: hypothesis tests reject function-scoped fixtures.
    @pytest.fixture(autouse=True, scope="class")
    def _reference_core(self):
        with use_core(PyCore):
            yield


def reference_core(cls):
    """``cls`` again, with every manager on the reference core."""
    return type(cls.__name__ + "ReferenceCore", (_OnReferenceCore, cls),
                {"__module__": cls.__module__})
