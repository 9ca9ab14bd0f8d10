"""A from-scratch hash-consed ROBDD package.

The paper's simulator represents every symbolic expression with BDDs
built by CUDD, a C package; this package is the substitute.  It
provides a classic reduced ordered BDD with:

* a unique table (hash consing) so equality is pointer equality,
* an ``ite``-based operator core with dedicated and/or/xor/not
  recursions and computed-table caches,
* restriction, functional composition, quantification,
* satisfiability helpers (``sat_one``, ``sat_count``, ``all_sat``)
  used for error-trace extraction (paper Section 5),
* mark-and-sweep garbage collection and Rudell sifting at safe points.

The node arena, unique table and operator recursions run in a native
kernel (``_kernel.c``, compiled with cffi on first use) when it can be
built, and otherwise in the pure-Python reference core
(``_pycore.py``), which gives identical results (docs/BDD.md).

Variable order is the static order of creation; the paper's experiments
explicitly *disabled* dynamic variable reordering, so a static order is
the faithful default.
"""

from repro.bdd.manager import BddManager, FALSE, TRUE

__all__ = ["BddManager", "FALSE", "TRUE"]
