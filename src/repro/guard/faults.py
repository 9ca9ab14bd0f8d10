"""Deterministic fault injection for the guard subsystem.

Robustness code is the least-executed code in the repo — nothing in a
healthy test run ever drives the mitigation ladder, the rescue
checkpoint path, or the corrupt-checkpoint rejection logic.  The chaos
tests (``pytest -m chaos``) use this module to *make* those paths run,
deterministically: a :class:`FaultInjector` is a scripted plan of
:class:`Fault` records keyed by safe-point ordinal, so the same plan
produces the same failure at the same simulation point every time.

Fault kinds:

``arena-blowup``
    Append ``magnitude`` junk rows to the BDD arena at the safe point.
    The rows are unreachable from any root, so they model sudden dead
    growth: the ladder's GC rung reclaims them — exercising rungs 1-2
    without needing a design that genuinely explodes.  (Deliberately
    *not* ``new_var``: variable nodes are pinned by the manager
    forever and would defeat the GC rung.)

``clock-skew``
    Pull the guard's wall-clock deadline ``magnitude`` seconds into the
    past, as if the host clock jumped — the next deadline check
    breaches immediately.  Exercises the hard-budget abort + rescue
    checkpoint.

``safe-point-error``
    Raise a RuntimeError from inside the safe-point hook.  The guard
    must convert it into a structured
    :class:`~repro.errors.SimulationAborted` (the no-bare-traceback
    contract).

``interrupt``
    Set the kernel's deferred-SIGINT flag, as if the user pressed
    Ctrl-C — exercises the interrupt checkpoint + ``interrupted``
    result path without real signals.

File-corruption helpers (:func:`truncate_file`, :func:`flip_byte`,
:func:`corrupt_header`) damage checkpoints on disk for the loader
tests; every damage mode must surface as
:class:`~repro.errors.CheckpointError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

FAULT_KINDS = ("arena-blowup", "clock-skew", "safe-point-error", "interrupt")


@dataclass
class Fault:
    """One scripted fault: fire ``kind`` at safe point ``at_step``.

    ``on_attempt`` scopes the fault to one batch attempt number: a
    fault with ``on_attempt=1`` fires only the first time the durable
    batch engine runs the request and stays quiet on retries — the
    deterministic model of a *transient* failure (the retry heals it),
    which is what the retry-determinism tests need.  ``None`` (the
    default) fires on every attempt: a *persistent* fault that drives
    a run into quarantine.
    """

    kind: str
    at_step: int
    magnitude: int = 0
    on_attempt: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.on_attempt is not None and self.on_attempt < 1:
            raise ValueError(
                f"on_attempt must be >= 1, got {self.on_attempt}")


class FaultInjector:
    """Fires a scripted fault plan at guard safe points."""

    def __init__(self, faults: List[Fault]) -> None:
        self.faults = list(faults)
        self.fired: List[Fault] = []
        #: Batch attempt number the current run carries; attempt-scoped
        #: faults compare against this.  The batch worker sets it
        #: before each attempt; standalone runs stay at 1.
        self.attempt = 1
        self._ordinal = 0

    def on_run_start(self, guard, kern) -> None:
        self._ordinal = 0

    def on_safe_point(self, guard, kern) -> None:
        self._ordinal += 1
        for fault in self.faults:
            if fault.on_attempt is not None \
                    and fault.on_attempt != self.attempt:
                continue
            if fault.at_step == self._ordinal and fault not in self.fired:
                self.fired.append(fault)
                self._fire(fault, guard, kern)

    def _fire(self, fault: Fault, guard, kern) -> None:
        if fault.kind == "arena-blowup":
            # Junk rows: internal-node shape, reachable from nothing.
            kern.mgr.inject_dead_nodes(fault.magnitude)
        elif fault.kind == "clock-skew":
            if guard._deadline is not None:
                guard._deadline -= fault.magnitude
            else:  # no wall budget: skew still forces an instant deadline
                guard._deadline = 0.0
                if guard.budgets is not None:
                    if guard.budgets.wall_seconds is None:
                        guard.budgets.wall_seconds = 0.0
        elif fault.kind == "safe-point-error":
            raise RuntimeError(
                f"injected safe-point fault at ordinal {self._ordinal}"
            )
        elif fault.kind == "interrupt":
            kern._sigint_flag[0] = True


# ----------------------------------------------------------------------
# on-disk checkpoint damage (for loader robustness tests)
# ----------------------------------------------------------------------


def truncate_file(path: str, keep_bytes: int) -> None:
    """Chop a file down to its first ``keep_bytes`` bytes."""
    with open(path, "r+b") as handle:
        handle.truncate(keep_bytes)


def flip_byte(path: str, offset: int) -> None:
    """XOR one byte (negative offsets count from the end)."""
    with open(path, "r+b") as handle:
        handle.seek(0, 2)
        size = handle.tell()
        if offset < 0:
            offset += size
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def corrupt_header(path: str) -> None:
    """Overwrite the header line with syntactically broken JSON."""
    with open(path, "r+b") as handle:
        magic = handle.readline()
        handle.seek(len(magic))
        handle.write(b"{not json")
