"""Controller-side job queue: leases, retries, backoff, quarantine.

The durable half of the batch engine's brain.  Every run lives in
exactly one place at any moment:

``ready``
    queued in its lane, eligible to be handed to the next idle worker;
``delayed``
    queued but serving a retry backoff — becomes ready when its
    ``not_before`` deadline passes;
``leased``
    held by one worker under a :class:`Lease` (attempt number, worker
    pid, start times) — the unit of blast radius: when that worker
    dies, *this run and only this run* is affected;
``terminal``
    finished with a :class:`~repro.batch.engine.RunOutcome` — success,
    a run-level failure the policy does not retry, or quarantine.

Failures route through :meth:`JobQueue.fail`, which consults the
:class:`RetryPolicy`: retryable failures requeue with **capped
exponential backoff and deterministic seeded jitter** until
``max_attempts`` is exhausted, after which the run is **quarantined**
— terminal, with the full per-attempt failure history attached, so a
poison run (one that kills every worker that touches it) costs the
batch ``max_attempts`` workers, not the world.

Ready runs wait in per-key FIFO **lanes** drained round-robin, and a
``lane_cap`` may bound how many runs each lane has leased at once.
A batch uses one uncapped lane, which is plain FIFO; the serve front
door uses one lane per tenant capped at the tenant's
``max_in_flight``, so a tenant's burst delays only its own lane.
Runs may be added after construction (:meth:`JobQueue.add`) and
queued ones cancelled (:meth:`JobQueue.cancel`).

Nothing in this module touches processes, files or clocks beyond the
monotonic timestamps handed in by the engine — it is a pure scheduling
data structure, unit-testable without a pool.
"""

from __future__ import annotations

import hashlib
import heapq
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import BatchError

#: Failure kinds recorded in attempt histories.
FAILURE_KINDS = ("worker-lost", "stall-kill", "status")


@dataclass(frozen=True)
class RetryPolicy:
    """When and how failed runs are retried.

    Infrastructure failures — a worker process dying under a run
    (``worker-lost``) or a lease-timeout kill (``stall-kill``) — are
    always retryable: the run itself returned no verdict.  Run-level
    *statuses* (``aborted``, ``hang``) are deterministic verdicts and
    are retried only when listed in ``retry_statuses`` (opt-in: useful
    when aborts are environmental — memory pressure, injected chaos —
    rather than intrinsic).  ``ok`` and ``assert_failed`` are results,
    never failures, and are never retried.
    """

    #: Total attempts a run may consume (first try included).  1 means
    #: never retry; infrastructure failures then go straight to
    #: quarantine.
    max_attempts: int = 3
    #: Backoff before attempt ``n+1`` is ``backoff_base * 2**(n-1)``
    #: seconds, capped at ``backoff_cap``, jittered by ``jitter_frac``.
    backoff_base: float = 0.25
    backoff_cap: float = 30.0
    #: Deterministic jitter amplitude: the delay is scaled by a factor
    #: in ``[1 - jitter_frac, 1 + jitter_frac]`` derived from
    #: ``sha256(seed, run name, attempt)`` — stable across reruns,
    #: decorrelated across runs.
    jitter_frac: float = 0.25
    #: Jitter seed (vary to decorrelate two batches of the same runs).
    seed: int = 0
    #: Run-level terminal statuses that count as retryable failures.
    retry_statuses: frozenset = frozenset()
    #: Kill a leased run's worker and requeue the run when the run has
    #: been held longer than this many seconds without evidence of
    #: progress (a ``running`` heartbeat younger than this, or — with
    #: heartbeats disabled — any lease younger than this).  None
    #: disables the escalation; the flag-only ``stall_after`` watcher
    #: is independent.
    lease_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise BatchError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise BatchError("backoff must be non-negative")
        if not 0 <= self.jitter_frac <= 1:
            raise BatchError(
                f"jitter_frac must be in [0, 1], got {self.jitter_frac}")
        if self.lease_timeout is not None and self.lease_timeout <= 0:
            raise BatchError("lease_timeout must be positive")
        bad = set(self.retry_statuses) & {"ok", "assert_failed"}
        if bad:
            raise BatchError(
                f"cannot retry result statuses {sorted(bad)} — ok and "
                "assert_failed are verdicts, not failures")
        # normalize a caller-supplied iterable into a real frozenset
        object.__setattr__(self, "retry_statuses",
                           frozenset(self.retry_statuses))

    def backoff_delay(self, name: str, attempt: int) -> float:
        """Seconds to hold ``name`` back before attempt ``attempt``.

        Deterministic: capped exponential in the attempt number with
        seeded jitter keyed by ``(seed, name, attempt)``, so two
        controllers replaying the same failures schedule identically.
        """
        if attempt <= 1 or self.backoff_base == 0:
            return 0.0
        delay = min(self.backoff_base * (2.0 ** (attempt - 2)),
                    self.backoff_cap)
        if self.jitter_frac:
            digest = hashlib.sha256(
                f"{self.seed}:{name}:{attempt}".encode("utf-8")).digest()
            unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
            delay *= 1.0 + self.jitter_frac * (2.0 * unit - 1.0)
        return delay


@dataclass
class Lease:
    """One worker's claim on one run attempt."""

    name: str
    attempt: int
    worker_id: int
    worker_pid: int
    #: Wall-clock lease grant time (feeds heartbeat-age comparison).
    started_unix: float = field(default_factory=time.time)
    #: Monotonic grant time (feeds lease-timeout math).
    started_mono: float = field(default_factory=time.perf_counter)

    def age(self, now_mono: Optional[float] = None) -> float:
        if now_mono is None:
            now_mono = time.perf_counter()
        return max(now_mono - self.started_mono, 0.0)


@dataclass
class _Job:
    """Internal per-run scheduling state."""

    request: object
    fingerprint: str
    #: Key of the ready lane the run queues in.
    lane: str = ""
    #: Attempt number the *next* dispatch will carry (1-based).
    attempt: int = 1
    history: List[dict] = field(default_factory=list)
    #: True while a worker holds the run under a lease.
    leased: bool = False


class JobQueue:
    """The engine's run scheduler.  See the module docstring."""

    def __init__(self, jobs: Sequence[Tuple[object, str]] = (),
                 policy: Optional[RetryPolicy] = None,
                 lane_cap: Optional[Callable[[str], Optional[int]]] = None
                 ) -> None:
        self.policy = policy or RetryPolicy()
        #: lane key -> most runs that lane may have leased at once
        #: (None = unlimited).
        self._lane_cap = lane_cap or (lambda lane: None)
        #: Every non-terminal run (ready, delayed, or leased).
        self._jobs: Dict[str, _Job] = {}
        #: lane key -> FIFO of ready run names; dict order is the
        #: round-robin order (a lane moves to the back when served).
        self._lanes: Dict[str, deque] = {}
        self._in_flight: Counter = Counter()
        self._delayed: List[Tuple[float, str]] = []  # (ready_mono, name)
        #: Terminal name -> RunOutcome, set by complete()/quarantine.
        self.outcomes: Dict[str, object] = {}
        #: Attempts beyond the first that were actually dispatched.
        self.retries = 0
        #: Requeue events (retry requeues + stall-kill requeues).
        self.requeued = 0
        #: Names quarantined after exhausting max_attempts.
        self.quarantined: List[str] = []
        for request, fingerprint in jobs:
            self.add(request, fingerprint)

    def add(self, request, fingerprint: str, lane: str = "") -> None:
        """Queue a new run at the back of ``lane``."""
        self._jobs[request.name] = _Job(request=request,
                                        fingerprint=fingerprint, lane=lane)
        self._lanes.setdefault(lane, deque()).append(request.name)

    def cancel(self, name: str) -> bool:
        """Drop a queued (ready or delayed) run; False when it is leased
        or unknown."""
        job = self._jobs.get(name)
        if job is None or job.leased:
            return False
        del self._jobs[name]
        if name in self._lanes[job.lane]:
            self._lanes[job.lane].remove(name)
        else:
            self._delayed = [entry for entry in self._delayed
                             if entry[1] != name]
            heapq.heapify(self._delayed)
        return True

    # ------------------------------------------------------------------
    # state inspection

    def finished(self) -> bool:
        """True when every run holds a terminal outcome."""
        return not self._jobs

    def has_ready(self, now_mono: Optional[float] = None) -> bool:
        self._promote(now_mono)
        return self._next_lane() is not None

    def pending_names(self) -> List[str]:
        """Every non-terminal run (ready, delayed, or leased)."""
        return list(self._jobs)

    def next_delay(self, now_mono: Optional[float] = None
                   ) -> Optional[float]:
        """Seconds until the earliest delayed run becomes ready."""
        self._promote(now_mono)
        if not self._delayed:
            return None
        if now_mono is None:
            now_mono = time.perf_counter()
        return max(self._delayed[0][0] - now_mono, 0.0)

    def _promote(self, now_mono: Optional[float] = None) -> None:
        if not self._delayed:
            return
        if now_mono is None:
            now_mono = time.perf_counter()
        while self._delayed and self._delayed[0][0] <= now_mono:
            _, name = heapq.heappop(self._delayed)
            self._lanes[self._jobs[name].lane].append(name)

    def _next_lane(self) -> Optional[str]:
        """The first lane in round-robin order with a ready run and a
        free slot under its cap."""
        for lane, ready in self._lanes.items():
            cap = self._lane_cap(lane)
            if ready and (cap is None or self._in_flight[lane] < cap):
                return lane
        return None

    # ------------------------------------------------------------------
    # dispatch / completion

    def lease(self, worker_id: int, worker_pid: int,
              now_mono: Optional[float] = None) -> Optional[Lease]:
        """Hand the next ready run to a worker; None when none is due."""
        self._promote(now_mono)
        lane = self._next_lane()
        if lane is None:
            return None
        name = self._lanes[lane].popleft()
        self._lanes[lane] = self._lanes.pop(lane)  # served: to the back
        self._in_flight[lane] += 1
        job = self._jobs[name]
        job.leased = True
        if job.attempt > 1:
            self.retries += 1
        return Lease(name=name, attempt=job.attempt,
                     worker_id=worker_id, worker_pid=worker_pid)

    def job(self, name: str) -> _Job:
        return self._jobs[name]

    def _unlease(self, job: _Job) -> None:
        if job.leased:
            job.leased = False
            self._in_flight[job.lane] -= 1

    def release(self, name: str) -> None:
        """Return a leased run to the front of its lane unblamed.

        Used when a dispatch fails before the worker ever saw the job
        (its pipe was already closed) — the attempt did not happen, so
        no history is recorded and the attempt counter stays put.
        """
        job = self._jobs[name]
        self._unlease(job)
        self._lanes[job.lane].appendleft(name)

    def complete(self, name: str, outcome) -> None:
        """Record a terminal outcome (success or unretried failure)."""
        job = self._jobs.pop(name)
        self._unlease(job)
        outcome.attempts = job.attempt
        outcome.failure_history = list(job.history)
        self.outcomes[name] = outcome

    def fail(self, name: str, kind: str, error: str,
             worker_pid: Optional[int] = None) -> dict:
        """Route one attempt's failure: requeue with backoff or
        quarantine.

        Returns a disposition record ``{"action": "requeue"|
        "quarantine", "attempt", "delay", ...}`` the engine journals.
        ``kind`` is one of :data:`FAILURE_KINDS`; infrastructure kinds
        are always retryable, ``status`` kinds only when the policy
        lists the status in ``retry_statuses`` (the engine checks that
        before calling — by the time a failure lands here it *is*
        retryable or terminal-by-exhaustion).
        """
        job = self._jobs[name]
        self._unlease(job)
        failed_attempt = job.attempt
        job.history.append({
            "attempt": failed_attempt, "kind": kind, "error": error,
            "worker_pid": worker_pid,
        })
        if failed_attempt >= self.policy.max_attempts:
            self.quarantined.append(name)
            return {"action": "quarantine", "attempt": failed_attempt,
                    "history": list(job.history)}
        job.attempt = failed_attempt + 1
        delay = self.policy.backoff_delay(name, job.attempt)
        self.requeued += 1
        if delay > 0:
            heapq.heappush(self._delayed,
                           (time.perf_counter() + delay, name))
        else:
            self._lanes[job.lane].append(name)
        return {"action": "requeue", "attempt": job.attempt,
                "delay": round(delay, 6)}
