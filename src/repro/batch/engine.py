"""The batch engine — fan :class:`RunRequest`\\ s across a worker pool.

Controller-side flow:

1. **Compile once.**  Every unique ``(source, top, defines)`` among the
   requests is parsed/elaborated/compiled exactly once, in the
   controller, into a content-addressed catalog of pickled programs
   (a pre-compile design image that recompiles deterministically on
   unpickle — see ``Program.__reduce__``).  Workers receive an image
   with the first run of its design they execute, never source text,
   so the front end runs once per design regardless of pool width or
   run count.
2. **Fan out, durably.**  One controller (:class:`_Controller`) owns a
   :class:`~repro.batch.queue.JobQueue` and a pool of long-lived
   worker processes, one in-flight run per worker under a
   :class:`~repro.batch.queue.Lease`.  A worker death (OOM kill,
   segfault, ``kill -9``) costs exactly the one leased run — it is
   requeued with capped, seeded-jitter exponential backoff while a
   replacement worker spawns; the rest of the batch never notices.  A
   run whose heartbeat goes silent past the policy's ``lease_timeout``
   is escalated stall → kill → requeue.  A run that keeps failing is
   **quarantined** after ``max_attempts`` with its full per-attempt
   failure history attached, so one poison run cannot starve the pool.
   The controller sleeps in one wait on worker results, worker deaths,
   its timers and a self-pipe; the :mod:`repro.serve` scheduler drives
   the same loop from a thread, adding runs to per-tenant queue lanes
   as they arrive.
3. **Journal.**  Scheduling events and terminal outcomes append to
   ``<out_dir>/journal.jsonl`` (``BATCHJRNL/1``, see
   :mod:`repro.batch.journal`); ``run_batch(..., resume=True)``
   restores journaled terminal runs — after re-verifying request
   fingerprints and the design-catalog hash — and re-executes only the
   rest.
4. **Stream + aggregate.**  Terminal outcomes stream to an
   ``on_result`` callback as they land; after the queue drains, worker
   trace shards merge into one Chrome trace with a lane per worker,
   and an aggregated :class:`~repro.obs.MetricsRegistry` summarises
   the batch (``batch.*`` families, per-run labeled children).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection as _mpconn
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.batch.journal import (
    JOURNAL_NAME, BatchJournal, catalog_sha, read_journal,
    request_fingerprint,
)
from repro.batch.queue import JobQueue, Lease, RetryPolicy
from repro.batch.request import RunRequest
from repro.batch.worker import _worker_main
from repro.errors import BatchError, QuarantinedRunError
from repro.obs import MetricsRegistry, merge_shards
from repro.obs.live import (
    DEFAULT_EVERY, RunHealth, assess_health, assess_lease, read_status,
    scan_status,
)
from repro.sim.kernel import SimStatus

#: Schema tag of :meth:`BatchResult.to_dict` payloads.
BATCH_SCHEMA = "repro.batch.result/1"


@dataclass
class RunOutcome:
    """What happened to one request — success or any flavour of failure."""

    name: str
    status: SimStatus
    #: ``SimResult.to_dict()`` payload (present for OK / ASSERT_FAILED
    #: runs and for aborts that salvaged a partial result).
    result: Optional[dict] = None
    #: Human-readable failure description for non-OK statuses.
    error: Optional[str] = None
    wall_seconds: float = 0.0
    worker_pid: Optional[int] = None
    #: Path of the per-run VCD when the request asked for one.
    vcd_path: Optional[str] = None
    #: Attempts this run consumed (1 = first try succeeded or was
    #: terminal; >1 = the durable queue retried it).
    attempts: int = 1
    #: True when the run exhausted its retry budget — ``status`` then
    #: reflects the *last* attempt and :attr:`failure_history` records
    #: every failed one.
    quarantined: bool = False
    #: Per-attempt failure records ``{"attempt", "kind", "error",
    #: "worker_pid"}`` for every attempt that did not finish cleanly.
    failure_history: List[dict] = field(default_factory=list)
    #: True when this outcome was restored from a batch journal by
    #: ``run_batch(..., resume=True)`` instead of executing now.
    resumed: bool = False
    #: True when the terminal attempt resumed mid-simulation from the
    #: run's rolling REPROCKPT checkpoint instead of restarting at 0.
    resumed_from_checkpoint: bool = False

    @property
    def ok(self) -> bool:
        return self.status is SimStatus.OK

    def quarantine_error(self) -> Optional[QuarantinedRunError]:
        """The structured error for a quarantined run (else None)."""
        if not self.quarantined:
            return None
        return QuarantinedRunError(
            f"run {self.name!r} {self.error}",
            name=self.name, attempts=self.attempts,
            failure_history=list(self.failure_history))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status.value,
            "ok": self.ok,
            "error": self.error,
            "wall_seconds": self.wall_seconds,
            "worker_pid": self.worker_pid,
            "vcd_path": self.vcd_path,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
            "failure_history": list(self.failure_history),
            "resumed": self.resumed,
            "resumed_from_checkpoint": self.resumed_from_checkpoint,
            "result": self.result,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunOutcome":
        """Rebuild an outcome from a journaled ``to_dict`` payload."""
        try:
            return cls(
                name=payload["name"],
                status=SimStatus(payload["status"]),
                result=payload.get("result"),
                error=payload.get("error"),
                wall_seconds=payload.get("wall_seconds", 0.0),
                worker_pid=payload.get("worker_pid"),
                vcd_path=payload.get("vcd_path"),
                attempts=payload.get("attempts", 1),
                quarantined=payload.get("quarantined", False),
                failure_history=list(payload.get("failure_history", [])),
                resumed_from_checkpoint=payload.get(
                    "resumed_from_checkpoint", False),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BatchError(
                f"malformed journaled outcome: {exc!r}") from exc


@dataclass
class BatchResult:
    """Everything a drained batch produced, in request order."""

    outcomes: List[RunOutcome]
    out_dir: str
    workers: int
    wall_seconds: float
    designs_compiled: int
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Directory of per-run heartbeat status files (``symsim top`` tails
    #: it); None when heartbeats were disabled.
    status_dir: Optional[str] = None
    #: Run names the stall watcher flagged mid-batch (a stalled run may
    #: still finish — this records the observation, not a verdict).
    stalled_runs: List[str] = field(default_factory=list)
    #: Path of the ``BATCHJRNL/1`` journal (None with ``journal=False``).
    journal_path: Optional[str] = None
    #: Attempts beyond each run's first that were actually dispatched.
    retries: int = 0
    #: Times any run went back to the queue (retry + stall-kill).
    requeued: int = 0
    #: Runs that exhausted ``max_attempts`` (sorted).
    quarantined_runs: List[str] = field(default_factory=list)
    #: Runs restored from the journal by ``resume=True`` (sorted).
    resumed_runs: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every run finished with :attr:`SimStatus.OK`."""
        return all(outcome.ok for outcome in self.outcomes)

    def counts(self) -> Dict[str, int]:
        """Run count per status value (only statuses that occurred)."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status.value] = \
                counts.get(outcome.status.value, 0) + 1
        return counts

    def check_quarantine(self) -> None:
        """Raise :class:`~repro.errors.QuarantinedRunError` for the
        first quarantined run, if any (callers that prefer exceptions
        over scanning outcome rows)."""
        for outcome in self.outcomes:
            if outcome.quarantined:
                raise outcome.quarantine_error()

    def __getitem__(self, name: str) -> RunOutcome:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(name)

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def summary(self) -> str:
        """One-paragraph human summary (the CLI's closing lines)."""
        counts = ", ".join(f"{status}={count}"
                           for status, count in sorted(self.counts().items()))
        lines = [
            f"batch: {len(self.outcomes)} runs on {self.workers} workers "
            f"in {self.wall_seconds:.2f}s ({counts}; "
            f"{self.designs_compiled} designs compiled once)"
        ]
        if self.resumed_runs:
            lines[0] += (f" — resumed: {len(self.resumed_runs)} run(s) "
                         "restored from the journal")
        for outcome in self.outcomes:
            mark = "ok " if outcome.ok else outcome.status.value
            line = (f"  [{mark:>13}] {outcome.name} "
                    f"({outcome.wall_seconds:.2f}s)")
            if outcome.resumed:
                line += " [resumed]"
            if outcome.attempts > 1:
                line += f" [attempts={outcome.attempts}]"
            if outcome.quarantined:
                line += " [quarantined]"
            if outcome.error:
                line += f" — {outcome.error}"
            lines.append(line)
        if self.retries or self.quarantined_runs:
            lines.append(
                f"  durability: {self.retries} retr"
                f"{'y' if self.retries == 1 else 'ies'}, "
                f"{self.requeued} requeue(s), "
                f"{len(self.quarantined_runs)} quarantined")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": BATCH_SCHEMA,
            "ok": self.ok,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "designs_compiled": self.designs_compiled,
            "counts": self.counts(),
            "out_dir": self.out_dir,
            "trace_path": self.trace_path,
            "metrics_path": self.metrics_path,
            "status_dir": self.status_dir,
            "stalled_runs": list(self.stalled_runs),
            "journal_path": self.journal_path,
            "retries": self.retries,
            "requeued": self.requeued,
            "quarantined_runs": list(self.quarantined_runs),
            "resumed_runs": list(self.resumed_runs),
            "runs": [outcome.to_dict() for outcome in self.outcomes],
        }


def _validate(requests: Sequence[RunRequest]) -> None:
    if not requests:
        raise BatchError("batch needs at least one RunRequest")
    seen = set()
    for request in requests:
        if not isinstance(request, RunRequest):
            raise BatchError(
                f"expected a RunRequest, got {type(request).__name__}")
        if request.name in seen:
            raise BatchError(f"duplicate run name {request.name!r} — run "
                             "names key batch artifacts and must be unique")
        seen.add(request.name)
        if request.options.obs is not None:
            raise BatchError(
                f"run {request.name!r} carries an obs bundle; observability "
                "instruments hold open files and cannot cross process "
                "boundaries — use run_batch(trace=...) instead")
        if request.options.heartbeat_callback is not None:
            raise BatchError(
                f"run {request.name!r} sets heartbeat_callback; callables "
                "cannot cross process boundaries — batch runs heartbeat to "
                "per-run status files under <out_dir>/status/ instead")


class _Catalog:
    """Compile-once design cache: fingerprint -> pickled program image.

    Content-addressed by the full design key, NOT by the structural
    ``design_fingerprint()``: structure (net table + instruction
    counts) cannot tell apart designs that differ only in an operator
    or a constant — exactly the shape of a mutation campaign's mutants
    — and a collision here would silently run one design in place of
    another.  Thread-safe: serve admission compiles in HTTP handler
    threads.
    """

    def __init__(self) -> None:
        self.images: Dict[str, bytes] = {}
        self._lock = threading.Lock()

    def compile(self, request: RunRequest) -> str:
        """The design fingerprint of ``request``, compiling the design
        the first time it is seen."""
        from repro.compile import compile_design
        from repro.frontend import elaborate, parse_source

        source, top, defines = key = request.design_key()
        fingerprint = hashlib.sha256(
            repr(key).encode("utf-8")).hexdigest()
        with self._lock:
            if fingerprint not in self.images:
                modules = parse_source(source, defines=dict(defines) or None)
                program = compile_design(elaborate(modules, top=top))
                self.images[fingerprint] = pickle.dumps(program)
        return fingerprint


def _aggregate_metrics(result: BatchResult) -> MetricsRegistry:
    """Fold per-run payloads into the batch's ``batch.*`` families."""
    registry = result.metrics
    registry.gauge("batch.workers", "pool width").set(result.workers)
    registry.gauge("batch.wall_seconds",
                   "controller wall time for the whole batch") \
        .set(result.wall_seconds)
    registry.counter("batch.designs_compiled",
                     "unique designs compiled (each exactly once)") \
        .inc(result.designs_compiled)
    registry.counter("batch.stalled_runs",
                     "runs flagged by the stall watcher mid-batch") \
        .inc(len(result.stalled_runs))
    registry.counter("batch.retries",
                     "retry attempts dispatched beyond each run's first") \
        .inc(result.retries)
    registry.counter("batch.requeued",
                     "requeue events (failure retries + stall kills)") \
        .inc(result.requeued)
    registry.counter("batch.quarantined",
                     "runs quarantined after exhausting max_attempts") \
        .inc(len(result.quarantined_runs))
    registry.counter("batch.resumed_runs",
                     "runs restored from the batch journal") \
        .inc(len(result.resumed_runs))
    runs = registry.counter("batch.runs", "runs by outcome",
                            labels=("status",))
    attempts = registry.counter("batch.attempts",
                                "attempts consumed per run",
                                labels=("run",))
    wall = registry.gauge("batch.run_wall_seconds",
                          "per-run wall time in its worker",
                          labels=("run",))
    events = registry.counter("batch.run_events_processed",
                              "kernel events processed per run",
                              labels=("run",))
    nodes = registry.gauge("batch.run_bdd_nodes",
                           "final BDD arena size per run", labels=("run",))
    sim_time = registry.gauge("batch.run_sim_time",
                              "final simulation time per run",
                              labels=("run",))
    for outcome in result.outcomes:
        runs.labels(status=outcome.status.value).inc()
        attempts.labels(run=outcome.name).inc(outcome.attempts)
        wall.labels(run=outcome.name).set(outcome.wall_seconds)
        if outcome.result is not None:
            metrics = outcome.result.get("metrics", {})
            events.labels(run=outcome.name).inc(
                metrics.get("events_processed", 0))
            nodes.labels(run=outcome.name).set(
                metrics.get("bdd", {}).get("nodes", 0))
            sim_time.labels(run=outcome.name).set(
                outcome.result.get("time", 0))
    return registry


def _watch_stalls(
    status_dir: str,
    in_flight: Sequence[str],
    stalled_seen: set,
    stall_after: float,
    on_stall: Optional[Callable[[RunHealth], None]],
) -> None:
    """One poll of the status directory; fires ``on_stall`` once per run.

    A run is stalled when its latest heartbeat still says ``running``
    but is older than ``stall_after`` seconds — the worker is wedged in
    one giant step, thrashing in the BDD, or dead without a terminal
    record.  This is the observability half of hang isolation: the
    in-kernel guard (``ResourceBudgets.hang_*``) kills a wedged run
    from the inside; the watcher spots it from the outside and tells
    the controller *which* run to blame before the pool drains.  The
    engine calls this on **every** scheduling iteration — gating it on
    quiet poll windows would let a steady trickle of completions starve
    stall detection forever.
    """
    pending_names = set(in_flight)
    for health in assess_health(scan_status([status_dir]),
                                stall_after=stall_after):
        if not health.stalled or health.name in stalled_seen:
            continue
        if health.name not in pending_names:
            continue  # already reaped; terminal record just lagged
        stalled_seen.add(health.name)
        if on_stall is not None:
            on_stall(health)


# ---------------------------------------------------------------------
# the worker pool: one process per slot, one leased run per process
# ---------------------------------------------------------------------


class _Worker:
    """One pool slot: a process, its pipes, and its current lease."""

    __slots__ = ("id", "process", "task_send", "result_recv", "lease",
                 "controller_killed", "shipped")

    def __init__(self, worker_id: int, ctx, init_args: tuple) -> None:
        self.id = worker_id
        task_recv, self.task_send = ctx.Pipe(duplex=False)
        self.result_recv, result_send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(task_recv, result_send) + init_args,
            daemon=True, name=f"repro-batch-w{worker_id}")
        self.process.start()
        # the controller holds only its own pipe ends
        task_recv.close()
        result_send.close()
        self.lease: Optional[Lease] = None
        self.controller_killed = False
        #: Design fingerprints whose program image this worker holds.
        self.shipped: set = set()

    def alive(self) -> bool:
        return self.process.is_alive()

    def close(self) -> None:
        for conn in (self.task_send, self.result_recv):
            try:
                conn.close()
            except OSError:
                pass


class _WorkerPool:
    """Fixed-width pool of :class:`_Worker` slots with respawn."""

    def __init__(self, width: int, init_args: tuple) -> None:
        self._ctx = multiprocessing.get_context()
        self._init_args = init_args
        self._next_id = 0
        self.width = width
        self.workers: List[_Worker] = []

    def spawn(self, count: int) -> None:
        for _ in range(count):
            if len(self.workers) >= self.width:
                return
            worker = _Worker(self._next_id, self._ctx, self._init_args)
            self._next_id += 1
            self.workers.append(worker)

    def idle(self) -> List[_Worker]:
        # a worker the controller just killed may not have exited yet
        return [worker for worker in self.workers
                if worker.lease is None and not worker.controller_killed
                and worker.alive()]

    def dead(self) -> List[_Worker]:
        return [worker for worker in self.workers if not worker.alive()]

    def reap(self, worker: _Worker) -> None:
        """Forget a dead worker (close pipes, join the corpse)."""
        worker.close()
        worker.process.join(timeout=1.0)
        self.workers.remove(worker)

    def kill(self, worker: _Worker) -> None:
        """SIGKILL a worker (lease-timeout escalation)."""
        worker.controller_killed = True
        try:
            worker.process.kill()
        except (OSError, ValueError):
            pass

    def shutdown(self) -> None:
        for worker in self.workers:
            if worker.alive() and worker.lease is None:
                try:
                    worker.task_send.send(None)
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.perf_counter() + 5.0
        for worker in self.workers:
            worker.process.join(
                timeout=max(deadline - time.perf_counter(), 0.1))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=1.0)
            worker.close()
        self.workers.clear()


# ---------------------------------------------------------------------
# the controller
# ---------------------------------------------------------------------


class _Controller:
    """The one scheduling loop behind ``run_batch`` and ``symsim serve``.

    Owns a :class:`_WorkerPool` and drives a :class:`JobQueue`: it
    dispatches ready runs to idle workers (shipping each program image
    at most once per worker), blocks until something happens, reaps
    results and dead workers, retries or quarantines failures through
    :meth:`JobQueue.fail`, escalates expired leases (stall → kill →
    requeue), watches for stalls, and respawns workers while work
    remains.  Attempt events (``start`` / ``requeue`` /
    ``quarantine``) go to ``journal``; each terminal
    :class:`RunOutcome` goes to ``on_result``.

    :meth:`run` blocks in one ``multiprocessing.connection.wait`` on
    every worker's result pipe and process sentinel, a self-pipe that
    :meth:`wake` writes to, and a timeout set by the nearest timer
    (retry backoff, lease timeout, stall watch) — with no timer armed
    it sleeps until a worker or a caller has news.  Callers that add
    jobs from other threads pass the ``lock`` that guards the queue;
    the loop holds it while it touches scheduling state and releases
    it while it waits, and ``on_result`` runs with it held.
    """

    def __init__(self, queue: JobQueue, catalog: _Catalog, workers: int,
                 init_args: tuple,
                 journal: Optional[BatchJournal] = None,
                 status_dir: Optional[str] = None,
                 stall_after: Optional[float] = None,
                 on_stall: Optional[Callable[[RunHealth], None]] = None,
                 on_result: Optional[Callable[[RunOutcome], None]] = None,
                 lock=None) -> None:
        self.queue = queue
        self.policy = queue.policy
        self.catalog = catalog
        self.pool = _WorkerPool(workers, init_args)
        self.journal = journal
        self.status_dir = status_dir
        self.stall_after = stall_after
        self.on_stall = on_stall
        self.on_result = on_result
        self.lock = lock if lock is not None else threading.Lock()
        #: worker pid -> (trace shard path, shard t0) for the merge.
        self.shards: Dict[int, Tuple[str, float]] = {}
        #: Runs the stall watcher or the lease escalation flagged.
        self.stalled: set = set()
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._closed = False
        self._drain = True

    def wake(self) -> None:
        """Interrupt the loop's wait (new jobs, close)."""
        try:
            self._wake_send.send(b"\0")
        except OSError:
            pass  # buffer full (a wake-up is pending) or shut down

    def close(self, drain: bool = True) -> None:
        """No more jobs will be added: :meth:`run` returns once every
        queued run is terminal — or, with ``drain=False``, at once."""
        self._closed = True
        self._drain = drain
        self.wake()

    def shutdown(self) -> None:
        """Stop the workers and release the self-pipe."""
        self.pool.shutdown()
        self._wake_recv.close()
        self._wake_send.close()

    def run(self) -> None:
        ready: list = []
        while True:
            with self.lock:
                if self._closed and not self._drain:
                    return
                self._reap(ready)
                if self._closed and self.queue.finished():
                    return
                self._dispatch()
                objects = [self._wake_recv]
                for worker in self.pool.workers:
                    objects += (worker.result_recv, worker.process.sentinel)
                timeout = self._timeout()
            ready = _mpconn.wait(objects, timeout)

    def _timeout(self) -> Optional[float]:
        timeouts = []
        if self.stall_after is not None:
            timeouts.append(min(self.stall_after / 2.0, 2.0))
        if self.policy.lease_timeout is not None:
            timeouts.append(min(self.policy.lease_timeout / 2.0, 2.0))
        delay = self.queue.next_delay()
        if delay is not None:
            timeouts.append(max(delay, 0.01))
        return min(timeouts) if timeouts else None

    def _dispatch(self) -> None:
        for worker in self.pool.idle():
            lease = self.queue.lease(worker.id, worker.process.pid or -1)
            if lease is None:
                return
            job = self.queue.job(lease.name)
            image = None if job.fingerprint in worker.shipped \
                else self.catalog.images[job.fingerprint]
            try:
                worker.task_send.send(
                    (job.request, job.fingerprint, lease.attempt, image))
            except (BrokenPipeError, OSError):
                # the worker died between polls; put the run back
                # unblamed — the death itself is reaped next iteration
                self.queue.release(lease.name)
                continue
            worker.shipped.add(job.fingerprint)
            worker.lease = lease
            if self.journal is not None:
                self.journal.attempt(lease.name, lease.attempt, "start",
                                     worker_pid=lease.worker_pid)

    def _reap(self, ready: list) -> None:
        if self._wake_recv in ready:
            try:
                while self._wake_recv.recv(4096):
                    pass
            except BlockingIOError:
                pass

        # 1. results
        for worker in list(self.pool.workers):
            if worker.result_recv not in ready:
                continue
            try:
                raw = worker.result_recv.recv()
            except (EOFError, OSError):
                continue  # died after readiness; reaped below
            lease, worker.lease = worker.lease, None
            if lease is None:
                continue  # stray late result from an escalated lease
            if raw.get("shard_path") is not None:
                self.shards[raw["worker_pid"]] = (
                    raw["shard_path"], raw["t0_unix_us"])
            outcome = RunOutcome(
                name=raw["name"],
                status=SimStatus(raw["status"]),
                result=raw["result"],
                error=raw["error"],
                wall_seconds=raw["wall_seconds"],
                worker_pid=raw["worker_pid"],
                vcd_path=raw["vcd_path"],
                resumed_from_checkpoint=raw.get(
                    "resumed_from_checkpoint", False),
            )
            if outcome.status.value in self.policy.retry_statuses:
                self._fail(outcome.name, "status",
                           raw["error"] or outcome.status.value,
                           raw["worker_pid"], outcome)
            else:
                self._finalize(outcome)

        # 2. dead workers: requeue exactly the runs they held
        for worker in self.pool.dead():
            lease, worker.lease = worker.lease, None
            if lease is not None and not worker.controller_killed:
                exitcode = worker.process.exitcode
                self._fail(lease.name, "worker-lost",
                           f"worker lost: pid {lease.worker_pid} died "
                           f"(exit {exitcode}) holding attempt "
                           f"{lease.attempt}",
                           lease.worker_pid, None)
            self.pool.reap(worker)
        pending = len(self.queue.pending_names())
        self.pool.spawn(min(self.pool.width, pending)
                        - len(self.pool.workers))

        # 3. flag-only stall watch — every iteration, never starved by
        # a steady trickle of completions (see _watch_stalls)
        if self.status_dir is not None and self.stall_after is not None:
            _watch_stalls(self.status_dir, self.queue.pending_names(),
                          self.stalled, self.stall_after, self.on_stall)

        # 4. lease-timeout escalation: stall -> kill -> requeue
        if self.policy.lease_timeout is not None:
            self._escalate()

    def _escalate(self) -> None:
        now_unix = time.time()
        now_mono = time.perf_counter()
        for worker in list(self.pool.workers):
            lease = worker.lease
            if lease is None or not worker.alive():
                continue
            record = read_status(os.path.join(
                self.status_dir, f"{lease.name}.json")) \
                if self.status_dir is not None else None
            health = assess_lease(
                lease.name, lease.worker_pid,
                lease.age(now_mono), record,
                kill_after=self.policy.lease_timeout,
                now_unix=now_unix,
                started_unix=lease.started_unix)
            if not health.expired:
                continue
            worker.lease = None
            self.pool.kill(worker)
            self.stalled.add(lease.name)
            heartbeat = "n/a" if health.heartbeat_age is None \
                else f"{health.heartbeat_age:.1f}s"
            self._fail(lease.name, "stall-kill",
                       f"lease expired after {health.lease_age:.1f}s "
                       f"(heartbeat age {heartbeat}); "
                       f"worker pid {lease.worker_pid} killed",
                       lease.worker_pid, None)

    def _finalize(self, outcome: RunOutcome) -> None:
        self.queue.complete(outcome.name, outcome)
        if self.on_result is not None:
            self.on_result(outcome)

    def _fail(self, name: str, kind: str, error: str,
              worker_pid: Optional[int],
              last: Optional[RunOutcome]) -> None:
        """Route a retryable failure; quarantine on exhaustion."""
        disposition = self.queue.fail(name, kind, error, worker_pid)
        if disposition["action"] == "requeue":
            if self.journal is not None:
                self.journal.attempt(name, disposition["attempt"],
                                     "requeue", failure_kind=kind,
                                     error=error, worker_pid=worker_pid,
                                     delay=disposition["delay"])
            return
        outcome = last if last is not None else RunOutcome(
            name=name, status=SimStatus.ABORTED, error=error,
            worker_pid=worker_pid)
        outcome.quarantined = True
        outcome.error = (f"quarantined after "
                         f"{disposition['attempt']} attempt(s): {error}")
        if self.journal is not None:
            self.journal.attempt(name, disposition["attempt"], "quarantine",
                                 failure_kind=kind, error=error,
                                 worker_pid=worker_pid)
        self._finalize(outcome)


def run_batch(
    requests: Sequence[RunRequest],
    workers: int = 1,
    out_dir: Optional[str] = None,
    on_result: Optional[Callable[[RunOutcome], None]] = None,
    trace: bool = True,
    write_metrics: bool = True,
    heartbeat_every: Optional[int] = DEFAULT_EVERY,
    stall_after: Optional[float] = None,
    on_stall: Optional[Callable[[RunHealth], None]] = None,
    retry: Optional[RetryPolicy] = None,
    journal: bool = True,
    resume: bool = False,
) -> BatchResult:
    """Run every request on a durable pool of ``workers`` processes.

    ``on_result`` (if given) is called in the controller with each
    *terminal* :class:`RunOutcome` as it lands — completion order, not
    request order; the returned :class:`BatchResult` restores request
    order.  ``trace=True`` gives each worker a JSONL shard and merges
    them into ``<out_dir>/trace.json`` with one Chrome lane per worker.
    ``heartbeat_every`` makes each run emit a live status file to
    ``<out_dir>/status/<name>.json`` every N safe points (``symsim
    top`` tails these; pass ``None``/0 to disable).  ``stall_after``
    (seconds) turns on the flag-only stall watcher: runs whose
    heartbeat goes quiet are reported once each through ``on_stall``
    and in :attr:`BatchResult.stalled_runs`.

    ``retry`` is the :class:`~repro.batch.queue.RetryPolicy` governing
    leases, retries, backoff, quarantine and the (optional)
    lease-timeout kill escalation; the default policy retries
    infrastructure failures (worker death, stall kills) up to 3
    attempts and treats run-level statuses as terminal.  ``journal``
    appends scheduling events and terminal outcomes to
    ``<out_dir>/journal.jsonl`` (``BATCHJRNL/1``); ``resume=True``
    reads that journal, re-verifies request fingerprints and the
    design-catalog hash, restores journaled terminal runs, and
    executes only the rest.

    Individual run failures never raise; :class:`BatchError` covers
    controller-side problems only (bad requests, pool startup, a
    journal that does not match the manifest).
    """
    _validate(requests)
    if workers < 1:
        raise BatchError(f"workers must be >= 1, got {workers}")
    if stall_after is not None and not heartbeat_every:
        raise BatchError("stall_after needs heartbeats — "
                         "set heartbeat_every")
    if resume and not journal:
        raise BatchError("resume=True needs the journal — "
                         "drop journal=False")
    if resume and out_dir is None:
        raise BatchError("resume=True needs the out_dir of the "
                         "journaled batch")
    policy = retry if retry is not None else RetryPolicy()
    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix="repro-batch-")
    else:
        os.makedirs(out_dir, exist_ok=True)
    status_dir = os.path.join(out_dir, "status") if heartbeat_every else None

    wall_start = time.perf_counter()
    catalog = _Catalog()
    by_run = {request.name: catalog.compile(request)
              for request in requests}
    fingerprints = {request.name: request_fingerprint(request,
                                                      by_run[request.name])
                    for request in requests}
    cat_sha = catalog_sha(catalog.images)

    journal_path = os.path.join(out_dir, JOURNAL_NAME) if journal else None
    restored: Dict[str, RunOutcome] = {}
    jrnl: Optional[BatchJournal] = None
    if resume:
        state = read_journal(journal_path)
        state.verify(fingerprints, cat_sha)
        for name, payload in state.terminal.items():
            outcome = RunOutcome.from_dict(payload)
            outcome.resumed = True
            restored[name] = outcome
        jrnl = BatchJournal.reopen(journal_path, len(restored))
    elif journal:
        jrnl = BatchJournal.create(journal_path, fingerprints, cat_sha)

    def finalize(outcome: RunOutcome) -> None:
        if jrnl is not None:
            jrnl.terminal(outcome.name, outcome.to_dict())
        if on_result is not None:
            on_result(outcome)

    queue = JobQueue(
        [(request, by_run[request.name]) for request in requests
         if request.name not in restored],
        policy)
    controller = _Controller(
        queue, catalog, workers, (out_dir, trace, heartbeat_every or None),
        journal=jrnl, status_dir=status_dir, stall_after=stall_after,
        on_stall=on_stall, on_result=finalize)
    controller.close()  # every run is queued: run() drains them
    try:
        if not queue.finished():
            try:
                controller.pool.spawn(
                    min(workers, len(queue.pending_names())))
            except Exception as exc:  # pool start is controller-side
                raise BatchError(
                    f"could not start worker pool: {exc}") from exc
        controller.run()
    finally:
        controller.shutdown()
        if jrnl is not None:
            jrnl.close()

    outcomes = dict(restored)
    outcomes.update(queue.outcomes)
    result = BatchResult(
        outcomes=[outcomes[request.name] for request in requests],
        out_dir=out_dir,
        workers=workers,
        wall_seconds=time.perf_counter() - wall_start,
        designs_compiled=len(catalog.images),
        status_dir=status_dir,
        stalled_runs=sorted(controller.stalled),
        journal_path=journal_path,
        retries=queue.retries,
        requeued=queue.requeued,
        quarantined_runs=sorted(queue.quarantined),
        resumed_runs=sorted(restored),
    )
    if controller.shards:
        result.trace_path = os.path.join(out_dir, "trace.json")
        merge_shards(controller.shards, result.trace_path)
    _aggregate_metrics(result)
    if write_metrics:
        result.metrics_path = os.path.join(out_dir, "metrics.json")
        result.metrics.write_json(result.metrics_path)
    return result
