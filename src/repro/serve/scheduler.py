"""The serve scheduler: a multi-tenant front end to the batch controller.

This is the controller side of the :mod:`repro.serve` front door.  It
drives the same scheduling loop ``run_batch`` drains
(:class:`~repro.batch.engine._Controller` over one long-lived worker
pool and a :class:`~repro.batch.queue.JobQueue`) from a background
thread, and feeds it submissions as they arrive over HTTP instead of
a fixed manifest.  Dispatch, retries, backoff, quarantine, lease-
timeout kills and compile-once are the controller's; this module
keeps what belongs to a service:

* **Admission** (:meth:`Scheduler.submit`, called from HTTP handler
  threads): parse the body through :func:`repro.api.parse_run`, clamp
  the request's guard budgets to the tenant's
  :class:`TenantQuota` ceilings, compile the design through the
  controller's content-addressed catalog (once per unique design),
  fingerprint the request, and either serve it from the result cache,
  coalesce it onto an identical in-flight run, or queue it and wake
  the controller through its self-pipe.
* **Fairness** is data in the queue: one lane per tenant, drained
  round-robin and capped at the tenant's ``max_in_flight`` — a tenant
  burst-submitting hundreds of runs delays its own lane, not its
  neighbours'.  ``max_pending`` bounds queue depth
  (:class:`QuotaExceeded` → HTTP 429 with ``Retry-After``).
* **Dedup**: the result cache is keyed by the PR 8 *request
  fingerprint* — design content hash + seed + every semantic option
  (:func:`repro.batch.journal.request_fingerprint`), so a resubmission
  differing only in operational knobs (``heartbeat_every``, paths,
  ``compile_tier``) still hits.  Hits are served **byte-identically**:
  the cold run's rendered outcome payload is stored and replayed
  verbatim (the ``cached`` marker lives in the run *status* and the
  ``X-Serve-Cache`` header, never inside the payload).  Only verdict
  statuses (``ok``, ``assert_failed``) are cached — aborts, hangs and
  quarantines may be environmental and always re-execute.
* **Durability**: the :class:`~repro.batch.queue.RetryPolicy` in
  ``ServeConfig.retry`` applies as in a batch — worker deaths and
  expired leases (``lease_timeout``) requeue with backoff until
  ``max_attempts``, then quarantine.  Submissions, attempt events and
  terminal outcomes append to a ``SERVEJRNL/2`` journal under the out
  dir, written through :class:`~repro.batch.journal.BatchJournal`.
* **Drain**: :meth:`Scheduler.close` stops admission, cancels queued
  runs (journaled as ``cancelled``), lets in-flight runs finish to
  journaled completion, then shuts the pool down.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import REQUEST_SCHEMA, parse_run
from repro.batch.engine import RunOutcome, _Catalog, _Controller
from repro.batch.journal import BatchJournal, request_fingerprint
from repro.batch.queue import JobQueue, RetryPolicy
from repro.errors import ReproError, RequestError
from repro.guard import ResourceBudgets
from repro.obs import MetricsRegistry
from repro.obs.live import DEFAULT_EVERY, read_status, scan_status

#: Journal format tag of ``<out_dir>/serve.jsonl``.
SERVE_JOURNAL_SCHEMA = "SERVEJRNL/2"

#: Statuses whose outcomes enter the result cache.  Verdicts only:
#: an abort/hang/quarantine may be environmental (memory pressure,
#: infrastructure) and must re-execute on resubmission.
CACHEABLE_STATUSES = frozenset({"ok", "assert_failed"})


class QuotaExceeded(ReproError):
    """A tenant's queue is full — HTTP 429 with ``Retry-After``."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServeUnavailable(ReproError):
    """The scheduler is draining/closed — HTTP 503."""


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's admission limits and guard-budget ceilings."""

    #: Pool slots this tenant may hold simultaneously.
    max_in_flight: int = 2
    #: Non-terminal runs (queued + running) this tenant may have before
    #: submissions are rejected with 429.
    max_pending: int = 16
    #: Ceilings clamped onto every submission's
    #: :class:`~repro.guard.ResourceBudgets` — a tenant may ask for
    #: *less* than its ceiling, never more.  None leaves requests
    #: unclamped.
    budgets: Optional[ResourceBudgets] = None

    def clamp(self, options):
        """Options with budgets folded under this tenant's ceilings.

        Field-wise ``min`` with None-is-unlimited semantics; a request
        without budgets inherits the ceilings outright.  Clamping
        happens *before* fingerprinting, so dedup keys on the budgets
        a run actually executes under.
        """
        if self.budgets is None:
            return options
        requested = options.budgets
        fields = {}
        for name in ("wall_seconds", "max_live_nodes", "max_rss_mb",
                     "max_events"):
            ceiling = getattr(self.budgets, name)
            asked = getattr(requested, name) if requested is not None \
                else None
            if ceiling is None:
                fields[name] = asked
            elif asked is None:
                fields[name] = ceiling
            else:
                fields[name] = min(asked, ceiling)
        asked_conc = requested.max_concretizations \
            if requested is not None else self.budgets.max_concretizations
        fields["max_concretizations"] = min(
            asked_conc, self.budgets.max_concretizations)
        return dataclasses.replace(options,
                                   budgets=ResourceBudgets(**fields))


@dataclass
class ServeConfig:
    """Everything :func:`repro.serve.serve_app` needs to boot."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Worker pool width (same semantics as ``run_batch(workers=...)``).
    workers: int = 1
    #: Artifact root (runs/, status/, serve.jsonl); a temp dir when None.
    out_dir: Optional[str] = None
    #: Heartbeat cadence for per-run status files (None/0 disables).
    heartbeat_every: Optional[int] = DEFAULT_EVERY
    #: Give workers JSONL trace shards (off by default for a service).
    trace: bool = False
    #: Lease retry/quarantine policy (the batch default when None).
    retry: Optional[RetryPolicy] = None
    #: Quota for tenants absent from :attr:`quotas`.
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    #: Per-tenant quota overrides.
    quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    #: Append submissions/outcomes to ``<out_dir>/serve.jsonl``.
    journal: bool = True

    def quota(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)


@dataclass
class _Run:
    """Serve-side state of one submission (scheduling state lives in
    the controller's :class:`~repro.batch.queue.JobQueue`)."""

    id: str
    tenant: str
    #: Request fingerprint — keys the result cache / coalescing.
    fingerprint: str
    state: str = "queued"  # queued | done | cancelled
    cached: bool = False
    #: Run id this submission coalesced onto (identical in-flight run).
    primary: Optional[str] = None
    #: Attempts the terminal outcome consumed (0 when never executed).
    attempts: int = 0
    #: Terminal ``RunOutcome.to_dict()`` payload.
    outcome: Optional[dict] = None
    #: The exact bytes ``GET /v1/runs/<id>/result`` serves — stored
    #: once at completion so cache hits replay them verbatim.
    result_bytes: Optional[bytes] = None


class Scheduler:
    """See the module docstring.  Thread-safe; HTTP handler threads
    call :meth:`submit`/:meth:`snapshot`/:meth:`wait_done`, one
    controller thread runs the shared batch controller loop."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.out_dir = self.config.out_dir or tempfile.mkdtemp(
            prefix="repro-serve-")
        os.makedirs(self.out_dir, exist_ok=True)
        self.status_dir = os.path.join(self.out_dir, "status") \
            if self.config.heartbeat_every else None

        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._runs: Dict[str, _Run] = {}
        self._seq = itertools.count(1)
        #: request fingerprint -> cached result payload bytes / outcome.
        self._cache: Dict[str, bytes] = {}
        self._cache_outcome: Dict[str, dict] = {}
        #: request fingerprint -> id of the live primary run.
        self._primary_by_fp: Dict[str, str] = {}
        #: primary run id -> coalesced follower run ids.
        self._followers: Dict[str, List[str]] = {}
        self._catalog = _Catalog()
        self._stopping = False
        self._closed = False

        self.metrics = MetricsRegistry()
        m = self.metrics
        self._m_submitted = m.counter(
            "serve.submitted", "accepted submissions", labels=("tenant",))
        self._m_rejected = m.counter(
            "serve.rejected", "rejected submissions",
            labels=("tenant", "reason"))
        self._m_completed = m.counter(
            "serve.completed", "terminal runs by status",
            labels=("status",))
        self._m_cache_hits = m.counter(
            "serve.cache.hits", "submissions served from the result cache")
        self._m_cache_misses = m.counter(
            "serve.cache.misses", "submissions that executed cold")
        self._m_cache_coalesced = m.counter(
            "serve.cache.coalesced",
            "submissions coalesced onto an identical in-flight run")
        self._m_retries = m.counter(
            "serve.retries", "retry attempts consumed by finished runs")
        self._m_quarantined = m.counter(
            "serve.quarantined", "runs quarantined after max_attempts")
        self._m_cancelled = m.counter(
            "serve.cancelled", "queued runs cancelled by shutdown")
        m.gauge("serve.queued", "runs waiting for a slot").set_function(
            lambda: self._count_state("queued"))
        m.gauge("serve.in_flight", "runs on workers").set_function(
            lambda: self._count_state("running"))

        self._journal: Optional[BatchJournal] = None
        if self.config.journal:
            path = os.path.join(self.out_dir, "serve.jsonl")
            self._journal = BatchJournal(
                open(path, "a", encoding="utf-8"), path)
            self._journal.append({"kind": "header",
                                  "schema": SERVE_JOURNAL_SCHEMA,
                                  "workers": self.config.workers})

        # one lane per tenant, capped at the tenant's pool share
        self._queue = JobQueue(
            policy=self.config.retry or RetryPolicy(),
            lane_cap=lambda tenant: self.config.quota(tenant).max_in_flight)
        self._controller = _Controller(
            self._queue, self._catalog, self.config.workers,
            (self.out_dir, self.config.trace,
             self.config.heartbeat_every or None),
            journal=self._journal, status_dir=self.status_dir,
            on_result=self._on_result, lock=self._lock)
        self._thread = threading.Thread(
            target=self._controller.run, name="repro-serve-scheduler",
            daemon=True)

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "Scheduler":
        self._controller.pool.spawn(self.config.workers)
        self._thread.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop admission, drain (or abandon) in-flight runs, shut the
        pool down, close the journal.  Idempotent."""
        with self._cv:
            if self._closed:
                return
            self._stopping = True
            self._stop_locked(drain)
        if self._thread.is_alive():
            self._thread.join(timeout=60)
            if self._thread.is_alive():  # a run outlived the drain window
                with self._cv:
                    self._stop_locked(drain=False)
                self._thread.join(timeout=5)
        self._controller.shutdown()
        with self._cv:
            self._closed = True
            if self._journal is not None:
                self._journal.append({"kind": "close"})
                self._journal.close()
                self._journal = None
            self._cv.notify_all()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- admission (HTTP handler threads) ------------------------------

    def submit(self, spec: dict) -> dict:
        """Admit one ``repro.serve.request/1`` submission.

        Returns the run's status snapshot.  Raises
        :class:`~repro.errors.RequestError` (bad request, 400),
        :class:`QuotaExceeded` (429) or :class:`ServeUnavailable`
        (503); design compile errors surface as their usual
        :class:`~repro.errors.ReproError` subtypes (also 400 at the
        HTTP layer — the design is part of the request).
        """
        if not isinstance(spec, dict):
            raise RequestError("request body must be a JSON object")
        schema = spec.get("schema")
        if schema is not None and schema != REQUEST_SCHEMA:
            raise RequestError(
                f"unsupported schema {schema!r} "
                f"(this server speaks {REQUEST_SCHEMA})")
        tenant = spec.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise RequestError("\"tenant\" must be a non-empty string")
        quota = self.config.quota(tenant)

        rid = f"r{next(self._seq):06d}"
        request = parse_run(spec, base_dir=None, name=rid)
        request = dataclasses.replace(
            request, options=quota.clamp(request.options))
        # The submitting thread compiles (and pays for) its own design;
        # a bad design is a 400, never a poisoned pool.
        design_fp = self._catalog.compile(request)
        fingerprint = request_fingerprint(request, design_fp)

        with self._cv:
            if self._stopping:
                raise ServeUnavailable("server is draining; not "
                                       "accepting submissions")
            pending = sum(1 for run in self._runs.values()
                          if run.tenant == tenant and run.state == "queued")
            if pending >= quota.max_pending:
                self._m_rejected.labels(tenant=tenant, reason="quota").inc()
                raise QuotaExceeded(
                    f"tenant {tenant!r} has {pending} pending runs "
                    f"(max_pending={quota.max_pending})",
                    retry_after=max(1.0, pending * 0.5))
            run = _Run(id=rid, tenant=tenant, fingerprint=fingerprint)
            self._runs[rid] = run
            self._m_submitted.labels(tenant=tenant).inc()

            cached = self._cache.get(fingerprint)
            if cached is not None:
                run.state = "done"
                run.cached = True
                run.result_bytes = cached
                run.outcome = self._cache_outcome[fingerprint]
                self._m_cache_hits.inc()
                self._m_completed.labels(
                    status=run.outcome["status"]).inc()
                self._append_journal({"kind": "cached", "id": rid,
                                      "tenant": tenant,
                                      "fingerprint": fingerprint})
                self._cv.notify_all()
            elif fingerprint in self._primary_by_fp:
                primary = self._primary_by_fp[fingerprint]
                run.primary = primary
                self._followers.setdefault(primary, []).append(rid)
                self._m_cache_coalesced.inc()
                self._append_journal({"kind": "submitted", "id": rid,
                                      "tenant": tenant,
                                      "fingerprint": fingerprint,
                                      "coalesced_with": primary})
            else:
                self._m_cache_misses.inc()
                self._primary_by_fp[fingerprint] = rid
                self._append_journal({"kind": "submitted", "id": rid,
                                      "tenant": tenant,
                                      "fingerprint": fingerprint})
                self._queue.add(request, design_fp, lane=tenant)
                self._controller.wake()
            return self._snapshot_locked(run)

    # -- inspection (HTTP handler threads) ------------------------------

    def snapshot(self, rid: str) -> Optional[dict]:
        """The run's status document, or None for an unknown id."""
        with self._lock:
            run = self._runs.get(rid)
            if run is None:
                return None
            return self._snapshot_locked(run)

    def _state_locked(self, run: _Run) -> Tuple[str, int]:
        """``(state, attempts)`` with ``running`` and the attempts of a
        live run read from the queue."""
        if run.state != "queued" or run.primary is not None:
            return run.state, run.attempts
        job = self._queue.job(run.id)
        return ("running" if job.leased else "queued"), job.attempt - 1

    def _count_state(self, state: str) -> int:
        with self._lock:
            return sum(1 for run in self._runs.values()
                       if self._state_locked(run)[0] == state)

    def _snapshot_locked(self, run: _Run) -> dict:
        state, attempts = self._state_locked(run)
        doc = {
            "id": run.id,
            "tenant": run.tenant,
            "state": state,
            "cached": run.cached,
            "fingerprint": run.fingerprint,
            "attempts": attempts,
        }
        if run.primary is not None:
            doc["primary"] = run.primary
        if run.outcome is not None:
            doc["status"] = run.outcome["status"]
            doc["ok"] = run.outcome["ok"]
            doc["quarantined"] = run.outcome["quarantined"]
        if self.status_dir is not None:
            # followers never execute — their heartbeat is the primary's
            beat_id = run.primary or run.id
            record = read_status(
                os.path.join(self.status_dir, f"{beat_id}.json"))
            if record is not None:
                doc["heartbeat"] = record
        return doc

    def result_bytes(self, rid: str) -> Optional[Tuple[str, bytes, bool]]:
        """``(state, payload, cached)`` for a run; payload is None
        unless done.  None for an unknown id."""
        with self._lock:
            run = self._runs.get(rid)
            if run is None:
                return None
            return self._state_locked(run)[0], run.result_bytes, run.cached

    def wait_done(self, rid: str, timeout: float) -> bool:
        """Block until the run leaves the queue/pool (or timeout)."""
        deadline = time.monotonic() + timeout
        with self._cv:
            while True:
                run = self._runs.get(rid)
                if run is None or run.state in ("done", "cancelled"):
                    return run is not None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(remaining)

    def status_records(self) -> List[dict]:
        if self.status_dir is None:
            return []
        return scan_status([self.status_dir])

    # -- terminal outcomes (controller thread, lock held) ---------------

    def _on_result(self, outcome: RunOutcome) -> None:
        run = self._runs[outcome.name]
        run.state = "done"
        run.attempts = outcome.attempts
        run.outcome = outcome.to_dict()
        run.result_bytes = json.dumps(
            run.outcome, sort_keys=True).encode("utf-8")
        self._m_completed.labels(status=run.outcome["status"]).inc()
        self._m_retries.inc(outcome.attempts - 1)
        if outcome.quarantined:
            self._m_quarantined.inc()
        self._append_journal({"kind": "terminal", "id": run.id,
                              "tenant": run.tenant,
                              "fingerprint": run.fingerprint,
                              "outcome": run.outcome})
        if (outcome.status.value in CACHEABLE_STATUSES
                and not outcome.quarantined):
            self._cache[run.fingerprint] = run.result_bytes
            self._cache_outcome[run.fingerprint] = run.outcome
        # identical submissions that arrived while this ran resolve now,
        # byte-identically, without ever touching a worker
        for fid in self._followers.pop(run.id, []):
            follower = self._runs[fid]
            if follower.state == "cancelled":
                continue
            follower.state = "done"
            follower.cached = True
            follower.outcome = run.outcome
            follower.result_bytes = run.result_bytes
            self._m_completed.labels(status=run.outcome["status"]).inc()
            self._append_journal({"kind": "terminal", "id": fid,
                                  "tenant": follower.tenant,
                                  "fingerprint": follower.fingerprint,
                                  "cached_from": run.id})
        self._primary_by_fp.pop(run.fingerprint, None)
        self._cv.notify_all()

    def _stop_locked(self, drain: bool) -> None:
        """Cancel queued runs and every coalesced follower — and, when
        not draining, the runs on workers too — then stop the
        controller."""
        for run in self._runs.values():
            if run.state == "queued" and (
                    not drain or run.primary is not None
                    or self._queue.cancel(run.id)):
                self._cancel_locked(run)
        self._controller.close(drain)
        self._cv.notify_all()

    def _cancel_locked(self, run: _Run) -> None:
        run.state = "cancelled"
        self._m_cancelled.inc()
        self._append_journal({"kind": "cancelled", "id": run.id,
                              "tenant": run.tenant})
        if self._primary_by_fp.get(run.fingerprint) == run.id:
            del self._primary_by_fp[run.fingerprint]
        for fid in self._followers.pop(run.id, []):
            follower = self._runs[fid]
            if follower.state == "queued":
                self._cancel_locked(follower)

    def _append_journal(self, record: dict) -> None:
        if self._journal is not None:
            self._journal.append(record)
