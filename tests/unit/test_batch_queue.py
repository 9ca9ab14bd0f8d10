"""The durable batch queue in isolation: RetryPolicy validation and
deterministic backoff, lease lifecycle, requeue/quarantine routing."""

from __future__ import annotations

import pytest

from repro.batch.queue import JobQueue, Lease, RetryPolicy
from repro.errors import BatchError


class _Req:
    """Stand-in for a RunRequest: the queue only reads .name."""

    def __init__(self, name):
        self.name = name


def _queue(names=("a", "b"), **policy_kwargs):
    policy = RetryPolicy(**policy_kwargs)
    return JobQueue([(_Req(n), f"fp-{n}") for n in names], policy)


# ---------------------------------------------------------------------------
# RetryPolicy


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(BatchError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(BatchError):
            RetryPolicy(backoff_base=-1)
        with pytest.raises(BatchError):
            RetryPolicy(jitter_frac=1.5)
        with pytest.raises(BatchError):
            RetryPolicy(lease_timeout=0)
        # ok/assert_failed are verdicts, never retryable failures
        with pytest.raises(BatchError):
            RetryPolicy(retry_statuses={"ok"})
        with pytest.raises(BatchError):
            RetryPolicy(retry_statuses=["assert_failed"])

    def test_retry_statuses_normalized_to_frozenset(self):
        policy = RetryPolicy(retry_statuses=["aborted", "hang"])
        assert policy.retry_statuses == frozenset({"aborted", "hang"})

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_cap=2.0, seed=7)
        # first attempt never waits
        assert policy.backoff_delay("r", 1) == 0.0
        # same (seed, name, attempt) -> same delay, bit for bit
        assert policy.backoff_delay("r", 2) == policy.backoff_delay("r", 2)
        # different runs decorrelate
        assert policy.backoff_delay("r", 2) != policy.backoff_delay("s", 2)
        # capped exponential, within the jitter band around the cap
        late = policy.backoff_delay("r", 9)
        assert late <= 2.0 * (1 + policy.jitter_frac)
        assert late >= 2.0 * (1 - policy.jitter_frac)

    def test_backoff_without_jitter_is_pure_exponential(self):
        policy = RetryPolicy(backoff_base=0.25, backoff_cap=100.0,
                             jitter_frac=0.0)
        assert policy.backoff_delay("x", 2) == 0.25
        assert policy.backoff_delay("x", 3) == 0.5
        assert policy.backoff_delay("x", 4) == 1.0

    def test_zero_base_disables_backoff(self):
        policy = RetryPolicy(backoff_base=0.0)
        assert policy.backoff_delay("x", 5) == 0.0


# ---------------------------------------------------------------------------
# JobQueue lifecycle


class TestJobQueue:
    def test_lease_and_complete(self):
        queue = _queue(("a", "b"))
        assert not queue.finished()
        assert sorted(queue.pending_names()) == ["a", "b"]
        lease = queue.lease(worker_id=0, worker_pid=123)
        assert isinstance(lease, Lease)
        assert lease.name == "a" and lease.attempt == 1
        assert lease.worker_pid == 123

        class Outcome:
            pass

        outcome = Outcome()
        queue.complete("a", outcome)
        assert outcome.attempts == 1
        assert outcome.failure_history == []
        assert queue.outcomes["a"] is outcome
        assert queue.pending_names() == ["b"]
        assert not queue.finished()
        queue.lease(1, 456)
        queue.complete("b", Outcome())
        assert queue.finished()

    def test_lease_returns_none_when_nothing_ready(self):
        queue = _queue(("a",))
        queue.lease(0, 1)
        assert queue.lease(1, 2) is None

    def test_fail_requeues_with_history_then_quarantines(self):
        queue = _queue(("a",), max_attempts=3, backoff_base=0.0)
        queue.lease(0, 11)
        first = queue.fail("a", "worker-lost", "boom", worker_pid=11)
        assert first == {"action": "requeue", "attempt": 2, "delay": 0.0}
        assert queue.requeued == 1
        # the retry dispatch carries attempt 2 and counts as a retry
        lease = queue.lease(0, 12)
        assert lease.attempt == 2
        assert queue.retries == 1
        second = queue.fail("a", "stall-kill", "wedged", worker_pid=12)
        assert second["action"] == "requeue" and second["attempt"] == 3
        queue.lease(0, 13)
        final = queue.fail("a", "worker-lost", "boom again", worker_pid=13)
        assert final["action"] == "quarantine"
        assert final["attempt"] == 3
        kinds = [h["kind"] for h in final["history"]]
        assert kinds == ["worker-lost", "stall-kill", "worker-lost"]
        assert queue.quarantined == ["a"]

        class Outcome:
            pass

        outcome = Outcome()
        queue.complete("a", outcome)
        assert outcome.attempts == 3
        assert len(outcome.failure_history) == 3
        assert queue.finished()

    def test_max_attempts_one_quarantines_immediately(self):
        queue = _queue(("a",), max_attempts=1)
        queue.lease(0, 1)
        assert queue.fail("a", "worker-lost", "x")["action"] == "quarantine"

    def test_backoff_delays_readiness(self):
        queue = _queue(("a",), max_attempts=3, backoff_base=30.0,
                       jitter_frac=0.0)
        queue.lease(0, 1)
        queue.fail("a", "worker-lost", "x")
        # the run is requeued but held back ~30s
        assert not queue.has_ready()
        delay = queue.next_delay()
        assert delay is not None and 29.0 < delay <= 30.0
        assert "a" in queue.pending_names()
        # a clock far in the future promotes it
        import time

        future = time.perf_counter() + 60.0
        assert queue.has_ready(now_mono=future)
        assert queue.lease(0, 2, now_mono=future).attempt == 2

    def test_release_returns_run_unblamed(self):
        queue = _queue(("a",))
        queue.lease(0, 1)
        queue.release("a")
        assert queue.has_ready()
        lease = queue.lease(1, 2)
        # no attempt consumed, no history recorded
        assert lease.attempt == 1
        assert queue.job("a").history == []
        assert queue.retries == 0 and queue.requeued == 0


# ---------------------------------------------------------------------------
# lanes: round-robin fairness, per-lane caps, late adds, cancellation


def _drain_order(queue):
    order = []
    while True:
        lease = queue.lease(0, 1)
        if lease is None:
            return order
        order.append(lease.name)


class TestLanes:
    def test_single_uncapped_lane_is_fifo(self):
        queue = _queue(("a", "b", "c", "d"))
        assert _drain_order(queue) == ["a", "b", "c", "d"]

    def test_lanes_drain_round_robin(self):
        queue = JobQueue(policy=RetryPolicy())
        for name in ("a1", "a2", "a3"):
            queue.add(_Req(name), "fp", lane="alice")
        for name in ("b1", "b2"):
            queue.add(_Req(name), "fp", lane="bob")
        queue.add(_Req("c1"), "fp", lane="carol")
        assert _drain_order(queue) == ["a1", "b1", "c1", "a2", "b2", "a3"]

    def test_lane_cap_holds_while_other_lanes_dispatch(self):
        queue = JobQueue(policy=RetryPolicy(),
                         lane_cap={"alice": 1}.get)
        for name in ("a1", "a2", "a3"):
            queue.add(_Req(name), "fp", lane="alice")
        for name in ("b1", "b2"):
            queue.add(_Req(name), "fp", lane="bob")
        # alice holds one slot; bob (uncapped) takes the rest
        assert _drain_order(queue) == ["a1", "b1", "b2"]
        assert not queue.has_ready()
        # freeing alice's slot releases her next run, and only that one
        queue.complete("a1", _Req("a1"))
        assert _drain_order(queue) == ["a2"]
        # a failed attempt frees the slot too
        queue.fail("a2", "worker-lost", "x")
        assert _drain_order(queue) == ["a3"]

    def test_jobs_added_after_construction(self):
        queue = _queue(("a",))
        assert queue.lease(0, 1).name == "a"
        assert queue.lease(0, 1) is None
        queue.add(_Req("late"), "fp-late")
        assert not queue.finished()
        lease = queue.lease(0, 1)
        assert lease.name == "late" and lease.attempt == 1
        assert queue.job("late").fingerprint == "fp-late"
        queue.complete("a", _Req("a"))
        queue.complete("late", _Req("late"))
        assert queue.finished()

    def test_cancel_queued_job(self):
        queue = _queue(("a", "b", "c"), backoff_base=30.0)
        assert queue.cancel("b")
        assert queue.pending_names() == ["a", "c"]
        # a leased run cannot be cancelled; an unknown one is a no-op
        assert queue.lease(0, 1).name == "a"
        assert not queue.cancel("a")
        assert not queue.cancel("nope")
        # a run serving a retry backoff is queued too
        queue.fail("a", "worker-lost", "x")
        assert queue.next_delay() is not None
        assert queue.cancel("a")
        assert queue.next_delay() is None
        assert _drain_order(queue) == ["c"]
        queue.complete("c", _Req("c"))
        assert queue.finished()
