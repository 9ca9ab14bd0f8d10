"""Durable batch execution end to end: chaos worker kills with exact
blast radius, retry/backoff/quarantine, lease-timeout escalation, the
BATCHJRNL/1 journal + resume, checkpoint-healed retries, retry
determinism for mutation campaigns, and the extended CLI exit codes."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

import pytest

from repro.batch import (
    JOURNAL_NAME, RetryPolicy, RunRequest, read_journal, run_batch,
)
from repro.batch.worker import CHAOS_KILL_ENV
from repro.errors import BatchError, QuarantinedRunError
from repro.guard import Fault, FaultInjector
from repro.obs.live import SCHEMA, assess_lease, write_status
from repro.sim import SimOptions

COUNTER = """
module tb;
  reg clk; reg [3:0] d; reg [7:0] acc;
  initial clk = 0;
  always #5 clk = !clk;
  initial begin
    acc = 0;
    repeat (4) begin
      @(posedge clk) d = $random;
      acc = acc + d;
    end
    #1 $finish;
  end
endmodule
"""

WEDGE = """
module tb;
  reg x;
  initial begin
    x = 0;
    while (1) x = !x;
  end
endmodule
"""

FAST = RetryPolicy(backoff_base=0.01)


def _requests(count, prefix="r", **option_kwargs):
    return [RunRequest(name=f"{prefix}{index}", source=COUNTER,
                       options=SimOptions(**option_kwargs))
            for index in range(count)]


# ---------------------------------------------------------------------------
# chaos: worker kills with exact blast radius


class TestWorkerLoss:
    def test_killed_worker_costs_exactly_one_retry(self, tmp_path,
                                                   monkeypatch):
        """``kill -9`` of one worker = one retried run, zero spurious
        failures on every other run (the PPE engine poisoned the whole
        pending set here)."""
        monkeypatch.setenv(CHAOS_KILL_ENV, "r1:1")
        result = run_batch(_requests(5), workers=2,
                           out_dir=str(tmp_path / "out"),
                           trace=False, retry=FAST)
        assert result.ok
        victim = result["r1"]
        assert victim.attempts == 2
        assert len(victim.failure_history) == 1
        assert victim.failure_history[0]["kind"] == "worker-lost"
        assert "died" in victim.failure_history[0]["error"]
        # blast radius: every other run finished on its first attempt
        assert all(result[f"r{i}"].attempts == 1 for i in (0, 2, 3, 4))
        assert result.retries == 1 and result.requeued == 1
        assert result.quarantined_runs == []

    def test_poison_run_is_quarantined_with_history(self, tmp_path,
                                                    monkeypatch):
        """A run that kills every worker that touches it is terminal
        after max_attempts, with the full attempt history, and the
        rest of the batch is unharmed."""
        monkeypatch.setenv(CHAOS_KILL_ENV, "r1")  # every attempt
        result = run_batch(
            _requests(4), workers=2, out_dir=str(tmp_path / "out"),
            trace=False,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01))
        poison = result["r1"]
        assert poison.quarantined
        assert poison.status.value == "aborted"
        assert poison.attempts == 3
        assert [h["kind"] for h in poison.failure_history] == \
            ["worker-lost"] * 3
        assert [h["attempt"] for h in poison.failure_history] == [1, 2, 3]
        assert "quarantined after 3 attempt(s)" in poison.error
        assert result.quarantined_runs == ["r1"]
        assert all(result[f"r{i}"].ok and result[f"r{i}"].attempts == 1
                   for i in (0, 2, 3))
        with pytest.raises(QuarantinedRunError) as err:
            result.check_quarantine()
        assert err.value.name == "r1"
        assert err.value.attempts == 3
        assert len(err.value.failure_history) == 3
        # the journal recorded every attempt and the quarantine verdict
        state = read_journal(os.path.join(str(tmp_path / "out"),
                                          JOURNAL_NAME))
        events = [r["event"] for r in state.attempts["r1"]]
        assert events.count("start") == 3
        assert events[-1] == "quarantine"
        assert state.terminal["r1"]["quarantined"] is True

    def test_batch_metrics_count_durability_events(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv(CHAOS_KILL_ENV, "r0:1")
        result = run_batch(_requests(2), workers=1,
                           out_dir=str(tmp_path / "out"),
                           trace=False, retry=FAST)
        rows = {}
        for entry in result.metrics.snapshot()["metrics"]:
            key = entry["name"]
            if entry["labels"]:
                key += str(sorted(entry["labels"].items()))
            rows[key] = entry["value"]
        assert rows["batch.retries"] == 1
        assert rows["batch.requeued"] == 1
        assert rows["batch.quarantined"] == 0
        assert rows["batch.attempts[('run', 'r0')]"] == 2
        assert rows["batch.attempts[('run', 'r1')]"] == 1


# ---------------------------------------------------------------------------
# retrying run statuses is opt-in


class TestRetryStatuses:
    def _flaky(self, name="flaky"):
        """Aborts on attempt 1 (injected safe-point fault), clean after."""
        return RunRequest(name=name, source=COUNTER, options=SimOptions(
            faults=FaultInjector([
                Fault("safe-point-error", at_step=2, on_attempt=1)])))

    def test_default_policy_does_not_retry_aborts(self, tmp_path):
        result = run_batch([self._flaky()], workers=1,
                           out_dir=str(tmp_path / "out"), trace=False)
        outcome = result["flaky"]
        assert outcome.status.value == "aborted"
        assert outcome.attempts == 1
        assert not outcome.quarantined

    def test_opted_in_statuses_retry_and_heal(self, tmp_path):
        clean_dir = str(tmp_path / "clean")
        clean = run_batch(
            [RunRequest(name="flaky", source=COUNTER)], workers=1,
            out_dir=clean_dir, trace=False)
        result = run_batch(
            [self._flaky()], workers=1, out_dir=str(tmp_path / "out"),
            trace=False,
            retry=RetryPolicy(retry_statuses={"aborted"},
                              backoff_base=0.01))
        outcome = result["flaky"]
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.failure_history[0]["kind"] == "status"
        assert "injected safe-point fault" in \
            outcome.failure_history[0]["error"]
        # the healed result is the clean run's result, exactly
        assert outcome.result == clean["flaky"].result

    def test_retry_resumes_from_rolling_checkpoint(self, tmp_path):
        request = RunRequest(name="ckpt", source=COUNTER, options=SimOptions(
            checkpoint_every=3,
            faults=FaultInjector([
                Fault("safe-point-error", at_step=7, on_attempt=1)])))
        clean = run_batch(
            [RunRequest(name="ckpt", source=COUNTER)], workers=1,
            out_dir=str(tmp_path / "clean"), trace=False)
        result = run_batch(
            [request], workers=1, out_dir=str(tmp_path / "out"),
            trace=False,
            retry=RetryPolicy(retry_statuses={"aborted"},
                              backoff_base=0.01))
        outcome = result["ckpt"]
        assert outcome.ok and outcome.attempts == 2
        assert outcome.resumed_from_checkpoint
        reference = clean["ckpt"].result
        # checkpoint resume is bit-identical: same end state as a run
        # that never failed
        assert outcome.result["time"] == reference["time"]
        assert outcome.result["output"] == reference["output"]
        assert outcome.result["metrics"]["events_processed"] == \
            reference["metrics"]["events_processed"]


# ---------------------------------------------------------------------------
# stall watching + lease escalation


class TestStallsAndLeases:
    def test_stall_watcher_not_starved_by_steady_completions(
            self, tmp_path):
        """Regression: the old engine polled for stalls only in wait
        windows with zero completions, so a steady trickle of fast
        finishes starved detection forever.  Every scheduling iteration
        must check."""
        out = str(tmp_path / "out")
        names = [f"r{i}" for i in range(12)]
        # the last-dispatched run looks anciently wedged from the start
        write_status(os.path.join(out, "status", names[-1] + ".json"),
                     {"schema": SCHEMA, "name": names[-1],
                      "status": "running", "ts_unix": time.time() - 300.0})
        result = run_batch(
            [RunRequest(name=n, source=COUNTER) for n in names],
            workers=1, out_dir=out, trace=False,
            heartbeat_every=10_000_000, stall_after=0.05)
        # on one worker every wait window completes a run, yet the
        # stalled run is still flagged (and still finishes fine)
        assert names[-1] in result.stalled_runs
        assert result.ok

    def test_lease_timeout_kills_and_quarantines_wedged_run(
            self, tmp_path):
        """stall -> kill -> requeue: a genuinely wedged run burns its
        attempts and is quarantined; the healthy run is untouched."""
        requests = [
            RunRequest(name="good", source=COUNTER),
            RunRequest(name="wedge", source=WEDGE),
        ]
        start = time.perf_counter()
        result = run_batch(
            requests, workers=2, out_dir=str(tmp_path / "out"),
            trace=False,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01,
                              lease_timeout=0.75))
        assert time.perf_counter() - start < 30.0
        assert result["good"].ok and result["good"].attempts == 1
        wedge = result["wedge"]
        assert wedge.quarantined and wedge.attempts == 2
        assert [h["kind"] for h in wedge.failure_history] == \
            ["stall-kill", "stall-kill"]
        assert "lease expired" in wedge.failure_history[0]["error"]
        assert result.quarantined_runs == ["wedge"]

    def test_assess_lease_verdicts(self):
        now = 1000.0
        fresh = {"status": "running", "ts_unix": now - 1.0}
        stale = {"status": "running", "ts_unix": now - 120.0}
        # fresh heartbeat from this lease keeps it alive past the limit
        health = assess_lease("r", 1, lease_age=90.0, record=fresh,
                              kill_after=30.0, now_unix=now,
                              started_unix=now - 90.0)
        assert not health.expired and health.heartbeat_age == 1.0
        # stale heartbeat + old lease -> expired
        assert assess_lease("r", 1, lease_age=90.0, record=stale,
                            kill_after=30.0, now_unix=now,
                            started_unix=now - 90.0).expired
        # a record from a *previous attempt* does not vouch for this one
        previous = {"status": "running", "ts_unix": now - 50.0}
        assert assess_lease("r", 1, lease_age=40.0, record=previous,
                            kill_after=30.0, now_unix=now,
                            started_unix=now - 40.0).expired
        # young lease is never expired, even with no record at all
        assert not assess_lease("r", 1, lease_age=5.0, record=None,
                                kill_after=30.0, now_unix=now).expired
        # old lease with heartbeats disabled expires on age alone
        assert assess_lease("r", 1, lease_age=31.0, record=None,
                            kill_after=30.0, now_unix=now).expired
        # a terminal record is not evidence of progress
        done = {"status": "ok", "ts_unix": now - 1.0}
        assert assess_lease("r", 1, lease_age=31.0, record=done,
                            kill_after=30.0, now_unix=now,
                            started_unix=now - 31.0).expired


# ---------------------------------------------------------------------------
# journal + resume


class TestResume:
    def _vcd_requests(self):
        return [RunRequest(name=f"run{i}", source=COUNTER, vcd=True,
                           options=SimOptions(concrete_random=i))
                for i in range(3)]

    def _collect(self, result, out):
        payload = {}
        for outcome in result:
            vcd = open(os.path.join(out, "runs", outcome.name,
                                    "wave.vcd"), "rb").read()
            payload[outcome.name] = (outcome.result, vcd)
        return payload

    def test_interrupted_batch_resumes_byte_identical(self, tmp_path):
        """Kill the controller mid-batch; resume re-executes only the
        journal's non-terminal runs and the final artifacts are byte
        identical to an uninterrupted batch."""
        ref_dir = str(tmp_path / "ref")
        reference = run_batch(self._vcd_requests(), workers=1,
                              out_dir=ref_dir, trace=False)

        out = str(tmp_path / "out")
        seen = []

        def die_after_first(outcome):
            seen.append(outcome.name)
            raise KeyboardInterrupt  # the controller "crashes"

        with pytest.raises(KeyboardInterrupt):
            run_batch(self._vcd_requests(), workers=1, out_dir=out,
                      trace=False, on_result=die_after_first)
        assert len(seen) == 1

        state = read_journal(os.path.join(out, JOURNAL_NAME))
        assert set(state.terminal) == set(seen)

        resumed = run_batch(self._vcd_requests(), workers=1, out_dir=out,
                            trace=False, resume=True)
        assert resumed.ok
        assert resumed.resumed_runs == seen
        assert resumed[seen[0]].resumed
        # only the non-terminal runs re-executed: one start record each
        # before the resume marker, journaled completions after
        state = read_journal(os.path.join(out, JOURNAL_NAME))
        starts = {name: [r for r in records if r["event"] == "start"]
                  for name, records in state.attempts.items()}
        assert len(starts[seen[0]]) == 1  # not re-run by the resume
        # final payloads == the uninterrupted batch, byte for byte
        assert self._collect(resumed, out) == \
            self._collect(reference, ref_dir)

    def test_resume_of_finished_batch_restores_everything(self, tmp_path):
        out = str(tmp_path / "out")
        first = run_batch(self._vcd_requests(), workers=2, out_dir=out,
                          trace=False)
        again = run_batch(self._vcd_requests(), workers=2, out_dir=out,
                          trace=False, resume=True)
        assert sorted(again.resumed_runs) == ["run0", "run1", "run2"]
        assert all(outcome.resumed for outcome in again)
        assert [o.result for o in again] == [o.result for o in first]

    def test_resume_refuses_edited_requests(self, tmp_path):
        out = str(tmp_path / "out")
        run_batch(self._vcd_requests(), workers=1, out_dir=out,
                  trace=False)
        edited = [r if r.name != "run1"
                  else RunRequest(name="run1", source=COUNTER, vcd=True,
                                  options=SimOptions(concrete_random=1),
                                  until=7)
                  for r in self._vcd_requests()]
        with pytest.raises(BatchError, match="fingerprint changed"):
            run_batch(edited, workers=1, out_dir=out, trace=False,
                      resume=True)

    def test_resume_requires_journal_and_out_dir(self, tmp_path):
        with pytest.raises(BatchError, match="journal"):
            run_batch(self._vcd_requests(), resume=True,
                      out_dir=str(tmp_path / "x"), journal=False)
        with pytest.raises(BatchError, match="out_dir"):
            run_batch(self._vcd_requests(), resume=True)

    def test_journal_false_writes_nothing(self, tmp_path):
        out = str(tmp_path / "out")
        result = run_batch(_requests(1), workers=1, out_dir=out,
                           trace=False, journal=False)
        assert result.journal_path is None
        assert not os.path.exists(os.path.join(out, JOURNAL_NAME))


# ---------------------------------------------------------------------------
# campaigns inherit retry semantics deterministically


class TestCampaignRetries:
    DESIGN = """
module dut(a, b, s);
  input [3:0] a, b;
  output [4:0] s;
  assign s = {1'b0, a} + {1'b0, b};
endmodule

module tb;
  reg [3:0] a, b;
  wire [4:0] s;
  dut u(.a(a), .b(b), .s(s));
  initial begin
    a = $random;
    b = $random;
    #1 $assert(s == ({1'b0, a} + {1'b0, b}));
    #1 $finish;
  end
endmodule
"""

    def _config(self, transient_faults):
        from repro.mutate import CampaignConfig

        options = SimOptions()
        if transient_faults:
            options = SimOptions(faults=FaultInjector([
                Fault("safe-point-error", at_step=1, on_attempt=1)]))
        return CampaignConfig(source=self.DESIGN, until=10, seed=3,
                              options=options)

    def test_transient_faults_with_retries_cannot_skew_the_report(
            self, tmp_path):
        """Every run (baseline included) aborts on its first attempt
        and heals on retry; the report must be byte-identical across
        pool widths AND to a campaign that never failed at all."""
        from repro.mutate import run_campaign

        policy = RetryPolicy(retry_statuses={"aborted"}, backoff_base=0.01)
        clean = run_campaign(self._config(False), workers=1,
                             out_dir=str(tmp_path / "clean"))
        narrow = run_campaign(self._config(True), workers=1,
                              out_dir=str(tmp_path / "w1"), retry=policy)
        wide = run_campaign(self._config(True), workers=4,
                            out_dir=str(tmp_path / "w4"), retry=policy)
        assert narrow.to_json() == wide.to_json()
        # the retried campaign's classifications equal the clean one's
        # (plan/fingerprint fields differ only via... nothing: faults
        # are not part of the mutated source, so the whole report
        # matches)
        assert narrow.to_json() == clean.to_json()
        # and the retries really happened
        assert narrow.batch.retries == len(narrow.batch.outcomes)

    def test_quarantined_mutant_classifies_as_aborted(self, tmp_path,
                                                      monkeypatch):
        from repro.mutate import run_campaign

        report = run_campaign(self._config(False), workers=1,
                              out_dir=str(tmp_path / "out"))
        victim = report.mutants[0].id
        monkeypatch.setenv(CHAOS_KILL_ENV, victim)
        retried = run_campaign(
            self._config(False), workers=2,
            out_dir=str(tmp_path / "chaos"),
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01))
        row = {m.id: m for m in retried.mutants}[victim]
        assert row.classification == "aborted"
        assert retried.batch[victim].quarantined


# ---------------------------------------------------------------------------
# CLI: exit codes, resume, retry flags


def _write_manifest(tmp_path, runs, name="jobs.json", extra=None):
    document = {"runs": runs}
    if extra:
        document.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestCli:
    def test_quarantine_exits_5(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        manifest = _write_manifest(tmp_path, [
            {"name": "a", "source": COUNTER},
            {"name": "b", "source": COUNTER},
        ])
        monkeypatch.setenv(CHAOS_KILL_ENV, "b")
        code = main(["batch", manifest, "--quiet", "--no-trace",
                     "--max-attempts", "2", "--backoff-base", "0.01",
                     "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 5
        assert "quarantined: b" in captured.err
        assert "[quarantined]" in captured.out

    def test_resume_flow_and_mismatch_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        manifest = _write_manifest(tmp_path, [
            {"name": "a", "source": COUNTER},
        ])
        out = str(tmp_path / "out")
        assert main(["batch", manifest, "--quiet", "--no-trace",
                     "--out-dir", out]) == 0
        # resume of the finished batch restores and exits clean
        assert main(["batch", manifest, "--quiet", "--no-trace",
                     "--resume", out]) == 0
        assert "restored from the journal" in capsys.readouterr().out
        # an edited manifest is refused with a single-line error, exit 2
        edited = _write_manifest(tmp_path, [
            {"name": "a", "source": COUNTER, "until": 7},
        ], name="edited.json")
        assert main(["batch", edited, "--quiet", "--no-trace",
                     "--resume", out]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err
        assert "fingerprint changed" in err

    def test_resume_flag_conflicts(self, tmp_path, capsys):
        from repro.cli import main

        manifest = _write_manifest(tmp_path, [
            {"name": "a", "source": COUNTER},
        ])
        assert main(["batch", manifest, "--resume", str(tmp_path / "o"),
                     "--out-dir", str(tmp_path / "other")]) == 2
        assert main(["batch", manifest, "--resume", str(tmp_path / "o"),
                     "--no-journal"]) == 2
        capsys.readouterr()

    def test_manifest_retry_object_drives_policy(self, tmp_path, capsys,
                                                 monkeypatch):
        from repro.batch import load_policy
        from repro.cli import main

        manifest = _write_manifest(
            tmp_path, [{"name": "a", "source": COUNTER}],
            extra={"retry": {"max_attempts": 2, "backoff_base": 0.01,
                             "seed": 9}})
        policy = load_policy(manifest)
        assert policy.max_attempts == 2 and policy.seed == 9
        # no "retry" object -> None (engine default applies)
        plain = _write_manifest(
            tmp_path, [{"name": "a", "source": COUNTER}],
            name="plain.json")
        assert load_policy(plain) is None
        # unknown keys are rejected loudly
        bad = _write_manifest(
            tmp_path, [{"name": "a", "source": COUNTER}],
            name="bad.json", extra={"retry": {"max_retries": 3}})
        with pytest.raises(BatchError, match="unknown retry keys"):
            load_policy(bad)
        assert main(["batch", bad, "--quiet", "--no-trace",
                     "--out-dir", str(tmp_path / "o")]) == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# controller death: orphaned workers exit

#: A controller that reports its worker pids at the first result, then
#: blocks inside ``on_result`` until it is killed.
_HELD_CONTROLLER = """
import json, multiprocessing, sys, time
from repro.batch import RunRequest, run_batch

SOURCE = sys.stdin.read()

def hold(outcome):
    pids = sorted(p.pid for p in multiprocessing.active_children())
    print(json.dumps(pids), flush=True)
    time.sleep(600)

run_batch([RunRequest(name=f"r{i}", source=SOURCE) for i in range(8)],
          workers=2, out_dir=sys.argv[1], trace=False, journal=False,
          heartbeat_every=None, on_result=hold)
"""


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper is gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads process state from /proc")
class TestControllerDeath:
    def test_workers_exit_after_controller_sigkill(self, tmp_path):
        """``kill -9`` of a ``run_batch`` controller leaves no worker
        behind: each notices through its parent's sentinel."""
        import repro

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        controller = subprocess.Popen(
            [sys.executable, "-c", _HELD_CONTROLLER, str(tmp_path / "out")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)
        workers = []
        try:
            controller.stdin.write(COUNTER)
            controller.stdin.close()
            ready, _, _ = select.select([controller.stdout], [], [], 60)
            assert ready, "controller never reported its workers"
            workers = json.loads(controller.stdout.readline())
            assert len(workers) == 2
            assert controller.poll() is None
            controller.kill()
            controller.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if _alive(pid)] == []
        finally:
            if controller.poll() is None:
                controller.kill()
                controller.wait(timeout=10)
            controller.stdout.close()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
