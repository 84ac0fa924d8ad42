"""Crash-matrix tests: the self-healing contracts under real failures.

What must hold (see docs/chaos.md):

- **worker death**: ``kill -9`` of a process-pool child degrades to a
  ``retried`` / ``lost-worker`` point — the sweep still returns results
  field-identical to the serial path;
- **server death**: SIGKILL of a ``repro serve`` process mid-stream loses
  nothing durable — a restart on the same store replays queued *and*
  interrupted jobs to completion;
- **lease lifecycle**: an expired lease requeues the job with backoff and
  a fresh owner; results from the stale incarnation are discarded as
  zombies; a job past the retry budget fails with the typed
  ``lease-expired`` error;
- **conservation under chaos**: random interleavings of submit / claim /
  clock-jump / lease-expiry / zombie-finish / cancel never unbalance
  ``submitted == queued + running + completed + cancelled + failed +
  rejected`` (Hypothesis property).

The pool-child kill runs in-process (the pool children here are children
of the test process); the server kill drives a real subprocess the way
``tools/chaos_smoke.py`` does, just smaller.
"""

import http.client
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import JobQueue, JobSpec, QuotaExceeded
from repro.serve.protocol import QueueOverloaded
from repro.serve.queue import (
    CANCELLED,
    COMPLETED,
    FAILED,
    LEASE_EXPIRED,
    QUEUED,
    RUNNING,
)
from repro.util.counters import Counters

REPO_ROOT = Path(__file__).resolve().parents[1]


# -- kill -9 of a pool child ------------------------------------------------

#: Path of the one-shot kill flag, inherited by fork()ed pool workers.
#: The first worker to pick up a point while the flag exists removes it
#: (atomically claiming the kill) and SIGKILLs itself mid-point.
KILL_FLAG = None


def _compare_point_with_murder(spec):
    """Pool-worker entry that dies hard exactly once, then behaves."""
    if KILL_FLAG is not None and multiprocessing.parent_process() is not None:
        try:
            os.remove(KILL_FLAG)
        except FileNotFoundError:
            pass  # another worker already spent the kill
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    from repro.eval.runner import compare

    workload, delta_config, static_config, verify = spec
    return compare(workload, delta_config, static_config, verify=verify)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the one-shot kill flag rides on fork()ed memory")
def test_killed_pool_child_degrades_to_a_retried_point(tmp_path,
                                                       monkeypatch):
    from repro.eval import parallel as parallel_mod
    from repro.eval.runner import run_suite
    from repro.util.fingerprint import comparison_fingerprint
    from repro.workloads.synthetic import SharedReadTasks, SkewedTasks

    def suite():
        return [SkewedTasks(num_tasks=24), SharedReadTasks(num_tasks=12)]

    flag = tmp_path / "kill-once"
    flag.write_text("armed")
    monkeypatch.setattr(sys.modules[__name__], "KILL_FLAG", str(flag))
    monkeypatch.setattr(parallel_mod, "_compare_point",
                        _compare_point_with_murder)

    serial = run_suite(lanes=4, workloads=suite(), jobs=1)
    counters = Counters()
    outcomes = []
    survived = parallel_mod.run_suite_parallel(
        lanes=4, workloads=suite(), jobs=2, outcomes=outcomes,
        counters=counters)

    assert not flag.exists(), "no worker picked up the kill flag"
    assert counters.get("eval.worker_deaths") >= 1
    # The murdered point (and any point in flight beside it) must have
    # been re-run, not failed: every outcome is a survivable one.
    assert set(outcomes) <= {"ok", "retried", "lost-worker"}
    assert set(outcomes) & {"retried", "lost-worker"}
    assert [comparison_fingerprint(c) for c in survived] == \
        [comparison_fingerprint(c) for c in serial]


# -- SIGKILL of the server mid-stream ---------------------------------------

def _request(port, method, path, body=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    return response.status, (json.loads(data) if data else None)


def _start_server(cache_dir):
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(cache_dir), "--jobs", "2",
         "--max-concurrent-jobs", "1", "--lease-s", "10"],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    for _ in range(20):
        line = server.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            return server, int(match.group(1))
    server.kill()
    raise AssertionError("server never announced its port")


def _proc_stat(pid):
    """``(state, ppid)`` of ``pid`` from /proc, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _alive(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def _descendants(pid):
    """Every live descendant of ``pid``, from the /proc parent links."""
    children = {}
    for entry in os.listdir("/proc"):
        stat = _proc_stat(entry) if entry.isdigit() else None
        if stat is not None and stat[0] != "Z":
            children.setdefault(stat[1], []).append(int(entry))
    found, stack = [], [pid]
    while stack:
        for kid in children.get(stack.pop(), []):
            found.append(kid)
            stack.append(kid)
    return found


@pytest.mark.slow
def test_sigkilled_server_replays_jobs_after_restart(tmp_path):
    sweep = {"kind": "sweep", "sanitize": True, "lanes": 8,
             "workloads": ["wavefront", "stencil-amr", "cholesky", "knn",
                           "ext-pagerank", "histogram", "bfs", "mergesort"]}
    server, port = _start_server(tmp_path)
    try:
        jobs = []
        for seed in (0, 1):
            status, body = _request(port, "POST", "/jobs",
                                    dict(sweep, seed=seed))
            assert status == 201, body
            jobs.append(body["job"])
        # Wait until the first job is genuinely mid-flight, then murder
        # the server — SIGKILL, so nothing gets to flush or say goodbye.
        deadline = time.monotonic() + 60
        victim = None
        while time.monotonic() < deadline and victim is None:
            for job_id in jobs:
                if _request(port, "GET", f"/jobs/{job_id}")[1]["state"] \
                        == "running":
                    victim = job_id
                    break
            time.sleep(0.05)
        assert victim is not None, "no job ever started running"
        # The running job's pool workers, which outlive a SIGKILLed
        # parent unless they notice it is gone.
        workers = []
        while time.monotonic() < deadline and not workers:
            workers = _descendants(server.pid)
            time.sleep(0.05)
        assert workers, "the running job never started its pool"
    finally:
        server.kill()
        server.wait(30)
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and any(map(_alive, workers)):
        time.sleep(0.1)
    assert not [pid for pid in workers if _alive(pid)], \
        "pool workers outlived their SIGKILLed server"

    reborn, port = _start_server(tmp_path)
    try:
        health = _request(port, "GET", "/healthz")[1]
        assert health["queue"]["replayed"] == 2
        assert health["conservation_ok"] is True
        deadline = time.monotonic() + 120
        states = {}
        while time.monotonic() < deadline:
            states = {job_id: _request(port, "GET", f"/jobs/{job_id}")[1]
                      for job_id in jobs}
            if all(body["state"] == "completed"
                   for body in states.values()):
                break
            time.sleep(0.2)
        assert all(body["state"] == "completed"
                   for body in states.values()), states
        # The interrupted job carries its requeue in the event history.
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request("GET", f"/jobs/{victim}/events")
            response = conn.getresponse()
            assert response.status == 200
            events = [json.loads(line)
                      for line in response.read().decode().splitlines()]
        finally:
            conn.close()
        assert any(event["event"] == "requeued" for event in events)
        assert _request(port, "GET", "/healthz")[1]["conservation_ok"] \
            is True
    finally:
        reborn.send_signal(signal.SIGTERM)
        assert reborn.wait(30) == 0


# -- the lease lifecycle on a fake clock ------------------------------------

class FakeClock:
    """An injectable monotonic clock the tests advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _spec(tenant=0):
    return JobSpec(kind="sweep", workloads=("micro-chain",),
                   tenant=f"t{tenant}")


class TestLeaseLifecycle:
    def test_expiry_requeues_with_backoff_then_succeeds(self):
        clock = FakeClock()
        queue = JobQueue(lease_s=10, max_lease_attempts=3, clock=clock)
        job = queue.submit(_spec())
        first = queue.claim_next("w1")
        assert first.id == job.id
        stale_owner = first.owner
        assert stale_owner is not None

        # A fresh lease does not expire; a heartbeat keeps it fresh.
        assert queue.expire_leases() == []
        clock.advance(8)
        assert queue.heartbeat(job.id, stale_owner)
        clock.advance(8)
        assert queue.expire_leases() == []  # the heartbeat renewed it

        clock.advance(11)
        affected = queue.expire_leases()
        assert [j.id for j in affected] == [job.id]
        assert job.state == QUEUED
        assert job.attempts == 1
        # The backoff gate holds: not claimable until the clock passes it.
        assert job.next_eligible_at > clock()
        assert queue.claim_next("w2") is None
        clock.advance(16)  # past any jittered backoff
        second = queue.claim_next("w2")
        assert second.id == job.id
        assert second.owner != stale_owner

        # The stale incarnation is a zombie now: its heartbeat fails and
        # its result is discarded without touching the live claim.
        assert not queue.heartbeat(job.id, stale_owner)
        assert queue.finish(job.id, COMPLETED, owner=stale_owner) is None
        assert queue.get(job.id).state == RUNNING
        assert queue.get(job.id).owner == second.owner

        done = queue.finish(job.id, COMPLETED, owner=second.owner)
        assert done is not None and done.state == COMPLETED
        assert queue.conservation_ok(), queue.counts()

    def test_retry_budget_exhaustion_fails_typed(self):
        clock = FakeClock()
        queue = JobQueue(lease_s=5, max_lease_attempts=2, clock=clock)
        job = queue.submit(_spec())
        for expected_attempt in (1, 2):
            claimed = queue.claim_next("w")
            assert claimed is not None, f"attempt {expected_attempt}"
            clock.advance(6)
            queue.expire_leases()
            assert job.state == QUEUED
            assert job.attempts == expected_attempt
            clock.advance(16)  # clear the backoff gate
        # The budget (2 retries) is spent: the next expiry is terminal.
        assert queue.claim_next("w") is not None
        clock.advance(6)
        queue.expire_leases()
        assert job.state == FAILED
        assert job.error_code == LEASE_EXPIRED
        assert "retry budget" in job.error
        done = job.events[-1]
        assert done["event"] == "done"
        assert done["error_code"] == LEASE_EXPIRED
        counts = queue.counts()
        assert counts["failed"] == 1
        assert queue.conservation_ok(), counts

    def test_expiry_of_a_cancel_requested_job_retires_cancelled(self):
        clock = FakeClock()
        queue = JobQueue(lease_s=5, clock=clock)
        job = queue.submit(_spec())
        queue.claim_next("w")
        queue.request_cancel(job.id)
        assert job.state == RUNNING  # awaiting acknowledgement
        clock.advance(6)
        queue.expire_leases()
        # The worker that would have acknowledged is gone; the watchdog
        # settles the cancel instead of burning a retry.
        assert job.state == CANCELLED
        assert queue.conservation_ok(), queue.counts()


# -- conservation under random chaos (Hypothesis) ---------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7)),
                min_size=1, max_size=80))
def test_conservation_survives_random_chaos(steps):
    """Interleaving submits, claims, clock jumps, lease expiries,
    zombie finishes, and cancels in any order never unbalances the
    books (the queue also asserts conservation internally on every
    transition, so a violation fails loudly inside the run too)."""
    clock = FakeClock()
    queue = JobQueue(max_active_per_tenant=4, max_queued=6,
                     lease_s=5, max_lease_attempts=2, clock=clock)
    claims = []  # every (job_id, owner) ever issued — stale ones included
    for op, selector in steps:
        if op == 0:  # submit (may shed or hit the quota)
            try:
                queue.submit(_spec(selector % 3))
            except (QuotaExceeded, QueueOverloaded):
                pass
        elif op == 1:  # claim under a fresh lease
            job = queue.claim_next(f"w{selector}")
            if job is not None:
                claims.append((job.id, job.owner))
        elif op == 2:  # time passes (sometimes past lease + backoff)
            clock.advance(selector * 1.7)
        elif op == 3:  # the watchdog fires
            queue.expire_leases()
        elif op == 4:  # cancel any known job (idempotent on terminal)
            jobs = queue.jobs()
            if jobs:
                queue.request_cancel(jobs[selector % len(jobs)].id)
        else:  # a worker (possibly a zombie) reports a result
            if claims:
                job_id, owner = claims[selector % len(claims)]
                state = COMPLETED if selector % 2 else FAILED
                job = queue.get(job_id)
                if job.state == RUNNING and job.cancel_requested \
                        and job.owner == owner:
                    state = CANCELLED
                queue.finish(job_id, state, owner=owner)
        assert queue.conservation_ok(), queue.counts()
    counts = queue.counts()
    assert counts["submitted"] == sum(
        counts[k] for k in ("queued", "running", "completed", "cancelled",
                            "failed", "rejected"))
