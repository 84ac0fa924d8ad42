"""The server test battery for ``repro serve``.

What must hold (see docs/serving.md):

- **protocol round-trip**: a sweep submitted over the wire streams the
  same per-point numbers a direct in-process ``compare()`` produces,
  field for field;
- **cancellation**: DELETE on a running job propagates into the in-flight
  evaluation points and leaves the queue and pool clean — conservation
  still balances and the server keeps serving;
- **shared worker pool**: with ``jobs > 1`` every job computes on one
  process-wide pool whose workers hold no client connection open, and
  a stopped server leaves no worker running;
- **quotas**: a tenant at its active-job quota gets a typed 429; other
  tenants are unaffected;
- **restart recovery**: queued jobs persisted in the ``jobs`` store
  namespace are replayed by a fresh server;
- **shared points**: a point that several in-flight jobs request — even
  from different tenants, even when their sweeps overlap only in part —
  computes once, counted through the point function itself; one
  tenant's DELETE never cancels another tenant's job;
- **overload control**: past the global or per-tenant queue-depth cap,
  submissions shed with a typed 503 carrying ``Retry-After``; the books
  still balance;
- **jobs CLI**: ``repro jobs list|gc`` reads the persisted ``jobs``
  namespace directly, with live records shielded from GC;
- **conservation**: random submit/claim/cancel/finish interleavings never
  violate ``submitted == queued + running + completed + cancelled +
  failed + rejected`` (Hypothesis property; the chaos variant with
  lease expiry lives in ``tests/test_chaos.py``).

Every server here binds port 0 on localhost and runs in a background
thread; clients are plain ``http.client`` over the NDJSON protocol.
"""

import http.client
import json
import multiprocessing
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import default_delta_config
from repro.eval.parallel import run_suite_parallel
from repro.eval.runner import compare
from repro.serve import JobQueue, JobSpec, QuotaExceeded, Server
from repro.serve.protocol import parse_job_spec
from repro.serve.queue import CANCELLED, COMPLETED, FAILED, RUNNING
from repro.workloads import get_workload

LANES = 4
#: Fast registered workloads (fractions of a second per point).
NAMES = ["micro-chain", "micro-skewed"]


# -- harness ----------------------------------------------------------------

@contextmanager
def serving(tmp_path, **kwargs):
    """A live server on a fresh store, torn down gracefully."""
    server = Server(port=0, root=tmp_path / "store", **kwargs)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.ready.wait(10), "server did not come up"
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(10)
        assert not thread.is_alive(), "server did not shut down"


def request(port, method, path, body=None, timeout=120):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    return response.status, (json.loads(data) if data else None)


def stream(port, job_id, timeout=120):
    """Consume a job's whole NDJSON event stream (ends at socket close)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        events = [json.loads(line)
                  for line in response.read().decode().splitlines()]
    finally:
        conn.close()
    return events


def request_full(port, method, path, body=None, timeout=120):
    """Like :func:`request`, but also returns the response headers."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        data = response.read()
        headers = dict(response.getheaders())
    finally:
        conn.close()
    return response.status, headers, (json.loads(data) if data else None)


def submit(port, spec):
    status, body = request(port, "POST", "/jobs", body=spec)
    assert status == 201, body
    return body["job"]


def sweep_spec(**overrides):
    spec = {"kind": "sweep", "workloads": NAMES, "lanes": LANES,
            "sanitize": True}
    spec.update(overrides)
    return spec


def wait_for_state(port, job_id, states, timeout=30):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, body = request(port, "GET", f"/jobs/{job_id}")
        if body["state"] in states:
            return body
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached {states}")


def slow_points(monkeypatch, delay_s, log=None):
    """Make every evaluation point take ``delay_s`` extra seconds; with
    ``log``, also append each computed point's workload name to that file.

    The server under test runs in this process, and its pool workers are
    forked from it, so patching the point function is enough to hold a
    job in flight long enough to race it, and to count computations
    wherever they run.
    """
    from repro.eval import parallel as parallel_mod

    real = parallel_mod._compare_point

    def slowed(spec):
        if log is not None:
            with open(log, "a") as out:
                out.write(spec[0].name + "\n")
        time.sleep(delay_s)
        return real(spec)

    monkeypatch.setattr(parallel_mod, "_compare_point", slowed)


def computed_points(log) -> Counter:
    """How many times each workload was computed, per :func:`slow_points`."""
    return Counter(log.read_text().split()) if log.exists() else Counter()


def once_each(registered) -> Counter:
    """One computation of each named registered workload."""
    return Counter(get_workload(name).name for name in registered)


# -- the battery ------------------------------------------------------------

class TestProtocolRoundTrip:
    def test_submitted_sweep_matches_direct_compare(self, tmp_path):
        config = default_delta_config(lanes=LANES, seed=0)
        config = config.with_policy("work-aware")
        expected = run_suite_parallel(
            lanes=LANES, workloads=[get_workload(n) for n in NAMES],
            jobs=1, delta_config=config, sanitize=True)
        with serving(tmp_path) as server:
            job_id = submit(server.port, sweep_spec())
            events = stream(server.port, job_id)

            kinds = [e["event"] for e in events]
            assert kinds[0] == "queued" and kinds[1] == "started"
            assert events[-1] == {"event": "done", "job": job_id,
                                  "state": "completed"}
            points = {e["index"]: e for e in events
                      if e["event"] == "point"}
            assert sorted(points) == list(range(len(NAMES)))
            for index, comparison in enumerate(expected):
                event = points[index]
                assert event["outcome"] == "ok"
                assert event["workload"] == comparison.workload
                assert event["delta_cycles"] == comparison.delta.cycles
                assert event["static_cycles"] == comparison.static.cycles
                assert event["speedup"] == comparison.speedup
                assert event["traffic_ratio"] == comparison.traffic_ratio
                assert event["lanes"] == comparison.lanes
                metrics = event["metrics"]
                assert metrics["delta_dram_bytes"] == \
                    comparison.delta.dram_bytes
                assert metrics["static_dram_bytes"] == \
                    comparison.static.dram_bytes
                assert metrics["delta_noc_bytes"] == \
                    comparison.delta.noc_bytes
                assert metrics["static_noc_bytes"] == \
                    comparison.static.noc_bytes
                assert metrics["tasks_executed"] == \
                    comparison.delta.tasks_executed

            # Warm repeat: same spec, zero simulations, same numbers.
            repeat_id = submit(server.port, sweep_spec())
            repeat = [e for e in stream(server.port, repeat_id)
                      if e["event"] == "point"]
            assert [e["outcome"] for e in repeat] == \
                ["cached"] * len(NAMES)
            for fresh, cached in zip(sorted(points.values(),
                                            key=lambda e: e["index"]),
                                     sorted(repeat,
                                            key=lambda e: e["index"])):
                assert cached["delta_cycles"] == fresh["delta_cycles"]
                assert cached["speedup"] == fresh["speedup"]

            health = request(server.port, "GET", "/healthz")[1]
            assert health["cache"]["hits"] >= len(NAMES)
            assert health["cache"]["hit_rate"] > 0
            assert health["conservation_ok"] is True
            assert health["queue"]["completed"] == 2

    def test_typed_errors_over_the_wire(self, tmp_path):
        with serving(tmp_path) as server:
            port = server.port
            cases = [
                ({"kind": "sweep", "workloads": ["no-such-workload"]},
                 400, "bad-spec"),
                ({"kind": "sweep", "workloads": NAMES, "polcy": "x"},
                 400, "bad-spec"),
                ({"kind": "sweep", "workloads": NAMES,
                  "policy": "no-such-policy"}, 400, "unknown-policy"),
                ({"kind": "compare", "workloads": NAMES}, 400, "bad-spec"),
            ]
            for spec, want_status, want_code in cases:
                status, body = request(port, "POST", "/jobs", body=spec)
                assert status == want_status, body
                assert body["error"]["code"] == want_code
            status, body = request(port, "GET", "/jobs/doesnotexist")
            assert (status, body["error"]["code"]) == (404, "unknown-job")
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("POST", "/jobs", body=b"{not json")
            response = conn.getresponse()
            body = json.loads(response.read())
            conn.close()
            assert response.status == 400
            assert body["error"]["code"] == "bad-json"
            # None of those rejections may unbalance the books.
            health = request(port, "GET", "/healthz")[1]
            assert health["conservation_ok"] is True


class TestQuotas:
    def test_tenant_at_quota_gets_typed_429(self, tmp_path):
        with serving(tmp_path, start_paused=True,
                     max_active_per_tenant=2) as server:
            port = server.port
            submit(port, sweep_spec(tenant="greedy"))
            submit(port, sweep_spec(tenant="greedy", seed=1))
            status, body = request(port, "POST", "/jobs",
                                   body=sweep_spec(tenant="greedy",
                                                   seed=2))
            assert status == 429
            assert body["error"]["code"] == "quota-exceeded"
            # The quota is per tenant: another tenant still gets in.
            submit(port, sweep_spec(tenant="patient"))
            health = request(port, "GET", "/healthz")[1]
            assert health["queue"]["rejected"] == 1
            assert health["queue"]["queued"] == 3
            assert health["tenants"]["greedy"]["active"] == 2
            assert health["conservation_ok"] is True


class TestOverloadShedding:
    def test_global_queue_cap_sheds_typed_503(self, tmp_path):
        with serving(tmp_path, start_paused=True, max_queued=2) as server:
            port = server.port
            submit(port, sweep_spec(seed=1))
            submit(port, sweep_spec(seed=2))
            status, headers, body = request_full(
                port, "POST", "/jobs", body=sweep_spec(seed=3))
            assert status == 503
            assert body["error"]["code"] == "overloaded"
            # Retry-After is advisory load-shedding contract: header and
            # body must agree and be a positive whole number of seconds.
            retry_after = int(headers["Retry-After"])
            assert retry_after >= 1
            assert body["error"]["retry_after_s"] == retry_after

            health = request(port, "GET", "/healthz")[1]
            assert health["queue"]["rejected"] == 1
            assert health["serve"]["shed"] == 1
            assert health["queue"]["queued"] == 2
            assert health["conservation_ok"] is True
            assert health["overload"]["max_queued"] == 2

    def test_backlog_cap_is_per_tenant(self, tmp_path):
        with serving(tmp_path, start_paused=True,
                     max_backlog_per_tenant=1) as server:
            port = server.port
            submit(port, sweep_spec(tenant="noisy"))
            status, _headers, body = request_full(
                port, "POST", "/jobs",
                body=sweep_spec(tenant="noisy", seed=1))
            assert status == 503
            assert body["error"]["code"] == "overloaded"
            # Another tenant is unaffected by the noisy one's backlog.
            submit(port, sweep_spec(tenant="quiet"))
            health = request(port, "GET", "/healthz")[1]
            assert health["queue"]["queued"] == 2
            assert health["queue"]["rejected"] == 1
            assert health["conservation_ok"] is True


#: The ``/healthz`` body's keys, section by section. Tools and the
#: benchmark read these: serve_smoke.py and chaos_smoke.py fields of
#: ``queue``, ``cache``, ``serve`` and ``eval``, serve-mix ``serve.shed``
#: and ``serve.mean_queue_wait_s``.
HEALTHZ_KEYS = {
    "status", "queue", "tenants", "conservation_ok", "inflight_points",
    "cache", "serve", "eval", "overload"}
HEALTHZ_SECTION_KEYS = {
    "queue": {"submitted", "queued", "running", "completed", "cancelled",
              "failed", "rejected", "replayed"},
    "cache": {"hits", "misses", "stores", "evictions", "coalesced",
              "corrupt", "lock_waits", "hit_rate"},
    "serve": {"submitted", "started", "completed", "cancelled", "rejected",
              "failed", "replayed", "points", "stream_stalls",
              "lease_renewals", "lease_expired", "lease_requeued",
              "lease_failed", "lease_zombie", "shed", "gc_jobs",
              "queue_wait_s", "mean_queue_wait_s"},
    "eval": {"worker_deaths", "pool_rebuilds", "retried_points",
             "lost_worker_points"},
    "overload": {"max_queued", "max_backlog_per_tenant", "retry_after_s"},
}
#: The job-lifecycle terms ``queue`` and ``serve`` both report.
LIFECYCLE = ("submitted", "completed", "cancelled", "failed", "rejected",
             "replayed")


class TestHealthz:
    def test_body_shape_and_lifecycle_counts(self, tmp_path):
        # One completion, one cancelled queued job, one quota rejection
        # and one shed.
        with serving(tmp_path, start_paused=True, max_queued=2,
                     max_active_per_tenant=1) as server:
            port = server.port
            spec = sweep_spec(workloads=["micro-chain"], sanitize=False)
            done = submit(port, spec)
            status, _ = request(port, "POST", "/jobs", body=spec)
            assert status == 429
            doomed = submit(port, dict(spec, tenant="other"))
            status, _ = request(port, "POST", "/jobs",
                                body=dict(spec, tenant="third"))
            assert status == 503
            assert request(port, "DELETE", f"/jobs/{doomed}")[0] == 202
            server.resume()
            assert stream(port, done)[-1]["state"] == "completed"
            health = request(port, "GET", "/healthz")[1]

        assert set(health) == HEALTHZ_KEYS
        for section, keys in HEALTHZ_SECTION_KEYS.items():
            assert set(health[section]) == keys, section
        assert all(type(value) is int for value in health["queue"].values())
        assert health["queue"] == {
            "submitted": 4, "queued": 0, "running": 0, "completed": 1,
            "cancelled": 1, "failed": 0, "rejected": 2, "replayed": 0}
        for name in LIFECYCLE:
            assert health["queue"][name] == health["serve"][name], name
        assert health["serve"]["shed"] == 1
        assert health["serve"]["started"] == 1
        assert health["serve"]["points"] == 1
        assert health["serve"]["mean_queue_wait_s"] == \
            health["serve"]["queue_wait_s"]
        assert health["cache"]["misses"] == 1
        assert health["cache"]["hit_rate"] == 0
        assert health["conservation_ok"] is True
        assert health["tenants"] == {}


class TestJobsCli:
    """``repro jobs`` inspects/GCs the jobs namespace with no server."""

    def _seeded_store(self, tmp_path):
        from repro.store import open_store

        store = open_store(tmp_path / "store")
        queue = JobQueue(store=store)
        live = queue.submit(_spec(0))
        done = queue.submit(_spec(1))
        claimed = queue.claim_next()
        assert claimed.id == live.id or claimed.id == done.id
        # Retire one job; keep the other live (queued or running).
        other = live.id if claimed.id == done.id else done.id
        queue.finish(claimed.id, COMPLETED, owner=claimed.owner)
        return store, claimed.id, other

    def test_list_shows_every_record(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        store, finished, live = self._seeded_store(tmp_path)
        assert cli_main(["jobs", "list",
                         "--cache-dir", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert finished in out and live in out
        assert "completed" in out

    def test_gc_prunes_terminal_but_shields_live(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        store, finished, live = self._seeded_store(tmp_path)
        assert cli_main(["jobs", "gc", "--older-than", "0",
                         "--cache-dir", str(tmp_path / "store")]) == 0
        assert cli_main(["jobs", "list",
                         "--cache-dir", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert live in out
        assert finished not in out


class TestTerminalHistoryGc:
    """:meth:`JobQueue.gc_terminal`, the watchdog's TTL sweep of terminal
    job history, driven directly (a live server runs it at most once a
    minute, with a 24 h TTL)."""

    def test_old_terminal_jobs_leave_memory_and_store(self, tmp_path):
        from repro.serve import UnknownJob
        from repro.serve.queue import JOBS_NAMESPACE, QUEUED
        from repro.store import open_store

        store = open_store(tmp_path / "store")
        queue = JobQueue(store=store)
        submitted = {queue.submit(_spec(i)).id for i in range(4)}
        finished = []
        for _ in range(2):
            claimed = queue.claim_next()
            queue.finish(claimed.id, COMPLETED, owner=claimed.owner)
            finished.append(claimed.id)
        old, young = finished
        running = queue.claim_next().id
        (queued,) = submitted - set(finished) - {running}
        # Age the old job past the TTL, in memory and on disk. The live
        # jobs' records age too: only their liveness may shield them.
        ttl_s = 3600.0
        stale = time.time() - 2 * ttl_s
        queue.get(old).finished_at = stale
        for job_id in (old, running, queued):
            path = store.path_for(JOBS_NAMESPACE, job_id)
            os.utime(path, (stale, stale))

        assert queue.gc_terminal(ttl_s) == 1
        assert queue.counters.get("serve.gc_jobs") == 1
        with pytest.raises(UnknownJob):
            queue.get(old)
        assert store.read(JOBS_NAMESPACE, old) is None
        for job_id in (young, running, queued):
            assert store.read(JOBS_NAMESPACE, job_id) is not None
        assert queue.get(young).state == COMPLETED
        assert queue.get(running).state == RUNNING
        assert queue.get(queued).state == QUEUED
        # Nothing is left to drop.
        assert queue.gc_terminal(ttl_s) == 0
        assert queue.counters.get("serve.gc_jobs") == 1


class TestCancellation:
    def test_cancel_queued_job_is_immediate(self, tmp_path):
        with serving(tmp_path, start_paused=True) as server:
            job_id = submit(server.port, sweep_spec())
            status, body = request(server.port, "DELETE",
                                   f"/jobs/{job_id}")
            assert status == 202
            assert body["state"] == "cancelled"
            events = stream(server.port, job_id)
            assert events[-1]["state"] == "cancelled"
            health = request(server.port, "GET", "/healthz")[1]
            assert health["queue"]["cancelled"] == 1
            assert health["conservation_ok"] is True

    def test_mid_flight_cancel_leaves_queue_and_pool_clean(self, tmp_path,
                                                           monkeypatch):
        slow_points(monkeypatch, delay_s=0.3)
        with serving(tmp_path, max_concurrent_jobs=1) as server:
            port = server.port
            job_id = submit(port, sweep_spec(
                workloads=NAMES + ["micro-shared"]))
            wait_for_state(port, job_id, {"running"})
            status, body = request(port, "DELETE", f"/jobs/{job_id}")
            assert status == 202 and body["cancel_requested"] is True
            events = stream(port, job_id)
            assert events[-1]["state"] == "cancelled"
            # Points never computed report "cancelled" with no numbers.
            cancelled = [e for e in events if e["event"] == "point"
                         and e["outcome"] == "cancelled"]
            assert cancelled, "no point observed the cancellation"
            assert all("delta_cycles" not in e for e in cancelled)

            health = request(port, "GET", "/healthz")[1]
            assert health["queue"]["running"] == 0
            assert health["queue"]["queued"] == 0
            assert health["queue"]["cancelled"] == 1
            assert health["conservation_ok"] is True
            assert health["inflight_points"] == 0

            # The pool is clean: the next job runs to completion.
            follow_up = submit(port, sweep_spec(seed=7))
            assert stream(port, follow_up)[-1]["state"] == "completed"
            assert request(port, "GET", "/healthz")[1]["conservation_ok"] \
                is True


class TestSharedWorkerPool:
    """Jobs of a server with ``jobs > 1`` share one process-wide pool."""

    def test_stream_open_when_the_pool_forks_still_ends(self, tmp_path):
        # The workers fork while this stream's connection is open; they
        # must not keep it open after the server closes it.
        with serving(tmp_path, jobs=2, start_paused=True) as server:
            job_id = submit(server.port, sweep_spec())
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=60)
            try:
                conn.request("GET", f"/jobs/{job_id}/events")
                response = conn.getresponse()
                server.resume()
                events = [json.loads(line) for line
                          in response.read().decode().splitlines()]
            finally:
                conn.close()
        assert events[-1]["state"] == "completed"

    def test_stop_leaves_no_pool_worker(self, tmp_path, monkeypatch):
        # Stopping must neither wait for a pool worker busy with a point
        # nor leave one running.
        slow_points(monkeypatch, delay_s=60)

        def workers():
            return {p.pid for p in multiprocessing.active_children()} - before

        before = {p.pid for p in multiprocessing.active_children()}
        with serving(tmp_path, jobs=2) as server:
            submit(server.port, sweep_spec())
            deadline = time.monotonic() + 30
            while not workers():
                assert time.monotonic() < deadline, "no pool worker started"
                time.sleep(0.02)
        assert not workers()


class TestRestartRecovery:
    def test_queued_jobs_survive_a_restart(self, tmp_path):
        with serving(tmp_path, start_paused=True) as server:
            first = submit(server.port, sweep_spec())
            second = submit(server.port, sweep_spec(seed=1,
                                                    tenant="other"))
            assert request(server.port, "GET",
                           "/healthz")[1]["queue"]["queued"] == 2
        # Same store root, fresh process state: recovery must replay both.
        with serving(tmp_path) as reborn:
            for job_id in (first, second):
                events = stream(reborn.port, job_id)
                assert events[-1]["state"] == "completed"
                assert any(e["event"] == "requeued" for e in events)
            health = request(reborn.port, "GET", "/healthz")[1]
            assert health["queue"]["replayed"] == 2
            assert health["queue"]["completed"] == 2
            assert health["serve"]["replayed"] == 2
            assert health["conservation_ok"] is True

    def test_terminal_jobs_stay_streamable_after_restart(self, tmp_path):
        with serving(tmp_path) as server:
            job_id = submit(server.port, sweep_spec())
            done = stream(server.port, job_id)
            assert done[-1]["state"] == "completed"
        with serving(tmp_path) as reborn:
            replay = stream(reborn.port, job_id)
            assert replay == done
            # History replays do not re-enter the live accounting.
            health = request(reborn.port, "GET", "/healthz")[1]
            assert health["queue"]["submitted"] == 0
            assert health["conservation_ok"] is True


def job_fields(job) -> tuple:
    """Everything a job record persists."""
    return (job.id, job.spec, job.state, job.error, job.error_code,
            job.attempts, job.finished_at, job.events)


class TestJobRecords:
    """Job records are JSON; a stored spec reads back through
    ``parse_job_spec``, so it is validated like a submitted one."""

    def test_every_state_of_both_kinds_survives_a_restart(self, tmp_path):
        from repro.serve.protocol import point_event
        from repro.serve.queue import QUEUED, scan_jobs
        from repro.store import open_store

        store = open_store(tmp_path / "store")
        queue = JobQueue(store=store)
        sweep = sweep_spec(tenant="s")
        one = {"kind": "compare", "workload": NAMES[0], "lanes": LANES,
               "seed": 3, "tenant": "c", "priority": 2, "verify": False}
        done, running_sweep, failed, running_one = (
            queue.submit(spec).id
            for spec in (sweep, dict(sweep, seed=1), one, dict(one, seed=4)))
        while queue.claim_next() is not None:
            pass
        point = compare(get_workload(NAMES[0]),
                        default_delta_config(lanes=LANES))
        queue.get(done).events.append(point_event(0, point, "ok"))
        queue.finish(done, COMPLETED)
        queue.finish(failed, FAILED, "boom", error_code="bad-thing")
        queued_sweep = queue.submit(dict(sweep, seed=2)).id
        queued_one = queue.submit(dict(one, seed=5)).id
        before = {job.id: job_fields(job) for job in queue.jobs()}

        reborn = JobQueue(store=store)
        assert reborn.recover() == 4
        assert store.counters.get("cache.corrupt") == 0
        after = {job.id: job_fields(job) for job in reborn.jobs()}
        assert sorted(after) == sorted(before)
        for job_id in (done, failed):
            assert after[job_id] == before[job_id]
        # A live record re-enters the queue with a ``requeued`` event; an
        # interrupted one has spent an attempt.
        for job_id, attempts in ((queued_sweep, 0), (queued_one, 0),
                                 (running_sweep, 1), (running_one, 1)):
            old, new = before[job_id], after[job_id]
            assert new[:2] == old[:2]
            assert new[2:7] == (QUEUED, None, None, attempts, None)
            assert new[7][:-1] == old[7]
            assert new[7][-1]["event"] == "requeued"
        kinds = {s["job"]: s["kind"] for s in scan_jobs(store)}
        assert kinds == {job_id: fields[1].kind
                         for job_id, fields in before.items()}

    def test_a_pickled_record_is_never_unpickled(self, tmp_path):
        import pickle

        from repro.serve.queue import JOBS_NAMESPACE, scan_jobs
        from repro.store import open_store
        from tests.test_cache_hits import Marker

        # The payload is armed: unpickling it creates its marker.
        armed = tmp_path / "armed"
        pickle.loads(pickle.dumps(Marker(armed)))
        assert armed.is_dir()

        store = open_store(tmp_path / "store")
        marker = tmp_path / "marker"
        key = "ab" * 32
        store.write(JOBS_NAMESPACE, key, pickle.dumps(Marker(marker)))
        assert [(s["job"], s["state"]) for s in scan_jobs(store)] == \
            [(key, "corrupt")]
        queue = JobQueue(store=store)
        assert queue.recover() == 0
        assert queue.jobs() == []
        assert store.counters.get("cache.corrupt") == 1
        assert store.read(JOBS_NAMESPACE, key) is None
        assert not marker.exists()


class TestMultiClientSoak:
    def test_duplicate_sweeps_from_four_tenants_compute_once(
            self, tmp_path, monkeypatch):
        log = tmp_path / "computed.log"
        slow_points(monkeypatch, delay_s=0.5, log=log)
        clients = 4
        with serving(tmp_path, max_concurrent_jobs=clients) as server:
            port = server.port
            results: dict = {}

            def client(tenant: str) -> None:
                # Identical sweep from every tenant: points are keyed
                # without the tenant, so each must compute once.
                job_id = submit(port, sweep_spec(tenant=tenant))
                results[tenant] = stream(port, job_id)

            threads = [threading.Thread(target=client, args=(f"t{i}",))
                       for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert len(results) == clients

            computed = 0
            for events in results.values():
                assert events[-1]["state"] == "completed"
                points = [e for e in events if e["event"] == "point"]
                assert len(points) == len(NAMES)
                outcomes = {e["outcome"] for e in points}
                assert outcomes <= {"ok", "coalesced", "cached"}
                if "ok" in outcomes:
                    computed += sum(1 for e in points
                                    if e["outcome"] == "ok")
            # One computation per distinct point, reported once; every
            # other request coalesced onto it or hit the cache.
            assert computed == len(NAMES)
            assert computed_points(log) == once_each(NAMES)

            health = request(port, "GET", "/healthz")[1]
            assert health["cache"]["coalesced"] >= clients - 1
            assert health["queue"]["completed"] == clients
            assert health["conservation_ok"] is True


class TestSharedPoints:
    """Concurrent jobs share their common in-flight points, whoever
    submitted them, and one job's cancellation stops only that job."""

    @pytest.mark.parametrize("jobs", [1, 2], ids=["in-process", "pool"])
    def test_jobs_sharing_half_their_points_compute_each_once(
            self, tmp_path, monkeypatch, jobs):
        log = tmp_path / "computed.log"
        slow_points(monkeypatch, delay_s=0.5, log=log)
        sweeps = [["micro-chain", "micro-skewed"],
                  ["micro-skewed", "micro-shared"]]
        with serving(tmp_path, jobs=jobs, start_paused=True,
                     max_concurrent_jobs=2) as server:
            ids = [submit(server.port, sweep_spec(workloads=names,
                                                  tenant=f"t{i}"))
                   for i, names in enumerate(sweeps)]
            server.resume()
            streams = [stream(server.port, job_id) for job_id in ids]
            health = request(server.port, "GET", "/healthz")[1]
        assert [events[-1]["state"] for events in streams] == \
            ["completed", "completed"]
        assert computed_points(log) == once_each(
            ["micro-chain", "micro-skewed", "micro-shared"])
        outcomes = sorted(e["outcome"] for events in streams
                          for e in events if e["event"] == "point")
        assert outcomes == ["coalesced", "ok", "ok", "ok"]
        assert health["cache"]["coalesced"] == 1
        assert health["inflight_points"] == 0

    def test_deleting_one_tenants_job_spares_anothers_identical_job(
            self, tmp_path, monkeypatch):
        log = tmp_path / "computed.log"
        slow_points(monkeypatch, delay_s=1.0, log=log)
        names = NAMES + ["micro-shared"]
        with serving(tmp_path, jobs=2, start_paused=True,
                     max_concurrent_jobs=2) as server:
            port = server.port
            # The doomed job is claimed first, so its requests start the
            # points the kept job then shares.
            doomed = submit(port, sweep_spec(workloads=names,
                                             tenant="doomed", priority=1))
            kept = submit(port, sweep_spec(workloads=names, tenant="kept"))
            server.resume()
            for job_id in (doomed, kept):
                wait_for_state(port, job_id, {"running"})
            status, _body = request(port, "DELETE", f"/jobs/{doomed}")
            assert status == 202
            assert stream(port, doomed)[-1]["state"] == "cancelled"
            events = stream(port, kept)
        assert events[-1]["state"] == "completed"
        points = sorted((e for e in events if e["event"] == "point"),
                        key=lambda e: e["index"])
        assert [e["outcome"] for e in points] == ["ok"] * len(names)
        config = default_delta_config(lanes=LANES, seed=0)
        config = config.with_policy("work-aware").with_sanitize(True)
        for event, name in zip(points, names):
            expected = compare(get_workload(name), config)
            assert event["workload"] == expected.workload
            assert event["delta_cycles"] == expected.delta.cycles
            assert event["static_cycles"] == expected.static.cycles
            assert event["speedup"] == expected.speedup
        assert computed_points(log) == once_each(names)


class TestStreamWakeEvents:
    def test_ended_streams_leave_no_wake_event(self, tmp_path):
        with serving(tmp_path) as server:
            for seed in range(3):
                job_id = submit(server.port, sweep_spec(
                    workloads=["micro-chain"], seed=seed))
                assert stream(server.port, job_id)[-1]["state"] == \
                    "completed"
            assert server.queue.gc_terminal(0) == 3
            assert server.queue.jobs() == []
            assert server._changed == {}


# -- the job-queue state machine under Hypothesis ---------------------------

def _spec(tenant: int) -> JobSpec:
    return JobSpec(kind="sweep", workloads=("micro-chain",),
                   tenant=f"t{tenant}")


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7),
                          st.integers(0, 3)),
                min_size=1, max_size=100))
def test_random_interleavings_conserve_jobs(steps):
    """submit/claim/cancel/finish in any order never unbalance
    ``submitted == queued + running + completed + cancelled + failed +
    rejected`` (the queue also asserts this internally on every
    transition — a violation fails loudly, not just here)."""
    queue = JobQueue(store=None, max_active_per_tenant=3)
    running: list = []
    for op, selector, tenant in steps:
        if op == 0:  # submit (may hit the quota)
            try:
                queue.submit(_spec(tenant))
            except QuotaExceeded:
                pass
        elif op == 1:  # claim
            job = queue.claim_next()
            if job is not None:
                running.append(job.id)
        elif op == 2:  # cancel any known job (idempotent on terminal)
            jobs = queue.jobs()
            if jobs:
                queue.request_cancel(jobs[selector % len(jobs)].id)
        else:  # finish one running job, honouring cancel requests
            if running:
                job_id = running.pop(selector % len(running))
                job = queue.get(job_id)
                if job.state == RUNNING:
                    if job.cancel_requested:
                        state = CANCELLED
                    else:
                        state = COMPLETED if selector % 2 else FAILED
                    queue.finish(job_id, state)
        assert queue.conservation_ok(), queue.counts()
    counts = queue.counts()
    assert counts["submitted"] == sum(
        counts[k] for k in ("queued", "running", "completed", "cancelled",
                            "failed", "rejected"))


class TestSpecParsing:
    def test_compare_kind_is_one_workload(self):
        spec = parse_job_spec({"kind": "compare", "workload": NAMES[0]})
        assert spec.workloads == (NAMES[0],)

    @pytest.mark.parametrize("body", [
        {"kind": "compare", "workload": NAMES[0], "seed": 2},
        {"kind": "sweep", "workloads": NAMES, "tenant": "t", "priority": 1},
    ])
    def test_to_json_is_a_body_that_parses_back_equal(self, body):
        spec = parse_job_spec(body)
        assert parse_job_spec(spec.to_json()) == spec

    def test_bool_is_not_an_int(self):
        from repro.serve.protocol import SpecError

        with pytest.raises(SpecError):
            parse_job_spec(sweep_spec(lanes=True))
