"""The ``serve-mix`` workload: ``repro serve`` under a closed loop.

Two client threads (two tenants, one connection each at a time, no think
time) send jobs from a seeded schedule until the time is up: 60% new
specs, which the server computes, and 40% repeats of the client's own
earlier specs, which it serves from its cache. One new spec in five is a
4-workload sweep; the server runs with ``--jobs 2`` (its documented
default, one worker per core), so those take the worker-pool path. A
job's latency runs from sending its POST to reading its terminal NDJSON
event. A closed loop is used because an open-loop
rate sweep would need more client connections than this 2-core machine
has cores.

The timed run drives a real ``repro serve`` subprocess. The traced pass
runs a shortened mix against fresh in-process servers with ``jobs=1``
(spans recorded in pool workers would be lost): a warm-up, then
untraced, then traced.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

from common import (
    ROOT,
    hermetic_env,
    host_speed,
    p50,
    p90,
    vm_hwm_mb,
    work_dir,
)

#: Of every five jobs a client sends, these positions repeat an earlier
#: spec; the other three are new.
REPEATS = (2, 4)
#: Every fifth new spec, and every fifth repeat, is a sweep of this many
#: workloads.
SWEEP_EVERY, SWEEP_WIDTH = 5, 4
LANES = (2, 4, 8)
#: Length of one timed segment, and of the host-speed sample between
#: segments.
SEGMENT_S, SAMPLE_S = 2.5, 0.2


def client_specs(seed: int, client: int, names: list):
    """Client ``client``'s endless job schedule: ``(spec, is_repeat)``.

    The schedule is balanced so that only the order of jobs depends on
    the seed. Of every five jobs, three are new specs and two repeat the
    client's own earlier specs, round-robin. Every fifth new spec and
    every fifth repeat is a sweep. Compare jobs walk reshuffled passes
    over the registry, one lane count per pass, so three passes send
    every (workload, lanes) pair once; sweeps draw distinct workloads
    from their own reshuffled passes.
    """
    rng = random.Random(f"serve-mix:{seed}:{client}")

    def shuffled():
        while True:
            order = list(names)
            rng.shuffle(order)
            yield from order

    draws = {"compare": shuffled(), "sweep": shuffled()}
    sent: dict = {"compare": [], "sweep": []}
    repeated = {"compare": 0, "sweep": 0}
    for i in itertools.count():
        if i % 5 in REPEATS:
            kind = "sweep" if (sum(repeated.values()) % SWEEP_EVERY
                               == SWEEP_EVERY - 1 and sent["sweep"]) \
                else "compare"
            spec = sent[kind][repeated[kind] % len(sent[kind])]
            repeated[kind] += 1
            yield spec, True
            continue
        new = len(sent["compare"]) + len(sent["sweep"])
        if new % SWEEP_EVERY == SWEEP_EVERY - 1:
            kind, workloads = "sweep", []
            while len(workloads) < SWEEP_WIDTH:
                name = next(draws[kind])
                if name not in workloads:
                    workloads.append(name)
            spec = {"kind": kind, "workloads": workloads,
                    "lanes": LANES[len(sent[kind]) % len(LANES)]}
        else:
            kind = "compare"
            spec = {"kind": kind, "workload": next(draws[kind]),
                    "lanes": LANES[len(sent[kind]) // len(names)
                                   % len(LANES)]}
        # A fresh MachineConfig seed per new spec keeps its keys distinct.
        spec.update(seed=seed * 1_000_000 + client * 100_000 + new,
                    tenant=f"tenant-{client}")
        sent[kind].append(spec)
        yield spec, False


def _request(port: int, method: str, path: str, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path,
                     body=None if body is None else json.dumps(body))
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def run_job(port: int, spec: dict, repeat: bool) -> dict:
    """Submit one job and stream it to its terminal event."""
    record = {"spec": spec, "repeat": repeat, "state": "rejected",
              "points": []}
    start = time.perf_counter()
    status, created = _request(port, "POST", "/jobs", spec)
    record["submit_ms"] = (time.perf_counter() - start) * 1e3
    if status != 201:
        record["error"] = created
        return record
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", f"/jobs/{created['job']}/events")
        for line in conn.getresponse():
            event = json.loads(line)
            if event.get("event") == "point":
                if not record["points"]:
                    record["first_point_ms"] = (
                        time.perf_counter() - start) * 1e3
                record["points"].append(event)
            elif event.get("event") == "done":
                record["state"] = event["state"]
                break
    finally:
        conn.close()
    record["latency_ms"] = (time.perf_counter() - start) * 1e3
    return record


class Clients:
    """The closed-loop clients. Each sends its next job when the last
    ends; schedules persist across :meth:`run` calls, so a timed run can
    pause between segments to sample host speed."""

    def __init__(self, port: int, seed: int, names: list,
                 clients: int) -> None:
        self.port = port
        self.schedules = [client_specs(seed, c, names)
                          for c in range(clients)]
        self.records: list = [[] for _ in range(clients)]
        self.segment = 0

    def run(self, *, seconds: float = None, jobs_each: int = None) -> float:
        """Send jobs until ``seconds`` pass or each client has sent
        ``jobs_each``; returns the wall time, jobs in flight included."""
        start = time.perf_counter()
        errors: list = []

        def client(c: int) -> None:
            try:
                while not (seconds is not None
                           and time.perf_counter() - start >= seconds
                           or jobs_each is not None
                           and len(self.records[c]) >= jobs_each):
                    spec, repeat = next(self.schedules[c])
                    record = run_job(self.port, spec, repeat)
                    record["segment"] = self.segment
                    self.records[c].append(record)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                errors.append(f"client {c}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(len(self.schedules))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise RuntimeError("; ".join(errors))
        self.segment += 1
        return time.perf_counter() - start


def _cycles(record: dict) -> list:
    return [(p["workload"], p["delta_cycles"], p["static_cycles"])
            for p in record["points"]]


def mix_digest(records: list, count: int) -> str:
    """Hash of each client's first ``count`` jobs' simulated cycles."""
    h = hashlib.sha256()
    for per_client in records:
        for record in per_client[:count]:
            h.update(json.dumps(_cycles(record)).encode())
    return h.hexdigest()[:16]


def repeat_problems(records: list) -> list:
    """Repeats must return the cycles of their spec's first serving."""
    problems = []
    for per_client in records:
        first: dict = {}
        for record in per_client:
            key = json.dumps(record["spec"], sort_keys=True)
            if record["state"] != "completed":
                continue
            if key not in first:
                first[key] = _cycles(record)
            elif _cycles(record) != first[key]:
                problems.append(f"repeat differs from first serving: {key}")
    return problems


class ServeMix:
    name = "serve-mix"

    def __init__(self, plan, seed: int) -> None:
        self.plan = plan
        self.seed = seed
        self.base = None
        self.server = None

    def setup(self, for_trace: bool = False) -> None:
        from repro.workloads.registry import workload_names

        self.names = list(self.plan.workloads or workload_names())
        self.base = work_dir("serve-mix-")
        if for_trace:
            return
        with open(self.base / "server.log", "w") as log:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--cache-dir", str(self.base / "store"),
                 "--jobs", str(self.plan.pool_jobs)],
                cwd=ROOT, env=hermetic_env(), stdout=subprocess.PIPE,
                stderr=log, text=True)
        line = self.server.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if not match:
            raise RuntimeError(f"repro serve did not start ({line!r}); "
                               f"see {self.base / 'server.log'}")
        self.port = int(match.group(1))

    def close(self) -> None:
        if self.server is not None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None
        if self.base is not None:
            shutil.rmtree(self.base, ignore_errors=True)

    def measure(self, seconds: float) -> dict:
        clients = Clients(self.port, self.seed, self.names,
                          self.plan.serve_clients)
        # The run is cut into segments with host speed sampled between
        # them, while the server idles: sampling during a segment would
        # compete with the server. Each segment's jobs take the mean of
        # the samples around it. The first segment is a fixed amount of
        # work, the jobs the digest covers, and peak memory is read after
        # it: how many jobs fit in the rest depends on host speed.
        speeds = [host_speed(SAMPLE_S, procs=2)]
        walls = [clients.run(jobs_each=self.plan.serve_digest_jobs)]
        speeds.append(host_speed(SAMPLE_S, procs=2))
        peak = vm_hwm_mb(self.server.pid)
        remaining = max(0.0, seconds - walls[0])
        segments = max(1, round(remaining / SEGMENT_S))
        for _ in range(segments):
            walls.append(clients.run(seconds=remaining / segments))
            speeds.append(host_speed(SAMPLE_S, procs=2))
        speed = [(a + b) / 2 for a, b in zip(speeds, speeds[1:])]
        _status, health = _request(self.port, "GET", "/healthz")
        self.close()  # the direct compare() checks below need the cores
        records = clients.records
        jobs = [r for per_client in records for r in per_client]
        done = [r for r in jobs if r["state"] == "completed"]
        points = sum(len(r["points"]) for r in done)
        problems = repeat_problems(records) + self.compare_problems(records)
        failed = len(jobs) - len(done) + len(problems)
        reference_s = sum(w * v for w, v in zip(walls, speed))
        latencies = [r["latency_ms"] * speed[r["segment"]] for r in done]
        return {
            "metrics": {"points_per_s": points / reference_s,
                        "jobs_per_s": len(done) / reference_s,
                        "latency_p50_ms": p50(latencies),
                        "latency_p90_ms": p90(latencies),
                        "peak_rss_mb": peak},
            "attempted": len(jobs), "failed": failed,
            "correct": failed == 0,
            "exact": {"digest": mix_digest(records,
                                           self.plan.serve_digest_jobs)},
            "problems": problems[:10],
            "samples": {"jobs": len(jobs), "points": points,
                        "walls": walls, "speeds": speeds,
                        "job_ms": [r["latency_ms"] for r in done],
                        "job_segment": [r["segment"] for r in done],
                        "job_kind": [("repeat-" if r["repeat"] else "new-")
                                     + r["spec"]["kind"] for r in done],
                        "shed": health["serve"]["shed"]}}

    def compare_problems(self, records: list) -> list:
        """Sampled cold specs equal a direct ``compare()`` of each point."""
        from repro.arch.config import default_delta_config
        from repro.eval.runner import compare
        from repro.workloads.registry import get_workload

        cold = [r for per_client in records for r in per_client
                if not r["repeat"] and r["state"] == "completed"]
        rng = random.Random(f"serve-mix-check:{self.seed}")
        problems = []
        for record in rng.sample(cold, min(len(cold),
                                           self.plan.serve_checked_specs)):
            spec = record["spec"]
            names = spec.get("workloads") or [spec["workload"]]
            config = default_delta_config(lanes=spec["lanes"],
                                          seed=spec["seed"])
            expected = []
            for name in names:
                c = compare(get_workload(name), config)
                expected.append((c.workload, c.delta.cycles,
                                 c.static.cycles))
            if sorted(_cycles(record)) != sorted(expected):
                problems.append(f"served result differs from compare(): "
                                f"{json.dumps(spec, sort_keys=True)}")
        return problems

    # -- traced pass -----------------------------------------------------

    def short_mix(self, run: int):
        """A fixed-length mix against a fresh in-process server."""
        from repro.serve import Server

        server = Server(port=0, root=self.base / f"trace-{run}", jobs=1)
        thread = threading.Thread(target=server.run)
        thread.start()
        try:
            if not server.ready.wait(60):
                raise RuntimeError("in-process server did not start")
            clients = Clients(server.port, self.seed, self.names,
                              self.plan.serve_clients)
            wall = clients.run(jobs_each=self.plan.serve_trace_jobs)
            _status, health = _request(server.port, "GET", "/healthz")
        finally:
            server.shutdown()
            thread.join(60)
        return clients.records, wall, health

    def trace(self, recorder, trace_path) -> dict:
        import spans
        from repro.util.stats import geomean
        from sweeps import store_bytes

        self.short_mix(0)  # warm-up, as for the sweeps
        plain, plain_s, _ = self.short_mix(1)
        uninstall = spans.install(recorder)
        try:
            records, traced_s, health = self.short_mix(2)
        finally:
            uninstall()
        count = self.plan.serve_digest_jobs
        problems = repeat_problems(records)
        if mix_digest(plain, count) != mix_digest(records, count):
            problems.append("traced mix digest differs from untraced")
        jobs = [r for per_client in records for r in per_client]
        done = [r for r in jobs if r["state"] == "completed"]
        problems += [f"job ended {r['state']}" for r in jobs
                     if r["state"] != "completed"]
        points = [p for r in done for p in r["points"]]
        metrics = spans.layer_metrics(recorder, traced_s)
        metrics.update({
            "trace.wall_s": traced_s,
            "trace.untraced_wall_s": plain_s,
            "trace_overhead_frac": traced_s / plain_s - 1.0,
            "eval.points": len(points),
            "eval.pool_efficiency": 0.0,
            "store.bytes_written": store_bytes(self.base / "trace-2"),
            "arch.dram_bytes": sum(p["metrics"]["delta_dram_bytes"]
                                   + p["metrics"]["static_dram_bytes"]
                                   for p in points),
            "arch.noc_bytes": sum(p["metrics"]["delta_noc_bytes"]
                                  + p["metrics"]["static_noc_bytes"]
                                  for p in points),
            "sim.speedup_geomean": geomean(
                [p["static_cycles"] / p["delta_cycles"] for p in points]),
            "serve.submit_ms_p50": p50(r["submit_ms"] for r in jobs),
            "serve.first_point_ms_p50": p50(r["first_point_ms"]
                                            for r in done),
            "serve.queue_wait_ms_mean":
                health["serve"]["mean_queue_wait_s"] * 1e3,
            "serve.cached_frac": sum(p["outcome"] == "cached"
                                     for p in points) / len(points),
            "serve.shed": health["serve"]["shed"],
        })
        spans.write_chrome_trace(recorder, trace_path, self.name)
        return {"metrics": metrics, "attempted": len(jobs),
                "failed": len(problems), "correct": not problems,
                "exact": {"digest": mix_digest(records, count)},
                "problems": problems[:10]}
