#!/usr/bin/env python
"""Scripted client smoke for ``repro serve`` (CI runs this).

Launches the real CLI entry point as a subprocess, then drives it over
plain ``http.client``:

1. submit a sweep and stream its NDJSON events to completion;
2. submit a second job behind it and cancel it while it is still queued
   (``--max-concurrent-jobs 1`` makes the window deterministic);
3. re-submit the first sweep and require every point to come back
   ``cached``, with ``/healthz`` reporting a nonzero cache hit rate and
   balanced conservation counters;
4. stop the server with SIGTERM and require a clean exit.

``--jobs N`` passes through to ``repro serve``: with N > 1 the jobs run
on its shared worker pool, so the same script smokes that pool on a live
server.

Exit code 0 on success; any protocol violation prints a diagnostic and
exits 1.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SWEEP = {"kind": "sweep", "workloads": ["micro-chain", "micro-skewed"],
         "lanes": 4}


def fail(message: str) -> None:
    print(f"serve smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def request(port: int, method: str, path: str, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    return response.status, (json.loads(data) if data else None)


def stream(port: int, job_id: str) -> list:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        response = conn.getresponse()
        if response.status != 200:
            fail(f"stream for {job_id} answered {response.status}")
        return [json.loads(line)
                for line in response.read().decode().splitlines()]
    finally:
        conn.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the server (default: "
                             "the server's own default)")
    args = parser.parse_args(argv)
    jobs = [] if args.jobs is None else ["--jobs", str(args.jobs)]
    cache_dir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", cache_dir, "--max-concurrent-jobs", "1", *jobs],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    try:
        line = server.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if not match:
            fail(f"no listen announcement, got: {line!r}")
        port = int(match.group(1))
        print(f"server up on port {port}")

        # 1. Submit and stream a sweep to completion.
        status, created = request(port, "POST", "/jobs", SWEEP)
        if status != 201:
            fail(f"submit answered {status}: {created}")
        # 2. A second job queues behind it (one slot); cancel it there.
        status, second = request(port, "POST", "/jobs",
                                 dict(SWEEP, seed=1))
        if status != 201:
            fail(f"second submit answered {status}: {second}")
        status, cancelled = request(port, "DELETE",
                                    f"/jobs/{second['job']}")
        if status != 202:
            fail(f"cancel answered {status}: {cancelled}")

        events = stream(port, created["job"])
        if events[-1].get("state") != "completed":
            fail(f"first job ended {events[-1]}")
        points = [e for e in events if e.get("event") == "point"]
        if len(points) != len(SWEEP["workloads"]):
            fail(f"expected {len(SWEEP['workloads'])} points, "
                 f"got {len(points)}")
        print(f"first job completed with {len(points)} points")

        final = stream(port, second["job"])[-1]
        if final.get("state") != "cancelled":
            fail(f"cancelled job ended {final}")
        print("second job cancelled cleanly")

        # 3. Warm repeat: identical sweep, every point served from cache.
        status, repeat = request(port, "POST", "/jobs", SWEEP)
        if status != 201:
            fail(f"warm submit answered {status}: {repeat}")
        warm = [e for e in stream(port, repeat["job"])
                if e.get("event") == "point"]
        outcomes = sorted(e["outcome"] for e in warm)
        if outcomes != ["cached"] * len(SWEEP["workloads"]):
            fail(f"warm repeat was not fully cached: {outcomes}")

        status, health = request(port, "GET", "/healthz")
        if status != 200:
            fail(f"healthz answered {status}")
        if not health["cache"]["hits"] or health["cache"]["hit_rate"] <= 0:
            fail(f"no cache hits on the warm repeat: {health['cache']}")
        if not health["conservation_ok"]:
            fail(f"conservation violated: {health['queue']}")
        if health["queue"] != {"submitted": 3, "queued": 0, "running": 0,
                               "completed": 2, "cancelled": 1, "failed": 0,
                               "rejected": 0, "replayed": 0}:
            fail(f"unexpected queue counts: {health['queue']}")
        print(f"warm repeat cached; hit rate "
              f"{health['cache']['hit_rate']:.2f}, conservation ok")

        # The self-healing counters must exist (and be quiet on a calm
        # run); CI greps the printed names.
        lease_names = ("lease_renewals", "lease_expired", "lease_requeued",
                       "lease_failed", "lease_zombie", "shed", "gc_jobs")
        for name in lease_names:
            if name not in health["serve"]:
                fail(f"healthz missing serve.{name}: "
                     f"{sorted(health['serve'])}")
        for name in ("lease_expired", "lease_requeued", "lease_failed",
                     "shed"):
            if health["serve"][name]:
                fail(f"calm run counted serve.{name}="
                     f"{health['serve'][name]}")
        if "worker_deaths" not in health.get("eval", {}):
            fail(f"healthz missing eval.worker_deaths: {health.get('eval')}")
        if health["eval"]["worker_deaths"]:
            fail(f"calm run counted eval.worker_deaths="
                 f"{health['eval']['worker_deaths']}")
        print("healthz counters: "
              + " ".join(f"serve.{name}={health['serve'][name]:.0f}"
                         for name in lease_names)
              + f" eval.worker_deaths={health['eval']['worker_deaths']:.0f}")
    finally:
        # 4. Graceful stop.
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            fail("server did not stop on SIGTERM")
    if server.returncode != 0:
        fail(f"server exited {server.returncode}")
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
