"""``repro serve`` — the long-running multi-tenant sweep server.

One :class:`Server` composes the whole subsystem:

- an ``asyncio`` socket front-end (:mod:`repro.serve.http`) exposing
  ``POST /jobs``, ``GET /jobs/<id>/events`` (NDJSON stream),
  ``DELETE /jobs/<id>``, and ``GET /healthz``;
- the persistent :class:`~repro.serve.queue.JobQueue` (jobs survive
  restarts in the shared store's ``jobs`` namespace; priorities, tenant
  quotas, fair-share draining);
- the :class:`~repro.serve.executor.JobExecutor`, which runs each
  claimed job through :mod:`repro.eval.parallel` on a small pool of job
  threads; a point that a running job is already computing is shared
  through that module's in-flight table, not computed again; with
  ``jobs > 1`` the points of every running job go to the one
  worker-process pool of :mod:`repro.eval.parallel`, so concurrent jobs
  compute on separate cores;
- a **watchdog task** that enforces job leases (a crashed or wedged
  worker's job is requeued with backoff, then failed typed once its
  retry budget is spent) and ages terminal job history out of the store;
- one :class:`~repro.util.counters.Counters` bag, passed to the store,
  the queue, the executor and every responder: the store and the eval
  cache count ``cache.*``, the server's own activity is ``serve.*``
  (including ``lease_*`` and ``shed``), and worker-pool health is
  ``eval.*`` — all reported by ``/healthz``.

Threading model: the event loop owns every job's event log (worker
threads publish points via ``call_soon_threadsafe``), the queue is
internally locked, and job computation happens in worker threads so the
loop never blocks on a simulation.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

from repro.eval.cache import EvalCache
from repro.eval.parallel import inflight_points, shutdown_pool
from repro.serve.executor import JobExecutor
from repro.serve.http import Responder, read_request
from repro.serve.protocol import ServeError, UnknownJob
from repro.serve.queue import TERMINAL, Job, JobQueue
from repro.store import open_store
from repro.util.counters import Counters

#: How long an idle scheduler/streamer waits before re-polling, seconds.
#: Wake events make the common path prompt; the poll is the safety net.
_POLL_S = 0.1


class Server:
    """The sweep server: queue + executor + HTTP front-end + counters."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 root: Optional[Path] = None,
                 cache_max_mb: Optional[float] = None,
                 no_cache: bool = False,
                 jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 max_active_per_tenant: int = 8,
                 max_concurrent_jobs: int = 2,
                 lease_s: float = 15.0,
                 max_lease_attempts: int = 3,
                 max_queued: Optional[int] = None,
                 max_backlog_per_tenant: Optional[int] = None,
                 job_ttl_s: float = 24 * 3600.0,
                 watchdog_interval_s: float = 0.5,
                 start_paused: bool = False) -> None:
        self.host = host
        self.port = port
        self.counters = Counters()
        self.store = open_store(root, max_mb=cache_max_mb,
                                counters=self.counters)
        self.queue = JobQueue(store=self.store,
                              max_active_per_tenant=max_active_per_tenant,
                              lease_s=lease_s,
                              max_lease_attempts=max_lease_attempts,
                              max_queued=max_queued,
                              max_backlog_per_tenant=max_backlog_per_tenant,
                              counters=self.counters)
        self.cache = None if no_cache else EvalCache(store=self.store)
        self.executor = JobExecutor(self.cache, jobs=jobs, timeout=timeout,
                                    heartbeat=self.queue.heartbeat,
                                    counters=self.counters)
        self.max_concurrent_jobs = max_concurrent_jobs
        self.job_ttl_s = job_ttl_s
        self.watchdog_interval_s = watchdog_interval_s
        self.start_paused = start_paused
        #: Set once the socket is bound and ``port`` holds the real port —
        #: a ``threading.Event`` so background-thread servers are awaitable
        #: from the launching thread.
        self.ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._workers: Optional[ThreadPoolExecutor] = None
        self._scheduler: Optional[asyncio.Task] = None
        self._watchdog: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._stop_requested: Optional[asyncio.Event] = None
        #: job id -> one wake event per open stream of that job.
        self._changed: dict[str, set[asyncio.Event]] = {}
        self._stopping = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, replay persisted jobs, start scheduling."""
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stop_requested = asyncio.Event()
        self._workers = ThreadPoolExecutor(
            max_workers=self.max_concurrent_jobs,
            thread_name_prefix="repro-serve-job")
        self.queue.recover()
        self._server = await asyncio.start_server(self._handle,
                                                  self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if not self.start_paused:
            self._scheduler = self._loop.create_task(self._schedule_loop())
        self._watchdog = self._loop.create_task(self._watchdog_loop())
        self.ready.set()

    def resume(self) -> None:
        """Start claiming jobs on a server created ``start_paused`` —
        thread-safe, so tests drive paused servers from outside the loop."""
        def _go() -> None:
            if self._scheduler is None:
                self._scheduler = self._loop.create_task(
                    self._schedule_loop())
        self._loop.call_soon_threadsafe(_go)

    async def stop(self) -> None:
        """Stop accepting, stop claiming, interrupt running jobs.

        Running jobs get their cancel event but are *not* finished:
        their persisted state stays ``running``, so the next server's
        :meth:`~repro.serve.queue.JobQueue.recover` re-queues them —
        interrupted work is replayed, never lost.
        """
        self._stopping = True
        for attr in ("_scheduler", "_watchdog"):
            task = getattr(self, attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                setattr(self, attr, None)
        for job in self.queue.jobs():
            if job.state == "running":
                job.cancel.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._workers is not None:
            # Worker threads see their cancel events within one poll
            # slice; cancel_futures covers claims that never started.
            self._workers.shutdown(wait=True, cancel_futures=True)
            self._workers = None
        # No job thread is left to use the shared worker pool; a worker
        # still busy with an abandoned point is stopped, not awaited.
        shutdown_pool()
        self.ready.clear()

    def shutdown(self) -> None:
        """Request a stop from any thread (the test/CLI-facing handle)."""
        if self._loop is not None and self._stop_requested is not None:
            self._loop.call_soon_threadsafe(self._stop_requested.set)

    async def _main(self) -> None:
        await self.start()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._loop.add_signal_handler(sig, self._stop_requested.set)
            except (NotImplementedError, RuntimeError, ValueError):
                break  # not the main thread (tests) or no signal support
        try:
            await self._stop_requested.wait()
        finally:
            await self.stop()

    def run(self) -> None:
        """Blocking entry point: serve until :meth:`shutdown` (or signal).

        This is what a background test thread and ``repro serve`` both
        call; the CLI additionally installs SIGINT/SIGTERM handlers that
        call :meth:`shutdown`.
        """
        asyncio.run(self._main())

    # -- scheduling ------------------------------------------------------

    async def _schedule_loop(self) -> None:
        slots = asyncio.Semaphore(self.max_concurrent_jobs)
        while True:
            await slots.acquire()
            job = self.queue.claim_next()
            while job is None:
                slots.release()
                try:
                    await asyncio.wait_for(self._wake.wait(), _POLL_S)
                except asyncio.TimeoutError:
                    pass
                self._wake.clear()
                await slots.acquire()
                job = self.queue.claim_next()
            self._notify(job.id)
            self._loop.create_task(self._run_job(job, slots))

    async def _run_job(self, job: Job, slots: asyncio.Semaphore) -> None:
        # Pin the claim incarnation: if the watchdog revokes this lease
        # and requeues the job while we compute, the stale owner token
        # makes our eventual finish a discarded zombie, not a double
        # completion.
        owner = job.owner
        try:
            def emit(event: dict) -> None:
                # Worker thread -> loop: the loop owns every event log.
                self._loop.call_soon_threadsafe(self._publish, job, event)

            state, error = await self._loop.run_in_executor(
                self._workers, self.executor.run_job, job, emit)
            if not self._stopping:
                self.queue.finish(job.id, state, error, owner=owner)
                self._notify(job.id)
        finally:
            slots.release()
            self._wake.set()

    async def _watchdog_loop(self) -> None:
        """Lease enforcement + terminal-history GC, on one timer.

        Every tick, expired leases are requeued (or retired — see
        :meth:`~repro.serve.queue.JobQueue.expire_leases`); much less
        often, terminal jobs past their TTL are dropped from memory and
        disk. GC cadence is coarse (half the TTL, capped at a minute) —
        the sweep walks the jobs namespace, so it must not run per tick.
        """
        gc_every = max(self.watchdog_interval_s,
                       min(60.0, self.job_ttl_s / 2))
        next_gc = self._loop.time() + gc_every
        while True:
            await asyncio.sleep(self.watchdog_interval_s)
            affected = self.queue.expire_leases()
            for job in affected:
                self._notify(job.id)
            if affected:
                self._wake.set()  # requeued work is claimable now
            if self._loop.time() >= next_gc:
                await self._loop.run_in_executor(
                    None, self.queue.gc_terminal, self.job_ttl_s)
                next_gc = self._loop.time() + gc_every

    def _publish(self, job: Job, event: dict) -> None:
        job.events.append(event)
        self._notify(job.id)

    def _notify(self, job_id: str) -> None:
        for changed in self._changed.get(job_id, ()):
            changed.set()

    # -- HTTP ------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        responder = Responder(writer, counters=self.counters)
        try:
            request = await read_request(reader)
            if request is not None:
                await self._route(request, responder)
        except ServeError as exc:
            if not responder.started:
                await responder.send_error(exc)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response; nothing to salvage
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            if not responder.started:
                await responder.send_json(
                    500, {"error": {"code": "internal",
                                    "message": f"{type(exc).__name__}: "
                                               f"{exc}"}})
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(self, request, responder: Responder) -> None:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz":
            if method != "GET":
                raise ServeError("healthz is GET-only",
                                 code="method-not-allowed")
            await responder.send_json(200, self.healthz())
            return
        if path == "/jobs":
            if method == "POST":
                job = self.queue.submit(request.json())
                self._wake.set()
                await responder.send_json(
                    201, {"job": job.id, "state": job.state,
                          "events": f"/jobs/{job.id}/events"})
                return
            if method == "GET":
                await responder.send_json(
                    200, {"jobs": [j.to_json() for j in self.queue.jobs()]})
                return
            raise ServeError("jobs is GET/POST-only",
                             code="method-not-allowed")
        if path.startswith("/jobs/"):
            parts = path[len("/jobs/"):].split("/")
            job_id = parts[0]
            if len(parts) == 2 and parts[1] == "events" and method == "GET":
                await self._stream_events(job_id, responder)
                return
            if len(parts) == 1 and method == "GET":
                await responder.send_json(200,
                                          self.queue.get(job_id).to_json())
                return
            if len(parts) == 1 and method == "DELETE":
                job = self.queue.request_cancel(job_id)
                self._notify(job.id)
                await responder.send_json(
                    202, {"job": job.id, "state": job.state,
                          "cancel_requested": job.cancel_requested})
                return
        raise UnknownJob(f"no route {method} {request.path}")

    async def _stream_events(self, job_id: str,
                             responder: Responder) -> None:
        """Replay a job's event log, then follow it to the terminal event."""
        job = self.queue.get(job_id)
        changed = asyncio.Event()
        streams = self._changed.setdefault(job_id, set())
        streams.add(changed)
        try:
            await responder.start_stream()
            cursor = 0
            while True:
                while cursor < len(job.events):
                    await responder.send_line(job.events[cursor])
                    cursor += 1
                if job.state in TERMINAL and cursor >= len(job.events):
                    return
                try:
                    await asyncio.wait_for(changed.wait(), _POLL_S)
                except asyncio.TimeoutError:
                    pass
                changed.clear()
        finally:
            # The job's entry lives only while one of its streams is open.
            streams.discard(changed)
            if not streams:
                self._changed.pop(job_id, None)

    # -- health ----------------------------------------------------------

    def healthz(self) -> dict:
        """The ``/healthz`` body: queue depths, tenants, cache hit rates."""
        get = self.counters.get
        hits, misses = get("cache.hits"), get("cache.misses")
        started, waited = get("serve.started"), get("serve.queue_wait_s")
        return {
            "status": "ok",
            "queue": self.queue.counts(),
            "tenants": self.queue.tenant_usage(),
            "conservation_ok": self.queue.conservation_ok(),
            "inflight_points": inflight_points(),
            "cache": {
                **{name: get(f"cache.{name}")
                   for name in ("hits", "misses", "stores", "evictions",
                                "coalesced", "corrupt", "lock_waits")},
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            },
            "serve": {
                **{name: get(f"serve.{name}")
                   for name in ("submitted", "started", "completed",
                                "cancelled", "rejected", "failed",
                                "replayed", "points",
                                "stream_stalls", "lease_renewals",
                                "lease_expired", "lease_requeued",
                                "lease_failed", "lease_zombie", "shed",
                                "gc_jobs")},
                "queue_wait_s": waited,
                "mean_queue_wait_s": waited / started if started else 0.0,
            },
            "eval": {name: get(f"eval.{name}")
                     for name in ("worker_deaths", "pool_rebuilds",
                                  "retried_points", "lost_worker_points")},
            "overload": {
                "max_queued": self.queue.max_queued,
                "max_backlog_per_tenant":
                    self.queue.max_backlog_per_tenant,
                "retry_after_s": self.queue.retry_after_s(),
            },
        }
