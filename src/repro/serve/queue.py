"""The persistent, multi-tenant job queue behind ``repro serve``.

One :class:`JobQueue` owns every job the server knows about and is the
single source of truth for the job state machine::

    submit ─┬─> queued ──claim──> running ──finish──> completed | failed
            │      ▲                  │
            │      ├──cancel──────────┴──────────────> cancelled
            │      └──lease expired (requeue, bounded)─┘
            └─(quota/overload)───────────────────────> rejected

Rejected submissions never enter the queue; cancelling a *queued* job is
immediate, cancelling a *running* job sets its cooperative
``threading.Event`` (the executor propagates it into the in-flight
:mod:`repro.eval.parallel` points) and the job reaches ``cancelled`` when
the worker acknowledges — or when its lease expires, whichever first.

**Leases** make ``running`` crash-safe. Claiming a job stamps it with a
fresh owner token and a lease deadline; the executor heartbeats while it
computes, renewing the lease. A worker that dies (or wedges) stops
heartbeating, the watchdog's :meth:`JobQueue.expire_leases` notices the
deadline pass and requeues the job with exponential, jittered backoff
(``attempts``/``next_eligible_at`` on the record), failing it with a
typed ``lease-expired`` error once the retry budget is spent. Owner
tokens are per-*claim*: a zombie worker finishing after its lease was
revoked presents a stale token and its result is discarded
(``serve.lease_zombie``), never double-counted.

**Conservation** is the queue's core invariant, checked under the lock on
every transition and surfaced by ``/healthz``::

    submitted == queued + running + completed + cancelled + failed
                 + rejected

(``submitted`` counts every submission *attempt*, so quota rejections and
overload sheds balance too.) The queue keeps no count of its own: the
settled terms are its bag's ``serve.*`` counters, and ``queued`` and
``running`` are counted from the jobs it holds. The Hypothesis property
tests in ``tests/test_serve.py`` and ``tests/test_chaos.py`` drive random
submit/claim/cancel/expire/finish interleavings against exactly this
check.

**Overload control**: beyond the per-tenant active quota, an optional
global queue-depth cap and per-tenant backlog cap shed submissions with a
typed 503 (:class:`~repro.serve.protocol.QueueOverloaded`) whose
``Retry-After`` is estimated from the recent drain rate — the queue
refuses to grow without bound instead of absorbing a burst it cannot
serve.

**Scheduling** is priority-first with fair-share draining: the next job
claimed is from the highest priority band with *eligible* queued work
(backoff makes a requeued job temporarily ineligible); within the band,
tenants with fewer running jobs win, ties going to the tenant served
least recently, and each tenant's own jobs drain FIFO. A greedy tenant
can saturate its quota, never the queue.

**Persistence**: every accepted job is written as JSON into the shared
:class:`repro.store.ShardedStore` under the ``jobs`` namespace on each
state transition, so queued work survives a server restart. A record's
spec is its ``POST /jobs`` body and is read back through
:func:`~repro.serve.protocol.parse_job_spec`, so a stored spec is
validated like a submitted one; nothing read from the store is
unpickled.
:meth:`JobQueue.recover` re-queues persisted ``queued`` *and* ``running``
jobs (a running job at recovery time was interrupted mid-flight; the
interruption consumes one lease attempt, so a crash *loop* exhausts the
same retry budget a wedged worker would) and keeps terminal jobs loadable
for event replay until :meth:`JobQueue.gc_terminal` ages them out.
"""

from __future__ import annotations

import json
import random
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.serve.protocol import (
    JobSpec,
    QueueOverloaded,
    QuotaExceeded,
    UnknownJob,
    job_event,
    parse_job_spec,
)
from repro.store import ShardedStore
from repro.util.counters import Counters

#: The store namespace persisted jobs live in (alongside eval/structure).
JOBS_NAMESPACE = "jobs"

#: Typed error code a job fails with when its retry budget is spent.
LEASE_EXPIRED = "lease-expired"

# Job states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
CANCELLED = "cancelled"
FAILED = "failed"
TERMINAL = frozenset({COMPLETED, CANCELLED, FAILED})

#: Lease-requeue backoff: base * 2^(attempt-1), jittered ±50%, capped.
BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 10.0


@dataclass
class Job:
    """One tracked job: its spec, its state, and its event log.

    ``cancel`` is the cooperative cancellation handle shared with the
    executor; ``events`` is the NDJSON log streamers replay (appended only
    from the server's event loop, so streamers read it without locking).
    ``owner`` identifies the current claim *incarnation* — a fresh token
    per claim, so results from a revoked lease are recognisably stale.
    """

    id: str
    spec: JobSpec
    state: str = QUEUED
    error: Optional[str] = None
    error_code: Optional[str] = None
    cancel_requested: bool = False
    submitted_at: float = 0.0
    #: Current lease: claim token + deadline on the queue's clock.
    owner: Optional[str] = None
    lease_expires_at: float = 0.0
    #: How many claims this job has consumed (lease losses + crash
    #: recoveries count; a clean first claim is attempt 0).
    attempts: int = 0
    #: Backoff gate: claim_next skips the job until the clock passes this.
    next_eligible_at: float = 0.0
    #: Wall-clock terminal timestamp, for TTL garbage collection.
    finished_at: Optional[float] = None
    events: list = field(default_factory=list)
    cancel: threading.Event = field(default_factory=threading.Event,
                                    repr=False, compare=False)

    def to_json(self) -> dict:
        """The ``GET /jobs/<id>`` body."""
        return {"job": self.id, "state": self.state,
                "cancel_requested": self.cancel_requested,
                "error": self.error, "error_code": self.error_code,
                "attempts": self.attempts,
                "spec": self.spec.to_json(),
                "events": len(self.events)}


class JobQueue:
    """Thread-safe job registry + scheduler + persistence + accounting."""

    def __init__(self, store: Optional[ShardedStore] = None, *,
                 max_active_per_tenant: int = 8,
                 lease_s: float = 15.0,
                 max_lease_attempts: int = 3,
                 max_queued: Optional[int] = None,
                 max_backlog_per_tenant: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic,
                 counters: Optional[Counters] = None) -> None:
        self.store = store
        self.max_active_per_tenant = max_active_per_tenant
        self.lease_s = lease_s
        self.max_lease_attempts = max_lease_attempts
        self.max_queued = max_queued
        self.max_backlog_per_tenant = max_backlog_per_tenant
        #: Injectable monotonic clock — tests drive lease expiry without
        #: sleeping. Persisted timestamps use wall time instead, so GC
        #: works across restarts.
        self.clock = clock
        #: The ``serve.*`` counters, the conservation terms among them:
        #: this queue's alone, so a bag passed in serves one queue.
        self.counters = counters if counters is not None else Counters()
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        #: FIFO order within a tenant: monotonically increasing per submit.
        self._order: dict[str, int] = {}
        self._seq = 0
        #: Fair-share recency: tenant -> seq of its last claimed job.
        self._served: dict[str, int] = {}
        #: Recent terminal-transition times (clock), for drain-rate
        #: estimation behind Retry-After.
        self._finish_times: deque = deque(maxlen=32)
        self._rng = random.Random()

    # -- submission ------------------------------------------------------

    def submit(self, payload: object) -> Job:
        """Validate and enqueue one job; returns the queued :class:`Job`.

        Raises a typed error instead of enqueueing when the spec is
        invalid (:class:`SpecError` — not counted as a submission), the
        tenant is at its active quota (:class:`QuotaExceeded`, 429), or
        the queue/tenant backlog is at capacity
        (:class:`QueueOverloaded`, 503 with a drain-rate ``Retry-After``).
        Quota and overload rejections count ``submitted`` *and*
        ``rejected``, preserving conservation.
        """
        spec = payload if isinstance(payload, JobSpec) \
            else parse_job_spec(payload)
        with self._lock:
            self.counters.add("serve.submitted")
            shed = self._overload_reason(spec.tenant)
            if shed is not None:
                self.counters.add("serve.rejected")
                self.counters.add("serve.shed")
                retry_s = self._retry_after_locked()
                self._check_conservation()
                raise QueueOverloaded(shed, retry_after_s=retry_s)
            active = self._tenant_active(spec.tenant)
            if active >= self.max_active_per_tenant:
                self.counters.add("serve.rejected")
                self._check_conservation()
                raise QuotaExceeded(
                    f"tenant {spec.tenant!r} has {active} active job(s), "
                    f"at its quota of {self.max_active_per_tenant}")
            job = Job(id=uuid.uuid4().hex, spec=spec,
                      submitted_at=self.clock())
            self._seq += 1
            self._order[job.id] = self._seq
            self._jobs[job.id] = job
            job.events.append(job_event("queued", job.id, QUEUED,
                                        spec=spec.to_json()))
            self._persist(job)
            self._check_conservation()
            return job

    def _overload_reason(self, tenant: str) -> Optional[str]:
        """Why this submission must shed, or None to accept (lock held)."""
        queued = sum(1 for j in self._jobs.values() if j.state == QUEUED)
        if self.max_queued is not None and queued >= self.max_queued:
            return (f"queue is at capacity ({queued} queued, "
                    f"cap {self.max_queued}); retry later")
        if self.max_backlog_per_tenant is not None:
            backlog = sum(1 for j in self._jobs.values()
                          if j.state == QUEUED and j.spec.tenant == tenant)
            if backlog >= self.max_backlog_per_tenant:
                return (f"tenant {tenant!r} backlog is at capacity "
                        f"({backlog} queued, cap "
                        f"{self.max_backlog_per_tenant}); retry later")
        return None

    def _retry_after_locked(self) -> int:
        """Seconds until the queue has likely drained one slot.

        Estimated from the recent terminal-transition rate: with ``n``
        finishes spanning ``dt`` seconds, one more job drains in about
        ``dt/(n-1)`` seconds per queued slot ahead. Clamped to [1, 60];
        5 s when there is no drain history yet.
        """
        if len(self._finish_times) < 2:
            return 5
        span = self._finish_times[-1] - self._finish_times[0]
        if span <= 0:
            return 1
        per_job = span / (len(self._finish_times) - 1)
        depth = sum(1 for j in self._jobs.values() if j.state == QUEUED)
        estimate = per_job * max(depth, 1)
        return max(1, min(60, int(estimate + 0.999)))

    def retry_after_s(self) -> int:
        """Public drain-rate estimate (for ``/healthz`` and tests)."""
        with self._lock:
            return self._retry_after_locked()

    # -- scheduling ------------------------------------------------------

    def claim_next(self, worker: str = "worker") -> Optional[Job]:
        """Move the next job to ``running`` under a fresh lease.

        Returns None when idle (including when every queued job is inside
        its requeue backoff window). Priority band first; within the band
        the tenant with the fewest running jobs wins, ties broken by
        least-recently-served, then the tenant's own jobs drain FIFO.

        The claimed job carries a new ``owner`` token — pass it back to
        :meth:`heartbeat` and :meth:`finish` so a lease revocation makes
        this claim's results recognisably stale.
        """
        with self._lock:
            now = self.clock()
            queued = [j for j in self._jobs.values()
                      if j.state == QUEUED and j.next_eligible_at <= now]
            if not queued:
                return None
            top = max(j.spec.priority for j in queued)
            band = [j for j in queued if j.spec.priority == top]
            running = self._running_by_tenant()
            job = min(band, key=lambda j: (
                running.get(j.spec.tenant, 0),
                self._served.get(j.spec.tenant, -1),
                self._order[j.id]))
            job.state = RUNNING
            job.owner = f"{worker}:{uuid.uuid4().hex[:12]}"
            job.lease_expires_at = now + self.lease_s
            self._served[job.spec.tenant] = self._seq
            wait_s = max(now - job.submitted_at, 0.0)
            self.counters.add("serve.started")
            self.counters.add("serve.queue_wait_s", wait_s)
            job.events.append(job_event("started", job.id, RUNNING,
                                        queue_wait_s=round(wait_s, 6),
                                        attempt=job.attempts))
            self._persist(job)
            self._check_conservation()
            return job

    # -- leases ----------------------------------------------------------

    def heartbeat(self, job_id: str, owner: Optional[str]) -> bool:
        """Renew a running job's lease; False if the lease is not ours.

        Thread-safe and event-loop-free: the executor's worker thread
        calls this directly while it computes. A False return tells the
        worker its lease was revoked (expired and requeued, or the job
        was re-claimed) — it should stop; anything it produces now will
        be discarded as a zombie result.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != RUNNING or job.owner != owner:
                return False
            job.lease_expires_at = self.clock() + self.lease_s
            self.counters.add("serve.lease_renewals")
            return True

    def expire_leases(self) -> list[Job]:
        """Requeue (or retire) every running job whose lease lapsed.

        Called periodically by the server's watchdog. For each expired
        lease: a job whose cancel was already requested retires
        ``cancelled`` (the worker that would have acknowledged is gone);
        a job past the retry budget fails with a typed ``lease-expired``
        error; otherwise the job re-enters the queue with exponential,
        jittered backoff. The stale incarnation's cancel event is set (a
        merely-wedged worker sees it and aborts) and replaced with a
        fresh one for the next claim. Returns the affected jobs so the
        caller can publish their new events.
        """
        affected: list[Job] = []
        with self._lock:
            now = self.clock()
            for job in self._jobs.values():
                if job.state != RUNNING or job.lease_expires_at > now:
                    continue
                self.counters.add("serve.lease_expired")
                # Stop the (possibly still breathing) stale incarnation.
                stale = job.cancel
                stale.set()
                job.owner = None
                if job.cancel_requested:
                    self._retire_locked(job, CANCELLED)
                    job.events.append(job_event("done", job.id, CANCELLED,
                                                reason=LEASE_EXPIRED))
                elif job.attempts >= self.max_lease_attempts:
                    self.counters.add("serve.lease_failed")
                    self._retire_locked(
                        job, FAILED,
                        error=(f"lease expired {job.attempts + 1} times; "
                               f"retry budget "
                               f"({self.max_lease_attempts}) spent"),
                        error_code=LEASE_EXPIRED)
                    event = job_event("done", job.id, FAILED,
                                      error=job.error,
                                      error_code=LEASE_EXPIRED)
                    job.events.append(event)
                else:
                    job.attempts += 1
                    backoff = min(BACKOFF_CAP_S,
                                  BACKOFF_BASE_S * 2 ** (job.attempts - 1))
                    backoff *= self._rng.uniform(0.5, 1.5)
                    job.state = QUEUED
                    job.next_eligible_at = now + backoff
                    job.cancel = threading.Event()
                    self.counters.add("serve.lease_requeued")
                    job.events.append(job_event(
                        "requeued", job.id, QUEUED, reason=LEASE_EXPIRED,
                        attempt=job.attempts, backoff_s=round(backoff, 3)))
                self._persist(job)
                self._check_conservation()
                affected.append(job)
        return affected

    # -- cancellation ----------------------------------------------------

    def request_cancel(self, job_id: str) -> Job:
        """Cancel a job cooperatively; returns its (possibly new) state.

        Queued jobs cancel immediately; running jobs get their cancel
        event set and transition when the executor acknowledges via
        :meth:`finish` — or when the lease expires, if the executor died.
        Cancelling a terminal job is a no-op (idempotent DELETE). Unknown
        ids raise :class:`UnknownJob`.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJob(f"no job {job_id!r}")
            if job.state == QUEUED:
                job.cancel_requested = True
                job.cancel.set()
                self._retire_locked(job, CANCELLED)
                job.events.append(job_event("done", job.id, CANCELLED))
                self._persist(job)
            elif job.state == RUNNING:
                job.cancel_requested = True
                job.cancel.set()
                self._persist(job)
            self._check_conservation()
            return job

    # -- completion ------------------------------------------------------

    def finish(self, job_id: str, state: str, error: Optional[str] = None,
               *, owner: Optional[str] = None,
               error_code: Optional[str] = None) -> Optional[Job]:
        """Retire a running job to a terminal state (executor callback).

        With ``owner`` given, the call only lands if that claim still
        holds the lease; a stale token (the job was requeued or already
        retired by the watchdog) is discarded and counted
        ``serve.lease_zombie`` — the crash-recovery path has taken over
        and this result must not double-count. Returns the job, or None
        for a discarded zombie completion.
        """
        assert state in TERMINAL, state
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != RUNNING or \
                    (owner is not None and job.owner != owner):
                self.counters.add("serve.lease_zombie")
                return None
            job.owner = None
            self._retire_locked(job, state, error=error,
                                error_code=error_code)
            event = job_event("done", job.id, state)
            if error is not None:
                event["error"] = error
            if error_code is not None:
                event["error_code"] = error_code
            job.events.append(event)
            self._persist(job)
            self._check_conservation()
            return job

    def _retire_locked(self, job: Job, state: str,
                       error: Optional[str] = None,
                       error_code: Optional[str] = None) -> None:
        """Common terminal bookkeeping (lock held, event appended by
        caller so each path can shape its own fields)."""
        job.state = state
        job.error = error
        job.error_code = error_code
        job.finished_at = time.time()
        self.counters.add(f"serve.{state}")
        self._finish_times.append(self.clock())

    # -- lookup / accounting ---------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(f"no job {job_id!r}")
        return job

    def _tenant_active(self, tenant: str) -> int:
        return sum(1 for j in self._jobs.values()
                   if j.spec.tenant == tenant
                   and j.state in (QUEUED, RUNNING))

    def _running_by_tenant(self) -> dict[str, int]:
        running: dict[str, int] = {}
        for job in self._jobs.values():
            if job.state == RUNNING:
                tenant = job.spec.tenant
                running[tenant] = running.get(tenant, 0) + 1
        return running

    def counts(self) -> dict[str, int]:
        """Every conservation term, as one snapshot under the lock."""
        with self._lock:
            return self._counts_locked()

    def _counts_locked(self) -> dict[str, int]:
        by_state = {QUEUED: 0, RUNNING: 0}
        for job in self._jobs.values():
            if job.state in by_state:
                by_state[job.state] += 1
        get = self.counters.get
        return {"submitted": int(get("serve.submitted")),
                "queued": by_state[QUEUED], "running": by_state[RUNNING],
                "completed": int(get("serve.completed")),
                "cancelled": int(get("serve.cancelled")),
                "failed": int(get("serve.failed")),
                "rejected": int(get("serve.rejected")),
                "replayed": int(get("serve.replayed"))}

    def tenant_usage(self) -> dict[str, dict[str, int]]:
        """Live per-tenant queue usage for ``/healthz``."""
        with self._lock:
            usage: dict[str, dict[str, int]] = {}
            for job in self._jobs.values():
                if job.state not in (QUEUED, RUNNING):
                    continue
                entry = usage.setdefault(job.spec.tenant,
                                         {"queued": 0, "running": 0})
                entry[job.state] += 1
            for entry in usage.values():
                entry["active"] = entry["queued"] + entry["running"]
            return usage

    def conservation_ok(self) -> bool:
        """``submitted == queued+running+completed+cancelled+failed+rejected``."""
        counts = self.counts()
        return counts["submitted"] == (
            counts["queued"] + counts["running"] + counts["completed"]
            + counts["cancelled"] + counts["failed"] + counts["rejected"])

    def _check_conservation(self) -> None:
        counts = self._counts_locked()
        settled = (counts["queued"] + counts["running"]
                   + counts["completed"] + counts["cancelled"]
                   + counts["failed"] + counts["rejected"])
        assert counts["submitted"] == settled, counts

    # -- persistence -----------------------------------------------------

    def _persist(self, job: Job) -> None:
        if self.store is None:
            return
        record = {"id": job.id, "spec": job.spec.to_json(),
                  "state": job.state, "error": job.error,
                  "error_code": job.error_code, "attempts": job.attempts,
                  "finished_at": job.finished_at,
                  "events": list(job.events)}
        self.store.write(JOBS_NAMESPACE, job.id,
                         json.dumps(record).encode())

    def recover(self) -> int:
        """Replay the persisted ``jobs`` namespace after a restart.

        Queued and running records re-enter the queue; terminal records
        stay loadable so clients can still stream their event logs. A
        record persisted as ``running`` was interrupted mid-flight — the
        interruption consumes one lease attempt, so a server that crash-
        loops on the same job eventually retires it ``failed`` with the
        same typed ``lease-expired`` error a wedged worker earns, instead
        of recomputing it forever. Corrupt records are discarded through
        the store's never-raise path. Returns how many jobs re-entered
        the live queue (including ones retired on arrival).
        """
        if self.store is None:
            return 0
        requeued = 0
        for key, payload in self.store.items(JOBS_NAMESPACE):
            try:
                job = _load_job(payload)
            except Exception as exc:
                self.store.discard_corrupt(JOBS_NAMESPACE, key, repr(exc))
                continue
            with self._lock:
                if job.id in self._jobs:
                    continue
                if job.state in TERMINAL:
                    # Loadable history; deliberately outside the live
                    # conservation accounting (it balanced last run).
                    if job.finished_at is None:
                        job.finished_at = time.time()
                    self._jobs[job.id] = job
                    continue
                interrupted = job.state == RUNNING
                if interrupted:
                    job.attempts += 1
                job.error = None
                job.error_code = None
                job.owner = None
                job.submitted_at = self.clock()
                self._seq += 1
                self._order[job.id] = self._seq
                self._jobs[job.id] = job
                self.counters.add("serve.submitted")
                self.counters.add("serve.replayed")
                if interrupted and job.attempts > self.max_lease_attempts:
                    # The crash loop spent the whole retry budget.
                    self.counters.add("serve.lease_failed")
                    self._retire_locked(
                        job, FAILED,
                        error=(f"interrupted {job.attempts} times; retry "
                               f"budget ({self.max_lease_attempts}) "
                               "spent"),
                        error_code=LEASE_EXPIRED)
                    job.events.append(job_event("done", job.id, FAILED,
                                                error=job.error,
                                                error_code=LEASE_EXPIRED))
                else:
                    job.state = QUEUED
                    job.events.append(job_event(
                        "requeued", job.id, QUEUED,
                        reason="recovered", attempt=job.attempts))
                self._persist(job)
                self._check_conservation()
            requeued += 1
        return requeued

    # -- garbage collection ----------------------------------------------

    def gc_terminal(self, ttl_s: float) -> int:
        """Drop terminal jobs older than ``ttl_s`` (memory *and* store).

        Live (queued/running) records are never touched — they are also
        exempt from the store's LRU budget sweep — so history TTL is the
        only way job records leave disk. Returns how many in-memory
        records were dropped; the on-disk sweep runs through
        :meth:`ShardedStore.sweep_aged` with live ids shielded.
        """
        cutoff = time.time() - ttl_s
        with self._lock:
            dead = [j.id for j in self._jobs.values()
                    if j.state in TERMINAL
                    and (j.finished_at or 0.0) < cutoff]
            for job_id in dead:
                del self._jobs[job_id]
                self._order.pop(job_id, None)
            if dead:
                self.counters.add("serve.gc_jobs", len(dead))
            live = {j.id for j in self._jobs.values()
                    if j.state not in TERMINAL}
        if self.store is not None:
            self.store.sweep_aged(ttl_s, namespace=JOBS_NAMESPACE,
                                  exempt=live)
        return len(dead)

    def jobs(self) -> list[Job]:
        """Every known job, newest submission first."""
        with self._lock:
            return sorted(self._jobs.values(),
                          key=lambda j: -self._order.get(j.id, 0))


def _load_job(payload: bytes) -> Job:
    """The job a persisted record holds; raises on a record that is not
    one, or whose spec would not be accepted as a submission."""
    record = json.loads(payload)
    return Job(id=record["id"], spec=parse_job_spec(record["spec"]),
               state=record["state"], error=record["error"],
               error_code=record["error_code"],
               attempts=record["attempts"],
               finished_at=record["finished_at"],
               events=record["events"])


# -- offline inspection (no server required) -----------------------------

def scan_jobs(store: ShardedStore) -> Iterator[dict]:
    """Yield a summary dict per persisted job record; an unreadable one
    reads as state ``corrupt``.

    Powers ``repro jobs list`` — reads the ``jobs`` namespace directly, so
    operators can inspect (and then prune) history while the server is
    down.
    """
    for key, payload in store.items(JOBS_NAMESPACE):
        try:
            job = _load_job(payload)
        except Exception:
            yield {"job": key, "state": "corrupt", "tenant": None,
                   "kind": None, "workloads": [], "attempts": 0,
                   "error": "unreadable record", "error_code": "corrupt",
                   "finished_at": None, "events": 0}
            continue
        yield {"job": job.id, "state": job.state, "tenant": job.spec.tenant,
               "kind": job.spec.kind, "workloads": list(job.spec.workloads),
               "attempts": job.attempts, "error": job.error,
               "error_code": job.error_code, "finished_at": job.finished_at,
               "events": len(job.events)}


def gc_jobs(store: ShardedStore, older_than_s: float) -> int:
    """Prune terminal job records older than the cutoff; returns count.

    Live (queued/running) records are shielded regardless of age — a
    server may be down for longer than the TTL and still owes its clients
    that queued work on the next start.
    """
    live = set()
    for summary in scan_jobs(store):
        if summary["state"] in (QUEUED, RUNNING):
            live.add(summary["job"])
    return store.sweep_aged(older_than_s, namespace=JOBS_NAMESPACE,
                            exempt=live)
