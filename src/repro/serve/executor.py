"""Runs one job's sweep through the evaluation harness, streaming points.

The executor is the bridge between the server's job model and the
harness stack: each job is one
:func:`repro.eval.parallel.run_suite_parallel` call — the same
multiprocessing fan-out, per-point timeouts, and on-disk
:class:`~repro.eval.cache.EvalCache` the CLI uses — with the job's
cooperative cancel event, a heartbeat that renews the job's lease once
per poll slice, and a progress callback that emits one NDJSON ``point``
event as each point lands.

Concurrent jobs share in-flight points through the harness's one
in-flight table, keyed like the cache: a point another job is already
computing is not computed again — this job's request waits on that
computation and streams it with outcome ``"coalesced"``. Cancellation is
per request, so one tenant's DELETE never cancels another tenant's job,
even an identical one.

The executor runs in worker threads (the server's event loop stays free
for sockets); ``emit`` callbacks must therefore be thread-safe — the
server passes a ``loop.call_soon_threadsafe`` trampoline.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.arch.config import default_delta_config
from repro.eval.cache import EvalCache
from repro.eval.parallel import run_suite_parallel
from repro.serve.protocol import point_event
from repro.serve.queue import CANCELLED, COMPLETED, FAILED, Job
from repro.util.counters import Counters


class JobExecutor:
    """Executes jobs against the harness; shared by all worker threads."""

    def __init__(self, cache: Optional[EvalCache] = None, *,
                 jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 heartbeat: Optional[Callable[[str, Optional[str]],
                                              bool]] = None,
                 counters: Optional[Counters] = None) -> None:
        self.cache = cache
        self.jobs = jobs
        self.timeout = timeout
        #: Lease hook, wired to the server's queue (None standalone):
        #: ``heartbeat(job_id, owner)`` renews our claim while we work.
        self.heartbeat = heartbeat
        #: Counts streamed points (``serve.points``) and, through the
        #: harness, worker-pool health (``eval.*``).
        self.counters = counters if counters is not None else Counters()

    def run_job(self, job: Job,
                emit: Callable[[dict], None]) -> tuple[str, Optional[str]]:
        """Run one claimed job to a terminal state; returns (state, error).

        Never raises: simulation failures become ``("failed", message)``
        so the server's scheduler loop cannot be killed by a bad spec or
        a workload that fails verification.
        """
        from repro.workloads import get_workload

        # Pin this claim incarnation. A lease revocation swaps the Job's
        # cancel event for a fresh one; we must keep acting on *ours* so
        # the new incarnation is undisturbed by its zombie predecessor.
        cancel = job.cancel
        owner = job.owner
        spec = job.spec

        def on_result(index: int, comparison, outcome: str) -> None:
            emit(point_event(index, comparison, outcome))
            self.counters.add("serve.points")

        def pulse() -> None:
            if self.heartbeat is not None:
                self.heartbeat(job.id, owner)

        try:
            workloads = [get_workload(name) for name in spec.workloads]
            delta_config = default_delta_config(lanes=spec.lanes,
                                                seed=spec.seed)
            run_suite_parallel(lanes=spec.lanes, workloads=workloads,
                               jobs=self.jobs, verify=spec.verify,
                               timeout=self.timeout, cache=self.cache,
                               delta_config=delta_config.with_policy(
                                   spec.policy),
                               sanitize=spec.sanitize,
                               cancel=cancel, on_result=on_result,
                               heartbeat=pulse,
                               counters=self.counters)
        except Exception as exc:  # noqa: BLE001 - the job, not us
            return FAILED, f"{type(exc).__name__}: {exc}"
        return (CANCELLED if cancel.is_set() else COMPLETED), None
