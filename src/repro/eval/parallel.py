"""Parallel, cached fan-out of the evaluation loop.

Every (workload, machine pair) point in a sweep is independent — the
embarrassingly parallel structure task-graph runtimes exploit — so the
suite fans ``compare()`` calls out over ``multiprocessing`` workers:

1. resolve each point against the on-disk :class:`~repro.eval.cache
   .EvalCache` (when one is given) — warm sweeps run zero simulations;
2. coalesce identical in-flight points: duplicates of a key already in
   this batch are never submitted — the leader's result fans out to them
   (the synchronous twin of :class:`repro.store.coalesce.Coalescer`,
   counted as ``cache.coalesced``);
3. with ``jobs > 1``, submit the remaining misses — one point or many —
   to the process-wide worker pool, each worker re-running the exact
   serial ``compare()`` path. The first batch that needs the pool
   creates it with ``jobs`` workers; every later batch, from any thread,
   reuses it, so no batch pays a fork and concurrent ``repro serve``
   jobs compute on separate cores instead of contending for the
   server's interpreter lock. Misses are dispatched longest-first by the
   host seconds their workload last took (points never timed go first,
   in input order), so a long point does not start last and run alone
   while the other workers idle; a reorder buffer still delivers pool
   results in input order;
4. any per-point failure — pickling, a per-point timeout, a worker
   that keeps dying under it, pool creation itself — falls back to
   recomputing that point serially in the parent, so the parallel path
   can only ever be a speedup, never a behaviour change.

Results are field-identical to the serial path by the determinism
contract: all randomness is seeded from the configuration
(:mod:`repro.util.rng`), never from process state, so a worker process
computes bit-for-bit the same :class:`Comparison` the parent would.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import stat
import threading
import time
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Sequence

from repro.arch.config import (
    MachineConfig,
    default_baseline_config,
    default_delta_config,
)
from repro.eval.cache import EvalCache, comparison_key
from repro.store.metrics import NULL_METRICS
from repro.workloads import all_workloads
from repro.workloads.base import Workload

#: One evaluation point: (workload, delta config, static config, verify).
PointSpec = tuple  # (Workload, MachineConfig, MachineConfig, bool)

#: Per-point progress callback: ``(index, result_or_None, outcome)``.
PointCallback = Callable[[int, object, str], None]


class PointTimeoutError(RuntimeError):
    """A point blew its per-point budget twice — in the pool *and* in the
    bounded serial recompute — so it is genuinely hung, not just slow."""


class _Cancelled(Exception):
    """Internal: the caller's cancel event fired while a point was pending.

    Never escapes :func:`run_points` — cancelled points are reported with
    outcome ``"cancelled"`` (result ``None``), not as an exception."""


#: How often a cancellable wait re-checks the cancel event, in seconds.
_CANCEL_POLL_S = 0.05

#: How long a future may stay pending after its pool is seen broken, in
#: seconds, before it is treated as lost with that pool.
_BROKEN_GRACE_S = 1.0


def _is_broken(executor: ProcessPoolExecutor) -> bool:
    """Whether a worker of ``executor`` died (the executor's own flag)."""
    return bool(executor._broken)


def _await_result(future, timeout: Optional[float],
                  cancel: Optional[threading.Event],
                  heartbeat: Optional[Callable[[], None]] = None,
                  executor: Optional[ProcessPoolExecutor] = None):
    """Wait on a pool future under an optional budget and cancel event.

    Returns the future's result; raises :class:`FutureTimeoutError` when
    the budget runs out first, :class:`_Cancelled` when the event fires
    first. Without a cancel event, heartbeat or executor this is exactly
    ``future.result``; with any of them, the wait polls in short slices
    so cooperative cancellation takes effect within :data:`_CANCEL_POLL_S`
    rather than after the (possibly unbounded) point finishes, and
    ``heartbeat()`` fires every slice — how a served job's lease stays
    warm while its points compute.

    ``executor`` is the pool the future was submitted to. A future still
    pending :data:`_BROKEN_GRACE_S` after that pool is seen broken raises
    :class:`BrokenProcessPool`: a broken pool fails its pending futures
    without taking the lock ``submit`` holds, so a submission racing a
    worker death can leave a future nobody will ever resolve.
    """
    if cancel is None and heartbeat is None and executor is None:
        return future.result(timeout=timeout)
    deadline = None if timeout is None else time.monotonic() + timeout
    broken_at = None
    while True:
        if heartbeat is not None:
            heartbeat()
        if cancel is not None and cancel.is_set():
            raise _Cancelled()
        slice_s = _CANCEL_POLL_S
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise FutureTimeoutError()
            slice_s = min(slice_s, remaining)
        try:
            return future.result(timeout=slice_s)
        except FutureTimeoutError:
            pass  # re-check cancel / deadline / pool, then keep waiting
        if executor is not None and _is_broken(executor):
            if broken_at is None:
                broken_at = time.monotonic()
            elif time.monotonic() - broken_at >= _BROKEN_GRACE_S:
                raise BrokenProcessPool(
                    "the pool broke and never resolved this future")


def default_jobs() -> int:
    """Worker count when the caller does not choose: every core."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a jobs request: None/0 honours ``REPRO_JOBS`` then 1.

    The environment hook lets whole-suite callers (benchmarks, report
    generation) opt into parallelism without threading a parameter through
    every experiment signature.
    """
    if jobs is not None and jobs > 0:
        return jobs
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            parsed = int(env)
        except ValueError:
            parsed = 0
        if parsed > 0:
            return parsed
    return 1


def _worker_init(parent: int) -> None:
    """Reset inherited signal plumbing in a freshly started pool worker.

    Fork-context workers inherit the parent's signal handlers *and* its
    ``signal.set_wakeup_fd`` target. Under an asyncio host (``repro
    serve``) that target is the event loop's self-pipe, so a SIGTERM
    delivered to a worker — which is exactly what broken-pool cleanup
    sends to the survivors after a sibling dies — would (a) be swallowed
    by the inherited no-op handler, leaving an orphan, and (b) be
    *forwarded into the parent's loop* through the shared pipe, making
    the server believe it was asked to shut down. Restoring defaults
    keeps worker signals inside the worker.

    A fork-context worker also inherits every socket the parent has open:
    under ``repro serve``, its listener and its clients' connections. A
    worker lives as long as the shared pool, so it would keep a
    connection open after the server closes it, and a client reading a
    job's event stream to its end would wait forever. Each inherited
    socket is therefore pointed at ``/dev/null``; the descriptor number
    stays taken, so no stale socket object can close a reused one.

    A worker also exits once ``parent`` — the pid of the process that
    created the pool, read there rather than here, where a parent killed
    right after the fork would already have been replaced by a reaper —
    is gone: a parent killed by SIGKILL never shuts its pool down, and its
    workers would otherwise block forever on a call queue whose write end
    their siblings hold.
    """
    signal.set_wakeup_fd(-1)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)
    _release_sockets()
    threading.Thread(target=_exit_when_orphaned, args=(parent,),
                     name="orphan-watch", daemon=True).start()


def _release_sockets() -> None:
    """Point every socket descriptor of this process at ``/dev/null``.

    The pool's own channels are pipes, never sockets, so they are left
    alone.
    """
    for listing in ("/proc/self/fd", "/dev/fd"):
        try:
            descriptors = [int(name) for name in os.listdir(listing)]
            break
        except (OSError, ValueError):
            continue
    else:
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in descriptors:
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:
                pass  # the listing's own descriptor, closed since
    finally:
        os.close(devnull)


#: How often a pool worker checks that its parent is still alive, in seconds.
_ORPHAN_POLL_S = 0.5


def _exit_when_orphaned(parent: int) -> None:
    """End this worker process once it is reparented away from ``parent``."""
    while os.getppid() == parent:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _new_pool(workers: int) -> ProcessPoolExecutor:
    """A started pool of ``workers`` workers reset by :func:`_worker_init`.

    Fork-context workers start on a pool's first submission, so one
    no-op is submitted here, with every object then alive frozen out of
    the collector (:func:`gc.freeze`). A worker that collected the
    parent's garbage could free a dead pool there, whose wakeup callback
    takes that pool's lock; if another thread of the parent held that
    lock at the fork, the worker would wait on it forever.
    """
    # fork (where available) shares the already-imported simulator;
    # spawn works too because workers only need the repro package.
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context,
                               initializer=_worker_init,
                               initargs=(os.getpid(),))
    with _start_lock:
        gc.freeze()
        try:
            pool.submit(int)
        finally:
            gc.unfreeze()
    return pool


#: Serializes pool start-ups, so one start-up's unfreeze cannot thaw the
#: heap while another thread's pool is forking.
_start_lock = threading.Lock()


class _SharedPool:
    """The one worker pool every :func:`run_points` batch of a process uses.

    The first batch that needs it creates it with that batch's ``jobs``
    workers; later batches, from any thread, submit to the same warm
    workers. It is replaced only when it is broken (a worker died), when
    a point outlived its timeout in it (that worker is stuck), or when a
    batch asks for a different worker count. A replaced pool is retired:
    it takes no new points, but points other batches queued there still
    finish there.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._jobs = 0
        #: Workers of retired pools that may still be finishing points.
        self._retired: list = []
        #: Broken executors whose worker death has been counted.
        self._counted = weakref.WeakSet()

    def submit(self, specs: Sequence[PointSpec], jobs: int, metrics):
        """Queue ``specs`` on the pool; returns ``(executor, futures)``.

        A pool found broken here (an idle worker died since the last
        batch) is replaced before anything is submitted. A submission the
        executor refuses as broken yields a future failed with
        :class:`BrokenProcessPool`, so that point takes the rebuild path.
        """
        with self._lock:
            current = self._executor
            if current is not None and _is_broken(current):
                self.note_break(current, metrics)
                metrics.add("pool_rebuilds")
                self._retire(current)
            elif current is not None and self._jobs != jobs:
                self._retire(current)
            if self._executor is None:
                self._executor, self._jobs = _new_pool(jobs), jobs
            executor = self._executor
            futures = []
            for spec in specs:
                try:
                    futures.append(executor.submit(_timed_point, spec))
                except BrokenProcessPool as exc:
                    failed: Future = Future()
                    failed.set_exception(exc)
                    futures.append(failed)
        return executor, futures

    def note_break(self, executor: ProcessPoolExecutor, metrics) -> None:
        """Count a broken pool's worker death once, however many batches
        saw it break."""
        with self._lock:
            if executor in self._counted:
                return
            self._counted.add(executor)
        metrics.add("worker_deaths")

    def retire(self, executor: ProcessPoolExecutor) -> None:
        """Give ``executor`` no more batches: one of its workers is stuck."""
        with self._lock:
            if self._executor is executor:
                self._retire(executor)

    def _retire(self, executor: ProcessPoolExecutor) -> None:
        self._executor = None
        self._retired = [worker for worker in self._retired
                         if worker.is_alive()]
        # The executor forgets its workers on shutdown; keep them so
        # shutdown() can still stop one stuck in a point.
        self._retired += (executor._processes or {}).values()
        executor.shutdown(wait=False)

    def shutdown(self) -> None:
        """Stop every worker now, busy or idle, retired pools' included.

        Queued points are cancelled and running ones killed, so a point
        stuck in a worker cannot hold up the caller or its exit. The next
        batch creates a fresh pool.
        """
        with self._lock:
            executor, self._executor = self._executor, None
            workers, self._retired = self._retired, []
            if executor is not None:
                workers += (executor._processes or {}).values()
                executor.shutdown(wait=False, cancel_futures=True)
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.join(timeout=5)


_shared_pool = _SharedPool()


def shutdown_pool() -> None:
    """Stop the process-wide worker pool without waiting on a busy worker.

    ``repro serve`` calls this when it stops, once its job threads are
    gone. A later batch with ``jobs > 1`` starts a fresh pool.
    """
    _shared_pool.shutdown()


def _compare_point(spec: PointSpec):
    """Worker entry: run one point through the ordinary serial path."""
    from repro.eval.runner import compare

    workload, delta_config, static_config, verify = spec
    return compare(workload, delta_config, static_config, verify=verify)


#: Host seconds the last computed point of each workload took, keyed by
#: :func:`_cost_key`: the work estimate the pool dispatches by. One table
#: per process, like the mapper's cache; every computed point refreshes it.
_point_costs: dict[tuple[str, str], float] = {}


def _cost_key(spec: PointSpec) -> tuple[str, str]:
    """A point's cost identity: its workload's class and name. The points
    of one batch share their configurations, so only their relative cost
    matters, not the seed or the config."""
    workload = spec[0]
    return type(workload).__qualname__, workload.name


def _timed_point(spec: PointSpec):
    """Run one point; returns ``(result, host seconds it took)``.

    Goes through the module global :func:`_compare_point`, so a patched
    point function is honoured here and in fork-started workers alike.
    """
    start = time.perf_counter()
    result = _compare_point(spec)
    return result, time.perf_counter() - start


def dispatch_order(points: Sequence[PointSpec]) -> list[int]:
    """Indices of ``points`` in the order the pool submits them.

    Points never timed come first, in input order, so a fresh process
    dispatches exactly as given; then points by descending last measured
    cost, ties in input order.
    """
    def rank(index: int) -> tuple[bool, float]:
        cost = _point_costs.get(_cost_key(points[index]))
        return (cost is not None, -(cost or 0.0))

    return sorted(range(len(points)), key=rank)


def _recover_point(spec: PointSpec, timeout: Optional[float],
                   cancel: Optional[threading.Event] = None):
    """Recompute one point serially, under the same per-point budget.

    Without a budget this is a plain in-process recompute. With one, the
    recompute runs in a single-worker pool bounded by the same ``timeout``
    the parallel pass used — a point that hangs must not hang the whole
    suite on the fallback path. A second timeout raises
    :class:`PointTimeoutError`; any non-timeout failure of the pool
    machinery falls through to the unbounded in-process path so genuine
    simulation errors surface exactly as the serial path raises them.

    ``cancel`` makes the bounded wait cooperative: a cancel event that
    fires while the recompute is still pending raises :class:`_Cancelled`
    (the point reports outcome ``"cancelled"``) instead of letting a
    timeout — or the pool teardown racing the dying worker — escape as an
    error the caller never asked for.
    """
    if cancel is not None and cancel.is_set():
        raise _Cancelled()
    if timeout is None:
        return _compare_point(spec)
    pool = None
    try:
        pool = _new_pool(1)
        future = pool.submit(_compare_point, spec)
        return _await_result(future, timeout, cancel)
    except _Cancelled:
        raise
    except FutureTimeoutError:
        workload = spec[0]
        raise PointTimeoutError(
            f"evaluation point {workload.name!r} exceeded its {timeout:g}s "
            f"budget in the worker pool and again in the serial recompute"
        ) from None
    except Exception:
        if cancel is not None and cancel.is_set():
            # The teardown of a cancelled pool can surface as a broken
            # future; cancellation wins over any such secondary error.
            raise _Cancelled() from None
        return _compare_point(spec)
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


def run_points(points: Sequence[PointSpec],
               jobs: int,
               timeout: Optional[float] = None,
               outcomes: Optional[list] = None,
               cancel: Optional[threading.Event] = None,
               on_point: Optional[PointCallback] = None,
               heartbeat: Optional[Callable[[], None]] = None,
               metrics=NULL_METRICS) -> list:
    """Evaluate points, fanning out over ``jobs`` worker processes.

    With ``jobs <= 1`` every point runs in the calling thread. Otherwise
    every point goes to the process-wide pool of ``jobs`` workers, which
    this call creates only if no batch has yet, and leaves running for
    the next batch; concurrent calls share it. The pool runs points in
    :func:`dispatch_order`, longest first by the host seconds each
    workload's last computed point took (the serial path and the pool
    time every point they compute); the order changes only when points
    finish, never what they compute.

    ``timeout`` bounds each point's wall-clock seconds in the pool; a
    point that exceeds it (or fails to pickle) is recomputed serially in
    the parent — still under the same budget when the failure was a
    timeout (see :func:`_recover_point`). A timeout also retires the
    pool, whose worker is stuck: later batches get a fresh one. Genuine
    simulation errors — a workload failing functional verification, an
    invalid configuration — therefore surface exactly as the serial path
    would raise them.

    **Worker death is survivable.** A ``kill -9`` of a pool child breaks
    the whole ``ProcessPoolExecutor`` (every unfinished future poisons
    with ``BrokenProcessPool``); instead of falling back to serial for
    the rest of the batch, the batch resubmits only its poisoned points
    to a replaced pool, once. A point that completes there reports
    outcome ``"retried"``; a point poisoned again is recomputed serially
    with outcome ``"lost-worker"`` — one murdered child degrades to one
    retried point, never a failed sweep.
    ``metrics`` (an object with ``add``) counts ``worker_deaths`` and
    ``pool_rebuilds`` once per broken pool, however many batches saw it
    break, and this batch's ``retried_points`` and
    ``lost_worker_points``.

    ``cancel`` is a cooperative stop: once the event fires, every point
    not yet delivered — including one mid-recompute after a timeout, or
    one computed but waiting on an earlier index — resolves to result
    ``None`` with outcome ``"cancelled"``; nothing is raised.
    ``heartbeat()`` fires once per poll slice while any point is awaited
    — the lease-renewal seam for ``repro serve``.
    ``on_point(index, result, outcome)`` fires as each point resolves
    (the streaming seam ``repro serve`` feeds from): pool points in index
    order, then the points that left the pool (cancelled, lost-worker,
    recovered), each group in index order. A callback exception
    propagates and aborts the batch.

    ``outcomes``, when given, is filled in place with one entry per
    point: ``"ok"``, ``"retried"``, ``"lost-worker"``, ``"recovered"``
    (serial fallback after a non-timeout failure),
    ``"recovered-after-timeout"``, or ``"cancelled"``.
    """
    points = list(points)
    results: list = [None] * len(points)
    if outcomes is not None:
        outcomes[:] = ["ok"] * len(points)

    def settle(index: int, result, outcome: str) -> None:
        results[index] = result
        if outcomes is not None:
            outcomes[index] = outcome
        if on_point is not None:
            on_point(index, result, outcome)

    if jobs <= 1:
        for index, spec in enumerate(points):
            if heartbeat is not None:
                heartbeat()
            if cancel is not None and cancel.is_set():
                settle(index, None, "cancelled")
            else:
                result, seconds = _timed_point(spec)
                _point_costs[_cost_key(spec)] = seconds
                settle(index, result, "ok")
        return results

    # Points that leave the pool; they settle after it, in index order.
    redo: set[int] = set()        # non-pool failures and timeouts
    lost: set[int] = set()        # poisoned twice
    timed_out: set[int] = set()
    cancelled: set[int] = set()
    # The reorder buffer: a pool result waits in ``held`` until every
    # earlier index has settled or left the pool, so callers see pool
    # points in input order whatever order they were dispatched in.
    held: dict[int, tuple] = {}
    cursor = 0

    def release() -> None:
        nonlocal cursor
        while cursor < len(points):
            if cursor in held:
                if cancel is not None and cancel.is_set():
                    return  # computed but unreleased: cancelled below
                settle(cursor, *held.pop(cursor))
            elif not (cursor in redo or cursor in lost
                      or cursor in cancelled):
                return  # still in the pool
            cursor += 1

    pending = dispatch_order(points)
    resubmitted = False
    while pending:
        try:
            executor, futures = _shared_pool.submit(
                [points[index] for index in pending], jobs, metrics)
        except Exception:
            # Pool creation / submission failed: every point of this
            # round falls back to serial.
            redo.update(pending)
            break
        broken_inflight: list[int] = []
        pool_broken = False
        try:
            # Awaited in dispatch order: awaiting in input order would
            # start a cheap, late-dispatched point's timeout clock while it
            # still waits behind the long ones.
            for index, future in zip(pending, futures):
                if cancel is not None and cancel.is_set():
                    future.cancel()
                    cancelled.add(index)
                elif pool_broken:
                    # Poisoned by the same break; classified below.
                    broken_inflight.append(index)
                else:
                    try:
                        result, seconds = _await_result(
                            future, timeout, cancel, heartbeat, executor)
                    except _Cancelled:
                        future.cancel()
                        cancelled.add(index)
                    except FutureTimeoutError:
                        future.cancel()
                        _shared_pool.retire(executor)
                        timed_out.add(index)
                        redo.add(index)
                    except BrokenProcessPool:
                        # A worker died: every later future is poisoned.
                        pool_broken = True
                        _shared_pool.note_break(executor, metrics)
                        broken_inflight.append(index)
                    except Exception:
                        # Any other per-point error is retried serially,
                        # so the serial path is the one that reports it.
                        redo.add(index)
                    else:
                        _point_costs[_cost_key(points[index])] = seconds
                        outcome = "ok"
                        if resubmitted:
                            metrics.add("retried_points")
                            outcome = "retried"
                        held[index] = (result, outcome)
                release()
        finally:
            # Only this batch's own queued points are withdrawn: the pool
            # and other batches' points are not ours to stop.
            for future in futures:
                future.cancel()
        pending = []
        if broken_inflight:
            if resubmitted:
                # Poisoned in the replaced pool too: recompute serially.
                lost.update(broken_inflight)
            else:
                resubmitted = True
                pending = broken_inflight
            release()

    release()
    # Only a cancel fired ahead of them can still hold results: computed
    # but never delivered, they settle as cancelled, as unresolved points do.
    cancelled.update(held)
    for index in sorted(cancelled):
        settle(index, None, "cancelled")
    for index in sorted(lost):
        if heartbeat is not None:
            heartbeat()
        try:
            result = _recover_point(points[index], None, cancel)
        except _Cancelled:
            settle(index, None, "cancelled")
            continue
        metrics.add("lost_worker_points")
        settle(index, result, "lost-worker")
    for index in sorted(redo):
        if heartbeat is not None:
            heartbeat()
        bounded = index in timed_out
        try:
            result = _recover_point(points[index],
                                    timeout if bounded else None, cancel)
        except _Cancelled:
            settle(index, None, "cancelled")
            continue
        settle(index, result,
               "recovered-after-timeout" if bounded else "recovered")
    return results


def run_suite_parallel(lanes: int = 8,
                       workloads: Optional[Sequence[Workload]] = None,
                       jobs: Optional[int] = None,
                       verify: bool = True,
                       timeout: Optional[float] = None,
                       cache: Optional[EvalCache] = None,
                       delta_config: Optional[MachineConfig] = None,
                       sanitize: bool = False,
                       faults=None,
                       outcomes: Optional[list] = None,
                       cancel: Optional[threading.Event] = None,
                       on_result: Optional[PointCallback] = None,
                       heartbeat: Optional[Callable[[], None]] = None,
                       metrics=NULL_METRICS) -> list:
    """Parallel, cached equivalent of :func:`repro.eval.runner.run_suite`.

    Returns one :class:`Comparison` per workload, in input order,
    field-identical to the serial path. With a warm ``cache`` every point
    is served from disk and no simulation runs at all. Identical in-flight
    points (same workload identity, configs, and verify flag) are
    coalesced: the key's first occurrence computes, duplicates share its
    result — bit-identical by the determinism contract, and exactly one
    computation per distinct key reaches the pool. ``sanitize`` (or a
    ``delta_config`` with ``sanitize`` set) runs both machines of every
    point under the model sanitizer; ``faults`` injects a
    :class:`~repro.sim.faults.FaultPlan` into both machines of every point.
    ``outcomes``, when given, is filled with one per-workload entry:
    ``"cached"``, ``"coalesced"`` (shared a duplicate's computation),
    ``"cancelled"`` (see below), or the :func:`run_points` outcome
    (``"ok"`` / ``"retried"`` / ``"lost-worker"`` / ``"recovered"`` /
    ``"recovered-after-timeout"``). ``heartbeat`` and ``metrics`` are
    passed through to :func:`run_points` (lease renewal and pool-health
    counters for ``repro serve``).

    ``cancel`` stops the sweep cooperatively: every point not yet resolved
    when the event fires returns ``None`` with outcome ``"cancelled"``
    (never raised, never cached). ``on_result(index, comparison, outcome)``
    fires as each point resolves — immediately for cache hits, as the
    leader lands for in-batch duplicates — which is how ``repro serve``
    streams incremental per-point results.
    """
    workloads = list(workloads) if workloads is not None else all_workloads()
    delta_config = delta_config or default_delta_config(lanes=lanes)
    if sanitize and not delta_config.sanitize:
        delta_config = delta_config.with_sanitize(True)
    if faults is not None and delta_config.faults is None:
        delta_config = delta_config.with_faults(faults)
    static_config = default_baseline_config(lanes=delta_config.lanes,
                                            seed=delta_config.seed)
    if delta_config.sanitize:
        static_config = static_config.with_sanitize(True)
    if delta_config.faults is not None:
        static_config = static_config.with_faults(delta_config.faults)

    results: list = [None] * len(workloads)
    if outcomes is not None:
        outcomes[:] = ["cached"] * len(workloads)

    def settle(index: int, comparison, outcome: str) -> None:
        results[index] = comparison
        if outcomes is not None:
            outcomes[index] = outcome
        if on_result is not None:
            on_result(index, comparison, outcome)

    pending: list[tuple[int, str, PointSpec]] = []
    # The keyed in-flight map: key -> indices that share the leader's
    # result instead of being submitted themselves.
    followers: dict[str, list[int]] = {}
    for index, workload in enumerate(workloads):
        spec: PointSpec = (workload, delta_config, static_config, verify)
        key = comparison_key(workload, delta_config, static_config, verify)
        if key in followers:
            # The key is already in flight in this batch; a cache lookup
            # cannot hit (its leader just missed), so join the leader.
            followers[key].append(index)
            if cache is not None:
                cache.store.metrics.add("coalesced")
            continue
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                settle(index, hit, "cached")
                continue
        followers[key] = []
        pending.append((index, key, spec))

    def on_point(pending_index: int, comparison, outcome: str) -> None:
        # Map the batch index back to the suite index, fan the leader's
        # result out to its in-batch duplicates, and publish to the cache
        # — all as the point lands, so callers stream incrementally.
        index, key, _spec = pending[pending_index]
        settle(index, comparison, outcome)
        for duplicate in followers[key]:
            settle(duplicate, comparison,
                   "cancelled" if outcome == "cancelled" else "coalesced")
        if cache is not None and comparison is not None:
            cache.put(key, comparison)

    run_points([spec for _i, _k, spec in pending],
               jobs=resolve_jobs(jobs), timeout=timeout,
               cancel=cancel, on_point=on_point,
               heartbeat=heartbeat, metrics=metrics)
    return results
