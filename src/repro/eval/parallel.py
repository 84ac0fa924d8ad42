"""Parallel, cached fan-out of the evaluation loop.

Every (workload, machine pair) point in a sweep is independent — the
embarrassingly parallel structure task-graph runtimes exploit — so the
suite fans ``compare()`` calls out over ``multiprocessing`` workers:

1. resolve each point against the on-disk :class:`~repro.eval.cache
   .EvalCache` (when one is given) — warm sweeps run zero simulations;
2. register every miss in the process-wide in-flight table, keyed like
   the cache (:func:`~repro.eval.cache.comparison_key`) and shared by
   every batch of every thread. The first request for a key starts its
   one computation; every other request — a duplicate in the same batch
   or a point of a concurrent ``repro serve`` job — waits on that same
   computation and settles ``coalesced`` (counted as ``cache.coalesced``).
   The entry owns the computation, not the batch that started it, so a
   cancelled batch stops only its own requests and jobs that overlap in
   part share their common points;
3. with ``jobs > 1``, a fresh point goes to the process-wide worker pool,
   each worker re-running the exact serial ``compare()`` path. The first
   batch that needs the pool creates it with ``jobs`` workers; every
   later batch, from any thread, reuses it, so no batch pays a fork and
   concurrent ``repro serve`` jobs compute on separate cores instead of
   contending for the server's interpreter lock. Misses are dispatched
   longest-first by the host seconds their workload last took (points
   never timed go first, in input order), so a long point does not start
   last and run alone while the other workers idle; a reorder buffer
   still delivers results in input order. With ``jobs <= 1`` a point is
   computed in the thread of the first request that reaches it;
4. any per-point failure — pickling, a per-point timeout, a worker
   that keeps dying under it, pool creation itself — falls back to
   recomputing that point in this process, once per point, by the
   first request that meets the failure; so the parallel path can only
   ever be a speedup, never a behaviour change.

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

from repro.arch.config import MachineConfig, default_delta_config
from repro.eval.cache import EvalCache, comparison_key
from repro.eval.runner import static_config_for
from repro.util.counters import Counters
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


#: How often a waiting request re-checks its cancel event, its budget and
#: its pool, and fires its heartbeat, in seconds.
_CANCEL_POLL_S = 0.05

#: How long a future may stay pending after its pool is seen broken, in
#: seconds, before it is treated as lost with that pool.
_BROKEN_GRACE_S = 1.0


def _is_broken(executor: ProcessPoolExecutor) -> bool:
    """Whether a worker of ``executor`` died (the executor's own flag)."""
    return bool(executor._broken)


def _await_result(future, timeout: Optional[float],
                  cancel: Optional[threading.Event]):
    """Wait on a future under an optional budget and cancel event.

    Returns the future's result; raises :class:`FutureTimeoutError` when
    the budget runs out first, :class:`_Cancelled` when the event fires
    first. Without a cancel event this is exactly ``future.result``; with
    one, the wait polls in short slices so cooperative cancellation takes
    effect within :data:`_CANCEL_POLL_S` rather than after the (possibly
    unbounded) point finishes.
    """
    if cancel is None:
        return future.result(timeout=timeout)
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        if cancel.is_set():
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
            pass  # re-check cancel and deadline, then keep waiting


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

    def submit(self, specs: Sequence[PointSpec], jobs: int, counters):
        """Queue ``specs`` on the pool; returns ``(executor, futures)``.

        A pool found broken here (an idle worker died since the last
        batch) is replaced before anything is submitted. A submission the
        executor refuses as broken yields a future failed with
        :class:`BrokenProcessPool`, so that point takes the rebuild path.
        """
        with self._lock:
            current = self._executor
            if current is not None and _is_broken(current):
                self.note_break(current, counters)
                counters.add("eval.pool_rebuilds")
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

    def note_break(self, executor: ProcessPoolExecutor, counters) -> None:
        """Count a broken pool's worker death once, however many batches
        saw it break."""
        with self._lock:
            if executor in self._counted:
                return
            self._counted.add(executor)
        counters.add("eval.worker_deaths")

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
    """Compute one point in this process — a serial request's point, or a
    recompute under the same per-point budget; returns ``(result, host
    seconds it took)``, as :func:`_timed_point` does.

    Without a budget this is a plain in-process computation. With one, the
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
    error the caller never asked for. A recompute abandoned this way, or
    by its timeout, has its worker terminated before this returns.
    """
    if cancel is not None and cancel.is_set():
        raise _Cancelled()
    if timeout is None:
        return _timed_point(spec)
    pool = future = None
    try:
        pool = _new_pool(1)
        future = pool.submit(_timed_point, spec)
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
        return _timed_point(spec)
    finally:
        if pool is not None:
            workers = list((pool._processes or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            if future is None or not future.done():
                for worker in workers:
                    worker.terminate()
                for worker in workers:
                    worker.join(timeout=5)


#: The work a fresh in-flight entry offers, as ``(outcome, budget)``: the
#: point itself, computed in the thread of a serial request that reaches
#: it (a pooled request submits it to the pool instead).
_FRESH = ("ok", None)

#: The pool-health counter each recovered outcome adds once per point.
_OUTCOME_COUNTERS = {"retried": "eval.retried_points",
                     "lost-worker": "eval.lost_worker_points"}


class _Entry:
    """One in-flight point: the one computation every request for its key
    shares. Its fields are guarded by the table's condition."""

    __slots__ = ("key", "spec", "holders", "todo", "future", "executor",
                 "jobs", "resubmitted", "value", "error", "reported")

    def __init__(self, key: str, spec: PointSpec) -> None:
        self.key, self.spec = key, spec
        #: Requests registered on the entry that have not released it.
        self.holders = 0
        #: ``(outcome, budget)`` of the work the next request to reach the
        #: entry runs in its own thread: :data:`_FRESH` until the point
        #: starts, a recovery after a failure; None while the pool or a
        #: request's thread has the point.
        self.todo: Optional[tuple] = _FRESH
        #: The pool's future, its executor and its worker count, while
        #: the point is in the pool.
        self.future: Optional[Future] = None
        self.executor: Optional[ProcessPoolExecutor] = None
        self.jobs = 0
        self.resubmitted = False
        #: ``(result, seconds, outcome)`` once computed, or the exception
        #: every holder raises.
        self.value: Optional[tuple] = None
        self.error: Optional[BaseException] = None
        #: Whether a request has settled the value, reporting its outcome.
        self.reported = False


class _InflightTable:
    """The points being computed in this process, keyed like the cache.

    Every :func:`run_points` batch, from any thread, serial or pooled,
    registers one request per point when it starts. The first request
    for a key starts its computation: a pooled request submits it when it
    registers, a serial request computes it when it reaches it. Every
    other request waits on that computation. An entry lives while a
    request holds it, and while a pool computation that no request holds
    any more still runs, so a later request for its key joins that
    computation instead of starting a second one.

    Failure recovery belongs to the entry: the first request to meet a
    broken pool resubmits the point once, then recomputes it here; the
    first to meet a timeout retires the pool and recomputes the point
    under the same budget. The other requests take its outcome, and an
    exception reaches every request that holds the entry.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._entries: dict[str, _Entry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def hold(self, points: Sequence[tuple[str, PointSpec]], jobs: int,
             counters) -> list[_Entry]:
        """Register one request per ``(key, spec)``, in order; with
        ``jobs > 1``, submit every point nothing has started yet."""
        with self._cond:
            held, fresh = [], []
            for key, spec in points:
                entry = self._entries.get(key)
                if entry is None:
                    entry = self._entries[key] = _Entry(key, spec)
                entry.holders += 1
                held.append(entry)
                if jobs > 1 and entry.todo is _FRESH:
                    entry.todo = None
                    fresh.append(entry)
            if fresh:
                self._submit(fresh, jobs, counters)
        return held

    def release(self, entry: _Entry) -> None:
        """Drop one request's hold; a pool computation that no request
        holds any more is cancelled if it has not started."""
        with self._cond:
            entry.holders -= 1
            if entry.holders == 0 and entry.future is not None:
                entry.future.cancel()
            self._forget(entry)

    def report(self, entry: _Entry) -> bool:
        """Whether this request settles the value first, and so reports
        the computation's outcome and publishes it."""
        with self._cond:
            first, entry.reported = not entry.reported, True
        return first

    def resolve(self, entry: _Entry, timeout: Optional[float],
                cancel: Optional[threading.Event],
                heartbeat: Optional[Callable[[], None]], counters) -> tuple:
        """This request's ``(result, seconds, outcome)`` of ``entry``.

        Waits while the pool or another request's thread computes the
        point, and does what falls to this request: computing a point
        nothing started, or the recovery from a failure it meets first.
        ``timeout`` bounds each of the point's pool attempts from when
        this request starts waiting on it. ``heartbeat()`` fires once per
        poll slice. Raises :class:`_Cancelled` once ``cancel`` fires, or
        the computation's exception.
        """
        watched = deadline = broken_at = None
        while True:
            if heartbeat is not None:
                heartbeat()
            if cancel is not None and cancel.is_set():
                raise _Cancelled()
            with self._cond:
                if entry.error is not None:
                    raise entry.error
                if entry.value is not None:
                    return entry.value
                future = entry.future
                if future is None:
                    work, entry.todo = entry.todo, None
                    if work is None:
                        # Another request's thread computes the point.
                        self._cond.wait(_CANCEL_POLL_S)
                        continue
                else:
                    if future is not watched:
                        watched, broken_at = future, None
                        deadline = (None if timeout is None
                                    else time.monotonic() + timeout)
                    now = time.monotonic()
                    if broken_at is None and _is_broken(entry.executor):
                        broken_at = now
                    if future.done():
                        work = self._collect(entry, counters)
                    elif deadline is not None and now >= deadline:
                        entry.future = None
                        _shared_pool.retire(entry.executor)
                        future.cancel()
                        work = ("recovered-after-timeout", timeout)
                    elif (broken_at is not None
                          and now - broken_at >= _BROKEN_GRACE_S):
                        # A broken pool fails its pending futures without
                        # the lock ``submit`` holds, so a submission that
                        # raced a worker death may never be resolved.
                        work = self._broke(entry, counters)
                    else:
                        self._cond.wait(_CANCEL_POLL_S)
                        continue
                    if work is None:
                        continue
            self._run_here(entry, work, cancel)

    def _submit(self, entries: list[_Entry], jobs: int, counters) -> None:
        try:
            executor, futures = _shared_pool.submit(
                [entry.spec for entry in entries], jobs, counters)
        except Exception:
            # No pool to submit to: each point is recomputed here.
            for entry in entries:
                entry.todo = ("recovered", None)
            return
        for entry, future in zip(entries, futures):
            entry.future, entry.executor, entry.jobs = future, executor, jobs
            future.add_done_callback(
                lambda _future, entry=entry: self._landed(entry))

    def _landed(self, entry: _Entry) -> None:
        """A pool future of ``entry`` finished: wake its waiters."""
        with self._cond:
            self._forget(entry)
            self._cond.notify_all()

    def _forget(self, entry: _Entry) -> None:
        if (entry.holders == 0 and self._entries.get(entry.key) is entry
                and (entry.future is None or entry.future.done())):
            del self._entries[entry.key]

    def _collect(self, entry: _Entry, counters) -> Optional[tuple]:
        """Take the finished pool future's value; returns the recovery
        this request must run when it failed."""
        try:
            result, seconds = entry.future.result()
        except BrokenProcessPool:
            return self._broke(entry, counters)
        except Exception:
            # Recomputed here, so the serial path is the one that reports
            # a genuine simulation error.
            entry.future = None
            return ("recovered", None)
        entry.future = None
        outcome = "retried" if entry.resubmitted else "ok"
        entry.value = (result, seconds, outcome)
        self._cond.notify_all()
        return None

    def _broke(self, entry: _Entry, counters) -> Optional[tuple]:
        """A worker died under the point: resubmit it to a replaced pool
        once, then recompute it here."""
        entry.future = None
        _shared_pool.note_break(entry.executor, counters)
        if entry.resubmitted:
            return ("lost-worker", None)
        entry.resubmitted = True
        self._submit([entry], entry.jobs, counters)
        work, entry.todo = entry.todo, None
        return work

    def _run_here(self, entry: _Entry, work: tuple,
                  cancel: Optional[threading.Event]) -> None:
        outcome, budget = work
        try:
            result, seconds = _recover_point(entry.spec, budget, cancel)
        except _Cancelled:
            with self._cond:
                entry.todo = work  # another holder takes the work over
                self._cond.notify_all()
            raise
        except BaseException as exc:
            with self._cond:
                entry.error = exc
                self._cond.notify_all()
            raise
        with self._cond:
            entry.value = (result, seconds, outcome)
            self._cond.notify_all()


_inflight = _InflightTable()


def inflight_points() -> int:
    """How many points the in-flight table holds right now."""
    return len(_inflight)


def run_points(points: Sequence[tuple[str, PointSpec]],
               jobs: int,
               timeout: Optional[float] = None,
               outcomes: Optional[list] = None,
               cancel: Optional[threading.Event] = None,
               on_point: Optional[PointCallback] = None,
               heartbeat: Optional[Callable[[], None]] = None,
               counters: Optional[Counters] = None) -> list:
    """Evaluate ``(key, spec)`` points, fanning out over ``jobs`` workers.

    Each point is one request on the process-wide in-flight table, under
    its :func:`~repro.eval.cache.comparison_key`: a point whose key is
    already being computed — by this batch or by any other batch of the
    process — waits on that computation instead of starting another.

    With ``jobs <= 1`` a point nothing has started is computed in the
    calling thread when the batch reaches it. Otherwise it goes to the
    process-wide pool of ``jobs`` workers, which this call creates only
    if no batch has yet, and leaves running for the next batch;
    concurrent calls share it. The pool runs points in
    :func:`dispatch_order`, longest first by the host seconds each
    workload's last computed point took; the order changes only when
    points finish, never what they compute.

    ``timeout`` bounds each point's wall-clock seconds in the pool; a
    point that exceeds it (or fails to pickle) is recomputed in this
    process — still under the same budget when the failure was a
    timeout (see :func:`_recover_point`). A timeout also retires the
    pool, whose worker is stuck: later batches get a fresh one. Genuine
    simulation errors — a workload failing functional verification, an
    invalid configuration — therefore surface exactly as the serial path
    would raise them, in every request that holds the point.

    **Worker death is survivable.** A ``kill -9`` of a pool child breaks
    the whole ``ProcessPoolExecutor`` (every unfinished future poisons
    with ``BrokenProcessPool``); each poisoned point is resubmitted to a
    replaced pool, once. A point that completes there reports outcome
    ``"retried"``; a point poisoned again is recomputed here with outcome
    ``"lost-worker"`` — one murdered child degrades to one retried point,
    never a failed sweep. ``counters`` (a private bag when omitted)
    counts ``eval.worker_deaths`` and ``eval.pool_rebuilds`` once per
    broken pool, however many batches saw it break, and
    ``eval.retried_points`` and ``eval.lost_worker_points`` once per
    point.

    ``cancel`` is a cooperative stop: once the event fires, every point
    of this batch not yet delivered — including one mid-recompute after a
    timeout, or one computed but waiting on an earlier index — resolves
    to result ``None`` with outcome ``"cancelled"``; nothing is raised.
    Requests of other batches for the same points are not affected.
    ``heartbeat()`` fires once per poll slice while any point is awaited
    — the lease-renewal seam for ``repro serve``.
    ``on_point(index, result, outcome)`` fires as each point resolves
    (the streaming seam ``repro serve`` feeds from): delivered points in
    index order, then cancelled ones in index order. A callback
    exception propagates and aborts the batch.

    ``outcomes``, when given, is filled in place with one entry per
    point. The first request to settle a computation reports its outcome:
    ``"ok"``, ``"retried"``, ``"lost-worker"``, ``"recovered"`` (serial
    fallback after a non-timeout failure) or
    ``"recovered-after-timeout"``; every other request for it reports
    ``"coalesced"``, and a request whose batch was cancelled first
    ``"cancelled"``.
    """
    points = list(points)
    if counters is None:
        counters = Counters()
    results: list = [None] * len(points)
    if outcomes is not None:
        outcomes[:] = ["ok"] * len(points)
    order = (dispatch_order([spec for _key, spec in points]) if jobs > 1
             else list(range(len(points))))
    held = dict(zip(order, _inflight.hold([points[index] for index in order],
                                          jobs, counters)))

    def settle(index: int, value: Optional[tuple]) -> None:
        entry = held.pop(index)
        try:
            result, outcome = None, "cancelled"
            if value is not None:
                result, seconds, outcome = value
                if _inflight.report(entry):
                    _point_costs[_cost_key(entry.spec)] = seconds
                    if outcome in _OUTCOME_COUNTERS:
                        counters.add(_OUTCOME_COUNTERS[outcome])
                else:
                    outcome = "coalesced"
            results[index] = result
            if outcomes is not None:
                outcomes[index] = outcome
            if on_point is not None:
                on_point(index, result, outcome)
        finally:
            _inflight.release(entry)

    # The reorder buffer: a resolved point waits in ``landed`` until every
    # earlier index has settled, so callers see points in input order
    # whatever order they were dispatched in.
    landed: dict[int, tuple] = {}
    cursor = 0
    try:
        # Awaited in dispatch order: awaiting in input order would start a
        # cheap, late-dispatched point's timeout clock while it still
        # waits behind the long ones.
        for index in order:
            try:
                landed[index] = _inflight.resolve(
                    held[index], timeout, cancel, heartbeat, counters)
            except _Cancelled:
                break
            while cursor in landed and not (cancel is not None
                                            and cancel.is_set()):
                settle(cursor, landed.pop(cursor))
                cursor += 1
        # Whatever the cancel left, computed or not, settles as cancelled.
        for index in sorted(held):
            settle(index, None)
    finally:
        for entry in held.values():
            _inflight.release(entry)
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
                       counters: Optional[Counters] = None) -> list:
    """Parallel, cached equivalent of :func:`repro.eval.runner.run_suite`.

    Returns one :class:`Comparison` per workload, in input order,
    field-identical to the serial path. With a warm ``cache`` every point
    is served from disk and no simulation runs at all; a hit never
    touches the in-flight table. Identical in-flight points (same workload
    identity, configs, and verify flag) are coalesced through that table,
    within this sweep and across concurrent ones: the key's first request
    computes, the others share its result — bit-identical by the
    determinism contract, so exactly one computation per distinct key
    runs, and exactly one request publishes it to the cache. ``sanitize``
    (or a ``delta_config`` with ``sanitize`` set) runs both machines of every
    point under the model sanitizer; ``faults`` injects a
    :class:`~repro.sim.faults.FaultPlan` into both machines of every point.
    ``outcomes``, when given, is filled with one per-workload entry:
    ``"cached"``, ``"coalesced"`` (shared another request's computation),
    ``"cancelled"`` (see below), or the :func:`run_points` outcome
    (``"ok"`` / ``"retried"`` / ``"lost-worker"`` / ``"recovered"`` /
    ``"recovered-after-timeout"``). ``heartbeat`` and ``counters`` are
    passed through to :func:`run_points` (lease renewal and pool-health
    counters for ``repro serve``).

    ``cancel`` stops the sweep cooperatively: every point not yet resolved
    when the event fires returns ``None`` with outcome ``"cancelled"``
    (never raised, never cached). ``on_result(index, comparison, outcome)``
    fires as each point resolves — immediately for cache hits, then the
    other points in index order as each lands — which is how ``repro
    serve`` streams incremental per-point results.
    """
    workloads = list(workloads) if workloads is not None else all_workloads()
    delta_config = delta_config or default_delta_config(lanes=lanes)
    if sanitize and not delta_config.sanitize:
        delta_config = delta_config.with_sanitize(True)
    if faults is not None and delta_config.faults is None:
        delta_config = delta_config.with_faults(faults)
    static_config = static_config_for(delta_config)

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
    for index, workload in enumerate(workloads):
        spec: PointSpec = (workload, delta_config, static_config, verify)
        key = comparison_key(workload, delta_config, static_config, verify)
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                settle(index, hit, "cached")
                continue
        pending.append((index, key, spec))

    def on_point(pending_index: int, comparison, outcome: str) -> None:
        # Map the batch index back to the suite index and publish what
        # this request reports — as the point lands, so callers stream
        # incrementally.
        index, key, _spec = pending[pending_index]
        settle(index, comparison, outcome)
        if cache is None:
            return
        if outcome == "coalesced":
            cache.store.counters.add("cache.coalesced")
        elif comparison is not None:
            cache.put(key, comparison)

    if pending:
        run_points([(key, spec) for _index, key, spec in pending],
                   jobs=resolve_jobs(jobs), timeout=timeout,
                   cancel=cancel, on_point=on_point,
                   heartbeat=heartbeat, counters=counters)
    return results
