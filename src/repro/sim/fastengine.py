"""Calendar-queue event kernel: the ``REPRO_ENGINE=fast`` drop-in.

:class:`FastEnvironment` keeps the exact scheduling semantics of
:class:`repro.sim.engine.Environment` while replacing its two main costs:

- The global ``(time, seq)`` heap becomes a *bucket queue*: a dict from
  simulated time to the list of entries scheduled at that time, plus a
  small heap of the distinct times. Within a bucket, list-append order
  is the sequence order — the reference kernel's monotonically increasing
  ``seq`` tiebreaker produces exactly the same total order, because both
  kernels enqueue from the same single-threaded call sites. The bucket
  being drained stays registered under its time until it is empty, so a
  slot queued for the current time is appended to it and drained where
  a higher-``seq`` heap entry would fall, without touching the heap.
- Call slots (callback-after-processed, process bootstrap, and every
  continuation the datapath's callback forms queue, such as
  ``Store.get_then`` or ``Noc.unicast_then``), which the reference
  kernel queues as pre-triggered shim events, become bare ``(fn, arg)``
  tuples in the same queue position, with no Event allocation or
  callback-list churn.

Both kernels run the same component code: they differ only in how they
queue a slot, so they drain the same slots in the same order.

Equivalence with the reference kernel is enforced bit-for-bit by
``tests/test_engine_equivalence.py`` over the full workload matrix.
"""

from __future__ import annotations

import heapq
import os
from typing import Any, Callable, Optional

from repro.sim import engine
from repro.sim.engine import Environment, Event, Process

#: Environment variable selecting the event kernel. ``fast`` (the
#: default) is the calendar-queue kernel below; ``reference`` is the
#: original heap kernel, kept as the test oracle.
ENGINE_VAR = "REPRO_ENGINE"


def engine_name() -> str:
    """The selected engine: ``fast`` unless ``REPRO_ENGINE`` says else."""
    name = os.environ.get(ENGINE_VAR, "fast").strip().lower() or "fast"
    if name not in ("fast", "reference"):
        raise ValueError(
            f"{ENGINE_VAR}={name!r}: expected 'fast' or 'reference'")
    return name


def make_environment() -> Environment:
    """Build the environment the ``REPRO_ENGINE`` switch selects."""
    if engine_name() == "reference":
        return Environment()
    return FastEnvironment()


class FastEnvironment(Environment):
    """Bucket-queue environment, fingerprint-identical to the reference.

    Entries in a bucket are either :class:`Event` instances (processed via
    ``_process``) or ``(fn, arg)`` call slots (invoked directly). While a
    bucket is being drained, new same-time entries are appended to it and
    drained in the same pass — matching the reference behaviour where
    same-time schedules receive higher ``seq`` values than everything
    already heaped. If a slot raises, the slots after it stay queued at
    its time, as they do on the reference heap.
    """

    def __init__(self) -> None:
        super().__init__()
        self._buckets: dict[float, list[Any]] = {}
        self._times: list[float] = []

    # -- scheduling ------------------------------------------------------

    def _schedule_event(self, event: Event, delay: float) -> None:
        at = self.now + delay
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = [event]
            heapq.heappush(self._times, at)
        else:
            bucket.append(event)

    def _schedule_call(self, fn: Callable[[Any], None],
                       arg: Any = None) -> None:
        at = self.now
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = [(fn, arg)]
            heapq.heappush(self._times, at)
        else:
            bucket.append((fn, arg))

    def _schedule_call_at(self, at: float, fn: Callable[[Any], None],
                          arg: Any = None) -> None:
        """Queue ``fn(arg)`` as a bare call slot at absolute time ``at``:
        the bucket form of :meth:`Environment._schedule_call_at`."""
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = [(fn, arg)]
            heapq.heappush(self._times, at)
        else:
            bucket.append((fn, arg))

    def _schedule_process_start(self, process: Process) -> None:
        at = self.now
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = [(process._start, None)]
            heapq.heappush(self._times, at)
        else:
            bucket.append((process._start, None))

    # -- run loop --------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        times = self._times
        buckets = self._buckets
        start = self.events_processed
        try:
            while times:
                at = times[0]
                if until is not None and at > until:
                    self.now = until
                    return self.now
                if self.clock_monitor is not None and at != self.now:
                    self.clock_monitor(self.now, at)
                self.now = at
                # The bucket stays registered while it drains: a slot
                # queued for ``at`` meanwhile is appended to this list,
                # and the iterator reaches it after everything queued
                # before it, exactly where a higher-seq heap entry falls.
                bucket = buckets[at]
                try:
                    for entry in bucket:
                        if type(entry) is tuple:
                            entry[0](entry[1])
                        else:
                            entry._process()
                except BaseException:
                    # Dequeue the slots that ran, the raising one
                    # included; the rest stay queued at ``at``.
                    ran = next(i for i, queued in enumerate(bucket)
                               if queued is entry) + 1
                    self.events_processed += ran
                    del bucket[:ran]
                    if not bucket:
                        del buckets[at]
                        heapq.heappop(times)
                    raise
                del buckets[at]
                heapq.heappop(times)
                self.events_processed += len(bucket)
            return self.now
        finally:
            engine._process_events_total += self.events_processed - start

    def peek(self) -> float:
        return self._times[0] if self._times else float("inf")
