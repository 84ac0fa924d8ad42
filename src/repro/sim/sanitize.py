"""Runtime invariant checking for simulation runs (the model sanitizer).

The simulator's claims rest on the model being *internally consistent*: a
modeling bug that silently corrupts counters is worse than a crash. The
:class:`Sanitizer` is the dynamic checker for that — it observes the same
events the :class:`~repro.sim.trace.Tracer` does (task lifecycle, lane
occupancy, stream chunks, shared-read coalescing, NoC sends, clock steps)
and enforces the invariant catalog below, the way a race detector checks
an execution against a happens-before model.

Invariant catalog (the ``invariant`` attribute of raised errors):

- ``task-conservation`` — every task is submitted once, dispatched once,
  completed once, and none are dropped; dispatch counters agree with the
  observed event stream.
- ``dependence-legality`` — no AFTER consumer starts before its producer
  completed; a STREAM consumer starts only after its producer started
  (pipelining on) or completed (pipelining off).
- ``stream-legality`` — a pipelined consumer never reads ahead of what its
  producer has put into the channel, and channels drain completely.
- ``lane-exclusivity`` — at most one task occupies a lane at a time, and
  every acquired lane is released by its occupant.
- ``queue-bound`` — a lane's dispatch queue never holds more tasks than
  the architected ``queue_depth``.
- ``cycle-monotonicity`` — simulated time never moves backwards and every
  observed timestamp is finite; tasks never complete before they start.
- ``work-accounting`` — per lane, busy cycles accrued by the fabric equal
  the sum of ``depth + II * trips`` over the tasks it executed, and agree
  with the lane's own utilization tracker.
- ``multicast-consistency`` — every request has a known outcome and every
  serve reaches at least one lane; demanded shared bytes equal
  fetched-at-serve bytes plus saved (hit/coalesced) bytes; manager
  counters agree with the observed request stream.
- ``noc-accounting`` — NoC message/multicast counters agree with the
  observed sends; payloads are finite and non-negative.
- ``recovery-accounting`` — fault recovery (see :mod:`repro.sim.faults`)
  stays conservative: a retried task must be running and not yet retired,
  a re-dispatched task must not have started, a failed lane never runs or
  receives another task, stream replays only resend produced bytes,
  multicast refetches follow a real serve, and every ``recovery.*`` /
  ``faults.*`` counter agrees with the observed recovery event stream.
  Conservation rules *understand* retries and replays rather than
  exempting them — recovery may not double-count work or leak tasks.

The sanitizer is *purely observational*: it writes no counters, consumes
no randomness, and schedules no events, so a sanitized run's result
fingerprint is bit-identical to an unsanitized one. Disabled hooks are
no-ops — the same contract as the tracer. This module deliberately knows
nothing about the task layer: tasks are duck-typed (``task_id``, ``name``,
``after``, ``stream_from``) so ``repro.sim`` stays at the bottom of the
import layering.
"""

from __future__ import annotations

import math
import os
from collections import deque
from typing import Iterable, Optional

__all__ = ["ModelInvariantError", "Sanitizer", "NullSanitizer",
           "env_sanitize_requested"]

_TRUTHY = ("1", "true", "yes", "on")


def env_sanitize_requested() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitized runs by default."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY


class ModelInvariantError(RuntimeError):
    """A model invariant was violated during simulation.

    Attributes identify the offence precisely: ``invariant`` (a name from
    the catalog above), the offending ``task`` name, ``lane`` id and
    ``cycle``, plus ``window`` — the most recent observed events, oldest
    first, for post-mortem context.
    """

    def __init__(self, invariant: str, message: str, *,
                 task: Optional[str] = None,
                 lane: Optional[int] = None,
                 cycle: Optional[float] = None,
                 window: Iterable[str] = ()) -> None:
        self.invariant = invariant
        self.task = task
        self.lane = lane
        self.cycle = cycle
        self.window = list(window)
        context = []
        if task is not None:
            context.append(f"task={task}")
        if lane is not None:
            context.append(f"lane={lane}")
        if cycle is not None:
            context.append(f"cycle={cycle:,.0f}")
        text = f"[{invariant}] {message}"
        if context:
            text += f" ({', '.join(context)})"
        if self.window:
            text += "\nrecent events:\n  " + "\n  ".join(self.window)
        super().__init__(text)


class Sanitizer:
    """Observes run events and enforces the model-invariant catalog.

    Execution models call the hook methods as events happen (mirroring the
    tracer's call sites) and :meth:`finish` once at result assembly, which
    runs the whole-run balance checks. ``checks`` counts observations — a
    cheap way for tests to assert the sanitizer actually saw a run.
    """

    #: How many recent events the violation excerpt carries.
    WINDOW = 24

    def __init__(self) -> None:
        self.enabled = True
        self.checks = 0
        self._window: deque[str] = deque(maxlen=self.WINDOW)
        self._last_cycle = 0.0
        # Task lifecycle: task_id -> name / lane / cycle.
        self._submitted: dict[int, str] = {}
        self._dispatched: dict[int, int] = {}
        self._started: dict[int, float] = {}
        self._completed: dict[int, float] = {}
        # Lifecycle events that went through the hardware dispatcher (and
        # therefore must agree with the dispatch.* counters).
        self._counted = [0, 0, 0]  # submitted, dispatched, completed
        # Lane occupancy and busy accounting.
        self._occupant: dict[int, tuple[int, str]] = {}
        self._observed_busy: dict[int, float] = {}
        self._expected_busy: dict[int, float] = {}
        # Pipelined stream channels: (producer_id, consumer_id) -> bytes.
        self._produced: dict[tuple[int, int], float] = {}
        self._consumed: dict[tuple[int, int], float] = {}
        # Shared-read recovery.
        self._shared_demand = 0.0
        self._shared_fetched = 0.0
        self._shared_saved = 0.0
        self._outcomes = {"fetch": 0, "coalesced": 0, "hit": 0}
        self._mcast_serves = 0
        # NoC sends.
        self._noc_unicasts = 0
        self._noc_multicasts = 0
        # Fault recovery (all zero on a fault-free run, so the
        # recovery-accounting balance checks reduce to 0 == 0).
        self._retries = 0
        self._requeues = 0
        self._dead_lanes: set[int] = set()
        self._lanes_failed = 0
        self._replayed: dict[tuple[int, int], float] = {}
        self._refetches = 0
        self._refetched_bytes = 0.0
        self._noc_retransmits = 0
        self._finished = False

    # -- internals ---------------------------------------------------------

    def _fail(self, invariant: str, message: str, *,
              task: Optional[str] = None, lane: Optional[int] = None,
              cycle: Optional[float] = None) -> None:
        raise ModelInvariantError(invariant, message, task=task, lane=lane,
                                  cycle=cycle, window=self._window)

    def _observe(self, cycle: float, kind: str, detail: str) -> None:
        """Record one event in the excerpt window and check the clock."""
        self.checks += 1
        if not math.isfinite(cycle) or cycle < 0:
            self._fail("cycle-monotonicity",
                       f"{kind} event carries invalid timestamp {cycle!r}",
                       cycle=None)
        if cycle < self._last_cycle:
            self._fail("cycle-monotonicity",
                       f"{kind} event at cycle {cycle:,.2f} after the clock "
                       f"already reached {self._last_cycle:,.2f}",
                       cycle=cycle)
        self._last_cycle = cycle
        self._window.append(f"t={cycle:<10,.0f} {kind:<10} {detail}")

    @staticmethod
    def _close(a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)

    # -- clock -------------------------------------------------------------

    def clock_advanced(self, prev: float, now: float) -> None:
        """Engine hook: called before the clock moves ``prev`` -> ``now``."""
        if not self.enabled:
            return
        self.checks += 1
        if not math.isfinite(now):
            self._fail("cycle-monotonicity",
                       f"clock advanced to non-finite time {now!r}",
                       cycle=prev)
        if now < prev:
            self._fail("cycle-monotonicity",
                       f"clock moved backwards: {prev:,.2f} -> {now:,.2f}",
                       cycle=now)

    # -- task lifecycle ----------------------------------------------------

    def task_submitted(self, task, cycle: float, counted: bool = True) -> None:
        """A task entered readiness tracking."""
        if not self.enabled:
            return
        self._observe(cycle, "submit", task.name)
        if task.task_id in self._submitted:
            self._fail("task-conservation",
                       f"task {task.name} submitted more than once",
                       task=task.name, cycle=cycle)
        self._submitted[task.task_id] = task.name
        if counted:
            self._counted[0] += 1

    def task_dispatched(self, task, lane: int, cycle: float,
                        queue_level: Optional[int] = None,
                        queue_depth: Optional[int] = None,
                        counted: bool = True) -> None:
        """A ready task was placed on a lane queue."""
        if not self.enabled:
            return
        self._observe(cycle, "dispatch", f"{task.name} -> lane{lane}")
        if task.task_id not in self._submitted:
            self._fail("task-conservation",
                       f"task {task.name} dispatched without being submitted",
                       task=task.name, lane=lane, cycle=cycle)
        if task.task_id in self._dispatched:
            self._fail("task-conservation",
                       f"task {task.name} dispatched more than once "
                       f"(first to lane {self._dispatched[task.task_id]})",
                       task=task.name, lane=lane, cycle=cycle)
        if lane in self._dead_lanes:
            self._fail("recovery-accounting",
                       f"task {task.name} dispatched to lane {lane}, which "
                       f"fail-stopped earlier",
                       task=task.name, lane=lane, cycle=cycle)
        self._dispatched[task.task_id] = lane
        if queue_level is not None and queue_depth is not None \
                and queue_level > queue_depth:
            self._fail("queue-bound",
                       f"lane {lane} queue holds {queue_level} tasks, "
                       f"architected depth is {queue_depth}",
                       task=task.name, lane=lane, cycle=cycle)
        if counted:
            self._counted[1] += 1

    def task_stolen(self, task, victim: int, thief: int,
                    cycle: float) -> None:
        """A queued task moved from one lane's queue to another's."""
        if not self.enabled:
            return
        self._observe(cycle, "steal",
                      f"{task.name} lane{victim} -> lane{thief}")
        if task.task_id not in self._dispatched:
            self._fail("task-conservation",
                       f"task {task.name} stolen before being dispatched",
                       task=task.name, lane=thief, cycle=cycle)
        if task.task_id in self._started:
            self._fail("task-conservation",
                       f"task {task.name} stolen while already running",
                       task=task.name, lane=thief, cycle=cycle)
        self._dispatched[task.task_id] = thief

    def task_started(self, task, lane: int, cycle: float,
                     pipelining: bool = True) -> None:
        """A lane began executing a task; its dependences must allow it."""
        if not self.enabled:
            return
        self._observe(cycle, "start", f"{task.name} on lane{lane}")
        if task.task_id not in self._submitted:
            self._fail("task-conservation",
                       f"task {task.name} started without being submitted",
                       task=task.name, lane=lane, cycle=cycle)
        if task.task_id in self._started:
            self._fail("task-conservation",
                       f"task {task.name} started more than once",
                       task=task.name, lane=lane, cycle=cycle)
        for dep in task.after:
            if dep.task_id not in self._completed:
                self._fail("dependence-legality",
                           f"task {task.name} starts before its AFTER "
                           f"producer {dep.name} completed",
                           task=task.name, lane=lane, cycle=cycle)
        for producer in task.stream_from:
            if pipelining:
                if producer.task_id not in self._started:
                    self._fail("dependence-legality",
                               f"task {task.name} starts before its STREAM "
                               f"producer {producer.name} started",
                               task=task.name, lane=lane, cycle=cycle)
            elif producer.task_id not in self._completed:
                self._fail("dependence-legality",
                           f"task {task.name} starts before its STREAM "
                           f"producer {producer.name} completed "
                           f"(pipelining disabled)",
                           task=task.name, lane=lane, cycle=cycle)
        self._started[task.task_id] = cycle

    def task_completed(self, task, lane: Optional[int], cycle: float,
                       counted: bool = True) -> None:
        """A task retired."""
        if not self.enabled:
            return
        self._observe(cycle, "complete", task.name)
        if task.task_id not in self._started:
            self._fail("task-conservation",
                       f"task {task.name} completed without starting",
                       task=task.name, lane=lane, cycle=cycle)
        if task.task_id in self._completed:
            self._fail("task-conservation",
                       f"task {task.name} completed more than once",
                       task=task.name, lane=lane, cycle=cycle)
        if cycle < self._started[task.task_id]:
            self._fail("cycle-monotonicity",
                       f"task {task.name} completes at {cycle:,.2f}, before "
                       f"its start at {self._started[task.task_id]:,.2f}",
                       task=task.name, lane=lane, cycle=cycle)
        self._completed[task.task_id] = cycle
        if counted:
            self._counted[2] += 1

    # -- lane occupancy and work accounting --------------------------------

    def lane_acquired(self, lane: int, task, cycle: float) -> None:
        """A task took exclusive occupancy of a lane."""
        if not self.enabled:
            return
        self._observe(cycle, "acquire", f"lane{lane} <- {task.name}")
        occupant = self._occupant.get(lane)
        if occupant is not None:
            self._fail("lane-exclusivity",
                       f"lane {lane} begins task {task.name} while "
                       f"{occupant[1]} still occupies it",
                       task=task.name, lane=lane, cycle=cycle)
        if lane in self._dead_lanes:
            self._fail("recovery-accounting",
                       f"lane {lane} begins task {task.name} after "
                       f"fail-stopping", task=task.name, lane=lane,
                       cycle=cycle)
        self._occupant[lane] = (task.task_id, task.name)

    def lane_released(self, lane: int, task, cycle: float) -> None:
        """A task released its lane."""
        if not self.enabled:
            return
        self._observe(cycle, "release", f"lane{lane} -> {task.name}")
        occupant = self._occupant.get(lane)
        if occupant is None or occupant[0] != task.task_id:
            holder = "idle" if occupant is None else occupant[1]
            self._fail("lane-exclusivity",
                       f"task {task.name} releases lane {lane} it does not "
                       f"occupy (lane is {holder})",
                       task=task.name, lane=lane, cycle=cycle)
        del self._occupant[lane]

    def lane_busy(self, lane: int, cycles: float, cycle: float) -> None:
        """The fabric on ``lane`` accrued ``cycles`` of busy time.

        Hot path (once per pipeline step): no window record, just the
        accumulation the whole-run balance check consumes.
        """
        if not self.enabled:
            return
        self.checks += 1
        if not math.isfinite(cycles) or cycles < 0:
            self._fail("work-accounting",
                       f"lane {lane} accrued invalid busy amount {cycles!r}",
                       lane=lane, cycle=cycle)
        self._observed_busy[lane] = \
            self._observed_busy.get(lane, 0.0) + cycles

    def compute_expected(self, lane: int, task, cycles: float) -> None:
        """Record a task's model-expected busy cycles on its lane."""
        if not self.enabled:
            return
        self.checks += 1
        if not math.isfinite(cycles) or cycles < 0:
            self._fail("work-accounting",
                       f"task {task.name} has invalid expected busy "
                       f"cycles {cycles!r}", task=task.name, lane=lane)
        self._expected_busy[lane] = \
            self._expected_busy.get(lane, 0.0) + cycles

    # -- pipelined streams -------------------------------------------------

    def stream_produced(self, producer_id: int, consumer_id: int,
                        nbytes: float, cycle: float) -> None:
        """A producer put ``nbytes`` into a lane-to-lane channel."""
        if not self.enabled:
            return
        self.checks += 1
        if not math.isfinite(nbytes) or nbytes < 0:
            self._fail("stream-legality",
                       f"channel #{producer_id}->#{consumer_id} produced "
                       f"invalid chunk of {nbytes!r} bytes", cycle=cycle)
        key = (producer_id, consumer_id)
        self._produced[key] = self._produced.get(key, 0.0) + nbytes

    def stream_consumed(self, producer_id: int, consumer_id: int,
                        nbytes: float, cycle: float) -> None:
        """A consumer pulled ``nbytes`` from a lane-to-lane channel."""
        if not self.enabled:
            return
        self.checks += 1
        key = (producer_id, consumer_id)
        consumed = self._consumed.get(key, 0.0) + nbytes
        produced = self._produced.get(key, 0.0)
        if consumed > produced and not self._close(consumed, produced):
            self._fail("stream-legality",
                       f"consumer task #{consumer_id} has read "
                       f"{consumed:,.0f} B from producer task "
                       f"#{producer_id}, which has produced only "
                       f"{produced:,.0f} B", cycle=cycle)
        self._consumed[key] = consumed

    # -- shared-read recovery ----------------------------------------------

    def shared_request(self, region: str, nbytes: float, lane: int,
                       outcome: str, cycle: float) -> None:
        """One task asked the multicast manager for a shared region."""
        if not self.enabled:
            return
        self._observe(cycle, "shared", f"{region} {outcome} on lane{lane}")
        if outcome not in self._outcomes:
            self._fail("multicast-consistency",
                       f"unknown shared-request outcome {outcome!r} for "
                       f"region {region!r}", lane=lane, cycle=cycle)
        self._outcomes[outcome] += 1
        self._shared_demand += nbytes
        if outcome != "fetch":
            self._shared_saved += nbytes

    def multicast_served(self, region: str, nbytes: float, degree: int,
                         cycle: float) -> None:
        """A coalescing batch fetched once and multicast to its lanes."""
        if not self.enabled:
            return
        self._observe(cycle, "mcast", f"{region} x{degree}")
        if degree < 1:
            self._fail("multicast-consistency",
                       f"multicast of region {region!r} served to "
                       f"{degree} lanes", cycle=cycle)
        self._mcast_serves += 1
        self._shared_fetched += nbytes

    # -- interconnect ------------------------------------------------------

    def noc_message(self, kind: str, nbytes: float, cycle: float) -> None:
        """The NoC accepted one send (``unicast`` or ``multicast``)."""
        if not self.enabled:
            return
        self.checks += 1
        if not math.isfinite(nbytes) or nbytes < 0:
            self._fail("noc-accounting",
                       f"{kind} send with invalid payload {nbytes!r} bytes",
                       cycle=cycle)
        if kind == "multicast":
            self._noc_multicasts += 1
        else:
            self._noc_unicasts += 1

    # -- fault recovery ----------------------------------------------------

    def task_retried(self, task, lane: int, attempt: int,
                     cycle: float) -> None:
        """A transient fault killed an execution attempt; the task will be
        re-executed in place after its backoff."""
        if not self.enabled:
            return
        self._observe(cycle, "retry",
                      f"{task.name} attempt {attempt} on lane{lane}")
        if task.task_id not in self._started:
            self._fail("recovery-accounting",
                       f"task {task.name} retried before it started",
                       task=task.name, lane=lane, cycle=cycle)
        if task.task_id in self._completed:
            self._fail("recovery-accounting",
                       f"task {task.name} retried after it completed",
                       task=task.name, lane=lane, cycle=cycle)
        self._retries += 1

    def task_requeued(self, task, lane: Optional[int],
                      cycle: float) -> None:
        """A failed lane's backlog task went back for re-dispatch.

        Clears the dispatch record so the surviving lane's dispatch is the
        task's one live placement — conservation still holds exactly once.
        """
        if not self.enabled:
            return
        self._observe(cycle, "requeue", f"{task.name} off lane{lane}")
        if task.task_id not in self._submitted:
            self._fail("recovery-accounting",
                       f"task {task.name} requeued without being submitted",
                       task=task.name, lane=lane, cycle=cycle)
        if task.task_id in self._started:
            self._fail("recovery-accounting",
                       f"task {task.name} requeued while already running",
                       task=task.name, lane=lane, cycle=cycle)
        self._dispatched.pop(task.task_id, None)
        self._requeues += 1

    def lane_failed(self, lane: int, cycle: float) -> None:
        """A lane fail-stopped; it must never run or receive work again."""
        if not self.enabled:
            return
        self._observe(cycle, "lane-fail", f"lane{lane} fail-stop")
        if lane in self._dead_lanes:
            self._fail("recovery-accounting",
                       f"lane {lane} fail-stopped twice", lane=lane,
                       cycle=cycle)
        self._dead_lanes.add(lane)
        self._lanes_failed += 1

    def stream_replayed(self, producer_id: int, consumer_id: int,
                        nbytes: float, cycle: float) -> None:
        """A corrupt chunk was replayed from the last acknowledged chunk.

        Replays resend bytes already produced — they do not move the
        produced/consumed balance, and may only follow real production.
        """
        if not self.enabled:
            return
        self.checks += 1
        if not math.isfinite(nbytes) or nbytes < 0:
            self._fail("recovery-accounting",
                       f"channel #{producer_id}->#{consumer_id} replayed an "
                       f"invalid chunk of {nbytes!r} bytes", cycle=cycle)
        key = (producer_id, consumer_id)
        if self._produced.get(key, 0.0) <= 0.0:
            self._fail("recovery-accounting",
                       f"channel #{producer_id}->#{consumer_id} replayed a "
                       f"chunk before producing anything", cycle=cycle)
        self._replayed[key] = self._replayed.get(key, 0.0) + nbytes

    def multicast_refetch(self, region: str, nbytes: float, degree: int,
                          cycle: float) -> None:
        """Dropped multicast lines refetched for the lanes that missed.

        A refetch is not a serve: it must not move the coalescing-batch
        balance (``mcast.fetches`` stays equal to opened batches).
        """
        if not self.enabled:
            return
        self._observe(cycle, "refetch", f"{region} x{degree}")
        if degree < 1:
            self._fail("recovery-accounting",
                       f"multicast refetch of region {region!r} for "
                       f"{degree} lanes", cycle=cycle)
        if self._outcomes["fetch"] == 0:
            self._fail("recovery-accounting",
                       f"region {region!r} refetched before any coalescing "
                       f"batch was opened", cycle=cycle)
        self._refetches += 1
        self._refetched_bytes += nbytes

    def noc_retransmit(self, kind: str, count: int, cycle: float) -> None:
        """``count`` link-level drops of one message were retransmitted."""
        if not self.enabled:
            return
        self.checks += 1
        if count < 1:
            self._fail("recovery-accounting",
                       f"{kind} retransmission with non-positive drop "
                       f"count {count}", cycle=cycle)
        self._noc_retransmits += count

    # -- end-of-run balance checks ----------------------------------------

    def pending_report(self) -> str:
        """Conservation snapshot for stall diagnostics (never raises)."""
        unfinished = [name for task_id, name in sorted(
            self._submitted.items()) if task_id not in self._completed]
        shown = ", ".join(unfinished[:8])
        if len(unfinished) > 8:
            shown += f", ... ({len(unfinished) - 8} more)"
        return (f"sanitizer: {len(self._submitted)} submitted, "
                f"{len(self._dispatched)} dispatched, "
                f"{len(self._started)} started, "
                f"{len(self._completed)} completed"
                + (f"; unfinished: {shown}" if unfinished else ""))

    def finish(self, counters, lane_busy: list) -> None:
        """Whole-run balance checks, called once at result assembly.

        ``counters`` is the machine's counter store (read-only use);
        ``lane_busy`` the machine's per-lane tracker totals, in lane order.
        """
        if not self.enabled or self._finished:
            return
        self._finished = True
        self.checks += 1
        self._check_conservation(counters)
        self._check_occupancy()
        self._check_work_accounting(lane_busy)
        self._check_streams()
        self._check_multicast(counters)
        self._check_noc(counters)
        self._check_recovery(counters)

    def _check_conservation(self, counters) -> None:
        for task_id, name in self._submitted.items():
            if task_id not in self._completed:
                state = ("started" if task_id in self._started
                         else "dispatched" if task_id in self._dispatched
                         else "submitted")
                self._fail("task-conservation",
                           f"task {name} was submitted but never completed "
                           f"(last state: {state})", task=name)
        if not any(self._counted):
            return  # no hardware dispatcher in the loop (static runtime)
        names = ("submitted", "dispatched", "completed")
        for name, observed in zip(names, self._counted):
            counted = counters.get(f"dispatch.{name}")
            if not self._close(counted, observed):
                self._fail("task-conservation",
                           f"dispatch.{name} counter reads {counted:,.0f} "
                           f"but the sanitizer observed {observed} events")

    def _check_occupancy(self) -> None:
        if self._occupant:
            lane, (_tid, name) = sorted(self._occupant.items())[0]
            self._fail("lane-exclusivity",
                       f"lane {lane} still occupied by {name} at the end "
                       f"of the run", task=name, lane=lane)

    def _check_work_accounting(self, lane_busy: list) -> None:
        lanes = set(self._observed_busy) | set(self._expected_busy)
        for lane in sorted(lanes):
            observed = self._observed_busy.get(lane, 0.0)
            expected = self._expected_busy.get(lane, 0.0)
            if not self._close(observed, expected):
                self._fail("work-accounting",
                           f"lane {lane} accrued {observed:,.2f} busy "
                           f"cycles, but its tasks account for "
                           f"{expected:,.2f} (depth + II x trips)",
                           lane=lane)
            tracker = (lane_busy[lane]
                       if 0 <= lane < len(lane_busy) else None)
            if tracker is None or not self._close(tracker, observed):
                self._fail("work-accounting",
                           f"lane {lane} utilization tracker reads "
                           f"{tracker} busy cycles; the sanitizer observed "
                           f"{observed:,.2f}", lane=lane)

    def _check_streams(self) -> None:
        for key in sorted(set(self._produced) | set(self._consumed)):
            produced = self._produced.get(key, 0.0)
            consumed = self._consumed.get(key, 0.0)
            if not self._close(produced, consumed):
                self._fail("stream-legality",
                           f"channel task #{key[0]} -> task #{key[1]} "
                           f"produced {produced:,.0f} B but its consumer "
                           f"drained {consumed:,.0f} B")

    def _check_multicast(self, counters) -> None:
        if not self._close(self._shared_demand,
                           self._shared_fetched + self._shared_saved):
            self._fail("multicast-consistency",
                       f"shared-read bytes do not balance: demanded "
                       f"{self._shared_demand:,.0f} B != fetched "
                       f"{self._shared_fetched:,.0f} B + saved "
                       f"{self._shared_saved:,.0f} B")
        if self._mcast_serves != self._outcomes["fetch"]:
            self._fail("multicast-consistency",
                       f"{self._outcomes['fetch']} coalescing batches were "
                       f"opened but {self._mcast_serves} multicast "
                       f"deliveries were served")
        for counter, outcome in (("fetches", "fetch"),
                                 ("coalesced", "coalesced"),
                                 ("hits", "hit")):
            counted = counters.get(f"mcast.{counter}")
            if not self._close(counted, self._outcomes[outcome]):
                self._fail("multicast-consistency",
                           f"mcast.{counter} counter reads {counted:,.0f} "
                           f"but the sanitizer observed "
                           f"{self._outcomes[outcome]} requests")

    def _check_noc(self, counters) -> None:
        for counter, observed in (("messages", self._noc_unicasts),
                                  ("multicasts", self._noc_multicasts)):
            counted = counters.get(f"noc.{counter}")
            if not self._close(counted, observed):
                self._fail("noc-accounting",
                           f"noc.{counter} counter reads {counted:,.0f} "
                           f"but the sanitizer observed {observed} sends")

    def _check_recovery(self, counters) -> None:
        """Every recovery counter agrees with the observed event stream.

        On a fault-free run every pair below is (0, 0), so this check
        costs nothing and can never fire spuriously.
        """
        pairs = (
            ("recovery.retries", float(self._retries)),
            ("recovery.redispatched", float(self._requeues)),
            ("recovery.noc_retransmits", float(self._noc_retransmits)),
            ("recovery.refetches", float(self._refetches)),
            ("recovery.refetch_bytes", self._refetched_bytes),
            ("recovery.replayed_bytes", sum(self._replayed.values())),
            ("faults.lane_failstop", float(self._lanes_failed)),
        )
        for counter, observed in pairs:
            counted = counters.get(counter)
            if not self._close(counted, observed):
                self._fail("recovery-accounting",
                           f"{counter} counter reads {counted:,.0f} but "
                           f"the sanitizer observed {observed:,.0f}")


class NullSanitizer(Sanitizer):
    """A sanitizer that checks nothing (the default, zero overhead)."""

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False


#: Shared disabled instance components fall back to when none is wired.
NULL_SANITIZER = NullSanitizer()
