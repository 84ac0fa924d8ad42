"""The hardware task dispatcher: readiness tracking plus lane selection.

TaskStream makes the dispatcher a first-class hardware structure. It does
three things:

1. **Readiness tracking.** A task with ``after`` dependences becomes ready
   when they complete. A task with ``stream_from`` dependences becomes
   ready when its producers have *started* (pipelining enabled — consumer
   and producer overlap) or *completed* (pipelining disabled — the stream
   degrades to a memory round trip).
2. **Lane selection.** Delegated to a pluggable
   :class:`~repro.sched.api.SchedulingPolicy` resolved from the registry
   by ``config.policy`` — pool ordering, lane choice, and steal behavior
   all live in :mod:`repro.sched.policies`. The dispatcher keeps the
   mechanism (queues, bookkeeping, fault recovery) and exposes it to the
   policy: ``pool``, ``candidates``, ``least_loaded``, ``affinity_lane``.
3. **Dispatch serialization.** One task dispatches every
   ``dispatch_cycles`` — the hardware dispatch port is a finite resource,
   which is what makes very fine task granularity expensive (figure F6).

Policy decision hooks are plain calls inside the dispatch process (they
never touch the event loop), so two policies that make the same decisions
produce bit-identical runs — the property the golden fingerprints pin for
the default ``work-aware`` entry.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.config import DispatchConfig, FeatureFlags
from repro.core.task import Task
from repro.sched.api import StructureHints, create_policy
from repro.sim import Environment, Event, Store
from repro.sim.faults import UnrecoverableFault
from repro.sim.sanitize import NULL_SANITIZER, Sanitizer
from repro.util.counters import Counters
from repro.util.rng import DeterministicRng


class Dispatcher:
    """Readiness tracking + policy-driven lane queues."""

    def __init__(self, env: Environment, counters: Counters,
                 config: DispatchConfig, lanes: int,
                 features: FeatureFlags, rng: DeterministicRng,
                 sanitizer: Optional[Sanitizer] = None) -> None:
        self.env = env
        self.counters = counters
        self.sanitizer = sanitizer or NULL_SANITIZER
        self.config = config
        self.num_lanes = lanes
        self.features = features
        self.rng = rng

        self.queues: list[Store] = [
            Store(env, config.queue_depth, name=f"dispatch.q{i}")
            for i in range(lanes)
        ]
        #: Estimated outstanding work per lane (queued + running).
        self.pending_work: list[float] = [0.0] * lanes
        #: Count of queued tasks per lane (for steal/round-robin stats).
        self.pending_count: list[int] = [0] * lanes
        #: Lanes that fail-stopped (fault injection); never dispatched to
        #: again. Always present so membership checks stay cheap; empty on
        #: every fault-free run.
        self.dead_lanes: set[int] = set()

        #: Last DFG signature dispatched to each lane — the configuration
        #: the lane will hold when it reaches this point of its queue. Used
        #: by the ``config_affinity`` extension.
        self._last_dfg: dict[int, tuple] = {}
        #: How much extra load (work units) a configured lane may carry and
        #: still win the affinity tie-break. The machine sets this to its
        #: reconfiguration cost — the break-even point.
        self.affinity_window: float = config.work_overhead
        #: Ready tasks awaiting dispatch, in readiness order. The policy
        #: owns the drain order: work-aware walks it largest-first (LPT),
        #: the naive policies FIFO, critical-path by bottom level, ...
        self.pool: list[Task] = []
        #: The pluggable scheduling policy, resolved from the registry.
        self.policy = create_policy(config.policy)
        self.policy.bind(config, lanes, features=features, rng=rng)
        self._wake: Optional[Event] = None
        self._outstanding = 0
        self._drained = env.event(name="dispatch.drained")
        self._started_events: dict[int, Event] = {}
        self._completed_events: dict[int, Event] = {}
        env.process(self._dispatch_loop(), name="dispatcher")

    # -- events -------------------------------------------------------------

    def started_event(self, task: Task) -> Event:
        """Event fired when ``task`` begins executing on a lane."""
        ev = self._started_events.get(task.task_id)
        if ev is None:
            ev = self.env.event(name=f"started:{task.name}")
            self._started_events[task.task_id] = ev
            if task.started:
                ev.succeed(task)
        return ev

    def completed_event(self, task: Task) -> Event:
        """Event fired when ``task`` finishes executing."""
        ev = self._completed_events.get(task.task_id)
        if ev is None:
            ev = self.env.event(name=f"completed:{task.name}")
            self._completed_events[task.task_id] = ev
            if task.completed:
                ev.succeed(task)
        return ev

    @property
    def drained(self) -> Event:
        """Event fired when every submitted task has completed."""
        return self._drained

    @property
    def outstanding(self) -> int:
        """Tasks submitted but not yet completed."""
        return self._outstanding

    # -- submission -----------------------------------------------------------

    def submit(self, task: Task) -> None:
        """Register a task; it dispatches once its dependences allow."""
        self._outstanding += 1
        self.counters.add("dispatch.submitted")
        self.sanitizer.task_submitted(task, self.env.now)
        waits: list[Event] = []
        for dep in task.after:
            if not dep.completed:
                waits.append(self.completed_event(dep))
        for producer in task.stream_from:
            if self.features.pipelining:
                if not producer.started:
                    waits.append(self.started_event(producer))
            else:
                if not producer.completed:
                    waits.append(self.completed_event(producer))
        if not waits:
            self._make_ready(task)
            return
        gate = self.env.all_of(waits)
        gate.add_callback(lambda _ev, t=task: self._make_ready(t))

    def _make_ready(self, task: Task) -> None:
        self.pool.append(task)
        self._note_pool()
        self.kick()

    def attach_hints(self, hints: Optional[StructureHints]) -> None:
        """Hand recovered-structure hints to the policy (None clears)."""
        self.policy.attach(hints)

    def kick(self) -> None:
        """Wake the dispatch loop (new ready task or a freed queue slot).

        Lane workers also call this right after popping a task, so the
        freed queue slot is re-fillable immediately.
        """
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    # -- sched.* observability (opt-in: DispatchConfig.sched_stats) ---------

    @property
    def sched_stats(self) -> bool:
        """Whether opt-in ``sched.*`` counters are recorded. Off by
        default: the counter bag feeds run fingerprints, so scheduling
        observability must not perturb the frozen default-path goldens
        (same contract as the ``faults.*`` group: silent unless armed)."""
        return self.config.sched_stats

    def _note_pool(self) -> None:
        if self.config.sched_stats:
            self.counters.set_max("sched.pool_peak", len(self.pool))

    def note_inversion(self) -> None:
        """Called by a priority policy when the dispatched task was not
        its first choice (a higher-priority task had no eligible lane)."""
        self.counters.add("sched.priority_inversions")

    # -- dispatch loop ----------------------------------------------------------

    #: Work-aware mode binds a task to a lane only when that lane's queue
    #: is nearly empty. Late binding is what lets the dispatcher place the
    #: *largest* remaining task on the least-loaded lane (LPT) instead of
    #: committing everything in arrival order at time zero.
    LOW_WATER = 2

    def _dispatch_loop(self):
        while True:
            picked = self._pick()
            if picked is None:
                self._wake = self.env.event(name="dispatch.wake")
                yield self._wake
                self._wake = None
                continue
            task, lane = picked
            if self.config.dispatch_cycles:
                yield self.env.timeout(self.config.dispatch_cycles)
            self.counters.add("dispatch.cycles", self.config.dispatch_cycles)
            if lane in self.dead_lanes:
                # The lane fail-stopped during the dispatch delay. The
                # task was never placed: it goes back to the head of the
                # pool and the policy picks again among the survivors.
                self.pool.insert(0, task)
                continue
            task.lane_id = lane
            self.pending_work[lane] += task.work + self.config.work_overhead
            self.pending_count[lane] += 1
            self._last_dfg[lane] = task.type.dfg.signature()
            self.counters.add("dispatch.dispatched")
            yield self.queues[lane].put(task)
            self.sanitizer.task_dispatched(
                task, lane, self.env.now,
                queue_level=self.queues[lane].level,
                queue_depth=self.config.queue_depth)

    def _pick(self) -> Optional[tuple[Task, int]]:
        """The policy's (task, lane) choice, or None to wait."""
        return self.policy.select(self)

    def least_loaded(self, candidates: list[int]) -> int:
        """The least-loaded candidate lane."""
        return min(candidates, key=lambda i: (self.pending_work[i], i))

    def affinity_lane(self, candidates: list[int],
                      task: Task) -> Optional[int]:
        """A candidate lane already holding this task's configuration and
        loaded within the reconfiguration-cost window, or None. Balancing
        stays primary: beyond the window the match does not pay."""
        best_load = min(self.pending_work[i] for i in candidates)
        window = best_load + self.affinity_window
        matched = [i for i in candidates
                   if self.pending_work[i] <= window
                   and self._last_dfg.get(i) == task.type.dfg.signature()]
        if not matched:
            return None
        return min(matched, key=lambda i: (self.pending_work[i], i))

    def candidates(self, task: Task) -> list[int]:
        """Lanes eligible for ``task``: alive, and not holding one of its
        in-flight stream producers (placing a consumer on its producer's
        lane would serialize the pipeline)."""
        avoid = {p.lane_id for p in task.stream_from
                 if p.lane_id is not None and not p.completed}
        alive = [i for i in range(self.num_lanes)
                 if i not in self.dead_lanes]
        candidates = [i for i in alive if i not in avoid]
        return candidates or alive or list(range(self.num_lanes))

    def _choose_naive(self, task: Task) -> int:
        """Eager single-lane choice for FIFO policies.

        Thin delegation to the policy — kept as a dispatcher method so
        the metamorphic lane-permutation tests can monkeypatch the lane
        decision in one place regardless of the active policy.
        """
        return self.policy.choose_lane(self, task)

    # -- lane-side hooks ------------------------------------------------------

    def task_started(self, task: Task) -> None:
        """Called by a lane worker when it begins executing ``task``."""
        task.started = True
        self.sanitizer.task_started(task, task.lane_id, self.env.now,
                                    pipelining=self.features.pipelining)
        ev = self._started_events.get(task.task_id)
        if ev is not None and not ev.triggered:
            ev.succeed(task)
        self.kick()  # a queue slot just freed up

    def task_completed(self, task: Task) -> None:
        """Called by a lane worker when ``task`` finishes."""
        task.completed = True
        self.sanitizer.task_completed(task, task.lane_id, self.env.now)
        lane = task.lane_id
        if lane is not None:
            self.pending_work[lane] -= task.work + self.config.work_overhead
            self.pending_count[lane] -= 1
        self._outstanding -= 1
        self.counters.add("dispatch.completed")
        ev = self._completed_events.get(task.task_id)
        if ev is not None and not ev.triggered:
            ev.succeed(task)
        if self._outstanding == 0 and not self._drained.triggered:
            self._drained.succeed()
        self.kick()

    # -- fault recovery ----------------------------------------------------------

    def is_dead(self, lane_id: int) -> bool:
        """Whether ``lane_id`` has fail-stopped."""
        return lane_id in self.dead_lanes

    def fail_lane(self, lane_id: int) -> int:
        """Lane fail-stop: quiesce and write off ``lane_id``.

        The lane's in-flight task (if any) drains normally — its results
        are already streaming — but the backlog on its queue is rescued
        and re-dispatched onto surviving lanes by the normal work-aware
        policy (:meth:`_candidates` excludes dead lanes from here on).
        Returns the number of rescued tasks; raises
        :class:`~repro.sim.faults.UnrecoverableFault` when no lane
        survives to take the work.
        """
        if lane_id in self.dead_lanes:
            return 0
        self.dead_lanes.add(lane_id)
        self.sanitizer.lane_failed(lane_id, self.env.now)
        if len(self.dead_lanes) >= self.num_lanes:
            raise UnrecoverableFault(
                "lane-fail-stop",
                f"lane {lane_id} failed and no lane survives to absorb "
                f"its work", lane=lane_id, cycle=self.env.now)
        queue = self.queues[lane_id]
        rescued: list[Task] = []
        while queue.level:
            rescued.append(queue.pop_newest())
        for task in reversed(rescued):  # preserve the queue's FIFO order
            self.requeue(task)
        self.kick()
        return len(rescued)

    def requeue(self, task: Task) -> None:
        """Return a dispatched-but-unstarted task to the ready pool.

        Undoes the placement bookkeeping so the next dispatch is the
        task's single live placement (the sanitizer's conservation rules
        track the requeue rather than exempting it).
        """
        lane = task.lane_id
        if lane is not None:
            self.pending_work[lane] -= task.work + self.config.work_overhead
            self.pending_count[lane] -= 1
        self.sanitizer.task_requeued(task, lane, self.env.now)
        self.counters.add("recovery.redispatched")
        task.lane_id = None
        self.pool.append(task)
        self._note_pool()
        self.kick()

    def queue_snapshot(self) -> str:
        """One-line per-lane dispatcher state for stall diagnostics."""
        parts = []
        for i, queue in enumerate(self.queues):
            state = "dead" if i in self.dead_lanes \
                else f"{queue.level} queued"
            parts.append(f"lane{i}: {state}, "
                         f"{self.pending_count[i]} pending, "
                         f"work {self.pending_work[i]:,.0f}")
        return "; ".join(parts)

    # -- stealing ----------------------------------------------------------------

    def try_steal(self, thief_lane: int):
        """Generator: an idle lane steals from a policy-chosen victim.

        Only active under a stealing policy (``policy.steals``): the
        policy picks the victim *before* the steal latency is paid and
        sizes the haul *after* it elapsed (the victim's backlog may have
        drained meanwhile — classic steal-half semantics). Returns the
        number of tasks stolen. A fail-stopped lane neither steals (the
        guard here) nor gets chosen as victim (the policy's alive
        filter), so no work is ever credited to a dead lane.
        """
        if not self.policy.steals or thief_lane in self.dead_lanes:
            return 0
        if self.config.sched_stats:
            self.counters.add("sched.steal_attempts")
        victim = self.policy.choose_victim(self, thief_lane)
        if victim is None:
            return 0
        yield self.env.timeout(self.config.steal_cycles)
        self.counters.add("dispatch.steals")
        victim_q = self.queues[victim]
        count = self.policy.steal_count(self, victim_q.level)
        stolen: list[Task] = []
        for _ in range(count):
            if victim_q.level == 0:
                break
            stolen.append(victim_q.pop_newest())  # steal from the tail
        overhead = self.config.work_overhead
        for task in stolen:
            self.pending_work[victim] -= task.work + overhead
            self.pending_count[victim] -= 1
            self.pending_work[thief_lane] += task.work + overhead
            self.pending_count[thief_lane] += 1
            task.lane_id = thief_lane
            self.sanitizer.task_stolen(task, victim, thief_lane,
                                       self.env.now)
            yield self.queues[thief_lane].put(task)
        if stolen and self.config.sched_stats:
            self.counters.add("sched.steal_hits")
        return len(stolen)
