"""The built-in scheduling policies.

Four are the legacy dispatcher behaviors re-expressed on the policy seam
— bit-identical to the inline string branches they replace (the golden
fingerprints enforce this for the default):

- ``work-aware`` — TaskStream's policy: LPT pool order with late binding
  to the least-loaded lane (plus the config-affinity extension).
- ``round-robin`` — FIFO pool, task-count balancing.
- ``random`` — FIFO pool, uniform random lane choice.
- ``steal`` — round-robin placement; idle lanes steal half the richest
  queue (the software-runtime stand-in).

Four are the HPDC'23/Taskflow family the policy tournament studies:

- ``critical-path`` — pool ordered by bottom level (longest remaining
  dependence path, from :func:`repro.graph.analyses.bottom_levels` via
  attached :class:`~repro.sched.api.StructureHints`), late-bound to the
  least-loaded lane. Falls back to work-hint priority without hints.
- ``streaming-depth-first`` — pipeline-respecting depth-first order:
  consumers whose stream producers are in flight dispatch first (they
  can overlap), then deeper tasks before shallower ones. Purely online —
  it reads producer state, not recovered structure.
- ``block-partition`` — the static baseline's spatial/temporal blocks as
  a dynamic policy: each barrier phase (dependence depth) is block-split
  across lanes using the *same* splitter the static schedule uses, with
  arrival order standing in for spawn order. Falls back to cyclic
  placement per depth without hints.
- ``steal-tuned`` — ``steal`` with the victim threshold and idle backoff
  set from the parallelism profile: don't pay the steal latency for a
  backlog that cannot amortize it, back off harder when the program has
  little slack parallelism.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.core.program import partition_block
from repro.sched.api import SchedulingPolicy, register_policy

if TYPE_CHECKING:
    from repro.core.dispatcher import Dispatcher
    from repro.core.task import Task


# -- the legacy four ---------------------------------------------------------

@register_policy
class WorkAwarePolicy(SchedulingPolicy):
    """TaskStream's work-aware least-loaded policy (LPT + late binding).

    Walks the pool largest-work-first and binds a task only to a lane
    whose queue is nearly empty (``Dispatcher.LOW_WATER``) — late binding
    is what lets the largest remaining task land on the least-loaded lane
    instead of committing everything in arrival order at time zero. With
    the ``config_affinity`` extension it additionally prefers a candidate
    lane already holding the task's fabric configuration. With
    ``work_aware_lb`` ablated it degrades to the naive round-robin path.
    """

    name = "work-aware"

    def select(self, d: "Dispatcher") -> Optional[tuple["Task", int]]:
        if not d.pool:
            return None
        if not (d.features and d.features.work_aware_lb):
            return self._naive_select(d)
        fallback: Optional[tuple["Task", int]] = None
        passed_over = 0
        for task in sorted(d.pool, key=lambda t: -t.work):
            candidates = [i for i in d.candidates(task)
                          if d.queues[i].level < d.LOW_WATER]
            if not candidates:
                if fallback is None:
                    passed_over += 1
                continue
            if fallback is None:
                fallback = (task, d.least_loaded(candidates))
                if not d.features.config_affinity:
                    break
            if d.features.config_affinity:
                lane = d.affinity_lane(candidates, task)
                if lane is not None:
                    d.counters.add("dispatch.affinity_matches")
                    d.pool.remove(task)
                    return task, lane
        if fallback is not None:
            d.pool.remove(fallback[0])
            if passed_over and d.sched_stats:
                d.note_inversion()
        return fallback


@register_policy
class RoundRobinPolicy(SchedulingPolicy):
    """FIFO pool, round-robin lane choice (task-count balancing)."""

    name = "round-robin"

    def select(self, d: "Dispatcher") -> Optional[tuple["Task", int]]:
        if not d.pool:
            return None
        return self._naive_select(d)


@register_policy
class RandomPolicy(SchedulingPolicy):
    """FIFO pool, uniform random lane choice (the floor baseline)."""

    name = "random"

    def select(self, d: "Dispatcher") -> Optional[tuple["Task", int]]:
        if not d.pool:
            return None
        return self._naive_select(d)

    def _place(self, d: "Dispatcher", candidates: list[int]) -> int:
        return d.rng.choice(candidates)


@register_policy
class StealPolicy(RoundRobinPolicy):
    """Round-robin placement; idle lanes steal from the richest queue.

    The victim is the *alive* lane with the most queued (not running)
    tasks — identical to the legacy inline branch on fault-free runs,
    where every lane is alive, but a fail-stopped lane is never chosen
    (nor allowed to act as the thief; the dispatcher enforces that side).
    """

    name = "steal"
    steals = True

    def choose_victim(self, d: "Dispatcher",
                      thief_lane: int) -> Optional[int]:
        # One pass: the first alive lane with the most queued tasks.
        dead = d.dead_lanes
        victim, richest = None, -1
        for lane, queue in enumerate(d.queues):
            level = queue.level
            if level > richest and lane not in dead:
                victim, richest = lane, level
        if victim is None or victim == thief_lane \
                or self._too_poor(d, victim):
            return None
        return victim

    def _too_poor(self, d: "Dispatcher", victim: int) -> bool:
        """Whether the victim's backlog is not worth the steal latency."""
        return d.queues[victim].level == 0


# -- the tournament family ---------------------------------------------------

@register_policy
class CriticalPathPolicy(SchedulingPolicy):
    """Bottom-level priority dispatch (HPDC'23-style list scheduling).

    The pool is ordered by each task's longest remaining dependence path
    (its group's bottom level from the attached hints), so work feeding
    the critical chain dispatches ahead of slack work; lanes are bound
    late exactly like work-aware. Without hints the work estimate stands
    in for the bottom level (a task's own work is a lower bound on it).
    """

    name = "critical-path"
    uses_structure = True

    def _bound(self) -> None:
        self._priority = {}

    def _attached(self) -> None:
        self._priority = dict(self.hints.priority) if self.hints else {}

    def priority_of(self, task: "Task") -> float:
        return self._priority.get((task.type.name, task.depth), task.work)

    def select(self, d: "Dispatcher") -> Optional[tuple["Task", int]]:
        if not d.pool:
            return None
        chosen: Optional[tuple["Task", int]] = None
        passed_over = 0
        for task in sorted(d.pool, key=lambda t: -self.priority_of(t)):
            candidates = [i for i in d.candidates(task)
                          if d.queues[i].level < d.LOW_WATER]
            if not candidates:
                passed_over += 1
                continue
            chosen = (task, d.least_loaded(candidates))
            break
        if chosen is None:
            return None
        d.pool.remove(chosen[0])
        if passed_over and d.sched_stats:
            d.note_inversion()
        return chosen


@register_policy
class StreamingDepthFirstPolicy(SchedulingPolicy):
    """Depth-first, pipeline-respecting pool order (streaming schedules).

    Consumers whose stream producers are *in flight* dispatch first —
    placing them now is what converts a recovered stream edge into actual
    producer/consumer overlap instead of a buffered handoff. Among the
    rest, deeper tasks beat shallower ones (depth-first keeps a spawn
    chain hot on chip rather than sweeping breadth-first). Ties keep
    arrival order; lanes are bound late like work-aware.
    """

    name = "streaming-depth-first"

    @staticmethod
    def _pool_key(task: "Task") -> tuple[int, int]:
        live_producer = any(p.started and not p.completed
                            for p in task.stream_from)
        return (0 if live_producer else 1, -task.depth)

    def select(self, d: "Dispatcher") -> Optional[tuple["Task", int]]:
        if not d.pool:
            return None
        chosen: Optional[tuple["Task", int]] = None
        passed_over = 0
        for task in sorted(d.pool, key=self._pool_key):
            candidates = [i for i in d.candidates(task)
                          if d.queues[i].level < d.LOW_WATER]
            if not candidates:
                passed_over += 1
                continue
            chosen = (task, d.least_loaded(candidates))
            break
        if chosen is None:
            return None
        d.pool.remove(chosen[0])
        if passed_over and d.sched_stats:
            d.note_inversion()
        return chosen


@register_policy
class BlockPartitionPolicy(SchedulingPolicy):
    """The static schedule's spatial/temporal blocks, played dynamically.

    Each barrier phase (= dependence depth) is block-split across lanes
    with the splitter the static baseline uses
    (:func:`~repro.core.program.partition_block` on a synthetic index
    list), and the *n*-th arriving task of a depth
    takes the lane of block slot *n*. Temporal structure (phases) maps to
    time, spatial structure (the block) to lanes — the HPDC'23 spatial
    partitioning scheme. Without hints the phase sizes are unknown, so
    placement degrades to cyclic within each depth. A target lane that is
    dead or excluded (e.g. it holds the task's in-flight stream producer)
    falls back to the least-loaded eligible lane.
    """

    name = "block-partition"
    uses_structure = True

    def _bound(self) -> None:
        #: depth -> tasks of that depth seen so far (arrival index).
        self._arrived: dict[int, int] = {}
        self._slot_lane: dict[int, list[int]] = {}

    def _attached(self) -> None:
        self._arrived = {}
        self._slot_lane = {}
        if self.hints is None:
            return
        for depth, size in enumerate(self.hints.phase_sizes):
            blocks = partition_block(list(range(size)), self.num_lanes)
            lanes = [0] * size
            for lane, slots in enumerate(blocks):
                for slot in slots:
                    lanes[slot] = lane
            self._slot_lane[depth] = lanes

    def select(self, d: "Dispatcher") -> Optional[tuple["Task", int]]:
        if not d.pool:
            return None
        task = d.pool.pop(0)
        index = self._arrived.get(task.depth, 0)
        self._arrived[task.depth] = index + 1
        slots = self._slot_lane.get(task.depth)
        if slots is not None and index < len(slots):
            lane = slots[index]
        else:
            lane = index % d.num_lanes
        candidates = d.candidates(task)
        if lane not in candidates:
            lane = d.least_loaded(candidates)
        return task, lane


@register_policy
class StealTunedPolicy(StealPolicy):
    """Work stealing tuned by the parallelism profile (Taskflow-style).

    Two knobs move off their fixed defaults when hints attach:

    - **victim threshold** — a steal only pays when the expected haul
      (half the backlog, at the program's mean task cost including the
      per-task overhead) amortizes ``steal_cycles``; victims below the
      threshold are skipped without paying the latency.
    - **idle backoff** — idle lanes poll once per ``steal_cycles/3``
      instead of the fixed 16 cycles, and twice that when the program's
      inherent parallelism cannot cover the lane count anyway (starved
      lanes are expected, so polling harder only burns dispatch slots).
    """

    name = "steal-tuned"
    uses_structure = True

    def _bound(self) -> None:
        self._threshold = 1

    def _attached(self) -> None:
        self._threshold = 1
        self.idle_backoff = 16
        hints = self.hints
        if hints is None or hints.task_count <= 0 or self.config is None:
            return
        cost = hints.mean_task_work + self.config.work_overhead
        self._threshold = max(
            1, math.ceil(2.0 * self.config.steal_cycles / max(cost, 1.0)))
        backoff = max(4, int(self.config.steal_cycles) // 3)
        if hints.parallelism < self.num_lanes:
            backoff *= 2
        self.idle_backoff = backoff

    def _too_poor(self, d: "Dispatcher", victim: int) -> bool:
        return d.queues[victim].level < self._threshold
