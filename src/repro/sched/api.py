"""The scheduling-policy seam: protocol, registry, and structure hints.

TaskStream's dispatcher used to hardwire one work-aware policy (plus
steal/round-robin/random as inline string branches). This module makes
the policy a first-class, pluggable object:

- :class:`SchedulingPolicy` — the protocol a policy implements: a
  ready-pool ordering + lane-selection hook (:meth:`~SchedulingPolicy.
  select`), steal hooks (:meth:`~SchedulingPolicy.choose_victim` /
  :meth:`~SchedulingPolicy.steal_count`), and an optional
  recovered-structure attach point (:meth:`~SchedulingPolicy.attach`).
- a **name-keyed registry** — :func:`register_policy`,
  :func:`create_policy`, :func:`policy_names`. Config validation
  (``DispatchConfig``) and the CLI ``--policy`` choices both derive from
  it, so registering a policy is the single step that makes it runnable
  everywhere (``repro run --policy ...``, sweeps, the tournament).
- :class:`StructureHints` — the pure-data digest of a recovered
  :class:`~repro.graph.ir.TaskGraph` that structure-aware policies
  consume. Hints are keyed by *stable* task coordinates (type name ×
  dependence depth), never by task ids: ids are process-global, and
  the graph hints come from is always recovered from another
  ``build_program()`` instance than the one Delta runs (recovering
  structure executes kernels), which numbers its tasks differently.

This module deliberately imports nothing above :mod:`repro.util` at
module scope so that :mod:`repro.core` can depend on the seam without a
cycle; the built-in policies (:mod:`repro.sched.policies`) load lazily on
first registry access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # circular-import-free type names
    from repro.arch.config import DispatchConfig, FeatureFlags
    from repro.core.dispatcher import Dispatcher
    from repro.core.task import Task
    from repro.util.rng import DeterministicRng

__all__ = [
    "SchedulingPolicy",
    "StructureHints",
    "create_policy",
    "policy_names",
    "policy_uses_structure",
    "register_policy",
]


# -- structure hints ---------------------------------------------------------

#: A stable task coordinate: (task type name, dependence depth). Unlike
#: ``task_id`` (a process-global counter) this survives rebuilding the
#: program, which hint recovery must do — running the kernels mutates
#: program state, so hints always come from another build.
TaskKey = tuple[str, int]


@dataclass(frozen=True)
class StructureHints:
    """Pure-data scheduling hints from one recovered task graph.

    ``priority`` maps each task coordinate to the **bottom level** of its
    group — the longest remaining dependence path (task work included)
    from any group member to a graph sink, under the typed-edge timing
    semantics of :func:`repro.graph.analyses.bottom_levels`.
    ``phase_sizes[d]`` is the task count of barrier phase ``d`` (tasks at
    dependence depth ``d``); ``total_work``/``cp_work`` are T1/T∞.
    """

    program: str = ""
    priority: Mapping[TaskKey, float] = field(default_factory=dict)
    phase_sizes: tuple[int, ...] = ()
    total_work: float = 0.0
    cp_work: float = 0.0
    task_count: int = 0

    @property
    def parallelism(self) -> float:
        """Inherent parallelism T1/T∞ (the graph layer's
        :func:`~repro.graph.analyses.inherent_parallelism`)."""
        from repro.graph.analyses import inherent_parallelism

        return inherent_parallelism(self.total_work, self.cp_work,
                                    self.task_count)

    @property
    def mean_task_work(self) -> float:
        """Average task work estimate (0 for an empty graph)."""
        if self.task_count <= 0:
            return 0.0
        return self.total_work / self.task_count


# -- the policy protocol -----------------------------------------------------

class SchedulingPolicy:
    """Base class every dispatch policy extends.

    A policy owns two decisions the dispatcher used to hardwire:

    1. **Pool ordering + lane selection** — :meth:`select` picks the next
       ``(task, lane)`` pair from the dispatcher's ready pool (and must
       remove the task from ``dispatcher.pool``), or returns None to wait.
       The dispatcher keeps everything else: readiness tracking, dispatch
       serialization, queue put/get, bookkeeping, fault recovery.
    2. **Steal behavior** — :meth:`choose_victim` (before the steal
       latency is paid) and :meth:`steal_count` (after). Policies with
       ``steals = False`` never see either call.

    Policies are bound once per run (:meth:`bind`) and optionally handed
    recovered-structure hints (:meth:`attach`); both reset all policy
    state, so a fresh bind is deterministic regardless of prior use.
    Decision hooks must not touch the event loop — they are plain calls
    inside the dispatch process, so a policy cannot perturb timing beyond
    the decisions themselves.
    """

    #: Registry key; also the ``DispatchConfig.policy`` spelling.
    name = ""
    #: Whether :meth:`attach` benefits from recovered-structure hints
    #: (drives whether callers pay for a structure recovery).
    uses_structure = False
    #: Whether idle lanes should attempt steals under this policy.
    steals = False

    def __init__(self) -> None:
        self.config: Optional["DispatchConfig"] = None
        self.features: Optional["FeatureFlags"] = None
        self.rng: Optional["DeterministicRng"] = None
        self.num_lanes = 0
        self.hints: Optional[StructureHints] = None
        #: Idle-lane backoff cycles between failed steal attempts.
        self.idle_backoff = 16
        self._rr_next = 0

    # -- lifecycle -----------------------------------------------------------

    def bind(self, config: "DispatchConfig", num_lanes: int,
             features: Optional["FeatureFlags"] = None,
             rng: Optional["DeterministicRng"] = None) -> None:
        """Bind to one run's machine shape; resets all policy state."""
        self.config = config
        self.num_lanes = num_lanes
        self.features = features
        self.rng = rng
        self.hints = None
        self.idle_backoff = 16
        self._rr_next = 0
        self._bound()

    def _bound(self) -> None:
        """Subclass hook: recompute bind-derived state."""

    def attach(self, hints: Optional[StructureHints]) -> None:
        """Attach recovered-structure hints (None clears them).

        Every policy must keep working without hints — attach is an
        optimization channel, not a requirement — so structure recovery
        failures degrade to hint-free scheduling, never to an error.
        """
        self.hints = hints
        self._attached()

    def _attached(self) -> None:
        """Subclass hook: recompute hint-derived state."""

    # -- dispatch hooks ------------------------------------------------------

    def select(self, d: "Dispatcher") -> Optional[tuple["Task", int]]:
        """Pick-and-remove the next pool task and its lane, or None."""
        raise NotImplementedError

    # -- steal hooks ---------------------------------------------------------

    def choose_victim(self, d: "Dispatcher",
                      thief_lane: int) -> Optional[int]:
        """The lane to steal from, or None to skip (no latency paid)."""
        return None

    def steal_count(self, d: "Dispatcher", victim_level: int) -> int:
        """How many tasks to take, given the victim's queue level *after*
        the steal latency elapsed (the classic steal-half rule)."""
        return max(1, victim_level // 2)

    # -- shared helpers ------------------------------------------------------

    def _naive_select(self, d: "Dispatcher") -> tuple["Task", int]:
        """FIFO pool drain + eager placement via the dispatcher's
        ``_choose_naive`` seam (kept monkeypatchable for the metamorphic
        lane-permutation tests)."""
        task = d.pool.pop(0)
        return task, d._choose_naive(task)

    def choose_lane(self, d: "Dispatcher", task: "Task") -> int:
        """Eagerly place one task (the naive-policy lane choice)."""
        candidates = d.candidates(task)
        free = [i for i in candidates
                if d.queues[i].level < d.config.queue_depth]
        if free:
            candidates = free
        return self._place(d, candidates)

    def _place(self, d: "Dispatcher", candidates: list[int]) -> int:
        """Round-robin over the candidate lanes (task-count balancing)."""
        for _ in range(d.num_lanes):
            lane = self._rr_next
            self._rr_next = (self._rr_next + 1) % d.num_lanes
            if lane in candidates:
                return lane
        return candidates[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


# -- the registry ------------------------------------------------------------

_REGISTRY: dict[str, type] = {}
_BUILTINS_LOADED = False


def register_policy(cls: type) -> type:
    """Class decorator: add a :class:`SchedulingPolicy` to the registry.

    The class's ``name`` becomes its config/CLI spelling. Re-registering
    the same class is a no-op; claiming another class's name is an error.
    """
    name = getattr(cls, "name", "")
    if not name or not isinstance(name, str):
        raise ValueError(f"policy class {cls.__name__} needs a non-empty "
                         f"string `name`")
    current = _REGISTRY.get(name)
    if current is not None and current is not cls:
        raise ValueError(f"policy name {name!r} already registered by "
                         f"{current.__name__}")
    _REGISTRY[name] = cls
    return cls


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        # Importing the module runs its @register_policy decorators.
        import repro.sched.policies  # noqa: F401


def policy_names() -> tuple[str, ...]:
    """Every registered policy name, sorted (the single source of truth
    for ``DispatchConfig`` validation and the CLI ``--policy`` choices)."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def create_policy(name: str) -> SchedulingPolicy:
    """Instantiate a registered policy (fresh, unbound)."""
    _ensure_builtins()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown scheduling policy {name!r}; registered: "
                       f"{', '.join(sorted(_REGISTRY))}") from None
    return cls()


def policy_uses_structure(name: str) -> bool:
    """Whether ``name`` wants recovered-structure hints attached (lets
    callers skip the structure recovery for online-only policies)."""
    _ensure_builtins()
    cls = _REGISTRY.get(name)
    return bool(cls is not None and cls.uses_structure)
