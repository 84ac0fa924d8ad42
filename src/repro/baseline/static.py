"""The static-parallel baseline: same datapath, no task hardware.

This models how the same program runs on an *equivalent static-parallel
design* — identical lanes, scratchpads, NoC and DRAM (the shared
:class:`repro.machine.Machine` composition), but:

- work is partitioned **statically** (a block split of each phase's task
  list, oblivious to per-task work);
- phases are separated by **barriers** (phase *k+1* starts only when every
  lane has finished phase *k*), so producer→consumer parallelism across
  phases is impossible;
- every task fetches its own inputs — shared regions are fetched once *per
  task* (no multicast), and inter-task data always takes the
  DRAM round trip (producer writes, consumer re-reads).

The task set itself is identical to what Delta executes: the program is
elaborated once through :func:`repro.graph.recover_structure` (the same
functional expansion, plus validation and typed edges) and the baseline
partitions the IR's barrier phases. That sharing is what makes the
comparison apples-to-apples.
"""

from __future__ import annotations

from typing import Generator, Optional, Union

from repro.arch.config import MachineConfig
from repro.arch.lane import Lane
from repro.core.program import Program, partition_block
from repro.core.task import Task
from repro.graph.ir import TaskGraph, recover_structure
from repro.machine import Machine, RunResult, RunSession
from repro.sim import Store
from repro.sim.faults import UnrecoverableFault
from repro.sim.trace import NullTracer, Tracer


class StaticParallel:
    """Simulator for the static-parallel baseline."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config

    def recover(self, program: Program) -> TaskGraph:
        """Recover ``program``'s structure for :meth:`run` (every kernel
        runs, mutating its state). ``compare()`` also derives Delta's
        scheduling hints from this graph, so a point recovers once."""
        return recover_structure(program)

    def run(self, program: Union[Program, TaskGraph],
            max_cycles: Optional[float] = None,
            trace: bool = False) -> RunResult:
        """Recover the program's structure, block-split each of the IR's
        barrier phases across the lanes
        (:func:`~repro.core.program.partition_block`), and simulate. A
        graph from :meth:`recover` stands in for the program. The
        configured dispatch policy plays no part: a static schedule has
        no dispatcher.
        """
        graph = (program if isinstance(program, TaskGraph)
                 else self.recover(program))
        machine = Machine.build(self.config,
                                tracer=Tracer() if trace else NullTracer(),
                                multicast_enabled=False)
        return _StaticRun(machine, graph).run(max_cycles)


class _StaticRun:
    """The static phase schedule of one recovered task graph."""

    def __init__(self, machine: Machine, graph: TaskGraph) -> None:
        self.machine = machine
        self.config = machine.config
        self.graph = graph
        self.tracer = machine.tracer
        self.env = machine.env
        self.counters = machine.counters
        self.lanes = machine.lanes
        self.sanitizer = machine.sanitizer
        self.injector = machine.injector
        self.session = RunSession(machine, "static",
                                  graph.program.name,
                                  graph.program.state)
        #: Tasks stranded on a failed lane, awaiting the repair pass.
        self._orphans: list[Task] = []
        self._lost_lanes: set[int] = set()
        self._finish_cycle = 0.0

    def run(self, max_cycles: Optional[float]) -> RunResult:
        """Run the phase schedule to completion and collect results."""
        # The static schedule has no dispatcher; the whole task set is
        # known up front. Register it with the sanitizer (``counted=False``
        # — no dispatch.* counters to cross-check) so conservation and
        # dependence legality are enforced here too.
        for task in self.graph.tasks:
            self.sanitizer.task_submitted(task, 0.0, counted=False)
        done = self.env.process(self._main(), name="static-main")
        self.session.run_until_complete(
            max_cycles,
            finished=lambda: done.triggered,
            stall_detail=lambda: (
                f"with {len(self.graph.tasks) - self.session.tasks_executed}"
                f" of {len(self.graph.tasks)} tasks unfinished"))
        # The schedule's end time, not ``env.now``: a pending fault timer
        # (e.g. a lane failure scheduled past the program's end) may drain
        # after the last barrier and must not inflate the cycle count.
        return self.session.result(cycles=self._finish_cycle)

    def _main(self) -> Generator:
        for phase_index, phase in enumerate(self.graph.phases):
            if not phase:
                continue
            assignments = partition_block(phase, self.config.lanes)
            workers = []
            for lane, tasks in zip(self.lanes, assignments):
                if tasks:
                    workers.append(self.env.process(
                        self._lane_phase(lane, tasks),
                        name=f"static:{lane.name}:p{phase_index}"))
            # The barrier: every lane finishes before the next phase.
            phase_start = self.env.now
            yield self.env.all_of(workers)
            self.counters.add("static.barriers")
            if self.injector.enabled:
                yield from self._repair_phase(phase_index)
            self.tracer.span("phase", f"phase{phase_index}", "machine",
                             phase_start, self.env.now,
                             tasks=len(phase))
        self._finish_cycle = self.env.now

    def _lane_phase(self, lane: Lane, tasks: list[Task]) -> Generator:
        for index, task in enumerate(tasks):
            if (self.injector.enabled
                    and self.injector.lane_failed_by(lane.lane_id,
                                                     self.env.now)):
                # Fail-stop at a task boundary (quiesce): the rest of this
                # lane's partition is stranded until the repair pass.
                self._mark_lane_lost(lane.lane_id)
                for orphan in tasks[index:]:
                    self.sanitizer.task_requeued(orphan, lane.lane_id,
                                                 self.env.now)
                    self.counters.add("recovery.redispatched")
                self._orphans.extend(tasks[index:])
                return
            task.lane_id = lane.lane_id
            self.sanitizer.task_dispatched(task, lane.lane_id,
                                           self.env.now, counted=False)
            yield from self._execute(lane, task)

    def _mark_lane_lost(self, lane_id: int) -> None:
        if lane_id in self._lost_lanes:
            return
        self._lost_lanes.add(lane_id)
        self.counters.add("faults.injected")
        self.counters.add("faults.lane_failstop")
        self.counters.add("recovery.lanes_lost")
        self.sanitizer.lane_failed(lane_id, self.env.now)

    def _repair_phase(self, phase_index: int) -> Generator:
        """Software recovery pass — the barrier cliff.

        The static schedule cannot re-balance: a surviving lane serially
        re-runs every orphaned task while the rest of the machine idles at
        the barrier, paying a per-task software re-partitioning backoff on
        top. (Contrast the dispatcher's :meth:`fail_lane`, which folds a
        dead lane's backlog into normal work-aware placement.)"""
        backoff = self.injector.plan.retry.backoff_cycles
        while self._orphans:
            orphans, self._orphans = self._orphans, []
            repair = self._repair_lane()
            if repair is None:
                raise UnrecoverableFault(
                    "lane-fail-stop",
                    f"no surviving lane to re-run {len(orphans)} orphaned "
                    f"tasks of phase {phase_index}",
                    task=orphans[0].name, cycle=self.env.now)
            cost = backoff * len(orphans)
            if cost:
                self.counters.add("recovery.recovery_cycles", cost)
                yield self.env.timeout(cost)
            yield self.env.process(
                self._lane_phase(repair, orphans),
                name=f"repair:{repair.name}:p{phase_index}")

    def _repair_lane(self) -> Optional[Lane]:
        """The first lane still alive right now, or None."""
        for lane in self.lanes:
            if not self.injector.lane_failed_by(lane.lane_id,
                                                self.env.now):
                return lane
        return None

    def _execute(self, lane: Lane, task: Task) -> Generator:
        t_begin = self.env.now
        self.sanitizer.lane_acquired(lane.lane_id, task, t_begin)
        self.sanitizer.task_started(task, lane.lane_id, t_begin,
                                    pipelining=False)
        mapping = yield from lane.configure(task.type.dfg)
        self.counters.add(f"tasks.{task.type.name}")

        if self.injector.enabled:
            yield from self.session.ride_out_task_faults(lane, task,
                                                         mapping)

        procs = []
        in_streams: list[tuple[Store, int]] = []
        chunks_of = lane.streams.chunk_count
        for spec in task.reads:
            store = Store(self.env, capacity=8, name=f"{task.name}.in")
            if spec.shared:
                # No multicast: every task pays its own fetch.
                self.counters.add("static.duplicate_shared_bytes",
                                  spec.nbytes)
            procs.append(lane.streams.stream_in(
                spec.nbytes, spec.locality, dest_store=store,
                close_dest=True))
            in_streams.append((store, chunks_of(spec.nbytes)))
        for producer in task.stream_from:
            # Inter-task data always round-trips through DRAM.
            nbytes = producer.write_bytes
            if nbytes > 0:
                store = Store(self.env, capacity=8, name=f"{task.name}.dep")
                procs.append(lane.streams.stream_in(
                    nbytes, 1.0, dest_store=store, close_dest=True))
                in_streams.append((store, chunks_of(nbytes)))

        out_stores: list[Store] = []
        write_bytes = task.write_bytes
        if write_bytes > 0:
            out = Store(self.env, capacity=8, name=f"{task.name}.out")
            out_stores.append(out)
            locality = task.writes[0].locality if task.writes else 1.0
            procs.append(lane.streams.stream_out(
                write_bytes, locality, src_store=out))

        yield lane.run_pipeline(mapping, task.trips, in_streams, out_stores)
        yield self.env.all_of(procs + self.session.drain(in_streams))
        self.tracer.span("task", task.name, lane.name, t_begin,
                         self.env.now, type=task.type.name)
        self.sanitizer.compute_expected(
            lane.lane_id, task, mapping.compute_cycles(task.trips))
        self.session.task_completed()
        task.completed = True
        self.sanitizer.task_completed(task, lane.lane_id, self.env.now,
                                      counted=False)
        self.sanitizer.lane_released(lane.lane_id, task, self.env.now)
