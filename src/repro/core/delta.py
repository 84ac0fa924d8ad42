"""Delta: TaskStream applied to a reconfigurable dataflow accelerator.

Delta is a *hierarchical dataflow* machine: coarse-grained dataflow between
tasks (streams, recovered from dependence annotations) and fine-grained
dataflow inside a task (the CGRA lane executing the task's DFG).

The datapath itself — lanes, NoC, DRAM, scratchpads — is composed by
:class:`repro.machine.Machine`, shared verbatim with the static-parallel
baseline. This module contributes only the TaskStream execution model on
top of it: the hardware dispatcher, the multicast manager, and the
lane-to-lane stream channels.

The run loop:

1. Initial tasks are submitted to the :class:`~repro.core.dispatcher.
   Dispatcher`, which tracks readiness and places ready tasks on lane
   queues under the configured balancing policy.
2. Each lane runs a worker process: pop a task, reconfigure if needed, run
   the functional kernel (which spawns children), set up data movement,
   and execute the compute pipeline.
3. Data movement exploits recovered structure where the feature flags
   allow: shared reads go through the multicast manager; producer→consumer
   streams bypass DRAM through lane-to-lane channels; everything else
   streams to/from memory.

Every mechanism is gated by :class:`~repro.arch.config.FeatureFlags`, which
is how the ablation experiments (figure F2) switch them off one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.arch.config import MachineConfig
from repro.arch.lane import Lane
from repro.arch.noc import MEM_NODE
from repro.core.dispatcher import Dispatcher
from repro.core.multicast import MulticastManager
from repro.core.program import Program
from repro.core.task import Task, run_kernel
from repro.machine import ExecutionStalled, Machine, RunResult, RunSession
from repro.sched.api import StructureHints
from repro.sim import Store
from repro.sim.faults import LaneFailure, UnrecoverableFault
from repro.sim.trace import NullTracer, Tracer
from repro.util.rng import DeterministicRng

__all__ = ["Delta", "ExecutionStalled"]


@dataclass
class _Channel:
    """A lane-to-lane stream channel for one producer→consumer edge."""

    store: Store
    key: tuple[int, int]
    src_lane: Optional[str] = None


class Delta:
    """The Delta accelerator simulator."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config

    # -- public API ----------------------------------------------------------

    def run(self, program: Program,
            max_cycles: Optional[float] = None,
            trace: bool = False,
            sched_hints: Optional[StructureHints] = None,
            ) -> RunResult:
        """Simulate ``program`` to completion and return the result.

        With ``trace=True`` the result carries a :class:`~repro.sim.trace.
        Tracer` timeline (task spans per lane, reconfigurations, shared
        fetches) exportable to Chrome tracing JSON.

        ``sched_hints`` (see :mod:`repro.sched.structure`) feeds the
        dispatch policy's structure attach point. Recovering structure
        executes kernels, so hints must be digested from the graph of
        another build of the program than ``program``; they are only
        worth computing when :func:`~repro.sched.api.policy_uses_structure`
        says the configured policy reads them.
        """
        machine = Machine.build(self.config,
                                tracer=Tracer() if trace else NullTracer())
        return _DeltaRun(machine, program,
                         sched_hints=sched_hints).run(max_cycles)


class _DeltaRun:
    """The TaskStream execution model over one fresh machine."""

    def __init__(self, machine: Machine, program: Program,
                 sched_hints: Optional[StructureHints] = None,
                 ) -> None:
        self.machine = machine
        self.config = machine.config
        self.program = program
        self.tracer = machine.tracer
        self.env = machine.env
        self.counters = machine.counters
        self.lanes = machine.lanes
        self.noc = machine.noc
        self.dram = machine.dram
        self.rng = DeterministicRng("delta", program.name,
                                    self.config.seed)
        self.features = self.config.features

        self.sanitizer = machine.sanitizer
        self.injector = machine.injector
        self.dispatcher = Dispatcher(
            self.env, self.counters, self.config.dispatch, self.config.lanes,
            self.features, self.rng.fork("dispatch"),
            sanitizer=self.sanitizer)
        if sched_hints is not None:
            self.dispatcher.attach_hints(sched_hints)
        self.mcast = MulticastManager(
            self.env, self.counters, self.noc, self.dram, self.lanes,
            window_cycles=self.config.effective_mcast_window(),
            sanitizer=self.sanitizer, injector=self.injector)
        self.dispatcher.affinity_window = float(
            self.config.lane.config_cycles)
        self.session = RunSession(machine, "delta", program.name,
                                  program.state)
        self._channels: dict[tuple[int, int], _Channel] = {}
        #: task_id -> (prefetch process, lane_id, region name) for the
        #: prefetch extension (double buffering of private reads).
        self._prefetches: dict[int, tuple] = {}

        for lane in self.lanes:
            self.env.process(self._worker(lane), name=f"worker:{lane.name}")
        if self.injector.enabled:
            for failure in self.injector.plan.lane_failures:
                self.env.process(self._lane_failure(failure),
                                 name=f"fault:lane{failure.lane}")

    # -- top level -------------------------------------------------------------

    def run(self, max_cycles: Optional[float]) -> RunResult:
        """Submit the initial tasks, run the event loop, collect results."""
        for task in self.program.initial_tasks:
            self.dispatcher.submit(task)
        self.session.run_until_complete(
            max_cycles,
            finished=lambda: self.dispatcher.drained.triggered,
            stall_detail=lambda: (
                f"with {self.dispatcher.outstanding} tasks outstanding "
                f"(queues: {[q.level for q in self.dispatcher.queues]})\n"
                f"dispatcher: {self.dispatcher.queue_snapshot()}"))
        return self.session.result()

    # -- lane worker -------------------------------------------------------------

    def _worker(self, lane: Lane) -> Generator:
        queue = self.dispatcher.queues[lane.lane_id]
        policy = self.dispatcher.policy
        while True:
            if policy.steals:
                if self.dispatcher.drained.triggered:
                    return
                if self.injector.enabled \
                        and self.dispatcher.is_dead(lane.lane_id):
                    # A fail-stopped lane must not turn thief: stealing
                    # onto a dead queue would strand the haul (the dead
                    # worker requeues one task and goes dark).
                    return
                if queue.level == 0:
                    stolen = yield from self.dispatcher.try_steal(
                        lane.lane_id)
                    if not stolen:
                        yield self.env.timeout(policy.idle_backoff)
                    continue
            task = yield queue.get()
            if self.injector.enabled \
                    and self.dispatcher.is_dead(lane.lane_id):
                # The dispatch raced the fail-stop: the task landed on
                # this queue in the same window the lane died. Hand it
                # back for re-dispatch and go dark.
                self.dispatcher.requeue(task)
                return
            self.dispatcher.kick()  # queue slot freed
            if self.features.prefetch:
                self._maybe_prefetch(lane, queue)
            yield from self._execute(lane, task)

    def _maybe_prefetch(self, lane: Lane, queue: Store) -> None:
        """Prefetch extension: start streaming the *next* queued task's
        private reads into the scratchpad while the popped task runs."""
        head: Optional[Task] = queue.peek()
        if head is None:
            return
        if head.task_id in self._prefetches:
            return
        nbytes = sum(spec.nbytes for spec in head.reads if not spec.shared)
        if nbytes <= 0:
            return
        region = f"pf:{head.task_id}"
        try:
            if lane.spad.free_bytes < nbytes:
                evicted = lane.spad.evict_lru_until(nbytes)
                for victim in evicted:
                    if victim.startswith("pf:"):
                        # Another pending task's prefetch was evicted:
                        # drop its entry so that task streams normally
                        # instead of reading a phantom resident region.
                        self._prefetches.pop(int(victim[3:]), None)
                    else:
                        # A multicast region was evicted; tell the manager.
                        self.mcast.invalidate(victim, lane.lane_id)
            lane.spad.allocate(region, nbytes)
        except Exception:
            return  # does not fit; skip the prefetch
        proc = self.env.process(self._prefetch_pump(lane, nbytes),
                                name=f"prefetch:{head.name}")
        self._prefetches[head.task_id] = (proc, lane.lane_id, region)
        self.counters.add("prefetch.issued")

    def _prefetch_pump(self, lane: Lane, nbytes: float) -> Generator:
        """Low-priority prefetch: only issues a chunk when the DRAM channel
        is near idle, so demand traffic is never delayed."""
        for size in lane.streams.chunks_of(nbytes):
            while self.dram.channel.backlog_cycles > 8:
                yield self.env.timeout(16)
            yield self.dram.fetch(size, 1.0)
            yield self.noc.unicast(MEM_NODE, lane.name, size)
            yield lane.spad.access(size, is_write=True)
        self.counters.add("prefetch.bytes", nbytes)

    # -- task execution ------------------------------------------------------------

    def _execute(self, lane: Lane, task: Task) -> Generator:
        t_begin = self.env.now
        self.sanitizer.lane_acquired(lane.lane_id, task, t_begin)
        if lane.config.task_overhead_cycles:
            # Software-runtime regime: dequeue + closure-call cost.
            yield self.env.timeout(lane.config.task_overhead_cycles)
            self.counters.add("runtime.task_overhead_cycles",
                              lane.config.task_overhead_cycles)
        was_configured = lane.configured_for(task.type.dfg)
        mapping = yield from lane.configure(task.type.dfg)
        if not was_configured and self.env.now > t_begin:
            self.tracer.span("config", task.type.dfg.name, lane.name,
                             t_begin, self.env.now)
        self.counters.add(f"tasks.{task.type.name}")

        # Functional execution: the kernel does the real computation and
        # spawns children. It must run *before* the started event fires —
        # stream consumers become ready on producer start, and their
        # kernels may read state this kernel writes.
        spawned = run_kernel(task, self.program.state)
        self.dispatcher.task_started(task)
        # Submitting spawns immediately lets pipelined consumers
        # co-schedule with their producers.
        for child in spawned:
            self.dispatcher.submit(child)

        if self.injector.enabled:
            yield from self.session.ride_out_task_faults(lane, task,
                                                         mapping)

        procs = []
        in_streams: list[tuple[Store, int]] = []
        chunks_of = lane.streams.chunk_count

        # Prefetch extension: if this task's private reads were prefetched
        # onto *this* lane, wait out any remaining transfer time and serve
        # them from the scratchpad.
        prefetch = self._prefetches.pop(task.task_id, None)
        prefetched_here = False
        prefetch_region = None
        pf_proc = None
        if prefetch is not None:
            pf_proc, pf_lane, prefetch_region = prefetch
            if pf_lane == lane.lane_id:
                prefetched_here = True
                self.counters.add("prefetch.used")
            else:
                # Stolen to a different lane: the prefetch was wasted.
                self.lanes[pf_lane].spad.release(prefetch_region)
                prefetch_region = None
                pf_proc = None
                self.counters.add("prefetch.wasted")

        # 1. Annotated reads: shared regions via multicast (when enabled),
        #    everything else streamed privately from DRAM.
        for spec in task.reads:
            store = Store(self.env, capacity=8,
                          name=f"{task.name}.in")
            if spec.shared and self.features.multicast:
                already = self.mcast.is_resident(spec.region, lane.lane_id)
                yield from self.mcast.ensure(spec.region, spec.nbytes,
                                             spec.locality, lane.lane_id)
                self.tracer.instant(
                    "shared-read", spec.region, lane.name, self.env.now,
                    hit=already, nbytes=spec.nbytes)
                procs.append(lane.streams.read_resident(
                    spec.nbytes, dest_store=store, close_dest=True))
            elif not spec.shared and prefetched_here:
                # Serve from the (possibly still landing) prefetch: wait
                # out the remaining transfer, then read at spad bandwidth —
                # compute overlaps with the wait through the store gating.
                procs.append(self.env.process(
                    self._resident_after(pf_proc, lane, spec.nbytes,
                                         store)))
            else:
                if spec.shared:
                    self.counters.add("mcast.disabled_duplicate_fetches")
                procs.append(lane.streams.stream_in(
                    spec.nbytes, spec.locality, dest_store=store,
                    close_dest=True))
            in_streams.append((store, chunks_of(spec.nbytes)))

        # 2. Stream inputs from producer tasks.
        for producer in task.stream_from:
            if self.features.pipelining:
                channel = self._channel(producer, task)
                store = Store(self.env, capacity=8,
                              name=f"{task.name}.pipe")
                procs.append(self.env.process(
                    self._pull(lane, channel, store, task),
                    name=f"pull:{task.name}"))
                in_streams.append((store, chunks_of(producer.write_bytes)))
            else:
                # Degraded: the producer wrote its output to DRAM; read it
                # back (the memory round trip pipelining would remove).
                nbytes = producer.write_bytes
                if nbytes > 0:
                    store = Store(self.env, capacity=8,
                                  name=f"{task.name}.dep")
                    procs.append(lane.streams.stream_in(
                        nbytes, 1.0, dest_store=store, close_dest=True))
                    in_streams.append((store, chunks_of(nbytes)))

        # 3. Output path: forward to pipelined consumers, else write back.
        out_stores: list[Store] = []
        write_bytes = task.write_bytes
        pipelined_out = (self.features.pipelining
                         and bool(task.stream_consumers))
        if pipelined_out:
            out = Store(self.env, capacity=8, name=f"{task.name}.out")
            out_stores.append(out)
            channels = [self._channel(task, c) for c in task.stream_consumers]
            for channel in channels:
                channel.src_lane = lane.name
            procs.append(self.env.process(
                self._fan_out(out, channels, write_bytes),
                name=f"fanout:{task.name}"))
            self.counters.add("pipe.streams", len(channels))
        elif write_bytes > 0:
            out = Store(self.env, capacity=8, name=f"{task.name}.out")
            out_stores.append(out)
            locality = task.writes[0].locality if task.writes else 1.0
            procs.append(lane.streams.stream_out(
                write_bytes, locality, src_store=out))
            if task.stream_consumers:
                self.counters.add("pipe.disabled_round_trips")

        # 4. Compute.
        yield lane.run_pipeline(mapping, task.trips, in_streams, out_stores)

        # 5. Drain any input tokens the compute did not consume.
        yield self.env.all_of(procs + self.session.drain(in_streams))

        self.tracer.span("task", task.name, lane.name, t_begin,
                         self.env.now, type=task.type.name,
                         trips=task.trips, work=task.work)
        if prefetch_region is not None and prefetched_here:
            lane.spad.release(prefetch_region)
        self.sanitizer.compute_expected(
            lane.lane_id, task, mapping.compute_cycles(task.trips))
        self.session.task_completed()
        self.dispatcher.task_completed(task)
        self.sanitizer.lane_released(lane.lane_id, task, self.env.now)

    # -- stream plumbing ------------------------------------------------------------

    def _channel(self, producer: Task, consumer: Task) -> _Channel:
        """Get or lazily create the channel for one producer→consumer edge.

        Capacity covers the whole stream so a producer never blocks on a
        consumer that has not been placed yet (hardware would spill to
        memory at this point; we let the skid buffer cover it and keep the
        traffic accounting on the pull side).
        """
        key = (producer.task_id, consumer.task_id)
        channel = self._channels.get(key)
        if channel is None:
            chunks = self.lanes[0].streams.chunk_count(producer.write_bytes)
            channel = _Channel(Store(self.env, capacity=chunks + 4,
                                     name=f"ch{key}"), key)
            self._channels[key] = channel
        return channel

    def _fan_out(self, out: Store, channels: list[_Channel],
                 write_bytes: float) -> Generator:
        """Copy compute output tokens into every consumer channel.

        Exactly ``write_bytes`` are forwarded regardless of how many compute
        tokens arrive: compute trip counts and output sizes need not match
        (a leaf sort does n·log n trips but emits n elements). Capping the
        forwarded bytes keeps the put count within the channel capacity, so
        a producer can always run to completion even if its consumer has
        not been scheduled yet — the property that makes pipelined
        dispatch deadlock-free.
        """
        chunk = self.config.lane.stream_chunk_bytes
        sent = 0.0
        while True:
            token = yield out.get()
            if token is Store.END:
                break
            size = min(token * self.config.element_bytes, write_bytes - sent)
            if size > 0:
                for channel in channels:
                    # Record at put-issue time: a waiting consumer resumes
                    # before the put's own done event, so recording after
                    # the yield would misreport a legal read as ahead.
                    self.sanitizer.stream_produced(*channel.key, size,
                                                   self.env.now)
                    yield channel.store.put(size)
                sent += size
        while sent < write_bytes:
            size = min(chunk, write_bytes - sent)
            for channel in channels:
                self.sanitizer.stream_produced(*channel.key, size,
                                               self.env.now)
                yield channel.store.put(size)
            sent += size
        for channel in channels:
            channel.store.close()

    def _pull(self, lane: Lane, channel: _Channel,
              in_store: Store, task: Optional[Task] = None) -> Generator:
        """Consumer side of a pipelined stream: chunks hop lane-to-lane."""
        pulled = 0.0
        while True:
            token = yield channel.store.get()
            if token is Store.END:
                break
            size = float(token)
            self.sanitizer.stream_consumed(*channel.key, size, self.env.now)
            src = channel.src_lane
            if src is not None and src != lane.name:
                yield self.noc.unicast(src, lane.name, size)
                if self.injector.enabled:
                    yield from self._replay_chunk(lane, channel, task,
                                                  src, size)
            yield lane.spad.access(size, is_write=True)
            yield in_store.put(size)
            pulled += size
        self.counters.add("pipe.bytes", pulled)
        in_store.close()

    def _resident_after(self, pf_proc, lane: Lane, nbytes: int,
                        store: Store) -> Generator:
        """Feed a prefetched input to the fabric once its transfer lands."""
        if pf_proc is not None and pf_proc.is_alive:
            yield pf_proc
        yield lane.streams.read_resident(nbytes, dest_store=store,
                                         close_dest=True)

    # -- fault recovery ------------------------------------------------------------

    def _lane_failure(self, failure: LaneFailure) -> Generator:
        """Scheduled lane fail-stop: quiesce the lane at its cycle and let
        the work-aware dispatcher re-balance the backlog onto survivors."""
        yield self.env.timeout(failure.cycle)
        if (self.dispatcher.drained.triggered
                or self.dispatcher.is_dead(failure.lane)):
            return
        self.counters.add("faults.injected")
        self.counters.add("faults.lane_failstop")
        rescued = self.dispatcher.fail_lane(failure.lane)
        self.counters.add("recovery.lanes_lost")
        self.tracer.instant("lane-failure", f"lane{failure.lane}",
                            f"lane{failure.lane}", self.env.now,
                            rescued=rescued)

    def _replay_chunk(self, lane: Lane, channel: _Channel,
                      task: Optional[Task], src: str,
                      size: float) -> Generator:
        """Stream replay: a corrupt chunk is NACKed and resent from the
        producer's last acknowledged chunk (retained at the source until
        the consumer acks), bounded by the plan's retry budget."""
        replays = 0
        policy = self.injector.plan.retry
        while self.injector.stream_corrupt():
            replays += 1
            self.counters.add("faults.injected")
            self.counters.add("faults.stream_corrupt")
            if replays >= policy.max_attempts:
                raise UnrecoverableFault(
                    "stream-replay-exhausted",
                    f"stream chunk from {src} still corrupt after "
                    f"{replays} replays",
                    task=task.name if task is not None else None,
                    lane=lane.lane_id, cycle=self.env.now)
            self.sanitizer.stream_replayed(*channel.key, size,
                                           self.env.now)
            self.counters.add("recovery.replayed_chunks")
            self.counters.add("recovery.replayed_bytes", size)
            yield self.env.timeout(policy.backoff_cycles)
            yield self.noc.unicast(src, lane.name, size)
