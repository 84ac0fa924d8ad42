"""The typed metrics bus: structured, namespaced run statistics.

:class:`MetricsBus` is the structured successor to the ad-hoc
:class:`~repro.sim.stats.Counters` bag. The underlying store is unchanged
(dotted counter names, so every existing fingerprint and golden file is
preserved bit-for-bit), but producers and consumers now go through
*counter groups* — one namespace per subsystem (``dram``, ``noc``,
``mcast``, ``pipe``, ``dispatch``, ...) with declared, documented metrics —
instead of scattering raw string keys across the codebase.

A group is a view: it holds no state of its own, reads and writes land in
the shared store, and :meth:`MetricsBus.adopt` can wrap any plain
``Counters`` without copying. A
:class:`~repro.machine.result.RunRecord` — what the result cache and the
worker pool carry — holds only the sorted counter snapshot; its bus is
rebuilt from that (:meth:`~repro.sim.stats.Counters.from_snapshot`).
"""

from __future__ import annotations

from typing import ClassVar, Iterator

from repro.sim.stats import Counters


class metric:
    """Declared read accessor for one counter inside a group.

    Reading an undeclared or never-incremented counter yields 0.0, matching
    ``Counters.get`` semantics.
    """

    def __init__(self, name: str, doc: str = "") -> None:
        self.name = name
        self.__doc__ = doc or f"Value of the {name!r} counter (0 if unset)."

    def __set_name__(self, owner: type, attr: str) -> None:
        self._attr = attr

    def __get__(self, group: "CounterGroup", objtype: type = None) -> float:
        if group is None:
            return self
        return group.get(self.name)


class CounterGroup:
    """A namespaced view over the shared counter store.

    Writes prepend the group prefix, so ``bus.pipe.add("bytes", n)`` lands
    on the same ``pipe.bytes`` counter the evaluation reports and golden
    fingerprints have always used.
    """

    #: Dotted-name namespace this group owns (without the trailing dot).
    prefix: ClassVar[str] = ""

    def __init__(self, store: Counters, prefix: str = None) -> None:
        self._store = store
        if prefix is not None:
            self.prefix = prefix

    def _key(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    # -- writes ------------------------------------------------------------

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment ``<prefix>.<name>`` by ``amount``."""
        self._store.add(self._key(name), amount)

    def set_max(self, name: str, value: float) -> None:
        """Keep the maximum observed value under ``<prefix>.<name>``."""
        self._store.set_max(self._key(name), value)

    # -- reads -------------------------------------------------------------

    def get(self, name: str, default: float = 0.0) -> float:
        """Read ``<prefix>.<name>`` (0 by default)."""
        return self._store.get(self._key(name), default)

    def total(self) -> float:
        """Sum of every counter in this namespace."""
        return self._store.sum_prefix(f"{self.prefix}.")

    def as_dict(self) -> dict[str, float]:
        """All counters in this namespace, keyed by the local name."""
        return self._store.by_prefix(f"{self.prefix}.")

    def declared(self) -> list[str]:
        """Names of the metrics this group declares (for introspection)."""
        return sorted(attr.name for attr in vars(type(self)).values()
                      if isinstance(attr, metric))

    def __contains__(self, name: str) -> bool:
        return self._key(name) in self._store

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.prefix!r}: {self.as_dict()}>"


class DramMetrics(CounterGroup):
    """Main-memory traffic (written by :class:`repro.arch.dram.Dram`)."""

    prefix = "dram"
    read_bytes = metric("read_bytes", "Bytes read from DRAM.")
    write_bytes = metric("write_bytes", "Bytes written back to DRAM.")
    read_effective_bytes = metric(
        "read_effective_bytes",
        "Read bytes scaled by the row-locality penalty.")
    write_effective_bytes = metric(
        "write_effective_bytes",
        "Write bytes scaled by the row-locality penalty.")

    @property
    def total_bytes(self) -> float:
        """Actual DRAM bytes moved in either direction."""
        return self.read_bytes + self.write_bytes


class NocMetrics(CounterGroup):
    """Interconnect traffic (written by :class:`repro.arch.noc.Noc`)."""

    prefix = "noc"
    bytes = metric("bytes", "Total link-bytes moved (hops x payload).")
    messages = metric("messages", "Unicast messages sent.")
    multicasts = metric("multicasts", "Multicast tree sends.")


class MulticastMetrics(CounterGroup):
    """Shared-read recovery (written by the multicast manager)."""

    prefix = "mcast"
    fetches = metric("fetches", "Coalesced DRAM fetches of shared regions.")
    hits = metric("hits", "Requests served from scratchpad residency.")
    coalesced = metric("coalesced", "Requests folded into an open batch.")
    too_large = metric("too_large", "Regions too big to become resident.")
    disabled_duplicate_fetches = metric(
        "disabled_duplicate_fetches",
        "Shared reads that paid a private fetch (multicast ablated).")


class PipelineMetrics(CounterGroup):
    """Recovered producer->consumer streams (written by the Delta runtime)."""

    prefix = "pipe"
    bytes = metric("bytes", "Bytes forwarded lane-to-lane over channels.")
    streams = metric("streams", "Producer->consumer channels established.")
    disabled_round_trips = metric(
        "disabled_round_trips",
        "Streams that degraded to a DRAM round trip (pipelining ablated).")


class DispatchMetrics(CounterGroup):
    """Hardware dispatcher activity (written by the dispatcher)."""

    prefix = "dispatch"
    submitted = metric("submitted", "Tasks submitted for readiness tracking.")
    dispatched = metric("dispatched", "Tasks placed on a lane queue.")
    completed = metric("completed", "Tasks retired.")
    steals = metric("steals", "Successful steals (steal policy only).")
    cycles = metric("cycles", "Cycles the dispatch port was busy.")
    affinity_matches = metric(
        "affinity_matches", "Placements won by the config-affinity tie-break.")


class SchedMetrics(CounterGroup):
    """Scheduling-policy observability (written by the dispatcher).

    Opt-in via ``DispatchConfig.sched_stats`` — like ``faults.*``, a
    default run writes no ``sched.*`` counters at all, keeping its
    fingerprint bit-identical with the group compiled in.
    """

    prefix = "sched"
    pool_peak = metric("pool_peak", "High-water mark of the ready pool.")
    steal_attempts = metric(
        "steal_attempts", "Idle-lane steal attempts (incl. victimless).")
    steal_hits = metric(
        "steal_hits", "Steal attempts that landed at least one task.")
    priority_inversions = metric(
        "priority_inversions",
        "Dispatches where a higher-priority task had no eligible lane.")


class CacheMetrics(CounterGroup):
    """On-disk store effectiveness (written by the :mod:`repro.store` layer).

    Harness-side by construction: these counters are written by the
    process driving a sweep (the CLI hands its bus's ``cache`` group to
    the store), never by a simulated machine, so run fingerprints and the
    golden files cannot see them.
    """

    prefix = "cache"
    hits = metric("hits", "Entries served (schema fingerprint verified).")
    misses = metric("misses", "Entries absent (corrupt entries count too).")
    stores = metric("stores", "Entries published to the store.")
    evictions = metric(
        "evictions", "Entries removed by the size-cap eviction policy.")
    evicted_bytes = metric("evicted_bytes", "Bytes reclaimed by eviction.")
    coalesced = metric(
        "coalesced",
        "Callers that joined an identical in-flight computation.")
    corrupt = metric(
        "corrupt", "Truncated/garbage/tampered entries discarded on load.")
    lock_waits = metric(
        "lock_waits", "Shard-lock acquisitions that had to block.")

    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0 when none ran)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ServeMetrics(CounterGroup):
    """Sweep-server activity (written by :mod:`repro.serve`).

    Harness-side like ``cache.*``: only the long-running server front-end
    writes these, never a simulated machine, so run fingerprints and the
    golden files cannot see them.
    """

    prefix = "serve"
    submitted = metric("submitted", "Job submissions accepted or rejected.")
    started = metric("started", "Jobs claimed off the queue by a worker.")
    completed = metric("completed", "Jobs that ran to completion.")
    cancelled = metric("cancelled", "Jobs cancelled (queued or mid-flight).")
    rejected = metric("rejected", "Submissions refused by a tenant quota.")
    failed = metric("failed", "Jobs that ended in an error.")
    replayed = metric(
        "replayed", "Persisted jobs re-queued after a server restart.")
    points = metric("points", "Per-point results streamed to job logs.")
    queue_wait_s = metric(
        "queue_wait_s", "Seconds jobs spent queued before starting, total.")
    stream_stalls = metric(
        "stream_stalls",
        "Event-stream writes that found the client's buffer still full.")
    lease_renewals = metric(
        "lease_renewals", "Heartbeats that extended a running job's lease.")
    lease_expired = metric(
        "lease_expired",
        "Running jobs whose lease deadline passed without a heartbeat.")
    lease_requeued = metric(
        "lease_requeued",
        "Expired-lease jobs re-queued with backoff for another attempt.")
    lease_failed = metric(
        "lease_failed",
        "Expired-lease jobs that exhausted the retry budget (typed "
        "lease-expired failure).")
    lease_zombie = metric(
        "lease_zombie",
        "Stale completions discarded because the finishing worker no "
        "longer held the job's lease.")
    shed = metric(
        "shed",
        "Submissions shed by overload control (global queue-depth or "
        "per-tenant backlog cap; typed 503).")
    gc_jobs = metric(
        "gc_jobs", "Terminal job records pruned by the TTL sweep.")

    def mean_queue_wait_s(self) -> float:
        """Average queued-to-started wait (0 when nothing started yet)."""
        return self.queue_wait_s / self.started if self.started else 0.0


class EvalMetrics(CounterGroup):
    """Harness-side evaluation-pool health (written by
    :mod:`repro.eval.parallel`).

    Like ``cache.*``/``serve.*``, these are written by the process driving
    a sweep, never by a simulated machine, so run fingerprints and the
    golden files cannot see them.
    """

    prefix = "eval"
    worker_deaths = metric(
        "worker_deaths",
        "Worker pools broken by a worker death, once per pool however "
        "many batches saw it.")
    pool_rebuilds = metric(
        "pool_rebuilds", "Broken worker pools replaced by a fresh one.")
    retried_points = metric(
        "retried_points",
        "Points that lost a worker and completed in a rebuilt pool.")
    lost_worker_points = metric(
        "lost_worker_points",
        "Points past the worker-death retry cap, recomputed serially.")


class PrefetchMetrics(CounterGroup):
    """The prefetch extension (double buffering of private reads)."""

    prefix = "prefetch"
    issued = metric("issued", "Prefetches started for a queued task.")
    used = metric("used", "Prefetches consumed on the prefetching lane.")
    wasted = metric("wasted", "Prefetches orphaned by work stealing.")
    bytes = metric("bytes", "Bytes moved by the low-priority prefetch pump.")


class RuntimeMetrics(CounterGroup):
    """Software-runtime overheads (software task-runtime baseline)."""

    prefix = "runtime"
    task_overhead_cycles = metric(
        "task_overhead_cycles", "Cycles of software dequeue/closure cost.")


class StaticScheduleMetrics(CounterGroup):
    """Static-parallel baseline schedule structure."""

    prefix = "static"
    barriers = metric("barriers", "Inter-phase barriers executed.")
    duplicate_shared_bytes = metric(
        "duplicate_shared_bytes",
        "Shared-region bytes re-fetched per task (no multicast).")


class FaultMetrics(CounterGroup):
    """Injected faults (written at the injector's call sites).

    Only ever written by an *armed* injector: a fault-free run has no
    ``faults.*`` counters at all, keeping its fingerprint bit-identical
    to a build without the fault machinery.
    """

    prefix = "faults"
    injected = metric("injected", "Faults injected, all kinds.")
    lane_failstop = metric("lane_failstop", "Lane fail-stop faults.")
    task_transient = metric(
        "task_transient", "Transient mid-flight task-execution faults.")
    noc_dropped = metric("noc_dropped", "NoC messages dropped at a link.")
    stream_corrupt = metric(
        "stream_corrupt", "Pipelined stream chunks corrupted end-to-end.")
    mcast_dropped = metric(
        "mcast_dropped", "Multicast deliveries dropped to a target lane.")
    dram_spikes = metric(
        "dram_spikes", "DRAM responses hit by a delay spike.")
    dram_spike_cycles = metric(
        "dram_spike_cycles", "Extra DRAM delay cycles injected, total.")


class RecoveryMetrics(CounterGroup):
    """Structure-aware recovery activity (written by the runtimes)."""

    prefix = "recovery"
    retries = metric("retries", "Task re-executions after transient faults.")
    recovery_cycles = metric(
        "recovery_cycles",
        "Cycles lost to dead attempts, backoff, and re-partitioning.")
    redispatched = metric(
        "redispatched", "Tasks moved off a failed lane onto survivors.")
    lanes_lost = metric("lanes_lost", "Lanes quiesced and written off.")
    replayed_chunks = metric(
        "replayed_chunks", "Stream chunks replayed from the last ack.")
    replayed_bytes = metric("replayed_bytes", "Bytes replayed over streams.")
    noc_retransmits = metric(
        "noc_retransmits", "Link-level retransmissions of dropped messages.")
    refetches = metric(
        "refetches", "Sharing-set-driven refetches of dropped multicasts.")
    refetch_bytes = metric("refetch_bytes", "Bytes refetched for multicast.")
    absorbed_spike_cycles = metric(
        "absorbed_spike_cycles", "DRAM spike cycles absorbed under watchdog.")


class TaskMetrics(CounterGroup):
    """Per-task-type execution counts (``tasks.<type name>``)."""

    prefix = "tasks"


class LaneMetrics(CounterGroup):
    """One lane's counters (``lane<N>.*``), including its scratchpad."""

    busy_cycles = metric("busy_cycles", "Cycles the lane was executing.")
    config_hits = metric("config_hits", "Configuration-cache hits.")
    config_misses = metric("config_misses", "Reconfigurations paid.")
    config_cycles = metric("config_cycles", "Cycles spent reconfiguring.")
    trips = metric("trips", "Pipeline trips executed.")
    stream_in_bytes = metric("stream_in_bytes", "Bytes streamed in.")
    stream_out_bytes = metric("stream_out_bytes", "Bytes streamed out.")
    resident_read_bytes = metric(
        "resident_read_bytes", "Bytes read from resident scratchpad data.")

    def __init__(self, store: Counters, lane_id: int) -> None:
        super().__init__(store, prefix=f"lane{lane_id}")
        self.lane_id = lane_id


class MetricsBus(Counters):
    """A :class:`Counters` store with typed, namespaced group views.

    The bus *is* the counter bag every simulated component writes into —
    components keep their ``counters.add("dram.read_bytes", n)`` interface —
    while results, reports, and figures read through the groups:
    ``result.metrics.mcast.fetches`` instead of
    ``result.counters.get("mcast.fetches")``.
    """

    def __init__(self) -> None:
        super().__init__()
        self._attach_groups()

    def _attach_groups(self) -> None:
        self.dram = DramMetrics(self)
        self.noc = NocMetrics(self)
        self.mcast = MulticastMetrics(self)
        self.pipe = PipelineMetrics(self)
        self.dispatch = DispatchMetrics(self)
        self.sched = SchedMetrics(self)
        self.cache = CacheMetrics(self)
        self.serve = ServeMetrics(self)
        self.eval = EvalMetrics(self)
        self.prefetch = PrefetchMetrics(self)
        self.runtime = RuntimeMetrics(self)
        self.static = StaticScheduleMetrics(self)
        self.faults = FaultMetrics(self)
        self.recovery = RecoveryMetrics(self)
        self.tasks = TaskMetrics(self)

    @classmethod
    def adopt(cls, counters: Counters) -> "MetricsBus":
        """Wrap an existing counter bag in a bus without copying.

        The returned bus shares the underlying store, so reads reflect the
        original and writes land in it. Adopting a bus returns it as-is.
        """
        if isinstance(counters, cls):
            return counters
        bus = cls.__new__(cls)
        bus._values = counters._values
        bus._attach_groups()
        return bus

    def lane(self, lane_id: int) -> LaneMetrics:
        """The counter group of one lane (``lane<N>.*``)."""
        return LaneMetrics(self, lane_id)

    def lanes(self, count: int) -> Iterator[LaneMetrics]:
        """Lane groups 0..count-1, in lane order."""
        for lane_id in range(count):
            yield self.lane(lane_id)

    def group(self, prefix: str) -> CounterGroup:
        """An untyped group view over an arbitrary namespace."""
        return CounterGroup(self, prefix)
