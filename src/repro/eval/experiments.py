"""One function per experiment in DESIGN.md's per-experiment index.

Every function returns an :class:`ExperimentResult` holding structured
data (for tests and EXPERIMENTS.md) and a rendered text report (printed by
the benchmark targets). Sizes default to the evaluation sizes used
throughout; pass smaller workload sets to iterate quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.arch.area import estimate_area
from repro.arch.config import (
    FeatureFlags,
    MachineConfig,
    default_baseline_config,
    default_delta_config,
)
from repro.baseline.static import StaticParallel
from repro.core.delta import Delta
from repro.eval.figures import bar_chart, series_table
from repro.eval.runner import compare, run_suite, suite_geomean
from repro.eval.tables import format_table
from repro.util.stats import geomean
from repro.workloads import all_workloads, get_workload
from repro.workloads.base import Workload


@dataclass
class ExperimentResult:
    """Structured data plus a rendered report for one experiment."""

    experiment_id: str
    title: str
    data: Any
    text: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"== {self.experiment_id}: {self.title} ==\n{self.text}"


# --------------------------------------------------------------------- T1

def t1_machine_config(config: Optional[MachineConfig] = None,
                      ) -> ExperimentResult:
    """Architecture-parameter table (Delta and the equivalent baseline)."""
    config = config or default_delta_config()
    fabric = config.lane.fabric
    rows = [
        ("lanes", config.lanes),
        ("fabric", f"{fabric.rows}x{fabric.cols} CGRA"),
        ("fabric MUL-capable cells", f"{fabric.mul_ratio:.0%}"),
        ("fabric MEM-capable cells", f"{fabric.mem_ratio:.0%}"),
        ("scratchpad / lane", f"{config.lane.spad_bytes // 1024} KiB, "
                              f"{config.lane.spad_banks} banks"),
        ("scratchpad bank bw", f"{config.lane.spad_bank_bytes_per_cycle:g} "
                               f"B/cyc"),
        ("stream chunk", f"{config.lane.stream_chunk_bytes} B"),
        ("reconfiguration", f"{config.lane.config_cycles} cyc, "
                            f"{config.lane.config_cache_entries}-entry "
                            f"cache"),
        ("NoC link bw", f"{config.noc.link_bytes_per_cycle:g} B/cyc, "
                        f"hop {config.noc.hop_latency} cyc"),
        ("NoC multicast", "yes (Delta) / unused (baseline)"),
        ("DRAM bw", f"{config.dram.bytes_per_cycle:g} B/cyc, "
                    f"latency {config.dram.latency} cyc"),
        ("task dispatch", f"{config.dispatch.dispatch_cycles} cyc/task, "
                          f"{config.dispatch.queue_depth}-deep queues"),
        ("dispatch policy", f"{config.dispatch.policy} (Delta) / "
                            f"static partition (baseline)"),
    ]
    text = format_table(["parameter", "value"], rows,
                        title="T1: machine configuration")
    return ExperimentResult("T1", "machine configuration", rows, text)


# --------------------------------------------------------------------- T2

def t2_workload_table(workloads: Optional[Sequence[Workload]] = None,
                      ) -> ExperimentResult:
    """Workload-characteristics table.

    The last three columns come from the recovered task graph
    (:mod:`repro.graph`): barrier-phase count, inherent parallelism
    (T1/T∞), and the shared-region sharing sets (count and total reader
    degree); a workload whose program fails validation shows dashes.
    """
    from repro.graph.cache import structure_summary
    from repro.graph.ir import GraphValidationError

    workloads = list(workloads) if workloads is not None else all_workloads()
    rows = []
    for w in workloads:
        d = w.describe()
        mean_work = d.get("mean_work", 0)
        cv = d.get("cv_work", 0)
        row = [d["name"], d.get("tasks", "?"),
               f"{float(mean_work):,.0f}" if mean_work else "-",
               f"{float(cv):.2f}" if cv else "-",
               d.get("mechanisms", "")]
        try:
            s = structure_summary(w)
        except GraphValidationError:
            row += ["-", "-", "-"]
        else:
            degrees = sum(sh.degree for sh in s.sharing)
            row += [s.phases, f"{s.parallelism:.1f}",
                    f"{s.shared_regions} ({degrees} readers)"
                    if s.shared_regions else "-"]
        rows.append(row)
    text = format_table(
        ["workload", "tasks", "mean work", "work CV", "structure exercised",
         "phases", "T1/Tinf", "sharing sets"],
        rows, title="T2: workload characteristics")
    return ExperimentResult("T2", "workload characteristics", rows, text)


# --------------------------------------------------------------------- F1

def f1_headline_speedup(lanes: int = 8,
                        workloads: Optional[Sequence[Workload]] = None,
                        jobs: Optional[int] = None,
                        ) -> ExperimentResult:
    """Per-workload Delta vs static speedup plus geomean (headline claim).

    The detail table's final ``cp bound`` column is the critical-path
    speedup limit min(L, T1/T∞) each comparison carries from its recovered
    task graph — measured speedups must sit below it (appended last so
    golden-file parsers keyed on the leading columns keep working).
    """
    comparisons = run_suite(lanes=lanes, workloads=workloads, jobs=jobs)
    labels = [c.workload for c in comparisons] + ["GEOMEAN"]
    values = [c.speedup for c in comparisons]
    values.append(suite_geomean(comparisons))
    chart = bar_chart(labels, values,
                      title=f"F1: Delta speedup over static-parallel "
                            f"({lanes} lanes)")
    detail = format_table(
        ["workload", "delta cyc", "static cyc", "speedup",
         "delta CV", "static CV", "cp bound"],
        [c.row_with_bound() for c in comparisons])
    return ExperimentResult("F1", "headline speedup", comparisons,
                            chart + "\n\n" + detail)


# --------------------------------------------------------------------- F2

ABLATION_STEPS: list[tuple[str, FeatureFlags]] = [
    ("base (no task hw)", FeatureFlags(False, False, False)),
    ("+lb", FeatureFlags(True, False, False)),
    ("+lb+pipe", FeatureFlags(True, True, False)),
    ("+lb+pipe+mcast", FeatureFlags(True, True, True)),
]


def f2_ablation(lanes: int = 8,
                workloads: Optional[Sequence[Workload]] = None,
                ) -> ExperimentResult:
    """Incremental speedup as each TaskStream mechanism is enabled."""
    workloads = list(workloads) if workloads is not None else all_workloads()
    static_cfg = default_baseline_config(lanes=lanes)
    per_step: dict[str, list[float]] = {}
    rows = []
    for w in workloads:
        static_cycles = StaticParallel(static_cfg).run(
            w.build_program()).cycles
        row = [w.name]
        for label, flags in ABLATION_STEPS:
            delta_cfg = default_delta_config(lanes=lanes, features=flags)
            cycles = Delta(delta_cfg).run(w.build_program()).cycles
            speedup = static_cycles / cycles
            per_step.setdefault(label, []).append(speedup)
            row.append(f"{speedup:.2f}x")
        rows.append(row)
    geo_row = ["GEOMEAN"] + [f"{geomean(per_step[label]):.2f}x"
                             for label, _f in ABLATION_STEPS]
    rows.append(geo_row)
    text = format_table(["workload"] + [l for l, _f in ABLATION_STEPS],
                        rows,
                        title="F2: mechanism ablation "
                              "(speedup over static baseline)")
    return ExperimentResult("F2", "mechanism ablation",
                            {"rows": rows, "per_step": per_step}, text)


# --------------------------------------------------------------------- F3

def f3_lane_scaling(lane_counts: Sequence[int] = (2, 4, 8, 16, 32),
                    workloads: Optional[Sequence[Workload]] = None,
                    jobs: Optional[int] = None,
                    ) -> ExperimentResult:
    """Speedup vs lane count: the gap grows as static imbalance compounds."""
    workloads = list(workloads) if workloads is not None else all_workloads()
    speedups = []
    delta_scaling = []
    static_scaling = []
    base_delta = None
    base_static = None
    for lanes in lane_counts:
        comparisons = run_suite(lanes=lanes, workloads=workloads, jobs=jobs)
        delta_cycles = [c.delta.cycles for c in comparisons]
        static_cycles = [c.static.cycles for c in comparisons]
        if base_delta is None:
            base_delta, base_static = delta_cycles, static_cycles
        speedups.append(suite_geomean(comparisons))
        delta_scaling.append(geomean(
            [b / c for b, c in zip(base_delta, delta_cycles)]))
        static_scaling.append(geomean(
            [b / c for b, c in zip(base_static, static_cycles)]))
    text = series_table(
        "lanes", list(lane_counts),
        {"delta-vs-static": speedups,
         f"delta-self-rel-{lane_counts[0]}": delta_scaling,
         f"static-self-rel-{lane_counts[0]}": static_scaling},
        title="F3: scaling with lane count (geomean over suite)")
    data = {"lanes": list(lane_counts), "speedup": speedups,
            "delta_scaling": delta_scaling,
            "static_scaling": static_scaling}
    return ExperimentResult("F3", "lane scaling", data, text)


# --------------------------------------------------------------------- F4

def f4_load_balance(lanes: int = 8,
                    workloads: Optional[Sequence[Workload]] = None,
                    jobs: Optional[int] = None,
                    ) -> ExperimentResult:
    """Per-lane busy-cycle CV: TaskStream vs static partitioning."""
    comparisons = run_suite(lanes=lanes, workloads=workloads, jobs=jobs)
    rows = [[c.workload, f"{c.delta.imbalance_cv:.3f}",
             f"{c.static.imbalance_cv:.3f}",
             f"{c.delta.mean_lane_utilization:.2f}",
             f"{c.static.mean_lane_utilization:.2f}"]
            for c in comparisons]
    text = format_table(
        ["workload", "delta CV", "static CV", "delta util", "static util"],
        rows, title="F4: load imbalance (CV of per-lane busy cycles)")
    return ExperimentResult("F4", "load imbalance", comparisons, text)


# --------------------------------------------------------------------- F5

def f5_traffic(lanes: int = 8,
               workloads: Optional[Sequence[Workload]] = None,
               jobs: Optional[int] = None,
               ) -> ExperimentResult:
    """DRAM/NoC traffic with and without structure recovery."""
    comparisons = run_suite(lanes=lanes, workloads=workloads, jobs=jobs)
    rows = []
    for c in comparisons:
        delta = c.delta.counters
        rows.append([
            c.workload,
            f"{c.delta.dram_bytes / 1024:,.1f}",
            f"{c.static.dram_bytes / 1024:,.1f}",
            f"{c.traffic_ratio:.2f}x",
            f"{delta.get('mcast.fetches'):,.0f}",
            f"{delta.get('mcast.hits'):,.0f}",
            f"{delta.get('pipe.bytes') / 1024:,.1f}",
        ])
    text = format_table(
        ["workload", "delta KiB", "static KiB", "reduction",
         "mcast fetches", "mcast hits", "piped KiB"],
        rows, title="F5: DRAM traffic and structure-recovery counters")
    return ExperimentResult("F5", "memory traffic", comparisons, text)


# --------------------------------------------------------------------- F6

def f6_granularity(lanes: int = 8,
                   rows_per_task: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
                   ) -> ExperimentResult:
    """Task-granularity sensitivity on SpMV.

    Small tasks balance better but pay per-task dispatch/config/stream
    overheads; large tasks amortize overheads but rebuild imbalance. The
    sweet spot in the middle is the paper's argument for cheap hardware
    dispatch (the crossover moves left as dispatch gets cheaper).
    """
    from repro.workloads.spmv import SpmvWorkload

    delta_speedups = []
    delta_cycles = []
    static_cycles = []
    for rpt in rows_per_task:
        w = SpmvWorkload(rows_per_task=rpt)
        c = compare(w, default_delta_config(lanes=lanes))
        delta_speedups.append(c.speedup)
        delta_cycles.append(c.delta.cycles)
        static_cycles.append(c.static.cycles)
    text = series_table(
        "rows/task", list(rows_per_task),
        {"delta-cycles": delta_cycles, "static-cycles": static_cycles,
         "speedup": delta_speedups},
        title="F6: task-granularity sensitivity (SpMV)")
    data = {"rows_per_task": list(rows_per_task),
            "delta_cycles": delta_cycles, "static_cycles": static_cycles,
            "speedup": delta_speedups}
    return ExperimentResult("F6", "task granularity", data, text)


# --------------------------------------------------------------------- F7

POLICY_NAMES = ("work-aware", "round-robin", "random", "steal")


def f7_policies(lanes: int = 8,
                workload_names: Sequence[str] = ("spmv", "triangle",
                                                 "stencil-amr",
                                                 "micro-skewed"),
                ) -> ExperimentResult:
    """Dispatcher-policy sensitivity on the skew-heavy workloads."""
    rows = []
    per_policy: dict[str, list[float]] = {p: [] for p in POLICY_NAMES}
    for name in workload_names:
        base = None
        row = [name]
        for policy in POLICY_NAMES:
            w = get_workload(name)
            cfg = default_delta_config(lanes=lanes).with_policy(policy)
            result = Delta(cfg).run(w.build_program())
            w.check(result.state)
            if base is None:
                base = result.cycles
            relative = base / result.cycles
            per_policy[policy].append(relative)
            row.append(f"{result.cycles:,.0f} ({relative:.2f}x)")
        rows.append(row)
    text = format_table(
        ["workload"] + [f"{p}" for p in POLICY_NAMES], rows,
        title="F7: dispatch policies — cycles (speed rel. to work-aware)")
    return ExperimentResult("F7", "dispatch policies",
                            {"rows": rows, "per_policy": per_policy}, text)


# --------------------------------------------------------------------- T3

def t3_area(config: Optional[MachineConfig] = None) -> ExperimentResult:
    """Area-overhead table for the TaskStream hardware additions."""
    config = config or default_delta_config()
    breakdown = estimate_area(config)
    rows = [(label, f"{mm2:.4f}") for label, mm2 in breakdown.rows()]
    rows.append(("TaskStream overhead",
                 f"{breakdown.overhead_fraction:.2%}"))
    text = format_table(["structure", "area (mm^2)"], rows,
                        title="T3: area breakdown and TaskStream overhead")
    return ExperimentResult("T3", "area overhead", breakdown, text)


# --------------------------------------------------------------------- F8

def f8_energy(lanes: int = 8,
              workloads: Optional[Sequence[Workload]] = None,
              jobs: Optional[int] = None,
              ) -> ExperimentResult:
    """Energy comparison: structure recovery removes data movement.

    Not a figure in the abstract, but the claim class every accelerator
    paper carries: the same mechanisms that save cycles (multicast,
    stream forwarding) save DRAM/NoC energy, which dominates.
    """
    from repro.arch.energy import estimate_energy

    comparisons = run_suite(lanes=lanes, workloads=workloads, jobs=jobs)
    rows = []
    ratios = []
    for c in comparisons:
        delta_e = estimate_energy(c.delta)
        static_e = estimate_energy(c.static)
        ratio = static_e.total / delta_e.total
        ratios.append(ratio)
        rows.append([
            c.workload,
            f"{delta_e.total:,.0f}",
            f"{static_e.total:,.0f}",
            f"{ratio:.2f}x",
            f"{delta_e.data_movement / delta_e.total:.0%}",
            f"{static_e.data_movement / static_e.total:.0%}",
        ])
    rows.append(["GEOMEAN", "-", "-", f"{geomean(ratios):.2f}x", "-", "-"])
    text = format_table(
        ["workload", "delta nJ", "static nJ", "savings",
         "delta mov%", "static mov%"],
        rows, title="F8: energy (analytical model over run counters)")
    return ExperimentResult("F8", "energy",
                            {"rows": rows, "ratios": ratios,
                             "comparisons": comparisons}, text)


# --------------------------------------------------------------------- F9

def f9_extensions(lanes: int = 8) -> ExperimentResult:
    """Extension features evaluated in their target regimes.

    Config affinity targets machines with expensive reconfiguration and a
    small config cache running many small tasks of mixed types; prefetch
    targets latency-bound task sequences with spare DRAM bandwidth. Both
    are off by default; this experiment turns each on in its regime.
    """
    import dataclasses

    from repro.workloads.synthetic import ConfigThrash, UniformTasks

    rows = []

    # Affinity regime: 1-entry config cache, 512-cycle reconfiguration.
    thrash = ConfigThrash(num_tasks=96, num_types=4, trips=64)
    cfg = default_delta_config(lanes=lanes)
    cfg = dataclasses.replace(
        cfg, lane=dataclasses.replace(cfg.lane, config_cycles=512,
                                      config_cache_entries=1))
    base = Delta(cfg).run(thrash.build_program())
    thrash.check(base.state)
    aff_cfg = cfg.with_features(FeatureFlags(config_affinity=True))
    aff = Delta(aff_cfg).run(thrash.build_program())
    thrash.check(aff.state)

    def misses(result):
        return sum(result.counters.get(f"lane{lane}.config_misses")
                   for lane in range(lanes))

    rows.append(["config-affinity", "config-thrash",
                 f"{base.cycles:,.0f}", f"{aff.cycles:,.0f}",
                 f"{base.cycles / aff.cycles:.2f}x",
                 f"misses {misses(base):.0f} -> {misses(aff):.0f}"])

    # Prefetch regime: many small latency-bound tasks, DRAM mostly idle.
    stream = UniformTasks(num_tasks=64, trips=96)
    pf_base = Delta(default_delta_config(lanes=lanes)).run(
        stream.build_program())
    stream.check(pf_base.state)
    pf_cfg = default_delta_config(
        lanes=lanes, features=FeatureFlags(prefetch=True))
    pf = Delta(pf_cfg).run(stream.build_program())
    stream.check(pf.state)
    rows.append(["prefetch", "uniform (latency-bound)",
                 f"{pf_base.cycles:,.0f}", f"{pf.cycles:,.0f}",
                 f"{pf_base.cycles / pf.cycles:.2f}x",
                 f"prefetches used {pf.counters.get('prefetch.used'):.0f}"])

    text = format_table(
        ["extension", "regime workload", "off cycles", "on cycles",
         "gain", "detail"],
        rows, title="F9: extension features in their target regimes")
    data = {"affinity_gain": base.cycles / aff.cycles,
            "prefetch_gain": pf_base.cycles / pf.cycles,
            "misses_before": misses(base), "misses_after": misses(aff),
            "prefetch_used": pf.counters.get("prefetch.used")}
    return ExperimentResult("F9", "extensions", data, text)


# --------------------------------------------------------------------- F10

def f10_software_runtime(lanes: int = 8,
                         workloads: Optional[Sequence[Workload]] = None,
                         ) -> ExperimentResult:
    """Delta vs a software task runtime on the same datapath.

    The motivation comparison: a work-stealing software runtime also
    balances dynamically, but pays software dispatch/steal costs per task
    and has none of the recovered structure (no pipelining, no multicast).
    Expected shape: the software runtime beats the *static* design on
    skew-dominated workloads yet still loses to Delta everywhere, and its
    deficit widens as tasks get finer.
    """
    from repro.core.software import SoftwareRuntime
    from repro.workloads.spmv import SpmvWorkload

    workloads = list(workloads) if workloads is not None else all_workloads()
    delta_cfg = default_delta_config(lanes=lanes)
    static_cfg = default_baseline_config(lanes=lanes)
    rows = []
    vs_software = []
    software_vs_static = []
    for w in workloads:
        delta = Delta(delta_cfg).run(w.build_program())
        w.check(delta.state)
        software = SoftwareRuntime(delta_cfg).run(w.build_program())
        w.check(software.state)
        static = StaticParallel(static_cfg).run(w.build_program())
        ratio = software.cycles / delta.cycles
        vs_software.append(ratio)
        software_vs_static.append(static.cycles / software.cycles)
        rows.append([w.name, f"{delta.cycles:,.0f}",
                     f"{software.cycles:,.0f}", f"{static.cycles:,.0f}",
                     f"{ratio:.2f}x",
                     f"{static.cycles / software.cycles:.2f}x"])
    rows.append(["GEOMEAN", "-", "-", "-",
                 f"{geomean(vs_software):.2f}x",
                 f"{geomean(software_vs_static):.2f}x"])
    table = format_table(
        ["workload", "delta cyc", "software cyc", "static cyc",
         "delta/software", "software/static"],
        rows, title="F10: Delta vs software task runtime (same datapath)")

    # Fine-grain sweep: software per-task overhead dominates small tasks.
    grains = [2, 8, 32]
    grain_ratios = []
    for rpt in grains:
        w = SpmvWorkload(rows_per_task=rpt)
        delta = Delta(delta_cfg).run(w.build_program())
        software = SoftwareRuntime(delta_cfg).run(w.build_program())
        grain_ratios.append(software.cycles / delta.cycles)
    sweep = series_table("rows/task", grains,
                         {"delta-advantage": grain_ratios},
                         title="F10b: advantage vs task grain (SpMV)")
    data = {"rows": rows, "vs_software": vs_software,
            "software_vs_static": software_vs_static,
            "grains": grains, "grain_ratios": grain_ratios}
    return ExperimentResult("F10", "software-runtime comparison", data,
                            table + "\n\n" + sweep)


# --------------------------------------------------------------------- R1

RESILIENCE_RATES = (0.0, 0.02, 0.05, 0.1)


def r1_resilience(lanes: int = 8,
                  workloads: Optional[Sequence[Workload]] = None,
                  rates: Sequence[float] = RESILIENCE_RATES,
                  jobs: Optional[int] = None,
                  ) -> ExperimentResult:
    """Graceful degradation under injected faults (speedup vs fault rate).

    Sweeps a transient-task-fault rate (with a proportional NoC drop
    rate) over the suite, running *both* machines under the same
    :class:`~repro.sim.faults.FaultPlan`. Delta recovers through the
    dispatcher (retries backfill onto lanes, replays ride the existing
    streams) and stays well ahead at every rate; its *relative* advantage
    narrows slightly because retry latency lands on Delta's packed
    critical path while the static schedule's barrier slack hides
    off-critical repairs. Also checks the zero-overhead claim: an empty
    plan must reproduce the fault-free cycle count bit-for-bit.
    """
    from repro.sim.faults import FaultPlan, RetryPolicy

    workloads = list(workloads) if workloads is not None else all_workloads()
    retry = RetryPolicy(max_attempts=5, backoff_cycles=64.0)
    speedups = []
    delta_thr = []
    static_thr = []
    base_delta: Optional[list[float]] = None
    base_static: Optional[list[float]] = None
    for rate in rates:
        plan = None if rate == 0.0 else FaultPlan(
            task_fault_rate=rate, noc_drop_rate=rate / 10,
            retry=retry, seed=1)
        comparisons = run_suite(lanes=lanes, workloads=workloads,
                                jobs=jobs, faults=plan)
        delta_cycles = [c.delta.cycles for c in comparisons]
        static_cycles = [c.static.cycles for c in comparisons]
        if base_delta is None:
            base_delta, base_static = delta_cycles, static_cycles
        speedups.append(suite_geomean(comparisons))
        delta_thr.append(geomean(
            [b / c for b, c in zip(base_delta, delta_cycles)]))
        static_thr.append(geomean(
            [b / c for b, c in zip(base_static, static_cycles)]))

    # Zero-fault recovery overhead: an *empty* plan arms nothing, so one
    # workload's cycle count must equal the fault-free run exactly.
    probe = workloads[0]
    plain = compare(probe, default_delta_config(lanes=lanes))
    armed = compare(probe, default_delta_config(lanes=lanes)
                    .with_faults(FaultPlan()))
    overhead = armed.delta.cycles - plain.delta.cycles
    from repro.eval.tables import resilience_table

    text = resilience_table(rates, speedups, delta_thr, static_thr,
                            lanes=lanes)
    text += (f"\n\nzero-fault recovery overhead ({probe.name}): "
             f"{overhead:+,.0f} cycles "
             f"({'exact' if overhead == 0 else 'NONZERO'})")
    data = {"rates": list(rates), "speedups": speedups,
            "delta_throughput": delta_thr, "static_throughput": static_thr,
            "zero_fault_overhead": overhead}
    return ExperimentResult("R1", "resilience under faults", data, text)


# --------------------------------------------------------------------- A1

def a1_design_sensitivity(lanes: int = 8) -> ExperimentResult:
    """Sensitivity of DESIGN.md's main modeling choices.

    Three sweeps over the knobs the design fixes by fiat:

    - the multicast *coalescing window* (too small → duplicate fetches;
      beyond the dispatch horizon → no further benefit, only added
      latency on the first use);
    - the *stream chunk size* (smaller chunks pipeline better but pay
      per-chunk overheads; larger chunks serialize stages);
    - the dispatcher *queue depth* (1 starves lanes; deep queues lose
      nothing under late binding because LOW_WATER caps effective depth).
    """
    import dataclasses

    from repro.workloads.spmv import SpmvWorkload
    from repro.workloads.synthetic import SharedReadTasks, SkewedTasks

    sections = []

    # 1. Multicast window.
    windows = [0, 8, 16, 32, 64, 128]
    window_cycles = []
    window_fetches = []
    for window in windows:
        cfg = dataclasses.replace(default_delta_config(lanes=lanes),
                                  mcast_window=window)
        w = SharedReadTasks(num_tasks=32, region_bytes=8192)
        result = Delta(cfg).run(w.build_program())
        w.check(result.state)
        window_cycles.append(result.cycles)
        window_fetches.append(result.counters.get("mcast.fetches"))
    sections.append(series_table(
        "window", windows,
        {"cycles": window_cycles, "fetches": window_fetches},
        title="A1a: multicast coalescing window (micro-shared)"))

    # 2. Stream chunk size.
    chunks = [64, 128, 256, 512, 1024]
    chunk_cycles = []
    for chunk in chunks:
        cfg = default_delta_config(lanes=lanes)
        cfg = dataclasses.replace(
            cfg, lane=dataclasses.replace(cfg.lane,
                                          stream_chunk_bytes=chunk))
        w = SpmvWorkload()
        result = Delta(cfg).run(w.build_program())
        w.check(result.state)
        chunk_cycles.append(result.cycles)
    sections.append(series_table(
        "chunk B", chunks, {"cycles": chunk_cycles},
        title="A1b: stream chunk size (spmv)"))

    # 3. Dispatcher queue depth.
    depths = [1, 2, 4, 8, 16]
    depth_cycles = []
    for depth in depths:
        cfg = default_delta_config(lanes=lanes)
        cfg = dataclasses.replace(
            cfg, dispatch=dataclasses.replace(cfg.dispatch,
                                              queue_depth=depth))
        w = SkewedTasks()
        result = Delta(cfg).run(w.build_program())
        w.check(result.state)
        depth_cycles.append(result.cycles)
    sections.append(series_table(
        "queue depth", depths, {"cycles": depth_cycles},
        title="A1c: dispatch queue depth (micro-skewed)"))

    data = {
        "windows": windows, "window_cycles": window_cycles,
        "window_fetches": window_fetches,
        "chunks": chunks, "chunk_cycles": chunk_cycles,
        "depths": depths, "depth_cycles": depth_cycles,
    }
    return ExperimentResult("A1", "design-choice sensitivity", data,
                            "\n\n".join(sections))


ALL_EXPERIMENTS = {
    "T1": t1_machine_config,
    "T2": t2_workload_table,
    "F1": f1_headline_speedup,
    "F2": f2_ablation,
    "F3": f3_lane_scaling,
    "F4": f4_load_balance,
    "F5": f5_traffic,
    "F6": f6_granularity,
    "F7": f7_policies,
    "F8": f8_energy,
    "F9": f9_extensions,
    "F10": f10_software_runtime,
    "A1": a1_design_sensitivity,
    "R1": r1_resilience,
    "T3": t3_area,
}
