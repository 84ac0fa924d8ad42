"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list``                      — available workloads and experiments.
- ``run WORKLOAD``              — simulate one workload on Delta (options
  for lanes, policy, machine, tracing, feature ablation).
- ``compare WORKLOAD``          — Delta vs the static baseline.
- ``suite``                     — the full evaluation suite (F1 data).
- ``eval``                      — the suite through the parallel, cached
  harness (``--jobs``, ``--no-cache``, ``--clear-cache``, ``--cache-dir``,
  ``--cache-max-mb``; the result cache lives in a ``repro.store`` root).
- ``experiment ID``             — run one experiment (T1..T3, F1..F10, A1).
- ``show WORKLOAD``             — DOT / ASCII views of a workload's task
  graph and kernels.
- ``serve``                     — long-running async sweep server
  (``POST /jobs``, NDJSON event streams, cancellation, ``/healthz``,
  job leases + overload shedding; see docs/serving.md, docs/chaos.md).
- ``jobs list|gc``              — inspect / prune the persisted job
  queue directly from the store, no server required.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.arch.config import (
    FeatureFlags,
    default_baseline_config,
    default_delta_config,
)
from repro.baseline.static import StaticParallel
from repro.core.delta import Delta
from repro.eval.experiments import ALL_EXPERIMENTS
from repro.eval.runner import compare as run_compare
from repro.eval.runner import run_suite, suite_geomean
from repro.eval.tables import format_table
from repro.sched import policy_names, policy_uses_structure
from repro.workloads import get_workload
from repro.workloads.registry import workload_names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TaskStream/Delta reproduction — simulate task-parallel "
                    "workloads on a reconfigurable dataflow accelerator.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and experiments")

    def _add_machine_options(p):
        p.add_argument("--lanes", type=int, default=8,
                       help="number of accelerator lanes (default 8)")
        p.add_argument("--policy", default="work-aware",
                       choices=list(policy_names()),
                       help="dispatch policy (from the sched registry)")
        p.add_argument("--no-lb", action="store_true",
                       help="disable work-aware load balancing")
        p.add_argument("--no-pipe", action="store_true",
                       help="disable pipelined inter-task streams")
        p.add_argument("--no-mcast", action="store_true",
                       help="disable multicast read sharing")
        p.add_argument("--affinity", action="store_true",
                       help="enable the config-affinity extension")
        p.add_argument("--prefetch", action="store_true",
                       help="enable the stream-prefetch extension")
        p.add_argument("--sanitize", action="store_true",
                       help="run with the model sanitizer (runtime "
                            "invariant checking; identical results)")
        p.add_argument("--faults", metavar="FILE",
                       help="inject faults from a FaultPlan JSON file "
                            "(see docs/faults.md)")
        p.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser("run", help="simulate a workload on Delta")
    p_run.add_argument("workload", help="workload name (see `repro list`)")
    _add_machine_options(p_run)
    p_run.add_argument("--machine", default="delta",
                       choices=["delta", "static"])
    p_run.add_argument("--trace", metavar="FILE",
                       help="write a Chrome trace JSON of the run")
    p_run.add_argument("--counters", action="store_true",
                       help="dump all hardware counters")

    p_cmp = sub.add_parser("compare",
                           help="Delta vs the static-parallel baseline")
    p_cmp.add_argument("workload")
    _add_machine_options(p_cmp)

    p_suite = sub.add_parser("suite", help="run the full evaluation suite")
    p_suite.add_argument("--lanes", type=int, default=8)
    p_suite.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: serial, or "
                              "$REPRO_JOBS)")
    p_suite.add_argument("--sanitize", action="store_true",
                         help="run every point with the model sanitizer")
    p_suite.add_argument("--faults", metavar="FILE",
                         help="inject faults from a FaultPlan JSON file "
                              "into every point (both machines)")

    p_eval = sub.add_parser(
        "eval", help="evaluation suite via the parallel, cached harness")
    p_eval.add_argument("--lanes", type=int, default=8)
    p_eval.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: os.cpu_count())")
    p_eval.add_argument("--timeout", type=float, default=None,
                        help="per-point timeout in seconds; a timed-out "
                             "point is recomputed serially")
    p_eval.add_argument("--workloads", nargs="*", metavar="NAME",
                        help="subset of workloads (default: the full "
                             "evaluation suite)")
    p_eval.add_argument("--no-cache", action="store_true",
                        help="always simulate; do not read or write the "
                             "result cache")
    p_eval.add_argument("--clear-cache", action="store_true",
                        help="drop every cached entry before running")
    p_eval.add_argument("--cache-dir", metavar="DIR",
                        help="store location of the result cache "
                             "(default: .repro-cache/ or $REPRO_CACHE_DIR)")
    p_eval.add_argument("--cache-max-mb", type=float, default=None,
                        metavar="MB",
                        help="size cap for the on-disk store; least-"
                             "recently-used entries are evicted past it "
                             "(default: $REPRO_CACHE_MAX_MB, else "
                             "uncapped)")
    p_eval.add_argument("--sanitize", action="store_true",
                        help="run every point with the model sanitizer")
    p_eval.add_argument("--faults", metavar="FILE",
                        help="inject faults from a FaultPlan JSON file "
                             "into every point (both machines)")
    p_eval.add_argument("--policy-matrix", action="store_true",
                        help="run the scheduling-policy tournament: every "
                             "registered policy over the suite, fault-free "
                             "and under a canned fault plan (--faults "
                             "overrides the plan)")

    p_exp = sub.add_parser("experiment", help="run one experiment")
    p_exp.add_argument("experiment_id",
                       help="T1, T2, T3, F1..F10, A1 or R1 "
                            "(case-insensitive)")

    p_serve = sub.add_parser(
        "serve", help="run the async multi-tenant sweep server")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8023,
                         help="TCP port; 0 picks a free one (default 8023)")
    p_serve.add_argument("--jobs", type=int, default=None,
                         help="worker processes shared by all running "
                              "jobs (default: $REPRO_JOBS, else 1: jobs "
                              "compute in the server process)")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="per-point timeout in seconds; a timed-out "
                              "point is recomputed serially")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="always simulate; do not read or write the "
                              "result cache")
    p_serve.add_argument("--cache-dir", metavar="DIR",
                         help="store location for caches AND the "
                              "persistent job queue (default: "
                              ".repro-cache/ or $REPRO_CACHE_DIR)")
    p_serve.add_argument("--cache-max-mb", type=float, default=None,
                         metavar="MB",
                         help="size cap for the on-disk store")
    p_serve.add_argument("--max-active-per-tenant", type=int, default=8,
                         metavar="N",
                         help="per-tenant quota of queued+running jobs; "
                              "submissions past it are rejected 429 "
                              "(default 8)")
    p_serve.add_argument("--max-concurrent-jobs", type=int, default=2,
                         metavar="N",
                         help="jobs executing at once, all sharing the "
                              "--jobs worker processes (default 2)")
    p_serve.add_argument("--lease-s", type=float, default=15.0,
                         metavar="S",
                         help="running-job lease duration; a job whose "
                              "worker stops heartbeating for this long is "
                              "requeued by the watchdog (default 15)")
    p_serve.add_argument("--max-lease-attempts", type=int, default=3,
                         metavar="N",
                         help="lease losses (crashes/wedges) a job may "
                              "survive before it fails with a typed "
                              "lease-expired error (default 3)")
    p_serve.add_argument("--max-queued", type=int, default=None,
                         metavar="N",
                         help="global queued-job cap; submissions past it "
                              "shed with 503 + Retry-After (default: "
                              "uncapped)")
    p_serve.add_argument("--max-backlog-per-tenant", type=int,
                         default=None, metavar="N",
                         help="per-tenant queued-job cap; submissions "
                              "past it shed with 503 + Retry-After "
                              "(default: uncapped)")
    p_serve.add_argument("--job-ttl-s", type=float, default=24 * 3600.0,
                         metavar="S",
                         help="terminal job history older than this is "
                              "garbage-collected by the watchdog "
                              "(default 86400)")

    p_jobs = sub.add_parser(
        "jobs", help="inspect/prune the persisted job queue (offline)")
    jobs_sub = p_jobs.add_subparsers(dest="jobs_command", required=True)
    p_jobs_list = jobs_sub.add_parser(
        "list", help="list persisted job records from the store")
    p_jobs_list.add_argument("--cache-dir", metavar="DIR",
                             help="store root the server persists jobs "
                                  "under (default: .repro-cache/ or "
                                  "$REPRO_CACHE_DIR)")
    p_jobs_list.add_argument("--state", metavar="STATE", default=None,
                             help="only records in this state (queued, "
                                  "running, completed, cancelled, failed)")
    p_jobs_gc = jobs_sub.add_parser(
        "gc", help="prune terminal job records older than a cutoff")
    p_jobs_gc.add_argument("--older-than", type=float, required=True,
                           metavar="S",
                           help="age cutoff in seconds; terminal records "
                                "older than this are deleted (live "
                                "queued/running records are never touched)")
    p_jobs_gc.add_argument("--cache-dir", metavar="DIR",
                           help="store root the server persists jobs under")

    p_show = sub.add_parser("show", help="render a workload's structure")
    p_show.add_argument("workload")
    p_show.add_argument("--what", default="tasks",
                        choices=["tasks", "dfg", "mapping", "graph"],
                        help="task graph DOT, kernel DFG DOT, the fabric "
                             "placement, or the recovered TaskGraph IR "
                             "(typed-edge DOT + structure summary)")
    p_show.add_argument("--lanes", type=int, default=8,
                        help="lane count for the --what graph speedup "
                             "bound (default 8)")
    return parser


def _fault_plan(args):
    """Load the ``--faults`` plan, or None when the flag was not given."""
    if getattr(args, "faults", None) is None:
        return None
    from repro.sim.faults import FaultPlan

    return FaultPlan.load(args.faults)


def _features(args) -> FeatureFlags:
    return FeatureFlags(
        work_aware_lb=not args.no_lb,
        pipelining=not args.no_pipe,
        multicast=not args.no_mcast,
        config_affinity=args.affinity,
        prefetch=args.prefetch,
    )


def _cmd_list() -> int:
    print("workloads:")
    for name in workload_names():
        print(f"  {name}")
    print("experiments:")
    for eid, fn in ALL_EXPERIMENTS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"  {eid:<3} {doc}")
    return 0


def _cmd_run(args) -> int:
    workload = get_workload(args.workload)
    program = workload.build_program()
    plan = _fault_plan(args)
    if args.machine == "delta":
        config = default_delta_config(lanes=args.lanes, seed=args.seed,
                                      features=_features(args))
        config = config.with_policy(args.policy)
        if args.sanitize:
            config = config.with_sanitize(True)
        if plan is not None:
            config = config.with_faults(plan)
        sched_hints = None
        if policy_uses_structure(args.policy):
            from repro.sched.structure import hints_from_factory

            sched_hints = hints_from_factory(workload.build_program)
        result = Delta(config).run(program, trace=bool(args.trace),
                                   sched_hints=sched_hints)
    else:
        config = default_baseline_config(lanes=args.lanes, seed=args.seed)
        if args.sanitize:
            config = config.with_sanitize(True)
        if plan is not None:
            config = config.with_faults(plan)
        result = StaticParallel(config).run(program,
                                            trace=bool(args.trace))
    workload.check(result.state)
    print(result.summary())
    print("functional check: OK (verified against the reference "
          "implementation)")
    if args.counters:
        print(result.counters.render())
    if args.trace:
        result.trace.write_chrome_trace(args.trace)
        print(f"trace written to {args.trace} "
              f"({len(result.trace.events)} events)")
    return 0


def _cmd_compare(args) -> int:
    workload = get_workload(args.workload)
    delta_cfg = default_delta_config(lanes=args.lanes, seed=args.seed,
                                     features=_features(args))
    delta_cfg = delta_cfg.with_policy(args.policy)
    if args.sanitize:
        delta_cfg = delta_cfg.with_sanitize(True)
    plan = _fault_plan(args)
    if plan is not None:
        delta_cfg = delta_cfg.with_faults(plan)
    comparison = run_compare(workload, delta_cfg)
    print(comparison.delta.summary())
    print(comparison.static.summary())
    print(f"speedup {comparison.speedup:.2f}x, "
          f"DRAM traffic reduction {comparison.traffic_ratio:.2f}x")
    print(f"critical-path speedup bound {comparison.cp_bound:.2f}x "
          f"at {comparison.lanes} lanes "
          f"(inherent parallelism {comparison.parallelism:.2f})")
    return 0


def _cmd_suite(args) -> int:
    comparisons = run_suite(lanes=args.lanes, jobs=args.jobs,
                            sanitize=args.sanitize,
                            faults=_fault_plan(args))
    rows = [c.row() for c in comparisons]
    print(format_table(
        ["workload", "delta cyc", "static cyc", "speedup",
         "delta CV", "static CV"], rows,
        title=f"evaluation suite ({args.lanes} lanes)"))
    print(f"geomean speedup: {suite_geomean(comparisons):.2f}x")
    return 0


def _cmd_eval(args) -> int:
    import time

    from repro.eval.cache import EvalCache
    from repro.eval.parallel import default_jobs, run_suite_parallel
    from repro.eval.runner import simulation_count
    from repro.machine.metrics import MetricsBus
    from repro.store import open_store

    bus = MetricsBus()
    store = open_store(args.cache_dir, max_mb=args.cache_max_mb,
                       metrics=bus.cache)
    if args.clear_cache:
        removed = store.clear_report()
        total = sum(removed.values())
        detail = ", ".join(f"{count} {name}"
                           for name, count in sorted(removed.items()))
        print(f"cleared {total} cached entr{'y' if total == 1 else 'ies'}"
              + (f" ({detail})" if detail else ""))
    cache = None if args.no_cache else EvalCache(store=store)
    workloads = None
    if args.workloads:
        workloads = [get_workload(name) for name in args.workloads]

    jobs = args.jobs if args.jobs else default_jobs()
    if args.policy_matrix:
        return _cmd_policy_matrix(args, workloads, jobs, cache)
    sims_before = simulation_count()
    started = time.perf_counter()
    outcomes: list[str] = []
    comparisons = run_suite_parallel(lanes=args.lanes, workloads=workloads,
                                     jobs=jobs, timeout=args.timeout,
                                     cache=cache, sanitize=args.sanitize,
                                     faults=_fault_plan(args),
                                     outcomes=outcomes)
    elapsed = time.perf_counter() - started
    rows = [c.row_with_bound() for c in comparisons]
    print(format_table(
        ["workload", "delta cyc", "static cyc", "speedup",
         "delta CV", "static CV", "cp bound"], rows,
        title=f"evaluation suite ({args.lanes} lanes, {jobs} jobs)"))
    print(f"geomean speedup: {suite_geomean(comparisons):.2f}x")
    # Simulations counted in this process: parallel points simulate in
    # workers, so a fully-warm cache run reports 0 here either way.
    local_sims = simulation_count() - sims_before
    print(f"wall-clock {elapsed:.2f}s, {len(comparisons)} points, "
          f"{local_sims} simulated in this process")
    slow = [c.workload for c, o in zip(comparisons, outcomes)
            if o == "recovered-after-timeout"]
    if slow:
        print(f"recovered after timeout ({args.timeout:g}s): "
              + ", ".join(slow))
    if cache is not None:
        print(cache.stats())
        # Eviction normally runs after writes; a fully-warm run writes
        # nothing, so enforce a (possibly just-lowered) budget here too.
        store.evict_to_budget()
        m = bus.cache
        print(f"store: {m.hits:.0f} hits / {m.misses:.0f} misses "
              f"({m.hit_rate() * 100:.0f}% hit rate), "
              f"{m.coalesced:.0f} coalesced, {m.evictions:.0f} evicted, "
              f"{m.corrupt:.0f} corrupt dropped, "
              f"{m.lock_waits:.0f} lock waits")
    return 0


def _cmd_policy_matrix(args, workloads, jobs, cache) -> int:
    """``repro eval --policy-matrix``: the scheduling-policy tournament."""
    import time

    from repro.eval.policy_matrix import (
        canned_fault_plan,
        run_policy_matrix,
        tournament_winner,
    )
    from repro.eval.tables import policy_matrix_table

    if workloads is None:
        workloads = [get_workload(name) for name in workload_names()]
    plan = _fault_plan(args) or canned_fault_plan()
    started = time.perf_counter()
    outcomes = run_policy_matrix(lanes=args.lanes, workloads=workloads,
                                 jobs=jobs, timeout=args.timeout,
                                 cache=cache, sanitize=args.sanitize,
                                 plan=plan)
    elapsed = time.perf_counter() - started
    print(policy_matrix_table(outcomes, lanes=args.lanes))
    winner = tournament_winner(outcomes)
    print(f"winner: {winner.policy} "
          f"({winner.speedup:.2f}x fault-free geomean, "
          f"{winner.faulty_speedup:.2f}x under the fault plan)")
    print(f"wall-clock {elapsed:.2f}s, {len(outcomes)} policies x "
          f"{len(workloads)} workloads x 2 fault conditions")
    return 0


def _cmd_serve(args) -> int:
    import threading

    from repro.serve import Server

    # asyncio raises OverflowError (not OSError) for an out-of-range
    # port, which would escape the user-error net as a traceback.
    if not 0 <= args.port <= 65535:
        raise ValueError(f"--port must be in 0..65535, got {args.port}")
    server = Server(host=args.host, port=args.port, root=args.cache_dir,
                    cache_max_mb=args.cache_max_mb,
                    no_cache=args.no_cache, jobs=args.jobs,
                    timeout=args.timeout,
                    max_active_per_tenant=args.max_active_per_tenant,
                    max_concurrent_jobs=args.max_concurrent_jobs,
                    lease_s=args.lease_s,
                    max_lease_attempts=args.max_lease_attempts,
                    max_queued=args.max_queued,
                    max_backlog_per_tenant=args.max_backlog_per_tenant,
                    job_ttl_s=args.job_ttl_s)

    def announce() -> None:
        server.ready.wait()
        print(f"repro serve: listening on "
              f"http://{server.host}:{server.port} "
              f"(jobs persist under {server.store.root})", flush=True)

    threading.Thread(target=announce, daemon=True).start()
    try:
        server.run()  # returns after SIGINT/SIGTERM → graceful stop
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_jobs(args) -> int:
    """``repro jobs list|gc`` — operate on persisted job records directly.

    Works against the store with no server running: ``list`` summarises
    every record in the ``jobs`` namespace, ``gc --older-than S`` prunes
    terminal history past the cutoff (live queued/running records are
    shielded regardless of age, so a long outage never costs queued
    work).
    """
    import time

    from repro.serve.queue import gc_jobs, scan_jobs
    from repro.store import open_store

    store = open_store(args.cache_dir)
    if args.jobs_command == "gc":
        removed = gc_jobs(store, args.older_than)
        print(f"pruned {removed} terminal job record"
              f"{'' if removed == 1 else 's'} older than "
              f"{args.older_than:g}s")
        return 0
    records = sorted(scan_jobs(store),
                     key=lambda r: (r["finished_at"] or float("inf"),
                                    r["job"]))
    if args.state is not None:
        records = [r for r in records if r["state"] == args.state]
    if not records:
        print("no persisted job records"
              + (f" in state {args.state!r}" if args.state else ""))
        return 0
    now = time.time()
    for record in records:
        age = ""
        if record["finished_at"] is not None:
            age = f" finished {max(now - record['finished_at'], 0):.0f}s ago"
        error = ""
        if record["error"]:
            code = record["error_code"] or "error"
            error = f" [{code}: {record['error']}]"
        workloads = ",".join(record["workloads"]) or "-"
        print(f"{record['job']}  {record['state']:<9} "
              f"tenant={record['tenant']} attempts={record['attempts']} "
              f"events={record['events']} {workloads}{age}{error}")
    print(f"{len(records)} record{'' if len(records) == 1 else 's'}")
    return 0


def _cmd_experiment(args) -> int:
    eid = args.experiment_id.upper()
    fn = ALL_EXPERIMENTS.get(eid)
    if fn is None:
        print(f"unknown experiment {eid!r}; known: "
              f"{', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    print(fn())
    return 0


def _cmd_show(args) -> int:
    from repro.arch.mapper import Mapper
    from repro.core.program import expand_program
    from repro.core.visualize import dfg_dot, mapping_ascii, task_graph_dot

    workload = get_workload(args.workload)
    program = workload.build_program()
    if args.what == "tasks":
        print(task_graph_dot(expand_program(program)))
        return 0
    if args.what == "graph":
        from repro.graph import graph_dot, graph_summary, recover_structure

        graph = recover_structure(program)
        print(graph_dot(graph))
        print()
        print(graph_summary(graph, lanes=args.lanes))
        return 0
    # One rendering per distinct kernel DFG in the program.
    expanded = expand_program(program)
    seen = {}
    for task in expanded.tasks:
        seen.setdefault(task.type.dfg.signature(), task.type.dfg)
    for dfg in seen.values():
        if args.what == "dfg":
            print(dfg_dot(dfg))
        else:
            mapper = Mapper(default_delta_config().lane.fabric)
            print(mapping_ascii(dfg, mapper.map(dfg)))
        print()
    return 0


#: Structured failure modes → distinct exit codes, so scripts and CI can
#: tell a hung run (3) from a malformed program (4) from a model-invariant
#: violation (5) from exhausted fault recovery (6). User errors stay 2.
_DIAGNOSTIC_LINES = 30


def _structured_exit_codes() -> list[tuple[type, int]]:
    from repro.graph.ir import GraphValidationError
    from repro.machine.session import ExecutionStalled
    from repro.sim.faults import UnrecoverableFault
    from repro.sim.sanitize import ModelInvariantError

    return [(ExecutionStalled, 3), (GraphValidationError, 4),
            (ModelInvariantError, 5), (UnrecoverableFault, 6)]


def _print_diagnostic(command: str, exc: Exception) -> None:
    """One-screen diagnostic: the exception type plus its message, capped
    so a pathological report cannot flood the terminal."""
    text = f"repro {command}: {type(exc).__name__}: {exc}"
    lines = text.splitlines()
    if len(lines) > _DIAGNOSTIC_LINES:
        dropped = len(lines) - _DIAGNOSTIC_LINES
        lines = lines[:_DIAGNOSTIC_LINES] + [f"... ({dropped} more lines)"]
    print("\n".join(lines), file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    User errors (unknown workload, invalid configuration, an unreadable
    fault plan) print one clean line and return exit code 2. Structured
    simulation failures get a one-screen diagnostic and a distinct code:
    :class:`ExecutionStalled` → 3, :class:`GraphValidationError` → 4,
    :class:`ModelInvariantError` → 5, :class:`UnrecoverableFault` → 6.
    Only genuinely internal errors raise a traceback.
    """
    from repro.util.validate import ConfigError

    args = _build_parser().parse_args(argv)
    commands = {
        "list": _cmd_list,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "suite": _cmd_suite,
        "eval": _cmd_eval,
        "experiment": _cmd_experiment,
        "serve": _cmd_serve,
        "jobs": _cmd_jobs,
        "show": _cmd_show,
    }
    handler = commands[args.command]
    structured = _structured_exit_codes()
    try:
        if args.command == "list":
            return handler()
        return handler(args)
    # GraphValidationError subclasses ValueError: check structured kinds
    # before the generic user-error net.
    except tuple(kind for kind, _code in structured) as exc:
        _print_diagnostic(args.command, exc)
        for kind, code in structured:
            if isinstance(exc, kind):
                return code
        raise AssertionError("unreachable")  # pragma: no cover
    except (KeyError, ConfigError, ValueError, OSError) as exc:
        # OSError.args[0] is the errno; str() gives the readable form.
        if isinstance(exc, OSError):
            message = str(exc)
        else:
            message = exc.args[0] if exc.args else str(exc)
        print(f"repro {args.command}: error: {message}", file=sys.stderr)
        return 2
