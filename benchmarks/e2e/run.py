#!/usr/bin/env python3
"""End-to-end benchmark: sweeps and served jobs, timed and traced.

Run from the repository root::

    python3 benchmarks/e2e/run.py                       # all workloads
    python3 benchmarks/e2e/run.py --workload sweep-cold --seed 3 \\
        --seconds 15 --trace 0

Each workload runs in fresh child processes with a hermetic environment.
A timed run (``--trace 0``) launches the workload ``setup_launches``
times; spawn-to-ready time of each launch gives ``setup_s`` and the last
launch goes on to measure for ``--seconds``. A traced run (``--trace 1``)
replays the seed's first slice to warm up, then untraced, then with every
layer wrapped in spans, and writes a Chrome trace. Every metric declared in
``BENCHMARK.json`` is printed with its unit; the last line of output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Results and traces go to ``--out``. The exit code is 0 only
when every output checked out; a checkout without ``src/repro`` exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    BENCHMARK_JSON,
    FULL,
    ROOT,
    SMOKE,
    SRC,
    WORKDIR,
    WORKLOADS,
    hermetic_env,
    host_speed,
    load_benchmark,
)

#: Longest one child process may run before it is killed.
CHILD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A child failed or emitted something other than the declared set."""


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end sweep and serve benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per timed run (default: "
                             "run_seconds from BENCHMARK.json; 2 with "
                             "--smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1 = traced per-layer run (default: 0 for one "
                             "workload, both for all)")
    parser.add_argument("--smoke", action="store_true",
                        help="a small fraction of the work, for tests")
    parser.add_argument("--out", type=Path, default=WORKDIR / "out",
                        help="directory for result JSON and Chrome traces")
    parser.add_argument("--child", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child side --------------------------------------------------------------

def child_main(args) -> int:
    """One fresh workload process: set up, say READY, then measure or
    trace and print one ``RESULT`` line."""
    from common import run_info

    plan = SMOKE if args.smoke else FULL
    if args.workload == "serve-mix":
        from serve_mix import ServeMix as workload_class
    else:
        from sweeps import SWEEPS

        workload_class = SWEEPS[args.workload]
    workload = workload_class(plan, args.seed)
    result = None
    try:
        workload.setup(for_trace=args.child == "trace")
        print("READY", flush=True)
        if args.child == "measure":
            result = workload.measure(args.seconds)
        elif args.child == "trace":
            import spans

            result = workload.trace(spans.Recorder(), args.trace_file)
    finally:
        workload.close()
    if result is not None:
        result["info"] = run_info()
        print("RESULT " + json.dumps(result), flush=True)
    return 0


# -- launcher side -----------------------------------------------------------

def launch(args, mode: str, *extra: str):
    """Run one child; returns (seconds from spawn to READY, result)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), *extra]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=hermetic_env(),
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready is None or (
            mode != "setup" and result is None):
        raise BenchError(f"{args.workload} {mode} child failed "
                         f"(exit {proc.returncode})")
    return ready, result


def run_workload(args, declared: dict) -> dict:
    """One timed or traced run of ``args.workload``, validated against the
    metrics ``BENCHMARK.json`` declares for it."""
    plan = SMOKE if args.smoke else FULL
    stamp = time.time_ns()
    stem = str(args.out / f"{args.workload}.seed{args.seed}."
                          f"trace{args.trace}.{stamp}")
    if args.trace:
        _, result = launch(args, "trace", "--trace-file", stem + ".trace.json")
        units = declared["per_layer"]
    else:
        # Every launch's spawn-to-ready time is a set-up sample, taken
        # with the host speed just before it; the last launch measures.
        setups = []
        for launch_no in range(1, plan.setup_launches + 1):
            speed = host_speed(0.1)
            last = launch_no == plan.setup_launches
            ready, result = launch(args, "measure" if last else "setup")
            setups.append((ready, speed))
        result["metrics"]["setup_s"] = statistics.median(
            ready * speed for ready, speed in setups)
        result["samples"]["setup_s"] = setups
        units = declared["end_to_end"]
    emitted = set(result["metrics"])
    if emitted != set(units):
        raise BenchError(f"{args.workload}: metrics differ from "
                         f"BENCHMARK.json: {sorted(emitted ^ set(units))}")
    result["metrics"] = {name: {"value": result["metrics"][name],
                                "unit": unit} for name, unit in units.items()}
    result.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, smoke=args.smoke, stamp=stamp)
    Path(stem + ".json").write_text(json.dumps(result, indent=1))
    return result


def report(result: dict) -> None:
    kind = "traced" if result["trace"] else "timed"
    print(f"{result['workload']} seed={result['seed']} {kind}: "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in result["exact"].items():
        print(f"  {name:<34} {value!r:>16}")
    for problem in result.get("problems", []):
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() \
            or not BENCHMARK_JSON.is_file():
        print(f"run.py: no repro sources under {SRC} or no {BENCHMARK_JSON}",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    bench = load_benchmark()
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(bench["run_seconds"])
    args.out.mkdir(parents=True, exist_ok=True)

    runs = ([(args.workload, args.trace or 0)] if args.workload
            else [(w, t) for w in WORKLOADS
                  for t in ((0, 1) if args.trace is None else (args.trace,))])
    results = []
    try:
        for args.workload, args.trace in runs:
            results.append(run_workload(args, declared))
            report(results[-1])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in results for name, metric in r["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
