"""Tests for the command-line interface (repro.cli)."""

import sys

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "spmv" in out
    assert "F1" in out


def test_run_delta(capsys):
    assert main(["run", "micro-uniform", "--lanes", "2"]) == 0
    out = capsys.readouterr().out
    assert "delta" in out
    assert "functional check: OK" in out


def test_run_static_machine(capsys):
    assert main(["run", "micro-uniform", "--lanes", "2",
                 "--machine", "static"]) == 0
    assert "static" in capsys.readouterr().out


def test_run_with_counters(capsys):
    assert main(["run", "micro-uniform", "--lanes", "2",
                 "--counters"]) == 0
    assert "dram.read_bytes" in capsys.readouterr().out


def test_run_with_trace(tmp_path, capsys):
    trace_file = tmp_path / "t.json"
    assert main(["run", "micro-uniform", "--lanes", "2",
                 "--trace", str(trace_file)]) == 0
    assert trace_file.exists()
    assert "trace written" in capsys.readouterr().out


def test_run_with_ablation_flags(capsys):
    assert main(["run", "micro-shared", "--lanes", "2",
                 "--no-mcast", "--no-pipe", "--no-lb"]) == 0


def test_run_with_extensions(capsys):
    assert main(["run", "micro-thrash", "--lanes", "2",
                 "--affinity", "--prefetch"]) == 0


def test_run_unknown_workload_clean_error(capsys):
    assert main(["run", "not-a-workload"]) == 2
    err = capsys.readouterr().err
    assert "unknown workload" in err
    assert "Traceback" not in err


def test_run_invalid_config_clean_error(capsys):
    assert main(["run", "spmv", "--lanes", "0"]) == 2
    assert "lanes must be positive" in capsys.readouterr().err


def test_compare_command(capsys):
    assert main(["compare", "micro-skewed", "--lanes", "2"]) == 0
    assert "speedup" in capsys.readouterr().out


# -- the critical-path bound: one recovery per computed point -------------


@pytest.fixture
def recoveries(monkeypatch):
    """Names of the programs ``recover_structure`` elaborates, counted in
    every module that imported the function."""
    from repro.graph import ir

    original = ir.recover_structure
    calls = []

    def counted(program):
        calls.append(program.name)
        return original(program)

    for module in list(sys.modules.values()):
        if module is not None and \
                vars(module).get("recover_structure") is original:
            monkeypatch.setattr(module, "recover_structure", counted)
    return calls


def test_compare_recovers_structure_once(capsys, recoveries):
    assert main(["compare", "micro-chain"]) == 0
    out = capsys.readouterr().out
    assert "critical-path speedup bound 6.00x at 8 lanes" in out
    assert recoveries == ["chain"]


def test_run_structure_policy_recovers_once(capsys, recoveries):
    # The hints come from a build of their own: Delta's program is fresh.
    assert main(["run", "micro-chain", "--policy", "critical-path"]) == 0
    assert "functional check: OK" in capsys.readouterr().out
    assert recoveries == ["chain"]


def test_run_online_policy_recovers_nothing(capsys, recoveries):
    assert main(["run", "micro-chain", "--policy", "work-aware"]) == 0
    assert recoveries == []


def test_eval_recovers_structure_once_per_point(capsys, recoveries):
    assert main(["eval", "--no-cache", "--jobs", "1",
                 "--workloads", "micro-chain", "micro-skewed"]) == 0
    assert "cp bound" in capsys.readouterr().out
    assert recoveries == ["chain", "skewed"]


def test_warm_eval_prints_the_cold_bounds_without_recovery(
        tmp_path, capsys, monkeypatch, recoveries):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["eval", "--jobs", "1", "--workloads", "micro-chain",
            "micro-skewed"]
    assert main(argv) == 0
    cold = capsys.readouterr().out.split("geomean")[0]
    recovered = len(recoveries)
    assert main(argv) == 0
    warm = capsys.readouterr().out.split("geomean")[0]
    assert len(recoveries) == recovered, "a warm point recovered structure"
    assert "cp bound" in cold
    assert warm == cold


def test_experiment_t1(capsys):
    assert main(["experiment", "t1"]) == 0
    assert "machine configuration" in capsys.readouterr().out


def test_experiment_unknown(capsys):
    assert main(["experiment", "zz"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_show_tasks(capsys):
    assert main(["show", "micro-tree", "--what", "tasks"]) == 0
    out = capsys.readouterr().out
    assert "digraph taskgraph" in out
    assert "style=dotted" in out  # the IR's spawn edges
    assert "critical path" not in out  # the summary is --what graph's


def test_show_graph(capsys):
    assert main(["show", "micro-chain", "--what", "graph"]) == 0
    out = capsys.readouterr().out
    assert "digraph taskgraph" in out
    assert "critical path" in out
    assert "speedup bound" in out


def test_show_dfg(capsys):
    assert main(["show", "micro-uniform", "--what", "dfg"]) == 0
    assert "digraph" in capsys.readouterr().out


def test_show_mapping(capsys):
    assert main(["show", "micro-uniform", "--what", "mapping"]) == 0
    assert "II=" in capsys.readouterr().out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


# -- fault plans and structured exit codes --------------------------------


def _write_plan(tmp_path, **kwargs):
    from repro.sim.faults import FaultPlan

    path = tmp_path / "plan.json"
    FaultPlan(**kwargs).save(path)
    return str(path)


def test_run_with_faults_recovers(tmp_path, capsys):
    from repro.sim.faults import RetryPolicy

    plan = _write_plan(tmp_path, task_fault_rate=0.3, seed=2,
                       retry=RetryPolicy(max_attempts=10))
    assert main(["run", "micro-uniform", "--lanes", "2",
                 "--faults", plan, "--sanitize", "--counters"]) == 0
    out = capsys.readouterr().out
    assert "functional check: OK" in out


def test_compare_with_faults(tmp_path, capsys):
    from repro.sim.faults import RetryPolicy

    plan = _write_plan(tmp_path, task_fault_rate=0.2, seed=3,
                       retry=RetryPolicy(max_attempts=10))
    assert main(["compare", "micro-skewed", "--lanes", "2",
                 "--faults", plan]) == 0
    assert "speedup" in capsys.readouterr().out


def test_missing_faults_file_is_user_error(capsys):
    assert main(["run", "micro-uniform", "--lanes", "2",
                 "--faults", "/no/such/plan.json"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_malformed_faults_file_is_user_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "micro-uniform", "--lanes", "2",
                 "--faults", str(path)]) == 2


def test_unrecoverable_fault_exits_6(tmp_path, capsys):
    # Every task faults and the budget is one attempt: recovery exhausts.
    import json as jsonlib

    path = tmp_path / "fatal.json"
    path.write_text(jsonlib.dumps({
        "task_fault_rate": 1.0,
        "retry": {"max_attempts": 1, "backoff_cycles": 8.0},
    }))
    assert main(["run", "micro-uniform", "--lanes", "2",
                 "--faults", str(path)]) == 6
    err = capsys.readouterr().err
    assert "UnrecoverableFault" in err
    assert "transient-task-fault" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("make_exc,code", [
    (lambda: __import__("repro.machine.session", fromlist=["x"])
        .ExecutionStalled("stalled at cycle 5"), 3),
    (lambda: __import__("repro.graph.ir", fromlist=["x"])
        .GraphValidationError("cycle in task graph"), 4),
    (lambda: __import__("repro.sim.sanitize", fromlist=["x"])
        .ModelInvariantError("task-conservation", "lost a task"), 5),
    (lambda: __import__("repro.sim.faults", fromlist=["x"])
        .UnrecoverableFault("lane-fail-stop", "all lanes dead"), 6),
])
def test_structured_exit_codes(monkeypatch, capsys, make_exc, code):
    exc = make_exc()

    def boom(args):
        raise exc

    monkeypatch.setattr("repro.cli._cmd_run", boom)
    assert main(["run", "micro-uniform"]) == code
    err = capsys.readouterr().err
    assert type(exc).__name__ in err
    assert "Traceback" not in err


def test_diagnostic_is_capped_to_one_screen(monkeypatch, capsys):
    from repro.machine.session import ExecutionStalled

    def boom(args):
        raise ExecutionStalled("stalled\n" + "\n".join(
            f"line {i}" for i in range(100)))

    monkeypatch.setattr("repro.cli._cmd_run", boom)
    assert main(["run", "micro-uniform"]) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) <= 31
    assert "more lines" in err
