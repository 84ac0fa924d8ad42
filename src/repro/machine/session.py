"""The shared run lifecycle: drive a machine to completion, or diagnose why
it did not get there.

Every execution model runs the same way: submit work, run the event loop
under an optional max-cycle guard, check that the program actually drained
(raising :class:`ExecutionStalled` with diagnostics otherwise), and
assemble the canonical :class:`~repro.machine.result.RunResult` from the
machine's counter bag. :class:`RunSession` owns that lifecycle so Delta
and the static baseline cannot drift apart in how they account progress
or report results. It also owns the two task-execution steps both models
share: riding out transient task faults and draining unread input.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.machine.machine import Machine
from repro.machine.result import RunResult
from repro.sim import Process, Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.lane import Lane
    from repro.arch.mapper import Mapping
    from repro.core.task import Task


class ExecutionStalled(RuntimeError):
    """The simulation ended with tasks still outstanding (modeling bug or
    genuinely deadlocked program)."""


class RunSession:
    """Progress accounting + stall detection + result assembly for one run.

    The execution model calls :meth:`task_completed` as tasks retire,
    :meth:`run_until_complete` to drive the event loop, and
    :meth:`result` to collect the canonical statistics.
    """

    def __init__(self, machine: Machine, machine_name: str,
                 program_name: str, state: object) -> None:
        self.machine = machine
        self.machine_name = machine_name
        self.program_name = program_name
        self.state = state
        self.tasks_executed = 0
        self.last_completion = 0.0

    # -- progress accounting ----------------------------------------------

    def task_completed(self) -> None:
        """Record one retired task at the current simulated time."""
        self.tasks_executed += 1
        self.last_completion = self.machine.env.now

    # -- shared task-execution steps ---------------------------------------

    def ride_out_task_faults(self, lane: "Lane", task: "Task",
                             mapping: "Mapping") -> Generator:
        """Transient-fault window: each execution attempt may die mid-
        flight.  A dead attempt wastes a drawn fraction of the task's
        nominal compute time plus the policy backoff — as *idle* lane
        time, since only the final successful pass drives the fabric (the
        work-accounting invariant holds without exemptions).  The kernel's
        functional effects stand from the first pass; re-execution is a
        timing event, so degraded runs stay functionally correct.
        """
        machine = self.machine
        env, counters = machine.env, machine.counters
        nominal = mapping.compute_cycles(task.trips)
        attempt = 1
        while True:
            wasted = machine.injector.task_fault_delay(
                task.name, lane.lane_id, attempt, nominal, env.now)
            if wasted is None:
                return
            counters.add("faults.injected")
            counters.add("faults.task_transient")
            machine.sanitizer.task_retried(task, lane.lane_id, attempt,
                                           env.now)
            counters.add("recovery.retries")
            counters.add("recovery.recovery_cycles", wasted)
            yield env.timeout(wasted)
            attempt += 1

    def drain(self, in_streams: list[tuple[Store, int]]) -> list[Process]:
        """Start draining every input store the compute left unread
        (rounding, or early-closed streams), so producers blocked on full
        stores always make progress."""
        env = self.machine.env
        return [env.process(_drain(store))
                for store, _total in in_streams
                if not (store.closed and store.level == 0)]

    # -- lifecycle ---------------------------------------------------------

    def run_until_complete(self, max_cycles: Optional[float],
                           finished: Callable[[], bool],
                           stall_detail: Optional[Callable[[], str]] = None,
                           ) -> None:
        """Run the event loop; raise :class:`ExecutionStalled` if the
        completion condition does not hold when it returns.

        ``finished`` is the execution model's completion predicate (the
        dispatcher's drained event, the phase schedule's final barrier);
        ``stall_detail`` supplies model-specific diagnostics for the error.
        """
        env = self.machine.env
        env.run(until=max_cycles)
        if not finished():
            detail = f" {stall_detail()}" if stall_detail is not None else ""
            detail += f"\n{self._lane_snapshot()}"
            sanitizer = self.machine.sanitizer
            if sanitizer.enabled:
                detail += f"\n{sanitizer.pending_report()}"
            raise ExecutionStalled(
                f"{self.machine_name} run of {self.program_name!r} did not "
                f"finish: stalled at cycle {env.now:,.0f}{detail}")

    def _lane_snapshot(self) -> str:
        """One line of per-lane occupancy — always part of a stall report,
        so a hung run is diagnosable without re-running under the
        sanitizer."""
        lanes = ", ".join(
            f"{lane.name}: busy={lane.busy_cycles:,.0f}"
            for lane in self.machine.lanes)
        return (f"lanes [{lanes}]; "
                f"{self.tasks_executed} tasks retired, "
                f"last at cycle {self.last_completion:,.0f}")

    # -- result assembly ---------------------------------------------------

    def result(self, cycles: Optional[float] = None) -> RunResult:
        """Assemble the canonical result from the machine's counter bag.

        ``cycles`` defaults to the completion time of the last retired
        task; barrier-structured models pass the final barrier time
        (``env.now``) instead.

        With the sanitizer attached, its whole-run balance checks (task
        conservation, work accounting, stream and multicast conservation)
        run here, before the result is assembled.
        """
        machine = self.machine
        machine.sanitizer.finish(machine.counters, machine.lane_busy)
        return RunResult(
            machine=self.machine_name,
            program_name=self.program_name,
            config=machine.config,
            cycles=self.last_completion if cycles is None else cycles,
            tasks_executed=self.tasks_executed,
            counters=machine.counters,
            lane_busy=machine.lane_busy,
            state=self.state,
            trace=machine.tracer if machine.tracer.enabled else None,
        )


def _drain(store: Store) -> Generator:
    while True:
        token = yield store.get()
        if token is Store.END:
            return
