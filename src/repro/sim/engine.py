"""Core event loop: environment, events, processes, timeouts.

The design follows the classic process-interaction DES structure:

- An :class:`Event` is a one-shot occurrence. Processes waiting on it are
  resumed when it *succeeds* (optionally carrying a value) or *fails*
  (carrying an exception, re-raised inside the waiting process).
- A :class:`Process` wraps a generator. Each ``yield`` hands the kernel an
  event to wait on; when that event fires, the generator is resumed with
  the event's value (or the exception is thrown into it).
- The :class:`Environment` owns simulated time and the event heap.

This is deliberately a subset of SimPy's semantics — enough for cycle-level
hardware modeling, small enough to reason about and test exhaustively.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional


#: Scheduling slots drained by every environment in this process — the
#: denominator of the events/sec metric in BENCH_*.json. Both kernels
#: drain the same slots for a run; the count is still kept out of the
#: counter bag, and so out of every fingerprint, because it measures the
#: kernel's work rather than anything the modeled hardware does.
_process_events_total = 0


def total_events_processed() -> int:
    """Process-wide count of scheduling slots drained by ``run()`` calls."""
    return _process_events_total


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (yielding a non-event, etc.)."""


class DeadlockError(SimulationError):
    """Raised by :meth:`Environment.run` when processes remain but no event
    is scheduled — simulated hardware has deadlocked (e.g. a full queue with
    no consumer)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes can wait on.

    State machine: *pending* → *triggered* (scheduled on the heap) →
    *processed* (callbacks ran). ``succeed``/``fail`` may be called exactly
    once.
    """

    __slots__ = ("env", "_callbacks", "_value", "_ok", "_triggered",
                 "_processed", "name")

    def __init__(self, env: "Environment", name: str = "") -> None:
        self.env = env
        self.name = name
        # Lazily allocated: most events carry exactly one waiter, many none.
        self._callbacks: Optional[list[Callable[[Event], None]]] = None
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once succeed/fail has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None if still pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        return self._value

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event is processed.

        If the event already fired, the callback is scheduled immediately.
        """
        if self._processed:
            # Run via the heap to preserve causal ordering.
            self.env._schedule_call(fn, self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None, delay: float = 0) -> "Event":
        """Mark the event successful; waiters resume with ``value``."""
        self._trigger(True, value, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0) -> "Event":
        """Mark the event failed; waiters see ``exc`` raised."""
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._trigger(False, exc, delay)
        return self

    def _fire(self, value: Any = None) -> None:
        """Succeed and run the callbacks now, inside the current slot.

        The event form of a resource operation is an adapter over its
        callback form: it passes ``_fire`` as the callback, which the
        callback form queues as a call slot exactly where the event
        would have been queued by ``succeed``.
        """
        self._triggered = self._ok = True
        self._value = value
        self._process()

    def _trigger(self, ok: bool, value: Any, delay: float) -> None:
        if self._triggered:
            raise SimulationError(f"event {self} already triggered")
        self._triggered = True
        self._ok = ok
        self._value = value
        self.env._schedule_event(self, delay)

    def _process(self) -> None:
        self._processed = True
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("processed" if self._processed
                 else "triggered" if self._triggered else "pending")
        label = self.name or type(self).__name__
        return f"<{label} {state} at t={self.env.now}>"


class Timeout(Event):
    """An event that fires ``delay`` cycles after creation.

    The display name is derived lazily in ``__repr__``: formatting a name
    for each timeout would dominate its cost.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float,
                 value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        env._schedule_event(self, delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("processed" if self._processed
                 else "triggered" if self._triggered else "pending")
        return f"<timeout({self.delay}) {state} at t={self.env.now}>"


class Process(Event):
    """A running generator coroutine; also an event (fires on completion).

    The generator yields events; the process resumes when each fires. The
    process's own completion value is the generator's ``return`` value.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env, name=name or getattr(
            generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off the process via an immediate scheduling slot so creation
        # order matches execution order. The environment owns how that slot
        # is represented (a shim event on the reference heap, a bare call
        # slot in the fast kernel — same queue position either way).
        env._schedule_process_start(self)

    def _start(self, _arg: Any = None) -> None:
        """First resume, from the bootstrap slot (nothing awaited yet)."""
        if self.is_alive:
            self._step(None, is_throw=False)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting detaches it from the awaited event.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        interrupt_event = Event(self.env, name=f"interrupt:{self.name}")
        interrupt_event.add_callback(
            lambda _ev: self._resume_with_throw(Interrupt(cause)))
        interrupt_event.succeed()

    def _resume_with_throw(self, exc: BaseException) -> None:
        if not self.is_alive:
            return
        waiting = self._waiting_on
        if waiting is not None:
            # Detach: stale wakeups from this event must be ignored.
            self._waiting_on = None
        self._step(exc, is_throw=True)

    def _resume(self, event: Event) -> None:
        # Fields, not the ``is_alive``/``ok``/``value`` properties: this
        # runs once per resume.
        if self._triggered:
            return  # Stale wakeup of a finished process (e.g. post-interrupt).
        if self._waiting_on is not None and event is not self._waiting_on:
            return  # Stale wakeup after an interrupt detached us.
        self._waiting_on = None
        if event._ok is False:
            self._step(event._value, is_throw=True)
        else:
            self._step(event._value, is_throw=False)

    def _step(self, value: Any, is_throw: bool) -> None:
        try:
            if is_throw:
                target = self._generator.throw(value)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if self.env.strict:
                raise
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances (Timeout, Process, Store ops, ...)")
        if target.env is not self.env:
            raise SimulationError("yielded event belongs to another Environment")
        self._waiting_on = target
        target.add_callback(self._resume)


class Environment:
    """Simulated clock plus the pending-event heap.

    Parameters
    ----------
    strict:
        When True (the default), an exception raised inside a process
        propagates out of :meth:`run` immediately — the right behaviour for
        a simulator where a modeling bug should abort the experiment.
    """

    def __init__(self, strict: bool = True) -> None:
        self.now: float = 0.0
        self.strict = strict
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: Scheduling slots drained so far — the denominator of the
        #: events/sec throughput metric in BENCH_*.json.
        self.events_processed = 0
        #: Optional observer called as ``clock_monitor(prev, next)`` right
        #: before the clock advances to a later time — the sanitizer's
        #: cycle-monotonicity hook. None (the default) costs one comparison
        #: per event.
        self.clock_monitor: Optional[Callable[[float, float], None]] = None

    # -- scheduling ------------------------------------------------------

    def _schedule_event(self, event: Event, delay: float) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))

    def _schedule_call_at(self, at: float, fn: Callable[[Any], None],
                          arg: Any = None) -> None:
        """Queue ``fn(arg)`` as one scheduling slot at absolute time ``at``.

        The slot is a pre-triggered shim event pushed straight onto the
        heap: going through ``_schedule_event`` would compute
        ``now + (at - now)``, which float rounding can move off ``at``.
        The fast kernel queues a bare ``(fn, arg)`` call slot in the same
        position instead.
        """
        shim = Event(self, name="call-shim")
        shim._triggered = shim._ok = True
        shim._callbacks = [lambda _ev: fn(arg)]
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, shim))

    def _schedule_call(self, fn: Callable[[Any], None],
                       arg: Any = None) -> None:
        """Queue ``fn(arg)`` as one scheduling slot at the current time:
        where ``succeed`` would queue an event now."""
        self._schedule_call_at(self.now, fn, arg)

    def _schedule_process_start(self, process: "Process") -> None:
        """Queue the first resume of a freshly created process.

        One scheduling slot at the current time, so creation order matches
        execution order.
        """
        self._schedule_call_at(self.now, process._start)

    # -- public API ------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` cycles."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that fires when every given event has fired.

        The value is a list of the individual events' values, in input
        order. Failure of any child fails the aggregate (first failure wins).
        """
        events = list(events)
        done = self.event(name="all_of")
        if not events:
            done.succeed([])
            return done
        remaining = [len(events)]
        values: list[Any] = [None] * len(events)

        def make_cb(index: int) -> Callable[[Event], None]:
            def cb(ev: Event) -> None:
                if done.triggered:
                    return
                if ev.ok is False:
                    done.fail(ev.value)
                    return
                values[index] = ev.value
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.succeed(list(values))
            return cb

        for i, ev in enumerate(events):
            ev.add_callback(make_cb(i))
        return done

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that fires when the first of the given events fires."""
        events = list(events)
        if not events:
            raise SimulationError("any_of of no events")
        done = self.event(name="any_of")

        def cb(ev: Event) -> None:
            if not done.triggered:
                if ev.ok is False:
                    done.fail(ev.value)
                else:
                    done.succeed(ev.value)

        for ev in events:
            ev.add_callback(cb)
        return done

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap is empty or ``until`` cycles have elapsed.

        Returns the final simulated time. Raises :class:`DeadlockError` via
        resource/store bookkeeping only implicitly: an empty heap simply
        ends the run (callers check completion events; the Delta top level
        raises a descriptive error if its program did not finish).
        """
        global _process_events_total
        start = self.events_processed
        try:
            while self._heap:
                at, _seq, event = self._heap[0]
                if until is not None and at > until:
                    self.now = until
                    return self.now
                heapq.heappop(self._heap)
                if self.clock_monitor is not None and at != self.now:
                    self.clock_monitor(self.now, at)
                self.now = at
                self.events_processed += 1
                event._process()
            return self.now
        finally:
            _process_events_total += self.events_processed - start

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        return self._heap[0][0] if self._heap else float("inf")
