"""The workload interface: build a program, verify its results.

A workload owns:

- its **identity**: the arguments it was constructed with, defaults
  applied, which this base class records for every subclass
  (:attr:`Workload.arguments`). Caches key a workload by these alone, so
  its inputs must be a deterministic function of them;
- deterministic input generation, done on first use (:class:`first_use`)
  rather than in ``__init__``, which only validates and stores
  arguments — a cache hit, or an instance shipped to a pool worker, never
  pays for inputs it does not read;
- a :meth:`Workload.build_program` factory returning a *fresh* program —
  kernels mutate program state, so every simulation run gets its own copy;
- a :meth:`Workload.reference` computation (NumPy / pure Python), computed
  once per instance as :attr:`Workload.expected`;
- a :meth:`Workload.check` that compares simulated state to the reference.

Sizes default to "small but structurally faithful": large enough that
load-imbalance, sharing and pipelining effects show, small enough that the
full evaluation suite runs in minutes in pure Python.
"""

from __future__ import annotations

import abc
import functools
import inspect
from typing import Any, Callable

from repro.core.program import Program


class WorkloadError(AssertionError):
    """Raised when simulated results disagree with the reference."""


class first_use(functools.cached_property):
    """:func:`functools.cached_property` without its lock.

    Before Python 3.12 that decorator computes under one lock per
    attribute, shared by every instance. A pool worker forked while
    another thread holds it — ``repro serve`` computes one-point jobs in
    its threads while other jobs fork pools — inherits the lock held and
    hangs on its first read of the attribute. Values here depend only on
    a workload's arguments, so threads that race compute equal values and
    either may be kept.
    """

    def __get__(self, instance: Any, owner: Any = None) -> Any:
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class Workload(abc.ABC):
    """Base class for every evaluation workload."""

    #: Short identifier used in tables (override in subclasses).
    name: str = "workload"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            cls.__init__ = _recording_arguments(vars(cls)["__init__"])

    @property
    def arguments(self) -> tuple[tuple[str, Any], ...]:
        """``(parameter, value)`` per constructor parameter, in signature
        order with defaults applied — the workload's identity."""
        return vars(self).get("_arguments", ())

    @first_use
    def expected(self) -> Any:
        """:meth:`reference`, computed on first use and then kept, so
        every :meth:`check` of this instance compares against one
        result."""
        return self.reference()

    @abc.abstractmethod
    def build_program(self) -> Program:
        """Create a fresh program instance (fresh state, fresh tasks)."""

    @abc.abstractmethod
    def reference(self) -> Any:
        """Compute the expected result with a plain implementation."""

    @abc.abstractmethod
    def check(self, state: Any) -> None:
        """Raise :class:`WorkloadError` if ``state`` mismatches the
        reference."""

    # -- conveniences --------------------------------------------------------

    def verify_result(self, state: Any) -> bool:
        """Like :meth:`check` but returns True/False."""
        try:
            self.check(state)
            return True
        except WorkloadError:
            return False

    def describe(self) -> dict:
        """Workload-characteristics row for table T2 (override to extend)."""
        return {"name": self.name}


def _recording_arguments(init: Callable[..., None]) -> Callable[..., None]:
    """Wrap a subclass ``__init__`` so it records its bound arguments.

    Only the outermost constructor records: a subclass whose ``__init__``
    chains to its parent's is identified by its own arguments. A call
    without arguments — how the registry and ``repro serve`` build
    workloads — records the defaults, bound once here.
    """
    signature = inspect.signature(init)

    def bind(self: Workload, *args: Any, **kwargs: Any) -> tuple:
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments.items())[1:]

    try:
        defaults = bind(None)
    except TypeError:
        defaults = None  # a required parameter: every call binds

    @functools.wraps(init)
    def __init__(self: Workload, *args: Any, **kwargs: Any) -> None:
        if "_arguments" not in vars(self):
            self._arguments = (defaults if defaults is not None
                               and not args and not kwargs
                               else bind(self, *args, **kwargs))
        init(self, *args, **kwargs)

    return __init__


def require(condition: bool, message: str) -> None:
    """Raise :class:`WorkloadError` unless ``condition`` holds."""
    if not condition:
        raise WorkloadError(message)
