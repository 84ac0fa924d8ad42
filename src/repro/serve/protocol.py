"""The sweep server's wire schema: job specs, typed errors, event shapes.

Everything that crosses the socket is JSON. A *job spec* is what a client
POSTs to ``/jobs``; this module validates it into a frozen
:class:`JobSpec`. What a job computes is its workloads and machine
configuration; tenant and priority only say who asks and how urgently,
so two tenants' identical points share one computation in flight (the
harness's in-flight table keys points like the cache does).

Errors the server must reject are :class:`ServeError` instances carrying
a stable machine-readable ``code`` and the HTTP status the front-end maps
them to — clients branch on the code, humans read the message.

Events are plain dicts streamed as NDJSON (one JSON object per line) from
``GET /jobs/<id>/events``; the builders here are the single source of
their field names, shared by the executor (which emits them) and the test
battery (which asserts them). See ``docs/serving.md`` for the schema.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

#: Bump when the persisted job layout or the event schema changes.
#: v2: job records grew lease fields (owner, attempts, next_eligible_at,
#: finished_at) and typed error codes on ``failed`` events.
#: v3: job records are JSON, their spec a ``POST /jobs`` body; a record
#: written by an earlier version reads as corrupt.
PROTOCOL_VERSION = 3


# -- typed errors -----------------------------------------------------------

class ServeError(ValueError):
    """A request the server refuses, with a stable machine-readable code."""

    #: Machine-readable error identifier (kebab-case, stable across PRs).
    code = "bad-request"
    #: HTTP status the front-end responds with.
    status = 400

    def __init__(self, message: str, code: Optional[str] = None) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code

    def to_json(self) -> dict:
        """The typed error body every non-2xx response carries."""
        return {"error": {"code": self.code, "message": str(self)}}


class SpecError(ServeError):
    """The job spec failed validation (malformed JSON, unknown workload)."""

    code = "bad-spec"
    status = 400


class QuotaExceeded(ServeError):
    """The tenant is at its active-job quota; the submission was rejected."""

    code = "quota-exceeded"
    status = 429


class QueueOverloaded(ServeError):
    """The server is shedding load: the global queue (or this tenant's
    backlog) is at capacity. Carries a ``Retry-After`` hint, in seconds,
    derived from the queue's recent drain rate."""

    code = "overloaded"
    status = 503

    def __init__(self, message: str, retry_after_s: int = 5) -> None:
        super().__init__(message)
        self.retry_after_s = max(1, int(retry_after_s))

    def to_json(self) -> dict:
        body = super().to_json()
        body["error"]["retry_after_s"] = self.retry_after_s
        return body


class UnknownJob(ServeError):
    """No job with the requested id (live or persisted)."""

    code = "unknown-job"
    status = 404


# -- job specs --------------------------------------------------------------

def _sanitize_default() -> bool:
    """Honour ``REPRO_SANITIZE`` like the CLI does (without importing the
    simulation stack — serve sits above it only through the harness)."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "true", "yes", "on")


@dataclass(frozen=True)
class JobSpec:
    """One validated sweep/compare request.

    ``kind`` is ``"sweep"`` (a list of workloads) or ``"compare"`` (one
    workload) — both run through the same per-point machinery; the kinds
    exist so clients can say what they mean. Tenant and priority describe
    *who* is asking and how urgently, never *what* is computed.
    """

    kind: str
    workloads: tuple[str, ...]
    lanes: int = 8
    policy: str = "work-aware"
    seed: int = 0
    verify: bool = True
    sanitize: bool = False
    tenant: str = "default"
    priority: int = 0

    def to_json(self) -> dict:
        """The spec as a ``POST /jobs`` body, which :func:`parse_job_spec`
        reads back equal."""
        if self.kind == "compare":
            names = {"workload": self.workloads[0]}
        else:
            names = {"workloads": list(self.workloads)}
        return {"kind": self.kind, **names,
                "lanes": self.lanes, "policy": self.policy,
                "seed": self.seed, "verify": self.verify,
                "sanitize": self.sanitize, "tenant": self.tenant,
                "priority": self.priority}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def parse_job_spec(payload: object) -> JobSpec:
    """Validate a decoded ``POST /jobs`` body into a :class:`JobSpec`.

    Raises :class:`SpecError` naming the offending field; unknown fields
    are rejected too, so a typoed option fails loudly instead of being
    silently ignored.
    """
    from repro.workloads.registry import workload_names

    _require(isinstance(payload, dict), "job spec must be a JSON object")
    known = {"kind", "workload", "workloads", "lanes", "policy", "seed",
             "verify", "sanitize", "tenant", "priority"}
    unknown = sorted(set(payload) - known)
    _require(not unknown, f"unknown spec field(s): {', '.join(unknown)}")

    kind = payload.get("kind", "sweep")
    _require(kind in ("sweep", "compare"),
             f"kind must be 'sweep' or 'compare', not {kind!r}")
    if kind == "compare":
        _require("workloads" not in payload,
                 "a compare spec names one 'workload', not 'workloads'")
        names = [payload.get("workload")]
    else:
        _require("workload" not in payload,
                 "a sweep spec names a 'workloads' list, not 'workload'")
        names = payload.get("workloads")
    _require(isinstance(names, list) and names,
             "spec must name at least one workload")
    _require(all(isinstance(n, str) for n in names),
             "workload names must be strings")
    registered = set(workload_names())
    missing = sorted(set(names) - registered)
    _require(not missing, f"unknown workload(s): {', '.join(missing)}")

    lanes = payload.get("lanes", 8)
    _require(isinstance(lanes, int) and not isinstance(lanes, bool)
             and lanes > 0, "lanes must be a positive integer")
    seed = payload.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool),
             "seed must be an integer")
    priority = payload.get("priority", 0)
    _require(isinstance(priority, int) and not isinstance(priority, bool),
             "priority must be an integer")
    tenant = payload.get("tenant", "default")
    _require(isinstance(tenant, str) and tenant.strip(),
             "tenant must be a non-empty string")
    for flag in ("verify", "sanitize"):
        if flag in payload:
            _require(isinstance(payload[flag], bool),
                     f"{flag} must be a boolean")

    policy = payload.get("policy", "work-aware")
    _require(isinstance(policy, str), "policy must be a string")
    _validate_policy(policy)

    return JobSpec(kind=kind, workloads=tuple(names), lanes=lanes,
                   policy=policy, seed=seed,
                   verify=payload.get("verify", True),
                   sanitize=payload.get("sanitize", _sanitize_default()),
                   tenant=tenant.strip(), priority=priority)


def _validate_policy(policy: str) -> None:
    """Reject unknown dispatch policies with a typed error.

    Validation goes through :class:`~repro.arch.config.MachineConfig` so
    serve never imports the sched registry directly — the config layer's
    lazy registry lookup is the one sanctioned down-reference.
    """
    from repro.arch.config import default_delta_config

    try:
        default_delta_config().with_policy(policy)
    except ValueError as exc:
        raise SpecError(str(exc), code="unknown-policy") from None


# -- events -----------------------------------------------------------------

def _finite(value: float) -> Optional[float]:
    """JSON has no Infinity/NaN; report unbounded ratios as null."""
    return value if math.isfinite(value) else None


def job_event(kind: str, job_id: str, state: str, **fields) -> dict:
    """A job-lifecycle event line (``queued``/``started``/``done``...)."""
    event = {"event": kind, "job": job_id, "state": state}
    event.update(fields)
    return event


def point_event(index: int, comparison, outcome: str) -> dict:
    """One per-point NDJSON line: outcome plus the typed metrics clients
    chart without re-deriving them from raw counters.

    ``comparison`` is ``None`` for points that never computed (cancelled
    mid-flight); the line then carries only the index and outcome.
    """
    event: dict = {"event": "point", "index": index, "outcome": outcome}
    if comparison is None:
        return event
    event.update({
        "workload": comparison.workload,
        "delta_cycles": comparison.delta.cycles,
        "static_cycles": comparison.static.cycles,
        "speedup": _finite(comparison.speedup),
        "traffic_ratio": _finite(comparison.traffic_ratio),
        "lanes": comparison.lanes,
        "metrics": {
            "delta_dram_bytes": comparison.delta.dram_bytes,
            "static_dram_bytes": comparison.static.dram_bytes,
            "delta_noc_bytes": comparison.delta.noc_bytes,
            "static_noc_bytes": comparison.static.noc_bytes,
            "delta_imbalance_cv": comparison.delta.imbalance_cv,
            "static_imbalance_cv": comparison.static.imbalance_cv,
            "tasks_executed": comparison.delta.tasks_executed,
        },
    })
    return event
