"""``repro serve`` — the async multi-tenant sweep server.

Layering: serve sits *above* the evaluation harness (``repro.eval``)
and the store, and *below* only the CLI. Nothing in the
simulation stack may import it (enforced by ``tools/check_layering.py``).
"""

from repro.serve.app import Server
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    JobSpec,
    QuotaExceeded,
    ServeError,
    SpecError,
    UnknownJob,
    parse_job_spec,
)
from repro.serve.queue import JobQueue

__all__ = [
    "PROTOCOL_VERSION",
    "JobQueue",
    "JobSpec",
    "QuotaExceeded",
    "ServeError",
    "Server",
    "SpecError",
    "UnknownJob",
    "parse_job_spec",
]
