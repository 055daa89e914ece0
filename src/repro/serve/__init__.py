"""``repro.serve`` — the multi-assay serving core.

A resident process hosting one shared strategy store and multiplexing N
concurrent assay jobs onto it over a stdlib
HTTP/JSONL API.  See :mod:`repro.serve.service` for the API surface and
the drain semantics, :mod:`repro.serve.scheduler` for the worker model,
and :mod:`repro.serve.runner` for the trace-identity contract with solo
``repro run`` executions.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.job import (
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    REJECTED,
    RUNNING,
    AssayJob,
    AssaySpec,
)
from repro.serve.queue import JobQueue
from repro.serve.runner import AssayOutcome, execute_assay
from repro.serve.scheduler import AssayScheduler
from repro.serve.service import ServeDraining, ServeService

__all__ = [
    "AssayJob",
    "AssayOutcome",
    "AssayScheduler",
    "AssaySpec",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "JobQueue",
    "QUEUED",
    "REJECTED",
    "RUNNING",
    "ServeClient",
    "ServeDraining",
    "ServeError",
    "ServeService",
    "execute_assay",
]
