"""Concurrent what-if simulation serving.

The paper's value is *what-if* exploration — sweeping memory modes, page
sizes, and oversubscription ratios across applications. This package
turns the one-shot experiment registry into a long-lived service:
submissions pass admission control into a bounded priority queue,
identical concurrent requests coalesce onto one execution, completed
ones are answered from a memory-over-disk cache hierarchy, and an
executor runs the rest — by default a supervised worker-process pool
with per-job timeouts, bounded retries, and crash restarts; the
``repro.cluster`` fleet is the other executor — all observable through
one JSON metrics snapshot. ``repro-bench serve`` / ``repro-bench
submit`` expose it over TCP.
"""

from .cache import CacheTier, request_key
from .client import ServeClient
from .metrics import ServiceMetrics
from .queue import (
    AdmissionError,
    BoundedPriorityQueue,
    Job,
    QueueClosed,
)
from .service import JobHandle, ServiceConfig, SimulationService, serve_tcp
from .workers import (
    DEFAULT_RUNNER,
    JobError,
    JobFailed,
    SupervisedWorkerPool,
    WorkerCrashed,
    WorkerProcess,
    WorkerTimeout,
)

__all__ = [
    "AdmissionError",
    "BoundedPriorityQueue",
    "CacheTier",
    "DEFAULT_RUNNER",
    "Job",
    "JobError",
    "JobFailed",
    "JobHandle",
    "QueueClosed",
    "ServeClient",
    "ServiceConfig",
    "ServiceMetrics",
    "SimulationService",
    "SupervisedWorkerPool",
    "WorkerCrashed",
    "WorkerProcess",
    "WorkerTimeout",
    "request_key",
    "serve_tcp",
]
