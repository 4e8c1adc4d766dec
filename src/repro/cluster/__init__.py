"""Distributed serving tier: a replica fleet behind the service core.

``repro.serve`` made the experiment registry a single long-lived
service; this package is the next layer up. A gateway is that same
:class:`~repro.serve.service.SimulationService` — one admission queue,
one coalescing map, one memory-over-disk cache with per-owner
accounting, one metrics schema, one TCP front — whose executor is a
:class:`Fleet`: consistent-hash routing across N replica
``repro-bench serve`` processes (spawned locally or addressed by
``host:port``), re-routing on connection loss, and health-checked
replica respawn with exact hash-ring rejoin. ``repro.cluster.traffic``
proves it: a seeded bursty Zipf traffic generator replays ≥10⁶ requests
and reports goodput + p50/p99/p999 curves vs replica count
(``repro-bench cluster bench``).

The gateway/fleet shape follows the hierarchy-of-simulations idiom the
ROADMAP names as exemplar: higher tiers are built *from* lower-tier
services, not around them — a replica is exactly the single service,
untouched, and the cluster tier only routes, never alters, results.
"""

from .fleet import REASON_NO_REPLICAS, Fleet
from .replicas import (
    AsyncReplicaConnection,
    LocalReplicaProcess,
    Replica,
    ReplicaUnavailable,
)
from .ring import HashRing, ring_hash
from .traffic import (
    SYNTHETIC_EXP_ID,
    SYNTHETIC_RUNNER,
    RequestStream,
    TrafficMix,
    generate_stream,
    key_cost_ms,
    run_scaling,
    run_traffic,
    scaling_table,
    synthetic_job_runner,
)

__all__ = [
    "AsyncReplicaConnection",
    "Fleet",
    "HashRing",
    "LocalReplicaProcess",
    "REASON_NO_REPLICAS",
    "Replica",
    "ReplicaUnavailable",
    "RequestStream",
    "SYNTHETIC_EXP_ID",
    "SYNTHETIC_RUNNER",
    "TrafficMix",
    "generate_stream",
    "key_cost_ms",
    "ring_hash",
    "run_scaling",
    "run_traffic",
    "scaling_table",
    "synthetic_job_runner",
]
