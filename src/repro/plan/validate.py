"""Cross-validation of planner predictions against measured runs.

The planner is only trustworthy if its closed forms track the real
cluster harness. This module replays the *same arithmetic the gateway
executes* — seeded stream, deterministic per-key costs, fleet-wide
exactly-once coalescing — as a prediction, then gates it against a
measured ``run_scaling`` table:

* **throughput gate**: predicted goodput within ±``tolerance`` (default
  10%) of measured at every replica count;
* **monotonic-ordering checks**: measured goodput must not *drop* as
  replicas are added, and tail latency must not *rise* (within a slack
  factor for percentile-bucket noise) — the orderings the queueing
  model stakes its sizing answers on.

Prediction follows the planner's calibrate-once-predict-many
structure: the per-job dispatch overhead (the only quantity not
derivable from the seed) is calibrated from the **first** row's
measured mean service time, and every *other* row is then a genuine
extrapolation. The deterministic finite-replay bound is
``wall ≈ max(arrival span, unique-miss work / servers)`` — repeated
keys never execute twice (shared cache + coalescing), so only unique
keys contribute work.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.ring import HashRing
from ..cluster.traffic import (
    SYNTHETIC_EXP_ID,
    RequestStream,
    TrafficMix,
    generate_stream,
    key_cost_ms,
)
from ..serve.cache import request_key
from .queueing import finite_run_wall_s

#: Ring size the gateway defaults to; scaling tables carry the actual
#: value used so predictions reconstruct the identical key ownership.
DEFAULT_VNODES = 64

#: Multiplicative slack for the p99 monotonicity check: log-bucketed
#: histogram percentiles quantise to bucket edges (base 2), so adjacent
#: fleet sizes can legitimately report the same-or-one-bucket-higher
#: edge without the underlying ordering being violated.
P99_SLACK = 2.1

#: "Achieves the rate" slack for minimal-replica searches: a fleet
#: counts as sustaining a target if it reaches 95% of it, absorbing
#: percentile/rounding noise right at the plateau.
RATE_SLACK = 0.95


@dataclass(frozen=True)
class StreamStats:
    """Exact, seed-derived facts about one replay."""

    requests: int
    unique_keys: int
    #: Seconds of replica work if every unique key executes once.
    miss_work_s: float
    #: Mean service time of one executed (miss) job, excluding overhead.
    miss_mean_s: float
    #: Sum of inter-burst gaps — the offered arrival span.
    arrival_span_s: float
    #: Arrivals absorbed without replica work (repeat keys).
    hit_fraction: float
    #: (routing key, cost seconds) per unique key — exactly what the
    #: gateway hashes onto its ring, so predictions can reconstruct
    #: per-replica ownership instead of assuming perfect balance.
    key_costs: tuple[tuple[str, float], ...] = ()


def stream_stats(
    mix: TrafficMix, stream: RequestStream | None = None
) -> StreamStats:
    """Distil a seeded stream into the planner's inputs (no replay)."""
    stream = stream or generate_stream(mix)
    unique = sorted(set(stream.keys))
    key_costs = []
    for k in unique:
        cost_ms = key_cost_ms(mix, k)
        route_key = request_key(
            SYNTHETIC_EXP_ID, {"key": k, "cost_ms": cost_ms}
        )
        key_costs.append((route_key, cost_ms / 1e3))
    miss_work = sum(c for _, c in key_costs)
    n = len(stream)
    return StreamStats(
        requests=n,
        unique_keys=len(unique),
        miss_work_s=miss_work,
        miss_mean_s=miss_work / len(unique) if unique else 0.0,
        arrival_span_s=float(stream.burst_gaps_s.sum()),
        hit_fraction=1.0 - len(unique) / n if n else 0.0,
        key_costs=tuple(key_costs),
    )


def routed_work_s(
    stats: StreamStats, replicas: int, *, vnodes: int = DEFAULT_VNODES
) -> dict[str, tuple[int, float]]:
    """Per-replica ``(jobs, work seconds)`` under consistent hashing.

    Rebuilds the gateway's ring (``r0..rN-1``, same vnode count) and
    routes every unique key exactly as the fleet executor would.
    The spread across replicas — not the mean — bounds the replay's
    makespan: key affinity means a loaded replica cannot steal work
    from an idle one."""
    ring = HashRing((f"r{i}" for i in range(replicas)), vnodes=vnodes)
    per: dict[str, tuple[int, float]] = {
        f"r{i}": (0, 0.0) for i in range(replicas)
    }
    for route_key, cost_s in stats.key_costs:
        rid = ring.lookup(route_key)
        jobs, work = per[rid]
        per[rid] = (jobs + 1, work + cost_s)
    return per


def predict_goodput_rps(
    stats: StreamStats,
    replicas: int,
    workers_per_replica: int,
    *,
    overhead_s: float = 0.0,
    vnodes: int = DEFAULT_VNODES,
) -> dict:
    """Predicted goodput of one finite replay at one fleet size.

    ``overhead_s`` is the calibrated per-executed-job dispatch cost on
    top of the deterministic sleep; it inflates the miss work the fleet
    has to retire. The makespan is set by the *most loaded* replica
    under the reconstructed consistent-hash routing — with key
    affinity, adding replicas buys sublinear speedup whenever the key
    distribution is uneven, and the prediction must track that."""
    servers = replicas * workers_per_replica
    per = routed_work_s(stats, replicas, vnodes=vnodes)
    work_s = sum(
        work + jobs * overhead_s for jobs, work in per.values()
    )
    busiest_s = max(
        (work + jobs * overhead_s) / workers_per_replica
        for jobs, work in per.values()
    ) if per else 0.0
    per_job_s = stats.miss_mean_s + overhead_s
    wall = finite_run_wall_s(
        stats.arrival_span_s, busiest_s * workers_per_replica,
        workers_per_replica, tail_service_s=per_job_s,
    )
    return {
        "replicas": replicas,
        "servers": servers,
        "predicted_wall_s": round(wall, 3),
        "predicted_goodput_rps": round(stats.requests / wall, 1) if wall else 0.0,
        "predicted_utilization": round(
            min(1.0, work_s / (wall * servers)), 4
        ) if wall else 0.0,
        "routing_imbalance": round(
            busiest_s * workers_per_replica * replicas / work_s, 4
        ) if work_s else 1.0,
        "capacity_bound": busiest_s >= stats.arrival_span_s,
    }


def calibrate_overhead_s(stats: StreamStats, first_row: dict) -> float:
    """Per-job overhead from the first measured row's mean service
    time (measured mean includes dispatch cost; the sleep is known)."""
    measured = float(first_row.get("mean_service_s", 0.0))
    return max(0.0, measured - stats.miss_mean_s)


def validate_scaling(
    table: dict,
    *,
    workers_per_replica: int = 2,
    tolerance: float = 0.10,
) -> dict:
    """Gate planner predictions against a measured scaling table.

    ``table`` is :func:`repro.cluster.traffic.scaling_table_json`
    output. Returns per-row comparisons plus a ``failures`` list; empty
    failures means the ±tolerance throughput gate and both monotonic
    orderings hold.
    """
    if not table.get("rows"):
        raise ValueError("scaling table has no rows")
    mix = TrafficMix(**table["mix"])
    stats = stream_stats(mix)
    rows = table["rows"]
    overhead = calibrate_overhead_s(stats, rows[0])
    vnodes = int(table.get("vnodes") or DEFAULT_VNODES)
    workers_per_replica = int(
        table.get("workers_per_replica") or workers_per_replica
    )

    failures: list[str] = []
    comparisons: list[dict] = []
    for i, row in enumerate(rows):
        pred = predict_goodput_rps(
            stats, row["replicas"], workers_per_replica,
            overhead_s=overhead, vnodes=vnodes,
        )
        measured = float(row["goodput_rps"])
        predicted = pred["predicted_goodput_rps"]
        error = (
            abs(predicted - measured) / measured if measured else float("inf")
        )
        calibration_row = i == 0
        comparisons.append(
            {
                **pred,
                "measured_goodput_rps": measured,
                "measured_utilization": row.get("utilization"),
                "error": round(error, 4),
                "within_tolerance": error <= tolerance,
                "calibration_row": calibration_row,
            }
        )
        if error > tolerance:
            failures.append(
                f"replicas={row['replicas']}: predicted "
                f"{predicted}/s vs measured {measured}/s "
                f"({error:.1%} > {tolerance:.0%})"
            )

    # Monotonic orderings on the *measured* curve (what the queueing
    # model asserts must hold as the fleet grows).
    for prev, cur in zip(rows, rows[1:]):
        if cur["goodput_rps"] < prev["goodput_rps"] * (1.0 - tolerance):
            failures.append(
                f"measured goodput dropped {prev['goodput_rps']}→"
                f"{cur['goodput_rps']}/s going {prev['replicas']}→"
                f"{cur['replicas']} replicas"
            )
        for cls in ("interactive", "batch"):
            if cur[cls]["p99_s"] > prev[cls]["p99_s"] * P99_SLACK:
                failures.append(
                    f"measured {cls} p99 rose {prev[cls]['p99_s']}s→"
                    f"{cur[cls]['p99_s']}s going {prev['replicas']}→"
                    f"{cur['replicas']} replicas"
                )

    return {
        "ok": not failures,
        "tolerance": tolerance,
        "overhead_s": round(overhead, 6),
        "vnodes": vnodes,
        "workers_per_replica": workers_per_replica,
        "stream": {
            "requests": stats.requests,
            "unique_keys": stats.unique_keys,
            "miss_work_s": round(stats.miss_work_s, 3),
            "arrival_span_s": round(stats.arrival_span_s, 3),
            "hit_fraction": round(stats.hit_fraction, 4),
        },
        "rows": comparisons,
        "failures": failures,
    }


def predicted_min_replicas(
    stats: StreamStats,
    *,
    rate_rps: float,
    workers_per_replica: int = 2,
    overhead_s: float = 0.0,
    vnodes: int = DEFAULT_VNODES,
    max_replicas: int = 1 << 10,
) -> int:
    """Smallest fleet whose *predicted* goodput sustains ``rate_rps``
    for this stream (capped at the arrival-bound plateau — no fleet can
    complete a finite replay faster than its arrivals land)."""
    plateau = predict_goodput_rps(
        stats, max_replicas, workers_per_replica,
        overhead_s=overhead_s, vnodes=vnodes,
    )["predicted_goodput_rps"]
    target = min(rate_rps, plateau)
    for replicas in range(1, max_replicas + 1):
        pred = predict_goodput_rps(
            stats, replicas, workers_per_replica,
            overhead_s=overhead_s, vnodes=vnodes,
        )
        if pred["predicted_goodput_rps"] >= target * RATE_SLACK:
            return replicas
    return max_replicas


def measured_min_replicas(
    table: dict,
    *,
    rate_rps: float,
    slo_p99_s: float | None = None,
    job_class: str = "batch",
) -> int | None:
    """Smallest measured replica count sustaining ``rate_rps`` (and the
    SLO, if given) — the ground truth ``plan size`` is checked against.

    A finite replay cannot measure more goodput than it offers, so the
    rate threshold is capped at the best measured goodput (the sizing
    question is "which fleet size achieves the table's plateau").
    """
    rows = sorted(table["rows"], key=lambda r: r["replicas"])
    if not rows:
        return None
    target = min(rate_rps, max(float(r["goodput_rps"]) for r in rows))
    for row in rows:
        if float(row["goodput_rps"]) < target * RATE_SLACK:
            continue
        if slo_p99_s is not None and row[job_class]["p99_s"] > slo_p99_s:
            continue
        return int(row["replicas"])
    return None
