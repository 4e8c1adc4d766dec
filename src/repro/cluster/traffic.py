"""Synthetic traffic: seeded, bursty, Zipf-distributed request replay.

The generator builds the *entire* request sequence up front from one
seed — per-request class (interactive vs batch), key, tenant, and the
burst schedule — so a replay is deterministic: same seed, same mix, same
arrival shape, regardless of replica count. The mix models the serving
reality the ROADMAP targets:

* **interactive** traffic hammers a small hot key set (Zipf, steep
  exponent) — after the first burst it is almost entirely coalesced or
  answered by the gateway's cache;
* **batch** traffic sweeps a long configuration tail (Zipf, shallow
  exponent) — mostly unique keys, each costing real replica work, which
  is what makes goodput scale with fleet size and what the shedding
  policies protect interactive traffic from.

Replica work is synthetic but honest: the worker sleeps a per-key
deterministic ``cost_ms``, so capacity genuinely sums across replica
processes. :func:`run_traffic` drives one gateway (a
:class:`~repro.serve.service.SimulationService` whose executor is a
:class:`~repro.cluster.fleet.Fleet`) and reports goodput,
shed counts, and p50/p99/p999 latency per class;
:func:`run_scaling` repeats the same seeded replay at several replica
counts.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import asdict, dataclass

import numpy as np

from ..profiling.counters import Histogram
from ..serve.queue import AdmissionError

#: Runner spec local replicas execute under ``repro-bench cluster``.
SYNTHETIC_RUNNER = "repro.cluster.traffic:synthetic_job_runner"

SYNTHETIC_EXP_ID = "cluster-synthetic"


@dataclass(frozen=True)
class TrafficMix:
    """One reproducible traffic scenario."""

    requests: int = 1_000_000
    seed: int = 42
    #: Fraction of requests in the interactive class (hot key set).
    interactive_fraction: float = 0.6
    hot_keys: int = 512
    hot_zipf_s: float = 1.1
    #: Long-tail key population for batch traffic.
    tail_keys: int = 200_000
    tail_zipf_s: float = 0.4
    #: Synthetic per-key execution cost, drawn uniformly per key. Sized
    #: so replica capacity is sleep-bound (workers / avg cost), not
    #: bound by per-request CPU overhead — capacity then genuinely sums
    #: across replica processes even on a small host.
    cost_ms_min: float = 8.0
    cost_ms_max: float = 24.0
    #: Mean burst size; bursts arrive back-to-back internally.
    burst_mean: int = 256
    #: Long-run offered request rate (requests/s); the gap after each
    #: burst is sized for this rate, jittered by ``burstiness``. Sized
    #: so pacing (not gateway CPU) sets the wall clock: the replay then
    #: measures the *fleet*, and goodput differences are capacity, not
    #: harness overhead.
    offered_rate: float = 4_000.0
    burstiness: float = 0.8
    tenants: int = 8

    def describe(self) -> dict:
        return asdict(self)


def _zipf_pmf(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -s
    return weights / weights.sum()


def key_cost_ms(mix: TrafficMix, key: str) -> float:
    """Deterministic per-key cost: same key, same work, any replica."""
    digest = hashlib.sha1(f"{mix.seed}:{key}".encode()).digest()
    frac = int.from_bytes(digest[:8], "big") / 2**64
    return round(
        mix.cost_ms_min + frac * (mix.cost_ms_max - mix.cost_ms_min), 3
    )


@dataclass
class RequestStream:
    """The fully materialised request sequence plus burst schedule."""

    keys: list[str]
    classes: np.ndarray  # bool: True = interactive
    tenants: np.ndarray  # small ints
    burst_sizes: np.ndarray
    burst_gaps_s: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def unique_keys(self) -> int:
        return len(set(self.keys))


def generate_stream(mix: TrafficMix) -> RequestStream:
    """Materialise the whole seeded sequence (arrays, not objects)."""
    rng = np.random.default_rng(mix.seed)
    n = mix.requests
    interactive = rng.random(n) < mix.interactive_fraction
    n_hot = int(interactive.sum())
    hot_ranks = rng.choice(
        mix.hot_keys, size=n_hot, p=_zipf_pmf(mix.hot_keys, mix.hot_zipf_s)
    )
    tail_ranks = rng.choice(
        mix.tail_keys, size=n - n_hot,
        p=_zipf_pmf(mix.tail_keys, mix.tail_zipf_s),
    )
    keys: list[str] = [""] * n
    hot_iter = iter(hot_ranks)
    tail_iter = iter(tail_ranks)
    for i, is_hot in enumerate(interactive):
        keys[i] = (
            f"h{next(hot_iter)}" if is_hot else f"t{next(tail_iter)}"
        )
    tenants = rng.integers(0, mix.tenants, size=n)
    sizes = []
    total = 0
    while total < n:
        size = int(rng.geometric(1.0 / mix.burst_mean))
        size = max(1, min(size, n - total))
        sizes.append(size)
        total += size
    burst_sizes = np.array(sizes)
    jitter = (
        (1.0 - mix.burstiness)
        + 2.0 * mix.burstiness * rng.random(len(sizes))
    )
    burst_gaps_s = burst_sizes / mix.offered_rate * jitter
    return RequestStream(
        keys, interactive, tenants, burst_sizes, burst_gaps_s
    )


# ----------------------------------------------------------------------
# The synthetic replica job body (runs inside replica worker processes)
# ----------------------------------------------------------------------


def synthetic_job_runner(exp_id: str, kwargs: dict) -> dict:
    """Sleep the key's deterministic cost, return a tiny payload."""
    from ..bench.harness import ExperimentResult
    from ..bench.runner import _serialize

    cost_ms = float(kwargs.get("cost_ms", 0.0))
    if cost_ms:
        time.sleep(cost_ms / 1000.0)
    result = ExperimentResult(
        exp_id,
        "synthetic cluster request",
        rows=[{"key": kwargs.get("key"), "cost_ms": cost_ms}],
        columns=["key", "cost_ms"],
    )
    return _serialize(result)


# ----------------------------------------------------------------------
# Replay harness
# ----------------------------------------------------------------------


class _ClassStats:
    __slots__ = ("offered", "completed", "failed", "shed", "latency")

    def __init__(self):
        self.offered = 0
        self.completed = 0
        self.failed = 0
        self.shed: dict[str, int] = {}
        self.latency = Histogram()

    def snapshot(self) -> dict:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "failed": self.failed,
            "shed": dict(self.shed),
            "shed_total": sum(self.shed.values()),
            "latency_s": self.latency.snapshot(),
        }


def _service_summary(replica_metrics: dict, wall_s: float) -> dict:
    """Per-replica and fleet-wide utilization + service-time moments.

    Utilization is busy-time over capacity-time: ``executed × mean
    service`` against ``wall × workers`` per replica. This is what the
    capacity planner validates its ρ predictions against."""
    per_replica: dict[str, dict] = {}
    busy_total = 0.0
    capacity_total = 0.0
    executed_total = 0
    service_total = 0.0
    for rid, m in sorted(replica_metrics.items()):
        executed = m.get("jobs", {}).get("executed", 0)
        exec_lat = m.get("latency_s", {}).get("execution", {})
        mean_s = float(exec_lat.get("mean", 0.0))
        workers = max(1, m.get("workers", {}).get("count", 1))
        busy = executed * mean_s
        capacity = wall_s * workers
        per_replica[rid] = {
            "executed": executed,
            "workers": workers,
            "mean_service_s": round(mean_s, 6),
            "utilization": round(busy / capacity, 4) if capacity else 0.0,
        }
        busy_total += busy
        capacity_total += capacity
        executed_total += executed
        service_total += busy
    return {
        "utilization": (
            round(busy_total / capacity_total, 4) if capacity_total else 0.0
        ),
        "mean_service_s": (
            round(service_total / executed_total, 6) if executed_total else 0.0
        ),
        "per_replica": per_replica,
    }


async def run_traffic(
    gateway,
    mix: TrafficMix,
    *,
    stream: RequestStream | None = None,
    kill_after: int | None = None,
    kill_replica: str = "r0",
    log=None,
) -> dict:
    """Replay one seeded stream through a started gateway.

    ``kill_after`` SIGKILLs ``kill_replica`` once that many requests
    have been submitted (fault injection for the recovery smoke).
    Returns the traffic report (goodput, per-class latency and shed
    counts, per-replica accounting, exactly-once bookkeeping)."""
    stream = stream or generate_stream(mix)
    fleet = gateway.executor
    stats = {"interactive": _ClassStats(), "batch": _ClassStats()}
    outstanding = 0
    submitted = 0
    killed_pid = None
    all_done = asyncio.Event()

    def on_done(cls_stats: _ClassStats, t_submit: float, future) -> None:
        nonlocal outstanding
        cls_stats.latency.record(time.monotonic() - t_submit)
        if future.cancelled() or future.exception() is not None:
            cls_stats.failed += 1
        else:
            cls_stats.completed += 1
        outstanding -= 1
        if outstanding == 0 and submitted >= len(stream):
            all_done.set()

    t0 = time.monotonic()
    idx = 0
    for size, gap in zip(stream.burst_sizes, stream.burst_gaps_s):
        for _ in range(size):
            key = stream.keys[idx]
            job_class = (
                "interactive" if stream.classes[idx] else "batch"
            )
            tenant = f"tenant-{stream.tenants[idx]}"
            idx += 1
            submitted += 1
            cls_stats = stats[job_class]
            cls_stats.offered += 1
            t_submit = time.monotonic()
            try:
                handle = gateway.submit(
                    SYNTHETIC_EXP_ID,
                    {"key": key, "cost_ms": key_cost_ms(mix, key)},
                    job_class=job_class,
                    tenant=tenant,
                )
            except AdmissionError as exc:
                cls_stats.shed[exc.reason] = (
                    cls_stats.shed.get(exc.reason, 0) + 1
                )
                continue
            if handle.future.done():  # cache hit resolved synchronously
                cls_stats.latency.record(time.monotonic() - t_submit)
                cls_stats.completed += 1
            else:
                outstanding += 1
                handle.future.add_done_callback(
                    lambda f, s=cls_stats, t=t_submit: on_done(s, t, f)
                )
            if (
                kill_after is not None
                and killed_pid is None
                and submitted >= kill_after
            ):
                killed_pid = await fleet.kill_replica(kill_replica)
                if log:
                    log(f"killed replica {kill_replica} "
                        f"(pid {killed_pid}) after {submitted} requests")
        if gap:
            await asyncio.sleep(float(gap))
    if outstanding:
        await all_done.wait()
    wall = time.monotonic() - t0

    if killed_pid is not None:
        # Recovery is part of what this smoke asserts: give the respawn
        # a bounded window to finish before the final snapshot.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            snap = fleet.snapshot()
            if snap["respawns"] >= 1 and all(
                r["healthy"] for r in snap["replicas"].values()
            ):
                break
            await asyncio.sleep(0.1)

    gw_snap = gateway.metrics_snapshot()
    replica_metrics = await fleet.replica_metrics()
    executed_total = sum(
        m.get("jobs", {}).get("executed", 0)
        for m in replica_metrics.values()
    )
    service = _service_summary(replica_metrics, wall)
    misses_total = sum(
        acct["misses"]
        for acct in gw_snap["cache"].get("per_owner", {}).values()
    )
    completed = sum(s.completed for s in stats.values())
    report = {
        "mix": mix.describe(),
        "replicas": len(gw_snap["executor"]["replicas"]),
        "wall_s": round(wall, 3),
        "offered": len(stream),
        "unique_keys": stream.unique_keys,
        "completed": completed,
        "failed": sum(s.failed for s in stats.values()),
        "shed": sum(sum(s.shed.values()) for s in stats.values()),
        "goodput_rps": round(completed / wall, 1) if wall else 0.0,
        "service": service,
        # What a planner needs to reconstruct key->replica routing.
        "routing": {
            "vnodes": fleet.vnodes,
            "workers_per_replica": fleet.workers_per_replica,
        },
        "classes": {name: s.snapshot() for name, s in stats.items()},
        "exactly_once": {
            # With no fault injection every forwarded key executes on
            # exactly one replica exactly once, so these two match.
            "forwarded_misses": misses_total,
            "executed_total": executed_total,
        },
        "killed_pid": killed_pid,
        "respawns": gw_snap["executor"]["respawns"],
        "gateway": gw_snap,
        "replica_metrics": replica_metrics,
    }
    return report


async def run_scaling(
    make_gateway,
    mix: TrafficMix,
    replica_counts: tuple[int, ...] = (1, 2, 4),
    *,
    kill_after: int | None = None,
    kill_replica: str = "r0",
    log=None,
) -> list[dict]:
    """Replay the *same* seeded stream at each replica count.

    ``make_gateway(n_replicas)`` builds an unstarted gateway; the stream
    is generated once so every fleet size sees byte-identical traffic."""
    stream = generate_stream(mix)
    reports = []
    for n in replica_counts:
        if log:
            log(f"--- {n} replica(s): {len(stream)} requests ---")
        gateway = make_gateway(n)
        await gateway.start()
        try:
            report = await run_traffic(
                gateway, mix, stream=stream, kill_after=kill_after,
                kill_replica=kill_replica, log=log,
            )
        finally:
            await gateway.shutdown()
        if log:
            cls = report["classes"]
            log(
                f"replicas={n} goodput={report['goodput_rps']}/s "
                f"completed={report['completed']} shed={report['shed']} "
                f"batch_p99={cls['batch']['latency_s']['p99']}s "
                f"int_p999={cls['interactive']['latency_s']['p999']}s"
            )
        reports.append(report)
    return reports


def scaling_table(reports: list[dict]) -> str:
    """Markdown-ish summary table for the CLI and docs."""
    header = (
        "| replicas | goodput (req/s) | completed | shed | "
        "int p50/p99/p999 (ms) | batch p50/p99/p999 (ms) |"
    )
    lines = [header, "|" + "---|" * 6]
    for report in reports:
        def fmt(cls: str) -> str:
            lat = report["classes"][cls]["latency_s"]
            return "/".join(
                f"{lat[p] * 1e3:.1f}" for p in ("p50", "p99", "p999")
            )

        lines.append(
            f"| {report['replicas']} | {report['goodput_rps']} "
            f"| {report['completed']} | {report['shed']} "
            f"| {fmt('interactive')} | {fmt('batch')} |"
        )
    return "\n".join(lines)


def scaling_table_json(reports: list[dict]) -> dict:
    """Machine-readable scaling table for planner validation.

    One compact row per replica count — goodput, latency percentiles
    per class, fleet utilization and mean service time — so
    ``repro-bench plan validate`` consumes measured curves without
    screen-scraping the markdown table or lugging full reports around.
    """
    rows = []
    for report in reports:
        def lat(cls: str) -> dict:
            snap = report["classes"][cls]["latency_s"]
            return {
                "p50_s": snap["p50"],
                "p99_s": snap["p99"],
                "p999_s": snap["p999"],
                "mean_s": snap["mean"],
            }

        service = report.get("service", {})
        rows.append(
            {
                "replicas": report["replicas"],
                "offered": report["offered"],
                "unique_keys": report["unique_keys"],
                "completed": report["completed"],
                "shed": report["shed"],
                "failed": report["failed"],
                "wall_s": report["wall_s"],
                "goodput_rps": report["goodput_rps"],
                "utilization": service.get("utilization", 0.0),
                "mean_service_s": service.get("mean_service_s", 0.0),
                "interactive": lat("interactive"),
                "batch": lat("batch"),
            }
        )
    routing = reports[0].get("routing", {}) if reports else {}
    return {
        "schema": 1,
        "mix": reports[0]["mix"] if reports else {},
        "vnodes": routing.get("vnodes"),
        "workers_per_replica": routing.get("workers_per_replica"),
        "rows": rows,
    }
