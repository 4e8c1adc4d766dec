"""End-to-end cluster smoke with real replica subprocesses.

Small seeded replays through a gateway fronting actual ``repro-bench
serve`` children running the synthetic runner: one clean run asserting
exactly-once execution, and one fault-injected run that SIGKILLs a
replica mid-burst and asserts recovery with zero lost interactive
requests. The million-request version of this lives behind
``repro-bench cluster bench``; this is the fast always-on slice."""

import asyncio
import multiprocessing

import pytest

from repro.cluster import SYNTHETIC_RUNNER, Fleet, TrafficMix, run_traffic
from repro.serve import CacheTier, ServiceConfig, SimulationService

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="replica worker pools rely on fork",
)

MIX = TrafficMix(
    requests=240,
    seed=11,
    hot_keys=24,
    tail_keys=96,
    cost_ms_min=1.0,
    cost_ms_max=3.0,
    burst_mean=48,
    offered_rate=4000.0,
    tenants=4,
)


def make_gateway(n: int) -> SimulationService:
    return SimulationService(
        ServiceConfig(
            capacity=256,
            shed_batch_above=0.75,
            runner_spec=SYNTHETIC_RUNNER,
            cache=CacheTier(),  # memory only
            metrics_interval=0,
        ),
        executor=Fleet(n, workers_per_replica=2, health_interval=0.5),
    )


def test_clean_run_is_exactly_once():
    async def body():
        async with make_gateway(1) as gw:
            return await run_traffic(gw, MIX)

    report = asyncio.run(body())
    assert report["completed"] + report["shed"] == report["offered"]
    assert report["failed"] == 0
    once = report["exactly_once"]
    assert once["executed_total"] == once["forwarded_misses"] > 0
    # The coalescing + cache tier must actually be absorbing repeats:
    # far fewer executions than offered requests.
    assert once["executed_total"] < report["offered"]


def test_replica_kill_recovers_without_losing_interactive():
    async def body():
        async with make_gateway(2) as gw:
            return await run_traffic(gw, MIX, kill_after=120,
                                     kill_replica="r0")

    report = asyncio.run(body())
    assert report["killed_pid"] is not None
    assert report["respawns"] >= 1
    interactive = report["classes"]["interactive"]
    assert interactive["failed"] == 0
    assert interactive["completed"] + interactive["shed_total"] == (
        interactive["offered"]
    )
    replicas = report["gateway"]["executor"]["replicas"]
    assert all(r["healthy"] for r in replicas.values())
    # Per-replica cache accounting saw traffic on both members.
    accounts = report["gateway"]["cache"]["per_owner"]
    assert accounts and all(
        acct["misses"] + acct["hits"] > 0 for acct in accounts.values()
    )
