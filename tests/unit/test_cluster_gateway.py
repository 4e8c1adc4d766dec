"""Gateway semantics without real subprocesses.

A gateway is :class:`~repro.serve.service.SimulationService` with a
:class:`~repro.cluster.fleet.Fleet` executor. A fake fleet stands in for
replica processes and their sockets (patched into
:mod:`repro.cluster.fleet`), so coalescing, shedding, tenant quotas,
per-owner cache accounting, and remap-window recovery are exercised
deterministically and fast. Execution counts are tracked per request
key, which is what makes "exactly once" assertable even while a replica
dies and respawns mid-request."""

import asyncio
import itertools
import json
import multiprocessing
import sys
import threading
import time

import pytest

import repro.cluster.fleet as fleet_mod
from repro.bench.harness import ExperimentResult
from repro.bench.runner import ResultCache, _serialize
from repro.cluster import Fleet, ReplicaUnavailable
from repro.serve import (
    CacheTier,
    ServeClient,
    ServiceConfig,
    SimulationService,
    request_key,
    serve_tcp,
)
from repro.serve.queue import (
    REASON_LOAD_SHED,
    REASON_QUEUE_FULL,
    REASON_TENANT_QUOTA,
    REASON_UNKNOWN_EXPERIMENT,
    AdmissionError,
)


def run(coro):
    return asyncio.run(coro)


class FakeFleet:
    """In-process stand-in for replica subprocesses + connections."""

    def __init__(self):
        self._ports = itertools.count(9100)
        self.by_port: dict[int, str] = {}
        self.executed: dict[str, int] = {}  # request key -> executions
        self.by_replica: dict[str, int] = {}
        self.fail_next: dict[str, int] = {}  # name -> requests to drop
        self.gate: asyncio.Event | None = None  # holds submits when set

    def make_proc(self, fleet):
        class FakeProc:
            def __init__(self, name, **kwargs):
                self.name = name
                self.host = "127.0.0.1"
                self.port = next(fleet._ports)
                fleet.by_port[self.port] = name
                self.pid = 40000 + self.port
                self._alive = True

            def alive(self):
                return self._alive

            def kill(self):
                self._alive = False

            def terminate(self, timeout=10.0):
                self._alive = False

        return FakeProc

    def make_conn(self, fleet):
        class FakeConn:
            def __init__(self, name):
                self.name = name
                self.closed = False
                self.in_flight = 0

            @classmethod
            async def open(cls, host, port, timeout=5.0):
                return cls(fleet.by_port[port])

            async def request(self, payload, timeout=None):
                if self.closed:
                    raise ReplicaUnavailable("connection closed")
                if fleet.fail_next.get(self.name, 0) > 0:
                    fleet.fail_next[self.name] -= 1
                    self.closed = True
                    raise ReplicaUnavailable("injected connection loss")
                op = payload.get("op")
                if op == "ping":
                    return {"ok": True}
                if op == "metrics":
                    return {
                        "jobs": {
                            "executed": fleet.by_replica.get(self.name, 0)
                        }
                    }
                assert op == "submit"
                if fleet.gate is not None:
                    await fleet.gate.wait()
                key = request_key(payload["exp_id"], payload["kwargs"])
                fleet.executed[key] = fleet.executed.get(key, 0) + 1
                fleet.by_replica[self.name] = (
                    fleet.by_replica.get(self.name, 0) + 1
                )
                return {
                    "ok": True,
                    "result": _serialize(ExperimentResult(
                        payload["exp_id"], f"served by {self.name}",
                        rows=[{"served_by": self.name, "key": key}],
                    )),
                }

            async def ping(self, timeout=2.0):
                reply = await self.request({"op": "ping"}, timeout)
                return bool(reply.get("ok"))

            async def metrics(self, timeout=10.0):
                return await self.request({"op": "metrics"}, timeout)

            async def close(self):
                self.closed = True

        return FakeConn


@pytest.fixture
def fleet(monkeypatch):
    fleet = FakeFleet()
    monkeypatch.setattr(
        fleet_mod, "LocalReplicaProcess", fleet.make_proc(fleet)
    )
    monkeypatch.setattr(
        fleet_mod, "AsyncReplicaConnection", fleet.make_conn(fleet)
    )
    return fleet


def make_gateway(
    replicas=2, max_outstanding_per_replica=8, **config
) -> SimulationService:
    """A service core over the (fake) fleet, with a memory-only cache."""
    config = {
        "capacity": 256, "cache": CacheTier(), "metrics_interval": 0.0,
        **config,
    }
    return SimulationService(
        ServiceConfig(**config),
        executor=Fleet(
            replicas, health_interval=0.0,
            max_outstanding_per_replica=max_outstanding_per_replica,
        ),
    )


def kwargs_owned_by(
    gateway: SimulationService, replica_id: str, exp_id="exp"
) -> dict:
    for i in range(10_000):
        kwargs = {"i": i}
        if gateway.executor.owner(request_key(exp_id, kwargs)) == replica_id:
            return kwargs
    raise AssertionError(f"no key routed to {replica_id}")


def test_basic_forward_and_result(fleet):
    async def body():
        async with make_gateway() as gw:
            handle = gw.submit("exp", {"i": 1})
            result = await handle.result(5)
            assert result.rows[0]["key"] == request_key("exp", {"i": 1})
            assert fleet.executed[handle.key] == 1
            snap = gw.metrics_snapshot()
            assert snap["jobs"]["completed"] == 1
            assert snap["jobs"]["failed"] == 0

    run(body())


def test_coalescing_is_exactly_once(fleet):
    async def body():
        async with make_gateway(replicas=1) as gw:
            fleet.gate = asyncio.Event()
            first = gw.submit("exp", {"i": 7})
            dupes = [gw.submit("exp", {"i": 7}) for _ in range(5)]
            assert all(h.coalesced for h in dupes)
            assert all(h.future is first.future for h in dupes)
            fleet.gate.set()
            results = await asyncio.gather(
                first.payload(5), *(h.payload(5) for h in dupes)
            )
            assert all(r == results[0] for r in results)
            assert fleet.executed[first.key] == 1
            assert gw.metrics.coalesced == 5

    run(body())


def test_coalescing_exactly_once_across_remap_window(fleet):
    """A replica dies mid-request; duplicates submitted while the job is
    re-routing (the remap window) still coalesce, the key executes once
    on the surviving replica, and the dead one rejoins the ring."""

    async def body():
        async with make_gateway(replicas=2) as gw:
            ring = gw.executor.ring
            replicas = gw.executor.replicas
            mapping_before = {
                f"k{i}": ring.lookup(f"k{i}") for i in range(200)
            }
            kwargs = kwargs_owned_by(gw, "r0")
            fleet.fail_next["r0"] = 1  # first forward dies on the wire
            fleet.gate = asyncio.Event()  # retry blocks inside submit
            first = gw.submit("exp", kwargs)
            # Wait for the connection loss to be detected and re-routed.
            for _ in range(200):
                if gw.metrics.retries >= 1:
                    break
                await asyncio.sleep(0.01)
            assert gw.metrics.retries >= 1
            dupe = gw.submit("exp", kwargs)  # inside the remap window
            assert dupe.coalesced
            fleet.gate.set()
            r1, r2 = await asyncio.gather(first.payload(5), dupe.payload(5))
            assert r1 == r2
            assert fleet.executed[first.key] == 1
            # Event-driven respawn: r0 rejoins under its old identity and
            # the ring mapping is restored exactly.
            for _ in range(200):
                if replicas["r0"].healthy:
                    break
                await asyncio.sleep(0.01)
            assert replicas["r0"].healthy
            assert replicas["r0"].respawns == 1
            assert ring.members == frozenset({"r0", "r1"})
            assert {
                f"k{i}": ring.lookup(f"k{i}") for i in range(200)
            } == mapping_before

    run(body())


def test_shed_batch_before_interactive(fleet):
    async def body():
        async with make_gateway(
            replicas=1, capacity=8, shed_batch_above=0.5,
            max_outstanding_per_replica=1,
        ) as gw:
            fleet.gate = asyncio.Event()  # nothing completes yet
            for i in range(4):  # queue depth reaches the watermark
                gw.submit("exp", {"i": i}, job_class="batch")
            with pytest.raises(AdmissionError) as exc:
                gw.submit("exp", {"i": 99}, job_class="batch")
            assert exc.value.reason == REASON_LOAD_SHED
            # Interactive traffic is still admitted above the watermark…
            handles = [
                gw.submit("exp", {"j": i}, job_class="interactive")
                for i in range(4)
            ]
            # …until the queue is genuinely full.
            with pytest.raises(AdmissionError) as exc:
                gw.submit("exp", {"j": 99}, job_class="interactive")
            assert exc.value.reason == REASON_QUEUE_FULL
            assert gw.metrics.rejected[REASON_LOAD_SHED] == 1
            fleet.gate.set()
            await asyncio.gather(*(h.result(10) for h in handles))

    run(body())


def test_tenant_quota(fleet):
    async def body():
        async with make_gateway(replicas=1, tenant_quota=2) as gw:
            fleet.gate = asyncio.Event()
            handles = [
                gw.submit("exp", {"i": i}, tenant="greedy") for i in range(2)
            ]
            with pytest.raises(AdmissionError) as exc:
                gw.submit("exp", {"i": 99}, tenant="greedy")
            assert exc.value.reason == REASON_TENANT_QUOTA
            # Other tenants are unaffected.
            handles.append(gw.submit("exp", {"i": 99}, tenant="polite"))
            fleet.gate.set()
            await asyncio.gather(*(h.result(5) for h in handles))
            # Outstanding counts settle back to zero -> quota frees up.
            assert gw.tenant_outstanding == {}
            gw.submit("exp", {"i": 123}, tenant="greedy")

    run(body())


def test_unknown_experiment_rejected(fleet):
    async def body():
        async with make_gateway(
            replicas=1, known_experiments=frozenset({"known"})
        ) as gw:
            with pytest.raises(AdmissionError) as exc:
                gw.submit("mystery", {})
            assert exc.value.reason == REASON_UNKNOWN_EXPERIMENT

    run(body())


def test_memory_cache_hit_and_per_replica_accounting(fleet):
    async def body():
        async with make_gateway(replicas=1) as gw:
            first = gw.submit("exp", {"i": 5})
            await first.result(5)
            again = gw.submit("exp", {"i": 5})
            assert again.cached and again.done()
            assert await again.payload(1) == await first.payload(1)
            snap = gw.metrics_snapshot()
            assert snap["cache"]["memory_hits"] == 1
            account = snap["cache"]["per_owner"]["r0"]
            assert account["misses"] == 1  # the original forward
            assert account["stores"] == 1  # its write-back
            assert account["hits"] == 1  # the repeat
            assert account["bytes_served"] > 0
            assert fleet.executed[first.key] == 1  # cache, not recompute

    run(body())


def test_gateway_metrics_snapshot_shape(fleet):
    async def body():
        async with make_gateway() as gw:
            await gw.submit("exp", {"i": 3}).result(5)
            snap = gw.metrics_snapshot()
            assert snap["executor"]["ring"] == ["r0", "r1"]
            assert set(snap["executor"]["replicas"]) == {"r0", "r1"}
            assert snap["executor"]["respawns"] == 0
            hist = snap["latency_s"]["by_class"]["batch"]
            assert {"p50", "p99", "p999"} <= set(hist)
            metrics = await gw.executor.replica_metrics()
            assert set(metrics) == {"r0", "r1"}
            executed = sum(
                m["jobs"]["executed"] for m in metrics.values()
            )
            assert executed == 1

    run(body())


# ----------------------------------------------------------------------
# CacheTier on its own (real disk tier, no service)
# ----------------------------------------------------------------------


def _payload(exp_id: str, i: int) -> dict:
    return _serialize(
        ExperimentResult(exp_id, f"test {i}", rows=[{"i": i}])
    )


def test_shared_cache_lru_eviction():
    tier = CacheTier(None, max_entries=2)
    for i in range(3):
        tier.put(f"k{i}", _payload("exp", i), "exp", {"i": i}, "r0")
    assert tier.entries == 2
    assert tier.evictions == 1
    assert tier.get_memory("k0", "r0") is None  # oldest got evicted
    assert tier.get_memory("k2", "r0") is not None


def test_shared_cache_write_back_and_read_through(tmp_path):
    disk = ResultCache(tmp_path / "cache")
    tier = CacheTier(disk)
    payload = _payload("fig3", 1)
    tier.put("key1", payload, "fig3", {"scale": 0.1}, "r0")
    tier.close()  # flushes the write-back queue

    # A fresh gateway (cold memory) warm-starts from the disk tier.
    tier2 = CacheTier(disk)
    assert tier2.get_memory("key1", "r1") is None
    via_disk = tier2.get_disk("key1", "fig3", {"scale": 0.1}, "r1")
    assert via_disk is not None
    assert via_disk["rows"] == payload["rows"]
    # Promotion: now it is a memory hit, and accounting says disk once.
    assert tier2.get_memory("key1", "r1") is not None
    account = tier2.accounts["r1"]
    assert account.disk_hits == 1
    assert account.hits == 2
    tier2.close()


def test_cache_tier_accounting_survives_concurrent_threads():
    """Disk read-through promotes from worker threads while the event
    loop stores and looks up: no update to the LRU or the accounts may
    be lost."""
    tier = CacheTier(None, max_entries=8)
    payloads = [_payload("exp", i) for i in range(32)]
    n_threads, rounds = 8, 300

    def hammer(t: int) -> None:
        for r in range(rounds):
            i = (t * rounds + r) % len(payloads)
            tier.put(f"k{i}", payloads[i], "exp", {"i": i}, "owner")
            tier.get_memory(f"k{(i + 1) % len(payloads)}", "owner")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    snap = tier.snapshot()
    assert snap["per_owner"]["owner"]["stores"] == n_threads * rounds
    assert snap["entries"] <= 8
    assert snap["bytes"] == sum(
        len(json.dumps(tier.get_memory(key, "check")))
        for key in list(tier._mem)
    )


# ----------------------------------------------------------------------
# One admission policy for both executors
# ----------------------------------------------------------------------


def _sleep_runner(exp_id: str, kwargs: dict) -> dict:
    """Local worker job body: sleep ``sleep`` seconds, echo the kwargs."""
    time.sleep(kwargs.get("sleep", 0))
    return _serialize(ExperimentResult(exp_id, "sleep", rows=[dict(kwargs)]))


ADMISSION = dict(
    capacity=4,
    shed_batch_above=0.5,
    tenant_quota=3,
    known_experiments=frozenset({"exp"}),
    metrics_interval=0.0,
)

#: (exp_id, kwargs, job_class, tenant) -> expected outcome, in order:
#: unknown experiment → coalesce → memory hit → tenant quota → batch
#: watermark → queue capacity.
ADMISSION_SCRIPT = [
    (("nope", {}, "interactive", "a"), "unknown experiment"),
    (("exp", {"i": 1}, "interactive", "a"), "accepted"),
    (("exp", {"i": 2}, "interactive", "a"), "accepted"),
    (("exp", {"i": 3}, "interactive", "a"), "accepted"),  # a at quota
    (("exp", {"i": 1}, "batch", "a"), "coalesced"),
    (("exp", {"w": 1}, "batch", "a"), "cached"),
    (("exp", {"i": 4}, "interactive", "a"), REASON_TENANT_QUOTA),
    (("exp", {"i": 5}, "batch", "a"), REASON_TENANT_QUOTA),
    (("exp", {"j": 1}, "batch", "b"), REASON_LOAD_SHED),
    (("exp", {"j": 2}, "interactive", "b"), "accepted"),  # queue full now
    (("exp", {"j": 3}, "interactive", "b"), REASON_QUEUE_FULL),
    (("exp", {"k": 1}, "batch", "c"), REASON_LOAD_SHED),
    (("nope", {}, "batch", "a"), REASON_UNKNOWN_EXPERIMENT),
]


def _local_service() -> SimulationService:
    return SimulationService(ServiceConfig(
        workers=1, runner_spec=f"{__name__}:_sleep_runner",
        cache=CacheTier(), **ADMISSION,
    ))


@pytest.mark.parametrize("executor", ["local", "fleet"])
def test_admission_order_is_the_same_for_both_executors(executor, request):
    if executor == "local":
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("local workers rely on fork inheriting this module")
        make = _local_service
    else:
        fleet = request.getfixturevalue("fleet")

        def make():
            return make_gateway(
                replicas=1, max_outstanding_per_replica=1,
                cache=CacheTier(), **ADMISSION,
            )

    async def body():
        async with make() as svc:
            await svc.submit("exp", {"w": 1}, tenant="a").result(10)
            # Occupy the only slot so every later job stays queued.
            if executor == "fleet":
                fleet.gate = asyncio.Event()
            busy = svc.submit("exp", {"sleep": 0.5}, tenant="z")
            deadline = time.monotonic() + 10
            while svc.queue.depth():
                assert time.monotonic() < deadline, "busy job not dispatched"
                await asyncio.sleep(0.005)

            outcomes, accepted = [], [busy]
            for (exp_id, kwargs, job_class, tenant), _ in ADMISSION_SCRIPT:
                try:
                    handle = svc.submit(
                        exp_id, kwargs, job_class=job_class, tenant=tenant
                    )
                except AdmissionError as exc:
                    outcomes.append(exc.reason)
                    continue
                accepted.append(handle)
                outcomes.append(
                    "cached" if handle.cached
                    else "coalesced" if handle.coalesced else "accepted"
                )
            assert outcomes == [want for _, want in ADMISSION_SCRIPT]
            if executor == "fleet":
                fleet.gate.set()
            for handle in accepted:
                assert (await handle.result(10)).rows
            assert svc.tenant_outstanding == {}
            assert svc.metrics_snapshot()["jobs"]["rejected"] == {
                REASON_UNKNOWN_EXPERIMENT: 2,
                REASON_TENANT_QUOTA: 2,
                REASON_LOAD_SHED: 2,
                REASON_QUEUE_FULL: 1,
            }

    run(body())


# ----------------------------------------------------------------------
# The gateway's TCP front is serve_tcp
# ----------------------------------------------------------------------


def test_gateway_tcp_roundtrip(fleet):
    key = request_key("exp", {"i": 1})

    async def body():
        gw = make_gateway()
        await gw.start()
        ready = asyncio.get_running_loop().create_future()
        server = asyncio.ensure_future(serve_tcp(
            gw, "127.0.0.1", 0, on_ready=lambda h, p: ready.set_result(p),
        ))
        port = await asyncio.wait_for(ready, 5)

        def session():
            with ServeClient("127.0.0.1", port) as client:
                first = client.submit("exp", {"i": 1})
                assert first["ok"] and not first["cached"]
                assert first["result"]["rows"][0]["key"] == key
                again = client.submit("exp", {"i": 1})
                assert again["ok"] and again["cached"]
                assert again["result"] == first["result"]
                metrics = client.metrics()
                assert metrics["executor"]["kind"] == "fleet"
                assert metrics["executor"]["ring"] == ["r0", "r1"]
                assert metrics["executor"]["respawns"] == 0
                assert metrics["cache"]["memory_hits"] == 1
                owner = gw.executor.owner(key)
                assert metrics["cache"]["per_owner"][owner]["hits"] == 1
                assert client.shutdown()["ok"]

        await asyncio.to_thread(session)
        await asyncio.wait_for(server, 10)

    run(body())
    assert fleet.executed[key] == 1
