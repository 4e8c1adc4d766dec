"""The fleet executor: a service core in front of N replica services.

A gateway is ``SimulationService(config, executor=Fleet(...))`` — the
same admission, coalescing, cache hierarchy, dispatch loop, metrics and
TCP front as a single service, with the work routed to a fleet instead
of a local worker pool. This module holds only what is specific to a
fleet:

* replica bring-up — local ``repro-bench serve`` children, or remote
  ``host:port`` endpoints;
* consistent-hash routing (:class:`~repro.cluster.ring.HashRing`) by
  :func:`~repro.serve.cache.request_key`, which is also what
  ``repro.plan.validate`` reconstructs;
* per-replica forward slots, and re-routing on
  :class:`~repro.cluster.replicas.ReplicaUnavailable` — because the
  service coalesces on the same key before routing, a what-if submitted
  twice across a remap window still runs exactly once;
* a health loop plus event-driven respawn: a dead local replica is
  respawned and rejoins the ring under its old identity, so its
  keyspace slice maps back unchanged;
* ``kill_replica`` (fault injection) and ``replica_metrics``.
"""

from __future__ import annotations

import asyncio
import contextlib

from ..serve.metrics import ServiceMetrics
from ..serve.metrics import logger as serve_logger
from ..serve.queue import AdmissionError, Job
from ..serve.workers import DEFAULT_RUNNER
from .replicas import (
    AsyncReplicaConnection,
    LocalReplicaProcess,
    Replica,
    ReplicaUnavailable,
)
from .ring import HashRing

logger = serve_logger.getChild("cluster")

REASON_NO_REPLICAS = "no healthy replicas"

#: Re-route attempts after a replica connection loss or rejection.
ROUTE_RETRIES = 5
#: Seconds a health probe waits for a replica's ``ping`` reply.
PING_TIMEOUT = 2.0


class Fleet:
    """Routes jobs across a health-checked replica fleet.

    ``replicas`` local ``repro-bench serve`` children are spawned, each
    with ``workers_per_replica`` workers and a ``replica_capacity``
    queue; ``addresses`` adds pre-existing ``host:port`` replicas.
    """

    def __init__(
        self,
        replicas: int = 2,
        *,
        addresses: tuple[str, ...] = (),
        workers_per_replica: int = 2,
        replica_capacity: int = 64,
        max_outstanding_per_replica: int = 8,
        health_interval: float = 1.0,
        vnodes: int = 64,
    ):
        self.n_local = replicas
        self.addresses = tuple(addresses)
        self.workers_per_replica = workers_per_replica
        self.replica_capacity = replica_capacity
        #: Concurrent forwards per replica (should not exceed the
        #: replica's own queue capacity).
        self.max_outstanding_per_replica = max_outstanding_per_replica
        self.health_interval = health_interval
        self.vnodes = vnodes
        self.ring = HashRing(vnodes=vnodes)
        self.replicas: dict[str, Replica] = {}
        self._replica_slots: dict[str, asyncio.Semaphore] = {}
        self._runner_spec: str | None = None
        self._metrics: ServiceMetrics | None = None
        self._tasks: set[asyncio.Task] = set()
        self._health_task: asyncio.Task | None = None
        self._membership_changed: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # Executor interface
    # ------------------------------------------------------------------

    async def start(self, config, metrics: ServiceMetrics, timeline) -> None:
        self._metrics = metrics
        # Replicas run the registry unless the service names another body.
        spec = config.runner_spec
        self._runner_spec = None if spec == DEFAULT_RUNNER else spec
        self._membership_changed = asyncio.Event()
        specs: list[tuple[str, str | None]] = [
            (f"r{i}", None) for i in range(self.n_local)
        ]
        specs += [
            (f"remote{i}", addr) for i, addr in enumerate(self.addresses)
        ]
        if not specs:
            raise ValueError("a fleet needs at least one replica")
        await asyncio.gather(
            *(self._bring_up(rid, addr) for rid, addr in specs)
        )
        if not self.ring.members:
            await self.close()
            raise RuntimeError("no replica came up")
        if self.health_interval:
            self._health_task = asyncio.create_task(
                self._health_loop(), name="cluster-health"
            )
        logger.info("fleet: %d replicas up (vnodes=%d)",
                    len(self.ring.members), self.vnodes)

    @property
    def slots(self) -> int:
        return max(1, self.max_outstanding_per_replica * len(self.replicas))

    def owner(self, key: str) -> str:
        try:
            return self.ring.lookup(key)
        except LookupError:
            return "?"  # empty ring: cache accounting parks on '?'

    async def run(self, job: Job) -> dict:
        """Forward ``job`` to the replica owning its key, re-routing on
        connection loss or replica-side rejection."""
        request = {
            "op": "submit",
            "exp_id": job.exp_id,
            "kwargs": job.kwargs,
            "job_class": job.job_class,
            "wait": True,
        }
        if job.timeout is not None:
            request["timeout"] = job.timeout
        if job.retries:
            request["retries"] = job.retries
        for attempt in range(ROUTE_RETRIES + 1):
            replica = await self._route(job.key, attempt)
            if replica is None:
                continue
            async with self._replica_slots[replica.replica_id]:
                conn = replica.conn  # pin: _mark_unhealthy clears the attr
                if not replica.healthy or conn is None:
                    continue  # lost it while waiting for the slot
                replica.forwarded += 1
                try:
                    reply = await conn.request(request)
                except ReplicaUnavailable:
                    replica.errors += 1
                    self._metrics.retries += 1
                    self._mark_unhealthy(replica)
                    continue
            job.attempts = attempt + 1
            if reply.get("rejected"):
                # Replica-side admission pressure: brief backoff, retry.
                replica.errors += 1
                self._metrics.retries += 1
                await asyncio.sleep(0.05 * (attempt + 1))
                continue
            if not reply.get("ok"):
                replica.errors += 1
                raise RuntimeError(reply.get("error", "replica failure"))
            replica.completed += 1
            return reply["result"]
        raise AdmissionError(
            REASON_NO_REPLICAS,
            f"{job.exp_id} after {ROUTE_RETRIES + 1} attempts",
        )

    def snapshot(self) -> dict:
        return {
            "kind": "fleet",
            "workers": self.workers_per_replica * len(self.ring.members),
            "ring": sorted(self.ring.members),
            "replicas": {
                rid: replica.snapshot()
                for rid, replica in sorted(self.replicas.items())
            },
            "respawns": sum(r.respawns for r in self.replicas.values()),
        }

    async def close(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
            self._health_task = None
        while self._tasks:  # in-flight respawns and connection closes
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        for replica in self.replicas.values():
            if replica.conn is not None:
                await replica.conn.close()
                replica.conn = None
        await asyncio.gather(
            *(
                asyncio.to_thread(replica.proc.terminate)
                for replica in self.replicas.values()
                if replica.proc is not None
            ),
            return_exceptions=True,
        )

    # ------------------------------------------------------------------
    # Membership: bring-up, health, respawn
    # ------------------------------------------------------------------

    async def _bring_up(self, replica_id: str, address: str | None) -> None:
        """Spawn (local) or dial (remote) one replica and ring it in."""
        replica = self.replicas.get(replica_id)
        if replica is None:
            replica = self.replicas[replica_id] = Replica(
                replica_id, local=address is None
            )
            self._replica_slots[replica_id] = asyncio.Semaphore(
                self.max_outstanding_per_replica
            )
        try:
            if address is None:
                replica.proc = await asyncio.to_thread(
                    LocalReplicaProcess, replica_id,
                    workers=self.workers_per_replica,
                    capacity=self.replica_capacity,
                    runner_spec=self._runner_spec,
                )
                replica.host, replica.port = (
                    replica.proc.host, replica.proc.port,
                )
            else:
                host, _, port = address.partition(":")
                replica.host, replica.port = host, int(port)
            replica.conn = await AsyncReplicaConnection.open(
                replica.host, replica.port
            )
        except Exception:
            logger.exception("fleet: replica %s failed to come up",
                             replica_id)
            replica.healthy = False
            return
        replica.healthy = True
        self.ring.add(replica_id)
        self._membership_changed.set()
        self._membership_changed = asyncio.Event()
        logger.info("fleet: replica %s up at %s", replica_id,
                    replica.address)

    def _mark_unhealthy(self, replica: Replica) -> None:
        if not replica.healthy:
            return
        replica.healthy = False
        self.ring.remove(replica.replica_id)
        logger.warning("fleet: replica %s removed from ring",
                       replica.replica_id)
        if replica.conn is not None:
            conn = replica.conn
            replica.conn = None
            self._spawn_task(
                conn.close(), f"cluster-close-{replica.replica_id}"
            )
        # Event-driven recovery: start the respawn right away instead of
        # waiting for the next health tick (the tick is the fallback for
        # respawn attempts that themselves failed).
        self._schedule_respawn(replica)

    def _spawn_task(self, coro, name: str) -> None:
        task = asyncio.create_task(coro, name=name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _schedule_respawn(self, replica: Replica) -> None:
        if replica.respawning:
            return
        replica.respawning = True
        self._spawn_task(
            self._respawn(replica), f"cluster-respawn-{replica.replica_id}"
        )

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            for replica in list(self.replicas.values()):
                if not replica.healthy:
                    # A previous respawn attempt failed; try again.
                    self._schedule_respawn(replica)
                    continue
                conn = replica.conn
                dead = (
                    (replica.proc is not None and not replica.proc.alive())
                    or conn is None
                    or conn.closed
                )
                if not dead:
                    try:
                        await conn.ping(PING_TIMEOUT)
                    except (ReplicaUnavailable, asyncio.TimeoutError):
                        dead = True
                if dead:
                    self._mark_unhealthy(replica)

    async def _respawn(self, replica: Replica) -> None:
        """Replace a dead local replica (new process, same identity) or
        re-dial a remote one; either way it rejoins the ring under its
        old id, so the keyspace maps back exactly as before."""
        try:
            if replica.proc is not None:
                await asyncio.to_thread(replica.proc.kill)
                replica.proc = None
            if replica.local:
                replica.respawns += 1
            await self._bring_up(
                replica.replica_id, None if replica.local else replica.address
            )
        finally:
            replica.respawning = False

    async def _route(self, key: str, attempt: int) -> Replica | None:
        """Ring lookup, with a bounded wait for membership to recover
        when the ring is empty or points at a replica mid-respawn."""
        try:
            rid = self.ring.lookup(key)
        except LookupError:
            rid = None
        replica = self.replicas.get(rid) if rid is not None else None
        if replica is not None and replica.healthy and replica.conn is not None:
            return replica
        event = self._membership_changed
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(event.wait(), 0.25 * (attempt + 1))
        return None

    # ------------------------------------------------------------------
    # Fault injection and per-replica observability
    # ------------------------------------------------------------------

    async def kill_replica(self, replica_id: str) -> int:
        """Fault injection: SIGKILL a local replica's process (the
        health loop will respawn it). Returns the killed pid."""
        replica = self.replicas[replica_id]
        if replica.proc is None:
            raise ValueError(f"{replica_id} is not a local replica")
        pid = replica.proc.pid
        await asyncio.to_thread(replica.proc.kill)
        return pid

    async def replica_metrics(self) -> dict[str, dict]:
        """Fetch each healthy replica's own ``metrics`` snapshot (e.g.
        per-replica ``jobs.executed`` for exactly-once verification)."""
        out: dict[str, dict] = {}
        for rid, replica in sorted(self.replicas.items()):
            if replica.conn is None or replica.conn.closed:
                continue
            with contextlib.suppress(
                ReplicaUnavailable, asyncio.TimeoutError
            ):
                out[rid] = await replica.conn.metrics()
        return out
