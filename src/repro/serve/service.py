"""`repro.serve` service core and TCP endpoint.

:class:`SimulationService` is the only serving core: ``submit()``
applies admission control, coalescing and the memory-cache lookup and
returns a :class:`JobHandle` whose ``result()`` awaits the shared
outcome; a dispatch loop hands queued jobs to an *executor* (a local
worker pool by default, or a replica fleet —
:class:`repro.cluster.fleet.Fleet`) after the disk read-through;
``drain()`` stops admitting and delivers every accepted job;
``metrics_snapshot()`` is the JSON observability surface. ``serve_tcp``
wraps a service in a newline-delimited-JSON protocol (ops: ``submit``,
``metrics``, ``ping``, ``shutdown``) for the ``repro-bench serve`` /
``submit`` CLI pair and the ``repro-bench cluster serve`` gateway.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import signal
import time
from dataclasses import dataclass, field

from ..bench.harness import ExperimentResult
from ..bench.runner import ResultCache, _deserialize
from .cache import CacheTier, request_key
from .executor import LocalExecutor
from .metrics import ServiceMetrics, logger
from .queue import (
    REASON_LOAD_SHED,
    REASON_TENANT_QUOTA,
    REASON_UNKNOWN_EXPERIMENT,
    AdmissionError,
    BoundedPriorityQueue,
    Job,
    QueueClosed,
)
from .workers import DEFAULT_RUNNER

_UNSET = object()


@dataclass
class ServiceConfig:
    """Tunables for one service instance, whichever executor it uses."""

    #: Worker processes of the local executor.
    workers: int = 2
    capacity: int = 16
    class_limits: dict[str, int] | None = None
    #: Per-job timeout; the fleet forwards it to the replicas.
    default_timeout: float | None = None
    default_retries: int = 0
    runner_spec: str = DEFAULT_RUNNER
    #: A disk ``ResultCache`` (wrapped in a memory tier), a ready
    #: :class:`CacheTier` (``CacheTier()`` is memory-only), or None for
    #: no caching at all.
    cache: ResultCache | CacheTier | None = None
    #: accepted experiment ids (None = accept anything; the CLI passes
    #: the registry so bogus ids are rejected at admission, not by a
    #: worker)
    known_experiments: frozenset[str] | None = None
    #: Max outstanding (queued + running) jobs per tenant.
    tenant_quota: int | None = None
    #: Queue-depth fraction at which batch jobs are shed (1.0 = never).
    shed_batch_above: float = 1.0
    metrics_interval: float = 10.0
    #: Optional explicit wall-clock :class:`repro.profiling.Timeline`
    #: for queue-wait/dispatch/worker-exec spans. When left ``None`` one
    #: is still created if timelines are requested globally
    #: (``REPRO_TIMELINE=1`` or an active ``TimelineSession``).
    timeline: object | None = None


@dataclass
class JobHandle:
    """Client-side view of one submission."""

    job_id: str
    exp_id: str
    key: str
    future: asyncio.Future = field(repr=False)  # -> serialised payload
    coalesced: bool = False  # shared an identical in-flight job
    cached: bool = False  # served from the memory cache at submit

    async def payload(self, timeout: float | None = None) -> dict:
        """The serialised result, as the executor returned it."""
        return await asyncio.wait_for(asyncio.shield(self.future), timeout)

    async def result(self, timeout: float | None = None) -> ExperimentResult:
        """The deserialised result; its rows are shared with the cache
        and any co-waiters, so treat them as read-only."""
        return _deserialize(await self.payload(timeout))

    def done(self) -> bool:
        return self.future.done()


class SimulationService:
    """Concurrent what-if simulation service (asyncio).

    Lifecycle: ``await start()`` → ``submit()`` / ``cancel()`` →
    ``await drain()`` (delivers all accepted work) → ``await stop()``.
    Also usable as an async context manager. ``executor`` defaults to a
    :class:`~repro.serve.executor.LocalExecutor`; see that module for
    the interface a :class:`repro.cluster.fleet.Fleet` also implements.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        executor=None,
        **overrides,
    ):
        self.config = config or ServiceConfig(**overrides)
        self.executor = executor if executor is not None else LocalExecutor()
        self.metrics = ServiceMetrics()
        if self.config.timeline is not None:
            self.timeline = self.config.timeline
        else:
            from ..profiling.timeline import maybe_timeline

            self.timeline = maybe_timeline(
                None, time.monotonic, name="serve", tag_os_ids=True
            )
        self.queue = BoundedPriorityQueue(
            self.config.capacity, self.config.class_limits
        )
        self.cache: CacheTier | None = None
        #: coalescing map: request key -> accepted-but-unfinished Job
        self.inflight: dict[str, Job] = {}
        self.tenant_outstanding: dict[str, int] = {}
        self._jobs: dict[str, Job] = {}  # job_id -> job, for cancel()
        self._next_id = 0
        self._slots: asyncio.Semaphore | None = None
        self._tasks: set[asyncio.Task] = set()
        self._loop_task: asyncio.Task | None = None
        self._metrics_task: asyncio.Task | None = None
        self._started = False

    async def __aenter__(self) -> "SimulationService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    async def start(self) -> None:
        if self._started:
            return
        cfg = self.config
        await self.executor.start(cfg, self.metrics, self.timeline)
        cache = cfg.cache
        if isinstance(cache, ResultCache):
            cache = CacheTier(cache)
        self.cache = cache
        self._slots = asyncio.Semaphore(self.executor.slots)
        self.metrics.gauges_fn = self._gauges
        self._loop_task = asyncio.create_task(
            self._dispatch_loop(), name="serve-dispatch"
        )
        if cfg.metrics_interval:
            self._metrics_task = asyncio.create_task(
                self._metrics_loop(), name="serve-metrics"
            )
        self._started = True
        logger.info(
            "serve: started (%s, slots=%d capacity=%d cache=%s)",
            type(self.executor).__name__, self.executor.slots, cfg.capacity,
            self.cache and getattr(self.cache.disk, "root", "memory"),
        )

    def _gauges(self) -> dict:
        gauges = {
            "queue": {
                "depth": self.queue.depth(),
                "by_class": self.queue.depth_by_class(),
            },
            "in_flight": len(self.inflight),
            "tenants": dict(sorted(self.tenant_outstanding.items())),
            "executor": self.executor.snapshot(),
        }
        if self.cache is not None:
            gauges["cache"] = self.cache.snapshot()
        return gauges

    async def _metrics_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.metrics_interval)
            self.metrics.log_line()

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------

    def submit(
        self,
        exp_id: str,
        kwargs: dict | None = None,
        *,
        job_class: str = "batch",
        tenant: str = "anon",
        timeout: float | None = _UNSET,  # type: ignore[assignment]
        retries: int = _UNSET,  # type: ignore[assignment]
    ) -> JobHandle:
        """Admit one what-if job, or raise :class:`AdmissionError`.

        In order: unknown experiment → coalesce onto an identical
        in-flight job → answer from the memory cache → tenant quota →
        batch watermark → queue capacity and class seats. A duplicate or
        cached request is free, so it is never shed."""
        assert self._started, "call await service.start() first"
        cfg = self.config
        kwargs = dict(kwargs or {})
        self.metrics.submitted += 1
        if (
            cfg.known_experiments is not None
            and exp_id not in cfg.known_experiments
        ):
            self._reject(REASON_UNKNOWN_EXPERIMENT, exp_id)
        key = request_key(exp_id, kwargs)

        inflight = self.inflight.get(key)
        if inflight is not None and not inflight.cancelled:
            inflight.waiters += 1
            self.metrics.coalesced += 1
            return JobHandle(
                inflight.job_id, exp_id, key, inflight.future, coalesced=True
            )

        if self.cache is not None:
            payload = self.cache.get_memory(key, self.executor.owner(key))
            if payload is not None:
                self.metrics.cache_hits += 1
                future = asyncio.get_running_loop().create_future()
                future.set_result(payload)
                return JobHandle("cached", exp_id, key, future, cached=True)

        outstanding = self.tenant_outstanding.get(tenant, 0)
        if cfg.tenant_quota is not None and outstanding >= cfg.tenant_quota:
            self._reject(
                REASON_TENANT_QUOTA,
                f"{tenant}: {outstanding}/{cfg.tenant_quota} outstanding",
            )
        depth = self.queue.depth()
        if (
            job_class == "batch"
            and cfg.shed_batch_above < 1.0
            and depth >= cfg.shed_batch_above * cfg.capacity
        ):
            self._reject(
                REASON_LOAD_SHED,
                f"queue {depth}/{cfg.capacity}, batch shed above "
                f"{cfg.shed_batch_above:.0%}",
            )

        self._next_id += 1
        job = Job(
            exp_id=exp_id,
            kwargs=kwargs,
            key=key,
            job_class=job_class,
            tenant=tenant,
            timeout=cfg.default_timeout if timeout is _UNSET else timeout,
            retries=cfg.default_retries if retries is _UNSET else retries,
            job_id=f"job-{self._next_id}",
            future=asyncio.get_running_loop().create_future(),
        )
        try:
            self.queue.put_nowait(job)
        except AdmissionError as exc:
            self.metrics.reject(exc.reason)
            raise
        self.metrics.accepted += 1
        self.inflight[key] = job
        self.tenant_outstanding[tenant] = outstanding + 1
        self._jobs[job.job_id] = job
        return JobHandle(job.job_id, exp_id, key, job.future)

    def _reject(self, reason: str, detail: str) -> None:
        self.metrics.reject(reason)
        raise AdmissionError(reason, detail)

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job (in-flight executions are left to
        finish — their result still feeds the cache and any co-waiters).
        Returns True if the job was marked cancelled."""
        job = self._jobs.get(job_id)
        if job is None or job.started_at is not None or job.future.done():
            return False
        job.cancelled = True
        return True

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # Dispatch: queue → disk read-through → executor
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            try:
                job = await self.queue.get()
            except QueueClosed:
                break
            if job.cancelled:
                self._settle(job)
                self.metrics.cancelled += 1
                job.future.cancel()
                continue
            await self._slots.acquire()
            task = asyncio.create_task(
                self._execute(job), name=f"serve-job-{job.job_id}"
            )
            self._tasks.add(task)
            task.add_done_callback(self._on_task_done)

    def _on_task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        self._slots.release()
        if not task.cancelled() and task.exception() is not None:
            logger.error("serve-job task died: %r", task.exception())

    async def _execute(self, job: Job) -> None:
        job.started_at = time.monotonic()
        self.metrics.queue_wait.record(job.queue_wait)
        if self.timeline is not None:
            self.timeline.complete(
                "queue-wait", job.submitted_at, job.queue_wait,
                cat="serve", track="serve/queue",
                job_id=job.job_id, exp_id=job.exp_id,
                job_class=job.job_class,
            )
        cache = self.cache
        if cache is not None:
            owner = self.executor.owner(job.key)
            if cache.disk is not None:
                payload = await asyncio.to_thread(
                    cache.get_disk, job.key, job.exp_id, job.kwargs, owner
                )
                if payload is not None:
                    self.metrics.cache_hits += 1
                    self.metrics.disk_hits += 1
                    self._resolve(job, payload)
                    return
            self.metrics.cache_misses += 1
            cache.miss(owner)

        self.metrics.executed += 1
        try:
            payload = await self.executor.run(job)
        except Exception as exc:  # noqa: BLE001 — settle every waiter
            self._dispatch_span(job, "failed")
            self._fail(job, exc)
            return
        self._dispatch_span(job, "completed")
        if isinstance(payload, dict):
            # Side-channel from checkpoint-aware runners (the what-if
            # replayer): stripped so cached payloads stay pure results.
            ckpt_meta = payload.pop("_checkpoint", None)
            if ckpt_meta:
                self.metrics.note_checkpoint(ckpt_meta)
        if cache is not None:
            cache.put(
                job.key, payload, job.exp_id, job.kwargs,
                self.executor.owner(job.key),
            )
        self._resolve(job, payload)

    def _dispatch_span(self, job: Job, outcome: str) -> None:
        if self.timeline is not None:
            self.timeline.complete(
                "dispatch", job.started_at,
                time.monotonic() - job.started_at,
                cat="serve", track="serve/dispatch",
                job_id=job.job_id, exp_id=job.exp_id,
                attempts=job.attempts, outcome=outcome,
            )

    def _settle(self, job: Job) -> None:
        if self.inflight.get(job.key) is job:
            del self.inflight[job.key]
        self._jobs.pop(job.job_id, None)
        left = self.tenant_outstanding.get(job.tenant, 1) - 1
        if left > 0:
            self.tenant_outstanding[job.tenant] = left
        else:
            self.tenant_outstanding.pop(job.tenant, None)

    def _resolve(self, job: Job, payload: dict) -> None:
        self._settle(job)
        self.metrics.completed += 1
        now = time.monotonic()
        self.metrics.exec_latency.record(now - job.started_at)
        self.metrics.record_total(job.job_class, now - job.submitted_at)
        if not job.future.done():
            job.future.set_result(payload)

    def _fail(self, job: Job, exc: Exception) -> None:
        self._settle(job)
        self.metrics.failed += 1
        self.metrics.record_total(
            job.job_class, time.monotonic() - job.submitted_at
        )
        if not job.future.done():
            job.future.set_exception(exc)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def drain(self) -> None:
        """Stop admitting (new submissions are rejected with
        ``service draining``) and run every accepted job to completion."""
        self.queue.close()
        if self._loop_task is not None:
            await self._loop_task
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    async def stop(self) -> None:
        if self._metrics_task is not None:
            self._metrics_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._metrics_task
            self._metrics_task = None
        if self._started:
            await self.executor.close()
            if self.cache is not None:
                await asyncio.to_thread(self.cache.close)
        self._started = False

    async def shutdown(self) -> None:
        """Graceful: drain accepted work, stop the executor, log final
        metrics."""
        await self.drain()
        await self.stop()
        logger.info("serve: final %s", self.metrics.log_line())


# ----------------------------------------------------------------------
# TCP endpoint (newline-delimited JSON)
# ----------------------------------------------------------------------

#: Longest accepted request line (bytes); a longer one gets an error
#: reply and the connection is closed.
LINE_LIMIT = 64 * 1024

#: Optional ``submit`` fields: name -> (accepted types, null allowed).
_SUBMIT_FIELDS = {
    "exp_id": (str, False),
    "kwargs": (dict, True),
    "job_class": (str, False),
    "tenant": (str, False),
    "timeout": ((int, float), True),
    "retries": (int, False),
    "wait_timeout": ((int, float), True),
}


def _check_submit(request: dict) -> None:
    """Reject a malformed ``submit`` before it reaches the service."""
    if "exp_id" not in request:
        raise ValueError("missing field 'exp_id'")
    for name, (types, nullable) in _SUBMIT_FIELDS.items():
        value = request.get(name)
        if value is None and (nullable or name not in request):
            continue
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(
                f"field {name!r} has the wrong type "
                f"({type(value).__name__})"
            )


async def _handle_request(service: SimulationService, request: dict) -> dict:
    op = request.get("op")
    if op == "ping":
        return {"ok": True, "op": "ping"}
    if op == "metrics":
        return {"ok": True, "metrics": service.metrics_snapshot()}
    if op == "submit":
        try:
            _check_submit(request)
            handle = service.submit(
                request["exp_id"],
                request.get("kwargs") or {},
                job_class=request.get("job_class", "batch"),
                tenant=request.get("tenant", "anon"),
                timeout=request.get("timeout", _UNSET),
                retries=request.get("retries", _UNSET),
            )
        except AdmissionError as exc:
            return {
                "ok": False,
                "rejected": True,
                "reason": exc.reason,
                "detail": exc.detail,
            }
        except ValueError as exc:
            return {"ok": False, "error": str(exc)}
        response = {
            "ok": True,
            "job_id": handle.job_id,
            "coalesced": handle.coalesced,
            "cached": handle.cached,
        }
        if request.get("wait", True):
            try:
                payload = await handle.payload(request.get("wait_timeout"))
            except asyncio.TimeoutError:
                return {**response, "ok": False, "error": "wait timed out"}
            except Exception as exc:  # noqa: BLE001 — report job failure
                return {**response, "ok": False, "error": str(exc)}
            response["result"] = payload
        return response
    return {"ok": False, "error": f"unknown op {op!r}"}


async def serve_tcp(
    service: SimulationService,
    host: str = "127.0.0.1",
    port: int = 8642,
    on_ready=None,
) -> None:
    """Serve until a ``shutdown`` op (or cancellation); drains first.
    ``on_ready(host, port)`` fires once the socket is bound (pass
    ``port=0`` to let the OS pick)."""
    done = asyncio.Event()

    async def on_connection(reader, writer):
        # Requests carrying an ``id`` are answered concurrently (the
        # reply echoes the id, and ordering is no longer guaranteed), so
        # one connection can pipeline many in-flight submits — the
        # fleet's replica links depend on this. Requests without an id
        # keep the original strict request/reply order.
        write_lock = asyncio.Lock()
        pipelined: set[asyncio.Task] = set()

        async def send(response: dict) -> None:
            async with write_lock:
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()

        async def respond(request: dict) -> None:
            response = await _handle_request(service, request)
            response["id"] = request["id"]
            with contextlib.suppress(ConnectionError, OSError):
                await send(response)

        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the stream limit cut the line
                    await send({
                        "ok": False,
                        "error": f"request line exceeds {LINE_LIMIT} bytes",
                    })
                    break
                if not line:
                    break
                try:
                    request = json.loads(line)
                except ValueError as exc:
                    response = {"ok": False, "error": f"bad json: {exc}"}
                else:
                    if not isinstance(request, dict):
                        response = {
                            "ok": False,
                            "error": "request must be a JSON object",
                        }
                    elif request.get("op") == "shutdown":
                        done.set()
                        response = {"ok": True, "op": "shutdown"}
                    elif request.get("id") is not None:
                        task = asyncio.create_task(respond(request))
                        pipelined.add(task)
                        task.add_done_callback(pipelined.discard)
                        continue
                    else:
                        response = await _handle_request(service, request)
                await send(response)
                if done.is_set():
                    break
        finally:
            for task in pipelined:
                task.cancel()
            if pipelined:
                await asyncio.gather(*pipelined, return_exceptions=True)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    server = await asyncio.start_server(
        on_connection, host, port, limit=LINE_LIMIT
    )
    addr = server.sockets[0].getsockname()
    logger.info("serve: listening on %s:%s", addr[0], addr[1])
    print(f"repro-serve listening on {addr[0]}:{addr[1]}", flush=True)
    if on_ready is not None:
        on_ready(addr[0], addr[1])
    try:
        await done.wait()
    finally:
        server.close()
        await server.wait_closed()
        await service.shutdown()


async def serve_until_signalled(
    service: SimulationService, host: str, port: int
) -> None:
    """Start ``service`` and serve it over TCP until a ``shutdown`` op or
    SIGINT/SIGTERM; either way every accepted job is drained first."""
    await service.start()
    loop = asyncio.get_running_loop()
    server_task = asyncio.ensure_future(serve_tcp(service, host, port))
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, server_task.cancel)
    try:
        await server_task
    except asyncio.CancelledError:
        logger.info("serve: signal received, draining")
        await service.shutdown()


def add_endpoint_args(parser, port: int) -> None:
    """The flags ``repro-bench serve`` and ``cluster serve`` share."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=port)
    parser.add_argument(
        "--interactive-limit", type=int, default=None, metavar="N",
        help="max queued interactive-class jobs",
    )
    parser.add_argument(
        "--batch-limit", type=int, default=None, metavar="N",
        help="max queued batch-class jobs",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="default per-job timeout in seconds (a gateway forwards it "
        "to its replicas)",
    )
    parser.add_argument("--cache-dir", metavar="DIR")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument(
        "--runner", metavar="MODULE:FUNCTION", default=None,
        help="custom job-body spec resolved in the workers (default: run "
        "a registry experiment); implies accepting any exp_id, since the "
        "runner owns the namespace",
    )


def endpoint_config(args) -> dict:
    """:class:`ServiceConfig` fields from :func:`add_endpoint_args` flags."""
    from ..bench.experiments import experiment_ids

    limits = {"interactive": args.interactive_limit, "batch": args.batch_limit}
    return {
        "class_limits": {
            cls: n for cls, n in limits.items() if n is not None
        } or None,
        "default_timeout": args.timeout,
        "runner_spec": args.runner or DEFAULT_RUNNER,
        "cache": None if args.no_cache else ResultCache(args.cache_dir),
        "known_experiments": (
            None if args.runner else frozenset(experiment_ids())
        ),
    }


def main_serve(argv: list[str] | None = None) -> int:
    """``repro-bench serve`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-bench serve",
        description="Serve what-if simulation jobs over TCP (JSON lines); "
        "pair with 'repro-bench submit'.",
    )
    add_endpoint_args(parser, port=8642)
    parser.add_argument(
        "--workers", type=int, default=2, help="worker processes (default 2)"
    )
    parser.add_argument(
        "--capacity", type=int, default=16,
        help="queue capacity; submissions beyond it are rejected",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="default retry budget for timed-out/crashed jobs",
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=10.0,
        help="seconds between structured metrics log lines (0 disables)",
    )
    parser.add_argument(
        "--timeline", metavar="PATH", default=None,
        help="record queue-wait/dispatch/worker-exec spans and write a "
        "Perfetto trace JSON here at shutdown",
    )
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(message)s")
    timeline = None
    if args.timeline:
        from ..profiling.timeline import Timeline

        timeline = Timeline(
            time_fn=time.monotonic, name="serve", tag_os_ids=True
        )
    config = ServiceConfig(
        workers=args.workers,
        capacity=args.capacity,
        default_retries=args.retries,
        metrics_interval=args.metrics_interval,
        timeline=timeline,
        **endpoint_config(args),
    )
    asyncio.run(
        serve_until_signalled(SimulationService(config), args.host, args.port)
    )
    if timeline is not None:
        from ..profiling.timeline import export_perfetto

        out = export_perfetto([timeline], args.timeline)
        logger.info("serve: wrote %d-event timeline to %s",
                    len(timeline), out)
    return 0
