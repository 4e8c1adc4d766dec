"""Executors: where :class:`~repro.serve.service.SimulationService` sends
the jobs its queue releases.

The service owns admission, coalescing, the cache hierarchy, the
dispatch loop and metrics; an executor only runs one job at a time per
slot. Two implement the same small interface:

* :class:`LocalExecutor` (this module) — a
  :class:`~repro.serve.workers.SupervisedWorkerPool` of worker
  processes with per-job timeouts, bounded retries and crash restarts;
* :class:`repro.cluster.fleet.Fleet` — consistent-hash forwarding to a
  health-checked fleet of replica services.

The interface: ``await start(config, metrics, timeline)``; ``slots``
(how many jobs may run at once, read after start); ``owner(key)`` (whose
keyspace slice a request key is in, for per-owner cache accounting);
``await run(job)`` (the job's serialised result payload, or raises);
``snapshot()`` (the ``executor`` metrics section; ``workers`` and
``restarts`` keys also feed the ``workers`` section); ``await close()``.
"""

from __future__ import annotations

import asyncio

from .metrics import ServiceMetrics, logger
from .queue import Job
from .workers import JobFailed, SupervisedWorkerPool, WorkerTimeout

#: Cache owner of every key served by a local worker pool.
LOCAL_OWNER = "local"


class LocalExecutor:
    """Runs jobs on this host's supervised worker-process pool."""

    def __init__(self):
        self.pool: SupervisedWorkerPool | None = None
        self._workers = 0
        self._restarts = 0
        self._metrics: ServiceMetrics | None = None
        self._timeline = None

    async def start(self, config, metrics: ServiceMetrics, timeline) -> None:
        self._metrics = metrics
        self._timeline = timeline
        self.pool = await asyncio.to_thread(
            SupervisedWorkerPool, config.workers, config.runner_spec
        )
        self._workers = len(self.pool)

    @property
    def slots(self) -> int:
        return self._workers

    def owner(self, key: str) -> str:
        return LOCAL_OWNER

    async def run(self, job: Job) -> dict:
        metrics = self._metrics

        def on_retry(exp_id: str, attempt: int, exc: Exception) -> None:
            # Runs on the pool thread; int bumps are atomic under the GIL.
            if isinstance(exc, WorkerTimeout):
                metrics.timeouts += 1
            metrics.retries += 1
            job.attempts = attempt + 1
            logger.warning(
                "retrying %s (%s, attempt %d): %s",
                job.job_id, exp_id, attempt + 2, exc,
            )

        try:
            return await asyncio.to_thread(
                self.pool.run_with_retry,
                job.exp_id,
                job.kwargs,
                timeout=job.timeout,
                retries=job.retries,
                on_retry=on_retry,
                timeline=self._timeline,
                job_id=job.job_id,
            )
        except JobFailed as exc:
            if "timed out" in exc.reason:
                metrics.timeouts += 1  # the final, non-retried attempt
            job.attempts = exc.attempts
            raise

    def snapshot(self) -> dict:
        return {
            "kind": "local",
            "workers": self._workers,
            "restarts": (
                self.pool.restarts if self.pool is not None
                else self._restarts  # frozen by close()
            ),
        }

    async def close(self) -> None:
        if self.pool is not None:
            self._restarts = self.pool.restarts
            await asyncio.to_thread(self.pool.close)
            self.pool = None

