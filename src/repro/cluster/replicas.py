"""Replica fleet plumbing: process spawning and pipelined connections.

A replica is one :class:`~repro.serve.service.SimulationService` — either
spawned locally as a ``repro-bench serve`` subprocess (port 0, parsed
from its ready line) or addressed remotely as ``host:port``. The fleet
talks to each replica over a single :class:`AsyncReplicaConnection`
carrying many concurrent requests, correlated by the ``id`` field the
serve protocol echoes back (see :func:`repro.serve.service.serve_tcp`).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

_READY_PREFIX = "repro-serve listening on "

#: Seconds a spawned replica has to print its ready line.
SPAWN_TIMEOUT = 120.0


class ReplicaUnavailable(ConnectionError):
    """The replica's connection dropped (crash, kill, network)."""


class AsyncReplicaConnection:
    """One socket, many in-flight requests (id-correlated JSON lines)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._closed = False
        self._reader_task = asyncio.create_task(
            self._read_loop(), name="cluster-replica-reader"
        )

    @classmethod
    async def open(
        cls, host: str, port: int, timeout: float = 5.0
    ) -> "AsyncReplicaConnection":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        return cls(reader, writer)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    async def _read_loop(self) -> None:
        try:
            while True:
                try:
                    line = await self._reader.readline()
                except (ConnectionError, OSError):
                    break  # reset by a killed replica == EOF
                if not line:
                    break
                try:
                    reply = json.loads(line)
                except json.JSONDecodeError:
                    continue  # protocol noise; the waiter will time out
                future = self._pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        finally:
            self._fail_pending()

    def _fail_pending(self) -> None:
        self._closed = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    ReplicaUnavailable("replica connection lost")
                )

    async def request(self, payload: dict,
                      timeout: float | None = None) -> dict:
        """Send one op; await its id-matched reply."""
        if self._closed:
            raise ReplicaUnavailable("replica connection closed")
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(
                json.dumps({**payload, "id": request_id}).encode() + b"\n"
            )
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(request_id, None)
            self._fail_pending()
            raise ReplicaUnavailable(str(exc)) from exc
        try:
            return await asyncio.wait_for(future, timeout)
        finally:
            self._pending.pop(request_id, None)

    async def ping(self, timeout: float = 2.0) -> bool:
        reply = await self.request({"op": "ping"}, timeout)
        return bool(reply.get("ok"))

    async def metrics(self, timeout: float = 10.0) -> dict:
        reply = await self.request({"op": "metrics"}, timeout)
        return reply.get("metrics", {})

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        with contextlib.suppress(asyncio.CancelledError, Exception):
            await self._reader_task
        self._writer.close()
        with contextlib.suppress(Exception):
            await self._writer.wait_closed()
        self._fail_pending()


def _repro_env() -> dict:
    """Child env with this repro importable even from a src/ checkout."""
    env = os.environ.copy()
    src_root = str(Path(__file__).resolve().parents[2])
    parts = [src_root] + [
        p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return env


class LocalReplicaProcess:
    """One ``repro-bench serve`` child bound to an OS-assigned port."""

    def __init__(
        self,
        name: str,
        *,
        workers: int = 2,
        capacity: int = 64,
        runner_spec: str | None = None,
    ):
        self.name = name
        argv = [
            sys.executable, "-m", "repro.bench", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", str(workers),
            "--capacity", str(capacity),
            "--no-cache",  # the gateway owns the cache hierarchy
            "--metrics-interval", "0",
        ]
        if runner_spec:
            argv += ["--runner", runner_spec]
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_repro_env(),
            text=True,
        )
        self.host, self.port = self._await_ready(SPAWN_TIMEOUT)
        # Keep the pipe drained so the child can never block on stdout.
        threading.Thread(
            target=self._drain_stdout, name=f"{name}-stdout", daemon=True
        ).start()

    def _await_ready(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"{self.name} exited before binding "
                    f"(exit={self.proc.poll()})"
                )
            if line.startswith(_READY_PREFIX):
                host, _, port = line[len(_READY_PREFIX):].strip().partition(":")
                return host, int(port)
            if time.monotonic() > deadline:
                raise TimeoutError(f"{self.name} never reported ready")

    def _drain_stdout(self) -> None:
        with contextlib.suppress(Exception), self.proc.stdout:
            for _ in self.proc.stdout:
                pass

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL — the fault-injection path (simulated crash)."""
        with contextlib.suppress(ProcessLookupError):
            self.proc.kill()
        self.proc.wait(timeout=10)

    def terminate(self, timeout: float = 10.0) -> None:
        """Polite stop (SIGTERM → the serve loop drains and exits)."""
        if self.alive():
            with contextlib.suppress(ProcessLookupError):
                self.proc.terminate()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()


@dataclass
class Replica:
    """Fleet-side handle on one member."""

    replica_id: str
    local: bool = True  # spawned here (vs. dialled at host:port)
    host: str = ""
    port: int = 0
    conn: AsyncReplicaConnection | None = None
    proc: LocalReplicaProcess | None = None
    healthy: bool = False
    respawning: bool = False
    respawns: int = 0
    forwarded: int = 0  # requests sent to this replica
    completed: int = 0  # successful replies
    errors: int = 0  # connection losses / failed replies

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def snapshot(self) -> dict:
        return {
            "address": self.address,
            "healthy": self.healthy,
            "local": self.local,
            "pid": self.proc.pid if self.proc is not None else None,
            "respawns": self.respawns,
            "forwarded": self.forwarded,
            "completed": self.completed,
            "errors": self.errors,
            "in_flight": self.conn.in_flight if self.conn else 0,
        }
