#!/usr/bin/env python3
"""The repository benchmark: host wall time of the simulator, end to end
and split by layer.

    python3 perfbench/run.py --workload oversub-4k --seed 1 --seconds 10 --trace 0

Run it from the repository root. Every time reported is host wall time of
the simulator (``time.perf_counter``), never simulated time.

Workloads (``perfbench/README.md`` says why each exists):

* ``oversub-4k``: ``fig11`` at scale 0.25 on gh200.
* ``qv-oversub-full``: ``fig12`` then ``fig13`` at scale 1.0 on gh200.
* ``registry-xarch``: every registered experiment at the golden scale
  (1/64) on gh200, upm and svm.
* ``serve-mix``: a seeded Zipf stream of requests over cheap
  (experiment, backend) keys, sent through ``SimulationService``'s
  JSON-lines TCP endpoint by closed-loop connections.

The simulation workloads run their experiments one after another in this
process; the seed only shuffles their order. ``--trace 0`` repeats passes
over the workload as long as they fit in ``--seconds`` (at least one) and
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics (``perfbench/tracer.py``). Every result
is fingerprinted with ``repro.check.golden.result_fingerprint`` outside
the timed region and compared with its expected fingerprint; a mismatch,
an exception or a refused request counts as a failed operation. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()  # setup probes time imports from here

import argparse  # noqa: E402
import asyncio  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # span files and per-pass result caches
EXPECTED = HERE / "expected"

ARCHES = ("gh200", "upm", "svm")
SETUP_PROBES = 6

#: Experiments served by ``serve-mix``, each on all three backends: the
#: cheapest at the golden scale, so a miss costs real simulation but the
#: stream stays dominated by the serve core.
SERVE_EXPERIMENTS = (
    "table1", "table2", "sec21", "abl_autonuma", "fig4", "fig10",
    "abl_migration_off", "sec512", "topo_scaling", "abl_first_touch",
    "fig5", "fig9", "fig12",
)
SERVE_REQUESTS = 1000
SERVE_ZIPF_S = 1.0
SERVE_WORKERS = 1
SERVE_MAX_CONNECTIONS = 2

#: Simulation workloads: ``(exp_id, scale)`` pairs, all on gh200, whose
#: expected fingerprints live in ``perfbench/expected/<workload>.json``.
FIXED_WORKLOADS = {
    "oversub-4k": (("fig11", 0.25),),
    "qv-oversub-full": (("fig12", 1.0), ("fig13", 1.0)),
}
WORKLOADS = (*FIXED_WORKLOADS, "registry-xarch", "serve-mix")

def _unit(name: str) -> str:
    if name == "count.c2c_bytes":
        return "bytes"
    if name.endswith("_ms"):
        return "ms"
    if name == "req_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def per_layer_names(exp_ids) -> list[str]:
    """Every per-layer metric, in report order."""
    from tracer import layer_names

    return [
        "pageset.build_s", "pageset.build_calls", "pageset.indices_in",
        "pageset.pages_out", "pageset.dedup_ratio",
        "apps.self_s", "kernels.launch_calls", "kernels.launch_self_s",
        "mem.access_batch_calls", "mem.access_batch_self_s",
        "mem.batch_descriptors", "mem.access_calls", "mem.alloc_free_s",
        "mem.begin_epoch_s",
        *(f"arch.{a}.hooks_s" for a in ARCHES),
        "faults.first_touch_s", "faults.first_touch_calls",
        "count.gpu_replayable_faults", "count.cpu_page_faults",
        "count.managed_far_faults",
        "migrator.service_s", "migrator.service_calls",
        "managed.evict_s", "managed.evict_calls",
        "pagetable.split_counts_s", "pagetable.split_counts_calls",
        "count.pages_migrated_h2d", "count.pages_migrated_d2h",
        "count.pages_evicted",
        "link.c2c_s", "link.c2c_calls", "count.c2c_bytes",
        "tlb.shootdown_s", "tlb.shootdown_calls", "count.tlb_shootdowns",
        "profiling.bump_calls", "profiling.bump_s", "trace.overhead_ratio",
        "serve.queue_wait_p50_ms", "serve.worker_exec_s",
        "serve.cache_hit_ratio", "serve.coalesced_ratio", "serve.rejected",
        "runner.cache_get_s", "runner.cache_put_s",
        *(f"layer.{layer}.self_s" for layer in layer_names()),
        *(f"exp.{e}.host_s" for e in exp_ids),
        "failed_frac", *(f"{a}_s" for a in ARCHES),
        "req_p50_ms", "req_p99_ms", "req_per_s",
    ]


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One experiment run: what to run and the fingerprint it must give."""

    exp_id: str
    kwargs: dict
    arch: str
    digest: str | None = None  # expected; None until known

    @property
    def label(self) -> str:
        return f"{self.exp_id}:{self.arch}"


@dataclass
class PassStats:
    """What one pass over a workload measured and returned."""

    wall_s: float = 0.0
    #: per operation, in order: (op, fingerprint digest or None, error)
    outcomes: list = field(default_factory=list)
    host_s: dict = field(default_factory=dict)  # (exp_id, arch) -> seconds
    latencies_ms: list = field(default_factory=list)
    service: dict = field(default_factory=dict)


def fixed_ops(workload: str) -> list[Op]:
    data = json.loads((EXPECTED / f"{workload}.json").read_text())
    ops = []
    for exp_id, scale in FIXED_WORKLOADS[workload]:
        ops.append(Op(exp_id, {"scale": scale}, "gh200",
                      data[f"{exp_id}:gh200"]["digest"]))
    return ops


def registry_ops(exp_ids=None, arches=ARCHES) -> list[Op]:
    """Experiments at the golden configuration, expecting the committed
    golden fingerprints of ``tests/golden/<arch>/``."""
    from repro.bench.experiments import experiment_ids
    from repro.check.golden import golden_dir_for, golden_kwargs, load_golden

    ops = []
    for arch in arches:
        for exp_id in exp_ids or experiment_ids():
            golden = load_golden(exp_id, golden_dir_for(arch))
            if golden is None:
                raise FileNotFoundError(f"no golden fingerprint for {exp_id} on {arch}")
            ops.append(Op(exp_id, golden_kwargs(exp_id, arch), arch, golden["digest"]))
    return ops


def serve_keys(exp_ids=SERVE_EXPERIMENTS, arches=ARCHES) -> list[Op]:
    from repro.check.golden import golden_kwargs

    return [
        Op(exp_id, golden_kwargs(exp_id, arch), arch)
        for exp_id in exp_ids for arch in arches
    ]


def zipf_stream(keys: list[Op], seed: int, n: int = SERVE_REQUESTS) -> list[Op]:
    """``n`` requests drawn with Zipf popularity over ``keys``; the seed
    also picks which key gets which rank."""
    rng = random.Random(seed)
    ranked = list(keys)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=n)


def serve_connections() -> int:
    """Closed-loop connections, keeping connections + worker processes
    within the processors this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    return max(1, min(SERVE_MAX_CONNECTIONS, nproc - SERVE_WORKERS))


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _digest(result) -> str:
    from repro.check.golden import result_fingerprint

    return result_fingerprint(result)["digest"]


def run_sim_pass(ops: list[Op], tracer=None, census=None) -> PassStats:
    """Run every op once, in order, timing each experiment on its own."""
    from repro.bench.experiments import run_experiment

    stats = PassStats()
    results = []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        if census is not None:
            stack.enter_context(census.installed())
        for op in ops:
            span = (
                tracer.span("experiment", op.exp_id)
                if tracer is not None else contextlib.nullcontext()
            )
            result = error = None
            t0 = time.perf_counter()
            try:
                with span:
                    result = run_experiment(op.exp_id, **op.kwargs)
            except Exception as exc:  # noqa: BLE001 — a failed operation
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            stats.wall_s += dt
            key = (op.exp_id, op.arch)
            stats.host_s[key] = stats.host_s.get(key, 0.0) + dt
            results.append((op, result, error))
    for op, result, error in results:
        stats.outcomes.append(
            (op, None if result is None else _digest(result), error)
        )
    return stats


async def _serve_pass(stream: list[Op], connections: int, tracer, census):
    from repro.bench.experiments import experiment_ids
    from repro.bench.runner import ResultCache
    from repro.serve.service import ServiceConfig, SimulationService, serve_tcp

    stats = PassStats()
    OUT.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=OUT)
    service = SimulationService(ServiceConfig(
        workers=SERVE_WORKERS,
        capacity=4 * connections,
        cache=ResultCache(cache_dir),
        known_experiments=frozenset(experiment_ids()),
        metrics_interval=0,
    ))
    await service.start()
    ready = asyncio.get_running_loop().create_future()
    server = asyncio.create_task(serve_tcp(
        service, "127.0.0.1", 0,
        on_ready=lambda host, port: ready.set_result(port),
    ))
    responses = [None] * len(stream)
    latencies = [0.0] * len(stream)
    pending = iter(enumerate(stream))
    try:
        port = await ready

        async def client():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for i, op in pending:
                    request = {"op": "submit", "exp_id": op.exp_id,
                               "kwargs": op.kwargs}
                    t = time.perf_counter()
                    writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    responses[i] = await reader.readline()
                    latencies[i] = (time.perf_counter() - t) * 1e3
            finally:
                writer.close()
                await writer.wait_closed()

        with contextlib.ExitStack() as stack:
            # Installed after the worker process has started, so the
            # tracer patches only this process.
            if tracer is not None:
                stack.enter_context(tracer.installed())
            if census is not None:
                stack.enter_context(census.installed())
            t0 = time.perf_counter()
            await asyncio.gather(*(client() for _ in range(connections)))
            stats.wall_s = time.perf_counter() - t0
    finally:
        # Cancelling the endpoint drains the service and joins its worker.
        server.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await server
        await service.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)

    from repro.bench.runner import _deserialize

    m = service.metrics
    stats.service = {
        "queue_wait_p50_ms": m.queue_wait.percentile(50) * 1e3,
        "worker_exec_s": m.exec_latency.total,
        "cache_hit_ratio": m.cache_hits / max(1, m.submitted),
        "coalesced_ratio": m.coalesced / max(1, m.submitted),
        "rejected": m.rejected_total,
    }
    stats.latencies_ms = latencies
    for op, line in zip(stream, responses):
        response = json.loads(line)
        if response.get("ok"):
            digest, error = _digest(_deserialize(response["result"])), None
        else:
            digest = None
            error = f"refused: {response.get('reason') or response.get('error')}"
        stats.outcomes.append((op, digest, error))
    return stats


def run_serve_pass(stream, connections, tracer=None, census=None) -> PassStats:
    """Serve ``stream`` once through a fresh service with an empty cache."""
    return asyncio.run(_serve_pass(stream, connections, tracer, census))


def direct_digests(keys: list[Op]) -> None:
    """Fill in each key's expected digest from a direct in-process run."""
    from repro.bench.experiments import run_experiment

    for op in keys:
        op.digest = _digest(run_experiment(op.exp_id, **op.kwargs))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    """A workload's fixed input: ``ops`` for a simulation workload, or
    the served ``keys`` and request ``stream`` for ``serve-mix``."""

    name: str
    ops: list = field(default_factory=list)
    keys: list = field(default_factory=list)
    stream: list = field(default_factory=list)
    connections: int = 1

    @property
    def serving(self) -> bool:
        return bool(self.stream)

    def run_pass(self, tracer=None, census=None) -> PassStats:
        if self.serving:
            return run_serve_pass(self.stream, self.connections, tracer, census)
        return run_sim_pass(self.ops, tracer, census)

    def expect(self) -> None:
        """Make every expected digest known (serve keys need a direct run)."""
        if self.serving:
            direct_digests(self.keys)


def build_workload(name: str, seed: int) -> Workload:
    if name == "serve-mix":
        keys = serve_keys()
        return Workload(name, keys=keys, stream=zipf_stream(keys, seed),
                        connections=serve_connections())
    ops = fixed_ops(name) if name in FIXED_WORKLOADS else registry_ops()
    random.Random(seed).shuffle(ops)
    return Workload(name, ops=ops)


def setup_probe(name: str, seed: int) -> float:
    """Seconds from interpreter start-up (``_T0``) until the workload is
    ready to run: imports, inputs and, for serve-mix, a started service."""
    import repro.bench.experiments  # noqa: F401 — what every pass runs
    import repro.check.golden  # noqa: F401

    workload = build_workload(name, seed)
    if workload.serving:
        async def start_stop():
            from repro.serve.service import ServiceConfig, SimulationService

            service = SimulationService(ServiceConfig(
                workers=SERVE_WORKERS, metrics_interval=0,
            ))
            await service.start()
            ready = time.perf_counter() - _T0
            await service.shutdown()
            return ready

        return asyncio.run(start_stop())
    return time.perf_counter() - _T0


def setup_time(name: str, seed: int) -> float:
    """One fresh interpreter's setup time (:func:`setup_probe`)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Checks and metrics
# ---------------------------------------------------------------------------


def count_failures(passes: list[PassStats]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for stats in passes:
        for op, digest, error in stats.outcomes:
            attempted += 1
            if error is not None:
                problem = f"{op.label}: {error}"
            elif digest != op.digest:
                problem = (f"{op.label}: fingerprint {digest[:12]} != "
                           f"expected {str(op.digest)[:12]}")
            else:
                continue
            failed += 1
            problems.append(problem)
    return attempted, failed, problems


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def workload_metrics(stats: PassStats, exp_ids) -> dict[str, float]:
    """End-to-end figures of one untraced pass that the per-layer report
    carries: host seconds per experiment and backend, request latency."""
    m = {}
    for exp_id in exp_ids:
        m[f"exp.{exp_id}.host_s"] = sum(
            s for (e, _), s in stats.host_s.items() if e == exp_id
        )
    for arch in ARCHES:
        m[f"{arch}_s"] = sum(
            s for (_, a), s in stats.host_s.items() if a == arch
        )
    lat = sorted(stats.latencies_ms)
    if lat:
        m["req_p50_ms"] = statistics.median(lat)
        m["req_p99_ms"] = lat[min(len(lat) - 1, int(0.99 * len(lat)))]
        m["req_per_s"] = len(lat) / stats.wall_s
    else:
        m.update(req_p50_ms=0.0, req_p99_ms=0.0, req_per_s=0.0)
    for key in ("queue_wait_p50_ms", "worker_exec_s", "cache_hit_ratio",
                "coalesced_ratio", "rejected"):
        m[f"serve.{key}"] = stats.service.get(key, 0)
    return m


def layer_metrics(tracer, census, meter) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    from tracer import layer_names

    own, calls = tracer.self_times()

    def pick(layer=None, cls=None, method=None) -> tuple[float, int]:
        s, c = 0.0, 0
        for i, (lay, kls, meth) in enumerate(tracer.names):
            if ((layer is None or lay == layer) and (cls is None or kls == cls)
                    and (method is None or meth == method)):
                s += float(own[i])
                c += int(calls[i])
        return s, c

    m = {}
    m["pageset.build_s"], m["pageset.build_calls"] = pick("descriptor")
    m["pageset.indices_in"] = meter["indices_in"]
    m["pageset.pages_out"] = meter["pages_out"]
    m["pageset.dedup_ratio"] = (
        meter["pages_out"] / meter["indices_in"] if meter["indices_in"] else 0.0
    )
    m["apps.self_s"] = pick("apps")[0]
    m["kernels.launch_self_s"], m["kernels.launch_calls"] = pick(
        cls="KernelExecutor", method="launch")
    m["mem.access_batch_self_s"], m["mem.access_batch_calls"] = pick(
        cls="MemorySubsystem", method="access_batch")
    m["mem.batch_descriptors"] = meter["batch_descriptors"]
    m["mem.access_calls"] = census.access_calls
    m["mem.alloc_free_s"] = (
        pick(cls="MemorySubsystem", method="allocate")[0]
        + pick(cls="MemorySubsystem", method="free")[0]
    )
    m["mem.begin_epoch_s"] = pick(cls="MemorySubsystem", method="begin_epoch")[0]
    for arch in ARCHES:
        m[f"arch.{arch}.hooks_s"] = pick(f"arch.{arch}")[0]
    m["faults.first_touch_s"], m["faults.first_touch_calls"] = pick(
        "faults", method="first_touch")
    m["migrator.service_s"], m["migrator.service_calls"] = pick(
        "migration", method="service")
    m["managed.evict_s"], m["managed.evict_calls"] = pick(
        cls="ManagedMemoryManager", method="evict_bytes")
    m["pagetable.split_counts_s"], m["pagetable.split_counts_calls"] = pick(
        cls="Allocation", method="split_counts")
    m["link.c2c_s"], m["link.c2c_calls"] = pick(cls="NvlinkC2C")
    m["tlb.shootdown_s"], m["tlb.shootdown_calls"] = pick(
        cls="Tlb", method="shootdown")
    m["profiling.bump_s"], m["profiling.bump_calls"] = pick(
        cls="HardwareCounters", method="bump")
    m["runner.cache_get_s"] = pick(cls="ResultCache", method="get")[0]
    m["runner.cache_put_s"] = pick(cls="ResultCache", method="put")[0]
    for layer in layer_names():
        m[f"layer.{layer}.self_s"] = pick(layer)[0]
    totals = census.totals()
    for name in ("gpu_replayable_faults", "cpu_page_faults",
                 "managed_far_faults", "pages_migrated_h2d",
                 "pages_migrated_d2h", "pages_evicted", "tlb_shootdowns"):
        m[f"count.{name}"] = totals[name]
    m["count.c2c_bytes"] = totals["c2c_read_bytes"] + totals["c2c_write_bytes"]
    return m


def make_meters(acc: dict) -> dict:
    """Tracer meters for the counts that need a call's arguments."""

    def pageset_of(args, kwargs, result):
        indices = args[0] if args else kwargs["indices"]
        acc["indices_in"] += len(indices)
        acc["pages_out"] += result.count

    def access_batch(args, kwargs, result):
        batch = args[2] if len(args) > 2 else kwargs["batch"]
        acc["batch_descriptors"] += len(batch)

    return {"PageSet.of": pageset_of,
            "MemorySubsystem.access_batch": access_batch}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def untraced_run(workload: Workload, seconds: float, probe,
                 probes: int = SETUP_PROBES) -> tuple[dict, int, int, list[str], list[str]]:
    """As many passes as fit in ``seconds`` (at least one); ``probe()``
    measures one setup. Half the probes run after the first pass and half
    after the last, so their median spans the run's drift in machine
    speed."""
    passes, costs = [], []  # costs include each pass's untimed set-up

    def one_pass():
        t0 = time.perf_counter()
        passes.append(workload.run_pass())
        costs.append(time.perf_counter() - t0)

    one_pass()
    # Read after the first pass and before any probe, so the figure does
    # not depend on how many passes fit in the run.
    peak = peak_rss_mb()
    setup = [probe() for _ in range(probes // 2)]
    while sum(costs) + statistics.median(costs) <= seconds:
        one_pass()
    setup += [probe() for _ in range(probes - probes // 2)]
    workload.expect()
    attempted, failed, problems = count_failures(passes)
    wall = statistics.median(p.wall_s for p in passes)
    metrics = {"setup_s": statistics.median(setup), "wall_s": wall,
               "peak_rss_mb": peak}

    from repro.bench.experiments import experiment_ids

    extra = workload_metrics(passes[len(passes) // 2], experiment_ids())
    notes = [
        f"passes = {len(passes)}",
        f"failed_frac = {failed / attempted:.6g}",
        *(f"{k} = {extra[k]:.6g}" for k in
          (*(f"{a}_s" for a in ARCHES), "req_p50_ms", "req_p99_ms",
           "req_per_s")),
    ]
    return metrics, attempted, failed, problems, notes


def traced_run(workload: Workload) -> tuple[dict, int, int, list[str], list[str]]:
    from repro.bench.experiments import experiment_ids
    from tracer import Census, Tracer

    ref_census = Census()
    ref = workload.run_pass(census=ref_census)
    acc = {"indices_in": 0, "pages_out": 0, "batch_descriptors": 0}
    tracer = Tracer(meters=make_meters(acc))
    census = Census()
    traced = workload.run_pass(tracer=tracer, census=census)
    spans_path = tracer.write(OUT / f"spans-{workload.name}.npz")
    workload.expect()

    attempted, failed, problems = count_failures([ref, traced])
    if [d for _, d, _ in ref.outcomes] != [d for _, d, _ in traced.outcomes]:
        problems.append("traced fingerprints differ from untraced ones")
    if ref_census.access_calls != census.access_calls:
        problems.append(
            f"mem.access_calls {ref_census.access_calls} untraced vs "
            f"{census.access_calls} traced")
    if ref_census.totals() != census.totals():
        problems.append("hardware counter totals differ under tracing")

    exp_ids = experiment_ids()
    metrics = workload_metrics(ref, exp_ids)
    metrics.update(layer_metrics(tracer, census, acc))
    metrics["trace.overhead_ratio"] = traced.wall_s / ref.wall_s
    metrics["failed_frac"] = failed / attempted
    notes = [f"spans = {len(tracer.spans()['name'])} written to {spans_path.relative_to(ROOT)}",
             f"untraced wall_s = {ref.wall_s:.6g}",
             f"traced wall_s = {traced.wall_s:.6g}"]
    names = per_layer_names(exp_ids)
    return {k: metrics[k] for k in names}, attempted, failed, problems, notes


def report(metrics: dict, attempted: int, failed: int, problems: list[str],
           notes: list[str]) -> dict:
    for line in notes:
        print(line)
    for problem in problems:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {_unit(name)}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not (ROOT / "tests" / "golden").is_dir():
        print(f"perfbench: the simulator sources (src/repro) and golden "
              f"fingerprints (tests/golden) must sit beside {HERE.name}/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    if args.trace:
        workload = build_workload(args.workload, args.seed)
        result = report(*traced_run(workload))
    else:
        workload = build_workload(args.workload, args.seed)
        probe = functools.partial(setup_time, args.workload, args.seed)
        result = report(*untraced_run(workload, args.seconds, probe))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
