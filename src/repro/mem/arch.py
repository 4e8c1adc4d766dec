"""Pluggable memory-architecture backends.

The paper's performance model is specific to one hardware design point:
GH200's split LPDDR5X/HBM3 pools with first-touch placement and
access-counter delayed migration. Other integrated CPU-GPU systems make
different choices — the MI300A study (PAPERS.md, arXiv 2508.12743)
describes a *unified physical memory* where a single pool eliminates
migration entirely — and comparing design points requires swapping the
memory model without touching the applications, the kernel executor, or
the verification harness.

:class:`MemoryArchitecture` is that seam. A backend owns:

* the **physical layout** (:meth:`MemoryArchitecture.make_physical`) —
  how many pools exist and what the driver reserves at boot;
* the **fault path** (:meth:`~MemoryArchitecture.make_fault_handler`) —
  where first-touch pages land and what each fault costs;
* the **migration policy** (:meth:`~MemoryArchitecture.make_migrator`) —
  whether pages ever move after placement;
* the **access economics** (:meth:`~MemoryArchitecture.system_access`,
  :meth:`~MemoryArchitecture.managed_access`,
  :meth:`~MemoryArchitecture.pinned_access`) — which counters and
  bandwidth rooflines an access batch charges, built from the shared
  :meth:`~MemoryArchitecture.charge_local` and
  :meth:`~MemoryArchitecture.charge_far` rules.

Backends register under a short name (``@register_architecture``) and
are selected per run via :attr:`repro.sim.config.SystemConfig.mem_arch`.
The application-visible contract is identical across backends — same
payload bytes, same completion order, same exceptions — only counters
and latencies may differ (enforced by the cross-backend conformance and
Hypothesis property suites under ``tests/``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.config import Location, Processor
from .pageset import PageSet
from .pagetable import AllocKind
from .physical import PhysicalMemory


@dataclass
class AccessResult:
    """Cost and traffic of one access batch, for the kernel cost model."""

    fault_seconds: float = 0.0
    remote_seconds: float = 0.0
    transfer_seconds: float = 0.0
    hbm_bytes: int = 0
    lpddr_bytes: int = 0
    remote_bytes: int = 0
    consumed_bytes: int = 0

    def merge(self, other: "AccessResult") -> "AccessResult":
        self.fault_seconds += other.fault_seconds
        self.remote_seconds += other.remote_seconds
        self.transfer_seconds += other.transfer_seconds
        self.hbm_bytes += other.hbm_bytes
        self.lpddr_bytes += other.lpddr_bytes
        self.remote_bytes += other.remote_bytes
        self.consumed_bytes += other.consumed_bytes
        return self


def remote_counter(processor: Processor, write: bool) -> str:
    """The counter ``processor``'s cacheline-grain traffic to the other
    pool lands in: ``c2c_*`` for the GPU, ``cpu_remote_*`` for the CPU."""
    rw = "write" if write else "read"
    if processor is Processor.GPU:
        return f"c2c_{rw}_bytes"
    return f"cpu_remote_{rw}_bytes"


def record_gpu_accesses(mem, alloc, pages, wire: int, n_pages: int) -> None:
    """Feed a GPU's remote cacheline traffic to the migrator's access
    counters (``wire`` bytes spread evenly over ``n_pages`` pages)."""
    per_page = (wire // max(n_pages, 1)) // mem.config.cacheline_bytes_gpu
    mem.migrator.record_gpu_accesses(alloc, pages, max(1, per_page))


class MemoryArchitecture:
    """Strategy interface one memory-architecture backend implements.

    Access-path hooks receive the owning
    :class:`~repro.mem.subsystem.MemorySubsystem` (``mem``) so a backend
    can reuse its components (fault handler, coherence fabric, link,
    counters) rather than duplicate them. Backends are stateless: all
    mutable state lives in the subsystem components the construction
    hooks build, so one backend instance may serve many subsystems.
    Hooks service first-touch faults through ``mem.first_touch`` and
    report every migration/eviction counter bump with
    :func:`~repro.mem.observer.emit_move`, so observers see them.

    The hooks with a body here are defaults for the split-pool layout
    (GH200 and SVM); :meth:`charge_local` and :meth:`charge_far` are the
    one copy of the local and peer-chip charging rules every access path
    shares, the batched fast path included.
    """

    #: Registry key and the name ``SystemConfig.mem_arch`` selects.
    name = "base"
    #: One-line summary surfaced by ``repro-bench run --list``.
    description = ""

    # -- construction hooks ------------------------------------------------

    def make_physical(self, config):
        """Build the physical pool layout (page-table capacity source):
        by default an LPDDR5X pool and an HBM3 pool."""
        return PhysicalMemory(config)

    def make_fault_handler(self, config, physical, smmu, counters):
        """Build the first-touch fault path."""
        raise NotImplementedError

    def make_migrator(self, config, physical, link, tlbs, counters):
        """Build the post-placement migration policy."""
        raise NotImplementedError

    def make_managed(self, mem):
        """Build the managed-memory driver ``managed_access`` and
        ``prefetch_async`` use, from the finished subsystem ``mem``; by
        default none (the backend prices managed memory itself)."""
        return None

    # -- access-path hooks -------------------------------------------------

    def local_location(self, processor: Processor) -> Location:
        """The residency state the batched fast path treats as local for
        ``processor`` (homogeneous allocations short-circuit to
        :meth:`charge_local` against this location)."""
        return Location.GPU if processor is Processor.GPU else Location.CPU

    def charge_local(
        self, counters, processor, alloc, pages, local_bytes, write, res,
        now=None,
    ) -> None:
        """Charge ``local_bytes`` of ``processor``-local traffic to ``res``.

        The one place that picks the ``hbm_*`` (GPU-issued) or
        ``lpddr_*`` (CPU-issued) counter, tallies a ``SYSTEM``
        allocation's local bytes, and, given ``now``, marks a managed
        allocation's ``pages`` GPU-touched at ``now`` for LRU eviction.
        """
        kind = alloc.kind
        if processor is Processor.GPU:
            res.hbm_bytes += local_bytes
            counters.bump(
                **{("hbm_write_bytes" if write else "hbm_read_bytes"): local_bytes}
            )
            if now is not None and kind is AllocKind.MANAGED:
                alloc.touch_blocks(pages, now)
        else:
            res.lpddr_bytes += local_bytes
            counters.bump(
                **{("lpddr_write_bytes" if write else "lpddr_read_bytes"): local_bytes}
            )
        if kind is AllocKind.SYSTEM:
            if write:
                alloc.stats.local_write_bytes += local_bytes
            else:
                alloc.stats.local_read_bytes += local_bytes

    def charge_far(self, mem, processor, alloc, pages, shape, n_far, res) -> None:
        """Charge ``n_far`` pages resident on a *peer superchip*:
        cacheline-grain access over the inter-chip fabric (multi-hop,
        derated). GPU accesses feed the migrator's access counters."""
        if not n_far or mem.fabric_port is None:
            return
        wire = mem.fabric.remote_traffic(processor, shape, n_far)
        res.remote_bytes += wire
        res.remote_seconds += mem.fabric_port.remote_access(wire, alloc, processor)
        if processor is Processor.GPU:
            record_gpu_accesses(
                mem, alloc, alloc.subset(pages, Location.REMOTE), wire, n_far
            )

    def system_access(self, mem, processor, alloc, pages, shape, write):
        """One access batch against a ``malloc`` allocation."""
        raise NotImplementedError

    def managed_access(self, mem, processor, alloc, pages, shape, write, now):
        """One access batch against a ``cudaMallocManaged`` allocation."""
        raise NotImplementedError

    def pinned_access(self, mem, processor, alloc, pages, shape, write):
        """One access batch against host-pinned / NUMA-bound memory. By
        default every page is local to the accessor: true of the CPU on
        every backend, and of the GPU where one pool backs both."""
        res = AccessResult()
        self.charge_local(
            mem.counters, processor, alloc, pages,
            shape.useful_bytes * pages.count, write, res,
        )
        return res

    def host_register(self, mem, alloc) -> float:
        """``cudaHostRegister``: bulk PTE population outside the fault
        path. Returns the population time."""
        return mem.faults.prepopulate(alloc, PageSet.full(alloc.n_pages))

    def prefetch_async(self, mem, alloc, pages, now) -> float:
        """``cudaMemPrefetchAsync`` toward the GPU. Returns the transfer
        time (zero where prefetch is meaningless) and adds the moved pages
        to ``alloc.stats.pages_migrated_to_gpu``."""
        raise NotImplementedError

    def oversubscription_reference_free(self, mem) -> int:
        """Free bytes of the GPU-sized *reference tier* oversubscription
        ratios are quoted against. By default literal HBM free space; a
        single-pool design reports the notional GPU-share so
        cross-architecture oversubscription ratios stay comparable."""
        return mem.physical.gpu.free


#: name -> backend class. Populated by :func:`register_architecture`.
_ARCHITECTURES: dict[str, type] = {}

#: name -> shared backend instance (backends are stateless).
_INSTANCES: dict[str, MemoryArchitecture] = {}


def _ensure_builtins() -> None:
    """Import the in-tree backends so the registry is never empty,
    regardless of which module a caller imported first."""
    from . import arch_gh200, arch_svm, arch_upm  # noqa: F401


def register_architecture(cls):
    """Class decorator adding a backend to the registry by its ``name``."""
    name = cls.name
    if not name or name == "base":
        raise ValueError(f"{cls.__name__} must define a backend name")
    existing = _ARCHITECTURES.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"memory architecture {name!r} is already registered "
            f"({existing.__name__})"
        )
    _ARCHITECTURES[name] = cls
    _INSTANCES.pop(name, None)
    return cls


def architecture_names() -> list[str]:
    """Registered backend names, default first."""
    _ensure_builtins()
    names = sorted(_ARCHITECTURES)
    if "gh200" in names:
        names.remove("gh200")
        names.insert(0, "gh200")
    return names


def architecture_descriptions() -> dict[str, str]:
    """``{name: one-line description}`` for every registered backend."""
    return {
        name: _ARCHITECTURES[name].description
        for name in architecture_names()
    }


def resolve_arch(name: str) -> MemoryArchitecture:
    """The shared backend instance for ``name`` (raises with the
    registered list on an unknown backend)."""
    _ensure_builtins()
    try:
        cls = _ARCHITECTURES[name]
    except KeyError:
        raise ValueError(
            f"unknown memory architecture {name!r}; registered backends: "
            f"{', '.join(architecture_names())}"
        ) from None
    instance = _INSTANCES.get(name)
    if instance is None or type(instance) is not cls:
        instance = _INSTANCES[name] = cls()
    return instance
