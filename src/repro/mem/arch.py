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
  bandwidth rooflines an access batch charges.

Backends register under a short name (``@register_architecture``) and
are selected per run via :attr:`repro.sim.config.SystemConfig.mem_arch`.
The application-visible contract is identical across backends — same
payload bytes, same completion order, same exceptions — only counters
and latencies may differ (enforced by the cross-backend conformance and
Hypothesis property suites under ``tests/``).
"""

from __future__ import annotations

from ..sim.config import Location, Processor


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
    """

    #: Registry key and the name ``SystemConfig.mem_arch`` selects.
    name = "base"
    #: One-line summary surfaced by ``repro-bench run --list``.
    description = ""

    # -- construction hooks ------------------------------------------------

    def make_physical(self, config):
        """Build the physical pool layout (page-table capacity source)."""
        raise NotImplementedError

    def make_fault_handler(self, config, physical, smmu, counters):
        """Build the first-touch fault path."""
        raise NotImplementedError

    def make_migrator(self, config, physical, link, tlbs, counters):
        """Build the post-placement migration policy."""
        raise NotImplementedError

    # -- access-path hooks -------------------------------------------------

    def local_location(self, processor: Processor) -> Location:
        """The residency state the batched fast path treats as local for
        ``processor`` (homogeneous allocations short-circuit to pure
        byte/counter arithmetic against this location)."""
        raise NotImplementedError

    def system_access(self, mem, processor, alloc, pages, shape, write):
        """One access batch against a ``malloc`` allocation."""
        raise NotImplementedError

    def managed_access(self, mem, processor, alloc, pages, shape, write, now):
        """One access batch against a ``cudaMallocManaged`` allocation."""
        raise NotImplementedError

    def pinned_access(self, mem, processor, alloc, pages, shape, write):
        """One access batch against host-pinned / NUMA-bound memory."""
        raise NotImplementedError

    def host_register(self, mem, alloc) -> float:
        """``cudaHostRegister``: bulk PTE population outside the fault
        path. Returns the population time."""
        raise NotImplementedError

    def prefetch_async(self, mem, alloc, pages, now) -> float:
        """``cudaMemPrefetchAsync`` toward the GPU. Returns the transfer
        time (zero where prefetch is meaningless) and adds the moved pages
        to ``alloc.stats.pages_migrated_to_gpu``."""
        raise NotImplementedError

    def oversubscription_reference_free(self, mem) -> int:
        """Free bytes of the GPU-sized *reference tier* oversubscription
        ratios are quoted against. On GH200 this is literal HBM free
        space; a single-pool design reports the notional GPU-share so
        cross-architecture oversubscription ratios stay comparable."""
        raise NotImplementedError


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
