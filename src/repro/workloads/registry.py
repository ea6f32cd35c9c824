"""Name-based registry of workload generators (the scenario catalog).

Every generator the simulator can drive registers itself here — the
benchmark presets (``oltp`` ... ``ocean``), the paper's microbenchmark,
and the isolated sharing-pattern generators of
:mod:`repro.workloads.patterns`.  Presets, sweeps, ``repro bench``, and
the CLI all discover workloads through this one table, so adding a
generator module is enough to make it runnable, cacheable (the cell
cache keys on the registered name), and listable via
``repro list-scenarios``.

Two registration styles:

* :func:`register_workload` — class decorator for generator classes
  whose constructor is ``(num_cores, seed=..., **knobs)``; the class
  gains a ``workload_name`` attribute (name -> class -> name
  round-trip).
* :func:`register_factory` — for parameterized families (the synthetic
  presets) where several names share one class.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Tuple

from repro.workloads.base import WorkloadGenerator


#: Kinds a workload generator can be registered under (the CLI's
#: ``list-scenarios --kind`` filter draws its choices from here).
WORKLOAD_KINDS = ("pattern", "preset", "micro", "trace", "synthetic")


class WorkloadSpec(NamedTuple):
    """One runnable scenario: its factory and what it models."""

    name: str
    factory: Callable[..., WorkloadGenerator]
    description: str
    kind: str  # one of WORKLOAD_KINDS


_REGISTRY: Dict[str, WorkloadSpec] = {}


def register_factory(name: str, factory: Callable[..., WorkloadGenerator],
                     description: str, kind: str) -> None:
    """Register ``factory(num_cores, seed=..., **knobs)`` under ``name``."""
    if name in _REGISTRY:
        raise ValueError(f"workload {name!r} already registered")
    if kind not in WORKLOAD_KINDS:
        raise ValueError(f"unknown workload kind {kind!r}; "
                         f"choose from {WORKLOAD_KINDS}")
    _REGISTRY[name] = WorkloadSpec(name, factory, description, kind)


def register_workload(name: str, description: str, kind: str = "pattern"):
    """Class decorator form of :func:`register_factory`."""
    def decorate(cls):
        register_factory(name, cls, description, kind)
        cls.workload_name = name
        return cls
    return decorate


def _ensure_registered() -> None:
    """Import every generator module (each registers on import)."""
    import repro.workloads.micro      # noqa: F401
    import repro.workloads.patterns   # noqa: F401
    import repro.workloads.presets    # noqa: F401
    import repro.traces.workload      # noqa: F401  (the "trace" replayer)
    import repro.synth.workload       # noqa: F401  (the profile sampler)


def registered_count() -> int:
    """How many workloads are registered in this process so far.

    Registration only adds, so a changed count means a new name.  It
    does not import the catalog (unlike :func:`workload_names`).
    """
    return len(_REGISTRY)


def workload_names() -> Tuple[str, ...]:
    """All registered workload names, sorted."""
    _ensure_registered()
    return tuple(sorted(_REGISTRY))


def get_spec(name: str) -> WorkloadSpec:
    """The spec registered under ``name`` (raises ValueError if absent)."""
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {workload_names()}") from None


def workload_specs() -> Tuple[WorkloadSpec, ...]:
    """All registered specs, sorted by name."""
    _ensure_registered()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def make_workload(name: str, num_cores: int, seed: int = 1,
                  **overrides) -> WorkloadGenerator:
    """Build a registered workload by name.

    ``overrides`` are generator-specific knobs (e.g. ``table_blocks``
    for the microbenchmark); they flow into the experiment-cell cache
    key, so distinct knob settings never collide in the result cache.
    """
    return get_spec(name).factory(num_cores=num_cores, seed=seed,
                                  **overrides)
