"""System factory: build any registered system by name.

The registry covers the four Table-I systems, the Section III-G
``ART-Multi`` extension, and the ``Sharded`` serving layer
(:class:`~repro.shard.router.ShardRouter` — pass ``base_system=`` and
``shards=`` through ``kwargs`` to configure it).  Unknown names fail
with the full list of registered systems, so a typo in an experiment
spec reads as a one-line fix instead of a bare ``KeyError``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.config import CachePolicyConfig
from repro.sim.costs import CostModel
from repro.sim.threads import ThreadModel
from repro.systems.art_bplus import ArtBPlusSystem
from repro.systems.art_lsm import ArtLsmSystem
from repro.systems.art_multi import ArtMultiYSystem
from repro.systems.base import KVSystem
from repro.systems.bplus_bplus import BPlusBPlusSystem
from repro.systems.rocksdb_like import RocksDbLikeSystem

#: the four Table-I systems the paper's experiments iterate over;
#: :func:`build_system` additionally accepts everything in the registry.
SYSTEM_NAMES = ("ART-LSM", "ART-B+", "B+-B+", "RocksDB")

_Builder = Callable[..., KVSystem]


def _build_art_lsm(
    memory_limit_bytes: int,
    page_size: int,
    costs: CostModel | None,
    thread_model: ThreadModel | None,
    **kwargs: Any,
) -> KVSystem:
    return ArtLsmSystem(memory_limit_bytes, costs=costs, thread_model=thread_model, **kwargs)


def _build_art_bplus(
    memory_limit_bytes: int,
    page_size: int,
    costs: CostModel | None,
    thread_model: ThreadModel | None,
    **kwargs: Any,
) -> KVSystem:
    return ArtBPlusSystem(
        memory_limit_bytes,
        page_size=page_size,
        costs=costs,
        thread_model=thread_model,
        **kwargs,
    )


def _build_bplus_bplus(
    memory_limit_bytes: int,
    page_size: int,
    costs: CostModel | None,
    thread_model: ThreadModel | None,
    **kwargs: Any,
) -> KVSystem:
    return BPlusBPlusSystem(
        memory_limit_bytes,
        page_size=page_size,
        costs=costs,
        thread_model=thread_model,
        **kwargs,
    )


def _build_rocksdb(
    memory_limit_bytes: int,
    page_size: int,
    costs: CostModel | None,
    thread_model: ThreadModel | None,
    **kwargs: Any,
) -> KVSystem:
    return RocksDbLikeSystem(memory_limit_bytes, costs=costs, thread_model=thread_model, **kwargs)


def _build_art_multi(
    memory_limit_bytes: int,
    page_size: int,
    costs: CostModel | None,
    thread_model: ThreadModel | None,
    **kwargs: Any,
) -> KVSystem:
    return ArtMultiYSystem(
        memory_limit_bytes,
        page_size=page_size,
        costs=costs,
        thread_model=thread_model,
        **kwargs,
    )


def _build_sharded(
    memory_limit_bytes: int,
    page_size: int,
    costs: CostModel | None,
    thread_model: ThreadModel | None,
    **kwargs: Any,
) -> KVSystem:
    # Deferred import: the router builds its shards through this factory,
    # so a module-level import either way would be circular.
    from repro.shard.router import ShardRouter

    # perfbench/workloads.py still passes ``workers=0``; shard dispatch
    # is always serial, so any other value is an error.
    workers = kwargs.pop("workers", 0)
    if workers:
        raise ValueError(f"shard dispatch is serial; workers={workers} is not supported")

    return ShardRouter(
        memory_limit_bytes=memory_limit_bytes,
        page_size=page_size,
        costs=costs,
        thread_model=thread_model,
        **kwargs,
    )


_REGISTRY: dict[str, _Builder] = {
    "ART-LSM": _build_art_lsm,
    "ART-B+": _build_art_bplus,
    "B+-B+": _build_bplus_bplus,
    "RocksDB": _build_rocksdb,
    "ART-Multi": _build_art_multi,
    "Sharded": _build_sharded,
}

#: the cache layers each system actually builds: a spec naming any other
#: layer is a no-op knob, so :func:`parse_system_spec` rejects it with
#: this list instead of silently ignoring it.  ``Sharded`` forwards its
#: policies to whatever base system the shards run, so it accepts all.
_SYSTEM_LAYERS: dict[str, tuple[str, ...]] = {
    "ART-LSM": ("block", "row"),
    "ART-B+": ("pool",),
    "B+-B+": ("pool",),
    "RocksDB": ("block", "row"),
    "ART-Multi": ("pool", "block", "row"),
    "Sharded": ("pool", "block", "row"),
}


def registered_systems() -> tuple[str, ...]:
    """Every name :func:`build_system` accepts, in registration order."""
    return tuple(_REGISTRY)


#: ``Sharded``-only spec knobs routed to router keyword arguments rather
#: than cache-policy layers: elastic resharding and the heat-proportional
#: budget layer.
_ROUTER_SPEC_KNOBS = ("rebalance", "budget")


def split_router_spec(spec: str) -> tuple[str, dict[str, str]]:
    """Split router-knob parts (``rebalance=``, ``budget=``) out of a spec.

    ``Sharded@rebalance=on``, ``Sharded@budget=floor:0.1`` and
    ``Sharded@block=s3fifo,rebalance=threshold:1.3,budget=on`` all route
    their knob values (the :class:`~repro.core.config.KnobConfig`
    grammar of :class:`~repro.shard.rebalance.RebalanceConfig` and
    :class:`~repro.shard.budget.BudgetConfig`) to the matching
    router keyword argument; the remaining parts stay a normal
    cache-policy spec.  Only ``Sharded`` accepts these knobs — they name
    router mechanisms no single-engine system has.
    """
    name, sep, params = spec.partition("@")
    if not sep:
        return spec, {}
    kept: list[str] = []
    knobs: dict[str, str] = {}
    for part in params.split(","):
        key, eq, value = part.partition("=")
        key = key.strip()
        if eq and key in _ROUTER_SPEC_KNOBS:
            if name != "Sharded":
                raise ValueError(
                    f"system {name!r} has no router; {key + '='!r} is a "
                    "'Sharded' spec knob"
                )
            if key in knobs:
                raise ValueError(f"{key!r} named twice in spec {spec!r}")
            knobs[key] = value.strip()
        elif part.strip():
            kept.append(part)
    remainder = name + (f"@{','.join(kept)}" if kept else "")
    return remainder, knobs


def parse_system_spec(spec: str) -> tuple[str, CachePolicyConfig | None]:
    """Split ``name@layer=policy,...`` into (name, cache policies).

    A bare name returns ``(name, None)`` unchecked (callers that build
    report unknown systems themselves).  When a policy part is present
    the system name is validated first — the layer grammar is
    per-system — and then parsed by :meth:`CachePolicyConfig.from_spec`
    restricted to the layers that system caches on, so an unknown layer
    lists the valid layers *for that system*.
    """
    name, sep, params = spec.partition("@")
    if not sep:
        return name, None
    if name not in _REGISTRY:
        known = ", ".join(registered_systems())
        raise ValueError(f"unknown system {name!r}; registered systems: {known}")
    return name, CachePolicyConfig.from_spec(
        params, layers=_SYSTEM_LAYERS[name], system=name
    )


def build_system(
    name: str,
    memory_limit_bytes: int,
    page_size: int = 4096,
    costs: CostModel | None = None,
    thread_model: ThreadModel | None = None,
    **kwargs: Any,
) -> KVSystem:
    """Construct a configured system.

    ``memory_limit_bytes`` is the total memory budget of the run (the
    paper's 5 GB / 30 GB limits, scaled; the ``Sharded`` system divides
    it equally over its shards).  ``page_size`` applies to the
    page-based structures only (Table II / Figure 10 sweeps).

    ``name`` accepts cache-policy specs like ``ART-LSM@block=s3fifo`` or
    ``B+-B+@pool=mglru``; the part after ``@`` selects per-layer eviction
    policies (equivalent to passing ``cache_policies=``, which must not
    be given alongside a spec).  ``Sharded`` specs additionally accept a
    ``rebalance=`` part (e.g. ``Sharded@rebalance=on`` or
    ``Sharded@rebalance=threshold:1.3+interval:128``) that configures
    the router's elastic-resharding layer, and a ``budget=`` part (e.g.
    ``Sharded@budget=on`` or ``Sharded@budget=floor:0.1+interval:256``)
    that configures its heat-proportional budget layer — each equivalent
    to passing the keyword directly, which must not be given alongside
    the spec form.
    """
    name, router_knobs = split_router_spec(name)
    for knob, spec_value in router_knobs.items():
        if kwargs.get(knob) is not None:
            raise ValueError(
                f"system spec already selects a {knob} config; "
                f"drop the explicit {knob} argument"
            )
        kwargs[knob] = spec_value
    name, spec_policies = parse_system_spec(name)
    if spec_policies is not None:
        if kwargs.get("cache_policies") is not None:
            raise ValueError(
                f"system spec {name!r} already selects cache policies; "
                "drop the explicit cache_policies argument"
            )
        kwargs["cache_policies"] = spec_policies
    builder = _REGISTRY.get(name)
    if builder is None:
        known = ", ".join(registered_systems())
        raise ValueError(f"unknown system {name!r}; registered systems: {known}")
    return builder(memory_limit_bytes, page_size, costs, thread_model, **kwargs)
