"""Counter snapshots and the deterministic metrics derived from them.

Every count here is read from the program's own accounts — each
engine's simulated clock, disk, stats bus and caches, plus the router's
stats bus — at the start and at the end of each measured segment.  None
of them depends on wall time, so for a fixed seed they repeat exactly.
"""

from __future__ import annotations

import math
from typing import Any

from repro.diskbtree.tree import DiskBPlusTree
from repro.lsm.store import LSMStore
from repro.shard.router import ShardRouter
from repro.systems.base import KVSystem

_DISK_KEYS = ("reads", "writes", "rand_writes", "bytes_read", "bytes_written")
_BUS_KEYS = (
    "ops",
    "x_hits",
    "y_hits",
    "misses",
    "release_cycles",
    "release_clean_drops",
    "release_writebacks",
    "release_lock_stall_ns",
    "preclean_candidates",
    "preclean_cleanings",
    "preclean_keys_written",
)
_ROUTER_KEYS = ("rebalance_migrations_started", "rebalance_keys_moved", "budget_resplits")
#: worker threads of the paper's thread model, for ``sim_kops``.
SIM_THREADS = 4

#: per-layer count metrics and their units, in report order.
COUNT_UNITS: dict[str, str] = {
    "sim.cpu_ns_per_op": "ns/op",
    "sim.background_ns_per_op": "ns/op",
    "sim.disk_busy_ns_per_op": "ns/op",
    "sim.disk_reads_per_op": "count/op",
    "sim.disk_writes_per_op": "count/op",
    "sim.rand_write_share": "ratio",
    "sim.inline_fallback_share": "ratio",
    "core.x_hit_ratio": "ratio",
    "core.y_hits_per_op": "count/op",
    "core.release_cycles": "count",
    "core.release_clean_ratio": "ratio",
    "core.release_stall_ns_per_op": "ns/op",
    "core.preclean_useful_ratio": "ratio",
    "core.preclean_keys_written_per_op": "count/op",
    "lsm.flushes": "count",
    "lsm.compactions": "count",
    "lsm.compaction_bytes_per_user_byte": "B/B",
    "cache.block_hit_ratio": "ratio",
    "cache.row_hit_ratio": "ratio",
    "cache.pool_hit_ratio": "ratio",
    "cache.evictions_per_op": "count/op",
    "diskbtree.writebacks_per_op": "count/op",
    "diskbtree.leaf_splits": "count",
    "shard.migrations": "count",
    "shard.keys_moved_per_op": "count/op",
    "shard.budget_resplits": "count",
    "shard.op_imbalance": "x",
    "shard.busy_imbalance": "x",
}

#: the deterministic end-to-end metrics and their units.
SIM_UNITS: dict[str, str] = {
    "sim_kops": "kop/sim_s",
    "sim_write_amp": "B/B",
    "sim_read_bytes_per_op": "B/op",
    "sim_space_amp": "B/B",
}


def engines(system: KVSystem) -> list[KVSystem]:
    """The engines holding simulated accounts (a router's shards)."""
    if isinstance(system, ShardRouter):
        return list(system.shards)
    return [system]


def _engine_counters(engine: KVSystem) -> dict[str, float]:
    out: dict[str, float] = {
        "cpu_ns": engine.clock.cpu_ns,
        "background_ns": engine.clock.background_ns,
        "disk_busy_ns": engine.disk.busy_ns,
    }
    disk_stats = engine.disk.stats
    for key in _DISK_KEYS:
        out[f"disk_{key}"] = disk_stats[key]
    bus = engine.stats
    for key in _BUS_KEYS:
        out[key] = bus[key]
    runs = inline = 0.0
    for name in bus:
        if name.startswith("task_"):
            if name.endswith("_runs"):
                runs += bus[name]
            elif name.endswith("_inline"):
                inline += bus[name]
    out["task_runs"] = runs
    out["task_inline"] = inline
    index = getattr(engine, "index", None)
    store = getattr(index, "y", None)
    if isinstance(store, LSMStore):
        out["lsm_flushes"] = store.stats["flushes"]
        out["lsm_compactions"] = store.stats["compactions"]
        out["lsm_compaction_bytes"] = store.stats["compaction_bytes_written"]
        for label, cache in (("block", store.block_cache), ("row", store.row_cache)):
            if cache is not None:
                out[f"{label}_hits"] = cache.hits
                out[f"{label}_misses"] = cache.misses
                out[f"{label}_evictions"] = cache.evictions
    tree = getattr(engine, "tree", None)
    if isinstance(tree, DiskBPlusTree):
        pool_stats = tree.pool.stats
        out["pool_hits"] = pool_stats["pool_hits"]
        out["pool_misses"] = pool_stats["pool_misses"]
        out["pool_evictions"] = pool_stats["evictions"]
        out["pool_writebacks"] = pool_stats["writebacks"]
        out["leaf_splits"] = tree.stats["leaf_splits"]
    return out


def snapshot(system: KVSystem) -> dict[str, Any]:
    """Every account the metrics are derived from, at one instant."""
    router: dict[str, float] = {}
    if isinstance(system, ShardRouter):
        bus = system.runtime.stats
        router = {key: bus[key] for key in _ROUTER_KEYS}
    return {
        "engines": [_engine_counters(engine) for engine in engines(system)],
        "router": router,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(
    system: KVSystem,
    windows: list[tuple[dict[str, Any], dict[str, Any]]],
    ops: int,
    user_bytes_written: int,
    lifetime_user_bytes: int,
    live_user_bytes: int,
) -> tuple[dict[str, float], dict[str, float]]:
    """(sim_* end-to-end metrics, per-layer count metrics) of a phase.

    ``windows`` are the (before, after) snapshots around each measured
    segment; ``ops`` and ``user_bytes_written`` cover the segments
    together.  Write amplification is taken over the system's whole
    life (load included, ``lifetime_user_bytes``), because one
    compaction more or less inside a short window would swing it.
    """
    per_engine: list[dict[str, float]] = [{} for __ in windows[0][1]["engines"]]
    router: dict[str, float] = dict.fromkeys(_ROUTER_KEYS, 0)
    for before, after in windows:
        if len(before["engines"]) != len(per_engine) or len(after["engines"]) != len(per_engine):
            raise RuntimeError("the fleet changed size during the measured phase")
        for acc, start, end in zip(per_engine, before["engines"], after["engines"], strict=True):
            for key, value in end.items():
                acc[key] = acc.get(key, 0) + value - start.get(key, 0)
        for key in router:
            router[key] += after["router"].get(key, 0) - before["router"].get(key, 0)
    total: dict[str, float] = {}
    for delta in per_engine:
        for key, value in delta.items():
            total[key] = total.get(key, 0) + value
    t = total.get
    # Shards run side by side, so the slowest one bounds the fleet.
    elapsed = [
        engine.thread_model.elapsed_ns(
            d["cpu_ns"], d["background_ns"], d["disk_busy_ns"], SIM_THREADS
        )
        for engine, d in zip(engines(system), per_engine, strict=True)
    ]
    final = windows[-1][1]["engines"]
    disk_used = sum(engine.disk.used_bytes for engine in engines(system))
    sim = {
        "sim_kops": _ratio(ops, max(elapsed)) * 1e6,
        "sim_write_amp": _ratio(
            sum(e["disk_bytes_written"] for e in final), lifetime_user_bytes
        ),
        "sim_read_bytes_per_op": _ratio(t("disk_bytes_read", 0), ops),
        "sim_space_amp": _ratio(disk_used, live_user_bytes),
    }
    shard_ops = [d["ops"] for d in per_engine]
    reads = t("x_hits", 0) + t("y_hits", 0) + t("misses", 0)
    evictions = t("block_evictions", 0) + t("row_evictions", 0) + t("pool_evictions", 0)
    counts = {
        "sim.cpu_ns_per_op": _ratio(t("cpu_ns", 0), ops),
        "sim.background_ns_per_op": _ratio(t("background_ns", 0), ops),
        "sim.disk_busy_ns_per_op": _ratio(t("disk_busy_ns", 0), ops),
        "sim.disk_reads_per_op": _ratio(t("disk_reads", 0), ops),
        "sim.disk_writes_per_op": _ratio(t("disk_writes", 0), ops),
        "sim.rand_write_share": _ratio(t("disk_rand_writes", 0), t("disk_writes", 0)),
        "sim.inline_fallback_share": _ratio(t("task_inline", 0), t("task_runs", 0)),
        "core.x_hit_ratio": _ratio(t("x_hits", 0), reads),
        "core.y_hits_per_op": _ratio(t("y_hits", 0), ops),
        "core.release_cycles": t("release_cycles", 0),
        "core.release_clean_ratio": _ratio(
            t("release_clean_drops", 0),
            t("release_clean_drops", 0) + t("release_writebacks", 0),
        ),
        "core.release_stall_ns_per_op": _ratio(t("release_lock_stall_ns", 0), ops),
        "core.preclean_useful_ratio": _ratio(
            t("preclean_cleanings", 0), t("preclean_candidates", 0)
        ),
        "core.preclean_keys_written_per_op": _ratio(t("preclean_keys_written", 0), ops),
        "lsm.flushes": t("lsm_flushes", 0),
        "lsm.compactions": t("lsm_compactions", 0),
        "lsm.compaction_bytes_per_user_byte": _ratio(
            t("lsm_compaction_bytes", 0), user_bytes_written
        ),
        "cache.block_hit_ratio": _ratio(
            t("block_hits", 0), t("block_hits", 0) + t("block_misses", 0)
        ),
        "cache.row_hit_ratio": _ratio(t("row_hits", 0), t("row_hits", 0) + t("row_misses", 0)),
        "cache.pool_hit_ratio": _ratio(
            t("pool_hits", 0), t("pool_hits", 0) + t("pool_misses", 0)
        ),
        "cache.evictions_per_op": _ratio(evictions, ops),
        "diskbtree.writebacks_per_op": _ratio(t("pool_writebacks", 0), ops),
        "diskbtree.leaf_splits": t("leaf_splits", 0),
        "shard.migrations": router["rebalance_migrations_started"],
        "shard.keys_moved_per_op": _ratio(router["rebalance_keys_moved"], ops),
        "shard.budget_resplits": router["budget_resplits"],
        "shard.op_imbalance": _ratio(max(shard_ops), sum(shard_ops) / len(shard_ops)),
        "shard.busy_imbalance": _ratio(max(elapsed), sum(elapsed) / len(elapsed)),
    }
    return sim, counts


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]
