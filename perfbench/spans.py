"""Traced mode: class-level span wrappers around each layer's public functions.

The wrappers live only in the benchmark: :meth:`Recorder.install` swaps
each listed function on its class (or module) for a wrapper that records
a span — name, start, end, parent, op id — and :meth:`Recorder.uninstall`
puts the originals back.  They only read the clock and append to arrays,
so the simulated state they observe is untouched; the harness proves
that by comparing the traced round's deterministic metrics with an
untraced round's.

Spans are kept in flat in-memory arrays while the measured phase runs
and written out by :meth:`Recorder.dump` when the run ends.  Generator
functions are not wrapped (a wrapper would time only the generator's
creation); their iteration time counts toward whichever span consumes
them.  ``SimClock.charge_cpu`` and ``charge_background`` run several
times per op, so they are counted without spans.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Sequence

from repro.cache.policy import CachePolicy, make_policy, policy_names

#: the layers the per-layer metrics cover, in report order.
LAYERS = ("systems", "shard", "core", "art", "lsm", "diskbtree", "cache", "sim")

#: (layer, module, class or None for module functions, function names)
TARGETS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("systems", "repro.systems.art_lsm", "ArtLsmSystem",
     ("insert", "read", "scan", "delete", "put_many", "get_many", "delete_many",
      "flush", "set_memory_limit")),
    ("systems", "repro.systems.bplus_bplus", "BPlusBPlusSystem",
     ("insert", "read", "scan", "delete", "put_many", "get_many", "delete_many",
      "flush", "set_memory_limit")),
    ("shard", "repro.shard.router", "ShardRouter",
     ("insert", "read", "scan", "delete", "put_many", "get_many", "delete_many",
      "flush", "apply_budgets", "set_memory_limit")),
    ("shard", "repro.shard.rebalance", "Rebalancer", ("run_once", "drain_tick")),
    ("shard", "repro.shard.budget", "BudgetRebalancer", ("run_once",)),
    ("core", "repro.core.indexy", "IndeXY",
     ("insert", "get", "scan", "delete", "flush", "release_cycle", "set_memory_limit")),
    ("core", "repro.core.precleaner", "PreCleaner", ("run_pass",)),
    ("core", "repro.core.release", "ReleasePolicy", ("select",)),
    ("art", "repro.art.tree", "AdaptiveRadixTree",
     ("search", "insert", "delete", "scan", "subtree_memory", "clear_dirty", "detach",
      "partition", "reset_access_counts")),
    ("lsm", "repro.lsm.store", "LSMStore",
     ("put", "put_batch", "delete", "flush", "get", "scan", "resize_caches",
      "_maybe_compact")),
    ("lsm", "repro.lsm.sstable", "SSTable", ("build", "get")),
    ("lsm", "repro.lsm.bloom", "BloomFilter", ("build",)),
    ("lsm", "repro.lsm.memtable", "MemTable", ("put", "get")),
    ("diskbtree", "repro.diskbtree.tree", "DiskBPlusTree",
     ("get", "put", "delete", "scan", "flush_all")),
    ("diskbtree", "repro.diskbtree.bufferpool", "BufferPool",
     ("get_page", "new_page", "mark_dirty", "resize", "flush_all")),
    # The page codec is called through the buffer pool module's globals.
    ("diskbtree", "repro.diskbtree.bufferpool", None, ("encode_page", "decode_page")),
    ("cache", "repro.cache.bytecache", "PolicyCache", ("get", "put", "invalidate", "resize")),
    ("cache", "repro.cache.policy", "CachePolicy", ("on_insert", "on_hit", "on_remove")),
    ("sim", "repro.sim.disk", "SimDisk", ("read", "write", "allocate", "free")),
    ("sim", "repro.sim.runtime", "BackgroundScheduler", ("tick", "submit", "run_inline", "drain")),
)

#: counted, never spanned.
CHARGE_TARGETS = (("repro.sim.clock", "SimClock", ("charge_cpu", "charge_background")),)

_SCHEDULER = tuple(
    f"sim.BackgroundScheduler.{name}" for name in ("tick", "submit", "run_inline", "drain")
)

#: hot-spot metrics: (span names, "inclusive" or "self").  Inclusive time
#: counts each outermost span with everything it called; the scheduler
#: metric is self time, its own dispatch cost without the tasks it runs.
HOT_SPOTS: dict[str, tuple[tuple[str, ...], str]] = {
    "art.subtree_memory_us_per_op": (("art.AdaptiveRadixTree.subtree_memory",), "inclusive"),
    "lsm.bloom_build_us_per_op": (("lsm.BloomFilter.build",), "inclusive"),
    "diskbtree.codec_us_per_op": (("diskbtree.encode_page", "diskbtree.decode_page"), "inclusive"),
    "core.release_us_per_op": (("core.IndeXY.release_cycle",), "inclusive"),
    "core.preclean_us_per_op": (("core.PreCleaner.run_pass",), "inclusive"),
    "shard.rebalance_us_per_op": (
        ("shard.Rebalancer.run_once", "shard.Rebalancer.drain_tick"), "inclusive"),
    "shard.budget_us_per_op": (("shard.BudgetRebalancer.run_once",), "inclusive"),
    "sim.scheduler_us_per_op": (_SCHEDULER, "self"),
}


def layer_unit(metric: str) -> str:
    """The unit of a traced per-layer metric."""
    if metric.endswith("_us_per_op"):
        return "us/op"
    if metric.endswith("_per_op"):
        return "calls/op"
    if metric == "lsm.tables_per_get":
        return "tables/get"
    return "x"


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> list[int]:
    """Each span's duration minus the part of it its children cover.

    Spans must be listed in start order (the order calls begin), with
    ``parents[i]`` the index of span ``i``'s parent or -1.  Overlapping
    children are counted once, and a child sticking out of its parent
    covers only the overlap.
    """
    n = len(starts)
    covered = [0] * n
    frontier = list(starts)
    for i in range(n):
        parent = parents[i]
        if parent < 0:
            continue
        lo = max(starts[i], frontier[parent])
        hi = min(ends[i], ends[parent])
        if hi > lo:
            covered[parent] += hi - lo
            frontier[parent] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def _policy_classes() -> list[type[CachePolicy]]:
    return [type(make_policy(name)) for name in policy_names()]


class Recorder:
    """Installs the span wrappers and holds the spans they record."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.op_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.charges = 0
        #: spans and charges are recorded only while this is set.
        self.active = False
        #: the index of the benchmark op being sent.
        self.op_id = 0
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for layer, module_name, owner_name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            prefix = layer if owner_name is None else f"{layer}.{owner_name}"
            for attr in attrs:
                self._patch(owner, attr, f"{prefix}.{attr}", self._span_wrapper)
        for cls in _policy_classes():
            if "evict_candidate" in cls.__dict__:
                self._patch(cls, "evict_candidate", f"cache.{cls.__name__}.evict_candidate",
                            self._span_wrapper)
        for module_name, owner_name, attrs in CHARGE_TARGETS:
            owner = getattr(importlib.import_module(module_name), owner_name)
            for attr in attrs:
                self._patch(owner, attr, attr, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        make: Callable[[Callable[..., Any], str], Callable[..., Any]],
    ) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(make(raw.__func__, name))
        else:
            wrapped = make(raw, name)
        self._originals.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _span_wrapper(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        name_id = len(self.names)
        self.names.append(name)
        rec = self
        stack = self._stack
        name_ids, parents, op_ids = self.name_ids, self.parents, self.op_ids
        starts, ends = self.starts, self.ends

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not rec.active:
                return fn(*args, **kwargs)
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(rec.op_id)
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if rec.active:
                rec.charges += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ----------------------------------------------------------
    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer self time, call counts and hot-spot times per op."""
        selfs = self_times(self.starts, self.ends, self.parents)
        names = self.names
        layer_of = [name.split(".", 1)[0] for name in names]
        self_ns = dict.fromkeys(LAYERS, 0)
        calls = dict.fromkeys(LAYERS, 0)
        per_name_calls = [0] * len(names)
        per_name_self = [0] * len(names)
        for name_id, own in zip(self.name_ids, selfs):
            per_name_calls[name_id] += 1
            per_name_self[name_id] += own
        for name_id, layer in enumerate(layer_of):
            self_ns[layer] += per_name_self[name_id]
            calls[layer] += per_name_calls[name_id]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_us_per_op"] = self_ns[layer] / 1e3 / ops
            out[f"{layer}.calls_per_op"] = calls[layer] / ops
        ids = {name: i for i, name in enumerate(names)}
        for metric, (span_names, mode) in HOT_SPOTS.items():
            wanted = {ids[name] for name in span_names}
            if mode == "self":
                total = sum(per_name_self[i] for i in wanted)
            else:
                total = self._outermost_ns(wanted)
            out[metric] = total / 1e3 / ops
        gets = per_name_calls[ids["lsm.LSMStore.get"]]
        out["lsm.tables_per_get"] = per_name_calls[ids["lsm.SSTable.get"]] / gets if gets else 0.0
        out["sim.charges_per_op"] = self.charges / ops
        return out

    def _outermost_ns(self, wanted: set[int]) -> int:
        """Total duration of ``wanted`` spans not nested in another one."""
        name_ids, parents = self.name_ids, self.parents
        total = 0
        for i, name_id in enumerate(name_ids):
            if name_id not in wanted:
                continue
            parent = parents[i]
            while parent >= 0 and name_ids[parent] not in wanted:
                parent = parents[parent]
            if parent < 0:
                total += self.ends[i] - self.starts[i]
        return total

    def dump(self, directory: Path, stem: str) -> Path:
        """Write the spans as ``<stem>.json`` (header) and ``<stem>.bin``."""
        directory.mkdir(parents=True, exist_ok=True)
        arrays = (
            ("name_id", self.name_ids),
            ("parent", self.parents),
            ("op_id", self.op_ids),
            ("start_ns", self.starts),
            ("end_ns", self.ends),
        )
        header = {
            "spans": len(self.starts),
            "names": self.names,
            "columns": [[label, data.typecode, data.itemsize] for label, data in arrays],
            "layout": "columns back to back, native byte order",
        }
        (directory / f"{stem}.json").write_text(json.dumps(header, indent=1))
        path = directory / f"{stem}.bin"
        with path.open("wb") as out:
            for __, data in arrays:
                data.tofile(out)
        return path
