"""``ShardRouter``: N independent IndeXY engines behind one KV front-end.

The first multi-engine layer of the codebase.  The router partitions the
integer key space over ``shards`` fully independent
:class:`~repro.systems.base.KVSystem` instances (any factory-buildable
system) and routes operations by partition:

* ``insert``/``read``/``delete``/``scan`` go straight to the owning
  shard — no router-side locks, queues, or counters on the data path;
* ``put_many``/``get_many``/``delete_many`` are split into per-shard
  sub-batches in one pass, then each non-empty sub-batch goes to its
  shard's own batched verb, one shard after another;
* ``scan`` results from the consulted shards are k-way merged with
  :func:`heapq.merge` (each key lives on exactly one shard, so the merge
  needs no duplicate resolution).

Every shard keeps its own :class:`~repro.sim.runtime.EngineRuntime` —
its own clock, disk, stats bus, memory budget, pre-cleaner, and Index Y
— so all of the paper's mechanisms (pre-cleaning, subtree release,
migration, compaction) operate per shard exactly as in the single-engine
systems; sharding multiplies them without changing them.  The router
itself holds no simulated substrate: its inherited runtime stays at zero
and :meth:`snapshot` aggregates across shards.

Elastic resharding (``rebalance=``, DESIGN.md §11): with a weighted
range partitioner the router tracks per-shard heat and registers a
:class:`~repro.shard.rebalance.Rebalancer` as a paced task on its own
(otherwise dormant) background scheduler.  While a key-range migration
is in flight the data path is migration-aware: reads of the in-flight
range double-read (destination first, then the source for keys not yet
copied), deletes apply to both shards so the double-read cannot
resurrect a deleted key, and scans merge the source's leftovers with
destination priority.  Migration and heat bookkeeping run between
shard calls, never inside one.

Dispatch is serial: the paper's worker threads are modelled in
simulated time by per-shard clocks and
:class:`~repro.sim.threads.ThreadModel`, and real threads buy no
wall-clock time under the GIL.
"""

from __future__ import annotations

from heapq import merge as heapq_merge
from operator import itemgetter
from typing import Any, Iterable, Optional, Sequence

from repro.art.keys import decode_int
from repro.core.membudget import proportional_split
from repro.shard.budget import BudgetConfig, BudgetRebalancer
from repro.shard.heat import ShardHeat
from repro.shard.partition import (
    Partitioner,
    WeightedRangePartitioner,
    make_partitioner,
)
from repro.shard.rebalance import RangeMigration, RebalanceConfig, Rebalancer
from repro.sim.costs import CostModel
from repro.sim.effects import charges
from repro.sim.threads import ThreadModel
from repro.systems.base import KVSystem, Snapshot

__all__ = ["ShardRouter"]


class ShardRouter(KVSystem):
    """Partitioned serving layer over ``shards`` independent engines.

    ``memory_limit_bytes`` is the *total* budget; each shard receives an
    equal slice, so shard counts are compared at constant total memory.
    """

    name = "Sharded"

    def __init__(
        self,
        base_system: str = "ART-LSM",
        shards: int = 4,
        memory_limit_bytes: int = 1 << 20,
        *,
        partitioner: str | Partitioner = "hash",
        key_space: int = 1 << 40,
        page_size: int = 4096,
        costs: CostModel | None = None,
        thread_model: ThreadModel | None = None,
        debug_checks: bool | None = None,
        rebalance: RebalanceConfig | str | bool | None = None,
        budget: BudgetConfig | str | bool | None = None,
        **system_kwargs: Any,
    ) -> None:
        # The inherited runtime is dormant bookkeeping only: the router
        # charges nothing itself; every simulated account lives on a shard.
        super().__init__(costs, thread_model)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.base_system = base_system
        self.partitioner: Partitioner = (
            make_partitioner(partitioner, shards, key_space)
            if isinstance(partitioner, str)
            else partitioner
        )
        if self.partitioner.shards != shards:
            raise ValueError(
                f"partitioner covers {self.partitioner.shards} shards, "
                f"router was asked for {shards}"
            )
        if debug_checks is None:
            from repro.check.flags import sanitize_enabled

            debug_checks = sanitize_enabled()
        # Shard construction goes through the factory; splits rebuild
        # engines with the exact same recipe, so the arguments are kept.
        self._shard_recipe: dict[str, Any] = dict(
            page_size=page_size,
            costs=costs,
            thread_model=thread_model,
            debug_checks=debug_checks,
            **system_kwargs,
        )
        per_shard = max(1, memory_limit_bytes // shards)
        self.shards: list[KVSystem] = [
            self._build_shard(per_shard) for __ in range(shards)
        ]
        self.name = f"Sharded-{base_system}x{shards}"
        # Budget pool: the equal split is the opening book; the budget
        # rebalancer (and shard splits/merges) re-partition this total,
        # and ``sum(shard_budgets) == total_memory_limit`` always holds.
        # ``budget_floor`` is the structural per-shard minimum — two
        # buffer-pool pages, the smallest budget every registered system
        # can be resized to.
        self.total_memory_limit = per_shard * shards
        self.shard_budgets: list[int] = [per_shard] * shards
        self.budget_floor = 2 * page_size
        # Elastic resharding state: heat ledger, in-flight migration,
        # pending merge retire, and the paced maintenance tasks.
        self.heat: ShardHeat | None = None
        self.migration: RangeMigration | None = None
        self.retiring: int | None = None
        self.rebalancer: Rebalancer | None = None
        self.budgeter: BudgetRebalancer | None = None
        #: structural fleet changes since last drained by the harness:
        #: ("split", sid) after shard ``sid`` split (new shard at
        #: ``sid + 1``), ("merge", sid) after shard ``sid`` retired into
        #: ``sid - 1``.  Callers tracking per-shard state pop these.
        self.fleet_events: list[tuple[str, int]] = []
        config = RebalanceConfig.coerce(rebalance)
        budget_config = BudgetConfig.coerce(budget)
        if config is not None or budget_config is not None:
            heat_decay = config.decay if config is not None else 0.5
            heat_samples = config.sample_size if config is not None else 64
            self.heat = ShardHeat(shards, decay=heat_decay, sample_size=heat_samples)
        if config is not None:
            if not isinstance(self.partitioner, WeightedRangePartitioner):
                raise ValueError(
                    "rebalancing needs movable range boundaries; pass "
                    "partitioner='weighted' (got "
                    f"{type(self.partitioner).__name__})"
                )
            self.rebalancer = Rebalancer(self, config)
            self.runtime.scheduler.register(
                "rebalance",
                self.rebalancer.run_once,
                pacing_interval_ops=config.interval_ops,
                periodic=True,
            )
            # Draining paces much tighter than planning: while a range
            # is in flight its hot keys double-read and couple two
            # engines, so the window must close in many small steps.
            self.runtime.scheduler.register(
                "rebalance_drain",
                self.rebalancer.drain_tick,
                pacing_interval_ops=config.drain_interval_ops,
                periodic=True,
            )
        if budget_config is not None:
            # With no rebalancer registered the budget task is the only
            # heat consumer and therefore owns the per-round decay.
            self.budgeter = BudgetRebalancer(
                self, budget_config, owns_decay=config is None
            )
            self.runtime.scheduler.register(
                "budget",
                self.budgeter.run_once,
                pacing_interval_ops=budget_config.interval_ops,
                periodic=True,
            )
        self.sanitizer: Optional[Any] = None
        if debug_checks:
            from repro.check.sanitizer import ShardSanitizer

            self.sanitizer = ShardSanitizer(self)

    def _build_shard(self, memory_limit_bytes: int) -> KVSystem:
        """Build one shard engine from the stored construction recipe."""
        # Deferred import: the factory registers this class by name, so a
        # module-level import either way would be circular.
        from repro.systems.factory import build_system

        return build_system(
            self.base_system,
            memory_limit_bytes=memory_limit_bytes,
            **self._shard_recipe,
        )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # single operations: route to the owning shard; while a migration is
    # in flight the in-flight range double-reads (dst first, then src)
    # and deletes on both shards (so the double-read cannot resurrect)
    # ------------------------------------------------------------------
    def _after_single(self, sid: int, key: int) -> None:
        """Bookkeeping after one routed operation."""
        if self.heat is not None:
            self.heat.note(sid, key)
            self.runtime.scheduler.tick(1)
        if self.sanitizer is not None:
            self.sanitizer.after_op()

    def insert(self, key: int, value: bytes) -> None:
        sid = self.partitioner.shard_of(key)
        self.shards[sid].insert(key, value)
        self._after_single(sid, key)

    # cpu_charge '+' covers the deliberate double read during a live
    # migration: a dst-shard miss inside the migrating range retries on
    # the src shard, charging a second full read (DESIGN.md §11).
    @charges("cpu_charge+", "bg_charge*", "disk_read*", "disk_write*")
    def read(self, key: int) -> Optional[bytes]:
        sid = self.partitioner.shard_of(key)
        value = self.shards[sid].read(key)
        if value is None:
            migration = self.migration
            if migration is not None and sid == migration.dst and migration.covers(key):
                value = self.shards[migration.src].read(key)
        self._after_single(sid, key)
        return value

    def delete(self, key: int) -> bool:
        sid = self.partitioner.shard_of(key)
        present = self.shards[sid].delete(key)
        migration = self.migration
        if migration is not None and sid == migration.dst and migration.covers(key):
            present = self.shards[migration.src].delete(key) or present
        self._after_single(sid, key)
        return present

    # ------------------------------------------------------------------
    # batched operations: partition once, one call per non-empty shard
    # ------------------------------------------------------------------
    def _after_batch(self, sizes: list[int]) -> None:
        """Bookkeeping after one batched operation."""
        total = sum(sizes)
        if self.heat is not None:
            self.heat.note_batch(sizes)
            self.runtime.scheduler.tick(total)
        if self.sanitizer is not None:
            self.sanitizer.after_batch(total)

    def put_many(self, keys: Iterable[int], value: bytes) -> None:
        batches = self.partitioner.split(keys)
        shards = self.shards
        for sid, batch in enumerate(batches):
            if batch:
                shards[sid].put_many(batch, value)
        self._after_batch([len(batch) for batch in batches])

    def get_many(self, keys: Iterable[int]) -> list[Optional[bytes]]:
        key_list = list(keys)
        batches, positions = self.partitioner.split_indexed(key_list)
        shards = self.shards
        # Scatter per-shard results back to batch positions.
        out: list[Optional[bytes]] = [None] * len(key_list)
        for sid, batch in enumerate(batches):
            if batch:
                values = shards[sid].get_many(batch)
                for i, value in zip(positions[sid], values, strict=True):
                    out[i] = value
        migration = self.migration
        if migration is not None:
            self._backfill_in_flight(key_list, out, migration)
        self._after_batch([len(batch) for batch in batches])
        return out

    def _backfill_in_flight(
        self,
        keys: list[int],
        out: list[Optional[bytes]],
        migration: RangeMigration,
    ) -> None:
        """Second read of in-flight misses against the migration source.

        Runs after the scatter: keys in the in-flight range route to the
        destination, but ones not yet copied still live on the source.
        """
        covers = migration.covers
        missing = [
            i
            for i, (key, value) in enumerate(zip(keys, out))
            if value is None and covers(key)
        ]
        if not missing:
            return
        src_values = self.shards[migration.src].get_many([keys[i] for i in missing])
        for i, value in zip(missing, src_values, strict=True):
            out[i] = value

    def delete_many(self, keys: Iterable[int]) -> list[bool]:
        key_list = list(keys)
        batches, positions = self.partitioner.split_indexed(key_list)
        shards = self.shards
        out: list[bool] = [False] * len(key_list)
        for sid, batch in enumerate(batches):
            if batch:
                flags = shards[sid].delete_many(batch)
                for i, flag in zip(positions[sid], flags, strict=True):
                    out[i] = flag
        migration = self.migration
        if migration is not None:
            # Deletes of the in-flight range must reach the source copy
            # too, or the double-read would resurrect the key.
            covers = migration.covers
            in_flight = [i for i, key in enumerate(key_list) if covers(key)]
            if in_flight:
                src_flags = self.shards[migration.src].delete_many(
                    [key_list[i] for i in in_flight]
                )
                for i, flag in zip(in_flight, src_flags, strict=True):
                    out[i] = out[i] or flag
        self._after_batch([len(batch) for batch in batches])
        return out

    # ------------------------------------------------------------------
    # range scans: per-shard scans, k-way merge
    # ------------------------------------------------------------------
    def scan(self, key: int, count: int) -> list[tuple[bytes, bytes]]:
        migration = self.migration
        if migration is not None:
            result = self._scan_migrating(key, count, migration)
            if self.sanitizer is not None:
                self.sanitizer.after_op()
            return result
        shards = self.shards
        consult = self.partitioner.scan_shard_ids(key)
        if self.partitioner.ordered:
            # Contiguous placement: shard id order is key order, so walk
            # forward and stop as soon as the scan is satisfied.
            out: list[tuple[bytes, bytes]] = []
            for sid in consult:
                out.extend(shards[sid].scan(key, count - len(out)))
                if len(out) >= count:
                    break
            result = out[:count]
        else:
            per_shard = [shards[sid].scan(key, count) for sid in consult]
            merged = heapq_merge(*per_shard, key=itemgetter(0))
            result = [pair for pair, __ in zip(merged, range(count))]
        if self.sanitizer is not None:
            self.sanitizer.after_op()
        return result

    def _scan_migrating(
        self, key: int, count: int, migration: RangeMigration
    ) -> list[tuple[bytes, bytes]]:
        """Range scan while a migration is in flight.

        The in-flight range is double-resident: un-copied keys live only
        on the source, and a key freshly written to the destination may
        still have a stale twin on the source.  The early-exit walk is
        therefore unsound mid-migration; instead every consulted shard
        (plus the source, which physically holds in-flight keys the
        routing table no longer maps to it) is scanned and merged with
        destination priority — the source stream is folded in first so
        any other shard's entry for the same key overwrites it.
        """
        shards = self.shards
        consult = self.partitioner.scan_shard_ids(key)
        others = [sid for sid in consult if sid != migration.src]
        merged: dict[bytes, bytes] = dict(shards[migration.src].scan(key, count))
        streams = [shards[sid].scan(key, count) for sid in others]
        for pairs in streams:
            merged.update(pairs)
        return [(k, merged[k]) for k in sorted(merged)[:count]]

    # ------------------------------------------------------------------
    # elastic-resharding seams (serving harness / tests)
    # ------------------------------------------------------------------
    def note_heat(
        self, sid: int, key: int, service_ns: float = 0.0, queue_ns: float = 0.0
    ) -> None:
        """Feed externally measured load into the heat ledger.

        The serving harness drives shard engines directly (it owns the
        queueing model), so it reports per-request service and queueing
        time here instead of through the router's own op hooks.
        """
        if self.heat is not None:
            self.heat.note(sid, key, service_ns, queue_ns)

    def maintenance_tick(self, ops: int = 1) -> None:
        """Advance the router's background pacing clock by ``ops``.

        The rebalancer runs (plans or advances a migration) when its
        pacing interval elapses.
        """
        self.runtime.scheduler.tick(ops)

    # ------------------------------------------------------------------
    # budget pool: live re-splitting of the total memory limit
    # ------------------------------------------------------------------
    def apply_budgets(self, targets: Sequence[int]) -> None:
        """Re-partition the budget pool to ``targets`` (bytes per shard).

        The targets must cover every shard and sum to exactly the pool
        total — budget moves between shards, it is never created or
        destroyed.  Each changed shard is resized through its live
        ``set_memory_limit`` seam, so cache contents survive and shrinks
        evict through the policy.
        """
        targets = list(targets)
        if len(targets) != self.num_shards:
            raise ValueError(
                f"got {len(targets)} budget targets for {self.num_shards} shards"
            )
        if sum(targets) != self.total_memory_limit:
            raise ValueError(
                f"budget targets sum to {sum(targets)}, "
                f"pool holds {self.total_memory_limit}"
            )
        shards = self.shards
        budgets = self.shard_budgets
        for sid, target in enumerate(targets):
            if target < 1:
                raise ValueError(f"shard {sid} budget must be >= 1, got {target}")
            if target != budgets[sid]:
                shards[sid].set_memory_limit(target)
                budgets[sid] = target

    def set_memory_limit(self, memory_limit_bytes: int) -> None:
        """Grow or shrink the *total* pool, preserving current ratios.

        The new total is split proportionally to the budgets the fleet
        holds right now (heat already shaped those), floored at the
        structural per-shard minimum.
        """
        targets = proportional_split(
            memory_limit_bytes,
            [float(b) for b in self.shard_budgets],
            self.budget_floor,
        )
        self.total_memory_limit = memory_limit_bytes
        self.apply_budgets(targets)

    # ------------------------------------------------------------------
    # fleet elasticity: true shard splits and merges
    # ------------------------------------------------------------------
    def begin_split(self, sid: int, split_key: int) -> None:
        """Split shard ``sid`` at ``split_key``: grow the fleet by one.

        A fresh engine is built (index ``sid + 1``) with half the source
        shard's budget, the routing table gains the boundary, and the
        upper half ``[split_key, hi)`` drains through the normal
        migration path — the split is a migration whose destination
        happens to be brand new.  Descriptor-publish-then-boundary-swap
        ordering matches the rebalancer: once the table routes a key to
        the new shard, the migration descriptor is already in place, so
        the double-read covers keys not yet copied.
        """
        partitioner = self.partitioner
        if not isinstance(partitioner, WeightedRangePartitioner):
            raise ValueError("shard splits need a weighted range partitioner")
        if self.migration is not None or self.retiring is not None:
            raise RuntimeError("cannot split while a migration or merge is in flight")
        bounds = partitioner.boundaries
        lo, hi = bounds[sid], bounds[sid + 1]
        if not lo < split_key < hi:
            raise ValueError(
                f"split key {split_key} outside shard {sid}'s open range ({lo}, {hi})"
            )
        budgets = self.shard_budgets
        if budgets[sid] < 2 * self.budget_floor:
            raise ValueError(
                f"shard {sid} budget {budgets[sid]} cannot fund two shards "
                f"of >= {self.budget_floor} bytes"
            )
        give = budgets[sid] // 2
        keep = budgets[sid] - give
        engine = self._build_shard(give)
        self.shards.insert(sid + 1, engine)
        budgets[sid] = keep
        budgets.insert(sid + 1, give)
        self.shards[sid].set_memory_limit(keep)
        # Publish the drain descriptor *before* the boundary swap: from
        # the swap on, keys in [split_key, hi) route to the new shard,
        # and the descriptor makes those reads fall back to the source.
        self.migration = RangeMigration(src=sid, dst=sid + 1, lo=split_key, hi=hi)
        partitioner.split_shard(sid, split_key)
        self._after_fleet_change("split", sid)

    def begin_merge(self, sid: int) -> None:
        """Retire shard ``sid`` into its left neighbour ``sid - 1``.

        The bulk of the range ``[lo, hi - 1)`` drains through the normal
        migration path after the boundary swap hands it to the
        neighbour; a one-key sliver ``[hi - 1, hi)`` stays behind so the
        boundary table remains strictly increasing mid-drain, and
        :meth:`finish_merge` folds it in when the drain completes.
        """
        partitioner = self.partitioner
        if not isinstance(partitioner, WeightedRangePartitioner):
            raise ValueError("shard merges need a weighted range partitioner")
        if self.migration is not None or self.retiring is not None:
            raise RuntimeError("cannot merge while a migration or merge is in flight")
        if not 0 < sid < self.num_shards:
            raise ValueError(
                f"merge retires a shard into its left neighbour; "
                f"sid must be in [1, {self.num_shards}), got {sid}"
            )
        bounds = partitioner.boundaries
        lo, hi = bounds[sid], bounds[sid + 1]
        self.retiring = sid
        if hi - lo >= 2:
            self.migration = RangeMigration(src=sid, dst=sid - 1, lo=lo, hi=hi - 1)
            partitioner.move_boundary(sid, hi - 1)
        else:
            # Single-key shard: nothing to drain in bulk, fold directly.
            self.finish_merge()

    def finish_merge(self) -> None:
        """Complete a retire: fold the sliver, drop the shard, pool budget.

        Called by the rebalancer's drain task once the bulk migration
        finished (or directly by :meth:`begin_merge` for a single-key
        shard).  The retiring shard's residual range moves to the
        neighbour with insert-if-absent, the boundary disappears, the
        engine leaves the fleet, and its budget returns to the
        neighbour so the pool total is conserved.
        """
        sid = self.retiring
        if sid is None:
            raise RuntimeError("finish_merge without a retiring shard")
        if self.migration is not None:
            raise RuntimeError("finish_merge while the bulk drain is still in flight")
        partitioner = self.partitioner
        assert isinstance(partitioner, WeightedRangePartitioner)
        bounds = partitioner.boundaries
        lo, hi = bounds[sid], bounds[sid + 1]
        src = self.shards[sid]
        dst_engine = self.shards[sid - 1]
        for key_bytes, value in src.scan(lo, hi - lo):
            key = decode_int(key_bytes)
            if lo <= key < hi and dst_engine.read(key) is None:
                dst_engine.insert(key, value)
        self.retiring = None
        partitioner.merge_shards(sid)
        self.shards.pop(sid)
        freed = self.shard_budgets.pop(sid)
        self.shard_budgets[sid - 1] += freed
        self.shards[sid - 1].set_memory_limit(self.shard_budgets[sid - 1])
        self._after_fleet_change("merge", sid)

    def _after_fleet_change(self, kind: str, sid: int) -> None:
        """Re-base every per-shard ledger after a split or merge."""
        shards = self.num_shards
        self.name = f"Sharded-{self.base_system}x{shards}"
        if self.heat is not None:
            self.heat.resize(shards)
        if self.rebalancer is not None:
            self.rebalancer.fleet_changed(shards)
        self.fleet_events.append((kind, sid))
        self.runtime.stats.bump(f"fleet_{kind}s")

    # ------------------------------------------------------------------
    # lifecycle / accounting
    # ------------------------------------------------------------------
    def flush(self) -> None:
        for shard in self.shards:
            shard.flush()

    def shard_snapshots(self) -> list[Snapshot]:
        return [shard.snapshot() for shard in self.shards]

    def snapshot(self) -> Snapshot:
        """Aggregate of all shard accounts.

        Summed CPU/disk time reads as *serial* elapsed time; concurrent
        serving derives elapsed time from the per-shard snapshots instead
        (the slowest shard bounds the makespan — see ``repro.bench.serve``).
        """
        totals = [0.0] * 6
        for shard in self.shards:
            snap = shard.snapshot()
            totals[0] += snap.cpu_ns
            totals[1] += snap.background_ns
            totals[2] += snap.disk_busy_ns
            totals[3] += snap.ops
            totals[4] += snap.disk_read_bytes
            totals[5] += snap.disk_write_bytes
        return Snapshot(*totals)

    @property
    def memory_bytes(self) -> int:
        return sum(shard.memory_bytes for shard in self.shards)

    def shard_sizes(self, keys: Sequence[int]) -> list[int]:
        """How ``keys`` would distribute over shards (balance probe)."""
        return [len(batch) for batch in self.partitioner.split(keys)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardRouter({self.base_system!r}, shards={self.num_shards}, "
            f"partitioner={type(self.partitioner).__name__})"
        )
