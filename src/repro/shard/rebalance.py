"""Elastic resharding: heat-driven live key-range migration.

The :class:`Rebalancer` makes the shard fleet elastic (DESIGN.md §11).
Registered as a paced periodic task on the router's (otherwise dormant)
:class:`~repro.sim.runtime.BackgroundScheduler`, each run either

* advances the active migration by one bounded chunk, or
* inspects the :class:`~repro.shard.heat.ShardHeat` ledger, and when one
  shard carries more than ``threshold`` times the mean load, plans a new
  migration: split the hot shard's range at the median of its recent
  keys and hand one side to its cooler *adjacent* neighbour (adjacent
  moves keep the weighted-range placement contiguous; repeated rounds
  cascade load across the fleet, in the spirit of adaptive index
  cracking).

Migration protocol (ownership-transfer-first):

1. **Commit**: publish the migration descriptor, then atomically swap
   the routing table (:meth:`WeightedRangePartitioner.move_boundary`).
   From this instant every new operation on the in-flight range routes
   to the destination; the router double-reads the range until drained.
2. **Drain**: per chunk, scan the source from the cursor through the
   paper's release seam, bulk-load the absent keys into the destination
   (``put_many`` when the chunk shares one value — the common serving
   case — else per-key inserts), and delete the chunk from the source.
   Copies are insert-if-absent so a fresher client write to the
   destination is never clobbered by a stale source copy.
3. **Finish**: when the source range is drained, clear the descriptor;
   routing needs no second swap because ownership moved up front.

Every step runs between router operations (scheduler ticks are issued
by the router's own verbs).  Migration work charges the *shards'*
simulated clocks — moving data competes with serving on the source and
destination engines, which is exactly the cost the skewed-serving
benchmark accounts for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.art.keys import decode_int
from repro.core.config import KnobConfig
from repro.shard.partition import WeightedRangePartitioner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.router import ShardRouter

__all__ = ["RebalanceConfig", "RangeMigration", "Rebalancer"]


@dataclass(frozen=True)
class RebalanceConfig(KnobConfig):
    """Tuning knobs of the elastic resharding layer.

    ``Sharded@rebalance=...`` specs use the :class:`KnobConfig` grammar,
    e.g. ``threshold:1.3+interval:128+chunk:512``.

    Attributes:
        threshold: imbalance trigger — a migration starts when the
            hottest shard's load exceeds ``threshold`` times the mean.
            Clamped at plan time to ``(1 + shards) / 2``: max/mean is
            bounded by the shard count, so a fixed ratio reachable on a
            wide fleet may be unreachable on a narrow one.
        interval_ops: pacing of the planning task (one heat inspection
            per this many foreground router operations).
        chunk_keys: keys moved per drain step; bounds how long one
            step occupies the source and destination engines.
        drain_interval_ops: pacing of the drain task.  Much tighter
            than ``interval_ops``: while a range is in flight its hot
            keys double-read and couple the source and destination
            engines, so the window must close fast — many small paced
            chunks rather than rare big bursts.
        decay: per-round aging factor of the heat counters.
        sample_size: recent-key ring size per shard (split-key medians).
        min_load: minimum total decayed load before imbalance is acted
            on (keeps cold startups from migrating noise).
        cooldown_rounds: planning rounds to sit out after a migration
            completes.  The heat ledger is reset at completion, so the
            cooldown is how long the new placement is measured before
            the next decision — without it, stale pre-migration heat
            ping-pongs ranges back and forth ("flapping").
        max_shards: fleet-growth ceiling for true shard *splits*
            (DESIGN.md §11.4).  0 — the default — disables splits and
            merges entirely, keeping the fixed-fleet behaviour (and its
            byte-identical results).  When positive, a planning round
            whose hottest shard carries more than ``split_load`` decayed
            load spawns a fresh engine and drains the hot half of the
            range to it, growing the fleet by one (up to this ceiling).
        min_shards: fleet-shrink floor for shard *merges*; an idle fleet
            never shrinks below it.
        split_load: absolute decayed-load trigger for a split.  Unlike
            the relative ``threshold`` (which compares shards against
            each other), a split answers "is the whole fleet too small";
            an absolute trigger keeps a uniformly loaded fleet growing
            under pressure where max/mean never budges.  0 disables.
        merge_load: when the fleet's *total* decayed load falls below
            this, the coldest adjacent pair merges: the right shard
            drains into the left and retires, returning its budget to
            the pool.  0 disables.

    The default threshold and cooldown look conservative on purpose: a
    freshly migrated-into shard pays flush/compaction debt for the
    bulk-loaded range and its keys arrive cache-cold, so for a while it
    *measures* ~2x its true steady load.  A trigger below that debt
    plateau chases the inflation around the fleet forever (every move
    manufactures the next "hot" shard); a short cooldown re-measures
    before the debt has drained.  2.2x with an eight-round cooldown
    sits above the plateau and still fires on genuine Zipf hot spots,
    which measure well beyond it.
    """

    SPEC_KIND = "rebalance"
    SPEC_FIELDS = {
        "threshold": "threshold",
        "interval": "interval_ops",
        "chunk": "chunk_keys",
        "drain": "drain_interval_ops",
        "decay": "decay",
        "samples": "sample_size",
        "min_load": "min_load",
        "cooldown": "cooldown_rounds",
        "max_shards": "max_shards",
        "min_shards": "min_shards",
        "split_load": "split_load",
        "merge_load": "merge_load",
    }

    threshold: float = 2.2
    interval_ops: int = 256
    chunk_keys: int = 64
    drain_interval_ops: int = 8
    decay: float = 0.5
    sample_size: int = 64
    min_load: float = 32.0
    cooldown_rounds: int = 8
    max_shards: int = 0
    min_shards: int = 1
    split_load: float = 0.0
    merge_load: float = 0.0

    def __post_init__(self) -> None:
        if self.threshold <= 1.0:
            raise ValueError(f"threshold must be > 1, got {self.threshold}")
        if self.interval_ops < 1:
            raise ValueError(f"interval_ops must be >= 1, got {self.interval_ops}")
        if self.chunk_keys < 1:
            raise ValueError(f"chunk_keys must be >= 1, got {self.chunk_keys}")
        if self.drain_interval_ops < 1:
            raise ValueError(
                f"drain_interval_ops must be >= 1, got {self.drain_interval_ops}"
            )
        if self.cooldown_rounds < 0:
            raise ValueError(f"cooldown_rounds must be >= 0, got {self.cooldown_rounds}")
        if self.max_shards < 0:
            raise ValueError(f"max_shards must be >= 0, got {self.max_shards}")
        if self.min_shards < 1:
            raise ValueError(f"min_shards must be >= 1, got {self.min_shards}")
        if self.split_load < 0.0:
            raise ValueError(f"split_load must be >= 0, got {self.split_load}")
        if self.merge_load < 0.0:
            raise ValueError(f"merge_load must be >= 0, got {self.merge_load}")


class RangeMigration:
    """One in-flight key-range transfer between adjacent shards.

    ``[lo, hi)`` routes to ``dst`` (the boundary already moved) while
    un-copied keys still physically live on ``src``; ``cursor`` is the
    drain frontier — every source key below it has been moved.
    """

    __slots__ = ("src", "dst", "lo", "hi", "cursor", "keys_moved")

    def __init__(self, src: int, dst: int, lo: int, hi: int) -> None:
        if lo >= hi:
            raise ValueError(f"empty migration range [{lo}, {hi})")
        if abs(src - dst) != 1:
            raise ValueError(f"migration must be between adjacent shards, got {src}->{dst}")
        self.src = src
        self.dst = dst
        self.lo = lo
        self.hi = hi
        self.cursor = lo
        self.keys_moved = 0

    def covers(self, key: int) -> bool:
        return self.lo <= key < self.hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RangeMigration({self.src}->{self.dst}, [{self.lo}, {self.hi}), "
            f"cursor={self.cursor}, moved={self.keys_moved})"
        )


class Rebalancer:
    """Paced heat inspection + chunked live migration for a router."""

    def __init__(self, router: "ShardRouter", config: RebalanceConfig) -> None:
        self.router = router
        self.config = config
        self.migrations_started = 0
        self.migrations_completed = 0
        self.keys_moved = 0
        self.splits = 0
        self.merges = 0
        self._published_ops = [0] * router.num_shards
        self._cooldown = 0
        self._pending_move: tuple[int, int] | None = None
        self._pending_fleet: tuple[str, int] | None = None

    # -- the scheduler runners ---------------------------------------------
    def run_once(self) -> None:
        """One planning round: publish heat, maybe plan, then decay.

        Draining is the separate (much faster paced) :meth:`drain_tick`
        task, so a planning round never does bulk data movement.
        """
        self._publish_heat()
        if self.router.migration is None:
            if self._cooldown > 0:
                self._cooldown -= 1
            else:
                self._maybe_start()
        heat = self.router.heat
        if heat is not None:
            heat.decay_all()

    def drain_tick(self) -> None:
        """One drain round: move a chunk of the active migration, if any."""
        migration = self.router.migration
        if migration is not None:
            self._advance(migration)

    # -- stats-bus gauges ---------------------------------------------------
    def _publish_heat(self) -> None:
        heat = self.router.heat
        if heat is None:
            return
        stats = self.router.runtime.stats
        published = self._published_ops
        totals = list(heat.total_ops)
        for sid, (total, seen) in enumerate(zip(totals, published)):
            if total > seen:
                stats.bump(f"heat_shard{sid}_ops", total - seen)
        self._published_ops = totals
        loads = heat.load()
        mean = sum(loads) / len(loads)
        if mean > 0:
            stats.record_max("heat_imbalance_x100_peak", int(max(loads) / mean * 100))

    # -- fleet elasticity: true splits and merges --------------------------
    def fleet_changed(self, shards: int) -> None:
        """Re-base per-shard publisher state after a shard split/merge.

        The heat ledger restarts from zero on a fleet-size change
        (shard ids shift), so the stats-bus publisher's seen counts must
        restart with it — a stale seen count would either suppress or
        double-publish the next delta.
        """
        self._published_ops = [0] * shards

    def _maybe_split(self, loads: list[float]) -> bool:
        """Grow the fleet: split the hottest shard when it carries more
        than ``split_load`` decayed load and headroom remains.

        The split key is the busy-time median of the hot shard's recent
        keys, so each half inherits roughly half the observed load; the
        upper half drains to a freshly built engine through the standard
        migration path (the router owns the mechanics).
        """
        config = self.config
        n = len(loads)
        if config.split_load <= 0.0 or config.max_shards <= n:
            return False
        hot = max(range(n), key=loads.__getitem__)
        if loads[hot] <= config.split_load:
            return False
        router = self.router
        partitioner = router.partitioner
        assert isinstance(partitioner, WeightedRangePartitioner)
        lo, hi = partitioner.shard_range(hot)
        if hi - lo < 2:
            return False  # single-key range: nothing to split
        if router.shard_budgets[hot] < 2 * router.budget_floor:
            return False  # cannot fund both halves at the structural floor
        # Persistence filter, as for boundary moves: structural changes
        # are the most expensive decision the planner makes, so the same
        # shard must win two consecutive rounds before the fleet grows.
        if self._pending_fleet != ("split", hot):
            self._pending_fleet = ("split", hot)
            return True
        self._pending_fleet = None
        heat = router.heat
        split = heat.split_key(hot, 0.5) if heat is not None else None
        if split is None:
            split = (lo + hi) // 2
        split = min(max(split, lo + 1), hi - 1)
        router.begin_split(hot, split)
        self.splits += 1
        return True

    def _maybe_merge(self, loads: list[float]) -> bool:
        """Shrink the fleet: when total decayed load falls below
        ``merge_load``, retire the colder shard of the coldest adjacent
        pair into its left neighbour, returning its budget to the pool.
        """
        config = self.config
        n = len(loads)
        if config.merge_load <= 0.0 or n < 2 or n <= config.min_shards:
            return False
        heat = self.router.heat
        if heat is None or sum(heat.total_ops) == 0:
            return False  # never-used fleet: nothing measured yet
        if sum(loads) >= config.merge_load:
            return False
        pair = min(range(n - 1), key=lambda sid: loads[sid] + loads[sid + 1])
        if self._pending_fleet != ("merge", pair + 1):
            self._pending_fleet = ("merge", pair + 1)
            return True
        self._pending_fleet = None
        self.router.begin_merge(pair + 1)
        self.merges += 1
        return True

    # -- planning ----------------------------------------------------------
    def _maybe_start(self) -> None:
        router = self.router
        heat = router.heat
        partitioner = router.partitioner
        if heat is None or not isinstance(partitioner, WeightedRangePartitioner):
            return
        loads = heat.load()
        # Merge is checked before the min_load gate: an idle fleet is
        # exactly the one whose total load sits below every other
        # trigger.  Split and boundary diffusion both require real load.
        if self._maybe_merge(loads):
            return
        total = sum(loads)
        if total < self.config.min_load:
            return
        if self._maybe_split(loads):
            return
        mean = total / len(loads)
        # max/mean is bounded by the shard count (one shard carrying
        # everything measures exactly ``shards``), so a ratio sane for a
        # wide fleet is unreachable for a narrow one — at two shards a
        # 2.2x trigger would never fire.  Clamp the effective trigger to
        # halfway between perfectly balanced and the worst case.
        threshold = min(self.config.threshold, (1 + len(loads)) / 2)
        if max(loads) <= threshold * mean:
            return
        if len(loads) < 2:  # single shard: nowhere to shed load
            return
        # Diffusion step: balance the adjacent pair with the largest load
        # difference by moving half that difference across the shared
        # boundary.  Half the pairwise difference leaves both shards at
        # the pair's average — a step can never overshoot, so there is
        # no ping-pong; the remaining excess keeps flowing downstream
        # pair by pair in later rounds until the fleet is level.  (A
        # shed-the-whole-excess policy deadlocks instead: with one shard
        # holding most of the load, no single move to a neighbour can
        # land under the trigger, yet the neighbour never becomes the
        # hottest shard, so nothing would ever move.)
        diffs = [loads[sid] - loads[sid + 1] for sid in range(len(loads) - 1)]
        boundary = max(range(len(diffs)), key=lambda sid: abs(diffs[sid]))
        if diffs[boundary] == 0:
            return
        if diffs[boundary] > 0:
            hot, dst = boundary, boundary + 1
        else:
            hot, dst = boundary + 1, boundary
        # Persistence filter: act only when the same directed move wins
        # two consecutive planning rounds.  A shard paying transient
        # structure debt (flush/compaction of a just-bulk-loaded range)
        # looks hot for a round or two; debt-driven moves are pure churn.
        if self._pending_move != (hot, dst):
            self._pending_move = (hot, dst)
            return
        lo, hi = partitioner.shard_range(hot)
        if hi - lo < 2:  # nothing left to split
            return
        fraction = (loads[hot] - loads[dst]) / (2.0 * loads[hot])
        # The sample ring is op-weighted: keys below the f-quantile carry
        # ~f of the load.  Shedding right takes the top `fraction`,
        # shedding left the bottom `fraction`, of the observed load.
        quantile = 1.0 - fraction if dst == hot + 1 else fraction
        split = heat.split_key(hot, quantile)
        if split is None:
            split = (lo + hi) // 2
        split = min(max(split, lo + 1), hi - 1)
        # Commit point: the descriptor is visible before the routing
        # table swaps, so no operation can route to dst without the
        # double-read window already being in place.
        if dst == hot + 1:
            migration = RangeMigration(src=hot, dst=dst, lo=split, hi=hi)
            router.migration = migration
            partitioner.move_boundary(hot + 1, split)
        else:
            migration = RangeMigration(src=hot, dst=dst, lo=lo, hi=split)
            router.migration = migration
            partitioner.move_boundary(hot, split)
        self.migrations_started += 1
        stats = router.runtime.stats
        stats.bump("rebalance_migrations_started")
        stats.record_max("rebalance_active_range", migration.hi - migration.lo)

    # -- draining ------------------------------------------------------------
    def _advance(self, migration: RangeMigration) -> None:
        """Move one chunk of the in-flight range from src to dst."""
        router = self.router
        src = router.shards[migration.src]
        dst = router.shards[migration.dst]
        chunk = self.config.chunk_keys
        pairs = src.scan(migration.cursor, chunk)
        decoded = [(decode_int(key_bytes), value) for key_bytes, value in pairs]
        in_range = [(key, value) for key, value in decoded if key < migration.hi]
        drained = len(pairs) < chunk or len(in_range) < len(decoded)
        if in_range:
            keys = [key for key, __ in in_range]
            # Insert-if-absent: a client write that already reached dst
            # is fresher than the source copy and must win.
            present = dst.get_many(keys)
            missing = [pair for pair, value in zip(in_range, present) if value is None]
            if missing:
                values = {value for __, value in missing}
                if len(values) == 1:
                    # One distinct value: re-ingest through the sorted
                    # bulk path (scan returns key order).
                    dst.put_many([key for key, __ in missing], values.pop())
                else:
                    insert = dst.insert
                    for key, value in missing:
                        insert(key, value)
            src.delete_many(keys)
            migration.cursor = keys[-1] + 1
            migration.keys_moved += len(keys)
            self.keys_moved += len(keys)
            router.runtime.stats.bump("rebalance_keys_moved", len(keys))
        if drained:
            retiring = router.retiring is not None
            router.migration = None
            self.migrations_completed += 1
            router.runtime.stats.bump("rebalance_migrations_completed")
            if retiring:
                # The drained range belonged to a merging shard: move
                # its one-key sliver and retire the engine (the router
                # owns the structural mutation, including heat resize).
                router.finish_merge()
            # The heat ledger described the pre-migration placement;
            # measure the new one from scratch before deciding again.
            heat = router.heat
            if heat is not None:
                heat.reset()
            self._cooldown = self.config.cooldown_rounds
            self._pending_move = None
            self._pending_fleet = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Rebalancer(started={self.migrations_started}, "
            f"completed={self.migrations_completed}, moved={self.keys_moved}, "
            f"splits={self.splits}, merges={self.merges})"
        )
