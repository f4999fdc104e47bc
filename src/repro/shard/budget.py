"""Heat-proportional shard memory budgets: the cache follows the data.

The router hands every shard an equal slice of the global memory limit
at construction.  That is the right opening book — no heat has been
observed yet — but under a skewed workload it starves exactly the shard
doing the work: the hot shard misses its caches while cold shards idle
on budget they never touch (the static-split critique DESIGN.md §11.4
inherits from the cache-sizing literature).

:class:`BudgetRebalancer` closes the loop.  Registered as a paced
periodic task on the router's (otherwise dormant) background scheduler,
each round reads the :class:`~repro.shard.heat.ShardHeat` busy-time
ledger and re-partitions the router's *total* budget across the fleet
proportionally to observed load
(:func:`~repro.core.membudget.proportional_split`), pushing each new
slice through the shard's ``set_memory_limit`` seam — the same live
resize path every system already exposes, so cache contents survive and
shrinks evict through the policy rather than dropping state.

Two dampers keep budgets from thrashing:

* a **per-shard floor** (a fraction of the equal share, never below the
  router's structural floor) so a momentarily idle shard is not squeezed
  to nothing and can absorb a heat shift without a cold start;
* **hysteresis** — a round applies only when some shard's target moves
  by more than ``hysteresis`` of the equal share, so measurement noise
  does not convert into resize churn (the same two-watermark argument
  as the paper's Section II-A, applied fleet-wide).

Every input is deterministic (op streams are seeded), so budget
trajectories are byte-reproducible; with the feature off the task is
never registered and no account changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import KnobConfig
from repro.core.membudget import proportional_split

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.router import ShardRouter

__all__ = ["BudgetConfig", "BudgetRebalancer"]


@dataclass(frozen=True)
class BudgetConfig(KnobConfig):
    """Tuning knobs of the heat-proportional budget layer.

    ``Sharded@budget=...`` specs use the :class:`KnobConfig` grammar,
    e.g. ``floor:0.1+interval:256+hysteresis:0.05``.

    Attributes:
        interval_ops: pacing of the re-split task (one heat inspection
            per this many foreground router operations).  Coarser than
            migration draining on purpose: a resize moves cache budget,
            not keys, and evicting through the policy too often defeats
            the caches it is meant to feed.
        floor_fraction: per-shard floor as a fraction of the equal
            share ``total / shards`` (clamped to at least the router's
            structural floor).  1.0 degenerates to the fixed equal
            split; 0 lets a cold shard shrink to the structural floor.
        hysteresis: minimum relative movement — measured against the
            equal share — some shard's target must show before a round
            applies.  Below it the fleet keeps its current budgets.
        min_load: minimum total decayed load before re-splitting (a cold
            startup keeps the equal split instead of chasing noise).
    """

    SPEC_KIND = "budget"
    SPEC_FIELDS = {
        "interval": "interval_ops",
        "floor": "floor_fraction",
        "hysteresis": "hysteresis",
        "min_load": "min_load",
    }

    interval_ops: int = 512
    floor_fraction: float = 0.25
    hysteresis: float = 0.10
    min_load: float = 32.0

    def __post_init__(self) -> None:
        if self.interval_ops < 1:
            raise ValueError(f"interval_ops must be >= 1, got {self.interval_ops}")
        if not 0.0 <= self.floor_fraction <= 1.0:
            raise ValueError(
                f"floor_fraction must be in [0, 1], got {self.floor_fraction}"
            )
        if self.hysteresis < 0.0:
            raise ValueError(f"hysteresis must be >= 0, got {self.hysteresis}")
        if self.min_load < 0.0:
            raise ValueError(f"min_load must be >= 0, got {self.min_load}")


class BudgetRebalancer:
    """Paced heat-proportional re-splitting of the router's budget pool.

    ``owns_decay`` marks this task as the fleet's only heat consumer
    (no :class:`~repro.shard.rebalance.Rebalancer` registered): it then
    ages the ledger after each round, exactly as the rebalancer would.
    With both tasks registered the rebalancer keeps that duty, so heat
    decays once per planning round, never twice.
    """

    def __init__(
        self,
        router: "ShardRouter",
        config: BudgetConfig,
        owns_decay: bool = False,
    ) -> None:
        self.router = router
        self.config = config
        self.owns_decay = owns_decay
        self.resplits = 0
        self.rounds = 0

    def run_once(self) -> None:
        """One re-split round: read heat, compute targets, maybe apply.

        Rounds are skipped while a key-range migration (or shard
        split/merge drain) is in flight: budgets follow heat, and
        mid-migration heat describes a placement that is still moving.
        """
        self.rounds += 1
        router = self.router
        heat = router.heat
        if heat is None:
            return
        loads = heat.load()
        if router.migration is None and len(loads) == router.num_shards:
            self._maybe_resplit(loads)
        if self.owns_decay:
            heat.decay_all()

    def _maybe_resplit(self, loads: list[float]) -> None:
        router = self.router
        config = self.config
        if sum(loads) < config.min_load:
            return
        total = router.total_memory_limit
        shards = len(loads)
        equal = total / shards
        floor = max(router.budget_floor, int(equal * config.floor_fraction))
        targets = proportional_split(total, loads, floor)
        current = router.shard_budgets
        if max(abs(t - c) for t, c in zip(targets, current)) <= config.hysteresis * equal:
            return
        router.apply_budgets(targets)
        self.resplits += 1
        stats = router.runtime.stats
        stats.bump("budget_resplits")
        stats.record_max("budget_max_shard_bytes", max(targets))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BudgetRebalancer(rounds={self.rounds}, resplits={self.resplits})"
