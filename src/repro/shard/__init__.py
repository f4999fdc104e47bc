"""Sharded serving layer.

Partitions the key space over N independent single-engine systems (each
with its own :class:`~repro.sim.runtime.EngineRuntime`) behind a
batching :class:`~repro.shard.router.ShardRouter`.  See DESIGN.md §8 for
the architecture, §11 for the elastic-resharding layer (heat tracking,
live key-range migration), and EXPERIMENTS.md for the
concurrent-serving methodology.
"""

from repro.shard.budget import BudgetConfig, BudgetRebalancer
from repro.shard.heat import ShardHeat
from repro.shard.partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    WeightedRangePartitioner,
    make_partitioner,
)
from repro.shard.rebalance import RangeMigration, RebalanceConfig, Rebalancer
from repro.shard.router import ShardRouter

__all__ = [
    "BudgetConfig",
    "BudgetRebalancer",
    "HashPartitioner",
    "Partitioner",
    "RangeMigration",
    "RangePartitioner",
    "RebalanceConfig",
    "Rebalancer",
    "ShardHeat",
    "ShardRouter",
    "WeightedRangePartitioner",
    "make_partitioner",
]
