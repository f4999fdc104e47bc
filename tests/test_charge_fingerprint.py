"""Charge fingerprints: the exact simulated totals of one fixed trace.

Each registered system replays the same seeded ~300-op trace (inserts,
reads, scans, deletes, read-modify-writes and a checkpoint every 60 ops)
and must land on exactly the pinned simulated totals: foreground CPU,
background CPU, disk busy time, bytes read and written, and the bytes
left on the device.  The trace runs the LSM systems with a small write
buffer, block size and block cache, so it covers flushes, a compaction,
block-cache misses and releases.  One more case replays the trace on a
rebalancing ``Sharded`` fleet with its load skewed onto one shard, so a
range migration runs: it pins the drain's source scans and the scans
that merge across the in-flight range.

The totals are plain float sums, so any change to what a code path
charges, or to how many bytes a structure puts on the disk, moves at
least one of them.  A refactor that claims to leave simulated behaviour
alone must pass these tests unchanged.
"""

from __future__ import annotations

import random
from typing import Any

import pytest

from repro.lsm.store import LSMConfig
from repro.shard.router import ShardRouter
from repro.systems import KVSystem, build_system

MEMORY_LIMIT = 8 * 1024
TRACE_OPS = 300
KEY_RANGE = 400
CHECKPOINT_EVERY = 60
SEED = 20240101

_SMALL_LSM = LSMConfig(memtable_bytes=4096, block_size=512, block_cache_bytes=2048)

#: (system kwargs, per-engine fingerprint); a fingerprint is
#: (cpu_ns, background_ns, disk_busy_ns, bytes_read, bytes_written, used_bytes).
CASES: dict[str, tuple[dict[str, Any], list[tuple[float, float, float, int, int, int]]]] = {
    "ART-LSM": (
        dict(lsm_config=_SMALL_LSM),
        [
            (108463.0, 1799.95, 4168336.0, 34310, 15735, 7235),
        ],
    ),
    "ART-B+": (
        {},
        [
            (152942.39999999997, 0.0, 583640.0, 0, 21820, 7292),
        ],
    ),
    "B+-B+": (
        {},
        [
            (147206.9499999999, 0.0, 6692582.0, 156900, 129391, 7292),
        ],
    ),
    "RocksDB": (
        dict(lsm_config=_SMALL_LSM),
        [
            (85393.0, 1799.95, 4611160.0, 38551, 15735, 7235),
        ],
    ),
    "Sharded": (
        dict(base_system="ART-LSM", shards=2, lsm_config=_SMALL_LSM),
        [
            (58571.0, 970.9, 2581296.0, 18023, 8402, 3919),
            (53570.0, 829.05, 2735222.0, 18632, 7333, 3316),
        ],
    ),
}


#: the migration case: two weighted-range ART-LSM shards whose load sits
#: in the bottom quarter of the key space, with a rebalancer paced tightly
#: enough that a range migration starts, drains in small chunks while
#: scans run across it, and completes within the trace.
MIGRATION_SPEC = "Sharded@rebalance=interval:16+chunk:2+drain:4+min_load:4"
MIGRATION_KWARGS: dict[str, Any] = dict(
    base_system="ART-LSM",
    shards=2,
    lsm_config=_SMALL_LSM,
    partitioner="weighted",
    key_space=KEY_RANGE,
)
MIGRATION_EXPECTED = [
    (42720.0, 654.2500000000001, 1178942.0, 6812, 6013, 2034),
    (45408.0, 566.8, 2630828.0, 16640, 5896, 2133),
]


def run_trace(system: KVSystem, key_range: int = KEY_RANGE) -> None:
    rng = random.Random(SEED)
    for i in range(TRACE_OPS):
        r = rng.random()
        key = rng.randrange(key_range)
        if r < 0.5:
            system.insert(key, bytes([65 + i % 26]) * rng.randrange(16, 64))
        elif r < 0.8:
            system.read(key)
        elif r < 0.9:
            system.scan(key, rng.randrange(1, 20))
        elif r < 0.95:
            system.delete(key)
        else:
            system.read_modify_write(key, b"rmw%d" % i)
        if i % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
            system.flush()


def engines(system: KVSystem) -> list[KVSystem]:
    return list(getattr(system, "shards", [system]))


def fingerprint(engine: KVSystem) -> tuple[float, float, float, int, int, int]:
    disk = engine.disk
    return (
        engine.clock.cpu_ns,
        engine.clock.background_ns,
        disk.busy_ns,
        int(disk.stats["bytes_read"]),
        int(disk.stats["bytes_written"]),
        disk.used_bytes,
    )


@pytest.mark.parametrize("name", list(CASES))
def test_charge_fingerprint(name):
    kwargs, expected = CASES[name]
    system = build_system(name, memory_limit_bytes=MEMORY_LIMIT, **kwargs)
    run_trace(system)
    assert [fingerprint(e) for e in engines(system)] == expected
    if "lsm_config" in kwargs:
        for engine in engines(system):
            store = getattr(engine, "store", None) or engine.index.y
            assert store.stats["flushes"] >= 1
            assert store.stats["compactions"] >= 1


def test_charge_fingerprint_migration(monkeypatch):
    """Pins the migration drain's ``src.scan`` and the migrating scan merge."""
    migrating_scans = []
    scan_migrating = ShardRouter._scan_migrating

    def counting(self, *args):
        migrating_scans.append(args)
        return scan_migrating(self, *args)

    monkeypatch.setattr(ShardRouter, "_scan_migrating", counting)
    system = build_system(MIGRATION_SPEC, memory_limit_bytes=MEMORY_LIMIT, **MIGRATION_KWARGS)
    run_trace(system, key_range=KEY_RANGE // 4)
    assert [fingerprint(e) for e in engines(system)] == MIGRATION_EXPECTED
    rebalancer = system.rebalancer
    assert rebalancer.migrations_started >= 1
    assert rebalancer.migrations_completed >= 1
    assert rebalancer.keys_moved > 0
    assert migrating_scans
    for engine in engines(system):
        assert engine.index.y.stats["flushes"] >= 1
        assert engine.index.y.stats["compactions"] >= 1


@pytest.mark.parametrize("name", ["ART-B+", "RocksDB"])
def test_sanitized_trace_matches_pinned_fingerprint(name):
    """The sanitizers' probes roll back every account they charge.

    Their reads run under ``EngineRuntime.observation()``, which must
    also restore the disk's own counters and its sequential-I/O heads:
    a probe read that moved the read head reclassified the next real
    read, and its bytes showed up in ``bytes_read``.
    """
    kwargs, expected = CASES[name]
    system = build_system(name, memory_limit_bytes=MEMORY_LIMIT, debug_checks=True, **kwargs)
    run_trace(system)
    assert [fingerprint(e) for e in engines(system)] == expected
