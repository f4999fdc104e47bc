"""Unit and property tests for the leveled LSM store."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art import encode_int
from repro.lsm import LSMConfig, LSMStore
from repro.lsm.sstable import SSTable
from repro.lsm.store import TOMBSTONE
from repro.sim import SimClock, SimDisk


def ikey(i: int) -> bytes:
    return encode_int(i)


def small_config(**overrides) -> LSMConfig:
    """A tiny configuration that exercises flush + compaction quickly."""
    defaults = dict(
        memtable_bytes=4 * 1024,
        block_size=1024,
        block_cache_bytes=8 * 1024,
        level0_table_limit=2,
        level1_bytes=16 * 1024,
        level_size_multiplier=4,
    )
    defaults.update(overrides)
    return LSMConfig(**defaults)


@pytest.fixture
def store():
    return LSMStore(SimDisk(), small_config(), clock=SimClock())


def test_put_get_in_memtable(store):
    store.put(ikey(1), b"one")
    assert store.get(ikey(1)) == b"one"
    assert store.get(ikey(2)) is None


def test_flush_creates_sstable(store):
    for i in range(500):
        store.put(ikey(i), b"v" * 8)
    assert store.stats["flushes"] > 0
    assert store.table_count > 0
    for i in range(0, 500, 29):
        assert store.get(ikey(i)) == b"v" * 8


def test_explicit_flush_drains_memtable(store):
    store.put(ikey(1), b"v")
    store.flush()
    assert store.get(ikey(1)) == b"v"
    store.flush()  # empty flush is a no-op
    assert store.stats["flushes"] == 1


def test_compaction_triggers_and_preserves_data(store):
    n = 4000
    rng = random.Random(5)
    keys = rng.sample(range(10**7), n)
    for k in keys:
        store.put(ikey(k), str(k).encode())
    assert store.stats["compactions"] > 0
    for k in keys[::97]:
        assert store.get(ikey(k)) == str(k).encode()


def test_levels_1plus_are_disjoint_and_sorted(store):
    rng = random.Random(7)
    for k in rng.sample(range(10**7), 5000):
        store.put(ikey(k), b"v" * 16)
    for level in range(1, store.config.max_levels):
        tables = store.levels[level]
        for a, b in zip(tables, tables[1:]):
            assert a.max_key < b.min_key


def test_overwrite_newest_wins_across_levels(store):
    for round_no in range(4):
        for k in range(200):
            store.put(ikey(k), b"round-%d" % round_no)
        store.flush()
    for k in range(0, 200, 17):
        assert store.get(ikey(k)) == b"round-3"


def test_delete_hides_key(store):
    for k in range(300):
        store.put(ikey(k), b"v")
    store.flush()
    store.delete(ikey(7))
    assert store.get(ikey(7)) is None
    store.flush()
    assert store.get(ikey(7)) is None


def test_tombstones_dropped_at_bottom(store):
    for k in range(2000):
        store.put(ikey(k), b"value-16-bytes!!")
    for k in range(2000):
        store.delete(ikey(k))
    # Push everything down through repeated flush/compaction.
    for k in range(2000, 4000):
        store.put(ikey(k), b"value-16-bytes!!")
    for k in range(100):
        assert store.get(ikey(k)) is None


def test_scan_merges_memtable_and_levels(store):
    for k in range(0, 100, 2):  # evens, flushed
        store.put(ikey(k), b"old")
    store.flush()
    for k in range(1, 100, 2):  # odds, still in memtable
        store.put(ikey(k), b"new")
    got = store.scan(ikey(10), 10)
    assert [k for k, __ in got] == [ikey(10 + i) for i in range(10)]


def test_scan_respects_overwrites(store):
    for k in range(50):
        store.put(ikey(k), b"old")
    store.flush()
    store.put(ikey(5), b"new")
    got = dict(store.scan(ikey(5), 1))
    assert got[ikey(5)] == b"new"


def test_scan_newest_version_wins_over_flushed_tombstone(store):
    """Regression: a delete-then-reinsert across a flush boundary must scan.

    The scan merge must break key ties by source recency (memtable
    first).  A late-binding bug in the old per-source tagging once broke
    them on value bytes instead — and TOMBSTONE's leading ``\\x00`` made a
    stale flushed tombstone shadow the memtable's fresh value, silently
    dropping the key from scans (while ``get`` stayed correct).  The keyed
    merge gets the tie-break from its stable source order; this test
    guards it.
    """
    store.put(ikey(1), b"first")
    store.delete(ikey(1))  # tombstone, flushed to L0 below
    store.flush()
    store.put(ikey(1), b"fresh")  # reinsert lives only in the memtable
    assert store.get(ikey(1)) == b"fresh"
    got = dict(store.scan(ikey(0), 10))
    assert got.get(ikey(1)) == b"fresh"


@pytest.mark.parametrize(
    "versions", list(itertools.permutations([b"\x00stale", TOMBSTONE, b"fresh", b"\xffold"]))
)
def test_compaction_merge_keeps_newest_of_many_runs(store, versions):
    """One key in four runs: the newest version survives the merge.

    ``versions`` lists the key's values oldest run first.  ``\\x00stale``
    sorts below TOMBSTONE, so a merge that broke key ties on value bytes
    would pick the wrong version for some order.
    """
    key = ikey(50)

    def table(table_id: int, value: bytes) -> SSTable:
        pairs = sorted({ikey(table_id): b"n", key: value, ikey(100 + table_id): b"n"}.items())
        return SSTable.build(table_id, store.disk, pairs, block_size=64, clock=store.clock)

    older = [table(1, versions[0])]  # the level below
    newer = [table(t, versions[t - 1]) for t in (4, 3, 2)]  # level 0: newest first
    for drop in (False, True):
        merged = store._merge_tables(newer, older, drop_tombstones=drop)
        keys = [k for k, __ in merged]
        assert keys == sorted(set(keys))
        if drop and versions[-1] == TOMBSTONE:
            assert key not in keys
        else:
            assert dict(merged)[key] == versions[-1]
        assert len(keys) == 8 + (key in keys)


def test_get_hashes_each_key_once(store, monkeypatch):
    from repro.lsm import sstable
    from repro.lsm import store as store_module

    for k in range(0, 4000, 2):
        store.put(ikey(k), b"v%d" % k)
    for low in (0, 2000):  # two overlapping level-0 tables over the runs below
        store.put(ikey(low), b"v%d" % low)
        store.put(ikey(low + 1998), b"v%d" % (low + 1998))
        store.flush()
    assert len(store.levels[0]) == 2 and store.table_count >= 4
    hashed = []
    real = store_module.key_hash
    monkeypatch.setattr(store_module, "key_hash", lambda key: hashed.append(key) or real(key))
    monkeypatch.setattr(sstable, "key_hash", None)  # a table probe must not hash again
    probes = [ikey(k) for k in (1, 2, 1001, 1002, 3999, 10**6)]
    for key in probes:
        expected = b"v%d" % int.from_bytes(key, "big") if key in (ikey(2), ikey(1002)) else None
        assert store.get(key) == expected
    assert hashed == probes


def test_scan_skips_tombstones(store):
    for k in range(20):
        store.put(ikey(k), b"v")
    store.flush()
    store.delete(ikey(3))
    got = store.scan(ikey(0), 20)
    assert ikey(3) not in dict(got)
    assert len(got) == 19


def test_find_table_memo_survives_level_reshape(store):
    """Regression for the per-level min-key memo in ``_find_table``.

    The memo caches each level's table boundaries so point reads stop
    rebuilding a list per probe; it must be invalidated whenever a flush
    or compaction reshapes a level, or reads route to stale tables.
    """
    for k in range(0, 600, 2):
        store.put(ikey(k), b"a" * 16)
    # Prime the memo on every level with reads...
    for k in range(0, 600, 20):
        assert store.get(ikey(k)) == b"a" * 16
    # ...then reshape the levels with interleaved keys and overwrites.
    for k in range(1, 600, 2):
        store.put(ikey(k), b"b" * 16)
    for k in range(0, 600, 4):
        store.put(ikey(k), b"c" * 16)
    store.flush()
    for k in range(0, 600, 3):
        expected = b"c" * 16 if k % 4 == 0 else (b"a" * 16 if k % 2 == 0 else b"b" * 16)
        assert store.get(ikey(k)) == expected, k
    # The invariant the invalidation maintains: a present memo always
    # mirrors the live table boundaries of its level.
    for level in range(1, store.config.max_levels):
        memo = store._min_keys[level]
        if memo is not None:
            assert memo == [t.min_key for t in store.levels[level]], level


def test_writes_are_mostly_sequential_under_random_puts(store):
    rng = random.Random(11)
    for k in rng.sample(range(10**7), 6000):
        store.put(ikey(k), b"v" * 16)
    stats = store.disk.stats
    # With the tiny 4 KB test memtable each table is only ~4 blocks, yet
    # sequential writes still dominate ~8:1; production-sized memtables
    # push this far higher (see the Figure 3 benchmark).
    assert stats["seq_writes"] > 5 * stats["rand_writes"]


def test_row_cache_serves_repeat_reads():
    store = LSMStore(SimDisk(), small_config(row_cache_bytes=64 * 1024), clock=SimClock())
    for k in range(1000):
        store.put(ikey(k), b"v" * 8)
    store.flush()
    store.get(ikey(1))
    reads = store.disk.stats["reads"]
    store.get(ikey(1))
    assert store.disk.stats["reads"] == reads
    assert store.stats["row_cache_hits"] >= 1


def test_memory_accounting_is_bounded(store):
    rng = random.Random(13)
    for k in rng.sample(range(10**7), 4000):
        store.put(ikey(k), b"v" * 16)
    # MemTable + caches + per-table index/bloom: far below the data size.
    assert store.memory_bytes < store.disk_bytes


def test_disk_space_reclaimed_by_compaction(store):
    rng = random.Random(17)
    for round_no in range(3):
        for k in rng.sample(range(2000), 2000):
            store.put(ikey(k), b"%d" % round_no * 8)
    # Overwrites collapse during compaction: live disk bytes stay near one
    # copy of the data, not three.
    live = store.disk.used_bytes
    written = store.disk.stats["bytes_written"]
    assert live < written


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["put", "del", "get"]), st.integers(0, 300)),
        max_size=200,
    )
)
def test_store_matches_reference_model(ops):
    store = LSMStore(SimDisk(), small_config(memtable_bytes=512))
    model: dict[bytes, bytes] = {}
    for op, k in ops:
        key = ikey(k)
        if op == "put":
            value = b"v%d" % k
            store.put(key, value)
            model[key] = value
        elif op == "del":
            store.delete(key)
            model.pop(key, None)
        else:
            assert store.get(key) == model.get(key)
    for key, value in model.items():
        assert store.get(key) == value
    expect = sorted(model.items())[:50]
    assert store.scan(ikey(0), 50) == expect
