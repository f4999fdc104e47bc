"""Unit tests for LSM building blocks: bloom filter, LRU cache, memtable, sstable."""

import random
from struct import Struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art import encode_int
from repro.lsm import BloomFilter, LRUCache, LSMStore, MemTable, SSTable
from repro.lsm.bloom import fnv1a
from repro.lsm.sstable import BlockImage
from repro.sim import SimClock, SimDisk


def ikey(i: int) -> bytes:
    return encode_int(i)


# ----------------------------------------------------------------------
# bloom filter
# ----------------------------------------------------------------------
def test_fnv1a_is_deterministic():
    assert fnv1a(b"hello") == fnv1a(b"hello")
    assert fnv1a(b"hello") != fnv1a(b"hellp")


def test_bloom_no_false_negatives():
    keys = [ikey(i * 13) for i in range(500)]
    bloom = BloomFilter.build(keys)
    assert all(bloom.may_contain(k) for k in keys)


def test_bloom_false_positive_rate_is_low():
    keys = [ikey(i) for i in range(2000)]
    bloom = BloomFilter.build(keys, bits_per_key=10)
    false_positives = sum(
        bloom.may_contain(ikey(i)) for i in range(10_000, 20_000)
    )
    assert false_positives / 10_000 < 0.05


def test_bloom_handles_empty_expectation():
    bloom = BloomFilter(expected_keys=0)
    bloom.add(b"x")
    assert bloom.may_contain(b"x")


def bloom_by_add(keys, bits_per_key):
    """The filter per-key ``add`` builds: the bits ``build`` must match."""
    bloom = BloomFilter(len(keys), bits_per_key)
    for key in keys:
        bloom.add(key)
    return bloom


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.binary(max_size=24), min_size=1, max_size=300),
    st.sampled_from([1, 4, 10, 16]),
)
def test_bloom_build_matches_per_key_add(keys, bits_per_key):
    keys = keys + keys[::3]  # duplicates set the same bits again
    assert BloomFilter.build(keys, bits_per_key)._bits == bloom_by_add(keys, bits_per_key)._bits


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 9000])
def test_bloom_build_matches_per_key_add_across_slices(n):
    # Most keys share one length, so that length's run crosses the
    # 4096-key slices the bulk build hashes at a time.
    rng = random.Random(n)
    lengths = [0, 1, 7, 8, 8, 8, 8, 8, 9, 24]
    keys = [rng.randbytes(rng.choice(lengths)) for __ in range(n)]
    keys[n // 2 :: 7] = keys[: len(keys[n // 2 :: 7])]  # duplicates
    rng.shuffle(keys)
    for bits_per_key in (6, 10):
        built = BloomFilter.build(keys, bits_per_key)
        assert built._bits == bloom_by_add(keys, bits_per_key)._bits
        assert all(built.may_contain(k) for k in keys)


# ----------------------------------------------------------------------
# LRU cache
# ----------------------------------------------------------------------
def test_lru_get_put():
    cache = LRUCache(100)
    cache.put("a", 1, 10)
    assert cache.get("a") == 1
    assert cache.get("b") is None
    assert cache.hits == 1 and cache.misses == 1


def test_lru_evicts_least_recent():
    cache = LRUCache(30)
    cache.put("a", 1, 10)
    cache.put("b", 2, 10)
    cache.put("c", 3, 10)
    cache.get("a")  # refresh a
    cache.put("d", 4, 10)  # evicts b
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.evictions == 1


def test_lru_oversized_entry_skipped():
    cache = LRUCache(10)
    cache.put("big", 1, 100)
    assert cache.get("big") is None
    assert cache.used_bytes == 0


def test_lru_replace_updates_bytes():
    cache = LRUCache(100)
    cache.put("a", 1, 10)
    cache.put("a", 2, 30)
    assert cache.used_bytes == 30
    assert cache.get("a") == 2


def test_lru_invalidate():
    cache = LRUCache(100)
    cache.put("a", 1, 10)
    cache.invalidate("a")
    assert cache.get("a") is None
    assert cache.used_bytes == 0


def test_lru_rejects_negative_capacity():
    with pytest.raises(ValueError):
        LRUCache(-1)


# ----------------------------------------------------------------------
# memtable
# ----------------------------------------------------------------------
def test_memtable_put_get():
    table = MemTable()
    table.put(ikey(5), b"five")
    assert table.get(ikey(5)) == b"five"
    assert table.get(ikey(6)) is None
    assert len(table) == 1


def test_memtable_overwrite_updates_size():
    table = MemTable()
    table.put(ikey(1), b"short")
    size = table.size_bytes
    table.put(ikey(1), b"a-longer-value")
    assert table.size_bytes == size + len(b"a-longer-value") - len(b"short")
    assert len(table) == 1


def test_memtable_items_sorted():
    table = MemTable()
    keys = random.Random(3).sample(range(10**6), 400)
    for k in keys:
        table.put(ikey(k), b"v")
    out = [k for k, __ in table.items()]
    assert out == sorted(out) and len(out) == 400


def test_memtable_items_from_start():
    table = MemTable()
    for k in range(0, 100, 10):
        table.put(ikey(k), b"v")
    out = [k for k, __ in table.items(start=ikey(35))]
    assert out[0] == ikey(40)


def test_memtable_charges_cpu():
    clock = SimClock()
    table = MemTable(clock=clock)
    table.put(ikey(1), b"v")
    assert clock.cpu_ns > 0


def test_memtable_deterministic_across_instances():
    a, b = MemTable(), MemTable()
    for k in range(100):
        a.put(ikey(k), b"v")
        b.put(ikey(k), b"v")
    assert a.size_bytes == b.size_bytes


# ----------------------------------------------------------------------
# block images
# ----------------------------------------------------------------------
#: the length-prefixed record format block sizes are measured in.
_ENTRY_HEADER = Struct(">HI")


def wire_size(entries):
    """Bytes the entries take as key-length/value-length/key/value records."""
    return len(b"".join(_ENTRY_HEADER.pack(len(k), len(v)) + k + v for k, v in entries))


class RecordingDisk(SimDisk):
    """A ``SimDisk`` that keeps every blob it is asked to write."""

    def __init__(self):
        super().__init__()
        self.written = []

    def write(self, offset, data):
        self.written.append(data)
        return super().write(offset, data)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.binary(min_size=1, max_size=40), st.binary(max_size=200), min_size=1, max_size=60
    ),
    st.sampled_from([64, 256, 4096]),
)
def test_block_image_len_is_wire_size(mapping, block_size):
    pairs = sorted(mapping.items())
    disk = RecordingDisk()
    SSTable.build(1, disk, pairs, block_size=block_size)
    assert all(isinstance(image, BlockImage) for image in disk.written)
    for image in disk.written:
        assert len(image) == wire_size(image.entries)
        assert len(image.entries) == 1 or len(image) <= block_size
    assert [e for image in disk.written for e in image.entries] == pairs


def test_block_images_sum_to_data_bytes():
    disk = RecordingDisk()
    pairs = [(ikey(i), b"v" * (i % 50)) for i in range(3000)]
    table = SSTable.build(1, disk, pairs, block_size=1024)
    assert len(disk.written) == table.block_count > 1
    assert sum(len(image) for image in disk.written) == table.data_bytes == wire_size(pairs)
    assert disk.stats["bytes_written"] == table.data_bytes == disk.used_bytes


def blocks_entry_by_entry(pairs, block_size):
    """(first key, bytes) per block, cutting the run one entry at a time.

    A block ends before the entry that would push it past ``block_size``
    and always holds at least one entry.
    """
    blocks = []
    start = 0
    current = 0
    for end, (key, value) in enumerate(pairs):
        entry_bytes = 6 + len(key) + len(value)
        if end > start and current + entry_bytes > block_size:
            blocks.append((pairs[start][0], current))
            start = end
            current = 0
        current += entry_bytes
    blocks.append((pairs[start][0], current))
    return blocks


def check_block_cuts(pairs, block_size):
    disk = RecordingDisk()
    table = SSTable.build(1, disk, pairs, block_size=block_size)
    blocks = [(image.entries[0][0], len(image)) for image in disk.written]
    assert blocks == blocks_entry_by_entry(pairs, block_size)
    assert table._block_first_keys == [key for key, __ in blocks]
    assert table.data_bytes == sum(nbytes for __, nbytes in blocks)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.binary(min_size=1, max_size=30), st.binary(max_size=120), min_size=1, max_size=80
    ),
    st.sampled_from([1, 16, 40, 64, 100, 256]),
)
def test_block_cuts_match_entry_by_entry_rule(mapping, block_size):
    check_block_cuts(sorted(mapping.items()), block_size)


def test_block_cuts_at_exact_fits_and_oversized_entries():
    # 8-byte key + 10-byte value + 6-byte header = 24 bytes per entry.
    pairs = [(ikey(i), b"v" * 10) for i in range(20)]
    check_block_cuts(pairs, 96)  # exactly four entries per block
    check_block_cuts(pairs, 95)  # three, the fourth would not fit
    check_block_cuts(pairs, 24)  # one entry fills each block exactly
    check_block_cuts(pairs, 23)  # every entry is larger than a block
    mixed = [(ikey(i), b"v" * (200 if i % 5 == 0 else 10)) for i in range(20)]
    check_block_cuts(mixed, 96)  # a 214-byte entry gets a block of its own


def chunks_entry_by_entry(pairs, budget):
    """Compaction output runs, cut one entry at a time: a run ends after
    the entry that reaches ``budget``."""
    chunks = []
    chunk = []
    size = 0
    for key, value in pairs:
        chunk.append((key, value))
        size += len(key) + len(value) + 6
        if size >= budget:
            chunks.append(chunk)
            chunk, size = [], 0
    if chunk:
        chunks.append(chunk)
    return chunks


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.binary(min_size=1, max_size=30), st.binary(max_size=120), min_size=1, max_size=80
    ),
    st.sampled_from([1, 24, 48, 100, 500, 10_000]),
)
def test_chunk_pairs_match_entry_by_entry_rule(mapping, budget):
    pairs = sorted(mapping.items())
    assert list(LSMStore._chunk_pairs(pairs, budget)) == chunks_entry_by_entry(pairs, budget)


def test_chunk_pairs_at_exact_budget():
    pairs = [(ikey(i), b"v" * 10) for i in range(10)]  # 24 bytes each
    for budget in (24, 48, 72, 73, 240, 241):
        assert list(LSMStore._chunk_pairs(pairs, budget)) == chunks_entry_by_entry(pairs, budget)


def test_sstable_is_isolated_from_callers_pairs():
    disk = SimDisk()
    pairs = [(ikey(i), b"v%d" % i) for i in range(500)]
    expected = list(pairs)
    table = SSTable.build(1, disk, pairs, block_size=512)
    pairs[0] = (ikey(0), b"changed")
    pairs[200:300] = []
    pairs.append((ikey(10**6), b"late"))
    pairs.reverse()
    assert table.get(ikey(0)) == b"v0"
    assert table.get(ikey(250)) == b"v250"
    assert table.get(ikey(10**6)) is None
    assert list(table.iter_from(ikey(100))) == expected[100:]
    assert list(table.iter_all()) == expected


# ----------------------------------------------------------------------
# sstable
# ----------------------------------------------------------------------
@pytest.fixture
def disk():
    return SimDisk()


def make_table(disk, n=1000, value=b"value", table_id=1, **kwargs):
    pairs = [(ikey(i * 3), value) for i in range(n)]
    return SSTable.build(table_id, disk, pairs, **kwargs), pairs


def test_sstable_point_lookups(disk):
    table, pairs = make_table(disk)
    for key, value in pairs[::37]:
        assert table.get(key) == value


def test_sstable_missing_key_returns_none(disk):
    table, __ = make_table(disk)
    assert table.get(ikey(1)) is None  # between stored keys
    assert table.get(ikey(10**9)) is None  # beyond max


def test_sstable_build_rejects_empty(disk):
    with pytest.raises(ValueError):
        SSTable.build(1, disk, [])


def test_sstable_writes_are_sequential(disk):
    make_table(disk, n=5000)
    assert disk.stats["rand_writes"] == 1  # only the first block seeks
    assert disk.stats["seq_writes"] == disk.stats["writes"] - 1


def test_sstable_iteration_is_sorted(disk):
    table, pairs = make_table(disk, n=2000)
    assert list(table.iter_all()) == pairs


def test_sstable_iter_from_start(disk):
    table, pairs = make_table(disk, n=100)
    start = pairs[40][0]
    assert list(table.iter_from(start)) == pairs[40:]


def test_sstable_iter_from_seeks_inside_the_first_block(disk):
    table, pairs = make_table(disk, n=200, block_size=128)
    first_keys = table._block_first_keys
    assert len(first_keys) > 3
    on_block = first_keys[2]
    between = ikey(int.from_bytes(on_block, "big") - 1)  # last gap of block 1
    starts = [b"", pairs[0][0], between, on_block, ikey(7), pairs[-1][0], ikey(10**9)]
    for start in starts:
        reads = disk.stats["reads"]
        out = list(table.iter_from(start))
        assert out == [p for p in pairs if p[0] >= start]
        first = max(0, sum(1 for k in first_keys if k <= start) - 1)
        assert disk.stats["reads"] - reads == table.block_count - first


def test_sstable_block_cache_avoids_repeat_io(disk):
    table, pairs = make_table(disk)
    cache = LRUCache(1 << 20)
    table.get(pairs[0][0], cache)
    reads_after_first = disk.stats["reads"]
    table.get(pairs[0][0], cache)
    assert disk.stats["reads"] == reads_after_first


def test_sstable_bloom_prevents_io_on_miss(disk):
    table, __ = make_table(disk)
    reads_before = disk.stats["reads"]
    for probe in range(1, 2000, 3):  # keys not present (non-multiples of 3)
        table.get(ikey(probe if probe % 3 else probe + 1))
    # With 10 bits/key the vast majority of misses never touch the disk.
    assert disk.stats["reads"] - reads_before < 100


def test_sstable_overlap_checks(disk):
    a, __ = make_table(disk, n=10, table_id=1)
    pairs_b = [(ikey(10**6 + i), b"v") for i in range(10)]
    b = SSTable.build(2, disk, pairs_b)
    assert not a.overlaps(b)
    assert a.overlaps(a)
    assert a.overlaps_range(ikey(0), ikey(5))
    assert not a.overlaps_range(ikey(10**7), ikey(10**8))


def test_sstable_free_releases_disk_space(disk):
    table, __ = make_table(disk, n=2000)
    used = disk.used_bytes
    assert used > 0
    table.free()
    assert disk.used_bytes == 0


def test_sstable_respects_block_size(disk):
    table, __ = make_table(disk, n=3000, block_size=1024)
    small_blocks = table.block_count
    table2, __ = make_table(disk, n=3000, table_id=2, block_size=8192)
    assert small_blocks > table2.block_count
