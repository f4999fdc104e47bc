"""Sorted string tables.

An SSTable is an immutable run of sorted key/value pairs laid out as fixed
-budget data blocks on the simulated disk, plus two small in-memory
structures: a block index (first key + offset per block) and a bloom
filter.  Tables are written strictly sequentially — the whole point of the
LSM design the paper selects as its disk-friendly Index Y.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from operator import add, itemgetter
from typing import Iterator, Optional

from repro.lsm.bloom import BloomFilter, key_hash
from repro.lsm.cache import PolicyCache
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.disk import SimDisk
from repro.sim.effects import charges

#: per-entry header of the length-prefixed record format a block's size
#: is measured in: key length (2 bytes) + value length (4 bytes).
_ENTRY_HEADER_BYTES = 6

Entry = tuple[bytes, bytes]


def entry_ends(pairs: list[Entry]) -> list[int]:
    """Running record sizes: ``ends[i]`` is Σ(6 + |key| + |value|) of ``pairs[:i + 1]``.

    Strictly increasing, so a byte budget becomes one bisect per cut.
    """
    key_lens = map(len, map(itemgetter(0), pairs))
    value_lens = map(len, map(itemgetter(1), pairs))
    sizes = map(add, map(add, key_lens, value_lens), repeat(_ENTRY_HEADER_BYTES))
    return list(accumulate(sizes))


class BlockImage:
    """One data block as the disk holds it: sorted entries plus wire size.

    ``len()`` is the size of the block in the length-prefixed record
    format, Σ(6 + |key| + |value|), so every disk byte count, seek,
    copy charge and block-cache budget is that of the encoded block.
    The simulated device only ever measures a blob, so the block is
    never serialized; the entries tuple is what a read hands back.
    """

    __slots__ = ("entries", "nbytes")

    def __init__(self, entries: tuple[Entry, ...], nbytes: int) -> None:
        self.entries = entries
        self.nbytes = nbytes

    def __len__(self) -> int:
        return self.nbytes


class SSTable:
    """One immutable sorted run on disk."""

    def __init__(
        self,
        table_id: int,
        disk: SimDisk,
        block_offsets: list[int],
        block_first_keys: list[bytes],
        bloom: BloomFilter,
        min_key: bytes,
        max_key: bytes,
        entry_count: int,
        data_bytes: int,
    ) -> None:
        self.table_id = table_id
        self._disk = disk
        self._block_offsets = block_offsets
        self._block_first_keys = block_first_keys
        self.bloom = bloom
        self.min_key = min_key
        self.max_key = max_key
        self.entry_count = entry_count
        self.data_bytes = data_bytes

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    # disk_write is '*' not '+': the writes sit in a per-block loop, and the
    # nonempty-pairs guarantee that makes it >=1 at runtime is dynamic
    # (DESIGN.md §12, known imprecision).
    @charges("cpu_charge?", "bg_charge?", "disk_write*")
    def build(
        cls,
        table_id: int,
        disk: SimDisk,
        pairs: list[Entry],
        block_size: int = 4096,
        bits_per_key: int = 10,
        clock: SimClock | None = None,
        costs: CostModel | None = None,
        background: bool = False,
    ) -> "SSTable":
        """Write ``pairs`` (sorted, unique keys) as a new table.

        The extent is allocated once and blocks are written back-to-back,
        so every write after the first is sequential on the device.  Each
        block is an immutable :class:`BlockImage` holding its own tuple of
        the entries, so later changes to ``pairs`` cannot reach the table.
        """
        if not pairs:
            raise ValueError("cannot build an empty SSTable")
        costs = costs or CostModel()

        # A block ends before the entry that would push it past
        # ``block_size``, and always holds at least one entry.
        ends = entry_ends(pairs)
        images: list[BlockImage] = []
        start = 0
        done = 0  # bytes of the blocks cut so far
        while start < len(pairs):
            end = max(start + 1, bisect_right(ends, done + block_size, start))
            images.append(BlockImage(tuple(pairs[start:end]), ends[end - 1] - done))
            start = end
            done = ends[end - 1]

        total = ends[-1]
        base = disk.allocate(total)
        offsets: list[int] = []
        first_keys: list[bytes] = []
        cursor = base
        cpu_ns = 0.0
        for image in images:
            disk.write(cursor, image)
            offsets.append(cursor)
            first_keys.append(image.entries[0][0])
            cursor += image.nbytes
            cpu_ns += costs.copy_cost(image.nbytes)
        if clock is not None:
            if background:
                clock.charge_background(cpu_ns)
            else:
                clock.charge_cpu(cpu_ns)

        bloom = BloomFilter.build(map(itemgetter(0), pairs), bits_per_key)
        return cls(
            table_id=table_id,
            disk=disk,
            block_offsets=offsets,
            block_first_keys=first_keys,
            bloom=bloom,
            min_key=pairs[0][0],
            max_key=pairs[-1][0],
            entry_count=len(pairs),
            data_bytes=total,
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _block_index_for(self, key: bytes) -> int:
        """Index of the block that could contain ``key``."""
        i = bisect_right(self._block_first_keys, key) - 1
        return max(i, 0)

    @charges("disk_read?")
    def _load_block(self, index: int, block_cache: PolicyCache | None) -> tuple[Entry, ...]:
        cache_key = (self.table_id, index)
        if block_cache is not None:
            cached = block_cache.get(cache_key)
            if cached is not None:
                return cached
        image: BlockImage = self._disk.read(self._block_offsets[index])
        if block_cache is not None:
            block_cache.put(cache_key, image.entries, image.nbytes)
        return image.entries

    @charges("cpu_charge*", "disk_read?")
    def get(
        self,
        key: bytes,
        block_cache: PolicyCache | None = None,
        clock: SimClock | None = None,
        costs: CostModel | None = None,
        hashed: tuple[int, int] | None = None,
    ) -> Optional[bytes]:
        """Point lookup; bloom-filter negative answers avoid any I/O.

        ``hashed`` is the key's :func:`~repro.lsm.bloom.key_hash`, for a
        caller that probes several tables with the same key.
        """
        costs = costs or CostModel()
        if clock is not None:
            clock.charge_cpu(costs.bloom_probe)
        if key < self.min_key or key > self.max_key:
            return None
        if not self.bloom.may_contain_hash(*(hashed or key_hash(key))):
            return None
        index = self._block_index_for(key)
        entries = self._load_block(index, block_cache)
        if clock is not None:
            comparisons = max(1, int(math.log2(len(entries) + 1)))
            clock.charge_cpu(costs.compare_cost(comparisons) + costs.hash_probe)
        i = bisect_left(entries, (key, b""))
        if i < len(entries) and entries[i][0] == key:
            return entries[i][1]
        return None

    def iter_from(
        self, start: bytes | None = None, block_cache: PolicyCache | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield pairs with key >= ``start`` in order, reading block by block."""
        first = 0 if start is None else self._block_index_for(start)
        entries = self._load_block(first, block_cache)
        yield from (entries if start is None else entries[bisect_left(entries, (start,)) :])
        for index in range(first + 1, len(self._block_offsets)):
            yield from self._load_block(index, block_cache)

    def iter_all(self, block_cache: PolicyCache | None = None) -> Iterator[tuple[bytes, bytes]]:
        return self.iter_from(None, block_cache)

    def iter_blocks(self) -> Iterator[tuple[Entry, ...]]:
        """Each block's entries in order, read from disk (no cache)."""
        for index in range(len(self._block_offsets)):
            yield self._load_block(index, None)

    # ------------------------------------------------------------------
    # lifecycle / accounting
    # ------------------------------------------------------------------
    def free(self) -> None:
        """Release the table's disk extents (after compaction)."""
        free_extent = self._disk.free
        for offset in self._block_offsets:
            free_extent(offset)

    def overlaps(self, other: "SSTable") -> bool:
        return self.min_key <= other.max_key and other.min_key <= self.max_key

    def overlaps_range(self, low: bytes, high: bytes) -> bool:
        return self.min_key <= high and low <= self.max_key

    def index_memory_bytes(self) -> int:
        """In-memory footprint: block index plus bloom filter."""
        index_bytes = sum(len(k) + 8 for k in self._block_first_keys)
        return index_bytes + self.bloom.memory_bytes()

    @property
    def block_count(self) -> int:
        return len(self._block_offsets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SSTable(id={self.table_id}, entries={self.entry_count}, "
            f"blocks={self.block_count})"
        )
