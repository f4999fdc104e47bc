"""Bloom filter with deterministic double hashing.

Python's built-in ``hash`` is randomized per process, so the filter hashes
with FNV-1a and a second mixing constant instead — runs reproduce exactly.
"""

from __future__ import annotations

import sys
from collections import deque
from collections.abc import Iterable, Iterator
from itertools import groupby, repeat
from operator import mod, setitem

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

#: keys hashed together by :meth:`BloomFilter.build`; bounds the big ints
#: that carry one 128-bit lane per key (64 KiB each at this size).
_BUILD_SLICE = 4096
#: index of a lane's low 64-bit word in a native ``"Q"`` view of the lanes.
_LOW_WORD = 0 if sys.byteorder == "little" else 1


def fnv1a(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def key_hash(key: bytes) -> tuple[int, int]:
    """The ``(h, delta)`` double-hashing seed of ``key``.

    Probe ``i`` of a filter tests bit ``(h + i * delta) mod 2**64`` modulo
    its size, so one seed serves every filter the same key is probed in.
    """
    h = fnv1a(key)
    return h, ((h >> 33) | (h << 31)) & _MASK64 | 1


def _lane_hashes(keys: list[bytes]) -> Iterator[tuple[int, int, int, int]]:
    """FNV-1a of ``keys`` column-wise, one 128-bit lane per key.

    Keys are taken a slice of equal-length keys at a time; each slice
    yields ``(H, D, lanes, n)``: lane ``i`` of ``H`` holds ``h`` of its
    ``i``-th key and lane ``i`` of ``D`` that key's ``delta`` (as
    :func:`key_hash`), ``lanes`` masks every lane's low 64 bits, and ``n``
    counts the slice's keys.  A lane is 128 bits wide so that the 64-bit
    x 41-bit FNV product never carries into the next lane; masking after
    each step keeps every lane exactly mod 2**64.
    """
    for klen, group in groupby(sorted(keys, key=len), len):
        same = list(group)
        for lo in range(0, len(same), _BUILD_SLICE):
            part = same[lo : lo + _BUILD_SLICE]
            n = len(part)
            lanes = int.from_bytes((b"\xff" * 8 + bytes(8)) * n, "little")
            ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
            h = int.from_bytes((_FNV_OFFSET.to_bytes(8, "little") + bytes(8)) * n, "little")
            joined = b"".join(part)
            column = bytearray(16 * n)
            for c in range(klen):
                column[0::16] = joined[c::klen]
                h = ((h ^ int.from_bytes(column, "little")) * _FNV_PRIME) & lanes
            yield h, ((h >> 33) | (h << 31)) & lanes | ones, lanes, n


class BloomFilter:
    """A fixed-size bloom filter sized by bits-per-key."""

    def __init__(self, expected_keys: int, bits_per_key: int = 10) -> None:
        if expected_keys < 1:
            expected_keys = 1
        self.num_bits = max(64, expected_keys * bits_per_key)
        self.num_hashes = max(1, int(bits_per_key * 0.69))  # ln2 * bits/key
        self._bits = bytearray((self.num_bits + 7) // 8)

    @classmethod
    def build(cls, keys: Iterable[bytes], bits_per_key: int = 10) -> "BloomFilter":
        """A filter holding ``keys``, bit for bit what per-key :meth:`add` sets.

        Keys are hashed column-wise (:func:`_lane_hashes`), and each probe
        round's positions are marked in a one-byte-per-bit array, which is
        packed at the end — every per-key step runs in C.
        """
        keys = list(keys)
        bloom = cls(len(keys), bits_per_key)
        num_bits = bloom.num_bits
        nbytes = len(bloom._bits)
        flags = bytearray(nbytes * 8)  # flags[p] = 1 <=> bit p is set
        for h, delta, lanes, n in _lane_hashes(keys):
            for __ in range(bloom.num_hashes):
                words = memoryview(h.to_bytes(16 * n, sys.byteorder)).cast("Q")
                positions = map(mod, words[_LOW_WORD::2], repeat(num_bits))
                deque(map(setitem, repeat(flags), positions, repeat(1)), 0)
                h = (h + delta) & lanes
        packed = 0
        for bit in range(8):
            packed |= int.from_bytes(flags[bit::8], "little") << bit
        bloom._bits[:] = packed.to_bytes(nbytes, "little")
        return bloom

    def add(self, key: bytes) -> None:
        h, delta = key_hash(key)
        bits = self._bits
        num_bits = self.num_bits
        for __ in range(self.num_hashes):
            pos = h % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)
            h = (h + delta) & _MASK64

    def may_contain(self, key: bytes) -> bool:
        return self.may_contain_hash(*key_hash(key))

    def may_contain_hash(self, h: int, delta: int) -> bool:
        """:meth:`may_contain` for a key whose :func:`key_hash` is known."""
        bits = self._bits
        num_bits = self.num_bits
        for __ in range(self.num_hashes):
            pos = h % num_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h = (h + delta) & _MASK64
        return True

    def memory_bytes(self) -> int:
        return len(self._bits)
