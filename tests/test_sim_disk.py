"""Unit tests for the simulated block device."""

import pytest

from repro.sim import DiskSpec, SimDisk


@pytest.fixture
def disk():
    return SimDisk(DiskSpec(block_size=4096, seek_ns=60_000, ns_per_byte=2.0, min_io_ns=8_000))


def test_allocate_rounds_up_to_block_size(disk):
    first = disk.allocate(1)
    second = disk.allocate(4097)
    third = disk.allocate(100)
    assert first == 0
    assert second == 4096
    assert third == 4096 * 3  # the 4097-byte request took two blocks


def test_allocate_rejects_nonpositive_size(disk):
    with pytest.raises(ValueError):
        disk.allocate(0)


def test_write_read_roundtrip(disk):
    offset = disk.allocate(4096)
    payload = bytes(range(256)) * 16
    disk.write(offset, payload)
    assert disk.read(offset) == payload


def test_read_unwritten_offset_raises(disk):
    with pytest.raises(KeyError):
        disk.read(12345)


def test_sequential_write_skips_seek(disk):
    a = disk.allocate(4096)
    b = disk.allocate(4096)
    first = disk.write(a, b"x" * 4096)
    second = disk.write(b, b"y" * 4096)  # starts where the first ended
    assert second < first
    assert disk.stats["seq_writes"] == 1
    assert disk.stats["rand_writes"] == 1


def test_random_write_pays_seek(disk):
    a = disk.allocate(4096)
    disk.allocate(4096)
    c = disk.allocate(4096)
    disk.write(a, b"x" * 4096)
    busy_before = disk.busy_ns
    disk.write(c, b"y" * 4096)  # skips a block: random
    charged = disk.busy_ns - busy_before
    assert charged >= 60_000
    assert disk.stats["rand_writes"] == 2


def test_min_io_floor_applies_to_tiny_requests(disk):
    a = disk.allocate(16)
    disk.write(a, b"z" * 16)
    # A sequential-position re-write of 16 bytes transfers in 32 ns but must
    # still pay the command-overhead floor.
    busy_before = disk.busy_ns
    disk._last_write_end = a  # force the sequential path
    disk.write(a, b"z" * 16)
    assert disk.busy_ns - busy_before == 8_000


def test_stats_track_bytes(disk):
    a = disk.allocate(4096)
    disk.write(a, b"x" * 4096)
    disk.read(a)
    assert disk.stats["bytes_written"] == 4096
    assert disk.stats["bytes_read"] == 4096
    assert disk.stats["reads"] == 1
    assert disk.stats["writes"] == 1


def test_free_releases_space(disk):
    a = disk.allocate(4096)
    disk.write(a, b"x" * 100)
    assert disk.used_bytes == 100
    disk.free(a)
    assert disk.used_bytes == 0
    assert disk.stats["bytes_freed"] == 100


def test_free_unknown_offset_is_noop(disk):
    disk.free(999)
    assert disk.stats["bytes_freed"] == 0


def test_rewrite_in_place_replaces_blob(disk):
    a = disk.allocate(4096)
    disk.write(a, b"old" * 10)
    disk.write(a, b"new-data")
    assert disk.read(a) == b"new-data"


def test_snapshot_supports_delta_sampling(disk):
    a = disk.allocate(4096)
    disk.write(a, b"x" * 4096)
    busy, counts = disk.snapshot()
    disk.read(a)
    assert disk.busy_ns > busy
    assert disk.stats.delta(counts) == {"reads": 1, "bytes_read": 4096, "rand_reads": 1}


@pytest.mark.parametrize("mutable", [bytearray(b"page"), memoryview(b"page")])
def test_write_refuses_mutable_buffers(disk, mutable):
    a = disk.allocate(4096)
    with pytest.raises(TypeError):
        disk.write(a, mutable)
    assert not disk.contains(a)
    assert disk.stats["writes"] == 0
    assert disk.busy_ns == 0


def test_read_returns_the_blob_as_written(disk):
    class Image:
        def __len__(self):
            return 300

    a = disk.allocate(4096)
    image = Image()
    disk.write(a, image)
    assert disk.read(a) is image
    assert disk.used_bytes == disk.stats["bytes_written"] == disk.stats["bytes_read"] == 300
