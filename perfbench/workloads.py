"""The benchmark's workloads and their seeded op streams.

Every op stream is generated from the ``--seed`` argument and fully
materialized before any timing starts; the system under test only ever
sees the resulting public calls.  Each write carries a distinct value
(a tag byte plus the record id or op index), so a stale or misrouted
read returns bytes the reference model can tell apart.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Any

from repro.workloads.distributions import ScrambledZipfianGenerator, ZipfianGenerator
from repro.workloads.ycsb import sparse_key

READ, WRITE, SCAN = 0, 1, 2
KIND_NAMES = ("read", "write", "scan")

#: one operation: (kind, key, value for writes or length for scans)
Op = tuple[int, int, Any]

_LOAD_TAG = 1 << 56
_WRITE_TAG = 2 << 56
_FIXED_SEED = 7
#: scan lengths are uniform in 1..MAX_SCAN_LENGTH (YCSB's default).
MAX_SCAN_LENGTH = 100


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: system, data size, op mix and key skew."""

    name: str
    system: str
    memory_limit_bytes: int
    records: int
    warmup_ops: int
    measured_ops: int
    read: float
    update: float
    scan: float
    theta: float
    #: clustered Zipf over sorted key positions (spatial hot range)
    #: instead of YCSB's scrambled Zipf over record ids.
    clustered: bool = False
    #: how many positions the hot range takes in turn during warm-up
    #: plus the measured phase (1 = it never moves).
    phases: int = 1
    #: scans sent in bursts between measured segments, outside the
    #: mix, for workloads whose mix has no scans.
    scan_probe_ops: int = 0
    system_kwargs: dict[str, Any] = field(default_factory=dict)
    #: replay one fixed load order and op stream whatever the seed; the
    #: seed then only enters the written values.  For fleets whose
    #: rebalancing reacts chaotically to small input changes, so that
    #: run-to-run spread measures the code and the host, not the seed.
    fixed_stream: bool = False


#: the benchmark's workloads; why each exists and which layers it
#: exercises is in BENCHMARK.json and perfbench/README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ycsb_a_art_lsm",
            system="ART-LSM",
            memory_limit_bytes=256 * 1024,
            records=40_000,
            warmup_ops=5_000,
            measured_ops=40_000,
            read=0.5,
            update=0.5,
            scan=0.0,
            theta=0.7,
            scan_probe_ops=1_000,
        ),
        Workload(
            name="ycsb_a_bplus",
            system="B+-B+",
            memory_limit_bytes=256 * 1024,
            records=40_000,
            warmup_ops=5_000,
            measured_ops=40_000,
            read=0.5,
            update=0.5,
            scan=0.0,
            theta=0.7,
            scan_probe_ops=1_000,
        ),
        Workload(
            name="shift_sharded",
            system="Sharded",
            memory_limit_bytes=128 * 1024,
            records=20_000,
            warmup_ops=5_000,
            measured_ops=60_000,
            read=0.90,
            update=0.05,
            scan=0.05,
            theta=0.99,
            clustered=True,
            phases=12,
            fixed_stream=True,
            system_kwargs=dict(
                base_system="ART-LSM",
                shards=4,
                partitioner="weighted",
                workers=0,
                # One 8-key drain chunk per op: about 6% of ops carry a
                # drain, so read and write p99 sit inside the drain
                # population instead of on its edge near 1%.  A large
                # sample ring makes split keys repeatable.
                rebalance="chunk:8+drain:1+samples:1024",
                budget="on",
            ),
        ),
    )
}


def scaled(workload: Workload, factor: float) -> Workload:
    """A proportionally smaller copy of ``workload`` (smoke tests)."""
    return replace(
        workload,
        memory_limit_bytes=max(64 * 1024, int(workload.memory_limit_bytes * factor)),
        records=max(100, int(workload.records * factor)),
        warmup_ops=int(workload.warmup_ops * factor),
        measured_ops=max(100, int(workload.measured_ops * factor)),
        scan_probe_ops=int(workload.scan_probe_ops * factor),
    )


@dataclass
class Inputs:
    """A materialized op stream for one workload and seed."""

    load: list[tuple[int, bytes]]
    warmup: list[Op]
    measured: list[Op]
    probe: list[Op]
    sorted_keys: list[int]

    def expected_scan(
        self, model: dict[int, bytes], start: int, count: int
    ) -> list[tuple[int, bytes]]:
        """What a correct ``scan(start, count)`` returns under ``model``.

        Every workload writes only keys that the load phase created, so
        the sorted key list never changes.
        """
        keys = self.sorted_keys
        i = bisect_left(keys, start)
        return [(k, model[k]) for k in keys[i : i + count]]


def generate(workload: Workload, seed: int) -> Inputs:
    """Materialize the load order and every phase's ops for ``seed``."""
    rng = random.Random(_FIXED_SEED if workload.fixed_stream else seed)
    write_tag = _WRITE_TAG | (seed & 0xFFFF) << 32
    n = workload.records
    keys = [sparse_key(record) for record in range(n)]
    if len(set(keys)) != n:
        raise ValueError(f"sparse keys collide at {n} records")
    order = list(range(n))
    rng.shuffle(order)
    load = [(keys[r], (_LOAD_TAG | r).to_bytes(8, "big")) for r in order]
    sorted_keys = sorted(keys)

    if workload.clustered:
        zipf = ZipfianGenerator(n, workload.theta, seed=rng.randrange(1 << 30))
        mixed = workload.warmup_ops + workload.measured_ops
        span = max(1, -(-mixed // workload.phases))

        def pick(index: int) -> int:
            # The hot range starts an eighth into the key space and moves
            # on by 1/phases of it at each phase boundary, sweeping the
            # hot spot through every shard's range.
            phase = min(index // span, workload.phases - 1)
            offset = (n // 8 + phase * n // workload.phases) % n
            return sorted_keys[(offset + zipf.next()) % n]

    else:
        scrambled = ScrambledZipfianGenerator(n, workload.theta, seed=rng.randrange(1 << 30))

        def pick(index: int) -> int:
            return keys[scrambled.next()]

    ops: list[Op] = []
    read_cut = workload.read
    write_cut = workload.read + workload.update
    for index in range(workload.warmup_ops + workload.measured_ops):
        key = pick(index)
        draw = rng.random()
        if draw < read_cut:
            ops.append((READ, key, None))
        elif draw < write_cut:
            ops.append((WRITE, key, (write_tag | index).to_bytes(8, "big")))
        else:
            ops.append((SCAN, key, rng.randint(1, MAX_SCAN_LENGTH)))
    probe = [
        (SCAN, pick(workload.warmup_ops + workload.measured_ops - 1),
         rng.randint(1, MAX_SCAN_LENGTH))
        for __ in range(workload.scan_probe_ops)
    ]
    return Inputs(
        load=load,
        warmup=ops[: workload.warmup_ops],
        measured=ops[workload.warmup_ops :],
        probe=probe,
        sorted_keys=sorted_keys,
    )
