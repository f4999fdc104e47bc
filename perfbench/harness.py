"""Closed-loop, single-client harness with a reference-model output check.

One client sends each op only after the previous one returned, the way
an embedded index is called.  A *round* builds a fresh system, loads it
(set-up), runs the warm-up ops untimed, then the measured ops with each
public call timed from outside with ``perf_counter_ns``, with bursts of
probe scans between measured segments.  Every read and scan result is
compared with a dict model of all writes; an exception or a wrong answer
counts as a failed op.

Every timed interval is scaled to the reference host's speed by a
calibration pass taken just before it (:func:`host_scale`).  Rounds
repeat the identical op stream, so a run pools their latency samples,
reports the median throughput and set-up time, and checks that every
round's deterministic metrics are identical.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Optional, TypeVar

from perfbench import metrics
from perfbench.spans import Recorder
from perfbench.workloads import KIND_NAMES, READ, WRITE, Inputs, Op, Workload
from repro.art.keys import encode_int
from repro.systems.base import KVSystem
from repro.systems.factory import build_system

#: keep this many failure descriptions per round.
_MAX_ERRORS = 5
#: measured segments per round; probe scan bursts run between them.
SEGMENTS = 10
#: wall time of one :func:`host_scale` calibration pass on the reference
#: host (a quiet 2-vCPU Intel Xeon, Python 3.11).
CALIBRATION_NS = 14_000_000

SystemHook = Callable[[KVSystem], Any]
_T = TypeVar("_T")


def host_scale() -> float:
    """Reference host speed over this host's speed right now.

    Times one fixed pure-Python pass.  Other tenants of a shared host
    slow everything down together, by up to a fifth for seconds at a
    time, so every timed interval is multiplied by the scale taken just
    before it: the benchmark reports times as the reference host would
    have measured them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        table = {i.to_bytes(8, "big"): i for i in range(20_000)}
        b"".join(table)
        elapsed = perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()
    return CALIBRATION_NS / elapsed


@dataclass
class Round:
    """What one round measured."""

    setup_s: float
    measured_ns: float
    latencies: dict[str, list[float]]
    #: median :func:`host_scale` over the round's measured segments.
    host_scale: float
    attempted: int
    failed: int
    errors: list[str]
    sim: dict[str, float]
    counts: dict[str, float]


@dataclass
class OpRunner:
    """Sends ops to a client and checks every answer."""

    client: Any
    inputs: Inputs
    model: dict[int, bytes]
    recorder: Optional[Recorder] = None
    #: every duration is multiplied by this (see :func:`host_scale`).
    scale: float = 1.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < _MAX_ERRORS:
            self.errors.append(what)

    def run(self, ops: list[Op], latencies: Optional[dict[str, list[float]]]) -> float:
        """Send ``ops`` in order; returns the scaled ns spent inside the calls.

        With ``latencies`` given, each call's scaled duration is appended
        to the list of its op kind.
        """
        client, model, recorder, scale = self.client, self.model, self.recorder, self.scale
        read, insert, scan = client.read, client.insert, client.scan
        spent = 0
        for kind, key, arg in ops:
            if recorder is not None:
                recorder.op_id = self.attempted
            self.attempted += 1
            try:
                if kind == READ:
                    start = perf_counter_ns()
                    got = read(key)
                    elapsed = perf_counter_ns() - start
                    expected: Any = model[key]
                elif kind == WRITE:
                    start = perf_counter_ns()
                    insert(key, arg)
                    elapsed = perf_counter_ns() - start
                    model[key] = got = expected = arg
                else:
                    start = perf_counter_ns()
                    got = scan(key, arg)
                    elapsed = perf_counter_ns() - start
                    expected = [
                        (encode_int(k), v)
                        for k, v in self.inputs.expected_scan(model, key, arg)
                    ]
            except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
                self._fail(f"{KIND_NAMES[kind]}({key}) raised {exc!r}")
                continue
            spent += elapsed
            if latencies is not None:
                latencies[KIND_NAMES[kind]].append(elapsed * scale)
            if got != expected:
                self._fail(f"{KIND_NAMES[kind]}({key}, {arg!r}) returned a wrong answer")
        return spent * scale


def _set_up(
    workload: Workload, inputs: Inputs, system_hook: Optional[SystemHook]
) -> tuple[KVSystem, Any, float]:
    """Build the system and load it; returns it with the scaled set-up seconds.

    The load is timed in :data:`SEGMENTS` chunks, each scaled by a
    calibration pass taken just before it (and left out of the time).
    """
    scale = host_scale()
    start = perf_counter_ns()
    system = build_system(
        workload.system,
        memory_limit_bytes=workload.memory_limit_bytes,
        **workload.system_kwargs,
    )
    client = system if system_hook is None else system_hook(system)
    insert = client.insert
    elapsed = 0.0
    for chunk in _split(inputs.load, SEGMENTS):
        for key, value in chunk:
            insert(key, value)
        elapsed += (perf_counter_ns() - start) * scale
        scale = host_scale()
        start = perf_counter_ns()
    client.flush()
    elapsed += (perf_counter_ns() - start) * scale
    return system, client, elapsed / 1e9


def run_round(
    workload: Workload,
    inputs: Inputs,
    recorder: Optional[Recorder] = None,
    system_hook: Optional[SystemHook] = None,
) -> Round:
    """Build, load and drive one fresh system through the whole stream.

    ``recorder`` records spans during the measured phase only.
    ``system_hook`` wraps the system before any op is sent (tests use
    it to inject faults); counters are always read from the real system.
    """
    system, client, setup_s = _set_up(workload, inputs, system_hook)
    runner = OpRunner(client, inputs, dict(inputs.load), recorder)
    runner.run(inputs.warmup, None)
    latencies: dict[str, list[float]] = {name: [] for name in KIND_NAMES}
    # Probe scans run in bursts between measured segments, so they see
    # the store in many states; the counters skip them, which keeps
    # throughput and sim_* about the mix alone.
    windows = []
    scales = []
    measured_ns = 0.0
    for segment, burst in zip(
        _split(inputs.measured, SEGMENTS), _split(inputs.probe, SEGMENTS), strict=True
    ):
        runner.scale = host_scale()
        scales.append(runner.scale)
        before = metrics.snapshot(system)
        if recorder is not None:
            recorder.active = True
        try:
            measured_ns += runner.run(segment, latencies)
        finally:
            if recorder is not None:
                recorder.active = False
        windows.append((before, metrics.snapshot(system)))
        runner.run(burst, latencies)
    measured = _written(inputs.measured)
    sim, counts = metrics.derive(
        system,
        windows,
        ops=len(inputs.measured),
        user_bytes_written=measured,
        lifetime_user_bytes=(
            16 * len(inputs.load) + _written(inputs.warmup) + measured
        ),
        live_user_bytes=len(runner.model) * 16,
    )
    del system, client
    gc.collect()
    return Round(
        setup_s=setup_s,
        measured_ns=measured_ns,
        latencies=latencies,
        host_scale=statistics.median(scales),
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        sim=sim,
        counts=counts,
    )


def _written(ops: list[Op]) -> int:
    """User bytes (8-byte key plus value) the writes in ``ops`` carry."""
    return sum(8 + len(arg) for kind, __, arg in ops if kind == WRITE)


def _split(items: list[_T], parts: int) -> list[list[_T]]:
    """``items`` cut into ``parts`` consecutive, nearly equal pieces."""
    bounds = [len(items) * i // parts for i in range(parts + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _us(sorted_ns: list[float], q: float) -> float:
    return metrics.percentile(sorted_ns, q) / 1e3


def summarize(workload: Workload, rounds: list[Round]) -> dict[str, Any]:
    """End-to-end metrics of a run, with sample counts and correctness.

    Throughput and set-up time are medians of their per-round values;
    latency percentiles are taken over the samples of all rounds, which
    the printed sample count covers.
    """
    first = rounds[0]
    problems = [error for r in rounds for error in r.errors]
    deterministic = all(r.sim == first.sim and r.counts == first.counts for r in rounds)
    if not deterministic:
        problems.append("deterministic metrics differ between identical rounds")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    median = statistics.median
    values: dict[str, tuple[float, str, int]] = {
        "throughput_ops_s": (
            median(workload.measured_ops / (r.measured_ns / 1e9) for r in rounds),
            "ops/s",
            workload.measured_ops,
        ),
    }
    for kind in KIND_NAMES:
        pooled = sorted(ns for r in rounds for ns in r.latencies[kind])
        for q in (50, 99):
            values[f"{kind}_p{q}_us"] = (_us(pooled, q), "us", len(pooled))
    values["setup_s"] = (median(r.setup_s for r in rounds), "s", len(rounds))
    values["error_rate"] = (failed / attempted, "ratio", attempted)
    for name, unit in metrics.SIM_UNITS.items():
        values[name] = (first.sim[name], unit, 1)
    return {
        "values": values,
        "counts": first.counts,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and deterministic,
        "problems": problems,
        "rounds": len(rounds),
        "host_scale": median(r.host_scale for r in rounds),
    }
