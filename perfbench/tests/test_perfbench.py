"""Tests of the benchmark itself: metric output, the output check, the
self-time arithmetic and the determinism of the counted metrics.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import harness, run  # noqa: E402
from perfbench.metrics import COUNT_UNITS  # noqa: E402
from perfbench.spans import self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, generate, scaled  # noqa: E402

SMOKE = 0.05
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--seconds", "0", "--scale", str(SMOKE), *args])
    return code, out.getvalue()


def test_benchmark_json_names_the_workloads() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload: str) -> None:
    code, text = _run("--workload", workload)
    assert code == 0, text
    result = json.loads(text.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.split()[:1] == [metric["name"]] and " n=" in line
            for line in text.splitlines()
        ), f"{metric['name']} missing from the table"
    assert any(line.startswith("error_rate ") for line in text.splitlines())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_run_prints_every_per_layer_metric(workload: str) -> None:
    code, text = _run("--workload", workload, "--trace", "1")
    # correct also proves the traced round's counts equal the untraced one's
    assert code == 0, text
    result = json.loads(text.strip().splitlines()[-1])
    assert result["correct"] is True
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["bench.trace_overhead"]["value"] > 0


class _StaleReads:
    """Serves every read from the first value ever written to the key."""

    def __init__(self, system: object) -> None:
        self.system = system
        self.first: dict[int, bytes] = {}

    def insert(self, key: int, value: bytes) -> None:
        self.first.setdefault(key, value)
        self.system.insert(key, value)  # type: ignore[attr-defined]

    def read(self, key: int) -> bytes | None:
        value = self.system.read(key)  # type: ignore[attr-defined]
        return self.first.get(key, value)

    def scan(self, key: int, count: int) -> list[tuple[bytes, bytes]]:
        return self.system.scan(key, count)  # type: ignore[attr-defined]

    def flush(self) -> None:
        self.system.flush()  # type: ignore[attr-defined]


def test_injected_stale_read_drives_error_rate_above_zero() -> None:
    workload = scaled(WORKLOADS["ycsb_a_art_lsm"], SMOKE)
    inputs = generate(workload, seed=3)
    rounds = [harness.run_round(workload, inputs, system_hook=_StaleReads)]
    summary = harness.summarize(workload, rounds)
    assert summary["failed"] > 0
    assert summary["values"]["error_rate"][0] > 0
    assert summary["correct"] is False
    honest = harness.summarize(workload, [harness.run_round(workload, inputs)])
    assert honest["values"]["error_rate"][0] == 0 and honest["correct"] is True


def test_self_time_on_a_hand_built_span_tree() -> None:
    # root [0, 100]
    #   a [10, 40]
    #     a1 [15, 25]
    #   b [50, 70]
    #   c [60, 80]   overlaps b: the union [50, 80] counts once
    #   d [90, 120]  sticks out: only [90, 100] is covered
    starts = [0, 10, 15, 50, 60, 90]
    ends = [100, 40, 25, 70, 80, 120]
    parents = [-1, 0, 1, 0, 0, 0]
    assert self_times(starts, ends, parents) == [100 - 30 - 30 - 10, 30 - 10, 10, 20, 20, 30]


def _counted(workload_name: str, seed: int) -> tuple[dict[str, float], dict[str, float]]:
    workload = scaled(WORKLOADS[workload_name], SMOKE)
    r = harness.run_round(workload, generate(workload, seed))
    return r.sim, r.counts


def test_deterministic_metrics_repeat_for_a_seed_and_move_with_another() -> None:
    first = _counted("ycsb_a_art_lsm", 5)
    assert _counted("ycsb_a_art_lsm", 5) == first
    assert _counted("ycsb_a_art_lsm", 6) != first


def test_deterministic_metrics_repeat_across_processes() -> None:
    """Same seed in two fresh processes with different hash seeds."""
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "shift_sharded",
             "--seed", "4", "--seconds", "0", "--scale", str(SMOKE), "--trace", "1"],
            capture_output=True, text=True, env=env, check=True, timeout=300,
        )
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        results.append({name: metrics[name]["value"] for name in COUNT_UNITS})
    assert results[0] == results[1]
