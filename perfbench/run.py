"""Run the repository benchmark.

    python3 perfbench/run.py                          # every workload, one process each
    python3 perfbench/run.py --workload ycsb_a_art_lsm --seed 3 --seconds 30
    python3 perfbench/run.py --workload shift_sharded --trace 1   # per-layer metrics

A run prints a table (every metric with its unit and sample count, plus
host metadata) and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 1 when
an output was wrong or the deterministic metrics did not repeat, and 2
when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: a run repeats whole rounds at least this often (the set-up median).
MIN_ROUNDS = 3


def host_info() -> dict[str, Any]:
    """Python version, platform, processor count and CPU model."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> int:
    from perfbench import harness
    from perfbench.metrics import COUNT_UNITS
    from perfbench.spans import Recorder, layer_unit
    from perfbench.workloads import WORKLOADS, generate, scaled

    workload = WORKLOADS[name]
    if scale != 1.0:
        workload = scaled(workload, scale)
    inputs = generate(workload, seed)
    host = host_info()
    print(f"# workload {name}  seed {seed}  trace {int(trace)}  scale {scale}")
    print(f"# host {json.dumps(host)}")
    print(
        f"# {workload.records} records, limit {workload.memory_limit_bytes} B, "
        f"{workload.warmup_ops} warm-up + {workload.measured_ops} measured ops, "
        f"{workload.scan_probe_ops} probe scans; closed loop, 1 client"
    )

    started = perf_counter()
    rounds = [harness.run_round(workload, inputs)]
    checked = rounds
    layer: dict[str, float] = {}
    if trace:
        # Untraced, traced, untraced: the overhead compares the traced
        # round with both neighbours, so a drift in host speed cancels.
        recorder = Recorder()
        recorder.install()
        try:
            traced = harness.run_round(workload, inputs, recorder=recorder)
        finally:
            recorder.uninstall()
        rounds.append(harness.run_round(workload, inputs))
        checked = rounds + [traced]
        layer = recorder.layer_metrics(workload.measured_ops)
        layer["bench.trace_overhead"] = traced.measured_ns / statistics.mean(
            r.measured_ns for r in rounds
        )
        spans_at = recorder.dump(OUT_DIR, f"spans-{name}")
        print(f"# {len(recorder.starts)} spans written to {spans_at.relative_to(ROOT)}")
    else:
        while len(rounds) < MIN_ROUNDS or (
            perf_counter() - started + (perf_counter() - started) / len(rounds) <= seconds
        ):
            rounds.append(harness.run_round(workload, inputs))
    # A traced run's end-to-end table comes from its untraced rounds;
    # the traced round joins only the correctness and determinism checks.
    summary = harness.summarize(workload, checked)
    if trace:
        summary["values"] = harness.summarize(workload, rounds)["values"]
    summary["values"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1
    )
    print(
        f"# {summary['rounds']} rounds in {perf_counter() - started:.1f} s; times scaled "
        f"by {summary['host_scale']:.3f} to the reference host on median"
    )

    units = {**COUNT_UNITS, **{metric: layer_unit(metric) for metric in layer}}
    per_layer = {**layer, **summary["counts"]}
    for metric, (value, unit, samples) in summary["values"].items():
        print(f"{metric:40s} {_fmt(value):>14s} {unit:10s} n={samples}")
    if trace:
        for metric in sorted(per_layer):
            print(f"{metric:40s} {_fmt(per_layer[metric]):>14s} {units[metric]}")
    for problem in summary["problems"]:
        print(f"# FAILED: {problem}")

    if trace:
        reported = {m: {"value": per_layer[m], "unit": units[m]} for m in sorted(per_layer)}
    else:
        reported = {
            m: {"value": value, "unit": unit}
            for m, (value, unit, __) in summary["values"].items()
            if m != "error_rate"
        }
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "scale": scale,
        "host": host,
        "summary": {k: v for k, v in summary.items() if k != "values"},
        "end_to_end": {
            m: {"value": v, "unit": u, "samples": n} for m, (v, u, n) in summary["values"].items()
        },
        "per_layer": reported if trace else {},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(
        json.dumps(
            {
                "correct": summary["correct"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": reported,
            }
        )
    )
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="wall time of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink sizes (smoke runs)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload is not None:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)

    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", str(args.scale),
        ]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
