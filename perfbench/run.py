"""Benchmark of the lozenge package: four exact-count workloads.

Run from the root of the repository:

    python3 perfbench/run.py --workload hexagon_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each workload runs in its own fresh, single-threaded interpreter
(``perfbench/worker.py``) as a closed loop with one client.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` a
traced run prints the per-layer metrics.  Every line before the last names
one metric with its value and unit; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--workload all`` the metric names carry a ``<workload>.`` prefix.

The set-up time is the median over a few fresh interpreters that import
``lozenge`` and build the workload's instances, timed from process start to
exit.  The script exits with 2, printing no result, when ``src/lozenge`` is
missing next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# the names in workloads.py, repeated so that this process never imports lozenge
WORKLOADS = ("zigzag_sweep", "hexagon_sweep", "count_ladder", "verify_cli")
SETUP_REPEATS = 9
DEADLINE_S = 170  # one workload, set-up included; the run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_p50_ms": "ms",
    "instance_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {"calls": "count", "cells": "count", "max_cells": "count", "max_n": "count",
               "max_bits": "bits", "spans": "count", "zigzag_walk_per_gv": "ratio"}


class BenchError(Exception):
    pass


def _worker(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run the worker to completion; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker {' '.join(args)} ran past {timeout:.0f} s") from exc
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1]), elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int, list[str]]:
    """Metrics, attempted, failed, and notes for one workload."""
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    if trace:
        result, _ = _worker(common + ["--seconds", str(seconds), "--trace", "1"], DEADLINE_S)
        metrics = {}
        for metric, value in result["layers"].items():
            unit = LAYER_UNITS.get(metric.rsplit(".", 1)[-1], "s")
            metrics[metric] = {"value": value, "unit": unit}
        notes = [f"spans consistent with pass walls: {result['consistent']}"]
        failed = result["failed"] + (not result["consistent"])
        return metrics, result["attempted"], failed, notes

    setups = []
    for _ in range(SETUP_REPEATS):
        _, elapsed = _worker(common + ["--setup-only"], min(60, deadline - time.perf_counter()))
        setups.append(elapsed)
    remaining = deadline - time.perf_counter()
    result, _ = _worker(common + ["--seconds", str(seconds), "--trace", "0"], remaining)
    result["setup_s"] = statistics.median(setups)
    metrics = {m: {"value": result[m], "unit": unit} for m, unit in END_TO_END_UNITS.items()}
    notes = [
        f"passes {result['passes']}, instances {result['instances']}, median pass {result['pass_median_s']:.6g} s",
        f"instance_tail_ms is p{result['tail_percentile']} of {result['instances']} per-instance median times",
        f"failed_frac {result['failed'] / result['attempted']:.6g} (attempted and failed in the JSON)",
    ]
    return metrics, result["attempted"], result["failed"], notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lozenge" / "__init__.py").is_file():
        print(f"error: no lozenge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined, attempted, failed = {}, 0, 0
    try:
        for name in names:
            metrics, n_attempted, n_failed, notes = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(f"# {name} seed={args.seed} trace={args.trace} attempted={n_attempted} failed={n_failed}")
            for note in notes:
                print(f"#   {note}")
            for metric, entry in metrics.items():
                print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
                combined[f"{name}.{metric}" if len(names) > 1 else metric] = entry
            attempted += n_attempted
            failed += n_failed
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
