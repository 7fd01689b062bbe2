"""Runs one workload in this process and prints its figures as one JSON line.

    python3 perfbench/worker.py --workload hexagon_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/worker.py --workload hexagon_sweep --seed 1 --setup-only

``perfbench/run.py`` starts this script in a fresh interpreter with
``src`` on ``PYTHONPATH``; it is not meant to be the user's entry point.

A run repeats whole passes over the workload's instances until
``--seconds`` have gone by.  With ``--trace 0`` it takes each instance's
median time over the passes and reports their sum (``wall_s``), their
median and their tail.
With ``--trace 1`` the first half of the time runs untraced passes, the
second half a traced set-up and traced passes; the layer figures are for
one set-up plus one pass, and every wrapper is removed before the report.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import random
import resource
import statistics
import time

from spans import Span, Tracer, has_ancestor, layer_totals, root_time, self_times
from workloads import WORKLOADS, Workload

import lozenge.cli
import lozenge.count
import lozenge.exact
import lozenge.formulas
import lozenge.lattice
import lozenge.regions
import lozenge.verify


def _arg(args: tuple, kwargs: dict, name: str):
    return args[0] if args else kwargs[name]


def _bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def layer_table() -> dict:
    """Span name -> (function, counts taken at its boundary)."""
    table = {
        "count.count_oracle": (
            lozenge.count.count_oracle,
            lambda a, k, r: {"cells": len(_arg(a, k, "r").cells)},
        ),
        "count.count_gv": (lozenge.count.count_gv, None),
        "count.gv_matrix": (lozenge.count.gv_matrix, lambda a, k, r: {"n": r[1].rows}),
        "exact.determinant": (
            lozenge.exact.determinant,
            lambda a, k, r: {"n": _arg(a, k, "m").rows, "bits": _bits(r)},
        ),
        "regions.hexagon": (lozenge.regions.hexagon, None),
        "regions.windowed_hexagon": (lozenge.regions.windowed_hexagon, None),
        "regions.canonical_hexagon": (lozenge.regions.canonical_hexagon, None),
        "regions.zigzag_walk": (lozenge.regions.zigzag_walk, None),
        "lattice.symmetry_axis_cut": (lozenge.lattice.symmetry_axis_cut, None),
        "lattice.eliminate_forced": (lozenge.lattice.eliminate_forced, None),
        "lattice.vertebra_labels": (lozenge.lattice.vertebra_labels, None),
    }
    # every public function of the modules that orchestrate or evaluate
    # formulas; none of them sits in an inner loop
    for module in (lozenge.formulas, lozenge.verify, lozenge.cli):
        short = module.__name__.rsplit(".", 1)[1]
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                table[f"{short}.{name}"] = (fn, None)
    return table


# per-layer metric -> span names whose self time or calls it sums
SELF_METRICS = {
    "count.count_oracle.self_s": ["count.count_oracle"],
    "count.gv_matrix.self_s": ["count.gv_matrix"],
    "count.count_gv.self_s": ["count.count_gv"],
    "exact.determinant.self_s": ["exact.determinant"],
    "regions.hexagon.self_s": ["regions.hexagon"],
    "regions.windowed_hexagon.self_s": ["regions.windowed_hexagon"],
    "regions.canonical_hexagon.self_s": ["regions.canonical_hexagon"],
    "regions.zigzag_walk.self_s": ["regions.zigzag_walk"],
    "verify.window_placements.self_s": ["verify.window_placements"],
    "lattice.symmetry_axis_cut.self_s": ["lattice.symmetry_axis_cut"],
    "lattice.eliminate_forced.self_s": ["lattice.eliminate_forced"],
    "lattice.vertebra_labels.self_s": ["lattice.vertebra_labels"],
    "formulas.p_poly.self_s": ["formulas.p_poly", "formulas.bar_p_poly"],
    "formulas.b_poly.self_s": ["formulas.b_poly", "formulas.bar_b_poly"],
}
CALL_METRICS = {
    "count.count_oracle.calls": ["count.count_oracle"],
    "count.gv_matrix.calls": ["count.gv_matrix"],
    "count.count_gv.calls": ["count.count_gv"],
    "exact.determinant.calls": ["exact.determinant"],
    "regions.zigzag_walk.calls": ["regions.zigzag_walk"],
}
SUM_METRICS = {"count.count_oracle.cells": ("count.count_oracle", "cells")}
MAX_METRICS = {
    "count.count_oracle.max_cells": ("count.count_oracle", "cells"),
    "count.gv_matrix.max_n": ("count.gv_matrix", "n"),
    "exact.determinant.max_n": ("exact.determinant", "n"),
    "exact.determinant.max_bits": ("exact.determinant", "bits"),
}
MODULES = ("formulas", "verify", "cli")


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Additive layer figures of one traced phase, plus its largest counts."""
    totals = layer_totals(spans)
    out: dict[str, float] = {}
    for metric, names in SELF_METRICS.items():
        out[metric] = sum(totals[n].self_s for n in names if n in totals)
    for metric, names in CALL_METRICS.items():
        out[metric] = sum(totals[n].calls for n in names if n in totals)
    for metric, (name, key) in SUM_METRICS.items():
        out[metric] = totals[name].sums.get(key, 0) if name in totals else 0
    for metric, (name, key) in MAX_METRICS.items():
        out[metric] = totals[name].maxima.get(key, 0) if name in totals else 0
    for module in MODULES:
        out[f"{module}.self_s"] = sum(t.self_s for n, t in totals.items() if n.startswith(module + "."))
    out["formulas.calls"] = sum(t.calls for n, t in totals.items() if n.startswith("formulas."))
    out["walks_under_gv"] = sum(
        1 for i, s in enumerate(spans)
        if s.name == "regions.zigzag_walk" and has_ancestor(spans, i, "count.count_gv")
    )
    out["trace.spans"] = len(spans)
    return out


def combine(setup: dict[str, float], passes: list[dict[str, float]]) -> dict[str, float]:
    """One set-up plus the mean pass; largest counts over everything."""
    out = {}
    for metric, value in setup.items():
        if metric in MAX_METRICS:
            out[metric] = max([value] + [p[metric] for p in passes])
        else:
            out[metric] = value + sum(p[metric] for p in passes) / len(passes)
    walks, gv_calls = out.pop("walks_under_gv"), out["count.count_gv.calls"]
    out["count.zigzag_walk_per_gv"] = walks / gv_calls if gv_calls else 0.0
    return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it; 100
    (the largest sample) when there are fewer than twenty samples."""
    for p in range(99, 49, -1):
        if n * (100 - p) / 100 >= 10:
            return p
    return 100


def percentile(values: list[float], p: int) -> float:
    if p == 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timed_passes(workload: Workload, instances: list, rng: random.Random, until: float, after_pass=None):
    """Whole passes until the clock passes ``until`` (at least one).

    ``after_pass(wall)`` runs after each pass, outside the timed region.
    """
    walls, per_instance, attempted, failed = [], {}, 0, 0
    while True:
        gc.collect()
        start = time.perf_counter()
        times, bad = workload.run_pass(instances, rng)
        walls.append(time.perf_counter() - start)
        if after_pass is not None:
            after_pass(walls[-1])
        for key, seconds in times.items():
            per_instance.setdefault(key, []).append(seconds)
        attempted += max(len(times), 1)
        failed += bad
        if time.perf_counter() >= until:
            return walls, per_instance, attempted, failed


def measure(workload: Workload, seed: int, seconds: float) -> dict:
    instances = workload.make(seed)
    rng = random.Random(seed)
    walls, per_instance, attempted, failed = timed_passes(
        workload, instances, rng, time.perf_counter() + seconds
    )
    # the machine's speed changes in phases; an instance's median over the
    # passes follows the usual speed, where its fastest repeat depends on
    # whether a rare fast phase happened to cover it
    typical = [statistics.median(v) for v in per_instance.values()]
    tail_p = tail_percentile(len(typical))
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": len(walls),
        "pass_median_s": statistics.median(walls),
        "wall_s": sum(typical),
        "instances": len(typical),
        "instance_p50_ms": statistics.median(typical) * 1e3,
        "instance_tail_ms": percentile(typical, tail_p) * 1e3,
        "tail_percentile": tail_p,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(workload: Workload, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    instances = workload.make(seed)
    rng = random.Random(seed)
    plain_walls, _, attempted, failed = timed_passes(workload, instances, rng, start + seconds / 2)
    tracer = Tracer()
    pass_figures, unattributed = [], []
    consistent = True

    def reduce_pass(wall: float) -> None:
        nonlocal consistent
        spans = tracer.take()
        # self times must add up to the root spans and never go negative,
        # and the root spans must fit inside the pass
        own = self_times(spans)
        roots = root_time(spans)
        consistent &= abs(sum(own) - roots) <= 1e-6 and min(own, default=0.0) >= -1e-6
        consistent &= roots <= wall
        unattributed.append(wall - roots)
        pass_figures.append(span_metrics(spans))

    tracer.install(layer_table())
    try:
        workload.make(seed)
        setup = span_metrics(tracer.take())
        traced_walls, _, traced_attempted, traced_failed = timed_passes(
            workload, instances, rng, start + seconds, reduce_pass
        )
    finally:
        tracer.remove()
    layers = combine(setup, pass_figures)
    layers["trace.traced_wall_s"] = statistics.median(traced_walls)
    layers["trace.untraced_wall_s"] = statistics.median(plain_walls)
    layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
    layers["trace.unattributed_s"] = statistics.median(unattributed)
    return {
        "attempted": attempted + traced_attempted,
        "failed": failed + traced_failed,
        "consistent": consistent,
        "layers": layers,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        result = {"instances": len(workload.make(args.seed))}
    elif args.trace:
        result = measure_traced(workload, args.seed, args.seconds)
    else:
        result = measure(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
