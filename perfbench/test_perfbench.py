"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import lozenge
import lozenge.count
import lozenge.exact
import lozenge.verify
import pytest
import workloads
import worker
from spans import Span, Tracer, has_ancestor, layer_totals, root_time, self_times


def synthetic_tree() -> list[Span]:
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; e [12, 13] is a second root
    return [
        Span("a", 0.0, 10.0),
        Span("b", 1.0, 4.0, parent=0, counts={"cells": 5}),
        Span("c", 5.0, 9.0, parent=0),
        Span("d", 6.0, 8.0, parent=2),
        Span("b", 12.0, 13.0, counts={"cells": 7}),
    ]


def test_self_times_subtract_direct_children_only():
    spans = synthetic_tree()
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0, 1.0]
    assert sum(self_times(spans)) == root_time(spans) == 11.0
    assert has_ancestor(spans, 3, "a") and not has_ancestor(spans, 1, "c")


def test_layer_totals_group_by_name():
    totals = layer_totals(synthetic_tree())
    assert totals["b"].self_s == 4.0 and totals["b"].calls == 2
    assert totals["b"].sums == {"cells": 12} and totals["b"].maxima == {"cells": 7}
    assert totals["c"].self_s == 2.0 and totals["d"].self_s == 2.0


def test_tracer_records_nesting_and_generator_steps():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x + 1

    def gen(n):
        for i in range(n):
            yield leaf(i)

    leaf_w = tracer.wrap("leaf", leaf)
    gen_w = tracer.wrap("gen", gen)
    leaf = leaf_w  # the generator calls the wrapped leaf through this name
    assert list(gen_w(2)) == [1, 2]
    spans = tracer.take()
    # two resumptions that yield, one that stops, each with its own span
    assert [s.name for s in spans] == ["gen", "leaf", "gen", "leaf", "gen"]
    assert [s.parent for s in spans] == [-1, 0, -1, 2, -1]
    assert all(own >= 0 for own in self_times(spans))


def test_install_patches_every_import_site_and_remove_restores_them():
    def snapshot():
        return {
            (name, attr): value
            for name, module in list(sys.modules.items())
            if name.startswith(("lozenge", "workloads", "worker"))
            for attr, value in vars(module).items()
            if callable(value)
        }

    before = snapshot()
    original = lozenge.count.count_oracle
    original_determinant = lozenge.exact.determinant
    tracer = Tracer()
    tracer.install(worker.layer_table())
    try:
        for module in (lozenge, lozenge.count, lozenge.verify, workloads):
            assert module.count_oracle is not original
        assert lozenge.count.determinant is not original_determinant
    finally:
        tracer.remove()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_zigzag_member_walks_twice_per_determinant_count():
    tracer = Tracer()
    tracer.install(worker.layer_table())
    try:
        assert workloads.check_zigzag(("R", (1, 3), (2,), 2))
    finally:
        tracer.remove()
    figures = worker.combine(worker.span_metrics([]), [worker.span_metrics(tracer.take())])
    assert figures["count.count_gv.calls"] == 2
    assert figures["count.zigzag_walk_per_gv"] == 2.0
    assert figures["count.count_oracle.calls"] == 1
    assert figures["exact.determinant.max_n"] > 0
    # the same metric names come out when no determinant count runs at all
    empty = worker.combine(worker.span_metrics([]), [worker.span_metrics([])])
    assert empty.keys() == figures.keys() and empty["count.zigzag_walk_per_gv"] == 0.0


@pytest.mark.parametrize("n, p", [(472, 97), (1000, 99), (20, 50), (19, 100)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert worker.tail_percentile(n) == p
