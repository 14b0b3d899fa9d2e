"""Tests of the benchmark's own code: generator, tracer, and reductions.

Run from the repository root with `python3 -m pytest bench`.
"""

import json
import random
import types
from pathlib import Path

import pytest

import gen
import run
import tracing
from gridmdl import parsing, tasks


def _grids(task_list):
    return [(ex.input, ex.output) for t in task_list for ex in t.train + t.test]


def test_arc_tasks_are_deterministic_per_seed():
    a, b = gen.arc_tasks(7), gen.arc_tasks(7)
    assert [t.task_id for t in a] == [t.task_id for t in b]
    assert _grids(a) == _grids(b)
    assert _grids(gen.arc_tasks(8)) != _grids(a)


def test_arc_tasks_shape():
    ts = gen.arc_tasks(3)
    assert [t.task_id for t in ts] == list(gen.ARC_FAMILIES)
    for t in ts:
        assert (len(t.train), len(t.test)) == (3, 1)
        for gi, go in _grids([t]):
            assert max(gi.size + go.size) <= tasks.MAX_DIM
            assert min(gi.size) >= gen.FAMILIES[t.task_id].side[0]


def test_suite_is_fixed():
    a, b = gen.suite_tasks(), gen.suite_tasks()
    assert len(a) == 11
    assert _grids(a) == _grids(b)
    assert all(len(t.test) == 1 for t in a)


@pytest.mark.parametrize("family", gen.ARC_FAMILIES)
def test_rule_pair_matches_output_model(family):
    rng = random.Random(family)
    rule = gen.sample_rule(rng, family)
    tree, _ = gen.sample_scene(random.Random(1), rule)
    gi, go = gen.rule_pair(random.Random(1), rule)
    assert gi == parsing.draw(tree)
    assert go == parsing.write(gen.output_model(rule), tree)[1]


def test_rule_pair_rejects_a_wrong_model(monkeypatch):
    rule = gen.Rule("recolour", (("colour", 4),))
    # an all-black grid of the input's size misses the recoloured target
    monkeypatch.setattr(gen, "output_model", lambda r: gen.lang.grid(gen._v("size"), 0, ()))
    with pytest.raises(gen.GeneratorError):
        gen.rule_pair(random.Random(0), rule)


class FakeClock:
    """Advances by a fixed step on every reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_on_nested_calls():
    tr = tracing.Tracer(clock=FakeClock())
    mod = types.SimpleNamespace()
    mod.inner = lambda: None
    mod.outer = lambda: (mod.inner(), mod.inner())
    p = tracing.Patches()
    p.wrap(tr, mod, "inner", "inner")
    p.wrap(tr, mod, "outer", "outer")
    mod.outer()
    p.restore()
    # clock reads: outer 1, inner 2-3, inner 4-5, outer end 6
    st = tracing.layer_stats(tr)
    assert st["outer"].calls == 1 and st["inner"].calls == 2
    assert st["outer"].total_s == 5.0
    assert st["inner"].total_s == 2.0
    assert st["outer"].self_s == 3.0
    assert st["inner"].self_s == 2.0
    assert list(tr.parent) == [-1, 0, 0]
    assert tracing.children(tr) == [[1, 2], [], []]


def test_outermost_counts_recursion_once():
    tr = tracing.Tracer(clock=FakeClock())
    mod = types.SimpleNamespace()
    mod.fact = lambda n: 1 if n <= 1 else n * mod.fact(n - 1)
    p = tracing.Patches()
    p.wrap(tr, mod, "fact", "fact", outermost=True)
    assert mod.fact(5) == 120
    assert mod.fact(3) == 6
    p.restore()
    assert tracing.layer_stats(tr)["fact"].calls == 2


def test_errors_and_notes_are_kept():
    tr = tracing.Tracer(clock=FakeClock())
    mod = types.SimpleNamespace(ok=lambda: [1, 2, 3], bad=lambda: 1 / 0)
    p = tracing.Patches()
    p.wrap(tr, mod, "ok", "ok", note=lambda a, k, r: len(r))
    p.wrap(tr, mod, "bad", "bad")
    mod.ok()
    with pytest.raises(ZeroDivisionError):
        mod.bad()
    p.restore()
    assert tr.notes == {0: 3}
    assert tr.errors == {1: "ZeroDivisionError"}
    assert mod.ok() == [1, 2, 3] and len(tr) == 2


def test_speed_probe_records_each_sample():
    probe = run.SpeedProbe(clock=FakeClock(), work=lambda: None)
    probe.sample()
    probe.sample()
    # clock reads: 1-2, 3-4
    assert list(probe.stamps) == [1.0, 3.0]
    assert list(probe.cum) == [0.0, 1.0, 2.0]


def test_reference_seconds_scale_by_the_probes_in_an_interval():
    probe = run.SpeedProbe()
    r = run.PROBE_REFERENCE_S
    # three probes at twice their reference duration (the host at half
    # speed), then one at twenty times
    for t, d in ((1.0, 2 * r), (1.1, 2 * r), (1.2, 2 * r), (5.0, 20 * r)):
        probe.stamps.append(t)
        probe.cum.append(probe.cum[-1] + d)
    # the probes inside [0.95, 1.25] set its speed and are left out of its length
    assert probe.ref_s(0.95, 1.25) == pytest.approx((0.3 - 6 * r) / 2)
    # [4.9, 5.1] holds one probe, so it widens until it holds all four
    assert probe.ref_s(4.9, 5.1) == pytest.approx((0.2 - 20 * r) / 6.5)


def test_reference_seconds_need_probes():
    probe = run.SpeedProbe(clock=FakeClock(), work=lambda: None)
    probe.sample()
    with pytest.raises(RuntimeError):
        probe.ref_s(0.0, 1.0)


def test_tail_percentile():
    assert run.tail(list(range(5))) == (4, 100.0)
    value, pct = run.tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert sum(1 for x in range(100) if x > value) == 10


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    layer = run.layer_metrics([], {"tracing": tracing, "parsing": parsing}, 1.0)
    assert set(layer) | {"trace.overhead_s"} == {n for n, _ in run.PER_LAYER}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.SAMPLE_PASSES) == set(run.WORKLOADS)
