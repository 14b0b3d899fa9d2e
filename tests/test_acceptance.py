"""Acceptance gate: one test per released behaviour guarantee.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion. Checks needing the public ARC training corpus skip loudly unless
GRIDMDL_ARC_DIR points at the task files; offline reconstructions of the same
behaviour always run.
"""

import itertools
import math
import random
import time

import pytest

from gridmdl import coding, lang, tasks
from gridmdl.coding import (
    FUNCTIONS, Normalizer, P_BG, P_EXPR, P_MASK, P_SHAPE, P_TEMPLATE,
    l_dist, l_nat, l_task, l_uniform,
)
from gridmdl.grids import Grid, delta_apply
from gridmdl.learn import SearchConfig, create, initial_model, learn, predict
from gridmdl.lang import App, UNK, Unknown, Var
from gridmdl.parsing import Caches, draw, parse

from helpers import (
    ARC_SKIP, NESTED_SOLUTION_TEXT, NESTED_TEST, NESTED_TRAIN,
    arc_training_dir, delta_between, synthetic_task_suite,
)


TOL = 1e-9


def _pass(tag: str, detail: str) -> None:
    print(f"PASS {tag}: {detail}")


# --- criterion (a): the untrained model always scores a normalized 2.000 ----

def test_criterion_a_initial_model_normalizes_to_two(synthetic_tasks):
    suites = [NESTED_TRAIN] + synthetic_tasks
    for pairs in suites:
        ev = l_task(initial_model(), pairs, Caches())
        norm = Normalizer.from_initial(ev)
        assert abs(ev.normalized(norm) - 2.0) <= TOL
    _pass("(a)", f"normalized initial score 2.000 +/- 1e-9 on "
                 f"{len(suites)} offline task suites")


def test_criterion_a_initial_model_normalizes_to_two_on_corpus(arc_dir):
    paths = tasks.task_paths(arc_dir)
    assert paths, "corpus directory contains no task files"
    start = time.monotonic()
    for p in paths:
        task = tasks.load_task(p)
        pairs = [(ex.input, ex.output) for ex in task.train]
        ev = l_task(initial_model(), pairs, Caches())
        norm = Normalizer.from_initial(ev)
        assert abs(ev.normalized(norm) - 2.0) <= TOL, p.name
    _pass("(a)", f"normalized initial score 2.000 on all {len(paths)} "
                 f"corpus tasks in {time.monotonic() - start:.0f}s")


# --- criterion (b): cost table of the nested-rectangles solution ------------

def _assert_cost_table(result, pairs, lhat_bound: float):
    assert result.seconds <= 30.0
    assert result.eval.normalized(result.normalizer) <= lhat_bound
    # the solution fully determines every output grid from its input
    assert result.eval.data_out == 0.0
    table = coding.format_eval_table(result.eval, result.normalizer)
    lines = table.splitlines()
    assert [ln.split()[0] for ln in lines[1:]] == ["input", "output", "chained"]
    assert lines[0].split() == ["L(M)", "L(D|M)", "L(M,D)", "normalized"]
    initial = coding.format_eval_table(l_task(initial_model(), pairs, Caches()))
    assert initial.splitlines()[3].split()[-1] == "2.000"
    return table


def test_criterion_b_cost_table_on_nested_rectangles(nested_result):
    table = _assert_cost_table(nested_result, NESTED_TRAIN, 0.25)
    final = nested_result.eval.normalized(nested_result.normalizer)
    _pass("(b)", f"offline reconstruction: final normalized {final:.3f} <= 0.25, "
                 f"output data bits 0.0, table rows input/output/chained")
    print(table)


def test_criterion_b_cost_table_on_corpus_task_b94a9452(arc_dir):
    path = arc_dir / "b94a9452.json"
    if not path.exists():
        pytest.skip(f"{path} not found in corpus directory")
    task = tasks.load_task(path)
    pairs = [(ex.input, ex.output) for ex in task.train]
    ev0 = l_task(initial_model(), pairs, Caches())
    initial_total = ev0.totals()["both"][2]
    assert abs(initial_total - 12376.9) <= 0.10 * 12376.9
    result = learn(pairs)
    table = _assert_cost_table(result, pairs, 0.25)
    _pass("(b)", f"b94a9452: initial chained bits {initial_total:.1f} "
                 f"(within 10% of 12376.9), final normalized "
                 f"{result.eval.normalized(result.normalizer):.3f} <= 0.25")
    print(table)


# --- criterion (c): refinement trace content and the harder test grid -------

# Slot replacements the learned trace must contain, named by their printed form.
TRACE_EQUATIONS = (
    "out.size = layers[0].shape.size",
    "out.color = layers[0].shape.color",
    "out.layers[0].shape.size = layers[0].shape.size",
    "out.layers[0].shape.color = layers[1].shape.color",
    "out.layers[0].shape.mask = Full",
    "out.layers[0].pos.i = layers[0].pos.i - layers[1].pos.i",
    "out.layers[0].pos.j = layers[0].pos.j - layers[1].pos.j",
)


def _assert_trace_content(result, test_input: Grid, test_output: Grid):
    assert result.seconds <= 30.0
    lhats = [s.lhat for s in result.trace]
    assert lhats[0] == pytest.approx(2.0, abs=TOL)
    assert all(b < a for a, b in zip(lhats, lhats[1:])), "descent not strict"
    refs = [s.refinement for s in result.trace[1:]]
    texts = [r.describe() for r in refs]
    rect_seed = lang.pos_shape(UNK, lang.rectangle(UNK, UNK, UNK))
    ins = [(r.side, r.template) for r in refs if r.kind == "insert"]
    assert ins.count(("in", rect_seed)) >= 2, "expected two input rectangles"
    assert ins.count(("out", rect_seed)) >= 1, "expected an output rectangle"
    for eq in TRACE_EQUATIONS:
        assert eq in texts, f"missing refinement {eq!r}"
    assert test_input.height == 14
    preds = predict(result.model, test_input)
    assert preds and preds[0] == test_output, "test example not solved first"


def test_criterion_c_trace_on_nested_rectangles(nested_result):
    _assert_trace_content(nested_result, *NESTED_TEST)
    assert lang.model_to_text(nested_result.model) == NESTED_SOLUTION_TEXT
    _pass("(c)", f"offline reconstruction: {len(nested_result.trace) - 1} "
                 f"descending steps include 3 rectangle insertions and "
                 f"{len(TRACE_EQUATIONS)} named equations; 14-row test "
                 f"input solved on attempt 1")


def test_criterion_c_trace_on_corpus_task_b94a9452(arc_dir):
    path = arc_dir / "b94a9452.json"
    if not path.exists():
        pytest.skip(f"{path} not found in corpus directory")
    task = tasks.load_task(path)
    pairs = [(ex.input, ex.output) for ex in task.train]
    result = learn(pairs)
    ex = task.test[0]
    _assert_trace_content(result, ex.input, ex.output)
    _pass("(c)", "b94a9452: trace holds the expected insertions and "
                 "equations; 14-row test input solved on attempt 1")


# --- criterion (d): golden tasks solved with default settings ---------------

GOLDEN_TASKS = (
    "1bfc4729", "1cf80156", "1f85a75f", "25ff71a9", "445eab21", "48d8fb45",
    "5521c0d9", "5582e5ca", "681b3aeb", "6f8cd79b", "a1570a43", "a79310a0",
    "a87f7484", "aabf363d", "b1948b0a", "b94a9452", "ba97ae07", "bda2d7a6",
    "bdad9b1f", "e48d4e1a", "e9afcf9a", "ea32f347",
)


def test_criterion_d_golden_tasks_solved_with_defaults(arc_dir):
    cfg = SearchConfig()
    assert (cfg.alpha, cfg.timeout, cfg.beam, cfg.refinements) == (10.0, 30.0, 1, 20)
    assert cfg.predict_diffs == 3
    assert (cfg.parse.max_trees_kept, cfg.parse.max_trees_before_sort,
            cfg.parse.max_diffs) == (3, 64, 0)
    paths = [arc_dir / f"{t}.json" for t in GOLDEN_TASKS]
    missing = [p.name for p in paths if not p.exists()]
    if missing:
        pytest.skip(f"golden tasks missing from corpus directory: {missing}")
    solved = []
    for p in paths:
        report = tasks.evaluate_task(tasks.load_task(p), cfg)
        assert report.seconds <= cfg.timeout + 5.0
        if report.test_score == 1.0:
            solved.append(report.task_id)
    assert len(solved) >= 15, f"solved only {len(solved)}/22: {solved}"
    _pass("(d)", f"{len(solved)}/22 golden tasks solved cell-exactly "
                 f"with default settings (threshold 15)")


# --- criterion (e): full-corpus batch speed and score -----------------------

def test_criterion_e_full_corpus_batch(arc_dir):
    paths = tasks.task_paths(arc_dir)
    assert paths, "corpus directory contains no task files"
    batch = tasks.evaluate_batch(paths, jobs=4)
    mean_s = sum(r.seconds for r in batch.reports) / len(batch.reports)
    n1 = sum(1 for r in batch.reports
             if r.test and all(e.known and e.solved and e.attempt == 1
                               for e in r.test))
    assert mean_s <= 60.0, f"mean learn time {mean_s:.1f}s exceeds 60s"
    assert n1 >= 20, f"first-attempt solved count {n1} below 20"
    _pass("(e)", f"{len(paths)} tasks: mean learn {mean_s:.1f}s <= 60s, "
                 f"first-attempt solved {n1} >= 20")


# --- criterion (f): always-on randomized and exhaustive property suites -----

def _rand_scene(rng: random.Random):
    """Ground scene term: distinct-colour parts on a small grid, no overlap."""
    h, w = rng.randint(4, 8), rng.randint(4, 8)
    bg = rng.choice([0, 0, 0, rng.randrange(10)])
    colors = rng.sample([c for c in range(10) if c != bg], 3)
    layers, taken = [], []
    for color in colors[:rng.randint(0, 2)]:
        for _ in range(20):
            if rng.random() < 0.3:
                a = b = 1
            else:
                a, b = rng.randint(1, 3), rng.randint(1, 3)
                if a * b == 1:
                    b = 2
            i = rng.randint(0, h - a)
            j = rng.randint(0, w - b)
            box = (i, j, i + a, j + b)
            if all(box[2] <= t[0] or t[2] <= box[0] or
                   box[3] <= t[1] or t[3] <= box[1] for t in taken):
                taken.append(box)
                if a == b == 1:
                    shape = lang.point(color)
                else:
                    mask = lang.BORDER if (
                        a >= 3 and b >= 3 and rng.random() < 0.25) else lang.FULL
                    shape = lang.rectangle(lang.vec(a, b), color, mask)
                layers.append(lang.pos_shape(lang.vec(i, j), shape))
                break
    return lang.grid(lang.vec(h, w), bg, layers)


def _rand_template(rng: random.Random, scene):
    """Blank out a random subset of the scene's slots."""
    t = scene
    for path, _, _, _ in lang.slots(scene):
        if path and rng.random() < 0.5:
            try:
                t = lang.subst(t, path, UNK)
            except lang.LangError:
                pass  # parent already blanked out
    return t


def _check_lossless_reads(rng: random.Random, n: int) -> int:
    checked = 0
    for _ in range(n):
        scene = _rand_scene(rng)
        g = draw(scene)
        kind = rng.randrange(3)
        if kind == 0:
            template = lang.grid(UNK, UNK, [])
        elif kind == 1:
            template = _rand_template(rng, scene)
        else:  # a template built from some other scene entirely
            template = _rand_template(rng, _rand_scene(rng))
        readings = parse(template, g, Caches())
        if kind == 0:
            assert readings, "the unconstrained template must always read"
        for r in readings:
            assert delta_apply(draw(r.tree), r.delta) == g
            checked += 1
    return checked


def _check_delta_round_trips():
    cells2 = list(itertools.product(range(3), repeat=4))
    grids2 = [Grid([[a, b], [c, d]]) for a, b, c, d in cells2]
    for g1 in grids2:
        for g2 in grids2:
            assert delta_apply(g1, delta_between(g2, g1)) == g2
    zero3 = Grid([[0] * 3] * 3)
    count = 0
    for cells in itertools.product(range(3), repeat=9):
        g = Grid([list(cells[k:k + 3]) for k in (0, 3, 6)])
        assert delta_apply(zero3, delta_between(g, zero3)) == g
        assert delta_apply(g, delta_between(zero3, g)) == zero3
        count += 1
    return len(grids2) ** 2, count


def _check_kraft_equalities():
    for dist in (P_TEMPLATE, P_EXPR, P_BG, P_MASK, P_SHAPE):
        total = sum(2.0 ** -l_dist(p) for p in dist.values())
        assert math.isclose(total, 1.0, abs_tol=TOL)
    assert math.isclose(
        len(FUNCTIONS) * 2.0 ** -l_uniform(len(FUNCTIONS)), 1.0, abs_tol=TOL)


def _check_learning_properties(suites):
    for pairs in suites:
        first = learn(pairs)
        second = learn(pairs)
        lhats = [s.lhat for s in first.trace]
        assert lhats[0] == pytest.approx(2.0, abs=TOL)
        assert all(b < a for a, b in zip(lhats, lhats[1:]))
        assert lang.model_to_text(first.model) == lang.model_to_text(second.model)
        assert [s.lhat for s in second.trace] == lhats
        assert [str(s.refinement) for s in first.trace] == \
               [str(s.refinement) for s in second.trace]


def test_criterion_f_property_suites(synthetic_tasks):
    start = time.monotonic()
    reads = _check_lossless_reads(random.Random(20240817), 1000)
    pairs2, grids3 = _check_delta_round_trips()
    _check_kraft_equalities()
    assert (l_nat(0), l_nat(1), l_nat(3)) == (1.0, 3.0, 5.0)
    _check_learning_properties([NESTED_TRAIN] + synthetic_tasks)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"property suites took {elapsed:.1f}s"
    _pass("(f)", f"{reads} lossless reads over 1000 random pairs, "
                 f"{pairs2} 2x2 and {grids3} 3x3 delta round trips, "
                 f"Kraft equality on 6 code tables, l_nat pins, strict "
                 f"descent and two-run identity on 11 learned tasks, "
                 f"in {elapsed:.1f}s < 60s")


# --- criterion (g): generated examples are their own solutions --------------

_NAT_PATHS = (("size", "i"), ("size", "j"))


def _rand_definite_model(rng: random.Random):
    gin = _rand_scene(rng)
    while not gin.args[2]:  # need at least one part to reference
        gin = _rand_scene(rng)
    in_layers = gin.args[2]

    nat_paths = list(_NAT_PATHS)
    vec_paths, color_paths = [("size",)], [("color",)]
    for k, layer in enumerate(in_layers):
        nat_paths += [("layers", k, "pos", "i"), ("layers", k, "pos", "j")]
        color_paths.append(("layers", k, "shape", "color"))
        if layer.args[1].name == "Rectangle":
            vec_paths.append(("layers", k, "shape", "size"))
            nat_paths += [("layers", k, "shape", "size", "i"),
                          ("layers", k, "shape", "size", "j")]

    def nat_term():
        r = rng.random()
        if r < 0.4:
            return rng.randint(0, 4)
        if r < 0.7:
            return Var(rng.choice(nat_paths))
        return App("plus", (Var(rng.choice(nat_paths)), rng.randint(0, 2)))

    def color_term():
        return rng.randrange(10) if rng.random() < 0.5 \
            else Var(rng.choice(color_paths))

    def vec_term():
        if rng.random() < 0.5:
            return Var(rng.choice(vec_paths))
        return lang.vec(rng.randint(1, 4), rng.randint(1, 4))

    def shape_term():
        if rng.random() < 0.3:
            return lang.point(color_term())
        return lang.rectangle(vec_term(), color_term(), lang.FULL)

    out_layers = [lang.pos_shape(lang.vec(nat_term(), nat_term()), shape_term())
                  for _ in range(rng.randint(0, 2))]
    gout = lang.grid(vec_term(), color_term(), out_layers)
    return lang.in_out(gin, gout)


def test_criterion_g_created_pairs_predict_themselves():
    rng = random.Random(7)
    for k in range(50):
        model = _rand_definite_model(rng)
        assert not any(isinstance(t, Unknown) for _, _, _, t in lang.slots(model.args[1]))
        pair = create(model)
        preds = predict(model, pair.input_grid)
        assert preds, f"model {k} produced no prediction"
        assert preds[0] == pair.output_grid, \
            f"model {k} did not reproduce its own example:\n" \
            f"{lang.model_to_text(model)}"
    _pass("(g)", "50 random definite models: created example reproduced "
                 "exactly by the first prediction")
