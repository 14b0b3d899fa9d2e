"""Refinement search: proposals, application, full learning runs, prediction."""

import ast
import gc
import importlib
import json
import math
import re
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from gridmdl import coding, lang, parsing
from gridmdl.grids import Grid, GridError
from gridmdl.lang import UNK, Var, grid, in_out, point, pos_shape, rectangle, vec
from gridmdl.learn import (
    Refinement, SearchConfig, apply_refinement, create, initial_model, learn,
    predict, propose_refinements,
)
from helpers import NESTED_SOLUTION_TEXT, NESTED_TEST, NESTED_TRAIN, nested_pair


def test_initial_model_is_a_pair_of_bare_grids():
    assert initial_model() == in_out(grid(UNK, UNK, []), grid(UNK, UNK, []))


def test_apply_refinement_inserts_layers():
    m = initial_model()
    seed = pos_shape(UNK, rectangle(UNK, UNK, UNK))
    ref = Refinement("insert", "in", ("layers", 0), seed, lang.OBJECT)
    m2 = apply_refinement(m, ref)
    assert m2.args[0].args[2] == (seed,)
    assert m2.args[1] == m.args[1]


def test_apply_refinement_replaces_slots():
    m = initial_model()
    ref = Refinement("replace", "out", ("color",), 4, lang.COLOR)
    m2 = apply_refinement(m, ref)
    assert m2.args[1].args[1] == 4


def test_input_insertion_renumbers_output_variables():
    m = in_out(
        grid(UNK, UNK, [pos_shape(UNK, rectangle(UNK, UNK, UNK))]),
        grid(Var(("layers", 0, "shape", "size")), UNK, []),
    )
    seed = pos_shape(UNK, point(UNK))
    front = apply_refinement(m, Refinement("insert", "in", ("layers", 0), seed, lang.OBJECT))
    assert front.args[1].args[0] == Var(("layers", 1, "shape", "size"))
    back = apply_refinement(m, Refinement("insert", "in", ("layers", 1), seed, lang.OBJECT))
    assert back.args[1].args[0] == Var(("layers", 0, "shape", "size"))


def test_proposals_at_the_start_lead_with_output_insertions(nested_train):
    cfg = SearchConfig()
    caches = parsing.Caches(cfg.parse)
    ev = coding.l_task(initial_model(), nested_train, caches)
    props = propose_refinements(initial_model(), ev, caches, cfg)
    assert props, "no proposals at the initial model"
    first = props[0]
    assert (first.kind, first.side, first.path) == ("insert", "out", ("layers", 0))
    keys = [(p.kind, p.side, p.path, p.template) for p in props]
    assert len(keys) == len(set(keys)), "duplicate proposals"
    assert any(p.side == "in" and p.kind == "insert" for p in props)
    # the shared black background is an immediate pattern on both sides
    assert any(p.path == ("color",) and p.template == 0 and p.side == "in" for p in props)


def test_learning_the_nested_rectangles_task(nested_result):
    res = nested_result
    assert not res.timed_out
    assert res.seconds <= 30
    assert res.lhat <= 0.25
    assert lang.model_to_text(res.model) == NESTED_SOLUTION_TEXT


def test_nested_trace_descends_strictly(nested_result):
    lhats = [s.lhat for s in nested_result.trace]
    assert lhats[0] == pytest.approx(2.0, abs=1e-9)
    assert all(b < a - 1e-9 for a, b in zip(lhats, lhats[1:]))


def test_learning_from_an_iterator_gives_the_trace_learnt_from_a_list(nested_result):
    # every evaluation reads every example, not only the first one
    res = learn(iter(NESTED_TRAIN), SearchConfig())
    assert (res.model, res.trace) == (nested_result.model, nested_result.trace)


def test_learning_from_no_example_is_refused():
    with pytest.raises(ValueError, match="^examples: must hold at least one"):
        learn([])


def test_nested_trace_refinement_content(nested_result):
    """The first eleven steps carry the expected structure, whatever the order:
    two input rectangles, one output rectangle, equations tying the output
    grid's size, background and rectangle to input slots, and the two
    position differences."""
    head = [s.refinement for s in nested_result.trace[1:12]]
    texts = [r.describe() for r in head]
    rect_seed = pos_shape(UNK, rectangle(UNK, UNK, UNK))
    ins_in = [r for r in head if r.kind == "insert" and r.side == "in"]
    ins_out = [r for r in head if r.kind == "insert" and r.side == "out"]
    assert len(ins_in) == 2 and all(r.template == rect_seed for r in ins_in)
    assert len(ins_out) == 1 and ins_out[0].template == rect_seed
    assert "out.size = layers[0].shape.size" in texts
    assert "out.color = layers[0].shape.color" in texts
    assert "out.layers[0].shape.size = layers[0].shape.size" in texts
    assert "out.layers[0].shape.color = layers[1].shape.color" in texts
    assert "out.layers[0].shape.mask = Full" in texts
    assert "out.layers[0].pos = Vec(?, ?)" in texts
    assert "out.layers[0].pos.i = layers[0].pos.i - layers[1].pos.i" in texts
    assert "out.layers[0].pos.j = layers[0].pos.j - layers[1].pos.j" in texts


def test_nested_model_solves_the_taller_test_grid(nested_result):
    gi, expected = NESTED_TEST
    preds = predict(nested_result.model, gi)
    assert preds and preds[0] == expected


def test_the_normalizer_carries_the_data_weight_of_the_search():
    result = learn(list(NESTED_TRAIN), SearchConfig(alpha=5.0))
    assert result.normalizer.alpha == 5.0
    assert result.eval.normalized(result.normalizer) == result.lhat
    chained = coding.format_eval_table(result.eval, result.normalizer).splitlines()[3]
    assert chained.split()[-1] == f"{result.lhat:.3f}"


def test_an_unknown_refinement_group_is_refused_with_the_config():
    with pytest.raises(ValueError, match="'Xx'"):
        SearchConfig(order="So-Xx")


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
def test_a_data_weight_that_is_not_finite_and_positive_is_refused(alpha):
    with pytest.raises(ValueError, match=f"alpha must be finite and greater than 0, got {alpha!r}"):
        SearchConfig(alpha=alpha)


# `least` is the smallest value the field takes, or, where `bad` is of the
# wrong type, a value of the right one
@pytest.mark.parametrize("config, field, bad, least", [
    (parsing.ParseConfig, "max_trees_before_sort", 0, 1),
    (parsing.ParseConfig, "max_trees_kept", 0, 1),
    (parsing.ParseConfig, "max_diffs", -1, 0),
    (SearchConfig, "refinements", 0, 1),
    (SearchConfig, "beam", 0, 1),
    (SearchConfig, "predict_diffs", -1, 0),
    (SearchConfig, "timeout", -1.0, 0.0),
    (SearchConfig, "timeout", float("nan"), 0.0),
    (SearchConfig, "timeout", float("inf"), 0.0),
    (SearchConfig, "timeout", True, 0.0),
    (SearchConfig, "timeout", "30", 30),
    (SearchConfig, "alpha", True, 1.0),
    (SearchConfig, "alpha", "1", 1),
    (SearchConfig, "order", 3, "So"),
    (SearchConfig, "parse", None, parsing.DEFAULT_PARSE),
    (SearchConfig, "parse", (3, 64, 0), parsing.ParseConfig(3, 64, 0)),
])
def test_an_out_of_range_setting_is_refused_naming_its_field(config, field, bad, least):
    with pytest.raises(ValueError, match=f"^{field}:? must be"):
        config(**{field: bad})
    assert getattr(config(**{field: least}), field) == least


@pytest.mark.parametrize("config, field, bad", [
    (parsing.ParseConfig, "max_trees_before_sort", True),
    (parsing.ParseConfig, "max_trees_kept", 1.5),
    (parsing.ParseConfig, "max_diffs", "1"),
    (SearchConfig, "refinements", 20.0),
    (SearchConfig, "beam", False),
    (SearchConfig, "predict_diffs", 3.0),
])
def test_a_setting_that_is_not_an_int_is_refused_naming_its_field(config, field, bad):
    with pytest.raises(ValueError, match=f"^{field}: must be an int, got {bad!r}$"):
        config(**{field: bad})


def test_proposals_take_the_input_signature_from_the_task_caches(nested_train, monkeypatch):
    cfg = SearchConfig()
    model = apply_refinement(initial_model(), Refinement(
        "insert", "in", ("layers", 0), pos_shape(UNK, rectangle(UNK, UNK, UNK)), lang.OBJECT))
    caches = parsing.Caches(cfg.parse)
    ev = coding.l_task(model, nested_train, caches)
    fresh = propose_refinements(model, ev, parsing.Caches(cfg.parse), cfg)
    # scoring the model left its input side's signature in the caches
    monkeypatch.setattr(lang, "signature", None)
    assert propose_refinements(model, ev, caches, cfg) == fresh


def _reading(tree):
    """The reading of the tree's own drawing: no delta, no diffs."""
    return parsing.Reading(tree, parsing.draw(tree), 0, (), 0.0)


def _two_example_eval(model, example_pairs):
    """A TaskEval over hand-made chained readings: one list of (input tree,
    output tree) pairs per example."""
    examples = [[parsing.ReadingPair(_reading(ti), _reading(to), 0.0) for ti, to in pairs]
                for pairs in example_pairs]
    return coding.TaskEval(model, 0.0, 0.0, 0.0, 0.0, examples)


def test_a_pattern_is_proposed_only_when_a_reading_agrees_in_every_example():
    gin = grid(vec(UNK, UNK), UNK, [pos_shape(UNK, UNK)])
    model = in_out(gin, grid(UNK, UNK, []))
    out = grid(vec(1, 1), 0, [])
    a = grid(vec(7, 5), 0, [pos_shape(vec(1, 2), point(2))])
    b = grid(vec(3, 5), 1, [pos_shape(vec(1, 2), rectangle(vec(2, 3), 2, lang.FULL))])
    c = grid(vec(3, 4), 1, [pos_shape(vec(0, 0), rectangle(vec(3, 3), 3, lang.FULL))])
    d = grid(vec(7, 4), 1, [pos_shape(vec(0, 0), rectangle(vec(1, 1), 3, lang.FULL))])
    ev = _two_example_eval(model, [[(a, out), (b, out)], [(c, out), (d, out)]])
    props = propose_refinements(model, ev, parsing.Caches(), SearchConfig(order="Ei"))
    assert [(p.path, p.template) for p in props] == [
        (("size", "i"), 3), (("size", "i"), 7),   # both examples, ascending
        (("color",), 1),                          # black is in the first example only
        (("layers", 0, "pos"), vec(UNK, UNK)),
        (("layers", 0, "shape"), rectangle(UNK, UNK, UNK)),  # no Point in the second
    ]


@pytest.mark.parametrize("aligned", [True, False])
def test_an_expression_holds_only_on_an_aligned_chained_pair(aligned):
    model = in_out(grid(vec(UNK, UNK), UNK, []), grid(vec(UNK, 2), 0, []))
    a = grid(vec(7, 5), 0, [])
    c, d = grid(vec(3, 4), 0, []), grid(vec(7, 4), 0, [])
    out3, out7 = grid(vec(3, 2), 0, []), grid(vec(7, 2), 0, [])
    # the second example holds both 3 and 7 on each side; only its pairing
    # decides whether the output height is the input height
    second = [(c, out3), (d, out7)] if aligned else [(c, out7), (d, out3)]
    ev = _two_example_eval(model, [[(a, out7)], second])
    props = propose_refinements(model, ev, parsing.Caches(), SearchConfig(order="Eo"))
    held = Refinement("replace", "out", ("size", "i"), Var(("size", "i")), lang.NAT)
    assert (held in props) == aligned


def test_learning_with_a_template_diff_per_reading_descends():
    """An input reading that takes a diff can hold a `Point` where the model
    has a `Rectangle`; the expression proposals then find no value there
    instead of failing."""
    result = learn(list(NESTED_TRAIN), SearchConfig(timeout=30, parse=parsing.ParseConfig(max_diffs=1)))
    scores = [s.lhat for s in result.trace]
    assert len(scores) > 1 and all(b < a for a, b in zip(scores, scores[1:]))


def _rectangles(h: int, w: int, rects) -> Grid:
    return parsing.draw(grid(vec(h, w), 0, [pos_shape(vec(i, j), rectangle(vec(rh, rw), c, lang.FULL))
                                            for i, j, rh, rw, c in rects]))


def test_an_identity_task_with_five_rectangles_is_solved():
    """The input model needs five like layers. Their first combination of
    five distinct rectangles comes after more than a thousand that use a
    rectangle twice, so the parser must skip those, not count them."""
    train = [_rectangles(12, 13, [(1, 1, 2, 3, 2), (1, 6, 3, 2, 3), (5, 9, 2, 2, 4),
                                  (7, 1, 3, 3, 6), (9, 7, 2, 4, 8)]),
             _rectangles(14, 12, [(0, 8, 3, 3, 1), (2, 1, 2, 4, 5), (6, 5, 3, 2, 2),
                                  (10, 0, 2, 2, 7), (11, 8, 3, 3, 3)]),
             _rectangles(13, 14, [(1, 2, 3, 2, 4), (0, 9, 2, 3, 6), (5, 6, 2, 2, 9),
                                  (8, 0, 3, 4, 1), (9, 10, 3, 3, 5)])]
    test = _rectangles(13, 13, [(0, 0, 2, 2, 3), (1, 5, 3, 3, 7), (6, 1, 2, 3, 2),
                                (7, 8, 3, 2, 6), (11, 3, 2, 4, 4)])
    result = learn([(g, g) for g in train], SearchConfig())
    assert not result.timed_out
    assert len(result.model.args[0].args[2]) == 5
    assert result.lhat < 0.3
    preds = predict(result.model, test)
    assert preds and preds[0] == test


def test_learning_is_deterministic(nested_train):
    a = learn(nested_train, SearchConfig())
    b = learn(nested_train, SearchConfig())
    assert [s.lhat for s in a.trace] == [s.lhat for s in b.trace]
    assert [s.describe() for s in a.trace[1:]] == [s.describe() for s in b.trace[1:]]
    assert a.model == b.model


def test_train_pair_returns_chained_readings():
    gi, go = nested_pair(2, 4, 12, 13, (1, 3), (4, 4), (2, 4), (2, 2))
    pairs = parsing.read_pair(initial_model(), gi, go, parsing.Caches())
    assert pairs
    assert [p.dl for p in pairs] == sorted(p.dl for p in pairs)
    assert pairs[0].dl == pytest.approx(pairs[0].rin.dl + pairs[0].rout.dl)


def test_timeout_returns_initial_model():
    gi, go = nested_pair(2, 4, 12, 13, (1, 3), (4, 4), (2, 4), (2, 2))
    res = learn([(gi, go)], SearchConfig(timeout=0.0))
    assert res.timed_out
    assert res.model == initial_model()
    assert res.lhat == pytest.approx(2.0, abs=1e-9)


def test_predict_deduplicates_and_bounds_attempts(nested_result):
    gi, _ = NESTED_TEST
    preds = predict(nested_result.model, gi, attempts=2)
    assert 1 <= len(preds) <= 2
    assert len(set(preds)) == len(preds)


@pytest.mark.parametrize("attempts, message", [
    (0, "must be at least 1, got 0"),
    (-1, "must be at least 1, got -1"),
    (True, "must be an int, got True"),
    (2.0, "must be an int, got 2.0"),
])
def test_predict_refuses_attempts_that_are_not_a_count(nested_result, attempts, message):
    gi, _ = NESTED_TEST
    with pytest.raises(ValueError, match=f"^attempts: {re.escape(message)}$"):
        predict(nested_result.model, gi, attempts=attempts)


def test_predict_on_untrained_model_falls_back_to_generation_defaults():
    preds = predict(initial_model(), parsing.draw(grid(vec(3, 3), 2, [])))
    assert preds
    # nothing ties the output side to the input, so the bare template
    # generates its default: a 10x10 black grid
    assert preds[0] == Grid([[0] * 10] * 10)


def test_create_writes_matching_pair():
    m = in_out(
        grid(vec(4, 4), 0, [pos_shape(vec(1, 1), rectangle(vec(2, 2), 3, lang.FULL))]),
        grid(Var(("layers", 0, "shape", "size")), Var(("layers", 0, "shape", "color")), []),
    )
    pair = create(m)
    assert pair.input_grid.rows == ((0, 0, 0, 0),
                                    (0, 3, 3, 0),
                                    (0, 3, 3, 0),
                                    (0, 0, 0, 0))
    assert pair.output_grid.rows == ((3, 3), (3, 3))


def test_create_then_predict_round_trip():
    m = in_out(
        grid(vec(5, 6), 0, [pos_shape(vec(2, 1), rectangle(vec(2, 3), 6, lang.FULL))]),
        grid(vec(2, 3), Var(("layers", 0, "shape", "color")), []),
    )
    pair = create(m)
    preds = predict(m, pair.input_grid)
    assert preds and preds[0] == pair.output_grid


def _trajectory_models(train):
    """Every model the learner scores along its accepted path: each model on
    the trace and each refinement proposed from it."""
    result = learn(train, SearchConfig())
    caches = parsing.Caches()
    model = initial_model()
    ev = coding.l_task(model, train, caches)
    out = [model]
    for step in result.trace[1:]:
        out.extend(apply_refinement(model, ref)
                   for ref in propose_refinements(model, ev, caches))
        model = apply_refinement(model, step.refinement)
        ev = coding.l_task(model, train, caches)
    return out


def test_task_memos_change_no_score_and_no_reading(synthetic_tasks):
    for train in synthetic_tasks:
        caches = parsing.Caches()
        for m in _trajectory_models(train):
            try:
                plain = coding.l_task(m, train, caches=parsing.Caches())
            except (lang.LangError, coding.ModelEvalError) as e:
                with pytest.raises(type(e)) as memo_error:
                    coding.l_task(m, train, caches=caches)
                assert str(memo_error.value) == str(e)
                continue
            memo = coding.l_task(m, train, caches=caches)
            assert (memo.l_model_in, memo.l_model_out, memo.data_in, memo.data_out) == \
                (plain.l_model_in, plain.l_model_out, plain.data_in, plain.data_out)
            assert memo.examples == plain.examples
        assert caches.applied and any(index.readings for index in caches.indexes.values())


def _replay_view(pair):
    """What a chained reading pair tells its scorer: trees, diffs and delta
    cells by `==`, costs by `repr`."""
    def one(r):
        return r.tree, r.diffs, r.delta, repr(r.dl)
    return one(pair.rin), one(pair.rout), repr(pair.dl)


def _record_scores(trains, monkeypatch) -> list:
    """Learn each task and record every `coding.l_task` call the learner
    makes, as (model, examples, parse config of its context, bound, result),
    the result being the TaskEval returned or the exception raised."""
    real = coding.l_task
    calls = []

    def recording(model, examples, caches, bound=None):
        try:
            ev = real(model, examples, caches, bound)
        except Exception as e:
            calls.append((model, examples, caches.cfg, bound, e))
            raise
        calls.append((model, examples, caches.cfg, bound, ev))
        return ev

    monkeypatch.setattr(coding, "l_task", recording)
    for train in trains:
        learn(train, SearchConfig())
    monkeypatch.undo()
    return calls


def test_every_score_through_shared_caches_replays_equal_through_fresh_ones(
        nested_train, synthetic_tasks, monkeypatch):
    """Shadow replay: every model the learner scores through its task's
    shared `Caches` scores the same through a fresh `Caches`, under the same
    bound. The identity and small-nested suite tasks fill output layers from
    input objects, so output sides meet the applied-layer memo from
    refinement to refinement."""
    real = coding.l_task
    calls = _record_scores((nested_train, synthetic_tasks[4], synthetic_tasks[5]), monkeypatch)
    assert any(isinstance(ev, coding.TaskEval) and ev.model.args[1].args[2] for *_, ev in calls)
    assert any(isinstance(ev, Exception) for *_, ev in calls)
    for model, examples, parse_cfg, bound, shared in calls:
        try:
            fresh = real(model, examples, parsing.Caches(parse_cfg), bound)
        except Exception as e:
            assert (type(shared), str(shared)) == (type(e), str(e))
            continue
        assert isinstance(shared, coding.TaskEval), shared
        costs = ("l_model_in", "l_model_out", "data_in", "data_out")
        assert ([repr(getattr(shared, c)) for c in costs]
                == [repr(getattr(fresh, c)) for c in costs])
        assert ([[_replay_view(p) for p in pairs] for pairs in shared.examples]
                == [[_replay_view(p) for p in pairs] for pairs in fresh.examples])


def test_a_bounded_score_returns_the_unbounded_one_or_stops_exactly(
        nested_train, synthetic_tasks, monkeypatch):
    """For every model the learner scores, a bound just below, at and just
    above its unbounded score either gives back the unbounded TaskEval,
    scoring below the bound, or stops with NotCompressive when the unbounded
    score reaches the bound: the stop never changes what the learner keeps."""
    calls = _record_scores((nested_train, synthetic_tasks[4], synthetic_tasks[5]), monkeypatch)
    costs = ("l_model_in", "l_model_out", "data_in", "data_out")
    stopped = returned = 0
    norm = None
    for model, examples, parse_cfg, bound, _ in calls:
        caches = parsing.Caches(parse_cfg)
        try:
            full = coding.l_task(model, examples, caches)
        except (lang.LangError, coding.ModelEvalError, GridError):
            continue
        if bound is None:  # the initial model, which sets the task's normalizer
            norm = coding.Normalizer.from_initial(full, SearchConfig().alpha)
        else:
            assert bound[0] == norm
        score = full.normalized(norm)
        for t in (math.nextafter(score, -math.inf), score, math.nextafter(score, math.inf)):
            try:
                ev = coding.l_task(model, examples, caches, bound=(norm, t))
            except coding.NotCompressive:
                assert score >= t
                stopped += 1
                continue
            assert score < t
            assert [repr(getattr(ev, c)) for c in costs] == [repr(getattr(full, c)) for c in costs]
            assert ev.examples == full.examples
            assert ev.normalized(norm) < t
            returned += 1
    assert stopped and returned


def test_a_model_that_reads_no_first_example_is_never_costed(monkeypatch):
    train = list(NESTED_TRAIN)
    m = in_out(grid(UNK, UNK, []),
               grid(vec(lang.App("minus", (Var(("size", "i")), 99)), 1), UNK, []))
    norm = coding.Normalizer(1.0, 1.0, SearchConfig().alpha)

    def costed(*args, **kwargs):
        raise AssertionError("l_pair_model called")

    monkeypatch.setattr(coding, "l_pair_model", costed)
    for bound in (None, (norm, 2.0)):
        with pytest.raises(coding.ModelEvalError, match="no chained reading"):
            coding.l_task(m, train, caches=parsing.Caches(), bound=bound)


def test_a_score_through_one_context_indexes_each_grid_once(monkeypatch):
    real = parsing.build_index
    built = []

    def counting(g):
        built.append(g)
        return real(g)

    monkeypatch.setattr(parsing, "build_index", counting)
    model, train = lang.parse_model(NESTED_SOLUTION_TEXT), list(NESTED_TRAIN)
    # one example: its output grid is indexed once, not once per input reading
    caches = parsing.Caches()
    assert parsing.read_pair(model, *train[0], caches)
    assert len(parsing.read(model.args[0], None, train[0][0], caches)) > 1
    assert built == list(train[0])
    built.clear()
    coding.l_task(model, train, parsing.Caches())
    grids = {g for pair in train for g in pair}
    assert len(built) == len(grids) and set(built) == grids


def _context_makers(node, owner: str):
    """The qualified name of the function, class or lambda around each
    `Caches(...)` call below `node`, `owner` being the name around `node`."""
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, ast.Call):
            callee = child.func
            if getattr(callee, "id", getattr(callee, "attr", None)) == "Caches":
                yield owner
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{owner}.{child.name}"
        elif isinstance(child, ast.Lambda):
            inner = f"{owner}.<lambda>"
        yield from _context_makers(child, inner)


def test_only_learn_and_predict_make_a_reading_context():
    """Every function below `learn.learn` and `learn.predict` takes the
    task's `Caches`; none makes one of its own."""
    package = Path(parsing.__file__).parent
    makers = [owner for path in sorted(package.glob("*.py"))
              for owner in _context_makers(ast.parse(path.read_text()), path.stem)]
    assert sorted(makers) == ["learn.learn", "learn.predict"]


def test_learning_and_predicting_leave_no_cyclic_garbage(nested_train):
    """The reading path makes no reference cycle, so reference counting
    frees all that `learn` and `predict` leave: with the collector off, a
    collection after each finds nothing."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = learn(nested_train, SearchConfig())
        assert gc.collect() == 0
        predict(result.model, NESTED_TEST[0])
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@contextmanager
def _collector(enabled: bool):
    """Run the body with the cyclic collector on or off, then put it back."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def test_learning_and_predicting_the_synthetic_suite_leave_no_cyclic_garbage(synthetic_tasks):
    """`learn` runs with the collector paused, so a cycle on the reading
    path would be held until it returns: every synthetic task, learned and
    then predicted on each training input, leaves none."""
    gc.collect()
    with _collector(False):
        for train in synthetic_tasks:
            result = learn(train, SearchConfig())
            assert gc.collect() == 0
            for gi, _ in train:
                predict(result.model, gi, attempts=3)
            assert gc.collect() == 0


def _watch_collector(monkeypatch, before=None):
    """Record `gc.isenabled()` on every `coding.l_task` call, after calling
    `before()` if it is given."""
    seen = []
    real = coding.l_task

    def watched(*args, **kwargs):
        seen.append(gc.isenabled())
        if before is not None:
            before()
        return real(*args, **kwargs)

    monkeypatch.setattr(coding, "l_task", watched)
    return seen


@pytest.mark.parametrize("enabled", [True, False])
def test_learn_searches_with_the_collector_paused_and_restores_it(
        monkeypatch, nested_train, enabled):
    seen = _watch_collector(monkeypatch)
    with _collector(enabled):
        learn(nested_train, SearchConfig())
        assert gc.isenabled() is enabled
    assert seen and not any(seen)


@pytest.mark.parametrize("enabled", [True, False])
def test_learn_restores_the_collector_when_the_search_raises(
        monkeypatch, nested_train, enabled):
    def fail():
        raise RuntimeError("scoring failed")

    seen = _watch_collector(monkeypatch, fail)
    with _collector(enabled):
        with pytest.raises(RuntimeError, match="scoring failed"):
            learn(nested_train, SearchConfig())
        assert gc.isenabled() is enabled
    assert seen == [False]


@pytest.mark.parametrize("enabled", [True, False])
def test_learn_restores_the_collector_when_it_times_out(nested_train, enabled):
    with _collector(enabled):
        result = learn(nested_train, SearchConfig(timeout=0))
        assert gc.isenabled() is enabled
    assert result.timed_out


@pytest.mark.parametrize("enabled", [True, False])
def test_learn_with_no_examples_leaves_the_collector_alone(enabled):
    with _collector(enabled):
        with pytest.raises(ValueError):
            learn([])
        assert gc.isenabled() is enabled


def test_overlapping_learns_in_threads_end_with_the_collector_enabled(
        monkeypatch, nested_train):
    """The learn that paused the collector turns it back on; the one that
    found it paused leaves it."""
    barrier = threading.Barrier(2)
    waited = set()

    def meet():
        me = threading.get_ident()
        if me not in waited:
            waited.add(me)
            barrier.wait(timeout=30)

    _watch_collector(monkeypatch, meet)
    results, errors = [], []

    def run():
        try:
            results.append(learn(nested_train, SearchConfig()))
        except BaseException as e:  # surfaced by the assert below
            errors.append(e)

    with _collector(True):
        threads = [threading.Thread(target=run) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == [] and len(results) == 2
        assert results[0].model == results[1].model
        assert gc.isenabled()


def test_a_failed_application_is_kept_and_fails_the_same_way_again():
    train = list(NESTED_TRAIN[:1])
    m = in_out(grid(UNK, UNK, []),
               grid(vec(lang.App("minus", (Var(("size", "i")), 99)), 1), UNK, []))
    caches = parsing.Caches()
    with pytest.raises(coding.ModelEvalError) as first:
        coding.l_task(m, train, caches=caches)
    # the failure is kept as its message, and reads nothing again
    failed = [key for key, a in caches.applied.items() if isinstance(a, str)]
    assert failed
    for side, env in failed:
        assert parsing.read(side, env, train[0][1], caches=caches) == ()
    with pytest.raises(coding.ModelEvalError) as again:
        coding.l_task(m, train, caches=caches)
    assert str(again.value) == str(first.value)


_GOLDEN_TRACES = json.loads((Path(__file__).parent / "golden_search_traces.json").read_text())


@pytest.mark.parametrize("key", list(_GOLDEN_TRACES))
def test_a_search_off_the_default_width_keeps_its_recorded_trace(
        key, nested_train, synthetic_tasks):
    """Beams of 2 and 3 and 1 or 5 refinements per step keep the traces
    and models recorded for them: each step's score to the last bit, its
    refinement and its index."""
    setting, task = key.split("/")
    field, value = setting.split("=")
    train = nested_train if task == "nested" else synthetic_tasks[int(task.removeprefix("suite"))]
    result = learn(train, SearchConfig(**{field: int(value)}))
    assert not result.timed_out
    assert [s.index for s in result.trace] == list(range(len(result.trace)))
    assert [f"{s.lhat!r}  {s.refinement.describe() if s.refinement else ''}".rstrip()
            for s in result.trace] == _GOLDEN_TRACES[key]["steps"]
    assert lang.model_to_text(result.model).splitlines() == _GOLDEN_TRACES[key]["model"]


class _Clock:
    """A monotonic clock that reads 0 until `past` readings have been
    made, and 2 after that."""

    def __init__(self, past: int):
        self.readings = 0
        self.past = past

    def monotonic(self) -> float:
        self.readings += 1
        return 0.0 if self.readings <= self.past else 2.0


@pytest.mark.parametrize("past", [1, 2, 3, 10, 60, 300])
def test_no_score_starts_after_the_deadline(nested_train, monkeypatch, past):
    clock = _Clock(past)
    real = coding.l_task
    started = []

    def recording(*args, **kwargs):
        started.append(clock.readings)
        return real(*args, **kwargs)

    monkeypatch.setattr(importlib.import_module("gridmdl.learn"), "time", clock)
    monkeypatch.setattr(coding, "l_task", recording)
    result = learn(nested_train, SearchConfig(timeout=1.0))
    assert result.timed_out
    assert started and all(k <= past for k in started)
    lhats = [s.lhat for s in result.trace]
    assert all(b < a - 1e-9 for a, b in zip(lhats, lhats[1:]))
