"""Refinement search: proposals, application, full learning runs, prediction."""

import pytest

from gridmdl import coding, lang, parsing
from gridmdl.grids import Grid
from gridmdl.lang import UNK, Var, grid, in_out, point, pos_shape, rectangle, vec
from gridmdl.learn import (
    Refinement, SearchConfig, apply_refinement, create, initial_model, learn,
    predict, propose_refinements,
)
from helpers import NESTED_SOLUTION_TEXT, NESTED_TEST, nested_pair


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
    ev = coding.l_task(initial_model(), nested_train, cfg.dl, cfg.parse, parsing.Caches())
    props = propose_refinements(initial_model(), ev, cfg)
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


def test_learning_is_deterministic(nested_train):
    a = learn(nested_train, SearchConfig())
    b = learn(nested_train, SearchConfig())
    assert [s.lhat for s in a.trace] == [s.lhat for s in b.trace]
    assert [s.describe() for s in a.trace[1:]] == [s.describe() for s in b.trace[1:]]
    assert a.model == b.model


def test_train_pair_returns_chained_readings():
    gi, go = nested_pair(2, 4, 12, 13, (1, 3), (4, 4), (2, 4), (2, 2))
    pairs = parsing.read_pair(initial_model(), gi, go)
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
