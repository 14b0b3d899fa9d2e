"""Randomized invariants over terms, masks, grid deltas and readings."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmdl import coding, lang, parsing
from gridmdl.grids import Grid, GridError, delta_apply, mask_array
from gridmdl.lang import App, Var

from helpers import delta_between, mask_member


settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

colors = st.integers(0, 9)
naturals = st.integers(0, 30)
small_dims = st.integers(1, 9)

VAR_PATHS = st.sampled_from([
    ("size",), ("color",), ("size", "i"), ("size", "j"),
    ("layers", 0, "pos", "i"), ("layers", 1, "pos", "j"),
    ("layers", 0, "shape", "size"), ("layers", 2, "shape", "color"),
])


def _nat_like(draw, exprs=True):
    t = draw(st.sampled_from(["ground", "unknown", "var", "expr"] if exprs
                             else ["ground", "unknown"]))
    if t == "ground":
        return draw(naturals)
    if t == "unknown":
        return lang.UNK
    if t == "var":
        return Var(draw(VAR_PATHS))
    fn = draw(st.sampled_from(["plus", "minus"]))
    return App(fn, (Var(draw(VAR_PATHS)), draw(naturals)))


def _color_like(draw, exprs=True):
    t = draw(st.sampled_from(["ground", "unknown", "var"] if exprs
                             else ["ground", "unknown"]))
    if t == "ground":
        return draw(colors)
    if t == "unknown":
        return lang.UNK
    return Var(draw(VAR_PATHS))


@st.composite
def grid_terms(draw, exprs=True):
    """Grid terms mixing ground parts, unknowns and, with `exprs`, variables
    and arithmetic."""
    def vec_like():
        if draw(st.booleans()):
            return lang.UNK
        return lang.vec(_nat_like(draw, exprs), _nat_like(draw, exprs))

    def mask_like():
        kind = draw(st.sampled_from(
            ["Full", "Border", "EvenCheckboard", "OddCheckboard",
             "PlusCross", "TimesCross", "Bitmap", "?"]))
        if kind == "?":
            return lang.UNK
        if kind == "Bitmap":
            h = draw(st.integers(1, 3))
            w = draw(st.integers(1, 3))
            rows = [[draw(st.booleans()) for _ in range(w)] for _ in range(h)]
            return lang.bitmap(rows)
        return lang.Ctor(kind)

    def shape_like():
        k = draw(st.sampled_from(["point", "rect", "unknown"]))
        if k == "unknown":
            return lang.UNK
        if k == "point":
            return lang.point(_color_like(draw, exprs))
        return lang.rectangle(vec_like(), _color_like(draw, exprs), mask_like())

    layers = [lang.pos_shape(vec_like(), shape_like())
              for _ in range(draw(st.integers(0, 3)))]
    return lang.grid(vec_like(), _color_like(draw, exprs), layers)


@given(grid_terms())
def test_term_text_round_trips(t):
    text = lang.term_to_text(t, lang.GRID)
    assert lang.parse_term(text, lang.GRID) == t


@given(grid_terms(), grid_terms())
def test_model_text_round_trips(gin, gout):
    model = lang.in_out(gin, gout)
    assert lang.parse_model(lang.model_to_text(model)) == model


@given(grid_terms(), st.data())
def test_subst_inverts_resolve(t, data):
    paths = [p for p, _, _, _ in lang.slots(t)]
    path = data.draw(st.sampled_from(paths))
    assert lang.subst(t, path, lang.resolve(t, path)) == t


@given(grid_terms(), st.data())
def test_subst_then_resolve_returns_replacement(t, data):
    paths = [p for p, _, _, _ in lang.slots(t) if p]
    if not paths:
        return
    path = data.draw(st.sampled_from(paths))
    replaced = lang.subst(t, path, lang.UNK)
    assert lang.resolve(replaced, path) is lang.UNK


@given(st.sampled_from(["Full", "Border", "EvenCheckboard", "OddCheckboard",
                        "PlusCross", "TimesCross"]),
       small_dims, small_dims)
def test_mask_member_matches_mask_array(kind, h, w):
    a = mask_array(kind, h, w)
    for i in range(h):
        for j in range(w):
            assert a[i, j] == mask_member(kind, (h, w), (i, j))
    assert not mask_member(kind, (h, w), (h, 0))
    assert not mask_member(kind, (h, w), (0, -1))


@st.composite
def grid_pairs(draw):
    h = draw(small_dims)
    w = draw(small_dims)
    def rows():
        return [[draw(colors) for _ in range(w)] for _ in range(h)]
    return Grid(rows()), Grid(rows())


@given(grid_pairs())
def test_delta_round_trips(pair):
    base, target = pair
    d = delta_between(target, base)
    assert delta_apply(base, d) == target
    changed = int(np.sum(np.array(base.rows) != np.array(target.rows)))
    assert len(d) == changed
    assert delta_between(base, base) == frozenset()


@pytest.mark.parametrize("max_diffs", [0, 3])
@pytest.mark.parametrize("background", ["fixed", "unknown"])
@given(grid_terms(exprs=False), colors, grid_pairs(), st.booleans())
def test_parse_costs_readings_as_the_reference_coders_do(max_diffs, background, t, bg,
                                                         pair, own_drawing):
    template = lang.subst(t, ("color",), bg if background == "fixed" else lang.UNK)
    g = pair[0]
    if own_drawing:
        try:
            g = parsing.draw(parsing.generate(template))
        except GridError:  # a zero size or a bitmap that does not fit
            pass
    cfg = parsing.ParseConfig(max_diffs=max_diffs)
    readings = parsing.parse(template, g, cfg=cfg)
    dims = (g.height, g.width)
    for r in readings:
        assert r.dl == (coding.l_parse_tree(r.tree, template, r.diffs, dims)
                        + coding.l_delta(r.delta, dims))
        assert delta_apply(parsing.draw(r.tree), r.delta) == g
    assert [r.dl for r in readings] == sorted(r.dl for r in readings)
    assert parsing.parse(template, g, cfg=replace(cfg, max_trees_kept=1)) == readings[:1]


@settings(max_examples=25)
@given(grid_terms(exprs=False), grid_pairs(), st.booleans(), st.data())
def test_parse_through_a_shared_index_matches_a_fresh_parse(t, pair, own_drawing, data):
    """The index's layer memo is keyed on every input of admission and of the
    reading terms: parses that share one index, interleaving diff budgets,
    candidate caps, node counts (so diff-location costs) and templates with
    layers in common, read exactly what parses with a fresh index read."""
    g = pair[0]
    if own_drawing:
        try:
            g = parsing.draw(parsing.generate(t))
        except GridError:  # a zero size or a bitmap that does not fit
            pass
    index = parsing.build_index(g)
    # shared layers: the template's, and grid candidates with up to three
    # numbers changed, which take that many diffs to read those candidates
    pool = list(t.args[2]) + [lang.pos_shape(lang.UNK, lang.UNK)]
    for cand in data.draw(st.lists(st.sampled_from(index.candidates), min_size=1, max_size=3)):
        numbers = [p for p, _, _, x in lang.slots(cand.tree, lang.OBJECT) if isinstance(x, int)]
        layer = cand.tree
        for p in data.draw(st.lists(st.sampled_from(numbers), max_size=3, unique=True)):
            layer = lang.subst(layer, p, (lang.resolve(layer, p) + 1) % 10)
        pool.append(layer)
    layer_lists = [data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
                   for _ in range(2)]
    h, w = g.height, g.width
    # sizes taking 0, 0, 1 and 2 diffs; the first has fewer nodes
    sizes = [lang.UNK, lang.vec(h, lang.UNK), lang.vec(h + 1, lang.UNK), lang.vec(h + 1, w + 1)]
    calls = [(size, layers, max_diffs, per_layer)
             for size in sizes for layers in layer_lists
             for max_diffs in (0, 3) for per_layer in (1, 64)]
    for size, layers, max_diffs, per_layer in data.draw(st.permutations(calls)):
        template = lang.grid(size, t.args[1], layers)
        cfg = parsing.ParseConfig(max_diffs=max_diffs, max_candidates_per_layer=per_layer)
        assert (parsing.parse(template, g, cfg=cfg, index=index)
                == parsing.parse(template, g, cfg=cfg))
