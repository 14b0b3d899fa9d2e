"""Randomized invariants over terms, masks, grid deltas and readings."""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridmdl import coding, lang, parsing
from gridmdl.grids import Grid, GridError, delta_apply, mask_array, segment
from gridmdl.lang import App, Var

from helpers import (
    build_index_by_scans, delta_between, is_ground_by_slots, mask_member, parse_by_costing_all,
    segment_by_scans, template_diffs,
)


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


def _arith(operands):
    return st.builds(lambda fn, a, b: App(fn, (a, b)), st.sampled_from(["plus", "minus"]),
                     operands, operands)


# plus and minus nested on either side, over naturals, zero and the
# natural slots of `_ARITH_ENV`
nested_arith = _arith(st.recursive(
    st.one_of(naturals, st.just(lang.ZERO), st.sampled_from([
        Var(("size", "i")), Var(("size", "j")), Var(("layers", 0, "pos", "i")),
        Var(("layers", 1, "shape", "size", "j"))])),
    _arith, max_leaves=6))
_ARITH_ENV = lang.grid(lang.vec(5, 2), 0, [
    lang.pos_shape(lang.vec(3, 4), lang.point(1)),
    lang.pos_shape(lang.vec(0, 1), lang.rectangle(lang.vec(2, 7), 3, lang.FULL))])


def _value_or_error(e):
    try:
        return lang.eval_expr(e, _ARITH_ENV)
    except lang.LangError as err:
        return str(err)


@given(nested_arith)
def test_arithmetic_text_reads_back_as_the_same_expression(e):
    back = lang.parse_term(lang.term_to_text(e, lang.NAT), lang.NAT)
    assert back == e
    assert _value_or_error(back) == _value_or_error(e)


@given(st.lists(grid_terms(), min_size=1, max_size=4))
def test_node_count_counts_the_slot_walk(terms):
    for t in terms + terms:
        assert lang.node_count(t) == sum(1 for _ in lang.slots(t))


@given(grid_terms(), grid_terms(exprs=False), VAR_PATHS)
def test_is_ground_answers_as_its_slot_walk_definition(t, template, path):
    """`lang.is_ground` against `helpers.is_ground_by_slots` on every slot
    (bitmaps, masks, layers and leaves included) of a term with expressions,
    a term with unknowns only, the tree `generate` closes it to, and that
    tree with an object variable in its layer list."""
    tree = parsing.generate(template)
    size, color, layers = tree.args
    with_var = lang.grid(size, color, layers + (Var(path),))
    for term in (t, template, tree, with_var):
        for _, _, _, sub in lang.slots(term):
            assert lang.is_ground(sub) == is_ground_by_slots(sub)
    assert lang.is_ground(tree)
    assert not lang.is_ground(with_var)


@pytest.mark.parametrize("t", [lang.Ctor("Full", (lang.UNK,)),
                               lang.Ctor("Vec", (1, 2, Var(("size",))))])
def test_is_ground_skips_arguments_past_the_fields_as_the_slot_walk_does(t):
    assert lang.is_ground(t) and is_ground_by_slots(t)


def _diffs_or_error(match, tmpl, tree):
    try:
        return match(tmpl, tree)
    except lang.LangError as e:
        return "LangError", str(e)


@given(grid_terms(), grid_terms(exprs=False), st.data())
def test_compiled_matcher_gives_what_template_diffs_gives(tmpl, other, data):
    """`parsing._matcher`, compiled once per template and cached process-wide,
    against the recursive `helpers.template_diffs`: whole grid templates and each of
    their subterms (int leaves, bitmaps, masks, layers) against trees of the
    template's shape with some numbers changed, and against other grids,
    whose layer lists may be shorter or longer. A template's expressions
    raise the same LangError where `template_diffs` meets them."""
    shaped = parsing.generate(lang.map_exprs(tmpl, lambda e: lang.UNK))
    numbers = [p for p, _, _, x in lang.slots(shaped) if isinstance(x, int)]
    for p in data.draw(st.lists(st.sampled_from(numbers), max_size=3, unique=True)):
        shaped = lang.subst(shaped, p, lang.resolve(shaped, p) + 1)
    trees = [shaped, parsing.generate(other)]
    for path, _, _, sub in lang.slots(tmpl):
        for tree in trees:
            try:
                at = lang.resolve(tree, path)
            except lang.LangError:
                at = tree  # no such slot in this tree: a mismatch at the root
            want = _diffs_or_error(template_diffs, sub, at)
            assert _diffs_or_error(lambda t, x: parsing._matcher(t)(x), sub, at) == want


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


@given(st.lists(grid_terms(), min_size=1, max_size=3),
       st.lists(grid_terms(exprs=False), min_size=1, max_size=3), st.data())
def test_apply_model_through_a_shared_layer_memo_matches_a_plain_application(
        models, env_models, data):
    """Applications sharing one memo, interleaving models with layers in
    common and environments (None among them), give what a plain rewrite
    of every expression gives: an equal term, or a LangError with the same
    message. The reference is `map_exprs`, since `apply_model` without a
    memo takes the memo path too."""
    pool = [layer for m in models for layer in m.args[2]]
    if pool:
        models += [lang.grid(m.args[0], m.args[1],
                             data.draw(st.lists(st.sampled_from(pool), max_size=3)))
                   for m in models]
    envs = [None] + [parsing.generate(m) for m in env_models]
    memo = {}
    for m, env in data.draw(st.lists(st.tuples(st.sampled_from(models), st.sampled_from(envs)),
                                     min_size=1, max_size=10)):
        try:
            want = lang.map_exprs(m, lambda e: lang.eval_expr(e, env))
        except lang.LangError as e:
            with pytest.raises(lang.LangError) as got:
                lang.apply_model(m, env, memo)
            assert str(got.value) == str(e)
            continue
        assert lang.apply_model(m, env, memo) == want


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


@st.composite
def cell_arrays(draw):
    """Arrays of 0 to 31 rows and columns, of five dtypes, their cells
    mostly colours but at times out of 0..9."""
    h, w = draw(st.integers(0, 31)), draw(st.integers(0, 31))
    lo, hi = sorted((draw(st.integers(-2, 12)), draw(st.integers(-2, 12))))
    cells = [draw(st.integers(lo, hi)) for _ in range(h * w)]
    dtype = draw(st.sampled_from(["int8", "uint8", "int64", "bool", "float64"]))
    return np.array(cells, dtype=np.int64).reshape(h, w).astype(dtype)


# one side past the limit, the other within it; one cell below 0, or past 9
@example(np.zeros((1, 31), dtype=np.int8))
@example(np.zeros((31, 1), dtype=np.int8))
@example(np.array([[0, -1]], dtype=np.int8))
@example(np.array([[10, 9]], dtype=np.int64))
@given(cell_arrays())
def test_grid_from_array_is_grid_of_the_array_as_lists(arr):
    """`Grid.from_array` checks an integer array with numpy: it reads what
    `Grid(arr.tolist())` reads, rows, size, equality and hash, and refuses
    what that refuses, with the same message."""
    try:
        want = Grid(arr.tolist())
    except GridError as e:
        with pytest.raises(GridError) as got:
            Grid.from_array(arr)
        assert str(got.value) == str(e)
        return
    g = Grid.from_array(arr)
    assert (g.rows, g.size, hash(g)) == (want.rows, want.size, hash(want)) and g == want
    assert np.array_equal(g.array, arr) and not g.array.flags.writeable


@st.composite
def few_colour_grids(draw):
    """Grids up to 12x12 over one to four colours, so that parts touch and nest."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    palette = draw(st.lists(colors, min_size=1, max_size=4, unique=True))
    return Grid([[draw(st.sampled_from(palette)) for _ in range(w)] for _ in range(h)])


@given(few_colour_grids())
def test_segment_matches_the_scanning_reference(g):
    parts, want = segment(g), segment_by_scans(g)
    assert parts == want
    # the masks take no part in ==
    assert all(np.array_equal(p.mask, q.mask) for p, q in zip(parts, want))


# fixed 30 x 30 grids: one part, 900 one-cell parts, and 360 parts of one to
# six cells in every shape a small part takes
SEGMENT_CASES = {
    "one-colour": Grid([[4] * 30 for _ in range(30)]),
    "checkerboard": Grid([[(i + j) % 2 for j in range(30)] for i in range(30)]),
    "many-small-parts": Grid([[((i // 2) * 3 + j // 3 + i * j % 3) % 4 for j in range(30)]
                              for i in range(30)]),
}


@pytest.mark.parametrize("name", SEGMENT_CASES)
def test_segment_matches_the_scanning_reference_on_full_size_grids(name):
    g = SEGMENT_CASES[name]
    parts, want = segment(g), segment_by_scans(g)
    assert parts == want
    assert all(np.array_equal(p.mask, q.mask) for p, q in zip(parts, want))
    assert [p.area for p in parts] == [len(p.cells) for p in want]
    assert sum(p.area for p in parts) == 900


def _same_index(g):
    got, want = parsing.build_index(g), build_index_by_scans(g)
    assert got.candidates == want.candidates
    assert got.color_cells == want.color_cells
    assert got.all_cells == want.all_cells
    return got


@given(few_colour_grids())
def test_build_index_matches_the_scanning_reference(g):
    """Same candidates, every field and in order, and the same bitmasks as
    the index built from cell sets: parts with holes (exact masks), unions
    of like-coloured parts and points of small parts."""
    _same_index(g)


def test_build_index_of_a_checkerboard_skips_unions_and_cuts_at_the_cap():
    # 450 one-cell parts per colour: over the union limit, 900 points in all
    g = Grid([[(i + j) % 2 for j in range(30)] for i in range(30)])
    index = _same_index(g)
    assert len(index.candidates) == parsing._MAX_CANDIDATES
    assert {c.variant for c in index.candidates} == {2}


def _check_reference_costs(max_diffs, background, t, bg, pair, own_drawing, kept):
    template = lang.subst(t, ("color",), bg if background == "fixed" else lang.UNK)
    g = pair[0]
    if own_drawing:
        try:
            g = parsing.draw(parsing.generate(template))
        except GridError:  # a zero size or a bitmap that does not fit
            pass
    cfg = parsing.ParseConfig(max_trees_kept=kept, max_diffs=max_diffs)
    readings = parsing.parse(template, g, parsing.Caches(cfg))
    dims = (g.height, g.width)
    for r in readings:
        assert r.dl == (coding.l_parse_tree(r.tree, template, r.diffs, dims)
                        + coding.l_delta(r.delta, dims))
        assert delta_apply(parsing.draw(r.tree), r.delta) == g
    assert [r.dl for r in readings] == sorted(r.dl for r in readings)
    one = parsing.Caches(replace(cfg, max_trees_kept=1))
    assert parsing.parse(template, g, one) == readings[:1]


@pytest.mark.parametrize("max_diffs", [0, 3])
@pytest.mark.parametrize("background", ["fixed", "unknown"])
@given(grid_terms(exprs=False), colors, grid_pairs(), st.booleans())
def test_parse_costs_readings_as_the_reference_coders_do(max_diffs, background, t, bg,
                                                         pair, own_drawing):
    _check_reference_costs(max_diffs, background, t, bg, pair, own_drawing, kept=3)


@pytest.mark.parametrize("max_diffs", [0, 3])
@pytest.mark.parametrize("background", ["fixed", "unknown"])
@given(grid_terms(exprs=False), colors, grid_pairs(), st.booleans())
def test_parse_costs_every_scored_combination_as_the_reference_coders_do(
        max_diffs, background, t, bg, pair, own_drawing):
    """With every scored combination kept as a reading, each cost equals the
    reference coders' by `==`, with diffs and without."""
    _check_reference_costs(max_diffs, background, t, bg, pair, own_drawing,
                           kept=parsing.DEFAULT_PARSE.max_trees_before_sort)


def _reading_fields(readings) -> list:
    return [(r.tree, r.delta_mask, r.diffs, r.dl) for r in readings]


# with three diffs allowed, the black bar read through the point layer takes
# one diff, and costs more than the bar read as a bitmap by less than the
# diff count's prefix: a key without the prefix would keep the wrong one
@example(t=lang.grid(lang.UNK, lang.UNK, [
             lang.pos_shape(lang.vec(lang.UNK, lang.UNK), lang.UNK),
             lang.pos_shape(lang.vec(lang.UNK, lang.UNK), lang.point(lang.UNK))]),
         pair=(Grid([[0, 0, 0, 0, 1, 0]]), Grid([[0]])), own_drawing=False, kept=1,
         before_sort=4)
@pytest.mark.parametrize("max_diffs", [0, 3])
@given(grid_terms(exprs=False), grid_pairs(), st.booleans(), st.integers(1, 3),
       st.integers(4, 64))
def test_parse_keeps_the_readings_that_costing_every_combination_keeps(
        max_diffs, t, pair, own_drawing, kept, before_sort):
    """`parse` sums exactly only the combinations whose pre-summed key can
    reach the kept readings; it keeps what summing every combination keeps,
    costs by `==` and ties in walk order."""
    g = pair[0]
    if own_drawing:
        try:
            g = parsing.draw(parsing.generate(t))
        except GridError:  # a zero size or a bitmap that does not fit
            pass
    cfg = parsing.ParseConfig(max_trees_before_sort=before_sort, max_trees_kept=kept,
                              max_diffs=max_diffs)
    assert (_reading_fields(parsing.parse(t, g, parsing.Caches(cfg)))
            == _reading_fields(parse_by_costing_all(t, g, parsing.Caches(cfg))))


# cell masks of a grid up to 12 x 12
cell_masks = st.integers(0, (1 << 144) - 1)


# a 1x2 grid whose mismatched black cell turns the choice from red to black
@example(Grid([[0, 2]]), 1, 1)
@given(few_colour_grids(), cell_masks, cell_masks)
def test_best_background_is_the_cheapest_colour_by_brute_force(g, covered, mismatch):
    """`_best_background` equals a brute force over all ten colours: each
    colour's prior plus `coding.l_delta` of the cells it leaves, the
    mismatched cells and the uncovered cells of other colours; the smaller
    colour on ties. A colour no uncovered cell has never beats black, which
    leaves at most as many cells at a lower prior, so black is always a
    candidate. Mismatched cells are covered ones, as in `_combos`."""
    h, w = g.height, g.width
    index = parsing.build_index(g)
    covered &= index.all_cells
    mismatch &= covered
    uncovered = index.all_cells & ~covered
    cells = [(i, j) for i in range(h) for j in range(w)]

    def leftover(c):
        return {(i, j) for i, j in cells
                if mismatch >> (i * w + j) & 1
                or (uncovered >> (i * w + j) & 1 and g.rows[i][j] != c)}

    want = min(range(10), key=lambda c: coding.l_dist(coding.P_BG[c])
               + coding.l_delta(leftover(c), (h, w)))
    colours = [(c, bits) for c, bits in enumerate(index.color_cells) if bits or not c]
    assert want == parsing._best_background(colours, uncovered, mismatch,
                                            parsing._DeltaCosts((h, w)))


@settings(max_examples=25)
@given(grid_terms(exprs=False), grid_pairs(), st.booleans(), st.data())
def test_parse_through_a_shared_index_matches_a_fresh_parse(t, pair, own_drawing, data):
    """The index's layer memo is keyed on every input of admission and of the
    reading terms, and its walk memo on every input of the walk: parses
    that share one index, interleaving diff budgets, candidate caps, node
    counts (so diff-location costs), free and fixed backgrounds, combo caps
    and templates with layers in common, read exactly what parses with a
    fresh index read."""
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
    calls = [(size, color, layers, cap, max_diffs)
             for size in sizes for color in (t.args[1], lang.UNK) for layers in layer_lists
             for cap in (1, 64) for max_diffs in (0, 3)]
    for size, color, layers, cap, max_diffs in data.draw(st.permutations(calls)):
        template = lang.grid(size, color, layers)
        cfg = parsing.ParseConfig(max_trees_before_sort=cap, max_diffs=max_diffs)
        assert (parsing.parse(template, g, parsing.Caches(cfg, indexes={g: index}))
                == parsing.parse(template, g, parsing.Caches(cfg)))


def _oracle_parse(template, g, index, cfg):
    """Readings by brute force, each as (tree, delta cells, diffs, dl):
    every combination of admitted candidates that uses no candidate twice
    and stays within the diff budget, sorted stably by (rank sum, ranks)
    and cut at `max_trees_before_sort`; each scored by the reference coders
    on its drawn tree, with the background that minimises prior plus delta
    (the smaller colour on ties) unless the model fixes it, its delta the
    cells where the drawing differs from the grid; then sorted stably by
    cost and cut at `max_trees_kept`."""
    size_t, color_t, layer_ts = template.args
    dims = (g.height, g.width)
    size = lang.vec(*dims)
    size_diffs = template_diffs(size_t, size)
    if len(size_diffs) > cfg.max_diffs:
        return []
    admitted = []
    for lt in layer_ts:
        picks = [(c, template_diffs(lt, c.tree)) for c in index.candidates]
        admitted.append([(c, d) for c, d in picks
                         if d is not None and len(size_diffs) + len(d) <= cfg.max_diffs])
    combos = []
    for ranks in product(*(range(len(a)) for a in admitted)):
        picks = [admitted[k][i] for k, i in enumerate(ranks)]
        if (len({id(c) for c, _ in picks}) == len(picks)
                and len(size_diffs) + sum(len(d) for _, d in picks) <= cfg.max_diffs):
            combos.append((ranks, picks))
    combos.sort(key=lambda rp: (sum(rp[0]), rp[0]))
    readings = []
    for _, picks in combos[:cfg.max_trees_before_sort]:
        objects = tuple(c.tree for c, _ in picks)
        diffs = (tuple((("size",) + p, t) for p, t in size_diffs)
                 + tuple((("layers", k) + p, t) for k, (_, d) in enumerate(picks) for p, t in d))

        def drawn(bg):
            tree = lang.grid(size, bg, objects)
            return tree, delta_between(g, parsing.draw(tree))

        if isinstance(color_t, int):
            bg = color_t
        else:
            bg = min(range(10), key=lambda c: coding.l_dist(coding.P_BG[c])
                     + coding.l_delta(drawn(c)[1], dims))
        tree, delta = drawn(bg)
        dl = coding.l_parse_tree(tree, template, diffs, dims) + coding.l_delta(delta, dims)
        readings.append((tree, delta, diffs, dl))
    readings.sort(key=lambda r: r[3])
    return readings[:cfg.max_trees_kept]


@st.composite
def walk_rows(draw):
    """0-4 layers of up to 6 walk rows, (bit, diffs, cells, wrong cells),
    whose candidates come from a pool of four, so that layers share bits
    (and a layer may list a candidate twice); each row has 0-2 diffs."""
    cells = st.integers(0, (1 << 12) - 1)
    pool = []
    for k in range(4):
        covered = draw(cells)
        pool.append((1 << k, covered, covered & draw(cells)))
    return [[(bit, draw(st.integers(0, 2)), covered, wrong)
             for bit, covered, wrong in draw(st.lists(st.sampled_from(pool), max_size=6))]
            for _ in range(draw(st.integers(0, 4)))]


def _oracle_walk(rows: list, cap: int, budget: int) -> list:
    """Every combination of one row per layer that uses no bit twice and
    has at most `budget` diffs, by (rank sum, ranks), the first `cap`."""
    combos = []
    for ranks in product(*(range(len(layer)) for layer in rows)):
        picks = [layer[i] for layer, i in zip(rows, ranks)]
        bits = [bit for bit, _, _, _ in picks]
        n = sum(nd for _, nd, _, _ in picks)
        if len(set(bits)) < len(bits) or n > budget:
            continue
        covered = wrong = 0
        for _, _, cells, wr in picks:
            wrong |= wr & ~covered
            covered |= cells
        combos.append((ranks, n, covered, wrong))
    combos.sort(key=lambda c: (sum(c[0]), c[0]))
    return combos[:cap]


# cheap examples; enough of them to meet prefixes that reach one inner
# state with different diff counts
@settings(max_examples=300)
@given(walk_rows(), st.integers(0, 3), st.integers(1, 20))
def test_walk_returns_the_first_injective_in_budget_combinations(rows, budget, cap):
    """`_walk`, with no step bound in reach, equals the brute-force oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parsing, "_MAX_STEPS", 10 ** 9)
        got = parsing._walk(rows, cap, budget)
    assert got == _oracle_walk(rows, cap, budget)


@pytest.mark.parametrize("max_diffs", [0, 3])
@given(few_colour_grids(), st.data())
def test_parse_reads_the_first_injective_in_budget_combinations_in_rank_order(max_diffs, g, data):
    """`parse` equals the brute-force oracle, costs by `==`, on up to eight
    candidates and up to four layers, identical layers included."""
    full = parsing.build_index(g)
    # a derived index starts with empty memos
    index = replace(full, candidates=full.candidates[:data.draw(st.sampled_from(range(8, -1, -1)))])
    anything = lang.pos_shape(lang.UNK, lang.UNK)
    pool = [anything, anything, anything,
            lang.pos_shape(lang.UNK, lang.rectangle(lang.UNK, lang.UNK, lang.UNK)),
            lang.pos_shape(lang.UNK, lang.point(lang.UNK))]
    for cand in index.candidates:
        # the candidate itself, or with a number changed: one diff to read it
        numbers = [p for p, _, _, x in lang.slots(cand.tree, lang.OBJECT) if isinstance(x, int)]
        p = data.draw(st.sampled_from([None] + numbers))
        pool.append(cand.tree if p is None
                    else lang.subst(cand.tree, p, (lang.resolve(cand.tree, p) + 1) % 10))
    n_layers = data.draw(st.sampled_from(range(4, -1, -1)))
    if data.draw(st.booleans()):
        layers = [data.draw(st.sampled_from(pool))] * n_layers
    else:
        layers = [data.draw(st.sampled_from(pool)) for _ in range(n_layers)]
    size = data.draw(st.sampled_from([lang.UNK, lang.vec(g.height, lang.UNK),
                                      lang.vec(g.height + 1, g.width)]))
    color = data.draw(st.sampled_from([lang.UNK, 0, g.rows[0][0]]))
    template = lang.grid(size, color, layers)
    cfg = parsing.ParseConfig(max_trees_before_sort=data.draw(st.sampled_from([1, 2, 5, 64])),
                              max_trees_kept=data.draw(st.sampled_from([1, 3, 64])),
                              max_diffs=max_diffs)
    readings = parsing.parse(template, g, parsing.Caches(cfg, indexes={g: index}))
    assert all(r.grid is g for r in readings)
    assert ([(r.tree, r.delta, r.diffs, r.dl) for r in readings]
            == _oracle_parse(template, g, index, cfg))
