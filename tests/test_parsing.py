"""Parsing: drawing, generation, candidates, approximate reads, losslessness."""

from dataclasses import replace

import numpy as np
import pytest

from gridmdl import coding, lang, parsing
from gridmdl.grids import Grid, GridError, delta_apply, mask_array
from gridmdl.lang import UNK, Var, bitmap, grid, in_out, point, pos_shape, rectangle, vec
from gridmdl.parsing import (
    Caches, ParseConfig, _matcher, build_index, draw, generate, parse, read,
    read_pair, recognize_mask, write,
)
from helpers import NESTED_SOLUTION_TEXT, parse_by_costing_all


def reconstructs(reading, g: Grid) -> bool:
    return delta_apply(draw(reading.tree), reading.delta) == g


# drawing

def test_draw_background_and_single_rectangle():
    g = draw(grid(vec(3, 4), 1, [pos_shape(vec(1, 1), rectangle(vec(2, 2), 5, lang.FULL))]))
    assert g.rows == ((1, 1, 1, 1),
                      (1, 5, 5, 1),
                      (1, 5, 5, 1))


def test_draw_layers_paint_front_to_back():
    front = pos_shape(vec(0, 0), rectangle(vec(2, 2), 3, lang.FULL))
    back = pos_shape(vec(0, 0), rectangle(vec(2, 3), 6, lang.FULL))
    g = draw(grid(vec(2, 3), 0, [front, back]))
    assert g.rows == ((3, 3, 6),
                      (3, 3, 6))


def test_draw_clips_at_the_edges():
    g = draw(grid(vec(2, 2), 0, [pos_shape(vec(1, 1), rectangle(vec(3, 3), 7, lang.FULL))]))
    assert g.rows == ((0, 0),
                      (0, 7))


def test_draw_masks_select_cells():
    g = draw(grid(vec(3, 3), 0, [pos_shape(vec(0, 0), rectangle(vec(3, 3), 4, lang.BORDER))]))
    assert g.rows == ((4, 4, 4),
                      (4, 0, 4),
                      (4, 4, 4))
    g2 = draw(grid(vec(2, 2), 0, [pos_shape(vec(0, 0),
                                            rectangle(vec(2, 2), 4, lang.EVEN_CHECKBOARD))]))
    assert g2.rows == ((4, 0),
                       (0, 4))


def test_draw_points_and_bitmaps():
    bm = rectangle(vec(2, 2), 9, bitmap([[0, 1], [1, 0]]))
    g = draw(grid(vec(2, 3), 0, [pos_shape(vec(0, 0), bm), pos_shape(vec(0, 2), point(2))]))
    assert g.rows == ((0, 9, 2),
                      (9, 0, 0))


@pytest.mark.parametrize("size", [(0, 2), (2, 0), (0, 0)])
def test_draw_refuses_a_rectangle_side_below_one(size):
    obj = pos_shape(vec(0, 0), rectangle(vec(*size), 2, lang.FULL))
    with pytest.raises(GridError, match=f"degenerate rectangle size {size[0]}x{size[1]}"):
        draw(grid(vec(3, 3), 0, [obj]))


def _with_colour(where: str, c):
    """A 3x3 grid term whose background, point or rectangle has colour `c`."""
    if where == "background":
        return grid(vec(3, 3), c, [])
    shape = point(c) if where == "point" else rectangle(vec(2, 2), c, lang.FULL)
    return grid(vec(3, 3), 0, [pos_shape(vec(1, 1), shape)])


@pytest.mark.parametrize("where", ["background", "point", "rectangle"])
@pytest.mark.parametrize("c", [300, -200, True, 2.0, 12])
def test_draw_refuses_a_colour_that_grid_refuses(where, c):
    with pytest.raises(GridError, match=f"{where}.* {c!r} is not a colour 0-9"):
        draw(_with_colour(where, c))
    # a tree that is not ground is refused for that first
    with pytest.raises(lang.LangError, match="ground"):
        draw(lang.subst(_with_colour(where, c), ("size",), UNK))


@pytest.mark.parametrize("pos", [
    (-1, 1), (1, -1), (3, 1), (1, 4),        # over each border
    (-1, -1), (-1, 4), (3, -1), (3, 4),      # over each corner
    (-3, 1), (1, -3), (5, 1), (1, 6),        # wholly outside
])
def test_a_full_rectangle_paints_the_cells_of_its_boolean_mask(pos):
    h, w, sh, sw = 5, 6, 3, 3
    g = draw(grid(vec(h, w), 1, [pos_shape(vec(*pos), rectangle(vec(sh, sw), 7, lang.FULL))]))
    want = np.ones((h, w), dtype=np.int8)
    cells = mask_array("Full", sh, sw)
    for i, j in zip(*np.nonzero(cells)):
        if 0 <= pos[0] + i < h and 0 <= pos[1] + j < w:
            want[pos[0] + i, pos[1] + j] = 7
    assert g == Grid.from_array(want)


def test_draw_requires_ground_term():
    with pytest.raises(lang.LangError):
        draw(grid(UNK, 0, []))
    # an unknown deep in a layer is refused too, with no grid painted
    deep = grid(vec(3, 3), 0, [pos_shape(vec(0, 0), rectangle(vec(2, 2), UNK, lang.FULL))])
    with pytest.raises(lang.LangError, match="ground"):
        draw(deep)


# generation

def test_generate_fills_template_defaults():
    t = generate(grid(UNK, UNK, []))
    assert t == grid(vec(10, 10), 0, [])


def test_generate_keeps_pinned_slots():
    t = generate(grid(vec(3, 7), UNK, [pos_shape(UNK, rectangle(UNK, 6, UNK))]))
    assert lang.resolve(t, ("size",)) == vec(3, 7)
    assert lang.resolve(t, ("layers", 0, "shape", "color")) == 6
    assert lang.is_ground(t)


def test_generate_defaults_follow_slot_roles():
    t = generate(grid(vec(UNK, 4), UNK, [
        pos_shape(vec(UNK, 1), rectangle(vec(3, UNK), UNK, UNK)),
        pos_shape(UNK, point(UNK)),
    ]))
    assert t == grid(vec(10, 4), 0, [
        pos_shape(vec(0, 1), rectangle(vec(3, 2), 5, lang.FULL)),
        pos_shape(vec(0, 0), point(5)),
    ])


def test_write_draws_the_generated_tree():
    tree, g = write(grid(vec(2, 2), 3, []), None)
    assert tree == grid(vec(2, 2), 3, [])
    assert g == Grid([[3, 3], [3, 3]])


def test_write_paints_what_draw_paints():
    # `write` skips `draw`'s ground check on the tree `generate` built
    m_in, m_out = lang.parse_model(NESTED_SOLUTION_TEXT).args
    sides = [(grid(UNK, UNK, []), None), (m_in, None),
             (grid(vec(UNK, 4), UNK, [pos_shape(vec(UNK, 1), rectangle(vec(3, UNK), UNK, UNK)),
                                      pos_shape(UNK, point(UNK))]), None)]
    sides.append((m_out, write(m_in, None)[0]))
    for m, env in sides:
        tree, g = write(m, env)
        assert lang.is_ground(tree)
        assert g == draw(tree)
        assert generate(tree) is tree


# mask recognition

def _cells_array(cells, h: int, w: int) -> np.ndarray:
    arr = np.zeros((h, w), dtype=bool)
    for i, j in cells:
        arr[i, j] = True
    return arr


@pytest.mark.parametrize("cells,h,w,want", [
    ({(i, j) for i in range(2) for j in range(3)}, 2, 3, lang.FULL),
    ({(i, j) for i in range(3) for j in range(4) if i in (0, 2) or j in (0, 3)},
     3, 4, lang.BORDER),
    ({(i, j) for i in range(3) for j in range(3) if (i + j) % 2 == 0}, 3, 3,
     lang.EVEN_CHECKBOARD),
    ({(i, j) for i in range(3) for j in range(3) if (i + j) % 2 == 1}, 3, 3,
     lang.ODD_CHECKBOARD),
    ({(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)}, 3, 3, lang.PLUS_CROSS),
    # on 3x3 the diagonals coincide with the even checkerboard, so use 5x5
    ({(i, i) for i in range(5)} | {(i, 4 - i) for i in range(5)}, 5, 5,
     lang.TIMES_CROSS),
])
def test_recognize_regular_masks(cells, h, w, want):
    assert recognize_mask(_cells_array(cells, h, w)) == want


def test_recognize_irregular_cells_as_bitmap():
    got = recognize_mask(_cells_array({(0, 0), (1, 1), (1, 2)}, 2, 3))
    assert got == bitmap([[1, 0, 0], [0, 1, 1]])


def test_cross_masks_need_odd_extents():
    # a plus-shaped region in a 4-wide box cannot be the centred cross
    cells = {(1, j) for j in range(4)} | {(0, 1), (2, 1)}
    got = recognize_mask(_cells_array(cells, 3, 4))
    assert got.name == "Bitmap"


# candidate indexing

def nested_input_grid():
    return draw(grid(vec(12, 13), 0, [
        pos_shape(vec(2, 4), rectangle(vec(2, 2), 4, lang.FULL)),
        pos_shape(vec(1, 3), rectangle(vec(4, 4), 2, lang.FULL)),
    ]))


def test_candidates_order_big_coloured_parts_first():
    idx = build_index(nested_input_grid())
    texts = [lang.term_to_text(c.tree, lang.OBJECT) for c in idx.candidates]
    assert texts[0] == "PosShape(Vec(1, 3), Rectangle(Vec(4, 4), red, Full))"
    assert texts[1] == "PosShape(Vec(1, 3), Rectangle(Vec(4, 4), red, Border))"
    assert texts[2] == "PosShape(Vec(2, 4), Rectangle(Vec(2, 2), yellow, Full))"
    # the small rectangle also explodes into its four cells
    assert texts[3] == "PosShape(Vec(2, 4), Point(yellow))"
    # black parts rank after all coloured candidates
    first_black = next(k for k, c in enumerate(idx.candidates) if c.color == 0)
    assert all(c.color != 0 for c in idx.candidates[:first_black])


def test_single_cell_part_is_a_point_candidate():
    idx = build_index(Grid([[0, 0], [0, 6]]))
    pts = [c for c in idx.candidates if c.color == 6]
    assert len(pts) == 1
    assert pts[0].tree == pos_shape(vec(1, 1), point(6))


def _bits(width: int, *cells) -> int:
    return sum(1 << (i * width + j) for i, j in cells)


def _rectangles(idx, color: int) -> dict:
    """The colour's rectangle candidates by (position, size, mask name)."""
    out = {}
    for c in idx.candidates:
        shape = c.tree.args[1]
        if c.color == color and shape.name == "Rectangle":
            out[(c.tree.args[0], shape.args[0], shape.args[2].name)] = c
    return out


def test_full_box_candidates_count_the_other_colour_cells_as_wrong():
    g = Grid([[4, 4, 0],
              [4, 7, 0],
              [0, 0, 0]])
    rects = _rectangles(build_index(g), 4)
    full = rects[(vec(0, 0), vec(2, 2), "Full")]
    assert full.cells == _bits(3, (0, 0), (0, 1), (1, 0), (1, 1))
    assert full.wrong == _bits(3, (1, 1))
    exact = rects[(vec(0, 0), vec(2, 2), "Bitmap")]
    assert exact.cells == _bits(3, (0, 0), (0, 1), (1, 0))
    assert exact.wrong == 0


def test_same_colour_parts_yield_union_candidates():
    g = Grid([[5, 1, 5],
              [5, 0, 5],
              [5, 0, 5]])
    rects = _rectangles(build_index(g), 5)
    # the union's box follows the same wrong-cell rule as a part's
    full = rects[(vec(0, 0), vec(3, 3), "Full")]
    assert full.wrong == _bits(3, (0, 1), (1, 1), (2, 1))
    exact = rects[(vec(0, 0), vec(3, 3), "Bitmap")]
    assert exact.cells == _bits(3, *((i, j) for i in range(3) for j in (0, 2)))
    assert exact.wrong == 0


def test_no_union_when_its_box_exceeds_four_times_its_cells():
    near = _rectangles(build_index(Grid([[3] + [0] * 6 + [3, 0, 0]])), 3)
    assert set(near) == {(vec(0, 0), vec(1, 8), "Full"), (vec(0, 0), vec(1, 8), "Bitmap")}
    far = _rectangles(build_index(Grid([[3] + [0] * 8 + [3]])), 3)
    assert far == {}


def test_only_parts_under_five_cells_explode_into_points():
    g = Grid([[2, 2, 2, 2, 2],
              [0, 0, 0, 0, 0],
              [6, 6, 6, 6, 0]])
    points = [c for c in build_index(g).candidates if c.tree.args[1].name == "Point"]
    assert sorted((c.color, c.top, c.left) for c in points) == [(6, 2, j) for j in range(4)]
    assert all(c.wrong == 0 and c.cells == _bits(5, (c.top, c.left)) for c in points)


def test_candidate_count_is_bounded():
    rng_rows = [[(i * 7 + j * 5) % 10 for j in range(20)] for i in range(20)]
    idx = build_index(Grid(rng_rows))
    assert len(idx.candidates) <= 512


# template diffs, as the compiled matcher gives them

def test_template_diffs_exact_match_is_empty():
    t = pos_shape(vec(1, 1), point(3))
    assert _matcher(t)(t) == ()


def test_template_diffs_unknowns_absorb():
    tmpl = pos_shape(UNK, rectangle(UNK, UNK, UNK))
    tree = pos_shape(vec(0, 1), rectangle(vec(2, 2), 5, lang.BORDER))
    assert _matcher(tmpl)(tree) == ()


def test_template_diffs_report_mismatching_leaves():
    tmpl = pos_shape(vec(1, 1), rectangle(vec(2, 2), 5, lang.FULL))
    tree = pos_shape(vec(1, 2), rectangle(vec(2, 2), 6, lang.FULL))
    got = _matcher(tmpl)(tree)
    assert got == ((("pos", "j"), 2), (("shape", "color"), 6))


def test_template_diffs_constructor_mismatch_is_one_diff():
    tmpl = pos_shape(vec(1, 1), rectangle(UNK, UNK, UNK))
    tree = pos_shape(vec(1, 1), point(3))
    assert _matcher(tmpl)(tree) == ((("shape",), point(3)),)


# parsing

def test_parse_initial_model_is_lossless_and_sorted():
    g = nested_input_grid()
    readings = parse(grid(UNK, UNK, []), g, Caches())
    assert 0 < len(readings) <= 3
    assert all(reconstructs(r, g) for r in readings)
    assert [r.dl for r in readings] == sorted(r.dl for r in readings)


def test_parse_reading_of_a_plain_scene_recovers_objects():
    g = nested_input_grid()
    template = grid(UNK, UNK, [pos_shape(UNK, rectangle(UNK, UNK, UNK)),
                               pos_shape(UNK, rectangle(UNK, UNK, UNK))])
    readings = parse(template, g, Caches())
    assert readings
    best = readings[0].tree
    assert lang.resolve(best, ("size",)) == vec(12, 13)
    assert lang.resolve(best, ("color",)) == 0
    assert best.args[2][0] == pos_shape(vec(2, 4), rectangle(vec(2, 2), 4, lang.FULL))
    # the large rectangle reads as Full: its hidden centre is repainted by the
    # small one on top, and Full is the cheaper mask
    assert best.args[2][1] == pos_shape(vec(1, 3), rectangle(vec(4, 4), 2, lang.FULL))
    assert readings[0].delta == frozenset()
    assert readings[0].diffs == ()
    assert reconstructs(readings[0], g)


def test_parse_missing_objects_fall_back_to_the_delta():
    g = Grid([[0, 0, 0],
              [0, 8, 0],
              [0, 0, 0]])
    readings = parse(grid(UNK, UNK, []), g, Caches())
    assert readings
    plain = readings[0]
    # with no layers in the template the odd cell is carried by the delta
    assert plain.tree.args[2] == ()
    assert plain.delta == frozenset({(1, 1, 8)})
    assert reconstructs(plain, g)


def test_parse_unknown_background_picks_cheapest_colour():
    g = Grid([[7, 7, 7],
              [7, 7, 7],
              [7, 7, 0]])
    readings = parse(grid(UNK, UNK, []), g, Caches())
    assert readings[0].tree.args[1] == 7


def test_parse_unknown_background_breaks_ties_to_smaller_colour():
    readings = parse(grid(UNK, UNK, []), Grid([[3, 3], [7, 7]]), Caches())
    assert readings
    assert readings[0].tree.args[1] == 3


def test_parse_keeps_search_order_among_equal_costs():
    g = Grid([[2, 0, 0],
              [0, 0, 0],
              [0, 0, 2]])
    readings = parse(grid(UNK, 0, [pos_shape(UNK, UNK)]), g, Caches())
    # either red cell reads as the layer at the same cost; the search meets
    # the top-left one first, and a stable sort keeps it first
    assert readings[0].dl == readings[1].dl
    assert [r.tree.args[2][0].args[0] for r in readings[:2]] == [vec(0, 0), vec(2, 2)]


def test_parse_keeps_walk_order_in_a_tie_whose_keys_differ_by_rounding():
    # two like layers over the red bar and the point at its left end: either
    # order draws the grid and costs the same, but the pre-summed keys of the
    # two orders differ in the last bit, so only the guard keeps the order
    # the walk met first, the bar in front
    g = Grid([[0, 0, 0, 0],
              [2, 2, 2, 2]])
    template = grid(UNK, 0, [pos_shape(UNK, UNK)] * 2)
    bar = pos_shape(vec(1, 0), rectangle(vec(1, 4), 2, lang.FULL))
    dot = pos_shape(vec(1, 0), point(2))
    both = parse(template, g, Caches(ParseConfig(max_trees_kept=2)))
    assert [r.tree.args[2] for r in both] == [(bar, dot), (dot, bar)]
    assert both[0].dl == both[1].dl
    cfg = ParseConfig(max_trees_kept=1)
    assert parse(template, g, Caches(cfg)) == both[:1]
    assert parse(template, g, Caches(cfg)) == parse_by_costing_all(template, g, Caches(cfg))


def test_parse_ground_size_mismatch_needs_diff_budget():
    g = Grid([[0] * 4] * 3)
    strict = parse(grid(vec(4, 4), UNK, []), g, Caches())
    assert strict == ()
    lax = parse(grid(vec(4, 4), UNK, []), g, Caches(ParseConfig(max_diffs=3)))
    assert lax
    assert ((("size", "i"), 3) in lax[0].diffs)
    assert reconstructs(lax[0], g)


def test_parse_respects_diff_budget_count():
    g = Grid([[0] * 4] * 3)
    one_short = parse(grid(vec(4, 5), UNK, []), g, Caches(ParseConfig(max_diffs=1)))
    assert one_short == ()
    enough = parse(grid(vec(4, 5), UNK, []), g, Caches(ParseConfig(max_diffs=2)))
    assert enough


def test_parse_layer_template_mismatch_uses_diffs_when_allowed():
    g = draw(grid(vec(5, 5), 0, [pos_shape(vec(1, 1), rectangle(vec(3, 3), 2, lang.FULL))]))
    tmpl = grid(UNK, UNK, [pos_shape(UNK, rectangle(UNK, 4, UNK))])
    assert parse(tmpl, g, Caches()) == ()
    lax = parse(tmpl, g, Caches(ParseConfig(max_diffs=1)))
    assert lax
    assert ((("layers", 0, "shape", "color"), 2),) == lax[0].diffs
    assert reconstructs(lax[0], g)


def test_parse_prefers_cheaper_object_reading_over_delta():
    g = draw(grid(vec(6, 6), 0, [pos_shape(vec(1, 1), rectangle(vec(3, 3), 5, lang.FULL))]))
    with_layer = parse(grid(UNK, UNK, [pos_shape(UNK, rectangle(UNK, UNK, UNK))]), g, Caches())
    without = parse(grid(UNK, UNK, []), g, Caches())
    assert with_layer[0].dl < without[0].dl


def _scene(n_objects: int) -> Grid:
    """Rectangles of distinct colours in rows of three on a black 20x20 grid."""
    objects = [pos_shape(vec(1 + 6 * (k // 3), 1 + 6 * (k % 3)),
                         rectangle(vec(2 + k % 3, 3), 1 + k, lang.FULL))
               for k in range(n_objects)]
    return draw(grid(vec(20, 20), 0, objects))


def _like_layers(n: int):
    return grid(UNK, UNK, [pos_shape(UNK, rectangle(UNK, UNK, UNK))] * n)


def test_parse_reads_six_like_layers_over_six_objects():
    g = _scene(6)
    readings = parse(_like_layers(6), g, Caches())
    assert readings
    assert readings[0].delta == frozenset()
    assert len(set(readings[0].tree.args[2])) == 6
    assert all(reconstructs(r, g) for r in readings)


def test_parse_keeps_the_readings_scored_when_the_step_bound_binds(monkeypatch):
    g = _scene(6)
    full = parse(_like_layers(6), g, Caches(ParseConfig(max_trees_kept=64)))
    # a bound that lets the walk reach some of the combinations, not all
    monkeypatch.setattr(parsing, "_MAX_STEPS", 3500)
    cut = parse(_like_layers(6), g, Caches(ParseConfig(max_trees_kept=64)))
    assert 0 < len(cut) < len(full)
    assert set(cut) <= set(full)


def test_parse_of_more_like_layers_than_candidates_reads_nothing(monkeypatch):
    g = _scene(6)
    assert len(build_index(g).candidates) == 8
    assert parse(_like_layers(9), g, Caches()) == ()
    # without the bound the walk exhausts every combination: states that
    # scored nothing are not walked again
    monkeypatch.setattr(parsing, "_MAX_STEPS", 10 ** 9)
    assert parse(_like_layers(9), g, Caches()) == ()


def test_parses_sharing_one_index_read_as_through_a_fresh_one():
    """The walk memo keys on each layer's row set, the cap, the diff budget
    and the background mode. `rect` and `rect_parts` admit the same
    candidates with the same diff counts but pay different fills; `anything`
    admits them too, but a point takes no diff under it. Interleaved through
    one index, every parse reads what it reads through a fresh index, and
    the index holds fewer walks than there are parses that read."""
    g = draw(grid(vec(8, 8), 0, [
        pos_shape(vec(1, 1), rectangle(vec(2, 3), 2, lang.FULL)),
        pos_shape(vec(5, 5), rectangle(vec(2, 2), 1, lang.FULL)),
        pos_shape(vec(6, 1), point(3)),
        pos_shape(vec(0, 6), rectangle(vec(1, 2), 4, lang.FULL))]))
    rect = pos_shape(UNK, rectangle(UNK, UNK, UNK))
    rect_parts = pos_shape(vec(UNK, UNK), rectangle(vec(UNK, UNK), UNK, UNK))
    anything = pos_shape(UNK, UNK)
    index = build_index(g)
    parses = 0
    for layer in (anything, rect, rect_parts) * 2:
        # free and fixed backgrounds; sizes taking 0 and 2 diffs, so budgets
        # max_diffs and max_diffs - 2
        for color in (UNK, 4):
            for size in (UNK, vec(9, 9)):
                for cap in (1, 64):
                    for max_diffs in (0, 1, 3):
                        template = grid(size, color, [layer, layer])
                        cfg = ParseConfig(max_trees_before_sort=cap, max_trees_kept=64,
                                          max_diffs=max_diffs)
                        got = parse(template, g, Caches(cfg, indexes={g: index}))
                        parses += bool(got)
                        want = parse(template, g, Caches(cfg))
                        assert ([(r.tree, r.delta, r.diffs, r.dl) for r in got]
                                == [(r.tree, r.delta, r.diffs, r.dl) for r in want])
    assert len(index.walks) < parses


def test_a_derived_index_starts_with_empty_memos():
    g = draw(grid(vec(4, 4), 0, [pos_shape(vec(1, 1), rectangle(vec(2, 2), 5, lang.FULL))]))
    caches = Caches()
    assert read(grid(UNK, UNK, [pos_shape(UNK, UNK)]), None, g, caches)
    index = caches.indexes[g]
    assert index.layers and index.walks and index.bg_terms and index.readings
    derived = replace(index, candidates=index.candidates[:1])
    assert (derived.layers, derived.walks, derived.bg_terms, derived.readings) == ({}, {}, {}, {})


# read / read_pair

def test_read_applies_the_environment():
    env = grid(vec(4, 4), 0, [pos_shape(vec(1, 1), rectangle(vec(2, 2), 6, lang.FULL))])
    m = grid(Var(("layers", 0, "shape", "size")), Var(("layers", 0, "shape", "color")), [])
    g = Grid([[6, 6], [6, 6]])
    readings = read(m, env, g, Caches())
    assert readings and readings[0].tree == grid(vec(2, 2), 6, [])


def test_read_returns_nothing_on_dangling_environment():
    m = grid(Var(("layers", 3, "shape", "size")), UNK, [])
    env = grid(vec(2, 2), 0, [])
    assert read(m, env, Grid([[0]]), Caches()) == ()


def test_read_caches_by_applied_model_and_grid():
    caches = Caches()
    g = nested_input_grid()
    m = grid(UNK, UNK, [])
    first = read(m, None, g, caches=caches)
    second = read(m, None, g, caches=caches)
    assert first is second
    assert g in caches.indexes


def test_each_context_reads_a_grid_as_a_fresh_read_under_its_own_config():
    # two contexts over one grid, read in turn: neither hands the other its
    # readings, and a read through a context parses under its config
    g = nested_input_grid()
    m = grid(UNK, UNK, [pos_shape(UNK, rectangle(UNK, UNK, UNK))])
    contexts = [Caches(ParseConfig(max_trees_kept=3)),
                Caches(ParseConfig(max_trees_kept=1, max_diffs=2))]
    for _ in range(2):
        for caches in contexts:
            assert read(m, None, g, caches) == read(m, None, g, Caches(caches.cfg))
    assert [len(read(m, None, g, caches)) for caches in contexts] == [3, 1]
    for caches in contexts:
        assert read(m, None, g, caches) == parse(m, g, Caches(caches.cfg))


def test_the_applied_layer_memo_keys_on_the_environment():
    """`layers[0].pos.i - 3` fails on an input object in row 1 and applies
    on one in row 5. Through one `Caches`, in either order and twice each,
    with two sides sharing the layer (so the second meets the memo), the
    failing tree reads nothing and the other reads as through a fresh one.
    Sides and layers share `Caches.applied`; a failure is kept as its
    message."""
    shift = lang.App("minus", (Var(("layers", 0, "pos", "i")), 3))
    layer = pos_shape(vec(shift, UNK), UNK)
    sides = [grid(UNK, UNK, [layer]), grid(vec(8, 8), UNK, [layer])]
    fails = grid(vec(8, 8), 0, [pos_shape(vec(1, 2), point(4))])
    holds = grid(vec(8, 8), 0, [pos_shape(vec(5, 2), point(4))])
    g = draw(grid(vec(8, 8), 0, [pos_shape(vec(2, 2), point(4))]))
    want = {m: read(m, holds, g, caches=Caches()) for m in sides}
    assert all(want.values())
    for order in ((fails, holds), (holds, fails)):
        caches = Caches()
        for env in order * 2:
            for m in sides:
                assert read(m, env, g, caches=caches) == (() if env is fails else want[m])
        assert caches.applied[(layer, holds)] == pos_shape(vec(2, UNK), UNK)
        assert caches.applied[(layer, fails)] == "negative difference"
        # a failure found in the memo raises again, as traced calls must see
        with pytest.raises(lang.LangError, match="negative difference"):
            lang.apply_model(sides[0], fails, caches.applied)


def test_read_pair_chains_input_tree_into_output_model():
    model = in_out(
        grid(UNK, UNK, [pos_shape(UNK, rectangle(UNK, UNK, UNK))]),
        grid(Var(("layers", 0, "shape", "size")), Var(("layers", 0, "shape", "color")), []),
    )
    gi = draw(grid(vec(5, 5), 0, [pos_shape(vec(1, 1), rectangle(vec(2, 3), 7, lang.FULL))]))
    go = Grid([[7, 7, 7], [7, 7, 7]])
    pairs = read_pair(model, gi, go, Caches())
    assert pairs
    best = pairs[0]
    assert best.rout.delta == frozenset()
    assert best.dl == pytest.approx(best.rin.dl + best.rout.dl)
    assert [p.dl for p in pairs] == sorted(p.dl for p in pairs)
