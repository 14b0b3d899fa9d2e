"""Description lengths: elementary codes, model costs, fills, deltas, tables."""

import math

import pytest

from gridmdl import coding, lang
from gridmdl.coding import (
    ModelEvalError, Normalizer, format_eval_table, l_delta, l_dist,
    l_model, l_nat, l_pair_model, l_parse_tree, l_position, l_task,
    l_uniform, l_var, path_similarity,
)
from gridmdl.grids import Grid
from gridmdl.lang import UNK, Var, grid, in_out, point, pos_shape, rectangle, vec
from gridmdl.parsing import Caches

KIND = -math.log2(0.4)      # the value-kind charge every concrete node pays
UNKNOWN = -math.log2(0.1)   # an unknown slot in a model


# elementary codes

def test_l_nat_matches_closed_form():
    for n in range(0, 40):
        assert l_nat(n) == pytest.approx(2 * math.log2(n + 1) + 1, abs=1e-12)


def test_l_uniform():
    assert l_uniform(1) == 0.0
    assert l_uniform(2) == 1.0
    assert l_uniform(8) == 3.0


def test_l_dist_is_surprisal():
    assert l_dist(0.5) == 1.0
    assert l_dist(0.25) == 2.0


def test_l_position_uses_extent_or_default_dim():
    assert l_position(8) == 3.0
    assert l_position(None) == pytest.approx(math.log2(30))


# distributions

def test_distribution_weights_are_the_documented_ones():
    assert coding.P_TEMPLATE == {"value": 0.4, "expr": 0.5, "unknown": 0.1}
    assert coding.P_EXPR == {"app": 0.5, "var": 0.5}
    assert coding.P_SHAPE == {"Point": 0.5, "Rectangle": 0.5}
    assert coding.P_BG[0] == 0.91
    assert all(coding.P_BG[c] == 0.01 for c in range(1, 10))
    assert coding.P_MASK["Full"] == 0.5
    assert coding.P_MASK["Bitmap"] == 0.3
    assert coding.P_MASK["Border"] == 0.1
    assert set(coding.FUNCTIONS) == {"zero", "plus", "minus"}


# variable coding

def test_path_similarity_is_longest_common_field_suffix():
    assert path_similarity(("size", "i"), ("size", "i")) == 2
    # list indices drop before comparison, so these agree on all three fields
    assert path_similarity(("layers", 0, "pos", "i"), ("layers", 1, "pos", "i")) == 3
    assert path_similarity(("layers", 0, "shape", "size"), ("size",)) == 1
    assert path_similarity(("color",), ("size",)) == 0


def test_l_var_softmax_prefers_similar_paths():
    slot = ("size", "i")
    cands = (("size", "i"), ("layers", 0, "pos", "i"))
    # similarities 2 and 1, soft weights e^2 and e^1
    want = math.log2(1 + math.exp(-1))
    assert l_var(("size", "i"), slot, cands) == pytest.approx(want, abs=1e-12)
    assert l_var(("layers", 0, "pos", "i"), slot, cands) == pytest.approx(
        math.log2(1 + math.exp(1)), abs=1e-12)


def test_l_var_is_keyed_on_the_path_the_slot_and_the_candidates():
    """Keys that differ in one argument each, in one process-wide cache:
    each cost is the uncached cost of its own key."""
    cands = (("size", "i"), ("layers", 0, "pos", "i"))
    keys = [(("size", "i"), ("size", "i"), cands),
            (("size", "i"), ("layers", 0, "pos", "i"), cands),
            (("layers", 0, "pos", "i"), ("size", "i"), cands),
            (("size", "i"), ("size", "i"), cands + (("layers", 1, "size", "i"),))]
    for key in keys * 2:
        assert l_var(*key) == l_var.__wrapped__(*key)
    assert len({l_var(*key) for key in keys}) == len(keys)


def test_l_ground_is_keyed_on_the_term_the_sort_the_role_and_the_dims():
    """Keys that each differ from an earlier one in one part (the role,
    the dims, the sort, then the term under a size role), in one
    process-wide cache: each cost is the uncached cost of its own key."""
    keys = [(3, lang.NAT, "pos_i", (8, 5)), (3, lang.NAT, "pos_j", (8, 5)),
            (3, lang.NAT, "pos_i", (16, 5)), (3, lang.COLOR, "pos_i", (8, 5)),
            (3, lang.NAT, "size", (8, 5)), (7, lang.NAT, "size", (8, 5)),
            (vec(3, 2), lang.VEC, "size", (8, 5)), (vec(3, 4), lang.VEC, "size", (8, 5))]
    for key in keys * 2:
        assert coding._l_ground(*key) == coding._l_ground.__wrapped__(*key)
    assert len({coding._l_ground(*key) for key in keys}) == len(keys)


def test_l_var_single_candidate_is_free():
    assert l_var(("size",), ("size",), (("size",),)) == 0.0


def test_l_var_unknown_path_raises():
    with pytest.raises(lang.LangError):
        l_var(("color",), ("size",), (("size",),))


# model costs

def test_initial_grid_model_cost():
    # kind charge for the grid node, two unknown slots, an empty layer list
    want = KIND + 2 * UNKNOWN + l_nat(0)
    assert l_model(grid(UNK, UNK, [])) == pytest.approx(want, abs=1e-12)
    assert l_model(grid(UNK, UNK, [])) == pytest.approx(8.9658, abs=1e-4)


def test_initial_pair_model_cost():
    m0 = in_out(grid(UNK, UNK, []), grid(UNK, UNK, []))
    lin, lout = l_pair_model(m0, Caches())
    assert lin == lout == pytest.approx(8.9658, abs=1e-4)
    assert lin + lout == pytest.approx(17.93, abs=5e-3)


def test_ground_size_vector_cost():
    m = grid(vec(2, 3), UNK, [])
    want = KIND + (KIND + (KIND + l_nat(2)) + (KIND + l_nat(3))) + UNKNOWN + l_nat(0)
    assert l_model(m) == pytest.approx(want, abs=1e-12)


def test_layer_positions_use_grid_extent_only_when_size_is_ground():
    obj = pos_shape(vec(1, 1), point(5))
    pinned = grid(vec(4, 8), 0, [obj])
    free = grid(UNK, 0, [obj])
    # identical除 the size slot and the position extents
    pos_pinned = math.log2(4) + math.log2(8)
    pos_free = 2 * math.log2(30)
    diff = l_model(pinned) - l_model(free)
    size_slot = (KIND + 2 * KIND + l_nat(4) + l_nat(8)) - UNKNOWN
    assert diff == pytest.approx(size_slot + (pos_pinned - pos_free), abs=1e-12)


def test_background_colour_prior_favours_black():
    black = grid(UNK, 0, [])
    red = grid(UNK, 2, [])
    assert l_model(red) - l_model(black) == pytest.approx(
        l_dist(0.01) - l_dist(0.91), abs=1e-12)


def test_expression_slots_need_a_signature():
    gin = grid(UNK, UNK, [])
    gout = grid(Var(("size",)), UNK, [])
    with pytest.raises(lang.LangError):
        l_model(gout, None)
    sig = lang.signature(gin)
    # kind "expr" (-log2 .5), var branch (-log2 .5), sole vec path is free
    assert l_model(gout, sig) == pytest.approx(KIND + 1 + 1 + UNKNOWN + l_nat(0), abs=1e-12)


def test_function_application_cost():
    gin = grid(UNK, UNK, [])
    sig = lang.signature(gin)
    gout = grid(UNK, UNK, [])
    e = lang.App("plus", (Var(("size", "i")), 1))
    m = lang.subst(gout, ("size",), vec(e, UNK))
    # size slot: kind + i-slot + j-slot; the i slot pays expr kind, app branch,
    # a uniform function choice, then both arguments as slots themselves.
    nat_paths = sig[lang.NAT]
    arg_var = 1 + 1 + l_var(("size", "i"), ("size", "i"), nat_paths)
    arg_const = KIND + l_nat(1)
    i_slot = 1 + 1 + math.log2(3) + arg_var + arg_const
    want = KIND + (KIND + i_slot + UNKNOWN) + UNKNOWN + l_nat(0)
    assert l_model(m, sig) == pytest.approx(want, abs=1e-12)


# fills

def fill_cost(value, sort, role, dims):
    """What a parse pays for a ground value where the model has an unknown
    slot of that sort and role: the fill term of `coding.slot_terms`."""
    dterms, (cost,) = coding.slot_terms(UNK, value, (), dims, 0.0, sort, role)
    assert dterms == []
    return cost


def test_slot_plan_is_keyed_on_the_sort_and_role_the_model_fills():
    """One vector template under three roles, then one unknown under three
    sorts, in one process-wide cache: each plan is the `lang.slots` walk of
    its own key, so a key without the role or the sort gives a wrong plan."""
    keys = [(vec(UNK, UNK), lang.VEC, role) for role in ("grid_size", "size", "pos")]
    keys += [(UNK, sort, "") for sort in (lang.NAT, lang.COLOR, lang.VEC)]
    for model, sort, role in keys * 2:
        slot_of, unknowns = coding.slot_plan(model, sort, role)
        walk = list(lang.slots(model, sort, role))
        assert slot_of == {p: (s, r) for p, s, r, _ in walk}
        assert unknowns == tuple((p, s, r) for p, s, r, t in walk if t == UNK)
    _, unknowns = coding.slot_plan(vec(UNK, UNK), lang.VEC, "pos")
    assert [r for _, _, r in unknowns] == ["pos_i", "pos_j"]


def test_fill_costs_by_sort_and_role():
    assert fill_cost(7, lang.NAT, "size", None) == pytest.approx(KIND + l_nat(7))
    assert fill_cost(3, lang.NAT, "pos_i", (8, 5)) == pytest.approx(KIND + 3.0)
    assert fill_cost(3, lang.NAT, "pos_j", (8, 5)) == pytest.approx(KIND + math.log2(5))
    assert fill_cost(0, lang.COLOR, "bg", None) == pytest.approx(KIND + l_dist(0.91))
    assert fill_cost(4, lang.COLOR, "bg", None) == pytest.approx(KIND + l_dist(0.01))
    assert fill_cost(4, lang.COLOR, "", None) == pytest.approx(KIND + math.log2(10))


def test_fill_vector_roles_propagate_to_components():
    pos = fill_cost(vec(2, 3), lang.VEC, "pos", (4, 8))
    assert pos == pytest.approx(KIND + (KIND + 2) + (KIND + 3), abs=1e-12)
    size = fill_cost(vec(2, 3), lang.VEC, "size", (4, 8))
    assert size == pytest.approx(KIND + (KIND + l_nat(2)) + (KIND + l_nat(3)), abs=1e-12)


def test_fill_costs_are_keyed_on_the_role_and_grid_size_they_are_read_under():
    """One vector and one position component read under two roles on three
    grid sizes, one colour under two roles, and two shapes, twice over
    through one process-wide cache of fill costs: each cost is `_l_term`'s
    for its own key, so a key without the role or the grid size gives a
    wrong cost."""
    sizes = ((4, 8), (16, 2), (30, 30))
    cases = [(vec(2, 3), lang.VEC, role, dims) for role in ("pos", "size") for dims in sizes]
    cases += [(3, lang.NAT, role, dims) for role in ("pos_i", "pos_j") for dims in sizes]
    cases += [(4, lang.COLOR, role, (4, 8)) for role in ("bg", "")]
    cases += [(point(5), lang.SHAPE, "", (4, 8)),
              (rectangle(vec(2, 3), 4, lang.BORDER), lang.SHAPE, "", (16, 2))]
    for value, sort, role, dims in cases * 2:
        assert fill_cost(value, sort, role, dims) == coding._l_term(value, sort, role, dims,
                                                                    (), None)


def test_fill_shapes_and_masks():
    pt = fill_cost(point(5), lang.SHAPE, "", None)
    assert pt == pytest.approx(KIND + 1 + (KIND + math.log2(10)), abs=1e-12)
    full = fill_cost(lang.FULL, lang.MASK, "", None)
    assert full == pytest.approx(KIND + 1, abs=1e-12)
    bm = fill_cost(lang.bitmap([[1, 0, 1], [0, 1, 0]]), lang.MASK, "", None)
    assert bm == pytest.approx(KIND + l_dist(0.3) + 6, abs=1e-12)


# parse-tree costs

def test_parse_tree_cost_charges_each_unknown_fill():
    applied = grid(UNK, UNK, [])
    tree = grid(vec(3, 4), 0, [])
    want = (KIND + (KIND + l_nat(3)) + (KIND + l_nat(4))) + (KIND + l_dist(0.91))
    assert l_parse_tree(tree, applied, (), (3, 4)) == pytest.approx(want, abs=1e-12)


def test_parse_tree_diffs_pay_count_location_and_replacement():
    applied = grid(vec(3, 3), 0, [])
    tree = grid(vec(3, 4), 0, [])
    diffs = ((("size", "j"), 4),)
    want = l_nat(1) + math.log2(lang.node_count(applied)) + (KIND + l_nat(4))
    assert l_parse_tree(tree, applied, diffs, (3, 4)) == pytest.approx(want, abs=1e-12)


def test_parse_tree_diff_replacing_a_subtree_shadows_its_fills():
    # The model expects a rectangle with unknown size and colour; the tree has
    # a point there. The diff pays for the point; no fill may then look up the
    # rectangle's slots inside the replaced subtree.
    applied = grid(UNK, 0, [pos_shape(vec(1, 1), rectangle(UNK, UNK, lang.FULL))])
    tree = grid(vec(4, 4), 0, [pos_shape(vec(1, 1), point(5))])
    diffs = ((("layers", 0, "shape"), point(5)),)
    got = l_parse_tree(tree, applied, diffs, (4, 4))
    size_fill = KIND + (KIND + l_nat(4)) + (KIND + l_nat(4))
    diff_cost = l_nat(1) + math.log2(lang.node_count(applied)) + (
        KIND + 1 + (KIND + math.log2(10)))
    assert got == pytest.approx(size_fill + diff_cost, abs=1e-12)


# deltas

def test_empty_delta_costs_nothing():
    assert l_delta(frozenset(), (5, 5)) == 0.0


def test_delta_cost_counts_cells_as_uniform_points():
    one = l_delta({(1, 1, 4)}, (4, 8))
    assert one == pytest.approx(l_nat(1) + math.log2(4) + math.log2(8) + math.log2(10) + 1)
    three = l_delta({(0, 0, 1), (1, 1, 2), (2, 2, 3)}, (4, 8))
    per_cell = math.log2(4) + math.log2(8) + math.log2(10) + 1
    assert three == pytest.approx(l_nat(3) + 3 * per_cell)


# whole-task evaluation

def _tiny_examples():
    return [(Grid([[0, 0], [0, 3]]), Grid([[5, 5], [5, 5]]))]


def test_initial_model_normalizes_to_exactly_two():
    m0 = in_out(grid(UNK, UNK, []), grid(UNK, UNK, []))
    ev = l_task(m0, _tiny_examples(), Caches())
    norm = Normalizer.from_initial(ev)
    assert ev.normalized(norm) == pytest.approx(2.0, abs=1e-12)
    nin, nout = ev.normalized_sides(norm)
    assert nin == pytest.approx(1.0, abs=1e-12)
    assert nout == pytest.approx(1.0, abs=1e-12)


def test_task_eval_totals_add_up():
    m0 = in_out(grid(UNK, UNK, []), grid(UNK, UNK, []))
    ev = l_task(m0, _tiny_examples(), Caches())
    t = ev.totals()
    for k in range(3):
        assert t["both"][k] == pytest.approx(t["in"][k] + t["out"][k], abs=1e-9)
    assert t["in"][2] == pytest.approx(t["in"][0] + t["in"][1], abs=1e-9)


def test_unreadable_example_raises_model_eval_error():
    # ground 2x2 input model vs a 3x3 grid: no reading survives training parse
    m = in_out(grid(vec(2, 2), 0, []), grid(UNK, UNK, []))
    with pytest.raises(ModelEvalError):
        l_task(m, [(Grid([[0] * 3] * 3), Grid([[0] * 3] * 3))], Caches())


def test_eval_table_layout():
    m0 = in_out(grid(UNK, UNK, []), grid(UNK, UNK, []))
    ev = l_task(m0, _tiny_examples(), Caches())
    table = format_eval_table(ev)
    lines = table.splitlines()
    assert "L(M)" in lines[0] and "L(D|M)" in lines[0] and "L(M,D)" in lines[0]
    assert lines[1].startswith("input")
    assert lines[2].startswith("output")
    assert lines[3].startswith("chained")
    assert lines[3].rstrip().endswith("2.000")
