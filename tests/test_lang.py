"""Term model: constructors, paths, substitution, matching, evaluation, text."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from gridmdl import lang
from gridmdl.grids import GridError
from gridmdl.lang import (
    App, Ctor, LangError, Unknown, Var, UNK,
    grid, in_out, point, pos_shape, rectangle, vec, bitmap,
)


def sample_grid_term():
    return grid(vec(4, 5), 0, [
        pos_shape(vec(1, 2), rectangle(vec(2, 2), 3, lang.FULL)),
        pos_shape(vec(0, 0), point(7)),
    ])


# construction

def test_constructors_build_plain_ctors():
    t = rectangle(vec(2, 3), 6, lang.BORDER)
    assert t == Ctor("Rectangle", (Ctor("Vec", (2, 3)), 6, Ctor("Border")))


def test_grid_layers_become_tuple():
    t = grid(UNK, UNK, [pos_shape(UNK, UNK)])
    assert isinstance(t.args[2], tuple)
    assert len(t.args[2]) == 1


def test_bitmap_rows_frozen():
    b = bitmap([[1, 0], [0, 1]])
    assert b.args[0] == ((1, 0), (0, 1))


@pytest.mark.parametrize("rows,message", [
    ([[0.6, 1.7]], r"bitmap cell \[0\]\[0\] 0.6 is not 0 or 1"),
    ([[0, 1], [1, 2]], r"bitmap cell \[1\]\[1\] 2 is not 0 or 1"),
    ([[1, 0], [True, 0]], r"bitmap cell \[1\]\[0\] True is not 0 or 1"),
    ([[0, False]], r"bitmap cell \[0\]\[1\] False is not 0 or 1"),
    ([["x"]], r"bitmap cell \[0\]\[0\] 'x' is not 0 or 1"),
    ([[1, 0], [1]], r"bitmap is not 2 rows of 2 cells"),
    ([], r"bitmap has no cells"),
    ([[]], r"bitmap has no cells"),
])
def test_bitmap_refuses_rows_that_draw_refuses(rows, message):
    """`bitmap` neither truncates a float nor keeps a 2 or a bool: it refuses
    what `grids.check_bitmap` refuses, naming the cell, and an empty bitmap,
    as the text syntax does."""
    with pytest.raises(GridError, match=f"^{message}$"):
        bitmap(rows)


def test_ctor_fields_and_sort():
    assert lang.ctor_sort("Grid") == lang.GRID
    names = [f for f, _, _ in lang.ctor_fields("Grid")]
    assert names == ["size", "color", "layers"]
    with pytest.raises(LangError):
        lang.ctor_fields("Triangle")


def test_unknown_singleton_prints_as_question_mark():
    assert lang.term_to_text(UNK) == "?"


# resolve / subst

def test_resolve_walks_fields_and_layer_indices():
    t = sample_grid_term()
    assert lang.resolve(t, ()) is t
    assert lang.resolve(t, ("size", "j")) == 5
    assert lang.resolve(t, ("layers", 1, "shape", "color")) == 7


def test_resolve_unknown_field_raises():
    with pytest.raises(LangError):
        lang.resolve(sample_grid_term(), ("area",))
    with pytest.raises(LangError):
        lang.resolve(sample_grid_term(), ("layers", 5))


def test_subst_replaces_deep_slot():
    t = sample_grid_term()
    t2 = lang.subst(t, ("layers", 0, "shape", "color"), 9)
    assert lang.resolve(t2, ("layers", 0, "shape", "color")) == 9
    # the original term is untouched
    assert lang.resolve(t, ("layers", 0, "shape", "color")) == 3


def test_subst_insert_prepends_and_appends_layers():
    t = sample_grid_term()
    new = pos_shape(UNK, UNK)
    front = lang.subst(t, ("layers", 0), new, insert=True)
    assert len(front.args[2]) == 3 and front.args[2][0] == new
    back = lang.subst(t, ("layers", 2), new, insert=True)
    assert back.args[2][2] == new


def test_subst_bad_path_raises():
    with pytest.raises(LangError):
        lang.subst(sample_grid_term(), ("layers", 9), 1)


def test_shift_layer_refs_renumbers_from_insert_position():
    e = vec(Var(("layers", 0, "pos", "i")), Var(("layers", 1, "pos", "j")))
    shifted = lang.shift_layer_refs(e, 1)
    assert shifted.args[0] == Var(("layers", 0, "pos", "i"))
    assert shifted.args[1] == Var(("layers", 2, "pos", "j"))
    # non-layer paths stay put
    assert lang.shift_layer_refs(Var(("size", "i")), 0) == Var(("size", "i"))
    # expression-free subterms come back as themselves
    obj = pos_shape(vec(1, 2), point(3))
    assert lang.shift_layer_refs(grid(vec(2, 2), Var(("color",)), [obj]), 0).args[2][0] is obj


# predicates

def _definite(t) -> bool:
    """No unknowns; expressions allowed."""
    return not any(isinstance(sub, Unknown) for _, _, _, sub in lang.slots(t))


def test_is_ground_and_definite():
    assert lang.is_ground(sample_grid_term())
    assert not lang.is_ground(grid(UNK, 0, []))
    e = grid(vec(2, 2), Var(("color",)), [])
    assert not lang.is_ground(e)
    assert _definite(e)
    assert not _definite(grid(UNK, 0, []))


@pytest.mark.parametrize("t", [Ctor("Blob", (1,)),
                               grid(vec(2, 2), 0, [pos_shape(vec(0, 0), Ctor("Blob"))])])
def test_is_ground_refuses_an_unknown_constructor(t):
    with pytest.raises(LangError, match="unknown constructor 'Blob'"):
        lang.is_ground(t)


def test_unknown_paths_in_walk_order():
    t = grid(UNK, 4, [pos_shape(UNK, rectangle(vec(2, UNK), UNK, UNK))])
    assert tuple(p for p, _, _, sub in lang.slots(t) if isinstance(sub, Unknown)) == (
        ("size",),
        ("layers", 0, "pos"),
        ("layers", 0, "shape", "size", "j"),
        ("layers", 0, "shape", "color"),
        ("layers", 0, "shape", "mask"),
    )


def test_node_count_counts_every_slot():
    # Grid, Vec, 2, 3, color: five nodes; the layers list itself is not one.
    assert lang.node_count(grid(vec(2, 3), 0, [])) == 5


def test_node_count_is_keyed_on_every_node_of_its_term():
    """Terms that each differ from an earlier one in one node, in one
    process-wide cache: each count is the uncached count of its own term."""
    rect = rectangle(UNK, UNK, UNK)
    terms = [pos_shape(UNK, UNK), pos_shape(vec(UNK, UNK), UNK), pos_shape(UNK, rect),
             pos_shape(UNK, point(UNK)), grid(UNK, UNK, [rect]), grid(UNK, UNK, [rect, rect])]
    for t in terms * 2:
        assert lang.node_count(t) == lang.node_count.__wrapped__(t)
    assert len({lang.node_count(t) for t in terms}) == len(terms)


def test_walk_slots_includes_root():
    paths = [p for p, _, _, _ in lang.slots(grid(vec(2, 3), 0, []))]
    assert paths == [(), ("size",), ("size", "i"), ("size", "j"), ("color",)]


def test_typed_slots_reports_sorts_and_skips_expressions():
    t = grid(vec(2, Var(("size", "j"))), UNK, [])
    slots = {p: s for p, s, _, _ in lang.slots(t)}
    assert slots[("color",)] == lang.COLOR
    assert slots[("size",)] == lang.VEC
    # the expression fills the whole slot: nothing inside it is listed
    assert ("size", "j") in slots
    assert all(not isinstance(sub, App) for _, _, _, sub in lang.slots(t))


def test_slots_pin_the_role_table():
    # every constructor, a bitmap, a Var and an App; the five other nullary
    # masks sit in identical output layers 1-5
    others = (lang.BORDER, lang.EVEN_CHECKBOARD, lang.ODD_CHECKBOARD,
              lang.PLUS_CROSS, lang.TIMES_CROSS)
    model = in_out(
        grid(vec(10, 12), 0, [
            pos_shape(vec(1, 2), rectangle(vec(2, 3), 2, bitmap([[1, 0, 1], [0, 1, 0]]))),
            pos_shape(UNK, point(UNK)),
        ]),
        grid(Var(("size",)), UNK, [
            pos_shape(vec(App("plus", (Var(("layers", 0, "pos", "i")), 1)), 0),
                      rectangle(UNK, 3, lang.FULL)),
        ] + [pos_shape(UNK, rectangle(UNK, UNK, m)) for m in others]),
    )
    PAIR, GRID, OBJECT, SHAPE, VEC, MASK, NAT, COLOR, BITS = (
        lang.PAIR, lang.GRID, lang.OBJECT, lang.SHAPE, lang.VEC, lang.MASK,
        lang.NAT, lang.COLOR, lang.BITS)
    want = [
        ("", PAIR, ""),
        ("in", GRID, ""),
        ("in.size", VEC, "grid_size"),
        ("in.size.i", NAT, "grid_size"),
        ("in.size.j", NAT, "grid_size"),
        ("in.color", COLOR, "bg"),
        ("in.layers[0]", OBJECT, ""),
        ("in.layers[0].pos", VEC, "pos"),
        ("in.layers[0].pos.i", NAT, "pos_i"),
        ("in.layers[0].pos.j", NAT, "pos_j"),
        ("in.layers[0].shape", SHAPE, ""),
        ("in.layers[0].shape.size", VEC, "size"),
        ("in.layers[0].shape.size.i", NAT, "size"),
        ("in.layers[0].shape.size.j", NAT, "size"),
        ("in.layers[0].shape.color", COLOR, ""),
        ("in.layers[0].shape.mask", MASK, ""),
        ("in.layers[0].shape.mask.bitmap", BITS, ""),
        ("in.layers[1]", OBJECT, ""),
        ("in.layers[1].pos", VEC, "pos"),
        ("in.layers[1].shape", SHAPE, ""),
        ("in.layers[1].shape.color", COLOR, ""),
        ("out", GRID, ""),
        ("out.size", VEC, "grid_size"),      # a Var: not descended into
        ("out.color", COLOR, "bg"),
        ("out.layers[0]", OBJECT, ""),
        ("out.layers[0].pos", VEC, "pos"),
        ("out.layers[0].pos.i", NAT, "pos_i"),  # an App: not descended into
        ("out.layers[0].pos.j", NAT, "pos_j"),
        ("out.layers[0].shape", SHAPE, ""),
        ("out.layers[0].shape.size", VEC, "size"),
        ("out.layers[0].shape.color", COLOR, ""),
        ("out.layers[0].shape.mask", MASK, ""),
    ]
    for k in range(1, 6):
        at = f"out.layers[{k}]"
        want += [(at, OBJECT, ""), (at + ".pos", VEC, "pos"), (at + ".shape", SHAPE, ""),
                 (at + ".shape.size", VEC, "size"), (at + ".shape.color", COLOR, ""),
                 (at + ".shape.mask", MASK, "")]
    got = [(lang.path_to_text(p), s, r) for p, s, r, _ in lang.slots(model, PAIR)]
    assert got == want
    names = {sub.name for _, _, _, sub in lang.slots(model, PAIR) if isinstance(sub, Ctor)}
    assert names == set(lang.CONSTRUCTORS)


# evaluation

def test_eval_expr_var_resolves_into_environment():
    env = sample_grid_term()
    assert lang.eval_expr(Var(("layers", 0, "pos", "j")), env) == 2


def test_eval_expr_arithmetic():
    env = sample_grid_term()
    x = Var(("layers", 0, "pos", "i"))
    assert lang.eval_expr(App("plus", (x, 2)), env) == 3
    assert lang.eval_expr(App("minus", (x, 1)), env) == 0
    assert lang.eval_expr(lang.ZERO, env) == 0


def test_eval_expr_negative_result_raises():
    env = sample_grid_term()
    with pytest.raises(LangError):
        lang.eval_expr(App("minus", (Var(("layers", 0, "pos", "i")), 2)), env)


def test_apply_model_substitutes_expressions():
    env = sample_grid_term()
    m = grid(Var(("layers", 0, "shape", "size")), Var(("layers", 1, "shape", "color")), [])
    applied = lang.apply_model(m, env)
    assert applied == grid(vec(2, 2), 7, [])


def test_apply_model_without_environment_requires_no_expressions():
    plain = grid(UNK, 0, [])
    assert lang.apply_model(plain, None) == plain
    with pytest.raises(LangError):
        lang.apply_model(grid(Var(("size",)), 0, []), None)


def test_apply_model_with_or_without_a_memo_gives_the_same_term_or_message():
    env = sample_grid_term()
    m = grid(Var(("size",)), 1, [pos_shape(Var(("layers", 0, "pos")), point(3))])
    assert lang.apply_model(m, env) == lang.apply_model(m, env, {}) == grid(
        vec(4, 5), 1, [pos_shape(vec(1, 2), point(3))])
    dangling = grid(UNK, 0, [pos_shape(Var(("layers", 5, "pos")), point(1))])
    for memo in (None, {}):
        with pytest.raises(LangError, match=r"^index 5 out of range at \('layers',\)$"):
            lang.apply_model(dangling, env, memo)


def test_a_failed_side_application_is_kept_and_raises_the_same_message_again():
    env = sample_grid_term()
    m = grid(vec(App("minus", (Var(("size", "i")), 99)), 1), UNK, [])
    memo = {}
    messages = []
    for _ in range(2):
        with pytest.raises(LangError) as e:
            lang.apply_model(m, env, memo)
        messages.append(str(e.value))
    assert messages == ["negative difference"] * 2
    assert memo[(m, env)] == "negative difference"


# environment signatures

def test_signature_expands_vector_and_object_unknowns():
    sig = lang.signature(grid(UNK, UNK, [pos_shape(UNK, UNK)]))
    # each sort's paths in slot pre-order: the order of the variable softmax
    assert sig[lang.NAT] == (("size", "i"), ("size", "j"),
                             ("layers", 0, "pos", "i"), ("layers", 0, "pos", "j"))
    assert ("color",) in sig[lang.COLOR]
    assert ("layers", 0) in sig[lang.OBJECT]
    assert ("layers", 0, "shape") in sig[lang.SHAPE]


def test_signature_rejects_expressions():
    with pytest.raises(LangError):
        lang.signature(grid(Var(("color",)), 0, []))


def test_field_steps_drops_indices():
    assert lang.field_steps(("layers", 1, "shape", "size")) == ("layers", "shape", "size")


# text round-trips

TEXT_TERMS = [
    (UNK, lang.GRID, "?"),
    (grid(vec(2, 3), 0, []), lang.GRID, "Grid(Vec(2, 3), black, [])"),
    (point(7), lang.SHAPE, "Point(orange)"),
    (rectangle(UNK, 5, lang.EVEN_CHECKBOARD), lang.SHAPE,
     "Rectangle(?, grey, EvenCheckboard)"),
    (bitmap([[1, 0], [1, 1]]), lang.MASK, "Bitmap(10/11)"),
    (Var(("layers", 0, "pos", "i")), lang.NAT, "layers[0].pos.i"),
    (App("plus", (Var(("size", "i")), 2)), lang.NAT, "size.i + 2"),
    (App("minus", (Var(("size", "j")), Var(("size", "i")))), lang.NAT, "size.j - size.i"),
    (lang.ZERO, lang.NAT, "zero"),
    # unknown operands, on either side and inside parentheses
    (App("plus", (UNK, 1)), lang.NAT, "? + 1"),
    (App("minus", (Var(("size", "j")), App("plus", (2, UNK)))), lang.NAT, "size.j - (2 + ?)"),
]


@pytest.mark.parametrize("term,sort,text", TEXT_TERMS)
def test_term_to_text(term, sort, text):
    assert lang.term_to_text(term, sort) == text


@pytest.mark.parametrize("term,sort,text", TEXT_TERMS)
def test_parse_term_round_trip(term, sort, text):
    assert lang.parse_term(text, sort) == term


def test_color_names_cover_all_ten():
    assert len(lang.COLOR_NAMES) == 10
    assert lang.COLOR_NAMES[0] == "black"
    assert lang.term_to_text(grid(vec(1, 1), 9, []), lang.GRID) == "Grid(Vec(1, 1), brown, [])"


def test_model_text_round_trip():
    m = in_out(
        grid(vec(12, UNK), 0, [pos_shape(UNK, rectangle(UNK, UNK, lang.FULL))]),
        grid(Var(("layers", 0, "shape", "size")), UNK, []),
    )
    text = lang.model_to_text(m)
    assert text.startswith("in: ") and "\nout: " in text
    assert lang.parse_model(text) == m
    # blank and comment lines are skipped; the one-term form reads the same
    assert lang.parse_model("# a model\n\n" + text.replace("\n", "\n  # between\n\n")) == m
    assert lang.parse_model(lang.term_to_text(m, lang.PAIR)) == m


@pytest.mark.parametrize("text,message", [
    ("in: Grid(?, ?, [])\nside: Grid(?, ?, [])", "unexpected model line: 'side: Grid"),
    ("in: Grid(?, ?, [])\nGrid(?, ?, [])", "unexpected model line: 'Grid"),
    ("in: Grid(?, ?, [])\n# out: Grid(?, ?, [])", "needs both in: and out: lines"),
    ("", "needs both in: and out: lines"),
], ids=["unknown-side", "no-colon", "missing-out", "empty"])
def test_model_text_refuses_an_unexpected_line_or_a_missing_side(text, message):
    with pytest.raises(LangError, match=message):
        lang.parse_model(text)


@pytest.mark.parametrize("text,repeated", [
    ("in: Grid(Vec(1, 1), black, [])\nout: Grid(?, ?, [])\nin: Grid(Vec(2, 2), blue, [])",
     "in: Grid(Vec(2, 2), blue, [])"),
    ("out: Grid(?, ?, [])\nin: Grid(?, ?, [])\nout: Grid(Vec(3, 3), ?, [])",
     "out: Grid(Vec(3, 3), ?, [])"),
], ids=["in", "out"])
def test_model_text_refuses_a_repeated_side_line(text, repeated):
    """A second in: or out: line is an error that names it, not a silent
    override of the first."""
    with pytest.raises(LangError, match="repeated") as e:
        lang.parse_model(text)
    assert repeated in str(e.value)


def test_path_text_round_trip():
    p = ("layers", 2, "shape", "size", "i")
    assert lang.path_to_text(p) == "layers[2].shape.size.i"
    assert lang.parse_term("layers[2].shape.size.i", lang.NAT) == Var(p)


def test_parse_term_rejects_garbage():
    for bad in ["Grid(", "Quad(1)", "Grid(Vec(1, 2), black)", "layers[x].pos"]:
        with pytest.raises(LangError):
            lang.parse_term(bad)


@pytest.mark.parametrize("text,message", [
    ("Vec(1, 2)", "Vec is a vec, expected a mask"),
    ("Bitmap(01/12)", "bad bitmap character '2'"),
    ("Bitmap(01/1)", "ragged or empty bitmap"),
    ("Bitmap()", "ragged or empty bitmap"),
])
def test_parse_term_refuses_a_constructor_of_another_sort_or_a_bad_bitmap(text, message):
    with pytest.raises(LangError, match=message):
        lang.parse_term(text, lang.MASK)


def test_parse_term_reads_a_fieldless_constructor_with_or_without_parentheses():
    assert lang.parse_term("Full()", lang.MASK) == lang.parse_term("Full", lang.MASK) == lang.FULL


def test_parse_term_rejects_an_unterminated_bitmap():
    for bad in ["Bitmap(01", "Bitmap(01/1", "Bitmap( "]:
        with pytest.raises(LangError, match="unterminated bitmap"):
            lang.parse_term(bad, lang.MASK)


def test_parse_term_takes_bare_numbers_in_nat_and_colour_slots_only():
    assert lang.parse_term("Grid(Vec(1, 2), 3, [])") == grid(vec(1, 2), 3, [])
    for bad in ["Grid(7, black, [])", "Grid(Vec(1, 2), 12, [])",
                "Grid(Vec(1, 2), black, [PosShape(4, Point(red))])",
                "Grid(Vec(1, 2), black, [PosShape(Vec(0, 0), 4)])", "Grid(Vec(1, 2), ², [])"]:
        with pytest.raises(LangError, match="cannot fill"):
            lang.parse_term(bad)
    with pytest.raises(LangError, match="expected a number"):
        lang.parse_term("Grid(Vec(², 2), black, [])")


def test_apply_model_returns_an_expression_free_term_itself():
    m = in_out(sample_grid_term(), grid(UNK, UNK, [pos_shape(UNK, point(UNK))]))
    assert lang.apply_model(m, None) is m
    assert lang.apply_model(m.args[1], sample_grid_term()) is m.args[1]


def test_apply_model_shares_the_untouched_subterms():
    kept = pos_shape(UNK, rectangle(vec(2, 2), 3, lang.FULL))
    m = grid(vec(Var(("size", "i")), 5), UNK, [kept, pos_shape(vec(0, 0), point(Var(("color",))))])
    applied = lang.apply_model(m, sample_grid_term())
    assert applied == grid(vec(4, 5), UNK, [kept, pos_shape(vec(0, 0), point(0))])
    assert applied.args[1] is m.args[1]
    assert applied.args[2][0] is kept
    assert applied.args[2][1].args[0] is m.args[2][1].args[0]


def test_a_ctor_is_slotted_and_equal_and_hashed_as_its_name_and_args():
    t = sample_grid_term()
    hash(t)  # cache the hash on every node before copying
    assert not hasattr(t, "__dict__")
    for node in (t, t.args[0], t.args[2][0]):
        assert node == Ctor(node.name, node.args)
        assert hash(node) == hash((node.name, node.args))
    for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert copied == t and copied is not t
        assert hash(copied) == hash(t)


def test_a_ctor_is_built_compared_and_copied_as_its_name_and_args():
    """`Ctor` writes out its `__init__` and `__eq__`; it still behaves as a
    frozen, slotted dataclass of two fields, its cached hash out of sight."""
    t = Ctor("Vec", (1, 2))
    assert Ctor(name="Vec", args=(1, 2)) == t and Ctor("Vec", args=(1, 2)) == t
    assert Ctor("Full").args == ()
    assert [f.name for f in dataclasses.fields(Ctor) if f.init] == ["name", "args"]
    assert not hasattr(t, "__dict__")
    for name in ("name", "args", "_hash"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, 3)
    twin = vec(1, 2)
    assert t == twin and t is not twin and not t != twin
    assert hash(t) == hash(twin) == hash(("Vec", (1, 2)))
    assert t != Ctor("Vec", (2, 1)) and t != Ctor("Pos", (1, 2))
    assert t != ("Vec", (1, 2)) and t != 3 and t != UNK
    assert t.__eq__(("Vec", (1, 2))) is NotImplemented
    assert repr(t) == "Ctor(name='Vec', args=(1, 2))"
    for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert copied == t and copied is not t and hash(copied) == hash(t)
        assert repr(copied) == repr(t)


_CHILD = """
import pickle, sys
from gridmdl import lang
t = pickle.loads(sys.stdin.buffer.read())
fresh = lang.parse_model(sys.argv[1])
assert t == fresh and t is not fresh
assert hash(t) == hash(fresh)
assert {fresh: "found"}[t] == "found"
print(hash(fresh))
"""


def test_a_pickled_term_hashes_under_the_process_that_loads_it():
    m = in_out(sample_grid_term(), grid(Var(("layers", 0, "shape", "size")), UNK, []))
    here = hash(m)  # the hash is now cached on every node of m
    data = pickle.dumps(m)
    assert b"_hash" not in data
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(lang.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _CHILD, lang.model_to_text(m)],
                           input=data, capture_output=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr.decode()
    # the child's seed differs from ours, so a hash carried over would not match
    assert int(child.stdout) != here
