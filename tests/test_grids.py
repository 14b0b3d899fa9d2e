"""Grids: validation, deltas, segmentation, masks, rendering."""

import pickle
import tracemalloc

import numpy as np
import pytest

from gridmdl.grids import Grid, GridError, Part, delta_apply, mask_array, render_ppm, segment

from helpers import delta_between, mask_member, segment_by_scans


# construction

def test_grid_exposes_dims_rows_and_array():
    g = Grid([[0, 1, 2], [3, 4, 5]])
    assert (g.height, g.width) == (2, 3)
    assert g.rows == ((0, 1, 2), (3, 4, 5))
    assert g.array.tolist() == [[0, 1, 2], [3, 4, 5]]
    assert not g.array.flags.writeable


def test_grid_equality_and_hash():
    assert Grid([[1, 2]]) == Grid([[1, 2]])
    assert hash(Grid([[1, 2]])) == hash(Grid([[1, 2]]))
    assert Grid([[1, 2]]) != Grid([[2, 1]])


@pytest.mark.parametrize("rows", [
    [],                       # no rows
    [[]],                     # empty row
    [[0, 1], [2]],            # ragged
    [[0, 10]],                # colour out of range
    [[0, -1]],                # negative colour
    [[0, 1.7]],               # a float is not a colour, not even truncated
    [[True, 0]],              # nor is a bool
    [[0, "3"]],               # nor a digit string
    [[None]],
    [[0] * 31],               # wider than ARC allows
    [[0]] * 31,               # taller than ARC allows
    ["012"],                  # a string row
])
def test_grid_rejects_malformed_rows(rows):
    with pytest.raises(GridError):
        Grid(rows)


@pytest.mark.parametrize("cell", [1.7, True, "3", None, 10, -1, [0]])
def test_grid_names_the_bad_cell(cell):
    with pytest.raises(GridError, match=r"^\[1\]\[2\]: cell .* is not a colour 0-9$"):
        Grid([[0, 0, 0], [0, 0, cell]])


@pytest.mark.parametrize("rows, first", [
    ([[0, 10, 0], [True, 0, 1.0]], r"^\[0\]\[1\]: cell 10 "),  # a bad value before bad types
    ([[0, 0, "3"], [11, -1, 0]], r"^\[0\]\[2\]: cell '3' "),  # a bad type before bad values
    ([[0, 0], [0, 12], [10, 0]], r"^\[1\]\[1\]: cell 12 "),
    ([[1, True]], r"^\[0\]\[1\]: cell True "),  # equal to a colour, as a set member
    ([[0, 1], [1.0, 0]], r"^\[1\]\[0\]: cell 1.0 "),
])
def test_grid_names_the_first_bad_cell_in_scanline_order(rows, first):
    with pytest.raises(GridError, match=first):
        Grid(rows)


def test_grid_from_a_float_array_is_refused():
    with pytest.raises(GridError, match=r"^\[0\]\[0\]: cell 0.5 "):
        Grid.from_array(np.array([[0.5, 2.9]]))


def test_grid_takes_tuple_rows_and_array_cells_alike():
    g = Grid(((0, 9), (3, 4)))
    assert g == Grid([[0, 9], [3, 4]]) == Grid.from_array(np.array([[0, 9], [3, 4]], dtype=np.int8))


# a 30x30 grid of every colour, as rows and as a drawn array
ROWS_30 = [[(i * 30 + j) % 10 for j in range(30)] for i in range(30)]
ARRAY_30 = np.array(ROWS_30, dtype=np.int8)


def _traced_growth(step) -> int:
    """Bytes still allocated, under tracemalloc, after `step()` returns;
    what it returns is kept until the measure is taken."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = step()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make", [lambda: Grid(ROWS_30), lambda: Grid.from_array(ARRAY_30)],
                         ids=["rows", "from_array"])
def test_a_30x30_grid_holds_its_cells_compactly_and_caches_no_array(make):
    n = 100
    assert _traced_growth(lambda: [make() for _ in range(n)]) <= 1500 * n
    grids = [make() for _ in range(n)]
    # each access builds a fresh view; none stays on the grid
    assert _traced_growth(lambda: all(g.array.sum() > 0 for g in grids)) < 10 * n
    assert all(g.array.tolist() == ROWS_30 for g in grids)


def test_grids_of_one_cell_sequence_in_other_shapes_are_unequal():
    cells = [1, 2, 3, 4, 5, 6]
    assert Grid([cells[:3], cells[3:]]) != Grid([cells[:2], cells[2:4], cells[4:]])


def test_a_pickled_grid_comes_back_equal_with_its_hash():
    for g in (Grid([[1, 2]]), Grid(ROWS_30)):
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g) and back.size == g.size


def test_grid_rows_are_tuples_of_ints():
    for g in (Grid([[0, 9], [3, 4]]), Grid.from_array(ARRAY_30)):
        assert type(g.rows) is tuple
        assert all(type(row) is tuple and all(type(c) is int for c in row) for row in g.rows)
    assert Grid.from_array(ARRAY_30).rows == tuple(map(tuple, ROWS_30))


def test_grid_to_text():
    assert Grid([[0, 1], [9, 5]]).to_text() == "01\n95"


@pytest.mark.parametrize("rows", [[[c]] for c in range(10)]
                         + [[[(i * 30 + j) % 10 for j in range(30)] for i in range(30)]])
def test_grid_to_text_matches_a_per_cell_reference(rows):
    assert Grid(rows).to_text() == "\n".join("".join(str(c) for c in row) for row in rows)


# deltas

def test_delta_between_lists_changed_cells_with_target_colour():
    base = Grid([[0, 1], [2, 3]])
    target = Grid([[0, 1], [2, 5]])
    assert delta_between(target, base) == frozenset({(1, 1, 5)})


def test_delta_between_identical_grids_is_empty():
    g = Grid([[4, 4], [4, 4]])
    assert delta_between(g, g) == frozenset()


def test_delta_apply_reconstructs_target():
    base = Grid([[0, 0, 0], [0, 0, 0]])
    target = Grid([[0, 7, 0], [3, 0, 0]])
    assert delta_apply(base, delta_between(target, base)) == target


def test_delta_between_requires_matching_dims():
    with pytest.raises(GridError):
        delta_between(Grid([[0]]), Grid([[0, 0]]))


@pytest.mark.parametrize("delta", [
    {(2, 0, 1)},              # row out of bounds
    {(0, 9, 1)},              # column out of bounds
    {(0, 0, 10)},             # colour out of range
    {(0, 0, 1), (0, 0, 2)},   # conflicting corrections for one cell
    {(0, 0, 1.7)},            # a colour that is not an int
])
def test_delta_apply_rejects_bad_entries(delta):
    with pytest.raises(GridError):
        delta_apply(Grid([[0, 0], [0, 0]]), frozenset(delta))


@pytest.mark.parametrize("delta, message", [
    ({(2, 0, 1)}, r"^delta cell out of bounds: \(2, 0\)$"),
    ({(0, 0, 1), (0, 0, 2)}, r"^duplicate delta cell: \(0, 0\)$"),
    ({(0, 1, 10)}, r"^\[0\]\[1\]: cell 10 is not a colour 0-9$"),
    ({(0, 1, True)}, r"^\[0\]\[1\]: cell True is not a colour 0-9$"),
    ({(0, 1, 1.0)}, r"^\[0\]\[1\]: cell 1.0 is not a colour 0-9$"),
    # several bad colours: the first in scanline order is named
    ({(1, 0, 11), (0, 1, 12), (1, 1, 13), (0, 0, 3)}, r"^\[0\]\[1\]: cell 12 "),
])
def test_delta_apply_names_what_it_refuses(delta, message):
    with pytest.raises(GridError, match=message):
        delta_apply(Grid([[0, 0], [0, 0]]), frozenset(delta))


def test_delta_apply_leaves_the_base_as_it_was():
    base = Grid([[0, 0, 0], [0, 0, 0]])
    target = delta_apply(base, frozenset({(0, 2, 7), (1, 0, 9)}))
    assert target == Grid([[0, 0, 7], [9, 0, 0]]) and hash(target) == hash(Grid(target.rows))
    assert base.rows == ((0, 0, 0), (0, 0, 0))


# segmentation

def test_segment_separates_colours():
    g = Grid([[1, 1, 0],
              [1, 2, 0],
              [0, 2, 2]])
    parts = segment(g)
    # the black cells split into two 4-connected regions
    assert [(p.color, p.area) for p in parts] == [(1, 3), (0, 2), (2, 3), (0, 1)]


def test_segment_orders_parts_by_first_scanline_cell():
    g = Grid([[0, 5, 0],
              [5, 0, 0],
              [0, 0, 5]])
    parts = segment(g)
    firsts = [min(p.cells) for p in parts if p.color == 5]
    assert firsts == sorted(firsts)


def test_segment_orders_parts_by_first_cell_not_by_box_corner():
    # the red L's first cell, (0, 2), is right of its box's left edge, and
    # the blue hook's first cell, (0, 4), comes later in the scan, while the
    # hook's box starts further left: column 0 against the L's column 1
    g = Grid([[0, 0, 2, 0, 1],
              [0, 2, 2, 0, 1],
              [0, 0, 0, 0, 1],
              [1, 1, 1, 1, 1]])
    parts = segment(g)
    assert [(p.color, p.top, p.left) for p in parts] == [(0, 0, 0), (2, 0, 1), (1, 0, 0)]
    assert parts == segment_by_scans(g)


def test_segment_keeps_diagonal_cells_apart():
    g = Grid([[3, 0], [0, 3]])
    assert len([p for p in segment(g) if p.color == 3]) == 2


def test_part_equality_and_hash_are_those_of_its_colour_cells_and_box():
    g = Grid([[0, 6, 6],
              [0, 6, 0]])
    part = next(p for p in segment(g) if p.color == 6)
    cells = frozenset({(0, 1), (0, 2), (1, 1)})
    # what a frozen dataclass of these fields compares and hashes
    assert hash(part) == hash((6, cells, 0, 1, 2, 2))
    copy = Part(6, 0, 1, 2, 2, 3, part.mask.copy(), part.bits)
    assert copy == part and hash(copy) == hash(part)
    assert len({part, copy}) == 1
    # the same box and area with other cells, or another colour, differ
    other = np.array([[True, True], [False, True]])
    assert Part(6, 0, 1, 2, 2, 3, other, 0b100110) != part
    assert Part(5, 0, 1, 2, 2, 3, part.mask, part.bits) != part
    assert part != (6, cells, 0, 1, 2, 2)


def test_part_geometry_fields():
    g = Grid([[0, 6, 6],
              [0, 6, 0]])
    part = next(p for p in segment(g) if p.color == 6)
    assert (part.top, part.left, part.height, part.width, part.area) == (0, 1, 2, 2, 3)
    assert part.cells == frozenset({(0, 1), (0, 2), (1, 1)})
    assert part.mask.tolist() == [[True, True], [True, False]]
    assert not part.mask.flags.writeable
    # bit i * 3 + j for cell (i, j) of the 3-wide grid
    assert part.bits == 0b10110


# masks

def test_full_mask_covers_everything():
    assert mask_array("Full", 3, 4).all()


def test_border_mask_is_the_edge_ring():
    want = {(i, j) for i in range(3) for j in range(4) if i in (0, 2) or j in (0, 3)}
    got = {(i, j) for i in range(3) for j in range(4) if mask_member("Border", (3, 4), (i, j))}
    assert got == want


def test_checkboard_masks_partition_by_parity():
    even = {(i, j) for i in range(3) for j in range(3)
            if mask_member("EvenCheckboard", (3, 3), (i, j))}
    odd = {(i, j) for i in range(3) for j in range(3)
           if mask_member("OddCheckboard", (3, 3), (i, j))}
    assert even == {(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)}
    assert odd == {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert even | odd == {(i, j) for i in range(3) for j in range(3)}


def test_cross_masks_on_odd_extent():
    plus = {(i, j) for i in range(3) for j in range(3)
            if mask_member("PlusCross", (3, 3), (i, j))}
    times = {(i, j) for i in range(3) for j in range(3)
             if mask_member("TimesCross", (3, 3), (i, j))}
    assert plus == {(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)}
    assert times == {(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)}


def test_bitmap_mask_reads_its_bits():
    bits = ((1, 0), (0, 1))
    assert mask_member("Bitmap", (2, 2), (0, 0), bits)
    assert not mask_member("Bitmap", (2, 2), (0, 1), bits)


def test_mask_array_agrees_with_membership():
    for kind in ["Full", "Border", "EvenCheckboard", "OddCheckboard", "PlusCross", "TimesCross"]:
        for h, w in [(1, 1), (2, 3), (5, 5)]:
            arr = mask_array(kind, h, w)
            for i in range(h):
                for j in range(w):
                    assert arr[i, j] == mask_member(kind, (h, w), (i, j)), (kind, h, w, i, j)


def test_mask_array_is_keyed_on_the_bits_of_a_bitmap():
    """Two bitmaps of one size, and a regular mask of that size, in one
    process-wide cache: each array is the uncached array of its own key."""
    keys = [("Bitmap", 2, 2, ((1, 0), (0, 1))), ("Bitmap", 2, 2, ((0, 1), (1, 0))),
            ("Full", 2, 2, None)]
    for key in keys * 2:
        assert np.array_equal(mask_array(*key), mask_array.__wrapped__(*key))
    assert not np.array_equal(mask_array(*keys[0]), mask_array(*keys[1]))


def test_mask_array_is_read_only():
    arr = mask_array("Full", 2, 2)
    with pytest.raises(ValueError):
        arr[0, 0] = False


# rendering

def test_render_ppm_header_and_size():
    g = Grid([[1, 2], [3, 4]])
    data = render_ppm(g, cell=3)
    assert data.startswith(b"P6\n6 6\n255\n")
    header_end = data.index(b"255\n") + 4
    assert len(data) - header_end == 6 * 6 * 3


def test_render_ppm_paints_distinct_colours():
    solid1 = render_ppm(Grid([[1]]), cell=1)
    solid2 = render_ppm(Grid([[2]]), cell=1)
    assert solid1[-3:] != solid2[-3:]
