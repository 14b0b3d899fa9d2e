"""Grids: validation, deltas, segmentation, masks, rendering."""

import numpy as np
import pytest

from gridmdl.grids import Grid, GridError, delta_apply, mask_array, render_ppm, segment

from helpers import delta_between, mask_member


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
])
def test_grid_rejects_malformed_rows(rows):
    with pytest.raises(GridError):
        Grid(rows)


def test_grid_to_text():
    assert Grid([[0, 1], [9, 5]]).to_text() == "01\n95"


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
])
def test_delta_apply_rejects_bad_entries(delta):
    with pytest.raises(GridError):
        delta_apply(Grid([[0, 0], [0, 0]]), frozenset(delta))


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


def test_segment_diagonal_depends_on_connectivity():
    g = Grid([[3, 0], [0, 3]])
    assert len([p for p in segment(g, connectivity=4) if p.color == 3]) == 2
    assert len([p for p in segment(g, connectivity=8) if p.color == 3]) == 1


def test_part_geometry_fields():
    g = Grid([[0, 6, 6],
              [0, 6, 0]])
    part = next(p for p in segment(g) if p.color == 6)
    assert (part.top, part.left, part.height, part.width, part.area) == (0, 1, 2, 2, 3)
    assert part.cells == frozenset({(0, 1), (0, 2), (1, 1)})


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


def test_mask_array_is_read_only():
    arr = mask_array("Full", 2, 2)
    with pytest.raises(ValueError):
        arr[0, 0] = False


# rendering

def test_render_text_uses_colour_digits():
    assert Grid([[0, 1], [9, 5]]).to_text() == "01\n95"


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
