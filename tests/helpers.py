"""Shared test data and oracles: a nested-rectangles task, a synthetic task
suite, task files, corpus gating, and the cell-level oracles the grid and
property tests check against. Fixtures over them live in `conftest.py`."""

import json
import os
from pathlib import Path

import numpy as np

from gridmdl import lang, parsing
from gridmdl.grids import Grid, GridError


def delta_between(target: Grid, base: Grid) -> frozenset:
    """Cells where the grids differ, coloured after `target`.

    Both grids must have the same size; `delta_apply(base, result) == target`.
    """
    if target.size != base.size:
        raise GridError("delta over grids of different sizes")
    diff = target.array != base.array
    ii, jj = np.nonzero(diff)
    t = target.rows
    return frozenset((int(i), int(j), t[i][j]) for i, j in zip(ii, jj))


def mask_member(kind: str, size: tuple[int, int], cell: tuple[int, int], bits=None) -> bool:
    """Is `cell` covered by a mask of the given kind and size? A cell-by-cell
    reference for `grids.mask_array`."""
    h, w = size
    i, j = cell
    if not (0 <= i < h and 0 <= j < w):
        return False
    if kind == "Full":
        return True
    if kind == "Border":
        return i in (0, h - 1) or j in (0, w - 1)
    if kind == "EvenCheckboard":
        return (i + j) % 2 == 0
    if kind == "OddCheckboard":
        return (i + j) % 2 == 1
    if kind == "PlusCross":
        return i == h // 2 or j == w // 2
    if kind == "TimesCross":
        return i == j or i + j == w - 1
    if kind == "Bitmap":
        if bits is None:
            raise GridError("bitmap mask needs its bits")
        return bool(bits[i][j])
    raise GridError(f"unknown mask kind {kind!r}")


def nested_pair(outer_color, inner_color, h, w, outer_pos, outer_size, inner_pos, inner_size):
    """One (input, output) pair of the nested-rectangles task.

    The input shows a small rectangle inside a larger one on a black
    background; the output is the large rectangle's extent filled with the
    small rectangle's colour, with the small rectangle redrawn in the large
    one's colour at its relative position.
    """
    gin = parsing.draw(lang.grid(lang.vec(h, w), 0, [
        lang.pos_shape(lang.vec(*inner_pos),
                       lang.rectangle(lang.vec(*inner_size), inner_color, lang.FULL)),
        lang.pos_shape(lang.vec(*outer_pos),
                       lang.rectangle(lang.vec(*outer_size), outer_color, lang.FULL)),
    ]))
    gout = parsing.draw(lang.grid(lang.vec(*outer_size), inner_color, [
        lang.pos_shape(lang.vec(inner_pos[0] - outer_pos[0], inner_pos[1] - outer_pos[1]),
                       lang.rectangle(lang.vec(*inner_size), outer_color, lang.FULL)),
    ]))
    return gin, gout


NESTED_TRAIN = (
    nested_pair(2, 4, 12, 13, (1, 3), (4, 4), (2, 4), (2, 2)),
    nested_pair(3, 6, 12, 11, (4, 2), (6, 6), (6, 4), (2, 2)),
    nested_pair(8, 2, 12, 15, (3, 5), (7, 7), (5, 8), (3, 3)),
)

# The test input is taller than every training input (14 rows instead of 12),
# so solving it requires reading the grid approximately.
NESTED_TEST = (
    parsing.draw(lang.grid(lang.vec(14, 14), 0, [
        lang.pos_shape(lang.vec(3, 4), lang.rectangle(lang.vec(2, 2), 8, lang.FULL)),
        lang.pos_shape(lang.vec(1, 2), lang.rectangle(lang.vec(6, 6), 3, lang.FULL)),
    ])),
    parsing.draw(lang.grid(lang.vec(6, 6), 8, [
        lang.pos_shape(lang.vec(2, 2), lang.rectangle(lang.vec(2, 2), 3, lang.FULL)),
    ])),
)

NESTED_SOLUTION_TEXT = (
    "in: Grid(Vec(12, ?), black, [PosShape(Vec(?, ?), Rectangle(Vec(?, ?), ?, Full)), "
    "PosShape(Vec(?, ?), Rectangle(Vec(?, ?), ?, Full))])\n"
    "out: Grid(layers[1].shape.size, layers[0].shape.color, "
    "[PosShape(Vec(layers[0].pos.i - layers[1].pos.i, layers[0].pos.j - layers[1].pos.j), "
    "Rectangle(layers[0].shape.size, layers[1].shape.color, Full))])"
)


def task_json(train, test):
    def ex(gi, go):
        d = {"input": [list(r) for r in gi.rows]}
        if go is not None:
            d["output"] = [list(r) for r in go.rows]
        return d
    return {"train": [ex(gi, go) for gi, go in train],
            "test": [ex(gi, go) for gi, go in test]}


def write_task(path: Path, train, test) -> Path:
    path.write_text(json.dumps(task_json(train, test)))
    return path


# Small synthetic tasks used for determinism and descent checks. They cover
# recoloring, translation, size arithmetic, masks, object copies, and noise.

def _g(size, color, layers=()):
    return parsing.draw(lang.grid(lang.vec(*size), color, list(layers)))


def _pt(pos, color):
    return lang.pos_shape(lang.vec(*pos), lang.point(color))


def _rect(pos, size, color, mask=lang.FULL):
    return lang.pos_shape(lang.vec(*pos), lang.rectangle(lang.vec(*size), color, mask))


def synthetic_task_suite():
    tasks = []
    # solid grids recolored to yellow
    tasks.append([(_g((3, 4), 1), _g((3, 4), 4)),
                  (_g((5, 3), 2), _g((5, 3), 4)),
                  (_g((4, 4), 3), _g((4, 4), 4))])
    # a red point moves one column right
    tasks.append([(_g((5, 5), 0, [_pt((1, 1), 2)]), _g((5, 5), 0, [_pt((1, 2), 2)])),
                  (_g((5, 5), 0, [_pt((3, 2), 2)]), _g((5, 5), 0, [_pt((3, 3), 2)])),
                  (_g((5, 5), 0, [_pt((2, 0), 2)]), _g((5, 5), 0, [_pt((2, 1), 2)]))])
    # the point's colour becomes the output grid
    tasks.append([(_g((4, 4), 0, [_pt((2, 1), 3)]), _g((1, 1), 3)),
                  (_g((4, 4), 0, [_pt((0, 3), 6)]), _g((1, 1), 6)),
                  (_g((4, 4), 0, [_pt((3, 0), 7)]), _g((1, 1), 7))])
    # a rectangle's extent becomes a solid grid of its colour
    tasks.append([(_g((6, 6), 0, [_rect((1, 1), (2, 3), 5)]), _g((2, 3), 5)),
                  (_g((6, 6), 0, [_rect((2, 2), (3, 2), 6)]), _g((3, 2), 6)),
                  (_g((6, 6), 0, [_rect((0, 1), (4, 4), 1)]), _g((4, 4), 1))])
    # identity: the output repeats the input scene
    pairs = []
    for pos, size, c in (((0, 0), (2, 2), 2), ((2, 3), (3, 2), 3), ((1, 1), (2, 4), 8)):
        g = _g((6, 6), 0, [_rect(pos, size, c)])
        pairs.append((g, g))
    tasks.append(pairs)
    # small nested rectangles
    tasks.append([(_g((7, 7), 0, [_rect((2, 2), (1, 1), 4), _rect((1, 1), (3, 3), 2)]),
                   _g((3, 3), 4, [_rect((1, 1), (1, 1), 2)])),
                  (_g((7, 8), 0, [_rect((3, 4), (1, 1), 6), _rect((2, 3), (3, 3), 3)]),
                   _g((3, 3), 6, [_rect((1, 1), (1, 1), 3)]))])
    # one row grows by one column
    tasks.append([(_g((1, 3), 5), _g((1, 4), 5)),
                  (_g((1, 5), 5), _g((1, 6), 5)),
                  (_g((1, 2), 5), _g((1, 3), 5))])
    # two points; the output keeps the first at the component-wise difference
    tasks.append([(_g((6, 6), 0, [_pt((4, 5), 3), _pt((1, 2), 5)]),
                   _g((6, 6), 0, [_pt((3, 3), 3)])),
                  (_g((6, 6), 0, [_pt((5, 4), 3), _pt((2, 1), 5)]),
                   _g((6, 6), 0, [_pt((3, 3), 3)]))])
    # a rectangle plus one noise cell; the output is the clean extent
    tasks.append([(_g((6, 6), 0, [_rect((1, 1), (3, 3), 6), _pt((5, 5), 7)]), _g((3, 3), 6)),
                  (_g((6, 6), 0, [_rect((2, 0), (3, 3), 6), _pt((0, 5), 7)]), _g((3, 3), 6)),
                  (_g((6, 6), 0, [_rect((0, 2), (3, 3), 6), _pt((5, 0), 7)]), _g((3, 3), 6))])
    # a checkered rectangle becomes solid
    tasks.append([(_g((6, 6), 0, [_rect((1, 1), (3, 3), 8, lang.EVEN_CHECKBOARD)]), _g((3, 3), 8)),
                  (_g((6, 6), 0, [_rect((2, 2), (3, 3), 8, lang.EVEN_CHECKBOARD)]), _g((3, 3), 8)),
                  (_g((6, 6), 0, [_rect((0, 0), (3, 3), 8, lang.EVEN_CHECKBOARD)]), _g((3, 3), 8))])
    return tasks


def arc_training_dir():
    """Directory of ARC public training JSON files, or None if not configured."""
    root = os.environ.get("GRIDMDL_ARC_DIR")
    if not root:
        return None
    p = Path(root)
    if (p / "training").is_dir():
        return p / "training"
    return p if p.is_dir() else None


ARC_SKIP = ("ARC corpus not available: set GRIDMDL_ARC_DIR to a directory of "
            "public training task JSON files (or a checkout containing "
            "training/). Offline stand-ins for this behaviour run in the "
            "always-on tests.")
