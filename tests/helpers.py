"""Shared test data and oracles: a nested-rectangles task, a synthetic task
suite, task files, corpus gating, and the cell-level and template oracles
the grid, parsing and property tests check against. Fixtures over them live in `conftest.py`."""

import json
import os
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy import ndimage

from gridmdl import coding, lang, parsing
from gridmdl.grids import NUM_COLORS, Grid, GridError, Part, mask_array


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


def segment_by_scans(g: Grid) -> tuple[Part, ...]:
    """Reference for `grids.segment`: each part's cells by a whole-grid scan
    of its label, parts sorted by their smallest scanline index."""
    arr = g.array
    parts = []
    for c in np.unique(arr):
        labels, n = ndimage.label(arr == c, structure=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]]))
        for k in range(1, n + 1):
            ii, jj = np.nonzero(labels == k)
            parts.append(part_from_cells(int(c), ((int(i), int(j)) for i, j in zip(ii, jj))))
    parts.sort(key=lambda p: min(i * g.width + j for i, j in p.cells))
    return tuple(parts)


def part_from_cells(color: int, cells) -> Part:
    cells = frozenset(cells)
    if not cells:
        raise GridError("empty part")
    top = min(i for i, _ in cells)
    left = min(j for _, j in cells)
    bottom = max(i for i, _ in cells)
    right = max(j for _, j in cells)
    mask = np.zeros((bottom - top + 1, right - left + 1), dtype=bool)
    for i, j in cells:
        mask[i - top, j - left] = True
    mask.setflags(write=False)
    return Part(color, top, left, bottom - top + 1, right - left + 1, len(cells), mask)


def _cells_mask(cells, width: int) -> int:
    m = 0
    for i, j in cells:
        m |= 1 << (i * width + j)
    return m


def _box_mask(top: int, left: int, h: int, w: int, width: int) -> int:
    row = ((1 << w) - 1) << left
    m = 0
    for i in range(top, top + h):
        m |= row << (i * width)
    return m


def recognize_cells(cells: frozenset, h: int, w: int) -> lang.Ctor:
    """Reference for `parsing.recognize_mask` on a relative cell set."""
    arr = np.zeros((h, w), dtype=bool)
    for i, j in cells:
        arr[i, j] = True
    for name in parsing._REGULAR_MASKS:
        if name in ("PlusCross", "TimesCross") and (h % 2 == 0 or w % 2 == 0):
            continue
        if np.array_equal(arr, mask_array(name, h, w)):
            return lang.Ctor(name)
    return lang.bitmap(arr.astype(int).tolist())


def _rect_candidates(part: Part, width: int, color_cells, out: list) -> None:
    tl, size = lang.vec(part.top, part.left), lang.vec(part.height, part.width)
    box = _box_mask(part.top, part.left, part.height, part.width, width)
    out.append(parsing.Candidate(lang.pos_shape(tl, lang.rectangle(size, part.color, lang.FULL)),
                                 box, part.height * part.width, part.color, part.top,
                                 part.left, 0, box & ~color_cells[part.color]))
    if part.area < part.height * part.width:
        rel = frozenset((i - part.top, j - part.left) for i, j in part.cells)
        mask = recognize_cells(rel, part.height, part.width)
        out.append(parsing.Candidate(lang.pos_shape(tl, lang.rectangle(size, part.color, mask)),
                                     _cells_mask(part.cells, width), part.area, part.color,
                                     part.top, part.left, 1, 0))


def build_index_by_scans(g: Grid) -> parsing.GridIndex:
    """Reference for `parsing.build_index`: colour bitmasks by a loop over
    the cells, parts by `segment_by_scans`, every same-colour union built
    from its cell set before its box is tested, and each candidate's cells
    and exact mask from its cell set."""
    w = g.width
    color_cells = [0] * NUM_COLORS
    for i, row in enumerate(g.rows):
        base = i * w
        for j, c in enumerate(row):
            color_cells[c] |= 1 << (base + j)
    parts = segment_by_scans(g)
    cands = []
    for p in parts:
        if p.area > 1:
            _rect_candidates(p, w, color_cells, cands)
        if p.area < 5:
            for i, j in sorted(p.cells):
                cands.append(parsing.Candidate(lang.pos_shape(lang.vec(i, j), lang.point(p.color)),
                                               1 << (i * w + j), 1, p.color, i, j, 2, 0))
    by_color: dict[int, list[Part]] = {}
    for p in parts:
        by_color.setdefault(p.color, []).append(p)
    for c, group in by_color.items():
        if len(group) > parsing._UNION_COLOR_LIMIT:
            continue
        for a, b in combinations(group, 2):
            u = part_from_cells(c, a.cells | b.cells)
            if u.height * u.width <= 4 * u.area:
                _rect_candidates(u, w, color_cells, cands)
    unique: dict = {}
    for cand in cands:
        unique.setdefault(cand.tree, cand)
    ranked = sorted(unique.values(), key=lambda c: c.sort_key(w))
    return parsing.GridIndex(g, tuple(ranked[:parsing._MAX_CANDIDATES]), tuple(color_cells),
                             (1 << (g.height * w)) - 1)


def parse_by_costing_all(applied, g: Grid, caches: parsing.Caches) -> tuple:
    """Reference for `parsing.parse`'s choice of readings: every combination
    `parsing._combos` returns is summed exactly by `coding.sum_terms`, then
    they are sorted stably by cost and cut at `max_trees_kept`."""
    cfg, index = caches.cfg, caches.index(g)
    dims = (g.height, g.width)
    size_t, color_t, layer_ts = applied.args
    size = lang.vec(*dims)
    size_diffs = parsing._matcher(size_t)(size)
    if len(size_diffs) > cfg.max_diffs:
        return ()
    budget = cfg.max_diffs - len(size_diffs)
    loc = coding.l_uniform(lang.node_count(applied)) if cfg.max_diffs else 0.0
    layers = [parsing._admitted(index, lt, budget, loc) for lt in layer_ts]
    if not all(layer.picks for layer in layers):
        return ()
    fixed_bg = color_t if isinstance(color_t, int) else None
    size_terms = coding.slot_terms(size_t, size, size_diffs, dims, loc, lang.VEC, "grid_size")
    scored = []
    for ranks, n_diffs, bg, delta_mask, delta_cost in parsing._combos(
            index, layers, cfg.max_trees_before_sort, budget, fixed_bg):
        picks = [layer.picks[i] for layer, i in zip(layers, ranks)]
        pieces = [size_terms, coding.slot_terms(color_t, bg, (), dims, loc, lang.COLOR, "bg")]
        pieces += [coding.slot_terms(lt, cand.tree, d, dims, loc, lang.OBJECT)
                   for lt, (cand, d) in zip(layer_ts, picks)]
        dl = coding.sum_terms(len(size_diffs) + n_diffs, pieces) + delta_cost
        scored.append((dl, picks, bg, delta_mask))
    scored.sort(key=lambda s: s[0])
    grid_diffs = tuple((("size",) + p, t) for p, t in size_diffs)
    readings = []
    for dl, picks, bg, delta_mask in scored[:cfg.max_trees_kept]:
        diffs = grid_diffs + tuple((("layers", k) + p, t)
                                   for k, (_, d) in enumerate(picks) for p, t in d)
        tree = lang.grid(size, bg, tuple(cand.tree for cand, _ in picks))
        readings.append(parsing.Reading(tree, g, delta_mask, diffs, dl))
    return tuple(readings)


def template_diffs(tmpl, tree, prefix: tuple = ()) -> tuple | None:
    """Reference for `parsing._matcher(tmpl)(tree)`, by recursion over both
    terms: the diffs turning the template into the ground tree, or None when
    the structures are incompatible. Unknowns absorb anything."""
    if isinstance(tmpl, lang.Unknown):
        return ()
    if lang.is_expr(tmpl):
        raise lang.LangError("template still carries expressions")
    if isinstance(tmpl, lang.Ctor):
        if not isinstance(tree, lang.Ctor) or tmpl.name != tree.name:
            return ((prefix, tree),)
        if tmpl.name == "Bitmap":
            return () if tmpl.args == tree.args else ((prefix, tree),)
        out: tuple = ()
        for (fname, _, is_list), ta, da in zip(lang.ctor_fields(tmpl.name), tmpl.args, tree.args):
            if is_list:
                if len(ta) != len(da):
                    return None
                for k, (x, y) in enumerate(zip(ta, da)):
                    d = template_diffs(x, y, prefix + (fname, k))
                    if d is None:
                        return None
                    out += d
            else:
                d = template_diffs(ta, da, prefix + (fname,))
                if d is None:
                    return None
                out += d
        return out
    return () if tmpl == tree else ((prefix, tree),)


def is_ground_by_slots(t) -> bool:
    """Reference for `lang.is_ground`, by its definition: no slot of the
    slot walk holds an unknown or an expression."""
    return not any(isinstance(sub, (lang.Unknown, lang.Var, lang.App))
                   for _, _, _, sub in lang.slots(t))


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
