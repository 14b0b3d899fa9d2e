"""Shared test data and oracles: a nested-rectangles task, a synthetic task
suite, task files, corpus gating, and the cell-level and template oracles
the grid, parsing and property tests check against. Fixtures over them live in `conftest.py`."""

import ast
import importlib
import json
import os
import random
from itertools import combinations
from pathlib import Path

import numpy as np

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


def draw_by_cells(tree) -> Grid | None:
    """Reference for `parsing.draw` on a ground tree of well-sorted slots:
    the grid painted cell by cell, background first and then the layers
    from the last, or None where `draw` refuses the tree: a grid or
    rectangle side outside 1..30, or a bitmap not of its rectangle's size."""
    (h, w), bg, layers = tree.args[0].args, tree.args[1], tree.args[2]
    if not (1 <= h <= 30 and 1 <= w <= 30):
        return None
    cells = [[bg] * w for _ in range(h)]
    for obj in reversed(layers):
        (oi, oj), shape = obj.args[0].args, obj.args[1]
        if shape.name == "Point":
            if 0 <= oi < h and 0 <= oj < w:
                cells[oi][oj] = shape.args[0]
            continue
        (sh, sw), color, mask = shape.args[0].args, shape.args[1], shape.args[2]
        bits = mask.args[0] if mask.name == "Bitmap" else None
        if not (1 <= sh <= 30 and 1 <= sw <= 30) or (
                bits is not None and (len(bits), len(bits[0])) != (sh, sw)):
            return None
        for i in range(max(oi, 0), min(oi + sh, h)):
            for j in range(max(oj, 0), min(oj + sw, w)):
                if mask_member(mask.name, (sh, sw), (i - oi, j - oj), bits):
                    cells[i][j] = color
    return Grid(cells)


def segment_by_scans(g: Grid) -> tuple[Part, ...]:
    """Reference for `grids.segment`: a flood fill over 4-neighbours of one
    colour from each cell no earlier part holds, cells taken in scanline
    order, so the parts come in the order of their first cell."""
    rows, h, w = g.rows, g.height, g.width
    seen = set()
    parts = []
    for i in range(h):
        for j in range(w):
            if (i, j) in seen:
                continue
            color = rows[i][j]
            seen.add((i, j))
            cells, todo = [], [(i, j)]
            while todo:
                ci, cj = todo.pop()
                cells.append((ci, cj))
                for ni, nj in ((ci - 1, cj), (ci + 1, cj), (ci, cj - 1), (ci, cj + 1)):
                    if (0 <= ni < h and 0 <= nj < w and (ni, nj) not in seen
                            and rows[ni][nj] == color):
                        seen.add((ni, nj))
                        todo.append((ni, nj))
            parts.append(part_from_cells(color, cells, w))
    return tuple(parts)


def part_from_cells(color: int, cells, width: int) -> Part:
    """The part of the given colour and (row, column) cells in a grid of
    `width` columns."""
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
    return Part(color, top, left, bottom - top + 1, right - left + 1, len(cells), mask,
                _cells_mask(cells, width))


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
            u = part_from_cells(c, a.cells | b.cells, w)
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


def walk_by_prefixes(rows: list, cap: int, budget: int) -> list:
    """Reference for `parsing._walk`, step bound included: one `visit` per
    layer but the last, which is placed inline, and the dead-state memo
    kept after every prefix. It counts a try for each pick it checks, and
    stops after the try that reaches `parsing._MAX_STEPS`."""
    L = len(rows)
    if L == 0:
        return [((), 0, 0, 0)]
    if L == 1:
        # injective by itself, and in rank order: at most _MAX_PER_LAYER tries
        return [((i,), nd, cells, wrong)
                for i, (_, nd, cells, wrong) in enumerate(rows[0]) if nd <= budget][:cap]
    room = [0] * (L + 1)
    for d in range(L - 1, -1, -1):
        room[d] = room[d + 1] + len(rows[d]) - 1
    last = rows[-1]
    penult = L - 2
    ranks = [0] * L
    out = []
    dead = set()
    steps = 0

    def visit(d: int, left: int, used: int, n: int, covered: int, wrong: int) -> bool:
        """Walk the picks of layers d.. (d < L - 1) with rank sum `left`;
        whether any combination was found."""
        nonlocal steps
        found = False
        layer = rows[d]
        lo = left - room[d + 1]
        for i in range(lo if lo > 0 else 0, min(left, len(layer) - 1) + 1):
            steps += 1
            bit, nd, cells, wr = layer[i]
            if not used & bit and n + nd <= budget:
                ranks[d] = i
                used_i, n_i = used | bit, n + nd
                covered_i, wrong_i = covered | cells, wrong | (wr & ~covered)
                if d == penult:
                    # the last layer, inlined rather than visited: its rank is fixed
                    steps += 1
                    bit, nd, cells, wr = last[left - i]
                    if not used_i & bit and n_i + nd <= budget:
                        ranks[-1] = left - i
                        out.append((tuple(ranks), n_i + nd, covered_i | cells,
                                    wrong_i | (wr & ~covered_i)))
                        found = True
                else:
                    state = (d + 1, left - i, used_i, n_i)
                    if state not in dead:
                        if visit(*state, covered_i, wrong_i):
                            found = True
                        else:
                            dead.add(state)
            if len(out) >= cap or steps >= parsing._MAX_STEPS:
                break
        return found

    for rank in range(room[0] + 1):
        visit(0, rank, 0, 0, 0, 0)
        if len(out) >= cap or steps >= parsing._MAX_STEPS:
            break
    # `visit` holds itself through its closure: break that cycle, so that
    # reference counting frees the walk's state
    visit = None
    return out


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


_CROSSES = (lang.PLUS_CROSS, lang.TIMES_CROSS)
_SCENE_MASKS = (lang.FULL, lang.BORDER, lang.EVEN_CHECKBOARD, lang.ODD_CHECKBOARD) + _CROSSES


def arc_scale_scenes(count: int, seed: int) -> list[Grid]:
    """`count` seeded scenes of ARC scale for the index tests: sides of 24
    to 30, 10 to 30 rectangles of one to seven cells a side under every
    mask kind (crosses at odd sides, a bitmap at random), some with a
    like-coloured twin beside them within the union bound, a few points,
    and noise cells recoloured after drawing. Shapes may overlap and are
    clipped at the borders."""
    rng = random.Random(seed)
    scenes = []
    for _ in range(count):
        h, w = rng.randint(24, 30), rng.randint(24, 30)
        layers = []
        for _ in range(rng.randint(10, 30)):
            rh, rw, c = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 9)
            mask = rng.choice(_SCENE_MASKS + (None,))
            if mask in _CROSSES:
                rh, rw = rh | 1, rw | 1
            elif mask is None:
                mask = lang.bitmap([[rng.randint(0, 1) for _ in range(rw)] for _ in range(rh)])
            i, j = rng.randrange(h), rng.randrange(w)
            layers.append(_rect((i, j), (rh, rw), c, mask))
            if rng.random() < 0.3:
                # a full twin one or two columns to the right: beside a
                # full rectangle, the pair's box is under twice its cells
                layers.append(_rect((i, j + rw + rng.randint(1, 2)), (rh, rw), c))
        for _ in range(rng.randint(2, 6)):
            layers.append(_pt((rng.randrange(h), rng.randrange(w)), rng.randint(1, 9)))
        rows = [list(row) for row in _g((h, w), 0, layers).rows]
        for _ in range(rng.randint(4, 12)):
            rows[rng.randrange(h)][rng.randrange(w)] = rng.randint(0, 9)
        scenes.append(Grid(rows))
    return scenes


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


def cache_decorators(tree: ast.Module):
    """(function name, decorator, decorator name) of each function a module
    decorates with `functools.lru_cache` or `functools.cache`, called or
    bare, by name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    yield node.name, dec, name


def cached_functions(tree: ast.Module):
    """The name of each function a module decorates with
    `functools.lru_cache`, called or bare, by name or as an attribute."""
    for name, _, kind in cache_decorators(tree):
        if kind == "lru_cache":
            yield name


def package_caches() -> list:
    """Every function of the package's modules under `lru_cache`, found by
    `cached_functions` in each module's source."""
    package = Path(parsing.__file__).resolve().parent
    caches = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"gridmdl.{path.stem}")
        caches += [getattr(module, name) for name in cached_functions(ast.parse(path.read_text()))]
    return caches
