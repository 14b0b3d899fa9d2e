"""Drawing grids from ground trees and parsing grids into model readings.

Parsing runs in three stages: segmentation into one-colour parts, candidate
objects built from parts (plus limited unions and point explosions), and a
search over per-layer candidate combinations in increasing rank order. Each
surviving combination yields a reading: a ground parse tree, the cell delta
against the drawn tree, any template diffs, and its description length.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

import numpy as np

from . import coding, lang
from .grids import Grid, GridError, Part, mask_array, segment
from .lang import (
    COLOR, MASK, NAT, OBJECT, SHAPE, VEC,
    Ctor, Term, Unknown,
    grid as grid_term, pos_shape, rectangle, point, vec, bitmap as bitmap_term,
    FULL,
)

GREY = 5
DEFAULT_GRID_SIZE = (10, 10)
DEFAULT_RECT_SIZE = (2, 2)

# recognition order for regular masks; crosses need odd dimensions
_REGULAR_MASKS = ("Full", "Border", "EvenCheckboard", "OddCheckboard",
                  "PlusCross", "TimesCross")

_MAX_POPS = 1024
_MAX_CANDIDATES = 512
_UNION_COLOR_LIMIT = 64


@dataclass(frozen=True)
class ParseConfig:
    """Search bounds of the parser."""
    max_candidates_per_layer: int = 64
    max_trees_before_sort: int = 64
    max_trees_kept: int = 3
    max_diffs: int = 0


DEFAULT_PARSE = ParseConfig()


@dataclass(frozen=True)
class Reading:
    """One way a grid instantiates a model side."""
    tree: Ctor
    delta: frozenset
    diffs: tuple
    dl: float


@dataclass(frozen=True)
class ReadingPair:
    """Chained input and output readings of one example."""
    rin: Reading
    rout: Reading
    dl: float


@dataclass
class Caches:
    """Per-task memo tables; safe to share across refinement evaluations.

    Readings are keyed on the applied model, the grid and the whole
    ParseConfig; indexes on the grid alone. An index also carries the
    per-layer memo of admitted candidates and their reading terms
    (`GridIndex.layers`)."""
    indexes: dict = field(default_factory=dict)
    readings: dict = field(default_factory=dict)


# drawing

def draw(tree: Term) -> Grid:
    """Paint a ground grid term: background first, then layers bottom-up
    (the last list element first), clipping at the borders."""
    if not (isinstance(tree, Ctor) and tree.name == "Grid"):
        raise lang.LangError("draw needs a Grid term")
    size, color, layers = tree.args
    if not lang.is_ground(tree):
        raise lang.LangError("draw needs a ground term")
    h, w = size.args
    if h < 1 or w < 1:
        raise GridError(f"degenerate grid size {h}x{w}")
    arr = np.full((h, w), color, dtype=np.int8)
    for obj in reversed(layers):
        _paint(arr, obj)
    return Grid.from_array(arr)


def _paint(arr: np.ndarray, obj: Ctor) -> None:
    h, w = arr.shape
    pos, shape = obj.args
    oi, oj = pos.args
    if shape.name == "Point":
        if 0 <= oi < h and 0 <= oj < w:
            arr[oi, oj] = shape.args[0]
        return
    size, color, mask = shape.args
    sh, sw = size.args
    bits = mask.args[0] if mask.name == "Bitmap" else None
    cells = mask_array(mask.name, sh, sw, bits)
    # clip the shape's box to the grid
    i0, j0 = max(oi, 0), max(oj, 0)
    i1, j1 = min(oi + sh, h), min(oj + sw, w)
    if i0 >= i1 or j0 >= j1:
        return
    sub = cells[i0 - oi:i1 - oi, j0 - oj:j1 - oj]
    view = arr[i0:i1, j0:j1]
    view[sub] = color


# default instantiation

def _default(sort: str, role: str) -> Term:
    if sort == VEC:
        if role == "pos":
            return vec(0, 0)
        if role == "grid_size":
            return vec(*DEFAULT_GRID_SIZE)
        return vec(*DEFAULT_RECT_SIZE)
    if sort == NAT:
        if role in ("pos_i", "pos_j"):
            return 0
        if role == "grid_size":
            return 10
        return 2
    if sort == COLOR:
        return 0 if role == "bg" else GREY
    if sort == MASK:
        return FULL
    if sort == SHAPE:
        return rectangle(vec(*DEFAULT_RECT_SIZE), GREY, FULL)
    if sort == OBJECT:
        return pos_shape(vec(0, 0), rectangle(vec(*DEFAULT_RECT_SIZE), GREY, FULL))
    raise lang.LangError(f"no default for sort {sort}")


def generate(m: Term) -> Term:
    """Close an applied model by filling every unknown with the default of
    its slot's role: positions (0,0), grid sizes 10x10, rectangle sizes 2x2,
    black backgrounds, grey shapes, full masks."""
    out = m
    for path, sort, role, t in lang.slots(m):
        if isinstance(t, Unknown):
            out = lang.subst(out, path, _default(sort, role))
        elif lang.is_expr(t):
            raise lang.LangError("generate needs an applied model")
    return out


def write(m: Term, env: Term | None) -> tuple[Term, Grid]:
    """Instantiate and draw a model side; returns the tree and its grid."""
    tree = generate(lang.apply_model(m, env))
    return tree, draw(tree)


# candidates

@dataclass(frozen=True)
class Candidate:
    """A possible object occurrence: its term, drawn cells, and order key data."""
    tree: Ctor
    cells: int
    area: int
    color: int
    top: int
    left: int
    variant: int  # 0 full-mask, 1 exact-mask, 2 point
    wrong: int    # drawn cells whose grid colour differs

    def sort_key(self, width: int):
        return (self.color == 0, -self.area, self.top * width + self.left, self.variant)


@dataclass
class GridIndex:
    """Per-grid candidate table, colour bitmasks and layer memo.

    `layers` maps (layer template, diff budget, max_candidates_per_layer,
    diff-location cost) to the layer's admitted (candidate, diffs) pairs and
    a parallel list of their reading terms, each filled when a parse first
    needs it. With the grid, that key is every input of admission and of the
    terms, so the memo holds for every parse of the grid."""
    grid: Grid
    candidates: tuple
    color_cells: tuple  # bitmask per colour
    all_cells: int
    layers: dict = field(default_factory=dict)


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


def recognize_mask(cells: frozenset, h: int, w: int) -> Ctor:
    """Smallest regular mask matching the relative cell set, else a bitmap."""
    arr = np.zeros((h, w), dtype=bool)
    for i, j in cells:
        arr[i, j] = True
    for name in _REGULAR_MASKS:
        if name in ("PlusCross", "TimesCross") and (h % 2 == 0 or w % 2 == 0):
            continue
        if np.array_equal(arr, mask_array(name, h, w)):
            return Ctor(name)
    return bitmap_term(arr.astype(int).tolist())


def _part_candidates(part: Part, width: int, out: list) -> None:
    rel = frozenset((i - part.top, j - part.left) for i, j in part.cells)
    box = part.height * part.width
    tl = (part.top, part.left)
    if part.area == 1:
        (i, j), = part.cells
        out.append((pos_shape(vec(i, j), point(part.color)),
                    _cells_mask(part.cells, width), 1, part.color, i, j, 2, 0))
        return
    exact_mask = recognize_mask(rel, part.height, part.width)
    if exact_mask.name == "Full":
        out.append((pos_shape(vec(*tl), rectangle(vec(part.height, part.width), part.color, FULL)),
                    _box_mask(*tl, part.height, part.width, width),
                    box, part.color, *tl, 0, 0))
    else:
        out.append((pos_shape(vec(*tl), rectangle(vec(part.height, part.width), part.color, FULL)),
                    _box_mask(*tl, part.height, part.width, width),
                    box, part.color, *tl, 0, -1))
        out.append((pos_shape(vec(*tl), rectangle(vec(part.height, part.width), part.color, exact_mask)),
                    _cells_mask(part.cells, width),
                    part.area, part.color, *tl, 1, 0))
    if part.area < 5:
        for i, j in sorted(part.cells):
            out.append((pos_shape(vec(i, j), point(part.color)),
                        1 << (i * width + j), 1, part.color, i, j, 2, 0))


def _union_candidates(a: Part, b: Part, width: int, out: list) -> None:
    top, left = min(a.top, b.top), min(a.left, b.left)
    bottom = max(a.top + a.height, b.top + b.height)
    right = max(a.left + a.width, b.left + b.width)
    h, w = bottom - top, right - left
    if h * w > 4 * (a.area + b.area):
        return
    cells = a.cells | b.cells
    rel = frozenset((i - top, j - left) for i, j in cells)
    mask = recognize_mask(rel, h, w)
    if mask.name == "Full":
        out.append((pos_shape(vec(top, left), rectangle(vec(h, w), a.color, FULL)),
                    _box_mask(top, left, h, w, width), h * w, a.color, top, left, 0, 0))
        return
    out.append((pos_shape(vec(top, left), rectangle(vec(h, w), a.color, FULL)),
                _box_mask(top, left, h, w, width), h * w, a.color, top, left, 0, -1))
    out.append((pos_shape(vec(top, left), rectangle(vec(h, w), a.color, mask)),
                _cells_mask(cells, width), len(cells), a.color, top, left, 1, 0))


def build_index(g: Grid) -> GridIndex:
    """Segment the grid and assemble its ranked candidate objects."""
    w = g.width
    color_cells = [0] * 10
    for i, row in enumerate(g.rows):
        base = i * w
        for j, c in enumerate(row):
            color_cells[c] |= 1 << (base + j)
    parts = segment(g)
    raw: list = []
    for p in parts:
        _part_candidates(p, w, raw)
    by_color: dict[int, list[Part]] = {}
    for p in parts:
        by_color.setdefault(p.color, []).append(p)
    for c, group in by_color.items():
        if len(group) > _UNION_COLOR_LIMIT:
            continue
        for x in range(len(group)):
            for y in range(x + 1, len(group)):
                _union_candidates(group[x], group[y], w, raw)
    # resolve the wrong-cell mask for full-mask variants, dedupe by term
    seen: dict = {}
    for tree, cells, area, color, top, left, variant, wrong in raw:
        if tree in seen:
            continue
        if wrong == -1:
            wrong = cells & ~color_cells[color]
        seen[tree] = Candidate(tree, cells, area, color, top, left, variant, wrong)
    cands = sorted(seen.values(), key=lambda c: c.sort_key(w))
    return GridIndex(g, tuple(cands[:_MAX_CANDIDATES]), tuple(color_cells),
                     (1 << (g.height * w)) - 1)


# template matching with diffs

def template_diffs(tmpl: Term, tree: Term, prefix: tuple = ()) -> tuple | None:
    """Diffs turning the template into the ground tree, or None when the
    structures are incompatible. Unknowns absorb anything."""
    if isinstance(tmpl, Unknown):
        return ()
    if lang.is_expr(tmpl):
        raise lang.LangError("template still carries expressions")
    if isinstance(tmpl, Ctor):
        if not isinstance(tree, Ctor):
            return ((prefix, tree),)
        if tmpl.name != tree.name:
            return ((prefix, tree),)
        if tmpl.name == "Bitmap":
            return () if tmpl.args == tree.args else ((prefix, tree),)
        out: tuple = ()
        for (fname, fsort, is_list), ta, da in zip(lang.ctor_fields(tmpl.name), tmpl.args, tree.args):
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


# parsing proper

def _bits_cells(mask: int, width: int, g: Grid):
    out = []
    while mask:
        low = mask & -mask
        b = low.bit_length() - 1
        i, j = divmod(b, width)
        out.append((i, j, g.rows[i][j]))
        mask &= mask - 1
    return out


def _size_fit(size_t: Term, h: int, w: int) -> tuple:
    """Diffs, relative to the size slot, that the model's size template needs
    to admit the actual dimensions."""
    if isinstance(size_t, Unknown):
        return ()
    i_t, j_t = size_t.args
    diffs: tuple = ()
    if isinstance(i_t, int) and i_t != h:
        diffs += ((("i",), h),)
    if isinstance(j_t, int) and j_t != w:
        diffs += ((("j",), w),)
    return diffs


def parse(applied: Term, g: Grid, dl_cfg: coding.DLConfig = coding.DEFAULT_DL,
          cfg: ParseConfig = DEFAULT_PARSE, index: GridIndex | None = None) -> tuple[Reading, ...]:
    """All retained readings of `g` under an expression-free grid model,
    sorted by ascending description length.

    A combination's cost is the sum of `coding.slot_terms` over the grid
    size, the background colour and each layer's candidate, plus the delta;
    only the kept readings are built. The grid size and colours are costed
    once per call; a layer's admitted candidates and their terms once per
    grid for as long as its index lives.

    No reading cost depends on `dl_cfg` (its `alpha` weighs whole examples);
    it stays third so that `cfg` keeps its position."""
    if not (isinstance(applied, Ctor) and applied.name == "Grid"):
        raise lang.LangError("parse needs a Grid model")
    h, w = g.height, g.width
    dims = (h, w)
    if index is None:
        index = build_index(g)
    size_t, color_t, layer_ts = applied.args

    size_diffs = _size_fit(size_t, h, w)
    if len(size_diffs) > cfg.max_diffs:
        return ()
    budget = cfg.max_diffs - len(size_diffs)

    loc = coding.l_uniform(lang.node_count(applied)) if cfg.max_diffs else 0.0

    # admissible candidates per layer, keeping the global order, and their
    # reading terms; both come from the index's memo when an earlier parse
    # of the grid met the same layer
    per_layer: list[list[tuple[Candidate, tuple]]] = []
    layer_terms: list[list] = []
    for lt in layer_ts:
        key = (lt, budget, cfg.max_candidates_per_layer, loc)
        entry = index.layers.get(key)
        if entry is None:
            admitted = []
            for cand in index.candidates:
                d = template_diffs(lt, cand.tree, ())
                if d is not None and len(d) <= budget:
                    admitted.append((cand, d))
                    if len(admitted) >= cfg.max_candidates_per_layer:
                        break
            entry = index.layers[key] = (admitted, [None] * len(admitted))
        admitted, terms = entry
        if not admitted:
            return ()
        per_layer.append(admitted)
        layer_terms.append(terms)

    # reading terms: the grid's once, each colour's and each candidate's
    # when a combination first needs them
    size_terms = coding.slot_terms(size_t, vec(h, w), size_diffs, dims, loc, VEC, "grid_size")
    bg_terms: dict[int, tuple] = {}

    scored: list[tuple[float, list, int, int]] = []
    L = len(per_layer)
    heap: list[tuple[int, tuple]] = [(0, (0,) * L)]
    seen = {(0,) * L}
    pops = 0
    while heap and len(scored) < cfg.max_trees_before_sort and pops < _MAX_POPS:
        rank, combo = heapq.heappop(heap)
        pops += 1
        for d in range(L):
            if combo[d] + 1 < len(per_layer[d]):
                nxt = combo[:d] + (combo[d] + 1,) + combo[d + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (rank + 1, nxt))
        picks = [per_layer[d][combo[d]] for d in range(L)]
        if L > 1 and len({id(c) for c, _ in picks}) < L:
            continue
        n_diffs = len(size_diffs) + sum(len(d) for _, d in picks)
        if n_diffs > cfg.max_diffs:
            continue

        covered = 0
        mismatch = 0
        for cand, _ in picks:
            mismatch |= cand.wrong & ~covered
            covered |= cand.cells
        uncovered = index.all_cells & ~covered
        if isinstance(color_t, int):
            bg = color_t
        else:
            bg = _best_background(index, uncovered, mismatch, dims)
        delta_mask = mismatch | (uncovered & ~index.color_cells[bg])

        bg_piece = bg_terms.get(bg)
        if bg_piece is None:
            bg_piece = bg_terms[bg] = coding.slot_terms(color_t, bg, (), dims, loc, COLOR, "bg")
        pieces = [size_terms, bg_piece]
        for d, (cand, ld) in enumerate(picks):
            terms = layer_terms[d][combo[d]]
            if terms is None:
                terms = layer_terms[d][combo[d]] = coding.slot_terms(
                    layer_ts[d], cand.tree, ld, dims, loc, OBJECT)
            pieces.append(terms)
        dl = coding.sum_terms(n_diffs, pieces) \
            + coding.l_delta(range(delta_mask.bit_count()), dims)
        scored.append((dl, picks, bg, delta_mask))

    # a stable sort: equal costs keep the order the search found them in
    scored.sort(key=lambda s: s[0])
    grid_diffs = tuple((("size",) + p, t) for p, t in size_diffs)
    readings = []
    for dl, picks, bg, delta_mask in scored[:cfg.max_trees_kept]:
        diffs = grid_diffs + tuple((("layers", k) + p, t)
                                   for k, (_, d) in enumerate(picks) for p, t in d)
        tree = grid_term(vec(h, w), bg, tuple(cand.tree for cand, _ in picks))
        readings.append(Reading(tree, frozenset(_bits_cells(delta_mask, w, g)), diffs, dl))
    return tuple(readings)


def _best_background(index: GridIndex, uncovered: int, mismatch: int, dims) -> int:
    """The background colour that minimises its prior plus the delta it
    leaves, among black and the colours of the uncovered cells."""
    options = {0}
    for c in range(10):
        if uncovered & index.color_cells[c]:
            options.add(c)
    best = None
    mism_n = mismatch.bit_count()
    for c in sorted(options):
        n = (uncovered & ~index.color_cells[c]).bit_count() + mism_n
        cost = coding.l_dist(coding.P_BG[c]) + coding.l_delta(range(n), dims)
        if best is None or cost < best[0]:
            best = (cost, c)
    return best[1]


# reading models against grids

def read(m: Term, env: Term | None, g: Grid,
         dl_cfg: coding.DLConfig = coding.DEFAULT_DL,
         cfg: ParseConfig = DEFAULT_PARSE,
         caches: Caches | None = None) -> tuple[Reading, ...]:
    """Apply the model side to its environment and parse the grid.

    Returns no readings when the environment does not support the model's
    expressions (dangling variable, negative difference)."""
    try:
        applied = lang.apply_model(m, env)
    except lang.LangError:
        return ()
    if caches is None:
        return parse(applied, g, dl_cfg, cfg)
    key = (applied, g, cfg)
    hit = caches.readings.get(key)
    if hit is None:
        index = caches.indexes.get(g)
        if index is None:
            index = caches.indexes[g] = build_index(g)
        hit = caches.readings[key] = parse(applied, g, dl_cfg, cfg, index)
    return hit


def read_pair(model: Ctor, gi: Grid, go: Grid,
              dl_cfg: coding.DLConfig = coding.DEFAULT_DL,
              parse_cfg: ParseConfig | None = None,
              caches: Caches | None = None) -> list[ReadingPair]:
    """Chained readings of one example, best combined cost first."""
    if parse_cfg is None:
        parse_cfg = DEFAULT_PARSE
    m_in, m_out = model.args
    pairs: list[ReadingPair] = []
    for rin in read(m_in, None, gi, dl_cfg, parse_cfg, caches):
        for rout in read(m_out, rin.tree, go, dl_cfg, parse_cfg, caches):
            pairs.append(ReadingPair(rin, rout, rin.dl + rout.dl))
    pairs.sort(key=lambda p: p.dl)
    return pairs
