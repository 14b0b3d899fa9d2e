"""Drawing grids from ground trees and parsing grids into model readings.

Parsing runs in three stages: segmentation into one-colour parts, candidate
objects built from parts (plus limited unions and point explosions), and a
walk over per-layer candidate combinations in increasing rank order. The walk
only enumerates: depth first, one rank sum at a time, it cuts a branch at the
first candidate used twice or diff budget overrun, and returns what it met
within `_MAX_STEPS` candidate tries, once per row set per grid. `parse` keys
each combination it gets back with a pre-summed cost and sums exactly only
those whose key can reach the kept ones; the cheapest become readings: a
ground parse tree, the cell delta against the drawn tree, any template
diffs, and its description length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from operator import itemgetter

import numpy as np

from . import coding, lang
from .grids import (
    MAX_DIM, NUM_COLORS, Grid, GridError, Part, check_bitmap, is_color, mask_array, segment,
)
from .lang import (
    COLOR, MASK, NAT, OBJECT, SHAPE, VEC,
    Ctor, Term, Unknown, UNK,
    grid as grid_term, pos_shape, rectangle, point, vec,
    FULL,
)

# recognition order for regular masks; crosses need odd dimensions
_REGULAR_MASKS = ("Full", "Border", "EvenCheckboard", "OddCheckboard",
                  "PlusCross", "TimesCross")

_MAX_STEPS = 16384
_MAX_CANDIDATES = 512
_MAX_PER_LAYER = 64
_UNION_COLOR_LIMIT = 64

# each background colour's prior, as `coding.slot_terms` charges a bg fill
_BG_PRIOR = tuple(coding.l_dist(coding.P_BG[c]) for c in range(NUM_COLORS))


@lru_cache(maxsize=(MAX_DIM + 1) ** 2)
def _vec(i: int, j: int) -> Ctor:
    """`Vec(i, j)` of a candidate's position or size (0 <= i, j <= MAX_DIM),
    built once per process, so that each hashes once."""
    return vec(i, j)


@dataclass(frozen=True)
class ParseConfig:
    """Search bounds of the parser."""
    max_trees_before_sort: int = 64
    max_trees_kept: int = 3
    max_diffs: int = 0

    def __post_init__(self):
        check_setting("max_trees_before_sort", self.max_trees_before_sort, 1)
        check_setting("max_trees_kept", self.max_trees_kept, 1)
        check_setting("max_diffs", self.max_diffs, 0)


def check_setting(name: str, value, floor: int | None = None, types=int,
                  kind: str = "an int") -> None:
    """Raise a ValueError naming `name` when `value` is not of `types`,
    described as `kind` (a bool is of none of them), or is below `floor`."""
    if not isinstance(value, types) or isinstance(value, bool):
        raise ValueError(f"{name}: must be {kind}, got {value!r}")
    if floor is not None and value < floor:
        raise ValueError(f"{name}: must be at least {floor}, got {value!r}")


DEFAULT_PARSE = ParseConfig()


@dataclass(frozen=True)
class Reading:
    """One way a grid instantiates a model side: the ground tree, the grid
    read, the bitmask of the cells the drawn tree gets wrong (bit
    `i * width + j`), the template diffs and the description length."""
    tree: Ctor
    grid: Grid
    delta_mask: int
    diffs: tuple
    dl: float

    @property
    def delta(self) -> frozenset:
        """The delta as (i, j, colour) cells, coloured after the grid, so
        that `delta_apply(draw(tree), delta) == grid`; built on each call."""
        rows, w = self.grid.rows, self.grid.width
        mask, out = self.delta_mask, []
        while mask:
            low = mask & -mask
            i, j = divmod(low.bit_length() - 1, w)
            out.append((i, j, rows[i][j]))
            mask ^= low
        return frozenset(out)


@dataclass(frozen=True)
class ReadingPair:
    """Chained input and output readings of one example."""
    rin: Reading
    rout: Reading
    dl: float


@dataclass
class Caches:
    """The reading context of a task, and the only way into the reading
    path: the one ParseConfig its grids are read under, and its memo
    tables; safe to share across refinement evaluations. `learn.learn` and
    `learn.predict` each make one; every function below them takes it.

    Input models map to their cost and environment signature
    (`coding.l_pair_model`). `applied` is `lang.apply_model`'s memo: model
    sides and their layers, each keyed with its environment (the input
    tree, or None), map to their application, or to the error message of
    an application that fails. `indexes` maps each grid to its `GridIndex`,
    which `index` builds on the grid's first use and which carries every
    per-grid memo, the grid's readings under `cfg` among them: the context
    fixes the config and the index the grid."""
    cfg: ParseConfig = DEFAULT_PARSE
    inputs: dict = field(default_factory=dict)
    applied: dict = field(default_factory=dict)
    indexes: dict = field(default_factory=dict)

    def index(self, g: Grid) -> GridIndex:
        """The grid's index in this context."""
        index = self.indexes.get(g)
        if index is None:
            index = self.indexes[g] = build_index(g)
        return index


# drawing

def draw(tree: Term) -> Grid:
    """Paint a ground grid term: background first, then layers bottom-up
    (the last list element first), clipping at the borders. Grid and
    rectangle sides must lie in 1..MAX_DIM, as in ARC, and every colour,
    painted, covered or clipped, must be one `Grid` accepts in a cell."""
    if not lang.is_ground(tree):
        raise lang.LangError("draw needs a ground term")
    return _draw_ground(tree)


def _draw_ground(tree: Term) -> Grid:
    """`draw` for a term known to be ground, such as `generate` leaves."""
    if not (isinstance(tree, Ctor) and tree.name == "Grid"):
        raise lang.LangError("draw needs a Grid term")
    size, color, layers = tree.args
    h, w = size.args
    _check_int(h, "grid height")
    _check_int(w, "grid width")
    if h < 1 or w < 1:
        raise GridError(f"degenerate grid size {h}x{w}")
    if h > MAX_DIM or w > MAX_DIM:
        raise GridError(f"grid size {h}x{w} exceeds {MAX_DIM}")
    _check_color(color, "background")
    arr = np.full((h, w), color, dtype=np.int8)
    for obj in reversed(layers):
        _paint(arr, obj)
    return Grid.from_array(arr)


def _check_color(c, what: str) -> None:
    if not is_color(c):
        raise GridError(f"{what} {c!r} is not a colour 0-{NUM_COLORS - 1}")


def _check_int(n, what: str) -> None:
    """Refuse a size or position that is not an int; a bool is not one."""
    if type(n) is not int:
        raise GridError(f"{what} {n!r} is not an int")


def _paint(arr: np.ndarray, obj: Ctor) -> None:
    h, w = arr.shape
    pos, shape = obj.args
    oi, oj = pos.args
    _check_int(oi, "position row")
    _check_int(oj, "position column")
    if shape.name == "Point":
        color = shape.args[0]
        _check_color(color, "point colour")
        if 0 <= oi < h and 0 <= oj < w:
            arr[oi, oj] = color
        return
    size, color, mask = shape.args
    sh, sw = size.args
    _check_int(sh, "rectangle height")
    _check_int(sw, "rectangle width")
    if sh < 1 or sw < 1:
        raise GridError(f"degenerate rectangle size {sh}x{sw}")
    if sh > MAX_DIM or sw > MAX_DIM:
        raise GridError(f"rectangle size {sh}x{sw} exceeds {MAX_DIM}")
    _check_color(color, "rectangle colour")
    bits = None
    if mask.name == "Bitmap":
        bits = mask.args[0]
        check_bitmap(bits, sh, sw)  # on each paint: the cache takes True for 1
    # a Full mask paints its clipped box as one slice; any other is made
    # before the clip, so that a bad bitmap is refused even off the grid
    cells = None if mask.name == "Full" else mask_array(mask.name, sh, sw, bits)
    # clip the shape's box to the grid
    i0, j0 = max(oi, 0), max(oj, 0)
    i1, j1 = min(oi + sh, h), min(oj + sw, w)
    if i0 >= i1 or j0 >= j1:
        return
    if cells is None:
        arr[i0:i1, j0:j1] = color
    else:
        arr[i0:i1, j0:j1][cells[i0 - oi:i1 - oi, j0 - oj:j1 - oj]] = color


# default instantiation

def _default(sort: str, role: str) -> Term:
    if sort == NAT:
        if role in ("pos_i", "pos_j"):
            return 0
        if role == "grid_size":
            return 10
        return 2
    if sort == COLOR:
        return lang.BLACK if role == "bg" else lang.GREY
    if sort == MASK:
        return FULL
    raise lang.LangError(f"no default for sort {sort}")


# what fills an unknown of a composite sort before its own unknowns take
# their defaults: the sort's sole constructor, or a rectangle for a shape
_DEFAULT_CTOR = {**lang.SOLE_CTORS, SHAPE: rectangle(UNK, UNK, UNK)}


def generate(m: Term, sort: str = lang.GRID, role: str = "") -> Term:
    """Close an applied model by filling every unknown with the default of
    its slot's role: positions (0,0), grid sizes 10x10, rectangle sizes 2x2,
    black backgrounds, grey shapes, full masks. `sort` and `role` are those
    of the slot `m` fills. A ground model is returned as it is."""
    if lang.is_ground(m):
        return m
    out = m
    for path, s, r, t in lang.slots(m, sort, role):
        if isinstance(t, Unknown):
            ctor = _DEFAULT_CTOR.get(s)
            fill = _default(s, r) if ctor is None else generate(ctor, s, r)
            out = lang.subst(out, path, fill)
        elif lang.is_expr(t):
            raise lang.LangError("generate needs an applied model")
    return out


def write(m: Term, env: Term | None) -> tuple[Term, Grid]:
    """Instantiate and draw a model side; returns the tree and its grid.
    `generate` leaves no unknown and no expression, so the tree is drawn
    without walking it again for `draw`'s ground check."""
    tree = generate(lang.apply_model(m, env))
    return tree, _draw_ground(tree)


# candidates

@dataclass(frozen=True, init=False)
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

    def __init__(self, tree: Ctor, cells: int, area: int, color: int, top: int, left: int,
                 variant: int, wrong: int):
        # one update of the instance dict: a frozen dataclass's own __init__
        # pays an `object.__setattr__` per field
        self.__dict__.update(tree=tree, cells=cells, area=area, color=color, top=top,
                             left=left, variant=variant, wrong=wrong)

    def sort_key(self, width: int):
        return (self.color == 0, -self.area, self.top * width + self.left, self.variant)


@dataclass
class GridIndex:
    """Per-grid candidate table, colour bitmasks and four memos.

    `layers` maps (layer template, diff budget, diff-location cost) to the
    layer's admitted candidates and their pieces (`_Layer`), each filled
    when a parse first needs it. With the grid, that key is every input of
    admission and of the pieces, so the memo holds for every parse of the
    grid. A candidate's bit in the walk's used-set is its place in
    `candidates`.

    `walks` maps (each layer's row-set key, `max_trees_before_sort`, diff
    budget, fixed background colour or None) to the walk's combinations,
    each with what its cost takes from the grid alone: its background and
    its delta (`_combos`). With the grid, that key is every input of the
    walk, so the walk runs once per row set per grid, and `parse` costs
    what it gets back under each template.

    `bg_terms` maps (size slot, colour slot, diff-location cost) to the
    size's and each background colour's pieces (`_size_and_bg_terms`), and
    `readings` an applied model to `read`'s readings of the grid under the
    config of the `Caches` that holds the index. No memo is part of the
    index's value: `dataclasses.replace` gives a derived index empty ones."""
    grid: Grid
    candidates: tuple
    color_cells: tuple  # bitmask per colour
    all_cells: int
    layers: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    walks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    bg_terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    readings: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _box_mask(top: int, left: int, h: int, w: int, width: int) -> int:
    """Bitmask of the h x w box at (top, left) in a grid of `width` columns:
    its row times the repunit that has one bit per grid row of the box."""
    repunit = ((1 << (h * width)) - 1) // ((1 << width) - 1)
    return (((1 << w) - 1) << left) * repunit << (top * width)


# the regular masks as terms, by name
_MASK_TERMS = {name: Ctor(name) for name in _REGULAR_MASKS}

# a point of each colour, the shape of every point candidate
_POINTS = tuple(point(c) for c in range(NUM_COLORS))


@lru_cache(maxsize=MAX_DIM * MAX_DIM)
def _regular_masks(h: int, w: int) -> tuple:
    """(term, cell count, bitmask) of each regular mask an h x w box can
    take, in recognition order, cell (i, j) of the box at bit i * w + j.
    The arrays come from `mask_array` uncached: this cache holds their
    bitmasks instead."""
    out = []
    for name in _REGULAR_MASKS:
        if name in ("PlusCross", "TimesCross") and (h % 2 == 0 or w % 2 == 0):
            continue
        a = mask_array.__wrapped__(name, h, w)
        bits = np.packbits(a, axis=None, bitorder="little").tobytes()
        out.append((_MASK_TERMS[name], int(a.sum()), int.from_bytes(bits, "little")))
    return tuple(out)


def recognize_mask(bits: int, top: int, left: int, h: int, w: int, width: int) -> Ctor:
    """Smallest regular mask equal to `bits`, the cells of the h x w box at
    (top, left) in a grid of `width` columns (bit i * width + j for cell
    (i, j) of the grid), else a bitmap. A kind is compared row by row, and
    only when its cell count is that of `bits`."""
    bits >>= top * width + left  # cell (i, j) of the box at bit i * width + j
    count, row = bits.bit_count(), (1 << w) - 1
    for term, kind_count, kind_bits in _regular_masks(h, w):
        if count == kind_count and all(
                (bits >> (i * width)) & row == (kind_bits >> (i * w)) & row for i in range(h)):
            return term
    n = h * width
    cells = np.unpackbits(np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), np.uint8),
                          count=n, bitorder="little")
    # rows of 0/1 ints, read in one call: already the bitmap's field
    return Ctor("Bitmap", (tuple(map(tuple, cells.reshape(h, width)[:, :w].tolist())),))


def _rect_candidates(color: int, top: int, left: int, h: int, w: int, bits: int,
                     area: int, width: int, color_cells, out: list) -> None:
    """The h x w box at (top, left) of a shape of `area` cells, its cells
    `bits`, as a full rectangle and, when the shape leaves holes in its box,
    as a rectangle with the shape's exact mask."""
    tl, size = _vec(top, left), _vec(h, w)
    box = _box_mask(top, left, h, w, width)
    out.append(Candidate(pos_shape(tl, rectangle(size, color, FULL)), box, h * w, color,
                         top, left, 0, box & ~color_cells[color]))
    if area < h * w:
        mask = recognize_mask(bits, top, left, h, w, width)
        out.append(Candidate(pos_shape(tl, rectangle(size, color, mask)), bits, area, color,
                             top, left, 1, 0))


def _union_candidates(group: list, width: int, color_cells, out: list) -> None:
    """Rectangles of each pair of same-colour parts whose union's box is at
    most four times their cells. The bound is tested on the two boxes."""
    for a, b in combinations(group, 2):
        top, left = min(a.top, b.top), min(a.left, b.left)
        h = max(a.top + a.height, b.top + b.height) - top
        w = max(a.left + a.width, b.left + b.width) - left
        area = a.area + b.area  # distinct parts share no cell
        if h * w > 4 * area:
            continue
        _rect_candidates(a.color, top, left, h, w, a.bits | b.bits, area, width,
                         color_cells, out)


def build_index(g: Grid) -> GridIndex:
    """Segment the grid and assemble its ranked candidate objects: each
    part's rectangles (points alone for a single cell), each same-colour
    pair's union rectangles when their box is at most four times their
    cells, and a point per cell of each part under five cells. Colour
    bitmasks, candidate cells and exact masks all come from the parts'
    bitmasks: no array is built per part or per union.

    Candidates with equal trees are kept once, the first made. They are
    told apart by (is a point, colour, cells), ints that are equal exactly
    when the trees are: a rectangle's box is its cells' bounding box, an
    exact mask is recognized from its cells alone, a full box and a holey
    mask never share cells, and the flag tells a point from a rectangle.
    Hashing these is cheaper than hashing the trees."""
    w = g.width
    parts = segment(g)
    color_cells = [0] * NUM_COLORS
    cands: list[Candidate] = []
    for p in parts:
        color_cells[p.color] |= p.bits
    for p in parts:
        if p.area > 1:
            _rect_candidates(p.color, p.top, p.left, p.height, p.width, p.bits, p.area, w,
                             color_cells, cands)
        if p.area < 5:
            # a point per set bit, lowest first: scanline order
            bits, shape = p.bits, _POINTS[p.color]
            while bits:
                low = bits & -bits
                i, j = divmod(low.bit_length() - 1, w)
                cands.append(Candidate(pos_shape(_vec(i, j), shape), low, 1, p.color,
                                       i, j, 2, 0))
                bits ^= low
    by_color: dict[int, list[Part]] = {}
    for p in parts:
        by_color.setdefault(p.color, []).append(p)
    for group in by_color.values():
        if len(group) <= _UNION_COLOR_LIMIT:
            _union_candidates(group, w, color_cells, cands)
    unique: dict = {}
    for cand in cands:
        unique.setdefault((cand.variant == 2, cand.color, cand.cells), cand)
    ranked = sorted(unique.values(), key=lambda c: c.sort_key(w))
    return GridIndex(g, tuple(ranked[:_MAX_CANDIDATES]), tuple(color_cells),
                     (1 << (g.height * w)) - 1)


# template matching with diffs

@lru_cache(maxsize=4096)
def _matcher(tmpl: Term):
    """The diffs turning a layer or size template, which has no list field,
    into a ground tree, as a function of the tree: one (path, subtree) diff
    per template leaf, bitmap or constructor the tree does not match, in
    field order; unknowns absorb anything, and an expression raises
    LangError. Compiled once per template and kept in a bounded
    process-wide cache: a fresh grid's candidates meet the same layer
    templates as every grid before it.

    The compiled form drops the template's unknowns and builds a diff's
    path only when it emits the diff."""
    return _compile(tmpl) or _match_any


def _match_any(tree: Term) -> tuple:
    return ()


def _compile(tmpl: Term):
    """The matcher of one template node, diff paths relative to the node;
    None for an unknown."""
    if isinstance(tmpl, Unknown):
        return None
    if lang.is_expr(tmpl):
        def expression(tree):
            raise lang.LangError("template still carries expressions")
        return expression
    if not isinstance(tmpl, Ctor) or tmpl.name == "Bitmap":
        # a leaf, or a bitmap, which matches only as a whole
        def leaf(tree):
            return () if tmpl == tree else (((), tree),)
        return leaf
    name = tmpl.name
    # (argument index, field, the field's matcher), unknowns left out
    plan = []
    for k, ((fname, _, _), ta) in enumerate(zip(lang.ctor_fields(name), tmpl.args)):
        m = _compile(ta)
        if m is not None:
            plan.append((k, fname, m))

    def node(tree):
        if not isinstance(tree, Ctor) or tree.name != name:
            return (((), tree),)
        args = tree.args
        out = ()
        for k, fname, sub in plan:
            d = sub(args[k])
            if d:
                out += tuple(((fname,) + p, t) for p, t in d)
        return out
    return node


# parsing proper

@dataclass
class _Layer:
    """A layer template's admitted candidates on one grid, in candidate
    order: each (candidate, diffs) pick; the walk's row for it, (bit of the
    candidate's place in the index, diff count, cells, wrong cells); its
    piece (`_piece`), filled when a combination first needs it; and the
    rows' key, (bitmask of the candidates' places, their diff counts), which
    with the index fixes every row."""
    template: Term
    picks: list
    rows: list
    pieces: list
    key: tuple

    def fill(self, i: int, dims: tuple[int, int], loc: float) -> tuple:
        """Compute and keep pick i's piece."""
        cand, diffs = self.picks[i]
        piece = self.pieces[i] = _piece(coding.slot_terms(self.template, cand.tree, diffs,
                                                          dims, loc, OBJECT))
        return piece


def _piece(terms: tuple) -> tuple:
    """A slot's `coding.slot_terms` and their pre-summed total, its part of
    a combination's selection key."""
    return terms, sum(terms[0]) + sum(terms[1])


def _admitted(index: GridIndex, tmpl: Term, budget: int, loc: float) -> _Layer:
    """The layer's admitted candidates, from the index's memo when an
    earlier parse of the grid met the same template, budget and `loc`."""
    key = (tmpl, budget, loc)
    layer = index.layers.get(key)
    if layer is None:
        match = _matcher(tmpl)
        picks, rows = [], []
        for pos, cand in enumerate(index.candidates):
            d = match(cand.tree)
            if len(d) <= budget:
                picks.append((cand, d))
                rows.append((1 << pos, len(d), cand.cells, cand.wrong))
                if len(picks) >= _MAX_PER_LAYER:
                    break
        rows_key = (sum(row[0] for row in rows), bytes(row[1] for row in rows))
        layer = index.layers[key] = _Layer(tmpl, picks, rows, [None] * len(picks), rows_key)
    return layer


def parse(applied: Term, g: Grid, caches: Caches) -> tuple[Reading, ...]:
    """All retained readings of `g` under an expression-free grid model,
    sorted by ascending description length, under the context's config and
    through the grid's index in it.

    A combination picks one admitted candidate per layer. `_walk` returns
    the first `max_trees_before_sort` that use no candidate twice and stay
    within the diff budget, by rank sum, then in lexicographic order of
    their ranks; fewer when `_MAX_STEPS` candidate tries are spent. The walk
    runs once per row set per grid for as long as the index lives
    (`_combos`), and each call costs what it gets back under its own
    template; the cheapest `max_trees_kept` become readings.

    A combination's cost is `coding.sum_terms` of the `coding.slot_terms`
    of the grid size, the background colour and each layer's candidate,
    plus the delta; only the kept readings are built. When the walk returns
    more combinations than are kept, each first gets a key: the same terms,
    each slot's pre-summed. Only those whose key is within a guard of the
    `max_trees_kept`-th smallest are summed exactly; as every term is >= 0,
    a key is off its exact sum by far less than the guard, so no skipped
    combination could have been kept, not even on a tie.

    Per grid, for as long as its index lives, the grid size and each
    background colour are costed once per model slots and diff-location
    cost (`_size_and_bg_terms`), a layer's admitted candidates and their
    pieces once, and a combination's background and delta once."""
    if not (isinstance(applied, Ctor) and applied.name == "Grid"):
        raise lang.LangError("parse needs a Grid model")
    h, w = g.height, g.width
    dims = (h, w)
    cfg, index = caches.cfg, caches.index(g)
    size_t, color_t, layer_ts = applied.args
    size = _vec(h, w)

    # diffs relative to the size slot
    size_diffs = _matcher(size_t)(size)
    n_size = len(size_diffs)
    if n_size > cfg.max_diffs:
        return ()
    budget = cfg.max_diffs - n_size

    loc = coding.l_uniform(lang.node_count(applied)) if cfg.max_diffs else 0.0

    layers = []
    for lt in layer_ts:
        layer = _admitted(index, lt, budget, loc)
        if not layer.picks:
            return ()
        layers.append(layer)

    # by background colour: the size's and the colour's pieces; each
    # candidate's piece when a combination first needs it
    bg_terms = index.bg_terms.setdefault((size_t, color_t, loc), {})
    fixed_bg = color_t if isinstance(color_t, int) else None
    combos = _combos(index, layers, cfg.max_trees_before_sort, budget, fixed_bg)
    for bg in {combo[2] for combo in combos}:
        if bg not in bg_terms:
            bg_terms[bg] = _size_and_bg_terms(size_t, size_diffs, color_t, bg, dims, loc)
    kept = cfg.max_trees_kept
    if len(combos) > kept:
        # a key adds the terms of the exact sum, each slot's pre-summed;
        # every term is >= 0, so the two differ by far less than the guard,
        # and a combination whose key is above the kept-th smallest key
        # plus the guard costs more than the kept-th cheapest: it is never
        # summed
        keys = []
        for ranks, n_diffs, bg, _, delta_cost in combos:
            size_piece, bg_piece = bg_terms[bg]
            key = size_piece[1] + bg_piece[1] + delta_cost
            for layer, i in zip(layers, ranks):
                key += (layer.pieces[i] or layer.fill(i, dims, loc))[1]
            if n_diffs or n_size:
                key += coding.l_nat(n_diffs + n_size)
            keys.append(key)
        top = sorted(keys)[kept - 1]
        bound = top + 1e-9 * (1 + abs(top))
        combos = [combo for combo, key in zip(combos, keys) if key <= bound]
    scored: list[tuple[float, tuple, int, int]] = []
    for ranks, n_diffs, bg, delta_mask, delta_cost in combos:
        size_piece, bg_piece = bg_terms[bg]
        terms = [size_piece[0], bg_piece[0]]
        for layer, i in zip(layers, ranks):
            terms.append((layer.pieces[i] or layer.fill(i, dims, loc))[0])
        dl = coding.sum_terms(n_diffs + n_size, terms) + delta_cost
        scored.append((dl, ranks, bg, delta_mask))

    # a stable sort: equal costs keep the order the walk met them in
    scored.sort(key=itemgetter(0))
    grid_diffs = tuple((("size",) + p, t) for p, t in size_diffs)
    readings = []
    for dl, ranks, bg, delta_mask in scored[:kept]:
        picks = [layer.picks[i] for layer, i in zip(layers, ranks)]
        diffs = grid_diffs + tuple((("layers", k) + p, t)
                                   for k, (_, d) in enumerate(picks) for p, t in d)
        tree = grid_term(size, bg, tuple(cand.tree for cand, _ in picks))
        readings.append(Reading(tree, g, delta_mask, diffs, dl))
    return tuple(readings)


def _size_and_bg_terms(size_t: Term, size_diffs: tuple, color_t: Term, bg: int,
                       dims: tuple[int, int], loc: float) -> tuple:
    """The pieces (`_piece`) of the grid size, with the diffs `size_t`
    leaves on it, and of background colour `bg` under the model's size and
    colour slots; kept in the index's `bg_terms`, every caller sharing the
    lists and only reading them."""
    size_terms = coding.slot_terms(size_t, _vec(*dims), size_diffs, dims, loc, VEC, "grid_size")
    return _piece(size_terms), _piece(coding.slot_terms(color_t, bg, (), dims, loc, COLOR, "bg"))


def _walk(rows: list, cap: int, budget: int) -> list:
    """The first `cap` combinations of one row per layer (`rows[d]` holds
    layer d's rows, each (bit, diff count, cells, wrong cells)) that use no
    bit twice and have at most `budget` diffs, by rank sum, then in
    lexicographic order of their ranks; fewer when the walk has made
    `_MAX_STEPS` candidate tries. Each comes as (ranks, diffs, covered,
    wrong): `covered` folds in each pick's cells, `wrong` each pick's wrong
    cells that earlier picks do not cover.

    Each rank sum is walked depth first, one try per pick checked. Rank i
    of layer d leaves `left - i` of the sum for the layers after it, which
    can take at most `room[d + 1]`. The walk's own loop places layer 0 for
    each sum, `visit` recurses through the middle layers, and `pair` places
    the last two in one loop, where the sum fixes the last layer's rank. A
    branch ends at the first reused bit or overrun budget.

    The state after a prefix, (depth, left, used, diffs), decides its every
    completion, so a state after two or more picks whose walk found nothing
    is skipped when met again. The rows' bits must be distinct within each
    layer, as `_admitted` builds them; then a state after one pick, (1, sum
    - i, bit of row i, diffs), is met once per walk and needs no memo."""
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
    first, pen, last, top_last = rows[0], rows[-2], rows[-1], room[L - 1]
    ranks = [0] * L
    out, dead, steps = [], set(), 0

    def pair(d: int, left: int, used: int, n: int, covered: int, wrong: int) -> bool:
        """Walk the picks of the last two layers (d is L - 2) with rank sum
        `left`, the step count held in a local; whether any was found."""
        nonlocal steps
        tries, found, spare = steps, False, budget - n
        lo = left - top_last if left > top_last else 0
        for i, (bit, nd, cells, wr) in enumerate(pen[lo:left + 1], lo):
            tries += 1
            if not used & bit and nd <= spare:
                tries += 1
                bit2, nd2, cells2, wr2 = last[left - i]
                if not (used | bit) & bit2 and nd + nd2 <= spare:
                    ranks[-2], ranks[-1] = i, left - i
                    covered_i = covered | cells
                    # most picks have no wrong cells: skip the complements
                    w = (wrong | (wr & ~covered)) if wr else wrong
                    if wr2:
                        w |= wr2 & ~covered_i
                    out.append((tuple(ranks), n + nd + nd2, covered_i | cells2, w))
                    found = True
                    if len(out) >= cap:
                        break
            if tries >= _MAX_STEPS:
                break
        steps = tries
        return found

    def visit(d: int, left: int, used: int, n: int, covered: int, wrong: int) -> bool:
        """Walk the picks of layers d.. (0 < d < L - 2) with rank sum `left`;
        whether any combination was found."""
        nonlocal steps
        found, spare = False, budget - n
        layer, below = rows[d], (pair if d + 1 == L - 2 else visit)
        lo = left - room[d + 1] if left > room[d + 1] else 0
        for i, (bit, nd, cells, wr) in enumerate(layer[lo:left + 1], lo):
            steps += 1
            if not used & bit and nd <= spare:
                ranks[d] = i
                state = (d + 1, left - i, used | bit, n + nd)
                if state not in dead:
                    if below(*state, covered | cells, (wrong | (wr & ~covered)) if wr else wrong):
                        found = True
                    else:
                        dead.add(state)
            if len(out) >= cap or steps >= _MAX_STEPS:
                break
        return found

    below = pair if L == 3 else visit
    for total in range(room[0] + 1):
        if L == 2:
            pair(0, total, 0, 0, 0, 0)
        else:
            lo = total - room[1] if total > room[1] else 0
            for i, (bit, nd, cells, wr) in enumerate(first[lo:total + 1], lo):
                steps += 1
                if nd <= budget:
                    ranks[0] = i
                    below(1, total - i, bit, nd, cells, wr)
                if len(out) >= cap or steps >= _MAX_STEPS:
                    break
        if len(out) >= cap or steps >= _MAX_STEPS:
            break
    # `visit` holds itself through its closure: break that cycle, so that
    # reference counting frees the walk's state
    visit = None
    return out


def _combos(index: GridIndex, layers: list, cap: int, budget: int,
            fixed_bg: int | None) -> tuple:
    """The walk's combinations of the layers' rows, each as (ranks, diffs,
    background, delta bitmask, delta cost), from the index's memo when an
    earlier parse of the grid walked the same row sets, cap, budget and
    background mode. The background is `fixed_bg`, or, when that is None,
    the one `_best_background` picks for the combination."""
    key = (tuple(layer.key for layer in layers), cap, budget, fixed_bg)
    combos = index.walks.get(key)
    if combos is None:
        all_cells, color_cells = index.all_cells, index.color_cells
        # black, and each colour the grid has: no other can be the best
        colours = [(c, cells) for c, cells in enumerate(color_cells) if cells or not c]
        delta_costs = _DeltaCosts((index.grid.height, index.grid.width))
        out = []
        for ranks, n_diffs, covered, wrong in _walk([layer.rows for layer in layers], cap, budget):
            uncovered = all_cells & ~covered
            bg = fixed_bg
            if bg is None:
                bg = _best_background(colours, uncovered, wrong, delta_costs)
            delta_mask = wrong | (uncovered & ~color_cells[bg])
            out.append((ranks, n_diffs, bg, delta_mask, delta_costs[delta_mask.bit_count()]))
        combos = index.walks[key] = tuple(out)
    return combos


class _DeltaCosts(dict):
    """`coding.l_delta` of n cells on a grid of `dims`, by n, each computed
    once."""

    def __init__(self, dims: tuple[int, int]):
        super().__init__()
        self.dims = dims

    def __missing__(self, n: int) -> float:
        cost = self[n] = coding.l_delta(range(n), self.dims)
        return cost


def _best_background(colours: list, uncovered: int, mismatch: int,
                     delta_costs: _DeltaCosts) -> int:
    """The background colour that minimises its prior plus the delta it
    leaves, among black and the colours of the uncovered cells; the
    smaller colour on ties. `colours` holds (colour, its cells' bitmask)
    in ascending colour order, black first; colour c leaves every
    mismatched cell and every uncovered cell not of colour c."""
    left = uncovered.bit_count() + mismatch.bit_count()
    best, best_c = None, 0
    for c, cells in colours:
        own = uncovered & cells
        if c and not own:
            continue
        cost = _BG_PRIOR[c] + delta_costs[left - own.bit_count()]
        if best is None or cost < best:
            best, best_c = cost, c
    return best_c


# reading models against grids

def read(m: Term, env: Term | None, g: Grid, caches: Caches) -> tuple[Reading, ...]:
    """Apply the model side to its environment and parse the grid.

    Returns no readings when the environment does not support the model's
    expressions (dangling variable, negative difference). Each model side
    and each of its layers is applied once per environment of the context
    (`lang.apply_model`), and each grid indexed once and parsed once per
    applied model under `caches.cfg`."""
    try:
        applied = lang.apply_model(m, env, caches.applied)
    except lang.LangError:
        return ()
    index = caches.index(g)
    hit = index.readings.get(applied)
    if hit is None:
        hit = index.readings[applied] = parse(applied, g, caches)
    return hit


def read_pair(model: Ctor, gi: Grid, go: Grid, caches: Caches) -> list[ReadingPair]:
    """Chained readings of one example, best combined cost first."""
    m_in, m_out = model.args
    pairs: list[ReadingPair] = []
    for rin in read(m_in, None, gi, caches):
        for rout in read(m_out, rin.tree, go, caches):
            pairs.append(ReadingPair(rin, rout, rin.dl + rout.dl))
    pairs.sort(key=lambda p: p.dl)
    return pairs
