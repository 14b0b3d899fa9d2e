"""Grids, cell deltas, segmentation into one-colour parts, and mask geometry."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

NUM_COLORS = 10
MAX_DIM = 30  # largest grid side ARC allows
_SEQS = (list, tuple)
_COLORS = frozenset(range(NUM_COLORS))


def is_color(c) -> bool:
    """Whether `c` is a colour: an int in 0..9. A bool is an int to Python,
    and 1.0 == 1, so the type is checked first. `Grid` checks its cells and
    `parsing.draw` the colours it paints by this one rule."""
    return type(c) is int and c in _COLORS


# a delta: its cells, each (row, column, colour of the target grid)
Delta = frozenset

# colour byte -> its digit's ASCII code, for `Grid.to_text`
_DIGITS = bytes.maketrans(bytes(range(NUM_COLORS)), b"0123456789")

# display palette, one RGB triple per colour
PALETTE = (
    (0, 0, 0), (0, 116, 217), (255, 65, 54), (46, 204, 64), (255, 220, 0),
    (170, 170, 170), (240, 18, 190), (255, 133, 27), (127, 219, 255), (133, 20, 75),
)


class GridError(Exception):
    """Malformed grid data or an inapplicable delta."""


class Grid:
    """Immutable ARC grid: 1..MAX_DIM rows of 1..MAX_DIM cells each, every
    cell an int colour in 0..9. Anything else is refused with a GridError,
    which names a bad cell as `[i][j]`.

    The cells are held as one `bytes` object, row-major, one byte per
    colour; `rows` and `array` are built from it on each access."""

    __slots__ = ("height", "width", "_cells", "_hash")

    def __init__(self, rows):
        if not (isinstance(rows, _SEQS) and rows):
            raise GridError("grid must be a non-empty list of rows")
        for i, row in enumerate(rows):
            if not isinstance(row, _SEQS):
                raise GridError(f"[{i}]: row is not a list of cells")
        h, w = len(rows), len(rows[0])
        if not w:
            raise GridError("empty grid")
        if set(map(len, rows)) != {w}:
            raise GridError("ragged grid")
        if h > MAX_DIM or w > MAX_DIM:
            raise GridError(f"grid size {h}x{w} exceeds {MAX_DIM}")
        cells = list(chain.from_iterable(rows))
        # types first, then distinct values; the scan names the first bad cell
        if set(map(type, cells)) != {int} or not all(map(is_color, set(cells))):
            i, j = divmod(next(k for k, c in enumerate(cells) if not is_color(c)), w)
            raise GridError(f"[{i}][{j}]: cell {rows[i][j]!r} is not a colour "
                            f"0-{NUM_COLORS - 1}")
        self._fill(bytes(cells), h, w)

    def _fill(self, cells: bytes, h: int, w: int) -> "Grid":
        """Set the fields of a grid of checked cells."""
        object.__setattr__(self, "height", h)
        object.__setattr__(self, "width", w)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_hash", hash(cells))
        return self

    def __setattr__(self, *a):
        raise AttributeError("grids are immutable")

    def __reduce__(self):
        # rebuild through __init__: slots plus frozen setattr defeat the default
        return (Grid, (self.rows,))

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The cells as a tuple of row tuples of ints; built on each call."""
        cells, w = self._cells, self.width
        return tuple(tuple(cells[k:k + w]) for k in range(0, len(cells), w))

    @property
    def array(self) -> np.ndarray:
        """Read-only numpy view of the cells; built on each call."""
        return np.frombuffer(self._cells, np.int8).reshape(self.height, self.width)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Grid":
        """The grid of a 2-D array of cells, refused as `Grid(arr.tolist())`
        refuses it. An integer array of colours 0..9 within the size limits
        is checked by numpy rather than cell by cell."""
        if not (arr.ndim == 2 and arr.dtype.kind in "iu" and 0 < arr.shape[0] <= MAX_DIM
                and 0 < arr.shape[1] <= MAX_DIM and arr.min() >= 0
                and arr.max() < NUM_COLORS):
            return cls(arr.tolist())
        return object.__new__(cls)._fill(arr.astype(np.uint8).tobytes(), *arr.shape)

    @property
    def size(self) -> tuple[int, int]:
        return self.height, self.width

    def __eq__(self, other):
        return (isinstance(other, Grid) and self.width == other.width
                and self._cells == other._cells)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Grid({self.height}x{self.width})"

    def to_text(self) -> str:
        """The rows as lines of colour digits."""
        text, w = self._cells.translate(_DIGITS).decode(), self.width
        return "\n".join(text[k:k + w] for k in range(0, len(text), w))


def delta_apply(base: Grid, delta: Delta) -> Grid:
    """Overwrite `base` cells with the delta's colours."""
    if not delta:
        return base
    h, w = base.size
    seen = set()
    cells = list(base._cells)
    for i, j, c in delta:
        if not (0 <= i < h and 0 <= j < w):
            raise GridError(f"delta cell out of bounds: {(i, j)}")
        if (i, j) in seen:
            raise GridError(f"duplicate delta cell: {(i, j)}")
        seen.add((i, j))
        cells[i * w + j] = c
    return Grid([cells[k:k + w] for k in range(0, h * w, w)])


@dataclass(frozen=True, eq=False, init=False)
class Part:
    """Maximal connected one-colour region: its colour, its box, its `area`
    (cell count), `mask`, the read-only boolean array of its cells over its
    box, and `bits`, the bitmask of its cells in its grid (bit `i * W + j`
    for cell (i, j) of a grid W columns wide).

    `cells`, the set of its (row, column) cells, is derived from the mask on
    each use. Parts compare and hash as the tuple (color, cells, top, left,
    height, width): the mask and the bits take part only through its cells."""
    color: int
    top: int
    left: int
    height: int
    width: int
    area: int
    mask: np.ndarray = field(repr=False)
    bits: int = field(repr=False)

    def __init__(self, color: int, top: int, left: int, height: int, width: int,
                 area: int, mask: np.ndarray, bits: int):
        # one update of the instance dict: a frozen dataclass's own __init__
        # pays an `object.__setattr__` per field
        self.__dict__.update(color=color, top=top, left=left, height=height,
                             width=width, area=area, mask=mask, bits=bits)

    @property
    def cells(self) -> frozenset:
        ii, jj = np.nonzero(self.mask)
        return frozenset(zip((ii + self.top).tolist(), (jj + self.left).tolist()))

    def _key(self) -> tuple:
        return (self.color, self.cells, self.top, self.left, self.height, self.width)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def segment(g: Grid) -> tuple[Part, ...]:
    """Split the grid into 4-connected one-colour parts, in scanline order of
    their first cell.

    Each row is cut into runs, maximal one-colour spans of cells, numbered
    in scanline order. Two like-coloured runs on neighbouring rows that
    share a column are linked once, at the column where their overlap
    begins, which is where one of the two starts. Each run hangs from the
    first run above it that it links to, which makes a forest at most h runs
    deep; squaring the parent array log2(h) times gives every run its tree's
    root. The links whose two runs still differ in root join two trees,
    where a part branches upward, and a union-find merges those roots, the
    later root pointing at the earlier one (fewer squarings would hand it
    more links, not change the parts). So a part's root is its first run,
    and the roots in increasing order are the parts in the order returned.
    Each cell is labelled with its part's root; boxes come from the runs'
    rows and end columns and areas from one `np.bincount` over the labels.
    One comparison of the labels with every root gives each part's cells
    over the whole grid: each mask is a read-only slice of it over the
    part's box, and one `np.packbits` of it gives every part's bits."""
    arr = g.array
    h, w = arr.shape
    cells = arr.ravel()
    # a run starts each row and each change of colour; the start past the
    # last cell ends the last run
    start = np.ones(h * w + 1, dtype=bool)
    np.not_equal(cells[1:], cells[:-1], out=start[1:-1])
    start[:-1:w] = True
    edges = np.flatnonzero(start)  # each run's first cell, then h * w
    n = len(edges) - 1
    start = start[:-1].reshape(h, w)
    runs = start.cumsum().reshape(h, w)  # each cell's run
    runs -= 1
    link = arr[1:] == arr[:-1]
    link &= start[1:] | start[:-1]
    above, below = runs[:-1][link], runs[1:][link]
    root = np.arange(n)
    np.minimum.at(root, below, above)  # each run's first link up
    for _ in range((h - 1).bit_length()):  # 2 ** k links up at step k
        root = root[root]
    ra, rb = root[above], root[below]
    joins = ra != rb
    if joins.any():
        root = _join(root, ra[joins].tolist(), rb[joins].tolist())
    labels = root[runs]
    rows, firsts = np.divmod(edges[:-1], w)
    lasts = (edges[1:] - 1) % w  # each run's last column
    bottom = np.zeros(n, dtype=rows.dtype)
    np.maximum.at(bottom, root, rows)
    left = np.full(n, w, dtype=firsts.dtype)
    np.minimum.at(left, root, firsts)
    right = np.zeros(n, dtype=lasts.dtype)
    np.maximum.at(right, root, lasts)
    areas = np.bincount(labels.ravel(), minlength=n)
    roots = np.flatnonzero(root == np.arange(n))
    owned = labels == roots.reshape(-1, 1, 1)  # each part's cells, one plane per part
    owned.setflags(write=False)
    packed = np.packbits(owned.reshape(len(roots), -1), axis=1, bitorder="little")
    stride, packed = packed.shape[1], packed.tobytes()
    parts = []
    for k, (color, top, lo, hi, bot, area) in enumerate(zip(
            cells[edges[roots]].tolist(), rows[roots].tolist(), left[roots].tolist(),
            right[roots].tolist(), bottom[roots].tolist(), areas[roots].tolist())):
        bits = int.from_bytes(packed[k * stride:(k + 1) * stride], "little")
        parts.append(Part(color, top, lo, bot - top + 1, hi - lo + 1, area,
                          owned[k, top:bot + 1, lo:hi + 1], bits))
    return tuple(parts)


def _join(root: np.ndarray, xs: list, ys: list) -> np.ndarray:
    """`root` after merging the trees of roots xs[k] and ys[k] for each k:
    a union-find over the roots it meets, with path halving, in which the
    later of two roots points at the earlier one."""
    up = {}
    for x, y in zip(xs, ys):
        while x in up:
            up[x] = x = up.get(up[x], up[x])
        while y in up:
            up[y] = y = up.get(up[y], up[y])
        if x != y:
            up[max(x, y)] = min(x, y)
    for x in sorted(up):  # a root's parent is earlier, so resolved first
        up[x] = up.get(up[x], up[x])
    final = np.arange(len(root))
    final[list(up)] = list(up.values())
    return final[root]


def check_bitmap(bits, h: int, w: int) -> None:
    """Refuse, with a GridError, bitmap cells that are not h rows of w
    cells, each the int 0 or 1 (not a bool, not a float)."""
    if not (isinstance(bits, tuple) and len(bits) == h
            and all(isinstance(row, tuple) and len(row) == w for row in bits)):
        raise GridError(f"bitmap is not {h} rows of {w} cells")
    for i, row in enumerate(bits):
        for j, c in enumerate(row):
            if type(c) is not int or c not in (0, 1):
                raise GridError(f"bitmap cell [{i}][{j}] {c!r} is not 0 or 1")


@lru_cache(maxsize=4096)
def mask_array(kind: str, h: int, w: int, bits=None) -> np.ndarray:
    """Boolean cell array of a mask; cached, read-only. A bitmap's `bits`
    are checked by `check_bitmap` when first met. The cache keys them by
    value, where True == 1 == 1.0, so a caller that must refuse a bool or
    float cell checks each bitmap itself."""
    if kind == "Bitmap":
        check_bitmap(bits, h, w)
        a = np.array(bits, dtype=bool)
    elif kind == "Full":
        a = np.ones((h, w), dtype=bool)
    else:
        ii, jj = np.indices((h, w))
        if kind == "Border":
            a = (ii == 0) | (ii == h - 1) | (jj == 0) | (jj == w - 1)
        elif kind == "EvenCheckboard":
            a = (ii + jj) % 2 == 0
        elif kind == "OddCheckboard":
            a = (ii + jj) % 2 == 1
        elif kind == "PlusCross":
            a = (ii == h // 2) | (jj == w // 2)
        elif kind == "TimesCross":
            a = (ii == jj) | (ii + jj == w - 1)
        else:
            raise GridError(f"unknown mask kind {kind!r}")
    a.setflags(write=False)
    return a


def render_ppm(g: Grid, cell: int = 12) -> bytes:
    """Binary PPM image of the grid, `cell` pixels per grid cell."""
    arr = g.array
    rgb = np.array(PALETTE, dtype=np.uint8)[arr]
    img = np.repeat(np.repeat(rgb, cell, axis=0), cell, axis=1)
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    return header + img.tobytes()
