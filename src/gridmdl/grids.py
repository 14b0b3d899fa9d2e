"""Grids, cell deltas, segmentation into one-colour parts, and mask geometry."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np
from scipy import ndimage

NUM_COLORS = 10
MAX_DIM = 30  # largest grid side ARC allows
_COLORS = frozenset(range(NUM_COLORS))
_SEQS = (list, tuple)

# cell of a delta: (row, column, colour of the target grid)
DeltaCell = tuple[int, int, int]
Delta = frozenset

# colour byte -> its digit's ASCII code, for `Grid.to_text`
_DIGITS = bytes.maketrans(bytes(range(NUM_COLORS)), b"0123456789")

_STRUCT4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

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
    which names a bad cell as `[i][j]`."""

    __slots__ = ("height", "width", "rows", "_arr", "_hash")

    def __init__(self, rows):
        if not (isinstance(rows, _SEQS) and rows):
            raise GridError("grid must be a non-empty list of rows")
        for i, row in enumerate(rows):
            if not isinstance(row, _SEQS):
                raise GridError(f"[{i}]: row is not a list of cells")
        rows = tuple(map(tuple, rows))
        h, w = len(rows), len(rows[0])
        if not w:
            raise GridError("empty grid")
        if set(map(len, rows)) != {w}:
            raise GridError("ragged grid")
        if h > MAX_DIM or w > MAX_DIM:
            raise GridError(f"grid size {h}x{w} exceeds {MAX_DIM}")
        cells = list(chain.from_iterable(rows))
        # a bool is an int to Python, and 1.0 == 1, so types are checked first
        if set(map(type, cells)) != {int} or not _COLORS.issuperset(cells):
            i, j = divmod(next(k for k, c in enumerate(cells)
                               if type(c) is not int or c not in _COLORS), w)
            raise GridError(f"[{i}][{j}]: cell {rows[i][j]!r} is not a colour "
                            f"0-{NUM_COLORS - 1}")
        self._fill(rows, h, w)

    def _fill(self, rows: tuple, h: int, w: int) -> "Grid":
        """Set the fields of a grid of checked rows."""
        object.__setattr__(self, "height", h)
        object.__setattr__(self, "width", w)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_arr", None)
        object.__setattr__(self, "_hash", hash(rows))
        return self

    def __setattr__(self, *a):
        raise AttributeError("grids are immutable")

    def __reduce__(self):
        # rebuild through __init__: slots plus frozen setattr defeat the default
        return (Grid, (self.rows,))

    @property
    def array(self) -> np.ndarray:
        """Read-only numpy view of the cells."""
        if self._arr is None:
            a = np.array(self.rows, dtype=np.int8)
            a.setflags(write=False)
            object.__setattr__(self, "_arr", a)
        return self._arr

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Grid":
        """The grid of a 2-D array of cells, refused as `Grid(arr.tolist())`
        refuses it. An integer array of colours 0..9 within the size limits
        is checked by numpy rather than cell by cell."""
        if not (arr.ndim == 2 and arr.dtype.kind in "iu" and 0 < arr.shape[0] <= MAX_DIM
                and 0 < arr.shape[1] <= MAX_DIM and arr.min() >= 0
                and arr.max() < NUM_COLORS):
            return cls(arr.tolist())
        return object.__new__(cls)._fill(tuple(map(tuple, arr.tolist())), *arr.shape)

    @property
    def size(self) -> tuple[int, int]:
        return self.height, self.width

    def __eq__(self, other):
        return isinstance(other, Grid) and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Grid({self.height}x{self.width})"

    def to_text(self) -> str:
        """The rows as lines of colour digits."""
        return "\n".join(bytes(row).translate(_DIGITS).decode() for row in self.rows)


def delta_apply(base: Grid, delta: Delta) -> Grid:
    """Overwrite `base` cells with the delta's colours."""
    if not delta:
        return base
    h, w = base.size
    seen = set()
    rows = [list(r) for r in base.rows]
    for i, j, c in delta:
        if not (0 <= i < h and 0 <= j < w):
            raise GridError(f"delta cell out of bounds: {(i, j)}")
        if (i, j) in seen:
            raise GridError(f"duplicate delta cell: {(i, j)}")
        seen.add((i, j))
        rows[i][j] = c
    return Grid(rows)


@dataclass(frozen=True, eq=False, init=False)
class Part:
    """Maximal connected one-colour region: its colour, its box, its `area`
    (cell count) and `mask`, the read-only boolean array of its cells over
    its box.

    `cells`, the set of its (row, column) cells, is derived from the mask on
    each use. Parts compare and hash as the tuple (color, cells, top, left,
    height, width): the mask takes part only through its cells."""
    color: int
    top: int
    left: int
    height: int
    width: int
    area: int
    mask: np.ndarray = field(repr=False)

    def __init__(self, color: int, top: int, left: int, height: int, width: int,
                 area: int, mask: np.ndarray):
        # one update of the instance dict: a frozen dataclass's own __init__
        # pays an `object.__setattr__` per field
        self.__dict__.update(color=color, top=top, left=left, height=height,
                             width=width, area=area, mask=mask)

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

    One labelling covers every colour. It runs on a lattice of twice the
    grid's resolution: cell (i, j) sits at (2i, 2j), and the point between
    two neighbouring cells is set when their colours are equal. The points
    between diagonal neighbours are never set, so two cells are 4-connected
    on the lattice exactly when a one-colour 4-connected path joins them in
    the grid. Each part's area comes from one `np.bincount` over the cells'
    labels; its mask is cut from its box, and its first cell, whose colour
    is the part's, is the first set cell of the mask's top row. The parts,
    not the cells, are then sorted by that cell."""
    arr = g.array
    h, w = arr.shape
    lattice = np.zeros((2 * h - 1, 2 * w - 1), dtype=bool)
    lattice[::2, ::2] = True
    lattice[::2, 1::2] = arr[:, :-1] == arr[:, 1:]
    lattice[1::2, ::2] = arr[:-1] == arr[1:]
    labels, _ = ndimage.label(lattice, structure=_STRUCT4)
    boxes = ndimage.find_objects(labels)
    labels = labels[::2, ::2]  # the cells' labels
    areas = np.bincount(labels.ravel()).tolist()
    rows = g.rows
    firsts, parts = [], []
    for k, (rs, cs) in enumerate(boxes, 1):
        # a part's lattice box starts and ends on cells, at even points
        top, left = rs.start // 2, cs.start // 2
        mask = labels[top:(rs.stop + 1) // 2, left:(cs.stop + 1) // 2] == k
        mask.setflags(write=False)
        first = left + int(mask[0].argmax())
        firsts.append(top * w + first)
        parts.append(Part(rows[top][first], top, left, *mask.shape, areas[k], mask))
    return tuple(parts[k] for k in sorted(range(len(parts)), key=firsts.__getitem__))


@lru_cache(maxsize=4096)
def mask_array(kind: str, h: int, w: int, bits=None) -> np.ndarray:
    """Boolean cell array of a mask; cached, read-only."""
    if kind == "Bitmap":
        a = np.array(bits, dtype=bool)
        if a.shape != (h, w):
            raise GridError("bitmap size mismatch")
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
