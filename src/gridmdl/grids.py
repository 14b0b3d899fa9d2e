"""Grids, cell deltas, segmentation into one-colour parts, and mask geometry."""

from __future__ import annotations

from dataclasses import dataclass
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
        object.__setattr__(self, "height", h)
        object.__setattr__(self, "width", w)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_arr", None)
        object.__setattr__(self, "_hash", hash(rows))

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
        return cls(arr.tolist())

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
        return "\n".join("".join(str(c) for c in row) for row in self.rows)


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


@dataclass(frozen=True)
class Part:
    """Maximal connected one-colour region."""
    color: int
    cells: frozenset
    top: int
    left: int
    height: int
    width: int

    @property
    def area(self) -> int:
        return len(self.cells)


def part_from_cells(color: int, cells) -> Part:
    cells = frozenset(cells)
    if not cells:
        raise GridError("empty part")
    top = min(i for i, _ in cells)
    left = min(j for _, j in cells)
    bottom = max(i for i, _ in cells)
    right = max(j for _, j in cells)
    return Part(color, cells, top, left, bottom - top + 1, right - left + 1)


def segment(g: Grid) -> tuple[Part, ...]:
    """Split the grid into 4-connected one-colour parts, in scanline order of
    their first cell."""
    arr = g.array
    keyed = []
    for c in np.unique(arr):
        labels, _ = ndimage.label(arr == c, structure=_STRUCT4)
        for k, box in enumerate(ndimage.find_objects(labels), start=1):
            rows, cols = box
            ii, jj = np.nonzero(labels[box] == k)  # row-major: first cell first
            ii, jj = (ii + rows.start).tolist(), (jj + cols.start).tolist()
            part = Part(int(c), frozenset(zip(ii, jj)), rows.start, cols.start,
                        rows.stop - rows.start, cols.stop - cols.start)
            keyed.append((ii[0] * g.width + jj[0], part))
    keyed.sort(key=lambda kp: kp[0])
    return tuple(p for _, p in keyed)


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
