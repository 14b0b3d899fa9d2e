"""Seeded, offline workload inputs: the fixed task suite and ARC-scale tasks.

Every generated output is built twice, once directly from the sampled scene
and once as `parsing.write` of the family's output model on the input tree;
the two must agree, and every grid must fit `tasks.MAX_DIM`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from gridmdl import lang, parsing, tasks
from gridmdl.grids import Grid
from gridmdl.lang import App, Var


class GeneratorError(Exception):
    """A generated task failed its self-check."""


@dataclass(frozen=True)
class FamilySpec:
    """Scene shape of one ARC-style family.

    A scene holds `objects` non-touching full rectangles (the first one is
    the target, bigger than the rest) plus `noise` single cells on a black
    grid with sides in `side`.
    """
    side: tuple
    objects: int
    noise: int
    target: tuple   # side range of the target rectangle
    other: tuple    # side range of every other rectangle
    distinct: bool  # all objects differently coloured


# Shapes are fixed in advance and kept well inside the 30 s learning budget
# of `SearchConfig()`: a 6-object 24x24 identity task took 9-31 s to learn
# when this benchmark was written, and each added object multiplies the cost
# of a task whose output copies every object. So identity and translate keep
# to 3 objects on sides of 16-20, while crop and recolour, whose outputs
# depend on the target alone, carry 10-12 objects and noise on sides up to 30
# (the ARC limit). Counts are fixed rather than drawn, because a drawn count
# is the largest source of cost spread between seeds.
FAMILIES = {
    "identity": FamilySpec(side=(16, 20), objects=3, noise=0,
                           target=(2, 4), other=(2, 4), distinct=True),
    "translate": FamilySpec(side=(16, 20), objects=3, noise=0,
                            target=(2, 4), other=(2, 4), distinct=True),
    "crop": FamilySpec(side=(20, 30), objects=10, noise=4,
                       target=(5, 7), other=(2, 3), distinct=False),
    "recolour": FamilySpec(side=(24, 30), objects=12, noise=4,
                           target=(5, 7), other=(2, 3), distinct=False),
    "size": FamilySpec(side=(16, 24), objects=2, noise=0,
                       target=(4, 6), other=(2, 3), distinct=True),
}


@dataclass(frozen=True)
class Rule:
    """One task's rule: its family plus the constants every pair shares
    (a shift, a new colour, or a frame colour)."""
    family: str
    params: tuple = ()

    @property
    def spec(self) -> FamilySpec:
        return FAMILIES[self.family]

    def get(self, key: str, default=None):
        return dict(self.params).get(key, default)

    def recoloured(self, colours: tuple) -> "Rule":
        return Rule(self.family, tuple((k, colours[v] if k in ("colour", "frame") else v)
                                       for k, v in self.params))


IDENTITY = tuple(range(10))


def _v(*path) -> Var:
    return Var(tuple(path))


def output_model(rule: Rule):
    """Output side of the rule's model, over the input trees of `sample_scene`."""
    k = rule.spec.objects
    if rule.family == "identity":
        return lang.grid(_v("size"), _v("color"), tuple(_v("layers", n) for n in range(k)))
    if rule.family == "translate":
        di, dj = rule.get("shift")
        return lang.grid(_v("size"), _v("color"), tuple(
            lang.pos_shape(lang.vec(App("plus", (_v("layers", n, "pos", "i"), di)),
                                    App("plus", (_v("layers", n, "pos", "j"), dj))),
                           _v("layers", n, "shape"))
            for n in range(k)))
    if rule.family == "crop":
        return lang.grid(_v("layers", 0, "shape", "size"), _v("layers", 0, "shape", "color"), ())
    if rule.family == "recolour":
        return lang.grid(_v("size"), _v("color"), (
            lang.pos_shape(_v("layers", 0, "pos"),
                           lang.rectangle(_v("layers", 0, "shape", "size"),
                                          rule.get("colour"), lang.FULL)),))
    if rule.family == "size":
        return lang.grid(
            lang.vec(App("plus", (_v("layers", 0, "shape", "size", "i"), 2)),
                     App("plus", (_v("layers", 0, "shape", "size", "j"), 2))),
            rule.get("frame"),
            (lang.pos_shape(lang.vec(1, 1), _v("layers", 0, "shape")),))
    raise ValueError(f"unknown family {rule.family!r}")


def _direct_output(rule: Rule, rects: list, h: int, w: int) -> Grid:
    """The rule's output built from the sampled rectangles with numpy alone."""
    ti, tj, th, tw, tc = rects[0]
    if rule.family == "identity":
        arr = np.zeros((h, w), dtype=np.int8)
        for i, j, rh, rw, c in rects:
            arr[i:i + rh, j:j + rw] = c
    elif rule.family == "translate":
        di, dj = rule.get("shift")
        arr = np.zeros((h, w), dtype=np.int8)
        for i, j, rh, rw, c in rects:
            arr[i + di:i + di + rh, j + dj:j + dj + rw] = c
    elif rule.family == "crop":
        arr = np.full((th, tw), tc, dtype=np.int8)
    elif rule.family == "recolour":
        arr = np.zeros((h, w), dtype=np.int8)
        arr[ti:ti + th, tj:tj + tw] = rule.get("colour")
    elif rule.family == "size":
        arr = np.full((th + 2, tw + 2), rule.get("frame"), dtype=np.int8)
        arr[1:1 + th, 1:1 + tw] = tc
    else:
        raise ValueError(f"unknown family {rule.family!r}")
    return Grid.from_array(arr)


def _place(rng: random.Random, occ: np.ndarray, h: int, w: int, margin: int):
    """Mark and return a free spot for an h x w box, or None. A one-cell gap
    keeps boxes from touching, so each stays one part; `margin` keeps room
    for a later shift down and right."""
    gh, gw = occ.shape
    for _ in range(200):
        i = rng.randint(0, gh - h - margin)
        j = rng.randint(0, gw - w - margin)
        if not occ[max(i - 1, 0):i + h + 1, max(j - 1, 0):j + w + 1].any():
            occ[i:i + h, j:j + w] = True
            return i, j
    return None


def sample_scene(rng: random.Random, rule: Rule, colours: tuple = IDENTITY):
    """An input tree of the rule's family, and its rectangles as
    (top, left, height, width, colour) with the target first. Colour c is
    drawn as `colours[c]`."""
    spec = rule.spec
    margin = max(rule.get("shift", (0, 0)))
    reserved = {rule.get("colour"), rule.get("frame")}
    while True:
        h, w = rng.randint(*spec.side), rng.randint(*spec.side)
        occ = np.zeros((h, w), dtype=bool)
        palette = [c for c in range(1, 10) if c not in reserved]
        rng.shuffle(palette)
        rects, noise = [], []
        for n in range(spec.objects):
            lo, hi = spec.target if n == 0 else spec.other
            rh, rw = rng.randint(lo, hi), rng.randint(lo, hi)
            spot = _place(rng, occ, rh, rw, margin)
            if spot is None:
                break
            # without `distinct`, colours repeat, but never the target's
            c = palette[n] if spec.distinct or n == 0 else rng.choice(palette[1:])
            rects.append((*spot, rh, rw, colours[c]))
        for _ in range(spec.noise):
            spot = _place(rng, occ, 1, 1, 0)
            if spot is None:
                break
            noise.append((*spot, colours[rng.choice(palette[1:])]))
        if len(rects) < spec.objects or len(noise) < spec.noise:
            continue
        layers = tuple(lang.pos_shape(lang.vec(i, j),
                                      lang.rectangle(lang.vec(rh, rw), c, lang.FULL))
                       for i, j, rh, rw, c in rects)
        layers += tuple(lang.pos_shape(lang.vec(i, j), lang.point(c)) for i, j, c in noise)
        return lang.grid(lang.vec(h, w), 0, layers), rects


def rule_pair(rng: random.Random, rule: Rule, colours: tuple = IDENTITY) -> tuple[Grid, Grid]:
    """One (input, output) pair of the rule, drawn through the colour map and
    checked against its model."""
    tree, rects = sample_scene(rng, rule, colours)
    rule = rule.recoloured(colours)
    gin = parsing.draw(tree)
    _, gout = parsing.write(output_model(rule), tree)
    if gout != _direct_output(rule, rects, gin.height, gin.width):
        raise GeneratorError(f"{rule.family}: model output differs from the direct output")
    for g in (gin, gout):
        if g.height > tasks.MAX_DIM or g.width > tasks.MAX_DIM:
            raise GeneratorError(f"{rule.family}: grid {g.height}x{g.width} exceeds {tasks.MAX_DIM}")
    return gin, gout


def sample_rule(rng: random.Random, family: str) -> Rule:
    if family == "translate":
        return Rule(family, (("shift", (rng.randint(1, 2), rng.randint(1, 2))),))
    if family == "recolour":
        return Rule(family, (("colour", rng.randint(1, 9)),))
    if family == "size":
        return Rule(family, (("frame", rng.randint(1, 9)),))
    return Rule(family)


def rule_task(rng: random.Random, rule: Rule, task_id: str, colours: tuple = IDENTITY,
              n_train: int = 3, n_test: int = 1) -> tasks.Task:
    ex = [tasks.Example(*rule_pair(rng, rule, colours)) for _ in range(n_train + n_test)]
    return tasks.Task(task_id, tuple(ex[:n_train]), tuple(ex[n_train:]))


ARC_FAMILIES = tuple(FAMILIES)


def family_rng(tag: str, seed: int, family: str, n: int) -> random.Random:
    """An independent stream per (purpose, seed, family, index)."""
    return random.Random(f"{tag}:{seed}:{family}:{n}")


def colour_map(seed: int) -> tuple:
    """A seeded permutation of the colours 1-9; black stays black."""
    perm = list(range(1, 10))
    random.Random(f"colours:{seed}").shuffle(perm)
    return (0, *perm)


# How long a task takes to learn depends on its layout far more than on its
# colours: when this benchmark was written, tasks of one family took from 1 s
# to 10 s, so a pass of ten freshly drawn tasks varied by a quarter between
# seeds. The layouts therefore come from one fixed bank and the run's seed
# recolours them. Colour costs are uniform apart from black, so every seed
# asks for about the same search, while the grids, and so the fingerprint,
# change.
BANK_SEED = 0


def arc_tasks(seed: int) -> list[tasks.Task]:
    """The bank task of every family, recoloured by the seed; 3 train pairs
    and 1 test pair each."""
    colours = colour_map(seed)
    out = []
    for family in ARC_FAMILIES:
        rng = family_rng("arc", BANK_SEED, family, 0)
        out.append(rule_task(rng, sample_rule(rng, family), family, colours))
    return out


# the fixed suite: the nested-rectangles task and ten small synthetic tasks,
# copied from the repository's test fixtures rather than imported, so that a
# change to the tests cannot change the benchmark's inputs

def _g(size, color, layers=()):
    return parsing.draw(lang.grid(lang.vec(*size), color, tuple(layers)))


def _pt(pos, color):
    return lang.pos_shape(lang.vec(*pos), lang.point(color))


def _rect(pos, size, color, mask=lang.FULL):
    return lang.pos_shape(lang.vec(*pos), lang.rectangle(lang.vec(*size), color, mask))


def _nested(outer_color, inner_color, h, w, outer_pos, outer_size, inner_pos, inner_size):
    gin = _g((h, w), 0, [_rect(inner_pos, inner_size, inner_color),
                         _rect(outer_pos, outer_size, outer_color)])
    rel = (inner_pos[0] - outer_pos[0], inner_pos[1] - outer_pos[1])
    gout = _g(outer_size, inner_color, [_rect(rel, inner_size, outer_color)])
    return gin, gout


def suite_tasks() -> list[tasks.Task]:
    """The nested task and the synthetic suite of the repository's tests,
    each synthetic task with one held-out pair that follows its rule."""
    nested = [
        _nested(2, 4, 12, 13, (1, 3), (4, 4), (2, 4), (2, 2)),
        _nested(3, 6, 12, 11, (4, 2), (6, 6), (6, 4), (2, 2)),
        _nested(8, 2, 12, 15, (3, 5), (7, 7), (5, 8), (3, 3)),
        _nested(3, 8, 14, 14, (1, 2), (6, 6), (3, 4), (2, 2)),
    ]
    ident = [_g((6, 6), 0, [_rect(pos, size, c)])
             for pos, size, c in (((0, 0), (2, 2), 2), ((2, 3), (3, 2), 3),
                                  ((1, 1), (2, 4), 8), ((3, 0), (2, 3), 4))]
    pairs = {
        "nested": nested,
        "recolour-yellow": [(_g((3, 4), 1), _g((3, 4), 4)), (_g((5, 3), 2), _g((5, 3), 4)),
                            (_g((4, 4), 3), _g((4, 4), 4)), (_g((2, 6), 7), _g((2, 6), 4))],
        "point-right": [(_g((5, 5), 0, [_pt(a, 2)]), _g((5, 5), 0, [_pt(b, 2)]))
                        for a, b in (((1, 1), (1, 2)), ((3, 2), (3, 3)), ((2, 0), (2, 1)),
                                     ((4, 3), (4, 4)))],
        "point-colour": [(_g((4, 4), 0, [_pt(p, c)]), _g((1, 1), c))
                         for p, c in (((2, 1), 3), ((0, 3), 6), ((3, 0), 7), ((1, 2), 9))],
        "rect-extent": [(_g((6, 6), 0, [_rect(p, s, c)]), _g(s, c))
                        for p, s, c in (((1, 1), (2, 3), 5), ((2, 2), (3, 2), 6),
                                        ((0, 1), (4, 4), 1), ((3, 1), (2, 4), 2))],
        "identity": [(g, g) for g in ident],
        "nested-small": [
            (_g((7, 7), 0, [_rect((2, 2), (1, 1), 4), _rect((1, 1), (3, 3), 2)]),
             _g((3, 3), 4, [_rect((1, 1), (1, 1), 2)])),
            (_g((7, 8), 0, [_rect((3, 4), (1, 1), 6), _rect((2, 3), (3, 3), 3)]),
             _g((3, 3), 6, [_rect((1, 1), (1, 1), 3)])),
            (_g((7, 7), 0, [_rect((3, 3), (1, 1), 7), _rect((2, 2), (3, 3), 1)]),
             _g((3, 3), 7, [_rect((1, 1), (1, 1), 1)])),
        ],
        "row-grows": [(_g((1, n), 5), _g((1, n + 1), 5)) for n in (3, 5, 2, 4)],
        "point-difference": [
            (_g((6, 6), 0, [_pt((4, 5), 3), _pt((1, 2), 5)]), _g((6, 6), 0, [_pt((3, 3), 3)])),
            (_g((6, 6), 0, [_pt((5, 4), 3), _pt((2, 1), 5)]), _g((6, 6), 0, [_pt((3, 3), 3)])),
            (_g((6, 6), 0, [_pt((5, 5), 3), _pt((2, 2), 5)]), _g((6, 6), 0, [_pt((3, 3), 3)])),
        ],
        "noise-extent": [(_g((6, 6), 0, [_rect(p, (3, 3), 6), _pt(q, 7)]), _g((3, 3), 6))
                         for p, q in (((1, 1), (5, 5)), ((2, 0), (0, 5)), ((0, 2), (5, 0)),
                                      ((2, 2), (0, 0)))],
        "checker-solid": [(_g((6, 6), 0, [_rect(p, (3, 3), 8, lang.EVEN_CHECKBOARD)]), _g((3, 3), 8))
                          for p in ((1, 1), (2, 2), (0, 0), (1, 2))],
    }
    out = []
    for name, ps in pairs.items():
        ex = [tasks.Example(gi, go) for gi, go in ps]
        out.append(tasks.Task(name, tuple(ex[:-1]), tuple(ex[-1:])))
    return out
