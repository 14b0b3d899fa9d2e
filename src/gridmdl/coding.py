"""Description lengths, in bits, for models, parse trees, deltas and tasks.

Two-part scores throughout: L(M, D) = L(M) + alpha * sum over examples of the
best chained reading cost. Normalized description lengths divide each side by
the initial model's score so that the initial model always sits at 2.000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Sequence

from . import lang
from .grids import MAX_DIM, NUM_COLORS
from .lang import App, Ctor, Term, Unknown, Var, BITS, COLOR, GRID, MASK, NAT, SHAPE

LOG2_COLORS = math.log2(NUM_COLORS)

# slot kind: plain value or constructor / expression / unknown
P_TEMPLATE = {"value": 0.4, "expr": 0.5, "unknown": 0.1}
# expression kind
P_EXPR = {"app": 0.5, "var": 0.5}
FUNCTIONS = ("zero", "plus", "minus")
# background colours are mostly black
P_BG = {c: (0.91 if c == 0 else 0.01) for c in range(NUM_COLORS)}
P_MASK = {
    "Full": 0.5, "Bitmap": 0.3, "Border": 0.1,
    "EvenCheckboard": 0.025, "OddCheckboard": 0.025,
    "PlusCross": 0.025, "TimesCross": 0.025,
}
P_SHAPE = {"Point": 0.5, "Rectangle": 0.5}


# weight of the data bits against the model bits
ALPHA = 10.0


class ModelEvalError(Exception):
    """A model failed to describe some example (no reading)."""


class NotCompressive(ModelEvalError):
    """A bounded evaluation stopped: the examples read so far already score
    at least the bound, so the whole task would too."""


def l_nat(n: int) -> float:
    """Universal code for naturals: 2*log2(n+1) + 1 bits."""
    if n < 0:
        raise ValueError("naturals only")
    return 2.0 * math.log2(n + 1) + 1.0

def l_uniform(size: int) -> float:
    """Uniform code over a finite set of the given size."""
    if size < 1:
        raise ValueError("empty support")
    return math.log2(size)

def l_dist(p: float) -> float:
    """Optimal code length for probability p."""
    if not 0.0 < p <= 1.0:
        raise ValueError("probability out of range")
    return -math.log2(p)

def l_position(extent: int | None) -> float:
    """Uniform code for one position component; MAX_DIM stands in for unknown extents."""
    return math.log2(extent if extent else MAX_DIM)

def l_bitmap(h: int, w: int) -> float:
    return float(h * w)


def path_similarity(p: tuple, q: tuple) -> int:
    """Length of the longest common suffix of the field-name steps."""
    a = lang.field_steps(p)
    b = lang.field_steps(q)
    n = 0
    while n < len(a) and n < len(b) and a[-1 - n] == b[-1 - n]:
        n += 1
    return n


@lru_cache(maxsize=4096)
def l_var(path: tuple, slot_path: tuple, candidates: tuple[tuple, ...]) -> float:
    """Code for a variable choice: softmax over same-sort environment paths,
    weighted by name similarity with the slot the expression occupies."""
    weights = [math.exp(path_similarity(p, slot_path)) for p in candidates]
    total = sum(weights)
    try:
        k = candidates.index(path)
    except ValueError:
        raise lang.LangError(f"variable path {path} not in environment")
    return -math.log2(weights[k] / total)


# model coding

def _l_expr_body(e: Term, slot_path: tuple, sig: dict, sort: str) -> float:
    """Expression cost after the slot's kind charge."""
    if isinstance(e, Var):
        cands = sig.get(sort)
        if not cands:
            raise lang.LangError(f"no environment path of sort {sort}")
        return l_dist(P_EXPR["var"]) + l_var(e.path, slot_path, cands)
    if isinstance(e, App):
        cost = l_dist(P_EXPR["app"]) + l_uniform(len(FUNCTIONS))
        for a in e.args:
            cost += _l_term(a, NAT, "", None, slot_path, sig)
        return cost
    raise lang.LangError("not an expression")


def _l_term(t: Term, sort: str, role: str, dims, slot_path: tuple,
            sig: dict | None) -> float:
    """Kind charge plus content for one slot, its role given by `lang.slot_role`.

    Position components ("pos_i"/"pos_j") are uniform over `dims`, which a
    Grid node sets to its own size, or to None when that is not ground.
    Every node, primitives included, pays the value-kind charge before its
    content; this is what makes structure-exposing refinements (an unknown
    vector becoming Vec(?, ?)) strictly compressive.
    """
    if isinstance(t, Unknown):
        return l_dist(P_TEMPLATE["unknown"])
    if lang.is_expr(t):
        if sig is None:
            raise lang.LangError("expression outside the output model")
        return l_dist(P_TEMPLATE["expr"]) + _l_expr_body(t, slot_path, sig, sort)
    cost = l_dist(P_TEMPLATE["value"])
    if isinstance(t, int):
        if sort == COLOR:
            return cost + (l_dist(P_BG[t]) if role == "bg" else LOG2_COLORS)
        if role == "pos_i":
            return cost + l_position(dims[0] if dims else None)
        if role == "pos_j":
            return cost + l_position(dims[1] if dims else None)
        return cost + l_nat(t)
    if isinstance(t, Ctor):
        csort = lang.ctor_sort(t.name)
        if csort == SHAPE:
            cost += l_dist(P_SHAPE[t.name])
        elif csort == MASK:
            cost += l_dist(P_MASK[t.name])
        if t.name == "Grid":
            dims = _ground_vec(t.args[0])
        for arg, (fname, fsort, is_list) in zip(t.args, lang.ctor_fields(t.name)):
            if fsort == BITS:
                cost += l_bitmap(len(arg), len(arg[0]))
                continue
            frole = lang.slot_role(t.name, fname, fsort, role)
            if is_list:
                cost += l_nat(len(arg))
                for k, x in enumerate(arg):
                    cost += _l_term(x, fsort, frole, dims, slot_path + (fname, k), sig)
            else:
                cost += _l_term(arg, fsort, frole, dims, slot_path + (fname,), sig)
        return cost
    raise lang.LangError(f"cannot code {t!r}")


def _ground_vec(t: Term) -> tuple[int, int] | None:
    if isinstance(t, Ctor) and t.name == "Vec" and isinstance(t.args[0], int) and isinstance(t.args[1], int):
        return t.args[0], t.args[1]
    return None


def l_model(m: Term, sig: dict | None = None) -> float:
    """Description length of one grid model.

    `sig` is the input model's `lang.signature`, required when `m`
    contains expressions (the output side). Ground positions are coded
    uniformly over their grid's dimensions when the model pins them, over
    1..MAX_DIM otherwise.
    """
    return _l_term(m, GRID, "", None, (), sig)


def input_side(gin: Term, caches) -> tuple[float, dict]:
    """An input model's cost and environment signature, computed once per
    input model in the task's `parsing.Caches`: a learner step re-scores
    the same input side with every output-side refinement, and proposes
    refinements against its signature."""
    side = caches.inputs.get(gin)
    if side is None:
        side = caches.inputs[gin] = (l_model(gin, None), lang.signature(gin))
    return side


def l_pair_model(model: Ctor, caches) -> tuple[float, float]:
    """(input, output) model costs of an InOut model; the pair node is free."""
    gin, gout = model.args
    cost, sig = input_side(gin, caches)
    return cost, l_model(gout, sig)


# data coding: unknown fills, diffs, deltas

def slot_terms(model: Term, tree: Term, diffs: Sequence[tuple[tuple, Term]],
               dims: tuple[int, int], loc: float, sort: str = GRID,
               role: str = "") -> tuple[list[float], list[float]]:
    """The terms a reading pays for one model slot read as `tree`: one per
    diff (`loc`, the location choice, plus the ground replacement), and one
    per unknown fill of the diff-patched model, in slot pre-order. Every
    replacement and fill is costed by `_l_ground`.

    `sort` and `role` are those of the slot `model` fills; diff paths are
    relative to it. A replaced subtree takes its unknowns with it. The
    slots come from `slot_plan`.
    """
    slot_of, unknowns = slot_plan(model, sort, role)
    dterms = []
    if diffs:
        effective = model
        for path, ground in diffs:
            s, r = slot_of[path]
            dterms.append(loc + _l_ground(ground, s, r, dims))
            effective = lang.subst(effective, path, ground)
        unknowns = slot_plan(effective, sort, role)[1]
    fterms = [_l_ground(lang.resolve(tree, path), s, r, dims) for path, s, r in unknowns]
    return dterms, fterms


@lru_cache(maxsize=8192)
def _l_ground(t: Term, sort: str, role: str, dims: tuple[int, int]) -> float:
    """`_l_term` of a ground subterm a reading pays for, an int or a
    constructor, kept in a bounded process-wide cache. With no expression
    and no environment, a slot's path matters to nothing, so the cost hangs
    on the key alone; a grid's candidates are read under one layer template
    after another, and their subterms recur across grids."""
    return _l_term(t, sort, role, dims, (), None)


@lru_cache(maxsize=4096)
def slot_plan(model: Term, sort: str, role: str) -> tuple[MappingProxyType, tuple]:
    """`lang.slots` of a model filling a slot of `sort` and `role`, walked
    once per key and kept in a bounded process-wide cache: each slot's
    (sort, role) by path, read-only since every caller shares it, and
    (path, sort, role) of each unknown, in slot pre-order."""
    slot_of, unknowns = {}, []
    for path, s, r, t in lang.slots(model, sort, role):
        slot_of[path] = (s, r)
        if isinstance(t, Unknown):
            unknowns.append((path, s, r))
    return MappingProxyType(slot_of), tuple(unknowns)


def sum_terms(n_diffs: int, pieces: Sequence[tuple[list[float], list[float]]]) -> float:
    """Add up the `slot_terms` of consecutive slots, one float at a time:
    the diff count prefix, every piece's diffs, then every piece's fills.
    `n_diffs` counts the pieces' diff terms, so with none the fills alone
    are added.

    The order is part of the score: readings are ranked by it and the
    learner rounds scores to 1e-9, so a regrouped sum could change a choice."""
    cost = 0.0
    if n_diffs:
        cost = l_nat(n_diffs)
        for dterms, _ in pieces:
            for x in dterms:
                cost += x
    for _, fterms in pieces:
        for x in fterms:
            cost += x
    return cost


def l_parse_tree(tree: Term, applied_model: Term, diffs: Sequence[tuple[tuple, Term]],
                 dims: tuple[int, int]) -> float:
    """Cost of a parse tree given the applied (expression-free) model.

    Diffs each pay a location choice among the model's nodes plus the ground
    replacement, with a count prefix when any are present. Unknown fills are
    then coded against the diff-patched model. `parsing.parse` adds up the
    same terms slot by slot; this is its reference.
    """
    loc = l_uniform(lang.node_count(applied_model)) if diffs else 0.0
    return sum_terms(len(diffs), [slot_terms(applied_model, tree, diffs, dims, loc)])


def l_delta(delta, dims: tuple[int, int]) -> float:
    """Cost of the cell-level correction set over a drawn grid.

    Each cell is a point object relative to the drawn grid: position uniform
    over its dimensions, colour uniform over ten, one shape-constructor bit.
    An empty delta costs nothing.
    """
    n = len(delta)
    if n == 0:
        return 0.0
    h, w = dims
    per = math.log2(h) + math.log2(w) + LOG2_COLORS + 1.0
    return l_nat(n) + n * per


# task-level evaluation

@dataclass
class TaskEval:
    """Both model costs and summed best reading costs over the examples;
    `examples` holds each example's chained readings, best first."""
    model: Ctor
    l_model_in: float
    l_model_out: float
    data_in: float
    data_out: float
    examples: list[list] = field(default_factory=list)

    def totals(self, alpha: float = ALPHA) -> dict:
        lm_i, lm_o = self.l_model_in, self.l_model_out
        ld_i, ld_o = alpha * self.data_in, alpha * self.data_out
        return {
            "in": (lm_i, ld_i, lm_i + ld_i),
            "out": (lm_o, ld_o, lm_o + ld_o),
            "both": (lm_i + lm_o, ld_i + ld_o, lm_i + lm_o + ld_i + ld_o),
        }

    def normalized(self, norm: "Normalizer") -> float:
        t = self.totals(norm.alpha)
        return t["in"][2] / norm.lam_in + t["out"][2] / norm.lam_out

    def normalized_sides(self, norm: "Normalizer") -> tuple[float, float]:
        t = self.totals(norm.alpha)
        return t["in"][2] / norm.lam_in, t["out"][2] / norm.lam_out


@dataclass(frozen=True)
class Normalizer:
    """Per-side scores of the initial model, used to normalize later models,
    and the data weight `alpha` that every normalized score is taken at."""
    lam_in: float
    lam_out: float
    alpha: float

    @classmethod
    def from_initial(cls, ev: TaskEval, alpha: float = ALPHA) -> "Normalizer":
        t = ev.totals(alpha)
        return cls(t["in"][2], t["out"][2], alpha)


def l_task(model: Ctor, examples, caches, bound=None) -> TaskEval:
    """Evaluate a task model over example pairs.

    Examples are (input Grid, output Grid) pairs, read through the task's
    `parsing.Caches` and summed in their order. Each example contributes
    its best chained reading; one with no reading raises ModelEvalError.
    The model is costed once the first example reads, so a model with no
    reading never pays for its own description.

    With `bound=(norm, threshold)`, scoring stops with NotCompressive as
    soon as the normalized score of the model and the examples read so far
    is at least `threshold`. The stop is exact: every reading cost is
    non-negative and the normalized score grows with each one, so the whole
    task scores at least the threshold too. A returned TaskEval is the one
    an unbounded call gives.
    """
    from . import parsing  # read_pair needs the parser

    ev = None
    for gi, go in examples:
        pairs = parsing.read_pair(model, gi, go, caches)
        if not pairs:
            raise ModelEvalError("example admits no chained reading")
        if ev is None:
            ev = TaskEval(model, *l_pair_model(model, caches), 0.0, 0.0)
        ev.examples.append(pairs)
        best = pairs[0]
        ev.data_in += best.rin.dl
        ev.data_out += best.rout.dl
        if bound is not None and ev.normalized(bound[0]) >= bound[1]:
            raise NotCompressive("the examples read so far reach the bound")
    if ev is None:
        ev = TaskEval(model, *l_pair_model(model, caches), 0.0, 0.0)
    return ev


def format_eval_table(ev: TaskEval, norm: Normalizer | None = None) -> str:
    """Three-row cost table: model bits, data bits, total, and normalized
    total, all at the normalizer's alpha (the default one without it)."""
    if norm is None:
        norm = Normalizer.from_initial(ev)
    t = ev.totals(norm.alpha)
    nin, nout = ev.normalized_sides(norm)
    rows = [("input", *t["in"], nin), ("output", *t["out"], nout),
            ("chained", *t["both"], nin + nout)]
    lines = [f"{'':8} {'L(M)':>10} {'L(D|M)':>12} {'L(M,D)':>12} {'normalized':>10}"]
    for name, lm, ld, lmd, nrm in rows:
        lines.append(f"{name:8} {lm:10.1f} {ld:12.1f} {lmd:12.1f} {nrm:10.3f}")
    return "\n".join(lines)
