"""Refinement search: growing a task model by compressive steps.

Starting from the empty model (two bare grids), the learner proposes object
insertions and slot replacements, keeps those that shorten the normalized
two-part description length, and greedily follows the best one (beam width
configurable). The search halts when nothing compresses any more or when the
time budget runs out, and returns the best model seen with its trace.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field, replace
from itertools import repeat

from . import coding, lang, parsing
from .coding import ALPHA, ModelEvalError, Normalizer, TaskEval
from .grids import Grid, GridError
from .lang import (
    BITS, COLOR, GRID, MASK, NAT, OBJECT, SHAPE, VEC,
    App, Ctor, Term, Unknown, UNK, Var,
    in_out, grid as grid_term, pos_shape, point, rectangle, vec,
)
from .parsing import Caches, ParseConfig, check_setting

_EPS = 1e-9
# largest constant c in the proposed expressions x - c and x + c
_MAX_EXPR_CONST = 3
_GROUPS = ("So", "Si", "Eo", "Ei")  # the groups of `propose_refinements`


@dataclass(frozen=True)
class SearchConfig:
    """Learner knobs: candidate budget per step, beam width, wall clock,
    the order of the refinement groups, and the weight of the data bits."""
    refinements: int = 20
    beam: int = 1
    timeout: float = 30.0
    order: str = "So-Si-Eo-Ei"
    predict_diffs: int = 3
    alpha: float = ALPHA
    parse: ParseConfig = field(default_factory=ParseConfig)

    def __post_init__(self):
        check_setting("refinements", self.refinements, 1)
        check_setting("beam", self.beam, 1)
        check_setting("predict_diffs", self.predict_diffs, 0)
        check_setting("timeout", self.timeout, types=(int, float), kind="an int or a float")
        check_setting("alpha", self.alpha, types=(int, float), kind="an int or a float")
        check_setting("order", self.order, types=str, kind="a str")
        check_setting("parse", self.parse, types=ParseConfig, kind="a ParseConfig")
        if not (math.isfinite(self.timeout) and self.timeout >= 0):
            raise ValueError(f"timeout must be finite and at least 0, got {self.timeout!r}")
        for token in self.order.split("-"):
            if token not in _GROUPS:
                raise ValueError(f"unknown refinement group {token!r} in order {self.order!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and greater than 0, got {self.alpha!r}")


DEFAULT_SEARCH = SearchConfig()


@dataclass(frozen=True)
class Refinement:
    """One model edit: inserting a layer object or replacing a slot."""
    kind: str      # "insert" or "replace"
    side: str      # "in" or "out"
    path: tuple
    template: Term
    sort: str

    def describe(self) -> str:
        rhs = lang.term_to_text(self.template, self.sort)
        return f"{self.side}.{lang.path_to_text(self.path)} = {rhs}"


@dataclass(frozen=True)
class TraceStep:
    index: int
    lhat: float
    refinement: Refinement | None

    def describe(self) -> str:
        body = self.refinement.describe() if self.refinement else ""
        return f"{self.index:3d}  {self.lhat:6.3f}  {body}"


@dataclass
class LearnResult:
    model: Ctor
    trace: tuple
    eval: TaskEval
    normalizer: Normalizer
    seconds: float
    timed_out: bool

    @property
    def lhat(self) -> float:
        return self.trace[-1].lhat


def initial_model() -> Ctor:
    """Two fully unknown grids with no objects."""
    return in_out(grid_term(UNK, UNK, ()), grid_term(UNK, UNK, ()))


def apply_refinement(model: Ctor, ref: Refinement) -> Ctor:
    # the pair's fields are named "in" and "out", as a refinement's sides are
    model = lang.subst(model, (ref.side,) + ref.path, ref.template, insert=ref.kind == "insert")
    if ref.kind == "insert" and ref.side == "in":
        # keep output-side references aimed at the same input objects
        gin, gout = model.args
        return in_out(gin, lang.shift_layer_refs(gout, ref.path[1]))
    return model


# proposal generation

# the open patterns of a vector or shape slot: constructors whose fields
# stay unknown, each agreeing with a value of its name
_OPEN_PATTERNS = {VEC: (vec(UNK, UNK),), SHAPE: (point(UNK), rectangle(UNK, UNK, UNK))}


def _insertions(model: Ctor, side: str, sig: dict) -> list[Refinement]:
    """Object seeds at every layer position: each open shape and, on the
    output side, each input object and shape."""
    layers = model.args[0 if side == "in" else 1].args[2]
    seeds = [pos_shape(UNK, shape) for shape in _OPEN_PATTERNS[SHAPE]]
    if side == "out":
        seeds += [Var(p) for p in sig.get(OBJECT, ())]
        seeds += [pos_shape(UNK, Var(p)) for p in sig.get(SHAPE, ())]
    return [Refinement("insert", side, ("layers", k), seed, OBJECT)
            for k in range(len(layers) + 1) for seed in seeds]


def _agrees(targets: list[list], values: list, fill) -> bool:
    """The rule every replacement passes: in every example k, some reading i
    has a defined value `targets[k][i]` at the slot, equal to
    `values[k][i]`, the candidate's value on that reading. `values` holds
    the examples checked so far; `fill(k)` extends it only once the
    examples before k agree."""
    for k, ts in enumerate(targets):
        if k == len(values):
            values.append(fill(k))
        if not any(t is not None and v == t for v, t in zip(values[k], ts)):
            return False
    return True


def _value(fn, term: Term, arg) -> Term | None:
    """`fn(term, arg)`, or None when it raises LangError."""
    try:
        return fn(term, arg)
    except lang.LangError:
        return None


def _pattern_proposals(side: str, side_model: Term, ev: TaskEval) -> list[Refinement]:
    """Patterns for the unknown slots of one side, checked against the
    side's distinct readings: an open constructor of the slot's sort, or
    one of the first example's naturals, colours or masks, in order."""
    trees = [dict.fromkeys(p.rin.tree if side == "in" else p.rout.tree for p in pairs)
             for pairs in ev.examples]
    out = []
    for path, sort, _, sub in lang.slots(side_model):
        if not isinstance(sub, Unknown) or sort not in (VEC, SHAPE, NAT, COLOR, MASK):
            continue
        targets = [[_value(lang.resolve, t, path) for t in ts] for ts in trees]
        if sort in _OPEN_PATTERNS:
            targets = [[getattr(v, "name", None) for v in vs] for vs in targets]
            cands = [(c, c.name) for c in _OPEN_PATTERNS[sort]]
        else:
            firsts = {v for v in targets[0] if v is not None}
            # masks: the regular ones by name, then bitmaps by their bits
            order = (lambda m: (m.name == "Bitmap", m.name, m.args)) if sort == MASK else None
            cands = [(v, v) for v in sorted(firsts, key=order)]
        for tmpl, key in cands:
            if _agrees(targets, [], lambda k: repeat(key)):
                out.append(Refinement("replace", side, path, tmpl, sort))
    return out


def _nat_exprs(nat_paths: tuple) -> list[Term]:
    """Candidate expressions for a natural-number slot, in proposal order:
    x, x-c, x+c, x-y, x+y over the input's natural paths."""
    consts = range(1, _MAX_EXPR_CONST + 1)
    xs = [Var(x) for x in nat_paths]
    return (xs
            + [App("minus", (x, c)) for x in xs for c in consts]
            + [App("plus", (x, c)) for x in xs for c in consts]
            + [App("minus", (x, y)) for x in xs for y in xs if x != y]
            + [App("plus", (x, y)) for i, x in enumerate(xs) for y in xs[i:]])


def _expr_proposals(model: Ctor, ev: TaskEval, sig: dict) -> list[Refinement]:
    """Expressions for output slots, checked against the chained readings:
    a candidate's value on a pair is `lang.eval_expr` of it on the input
    tree, the slot's value that of the output tree.

    Natural-number slots get the arithmetic forms of `_nat_exprs`; other
    sorts get bare variables."""
    examples = ev.examples
    # per sort, each candidate with its values on the chained readings of the
    # examples checked so far (most fail on the first one)
    cands: dict[str, list[tuple[Term, list]]] = {}
    out: list[Refinement] = []
    for path, sort, _, sub in lang.slots(model.args[1]):
        # every slot below the grid but a bitmap, an expression or a fixed colour
        if sort in (GRID, BITS) or lang.is_expr(sub) or (sort != NAT and isinstance(sub, int)):
            continue
        if sort not in cands:
            es = (_nat_exprs(sig.get(NAT, ())) if sort == NAT
                  else [Var(x) for x in sig.get(sort, ())])
            cands[sort] = [(e, []) for e in es]
        targets = [[_value(lang.resolve, p.rout.tree, path) for p in pairs]
                   for pairs in examples]
        for e, vals in cands[sort]:
            if _agrees(targets, vals, lambda k: [_value(lang.eval_expr, e, p.rin.tree)
                                                 for p in examples[k]]):
                out.append(Refinement("replace", "out", path, e, sort))
    return out


def propose_refinements(model: Ctor, ev: TaskEval, caches: Caches,
                        cfg: SearchConfig = DEFAULT_SEARCH) -> list[Refinement]:
    """Candidate refinements of the model, in the configured group order.

    No group repeats itself or another's (kind, side, path, template): the
    groups differ in kind or side, except "Eo", whose expressions and
    patterns differ in template. The input side's signature comes from the
    task's `caches`, where scoring the model left it."""
    gin, gout = model.args
    sig = coding.input_side(gin, caches)[1]
    groups = {
        "So": lambda: _insertions(model, "out", sig),
        "Si": lambda: _insertions(model, "in", sig),
        "Eo": lambda: _expr_proposals(model, ev, sig) + _pattern_proposals("out", gout, ev),
        "Ei": lambda: _pattern_proposals("in", gin, ev),
    }
    return [ref for token in dict.fromkeys(cfg.order.split("-")) for ref in groups[token]()]


# search

@dataclass
class _Entry:
    ev: TaskEval   # the entry's model is `ev.model`
    trace: tuple   # the steps that built the model; the last one holds its score


def _evaluate(entry: _Entry, ref: Refinement, examples, caches: Caches,
              norm: Normalizer) -> _Entry | None:
    """The entry that `ref` refines `entry` into, or None when the refined
    model does not compress: it raises when applied or read, or its score
    reaches the entry's less 1e-9, where scoring stops with NotCompressive."""
    try:
        m2 = apply_refinement(entry.ev.model, ref)
        ev = coding.l_task(m2, examples, caches, bound=(norm, entry.trace[-1].lhat - _EPS))
    except (lang.LangError, ModelEvalError, GridError):
        return None
    return _Entry(ev, entry.trace + (TraceStep(len(entry.trace), ev.normalized(norm), ref),))


def _select(found: list[_Entry], width: int) -> list[_Entry]:
    """The next beam: the first entry of each distinct model, best score
    first, `width` entries wide. Scores are quantized to 1e-9, so that ties
    keep proposal order rather than float-summation noise."""
    firsts: dict[Ctor, _Entry] = {}
    for entry in sorted(found, key=lambda e: round(e.trace[-1].lhat / _EPS)):  # stable
        firsts.setdefault(entry.ev.model, entry)
    return list(firsts.values())[:width]


def learn(examples, cfg: SearchConfig = DEFAULT_SEARCH) -> LearnResult:
    """Induce a task model from (input, output) grid pairs, at least one.
    The search runs with the cyclic collector paused, safe since the reading
    path makes no reference cycle, and turns it back on only if it was on."""
    start = time.monotonic()
    deadline = start + cfg.timeout
    examples = tuple(examples)
    if not examples:
        raise ValueError("examples: must hold at least one (input, output) pair")
    collecting = gc.isenabled()
    gc.disable()
    try:
        caches = Caches(cfg.parse)
        ev = coding.l_task(initial_model(), examples, caches)
        norm = Normalizer.from_initial(ev, cfg.alpha)
        best = _Entry(ev, (TraceStep(0, ev.normalized(norm), None),))
        beam = [best]
        timed_out = False
        while not timed_out:
            found: list[_Entry] = []
            for entry in beam:
                if time.monotonic() > deadline:
                    timed_out = True
                    break
                wanted = len(found) + cfg.refinements
                for ref in propose_refinements(entry.ev.model, entry.ev, caches, cfg):
                    if time.monotonic() > deadline:
                        timed_out = True
                        break
                    refined = _evaluate(entry, ref, examples, caches, norm)
                    if refined is not None:
                        found.append(refined)
                        if len(found) == wanted:
                            break
                if timed_out:
                    break
            if not found:
                break
            beam = _select(found, cfg.beam)
            if beam[0].trace[-1].lhat < best.trace[-1].lhat - _EPS:
                best = beam[0]
        return LearnResult(best.ev.model, best.trace, best.ev, norm,
                           time.monotonic() - start, timed_out)
    finally:
        if collecting:
            gc.enable()


def predict(model: Ctor, gi: Grid, cfg: SearchConfig = DEFAULT_SEARCH,
            attempts: int | None = None) -> list[Grid]:
    """Candidate output grids for an input, best reading first, deduplicated:
    those of the first `attempts` readings (an int of at least 1), or of all
    of them when `attempts` is None."""
    if attempts is not None:
        check_setting("attempts", attempts, 1)
    caches = Caches(replace(cfg.parse, max_diffs=cfg.predict_diffs))
    m_in, m_out = model.args
    outs: list[Grid] = []
    for r in parsing.read(m_in, None, gi, caches)[:attempts]:
        try:
            _, g = parsing.write(m_out, r.tree)
        except (lang.LangError, GridError):
            continue
        if g not in outs:
            outs.append(g)
    return outs


@dataclass(frozen=True)
class CreatedPair:
    input_tree: Ctor
    input_grid: Grid
    output_tree: Ctor
    output_grid: Grid


def create(model: Ctor) -> CreatedPair:
    """Instantiate a model into one example pair, defaults filling unknowns."""
    m_in, m_out = model.args
    ti, gi = parsing.write(m_in, None)
    to, go = parsing.write(m_out, ti)
    return CreatedPair(ti, gi, to, go)
