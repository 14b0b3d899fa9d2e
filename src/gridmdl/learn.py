"""Refinement search: growing a task model by compressive steps.

Starting from the empty model (two bare grids), the learner proposes object
insertions and slot replacements, keeps those that shorten the normalized
two-part description length, and greedily follows the best one (beam width
configurable). The search halts when nothing compresses any more or when the
time budget runs out, and returns the best model seen with its trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from . import coding, lang, parsing
from .coding import ALPHA, ModelEvalError, Normalizer, TaskEval
from .grids import Grid, GridError
from .lang import (
    COLOR, MASK, NAT, OBJECT, SHAPE, VEC,
    App, Ctor, Term, Unknown, UNK, Var,
    in_out, grid as grid_term, pos_shape, point, rectangle, vec,
)
from .parsing import Caches, ParseConfig

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
        for token in self.order.split("-"):
            if token not in _GROUPS:
                raise ValueError(f"unknown refinement group {token!r} in order {self.order!r}")


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
    gin, gout = model.args
    if ref.kind == "insert":
        if ref.side == "in":
            # keep output-side references aimed at the same input objects
            return in_out(lang.subst(gin, ref.path, ref.template, insert=True),
                          lang.shift_layer_refs(gout, ref.path[1]))
        return in_out(gin, lang.subst(gout, ref.path, ref.template, insert=True))
    if ref.side == "in":
        return in_out(lang.subst(gin, ref.path, ref.template), gout)
    return in_out(gin, lang.subst(gout, ref.path, ref.template))


# proposal generation

def _side_readings(ev: TaskEval, side: str) -> list[list]:
    """Per example, the distinct readings of one side, best pair first."""
    out = []
    for pairs in ev.examples:
        seen: dict = {}
        for p in pairs:
            r = p.rin if side == "in" else p.rout
            seen.setdefault(r.tree, r)
        out.append(list(seen.values()))
    return out


def _insertions(model: Ctor, side: str, sig: lang.EnvSig) -> list[Refinement]:
    layers = model.args[0 if side == "in" else 1].args[2]
    seeds: list[tuple[Term, str]] = [
        (pos_shape(UNK, point(UNK)), OBJECT),
        (pos_shape(UNK, rectangle(UNK, UNK, UNK)), OBJECT),
    ]
    if side == "out":
        for p in sig.paths_of_sort(OBJECT):
            seeds.append((Var(p), OBJECT))
        for p in sig.paths_of_sort(SHAPE):
            seeds.append((pos_shape(UNK, Var(p)), OBJECT))
    out = []
    for k in range(len(layers) + 1):
        for tmpl, sort in seeds:
            out.append(Refinement("insert", side, ("layers", k), tmpl, sort))
    return out


def _mask_order(t: Term):
    if isinstance(t, Ctor) and t.name == "Bitmap":
        return (1, "Bitmap", t.args[0])
    return (0, t.name, ())


def _unknown_slots(side_model: Term) -> list[tuple[tuple, str]]:
    return [(p, s) for p, s, _, sub in lang.slots(side_model)
            if isinstance(sub, Unknown)]


def _pattern_proposals(side: str, side_model: Term, readings: list[list]) -> list[Refinement]:
    """Condition-checked templates for unknown slots: a shared primitive value,
    or a constructor whose fields stay unknown."""
    out = []
    for path, sort in _unknown_slots(side_model):
        value_sets = []
        for rs in readings:
            vals = []
            for r in rs:
                try:
                    vals.append(lang.resolve(r.tree, path))
                except lang.LangError:
                    pass
            value_sets.append(vals)
        if not all(value_sets):
            continue
        if sort == VEC:
            out.append(Refinement("replace", side, path, vec(UNK, UNK), sort))
            continue
        if sort == SHAPE:
            for name, tmpl in (("Point", point(UNK)),
                               ("Rectangle", rectangle(UNK, UNK, UNK))):
                if all(any(isinstance(v, Ctor) and v.name == name for v in vs)
                       for vs in value_sets):
                    out.append(Refinement("replace", side, path, tmpl, sort))
            continue
        common = set(value_sets[0])
        for vs in value_sets[1:]:
            common &= set(vs)
        if sort in (NAT, COLOR):
            for v in sorted(c for c in common if isinstance(c, int)):
                out.append(Refinement("replace", side, path, v, sort))
        elif sort == MASK:
            for v in sorted(common, key=_mask_order):
                out.append(Refinement("replace", side, path, v, sort))
    return out


def _expr_proposals(model: Ctor, ev: TaskEval, sig: lang.EnvSig) -> list[Refinement]:
    """Condition-checked expressions for output slots.

    Natural-number slots get the arithmetic forms x, x-c, x+c, x-y, x+y;
    other sorts get bare variables, holding when some chained reading of every
    example agrees."""
    gout = model.args[1]
    nat_paths = sig.paths_of_sort(NAT)
    # environment value tables per chained reading
    env_vals = [[{x: lang.resolve(p.rin.tree, x) for x in nat_paths} for p in pairs]
                for pairs in ev.examples]

    out: list[Refinement] = []
    for path, sort, _, sub in lang.slots(gout):
        if lang.is_expr(sub):
            continue
        if sort == NAT and isinstance(sub, (int, Unknown)):
            out.extend(_nat_exprs(path, ev.examples, env_vals, nat_paths))
        elif sort in (VEC, COLOR, MASK, SHAPE, OBJECT) and not isinstance(sub, (int,)):
            for x in sig.paths_of_sort(sort):
                ok = True
                for pairs in ev.examples:
                    if not any(_safe_eq(p.rout.tree, path, p.rin.tree, x) for p in pairs):
                        ok = False
                        break
                if ok:
                    out.append(Refinement("replace", "out", path, Var(x), sort))
    return out


def _safe_eq(rout_tree, tpath, rin_tree, xpath) -> bool:
    try:
        return lang.resolve(rout_tree, tpath) == lang.resolve(rin_tree, xpath)
    except lang.LangError:
        return False


def _target_values(per_ex, path) -> list[list[int]] | None:
    tv = []
    for pairs in per_ex:
        row = []
        for p in pairs:
            try:
                v = lang.resolve(p.rout.tree, path)
            except lang.LangError:
                continue
            if isinstance(v, int):
                row.append(v)
        if not row:
            return None
        tv.append(row)
    return tv


def _nat_exprs(path, per_ex, env_vals, nat_paths) -> list[Refinement]:
    targets = _target_values(per_ex, path)
    if targets is None:
        return []
    n_ex = len(per_ex)

    def holds(fn) -> bool:
        for k in range(n_ex):
            if not any(fn(env_vals[k][i], t)
                       for i, t in enumerate(targets[k])):
                return False
        return True

    out = []
    consts = range(1, _MAX_EXPR_CONST + 1)
    for x in nat_paths:
        if holds(lambda e, t, x=x: e[x] == t):
            out.append(_rep(path, Var(x)))
    for x in nat_paths:
        for c in consts:
            if holds(lambda e, t, x=x, c=c: e[x] == t + c):
                out.append(_rep(path, App("minus", (Var(x), c))))
    for x in nat_paths:
        for c in consts:
            if holds(lambda e, t, x=x, c=c: e[x] == t - c):
                out.append(_rep(path, App("plus", (Var(x), c))))
    for x in nat_paths:
        for y in nat_paths:
            if x == y:
                continue
            if holds(lambda e, t, x=x, y=y: e[x] - e[y] == t):
                out.append(_rep(path, App("minus", (Var(x), Var(y)))))
    for i, x in enumerate(nat_paths):
        for y in nat_paths[i:]:
            if holds(lambda e, t, x=x, y=y: e[x] + e[y] == t):
                out.append(_rep(path, App("plus", (Var(x), Var(y)))))
    return out


def _rep(path, template) -> Refinement:
    return Refinement("replace", "out", path, template, NAT)


def propose_refinements(model: Ctor, ev: TaskEval,
                        cfg: SearchConfig = DEFAULT_SEARCH) -> list[Refinement]:
    """Candidate refinements of the model, in the configured group order."""
    gin, gout = model.args
    sig = lang.signature(gin)
    groups = {
        "So": lambda: _insertions(model, "out", sig),
        "Si": lambda: _insertions(model, "in", sig),
        "Eo": lambda: (_expr_proposals(model, ev, sig)
                       + _pattern_proposals("out", gout, _side_readings(ev, "out"))),
        "Ei": lambda: _pattern_proposals("in", gin, _side_readings(ev, "in")),
    }
    out: list[Refinement] = []
    seen = set()
    for token in cfg.order.split("-"):
        for ref in groups[token]():
            key = (ref.kind, ref.side, ref.path, ref.template)
            if key not in seen:
                seen.add(key)
                out.append(ref)
    return out


# search

@dataclass
class _Entry:
    lhat: float
    ev: TaskEval   # the entry's model is `ev.model`
    trace: tuple


def learn(examples, cfg: SearchConfig = DEFAULT_SEARCH) -> LearnResult:
    """Induce a task model from (input, output) grid pairs."""
    start = time.monotonic()
    deadline = start + cfg.timeout
    caches = Caches()
    model = initial_model()
    ev = coding.l_task(model, examples, cfg.parse, caches)
    norm = Normalizer.from_initial(ev, cfg.alpha)
    first = _Entry(ev.normalized(norm), ev, (TraceStep(0, ev.normalized(norm), None),))
    beam = [first]
    best = first
    timed_out = False
    step = 1
    while True:
        found: list[tuple[float, int, _Entry]] = []
        arrival = 0
        for entry in beam:
            if time.monotonic() > deadline:
                timed_out = True
                break
            kept = 0
            for ref in propose_refinements(entry.ev.model, entry.ev, cfg):
                if time.monotonic() > deadline:
                    timed_out = True
                    break
                try:
                    m2 = apply_refinement(entry.ev.model, ref)
                    ev2 = coding.l_task(m2, examples, cfg.parse, caches)
                except (lang.LangError, ModelEvalError, GridError):
                    continue
                lhat2 = ev2.normalized(norm)
                if lhat2 < entry.lhat - _EPS:
                    trace2 = entry.trace + (TraceStep(step, lhat2, ref),)
                    # Quantize so ties within the descent epsilon fall back to
                    # proposal order rather than float-summation noise.
                    found.append((round(lhat2 / _EPS), arrival,
                                  _Entry(lhat2, ev2, trace2)))
                    arrival += 1
                    kept += 1
                    if kept >= cfg.refinements:
                        break
            if timed_out:
                break
        if not found:
            break
        found.sort(key=lambda t: (t[0], t[1]))
        beam = []
        models_seen = set()
        for _, _, entry in found:
            if entry.ev.model in models_seen:
                continue
            models_seen.add(entry.ev.model)
            beam.append(entry)
            if len(beam) >= cfg.beam:
                break
        if beam[0].lhat < best.lhat - _EPS:
            best = beam[0]
        step += 1
        if timed_out:
            break
    return LearnResult(best.ev.model, best.trace, best.ev, norm,
                       time.monotonic() - start, timed_out)


def predict(model: Ctor, gi: Grid, cfg: SearchConfig = DEFAULT_SEARCH,
            caches: Caches | None = None, attempts: int | None = None) -> list[Grid]:
    """Candidate output grids for an input, best reading first, deduplicated."""
    pcfg = replace(cfg.parse, max_diffs=cfg.predict_diffs)
    m_in, m_out = model.args
    outs: list[Grid] = []
    readings = parsing.read(m_in, None, gi, pcfg, caches)
    if attempts is not None:
        readings = readings[:attempts]
    for r in readings:
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
