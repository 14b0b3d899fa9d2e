"""Term language for grid models.

A model is a term built from a small set of typed constructors (grids, layered
objects, shapes, masks, vectors) plus template holes (`Unknown`) and, on the
output side, expressions (`Var` references into the input parse tree, `zero`,
`plus`, `minus`). Terms are immutable; an operation rebuilds the nodes it
changes and shares the rest.

Paths address subterms as tuples of steps: field names (`"size"`, `"shape"`),
list indices (ints, valid right after a `"layers"` step), and the pair roots
`"in"` / `"out"`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, TypeAlias

from .grids import NUM_COLORS, GridError, check_bitmap

# sorts
PAIR = "pair"
GRID = "grid"
OBJECT = "object"
SHAPE = "shape"
VEC = "vec"
MASK = "mask"
NAT = "nat"
COLOR = "color"
BITS = "bits"

COLOR_NAMES = (
    "black", "blue", "red", "green", "yellow",
    "grey", "pink", "orange", "lightblue", "brown",
)
BLACK, BLUE, RED, GREEN, YELLOW, GREY, PINK, ORANGE, LIGHTBLUE, BROWN = range(NUM_COLORS)


@dataclass(frozen=True, slots=True)
class Ctor:
    """Constructor node; `args` holds one entry per field (list fields hold a tuple).

    The hash is computed on first use and kept, as `grids.Grid` keeps its
    own: every memo table of a task keys on terms, and shared subterms then
    hash once. Slotted, a node is one object without an instance dict, so
    a parse's many candidate and reading terms weigh less on the garbage
    collector.

    `__init__` and `__eq__` are written out, and the dataclass keeps them:
    `__init__` sets the slots through their descriptors, which costs about
    half the frozen dataclass's `object.__setattr__` per field, and
    `__eq__` compares the fields without building a tuple of each side."""
    name: str
    args: tuple = ()
    # out of init, repr and compare: equality and hash stay those of (name, args)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, name: str, args: tuple = ()):
        _set_name(self, name)
        _set_args(self, args)
        _set_hash(self, None)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Ctor:
            return NotImplemented
        return self.name == other.name and self.args == other.args

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.name, self.args))
            _set_hash(self, h)
        return h

    def __reduce__(self):
        # rebuild through __init__, so that a term sent to another process
        # never carries a hash made under this process's hash seed
        return (Ctor, (self.name, self.args))


# the setters of Ctor's slots, which a frozen class's own __setattr__ refuses
_set_name, _set_args, _set_hash = (Ctor.__dict__[f].__set__ for f in ("name", "args", "_hash"))


@dataclass(frozen=True)
class Unknown:
    """Template hole, matches any ground term of the slot's sort."""


@dataclass(frozen=True)
class Var:
    """Reference to a path in the environment (the input parse tree)."""
    path: tuple


@dataclass(frozen=True)
class App:
    """Function application over naturals: zero, plus, minus."""
    fn: str
    args: tuple = ()


# a string: typing's process-wide cache would keep the classes of a
# `Union[...]`, and through their methods this module's namespace, alive
# after the package is dropped and imported again
Term: TypeAlias = "int | tuple | Ctor | Unknown | Var | App"

UNK = Unknown()
ZERO = App("zero")

# field table: constructor name -> (sort, ((field, sort, is_list), ...))
CONSTRUCTORS: dict[str, tuple[str, tuple[tuple[str, str, bool], ...]]] = {
    "InOut": (PAIR, (("in", GRID, False), ("out", GRID, False))),
    "Grid": (GRID, (("size", VEC, False), ("color", COLOR, False), ("layers", OBJECT, True))),
    "PosShape": (OBJECT, (("pos", VEC, False), ("shape", SHAPE, False))),
    "Point": (SHAPE, (("color", COLOR, False),)),
    "Rectangle": (SHAPE, (("size", VEC, False), ("color", COLOR, False), ("mask", MASK, False))),
    "Vec": (VEC, (("i", NAT, False), ("j", NAT, False))),
    "Bitmap": (MASK, (("bitmap", BITS, False),)),
    "Full": (MASK, ()),
    "Border": (MASK, ()),
    "EvenCheckboard": (MASK, ()),
    "OddCheckboard": (MASK, ()),
    "PlusCross": (MASK, ()),
    "TimesCross": (MASK, ()),
}

# constructor name -> (number of fields, argument indices of its list fields)
_ARG_LAYOUT: dict[str, tuple[int, tuple[int, ...]]] = {
    name: (len(fields), tuple(k for k, (_, _, is_list) in enumerate(fields) if is_list))
    for name, (_, fields) in CONSTRUCTORS.items()
}

# path steps: constructor name -> {field: (argument index, is_list)}
_FIELD_AT: dict[str, dict[str, tuple[int, bool]]] = {
    name: {f: (k, is_list) for k, (f, _, is_list) in enumerate(fields)}
    for name, (_, fields) in CONSTRUCTORS.items()
}


def in_out(gin: Term, gout: Term) -> Ctor:
    return Ctor("InOut", (gin, gout))


def grid(size: Term, color: Term, layers: tuple = ()) -> Ctor:
    return Ctor("Grid", (size, color, tuple(layers)))


def pos_shape(pos: Term, shape: Term) -> Ctor:
    return Ctor("PosShape", (pos, shape))


def point(color: Term) -> Ctor:
    return Ctor("Point", (color,))


def rectangle(size: Term, color: Term, mask: Term) -> Ctor:
    return Ctor("Rectangle", (size, color, mask))


def vec(i: Term, j: Term) -> Ctor:
    return Ctor("Vec", (i, j))


def bitmap(rows) -> Ctor:
    """The bitmap mask of `rows`, refused with a GridError unless they are
    one or more rows of one length, not zero, each cell the int 0 or 1
    (`grids.check_bitmap`), as the text syntax refuses them."""
    bits = tuple(map(tuple, rows))
    if not (bits and bits[0]):
        raise GridError("bitmap has no cells")
    check_bitmap(bits, len(bits), len(bits[0]))
    return Ctor("Bitmap", (bits,))


# the sorts with one constructor, as a term that every filling of an unknown
# of the sort instantiates
SOLE_CTORS = {VEC: vec(UNK, UNK), OBJECT: pos_shape(vec(UNK, UNK), UNK)}

FULL = Ctor("Full")
BORDER = Ctor("Border")
EVEN_CHECKBOARD = Ctor("EvenCheckboard")
ODD_CHECKBOARD = Ctor("OddCheckboard")
PLUS_CROSS = Ctor("PlusCross")
TIMES_CROSS = Ctor("TimesCross")


class LangError(Exception):
    """Ill-formed term, bad path, or failed evaluation."""


def ctor_fields(name: str) -> tuple[tuple[str, str, bool], ...]:
    try:
        return CONSTRUCTORS[name][1]
    except KeyError:
        raise LangError(f"unknown constructor {name!r}")


def ctor_sort(name: str) -> str:
    return CONSTRUCTORS[name][0]


def _field_at(t: Term, path: tuple, i: int) -> tuple[int, bool]:
    """(argument index, is_list) of the field that step `i` of `path` names
    on the node `t`."""
    if not isinstance(t, Ctor):
        raise LangError(f"step {path[i]!r} into non-constructor at {path[:i]}")
    try:
        return _FIELD_AT[t.name][path[i]]
    except KeyError:
        raise LangError(f"no field {path[i]!r} on {t.name} at {path[:i]}") from None


def resolve(term: Term, path: tuple) -> Term:
    """Follow `path` down from `term`; raises LangError if a step does not apply."""
    t = term
    i = 0
    n = len(path)
    while i < n:
        try:
            k, is_list = _FIELD_AT[t.name][path[i]]
        except (AttributeError, KeyError):
            _field_at(t, path, i)  # raises the LangError that names the step
        t = t.args[k]
        i += 1
        if is_list:
            if i >= n or not isinstance(path[i], int):
                raise LangError(f"list field {path[i - 1]!r} needs an index at {path[:i]}")
            idx = path[i]
            if not 0 <= idx < len(t):
                raise LangError(f"index {idx} out of range at {path[:i]}")
            t = t[idx]
            i += 1
    return t


def subst(term: Term, path: tuple, repl: Term, insert: bool = False) -> Term:
    """Replace the subterm at `path` by `repl`.

    With `insert=True` the path must end with a list index; `repl` is inserted
    at that position (index == length appends).
    """
    if not path:
        if insert:
            raise LangError("insertion needs a list position")
        return repl
    k, is_list = _field_at(term, path, 0)
    old = term.args[k]
    if is_list:
        if len(path) < 2 or not isinstance(path[1], int):
            raise LangError(f"list field {path[0]!r} needs an index")
        idx = path[1]
        if insert and len(path) == 2:
            if not 0 <= idx <= len(old):
                raise LangError(f"insert index {idx} out of range")
            new = old[:idx] + (repl,) + old[idx:]
        else:
            if not 0 <= idx < len(old):
                raise LangError(f"index {idx} out of range")
            new = old[:idx] + (subst(old[idx], path[2:], repl, insert),) + old[idx + 1:]
    else:
        new = subst(old, path[1:], repl, insert)
    return Ctor(term.name, term.args[:k] + (new,) + term.args[k + 1:])


def is_expr(t: Term) -> bool:
    return isinstance(t, (Var, App))


def is_ground(t: Term) -> bool:
    """True when the term contains no unknowns and no expressions: no slot
    of `slots(t)` holds one. One walk over constructor arguments (list
    fields contribute their elements), with no paths or roles built."""
    stack = [t]
    while stack:
        sub = stack.pop()
        if isinstance(sub, Ctor):
            layout = _ARG_LAYOUT.get(sub.name)
            if layout is None:
                ctor_fields(sub.name)  # raises the LangError that names it
            n, lists = layout
            args = sub.args
            # one entry per field, as `slots` walks them; a list field's
            # tuple is pushed too, and passes as a leaf; a node short of a
            # list field, which `parsing.draw` refuses, has none to walk
            stack.extend(args if len(args) == n else args[:n])
            for k in lists:
                if k < len(args):
                    stack.extend(args[k])
        elif isinstance(sub, (Unknown, Var, App)):
            return False
    return True


def slot_role(ctor: str, field: str, sort: str, parent_role: str) -> str:
    """Role of field `field` (of sort `sort`) of a `ctor` node whose own slot
    has role `parent_role`; the one rule behind model and data coding and
    `parsing.generate`.

    Roles pick the code of a slot's value and the default that fills it:
    "pos" (object positions) and its components "pos_i"/"pos_j", "grid_size"
    and "size" (rectangle sizes) with their components, "bg" (a grid's
    background colour); "" for every other slot.
    """
    if field == "pos":
        return "pos"
    if field == "size":
        return "grid_size" if ctor == "Grid" else "size"
    if sort == COLOR:
        return "bg" if ctor == "Grid" else ""
    if sort == NAT:
        return ("pos_i" if field == "i" else "pos_j") if parent_role == "pos" else parent_role
    return ""


def slots(t: Term, sort: str = GRID, role: str = "") -> Iterator[tuple[tuple, str, str, Term]]:
    """Yield (path, sort, role, subterm) for every slot of the term, in
    pre-order, root included; `sort` and `role` are those of the slot the
    term itself fills.

    List fields contribute their elements, not the list itself; a bitmap
    payload is one slot of sort BITS; expressions are not descended into.
    """
    stack = [((), sort, role, t)]
    while stack:
        slot = stack.pop()
        yield slot
        path, _, role, sub = slot
        if not isinstance(sub, Ctor):
            continue
        # push the fields last to first, so that they pop in order
        fields = ctor_fields(sub.name)
        for k in range(len(fields) - 1, -1, -1):
            fname, fsort, is_list = fields[k]
            arg = sub.args[k]
            frole = slot_role(sub.name, fname, fsort, role)
            if is_list:
                for i in range(len(arg) - 1, -1, -1):
                    stack.append((path + (fname, i), fsort, frole, arg[i]))
            else:
                stack.append((path + (fname,), fsort, frole, arg))


@lru_cache(maxsize=4096)
def node_count(t: Term) -> int:
    """Number of slots of the term, root included; kept in a bounded
    process-wide cache, since `parsing.parse` with a diff budget asks it on
    every call."""
    return sum(1 for _ in slots(t))


def eval_expr(e: Term, env: Term) -> Term:
    """Evaluate an expression to a ground value against the environment tree.

    Raises LangError on unresolvable variables, non-natural arguments, or a
    negative subtraction result.
    """
    if isinstance(e, Var):
        if env is None:
            raise LangError("variable with no environment")
        return resolve(env, e.path)
    if isinstance(e, App):
        if e.fn == "zero":
            return 0
        vals = []
        for a in e.args:
            v = a if isinstance(a, int) else eval_expr(a, env)
            if not isinstance(v, int):
                raise LangError(f"{e.fn} expects naturals")
            vals.append(v)
        if e.fn == "plus":
            return vals[0] + vals[1]
        if e.fn == "minus":
            r = vals[0] - vals[1]
            if r < 0:
                raise LangError("negative difference")
            return r
        raise LangError(f"unknown function {e.fn!r}")
    raise LangError("not an expression")


def map_exprs(t: Term, fn) -> Term:
    """Replace every expression `e` in `t` by `fn(e)`, without descending
    into expressions. A subterm that holds no expression comes back as
    itself, not as a copy, so it keeps its identity and its cached hash."""
    if isinstance(t, (Var, App)):
        return fn(t)
    if not isinstance(t, Ctor):
        return t
    args = t.args
    new = None
    for k, (_, _, is_list) in enumerate(ctor_fields(t.name)):
        arg = args[k]
        if is_list:
            items = tuple(map_exprs(x, fn) for x in arg)
            a = arg if all(x is y for x, y in zip(items, arg)) else items
        else:
            a = map_exprs(arg, fn)
        if a is not arg:
            if new is None:
                new = list(args)
            new[k] = a
    return t if new is None else Ctor(t.name, tuple(new))


def apply_model(m: Term, env: Term | None, memo: dict | None = None) -> Term:
    """Instantiate every expression in `m` against `env`; unknowns survive.

    `env` must be ground, as parse trees and generated trees are. Subterms
    without expressions are shared (see `map_exprs`), so an input side and
    the untouched parts of an output side keep their cached hashes.

    `memo`, when given, maps (term, `env`) to its application. A grid
    model's layers are applied by calls of their own, so sides and layers
    share the table, and a refined side finds its untouched layers there.
    A failed application is kept as its error's message (no term is a str)
    and raises the same LangError again. With no memo, the layers go
    through this function too, but nothing is keyed, so neither `m` nor
    `env` is hashed."""
    if memo is None:
        return _apply(m, env, None)
    key = (m, env)
    a = memo.get(key)
    if a is None:
        try:
            a = _apply(m, env, memo)
        except LangError as e:
            a = str(e)
        memo[key] = a
    if isinstance(a, str):
        raise LangError(a)
    return a


def _apply(m: Term, env: Term | None, memo: dict | None) -> Term:
    """`apply_model` on a memo miss, or with no memo: each layer goes
    through `apply_model` with the same memo."""
    def fn(e):
        return eval_expr(e, env)

    if not (isinstance(m, Ctor) and m.name == "Grid"):
        return map_exprs(m, fn)
    size, color, objs = m.args
    size_a, color_a = map_exprs(size, fn), map_exprs(color, fn)
    objs_a = [apply_model(obj, env, memo) for obj in objs]
    if size_a is size and color_a is color and all(a is o for a, o in zip(objs_a, objs)):
        return m
    return Ctor("Grid", (size_a, color_a, tuple(objs_a)))


def shift_layer_refs(t: Term, insert_pos: int) -> Term:
    """Renumber `layers[j]` variable references for j >= insert_pos.

    Applied to the output model when an object is inserted into the input
    model's layer list, so existing references keep pointing at the same
    object.
    """
    return map_exprs(t, lambda e: _shift_refs(e, insert_pos))


def _shift_refs(e: Term, insert_pos: int) -> Term:
    """`shift_layer_refs` of one expression; a module function, so that its
    recursion makes no reference cycle."""
    if isinstance(e, App):
        return App(e.fn, tuple(_shift_refs(a, insert_pos) for a in e.args))
    if isinstance(e, Var):
        p = e.path
        if len(p) >= 2 and p[0] == "layers" and isinstance(p[1], int) and p[1] >= insert_pos:
            return Var(("layers", p[1] + 1) + p[2:])
    return e


# environment signatures

# (relative path, sort) of each slot of a sole constructor, root first
_SOLE_SLOTS = {sort: tuple((p, s) for p, s, _, _ in slots(t, sort)) for sort, t in SOLE_CTORS.items()}


def signature(input_model: Term) -> dict[str, tuple[tuple, ...]]:
    """Environment paths every parse of `input_model` is guaranteed to
    define, by sort, each sort's paths in slot pre-order.

    Unknowns of vector and object sort expand (their fillings always use the
    sole constructor of the sort); other unknowns stop at the slot itself.
    """
    out: dict[str, list[tuple]] = {}
    for path, sort, _, t in slots(input_model):
        if isinstance(t, Unknown) and sort in _SOLE_SLOTS:
            for p, s in _SOLE_SLOTS[sort]:
                out.setdefault(s, []).append(path + p)
        elif is_expr(t):
            raise LangError("input models carry no expressions")
        elif sort != BITS:
            out.setdefault(sort, []).append(path)
    return {sort: tuple(paths) for sort, paths in out.items()}


def field_steps(path: tuple) -> tuple[str, ...]:
    """Path with list indices dropped, for name-based similarity."""
    return tuple(s for s in path if isinstance(s, str))


# text syntax

def path_to_text(path: tuple) -> str:
    parts: list[str] = []
    for step in path:
        if isinstance(step, int):
            parts[-1] += f"[{step}]"
        else:
            parts.append(step)
    return ".".join(parts)


def term_to_text(t: Term, sort: str = GRID) -> str:
    """Canonical text for a term; `sort` disambiguates colours from naturals."""
    if isinstance(t, Unknown):
        return "?"
    if isinstance(t, Var):
        return path_to_text(t.path)
    if isinstance(t, App):
        if t.fn == "zero":
            return "zero"
        # arithmetic reads left to right, so a compound right operand
        # takes parentheses: x - (y + 1), not x - y + 1
        left, right = (term_to_text(a, NAT) for a in t.args)
        if isinstance(t.args[1], App) and t.args[1].args:
            right = f"({right})"
        return f"{left} {'+' if t.fn == 'plus' else '-'} {right}"
    if isinstance(t, int):
        if sort == COLOR:
            if not 0 <= t < NUM_COLORS:
                raise LangError(f"colour out of range: {t}")
            return COLOR_NAMES[t]
        return str(t)
    if isinstance(t, Ctor):
        fields = ctor_fields(t.name)
        if not fields:
            return t.name
        if t.name == "Bitmap":
            rows = "/".join("".join(str(b) for b in row) for row in t.args[0])
            return f"Bitmap({rows})"
        parts = []
        for arg, (_, fsort, is_list) in zip(t.args, fields):
            if is_list:
                parts.append("[" + ", ".join(term_to_text(x, fsort) for x in arg) + "]")
            else:
                parts.append(term_to_text(arg, fsort))
        return f"{t.name}(" + ", ".join(parts) + ")"
    raise LangError(f"cannot render {t!r}")


def model_to_text(model: Ctor) -> str:
    """Two-line form of a task model: `in:` and `out:` grid terms."""
    if not (isinstance(model, Ctor) and model.name == "InOut"):
        raise LangError("expected an InOut model")
    gin, gout = model.args
    return f"in: {term_to_text(gin, GRID)}\nout: {term_to_text(gout, GRID)}"


class _Parser:
    """Recursive-descent reader for the canonical term syntax."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise LangError(f"parse error at {self.pos}: {msg}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str) -> None:
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            self.error("expected a name or number")
        return self.text[start:self.pos]

    def number(self) -> int:
        w = self.word()
        if not (w.isascii() and w.isdigit()):
            self.error(f"expected a number, got {w!r}")
        return int(w)

    def path(self, first: str | None = None) -> tuple:
        steps: list = []
        w = first if first is not None else self.word()
        while True:
            steps.append(w)
            while self.peek() == "[":
                self.eat("[")
                steps.append(self.number())
                self.eat("]")
            if self.peek() == ".":
                self.eat(".")
                w = self.word()
            else:
                return tuple(steps)

    def term(self, sort: str) -> Term:
        if self.peek() == "?":
            self.eat("?")
            # an unknown may be an operand, as `term_to_text` prints it
            return self.maybe_arith(UNK) if sort == NAT else UNK
        if sort == NAT and self.peek().isdigit():
            n = self.number()
            return self.maybe_arith(n)
        w = self.word()
        if w in CONSTRUCTORS:
            return self.ctor(w, sort)
        if sort == COLOR and w in COLOR_NAMES:
            return COLOR_NAMES.index(w)
        if w == "zero":
            return self.maybe_arith(ZERO) if sort == NAT else ZERO
        if w.isdigit():
            # naturals were read above; only a colour slot takes a bare digit
            if sort == COLOR and w.isascii() and int(w) < NUM_COLORS:
                return int(w)
            self.error(f"number {w} cannot fill a {sort} slot")
        # a bare path: a variable reference
        v = Var(self.path(first=w))
        return self.maybe_arith(v) if sort == NAT else v

    def maybe_arith(self, left: Term) -> Term:
        while True:
            c = self.peek()
            if c == "+":
                self.eat("+")
                left = App("plus", (left, self.atom()))
            elif c == "-":
                self.eat("-")
                left = App("minus", (left, self.atom()))
            else:
                return left

    def atom(self) -> Term:
        if self.peek() == "(":
            self.eat("(")
            t = self.maybe_arith(self.atom())
            self.eat(")")
            return t
        if self.peek() == "?":
            self.eat("?")
            return UNK
        if self.peek().isdigit():
            return self.number()
        w = self.word()
        if w == "zero":
            return ZERO
        return Var(self.path(first=w))

    def ctor(self, name: str, sort: str) -> Term:
        csort, fields = CONSTRUCTORS[name]
        if csort != sort:
            self.error(f"{name} is a {csort}, expected a {sort}")
        if not fields:
            if self.peek() == "(":
                self.eat("(")
                self.eat(")")
            return Ctor(name)
        if name == "Bitmap":
            self.eat("(")
            self.skip_ws()
            rows: list[tuple[int, ...]] = []
            row: list[int] = []
            while (c := self.peek()) != ")":
                if not c:
                    self.error("unterminated bitmap")
                self.pos += 1
                if c == "/":
                    rows.append(tuple(row))
                    row = []
                elif c in "01":
                    row.append(int(c))
                else:
                    self.error(f"bad bitmap character {c!r}")
            rows.append(tuple(row))
            self.eat(")")
            if any(len(r) != len(rows[0]) for r in rows) or not rows[0]:
                self.error("ragged or empty bitmap")
            return Ctor(name, (tuple(rows),))
        self.eat("(")
        args: list = []
        for k, (_, fsort, is_list) in enumerate(fields):
            if k:
                self.eat(",")
            if is_list:
                self.eat("[")
                items: list = []
                while self.peek() != "]":
                    if items:
                        self.eat(",")
                    items.append(self.term(fsort))
                self.eat("]")
                args.append(tuple(items))
            else:
                args.append(self.term(fsort))
        self.eat(")")
        return Ctor(name, tuple(args))


def parse_term(text: str, sort: str = GRID) -> Term:
    p = _Parser(text)
    t = p.term(sort)
    p.skip_ws()
    if p.pos != len(p.text):
        p.error("trailing input")
    return t


def parse_model(text: str) -> Ctor:
    """Read a task model, either `InOut(...)` or the two-line in:/out: form."""
    stripped = text.strip()
    if stripped.startswith("InOut"):
        t = parse_term(stripped, PAIR)
        if not (isinstance(t, Ctor) and t.name == "InOut"):
            raise LangError("expected an InOut model")
        return t
    sides: dict[str, Term] = {}
    for line in stripped.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        side, colon, rest = line.partition(":")
        if not colon or side not in ("in", "out"):
            raise LangError(f"unexpected model line: {line!r}")
        if side in sides:
            raise LangError(f"repeated {side}: line: {line!r}")
        sides[side] = parse_term(rest, GRID)
    if len(sides) < 2:
        raise LangError("model text needs both in: and out: lines")
    return in_out(sides["in"], sides["out"])
