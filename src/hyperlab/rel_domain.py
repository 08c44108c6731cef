"""Relational instance of the computational domain over a finite state space.

States are total maps from the declared variables to bounded integers,
represented as value tuples in declared variable order.  `space.states()`
lists them as the lexicographic product of ascending ranges, so a state's
index in that tuple orders states exactly as the tuples do.  The finitary
domain is the powerset of state pairs, the infinitary domain the powerset
of states (a divergent start state stands for the pair with the bottom
pseudo-state).  A relation is stored as a tuple of |S| ints whose row i is
the bitmask of the targets of state i, and a state set as one int mask.
A program denotation is the triple ``SemTriple(e, inf, br)`` of terminating
pairs, divergent start states, and pairs terminating via break, ordered by
componentwise inclusion.  This module alone knows the format: other modules
build values with `triple`/`rel`/`mask` and read them with
`pairs`/`members`, or by index with `index_rel` and `labeled_pairs`/`bits`.
It alone lays out a space, too: `extend(space, var)` appends `var` in
[0, 1] last, so state i with var = c is state 2i + c of the extension, and
`project(t, space)` drops it from a triple again by halving indexes.
`StateSpace` and `SemTriple` are `lang.Record`s; `SemTriple` writes out its
constructor, equality and hash, since a check builds and compares thousands
of triples.

The JSON readers (`StateSpace.from_config`, `triple_from_json`) reject a
key they do not read, naming it, rather than ignore a misspelt one.  The
`StateSpace` constructor rejects a repeated variable or over `MAX_STATES`
states, however it is built (from a JSON config, by `make`, or by `extend`,
which names the extension), and only then lists its states, once.

The componentwise order is the one used throughout; the alternative mixed
(bi-inductive) order on e/inf is noted in the source paper but not
implemented here.

Out-of-range assignment results are handled by the space's arithmetic mode:
``saturate`` clamps to the bounds (the default, which preserves divergence of
runaway loops inside the finite window), ``wrap`` is modular, and ``prune``
drops the transition.
"""

from __future__ import annotations

import json
import operator
from functools import lru_cache
from itertools import compress, product
from math import prod
from typing import Callable, Iterable, Tuple

from . import lang
from .lang import BBin, BoolTest, Const, Not, Var

State = Tuple[int, ...]
Rel = tuple       # one target mask per source state index
StateSet = int    # bit i stands for the state of index i

ARITH_MODES = ("saturate", "wrap", "prune")

# the most states any space may have, whether read from JSON, built by
# `make` or by `extend`: a relation holds |S|^2 bits, and
# the benchmark ladder's widest space has 1331 states
MAX_STATES = 4096

_set = object.__setattr__


class UnboundVariableError(Exception):
    pass


class OutsideSpaceError(ValueError):
    """A well-typed state that is not in the state space."""

    def __init__(self, state: list):
        super().__init__("state %s is outside the state space" % (state,))


_INT = frozenset((int,))

_SPACE_KEYS = frozenset(("vars", "lo", "hi", "arith"))
_TRIPLE_KEYS = frozenset(("e", "inf", "br"))


def unknown_key(d: dict, known: frozenset, what: str) -> str:
    """The error for the first key of `d`, in file order, outside `known`."""
    key = next(k for k in d if k not in known)
    return "%s has unknown key %r (it reads: %s)" % (
        what, key, ", ".join(sorted(known)))


def _ints(xs) -> bool:
    """Every item is an int and not a bool.  JSON integers are exactly
    `int`, so the type test alone decides almost every input."""
    return _INT.issuperset(map(type, xs)) or all(
        isinstance(v, int) and not isinstance(v, bool) for v in xs)


class StateSpace(lang.Record):
    """Finite variable/value universe; bounds are shared or per variable."""

    __slots__ = ("vars", "lo", "hi", "arith", "_states", "_positions",
                 "_strides")

    def __init__(self, vars: tuple, lo: tuple, hi: tuple,
                 arith: str = "saturate"):
        if not vars:
            raise ValueError("state space needs at least one variable")
        if len(set(vars)) != len(vars):
            raise ValueError("state space variables must be distinct, got %s"
                             % json.dumps(list(vars)))
        if len(lo) != len(vars) or len(hi) != len(vars):
            raise ValueError("bounds do not match variables: %d variables, "
                             "%d lo and %d hi bounds"
                             % (len(vars), len(lo), len(hi)))
        for v, l, h in zip(vars, lo, hi):
            if l > h:
                raise ValueError("lo > hi for variable %r: %d > %d" % (v, l, h))
        if arith not in ARITH_MODES:
            raise ValueError("unknown arithmetic mode %r" % arith)
        widths = [h - l + 1 for l, h in zip(lo, hi)]
        n = prod(widths)
        # checked before any state tuple or |S|-by-|S| structure is built
        if n > MAX_STATES:
            raise ValueError("space config has %d states, more than the "
                             "limit of %d" % (n, MAX_STATES))
        _set(self, "vars", vars)
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "arith", arith)
        states = tuple(product(*[range(l, h + 1) for l, h in zip(lo, hi)]))
        _set(self, "_states", states)
        _set(self, "_positions", {s: i for i, s in enumerate(states)})
        _set(self, "_strides",
             tuple(prod(widths[i + 1:]) for i in range(len(widths))))

    @staticmethod
    def make(vars, lo, hi, arith="saturate") -> "StateSpace":
        vs = tuple(vars)
        los = tuple(lo) if isinstance(lo, (tuple, list)) else (lo,) * len(vs)
        his = tuple(hi) if isinstance(hi, (tuple, list)) else (hi,) * len(vs)
        return StateSpace(vs, los, his, arith)

    @staticmethod
    def from_config(cfg: dict) -> "StateSpace":
        if not isinstance(cfg, dict):
            raise ValueError("space config must be a JSON object")
        missing = [k for k in ("vars", "lo", "hi") if k not in cfg]
        if missing:
            raise ValueError("space config has no %s" %
                             ", ".join(repr(k) for k in missing))
        if not cfg.keys() <= _SPACE_KEYS:
            raise ValueError(unknown_key(cfg, _SPACE_KEYS, "space config"))
        vs = cfg["vars"]
        if not (isinstance(vs, list) and all(isinstance(v, str) for v in vs)):
            raise ValueError("space config 'vars' must be an array of "
                             "distinct strings, got %s" % json.dumps(vs))
        for key in ("lo", "hi"):
            b = cfg[key]
            if not _ints(b if isinstance(b, list) else (b,)):
                raise ValueError("space config %r must be an integer or an "
                                 "array of integers, got %s"
                                 % (key, json.dumps(b)))
        return StateSpace.make(vs, cfg["lo"], cfg["hi"],
                               cfg.get("arith", "saturate"))

    def index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise UnboundVariableError("unbound variable %r (space has: %s)"
                                       % (name, ", ".join(self.vars))) from None

    def states(self) -> tuple:
        return self._states

    def positions(self) -> dict:
        """State tuple -> its index in `states()`."""
        return self._positions

    def strides(self) -> tuple:
        """Mixed-radix place value of each variable in `states()` order."""
        return self._strides

    def size(self) -> int:
        return len(self._states)

    def clip(self, i: int, v: int):
        """Apply the arithmetic mode to an assignment result; None = pruned."""
        lo, hi = self.lo[i], self.hi[i]
        if lo <= v <= hi:
            return v
        if self.arith == "saturate":
            return lo if v < lo else hi
        if self.arith == "wrap":
            return lo + (v - lo) % (hi - lo + 1)
        return None


def extend(space: StateSpace, var: str) -> StateSpace:
    """`space` with `var` in [0, 1] appended last: state i of `space` with
    var = c is state 2i + c of the extension."""
    n = 2 * space.size()  # checked here, so the error names the extension
    if n > MAX_STATES:
        raise ValueError("the one-bit extension has %d states, more than the "
                         "limit of %d" % (n, MAX_STATES))
    return StateSpace(space.vars + (var,), space.lo + (0,), space.hi + (1,),
                      space.arith)


# ---------------------------------------------------------------------------
# Expression kernels

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compile_expr(e, space: StateSpace) -> Callable[[State], object]:
    """The arithmetic or boolean expression `e` as a function of a state
    tuple, with each variable's position resolved once.

    An unbound variable compiles to a kernel that raises
    UnboundVariableError when it is evaluated, so an operand that `&&`/`||`
    never evaluates need not be bound.
    """
    cls = e.__class__
    if cls is Const:
        value = e.value
        return lambda s: value
    if cls is Var:
        if e.name in space.vars:
            return operator.itemgetter(space.index(e.name))
        return lambda s: s[space.index(e.name)]  # raises UnboundVariableError
    if cls is Not:
        arg = compile_expr(e.arg, space)
        return lambda s: not arg(s)
    if cls is not BBin and e.right.__class__ is Const:
        # x - 1, x != 0: no call for the constant, none for a bound x
        op, value, x = _OPS[e.op], e.right.value, e.left
        if x.__class__ is Var and x.name in space.vars:
            i = space.index(x.name)
            return lambda s: op(s[i], value)
        left = compile_expr(x, space)
        return lambda s: op(left(s), value)
    left = compile_expr(e.left, space)
    right = compile_expr(e.right, space)
    if cls is BBin:
        if e.op == "&&":
            return lambda s: left(s) and right(s)
        return lambda s: left(s) or right(s)
    op = _OPS[e.op]
    return lambda s: op(left(s), right(s))


# ---------------------------------------------------------------------------
# Relations as rows, state sets as masks

def bits(m: int):
    """The set bits of `m`, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def labeled_pairs(rel: Rel, labels) -> list:
    """(labels[i], labels[j]) for the pairs (i, j) of `rel`, ascending;
    `range(len(rel))` as labels gives the index pairs."""
    out = []
    for i, m in compress(enumerate(rel), rel):  # the rows with a target
        a = labels[i]
        while m:
            low = m & -m
            out.append((a, labels[low.bit_length() - 1]))
            m ^= low
    return out


def pairs(rel: Rel, space: StateSpace) -> list:
    """The pairs of `rel` as state tuples, in sorted order."""
    return labeled_pairs(rel, space.states())


def members(m: StateSet, space: StateSpace):
    """The states of the mask `m`, in sorted order."""
    states = space.states()
    return (states[i] for i in bits(m))


def rel(state_pairs: Iterable, space: StateSpace) -> Rel:
    """The relation holding the given (state, state) pairs."""
    at = space.positions()
    return index_rel(((at[a], at[b]) for a, b in state_pairs), space)


def index_rel(index_pairs: Iterable, space: StateSpace) -> Rel:
    """The relation holding the given (index, index) pairs."""
    rows = [0] * space.size()
    for i, j in index_pairs:
        rows[i] |= 1 << j
    return tuple(rows)


def mask(states: Iterable, space: StateSpace) -> StateSet:
    """The state set holding the given states."""
    at = space.positions()
    return sum(1 << i for i in set(map(at.__getitem__, states)))


@lru_cache(maxsize=None)
def _identity(n: int) -> Rel:
    return tuple(1 << i for i in range(n))


def empty_rel(space: StateSpace) -> Rel:
    return (0,) * space.size()


def identity_rel(space: StateSpace) -> Rel:
    return _identity(space.size())


def union(r1: Rel, r2: Rel) -> Rel:
    return tuple(map(operator.or_, r1, r2))


def intersection(r1: Rel, r2: Rel) -> Rel:
    return tuple(map(operator.and_, r1, r2))


def difference(r1: Rel, r2: Rel) -> Rel:
    return tuple(map(operator.and_, r1, map(operator.invert, r2)))


def rel_leq(r1: Rel, r2: Rel) -> bool:
    """Inclusion of relations."""
    return union(r1, r2) == r2


# ---------------------------------------------------------------------------
# The semantics triple

class SemTriple(lang.Record):
    """<e: terminating pairs, inf: divergent starts, br: break pairs>.

    `e` and `br` are relations (one target mask per source index) and `inf`
    is a state mask, all over one space."""

    __slots__ = ("e", "inf", "br")

    def __init__(self, e: Rel, inf: StateSet, br: Rel):
        _set_e(self, e)
        _set_inf(self, inf)
        _set_br(self, br)

    def __eq__(self, other):
        if other.__class__ is not SemTriple:
            return NotImplemented
        # tuples compare shared components by identity first
        return (self.e, self.inf, self.br) == (other.e, other.inf, other.br)

    def __hash__(self):
        return hash((self.e, self.inf, self.br))

    def sort_key(self):
        """The order of the sorted state pairs and states: index order is
        tuple order, so index pairs give it without the space."""
        indexes = range(len(self.e))
        return (tuple(labeled_pairs(self.e, indexes)),
                tuple(bits(self.inf)),
                tuple(labeled_pairs(self.br, indexes)))


_set_e, _set_inf, _set_br = lang.slot_setters(SemTriple)


def bottom(space: StateSpace) -> SemTriple:
    empty = empty_rel(space)
    return SemTriple(empty, 0, empty)


def triple(space: StateSpace, e=(), inf=(), br=()) -> SemTriple:
    """The triple of the given state pairs and divergent states."""
    return SemTriple(rel(e, space), mask(inf, space), rel(br, space))


def pure_e(r: Rel) -> SemTriple:
    return SemTriple(r, 0, (0,) * len(r))


def top_triple(space: StateSpace) -> SemTriple:
    n = space.size()
    full = ((1 << n) - 1,) * n
    return SemTriple(full, (1 << n) - 1, full)


def project(t: SemTriple, space: StateSpace) -> SemTriple:
    """`t` over `extend(space, var)` with `var` dropped, over `space`: pair
    (i, j) becomes (i >> 1, j >> 1) and divergent state i becomes i >> 1."""
    halves = [i >> 1 for i in range(2 * space.size())]
    inf = sum(1 << i for i in {i >> 1 for i in bits(t.inf)})
    return SemTriple(index_rel(labeled_pairs(t.e, halves), space), inf,
                     index_rel(labeled_pairs(t.br, halves), space))


# ---------------------------------------------------------------------------
# Primitive denotations

def prim(kind, space: StateSpace) -> SemTriple:
    """Denotation of a basic command.

    `kind` is either the string 'init' or one of the basic AST nodes
    (Assign, RandAssign, Skip, Break, BoolTest).  Assignments and tests put
    their relation in e; break puts the identity in br; everything basic has
    an empty divergence component.
    """
    cls = kind.__class__
    if cls is BoolTest:
        test = compile_expr(kind.cond, space)  # a bool per state
        return pure_e(tuple(map(operator.mul, identity_rel(space),
                                map(test, space.states()))))
    if cls is not lang.Assign and cls is not lang.RandAssign:
        if cls is lang.Skip or kind == "init":
            return pure_e(identity_rel(space))
        if cls is lang.Break:
            return SemTriple(empty_rel(space), 0, identity_rel(space))
        raise TypeError("not a basic command: %r" % (kind,))
    # setting position i of states[j] from s[i] to v gives the state of
    # index j + (v - s[i]) * stride
    states = space.states()
    i = space.index(kind.var)
    stride = space.strides()[i]
    lo, hi = space.lo[i], space.hi[i]
    if cls is lang.RandAssign:
        lo, hi = max(lo, kind.lo), min(hi, kind.hi)
        if lo > hi:
            return pure_e(empty_rel(space))
        lo, hi = int(lo), int(hi)
        # the targets of states[j] are this pattern shifted to its value lo
        pattern = sum(1 << k * stride for k in range(hi - lo + 1))
        return pure_e(tuple(pattern << j + (lo - s[i]) * stride
                            for j, s in enumerate(states)))
    f = compile_expr(kind.expr, space)
    rows = []
    for j, s in enumerate(states):
        v = f(s)
        if not lo <= v <= hi:  # an in-range value is its own clip
            v = space.clip(i, v)
        rows.append(0 if v is None else 1 << j + (v - s[i]) * stride)
    return pure_e(tuple(rows))


# ---------------------------------------------------------------------------
# Operators

def compose_rel(r1: Rel, r2: Rel) -> Rel:
    """r1 ; r2: row i is the union of the rows of r2 that row i of r1
    selects."""
    if not any(r2):
        return r2
    if max(map(int.bit_count, r1)) <= 1:  # a partial function: look rows up
        return tuple(map(((0,) + r2).__getitem__, map(int.bit_length, r1)))
    live = sum(compress(_identity(len(r2)), r2))  # the rows with a target
    out = []
    for m in r1:
        acc, m = 0, m & live
        while m:
            low = m & -m
            acc |= r2[low.bit_length() - 1]
            m ^= low
        out.append(acc)
    return tuple(out)


def residual(r1: Rel, r2: Rel) -> Rel:
    """The largest X with X ; r1 <= r2: the pairs (a, b) where the targets
    of b in r1 are targets of a in r2."""
    ids = _identity(len(r1))
    return tuple(sum(compress(ids, [not m & ~row for m in r1])) for row in r2)


def bottom_residual(m1: StateSet, m2: StateSet, space: StateSpace) -> Rel:
    """`residual` of m1 x {bot} by m2 x {bot}, the state sets read as
    relations into the bottom pseudo-state: the pairs (a, b) where b is in
    m1 only if a is in m2."""
    n = space.size()
    full = (1 << n) - 1
    return tuple(full if m2 >> a & 1 else full & ~m1 for a in range(n))


def rel_into(r: Rel, targets: StateSet) -> StateSet:
    """States that can reach `targets` in one r-step: r ; (targets x {bot})."""
    if not targets:
        return 0
    # the bits of the sources whose rows meet the targets, summed
    return sum(compress(_identity(len(r)), map(targets.__and__, r)))


def compose(t1: SemTriple, t2: SemTriple) -> SemTriple:
    """Sequential composition of triples.

    e chains through e; divergence is inherited from t1 or entered through
    t1's terminating pairs; breaks in t2 are reached through t1's e.
    """
    return SemTriple(
        compose_rel(t1.e, t2.e),
        t1.inf | rel_into(t1.e, t2.inf),
        union(t1.br, compose_rel(t1.e, t2.br)),
    )


def join(t1: SemTriple, t2: SemTriple) -> SemTriple:
    return SemTriple(union(t1.e, t2.e), t1.inf | t2.inf, union(t1.br, t2.br))


def meet(t1: SemTriple, t2: SemTriple) -> SemTriple:
    return SemTriple(intersection(t1.e, t2.e), t1.inf & t2.inf,
                     intersection(t1.br, t2.br))


def leq(t1: SemTriple, t2: SemTriple) -> bool:
    return (t1.inf | t2.inf == t2.inf and rel_leq(t1.e, t2.e)
            and rel_leq(t1.br, t2.br))


def join_all(ts: Iterable, space: StateSpace) -> SemTriple:
    out = bottom(space)
    for t in ts:
        out = join(out, t)
    return out


# ---------------------------------------------------------------------------
# Serialization (states as value arrays in declared variable order)

def triple_to_json(t: SemTriple, space: StateSpace) -> dict:
    states = space.states()

    def pair_list(r):
        return [[list(a), list(b)] for a, b in labeled_pairs(r, states)]
    return {"e": pair_list(t.e), "inf": [list(states[i]) for i in bits(t.inf)],
            "br": pair_list(t.br)}


def _locate(s, index: dict, outside: dict, key: str) -> int:
    """The index of the JSON state `s`; a well-typed state outside the space
    is noted under `key` (the first per key) and located at 0."""
    if isinstance(s, list) and (_INT.issuperset(map(type, s)) or _ints(s)):
        i = index.get(tuple(s))
        if i is not None:
            return i
        outside.setdefault(key, s)
        return 0
    raise ValueError("a state must be an integer array, got %s" % json.dumps(s))


def _rel_from_json(ps: list, index: dict, outside: dict, key: str) -> Rel:
    rows = [0] * len(index)
    for p in ps:
        if not (isinstance(p, list) and len(p) == 2):
            raise ValueError("a pair must be two states, got %s" % json.dumps(p))
        a, b = p
        rows[_locate(a, index, outside, key)] |= \
            1 << _locate(b, index, outside, key)
    return tuple(rows)


def triple_from_json(d: dict, space: StateSpace) -> SemTriple:
    """The triple {"e": pairs, "inf": states, "br": pairs} over `space`; a
    missing component is empty.  Ill-typed input or another key raises
    ValueError naming it; when the whole triple is well typed, a state
    outside the space raises OutsideSpaceError naming the first such state
    in file order."""
    if not isinstance(d, dict):
        raise ValueError("a triple must be a JSON object, got %s"
                         % json.dumps(d))
    if not d.keys() <= _TRIPLE_KEYS:  # one test per triple: this is hot
        raise ValueError(unknown_key(d, _TRIPLE_KEYS, "a triple"))
    for key in ("e", "inf", "br"):
        if not isinstance(d.get(key, []), list):
            raise ValueError("triple component %r must be an array, got %s"
                             % (key, json.dumps(d[key])))
    index, outside = space.positions(), {}
    e = _rel_from_json(d.get("e", ()), index, outside, "e")
    inf = 0
    for s in d.get("inf", ()):
        inf |= 1 << _locate(s, index, outside, "inf")
    br = _rel_from_json(d.get("br", ()), index, outside, "br")
    for key in d:
        if key in outside:
            raise OutsideSpaceError(outside[key])
    return SemTriple(e, inf, br)


# the lab's payloads are trees it builds itself, so no cycle check is needed
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              check_circular=False)


def dumps_canonical(obj) -> str:
    return _CANONICAL.encode(obj)
