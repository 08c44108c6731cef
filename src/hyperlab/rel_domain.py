"""Relational instance of the computational domain over a finite state space.

States are total maps from the declared variables to bounded integers,
represented as value tuples in declared variable order.  The finitary domain
is the powerset of state pairs, the infinitary domain the powerset of states
(a divergent start state stands for the pair with the bottom pseudo-state).
A program denotation is the triple ``SemTriple(e, inf, br)`` of terminating
pairs, divergent start states, and pairs terminating via break, ordered by
componentwise inclusion.

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
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Tuple

from . import lang
from .lang import BBin, BoolTest, Const, Not, Var

State = Tuple[int, ...]
Rel = frozenset
StateSet = frozenset

ARITH_MODES = ("saturate", "wrap", "prune")


class UnboundVariableError(Exception):
    pass


_INT = frozenset((int,))


def _ints(xs) -> bool:
    """Every item is an int and not a bool.  JSON integers are exactly
    `int`, so the type test alone decides almost every input."""
    return _INT.issuperset(map(type, xs)) or all(
        isinstance(v, int) and not isinstance(v, bool) for v in xs)


@dataclass(frozen=True)
class StateSpace:
    """Finite variable/value universe; bounds are shared or per variable."""

    vars: tuple
    lo: tuple
    hi: tuple
    arith: str = "saturate"

    def __post_init__(self):
        if not self.vars:
            raise ValueError("state space needs at least one variable")
        if len(self.lo) != len(self.vars) or len(self.hi) != len(self.vars):
            raise ValueError("bounds do not match variables")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("lo > hi")
        if self.arith not in ARITH_MODES:
            raise ValueError("unknown arithmetic mode %r" % self.arith)

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
        vs = cfg["vars"]
        if not (isinstance(vs, list) and all(isinstance(v, str) for v in vs)
                and len(set(vs)) == len(vs)):
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

    def to_config(self) -> dict:
        lo = self.lo[0] if len(set(self.lo)) == 1 else list(self.lo)
        hi = self.hi[0] if len(set(self.hi)) == 1 else list(self.hi)
        return {"vars": list(self.vars), "lo": lo, "hi": hi, "arith": self.arith}

    def index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise UnboundVariableError("unbound variable %r (space has: %s)"
                                       % (name, ", ".join(self.vars))) from None

    def states(self) -> tuple:
        return _states(self.vars, self.lo, self.hi)

    def strides(self) -> tuple:
        """Mixed-radix place value of each variable in `states()` order."""
        return _strides(self.lo, self.hi)

    def size(self) -> int:
        return len(self.states())

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


@lru_cache(maxsize=None)
def _states(vars, lo, hi):
    return tuple(product(*[range(l, h + 1) for l, h in zip(lo, hi)]))


@lru_cache(maxsize=None)
def _strides(lo, hi):
    out = [1] * len(lo)
    for i in range(len(lo) - 2, -1, -1):
        out[i] = out[i + 1] * (hi[i + 1] - lo[i + 1] + 1)
    return tuple(out)


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
    if isinstance(e, Const):
        value = e.value
        return lambda s: value
    if isinstance(e, Var):
        if e.name in space.vars:
            return operator.itemgetter(space.index(e.name))
        return lambda s: s[space.index(e.name)]  # raises UnboundVariableError
    if isinstance(e, Not):
        arg = compile_expr(e.arg, space)
        return lambda s: not arg(s)
    left, right = compile_expr(e.left, space), compile_expr(e.right, space)
    if isinstance(e, BBin):
        if e.op == "&&":
            return lambda s: left(s) and right(s)
        return lambda s: left(s) or right(s)
    op = _OPS[e.op]
    return lambda s: op(left(s), right(s))


# ---------------------------------------------------------------------------
# The semantics triple

@dataclass(frozen=True)
class SemTriple:
    """<e: terminating pairs, inf: divergent starts, br: break pairs>."""

    e: Rel
    inf: StateSet
    br: Rel

    def sort_key(self):
        return (tuple(sorted(self.e)), tuple(sorted(self.inf)),
                tuple(sorted(self.br)))


BOTTOM = SemTriple(frozenset(), frozenset(), frozenset())


def triple(e=(), inf=(), br=()) -> SemTriple:
    return SemTriple(frozenset(e), frozenset(inf), frozenset(br))


def pure_e(rel: Iterable) -> SemTriple:
    return SemTriple(frozenset(rel), frozenset(), frozenset())


def identity_rel(space: StateSpace) -> Rel:
    return frozenset((s, s) for s in space.states())


def top_triple(space: StateSpace) -> SemTriple:
    sts = space.states()
    full = frozenset(product(sts, sts))
    return SemTriple(full, frozenset(sts), full)


# ---------------------------------------------------------------------------
# Primitive denotations

def prim(kind, space: StateSpace) -> SemTriple:
    """Denotation of a basic command.

    `kind` is either the string 'init' or one of the basic AST nodes
    (Assign, RandAssign, Skip, Break, BoolTest).  Assignments and tests put
    their relation in e; break puts the identity in br; everything basic has
    an empty divergence component.
    """
    if kind == "init" or isinstance(kind, lang.Skip):
        return pure_e(identity_rel(space))
    if isinstance(kind, lang.Break):
        return SemTriple(frozenset(), frozenset(), identity_rel(space))
    states = space.states()
    if isinstance(kind, BoolTest):
        test = compile_expr(kind.cond, space)
        return pure_e((s, s) for s in states if test(s))
    if not isinstance(kind, (lang.Assign, lang.RandAssign)):
        raise TypeError("not a basic command: %r" % (kind,))
    # setting position i of states[j] from s[i] to v gives
    # states[j + (v - s[i]) * stride]: the tuples are shared, not rebuilt
    i = space.index(kind.var)
    stride = space.strides()[i]
    if isinstance(kind, lang.RandAssign):
        lo = max(space.lo[i], kind.lo)
        hi = min(space.hi[i], kind.hi)
        vals = range(int(lo), int(hi) + 1) if lo <= hi else ()
        return pure_e((s, states[j + (v - s[i]) * stride])
                      for j, s in enumerate(states) for v in vals)
    f = compile_expr(kind.expr, space)
    pairs = []
    for j, s in enumerate(states):
        v = space.clip(i, f(s))
        if v is not None:
            pairs.append((s, states[j + (v - s[i]) * stride]))
    return pure_e(pairs)


# ---------------------------------------------------------------------------
# Operators

def compose_rel(r1: Rel, r2: Rel) -> Rel:
    by_src: dict = {}
    for a, b in r2:
        by_src.setdefault(a, []).append(b)
    return frozenset((a, c) for a, b in r1 for c in by_src.get(b, ()))


def rel_into(r: Rel, targets: StateSet) -> StateSet:
    """States that can reach `targets` in one r-step: r ; (targets x {bot})."""
    return frozenset(a for a, b in r if b in targets)


def compose(t1: SemTriple, t2: SemTriple) -> SemTriple:
    """Sequential composition of triples.

    e chains through e; divergence is inherited from t1 or entered through
    t1's terminating pairs; breaks in t2 are reached through t1's e.
    """
    return SemTriple(
        compose_rel(t1.e, t2.e),
        t1.inf | rel_into(t1.e, t2.inf),
        t1.br | compose_rel(t1.e, t2.br),
    )


def join(t1: SemTriple, t2: SemTriple) -> SemTriple:
    return SemTriple(t1.e | t2.e, t1.inf | t2.inf, t1.br | t2.br)


def meet(t1: SemTriple, t2: SemTriple) -> SemTriple:
    return SemTriple(t1.e & t2.e, t1.inf & t2.inf, t1.br & t2.br)


def leq(t1: SemTriple, t2: SemTriple) -> bool:
    return t1.e <= t2.e and t1.inf <= t2.inf and t1.br <= t2.br


def join_all(ts: Iterable) -> SemTriple:
    out = BOTTOM
    for t in ts:
        out = join(out, t)
    return out


# ---------------------------------------------------------------------------
# Serialization (states as value arrays in declared variable order)

def triple_to_json(t: SemTriple) -> dict:
    return {
        "e": [[list(a), list(b)] for a, b in sorted(t.e)],
        "inf": [list(s) for s in sorted(t.inf)],
        "br": [[list(a), list(b)] for a, b in sorted(t.br)],
    }


def _state_from_json(s) -> State:
    if isinstance(s, list) and _ints(s):
        return tuple(s)
    raise ValueError("a state must be an integer array, got %s" % json.dumps(s))


def _pair_from_json(p) -> Tuple[State, State]:
    if isinstance(p, list) and len(p) == 2:
        return _state_from_json(p[0]), _state_from_json(p[1])
    raise ValueError("a pair must be two states, got %s" % json.dumps(p))


def triple_from_json(d: dict) -> SemTriple:
    """The triple {"e": pairs, "inf": states, "br": pairs}; a missing
    component is empty.  Ill-typed input raises ValueError naming it."""
    if not isinstance(d, dict):
        raise ValueError("a triple must be a JSON object, got %s"
                         % json.dumps(d))
    for key in ("e", "inf", "br"):
        if not isinstance(d.get(key, []), list):
            raise ValueError("triple component %r must be an array, got %s"
                             % (key, json.dumps(d[key])))
    return SemTriple(
        frozenset(map(_pair_from_json, d.get("e", []))),
        frozenset(map(_state_from_json, d.get("inf", []))),
        frozenset(map(_pair_from_json, d.get("br", []))),
    )


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
