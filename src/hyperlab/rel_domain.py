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
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Tuple

from . import lang
from .lang import BExpr, BoolTest, Cmp, Const, Not, Var

State = Tuple[int, ...]
Rel = frozenset
StateSet = frozenset

ARITH_MODES = ("saturate", "wrap", "prune")


class UnboundVariableError(Exception):
    pass


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


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
            if not (_is_int(b) or isinstance(b, list) and all(map(_is_int, b))):
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


# ---------------------------------------------------------------------------
# Expression evaluation

def eval_aexpr(e: lang.AExpr, space: StateSpace, sigma: State) -> int:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return sigma[space.index(e.name)]
    l = eval_aexpr(e.left, space, sigma)
    r = eval_aexpr(e.right, space, sigma)
    if e.op == "+":
        return l + r
    if e.op == "-":
        return l - r
    return l * r


_CMP = {"==": lambda a, b: a == b, "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}


def eval_bexpr(b: BExpr, space: StateSpace, sigma: State) -> bool:
    if isinstance(b, Cmp):
        return _CMP[b.op](eval_aexpr(b.left, space, sigma),
                          eval_aexpr(b.right, space, sigma))
    if isinstance(b, Not):
        return not eval_bexpr(b.arg, space, sigma)
    if b.op == "&&":
        return eval_bexpr(b.left, space, sigma) and eval_bexpr(b.right, space, sigma)
    return eval_bexpr(b.left, space, sigma) or eval_bexpr(b.right, space, sigma)


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
    if isinstance(kind, BoolTest):
        rel = frozenset((s, s) for s in space.states()
                        if eval_bexpr(kind.cond, space, s))
        return pure_e(rel)
    if isinstance(kind, lang.Assign):
        i = space.index(kind.var)
        pairs = []
        for s in space.states():
            v = space.clip(i, eval_aexpr(kind.expr, space, s))
            if v is not None:
                pairs.append((s, s[:i] + (v,) + s[i + 1:]))
        return pure_e(pairs)
    if isinstance(kind, lang.RandAssign):
        i = space.index(kind.var)
        lo = max(space.lo[i], kind.lo)
        hi = min(space.hi[i], kind.hi)
        vals = range(int(lo), int(hi) + 1) if lo <= hi else ()
        pairs = [(s, s[:i] + (v,) + s[i + 1:])
                 for s in space.states() for v in vals]
        return pure_e(pairs)
    raise TypeError("not a basic command: %r" % (kind,))


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
    if isinstance(s, list) and all(map(_is_int, s)):
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
