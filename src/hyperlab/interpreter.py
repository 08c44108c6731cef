"""Structural fixpoint semantics and an independent small-step oracle.

`sem` computes the denotation triple by structural recursion: basic commands
via `prim`, sequences via composition, conditionals as the join of the two
guarded branches, and loops by `loop_post` applied to the identity.
`loop_post` is the one loop routine of the lab: from the guarded body's
triple and a precondition it takes two fixpoints, the least fixpoint of the
forward entry transformer (the executions reaching the loop head) and the
greatest fixpoint of the divergence transformer (the starts that iterate
forever).  `transformers.post_structural` and the hyperlogic while rules call
it too, each with its own body triple and precondition.  All fixpoints run
to stabilization; every carrier here is finite, so no widening is needed and
the iteration count is bounded by the carrier size.

`oracle_sem` rebuilds the same triple operationally.  It compiles the
statement once into a flat instruction list over integer program points,
encodes a configuration as the int pc * |S| + state index, and runs one
Tarjan pass over the configuration graph, discovered on the fly from every
start state.  Tarjan closes the strongly connected components in reverse
topological order, so each closed SCC folds in its successors' results: the
reachable end and break states (bitmasks over state indexes) and whether it
can diverge.  On a finite graph an execution diverges exactly when it can
reach a cycle, i.e. an SCC with an internal edge.  The oracle uses only the
AST, `StateSpace`, expression evaluation and `SemTriple`, never `sem`, the
fixpoint routines or the relational operators; the two routes are
independent, which is what makes sem == oracle_sem a meaningful check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable

from . import lang, rel_domain as rd
from .lang import (Assign, BoolTest, Break, If, RandAssign, Seq, Skip, While,
                   neg)
from .rel_domain import SemTriple, StateSpace, compose, join, prim


class NonMonotoneError(Exception):
    """Raised when fixpoint iterates fail to form a chain."""

    def __init__(self, iteration: int):
        super().__init__("iterate %d is not comparable with its predecessor"
                         % iteration)
        self.iteration = iteration


class FixpointDivergenceError(Exception):
    pass


@dataclass(frozen=True)
class FixpointReport:
    iterations: int
    result: object


def lfp(f: Callable, bottom, le: Callable = None, max_iter: int = None) -> FixpointReport:
    """Least fixpoint by Kleene iteration from `bottom`.

    `le` (if given) checks that the iterates increase; a violation means the
    caller's function is not monotone and raises NonMonotoneError naming the
    offending iterate.  `max_iter` bounds the iteration (use the lattice
    height); exceeding it raises instead of looping.
    """
    x = bottom
    n = 0
    while True:
        y = f(x)
        n += 1
        if y == x:
            return FixpointReport(n, x)
        if le is not None and not le(x, y):
            raise NonMonotoneError(n)
        if max_iter is not None and n > max_iter:
            raise FixpointDivergenceError("no fixpoint after %d iterations" % n)
        x = y


def gfp(f: Callable, top, ge: Callable = None, max_iter: int = None) -> FixpointReport:
    """Greatest fixpoint by iteration from `top`; dual of lfp."""
    x = top
    n = 0
    while True:
        y = f(x)
        n += 1
        if y == x:
            return FixpointReport(n, x)
        if ge is not None and not ge(x, y):
            raise NonMonotoneError(n)
        if max_iter is not None and n > max_iter:
            raise FixpointDivergenceError("no fixpoint after %d iterations" % n)
        x = y


def _subset(a, b):
    return a <= b


def _supset(a, b):
    return a >= b


# ---------------------------------------------------------------------------
# Loop transformers

def body_triple(b: lang.BExpr, body: lang.Stmt, space: StateSpace) -> SemTriple:
    """Denotation of the guarded body B;S."""
    return compose(prim(BoolTest(b), space), sem(body, space))


def loop_post(cond: lang.BExpr, bs: SemTriple, p: SemTriple,
              space: StateSpace) -> SemTriple:
    """post of `while (cond) body` on the precondition p, given bs = sem(B;S).

    The least fixpoint of X -> p.e | X ; bs.e is reach = p.e ; bs.e*, the
    executions at the loop head after finitely many body iterations; they
    leave through the negated guard or a break of the body.  The greatest
    fixpoint of X -> pre[B;S](X) is the set of starts that iterate forever.
    The loop's own breaks are consumed, so p.br passes through unchanged.
    """
    n = len(space.states())
    reach = lfp(lambda x: p.e | rd.compose_rel(x, bs.e), frozenset(),
                le=_subset, max_iter=n * n + 2).result
    div = gfp(lambda x: rd.rel_into(bs.e, x), frozenset(space.states()),
              ge=_supset, max_iter=n + 2).result
    exits = prim(BoolTest(neg(cond)), space).e | bs.br
    return SemTriple(rd.compose_rel(reach, exits),
                     p.inf | rd.rel_into(reach, bs.inf) | rd.rel_into(p.e, div),
                     p.br)


def powers(rel, space: StateSpace, n: int) -> list:
    """Relation powers X^0 = identity, X^{d+1} = X ; X^d."""
    out = [rd.identity_rel(space)]
    for _ in range(n):
        out.append(rd.compose_rel(rel, out[-1]))
    return out


# ---------------------------------------------------------------------------
# Structural semantics

def sem(s: lang.Stmt, space: StateSpace) -> SemTriple:
    """Denotation triple of a statement.

    Free breaks land in the br component; callers that want a whole program
    (empty top-level br) should run validate_breaks first.
    """
    if isinstance(s, (Assign, RandAssign, Skip, Break, BoolTest)):
        return prim(s, space)
    if isinstance(s, Seq):
        return compose(sem(s.first, space), sem(s.second, space))
    if isinstance(s, If):
        t1 = compose(prim(BoolTest(s.cond), space), sem(s.then, space))
        t2 = compose(prim(BoolTest(neg(s.cond)), space), sem(s.orelse, space))
        return join(t1, t2)
    if isinstance(s, While):
        return loop_post(s.cond, body_triple(s.cond, s.body, space),
                         prim("init", space), space)
    raise TypeError(s)


# ---------------------------------------------------------------------------
# Small-step oracle

_END, _BREAK = 0, 1  # terminal program points: normal end, free break


def _compile(s: lang.Stmt, space: StateSpace):
    """(entry pc, code): `s` as instructions whose successors are pcs.

    `Skip` compiles to its continuation and `Break` to the exit of its
    innermost loop, or to the free-break terminal outside any loop.
    """
    code = [("end",), ("break",)]

    def emit(op):
        code.append(op)
        return len(code) - 1

    def comp(s, nxt, brk):
        if isinstance(s, Skip):
            return nxt
        if isinstance(s, Break):
            return brk
        if isinstance(s, Seq):
            return comp(s.first, comp(s.second, nxt, brk), brk)
        if isinstance(s, Assign):
            return emit(("assign", space.index(s.var), s.expr, nxt))
        if isinstance(s, RandAssign):
            i = space.index(s.var)
            lo, hi = max(space.lo[i], s.lo), min(space.hi[i], s.hi)
            vals = range(int(lo), int(hi) + 1) if lo <= hi else range(0)
            return emit(("rand", i, vals, nxt))
        if isinstance(s, BoolTest):
            return emit(("test", s.cond, nxt))
        if isinstance(s, If):
            return emit(("if", s.cond, comp(s.then, nxt, brk),
                         comp(s.orelse, nxt, brk)))
        if isinstance(s, While):
            head = emit(None)
            code[head] = ("loop", s.cond, comp(s.body, head, nxt), nxt)
            return head
        raise TypeError(s)

    return comp(s, _END, _BREAK), code


def oracle_sem(s: lang.Stmt, space: StateSpace) -> SemTriple:
    """Independent denotation from the reachable configuration graph.

    A configuration is the int pc * |S| + state index.  One Tarjan pass from
    the |S| start configurations discovers the graph and closes its SCCs in
    reverse topological order; each closed SCC folds in its successors'
    end-state and break-state bitmasks and "can diverge" flags.  An SCC can
    diverge when it has an internal edge (it lies on a cycle) or a successor
    SCC can.  A free break terminates the program via the br component,
    matching the structural semantics on such fragments.
    """
    entry, code = _compile(s, space)
    states = space.states()
    n = len(states)
    stride = [1] * len(space.vars)  # mixed-radix place value of each variable
    for i in range(len(stride) - 2, -1, -1):
        stride[i] = stride[i + 1] * (space.hi[i + 1] - space.lo[i + 1] + 1)

    def succ(cfg):
        pc, j = divmod(cfg, n)
        op, sigma = code[pc], states[j]
        kind = op[0]
        if kind == "assign":
            _, i, expr, nxt = op
            v = space.clip(i, rd.eval_aexpr(expr, space, sigma))
            return () if v is None else (nxt * n + j + (v - sigma[i]) * stride[i],)
        if kind == "rand":
            _, i, vals, nxt = op
            base = nxt * n + j - sigma[i] * stride[i]
            return tuple(base + v * stride[i] for v in vals)
        if kind == "test":
            return (op[2] * n + j,) if rd.eval_bexpr(op[1], space, sigma) else ()
        if kind in ("if", "loop"):
            return ((op[2] if rd.eval_bexpr(op[1], space, sigma) else op[3])
                    * n + j,)
        return ()

    size = len(code) * n
    num = [0] * size        # DFS number; 0 = not yet discovered
    low = [0] * size
    out = [()] * size       # successors, computed once at discovery
    res = [None] * size     # (end mask, break mask, can diverge) of a closed SCC
    stack, work = [], []
    counter = count(1)

    def discover(w):
        num[w] = low[w] = next(counter)
        out[w] = succ(w)
        stack.append(w)
        work.append((w, iter(out[w])))

    for root in range(entry * n, entry * n + n):
        if not num[root]:
            discover(root)
        while work:
            v, it = work[-1]
            for w in it:
                if not num[w]:
                    discover(w)
                    break
                if res[w] is None and num[w] < low[v]:  # w is on the stack
                    low[v] = num[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] != num[v]:
                    continue
                k = len(stack) - 1
                while stack[k] != v:
                    k -= 1
                scc = stack[k:]
                del stack[k:]
                end, brk, div = 0, 0, False
                for m in scc:
                    pc, j = divmod(m, n)
                    end |= (pc == _END) << j
                    brk |= (pc == _BREAK) << j
                    for w in out[m]:
                        r = res[w]
                        if r is None:  # an edge inside the SCC: a cycle
                            div = True
                        else:
                            end, brk, div = end | r[0], brk | r[1], div or r[2]
                r = (end, brk, div)
                for m in scc:
                    res[m] = r

    def pairs(sigma, mask):
        while mask:
            bit = mask & -mask
            yield sigma, states[bit.bit_length() - 1]
            mask ^= bit

    starts = [(sigma, res[entry * n + j]) for j, sigma in enumerate(states)]
    return SemTriple(
        frozenset(p for sigma, r in starts for p in pairs(sigma, r[0])),
        frozenset(sigma for sigma, r in starts if r[2]),
        frozenset(p for sigma, r in starts for p in pairs(sigma, r[1])))
