"""The generic structural interpreter, its fixpoints, and a small-step oracle.

`interpret(s, d)` is the one routine that decides how a statement
decomposes: a basic command is `d.prim`, a sequence `d.seq` of its parts, a
conditional `d.join` of its two guarded branches, and a loop `d.loop` of its
guard and guarded body.  The `Algebra` `d` is the relational one here
(`sem`), the post transformers (`transformers.transformer`) or the bounded
traces (`trace_domain.traces`).  The relational values are dense: a
relation is one target bitmask per source state index, a state set one mask
(`rel_domain`).  The relational loop `loop_triple` takes both fixpoints once
per guarded body, the divergence gfp on masks and the closure lfp on rows,
and returns the loop's own triple: `sem` uses it as it is, and the post
transformers compose each precondition with it.  Every carrier is finite, so the fixpoints run to
stabilization without widening.

`oracle_sem` rebuilds the denotation triple operationally.  It compiles the
statement once into a flat instruction list over integer program points,
encodes a configuration as the int pc * |S| + state index, and runs one
Tarjan pass over the configuration graph, discovered on the fly from every
start state.  Tarjan closes the strongly connected components in reverse
topological order, so each closed SCC folds in its successors' results: the
reachable end and break states (bitmasks over state indexes) and whether it
can diverge.  On a finite graph an execution diverges exactly when it can
reach a cycle, i.e. an SCC with an internal edge.  The start states' end
and break bitmasks are already the rows of the e and br relations.  The
oracle uses only the AST, `StateSpace`, compiled expression kernels
(`rel_domain.compile_expr`, built when the pass first reaches an
instruction) and `SemTriple`, never `interpret`, the fixpoint routines or
the relational operators; the two routes are independent, which is what
makes sem == oracle_sem a meaningful check.
"""

from __future__ import annotations

from itertools import count
from typing import Callable

from . import lang, rel_domain as rd
from .lang import (Assign, BoolTest, Break, If, RandAssign, Seq, Skip, While,
                   neg)
from .rel_domain import SemTriple, StateSpace, compose, join, prim


_set = object.__setattr__


class NonMonotoneError(Exception):
    """Raised when fixpoint iterates fail to form a chain."""

    def __init__(self, iteration: int):
        super().__init__("iterate %d is not comparable with its predecessor"
                         % iteration)
        self.iteration = iteration


class FixpointDivergenceError(Exception):
    pass


class FixpointReport(lang.Record):
    __slots__ = ("iterations", "result")

    def __init__(self, iterations: int, result):
        _set(self, "iterations", iterations)
        _set(self, "result", result)


def _iterate(f: Callable, x, ordered: Callable, max_iter: int) -> FixpointReport:
    n = 0
    while True:
        y = f(x)
        n += 1
        if y == x:
            return FixpointReport(n, x)
        if ordered is not None and not ordered(x, y):
            raise NonMonotoneError(n)
        if max_iter is not None and n > max_iter:
            raise FixpointDivergenceError("no fixpoint after %d iterations" % n)
        x = y


def lfp(f: Callable, bottom, le: Callable = None, max_iter: int = None) -> FixpointReport:
    """Least fixpoint by Kleene iteration from `bottom`.

    `le` (if given) checks that the iterates increase; a violation means the
    caller's function is not monotone and raises NonMonotoneError naming the
    offending iterate.  `max_iter` bounds the iteration (use the lattice
    height); exceeding it raises instead of looping.
    """
    return _iterate(f, bottom, le, max_iter)


def gfp(f: Callable, top, ge: Callable = None, max_iter: int = None) -> FixpointReport:
    """Greatest fixpoint by iteration from `top`; dual of lfp."""
    return _iterate(f, top, ge, max_iter)


# ---------------------------------------------------------------------------
# The generic structural interpreter

class Algebra(lang.Record):
    """Values of a basic command `prim(s)`, a sequence `seq(a, b)`, a choice
    `join(a, b)`, and `loop(cond, body)` given the guarded body's value."""

    __slots__ = ("prim", "seq", "join", "loop")

    def __init__(self, prim: Callable, seq: Callable, join: Callable,
                 loop: Callable):
        _set(self, "prim", prim)
        _set(self, "seq", seq)
        _set(self, "join", join)
        _set(self, "loop", loop)


def guarded(b: lang.BExpr, s: lang.Stmt, d: Algebra):
    """Value of the guarded command B;S."""
    return d.seq(d.prim(BoolTest(b)), interpret(s, d))


def interpret(s: lang.Stmt, d: Algebra):
    """Value of a statement in the algebra `d`, by structural recursion."""
    if isinstance(s, Seq):
        return d.seq(interpret(s.first, d), interpret(s.second, d))
    if isinstance(s, If):
        return d.join(guarded(s.cond, s.then, d),
                      guarded(neg(s.cond), s.orelse, d))
    if isinstance(s, While):
        return d.loop(s.cond, guarded(s.cond, s.body, d))
    return d.prim(s)


# ---------------------------------------------------------------------------
# The relational algebra

def loop_triple(cond: lang.BExpr, bs: SemTriple,
                space: StateSpace) -> SemTriple:
    """sem of `while (cond) body`, given bs = sem(B;S).

    The post of the loop on a precondition p composes p with this triple,
    and neither fixpoint depends on p.  The greatest fixpoint of
    X -> pre[B;S](X), a state mask, holds the starts that iterate forever.
    The least fixpoint of X -> id | X ; bs.e is the closure bs.e*, taken
    semi-naively: each round composes only the pairs the previous round
    added.  The executions at the loop head are p.e ; bs.e*; they leave
    through the negated guard or a break of the body, or diverge in the
    body.  The loop consumes its own breaks, so composing p with the triple
    passes p.br through unchanged.
    """
    n = space.size()
    div = gfp(lambda x: rd.rel_into(bs.e, x), (1 << n) - 1,
              ge=lambda x, y: x | y == x, max_iter=n + 2).result
    frontier = rd.identity_rel(space)

    def grow(x):
        nonlocal frontier
        x = rd.union(x, frontier)
        frontier = rd.difference(rd.compose_rel(frontier, bs.e), x)
        return x

    star = lfp(grow, rd.empty_rel(space), le=rd.rel_leq,
               max_iter=n + 2).result
    exits = rd.union(prim(BoolTest(neg(cond)), space).e, bs.br)
    return SemTriple(rd.compose_rel(star, exits),
                     rd.rel_into(star, bs.inf) | div, rd.empty_rel(space))


def relational(space: StateSpace) -> Algebra:
    """Denotation triples; a loop is `loop_triple`."""
    return Algebra(lambda s: prim(s, space), compose, join,
                   lambda cond, bs: loop_triple(cond, bs, space))


def body_triple(b: lang.BExpr, body: lang.Stmt, space: StateSpace) -> SemTriple:
    """Denotation of the guarded body B;S."""
    return guarded(b, body, relational(space))


def powers(rel, space: StateSpace, n: int) -> list:
    """Relation powers X^0 = identity, X^{d+1} = X ; X^d."""
    out = [rd.identity_rel(space)]
    for _ in range(n):
        out.append(rd.compose_rel(rel, out[-1]))
    return out


def sem(s: lang.Stmt, space: StateSpace) -> SemTriple:
    """Denotation triple of a statement.

    Free breaks land in the br component; callers that want a whole program
    (empty top-level br) should run validate_breaks first.
    """
    return interpret(s, relational(space))


# ---------------------------------------------------------------------------
# Small-step oracle

_END, _BREAK = 0, 1  # terminal program points: normal end, free break


def _compile(s: lang.Stmt, space: StateSpace):
    """(entry pc, code): `s` as instructions whose successors are pcs.

    `Skip` compiles to its continuation and `Break` to the exit of its
    innermost loop, or to the free-break terminal outside any loop.  An
    instruction's expression stays an AST, in slot 1; assignment targets
    are resolved here, so an unbound one raises wherever it is.
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
            return emit(("assign", s.expr, space.index(s.var), nxt))
        if isinstance(s, RandAssign):
            i = space.index(s.var)
            lo, hi = max(space.lo[i], s.lo), min(space.hi[i], s.hi)
            vals = range(int(lo), int(hi) + 1) if lo <= hi else range(0)
            return emit(("rand", vals, i, nxt))
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
    matching the structural semantics on such fragments.  An instruction's
    kernel is compiled when the pass first reaches it, so code that no start
    reaches is never compiled.  The masks of the start configurations are
    the rows of the e and br relations.
    """
    entry, code = _compile(s, space)
    states = space.states()
    n = len(states)
    stride = space.strides()
    kernels = [None] * len(code)

    def succ(cfg):
        pc, j = divmod(cfg, n)
        op, sigma = code[pc], states[j]
        kind = op[0]
        if kind == "rand":
            _, vals, i, nxt = op
            base = nxt * n + j - sigma[i] * stride[i]
            return tuple(base + v * stride[i] for v in vals)
        if kind in ("end", "break"):
            return ()
        f = kernels[pc]
        if f is None:
            f = kernels[pc] = rd.compile_expr(op[1], space)
        if kind == "assign":
            _, _, i, nxt = op
            v = space.clip(i, f(sigma))
            return () if v is None else (nxt * n + j + (v - sigma[i]) * stride[i],)
        if kind == "test":
            return (op[2] * n + j,) if f(sigma) else ()
        return ((op[2] if f(sigma) else op[3]) * n + j,)

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

    starts = res[entry * n:entry * n + n]
    return SemTriple(tuple(r[0] for r in starts),
                     sum(1 << j for j, r in enumerate(starts) if r[2]),
                     tuple(r[1] for r in starts))
