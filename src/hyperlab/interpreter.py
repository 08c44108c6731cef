"""The generic structural interpreter, its fixpoints, and a small-step oracle.

`interpret(s, d)` alone takes a statement apart: a basic command is
`d.prim`, a sequence `d.seq` of its items folded from the right, a
conditional `d.join` of its two guarded branches, and a loop `d.loop` of its
guarded body and its exit test, so no algebra sees a guard.  The `Algebra`
`d` is the relational one here (`sem`), the post transformers
(`transformers.transformer`) or the bounded traces (`trace_domain.traces`).
The relational values are dense: a relation is one target bitmask per source
state index, a state set one mask (`rel_domain`).  The relational loop
`loop_triple` takes two fixpoints once per guarded body, as the bi-inductive
semantics does: the least one for the loop's exits, on rows and without the
closure of the body, and the greatest one for its divergent starts, on
masks.  It returns the loop's own triple: `sem` uses it as it is, and the
post transformers compose each precondition with it.  Every carrier is
finite, so the fixpoints run to stabilization without widening.  `lfp`,
the one least-fixpoint routine, is semi-naive: a round applies the step
only to what the round before added.  The trace loop and the weak
hypercollecting family (`transformers.weak_while_iterates`) call it too, and
the test suite keeps Kleene iteration as its reference.

`oracle_sem` rebuilds the denotation triple operationally: one Tarjan pass
over the configurations of the cut points (the start, the loop heads and
the targets of the random assignments), each discovered by walking its run
in place up to the next cut point, end, break or dead end (see its
docstring).  It uses only the AST, `StateSpace`, compiled expression kernels
(`rel_domain.compile_expr`) and `SemTriple`, never `interpret`, the fixpoint
routines or the relational operators; the two routes are independent, which
is what makes sem == oracle_sem a meaningful check.
"""

from __future__ import annotations

from itertools import count
from typing import Callable

from . import lang, rel_domain as rd
from .lang import (Assign, BoolTest, Break, If, Not, RandAssign, Seq, Skip,
                   While)
from .rel_domain import SemTriple, StateSpace, compose, join, prim


class NonMonotoneError(Exception):
    """Raised when fixpoint iterates fail to form a chain."""

    def __init__(self, iteration: int):
        super().__init__("iterate %d is not comparable with its predecessor"
                         % iteration)
        self.iteration = iteration


class FixpointDivergenceError(ValueError):
    """A fixpoint or a cycle was not reached within its iteration cap: a
    resource limit, reported by `hl` as an error (exit 2)."""


class FixpointReport(lang.Record):
    __slots__ = ("iterations", "result")

    def __init__(self, iterations: int, result):
        _report_iterations(self, iterations)
        _report_result(self, result)


_report_iterations, _report_result = lang.slot_setters(FixpointReport)


def _iterate(step: Callable, x, aux, ordered: Callable, max_iter: int) -> FixpointReport:
    n = 0
    while True:
        y, aux = step(x, aux)
        n += 1
        if y == x:
            return FixpointReport(n, x)
        if ordered is not None and not ordered(x, y):
            raise NonMonotoneError(n)
        if n > max_iter:
            raise FixpointDivergenceError("no fixpoint after %d iterations" % n)
        x = y


def lfp(grow: Callable, bottom, delta, max_iter: int) -> FixpointReport:
    """Least fixpoint of X = delta | g(X), g distributing over union, by
    semi-naive iteration from `bottom`: `grow(x, d)` returns x | d and the
    part of g(d) outside it.  The iterates and their count are Kleene's.
    `max_iter`, the lattice height or another bound on the rounds, caps the
    iteration: exceeding it raises FixpointDivergenceError.
    """
    return _iterate(grow, bottom, delta, None, max_iter)


def gfp(f: Callable, top, ge: Callable, max_iter: int) -> FixpointReport:
    """Greatest fixpoint by Kleene iteration from `top`.  `ge(x, y)` checks
    that each iterate y is below the one before, x, or raises
    NonMonotoneError; `max_iter` caps the iteration as in `lfp`."""
    return _iterate(lambda x, _: (f(x), None), top, None, ge, max_iter)


# ---------------------------------------------------------------------------
# The generic structural interpreter

class Algebra(lang.Record):
    """Values of a basic command `prim(s)`, a sequence `seq(a, b)`, a choice
    `join(a, b)`, and a loop `loop(body, exit)` of the values of B;S and !B."""

    __slots__ = ("prim", "seq", "join", "loop")

    def __init__(self, prim: Callable, seq: Callable, join: Callable,
                 loop: Callable):
        _alg_prim(self, prim)
        _alg_seq(self, seq)
        _alg_join(self, join)
        _alg_loop(self, loop)


_alg_prim, _alg_seq, _alg_join, _alg_loop = lang.slot_setters(Algebra)


def guarded(b: lang.BExpr, s: lang.Stmt, d: Algebra):
    """Value of the guarded command B;S."""
    return d.seq(d.prim(BoolTest(b)), interpret(s, d))


def interpret(s: lang.Stmt, d: Algebra):
    """Value of a statement in the algebra `d`, by structural recursion."""
    cls = s.__class__
    if cls is Seq:  # valued left to right, composed from the right
        *vals, v = [interpret(c, d) for c in s.stmts]
        for a in reversed(vals):
            v = d.seq(a, v)
        return v
    if cls is If:
        return d.join(guarded(s.cond, s.then, d),
                      guarded(Not(s.cond), s.orelse, d))
    if cls is While:
        return d.loop(guarded(s.cond, s.body, d),
                      d.prim(BoolTest(Not(s.cond))))
    return d.prim(s)


# ---------------------------------------------------------------------------
# The relational algebra

def loop_triple(bs: SemTriple, exit: SemTriple,
                space: StateSpace) -> SemTriple:
    """sem of `while (B) S`, given bs = sem(B;S) and exit = sem(!B).

    The post of the loop on a precondition p composes p with this triple,
    and no fixpoint depends on p.  The executions at the loop head leave
    through the exit test or a break of the body (`exits`); the loop's
    e is the least solution of X = exits | bs.e ; X on rows, which `lfp`
    grows from `exits` by bs.e ; D, D the pairs the round before added: the
    closure bs.e* is never built.  Its divergent starts are the greatest
    solution of X = bs.inf | pre[B;S](X) on masks: a start in it diverges in
    the body or takes a body step back into it, so it iterates forever or
    reaches a divergence of the body.  The loop consumes its own breaks,
    so composing p with the triple passes p.br through unchanged.
    """
    n = space.size()

    def grow(x, d):
        x = rd.union(x, d)
        return x, rd.difference(rd.compose_rel(bs.e, d), x)
    e = lfp(grow, rd.empty_rel(space), rd.union(exit.e, bs.br),
            max_iter=n + 2).result
    inf = gfp(lambda x: bs.inf | rd.rel_into(bs.e, x), (1 << n) - 1,
              ge=lambda x, y: x | y == x, max_iter=n + 2).result
    return SemTriple(e, inf, rd.empty_rel(space))


def relational(space: StateSpace) -> Algebra:
    """Denotation triples; a loop is `loop_triple`."""
    return Algebra(lambda s: prim(s, space), compose, join,
                   lambda bs, exit: loop_triple(bs, exit, space))


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
    (empty top-level br) pass `s` through `lang.require_no_free_break`
    first, as `hl` and `hyperlogic` do.
    """
    return interpret(s, relational(space))


# ---------------------------------------------------------------------------
# Small-step oracle

_END, _BREAK = 0, 1  # terminal program points: normal end, free break


def _comp(s: lang.Stmt, nxt: int, brk: int, code: list,
          space: StateSpace) -> int:
    """Emit `s` into `code` ahead of the pc `nxt`, with `brk` the exit of
    its innermost loop; return its entry pc."""
    cls = s.__class__
    if cls is Skip:
        return nxt
    if cls is Break:
        return brk
    if cls is Seq:  # the last item is emitted first
        for c in reversed(s.stmts):
            nxt = _comp(c, nxt, brk, code, space)
        return nxt
    if cls is Assign:
        i = space.index(s.var)
        op = ("assign", s.expr, i, space.lo[i], space.hi[i], nxt)
    elif cls is RandAssign:
        i = space.index(s.var)
        lo, hi = max(space.lo[i], s.lo), min(space.hi[i], s.hi)
        vals = range(int(lo), int(hi) + 1) if lo <= hi else range(0)
        op = ("rand", vals, i, nxt)
    elif cls is BoolTest:
        op = ("test", s.cond, nxt)
    elif cls is If:
        op = ("if", s.cond, _comp(s.then, nxt, brk, code, space),
              _comp(s.orelse, nxt, brk, code, space))
    elif cls is While:
        head = len(code)
        code.append(None)
        code[head] = ("loop", s.cond, _comp(s.body, head, nxt, code, space),
                      nxt)
        return head
    else:
        raise TypeError(s)
    code.append(op)
    return len(code) - 1


def _compile(s: lang.Stmt, space: StateSpace):
    """(entry pc, code): `s` as instructions whose successors are pcs.

    `Skip` compiles to its continuation and `Break` to the exit of its
    innermost loop, or to the free-break terminal outside any loop.  An
    instruction's expression stays an AST, in slot 1; assignment targets
    are resolved here, with their bounds, so an unbound one raises
    wherever it is.  Every successor pc is smaller than its instruction's
    pc, except a loop head's body entry: items are emitted last first,
    branches before their `if`, and a head before its body.  So every
    cycle of the flow graph passes through a loop head.
    """
    code = [("end",), ("break",)]
    return _comp(s, _END, _BREAK, code, space), code


def oracle_sem(s: lang.Stmt, space: StateSpace) -> SemTriple:
    """Independent denotation from the graph of cut-point configurations.

    A configuration is a pc and a state index.  Every cycle of the flow
    graph passes through a loop head (`_compile`), so the nodes of the
    graph need only be the cut points' configurations: node k * |S| + j is
    cut point k in state j.  The cut points are the entry (k = 0), the loop
    heads and the targets of the random assignments.
    Discovering a node walks its run in place, one state at a time, through
    assignments, tests and `if`s, up to the next loop head, `rand`, `end`,
    `break` or dead end.  A walk from a head runs the head's own test
    first, so a body that returns to its head in the same state is a
    self-edge.  The end or break state a walk meets is the node's own
    bitmask; the head configuration it reaches, or the configurations a
    `rand` fans out to, are its successors.  Runs merge where a `rand` fans
    them out, and where an assignment sends two states to one: a fan-out
    target is a node, numbered and walked once however many runs reach it,
    and a walk that reaches a configuration an earlier walk reached by an
    assignment takes that walk's result, since a walk follows one run.  So
    the work grows with the configurations reached, not with the paths.

    One Tarjan pass from the |S| start nodes discovers the graph and closes
    its SCCs in reverse topological order; each closed SCC folds in its own
    walks' masks and its successors' end-state and break-state bitmasks and
    "can diverge" flags.  An SCC can diverge when it has an internal edge
    (it lies on a cycle) or a successor SCC can.  A free break terminates
    the program via the br component, matching the structural semantics on
    such fragments.  An instruction's kernel is compiled when a walk first
    reaches it, so code that no start reaches is never compiled.  The masks
    of the start nodes are the rows of the e and br relations.
    """
    entry, code = _compile(s, space)
    states = space.states()
    n = len(states)
    stride = space.strides()
    clip = space.clip
    kernels = [None] * len(code)
    cut = {entry: 0}  # the pc of each cut point -> its number k
    for pc, op in enumerate(code):
        if op[0] == "loop":
            cut.setdefault(pc, len(cut))
        elif op[0] == "rand":  # a head there has the smaller pc: it is in
            cut.setdefault(op[3], len(cut))
    cuts = list(cut)
    via = {}  # configuration an assignment reached -> the first walk there

    def kernel(pc):
        f = kernels[pc]
        if f is None:
            f = kernels[pc] = rd.compile_expr(code[pc][1], space)
        return f

    def walk(v):
        """(end mask, break mask, successor nodes) of node v."""
        k, j = divmod(v, n)
        pc = cuts[k]
        op = code[pc]
        if op[0] == "loop":  # a head's walk leaves through its own test
            pc = op[2] if (kernels[pc] or kernel(pc))(states[j]) else op[3]
        while True:
            op = code[pc]
            kind = op[0]
            if kind == "assign":
                _, _, i, lo, hi, nxt = op
                sigma = states[j]
                x = (kernels[pc] or kernel(pc))(sigma)
                # an in-range value is its own clip
                if not lo <= x <= hi and (x := clip(i, x)) is None:
                    return 0, 0, ()
                pc, j = nxt, j + (x - sigma[i]) * stride[i]
                u = via.setdefault(pc * n + j, v)
                if u != v:  # the rest of this run is the rest of u's
                    return out[u]
            elif kind == "loop":
                return 0, 0, (cut[pc] * n + j,)
            elif kind == "if":
                pc = op[2] if (kernels[pc] or kernel(pc))(states[j]) \
                    else op[3]
            elif kind == "test":
                if not (kernels[pc] or kernel(pc))(states[j]):
                    return 0, 0, ()
                pc = op[2]
            elif kind == "rand":  # one target node per value, d apart
                _, vals, i, nxt = op
                d = stride[i]
                lo = cut[nxt] * n + j + (vals.start - states[j][i]) * d
                return 0, 0, range(lo, lo + len(vals) * d, d)
            elif kind == "end":
                return 1 << j, 0, ()
            else:
                return 0, 1 << j, ()

    size = len(cuts) * n
    num = [0] * size        # DFS number; 0 = not yet discovered
    low = [0] * size
    out = [None] * size     # the walk of a node, taken once at discovery
    res = [None] * size     # (end mask, break mask, can diverge) of a closed SCC
    stack, work = [], []
    counter = count(1)

    def discover(w):
        num[w] = low[w] = next(counter)
        out[w] = walk(w)
        stack.append(w)
        work.append((w, iter(out[w][2])))

    for root in range(n):
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
                    e, b, succ = out[m]
                    end, brk = end | e, brk | b
                    for w in succ:
                        r = res[w]
                        if r is None:  # an edge inside the SCC: a cycle
                            div = True
                        else:
                            end, brk, div = end | r[0], brk | r[1], div or r[2]
                r = (end, brk, div)
                for m in scc:
                    res[m] = r

    starts = res[:n]
    return SemTriple(tuple(r[0] for r in starts),
                     sum(1 << j for j, r in enumerate(starts) if r[2]),
                     tuple(r[1] for r in starts))
