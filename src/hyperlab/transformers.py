"""Execution-property and semantic (hyper) property transformers.

`post` maps a precondition triple through a denotation by sequential
composition; `pre_tilde` is its upper adjoint.  `Post` is the elementwise
lift of `post` to finite sets of triples; it is computed either directly from
a denotation or structurally (`post_structural` / `Post_structural`), where
the conditional keeps the two branch outcomes of each precondition tied
together (one result element per precondition, never the cross product) and
the loop hands its structurally computed guarded-body triple and the
precondition to `interpreter.loop_post`.

`Pre` (the upper adjoint of `Post`) quantifies over all execution properties
and is only offered in toy mode where the triple lattice is enumerable.

`Post_weak_while` is the weak hypercollecting loop semantics: the set of
loop-exit images of every finite iterate, on the finitary components only
(its defining setting ignores breaks and nontermination).  On a finite state
space it contains the exact loop Post of break-free loops, usually strictly.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Tuple

from . import interpreter, lang, rel_domain as rd
from .lang import BoolTest, If, Seq, Skip, While, neg
from .rel_domain import SemTriple, StateSpace, compose, join, prim

HyperSet = frozenset


def hyper(ts: Iterable) -> HyperSet:
    return frozenset(ts)


def post(s_sem: SemTriple, p: SemTriple) -> SemTriple:
    """Strongest postcondition of p under the denotation s_sem."""
    return compose(p, s_sem)


def pre_tilde(s_sem: SemTriple, q: SemTriple, space: StateSpace) -> SemTriple:
    """Largest p with post(s_sem, p) <= q (upper adjoint of post).

    post preserves arbitrary unions in p, so membership is pairwise: an
    e-pair enters p exactly when all of its images land inside q.
    """
    e = set()
    for (a, b) in product(space.states(), space.states()):
        ok = all((a, c) in q.e for (b2, c) in s_sem.e if b2 == b)
        ok = ok and (b not in s_sem.inf or a in q.inf)
        ok = ok and all((a, c) in q.br for (b2, c) in s_sem.br if b2 == b)
        if ok:
            e.add((a, b))
    return SemTriple(frozenset(e), q.inf, q.br)


def Post(s_sem: SemTriple, props: HyperSet) -> HyperSet:
    return frozenset(post(s_sem, p) for p in props)


def enumerate_rels(space: StateSpace) -> list:
    pairs = sorted(product(space.states(), space.states()))
    return [frozenset(c) for r in range(len(pairs) + 1)
            for c in combinations(pairs, r)]


def enumerate_triples(space: StateSpace) -> list:
    """Every triple over the space; toy mode only (guarded by size)."""
    if len(space.states()) ** 2 > 4:
        raise ValueError("triple lattice too large to enumerate")
    rels = enumerate_rels(space)
    sts = sorted(space.states())
    infs = [frozenset(c) for r in range(len(sts) + 1)
            for c in combinations(sts, r)]
    return [SemTriple(e, i, b) for e in rels for i in infs for b in rels]


def Pre(s_sem: SemTriple, props, space: StateSpace) -> HyperSet:
    """Weakest hyper precondition {P | post(S)P in Q}; toy mode only."""
    member = props.contains if hasattr(props, "contains") else \
        (lambda t: t in props)
    return frozenset(p for p in enumerate_triples(space)
                     if member(post(s_sem, p)))


# ---------------------------------------------------------------------------
# Structural post calculus

def post_structural(s: lang.Stmt, p: SemTriple, space: StateSpace) -> SemTriple:
    """post computed by the structural rules, without building sem(s) first.

    A loop's guarded body is itself handled by structural recursion, on the
    identity; `interpreter.loop_post` then runs the loop's entry and
    divergence fixpoints from the precondition.
    """
    if isinstance(s, (lang.Assign, lang.RandAssign, Skip, BoolTest)):
        return SemTriple(rd.compose_rel(p.e, prim(s, space).e), p.inf, p.br)
    if isinstance(s, lang.Break):
        return SemTriple(frozenset(), p.inf, p.br | p.e)
    if isinstance(s, Seq):
        return post_structural(s.second, post_structural(s.first, p, space), space)
    if isinstance(s, If):
        q1 = post_structural(Seq(BoolTest(s.cond), s.then), p, space)
        q2 = post_structural(Seq(BoolTest(neg(s.cond)), s.orelse), p, space)
        return join(q1, q2)
    if isinstance(s, While):
        bs = post_structural(Seq(BoolTest(s.cond), s.body), prim("init", space),
                             space)
        return interpreter.loop_post(s.cond, bs, p, space)
    raise TypeError(s)


def Post_structural(s: lang.Stmt, props: HyperSet, space: StateSpace) -> HyperSet:
    """Elementwise structural Post; the conditional stays tied per element."""
    return frozenset(post_structural(s, p, space) for p in props)


# ---------------------------------------------------------------------------
# Weak hypercollecting loop semantics

def weak_while_iterates(b, body, p_e, space: StateSpace) -> Tuple:
    """The relation iterates X^0 = P, X^{n+1} = X^n ; [if (b) body else skip]e.

    Returns (iterates, stabilization_index): iteration stops at the first
    repeated iterate, by which point every distinct exit image has appeared.
    """
    if_e = interpreter.sem(If(b, body, Skip()), space).e
    iterates = [frozenset(p_e)]
    seen = {iterates[0]}
    cap = 4 * len(space.states()) ** 2 + 16
    while True:
        nxt = rd.compose_rel(iterates[-1], if_e)
        if nxt in seen:
            return iterates, len(iterates) - 1
        if len(iterates) > cap:
            raise interpreter.FixpointDivergenceError(
                "weak iterates did not cycle within %d steps" % cap)
        iterates.append(nxt)
        seen.add(nxt)


def Post_weak_while(b, body, props: HyperSet, space: StateSpace):
    """Weak hypercollecting semantics of `while (b) body` on e-components.

    Returns (results, stabilization), where results collects the pure-e
    triples post[!b](X^n(P)) for every P in props and every n up to
    stabilization.
    """
    not_b = prim(BoolTest(neg(b)), space).e
    out = set()
    stab = 0
    for p in props:
        iterates, n = weak_while_iterates(b, body, p.e, space)
        stab = max(stab, n)
        for x in iterates:
            out.add(rd.pure_e(rd.compose_rel(x, not_b)))
    return frozenset(out), stab
