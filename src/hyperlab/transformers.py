"""Execution-property and semantic (hyper) property transformers.

`post` maps a precondition triple through a denotation by sequential
composition; `pre_tilde` is its upper adjoint.  `Post` is the elementwise
lift of `post` to finite sets of triples; it is computed either directly from
a denotation or structurally (`post_structural` / `Post_structural`) by
`interpreter.interpret` on the transformer algebra, whose values are post
functions p -> q.  Its conditional joins the two branch outcomes of each
precondition (one result element per precondition, never the cross
product), and the function is built once per statement, so each loop's
guarded body and divergence fixpoint are computed once.

`Pre` (the upper adjoint of `Post`) quantifies over all execution properties
and is only offered in toy mode where the triple lattice is enumerable.  A
hyper property is an explicit finite set or an oracle; `membership` gives
its test either way.

`Post_weak_while` is the weak hypercollecting loop semantics: the set of
loop-exit images of every finite iterate, on the finitary components only
(its defining setting ignores breaks and nontermination).  On a finite state
space it contains the exact loop Post of break-free loops, usually strictly.
`weak_while_iterates` takes the loop's step relation
[if (b) body else skip]e as an argument, so the body is evaluated once per
hyper set, not once per antecedent; `weak_family` collects the iterates of
all antecedents, which `Post_weak_while` maps to their exit images and the
forall-exists rule takes as its canonical invariant.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Callable, Tuple

from . import interpreter, lang, rel_domain as rd
from .interpreter import Algebra
from .lang import BoolTest, neg
from .rel_domain import SemTriple, StateSpace, compose, join, prim

HyperSet = frozenset


def post(s_sem: SemTriple, p: SemTriple) -> SemTriple:
    """Strongest postcondition of p under the denotation s_sem."""
    return compose(p, s_sem)


def pre_tilde(s_sem: SemTriple, q: SemTriple, space: StateSpace) -> SemTriple:
    """Largest p with post(s_sem, p) <= q (upper adjoint of post).

    post preserves arbitrary unions in p, so membership is pairwise: an
    e-pair (a, b) enters p exactly when its own post lies below q, that is
    when b's e and br targets in s_sem are a's in q (the residuals) and a
    may diverge in q if b diverges in s_sem.
    """
    sts = space.states()
    diverges = frozenset(rd.members(s_sem.inf, space))
    may_diverge = frozenset(rd.members(q.inf, space))
    calm = rd.rel(((a, b) for a in sts for b in sts
                   if a in may_diverge or b not in diverges), space)
    e = rd.intersection(rd.intersection(rd.residual(s_sem.e, q.e),
                                        rd.residual(s_sem.br, q.br)), calm)
    return SemTriple(e, q.inf, q.br)


def membership(q) -> Callable:
    """Membership test of a hyper property: an oracle's predicate, or
    inclusion in an explicit finite set."""
    if hasattr(q, "contains"):
        return q.contains
    qs = frozenset(q)
    return lambda t: t in qs


def Post(s_sem: SemTriple, props: HyperSet) -> HyperSet:
    return frozenset(post(s_sem, p) for p in props)


def enumerate_rels(space: StateSpace) -> list:
    pairs = sorted(product(space.states(), space.states()))
    return [rd.rel(c, space) for r in range(len(pairs) + 1)
            for c in combinations(pairs, r)]


def enumerate_triples(space: StateSpace) -> list:
    """Every triple over the space; toy mode only (guarded by size)."""
    if len(space.states()) ** 2 > 4:
        raise ValueError("triple lattice too large to enumerate")
    rels = enumerate_rels(space)
    sts = sorted(space.states())
    infs = [rd.mask(c, space) for r in range(len(sts) + 1)
            for c in combinations(sts, r)]
    return [SemTriple(e, i, b) for e in rels for i in infs for b in rels]


def Pre(s_sem: SemTriple, props, space: StateSpace) -> HyperSet:
    """Weakest hyper precondition {P | post(S)P in Q}; toy mode only."""
    member = membership(props)
    return frozenset(p for p in enumerate_triples(space)
                     if member(post(s_sem, p)))


# ---------------------------------------------------------------------------
# Structural post calculus

def transformer(space: StateSpace) -> Algebra:
    """Post functions p -> q; a loop composes p with `loop_triple` of its
    guarded body's function applied to the identity."""
    def basic(s):
        t = prim(s, space)
        return lambda p: compose(p, t)

    def loop(cond, body):
        t = interpreter.loop_triple(cond, body(prim("init", space)), space)
        return lambda p: compose(p, t)

    return Algebra(basic, lambda f, g: lambda p: g(f(p)),
                   lambda f, g: lambda p: join(f(p), g(p)), loop)


def post_structural(s: lang.Stmt, p: SemTriple, space: StateSpace) -> SemTriple:
    """post computed by the structural rules, without building sem(s) first."""
    return interpreter.interpret(s, transformer(space))(p)


def Post_structural(s: lang.Stmt, props: HyperSet, space: StateSpace) -> HyperSet:
    """Elementwise structural Post; the conditional stays tied per element."""
    return frozenset(map(interpreter.interpret(s, transformer(space)), props))


# ---------------------------------------------------------------------------
# Weak hypercollecting loop semantics

def weak_while_iterates(step, p_e, space: StateSpace) -> Tuple:
    """The relation iterates X^0 = P, X^{n+1} = X^n ; step, where `step` is
    [if (b) body else skip]e = [b;body]e | [!b]e.  The step does not depend
    on P, so callers build it once for all their antecedents.

    Returns (iterates, stabilization_index): iteration stops at the first
    repeated iterate, by which point every distinct exit image has appeared.
    """
    iterates = [p_e]
    seen = {iterates[0]}
    cap = 4 * len(space.states()) ** 2 + 16
    while True:
        nxt = rd.compose_rel(iterates[-1], step)
        if nxt in seen:
            return iterates, len(iterates) - 1
        if len(iterates) > cap:
            raise interpreter.FixpointDivergenceError(
                "weak iterates did not cycle within %d steps" % cap)
        iterates.append(nxt)
        seen.add(nxt)


def weak_family(step, pre_rels, space: StateSpace) -> Tuple:
    """Every weak iterate of every antecedent relation under `step`.

    Returns (family, stabilization), the union of the iterate lists and the
    largest stabilization index (0 without antecedents).  The family is the
    canonical invariant of the forall-exists rule.
    """
    family = set()
    stab = 0
    for p in pre_rels:
        iterates, n = weak_while_iterates(step, p, space)
        family.update(iterates)
        stab = max(stab, n)
    return frozenset(family), stab


def Post_weak_while(b, body, props: HyperSet, space: StateSpace):
    """Weak hypercollecting semantics of `while (b) body` on e-components.

    Returns (results, stabilization), where results collects the pure-e
    triples post[!b](X^n(P)) for every P in props and every n up to
    stabilization.
    """
    not_b = prim(BoolTest(neg(b)), space).e
    step = rd.union(interpreter.body_triple(b, body, space).e, not_b)
    family, stab = weak_family(step, (p.e for p in props), space)
    return frozenset(rd.pure_e(rd.compose_rel(x, not_b))
                     for x in family), stab
