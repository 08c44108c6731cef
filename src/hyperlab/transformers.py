"""Execution-property and semantic (hyper) property transformers.

`post` maps a precondition triple through a denotation by sequential
composition; `pre_tilde` is its upper adjoint.  `Post` is the elementwise
lift of `post` to finite sets of triples; it is computed either directly
from a denotation or structurally (`post_structural` / `Post_structural`) by
`interpreter.interpret` on the transformer algebra, whose values are post
functions p -> q.  A basic command's or a loop's is `partial(post, t)` of
its triple t, as `hyperlogic`'s exact post is of `sem`'s.  Its conditional
joins the two branch outcomes of each precondition (one result element per
precondition, never the cross product), a sequence applies its statements'
functions in one loop, and the function is built once per statement, so each
loop's guarded body and divergence fixpoint are computed once.

`Pre` (the upper adjoint of `Post`) quantifies over all execution properties
and is only offered in toy mode where the triple lattice is enumerable; its
hyper property is tested with `in`, whether a frozenset or an oracle.

`Post_weak_while` is the weak hypercollecting loop semantics: the set of
loop-exit images of every finite iterate, on the finitary components only
(its defining setting ignores nontermination).  On a finite state space it
contains the exact loop Post, usually strictly.  It and `weak_step` take the
`While` whole, as the rules do.  `weak_while_iterates` closes all
antecedents, as triples <e, 0, br>, under the step triple of `weak_step` in
one `interpreter.lfp` call: e holds the pairs still at the loop head, and br
the pairs that left by a break, in every later iterate too.
`Post_weak_while` maps that weak family to its exit images (`weak_exit`);
the forall-exists rule takes it as its canonical invariant.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, product
from typing import Callable, Tuple

from . import interpreter, lang, rel_domain as rd
from .interpreter import Algebra
from .lang import BoolTest, Not
from .rel_domain import SemTriple, StateSpace, compose, join, prim

HyperSet = frozenset


def post(s_sem: SemTriple, p: SemTriple) -> SemTriple:
    """Strongest postcondition of p under the denotation s_sem."""
    return compose(p, s_sem)


def pre_tilde(s_sem: SemTriple, q: SemTriple, space: StateSpace) -> SemTriple:
    """Largest p with post(s_sem, p) <= q (upper adjoint of post).

    post preserves arbitrary unions in p, so p is found pair by pair: an
    e-pair (a, b) enters p exactly when b's targets in s_sem are a's in q,
    component by component.  That is one residual per component, the
    divergent starts read as the relation into the bottom pseudo-state.
    """
    inf = rd.bottom_residual(s_sem.inf, q.inf, space)
    e = rd.intersection(rd.intersection(rd.residual(s_sem.e, q.e),
                                        rd.residual(s_sem.br, q.br)), inf)
    return SemTriple(e, q.inf, q.br)


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
    return frozenset(p for p in enumerate_triples(space)
                     if post(s_sem, p) in props)


# ---------------------------------------------------------------------------
# Structural post calculus

class _Then:
    """The post function p -> g(f(p)).  `interpret` nests a sequence to the
    right, so the call walks that chain of `_Then`s in one loop rather than
    one nested call per statement."""

    __slots__ = ("f", "g")

    def __init__(self, f: Callable, g: Callable):
        self.f, self.g = f, g

    def __call__(self, p: SemTriple) -> SemTriple:
        t = self
        while type(t) is _Then:
            p = t.f(p)
            t = t.g
        return t(p)


def transformer(space: StateSpace) -> Algebra:
    """Post functions p -> q; a sequence is a `_Then` chain, and a loop
    posts p through `loop_triple` of its guarded body's and its exit test's
    functions applied to the identity."""
    def loop(body, exit):
        init = prim("init", space)
        return partial(post, interpreter.loop_triple(body(init), exit(init),
                                                     space))

    return Algebra(lambda s: partial(post, prim(s, space)), _Then,
                   lambda f, g: lambda p: join(f(p), g(p)), loop)


def post_structural(s: lang.Stmt, p: SemTriple, space: StateSpace) -> SemTriple:
    """post computed by the structural rules, without building sem(s) first."""
    return interpreter.interpret(s, transformer(space))(p)


def Post_structural(s: lang.Stmt, props: HyperSet, space: StateSpace) -> HyperSet:
    """Elementwise structural Post; the conditional stays tied per element."""
    return frozenset(map(interpreter.interpret(s, transformer(space)), props))


# ---------------------------------------------------------------------------
# Weak hypercollecting loop semantics

def weak_while_iterates(step: SemTriple, pre, space: StateSpace) -> Tuple:
    """The weak family: the least set of triples that holds `pre` and is
    closed under t -> t ; step, where `step` is `weak_step`'s triple.  Post
    is elementwise, so it is the union of every antecedent's iterates.  The
    step does not depend on the antecedents, so callers build it once.

    Returns (family, stabilization), the number of rounds that added a
    triple less one (0 without antecedents).
    """
    def grow(x, d):
        x = x | d
        return x, frozenset(compose(t, step) for t in d) - x

    cap = 4 * len(space.states()) ** 2 + 16
    try:
        rep = interpreter.lfp(grow, frozenset(), frozenset(pre),
                              max_iter=cap + 1)
    except interpreter.FixpointDivergenceError:
        raise interpreter.FixpointDivergenceError(
            "weak iterates did not cycle within %d steps" % cap) from None
    return rep.result, max(rep.iterations - 2, 0)


def weak_step(loop: lang.While, space: StateSpace) -> Tuple:
    """(bs, not_b, step) of `loop`, `while (b) S`: the guarded body's triple
    bs = sem(B;S), the exit test's triple not_b = sem(!b) and the weak step
    <bs.e | [!b]e, 0, bs.br>, whose br takes a breaking run out."""
    bs = interpreter.body_triple(loop.cond, loop.body, space)
    not_b = prim(BoolTest(Not(loop.cond)), space)
    return bs, not_b, SemTriple(rd.union(bs.e, not_b.e), 0, bs.br)


def weak_exit(t: SemTriple, not_b: SemTriple) -> SemTriple:
    """The exit image pure_e(t.e ; [!b]e | t.br) of a weak iterate t."""
    return rd.pure_e(rd.union(rd.compose_rel(t.e, not_b.e), t.br))


def Post_weak_while(loop: lang.While, props: HyperSet, space: StateSpace):
    """Weak hypercollecting semantics of `loop` on e-components.

    Returns (results, stabilization), where results collects the exit
    images of X^n(pure_e(P.e)) for every P in props and every n.
    """
    _, not_b, step = weak_step(loop, space)
    family, stab = weak_while_iterates(
        step, (rd.pure_e(p.e) for p in props), space)
    return frozenset(weak_exit(t, not_b) for t in family), stab
