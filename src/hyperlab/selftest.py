"""Executable corpus: worked examples, counterexamples, and law suites.

Each suite returns a list of (label, ok, detail) checks; `run` executes the
selected suites and reports per-suite timing.  The pytest acceptance module
drives the same suites, so `hl selftest` and the test suite agree by
construction.
"""

from __future__ import annotations

import operator
import random
import time
from functools import reduce

from . import abstractions as ab
from . import hyperlogic as hl
from . import interpreter as it
from . import rel_domain as rd
from . import trace_domain as td
from . import transformers as tf
from .lang import (ABin, Assign, BBin, BoolTest, Break, Cmp, Const, If, Not,
                   RandAssign, Seq, Skip, Var, While, parse)
from .rel_domain import SemTriple, StateSpace, pure_e

S1_SRC = "while (y != 0) y = y - 1;"
S2_SRC = "y = [-oo,oo]; while (y != 0) y = y - 1;"
S3_SRC = "while (x != 0) { y = [-oo,oo]; while (y != 0) y = y - 1; x = x - 1; }"
S4_SRC = ("x = [-oo,oo]; "
          "while (x != 0) { y = [-oo,oo]; while (y != 0) y = y - 1; x = x - 1; }")
TRACE_SRC = "while (x != 2) if (x == 1) break; else x = x + 2;"

SPACE_Y = StateSpace.make(("y",), -3, 3)
SPACE_XY = StateSpace.make(("x", "y"), -2, 2)
SPACE_TRACE = StateSpace.make(("x",), -4, 5)


def s1_expected(space):
    sts = space.states()
    return rd.triple(space, e=((s, (0,)) for s in sts if s[0] >= 0),
                     inf=(s for s in sts if s[0] < 0))


def s2_expected(space):
    sts = space.states()
    return rd.triple(space, e=((s, (0,)) for s in sts), inf=sts)


def s3_expected(space):
    sts = space.states()
    e = {(s, s) for s in sts if s[0] == 0}
    e |= {(s, (0, 0)) for s in sts if s[0] > 0}
    return rd.triple(space, e=e, inf=(s for s in sts if s[0] != 0))


def s4_expected(space):
    sts = space.states()
    e = {(s, (0, s[1])) for s in sts}
    e |= {(s, (0, 0)) for s in sts}
    return rd.triple(space, e=e, inf=sts)


def trace_expected():
    """TRACE_SRC's terminating traces on SPACE_TRACE, as index tuples."""
    out = set()
    for n in range(-4, 6):
        if n == 2:
            out.add(((2,),))
        elif n < 2 and n % 2 == 0:
            out.add(tuple((v,) for v in range(n, 3, 2)))
        elif n <= 1 and n % 2 != 0:
            out.add(tuple((v,) for v in range(n, 2, 2)))
    at = SPACE_TRACE.positions()
    return frozenset(tuple(map(at.__getitem__, p)) for p in out)


# ---------------------------------------------------------------------------
# Random program generation

VARS = ("x", "y")


def random_space(rng, max_vars=2, max_range=5) -> StateSpace:
    nv = rng.randint(1, max_vars)
    lo = rng.randint(-2, 0)
    hi = lo + rng.randint(0, max_range - 1)
    return StateSpace.make(VARS[:nv], lo, hi)


def random_aexpr(rng, names, depth):
    if depth <= 0 or rng.random() < 0.45:
        if rng.random() < 0.5:
            return Const(rng.randint(-2, 2))
        return Var(rng.choice(names))
    return ABin(rng.choice("+-*"),
                random_aexpr(rng, names, depth - 1),
                random_aexpr(rng, names, depth - 1))


def random_bexpr(rng, names, depth):
    if depth <= 0 or rng.random() < 0.6:
        return Cmp(rng.choice(("==", "!=", "<", "<=", ">", ">=")),
                   random_aexpr(rng, names, 1), random_aexpr(rng, names, 1))
    if rng.random() < 0.3:
        return Not(random_bexpr(rng, names, depth - 1))
    return BBin(rng.choice(("&&", "||")),
                random_bexpr(rng, names, depth - 1),
                random_bexpr(rng, names, depth - 1))


def random_stmt(rng, names, depth, in_loop=False, allow_free_break=False,
                allow_while=True):
    basic = ["assign", "rassign", "skip"]
    if in_loop or allow_free_break:
        basic.append("break")
    choices = list(basic)
    if depth > 0:
        choices += ["seq", "seq", "if", "if"]
        if allow_while:
            choices += ["while", "while"]
    kind = rng.choice(choices)
    if kind == "assign":
        return Assign(rng.choice(names), random_aexpr(rng, names, 2))
    if kind == "rassign":
        lo = rng.randint(-2, 1)
        return RandAssign(rng.choice(names), lo, lo + rng.randint(0, 2))
    if kind == "skip":
        return Skip()
    if kind == "break":
        return Break()
    if kind == "seq":
        return Seq(random_stmt(rng, names, depth - 1, in_loop,
                               allow_free_break, allow_while),
                   random_stmt(rng, names, depth - 1, in_loop,
                               allow_free_break, allow_while))
    if kind == "if":
        return If(random_bexpr(rng, names, 1),
                  random_stmt(rng, names, depth - 1, in_loop,
                              allow_free_break, allow_while),
                  random_stmt(rng, names, depth - 1, in_loop,
                              allow_free_break, allow_while))
    return While(random_bexpr(rng, names, 1),
                 random_stmt(rng, names, depth - 1, True,
                             allow_free_break, allow_while))


def random_program(rng, depth=4, allow_free_break=False, allow_while=True):
    space = random_space(rng)
    s = random_stmt(rng, space.vars, depth,
                    allow_free_break=allow_free_break,
                    allow_while=allow_while)
    return s, space


def random_triple(rng, space, pure=False) -> SemTriple:
    sts = space.states()
    pairs = [(a, b) for a in sts for b in sts]
    k = max(1, len(pairs) // 3)
    e = frozenset(rng.sample(pairs, rng.randint(0, k)))
    if pure:
        return rd.triple(space, e=e)
    inf = frozenset(rng.sample(sts, rng.randint(0, max(1, len(sts) // 3))))
    br = frozenset(rng.sample(pairs, rng.randint(0, max(1, k // 2))))
    return rd.triple(space, e, inf, br)


# ---------------------------------------------------------------------------
# Suites

def suite_relational():
    checks = []
    for name, src, space, expect in (
            ("S1", S1_SRC, SPACE_Y, s1_expected),
            ("S2", S2_SRC, SPACE_Y, s2_expected),
            ("S3", S3_SRC, SPACE_XY, s3_expected),
            ("S4", S4_SRC, SPACE_XY, s4_expected)):
        s = parse(src)
        got = it.sem(s, space)
        want = expect(space)
        checks.append(("%s matches the closed form" % name, got == want,
                       "" if got == want else "triple mismatch"))
        agree = it.oracle_sem(s, space) == got
        checks.append(("%s agrees with the oracle" % name, agree, ""))
    return checks


def suite_trace():
    checks = []
    s = parse(TRACE_SRC)
    t = td.trace_sem(s, SPACE_TRACE, 10)
    checks.append(("finite traces match the closed form",
                   t.e == trace_expected(), ""))
    want_div = rd.mask(((n,) for n in (3, 4, 5)), SPACE_TRACE)
    checks.append(("divergent starts are exactly x>2",
                   t.inf == want_div,
                   repr(list(rd.members(t.inf, SPACE_TRACE)))))
    # saturating divergent prefixes exceed any cap, so the flag is set while
    # the terminating component is still complete on the window
    checks.append(("truncation flagged for the divergent reach prefixes",
                   t.truncated, ""))
    t8 = td.trace_sem(s, SPACE_TRACE, 8)
    at = SPACE_TRACE.positions()
    wanted = {tuple(at[(v,)] for v in (-2, 0, 2)),
              tuple(at[(v,)] for v in (-3, -1, 1))}
    checks.append(("L=8 contains the two printed traces",
                   wanted <= t8.e, ""))
    checks.append(("L=8 divergent starts include 3,4,5",
                   want_div & t8.inf == want_div, ""))
    return checks


def suite_oracle(n=500, seed=20240801):
    rng = random.Random(seed)
    bad = []
    for _ in range(n):
        s, space = random_program(rng)
        if it.sem(s, space) != it.oracle_sem(s, space):
            bad.append(s)
    checks = [("sem == oracle_sem on %d random programs" % n,
               not bad, "%d mismatches" % len(bad))]
    # free-break fragments exercise the br component on both routes
    bad2 = 0
    for _ in range(max(50, n // 5)):
        s, space = random_program(rng, depth=3, allow_free_break=True)
        if it.sem(s, space) != it.oracle_sem(s, space):
            bad2 += 1
    checks.append(("sem == oracle_sem on free-break fragments",
                   bad2 == 0, "%d mismatches" % bad2))
    return checks


def suite_calculus(n=250, seed=20240802):
    rng = random.Random(seed)
    bad_post = bad_hyper = 0
    for _ in range(n):
        s, space = random_program(rng, depth=3)
        s_sem = it.sem(s, space)
        props = frozenset(random_triple(rng, space) for _ in range(3))
        for p in props:
            if tf.post_structural(s, p, space) != tf.post(s_sem, p):
                bad_post += 1
        if tf.Post_structural(s, props, space) != tf.Post(s_sem, props):
            bad_hyper += 1
    return [
        ("structural post equals direct composition", bad_post == 0,
         "%d mismatches" % bad_post),
        ("structural Post equals elementwise Post", bad_hyper == 0,
         "%d mismatches" % bad_hyper),
    ]


def _tiny_space():
    return StateSpace.make(("y",), 0, 1)


def suite_galois(seed=20240803):
    rng = random.Random(seed)
    space = _tiny_space()
    rels = tf.enumerate_rels(space)
    all_triples = tf.enumerate_triples(space)
    sems = [it.sem(parse(src), space) for src in
            ("if (y == 0) y = 1; else y = 0;",
             "while (y != 0) y = y - 1;",
             "y = [0,1];")]
    sems += [random_triple(rng, space) for _ in range(3)]
    checks = []
    ok = True
    for s_sem in sems:
        pres = {q: tf.pre_tilde(s_sem, q, space) for q in all_triples}
        for p_rel in rels:
            p = pure_e(p_rel)
            post_p = tf.post(s_sem, p)
            for q in all_triples:
                if rd.leq(post_p, q) != rd.leq(p, pres[q]):
                    ok = False
        for _ in range(40):
            p = random_triple(rng, space)
            post_p = tf.post(s_sem, p)
            for q in rng.sample(all_triples, 25):
                if rd.leq(post_p, q) != rd.leq(p, pres[q]):
                    ok = False
    checks.append(("post/pre~ adjunction, exhaustive preconditions", ok, ""))

    ok = True
    for s_sem in sems[:3]:
        for _ in range(25):
            props = frozenset(rng.sample(all_triples, rng.randint(0, 6)))
            quos = frozenset(rng.sample(all_triples, rng.randint(0, 40)))
            pre = tf.Pre(s_sem, quos, space)
            if (tf.Post(s_sem, props) <= quos) != (props <= pre):
                ok = False
    checks.append(("Post/Pre adjunction on the enumerated lattice", ok, ""))

    # Post does not preserve the join of the guarded-body powers
    loop_space = StateSpace.make(("y",), 0, 2)
    bs = it.body_triple(Cmp("!=", Var("y"), Const(0)), Assign("y", ABin("-", Var("y"), Const(1))), loop_space)
    pows = it.powers(bs.e, loop_space, 3)
    props = frozenset((pure_e(pows[0]),))
    union_first = tf.Post(pure_e(reduce(rd.union, pows)), props)
    union_last = frozenset().union(*(tf.Post(pure_e(p), props) for p in pows))
    checks.append(("Post does not preserve joins (loop powers witness)",
                   union_first != union_last, ""))
    return checks


def suite_conditional_exactness():
    space = StateSpace.make(("x",), 0, 2)
    cond = Cmp("==", Var("x"), Const(0))
    s1 = Assign("x", ABin("+", Var("x"), Const(1)))
    s2 = Assign("x", ABin("-", Var("x"), Const(1)))
    p1 = rd.prim("init", space)
    p2 = rd.prim(BoolTest(Cmp("==", Var("x"), Const(1))), space)
    props = frozenset((p1, p2))
    t1 = it.sem(Seq(BoolTest(cond), s1), space)
    t2 = it.sem(Seq(BoolTest(Not(cond)), s2), space)
    tied = frozenset(rd.join(tf.post(t1, p), tf.post(t2, p)) for p in props)
    cross = frozenset(rd.join(tf.post(t1, p), tf.post(t2, q))
                      for p in props for q in props)
    strict = tied < cross
    exact = tf.Post_structural(If(cond, s1, s2), props, space) == tied
    return [("tied conditional set is strictly inside the cross product",
             strict, "tied=%d cross=%d" % (len(tied), len(cross))),
            ("structural Post picks the tied set", exact, "")]


def suite_weak(n=120, seed=20240804, break_seed=20240808):
    misses = [0, 0]  # break-free bodies, then bodies that may break
    for k, rng in enumerate((random.Random(seed), random.Random(break_seed))):
        for _ in range(n):
            space = random_space(rng, max_range=4)
            cond = random_bexpr(rng, space.vars, 1)
            body = random_stmt(rng, space.vars, 2, in_loop=k == 1,
                               allow_while=False)
            props = frozenset((rd.prim("init", space),
                               random_triple(rng, space, pure=True)))
            weak, _ = tf.Post_weak_while(cond, body, props, space)
            wsem = it.sem(While(cond, body), space)
            exact = frozenset(pure_e(rd.compose_rel(p.e, wsem.e))
                              for p in props)
            misses[k] += not exact <= weak
    bad, broke = misses
    checks = [("Post(while) is inside the weak hypercollecting set",
               bad == 0, "%d failures" % bad)]

    s1 = parse(S1_SRC)
    props = frozenset((rd.prim("init", SPACE_Y),))
    weak, stab = tf.Post_weak_while(s1.cond, s1.body, props, SPACE_Y)
    exact = frozenset(pure_e(rd.compose_rel(p.e, it.sem(s1, SPACE_Y).e))
                      for p in props)
    checks.append(("pinned strictness witness on S1",
                   exact < weak and len(weak) > 1,
                   "weak has %d elements, stabilized at %d" % (len(weak), stab)))
    checks.append(("Post(while) is inside the weak set of a body that may "
                   "break", broke == 0, "%d failures" % broke))
    return checks


def _increasing(f: list) -> bool:
    """f[m] is inside f[m | b] for every mask m and bit b of the table f.

    Per bit, the table is compared with itself shifted by that bit, over
    the masks without the bit (a mask with it is compared with itself):
    one strided slice per residue below the bit, or one block per period,
    whichever is fewer."""
    co = [~x for x in f]
    n = len(f)
    step = 1
    while step < n:
        period = 2 * step
        if step <= n // period:
            halves = ((f[i::period], co[i + step::period])
                      for i in range(step))
        else:
            halves = ((f[k:k + step], co[k + step:k + period])
                      for k in range(0, n, period))
        if any(any(map(operator.and_, lo, hi)) for lo, hi in halves):
            return False
        step = period
    return True


def _closure_battery(name, lat, op, kind, checks):
    """kind: 'upper' (increasing+extensive+idempotent) or
    'lower' (increasing+reductive+idempotent) or 'reductive' (no
    monotonicity claim).  `op` is tabulated once over every mask; the table
    is returned."""
    f = [op(m) for m in lat.subsets()]
    # m inside f[m] (upper) or f[m] inside m: f[m] absorbs m
    absorb = operator.or_ if kind == "upper" else operator.and_
    ext = all(map(operator.eq, map(absorb, range(len(f)), f), f))
    ide = all(map(operator.eq, map(f.__getitem__, f), f))
    word = "extensive" if kind == "upper" else "reductive"
    checks.append(("%s is %s" % (name, word), ext, ""))
    checks.append(("%s is idempotent" % name, ide, ""))
    if kind != "reductive":
        checks.append(("%s is increasing" % name, _increasing(f), ""))
    return f


def suite_abstraction_laws():
    checks = []
    lat = ab.ToyLattice.powerset("abcd")
    full_carrier = lat.mask(lat.elements)

    _closure_battery("order ideal", lat, lat.down_mask, "upper", checks)
    _closure_battery("order filter", lat, lat.dual.down_mask, "upper", checks)
    _closure_battery("principal ideal", lat, lat.principal_ideal_mask,
                     "upper", checks)
    _closure_battery("frontier order ideal (finite case)", lat,
                     lambda m: lat.dual.down_mask(lat.min_mask(m)),
                     "upper", checks)
    _closure_battery("rho lower closure", lat, lat.rho_down_mask,
                     "lower", checks)
    _closure_battery("frontier rho elimination", lat, lat.rho_frontier_mask,
                     "reductive", checks)
    _closure_battery("conjunctive of two closures", lat,
                     lambda m: lat.down_mask(m) & lat.dual.down_mask(m),
                     "upper", checks)

    fam = ab.Family("drop", (frozenset("abcd"), frozenset("abc"),
                             frozenset("ab")), frozenset(), "down")
    cp = ab.ChainPoset(lat, (fam,))
    # the mask-level star that `chain_down_star` wraps
    stars = _closure_battery(
        "chain-limit star", lat,
        lambda m: ab._star(cp, m, "down"), "upper", checks)

    # frontier_min is reductive+idempotent but not increasing: printed witness
    cexlat = ab.ToyLattice.from_pairs(
        ("bot", "0", "1", "top"),
        (("bot", "0"), ("bot", "1"), ("0", "top"), ("1", "top")))
    _closure_battery("min frontier", cexlat, cexlat.min_mask, "reductive", checks)
    p1, p2 = frozenset(("top",)), frozenset(("0", "1", "top"))
    w = (p1 <= p2
         and ab.frontier_min(cexlat, p1) == frozenset(("top",))
         and ab.frontier_min(cexlat, p2) == frozenset(("0", "1"))
         and not ab.frontier_min(cexlat, p1) <= ab.frontier_min(cexlat, p2))
    checks.append(("min frontier non-monotone exactly as printed", w, ""))
    checks.append(("order ideal of {0} on the witness lattice",
                   ab.order_ideal(cexlat, frozenset(("0",)))
                   == frozenset(("bot", "0")), ""))

    # Galois retraction adjunctions.  join(X) <= q iff X is inside down(q):
    # the q above join(X) are the q above every member of X.  ups[i] is
    # rebuilt from `_down`, not read from `_up`, which the joins come from.
    els, n = lat.elements, len(lat.elements)
    ups = [sum(1 << q for q in range(n) if lat._down[q] >> i & 1)
           for i in range(n)]
    joins, bounds = [lat.index(lat.bot)], [full_carrier]
    for m in range(1, 1 << n):
        i = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        joins.append(lat.index(lat.join((els[joins[rest]], els[i]))))
        bounds.append(bounds[rest] & ups[i])
    checks.append(("join/ideal Galois retraction",
                   [ups[j] for j in joins] == bounds, ""))

    down_closed = [m for m in lat.subsets() if lat.down_mask(m) == m]
    ok = len(down_closed) == 168
    for x in range(len(lat.elements)):
        dm = lat._down[x]
        for q in down_closed:
            if (dm & ~q == 0) != bool(q & (1 << x)):
                ok = False
    union_pres = all(
        lat.down_mask(m1 | m2) == lat.down_mask(m1) | lat.down_mask(m2)
        for m1 in range(0, 1 << 16, 257) for m2 in range(0, 1 << 16, 509))
    checks.append(("order-ideal Galois retraction (168 ideals)",
                   ok and union_pres, ""))

    ok = all(m & ~star == 0 and star & ~full_carrier == 0
             for m, star in enumerate(stars))
    checks.append(("starred chain closure is extensive into the carrier", ok, ""))

    checks.extend(_hierarchy_checks())
    checks.extend(_family_checks())
    return checks


def _hierarchy_checks():
    lat = ab.ToyLattice.powerset("abc")
    ok_pi = ok_foi = ok_upfront = ok_ideal = True
    for m in lat.subsets():
        sub = lat.unmask(m)
        pideal = ab.principal_ideal(lat, sub)
        if ab.frontier_order_ideal(lat, pideal, dual=True) != pideal:
            ok_pi = False
        foi = ab.frontier_order_ideal(lat, sub, dual=True)
        if ab.order_ideal(lat, foi) != foi:
            ok_foi = False
        upf = ab.frontier_order_ideal(lat, sub)
        if ab.rho_frontier(lat, upf) != upf:
            ok_upfront = False
        ideal = ab.order_ideal(lat, sub)
        if ab.rho_frontier(lat, ideal) != ideal:
            ok_ideal = False
    return [
        ("principal ideals are frontier-order-ideal closed", ok_pi, ""),
        ("frontier order ideals are order-ideal closed", ok_foi, ""),
        ("up-closed frontiers are rho-frontier fixed", ok_upfront, ""),
        ("order ideals are rho-frontier fixed", ok_ideal, ""),
    ]


def _family_checks(seed=20240805):
    rng = random.Random(seed)
    base = ("p", "q", "r")
    lat = ab.ToyLattice.powerset(base)
    ok_aeh = ok_eah = True
    cp = ab.ChainPoset(lat, ())
    for _ in range(60):
        a = frozenset((x, y) for x in base for y in base
                      if rng.random() < 0.5)
        aeh = ab.family("AEH", A=a)
        members = frozenset(p for p in lat.elements if p in aeh)
        if ab.chain_up_star(cp, members) != members:
            ok_aeh = False
        eah = ab.family("EAH", A=a)
        emem = frozenset(p for p in lat.elements if p in eah)
        if ab.rho_frontier(lat, emem) != emem:
            ok_eah = False
    ident = ab.family("AEH", A=[(x, x) for x in base])
    trivial = all(p in ident for p in lat.elements)
    return [
        ("AEH families are chain-limit closed", ok_aeh,
         "trivially, on a finite carrier"),
        ("EAH families are rho-frontier fixed", ok_eah, ""),
        ("AEH with identity relation accepts everything", trivial, ""),
    ]


def _chain_cex_poset():
    elems = ["top", "bot"] + ["X%d%d" % (i, j) for i in (1, 2, 3)
                              for j in (1, 2, 3)] + ["Y%d" % i for i in (1, 2, 3)]
    pairs = []
    for i in (1, 2, 3):
        for j in (1, 2):
            pairs.append(("X%d%d" % (i, j + 1), "X%d%d" % (i, j)))
        pairs.append(("Y%d" % i, "X%d3" % i))
        pairs.append(("X%d1" % i, "top"))
    pairs += [("Y2", "Y1"), ("Y3", "Y2"), ("bot", "Y3"), ("bot", "top")]
    lat = ab.ToyLattice.from_pairs(elems, pairs)
    fams = tuple(ab.Family("X%d" % i,
                           tuple("X%d%d" % (i, j) for j in (1, 2, 3)),
                           "Y%d" % i, "down") for i in (1, 2, 3))
    fams += (ab.Family("Y", ("Y1", "Y2", "Y3"), "bot", "down"),)
    return ab.ChainPoset(lat, fams)


def suite_chain_cex():
    checks = []
    cp = _chain_cex_poset()
    xs = frozenset("X%d%d" % (i, j) for i in (1, 2, 3) for j in (1, 2, 3))
    once = ab.chain_down(cp, xs)
    twice = ab.chain_down(cp, once)
    star = ab.chain_down_star(cp, xs)
    checks.append(("chain-limit closure adds the chain limits",
                   once == xs | {"Y1", "Y2", "Y3"}, ""))
    checks.append(("chain-limit closure is not idempotent",
                   twice == once | {"bot"} and twice != once, ""))
    checks.append(("starred closure reaches bottom",
                   star == xs | {"Y1", "Y2", "Y3", "bot"}, ""))

    base3 = ab.ToyLattice.powerset((0, 1, 2))
    co_singletons = frozenset(frozenset({0, 1, 2}) - {n} for n in (0, 1, 2))
    cp3 = ab.ChainPoset(base3, (ab.Family(
        "asc", (frozenset({0}), frozenset({0, 1})), frozenset({0, 1, 2}), "up"),))
    once = ab.order_ideal_chain_up(cp3, co_singletons)
    twice = ab.order_ideal_chain_up(cp3, once)
    star = ab.order_ideal_chain_up_star(cp3, co_singletons)
    everything = frozenset(base3.elements)
    checks.append(("composed ideal/chain op is not idempotent (skeleton)",
                   once == everything - {frozenset({0, 1, 2})}
                   and twice == everything, ""))
    checks.append(("its star closes to the whole powerset",
                   star == everything, ""))
    return checks


def _two_chain_poset():
    # two incomparable descending chains, presented with a completion point
    elems = ["top", "bot"] + ["a%d" % n for n in (1, 2, 3)] + \
        ["b%d" % n for n in (1, 2, 3)]
    pairs = [("a2", "a1"), ("a3", "a2"), ("b2", "b1"), ("b3", "b2"),
             ("a1", "top"), ("b1", "top"), ("bot", "a3"), ("bot", "b3")]
    lat = ab.ToyLattice.from_pairs(elems, pairs)
    fams = (ab.Family("a", ("a1", "a2", "a3"), "bot", "down"),
            ab.Family("b", ("b1", "b2", "b3"), "bot", "down"))
    return ab.ChainPoset(lat, fams)


def suite_frontier_cex():
    checks = []
    lat = ab.ToyLattice.powerset("abc")
    fam = ab.Family("growing", (frozenset("a"), frozenset("ab")),
                    frozenset("abc"), "up")
    cp2 = ab.ChainPoset(lat, (fam,))
    empty_front = ab.frontier_max_presented(cp2, (), ("growing",))
    ideal = ab.order_ideal(lat, fam.elements)
    checks.append(("unbounded fragment has an empty max frontier",
                   empty_front == frozenset(), ""))
    checks.append(("its order ideal is nonempty", bool(ideal), ""))

    # two incomparable unbounded descending chains: the frontier order ideal
    # of the whole fragment is empty, so it is neither extensive nor
    # increasing on the smaller fragment that keeps one chain bounded
    cp = _two_chain_poset()
    whole = frozenset(("a1", "a2", "a3", "b1", "b2", "b3"))
    whole_closure = ab.order_filter(
        cp.lattice, ab.frontier_min_presented(cp, (), ("a", "b")))
    part = frozenset(("a1", "a2", "a3", "b1"))
    part_closure = ab.order_filter(
        cp.lattice, ab.frontier_min_presented(cp, ("b1",), ("a",)))
    checks.append(("whole fragment: empty frontier, empty closure",
                   whole_closure == frozenset(), ""))
    checks.append(("not extensive: the fragment escapes its closure",
                   not whole <= whole_closure, ""))
    checks.append(("not increasing: smaller fragment, bigger closure",
                   part <= whole and not part_closure <= whole_closure,
                   ""))
    return checks


def _forall_exists_bruteforce(space, cond, body, pre_rels, member_rel):
    """Exhaustive invariant-family search on a |Sigma|=2 space."""
    rels = tf.enumerate_rels(space)
    if_e = it.sem(If(cond, body, Skip()), space).e
    not_b = rd.prim(BoolTest(Not(cond)), space).e
    idx = {r: i for i, r in enumerate(rels)}
    if_img = [idx[rd.compose_rel(r, if_e)] for r in rels]
    ok_exit = [member_rel(rd.compose_rel(r, not_b)) for r in rels]
    pre_bits = [idx[r] for r in pre_rels]
    return any(all(mask >> b & 1 for b in pre_bits)
               and all(mask >> if_img[i] & 1 and ok_exit[i]
                       for i in rd.bits(mask))
               for mask in range(1 << len(rels)))


def suite_rules(n=120, seed=20240806, break_seed=20240809):
    rng = random.Random(seed)
    checks = []

    space = StateSpace.make(("x",), 0, 13)
    prog = parse("while (x > 10) x = x - 1;")
    sts = space.states()
    pre = frozenset(rd.triple(space, e=((a, (nn,)) for a in sts))
                    for nn in (11, 12, 13))
    gen = rd.triple(space, e=((a, b) for a in sts for b in sts
                              if b[0] <= 10))
    rep = hl.check_rule("principal_ideal", space, pre=pre, stmt=prog,
                        generator=gen)
    checks.append(("principal ideal rule holds on the countdown example",
                   rep.holds(), rep.verdict))

    coincide = dual = True
    for _ in range(n):
        s, space = random_program(rng, depth=3)
        s_sem = it.sem(s, space)
        p = random_triple(rng, space)
        q = tf.post(s_sem, p)
        up = hl.check_upper(hl.Triple(frozenset((p,)), s,
                                      frozenset((q,))), space)
        low = hl.check_lower(hl.Triple(frozenset((p,)), s,
                                       frozenset((q,))), space)
        if up.holds() != low.holds() or not up.holds():
            coincide = False
        other = random_triple(rng, space)
        props = frozenset((p, other))
        quos = frozenset((q,))
        failed, witness = hl.negate_upper(props, s, quos, space)
        direct = hl.check_upper(hl.Triple(props, s, quos), space)
        if failed == direct.holds():
            dual = False
        if failed:
            comp = hl.HyperOracle(lambda t, qs=quos: t not in qs, "neg")
            sub = hl.check_upper(hl.Triple(witness, s, comp), space)
            if not sub.holds():
                dual = False

    verdicts = []
    for rng, in_loop in ((rng, False), (random.Random(break_seed), True)):
        sound = complete = True
        for _ in range(n):
            space = random_space(rng, max_range=4)
            cond = random_bexpr(rng, space.vars, 1)
            body = random_stmt(rng, space.vars, 2, in_loop=in_loop,
                               allow_while=False)
            props = frozenset((rd.prim("init", space),))
            weak, _ = tf.Post_weak_while(cond, body, props, space)
            rep = hl.check_rule("forall_exists", space, pre=props,
                                stmt=While(cond, body), post_q=weak)
            notes = dict((name, ok) for name, ok, _ in rep.premises)
            sound &= not rep.holds() or notes.get("conclusion:direct", True)
            complete &= rep.holds() or not notes.get(
                "conclusion:weak-hypercollecting")
        verdicts.append((sound, complete))
    (sound, complete), broke = verdicts
    checks.append(("forall-exists rule sound against the exact semantics",
                   sound, ""))
    checks.append(("forall-exists rule complete for the weak semantics",
                   complete, ""))
    checks.append(("upper and lower logics coincide on singletons", coincide, ""))
    checks.append(("negation duality with singleton witnesses", dual, ""))

    space2 = _tiny_space()
    loop = parse("while (y != 0) y = y - 1;")
    exact = frozenset((pure_e(it.sem(loop, space2).e),))
    init = frozenset((rd.prim("init", space2),))
    rep = hl.check_rule("forall_exists", space2, pre=init, stmt=loop,
                        post_q=exact)
    direct = hl.check_upper(
        hl.Triple(init, loop,
                  hl.HyperOracle(lambda t: pure_e(t.e) in exact, "exact-e")),
        space2)
    brute = _forall_exists_bruteforce(
        space2, loop.cond, loop.body, [p.e for p in init],
        lambda r: pure_e(r) in exact)
    checks.append(("incompleteness witness: exact triple holds but no "
                   "invariant family exists",
                   direct.holds() and not rep.holds() and not brute, ""))
    checks.append(("forall-exists rule sound and complete for the weak "
                   "semantics of a body that may break",
                   broke == (True, True), ""))
    return checks


def suite_commutation(n=200, seed=20240807):
    rng = random.Random(seed)
    bad = 0
    for _ in range(n):
        loops = rng.random() < 0.4
        s, space = random_program(rng, depth=3, allow_while=loops)
        if space.size() > 16:
            space = StateSpace.make(space.vars, 0, 2)
        t = td.trace_sem(s, space, 9)
        if t.truncated:
            continue
        if td.abstract_to_rel(t, space) != it.sem(s, space):
            bad += 1
    return [("trace abstraction commutes with the relational semantics",
             bad == 0, "%d mismatches over %d runs" % (bad, n))]


SUITES = (
    ("relational", suite_relational),
    ("trace", suite_trace),
    ("oracle", suite_oracle),
    ("calculus", suite_calculus),
    ("galois", suite_galois),
    ("conditional", suite_conditional_exactness),
    ("weak", suite_weak),
    ("laws", suite_abstraction_laws),
    ("chain-cex", suite_chain_cex),
    ("frontier-cex", suite_frontier_cex),
    ("rules", suite_rules),
    ("commutation", suite_commutation),
)


def matching(filter_name=None):
    """The suites whose name contains `filter_name` (all without one)."""
    return [(name, fn) for name, fn in SUITES
            if not filter_name or filter_name in name]


def run(filter_name=None, out=print):
    """Run the suites (optionally name-filtered); returns the failure count."""
    failures = 0
    for name, fn in matching(filter_name):
        started = time.perf_counter()
        checks = fn()
        elapsed = time.perf_counter() - started
        ok = all(c[1] for c in checks)
        out("%-16s %-4s  %2d checks  %6.2fs" %
            (name, "ok" if ok else "FAIL", len(checks), elapsed))
        for label, good, detail in checks:
            if not good:
                failures += 1
                out("    FAIL %s%s" % (label, (": " + detail) if detail else ""))
    return failures
