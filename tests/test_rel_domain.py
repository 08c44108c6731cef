import random
from itertools import combinations, product

import pytest

from hyperlab.lang import (ABin, Assign, BBin, BoolTest, Break, Cmp, Const,
                           Not, RandAssign, Skip, Var, parse)
from hyperlab import interpreter as it
from hyperlab import rel_domain as rd
from hyperlab.rel_domain import (ARITH_MODES, StateSpace, compose, join, leq,
                                 meet, prim, top_triple)
from hyperlab.selftest import (random_aexpr, random_bexpr, random_program,
                               random_triple)


def test_prim_skip_is_pointwise_identity():
    space = StateSpace.make(("y",), 0, 1)
    t = prim(Skip(), space)
    assert t == rd.triple(space, e={((0,), (0,)), ((1,), (1,))})


def test_prim_break_puts_identity_in_br():
    space = StateSpace.make(("y",), 0, 1)
    t = prim(Break(), space)
    assert t.e == rd.empty_rel(space) and t.inf == 0
    assert t.br == rd.identity_rel(space)


def test_prim_assign_saturates():
    space = StateSpace.make(("y",), -1, 1)
    t = prim(Assign("y", ABin("-", Var("y"), Const(1))), space)
    assert t.e == rd.rel({((-1,), (-1,)), ((0,), (-1,)), ((1,), (0,))},
                         space)


def test_prim_assign_wrap_and_prune():
    wrap = StateSpace.make(("y",), 0, 2, "wrap")
    t = prim(Assign("y", ABin("+", Var("y"), Const(1))), wrap)
    assert ((2,), (0,)) in rd.pairs(t.e, wrap)
    prune = StateSpace.make(("y",), 0, 2, "prune")
    t = prim(Assign("y", ABin("+", Var("y"), Const(1))), prune)
    assert all(a[0] != 2 for a, _ in rd.pairs(t.e, prune))


def test_prim_rassign_clips_to_window():
    space = StateSpace.make(("y",), -2, 2)
    t = prim(rd.lang.RandAssign("y", rd.lang.NEG_INF, 0), space)
    assert t.e == rd.rel(((s, (v,)) for s in space.states()
                          for v in (-2, -1, 0)), space)


def test_prim_unbound_variable():
    space = StateSpace.make(("y",), 0, 1)
    with pytest.raises(rd.UnboundVariableError):
        prim(Assign("z", Const(0)), space)


# ---------------------------------------------------------------------------
# Expression kernels against a definitional evaluator

def _eval(e, space, s):
    """Tree-walking evaluation of an expression on the state tuple s."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return s[space.vars.index(e.name)]
    if isinstance(e, Not):
        return not _eval(e.arg, space, s)
    if isinstance(e, BBin):
        if e.op == "&&":
            return _eval(e.left, space, s) and _eval(e.right, space, s)
        return _eval(e.left, space, s) or _eval(e.right, space, s)
    a, b = _eval(e.left, space, s), _eval(e.right, space, s)
    return {"+": a + b, "-": a - b, "*": a * b, "==": a == b, "!=": a != b,
            "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[e.op]


def _slicing_prim_e(cmd, space):
    """The e-relation of a basic command, new states built by slicing."""
    sts = space.states()
    if isinstance(cmd, BoolTest):
        return frozenset((s, s) for s in sts if _eval(cmd.cond, space, s))
    i = space.vars.index(cmd.var)
    if isinstance(cmd, Assign):
        out = set()
        for s in sts:
            v = space.clip(i, _eval(cmd.expr, space, s))
            if v is not None:
                out.add((s, s[:i] + (v,) + s[i + 1:]))
        return frozenset(out)
    lo, hi = max(space.lo[i], cmd.lo), min(space.hi[i], cmd.hi)
    vals = range(int(lo), int(hi) + 1) if lo <= hi else ()
    return frozenset((s, s[:i] + (v,) + s[i + 1:]) for s in sts for v in vals)


def _ops(e):
    if isinstance(e, (Const, Var)):
        return {type(e).__name__}
    if isinstance(e, Not):
        return {"!"} | _ops(e.arg)
    return {e.op} | _ops(e.left) | _ops(e.right)


def test_kernels_and_prim_match_the_definitional_evaluator():
    rng = random.Random(61)
    seen = set()
    negative = False
    for k in range(300):
        nv = rng.randint(1, 3)
        lo = [rng.randint(-3, 0) for _ in range(nv)]
        hi = [b + rng.randint(0, 3) for b in lo]
        space = StateSpace.make(("x", "y", "z")[:nv], lo, hi,
                                ARITH_MODES[k % 3])
        a = random_aexpr(rng, space.vars, 3)
        b = random_bexpr(rng, space.vars, 3)
        seen |= _ops(a) | _ops(b)
        negative = negative or "Const(value=-" in repr((a, b))
        fa, fb = rd.compile_expr(a, space), rd.compile_expr(b, space)
        for s in space.states():
            assert fa(s) == _eval(a, space, s)
            assert fb(s) is _eval(b, space, s)
        var = rng.choice(space.vars)
        bounds = [rng.randint(-4, 4) for _ in range(2)]
        rlo = rng.choice((rd.lang.NEG_INF, min(bounds)))
        rhi = rng.choice((rd.lang.POS_INF, max(bounds)))
        for cmd in (Assign(var, a), RandAssign(var, rlo, rhi), BoolTest(b),
                    RandAssign(var, max(bounds) + 5, rd.lang.POS_INF)):
            assert prim(cmd, space) == rd.triple(
                space, e=_slicing_prim_e(cmd, space))
    assert seen == {"Const", "Var", "+", "-", "*", "==", "!=", "<", "<=",
                    ">", ">=", "!", "&&", "||"}
    assert negative


def test_prim_at_the_bounds_of_every_mode_matches_the_definition():
    # results at lo and hi, one past each and far past each, on the first
    # and the last variable (strides 4 and 1): prim applies the mode only
    # outside the range, the definition clips every result
    seen = {}
    for arith in ARITH_MODES:
        space = StateSpace.make(("x", "y"), (-2, 0), (2, 3), arith)
        for var, lo, hi, other in (("x", -2, 2, "y"), ("y", 0, 3, "x")):
            sources = ["%s = %d;" % (var, v)
                       for v in (lo - 1, lo, hi, hi + 1, lo - 9, hi + 9)]
            sources += [e.replace("v", var).replace("o", other) for e in (
                "v = v + 1;", "v = v - 1;", "v = v * 3 - o;", "v = o;",
                "v = v + %d;" % (hi - lo + 1))]
            for src in sources:
                cmd = parse(src)
                assert prim(cmd, space) == rd.triple(
                    space, e=_slicing_prim_e(cmd, space)), (arith, src)

        # the targets of x = x + 1 from x = 2 and of x = x - 1 from x = -2
        def targets(src, state):
            return [b for a, b in rd.pairs(prim(parse(src), space).e, space)
                    if a == state]
        seen[arith] = (targets("x = x + 1;", (2, 1)),
                       targets("x = x - 1;", (-2, 1)))
    assert seen == {"saturate": ([(2, 1)], [(-2, 1)]),
                    "wrap": ([(-2, 1)], [(2, 1)]),
                    "prune": ([], [])}


def test_prim_dispatches_on_the_class_of_the_node():
    space = StateSpace.make(("x",), 0, 2)
    assert prim("init", space) == prim(Skip(), space) == rd.pure_e(
        rd.identity_rel(space))
    for kind in ("skip", parse("while (x < 1) x = 1;"), parse("skip; skip;"),
                 Var("x"), None):
        with pytest.raises(TypeError, match="not a basic command"):
            prim(kind, space)


def test_kernels_evaluate_unbound_variables_lazily():
    space = StateSpace.make(("x",), 0, 3)
    assert rd.compile_expr(Var("zz"), space) is not None  # nothing raised
    lazy = parse("while ((x > 5) && (zz > 0)) x = 0;")
    assert it.sem(lazy, space) == it.oracle_sem(lazy, space) == \
        it.sem(Skip(), space)
    lazy = parse("if ((x >= 0) || (zz > 0)) x = 0;")
    assert it.sem(lazy, space) == it.oracle_sem(lazy, space) == \
        it.sem(parse("x = 0;"), space)
    strict = parse("if ((zz > 0) || (x > 0)) x = 0;")
    for run in (it.sem, it.oracle_sem):
        with pytest.raises(rd.UnboundVariableError) as exc:
            run(strict, space)
        assert str(exc.value) == "unbound variable 'zz' (space has: x)"


def test_compose_init_is_two_sided_unit():
    rng = random.Random(5)
    space = StateSpace.make(("x", "y"), 0, 2)  # nine states
    ident = prim("init", space)
    for _ in range(40):
        t = random_triple(rng, space)
        assert compose(t, ident) == t
        assert compose(ident, t) == t


def test_compose_divergent_everywhere_absorbs():
    space = StateSpace.make(("y",), 0, 1)
    div = rd.triple(space, inf=space.states())
    rng = random.Random(6)
    for _ in range(20):
        assert compose(div, random_triple(rng, space)) == div


def test_compose_two_step_chain():
    space = StateSpace.make(("y",), 0, 1)
    t1 = rd.triple(space, e={((0,), (1,))})
    t2 = rd.triple(space, e={((1,), (0,))})
    assert compose(t1, t2) == rd.triple(space, e={((0,), (0,))})


def test_compose_is_associative():
    rng = random.Random(7)
    space = StateSpace.make(("x", "y"), 0, 2)
    for _ in range(60):
        a, b, c = (random_triple(rng, space) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_join_bottom_unit_and_leq_infimum():
    rng = random.Random(8)
    space = StateSpace.make(("y",), 0, 2)
    for _ in range(20):
        t = random_triple(rng, space)
        assert join(t, rd.bottom(space)) == t
        assert leq(rd.bottom(space), t)


def test_branch_join_reproduces_if_semantics():
    # both routes: structural join of guarded branches vs the oracle
    rng = random.Random(9)
    for _ in range(25):
        s, space = random_program(rng, depth=2)
        cond = Cmp("==", Var(space.vars[0]), Const(0))
        prog = rd.lang.If(cond, s, Skip())
        branches = join(
            compose(prim(BoolTest(cond), space), it.sem(s, space)),
            compose(prim(BoolTest(rd.lang.Not(cond)), space),
                    it.sem(Skip(), space)))
        assert branches == it.oracle_sem(prog, space)


def _all_rels(space, limit=None):
    pairs = sorted(product(space.states(), space.states()))
    rels = [rd.rel(c, space) for r in range(len(pairs) + 1)
            for c in combinations(pairs, r)]
    return rels if limit is None else random.Random(0).sample(rels, limit)


def test_compose_left_distributes_over_arbitrary_unions():
    space = StateSpace.make(("y",), 0, 1)
    rng = random.Random(10)
    rels = _all_rels(space)
    for _ in range(150):
        fam = [random_triple(rng, space) for _ in range(rng.randint(0, 3))]
        r = random_triple(rng, space)
        lhs = compose(rd.join_all(fam, space), r)
        rhs = rd.join_all((compose(x, r) for x in fam), space)
        assert lhs == rhs
    assert rels  # exhaustive relation universe was built


def test_compose_right_distributes_over_nonempty_unions_only():
    space = StateSpace.make(("y",), 0, 1)
    rng = random.Random(11)
    for _ in range(150):
        fam = [random_triple(rng, space) for _ in range(rng.randint(1, 3))]
        r = random_triple(rng, space)
        lhs = compose(r, rd.join_all(fam, space))
        rhs = rd.join_all((compose(r, x) for x in fam), space)
        assert lhs == rhs
    # the empty union fails when divergence is present: t ; bottom keeps inf
    t = rd.triple(space, inf=space.states())
    assert compose(t, rd.bottom(space)) == t != rd.bottom(space)


def test_triple_lattice_laws():
    rng = random.Random(12)
    space = StateSpace.make(("y",), 0, 1)
    top = top_triple(space)
    for _ in range(60):
        a, b = random_triple(rng, space), random_triple(rng, space)
        assert leq(meet(a, b), a) and leq(a, join(a, b))
        assert join(a, a) == a and meet(a, a) == a
        assert join(a, meet(a, b)) == a and meet(a, join(a, b)) == a
        assert leq(a, top)


def test_serialization_round_trip():
    rng = random.Random(13)
    space = StateSpace.make(("x", "y"), -1, 1)
    for _ in range(20):
        t = random_triple(rng, space)
        assert rd.triple_from_json(rd.triple_to_json(t, space), space) == t


def test_space_config_state_count_is_capped():
    # 64 * 64 states is the cap itself; one more value of y is past it
    assert rd.MAX_STATES == 4096
    at_cap = {"vars": ["x", "y"], "lo": [0, -32], "hi": [63, 31]}
    assert StateSpace.from_config(at_cap).size() == rd.MAX_STATES
    with pytest.raises(ValueError, match="^space config has 4160 states, "
                       "more than the limit of 4096$"):
        StateSpace.from_config(dict(at_cap, hi=[63, 32]))


def test_space_refuses_a_repeated_variable_however_it_is_built():
    # a repeated name would give two positions one index: an assignment to
    # the second would write the first
    for build, shown in (
            (lambda: StateSpace.make(("x", "x"), 0, 1), '["x", "x"]'),
            (lambda: StateSpace.make(("x", "y", "x"), 0, 1),
             '["x", "y", "x"]'),
            (lambda: rd.extend(StateSpace.make(("x",), 0, 1), "x"),
             '["x", "x"]'),
            (lambda: StateSpace.from_config(
                {"vars": ["l", "l"], "lo": 0, "hi": 1}), '["l", "l"]')):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == ("state space variables must be distinct, "
                                  "got " + shown)


def _project_by_tuples(t, ext, space):
    """The choice rule's former projection: drop the last value of every
    state tuple of `t` over `ext`, then look the results up in `space`."""
    def project(r):
        return ((a[:-1], b[:-1]) for a, b in rd.pairs(r, ext))
    return rd.triple(space, project(t.e),
                     (a[:-1] for a in rd.members(t.inf, ext)), project(t.br))


def test_project_drops_the_extension_bit_as_the_tuple_route_does():
    rng = random.Random(35)
    checked = 0
    for _ in range(120):
        names = ("x", "y")[:rng.randint(1, 2)]
        lo = [rng.randint(-3, 1) for _ in names]
        hi = [v + rng.randint(0, 2) for v in lo]
        space = StateSpace.make(names, lo, hi, rng.choice(ARITH_MODES))
        ext = rd.extend(space, "c")
        # the space the choice rule built by hand, field for field, and
        # state i with c = v at index 2i + v
        assert ext == StateSpace(space.vars + ("c",), space.lo + (0,),
                                 space.hi + (1,), space.arith)
        assert ext.states() == tuple(s + (v,) for s in space.states()
                                     for v in (0, 1))
        for t in (rd.bottom(ext), top_triple(ext),
                  random_triple(rng, ext, pure=True),
                  *(random_triple(rng, ext) for _ in range(6))):
            assert rd.project(t, space) == _project_by_tuples(t, ext, space)
            checked += 1
    assert checked >= 1000


def test_sem_matches_paper_countdown():
    space = StateSpace.make(("y",), -3, 3)
    t = it.sem(parse("while (y != 0) y = y - 1;"), space)
    assert t.e == rd.rel((((v,), (0,)) for v in range(0, 4)), space)
    assert t.inf == rd.mask(((v,) for v in range(-3, 0)), space)
    assert t.br == rd.empty_rel(space)


# ---------------------------------------------------------------------------
# The dense representation against definitions on sets of state pairs

_SPACES = (StateSpace.make(("y",), -1, 1), StateSpace.make(("x", "y"), 0, 2),
           StateSpace.make(("x", "y"), (0, -2), (1, 2), "wrap"))


def _random_sets(rng, space):
    """(e, inf, br): random sets of state pairs and of states."""
    sts = space.states()
    every = [(a, b) for a in sts for b in sts]
    return (frozenset(rng.sample(every, rng.randint(0, len(every) // 2))),
            frozenset(rng.sample(sts, rng.randint(0, len(sts)))),
            frozenset(rng.sample(every, rng.randint(0, len(every) // 4))))


def _compose_pairs(r1, r2):
    return frozenset((a, c) for a, b in r1 for b2, c in r2 if b == b2)


def test_operators_match_their_pairwise_definitions():
    rng = random.Random(71)
    for space in _SPACES:
        for _ in range(60):
            (e1, i1, b1), (e2, i2, b2) = (_random_sets(rng, space)
                                          for _ in range(2))
            t1 = rd.triple(space, e1, i1, b1)
            t2 = rd.triple(space, e2, i2, b2)
            assert frozenset(rd.pairs(t1.e, space)) == e1
            assert frozenset(rd.members(t1.inf, space)) == i1
            assert rd.compose_rel(t1.e, t2.e) == \
                rd.rel(_compose_pairs(e1, e2), space)
            assert rd.rel_into(t1.e, t2.inf) == \
                rd.mask((a for a, b in e1 if b in i2), space)
            sts = space.states()
            assert rd.residual(t1.e, t2.e) == rd.rel(
                ((a, b) for a in sts for b in sts
                 if all((a, c) in e2 for b1, c in e1 if b1 == b)), space)
            assert compose(t1, t2) == rd.triple(
                space, _compose_pairs(e1, e2),
                i1 | {a for a, b in e1 if b in i2},
                b1 | _compose_pairs(e1, b2))
            assert join(t1, t2) == rd.triple(space, e1 | e2, i1 | i2,
                                             b1 | b2)
            assert meet(t1, t2) == rd.triple(space, e1 & e2, i1 & i2,
                                             b1 & b2)
            for x, y, xs, ys in ((t1, t2, (e1, i1, b1), (e2, i2, b2)),
                                 (meet(t1, t2), t1, (e1 & e2, i1 & i2,
                                                     b1 & b2), (e1, i1, b1))):
                assert leq(x, y) == all(a <= b for a, b in zip(xs, ys))
                assert rd.rel_leq(x.e, y.e) == (xs[0] <= ys[0])


def test_sort_key_is_the_sorted_state_pair_order():
    rng = random.Random(72)
    for space in _SPACES:
        sets = [_random_sets(rng, space) for _ in range(80)]
        sets += [(e, i, frozenset()) for e, i, _ in sets[:20]]  # ties on br
        sets += [(e, frozenset(), b) for e, _, b in sets[:20]]

        def pair_key(s):
            return tuple(tuple(sorted(c)) for c in s)
        want = sorted(sets, key=pair_key)
        got = sorted(sets, key=lambda s: rd.triple(space, *s).sort_key())
        assert got == want


def test_json_round_trip_in_sorted_order():
    rng = random.Random(73)
    for space in _SPACES:
        for _ in range(30):
            e, inf, br = _random_sets(rng, space)
            t = rd.triple(space, e, inf, br)
            d = rd.triple_to_json(t, space)
            assert d == {"e": [[list(a), list(b)] for a, b in sorted(e)],
                         "inf": [list(s) for s in sorted(inf)],
                         "br": [[list(a), list(b)] for a, b in sorted(br)]}
            assert rd.triple_from_json(d, space) == t


_RESET_NEST = ("while (a > 0) {{ while (b > 0) {{ while (c > 0) {{ c = c - 1; }}"
               " b = b - 1; c = [{0},{1}]; }} a = a - 1; b = [{2},{3}]; }}")


def test_random_reset_nests_agree_with_the_oracle_and_the_post_calculus():
    # |S| = 125, 216 and 343: sem against the small-step oracle, and the
    # structural post against the composition with sem
    rng = random.Random(74)
    from hyperlab import transformers as tf
    for k in (4, 5, 6):
        space = StateSpace.make(("a", "b", "c"), 0, k)
        lo1, lo2 = rng.randint(-1, 2), rng.randint(-1, 2)
        s = parse(_RESET_NEST.format(lo1, rng.randint(lo1, k + 1),
                                     lo2, rng.randint(lo2, k + 1)))
        t = it.sem(s, space)
        assert t == it.oracle_sem(s, space)
        for p in [prim("init", space)] + [
                rd.triple(space, *_random_sets(rng, space)) for _ in range(2)]:
            assert tf.post_structural(s, p, space) == compose(p, t)
