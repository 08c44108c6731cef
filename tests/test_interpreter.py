import gc
import random
from functools import reduce

import pytest

from hyperlab import interpreter as it
from hyperlab import rel_domain as rd
from hyperlab import trace_domain as td
from hyperlab import transformers as tf
from hyperlab.interpreter import (FixpointReport, NonMonotoneError, gfp, lfp,
                                  oracle_sem, sem)
from hyperlab.hyperlogic import check_rule
from hyperlab.lang import (Assign, BoolTest, Break, Cmp, Const, If, Not, Seq,
                           Skip, Var, While, parse, pretty, subtrees,
                           validate_breaks)
from hyperlab.rel_domain import StateSpace
from hyperlab.selftest import (SPACE_XY, SPACE_Y, S1_SRC, S2_SRC, S3_SRC,
                               S4_SRC, random_bexpr, random_program,
                               random_triple, s3_expected, s4_expected)


def kleene_lfp(f, bottom, le=None):
    """The reference least fixpoint: Kleene iteration from `bottom`.  `le`
    (if given) checks that the iterates increase, and a violation raises
    NonMonotoneError naming the offending iterate."""
    x, n = bottom, 0
    while True:
        y = f(x)
        n += 1
        if y == x:
            return FixpointReport(n, x)
        if le is not None and not le(x, y):
            raise NonMonotoneError(n)
        x = y


def test_lfp_identity_single_iteration():
    rep = lfp(lambda x, d: (x | d, frozenset()), frozenset(), frozenset(),
              max_iter=1)
    assert rep == FixpointReport(1, frozenset())


def test_lfp_iterates_semi_naively():
    # X = {0} | {i + 1 : i in X, i < 4}: each round sees only the new item
    seen = []

    def grow(x, d):
        seen.append(d)
        x = x | d
        return x, frozenset(i + 1 for i in d if i < 4) - x
    rep = lfp(grow, frozenset(), frozenset((0,)), max_iter=6)
    assert rep == FixpointReport(6, frozenset(range(5)))
    assert seen == [frozenset((i,)) for i in range(5)] + [frozenset()]
    assert rep == kleene_lfp(
        lambda x: frozenset((0,)) | {i + 1 for i in x if i < 4}, frozenset())


def test_gfp_identity_on_top():
    top = frozenset(range(5))
    assert gfp(lambda x: x, top, ge=frozenset.__ge__,
               max_iter=1).result == top


def test_lfp_detects_non_monotone_step():
    flip = lambda x: frozenset() if x else frozenset((1,))
    with pytest.raises(NonMonotoneError) as err:
        kleene_lfp(flip, frozenset((2,)), le=lambda a, b: a <= b)
    assert err.value.iteration >= 1


# The loop's two fixpoints, read through loop_triple.  With a guard that is
# never true the loop leaves from every head state, so for a break-free body
# triple the loop's e is the entry lfp itself; with a body triple that
# neither diverges nor breaks, the loop's inf is the divergence gfp itself.

def exit_test(cond, space):
    return rd.prim(BoolTest(Not(cond)), space)


def entry_fixpoint(bs, space):
    v = Var(space.vars[0])
    return it.loop_triple(rd.pure_e(bs.e), exit_test(Cmp("!=", v, v), space),
                          space).e


def divergence_gfp(cond, bs, space):
    return it.loop_triple(rd.pure_e(bs.e), exit_test(cond, space), space).inf


def backward_entry_fixpoint(bs, space):
    ident = rd.identity_rel(space)
    return kleene_lfp(lambda x: rd.union(ident, rd.compose_rel(bs.e, x)),
                      rd.empty_rel(space), le=rd.rel_leq).result


def test_never_entered_loop_gives_init():
    space = StateSpace.make(("y",), 0, 2)
    cond = Cmp("!=", Var("y"), Var("y"))
    bs = it.body_triple(cond, Skip(), space)
    ident = rd.identity_rel(space)
    assert entry_fixpoint(bs, space) == ident
    assert backward_entry_fixpoint(bs, space) == ident
    t = sem(While(cond, Skip()), space)
    assert t == rd.pure_e(ident)


def test_entry_fixpoint_matches_reachability_closure():
    # the forward/backward lfp vs an independent reflexive-transitive closure
    s1 = parse(S1_SRC)
    bs = it.body_triple(s1.cond, s1.body, SPACE_Y)
    fwd = entry_fixpoint(bs, SPACE_Y)
    assert backward_entry_fixpoint(bs, SPACE_Y) == fwd
    step = oracle_sem(Seq(BoolTest(s1.cond), s1.body), SPACE_Y).e
    reach = {(s, s) for s in SPACE_Y.states()}
    changed = True
    while changed:
        changed = False
        for (a, b) in rd.pairs(step, SPACE_Y):
            for (src, tgt) in list(reach):
                if tgt == a and (src, b) not in reach:
                    reach.add((src, b))
                    changed = True
    assert fwd == rd.rel(reach, SPACE_Y)


def test_forward_equals_backward_on_random_loops():
    rng = random.Random(42)
    for _ in range(40):
        s, space = random_program(rng, depth=2)
        cond = Cmp("!=", Var(space.vars[0]), Const(0))
        bs = it.body_triple(cond, s, space)
        assert entry_fixpoint(bs, space) == backward_entry_fixpoint(bs, space)


def test_powers_commute_with_the_base_relation():
    rng = random.Random(43)
    for _ in range(30):
        s, space = random_program(rng, depth=2)
        cond = Cmp("<", Var(space.vars[0]), Const(1))
        bs = it.body_triple(cond, s, space)
        pows = it.powers(bs.e, space, 6)
        for p in pows:
            assert rd.compose_rel(bs.e, p) == rd.compose_rel(p, bs.e)


def test_entry_fixpoint_is_union_of_guarded_body_powers():
    rng = random.Random(45)
    for _ in range(25):
        body, space = random_program(rng, depth=2)
        cond = Cmp("!=", Var(space.vars[0]), Const(1))
        bs = it.body_triple(cond, body, space)
        bound = len(space.states()) ** 2 + 1
        pows = it.powers(bs.e, space, bound)
        union = reduce(rd.union, pows)
        assert entry_fixpoint(bs, space) == union


def test_divergence_gfp_is_meet_of_power_domains():
    rng = random.Random(46)
    for _ in range(25):
        body, space = random_program(rng, depth=2)
        cond = Cmp(">", Var(space.vars[0]), Const(0))
        bs = it.body_triple(cond, body, space)
        doms = rd.mask(space.states(), space)
        meet = doms
        for p in it.powers(bs.e, space, len(space.states()) + 2)[1:]:
            meet &= rd.mask((a for a, _ in rd.pairs(p, space)), space)
        assert divergence_gfp(cond, bs, space) == meet


def test_divergence_gfp_on_countdown():
    s1 = parse(S1_SRC)
    bs = it.body_triple(s1.cond, s1.body, SPACE_Y)
    assert divergence_gfp(s1.cond, bs, SPACE_Y) == \
        rd.mask(((v,) for v in range(-3, 0)), SPACE_Y)


def test_divergence_gfp_matches_oracle_cycles():
    space = StateSpace.make(("x",), -2, 2)
    prog = parse("while (x != 0) x = x - 1;")
    bs = it.body_triple(prog.cond, prog.body, space)
    div = divergence_gfp(prog.cond, bs, space)
    assert div == rd.mask(((v,) for v in (-2, -1)), space)
    assert oracle_sem(prog, space).inf == div


def closure_parts(bs, space):
    """(star, div): the closure bs.e*, the union of the powers of bs.e, and
    the starts of infinitely many body rounds, the domain of bs.e^|S|."""
    n = space.size()
    pows = it.powers(bs.e, space, n)
    return (reduce(rd.union, pows),
            sum(1 << i for i, row in enumerate(pows[n]) if row))


def closure_loop_triple(cond, bs, space):
    """The loop triple through the closure: star ; exits, and
    rel_into(star, bs.inf) | div."""
    star, div = closure_parts(bs, space)
    exits = rd.union(exit_test(cond, space).e, bs.br)
    return rd.SemTriple(rd.compose_rel(star, exits),
                        rd.rel_into(star, bs.inf) | div, rd.empty_rel(space))


def test_loop_triple_matches_the_closure_formulation():
    rng = random.Random(47)
    breaking = diverging = reaching = 0
    for k in range(200):
        # breaks anywhere in the body leave the loop; inner loops may diverge
        body, space = random_program(rng, depth=3, allow_free_break=True)
        cond = random_bexpr(rng, space.vars, 1)
        bs = it.body_triple(cond, body, space)
        breaking += any(bs.br)
        diverging += bs.inf != 0
        # starts that reach a body divergence but cannot iterate forever:
        # the gfp holds them only through its bs.inf term
        star, div = closure_parts(bs, space)
        reaching += rd.rel_into(star, bs.inf) & ~div != 0
        assert it.loop_triple(bs, exit_test(cond, space), space) == \
            closure_loop_triple(cond, bs, space), (k, body)
    assert breaking >= 20 and diverging >= 20 and reaching >= 20, \
        (breaking, diverging, reaching)


def kleene_loop_triple(bs, exit, space):
    """(triple, iterations): the loop triple with its e by `kleene_lfp` on
    X = exits | bs.e ; X, the reference for the semi-naive `lfp`."""
    n = space.size()
    exits = rd.union(exit.e, bs.br)
    rep = kleene_lfp(lambda x: rd.union(exits, rd.compose_rel(bs.e, x)),
                     rd.empty_rel(space), le=rd.rel_leq)
    inf = gfp(lambda x: bs.inf | rd.rel_into(bs.e, x), (1 << n) - 1,
              ge=lambda x, y: x | y == x, max_iter=n + 2).result
    return rd.SemTriple(rep.result, inf, rd.empty_rel(space)), rep.iterations


def test_loop_triple_matches_kleene_iteration(monkeypatch):
    reports = []

    def recorded(*args, **kwargs):
        reports.append(lfp(*args, **kwargs))
        return reports[-1]
    monkeypatch.setattr(it, "lfp", recorded)
    rng = random.Random(48)
    no_exit = breaking = 0
    for k in range(300):
        body, space = random_program(rng, depth=3, allow_free_break=True)
        v = Var(space.vars[0])
        # every third guard always holds: such a loop leaves only by a break
        cond = Cmp("==", v, v) if k % 3 == 0 else \
            random_bexpr(rng, space.vars, 1)
        bs = it.body_triple(cond, body, space)
        exit = exit_test(cond, space)
        no_exit += not any(rd.union(exit.e, bs.br))
        breaking += any(bs.br)
        reports.clear()
        got = it.loop_triple(bs, exit, space)
        want, iterations = kleene_loop_triple(bs, exit, space)
        assert got == want, (k, body)
        assert [r.iterations for r in reports] == [iterations], (k, body)
    assert no_exit >= 20 and breaking >= 20, (no_exit, breaking)


def test_sem_skip_is_identity_triple():
    space = StateSpace.make(("x",), 0, 1)
    assert sem(Skip(), space) == rd.pure_e(rd.identity_rel(space))


def test_sem_nested_random_loops_match_paper():
    assert sem(parse(S3_SRC), SPACE_XY) == s3_expected(SPACE_XY)
    assert sem(parse(S4_SRC), SPACE_XY) == s4_expected(SPACE_XY)


def test_oracle_matches_paper_nested_example():
    assert oracle_sem(parse(S3_SRC), SPACE_XY) == s3_expected(SPACE_XY)


def test_oracle_skip():
    space = StateSpace.make(("x",), 0, 2)
    assert oracle_sem(Skip(), space) == rd.pure_e(rd.identity_rel(space))


def test_oracle_equals_sem_smoke():
    # the last 120 programs may break outside any loop, a fragment whose
    # breaks both carry in br.  hl trace reads its divergent starts from the
    # oracle, so they are checked against sem's inf on every program too
    rng = random.Random(44)
    diverging = 0
    for k in range(240):
        s, space = random_program(rng, allow_free_break=k >= 120)
        t = sem(s, space)
        assert t == oracle_sem(s, space), (k, s)
        assert td.trace_sem(s, space, 2).inf == t.inf, (k, s)
        diverging += t.inf != 0
    assert diverging >= 20, diverging


def test_oracle_equals_sem_under_wrap_and_prune():
    rng = random.Random(47)
    for mode in ("wrap", "prune"):
        for _ in range(60):
            s, space = random_program(rng, depth=3)
            moded = StateSpace(space.vars, space.lo, space.hi, mode)
            assert sem(s, moded) == oracle_sem(s, moded)


def test_a_sequence_of_ten_thousand_statements_is_one_node():
    # no walk recurses once per item, so the length of a sequence does not
    # count toward the recursion limit
    text = ("x = x + y;\ny = [0,1];\n" * 2 + "if (x > y) x = 0;\n") * 2000
    s = parse(text + "while (x < 1) { x = x + 1; if (y == 1) break; }")
    assert isinstance(s, Seq) and len(s.stmts) == 10001
    space = StateSpace.make(("x", "y"), 0, 1)
    assert sem(s, space) == oracle_sem(s, space)
    again = parse(pretty(s))
    assert again == s and hash(again) == hash(s)


def test_pruned_executions_vanish_entirely():
    # an out-of-range result neither terminates nor diverges under prune
    space = StateSpace.make(("x",), 0, 2, "prune")
    prog = parse("x = x + 5;")
    t = sem(prog, space)
    assert t == oracle_sem(prog, space)
    assert t.e == rd.empty_rel(space) and t.inf == 0


def test_wrap_mode_can_turn_divergence_into_termination():
    sat = StateSpace.make(("x",), 0, 3, "saturate")
    wrap = StateSpace.make(("x",), 0, 3, "wrap")
    prog = parse("while (x != 0) x = x + 1;")
    assert sem(prog, sat).inf == rd.mask(((v,) for v in (1, 2, 3)), sat)
    assert sem(prog, wrap).inf == 0
    assert sem(prog, wrap) == oracle_sem(prog, wrap)


def test_free_break_terminates_via_br():
    space = StateSpace.make(("x",), 0, 1)
    prog = Seq(Assign("x", Const(1)), rd.lang.Break())
    t = sem(prog, space)
    assert t.e == rd.empty_rel(space) and t.br == rd.rel(
        ((s, (1,)) for s in space.states()), space)
    assert oracle_sem(prog, space) == t


def test_break_composes_with_closest_loop_only():
    space = StateSpace.make(("x",), 0, 3)
    prog = parse("while (x > 0) { if (x == 2) break; x = x - 1; }")
    t = sem(prog, space)
    # the while resets the break component
    assert t.br == rd.empty_rel(space)
    assert ((3,), (2,)) in rd.pairs(t.e, space)  # 3 -> 2, then break leaves 2
    assert t == oracle_sem(prog, space)


def countdown_nest(depth):
    """while (x1 != 0) { while (x2 != 0) { ... } x1 = x1 - 1; } on bits."""
    src = ""
    for k in range(depth, 0, -1):
        src = "while (x%d != 0) { %s x%d = x%d - 1; }" % (k, src, k, k)
    space = StateSpace.make(["x%d" % k for k in range(1, depth + 1)], 0, 1)
    return parse(src), space


def count_calls(monkeypatch, mod, names):
    """Wrap each named function of `mod` to count its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_sem_evaluates_each_loop_body_once(monkeypatch):
    calls = count_calls(monkeypatch, it, ("interpret",))
    for depth in range(1, 7):
        prog, space = countdown_nest(depth)
        calls["interpret"] = 0
        t = it.sem(prog, space)
        assert calls["interpret"] == len(list(subtrees(prog)))
        init = rd.prim("init", space)
        assert tf.post_structural(prog, init, space) == tf.post(t, init)


def test_post_structural_builds_each_loop_once(monkeypatch):
    # the divergence gfp and the guarded body do not depend on the
    # precondition, so a program with k loops (and no conditional) takes
    # k of each however many preconditions it is applied to
    rng = random.Random(47)
    calls = count_calls(monkeypatch, it, ("gfp", "guarded"))
    for k in (1, 2, 3):
        prog, space = countdown_nest(k)
        for n in (1, 3, 6):
            pres = frozenset(random_triple(rng, space) for _ in range(n))
            calls.update(gfp=0, guarded=0)
            got = tf.Post_structural(prog, pres, space)
            assert calls == {"gfp": k, "guarded": k}
            assert got == tf.Post(sem(prog, space), pres)


def test_while_rule_runs_the_divergence_gfp_once(monkeypatch):
    prog = parse("while (h > 0) { h = h - 1; l = l + 1; }")
    space = StateSpace.make(("l", "h"), 0, 2)
    rng = random.Random(48)
    calls = count_calls(monkeypatch, it, ("gfp",))
    for n in (1, 3, 6):
        pre = frozenset(random_triple(rng, space, pure=True)
                        for _ in range(n))
        post_q = tf.Post(sem(prog, space), pre)
        calls["gfp"] = 0
        rep = check_rule("while_upper", space, pre=pre, stmt=prog,
                         post_q=post_q)
        assert rep.holds()
        # one for the premise's loop post, one in the direct check's sem
        assert calls["gfp"] == 2


# ---------------------------------------------------------------------------
# The compiled oracle: edge cases, independence, closed forms at scale

def test_oracle_self_loop_diverges_everywhere():
    # skip compiles to its continuation, so the loop head steps to itself
    space = StateSpace.make(("x",), 0, 2)
    prog = parse("while (x == x) skip;")
    t = oracle_sem(prog, space)
    assert t == rd.triple(space, inf=space.states())
    assert t == sem(prog, space)


def test_oracle_break_exits_only_the_inner_loop():
    space = StateSpace.make(("x", "y"), 0, 2)
    prog = parse("while (x > 0) { while (y == y) { y = 1; break; } "
                 "x = x - 1; }")
    t = oracle_sem(prog, space)
    want_e = {(s, s) for s in space.states() if s[0] == 0}
    want_e |= {(s, (0, 1)) for s in space.states() if s[0] > 0}
    assert t == rd.triple(space, e=want_e)
    assert t == sem(prog, space)


def test_oracle_free_break_under_if_inside_seq():
    space = StateSpace.make(("x", "y"), 0, 1)
    prog = Seq(Assign("x", Const(1)),
               Seq(If(Cmp("==", Var("y"), Const(0)), Break(), Skip()),
                   Assign("y", Const(1))))
    t = oracle_sem(prog, space)
    assert t.br == rd.rel(((s, (1, 0)) for s in space.states()
                           if s[1] == 0), space)
    assert t.e == rd.rel(((s, (1, 1)) for s in space.states()
                          if s[1] == 1), space)
    assert t.inf == 0
    assert t == sem(prog, space)


def test_oracle_pruned_assignment_is_a_dead_end():
    # 0 -> 2 -> (4 pruned): the run neither ends nor diverges
    space = StateSpace.make(("x",), 0, 3, "prune")
    prog = parse("while (x < 3) x = x + 2;")
    t = oracle_sem(prog, space)
    assert t == rd.triple(space, e={((1,), (3,)), ((3,), (3,))})
    assert t == sem(prog, space)


def test_oracle_empty_random_range_is_a_dead_end():
    space = StateSpace.make(("x",), 0, 3)
    for src in ("x = [5,9];", "while (x == x) x = [5,9];"):
        t = oracle_sem(parse(src), space)
        assert t == rd.bottom(space)
        assert t == sem(parse(src), space)


# Cut points: the oracle's nodes are the configurations of the start, the
# loop heads and the random assignments' targets, and each walk between
# them runs in place

def _agree(src, space):
    t = sem(parse(src), space)
    assert oracle_sem(parse(src), space) == t, src
    return t


def test_oracle_body_of_only_break():
    # the head's body entry is its own exit, so a head walk never returns
    space = StateSpace.make(("x", "y"), 0, 2)
    t = _agree("while (x > 0) break;", space)
    assert t == rd.pure_e(rd.identity_rel(space))
    t = _agree("while (x < 2) { while (y == y) { break; } x = x + 1; }",
               space)
    assert t.inf == 0
    assert rd.pairs(t.e, space) == [(s, (2, s[1])) for s in space.states()]


def test_oracle_inner_loop_on_one_branch_only():
    # with y != 0 the outer body never reaches the inner head: the outer
    # cycle runs through the outer head alone and diverges
    space = StateSpace.make(("x", "y", "z"), 0, 1)
    t = _agree("while (x > 0) { if (y == 0) { while (z > 0) { z = z - 1; }"
               " x = x - 1; } else { z = [0,1]; } }", space)
    assert list(rd.members(t.inf, space)) == [(1, 1, 0), (1, 1, 1)]
    assert len(rd.pairs(t.e, space)) == 6
    _agree("while (x > 0) { if (y == 0) { while (z > 0) { z = z - 1; } }"
           " x = x - 1; y = [0,1]; }", space)


def test_oracle_two_branches_reach_the_same_head():
    space = StateSpace.make(("x", "y"), 0, 2)
    # at the top level, into a loop that diverges from y = 1
    _agree("if (x > 0) { y = 1; } else { y = [0,1]; }"
           " while (y == 1) x = [0,2];", space)
    # after a fan-out, both branches reach the body's own head in one state
    t = _agree("while (x > 0) { y = [0,2]; if (y == 0) { y = 1; x = x - 1; }"
               " else { x = x - 1; y = 1; } }", space)
    assert t.inf == 0


def test_oracle_pruned_assignment_in_mid_walk():
    space = StateSpace.make(("x", "y"), 0, 3, "prune")
    # the walk from the head dies at y = y + 2 before it reaches the head
    t = _agree("while (x < 3) { y = y + 2; x = x + 1; }", space)
    assert t == rd.triple(space, e={((2, 0), (3, 2)), ((2, 1), (3, 3))} | {
        ((3, y), (3, y)) for y in range(4)})
    # and on some branches of a fan-out only
    t = _agree("while (x < 3) { y = [0,3]; y = y + 2; x = x + 1; }", space)
    assert t == rd.triple(space, e={
        ((x, y), (3, z)) for x in range(3) for y in range(4) for z in (2, 3)
    } | {((3, y), (3, y)) for y in range(4)})


def test_oracle_free_break_inside_a_top_level_walk():
    space = StateSpace.make(("x", "y"), 0, 1)
    t = _agree("x = [0,1]; if (x == 1) { break; } y = 1;"
               " while (y > 0) y = y - 1;", space)
    assert rd.pairs(t.br, space) == [(s, (1, s[1])) for s in space.states()]
    # met on the way out of a loop, by the walk from its head
    t = _agree("while (x > 0) x = x - 1; if (y == 0) break; y = 0;", space)
    assert any(t.br) and any(t.e)


def test_oracle_merges_runs_at_fan_outs(monkeypatch):
    # each `y = [0,1]` doubles the runs and each `y = 0` joins them again:
    # an oracle that followed every run through the body, without merging
    # the runs that reach one configuration, would take 2^40 of them.  After
    # `x = [0,5]; y = [0,5];` every start reaches the same 36 states: an
    # oracle that merged the runs of each start alone would walk the code
    # after it 36 times.  Every kernel evaluation is counted, and the
    # budget is linear in instructions x |S|; after `x = 0; y = 0;`, where
    # all 36 runs merge into one, it is linear in instructions + |S|
    evals = [0]
    compile_expr = rd.compile_expr

    def counted(e, space):
        f = compile_expr(e, space)

        def kernel(sigma):
            evals[0] += 1
            if evals[0] > budget:
                raise AssertionError("more than %d kernel evaluations"
                                     % budget)
            return f(sigma)
        return kernel

    monkeypatch.setattr(rd, "compile_expr", counted)
    space = StateSpace.make(("x", "y"), 0, 3)
    src = "while (x > 0) { x = x - 1; %s}" % ("y = [0,1]; y = 0; " * 40)
    budget = 2 * len(it._compile(parse(src), space)[1]) * space.size()
    t = oracle_sem(parse(src), space)
    assert 0 < evals[0] <= budget
    assert t == rd.triple(space, e={(s, (0, 0 if s[0] else s[1]))
                                    for s in space.states()})
    space = StateSpace.make(("x", "y"), 0, 5)
    src = ("x = [0,5]; y = [0,5]; " + "x = x + 1; y = y - 1; " * 5
           + "while (x > 9) skip;")
    budget = 2 * len(it._compile(parse(src), space)[1]) * space.size()
    evals[0] = 0
    t = oracle_sem(parse(src), space)
    assert 0 < evals[0] <= budget
    assert t == rd.triple(space, e={
        (s, (min(x + 5, 5), max(y - 5, 0))) for s in space.states()
        for x in range(6) for y in range(6)})
    src = ("x = 0; y = 0; " + "x = x + 1; y = y + 1; " * 10
           + "while (x > 9) skip;")
    budget = 2 * (len(it._compile(parse(src), space)[1]) + space.size())
    evals[0] = 0
    t = oracle_sem(parse(src), space)
    assert 0 < evals[0] <= budget
    assert t == rd.triple(space, e={(s, (5, 5)) for s in space.states()})


def test_oracle_and_validate_breaks_leave_no_cyclic_garbage():
    # nothing they build refers back to itself, so reference counting
    # frees all of it and the cycle collector finds nothing
    space = StateSpace.make(("x", "y"), 0, 2)
    prog = parse("while (x > 0) { y = [0,2]; if (y == 1) break;"
                 " x = x - 1; }")
    free = parse("x = 1; if (y == 0) { break; }")
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for run in (lambda: it._compile(prog, space),
                    lambda: oracle_sem(prog, space),
                    lambda: oracle_sem(free, space),
                    lambda: validate_breaks(prog),
                    lambda: validate_breaks(free)):
            run()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_oracle_uses_no_fixpoint_or_relational_code(monkeypatch):
    cases = [(parse(src), space) for src, space in
             ((S1_SRC, SPACE_Y), (S2_SRC, SPACE_Y),
              (S3_SRC, SPACE_XY), (S4_SRC, SPACE_XY))]
    want = [sem(s, space) for s, space in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("oracle_sem must not use the structural route")

    for mod, names in ((it, ("sem", "interpret", "lfp", "gfp", "body_triple",
                             "loop_triple", "prim", "compose", "join")),
                       (rd, ("prim", "compose", "compose_rel", "rel_into",
                             "join", "identity_rel"))):
        for name in names:
            monkeypatch.setattr(mod, name, forbidden)
    assert [oracle_sem(s, space) for s, space in cases] == want


def test_oracle_compiles_only_the_code_it_reaches(monkeypatch):
    # no start reaches the then-branch or the loop body on x in [0, 3], so
    # their kernels are never built: each program costs as many compile_expr
    # calls as its twin with skip in place of the unreachable code
    space = StateSpace.make(("x", "y"), 0, 3)
    calls = count_calls(monkeypatch, rd, ("compile_expr",))
    for src, twin in (
            ("if (x > 10) { y = (x * 7) + (y - 1); } else { y = 0; }",
             "if (x > 10) { skip; } else { y = 0; }"),
            ("while (x > 10) { y = y + 1; x = x - (y * 2); } y = 1;",
             "while (x > 10) { skip; } y = 1;")):
        counts = []
        for prog in (src, twin):
            calls["compile_expr"] = 0
            t = oracle_sem(parse(prog), space)
            counts.append(calls["compile_expr"])
            assert t == sem(parse(prog), space)
        assert counts[0] == counts[1] > 0, src
    # assignment targets are still resolved when the program is compiled
    prog = parse("if (x > 10) { zz = 1; } else { skip; }")
    for run in (sem, oracle_sem):
        with pytest.raises(rd.UnboundVariableError) as exc:
            run(prog, space)
        assert str(exc.value) == "unbound variable 'zz' (space has: x, y)"


def test_oracle_closed_forms_on_441_states():
    space = StateSpace.make(("x", "y"), -10, 10)
    assert oracle_sem(parse(S3_SRC), space) == s3_expected(space)
    assert oracle_sem(parse(S4_SRC), space) == s4_expected(space)
