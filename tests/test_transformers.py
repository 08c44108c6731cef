import random

import pytest

from hyperlab import hyperlogic as hl
from hyperlab import interpreter as it
from hyperlab import rel_domain as rd
from hyperlab import transformers as tf
from hyperlab.abstractions import HyperOracle
from hyperlab.lang import (Assign, BoolTest, Cmp, Const, If, Skip, Var, While,
                           parse)
from hyperlab.rel_domain import SemTriple, StateSpace, leq, prim, pure_e
from hyperlab.selftest import (SPACE_Y, S1_SRC, random_bexpr, random_program,
                               random_space, random_stmt, random_triple)
from weak_reference import (BREAK_LOOP, break_loop_images, exit_image,
                            kleene_weak_family, weak_step_by_if)


def _s1_sem():
    return it.sem(parse(S1_SRC), SPACE_Y)


def test_post_of_init_is_the_semantics():
    rng = random.Random(31)
    for _ in range(20):
        s, space = random_program(rng, depth=2)
        s_sem = it.sem(s, space)
        assert tf.post(s_sem, prim("init", space)) == s_sem


def test_post_of_purely_infinitary_precondition_is_itself():
    rng = random.Random(32)
    space = StateSpace.make(("y",), 0, 2)
    for _ in range(20):
        p = SemTriple(rd.empty_rel(space), random_triple(rng, space).inf,
                      rd.empty_rel(space))
        assert tf.post(random_triple(rng, space), p) == p


def test_post_routes_through_the_guard():
    guard = prim(BoolTest(Cmp("==", Var("y"), Const(2))), SPACE_Y)
    q = tf.post(_s1_sem(), guard)
    assert q.e == rd.rel({((2,), (0,))}, SPACE_Y)
    assert q.inf == 0 and q.br == rd.empty_rel(SPACE_Y)


def test_pre_tilde_of_top_is_top():
    space = StateSpace.make(("y",), 0, 1)
    top = rd.top_triple(space)
    rng = random.Random(33)
    for _ in range(10):
        assert tf.pre_tilde(random_triple(rng, space), top, space) == top


def _pre_tilde_bruteforce(s_sem, q, space):
    best = rd.bottom(space)
    for p in tf.enumerate_triples(space):
        if leq(tf.post(s_sem, p), q):
            best = rd.join(best, p)
    return best


def test_pre_tilde_matches_bruteforce_maximum():
    space = StateSpace.make(("y",), 0, 1)
    rng = random.Random(34)
    for _ in range(12):
        s_sem = random_triple(rng, space)
        q = random_triple(rng, space)
        assert tf.pre_tilde(s_sem, q, space) == \
            _pre_tilde_bruteforce(s_sem, q, space)


def test_pre_tilde_routing_example():
    space = StateSpace.make(("y",), 0, 3)
    s_sem = it.sem(parse(S1_SRC), space)
    q = rd.triple(space, e={((2,), (0,))})
    got = tf.pre_tilde(s_sem, q, space)
    # every state terminates at zero here, so the prelude must start at 2
    assert got.e == rd.rel((((2,), s) for s in space.states()), space)
    assert got.inf == 0 and got.br == rd.empty_rel(space)


def test_pre_tilde_indexes_the_denotation_once(monkeypatch):
    # s_sem is indexed by source once per call; composing a singleton with
    # s_sem per pair of states rebuilt the index of e and br |S|^2 times
    space = StateSpace.make(("x", "y"), 0, 2)
    s_sem = it.sem(parse("while (x > 0) { x = x - 1; y = [0,2]; }"), space)
    calls = []
    compose_rel = rd.compose_rel

    def counting(r1, r2):
        calls.append(len(r2))
        return compose_rel(r1, r2)

    monkeypatch.setattr(rd, "compose_rel", counting)
    tf.pre_tilde(s_sem, s_sem, space)
    assert len(calls) <= 2


def test_pre_tilde_matches_the_pairwise_definition():
    # an e-pair is in pre_tilde exactly when the post of that pair alone
    # lies below q; loops give inf and free-break fragments give br
    rng = random.Random(37)
    seen_inf = seen_br = 0
    for k in range(60):
        s, space = random_program(rng, depth=3, allow_free_break=k % 2 == 1)
        if len(space.states()) > 9:
            continue
        s_sem = it.sem(s, space)
        seen_inf += bool(s_sem.inf)
        seen_br += any(s_sem.br)
        states = space.states()
        for q in (s_sem, random_triple(rng, space), rd.top_triple(space)):
            want = rd.rel(
                ((a, b) for a in states for b in states
                 if leq(tf.post(s_sem, rd.triple(space, e={(a, b)})), q)),
                space)
            assert tf.pre_tilde(s_sem, q, space) == \
                SemTriple(want, q.inf, q.br)
    assert seen_inf and seen_br


def test_galois_adjunction_sampled():
    space = StateSpace.make(("y",), 0, 1)
    rng = random.Random(35)
    for _ in range(8):
        s_sem = random_triple(rng, space)
        for _ in range(60):
            p = random_triple(rng, space)
            q = random_triple(rng, space)
            assert leq(tf.post(s_sem, p), q) == \
                leq(p, tf.pre_tilde(s_sem, q, space))


def test_post_preserves_arbitrary_unions_in_precondition():
    space = StateSpace.make(("y",), 0, 2)
    rng = random.Random(36)
    for _ in range(120):
        s_sem = random_triple(rng, space)
        fam = [random_triple(rng, space) for _ in range(rng.randint(0, 4))]
        assert tf.post(s_sem, rd.join_all(fam, space)) == \
            rd.join_all((tf.post(s_sem, p) for p in fam), space)


def test_Post_singleton_and_empty():
    s_sem = _s1_sem()
    ident = prim("init", SPACE_Y)
    assert tf.Post(s_sem, frozenset((ident,))) == frozenset((s_sem,))
    assert tf.Post(s_sem, frozenset()) == frozenset()


def test_Post_two_distinct_preconditions():
    space = SPACE_Y
    s_sem = it.sem(parse("y = [-oo,oo]; while (y != 0) y = y - 1;"), space)
    p1 = prim("init", space)
    p2 = prim(BoolTest(Cmp(">", Var("y"), Const(0))), space)
    out = tf.Post(s_sem, frozenset((p1, p2)))
    assert out == frozenset((tf.post(s_sem, p1), tf.post(s_sem, p2)))


def test_Pre_requires_toy_space():
    space = StateSpace.make(("y",), 0, 2)
    with pytest.raises(ValueError):
        tf.Pre(rd.bottom(space), frozenset(), space)


def test_Pre_accepts_an_oracle_consequent():
    space = StateSpace.make(("y",), 0, 1)
    s_sem = it.sem(parse("skip;"), space)
    ends_at_one = HyperOracle(
        lambda t: all(b == (1,) for _, b in rd.pairs(t.e, space)), "y is 1")
    listed = frozenset(t for t in tf.enumerate_triples(space)
                       if ends_at_one.fn(t))
    pre = tf.Pre(s_sem, ends_at_one, space)
    assert pre == tf.Pre(s_sem, listed, space) == listed
    assert 0 < len(pre) < len(tf.enumerate_triples(space))


def test_structural_post_equals_direct_on_random_programs():
    rng = random.Random(37)
    for _ in range(100):
        s, space = random_program(rng, depth=3)
        s_sem = it.sem(s, space)
        p = random_triple(rng, space)
        assert tf.post_structural(s, p, space) == tf.post(s_sem, p)
        props = frozenset((p, random_triple(rng, space)))
        assert tf.Post_structural(s, props, space) == tf.Post(s_sem, props)


def test_structural_Post_stays_tied_per_element():
    space = StateSpace.make(("x",), 0, 2)
    cond = Cmp("==", Var("x"), Const(0))
    prog = If(cond, Assign("x", Const(1)), Assign("x", Const(2)))
    rng = random.Random(38)
    props = frozenset(random_triple(rng, space) for _ in range(4))
    out = tf.Post_structural(prog, props, space)
    assert len(out) <= len(props)  # one element per precondition, deduped


def test_structural_post_while_false_filters_through_negated_guard():
    space = StateSpace.make(("x",), 0, 2)
    prog = While(Cmp("!=", Var("x"), Var("x")), Skip())
    rng = random.Random(39)
    for _ in range(10):
        p = random_triple(rng, space)
        assert tf.post_structural(prog, p, space) == p


def test_weak_while_empty_input():
    space = StateSpace.make(("x",), 0, 1)
    out, stab = tf.Post_weak_while(
        While(Cmp(">", Var("x"), Const(0)), Assign("x", Const(0))),
        frozenset(), space)
    assert out == frozenset() and stab == 0


def test_weak_while_contains_exact_post_and_is_strict():
    s1 = parse(S1_SRC)
    props = frozenset((prim("init", SPACE_Y),))
    weak, stab = tf.Post_weak_while(s1, props, SPACE_Y)
    exact = pure_e(rd.compose_rel(prim("init", SPACE_Y).e, _s1_sem().e))
    assert exact in weak
    assert len(weak) > 1 and stab >= 1


def test_weak_while_matches_hyper_level_fixpoint():
    # independent route: Kleene iteration of the set-of-triples functional
    # on 2-4 antecedents, stepping with the conditional's own triple, gives
    # the family, and the count of its growing rounds the stabilization;
    # the bodies are drawn inside a loop, so some break
    rng = random.Random(40)
    broke = 0
    for _ in range(60):
        space = random_space(rng)
        body = random_stmt(rng, space.vars, 2, in_loop=True,
                           allow_while=False)
        cond = Cmp(">", Var(space.vars[0]), Const(0))
        pre = {pure_e(rd.identity_rel(space))}
        # a one-state space has only two relations
        n = min(rng.randint(2, 4), 2 ** len(space.states()) ** 2)
        while len(pre) < n:
            pre.add(random_triple(rng, space, pure=True))
        step = weak_step_by_if(cond, body, space)
        broke += any(step.br)
        loop = While(cond, body)
        assert tf.weak_step(loop, space)[2] == step
        hyper, rounds = kleene_weak_family(pre, step)
        assert tf.weak_while_iterates(step, pre, space) == (hyper, rounds)
        reference = frozenset(exit_image(t, cond, space) for t in hyper)
        assert tf.Post_weak_while(loop, frozenset(pre), space) == (
            reference, rounds)
    assert broke >= 6, broke


def test_weak_while_reports_stabilization():
    # x = 3 needs three steps down to 0, so the identity's orbit has four
    # triples and stabilizes at 3.  Its second iterate, given as a second
    # antecedent, merges into that orbit: the family is the same, complete
    # after one more round, so the count is 1, below the identity's 3
    space = StateSpace.make(("x",), 0, 3)
    cond = Cmp(">", Var("x"), Const(0))
    body = Assign("x", rd.lang.ABin("-", Var("x"), Const(1)))
    step = weak_step_by_if(cond, body, space)
    p0 = pure_e(rd.identity_rel(space))
    family, n = tf.weak_while_iterates(step, {p0}, space)
    assert n == 3 and len(family) == n + 1
    assert {rd.compose(t, step) for t in family} <= family
    p2 = rd.compose(rd.compose(p0, step), step)
    assert tf.weak_while_iterates(step, {p2}, space)[1] == 1
    assert tf.weak_while_iterates(step, {p0, p2}, space) == (family, 1)
    assert kleene_weak_family({p0, p2}, step) == (family, 1)


def test_weak_while_keeps_the_runs_that_broke():
    # a run that breaks stays an exit in every later iterate, so the last
    # exit image is the exact post
    space = StateSpace.make(("x",), 0, 2)
    loop = parse(BREAK_LOOP)
    init = prim("init", space)
    weak, stab = tf.Post_weak_while(loop, frozenset((init,)), space)
    assert (weak, stab) == (frozenset(break_loop_images(space)), 2)
    assert pure_e(rd.compose_rel(init.e, it.sem(loop, space).e)) in weak


def test_weak_while_contains_the_exact_post_of_bodies_that_break():
    # the weak set holds every antecedent's exact loop post, and
    # forall_exists holds on it, soundly, on loops whose bodies may break
    rng = random.Random(41)
    broke = 0
    for _ in range(1000):
        space = random_space(rng, max_range=3)
        loop = While(random_bexpr(rng, space.vars, 1),
                     random_stmt(rng, space.vars, 2, in_loop=True,
                                 allow_while=False))
        pre = frozenset((prim("init", space),
                         random_triple(rng, space, pure=True)))
        step = tf.weak_step(loop, space)[2]
        broke += any(step.br)
        weak, _ = tf.Post_weak_while(loop, pre, space)
        wsem = it.sem(loop, space)
        assert {pure_e(rd.compose_rel(p.e, wsem.e)) for p in pre} <= weak
        rep = hl.check_rule("forall_exists", space, pre=pre,
                            stmt=loop, post_q=weak)
        notes = {name: ok for name, ok, _ in rep.premises}
        assert rep.holds() and notes["conclusion:direct"]
    assert broke >= 150, broke
