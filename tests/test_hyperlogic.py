import random

import pytest

from hyperlab import abstractions as ab
from hyperlab import hyperlogic as hl
from hyperlab import interpreter as it
from hyperlab import rel_domain as rd
from hyperlab import transformers as tf
from hyperlab.hyperlogic import HyperOracle, check_lower, check_rule, check_upper
from hyperlab.lang import (Assign, BoolTest, Break, Cmp, Const, If, Seq,
                           Skip, Var, While, parse)
from hyperlab.rel_domain import StateSpace, prim, pure_e
from hyperlab.selftest import SPACE_Y, S1_SRC, random_program, random_triple
from weak_reference import (BREAK_LOOP, break_loop_images,
                            kleene_weak_family, weak_step_by_if)


LH = StateSpace.make(("l", "h"), 0, 1)


def test_upper_holds_on_countdown_oracle():
    s1 = parse(S1_SRC)
    want = rd.rel((((v,), (0,)) for v in range(0, 4)), SPACE_Y)
    oracle = HyperOracle(lambda t: rd.rel_leq(t.e, want),
                         "e inside zeroing pairs")
    rep = check_upper(SPACE_Y, frozenset((prim("init", SPACE_Y),)), s1,
                      oracle)
    assert rep.holds()


def test_upper_vacuous_on_empty_antecedent():
    rep = check_upper(StateSpace.make(("x",), 0, 1), frozenset(),
                      parse("skip;"), frozenset())
    assert rep.holds()


def test_upper_noninterference_leak_fails_with_witness():
    ni = ab.family("NI", space=LH, low="l", high="h")
    rep = check_upper(LH, frozenset((prim("init", LH),)), parse("l = h;"), ni)
    assert not rep.holds()
    assert rep.witnesses and rep.witnesses[0][0] == prim("init", LH)


def test_upper_noninterference_constant_output_holds():
    # family oracles plug in directly as consequents
    ni = ab.family("NI", space=LH, low="l", high="h")
    rep = check_upper(LH, frozenset((prim("init", LH),)), parse("l = 0;"), ni)
    assert rep.holds()


def test_lower_empty_consequent_holds():
    rep = check_lower(StateSpace.make(("x",), 0, 1), frozenset(),
                      parse("skip;"), frozenset())
    assert rep.holds()


def test_lower_single_element_corollary():
    rng = random.Random(51)
    for _ in range(30):
        s, space = random_program(rng, depth=2)
        p0 = random_triple(rng, space)
        other = random_triple(rng, space)
        q0 = tf.post(it.sem(s, space), p0)
        rep = check_lower(space, frozenset((p0, other)), s, frozenset((q0,)))
        assert rep.holds()


def test_singletons_make_both_logics_agree():
    rng = random.Random(52)
    for _ in range(40):
        s, space = random_program(rng, depth=2)
        p = random_triple(rng, space)
        q = tf.post(it.sem(s, space), p)
        up = check_upper(space, frozenset((p,)), s, frozenset((q,)))
        low = check_lower(space, frozenset((p,)), s, frozenset((q,)))
        assert up.holds() and low.holds()
        wrong = rd.join(q, prim("init", space))
        if wrong != q:
            up2 = check_upper(space, frozenset((p,)), s, frozenset((wrong,)))
            low2 = check_lower(space, frozenset((p,)), s, frozenset((wrong,)))
            assert up2.holds() == low2.holds() == False  # noqa: E712


def test_triples_equal_their_pointwise_singleton_forms():
    rng = random.Random(56)
    for _ in range(30):
        s, space = random_program(rng, depth=2)
        pre = frozenset(random_triple(rng, space) for _ in range(3))
        post_q = frozenset(random_triple(rng, space) for _ in range(2)) | \
            frozenset(tf.post(it.sem(s, space), p) for p in list(pre)[:2])

        def single(p, q):
            return check_upper(space, frozenset((p,)), s,
                               frozenset((q,))).holds()

        up = check_upper(space, pre, s, post_q).holds()
        assert up == all(any(single(p, q) for q in post_q) for p in pre)
        low = check_lower(space, pre, s, post_q).holds()
        assert low == all(any(single(p, q) for p in pre) for q in post_q)


def test_negate_upper_minimal_witness_and_trivial_cases():
    ni = ab.family("NI", space=LH, low="l", high="h")
    oracle = HyperOracle(ni.fn, ni.name)
    pre = frozenset((prim("init", LH),))
    failed, witness = hl.negate_upper(LH, pre, parse("l = h;"), oracle)
    assert failed and witness == pre  # singleton antecedent is its own witness
    failed, witness = hl.negate_upper(LH, pre, parse("l = 0;"), oracle)
    assert not failed and witness is None


def test_witnesses_come_in_sort_order():
    # upper witnesses are antecedents, lower witnesses consequent elements,
    # each listed in SemTriple.sort_key order; negate_upper takes the first
    rng = random.Random(58)
    for _ in range(10):
        body, space = random_program(rng, depth=2)
        cond = Cmp(">", Var(space.vars[0]), Const(0))
        loop = While(cond, body)
        pre = frozenset(random_triple(rng, space) for _ in range(4))
        strangers = frozenset(random_triple(rng, space) for _ in range(4))
        q_set = strangers - tf.Post(it.sem(loop, space), pre)
        want_pre = sorted(pre, key=rd.SemTriple.sort_key)
        want_q = [(q, q) for q in sorted(q_set, key=rd.SemTriple.sort_key)]
        nothing = HyperOracle(lambda t: False, "nothing")
        for rep in (check_upper(space, pre, loop, nothing),
                    check_rule("while_upper", space, pre=pre, stmt=loop,
                               post_q=nothing)):
            assert [p for p, _ in rep.witnesses] == want_pre
        for rep in (check_lower(space, pre, loop, q_set),
                    check_rule("while_lower", space, pre=pre, stmt=loop,
                               post_q=q_set)):
            assert rep.witnesses == want_q
        assert hl.negate_upper(space, pre, loop, nothing) == \
            (True, frozenset(want_pre[:1]))


def test_rule_reports_are_serializable():
    s1 = parse(S1_SRC)
    rep = check_upper(SPACE_Y, frozenset((prim("init", SPACE_Y),)), s1,
                      frozenset())
    payload = rep.to_json(SPACE_Y)
    assert payload["verdict"] == "fails" and payload["witnesses"]


# ---------------------------------------------------------------------------
# Structural rules agree with the direct checks

def _agreement(rep):
    return dict((n, ok) for n, ok, _ in rep.premises)


def test_seq_rule_with_canonical_intermediate():
    rng = random.Random(53)
    done = 0
    while done < 25:
        s1, space = random_program(rng, depth=2)
        s2, _ = random_program(rng, depth=2)
        if not set(hl.stmt_vars(s2)) <= set(space.vars):
            continue
        done += 1
        pre = frozenset((random_triple(rng, space),))
        mid = tf.Post(it.sem(s1, space), pre)
        post_q = tf.Post(it.sem(s2, space), mid)
        rep = check_rule("seq", space, pre=pre, stmt=Seq(s1, s2), mid=mid,
                         post_q=post_q)
        assert rep.holds()
        assert _agreement(rep)["agreement:canonical-mid"]


def test_if_and_while_rules_agree_with_direct_checks():
    rng = random.Random(54)
    for _ in range(30):
        body, space = random_program(rng, depth=2)
        cond = Cmp(">", Var(space.vars[0]), Const(0))
        pre = frozenset((random_triple(rng, space), random_triple(rng, space)))
        exact_if = tf.Post(it.sem(If(cond, body, Skip()), space), pre)
        rep = check_rule("if_upper", space, pre=pre,
                         stmt=If(cond, body, Skip()), post_q=exact_if)
        assert rep.holds() and _agreement(rep)["agreement"]
        exact_w = tf.Post(it.sem(While(cond, body), space), pre)
        rep = check_rule("while_upper", space, pre=pre,
                         stmt=While(cond, body), post_q=exact_w)
        assert rep.holds() and _agreement(rep)["agreement"]
        rep = check_rule("while_lower", space, pre=pre,
                         stmt=While(cond, body), post_q=exact_w)
        assert rep.holds() and _agreement(rep)["agreement"]
        smaller = frozenset(list(exact_w)[:1])
        rep = check_rule("if_lower", space, pre=pre,
                         stmt=If(cond, body, Skip()), post_q=tf.Post(
                             it.sem(If(cond, body, Skip()), space), pre))
        assert rep.holds() and _agreement(rep)["agreement"]
        assert smaller <= exact_w


def test_while_rule_fails_when_consequent_too_small():
    s1 = parse(S1_SRC)
    pre = frozenset((prim("init", SPACE_Y),))
    rep = check_rule("while_upper", SPACE_Y, pre=pre, stmt=s1,
                     post_q=frozenset())
    assert not rep.holds() and _agreement(rep)["agreement"]


def test_consequence_rule_preserves_holding():
    space = StateSpace.make(("x",), 0, 2)
    prog = parse("x = 1;")
    p = prim("init", space)
    extra = prim(BoolTest(Cmp("==", Var("x"), Const(0))), space)
    s_sem = it.sem(prog, space)
    narrower = frozenset((tf.post(s_sem, p), tf.post(s_sem, extra)))
    rep = check_rule("consequence", space,
                     pre=frozenset((p,)), stmt=prog,
                     post_q=narrower | frozenset((prim("init", space),)),
                     wider_pre=frozenset((p, extra)),
                     narrower_post=narrower)
    assert rep.holds()


def test_consequence_rule_accepts_an_oracle_consequent():
    space = StateSpace.make(("x",), 0, 2)
    prog = parse("x = 1;")
    p = prim("init", space)
    narrower = frozenset((tf.post(it.sem(prog, space), p),))
    ends_at_one = HyperOracle(
        lambda t: all(b == (1,) for _, b in rd.pairs(t.e, space)), "x is 1")
    rep = check_rule("consequence", space, pre=frozenset((p,)), stmt=prog,
                     post_q=ends_at_one, wider_pre=frozenset((p,)),
                     narrower_post=narrower)
    assert rep.holds()
    rep = check_rule("consequence", space, pre=frozenset((p,)), stmt=prog,
                     post_q=HyperOracle(lambda t: False, "nothing"),
                     wider_pre=frozenset((p,)), narrower_post=narrower)
    assert not _agreement(rep)["narrower post included in post"]
    assert not rep.holds()


def test_rules_that_list_their_consequent_refuse_an_oracle():
    space = StateSpace.make(("x",), 0, 1)
    pre = frozenset((prim("init", space),))
    anything = HyperOracle(lambda t: True, "anything")
    s = parse("x = 0;")
    with pytest.raises(ValueError) as err:
        check_rule("seq", space, pre=pre, stmt=Seq(s, s), mid=anything,
                   post_q=anything)
    assert str(err.value) == "intermediate hyper property must be explicit"
    loop = parse("while (x > 0) x = x - 1;")
    for run in (
            lambda: check_lower(space, pre, s, anything),
            lambda: check_rule("while_lower", space, pre=pre, stmt=loop,
                               post_q=anything),
            lambda: check_rule("if_lower", space, pre=pre,
                               stmt=If(loop.cond, s, Skip()),
                               post_q=anything)):
        with pytest.raises(ValueError) as err:
            run()
        assert str(err.value) == "lower triples need an explicit consequent"


def test_choice_rule_agrees_with_desugaring():
    rng = random.Random(55)
    done = 0
    while done < 20:
        s1, space = random_program(rng, depth=2)
        s2, _ = random_program(rng, depth=2)
        if not set(hl.stmt_vars(s2)) <= set(space.vars):
            continue
        done += 1
        pre = frozenset((random_triple(rng, space),))
        exact = frozenset(rd.join(tf.post(it.sem(s1, space), p),
                                  tf.post(it.sem(s2, space), p)) for p in pre)
        rep = check_rule("choice", space, pre=pre, s1=s1, s2=s2, post_q=exact)
        assert rep.holds()
        assert _agreement(rep)["agreement:desugared-choice"]


def test_choice_keeps_reserved_variable_fresh():
    space = StateSpace.make(("c",), 0, 1)
    rep = check_rule("choice", space,
                     pre=frozenset((prim("init", space),)),
                     s1=Assign("c", Const(0)), s2=Assign("c", Const(1)),
                     post_q=HyperOracle(lambda t: True, "anything"))
    assert rep.holds()


def test_choice_rule_extension_is_capped_too(monkeypatch):
    # 4096 states is the cap itself; the fresh choice bit doubles it, and
    # the rule refuses that before it runs sem
    def no_sem(stmt, space):
        raise AssertionError("sem ran before the cap was checked")
    monkeypatch.setattr(it, "sem", no_sem)
    space = StateSpace.make(("x", "y"), 0, 63)
    with pytest.raises(ValueError, match="^the one-bit extension has 8192 "
                       "states, more than the limit of 4096$"):
        check_rule("choice", space, pre=frozenset(), s1=Skip(), s2=Skip(),
                   post_q=frozenset())


def test_forall_exists_sound_and_relative_complete():
    s1 = parse(S1_SRC)
    props = frozenset((prim("init", SPACE_Y),))
    weak, _ = tf.Post_weak_while(s1, props, SPACE_Y)
    rep = check_rule("forall_exists", SPACE_Y, pre=props, stmt=s1,
                     post_q=weak)
    notes = _agreement(rep)
    assert rep.holds()
    assert notes["conclusion:direct"] and notes["conclusion:weak-hypercollecting"]


def test_forall_exists_rejects_supplied_bad_invariant():
    s1 = parse(S1_SRC)
    props = frozenset((prim("init", SPACE_Y),))
    weak, _ = tf.Post_weak_while(s1, props, SPACE_Y)
    rep = check_rule("forall_exists", SPACE_Y, pre=props, stmt=s1,
                     post_q=weak,
                     invariant=frozenset((pure_e(rd.empty_rel(SPACE_Y)),)))
    assert not rep.holds()


def test_forall_exists_incomplete_for_exact_consequents():
    space = StateSpace.make(("y",), 0, 1)
    loop = parse("while (y != 0) y = y - 1;")
    pre = frozenset((prim("init", space),))
    exact = frozenset((pure_e(it.sem(loop, space).e),))
    rep = check_rule("forall_exists", space, pre=pre, stmt=loop,
                     post_q=exact)
    assert not rep.holds()
    assert _agreement(rep)["conclusion:direct"]  # yet the triple holds


def test_forall_exists_builds_the_step_relation_once(monkeypatch):
    # the weak step relation does not depend on the antecedent, so the rule
    # and Post_weak_while evaluate the loop body equally often over 1, 3 and
    # 6 antecedents
    prog = parse("while (h > 0) { h = h - 1; l = l + 1; }")
    space = StateSpace.make(("l", "h"), 0, 2)
    rng = random.Random(50)
    calls = {"guarded": 0, "interpret": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(it, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(it, name, counted)
    seen = []
    for n in (1, 3, 6):
        pre = set()
        while len(pre) < n:
            pre.add(random_triple(rng, space, pure=True))
        pre = frozenset(pre)
        calls.update(guarded=0, interpret=0)
        weak, _ = tf.Post_weak_while(prog, pre, space)
        weak_calls = dict(calls)
        calls.update(guarded=0, interpret=0)
        rep = check_rule("forall_exists", space, pre=pre, stmt=prog,
                         post_q=weak)
        assert rep.holds()
        seen.append((weak_calls, dict(calls)))
    assert seen[0][1]["guarded"] > 0
    assert seen[0] == seen[1] == seen[2]


def test_forall_exists_weak_note_reads_the_weak_semantics():
    # on random break-free loops the weak-hypercollecting note is the weak
    # loop semantics landing in the consequent, whatever invariant is given;
    # with the synthesized invariant it is the exit premise itself
    rng = random.Random(57)
    outcomes = set()
    for _ in range(25):
        body, space = random_program(rng, depth=2)
        cond = Cmp(">", Var(space.vars[0]), Const(0))
        loop = While(cond, body)
        pre = frozenset(random_triple(rng, space, pure=True) for _ in range(2))
        step = weak_step_by_if(cond, body, space)
        weak, stab = tf.Post_weak_while(loop, pre, space)
        assert stab == kleene_weak_family(pre, step)[1]
        explicit = frozenset(sorted(weak, key=rd.SemTriple.sort_key)[1:]
                             + [random_triple(rng, space, pure=True)])
        ni = ab.family("NI", space=space, low=space.vars[0],
                       high=space.vars[-1])
        extra = random_triple(rng, space, pure=True)
        wider, _ = tf.weak_while_iterates(step, pre | {extra}, space)
        bad = pre | {extra}
        for post_q in (ni, explicit):
            want = all(q in post_q for q in weak)
            for invariant in (None, wider, bad):
                rep = check_rule("forall_exists", space, pre=pre, stmt=loop,
                                 post_q=post_q, invariant=invariant)
                notes = _agreement(rep)
                assert notes["conclusion:weak-hypercollecting"] == want, loop
                if invariant is None:
                    assert notes["invariant exits in consequent"] == want
                if invariant is wider:  # a valid invariant, not the least
                    assert notes["pre included in invariant"]
                    assert notes["invariant closed under guarded body step"]
                outcomes.add((invariant is None, want, rep.holds()))
    assert {(True, True, True), (True, False, False)} <= outcomes
    # supplied invariants meet both readings of the note, and a bad family
    # fails the rule while the weak semantics still lands in the consequent
    assert {o[1] for o in outcomes if not o[0]} == {True, False}
    assert (False, True, False) in outcomes


def test_forall_exists_reads_only_the_e_component_of_a_listed_consequent():
    # a listed consequent is compared on e-components: giving its triples a
    # full inf and br changes no verdict and no premise
    rng = random.Random(59)
    verdicts = set()
    for _ in range(15):
        body, space = random_program(rng, depth=2)
        loop = While(Cmp(">", Var(space.vars[0]), Const(0)), body)
        pre = frozenset(random_triple(rng, space, pure=True) for _ in range(2))
        weak, _ = tf.Post_weak_while(loop, pre, space)
        top = rd.top_triple(space)
        assert top.inf and any(top.br)
        for pure in (weak, frozenset(sorted(weak, key=rd.SemTriple.sort_key)
                                     [1:])):
            dressed = frozenset(rd.SemTriple(q.e, top.inf, top.br)
                                for q in pure)
            for invariant in (None, pre):
                got = [check_rule("forall_exists", space, pre=pre,
                                  stmt=loop, post_q=post_q,
                                  invariant=invariant)
                       for post_q in (pure, dressed)]
                assert got[0].verdict == got[1].verdict
                assert got[0].premises == got[1].premises
                verdicts.add(got[0].verdict)
    assert verdicts == {"holds", "fails"}


def test_principal_ideal_rule_example_and_dual():
    space = StateSpace.make(("x",), 0, 13)
    prog = parse("while (x > 10) x = x - 1;")
    sts = space.states()
    pre = frozenset(rd.triple(space, e=((a, (n,)) for a in sts))
                    for n in (11, 12, 13))
    gen = rd.triple(space, e=((a, b) for a in sts for b in sts
                              if b[0] <= 10))
    rep = check_rule("principal_ideal", space, pre=pre, stmt=prog,
                     generator=gen)
    assert rep.holds() and _agreement(rep)["agreement"]
    low_gen = rd.triple(space)
    rep = check_rule("principal_ideal", space, pre=pre, stmt=prog,
                     generator=low_gen, dual=True)
    assert rep.holds()
    bad_gen = rd.triple(space, e=((a, b) for a in sts for b in sts
                                  if b[0] <= 9))
    rep = check_rule("principal_ideal", space, pre=pre, stmt=prog,
                     generator=bad_gen)
    assert not rep.holds() and _agreement(rep)["agreement"]


def test_conjunctive_rule_on_enumerable_space():
    space = StateSpace.make(("y",), 0, 1)
    prog = parse("y = 0;")
    pre = frozenset((prim("init", space),))
    q0 = tf.post(it.sem(prog, space), prim("init", space))
    carrier = tf.enumerate_triples(space)
    ideal = frozenset(t for t in carrier if rd.leq(t, q0))
    filt = frozenset(t for t in carrier if rd.leq(q0, t))
    box = ideal & filt  # the singleton interval: conjunctively closed
    rep = check_rule("conjunctive", space, pre=pre, stmt=prog, post_q=box)
    assert rep.holds() and _agreement(rep)["agreement"]
    not_closed = frozenset((q0, rd.bottom(space)))
    rep = check_rule("conjunctive", space, pre=pre, stmt=prog,
                     post_q=not_closed)
    assert not rep.holds()


# ---------------------------------------------------------------------------
# Frontier rho elimination over the assertional carrier

def _assertional(space, stmt):
    sts = space.states()
    carrier = [frozenset(c) for c in _powerset(sts)]
    e = it.sem(stmt, space).e

    def post_fn(p):
        return frozenset(b for (a, b) in rd.pairs(e, space) if a in p)

    return carrier, post_fn


def _powerset(items):
    from itertools import combinations
    items = list(items)
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def test_frontier_rho_rule_bounded_output():
    # abs-value program: nonempty state sets stay nonempty and bounded
    space = StateSpace.make(("x",), -4, 4)
    prog = parse("if (x > 0) x = x; else x = 0 - x;")
    carrier, post_fn = _assertional(space, prog)
    le = frozenset.issubset
    qs = frozenset(p for p in carrier if p)  # bounded-output property
    pre = frozenset(p for p in carrier if p)
    rep = check_rule("frontier_rho", None, carrier=carrier, le=le,
                     post_fn=post_fn, pre=pre, post_q=qs)
    assert rep.holds()
    notes = dict((n, ok) for n, ok, _ in rep.premises)
    assert notes["conclusion:direct"]


def test_frontier_rho_rule_detects_violation():
    space = StateSpace.make(("x",), -2, 2)
    prog = parse("x = x + 1;")
    carrier, post_fn = _assertional(space, prog)
    le = frozenset.issubset
    target = frozenset(s for s in space.states() if s[0] <= 1)
    qs = frozenset(p for p in carrier if p and p <= target)
    pre = frozenset((frozenset(space.states()),))
    rep = check_rule("frontier_rho", None, carrier=carrier, le=le,
                     post_fn=post_fn, pre=pre, post_q=qs)
    assert not rep.holds()
    notes = dict((n, ok) for n, ok, _ in rep.premises)
    assert not notes["conclusion:direct"]
    # a supplied cell fails when its post is above the frontier element but
    # outside phi(F)Q: [{0}, {0,1,2}] holds {0,2}, which Q lacks, while
    # [{1}, {0,1,2}] lies in Q
    space = StateSpace.make(("x",), 0, 2)
    carrier, post_fn = _assertional(space, parse("x = [0,2];"))
    a, b, c = ((v,) for v in range(3))
    qs = frozenset(map(frozenset, ({a}, {b}, {a, b}, {b, c}, {a, b, c})))
    full = frozenset((a, b, c))
    for f, cells in ((frozenset((a,)), False), (frozenset((b,)), True)):
        rep = check_rule("frontier_rho", None, carrier=carrier, le=le,
                         post_fn=post_fn, pre={full}, post_q=qs,
                         partition={f: {full}})
        assert rep.premises[0][1] and rep.premises[-2][1] is cells
        assert rep.holds() is cells


def test_frontier_rho_rejects_unclosed_consequent():
    space = StateSpace.make(("x",), 0, 1)
    prog = parse("skip;")
    carrier, post_fn = _assertional(space, prog)
    le = frozenset.issubset
    full = frozenset(space.states())
    qs = frozenset((full,))  # missing the interval below the top element
    pre = frozenset((full,))
    rep = check_rule("frontier_rho", None, carrier=carrier, le=le,
                     post_fn=post_fn, pre=pre, post_q=qs)
    assert rep.premises[0][0] == "consequent rho-frontier closed"
    assert rep.premises[0][1]  # a singleton is trivially interval-closed
    one_missing = frozenset((full, frozenset()))
    rep = check_rule("frontier_rho", None, carrier=carrier, le=le,
                     post_fn=post_fn, pre=pre,
                     post_q=one_missing)
    assert not rep.premises[0][1]
    # the rule reads the lattice kernels: a carrier without a bottom is no
    # lattice
    with pytest.raises(ab.LatticeError, match="missing top or bottom"):
        check_rule("frontier_rho", None, carrier=carrier[1:], le=le,
                   post_fn=post_fn, pre=pre, post_q=qs)


def test_forall_exists_on_a_body_that_breaks():
    # from init over x in [0,2] the weak set is three exit images, the last
    # the exact post: the rule holds on the three, and fails once the first
    # is dropped, while the triple itself still holds
    space = StateSpace.make(("x",), 0, 2)
    loop = parse(BREAK_LOOP)
    pre = frozenset((prim("init", space),))
    images = break_loop_images(space)
    for post_q, holds in ((images, True), (images[1:], False)):
        rep = check_rule("forall_exists", space, pre=pre, stmt=loop,
                         post_q=frozenset(post_q))
        notes = _agreement(rep)
        assert rep.holds() == holds
        assert notes["invariant exits in consequent"] == holds
        assert notes["conclusion:weak-hypercollecting"] == holds
        assert notes["conclusion:direct"]
    assert ("invariant synthesized", True, "3 elements") in rep.premises


def test_forall_exists_reads_a_supplied_invariants_breaks():
    # the synthesized family is an invariant; without the br of its members
    # it is no longer closed under the step, which moves a breaking run
    # into br.  Its inf is ignored, as before
    space = StateSpace.make(("x",), 0, 2)
    loop = parse(BREAK_LOOP)
    pre = frozenset((prim("init", space),))
    step = tf.weak_step(loop, space)[2]
    family, _ = tf.weak_while_iterates(step, pre, space)
    assert any(any(t.br) for t in family)
    full = (1 << space.size()) - 1
    weak, _ = tf.Post_weak_while(loop, pre, space)
    for invariant, closed in (
            (family, True),
            (frozenset(rd.SemTriple(t.e, full, t.br) for t in family), True),
            (frozenset(pure_e(t.e) for t in family), False)):
        rep = check_rule("forall_exists", space, pre=pre, stmt=loop,
                         post_q=weak, invariant=invariant)
        notes = _agreement(rep)
        assert notes["invariant closed under guarded body step"] == closed
        assert rep.holds() == closed


def test_forall_exists_calls_an_oracle_once_per_distinct_exit_image():
    # two of the three exit images fail NI: each is still tested once, so
    # the number of oracle calls does not follow the order a frozenset
    # iterates in.  The one antecedent adds one call for the direct
    # conclusion; a supplied invariant adds the family's images for the
    # weak conclusion
    space = StateSpace.make(("l", "h"), 0, 2)
    loop = parse("while (h > 0) { h = h - 1; l = l + 1; }")
    pre = frozenset((prim("init", space),))
    _, not_b, step = tf.weak_step(loop, space)
    family, _ = tf.weak_while_iterates(step, pre, space)
    exits = {tf.weak_exit(t, not_b) for t in family}
    ni = ab.family("NI", space=space)
    assert len(exits) == 3 and sum(x not in ni for x in exits) == 2
    for invariant, images in ((None, 1), (family, 2)):
        seen = []

        def counted(t):
            seen.append(t)
            return ni.fn(t)
        rep = check_rule("forall_exists", space, pre=pre, stmt=loop,
                         post_q=HyperOracle(counted, ni.name),
                         invariant=invariant)
        assert not _agreement(rep)["invariant exits in consequent"]
        assert len(seen) == images * len(exits) + 1
        assert sorted(seen[:3], key=rd.SemTriple.sort_key) == \
            sorted(exits, key=rd.SemTriple.sort_key)
        if invariant is not None:
            assert set(seen[4:]) == exits


def test_forall_exists_tests_each_direct_conclusion_image_once():
    # of three pure antecedents one has an exact loop post outside NI: the
    # direct conclusion still tests every distinct exact image once, so the
    # oracle sees each weak exit image and each exact image exactly once,
    # wherever the failing antecedent falls in the frozenset's order
    space = StateSpace.make(("l", "h"), 0, 2)
    loop = parse("while (h > 0) { h = h - 1; l = l + 1; }")
    _, not_b, step = tf.weak_step(loop, space)
    loop_e = it.sem(loop, space).e
    ni = ab.family("NI", space=space)

    def pure_id(*starts):
        return rd.triple(space, e=((s, s) for s in starts))
    for bad in (pure_id((0, 0), (0, 1)), pure_id((1, 0), (1, 2)),
                pure_id((0, 1), (0, 2))):
        for good in ((0, 0), (1, 0), (2, 1), (0, 2)):
            pre = frozenset((bad, pure_id(good), pure_id((2, 2))))
            family, _ = tf.weak_while_iterates(step, pre, space)
            exits = {tf.weak_exit(t, not_b) for t in family}
            exact = {pure_e(rd.compose_rel(p.e, loop_e)) for p in pre}
            assert len(exact) == 3 and sum(x not in ni for x in exact) == 1
            seen = []

            def counted(t):
                seen.append(t)
                return ni.fn(t)
            rep = check_rule("forall_exists", space, pre=pre, stmt=loop,
                             post_q=HyperOracle(counted, ni.name))
            assert not _agreement(rep)["conclusion:direct"]
            assert len(seen) == len(exits) + len(exact), (bad, good)
            assert set(seen) == exits | exact


# a statement of each kind: the index of its own kind is skipped per rule
_CONSTRUCTS = (parse("x = 1;"), Seq(Skip()), parse("x = 0; x = 1;"),
               parse("if (x > 0) x = 0; else skip;"),
               parse("while (x > 0) x = x - 1;"))


@pytest.mark.parametrize("rule, construct, own", [
    ("seq", "sequence", 2), ("if_upper", "conditional", 3),
    ("if_lower", "conditional", 3), ("while_upper", "while loop", 4),
    ("while_lower", "while loop", 4), ("forall_exists", "while loop", 4)])
def test_statement_rules_refuse_another_construct_first(rule, construct,
                                                        own):
    # each rule proves one construct (a sequence of two items at least) and
    # refuses any other, naming itself, before it reads its consequent or
    # its intermediate property
    space = StateSpace.make(("x",), 0, 1)
    pre = frozenset((prim("init", space),))
    anything = HyperOracle(lambda t: True, "anything")
    extra = {"mid": anything} if rule == "seq" else {}
    for k, stmt in enumerate(_CONSTRUCTS):
        if k == own:
            continue
        with pytest.raises(ValueError) as err:
            check_rule(rule, space, pre=pre, stmt=stmt, post_q=anything,
                       **extra)
        assert str(err.value) == "rule %r needs a single %s" % (rule,
                                                                construct)


def test_upper_and_lower_rules_are_the_direct_checks():
    # the rule table's `upper` and `lower` give the reports, and refuse
    # what the direct checks refuse, on fixed and on seeded random triples
    space = StateSpace.make(("x",), 0, 2)
    prog = parse("x = 1;")
    pre = frozenset((prim("init", space),))
    cases = [(space, pre, prog, post_q)
             for post_q in (tf.Post(it.sem(prog, space), pre), frozenset())]
    rng = random.Random(59)
    for _ in range(30):
        s, space = random_program(rng, depth=2)
        pre = frozenset(random_triple(rng, space) for _ in range(3))
        posts = [tf.post(it.sem(s, space), p)
                 for p in sorted(pre, key=rd.SemTriple.sort_key)]
        cases += [(space, pre, s, ab.family("NI", space=space,
                                            low=space.vars[0],
                                            high=space.vars[-1])),
                  (space, pre, s, frozenset(posts[:2] + [random_triple(
                      rng, space)]))]
    for space, pre, prog, post_q in cases:
        for rule, check in (("upper", check_upper), ("lower", check_lower)):
            runs = (lambda: check_rule(rule, space, pre=pre, stmt=prog,
                                       post_q=post_q),
                    lambda: check(space, pre, prog, post_q))
            if rule == "lower" and isinstance(post_q, HyperOracle):
                for run in runs:
                    with pytest.raises(ValueError, match="^lower triples "
                                       "need an explicit consequent$"):
                        run()
            else:
                got, want = (run() for run in runs)
                assert got.to_json(space) == want.to_json(space)


_XS = StateSpace.make(("x",), 0, 1)
_PRE = frozenset((prim("init", _XS),))
_SEQ = parse("x = 1; x = x - 1;")
_LOOP = parse("while (x > 0) x = x - 1;")


@pytest.mark.parametrize("run, runs", [
    (lambda: check_upper(_XS, _PRE, _SEQ, frozenset()), 1),
    (lambda: check_lower(_XS, _PRE, _SEQ, frozenset()), 1),
    (lambda: hl.negate_upper(_XS, _PRE, _SEQ, frozenset()), 1),
    (lambda: check_rule("seq", _XS, pre=_PRE, stmt=_SEQ, mid=_PRE,
                        post_q=_PRE), 3),
    (lambda: check_rule("conjunctive", _XS, pre=_PRE, stmt=_SEQ,
                        post_q=_PRE), 1),
    (lambda: check_rule("consequence", _XS, pre=_PRE, stmt=_SEQ,
                        post_q=_PRE, wider_pre=_PRE, narrower_post=_PRE), 1),
    (lambda: check_rule("while_upper", _XS, pre=_PRE, stmt=_LOOP,
                        post_q=_PRE), 1),
    (lambda: check_rule("while_lower", _XS, pre=_PRE, stmt=_LOOP,
                        post_q=_PRE), 1),
], ids=["upper", "lower", "negate_upper", "seq", "conjunctive",
        "consequence", "while_upper", "while_lower"])
def test_each_check_runs_sem_once_per_statement_it_reads(monkeypatch, run,
                                                         runs):
    # a seq reads its first item, the rest and the whole; every other check
    # reads its one statement, however many premises it checks on it
    sem, seen = it.sem, []
    monkeypatch.setattr(it, "sem",
                        lambda s, space: seen.append(s) or sem(s, space))
    run()
    assert len(seen) == len(set(seen)) == runs


_FREE = parse("x = 1; break;")


@pytest.mark.parametrize("run, path", [
    (lambda sp, pre: check_upper(sp, pre, _FREE, frozenset()), "[1]"),
    (lambda sp, pre: check_lower(sp, pre, _FREE, frozenset()), "[1]"),
    (lambda sp, pre: hl.negate_upper(sp, pre, _FREE, frozenset()), "[1]"),
    (lambda sp, pre: check_rule("principal_ideal", sp, pre=pre, stmt=_FREE,
                                generator=rd.triple(sp)), "[1]"),
    (lambda sp, pre: check_rule("seq", sp, pre=pre, stmt=Seq(Skip(), _FREE),
                                mid=pre, post_q=frozenset()), "[1]"),
    (lambda sp, pre: check_rule("choice", sp, pre=pre, s1=Skip(), s2=_FREE,
                                post_q=frozenset()), "[1]"),
    (lambda sp, pre: check_rule("choice", sp, pre=pre, s1=Break(), s2=Skip(),
                                post_q=frozenset()), "[]"),
], ids=["check_upper", "check_lower", "negate_upper", "principal_ideal",
        "seq", "choice", "choice_bare_break"])
def test_every_exact_post_refuses_a_free_break(run, path):
    # a free break has no denotation as a whole program: refused, never a
    # verdict
    space = StateSpace.make(("x",), 0, 2)
    with pytest.raises(ValueError) as err:
        run(space, frozenset((prim("init", space),)))
    assert str(err.value) == "break without enclosing loop at AST path " + path


def test_unknown_rule_name():
    with pytest.raises(ValueError):
        check_rule("nope", None)
