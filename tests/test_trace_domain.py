import random

import pytest

from hyperlab import interpreter as it
from hyperlab import rel_domain as rd
from hyperlab import trace_domain as td
from hyperlab.lang import (Assign, BoolTest, Break, Not, RandAssign, Skip,
                           parse)
from hyperlab.rel_domain import StateSpace
from hyperlab.selftest import random_aexpr, random_bexpr, random_program


def test_trace_sem_skip_duplicates_each_state():
    space = StateSpace.make(("x",), 0, 2)
    t = td.trace_sem(Skip(), space, 5)
    assert t.e == frozenset((i, i) for i in range(space.size()))
    assert not t.truncated and t.inf == 0 and t.br == frozenset()


def test_trace_sem_rejects_zero_cap():
    with pytest.raises(ValueError):
        td.trace_sem(Skip(), StateSpace.make(("x",), 0, 1), 0)


def test_concat_merges_middle_state_and_caps():
    a = frozenset({((0,), (1,))})
    b = frozenset({((1,), (2,)), ((3,), (4,))})
    out, cut = td.concat(a, b, 5)
    assert out == frozenset({((0,), (1,), (2,))}) and not cut
    out, cut = td.concat(a, b, 2)
    assert out == frozenset() and cut


def test_concat_associative_with_unit():
    rng = random.Random(21)
    space = StateSpace.make(("x",), 0, 2)
    sts = space.states()

    def rand_traces():
        out = set()
        for _ in range(rng.randint(1, 5)):
            n = rng.randint(1, 3)
            out.add(tuple(rng.choice(sts) for _ in range(n)))
        return frozenset(out)

    unit = frozenset((s,) for s in sts)
    for _ in range(80):
        t1, t2, t3 = rand_traces(), rand_traces(), rand_traces()
        cap = 12
        ab_, _ = td.concat(t1, t2, cap)
        lhs, _ = td.concat(ab_, t3, cap)
        bc, _ = td.concat(t2, t3, cap)
        rhs, _ = td.concat(t1, bc, cap)
        assert lhs == rhs
        assert td.concat(t1, unit, cap)[0] == t1
        assert td.concat(unit, t1, cap)[0] == t1


def test_a_sequence_is_composed_from_the_right():
    # the truncation flag depends on the grouping: x = 1; x = 2 alone forms
    # traces of 3 states, longer than the cap, but composed from the right
    # x = 2 meets the empty x = [5,6] first and no long trace is formed
    space = StateSpace.make(("x",), 0, 2)
    s = parse("x = 1; x = 2; x = [5,6];")
    t = td.trace_sem(s, space, 2)
    assert t.e == frozenset() and not t.truncated


def test_abstract_to_rel_trivial_cases():
    space = StateSpace.make(("x",), 0, 1)
    stutter = td.trace_sem(Skip(), space, 3)
    assert td.abstract_to_rel(stutter, space) == rd.pure_e(
        rd.identity_rel(space))
    empty = td.TraceSet(frozenset(), 0, frozenset(), False)
    assert td.abstract_to_rel(empty, space) == rd.triple(space)


def test_abstract_to_rel_on_terminating_countdown():
    space = StateSpace.make(("y",), 0, 2)
    prog = parse("while (y != 0) y = y - 1;")
    t = td.trace_sem(prog, space, 8)
    assert not t.truncated
    assert td.abstract_to_rel(t, space) == rd.triple(
        space, e=((s, (0,)) for s in space.states()))


def test_commutation_on_random_programs():
    rng = random.Random(22)
    for _ in range(120):
        with_loops = rng.random() < 0.4
        s, space = random_program(rng, depth=3, allow_while=with_loops)
        if space.size() > 16:
            space = StateSpace.make(space.vars, 0, 2)
        t = td.trace_sem(s, space, 9)
        if t.truncated:
            continue
        assert td.abstract_to_rel(t, space) == it.sem(s, space)


def test_trace_sem_keeps_the_traces_of_a_free_break():
    # a fragment that breaks outside any loop keeps its break traces in br,
    # as sem keeps their pairs, so the abstraction is sem's whole triple
    space = StateSpace.make(("x",), 0, 2)
    s = parse("if (x == 1) break; else x = 0;")
    t = td.trace_sem(s, space, 4)
    at = space.positions()
    assert t.br == frozenset({(at[(1,)],)}) and not t.truncated
    assert td.abstract_to_rel(t, space) == it.sem(s, space) == rd.triple(
        space, e=[((0,), (0,)), ((2,), (0,))],
        br=[((1,), (1,))])


def test_commutation_on_random_fragments_with_free_breaks():
    rng = random.Random(25)
    breaking = 0
    for _ in range(200):
        s, space = random_program(rng, depth=3, allow_free_break=True)
        if space.size() > 16:
            space = StateSpace.make(space.vars, 0, 2)
        t = td.trace_sem(s, space, 9)
        if t.truncated:
            continue
        ref = it.sem(s, space)
        assert td.abstract_to_rel(t, space) == ref, s
        breaking += any(ref.br)
    assert breaking >= 20, breaking


def test_break_traces_have_no_extra_state():
    space = StateSpace.make(("x",), 0, 3)
    prog = parse("while (x > 0) { if (x == 2) break; x = x - 1; }")
    t = td.trace_sem(prog, space, 6)
    at = space.positions()
    # one skip stutter from the else branch, then the break stops at 2
    # without duplicating the final state
    assert (at[(3,)], at[(3,)], at[(2,)]) in t.e
    assert all(not (len(p) >= 2 and p[-1] == p[-2] == at[(2,)])
               for p in t.e)


def test_dump_format_is_sorted_and_stable():
    space = StateSpace.make(("x",), 0, 1)
    t = td.trace_sem(Skip(), space, 3)
    text = td.dump_traces(t, space)
    assert text.splitlines() == ["x:0;x:0", "x:1;x:1"]


def test_abstraction_commutes_with_each_trace_operation():
    # Part II: the first/last-state abstraction is exact, so it maps each
    # operation of the trace algebra to the relational algebra's operation
    # on the abstracted arguments (e and br; traces carry no divergence):
    # alpha(loop(a, x)) = loop#(alpha(a), alpha(x)) with x the exit test.
    # The algebra's values are TraceSets of index tuples; abstract_to_rel is
    # alpha, and its inf is the 0 the algebra carries
    rng = random.Random(24)
    space = StateSpace.make(("x", "y"), 0, 2)
    indexes = range(space.size())
    tr, rel = td.traces(space, 12), it.relational(space)

    def rand_traces(k):
        return frozenset(tuple(rng.choice(indexes)
                               for _ in range(rng.randint(1, 3)))
                         for _ in range(rng.randint(0, k)))

    def alpha(t):
        assert not t.truncated
        return td.abstract_to_rel(t, space)

    def same(t, r):
        a = alpha(t)
        return a.e == r.e and a.br == r.br

    skipped = 0
    for _ in range(1000):
        for s in (Assign(rng.choice(space.vars), random_aexpr(rng, space.vars, 2)),
                  RandAssign(rng.choice(space.vars), rng.randint(-1, 2),
                             rng.randint(0, 3)),
                  BoolTest(random_bexpr(rng, space.vars, 1)), Skip(), Break()):
            assert same(tr.prim(s), rel.prim(s))
        a = td.TraceSet(rand_traces(5), 0, rand_traces(2), False)
        b = td.TraceSet(rand_traces(5), 0, rand_traces(2), False)
        assert same(tr.seq(a, b), rel.seq(alpha(a), alpha(b)))
        assert same(tr.join(a, b), rel.join(alpha(a), alpha(b)))
        x = tr.prim(BoolTest(Not(random_bexpr(rng, space.vars, 1))))
        loop = tr.loop(a, x)
        if loop.truncated:
            skipped += 1
            continue
        assert same(loop, rel.loop(alpha(a), alpha(x)))
    assert 0 < skipped < 500


def test_trace_prim_is_the_pairs_of_the_relational_rows():
    # a basic command's traces are the index pairs of rd.prim's rows, read
    # through labeled_pairs, deterministic or fan-out alike, and nothing for
    # a pruned (empty) row
    for arith in rd.ARITH_MODES:
        space = StateSpace.make(("x", "y"), (-1, 0), (2, 1), arith)
        indexes = range(space.size())
        tr = td.traces(space, 4)
        cmds = [parse(src) for src in (
            "x = x + 1;", "x = x - 1;", "x = 2 * x;", "y = x;", "x = 3;",
            "x = [0,1];", "x = [1,5];", "x = [-oo,0];", "y = [-3,oo];",
            "x = [3,4];", "x = [-oo,oo];")]
        for cmd in cmds:
            rows = rd.prim(cmd, space).e
            t = tr.prim(cmd)
            assert t.e == frozenset(rd.labeled_pairs(rows, indexes)), cmd
            assert t.br == frozenset() and not t.truncated
        if arith == "prune":  # x = x + 1 prunes the rows of x = 2
            rows = rd.prim(cmds[0], space).e
            assert rows.count(0) == 2
            assert {j for j, _ in tr.prim(cmds[0]).e} == {
                j for j in indexes if rows[j]}


def test_trace_sets_past_the_cap_raise_naming_both_sizes(monkeypatch):
    space = StateSpace.make(("x",), 0, 9)
    monkeypatch.setattr(td, "MAX_TRACES", 50)
    # a random assignment's fan-out is refused before it is listed
    with pytest.raises(td.TraceLimitError) as exc:
        td.trace_sem(parse("x = [0,9];"), space, 4)
    assert str(exc.value) == ("a trace set reached 100 traces, more than "
                              "the limit of 50")
    # a concatenation
    with pytest.raises(td.TraceLimitError, match="reached 5[1-9] traces"):
        td.concat(frozenset((i,) for i in range(60)),
                  frozenset((i, j) for i in range(60) for j in (0, 1)), 4)
    # a loop whose union of rounds outgrows the cap while every round and
    # every concatenation stays under it: 10, 19, then 27 traces
    monkeypatch.setattr(td, "MAX_TRACES", 20)
    with pytest.raises(td.TraceLimitError, match="reached 27 traces"):
        td.trace_sem(parse("while (x < 9) x = x + 1;"), space, 20)
    # a TraceLimitError is a ValueError, which `hl` reports with exit 2
    assert issubclass(td.TraceLimitError, ValueError)
