"""The lab's record types keep the semantics of frozen dataclasses.

Equality needs the same class, the hash is that of the field tuple (so sets
of records iterate as before), frozen records reject assignment and
deletion, `repr` text is exact, and defaults and keyword construction work.
`RuleReport` alone is mutable and unhashable.
"""

import pytest

from hyperlab import abstractions as ab
from hyperlab import hyperlogic as hl
from hyperlab import interpreter as it
from hyperlab import rel_domain as rd
from hyperlab import trace_domain as td
from hyperlab.lang import (ABin, Assign, BBin, BoolTest, Break, Cmp, Const, If,
                           Not, RandAssign, Seq, Skip, Var, While, parse)

X, ONE = Var("x"), Const(1)
CMP = Cmp("<", X, ONE)
LAT = ab.ToyLattice.from_pairs(["bot", "top"], [("bot", "top")])
FAM = ab.Family("F", ("top",), "bot")
SPACE = rd.StateSpace(("x",), (0,), (1,))


def _samples():
    """One record of each frozen type, with its fields in order."""
    r = rd.identity_rel(SPACE)
    return [
        (X, {"name": "x"}), (ONE, {"value": 1}),
        (ABin("+", X, ONE), {"op": "+", "left": X, "right": ONE}),
        (CMP, {"op": "<", "left": X, "right": ONE}), (Not(CMP), {"arg": CMP}),
        (BBin("&&", CMP, CMP), {"op": "&&", "left": CMP, "right": CMP}),
        (Assign("x", ONE), {"var": "x", "expr": ONE}),
        (RandAssign("x", float("-inf"), 3),
         {"var": "x", "lo": float("-inf"), "hi": 3}),
        (Skip(), {}), (Break(), {}),
        (Seq(Skip(), Break()), {"stmts": (Skip(), Break())}),
        (If(CMP, Skip(), Break()),
         {"cond": CMP, "then": Skip(), "orelse": Break()}),
        (While(CMP, Skip()), {"cond": CMP, "body": Skip()}),
        (BoolTest(CMP), {"cond": CMP}),
        (SPACE, {"vars": ("x",), "lo": (0,), "hi": (1,), "arith": "saturate"}),
        (rd.SemTriple(r, 1, r), {"e": r, "inf": 1, "br": r}),
        (it.FixpointReport(2, "r"), {"iterations": 2, "result": "r"}),
        (it.Algebra(len, min, max, abs),
         {"prim": len, "seq": min, "join": max, "loop": abs}),
        (td.TraceSet(frozenset(), 1, frozenset(), True),
         {"e": frozenset(), "inf": 1, "br": frozenset(), "truncated": True}),
        (hl.Triple(frozenset(), Skip(), frozenset()),
         {"pre": frozenset(), "stmt": Skip(), "post": frozenset()}),
        (FAM, {"name": "F", "elements": ("top",), "limit": "bot",
               "direction": "down", "parametric": True}),
        (ab.ChainPoset(LAT, (FAM,)), {"lattice": LAT, "families": (FAM,)}),
    ]


def test_equality_needs_the_same_class():
    assert Skip() == Skip() and Skip() != Break()
    assert BoolTest(CMP) != Not(CMP)
    same_fields = (ABin("<", X, ONE), Cmp("<", X, ONE), BBin("<", X, ONE))
    for a in same_fields:
        for b in same_fields:
            assert (a == b) == (type(a) is type(b))
    assert Const(1) != 1 and Var("x") != "x"


def test_hash_is_the_field_tuples_and_agrees_with_equality():
    src = "while (x < 3) { if (!(x == 1)) x = x + 1; else y = [-oo,2]; }"
    assert parse(src) == parse(src) and parse(src) is not parse(src)
    assert hash(parse(src)) == hash(parse(src))
    for record, fields in _samples():
        # a space's listed states are derived slots, not fields
        assert type(record)._fields == tuple(fields), record
        assert [getattr(record, k) for k in fields] == list(fields.values())
        assert hash(record) == hash(tuple(fields.values())), record


@pytest.mark.parametrize("record,fields", _samples(),
                         ids=lambda v: type(v).__name__)
def test_frozen_records_reject_assignment_and_deletion(record, fields):
    for name in list(fields)[:1] + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, k) for k in fields] == list(fields.values())


def test_rule_report_is_mutable_and_unhashable():
    a, b = hl.RuleReport("seq"), hl.RuleReport("seq")
    with pytest.raises(TypeError):
        hash(a)
    assert a == b and a.witnesses is not b.witnesses
    assert a.premises is not b.premises
    a.premise("p", False)
    assert a.verdict == "fails" and a != b
    a.verdict = "holds"
    assert a.holds()
    assert hl.RuleReport("r", witnesses=[1]).witnesses == [1]


def test_repr_text():
    r = rd.triple(SPACE, e=[((0,), (1,))], inf=[(1,)])
    cases = [
        (Const(-3), "Const(value=-3)"),
        (Skip(), "Skip()"),
        (parse("x = [-oo,3];"), "RandAssign(var='x', lo=-inf, hi=3)"),
        (parse("while (!(x < 1) && x != 2) x = x * 2;"),
         "While(cond=BBin(op='&&', left=Not(arg=Cmp(op='<', "
         "left=Var(name='x'), right=Const(value=1))), right=Cmp(op='!=', "
         "left=Var(name='x'), right=Const(value=2))), body=Assign(var='x', "
         "expr=ABin(op='*', left=Var(name='x'), right=Const(value=2))))"),
        (parse("if (x < 1) skip; break;"),
         "Seq(stmts=(If(cond=Cmp(op='<', left=Var(name='x'), "
         "right=Const(value=1)), then=Skip(), orelse=Skip()), "
         "Break()))"),
        (r, "SemTriple(e=(2, 0), inf=2, br=(0, 0))"),
        (SPACE, "StateSpace(vars=('x',), lo=(0,), hi=(1,), "
                "arith='saturate')"),
        (FAM, "Family(name='F', elements=('top',), limit='bot', "
              "direction='down', parametric=True)"),
        (hl.RuleReport("seq"), "RuleReport(rule='seq', verdict='holds', "
                               "witnesses=[], premises=[])"),
    ]
    for record, text in cases:
        assert repr(record) == text


def test_defaults_and_keywords():
    assert SPACE.arith == "saturate"
    assert rd.StateSpace(vars=("x",), lo=(0,), hi=(1,), arith="wrap") \
        .arith == "wrap"
    assert (FAM.direction, FAM.parametric) == ("down", True)
    fam = ab.Family(name="G", elements=("top",), limit="top",
                    parametric=False)
    assert (fam.direction, fam.parametric) == ("down", False)
    assert ab.ChainPoset(LAT).families == ()
    assert hl.RuleReport(rule="seq", verdict="fails").verdict == "fails"


def test_construction_still_validates():
    with pytest.raises(ValueError, match="at least one variable"):
        rd.StateSpace((), (), ())
    with pytest.raises(ValueError, match="unknown arithmetic mode"):
        rd.StateSpace(("x",), (0,), (1,), "wrapped")
    with pytest.raises(ValueError, match="^space config has 4160 states, "
                       "more than the limit of 4096$"):
        rd.StateSpace(("x", "y"), (0, 0), (63, 64))
    with pytest.raises(ab.LatticeError, match="bad direction"):
        ab.ChainPoset(LAT, (ab.Family("F", ("top",), "bot", "sideways"),))
