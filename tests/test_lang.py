import gc
import pathlib
import random
import subprocess
import sys

import pytest

from hyperlab.lang import (ABin, Assign, BoolTest, Break, Cmp, Const, If,
                           ParseError, RandAssign, Seq, Skip, Var, While,
                           parse, pretty, subtrees, validate_breaks, NEG_INF,
                           POS_INF)
from hyperlab.selftest import random_program, random_stmt


def test_parse_skip_atomic():
    assert parse("skip;") == Skip()


def test_parse_countdown_loop():
    got = parse("while (y!=0) y=y-1;")
    want = While(Cmp("!=", Var("y"), Const(0)),
                 Assign("y", ABin("-", Var("y"), Const(1))))
    assert got == want


def test_parse_unbounded_choice_then_loop():
    got = parse("x = [-oo,oo]; while (x!=0) { x=x-1; }")
    assert isinstance(got, Seq) and len(got.stmts) == 2
    assert got.stmts[0] == RandAssign("x", NEG_INF, POS_INF)
    assert isinstance(got.stmts[1], While)


def test_parse_if_without_else_defaults_to_skip():
    got = parse("if (x>0) x=1;")
    assert got == If(Cmp(">", Var("x"), Const(0)), Assign("x", Const(1)), Skip())


def test_parse_boolean_operators_and_negative_literals():
    got = parse("if (!(x==1) && y < -2 || x >= y) skip; else break;")
    assert isinstance(got, If)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse("while (x != ) skip;")
    assert err.value.line == 1
    assert err.value.col > 1


@pytest.mark.parametrize("text,message,line,col", [
    ("# note\nx = @;", "unexpected character '@'", 2, 5),
    ("\tx = $;", "unexpected character '$'", 1, 6),  # a tab is one column
    ("x = 1;\r\ny = 2\r\n", "expected ';' (found 'end of input')", 3, 1),
    ("x = 1 # c", "expected ';' (found 'end of input')", 1, 7),  # at the '#'
    ("# only", "expected a statement (found 'end of input')", 1, 1),
    ("x = [1,", "expected 'int' (found 'end of input')", 1, 8),
    ("while (x != ) skip;", "expected an expression (found ')')", 1, 13),
    ("x = 12ab;", "expected ';' (found 'ab')", 1, 7),
    # numeric characters that are not decimal digits
    ("x = Ⅻ;", "unexpected character 'Ⅻ'", 1, 5),
    ("x = ²;", "unexpected character '²'", 1, 5),
])
def test_parse_error_text_and_position(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == "%s at line %d, column %d" % (message, line, col)
    assert (err.value.line, err.value.col) == (line, col)


def test_parse_leaves_no_cyclic_garbage():
    # the grammar rules are closures that call one another; parse unbinds
    # them, so reference counting frees a parse and the collector finds
    # nothing, on success and on a syntax error after backtracking
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        parse("while ((x + 1) > 0) { y = [0,2]; if (!(y == 1)) break; }")
        assert gc.collect() == 0
        try:  # not pytest.raises, which keeps the error and its traceback
            parse("if ((x + 1) > ) skip;")
            raised = False
        except ParseError:
            raised = True
        assert raised and gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_unicode_letters_and_decimal_digits_are_accepted():
    assert parse("é = 1;") == Assign("é", Const(1))
    assert parse("x = ٣;") == Assign("x", Const(3))  # arabic-indic three
    assert parse("x² = 1;") == Assign("x²", Const(1))  # \w continues a name


def test_parse_error_on_trailing_garbage():
    with pytest.raises(ParseError):
        parse("skip; )")


def test_validate_breaks_bare_break_fails_at_root():
    assert validate_breaks(Break()) == []


def test_validate_breaks_directly_enclosed():
    assert validate_breaks(While(Cmp("<", Var("x"), Const(1)), Break())) is None


def test_validate_breaks_reports_path_after_loop():
    # exhaustive walk: the offending break is the second child of the Seq
    s = Seq(While(Cmp("<", Var("x"), Const(1)), Skip()), Break())
    assert validate_breaks(s) == [1]
    # a sequence is one node, so the path is the statement's position
    assert validate_breaks(parse("x = 1; x = 2; break;")) == [2]


def _walked_free_break(node, in_loop=False, path=()):
    """The first free break's path by a walk of every node, loop bodies
    included."""
    if isinstance(node, Break) and not in_loop:
        return list(path)
    kids = {Seq: lambda: node.stmts, If: lambda: (node.then, node.orelse),
            While: lambda: (node.body,)}.get(type(node), tuple)()
    for i, c in enumerate(kids):
        bad = _walked_free_break(c, in_loop or isinstance(node, While),
                                 path + (i,))
        if bad is not None:
            return bad
    return None


def test_validate_breaks_skips_loop_bodies_and_agrees_with_a_full_walk():
    rng = random.Random(31)
    free = 0
    for _ in range(600):
        s, _ = random_program(rng, depth=4, allow_free_break=True)
        assert validate_breaks(s) == _walked_free_break(s)
        free += validate_breaks(s) is not None
    assert 100 < free < 500


def test_component_relation_is_well_founded():
    s, _ = random_program(random.Random(7), depth=4)
    seen = list(subtrees(s))
    assert len(seen) < 200  # structural recursion terminates


def test_pretty_parse_round_trip_on_random_programs():
    rng = random.Random(1234)
    for _ in range(300):
        s, _ = random_program(rng, depth=4)
        text = pretty(s)
        assert parse(text) == s, text
    # a sequence nested in either position keeps its grouping as a block
    a, b, c = Assign("x", Const(1)), Skip(), Break()
    for s in (Seq(Seq(a, b), c), Seq(a, Seq(b, c)), Seq(a, b, c)):
        assert parse(pretty(s)) == s, pretty(s)


def test_random_programs_break_outside_a_loop_only_when_asked():
    # the selftest suites draw their programs and loop bodies unfiltered:
    # without allow_free_break, every break the generator emits is inside
    # a loop it also emitted
    rng = random.Random(31)
    for _ in range(1500):
        s, space = random_program(rng, depth=rng.choice((3, 4)),
                                  allow_while=rng.random() < 0.5)
        assert validate_breaks(s) is None, pretty(s)
        body = random_stmt(rng, space.vars, 2, allow_while=False)
        assert validate_breaks(body) is None, pretty(body)
    free = sum(validate_breaks(random_program(rng, depth=3,
                                              allow_free_break=True)[0])
               is not None for _ in range(200))
    assert free > 20, free


def test_booltest_has_no_concrete_syntax():
    with pytest.raises(ValueError):
        pretty(BoolTest(Cmp("==", Var("x"), Const(0))))



# weakref each hyperlab module and each class it defines, drop the modules,
# import them again, and name what is still alive
_REIMPORT = """
import gc, sys, weakref
import hyperlab.cli, hyperlab.selftest

def refs():
    out = {}
    for n, m in sys.modules.items():
        if n.startswith("hyperlab"):
            out[n] = weakref.ref(m)
            out.update((n + "." + k, weakref.ref(v)) for k, v in vars(m).items()
                       if isinstance(v, type) and v.__module__ == n)
    return out

old = refs()
for n in [n for n in sys.modules if n.startswith("hyperlab")]:
    del sys.modules[n]
import hyperlab.cli, hyperlab.selftest
gc.collect()
print(" ".join(sorted(n for n, r in old.items() if r() is not None)))
"""


def test_a_dropped_module_is_not_kept_alive():
    # typing caches each Union it builds: a `typing.Union` alias kept the
    # classes of `lang`, so its functions and globals, alive after the
    # package was dropped and imported again, as the benchmark's set-ups do
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _REIMPORT], cwd=src,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
