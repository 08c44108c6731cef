"""Concrete syntax and AST for the While+break language.

Statements: assignment `x = A`, random assignment `x = [a,b]` (bounds may be
`-oo`/`oo`), `skip`, `break`, sequencing with `;` terminators, `if (B) S else S`
(the else branch may be omitted and defaults to `skip`), `while (B) S`, and
`{ ... }` blocks.  Arithmetic expressions use integer literals, variables and
`+ - *`; boolean expressions are comparisons (`== != < <= > >=`) combined with
`!`, `&&`, `||`.  There is no division, so expressions are total, and
expressions have no side effects.

Lexically, a name starts with a letter or `_` and continues with any `\\w`
character (Unicode ones included, so `é` is a name and `x² = 1;` assigns
`x²`); an integer literal is a run of decimal digits of any script (`٣` is
3); other numeric characters such as `²` or `Ⅻ` cannot start a token.  `#`
starts a comment that runs to the end of the line; spaces, tabs, `\r` and
newlines separate tokens.  The lexer is one `re.findall` that skips blanks
and comments inside its matches and keeps no offsets; a `ParseError` scans
again for the offending token's line and column (a tab is one column).  A
sequence is one `Seq` node of any length (a block in it stays its own node);
the parser and the structural walks recurse only over nesting, so a program
nested deeper than Python's recursion limit (hundreds of parentheses or
blocks) raises `RecursionError` (`hl`: exit 2).

`BoolTest` is a guard statement used internally by the semantics and the
calculi; it is not part of the concrete grammar.  AST nodes are `Record`s.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Iterator, Union

NEG_INF = float("-inf")
POS_INF = float("inf")


# ---------------------------------------------------------------------------
# Records

class Record:
    """Base of the lab's record types: slotted classes whose fields are
    their `__slots__`, in order, except names starting with `_` (state
    derived from the fields).  As with a frozen dataclass, a record equals
    only a record of the same class with equal fields, its hash is that of
    the tuple of its fields, its `repr` is `Name(field=value, ...)`, and
    assigning or deleting an attribute raises AttributeError, so `__init__`
    sets the fields through the slots' own setters (`slot_setters`), which
    take half the time of `object.__setattr__` (records built a few times
    per run use the latter), and no `dataclass` code generation runs."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = names = tuple(n for n in cls.__slots__
                                    if not n.startswith("_"))
        # the tuple of the fields, built in C when there are two or more
        cls._values = staticmethod(
            operator.attrgetter(*names) if len(names) > 1
            else lambda self: tuple(getattr(self, n) for n in names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


def slot_setters(cls) -> tuple:
    """The `__set__` of each of the slots of `cls`, in order."""
    return tuple(vars(cls)[n].__set__ for n in cls.__slots__)


# ---------------------------------------------------------------------------
# Expressions

class Const(Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        _const_value(self, value)


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _var_name(self, name)


class ABin(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: AExpr, right: AExpr):
        _abin_op(self, op)  # '+', '-', '*'
        _abin_left(self, left)
        _abin_right(self, right)


AExpr = Union[Const, Var, ABin]


class Cmp(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: AExpr, right: AExpr):
        _cmp_op(self, op)  # '==', '!=', '<', '<=', '>', '>='
        _cmp_left(self, left)
        _cmp_right(self, right)


class Not(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: BExpr):
        _not_arg(self, arg)


class BBin(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: BExpr, right: BExpr):
        _bbin_op(self, op)  # '&&', '||'
        _bbin_left(self, left)
        _bbin_right(self, right)


BExpr = Union[Cmp, Not, BBin]


# ---------------------------------------------------------------------------
# Statements

class Assign(Record):
    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: AExpr):
        _assign_var(self, var)
        _assign_expr(self, expr)


class RandAssign(Record):
    __slots__ = ("var", "lo", "hi")

    def __init__(self, var: str, lo: float, hi: float):
        _rand_var(self, var)
        _rand_lo(self, lo)  # int or -inf
        _rand_hi(self, hi)  # int or +inf


class Skip(Record):
    __slots__ = ()


class Break(Record):
    __slots__ = ()


class Seq(Record):
    __slots__ = ("stmts",)

    def __init__(self, *stmts: Stmt):
        _seq_stmts(self, stmts)


class If(Record):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: BExpr, then: Stmt, orelse: Stmt):
        _if_cond(self, cond)
        _if_then(self, then)
        _if_orelse(self, orelse)


class While(Record):
    __slots__ = ("cond", "body")

    def __init__(self, cond: BExpr, body: Stmt):
        _while_cond(self, cond)
        _while_body(self, body)


class BoolTest(Record):
    __slots__ = ("cond",)

    def __init__(self, cond: BExpr):
        _booltest_cond(self, cond)


Stmt = Union[Assign, RandAssign, Skip, Break, Seq, If, While, BoolTest]


# the slots' own setters, through which each `__init__` writes its fields
(_const_value,), (_var_name,), (_not_arg,), (_seq_stmts,), (_booltest_cond,) \
    = map(slot_setters, (Const, Var, Not, Seq, BoolTest))
_abin_op, _abin_left, _abin_right = slot_setters(ABin)
_cmp_op, _cmp_left, _cmp_right = slot_setters(Cmp)
_bbin_op, _bbin_left, _bbin_right = slot_setters(BBin)
_assign_var, _assign_expr = slot_setters(Assign)
_rand_var, _rand_lo, _rand_hi = slot_setters(RandAssign)
_if_cond, _if_then, _if_orelse = slot_setters(If)
_while_cond, _while_body = slot_setters(While)


# ---------------------------------------------------------------------------
# Structural helpers

def children(s: Stmt) -> tuple:
    """Ordered child statements; index positions are used in AST paths."""
    if isinstance(s, Seq):
        return s.stmts
    if isinstance(s, If):
        return (s.then, s.orelse)
    if isinstance(s, While):
        return (s.body,)
    return ()


def _free_break(node: Stmt, path: list):
    """AST path of the first break under `node` outside any loop, or None."""
    if isinstance(node, Break):
        return path
    if isinstance(node, While):  # its body's breaks leave it
        return None
    for i, c in enumerate(children(node)):
        bad = _free_break(c, path + [i])
        if bad is not None:
            return bad
    return None


def validate_breaks(s: Stmt):
    """None if every break has an enclosing loop, else the AST path (list
    of child indices) of the first offending break."""
    return _free_break(s, [])


def require_no_free_break(s: Stmt) -> Stmt:
    """`s`, or ValueError naming the AST path of its first free break."""
    bad = validate_breaks(s)
    if bad is not None:
        raise ValueError("break without enclosing loop at AST path %s" % bad)
    return s


def _expr_vars(e, out: set) -> None:
    """Add the variables of an arithmetic or boolean expression to `out`."""
    if isinstance(e, Var):
        out.add(e.name)
    elif isinstance(e, Not):
        _expr_vars(e.arg, out)
    elif not isinstance(e, Const):  # ABin, Cmp and BBin
        _expr_vars(e.left, out)
        _expr_vars(e.right, out)


def stmt_vars(s: Stmt) -> frozenset:
    """All variable names occurring in a statement."""
    out: set = set()
    for node in subtrees(s):
        if isinstance(node, (Assign, RandAssign)):
            out.add(node.var)
        if isinstance(node, Assign):
            _expr_vars(node.expr, out)
        elif isinstance(node, (If, While, BoolTest)):
            _expr_vars(node.cond, out)
    return frozenset(out)


def subtrees(s: Stmt) -> Iterator[Stmt]:
    yield s
    for c in children(s):
        yield from subtrees(c)


# ---------------------------------------------------------------------------
# Pretty printer

def pretty_aexpr(e: AExpr) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    return "(%s %s %s)" % (pretty_aexpr(e.left), e.op, pretty_aexpr(e.right))


def pretty_bexpr(b: BExpr) -> str:
    if isinstance(b, Cmp):
        return "%s %s %s" % (pretty_aexpr(b.left), b.op, pretty_aexpr(b.right))
    if isinstance(b, Not):
        return "!(%s)" % pretty_bexpr(b.arg)
    return "(%s) %s (%s)" % (pretty_bexpr(b.left), b.op, pretty_bexpr(b.right))


def _bound(v) -> str:
    if v == NEG_INF:
        return "-oo"
    if v == POS_INF:
        return "oo"
    return str(int(v))


def pretty(s: Stmt, indent: int = 0) -> str:
    """Canonical concrete syntax; parse(pretty(s)) == s for parseable ASTs."""
    pad = "  " * indent
    if isinstance(s, Assign):
        return "%s%s = %s;" % (pad, s.var, pretty_aexpr(s.expr))
    if isinstance(s, RandAssign):
        return "%s%s = [%s,%s];" % (pad, s.var, _bound(s.lo), _bound(s.hi))
    if isinstance(s, Skip):
        return pad + "skip;"
    if isinstance(s, Break):
        return pad + "break;"
    if isinstance(s, Seq):  # a nested sequence is a block
        return "\n".join(
            "%s{\n%s\n%s}" % (pad, pretty(c, indent + 1), pad)
            if isinstance(c, Seq) else pretty(c, indent) for c in s.stmts)
    if isinstance(s, If):
        return "%sif (%s) {\n%s\n%s} else {\n%s\n%s}" % (
            pad, pretty_bexpr(s.cond),
            pretty(s.then, indent + 1), pad,
            pretty(s.orelse, indent + 1), pad)
    if isinstance(s, While):
        return "%swhile (%s) {\n%s\n%s}" % (
            pad, pretty_bexpr(s.cond), pretty(s.body, indent + 1), pad)
    if isinstance(s, BoolTest):
        raise ValueError("BoolTest has no concrete syntax")
    raise TypeError(s)


# ---------------------------------------------------------------------------
# Parser

class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%s at line %d, column %d" % (message, line, col))
        self.line = line
        self.col = col


# a match is the blanks and comments before a token, then the token as the
# only group (symbols longest first); the end of input is the empty token
_TOKEN = re.compile(r"(?:[ \t\r\n]+|\#[^\n]*)*(==|!=|<=|>=|&&|\|\||"
                    r"[-=<>!+*(){}\[\],;]|\d+|[^\W\d]\w*|.|\Z)")
_TAGS = {w: w or "eof" for w in ("", "skip", "break", "if", "else", "while",
                                  "oo", "==", "!=", "<=", ">=", "&&", "||",
                                  *"-=<>!+*(){}[],;")}


# the tag of a token that is no symbol or keyword, by its first character
class _Kinds(dict):
    def __missing__(self, c):
        return "int" if c.isdecimal() else \
            "name" if c.isalpha() or c == "_" else "bad"


_KINDS = _Kinds((c, _Kinds.__missing__(None, c)) for c in map(chr, range(128)))


class _Fail(Exception):
    """Syntax error (token number, message); `parse` locates it."""


def _error(text: str, k: int, message: str) -> ParseError:
    """`message` at the line and column of token k (a tab is one column), by
    a new scan; the end of input after a trailing comment is at its '#'."""
    m = next(itertools.islice(_TOKEN.finditer(text), k, None))
    at = m.start(1) if m.group(1) else text.find("#", text.rfind("\n") + 1)
    at = len(text) if at < 0 else at
    return ParseError(message, text.count("\n", 0, at) + 1,
                      at - text.rfind("\n", 0, at))


def parse(text: str) -> Stmt:
    """Parse program text into an AST; raises ParseError with line/column."""
    words = _TOKEN.findall(text)
    tags = [_TAGS.get(w) or _KINDS[w[0]] for w in words]
    if "bad" in tags:
        k = tags.index("bad")
        raise _error(text, k, "unexpected character %r" % words[k][0])
    pos = 0

    def need(tag):  # consume the punctuation `tag`
        nonlocal pos
        if tags[pos] != tag:
            raise _Fail(pos, "expected %r" % tag)
        pos += 1

    def stmt_seq():
        stmts = [stmt()]
        while tags[pos] not in ("eof", "}", "else"):
            stmts.append(stmt())
        return Seq(*stmts) if len(stmts) > 1 else stmts[0]

    def stmt():
        nonlocal pos
        tag = tags[pos]
        pos += 1
        if tag == "name":
            var = words[pos - 1]
            need("=")
            if tags[pos] == "[":
                pos += 1
                lo = bound()
                need(",")
                s = RandAssign(var, lo, bound())
                need("]")
            else:
                s = Assign(var, aexpr())
        elif tag == "{":
            s = stmt_seq()
            need("}")
            return s
        elif tag == "if" or tag == "while":
            need("(")
            cond = bexpr()
            need(")")
            body = stmt()
            if tag == "while":
                return While(cond, body)
            pos += tags[pos] == "else"  # a body never ends in 'else'
            return If(cond, body,
                      stmt() if tags[pos - 1] == "else" else Skip())
        elif tag == "skip" or tag == "break":
            s = Skip() if tag == "skip" else Break()
        else:
            raise _Fail(pos - 1, "expected a statement")
        need(";")
        return s

    def bound():
        nonlocal pos
        sign = -1 if tags[pos] == "-" else 1
        pos += 2 if sign < 0 else 1
        if tags[pos - 1] == "oo":
            return sign * POS_INF
        if tags[pos - 1] != "int":
            raise _Fail(pos - 1, "expected 'int'")
        return sign * int(words[pos - 1])

    def bexpr():
        nonlocal pos
        b = band()
        while tags[pos] == "||":
            pos += 1
            b = BBin("||", b, band())
        return b

    def band():
        nonlocal pos
        b = batom()
        while tags[pos] == "&&":
            pos += 1
            b = BBin("&&", b, batom())
        return b

    def batom():
        nonlocal pos
        if tags[pos] == "!":
            pos += 1
            return Not(batom())
        if tags[pos] == "(":  # a parenthesized bexpr, else an aexpr's '('
            save = pos
            pos += 1
            try:
                b = bexpr()
                need(")")
                return b
            except _Fail:
                pos = save
        left = aexpr()
        op = tags[pos]
        if op not in {"==", "!=", "<", "<=", ">", ">="}:
            raise _Fail(pos, "expected a comparison operator")
        pos += 1
        return Cmp(op, left, aexpr())

    def aexpr():
        nonlocal pos
        e = term()
        while tags[pos] == "+" or tags[pos] == "-":
            pos += 1
            e = ABin(tags[pos - 1], e, term())
        return e

    def term():
        nonlocal pos
        e = factor()
        while tags[pos] == "*":
            pos += 1
            e = ABin("*", e, factor())
        return e

    def factor():
        nonlocal pos
        tag = tags[pos]
        pos += 1
        if tag == "name":
            return Var(words[pos - 1])
        if tag == "int":
            return Const(int(words[pos - 1]))
        if tag == "(":
            e = aexpr()
            need(")")
            return e
        if tag != "-":
            raise _Fail(pos - 1, "expected an expression")
        f = factor()
        return Const(-f.value) if isinstance(f, Const) else \
            ABin("-", Const(0), f)

    try:
        s = stmt_seq()
        if tags[pos] != "eof":
            raise _Fail(pos, "trailing input")
        return s
    except _Fail as exc:
        k, message = exc.args
        raise _error(text, k, "%s (found %r)" % (
            message, words[k] or "end of input")) from None
    finally:  # the rules call one another: unbind them to leave no cycle
        del stmt_seq, stmt, bexpr, band, batom, aexpr, term, factor
