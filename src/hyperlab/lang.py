"""Concrete syntax and AST for the While+break language.

Statements: assignment `x = A`, random assignment `x = [a,b]` (bounds may be
`-oo`/`oo`), `skip`, `break`, sequencing with `;` terminators, `if (B) S else S`
(the else branch may be omitted and defaults to `skip`), `while (B) S`, and
`{ ... }` blocks.  Arithmetic expressions use integer literals, variables and
`+ - *`; boolean expressions are comparisons (`== != < <= > >=`) combined with
`!`, `&&`, `||`.  There is no division, so expressions are total, and
expressions have no side effects.

Lexically, a name is a letter or `_` followed by letters, digits and `_`
(Unicode ones included, so `é` is a name); an integer literal is a run of
decimal digits of any script (`٣` is 3); other numeric characters such as
`²` or `Ⅻ` are unexpected characters.  `#` starts a comment that runs to
the end of the line; spaces, tabs, `\r` and newlines separate tokens.  A
`ParseError` gives the line and column of the offending token, counting a
tab as one column.  A sequence is one `Seq` node of any length (a block in
it stays its own node); the parser and the structural walks recurse only
over nesting, so a program nested deeper than Python's recursion limit
(hundreds of parentheses or blocks) raises `RecursionError` (`hl`: exit 2).

`BoolTest` is a guard statement used internally by the semantics and the
calculi; it is not part of the concrete grammar.

AST nodes are `Record`s, the base of the lab's record types: plain
slotted classes with the equality, hash, `repr` and immutability of frozen
dataclasses, defined without the code generation of `dataclasses`.
"""

from __future__ import annotations

import operator
import re
from typing import Iterator, Union

NEG_INF = float("-inf")
POS_INF = float("inf")


# ---------------------------------------------------------------------------
# Records

_set = object.__setattr__


class Record:
    """Base of the lab's record types: slotted classes whose fields are
    their `__slots__`, in order, except names starting with `_` (state
    derived from the fields).  As with a frozen dataclass, a record equals
    only a record of the same class with equal fields, its hash is that of
    the tuple of its fields, its `repr` is `Name(field=value, ...)`, and
    assigning or deleting an attribute raises AttributeError, so `__init__`
    sets the fields with `object.__setattr__`.  The `dataclass` decorator
    takes about 1 ms per class to generate these methods, which was most of
    the time `hl` spent importing the lab."""

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


# ---------------------------------------------------------------------------
# Expressions

class Const(Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        _set(self, "value", value)


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class ABin(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: AExpr, right: AExpr):
        _set(self, "op", op)  # '+', '-', '*'
        _set(self, "left", left)
        _set(self, "right", right)


AExpr = Union[Const, Var, ABin]


class Cmp(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: AExpr, right: AExpr):
        _set(self, "op", op)  # '==', '!=', '<', '<=', '>', '>='
        _set(self, "left", left)
        _set(self, "right", right)


class Not(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: BExpr):
        _set(self, "arg", arg)


class BBin(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: BExpr, right: BExpr):
        _set(self, "op", op)  # '&&', '||'
        _set(self, "left", left)
        _set(self, "right", right)


BExpr = Union[Cmp, Not, BBin]


# ---------------------------------------------------------------------------
# Statements

class Assign(Record):
    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: AExpr):
        _set(self, "var", var)
        _set(self, "expr", expr)


class RandAssign(Record):
    __slots__ = ("var", "lo", "hi")

    def __init__(self, var: str, lo: Union[int, float],
                 hi: Union[int, float]):
        _set(self, "var", var)
        _set(self, "lo", lo)  # int or -inf
        _set(self, "hi", hi)  # int or +inf


class Skip(Record):
    __slots__ = ()


class Break(Record):
    __slots__ = ()


class Seq(Record):
    __slots__ = ("stmts",)

    def __init__(self, *stmts: Stmt):
        _set(self, "stmts", stmts)


class If(Record):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: BExpr, then: Stmt, orelse: Stmt):
        _set(self, "cond", cond)
        _set(self, "then", then)
        _set(self, "orelse", orelse)


class While(Record):
    __slots__ = ("cond", "body")

    def __init__(self, cond: BExpr, body: Stmt):
        _set(self, "cond", cond)
        _set(self, "body", body)


class BoolTest(Record):
    __slots__ = ("cond",)

    def __init__(self, cond: BExpr):
        _set(self, "cond", cond)


Stmt = Union[Assign, RandAssign, Skip, Break, Seq, If, While, BoolTest]


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


def _free_break(node: Stmt, in_loop: bool, path: list):
    """AST path of the first break under `node` outside any loop, or None."""
    if isinstance(node, Break) and not in_loop:
        return path
    if isinstance(node, While):
        return _free_break(node.body, True, path + [0])
    for i, c in enumerate(children(node)):
        bad = _free_break(c, in_loop, path + [i])
        if bad is not None:
            return bad
    return None


def validate_breaks(s: Stmt):
    """Check that every break has an enclosing loop.

    Returns None if the program is well formed, otherwise the AST path (list
    of child indices) of the first offending break.
    """
    return _free_break(s, False, [])


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


_KEYWORDS = {"skip", "break", "if", "else", "while", "oo"}
_COMPARISONS = {"==", "!=", "<", "<=", ">", ">="}
# whitespace and comments have no group; symbols are listed longest first
_TOKEN = re.compile(r"""
    [ \t\r\n]+ | (?P<comment>\#[^\n]*)
  | (?P<int>\d+) | (?P<name>[^\W\d]\w*)
  | (?P<sym>==|!=|<=|>=|&&|\|\||[-=<>!+*(){}\[\],;]) | (?P<bad>.)
""", re.VERBOSE)


def _error(text: str, offset: int, message: str) -> ParseError:
    """`message` at the line and column of `offset` (a tab is one column)."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - line_start + 1)


def _tokenize(text: str) -> list:
    """Tokens (tag, text, offset): the tag of a symbol or keyword is its
    text, otherwise 'int', 'name' or 'eof'.  End of input after a trailing
    comment sits at the comment's '#'."""
    toks = []
    m = None
    for m in _TOKEN.finditer(text):
        tag = m.lastgroup
        if tag is None or tag == "comment":
            continue
        word = m.group()
        if tag == "name" and not (word[0].isalpha() or word[0] == "_"):
            tag = "bad"  # a numeric character such as '²' or 'Ⅻ'
        if tag == "bad":
            raise _error(text, m.start(), "unexpected character %r" % word[0])
        if tag == "sym" or word in _KEYWORDS:
            tag = word
        toks.append((tag, word, m.start()))
    end = m.start() if m and m.lastgroup == "comment" else len(text)
    toks.append(("eof", "", end))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def next(self) -> str:
        """Consume the current token and return its text."""
        self.pos += 1
        return self.toks[self.pos - 1][1]

    def accept(self, tag: str) -> bool:
        if self.toks[self.pos][0] != tag:
            return False
        self.pos += 1
        return True

    def error(self, msg):
        _, word, offset = self.toks[self.pos]
        raise _error(self.text, offset,
                     "%s (found %r)" % (msg, word or "end of input"))

    def expect(self, tag: str) -> str:
        if self.peek() != tag:
            self.error("expected %r" % tag)
        return self.next()

    # statements -----------------------------------------------------------
    def program(self) -> Stmt:
        s = self.stmt_seq()
        if self.peek() != "eof":
            self.error("trailing input")
        return s

    def stmt_seq(self) -> Stmt:
        stmts = [self.stmt()]
        while self.peek() not in ("eof", "}", "else"):
            stmts.append(self.stmt())
        return Seq(*stmts) if len(stmts) > 1 else stmts[0]

    def stmt(self) -> Stmt:
        tag = self.peek()
        if tag not in ("{", "skip", "break", "if", "while", "name"):
            self.error("expected a statement")
        word = self.next()
        if tag == "{":
            s = self.stmt_seq()
            self.expect("}")
            return s
        if tag in ("skip", "break"):
            self.expect(";")
            return Skip() if tag == "skip" else Break()
        if tag in ("if", "while"):
            self.expect("(")
            cond = self.bexpr()
            self.expect(")")
            body = self.stmt()
            if tag == "while":
                return While(cond, body)
            orelse = self.stmt() if self.accept("else") else Skip()
            return If(cond, body, orelse)
        self.expect("=")
        if self.accept("["):
            lo = self.bound()
            self.expect(",")
            hi = self.bound()
            self.expect("]")
            self.expect(";")
            return RandAssign(word, lo, hi)
        e = self.aexpr()
        self.expect(";")
        return Assign(word, e)

    def bound(self):
        neg = self.accept("-")
        if self.accept("oo"):
            return NEG_INF if neg else POS_INF
        v = int(self.expect("int"))
        return -v if neg else v

    # boolean expressions ---------------------------------------------------
    def bexpr(self) -> BExpr:
        b = self.band()
        while self.accept("||"):
            b = BBin("||", b, self.band())
        return b

    def band(self) -> BExpr:
        b = self.batom()
        while self.accept("&&"):
            b = BBin("&&", b, self.batom())
        return b

    def batom(self) -> BExpr:
        if self.accept("!"):
            return Not(self.batom())
        save = self.pos
        if self.accept("("):
            # either a parenthesized bexpr or the left paren of an aexpr
            try:
                b = self.bexpr()
                self.expect(")")
                return b
            except ParseError:
                self.pos = save
        return self.comparison()

    def comparison(self) -> Cmp:
        left = self.aexpr()
        if self.peek() not in _COMPARISONS:
            self.error("expected a comparison operator")
        op = self.next()
        return Cmp(op, left, self.aexpr())

    # arithmetic expressions -------------------------------------------------
    def aexpr(self) -> AExpr:
        e = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            e = ABin(op, e, self.term())
        return e

    def term(self) -> AExpr:
        e = self.factor()
        while self.accept("*"):
            e = ABin("*", e, self.factor())
        return e

    def factor(self) -> AExpr:
        tag = self.peek()
        if tag not in ("(", "-", "int", "name"):
            self.error("expected an expression")
        word = self.next()
        if tag == "(":
            e = self.aexpr()
            self.expect(")")
            return e
        if tag == "-":
            f = self.factor()
            if isinstance(f, Const):
                return Const(-f.value)
            return ABin("-", Const(0), f)
        return Const(int(word)) if tag == "int" else Var(word)


def parse(text: str) -> Stmt:
    """Parse program text into an AST; raises ParseError with line/column."""
    return _Parser(text).program()


def neg(b: BExpr) -> BExpr:
    """Negation used when splitting conditionals and loop exits."""
    return Not(b)
