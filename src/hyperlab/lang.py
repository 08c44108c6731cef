"""Concrete syntax and AST for the While+break language.

Statements: assignment `x = A`, random assignment `x = [a,b]` (bounds may be
`-oo`/`oo`), `skip`, `break`, sequencing with `;` terminators, `if (B) S else S`
(the else branch may be omitted and defaults to `skip`), `while (B) S`, and
`{ ... }` blocks.  Arithmetic expressions use integer literals, variables and
`+ - *`; boolean expressions are comparisons (`== != < <= > >=`) combined with
`!`, `&&`, `||`.  There is no division, so expressions are total, and
expressions have no side effects.

`BoolTest` is a guard statement used internally by the semantics and the
calculi; it is not part of the concrete grammar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

NEG_INF = float("-inf")
POS_INF = float("inf")


# ---------------------------------------------------------------------------
# Expressions

@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class ABin:
    op: str  # '+', '-', '*'
    left: "AExpr"
    right: "AExpr"


AExpr = Union[Const, Var, ABin]


@dataclass(frozen=True)
class Cmp:
    op: str  # '==', '!=', '<', '<=', '>', '>='
    left: AExpr
    right: AExpr


@dataclass(frozen=True)
class Not:
    arg: "BExpr"


@dataclass(frozen=True)
class BBin:
    op: str  # '&&', '||'
    left: "BExpr"
    right: "BExpr"


BExpr = Union[Cmp, Not, BBin]


# ---------------------------------------------------------------------------
# Statements

@dataclass(frozen=True)
class Assign:
    var: str
    expr: AExpr


@dataclass(frozen=True)
class RandAssign:
    var: str
    lo: Union[int, float]  # int or -inf
    hi: Union[int, float]  # int or +inf


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Break:
    pass


@dataclass(frozen=True)
class Seq:
    first: "Stmt"
    second: "Stmt"


@dataclass(frozen=True)
class If:
    cond: BExpr
    then: "Stmt"
    orelse: "Stmt"


@dataclass(frozen=True)
class While:
    cond: BExpr
    body: "Stmt"


@dataclass(frozen=True)
class BoolTest:
    cond: BExpr


Stmt = Union[Assign, RandAssign, Skip, Break, Seq, If, While, BoolTest]


# ---------------------------------------------------------------------------
# Structural helpers

def children(s: Stmt) -> tuple:
    """Ordered child statements; index positions are used in AST paths."""
    if isinstance(s, Seq):
        return (s.first, s.second)
    if isinstance(s, If):
        return (s.then, s.orelse)
    if isinstance(s, While):
        return (s.body,)
    return ()


def validate_breaks(s: Stmt):
    """Check that every break has an enclosing loop.

    Returns None if the program is well formed, otherwise the AST path (list
    of child indices) of the first offending break.
    """
    def walk(node, in_loop, path):
        if isinstance(node, Break) and not in_loop:
            return path
        if isinstance(node, While):
            return walk(node.body, True, path + [0])
        for i, c in enumerate(children(node)):
            bad = walk(c, in_loop, path + [i])
            if bad is not None:
                return bad
        return None

    return walk(s, False, [])


def stmt_vars(s: Stmt) -> frozenset:
    """All variable names occurring in a statement."""
    out: set = set()

    def ae(e):
        if isinstance(e, Var):
            out.add(e.name)
        elif isinstance(e, ABin):
            ae(e.left)
            ae(e.right)

    def be(b):
        if isinstance(b, Cmp):
            ae(b.left)
            ae(b.right)
        elif isinstance(b, Not):
            be(b.arg)
        else:
            be(b.left)
            be(b.right)

    def st(node):
        if isinstance(node, Assign):
            out.add(node.var)
            ae(node.expr)
        elif isinstance(node, RandAssign):
            out.add(node.var)
        elif isinstance(node, (If, While, BoolTest)):
            be(node.cond)
            for c in children(node):
                st(c)
        else:
            for c in children(node):
                st(c)

    st(s)
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
    if isinstance(s, Seq):
        if isinstance(s.first, Seq):  # keep association through reparsing
            head = "%s{\n%s\n%s}" % (pad, pretty(s.first, indent + 1), pad)
        else:
            head = pretty(s.first, indent)
        return head + "\n" + pretty(s.second, indent)
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


_SYMBOLS = ("==", "!=", "<=", ">=", "&&", "||",
            "=", "<", ">", "!", "+", "-", "*",
            "(", ")", "{", "}", "[", "]", ",", ";")
_KEYWORDS = {"skip", "break", "if", "else", "while", "oo"}


def _tokenize(text: str):
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in _KEYWORDS else "name"
            toks.append((kind, word, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError("unexpected character %r" % c, line, col)
    toks.append(("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, msg):
        _, val, line, col = self.peek()
        shown = val if val else "end of input"
        raise ParseError("%s (found %r)" % (msg, shown), line, col)

    def expect(self, kind, value=None):
        k, v, _, _ = self.peek()
        if k != kind or (value is not None and v != value):
            self.error("expected %r" % (value if value is not None else kind))
        return self.next()

    def at(self, kind, value=None):
        k, v, _, _ = self.peek()
        return k == kind and (value is None or v == value)

    # statements -----------------------------------------------------------
    def program(self) -> Stmt:
        s = self.stmt_seq()
        if not self.at("eof"):
            self.error("trailing input")
        return s

    def stmt_seq(self) -> Stmt:
        stmts = [self.stmt()]
        while not (self.at("eof") or self.at("sym", "}") or self.at("kw", "else")):
            stmts.append(self.stmt())
        s = stmts[-1]
        for prev in reversed(stmts[:-1]):
            s = Seq(prev, s)
        return s

    def stmt(self) -> Stmt:
        if self.at("sym", "{"):
            self.next()
            s = self.stmt_seq()
            self.expect("sym", "}")
            return s
        if self.at("kw", "skip"):
            self.next()
            self.expect("sym", ";")
            return Skip()
        if self.at("kw", "break"):
            self.next()
            self.expect("sym", ";")
            return Break()
        if self.at("kw", "if"):
            self.next()
            self.expect("sym", "(")
            cond = self.bexpr()
            self.expect("sym", ")")
            then = self.stmt()
            orelse: Stmt = Skip()
            if self.at("kw", "else"):
                self.next()
                orelse = self.stmt()
            return If(cond, then, orelse)
        if self.at("kw", "while"):
            self.next()
            self.expect("sym", "(")
            cond = self.bexpr()
            self.expect("sym", ")")
            return While(cond, self.stmt())
        if self.at("name"):
            _, name, _, _ = self.next()
            self.expect("sym", "=")
            if self.at("sym", "["):
                self.next()
                lo = self.bound()
                self.expect("sym", ",")
                hi = self.bound()
                self.expect("sym", "]")
                self.expect("sym", ";")
                return RandAssign(name, lo, hi)
            e = self.aexpr()
            self.expect("sym", ";")
            return Assign(name, e)
        self.error("expected a statement")

    def bound(self):
        neg = False
        if self.at("sym", "-"):
            self.next()
            neg = True
        if self.at("kw", "oo"):
            self.next()
            return NEG_INF if neg else POS_INF
        tok = self.expect("int")
        v = int(tok[1])
        return -v if neg else v

    # boolean expressions ---------------------------------------------------
    def bexpr(self) -> BExpr:
        b = self.band()
        while self.at("sym", "||"):
            self.next()
            b = BBin("||", b, self.band())
        return b

    def band(self) -> BExpr:
        b = self.batom()
        while self.at("sym", "&&"):
            self.next()
            b = BBin("&&", b, self.batom())
        return b

    def batom(self) -> BExpr:
        if self.at("sym", "!"):
            self.next()
            return Not(self.batom())
        if self.at("sym", "("):
            # either a parenthesized bexpr or the left paren of an aexpr
            save = self.pos
            self.next()
            try:
                b = self.bexpr()
                self.expect("sym", ")")
                return b
            except ParseError:
                self.pos = save
        return self.comparison()

    def comparison(self) -> Cmp:
        left = self.aexpr()
        k, v, _, _ = self.peek()
        if k == "sym" and v in ("==", "!=", "<", "<=", ">", ">="):
            self.next()
            return Cmp(v, left, self.aexpr())
        self.error("expected a comparison operator")

    # arithmetic expressions -------------------------------------------------
    def aexpr(self) -> AExpr:
        e = self.term()
        while self.at("sym", "+") or self.at("sym", "-"):
            op = self.next()[1]
            e = ABin(op, e, self.term())
        return e

    def term(self) -> AExpr:
        e = self.factor()
        while self.at("sym", "*"):
            self.next()
            e = ABin("*", e, self.factor())
        return e

    def factor(self) -> AExpr:
        if self.at("sym", "("):
            self.next()
            e = self.aexpr()
            self.expect("sym", ")")
            return e
        if self.at("sym", "-"):
            self.next()
            f = self.factor()
            if isinstance(f, Const):
                return Const(-f.value)
            return ABin("-", Const(0), f)
        if self.at("int"):
            return Const(int(self.next()[1]))
        if self.at("name"):
            return Var(self.next()[1])
        self.error("expected an expression")


def parse(text: str) -> Stmt:
    """Parse program text into an AST; raises ParseError with line/column."""
    return _Parser(text).program()


def neg(b: BExpr) -> BExpr:
    """Negation used when splitting conditionals and loop exits."""
    return Not(b)
