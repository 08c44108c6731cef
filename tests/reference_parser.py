"""The parser as it stood before the one-pass lexer and the flat descent:
a `finditer` tokenizer that keeps every token's offset, and a method per
grammar rule with `peek`/`next`/`accept`/`expect` per token.  It is the
reference that `test_parser_differential.py` holds `lang.parse` to."""

import re

from hyperlab.lang import (NEG_INF, POS_INF, ABin, AExpr, Assign, BBin,
                           BExpr, Break, Cmp, Const, If, Not, ParseError,
                           RandAssign, Seq, Skip, Stmt, Var, While)


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


def reference_parse(text: str) -> Stmt:
    return _Parser(text).program()
