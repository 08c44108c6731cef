"""`lang.parse` against the reference parser it replaced.

The reference (`reference_parser.py`) keeps every token's offset and calls
a helper per token; `lang.parse` lexes in one pass and finds an offset only
for an error.  On pretty-printed random programs and on token-level mutants
of them, both must give the same AST, or the same `ParseError` text, line
and column.
"""

import random

import pytest

from hyperlab.lang import ParseError, parse, pretty
from hyperlab.selftest import random_program

from reference_parser import _tokenize, reference_parse

# what the mutants insert before a token: brackets, characters the lexer
# rejects or reads as a digit, separators and comments
INSERTS = ("(", ")", "$", "²", "٣", "\t", "\r", "\r\n", " # note\n", "#",
           "-", "oo", "[", ";", "else", "}")


def _outcome(parser, text):
    try:
        return "ast", parser(text)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col


def _agree(text):
    want = _outcome(reference_parse, text)
    assert _outcome(parse, text) == want, repr(text)
    return want[0]


def _mutants(rng, text):
    """Two of: a deletion, a duplication, a swap of neighbours and an
    insertion at token boundaries, and the text with a trailing comment."""
    spans = [(off, off + len(word)) for _tag, word, off in _tokenize(text)]
    spans.pop()  # end of input
    k = rng.randrange(len(spans) - 1) if len(spans) > 1 else 0
    (a, b), (c, d) = spans[k], spans[min(k + 1, len(spans) - 1)]
    mutants = (text[:a] + text[b:],
               text[:b] + text[a:b] + text[b:],
               text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:],
               text[:a] + rng.choice(INSERTS) + text[a:],
               text + rng.choice((" # trailing", "\n# trailing", "#")))
    return rng.sample(mutants, 2)


def test_parse_agrees_with_the_reference_on_programs_and_mutants():
    rng = random.Random(2024)
    kinds = {"ast": 0, "error": 0}
    for n in range(3000):
        s, _ = random_program(rng, depth=1 + n % 3)
        text = pretty(s)
        assert _agree(text) == "ast"
        assert parse(text) == s
        for mutant in _mutants(rng, text):
            kinds[_agree(mutant)] += 1
    # the mutants exercise both outcomes, each many times
    assert min(kinds.values()) > 1000, kinds


def test_parse_agrees_with_the_reference_on_edge_texts():
    for text in ("", " ", "\n", "#", "# only", "x", "x =", "x = 1", "x = 1;",
                 "x = 1 # c", "x = 1 # c\n", "x = 1 # c\n# d", "x = 1;\n#",
                 "x = 1; #\n  ", "\tx = $;", "x = 1;\r\ny = 2\r\n",
                 "x = \x0b1;", "x² = 1;", "x = 1٣;", "x = ٣x;", "x = Ⅻ;",
                 "é = [-oo,oo];", "x = [oo,-oo];", "x = [-,1];", "x = [1;",
                 "x = --1;", "x = -(1);", "x = 2 - -x * 3;", "oo = 1;",
                 "if (x) skip;", "if ((x) < 1) skip;", "if (((x < 1))) skip;",
                 "if ((x < 1) && (x + 1) > 2 || !(x == 1)) skip; else skip;",
                 "while (!(x) < 1) skip;", "while ((x < 1) skip;",
                 "if (x < 1) skip; else", "{ skip; } }", "{ skip;", "{ }",
                 "skip; else skip;", "break", "x = 1 ;;", "x == 1;",
                 "while (x < (1 + (2 * (3 - x)))) { x = x + 1; }"):
        _agree(text)


def test_nesting_past_the_recursion_limit_raises_in_both():
    # `hl` reports the RecursionError with exit 2 (test_cli.py)
    for text in ("{" * 1200 + "x = 1;" + "}" * 1200,
                 "x = " + "(" * 1200 + "1" + ")" * 1200 + ";"):
        for parser in (reference_parse, parse):
            with pytest.raises(RecursionError):
                parser(text)
