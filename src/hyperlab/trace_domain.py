"""Finite-trace semantics at bounded length and its relational abstraction.

Traces are nonempty state sequences; `trace_sem` is `interpreter.interpret`
on the trace algebra `traces(space, cap)`.  Skips and assignments
contribute one step (two states: their relational pairs), tests and breaks
act as filters (one state, and break traces simply stop at the break point,
following the relational reading of the break-to constructor).
Concatenation merges the shared middle state.

Infinite traces are never materialized: the divergent component is carried as
the set of divergent start states, which is the exact relational abstraction
of the infinite trace set.  Traces longer than the configured cap L are
dropped and the result is flagged as truncated, never silently cut, so
commutation checks can skip flagged cases soundly.
"""

from __future__ import annotations

import operator

from . import interpreter, lang, rel_domain as rd
from .interpreter import Algebra
from .lang import BoolTest, Break, neg
from .rel_domain import StateSpace


_set = object.__setattr__


class TraceSet(lang.Record):
    __slots__ = ("finite", "div_starts", "truncated")

    def __init__(self, finite: frozenset, div_starts: frozenset,
                 truncated: bool):
        _set(self, "finite", finite)          # terminating traces (tuples)
        _set(self, "div_starts", div_starts)  # starts of infinite executions
        _set(self, "truncated", truncated)    # a trace exceeded the cap


class _TR(lang.Record):
    """Internal structural value: ending traces, break traces, flag."""

    __slots__ = ("e", "br", "truncated")

    def __init__(self, e: frozenset, br: frozenset, truncated: bool):
        _set(self, "e", e)
        _set(self, "br", br)
        _set(self, "truncated", truncated)


def concat(t1, t2, cap: int):
    """Trace concatenation T1 ; T2 with shared middle state, capped at `cap`.

    Returns (traces, truncated_flag).
    """
    by_first: dict = {}
    for p in t2:
        by_first.setdefault(p[0], []).append(p)
    out = set()
    cut = False
    for p in t1:
        for q in by_first.get(p[-1], ()):
            r = p + q[1:]
            if len(r) > cap:
                cut = True
            else:
                out.add(r)
    return frozenset(out), cut


def traces(space: StateSpace, cap: int) -> Algebra:
    """Traces of length at most `cap`; a loop is every finite iteration of
    its guarded body followed by its exits."""
    singles, empty = frozenset((sig,) for sig in space.states()), frozenset()

    def prim(s):
        if isinstance(s, BoolTest):
            test = rd.compile_expr(s.cond, space)
            return _TR(frozenset(t for t in singles if test(t[0])), empty,
                       False)
        if isinstance(s, Break):
            return _TR(empty, singles, False)
        return _TR(frozenset(rd.pairs(rd.prim(s, space).e, space)), empty,
                   False)

    def seq(a, b):
        e, c1 = concat(a.e, b.e, cap)
        br2, c2 = concat(a.e, b.br, cap)
        return _TR(e, a.br | br2, a.truncated or b.truncated or c1 or c2)

    def loop(cond, body):
        cut = body.truncated

        def step(x):
            nonlocal cut
            grown, c = concat(body.e, x, cap)
            cut = cut or c
            return singles | grown

        reach = interpreter.lfp(step, frozenset(), le=operator.le,
                                max_iter=cap + 2).result
        exits = prim(BoolTest(neg(cond))).e | body.br
        e, c = concat(reach, exits, cap)
        return _TR(e, empty, cut or c)

    return Algebra(prim, seq,
                   lambda a, b: _TR(a.e | b.e, a.br | b.br,
                                    a.truncated or b.truncated),
                   loop)


def trace_sem(s: lang.Stmt, space: StateSpace, max_len: int) -> TraceSet:
    """Finite-trace semantics up to length `max_len`, plus divergent starts.

    The divergent component is taken from the relational semantics (the
    exact abstraction of the infinite traces).
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    tr = interpreter.interpret(s, traces(space, max_len))
    div = frozenset(rd.members(interpreter.sem(s, space).inf, space))
    return TraceSet(tr.e, div, tr.truncated)


def abstract_to_rel(t: TraceSet, space: StateSpace):
    """First/last-state abstraction of the finite traces.

    Returns (relation, divergent mask) over `space`; the divergent starts
    pass through unchanged.
    """
    return (rd.rel(((p[0], p[-1]) for p in t.finite), space),
            rd.mask(t.div_starts, space))


def format_trace(p, space: StateSpace) -> str:
    return ";".join(",".join("%s:%d" % (v, s[i]) for i, v in enumerate(space.vars))
                    for s in p)


def dump_traces(t: TraceSet, space: StateSpace) -> str:
    """One trace per line, states as var:val groups separated by `;`."""
    return "\n".join(sorted(format_trace(p, space) for p in t.finite))
