"""Finite-trace semantics at bounded length and its relational abstraction.

Traces are nonempty state sequences.  Skips and assignments contribute one
step (two states), tests and breaks act as filters (one state, and break
traces simply stop at the break point, following the relational reading of
the break-to constructor).  Concatenation merges the shared middle state.

Infinite traces are never materialized: the divergent component is carried as
the set of divergent start states, which is the exact relational abstraction
of the infinite trace set.  Traces longer than the configured cap L are
dropped and the result is flagged as truncated, never silently cut, so
commutation checks can skip flagged cases soundly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import interpreter, lang, rel_domain as rd
from .lang import Assign, BoolTest, Break, If, RandAssign, Seq, Skip, While, neg
from .rel_domain import StateSpace


@dataclass(frozen=True)
class TraceSet:
    finite: frozenset          # terminating traces (tuples of states)
    div_starts: frozenset      # start states of infinite executions
    truncated: bool            # True if any trace exceeded the length cap


@dataclass(frozen=True)
class _TR:
    """Internal structural value: ending traces, break traces, flag."""
    e: frozenset
    br: frozenset
    truncated: bool


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


def _prim_traces(s, space: StateSpace) -> _TR:
    empty = frozenset()
    if isinstance(s, Skip):
        return _TR(frozenset((sig, sig) for sig in space.states()), empty, False)
    if isinstance(s, Assign):
        pairs = rd.prim(s, space).e
        return _TR(frozenset(pairs), empty, False)
    if isinstance(s, RandAssign):
        pairs = rd.prim(s, space).e
        return _TR(frozenset(pairs), empty, False)
    if isinstance(s, BoolTest):
        kept = frozenset((sig,) for sig in space.states()
                         if rd.eval_bexpr(s.cond, space, sig))
        return _TR(kept, empty, False)
    if isinstance(s, Break):
        return _TR(empty, frozenset((sig,) for sig in space.states()), False)
    raise TypeError(s)


def _tr(s, space: StateSpace, cap: int) -> _TR:
    if isinstance(s, (Skip, Assign, RandAssign, BoolTest, Break)):
        return _prim_traces(s, space)
    if isinstance(s, Seq):
        a = _tr(s.first, space, cap)
        b = _tr(s.second, space, cap)
        e, c1 = concat(a.e, b.e, cap)
        br2, c2 = concat(a.e, b.br, cap)
        return _TR(e, a.br | br2, a.truncated or b.truncated or c1 or c2)
    if isinstance(s, If):
        t = _tr(Seq(BoolTest(s.cond), s.then), space, cap)
        f = _tr(Seq(BoolTest(neg(s.cond)), s.orelse), space, cap)
        return _TR(t.e | f.e, t.br | f.br, t.truncated or f.truncated)
    if isinstance(s, While):
        body = _tr(Seq(BoolTest(s.cond), s.body), space, cap)
        init = frozenset((sig,) for sig in space.states())
        cut = body.truncated

        def step(x):
            nonlocal cut
            grown, c = concat(body.e, x, cap)
            cut = cut or c
            return init | grown

        reach = interpreter.lfp(step, frozenset(), le=lambda a, b: a <= b,
                                max_iter=cap + 2).result
        exits = _prim_traces(BoolTest(neg(s.cond)), space).e | body.br
        e, c = concat(reach, exits, cap)
        cut = cut or c
        return _TR(e, frozenset(), cut)
    raise TypeError(s)


def trace_sem(s: lang.Stmt, space: StateSpace, max_len: int) -> TraceSet:
    """Finite-trace semantics up to length `max_len`, plus divergent starts.

    The divergent component is taken from the relational semantics (the
    exact abstraction of the infinite traces).
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    tr = _tr(s, space, max_len)
    div = interpreter.sem(s, space).inf
    return TraceSet(tr.e, div, tr.truncated)


def abstract_to_rel(t: TraceSet):
    """First/last-state abstraction of the finite traces.

    Returns (pairs, div_starts); the divergent starts pass through unchanged.
    """
    pairs = frozenset((p[0], p[-1]) for p in t.finite)
    return pairs, t.div_starts


def format_trace(p, space: StateSpace) -> str:
    return ";".join(",".join("%s:%d" % (v, s[i]) for i, v in enumerate(space.vars))
                    for s in p)


def dump_traces(t: TraceSet, space: StateSpace) -> str:
    """One trace per line, states as var:val groups separated by `;`."""
    return "\n".join(sorted(format_trace(p, space) for p in t.finite))
