"""Finite-trace semantics at bounded length and its relational abstraction.

Traces are nonempty state sequences; `trace_sem` is `interpreter.interpret`
on the trace algebra `traces(space, cap)`.  Skips and assignments
contribute one step (two states: their relational pairs), tests and breaks
act as filters (one state, and break traces simply stop at the break point,
following the relational reading of the break-to constructor).
Concatenation merges the shared middle state.  A trace is a tuple of state
indexes: it hashes cheaply and sorts as its states do (index order is state
order, see `rel_domain`).  Only the writers (`format_trace`, `dump_traces`,
`traces_to_json`) look its states up.  A loop is one call of the semi-naive
`interpreter.lfp`, on traces paired with their truncation flag.

One record, `TraceSet(e, inf, br, truncated)`, is the algebra's value and
`trace_sem`'s result, in `SemTriple`'s order: ending traces, divergent
starts, break traces (a loop consumes its body's; a whole program keeps
those of a free break), then the truncation flag.
Infinite traces are never materialized: inf is the mask of divergent
starts, the exact relational abstraction of the infinite trace set.  The
algebra's values carry none; `trace_sem` reads it from
`interpreter.oracle_sem`: the starts that reach a cycle of configurations.
`abstract_to_rel` maps a record to one `SemTriple`, `ends` of e and br with
inf passed through, which on an untruncated set is `interpreter.sem`.
Traces longer than the cap L are dropped and the result is flagged as
truncated, never silently cut, so commutation checks can skip flagged cases
soundly.  A set past `MAX_TRACES` traces raises `TraceLimitError` (`hl`:
exit 2) mid-build.
"""

from __future__ import annotations

from itertools import compress

from . import interpreter, lang, rel_domain as rd
from .interpreter import Algebra
from .lang import BoolTest, Break
from .rel_domain import StateSpace

MAX_TRACES = 200_000  # the most traces of one set: this bounds the memory


class TraceLimitError(ValueError):
    def __init__(self, size: int):
        super().__init__("a trace set reached %d traces, more than the limit "
                         "of %d" % (size, MAX_TRACES))


class TraceSet(lang.Record):
    __slots__ = ("e", "inf", "br", "truncated")

    def __init__(self, e: frozenset, inf: int, br: frozenset,
                 truncated: bool):
        _set_e(self, e)                  # ending traces (index tuples)
        _set_inf(self, inf)              # mask of the diverging starts
        _set_br(self, br)                # traces stopped at a break
        _set_truncated(self, truncated)  # a trace exceeded the cap


_set_e, _set_inf, _set_br, _set_truncated = lang.slot_setters(TraceSet)


def concat(t1, t2, cap: int):
    """Trace concatenation T1 ; T2 with shared middle state, capped at `cap`.

    Returns (traces, truncated_flag).
    """
    if not t1 or not t2:
        return frozenset(), False
    tails: dict = {}
    for q in t2:
        tails.setdefault(q[0], []).append(q[1:])
    out = set()
    cut = False
    for p in t1:
        for q in tails.get(p[-1], ()):
            r = p + q
            if len(r) > cap:
                cut = True
            else:
                out.add(r)
        if len(out) > MAX_TRACES:
            raise TraceLimitError(len(out))
    return frozenset(out), cut


def traces(space: StateSpace, cap: int) -> Algebra:
    """Traces of length at most `cap`, as tuples of state indexes; a loop is
    every finite iteration of its guarded body, then its exit or a break."""
    states = space.states()
    indexes = range(len(states))
    units = tuple((i,) for i in indexes)
    singles, empty = frozenset(units), frozenset()

    def prim(s):
        if s.__class__ is BoolTest:
            test = rd.compile_expr(s.cond, space)
            return TraceSet(frozenset(compress(units, map(test, states))), 0,
                            empty, False)
        if s.__class__ is Break:
            return TraceSet(empty, 0, singles, False)
        rows = rd.prim(s, space).e
        n = sum(map(int.bit_count, rows))
        if n > MAX_TRACES:
            raise TraceLimitError(n)
        return TraceSet(frozenset(rd.labeled_pairs(rows, indexes)), 0, empty,
                        False)

    def seq(a, b):
        e, c1 = concat(a.e, b.e, cap)
        br2, c2 = concat(a.e, b.br, cap)
        return TraceSet(e, 0, a.br | br2,
                        a.truncated or b.truncated or c1 or c2)

    def loop(body, exit):
        # concat distributes over union in its second argument
        def grow(x, d):
            reach = x[0] | d
            if len(reach) > MAX_TRACES:
                raise TraceLimitError(len(reach))
            grown, c = concat(body.e, d, cap)
            return (reach, x[1] or c), grown - reach

        reach, cut = interpreter.lfp(grow, (empty, body.truncated), singles,
                                     max_iter=cap + 2).result
        e, c = concat(reach, exit.e | body.br, cap)
        return TraceSet(e, 0, empty, cut or exit.truncated or c)

    return Algebra(prim, seq,
                   lambda a, b: TraceSet(a.e | b.e, 0, a.br | b.br,
                                         a.truncated or b.truncated),
                   loop)


def trace_sem(s: lang.Stmt, space: StateSpace, max_len: int) -> TraceSet:
    """Finite-trace semantics up to length `max_len`, with the divergent
    starts of `oracle_sem` as its inf."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    t = interpreter.interpret(s, traces(space, max_len))
    return TraceSet(t.e, interpreter.oracle_sem(s, space).inf, t.br,
                    t.truncated)


def ends(traces, space: StateSpace) -> rd.Rel:
    """The first/last-state abstraction: the relation of the traces' ends."""
    return rd.index_rel(((p[0], p[-1]) for p in traces), space)


def abstract_to_rel(t: TraceSet, space: StateSpace) -> rd.SemTriple:
    """The first/last-state abstraction: `ends` of e and of br, with the
    divergent starts passed through."""
    return rd.SemTriple(ends(t.e, space), t.inf, ends(t.br, space))


def format_trace(p, space: StateSpace) -> str:
    states = space.states()
    return ";".join(",".join("%s:%d" % vs for vs in zip(space.vars, states[i]))
                    for i in p)


def dump_traces(t: TraceSet, space: StateSpace) -> str:
    """One trace per line, states as var:val groups separated by `;`, the
    lines in string order; then the divergent starts, if any, ascending."""
    text = "\n".join(sorted(format_trace(p, space) for p in t.e))
    if t.inf:
        text += "\ndivergent starts: " + " ".join(
            format_trace((i,), space) for i in rd.bits(t.inf))
    return text


def traces_to_json(t: TraceSet, space: StateSpace) -> dict:
    """Traces and divergent starts as value arrays, ascending, and the
    truncation flag."""
    states = space.states()
    return {"traces": [[list(states[i]) for i in p] for p in sorted(t.e)],
            "div_starts": [list(states[i]) for i in rd.bits(t.inf)],
            "truncated": t.truncated}
