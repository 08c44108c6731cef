"""Reference computations the benchmark checks the lab's outputs against.

Nothing here imports `hyperlab`: every expected value is computed apart from
the program under test.

* Programs are built as small tuple trees (see `source`), printed as `hl`
  source text, and run by `run_program`, a direct explicit-state simulation
  (nondeterministic choice is explored exhaustively, divergence is a reachable
  cycle of loop-head states or a divergent body).
* Closed forms for the generated loop families (`reset_nest_expected`,
  `count_loop_expected`) generalize the S1-S4 closed forms of the selftest
  corpus.
* `ni`, `gni`, `gd` are the hyperproperty definitions evaluated by grouping
  runs, not by the cubic pair/triple search.
* `Order` holds a finite order as down/up sets of frozensets, and the
  `op_*` functions give each abstraction operator by its order-theoretic
  definition.
* `reference_work` is the fixed pure-Python computation that times are
  scaled against.
"""

from __future__ import annotations

from itertools import product

# ---------------------------------------------------------------------------
# Programs and state spaces
#
# Expressions: ("c", n) | ("v", name) | ("+", a, b) | ("-", a, b)
# Conditions:  (op, a, b) with op in == != < <= > >=
# Statements:  ("skip",) | ("set", x, expr) | ("rand", x, lo, hi)
#              ("seq", s1, s2, ...) | ("if", cond, s1, s2) | ("while", cond, s)
# Random-assignment bounds may be None for -oo / oo.

_CMP = {"==": lambda a, b: a == b, "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}


def space(vars, lo, hi) -> dict:
    """A state-space config as `hl` reads it (per-variable bound lists)."""
    n = len(vars)
    lo = list(lo) if isinstance(lo, (list, tuple)) else [lo] * n
    hi = list(hi) if isinstance(hi, (list, tuple)) else [hi] * n
    return {"vars": list(vars), "lo": lo, "hi": hi, "arith": "saturate"}


def states(sp: dict) -> list:
    return list(product(*[range(l, h + 1) for l, h in zip(sp["lo"], sp["hi"])]))


def _expr_src(e) -> str:
    if e[0] == "c":
        return str(e[1]) if e[1] >= 0 else "(0 - %d)" % -e[1]
    if e[0] == "v":
        return e[1]
    return "(%s %s %s)" % (_expr_src(e[1]), e[0], _expr_src(e[2]))


def _cond_src(c) -> str:
    return "%s %s %s" % (_expr_src(c[1]), c[0], _expr_src(c[2]))


def _bound_src(b, inf) -> str:
    return inf if b is None else str(b)


def source(s) -> str:
    """`hl` source text of a statement tree."""
    k = s[0]
    if k == "skip":
        return "skip;"
    if k == "set":
        return "%s = %s;" % (s[1], _expr_src(s[2]))
    if k == "rand":
        return "%s = [%s, %s];" % (s[1], _bound_src(s[2], "-oo"),
                                   _bound_src(s[3], "oo"))
    if k == "seq":
        return "{ %s }" % " ".join(source(x) for x in s[1:])
    if k == "if":
        return "if (%s) %s else %s" % (_cond_src(s[1]), source(s[2]),
                                       source(s[3]))
    if k == "while":
        return "while (%s) %s" % (_cond_src(s[1]), source(s[2]))
    raise ValueError(s)


def eval_expr(e, sp: dict, st: tuple) -> int:
    if e[0] == "c":
        return e[1]
    if e[0] == "v":
        return st[sp["vars"].index(e[1])]
    a, b = eval_expr(e[1], sp, st), eval_expr(e[2], sp, st)
    return a + b if e[0] == "+" else a - b


def eval_cond(c, sp: dict, st: tuple) -> bool:
    return _CMP[c[0]](eval_expr(c[1], sp, st), eval_expr(c[2], sp, st))


class _Runner:
    """Outcomes of a statement from one state: (final states, may diverge)."""

    def __init__(self, sp: dict):
        self.sp = sp
        self.memo = {}

    def run(self, s, st):
        key = (id(s), st)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._run(s, st)
        return hit

    def _set(self, st, name, v):
        i = self.sp["vars"].index(name)
        v = min(max(v, self.sp["lo"][i]), self.sp["hi"][i])  # saturate
        return st[:i] + (v,) + st[i + 1:]

    def _run(self, s, st):
        k = s[0]
        if k == "skip":
            return frozenset((st,)), False
        if k == "set":
            return frozenset((self._set(st, s[1], eval_expr(s[2], self.sp, st)),)), False
        if k == "rand":
            i = self.sp["vars"].index(s[1])
            lo = self.sp["lo"][i] if s[2] is None else max(s[2], self.sp["lo"][i])
            hi = self.sp["hi"][i] if s[3] is None else min(s[3], self.sp["hi"][i])
            return frozenset(st[:i] + (v,) + st[i + 1:]
                             for v in range(lo, hi + 1)), False
        if k == "seq":
            cur, div = {st}, False
            for part in s[1:]:
                nxt = set()
                for x in cur:
                    fs, d = self.run(part, x)
                    nxt |= fs
                    div = div or d
                cur = nxt
            return frozenset(cur), div
        if k == "if":
            return self.run(s[2] if eval_cond(s[1], self.sp, st) else s[3], st)
        if k == "while":
            return self._run_while(s, st)
        raise ValueError(s)

    def _run_while(self, s, st):
        cond, body = s[1], s[2]
        succ = {}
        finals = set()
        div = False
        stack = [st]
        succ[st] = None
        while stack:
            h = stack.pop()
            if not eval_cond(cond, self.sp, h):
                finals.add(h)
                succ[h] = ()
                continue
            fs, d = self.run(body, h)
            div = div or d
            succ[h] = fs
            for f in fs:
                if f not in succ:
                    succ[f] = None
                    stack.append(f)
        if not div:
            # a reachable cycle of loop-head states is an infinite run
            indeg = dict.fromkeys(succ, 0)
            for h, fs in succ.items():
                for f in fs:
                    indeg[f] += 1
            ready = [h for h, n in indeg.items() if n == 0]
            done = 0
            while ready:
                h = ready.pop()
                done += 1
                for f in succ[h]:
                    indeg[f] -= 1
                    if indeg[f] == 0:
                        ready.append(f)
            div = done < len(succ)
        return frozenset(finals), div


def run_program(s, sp: dict):
    """Direct simulation from every state: (e pairs, divergent starts)."""
    r = _Runner(sp)
    e, inf = set(), set()
    for st in states(sp):
        fs, d = r.run(s, st)
        e.update((st, f) for f in fs)
        if d:
            inf.add(st)
    return frozenset(e), frozenset(inf)


# ---------------------------------------------------------------------------
# Closed forms

def reset_nest(depth: int, prefix: bool, companion: str, zb=(0, 0)):
    """The S3/S4 family generalized to `depth` >= 2 counters x1..xk.

    while (x1 != 0) { x2 = [-oo,oo]; while (x2 != 0) { ... } [z-step] x1 = x1 - 1; }
    with an optional S4 prefix `x1 = [-oo,oo];` and a companion z updated once
    per outer iteration: "rand" (z = [a,b]), "inc" (z = z + 1) or "" (z,
    if the space has it, is left alone).
    """
    def loop(k):
        x = "x%d" % k
        dec = ("set", x, ("-", ("v", x), ("c", 1)))
        if k == depth:
            return ("while", ("!=", ("v", x), ("c", 0)), dec)
        inner = ("seq", ("rand", "x%d" % (k + 1), None, None), loop(k + 1))
        parts = [inner]
        if k == 1 and companion == "rand":
            parts.append(("rand", "z", zb[0], zb[1]))
        elif k == 1 and companion == "inc":
            parts.append(("set", "z", ("+", ("v", "z"), ("c", 1))))
        parts.append(dec)
        return ("while", ("!=", ("v", x), ("c", 0)), ("seq",) + tuple(parts))
    body = loop(1)
    if prefix:
        return ("seq", ("rand", "x1", None, None), body)
    return body


def reset_nest_expected(depth: int, prefix: bool, companion: str, zb, sp: dict):
    """Closed form of `reset_nest` over a space whose counters share
    [lo, hi] with lo <= 0 <= hi (z, if present, is the last variable).

    From x1 == 0 nothing runs.  From x1 > 0 a terminating run leaves x1 = x2
    = 0, each deeper counter either untouched or 0 (a counter is only reset
    when the one above it ran, so the zeros form a prefix), and z as the
    companion rule dictates.  Runs diverge from x1 < 0 (x1 saturates at lo)
    and, when lo < 0, from x1 > 0 (a counter can be reset below 0).
    """
    lo, hi = sp["lo"][0], sp["hi"][0]
    has_z = len(sp["vars"]) > depth
    e, inf = set(), set()

    def loop_outcomes(st):
        x1 = st[0]
        if x1 == 0:
            return {st}, False
        if x1 < 0:
            return set(), True
        xs = st[:depth]
        outs = set()
        for m in range(depth - 1):  # x3..x(2+m) zero, the rest untouched
            tail = tuple(0 for _ in range(m)) + xs[2 + m:]
            outs.add((0, 0) + tail)
        if not has_z:
            finals = outs
        else:
            z = st[depth]
            zlo, zhi = sp["lo"][depth], sp["hi"][depth]
            if companion == "rand":
                zs = range(max(zb[0], zlo), min(zb[1], zhi) + 1)
            elif companion == "inc":
                zs = (min(zhi, z + x1),)
            else:
                zs = (z,)
            finals = {o + (v,) for o in outs for v in zs}
        return finals, lo < 0

    for st in states(sp):
        starts = [st]
        if prefix:
            starts = [(v,) + st[1:] for v in range(lo, hi + 1)]
        div = False
        for s0 in starts:
            fs, d = loop_outcomes(s0)
            e.update((st, f) for f in fs)
            div = div or d
        if div:
            inf.add(st)
    return frozenset(e), frozenset(inf)


def count_loop(n: int, companion: str, cb=(0, 0)):
    """while (i < n) { i = i + 1; <companion step on c> }"""
    step = ("set", "i", ("+", ("v", "i"), ("c", 1)))
    if companion == "rand":
        comp = ("rand", "c", cb[0], cb[1])
    else:
        comp = ("set", "c", ("+", ("v", "c"), ("c", 1)))
    return ("while", ("<", ("v", "i"), ("c", n)), ("seq", step, comp))


def count_loop_expected(n: int, companion: str, cb, sp: dict):
    """Closed form of `count_loop` over (i, c) with n <= hi(i): runs below n
    stop at i = n after n - i steps; nothing diverges."""
    clo, chi = sp["lo"][1], sp["hi"][1]
    e = set()
    for (i, c) in states(sp):
        if i >= n:
            e.add(((i, c), (i, c)))
        elif companion == "rand":
            e.update(((i, c), (n, v))
                     for v in range(max(cb[0], clo), min(cb[1], chi) + 1))
        else:
            e.add(((i, c), (n, min(chi, c + n - i))))
    return frozenset(e), frozenset()


# ---------------------------------------------------------------------------
# Triples, posts and hyperproperties

def triple_of_json(d: dict):
    """(e, inf, br) frozensets of state tuples from `hl`'s JSON triple."""
    return (frozenset((tuple(a), tuple(b)) for a, b in d.get("e", [])),
            frozenset(tuple(s) for s in d.get("inf", [])),
            frozenset((tuple(a), tuple(b)) for a, b in d.get("br", [])))


def triple_json(t) -> dict:
    e, inf, br = t
    return {"e": [[list(a), list(b)] for a, b in sorted(e)],
            "inf": [list(s) for s in sorted(inf)],
            "br": [[list(a), list(b)] for a, b in sorted(br)]}


def sort_key(t):
    return tuple(tuple(sorted(c)) for c in t)


def compose_post(sem, p):
    """Strongest post of antecedent p under the denotation sem."""
    s_e, s_inf, s_br = sem
    p_e, p_inf, p_br = p
    by_src = {}
    for a, b in s_e:
        by_src.setdefault(a, []).append(b)
    br_src = {}
    for a, b in s_br:
        br_src.setdefault(a, []).append(b)
    e = frozenset((a, c) for a, b in p_e for c in by_src.get(b, ()))
    inf = p_inf | frozenset(a for a, b in p_e if b in s_inf)
    br = p_br | frozenset((a, c) for a, b in p_e for c in br_src.get(b, ()))
    return e, inf, br


def ni(runs, li: int) -> bool:
    """Noninterference: low-equal starts give low-equal ends."""
    ends = {}
    for s, t in runs:
        ends.setdefault(s[li], set()).add(t[li])
    return all(len(v) == 1 for v in ends.values())


def _gni_table(runs, li, hi):
    highs, outs, ends = {}, {}, {}
    for s, t in runs:
        highs.setdefault(s[li], set()).add(s[hi])
        outs.setdefault(s[li], set()).add(t[li])
        ends.setdefault((s[li], s[hi]), set()).add(t[li])
    return highs, outs, ends


def gni(runs, li: int, hi: int) -> bool:
    """Generalized noninterference: for every low value, every low output
    seen is also reachable from every high input seen with that low value."""
    highs, outs, ends = _gni_table(runs, li, hi)
    return all(outs[lv] <= ends[(lv, h)] for lv in highs for h in highs[lv])


def gd(runs, li: int, hi: int) -> bool:
    """Generalized dependency: some low-equal pair of runs (s1,e1), (s2,e2)
    has no run from (low of s1, high of s2) ending with e1's low value."""
    highs, outs, ends = _gni_table(runs, li, hi)
    return any(o not in ends[(lv, h)]
               for lv in highs for h in highs[lv] for o in outs[lv])


def weak_iterates(p_e, if_e):
    """X^0 = P, X^{n+1} = X^n ; if_e, up to the first repeated iterate."""
    by_src = {}
    for a, b in if_e:
        by_src.setdefault(a, []).append(b)
    out = [frozenset(p_e)]
    seen = {out[0]}
    while True:
        nxt = frozenset((a, c) for a, b in out[-1] for c in by_src.get(b, ()))
        if nxt in seen:
            return out
        out.append(nxt)
        seen.add(nxt)


# ---------------------------------------------------------------------------
# Orders and abstraction operators by definition

class Order:
    """A finite order as explicit down/up sets of frozensets."""

    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        self.down = {x: frozenset(y for y in self.elements if leq(y, x))
                     for x in self.elements}
        self.up = {x: frozenset(y for y in self.elements if leq(x, y))
                   for x in self.elements}

    def leq(self, a, b) -> bool:
        return a in self.down[b]

    def lub(self, xs):
        ubs = [u for u in self.elements if all(self.leq(x, u) for x in xs)]
        least = [u for u in ubs if all(self.leq(u, v) for v in ubs)]
        return least[0]

    def glb(self, xs):
        lbs = [u for u in self.elements if all(self.leq(u, x) for x in xs)]
        greatest = [u for u in lbs if all(self.leq(v, u) for v in lbs)]
        return greatest[0]


def op_order_ideal(o, X):
    return frozenset(y for y in o.elements if any(o.leq(y, x) for x in X))


def op_order_filter(o, X):
    return frozenset(y for y in o.elements if any(o.leq(x, y) for x in X))


def op_principal_ideal(o, X):
    return o.down[o.lub(X)]


def op_principal_filter(o, X):
    return o.up[o.glb(X)]


def op_min(o, X):
    return frozenset(x for x in X if not any(y != x and o.leq(y, x) for y in X))


def op_max(o, X):
    return frozenset(x for x in X if not any(y != x and o.leq(x, y) for y in X))


def op_rho(o, X):
    return frozenset(x for x in X if o.down[x] <= X)


def op_phi(o, f, X):
    return frozenset(p for p in X if o.leq(f, p)
                     and all(x in X for x in o.elements
                             if o.leq(f, x) and o.leq(x, p)))


def op_rho_frontier(o, X):
    out = frozenset()
    for f in op_min(o, X):
        out |= op_phi(o, f, X)
    return out


def op_chain(families, X, direction):
    """X plus the limit of every declared `direction` chain inside X."""
    return frozenset(X) | frozenset(
        f["limit"] for f in families
        if f["direction"] == direction and set(f["elements"]) <= X)


def op_star(step, X):
    while True:
        Y = X | step(X)
        if Y == X:
            return X
        X = Y


def op_presented(o, families, X, included, direction):
    """Frontier of a presented subset: members of the included parametric
    families are in the set, never on its frontier."""
    elems, blocked = set(X), set()
    for f in families:
        if f["family"] in included:
            elems.update(f["elements"])
            blocked.update(e for e in f["elements"] if e != f["limit"])
    out = set()
    for p in elems - blocked:
        if direction == "up":
            dominated = any(p != q and o.leq(p, q) for q in elems)
        else:
            dominated = any(p != q and o.leq(q, p) for q in elems)
        if not dominated:
            out.add(p)
    return frozenset(out)


# ---------------------------------------------------------------------------
# The scaling reference

def reference_input(n: int = 48):
    """A fixed relation over 0..n-1 (same for every run and seed)."""
    return [(a, (a * 7 + k * 13) % n) for a in range(n) for k in range(3)]


def reference_work(rel, rounds: int) -> int:
    """Fixed dict/tuple/set work shaped like the lab's relational layer:
    `rounds` compositions of a relation with itself, grouped by source."""
    acc = frozenset(rel)
    total = 0
    for _ in range(rounds):
        by_src = {}
        for a, b in rel:
            by_src.setdefault(a, []).append(b)
        acc = frozenset((a, c) for a, b in acc for c in by_src.get(b, ()))
        acc = frozenset(sorted(acc)[: len(rel)])
        total += len(acc)
    return total
