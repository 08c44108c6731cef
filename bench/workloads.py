"""The four seeded workloads: their inputs, operations and output checks.

`build(name, seed, workdir)` returns one round: the list of operations the
benchmark runs in order.  Inputs are generated from the seed alone and
written under `workdir`; the lab receives only those files (or, for
`lattice-laws`, the generated configurations).  Every operation carries the
check of its own output; a check returns None when the output is right and a
short message otherwise.  Expected values come from `refs`, never from the
lab, and are computed on first use, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from itertools import combinations

import refs

NAMES = ("denote-deep", "denote-wide", "hyper-check", "lattice-laws")


class CliOp:
    """One `hl` invocation through `hyperlab.cli.main`, stdout captured."""

    def __init__(self, label, argv, check, want_code=None):
        self.label = label
        self.argv = argv
        self._check = check
        self.want_code = want_code  # None: 0; a callable: from the output

    def run(self, hl):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hl.cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def failed(self, result):
        code = result[0]
        return code not in (0, 1) or (code == 1 and self.want_code is None)

    def check(self, result):
        code, out, _err = result
        try:
            payload = json.loads(out)
        except ValueError:
            return "%s: output is not JSON" % self.label
        want = 0 if self.want_code is None else self.want_code(payload)
        if code != want:
            return "%s: exit %s, expected %s" % (self.label, code, want)
        msg = self._check(payload)
        return None if msg is None else "%s: %s" % (self.label, msg)

    def digest(self, result):
        return result[1]


class _Files:
    def __init__(self, workdir):
        self.dir = workdir
        self.n = 0

    def write(self, stem, payload) -> str:
        self.n += 1
        path = os.path.join(self.dir, "%03d-%s" % (self.n, stem))
        with open(path, "w", encoding="utf-8") as fh:
            if isinstance(payload, str):
                fh.write(payload)
            else:
                json.dump(payload, fh)
        return path


def _lazy(fn):
    """Compute an expected value once, on first check."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


# ---------------------------------------------------------------------------
# denote-deep and denote-wide

def _sem_op(files, label, prog, sp, expected):
    p = files.write("prog.hl", refs.source(prog))
    s = files.write("space.json", sp)
    want = _lazy(expected)

    def check(payload):
        if payload.get("oracle_agrees") is not True:
            return "oracle disagrees"
        got = refs.triple_of_json(payload["triple"])
        e, inf = want()
        if got != (e, inf, frozenset()):
            return "triple differs from the reference"
        return None
    return CliOp(label, ["sem", "--program", p, "--space", s, "--json"], check)


def _trace_op(files, label, prog, sp, L, expected):
    p = files.write("prog.hl", refs.source(prog))
    s = files.write("space.json", sp)
    want = _lazy(expected)

    def check(payload):
        e, inf = want()
        pairs = frozenset((tuple(t[0]), tuple(t[-1])) for t in payload["traces"])
        div = frozenset(tuple(x) for x in payload["div_starts"])
        if div != inf:
            return "divergent starts differ from the reference"
        if payload["truncated"]:
            return None if pairs <= e else "a trace abstracts outside e"
        return None if pairs == e else "traces do not abstract to e"
    return CliOp(label, ["trace", "--program", p, "--space", s,
                         "--L", str(L), "--json"], check)


def _companion(rng, nv):
    """A random deterministic step on the companion w in [0, 1]."""
    w = ("v", "w")
    return rng.choice((
        ("set", "w", ("-", ("c", 1), w)),
        ("set", "w", ("v", "x%d" % rng.randint(1, nv))),
        ("set", "w", ("+", w, ("c", 1))),
        ("set", "w", ("-", w, ("c", 1)))))


def _nest(rng, depth, nv):
    """Countdown nest of `depth` loops over nv counters (level k counts
    x(k mod nv + 1) down while it is positive), with a random companion step
    at a random place in every body.  The loop structure is fixed by depth
    and nv, so the seed moves the cost of an operation little."""
    def level(k):
        x = "x%d" % (k % nv + 1)
        dec = ("set", x, ("-", ("v", x), ("c", 1)))
        parts = [dec] if k == depth - 1 else [level(k + 1), dec]
        parts.insert(rng.randint(0, len(parts)), _companion(rng, nv))
        return ("while", (">", ("v", x), ("c", 0)), ("seq",) + tuple(parts))
    return level(0)


def _xs(n):
    return ["x%d" % (k + 1) for k in range(n)]


# (depth, counters, lo, programs) of the nests; counters range over [lo, 1],
# w over [0, 1].  The costliest class has about a fifth of the operations, so
# the 90th percentile falls inside it rather than in the gap below it.
_DEEP = ((3, 2, -1, 2), (3, 2, 0, 2), (4, 2, -1, 2), (4, 2, 0, 2),
         (5, 3, 0, 3), (5, 2, -1, 3), (6, 2, 0, 3), (6, 2, -1, 8))


def denote_deep(seed, files):
    """Loop nests of depth 3-6 and counting loops, each with a randomised
    companion variable; `hl sem` for every program, `hl trace` for a
    minority."""
    rng = random.Random("denote-deep:%d" % seed)
    ops = []
    for depth, nv, lo, programs in _DEEP:
        for rep in range(programs):
            prog = _nest(rng, depth, nv)
            sp = refs.space(_xs(nv) + ["w"], [lo] * nv + [0], 1)
            want = lambda p=prog, s=sp: refs.run_program(p, s)  # noqa: E731
            label = "nest d%d v%d lo%d" % (depth, nv, lo)
            ops.append(_sem_op(files, "sem " + label, prog, sp, want))
            if rep < 2:
                ops.append(_trace_op(files, "trace " + label, prog, sp, 64, want))
    for n in (6, 10):
        for comp in ("rand", "inc"):
            a = rng.randint(0, 1)
            cb = (a, a + rng.randint(1, 2))
            sp = refs.space(["i", "c"], [0, 0], [n + rng.randint(1, 3), 3])
            prog = refs.count_loop(n, comp, cb)
            want = (lambda n=n, comp=comp, cb=cb, sp=sp:
                    refs.count_loop_expected(n, comp, cb, sp))
            label = "count n%d %s" % (n, comp)
            ops.append(_sem_op(files, "sem " + label, prog, sp, want))
            if comp == "inc" and n == 10:  # with a random companion the traces multiply
                ops.append(_trace_op(files, "trace " + label, prog, sp,
                                     3 * n + 4, want))
    rng.shuffle(ops)
    return ops


# space shapes for denote-wide: (lo, hi) of the counters, hi of z; 27-64 states
_WIDE_S3 = ((-1, 2, 2), (-2, 1, 2), (0, 3, 2), (-1, 1, 3))
_WIDE_S4 = ((-1, 1, 2), (-1, 1, 3), (0, 2, 2), (-2, 0, 2))


def denote_wide(seed, files):
    """S3/S4-shaped nests with random assignment over three variables on
    the widest spaces the oracle handles in tenths of a second."""
    rng = random.Random("denote-wide:%d" % seed)
    ops = []
    for rep in range(2):
        for prefix, shapes in ((False, _WIDE_S3), (True, _WIDE_S4)):
            for lo, hi, zhi in shapes:
                for comp in ("", "rand", "inc"):
                    a = rng.randint(0, zhi - 1)
                    zb = (a, rng.randint(a, zhi))
                    sp = refs.space(["x1", "x2", "z"], [lo, lo, 0], [hi, hi, zhi])
                    prog = refs.reset_nest(2, prefix, comp, zb)
                    label = "sem %s [%d,%d]z%d %s" % (
                        "S4" if prefix else "S3", lo, hi, zhi, comp or "keep")
                    ops.append(_sem_op(
                        files, label, prog, sp,
                        lambda p=prefix, c=comp, zb=zb, sp=sp:
                        refs.reset_nest_expected(2, p, c, zb, sp)))
        for (lo, hi), prefix in (((-1, 1), rep == 0), ((0, 2), rep == 1)):
            sp = refs.space(_xs(3), lo, hi)
            prog = refs.reset_nest(3, prefix, "")
            ops.append(_sem_op(
                files, "sem nest3 [%d,%d]" % (lo, hi), prog, sp,
                lambda p=prefix, sp=sp: refs.reset_nest_expected(3, p, "", (0, 0), sp)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# hyper-check

def _v(x):
    return ("v", x)


def _c(n):
    return ("c", n)


def _hyper_programs(rng, has_t):
    """Small programs over l, h (and t), with random constants."""
    c = rng.randint(0, 1)
    a = rng.randint(0, 1)
    straight = [
        ("set", "l", _v("h")),
        ("set", "l", ("+", _v("l"), _c(rng.randint(1, 2)))),
        ("if", (">", _v("h"), _c(c)), ("set", "l", _c(1)), ("set", "l", _c(0))),
    ]
    loops = [
        ("while", (">", _v("h"), _c(0)),
         ("seq", ("set", "h", ("-", _v("h"), _c(1))),
          ("set", "l", ("+", _v("l"), _c(1))))),
        ("while", ("<", _v("l"), _c(1 + c)), ("set", "l", ("+", _v("l"), _c(1)))),
        ("while", ("!=", _v("h"), _c(c)), ("set", "h", ("+", _v("h"), _c(1)))),
    ]
    if has_t:
        straight.append(("seq", ("rand", "t", a, a + 1), ("set", "l", _v("t"))))
        loops.append(("while", ("!=", _v("t"), _c(0)),
                      ("seq", ("set", "t", ("-", _v("t"), _c(1))),
                       ("rand", "l", 0, 1 + a))))
        loops.append(("while", (">", _v("t"), _c(0)),
                      ("seq", ("set", "t", ("-", _v("t"), _c(1))),
                       ("if", (">", _v("h"), _c(0)), ("rand", "l", 0, 1),
                        ("set", "l", ("+", _v("l"), _c(1)))))))
    return straight, loops


def _antecedents(rng, sp, li, n_random):
    """Low-equivalence classes (identity on each low value) plus random
    triples with a few divergent starts."""
    sts = refs.states(sp)
    out = set()
    for lv in range(sp["lo"][li], sp["hi"][li] + 1):
        out.add((frozenset((s, s) for s in sts if s[li] == lv),
                 frozenset(), frozenset()))
    n_classes = len(out)
    while len(out) < n_classes + n_random:
        e = frozenset((rng.choice(sts), rng.choice(sts))
                      for _ in range(rng.randint(len(sts) // 4, len(sts) // 2)))
        inf = frozenset(rng.sample(sts, rng.randint(0, 2)))
        out.add((e, inf, frozenset()))
    return sorted(out, key=refs.sort_key)


def _random_triple(rng, sts):
    e = frozenset((rng.choice(sts), rng.choice(sts)) for _ in range(3))
    return e, frozenset(), frozenset()


class _HyperCase:
    """One program with its antecedents and the reference posts."""

    def __init__(self, prog, sp, pre):
        self.prog, self.sp, self.pre = prog, sp, pre
        self.li = sp["vars"].index("l")
        self.hi = sp["vars"].index("h")
        self.sem = refs.run_program(prog, sp) + (frozenset(),)
        self.posts = [refs.compose_post(self.sem, p) for p in pre]
        self.weak_exits = _lazy(self._weak_exits)

    def member(self, kind):
        if kind == "NI":
            return lambda t: refs.ni(t[0], self.li)
        if kind == "GNI":
            return lambda t: refs.gni(t[0], self.li, self.hi)
        if kind == "GD":
            return lambda t: refs.gd(t[0], self.li, self.hi)
        qs = frozenset(kind)
        return lambda t: t in qs

    def _weak_exits(self):
        """Exit relations of the weak hypercollecting iterates, per rule
        forall_exists with the synthesized invariant."""
        cond, body = self.prog[1], self.prog[2]
        if_e = refs.run_program(("if", cond, body, ("skip",)), self.sp)[0]
        done = {s for s in refs.states(self.sp)
                if not refs.eval_cond(cond, self.sp, s)}
        rels = set()
        for p in {p[0] for p in self.pre}:
            rels.update(refs.weak_iterates(p, if_e))
        return sorted({frozenset((a, b) for a, b in x if b in done) for x in rels},
                      key=sorted)


def _report_check(case, rule, kind):
    """Check function for an `hl check` report."""
    def upper(payload):
        member = case.member(kind)
        viol = [(p, q) for p, q in zip(case.pre, case.posts) if not member(q)]
        got = [(refs.triple_of_json(w["pre"]), refs.triple_of_json(w["post"]))
               for w in payload["witnesses"]]
        if sorted(got, key=lambda w: refs.sort_key(w[0])) != viol:
            return "witnesses differ from the reference"
        if kind in ("GNI", "GD"):
            if any(refs.gni(q[0], case.li, case.hi) ==
                   refs.gd(q[0], case.li, case.hi) for q in case.posts):
                return "GNI and GD agree on an element"
        return None if payload["verdict"] == ("fails" if viol else "holds") \
            else "verdict differs from the reference"

    def lower(payload):
        images = set(case.posts)
        missing = sorted((q for q in kind if q not in images), key=refs.sort_key)
        got = [refs.triple_of_json(w["pre"]) for w in payload["witnesses"]]
        if got != missing:
            return "unmatched consequents differ from the reference"
        return None if payload["verdict"] == ("fails" if missing else "holds") \
            else "verdict differs from the reference"

    def forall_exists(payload):
        member = case.member(kind)
        if isinstance(kind, str):
            ok = all(member((x, frozenset(), frozenset())) for x in case.weak_exits())
        else:
            rels = {q[0] for q in kind}
            ok = all(x in rels for x in case.weak_exits())
        prem = {p["name"]: p["ok"] for p in payload["premises"]}
        if prem.get("invariant exits in consequent") is not ok:
            return "exit premise differs from the reference"
        return None if payload["verdict"] == ("holds" if ok else "fails") \
            else "verdict differs from the reference"

    fn = {"upper": upper, "lower": lower, "while_upper": upper,
          "while_lower": lower, "forall_exists": forall_exists}[rule]

    def check(payload):
        if payload["rule"] != rule:
            return "wrong rule in report"
        if rule.startswith("while_") and not all(
                p["ok"] for p in payload["premises"] if p["name"] == "agreement"):
            return "rule disagrees with the direct check"
        return fn(payload)
    return check


def _verdict_code(payload):
    return 0 if payload["verdict"] == "holds" else 1


def hyper_check(seed, files):
    """`hl check` over NI/GNI/GD and explicit consequents, `hl post` and
    `hl hyper-post`, on spaces of 9 to 32 states."""
    rng = random.Random("hyper-check:%d" % seed)
    ops = []
    spaces = (refs.space(["l", "h"], 0, 2),
              refs.space(["l", "h", "t"], 0, 2),
              refs.space(["l", "h", "t"], [0, 0, 0], [3, 3, 1]))
    for sp in spaces * 2:
        has_t = "t" in sp["vars"]
        straight, loops = _hyper_programs(rng, has_t)
        for prog in straight + loops:
            sts = refs.states(sp)
            pre = _antecedents(rng, sp, 0, 3)
            case = _HyperCase(prog, sp, pre)
            p = files.write("prog.hl", refs.source(prog))
            s = files.write("space.json", sp)
            pre_f = files.write("pre.json", [refs.triple_json(t) for t in pre])
            base = ["--program", p, "--space", s]
            name = refs.source(prog)[:40]

            # explicit consequents: every post (holds) or all but one (fails)
            posts = sorted(set(case.posts), key=refs.sort_key)
            upper_q = set(posts) | {_random_triple(rng, sts)}
            if rng.random() < 0.5 and len(posts) > 1:
                upper_q.discard(rng.choice(posts))
            lower_q = set(rng.sample(posts, max(1, len(posts) // 2)))
            if rng.random() < 0.5:
                lower_q.add(_random_triple(rng, sts))
            upper_f = files.write("q.json", [refs.triple_json(t)
                                             for t in sorted(upper_q, key=refs.sort_key)])
            lower_f = files.write("q.json", [refs.triple_json(t)
                                             for t in sorted(lower_q, key=refs.sort_key)])
            rules = [("upper", "NI"), ("upper", "GNI"), ("upper", "GD"),
                     ("upper", upper_f), ("lower", lower_f)]
            if prog[0] == "while":
                exits = case.weak_exits()
                keep = list(exits)
                if rng.random() < 0.5 and len(keep) > 1:
                    keep.remove(rng.choice(keep))
                fe_q = frozenset((x, frozenset(), frozenset()) for x in keep)
                fe_f = files.write("q.json", [refs.triple_json(t)
                                              for t in sorted(fe_q, key=refs.sort_key)])
                rules += [("while_upper", "NI"), ("while_upper", "GNI"),
                          ("while_upper", upper_f), ("while_lower", lower_f),
                          ("forall_exists", "NI"), ("forall_exists", "GD"),
                          ("forall_exists", fe_f)]
            consequents = {upper_f: frozenset(upper_q), lower_f: frozenset(lower_q)}
            if prog[0] == "while":
                consequents[fe_f] = fe_q
            for rule, q in rules:
                kind = consequents.get(q, q)
                ops.append(CliOp(
                    "check %s %s: %s" % (rule, q if q in ("NI", "GNI", "GD")
                                         else "explicit", name),
                    ["check"] + base + ["--pre", pre_f, "--rule", rule,
                                        "--post-oracle", q, "--json"],
                    _report_check(case, rule, kind), _verdict_code))

            def post_check(payload, case=case):
                got = [refs.triple_of_json(t) for t in payload["post"]]
                return None if got == case.posts else "posts differ from the reference"

            def hyper_post_check(payload, case=case):
                got = {refs.triple_of_json(t) for t in payload["Post"]}
                return None if got == set(case.posts) else \
                    "hyper-post differs from the posts"
            ops.append(CliOp("post: " + name, ["post"] + base + ["--pre", pre_f, "--json"],
                             post_check))
            ops.append(CliOp("hyper-post: " + name,
                             ["hyper-post"] + base + ["--pre", pre_f, "--json"],
                             hyper_post_check))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# lattice-laws

def _closure(elements, covers):
    """Reflexive-transitive closure of the cover pairs, as an Order."""
    above = {x: {x} for x in elements}
    for a, b in covers:
        above[a].add(b)
    changed = True
    while changed:
        changed = False
        for x in elements:
            new = set().union(*(above[y] for y in above[x]))
            if new != above[x]:
                above[x] = new
                changed = True
    return refs.Order(elements, lambda a, b: b in above[a])


def _powerset_lattice(n):
    els = ["s%d" % m for m in range(1 << n)]
    covers = [("s%d" % m, "s%d" % (m | 1 << b))
              for m in range(1 << n) for b in range(n) if not m & 1 << b]
    return els, covers


def _grid_lattice(m, n):
    els = ["g%d_%d" % (i, j) for i in range(m) for j in range(n)]
    covers = [("g%d_%d" % (i, j), "g%d_%d" % (i + 1, j))
              for i in range(m - 1) for j in range(n)]
    covers += [("g%d_%d" % (i, j), "g%d_%d" % (i, j + 1))
               for i in range(m) for j in range(n - 1)]
    return els, covers


def _chain_lattice(n):
    els = ["c%d" % i for i in range(n)]
    return els, [(els[i], els[i + 1]) for i in range(n - 1)]


_M3 = (["bot", "a", "b", "c", "top"],
       [("bot", "a"), ("bot", "b"), ("bot", "c"), ("a", "top"), ("b", "top"),
        ("c", "top")])
_N5 = (["bot", "a", "b", "c", "top"],
       [("bot", "a"), ("a", "b"), ("b", "top"), ("bot", "c"), ("c", "top")])


def _times_two(base):
    """Product of a lattice with the two-element chain."""
    els, covers = base
    out = [(x, k) for k in (0, 1) for x in els]
    up = [((a, k), (b, k)) for a, b in covers for k in (0, 1)]
    up += [((x, 0), (x, 1)) for x in els]
    name = "%s.%d".__mod__
    return [name(x) for x in out], [(name(a), name(b)) for a, b in up]


# every carrier has 8-10 elements, so an operator sweep is 256-1024 subsets
_LATTICES = (("powerset3", lambda: _powerset_lattice(3)),
             ("grid3x3", lambda: _grid_lattice(3, 3)),
             ("grid2x5", lambda: _grid_lattice(2, 5)),
             ("chain10", lambda: _chain_lattice(10)),
             ("M3x2", lambda: _times_two(_M3)),
             ("N5x2", lambda: _times_two(_N5)))

IDEAL_KIND = ("order_ideal", "frontier_order_ideal_dual",
              "order_ideal_chain_up_star", "principal_ideal")
FILTER_KIND = ("order_filter", "frontier_order_ideal",
               "order_filter_chain_down_star", "principal_filter")


def _families(rng, order, covers):
    """Per direction, one parametric family (its limit strictly beyond the
    listed members) and one whose limit is its own end, each two steps of a
    random maximal chain."""
    succ = {}
    for a, b in covers:
        succ.setdefault(a, []).append(b)
    bot = next(x for x in order.elements if order.up[x] == frozenset(order.elements))
    path = [bot]
    while path[-1] in succ:
        path.append(rng.choice(sorted(succ[path[-1]])))
    fams = []
    for direction in ("down", "up"):
        for parametric in (True, False):
            if direction == "down":  # members path[i+1], path[i+2], listed downwards
                i = rng.randint(0, len(path) - 3)
                seg = [path[i + 2], path[i + 1]]
                limit = path[i] if parametric else seg[-1]
            else:
                i = rng.randint(0, len(path) - 3)
                seg = [path[i], path[i + 1]]
                limit = path[i + 2] if parametric else seg[-1]
            fams.append({"family": "%s%d" % (direction, len(fams)),
                         "elements": seg, "limit": limit,
                         "direction": direction, "parametric": parametric})
    return fams


def _operator_table(o, fams, rng):
    """name -> (function(ab, cp, lat, X), reference(X), law kind)."""
    els = o.elements
    c = rng.choice(els)
    hmap = {x: o.lub([x, c]) for x in els}
    interest = frozenset(rng.sample(els, len(els) // 2))
    f = rng.choice(els)
    up_inc = [fm["family"] for fm in fams if fm["direction"] == "up" and fm["parametric"]]
    down_inc = [fm["family"] for fm in fams
                if fm["direction"] == "down" and fm["parametric"]]

    def chain_up(X):
        return refs.op_chain(fams, X, "up")

    def chain_down(X):
        return refs.op_chain(fams, X, "down")

    ideal = {
        "order_ideal": lambda X: refs.op_order_ideal(o, X),
        "frontier_order_ideal_dual": lambda X: refs.op_order_ideal(o, refs.op_max(o, X)),
        "order_ideal_chain_up_star": lambda X: refs.op_star(
            lambda Y: refs.op_order_ideal(o, chain_up(Y)), X),
        "principal_ideal": lambda X: refs.op_principal_ideal(o, X),
    }
    filt = {
        "order_filter": lambda X: refs.op_order_filter(o, X),
        "frontier_order_ideal": lambda X: refs.op_order_filter(o, refs.op_min(o, X)),
        "order_filter_chain_down_star": lambda X: refs.op_star(
            lambda Y: refs.op_order_filter(o, chain_down(Y)), X),
        "principal_filter": lambda X: refs.op_principal_filter(o, X),
    }
    t = {
        "homomorphic": (lambda ab, cp, lat, X: ab.homomorphic(hmap.__getitem__, X),
                        lambda X: frozenset(hmap[x] for x in X), "monotone"),
        "eliminate": (lambda ab, cp, lat, X: ab.eliminate(X, interest),
                      lambda X: X & interest, "lower"),
        "principal_ideal": (lambda ab, cp, lat, X: ab.principal_ideal(lat, X),
                            ideal["principal_ideal"], "upper"),
        "principal_filter": (lambda ab, cp, lat, X: ab.principal_filter(lat, X),
                             filt["principal_filter"], "upper"),
        "order_ideal": (lambda ab, cp, lat, X: ab.order_ideal(lat, X),
                        ideal["order_ideal"], "upper"),
        "order_filter": (lambda ab, cp, lat, X: ab.order_filter(lat, X),
                         filt["order_filter"], "upper"),
        "frontier_min": (lambda ab, cp, lat, X: ab.frontier_min(lat, X),
                         lambda X: refs.op_min(o, X), "reductive"),
        "frontier_max": (lambda ab, cp, lat, X: ab.frontier_max(lat, X),
                         lambda X: refs.op_max(o, X), "reductive"),
        "frontier_order_ideal": (lambda ab, cp, lat, X: ab.frontier_order_ideal(lat, X),
                                 filt["frontier_order_ideal"], "upper"),
        "frontier_order_ideal_dual": (
            lambda ab, cp, lat, X: ab.frontier_order_ideal(lat, X, dual=True),
            ideal["frontier_order_ideal_dual"], "upper"),
        "rho_subseteq": (lambda ab, cp, lat, X: ab.rho_subseteq(lat, X),
                         lambda X: refs.op_rho(o, X), "lower"),
        "phi_subseteq": (lambda ab, cp, lat, X: ab.phi_subseteq(lat, f, X),
                         lambda X: refs.op_phi(o, f, X), "lower"),
        "rho_frontier": (lambda ab, cp, lat, X: ab.rho_frontier(lat, X),
                         lambda X: refs.op_rho_frontier(o, X), "reductive"),
        "chain_down": (lambda ab, cp, lat, X: ab.chain_down(cp, X), chain_down,
                       "extensive"),
        "chain_up": (lambda ab, cp, lat, X: ab.chain_up(cp, X), chain_up, "extensive"),
        "chain_down_star": (lambda ab, cp, lat, X: ab.chain_down_star(cp, X),
                            lambda X: refs.op_star(chain_down, X), "upper"),
        "chain_up_star": (lambda ab, cp, lat, X: ab.chain_up_star(cp, X),
                          lambda X: refs.op_star(chain_up, X), "upper"),
        "order_ideal_chain_up": (
            lambda ab, cp, lat, X: ab.order_ideal_chain_up(cp, X),
            lambda X: refs.op_order_ideal(o, chain_up(X)), "extensive"),
        "order_ideal_chain_up_star": (
            lambda ab, cp, lat, X: ab.order_ideal_chain_up_star(cp, X),
            ideal["order_ideal_chain_up_star"], "upper"),
        "order_filter_chain_down": (
            lambda ab, cp, lat, X: ab.order_filter_chain_down(cp, X),
            lambda X: refs.op_order_filter(o, chain_down(X)), "extensive"),
        "order_filter_chain_down_star": (
            lambda ab, cp, lat, X: ab.order_filter_chain_down_star(cp, X),
            filt["order_filter_chain_down_star"], "upper"),
        "frontier_max_presented": (
            lambda ab, cp, lat, X: ab.frontier_max_presented(cp, X, up_inc),
            lambda X: refs.op_presented(o, fams, X, up_inc, "up"), "none"),
        "frontier_min_presented": (
            lambda ab, cp, lat, X: ab.frontier_min_presented(cp, X, down_inc),
            lambda X: refs.op_presented(o, fams, X, down_inc, "down"), "none"),
    }
    for a1, a2 in zip(IDEAL_KIND, FILTER_KIND):
        t["conjunctive %s/%s" % (a1, a2)] = (
            lambda ab, cp, lat, X, a1=a1, a2=a2: ab.conjunctive(a1, a2, cp, X),
            lambda X, a1=a1, a2=a2: ideal[a1](X) & filt[a2](X), "upper")
    return t


class LatticeOp:
    """Build a lattice from its description, then apply one public operator
    to every subset of its carrier (the join/gamma pair: alpha_join to every
    subset and gamma_join to every element)."""

    def __init__(self, label, cfg, order, subsets, fn, ref, kind):
        self.label = label
        self.cfg, self.order, self.subsets = cfg, order, subsets
        self.fn, self.ref, self.kind = fn, ref, kind
        self._verified = None  # hash of the results once checked in full

    def run(self, hl):
        ab = hl.abstractions
        cp = ab.lattice_from_config(self.cfg)
        lat = cp.lattice
        if self.kind == "galois":
            return ([ab.alpha_join(lat, X) for X in self.subsets],
                    [ab.gamma_join(lat, q) for q in self.order.elements], cp)
        fn = self.fn
        return [fn(ab, cp, lat, X) for X in self.subsets], cp

    def failed(self, result):
        return False

    def digest(self, result):
        return repr([sorted(r) if isinstance(r, frozenset) else r
                     for r in result[0]])

    def check(self, result):
        o = self.order
        cp = result[-1]
        if any(cp.lattice.leq(a, b) != o.leq(a, b)
               for a in o.elements for b in o.elements):
            return "%s: lattice order differs from its description" % self.label
        if self.kind == "galois":
            return self._check_galois(result)
        got = result[0]
        if self._verified is not None and hash(tuple(got)) == self._verified:
            return None  # the same results as the run that was checked in full
        if got != [self.ref(X) for X in self.subsets]:
            return "%s: result differs from the definition" % self.label
        msg = _laws(self.label, self.kind, self.subsets, got, o.elements)
        if msg is None:
            self._verified = hash(tuple(got))
        return msg

    def _check_galois(self, result):
        o = self.order
        alphas, gammas = result[0], result[1]
        if self._verified is not None and hash((tuple(alphas), tuple(gammas))) \
                == self._verified:
            return None
        for X, a in zip(self.subsets, alphas):
            if a != o.lub(X):
                return "%s: alpha_join is not the least upper bound" % self.label
        for q, g in zip(o.elements, gammas):
            if g != o.down[q]:
                return "%s: gamma_join is not the principal ideal" % self.label
        for X, a in zip(self.subsets, alphas):
            for q, g in zip(o.elements, gammas):
                if o.leq(a, q) != (X <= g):
                    return "%s: join/gamma is not a Galois connection" % self.label
        self._verified = hash((tuple(alphas), tuple(gammas)))
        return None


def _laws(label, kind, subsets, got, elements):
    """The closure laws of the operator's kind, on every subset."""
    if kind == "none":
        return None
    table = dict(zip(subsets, got))
    for X, fx in zip(subsets, got):
        if kind in ("upper", "extensive") and not X <= fx:
            return "%s: not extensive" % label
        if kind in ("lower", "reductive") and not fx <= X:
            return "%s: not reductive" % label
        if kind in ("upper", "lower", "reductive") and table[fx] != fx:
            return "%s: not idempotent" % label
        if kind in ("upper", "lower", "extensive", "monotone"):
            for b in elements:
                if b not in X and not fx <= table[X | {b}]:
                    return "%s: not monotone" % label
    return None


def lattice_laws(seed, files):
    """Every public abstraction operator on every subset of powerset, grid,
    chain, M3 and N5 lattices with declared chain families."""
    rng = random.Random("lattice-laws:%d" % seed)
    ops = []
    for lname, make in _LATTICES * 2:
        els, covers = make()
        els = list(els)
        rng.shuffle(els)
        order = _closure(els, covers)
        fams = _families(rng, order, covers)
        cfg = {"elements": els, "leq": [list(p) for p in covers], "families": fams}
        files.write("lattice.json", cfg)
        subsets = [frozenset(c) for r in range(len(els) + 1)
                   for c in combinations(els, r)]
        table = _operator_table(order, fams, rng)
        ops.append(LatticeOp("%s join/gamma" % lname, cfg, order, subsets,
                             None, None, "galois"))
        for opname, (fn, ref, kind) in table.items():
            ops.append(LatticeOp("%s %s" % (lname, opname), cfg, order, subsets,
                                 fn, ref, kind))
    rng.shuffle(ops)
    return ops


BUILDERS = {"denote-deep": denote_deep, "denote-wide": denote_wide,
            "hyper-check": hyper_check, "lattice-laws": lattice_laws}


def build(name, seed, workdir):
    return BUILDERS[name](seed, _Files(workdir))
