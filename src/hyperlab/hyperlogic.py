"""Upper/lower hyper-triples and proof-rule checkers.

A hyper-triple has a finite explicit antecedent; the consequent may be an
explicit set or a membership oracle.  The upper triple holds when every
antecedent's exact post lands in the consequent; the lower triple (explicit
consequents only) when every consequent is the exact post of some antecedent.

Rule checkers are certificate checkers: auxiliary objects such as invariant
families or frontier partitions are supplied by the caller and the premises
are verified exactly.  For the sound-and-complete structural rules the
checker also evaluates the conclusion directly and records agreement; for
rules with existential auxiliaries it synthesizes the canonical witness when
none is supplied (toy mode).  The while rules build the guarded body's
triple once and assemble each antecedent's conclusion element with
`interpreter.loop_post`, from the exact entry and divergence fixpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import interpreter, rel_domain as rd, transformers as tf
from .lang import (BoolTest, Cmp, Const, If, RandAssign, Seq, Skip, Stmt,
                   Var, While, neg, stmt_vars, validate_breaks)
from .rel_domain import SemTriple, StateSpace, join, leq, prim
from .transformers import HyperSet, Post, post


@dataclass(frozen=True)
class HyperOracle:
    """Total, deterministic membership predicate on triples."""

    fn: Callable
    name: str = "<oracle>"

    def contains(self, t) -> bool:
        return bool(self.fn(t))

    def complement(self) -> "HyperOracle":
        return HyperOracle(lambda t: not self.fn(t), "not(%s)" % self.name)


def membership(q) -> Callable:
    if hasattr(q, "contains"):  # HyperOracle or a family oracle
        return q.contains
    qs = frozenset(q)
    return lambda t: t in qs


@dataclass(frozen=True)
class Triple:
    pre: HyperSet
    stmt: Stmt
    post: object  # HyperSet or HyperOracle
    polarity: str = "upper"


@dataclass
class RuleReport:
    rule: str
    verdict: str = "holds"
    witnesses: list = field(default_factory=list)
    premises: list = field(default_factory=list)

    def holds(self) -> bool:
        return self.verdict == "holds"

    def premise(self, name, ok, detail=""):
        self.premises.append((name, bool(ok), detail))
        if not ok:
            self.verdict = "fails"

    def note(self, name, ok, detail=""):
        # diagnostic only; does not affect the verdict
        self.premises.append((name, bool(ok), detail))

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "verdict": self.verdict,
            "premises": [{"name": n, "ok": ok, "detail": d}
                         for n, ok, d in self.premises],
            "witnesses": [
                {"pre": rd.triple_to_json(p), "post": rd.triple_to_json(q)}
                for p, q in self.witnesses],
        }


def _require_valid(stmt):
    bad = validate_breaks(stmt)
    if bad is not None:
        raise ValueError("break without enclosing loop at path %s" % bad)


# ---------------------------------------------------------------------------
# Direct triple checks

def check_upper(t: Triple, space: StateSpace) -> RuleReport:
    """Upper triple: every antecedent's exact post belongs to the consequent."""
    _require_valid(t.stmt)
    rep = RuleReport("upper")
    member = membership(t.post)
    s_sem = interpreter.sem(t.stmt, space)
    ok = True
    for p in sorted(t.pre, key=SemTriple.sort_key):
        q = post(s_sem, p)
        if not member(q):
            ok = False
            rep.witnesses.append((p, q))
    rep.premise("forall pre: post in consequent", ok,
                "" if ok else "%d violations" % len(rep.witnesses))
    return rep


def check_lower(t: Triple, space: StateSpace) -> RuleReport:
    """Lower triple: every consequent is the exact post of some antecedent."""
    _require_valid(t.stmt)
    if hasattr(t.post, "contains"):
        raise ValueError("lower triples need an explicit consequent")
    rep = RuleReport("lower")
    s_sem = interpreter.sem(t.stmt, space)
    images = {post(s_sem, p): p for p in t.pre}
    ok = True
    for q in sorted(frozenset(t.post), key=SemTriple.sort_key):
        if q not in images:
            ok = False
            rep.witnesses.append((q, q))
    rep.premise("forall consequent: exists matching pre", ok,
                "" if ok else "%d unmatched" % len(rep.witnesses))
    return rep


def negate_upper(pre: HyperSet, stmt, post_q, space: StateSpace):
    """Duality with the lower logic: the upper triple fails exactly when some
    nonempty subset of the antecedent lands entirely in the complement.

    Returns (failed, witness_subset) with a minimal singleton witness.
    """
    _require_valid(stmt)
    member = membership(post_q)
    s_sem = interpreter.sem(stmt, space)
    for p in sorted(pre, key=SemTriple.sort_key):
        if not member(post(s_sem, p)):
            return True, frozenset((p,))
    return False, None


# ---------------------------------------------------------------------------
# Rule checkers

def _rule_seq(space, pre, s1, s2, mid, post_q) -> RuleReport:
    if hasattr(mid, "contains"):
        raise ValueError("intermediate hyper property must be explicit")
    mid_set = frozenset(mid)
    rep = RuleReport("seq")
    r1 = check_upper(Triple(pre, s1, mid_set, "upper"), space)
    rep.premise("pre s1 mid", r1.holds())
    r2 = check_upper(Triple(mid_set, s2, post_q, "upper"), space)
    rep.premise("mid s2 post", r2.holds())
    rep.witnesses.extend(r1.witnesses + r2.witnesses)
    direct = check_upper(Triple(pre, Seq(s1, s2), post_q, "upper"), space)
    rep.note("conclusion:direct", direct.holds())
    canonical = Post(interpreter.sem(s1, space), pre)
    complete = check_upper(Triple(canonical, s2, post_q, "upper"), space)
    rep.note("agreement:canonical-mid", complete.holds() == direct.holds())
    return rep


def _branch_pair(p, cond, s1, s2, space):
    t1 = interpreter.sem(Seq(BoolTest(cond), s1), space)
    t2 = interpreter.sem(Seq(BoolTest(neg(cond)), s2), space)
    return post(t1, p), post(t2, p)


def _rule_if_upper(space, pre, cond, s1, s2, post_q) -> RuleReport:
    rep = RuleReport("if_upper")
    member = membership(post_q)
    ok = True
    for p in sorted(pre, key=SemTriple.sort_key):
        q1, q2 = _branch_pair(p, cond, s1, s2, space)
        if not member(join(q1, q2)):
            ok = False
            rep.witnesses.append((p, join(q1, q2)))
    rep.premise("forall pre: tied branch join in consequent", ok)
    direct = check_upper(Triple(pre, If(cond, s1, s2), post_q, "upper"), space)
    rep.note("conclusion:direct", direct.holds())
    rep.note("agreement", direct.holds() == ok)
    return rep


def _rule_if_lower(space, pre, cond, s1, s2, post_q) -> RuleReport:
    rep = RuleReport("if_lower")
    images = {}
    for p in pre:
        q1, q2 = _branch_pair(p, cond, s1, s2, space)
        images[join(q1, q2)] = p
    ok = True
    for q in sorted(frozenset(post_q), key=SemTriple.sort_key):
        if q not in images:
            ok = False
            rep.witnesses.append((q, q))
    rep.premise("forall consequent: exists tied branch join", ok)
    direct = check_lower(Triple(pre, If(cond, s1, s2), post_q, "lower"), space)
    rep.note("conclusion:direct", direct.holds())
    rep.note("agreement", direct.holds() == ok)
    return rep


def _rule_while_upper(space, pre, cond, body, post_q) -> RuleReport:
    rep = RuleReport("while_upper")
    member = membership(post_q)
    bs = interpreter.body_triple(cond, body, space)
    ok = True
    for p in sorted(pre, key=SemTriple.sort_key):
        q = interpreter.loop_post(cond, bs, p, space)
        if not member(q):
            ok = False
            rep.witnesses.append((p, q))
    rep.premise("forall pre: element from exact fixpoints in consequent", ok)
    direct = check_upper(Triple(pre, While(cond, body), post_q, "upper"), space)
    rep.note("conclusion:direct", direct.holds())
    rep.note("agreement", direct.holds() == ok)
    return rep


def _rule_while_lower(space, pre, cond, body, post_q) -> RuleReport:
    rep = RuleReport("while_lower")
    bs = interpreter.body_triple(cond, body, space)
    images = {interpreter.loop_post(cond, bs, p, space): p for p in pre}
    ok = True
    for q in sorted(frozenset(post_q), key=SemTriple.sort_key):
        if q not in images:
            ok = False
            rep.witnesses.append((q, q))
    rep.premise("forall consequent: element of some antecedent", ok)
    direct = check_lower(Triple(pre, While(cond, body), post_q, "lower"), space)
    rep.note("conclusion:direct", direct.holds())
    rep.note("agreement", direct.holds() == ok)
    return rep


def _rule_consequence(space, pre, stmt, post_q, wider_pre, narrower_post) -> RuleReport:
    # sound but not needed for completeness
    rep = RuleReport("consequence")
    rep.premise("pre included in wider pre", frozenset(pre) <= frozenset(wider_pre))
    inner = check_upper(Triple(frozenset(wider_pre), stmt, narrower_post, "upper"),
                        space)
    rep.premise("wider triple holds", inner.holds())
    member = membership(post_q)
    sub = all(member(q) for q in narrower_post)
    rep.premise("narrower post included in post", sub)
    rep.witnesses.extend(inner.witnesses)
    return rep


def _fresh_choice_var(space: StateSpace, s1, s2) -> str:
    used = set(space.vars) | stmt_vars(s1) | stmt_vars(s2)
    if "c" not in used:
        return "c"
    k = 0
    while "c%d" % k in used:
        k += 1
    return "c%d" % k


def choice_statement(s1, s2, cvar="c"):
    """The desugared choice  c = [0,1]; if (c == 1) S1 else S2."""
    return Seq(RandAssign(cvar, 0, 1),
               If(Cmp("==", Var(cvar), Const(1)), s1, s2))


def _lift_triple(t: SemTriple, cvals) -> SemTriple:
    e = frozenset((a + (i,), b + (j,)) for a, b in t.e for i in cvals for j in cvals)
    inf = frozenset(a + (i,) for a in t.inf for i in cvals)
    br = frozenset((a + (i,), b + (j,)) for a, b in t.br for i in cvals for j in cvals)
    return SemTriple(e, inf, br)


def _project_triple(t: SemTriple) -> SemTriple:
    return SemTriple(frozenset((a[:-1], b[:-1]) for a, b in t.e),
                     frozenset(a[:-1] for a in t.inf),
                     frozenset((a[:-1], b[:-1]) for a, b in t.br))


def _rule_choice(space, pre, s1, s2, post_q) -> RuleReport:
    rep = RuleReport("choice")
    member = membership(post_q)
    sem1 = interpreter.sem(s1, space)
    sem2 = interpreter.sem(s2, space)
    ok = True
    for p in sorted(pre, key=SemTriple.sort_key):
        q = join(post(sem1, p), post(sem2, p))
        if not member(q):
            ok = False
            rep.witnesses.append((p, q))
    rep.premise("forall pre: join of both outcomes in consequent", ok)

    cvar = _fresh_choice_var(space, s1, s2)
    ext = StateSpace(space.vars + (cvar,), space.lo + (0,), space.hi + (1,),
                     space.arith)
    desugared = choice_statement(s1, s2, cvar)
    dsem = interpreter.sem(desugared, ext)
    agree = True
    for p in pre:
        lifted = post(dsem, _lift_triple(p, (0, 1)))
        direct = _project_triple(lifted)
        if direct != join(post(sem1, p), post(sem2, p)):
            agree = False
    rep.note("agreement:desugared-choice", agree)
    return rep


# -- forall-exists ----------------------------------------------------------

def _as_rel(p) -> frozenset:
    return p.e if isinstance(p, SemTriple) else frozenset(p)


def weak_invariant_closure(pre_rels, cond, body, space: StateSpace) -> frozenset:
    """Canonical invariant family {X^n(P)}: the minimal candidate, since
    premise 1 forces the antecedents in and premise 2 forces closure."""
    out = set()
    for p in pre_rels:
        iterates, _ = tf.weak_while_iterates(cond, body, p, space)
        out.update(iterates)
    return frozenset(out)


def _rule_forall_exists(space, pre, cond, body, post_q, invariant=None) -> RuleReport:
    rep = RuleReport("forall_exists")
    if validate_breaks(body) is not None:
        rep.premise("body break-free", False,
                    "the weak hypercollecting setting has no breaks")
        return rep
    pre_rels = frozenset(_as_rel(p) for p in pre)
    if hasattr(post_q, "contains"):
        member_rel = lambda r: post_q.contains(rd.pure_e(r))
    else:
        qs = frozenset(_as_rel(q) for q in post_q)
        member_rel = lambda r: r in qs

    synthesized = invariant is None
    if synthesized:
        inv = weak_invariant_closure(pre_rels, cond, body, space)
    else:
        inv = frozenset(_as_rel(i) for i in invariant)
    if_e = interpreter.sem(If(cond, body, Skip()), space).e
    not_b = prim(BoolTest(neg(cond)), space).e

    rep.premise("pre included in invariant", pre_rels <= inv)
    closed = all(rd.compose_rel(i, if_e) in inv for i in inv)
    rep.premise("invariant closed under guarded body step", closed)
    exits_ok = all(member_rel(rd.compose_rel(i, not_b)) for i in inv)
    rep.premise("invariant exits in consequent", exits_ok)
    rep.note("consequent chain-limit closed", True,
             "automatic on a finite space")
    if synthesized:
        rep.note("invariant synthesized", True, "%d elements" % len(inv))

    wsem = interpreter.sem(While(cond, body), space)
    sound = all(member_rel(rd.compose_rel(p, wsem.e)) for p in pre_rels)
    rep.note("conclusion:direct", sound)
    weak, _ = tf.Post_weak_while(cond, body,
                                 frozenset(rd.pure_e(p) for p in pre_rels),
                                 space)
    weak_ok = all(member_rel(q.e) for q in weak)
    rep.note("conclusion:weak-hypercollecting", weak_ok)
    return rep


# -- principal ideal --------------------------------------------------------

def _rule_principal_ideal(space, pre, stmt, generator, dual=False) -> RuleReport:
    """Reduction of a principal-ideal (dually principal-filter) consequent
    to one classic execution-property triple."""
    rep = RuleReport("principal_ideal")
    _require_valid(stmt)
    s_sem = interpreter.sem(stmt, space)
    if not dual:
        lumped = rd.join_all(pre)
        rep.premise("execution triple: post(join pre) below generator",
                    leq(post(s_sem, lumped), generator))
        direct = all(leq(post(s_sem, p), generator) for p in pre)
    else:
        rep.premise("execution triples: generator below each post",
                    all(leq(generator, post(s_sem, p)) for p in pre))
        direct = all(leq(generator, post(s_sem, p)) for p in pre)
    rep.note("conclusion:direct", direct)
    rep.note("agreement", direct == rep.holds())
    return rep


# -- conjunctive ------------------------------------------------------------

def _rule_conjunctive(space, pre, stmt, post_q) -> RuleReport:
    """Split a conjunctively-closed consequent into its order ideal and order
    filter parts; enumerable (toy) spaces only."""
    rep = RuleReport("conjunctive")
    carrier = tf.enumerate_triples(space)
    qs = frozenset(post_q)
    ideal = frozenset(t for t in carrier if any(leq(t, q) for q in qs))
    filt = frozenset(t for t in carrier if any(leq(q, t) for q in qs))
    rep.premise("consequent conjunctively closed", ideal & filt == qs)
    up = check_upper(Triple(frozenset(pre), stmt, ideal, "upper"), space)
    rep.premise("upper triple for order ideal part", up.holds())
    down = check_upper(Triple(frozenset(pre), stmt, filt, "upper"), space)
    rep.premise("upper triple for order filter part", down.holds())
    rep.witnesses.extend(up.witnesses + down.witnesses)
    direct = check_upper(Triple(frozenset(pre), stmt, qs, "upper"), space)
    rep.note("conclusion:direct", direct.holds())
    rep.note("agreement", direct.holds() == rep.holds())
    return rep


# -- frontier rho elimination ------------------------------------------------

def _minimal(elems, le) -> list:
    return [p for p in elems
            if not any(le(q, p) and q != p for q in elems)]


def _phi_interval(f, qs, carrier, le):
    """phi(F)Q: members of Q whose whole interval [F, .] stays inside Q."""
    qset = set(qs)
    out = []
    for p in qs:
        if le(f, p) and all(x in qset for x in carrier
                            if le(f, x) and le(x, p)):
            out.append(p)
    return out


def _rule_frontier_rho(space, carrier, le, post_fn, pre, post_q,
                       partition=None) -> RuleReport:
    """Frontier rho-elimination rule over an enumerated carrier.

    `post_fn` maps a carrier element to its exact post image; the consequent
    must be rho-frontier closed.  A missing partition is synthesized.
    """
    rep = RuleReport("frontier_rho")
    qs = list(post_q)
    frontier = _minimal(qs, le)
    closed = set()
    for f in frontier:
        closed.update(_phi_interval(f, qs, carrier, le))
    rep.premise("consequent rho-frontier closed", closed == set(qs))

    posts = {p: post_fn(p) for p in pre}
    if partition is None:
        partition = {}
        for f in frontier:
            phi = set(_phi_interval(f, qs, carrier, le))
            partition[f] = frozenset(
                p for p in pre if le(f, posts[p]) and posts[p] in phi)
        rep.note("partition synthesized", True)
    covered = set()
    for cell in partition.values():
        covered.update(cell)
    rep.premise("pre covered by the partition", set(pre) <= covered)
    keys_ok = all(f in frontier for f in partition)
    rep.premise("partition indexed by the frontier", keys_ok)
    cells_ok = True
    if keys_ok:
        for f, cell in partition.items():
            phi = set(_phi_interval(f, qs, carrier, le))
            for p in cell:
                # upper triple into phi(F)Q and lower triple onto F
                if not (posts[p] in phi and le(f, posts[p])):
                    cells_ok = False
    rep.premise("per-frontier upper and lower triples", cells_ok)

    direct = all(posts[p] in set(qs) for p in pre)
    rep.note("conclusion:direct", direct)
    return rep


_RULES = {
    "seq": _rule_seq,
    "if_upper": _rule_if_upper,
    "if_lower": _rule_if_lower,
    "while_upper": _rule_while_upper,
    "while_lower": _rule_while_lower,
    "consequence": _rule_consequence,
    "choice": _rule_choice,
    "forall_exists": _rule_forall_exists,
    "principal_ideal": _rule_principal_ideal,
    "conjunctive": _rule_conjunctive,
    "frontier_rho": _rule_frontier_rho,
}


def check_rule(name: str, space: Optional[StateSpace] = None, **inputs) -> RuleReport:
    if name not in _RULES:
        raise ValueError("unknown rule %r (have: %s)" %
                         (name, ", ".join(sorted(_RULES))))
    return _RULES[name](space, **inputs)
