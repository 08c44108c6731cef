"""Upper/lower hyper-triples and proof-rule checkers.

A hyper-triple has a finite explicit antecedent; the consequent may be an
explicit set or a membership oracle.  The upper triple holds when every
antecedent's exact post lands in the consequent; the lower triple (explicit
consequents only) when every consequent is the exact post of some antecedent.

Both polarities read one post function: `_violations` yields the
antecedents whose image the consequent rejects (upper), `_unmatched` the
consequent elements that are no antecedent's image (lower).  The direct
checks and `negate_upper` pass the exact post of `sem`; the conditional,
loop and choice rules pass their structural post function, built once per
statement (`transformers.transformer`).

Rule checkers are certificate checkers: auxiliary objects such as invariant
families or frontier partitions are supplied by the caller and the premises
are verified exactly.  For the sound-and-complete structural rules the
checker also evaluates the conclusion directly through `sem` and records
agreement; for rules with existential auxiliaries it synthesizes the
canonical witness when none is supplied (toy mode), e.g. the forall-exists
rule's weak family (`transformers.weak_family`), built once, which also
gives its weak-hypercollecting conclusion.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from . import interpreter, rel_domain as rd, transformers as tf
from .abstractions import HyperOracle
from .lang import (BoolTest, Cmp, Const, If, RandAssign, Record, Seq, Stmt,
                   Var, While, neg, stmt_vars, validate_breaks)
from .rel_domain import SemTriple, StateSpace, join, leq
from .transformers import HyperSet, Post, membership, post


_set = object.__setattr__


class Triple(Record):
    __slots__ = ("pre", "stmt", "post")

    def __init__(self, pre: HyperSet, stmt: Stmt, post):
        _set(self, "pre", pre)
        _set(self, "stmt", stmt)
        _set(self, "post", post)  # HyperSet or HyperOracle


class RuleReport(Record):
    """A rule's verdict, premises and witnesses; filled in as the rule is
    checked, so mutable and unhashable."""

    __slots__ = ("rule", "verdict", "witnesses", "premises")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, rule: str, verdict: str = "holds",
                 witnesses: list = None, premises: list = None):
        self.rule = rule
        self.verdict = verdict
        self.witnesses = [] if witnesses is None else witnesses
        self.premises = [] if premises is None else premises

    def holds(self) -> bool:
        return self.verdict == "holds"

    def premise(self, name, ok, detail=""):
        self.premises.append((name, bool(ok), detail))
        if not ok:
            self.verdict = "fails"

    def note(self, name, ok, detail=""):
        # diagnostic only; does not affect the verdict
        self.premises.append((name, bool(ok), detail))

    def to_json(self, space: StateSpace) -> dict:
        return {
            "rule": self.rule,
            "verdict": self.verdict,
            "premises": [{"name": n, "ok": ok, "detail": d}
                         for n, ok, d in self.premises],
            "witnesses": [
                {"pre": rd.triple_to_json(p, space),
                 "post": rd.triple_to_json(q, space)}
                for p, q in self.witnesses],
        }


def _require_valid(stmt):
    bad = validate_breaks(stmt)
    if bad is not None:
        raise ValueError("break without enclosing loop at path %s" % bad)


def _explicit(post_q) -> frozenset:
    if hasattr(post_q, "contains"):
        raise ValueError("lower triples need an explicit consequent")
    return frozenset(post_q)


def _violations(post_fn, pre, post_q):
    """Lazily, (p, post_fn(p)) for each antecedent p in sort order whose
    image the consequent rejects."""
    member = membership(post_q)
    for p in sorted(pre, key=SemTriple.sort_key):
        q = post_fn(p)
        if not member(q):
            yield p, q


def _unmatched(post_fn, pre, post_q: frozenset) -> list:
    """(q, q) for each element q, in sort order, of the explicit consequent
    that no antecedent's image equals."""
    images = {post_fn(p) for p in pre}
    return [(q, q) for q in sorted(post_q, key=SemTriple.sort_key)
            if q not in images]


def _report(rule, premise, witnesses, detail="") -> RuleReport:
    """A report whose one premise holds when there are no witnesses;
    `detail` formats their number when it fails."""
    rep = RuleReport(rule, witnesses=witnesses)
    rep.premise(premise, not witnesses,
                detail % len(witnesses) if witnesses and detail else "")
    return rep


def _conclude(rep, direct) -> RuleReport:
    """Record the directly evaluated conclusion and whether the rule's
    verdict agrees with it."""
    rep.note("conclusion:direct", direct)
    rep.note("agreement", direct == rep.holds())
    return rep


# ---------------------------------------------------------------------------
# Direct triple checks

def check_upper(t: Triple, space: StateSpace) -> RuleReport:
    """Upper triple: every antecedent's exact post belongs to the consequent."""
    _require_valid(t.stmt)
    post_fn = partial(post, interpreter.sem(t.stmt, space))
    return _report("upper", "forall pre: post in consequent",
                   list(_violations(post_fn, t.pre, t.post)), "%d violations")


def check_lower(t: Triple, space: StateSpace) -> RuleReport:
    """Lower triple: every consequent is the exact post of some antecedent."""
    _require_valid(t.stmt)
    qs = _explicit(t.post)
    post_fn = partial(post, interpreter.sem(t.stmt, space))
    return _report("lower", "forall consequent: exists matching pre",
                   _unmatched(post_fn, t.pre, qs), "%d unmatched")


def negate_upper(pre: HyperSet, stmt, post_q, space: StateSpace):
    """Duality with the lower logic: the upper triple fails exactly when some
    nonempty subset of the antecedent lands entirely in the complement.

    Returns (failed, witness_subset) with a minimal singleton witness.
    """
    _require_valid(stmt)
    post_fn = partial(post, interpreter.sem(stmt, space))
    first = next(_violations(post_fn, pre, post_q), None)
    return (False, None) if first is None else (True, frozenset((first[0],)))


# ---------------------------------------------------------------------------
# Rule checkers

def _rule_seq(space, pre, s1, s2, mid, post_q) -> RuleReport:
    if hasattr(mid, "contains"):
        raise ValueError("intermediate hyper property must be explicit")
    mid_set = frozenset(mid)
    rep = RuleReport("seq")
    r1 = check_upper(Triple(pre, s1, mid_set), space)
    rep.premise("pre s1 mid", r1.holds())
    r2 = check_upper(Triple(mid_set, s2, post_q), space)
    rep.premise("mid s2 post", r2.holds())
    rep.witnesses.extend(r1.witnesses + r2.witnesses)
    direct = check_upper(Triple(pre, Seq(s1, s2), post_q), space)
    rep.note("conclusion:direct", direct.holds())
    canonical = Post(interpreter.sem(s1, space), pre)
    complete = check_upper(Triple(canonical, s2, post_q), space)
    rep.note("agreement:canonical-mid", complete.holds() == direct.holds())
    return rep


def _structural_upper(name, stmt, premise, space, pre, post_q) -> RuleReport:
    """Upper rule for a conditional or loop: the structural post function
    maps each antecedent into the consequent."""
    post_fn = interpreter.interpret(stmt, tf.transformer(space))
    rep = _report(name, premise, list(_violations(post_fn, pre, post_q)))
    direct = check_upper(Triple(pre, stmt, post_q), space)
    return _conclude(rep, direct.holds())


def _structural_lower(name, stmt, premise, space, pre, post_q) -> RuleReport:
    """Lower rule: every consequent element is the structural image of some
    antecedent."""
    qs = _explicit(post_q)
    post_fn = interpreter.interpret(stmt, tf.transformer(space))
    rep = _report(name, premise, _unmatched(post_fn, pre, qs))
    direct = check_lower(Triple(pre, stmt, post_q), space)
    return _conclude(rep, direct.holds())


def _rule_if_upper(space, pre, cond, s1, s2, post_q) -> RuleReport:
    return _structural_upper("if_upper", If(cond, s1, s2),
                             "forall pre: tied branch join in consequent",
                             space, pre, post_q)


def _rule_if_lower(space, pre, cond, s1, s2, post_q) -> RuleReport:
    return _structural_lower("if_lower", If(cond, s1, s2),
                             "forall consequent: exists tied branch join",
                             space, pre, post_q)


def _rule_while_upper(space, pre, cond, body, post_q) -> RuleReport:
    return _structural_upper(
        "while_upper", While(cond, body),
        "forall pre: element from exact fixpoints in consequent",
        space, pre, post_q)


def _rule_while_lower(space, pre, cond, body, post_q) -> RuleReport:
    return _structural_lower("while_lower", While(cond, body),
                             "forall consequent: element of some antecedent",
                             space, pre, post_q)


def _rule_consequence(space, pre, stmt, post_q, wider_pre, narrower_post) -> RuleReport:
    # sound but not needed for completeness
    rep = RuleReport("consequence")
    rep.premise("pre included in wider pre", frozenset(pre) <= frozenset(wider_pre))
    inner = check_upper(Triple(frozenset(wider_pre), stmt, narrower_post),
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


def _project_triple(t: SemTriple, ext: StateSpace,
                    space: StateSpace) -> SemTriple:
    """`t` over `ext` with its last variable dropped, over `space`."""
    def project(r):
        return ((a[:-1], b[:-1]) for a, b in rd.pairs(r, ext))
    return rd.triple(space, project(t.e),
                     (a[:-1] for a in rd.members(t.inf, ext)), project(t.br))


def _rule_choice(space, pre, s1, s2, post_q) -> RuleReport:
    sem1 = interpreter.sem(s1, space)
    sem2 = interpreter.sem(s2, space)

    def both(p):
        return join(post(sem1, p), post(sem2, p))
    rep = _report("choice", "forall pre: join of both outcomes in consequent",
                  list(_violations(both, pre, post_q)))

    cvar = _fresh_choice_var(space, s1, s2)
    ext = StateSpace(space.vars + (cvar,), space.lo + (0,), space.hi + (1,),
                     space.arith)
    # an antecedent lifts to the full cylinder over the fresh variable, so
    # projecting the desugared denotation once gives the same posts
    dsem = _project_triple(
        interpreter.sem(choice_statement(s1, s2, cvar), ext), ext, space)
    agree = all(post(dsem, p) == both(p) for p in pre)
    rep.note("agreement:desugared-choice", agree)
    return rep


# -- forall-exists ----------------------------------------------------------

def _as_rel(p) -> tuple:
    return p.e if isinstance(p, SemTriple) else tuple(p)


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

    # the guarded body is built once; the step, the exit test, the loop's
    # triple and the weak family come from it whatever the number of
    # antecedents.  The family is the canonical (minimal) invariant:
    # premise 1 forces the antecedents in and premise 2 forces closure.
    bs, not_b, step = tf.weak_step(cond, body, space)
    family, _ = tf.weak_family(step, pre_rels, space)
    synthesized = invariant is None
    inv = family if synthesized else frozenset(_as_rel(i) for i in invariant)

    rep.premise("pre included in invariant", pre_rels <= inv)
    closed = all(rd.compose_rel(i, step) in inv for i in inv)
    rep.premise("invariant closed under guarded body step", closed)
    def exit_in_consequent(rels):
        return all(member_rel(rd.compose_rel(i, not_b)) for i in rels)
    exits_ok = exit_in_consequent(inv)
    rep.premise("invariant exits in consequent", exits_ok)
    rep.note("consequent chain-limit closed", True,
             "automatic on a finite space")
    if synthesized:
        rep.note("invariant synthesized", True, "%d elements" % len(inv))

    wsem = interpreter.loop_triple(cond, bs, space)
    sound = all(member_rel(rd.compose_rel(p, wsem.e)) for p in pre_rels)
    rep.note("conclusion:direct", sound)
    # the weak conclusion is the exit premise of the family
    rep.note("conclusion:weak-hypercollecting",
             exits_ok if synthesized else exit_in_consequent(family))
    return rep


# -- principal ideal --------------------------------------------------------

def _rule_principal_ideal(space, pre, stmt, generator, dual=False) -> RuleReport:
    """Reduction of a principal-ideal (dually principal-filter) consequent
    to one classic execution-property triple."""
    rep = RuleReport("principal_ideal")
    _require_valid(stmt)
    s_sem = interpreter.sem(stmt, space)
    if not dual:
        lumped = rd.join_all(pre, space)
        rep.premise("execution triple: post(join pre) below generator",
                    leq(post(s_sem, lumped), generator))
        direct = all(leq(post(s_sem, p), generator) for p in pre)
    else:
        direct = all(leq(generator, post(s_sem, p)) for p in pre)
        rep.premise("execution triples: generator below each post", direct)
    return _conclude(rep, direct)


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
    up = check_upper(Triple(frozenset(pre), stmt, ideal), space)
    rep.premise("upper triple for order ideal part", up.holds())
    down = check_upper(Triple(frozenset(pre), stmt, filt), space)
    rep.premise("upper triple for order filter part", down.holds())
    rep.witnesses.extend(up.witnesses + down.witnesses)
    direct = check_upper(Triple(frozenset(pre), stmt, qs), space)
    return _conclude(rep, direct.holds())


# -- frontier rho elimination ------------------------------------------------

def _minimal(elems, le) -> list:
    return [p for p in elems
            if not any(le(q, p) and q != p for q in elems)]


def _phi_interval(f, qset, carrier, le):
    """phi(F)Q: members of Q whose whole interval [F, .] stays inside Q."""
    return {p for p in qset
            if le(f, p) and all(x in qset for x in carrier
                                if le(f, x) and le(x, p))}


def _rule_frontier_rho(space, carrier, le, post_fn, pre, post_q,
                       partition=None) -> RuleReport:
    """Frontier rho-elimination rule over an enumerated carrier.

    `post_fn` maps a carrier element to its exact post image; the consequent
    must be rho-frontier closed.  A missing partition is synthesized.
    """
    rep = RuleReport("frontier_rho")
    qs = list(post_q)
    qset = set(qs)
    frontier = _minimal(qs, le)
    phis = {f: _phi_interval(f, qset, carrier, le) for f in frontier}
    rep.premise("consequent rho-frontier closed",
                set().union(*phis.values()) == qset)

    posts = {p: post_fn(p) for p in pre}
    if partition is None:
        partition = {f: frozenset(p for p in pre
                                  if le(f, posts[p]) and posts[p] in phi)
                     for f, phi in phis.items()}
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
            for p in cell:
                # upper triple into phi(F)Q and lower triple onto F
                if not (posts[p] in phis[f] and le(f, posts[p])):
                    cells_ok = False
    rep.premise("per-frontier upper and lower triples", cells_ok)

    direct = all(posts[p] in qset for p in pre)
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
