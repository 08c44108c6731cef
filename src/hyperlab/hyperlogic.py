"""Upper/lower hyper-triples and proof-rule checkers.

A hyper-triple has a finite explicit antecedent and a consequent
hyperproperty, which is whatever `in` tests: a frozenset of SemTriples or a
`HyperOracle`, the one kind that is not finite.  The upper triple holds when
every antecedent's exact post lands in the consequent; the lower triple
(frozenset consequents only) when every consequent is the exact post of some
antecedent.

Both polarities read one post function: `_violations` yields the
antecedents whose image the consequent rejects (upper), `_unmatched` the
consequent elements that are no antecedent's image (lower).  The direct
checks, `negate_upper` and the seq, choice and principal-ideal rules read
the exact post of `sem` from `_exact_post`, which refuses a free break; the
conditional and loop rules pass their structural post function, built once
per statement (`transformers.transformer`).

A rule that proves a statement takes it whole as `stmt` (`seq` a `Seq`,
the if rules an `If`, the while rules and `forall_exists` a `While`) and
refuses any other construct first, in `_construct`; `upper` and `lower`
are rules too, so `check_rule` is the one entry point.

Rule checkers are certificate checkers: auxiliary objects such as invariant
families or frontier partitions are supplied by the caller and the premises
are verified exactly.  For the sound-and-complete structural rules the
checker also evaluates the conclusion directly through `sem` and records
agreement; for rules with existential auxiliaries it synthesizes the
canonical witness when none is supplied (toy mode), e.g. the forall-exists
rule's weak family (one `lfp` call, `transformers.weak_while_iterates`),
which also gives its weak-hypercollecting conclusion.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from . import interpreter, rel_domain as rd, transformers as tf
from .abstractions import HyperOracle, ToyLattice
from .lang import (Cmp, Const, If, RandAssign, Record, Seq, Stmt, Var, While,
                   require_no_free_break, stmt_vars)
from .rel_domain import SemTriple, StateSpace, join, leq
from .transformers import HyperSet, post


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


def _exact_post(stmt, space: StateSpace):
    """p -> post(sem(stmt), p); a free break in `stmt` is refused."""
    return partial(post, interpreter.sem(require_no_free_break(stmt), space))


def _explicit(q, message) -> frozenset:
    """`q` as a frozenset; an oracle lists no members, so `message` is
    raised for it."""
    if isinstance(q, HyperOracle):
        raise ValueError(message)
    return frozenset(q)


def _violations(post_fn, pre, post_q):
    """Lazily, (p, post_fn(p)) for each antecedent p in sort order whose
    image the consequent rejects."""
    for p in sorted(pre, key=SemTriple.sort_key):
        q = post_fn(p)
        if q not in post_q:
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
    return _report("upper", "forall pre: post in consequent",
                   list(_violations(_exact_post(t.stmt, space), t.pre,
                                    t.post)), "%d violations")


def check_lower(t: Triple, space: StateSpace) -> RuleReport:
    """Lower triple: every consequent is the exact post of some antecedent."""
    post_fn = _exact_post(t.stmt, space)
    qs = _explicit(t.post, "lower triples need an explicit consequent")
    return _report("lower", "forall consequent: exists matching pre",
                   _unmatched(post_fn, t.pre, qs), "%d unmatched")


def negate_upper(pre: HyperSet, stmt, post_q, space: StateSpace):
    """Duality with the lower logic: the upper triple fails exactly when some
    nonempty subset of the antecedent lands entirely in the complement.

    Returns (failed, witness_subset) with a minimal singleton witness.
    """
    first = next(_violations(_exact_post(stmt, space), pre, post_q), None)
    return (False, None) if first is None else (True, frozenset((first[0],)))


# ---------------------------------------------------------------------------
# Rule checkers

def _construct(rule, stmt, cls) -> Stmt:
    """`stmt`, or ValueError naming `rule` unless it is a `cls` (a `Seq` of
    two items at least), the one construct the rule proves."""
    if stmt.__class__ is not cls or cls is Seq and len(stmt.stmts) < 2:
        raise ValueError("rule %r needs a single %s" % (rule, {
            Seq: "sequence", If: "conditional", While: "while loop"}[cls]))
    return stmt


def _rule_seq(space, pre, stmt, mid, post_q) -> RuleReport:
    # read as `interpret` folds it: the first item, then the rest
    s1, *rest = _construct("seq", stmt, Seq).stmts
    s2 = rest[0] if len(rest) == 1 else Seq(*rest)
    mid_set = _explicit(mid, "intermediate hyper property must be explicit")
    rep = RuleReport("seq")
    r1 = check_upper(Triple(pre, s1, mid_set), space)
    rep.premise("pre s1 mid", r1.holds())
    r2 = check_upper(Triple(mid_set, s2, post_q), space)
    rep.premise("mid s2 post", r2.holds())
    rep.witnesses.extend(r1.witnesses + r2.witnesses)
    direct = check_upper(Triple(pre, stmt, post_q), space)
    rep.note("conclusion:direct", direct.holds())
    canonical = frozenset(map(_exact_post(s1, space), pre))
    complete = check_upper(Triple(canonical, s2, post_q), space)
    rep.note("agreement:canonical-mid", complete.holds() == direct.holds())
    return rep


def _structural(name, cls, premise, lower=False):
    """Rule `name` for the construct `cls`: the structural post function,
    checked upper or lower, and the direct check of that polarity."""
    def rule(space, pre, stmt, post_q) -> RuleReport:
        _construct(name, stmt, cls)
        qs = (_explicit(post_q, "lower triples need an explicit consequent")
              if lower else post_q)
        post_fn = interpreter.interpret(stmt, tf.transformer(space))
        witnesses = (_unmatched(post_fn, pre, qs) if lower
                     else list(_violations(post_fn, pre, qs)))
        direct = (check_lower if lower else check_upper)(
            Triple(pre, stmt, post_q), space)
        return _conclude(_report(name, premise, witnesses), direct.holds())
    return rule


def _rule_consequence(space, pre, stmt, post_q, wider_pre, narrower_post) -> RuleReport:
    # sound but not needed for completeness
    rep = RuleReport("consequence")
    rep.premise("pre included in wider pre", frozenset(pre) <= frozenset(wider_pre))
    inner = check_upper(Triple(frozenset(wider_pre), stmt, narrower_post),
                        space)
    rep.premise("wider triple holds", inner.holds())
    sub = all(q in post_q for q in narrower_post)
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


def _rule_choice(space, pre, s1, s2, post_q) -> RuleReport:
    cvar = _fresh_choice_var(space, s1, s2)
    ext = rd.extend(space, cvar)  # refused before any sem runs
    post1, post2 = _exact_post(s1, space), _exact_post(s2, space)

    def both(p):
        return join(post1(p), post2(p))
    rep = _report("choice", "forall pre: join of both outcomes in consequent",
                  list(_violations(both, pre, post_q)))

    # an antecedent lifts to the full cylinder over the fresh variable, so
    # projecting the desugared denotation once gives the same posts
    dsem = rd.project(interpreter.sem(choice_statement(s1, s2, cvar), ext),
                      space)
    agree = all(post(dsem, p) == both(p) for p in pre)
    rep.note("agreement:desugared-choice", agree)
    return rep


# -- forall-exists ----------------------------------------------------------

def _rule_forall_exists(space, pre, stmt, post_q, invariant=None) -> RuleReport:
    loop = _construct("forall_exists", stmt, While)
    rep = RuleReport("forall_exists")
    pre_ts = frozenset(rd.pure_e(p.e) for p in pre)
    if not isinstance(post_q, HyperOracle):
        # only e-components are compared
        post_q = frozenset(rd.pure_e(q.e) for q in post_q)

    # the guarded body is built once; the step, the exit test, the loop's
    # triple and the weak family come from it whatever the number of
    # antecedents.  The family is the canonical (minimal) invariant:
    # premise 1 forces the antecedents in and premise 2 forces closure.
    bs, not_b, step = tf.weak_step(loop.cond, loop.body, space)
    family, _ = tf.weak_while_iterates(step, pre_ts, space)
    synthesized = invariant is None
    inv = family if synthesized else frozenset(
        SemTriple(i.e, 0, i.br) for i in invariant)

    rep.premise("pre included in invariant", pre_ts <= inv)
    rep.premise("invariant closed under guarded body step",
                all(rd.compose(i, step) in inv for i in inv))
    def all_in_consequent(images):
        # every distinct image is tested: oracle calls follow no hash order
        return all([x in post_q for x in images])

    def exits_in_consequent(ts):
        return all_in_consequent({tf.weak_exit(t, not_b) for t in ts})
    exits_ok = exits_in_consequent(inv)
    rep.premise("invariant exits in consequent", exits_ok)
    rep.note("consequent chain-limit closed", True,
             "automatic on a finite space")
    if synthesized:
        rep.note("invariant synthesized", True, "%d elements" % len(inv))

    wsem = interpreter.loop_triple(bs, not_b, space)
    rep.note("conclusion:direct", all_in_consequent(
        {rd.pure_e(rd.compose_rel(p.e, wsem.e)) for p in pre_ts}))
    # the weak conclusion is the exit premise of the family
    rep.note("conclusion:weak-hypercollecting",
             exits_ok if synthesized else exits_in_consequent(family))
    return rep


# -- principal ideal --------------------------------------------------------

def _rule_principal_ideal(space, pre, stmt, generator, dual=False) -> RuleReport:
    """Reduction of a principal-ideal (dually principal-filter) consequent
    to one classic execution-property triple."""
    rep = RuleReport("principal_ideal")
    post_fn = _exact_post(stmt, space)
    if not dual:
        lumped = rd.join_all(pre, space)
        rep.premise("execution triple: post(join pre) below generator",
                    leq(post_fn(lumped), generator))
        direct = all(leq(post_fn(p), generator) for p in pre)
    else:
        direct = all(leq(generator, post_fn(p)) for p in pre)
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

def _rule_frontier_rho(space, carrier, le, post_fn, pre, post_q,
                       partition=None) -> RuleReport:
    """Frontier rho-elimination rule over an enumerated carrier.

    `post_fn` maps a carrier element to its exact post image; the consequent
    must be rho-frontier closed.  A missing partition is synthesized.  The
    carrier and `le` must form a lattice (LatticeError otherwise), whose
    kernels give the min frontier, each phi(F)Q and the closure.
    """
    lat = ToyLattice(carrier, le)
    rep = RuleReport("frontier_rho")
    q = lat.mask(post_q)
    frontier = lat.unmask(lat.min_mask(q))
    phis = {f: lat.phi_mask(f, q) for f in frontier}
    rep.premise("consequent rho-frontier closed",
                lat.rho_frontier_mask(q) == q)

    posts = {p: lat.mask((post_fn(p),)) for p in pre}
    if partition is None:
        partition = {f: frozenset(p for p in pre if posts[p] & phi)
                     for f, phi in phis.items()}
        rep.note("partition synthesized", True)
    covered = set()
    for cell in partition.values():
        covered.update(cell)
    rep.premise("pre covered by the partition", set(pre) <= covered)
    keys_ok = all(f in frontier for f in partition)
    rep.premise("partition indexed by the frontier", keys_ok)
    # phi(F)Q lies above F, so landing in it is both the upper triple into
    # phi(F)Q and the lower triple onto F; vacuous when a key is not on the
    # frontier, which the premise above reports
    cells_ok = not keys_ok or all(posts[p] & phis[f]
                                  for f, cell in partition.items()
                                  for p in cell)
    rep.premise("per-frontier upper and lower triples", cells_ok)

    direct = all(posts[p] & q for p in pre)
    rep.note("conclusion:direct", direct)
    return rep


# `upper` and `lower` look `check_upper` and `check_lower` up at each call,
# so a wrapper set on the module sees those calls too
_RULES = {
    "upper": lambda space, pre, stmt, post_q:
        check_upper(Triple(pre, stmt, post_q), space),
    "lower": lambda space, pre, stmt, post_q:
        check_lower(Triple(pre, stmt, post_q), space),
    "seq": _rule_seq,
    "if_upper": _structural("if_upper", If,
                            "forall pre: tied branch join in consequent"),
    "if_lower": _structural("if_lower", If,
                            "forall consequent: exists tied branch join",
                            lower=True),
    "while_upper": _structural(
        "while_upper", While,
        "forall pre: element from exact fixpoints in consequent"),
    "while_lower": _structural(
        "while_lower", While, "forall consequent: element of some antecedent",
        lower=True),
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
