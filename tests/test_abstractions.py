import gc
import random
import sys
import weakref
from array import array
from functools import reduce
from itertools import repeat
from operator import and_, or_

import pytest

from hyperlab import abstractions as ab
from hyperlab import interpreter as it
from hyperlab import rel_domain as rd
from hyperlab.abstractions import (ChainPoset, Family, LatticeError,
                                   ToyLattice, alpha_join, chain_down,
                                   chain_down_star, chain_up, chain_up_star,
                                   conjunctive, eliminate, family,
                                   frontier_max, frontier_min,
                                   frontier_order_ideal, gamma_join,
                                   homomorphic, lattice_from_config,
                                   order_filter, order_ideal, phi_subseteq,
                                   principal_ideal, rho_frontier,
                                   rho_subseteq)
from hyperlab.lang import parse
from hyperlab.rel_domain import SemTriple, StateSpace
from hyperlab.selftest import (SPACE_Y, S1_SRC, _chain_cex_poset,
                               _closure_battery, _increasing)


AB = ToyLattice.powerset("ab")
ABC = ToyLattice.powerset("abc")
A, B = frozenset("a"), frozenset("b")
EMPTY, TOP2 = frozenset(), frozenset("ab")


# ---------------------------------------------------------------------------
# Construction and validation

def test_powerset_has_expected_extremes():
    assert AB.bot == EMPTY and AB.top == TOP2
    assert AB.join((A, B)) == TOP2 and AB.meet((A, B)) == EMPTY


def test_from_pairs_takes_transitive_closure():
    lat = ToyLattice.from_pairs("wxyz", (("w", "x"), ("x", "y"), ("y", "z")))
    assert lat.leq("w", "z") and lat.bot == "w" and lat.top == "z"


def test_malformed_orders_rejected():
    with pytest.raises(LatticeError):  # antisymmetry violation
        ToyLattice.from_pairs("xy", (("x", "y"), ("y", "x")))
    with pytest.raises(LatticeError):  # no top
        ToyLattice.from_pairs("xyz", (("x", "y"), ("x", "z")))
    with pytest.raises(LatticeError) as exc:  # lub of the atoms is ambiguous
        ToyLattice.from_pairs(
            "bot a b c d top".split(),
            (("bot", "a"), ("bot", "b"), ("a", "c"), ("b", "c"),
             ("a", "d"), ("b", "d"), ("c", "top"), ("d", "top")))
    # the first pair in element order; (c, d) has no glb but comes later
    assert str(exc.value) == "no unique lub/glb for 'a', 'b'"
    with pytest.raises(LatticeError):
        ToyLattice(("x", "x"), lambda a, b: True)
    with pytest.raises(LatticeError) as exc:
        ToyLattice.from_pairs("xyx", (("x", "y"), ("y", "x")))
    assert str(exc.value) == "duplicate elements"


@pytest.mark.parametrize("n, below, irreflexive, message", [
    (2, (), (0,), "order not reflexive"),
    (2, ((0, 1), (1, 0)), (), "order not antisymmetric"),
    (3, ((0, 1), (1, 2)), (), "order not transitive"),
    # two violations in row 0: its first failing pair decides
    (4, ((1, 0), (0, 1), (2, 0), (3, 2)), (), "order not antisymmetric"),
    (4, ((1, 0), (3, 1), (2, 0), (0, 2)), (), "order not transitive"),
    # one pair failing both: antisymmetry is tested first
    (4, ((1, 0), (0, 1), (3, 1)), (), "order not antisymmetric"),
    # row 0 fails before the irreflexive row 1
    (3, ((1, 0), (2, 1)), (1,), "order not transitive"),
])
def test_each_order_violation_is_named_by_its_first_failing_pair(
        n, below, irreflexive, message):
    # b <= a for the pairs (b, a) of `below` and for b == a outside
    # `irreflexive`
    with pytest.raises(LatticeError) as exc:
        ToyLattice(range(n), lambda b, a: (b, a) in below
                   or a == b and a not in irreflexive)
    assert str(exc.value) == message


def test_powerset_is_validated_as_every_lattice_is(monkeypatch):
    calls = []
    validate = ToyLattice._validate
    monkeypatch.setattr(ToyLattice, "_validate",
                        lambda self: calls.append(validate(self)))
    ToyLattice.powerset("abc")
    assert len(calls) == 1


def test_bad_family_rejected():
    with pytest.raises(LatticeError):
        ChainPoset(AB, (Family("f", (A, B), EMPTY, "down"),))
    with pytest.raises(LatticeError):  # non-parametric limit must be the glb
        ChainPoset(AB, (Family("f", (TOP2, A), EMPTY, "down",
                               parametric=False),))
    ChainPoset(AB, (Family("f", (TOP2, A), EMPTY, "down"),))  # parametric ok


# ---------------------------------------------------------------------------
# Operator examples

def test_alpha_join_examples():
    assert alpha_join(AB, ()) == EMPTY                # empty set gives bottom
    assert alpha_join(AB, (EMPTY, A)) == A
    assert alpha_join(AB, (A, B)) == TOP2


def test_gamma_join_is_principal_ideal_of_the_point():
    assert gamma_join(AB, A) == frozenset((EMPTY, A))
    # adjunction on the whole powerset-of-powerset
    for m in AB.subsets():
        sub = AB.unmask(m)
        for q in AB.elements:
            assert (AB.leq(alpha_join(AB, sub), q) if sub else True) == \
                (sub <= gamma_join(AB, q) if sub else True)


def test_homomorphic_image_examples():
    props = frozenset((A, B))
    assert homomorphic(lambda x: x, props) == props
    assert homomorphic(lambda x: EMPTY, props) == frozenset((EMPTY,))


def test_homomorphic_partial_hypercorrectness_projector():
    t = it.sem(parse(S1_SRC), SPACE_Y)
    dropped = homomorphic(
        lambda x: SemTriple(x.e, 0, x.br), frozenset((t,)))
    (only,) = dropped
    assert only.inf == 0 and only.e == t.e and only.br == t.br


def test_eliminate_examples():
    props = frozenset((A, B))
    assert eliminate(props, AB.elements) == props
    assert eliminate(props, ()) == frozenset()
    small = frozenset(p for p in ABC.elements if len(p) <= 1)
    assert eliminate(frozenset(ABC.elements), small) == small


def test_principal_ideal_examples():
    assert principal_ideal(AB, (TOP2,)) == frozenset(AB.elements)
    assert principal_ideal(AB, ()) == frozenset((EMPTY,))
    assert principal_ideal(AB, (A, B)) == frozenset(AB.elements)


def test_order_ideal_examples():
    assert order_ideal(AB, (EMPTY,)) == frozenset((EMPTY,))
    down = frozenset((EMPTY, A))
    assert order_ideal(AB, down) == down
    chain4 = ToyLattice.from_pairs(
        ("bot", "0", "1", "top"),
        (("bot", "0"), ("bot", "1"), ("0", "top"), ("1", "top")))
    assert order_ideal(chain4, ("0",)) == frozenset(("bot", "0"))


def test_frontier_examples_match_the_printed_counterexample():
    lat = ToyLattice.from_pairs(
        ("bot", "0", "1", "top"),
        (("bot", "0"), ("bot", "1"), ("0", "top"), ("1", "top")))
    assert frontier_min(lat, ("top",)) == frozenset(("top",))
    assert frontier_min(lat, ("0", "1", "top")) == frozenset(("0", "1"))
    antichain = frozenset((A, B))
    assert frontier_min(AB, antichain) == antichain
    assert frontier_max(AB, antichain) == antichain


def test_frontier_order_ideal_examples():
    down = frozenset((EMPTY, A, B))
    assert frontier_order_ideal(AB, down, dual=True) == down
    assert frontier_order_ideal(AB, (TOP2,)) == frozenset((TOP2,))
    rng = random.Random(61)
    for _ in range(50):
        sub = frozenset(e for e in ABC.elements if rng.random() < 0.4)
        up = frontier_order_ideal(ABC, sub)
        decomposed = frozenset().union(*[
            order_filter(ABC, (f,)) for f in frontier_min(ABC, sub)]) \
            if sub else frozenset()
        assert up == decomposed  # frontier decomposition of the closure


def test_chain_ops_identity_without_declared_families():
    cp = ChainPoset(ABC, ())
    rng = random.Random(62)
    for _ in range(20):
        sub = frozenset(e for e in ABC.elements if rng.random() < 0.5)
        assert chain_down(cp, sub) == sub
        assert chain_up(cp, sub) == sub
        assert chain_down_star(cp, sub) == sub


def test_chain_counterexample_poset():
    cp = _chain_cex_poset()
    xs = frozenset("X%d%d" % (i, j) for i in (1, 2, 3) for j in (1, 2, 3))
    once = chain_down(cp, xs)
    assert once == xs | {"Y1", "Y2", "Y3"}
    assert chain_down(cp, once) == once | {"bot"}
    assert chain_down_star(cp, xs) == xs | {"Y1", "Y2", "Y3", "bot"}


def test_chain_up_star_stabilizes():
    lat = ToyLattice.powerset((0, 1, 2))
    fam = Family("asc", (frozenset((0,)), frozenset((0, 1))),
                 frozenset((0, 1, 2)), "up")
    cp = ChainPoset(lat, (fam,))
    sub = frozenset((frozenset((0,)), frozenset((0, 1))))
    assert chain_up(cp, sub) == sub | {frozenset((0, 1, 2))}
    assert chain_up_star(cp, sub) == sub | {frozenset((0, 1, 2))}


def test_conjunctive_examples():
    cp = ChainPoset(ABC, ())
    rng = random.Random(63)
    for _ in range(40):
        sub = frozenset(e for e in ABC.elements if rng.random() < 0.4)
        image = conjunctive("order_ideal", "order_filter", cp, sub)
        again = conjunctive("order_ideal", "order_filter", cp, image)
        assert again == image  # idempotent
        fixed = order_ideal(ABC, sub) & order_filter(ABC, sub)
        if sub == fixed:
            assert image == sub  # members of the image are fixed
    assert conjunctive("order_ideal", "order_filter", cp, ()) == frozenset()
    with pytest.raises(ValueError) as exc:
        conjunctive("order_filter", "order_filter", cp, ())
    assert str(exc.value) == "alpha1 must be ideal-kind, got 'order_filter'"
    with pytest.raises(ValueError) as exc:
        conjunctive("order_ideal", "order_ideal", cp, ())
    assert str(exc.value) == "alpha2 must be filter-kind, got 'order_ideal'"


def test_rho_operators():
    down = frozenset((EMPTY, A))
    assert rho_subseteq(AB, down) == down
    rng = random.Random(64)
    for _ in range(60):
        sub = frozenset(e for e in ABC.elements if rng.random() < 0.45)
        red = rho_frontier(ABC, sub)
        assert red <= sub
        assert rho_frontier(ABC, red) == red
    assert phi_subseteq(AB, EMPTY, frozenset((EMPTY, A, TOP2))) == \
        frozenset((EMPTY, A))


def test_presented_fragment_has_empty_max_frontier():
    lat = ToyLattice.powerset("abc")
    fam = Family("growing", (frozenset("a"), frozenset("ab")),
                 frozenset("abc"), "up")
    cp = ChainPoset(lat, (fam,))
    assert ab.frontier_max_presented(cp, (), ("growing",)) == frozenset()
    assert ab.frontier_max_presented(cp, (frozenset("c"),), ("growing",)) == \
        frozenset((frozenset("c"),))
    with pytest.raises(LatticeError):
        ab.frontier_max_presented(
            ChainPoset(lat, (Family("d", (frozenset("ab"),),
                                    frozenset(), "down"),)),
            (), ("d",))


def test_presented_frontier_names_an_unknown_family():
    cp = lattice_from_config({
        "elements": ["bot", "a", "top"], "leq": [["bot", "a"], ["a", "top"]],
        "families": [{"family": "d", "elements": ["a"], "limit": "bot"}]})
    with pytest.raises(LatticeError, match="unknown family 'zz'"):
        ab.frontier_min_presented(cp, (), ("zz",))
    with pytest.raises(LatticeError, match="unknown family 'zz'"):
        ab.frontier_max_presented(cp, ("a",), ("zz",))
    assert ab.frontier_min_presented(cp, (), ("d",)) == frozenset()


# ---------------------------------------------------------------------------
# Families

def test_family_aeh_identity_is_trivial():
    base = ("p", "q")
    ident = family("AEH", A=[(x, x) for x in base])
    lat = ToyLattice.powerset(base)
    assert all(p in ident for p in lat.elements)


def test_family_aah_requires_total_agreement():
    aah = family("AAH", A=[(0, 0), (1, 1)])
    assert frozenset((0,)) in aah
    assert frozenset((0, 1)) not in aah


def test_family_eah_needs_one_dominator():
    eah = family("EAH", A=[(0, 0), (0, 1)])
    assert frozenset((0, 1)) in eah
    assert frozenset((1,)) not in eah


def test_family_ni_gni_gd_on_programs():
    space = StateSpace.make(("l", "h"), 0, 1)
    ni = family("NI", space=space, low="l", high="h")
    gni = family("GNI", space=space, low="l", high="h")
    gd = family("GD", space=space, low="l", high="h")
    leak = it.sem(parse("l = h;"), space)
    const = it.sem(parse("l = 0;"), space)
    scramble = it.sem(parse("l = [0,1];"), space)
    assert leak not in ni
    assert const in ni
    assert const in gni
    assert scramble in gni  # noise hides the high input
    assert leak not in gni
    assert leak in gd  # the leak is a genuine dependency
    assert scramble not in gd
    # GD is the exact negation of GNI
    rng = random.Random(66)
    from hyperlab.selftest import random_triple
    for _ in range(40):
        t = random_triple(rng, space)
        assert (t in gd) == (t not in gni)


def test_family_requires_arguments():
    with pytest.raises(ValueError):
        family("AEH")
    with pytest.raises(ValueError):
        family("NI")
    with pytest.raises(ValueError):
        family("XYZ", A=())


# ---------------------------------------------------------------------------
# Mask internals against a naive reference

def _naive_order_ideal(lat, sub):
    return frozenset(x for x in lat.elements
                     if any(lat.leq(x, p) for p in sub))


def _naive_frontier_min(lat, sub):
    return frozenset(p for p in sub
                     if not any(lat.leq(q, p) and q != p for q in sub))


def _naive_rho_frontier(lat, sub):
    out = set()
    for f in _naive_frontier_min(lat, sub):
        for p in sub:
            if lat.leq(f, p) and all(
                    x in sub for x in lat.elements
                    if lat.leq(f, x) and lat.leq(x, p)):
                out.add(p)
    return frozenset(out)


def test_mask_operators_match_naive_reference():
    lat = ToyLattice.powerset("abcd")
    rng = random.Random(65)
    for _ in range(100):
        sub = frozenset(e for e in lat.elements if rng.random() < 0.3)
        assert order_ideal(lat, sub) == _naive_order_ideal(lat, sub)
        assert frontier_min(lat, sub) == _naive_frontier_min(lat, sub)
        assert rho_frontier(lat, sub) == _naive_rho_frontier(lat, sub)


def test_lattice_from_config_with_families():
    cfg = {
        "elements": ["bot", "a", "b", "top"],
        "leq": [["bot", "a"], ["bot", "b"], ["a", "top"], ["b", "top"]],
        "families": [{"family": "X", "elements": ["top", "a"],
                      "limit": "bot", "direction": "down"}],
    }
    cp = lattice_from_config(cfg)
    assert isinstance(cp, ChainPoset)
    assert chain_down(cp, frozenset(("top", "a"))) == \
        frozenset(("top", "a", "bot"))
    plain = lattice_from_config({"elements": ["x"], "leq": []})
    assert isinstance(plain, ChainPoset) and plain.families == ()


@pytest.mark.parametrize("cfg, named", (
    ({"elements": [1, 2], "leq": [[1, 2]]}, "element 1 is not a string"),
    ({"elements": ["bot", None], "leq": []}, "element None is not a string"),
    ({"elements": ["bot", "top"], "leq": [["bot", "top"]],
      "families": [{"family": ["x"], "elements": ["top"], "limit": "bot"}]},
     "family name ['x'] is not a string"),
    ({"elements": ["bot", "top"], "leq": [["bot", "top"]],
      "families": [{"family": "F", "elements": ["top"], "limit": "bot"},
                   {"family": "F", "elements": ["bot"], "limit": "top",
                    "direction": "up"}]},
     "two families are named 'F'")))
def test_lattice_from_config_names_elements_and_families_by_strings(cfg,
                                                                    named):
    with pytest.raises(LatticeError) as exc:
        lattice_from_config(cfg)
    assert str(exc.value) == named


def test_helpers_used_by_rel_domain_are_not_shadowed():
    assert rd.SemTriple is SemTriple


# ---------------------------------------------------------------------------
# Order duality: each filter-side operator against its order-theoretic
# definition, on every subset

def _n5():
    lat = ToyLattice.from_pairs(
        ("bot", "a", "b", "c", "top"),
        (("bot", "a"), ("a", "b"), ("b", "top"), ("bot", "c"), ("c", "top")))
    fams = (Family("u", ("a",), "b", "up"),
            Family("v", ("c", "top"), "top", "up", parametric=False),
            Family("d", ("b",), "a", "down"),
            Family("e", ("top", "c"), "c", "down", parametric=False),
            Family("f", ("a",), "bot", "down"))  # starts at d's limit
    return ChainPoset(lat, fams), ("u",)


def _m3_times_2():
    m3 = (("bot", "a"), ("bot", "b"), ("bot", "c"),
          ("a", "top"), ("b", "top"), ("c", "top"))
    els = [(x, k) for k in (0, 1) for x in ("bot", "a", "b", "c", "top")]
    pairs = [((x, k), (y, k)) for x, y in m3 for k in (0, 1)]
    pairs += [((x, 0), (x, 1)) for x, _ in els[:5]]
    lat = ToyLattice.from_pairs(els, pairs)
    fams = (Family("u", (("bot", 0), ("a", 0)), ("a", 1), "up"),
            Family("w", (("b", 0),), ("top", 1), "up"),
            Family("v", (("b", 0), ("b", 1)), ("b", 1), "up",
                   parametric=False),
            Family("d", (("top", 1), ("c", 1)), ("bot", 0), "down"),
            Family("e", (("a", 1), ("a", 0)), ("a", 0), "down",
                   parametric=False),
            Family("x", (("a", 1),), ("top", 1), "up"))  # starts at u's limit
    return ChainPoset(lat, fams), ("u", "w")


@pytest.mark.parametrize("make", (_n5, _m3_times_2))
def test_filter_side_operators_match_their_definitions(make):
    cp, included = make()
    lat = cp.lattice
    els = lat.elements

    def below(x, y):
        return lat.leq(x, y) and x != y

    def glb(xs):
        lower = [y for y in els if all(lat.leq(y, x) for x in xs)]
        return next(g for g in lower if all(lat.leq(y, g) for y in lower))

    def maximal(xs):
        return frozenset(x for x in xs if not any(below(x, y) for y in xs))

    def up(xs):
        return frozenset(y for y in els if any(lat.leq(x, y) for x in xs))

    def down(xs):
        return frozenset(y for y in els if any(lat.leq(y, x) for x in xs))

    fams = {f.name: f for f in cp.families}
    presented = frozenset().union(*(fams[n].elements for n in included))
    blocked = frozenset(e for n in included for e in fams[n].elements
                        if e != fams[n].limit)
    for m in lat.subsets():
        xs = lat.unmask(m)
        assert order_filter(lat, xs) == up(xs)
        assert ab.principal_filter(lat, xs) == up((glb(xs),))
        assert frontier_max(lat, xs) == maximal(xs)
        assert frontier_order_ideal(lat, xs, dual=True) == down(maximal(xs))
        assert chain_up(cp, xs) == xs | frozenset(
            f.limit for f in cp.families
            if f.direction == "up" and set(f.elements) <= xs)
        assert ab.frontier_max_presented(cp, xs, included) == \
            maximal(xs | presented) - blocked
        assert ab.frontier_max_presented(cp, xs) == maximal(xs)


@pytest.mark.parametrize("make", (_n5, _m3_times_2))
def test_dual_reverses_the_order_and_is_built_once(make):
    lat = make()[0].lattice
    dual = lat.dual
    assert dual is lat.dual and dual.dual is lat
    assert (dual.bot, dual.top) == (lat.top, lat.bot)
    for x in lat.elements:
        for y in lat.elements:
            assert dual.leq(x, y) == lat.leq(y, x)
            assert dual.join((x, y)) == lat.meet((x, y))
            assert dual.meet((x, y)) == lat.join((x, y))


@pytest.mark.parametrize("fam, message", (
    (Family("u", ("b", "a"), "top", "up"), "family u not increasing"),
    (Family("u", ("a", "c"), "top", "up"), "family u not increasing"),
    (Family("u", ("a", "b"), "c", "up"), "limit of u not an upper bound"),
    (Family("u", ("a", "b"), "top", "up", parametric=False),
     "limit of u is not its glb/lub"),
    (Family("d", ("a", "b"), "bot", "down"), "family d not decreasing"),
    (Family("d", ("b", "a"), "c", "down"), "limit of d not a lower bound"),
    (Family("d", ("b", "a"), "bot", "down", parametric=False),
     "limit of d is not its glb/lub"),
    (Family("x", ("a",), "top", "sideways"), "bad direction 'sideways'")))
def test_ill_ordered_families_rejected_by_name(fam, message):
    with pytest.raises(LatticeError) as exc:
        ChainPoset(_n5()[0].lattice, (fam,))
    assert str(exc.value) == message


def test_closure_battery_reports_each_broken_law():
    lat = ToyLattice.powerset("ab")
    full = (1 << len(lat.elements)) - 1
    broken = (
        # collapses everything: idempotent and increasing, not extensive
        ("to empty", lambda m: 0, "upper", {"is extensive"}),
        # adds the next index: extensive and increasing, not idempotent
        ("spread", lambda m: (m | m << 1) & full, "upper", {"is idempotent"}),
        # drops the full set only: reductive and idempotent, not increasing
        ("drop full", lambda m: 0 if m == full else m, "lower",
         {"is increasing"}))
    for name, op, kind, failing in broken:
        checks = []
        _closure_battery(name, lat, op, kind, checks)
        assert {label: ok for label, ok, _ in checks} == {
            "%s %s" % (name, law): law not in failing
            for law in (("is extensive" if kind == "upper" else "is reductive"),
                        "is idempotent", "is increasing")}


def test_gni_matches_its_definition_and_gd_is_its_negation():
    space = StateSpace.make(("l", "h"), 0, 2)
    states = list(space.states())
    gni = family("GNI", space=space, low="l", high="h")
    gd = family("GD", space=space, low="l", high="h")

    def gni_by_definition(runs):
        return all(any(s3[0] == s1[0] and s3[1] == s2[1] and e3[0] == e1[0]
                       for (s3, e3) in runs)
                   for (s1, e1) in runs for (s2, _) in runs
                   if s1[0] == s2[0])

    rng = random.Random(67)
    seen = set()
    for _ in range(600):
        # few low outputs make the property hold often enough to matter
        ends = rng.sample(states, rng.randint(1, 3))
        runs = frozenset((rng.choice(states), rng.choice(ends))
                         for _ in range(rng.randint(0, 14)))
        t = rd.triple(space, e=runs)
        want = gni_by_definition(runs)
        assert (t in gni) == want
        assert (t in gd) == (not want)
        seen.add(want)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# The set/mask boundary: composed, starred and conjunctive operators against
# their definitions, input forms, unknown elements, layout and memory

IDEAL_KIND, FILTER_KIND = tuple(ab.OPS_IDEAL_KIND), tuple(ab.OPS_FILTER_KIND)


def _definitions(cp):
    """name -> the operator's order-theoretic definition on frozensets."""
    lat = cp.lattice
    els = lat.elements

    def down(xs):
        return frozenset(y for y in els if any(lat.leq(y, x) for x in xs))

    def up(xs):
        return frozenset(y for y in els if any(lat.leq(x, y) for x in xs))

    def bound(xs, upper):  # the least upper or greatest lower bound
        cands = [y for y in els
                 if all(lat.leq(x, y) if upper else lat.leq(y, x) for x in xs)]
        return next(b for b in cands if all(
            lat.leq(b, c) if upper else lat.leq(c, b) for c in cands))

    def extremal(xs, keep_max):
        return frozenset(x for x in xs if not any(
            x != y and (lat.leq(x, y) if keep_max else lat.leq(y, x))
            for y in xs))

    def chain(direction):
        return lambda xs: xs | frozenset(
            f.limit for f in cp.families
            if f.direction == direction and set(f.elements) <= xs)

    def star(op):
        def starred(xs):
            while not op(xs) <= xs:
                xs = xs | op(xs)
            return xs
        return starred

    ideal_up, filter_down = (lambda xs: down(chain("up")(xs)),
                             lambda xs: up(chain("down")(xs)))
    return {
        "order_ideal": down,
        "frontier_order_ideal_dual": lambda xs: down(extremal(xs, True)),
        "order_ideal_chain_up_star": star(ideal_up),
        "principal_ideal": lambda xs: down((bound(xs, True),)),
        "order_filter": up,
        "frontier_order_ideal": lambda xs: up(extremal(xs, False)),
        "order_filter_chain_down_star": star(filter_down),
        "principal_filter": lambda xs: up((bound(xs, False),)),
        "order_ideal_chain_up": ideal_up,
        "order_filter_chain_down": filter_down,
        "chain_down_star": star(chain("down")),
        "chain_up_star": star(chain("up")),
    }


def test_fixtures_declare_families_in_both_directions_both_kinds():
    for make in (_n5, _m3_times_2):
        kinds = {(f.direction, f.parametric) for f in make()[0].families}
        assert kinds == {("down", True), ("down", False),
                         ("up", True), ("up", False)}


@pytest.mark.parametrize("make", (_n5, _m3_times_2))
def test_composed_starred_and_conjunctive_operators_match_definitions(make):
    cp = make()[0]
    lat = cp.lattice
    want = _definitions(cp)
    composed = ("order_ideal_chain_up", "order_filter_chain_down",
                "chain_down_star", "chain_up_star",
                "order_ideal_chain_up_star", "order_filter_chain_down_star")
    changed = set()
    for m in lat.subsets():
        xs = lat.unmask(m)
        for name in composed:
            got = getattr(ab, name)(cp, xs)
            assert got == want[name](xs), (name, sorted(map(str, xs)))
            if got != xs:
                changed.add(name)
        members = {name: want[name](xs) for name in IDEAL_KIND + FILTER_KIND}
        for a1 in IDEAL_KIND:
            for a2 in FILTER_KIND:
                assert conjunctive(a1, a2, cp, xs) == \
                    members[a1] & members[a2], (a1, a2)
    assert changed == set(composed)  # every composite adds something somewhere


def _cascading():
    """In each direction a later family's limit completes an earlier
    family's members, so each starred closure takes at least two passes
    over the families, whatever order it visits them in."""
    P = frozenset
    fams = (Family("d1", (P("ab"), P("a")), P(""), "down"),
            Family("d2", (P("abc"), P("ac")), P("a"), "down"),
            Family("u1", (P("b"), P("bc")), P("abc"), "up"),
            Family("u2", (P(""), P("c")), P("bc"), "up"))
    return ChainPoset(ABC, fams)


def test_starred_closures_iterate_past_one_pass_of_cascading_families():
    cp = _cascading()
    want = _definitions(cp)
    # one application of each starred operator's step
    once = {"chain_down_star": lambda xs: chain_down(cp, xs),
            "chain_up_star": lambda xs: chain_up(cp, xs),
            "order_ideal_chain_up_star": want["order_ideal_chain_up"],
            "order_filter_chain_down_star": want["order_filter_chain_down"]}
    ideal, filt = "order_ideal_chain_up_star", "order_filter_chain_down_star"
    deeper = set()
    for m in ABC.subsets():
        xs = ABC.unmask(m)
        for name, step in once.items():
            got = getattr(ab, name)(cp, xs)
            assert got == want[name](xs), (name, sorted(map(sorted, xs)))
            if got != step(xs):
                deeper.add(name)
        both = want[ideal](xs) & want[filt](xs)
        assert conjunctive(ideal, filt, cp, xs) == both
        if both != once[ideal](xs) & once[filt](xs):
            deeper.add("conjunctive")
    assert deeper == set(once) | {"conjunctive"}


def _public_operators(cp):
    lat = cp.lattice
    f = lat.elements[1]
    ops = {name: (lambda xs, op=getattr(ab, name): op(lat, xs)) for name in (
        "principal_ideal", "principal_filter", "order_ideal", "order_filter",
        "frontier_min", "frontier_max", "frontier_order_ideal",
        "rho_subseteq", "rho_frontier")}
    ops.update({name: (lambda xs, op=getattr(ab, name): op(cp, xs)) for name in (
        "chain_down", "chain_up", "chain_down_star", "chain_up_star",
        "order_ideal_chain_up", "order_ideal_chain_up_star",
        "order_filter_chain_down", "order_filter_chain_down_star")})
    ops["frontier_order_ideal_dual"] = lambda xs: frontier_order_ideal(
        lat, xs, dual=True)
    ops["phi_subseteq"] = lambda xs: phi_subseteq(lat, f, xs)
    for a1, a2 in zip(IDEAL_KIND, FILTER_KIND):
        ops["conjunctive %s/%s" % (a1, a2)] = \
            lambda xs, a1=a1, a2=a2: conjunctive(a1, a2, cp, xs)
    ops["join"], ops["meet"] = lat.join, lat.meet
    ops["frontier_max_presented"] = lambda xs: ab.frontier_max_presented(
        cp, xs, ("u",))
    ops["frontier_min_presented"] = lambda xs: ab.frontier_min_presented(
        cp, xs, ("d",))
    return ops


@pytest.mark.parametrize("make", (_n5, _m3_times_2))
def test_operators_take_lists_and_generators_with_repeats(make):
    cp = make()[0]
    lat = cp.lattice
    ops = _public_operators(cp)
    for m in range(0, 1 << len(lat.elements), 7):
        xs = lat.unmask(m)
        twice = sorted(xs, key=lat.index) * 2
        assert lat.mask(twice) == lat.mask(iter(twice)) == m
        for name, op in ops.items():
            want = op(xs)
            assert op(list(twice)) == want, name
            assert op(x for x in twice) == want, name


def test_unknown_element_raises_key_error_naming_it():
    cp = _n5()[0]
    lat = cp.lattice
    with pytest.raises(KeyError) as exc:
        lat.mask(["bot", "zz", "a"])
    assert exc.value.args == ("zz",)
    for name, op in _public_operators(cp).items():
        if name in ("chain_down", "chain_up"):  # set tests, no mask
            continue
        with pytest.raises(KeyError) as exc:
            op(["a", "zz"])
        assert exc.value.args == ("zz",), name


@pytest.mark.parametrize("make", (_n5, _m3_times_2))
def test_dual_keeps_the_instance_dict_layout(make):
    lat = make()[0].lattice
    assert list(vars(lat)) == list(vars(lat.dual))
    assert list(vars(ToyLattice.powerset("ab"))) == list(vars(lat))


def test_sweeping_subsets_leaves_a_bounded_memo():
    # every 16th of the 65536 subsets of a 16-element carrier (tracing makes
    # each allocation slow): an unbounded memo of their frozensets would
    # hold about 3 MB, and of all 65536 tens of megabytes
    tracemalloc = pytest.importorskip("tracemalloc")
    lat = ToyLattice.powerset("abcd")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for m in lat.subsets()[::16]:
            order_ideal(lat, lat.unmask(m))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1_000_000, held


def test_dropping_a_lattice_frees_it_and_its_dual_at_once():
    gc.disable()  # freed by reference counting alone, so by no cycle
    try:
        lat = ToyLattice.powerset("abc")
        dual = lat.dual
        assert dual.dual is lat
        frontier_max(lat, lat.elements)  # the dual's tables exist too
        dead = weakref.ref(lat), weakref.ref(dual)
        del lat, dual
        assert [r() for r in dead] == [None, None]
    finally:
        gc.enable()


def test_a_dual_outliving_its_lattice_rebuilds_it():
    lat = ToyLattice.powerset("ab")
    dual = lat.dual
    order = [[lat.leq(x, y) for y in lat.elements] for x in lat.elements]
    del lat
    again = dual.dual
    assert again.dual is dual and dual.dual is again
    assert [[again.leq(x, y) for y in again.elements]
            for x in again.elements] == order
    assert (again.bot, again.top) == (dual.top, dual.bot)


def test_increasing_compares_exactly_the_bit_neighbours():
    rng = random.Random(12)
    for width in range(7):
        n = 1 << width
        for _ in range(20):
            # unions of random rows are increasing; then spoil one entry
            rows = [rng.getrandbits(6) for _ in range(width)]
            f = [reduce(or_, (r for b, r in enumerate(rows) if m >> b & 1), 0)
                 for m in range(n)]
            if rng.random() < 0.7:
                f[rng.randrange(n)] = rng.getrandbits(6)
            want = all(f[m] & ~f[m | 1 << b] == 0
                       for m in range(n) for b in range(width))
            assert _increasing(f) == want, (width, f)


# ---------------------------------------------------------------------------
# Byte-table kernels against their order-theoretic definitions

class _Slots:
    """Sets of masks, the masks of `masks` in list order, as one int with a
    slot of bits per mask, wide enough for a mask of n bits.  `pack` puts
    table[j] in slot j; `holding[x]` holds 1 in the slot of each mask that
    contains element x, and `every` 1 in every slot."""

    def __init__(self, masks, n):
        self.code = next(c for c in "BHIQ" if array(c).itemsize * 8 >= n)
        self.masks = masks
        self.every = self.pack([1] * len(masks))
        self.holding = [self.pack([m >> x & 1 for m in masks])
                        for x in range(n)]

    def pack(self, table) -> int:
        return int.from_bytes(array(self.code, table).tobytes(), sys.byteorder)

    def unpack(self, packed: int) -> list:
        width = array(self.code).itemsize * len(self.masks)
        return list(array(self.code, packed.to_bytes(width, sys.byteorder)))


def _kernel_definitions(lat, slots):
    """Each kernel by its definition, the order read through lat.leq: per
    element x, the set of masks whose image holds x, then the table of
    images packed into slots."""
    els = lat.elements
    n = len(els)
    le = [[lat.leq(a, b) for b in els] for a in els]
    holding, every = slots.holding, slots.every

    def all_of(xs):  # the masks holding each of xs
        return reduce(and_, (holding[x] for x in xs), every)

    def any_of(sets):
        return reduce(or_, sets, 0)

    # no other member below x
    minimal = [holding[x] & ~any_of(holding[y] for y in range(n)
                                    if le[y][x] and y != x)
               for x in range(n)]
    # every element below x stays inside
    rho = [all_of(y for y in range(n) if le[y][x]) for x in range(n)]
    # x above f, and the interval [f, x] stays inside
    phi = [[all_of(y for y in range(n) if le[f][y] and le[y][x])
            if le[f][x] else 0 for x in range(n)] for f in range(n)]
    rho_frontier = [any_of(minimal[f] & phi[f][x] for f in range(n))
                    for x in range(n)]
    # x is below the least upper bound iff below every upper bound u, i.e.
    # no mask inside the down-set of a u not above x
    inside = [every & ~any_of(holding[y] for y in range(n) if not le[y][u])
              for u in range(n)]
    principal = [every & ~any_of(inside[u] for u in range(n) if not le[x][u])
                 for x in range(n)]

    def table(per_element):
        return any_of(p << x for x, p in enumerate(per_element))
    return {"min_mask": table(minimal), "rho_down_mask": table(rho),
            "rho_frontier_mask": table(rho_frontier),
            "principal_ideal_mask": table(principal),
            "phi_mask": [table(p) for p in phi]}


def _m3_times_chain4():
    """M3 times the four-element chain: 20 elements, three bytes."""
    m3 = (("bot", "a"), ("bot", "b"), ("bot", "c"),
          ("a", "top"), ("b", "top"), ("c", "top"))
    els = [(x, k) for k in range(4) for x in ("bot", "a", "b", "c", "top")]
    pairs = [((x, k), (y, k)) for x, y in m3 for k in range(4)]
    pairs += [((x, k), (x, k + 1)) for x, k in els if k < 3]
    return ToyLattice.from_pairs(els, pairs)


def _kernel_carriers():
    rng = random.Random(2024)
    sample = [0, (1 << 20) - 1] + [rng.getrandbits(20) for _ in range(2000)]
    return ((ToyLattice.powerset("abcd"), range(1 << 16)),
            (_m3_times_2()[0].lattice, range(1 << 10)),
            (_m3_times_chain4(), sample))


@pytest.mark.parametrize("lat, masks", _kernel_carriers(),
                         ids=("powerset abcd, two full bytes",
                              "M3 x 2, ten elements",
                              "M3 x chain 4, three bytes, sampled"))
def test_table_kernels_match_their_definitions(lat, masks):
    slots = _Slots(masks, len(lat.elements))

    def first_difference(got, want):
        return next((m, g, w) for m, g, w in zip(
            masks, slots.unpack(got), slots.unpack(want)) if g != w)

    for side in (lat, lat.dual):
        want = _kernel_definitions(side, slots)
        for name in ("min_mask", "rho_down_mask", "rho_frontier_mask",
                     "principal_ideal_mask"):
            got = slots.pack(list(map(getattr(side, name), masks)))
            assert got == want[name], (name, first_difference(got, want[name]))
        for e, want_f in zip(side.elements, want["phi_mask"]):
            got = slots.pack(list(map(side.phi_mask, repeat(e), masks)))
            assert got == want_f, ("phi_mask", e, first_difference(got, want_f))


@pytest.mark.parametrize("lat", [lat for lat, _ in _kernel_carriers()],
                         ids=("powerset abcd, sampled", "M3 x 2, every subset",
                              "M3 x chain 4, sampled"))
def test_join_and_meet_match_their_definitions(lat):
    n = len(lat.elements)
    if n <= 10:
        masks = range(1 << n)
    else:
        rng = random.Random(2025)
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(4096)]
    for side in (lat, lat.dual):
        els = side.elements
        le = [[side.leq(a, b) for b in els] for a in els]
        for m in masks:
            xs = [i for i in range(n) if m >> i & 1]
            ups = [u for u in range(n) if all(le[x][u] for x in xs)]
            downs = [d for d in range(n) if all(le[d][x] for x in xs)]
            # the least upper bound is below every upper bound, dually the glb
            lub = els[next(u for u in ups if all(le[u][v] for v in ups))]
            glb = els[next(d for d in downs if all(le[c][d] for c in downs))]
            members = [els[i] for i in xs]
            assert side.join(members) == lub, (m, members)
            assert side.meet(members) == glb, (m, members)
            # repeats and a generator: the bound of a set, not of a sequence
            again = members + members[:1]
            assert side.join(e for e in again) == lub
            assert side.meet(e for e in again) == glb


def _closure_by_search(elements, pairs):
    """a -> the set of elements reachable from a along pairs, a included."""
    succ = {e: [] for e in elements}
    for a, b in pairs:
        succ[a].append(b)
    reach = {}
    for e in elements:
        seen, todo = {e}, [e]
        while todo:
            for b in succ[todo.pop()]:
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        reach[e] = seen
    return reach


def test_from_pairs_closes_the_order_as_the_definition_does():
    rng = random.Random(31)
    outcomes = set()
    for _ in range(300):
        els = ["e%d" % i for i in range(rng.randint(1, 9))]
        # random covers, upward in a random rank order (not the order of
        # els) but now and then downward (a cycle breaks antisymmetry),
        # often below one top and above one bottom
        ranked = rng.sample(els, len(els))
        pairs = [(a, b) for i, a in enumerate(ranked) for b in ranked[i + 1:]
                 if rng.random() < 0.3]
        pairs += [(b, a) for a, b in pairs if rng.random() < 0.03]
        if len(els) > 2 and rng.random() < 0.7:
            pairs += [(ranked[0], e) for e in els]
            pairs += [(e, ranked[-1]) for e in els]
        rng.shuffle(pairs)
        reach = _closure_by_search(els, pairs)
        try:
            want = ToyLattice(els, lambda a, b: b in reach[a])
        except LatticeError as exc:
            want = str(exc)
        try:
            got = ToyLattice.from_pairs(els, pairs)
        except LatticeError as exc:
            got = str(exc)
        if isinstance(want, str):
            assert got == want, (els, pairs)
        else:
            assert [[got.leq(a, b) for b in els] for a in els] == \
                [[want.leq(a, b) for b in els] for a in els], (els, pairs)
        outcomes.add(want.split(" ")[0] if isinstance(want, str) else "ok")
    assert outcomes == {"ok", "order", "missing", "no"}, outcomes
