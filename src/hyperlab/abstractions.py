"""Hyperproperty abstraction algebra on finitely presented lattices.

`ToyLattice` is an explicit finite lattice (elements, decidable order); the
constructor validates the partial-order and lattice axioms eagerly.
`ChainPoset` adds declared chain families with limits: the chain-limit
operators quantify over the declared families only (plus all finite chains,
whose limits are already members), which under-approximates "all chains" but
suffices for every counterexample reproduced here.  A family may be marked
parametric, meaning the listed members stand for an infinite chain whose
limit is the declared one rather than the least listed member.

Subsets of the carrier are plain frozensets in the public API; internally
they are bitmasks so the exhaustive law batteries stay fast.

Order duality: `ToyLattice.dual` is the same carrier with the order
reversed; it shares the parent's tables with down/up sets, join/meet and
bottom/top swapped.  By the duality principle each filter-side operator is
its ideal-side partner computed on the dual: the order and principal
filters, the max frontier, the frontier order ideal with dual=True and the
max frontier of a presented subset.  An increasing family is checked as a
decreasing family of the dual.

Operator census: join/gamma pair, homomorphic image, elimination, principal
ideal and filter, order ideal and filter, min/max frontiers, frontier order
ideals, chain-limit and starred chain-limit closures, the conjunctive
combination of one ideal-kind and one filter-kind operator, the lower
closures rho/phi, the frontier rho-elimination, and the hyperproperty
families AEH, AAH, EAH, NI, GNI, GD with their `HyperOracle` membership
predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional

from .rel_domain import SemTriple


class LatticeError(Exception):
    pass


class ToyLattice:
    """Finite lattice given by elements and a decidable order."""

    def __init__(self, elements: Iterable, leq: Callable, validate: bool = True):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise LatticeError("duplicate elements")
        self._idx = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        self._down = [0] * n  # down[i]: mask of elements below element i
        self._up = [0] * n
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                if leq(b, a):
                    self._down[i] |= 1 << j
                if leq(a, b):
                    self._up[i] |= 1 << j
        if validate:
            self._validate()
        full = (1 << n) - 1
        bots = [i for i in range(n) if self._up[i] == full]
        tops = [i for i in range(n) if self._down[i] == full]
        if len(bots) != 1 or len(tops) != 1:
            raise LatticeError("missing top or bottom")
        self._bot_i, self._top_i = bots[0], tops[0]
        self.bot = self.elements[self._bot_i]
        self.top = self.elements[self._top_i]
        self._join_tab = {}
        self._meet_tab = {}
        for i in range(n):
            for j in range(i, n):
                ub = self._up[i] & self._up[j]
                lb = self._down[i] & self._down[j]
                jn = self._unique_extreme(ub, lower=True)
                mt = self._unique_extreme(lb, lower=False)
                if jn is None or mt is None:
                    raise LatticeError(
                        "no unique lub/glb for %r, %r" %
                        (self.elements[i], self.elements[j]))
                self._join_tab[(i, j)] = self._join_tab[(j, i)] = jn
                self._meet_tab[(i, j)] = self._meet_tab[(j, i)] = mt
        self._dual = None

    @property
    def dual(self) -> "ToyLattice":
        """The order-dual lattice on the same elements, built once.

        Attributes are assigned in `__init__`'s order so that both lattices
        keep the same instance-dict layout.
        """
        if self._dual is None:
            d = ToyLattice.__new__(ToyLattice)
            d.elements = self.elements
            d._idx = self._idx
            d._down, d._up = self._up, self._down
            d._bot_i, d._top_i = self._top_i, self._bot_i
            d.bot, d.top = self.top, self.bot
            d._join_tab, d._meet_tab = self._meet_tab, self._join_tab
            d._dual = self
            self._dual = d
        return self._dual

    def _validate(self):
        n = len(self.elements)
        for i in range(n):
            if not self._down[i] & (1 << i):
                raise LatticeError("order not reflexive")
            for j in range(n):
                below = self._down[i] & (1 << j)
                if below and self._down[j] & (1 << i) and i != j:
                    raise LatticeError("order not antisymmetric")
                if below and (self._down[j] & ~self._down[i]):
                    raise LatticeError("order not transitive")

    def _unique_extreme(self, mask: int, lower: bool) -> Optional[int]:
        # least element of an upper-bound set / greatest of a lower-bound set
        best = None
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            cover = self._down[i] if not lower else self._up[i]
            if cover & mask == mask:
                if best is not None:
                    return None
                best = i
        return best

    # ---- constructors -----------------------------------------------------
    @classmethod
    def powerset(cls, base: Iterable) -> "ToyLattice":
        items = tuple(base)
        elems = [frozenset(c) for r in range(len(items) + 1)
                 for c in combinations(items, r)]
        return cls(elems, lambda a, b: a <= b, validate=False)

    @classmethod
    def from_pairs(cls, elements: Iterable, pairs: Iterable) -> "ToyLattice":
        """Order generated by `pairs` (reflexive-transitive closure taken)."""
        elems = tuple(elements)
        idx = {e: i for i, e in enumerate(elems)}
        n = len(elems)
        le = [[False] * n for _ in range(n)]
        for i in range(n):
            le[i][i] = True
        for a, b in pairs:
            le[idx[a]][idx[b]] = True
        for k in range(n):
            for i in range(n):
                if le[i][k]:
                    row_k = le[k]
                    row_i = le[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        return cls(elems, lambda a, b: le[idx[a]][idx[b]])

    # ---- basics -----------------------------------------------------------
    def index(self, e) -> int:
        return self._idx[e]

    def leq(self, a, b) -> bool:
        return bool(self._down[self._idx[b]] & (1 << self._idx[a]))

    def mask(self, subset: Iterable) -> int:
        m = 0
        for e in subset:
            m |= 1 << self._idx[e]
        return m

    def unmask(self, m: int) -> frozenset:
        out = []
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            out.append(self.elements[i])
        return frozenset(out)

    def subsets(self):
        """All subsets of the carrier as masks (exhaustive batteries)."""
        return range(1 << len(self.elements))

    def join(self, subset: Iterable):
        i = self._bot_i
        for e in subset:
            i = self._join_tab[(i, self._idx[e])]
        return self.elements[i]

    def meet(self, subset: Iterable):
        i = self._top_i
        for e in subset:
            i = self._meet_tab[(i, self._idx[e])]
        return self.elements[i]

    # ---- mask-level operators ---------------------------------------------
    def down_mask(self, m: int) -> int:
        out = 0
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            out |= self._down[i]
        return out

    def min_mask(self, m: int) -> int:
        out = 0
        mm = m
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            if self._down[i] & m & ~(1 << i) == 0:
                out |= 1 << i
        return out

    def principal_ideal_mask(self, m: int) -> int:
        i = self._bot_i
        mm = m
        while mm:
            j = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            i = self._join_tab[(i, j)]
        return self._down[i]

    def rho_down_mask(self, m: int) -> int:
        out = 0
        mm = m
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            if self._down[i] & ~m == 0:
                out |= 1 << i
        return out

    def phi_mask(self, f, m: int) -> int:
        fi = self._idx[f]
        out = 0
        mm = m
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            if not self._down[i] & (1 << fi):
                continue
            interval = self._down[i] & self._up[fi]
            if interval & ~m == 0:
                out |= 1 << i
        return out

    def rho_frontier_mask(self, m: int) -> int:
        out = 0
        front = self.min_mask(m)
        while front:
            fi = (front & -front).bit_length() - 1
            front &= front - 1
            out |= self.phi_mask(self.elements[fi], m)
        return out


# ---------------------------------------------------------------------------
# Declared chain families

_WORDS = {"down": ("decreasing", "a lower"), "up": ("increasing", "an upper")}


def _oriented(lat: ToyLattice, direction: str) -> ToyLattice:
    """The lattice on which a `direction` chain decreases."""
    return lat if direction == "down" else lat.dual


@dataclass(frozen=True)
class Family:
    name: str
    elements: tuple
    limit: object
    direction: str = "down"        # 'down': decreasing chain with glb limit
    parametric: bool = True        # listed members stand for an infinite tail


@dataclass(frozen=True)
class ChainPoset:
    lattice: ToyLattice
    families: tuple = ()

    def __post_init__(self):
        # an "up" family is checked as a "down" family of the dual lattice
        for f in self.families:
            if f.direction not in _WORDS:
                raise LatticeError("bad direction %r" % f.direction)
            lat = _oriented(self.lattice, f.direction)
            monotone, bound = _WORDS[f.direction]
            seq = f.elements
            if not all(lat.leq(b, a) for a, b in zip(seq, seq[1:])):
                raise LatticeError("family %s not %s" % (f.name, monotone))
            if not all(lat.leq(f.limit, e) for e in seq):
                raise LatticeError("limit of %s not %s bound" % (f.name, bound))
            if not f.parametric and lat.meet(seq) != f.limit:
                raise LatticeError("limit of %s is not its glb/lub" % f.name)


def _as_chainposet(cp) -> ChainPoset:
    return cp if isinstance(cp, ChainPoset) else ChainPoset(cp, ())


# ---------------------------------------------------------------------------
# Abstraction operators (public frozenset API)

def alpha_join(lat: ToyLattice, props: Iterable):
    return lat.join(props)


def gamma_join(lat: ToyLattice, q) -> frozenset:
    return lat.unmask(lat._down[lat.index(q)])


def homomorphic(h: Callable, props: Iterable) -> frozenset:
    return frozenset(h(p) for p in props)


def eliminate(props: Iterable, interest: Iterable) -> frozenset:
    return frozenset(props) & frozenset(interest)


def principal_ideal(lat: ToyLattice, props: Iterable) -> frozenset:
    return lat.unmask(lat.principal_ideal_mask(lat.mask(props)))


def principal_filter(lat: ToyLattice, props: Iterable) -> frozenset:
    return lat.unmask(lat.dual.principal_ideal_mask(lat.mask(props)))


def order_ideal(lat: ToyLattice, props: Iterable) -> frozenset:
    return lat.unmask(lat.down_mask(lat.mask(props)))


def order_filter(lat: ToyLattice, props: Iterable) -> frozenset:
    return lat.unmask(lat.dual.down_mask(lat.mask(props)))


def frontier_min(lat: ToyLattice, props: Iterable) -> frozenset:
    return lat.unmask(lat.min_mask(lat.mask(props)))


def frontier_max(lat: ToyLattice, props: Iterable) -> frozenset:
    return lat.unmask(lat.dual.min_mask(lat.mask(props)))


def frontier_order_ideal(lat: ToyLattice, props: Iterable, dual=False) -> frozenset:
    """Up-closure of the min frontier; with dual=True the down-closure of the
    max frontier, which is the same operator on the dual lattice."""
    if dual:
        lat = lat.dual
    return lat.unmask(lat.dual.down_mask(lat.min_mask(lat.mask(props))))


def rho_subseteq(lat: ToyLattice, props: Iterable) -> frozenset:
    """Lower closure keeping the members whose down-set stays inside."""
    return lat.unmask(lat.rho_down_mask(lat.mask(props)))


def phi_subseteq(lat: ToyLattice, f, props: Iterable) -> frozenset:
    return lat.unmask(lat.phi_mask(f, lat.mask(props)))


def rho_frontier(lat: ToyLattice, props: Iterable) -> frozenset:
    return lat.unmask(lat.rho_frontier_mask(lat.mask(props)))


def _chain(cp, props, direction: str) -> frozenset:
    """Add the limits of declared `direction` chains wholly inside the set.

    Finite chains contribute nothing new: on a finite carrier the limit of a
    finite chain is its last member, already in the set.
    """
    cp = _as_chainposet(cp)
    given = frozenset(props)
    out = set(given)
    for f in cp.families:
        if f.direction == direction and set(f.elements) <= given:
            out.add(f.limit)
    return frozenset(out)


def chain_down(cp, props: Iterable) -> frozenset:
    return _chain(cp, props, "down")


def chain_up(cp, props: Iterable) -> frozenset:
    return _chain(cp, props, "up")


def _star(op, cp, props):
    cp = _as_chainposet(cp)
    cap = len(cp.families) + len(cp.lattice.elements) + 1
    x = frozenset(props)
    for _ in range(cap):
        y = x | op(cp, x)
        if y == x:
            return x
        x = y
    raise LatticeError("starred chain closure did not stabilize")


def chain_down_star(cp, props: Iterable) -> frozenset:
    return _star(chain_down, cp, props)


def chain_up_star(cp, props: Iterable) -> frozenset:
    return _star(chain_up, cp, props)


def order_ideal_chain_up(cp, props: Iterable) -> frozenset:
    """The composed operator alpha-ideal after chain-up (one application)."""
    cp = _as_chainposet(cp)
    return order_ideal(cp.lattice, chain_up(cp, props))


def order_ideal_chain_up_star(cp, props: Iterable) -> frozenset:
    return _star(lambda c, p: order_ideal_chain_up(c, p), cp, props)


def order_filter_chain_down(cp, props: Iterable) -> frozenset:
    cp = _as_chainposet(cp)
    return order_filter(cp.lattice, chain_down(cp, props))


def order_filter_chain_down_star(cp, props: Iterable) -> frozenset:
    return _star(lambda c, p: order_filter_chain_down(c, p), cp, props)


OPS_IDEAL_KIND = {
    "order_ideal": lambda cp, p: order_ideal(_as_chainposet(cp).lattice, p),
    "frontier_order_ideal_dual": lambda cp, p: frontier_order_ideal(
        _as_chainposet(cp).lattice, p, dual=True),
    "order_ideal_chain_up_star": order_ideal_chain_up_star,
    "principal_ideal": lambda cp, p: principal_ideal(_as_chainposet(cp).lattice, p),
}

OPS_FILTER_KIND = {
    "order_filter": lambda cp, p: order_filter(_as_chainposet(cp).lattice, p),
    "frontier_order_ideal": lambda cp, p: frontier_order_ideal(
        _as_chainposet(cp).lattice, p),
    "order_filter_chain_down_star": order_filter_chain_down_star,
    "principal_filter": lambda cp, p: principal_filter(_as_chainposet(cp).lattice, p),
}


def conjunctive(alpha1: str, alpha2: str, cp, props: Iterable) -> frozenset:
    """Reduced-product style conjunction of an ideal-kind and a filter-kind
    abstraction."""
    if alpha1 not in OPS_IDEAL_KIND:
        raise ValueError("alpha1 must be ideal-kind, got %r" % alpha1)
    if alpha2 not in OPS_FILTER_KIND:
        raise ValueError("alpha2 must be filter-kind, got %r" % alpha2)
    return OPS_IDEAL_KIND[alpha1](cp, props) & OPS_FILTER_KIND[alpha2](cp, props)


# ---------------------------------------------------------------------------
# Presented subsets of a ChainPoset (counterexample support)

def _frontier_presented(cp: ChainPoset, explicit, included_families,
                        direction: str) -> frozenset:
    lat = cp.lattice
    m = lat.mask(explicit)
    blocked = 0
    for name in included_families:
        fam = next((f for f in cp.families if f.name == name), None)
        if fam is None:
            raise LatticeError("unknown family %r" % (name,))
        if fam.direction != direction or not fam.parametric:
            raise LatticeError("included family %s is not a parametric "
                               "%s-chain" % (name, direction))
        m |= lat.mask(fam.elements)
        blocked |= lat.mask(e for e in fam.elements if e != fam.limit)
    return lat.unmask(_oriented(lat, direction).min_mask(m) & ~blocked)


def frontier_max_presented(cp: ChainPoset, explicit: Iterable,
                           included_families: Iterable = ()) -> frozenset:
    """Maximal elements of a presented subset.

    Members of an included parametric up-family are never maximal: the
    family keeps growing beyond the listed fragment (the declared limit
    itself is not part of the presented set).
    """
    return _frontier_presented(cp, explicit, included_families, "up")


def frontier_min_presented(cp: ChainPoset, explicit: Iterable,
                           included_families: Iterable = ()) -> frozenset:
    """Minimal elements of a presented subset; members of an included
    parametric down-family keep descending and are never minimal."""
    return _frontier_presented(cp, explicit, included_families, "down")


# ---------------------------------------------------------------------------
# Hyperproperty families

@dataclass(frozen=True)
class HyperOracle:
    """Total, deterministic membership predicate on triples."""

    fn: Callable
    name: str = "<oracle>"

    def contains(self, t) -> bool:
        return bool(self.fn(t))


def _aeh(a):
    def member(p):
        return all(any((x, y) in a for y in p) for x in p)
    return member


def _aah(a):
    def member(p):
        return all((x, y) in a for x in p for y in p)
    return member


def _eah(a):
    def member(p):
        return any(all((x, y) in a for y in p) for x in p)
    return member


def _executions(t) -> frozenset:
    # finite executions of a denotation triple, as (first, last) state pairs
    return t.e if isinstance(t, SemTriple) else frozenset(t)


def _ni(space, low, high):
    li = space.index(low)

    def member(t):
        runs = _executions(t)
        return all(s1[li] != s2[li] or e1[li] == e2[li]
                   for (s1, e1) in runs for (s2, e2) in runs)
    return member


def _gni(space, low, high):
    # every low output reachable from a low start is reachable from that low
    # start with each high start that occurs: group the runs by start
    li, hi = space.index(low), space.index(high)

    def member(t):
        by_low, by_start = {}, {}
        for (s, e) in _executions(t):
            by_low.setdefault(s[li], set()).add(e[li])
            by_start.setdefault((s[li], s[hi]), set()).add(e[li])
        return all(by_low[lo] <= outs for (lo, _), outs in by_start.items())
    return member


def _gd(space, low, high):
    # the exact negation of generalized noninterference: some pair of
    # low-equal runs admits no third run masking the high influence
    gni = _gni(space, low, high)
    return lambda t: not gni(t)


def family(name: str, *, A=None, space=None,
           low="l", high="h") -> HyperOracle:
    """Membership oracle for a hyperproperty family member.

    AEH/AAH/EAH take an explicit relation A over the finite carrier and apply
    to subsets of it; NI/GNI/GD take low/high variable names and apply to
    denotation triples (their finite executions).
    """
    if name in ("AEH", "AAH", "EAH"):
        if A is None:
            raise ValueError("%s needs the relation A" % name)
        a = frozenset(A)
        fn = {"AEH": _aeh, "AAH": _aah, "EAH": _eah}[name](a)
        return HyperOracle(fn, "%s(A)" % name)
    if name in ("NI", "GNI", "GD"):
        if space is None:
            raise ValueError("%s needs the state space" % name)
        fn = {"NI": _ni, "GNI": _gni, "GD": _gd}[name](space, low, high)
        return HyperOracle(fn, "%s(low=%s,high=%s)" % (name, low, high))
    raise ValueError("unknown family %r" % name)


# ---------------------------------------------------------------------------
# Lattice description files

# error texts are formatted only on failure: the benchmark builds a lattice
# from its description on every operation

def _listed(value, what, *args) -> list:
    if not isinstance(value, (list, tuple)):
        raise LatticeError("%s must be a list, got %r" % (what % args, value))
    return value


def _known(items, known, what, *args) -> tuple:
    """`items` as a tuple, each of them an element; else the error names
    `what % args` and the first that is not."""
    for e in items:
        try:
            ok = e in known
        except TypeError:  # unhashable, so no element
            ok = False
        if not ok:
            raise LatticeError("%s names unknown element %r"
                               % (what % args, e))
    return tuple(items)


def lattice_from_config(cfg: dict):
    """Build a ToyLattice or ChainPoset from a description dict.

    Keys: elements (list of string names), leq (list of [a,b] order pairs,
    reflexive-transitive closure taken), optional families with
    {family, elements, limit, direction, parametric}, each family under a
    distinct string name.  A malformed description raises LatticeError
    naming the bad value.
    """
    if not isinstance(cfg, dict):
        raise LatticeError("a lattice description is an object, got %r"
                           % (cfg,))
    if "elements" not in cfg:
        raise LatticeError('lattice description has no "elements"')
    elements = _listed(cfg["elements"], '"elements"')
    if not set(map(type, elements)) <= {str}:  # one pass, no Python loop
        bad = next(e for e in elements if type(e) is not str)
        raise LatticeError("element %r is not a string" % (bad,))
    known = set(elements)
    pairs = []
    for pair in _listed(cfg.get("leq", []), '"leq"'):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise LatticeError("leq entry %r is not a pair" % (pair,))
        pairs.append(_known(pair, known, "leq pair %r", pair))
    lat = ToyLattice.from_pairs(elements, pairs)
    fams = []
    for k, f in enumerate(_listed(cfg.get("families", []), '"families"')):
        if not isinstance(f, dict):
            raise LatticeError("family %r is not an object" % (f,))
        name = f.get("family", "F%d" % k)
        if type(name) is not str:
            raise LatticeError("family name %r is not a string" % (name,))
        if any(g.name == name for g in fams):
            raise LatticeError("two families are named %r" % (name,))
        members = _listed(f.get("elements", []), "elements of family %r", name)
        if not members:
            raise LatticeError("family %r has no elements" % (name,))
        if "limit" not in f:
            raise LatticeError("family %r has no limit" % (name,))
        direction = f.get("direction", "down")
        if not isinstance(direction, str):
            raise LatticeError("bad direction %r" % (direction,))
        parametric = f.get("parametric", True)
        if not isinstance(parametric, bool):
            raise LatticeError("parametric of family %r must be true or "
                               "false, got %r" % (name, parametric))
        limit, = _known((f["limit"],), known, "limit of family %r", name)
        fams.append(Family(name, _known(members, known, "family %r", name),
                           limit, direction, parametric))
    if fams:
        return ChainPoset(lat, tuple(fams))
    return lat
