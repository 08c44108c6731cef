"""Hyperproperty abstraction algebra on finitely presented lattices.

`ToyLattice` is an explicit finite lattice (elements, decidable order); the
constructor validates the partial-order and lattice axioms eagerly.
`ChainPoset` adds declared chain families with limits: the chain-limit
operators quantify over the declared families only (plus all finite chains,
whose limits are already members), which under-approximates "all chains" but
suffices for every counterexample reproduced here.  A family may be marked
parametric, meaning the listed members stand for an infinite chain whose
limit is the declared one rather than the least listed member.

Subsets of the carrier are plain frozensets in the public API and bitmasks
inside.  Each public operator crosses that boundary once each way: `mask`
on the way in (an element outside the carrier raises KeyError naming it),
then only ints, composed and starred operators included, then `unmask` on
the way out, or the input set itself when a composed operator leaves it
unchanged.  `chain_down`/`chain_up` alone test sets, against each family's
member set computed once, since that beats the round trip.  `unmask` keeps
the frozensets it builds for masks below 2^10 (at most 1024 sets of up to
10 elements, under 0.8 MB) and builds the others bit by bit.

Lattice kernels on byte tables ("four Russians"): a union or an
intersection of per-element rows over the bits of a mask is one lookup per
byte of the mask, in a table of at most 256 entries per byte.  A lattice
holds six such lookups: the unions of the down-sets, of the up-sets, of the
strict up-sets and of the strict down-sets, and the intersections of the
up-sets and of the down-sets (the common upper and lower bounds).  With
full the carrier, up(x) the union of the up-sets of x and above(x) that of
the strict up-sets, the kernels read

    down_mask(m)            = the union of the down-sets of m
    min_mask(m)             = m & ~above(m)
    rho_down_mask(m)        = m & ~up(full & ~m)
    phi_mask(f, m)          = m & up[f] & ~up(up[f] & ~m)
    principal_ideal_mask(m) = down[k], up[k] the common upper bounds of m

and `rho_frontier_mask` ORs `phi_mask` over the min frontier.  Each lookup
builds its tables on first use and keeps them on the lattice.

Order duality: `ToyLattice.dual` is the same carrier with the order
reversed.  It shares the parent's memo, rows and lookups, their tables
included, with down/up, strictly below/above, lower/upper bounds,
join/meet and bottom/top swapped.  The parent holds its dual and the dual
only a weak reference back, so dropping the last reference to a lattice
frees both at once; a dual whose parent has died builds a new one when
asked.  By the duality principle each filter-side operator is its
ideal-side partner computed on the dual: the order and principal filters,
the max frontier, the frontier order ideal with dual=True and the max
frontier of a presented subset.  An increasing family is checked as a
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

import operator
import weakref
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Callable, Iterable

from . import rel_domain as rd
from .lang import Record
from .rel_domain import SemTriple


class LatticeError(Exception):
    pass


_set = object.__setattr__


# `unmask` keeps the frozensets of masks below this bound: every subset of a
# carrier of up to 10 elements, under 0.8 MB of sets on any carrier
_MEMO_LIMIT = 1 << 10


def _byte_tables(rows: list, combine, unit: int) -> list:
    """Per byte of a mask, `combine` (OR or AND, with `unit` its identity)
    of `rows[i]` over the bits i set in each value of that byte, so a union
    or an intersection of rows takes one entry per byte.  Entry b + 2^k, for
    b < 2^k, is entry b combined with the byte's row k."""
    tabs = []
    for lo in range(0, len(rows), 8):
        t = [unit]
        for row in rows[lo:lo + 8]:
            t += list(map(combine, t, repeat(row)))
        tabs.append(t)
    return tabs


def _read(tabs: list, combine) -> Callable[[int], int]:
    """m -> `combine` of the entries of `tabs` that the bytes of m select.
    One table is read by its own `__getitem__` and two by one expression:
    the loop alone gives the same results, but made the `lattice-laws`
    benchmark (8 to 10 elements) 6 % slower on a 2-core machine."""
    if len(tabs) == 1:
        return tabs[0].__getitem__
    if len(tabs) == 2:  # carriers of 9 to 16 elements
        t0, t1 = tabs
        return lambda m: combine(t0[m & 255], t1[m >> 8])
    first, rest = tabs[0], tabs[1:]

    def read(m):
        out = first[m & 255]
        for t in rest:
            m >>= 8
            out = combine(out, t[m & 255])
        return out
    return read


class _Lookup:
    """`fn(m)`: `combine` of `rows[i]` over the bits i of m (`unit` for the
    empty mask), by one table entry per byte of m.  The first call builds
    the tables and stores their reader as the instance's `fn`, which then
    shadows this method; no reference cycle is formed.  Read `fn` anew on
    each call: one taken before the first call rebuilds the tables."""

    def __init__(self, rows: list, combine=operator.or_, unit: int = 0):
        self.rows, self.combine, self.unit = rows, combine, unit

    def fn(self, m: int) -> int:
        self.fn = _read(_byte_tables(self.rows, self.combine, self.unit),
                        self.combine)
        return self.fn(m)


class ToyLattice:
    """Finite lattice given by elements and a decidable order."""

    def __init__(self, elements: Iterable, leq: Callable, validate: bool = True):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise LatticeError("duplicate elements")
        self._idx = {e: i for i, e in enumerate(self.elements)}
        self._bit = {e: 1 << i for i, e in enumerate(self.elements)}
        self._sets = {}  # unmask memo, masks below _MEMO_LIMIT only
        n = len(self.elements)
        self._full = full = (1 << n) - 1
        self._down = [0] * n  # down[i]: mask of elements below element i
        self._up = [0] * n
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                if leq(b, a):
                    self._down[i] |= 1 << j
                    self._up[j] |= 1 << i
        if validate:
            self._validate()
        bots = [i for i in range(n) if self._up[i] == full]
        tops = [i for i in range(n) if self._down[i] == full]
        if len(bots) != 1 or len(tops) != 1:
            raise LatticeError("missing top or bottom")
        self._bot_i, self._top_i = bots[0], tops[0]
        self.bot = self.elements[self._bot_i]
        self.top = self.elements[self._top_i]
        self._join_tab = {}
        self._meet_tab = {}
        # the lub of i, j is the element whose up-set is exactly their common
        # upper bounds (antisymmetry makes up-sets distinct); dually the glb
        self._by_up = by_up = {u: k for k, u in enumerate(self._up)}
        self._by_down = by_down = {d: k for k, d in enumerate(self._down)}
        for i in range(n):
            for j in range(i, n):
                jn = by_up.get(self._up[i] & self._up[j])
                mt = by_down.get(self._down[i] & self._down[j])
                if jn is None or mt is None:
                    raise LatticeError(
                        "no unique lub/glb for %r, %r" %
                        (self.elements[i], self.elements[j]))
                self._join_tab[(i, j)] = self._join_tab[(j, i)] = jn
                self._meet_tab[(i, j)] = self._meet_tab[(j, i)] = mt
        # byte-table lookups, each built on its first call
        self._downs = _Lookup(self._down)
        self._ups = _Lookup(self._up)
        self._below = _Lookup([d ^ 1 << i for i, d in enumerate(self._down)])
        self._above = _Lookup([u ^ 1 << i for i, u in enumerate(self._up)])
        self._lower_bounds = _Lookup(self._down, operator.and_, -1)
        self._upper_bounds = _Lookup(self._up, operator.and_, -1)
        self._dual = None  # the dual; on a dual, a weak reference back

    @property
    def dual(self) -> "ToyLattice":
        """The order-dual lattice on the same elements, built once per
        parent.

        Attributes are assigned in `__init__`'s order so that both lattices
        keep the same instance-dict layout.
        """
        d = self._dual
        if type(d) is ToyLattice:
            return d
        if d is not None:  # a dual's weak reference to its parent
            d = d()
        if d is None:
            d = ToyLattice.__new__(ToyLattice)
            d.elements = self.elements
            d._idx, d._bit, d._sets = self._idx, self._bit, self._sets
            d._full = self._full
            d._down, d._up = self._up, self._down
            d._bot_i, d._top_i = self._top_i, self._bot_i
            d.bot, d.top = self.top, self.bot
            d._join_tab, d._meet_tab = self._meet_tab, self._join_tab
            d._by_up, d._by_down = self._by_down, self._by_up
            d._downs, d._ups = self._ups, self._downs
            d._below, d._above = self._above, self._below
            d._lower_bounds = self._upper_bounds
            d._upper_bounds = self._lower_bounds
            d._dual = weakref.ref(self)
            self._dual = d
        return d

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
        bit = {e: 1 << i for i, e in enumerate(elems)}
        up = [1 << i for i in range(len(elems))]  # up[i]: i's upper bounds
        for a, b in pairs:
            up[idx[a]] |= bit[b]
        # Warshall on rows: whatever is below k gains everything above k
        for k, row in enumerate(up):
            k_bit = 1 << k
            for i, r in enumerate(up):
                if r & k_bit:
                    up[i] = r | row
        return cls(elems, lambda a, b: up[idx[a]] & bit[b])

    # ---- basics -----------------------------------------------------------
    def index(self, e) -> int:
        return self._idx[e]

    def leq(self, a, b) -> bool:
        return bool(self._down[self._idx[b]] & (1 << self._idx[a]))

    def mask(self, subset: Iterable) -> int:
        bit = self._bit
        m = 0
        for e in subset:
            m |= bit[e]
        return m

    def unmask(self, m: int) -> frozenset:
        s = self._sets.get(m)
        if s is None:
            out = []
            rest = m
            while rest:
                i = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                out.append(self.elements[i])
            s = frozenset(out)
            if m < _MEMO_LIMIT:
                self._sets[m] = s
        return s

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

    # ---- mask-level operators (byte-table kernels) -------------------------
    def down_mask(self, m: int) -> int:
        return self._downs.fn(m)

    def min_mask(self, m: int) -> int:
        return m & ~self._above.fn(m)

    def principal_ideal_mask(self, m: int) -> int:
        return self._down[self._by_up[self._upper_bounds.fn(m) & self._full]]

    def rho_down_mask(self, m: int) -> int:
        return m & ~self._ups.fn(self._full & ~m)

    def phi_mask(self, f, m: int) -> int:
        uf = self._up[self._idx[f]]
        return m & uf & ~self._ups.fn(uf & ~m)

    def rho_frontier_mask(self, m: int) -> int:
        """The union of phi_mask(f, m) over the min frontier f of m."""
        out = 0
        front = self.min_mask(m)
        while front:
            low = front & -front
            front ^= low
            uf = self._up[low.bit_length() - 1]
            out |= uf & ~self._ups.fn(uf & ~m)
        return m & out


# ---------------------------------------------------------------------------
# Declared chain families

_WORDS = {"down": ("decreasing", "a lower"), "up": ("increasing", "an upper")}


def _oriented(lat: ToyLattice, direction: str) -> ToyLattice:
    """The lattice on which a `direction` chain decreases."""
    return lat if direction == "down" else lat.dual


class Family(Record):
    __slots__ = ("name", "elements", "limit", "direction", "parametric")

    def __init__(self, name: str, elements: tuple, limit,
                 direction: str = "down", parametric: bool = True):
        _set(self, "name", name)
        _set(self, "elements", elements)
        _set(self, "limit", limit)
        # 'down': decreasing chain with glb limit
        _set(self, "direction", direction)
        # listed members stand for an infinite tail
        _set(self, "parametric", parametric)


class ChainPoset(Record):
    __slots__ = ("lattice", "families", "_chains", "_presented")

    def __init__(self, lattice: ToyLattice, families: tuple = ()):
        _set(self, "lattice", lattice)
        _set(self, "families", families)
        # an "up" family is checked as a "down" family of the dual lattice
        lat = self.lattice
        chains = {"down": [], "up": []}
        presented = {}
        for f in self.families:
            if f.direction not in _WORDS:
                raise LatticeError("bad direction %r" % f.direction)
            oriented = _oriented(lat, f.direction)
            monotone, bound = _WORDS[f.direction]
            seq = f.elements
            if not all(oriented.leq(b, a) for a, b in zip(seq, seq[1:])):
                raise LatticeError("family %s not %s" % (f.name, monotone))
            if not all(oriented.leq(f.limit, e) for e in seq):
                raise LatticeError("limit of %s not %s bound" % (f.name, bound))
            if not f.parametric and oriented.meet(seq) != f.limit:
                raise LatticeError("limit of %s is not its glb/lub" % f.name)
            chain = (frozenset(seq), lat.mask(seq), f.limit, lat._bit[f.limit])
            chains[f.direction].append(chain)
            presented.setdefault(f.name, (f.direction, f.parametric, chain))
        # per direction: (member set, member mask, limit, limit bit)
        _set(self, "_chains", chains)
        # per family name, the first family so named: (direction, parametric,
        # its `_chains` entry)
        _set(self, "_presented", presented)

    def chain_mask(self, m: int, direction: str) -> int:
        """m with the limit of each `direction` family wholly inside m."""
        out = m
        for _, members, _, limit in self._chains[direction]:
            if members & m == members:
                out |= limit
        return out


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
    finite chain is its last member, already in the set.  Set tests beat
    the mask round trip here, and a set that gains no limit is returned.
    """
    given = frozenset(props)
    added = [limit for members, _, limit, _ in
             _as_chainposet(cp)._chains[direction]
             if limit not in given and members <= given]
    return given.union(added) if added else given


def chain_down(cp, props: Iterable) -> frozenset:
    return _chain(cp, props, "down")


def chain_up(cp, props: Iterable) -> frozenset:
    return _chain(cp, props, "up")


# mask-level steps of the starred operators and the conjunctive members:
# (ChainPoset, mask) -> mask

def _chain_down_step(cp: ChainPoset, m: int) -> int:
    return cp.chain_mask(m, "down")


def _chain_up_step(cp: ChainPoset, m: int) -> int:
    return cp.chain_mask(m, "up")


def _ideal_chain_up_step(cp: ChainPoset, m: int) -> int:
    return cp.lattice.down_mask(cp.chain_mask(m, "up"))


def _filter_chain_down_step(cp: ChainPoset, m: int) -> int:
    return cp.lattice.dual.down_mask(cp.chain_mask(m, "down"))


def _star(step, cp: ChainPoset, m: int) -> int:
    """The least mask above m closed under `step`, by iterating
    x -> x | step(cp, x)."""
    for _ in range(len(cp.families) + len(cp.lattice.elements) + 1):
        y = m | step(cp, m)
        if y == m:
            return m
        m = y
    raise LatticeError("starred chain closure did not stabilize")


def _on_masks(step, cp, props, star=False) -> frozenset:
    """`step`, or with star=True its starred closure, applied to the mask of
    `props`: one crossing each way."""
    cp = _as_chainposet(cp)
    lat = cp.lattice
    m = lat.mask(props)
    out = _star(step, cp, m) if star else step(cp, m)
    if out == m and type(props) is frozenset:
        return props
    return lat.unmask(out)


def chain_down_star(cp, props: Iterable) -> frozenset:
    return _on_masks(_chain_down_step, cp, props, star=True)


def chain_up_star(cp, props: Iterable) -> frozenset:
    return _on_masks(_chain_up_step, cp, props, star=True)


def order_ideal_chain_up(cp, props: Iterable) -> frozenset:
    """The composed operator alpha-ideal after chain-up (one application)."""
    return _on_masks(_ideal_chain_up_step, cp, props)


def order_ideal_chain_up_star(cp, props: Iterable) -> frozenset:
    return _on_masks(_ideal_chain_up_step, cp, props, star=True)


def order_filter_chain_down(cp, props: Iterable) -> frozenset:
    return _on_masks(_filter_chain_down_step, cp, props)


def order_filter_chain_down_star(cp, props: Iterable) -> frozenset:
    return _on_masks(_filter_chain_down_step, cp, props, star=True)


# the members of a conjunction, on masks: (ChainPoset, mask) -> mask
OPS_IDEAL_KIND = {
    "order_ideal": lambda cp, m: cp.lattice.down_mask(m),
    "frontier_order_ideal_dual": lambda cp, m: cp.lattice.down_mask(
        cp.lattice.dual.min_mask(m)),
    "order_ideal_chain_up_star": lambda cp, m: _star(_ideal_chain_up_step,
                                                     cp, m),
    "principal_ideal": lambda cp, m: cp.lattice.principal_ideal_mask(m),
}

OPS_FILTER_KIND = {
    "order_filter": lambda cp, m: cp.lattice.dual.down_mask(m),
    "frontier_order_ideal": lambda cp, m: cp.lattice.dual.down_mask(
        cp.lattice.min_mask(m)),
    "order_filter_chain_down_star": lambda cp, m: _star(
        _filter_chain_down_step, cp, m),
    "principal_filter": lambda cp, m: cp.lattice.dual.principal_ideal_mask(m),
}


def conjunctive(alpha1: str, alpha2: str, cp, props: Iterable) -> frozenset:
    """Reduced-product style conjunction of an ideal-kind and a filter-kind
    abstraction."""
    if alpha1 not in OPS_IDEAL_KIND:
        raise ValueError("alpha1 must be ideal-kind, got %r" % alpha1)
    if alpha2 not in OPS_FILTER_KIND:
        raise ValueError("alpha2 must be filter-kind, got %r" % alpha2)
    ideal, filt = OPS_IDEAL_KIND[alpha1], OPS_FILTER_KIND[alpha2]
    return _on_masks(lambda c, m: ideal(c, m) & filt(c, m), cp, props)


# ---------------------------------------------------------------------------
# Presented subsets of a ChainPoset (counterexample support)

def _frontier_presented(cp: ChainPoset, explicit, included_families,
                        direction: str) -> frozenset:
    lat = cp.lattice
    m = lat.mask(explicit)
    blocked = 0
    for name in included_families:
        fam = cp._presented.get(name)
        if fam is None:
            raise LatticeError("unknown family %r" % (name,))
        fam_direction, parametric, (_, members, _, limit) = fam
        if fam_direction != direction or not parametric:
            raise LatticeError("included family %s is not a parametric "
                               "%s-chain" % (name, direction))
        m |= members
        blocked |= members & ~limit
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

# the one record that stays a dataclass: the benchmark's tracer wraps an
# oracle's `fn` through `dataclasses.replace`
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


def _executions(t, space):
    # finite executions of a denotation triple or a relation, as
    # (first, last) state pairs
    return rd.pairs(t.e if isinstance(t, SemTriple) else t, space)


def _ni(space, low, high):
    li = space.index(low)

    def member(t):
        # low-equal starts end low-equal: one low end per low start
        end = {}
        return all(end.setdefault(s[li], e[li]) == e[li]
                   for s, e in _executions(t, space))
    return member


def _gni(space, low, high):
    # every low output reachable from a low start is reachable from that low
    # start with each high start that occurs: group the runs by start
    li, hi = space.index(low), space.index(high)

    def member(t):
        by_low, by_start = {}, {}
        for (s, e) in _executions(t, space):
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


_LATTICE_KEYS = frozenset(("elements", "leq", "families"))
_FAMILY_KEYS = frozenset(("family", "elements", "limit", "direction",
                          "parametric"))


def lattice_from_config(cfg: dict):
    """Build a ToyLattice or ChainPoset from a description dict.

    Keys: elements (list of string names), leq (list of [a,b] order pairs,
    reflexive-transitive closure taken), optional families with
    {family, elements, limit, direction, parametric}, each family under a
    distinct string name.  A malformed description, or one with another
    key, raises LatticeError naming the bad value or key.
    """
    if not isinstance(cfg, dict):
        raise LatticeError("a lattice description is an object, got %r"
                           % (cfg,))
    if "elements" not in cfg:
        raise LatticeError('lattice description has no "elements"')
    if not cfg.keys() <= _LATTICE_KEYS:
        raise LatticeError(rd.unknown_key(cfg, _LATTICE_KEYS,
                                           "lattice description"))
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
        if not f.keys() <= _FAMILY_KEYS:
            raise LatticeError(rd.unknown_key(f, _FAMILY_KEYS,
                                               "family %r" % (name,)))
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
