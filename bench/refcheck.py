"""Fast tests of the benchmark's own reference computations (no `hyperlab`).

    python3 bench/refcheck.py

The file name keeps it out of the repository's pytest collection, so the
tier-1 suite is unchanged.
"""

import os
import random
import sys
import unittest
from itertools import combinations, product

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refs  # noqa: E402
import workloads  # noqa: E402

DEC_Y = ("set", "y", ("-", ("v", "y"), ("c", 1)))
S1 = ("while", ("!=", ("v", "y"), ("c", 0)), DEC_Y)


def _cubic_gni(runs, li, hi):
    return all(any(s3[li] == s1[li] and s3[hi] == s2[hi] and e3[li] == e1[li]
                   for s3, e3 in runs)
               for s1, e1 in runs for s2, _ in runs if s1[li] == s2[li])


class ClosedForms(unittest.TestCase):
    """The S1-S4 closed forms of the selftest corpus, worked by hand."""

    def test_s1_simulation(self):
        sp = refs.space(["y"], -3, 3)
        e, inf = refs.run_program(S1, sp)
        self.assertEqual(e, {((y,), (0,)) for y in range(0, 4)})
        self.assertEqual(inf, {(y,) for y in range(-3, 0)})

    def test_s2_simulation(self):
        sp = refs.space(["y"], -3, 3)
        e, inf = refs.run_program(("seq", ("rand", "y", None, None), S1), sp)
        self.assertEqual(e, {((y,), (0,)) for y in range(-3, 4)})
        self.assertEqual(inf, {(y,) for y in range(-3, 4)})

    def test_s3_closed_form(self):
        sp = refs.space(["x1", "x2"], -2, 2)
        sts = refs.states(sp)
        want_e = {(s, s) for s in sts if s[0] == 0} | \
            {(s, (0, 0)) for s in sts if s[0] > 0}
        want_inf = {s for s in sts if s[0] != 0}
        got = refs.reset_nest_expected(2, False, "", (0, 0), sp)
        self.assertEqual(got, (want_e, want_inf))
        self.assertEqual(refs.run_program(refs.reset_nest(2, False, ""), sp), got)

    def test_s4_closed_form(self):
        sp = refs.space(["x1", "x2"], -2, 2)
        sts = refs.states(sp)
        want_e = {(s, (0, s[1])) for s in sts} | {(s, (0, 0)) for s in sts}
        got = refs.reset_nest_expected(2, True, "", (0, 0), sp)
        self.assertEqual(got, (want_e, set(sts)))
        self.assertEqual(refs.run_program(refs.reset_nest(2, True, ""), sp), got)

    def test_nest_closed_form_matches_simulation(self):
        for depth, prefix, comp, lo in product((2, 3), (False, True),
                                               ("", "rand", "inc"), (-1, 0)):
            sp = refs.space(["x%d" % k for k in range(1, depth + 1)] + ["z"],
                            [lo] * depth + [0], [1] * depth + [2])
            prog = refs.reset_nest(depth, prefix, comp, (1, 2))
            self.assertEqual(refs.reset_nest_expected(depth, prefix, comp, (1, 2), sp),
                             refs.run_program(prog, sp), (depth, prefix, comp, lo))

    def test_count_loop_closed_form_matches_simulation(self):
        for n, comp in product((0, 3, 5), ("rand", "inc")):
            sp = refs.space(["i", "c"], [0, 0], [6, 2])
            self.assertEqual(refs.count_loop_expected(n, comp, (1, 3), sp),
                             refs.run_program(refs.count_loop(n, comp, (1, 3)), sp))

    def test_saturating_countdown_diverges(self):
        sp = refs.space(["x"], -1, 1)
        prog = ("while", ("!=", ("v", "x"), ("c", 0)),
                ("set", "x", ("-", ("v", "x"), ("c", 1))))
        self.assertEqual(refs.run_program(prog, sp),
                         ({((0,), (0,)), ((1,), (0,))}, {(-1,)}))

    def test_source_round_trip_shape(self):
        self.assertEqual(refs.source(S1), "while (y != 0) y = (y - 1);")
        self.assertEqual(refs.source(("rand", "x", None, 2)), "x = [-oo, 2];")


class Hyperproperties(unittest.TestCase):
    SP = refs.space(["l", "h"], 0, 1)

    def _post_all(self, prog):
        sts = refs.states(self.SP)
        sem = refs.run_program(prog, self.SP) + (frozenset(),)
        pre = (frozenset((s, s) for s in sts), frozenset(), frozenset())
        return refs.compose_post(sem, pre)

    def test_copy_high_fails_ni_and_holds_gd(self):
        q = self._post_all(("set", "l", ("v", "h")))
        self.assertFalse(refs.ni(q[0], 0))
        self.assertFalse(refs.gni(q[0], 0, 1))
        self.assertTrue(refs.gd(q[0], 0, 1))

    def test_constant_holds_ni_and_gni(self):
        q = self._post_all(("set", "l", ("c", 1)))
        self.assertTrue(refs.ni(q[0], 0))
        self.assertTrue(refs.gni(q[0], 0, 1))
        self.assertFalse(refs.gd(q[0], 0, 1))

    def test_random_output_fails_ni_but_holds_gni(self):
        q = self._post_all(("rand", "l", 0, 1))
        self.assertFalse(refs.ni(q[0], 0))
        self.assertTrue(refs.gni(q[0], 0, 1))

    def test_gni_matches_the_cubic_definition(self):
        rng = random.Random(7)
        sts = list(product(range(2), range(3)))
        for _ in range(300):
            runs = {(rng.choice(sts), rng.choice(sts)) for _ in range(rng.randint(0, 8))}
            want = _cubic_gni(runs, 0, 1)
            self.assertEqual(refs.gni(runs, 0, 1), want)
            self.assertEqual(refs.gd(runs, 0, 1), not want)

    def test_compose_post_by_hand(self):
        sem = ({((0,), (1,))}, {(1,)}, {((2,), (0,))})
        p = ({((5,), (0,)), ((6,), (1,)), ((7,), (2,))}, {(9,)}, {((8,), (8,))})
        e, inf, br = refs.compose_post(sem, p)
        self.assertEqual(e, {((5,), (1,))})
        self.assertEqual(inf, {(9,), (6,)})
        self.assertEqual(br, {((8,), (8,)), ((7,), (0,))})

    def test_weak_iterates_stop_at_first_repeat(self):
        step = {((0,), (1,)), ((1,), (1,))}
        its = refs.weak_iterates({((0,), (0,))}, step)
        self.assertEqual(its, [frozenset({((0,), (0,))}), frozenset({((0,), (1,))})])


class Operators(unittest.TestCase):
    """Order-theoretic operator definitions on the four-element diamond."""

    def setUp(self):
        covers = [("bot", "0"), ("bot", "1"), ("0", "top"), ("1", "top")]
        self.o = workloads._closure(["bot", "0", "1", "top"], covers)
        self.F = frozenset

    def test_ideals_and_filters(self):
        o, F = self.o, self.F
        self.assertEqual(refs.op_order_ideal(o, F({"0"})), F({"bot", "0"}))
        self.assertEqual(refs.op_order_filter(o, F({"0"})), F({"0", "top"}))
        self.assertEqual(refs.op_principal_ideal(o, F({"0", "1"})), F(o.elements))
        self.assertEqual(refs.op_principal_filter(o, F({"0", "1"})), F(o.elements))
        self.assertEqual(refs.op_principal_ideal(o, F()), F({"bot"}))

    def test_min_frontier_is_not_monotone(self):
        o, F = self.o, self.F
        p1, p2 = F({"top"}), F({"0", "1", "top"})
        self.assertEqual(refs.op_min(o, p1), F({"top"}))
        self.assertEqual(refs.op_min(o, p2), F({"0", "1"}))
        self.assertEqual(refs.op_max(o, p2), F({"top"}))

    def test_lower_closures(self):
        o, F = self.o, self.F
        self.assertEqual(refs.op_rho(o, F({"bot", "0", "top"})), F({"bot", "0"}))
        self.assertEqual(refs.op_phi(o, "0", F({"0", "top"})), F({"0", "top"}))
        self.assertEqual(refs.op_phi(o, "bot", F({"bot", "top"})), F({"bot"}))
        self.assertEqual(refs.op_rho_frontier(o, F({"0", "1", "top"})),
                         F({"0", "1", "top"}))

    def test_chain_limits(self):
        F = self.F
        fams = [{"family": "d", "elements": ["top", "0"], "limit": "bot",
                 "direction": "down", "parametric": True}]
        self.assertEqual(refs.op_chain(fams, F({"top", "0"}), "down"),
                         F({"top", "0", "bot"}))
        self.assertEqual(refs.op_chain(fams, F({"top"}), "down"), F({"top"}))
        self.assertEqual(refs.op_star(lambda X: refs.op_chain(fams, X, "down"),
                                      F({"top", "0"})), F({"top", "0", "bot"}))
        self.assertEqual(refs.op_presented(self.o, fams, F(), ["d"], "down"),
                         F())

    def test_join_gamma_galois(self):
        o = self.o
        for r in range(5):
            for X in map(frozenset, combinations(o.elements, r)):
                for q in o.elements:
                    self.assertEqual(o.leq(o.lub(X), q), X <= o.down[q])


class Scaling(unittest.TestCase):
    def test_reference_work_is_fixed(self):
        rel = refs.reference_input()
        self.assertEqual(refs.reference_work(rel, 5), refs.reference_work(rel, 5))
        self.assertGreater(refs.reference_work(rel, 5), 0)


if __name__ == "__main__":
    unittest.main()
