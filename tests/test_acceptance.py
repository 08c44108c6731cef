"""Acceptance criteria, one test per criterion, exact (discrete) tolerances.

Each test prints a single PASS/FAIL line; run with `pytest -s` to see them
inline.  All checks are equality checks on finite objects, driven by the same
suites the `hl selftest` command runs.
"""


from hyperlab import interpreter as it
from hyperlab import rel_domain as rd
from hyperlab import selftest as st
from hyperlab.lang import parse
from hyperlab.rel_domain import StateSpace


def _criterion(num, label, checks):
    ok = all(c[1] for c in checks)
    print("ACCEPTANCE %02d %-4s %s" % (num, "PASS" if ok else "FAIL", label))
    bad = [(name, detail) for name, good, detail in checks if not good]
    assert not bad, bad


def test_criterion_01_relational_examples():
    _criterion(1, "relational worked examples S1-S4, exact triple equality",
               st.suite_relational())


def test_criterion_02_trace_example():
    _criterion(2, "bounded trace semantics of the even/odd loop",
               st.suite_trace())


def test_criterion_03_oracle_equivalence():
    _criterion(3, ">=500 random programs, sem == oracle_sem exactly",
               st.suite_oracle(n=500))


def test_criterion_04_calculus_soundness_completeness():
    _criterion(4, "structural post/Post equal direct transformers",
               st.suite_calculus(n=250))


def test_criterion_05_galois_laws():
    _criterion(5, "post/pre~ and Post/Pre adjunctions on the |Sigma|=2 space",
               st.suite_galois())


def test_criterion_06_conditional_exactness():
    _criterion(6, "tied conditional image strictly inside the cross product",
               st.suite_conditional_exactness())


def test_criterion_07_weak_hypercollecting():
    _criterion(7, "Post(while) inside weak hypercollecting, strict witness",
               st.suite_weak())


def test_criterion_08_abstraction_algebra():
    _criterion(8, "closure/retraction laws exhaustive on pow(4-element base)",
               st.suite_abstraction_laws())


def test_criterion_09_counterexamples():
    _criterion(9, "chain-limit and frontier counterexamples reproduce",
               st.suite_chain_cex() + st.suite_frontier_cex())


def test_criterion_10_rules():
    _criterion(10, "forall-exists, principal ideal, coincidence, duality",
               st.suite_rules())


def test_criterion_11_commutation():
    _criterion(11, "trace-to-relational abstraction commutes with sem",
               st.suite_commutation())


def test_acceptance_extras_pin_exact_windows():
    # the stated windows, pinned: saturating mode keeps the divergences
    checks = []
    s1 = it.sem(parse(st.S1_SRC), st.SPACE_Y)
    checks.append(("S1 window is y in [-3,3]",
                   st.SPACE_Y == StateSpace.make(("y",), -3, 3), ""))
    checks.append(("S1 diverges exactly below zero",
                   s1.inf == rd.mask(((v,) for v in range(-3, 0)), st.SPACE_Y),
                   ""))
    checks.append(("S3/S4 window is x,y in [-2,2]",
                   st.SPACE_XY == StateSpace.make(("x", "y"), -2, 2), ""))
    checks.append(("saturating arithmetic is the default",
                   st.SPACE_Y.arith == "saturate", ""))
    _criterion(0, "window pinning", checks)
