"""The benchmark's traced run still reaches the lab.

`bench/tracer.py` wraps lab functions by (module, attribute) from outside,
replacing every module-level binding of each one.  A rename, or a value that
captures a traced function before the tracer runs, would silently drop its
span; these tests catch both.
"""

import importlib
import importlib.util
import json
import pathlib

import pytest

from hyperlab.selftest import S3_SRC, SPACE_XY

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
MODULES = ("lang", "rel_domain", "interpreter", "trace_domain", "transformers",
           "hyperlogic", "abstractions", "selftest", "cli")


@pytest.fixture
def tracer_mod():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def lab():
    """The lab's modules, restored after the test (the tracer rebinds)."""
    mods = {m: importlib.import_module("hyperlab." + m) for m in MODULES}
    saved = {m: dict(vars(mod)) for m, mod in mods.items()}
    init = mods["abstractions"].ToyLattice.__init__
    yield mods
    for m, mod in mods.items():
        for key, val in saved[m].items():
            setattr(mod, key, val)
    mods["abstractions"].ToyLattice.__init__ = init


def test_every_traced_name_resolves(tracer_mod, lab):
    for mod, attr, _name in tracer_mod.SPANS:
        obj = lab[mod]
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (mod, attr)
    for op in tracer_mod.OPERATORS:
        assert callable(getattr(lab["abstractions"], op)), op


def test_traced_sem_records_the_relational_layer(tracer_mod, lab, tmp_path):
    (tmp_path / "s3.hl").write_text(S3_SRC)
    (tmp_path / "space.json").write_text(json.dumps(SPACE_XY.to_config()))
    tracer = tracer_mod.Tracer()
    tracer.install(lab)
    tracer.begin_op()
    assert lab["cli"].main(["sem", "--program", str(tmp_path / "s3.hl"),
                            "--space", str(tmp_path / "space.json"),
                            "--json"]) == 0
    tracer.end_op(1.0)
    calls = {name: c for name, (c, _self_s) in tracer.totals().items()}
    for name in ("rel_domain.compose", "rel_domain.prim", "interpreter.lfp",
                 "interpreter.gfp"):
        assert calls.get(name, 0) > 0, name


def test_traced_forall_exists_check_records_the_weak_iterates(tracer_mod, lab,
                                                               tmp_path):
    # the rule runs the weak iterates of each antecedent once: the family
    # is the synthesized invariant and also gives the weak-hypercollecting
    # conclusion
    space = {"vars": ["l", "h"], "lo": 0, "hi": 1}
    pre = [{"e": [[[a, b], [a, b]]]} for a, b in ((0, 0), (0, 1), (1, 1))]
    files = {"loop.hl": "while (h > 0) { h = h - 1; l = l + 1; }\n",
             "space.json": json.dumps(space), "pre.json": json.dumps(pre),
             "post.json": json.dumps(pre)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    tracer = tracer_mod.Tracer()
    tracer.install(lab)
    tracer.begin_op()
    assert lab["cli"].main(["check", "--rule", "forall_exists",
                            "--program", str(tmp_path / "loop.hl"),
                            "--space", str(tmp_path / "space.json"),
                            "--pre", str(tmp_path / "pre.json"),
                            "--post-oracle", str(tmp_path / "post.json"),
                            "--json"]) in (0, 1)
    tracer.end_op(1.0)
    calls = {name: c for name, (c, _self_s) in tracer.totals().items()}
    assert calls["transformers.weak_while_iterates"] == len(pre)
    assert calls["rel_domain.prim"] > 0


def test_traced_noninterference_check_records_the_family_oracle(tracer_mod,
                                                                lab, tmp_path):
    # the tracer wraps the NI oracle's `fn` through `dataclasses.replace`,
    # which is why `HyperOracle` stays a dataclass
    pre = [{"e": [[[a, b], [a, b]] for b in (0, 1)]} for a in (0, 1)]
    files = {"leak.hl": "l = h;\n", "pre.json": json.dumps(pre),
             "space.json": json.dumps({"vars": ["l", "h"], "lo": 0, "hi": 1})}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    tracer = tracer_mod.Tracer()
    tracer.install(lab)
    tracer.begin_op()
    assert lab["cli"].main(["check", "--program", str(tmp_path / "leak.hl"),
                            "--space", str(tmp_path / "space.json"),
                            "--pre", str(tmp_path / "pre.json"),
                            "--post-oracle", "NI", "--json"]) == 1
    tracer.end_op(1.0)
    calls = {name: c for name, (c, _self_s) in tracer.totals().items()}
    assert calls["abstractions.family.NI"] >= 1
    assert calls["hyperlogic.check_upper"] == 1
