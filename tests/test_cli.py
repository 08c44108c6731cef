import json
import sys

import pytest

from hyperlab import cli
from hyperlab import rel_domain as rd
from hyperlab import selftest
from hyperlab.cli import main


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "countdown.hl").write_text("while (y != 0) y = y - 1;\n")
    (tmp_path / "leak.hl").write_text("l = h;\n")
    (tmp_path / "space_y.json").write_text(json.dumps(
        {"vars": ["y"], "lo": -3, "hi": 3, "arith": "saturate"}))
    (tmp_path / "space_lh.json").write_text(json.dumps(
        {"vars": ["l", "h"], "lo": 0, "hi": 1, "arith": "saturate"}))
    (tmp_path / "init_y.json").write_text(json.dumps(
        [{"e": [[[v], [v]] for v in range(-3, 4)], "inf": [], "br": []}]))
    (tmp_path / "lattice.json").write_text(json.dumps({
        "elements": ["bot", "a", "b", "top"],
        "leq": [["bot", "a"], ["bot", "b"], ["a", "top"], ["b", "top"]],
    }))
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sem_reports_triple_and_oracle_flag(workdir, capsys):
    code, out, _ = run_cli(capsys, "sem",
                           "--program", str(workdir / "countdown.hl"),
                           "--space", str(workdir / "space_y.json"),
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_agrees"] is True
    assert [[0], [0]] in payload["triple"]["e"]
    assert [-1] in payload["triple"]["inf"]


def test_sem_output_is_byte_stable(workdir, capsys):
    args = ("sem", "--program", str(workdir / "countdown.hl"),
            "--space", str(workdir / "space_y.json"), "--json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_trace_text_output(workdir, capsys):
    (workdir / "bump.hl").write_text("y = y + 1;\n")
    code, out, _ = run_cli(capsys, "trace",
                           "--program", str(workdir / "bump.hl"),
                           "--space", str(workdir / "space_y.json"),
                           "--L", "4")
    assert code == 0
    assert "y:0;y:1" in out.splitlines()


_TRACE_TEXT = """\
x:10,y:-1
x:10,y:0
x:2,y:-1;x:6,y:-1;x:10,y:-1
x:2,y:0;x:6,y:0;x:10,y:0
x:3,y:-1;x:7,y:-1;x:10,y:-1
x:3,y:0;x:7,y:0;x:10,y:0
x:4,y:-1;x:8,y:-1;x:10,y:-1
x:4,y:0;x:8,y:0;x:10,y:0
x:5,y:-1;x:9,y:-1;x:10,y:-1
x:5,y:0;x:9,y:0;x:10,y:0
x:6,y:-1;x:10,y:-1
x:6,y:0;x:10,y:0
x:7,y:-1;x:10,y:-1
x:7,y:0;x:10,y:0
x:8,y:-1;x:10,y:-1
x:8,y:0;x:10,y:0
x:9,y:-1;x:10,y:-1
x:9,y:0;x:10,y:0
divergent starts: x:-1,y:-1 x:-1,y:0
warning: traces beyond length 3 were dropped
"""

_TRACE_JSON = (
    '{"div_starts":[[-1,-1],[-1,0]],"traces":['
    '[[2,-1],[6,-1],[10,-1]],[[2,0],[6,0],[10,0]],'
    '[[3,-1],[7,-1],[10,-1]],[[3,0],[7,0],[10,0]],'
    '[[4,-1],[8,-1],[10,-1]],[[4,0],[8,0],[10,0]],'
    '[[5,-1],[9,-1],[10,-1]],[[5,0],[9,0],[10,0]],'
    '[[6,-1],[10,-1]],[[6,0],[10,0]],[[7,-1],[10,-1]],[[7,0],[10,0]],'
    '[[8,-1],[10,-1]],[[8,0],[10,0]],[[9,-1],[10,-1]],[[9,0],[10,0]],'
    '[[10,-1]],[[10,0]]],"truncated":true}\n')


def test_trace_output_bytes_are_pinned(workdir, capsys):
    # x = -1 diverges, x = 0 and 1 take four states (past L = 3), the
    # others one to three; the text lines sort as strings (x:10 first),
    # the JSON traces and both divergent-start lists in numeric order
    (workdir / "step.hl").write_text(
        "while (x != 10) { if (x < 0) skip; else x = x + 4; }\n")
    (workdir / "space_xy.json").write_text(
        '{"vars": ["x", "y"], "lo": [-1, -1], "hi": [10, 0]}')
    argv = ("trace", "--program", str(workdir / "step.hl"),
            "--space", str(workdir / "space_xy.json"), "--L", "3")
    assert run_cli(capsys, *argv) == (0, _TRACE_TEXT, "")
    assert run_cli(capsys, *argv, "--json") == (0, _TRACE_JSON, "")


@pytest.mark.parametrize("bound", ("0", "-1"))
def test_trace_rejects_a_bound_below_one_naming_the_flag(workdir, capsys,
                                                          bound):
    # checked before any file is read: these files do not exist
    assert run_cli(capsys, "trace", "--program", str(workdir / "none.hl"),
                   "--space", str(workdir / "none.json"), "--L", bound) == (
        2, "", "error: --L must be >= 1, got %s\n" % bound)


def test_trace_past_the_trace_cap_exits_two_naming_both_numbers(workdir,
                                                                 capsys):
    # each round multiplies the traces by four, to about 1.4 million at
    # L = 64: the cap refuses the set long before memory runs out
    (workdir / "fan.hl").write_text(
        "while (i < 9) { i = i + 1; c = [0,3]; }\n")
    (workdir / "space_ic.json").write_text(
        '{"vars": ["i", "c"], "lo": 0, "hi": [9, 3]}')
    code, out, err = run_cli(capsys, "trace",
                             "--program", str(workdir / "fan.hl"),
                             "--space", str(workdir / "space_ic.json"),
                             "--L", "64", "--json")
    size = int(err.split()[5])
    assert (code, out, err) == (
        2, "", "error: a trace set reached %d traces, more than the limit "
        "of 200000\n" % size)
    assert 200000 < size < 2 * 200000


def test_post_and_hyper_post(workdir, capsys):
    code, out, _ = run_cli(capsys, "post",
                           "--program", str(workdir / "countdown.hl"),
                           "--space", str(workdir / "space_y.json"),
                           "--pre", str(workdir / "init_y.json"), "--json")
    assert code == 0
    assert json.loads(out)["post"][0]["e"]
    code, out, _ = run_cli(capsys, "hyper-post",
                           "--program", str(workdir / "countdown.hl"),
                           "--space", str(workdir / "space_y.json"),
                           "--pre", str(workdir / "init_y.json"), "--json")
    assert code == 0
    assert len(json.loads(out)["Post"]) == 1


def test_check_noninterference_exit_codes(workdir, capsys):
    (workdir / "init_lh.json").write_text(json.dumps(
        [{"e": [[[a, b], [a, b]] for a in (0, 1) for b in (0, 1)],
          "inf": [], "br": []}]))
    code, out, _ = run_cli(capsys, "check",
                           "--program", str(workdir / "leak.hl"),
                           "--space", str(workdir / "space_lh.json"),
                           "--pre", str(workdir / "init_lh.json"),
                           "--post-oracle", "NI", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fails" and payload["witnesses"]
    (workdir / "safe.hl").write_text("l = 0;\n")
    code, _, _ = run_cli(capsys, "check",
                         "--program", str(workdir / "safe.hl"),
                         "--space", str(workdir / "space_lh.json"),
                         "--pre", str(workdir / "init_lh.json"),
                         "--post-oracle", "NI", "--json")
    assert code == 0


def test_check_while_upper_rule_from_flags(workdir, capsys):
    (workdir / "post_any.json").write_text(json.dumps([
        {"e": [[[v], [0]] for v in range(0, 4)],
         "inf": [[v] for v in range(-3, 0)], "br": []}]))
    code, out, _ = run_cli(capsys, "check",
                           "--program", str(workdir / "countdown.hl"),
                           "--space", str(workdir / "space_y.json"),
                           "--pre", str(workdir / "init_y.json"),
                           "--rule", "while_upper",
                           "--post-oracle", str(workdir / "post_any.json"),
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rule"] == "while_upper"
    names = {p["name"]: p["ok"] for p in payload["premises"]}
    assert names["agreement"]


def test_check_while_rule_rejects_non_loop(workdir, capsys):
    (workdir / "straight.hl").write_text("y = 1;\n")
    code, _, err = run_cli(capsys, "check",
                           "--program", str(workdir / "straight.hl"),
                           "--space", str(workdir / "space_y.json"),
                           "--pre", str(workdir / "init_y.json"),
                           "--rule", "while_upper",
                           "--post-oracle", str(workdir / "init_y.json"))
    assert code == 2 and "while loop" in err


@pytest.mark.parametrize("rule", ["while_upper", "while_lower",
                                  "forall_exists"])
def test_check_loop_rule_refuses_straight_line_program(workdir, capsys,
                                                       rule):
    # the rule refuses the construct itself; flags and request alike
    (workdir / "init_lh.json").write_text(json.dumps(
        [{"e": [[[0, 0], [0, 0]]]}]))
    (workdir / "req.json").write_text(json.dumps(
        {"rule": rule, "program": "l = h;",
         "space": {"vars": ["l", "h"], "lo": 0, "hi": 1},
         "pre": [{"e": [[[0, 0], [0, 0]]]}], "post": []}))
    for argv in (("--program", str(workdir / "leak.hl"),
                  "--space", str(workdir / "space_lh.json"),
                  "--pre", str(workdir / "init_lh.json"),
                  "--rule", rule, "--post-oracle", "NI"),
                 ("--request", str(workdir / "req.json"))):
        assert run_cli(capsys, "check", *argv) == (
            2, "", "error: rule %r needs a single while loop\n" % rule)


def test_check_past_the_weak_iterate_cap_exits_2_naming_the_cap(workdir,
                                                                capsys):
    # the body permutes [0, 40] in cycles of the prime lengths 2 to 13, so
    # the weak iterates of the identity have period 30030, past the cap
    # 4|S|^2+16 = 6740: a resource limit, not a failed triple
    arms = "".join("if (x == %d) x = %d; else " % (hi, lo) for lo, hi in
                   ((0, 1), (2, 4), (5, 9), (10, 16), (17, 27), (28, 40)))
    (workdir / "perm.hl").write_text(
        "while (x >= 0) { %sx = x + 1; }\n" % arms)
    (workdir / "space_x.json").write_text(json.dumps(
        {"vars": ["x"], "lo": 0, "hi": 40}))
    (workdir / "id_x.json").write_text(json.dumps(
        [{"e": [[[v], [v]] for v in range(41)], "inf": [], "br": []}]))
    (workdir / "none.json").write_text("[]")
    assert run_cli(capsys, "check", "--rule", "forall_exists",
                   "--program", str(workdir / "perm.hl"),
                   "--space", str(workdir / "space_x.json"),
                   "--pre", str(workdir / "id_x.json"),
                   "--post-oracle", str(workdir / "none.json")) == (
        2, "", "error: weak iterates did not cycle within 6740 steps\n")


def test_forall_exists_on_a_body_that_breaks(workdir, capsys):
    # from init over x in [0,2] the weak set is three exit images: listed,
    # the rule holds on them; with the first dropped it fails, while the
    # triple itself still holds.  Flags and request agree
    loop = "while (x < 2) { if (x == 1) break; else x = x + 1; }"
    space = {"vars": ["x"], "lo": 0, "hi": 2}
    init = [{"e": [[[v], [v]] for v in range(3)], "inf": [], "br": []}]
    images = [{"e": [[[a], [b]] for a, b in pairs], "inf": [], "br": []}
              for pairs in (((2, 2),), ((1, 1), (2, 2)),
                            ((0, 1), (1, 1), (2, 2)))]
    for name, data in (("break.hl", loop), ("space_x.json", space),
                       ("init_x.json", init)):
        (workdir / name).write_text(
            data if isinstance(data, str) else json.dumps(data))
    for post, code in ((images, 0), (images[1:], 1)):
        (workdir / "post_x.json").write_text(json.dumps(post))
        (workdir / "req.json").write_text(json.dumps(
            {"rule": "forall_exists", "program": loop, "space": space,
             "pre": init, "post": post}))
        flags = run_cli(capsys, "check", "--rule", "forall_exists",
                        "--program", str(workdir / "break.hl"),
                        "--space", str(workdir / "space_x.json"),
                        "--pre", str(workdir / "init_x.json"),
                        "--post-oracle", str(workdir / "post_x.json"))
        request = run_cli(capsys, "check",
                          "--request", str(workdir / "req.json"))
        assert flags == request
        assert (flags[0], flags[2]) == (code, "")
        assert '"3 elements"' in flags[1]
        notes = {p["name"]: p["ok"] for p in json.loads(flags[1])["premises"]}
        assert notes["conclusion:direct"]
        assert notes["invariant exits in consequent"] == (code == 0)


def test_check_request_object(workdir, capsys):
    req = {
        "rule": "upper",
        "program": "l = h;",
        "space": {"vars": ["l", "h"], "lo": 0, "hi": 1},
        "pre": [{"e": [[[a, b], [a, b]] for a in (0, 1) for b in (0, 1)],
                 "inf": [], "br": []}],
        "post_oracle": "NI",
    }
    (workdir / "req.json").write_text(json.dumps(req))
    code, out, _ = run_cli(capsys, "check",
                           "--request", str(workdir / "req.json"), "--json")
    assert code == 1
    assert json.loads(out)["rule"] == "upper"


def test_check_parse_error_exits_two(workdir, capsys):
    (workdir / "broken.hl").write_text("while (x ;\n")
    code, _, err = run_cli(capsys, "sem",
                           "--program", str(workdir / "broken.hl"),
                           "--space", str(workdir / "space_y.json"))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("text", [
    # nested blocks and nested parentheses: the parser and the structural
    # walks recurse once per level of nesting
    pytest.param("{" * 1200 + "l = 1;" + "}" * 1200, id="nested-blocks"),
    pytest.param("l = %s1%s;\n" % ("(" * 400, ")" * 400),
                 id="deep-parentheses"),
])
@pytest.mark.parametrize("command", ["sem", "check"])
def test_too_deep_a_program_exits_two_naming_the_recursion_limit(
        workdir, capsys, text, command):
    (workdir / "deep.hl").write_text(text)
    (workdir / "no_pre.json").write_text("[]")
    argv = [command, "--program", str(workdir / "deep.hl"),
            "--space", str(workdir / "space_lh.json")]
    if command == "check":
        argv += ["--pre", str(workdir / "no_pre.json"), "--post-oracle", "NI"]
    assert run_cli(capsys, *argv) == (
        2, "", "error: input nested too deeply for the recursion limit (%d)\n"
        % sys.getrecursionlimit())


@pytest.mark.parametrize("command", ["sem", "check"])
def test_a_long_sequence_runs(workdir, capsys, command):
    # a sequence is one node, so its length does not count toward the
    # recursion limit
    (workdir / "long.hl").write_text("l = 1;\n" * 1200)
    argv = [command, "--program", str(workdir / "long.hl"),
            "--space", str(workdir / "space_lh.json"), "--json"]
    if command == "check":
        (workdir / "init_lh.json").write_text(json.dumps(LOOP_PRE))
        argv += ["--pre", str(workdir / "init_lh.json"), "--post-oracle", "NI"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    if command == "sem":
        assert payload["oracle_agrees"] is True
    else:
        assert payload["verdict"] == "holds"


def test_a_long_sequence_has_the_same_structural_and_direct_posts(workdir,
                                                                  capsys):
    # the structural post function of a sequence applies its statements in
    # one loop, so its length does not count toward the recursion limit
    (workdir / "long.hl").write_text("l = h;\nh = l + 1;\n" * 600)
    (workdir / "init_lh.json").write_text(json.dumps(LOOP_PRE))
    argv = ["--program", str(workdir / "long.hl"),
            "--space", str(workdir / "space_lh.json"),
            "--pre", str(workdir / "init_lh.json"), "--json"]
    code, out, err = run_cli(capsys, "post", *argv)
    assert (code, err) == (0, "")
    direct = json.loads(out)["post"]
    code, out, err = run_cli(capsys, "hyper-post", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["Post"] == direct


def test_a_loop_with_a_long_body_checks_by_the_while_rule(workdir, capsys):
    (workdir / "long_body.hl").write_text(
        "while (l == 0) {\n" + "h = 1 - h;\n" * 1199 + "l = 1;\n}\n")
    (workdir / "init_lh.json").write_text(json.dumps(LOOP_PRE))
    (workdir / "post.json").write_text(json.dumps(LOOP_POST))
    code, out, err = run_cli(capsys, "check",
                             "--program", str(workdir / "long_body.hl"),
                             "--space", str(workdir / "space_lh.json"),
                             "--pre", str(workdir / "init_lh.json"),
                             "--rule", "while_upper",
                             "--post-oracle", str(workdir / "post.json"),
                             "--json")
    assert code in (0, 1) and err == ""
    assert json.loads(out)["rule"] == "while_upper"


@pytest.mark.parametrize("command", ["sem", "trace", "post", "hyper-post"])
def test_free_break_rejected_by_cli(workdir, capsys, command):
    # the boundary refuses a free break before any semantics runs; for
    # `trace` it is the one guard, as its output has no break traces
    (workdir / "freebreak.hl").write_text("break;\n")
    pre = () if command in ("sem", "trace") else (
        "--pre", str(workdir / "init_y.json"))
    assert run_cli(capsys, command,
                   "--program", str(workdir / "freebreak.hl"),
                   "--space", str(workdir / "space_y.json"), *pre) == (
        2, "", "error: break without enclosing loop at AST path []\n")


def test_abstract_and_lattice_lab(workdir, capsys):
    code, out, _ = run_cli(capsys, "abstract",
                           "--lattice", str(workdir / "lattice.json"),
                           "--op", "order_ideal", "--set", "a", "--json")
    assert code == 0
    assert json.loads(out)["result"] == ["a", "bot"]
    code, out, _ = run_cli(capsys, "lattice-lab",
                           "--lattice", str(workdir / "lattice.json"),
                           "--json")
    assert code == 0
    assert json.loads(out)["bot"] == "bot"


# N5 (bot < a < c < top, bot < b < top) with a family in each direction
N5_FAMILIES = {
    "elements": ["bot", "a", "b", "c", "top"],
    "leq": [["bot", "a"], ["a", "c"], ["c", "top"], ["bot", "b"],
            ["b", "top"]],
    "families": [{"family": "d", "elements": ["top", "c", "a"],
                  "limit": "bot"},
                 {"family": "u", "elements": ["bot", "b"], "limit": "top",
                  "direction": "up"}]}
ABSTRACT_OPS = {
    "lattice": ("order_ideal", "order_filter", "principal_ideal",
                "principal_filter", "frontier_min", "frontier_max",
                "frontier_order_ideal", "rho_subseteq", "rho_frontier"),
    "chain poset": ("chain_down", "chain_up", "chain_down_star",
                    "chain_up_star")}


def test_abstract_applies_each_op_as_the_library_does(workdir, capsys):
    from hyperlab import abstractions as ab
    (workdir / "n5.json").write_text(json.dumps(N5_FAMILIES))
    cp = ab.lattice_from_config(N5_FAMILIES)
    els = N5_FAMILIES["elements"]
    for on, ops in ABSTRACT_OPS.items():
        arg = cp.lattice if on == "lattice" else cp
        for op in ops:
            for m in range(1 << len(els)):
                subset = [e for i, e in enumerate(els) if m >> i & 1]
                code, out, err = run_cli(
                    capsys, "abstract", "--lattice", str(workdir / "n5.json"),
                    "--op", op, "--set", ",".join(subset), "--json")
                want = sorted(map(str, getattr(ab, op)(arg, frozenset(subset))))
                assert (code, err) == (0, "")
                assert json.loads(out) == {"op": op, "result": want}, subset
    names = sorted(ABSTRACT_OPS["lattice"] + ABSTRACT_OPS["chain poset"])
    argv = ("abstract", "--lattice", str(workdir / "n5.json"))
    assert run_cli(capsys, *argv, "--op", "closure", "--set", "a") == (
        2, "", "error: unknown op 'closure' (have: %s)\n" % ", ".join(names))
    # an unknown element is reported before an unknown op
    assert run_cli(capsys, *argv, "--op", "closure", "--set", "a,zz") == (
        2, "", "error: unknown element 'zz'\n")


def test_lattice_lab_reports_construction_error(workdir, capsys):
    (workdir / "badlat.json").write_text(json.dumps({
        "elements": ["x", "y"], "leq": [["x", "y"], ["y", "x"]]}))
    code, _, err = run_cli(capsys, "lattice-lab",
                           "--lattice", str(workdir / "badlat.json"))
    assert code == 2 and "construction error" in err


_CHAIN = {"elements": ["bot", "top"], "leq": [["bot", "top"]]}
BAD_LATTICES = (
    pytest.param({"leq": [["bot", "top"]]}, '"elements"', id="no-elements"),
    pytest.param(dict(_CHAIN, families=[{"elements": ["top"]}]), "no limit",
                 id="no-limit"),
    pytest.param({"elements": ["bot", "top"], "leq": [["bot", "mid"]]},
                 "'mid'", id="unknown-in-leq"),
    pytest.param(dict(_CHAIN, families=[{"elements": ["mid"],
                                         "limit": "bot"}]),
                 "'mid'", id="unknown-in-family"),
    pytest.param(["bot", "top"], "['bot', 'top']", id="not-an-object"),
    pytest.param({"elements": "ab", "leq": [["a", "b"]]}, "'ab'",
                 id="elements-string"),
    pytest.param(dict(_CHAIN, families=[{"family": "F", "elements": [],
                                         "limit": "bot"}]),
                 "'F' has no elements", id="empty-family"),
    pytest.param(dict(_CHAIN, families=[{"elements": ["top"], "limit": "bot",
                                         "parametric": "false"}]),
                 "'false'", id="parametric-string"),
    pytest.param({"elements": [1, 2], "leq": [[1, 2]]},
                 "element 1 is not a string", id="element-not-a-string"),
    pytest.param(dict(_CHAIN, families=[{"family": ["x"], "elements": ["top"],
                                         "limit": "bot"}]),
                 "family name ['x'] is not a string",
                 id="family-name-not-a-string"),
    pytest.param(dict(_CHAIN, families=[
        {"family": "F", "elements": ["top"], "limit": "bot"},
        {"family": "F", "elements": ["top"], "limit": "bot"}]),
                 "two families are named 'F'", id="family-name-twice"),
    pytest.param(dict(_CHAIN, famlies=[]),
                 "lattice description has unknown key 'famlies'",
                 id="unknown-key"),
    pytest.param(dict(_CHAIN, families=[{"family": "F", "elements": ["top"],
                                         "limit": "bot", "parametrc": False}]),
                 "family 'F' has unknown key 'parametrc'",
                 id="unknown-family-key"),
)


@pytest.mark.parametrize("cfg,named", BAD_LATTICES)
@pytest.mark.parametrize("command", ("abstract", "lattice-lab"))
def test_malformed_lattice_description_exits_2_naming_the_value(
        workdir, capsys, command, cfg, named):
    (workdir / "bad.json").write_text(json.dumps(cfg))
    extra = ("--op", "order_ideal") if command == "abstract" else ()
    code, _, err = run_cli(capsys, command,
                           "--lattice", str(workdir / "bad.json"), *extra)
    assert code == 2 and named in err


def test_unknown_space_and_triple_keys_exit_2_naming_the_key(workdir,
                                                              capsys):
    # a misspelt key used to be ignored: "arithmetic" ran with saturate, and
    # {"ee": ...} was read as the empty triple
    space = {"vars": ["l", "h"], "lo": 0, "hi": 1, "arithmetic": "wrap"}
    pre = [{"e": [[[0, 0], [0, 0]]]}, {"ee": [[[0, 0], [0, 0]]]}]
    (workdir / "space_typo.json").write_text(json.dumps(space))
    (workdir / "pre_typo.json").write_text(json.dumps(pre))
    code, out, err = run_cli(capsys, "sem",
                             "--program", str(workdir / "leak.hl"),
                             "--space", str(workdir / "space_typo.json"))
    assert code == 2 and out == ""
    assert "space config has unknown key 'arithmetic'" in err
    code, out, err = run_cli(capsys, "check",
                             "--program", str(workdir / "leak.hl"),
                             "--space", str(workdir / "space_lh.json"),
                             "--pre", str(workdir / "pre_typo.json"),
                             "--post-oracle", "NI")
    assert code == 2 and out == ""
    assert "pre_typo.json: triple 2: a triple has unknown key 'ee'" in err
    fixed = {"vars": ["l", "h"], "lo": 0, "hi": 1, "arith": "wrap"}
    for req, named in (
            ({"space": space, "pre": pre[:1]},
             "space config has unknown key 'arithmetic'"),
            ({"space": fixed, "pre": pre},
             "request 'pre': triple 2: a triple has unknown key 'ee'")):
        (workdir / "req.json").write_text(json.dumps(
            dict(req, program="l = h;", post_oracle="NI")))
        code, out, err = run_cli(capsys, "check",
                                 "--request", str(workdir / "req.json"))
        assert code == 2 and out == "" and named in err


def test_selftest_filter_runs_single_suite(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--filter", "relational")
    assert code == 0
    assert "relational" in out and "oracle " not in out


def test_selftest_filter_matching_no_suite_exits_two(capsys):
    code, out, err = run_cli(capsys, "selftest", "--filter", "nosuch")
    assert (code, out) == (2, "")
    assert err.startswith("error: no selftest suite matches filter 'nosuch' "
                          "(have: relational, trace, oracle, ")


def test_selftest_reports_each_failed_check_and_exits_one(capsys,
                                                          monkeypatch):
    monkeypatch.setattr(selftest, "SUITES", (
        ("fine", lambda: [("holds", True, "")]),
        ("broken", lambda: [("holds", True, ""), ("misses", False, "2 of 3"),
                            ("also misses", False, "")])))
    lines = []
    assert selftest.run(out=lines.append) == 2
    # each suite's line ends in its time, which varies
    assert [line.rsplit(None, 1)[0] for line in lines[:2]] == [
        "fine             ok     1 checks", "broken           FAIL   3 checks"]
    assert lines[2:] == ["    FAIL misses: 2 of 3", "    FAIL also misses"]
    code, out, err = run_cli(capsys, "selftest")
    assert (code, err) == (1, "")
    assert out.splitlines()[2:] == lines[2:]
    code, out, err = run_cli(capsys, "selftest", "--filter", "fine")
    assert (code, out.split()[:2], err) == (0, ["fine", "ok"], "")


def test_sem_space_missing_key_exits_two(workdir, capsys):
    (workdir / "space_nohi.json").write_text(json.dumps(
        {"vars": ["l", "h"], "lo": 0}))
    code, out, err = run_cli(capsys, "sem",
                             "--program", str(workdir / "leak.hl"),
                             "--space", str(workdir / "space_nohi.json"))
    assert code == 2 and out == ""
    assert "error" in err and "'hi'" in err


@pytest.mark.parametrize("command", ["sem", "check"])
def test_an_oversized_space_exits_two_naming_its_size(workdir, capsys,
                                                      monkeypatch, command):
    # refused before any state tuple or |S|-by-|S| structure is built
    def unused(*_args):
        raise AssertionError("states were enumerated")

    monkeypatch.setattr(rd, "product", unused)
    space = {"vars": ["x", "y", "z"], "lo": 0, "hi": 1000}
    if command == "sem":
        (workdir / "set_x.hl").write_text("x = 1;\n")
        (workdir / "big.json").write_text(json.dumps(space))
        argv = ("sem", "--program", str(workdir / "set_x.hl"),
                "--space", str(workdir / "big.json"))
    else:
        (workdir / "req.json").write_text(json.dumps(
            {"program": "x = 1;", "space": space, "pre": []}))
        argv = ("check", "--request", str(workdir / "req.json"))
    assert run_cli(capsys, *argv) == (
        2, "", "error: space config has 1003003001 states, more than the "
        "limit of %d\n" % rd.MAX_STATES)


@pytest.mark.parametrize("space, want", (
    ([1], "space config must be a JSON object"),
    ({"vars": ["x", "y"], "lo": [0], "hi": 1},
     "bounds do not match variables: 2 variables, 1 lo and 2 hi bounds"),
    ({"vars": ["x", "y"], "lo": 0, "hi": [2, 1, 0]},
     "bounds do not match variables: 2 variables, 2 lo and 3 hi bounds"),
    ({"vars": ["x", "y", "z"], "lo": [0, 3, 5], "hi": [2, 1, 4]},
     "lo > hi for variable 'y': 3 > 1")),
    ids=("not-an-object", "short-lo", "long-hi", "lo-above-hi"))
def test_a_bad_space_exits_two_naming_what_is_wrong(workdir, capsys, space,
                                                    want):
    (workdir / "bad.json").write_text(json.dumps(space))
    assert run_cli(capsys, "sem", "--program", str(workdir / "leak.hl"),
                   "--space", str(workdir / "bad.json")) == (
        2, "", "error: %s\n" % want)


@pytest.mark.parametrize("pre, want", (
    ([5], "a triple must be a JSON object, got 5"),
    ([{"e": [[[0, 0]]]}], "a pair must be two states, got [[0, 0]]"),
    ([{"e": 5}], "triple component 'e' must be an array, got 5")),
    ids=("not-an-object", "short-pair", "e-not-an-array"))
@pytest.mark.parametrize("command", ("post", "hyper-post"))
def test_an_ill_typed_triple_exits_two_naming_it(workdir, capsys, command,
                                                 pre, want):
    path = str(workdir / "bad_pre.json")
    (workdir / "bad_pre.json").write_text(json.dumps(pre))
    assert run_cli(capsys, command, "--program", str(workdir / "leak.hl"),
                   "--space", str(workdir / "space_lh.json"),
                   "--pre", path) == (
        2, "", "error: %s: triple 1: %s\n" % (path, want))


@pytest.mark.parametrize("cfg, want", (
    ({"elements": ["a", "b"], "leq": [["a"]]},
     "leq entry ['a'] is not a pair"),
    ({"elements": ["a", "b"], "leq": [["a", ["b"]]]},
     "leq pair ['a', ['b']] names unknown element ['b']"),
    (dict(_CHAIN, families=[5]), "family 5 is not an object"),
    (dict(_CHAIN, families=[{"elements": ["top"], "limit": "bot",
                             "direction": 5}]), "bad direction 5")),
    ids=("short-leq-entry", "unhashable-element", "family-not-an-object",
         "direction-not-a-string"))
@pytest.mark.parametrize("command, prefix", (
    ("abstract", "error"), ("lattice-lab", "construction error")),
    ids=("abstract", "lattice-lab"))
def test_a_bad_lattice_exits_two_with_the_exact_message(workdir, capsys, cfg,
                                                        want, command, prefix):
    (workdir / "bad.json").write_text(json.dumps(cfg))
    extra = ("--op", "order_ideal") if command == "abstract" else ()
    assert run_cli(capsys, command, "--lattice", str(workdir / "bad.json"),
                   *extra) == (2, "", "%s: %s\n" % (prefix, want))


def _files(tmp_path, contents):
    paths = []
    for k, data in enumerate(contents):
        path = tmp_path / ("f%d" % k)
        path.write_bytes(data)
        paths.append(str(path))
    return paths


def _text_read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_read_text_is_a_text_mode_read(tmp_path):
    for path in _files(tmp_path, (
            b"", b"x = 1;\r\ny = 2;\r\n", b"a\rb\r", b"\r\r\n\n\r",
            b"\xef\xbb\xbf{\"vars\": [\"x\"]}\r\n",
            "l = h; // \u00e9\u2200\U0001d538\r\n".encode("utf-8"),
            b"a" * 8191 + b"\r\n" + b"b" * 8192 + b"\r")):
        assert cli._read_text(path) == _text_read(path)


def _error(read, path):
    with pytest.raises(Exception) as info:
        read(path)
    return type(info.value), str(info.value)


def test_read_text_raises_what_a_text_mode_read_raises(tmp_path):
    bad = _files(tmp_path, (b"x = 1;\xff\n", b"\xe2\x88", b"ok\r\n\xc3("))
    for path in bad + [str(tmp_path / "missing.hl"), str(tmp_path)]:
        assert _error(cli._read_text, path) == _error(_text_read, path)


def test_canonical_json_is_json_dumps_on_every_report(workdir, capsys,
                                                      monkeypatch):
    payloads = []
    encode = rd.dumps_canonical

    def record(obj):
        payloads.append(obj)
        return encode(obj)

    monkeypatch.setattr(rd, "dumps_canonical", record)
    (workdir / "init_lh.json").write_text(json.dumps(LOOP_PRE))
    (workdir / "lattice_u.json").write_text(json.dumps({
        "elements": ["\u22a5", "\u00e9", "b", "\u22a4"],
        "leq": [["\u22a5", "\u00e9"], ["\u22a5", "b"], ["\u00e9", "\u22a4"],
                ["b", "\u22a4"]]}))
    y = ("--program", str(workdir / "countdown.hl"),
         "--space", str(workdir / "space_y.json"))
    lh = ("--program", str(workdir / "leak.hl"),
          "--space", str(workdir / "space_lh.json"),
          "--pre", str(workdir / "init_lh.json"))
    for argv in (("sem", *y), ("trace", *y, "--L", "3"),
                 ("post", *y, "--pre", str(workdir / "init_y.json")),
                 ("hyper-post", *y, "--pre", str(workdir / "init_y.json")),
                 ("check", *lh, "--post-oracle", "NI"),
                 ("check", *lh, "--post-oracle", "GD"),
                 ("check", *lh, "--post-oracle", str(workdir / "init_lh.json"),
                  "--rule", "lower"),
                 ("check", *y, "--pre", str(workdir / "init_y.json"),
                  "--rule", "while_upper",
                  "--post-oracle", str(workdir / "init_y.json")),
                 ("abstract", "--lattice", str(workdir / "lattice_u.json"),
                  "--op", "order_filter", "--set", "\u00e9"),
                 ("lattice-lab", "--lattice", str(workdir / "lattice_u.json"))):
        assert run_cli(capsys, *argv, "--json")[0] in (0, 1), argv
    from hyperlab import hyperlogic as hl
    rep = hl.RuleReport("upper")
    rep.note("\u2200 pre: \u00e9", True, "d\u00e9tail \u2200\U0001d538")
    payloads.append(rep.to_json(rd.StateSpace.make(("x",), 0, 1)))
    assert len(payloads) == 11
    for obj in payloads:
        assert encode(obj) == json.dumps(obj, sort_keys=True,
                                         separators=(",", ":"))


def test_check_space_missing_key_exits_two(workdir, capsys):
    (workdir / "space_nohi.json").write_text(json.dumps(
        {"vars": ["l", "h"], "lo": 0}))
    (workdir / "init_lh.json").write_text(json.dumps(
        [{"e": [[[0, 0], [0, 0]]], "inf": [], "br": []}]))
    code, out, err = run_cli(capsys, "check",
                             "--program", str(workdir / "leak.hl"),
                             "--space", str(workdir / "space_nohi.json"),
                             "--pre", str(workdir / "init_lh.json"),
                             "--post-oracle", "NI", "--json")
    assert code == 2 and out == "" and "'hi'" in err
    for req, named in (
            ({"program": "l = h;", "space": {"vars": ["l", "h"], "hi": 1}},
             "'lo'"),
            ({"program": "l = h;"}, "'space'"),
            ({"program": "l = h;",
              "space": {"vars": ["l", "h"], "lo": "0", "hi": 1}}, '"0"'),
            ({"program": "l = h;",
              "space": {"vars": ["l", "h"], "lo": 0.5, "hi": 1}}, "0.5"),
            ({"program": "l = h;",
              "space": {"vars": ["l", "h"], "lo": 0, "hi": True}}, "true"),
            ({"program": "l = h;",
              "space": {"vars": "lh", "lo": 0, "hi": 1}}, '"lh"'),
            ({"program": "l = h;",
              "space": {"vars": ["l", "l"], "lo": 0, "hi": 1}},
             '["l", "l"]')):
        (workdir / "req.json").write_text(json.dumps(req))
        code, out, err = run_cli(capsys, "check",
                                 "--request", str(workdir / "req.json"))
        assert code == 2 and out == "" and named in err


def test_check_rejects_states_outside_the_space(workdir, capsys):
    # l = h on l,h in [0,1] against NI held for [0,9] before states were checked
    (workdir / "pre_out.json").write_text(json.dumps(
        [{"e": [[[0, 9], [0, 9]]], "inf": [], "br": []}]))
    (workdir / "pre_in.json").write_text(json.dumps(
        [{"e": [[[0, 1], [0, 1]]], "inf": [], "br": []}]))
    (workdir / "post_arity.json").write_text(json.dumps(
        [{"e": [[[0, 1], [1]]], "inf": [], "br": []}]))
    flags = ("--program", str(workdir / "leak.hl"),
             "--space", str(workdir / "space_lh.json"))
    code, out, err = run_cli(capsys, "check", *flags,
                             "--pre", str(workdir / "pre_out.json"),
                             "--post-oracle", "NI")
    assert code == 2 and out == "" and "[0, 9]" in err
    code, out, err = run_cli(capsys, "check", *flags,
                             "--pre", str(workdir / "pre_in.json"),
                             "--post-oracle", str(workdir / "post_arity.json"))
    assert code == 2 and out == "" and "[1]" in err
    space = {"vars": ["l", "h"], "lo": 0, "hi": 1}
    for req, bad in (
            ({"program": "l = h;", "space": space, "post_oracle": "NI",
              "pre": [{"e": [[[0, 9], [0, 9]]]}]}, "[0, 9]"),
            ({"program": "l = h;", "space": space,
              "pre": [{"e": [[[0, 1], [0, 1]]]}],
              "post": [{"e": [[[0, 1], [1, 1]]], "inf": [[2, 0]]}]},
             "[2, 0]"),
            ({"program": "l = h;", "space": space, "post_oracle": "NI",
              "pre": [{"e": [[[[0], 0], [0, 0]]]}]}, "[[0], 0]"),
            ({"program": "l = h;", "space": space, "post_oracle": "NI",
              "pre": [{"e": [[[True, 0], [0, 0]]]}]}, "[true, 0]"),
            ({"program": "l = h;", "space": space, "post_oracle": "NI",
              "pre": [{"e": [[[0.5, 0], [0, 0]]]}]}, "[0.5, 0]")):
        (workdir / "req.json").write_text(json.dumps(req))
        code, out, err = run_cli(capsys, "check",
                                 "--request", str(workdir / "req.json"))
        assert code == 2 and out == "" and bad in err


def test_check_names_the_first_state_outside_the_space_in_file_order(
        workdir, capsys):
    space = {"vars": ["l", "h"], "lo": 0, "hi": 1}
    for pre, bad in (
            # two in one triple, the br component written first
            ([{"br": [[[0, 5], [0, 0]]], "e": [[[0, 0], [0, 7]]]}],
             "triple 1: state [0, 5]"),
            # two in one pair
            ([{"e": [[[0, 0], [0, 0]], [[4, 0], [0, 6]]]}],
             "triple 1: state [4, 0]"),
            # two triples
            ([{"e": [[[0, 0], [0, 0]]], "inf": [[3, 0]]},
              {"e": [[[0, 4], [0, 0]]]}], "triple 1: state [3, 0]"),
            # the first triple is well inside the space
            ([{"e": [[[0, 0], [0, 0]]]}, {"inf": [[0, 4]]},
              {"inf": [[5, 0]]}], "triple 2: state [0, 4]")):
        req = {"program": "l = h;", "space": space, "post_oracle": "NI",
               "pre": pre}
        (workdir / "req.json").write_text(json.dumps(req))
        assert run_cli(capsys, "check", "--request",
                       str(workdir / "req.json")) == (
            2, "", "error: request 'pre': %s is outside the state "
            "space\n" % bad)
    # an ill-typed state anywhere in the array is reported first
    req["pre"] = [{"e": [[[0, 9], [0, 0]]]}, {"inf": [[True, 0]]}]
    (workdir / "req.json").write_text(json.dumps(req))
    assert run_cli(capsys, "check", "--request", str(workdir / "req.json")) == (
        2, "", "error: request 'pre': triple 2: a state must be an integer "
        "array, got [true, 0]\n")


def test_check_without_request_names_missing_flags(workdir, capsys):
    code, _, err = run_cli(capsys, "check",
                           "--program", str(workdir / "leak.hl"),
                           "--post-oracle", "NI")
    assert code == 2 and "--space" in err and "--pre" in err


def test_cached_parser_keeps_no_state_between_calls(workdir, capsys,
                                                    monkeypatch):
    (workdir / "init_lh.json").write_text(json.dumps(
        [{"e": [[[a, b], [a, b]] for a in (0, 1) for b in (0, 1)],
          "inf": [], "br": []}]))
    lh = ("--space", str(workdir / "space_lh.json"))
    y = ("--space", str(workdir / "space_y.json"))
    calls = [
        ("sem", "--program", str(workdir / "countdown.hl"), *y, "--json"),
        ("sem", "--program", str(workdir / "countdown.hl"), *y),
        ("trace", "--program", str(workdir / "countdown.hl"), *y, "--L", "3"),
        ("trace", "--program", str(workdir / "countdown.hl"), *y),
        ("check", "--program", str(workdir / "leak.hl"), *lh,
         "--pre", str(workdir / "init_lh.json"), "--post-oracle", "NI",
         "--low", "h", "--high", "l", "--json"),
        ("check", "--program", str(workdir / "leak.hl"), *lh,
         "--pre", str(workdir / "init_lh.json"), "--post-oracle", "NI"),
        ("abstract", "--lattice", str(workdir / "lattice.json"),
         "--op", "order_filter", "--set", "a"),
        ("abstract", "--lattice", str(workdir / "lattice.json"),
         "--op", "order_filter", "--json"),
        ("post", "--program", str(workdir / "countdown.hl"), *y,
         "--pre", str(workdir / "init_y.json")),
    ]
    # these argvs are well-formed: send them through argparse all the same
    monkeypatch.setattr(cli, "_direct", lambda argv: None)
    cached = [run_cli(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run_cli(capsys, *argv) for argv in calls]
    assert cached == fresh
    assert len({out for _, out, _ in cached}) == len(calls)


UNSUPPORTED_RULES = ("if_upper", "seq", "frontier_rho", "no_such_rule")


@pytest.mark.parametrize("rule", UNSUPPORTED_RULES)
@pytest.mark.parametrize("path", ("flags", "request"))
def test_check_unsupported_rule_same_message_on_both_paths(workdir, capsys,
                                                           rule, path):
    pre = [{"e": [[[v], [v]] for v in range(-3, 4)], "inf": [], "br": []}]
    if path == "flags":
        argv = ("--program", str(workdir / "countdown.hl"),
                "--space", str(workdir / "space_y.json"),
                "--pre", str(workdir / "init_y.json"),
                "--post-oracle", str(workdir / "init_y.json"), "--rule", rule)
    else:
        (workdir / "req.json").write_text(json.dumps({
            "rule": rule, "program": "while (y != 0) y = y - 1;",
            "space": {"vars": ["y"], "lo": -3, "hi": 3}, "pre": pre,
            "post": pre}))
        argv = ("--request", str(workdir / "req.json"))
    code, out, err = run_cli(capsys, "check", *argv)
    assert (code, out) == (2, "")
    assert err == ("error: rule %r is not supported by check (have: upper, "
                   "lower, while_upper, while_lower, forall_exists)\n" % rule)


LOOP_PRE = [{"e": [[[a, b], [a, b]] for a in (0, 1) for b in (0, 1)],
             "inf": [], "br": []}]
# the exact post of LOOP_PRE under the loop below
LOOP_POST = [{"e": [[[0, 0], [0, 0]], [[0, 1], [1, 0]], [[1, 0], [1, 0]],
                    [[1, 1], [1, 0]]], "inf": [], "br": []}]


@pytest.mark.parametrize("rule, post, code", (
    ("while_upper", "GNI", 1), ("while_upper", LOOP_POST, 0),
    ("while_lower", LOOP_POST, 0), ("forall_exists", LOOP_POST, 1),
    ("upper", "NI", 1), ("lower", LOOP_POST, 0)))
def test_check_request_and_flags_give_the_same_report(workdir, capsys, rule,
                                                      post, code):
    program = "while (h > 0) { h = h - 1; l = l + 1; }\n"
    (workdir / "loop.hl").write_text(program)
    (workdir / "pre_lh.json").write_text(json.dumps(LOOP_PRE))
    (workdir / "post_lh.json").write_text(json.dumps(post))
    req = {"rule": rule, "program": program, "pre": LOOP_PRE,
           "space": {"vars": ["l", "h"], "lo": 0, "hi": 1, "arith": "saturate"}}
    req["post_oracle" if isinstance(post, str) else "post"] = post
    (workdir / "req.json").write_text(json.dumps(req))
    oracle = post if isinstance(post, str) else str(workdir / "post_lh.json")
    flags = run_cli(capsys, "check", "--program", str(workdir / "loop.hl"),
                    "--space", str(workdir / "space_lh.json"),
                    "--pre", str(workdir / "pre_lh.json"),
                    "--post-oracle", oracle, "--rule", rule, "--json")
    request = run_cli(capsys, "check", "--request", str(workdir / "req.json"),
                      "--json")
    assert flags == request
    assert flags[0] == code and json.loads(flags[1])["rule"] == rule


def test_check_while_lower_rejects_an_oracle_consequent(workdir, capsys):
    (workdir / "loop.hl").write_text("while (h > 0) { h = h - 1; }\n")
    (workdir / "pre_lh.json").write_text(json.dumps(LOOP_PRE))
    code, out, err = run_cli(capsys, "check",
                             "--program", str(workdir / "loop.hl"),
                             "--space", str(workdir / "space_lh.json"),
                             "--pre", str(workdir / "pre_lh.json"),
                             "--post-oracle", "NI", "--rule", "while_lower")
    assert (code, out) == (2, "")
    assert err == "error: lower triples need an explicit consequent\n"


def test_check_request_rejects_what_no_rule_reads(workdir, capsys):
    # the rule name is checked first; then ill-typed strings, and keys the
    # rule does not read (unknown keys, an invariant on a rule other than
    # forall_exists, an explicit consequent next to a named one) exit 2
    # naming the key
    loop = "while (h > 0) { h = h - 1; }"
    base = {"program": loop, "space": {"vars": ["l", "h"], "lo": 0, "hi": 1},
            "pre": LOOP_PRE, "post": LOOP_POST}
    reads = "rule, program, space, pre, post"
    for extra, want in (
            ({"program": 5}, "request 'program' must be a string, got 5"),
            ({"post_oracle": ["NI"]},
             "request 'post_oracle' must be a string, got [\"NI\"]"),
            ({"post_oracle": "NI", "low": 5},
             "request 'low' must be a string, got 5"),
            ({"post_oracle": "NI", "high": None},
             "request 'high' must be a string, got null"),
            ({"consequent": LOOP_POST, "lo": 0},
             "request key 'consequent', 'lo' is not read by rule 'upper' "
             "(it reads: %s)" % reads),
            ({"rule": "while_upper", "invariant": LOOP_PRE},
             "request key 'invariant' is not read by rule 'while_upper' "
             "(it reads: %s)" % reads),
            ({"low": "l"},
             "request key 'low' is not read by rule 'upper' (it reads: %s)"
             % reads),
            ({"post_oracle": "NI"},
             "request key 'post' is not read by rule 'upper' (it reads: "
             "rule, program, space, pre, post_oracle, low, high)"),
            ({"rule": "if_upper", "invariant": LOOP_PRE, "lo": 0},
             "rule 'if_upper' is not supported by check (have: upper, "
             "lower, while_upper, while_lower, forall_exists)"),
            ({"program": "break;"},
             "break without enclosing loop at AST path []")):
        (workdir / "req.json").write_text(json.dumps({**base, **extra}))
        code, out, err = run_cli(capsys, "check",
                                 "--request", str(workdir / "req.json"))
        assert (code, out, err) == (2, "", "error: %s\n" % want)
    # forall_exists reads the invariant: LOOP_PRE is not closed under the body
    (workdir / "req.json").write_text(json.dumps(
        {**base, "rule": "forall_exists", "invariant": LOOP_PRE}))
    code, out, _ = run_cli(capsys, "check", "--request",
                           str(workdir / "req.json"), "--json")
    premises = {p["name"]: p["ok"] for p in json.loads(out)["premises"]}
    assert code == 1
    assert premises["invariant closed under guarded body step"] is False


def test_check_flags_reject_low_high_next_to_a_consequent_file(workdir,
                                                              capsys):
    # --low/--high name the variables of NI, GNI and GD only; next to a file
    # of explicit triples they are read by nothing
    (workdir / "pre_lh.json").write_text(json.dumps(LOOP_PRE))
    (workdir / "post_lh.json").write_text(json.dumps(LOOP_PRE))
    flags = ("--program", str(workdir / "leak.hl"),
             "--space", str(workdir / "space_lh.json"),
             "--pre", str(workdir / "pre_lh.json"))
    reads = "--rule, --program, --space, --pre, --post-oracle"
    for extra, rule, unread in (
            (("--low", "zz", "--high", "qq"), "upper", "--low, --high"),
            (("--high", "h"), "upper", "--high"),
            (("--low", "l", "--rule", "lower"), "lower", "--low")):
        assert run_cli(capsys, "check", *flags,
                       "--post-oracle", str(workdir / "post_lh.json"),
                       *extra) == (
            2, "", "error: flag %s is not read by rule %r (it reads: %s)\n"
            % (unread, rule, reads))
    # with a family they are read, and the defaults are l and h
    named = [run_cli(capsys, "check", *flags, "--post-oracle", "NI", *extra,
                     "--json")
             for extra in ((), ("--low", "l", "--high", "h"))]
    assert named[0] == named[1] and named[0][0] == 1


@pytest.mark.parametrize("flags, named", (
    (("--rule", "lower", "--json"), "--rule"),
    (("--rule=lower",), "--rule"),
    (("--program", "p.hl", "--post-oracle", "NI"), "--program, --post-oracle"),
    (("--low", "x", "--space", "s.json", "--high", "y", "--pre", "p.json"),
     "--space, --pre, --low, --high")),
    ids=("rule", "rule=", "program-and-oracle", "four"))
@pytest.mark.parametrize("request_file", ("req.json", "no_such.json"))
def test_check_refuses_value_flags_next_to_a_request(workdir, capsys, flags,
                                                     named, request_file):
    # a request is read alone: a typed flag next to it is named before the
    # request file is opened, whether or not that file exists
    (workdir / "req.json").write_text(json.dumps({
        "program": "l = h;", "space": {"vars": ["l", "h"], "lo": 0, "hi": 1},
        "pre": LOOP_PRE, "post_oracle": "NI"}))
    argv = ["check", "--request", str(workdir / request_file), *flags]
    # `--rule=lower` is read by argparse, the others directly
    assert (cli._direct(argv) is None) == (flags == ("--rule=lower",))
    assert run_cli(capsys, *argv) == (
        2, "", "error: flag %s is not read next to --request\n" % named)
    # with --json alone the request is checked
    code, out, err = run_cli(capsys, "check", "--request",
                             str(workdir / "req.json"), "--json")
    assert (code, json.loads(out)["rule"], err) == (1, "upper", "")


def test_unbound_variable_is_named_with_the_space(workdir, capsys):
    (workdir / "zz.hl").write_text("l = zz;\n")
    want = "error: unbound variable 'zz' (space has: l, h)\n"
    assert run_cli(capsys, "sem", "--program", str(workdir / "zz.hl"),
                   "--space", str(workdir / "space_lh.json")) == (2, "", want)
    (workdir / "init_lh.json").write_text(json.dumps(LOOP_PRE))
    assert run_cli(capsys, "check", "--program", str(workdir / "leak.hl"),
                   "--space", str(workdir / "space_lh.json"),
                   "--pre", str(workdir / "init_lh.json"),
                   "--post-oracle", "NI", "--low", "zz") == (2, "", want)
    # NI reads no high variable, yet an unbound one is named as in GNI and GD
    assert run_cli(capsys, "check", "--program", str(workdir / "leak.hl"),
                   "--space", str(workdir / "space_lh.json"),
                   "--pre", str(workdir / "init_lh.json"),
                   "--post-oracle", "NI", "--high", "zz") == (2, "", want)
    (workdir / "space_lx.json").write_text(json.dumps(
        {"vars": ["l", "x"], "lo": 0, "hi": 1}))
    (workdir / "skip.hl").write_text("skip;\n")
    assert run_cli(capsys, "check", "--program", str(workdir / "skip.hl"),
                   "--space", str(workdir / "space_lx.json"),
                   "--pre", str(workdir / "init_lh.json"),
                   "--post-oracle", "NI") == (
        2, "", "error: unbound variable 'h' (space has: l, x)\n")


def test_a_lone_triple_object_is_not_a_hyper_set(workdir, capsys):
    # --pre and --post-oracle files hold a JSON array of triples
    lone = {"e": [[[0, 0], [0, 0]]], "inf": [], "br": []}
    (workdir / "lone.json").write_text(json.dumps(lone))
    (workdir / "pre_lh.json").write_text(json.dumps(LOOP_PRE))
    path = str(workdir / "lone.json")
    want = "error: %s: expected an array of triples, got %s\n" % (
        path, json.dumps(lone))
    flags = ("--program", str(workdir / "leak.hl"),
             "--space", str(workdir / "space_lh.json"))
    for argv in (("post", *flags, "--pre", path),
                 ("hyper-post", *flags, "--pre", path),
                 ("check", *flags, "--pre", path, "--post-oracle", "NI"),
                 ("check", *flags, "--pre", str(workdir / "pre_lh.json"),
                  "--post-oracle", path)):
        assert run_cli(capsys, *argv) == (2, "", want)


def test_check_flags_report_the_first_of_two_errors(workdir, capsys):
    # the flags are checked, then their files read in the order space,
    # program, pre, consequent: a later bad input never hides an earlier one
    (workdir / "pre_lh.json").write_text(json.dumps(LOOP_PRE))
    (workdir / "bad_space.json").write_text(json.dumps(
        {"vars": ["l", "h"], "lo": 0}))
    (workdir / "bad_pre.json").write_text(json.dumps(
        [{"e": [[[0, 9], [0, 9]]], "inf": [], "br": []}]))
    (workdir / "bad_post.json").write_text(json.dumps({"e": []}))
    program = ("--program", str(workdir / "leak.hl"))
    space = ("--space", str(workdir / "space_lh.json"))
    bad_space = ("--space", str(workdir / "bad_space.json"))
    pre = ("--pre", str(workdir / "pre_lh.json"))
    bad_pre = ("--pre", str(workdir / "bad_pre.json"))
    for argv, want in (
            ((*program, *space, "--pre", str(workdir / "no_such.json"),
              "--post-oracle", "NI", "--rule", "seq"),
             "rule 'seq' is not supported by check (have: upper, lower, "
             "while_upper, while_lower, forall_exists)"),
            ((*program, *bad_space, *pre,
              "--post-oracle", str(workdir / "pre_lh.json"), "--low", "l"),
             "flag --low is not read by rule 'upper' (it reads: --rule, "
             "--program, --space, --pre, --post-oracle)"),
            ((*program, *bad_space, *bad_pre, "--post-oracle", "NI"),
             "space config has no 'hi'"),
            ((*program, *space, *bad_pre,
              "--post-oracle", str(workdir / "bad_post.json")),
             "%s: triple 1: state [0, 9] is outside the state space"
             % (workdir / "bad_pre.json"))):
        assert run_cli(capsys, "check", *argv) == (2, "", "error: %s\n" % want)

