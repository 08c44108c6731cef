import json
import sys

import pytest

from hyperlab import cli
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
    # a right-nested Seq chain (validate_breaks recurses on it) and nested
    # parentheses (the parser recurses on them)
    pytest.param("l = 1;\n" * 1200, id="long-sequence"),
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


def test_free_break_rejected_by_cli(workdir, capsys):
    (workdir / "freebreak.hl").write_text("break;\n")
    code, _, err = run_cli(capsys, "sem",
                           "--program", str(workdir / "freebreak.hl"),
                           "--space", str(workdir / "space_y.json"))
    assert code == 2 and "enclosing loop" in err


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
    assert "pre_typo.json: a triple has unknown key 'ee'" in err
    fixed = {"vars": ["l", "h"], "lo": 0, "hi": 1, "arith": "wrap"}
    for req, named in (
            ({"space": space, "pre": pre[:1]},
             "space config has unknown key 'arithmetic'"),
            ({"space": fixed, "pre": pre},
             "request 'pre': a triple has unknown key 'ee'")):
        (workdir / "req.json").write_text(json.dumps(
            dict(req, program="l = h;", post_oracle="NI")))
        code, out, err = run_cli(capsys, "check",
                                 "--request", str(workdir / "req.json"))
        assert code == 2 and out == "" and named in err


def test_selftest_filter_runs_single_suite(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--filter", "relational")
    assert code == 0
    assert "relational" in out and "oracle " not in out


def test_sem_space_missing_key_exits_two(workdir, capsys):
    (workdir / "space_nohi.json").write_text(json.dumps(
        {"vars": ["l", "h"], "lo": 0}))
    code, out, err = run_cli(capsys, "sem",
                             "--program", str(workdir / "leak.hl"),
                             "--space", str(workdir / "space_nohi.json"))
    assert code == 2 and out == ""
    assert "error" in err and "'hi'" in err


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
            ([{"br": [[[0, 5], [0, 0]]], "e": [[[0, 0], [0, 7]]]}], "[0, 5]"),
            # two in one pair
            ([{"e": [[[0, 0], [0, 0]], [[4, 0], [0, 6]]]}], "[4, 0]"),
            # two triples
            ([{"e": [[[0, 0], [0, 0]]], "inf": [[3, 0]]},
              {"e": [[[0, 4], [0, 0]]]}], "[3, 0]")):
        req = {"program": "l = h;", "space": space, "post_oracle": "NI",
               "pre": pre}
        (workdir / "req.json").write_text(json.dumps(req))
        assert run_cli(capsys, "check", "--request",
                       str(workdir / "req.json")) == (
            2, "", "error: request 'pre': state %s is outside the state "
            "space\n" % bad)
    # an ill-typed state anywhere in the array is reported first
    req["pre"] = [{"e": [[[0, 9], [0, 0]]]}, {"inf": [[True, 0]]}]
    (workdir / "req.json").write_text(json.dumps(req))
    assert run_cli(capsys, "check", "--request", str(workdir / "req.json")) == (
        2, "", "error: request 'pre': a state must be an integer array, "
        "got [true, 0]\n")


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
             "%s: state [0, 9] is outside the state space"
             % (workdir / "bad_pre.json"))):
        assert run_cli(capsys, "check", *argv) == (2, "", "error: %s\n" % want)
