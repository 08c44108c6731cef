import json

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
              "pre": [{"e": [[[[0], 0], [0, 0]]]}]}, "[[0], 0]")):
        (workdir / "req.json").write_text(json.dumps(req))
        code, out, err = run_cli(capsys, "check",
                                 "--request", str(workdir / "req.json"))
        assert code == 2 and out == "" and bad in err


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
