"""`hl` reads a well-formed argv directly and gives argparse everything else.

`cli._parse` must give the Namespace `_parser().parse_args` gives, or exit
with the same code and print the same text, on every argv: well-formed
ones, and ones that abbreviate, repeat or misspell a flag, write
`--flag=value`, leave out a value or a required flag, pass a value that
starts with "-", or add `--`, `-h` or an extra positional.
"""

import contextlib
import io
import random

import pytest

from hyperlab import cli

# values a flag may be given, by whether they start with "-"
PLAIN = ("p.hl", "", "x y", "NI", "7", "a=b", "sem", " 4")
DASHED = ("-x", "-1", "-", "--json", "-h")


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return "args", vars(parse(argv))
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()


def _value(rng, type_):
    if type_ is int:
        return rng.choice(("3", "10", " 4", "0"))
    return rng.choice(PLAIN)


def _well_formed(rng, command):
    """A random argv that `_direct` must read: each required flag and some
    optional ones, in any order, each once with a value its type accepts."""
    flags, _defaults, required = cli._SHAPES[command]
    chosen = [f for f in flags if f in required or rng.random() < 0.5]
    rng.shuffle(chosen)
    argv = [command]
    for flag in chosen:
        argv.append(flag)
        if flags[flag][1] is not None:
            argv.append(_value(rng, flags[flag][1]))
    return argv


def _mutated(rng, argv):
    """`argv` changed in one of the ways argparse alone handles (or, for a
    few, ways that leave it well-formed)."""
    argv = list(argv)
    flags = [i for i, a in enumerate(argv) if a.startswith("--")]
    kind = rng.randrange(10)
    if kind == 0 and flags:  # an abbreviation, unique or not
        i = rng.choice(flags)
        argv[i] = argv[i][:rng.randint(2, len(argv[i]) - 1)]
    elif kind == 1 and flags:  # --flag=value
        i = rng.choice(flags)
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = ["%s=%s" % (argv[i], argv[i + 1])]
    elif kind == 2 and flags:  # a repeated flag
        i = rng.choice(flags)
        argv += argv[i:i + 2]
    elif kind == 3 and flags:  # a missing value: the flag comes last
        argv.append(argv[rng.choice(flags)])
    elif kind == 4:  # a value that starts with "-"
        argv += [rng.choice(tuple(cli._SHAPES[argv[0]][0])),
                 rng.choice(DASHED)]
    elif kind == 5 and flags:  # a required flag left out
        i = rng.choice(flags)
        del argv[i:i + (2 if i + 1 < len(argv)
                        and not argv[i + 1].startswith("--") else 1)]
    else:  # a token put in at a random place
        token = rng.choice(("--", "-h", "--help", "--nope", "extra",
                            "--nope=1", "-x"))
        argv.insert(rng.randint(1, len(argv)), token)
    return argv


@pytest.mark.parametrize("command", tuple(cli._COMMANDS))
def test_the_direct_read_gives_what_argparse_gives(command):
    rng = random.Random(command)
    for _ in range(100):
        argv = _well_formed(rng, command)
        assert cli._direct(argv) is not None, argv
        for bad in [argv] + [_mutated(rng, argv) for _ in range(4)]:
            assert _outcome(cli._parse, bad) == _outcome(
                cli._parser().parse_args, bad), bad


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["nope"], ["se"], ["sem", "--help"],
    ["trace", "--program", "p", "--space", "s", "--L", "x"],
    ["trace", "--program", "p", "--space", "s", "--L", "-1"],
    ["trace", "--program", "p", "--space", "s", "--L", ""],
    ["check", "--json", "extra"], ["check", "--rule"], ["selftest", "--"],
    ["selftest", "--filter", "a", "--filter", "b"],
])
def test_edge_argvs_go_to_argparse(argv):
    assert cli._direct(argv) is None
    assert _outcome(cli._parse, argv) == _outcome(
        cli._parser().parse_args, argv)


def test_a_well_formed_argv_does_not_build_the_parser(monkeypatch):
    def unused():
        raise AssertionError("argparse was used")

    monkeypatch.setattr(cli, "_parser", unused)
    args = cli._parse(["trace", "--L", "3", "--program", "x y",
                       "--space", "", "--json"])
    assert vars(args) == {"command": "trace", "fn": cli.cmd_trace,
                          "program": "x y", "space": "", "json": True,
                          "L": 3}
