"""`hl` loads only the modules of the command it runs.

Each test starts a fresh interpreter, since inside the test process every
module is already imported.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# run `hl` with the given arguments, then list the hyperlab modules loaded
_RUN = """
import sys
from hyperlab.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("hyperlab"))),
      file=sys.stderr)
sys.exit(code)
"""

# `hl CMD --help` for each command given, in one process
_HELP = """
import sys
from hyperlab.cli import main
for cmd in sys.argv[1:]:
    try:
        main([cmd, "--help"])
    except SystemExit as exc:
        print("exit %s" % exc.code)
"""

UNUSED_BY_SEM = ("hyperlab.selftest", "hyperlab.abstractions",
                 "hyperlab.hyperlogic")

# each command's help line and options, as `hl --help` lists them
COMMANDS = {
    "sem": ("denotation triple plus oracle agreement",
            ("--program", "--space", "--json")),
    "trace": ("bounded finite-trace semantics",
              ("--program", "--space", "--json", "--L")),
    "post": ("post image of explicit preconditions",
             ("--program", "--space", "--json", "--pre")),
    "hyper-post": ("structural Post of a hyper set",
                   ("--program", "--space", "--json", "--pre")),
    "check": ("hyper triple / proof rule check",
              ("--request", "--program", "--space", "--pre", "--rule",
               "--post-oracle", "--low", "--high", "--json")),
    "abstract": ("apply an abstraction operator",
                 ("--lattice", "--op", "--set", "--json")),
    "lattice-lab": ("validate a lattice description", ("--lattice", "--json")),
    "selftest": ("run the worked-example corpus", ("--filter",)),
}


def _python(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.fixture
def files(tmp_path):
    (tmp_path / "prog.hl").write_text("while (x < 2) x = x + 1;\n")
    (tmp_path / "space.json").write_text(
        json.dumps({"vars": ["x"], "lo": 0, "hi": 2}))
    (tmp_path / "pre.json").write_text(json.dumps([{"e": [[[0], [0]]]}]))
    (tmp_path / "bad.json").write_text(json.dumps({"elements": ["a", "b"]}))
    return tmp_path


@pytest.mark.parametrize("argv,loaded", [
    pytest.param(["sem"], {"hyperlab", "hyperlab.cli", "hyperlab.lang",
                           "hyperlab.rel_domain", "hyperlab.interpreter"},
                 id="sem"),
    pytest.param(["trace"], None, id="trace"),
    pytest.param(["post", "--pre", "pre.json"], None, id="post"),
])
def test_a_command_loads_only_what_it_runs(files, argv, loaded):
    p = _python("-c", _RUN, *argv, "--program", "prog.hl",
                "--space", "space.json", "--json", cwd=files)
    assert p.returncode == 0, p.stderr
    modules = set(p.stderr.splitlines()[-1].split())
    assert not modules & set(UNUSED_BY_SEM)
    if loaded is not None:
        assert modules == loaded


def test_abstract_on_a_malformed_lattice_still_exits_2(files):
    p = _python("-m", "hyperlab.cli", "abstract", "--lattice", "bad.json",
                "--op", "order_ideal", cwd=files)
    assert p.returncode == 2 and p.stdout == ""
    assert p.stderr.startswith("error: ") and "Traceback" not in p.stderr


def test_help_lists_every_command_and_option(files):
    p = _python("-m", "hyperlab.cli", "--help", cwd=files)
    assert p.returncode == 0 and p.stdout.startswith("usage: hl ")
    for command, (line, _options) in COMMANDS.items():
        assert command in p.stdout and line in p.stdout
    p = _python("-c", _HELP, *COMMANDS, cwd=files)
    pages = p.stdout.split("exit 0\n")
    assert p.returncode == 0 and pages[-1] == ""
    assert len(pages) == len(COMMANDS) + 1
    for (command, (_line, options)), page in zip(COMMANDS.items(), pages):
        assert page.startswith("usage: hl %s " % command)
        for option in options:
            assert option in page, (command, option)
