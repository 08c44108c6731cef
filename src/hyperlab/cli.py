"""Command-line front end: hl sem|trace|post|hyper-post|check|abstract|lattice-lab|selftest.

All reports are JSON with canonical ordering (states as value arrays in
declared variable order), so identical inputs give byte-identical output.
Hyper-set files and request keys hold JSON arrays of triples.  `check` takes
a request file or flags; the flags become the same request, with paths in its
file-valued keys, and one sequence checks, loads and dispatches both.  Exit
codes for `check`: 0 holds, 1 fails, 2 error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

# each command imports the modules it runs when it runs: `hl sem` loads
# `lang`, `rel_domain` and `interpreter` only
from . import rel_domain as rd
from .lang import ParseError, parse, require_no_free_break
from .rel_domain import StateSpace


class CliError(Exception):
    pass


def _read_text(path: str) -> str:
    """What `open(path, encoding="utf-8").read()` returns, and the same
    error, read as bytes without the text wrapper."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _load_json(path: str):
    return json.loads(_read_text(path))


def _load_program(path: str):
    return _program(_read_text(path))


def _program(text: str):
    return require_no_free_break(parse(text))


def _load_space(path: str) -> StateSpace:
    return StateSpace.from_config(_load_json(path))


def _triples(data, space: StateSpace, where: str):
    """The triples in the JSON array `data`, after checking that each is
    well-formed and every state in them is in `space`."""
    if not isinstance(data, list):
        raise CliError("%s: expected an array of triples, got %s"
                       % (where, json.dumps(data)))
    # an ill-typed triple anywhere is reported before a state outside the
    # space, and of those the first in the file
    triples, outside = [], None
    for k, d in enumerate(data, 1):
        try:
            triples.append(rd.triple_from_json(d, space))
        except rd.OutsideSpaceError as exc:
            outside = outside or "%s: triple %d: %s" % (where, k, exc)
        except ValueError as exc:
            raise CliError("%s: triple %d: %s" % (where, k, exc)) from None
    if outside is not None:
        raise CliError(outside)
    return frozenset(triples)


def _load_hyperset(path: str, space: StateSpace):
    return _triples(_load_json(path), space, path)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(rd.dumps_canonical(payload))
        return
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_sem(args) -> int:
    from . import interpreter as it
    stmt = _load_program(args.program)
    space = _load_space(args.space)
    t = it.sem(stmt, space)
    agree = it.oracle_sem(stmt, space) == t
    _emit({"triple": rd.triple_to_json(t, space), "oracle_agrees": agree},
          args.json)
    return 0


def cmd_trace(args) -> int:
    from . import trace_domain as td
    if args.L < 1:
        raise CliError("--L must be >= 1, got %d" % args.L)
    stmt = _load_program(args.program)
    space = _load_space(args.space)
    t = td.trace_sem(stmt, space, args.L)
    if args.json:
        print(rd.dumps_canonical(td.traces_to_json(t, space)))
    else:
        print(td.dump_traces(t, space))
        if t.truncated:
            print("warning: traces beyond length %d were dropped" % args.L)
    return 0


def cmd_post(args) -> int:
    from . import interpreter as it, transformers as tf
    stmt = _load_program(args.program)
    space = _load_space(args.space)
    s_sem = it.sem(stmt, space)
    pres = _load_hyperset(args.pre, space)
    results = [rd.triple_to_json(tf.post(s_sem, p), space)
               for p in sorted(pres, key=rd.SemTriple.sort_key)]
    _emit({"post": results}, args.json)
    return 0


def cmd_hyper_post(args) -> int:
    from . import transformers as tf
    stmt = _load_program(args.program)
    space = _load_space(args.space)
    pres = _load_hyperset(args.pre, space)
    out = tf.Post_structural(stmt, pres, space)
    _emit({"Post": [rd.triple_to_json(t, space)
                    for t in sorted(out, key=rd.SemTriple.sort_key)]},
          args.json)
    return 0


_FAMILIES = ("NI", "GNI", "GD")
_CHECK_RULES = ("upper", "lower", "while_upper", "while_lower", "forall_exists")


def _flag_request(args) -> dict:
    """The flags of `hl check` as a request whose file-valued keys (program,
    space, pre, post) hold the paths the flags name."""
    post = "post_oracle" if args.post_oracle in _FAMILIES else "post"
    req = {"rule": args.rule, "program": args.program, "space": args.space,
           "pre": args.pre, post: args.post_oracle, "low": args.low,
           "high": args.high}
    return {k: v for k, v in req.items() if v is not None}


def _flag(key: str) -> str:
    return "--post-oracle" if key == "post" else "--" + key.replace("_", "-")


def cmd_check(args) -> int:
    """Check a request read from --request or made of the flags; errors name
    what the user typed: a flag or file path, or a request key."""
    from . import abstractions as ab, hyperlogic as hl
    by_flag = not args.request
    if by_flag:
        req, name, listed = _flag_request(args), _flag, _flag
        need = ("program", "space", "pre",
                "post_oracle" if "post_oracle" in req else "post")
        missing = "check needs --request or %s"
    else:
        req, name, listed = _load_json(args.request), repr, str
        need, missing = ("space", "program"), "request has no %s"
    absent = [k for k in need if not isinstance(req, dict) or k not in req]
    if absent:
        raise CliError(missing % ", ".join(map(name, absent)))
    rule = req.get("rule", "upper")
    if rule not in _CHECK_RULES:
        raise CliError("rule %r is not supported by check (have: %s)"
                       % (rule, ", ".join(_CHECK_RULES)))
    for key in ("program", "post_oracle", "low", "high"):
        if key in req and not isinstance(req[key], str):
            raise CliError("request %r must be a string, got %s"
                           % (key, json.dumps(req[key])))
    consequent = (("post_oracle", "low", "high") if "post_oracle" in req
                  else ("post",))
    reads = (("rule", "program", "space", "pre") + consequent
             + (("invariant",) if rule == "forall_exists" and not by_flag
                else ()))
    unread = [k for k in (req if by_flag else sorted(req)) if k not in reads]
    if unread:
        raise CliError("%s %s is not read by rule %r (it reads: %s)" % (
            "flag" if by_flag else "request key",
            ", ".join(map(name, unread)), rule, ", ".join(map(listed, reads))))

    # each file is read at the step that needs it, so that of several bad
    # inputs the first in this order is the one reported
    def value(key):
        return _load_json(req[key]) if by_flag else req.get(key, [])

    def triples(key):
        where = req[key] if by_flag else "request %r" % key
        return _triples(value(key), space, where)

    space = StateSpace.from_config(value("space"))
    stmt = (_load_program if by_flag else _program)(req["program"])
    pre = triples("pre")
    if "post_oracle" in req:
        post_q = ab.family(req["post_oracle"], space=space,
                           low=req.get("low", "l"), high=req.get("high", "h"))
    else:
        post_q = triples("post")
    # only forall_exists reads an invariant: any other rule refused it above
    extra = ({"invariant": triples("invariant")}
             if req.get("invariant") is not None else {})
    rep = hl.check_rule(rule, space, pre=pre, stmt=stmt, post_q=post_q,
                        **extra)
    _emit(rep.to_json(space), args.json)
    return 0 if rep.holds() else 1


# the operators of `hl abstract`, called as ab.<op>(lattice, subset) or
# ab.<op>(chain poset, subset)
_LATTICE_OPS = ("order_ideal", "order_filter", "principal_ideal",
                "principal_filter", "frontier_min", "frontier_max",
                "frontier_order_ideal", "rho_subseteq", "rho_frontier")
_CHAIN_OPS = ("chain_down", "chain_up", "chain_down_star", "chain_up_star")


def cmd_abstract(args) -> int:
    from . import abstractions as ab
    cp = ab.lattice_from_config(_load_json(args.lattice))
    lat = cp.lattice
    subset = frozenset(args.set.split(",")) if args.set else frozenset()
    for e in subset:
        if e not in lat._idx:
            raise CliError("unknown element %r" % e)
    if args.op in _LATTICE_OPS:
        result = getattr(ab, args.op)(lat, subset)
    elif args.op in _CHAIN_OPS:
        result = getattr(ab, args.op)(cp, subset)
    else:
        raise CliError("unknown op %r (have: %s)" % (
            args.op, ", ".join(sorted(_LATTICE_OPS + _CHAIN_OPS))))
    _emit({"op": args.op, "result": sorted(str(e) for e in result)}, args.json)
    return 0


def cmd_lattice_lab(args) -> int:
    from . import abstractions as ab
    try:
        cp = ab.lattice_from_config(_load_json(args.lattice))
    except ab.LatticeError as exc:
        print("construction error: %s" % exc, file=sys.stderr)
        return 2
    lat = cp.lattice
    payload = {
        "elements": sorted(str(e) for e in lat.elements),
        "bot": str(lat.bot),
        "top": str(lat.top),
        "families": [f.name for f in cp.families],
    }
    _emit(payload, args.json)
    return 0


def cmd_selftest(args) -> int:
    from . import selftest
    if not selftest.matching(args.filter):
        raise CliError("no selftest suite matches filter %r (have: %s)"
                       % (args.filter,
                          ", ".join(name for name, _ in selftest.SUITES)))
    failures = selftest.run(args.filter)
    return 0 if failures == 0 else 1


# Each command's function, help line and options, the options in the order
# its help lists them: a flag and the keywords of its `add_argument`.
# `build_parser` declares the parser from this table and `_direct` reads
# argv by it, so a flag is declared once.
_COMMON = (("--program", {"required": True, "help": "program file"}),
           ("--space", {"required": True, "help": "state space JSON"}),
           ("--json", {"action": "store_true",
                       "help": "single-line canonical JSON"}))
_JSON = ("--json", {"action": "store_true"})

_COMMANDS = {
    "sem": (cmd_sem, "denotation triple plus oracle agreement", _COMMON),
    "trace": (cmd_trace, "bounded finite-trace semantics", _COMMON + (
        ("--L", {"type": int, "default": 10, "help": "max trace length"}),)),
    "post": (cmd_post, "post image of explicit preconditions", _COMMON + (
        ("--pre", {"required": True, "help": "precondition triples JSON"}),)),
    "hyper-post": (cmd_hyper_post, "structural Post of a hyper set",
                   _COMMON + (("--pre", {"required": True}),)),
    "check": (cmd_check, "hyper triple / proof rule check", (
        ("--request", {"help": "JSON request object"}),
        ("--program", {}),
        ("--space", {}),
        ("--pre", {}),
        ("--rule", {"default": "upper"}),
        ("--post-oracle", {"help": "NI|GNI|GD or a triples JSON file"}),
        ("--low", {"help": "low variable of NI|GNI|GD (default l)"}),
        ("--high", {"help": "high variable of NI|GNI|GD (default h)"}),
        _JSON)),
    "abstract": (cmd_abstract, "apply an abstraction operator", (
        ("--lattice", {"required": True, "help": "lattice description JSON"}),
        ("--op", {"required": True}),
        ("--set", {"default": "", "help": "comma-separated element names"}),
        _JSON)),
    "lattice-lab": (cmd_lattice_lab, "validate a lattice description", (
        ("--lattice", {"required": True}),
        _JSON)),
    "selftest": (cmd_selftest, "run the worked-example corpus", (
        ("--filter", {"help": "only suites whose name contains this"}),)),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hl", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (fn, line, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=line)
        for flag, kw in options:
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
    return ap


def _shape(fn, options):
    """A command's flags, each with its dest and its type (None for a flag
    that takes no value), the defaults of its Namespace, and its required
    flags, as argparse derives them from `options`."""
    flags, defaults, required = {}, {"fn": fn}, set()
    for flag, kw in options:
        dest = flag[2:].replace("-", "_")
        switch = kw.get("action") == "store_true"
        flags[flag] = dest, None if switch else kw.get("type", str)
        defaults[dest] = kw.get("default", False if switch else None)
        if kw.get("required"):
            required.add(flag)
    return flags, defaults, required


_SHAPES = {command: _shape(fn, options)
           for command, (fn, _line, options) in _COMMANDS.items()}


def _direct(argv: list):
    """The Namespace argparse gives for `argv`, or None when `argv` is not a
    command followed by its own options alone: each written in full and at
    most once, every required one present, and each that takes a value
    followed by one that does not start with "-" and that its type
    accepts."""
    shape = _SHAPES.get(argv[0]) if argv else None
    if shape is None:
        return None
    flags, defaults, required = shape
    got, seen = dict(defaults, command=argv[0]), set()
    rest = iter(argv[1:])
    for flag in rest:
        if flag not in flags or flag in seen:
            return None
        seen.add(flag)
        dest, type_ = flags[flag]
        if type_ is None:
            got[dest] = True
            continue
        value = next(rest, "-")
        if value[:1] == "-":
            return None
        try:
            got[dest] = type_(value)
        except ValueError:
            return None
    return argparse.Namespace(**got) if required <= seen else None


def _parse(argv=None) -> argparse.Namespace:
    """`_parser().parse_args(argv)`, read directly where `_direct` can;
    help and every error come from argparse."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _direct(argv)
    return _parser().parse_args(argv) if args is None else args


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state."""
    return build_parser()


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return args.fn(args)
    except (CliError, ParseError, rd.UnboundVariableError, ValueError,
            OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        # the parser and the semantics recurse over the syntax tree
        print("error: input nested too deeply for the recursion limit (%d)"
              % sys.getrecursionlimit(), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
