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
from .lang import ParseError, parse, validate_breaks
from .rel_domain import StateSpace


class CliError(Exception):
    pass


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_program(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _program(fh.read())


def _program(text: str):
    stmt = parse(text)
    bad = validate_breaks(stmt)
    if bad is not None:
        raise CliError("break without enclosing loop at AST path %s" % bad)
    return stmt


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
    for d in data:
        try:
            triples.append(rd.triple_from_json(d, space))
        except rd.OutsideSpaceError as exc:
            outside = outside or exc
        except ValueError as exc:
            raise CliError("%s: %s" % (where, exc)) from None
    if outside is not None:
        raise CliError("%s: %s" % (where, outside))
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
    stmt = _load_program(args.program)
    space = _load_space(args.space)
    t = td.trace_sem(stmt, space, args.L)
    if args.json:
        payload = {
            "traces": sorted([list(s) for s in p] for p in t.finite),
            "div_starts": [list(s) for s in sorted(t.div_starts)],
            "truncated": t.truncated,
        }
        print(rd.dumps_canonical(payload))
    else:
        print(td.dump_traces(t, space))
        if t.div_starts:
            print("divergent starts: " +
                  " ".join(td.format_trace((s,), space)
                           for s in sorted(t.div_starts)))
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
    for key in ("program", "post_oracle"):
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
    invariant = (triples("invariant") if req.get("invariant") is not None
                 else None)
    if rule == "upper":
        rep = hl.check_upper(hl.Triple(pre, stmt, post_q), space)
    elif rule == "lower":
        rep = hl.check_lower(hl.Triple(pre, stmt, post_q), space)
    else:
        if not isinstance(stmt, hl.While):
            raise CliError("rule %r needs a single while loop" % rule)
        extra = {"invariant": invariant} if rule == "forall_exists" else {}
        rep = hl.check_rule(rule, space, pre=pre, cond=stmt.cond,
                            body=stmt.body, post_q=post_q, **extra)
    _emit(rep.to_json(space), args.json)
    return 0 if rep.holds() else 1


def cmd_abstract(args) -> int:
    from . import abstractions as ab
    try:  # `main` cannot name LatticeError without importing abstractions
        lattice = ab.lattice_from_config(_load_json(args.lattice))
    except ab.LatticeError as exc:
        raise CliError(exc) from None
    cp = lattice if isinstance(lattice, ab.ChainPoset) else \
        ab.ChainPoset(lattice, ())
    lat = cp.lattice
    subset = frozenset(args.set.split(",")) if args.set else frozenset()
    for e in subset:
        if e not in lat._idx:
            raise CliError("unknown element %r" % e)
    ops = {
        "order_ideal": lambda: ab.order_ideal(lat, subset),
        "order_filter": lambda: ab.order_filter(lat, subset),
        "principal_ideal": lambda: ab.principal_ideal(lat, subset),
        "principal_filter": lambda: ab.principal_filter(lat, subset),
        "frontier_min": lambda: ab.frontier_min(lat, subset),
        "frontier_max": lambda: ab.frontier_max(lat, subset),
        "frontier_order_ideal": lambda: ab.frontier_order_ideal(lat, subset),
        "rho_subseteq": lambda: ab.rho_subseteq(lat, subset),
        "rho_frontier": lambda: ab.rho_frontier(lat, subset),
        "chain_down": lambda: ab.chain_down(cp, subset),
        "chain_up": lambda: ab.chain_up(cp, subset),
        "chain_down_star": lambda: ab.chain_down_star(cp, subset),
        "chain_up_star": lambda: ab.chain_up_star(cp, subset),
    }
    if args.op not in ops:
        raise CliError("unknown op %r (have: %s)" %
                       (args.op, ", ".join(sorted(ops))))
    result = ops[args.op]()
    _emit({"op": args.op, "result": sorted(str(e) for e in result)}, args.json)
    return 0


def cmd_lattice_lab(args) -> int:
    from . import abstractions as ab
    try:
        lattice = ab.lattice_from_config(_load_json(args.lattice))
    except ab.LatticeError as exc:
        print("construction error: %s" % exc, file=sys.stderr)
        return 2
    lat = lattice.lattice if isinstance(lattice, ab.ChainPoset) else lattice
    payload = {
        "elements": sorted(str(e) for e in lat.elements),
        "bot": str(lat.bot),
        "top": str(lat.top),
        "families": [f.name for f in lattice.families]
        if isinstance(lattice, ab.ChainPoset) else [],
    }
    _emit(payload, args.json)
    return 0


def cmd_selftest(args) -> int:
    from . import selftest
    failures = selftest.run(args.filter)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hl", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--program", required=True, help="program file")
        p.add_argument("--space", required=True, help="state space JSON")
        p.add_argument("--json", action="store_true",
                       help="single-line canonical JSON")

    p = sub.add_parser("sem", help="denotation triple plus oracle agreement")
    common(p)
    p.set_defaults(fn=cmd_sem)

    p = sub.add_parser("trace", help="bounded finite-trace semantics")
    common(p)
    p.add_argument("--L", type=int, default=10, help="max trace length")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("post", help="post image of explicit preconditions")
    common(p)
    p.add_argument("--pre", required=True, help="precondition triples JSON")
    p.set_defaults(fn=cmd_post)

    p = sub.add_parser("hyper-post", help="structural Post of a hyper set")
    common(p)
    p.add_argument("--pre", required=True)
    p.set_defaults(fn=cmd_hyper_post)

    p = sub.add_parser("check", help="hyper triple / proof rule check")
    p.add_argument("--request", help="JSON request object")
    p.add_argument("--program")
    p.add_argument("--space")
    p.add_argument("--pre")
    p.add_argument("--rule", default="upper")
    p.add_argument("--post-oracle", dest="post_oracle",
                   help="NI|GNI|GD or a triples JSON file")
    p.add_argument("--low", help="low variable of NI|GNI|GD (default l)")
    p.add_argument("--high", help="high variable of NI|GNI|GD (default h)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("abstract", help="apply an abstraction operator")
    p.add_argument("--lattice", required=True, help="lattice description JSON")
    p.add_argument("--op", required=True)
    p.add_argument("--set", default="", help="comma-separated element names")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_abstract)

    p = sub.add_parser("lattice-lab", help="validate a lattice description")
    p.add_argument("--lattice", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_lattice_lab)

    p = sub.add_parser("selftest", help="run the worked-example corpus")
    p.add_argument("--filter", help="only suites whose name contains this")
    p.set_defaults(fn=cmd_selftest)

    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
