"""Command-line front end: hl sem|trace|post|hyper-post|check|abstract|lattice-lab|selftest.

All reports are JSON with canonical ordering (states as value arrays in
declared variable order), so identical inputs give byte-identical output.
Exit codes for `check`: 0 holds, 1 fails, 2 error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from itertools import chain

from . import abstractions as ab
from . import hyperlogic as hl
from . import interpreter as it
from . import rel_domain as rd
from . import selftest
from . import trace_domain as td
from . import transformers as tf
from .lang import ParseError, parse, validate_breaks
from .rel_domain import StateSpace


class CliError(Exception):
    pass


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_program(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        stmt = parse(fh.read())
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
    try:
        triples = frozenset(rd.triple_from_json(d) for d in data)
    except ValueError as exc:
        raise CliError("%s: %s" % (where, exc)) from None
    inside = frozenset(space.states())
    for t in triples:
        for sigma in chain(t.inf, *t.e, *t.br):
            if sigma not in inside:
                raise CliError("%s: state %s is outside the state space"
                               % (where, list(sigma)))
    return triples


def _load_hyperset(path: str, space: StateSpace):
    data = _load_json(path)
    if isinstance(data, dict):
        data = [data]
    return _triples(data, space, path)


def _request_triples(req: dict, key: str, space: StateSpace):
    return _triples(req.get(key, []), space, "request %r" % key)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(rd.dumps_canonical(payload))
        return
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_sem(args) -> int:
    stmt = _load_program(args.program)
    space = _load_space(args.space)
    t = it.sem(stmt, space)
    agree = it.oracle_sem(stmt, space) == t
    _emit({"triple": rd.triple_to_json(t), "oracle_agrees": agree}, args.json)
    return 0


def cmd_trace(args) -> int:
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
    stmt = _load_program(args.program)
    space = _load_space(args.space)
    s_sem = it.sem(stmt, space)
    pres = _load_hyperset(args.pre, space)
    results = [rd.triple_to_json(tf.post(s_sem, p))
               for p in sorted(pres, key=rd.SemTriple.sort_key)]
    _emit({"post": results}, args.json)
    return 0


def cmd_hyper_post(args) -> int:
    stmt = _load_program(args.program)
    space = _load_space(args.space)
    pres = _load_hyperset(args.pre, space)
    out = tf.Post_structural(stmt, pres, space)
    _emit({"Post": [rd.triple_to_json(t)
                    for t in sorted(out, key=rd.SemTriple.sort_key)]},
          args.json)
    return 0


def _named_oracle(args, space):
    name = args.post_oracle
    if name in ("NI", "GNI", "GD"):
        return ab.family(name, space=space, low=args.low, high=args.high)
    return _load_hyperset(name, space)


def cmd_check(args) -> int:
    if args.request:
        req = _load_json(args.request)
        missing = [k for k in ("space", "program")
                   if not isinstance(req, dict) or k not in req]
        if missing:
            raise CliError("request has no %s" %
                           ", ".join(repr(k) for k in missing))
        space = StateSpace.from_config(req["space"])
        stmt = parse(req["program"])
        pre = _request_triples(req, "pre", space)
        post_q = req.get("post_oracle")
        if isinstance(post_q, str):
            post_q = ab.family(post_q, space=space,
                               low=req.get("low", "l"),
                               high=req.get("high", "h"))
        else:
            post_q = _request_triples(req, "post", space)
        rule = req.get("rule", "upper")
        if rule == "upper":
            rep = hl.check_upper(hl.Triple(pre, stmt, post_q, "upper"), space)
        elif rule == "lower":
            rep = hl.check_lower(hl.Triple(pre, stmt, post_q, "lower"), space)
        elif rule == "forall_exists":
            if not isinstance(stmt, hl.While):
                raise CliError("rule 'forall_exists' needs a single while loop")
            inv = None
            if req.get("invariant") is not None:
                inv = _request_triples(req, "invariant", space)
            rep = hl.check_rule("forall_exists", space, pre=pre,
                                cond=stmt.cond, body=stmt.body,
                                post_q=post_q, invariant=inv)
        else:
            raise CliError("request rule %r not supported here" % rule)
    else:
        missing = [f for f in ("program", "space", "pre", "post_oracle")
                   if getattr(args, f) is None]
        if missing:
            raise CliError("check needs --request or %s" % ", ".join(
                "--" + f.replace("_", "-") for f in missing))
        space = _load_space(args.space)
        stmt = _load_program(args.program)
        pre = _load_hyperset(args.pre, space)
        post_q = _named_oracle(args, space)
        if args.rule == "upper":
            rep = hl.check_upper(hl.Triple(pre, stmt, post_q, "upper"), space)
        elif args.rule == "lower":
            rep = hl.check_lower(hl.Triple(pre, stmt, post_q, "lower"), space)
        elif args.rule in ("while_upper", "while_lower", "forall_exists"):
            if not isinstance(stmt, hl.While):
                raise CliError("rule %r needs a single while loop" % args.rule)
            rep = hl.check_rule(args.rule, space, pre=pre,
                                cond=stmt.cond, body=stmt.body, post_q=post_q)
        else:
            raise CliError("rule %r needs a --request file" % args.rule)
    _emit(rep.to_json(), args.json)
    return 0 if rep.holds() else 1


def cmd_abstract(args) -> int:
    lattice = ab.lattice_from_config(_load_json(args.lattice))
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
    failures = selftest.run(args.filter)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hl", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, program=True):
        if program:
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
    p.add_argument("--low", default="l")
    p.add_argument("--high", default="h")
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
    except (CliError, ParseError, rd.UnboundVariableError, ab.LatticeError,
            ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
