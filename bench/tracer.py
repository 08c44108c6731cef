"""Per-layer spans for the traced run, recorded from outside `hyperlab`.

`Tracer.install` replaces each traced function by a wrapper in every
`hyperlab` module that binds it (modules import `compose`, `join`, `prim`,
`parse` ... by name, and `interpreter` calls `sem`, `lfp`, `gfp` bare, so
wrapping only the defining module would miss those calls).  Spans are
aggregated per (name, parent name) as they close: call count, total and self
time, where self time is the span's duration minus the time its child spans
cover.  A few spans also carry counts of the work they produced.
"""

from __future__ import annotations

import dataclasses
import time

# (module, attribute, span name); attribute "Class.method" wraps a method
SPANS = (
    ("cli", "main", "cli.main"),
    ("lang", "parse", "lang.parse"),
    ("lang", "validate_breaks", "lang.validate_breaks"),
    ("rel_domain", "triple_from_json", "rel_domain.triple_from_json"),
    ("rel_domain", "triple_to_json", "rel_domain.triple_to_json"),
    ("rel_domain", "prim", "rel_domain.prim"),
    ("rel_domain", "compose_rel", "rel_domain.compose_rel"),
    ("rel_domain", "rel_into", "rel_domain.rel_into"),
    ("rel_domain", "compose", "rel_domain.compose"),
    ("rel_domain", "join", "rel_domain.join"),
    ("interpreter", "sem", "interpreter.sem"),
    ("interpreter", "body_triple", "interpreter.body_triple"),
    ("interpreter", "lfp", "interpreter.lfp"),
    ("interpreter", "gfp", "interpreter.gfp"),
    ("interpreter", "oracle_sem", "interpreter.oracle_sem"),
    ("trace_domain", "trace_sem", "trace_domain.trace_sem"),
    ("trace_domain", "concat", "trace_domain.concat"),
    ("transformers", "post", "transformers.post"),
    ("transformers", "post_structural", "transformers.post_structural"),
    ("transformers", "Post_structural", "transformers.Post_structural"),
    ("transformers", "weak_while_iterates", "transformers.weak_while_iterates"),
    ("hyperlogic", "check_upper", "hyperlogic.check_upper"),
    ("hyperlogic", "check_lower", "hyperlogic.check_lower"),
    ("hyperlogic", "check_rule", "hyperlogic.check_rule"),
    ("abstractions", "ToyLattice.__init__", "abstractions.ToyLattice"),
    ("abstractions", "_star", "abstractions.chain_star"),
)

# public operator functions of `abstractions`, summed into one span name
OPERATORS = (
    "alpha_join", "gamma_join", "homomorphic", "eliminate",
    "principal_ideal", "principal_filter", "order_ideal", "order_filter",
    "frontier_min", "frontier_max", "frontier_order_ideal", "rho_subseteq",
    "phi_subseteq", "rho_frontier", "chain_down", "chain_up",
    "chain_down_star", "chain_up_star", "order_ideal_chain_up",
    "order_ideal_chain_up_star", "order_filter_chain_down",
    "order_filter_chain_down_star", "conjunctive", "frontier_max_presented",
    "frontier_min_presented",
)

FAMILIES = ("NI", "GNI", "GD")

# span name -> counter name -> function(args, result) -> number
_COUNTERS = {
    "rel_domain.compose_rel": {"pairs_out": lambda a, r: len(r)},
    "trace_domain.concat": {"traces_out": lambda a, r: len(r[0])},
    "interpreter.lfp": {"iterations": lambda a, r: r.iterations},
    "interpreter.gfp": {"iterations": lambda a, r: r.iterations},
}


class _Frame:
    __slots__ = ("name", "child", "compose_pairs")

    def __init__(self, name):
        self.name = name
        self.child = 0.0
        self.compose_pairs = 0


class Tracer:
    """Spans of the current operation, merged into run totals per operation
    once the operation's reference scale is known."""

    def __init__(self):
        self.stack = [_Frame("")]
        self.op_agg = {}       # (name, parent) -> [calls, total_s, self_s], raw
        self.agg = {}          # the same over the run, reference-scaled
        self.counts = {}       # (name, counter) -> total over the run
        self.enabled = True

    def begin_op(self):
        self.op_agg = {}

    def end_op(self, scale) -> float:
        """Merge the operation's spans; returns |sum of self times - the
        duration of the operation's root span|."""
        root = sum(rec[1] for (name, parent), rec in self.op_agg.items()
                   if parent == "")
        self_sum = sum(rec[2] for rec in self.op_agg.values())
        for key, (calls, total, self_s) in self.op_agg.items():
            rec = self.agg.setdefault(key, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total * scale
            rec[2] += self_s * scale
        return abs(self_sum - root)

    # -- recording ----------------------------------------------------------
    def _close(self, frame, parent, dt, args, result):
        rec = self.op_agg.get((frame.name, parent.name))
        if rec is None:
            rec = self.op_agg[(frame.name, parent.name)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame.child
        parent.child += dt
        for key, fn in _COUNTERS.get(frame.name, {}).items():
            v = fn(args, result)
            self.counts[(frame.name, key)] = self.counts.get((frame.name, key), 0) + v
            if key == "pairs_out":
                frame.compose_pairs += v
        if frame.name == "interpreter.lfp" and frame.compose_pairs:
            # relational fixpoints only: pairs kept over pairs composed
            for key, v in (("result_pairs", len(result.result)),
                           ("compose_pairs", frame.compose_pairs)):
                self.counts[(frame.name, key)] = \
                    self.counts.get((frame.name, key), 0) + v
        parent.compose_pairs += frame.compose_pairs

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = _Frame(name)
            parent = tracer.stack[-1]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
            tracer._close(frame, parent, dt, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    # -- installation -------------------------------------------------------
    def install(self, hyperlab_modules: dict) -> None:
        """Wrap every traced function wherever a `hyperlab` module binds it."""
        mods = hyperlab_modules
        targets = []
        for mod, attr, name in SPANS:
            targets.append((mods[mod], attr, name))
        for op in OPERATORS:
            targets.append((mods["abstractions"], op, "abstractions.operators"))
        for mod, attr, name in targets:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapped)
        ab = mods["abstractions"]
        family = ab.family

        def traced_family(name, **kwargs):
            oracle = family(name, **kwargs)
            if name in FAMILIES:
                oracle = dataclasses.replace(
                    oracle, fn=self.wrap("abstractions.family." + name, oracle.fn))
            return oracle

        for m in mods.values():
            for key, val in list(vars(m).items()):
                if val is family:
                    setattr(m, key, traced_family)

    # -- results ------------------------------------------------------------
    def totals(self):
        """name -> (calls, self_s) over the run, summed over parents."""
        out = {}
        for (name, _parent), (calls, _total, self_s) in self.agg.items():
            c, t = out.get(name, (0, 0.0))
            out[name] = (c + calls, t + self_s)
        return out

    def spans(self, rounds):
        """Aggregated spans per round, by (name, parent)."""
        return [{"name": n, "parent": p, "calls": c / rounds,
                 "total_s": t / rounds, "self_s": s / rounds}
                for (n, p), (c, t, s) in sorted(self.agg.items())]


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = _Frame(self.name)
        self.parent = self.tracer.stack[-1]
        self.tracer.stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.dt = time.perf_counter() - self.t0
        self.tracer.stack.pop()
        self.tracer._close(self.frame, self.parent, self.dt, (), None)
        return False
