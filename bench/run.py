#!/usr/bin/env python3
"""Benchmark of the `hl` lab, end to end and layer by layer (stdlib only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --stability N [--workload NAME] [--seed N] [--seconds S]

One process, one client, one operation after another (a closed loop).  The
workload's inputs are generated from the seed and written under
`.bench_work/`; the operations then run in whole rounds until `--seconds`
have passed and at least 100 operations were attempted.  `denote-*` and
`hyper-check` operations call `hyperlab.cli.main` in-process with `--json`
and parse its stdout; `lattice-laws` calls `hyperlab.abstractions`.  Every
output is checked against `refs` outside the timed region.

Times are reference-scaled: each operation and each set-up is followed by a
fixed pure-Python computation (`refs.reference_work`), and its measured
seconds are multiplied by the reference's nominal duration over its measured
duration.  This cancels most of the machine's drift in speed over seconds.
Raw seconds are printed beside the scaled ones and written to the result
file; they are not metrics.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` every traced function of the lab is wrapped from outside
(`tracer.py`) and the last line holds the per-layer metrics of one round.
Result and trace files go to `.bench_out/`.

`--stability N` runs each workload N times in child processes on seeds
N0..N0+N-1, prints every end-to-end metric's median and quartiles next to its
bound in BENCHMARK.json, and then checks the traced run: two traced runs on
the first seed must repeat every count exactly, give the same outputs as the
untraced run, and bear out the predictions listed in the README.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

import refs  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

MIN_OPS = 100
SETUP_REPS = 5
REF_UNIT_S = 1.5e-4          # nominal seconds of one reference round
REF_REL = refs.reference_input()
# reference rounds per workload, so the reference lasts about one operation
REF_ROUNDS = {"denote-deep": 250, "denote-wide": 400, "hyper-check": 30,
              "lattice-laws": 40}
SETUP_REF_ROUNDS = 400

MODULES = ("lang", "rel_domain", "interpreter", "trace_domain", "transformers",
           "hyperlogic", "abstractions", "selftest", "cli")

END_TO_END = ("setup_s", "wall_s", "op_p50_s", "op_p90_s", "peak_rss_mb")

PER_LAYER = (
    "cli.main.self_s", "rel_domain.triple_from_json.self_s",
    "rel_domain.triple_to_json.self_s",
    "lang.parse.calls", "lang.parse.self_s", "lang.validate_breaks.self_s",
    "rel_domain.prim.calls", "rel_domain.prim.self_s",
    "rel_domain.compose_rel.calls", "rel_domain.compose_rel.self_s",
    "rel_domain.compose_rel.pairs_out", "rel_domain.rel_into.calls",
    "rel_domain.rel_into.self_s", "rel_domain.compose.calls",
    "rel_domain.join.calls",
    "interpreter.sem.calls", "interpreter.sem.self_s",
    "interpreter.body_triple.calls", "interpreter.lfp.calls",
    "interpreter.lfp.iterations", "interpreter.lfp.self_s",
    "interpreter.lfp.pairs_yield", "interpreter.gfp.calls",
    "interpreter.gfp.iterations", "interpreter.gfp.self_s",
    "interpreter.oracle_sem.calls", "interpreter.oracle_sem.self_s",
    "trace_domain.trace_sem.calls", "trace_domain.trace_sem.self_s",
    "trace_domain.concat.calls", "trace_domain.concat.self_s",
    "trace_domain.concat.traces_out",
    "transformers.post.calls", "transformers.post.self_s",
    "transformers.post_structural.calls", "transformers.post_structural.self_s",
    "transformers.Post_structural.self_s",
    "transformers.weak_while_iterates.calls",
    "transformers.weak_while_iterates.self_s",
    "hyperlogic.check_upper.calls", "hyperlogic.check_upper.self_s",
    "hyperlogic.check_lower.self_s", "hyperlogic.check_rule.calls",
    "hyperlogic.check_rule.self_s",
    "abstractions.family.NI.calls", "abstractions.family.NI.self_s",
    "abstractions.family.GNI.calls", "abstractions.family.GNI.self_s",
    "abstractions.family.GD.calls", "abstractions.family.GD.self_s",
    "abstractions.ToyLattice.calls", "abstractions.ToyLattice.self_s",
    "abstractions.operators.calls", "abstractions.operators.self_s",
    "abstractions.chain_star.self_s",
)


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("pairs_yield"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# One run

def _import_lab(fresh):
    """Import the lab from this checkout's src/ (never an installed copy)."""
    if fresh:
        for name in [m for m in sys.modules
                     if m == "hyperlab" or m.startswith("hyperlab.")]:
            del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    mods = {m: importlib.import_module("hyperlab." + m) for m in MODULES}
    if os.path.dirname(os.path.abspath(mods["cli"].__file__)) != \
            os.path.join(SRC, "hyperlab"):
        raise ImportError("hyperlab was not imported from %s" % SRC)
    return mods


def _reference(rounds):
    """Run the scaling reference; returns seconds-to-nominal factor."""
    t0 = time.perf_counter()
    refs.reference_work(REF_REL, rounds)
    return rounds * REF_UNIT_S / (time.perf_counter() - t0)


def _setup(workload, seed, workdir):
    """Set up SETUP_REPS times; the first from process start.  Returns the
    lab, the operations of the last set-up and the (raw, scaled) times."""
    times = []
    start = T_START
    for rep in range(SETUP_REPS):
        d = os.path.join(workdir, "setup%d" % rep)
        os.makedirs(d)
        mods = _import_lab(fresh=rep > 0)
        ops = workloads.build(workload, seed, d)
        raw = time.perf_counter() - start
        times.append((raw, raw * _reference(SETUP_REF_ROUNDS)))
        if rep < SETUP_REPS - 1:
            shutil.rmtree(d)
        start = time.perf_counter()
    return types.SimpleNamespace(**mods), ops, times


def _quantile(xs, q):
    return statistics.quantiles(xs, n=10, method="inclusive")[q - 1]


def run_once(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return _run(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, workdir):
    lab, ops, setup_times = _setup(workload, seed, workdir)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install({m: getattr(lab, m) for m in MODULES})
    ref_rounds = REF_ROUNDS[workload]
    raw_ops, scaled_ops, scales = [], [], []
    attempted = failed = wrong = rounds = 0
    errors, per_op = [], []
    digest = hashlib.sha256()
    self_sum_err = 0.0
    t_run = time.perf_counter()
    while True:
        for op in ops:
            attempted += 1
            if tracer:
                tracer.enabled = True
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                if tracer:
                    with tracer.span("op"):
                        result = op.run(lab)
                else:
                    result = op.run(lab)
            except Exception as exc:  # a fault of the lab: count it, go on
                result = exc
            dt = time.perf_counter() - t0
            scale = _reference(ref_rounds)
            if tracer:
                self_sum_err = max(self_sum_err, tracer.end_op(scale))
                tracer.enabled = False
            raw_ops.append(dt)
            scaled_ops.append(dt * scale)
            scales.append(scale)
            if rounds == 0:
                per_op.append((op.label, dt, dt * scale))
            if isinstance(result, Exception) or op.failed(result):
                failed += 1
                if len(errors) < 5:
                    errors.append("%s: failed (%r)" % (op.label, result))
                continue
            if rounds == 0:
                digest.update(op.digest(result).encode())
            msg = op.check(result)
            if msg is not None:
                wrong += 1
                if len(errors) < 5:
                    errors.append(msg)
        rounds += 1
        if time.perf_counter() - t_run >= seconds and attempted >= MIN_OPS:
            break
    for e in errors:
        print("error: %s" % e, file=sys.stderr)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {
        "setup_s": statistics.median(t[0] for t in setup_times),
        "wall_s": sum(raw_ops) / rounds,
        "op_p50_s": statistics.median(raw_ops),
        "op_p90_s": _quantile(raw_ops, 9),
    }
    scaled = {
        "setup_s": statistics.median(t[1] for t in setup_times),
        "wall_s": sum(scaled_ops) / rounds,
        "op_p50_s": statistics.median(scaled_ops),
        "op_p90_s": _quantile(scaled_ops, 9),
        "peak_rss_mb": peak_mb,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": rounds, "ops_per_round": len(ops), "attempted": attempted,
        "failed": failed, "correct": wrong == 0, "outputs_sha256": digest.hexdigest(),
        "raw": raw, "scaled": scaled,
        "ref_scale": {"median": statistics.median(scales),
                      "min": min(scales), "max": max(scales)},
        "setup_reps": setup_times,
        "first_round_ops": per_op,
    }
    if tracer:
        metrics = _layer_metrics(tracer, rounds)
        record["per_layer"] = metrics
        record["spans"] = tracer.spans(rounds)
        record["counts"] = {"%s.%s" % k: v / rounds for k, v in tracer.counts.items()}
        record["self_sum_max_error_s"] = self_sum_err
        out = {m: {"value": metrics[m], "unit": _unit(m)} for m in PER_LAYER}
    else:
        out = {m: {"value": scaled[m], "unit": _unit(m)} for m in END_TO_END}
    name = "%s-%s-seed%d.json" % ("trace" if trace else "result", workload, seed)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("%s seed %d: %d rounds of %d ops; raw setup_s %.4f wall_s %.4f "
          "op_p50_s %.5f op_p90_s %.5f; reference scale median %.3f" % (
              workload, seed, rounds, len(ops), raw["setup_s"], raw["wall_s"],
              raw["op_p50_s"], raw["op_p90_s"], record["ref_scale"]["median"]))
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": out}


def _layer_metrics(tracer, rounds):
    """Per-layer metrics of one round (totals over the run / rounds)."""
    totals = tracer.totals()
    out = {}
    for m in PER_LAYER:
        span, _, kind = m.rpartition(".")
        calls, self_s = totals.get(span, (0, 0.0))
        if kind == "calls":
            out[m] = calls / rounds
        elif kind == "self_s":
            out[m] = self_s / rounds
        elif kind == "pairs_yield":
            made = tracer.counts.get((span, "compose_pairs"), 0)
            kept = tracer.counts.get((span, "result_pairs"), 0)
            out[m] = kept / made if made else 0.0
        else:
            out[m] = tracer.counts.get((span, kind), 0) / rounds
    return out


# ---------------------------------------------------------------------------
# Stability mode

def _child(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    name = "%s-%s-seed%d.json" % ("trace" if trace else "result", workload, seed)
    with open(os.path.join(OUT, name), encoding="utf-8") as fh:
        record = json.load(fh)
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


def _spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def stability(names, n, seed0, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    summary = {}
    ok_all = True
    print("%-13s %-12s %10s %10s %10s %7s %6s   %10s %10s %10s %7s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "raw med", "raw q1", "raw q3", "raw spr"))
    for w in names:
        runs = [_child(w, seed0 + i, seconds, 0) for i in range(n)]
        failed_share = {r[0]["failed"] / r[0]["attempted"] for r in runs}
        summary[w] = {"seeds": [seed0 + i for i in range(n)],
                      "correct": all(r[0]["correct"] for r in runs),
                      "failed_share": sorted(failed_share),
                      "attempted": [r[0]["attempted"] for r in runs]}
        for m in END_TO_END:
            vals = [r[0]["metrics"][m]["value"] for r in runs]
            med, q1, q3, spr = _spread(vals)
            row = {"median": med, "q1": q1, "q3": q3, "spread": spr,
                   "bound": bounds[m], "values": vals}
            line = "%-13s %-12s %10.5f %10.5f %10.5f %6.1f%% %5.0f%%" % (
                w, m, med, q1, q3, 100 * spr, 100 * bounds[m])
            if m in runs[0][1]["raw"]:
                rvals = [r[1]["raw"][m] for r in runs]
                rmed, rq1, rq3, rspr = _spread(rvals)
                row["raw"] = {"median": rmed, "q1": rq1, "q3": rq3,
                              "spread": rspr, "values": rvals}
                line += "   %10.5f %10.5f %10.5f %6.1f%%" % (rmed, rq1, rq3, 100 * rspr)
            if m != "setup_s" and spr > bounds[m]:
                ok_all = False
                line += "  OVER BOUND"
            print(line)
            summary[w][m] = row
        summary[w]["trace"] = _trace_check(w, seed0, seconds, runs[0][1])
        ok_all = ok_all and summary[w]["correct"] and summary[w]["trace"]["ok"]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(OUT, "stability-%s.json" % stamp), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print("stability: %s" % ("ok" if ok_all else "NOT OK"))
    return 0 if ok_all else 1


_RELATIONAL = ("rel_domain.", "interpreter.", "trace_domain.", "transformers.",
               "hyperlogic.")


def _trace_check(w, seed, seconds, untraced):
    """Two traced runs on one seed: exact counts, same outputs, overhead and
    the workload's prediction."""
    (r1, t1), (r2, t2) = (_child(w, seed, seconds, 1) for _ in range(2))
    counts_equal = all(r1["metrics"][m]["value"] == r2["metrics"][m]["value"]
                       for m in PER_LAYER if not m.endswith("_s"))
    same_output = t1["outputs_sha256"] == untraced["outputs_sha256"] == \
        t2["outputs_sha256"]
    layer = t1["per_layer"]
    op_s = sum(s["total_s"] for s in t1["spans"] if s["name"] == "op")
    checks = {"counts_repeat": counts_equal, "outputs_equal_untraced": same_output,
              "correct": r1["correct"] and r2["correct"],
              "self_times_sum_to_op": t1["self_sum_max_error_s"] < 1e-6}
    if w == "lattice-laws":
        checks["relational_counts_zero"] = all(
            layer[m] == 0 for m in PER_LAYER
            if m.startswith(_RELATIONAL) and not m.endswith("_s"))
    if w == "hyper-check":
        checks["no_oracle_calls"] = layer["interpreter.oracle_sem.calls"] == 0
    if w == "denote-wide":
        checks["oracle_most_of_op_time"] = \
            layer["interpreter.oracle_sem.self_s"] > 0.5 * op_s
    if w == "denote-deep":
        structural = layer["interpreter.sem.self_s"] + sum(
            layer[m] for m in PER_LAYER
            if m.startswith("rel_domain.") and m.endswith(".self_s"))
        checks["sem_and_rel_domain_most_of_op_time"] = structural > 0.5 * op_s
    overhead = t1["scaled"]["wall_s"] - untraced["scaled"]["wall_s"]
    print("%-13s trace: %s; tracing overhead %.4f s per round (%.1f%%)" % (
        w, ", ".join("%s=%s" % kv for kv in checks.items()), overhead,
        100 * overhead / untraced["scaled"]["wall_s"]))
    return {"ok": all(checks.values()), "checks": checks,
            "overhead_s": overhead, "op_time_s": op_s,
            "per_layer": layer}


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--stability", type=int, metavar="N",
                    help="rerun each workload N times and report spreads")
    args = ap.parse_args(argv)
    if args.stability:
        names = [args.workload] if args.workload else list(workloads.NAMES)
        return stability(names, args.stability, args.seed, args.seconds)
    if not args.workload:
        ap.error("--workload is required")
    try:
        result = run_once(args.workload, args.seed, args.seconds, args.trace)
    except ImportError as exc:
        print("error: cannot import the lab: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
