"""apckit benchmark: one workload, closed loop, checked outputs, one JSON line.

Run from the repository root:

    python3 apcbench/run.py --workload lattice --seed 1 --seconds 36 --trace 0

The run imports apckit from ``src/``, sets the workload up several times
(re-importing apckit each time), then repeats passes over the workload's
operations, one after the other in one thread, until ``--seconds`` have gone.
Every output is checked outside the timed region.  Times are reported in
reference seconds, calibrated around every operation (see README.md).  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics: the end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``.  A traced run alternates untraced and traced passes, so it also
reports the tracing overhead.  Per-pass figures and the traced call tree are
written under ``apcbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 9
# The calibration loop, and its typical time on the reference machine running
# at full speed (see README.md).
CALIBRATION_LOOPS = 20_000
REFERENCE_S = 0.009
KINDS = ("build", "verify", "other")

END_TO_END = {
    "setup_s": "s", "build_s": "s", "verify_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
}


def span(name, field):
    return lambda snap: snap["spans"].get(name, {}).get(field, 0)


def count(name):
    return lambda snap: snap["counts"].get(name, 0)


def evals_per_cross_pair(snap):
    pairs = count("metric.family_is_R_disjoint.cross_pairs")(snap)
    return span("metric.family_is_R_disjoint", "dist_evals")(snap) / pairs if pairs else 0.0


# name -> (unit, value from one traced pass).  Times ("s") are reported as
# the median over traced passes; counts and ratios from the first traced pass,
# since they repeat exactly.  The two init_s figures also include the traced
# set-up, where the word windows and group balls of a workload are built.
PER_LAYER = {
    "metric.dist_evals": ("count", count("metric.dist_evals")),
    "metric.set_diameter_sq.self_s": ("s", span("metric.set_diameter_sq", "self_s")),
    "metric.set_diameter_sq.dist_evals": ("count", span("metric.set_diameter_sq", "dist_evals")),
    "metric.family_is_R_disjoint.self_s": ("s", span("metric.family_is_R_disjoint", "self_s")),
    "metric.family_is_R_disjoint.dist_evals":
        ("count", span("metric.family_is_R_disjoint", "dist_evals")),
    "metric.family_is_R_disjoint.cross_pairs":
        ("count", count("metric.family_is_R_disjoint.cross_pairs")),
    "metric.family_is_R_disjoint.evals_per_cross_pair": ("ratio", evals_per_cross_pair),
    "metric.r_components.self_s": ("s", span("metric.r_components", "self_s")),
    "metric.r_components.dist_evals": ("count", span("metric.r_components", "dist_evals")),
    "metric.set_diameter.self_s": ("s", span("metric.set_diameter", "self_s")),
    "metric.validate_metric.self_s": ("s", span("metric.validate_metric", "self_s")),
    "exact.sq_value.calls": ("count", count("exact.sq_value.calls")),
    "exact.root_of.calls": ("count", count("exact.root_of.calls")),
    "exact.hyp.calls": ("count", count("exact.hyp.calls")),
    "trees.meet.calls": ("count", span("trees.meet", "calls")),
    "trees.meet.self_s": ("s", span("trees.meet", "self_s")),
    "trees.tree_cover.self_s": ("s", span("trees.tree_cover", "self_s")),
    "covers.verify_apc_witness.calls": ("count", span("covers.verify_apc_witness", "calls")),
    "covers.verify_apc_witness.self_s": ("s", span("covers.verify_apc_witness", "self_s")),
    "covers.verify_apc_witness.total_s": ("s", span("covers.verify_apc_witness", "total_s")),
    "covers.oracle.calls": ("count", span("covers.oracle", "calls")),
    "covers.min_families_at_scale.self_s": ("s", span("covers.min_families_at_scale", "self_s")),
    "covers.greedy_families_at_scale.self_s":
        ("s", span("covers.greedy_families_at_scale", "self_s")),
    "covers.solver.nodes": ("count", count("covers.solver.nodes")),
    "combinators.product_engine.self_s": ("s", span("combinators.product_engine", "self_s")),
    "combinators.fibering_cover.self_s": ("s", span("combinators.fibering_cover", "self_s")),
    "combinators.decompose.self_s": ("s", span("combinators.decompose", "self_s")),
    "combinators.check_uniformly_expansive.self_s":
        ("s", span("combinators.check_uniformly_expansive", "self_s")),
    "combinators.check_uniformly_expansive.dist_evals":
        ("count", span("combinators.check_uniformly_expansive", "dist_evals")),
    "freeprod.window.init_s": ("s", span("freeprod.window.init", "total_s")),
    "freeprod.build_v_families.calls": ("count", span("freeprod.build_v_families", "calls")),
    "freeprod.build_v_families.self_s": ("s", span("freeprod.build_v_families", "self_s")),
    "freeprod.cone_window.self_s": ("s", span("freeprod.cone_window", "self_s")),
    "freeprod.component_core.self_s": ("s", span("freeprod.component_core", "self_s")),
    "freeprod.cone_cover.self_s": ("s", span("freeprod.cone_cover", "self_s")),
    "groups.cayley_window.init_s": ("s", span("groups.cayley_window.init", "total_s")),
    "groups.norm_of.calls": ("count", count("groups.norm_of.calls")),
    "io.load_s": ("s", span("io.load", "total_s")),
    "io.save_s": ("s", span("io.save", "total_s")),
    "io.bytes_written": ("bytes", count("io.bytes_written")),
    "cli.main.self_s": ("s", span("cli.main", "self_s")),
}
SETUP_INCLUDED = ("freeprod.window.init_s", "groups.cayley_window.init_s")


def import_apckit():
    """A fresh import of apckit and its layer modules."""
    for name in [n for n in sys.modules if n == "apckit" or n.startswith("apckit.")]:
        del sys.modules[name]
    import tracer

    return SimpleNamespace(**{layer: importlib.import_module(f"apckit.{layer}")
                              for layer in tracer.LAYERS})


def calibration_s():
    """Time of a fixed pure-Python loop: how fast the machine runs right now."""
    t0 = perf_counter()
    table = {}
    for i in range(CALIBRATION_LOOPS):
        p, q = (i % 89, i % 31), (i % 7, i % 53)
        table[p] = min(table.get(p, 10**9), abs(p[0] - q[0]) + abs(p[1] - q[1]))
    return perf_counter() - t0


def timed(fn):
    """(result, seconds, reference seconds) of fn(), calibrated just before and after.

    Reference seconds are seconds on the reference machine while it runs the
    calibration loop in REFERENCE_S: the measured time times REFERENCE_S over
    the mean of the two calibrations.
    """
    before = calibration_s()
    t0 = perf_counter()
    result = fn()
    dt = perf_counter() - t0
    after = calibration_s()
    return result, dt, dt * REFERENCE_S / ((before + after) / 2)


def run_pass(ops):
    """One pass over all operations; only the operations' own calls are timed.

    Each operation is timed in reference seconds, with one calibration
    between consecutive operations.
    """
    times = dict.fromkeys(KINDS, 0.0)
    op_s = {}
    failures = []
    raw = check_s = 0.0
    cal = calibration_s()
    for op in ops:
        error = None
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as e:  # an operation that raises counts as failed
            error = e
        dt = perf_counter() - t0
        raw += dt
        nxt = calibration_s()
        dt *= REFERENCE_S / ((cal + nxt) / 2)
        cal = nxt
        times[op.kind] += dt
        op_s[op.name] = dt
        if error is None:
            t0 = perf_counter()
            try:
                op.check(out)
            except Exception as e:
                error = e
            check_s += perf_counter() - t0
        if error is not None:
            expected = op.known_fault and isinstance(error, OverflowError)
            failures.append({"op": op.name, "expected": expected,
                             "error": "".join(traceback.format_exception_only(error)).strip()})
    pass_s = sum(times.values())
    return {"times": times, "pass_s": pass_s, "scale": pass_s / raw, "ops": len(ops),
            "op_s": op_s, "failures": failures, "unscaled_s": raw, "check_s": check_s}


def measure(workload, seed, seconds, trace, workdir):
    """Set up SETUP_REPS times, then run passes for ``seconds``.

    A traced run also sets up once more under the tracer, for the set-up
    figures only (its operations would hold wrapped functions, so they are
    dropped), and installs the tracer for every second pass, so traced and
    untraced passes alternate.
    """
    import tracer as tr
    import workloads

    setup = workloads.WORKLOADS[workload]

    def import_and_set_up():
        ak = import_apckit()
        return ak, setup(ak, seed, workdir)

    setups = []
    for _ in range(SETUP_REPS):
        gc.collect()
        (ak, ops), raw, dt = timed(import_and_set_up)
        setups.append({"setup_s": dt, "scale": dt / raw})

    tracer = tr.Tracer() if trace else None
    if tracer:
        traced_dir = os.path.join(workdir, "traced")
        os.makedirs(traced_dir, exist_ok=True)
        tracer.install(ak)
        _, raw, dt = timed(lambda: setup(ak, seed, traced_dir))
        tracer.uninstall()
        setups.append({"setup_s": dt, "scale": dt / raw, "trace": tracer.snapshot()})

    passes = []
    start = perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install(ak)
        gc.collect()
        record = run_pass(ops)
        if traced:
            tracer.uninstall()
            record["trace"] = tracer.snapshot()
        record["traced"] = traced
        passes.append(record)
        if perf_counter() - start >= seconds and (not tracer or len(passes) % 2 == 0):
            break
    return setups, passes


def summarize(setups, passes, trace):
    failures = [f for p in passes for f in p["failures"]]
    result = {
        "correct": all(f["expected"] for f in failures),
        "attempted": sum(p["ops"] for p in passes),
        "failed": len(failures),
    }
    if not trace:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "build_s": statistics.median(p["times"]["build"] for p in passes),
            "verify_s": statistics.median(p["times"]["verify"] for p in passes),
            "pass_s": statistics.median(p["pass_s"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        return result
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    traced_setup = setups[-1]
    metrics = {}
    for name, (unit, get) in PER_LAYER.items():
        if unit == "s":
            value = statistics.median(get(p["trace"]) * p["scale"] for p in traced)
            if name in SETUP_INCLUDED:
                value += get(traced_setup["trace"]) * traced_setup["scale"]
        else:
            value = get(traced[0]["trace"])
        metrics[name] = {"value": value, "unit": unit}
    traced_s = statistics.median(p["pass_s"] for p in traced)
    plain_s = statistics.median(p["pass_s"] for p in plain)
    metrics["trace.pass_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.untraced_pass_s"] = {"value": plain_s, "unit": "s"}
    metrics["trace.overhead"] = {"value": traced_s / plain_s, "unit": "ratio"}
    result["metrics"] = metrics
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["lattice", "trees", "groups-words"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "apckit", "__init__.py")):
        print(f"apckit sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups, passes = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = summarize(setups, passes, args.trace)

    for f in {(f["op"], f["error"]) for p in passes for f in p["failures"]}:
        print(f"failed: {f[0]}: {f[1]}", file=sys.stderr)
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump({"args": vars(args), "setups": setups, "passes": passes, "result": result},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
