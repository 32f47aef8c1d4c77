"""cmfactor benchmark.

    python3 perfbench/run.py --workload cm-grid --seed 0 --seconds 28 --trace 0

Runs the seeded op list of one workload (see workloads.py) against the public
API of the cmfactor package in src/.  Every pass runs in a fresh interpreter
(worker.py), so no input-keyed cache carries from one pass into the next.
Passes repeat until --seconds is used up, with at least three.  Outputs are
checked outside the timed region; an op fails unless its exact verdict holds
and its digest matches the committed reference (references.json).

Every time reported is in paced seconds: the measured time scaled by
PACE_REF / pace, where pace is the time a fixed kernel (worker.pace) takes
right before and after the timed interval.  The raw figures are printed too.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import load_references  # noqa: E402
from tracer import LAYERS  # noqa: E402
from worker import pace  # noqa: E402
from workloads import WORKLOADS, generate, op_key  # noqa: E402

MIN_PASSES = 3
MIN_SETUPS = 10
TIME_LIMIT = 165          # seconds; the whole run must end within 180
OUT_DIR = os.path.join(HERE, "out")
# worker.pace() on the host the benchmark was defined on (a 2-core x86-64
# VM, CPython 3.11); paced seconds are seconds at that pace.
PACE_REF = 0.96e-3

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_s_p50": "s",
              "op_s_p90": "s"}
COUNTS = ("cm_evals", "cm_points", "cm_evals_per_point", "prec_bits",
          "product_bits", "prec_bits_per_product_bit", "prec_retries",
          "t_values", "product_terms")
RATIOS = {"cm_evals_per_point": ("cm_evals", "cm_points"),
          "prec_bits_per_product_bit": ("prec_bits", "product_bits")}


def per_layer_units():
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.total_s"] = "s"
    for name in COUNTS:
        units[f"count.{name}"] = "ratio" if name in RATIOS else "count"
    units["trace.overhead_s"] = "s"
    units["trace.coverage"] = "ratio"
    return units


class BenchError(Exception):
    pass


def run_pass(workload, ops, trace, deadline, spans=None):
    """Run ops once in a fresh interpreter and return the worker's report
    with paced times added: "setup_s" (from starting the interpreter until
    it has imported cmfactor and finished the warm-up op), "op_s" per op,
    "wall_s" (their sum) and "scale" (PACE_REF over the pass's median pace,
    for times measured inside the worker)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    before = pace()
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        if ready.strip() != "ready":
            proc.kill()
            proc.wait()
            raise BenchError("worker failed during set-up")
        # the worker waits for its ops meanwhile
        after = pace()
        out, _ = proc.communicate(json.dumps(ops),
                                  timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("pass exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    rep = json.loads(out.strip().splitlines()[-1])
    return paced(rep, setup, (before + after) / 2)


def paced(rep, setup, setup_pace):
    """Add paced times to a worker report; setup_pace is the pace measured
    around the worker's set-up."""
    paces = rep["pace"]
    rep["raw_setup_s"] = setup
    rep["setup_s"] = setup * PACE_REF / setup_pace
    rep["raw_op_s"] = rep["op_s"]
    rep["op_s"] = [t * PACE_REF / ((paces[i] + paces[i + 1]) / 2)
                   for i, t in enumerate(rep["raw_op_s"])]
    rep["wall_s"] = sum(rep["op_s"])
    rep["scale"] = PACE_REF / statistics.median(paces)
    return rep


def check_outputs(ops, reports, refs):
    """Count failed ops over all passes; print the first few problems."""
    failed = 0
    shown = 0
    first = [r[1] for r in reports[0]["results"]]
    for rep in reports:
        for op, (problems, digest, _), digest0 in zip(ops, rep["results"],
                                                       first):
            key = op_key(op)
            if key in refs and refs[key] != digest:
                problems = problems + ["digest differs from reference"]
            if digest != digest0:
                problems = problems + ["digest differs between passes"]
            if problems:
                failed += 1
                if shown < 5:
                    print(f"FAILED {key}: {'; '.join(problems)}")
                    shown += 1
    return failed


def pass_counts(rep):
    """Every count of one traced pass, call counts included."""
    counts = dict.fromkeys(("cm_points", "prec_bits", "product_bits",
                            "prec_retries"), 0)
    for _, _, op_counts in rep["results"]:
        for k, v in op_counts.items():
            counts[k] += v
    for k in ("t_values", "product_terms"):
        counts[k] = rep["counts"].get(k, 0)
    counts["cm_evals"] = sum(st["calls"] for name, st in rep["layers"].items()
                             if name.startswith("numeric.eval_"))
    for ratio, (num, den) in RATIOS.items():
        counts[ratio] = counts[num] / counts[den] if counts[den] else 0.0
    for name, st in rep["layers"].items():
        counts[f"{name}.calls"] = st["calls"]
    return counts


def layer_metrics(untraced, traced):
    """Per-layer metrics from the traced passes, and whether every count
    repeated exactly between them."""
    all_counts = [pass_counts(rep) for rep in traced]
    counts = all_counts[0]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0)
        for stat in ("self_s", "total_s"):
            metrics[f"{layer}.{stat}"] = statistics.median(
                rep["layers"].get(layer, {}).get(stat, 0.0) * rep["scale"]
                for rep in traced)
    for name in COUNTS:
        metrics[f"count.{name}"] = counts[name]
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced))
    metrics["trace.coverage"] = statistics.median(r["coverage"]
                                                  for r in traced)
    return metrics, all(c == counts for c in all_counts)


def end_to_end_metrics(untraced, setups):
    # each op's time is its median over the passes, which keeps one slow
    # pass from moving the percentiles
    op_s = [statistics.median(times)
            for times in zip(*(r["op_s"] for r in untraced))]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "op_s_p50": statistics.median(op_s),
        "op_s_p90": statistics.quantiles(op_s, n=10, method="inclusive")[8],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cmfactor",
                                       "__init__.py")):
        print("error: src/cmfactor not found next to perfbench/",
              file=sys.stderr)
        return 2

    ops = generate(args.workload, args.seed)
    refs = load_references().get(args.workload, {})
    start = perf_counter()
    deadline = start + TIME_LIMIT
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
    untraced, traced = [], []
    longest = 0.0
    while True:
        n = len(untraced) + len(traced)
        if n >= MIN_PASSES and perf_counter() - start + longest > args.seconds:
            break
        # a traced run goes untraced, traced, traced, untraced, ...
        trace = args.trace and n % 3 != 0
        spans = None
        if trace and not traced:
            spans = os.path.join(
                OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
        t0 = perf_counter()
        rep = run_pass(args.workload, ops, int(trace), deadline, spans)
        longest = max(longest, perf_counter() - t0)
        (traced if trace else untraced).append(rep)
    reports = untraced + traced
    setup_reps = reports + [run_pass(args.workload, [], 0, deadline)
                            for _ in range(MIN_SETUPS - len(reports))]

    failed = check_outputs(ops, reports, refs)
    attempted = len(ops) * len(reports)
    correct = failed == 0
    print(f"{args.workload} seed={args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(ops)} ops; "
          f"fail_frac {failed / attempted:.4g} ratio "
          f"({failed} failed / {attempted} attempted)")
    raw_wall = statistics.median(sum(r["raw_op_s"]) for r in untraced)
    raw_setup = statistics.median(r["raw_setup_s"] for r in setup_reps)
    pace_ms = statistics.median(p for r in reports for p in r["pace"]) * 1e3
    print(f"raw medians: wall {raw_wall:.4f} s, setup {raw_setup:.4f} s; "
          f"pace {pace_ms:.3f} ms against {PACE_REF * 1e3:.3f} ms")

    if args.trace:
        metrics, repeat = layer_metrics(untraced, traced)
        units = per_layer_units()
        absent = traced[0]["absent"]
        if absent:
            print("absent layers: " + ", ".join(absent))
        if not repeat:
            print("FAILED: counts differ between traced passes")
            correct = False
    else:
        metrics = end_to_end_metrics(untraced,
                                     [r["setup_s"] for r in setup_reps])
        units = END_TO_END
        print(f"op_s_p50 and op_s_p90 over {len(ops)} ops, each the median "
              f"of {len(untraced)} passes; setup_s over {len(setup_reps)} "
              f"interpreters")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
