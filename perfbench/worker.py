"""One measured pass, run in a fresh interpreter by run.py.

Protocol: import cmfactor from the checkout's src/, run the workload's
warm-up op, print "ready", then read the op list (JSON) from stdin, run it
once (traced when --trace 1), timing each op and measuring the host's pace
before the first op and after each op, check the outputs outside the timed
region and print one JSON line with the timings, paces, digests, problems
and counts.
"""

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_program():
    """cmfactor from the checkout only, never an installed copy."""
    sys.path.insert(0, SRC)
    import cmfactor
    if not os.path.abspath(cmfactor.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cmfactor imported from {cmfactor.__file__}")
    from cmfactor import arithside
    return cmfactor, arithside


def _kernel_seconds():
    t0 = perf_counter()
    x, d = 1, {}
    for k in range(1500):
        x = (x * 1103515245 + k) % (1 << 607)
        d[k & 255] = [x, str(k)]
    f = Fraction(0)
    for k in range(1, 120):
        f += Fraction(k, k * k + 1)
    return perf_counter() - t0


def pace():
    """Seconds a fixed kernel of big-integer, dict, Fraction and list work,
    the program's mix, takes right now, best of two.

    The host the benchmark was defined on switches between speeds that
    differ by up to 1.6x, for seconds to minutes at a time, and CPU time
    follows.  There, op times divided by the pace measured around them
    varied 2 to 5 % between passes where raw times varied 6 to 13 %.
    """
    return min(_kernel_seconds(), _kernel_seconds())


def run_op(cmfactor, arithside, op):
    kind, *args = op
    if kind == "gz":
        return cmfactor.gz_verify(*args)
    if kind == "yz":
        return cmfactor.yz_verify(*args)
    if kind == "gz_rhs":
        return cmfactor.gz_rhs(*args)
    if kind == "yz_rhs":
        return cmfactor.yz_rhs(*args)
    if kind == "yz_rhs_whittaker":
        return arithside.yz_rhs_whittaker(*args)
    if kind == "borcherds":
        return cmfactor.borcherds_verify(*args)
    raise ValueError(f"unknown op kind {kind!r}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", help="file for the raw spans of a traced pass")
    args = ap.parse_args()

    sys.path.insert(0, HERE)
    from workloads import WARMUP
    cmfactor, arithside = import_program()
    run_op(cmfactor, arithside, WARMUP[args.workload])
    print("ready", flush=True)

    ops = json.load(sys.stdin)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    outs, times = [], []
    gc.collect()
    pace()  # the first run in a fresh interpreter is slow
    paces = [pace()]
    for i, op in enumerate(ops):
        if tracer:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            out = run_op(cmfactor, arithside, op)
        except Exception as exc:  # a failed op is reported, not fatal
            out = exc
        times.append(perf_counter() - t0)
        outs.append(out)
        paces.append(pace())
    if tracer:
        tracer.uninstall()

    from checks import summarize
    results = []
    for op, out in zip(ops, outs):
        if isinstance(out, Exception):
            results.append([[f"{type(out).__name__}: {out}"], None, {}])
        else:
            results.append(list(summarize(op, out)))
    report = {"op_s": times, "pace": paces, "results": results}
    if tracer:
        from tracer import coverage, layer_stats
        report["layers"] = layer_stats(tracer.spans)
        report["counts"] = tracer.counts
        report["absent"] = tracer.absent
        report["coverage"] = coverage(tracer.spans, sum(times))
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
