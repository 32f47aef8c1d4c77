"""Output checks.  An op passes only when (a) the program reports an exact
verdict and the benchmark's own exact checks of the result hold, and (b) the
digest of the exact result matches the committed reference, where one exists
for that op.
"""

import hashlib
import json
import os
from math import prod

from workloads import class_number, op_key

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _exps(exponents):
    return ",".join(f"{p}:{e}" for p, e in sorted(exponents.items()))


def _is_prime(p):
    return p > 1 and all(p % q for q in range(2, int(p ** 0.5) + 1))


def summarize(op, out):
    """(problems, digest, counts) for one op's output.  problems is a list of
    strings, empty when the output checks out."""
    kind = op[0]
    problems = []
    counts = {}
    if kind in ("gz", "yz"):
        d1, d2 = op[1], op[2]
        n = out.product_integer
        if out.status != "ok" or not out.factor_match:
            problems.append(f"status={out.status} "
                            f"factor_match={out.factor_match}")
        if kind == "gz" and out.resultant_match is not True:
            problems.append(f"resultant_match={out.resultant_match}")
        factors = out.factorization.items()
        if not n or prod(p ** e for p, e in factors) != abs(n):
            problems.append("factorization does not multiply to |product|")
        digest = _digest(f"{kind} {n} {_exps(out.factorization)} "
                         f"{_exps(out.rhs_exponents)}")
        counts = {"cm_points": class_number(d1) + class_number(d2),
                  "prec_bits": out.prec,
                  "product_bits": abs(n or 0).bit_length(),
                  "prec_retries": sum(1 for note in out.notes
                                      if note.startswith("retry"))}
    elif kind in ("gz_rhs", "yz_rhs", "yz_rhs_whittaker"):
        exps = out.exponents()
        bound = op[1] * op[2] // 4
        if not exps:
            problems.append("empty arithmetic side")
        for p, e in exps.items():
            if e <= 0 or p > bound or not _is_prime(p):
                problems.append(f"bad term {e}*log({p})")
        digest = _digest(f"{kind} {_exps(exps)}")
    elif kind == "borcherds":
        ok, bad = out
        if not ok or bad:
            problems.append(f"ok={ok} with {len(bad)} mismatches")
        digest = _digest(f"{op_key(op)} {ok} {len(bad)}")
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    return problems, digest, counts


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)
