"""Command line interface.

Exit codes: 0 verified/ok, 2 verification failed (sides disagree),
3 hypothesis violation (bad inputs), 4 precision exhausted, 64 usage error
(bad command line).
"""

import argparse
import json
import sys
from math import floor, log10

from .quadarith import EFCharacter, factor_principal_ideal, diff_set, rho
from .arithside import check_gz_hypotheses, whittaker2_Ma
from .verify import gz_verify, yz_verify, borcherds_verify

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_HYPOTHESIS = 3
EXIT_PRECISION = 4
EXIT_USAGE = 64         # sysexits EX_USAGE


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_USAGE, not with
    argparse's 2, which is EXIT_MISMATCH here.  Subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _num_str(x, prec):
    import mpmath
    from . import numeric
    digits = max(8, floor(prec * log10(2)))
    with mpmath.workprec(prec + numeric.GUARD_BITS):
        return mpmath.nstr(mpmath.mpf(x), digits)


def _report_json(r):
    from . import numeric
    p_g = numeric.gate_prec(r.prec)
    return {
        "kind": r.kind,
        "d1": r.d1,
        "d2": r.d2,
        "prec": r.prec,
        "status": r.status,
        "lhs_log": _num_str(r.lhs_log, p_g) if r.lhs_log is not None else None,
        "rhs_log": _num_str(r.rhs_log, p_g) if r.rhs_log is not None else None,
        "residual": _num_str(r.residual, p_g) if r.residual is not None else None,
        "product_integer": str(r.product_integer) if r.product_integer is not None else None,
        "factorization": [{"p": p, "e": e} for p, e in sorted(r.factorization.items())],
        "rhs_exponents": [{"p": p, "e": str(e)} for p, e in sorted(r.rhs_exponents.items())],
        "factor_match": r.factor_match,
        "resultant_match": r.resultant_match,
        "notes": r.notes,
    }


def _emit_report(r, as_json):
    if as_json:
        print(json.dumps(_report_json(r), sort_keys=True, separators=(",", ":")))
    else:
        print(f"{r.kind} d1={r.d1} d2={r.d2} prec={r.prec} status={r.status}")
        if r.product_integer is not None:
            fact = " * ".join(f"{p}^{e}" for p, e in sorted(r.factorization.items()))
            print(f"  product = {r.product_integer} = {'-' if r.product_integer < 0 else ''}{fact}")
            print(f"  arithmetic side exponents: "
                  + ", ".join(f"{p}:{e}" for p, e in sorted(r.rhs_exponents.items())))
            print(f"  residual = {_num_str(r.residual, 64)}")  # 64 < gate_prec
    if r.status == "ok":
        return EXIT_OK
    if r.status == "precision":
        return EXIT_PRECISION
    return EXIT_MISMATCH


def main(argv=None):
    ap = _Parser(prog="cmfactor",
                 description="CM value factorization of "
                             "differences of modular functions")
    sub = ap.add_subparsers(dest="cmd", required=True)

    for name in ("gz", "yz"):
        p = sub.add_parser(name)
        p.add_argument("--d1", type=int, required=True)
        p.add_argument("--d2", type=int, required=True)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("borcherds-check")
    p.add_argument("--case", required=True,
                   choices=["j", "weber", "eta1", "eta2", "f2"])
    p.add_argument("--order", type=int, default=8)

    p = sub.add_parser("rho")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("class-poly")
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("whittaker")
    p.add_argument("--a", type=int, required=True, choices=[0, 1])
    p.add_argument("--ord", type=int, required=True, dest="o")

    args = ap.parse_args(argv)

    # print exact values past 4300 digits; argv was parsed under the limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.cmd in ("gz", "yz"):
            fn = gz_verify if args.cmd == "gz" else yz_verify
            report = fn(args.d1, args.d2)
            return _emit_report(report, args.json)

        if args.cmd == "borcherds-check":
            ok, bad = borcherds_verify(args.case, args.order, args.order)
            print(f"{args.case} through ({args.order},{args.order}): "
                  f"{'exact match' if ok else 'MISMATCH'}")
            for key, a, b in bad[:5]:
                print(f"  q1^{key[0]} q2^{key[1]}: product {a} vs expansion {b}")
            return EXIT_OK if ok else EXIT_MISMATCH

        if args.cmd == "rho":
            check_gz_hypotheses(args.d1, args.d2)
            D = args.d1 * args.d2
            chi = EFCharacter(args.d1, args.d2)
            fact = factor_principal_ideal(args.m, args.d1, args.d2)
            print(f"t = ({args.m} + sqrt({D}))/2, "
                  f"N(t) = {(args.m * args.m - D) // 4}")
            for P, e in sorted(fact.items()):
                print(f"  {P.kind} prime above {P.p}"
                      + (f" (branch {P.branch:+d})" if P.branch else "")
                      + f": exponent {e}")
            diff = sorted(diff_set(fact, chi))
            print("Diff:", [(P.p, P.kind) for P in diff])
            print("rho(t O_F) =", rho(fact, chi))
            for P in diff:
                red = dict(fact)
                red[P] -= 1
                print(f"rho(t O_F / prime above {P.p}) =", rho(red, chi))
            return EXIT_OK

        if args.cmd == "class-poly":
            from . import numeric
            coeffs = numeric.class_polynomial(args.d)
            deg = len(coeffs) - 1
            body = " + ".join(f"{c}*X^{deg - i}" if deg - i else str(c)
                              for i, c in enumerate(coeffs) if c)
            print(body.replace("+ -", "- "))
            return EXIT_OK

        if args.cmd == "whittaker":
            v = whittaker2_Ma(args.a, args.o, 0)
            print(f"parity a={args.a}, ord={args.o}: value at s=0 is {v}")
            for s in (1, 2):
                print(f"  at s={s}: {whittaker2_Ma(args.a, args.o, s)}")
            return EXIT_OK

    except ValueError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ArithmeticError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
