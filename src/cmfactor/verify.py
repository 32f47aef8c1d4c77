"""End-to-end verification: check the integer N of the analytic side of each
CM value formula exactly against its arithmetic side; plus exact checks of
the underlying Borcherds product identities.

One driver serves both formulas, which choose a class-value function
(numeric.j_value or numeric.omega2_value) and the scale of the arithmetic
side.  numeric.pair_norm gives N, the resultant of the two class
polynomials up to sign, and the pair product of the CM values.  N must
factor as the arithmetic side predicts, log |prod| agree with it to
2^-(prec//4) (the log gate), and |prod - N| < 2^-(prec//4) |N|
(resultant_match) tests the sign and phase the gate does not see.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

import mpmath

from . import numeric
from .classgroup import units_w
from .quadarith import valuation
from .arithside import gz_rhs, yz_rhs


@dataclass
class VerificationReport:
    kind: str
    d1: int
    d2: int
    prec: int
    status: str                  # ok | mismatch | precision
    lhs_log: object = None       # mpf
    rhs_log: object = None       # mpf
    residual: object = None      # mpf
    product_integer: object = None
    factorization: dict = field(default_factory=dict)
    rhs_exponents: dict = field(default_factory=dict)
    factor_match: bool = False
    resultant_match: bool = None
    notes: list = field(default_factory=list)

    def ok(self):
        return self.status == "ok"


def _factor_check(n, predicted, scale, notes):
    """Exact test of |n| = prod p^(e_p / scale) over the predicted primes: one
    product of ints, then prime by prime where it fails.  Returns the
    valuations of n at those primes and whether they match, notes why not.
    The quotients e_p / scale are read on ints, as divmod(e_p den, num)."""
    num, den = scale.numerator, scale.denominator
    exps = {p: divmod(e * den, num) for p, e in predicted.items() if e}
    if all(x > 0 and not r for x, r in exps.values()) and \
            prod(p ** x for p, (x, _) in exps.items()) == abs(n):
        return {p: x for p, (x, _) in exps.items()}, True
    cofactor = abs(n)
    fact = {}
    for p in predicted:
        if cofactor % p == 0:
            fact[p] = valuation(cofactor, p)
            cofactor //= p ** fact[p]
    match = cofactor == 1
    if not match:
        notes.append(f"cofactor {cofactor} after the predicted primes")
    for p, e in predicted.items():
        if fact.get(p, 0) * num != e * den:
            match = False
            notes.append(f"exponent of {p}: {fact.get(p, 0)} * {scale} "
                         f"!= {e}")
    return fact, match


def _verify(kind, d1, d2, value, scale, rhs):
    """The driver: the checks of the module docstring, rhs at the given
    scale; a class polynomial that never rounds leaves a note and no N."""
    prec, polys, norm = numeric.pair_norm(value, d1, d2)
    report = VerificationReport(
        kind=kind, d1=d1, d2=d2, prec=prec, status="precision",
        rhs_exponents=rhs.exponents(),
        notes=[f"retry at {p} bits for d={d}"
               for d, (tried, _) in polys.items() for p in tried[1:]])
    report.notes += [f"class polynomial for d={d} did not round"
                     for d, (_, poly) in polys.items() if poly is None]
    if norm is None:
        return report
    n, (x, y), w = norm

    report.product_integer = n
    report.factorization, report.factor_match = _factor_check(
        n, report.rhs_exponents, scale, report.notes)
    # |prod - N|^2 < 2^-2(prec//4) N^2, on ints at scale 2^w
    report.resultant_match = ((x - (n << w)) ** 2 + y * y
                              << 2 * (prec // 4)) < n * n << 2 * w

    # the analytic product, not N: the gate tests the CM values themselves
    with mpmath.workprec(numeric.gate_prec(prec)):
        report.lhs_log = (scale.numerator
                          * mpmath.log(mpmath.mpf((x * x + y * y, -2 * w)))
                          / (2 * scale.denominator))
        report.rhs_log = rhs.value(numeric.gate_prec(prec))
        report.residual = abs(report.lhs_log - report.rhs_log)
    # once N factor-matches, the product at p_req puts the residual
    # TOL_BITS below 2^-(prec//4); only at p_req capped at prec, for |N|
    # below about scale 2^(prec//4 - TOL_BITS), can exact values fail the
    # gate; hence the gate's test forces 400 bits on gz(-3, -4)
    tight = report.residual < mpmath.mpf(2) ** (-(prec // 4))
    if not tight:
        report.notes.append(f"residual {mpmath.nstr(report.residual, 3)} "
                            f"above 2^-{prec // 4}")
    report.status = ("ok" if report.factor_match and tight
                     and report.resultant_match else "mismatch")
    return report


def gz_verify(d1, d2):
    """Verify the singular moduli factorization for coprime fundamental
    discriminants d1, d2."""
    rhs = gz_rhs(d1, d2)
    scale = Fraction(8, units_w(d1) * units_w(d2))
    return _verify("gz", d1, d2, numeric.j_value, scale, rhs)


def yz_verify(d1, d2):
    """Verify the level-2 Hauptmodul factorization for distinct coprime
    fundamental discriminants d1 = d2 = 1 mod 8.  The arithmetic side
    computes log |prod|^2, hence the scale 2."""
    return _verify("yz", d1, d2, numeric.omega2_value, Fraction(2),
                   yz_rhs(d1, d2))


def borcherds_verify(case, n1=8, n2=8):
    """Exact series verification of a Borcherds product identity through the
    box q1^n1 q2^n2.  Cases: weber, j, eta1, eta2, f2.  Returns (ok, detail).
    """
    if n1 < 0 or n2 < 0:
        raise ValueError(f"box ({n1},{n2}) must have nonnegative sides")
    from .series import j_series, omega2_series, eta_quotient
    from .discform import build_weber_f, constant_vvform
    from .borcherds import (product_expansion_level2, product_expansion_j,
                            bi_difference, bi_product)

    # each input form goes through q^0 and the last exponent its product
    # reads, K1 (K1 + K2) (_expand_product): (rl, rlp) is (-1, 0) for weber,
    # (0, -1) for j and (-x, x), 0 < x < 1, for the constant forms
    if case == "weber":
        f = build_weber_f(n1 * (n1 + n2 - 1))
        prod = product_expansion_level2(f, -2 ** 12, n1, n2)
        return prod.compare(bi_difference(omega2_series(max(n1, n2) + 1), n1, n2))
    if case == "j":
        j = j_series((n1 + 1) * (n1 + n2 + 1))
        prod = product_expansion_j(j - 744, n1, n2)
        return prod.compare(bi_difference(j.truncate(max(n1, n2) + 2), n1, n2))
    # the constant forms, read from their vectors v: the product is S(z1)
    # S(z2), S = eta(z)^(v_mu0 - v_mu2) eta(2z)^v_mu2, once the Borcherds
    # constant sqrt(2) of eta2 (and of f2) is divided out of both sides
    constant_cases = {"eta1": {"mu0": 1, "mu1": 1},
                      "eta2": {"mu0": 1, "mu2": 1},
                      "f2": {"mu1": -1, "mu2": 1}}
    if case not in constant_cases:
        raise ValueError(f"unknown case {case!r}")
    v = constant_cases[case]
    v0, v2 = v.get("mu0", 0), v.get("mu2", 0)
    order = 1 + max(0, n1 - 1) * (n1 + n2 - 2)
    prod = product_expansion_level2(constant_vvform(v, cutoff=order), 1,
                                    n1, n2)
    s = eta_quotient(max(n1, n2) + 1, v0 - v2, v2)
    return prod.compare(bi_product(s, s, n1, n2))
