"""End-to-end verification: check the integer N of the analytic side of each
CM value formula exactly against its arithmetic side; plus exact checks of
the underlying Borcherds product identities.

One driver serves both formulas and runs the same checks for both, the
resultant oracle among them.  A formula only chooses the evaluator of a
class value (numeric.j_value or numeric.omega2_value) and the scale of the
arithmetic side.  All of the analytic side is numeric's: one call,
numeric.pair_norm, gives N, |prod|^2 and both class polynomials, and
numeric.gate_prec the log gate's bits.  See the numeric module for their
precision searches, and for what of a report its table's state can change.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

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


def _sylvester_resultant(f, g):
    """Exact resultant of integer polynomials (leading coefficient first and
    nonzero), the determinant of their Sylvester matrix: the subresultant
    PRS (Collins, J. ACM 1967) on their primitive parts, as in Cohen, "A
    Course in Computational Algebraic Number Theory", Alg. 3.3.7."""
    ca, cb = gcd(*f), gcd(*g)
    a, b = [x // ca for x in f], [x // cb for x in g]
    m, n = len(a) - 1, len(b) - 1
    t, s, lg, h = ca ** n * cb ** m, 1, 1, 1
    if m < n:                   # Res(b, a) = (-1)^(m n) Res(a, b)
        a, b, m, n, s = b, a, n, m, (-1) ** (m * n)
    while n > 0:
        delta, s = m - n, -s if m & n & 1 else s
        r, lb, tail = list(a), b[0], b[1:] + [0] * delta
        for i in range(delta + 1):      # lb^(delta + 1) a = b q + r
            r[i + 1:] = [lb * x - r[i] * y for x, y in zip(r[i + 1:], tail)]
        r = r[delta + 1:]
        while r and not r[0]:
            del r[0]
        a, b, m = b, [x // (lg * h ** delta) for x in r], n
        n, lg = len(b) - 1, a[0]
        h = lg ** delta * h // h ** delta           # h^(1 - delta) lg^delta
    # h^(1 - m) lc(b)^m, which is 0 when b = 0 (then m > 0)
    return s * t * (b[0] if b else 0) ** m * h // h ** m


def _factor_check(n, predicted, scale, notes):
    """Exact test of |n| = prod p^(e_p / scale) over the predicted primes.
    Returns the valuations of n at those primes and whether they match;
    a mismatch is explained in notes."""
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
        if fact.get(p, 0) * scale != e:
            match = False
            notes.append(f"exponent of {p}: {fact.get(p, 0)} * {scale} "
                         f"!= {e}")
    return fact, match


def _verify(kind, d1, d2, value, scale, rhs):
    """The driver: N, |prod|^2 and both class polynomials from one call
    (numeric.pair_norm), the exact checks of N (the factor check against
    rhs at the given scale, the resultant oracle) and the log residual; a
    class polynomial that never rounds leaves a note and no N."""
    tried, norm = numeric.pair_norm(value, d1, d2)
    prec = tried[-1]
    report = VerificationReport(
        kind=kind, d1=d1, d2=d2, prec=prec, status="precision",
        rhs_exponents=rhs.exponents(),
        notes=[f"retry at {p} bits" for p in tried[1:]])
    if norm is None:
        return report
    n, square, *polys = norm
    report.notes += [f"class polynomial for d={d} did not round"
                     for d, poly in zip((d1, d2), polys) if poly is None]
    if None in polys:
        return report

    report.product_integer = n
    report.factorization, report.factor_match = _factor_check(
        n, report.rhs_exponents, scale, report.notes)
    h1, h2 = (len(poly) - 1 for poly in polys)      # the class numbers
    report.resultant_match = (_sylvester_resultant(*polys)
                              == (-1) ** (h1 * h2) * n)

    # the analytic product, not N: the gate tests the CM values themselves
    with mpmath.workprec(numeric.gate_prec(prec)):
        report.lhs_log = (scale.numerator * mpmath.log(mpmath.mpf(square))
                          / (2 * scale.denominator))
        report.rhs_log = rhs.value(numeric.gate_prec(prec))
        report.residual = abs(report.lhs_log - report.rhs_log)
    # once N rounds within 2^-TOL_BITS and factor_match holds, the residual
    # is below about scale 2^-TOL_BITS / |N|: the gate can fail only for
    # |N| below about scale 2^(prec//4 - TOL_BITS), a precision with slack
    # over |N|; hence the gate's test forces 400 bits on gz(-3, -4)
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
    from .series import (j_series, omega2_series, eta_series,
                         eta_quotient_2_series)
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
    # the constant forms: case -> (coset values, S through q^n), the
    # product being S(z1) S(z2)
    constant_cases = {
        "eta1": ({"mu0": 1, "mu1": 1}, lambda n: eta_series(n + 1)),
        # the Borcherds constant is sqrt(2); both sides are compared with it
        # divided out, which leaves exact rational series
        "eta2": ({"mu0": 1, "mu2": 1},
                 lambda n: eta_series(2 * n + 2).subst_power(2)),
        # identity: sqrt(2) * product = (1/sqrt(2)) f2(z1) f2(z2), i.e.
        # product = (eta(2 z1)/eta(z1)) (eta(2 z2)/eta(z2))
        "f2": ({"mu1": -1, "mu2": 1}, lambda n: eta_quotient_2_series(n + 1)),
    }
    if case not in constant_cases:
        raise ValueError(f"unknown case {case!r}")
    values, target = constant_cases[case]
    order = 1 + max(0, n1 - 1) * (n1 + n2 - 2)
    prod = product_expansion_level2(constant_vvform(values, cutoff=order), 1,
                                    n1, n2)
    s = target(max(n1, n2))
    return prod.compare(bi_product(s, s, n1, n2))
