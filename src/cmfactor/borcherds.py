"""Borcherds product expansions on the tube domain of signature (2,2)
lattices, as exact bivariate series in q1, q2.

Conventions (rank-zero positive part, Weyl chamber whose closure contains
l_M): for lambda = diag(-m, n) the pairing with z is (lambda, z) = n z1 +
m z2, so a Weyl vector rho = rl * l_M + rlp * l'_M contributes the prefactor
q1^rlp q2^-rl, and the product runs over n >= 0, m + n >= 0, (m, n) != (0,0).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .series import e2_series
from .discform import restrict_to_M


@dataclass(frozen=True)
class WeylVector:
    rl: Fraction    # coefficient of l_M
    rlp: Fraction   # coefficient of l'_M


def weyl_vector(f_M):
    """Weyl vector of a scalar form f_M on the rank-(2,2) sublattice, for the
    Weyl chamber whose closure contains l_M.

    rl = -c(0)/24 and rlp = constant term of f_M E2 / 24; for a form whose
    principal part is a single q^-1 the latter equals -c(-1) + c(0)/24, which
    is checked.
    """
    c0 = f_M.coeff(0)
    rl = -c0 / 24
    depth = max(0, -int(f_M.lo()))
    e2 = e2_series(depth + 1)
    rlp = sum(f_M.coeff(-k) * e2.coeff(k) for k in range(0, depth + 1)) / 24
    if depth <= 1 and rlp != -f_M.coeff(-1) + c0 / 24:
        raise ArithmeticError("Weyl vector cross-check failed")
    return WeylVector(rl=rl, rlp=rlp)


@dataclass
class BiQSeries:
    """Truncated bivariate series: coeffs maps (e1, e2) Fraction pairs to
    rational coefficients, exact on the region e1 <= cut1, e2 <= cut2."""
    coeffs: dict
    cut1: Fraction
    cut2: Fraction

    def coeff(self, e1, e2):
        e1, e2 = Fraction(e1), Fraction(e2)
        if e1 > self.cut1 or e2 > self.cut2:
            raise ValueError("coefficient outside the exact region")
        return self.coeffs.get((e1, e2), Fraction(0))

    def compare(self, other):
        """(equal, mismatches) over the intersection of exact regions."""
        c1 = min(self.cut1, other.cut1)
        c2 = min(self.cut2, other.cut2)
        keys = set(self.coeffs) | set(other.coeffs)
        bad = []
        for k in sorted(keys):
            if k[0] > c1 or k[1] > c2:
                continue
            a = self.coeffs.get(k, Fraction(0))
            b = other.coeffs.get(k, Fraction(0))
            if a != b:
                bad.append((k, a, b))
        return (not bad, bad)


def _expand_product(exponents, rho, C, N1, N2):
    """Common engine: C q1^rlp q2^-rl prod (1 - q1^n q2^m)^a (1 + ...)^b over
    n >= 0, m >= -1, m + n >= 0, (m,n) != (0,0), where (a, b) = exponents(mn).

    Exponents at mn < -1 must vanish (checked) and all exponents must be
    integers (checked), so the expansion runs on integer keys and integer
    binomial coefficients; the Weyl shift and C are applied at the end.
    Terms are pruned outside a working box big enough that every kept
    coefficient is exact.
    """
    need1 = ceil(max(0, -rho.rlp))
    need2 = ceil(max(0, rho.rl))
    C1 = N1 + 1 + need1
    C2 = N2 + 1 + need2 + C1
    lo2 = -C1 - 1
    terms = {(0, 0): 1}

    def mul_factor(n, m, sign, expo):
        nonlocal terms
        fac = []
        coef = 1
        j = 1
        while n * j <= C1 if n > 0 else m * j <= C2:
            coef = coef * (expo - j + 1) // j
            if coef == 0:
                break
            fac.append((n * j, m * j, coef if sign > 0 or j % 2 == 0 else -coef))
            j += 1
        new = dict(terms)
        for (e1, e2), c in terms.items():
            for f1, f2, d in fac:
                E1, E2 = e1 + f1, e2 + f2
                if E1 > C1 or E2 > C2 or E2 < lo2:
                    continue
                new[E1, E2] = new.get((E1, E2), 0) + c * d
        terms = {k: v for k, v in new.items() if v}

    for n in range(0, C1 + 1):
        m0 = -1 if n >= 1 else 1
        for m in range(m0, C2 + 1):
            if m + n < 0 or (m == 0 and n == 0):
                continue
            a, b = exponents(m * n)
            if a.denominator != 1 or b.denominator != 1:
                raise ArithmeticError("non-integral product exponent")
            if a:
                mul_factor(n, m, -1, int(a))
            if b:
                mul_factor(n, m, +1, int(b))
    s1, s2 = rho.rlp, -rho.rl
    out = {(e1 + s1, e2 + s2): C * c for (e1, e2), c in terms.items()}
    return BiQSeries(coeffs=out, cut1=Fraction(N1), cut2=Fraction(N2))


def product_expansion_level2(f, C, N1, N2):
    """Borcherds product of a weight-0 form on the level-2 lattice: the
    (1 -)-exponents come from the mu0 component and the (1 +)-exponents from
    the mu2 component.  Needs coefficients through mn <= C1 * C2 of the
    working box; C is the leading constant including its sign."""
    rho = weyl_vector(restrict_to_M(f))
    s0 = f.components["mu0"]
    s2 = f.components["mu2"]

    def exponents(k):
        if k < -1:
            if s0.coeff(k) != 0 or s2.coeff(k) != 0:
                raise ArithmeticError("principal part deeper than q^-1")
            return Fraction(0), Fraction(0)
        return s0.coeff(k), s2.coeff(k)

    return _expand_product(exponents, rho, C, N1, N2)


def product_expansion_j(f_M, N1, N2):
    """Borcherds product for the unimodular (2,2) lattice: a scalar input
    form such as j - 744, with leading constant 1; only (1 -)-type factors
    occur."""
    rho = weyl_vector(f_M)

    def exponents(k):
        if k < -1 and f_M.coeff(k) != 0:
            raise ArithmeticError("principal part deeper than q^-1")
        return (f_M.coeff(k) if k >= -1 else Fraction(0)), Fraction(0)

    return _expand_product(exponents, rho, 1, N1, N2)


def bi_difference(s, N1, N2):
    """S(q1) - S(q2) for a scalar exact series S."""
    coeffs = {}
    for e, c in s.terms():
        if e <= N1:
            coeffs[(e, Fraction(0))] = coeffs.get((e, Fraction(0)), Fraction(0)) + c
        if e <= N2:
            key = (Fraction(0), e)
            coeffs[key] = coeffs.get(key, Fraction(0)) - c
    coeffs = {k: v for k, v in coeffs.items() if v}
    if s.cutoff <= max(N1, N2):
        raise ValueError("series too short for requested box")
    return BiQSeries(coeffs=coeffs, cut1=Fraction(N1), cut2=Fraction(N2))


def bi_product(s1, s2, N1, N2):
    """S1(q1) * S2(q2) for scalar exact series."""
    if s1.cutoff <= N1 or s2.cutoff <= N2:
        raise ValueError("series too short for requested box")
    coeffs = {}
    for e1, c1 in s1.terms():
        if e1 > N1:
            continue
        for e2, c2 in s2.terms():
            if e2 > N2:
                continue
            coeffs[(e1, e2)] = c1 * c2
    return BiQSeries(coeffs=coeffs, cut1=Fraction(N1), cut2=Fraction(N2))
