"""Borcherds product expansions on the tube domain of signature (2,2)
lattices, as exact bivariate series in q1, q2.

Conventions (rank-zero positive part, Weyl chamber whose closure contains
l_M): for lambda = diag(-m, n) the pairing with z is (lambda, z) = n z1 +
m z2, so a Weyl vector rho = rl * l_M + rlp * l'_M contributes the prefactor
q1^rlp q2^-rl, and the product runs over n >= 0, m + n >= 0, (m, n) != (0,0).
It is expanded as the exponential of the theta lift: a recurrence on its q1
logarithmic derivative whose rows are exact one-variable series in q2.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .series import FracQSeries, eta_quotient, exponent, product_sum
from .discform import restrict_to_M


@dataclass(frozen=True)
class WeylVector:
    rl: Fraction    # coefficient of l_M
    rlp: Fraction   # coefficient of l'_M


def weyl_vector(f_M):
    """Weyl vector of a scalar form f_M on the rank-(2,2) sublattice, for the
    Weyl chamber whose closure contains l_M.

    rl = -c(0)/24 and rlp = constant term of f_M E2 / 24.  With E2 = 1 - 24 q
    + ... and a principal part at most q^-1 (checked), that constant term is
    c(0) - 24 c(-1), so rlp = -c(-1) - rl.
    """
    _check_principal_part(f_M)
    rl = Fraction(-f_M.coeff(0), 24)
    return WeylVector(rl=rl, rlp=-f_M.coeff(-1) - rl)


@dataclass
class BiQSeries:
    """Truncated bivariate series: nonzero int coeffs at (e1, e2), exponents
    as in `series.exponent`, exact on the region e1 <= cut1, e2 <= cut2."""
    coeffs: dict
    cut1: int
    cut2: int

    def coeff(self, e1, e2):
        if e1 > self.cut1 or e2 > self.cut2:
            raise ValueError("coefficient outside the exact region")
        return self.coeffs.get((e1, e2), 0)

    def compare(self, other):
        """(equal, mismatches) over the intersection of exact regions; the
        mismatches are (key, self's value, other's value), sorted by key."""
        c1 = min(self.cut1, other.cut1)
        c2 = min(self.cut2, other.cut2)
        a, b = self.coeffs, other.coeffs
        bad = [(k, v, b.get(k, 0)) for k, v in a.items() if v != b.get(k, 0)]
        bad += [(k, 0, v) for k, v in b.items() if v and k not in a]
        bad = sorted(x for x in bad if x[0][0] <= c1 and x[0][1] <= c2)
        return (not bad, bad)


def _check_principal_part(s):
    """The engine's products have factors at mn >= -1 only: a product input
    may have no nonzero term below q^-1."""
    if s.a and s.off < -1:
        raise ArithmeticError("principal part deeper than q^-1")


def _exponents(s, lo, hi):
    """The q^lo .. q^hi coefficients of s, an integer-exponent series with no
    term below q^-1 (checked), read from its int list below the cutoff."""
    if s.off.denominator != 1:
        raise ArithmeticError("product exponents at fractional powers of q")
    _check_principal_part(s)
    ex = [s.a[i] if i >= 0 else 0
          for i in range(lo - s.off, len(s.a))[:hi - lo + 1]]
    if len(ex) <= hi - lo:
        raise ValueError(f"coefficient of q^{hi} beyond cutoff {s.cutoff}")
    return ex


def _expand_product(minus, plus, rho, C, N1, N2):
    """Common engine: C q1^rlp q2^-rl prod (1 - q1^n q2^m)^a (1 + ...)^b over
    n >= 0, m >= -1, m + n >= 0, (m,n) != (0,0), where a and b are the
    coefficients of q^mn in the series minus and plus (plus None: b = 0).

    Without the prefactor the product is sum_N F_N(q2) q1^N, and F_0 =
    prod (1 - q2^m)^a(0) (1 + q2^m)^b(0) is eta(z2)^(a(0) - b(0)) eta(2z2)^b(0)
    at offset 0; the Weyl shift gives its q2^((a(0) + b(0))/24) = q2^-rl.  The
    product is the exponential of sum a log(1 - x) + b log(1 + x), so its
    q1 logarithmic derivative sum_N D_N q1^N has at q1^N q2^M the
    coefficient sum over k | (N, M) with M/k >= -1 of (N/k) (-a +
    (-1)^(k+1) b) at NM/k^2, and Miller's recurrence N F_N = sum_{k=1..N}
    D_k F_{N-k}, one product_sum per row, gives the other rows, the
    division by N being exact (Borcherds, Invent. Math. 1998, Thm. 13.3;
    a remainder raises ArithmeticError).  The exponents are integers,
    as every series coefficient is.  Neither input may have a term below
    q^-1 (checked on the whole series), since no factor has mn < -1.
    The rows are integer series whose cutoffs the series layer tracks, so
    every stored coefficient is exact.  Rows q1^0..q1^K1 with terms through
    q2^K2 fill the box after the Weyl shift; exponents are read through
    mn = K1 (K1 + K2).
    """
    K1 = floor(N1 - rho.rlp)        # rows q1^N with N + rlp <= N1
    K2 = floor(N2 + rho.rl)         # terms q2^M with M - rl <= N2
    box = BiQSeries(coeffs={}, cut1=N1, cut2=N2)
    if K1 < 0:
        return box
    T = max(1, K1 + K2 + 1)         # F_0 and every D_N are exact below q2^T
    a = _exponents(minus, -K1, K1 * (T - 1))     # a[K1 + mn], b likewise
    b = [0] * len(a) if plus is None else _exponents(plus, -K1, K1 * (T - 1))
    F = [FracQSeries.dense(0, eta_quotient(T - 1, a[K1] - b[K1], b[K1]).a)]
    D = [None]
    for N in range(1, K1 + 1):
        d = [0] * (N + T)           # q2^-N .. q2^(T-1)
        for k in (k for k in range(1, N + 1) if N % k == 0):
            n, sign = N // k, 1 if k % 2 else -1
            for m in range(-1, (T - 1) // k + 1):
                d[N + m * k] += n * (sign * b[K1 + n * m] - a[K1 + n * m])
        D.append(FracQSeries.dense(-N, d))
        s = product_sum((D[k], F[N - k]) for k in range(1, N + 1))
        if any(c % N for c in s.a):
            raise ArithmeticError(f"row q1^{N} of the product: a remainder "
                                  f"mod {N}")
        F.append(FracQSeries.dense(s.off, [c // N for c in s.a]))
    s1, s2 = exponent(rho.rlp), exponent(-rho.rl)
    for N, row in enumerate(F):
        e1 = N + s1
        for e2, c in row.truncate(K2 + 1).terms():
            box.coeffs[e1, e2 + s2] = C * c
    return box


def product_expansion_level2(f, C, N1, N2):
    """Borcherds product of a weight-0 form on the level-2 lattice: the
    (1 -)-exponents come from the mu0 component and the (1 +)-exponents from
    the mu2 component.  Needs coefficients through mn <= K1 (K1 + K2), where
    q1^K1 q2^K2 is the box before the Weyl shift; C is the leading constant
    including its sign."""
    rho = weyl_vector(restrict_to_M(f))
    return _expand_product(f.components["mu0"], f.components["mu2"], rho, C,
                           N1, N2)


def product_expansion_j(f_M, N1, N2):
    """Borcherds product for the unimodular (2,2) lattice: a scalar input
    form such as j - 744, with leading constant 1; only (1 -)-type factors
    occur."""
    return _expand_product(f_M, None, weyl_vector(f_M), 1, N1, N2)


def bi_difference(s, N1, N2):
    """S(q1) - S(q2) for a scalar exact series S."""
    coeffs = {}
    for e, c in s.terms():
        if e <= N1:
            coeffs[e, 0] = coeffs.get((e, 0), 0) + c
        if e <= N2:
            coeffs[0, e] = coeffs.get((0, e), 0) - c
    coeffs = {k: v for k, v in coeffs.items() if v}
    if s.cutoff <= max(N1, N2):
        raise ValueError("series too short for requested box")
    return BiQSeries(coeffs=coeffs, cut1=N1, cut2=N2)


def bi_product(s1, s2, N1, N2):
    """S1(q1) * S2(q2) for scalar exact series."""
    if s1.cutoff <= N1 or s2.cutoff <= N2:
        raise ValueError("series too short for requested box")
    t2 = [(e2, c2) for e2, c2 in s2.terms() if e2 <= N2]
    coeffs = {(e1, e2): c1 * c2 for e1, c1 in s1.terms() if e1 <= N1
              for e2, c2 in t2}
    return BiQSeries(coeffs=coeffs, cut1=N1, cut2=N2)
