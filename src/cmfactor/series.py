"""Exact q-expansions with rational exponents and integer coefficients.

A FracQSeries is a truncated series sum_i a[i] q^((off + i) / den): a dense
list `a` of Python ints, an integer exponent offset `off` and an exponent
denominator `den`.  Every term below the cutoff (off + len(a)) / den is
stored, and a[0] != 0 unless the series is zero.  Exponents may be negative
(principal parts).  Powers, the inverse among them, are taken of monic
series (a[0] == 1) only, so every coefficient stays an integer.  The
accessors `coeff` and `terms` give coefficients as ints; only exponents and
cutoffs are Fractions.
"""

from fractions import Fraction
from math import ceil, lcm


def _miller(a, k):
    """The first len(a) coefficients of A^k, for an integer list A with
    A[0] = 1 and any integer k.

    J.C.P. Miller's recurrence m B_m = sum_{j=1..m} (k j - m + j) A_j
    B_{m-j} (Knuth, TAOCP vol. 2, 4.7): A^k has integer coefficients, so
    every division by m is exact.  Zero coefficients of A are skipped, so a
    sparse A costs O(len(a) * nonzeros).
    """
    n = len(a)
    js = [j for j in range(1, n) if a[j]]
    vs = [a[j] for j in js]
    b = [1] * n
    t = 0
    for m in range(1, n):
        if t < len(js) and js[t] <= m:
            t += 1
        b[m] = sum(((k + 1) * j - m) * v * b[m - j]
                   for j, v in zip(js[:t], vs)) // m
    return b


class FracQSeries:

    def __init__(self, den, coeffs, cutoff):
        """The series sum_k coeffs[k] q^(k/den), exact below cutoff; each
        coefficient must be an integer."""
        if den <= 0:
            raise ValueError("den must be positive")
        end = ceil(Fraction(cutoff) * den)
        coeffs = {k: c for k, c in coeffs.items() if k < end}
        if any(int(c) != c for c in coeffs.values()):
            raise ValueError("coefficients must be integers")
        off = min(coeffs, default=end)
        a = [0] * (end - off)
        for k, c in coeffs.items():
            a[k - off] = int(c)
        self._set(den, off, a)

    def _set(self, den, off, a):
        lead = next((i for i, c in enumerate(a) if c), len(a))
        self.den, self.off, self.a = den, off + lead, a[lead:]

    @classmethod
    def dense(cls, den, off, a):
        """The series sum_i a[i] q^((off + i) / den), exact below
        q^((off + len(a)) / den)."""
        s = cls.__new__(cls)
        s._set(den, off, a)
        return s

    @classmethod
    def constant(cls, c, cutoff):
        return cls(1, {0: c}, cutoff)

    @property
    def cutoff(self):
        return Fraction(self.off + len(self.a), self.den)

    def lo(self):
        """Smallest exponent with a nonzero stored coefficient.

        For an identically-zero truncation this returns the cutoff, which is
        a valid lower bound for any terms the series may have.
        """
        return Fraction(self.off, self.den)

    def coeff(self, e):
        e = Fraction(e)
        if e >= self.cutoff:
            raise ValueError(f"coefficient of q^{e} beyond cutoff {self.cutoff}")
        i = e * self.den - self.off
        if i < 0 or i.denominator != 1:
            return 0
        return self.a[int(i)]

    def terms(self):
        """Sorted list of (exponent, coefficient) pairs: Fraction
        exponents, int coefficients."""
        return [(Fraction(self.off + i, self.den), c)
                for i, c in enumerate(self.a) if c]

    def truncate(self, cutoff):
        if cutoff > self.cutoff:
            raise ValueError("cannot extend a truncated series")
        end = ceil(Fraction(cutoff) * self.den)
        return self.dense(self.den, min(self.off, end),
                          self.a[:max(0, end - self.off)])

    def _spread(self, den):
        """(offset, coefficient list) of self over the exponent denominator
        den, a multiple of self.den."""
        r = den // self.den
        if r == 1:
            return self.off, self.a
        a = [0] * (r * len(self.a))
        a[::r] = self.a
        return r * self.off, a

    def __add__(self, other):
        if not isinstance(other, FracQSeries):
            other = FracQSeries.constant(other, self.cutoff)
        den = lcm(self.den, other.den)
        parts = [s._spread(den) for s in (self, other)]
        off = min(o for o, _ in parts)
        end = min(o + len(a) for o, a in parts)
        out = [0] * (end - off)
        for o, a in parts:
            for i, c in enumerate(a[:max(0, end - o)], o - off):
                out[i] += c
        return self.dense(den, off, out)

    def __neg__(self):
        return self.dense(self.den, self.off, [-c for c in self.a])

    def __sub__(self, other):
        if not isinstance(other, FracQSeries):
            other = FracQSeries.constant(other, self.cutoff)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FracQSeries):
            return NotImplemented
        den = lcm(self.den, other.den)
        (oa, a), (ob, b) = self._spread(den), other._spread(den)
        # exact below min(cutoff + other.lo, other.cutoff + lo)
        n = min(len(a), len(b))
        if a.count(0) < b.count(0):
            a, b = b, a             # loop over the sparser factor
        out = [0] * n
        for i, x in enumerate(a[:n]):
            if x:
                out[i:] = [o + x * y for o, y in zip(out[i:], b)]
        return self.dense(den, oa + ob, out)

    def __pow__(self, k):
        """self ** k for any integer k, exact below k lo + (cutoff - lo).
        A nonzero self must be monic."""
        if not self.a:
            if k <= 0:
                raise ZeroDivisionError("power of the zero series")
            return self.dense(self.den, k * self.off, [])
        if self.a[0] != 1:
            raise ValueError("power of a series whose leading coefficient "
                             "is not 1")
        return self.dense(self.den, k * self.off, _miller(self.a, k))

    def inverse(self):
        """Multiplicative inverse, valid where enough terms are known."""
        return self ** -1

    def subst_power(self, r):
        """Substitute q -> q^r for a positive integer r."""
        off, a = self._spread(r * self.den)
        return self.dense(self.den, off, a)

    def __eq__(self, other):
        if not isinstance(other, FracQSeries):
            return NotImplemented
        return not any((self - other).a)

    def __repr__(self):
        shown = self.terms()[:6]
        body = " + ".join(f"{c}*q^{e}" for e, c in shown)
        return f"FracQSeries({body or '0'} + O(q^{self.cutoff}))"


def euler_product(order):
    """prod_{n>=1} (1 - q^n) through q^order, by the pentagonal number sums."""
    a = [0] * (order + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= order:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= order:
                a[e] = -1 if k % 2 else 1
        k += 1
    return FracQSeries.dense(1, 0, a)


def prod_one_plus(order, k):
    """prod_{n>=1} (1 + q^n)^k = E(q^2)^k E(q)^-k through q^order, with
    E = prod (1 - q^n): two Miller powers of sparse pentagonal series."""
    return ((euler_product(order // 2) ** k).subst_power(2)
            * euler_product(order) ** -k)


def _divisor_power_sums(k, order):
    sums = [0] * (order + 1)
    for d in range(1, order + 1):
        dk = d ** k
        for n in range(d, order + 1, d):
            sums[n] += dk
    return sums


def e2_series(order):
    """Quasimodular Eisenstein series E2 = 1 - 24 sum sigma_1(n) q^n."""
    s = _divisor_power_sums(1, order)
    return FracQSeries.dense(1, 0, [1] + [-24 * c for c in s[1:]])


def e4_series(order):
    """Eisenstein series E4 = 1 + 240 sum sigma_3(n) q^n."""
    s = _divisor_power_sums(3, order)
    return FracQSeries.dense(1, 0, [1] + [240 * c for c in s[1:]])


def eta_series(order):
    """q^(1/24) prod (1 - q^n), exact below q^(order + 1 + 1/24)."""
    return FracQSeries.dense(24, 1, euler_product(order)._spread(24)[1])


def j_series(order):
    """The j-function q-expansion q^-1 + 744 + 196884 q + ... through q^order:
    E4^3 / (q prod (1 - q^n)^24)."""
    jq = e4_series(order + 1) ** 3 * euler_product(order + 1) ** -24
    return FracQSeries.dense(1, -1, jq.a)


def omega2_series(order):
    """The Hauptmodul 2^12 Delta(2z)/Delta(z) = 2^12 q prod (1 + q^n)^24."""
    p = prod_one_plus(order, 24)
    return FracQSeries.dense(1, 1, [4096 * c for c in p.a[:order]])


def eta_quotient_2_series(order):
    """eta(2z)/eta(z) = q^(1/24) prod (1 + q^n), exact below
    q^(order + 1 + 1/24)."""
    return FracQSeries.dense(24, 1, prod_one_plus(order, 1)._spread(24)[1])
