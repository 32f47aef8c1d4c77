"""Exact q-expansions with rational exponents and integer coefficients.

A FracQSeries is a truncated series sum_i a[i] q^(off + i): a dense list `a`
of Python ints at unit steps from the exponent offset `off`, an int or a
non-integral Fraction, so every exponent lies in the class off + Z; the zero
series adds to a series of any class.  Every term below the cutoff
off + len(a) is stored, and a[0] != 0 unless the series is zero.  Exponents
may be negative (principal parts).  Powers, the inverse among them, are
taken of monic series (a[0] == 1) only, so every coefficient stays an
integer.  The accessors `coeff` and `terms` give coefficients as ints; only
exponents and cutoffs are Fractions.
"""

from fractions import Fraction
from math import ceil


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

    def __init__(self, coeffs, cutoff):
        """The series sum_e coeffs[e] q^e, exact below cutoff: integer
        coefficients at exponents e of one class mod 1."""
        coeffs = {Fraction(e): c for e, c in coeffs.items() if e < cutoff}
        if any(int(c) != c for c in coeffs.values()):
            raise ValueError("coefficients must be integers")
        off = min(coeffs, default=Fraction(cutoff))
        if any((e - off).denominator != 1 for e in coeffs):
            raise ValueError("exponents must lie in one class mod 1")
        a = [0] * ceil(cutoff - off)
        for e, c in coeffs.items():
            a[int(e - off)] = int(c)
        self._set(off, a)

    def _set(self, off, a):
        lead = next((i for i, c in enumerate(a) if c), len(a))
        off += lead
        self.off = int(off) if off.denominator == 1 else off
        self.a = a[lead:]

    @classmethod
    def dense(cls, off, a):
        """The series q^off sum_i a[i] q^i, exact below q^(off + len(a))."""
        s = cls.__new__(cls)
        s._set(off, a)
        return s

    @classmethod
    def constant(cls, c, cutoff):
        return cls({0: c}, cutoff)

    @property
    def cutoff(self):
        return Fraction(self.off + len(self.a))

    def lo(self):
        """Smallest exponent with a nonzero stored coefficient.

        For an identically-zero truncation this returns the cutoff, which is
        a valid lower bound for any terms the series may have.
        """
        return Fraction(self.off)

    def coeff(self, e):
        e = Fraction(e)
        if e >= self.cutoff:
            raise ValueError(f"coefficient of q^{e} beyond cutoff {self.cutoff}")
        i = e - self.off
        if i < 0 or i.denominator != 1:
            return 0
        return self.a[int(i)]

    def terms(self):
        """Sorted list of (exponent, coefficient) pairs: Fraction
        exponents, int coefficients."""
        return [(Fraction(self.off + i), c) for i, c in enumerate(self.a) if c]

    def truncate(self, cutoff):
        if cutoff > self.cutoff:
            raise ValueError("cannot extend a truncated series")
        n = ceil(cutoff - self.off)
        return self.dense(self.off + min(0, n), self.a[:max(0, n)])

    def __add__(self, other):
        if not isinstance(other, FracQSeries):
            other = FracQSeries.constant(other, self.cutoff)
        d = other.off - self.off
        if d.denominator != 1:
            if self.a and other.a:
                raise ValueError("sum of series whose exponents lie in "
                                 "different classes mod 1")
            cut = min(self.cutoff, other.cutoff)
            return (self if self.a else other).truncate(cut)
        d = int(d)
        lo = min(0, d)
        end = min(len(self.a), d + len(other.a))
        out = [0] * (end - lo)
        for o, a in ((0, self.a), (d, other.a)):
            for i, c in enumerate(a[:max(0, end - o)], o - lo):
                out[i] += c
        return self.dense(self.off + lo, out)

    def __neg__(self):
        return self.dense(self.off, [-c for c in self.a])

    def __sub__(self, other):
        if not isinstance(other, FracQSeries):
            other = FracQSeries.constant(other, self.cutoff)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FracQSeries):
            return NotImplemented
        a, b = self.a, other.a
        # exact below min(cutoff + other.lo, other.cutoff + lo)
        n = min(len(a), len(b))
        if a.count(0) < b.count(0):
            a, b = b, a             # loop over the sparser factor
        out = [0] * n
        for i, x in enumerate(a[:n]):
            if x:
                out[i:] = [o + x * y for o, y in zip(out[i:], b)]
        return self.dense(self.off + other.off, out)

    def __pow__(self, k):
        """self ** k for any integer k, exact below k lo + (cutoff - lo).
        A nonzero self must be monic."""
        if not self.a:
            if k <= 0:
                raise ZeroDivisionError("power of the zero series")
            return self.dense(k * self.off, [])
        if self.a[0] != 1:
            raise ValueError("power of a series whose leading coefficient "
                             "is not 1")
        return self.dense(k * self.off, _miller(self.a, k))

    def inverse(self):
        """Multiplicative inverse, valid where enough terms are known."""
        return self ** -1

    def subst_power(self, r):
        """Substitute q -> q^r for a positive integer r."""
        a = [0] * (r * len(self.a))
        a[::r] = self.a
        return self.dense(r * self.off, a)

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
    return FracQSeries.dense(0, a)


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
    return FracQSeries.dense(0, [1] + [-24 * c for c in s[1:]])


def e4_series(order):
    """Eisenstein series E4 = 1 + 240 sum sigma_3(n) q^n."""
    s = _divisor_power_sums(3, order)
    return FracQSeries.dense(0, [1] + [240 * c for c in s[1:]])


def eta_series(order):
    """q^(1/24) prod (1 - q^n), exact below q^(order + 1 + 1/24)."""
    return FracQSeries.dense(Fraction(1, 24), euler_product(order).a)


def j_series(order):
    """The j-function q-expansion q^-1 + 744 + 196884 q + ... through q^order:
    E4^3 / (q prod (1 - q^n)^24)."""
    jq = e4_series(order + 1) ** 3 * euler_product(order + 1) ** -24
    return FracQSeries.dense(-1, jq.a)


def omega2_series(order):
    """The Hauptmodul 2^12 Delta(2z)/Delta(z) = 2^12 q prod (1 + q^n)^24."""
    p = prod_one_plus(order, 24)
    return FracQSeries.dense(1, [4096 * c for c in p.a[:order]])


def eta_quotient_2_series(order):
    """eta(2z)/eta(z) = q^(1/24) prod (1 + q^n), exact below
    q^(order + 1 + 1/24)."""
    return FracQSeries.dense(Fraction(1, 24), prod_one_plus(order, 1).a)
