"""Exact q-expansions with rational exponents and integer coefficients.

A FracQSeries is a truncated series sum_i a[i] q^(off + i): a dense list `a`
of Python ints at unit steps from the exponent offset `off`, an int or a
non-integral Fraction, so every exponent lies in the class off + Z; the zero
series adds to a series of any class.  Every term below the cutoff
off + len(a) is stored, and a[0] != 0 unless the series is zero.  Exponents
may be negative (principal parts).  Powers, the inverse among them, are
taken of monic series (a[0] == 1) only, so every coefficient stays an
integer.  Coefficients are ints; every exponent and cutoff, the accessors'
among them, is an int when integral, else a Fraction, as `off` (`exponent`).

Powers go by Miller's recurrence, for sparse bases; products, and sums of
products, by `product_sum`: Kronecker substitution for dense factors, term
by term for a factor at least half zero.  One builder, `eta_quotient`, makes
every eta(z)^a eta(2z)^b, omega2 among them, at its derived q-offset.
"""

from fractions import Fraction
from math import ceil


def exponent(e):
    """The exponent e, an int or a Fraction, as an int when integral."""
    return int(e) if e.denominator == 1 else e


def _miller(a, k):
    """The first len(a) coefficients of A^k, for an integer list A with
    A[0] = 1 and any integer k.

    J.C.P. Miller's recurrence m B_m = sum_{j=1..m} (k j - m + j) A_j
    B_{m-j} (Knuth, TAOCP vol. 2, 4.7): A^k has integer coefficients, so
    every division by m is exact, and a remainder raises ArithmeticError.
    Zero coefficients of A are skipped, so a sparse A costs
    O(len(a) * nonzeros).
    """
    n = len(a)
    js = [j for j in range(1, n) if a[j]]
    vs = [a[j] for j in js]
    b = [1] * n
    t = 0
    for m in range(1, n):
        if t < len(js) and js[t] <= m:
            t += 1
        b[m], r = divmod(sum(((k + 1) * j - m) * v * b[m - j]
                             for j, v in zip(js[:t], vs)), m)
        if r:
            raise ArithmeticError(f"Miller's recurrence: remainder {r} "
                                  f"at term {m}")
    return b


def _bias(n, k):
    """sum_{i<n} 2^(8k - 1) 2^(8k i): half of each of n k-byte digits."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")


def _pack(a, k):
    """sum_i a[i] 2^(8k i), each |a[i]| < 2^(8k - 1) written biased."""
    h = 1 << 8 * k - 1
    packed = b"".join([(c + h).to_bytes(k, "little") for c in a])
    return int.from_bytes(packed, "little") - _bias(len(a), k)


def _unpack(v, n, k):
    """The n lowest signed 8k-bit digits of v = sum_i c_i 2^(8k i), given
    |c_i| < 2^(8k - 1) for i < n: biased, no digit borrows, and the mask
    drops the rest, a multiple of 2^(8k n)."""
    h = 1 << 8 * k - 1
    buf = ((v + _bias(n, k)) & (1 << 8 * k * n) - 1).to_bytes(k * n, "little")
    return [int.from_bytes(buf[i:i + k], "little") - h
            for i in range(0, k * n, k)]


# measured: a factor at most half nonzero is faster term by term from about
# 800 terms (E(q^2)^24 E(q)^-24 through q^4032, in weber (32, 32): 0.87 s
# against 1.46 s), and at most 1.8x slower below; denser pairs are faster
# by Kronecker from 32 terms of up to 64 bits (5x at 128), and from 128
# terms of 512 bits
DENSE_FROM = 0.5


def product_sum(pairs):
    """sum_k x_k y_k over pairs of series, exact below the smallest of the
    products' cutoffs: x y is exact below min(x.cutoff + y.off,
    y.cutoff + x.off), and a sum below the smaller cutoff, as for __add__.
    Nonzero products must lie in one exponent class mod 1.

    A pair whose sparser factor has at most DENSE_FROM of its terms nonzero
    is multiplied term by term over them.  The others go by Kronecker
    substitution (Schoenhage 1982; Harvey, J. Symbolic Comput. 2009): each
    list packed at 2^B, one big-int multiply per pair, shifted by its offset
    s above the lowest, and the sum read back as n signed B-bit digits.

    The bound on B.  Only the first n terms of the sum are exact, and a
    pair enters them through the first m = n - s terms of each factor, so
    both lists are cut there.  A term of the cut x y is a sum of at most
    min(len) = m products, each at most max|x| max|y|, so every digit is at
    most M = sum_k min(len) max|x_k| max|y_k| in absolute value; so is every
    packed term, as a[0] != 0 makes both maxima at least 1.  One bit more
    for the sign, rounded up to bytes, B = 8 ceil((bits(M) + 1) / 8) keeps
    them all in (-2^(B-1), 2^(B-1)).
    """
    pairs = list(pairs)
    cut = min(x.off + y.off + min(len(x.a), len(y.a)) for x, y in pairs)
    live = [(x, y) for x, y in pairs if x.a and y.a]
    lo = min((x.off + y.off for x, y in live), default=cut)
    if any((x.off + y.off - lo).denominator != 1 for x, y in live):
        raise ValueError("sum of series whose exponents lie in different "
                         "classes mod 1")
    n = ceil(cut - lo)
    out, dense = [0] * max(0, n), []
    for x, y in live:
        m = max(0, n - int(x.off + y.off - lo))
        xa, ya = x.a[:m], y.a[:m]       # both of length m
        if xa.count(0) < ya.count(0):
            xa, ya = ya, xa
        if m - xa.count(0) > DENSE_FROM * (m + 1):
            dense.append((n - m, xa, ya))
            continue
        for i, c in enumerate(xa, n - m):
            if c:
                out[i:] = [o + c * y for o, y in zip(out[i:], ya)]
    if dense:
        bound = sum(len(xa) * max(map(abs, xa)) * max(map(abs, ya))
                    for _, xa, ya in dense)
        k = (bound.bit_length() + 8) // 8
        v = sum(_pack(xa, k) * _pack(ya, k) << 8 * k * s
                for s, xa, ya in dense)
        out = [o + c for o, c in zip(out, _unpack(v, n, k))]
    return FracQSeries.dense(lo + min(0, n), out)


class FracQSeries:

    def __init__(self, coeffs, cutoff):
        """The series sum_e coeffs[e] q^e, exact below cutoff: integer
        coefficients at exponents e of one class mod 1."""
        coeffs = {e: c for e, c in coeffs.items() if e < cutoff}
        if any(int(c) != c for c in coeffs.values()):
            raise ValueError("coefficients must be integers")
        off = min(coeffs, default=cutoff)
        if any((e - off).denominator != 1 for e in coeffs):
            raise ValueError("exponents must lie in one class mod 1")
        a = [0] * ceil(cutoff - off)
        for e, c in coeffs.items():
            a[int(e - off)] = int(c)
        self._set(off, a)

    def _set(self, off, a):
        lead = next((i for i, c in enumerate(a) if c), len(a))
        self.off = exponent(off + lead)
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
        return self.off + len(self.a)

    def coeff(self, e):
        if e >= self.cutoff:
            raise ValueError(f"coefficient of q^{e} beyond cutoff {self.cutoff}")
        i = e - self.off
        if i < 0 or i.denominator != 1:
            return 0
        return self.a[int(i)]

    def terms(self):
        """Sorted list of (exponent, coefficient) pairs of the nonzero
        terms: int coefficients, exponents in the form of `off`."""
        return [(self.off + i, c) for i, c in enumerate(self.a) if c]

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
        return product_sum([(self, other)])

    def __pow__(self, k):
        """self ** k for any integer k, exact below k off + (cutoff - off).
        A nonzero self must be monic; its 0th power is 1, its first self."""
        if not self.a:
            if k <= 0:
                raise ZeroDivisionError("power of the zero series")
            return self.dense(k * self.off, [])
        if self.a[0] != 1:
            raise ValueError("power of a series whose leading coefficient "
                             "is not 1")
        if k == 0:
            return self.constant(1, len(self.a))
        if k == 1:
            return self
        return self.dense(k * self.off, _miller(self.a, k))

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


def eta_quotient(order, a, b):
    """eta(z)^a eta(2z)^b = q^((a + 2b)/24) E(q)^a E(q^2)^b, E the pentagonal
    series, exact below q^(order + 1 + (a + 2b)/24): two sparse Miller
    powers, the half-zero E(q^2)^b multiplied term by term."""
    e2 = (euler_product(order // 2) ** b).subst_power(2)
    return FracQSeries.dense(Fraction(a + 2 * b, 24),
                             (euler_product(order) ** a * e2).a)


def _divisor_power_sums(k, order):
    sums = [0] * (order + 1)
    for d in range(1, order + 1):
        dk = d ** k
        for n in range(d, order + 1, d):
            sums[n] += dk
    return sums


def e4_series(order):
    """Eisenstein series E4 = 1 + 240 sum sigma_3(n) q^n."""
    s = _divisor_power_sums(3, order)
    return FracQSeries.dense(0, [1] + [240 * c for c in s[1:]])


def j_series(order):
    """The j-function q-expansion q^-1 + 744 + 196884 q + ... through q^order:
    E4^3 / (q prod (1 - q^n)^24), three Kronecker products and one Miller
    power of the pentagonal series."""
    e4 = e4_series(order + 1)
    jq = e4 * e4 * e4 * euler_product(order + 1) ** -24
    return FracQSeries.dense(-1, jq.a)


def omega2_series(order):
    """The Hauptmodul 2^12 (eta(2z)/eta(z))^24 = 2^12 q prod (1 + q^n)^24."""
    p = eta_quotient(order, -24, 24)
    return FracQSeries.dense(1, [4096 * c for c in p.a[:order]])
