"""Exact q-series layer: algebra and classical expansions."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cmfactor.series import (FracQSeries, euler_product, eta_quotient,
                             e4_series, j_series, omega2_series,
                             product_sum)


def naive_euler_product(order):
    # direct multiplication oracle for prod (1 - q^n)
    coeffs = {0: 1}
    for n in range(1, order + 1):
        new = dict(coeffs)
        for k, c in coeffs.items():
            if k + n <= order:
                new[k + n] = new.get(k + n, 0) - c
        coeffs = new
    return {k: v for k, v in coeffs.items() if v}


def test_euler_product_matches_naive_oracle():
    got = euler_product(40)
    want = naive_euler_product(40)
    for k in range(41):
        assert got.coeff(k) == want.get(k, 0)


def naive_eta_product(order, a, b):
    # direct oracle for prod_n (1 - q^n)^a (1 - q^2n)^b through q^order,
    # factor by factor: (1 - q^m) multiplies, and 1/(1 - q^m) =
    # sum_j q^(jm) divides, each |k| times
    c = [1] + [0] * order
    for m, k in [(n, a) for n in range(1, order + 1)] + \
            [(2 * n, b) for n in range(1, order // 2 + 1)]:
        for _ in range(abs(k)):
            if k > 0:
                for i in range(order, m - 1, -1):
                    c[i] -= c[i - m]
            else:
                for i in range(m, order + 1):
                    c[i] += c[i - m]
    return c


def test_eta_quotient_matches_naive_oracle():
    # eta(z)^a eta(2z)^b = q^((a + 2b)/24) E(q)^a E(q^2)^b, exact below
    # q^(order + 1 + (a + 2b)/24), at an int offset when it is integral
    order = 30
    ks = (-24, -5, -1, 0, 1, 2, 24)
    for a in ks:
        for b in ks:
            got = eta_quotient(order, a, b)
            off = Fraction(a + 2 * b, 24)
            assert got.off == off and got.cutoff == order + 1 + off, (a, b)
            assert type(got.off) is (int if off.denominator == 1
                                     else Fraction), (a, b)
            assert got.a == naive_eta_product(order, a, b), (a, b)
    assert eta_quotient(order, -24, 24).off == 1
    assert eta_quotient(order, 24, -24).off == -1
    # prod (1 + q^n)^k = eta(z)^-k eta(2z)^k at offset 0, against the
    # product of its factors
    coeffs = {0: 1}
    for n in range(1, order + 1):
        new = dict(coeffs)
        for k, c in coeffs.items():
            if k + n <= order:
                new[k + n] = new.get(k + n, 0) + c
        coeffs = new
    naive = FracQSeries(coeffs, order + 1)
    for k in (1, 24, -24):
        got = FracQSeries.dense(0, eta_quotient(order, -k, k).a)
        assert got.cutoff == order + 1
        assert got == naive ** k, k


def test_eta_leading_terms():
    e = eta_quotient(5, 1, 0)
    assert e.terms()[:3] == [
        (Fraction(1, 24), 1), (Fraction(25, 24), -1), (Fraction(49, 24), -1)]
    # pentagonal exponent 5 + 1/24 reappears with sign +1
    assert e.coeff(Fraction(121, 24)) == 1
    assert e.coeff(Fraction(73, 24)) == 0


def test_eisenstein_series():
    e4 = e4_series(3)
    assert [e4.coeff(k) for k in range(3)] == [1, 240, 2160]


def test_delta_is_ramanujan_tau():
    # Delta = q prod (1 - q^n)^24, so [q^k] of the 24th power is tau(k + 1)
    d = euler_product(6) ** 24
    assert [d.coeff(k) for k in range(6)] == [1, -24, 252, -1472, 4830, -6048]


def test_j_series_classical_coefficients():
    j = j_series(3)
    assert j.coeff(-1) == 1
    assert j.coeff(0) == 744
    assert j.coeff(1) == 196884
    assert j.coeff(2) == 21493760
    assert j.coeff(3) == 864299970


def test_omega2_series_leading_terms():
    o = omega2_series(4)
    assert [o.coeff(k) for k in range(1, 5)] == [4096, 98304, 1228800, 10747904]
    assert o.coeff(0) == 0
    # order 0: the empty series, exact below q^1
    o = omega2_series(0)
    assert o.a == [] and o.off == o.cutoff == 1 and type(o.off) is int


def test_prefix_stability():
    short, long = j_series(4), j_series(12)
    for k in range(-1, 5):
        assert short.coeff(k) == long.coeff(k)


def test_inverse_roundtrip():
    random.seed(7)
    coeffs = {0: Fraction(1)}
    for k in range(1, 12):
        coeffs[k] = Fraction(random.randint(-9, 9))
    s = FracQSeries(coeffs, 12)
    prod = s * s ** -1
    assert prod.coeff(0) == 1
    for k in range(1, 10):
        assert prod.coeff(k) == 0


def test_mul_pow_consistency():
    s = euler_product(20)
    assert (s * s * s) == s ** 3
    assert s ** 0 == FracQSeries.constant(1, 5)
    # the first power is the series itself, with no recurrence
    assert s ** 1 is s


def test_negative_power_and_shift():
    s = euler_product(15)
    inv = s ** -2
    assert (inv * s * s).coeff(0) == 1
    m = FracQSeries({-1: 1}, 10)
    assert (m * s).off == -1


def test_subst_power_and_eta_quotient():
    e = eta_quotient(10, 1, 0)
    e2 = e.subst_power(2)
    assert e2.coeff(Fraction(2, 24)) == 1
    assert e2.coeff(Fraction(50, 24)) == -1
    q = eta_quotient(6, -1, 1)
    # eta(2z)/eta(z) = q^(1/24) prod (1 + q^n)
    assert q.coeff(Fraction(1, 24)) == 1
    assert q.coeff(Fraction(25, 24)) == 1
    assert q.coeff(Fraction(49, 24)) == 1
    assert q.coeff(Fraction(73, 24)) == 2


def test_coeff_beyond_cutoff_raises():
    s = euler_product(5)
    with pytest.raises(ValueError):
        s.coeff(6)


def test_integer_coefficients_and_monic_powers_are_required():
    with pytest.raises(ValueError):
        FracQSeries({0: 1, 1: Fraction(1, 2)}, 3)
    with pytest.raises(ValueError):
        FracQSeries({Fraction(1, 3): Fraction(5, 2)}, 2)
    s = FracQSeries({0: 2, 1: 1}, 4)
    for k in (-1, 2):
        with pytest.raises(ValueError):
            s ** k


def test_truncate_cannot_extend():
    s = euler_product(5)
    with pytest.raises(ValueError):
        s.truncate(99)
    t = s.truncate(3)
    assert t.cutoff == 3


# q^off + c_1 q^(off+1) + ... + O(q^(off+n)) with integer coefficients at
# a rational offset: monic, so that every power is defined
offsets = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def _series(off, rest):
    return FracQSeries({off + i: c for i, c in enumerate([1] + rest)},
                       off + 1 + len(rest))


rests = st.lists(st.integers(-9, 9), max_size=10)
int_series = st.builds(_series, offsets, rests)

PROPERTY = settings(max_examples=60, deadline=None)


def _power_cutoff(s, k):
    # k lo + (cutoff - lo): the relative precision of s is kept
    return k * s.off + s.cutoff - s.off


def _repeated_product(s, k):
    p = s
    for _ in range(k - 1):
        p = p * s
    return p


@PROPERTY
@given(int_series, st.integers(-12, 12))
def test_power_is_repeated_product(s, k):
    p = s ** k
    assert p.cutoff == _power_cutoff(s, k)
    if k > 0:
        assert p == _repeated_product(s, k)
    else:
        # s^k times |k| factors s is 1 + O(q^(cutoff - lo))
        one = p * _repeated_product(s, -k) if k else p
        assert one.cutoff == s.cutoff - s.off
        assert one == FracQSeries.constant(1, one.cutoff)


@PROPERTY
@given(int_series)
def test_inverse_is_a_unit(s):
    p = s * s ** -1
    assert p.cutoff == s.cutoff - s.off
    assert p == FracQSeries.constant(1, p.cutoff)


@PROPERTY
@given(int_series, st.integers(-4, 4), st.integers(-4, 4))
def test_power_of_a_power(s, a, b):
    p = (s ** a) ** b
    assert p.cutoff == _power_cutoff(s, a * b)
    assert p == s ** (a * b)


@PROPERTY
@given(offsets, st.integers(-3, 3), rests, rests, st.integers(1, 4))
def test_subst_power_distributes(off, shift, rest1, rest2, r):
    # s and t share the class of off, so their sum is defined
    s, t = _series(off, rest1), _series(off + shift, rest2)
    for f in (lambda x, y: x * y, lambda x, y: x + y):
        want = f(s.subst_power(r), t.subst_power(r))
        got = f(s, t).subst_power(r)
        assert got.cutoff == want.cutoff
        assert got == want
    assert s.subst_power(r).off == r * s.off


@PROPERTY
@given(int_series, st.integers(2, 5), offsets)
def test_sum_needs_one_class_or_a_zero_series(s, den, cut):
    other = FracQSeries.dense(s.off + Fraction(1, den), [1])
    with pytest.raises(ValueError, match="classes"):
        s + other
    with pytest.raises(ValueError, match="classes"):
        other - s
    zero = FracQSeries({}, cut)
    want = s.truncate(min(s.cutoff, cut))
    for got in (s + zero, zero + s, s - zero):
        assert got.cutoff == want.cutoff
        assert got.terms() == want.terms()


@PROPERTY
@given(int_series, st.integers(2, 5), st.integers(-3, 12))
def test_coeff_off_the_class_is_zero(s, den, k):
    e = s.off + k + Fraction(1, den)
    if e < s.cutoff:
        assert s.coeff(e) == 0 and type(s.coeff(e)) is int
    assert all((x - s.off).denominator == 1 for x, _ in s.terms())


def test_one_class_and_unit_steps():
    with pytest.raises(ValueError, match="class"):
        FracQSeries({0: 1, Fraction(1, 2): 1}, 3)
    e = eta_quotient(10, 1, 0)
    assert len(e.a) == 11 and e.off == Fraction(1, 24)
    # offsets that are integers are stored as ints
    assert type((e ** 24).off) is int and (e ** 24).off == 1
    assert type(FracQSeries({Fraction(2): 1}, 3).off) is int


def _schoolbook(x, y):
    """The reference product, term by term: exact below
    min(x.cutoff + y.lo, y.cutoff + x.lo)."""
    n = min(len(x.a), len(y.a))
    out = [0] * n
    for i, c in enumerate(x.a[:n]):
        for j, d in enumerate(y.a[:n - i]):
            out[i + j] += c * d
    return FracQSeries.dense(x.off + y.off, out)


def _schoolbook_sum(pairs):
    total = _schoolbook(*pairs[0])
    for x, y in pairs[1:]:
        total = total + _schoolbook(x, y)
    return total


def _same(got, want):
    return (got.off, got.a, got.cutoff) == (want.off, want.a, want.cutoff)


# signed coefficients with zeros, small and past 64 bits; lists of length 0
# (the zero series) and 1 among them
coefficients = st.one_of(st.just(0), st.integers(-9, 9),
                         st.integers(-2 ** 70, 2 ** 70))
coefficient_lists = st.lists(coefficients, max_size=24)
fractional_parts = st.builds(Fraction, st.integers(0, 5), st.integers(1, 6))
shifts = st.integers(-3, 3)


@st.composite
def product_pairs(draw):
    # x_k at class fx + Z and y_k at fy + Z, so every product lies in
    # fx + fy + Z
    fx, fy = draw(fractional_parts), draw(fractional_parts)
    if draw(st.booleans()):
        return [(FracQSeries.dense(fx + draw(shifts), draw(coefficient_lists)),
                 FracQSeries.dense(fy + draw(shifts), draw(coefficient_lists)))
                for _ in range(draw(st.integers(1, 4)))]
    # at the bound: r copies of [u] * L times [w] * L have the q^(L-1)
    # digit r L u w, which is M = sum_k min(len) max|x_k| max|y_k|
    L, r = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    u, w = (draw(st.integers(1, 2 ** 40)) * draw(st.sampled_from([1, -1]))
            for _ in "uw")
    return [(FracQSeries.dense(fx, [u] * L),
             FracQSeries.dense(fy, [w] * L))] * r


def _at_the_bound(bits, u=1):
    # [u, u] [w, w]: the q^1 digit 2 u w has exactly `bits` bits
    w = 2 ** (bits - 1) - 1
    return [(FracQSeries.dense(0, [u, u]), FracQSeries.dense(0, [w, w]))]


@settings(max_examples=300, deadline=None)
@given(product_pairs())
@example(_at_the_bound(8))
@example(_at_the_bound(16, -1))
@example(_at_the_bound(72) * 2)
@example([(FracQSeries.dense(-2, [2 ** 30 - 1] * 9),
           FracQSeries.dense(Fraction(1, 2), [-(2 ** 30)] * 5))] * 3)
def test_product_sum_is_the_schoolbook_sum(pairs):
    # a digit at the bound needs B = bits(M) + 1 rounded to bytes; one bit
    # less fails the examples at 8, 16 and 72 bits
    assert _same(product_sum(pairs), _schoolbook_sum(pairs))
    x, y = pairs[0]
    assert _same(x * y, _schoolbook(x, y))


def test_product_sum_needs_one_class():
    x = FracQSeries.dense(0, [1, 2, 3])
    y = FracQSeries.dense(Fraction(1, 2), [1, 2, 3])
    with pytest.raises(ValueError, match="classes"):
        product_sum([(x, x), (x, y)])
    # a zero product may lie in any class
    zero = FracQSeries.dense(Fraction(1, 3), [])
    assert _same(product_sum([(x, x), (zero, x)]),
                 x * x + _schoolbook(zero, x))


def test_j_series_equals_the_miller_route():
    # E4^3 by Miller's recurrence on the dense E4, times E^-24, term by term
    order = 300
    e4_cube = e4_series(order + 1) ** 3
    want = _schoolbook(e4_cube, euler_product(order + 1) ** -24)
    got = j_series(order)
    assert got.off == -1 and got.cutoff == order + 1
    assert got.a == want.a
