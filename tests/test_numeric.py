"""Arbitrary-precision evaluators against classical CM values."""

import random
from math import isqrt

import mpmath
import pytest

from cmfactor import numeric
from cmfactor.classgroup import reduced_forms
from cmfactor.numeric import (eval_j, eval_omega2, recognize_integer,
                              class_polynomial, auto_prec, cm_values,
                              form_height, integer_polynomial, j_value,
                              omega2_value, pair_norm, GUARD_BITS, TOL_BITS)
from cmfactor.quadarith import is_fundamental_discriminant
from cmfactor.series import j_series
from test_classgroup import heegner_point


def pair(z, prec):
    """The complex fixed-point pair of the number z at the kernel's scale
    2^(prec + GUARD_BITS), each part truncated."""
    z, w = mpmath.mpmathify(z), prec + GUARD_BITS
    return int(mpmath.ldexp(z.real, w)), int(mpmath.ldexp(z.imag, w))


def number(z, w):
    """The complex fixed-point pair z at scale 2^w as an exact mpc."""
    with mpmath.workprec(max(53, *(abs(x).bit_length() for x in z))):
        return mpmath.mpc(mpmath.mpf((z[0], -w)), mpmath.mpf((z[1], -w)))


def scaled(z, n):
    """The complex fixed-point pair z times 1 + 2^-n, each part rounded
    down: a CM value off by a relative 2^-n."""
    return tuple(x + (x >> n) for x in z)


def j(tau, prec):
    """eval_j at the mpc tau, as an mpc."""
    return number(eval_j(pair(tau, prec), prec), prec + GUARD_BITS)


def omega2(tau, prec):
    """eval_omega2 at the mpc tau, as an mpc."""
    return number(eval_omega2(pair(tau, prec), prec), prec + GUARD_BITS)


def eta_quotient(tau, prec):
    """The kernel's s = t 2^-k at the mpc tau, as an mpc: unlike the pair of
    eval_omega2, at scale 2^(prec + GUARD_BITS), it keeps its relative
    precision however small s is."""
    t, k = numeric._eta_quotient(pair(tau, prec), prec)
    return number(t, prec + GUARD_BITS + 8 + k)


def test_j_at_i_is_1728():
    v = j(mpmath.mpc(0, 1), 192)
    assert abs(v - 1728) < mpmath.mpf(2) ** -150


def test_j_at_omega_is_zero():
    tau = mpmath.mpc(-0.5, mpmath.sqrt(3) / 2)
    assert abs(j(tau, 192)) < mpmath.mpf(2) ** -140


@pytest.mark.parametrize("d,value", [
    (-163, -262537412640768000),
    (-67, -147197952000),
    (-43, -884736000),
])
def test_j_at_class_number_one_points(d, value):
    with mpmath.workprec(320):
        tau = (1 + mpmath.mpc(0, mpmath.sqrt(-d))) / 2
        assert recognize_integer(eval_j(pair(tau, 256), 256), 320) == value


def test_modular_invariance_of_j():
    with mpmath.workprec(192):
        tau = mpmath.mpc(mpmath.mpf("0.37"), mpmath.mpf("1.21"))
        a = j(tau, 128)
        assert abs(a - j(tau + 1, 128)) < mpmath.mpf(2) ** -100
        assert abs(a - j(-1 / tau, 128)) < mpmath.mpf(2) ** -100


def test_omega2_level2_invariance():
    with mpmath.workprec(192):
        tau = mpmath.mpc(mpmath.mpf("0.21"), mpmath.mpf("1.4"))
        a = omega2(tau, 128)
        assert abs(a - omega2(tau + 1, 128)) < mpmath.mpf(2) ** -95
        # gamma = (1 0; 2 1) in Gamma_0(2)
        assert abs(a - omega2(tau / (2 * tau + 1), 128)) < mpmath.mpf(2) ** -90


def test_level2_modular_equation():
    # j(2 tau) = (omega2(tau) + 256)^3 / omega2(tau)^2; the two sides use the
    # eta values at (tau, 2 tau) and at (2 tau, 4 tau)
    with mpmath.workprec(264):
        tau = mpmath.mpc(mpmath.mpf("0.11"), mpmath.mpf("0.93"))
        w = omega2(tau, 200)
        want = (w + 256) ** 3 / w ** 2
        got = j(2 * tau, 200)
        assert abs(got - want) < mpmath.mpf(2) ** -190 * abs(want)


def test_omega2_far_in_the_cusp():
    tau = mpmath.mpc(0, 10)
    with mpmath.workprec(256):
        q = mpmath.exp(-20 * mpmath.pi)
        want = 4096 * q * (1 + 24 * q + 276 * q ** 2)
        got = omega2(tau, 200)
        assert abs(got - want) < abs(want) * mpmath.mpf(2) ** -150


KLEINJ_POINTS = [("0.37", "1.21"), ("-0.5", "0.9"), ("0.1", "0.3")]


@pytest.mark.parametrize("x,y", KLEINJ_POINTS)
def test_j_against_mpmath_kleinj(x, y):
    # an independent evaluator: mpmath's kleinj reduces tau to the
    # fundamental domain and sums theta series, not the eta product
    with mpmath.workprec(264):
        tau = mpmath.mpc(mpmath.mpf(x), mpmath.mpf(y))
        want = 1728 * mpmath.kleinj(tau)
        assert abs(j(tau, 200) - want) < mpmath.mpf(2) ** -232 * abs(want)


@pytest.mark.parametrize("x,y", KLEINJ_POINTS)
def test_omega2_against_mpmath_kleinj(x, y):
    # j = (omega2 + 16)^3 / omega2
    with mpmath.workprec(264):
        tau = mpmath.mpc(mpmath.mpf(x), mpmath.mpf(y))
        want = 1728 * mpmath.kleinj(tau)
        w = omega2(tau, 200)
        assert abs((w + 16) ** 3 / w - want) < mpmath.mpf(2) ** -232 * abs(want)


@pytest.mark.parametrize("prec", [1, 8, 30, 100, 300, 1000, 3000, 10000,
                                  25000])
def test_kernel_accuracy_at_random_points(prec):
    # seeded random tau, Re in [-1/2, 1/2] and Im in [low, high]: j against
    # 1728 kleinj, and omega2 through the level-2 modular equation
    # j(2 tau) = (omega2 + 256)^3 / omega2^2, each to a relative
    # 2^-(prec + 8) of a reference at prec + 200 bits; two points at 10000
    # bits and one at 25000 reach the Im (12.2) and the bits of the
    # |d| <= 600 pairs.  omega2 is 4096 s from the kernel, whose relative
    # precision holds where omega2 is as small as 2^-84, below what the
    # pair of eval_omega2 at scale 2^-(prec + GUARD_BITS) resolves relatively
    if prec < 10000:
        points, low, high = 12, 0.3, 4
    else:
        points, low, high = (2 if prec == 10000 else 1), 3 ** 0.5 / 4, 12.2
    rng = random.Random(f"kernel:{prec}")
    for _ in range(points):
        tau = mpmath.mpc(rng.uniform(-0.5, 0.5), rng.uniform(low, high))
        v, s = j(tau, prec), eta_quotient(tau, prec)
        with mpmath.workprec(prec + 200):
            w = 4096 * s
            tol = mpmath.mpf(2) ** -(prec + 8)
            want = 1728 * mpmath.kleinj(tau)
            assert abs(v - want) < tol * abs(want), tau
            want = 1728 * mpmath.kleinj(2 * tau)
            assert abs((w + 256) ** 3 / w ** 2 - want) < tol * abs(want), tau


def test_precision_monotonicity():
    tau = mpmath.mpc(0.3, 0.8)
    lo = j(tau, 128)
    hi = j(tau, 320)
    assert abs(lo - hi) < abs(hi) * mpmath.mpf(2) ** -120


def test_recognize_integer():
    # complex fixed-point pairs at scale 2^w: 5 + 2^-40 rounds, 5.2 does
    # not, and neither does a point at 2^-TOL_BITS from the integer, by
    # either part or by its modulus
    w = 64
    assert recognize_integer(((5 << w) + (1 << (w - 40)), 0), w) == 5
    assert recognize_integer((int(mpmath.ldexp(mpmath.mpf(5.2), w)), 0),
                             w) is None
    tol = 1 << (w - TOL_BITS)
    assert recognize_integer(((-7 << w) - tol + 1, tol - 1), w) is None
    assert recognize_integer(((-7 << w) - tol // 2, tol // 2), w) == -7
    for z in (((-7 << w) - tol, 0), ((-7 << w) + tol, 0), (-7 << w, tol),
              (-7 << w, -tol)):
        assert recognize_integer(z, w) is None


def test_class_polynomials():
    assert class_polynomial(-3) == [1, 0]
    assert class_polynomial(-4) == [1, -1728]
    assert class_polynomial(-15) == [1, 191025, -121287375]
    assert class_polynomial(-23) == [1, 3491750, -5151296875, 12771880859375]
    # non-maximal orders (Cox, Primes of the form x^2 + ny^2, section 12)
    assert class_polynomial(-12) == [1, -54000]
    assert class_polynomial(-16) == [1, -287496]
    assert class_polynomial(-27) == [1, 12288000]
    assert class_polynomial(-28) == [1, -16581375]


@pytest.mark.parametrize("d", [-15, -23, -71, -311])
def test_auto_prec_covers_the_class_polynomial(d):
    # the bound of one discriminant is on the coefficients of its class
    # polynomial; -311 (h = 19) gets 493 bits for a 397-bit coefficient
    coeffs = class_polynomial(d)
    assert auto_prec(d) >= max(abs(c) for c in coeffs).bit_length()


def test_omega2_bound_covers_its_class_polynomial():
    # every fundamental d = 1 mod 8 with |d| < 400: W_d = prod (X - omega2)
    # expanded at the omega2 bound of d itself equals the one at the j
    # bound, far above it, and has TOL_BITS to spare below the bound
    discs = [d for d in range(-7, -400, -8) if is_fundamental_discriminant(d)]
    for d in discs:
        polys = []
        for prec in (auto_prec(d, value=omega2_value), auto_prec(d)):
            polys.append(integer_polynomial(
                cm_values(omega2_value, d, prec), prec + GUARD_BITS))
        assert polys[0] is not None and polys[0] == polys[1], d
        bits = max(abs(c) for c in polys[0]).bit_length()
        assert auto_prec(d, value=omega2_value) >= bits + TOL_BITS, d
    assert len(discs) == 42


def test_form_heights_bound_every_class_value():
    # |j - q^-1| <= sum_{n >= 0} |c(n)| e^(-pi sqrt 3 n) < 2079 where
    # Im tau >= sqrt(3)/2; c(n) < e^(4 pi sqrt n), so from n = 40 on the
    # terms are below 2^-200
    x = mpmath.exp(-mpmath.pi * mpmath.sqrt(3))
    assert sum(abs(c) * x ** int(e) for e, c in j_series(39).terms()
               if e >= 0) < 2079
    # both bounds of the height at every reduced form of every fundamental
    # |d| <= 1000, for j and, at d = 1 mod 8, for omega2; at a = b = 1,
    # log2(2|j|) = h + 1 - O(2^-h) meets the j height within the rounding
    # of the float h, hence the relative 2^-40
    discs = [d for d in range(-3, -1001, -1) if is_fundamental_discriminant(d)]
    checked = 0
    for d in discs:
        values = (j_value, omega2_value) if d % 8 == 1 else (j_value,)
        with mpmath.workprec(64 + GUARD_BITS):
            for form in reduced_forms(d):
                tau = pair(heegner_point(form, d), 64)
                for value in values:
                    v = abs(number(value(form, tau, 64), 64 + GUARD_BITS))
                    height = form_height(value, d, form[0]) * (1 + 2 ** -40)
                    assert mpmath.log(2 * v, 2) <= height, (d, form, value)
                    assert mpmath.log(1 + v, 2) <= height, (d, form, value)
                    checked += 1
    assert (len(discs), checked) == (305, 4528)


def odd_norm_points(d):
    """An odd-norm form in the class of each reduced form of d = 1 mod 8, in
    closed form, with its certificate checked: the form acted on by I, S or
    (1, -+1; +-1, 0) by the sign of b, whose first coefficient is odd."""
    points = []
    for form in reduced_forms(d):
        a, b, c = form
        if a % 2:
            g = (1, 0, 0, 1)
        elif c % 2:
            g = (0, -1, 1, 0)
        else:
            g = (1, -1, 1, 0) if b > 0 else (1, 1, -1, 0)
        r, s, t, u = g
        rep = (a * r * r + b * r * t + c * t * t,
               2 * a * r * s + b * (r * u + s * t) + 2 * c * t * u,
               a * s * s + b * s * u + c * u * u)
        assert r * u - s * t == 1 and rep[0] % 2 == 1
        assert rep[1] ** 2 - 4 * rep[0] * rep[2] == d
        points.append(rep)
    return points


CLASS_VALUE = {eval_j: j_value, eval_omega2: omega2_value}


def test_cm_values_names_each_conjugate_orbit_once():
    # every discriminant -3 >= d >= -3000, fundamental or not, with a value
    # function that returns its form: the representatives are the reduced
    # forms with b >= 0, in order, weight 2 marks exactly those whose
    # conjugate (a, -b, c) is reduced too, and the weights sum to h(d).
    # Weight 2 at 0 < b <= a < c, or at every b > 0, fails it
    count = 0
    for d in range(-3, -3001, -1):
        if d % 4 not in (0, 1):
            continue
        forms = reduced_forms(d)
        got = cm_values(lambda form, tau, prec: form, d, 8)
        assert [f for f, _ in got] == [f for f in forms if f[1] >= 0], d
        for (a, b, c), weight in got:
            assert (weight == 2) == ((a, -b, c) in forms and b != 0), \
                (d, (a, b, c))
        assert sum(w for _, w in got) == len(forms), d
        count += 1
    assert count == 1500


def class_values_per_form(value, d, prec):
    """The class value at every reduced form of d, in the order of
    reduced_forms, from the orbits of cm_values: a value of weight 2 also
    stands, conjugated at the working precision, for (a, -b, c)."""
    reps = [form for form in reduced_forms(d) if form[1] >= 0]
    per_form = {}
    with mpmath.workprec(prec + GUARD_BITS):
        for (a, b, c), (v, weight) in zip(reps, cm_values(value, d, prec)):
            v = per_form[a, b, c] = number(v, prec + GUARD_BITS)
            if weight == 2:
                per_form[a, -b, c] = mpmath.conj(v)
    return [per_form[form] for form in reduced_forms(d)]


@pytest.mark.parametrize("evaluate,points", [
    (eval_j, reduced_forms), (eval_omega2, odd_norm_points)])
@pytest.mark.parametrize("d", [-119, -199])
def test_cm_values_conjugates_agree_with_direct_evaluation(evaluate, points,
                                                            d):
    # the class values, half of them conjugates, against the evaluator at
    # the CM point of each class's point: its reduced form for j, its
    # odd-norm form for omega2
    prec = 200
    got = class_values_per_form(CLASS_VALUE[evaluate], d, prec)
    with mpmath.workprec(prec + GUARD_BITS):
        for form, value in zip(points(d), got):
            want = number(evaluate(pair(heegner_point(form, d), prec), prec),
                          prec + GUARD_BITS)
            assert abs(value - want) <= mpmath.mpf(2) ** -(prec - 8) * abs(want)


def test_omega2_value_is_omega2_at_the_odd_norm_point():
    # every fundamental d = 1 mod 8 with |d| < 400, at the precision of its
    # class polynomial: the level-2 transformation law against a direct
    # evaluation at the odd-norm form (Im tau down to 0.19 at d = -399)
    discs = [d for d in range(-7, -400, -8) if is_fundamental_discriminant(d)]
    forms = 0
    for d in discs:
        prec = auto_prec(d)
        got = class_values_per_form(omega2_value, d, prec)
        with mpmath.workprec(prec + GUARD_BITS):
            for form, value in zip(odd_norm_points(d), got):
                want = omega2(heegner_point(form, d), prec)
                assert abs(value - want) <= \
                    mpmath.mpf(2) ** -(prec - 8) * abs(want), (d, form)
                forms += 1
    assert forms == 400


@pytest.mark.parametrize("d,calls", [(-199, 5), (-119, 6), (-20, 2),
                                     (-84, 4), (-71, 4), (-3, 1)])
def test_cm_values_evaluates_once_per_conjugate_pair(monkeypatch, d, calls):
    # (h + number of self-conjugate forms) / 2 orbits and as many calls of
    # the evaluator, looked up in numeric at call time, with weights summing
    # to h: -199 has h = 9 and one self-conjugate form, (1, 1, 50); omega2
    # (d = 1 mod 8) pairs the same forms
    seen = []
    for name in ("eval_j", "eval_omega2"):
        exact = getattr(numeric, name)
        monkeypatch.setattr(numeric, name, lambda tau, prec, f=exact:
                            seen.append(tau) or f(tau, prec))
    forms = reduced_forms(d)
    self_conjugate = sum((a, -b, c) not in forms or b == 0
                         for a, b, c in forms)
    for value in [j_value] + [omega2_value] * (d % 8 == 1):
        seen.clear()
        got = cm_values(value, d, 64)
        assert sum(weight for _, weight in got) == len(forms)
        assert len(seen) == len(got) == (len(forms) + self_conjugate) // 2 \
            == calls


@pytest.mark.parametrize("d", [-3, -4, -84, -199, -2399])
def test_cm_values_takes_one_square_root_per_discriminant(monkeypatch, d):
    # one isqrt(|d| 2^(2W)) serves every form of d, for j and for omega2
    # alike, and each CM point is heegner_point's own, rounded down to a
    # pair at scale 2^W, W = prec + GUARD_BITS
    seen = []
    monkeypatch.setattr(numeric, "isqrt", lambda n: seen.append(n) or isqrt(n))
    W = 200 + GUARD_BITS
    for value in [j_value] + [omega2_value] * (d % 8 == 1):
        seen.clear()
        cm_values(value, d, 200)
        assert seen == [-d << 2 * W]
    seen.clear()
    points = cm_values(lambda form, tau, prec: tau, d, 200)
    assert seen == [-d << 2 * W]
    forms = [form for form in reduced_forms(d) if form[1] >= 0]
    with mpmath.workprec(2 * W):
        assert [tau for tau, _ in points] == [
            tuple(int(mpmath.floor(mpmath.ldexp(x, W)))
                  for x in (t.real, t.imag))
            for t in (heegner_point(form, d) for form in forms)]


def reference_polynomial(value, d, prec):
    """prod (X - v) over every class value v of d, both of a conjugate
    orbit, expanded over mpc at prec + GUARD_BITS and rounded: an oracle for
    integer_polynomial that shares none of its arithmetic."""
    with mpmath.workprec(prec + GUARD_BITS):
        poly = [mpmath.mpc(1)]
        for v, weight in cm_values(value, d, prec):
            v = number(v, prec + GUARD_BITS)
            for u in (v, mpmath.conj(v))[:weight]:
                poly = [a - u * b for a, b in zip(poly + [0], [0] + poly)]
        ints = tuple(int(mpmath.nint(c.real)) for c in poly)
        assert all(abs(c - n) < mpmath.ldexp(1, -TOL_BITS)
                   for c, n in zip(poly, ints)), d
    return ints


def test_class_polynomials_round_at_their_own_precision():
    # every fundamental |d| <= 300: H_d expanded on ints at auto_prec(d) +
    # GUARD_BITS is class_polynomial(d), and equals the polynomial expanded
    # over mpc at the precision of a pair of d with a class number 3
    # discriminant, above it; so does W_d at the omega2 bounds, for
    # d = 1 mod 8
    discs = [d for d in range(-3, -301, -1) if is_fundamental_discriminant(d)]
    checked = 0
    for d in discs:
        partner = -31 if d == -23 else -23
        for value in [j_value] + [omega2_value] * (d % 8 == 1):
            prec = auto_prec(d, value=value)
            pair = auto_prec(d, partner, value=value)
            got = integer_polynomial(cm_values(value, d, prec),
                                     prec + GUARD_BITS)
            assert pair > prec and got == reference_polynomial(value, d,
                                                               pair), d
            if value is j_value:
                assert list(got) == class_polynomial(d), d
            checked += 1
    assert (len(discs), checked) == (94, 94 + 32)


def test_kernel_at_every_cm_point_of_small_discriminants():
    # every reduced form of every fundamental |d| <= 200, at auto_prec(d)
    # and at 4 times it: j within 2^(H - prec - 6) (H = form_height) of
    # 1728 kleinj at prec + 200 bits, the bound auto_prec takes per value;
    # and for d = 1 mod 8, omega2 at the odd-norm point of each class (odd a,
    # even a with odd c, both even), which has the same j, within the same
    # bound through j = (w + 16)^3 / w
    discs = [d for d in range(-3, -201, -1) if is_fundamental_discriminant(d)]
    cases = set()
    for d in discs:
        values = (j_value, omega2_value) if d % 8 == 1 else (j_value,)
        for value in values:
            base = auto_prec(d, value=value)
            for prec in (base, 4 * base):
                W = prec + GUARD_BITS
                for form in reduced_forms(d):
                    a, b, c = form
                    with mpmath.workprec(prec + 200):
                        tau = (b + mpmath.sqrt(d)) / (2 * a)
                        want = 1728 * mpmath.kleinj(tau)
                        v = number(value(form, pair(tau, prec), prec), W)
                        got = v if value is j_value else (v + 16) ** 3 / v
                        bound = mpmath.ldexp(1, -(prec + 6)) * \
                            mpmath.mpf(2) ** form_height(j_value, d, a)
                        assert abs(got - want) < bound, (d, form, prec)
                    cases.add((value, a % 2, c % 2))
    assert len(discs) == 62
    # at d = 1 mod 8, b is odd and 8 | 4ac, so a or c is even
    assert cases == {(j_value, 1, 1), (j_value, 1, 0), (j_value, 0, 1),
                     (j_value, 0, 0), (omega2_value, 1, 0),
                     (omega2_value, 0, 1), (omega2_value, 0, 0)}


def test_omega2_value_keeps_its_bound_at_large_heights():
    # every form of even a of d = -9007, where H reaches 111 at a = 2:
    # 2^12 / omega2 at tau/2 or (tau + 1)/2 takes omega2 at ceil(H) - 64
    # more bits than the value's own scale (omega2_value), and stays within
    # 2^(H - prec - 6) of 2^12 / (4096 q prod (1 + q^n)^24) in mpmath
    d, prec = -9007, 100
    checked = 0
    for a, b, c in reduced_forms(d):
        if a % 2:
            continue
        with mpmath.workprec(prec + 400):
            tau = heegner_point((a, b, c), d)
            got = omega2_value((a, b, c), pair(tau, prec), prec)
            half = tau / 2 if c % 2 else (tau + 1) / 2
            q = mpmath.expjpi(2 * half)
            terms = int((prec + 400) / (9 * half.imag)) + 2
            want = 1 / (q * mpmath.fprod((1 + q ** n) ** 24
                                         for n in range(1, terms)))
            bound = mpmath.ldexp(1, -(prec + 6)) * \
                mpmath.mpf(2) ** form_height(omega2_value, d, a)
            assert abs(number(got, prec + GUARD_BITS) - want) < bound, a
        checked += 1
    assert checked == 22


@pytest.mark.parametrize("value,d1,d2", [(j_value, -47, -79),
                                         (omega2_value, -71, -119)])
def test_pair_norm_needs_no_mpmath_number(monkeypatch, value, d1, d2):
    # the analytic side of a pair on a cold table, CM points, values, class
    # polynomials, N and the pair product, runs on ints: no mpmath sqrt,
    # expjpi or working precision
    want = pair_norm(value, d1, d2)
    numeric._table.clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("an mpmath number in the analytic side")

    for name in ("expjpi", "sqrt", "workprec"):
        monkeypatch.setattr(mpmath, name, forbidden)
    assert pair_norm(value, d1, d2) == want
