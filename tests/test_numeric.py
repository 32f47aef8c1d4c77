"""Arbitrary-precision evaluators against classical CM values."""

import mpmath
import pytest

from cmfactor.numeric import (eval_j, eval_omega2, recognize_integer,
                              class_polynomial, auto_prec)


def test_j_at_i_is_1728():
    v = eval_j(mpmath.mpc(0, 1), 192)
    assert abs(v - 1728) < mpmath.mpf(2) ** -150


def test_j_at_omega_is_zero():
    tau = mpmath.mpc(-0.5, mpmath.sqrt(3) / 2)
    assert abs(eval_j(tau, 192)) < mpmath.mpf(2) ** -140


@pytest.mark.parametrize("d,value", [
    (-163, -262537412640768000),
    (-67, -147197952000),
    (-43, -884736000),
])
def test_j_at_class_number_one_points(d, value):
    with mpmath.workprec(320):
        tau = (1 + mpmath.mpc(0, mpmath.sqrt(-d))) / 2
        rec = recognize_integer(eval_j(tau, 256))
    assert rec is not None and rec[0] == value


def test_modular_invariance_of_j():
    with mpmath.workprec(192):
        tau = mpmath.mpc(mpmath.mpf("0.37"), mpmath.mpf("1.21"))
        a = eval_j(tau, 128)
        assert abs(a - eval_j(tau + 1, 128)) < mpmath.mpf(2) ** -100
        assert abs(a - eval_j(-1 / tau, 128)) < mpmath.mpf(2) ** -100


def test_omega2_level2_invariance():
    with mpmath.workprec(192):
        tau = mpmath.mpc(mpmath.mpf("0.21"), mpmath.mpf("1.4"))
        a = eval_omega2(tau, 128)
        assert abs(a - eval_omega2(tau + 1, 128)) < mpmath.mpf(2) ** -95
        # gamma = (1 0; 2 1) in Gamma_0(2)
        assert abs(a - eval_omega2(tau / (2 * tau + 1), 128)) < mpmath.mpf(2) ** -90


def test_level2_modular_equation():
    # j(2 tau) = (omega2(tau) + 256)^3 / omega2(tau)^2; the two sides use the
    # eta values at (tau, 2 tau) and at (2 tau, 4 tau)
    with mpmath.workprec(264):
        tau = mpmath.mpc(mpmath.mpf("0.11"), mpmath.mpf("0.93"))
        w = eval_omega2(tau, 200)
        want = (w + 256) ** 3 / w ** 2
        got = eval_j(2 * tau, 200)
        assert abs(got - want) < mpmath.mpf(2) ** -190 * abs(want)


def test_omega2_far_in_the_cusp():
    tau = mpmath.mpc(0, 10)
    with mpmath.workprec(256):
        q = mpmath.exp(-20 * mpmath.pi)
        want = 4096 * q * (1 + 24 * q + 276 * q ** 2)
        got = eval_omega2(tau, 200)
        assert abs(got - want) < abs(want) * mpmath.mpf(2) ** -150


def test_precision_monotonicity():
    tau = mpmath.mpc(0.3, 0.8)
    lo = eval_j(tau, 128)
    hi = eval_j(tau, 320)
    assert abs(lo - hi) < abs(hi) * mpmath.mpf(2) ** -120


def test_recognize_integer():
    assert recognize_integer(mpmath.mpf(5) + mpmath.mpf(2) ** -40) == \
        (5, mpmath.mpf(2) ** -40)
    assert recognize_integer(mpmath.mpf(5.2)) is None


def test_class_polynomials():
    assert class_polynomial(-3) == [1, 0]
    assert class_polynomial(-4) == [1, -1728]
    assert class_polynomial(-15) == [1, 191025, -121287375]
    assert class_polynomial(-23) == [1, 3491750, -5151296875, 12771880859375]


@pytest.mark.parametrize("d", [-15, -23, -71, -311])
def test_auto_prec_covers_the_class_polynomial(d):
    # the bound of one discriminant is on the coefficients of its class
    # polynomial; -311 (h = 19) gets 543 bits for a 397-bit coefficient
    coeffs = class_polynomial(d)
    assert auto_prec(d) >= max(abs(c) for c in coeffs).bit_length()
