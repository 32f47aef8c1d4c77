"""Binary quadratic forms: reduction, class numbers and CM points."""

import random

import mpmath
import pytest

from cmfactor.classgroup import units_w, reduced_forms


def heegner_point(form, d):
    """CM point (b + sqrt(d))/(2a) of the form (a, b, c), as an mpc at the
    current working precision: the reference for the fixed-point CM points
    of numeric.cm_values."""
    a, b, c = form
    if b * b - 4 * a * c != d:
        raise ValueError("form has wrong discriminant")
    return (b + mpmath.sqrt(d)) / (2 * a)


@pytest.mark.parametrize("d,h", [(-3, 1), (-4, 1), (-7, 1), (-8, 1),
                                 (-15, 2), (-20, 2), (-23, 3), (-24, 2),
                                 (-47, 5), (-71, 7), (-163, 1)])
def test_class_numbers(d, h):
    assert len(reduced_forms(d)) == h


def test_units():
    assert units_w(-3) == 6
    assert units_w(-4) == 4
    assert units_w(-7) == 2
    with pytest.raises(ValueError):
        units_w(5)


def test_reduced_forms_shape():
    for d in (-15, -23, -47, -56):
        for a, b, c in reduced_forms(d):
            assert b * b - 4 * a * c == d
            assert abs(b) <= a <= c
            if abs(b) == a or a == c:
                assert b >= 0


def reduce_form_oracle(form):
    """Classical reduction by alternating normalization and inversion."""
    a, b, c = form
    for _ in range(200):
        if a > c:
            a, b, c = c, -b, a
            continue
        if b <= -a or b > a:
            shift = (a - b) // (2 * a)
            b2 = b + 2 * a * shift
            a, b, c = a, b2, (b2 * b2 - (b * b - 4 * a * c)) // (4 * a)
            continue
        break
    if (abs(b) == a or a == c) and b < 0:
        b = -b
    return (a, b, c)


def test_random_forms_reduce_into_the_list():
    random.seed(5)
    for d in (-23, -47, -71):
        reps = set(reduced_forms(d))
        for _ in range(40):
            a = random.randint(1, 50)
            b = random.randint(-50, 50)
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            from math import gcd
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            assert reduce_form_oracle((a, b, c)) in reps


def test_heegner_point_is_root_of_the_form():
    # (b + sqrt(d))/(2a) satisfies a x^2 - b x + c = 0; the sign convention
    # swaps each class with its inverse, leaving the set of CM values fixed.
    with mpmath.workprec(128):
        for d in (-15, -23):
            for a, b, c in reduced_forms(d):
                tau = heegner_point((a, b, c), d)
                assert tau.imag > 0
                res = a * tau ** 2 - b * tau + c
                assert abs(res) < mpmath.mpf(2) ** -100


def test_heegner_point_rejects_wrong_discriminant():
    with pytest.raises(ValueError):
        heegner_point((1, 0, 1), -3)

