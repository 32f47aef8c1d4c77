"""Binary quadratic forms: reduction, class numbers, CM points, and
odd-norm class representatives."""

import random

import mpmath
import pytest

from cmfactor.classgroup import (units_w, reduced_forms, class_number,
                                 heegner_point, form_action,
                                 odd_norm_representative)
from cmfactor.quadarith import is_fundamental_discriminant


@pytest.mark.parametrize("d,h", [(-3, 1), (-4, 1), (-7, 1), (-8, 1),
                                 (-15, 2), (-20, 2), (-23, 3), (-24, 2),
                                 (-47, 5), (-71, 7), (-163, 1)])
def test_class_numbers(d, h):
    assert class_number(d) == h


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


def test_form_action_is_a_right_action_preserving_discriminant():
    random.seed(8)
    form = (3, 1, 4)  # disc -47
    for _ in range(30):
        # random SL2 word
        g = (1, 0, 0, 1)
        for _ in range(6):
            h = random.choice([(1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0)])
            g = (g[0] * h[0] + g[1] * h[2], g[0] * h[1] + g[1] * h[3],
                 g[2] * h[0] + g[3] * h[2], g[2] * h[1] + g[3] * h[3])
        a, b, c = form_action(form, g)
        assert b * b - 4 * a * c == -47
    with pytest.raises(ValueError):
        form_action(form, (1, 1, 1, 1))


def test_odd_norm_representative_properties():
    for d in (-15, -23, -55):
        assert d % 8 == 1  # Python's mod is nonnegative for negative d
        for form in reduced_forms(d):
            rep, g = odd_norm_representative(form, d)
            assert rep[0] % 2 == 1
            assert rep[1] ** 2 - 4 * rep[0] * rep[2] == d
            assert form_action(form, g) == rep
            assert g[0] * g[3] - g[1] * g[2] == 1


def test_odd_norm_representative_closed_form():
    # the certificate is I, S, or (1, -1; 1, 0) or (1, 1; -1, 0) by the sign
    # of b: at most two generators reach an odd first coefficient, because b
    # is odd
    allowed = {(1, 0, 0, 1), (0, -1, 1, 0), (1, -1, 1, 0), (1, 1, -1, 0)}
    discs = [d for d in range(-399, 0)
             if d % 8 == 1 and is_fundamental_discriminant(d)]
    assert len(discs) > 20
    for d in discs:
        for form in reduced_forms(d):
            rep, g = odd_norm_representative(form, d)
            assert g in allowed
            assert form_action(form, g) == rep and rep[0] % 2 == 1


def test_odd_norm_representative_commutes_with_conjugation():
    # the representative of (a, -b, c) is the conjugate form of that of
    # (a, b, c), so the CM values at the representatives of a class and its
    # inverse are complex conjugates
    pairs = 0
    for d in range(-399, 0):
        if d % 8 != 1 or not is_fundamental_discriminant(d):
            continue
        forms = set(reduced_forms(d))
        for a, b, c in forms:
            if b <= 0 or (a, -b, c) not in forms:
                continue
            (ra, rb, rc), _ = odd_norm_representative((a, b, c), d)
            assert odd_norm_representative((a, -b, c), d)[0] == (ra, -rb, rc)
            pairs += 1
    assert pairs > 100


def test_odd_norm_representative_identity_when_already_odd():
    rep, g = odd_norm_representative((1, 1, 4), -15)
    assert rep == (1, 1, 4) and g == (1, 0, 0, 1)


def test_odd_norm_representative_domain():
    with pytest.raises(ValueError):
        odd_norm_representative((1, 0, 1), -4)
