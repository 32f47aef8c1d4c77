"""Arithmetic sides of both factorization formulas, local Whittaker tables,
and the divisor-sum identity behind them."""

import random
from fractions import Fraction

import pytest

from cmfactor.arithside import (check_gz_hypotheses, check_yz_hypotheses,
                                whittaker2_Ma,
                                whittaker2_shifted, t_range, gz_rhs, yz_rhs,
                                yz_rhs_whittaker, p_t_of, chi_log_identity)
from cmfactor.quadarith import RealQuadElem, factor_principal_ideal

YZ_PAIRS = [(-7, -15), (-7, -23), (-15, -23), (-7, -31), (-15, -31),
            (-23, -31)]


def test_hypothesis_checks():
    check_gz_hypotheses(-3, -163)
    with pytest.raises(ValueError):
        check_gz_hypotheses(-3, -12)       # not fundamental
    with pytest.raises(ValueError):
        check_gz_hypotheses(-3, -15)       # common factor 3
    with pytest.raises(ValueError):
        check_gz_hypotheses(5, -7)         # positive
    check_yz_hypotheses(-7, -15)
    with pytest.raises(ValueError):
        check_yz_hypotheses(-3, -7)        # -3 is not 1 mod 8
    with pytest.raises(ValueError):
        check_yz_hypotheses(-7, -7)        # not distinct


def test_whittaker2_parity0_table():
    # at s=0 (x=1): value is (o-1)/2 for o >= 1, and 1/2 at o = 0
    assert whittaker2_Ma(0, 0, 0) == Fraction(1, 2)
    assert whittaker2_Ma(0, 1, 0) == 0
    assert whittaker2_Ma(0, 2, 0) == Fraction(1, 2)
    assert whittaker2_Ma(0, 3, 0) == 1
    for o in range(1, 8):
        assert whittaker2_Ma(0, o, 0) == Fraction(o - 1, 2)
    assert whittaker2_Ma(0, -1, 0) == 0


def test_whittaker2_parity1_table():
    assert whittaker2_Ma(1, 0, 0) == 0
    for o in range(1, 6):
        assert whittaker2_Ma(1, o, 0) == 1
    # generic s: (1 -+ 2^-s)/2
    assert whittaker2_Ma(1, 0, 1) == Fraction(1, 4)
    assert whittaker2_Ma(1, 2, 1) == Fraction(3, 4)


def test_whittaker2_geometric_sum_closed_form():
    # a = 0, generic s: 1/2 - x + (1 - x/2) (x + ... + x^o)
    for s in (1, 2, 3):
        x = Fraction(1, 2 ** s)
        for o in range(0, 6):
            want = (Fraction(1, 2) if o == 0 else
                    Fraction(1, 2) - x +
                    (1 - x / 2) * sum(x ** n for n in range(1, o + 1)))
            assert whittaker2_Ma(0, o, s) == want


def test_whittaker2_requires_integer_s():
    with pytest.raises(ValueError):
        whittaker2_Ma(0, 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        whittaker2_Ma(2, 0, 0)


def test_whittaker2_shifted():
    assert whittaker2_shifted(0, Fraction(1, 4)) == Fraction(1, 2)
    assert whittaker2_shifted(0, Fraction(5, 4)) == Fraction(1, 2)
    assert whittaker2_shifted(0, Fraction(3, 4)) == 0
    assert whittaker2_shifted(1, Fraction(3, 4)) == Fraction(1, 2)
    assert whittaker2_shifted(1, Fraction(1, 4)) == 0
    assert whittaker2_shifted(1, Fraction(1, 8)) == 0


def test_t_range():
    ts = t_range(-3, -7)   # D = 21, sqrt(21) = 4.58..., m odd
    assert [t.m for t in ts] == [-3, -1, 1, 3]
    assert all(abs(t.m) ** 2 < 21 for t in ts)
    ts = t_range(-4, -7)   # D = 28, m even, |m| <= 5
    assert [t.m for t in ts] == [-4, -2, 0, 2, 4]


def test_p_t_of():
    def pt(m):
        return p_t_of(factor_principal_ideal(RealQuadElem(m, 105), -7, -15))

    # D = 105: odd m with m^2 = 105 mod 16 means m = +-3, +-5 mod 8
    for m in (-5, -3, 3, 5):
        P, e = pt(m)
        assert P.p == 2 and P.kind == "split" and e >= 1
    # opposite-sign m picks the conjugate branch
    assert pt(3)[0].branch == -pt(-3)[0].branch


def test_gz_rhs_anchor_163_3():
    rhs = gz_rhs(-3, -163)
    # |j - 0|^(8/12): exponents are (2/3) * ord of the j-difference
    want = {2: Fraction(12), 3: Fraction(2), 5: Fraction(2),
            23: Fraction(2), 29: Fraction(2)}
    assert rhs.exponents() == want


def test_gz_rhs_anchor_163_4():
    rhs = gz_rhs(-4, -163)
    want = {2: 6, 3: 6, 7: 2, 11: 2, 19: 2, 127: 2, 163: 1}
    assert rhs.exponents() == {p: Fraction(e) for p, e in want.items()}


def test_gz_rhs_prime_bound():
    for d1, d2 in [(-3, -163), (-4, -163), (-7, -19), (-8, -23)]:
        rhs = gz_rhs(d1, d2)
        assert rhs.max_prime() <= max(d1 * d2 // 4, 3)


def test_yz_rhs_anchor():
    rhs = yz_rhs(-7, -15)
    assert rhs.exponents() == {3: Fraction(4), 5: Fraction(2)}


# the last two pairs put 48/94 and 84/170 t through the level-2 sieve
@pytest.mark.parametrize("d1,d2", YZ_PAIRS + [(-71, -127), (-151, -191)])
def test_yz_rhs_routes_agree(d1, d2):
    assert yz_rhs(d1, d2) == yz_rhs_whittaker(d1, d2)


@pytest.mark.parametrize("d1,d2", YZ_PAIRS)
def test_yz_rhs_prime_bound(d1, d2):
    rhs = yz_rhs(d1, d2)
    if rhs.exponents():
        assert rhs.max_prime() <= d1 * d2 // 16


def test_yz_rhs_exponents_are_even_integers():
    for d1, d2 in YZ_PAIRS:
        for p, e in yz_rhs(d1, d2).exponents().items():
            assert e.denominator == 1 and e.numerator % 2 == 0, (d1, d2, p)


def test_chi_log_identity_random():
    # the identity requires the full character sum over divisors to vanish,
    # i.e. at least one prime inert in E/F dividing t O_F to odd order
    from cmfactor.quadarith import splitting_in_E_over_F
    random.seed(23)
    pairs = [(-3, -163), (-7, -15), (-4, -43), (-8, -23), (-7, -23)]
    done = 0
    while done < 200:
        d1, d2 = random.choice(pairs)
        D = d1 * d2
        m = random.randrange(-60, 61)
        if (m - D) % 2:
            continue
        t = RealQuadElem(m, D)
        if t.norm() == 0:
            continue
        fact = factor_principal_ideal(t, d1, d2)
        if not any(e % 2 == 1 and splitting_in_E_over_F(P, d1, d2) == "inert"
                   for P, e in fact.items()):
            continue
        lhs, rhs = chi_log_identity(t, d1, d2)
        assert lhs == rhs, (d1, d2, m)
        done += 1
