"""Arithmetic sides of both factorization formulas, local Whittaker tables,
and the divisor-sum identity behind them."""

import random
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest

from cmfactor.arithside import (check_gz_hypotheses, check_yz_hypotheses,
                                whittaker2_Ma,
                                whittaker2_shifted, t_range, gz_rhs, yz_rhs,
                                yz_rhs_whittaker, chi_log_identity)
from cmfactor.quadarith import (PrimeLog, SIEVE_FROM, EFCharacter,
                                diff_set, factor_norms,
                                factor_principal_ideal, rho, valuation,
                                is_fundamental_discriminant)
from test_quadarith import (COPRIME_PAIRS, frobenius_splitting_oracle,
                            ramified_splitting_oracle)

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
        check_yz_hypotheses(-7, -7)        # not coprime


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
        for o in range(0, 61):
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
    # one m of each conjugate pair t_m, t_-m: the m >= 0
    assert list(t_range(-3, -7)) == [1, 3]   # D = 21, m odd
    assert list(t_range(-4, -7)) == [0, 2, 4]   # D = 28, m even
    # every coprime pair with |d| < 200 against the brute-force filter;
    # D < 200^2, so every m with m^2 < D has |m| < 200
    for d1, d2 in COPRIME_PAIRS:
        D = d1 * d2
        want = [m for m in range(0, 201) if m * m < D and (m - D) % 2 == 0]
        assert list(t_range(d1, d2)) == want, (d1, d2)


def p_t_of(fact):
    """The unique prime P_t of F above 2 at which t has positive valuation,
    together with that valuation, read from the factorization of t O_F, for
    the per-t reference sum.  Needs d1 = d2 = 1 mod 8 (2 splits in F) and
    2 | N(t)."""
    above2 = [(P, e) for P, e in fact.items() if P.p == 2 and e > 0]
    if len(above2) != 1:
        raise ArithmeticError("expected exactly one prime above 2 dividing t")
    return above2[0]


def test_p_t_of():
    def pt(m):
        return p_t_of(factor_principal_ideal(m, -7, -15))

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
    random.seed(23)
    pairs = [(-3, -163), (-7, -15), (-4, -43), (-8, -23), (-7, -23)]
    done = 0
    while done < 200:
        d1, d2 = random.choice(pairs)
        D = d1 * d2
        m = random.randrange(-60, 61)
        if (m - D) % 2:
            continue
        if m * m == D:
            continue
        fact = factor_principal_ideal(m, d1, d2)
        if not any(e % 2 == 1 and not EFCharacter(d1, d2)[P.p]
                   for P, e in fact.items()):
            continue
        lhs, rhs = chi_log_identity(m, d1, d2)
        assert lhs == rhs, (d1, d2, m)
        done += 1


def per_t_reference_sum(d1, d2, level2):
    """The double sum one t at a time, through the public
    factor_principal_ideal and the E/F character of the splitting oracles
    of test_quadarith (not the package's table), over every
    t = (m + sqrt(D))/2 of both signs of m, by brute force (not the
    package's t_range): over the t whose Diff is one prime P, at odd order
    e, the term (1 + e)/2 rho(t P^-1) f(P) log p; the level-2 sum keeps the
    t with m^2 = D mod 16 and also divides by P_t^2.  rho counts e + 1
    ideals at a split prime, and one or none at an inert one as e is even
    or odd."""
    D = d1 * d2
    split = {}       # p -> the oracle's character, each p asked once

    def splits(p):
        if p not in split:
            oracle = (ramified_splitting_oracle if D % p == 0
                      else frobenius_splitting_oracle)
            split[p] = oracle(p, d1, d2) == "split"
        return split[p]

    total = PrimeLog()
    for m in range(-isqrt(D), isqrt(D) + 1):
        if m * m >= D or (m - D) % 2:
            continue
        if level2 and (m * m - D) % 16:
            continue
        fact = factor_principal_ideal(m, d1, d2)
        diff = [P for P, e in fact.items() if e % 2 and not splits(P.p)]
        if len(diff) != 1:
            continue
        (P,) = diff
        red = dict(fact)
        red[P] -= 1
        if level2:
            red[p_t_of(red)[0]] -= 2
        r = 0 if min(red.values()) < 0 else prod(
            e + 1 if splits(Q.p) else 1 - e % 2 for Q, e in red.items())
        f = 2 if P.kind == "inert" else 1      # N(P) = p^f
        total.add(P.p, Fraction(1 + fact[P], 2) * r * f)
    return total


SMALL_NEG_FUND = [d for d in range(-3, -120, -1)
                  if is_fundamental_discriminant(d)]
# D near 1e5: 2 inert, ramified and split in F; the last is also a yz pair
WALK_PAIRS = [(d1, d2) for i, d1 in enumerate(SMALL_NEG_FUND)
              for d2 in SMALL_NEG_FUND[i + 1:] if gcd(d1, d2) == 1] + \
    [(-7, -14291), (-8, -12503), (-7, -14295)]


def sigma(P):
    """The conjugate of a prime P of F: a split branch swapped."""
    return P._replace(branch=-P.branch)


def test_t_minus_m_is_the_conjugate_of_t_m():
    # t_-m = -sigma(t_m), the lemma behind the fold of t_range: the two t
    # have conjugate factorizations, and the same Diff, rho(t P^-1) and P_t
    twos = set()
    for d1, d2 in WALK_PAIRS:
        D = d1 * d2
        twos.add(D % 8 if D % 2 else 0)
        chi = EFCharacter(d1, d2)
        for m in t_range(d1, d2):
            fact = factor_principal_ideal(m, d1, d2)
            conj = factor_principal_ideal(-m, d1, d2)
            assert conj == {sigma(P): e for P, e in fact.items()}, (d1, d2, m)
            assert sorted(diff_set(conj, chi)) == sorted(
                map(sigma, diff_set(fact, chi))), (d1, d2, m)
            for P, e in fact.items():
                assert rho({**fact, P: e - 1}, chi) == \
                    rho({**conj, sigma(P): e - 1}, chi), (d1, d2, m, P)
            if d1 % 8 == d2 % 8 == 1 and (m * m - D) % 16 == 0:
                P, v = p_t_of(fact)
                assert p_t_of(conj) == (sigma(P), v), (d1, d2, m)
    assert twos == {0, 1, 5}     # 2 ramified, split and inert in F


def test_t_O_F_factors_as_the_integer_norm():
    # the lemma of quadarith behind the sums' walk on {p: e}: t O_F has at
    # most one prime above each p, at order v_p(N(t)), so factor_norms of
    # the whole t-range (sieved or trial-divided) gives the same {p: e},
    # and rho and the Diff read the same from it
    twos = set()
    for d1, d2 in WALK_PAIRS:
        D = d1 * d2
        twos.add(D % 8 if D % 2 else 0)
        chi = EFCharacter(d1, d2)
        ms = t_range(d1, d2)
        norms = factor_norms(ms, chi)
        assert list(norms) == list(ms)
        for m in ms:
            fact = factor_principal_ideal(m, d1, d2)
            by_p = {P.p: e for P, e in fact.items()}
            assert len(by_p) == len(fact), (d1, d2, m)
            assert all(e == valuation((D - m * m) // 4, P.p)
                       for P, e in fact.items()), (d1, d2, m)
            assert norms[m] == by_p, (d1, d2, m)
            assert rho(by_p, chi) == rho(fact, chi), (d1, d2, m)
            assert diff_set(by_p, chi) == [P.p for P in diff_set(fact, chi)]
    assert twos == {0, 1, 5}     # 2 ramified, split and inert in F


def test_sums_equal_per_t_reference():
    seen = set()
    for d1, d2 in WALK_PAIRS:
        D = d1 * d2
        assert gz_rhs(d1, d2) == per_t_reference_sum(d1, d2, False), (d1, d2)
        two = "ramified" if D % 2 == 0 else "split" if D % 8 == 1 else "inert"
        seen.add((two, len(t_range(d1, d2)) >= SIEVE_FROM))
        if d1 % 8 == d2 % 8 == 1:
            want = per_t_reference_sum(d1, d2, True)
            assert yz_rhs(d1, d2) == want == yz_rhs_whittaker(d1, d2), (d1, d2)
            seen.add(("yz", sum((m * m - D) % 16 == 0
                                for m in t_range(d1, d2)) >= SIEVE_FROM))
    # every behaviour of 2 in F, and the yz sums, trial-divided and sieved
    assert len(seen) == 8
