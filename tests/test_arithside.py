"""Arithmetic sides of both factorization formulas, local Whittaker tables,
and the divisor-sum identity behind them."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest

from cmfactor import arithside
from cmfactor.arithside import (check_gz_hypotheses, check_yz_hypotheses,
                                whittaker2_Ma,
                                whittaker2_shifted, t_range, gz_rhs, yz_rhs,
                                yz_rhs_whittaker, chi_log_identity)
from cmfactor.quadarith import (PrimeLog, EFCharacter,
                                diff_set, factor_norms,
                                factor_principal_ideal, legendre, rho,
                                valuation, is_fundamental_discriminant)
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
        assert max(rhs.terms) <= max(d1 * d2 // 4, 3)


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
        assert max(rhs.terms) <= d1 * d2 // 16


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
    # most one prime above each p, at order v_p(N(t)), so the sieve of
    # factor_norms over the whole t-range gives the {p: e} of each t's own
    # trial division, and rho and the Diff read the same from it
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
        seen.add((two, len(t_range(d1, d2)) >= 8))
        if d1 % 8 == d2 % 8 == 1:
            want = per_t_reference_sum(d1, d2, True)
            assert yz_rhs(d1, d2) == want == yz_rhs_whittaker(d1, d2), (d1, d2)
            seen.add(("yz", sum((m * m - D) % 16 == 0
                                for m in t_range(d1, d2)) >= 8))
    # every behaviour of 2 in F, and the yz sums, on t-ranges of fewer
    # than 8 m and of 8 or more
    assert len(seen) == 8


# The one-pass walk of the sums against a two-pass reference: diff_set,
# then a copy of {p: e} with P at e - 1, whose rho (with P_t at e2 - 2 at
# level 2) each sum takes.  The ranges are those of an elementary oracle
# over the same {p: e}.
def fund_upto(dmax, yz):
    return [d for d in range(-3, -dmax - 1, -1)
            if is_fundamental_discriminant(d) and (not yz or d % 8 == 1)]


def coprime_pairs(ds):
    return [(d1, d2) for i, d1 in enumerate(ds) for d2 in ds[i + 1:]
            if gcd(d1, d2) == 1]


GZ_WALK_PAIRS = coprime_pairs(fund_upto(120, False))
YZ_WALK_PAIRS = coprime_pairs(fund_upto(399, True))


def level2_keep(d1, d2):
    return lambda m: (m * m - d1 * d2) % 16 == 0


def reference_walk(chi, keep=None):
    """(red, p, w) for each t whose Diff is one prime, from diff_set and a
    copy of its {p: e} with p at e - 1, in m order."""
    ms = [m for m in t_range(chi.d1, chi.d2) if keep is None or keep(m)]
    out = []
    for m, fact in factor_norms(ms, chi).items():
        diff = diff_set(fact, chi)
        if len(diff) == 1:
            (p,) = diff
            w = Fraction(1 + fact[p], 2) * (2 if m else 1)
            out.append(({**fact, p: fact[p] - 1}, p, w))
    return out


def reference_terms(d1, d2, kind):
    """The (p, term) each t adds to the sum of kind, by the reference walk:
    gz w rho(t P^-1); yz w rho(t P^-1 P_t^-2); whittaker w rho(t P^-1 away
    from 2) 4 W(o) W(0), o = v_2(N(t)); zero terms are not added."""
    chi = EFCharacter(d1, d2)
    keep = level2_keep(d1, d2) if kind == "yz_rhs" else None
    w2 = {}          # o -> 4 W(o) W(0)
    out = []
    for red, p, w in reference_walk(chi, keep):
        if kind == "gz_rhs":
            term = w * rho(red, chi)
        elif kind == "yz_rhs":
            term = w * rho({**red, 2: red[2] - 2}, chi)
        else:
            o = red.pop(2, 0)
            if o not in w2:
                w2[o] = 4 * whittaker2_Ma(0, o, 0) * whittaker2_Ma(0, 0, 0)
            term = w * rho(red, chi) * w2[o]
        if term:
            out.append((p, term))
    return out


def recorded_terms(monkeypatch, kind, d1, d2):
    """The (p, term) of every add the sum of kind makes, in order."""
    terms = []

    class Recorder(PrimeLog):
        def add(self, p, e):
            terms.append((p, e))
            super().add(p, e)

    with monkeypatch.context() as mp:
        mp.setattr(arithside, "PrimeLog", Recorder)
        getattr(arithside, kind)(d1, d2)
    return terms


def test_the_walk_matches_diff_set_at_every_t():
    twos, level2_t = set(), 0
    for d1, d2 in GZ_WALK_PAIRS + YZ_WALK_PAIRS:
        chi = EFCharacter(d1, d2)
        D = d1 * d2
        twos.add(D % 8 if D % 2 else 0)
        assert list(arithside._odd_diff_terms(chi)) == reference_walk(
            EFCharacter(d1, d2)), (d1, d2)
        if d1 % 8 == d2 % 8 == 1:
            got = list(arithside._odd_diff_terms(chi, level2=True))
            assert got == reference_walk(chi, level2_keep(d1, d2)), (d1, d2)
            level2_t += len(got)
    assert twos == {0, 1, 5} and level2_t > 10000


@pytest.mark.parametrize("kind,pairs", [("gz_rhs", GZ_WALK_PAIRS),
                                        ("yz_rhs", YZ_WALK_PAIRS),
                                        ("yz_rhs_whittaker", YZ_WALK_PAIRS)])
def test_each_t_adds_the_reference_term(monkeypatch, kind, pairs):
    for d1, d2 in pairs:
        assert recorded_terms(monkeypatch, kind, d1, d2) == \
            reference_terms(d1, d2, kind), (kind, d1, d2)


# a mutant of each level-2 sum: P_t^-2 dropped, or P_t kept in rho
@pytest.mark.parametrize("kind,name,old,new", [
    ("yz_rhs", "_cm_sum", "red[2] -= 2", "pass"),
    ("yz_rhs_whittaker", "yz_rhs_whittaker", "red.pop(2, 0)",
     "red.get(2, 0)")])
def test_a_sum_that_keeps_P_t_in_rho_is_caught(monkeypatch, mutate, kind,
                                               name, old, new):
    pairs = YZ_WALK_PAIRS[:40]
    mutate(f"arithside.{name}", old, new)
    caught = [q for q in pairs if recorded_terms(monkeypatch, kind, *q)
              != reference_terms(*q, kind)]
    assert len(caught) > 30


def test_a_walk_that_lets_three_diff_primes_through_is_caught(monkeypatch,
                                                              mutate):
    three = [(d1, d2) for d1, d2 in GZ_WALK_PAIRS
             if any(len(diff_set(f, EFCharacter(d1, d2))) == 3 for f in
                    factor_norms(t_range(d1, d2), EFCharacter(d1, d2))
                    .values())]
    assert len(three) > 50
    mutate("arithside._odd_diff_terms", "if n == 1:", "if n % 2:")
    for d1, d2 in three:
        assert list(arithside._odd_diff_terms(EFCharacter(d1, d2))) != \
            reference_walk(EFCharacter(d1, d2)), (d1, d2)
        assert recorded_terms(monkeypatch, "gz_rhs", d1, d2) != \
            reference_terms(d1, d2, "gz_rhs"), (d1, d2)


def recorded_calls(monkeypatch, kind, d1, d2):
    """The EFCharacter of the sum of kind, and the list of m of each of its
    factor_norms calls."""
    tables, lists = [], []

    class Recorder(EFCharacter):
        def __init__(self, d1, d2):
            super().__init__(d1, d2)
            tables.append(self)

    def factor(ms, chi):
        lists.append(list(ms))
        return factor_norms(lists[-1], chi)

    with monkeypatch.context() as mp:
        mp.setattr(arithside, "EFCharacter", Recorder)
        mp.setattr(arithside, "factor_norms", factor)
        getattr(arithside, kind)(d1, d2)
    (chi,) = tables
    return chi, lists


def test_every_character_a_sum_reads_is_that_of_its_prime(monkeypatch):
    # the one symbol of a cofactor prime q off D, (d1/q), is the character
    # only because (d1/q) = (d2/q) there; at a q | d1 it is 0 and the
    # character is (d2/q) = 1 or not
    ramified = 0
    for kind, pairs in (("gz_rhs", GZ_WALK_PAIRS), ("yz_rhs", YZ_WALK_PAIRS),
                        ("yz_rhs_whittaker", YZ_WALK_PAIRS)):
        for d1, d2 in pairs:
            chi, _ = recorded_calls(monkeypatch, kind, d1, d2)
            for p, split in chi.items():
                assert split == (legendre(d1, p) == 1
                                 or legendre(d2, p) == 1), (kind, d1, d2, p)
                ramified += d1 % p == 0 and legendre(d2, p) == 1
    assert ramified > 20


def test_the_whittaker_route_factors_the_m_of_yz_rhs(monkeypatch):
    # o = v_2(N(t)) = 1 iff m^2 != D mod 16, where 4 W(1) W(0) = 0
    for d1, d2 in YZ_WALK_PAIRS:
        (ms,) = recorded_calls(monkeypatch, "yz_rhs_whittaker", d1, d2)[1]
        assert ms == recorded_calls(monkeypatch, "yz_rhs", d1, d2)[1][0]
        assert ms == list(filter(level2_keep(d1, d2), t_range(d1, d2)))


# Sums at rhs-large scale (D in [1e6, 1e7]) pinned by the number of primes
# and the SHA-256 of json.dumps of the sorted [p, str(e)] exponents, as the
# two-pass walk through diff_set and rho gave them.
@pytest.mark.parametrize("kind,d1,d2,n,digest", [
    ("gz_rhs", -724, -8819, 462,
     "4ce87f879cdce50cd1222f697a67e33bc57de406479ec8e50e9332429ee21074"),
    ("yz_rhs", -679, -5639, 251,
     "c9694683f2a25db56dbfea8c3ed87ec1abba706c58ca363304c29e27ac690d0d"),
    ("yz_rhs_whittaker", -1335, -2863, 183,
     "247f70d5e0ce1eeb1c38e87bae8633d0d67c9d7ab1e038b30bbe0d67115de032")])
def test_rhs_large_scale_sums_are_pinned(kind, d1, d2, n, digest):
    assert 10 ** 6 <= d1 * d2 <= 10 ** 7
    ex = sorted(getattr(arithside, kind)(d1, d2).exponents().items())
    text = json.dumps([[p, str(e)] for p, e in ex])
    assert len(ex) == n
    assert hashlib.sha256(text.encode()).hexdigest() == digest
