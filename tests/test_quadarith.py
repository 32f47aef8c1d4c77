"""Quadratic field arithmetic: symbols, p-adic roots, ideal factorization,
splitting in the biquadratic extension, and the norm-counting function."""

import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from cmfactor import quadarith
from cmfactor.arithside import t_range
from cmfactor.quadarith import (legendre, valuation, factorize,
                                is_fundamental_discriminant, tonelli, PrimeOfF,
                                EFCharacter, factor_norms,
                                factor_principal_ideal,
                                factor_principal_ideals, SIEVE_FROM, rho,
                                diff_set, PrimeLog)

PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def primes_of_F_above(p, D):
    """The primes of F = Q(sqrt(D)) above the rational prime p, for
    reference_factor and the splitting tests."""
    chi = legendre(D, p)
    if chi == 1:
        return (PrimeOfF(p, "split", 1), PrimeOfF(p, "split", -1))
    if chi == -1:
        return (PrimeOfF(p, "inert"),)
    return (PrimeOfF(p, "ramified"),)


def test_legendre_against_squares_mod_p():
    # at p = 2 the symbol of an odd a is 1 iff a or -a is a square mod 8
    for p in (p for p in range(2, 200) if all(p % q for q in range(2, p))):
        modulus = 8 if p == 2 else p
        squares = {x * x % modulus for x in range(1, modulus) if x % p}
        if p == 2:
            squares |= {-x % 8 for x in squares}
        for a in range(-3 * p, 3 * p):
            want = 0 if a % p == 0 else 1 if a % modulus in squares else -1
            assert legendre(a, p) == want, (a, p)


def test_kronecker_at_two_mod_8_rule():
    # legendre(a, 2) is the Kronecker symbol (a/2)
    for a in range(-40, 40):
        if a % 2 == 0:
            assert legendre(a, 2) == 0
        elif a % 8 in (1, 7):
            assert legendre(a, 2) == 1
        else:
            assert legendre(a, 2) == -1


def test_fundamental_discriminants():
    assert [d for d in range(-24, 0) if is_fundamental_discriminant(d)] == \
        [-24, -23, -20, -19, -15, -11, -8, -7, -4, -3]


def test_fundamental_discriminants_against_brute_force():
    # d = 1 mod 4 squarefree, or d = 4m with m = 2, 3 mod 4 squarefree
    def squarefree(n):
        return all(n % (k * k) for k in range(2, isqrt(abs(n)) + 1))
    for d in range(-3000, 3001):
        if d == 0:
            continue
        want = d != 1 and (d % 4 == 1 and squarefree(d)
                           or d % 16 in (8, 12) and squarefree(d // 4))
        assert is_fundamental_discriminant(d) == want, d


def test_primes_of_F_above_kinds():
    D = 489  # = (-3)(-163), 489 = 1 mod 8
    (p1, p2) = primes_of_F_above(2, D)
    assert {p1.kind, p2.kind} == {"split"} and {p1.branch, p2.branch} == {1, -1}
    (q,) = primes_of_F_above(3, D)
    assert q.kind == "ramified"
    assert primes_of_F_above(7, D)[0].kind == ("split" if legendre(489, 7) == 1
                                               else "inert")


def frobenius_splitting_oracle(p, d1, d2):
    """Decomposition-subgroup computation in Gal(E/Q) = (Z/2)^2, valid for
    p not dividing d1 d2: the prime of F is split in E iff the residue
    degree over F, |<Frob> meet Gal(E/F)|, is 1."""
    frob = (legendre(d1, p), legendre(d2, p))
    dec = {(1, 1), frob}
    gal_EF = {(1, 1), (-1, -1)}
    return "split" if len(dec & gal_EF) == 1 else "inert"


def test_ef_character_against_frobenius_oracle():
    pairs = [(-3, -163), (-4, -163), (-7, -15), (-15, -23), (-7, -31),
             (-8, -31), (-11, -56)]
    for d1, d2 in pairs:
        chi = EFCharacter(d1, d2)
        for p in PRIMES + [61, 67, 71, 73]:
            if (d1 * d2) % p == 0:
                continue
            assert chi[p] == (frobenius_splitting_oracle(p, d1, d2)
                              == "split"), (d1, d2, p)


def ramified_splitting_oracle(p, d1, d2):
    """Brute force for the prime of F above p | d1 d2.  With p | d1, E is
    F(sqrt(d2)) and the prime splits iff d2 is a nonzero square mod p, or
    iff d2 = 1 mod 8 at p = 2 (then sqrt(d2) lies in Q_2); p | d2 is the
    same with the roles swapped."""
    other = d2 if d1 % p == 0 else d1
    if p == 2:
        square = other % 8 == 1
    else:
        square = other % p in {x * x % p for x in range(1, p)}
    return "split" if square else "inert"


def test_splitting_at_ramified_primes_against_brute_force():
    discs = [d for d in range(-3, -300, -1) if is_fundamental_discriminant(d)]
    seen = set()
    for d1 in discs:
        for d2 in discs:
            if gcd(d1, d2) != 1:
                continue
            for p in factorize(d1 * d2):
                (P,) = primes_of_F_above(p, d1 * d2)
                assert P.kind == "ramified"
                kind = "split" if EFCharacter(d1, d2)[p] else "inert"
                assert kind == ramified_splitting_oracle(p, d1, d2), \
                    (d1, d2, p)
                seen.add((p == 2, kind))
    # even d are in the sweep, and both outcomes occur at p = 2 and odd p
    assert len(seen) == 4


def test_splitting_at_ramified_primes_from_anchor_data():
    # (-4, -163): 2 ramifies in Q(i); kronecker(-163, 2) = -1 so inert in E/F
    (P2,) = primes_of_F_above(2, -4 * -163)
    assert P2.kind == "ramified"
    assert not EFCharacter(-4, -163)[2]
    # 163 ramified; kronecker(-4, 163) = -1 since 163 = 3 mod 4
    (P163,) = primes_of_F_above(163, -4 * -163)
    assert not EFCharacter(-4, -163)[163]
    # (-3, -163): 3 ramified, kronecker(-163, 3) = kronecker(2, 3) = -1
    (P3,) = primes_of_F_above(3, -3 * -163)
    assert not EFCharacter(-3, -163)[3]


def test_factor_principal_ideal_example():
    d1, d2 = -3, -163
    fact = factor_principal_ideal(21, d1, d2)  # N(t) = (441 - 489)/4 = -12
    by_p = {(P.p, P.kind): e for P, e in fact.items()}
    assert by_p == {(2, "split"): 2, (3, "ramified"): 1}


def norm(P):
    """The absolute norm of a prime P of F, from its kind: p^2 if inert."""
    return P.p ** (2 if P.kind == "inert" else 1)


def test_factor_norm_consistency_and_conjugation():
    random.seed(11)
    for d1, d2 in [(-3, -163), (-7, -15), (-4, -43), (-8, -23)]:
        D = d1 * d2
        for _ in range(25):
            m = random.randrange(-40, 40)
            if (m - D) % 2:
                m += 1
            if m * m == D:
                continue
            fact = factor_principal_ideal(m, d1, d2)
            n = 1
            for P, e in fact.items():
                n *= norm(P) ** e
            assert n == abs(m * m - D) // 4
            conj = factor_principal_ideal(-m, d1, d2)
            for P, e in fact.items():
                mirror = (PrimeOfF(P.p, P.kind, -P.branch)
                          if P.kind == "split" else P)
                assert conj.get(mirror, 0) == e


def padic_sqrt(a, p, k):
    """The canonical square root of a modulo p^k, for reference_factor.

    For odd p the branch is pinned by s = s0 (mod p) where s0 is the smaller
    of the two square roots mod p.  For p = 2 (which requires a = 1 mod 8)
    the branch is pinned by s = 1 (mod 4); the root is computed one bit past
    k so that the returned value is stable: padic_sqrt(a, p, k+1) reduces to
    padic_sqrt(a, p, k) modulo p^k.
    """
    if k < 1:
        raise ValueError("precision k must be >= 1")
    if p == 2:
        if a % 8 != 1:
            raise ValueError("2-adic square root needs a = 1 mod 8")
        s = 1
        for j in range(3, k + 2):
            if (s * s - a) % (1 << (j + 1)) != 0:
                s += 1 << (j - 1)
        return s % (1 << k)
    if a % p == 0:
        raise ValueError("a must be a unit mod p")
    r = tonelli(a, p)
    if r is None:
        raise ValueError(f"{a} is not a square mod {p}")
    s = min(r, p - r)
    pj = p
    while pj < p ** k:
        pj = pj * pj
        s = (s - (s * s - a) * pow(2 * s, -1, pj)) % pj
    return s % p ** k


def test_padic_sqrt_example_and_canonical_branch():
    assert padic_sqrt(489, 2, 6) == 45
    for p in (3, 7, 11, 13):
        squares = sorted({x * x % p for x in range(1, p)})
        a = squares[len(squares) // 2]
        s = padic_sqrt(a, p, 5)
        assert s * s % p ** 5 == a % p ** 5
        r = min(x for x in range(1, p) if x * x % p == a % p)
        assert s % p == r


def test_padic_sqrt_stability():
    for a, p in [(489, 2), (17, 2), (105, 2), (7, 3), (13, 3), (6, 5)]:
        if legendre(a, p) != 1 and p != 2:
            continue
        if p == 2 and a % 8 != 1:
            continue
        for k in range(2, 8):
            assert padic_sqrt(a, p, k + 1) % p ** k == padic_sqrt(a, p, k)


def test_padic_sqrt_exhaustive_oracle():
    p, k, a = 7, 3, 2  # 2 = 3^2 mod 7
    roots = [x for x in range(p ** k) if x * x % p ** k == a]
    assert padic_sqrt(a, p, k) in roots


def test_padic_sqrt_domain_errors():
    with pytest.raises(ValueError):
        padic_sqrt(3, 2, 4)   # 3 != 1 mod 8
    with pytest.raises(ValueError):
        padic_sqrt(3, 5, 4)   # non-residue


def reference_factor(m, d1, d2):
    """Per-element reference for factor_principal_ideals: trial division of
    N(t), t = (m + sqrt(D))/2, and the canonical p-adic root of D to
    separate the two primes above a split p."""
    D = d1 * d2
    fact = {}
    for p, v in factorize((m * m - D) // 4).items():
        primes = primes_of_F_above(p, D)
        if primes[0].kind == "inert":
            assert v % 2 == 0
            fact[primes[0]] = v // 2
        elif primes[0].kind == "ramified":
            fact[primes[0]] = v
        else:
            k = v + 2
            s = padic_sqrt(D, p, k)
            pk = p ** k
            # ord at the branch where sqrt(D) -> s is v_p((m + s)/2); the /2
            # costs one bit of certainty when p = 2
            cap = k - 1 if p == 2 else k
            vals = []
            for root in (s, pk - s):
                num = (m + root) % pk
                w = k if num == 0 else valuation(num, p)
                vals.append(w - 1 if p == 2 else w)
            vp, vm = vals
            assert not (vp >= cap and vm >= cap)
            if vp >= cap:
                vp = v - vm
            elif vm >= cap:
                vm = v - vp
            assert vp + vm == v
            for branch, w in ((1, vp), (-1, vm)):
                if w:
                    fact[PrimeOfF(p, "split", branch)] = w
    return fact


NEG_FUND = [d for d in range(-3, -200, -1) if is_fundamental_discriminant(d)]
COPRIME_PAIRS = [(d1, d2) for i, d1 in enumerate(NEG_FUND)
                 for d2 in NEG_FUND[i + 1:] if gcd(d1, d2) == 1]


def two_in_F(pair):
    """How 2 behaves in F = Q(sqrt(d1 d2)): D = 1 mod 8 splits it, D even
    ramifies it, D = 5 mod 8 leaves it inert."""
    D = pair[0] * pair[1]
    return "ramified" if D % 2 == 0 else ("split" if D % 8 == 1 else "inert")


PAIRS_BY_TWO = {kind: [q for q in COPRIME_PAIRS if two_in_F(q) == kind]
                for kind in ("split", "ramified", "inert")}
pairs_any_two = st.sampled_from(sorted(PAIRS_BY_TWO)).flatmap(
    lambda kind: st.sampled_from(PAIRS_BY_TWO[kind]))


# counts below SIEVE_FROM are trial-divided, counts from it on are sieved
@settings(max_examples=150, deadline=None)
@given(pair=pairs_any_two, start=st.integers(-3000, 3000),
       count=st.integers(1, 2 * SIEVE_FROM))
@example(pair=(-7, -15), start=-9, count=1)      # 2 split, one element
@example(pair=(-4, -43), start=-12, count=1)     # 2 ramified, one element
@example(pair=(-3, -7), start=2, count=1)        # 2 inert, one element
@example(pair=(-8, -23), start=-13, count=13)    # 2 ramified, whole t-range
@example(pair=(-7, -23), start=-12, count=12)    # 2 split, whole t-range
@example(pair=(-7, -95), start=-26, count=26)    # 2 split, whole t-range
@example(pair=(-8, -95), start=-27, count=27)    # 2 ramified, whole t-range
@example(pair=(-3, -199), start=-24, count=24)   # 2 inert, whole t-range
def test_range_sieve_equals_per_element_reference(pair, start, count):
    d1, d2 = pair
    D = d1 * d2
    first = start + (start - D) % 2
    ms = [first + 2 * i for i in range(count)]
    got = factor_principal_ideals(ms, d1, d2)
    assert got == {m: reference_factor(m, d1, d2) for m in ms}
    assert all(prod(norm(P) ** e for P, e in got[m].items())
               == abs(m * m - D) // 4 for m in ms)


# windows of m on both sides of SIEVE_FROM: trial division and the sieve
@settings(max_examples=150, deadline=None)
@given(pair=pairs_any_two, start=st.integers(-3000, 3000),
       count=st.integers(1, 2 * SIEVE_FROM))
@example(pair=(-7, -15), start=-9, count=SIEVE_FROM - 1)    # 2 split
@example(pair=(-7, -15), start=-9, count=SIEVE_FROM)
@example(pair=(-8, -95), start=-27, count=SIEVE_FROM - 1)   # 2 ramified
@example(pair=(-8, -95), start=-27, count=SIEVE_FROM)
@example(pair=(-3, -199), start=-24, count=SIEVE_FROM - 1)  # 2 inert
@example(pair=(-3, -199), start=-24, count=SIEVE_FROM)
def test_factor_norms_is_the_factorization_of_the_norm(pair, start, count):
    d1, d2 = pair
    D = d1 * d2
    first = start + (start - D) % 2
    ms = [first + 2 * i for i in range(count)]
    got = factor_norms(ms, EFCharacter(d1, d2))
    assert list(got) == ms
    for m in ms:
        assert got[m] == {p: e for p, e in factorize((m * m - D) // 4).items()
                          if legendre(D, p) != -1}, (D, m)


def test_factor_principal_ideal_large_m():
    # N(t) = 2^2 3 5 7 13 151 1367 88729 is about 1e14: one element is
    # trial-divided up to the square root of the shrinking cofactor, with no
    # table of the primes up to isqrt(N(t)), about 1e7
    tracemalloc.start()
    fact = factor_principal_ideal(20000085, -7, -15)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20
    assert fact == reference_factor(20000085, -7, -15)
    assert fact[PrimeOfF(88729, "split", -1)] == 1


def test_factor_principal_ideals_rejects_bad_elements():
    with pytest.raises(ValueError):   # wrong parity: D = 105 is odd
        factor_principal_ideal(2, -7, -15)
    with pytest.raises(ValueError):
        factor_principal_ideals([1, 2], -7, -15)
    with pytest.raises(ValueError):   # zero norm: D = 16 is a square
        factor_principal_ideal(4, -4, -4)
    with pytest.raises(ValueError):
        factor_principal_ideals([2, 4, 6], -4, -4)
    assert factor_principal_ideals([], -7, -15) == {}


def test_a_composite_cofactor_is_not_taken_for_a_prime(monkeypatch):
    # Euler's criterion proves 15 composite at base 2; 561 = 3 11 17 is an
    # Euler pseudoprime to base 2 and passes: the check is one-sided
    with pytest.raises(ArithmeticError, match="^15 is not prime$"):
        legendre(2, 15)
    assert legendre(2, 561) == 1
    # a sieve that skips 2 leaves composite cofactors of N(t), 2252 first
    sieve = quadarith._primes_upto
    monkeypatch.setattr(quadarith, "_primes_upto",
                        lambda n: [p for p in sieve(n) if p != 2])
    with pytest.raises(ArithmeticError, match="^2252 is not prime$"):
        factor_norms(t_range(-71, -127), EFCharacter(-71, -127))


@pytest.mark.parametrize("d1,d2", [(-71, -127), (-8, -1151), (-3, -4007)])
def test_the_inert_check_gives_the_character_of_a_cofactor_prime(
        monkeypatch, d1, d2):
    # the sieve leaves a cofactor prime q of N(t); factor_norms reads (D/q)
    # as (d1/q)(d2/q) through the pair's EFCharacter, which keeps the
    # character of q: two symbols per cofactor, none of D, and none more
    # when a sum looks q up; the factorizations are those of trial division
    D = d1 * d2
    ms = t_range(d1, d2)
    assert len(ms) >= SIEVE_FROM
    calls = []
    leg = quadarith.legendre
    monkeypatch.setattr(quadarith, "legendre", lambda a, p:
                        calls.append((a, p)) or leg(a, p))
    chi = EFCharacter(d1, d2)
    facts = factor_norms(ms, chi)
    bound = isqrt(max(abs(m * m - D) // 4 for m in ms))
    cofactors = [p for fact in facts.values() for p in fact if p > bound]
    assert len(cofactors) > 10 and set(chi) == set(cofactors)
    assert sorted(calls) == sorted((a, q) for q in cofactors
                                   for a in (d1, d2))
    calls.clear()
    assert [chi[q] for q in cofactors] == [
        leg(d1, q) == 1 or leg(d2, q) == 1 for q in cofactors]
    assert calls == []
    assert facts == {m: {p: e for p, e in factorize((m * m - D) // 4).items()
                         if leg(D, p) != -1} for m in ms}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 7))
def test_factorize_and_squarefree(n):
    fact = factorize(n)
    assert prod(p ** e for p, e in fact.items()) == n
    assert all(factorize(p) == {p: 1} for p in fact)


def count_ideals_oracle(fact, d1, d2):
    """Enumerate exponent vectors of the primes of E above each prime of F
    and count those whose relative norm matches; the splitting data comes
    from the Frobenius oracle, or the brute-force one at ramified primes."""
    total = 1
    for P, e in fact.items():
        if e < 0:
            return 0
        kind = (frobenius_splitting_oracle(P.p, d1, d2) if (d1 * d2) % P.p
                else ramified_splitting_oracle(P.p, d1, d2))
        if kind == "split":
            ways = len([(x, y) for x in range(e + 1) for y in range(e + 1)
                        if x + y == e])
        else:
            ways = len([x for x in range(e + 1) if 2 * x == e])
        total *= ways
    return total


def test_rho_against_enumeration_oracle():
    for d1, d2 in [(-3, -163), (-7, -15), (-7, -23), (-4, -43)]:
        D = d1 * d2
        for m in range(-44, 45):
            if (m - D) % 2:
                continue
            n = (m * m - D) // 4
            if n == 0 or abs(n) > 500:
                continue
            fact = factor_principal_ideal(m, d1, d2)
            assert rho(fact, EFCharacter(d1, d2)) == \
                count_ideals_oracle(fact, d1, d2)


def test_rho_multiplicative_rules():
    d1, d2 = -7, -15
    chi = EFCharacter(d1, d2)
    P5 = primes_of_F_above(5, 105)[0]      # ramified, split in E/F? chi(-7,5)=-1
    assert not chi[5]
    P2 = primes_of_F_above(2, 105)[0]
    assert chi[2]
    assert rho({P5: 2, P2: 3}, chi) == 4
    assert rho({P5: 1}, chi) == 0
    assert rho({P2: -1}, chi) == 0
    assert rho({}, chi) == 1


@pytest.mark.parametrize("d1,d2", [(-3, -7), (-7, -15), (-7, -23),
                                   (-3, -163), (-7, -163)])
def test_diff_set_has_odd_size(d1, d2):
    D = d1 * d2
    assert D in (21, 105, 161, 489, 1141)
    from math import isqrt
    for m in range(-isqrt(D - 1), isqrt(D - 1) + 1):
        if (m - D) % 2:
            continue
        fact = factor_principal_ideal(m, d1, d2)
        assert len(diff_set(fact, EFCharacter(d1, d2))) % 2 == 1, (D, m)


def test_primelog_algebra():
    a = PrimeLog({2: 3, 3: Fraction(1, 2)})
    b = PrimeLog({3: Fraction(-1, 2), 5: 1})
    s = a + b
    assert s.exponents() == {2: 3, 5: 1}
    assert s.scale(2).exponents() == {2: 6, 5: 2}
    assert s.max_prime() == 5
    assert PrimeLog().value(80) == 0
    # one log of a rational power: L = lcm(2, 3, 1) = 6 and a denominator
    c = PrimeLog({2: Fraction(-7, 2), 3: Fraction(5, 3), 5: -2, 163: 4})
    import mpmath
    for x in (s, c):
        with mpmath.workprec(80):
            want = sum(mpmath.mpf(e.numerator) / e.denominator * mpmath.log(p)
                       for p, e in x.terms.items())
            assert abs(x.value(80) - want) < mpmath.mpf(2) ** -70
