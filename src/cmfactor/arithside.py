"""The arithmetic (prime factorization) sides of the CM value formulas.

Both formulas are finite double sums over totally-indefinite trace elements
t = (m + sqrt(D))/2 of F = Q(sqrt(d1 d2)) with |m| < sqrt(D), and over primes
of F inert in E = Q(sqrt(d1), sqrt(d2)); each term contributes a rational
multiple of log N(p), collected here into exact PrimeLog sums.  D is fixed
per sum, so the integer m alone names t, and the sums walk the integer
factorizations {p: e} of N(t) (quadarith.factor_norms): by the lemma of the
quadarith docstring, e is the order of t at the one prime above p that
divides t, whose norm is p.  With sigma the conjugation of F,
t_-m = -sigma(t_m); sigma only swaps the branches of split primes and E/Q is
Galois, so t_-m has the Diff, e, f(P) and rho(t P^-1) of t_m and an equal
term: t_range gives the m >= 0, and each m > 0 counts twice.
"""

from fractions import Fraction
from math import gcd, isqrt

from .quadarith import (PrimeLog, EFCharacter, rho, diff_set, factor_norms,
                        factor_principal_ideal, is_fundamental_discriminant)


def check_gz_hypotheses(d1, d2):
    for d in (d1, d2):
        if d >= 0 or not is_fundamental_discriminant(d):
            raise ValueError(f"{d} is not a negative fundamental discriminant")
    if gcd(d1, d2) != 1:
        raise ValueError("discriminants must be coprime")


def check_yz_hypotheses(d1, d2):
    check_gz_hypotheses(d1, d2)
    if d1 % 8 != 1 or d2 % 8 != 1:
        raise ValueError("both discriminants must be 1 mod 8")


def whittaker2_Ma(a, o, s):
    """Value at s of the normalized 2-adic Whittaker function attached to
    the parity-a section, for ord_2(t) = o (o < 0 means t not integral,
    value 0).  Exact, so s must make 2^-s rational (an integer s)."""
    if a not in (0, 1):
        raise ValueError("a must be 0 or 1")
    s = Fraction(s)
    if s.denominator != 1:
        raise ValueError("exact evaluation needs an integer s")
    x = Fraction(2) ** (-int(s))
    if o < 0:
        return Fraction(0)
    if a == 0:
        if o == 0:
            return Fraction(1, 2)
        geom = o if x == 1 else x * (1 - x ** o) / (1 - x)   # x + ... + x^o
        return Fraction(1, 2) - x + (1 - x / 2) * geom
    if o == 0:
        return (1 - x) / 2
    return (1 + x) / 2


def whittaker2_shifted(a, t):
    """Value of the shifted-section 2-adic Whittaker function: 1/2 when
    t - (1+2a)/4 is a 2-adic integer, else 0 (constant in s)."""
    if a not in (0, 1):
        raise ValueError("a must be 0 or 1")
    shift = Fraction(t) - Fraction(1 + 2 * a, 4)
    return Fraction(1, 2) if shift.denominator % 2 == 1 else Fraction(0)


def t_range(d1, d2):
    """The m >= 0 of the t = (m + sqrt(D))/2 with |m| < sqrt(D) and
    m = D mod 2, increasing: one m of each conjugate pair t_m, t_-m."""
    D = d1 * d2
    return range(D % 2, isqrt(D - 1) + 1, 2)


def _odd_diff_terms(chi, keep=None):
    """The walk of both sums over the pair of the EFCharacter chi.  Factor
    N(t) for the m in t_range (with keep(m), even in m, if given) at once,
    and for each t whose Diff is a single prime P of F, inert in E/F at odd
    order e, yield (red, p, w): red is the {p: e} of t P^-1 as a fresh
    dict, p = N(P), and w = (1 + e)/2, e being odd, doubled at m > 0 for
    the term of t_-m."""
    ms = t_range(chi.d1, chi.d2)
    ms = ms if keep is None else filter(keep, ms)
    for m, fact in factor_norms(ms, chi).items():
        diff = diff_set(fact, chi)
        if len(diff) != 1:
            continue
        p = diff[0]
        e = fact[p]
        w = (1 + e) // 2
        yield {**fact, p: e - 1}, p, 2 * w if m else w


def _cm_sum(d1, d2, level2):
    """The double sum shared by both formulas: over t with exactly one
    prime P of F inert in E/F at odd order e, the term (1 + e)/2 *
    rho(t P^-1) * log N(P), each conjugate pair walked once.  The level-2
    sum keeps the t with 4 | N(t), i.e. m^2 = D mod 16, and divides by
    P_t^2 inside rho, P_t the prime above 2 that divides t: both even in
    m, as P_t of t_-m is sigma P_t."""
    D = d1 * d2
    total = PrimeLog()
    chi = EFCharacter(d1, d2)
    keep = (lambda m: (m * m - D) % 16 == 0) if level2 else None
    for red, p, w in _odd_diff_terms(chi, keep):
        if level2:
            red[2] -= 2
        r = rho(red, chi)
        if r:
            total.add(p, w * r)
    return total


def gz_rhs(d1, d2):
    """Arithmetic side of the singular moduli factorization: the exact
    PrimeLog equal to sum over classes of log |j(tau1) - j(tau2)|^(8/(w1 w2)).
    """
    check_gz_hypotheses(d1, d2)
    return _cm_sum(d1, d2, level2=False)


def yz_rhs(d1, d2):
    """Arithmetic side of the level-2 Hauptmodul factorization: the exact
    PrimeLog equal to sum over classes of log |omega2(tau1) - omega2(tau2)|^2.
    """
    check_yz_hypotheses(d1, d2)
    return _cm_sum(d1, d2, level2=True)


def yz_rhs_whittaker(d1, d2):
    """Independent route to yz_rhs through the 2-adic Whittaker values:
    each term is (1 + ord)/2 * rho-away-from-2 * 4 W(phi_0) W(phi_0).  The
    orders of t at the two primes above 2 are o = v_2(N(t)) and 0
    (quadarith's lemma): 4 W(o) W(0) is symmetric, so it folds as _cm_sum,
    and the parity-1 channel vanishes, as W1 at order 0 is 0 at s = 0."""
    check_yz_hypotheses(d1, d2)
    total = PrimeLog()
    w2_of = {}       # ord at P_t: 4 W(phi_0) W(phi_0)
    chi = EFCharacter(d1, d2)
    for red, p, w in _odd_diff_terms(chi):
        if p == 2:
            raise ArithmeticError("primes above 2 split in E/F here")
        o = red.pop(2, 0)
        if o not in w2_of:
            # L(1, chi) = 2 at each place above 2 turns W into W*, hence the
            # 4; at s = 0, 2 W(phi_0) is 1 or o - 1, so the product is an int
            w2_of[o] = int(4 * whittaker2_Ma(0, o, 0) * whittaker2_Ma(0, 0, 0))
        contrib = w * rho(red, chi) * w2_of[o]
        if contrib:
            total.add(p, contrib)
    return total


def chi_log_identity(m, d1, d2):
    """Both sides of the divisor-sum identity, t = (m + sqrt(D))/2,
    sum_{a | t O_F} chi_{E/F}(a) log N(a)
      = - sum_{p inert in E/F} (1 + ord_p(t))/2 rho(t p^-1) log N(p),
    as a pair of PrimeLogs, where N(p) = p (the lemma of quadarith)."""
    fact = factor_principal_ideal(m, d1, d2)
    table = EFCharacter(d1, d2)
    chi = {P: 1 if table[P.p] else -1 for P in fact}
    lhs = PrimeLog()
    for P, e in fact.items():
        # sum over divisors factors: sum_a chi(a) a_P = S1(P) prod_{Q!=P} S0(Q)
        s1 = sum(chi[P] ** a * a for a in range(e + 1))
        other = 1
        for Q, eq in fact.items():
            if Q == P:
                continue
            other *= sum(chi[Q] ** a for a in range(eq + 1))
        lhs.add(P.p, s1 * other)
    rhs = PrimeLog()
    for P, e in fact.items():
        if chi[P] != -1:
            continue
        red = dict(fact)
        red[P] = e - 1
        r = rho(red, table)
        if r:
            rhs.add(P.p, -Fraction(1 + e, 2) * r)
    return lhs, rhs
