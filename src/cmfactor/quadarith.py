"""Arithmetic of the real quadratic field F = Q(sqrt(d1 d2)) and of the
biquadratic extension E = Q(sqrt(d1), sqrt(d2)), at the level needed for
counting ideals: Legendre symbols at primes, square roots mod p,
factorization of the principal ideals t O_F, t = (m + sqrt(D))/2, each t
named by its integer m, and the relative-norm counting function rho, which
reads the pair's E/F character table.

d1 and d2 are coprime fundamental discriminants of imaginary quadratic fields,
so D = d1 d2 is a fundamental discriminant of F and E/F is unramified.

The lemma that puts t O_F on integers (factor_norms): a prime P of F dividing
t has N(P) = p, as O_F = Z[(D + sqrt(D))/2] and the sqrt(D)-coefficient 1/2 of
t keeps every rational n > 1, an inert P = p O_F among them, from dividing t;
and at a split p one prime above p at most divides t, as p | (m + s)/2 and
p | (m - s)/2, s^2 = D, would give p | D.  So v_P(t) = v_p(N(t)), and t O_F
factors as N(t) = (m^2 - D)/4 does, P being _prime_above's prime above p.
"""

from fractions import Fraction
from math import isqrt, lcm, prod
from typing import NamedTuple

import mpmath


def legendre(a, p):
    """Legendre symbol (a/p) for a prime p, by Euler's criterion; at p = 2
    the Kronecker symbol (a/2): 0 for even a, else 1 iff a = +-1 mod 8.
    A residue other than 0, 1 or p - 1 proves p composite: ArithmeticError
    (one-sided: an Euler pseudoprime to base a passes)."""
    if p == 2:
        return 0 if a % 2 == 0 else 1 if a % 8 in (1, 7) else -1
    r = pow(a, (p - 1) // 2, p)
    if r > 1 and r != p - 1:
        raise ArithmeticError(f"{p} is not prime")
    return -1 if r > 1 else r


def valuation(n, p):
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def factorize(n):
    """Trial-division factorization of |n| as a dict prime -> exponent."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def is_fundamental_discriminant(d):
    if d % 4 == 0 and d // 4 % 4 in (2, 3):
        d //= 4
    elif d % 4 != 1 or d == 1:
        return False
    return all(e == 1 for e in factorize(d).values())


def tonelli(a, p):
    """A square root of a mod an odd prime p, or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, tmp = 0, t
        while tmp != 1:
            tmp = tmp * tmp % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


class PrimeOfF(NamedTuple):
    """A prime ideal of F above p, as a plain (p, kind, branch) tuple.

    kind is 'split', 'inert' or 'ramified'; for split primes branch = +1 / -1
    selects the embedding in which sqrt(D) maps to the p-adic root s with
    s = s0 (mod p), s0 the smaller square root of D mod p, and s = 1 (mod 4)
    at p = 2 (resp. to -s).
    """
    p: int
    kind: str
    branch: int = 0


class EFCharacter(dict):
    """The E/F character of the pair (d1, d2), as a table p -> True iff the
    primes P of F above p, all conjugate, split in E (else they are inert, as
    E/F is unramified), each entry computed on its first lookup; a PrimeOfF
    reads the entry of its p.  A P inert in F splits: its decomposition
    group in Gal(E/Q) = (Z/2)^2 is cyclic, so p has residue degree at most
    2 in E, which P already has.  Any other P splits iff p has residue
    degree 1 in E: iff (d1/p) = 1, or (d2/p) = 1 when p | d1.  Both read
    (d1/p) = 1 or (d2/p) = 1, as p is inert in F iff one of the two is 1
    and the other -1."""

    def __init__(self, d1, d2):
        super().__init__()
        self.d1, self.d2 = d1, d2

    def __missing__(self, p):
        split = self[p] = (self[p.p] if isinstance(p, PrimeOfF) else
                           legendre(self.d1, p) == 1
                           or legendre(self.d2, p) == 1)
        return split


def _primes_upto(n):
    """The primes p <= n, by the sieve of Eratosthenes."""
    sieve = bytearray(2) + bytearray([1]) * (n - 1)
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, is_prime in enumerate(sieve) if is_prime]


def _prime_above(p, D, m):
    """The prime of F above p (split or ramified in F) that divides
    t = (m + sqrt(D))/2.  At a split p, N(t) = (m + s)/2 * (m - s)/2 with
    s^2 = D, and p divides at most one factor.  Branch +1 takes s = s0
    (mod p), s0 the smaller square root of D mod p, and s = 1 (mod 4) at
    p = 2, so it is the prime iff p | (m + s)/2: iff 2 (m mod p) > p for odd
    p, and iff m = 3 mod 4 for p = 2; one prime serves a whole class of m."""
    if D % p == 0:
        return PrimeOfF(p, "ramified")
    plus = m % 4 == 3 if p == 2 else 2 * (m % p) > p
    return PrimeOfF(p, "split", 1 if plus else -1)


def _norms(ms, D):
    """{m: |N(t)|} over ms, each t = (m + sqrt(D))/2 integral, N(t) != 0."""
    norms = {}
    for m in ms:
        if (m - D) % 2:
            raise ValueError("need m = D mod 2 for (m + sqrt(D))/2 integral")
        n = abs(m * m - D) // 4
        if n == 0:
            raise ValueError("t must have nonzero norm")
        norms[m] = n
    return norms


def _sieve_hits(norms, D):
    """(p, the m with p | N(t)) for the primes p <= isqrt(max N(t)) not
    inert in F: for odd p the m = c = +-sqrt(D) (mod p), one square root of
    D per prime, checked; for p = 2 every m if D = 1 mod 8, and if D is
    even, when N(t) = (m/2)^2 - D/4, the m = D/2 mod 4."""
    lo, hi = min(norms, default=0), max(norms, default=0)
    for p in _primes_upto(isqrt(max(norms.values(), default=0))):
        if p == 2:   # (class of m, its step), m = D mod 2 built in
            classes = (((1, 2),) if D % 8 == 1 else () if D % 2 else
                       ((D // 2 % 4, 4),))
        else:
            r = tonelli(D, p)
            if r is not None and (r * r - D) % p:
                raise ArithmeticError(f"{r} is not a square root of D mod {p}")
            classes = () if r is None else [(c + p * ((c - D) % 2), 2 * p)
                                            for c in {r, -r % p}]
        for c, step in classes:
            yield p, range(lo + (c - lo) % step, hi + 1, step)


def factor_norms(ms, chi):
    """Factor N(t) = (m^2 - D)/4, t = (m + sqrt(D))/2, up to sign for every
    m in ms, as a dict m -> {p: e}: by the module's lemma, the factorization
    of t O_F, e at the prime of F above p that divides t (_prime_above).

    Each m must have m = D mod 2 (t integral) and t nonzero norm.  One sieve
    runs over ms by every p <= B = isqrt(max |N(t)|) not inert in F, so a
    q > 1 left of |N(t)| < (B + 1)^2 is prime, and m^2 = D (mod q): off D,
    (D/q) = 1 and one symbol, (d1/q) = (d2/q), is chi[q] (legendre, which
    proves a composite q composite too); the pair's EFCharacter chi fills
    the entry of a q | D when it is read.  Each {p: e} is what the sieve
    divided out of N(t), closed by that q, so it multiplies to N(t) by
    construction."""
    D = chi.d1 * chi.d2
    norms = _norms(ms, D)
    rest = dict(norms)
    facts = {m: {} for m in norms}
    for p, ms in _sieve_hits(norms, D):
        for m in ms:
            n = rest.get(m)
            if n is not None and n % p == 0:
                v = 0
                while n % p == 0:
                    n //= p
                    v += 1
                rest[m] = n
                facts[m][p] = v
    for n, fact in zip(rest.values(), facts.values()):
        if n > 1:
            if D % n:
                chi[n] = legendre(chi.d1, n) == 1
            fact[n] = 1
    return facts


def factor_principal_ideal(m, d1, d2):
    """Factor the principal ideal t O_F, t = (m + sqrt(D))/2, as a dict
    PrimeOfF -> exponent, for a single t: trial division of N(t) (factorize),
    each p named by the prime of F above it that divides t (_prime_above),
    with the checks of _norms on m.  Exponents at primes not dividing t O_F
    are omitted."""
    D = d1 * d2
    return {_prime_above(p, D, m): e
            for p, e in factorize(_norms([m], D)[m]).items()}


def rho(fact, chi):
    """Number of integral ideals of E of relative norm to F the ideal with
    factorization `fact` (a dict PrimeOfF -> exponent, or p -> exponent for
    t O_F and its quotients, as factor_norms gives it; a negative entry
    means the ideal is not integral, hence count 0).  chi is the pair's
    EFCharacter; a sum passes one table to all its calls, so that each
    prime's character is computed once per sum."""
    count = 1
    for P, e in fact.items():
        if e < 0:
            return 0
        if chi[P]:
            count *= e + 1
        elif e % 2 != 0:
            return 0
    return count


def diff_set(fact, chi):
    """The primes of F inert in E/F at odd order in `fact`, in its order;
    fact and chi as in rho."""
    return [P for P, e in fact.items() if e % 2 and not chi[P]]


class PrimeLog:
    """A finite formal sum of terms e_p * log(p) with exact rational e_p.
    The constructor coerces its terms with Fraction; add stores an int or
    Fraction exponent as given."""

    def __init__(self, terms=None):
        self.terms = {}
        for p, e in (terms or {}).items():
            self.add(p, Fraction(e))

    def add(self, p, e):
        cur = self.terms.get(p, 0) + e
        if cur == 0:
            self.terms.pop(p, None)
        else:
            self.terms[p] = cur

    def __add__(self, other):
        out = PrimeLog(self.terms)
        for p, e in other.terms.items():
            out.add(p, e)
        return out

    def __eq__(self, other):
        return isinstance(other, PrimeLog) and self.terms == other.terms

    def exponents(self):
        return dict(sorted(self.terms.items()))

    def value(self, prec):
        """The sum at prec bits, as one log: of the exact rational
        prod p^(e_p L), divided by L, the lcm of the exponent denominators;
        its numerator and denominator are the integer products over the
        positive and the negative exponents."""
        L = lcm(*(e.denominator for e in self.terms.values()))
        ks = [(p, int(e * L)) for p, e in self.terms.items()]
        num = prod(p ** k for p, k in ks if k > 0)
        den = prod(p ** -k for p, k in ks if k < 0)
        with mpmath.workprec(prec):
            return mpmath.log(mpmath.mpf(num) / den) / L

    def __repr__(self):
        body = " + ".join(f"{e}*log({p})" for p, e in sorted(self.terms.items()))
        return f"PrimeLog({body or '0'})"
