"""Arbitrary-precision CM values of j and the level-2 Hauptmodul, and the
one precision policy behind every computation with them.

One kernel serves both CM-value functions: the eta quotient
s(tau) = (eta(2 tau)/eta(tau))^24 = 1/t, on fixed-point integers, from which
j = (1 + 256 s)^3 / s and omega2 = 4096 s (Enge, "The complexity of class
polynomial computation via floating point approximations", Math. Comp.
2009).  Both evaluators take a point in the upper half plane and a working
precision of prec bits, and are accurate to 2^-(prec+8) relative to s.

A class value is taken at the CM point tau of the reduced form (a, b, c)
of the class, Im tau = sqrt|d| / 2a >= sqrt(3)/2.  j is SL2(Z)-invariant,
so j_value is eval_j(tau).  omega2 is invariant only under Gamma0(2), and
its value at a class is the one at an odd-norm point (first coefficient
odd; Yui-Zagier, Math. Comp. 1997): tau itself if a is odd, else -1/tau if
c is odd, else -1/(tau +- 1).  By omega2(tau + 1) = omega2(tau) and
omega2(-1/tau) = 2^12 / omega2(tau/2), omega2_value takes eval_omega2 at
tau, tau/2 or (tau + 1)/2, so every kernel argument has
Im >= sqrt(3)/4.  CM values come once per conjugate pair of forms
(cm_values): both functions have real q-coefficients, the CM point of
(a, -b, c) is -conj of that of (a, b, c), and so is the argument
omega2_value gives the kernel there, up to a translation by 1; the value
there is exactly the conjugate.

The precision policy: a computation with CM values starts at auto_prec, an
a-priori bound on the bits of what it must round to integers, runs at that
precision plus GUARD_BITS (the evaluators, the CM points they are given and
every product of their values alike), and doubles the precision at most
MAX_RETRIES times (precisions) while a value fails to round within
2^-TOL_BITS.

One table serves every computation with the class values of a
discriminant (class_values), keyed by (class-value function, d): the values
at the highest precision computed so far, read at any lower precision and
recomputed only for more bits (a higher auto_prec, a retry), and their
integer polynomial prod (X - v), kept once it rounds.  It holds TABLE_SIZE
entries and drops the oldest when full.  What rounds does not depend on its
state, but digits below the working precision (of a log residual, say) can
differ between a cold and a warm table within one process.
"""

from itertools import product
from math import ceil, log, pi, sqrt

import mpmath

from .classgroup import reduced_forms, heegner_point

GUARD_BITS = 64
TOL_BITS = 32
MAX_RETRIES = 3
TABLE_SIZE = 256

_table = {}     # (value, d) -> (prec, class values, integer polynomial)


def auto_prec(*discs):
    """Working precision in bits for the CM values at the points of one or
    two discriminants: 64 + ceil(1.2 S), where S sums, over every tuple of
    one reduced form per discriminant, the largest height in the tuple.

    The height of the form (a, b, c) of discriminant d is
    h = pi sqrt|d| / (a log 2), the bits of |j| ~ |q|^-1 = e^(pi sqrt|d| / a)
    at its CM point (Enge, Math. Comp. 2009).  For one discriminant S is
    sum_Q h(Q), which bounds the bits of the coefficients of
    prod_Q (X - j(tau_Q)).  For two it is sum_{Q1, Q2} max(h(Q1), h(Q2)),
    which bounds the bits of prod (j1 - j2), since
    |j1 - j2| <= 2 max(|j1|, |j2|); it is at least h(d2) times the sum of d1
    and h(d1) times that of d2, so it covers both class polynomials too.
    Every h is at least pi sqrt 3 / log 2 > 7.8; the factor 1.2 and the 64
    bits absorb the factor 2 and the O(1) in |j| = |q|^-1 + O(1).

    The bound covers omega2 as well: j = (omega2 + 16)^3 / omega2, and j is
    SL2(Z)-invariant, so at every point of a class log|omega2| <=
    log|j| / 2 + O(1).  That includes the odd-norm point, whose value
    omega2_value takes from omega2 at tau, tau/2 or (tau + 1)/2, each with
    Im >= sqrt(3)/4.
    """
    heights = [[pi * sqrt(-d) / (a * log(2)) for a, _, _ in reduced_forms(d)]
               for d in discs]
    return 64 + ceil(1.2 * sum(map(max, product(*heights))))


def _to_mpc(tau):
    tau = mpmath.mpmathify(tau)
    if mpmath.im(tau) <= 0:
        raise ValueError("tau must lie in the upper half plane")
    return tau


def _series_order(tau, prec):
    """Number of q-powers needed so the tail is below 2^-(prec+16)."""
    y = float(mpmath.im(tau))
    return max(8, ceil((prec + 16) * log(2) / (2 * pi * y)) + 8)


def _mul(x, y, w):
    """Product of complex fixed-point pairs (re, im) at scale 2^w by three
    int products (Gauss); each part rounds down, by less than a unit 2^-w."""
    (a, b), (c, d) = x, y
    k = c * (a + b)
    return (k - b * (c + d)) >> w, (k + a * (d - c)) >> w


def _euler_product(q, order, w):
    """prod_{n >= 1} (1 - q^n) through at least q^order for a fixed-point
    pair q at scale 2^w, by the pentagonal number theorem: pairs of terms
    q^(k(3k-1)/2) + q^(k(3k+1)/2) while the first is at most q^order.  The
    two exponents differ by k, and k(3k+1)/2 and (k+1)(3k+2)/2 by 2k + 1,
    so each power of q is a running product."""
    re, im = 1 << w, 0
    qk = q                      # q^k
    q2 = _mul(q, q, w)
    q_step = _mul(q2, q, w)     # q^(2k+1)
    qe = q                      # q^(k(3k-1)/2)
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        qe2 = _mul(qe, qk, w)   # q^(k(3k+1)/2)
        t = qe[0] + qe2[0], qe[1] + qe2[1]
        re, im = (re - t[0], im - t[1]) if k % 2 else (re + t[0], im + t[1])
        qe = _mul(qe2, q_step, w)
        qk = _mul(qk, q, w)
        q_step = _mul(q_step, q2, w)
        k += 1
    return re, im


def _eta_quotient(tau, prec):
    """s = (eta(2 tau)/eta(tau))^24 = q R, R = (prod (1 - q^2n) / prod (1 -
    q^n))^24, to a relative 2^-(prec+8): 24 times the products' tail, below
    2^-(prec+16) (_series_order).  Only q and q R are mpmath numbers; the
    Euler products, their quotient r and R = ((r^3)^2)^2)^2 are pairs of
    ints at scale 2^w, w = prec + GUARD_BITS + 8, r scaled by a power of two
    to modulus at least 1.  No rounding error grows in the Euler sums
    (|q^n| < 1) or the chain (|r| >= 1), and R has 24 times that of r: below
    2^9 units 2^-w over Im tau in [0.09, 4] and prec up to 7000."""
    if prec < 1:
        raise ValueError(f"working precision {prec} must be at least 1 bit")
    order = _series_order(tau, prec)
    q = mpmath.expjpi(2 * tau)
    w = prec + GUARD_BITS + 8
    qf = int(mpmath.ldexp(q.real, w)), int(mpmath.ldexp(q.imag, w))
    a, b = _euler_product(_mul(qf, qf, w), order // 2, w)
    c, d = _euler_product(qf, order, w)
    n = c * c + d * d
    r = ((a * c + b * d) << w) // n, ((b * c - a * d) << w) // n
    e = max(0, w + 1 - max(map(abs, r)).bit_length())
    r = r[0] << e, r[1] << e
    r3 = _mul(_mul(r, r, w), r, w)
    r6 = _mul(r3, r3, w)
    r12 = _mul(r6, r6, w)
    r24 = _mul(r12, r12, w)
    return q * mpmath.mpc(*(mpmath.mpf((x, -w - 24 * e)) for x in r24))


def eval_j(tau, prec):
    """Klein j-invariant, (1 + 256 s)^3 / s."""
    tau = _to_mpc(tau)
    with mpmath.workprec(prec + GUARD_BITS):
        s = _eta_quotient(tau, prec)
        u = 1 + 256 * s
        return u * u * u / s


def eval_omega2(tau, prec):
    """Level-2 Hauptmodul 2^12 Delta(2 tau)/Delta(tau) = 4096 s."""
    tau = _to_mpc(tau)
    with mpmath.workprec(prec + GUARD_BITS):
        return 4096 * _eta_quotient(tau, prec)


def j_value(form, tau, prec):
    """j at the class of form, whose CM point is tau."""
    return eval_j(tau, prec)


def omega2_value(form, tau, prec):
    """omega2 at the odd-norm point of the class of the reduced form
    (a, b, c), whose CM point is tau: omega2(tau) if a is odd, else
    2^12 / omega2(tau/2) if c is odd, else 2^12 / omega2((tau + 1)/2)."""
    a, _, c = form
    if a % 2:
        return eval_omega2(tau, prec)
    return 4096 / eval_omega2(tau / 2 if c % 2 else (tau + 1) / 2, prec)


def cm_values(value, d, prec):
    """value(form, tau, prec) at the CM point tau of each reduced form of
    discriminant d, in the order of reduced_forms(d), with one call per pair
    (a, b, c), (a, -b, c): the second takes mpmath.conj of the first's
    value.  Pairs are matched by form, never by value; a form whose
    conjugate is not reduced (b = 0, |b| = a or a = c) is evaluated."""
    values = {}
    with mpmath.workprec(prec + GUARD_BITS):
        for a, b, c in reduced_forms(d):
            mirror = values.get((a, -b, c))
            values[a, b, c] = (
                value((a, b, c), heegner_point((a, b, c), d), prec)
                if mirror is None else mpmath.conj(mirror))
    return list(values.values())


def precisions(prec):
    """The working precisions of one computation: prec, then prec doubled
    at most MAX_RETRIES times."""
    return [prec * 2 ** k for k in range(MAX_RETRIES + 1)]


def recognize_integer(x):
    """The integer nearest to a complex value, or None when it is not within
    2^-TOL_BITS."""
    x = mpmath.mpmathify(x)
    n = int(mpmath.nint(mpmath.re(x)))
    if abs(x - n) >= mpmath.ldexp(1, -TOL_BITS):
        return None
    return n


def integer_polynomial(d, values):
    """prod (X - v) over the class values of d, in the order of cm_values,
    expanded over real mpf at the current precision and rounded: one factor
    X^2 - 2 Re(v) X + |v|^2 per conjugate pair of forms (a, +-b, c), and
    X - v per self-conjugate form, whose value is real.  The integer
    coefficients, leading first, or None when a coefficient does not round
    with residual below 2^-TOL_BITS or a self-conjugate value has an
    imaginary part of at least 2^-TOL_BITS."""
    forms = reduced_forms(d)
    paired = set(forms)
    poly = [mpmath.mpf(1)]
    for (a, b, c), v in zip(forms, values):
        re, im = v.real, v.imag
        if b and (a, -b, c) in paired:
            if b < 0:
                continue        # its conjugate's factor covers it
            factor = -2 * re, re * re + im * im
        elif abs(im) >= mpmath.ldexp(1, -TOL_BITS):
            return None
        else:
            factor = -re,
        nxt = poly + [0] * len(factor)
        for k, f in enumerate(factor, 1):
            for i, x in enumerate(poly):
                nxt[i + k] += f * x
        poly = nxt
    ints = tuple(recognize_integer(x) for x in poly)
    return None if None in ints else ints


def class_values(value, d, prec):
    """The class values of d (cm_values) and their integer polynomial
    (integer_polynomial, None while it does not round), from the table
    entry of (value, d).  A request at or below the entry's precision reads
    its values, which meet the kernel's 2^-(prec+8) bound at any lower prec
    too; one above it recomputes and replaces them, and expands the
    polynomial, which is exact, only while the entry has none.  TABLE_SIZE
    entries hold every fundamental |d| <= 600 of both functions (184 of j,
    63 of omega2); the oldest is dropped when the table is full."""
    if prec < 1:
        raise ValueError(f"working precision {prec} must be at least 1 bit")
    key = value, d
    entry = _table.get(key)
    if entry is None or entry[0] < prec:
        poly = None if entry is None else entry[2]
        with mpmath.workprec(prec + GUARD_BITS):
            vals = tuple(cm_values(value, d, prec))
            if poly is None:
                poly = integer_polynomial(d, vals)
        if entry is None and len(_table) >= TABLE_SIZE:
            del _table[next(iter(_table))]
        entry = _table[key] = prec, vals, poly
    return entry[1], entry[2]


def class_polynomial(d, prec=None):
    """Hilbert class polynomial of the imaginary quadratic order of
    discriminant d, as a list of integer coefficients, leading first.

    The polynomial of the j entry of d (class_values), starting at
    auto_prec(d) bits; the precision is doubled (up to MAX_RETRIES times,
    precisions) until every coefficient rounds to an integer with residual
    below 2^-TOL_BITS.
    """
    for prec in precisions(auto_prec(d) if prec is None else prec):
        poly = class_values(j_value, d, prec)[1]
        if poly is not None:
            return list(poly)
    raise ArithmeticError(f"class polynomial for d={d} did not stabilize")
