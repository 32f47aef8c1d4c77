"""Arbitrary-precision CM values of j and the level-2 Hauptmodul, and the
one precision policy behind every computation with them.

One kernel serves both CM-value functions: the eta quotient
s(tau) = (eta(2 tau)/eta(tau))^24 = 1/t, on fixed-point integers, from which
j = (1 + 256 s)^3 / s and omega2 = 4096 s (Enge, "The complexity of class
polynomial computation via floating point approximations", Math. Comp.
2009).  Both evaluators take a point in the upper half plane and a working
precision of prec bits, and are accurate to 2^-(prec+8) relative to s
where Im >= sqrt(3)/4.  One pentagonal walk squares its way to E(q^2).

A class value is taken at the CM point tau of the reduced form (a, b, c)
of the class, Im tau = sqrt|d| / 2a >= sqrt(3)/2.  j is SL2(Z)-invariant,
so j_value is eval_j(tau).  omega2 is invariant only under Gamma0(2), and
its value at a class is the one at an odd-norm point (first coefficient
odd; Yui-Zagier, Math. Comp. 1997): tau itself if a is odd, else -1/tau if
c is odd, else -1/(tau +- 1).  By omega2(tau + 1) = omega2(tau) and
omega2(-1/tau) = 2^12 / omega2(tau/2), omega2_value takes eval_omega2 at
tau, tau/2 or (tau + 1)/2, so every kernel argument has
Im >= sqrt(3)/4.  CM values come once per conjugate orbit of forms
(cm_values): both functions have real q-coefficients, the CM point of
(a, -b, c) is -conj of that of (a, b, c), and so is the argument
omega2_value gives the kernel there, up to a translation by 1; the value
there is exactly the conjugate.  So an orbit is named by its form with
b >= 0 and weighs 2 iff 0 < b < a < c, when (a, -b, c) is reduced too;
any other form is self-conjugate, with a real value.

The precision policy: a computation with CM values starts at auto_prec, 64
bits above an a-priori bound on the bits of what it must round to integers
from a derived height per form (form_height), and doubles the precision at
most MAX_RETRIES times (_doubling, the one loop) while a value fails to
round within 2^-TOL_BITS.  Each step runs at the precision its own result
needs, plus GUARD_BITS: the evaluators and the CM points they are given
(one square root of d per discriminant) at the computation's precision;
every product of their values on complex fixed-point ints at scale
2^(prec + GUARD_BITS), like the kernel, with a bound of its own
(_pair_product, integer_polynomial); a class polynomial at the auto_prec of
its own discriminant, whatever computation asked for it; and the log gate
of the verification driver at the bits it tests (gate_prec).  The analytic
side of a pair is one call, pair_norm: one loop rounds its product, and
then each of its two class polynomials runs its own loop once.

One table serves every computation with the class values of a
discriminant (class_values), keyed by (class-value function, d): the values
at the highest precision computed so far, read at any lower precision and
recomputed only for more bits (a higher auto_prec, a retry), and their
integer polynomial prod (X - v) (class_poly), kept once it rounds.  It holds
TABLE_SIZE entries and drops the oldest when full.  Values read from it may
carry more bits than asked for: what rounds does not depend on its state,
but digits below the working precision (of a log of CM values or a log
residual, say) can differ between a cold and a warm table within one
process.
"""

from itertools import product
from math import ceil, log, log2, pi, sqrt

import mpmath

from .classgroup import reduced_forms, heegner_point

GUARD_BITS = 64
TOL_BITS = 32
MAX_RETRIES = 3
TABLE_SIZE = 256

_table = {}     # (value, d) -> [prec, class values, integer polynomial]


def _to_mpc(tau):
    tau = mpmath.mpmathify(tau)
    if mpmath.im(tau) <= 0:
        raise ValueError("tau must lie in the upper half plane")
    return tau


def _series_order(tau, prec):
    """Number of q-powers needed so the tail is below 2^-(prec+16)."""
    y = float(mpmath.im(tau))
    return max(8, ceil((prec + 16) * log(2) / (2 * pi * y)) + 8)


def _fixed(z, w):
    """The complex fixed-point pair (re, im) of z at scale 2^w; each part
    truncates, by less than a unit 2^-w."""
    return int(mpmath.ldexp(z.real, w)), int(mpmath.ldexp(z.imag, w))


def _mul(x, y, w):
    """Product of complex fixed-point pairs (re, im) at scale 2^w by three
    int products (Gauss); each part rounds down, by less than a unit 2^-w."""
    (a, b), (c, d) = x, y
    k = c * (a + b)
    return (k - b * (c + d)) >> w, (k + a * (d - c)) >> w


def _sqr(x, w):
    """Square of a complex fixed-point pair by two int products,
    ((a + b)(a - b), 2ab); each part rounds down, by less than a unit."""
    a, b = x
    return (a + b) * (a - b) >> w, a * b >> (w - 1)


def _euler_products(q, order, w):
    """E(q) = prod_{n >= 1} (1 - q^n) = 1 + sum_k (-1)^k (q^(k(3k-1)/2) +
    q^(k(3k+1)/2)) while k(3k-1)/2 <= order, and E(q^2) by the squares of
    the same terms while k(3k-1)/2 <= order // 2, for a fixed-point pair q
    at scale 2^w.  The exponents differ by k, and k(3k+1)/2 and
    (k+1)(3k+2)/2 by 2k + 1, so each power of q is a running product."""
    e1 = e2 = 1 << w, 0                     # E(q), E(q^2)
    qk, q2 = q, _sqr(q, w)                  # q^k, q^2
    q_step = _mul(q2, q, w)                 # q^(2k+1)
    qe = q                                  # q^(k(3k-1)/2)
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        qe2 = _mul(qe, qk, w)               # q^(k(3k+1)/2)
        sign = -1 if k % 2 else 1
        e1 = (e1[0] + sign * (qe[0] + qe2[0]),
              e1[1] + sign * (qe[1] + qe2[1]))
        if k * (3 * k - 1) // 2 <= order // 2:
            x, y = _sqr(qe, w), _sqr(qe2, w)
            e2 = e2[0] + sign * (x[0] + y[0]), e2[1] + sign * (x[1] + y[1])
        qe = _mul(qe2, q_step, w)
        qk = _mul(qk, q, w)
        q_step = _mul(q_step, q2, w)
        k += 1
    return e1, e2


def _eta_quotient(tau, prec):
    """s = (eta(2 tau)/eta(tau))^24 = q R, R = (E(q^2) / E(q))^24, to a
    relative 2^-(prec+8) at every prec and Im tau >= sqrt(3)/4.  Only q and
    q R are mpmath numbers; E(q), E(q^2) (_euler_products), their quotient
    r and R = (((r^2 r)^2)^2)^2 are pairs of ints at scale 2^w,
    w = prec + GUARD_BITS + 8, r scaled by a power of two to modulus >= 1.

    The bound, with u = 2^-w, |q| < 0.066 and K <= sqrt(2 order / 3) + 1
    steps of the walk: each _mul or _sqr rounds by less than sqrt(2) u, and
    its factors q^n, n >= 1, have modulus below 0.066, so every power is
    off by under sqrt(2) u / (1 - 2 * 0.066) < 1.7 u and E(q), E(q^2) by
    under 3.4 K u, plus tails below 2^-(prec+19) (_series_order).  As
    0.92 < |E(q)|, |E(q^2)| < 1.08, r is off by a relative 7.4 K u + 1.6 u
    + 2^-(prec+17) with the division, and R by 24 times that, plus 33 u
    from the chain (|r| >= 1) and 48 u from rounding q to w bits
    (|d log R / dq| < 24 * 1.4).  So s is off by under 2^-(prec+12) +
    300 K u, plus the mpmath roundings of q and q R: below 2^-(prec+8) for
    every order below 10^32."""
    if prec < 1:
        raise ValueError(f"working precision {prec} must be at least 1 bit")
    order = _series_order(tau, prec)
    q = mpmath.expjpi(2 * tau)
    w = prec + GUARD_BITS + 8
    (c, d), (a, b) = _euler_products(_fixed(q, w), order, w)
    n = c * c + d * d
    r = ((a * c + b * d) << w) // n, ((b * c - a * d) << w) // n
    e = max(0, w + 1 - max(map(abs, r)).bit_length())
    r = r[0] << e, r[1] << e
    r3 = _mul(_sqr(r, w), r, w)
    r24 = _sqr(_sqr(_sqr(r3, w), w), w)
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


def form_height(value, d, a):
    """The height H of the form (a, b, c) of d for value (j_value or
    omega2_value): a bound on log2(2|v|) and on log2(1 + |v|) for its class
    value v.  |q| = 2^-h at the CM point, h = pi sqrt|d| / (a log 2) > 7.8
    (Enge, Math. Comp. 2009):
    - j = q^-1 + sum_{n >= 0} c(n) q^n, sum |c(n)| e^(-pi sqrt 3 n) < 2079
      (2078.8 to n = 39, the rest < 2^-200): H = h + 1 + log2(1 + 2079 2^-h).
    - omega2 = 4096 q prod (1 + q^n)^24 at the odd-norm point.  Odd a:
      |omega2| <= 4096 2^-h prod (1 + e^(-pi sqrt 3 n))^24 < 4096 * 1.11 *
      2^-h and log2(2 * 4096 * 1.11) < 13.2, so H = max(1, 13.2 - h), the 1
      for |v| < 1.  Even a: 1 / (q' prod (1 + q'^n)^24), |q'| = 2^(-h/2) <=
      e^(-pi sqrt 3 / 2), so 1 < |omega2| <= 2^(h/2) / prod (1 -
      e^(-pi sqrt 3 n / 2))^24 < 5.74 * 2^(h/2): H = h/2 + 3.6."""
    h = pi * sqrt(-d) / (a * log(2))
    if value is not omega2_value:
        return h + 1 + log2(1 + 2079 * 2 ** -h)
    return max(1, 13.2 - h) if a % 2 else h / 2 + 3.6


def auto_prec(*discs, value=j_value):
    """Working precision in bits for the values of value (j_value or
    omega2_value) at the points of one or two discriminants: 64 + ceil(S),
    where S sums, over every tuple of one reduced form per discriminant,
    the largest form_height in the tuple.

    So S bounds the bits of prod (v1 - v2), as |v1 - v2| <= 2 max(|v1|,
    |v2|), and of the coefficients of each prod_Q (X - v_Q), at most
    prod (1 + |v_Q|).  The 64 bits: from the kernel's relative 2^-(prec+8)
    on s, omega2 is off by 2^-(prec+8) |v| and j = (1 + 256 s)^3 / s by
    2^-(prec+8) (|v| + 768 |1 + 256 s|^2) < 2^-(prec+8) (|v| + 3900), both
    below 2^(H - prec - 6); so v1 - v2 is off by twice that at the larger
    H, and as the other factors have S - H bits, the product of h1 h2
    factors by 2 h1 h2 2^(S - prec - 6) < 2^-TOL_BITS for any h1 h2 < 2^37,
    with TOL_BITS to spare above its S bits."""
    heights = [[form_height(value, d, a) for a, _, _ in reduced_forms(d)]
               for d in discs]
    return 64 + ceil(sum(map(max, product(*heights))))


def cm_values(value, d, prec):
    """One (value(form, tau, prec), weight) pair per conjugate orbit of the
    reduced forms of d: at the CM point tau of each form (a, b, c) with
    b >= 0, in the order of reduced_forms(d).  The weight is 2 iff
    0 < b < a < c, when (a, -b, c) is reduced too and its value is the
    conjugate; else 1, and the form is self-conjugate (b = 0, b = a or
    a = c), its value real.  The forms share one square root of d."""
    with mpmath.workprec(prec + GUARD_BITS):
        root = mpmath.sqrt(d)
        return [(value((a, b, c), heegner_point((a, b, c), d, root), prec),
                 2 if 0 < b < a < c else 1)
                for a, b, c in reduced_forms(d) if b >= 0]


def _doubling(prec, attempt):
    """The one precision loop: attempt(p) at p = prec, then prec doubled at
    most MAX_RETRIES times, until a result is not None.  Returns the
    precisions tried and the last result."""
    for k in range(MAX_RETRIES + 1):
        result = attempt(prec * 2 ** k)
        if result is not None:
            break
    return [prec * 2 ** i for i in range(k + 1)], result


def recognize_integer(z, w):
    """The integer n nearest to a complex fixed-point pair z = (re, im) at
    scale 2^w, or None when |z - n| is not below 2^-TOL_BITS."""
    x, y = z
    n = (x + (1 << (w - 1))) >> w
    x -= n << w
    return n if x * x + y * y < 1 << 2 * (w - TOL_BITS) else None


def integer_polynomial(values, w):
    """prod (X - v) over the class values of one discriminant, given as the
    (value, weight) pairs of cm_values, expanded on fixed-point ints at
    scale 2^w and rounded (recognize_integer): one factor X^2 - 2 Re(v) X +
    |v|^2 at weight 2, and X - v at weight 1, whose value is real.  The
    integer coefficients, leading first, or None when a coefficient does not
    round or a value of weight 1 has an imaginary part of at least
    2^-TOL_BITS.

    The bound, at w = auto_prec(d) + GUARD_BITS >= S + 128 (S the height
    sum of auto_prec): a step floors at most two terms per coefficient, and
    the floor of |v|^2 puts its factor off by under 2^-w.  The later
    factors multiply the first by at most prod (1 + |v|) <= 2^S in L1
    norm, and the other factors bound the second by the same 2^S.  So the
    h steps cost under 3 h 2^(S - w) <= 2^-(126 - log2 h), far below the
    kernel's share of auto_prec, as is the truncation of v to scale 2^w
    beside the kernel's 2^(H - prec - 6) on v."""
    poly = [1 << w]
    for v, weight in values:
        re, im = _fixed(v, w)
        if weight == 2:
            factor = -2 * re, (re * re + im * im) >> w
        elif abs(im) >= 1 << (w - TOL_BITS):
            return None
        else:
            factor = -re,
        nxt = poly + [0] * len(factor)
        for k, f in enumerate(factor, 1):
            for i, x in enumerate(poly):
                nxt[i + k] += f * x >> w
        poly = nxt
    ints = tuple(recognize_integer((x, 0), w) for x in poly)
    return None if None in ints else ints


def class_values(value, d, prec):
    """The class values of d, one (value, weight) pair per conjugate orbit
    (cm_values), from the table entry of (value, d).  A request at or below
    the entry's precision reads its values, which meet the kernel's
    2^-(prec+8) bound at any lower prec too; one above it recomputes and
    replaces them, and keeps the entry's polynomial (class_poly), which is
    exact.  TABLE_SIZE entries hold every fundamental |d| <= 600 of both
    functions (184 of j, 63 of omega2); the oldest is dropped when the
    table is full."""
    if prec < 1:
        raise ValueError(f"working precision {prec} must be at least 1 bit")
    key = value, d
    entry = _table.get(key)
    if entry is None or entry[0] < prec:
        vals = tuple(cm_values(value, d, prec))
        if entry is None and len(_table) >= TABLE_SIZE:
            del _table[next(iter(_table))]
        entry = _table[key] = [prec, vals, entry and entry[2]]
    return entry[1]


def class_poly(value, d):
    """The integer polynomial prod (X - v) over the class values of d, kept
    in the table entry of (value, d) once it rounds and read from it first:
    integer_polynomial at auto_prec(d) + GUARD_BITS, whatever precision the
    entry's values have, that precision doubled at most MAX_RETRIES times
    (_doubling) while it does not round; None if it never does."""
    entry = _table.get((value, d))
    if entry and entry[2]:
        return entry[2]
    _, poly = _doubling(auto_prec(d, value=value), lambda prec:
                        integer_polynomial(class_values(value, d, prec),
                                           prec + GUARD_BITS))
    _table[value, d][2] = poly
    return poly


def _pair_product(vals1, vals2, w):
    """prod (v2 - v1) over the class values v1 of d1 and v2 of d2, from the
    (value, weight) pairs of their conjugate orbits (cm_values), as a
    complex fixed-point pair at scale 2^w (_mul): a v1 of weight 2 gives
    (v2 - v1)(v2 - conj v1), and a v2 of weight 2 the factor
    |prod_{v1} (v2 - v1)|^2, as the v1 are closed under conjugation.

    The bound, at w = prec + GUARD_BITS >= S + 128 (S the height sum of
    auto_prec): each of the h1 h2 factors has |v2 - v1| <= 2^H, with
    H >= 1 the larger height of its pair (form_height), so every subset
    product of them is at most 2^S.  A product into 1 is exact, so at most
    h1 h2 products round, each by under sqrt(2) 2^-w, and the rest of the
    product multiplies that by a subset product, doubled inside a |.|^2.
    So the roundings cost under 2^(S - w + 2 + log2(h1 h2)) <=
    2^-(126 - log2(h1 h2)), and the truncation of each value to scale 2^w
    is far below the kernel's 2^(H - prec - 6) on it."""
    product = 1 << w, 0
    vals1 = [(_fixed(v1, w), w1) for v1, w1 in vals1]
    for v2, w2 in vals2:
        x2, y2 = _fixed(v2, w)
        pv = 1 << w, 0
        for (x1, y1), w1 in vals1:
            f = x2 - x1, y2 - y1
            g = _mul(f, (x2 - x1, y2 + y1), w) if w1 == 2 else f
            pv = _mul(pv, g, w)
        if w2 == 2:
            pv = (pv[0] * pv[0] + pv[1] * pv[1]) >> w, 0
        product = _mul(product, pv, w)
    return product


def pair_norm(value, d1, d2):
    """The analytic side of the pair d1, d2 for value (j_value or
    omega2_value): their pair product (_pair_product) at auto_prec(d1, d2)
    rounded to an integer N, doubling the precision (_doubling) while N does
    not round; then each class polynomial (class_poly) once, from the values
    the loop left.  Returns the precisions tried and (N, |prod|^2, H_d1,
    H_d2), |prod|^2 exact as (mantissa, binary exponent) and a polynomial
    None if it never rounds; or None if N never rounds."""
    def attempt(prec):
        w = prec + GUARD_BITS
        x, y = _pair_product(*(class_values(value, d, prec)
                               for d in (d1, d2)), w)
        n = recognize_integer((x, y), w)
        return None if n is None else (n, (x * x + y * y, -2 * w))
    tried, norm = _doubling(auto_prec(d1, d2, value=value), attempt)
    return tried, norm and (*norm, *(class_poly(value, d) for d in (d1, d2)))


def gate_prec(prec):
    """p_g, the bits of the verification driver's log gate at working
    precision prec: it tests |lhs_log - rhs_log| < 2^-(prec//4), and
    p_g = prec // 4 + GUARD_BITS + prec.bit_length() puts each log off by
    under 2^-(prec//4 + 60).

    With b = prec.bit_length(): log |N| < S log 2 < prec and the scale is
    at most 2, so lhs_log is below 2 prec <= 2^(b+1), and so is rhs_log
    wherever the factor check holds (it is then scale log |N|).  A unit in
    the last place of such a number at p_g bits is 2^(b + 1 - p_g) =
    2^-(prec//4 + 63), and each log is a few roundings of its argument, of
    itself and of the scale, each within a unit: under 8 units."""
    return prec // 4 + GUARD_BITS + prec.bit_length()


def class_polynomial(d):
    """Hilbert class polynomial of the imaginary quadratic order of
    discriminant d, as a list of integer coefficients, leading first: the
    polynomial of the j entry of d (class_poly)."""
    poly = class_poly(j_value, d)
    if poly is None:
        raise ArithmeticError(f"class polynomial for d={d} did not stabilize")
    return list(poly)
