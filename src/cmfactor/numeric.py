"""Arbitrary-precision CM values of j and the level-2 Hauptmodul, and the
one precision policy behind every computation with them.

One kernel serves both CM-value functions: the eta quotient
s(tau) = (eta(2 tau)/eta(tau))^24 on fixed-point integers, with
j = (1 + 256 s)^3 / s and omega2 = 4096 s (Enge, "The complexity of class
polynomial computation via floating point approximations", Math. Comp.
2009), accurate to 2^-(prec+8) relative to s where Im >= sqrt(3)/4.  A
class value is taken at the CM point of the reduced form of the class, for
omega2 by way of an odd-norm point (omega2_value), once per conjugate orbit
of forms (cm_values).  All of it is on ints, CM points and class values as
complex fixed-point pairs at scale 2^(prec + GUARD_BITS); mpmath numbers
appear only in the log gate (verify) and in printing.

The precision policy: every computation with CM values runs at the bits
its own result needs, plus GUARD_BITS, with a stated bound.  A class
polynomial starts at auto_prec of its discriminant, 64 bits above a bound
from a height per form (form_height), and is the one loop: it doubles the
precision at most MAX_RETRIES times while a coefficient fails to round
within 2^-TOL_BITS (class_poly).  The pair product runs at p_req, the bits
at which it matches N, known exactly beforehand as the resultant of the
class polynomials (pair_norm), and the log gate at gate_prec.

One table keeps the class values of each (class-value function, d) at the
highest precision computed so far (class_values) and their polynomial
(class_poly).  What rounds does not depend on its state, but digits below
the working precision, of a log of CM values, say, can differ between a
cold and a warm table within one process.
"""

from itertools import product
from math import ceil, floor, gcd, isqrt, log, log2, pi, sqrt

from mpmath.libmp import ln2_fixed, pi_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_basecase

from .classgroup import reduced_forms

GUARD_BITS = 64
TOL_BITS = 32
MAX_RETRIES = 3
TABLE_SIZE = 256

_table = {}     # (value, d) -> [prec, class values, integer polynomial]


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


def _div(x, y, w):
    """Quotient x / y of complex fixed-point pairs at one scale, as a pair at
    scale 2^w; each part rounds down, by less than a unit 2^-w."""
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return ((a * c + b * d) << w) // n, ((b * c - a * d) << w) // n


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
    """s = (eta(2 tau)/eta(tau))^24 = q R, R = (E(q^2) / E(q))^24, at the
    point tau = (x, y), ints at scale 2^W, W = prec + GUARD_BITS, as (t, k):
    s = t 2^-k, t a pair at scale 2^w, w = W + 8, within a relative
    2^-(prec+8) of s at every point within a unit 2^-W of tau per part, at
    every prec and Im tau >= sqrt(3)/4.  q = m 2^-k, 1 <= |m| < 2, from
    mpmath's exp_basecase, cos_sin_fixed, pi_fixed and ln2_fixed on ints;
    E(q), E(q^2) (_euler_products at q = m >> k), their quotient r, scaled
    by 2^e to modulus >= 1, and R = (((r^2 r)^2)^2)^2 are pairs at scale
    2^w; s is m R, so its relative error does not grow with k.

    The bound, with u = 2^-w, |q| < 0.066 and K <= sqrt(2 order / 3) + 1
    steps of the walk: each _mul or _sqr rounds by less than sqrt(2) u, and
    its factors q^n, n >= 1, have modulus below 0.066, so every power is
    off by under sqrt(2) u / (1 - 2 * 0.066) < 1.7 u and E(q), E(q^2) by
    under 3.4 K u, plus tails below 2^-(prec+19) (order).  As
    0.92 < |E(q)|, |E(q^2)| < 1.08, r is off by a relative 7.4 K u + 1.6 u
    + 2^-(prec+17) with the division, and R by 24 times that, plus 33 u
    from the chain (|r| >= 1) and 48 u from rounding q to w bits
    (|d log R / dq| < 24 * 1.4).  With pi and log 2 within a unit,
    k log 2 - 2 pi y in [0, log 2), k < 9.1 y + 1, is within (11.1 y + 2) u
    and 2 pi x, its quarter turns exact, within 3 u; exp_basecase and
    cos_sin_fixed scale their argument down by 2^8 or more (a table step,
    or squarings or doublings with as many guard bits), so each sums at
    most w/8 + 4 terms, each rounded down twice, and is within w/4 + 16 u.
    So m is off by a relative c u, c = w + 12 y + 50, q R by (1 + 24 * 1.4
    * 0.066) c u < 3.3 c u, and m R rounds by 2 u.  A unit 2^-W = 2^8 u
    off tau per part moves s by a relative |d log s / d tau| sqrt(2) 2^8 u
    < 2^13 u, as |d log s / d tau| < 2 pi (1 + 2.3).  So s is off by under
    2^-(prec+12) + 300 K u + 3.3 c u + 2^13 u: below 2^-(prec+8) for every
    order below 10^32, w below 2^60 and y below 2^55."""
    if prec < 1:
        raise ValueError(f"working precision {prec} must be at least 1 bit")
    (x, y), W = tau, prec + GUARD_BITS
    if y <= 0:
        raise ValueError("tau must lie in the upper half plane")
    w = W + 8
    pi_w, ln2 = pi_fixed(w), ln2_fixed(w)
    z = y * pi_w >> (W - 1)                 # 2 pi y at scale 2^w
    k = -(-z // ln2)                        # k log 2 - 2 pi y in [0, log 2)
    ey = exp_basecase(k * ln2 - z, w)       # e^(-2 pi y) 2^k
    n, f = divmod(x % (1 << W) << 2, 1 << W)   # x mod 1 = (n + f 2^-W) / 4
    cos, sin = cos_sin_fixed(n * pi_fixed(w - 1) + (f * pi_w >> (W + 1)), w)
    m = ey * cos >> w, ey * sin >> w
    # q-powers for a tail below 2^-(prec+16)
    order = max(8, ceil((prec + 16) * log(2) / (2 * pi * (y / 2 ** W))) + 8)
    (c, d), (a, b) = _euler_products((m[0] >> k, m[1] >> k), order, w)
    r = _div((a, b), (c, d), w)
    e = max(0, w + 1 - max(map(abs, r)).bit_length())
    r = r[0] << e, r[1] << e
    r3 = _mul(_sqr(r, w), r, w)
    r24 = _sqr(_sqr(_sqr(r3, w), w), w)
    return _mul(m, r24, w), k + 24 * e


def eval_j(tau, prec):
    """Klein j-invariant (1 + 256 s)^3 / s = u^3 / (t 2^(2k)) for s = t 2^-k
    (_eta_quotient), u = 2^k (1 + 256 s); tau and j are pairs at scale
    2^(prec + GUARD_BITS), and the int roundings add under 2 units."""
    (x, y), k = _eta_quotient(tau, prec)
    w = prec + GUARD_BITS + 8
    u = (1 << (w + k)) + (x << 8), y << 8
    return _div(_mul(_sqr(u, w), u, w), (x << 2 * k, y << 2 * k),
                prec + GUARD_BITS)


def eval_omega2(tau, prec):
    """Level-2 Hauptmodul 2^12 Delta(2 tau)/Delta(tau) = 4096 s, a shift of
    s = t 2^-k (_eta_quotient) off by under a unit, on pairs as eval_j."""
    (x, y), k = _eta_quotient(tau, prec)
    return x << 4 >> k, y << 4 >> k


def j_value(form, tau, prec):
    """j at the class of form, whose CM point is tau."""
    return eval_j(tau, prec)


def omega2_value(form, tau, prec):
    """omega2 at the odd-norm point of the class of the reduced form
    (a, b, c), whose CM point is tau, a pair at scale 2^W, W = prec +
    GUARD_BITS, as a pair at that scale: omega2(tau) if a is odd, else
    2^12 / omega2(tau/2) if c is odd, else 2^12 / omega2((tau + 1)/2), at
    e = max(0, ceil(H) - GUARD_BITS) more bits, H = form_height.  As
    |omega2| >= 2^(13 - H) there, its truncation moves 2^12 / omega2 by
    under 2^(2H - 13.5 - W - e) <= 2^(H - prec - 13.5), within auto_prec's
    bound; the halved point, off by a unit 2^-W, moves s as little."""
    a, b, c = form
    if a % 2:
        return eval_omega2(tau, prec)
    e = max(0, ceil(form_height(omega2_value, b * b - 4 * a * c, a))
            - GUARD_BITS)
    (x, y), W = tau, prec + GUARD_BITS
    half = (x if c % 2 else x + (1 << W)) << e >> 1, y << e >> 1
    return _div((4096 << W + e, 0), eval_omega2(half, prec + e), W)


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


def form_log(value, d, a):
    """An estimate of log2 |v|, not a bound: log2 of the leading term of |v|
    in form_height, 2^h for j, 2^(12 - h) or 2^(h/2) for omega2."""
    h = pi * sqrt(-d) / (a * log(2))
    if value is not omega2_value:
        return h
    return 12 - h if a % 2 else h / 2


def auto_prec(*discs, value=j_value):
    """Working precision in bits for the values of value (j_value or
    omega2_value) at the points of one or two discriminants: 64 + ceil(S),
    S the sum over every tuple of one reduced form per discriminant of the
    largest form_height in the tuple.  So S bounds the bits of
    prod (v1 - v2), as |v1 - v2| <= 2 max(|v1|, |v2|), and of the
    coefficients of each prod_Q (X - v_Q), at most prod (1 + |v_Q|).  The
    64 bits: from the kernel's relative 2^-(prec+8) on s, omega2 is off by
    2^-(prec+8) |v| and j = (1 + 256 s)^3 / s by 2^-(prec+8) (|v| + 768
    |1 + 256 s|^2) < 2^-(prec+8) (|v| + 3900), plus 2 units 2^-(prec +
    GUARD_BITS) of int roundings, all below 2^(H - prec - 6); so v1 - v2 is
    off by twice that at the larger H, and as the other factors have S - H
    bits, the product of h1 h2 factors by 2 h1 h2 2^(S - prec - 6) <
    2^-TOL_BITS for any h1 h2 < 2^37, with TOL_BITS to spare above its S
    bits."""
    heights = [[form_height(value, d, a) for a, _, _ in reduced_forms(d)]
               for d in discs]
    return 64 + ceil(sum(map(max, product(*heights))))


def cm_values(value, d, prec):
    """One (value(form, tau, prec), weight) pair per conjugate orbit of the
    reduced forms of d, at the CM point tau of each form (a, b, c) with
    b >= 0, in the order of reduced_forms(d).  The weight is 2 iff
    0 < b < a < c, when (a, -b, c) is reduced too and its value is the
    conjugate: both functions have real q-coefficients, and its CM point,
    like the argument omega2_value gives the kernel there up to a shift by
    1, is -conj of that of (a, b, c).  Else it is 1, the form self-conjugate
    (b = 0, b = a or a = c), its value real.  Values and CM points
    (b + sqrt d)/(2a) are pairs at scale 2^(prec + GUARD_BITS), each point
    rounded down by under a unit, by one isqrt of |d| for all forms of d."""
    W = prec + GUARD_BITS
    root = isqrt(-d << 2 * W)
    return [(value((a, b, c), ((b << W) // (2 * a), root // (2 * a)), prec),
             2 if 0 < b < a < c else 1)
            for a, b, c in reduced_forms(d) if b >= 0]


def recognize_integer(z, w):
    """The integer n nearest to a complex fixed-point pair z = (re, im) at
    scale 2^w, or None when |z - n| is not below 2^-TOL_BITS."""
    x, y = z
    n = (x + (1 << (w - 1))) >> w
    x -= n << w
    return n if x * x + y * y < 1 << 2 * (w - TOL_BITS) else None


def integer_polynomial(values, w):
    """prod (X - v) over the class values of one discriminant, given as the
    (value, weight) pairs of cm_values, each value a pair at scale 2^w,
    expanded on fixed-point ints at that scale and rounded
    (recognize_integer): one factor X^2 - 2 Re(v) X + |v|^2 at weight 2,
    and X - v at weight 1, whose value is real.  The integer coefficients,
    leading first, or None when a coefficient does not round or a value of
    weight 1 has an imaginary part of at least 2^-TOL_BITS.  The bound, at
    w = auto_prec(d) + GUARD_BITS >= S + 128 (S the height sum of
    auto_prec): a step floors at most two terms per coefficient, and |v|^2
    by under 2^-w; the other factors multiply each by at most
    prod (1 + |v|) <= 2^S in L1 norm.  So the h steps cost under
    3 h 2^(S - w) <= 2^-(126 - log2 h), as does the rounding of each v to
    2^-w, far below the kernel's 2^(H - prec - 6) on v."""
    poly = [1 << w]
    for (re, im), weight in values:
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


def resultant(f, g):
    """Exact resultant of integer polynomials (leading coefficient first and
    nonzero), the determinant of their Sylvester matrix: the subresultant
    PRS (Collins, J. ACM 1967) on their primitive parts, as in Cohen, "A
    Course in Computational Algebraic Number Theory", Alg. 3.3.7."""
    ca, cb = gcd(*f), gcd(*g)
    a, b = [x // ca for x in f], [x // cb for x in g]
    m, n = len(a) - 1, len(b) - 1
    t, s, lg, h = ca ** n * cb ** m, 1, 1, 1
    if m < n:                   # Res(b, a) = (-1)^(m n) Res(a, b)
        a, b, m, n, s = b, a, n, m, (-1) ** (m * n)
    while n > 0:
        delta, s = m - n, -s if m & n & 1 else s
        r, lb, tail = list(a), b[0], b[1:] + [0] * delta
        for i in range(delta + 1):      # lb^(delta + 1) a = b q + r
            r[i + 1:] = [lb * x - r[i] * y for x, y in zip(r[i + 1:], tail)]
        r = r[delta + 1:]
        while r and not r[0]:
            del r[0]
        a, b, m = b, [x // (lg * h ** delta) for x in r], n
        n, lg = len(b) - 1, a[0]
        h = lg ** delta * h // h ** delta           # h^(1 - delta) lg^delta
    # h^(1 - m) lc(b)^m, which is 0 when b = 0 (then m > 0)
    return s * t * (b[0] if b else 0) ** m * h // h ** m


def class_values(value, d, prec):
    """The class values of d (cm_values) at prec from the table entry of
    (value, d): at or below the entry's precision by a right shift, as they
    meet the kernel's bound at any lower prec too, else recomputed, keeping
    the entry's exact polynomial.  TABLE_SIZE entries hold every fundamental
    |d| <= 600 of both functions (184 of j, 63 of omega2), the oldest
    dropped when full."""
    if prec < 1:
        raise ValueError(f"working precision {prec} must be at least 1 bit")
    entry = _table.get((value, d))
    if entry is None or entry[0] < prec:
        vals = tuple(cm_values(value, d, prec))
        if entry is None and len(_table) >= TABLE_SIZE:
            del _table[next(iter(_table))]
        entry = _table[value, d] = [prec, vals, entry and entry[2]]
    e = entry[0] - prec
    return tuple(((x >> e, y >> e), weight) for (x, y), weight in entry[1])


def class_poly(value, d):
    """The precisions tried and the integer polynomial prod (X - v) over the
    class values of d, kept in the table entry of (value, d) once it rounds
    and read from it first: integer_polynomial at auto_prec(d) + GUARD_BITS,
    whatever precision the entry's values have, that precision doubled at
    most MAX_RETRIES times while it does not round, else None."""
    entry = _table.get((value, d))
    if entry and entry[2]:
        return entry[2]
    tried, p = [], auto_prec(d, value=value)
    for k in range(MAX_RETRIES + 1):
        tried.append(p << k)
        poly = integer_polynomial(class_values(value, d, tried[-1]),
                                  tried[-1] + GUARD_BITS)
        if poly:
            _table[value, d][2] = tried, poly
            break
    return tried, poly


def _pair_product(vals1, vals2, w):
    """prod (v2 - v1) over the class values v1 of d1 and v2 of d2, from the
    (value, weight) pairs of their conjugate orbits (cm_values), on pairs at
    scale 2^w (_mul): a v1 of weight 2 gives (v2 - v1)(v2 - conj v1), and a
    v2 of weight 2 the factor |prod_{v1} (v2 - v1)|^2, as the v1 are closed
    under conjugation.

    The bound, at w = p + GUARD_BITS for values at p bits: every subset
    product of the h1 h2 factors is at most 2^S (auto_prec).  At most
    h1 h2 products round, each by under sqrt(2) 2^-w, times a subset
    product, doubled inside a |.|^2: under h1 h2 2^(S - w + 2), as is the
    rounding of the values to 2^-w, 2^-57 of the kernel's h1 h2
    2^(S - p - 5)."""
    product = 1 << w, 0
    for (x2, y2), w2 in vals2:
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
    omega2_value), at prec = auto_prec(d1, d2), S = prec - 64: values of
    each d whose class polynomial (class_poly) is not kept yet at
    max(auto_prec(d), p0), both polynomials, N = (-1)^(h1 h2) Res(H_d1,
    H_d2), then the product (_pair_product) at p_req, taking values again
    only for more bits.  Returns prec, {d: (precisions tried, polynomial or
    None)} and (N, product, w), the product at scale 2^w, or None for the
    last if a polynomial never rounds.

    p_req: values at p bits, each off by under 2^(H - p - 6) (auto_prec),
    put the product off by under h1 h2 2^(S - p - 5), and its roundings by
    2^-57 of that.  With |N| >= 2^(b-1) and h1 h2 < 2^c, the product is
    within 2^-(prec//4 + TOL_BITS) |N| at p = prec//4 + TOL_BITS + S - b +
    c - 3: p_req, capped at prec, where it is within 2^-TOL_BITS of N.  So
    verify's checks at 2^-(prec//4) hold with TOL_BITS to spare.  p0 is
    p_req before N is known, for b = floor(L) - 2 sqrt(h1 h2), L the sum
    over the pairs of forms of max(l1, l2) (form_log): each |v2 - v1| is
    about 2^max(l1, l2), off by a bit or so either way, and h1 h2 such
    deviations add up like a random walk.  One evaluation at p0 costs less
    than two, at auto_prec(d) and p_req, which cost cm-large 25 to 33 %."""
    prec = auto_prec(d1, d2, value=value)

    def bits(b, h12):       # p_req for an N of b bits
        return min(prec, prec // 4 + TOL_BITS + prec - 64 - b
                   + h12.bit_length() - 3)
    cold = [d for d in (d1, d2) if not _table.get((value, d), [None] * 3)[2]]
    if cold:
        logs = [[form_log(value, d, a) for a, _, _ in reduced_forms(d)]
                for d in (d1, d2)]
        h12 = len(logs[0]) * len(logs[1])
        p0 = bits(floor(sum(map(max, product(*logs)))) - 2 * isqrt(h12), h12)
        for d in cold:
            class_values(value, d, max(auto_prec(d, value=value), p0))
    polys = {d: class_poly(value, d) for d in (d1, d2)}
    (_, f), (_, g) = polys.values()
    if None in (f, g):
        return prec, polys, None
    h12 = (len(f) - 1) * (len(g) - 1)
    n = (-1) ** h12 * resultant(f, g)
    w = bits(abs(n).bit_length(), h12) + GUARD_BITS
    vals = (class_values(value, d, w - GUARD_BITS) for d in (d1, d2))
    return prec, polys, (n, _pair_product(*vals, w), w)


def gate_prec(prec):
    """p_g = prec // 4 + GUARD_BITS + b, b = prec.bit_length(), the bits of
    the log gate, |lhs_log - rhs_log| < 2^-(prec//4), at working precision
    prec: each log is then off by under 2^-(prec//4 + 60).  log |N| <
    S log 2 < prec and the scale is at most 2, so lhs_log is below
    2 prec <= 2^(b+1), as is rhs_log where the factor check holds (it is
    then scale log |N|).  Its unit in the last place at p_g bits is
    2^-(prec//4 + 63), and each log is a few roundings (of its argument,
    itself and the scale), each within a unit: under 8 units."""
    return prec // 4 + GUARD_BITS + prec.bit_length()


def class_polynomial(d):
    """Hilbert class polynomial of the imaginary quadratic order of
    discriminant d, as a list of integer coefficients, leading first: the
    polynomial of the j entry of d (class_poly)."""
    _, poly = class_poly(j_value, d)
    if poly is None:
        raise ArithmeticError(f"class polynomial for d={d} did not stabilize")
    return list(poly)
