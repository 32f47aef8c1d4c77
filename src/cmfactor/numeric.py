"""Arbitrary-precision evaluation of eta, j, and the level-2 Hauptmodul.

One kernel serves both CM-value functions: the eta quotient
t(tau) = (eta(tau)/eta(2 tau))^24, from which j = (t + 256)^3 / t^2 and
omega2 = 4096 / t (Enge, "The complexity of class polynomial computation via
floating point approximations", Math. Comp. 2009).  All evaluators take a
point in the upper half plane and a working precision in bits, and are
accurate to roughly that precision relative to the natural scale of the
function (guard bits are added internally).
"""

from math import ceil, log

import mpmath

GUARD_BITS = 64
TOL_BITS = 32


def _to_mpc(tau):
    tau = mpmath.mpmathify(tau)
    if mpmath.im(tau) <= 0:
        raise ValueError("tau must lie in the upper half plane")
    return tau


def _series_order(tau, prec):
    """Number of q-powers needed so the tail is below 2^-(prec+16)."""
    y = float(mpmath.im(tau))
    return max(8, ceil((prec + 16) * log(2) / (2 * 3.14159265 * y)) + 8)


def _euler_product(q, order):
    """prod_{n >= 1} (1 - q^n) through q^order, by the pentagonal number
    theorem, at current precision.  The exponents k(3k-1)/2 and k(3k+1)/2
    differ by k, and k(3k+1)/2 and (k+1)(3k+2)/2 by 2k + 1, so each power
    of q is a running product, not a call to **."""
    total = mpmath.mpc(1)
    qk = q                   # q^k
    q_step = q * q * q       # q^(2k+1)
    q2 = q * q
    qe = q                   # q^(k(3k-1)/2)
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        qe2 = qe * qk        # q^(k(3k+1)/2)
        term = qe + qe2 if k * (3 * k + 1) // 2 <= order else qe
        total = total - term if k % 2 else total + term
        qe = qe2 * q_step
        qk *= q
        q_step *= q2
        k += 1
    return total


def eval_eta(tau, prec):
    tau = _to_mpc(tau)
    with mpmath.workprec(prec + GUARD_BITS):
        q = mpmath.expjpi(2 * tau)
        prod = _euler_product(q, _series_order(tau, prec))
        return +(mpmath.expjpi(tau / 12) * prod)


def _eta_quotient(tau, prec):
    """t(tau) = (eta(tau)/eta(2 tau))^24 = q^-1 (prod (1 - q^n) /
    prod (1 - q^2n))^24, at the caller's working precision."""
    if prec < 1:
        raise ValueError(f"working precision {prec} must be at least 1 bit")
    order = _series_order(tau, prec)
    q = mpmath.expjpi(2 * tau)
    ratio = _euler_product(q, order) / _euler_product(q * q, order // 2)
    return ratio ** 24 / q


def eval_j(tau, prec):
    """Klein j-invariant, (t + 256)^3 / t^2."""
    tau = _to_mpc(tau)
    with mpmath.workprec(prec + GUARD_BITS):
        t = _eta_quotient(tau, prec)
        return +((t + 256) ** 3 / (t * t))


def eval_omega2(tau, prec):
    """Level-2 Hauptmodul 2^12 Delta(2 tau)/Delta(tau) = 4096 / t."""
    tau = _to_mpc(tau)
    with mpmath.workprec(prec + GUARD_BITS):
        return +(4096 / _eta_quotient(tau, prec))


def recognize_integer(x):
    """Round a complex value to the nearest integer.

    Returns (n, residual) where residual = |x - n|, or None when the residual
    is not below 2^-TOL_BITS.
    """
    x = mpmath.mpmathify(x)
    n = int(mpmath.nint(mpmath.re(x)))
    residual = abs(x - n)
    if residual >= mpmath.mpf(2) ** (-TOL_BITS):
        return None
    return n, residual


def integer_polynomial(roots):
    """Expand prod (X - r) over the roots at current precision and round it:
    the integer coefficients, leading first, or None when a coefficient does
    not round with residual below 2^-TOL_BITS."""
    poly = [mpmath.mpc(1)]
    for r in roots:
        nxt = [mpmath.mpc(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i] += c
            nxt[i + 1] -= c * r
        poly = nxt
    ints = []
    for c in poly:
        rec = recognize_integer(c)
        if rec is None:
            return None
        ints.append(rec[0])
    return ints


def class_polynomial(d, prec=None):
    """Hilbert class polynomial of the imaginary quadratic order of
    discriminant d, as a list of integer coefficients, leading first.

    Evaluates j at each reduced-form CM point and expands prod (X - j); the
    precision is doubled (up to three times) until every coefficient rounds
    to an integer with residual below 2^-TOL_BITS.
    """
    from .classgroup import reduced_forms, heegner_point

    forms = reduced_forms(d)
    if prec is None:
        # |j| at the CM point of (a, b, c) is about exp(pi sqrt|d| / a)
        bits = sum(3.1415927 * abs(d) ** 0.5 / (f[0] * log(2)) for f in forms)
        prec = 64 + ceil(1.2 * bits)
    for _ in range(4):
        with mpmath.workprec(prec + GUARD_BITS):
            ints = integer_polynomial([eval_j(heegner_point(f, d), prec)
                                       for f in forms])
        if ints is not None:
            return ints
        prec *= 2
    raise ArithmeticError(f"class polynomial for d={d} did not stabilize")
