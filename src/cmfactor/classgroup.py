"""Reduced binary quadratic forms, CM points, and odd-norm representatives
for imaginary quadratic class groups."""

from math import gcd, isqrt

import mpmath


def units_w(d):
    """Number of roots of unity in the imaginary quadratic order of
    discriminant d."""
    if d >= 0:
        raise ValueError("d must be negative")
    if d == -3:
        return 6
    if d == -4:
        return 4
    return 2


def reduced_forms(d):
    """All reduced primitive forms (a, b, c) of discriminant d < 0.

    Reduced means |b| <= a <= c, with b >= 0 when |b| = a or a = c.
    """
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError("d must be a negative discriminant")
    forms = []
    amax = isqrt(-d // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a) != 0:
                continue
            c = (b * b - d) // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            forms.append((a, b, c))
    return sorted(forms)


def class_number(d):
    return len(reduced_forms(d))


def heegner_point(form, d):
    """CM point (b + sqrt(d))/(2a) of the form (a, b, c), as an mpc at the
    current working precision."""
    a, b, c = form
    if b * b - 4 * a * c != d:
        raise ValueError("form has wrong discriminant")
    return (b + mpmath.sqrt(mpmath.mpf(d))) / (2 * a)


def form_action(form, g):
    """Right action (a, b, c) . g for g = (r, s; t, u) in SL2(Z): the form
    x, y -> Q(r x + s y, t x + u y)."""
    a, b, c = form
    r, s, t, u = g
    if r * u - s * t != 1:
        raise ValueError("g must have determinant 1")
    aa = a * r * r + b * r * t + c * t * t
    bb = 2 * a * r * s + b * (r * u + s * t) + 2 * c * t * u
    cc = a * s * s + b * s * u + c * u * u
    return (aa, bb, cc)


def odd_norm_representative(form, d):
    """An SL2(Z)-equivalent form (a, b, c) with a odd, plus the certifying
    matrix g with form . g equal to the returned form.

    Requires d = 1 mod 8 so that odd-norm representatives exist in every
    class.  g is the identity when a is odd; else S = (0, -1; 1, 0) when c
    is odd, giving (c, -b, a); else (1, -1; 1, 0) when b > 0 and
    (1, 1; -1, 0) when b < 0, giving the first coefficient a + |b| + c,
    which is odd because a and c are even and b is odd (d is odd).  Each
    case commutes with conjugation: the representative of (a, -b, c) is
    the conjugate form of that of (a, b, c).
    """
    if d >= 0 or d % 8 != 1:
        raise ValueError("odd-norm representatives need d = 1 mod 8")
    a, b, c = form
    if a % 2 == 1:
        g = (1, 0, 0, 1)
    elif c % 2 == 1:
        g = (0, -1, 1, 0)
    else:
        g = (1, -1, 1, 0) if b > 0 else (1, 1, -1, 0)
    return form_action(form, g), g
