"""Reduced binary quadratic forms for imaginary quadratic class groups."""

from math import gcd, isqrt


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

