"""The discriminant form of the level-2 lattice [Z, Z; 2Z, Z] with the
determinant quadratic form, its Weil representation, and the vector-valued
input form whose Borcherds lift is the difference of level-2 Hauptmoduls.

The discriminant group has order 4 with coset representatives
mu0 = 0, mu1, mu2, mu3 = mu1 + mu2, quadratic form values (0, 0, 0, 1/2)
and bilinear pairing 1/2 between any two distinct nonzero cosets.
Signature is (2, 2), so the scalar factor in the S-action is 1 and the whole
representation is defined over the rationals.
"""

from fractions import Fraction
from typing import NamedTuple

from .series import FracQSeries, eta_quotient, omega2_series

COSETS = ("mu0", "mu1", "mu2", "mu3")

QVAL = {"mu0": Fraction(0), "mu1": Fraction(0),
        "mu2": Fraction(0), "mu3": Fraction(1, 2)}


def bilinear(mu, nu):
    """Pairing (mu, nu) mod 1."""
    if mu == "mu0" or nu == "mu0":
        return Fraction(0)
    if mu == nu:
        return Fraction(0)
    return Fraction(1, 2)


def weil_T():
    """Action of T: phi_mu -> e(Q(mu)) phi_mu, e(x) = (-1)^(2x) on the
    half-integers Q takes."""
    return tuple(tuple(Fraction(-1) ** (2 * QVAL[m]) if m == n else Fraction(0)
                       for n in COSETS) for m in COSETS)


def weil_S():
    """Action of S: phi_mu -> (1/2) sum_nu e(-(mu, nu)) phi_nu, e(-x) =
    (-1)^(2x) on the half-integers the pairing takes.

    The signature-(2,2) eighth root of unity is 1.
    """
    return tuple(tuple(Fraction(-1) ** (2 * bilinear(m, n)) / 2
                       for n in COSETS) for m in COSETS)


def mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def mat_identity(n=4):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


class VVForm(NamedTuple):
    """A vector-valued q-expansion with one FracQSeries per coset.

    The exponents of component mu lie in Q(mu) + Z, the class that its
    offset carries mod 1; the class is checked where it matters
    (`restrict_to_M`), not on construction.
    """
    components: dict

    def coeff(self, n, coset):
        return self.components[coset].coeff(n)


def constant_vvform(values, cutoff=8):
    """A constant vector-valued form sum values[mu] * phi_mu."""
    comps = {m: FracQSeries.constant(values.get(m, 0), cutoff) for m in COSETS}
    return VVForm(components=comps)


def build_weber_f(order):
    """The weight-0 input form whose Borcherds lift on the level-2 lattice is
    the difference omega2(z1) - omega2(z2) of level-2 Hauptmoduls.

    Built from scalar ingredients, with x = q^(1/2):
      g    = eta(z)^24/eta(2z)^24 + 12            (= 2^12/omega2 + 12)
      g|S  = omega2(x) + 12
      g|ST = g|S with x -> -x
    and symmetrized over the cosets:
      f_mu0 = g + even(g|S), f_mu1 = -12 + even(g|S),
      f_mu2 = 12 + even(g|S), f_mu3 = odd(g|S).
    Components are exact through q^order: the cutoff of mu0..mu2 is
    q^(order+1), and that of mu3 its next exponent q^(order+3/2).
    """
    g = eta_quotient(order + 1, 24, -24) + 12
    # a[i] is the coefficient of x^(i+1) in g|S - 12 = omega2(x), i <= 2 order
    a = omega2_series(2 * order + 1).a
    even = FracQSeries.dense(0, [12] + a[1::2])
    comps = {
        "mu0": g + even,
        "mu1": even - 12,
        "mu2": even + 12,
        "mu3": FracQSeries.dense(Fraction(1, 2), a[::2]),
    }
    return VVForm(components=comps)


def restrict_to_M(f):
    """Restriction to the sublattice index-2 dual pair: the scalar form
    f_mu0 + f_mu2, whose exponents must be integers."""
    s = f.components["mu0"] + f.components["mu2"]
    if s.off.denominator != 1:
        raise ArithmeticError("restriction has fractional exponents")
    return s
