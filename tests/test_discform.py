"""Order-4 discriminant form, its rational Weil representation, and the
vector-valued input form for the level-2 Borcherds lift."""

import random
from fractions import Fraction

import mpmath
import pytest

from cmfactor.discform import (COSETS, QVAL, bilinear, weil_T, weil_S,
                               mat_mul, mat_identity, sl2_word, weil_matrix,
                               build_weber_f, restrict_to_M, constant_vvform)
from cmfactor.series import FracQSeries, j_series, omega2_series


S_GEN = (0, -1, 1, 0)
T_GEN = (1, 1, 0, 1)


def _mul2(g, h):
    return (g[0] * h[0] + g[1] * h[2], g[0] * h[1] + g[1] * h[3],
            g[2] * h[0] + g[3] * h[2], g[2] * h[1] + g[3] * h[3])


def test_T_and_S_matrices():
    T = weil_T()
    assert T == tuple(tuple(Fraction((-1 if i == 3 else 1) if i == j else 0)
                            for j in range(4)) for i in range(4))
    S = weil_S()
    for i, m in enumerate(COSETS):
        for j, n in enumerate(COSETS):
            want = Fraction(-1, 2) if bilinear(m, n) == Fraction(1, 2) \
                else Fraction(1, 2)
            assert S[i][j] == want


def test_group_relations():
    S = weil_S()
    T = weil_T()
    S2 = mat_mul(S, S)
    assert S2 == mat_identity()          # signature (2,2): S^2 acts trivially
    ST = mat_mul(S, T)
    assert mat_mul(mat_mul(ST, ST), ST) == S2   # (ST)^3 = S^2


def test_weil_matrix_is_a_homomorphism():
    random.seed(13)
    for _ in range(40):
        g = (1, 0, 0, 1)
        h = (1, 0, 0, 1)
        for _ in range(random.randint(1, 7)):
            g = _mul2(g, random.choice([S_GEN, T_GEN, (1, -1, 0, 1)]))
        for _ in range(random.randint(1, 7)):
            h = _mul2(h, random.choice([S_GEN, T_GEN, (1, -1, 0, 1)]))
        assert weil_matrix(_mul2(g, h)) == \
            mat_mul(weil_matrix(g), weil_matrix(h))


def test_sl2_word_reconstructs_matrix():
    random.seed(17)
    S = S_GEN
    for _ in range(40):
        g = (1, 0, 0, 1)
        for _ in range(random.randint(0, 8)):
            g = _mul2(g, random.choice([S, T_GEN, (1, -1, 0, 1)]))
        out = (1, 0, 0, 1)
        for tok in sl2_word(g):
            if tok == "S":
                out = _mul2(out, S)
            else:
                out = _mul2(out, (1, tok[1], 0, 1))
        assert out == g


def _invariant_subspace_basis():
    """Fraction Gaussian elimination for the joint 1-eigenspace of S and T."""
    S, T = weil_S(), weil_T()
    rows = []
    for M in (S, T):
        for i in range(4):
            rows.append([M[i][j] - (1 if i == j else 0) for j in range(4)])
    # eliminate
    pivots = []
    r = 0
    for c in range(4):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(4) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * 4
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][fc]
        basis.append(tuple(v))
    return basis


def test_invariant_subspace_is_two_dimensional():
    basis = _invariant_subspace_basis()
    assert len(basis) == 2
    span = set()
    for a in range(-2, 3):
        for b in range(-2, 3):
            span.add(tuple(a * x + b * y for x, y in zip(*basis)))
    # phi0 + phi1 and phi0 + phi2 are invariant vectors
    assert (1, 1, 0, 0) in {tuple(int(x) for x in v) for v in span
                            if all(x.denominator == 1 for x in v)}
    assert (1, 0, 1, 0) in {tuple(int(x) for x in v) for v in span
                            if all(x.denominator == 1 for x in v)}


def test_weber_form_constant_and_principal_coefficients():
    f = build_weber_f(4)
    assert f.coeff(-1, "mu0") == 1
    assert f.coeff(0, "mu0") == 0
    assert f.coeff(0, "mu1") == 0
    assert f.coeff(0, "mu2") == 24
    assert f.coeff(0, "mu3") == 0
    assert f.coeff(Fraction(-1, 2), "mu3") == 0


def test_weber_form_coefficients():
    f = build_weber_f(4)
    # component mu0
    assert [f.coeff(n, "mu0") for n in (1, 2, 3)] == \
        [98580, 10745856, 432155586]
    # components mu1 and mu2 agree in positive degrees
    assert [f.coeff(n, "mu1") for n in (1, 2, 3)] == \
        [98304, 10747904, 432144384]
    for n in (1, 2, 3):
        assert f.coeff(n, "mu1") == f.coeff(n, "mu2")
    # component mu3 lives in degrees Z + 1/2
    assert [f.coeff(Fraction(2 * n + 1, 2), "mu3") for n in range(3)] == \
        [4096, 1228800, 74244096]


def test_weber_mu2_minus_mu0_is_the_inverted_hauptmodul():
    # f_mu2 - f_mu0 = 12 - g = -2^12 / omega2, checked as a product
    f = build_weber_f(5)
    diff = f.components["mu2"] - f.components["mu0"]
    prod = diff * omega2_series(8)
    assert prod.cutoff == 7
    assert prod == FracQSeries.constant(-4096, prod.cutoff)


def test_restriction_is_j_minus_720():
    f = build_weber_f(5)
    s = restrict_to_M(f)
    j = j_series(5)
    assert s.coeff(-1) == 1
    assert s.coeff(0) == j.coeff(0) - 720 == 24
    for n in range(1, 5):
        assert s.coeff(n) == j.coeff(n)


def _eval_component(series, tau, prec):
    with mpmath.workprec(prec + 32):
        return sum(int(c) * mpmath.exp(2j * mpmath.pi * tau *
                                       mpmath.mpf(e.numerator) / e.denominator)
                   for e, c in series.terms())


def test_numeric_sl2_equivariance():
    """f(g tau) must equal the Weil matrix of g applied to f(tau)."""
    f = build_weber_f(26)
    tau = mpmath.mpc(mpmath.mpf("-0.5"), mpmath.mpf("1.2"))
    prec = 96
    with mpmath.workprec(prec):
        vals = {m: _eval_component(f.components[m], tau, prec) for m in COSETS}
        for g in [(0, -1, 1, 0), (1, 1, 0, 1), (2, 1, 1, 1), (1, -1, 1, 0)]:
            a, b, c, d = g
            gtau = (a * tau + b) / (c * tau + d)
            gvals = {m: _eval_component(f.components[m], gtau, prec)
                     for m in COSETS}
            M = weil_matrix(g)
            for i, m in enumerate(COSETS):
                want = sum(vals[COSETS[j]] * M[i][j].numerator /
                           M[i][j].denominator for j in range(4))
                assert abs(gvals[m] - want) < mpmath.mpf(2) ** -40, (g, m)


def test_constant_vvform():
    f = constant_vvform({"mu0": 3, "mu2": 5})
    assert f.coeff(0, "mu0") == 3
    assert f.coeff(0, "mu2") == 5
    assert f.coeff(0, "mu1") == 0
    assert f.coeff(3, "mu0") == 0


def test_weber_mu3_is_stored_at_unit_steps():
    # mu3 lives in q^(1/2) Z[[q]]: one int per exponent of that class
    mu3 = build_weber_f(10).components["mu3"]
    assert mu3.off == Fraction(1, 2) and len(mu3.a) == 11
    assert mu3.cutoff == Fraction(23, 2)
