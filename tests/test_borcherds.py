"""Exact bivariate product expansions: Weyl vectors, leading terms, and
small-box product identities."""

import random
from fractions import Fraction
from math import ceil, comb

import pytest
from hypothesis import given, settings, strategies as st

from cmfactor.borcherds import (WeylVector, weyl_vector, BiQSeries,
                                product_expansion_level2, product_expansion_j,
                                bi_difference, bi_product, _expand_product)
from cmfactor.discform import (VVForm, build_weber_f, restrict_to_M,
                               constant_vvform)
from cmfactor.series import (FracQSeries, j_series, omega2_series,
                             eta_quotient, euler_product)
from cmfactor import borcherds, discform, series
from cmfactor.verify import borcherds_verify

CASES = ("weber", "j", "eta1", "eta2", "f2")


def test_weyl_vector_of_weber_restriction():
    f_M = restrict_to_M(build_weber_f(4))
    rho = weyl_vector(f_M)
    assert rho == WeylVector(rl=Fraction(-1), rlp=Fraction(0))


def test_weyl_vector_of_j_input():
    f_M = j_series(4) - 744
    rho = weyl_vector(f_M)
    assert rho == WeylVector(rl=Fraction(0), rlp=Fraction(-1))


def test_weyl_vector_of_constant_forms():
    for a1, a2 in [(24, 0), (0, 24), (8, 16)]:
        f = constant_vvform({"mu1": a1, "mu2": a2})
        f_M = restrict_to_M(f)
        rho = weyl_vector(f_M)
        # the restriction f_mu0 + f_mu2 is the constant a2
        assert f_M.coeff(0) == a2
        assert rho == WeylVector(rl=Fraction(-a2, 24), rlp=Fraction(a2, 24))


def test_weber_product_leading_terms():
    f = build_weber_f(19)
    s = product_expansion_level2(f, C=-4096, N1=2, N2=2)
    # omega2(z1) - omega2(z2) begins -4096 q2 + 4096 q1 + ...
    assert s.coeff(0, 1) == -4096
    assert s.coeff(1, 0) == 4096
    assert s.coeff(0, 0) == 0


def test_weber_product_is_difference_of_hauptmoduls_small_box():
    f = build_weber_f((4 + 1) * (4 + 4 + 2) + 1)
    got = product_expansion_level2(f, C=-4096, N1=4, N2=4)
    want = bi_difference(omega2_series(6), 4, 4)
    ok, bad = got.compare(want)
    assert ok, bad[:3]


def test_j_product_is_difference_of_j_small_box():
    f_M = j_series((4 + 2) * (4 + 4 + 3) + 1) - 744
    got = product_expansion_j(f_M, 4, 4)
    want = bi_difference(j_series(6), 4, 4)
    ok, bad = got.compare(want)
    assert ok, bad[:3]


def test_product_antisymmetry():
    f = build_weber_f((4 + 1) * (4 + 4 + 2) + 1)
    s = product_expansion_level2(f, C=-4096, N1=4, N2=4)
    for e1 in range(5):
        for e2 in range(5):
            assert s.coeff(e1, e2) == -s.coeff(e2, e1)


def test_eta_constant_form_product():
    # input 24 phi_mu1: the lift is (a square root of) eta(z1)^2 eta(z2)^2
    # type identity; in rational form the prefactor and product reproduce
    # eta(q1) eta(q2) up to the exact exponent shifts.
    f = constant_vvform({"mu1": 24}, cutoff=40)
    rho = weyl_vector(restrict_to_M(f))
    assert rho == WeylVector(rl=Fraction(0), rlp=Fraction(0))


def test_constant_form_eta2_identity_small_box():
    # input phi_mu0 + phi_mu2 lifts to eta(2 z1) eta(2 z2) in rational form
    f = constant_vvform({"mu0": 1, "mu2": 1}, cutoff=60)
    got = product_expansion_level2(f, C=1, N1=3, N2=3)
    e2 = eta_quotient(8, 1, 0).subst_power(2)
    want = bi_product(e2, e2, 3, 3)
    ok, bad = got.compare(want)
    assert ok, bad[:3]


def test_bi_difference_region_checks():
    s = omega2_series(4)
    with pytest.raises(ValueError):
        bi_difference(s, 10, 2)
    d = bi_difference(s, 3, 3)
    with pytest.raises(ValueError):
        d.coeff(5, 0)
    assert d.coeff(1, 0) == 4096
    assert d.coeff(0, 1) == -4096
    assert d.coeff(1, 1) == 0


def test_bi_product_region_checks():
    s = eta_quotient(3, 1, 0)
    with pytest.raises(ValueError):
        bi_product(s, s, 5, 1)
    p = bi_product(s, s, 2, 2)
    assert p.coeff(Fraction(1, 24), Fraction(1, 24)) == 1
    assert p.coeff(Fraction(25, 24), Fraction(1, 24)) == -1


def test_compare_reports_mismatches():
    a = BiQSeries({(Fraction(0), Fraction(0)): 1}, 2, 2)
    b = BiQSeries({(Fraction(0), Fraction(0)): 2,
                   (Fraction(5), Fraction(0)): 9}, 9, 9)
    ok, bad = a.compare(b)
    assert not ok
    assert bad == [((Fraction(0), Fraction(0)), 1, 2)]


def _naive_expand(exponents, rho, C, N1, N2):
    # Fraction reference for borcherds._expand_product: the product factor by
    # factor over a working box big enough that every term with e1 <= N1,
    # e2 <= N2 is exact (terms outside that region need not be), with
    # binomial coefficients from math.comb (binom(-a, j) = (-1)^j
    # binom(a + j - 1, j)) and every term shifted by the Weyl vector and
    # scaled by C from the start
    C1 = N1 + 1 + ceil(max(0, -rho.rlp))
    C2 = N2 + 1 + ceil(max(0, rho.rl)) + C1
    s1, s2 = rho.rlp, -rho.rl
    terms = {(s1, s2): Fraction(C)}
    for n in range(C1 + 1):
        for m in range(-1 if n else 1, C2 + 1):
            for sign, expo in zip((-1, 1), exponents(m * n)):
                if m + n < 0 or not expo:
                    continue
                new = {}
                for (e1, e2), c in terms.items():
                    j = 0
                    while e1 - s1 + n * j <= C1 and e2 - s2 + m * j <= C2:
                        d = (comb(expo, j) if expo > 0 else
                             (-1) ** j * comb(j - expo - 1, j)) * sign ** j
                        key = (e1 + n * j, e2 + m * j)
                        if d and key[1] - s2 >= -C1 - 1:
                            new[key] = new.get(key, 0) + c * d
                        j += 1
                terms = {k: v for k, v in new.items() if v}
    return terms


def test_integer_expansion_matches_fraction_reference():
    rng = random.Random(11)
    for _ in range(20):
        ta, tb = ([rng.choice([0, rng.randint(-30, 30),
                               rng.randint(-10 ** 6, 10 ** 6)])
                   for _ in range(200)] for _ in "ab")
        rho = WeylVector(rl=Fraction(rng.randint(-30, 30), 24),
                         rlp=Fraction(rng.randint(-30, 30), 24))
        C = rng.choice([1, -1, -4096, 7])
        N1, N2 = rng.randint(0, 4), rng.randint(0, 4)

        def exponents(k):
            return (ta[k + 1], tb[k + 1]) if k >= -1 else (0, 0)

        minus, plus = (FracQSeries.dense(-1, t) for t in (ta, tb))
        got = _expand_product(minus, plus, rho, C, N1, N2)
        want = BiQSeries(_naive_expand(exponents, rho, C, N1, N2), N1, N2)
        ok, bad = got.compare(want)
        assert ok, bad[:3]
        assert (got.cut1, got.cut2) == (N1, N2)


def test_row_zero_matches_the_product_of_powers(monkeypatch):
    # the q1^0 row F_0 = prod (1 - q^m)^a0 (1 + q^m)^b0 of _expand_product
    # against the reference E(q)^a0 prod (1 + q^m)^b0, E = prod (1 - q^m),
    # the second factor eta(z)^-b0 eta(2z)^b0 at offset 0; neither side,
    # nor any borcherds_verify case, takes a 0th or a first Miller power
    ks = []
    miller = series._miller

    def counting(a, k):
        ks.append(k)
        return miller(a, k)

    monkeypatch.setattr(series, "_miller", counting)
    rho = WeylVector(rl=Fraction(0), rlp=Fraction(0))
    for order in (0, 1, 4, 11):
        for a0 in range(-30, 31):
            for b0 in range(-30, 31):
                minus, plus = (FracQSeries.dense(0, [c]) for c in (a0, b0))
                got = _expand_product(minus, plus, rho, 1, 0, order)
                ones = eta_quotient(order, -b0, b0).a
                want = euler_product(order) ** a0 * FracQSeries.dense(0, ones)
                assert got.coeffs == {(0, e): c for e, c in want.terms()}
    for case in CASES:
        assert borcherds_verify(case, 3, 2)[0]
    assert ks and 0 not in ks and 1 not in ks


def _at_1_24(a):
    return FracQSeries.dense(Fraction(1, 24), a)


def _naive_prod_one_plus(order):
    # prod (1 + q^n) through q^order, factor by factor
    c = [1] + [0] * order
    for n in range(1, order + 1):
        for i in range(order, n - 1, -1):
            c[i] += c[i - n]
    return c


def test_constant_targets_are_derived_from_their_vectors(monkeypatch):
    # borcherds_verify compares each constant case with S(z1) S(z2), S
    # derived from its vector; for every n <= 30, S equals the eta series
    # built by hand below the common cutoff: the pentagonal series at
    # q^(1/24), the same at q -> q^2, and q^(1/24) prod (1 + q^n)
    targets = []
    bi_product = borcherds.bi_product

    def recording(s1, s2, N1, N2):
        targets.append(s1)
        return bi_product(s1, s2, N1, N2)

    monkeypatch.setattr(borcherds, "bi_product", recording)
    for n in range(31):
        by_hand = {"eta1": _at_1_24(euler_product(n + 1).a),
                   "eta2": _at_1_24(euler_product(2 * n + 2).a
                                    ).subst_power(2),
                   "f2": _at_1_24(_naive_prod_one_plus(n + 1))}
        for case, want in by_hand.items():
            targets.clear()
            # the box (0, n) is empty, K1 < 0, and reads S through q^n
            assert borcherds_verify(case, 0, n) == (True, [])
            (got,) = targets
            assert got.off == want.off, (case, n)
            assert got.cutoff == n + 2 + got.off, (case, n)
            cut = min(got.cutoff, want.cutoff)
            assert got.truncate(cut).a == want.truncate(cut).a, (case, n)


def test_identities_on_asymmetric_and_zero_boxes():
    # every box through order 12, each side from 0
    for case in CASES:
        for n1 in range(13):
            for n2 in range(13):
                ok, bad = borcherds_verify(case, n1, n2)
                assert ok and not bad, (case, n1, n2, bad[:3])


def test_weber_and_j_identities_at_32():
    for case in ("weber", "j"):
        ok, bad = borcherds_verify(case, 32, 32)
        assert ok and not bad, (case, bad[:3])


def test_too_short_input_form_raises():
    # the j box (4,4) reads the input form through q^((4+1)(4+4+1))
    product_expansion_j(j_series(45) - 744, 4, 4)
    with pytest.raises(ValueError):
        product_expansion_j(j_series(44) - 744, 4, 4)


def _one_order_less(build):
    def shorter(*args, cutoff=None):
        if cutoff is not None:
            return build(*args, cutoff=cutoff - 1)
        (order,) = args
        return build(order - 1)
    return shorter


@pytest.mark.parametrize("case,module,name", [
    ("weber", discform, "build_weber_f"), ("j", series, "j_series"),
    ("eta1", discform, "constant_vvform"),
    ("eta2", discform, "constant_vvform"),
    ("f2", discform, "constant_vvform")])
@pytest.mark.parametrize("n1,n2", [(1, 1), (2, 0), (1, 6), (3, 5), (6, 2)])
def test_input_form_order_is_the_smallest(monkeypatch, case, module, name,
                                          n1, n2):
    # borcherds_verify takes each input form just through the last exponent
    # its product reads, so one order less must run out of coefficients
    assert borcherds_verify(case, n1, n2)[0]
    monkeypatch.setattr(module, name, _one_order_less(getattr(module, name)))
    with pytest.raises(ValueError, match="beyond cutoff"):
        borcherds_verify(case, n1, n2)


def test_row_division_is_checked(monkeypatch):
    # N F_N = sum_k D_k F_(N-k) is exact; an odd term in the sum of row
    # q1^2 leaves a remainder mod 2, which must raise
    product_sum = borcherds.product_sum

    def off_by_one(pairs):
        s = product_sum(pairs)
        return FracQSeries.dense(s.off, [s.a[0] + 1] + s.a[1:])

    monkeypatch.setattr(borcherds, "product_sum", off_by_one)
    with pytest.raises(ArithmeticError, match="remainder mod 2"):
        product_expansion_j(j_series(45) - 744, 4, 4)


def test_product_exponents_are_checked():
    f_M = j_series(40) - 744
    with pytest.raises(ArithmeticError, match="deeper"):
        product_expansion_j(f_M + FracQSeries({-2: 1}, 41), 2, 2)
    # q^-1/2 + 5 q^1/2 + 7 q^3/2 has no integer exponents to read
    half = {Fraction(-1, 2): 1, Fraction(1, 2): 5, Fraction(3, 2): 7}
    with pytest.raises(ArithmeticError, match="fractional"):
        product_expansion_j(FracQSeries(half, 12), 2, 2)
    # a half-integer exponent is refused when its series is built
    with pytest.raises(ValueError, match="integers"):
        FracQSeries({3: Fraction(1, 2)}, 41)


def test_principal_part_is_checked_on_the_whole_series():
    # a q^-6 term gives factors such as (n, m) = (3, -2), with mn < -1,
    # that no product has: an input with one is refused, however few of its
    # exponents the box reads
    q6 = FracQSeries({-6: 1}, 300)
    with pytest.raises(ArithmeticError, match="deeper"):
        product_expansion_j(j_series(200) - 744 - q6, 14, 2)
    # in the weber form the two deep terms cancel in the restriction, so
    # the Weyl vector passes and the component read for the exponents
    # raises
    c = dict(build_weber_f(4 * 7).components)
    c["mu0"], c["mu2"] = c["mu0"] - q6, c["mu2"] + q6
    with pytest.raises(ArithmeticError, match="deeper"):
        product_expansion_level2(VVForm(components=c), -4096, 4, 4)
    with pytest.raises(ArithmeticError, match="deeper"):
        weyl_vector(j_series(10) - 744 + FracQSeries({-2: 1}, 11))


@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50),
       st.lists(st.integers(-50, 50), max_size=6))
def test_weyl_vector_is_the_e2_constant_term(c_1, c0, tail):
    # rlp is the constant term of f E2 / 24, E2 = 1 - 24 q + ...: for a
    # principal part at most q^-1 that is (c(0) - 24 c(-1)) / 24
    coeffs = {-1: c_1, 0: c0, **{k + 1: c for k, c in enumerate(tail)}}
    rho = weyl_vector(FracQSeries(coeffs, len(tail) + 1))
    assert rho == WeylVector(rl=Fraction(-c0, 24),
                             rlp=Fraction(c0 - 24 * c_1, 24))


CONSTANT_FORMS = ({"mu0": 1, "mu1": 1}, {"mu0": 1, "mu2": 1},
                  {"mu1": -1, "mu2": 1})


def _int_unless_fractional(e):
    return type(e) is (int if e.denominator == 1 else Fraction)


def test_coefficients_are_ints_and_weyl_vectors_fractions(monkeypatch):
    # every value of both boxes that borcherds_verify compares is an int,
    # and every key an int pair for j and weber, whose exponents are
    # integers, and a pair of fractional Fractions for the eta cases
    compared = []
    compare = BiQSeries.compare

    def recording(self, other):
        compared.extend((self, other))
        return compare(self, other)

    monkeypatch.setattr(borcherds.BiQSeries, "compare", recording)
    for case in CASES:
        compared.clear()
        assert borcherds_verify(case, 4, 4) == (True, [])
        assert len(compared) == 2 and all(b.coeffs for b in compared)
        kind = int if case in ("j", "weber") else Fraction
        for box in compared:
            assert all(type(c) is int for c in box.coeffs.values()), case
            for key in box.coeffs:
                assert all(type(e) is kind and _int_unless_fractional(e)
                           for e in key), (case, key)
            assert type(box.cut1) is type(box.cut2) is int
    # the one-variable accessors give int coefficients, and exponents and
    # cutoffs that are ints when integral, else Fractions: ints for j and
    # the weber components but mu3, Fractions for mu3 and the eta series
    weber = build_weber_f(4).components
    for s, kind in [*((weber[m], int) for m in ("mu0", "mu1", "mu2")),
                    (j_series(6), int), (weber["mu3"], Fraction),
                    (eta_quotient(6, 1, 0), Fraction),
                    (eta_quotient(3, 1, 0).subst_power(2), Fraction),
                    (eta_quotient(6, -1, 1), Fraction)]:
        assert s.terms()
        assert type(s.off) is type(s.cutoff) is kind
        for e, c in s.terms():
            assert type(e) is kind and _int_unless_fractional(e)
            assert type(c) is int and type(s.coeff(e)) is int
        assert type(s.coeff(Fraction(-7, 3))) is int
    # a restriction with fractional exponents is refused
    half = FracQSeries({Fraction(1, 2): 1}, 4)
    f = VVForm(components={"mu0": half, "mu2": FracQSeries.constant(0, 4)})
    with pytest.raises(ArithmeticError, match="fractional exponents"):
        restrict_to_M(f)
    # eta^24 = Delta has integer exponents, reached from the offset 1/24
    f = VVForm(components={"mu0": eta_quotient(12, 1, 0) ** 24,
                           "mu2": FracQSeries.constant(0, 5)})
    delta = FracQSeries({1: 1, 2: -24, 3: 252, 4: -1472}, 5)
    assert restrict_to_M(f).cutoff == 5 and restrict_to_M(f) == delta
    # Weyl vectors are exact rationals, never floats
    forms = [restrict_to_M(build_weber_f(4)), j_series(6) - 744]
    forms += [restrict_to_M(constant_vvform(v)) for v in CONSTANT_FORMS]
    for f_M in forms:
        rho = weyl_vector(f_M)
        assert type(rho.rl) is Fraction and type(rho.rlp) is Fraction
