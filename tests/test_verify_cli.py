"""End-to-end verification reports, the resultant cross-check, and the
command line interface."""

import ast
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import floor, gcd, log10, prod
from pathlib import Path

import mpmath
import pytest

from cmfactor import cli, numeric, series, verify
from cmfactor.numeric import (auto_prec, class_values, gate_prec, j_value,
                              omega2_value, pair_norm, resultant, GUARD_BITS,
                              MAX_RETRIES, TOL_BITS)
from cmfactor.verify import gz_verify, yz_verify, borcherds_verify
from cmfactor.cli import (main, EXIT_OK, EXIT_MISMATCH, EXIT_HYPOTHESIS,
                          EXIT_PRECISION, EXIT_USAGE)
from cmfactor.quadarith import (PrimeLog, is_fundamental_discriminant,
                                valuation)
from cmfactor.classgroup import reduced_forms
from cmfactor.series import FracQSeries
from conftest import clear_class_tables
from test_numeric import scaled

# one small admissible pair per formula
DRIVER_CASES = [("gz", gz_verify, "gz_rhs", -3, -67),
                ("yz", yz_verify, "yz_rhs", -7, -15)]
# the class values of each formula, whose heights auto_prec sums
CLASS_VALUE = {"gz": j_value, "yz": omega2_value}
VERIFY = {"gz": gz_verify, "yz": yz_verify}


def _bareiss_resultant(f, g):
    """The reference resultant of integer polynomials (leading coefficient
    first): Bareiss fraction-free elimination of the Sylvester matrix."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = ([[0] * i + list(f) + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + list(g) + [0] * (m - 1 - i) for i in range(m)])
    sign, prev = 1, 1
    for k in range(size):
        piv = next((r for r in range(k, size) if rows[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pk = rows[k]
        for r in range(k + 1, size):
            row = rows[r]
            # exact: every entry is a minor of the original matrix
            row[k + 1:] = [(row[c] * pk[k] - row[k] * pk[c]) // prev
                           for c in range(k + 1, size)]
        prev = pk[k]
    return sign * prev


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def test_subresultant_prs_equals_bareiss_on_random_polynomials():
    # integer polynomials with a nonzero leading coefficient, the contract:
    # of degree 0 on either side or both, with negative leading
    # coefficients, contents, common and repeated factors
    rng = random.Random("prs")

    def poly(deg, bound=9):
        lead = rng.choice([c for c in range(-bound, bound + 1) if c])
        return [lead] + [rng.randint(-bound, bound) for _ in range(deg)]

    seen = set()
    for _ in range(2000):
        f, g = poly(rng.randint(0, 6)), poly(rng.randint(0, 6))
        kind = rng.choice(["plain", "common", "repeated", "content"])
        if kind == "common":
            c = poly(rng.randint(1, 3))
            f, g = _poly_mul(f, c), _poly_mul(g, c)
        elif kind == "repeated":
            c = poly(rng.randint(1, 2))
            f = _poly_mul(_poly_mul(f, c), c)
            g = _poly_mul(g, c) if rng.randrange(2) else g
        elif kind == "content":
            f = [rng.randint(2, 30) * x for x in f]
            g = [x * 2 ** rng.randint(1, 70) for x in g]
        res = resultant(f, g)
        assert res == _bareiss_resultant(f, g), (f, g)
        seen |= {kind, ("deg 0", len(f) == 1, len(g) == 1),
                 ("negative", f[0] < 0, g[0] < 0), ("zero", res == 0)}
    assert {"common", "repeated", "content", ("deg 0", True, False),
            ("deg 0", False, True), ("deg 0", True, True),
            ("negative", True, True), ("zero", True), ("zero", False)} <= seen


def test_subresultant_prs_equals_bareiss_on_class_polynomials():
    # every coprime gz pair of fundamental |d| <= 120 and every yz pair of
    # |d| < 400, from numeric.class_poly: degrees up to 19 (omega2,
    # d = -359) and coefficients of up to 183 bits (j, d = -119)
    discs = [d for d in range(-3, -121, -1) if is_fundamental_discriminant(d)]
    cases = [(j_value, d1, d2) for d1, d2 in combinations(discs, 2)
             if gcd(d1, d2) == 1]
    discs = [d for d in range(-7, -400, -8) if is_fundamental_discriminant(d)]
    cases += [(omega2_value, d1, d2) for d1, d2 in combinations(discs, 2)
              if gcd(d1, d2) == 1]
    assert len(cases) == 578 + 760
    for value, d1, d2 in cases:
        (_, f), (_, g) = (numeric.class_poly(value, d) for d in (d1, d2))
        assert resultant(f, g) == _bareiss_resultant(f, g), \
            (value.__name__, d1, d2)


def test_sylvester_resultant_hand_checks():
    # determinants of the Sylvester matrices, computed by hand
    assert resultant([1, -2], [1, -3]) == -1
    assert resultant([1, 0, -2], [1, -1]) == -1
    assert resultant([1, 0, 1], [1, 0, -1]) == 4
    assert resultant([2, 3], [4, 5]) == -2
    assert resultant([1, 1], [1, 1]) == 0     # common root


def test_resultant_root_product_oracle():
    # res(f, g) = lc(f)^deg g * prod g(alpha) over roots alpha of f,
    # checked on f = x^2 - 5x + 6 = (x-2)(x-3), g = x - 1: (2-1)(3-1) ... up
    # to the matrix sign; magnitude is 2
    assert abs(resultant([1, -5, 6], [1, -1])) == 2


def test_auto_prec_covers_every_small_pair():
    # every admissible pair with |d| <= 40: 69 gz and 9 yz runs, each exact
    # at the bound itself, with TOL_BITS to spare above the product
    discs = [d for d in range(-3, -41, -1) if is_fundamental_discriminant(d)]
    pairs = [(d1, d2) for i, d1 in enumerate(discs) for d2 in discs[i + 1:]
             if gcd(d1, d2) == 1]
    runs = [gz_verify(d1, d2) for d1, d2 in pairs]
    runs += [yz_verify(d1, d2) for d1, d2 in pairs if d1 % 8 == d2 % 8 == 1]
    assert len(runs) == 78
    for r in runs:
        assert r.ok() and r.notes == [], (r.kind, r.d1, r.d2, r.notes)
        assert r.prec == auto_prec(r.d1, r.d2, value=CLASS_VALUE[r.kind])
        assert r.prec >= abs(r.product_integer).bit_length() + TOL_BITS


def test_omega2_bound_covers_a_sample_of_yz_pairs():
    # a seeded sample of the coprime pairs of fundamental d = 1 mod 8 with
    # |d| < 400, each exact at the omega2 bound with TOL_BITS to spare
    discs = [d for d in range(-7, -400, -8) if is_fundamental_discriminant(d)]
    pairs = [(d1, d2) for i, d1 in enumerate(discs) for d2 in discs[i + 1:]
             if gcd(d1, d2) == 1]
    for d1, d2 in random.Random("yz-bound").sample(pairs, 24):
        r = yz_verify(d1, d2)
        assert r.ok() and r.notes == [], (d1, d2, r.notes)
        assert r.prec == auto_prec(d1, d2, value=omega2_value)
        assert r.prec >= abs(r.product_integer).bit_length() + TOL_BITS


def test_j_bound_covers_a_sample_of_gz_pairs():
    # a seeded sample of the coprime pairs of fundamental |d| <= 300, each
    # exact at the j bound with TOL_BITS to spare
    discs = [d for d in range(-3, -301, -1) if is_fundamental_discriminant(d)]
    pairs = [(d1, d2) for i, d1 in enumerate(discs) for d2 in discs[i + 1:]
             if gcd(d1, d2) == 1]
    assert len(pairs) == 3413
    for d1, d2 in random.Random("gz-bound").sample(pairs, 24):
        r = gz_verify(d1, d2)
        assert r.ok() and r.notes == [], (d1, d2, r.notes)
        assert r.prec == auto_prec(d1, d2)
        assert r.prec >= abs(r.product_integer).bit_length() + TOL_BITS


@pytest.mark.parametrize("value,d1,d2", [
    (j_value, -4, -3), (j_value, -3, -4), (j_value, -15, -4),
    (j_value, -71, -84), (j_value, -84, -71), (j_value, -119, -15),
    (omega2_value, -15, -71), (omega2_value, -71, -119)])
def test_pair_product_over_conjugate_orbits(value, d1, d2):
    # the product over the conjugate orbits of the forms of both
    # discriminants (numeric.pair_norm) against the naive double product
    # over all h1 h2 pairs of the same class values, each orbit's
    # representative and, at weight 2, its conjugate, at the product's own
    # scale 2^w: within its roundings, h1 h2 2^(S - w + 3), and within
    # 2^-(prec//4 + TOL_BITS) |N| of N; forms of b = 0 (-4, -84), |b| = a
    # (-3, -15, -84) and a = c (-84), conjugate pairs (-71, -119), and
    # omega2 at even a (-71, -119)
    prec = auto_prec(d1, d2, value=value)
    got, polys, (n, (x, y), w) = pair_norm(value, d1, d2)
    assert got == prec and [tried for tried, _ in polys.values()] == [
        [auto_prec(d, value=value)] for d in (d1, d2)]
    assert w - GUARD_BITS < prec
    vals1, vals2 = (class_values(value, d, w - GUARD_BITS) for d in (d1, d2))
    h12 = len(reduced_forms(d1)) * len(reduced_forms(d2))
    with mpmath.workprec(prec + GUARD_BITS):
        all1, all2 = ([u for (re, im), weight in vals
                       for v in [mpmath.mpc(mpmath.mpf((re, -w)),
                                            mpmath.mpf((im, -w)))]
                       for u in (v, mpmath.conj(v))[:weight]]
                      for vals in (vals1, vals2))
        assert (len(all1), len(all2)) == (len(reduced_forms(d1)),
                                          len(reduced_forms(d2)))
        want = mpmath.fprod(v2 - v1 for v2 in all2 for v1 in all1)
        fixed = mpmath.mpc(mpmath.ldexp(x, -w), mpmath.ldexp(y, -w))
        assert abs(fixed - want) <= h12 * mpmath.ldexp(1, prec - 64 - w + 3)
        assert abs(want - n) <= mpmath.ldexp(abs(n), -(prec // 4 + TOL_BITS))


def test_fixed_point_product_is_the_resultant():
    # every coprime gz pair of fundamental |d| <= 60 and the six yz pairs of
    # criterion 4: N is (-1)^(h1 h2) Res(H_d1, H_d2) of the class
    # polynomials pair_norm returns (by the reference Bareiss), and the pair
    # product of the CM values agrees with it in sign and phase, within
    # 2^-(prec//4 + TOL_BITS) |N| at p_req bits, below prec on every pair
    discs = [d for d in range(-3, -61, -1) if is_fundamental_discriminant(d)]
    cases = [(j_value, d1, d2) for i, d1 in enumerate(discs)
             for d2 in discs[i + 1:] if gcd(d1, d2) == 1]
    cases += [(omega2_value, d1, d2) for d1, d2 in combinations(
        (-7, -15, -23, -31), 2)]
    for value, d1, d2 in cases:
        prec, polys, (n, (x, y), w) = pair_norm(value, d1, d2)
        assert prec == auto_prec(d1, d2, value=value)
        (_, f), (_, g) = polys.values()
        assert n == (-1) ** ((len(f) - 1) * (len(g) - 1)) * \
            _bareiss_resultant(f, g), (d1, d2)
        err = (x - (n << w)) ** 2 + y * y
        assert err << 2 * (prec // 4 + TOL_BITS) < n * n << 2 * w, (d1, d2)
        assert w - GUARD_BITS < prec
    assert len(cases) == 165 + 6


@pytest.mark.parametrize("kind,d1,d2,p_req,cold", [
    ("gz", -167, -311, 1820, [(-167, 1852), (-311, 1852)]),
    ("yz", -71, -1199, 1865, [(-71, 1884), (-1199, 1884)]),
    ("yz", -79, -415, 458, [(-79, 457), (-415, 457), (-79, 458),
                            (-415, 458)])])
def test_the_kernel_runs_at_the_bits_the_checks_need(monkeypatch, kind, d1,
                                                     d2, p_req, cold):
    # p_req, the bits of the pair product (numeric.pair_norm), against prec
    # 6146, 3334 and 791.  With both class polynomials kept, the kernel runs
    # at auto_prec(d) for each polynomial and at p_req for the product, never
    # above.  On a cold table each discriminant is evaluated once, at p0,
    # above p_req by 32 and 19 bits on the first two pairs; yz(-79, -415) is
    # one of the 22 pairs of the gz |d| <= 300 and yz |d| <= 600 sweeps
    # where p0 falls short of p_req, and evaluated again
    value = CLASS_VALUE[kind]
    calls, kernel = [], []
    cm_values, eta_quotient = numeric.cm_values, numeric._eta_quotient
    monkeypatch.setattr(numeric, "cm_values", lambda value, d, prec:
                        calls.append((d, prec)) or cm_values(value, d, prec))
    monkeypatch.setattr(numeric, "_eta_quotient", lambda tau, prec:
                        kernel.append(prec) or eta_quotient(tau, prec))
    for d in (d1, d2):
        numeric.class_poly(value, d)
    assert calls == [(d, auto_prec(d, value=value)) for d in (d1, d2)]
    calls.clear()
    _, _, (n, _, w) = pair_norm(value, d1, d2)
    assert w - GUARD_BITS == p_req and calls == [(d1, p_req), (d2, p_req)]
    assert max(kernel) == max(p_req, *(auto_prec(d, value=value)
                                       for d in (d1, d2)))
    clear_class_tables()
    calls.clear()
    assert pair_norm(value, d1, d2)[2][0] == n and calls == cold


@pytest.mark.parametrize("kind,fn,d1,d2", [("gz", gz_verify, -47, -79),
                                           ("yz", yz_verify, -71, -79)])
def test_a_kernel_off_by_a_quarter_of_the_bits_is_a_mismatch(
        monkeypatch, kind, fn, d1, d2):
    # at the pair's own auto_prec, 686 and 441 bits: CM values off by a
    # relative 2^-(prec//4 - 8) still round both class polynomials, so N is
    # the true resultant and factors exactly; the log gate sees the values,
    # and so does the product's match with N
    assert fn(d1, d2).ok()
    clear_class_tables()
    prec = auto_prec(d1, d2, value=CLASS_VALUE[kind])
    n = prec // 4 - 8
    for name in ("eval_j", "eval_omega2"):
        exact = getattr(numeric, name)
        monkeypatch.setattr(numeric, name, lambda tau, prec, f=exact:
                            scaled(f(tau, prec), n))
    r = fn(d1, d2)
    assert r.prec == prec and r.factor_match and r.resultant_match is False
    assert r.status == "mismatch" and len(r.notes) == 1
    assert r.notes[0].endswith(f"above 2^-{prec // 4}")
    with redirect_stdout(io.StringIO()):
        assert main([kind, "--d1", str(d1), "--d2", str(d2)]) == EXIT_MISMATCH


@pytest.mark.parametrize("kind,fn,rhs_name,d1,d2", DRIVER_CASES)
def test_a_product_of_the_wrong_sign_fails_the_resultant_match(
        monkeypatch, kind, fn, rhs_name, d1, d2):
    # |prod|^2 is unchanged, so the log gate passes: only resultant_match
    # tests the sign and phase of the product against N
    pair_product = numeric._pair_product
    monkeypatch.setattr(numeric, "_pair_product", lambda *a:
                        tuple(-x for x in pair_product(*a)))
    r = fn(d1, d2)
    assert r.factor_match and r.resultant_match is False and r.notes == []
    assert r.status == "mismatch"
    with redirect_stdout(io.StringIO()):
        assert main([kind, "--d1", str(d1), "--d2", str(d2)]) == EXIT_MISMATCH


def _walk_factor_check(n, predicted, scale, notes):
    """The reference factor check: the valuations of n at every predicted
    prime, one by one, and the cofactor."""
    cofactor, fact = abs(n), {}
    for p in predicted:
        if cofactor % p == 0:
            fact[p] = valuation(cofactor, p)
            cofactor //= p ** fact[p]
    match = cofactor == 1
    if not match:
        notes.append(f"cofactor {cofactor} after the predicted primes")
    for p, e in predicted.items():
        if fact.get(p, 0) * scale != e:
            match = False
            notes.append(f"exponent of {p}: {fact.get(p, 0)} * {scale} "
                         f"!= {e}")
    return fact, match


def test_the_factor_check_product_agrees_with_the_valuation_walk():
    # the one product of predicted prime powers decides a match; valuations
    # and notes equal the walk's on exact, dropped, bumped, extra and
    # fractional predictions, negative N and both signs of exponent
    rng = random.Random("factor-check")
    seen = set()
    for _ in range(3000):
        scale = rng.choice([Fraction(2), Fraction(8), Fraction(2, 3),
                            Fraction(8, 9)])
        primes = rng.sample([2, 3, 5, 7, 11, 13, 17, 19], rng.randint(0, 5))
        exps = {p: rng.randint(1, 5) for p in primes}
        n = rng.choice([1, -1]) * prod(p ** e for p, e in exps.items())
        predicted = {p: e * scale for p, e in exps.items()}
        kind = rng.choice(["exact", "drop", "bump", "extra", "fraction",
                           "negative"])
        if kind == "drop" and predicted:
            del predicted[rng.choice(primes)]
        elif kind == "bump" and predicted:
            predicted[rng.choice(primes)] += scale
        elif kind == "extra":
            predicted[23] = scale
        elif kind == "fraction" and predicted:
            predicted[rng.choice(primes)] += Fraction(1, 7)
        elif kind == "negative" and predicted:
            predicted[rng.choice(primes)] *= -1
        notes, want_notes = [], []
        got = verify._factor_check(n, predicted, scale, notes)
        want = _walk_factor_check(n, predicted, scale, want_notes)
        assert got == want and notes == want_notes, (n, predicted, scale)
        assert list(got[0]) == list(want[0])
        seen.add((kind, got[1]))
    assert {("exact", True), ("drop", False), ("bump", False),
            ("extra", False), ("fraction", False), ("negative", False)} <= seen


def test_gz_verify_minus3_minus67():
    r = gz_verify(-3, -67)
    assert r.ok()
    assert r.factor_match and r.resultant_match
    # j(-67 point) = -147197952000 = -2^15 3^3 5^3 11^3, j(-3 point) = 0
    assert r.product_integer == -147197952000
    assert r.factorization == {2: 15, 3: 3, 5: 3, 11: 3}


@pytest.mark.parametrize("kind,fn,rhs_name,d1,d2", DRIVER_CASES)
def test_driver_reports_a_wrong_arithmetic_side(monkeypatch, kind, fn,
                                                rhs_name, d1, d2):
    # the predicted 2^1 is wrong for both products and their odd primes are
    # not predicted: both the cofactor and the exponent of 2 disagree
    monkeypatch.setattr(verify, rhs_name, lambda a, b: PrimeLog({2: 1}))
    r = fn(d1, d2)
    assert r.status == "mismatch" and not r.factor_match
    assert any(n.startswith("cofactor") for n in r.notes)
    assert any(n.startswith("exponent of 2") for n in r.notes)
    with redirect_stdout(io.StringIO()):
        assert main([kind, "--d1", str(d1), "--d2", str(d2)]) == EXIT_MISMATCH


@pytest.mark.parametrize("kind,fn,rhs_name,d1,d2", DRIVER_CASES)
def test_driver_reports_exhausted_precision(monkeypatch, capsys, kind, fn,
                                            rhs_name, d1, d2):
    # no value rounds: each class polynomial runs its loop once, MAX_RETRIES
    # doublings of its own auto_prec, and the report at the pair's auto_prec
    # names every retry and both discriminants, with no N and no product
    products = []
    pair_product = numeric._pair_product
    monkeypatch.setattr(numeric, "_pair_product", lambda *a:
                        products.append(a) or pair_product(*a))
    monkeypatch.setattr(numeric, "recognize_integer", lambda *a, **k: None)
    r = fn(d1, d2)
    assert r.status == "precision" and r.product_integer is None
    assert r.resultant_match is None and products == []
    value = CLASS_VALUE[kind]
    assert r.notes == [
        f"retry at {auto_prec(d, value=value) * 2 ** k} bits for d={d}"
        for d in (d1, d2) for k in range(1, MAX_RETRIES + 1)] + [
        f"class polynomial for d={d} did not round" for d in (d1, d2)]
    assert r.prec == auto_prec(d1, d2, value=value)
    assert main([kind, "--d1", str(d1), "--d2", str(d2)]) == EXIT_PRECISION
    # the class polynomial shares the retry count and the exit code
    assert main(["class-poly", "--d", "-15"]) == EXIT_PRECISION
    assert "class polynomial for d=-15 did not stabilize" in \
        capsys.readouterr().err


def test_a_class_polynomial_that_never_rounds_is_sought_once(monkeypatch):
    # each class polynomial runs its own doubling loop once; without N
    # there is no pair product, and the report names both discriminants
    expansions, products = [], []
    monkeypatch.setattr(numeric, "integer_polynomial",
                        lambda *a: expansions.append(a))
    pair_product = numeric._pair_product
    monkeypatch.setattr(numeric, "_pair_product", lambda *a:
                        products.append(a) or pair_product(*a))
    r = gz_verify(-7, -15)
    assert len(expansions) == 2 * (MAX_RETRIES + 1) == 8
    assert len(products) == 0
    assert r.status == "precision" and r.product_integer is None
    assert r.resultant_match is None and r.lhs_log is None
    assert r.prec == auto_prec(-7, -15) == 97
    assert r.notes == [f"retry at {p} bits for d={d}"
                       for d, base in ((-7, 78), (-15, 95))
                       for p in (2 * base, 4 * base, 8 * base)] + [
        "class polynomial for d=-7 did not round",
        "class polynomial for d=-15 did not round"]
    with redirect_stdout(io.StringIO()):
        assert main(["gz", "--d1", "-7", "--d2", "-15"]) == EXIT_PRECISION


def test_verify_leaves_the_analytic_side_to_numeric():
    # the driver names no private name of numeric, no guard bits and no
    # precision or precision loop of its own: numeric.pair_norm owns them,
    # and gives the class polynomials too; the driver reads nothing else of
    # numeric but the gate's bits and the two class-value functions
    names = []
    for node in ast.walk(ast.parse(Path(verify.__file__).read_text())):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
            if isinstance(node.value, ast.Name):
                names.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, (ast.Name, ast.alias)):
            names.append(getattr(node, "id", None) or node.name)
    assert [name for name in names if name.startswith("numeric._")
            or name in ("GUARD_BITS", "precisions", "auto_prec")] == []
    assert len(names) > 100 and "class_poly" not in names
    assert {name for name in names if name.startswith("numeric.")} == {
        "numeric.pair_norm", "numeric.gate_prec", "numeric.j_value",
        "numeric.omega2_value"}


def test_the_exact_side_loads_neither_mpmath_nor_numeric():
    # in a fresh interpreter: both arithmetic sides, a Borcherds check and
    # the rho command run on the standard library alone; gz_verify then
    # loads the analytic side, so the probe sees a load when there is one
    probe = """if True:
        import json, sys
        import cmfactor
        from cmfactor import cli
        heavy = ("mpmath", "dataclasses", "cmfactor.numeric")
        cmfactor.gz_rhs(-3, -4)
        cmfactor.yz_rhs(-7, -15)
        cmfactor.borcherds_verify("j", 2, 2)
        cli.main(["rho", "--d1", "-71", "--d2", "-127", "--m", "71"])
        exact = [m for m in heavy if m in sys.modules]
        cmfactor.gz_verify(-3, -4)
        print(json.dumps([exact, [m for m in heavy if m in sys.modules]]))
    """
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    exact, analytic = json.loads(out.splitlines()[-1])
    assert exact == []
    assert {"mpmath", "cmfactor.numeric"} <= set(analytic)


def test_a_report_has_the_defaults_and_containers_of_its_own():
    a, b = (verify.VerificationReport(kind="gz", d1=-3, d2=-4, prec=77,
                                      status="precision") for _ in "ab")
    assert (a.lhs_log, a.rhs_log, a.residual, a.product_integer) == (
        None, None, None, None)
    assert (a.factorization, a.rhs_exponents, a.notes) == ({}, {}, [])
    assert (a.factor_match, a.resultant_match) == (False, None)
    assert a == b and not a.ok()
    a.factorization[2] = 6
    a.rhs_exponents[2] = Fraction(2)
    a.notes.append("retry")
    assert (b.factorization, b.rhs_exponents, b.notes) == ({}, {}, [])
    assert a != b
    # a verified report equals its recomputation, field by field
    assert gz_verify(-3, -4) == gz_verify(-3, -4) != gz_verify(-3, -7)


@pytest.mark.parametrize("d1,d2", [(-119, -127), (-23, -399)])
def test_yz_kernel_arguments_stay_high_in_the_upper_half_plane(monkeypatch,
                                                               d1, d2):
    # every omega2 is taken at the reduced form's CM point tau, at tau/2 or
    # at (tau + 1)/2, so Im >= sqrt(3)/4; odd-norm forms reach down to 0.30
    # at d = -127 and 0.19 at d = -399
    seen = []
    exact = numeric.eval_omega2
    monkeypatch.setattr(numeric, "eval_omega2", lambda tau, prec:
                        seen.append(mpmath.ldexp(tau[1], -prec - GUARD_BITS))
                        or exact(tau, prec))
    assert yz_verify(d1, d2).ok()
    assert len(seen) > 0
    assert min(seen) >= mpmath.sqrt(3) / 4


def test_gz_verify_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gz_verify(-3, -12)


@pytest.mark.parametrize("kind,fn,d1,d2,n", [("gz", gz_verify, -3, -4, 1728),
                                              ("yz", yz_verify, -7, -15, -45)])
def test_residual_gate_catches_perturbed_cm_values(monkeypatch, force_prec,
                                                   kind, fn, d1, d2, n):
    # CM values off by a relative 2^-60 still give the right N, the
    # resultant of their class polynomials, which factors exactly; only the
    # analytic product sees them, in its log residual and in its match with
    # N, and only at a precision with slack over |N|: 400 bits
    force_prec(400, d1, d2)
    for name in ("eval_j", "eval_omega2"):
        exact = getattr(numeric, name)
        monkeypatch.setattr(numeric, name, lambda tau, prec, f=exact:
                            scaled(f(tau, prec), 60))
    r = fn(d1, d2)
    assert r.product_integer == n
    assert r.factor_match and r.resultant_match is False
    assert r.status == "mismatch"
    assert len(r.notes) == 1
    # 2.89e-19 for gz, 7.55e-20 for yz: 2^12 / omega2 flips the sign of the
    # perturbation at the classes whose a is even
    assert re.fullmatch(r"residual \S+e-(19|20) above 2\^-100", r.notes[0])
    argv = [kind, "--d1", str(d1), "--d2", str(d2)]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_MISMATCH


@pytest.mark.parametrize("kind,fn,d1,d2,bits", [
    ("gz", gz_verify, -3, -4, 400), ("gz", gz_verify, -7, -15, 2000),
    ("yz", yz_verify, -7, -15, 400), ("yz", yz_verify, -7, -15, 2000)])
def test_log_gate_sees_perturbations_just_above_its_threshold(
        monkeypatch, force_prec, kind, fn, d1, d2, bits):
    # CM values off by a relative 2^-(prec//4 - 8) put the log residual
    # above the gate's 2^-(prec//4): by 2^6.4 for gz(-3, -4), where j = 0 at
    # -3, by 2^10 for gz(-7, -15) and by 2^4.5 for yz(-7, -15).  The logs,
    # at numeric.gate_prec(prec) bits, resolve it, and the product is off N
    # by more than 2^-(prec//4) |N| too; the unperturbed pair is ok
    force_prec(bits, d1, d2)
    assert fn(d1, d2).ok()
    clear_class_tables()
    for name in ("eval_j", "eval_omega2"):
        exact = getattr(numeric, name)
        monkeypatch.setattr(numeric, name, lambda tau, prec, f=exact:
                            scaled(f(tau, prec), bits // 4 - 8))
    r = fn(d1, d2)
    assert r.factor_match and r.resultant_match is False
    assert r.status == "mismatch"
    assert len(r.notes) == 1 and r.notes[0].endswith(f"above 2^-{bits // 4}")


@pytest.mark.parametrize("prec", [1, 0, -7])
def test_a_precision_option_is_a_usage_error(capsys, prec):
    # the working precision comes only from auto_prec
    with pytest.raises(TypeError):
        gz_verify(-3, -4, prec=prec)
    with pytest.raises(TypeError):
        yz_verify(-7, -15, prec=prec)
    with pytest.raises(TypeError):
        numeric.class_polynomial(-15, prec)
    for argv in (["gz", "--d1", "-3", "--d2", "-4"],
                 ["yz", "--d1", "-7", "--d2", "-15"],
                 ["class-poly", "--d", "-15"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--prec", str(prec)])
        assert exc.value.code == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("unrecognized arguments: --prec") == 3


# the six pairs of criterion 4, and two pairs of class numbers (7, 5) and
# (7, 13)
@pytest.mark.parametrize("d1,d2", [(-7, -15), (-7, -23), (-7, -31),
                                   (-15, -23), (-15, -31), (-23, -31),
                                   (-71, -127), (-151, -191)])
def test_yz_runs_the_resultant_oracle(d1, d2):
    r = yz_verify(d1, d2)
    assert r.status == "ok" and r.resultant_match is True, (r.status, r.notes)


def test_yz_verify_small_pair():
    r = yz_verify(-7, -15)
    assert r.ok()
    assert r.product_integer == -45
    assert r.factorization == {3: 2, 5: 1}
    assert r.rhs_exponents == {3: Fraction(4), 5: Fraction(2)}


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_cli_gz_ok_exit_code():
    code, out = _run_cli(["gz", "--d1", "-3", "--d2", "-67"])
    assert code == EXIT_OK
    assert "status=ok" in out
    assert "-147197952000" in out


def test_cli_hypothesis_exit_code(capsys):
    assert main(["gz", "--d1", "-3", "--d2", "-12"]) == EXIT_HYPOTHESIS
    assert main(["yz", "--d1", "-3", "--d2", "-7"]) == EXIT_HYPOTHESIS


@pytest.mark.parametrize("argv", [
    ["--threads", "2", "gz", "--d1", "-3", "--d2", "-4"],   # unknown option
    ["gz", "--d1", "x", "--d2", "-4"],                      # not an integer
    ["gz", "--d1", "-3"],                                   # missing --d2
])
def test_cli_usage_error_exit_code(capsys, argv):
    # a bad command line must not read as "sides disagree" (EXIT_MISMATCH)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE != EXIT_MISMATCH
    assert "usage: cmfactor" in capsys.readouterr().err


def test_borcherds_check_rejects_negative_boxes(capsys):
    for n1, n2 in [(-3, -3), (-1, 4), (4, -1)]:
        with pytest.raises(ValueError):
            borcherds_verify("weber", n1, n2)
    argv = ["borcherds-check", "--case", "weber", "--order", "-3"]
    assert main(argv) == EXIT_HYPOTHESIS
    assert "exact match" not in capsys.readouterr().out


def test_borcherds_check_reports_a_mismatch(monkeypatch):
    # one coefficient of the expansion side off by one, q^2 of omega2,
    # shows at both of its keys in omega2(q1) - omega2(q2)
    omega2_series = series.omega2_series

    def perturbed(order):
        s = omega2_series(order)
        return s + FracQSeries({2: 1}, s.cutoff)

    monkeypatch.setattr(series, "omega2_series", perturbed)
    code, out = _run_cli(["borcherds-check", "--case", "weber",
                          "--order", "3"])
    assert code == EXIT_MISMATCH
    assert out.splitlines() == [
        "weber through (3,3): MISMATCH",
        "  q1^0 q2^2: product -98304 vs expansion -98305",
        "  q1^2 q2^0: product 98304 vs expansion 98305"]


def test_readme_example_matches_cli():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```\n\$ cmfactor ([^\n]*)\n(.*?)```", readme, re.S)
    code, out = _run_cli(shlex.split(block.group(1)))
    assert code == EXIT_OK
    assert out.splitlines() == block.group(2).splitlines()


def test_cli_json_deterministic():
    code1, out1 = _run_cli(["yz", "--d1", "-7", "--d2", "-15", "--json"])
    code2, out2 = _run_cli(["yz", "--d1", "-7", "--d2", "-15", "--json"])
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert '"resultant_match":true' in out1
    doc = json.loads(out1)
    assert doc["status"] == "ok"
    assert doc["product_integer"] == "-45"
    assert doc["factorization"] == [{"p": 3, "e": 2}, {"p": 5, "e": 1}]


def test_cli_json_of_a_large_pair_is_deterministic():
    # two runs from an empty table, as in two processes, and one on the
    # table the first left: the logs and the residual carry the digits of
    # numeric.gate_prec(prec), not of prec
    argv = ["gz", "--d1", "-167", "--d2", "-311", "--json"]
    runs = []
    for clear in (True, False, True):
        if clear:
            clear_class_tables()
        runs.append(_run_cli(argv))
    assert runs[0] == runs[1] == runs[2] and runs[0][0] == EXIT_OK
    doc = json.loads(runs[0][1])
    assert doc["prec"] == 6146
    digits = floor(gate_prec(6146) * log10(2))
    mantissa = doc["lhs_log"].split("e")[0].replace(".", "").lstrip("0")
    assert 400 < len(mantissa) <= digits < floor(6146 * log10(2))
    assert mpmath.mpf(doc["residual"]) < mpmath.ldexp(1, -(6146 // 4))


def test_cli_borcherds_check():
    code, out = _run_cli(["borcherds-check", "--case", "weber", "--order", "3"])
    assert code == EXIT_OK
    assert "exact match" in out


def test_cli_rho_subcommand():
    code, out = _run_cli(["rho", "--d1", "-3", "--d2", "-163", "--m", "21"])
    assert code == EXIT_OK
    assert "N(t) = -12" in out
    assert "rho(t O_F) =" in out


def test_cli_rho_large_m():
    # N(t) = 2^2 3 5 7 13 151 1367 88729, about 1e14
    code, out = _run_cli(["rho", "--d1", "-7", "--d2", "-15",
                          "--m", "20000085"])
    assert code == EXIT_OK
    assert "N(t) = 100000850001780" in out
    assert "split prime above 88729 (branch -1): exponent 1" in out
    assert "rho(t O_F) = 0" in out


def test_cli_rho_checks_its_pair(capsys):
    # -3, -3 is not a coprime pair (D = 9 is a square): no output, exit 3
    assert main(["rho", "--d1", "-3", "--d2", "-3", "--m", "1"]) == \
        EXIT_HYPOTHESIS
    out = capsys.readouterr()
    assert out.out == ""
    assert "coprime" in out.err


def test_cli_rho_checks_the_parity_of_m(capsys):
    # D = 105 is odd, so (2 + sqrt(105))/2 is not integral: no output, exit 3
    assert main(["rho", "--d1", "-7", "--d2", "-15", "--m", "2"]) == \
        EXIT_HYPOTHESIS
    out = capsys.readouterr()
    assert out.out == ""
    assert "m = D mod 2" in out.err


def test_cli_class_poly():
    code, out = _run_cli(["class-poly", "--d", "-15"])
    assert code == EXIT_OK
    assert "191025" in out and "121287375" in out


def test_cli_whittaker():
    code, out = _run_cli(["whittaker", "--a", "0", "--ord", "3"])
    assert code == EXIT_OK
    assert "value at s=0 is 1" in out


def test_cli_whittaker_large_ord():
    # 2^-(s ord) has thousands of digits; the digit limit is lifted for the
    # output alone
    limit = sys.get_int_max_str_digits()
    code, out = _run_cli(["whittaker", "--a", "0", "--ord", "30000"])
    assert code == EXIT_OK
    assert "value at s=0 is 29999/2" in out
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("as_json", [True, False])
def test_cli_prints_a_product_of_more_than_4300_digits(monkeypatch, as_json):
    # N of gz(-551, -599) has 6429 digits: it is printed exactly, not
    # reported as a hypothesis violation, and the digit limit is lifted for
    # the command alone
    n, digits = -(10 ** 6428 + 1), "-1" + "0" * 6427 + "1"
    report = verify.VerificationReport(
        kind="gz", d1=-551, d2=-599, prec=22182, status="ok",
        product_integer=n, residual=mpmath.mpf(0))
    monkeypatch.setattr(cli, "gz_verify", lambda d1, d2: report)
    limit = sys.get_int_max_str_digits()
    argv = ["gz", "--d1", "-551", "--d2", "-599"] + ["--json"] * as_json
    code, out = _run_cli(argv)
    assert code == EXIT_OK
    assert digits in out
    assert sys.get_int_max_str_digits() == limit
