"""The per-discriminant table of class values and class polynomials
(numeric.class_values), as the verification driver and class_polynomial
read it."""

import random
from itertools import combinations
from math import gcd

import pytest

from cmfactor import numeric
from cmfactor.numeric import (GUARD_BITS, TOL_BITS, class_polynomial,
                              class_values, cm_values, integer_polynomial,
                              j_value, omega2_value)
from cmfactor.quadarith import is_fundamental_discriminant
from cmfactor.verify import gz_verify, yz_verify
from conftest import clear_class_tables
from test_numeric import scaled

VERIFY = {"gz": gz_verify, "yz": yz_verify}
EXACT_FIELDS = ("status", "prec", "product_integer", "factorization",
                "rhs_exponents", "factor_match", "resultant_match", "notes")


def kernel_calls(monkeypatch, key=lambda name, tau, prec: prec):
    """The list of key(name, tau, prec) of every eval_j and eval_omega2
    call from now on, by default the precisions."""
    seen = []
    for name in ("eval_j", "eval_omega2"):
        monkeypatch.setattr(numeric, name,
                            lambda tau, prec, f=getattr(numeric, name),
                            name=name: seen.append(key(name, tau, prec))
                            or f(tau, prec))
    return seen


def test_exact_fields_do_not_depend_on_the_table(monkeypatch):
    # a seeded, shuffled run of gz and yz pairs whose discriminants recur,
    # each pair at its own auto_prec, against the same pairs each run on an
    # empty table
    rng = random.Random("class-table")
    discs = [d for d in range(-7, -48, -1) if is_fundamental_discriminant(d)]
    gz = [("gz", a, b) for a, b in combinations(discs, 2) if gcd(a, b) == 1]
    yz = [("yz", a, b) for a, b in combinations(discs, 2)
          if a % 8 == b % 8 == 1 and gcd(a, b) == 1]
    ops = rng.sample(gz, 24) + rng.sample(yz, 8)
    rng.shuffle(ops)
    seen = kernel_calls(monkeypatch, lambda name, tau, prec: (
        name, complex(*(x / (1 << prec + GUARD_BITS) for x in tau)), prec))

    def exact(kind, d1, d2):
        r = VERIFY[kind](d1, d2)
        return tuple(getattr(r, name) for name in EXACT_FIELDS)

    warm = [exact(*op) for op in ops]
    warm_calls = list(seen)
    seen.clear()
    cold = []
    for op in ops:
        clear_class_tables()
        cold.append(exact(*op))
    assert warm == cold
    assert all(fields[0] == "ok" for fields in warm)
    # the warm run read shared discriminants from the table, and evaluated
    # some point again for more bits
    assert len(warm_calls) < len(seen)
    points = [call[:2] for call in warm_calls]
    assert len(set(points)) < len(points)
    assert len(set(warm_calls)) == len(warm_calls)


def test_a_shared_discriminant_is_evaluated_once_per_precision(monkeypatch,
                                                               force_prec):
    # one evaluation per conjugate pair of forms: 1 for -7 (h = 1), 2 for
    # -15 (h = 2, both forms self-conjugate), 2 for -23 (h = 3), at the
    # forced precision of each pair (numeric.pair_norm): at p0, 300 (capped
    # at the pair's 300 bits) and 174 of 200, above the auto_prec of each
    # discriminant (78, 95 and 113) and no lower than the pair product's
    # p_req; once both class polynomials are kept, at p_req, 367 of 400
    for bits, d1, d2 in [(300, -7, -15), (200, -7, -23), (400, -15, -23)]:
        force_prec(bits, d1, d2)
    seen = kernel_calls(monkeypatch)
    expansions = []     # the class polynomials, as they are expanded
    expand = numeric.integer_polynomial
    monkeypatch.setattr(numeric, "integer_polynomial", lambda values, w:
                        expansions.append(expand(values, w))
                        or expansions[-1])
    H = {-7: (1, 3375), -15: (1, 191025, -121287375),
         -23: (1, 3491750, -5151296875, 12771880859375)}
    assert gz_verify(-7, -15).ok()
    assert seen == [300] * 3 and expansions == [H[-7], H[-15]]
    seen.clear()
    # -7 is read at 300 bits
    assert gz_verify(-7, -23).ok()
    assert seen == [174] * 2 and expansions == [H[-7], H[-15], H[-23]]
    seen.clear()
    # both need more bits; their polynomials are kept
    assert gz_verify(-15, -23).ok()
    assert seen == [367] * 4 and expansions == [H[-7], H[-15], H[-23]]
    seen.clear()
    # class-poly reads the same j entry
    assert class_polynomial(-23) == [1, 3491750, -5151296875, 12771880859375]
    assert seen == []
    # omega2 has entries of its own
    assert yz_verify(-7, -15).ok()
    assert seen == [300] * 3
    assert {key[0] for key in numeric._values} == {j_value, omega2_value}


def test_a_forced_retry_recomputes_at_the_doubled_precision(monkeypatch,
                                                            force_prec):
    # j values off by a relative 2^-20 at 200 bits, the forced auto_prec of
    # -15, do not round its class polynomial; its retry evaluates -15 again
    # at 400 bits and replaces its entry.  -7 is evaluated once, at its
    # auto_prec, 78 bits, above p0 and the pair product's p_req (61 and 58
    # of the pair's 97 bits), which reads the exact values of 400 bits
    seen = []
    exact = numeric.eval_j

    def noisy(tau, prec):
        seen.append(prec)
        v = exact(tau, prec)
        return scaled(v, 20) if prec == 200 else v

    monkeypatch.setattr(numeric, "eval_j", noisy)
    force_prec(200, -15)
    r = gz_verify(-7, -15)
    assert r.ok() and r.prec == 97
    assert r.notes == ["retry at 400 bits for d=-15"]
    assert r.product_integer == -3 ** 6 * 5 ** 3 * 7 ** 2 * 13 ** 2
    assert seen == [78] + [200] * 2 + [400] * 2
    assert [numeric._values[j_value, d][0] for d in (-7, -15)] == [78, 400]
    assert numeric._polys[j_value, -15] == ([200, 400],
                                            (1, 191025, -121287375))


def test_the_table_keeps_every_entry(monkeypatch):
    # no bound and no eviction: the values of 257 discriminants, more than
    # the 247 of every fundamental |d| <= 600 of both functions, are all
    # kept, and the first one is read again with no kernel call
    discs = [d for d in range(-3, -10 ** 4, -1) if d % 4 in (0, 1)][:257]
    for d in discs:
        class_values(j_value, d, 8)
    assert list(numeric._values) == [(j_value, d) for d in discs]
    seen = kernel_calls(monkeypatch)
    class_values(j_value, -3, 8)
    assert seen == []


@pytest.mark.parametrize("prec", [0, -7])
def test_a_warm_table_still_rejects_nonpositive_precision(prec):
    assert gz_verify(-3, -4).ok() and yz_verify(-7, -15).ok()
    assert class_polynomial(-15) == [1, 191025, -121287375]
    for call in (lambda: cm_values(j_value, -15, prec),
                 lambda: class_values(j_value, -15, prec)):
        with pytest.raises(ValueError, match="must be at least 1 bit"):
            call()


def test_a_complex_self_conjugate_value_does_not_round():
    # both reduced forms of -15, (1, 1, 4) and (2, 1, 2), are self-conjugate,
    # so each has weight 1 and gets a linear factor over the reals, and its
    # imaginary part must vanish to 2^-TOL_BITS
    vals = cm_values(j_value, -15, 136)
    assert [weight for _, weight in vals] == [1, 1]
    assert integer_polynomial(vals, 200) == (1, 191025, -121287375)
    for bits, want in ((TOL_BITS, None),
                       (TOL_BITS + 8, (1, 191025, -121287375))):
        tilted = vals[1][0][0], 1 << (200 - bits)
        assert integer_polynomial([vals[0], (tilted, 1)], 200) == want
