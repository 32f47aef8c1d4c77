"""Every exact check of cmfactor is live: one row per check, whose mutant
disables or weakens it, and whose probe passes on the code as it is and
fails under the mutant.

A row is (module, function, old, new, probe).  The mutant puts new for the
one occurrence of old in the source of cmfactor.<module>.<function>
(conftest's mutate).  A probe is a call under 1 s, given a monkeypatch for
at most one callee it patches.  Its docstring says whether an input reaches
the check, or only a callee patch, and then why no input does.  Every
`raise ArithmeticError` in src/cmfactor needs a row, found by its `if`
condition in the row's old text: a new exact check without one fails
test_every_exact_raise_has_a_row.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

import cmfactor
from cmfactor import (arithside, borcherds, discform, numeric, quadarith,
                      series, verify)
from cmfactor.arithside import t_range, whittaker2_shifted
from cmfactor.borcherds import product_expansion_j, product_expansion_level2
from cmfactor.classgroup import reduced_forms
from cmfactor.discform import VVForm, build_weber_f
from cmfactor.quadarith import EFCharacter, PrimeLog, factorize, valuation
from cmfactor.series import FracQSeries, eta_quotient, j_series
from cmfactor.verify import borcherds_verify, gz_verify

from conftest import clear_class_tables, forced_prec


def composite_modulus(mp):
    """Input: Euler's criterion proves 15 composite at base 2."""
    with pytest.raises(ArithmeticError, match="^15 is not prime$"):
        quadarith.legendre(2, 15)


def wrong_sieve_root(mp):
    """Callee patch: tonelli returns a square root at every odd prime.  The
    one-symbol cofactor test rests on a complete sieve; a root of D mod 7
    that does not square to D would leave 7 in cofactors, which legendre
    proves composite only one-sidedly."""
    root = quadarith.tonelli
    mp.setattr(quadarith, "tonelli", lambda a, p: (
        root(a, p) + 1) % p if p == 7 else root(a, p))
    with pytest.raises(ArithmeticError, match="not a square root of D mod 7$"):
        quadarith.factor_norms(t_range(-71, -127), EFCharacter(-71, -127))


def inert_at_odd_order(mp):
    """Input: 5 | 105 is inert in E/F for (-7, -15), so no ideal of E has
    relative norm P_5.  The sums never reach the rule, as their t P^-1 has
    every inert prime at even order; chi_log_identity and the rho
    subcommand do."""
    assert quadarith.rho({5: 1}, EFCharacter(-7, -15)) == 0


def level2_walk(mp):
    """Input: the level-2 walk factors only the t with 4 | N(t).  The rule
    only saves work: a t with 2 || N(t) has rho(t P^-1 P_t^-2) = 0 in
    yz_rhs and weight 4 W(1) W(0) = 0 in yz_rhs_whittaker, so the sums
    alone cannot see it; the walk can."""
    walk = arithside._odd_diff_terms(EFCharacter(-71, -127), level2=True)
    assert all(fact[2] >= 2 for fact, _, _ in walk)


def two_not_split(mp):
    """Callee patch: check_yz_hypotheses refuses every pair whose primes
    above 2 do not split in E/F, as d1 = d2 = 1 mod 8 splits 2 in E.  2 is
    inert in Q(sqrt -3) and ramified in Q(sqrt -4)."""
    mp.setattr(arithside, "check_yz_hypotheses", lambda d1, d2: None)
    with pytest.raises(ArithmeticError, match="split in E/F"):
        arithside.yz_rhs_whittaker(-3, -4)


def weight_at_order_1(mp):
    """Callee patch: whittaker2_Ma gives 4 W(1) W(0) = 0 at s = 0 by its
    formula.  The route walks the t of level 2 only because of that."""
    W = arithside.whittaker2_Ma
    mp.setattr(arithside, "whittaker2_Ma", lambda a, o, s: (
        Fraction(1, 2) if (a, o, s) == (0, 1, 0) else W(a, o, s)))
    with pytest.raises(ArithmeticError, match="must vanish at s = 0"):
        arithside.yz_rhs_whittaker(-7, -15)


def miller_remainder(mp):
    """Input: sqrt(1 + q) = 1 + q/2 - ... leaves a remainder, an integer
    power does not."""
    assert series._miller([1, 1, 0], -1) == [1, -1, 1]
    with pytest.raises(ArithmeticError, match="remainder"):
        series._miller([1, 1, 0], Fraction(1, 2))


def deep_principal_part(mp):
    """Input: a q^-2 term gives factors with mn < -1, which no product
    has."""
    with pytest.raises(ArithmeticError, match="deeper than q"):
        borcherds.weyl_vector(j_series(10) - 744 + FracQSeries({-2: 1}, 11))


def deep_term_in_a_component(mp):
    """Input: in the weber form two q^-6 terms cancel in the restriction,
    so the Weyl vector passes and the component read for the exponents
    raises."""
    q6 = FracQSeries({-6: 1}, 300)
    c = dict(build_weber_f(4 * 7).components)
    c["mu0"], c["mu2"] = c["mu0"] - q6, c["mu2"] + q6
    with pytest.raises(ArithmeticError, match="deeper than q"):
        product_expansion_level2(VVForm(components=c), -4096, 4, 4)


def fractional_exponents(mp):
    """Input: q^-1/2 + 5 q^1/2 + 7 q^3/2 has no integer exponents."""
    half = {Fraction(-1, 2): 1, Fraction(1, 2): 5, Fraction(3, 2): 7}
    with pytest.raises(ArithmeticError, match="fractional powers"):
        product_expansion_j(FracQSeries(half, 12), 2, 2)


def row_remainder(mp):
    """Callee patch: every row of a Borcherds product has integer
    coefficients (Thm. 13.3), so N divides its row sum.  A row sum off by
    one leaves a remainder."""
    product_sum = borcherds.product_sum
    mp.setattr(borcherds, "product_sum", lambda pairs: (
        lambda s: FracQSeries.dense(s.off, [s.a[0] + 1] + s.a[1:]))(
            product_sum(pairs)))
    with pytest.raises(ArithmeticError, match="remainder mod 2"):
        product_expansion_j(j_series(45) - 744, 4, 4)


def fractional_restriction(mp):
    """Input: mu0 = eta(z) has exponents in 1/24 + Z."""
    f = VVForm(components={"mu0": eta_quotient(4, 1, 0),
                           "mu2": FracQSeries.constant(0, 4)})
    with pytest.raises(ArithmeticError, match="fractional exponents"):
        discform.restrict_to_M(f)


def polynomial_never_rounds(mp):
    """Callee patch: auto_prec bounds the bits of every class polynomial,
    so the first precision rounds; only an integer_polynomial that never
    rounds reaches the check."""
    mp.setattr(numeric, "integer_polynomial", lambda values, w: None)
    with pytest.raises(ArithmeticError, match="did not stabilize"):
        numeric.class_polynomial(-23)


def retry(mp):
    """Callee patch: auto_prec is a bound, so no class polynomial needs a
    retry; at a forced 8 bits -23 rounds after one doubling."""
    forced_prec(mp)(8, -23)
    assert numeric.class_polynomial(-23) == [1, 3491750, -5151296875,
                                             12771880859375]


def rounding_tolerance(mp):
    """Callee patch: auto_prec leaves TOL_BITS to spare, so every
    coefficient rounds within 2^-TOL_BITS; at a forced 8 bits those of -71
    and -127 do not, and the report says so instead of factoring a wrong
    N."""
    force_prec = forced_prec(mp)
    force_prec(8, -71)
    force_prec(8, -127)
    assert gz_verify(-71, -127).status == "precision"


def imaginary_weight_1(mp):
    """Callee patch: a value of weight 1 is real up to the kernel's error.
    One off by 2^-20 i makes the report say so instead of factoring a
    wrong N."""
    cm_values = numeric.cm_values

    def tilted(value, d, prec):
        shift = 1 << prec + numeric.GUARD_BITS - 20
        return [((x, y + shift) if weight == 1 else (x, y), weight)
                for (x, y), weight in cm_values(value, d, prec)]

    mp.setattr(numeric, "cm_values", tilted)
    assert gz_verify(-71, -127).status == "precision"


def odd_class_number_product(mp):
    """Input: h(-3) h(-7) = 1 is odd, so N = -Res(H_-3, H_-7) = -3375."""
    r = gz_verify(-3, -7)
    assert r.ok() and r.product_integer == -3375


def wrong_prediction(mp):
    """Input: 30 is not 2 * 3."""
    notes = []
    assert verify._factor_check(30, {2: 1, 3: 1}, Fraction(1), notes) == (
        {2: 1, 3: 1}, False)
    assert notes == ["cofactor 5 after the predicted primes"]


def negated_product(mp):
    """Callee patch: the pair product of the CM values is N within
    2^-(prec//4) |N|, its sign and phase included, for every pair; a
    negated one passes the factor check and the log gate."""
    pair_product = numeric._pair_product
    mp.setattr(numeric, "_pair_product", lambda *args: tuple(
        -x for x in pair_product(*args)))
    r = gz_verify(-7, -15)
    assert r.factor_match and r.resultant_match is False
    assert r.status == "mismatch"


ROWS = [
    ("quadarith", "legendre", "if r > 1 and r != p - 1:", "if False:",
     composite_modulus),
    ("quadarith", "_sieve_hits", "if r is not None and (r * r - D) % p:",
     "if False:", wrong_sieve_root),
    ("quadarith", "rho", "elif e % 2 != 0:", "elif False:",
     inert_at_odd_order),
    ("arithside", "_odd_diff_terms", "if level2:", "if False:", level2_walk),
    ("arithside", "yz_rhs_whittaker", "if not chi[2]:", "if False:",
     two_not_split),
    ("arithside", "yz_rhs_whittaker", "if w2(1):", "if False:",
     weight_at_order_1),
    ("series", "_miller", "if r:", "if False:", miller_remainder),
    ("borcherds", "_check_principal_part", "if s.a and s.off < -1:",
     "if False:", deep_principal_part),
    ("borcherds", "weyl_vector", "_check_principal_part(f_M)", "pass",
     deep_principal_part),
    ("borcherds", "_exponents", "_check_principal_part(s)", "pass",
     deep_term_in_a_component),
    ("borcherds", "_exponents", "if s.off.denominator != 1:", "if False:",
     fractional_exponents),
    ("borcherds", "_expand_product", "if any(c % N for c in s.a):",
     "if False:", row_remainder),
    ("discform", "restrict_to_M", "if s.off.denominator != 1:", "if False:",
     fractional_restriction),
    ("numeric", "class_polynomial", "if poly is None:", "if False:",
     polynomial_never_rounds),
    ("numeric", "class_poly", "range(MAX_RETRIES + 1)", "range(1)", retry),
    ("numeric", "recognize_integer",
     "n if x * x + y * y < 1 << 2 * (w - TOL_BITS) else None", "n",
     rounding_tolerance),
    ("numeric", "integer_polynomial", "elif abs(im) >= 1 << (w - TOL_BITS):",
     "elif False:", imaginary_weight_1),
    ("numeric", "pair_norm", "(-1) ** h12 * resultant(f, g)",
     "resultant(f, g)", odd_class_number_product),
    ("verify", "_factor_check",
     "prod(p ** x for p, (x, _) in exps.items()) == abs(n)", "True",
     wrong_prediction),
    ("verify", "_verify", "report.resultant_match = (",
     "report.resultant_match = True or (", negated_product),
]


def run_probe(monkeypatch, probe):
    """The probe on empty class tables, its callee patch undone when it
    returns."""
    with monkeypatch.context() as mp:
        clear_class_tables()
        probe(mp)


@pytest.mark.parametrize("module,function,old,new,probe", ROWS,
                         ids=[f"{m}.{f}: {probe.__name__}"
                              for m, f, _, _, probe in ROWS])
def test_each_check_is_live(monkeypatch, mutate, module, function, old, new,
                            probe):
    run_probe(monkeypatch, probe)
    mutate(f"{module}.{function}", old, new)
    with pytest.raises((Exception, pytest.fail.Exception)):
        run_probe(monkeypatch, probe)


def exact_raises():
    """(module, function, condition, exception) of every raise
    ArithmeticError(...) in src/cmfactor: the condition of the innermost if
    around it (or the raise itself) and the exception as source text."""
    out = []
    for path in sorted(Path(cmfactor.__file__).parent.glob("*.py")):
        src = path.read_text()

        def walk(node, names, cond):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    walk(child, names + [child.name], None)
                elif isinstance(child, ast.If):
                    walk(child, names, child.test)
                elif (isinstance(child, ast.Raise)
                      and isinstance(child.exc, ast.Call)
                      and getattr(child.exc.func, "id", None)
                      == "ArithmeticError"):
                    seg = ast.get_source_segment
                    out.append((path.stem, ".".join(names),
                                seg(src, cond if cond else child),
                                seg(src, child.exc)))
                else:
                    walk(child, names, cond)
        walk(ast.parse(src), [], None)
    return out


def test_every_exact_raise_has_a_row():
    raises = exact_raises()
    missing = [r for r in raises if not any(
        (m, f) == r[:2] and r[2] in old for m, f, old, *_ in ROWS)]
    assert raises and not missing, missing


def outcome(call):
    """repr of what call returns, or "<exception type>: <message>"."""
    try:
        return repr(call())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


ZERO = FracQSeries.dense(Fraction(1, 3), [])


# guards of bad arguments that no other test runs
@pytest.mark.parametrize("call,want", [
    (lambda: whittaker2_shifted(2, 0), r"ValueError: a must be 0 or 1"),
    (lambda: reduced_forms(-5),
     r"ValueError: d must be a negative discriminant"),
    (lambda: numeric._eta_quotient((0, 0), 10),
     r"ValueError: tau must lie in the upper half plane"),
    (lambda: valuation(0, 2), r"ValueError: valuation of zero"),
    (lambda: factorize(0), r"ValueError: cannot factor zero"),
    (lambda: PrimeLog({3: Fraction(1, 2), 2: 1}),
     r"PrimeLog\(1\*log\(2\) \+ 1/2\*log\(3\)\)"),
    (lambda: ZERO * 2, r"TypeError: unsupported operand type\(s\) for \*: "
                       r"'FracQSeries' and 'int'"),
    (lambda: ZERO == 0, r"False"),
    (lambda: ZERO ** 0, r"ZeroDivisionError: power of the zero series"),
    (lambda: ZERO ** 2, r"FracQSeries\(0 \+ O\(q\^2/3\)\)"),
    (lambda: borcherds_verify("eta3"), r"ValueError: unknown case 'eta3'")],
    ids=["whittaker2_shifted", "reduced_forms", "_eta_quotient", "valuation",
         "factorize", "PrimeLog.__repr__", "FracQSeries.__mul__",
         "FracQSeries.__eq__", "zero ** 0", "zero ** 2", "borcherds_verify"])
def test_each_guard_says_why(call, want):
    assert re.fullmatch(want, outcome(call))
