"""Core exact-arithmetic layer: Laurent polynomials, exact division, and
the fraction-free resultant that eliminates a named variable."""

import operator
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import h14cert
from h14cert import (
    FormatError,
    LaurentPoly,
    NotDivisible,
    NotInvertible,
    VariableMismatch,
    VarSet,
    ZeroInput,
    determinant_fraction_free,
    frac_from_str,
    plain_vars,
    qq,
    resultant,
    sylvester_matrix,
    x_vars,
    xz_vars,
)
from h14cert.algebra import _exact_div, coeffs_in
from genutil import (
    naive_determinant,
    random_fraction,
    random_nonzero_poly,
    random_poly,
    reference_determinant,
    reference_deriv,
    reference_product,
)

V2 = x_vars(2)
X1 = LaurentPoly.variable(V2, "x1")
X2 = LaurentPoly.variable(V2, "x2")
# V2 with T appended: polynomials in T whose coefficients lie over V2
VT = VarSet(("x1", "x2", "T"), (True, False, False))
T = LaurentPoly.variable(VT, "T")


def in_t(*cs):
    """cs[0] + cs[1]*T + ... over VT; each cs[i] is a number or a
    polynomial over V2."""
    return sum(((c.with_vars(VT) if isinstance(c, LaurentPoly) else c) * T ** i
                for i, c in enumerate(cs)), LaurentPoly.zero(VT))


def test_qq_coercion():
    """qq takes ints and Fractions, and rejects text as it rejects a float:
    text is read only by `frac_from_str`, which refuses the strings that
    `Fraction(str)` would also have read."""
    assert qq(3) == Fraction(3)
    assert qq(Fraction(2, 5)) == Fraction(2, 5)
    for value in (0.5, "3/4", "-7", "0.5", "1e-3", "1_000", " 3/4 ", "\u0663/\u0664"):
        with pytest.raises(TypeError):
            qq(value)
    for text in ("0.5", "1e-3", "1_000", " 3/4 ", "\u0663/\u0664"):
        with pytest.raises(FormatError):
            frac_from_str(text)


def test_varset_shapes():
    v = x_vars(3)
    assert v.names == ("x1", "x2", "x3")
    assert v.laurent == (True, False, False)
    vz = xz_vars(2)
    assert vz.names == ("x1", "x2", "z")
    assert vz.laurent == (True, False, False)
    with pytest.raises(VariableMismatch):
        v.index("z")


def test_construction_and_normalization():
    p = LaurentPoly(V2, {(1, 0): Fraction(1), (0, 0): Fraction(0)})
    assert p == X1
    assert p.terms == {(1, 0): Fraction(1)}
    # duplicate exponent rows accumulate
    q = LaurentPoly(V2, [((2, 1), 1), ((2, 1), 2)])
    assert q.coeff((2, 1)) == 3
    # cancellation to zero
    r = LaurentPoly(V2, [((0, 1), 1), ((0, 1), -1)])
    assert r.is_zero()
    assert not r
    with pytest.raises(VariableMismatch):
        LaurentPoly(V2, {(1,): 1})
    with pytest.raises(VariableMismatch):
        LaurentPoly(V2, {(0, -1): 1})  # x2 is not invertible
    assert LaurentPoly(V2, {(-3, 0): 1}).order_in("x1") == -3


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(60):
        a = random_poly(rng, V2, exp_lo=-2)
        b = random_poly(rng, V2, exp_lo=-2)
        c = random_poly(rng, V2, exp_lo=-2)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == LaurentPoly.zero(V2)
        assert a * LaurentPoly.one(V2) == a
        assert a + 0 == a and a * 1 == a


def test_scalar_mixing():
    p = X1 + 2
    assert p.coeff((0, 0)) == 2
    assert (3 - X1) == -(X1 - 3)
    assert (p / 2) * 2 == p
    assert X1 * Fraction(1, 3) == X1 / 3
    with pytest.raises(ZeroDivisionError):
        X1 / 0


def test_powers_and_inversion():
    assert X1 ** 0 == LaurentPoly.one(V2)
    assert X1 ** 3 == LaurentPoly.monomial(V2, (3, 0))
    assert X1 ** -2 == LaurentPoly.monomial(V2, (-2, 0))
    m = LaurentPoly.monomial(V2, (2, 0), Fraction(3, 4))
    assert m.invert_term() == LaurentPoly.monomial(V2, (-2, 0), Fraction(4, 3))
    with pytest.raises(NotInvertible):
        (X1 + X2).invert_term()
    with pytest.raises(NotInvertible):
        (X1 + X2) ** -1
    with pytest.raises(NotInvertible):
        X2 ** -1  # not a Laurent slot
    with pytest.raises(NotInvertible):
        (X1 * X2).invert_term()  # the x2 factor blocks inversion


def test_degree_order_and_zero_errors():
    p = X1 ** -1 + X1 ** 4 * X2
    assert p.degree_in("x1") == 4
    assert p.order_in("x1") == -1
    assert p.degree_in("x2") == 1
    assert p.order_in("x2") == 0
    z = LaurentPoly.zero(V2)
    with pytest.raises(ZeroInput):
        z.degree_in("x1")
    with pytest.raises(ZeroInput):
        z.order_in("x1")


def test_is_polynomial_and_constants():
    assert (X1 + X2).is_polynomial()
    assert not (X1 ** -1).is_polynomial()
    c = LaurentPoly.const(V2, Fraction(5, 2))
    assert c.is_constant() and c.constant_term() == Fraction(5, 2)
    assert LaurentPoly.zero(V2).is_constant()
    assert not X1.is_constant()
    assert (X1 + 1).constant_term() == 1


def test_terms_sorted_descending():
    p = X2 + X1 + X1 * X2 + 1
    exps = [e for e, _ in p.terms_sorted()]
    assert exps == [(1, 1), (1, 0), (0, 1), (0, 0)]


def test_derivative_rules():
    rng = random.Random(55)
    for _ in range(40):
        a = random_poly(rng, V2, exp_lo=-2)
        b = random_poly(rng, V2, exp_lo=-2)
        for name in ("x1", "x2"):
            assert (a * b).deriv(name) == a.deriv(name) * b + a * b.deriv(name)
            assert (a + b).deriv(name) == a.deriv(name) + b.deriv(name)
    assert (X1 ** -1).deriv("x1") == -(X1 ** -2)
    assert (X1 ** 3 * X2).deriv("x1") == 3 * X1 ** 2 * X2


def random_varset(rng, width):
    return VarSet(tuple(f"v{i}" for i in range(width)),
                  tuple(rng.random() < 0.5 for _ in range(width)))


def random_operand(rng, vars, shape, scale):
    """A random operand over `vars` of the given shape ("zero", "one term"
    or "many"), every exponent multiplied by `scale`."""
    if shape == "zero":
        return LaurentPoly.zero(vars)
    p = random_nonzero_poly(rng, vars, max_terms=1 if shape == "one term" else 6,
                            exp_lo=-3, exp_hi=3)
    return LaurentPoly(vars, {tuple(k * scale for k in e): c for e, c in p.terms.items()})


def test_packed_product_matches_per_pair_reference():
    """The packed-exponent product gives the per-pair convolution's terms
    in the same order, and `**` its powers: widths 1-6 with random Laurent
    flags and negative exponents on the Laurent slots, a one-term or zero
    operand on either side, a scalar, cross terms that cancel, and
    exponents scaled by 2^40 + 1, whose packed keys pass 64 bits."""
    rng = random.Random(1640)
    shapes = ("many", "many", "many", "one term", "zero")
    cancelled = wide = 0
    for trial in range(900):
        vars = random_varset(rng, 1 + trial % 6)
        scale = 2 ** 40 + 1 if trial % 3 == 0 else 1
        a = random_operand(rng, vars, rng.choice(shapes), scale)
        b = random_operand(rng, vars, rng.choice(shapes), scale)
        pairs = [(a, b), (b, a), (a + b, a - b)]      # the last: a^2 - b^2
        for p, q in pairs:
            got, want = p * q, reference_product(p, q)
            assert list(got.terms.items()) == list(want.terms.items())
        sums = {tuple(map(operator.add, e1, e2))
                for e1 in (a + b).terms for e2 in (a - b).terms}
        cancelled += len(got.terms) < len(sums)
        s = random_fraction(rng)
        for got in (a * s, s * a):
            assert list(got.terms.items()) == [(e, c * s) for e, c in a.terms.items() if s]
        wide += scale > 1 and len(a.terms) > 1 and len(b.terms) > 1
        want = LaurentPoly.one(vars)
        for k in range(4):
            assert a ** k == want
            want = reference_product(want, a)
    assert cancelled > 100 and wide > 40


def test_mul_numerators_matches_the_product():
    """`mul_numerators` gives the product's terms as integer numerators over
    one denominator: the exponent set of `*`, Fraction(v, den) equal to its
    coefficient, and no zero numerator.  Widths 1-6 with random Laurent
    flags and negative exponents on the Laurent slots, a one-term or zero
    operand on either side, denominators above 2**64, and cross terms that
    cancel."""
    rng = random.Random(1642)
    shapes = ("many", "many", "one term", "zero")
    seen = dict.fromkeys(("one term", "negative", "wide", "cancelled"), 0)
    for trial in range(600):
        vars = random_varset(rng, 1 + trial % 6)
        a = random_operand(rng, vars, rng.choice(shapes), 1)
        b = random_operand(rng, vars, rng.choice(shapes), 1)
        if trial % 3 == 0:
            a = a * Fraction(1, 2 ** 64 + 13)
        for p, q in [(a, b), (b, a), (a + b, a - b)]:      # the last: a^2 - b^2
            num, den = p.mul_numerators(q)
            want = p * q
            assert num.keys() == want.terms.keys()
            assert all(num.values())
            assert all(Fraction(v, den) == want.terms[e] for e, v in num.items())
            seen["one term"] += 1 in (len(p.terms), len(q.terms))
            seen["negative"] += min(map(min, num), default=0) < 0
            seen["wide"] += den > 2 ** 64
        sums = {tuple(map(operator.add, e1, e2))
                for e1 in (a + b).terms for e2 in (a - b).terms}
        seen["cancelled"] += len(num) < len(sums)
    assert min(seen.values()) > 100, seen
    assert X1.mul_numerators(LaurentPoly.zero(V2)) == ({}, 1)
    point = LaurentPoly.const(VarSet((), ()), Fraction(2, 3))      # no variables at all
    assert point.mul_numerators(point) == ({(): 4}, 9)
    with pytest.raises(VariableMismatch):
        X1.mul_numerators(T)


def test_deriv_matches_coefficient_product():
    rng = random.Random(1641)
    for trial in range(300):
        vars = random_varset(rng, 1 + trial % 6)
        p = random_poly(rng, vars, max_terms=8, exp_lo=-4, exp_hi=5)
        for name in vars.names:
            got, want = p.deriv(name), reference_deriv(p, name)
            assert list(got.terms.items()) == list(want.terms.items())


def test_subst_is_a_homomorphism():
    """Substitution distributes over + and * for random data, including
    negative powers of an invertible (single-term) image."""
    rng = random.Random(2024)
    images = {
        "x1": LaurentPoly.monomial(V2, (2, 0), Fraction(1, 3)),
        "x2": X1 * X2 + 1,
    }
    for _ in range(200):
        a = random_poly(rng, V2, exp_lo=-2)
        b = random_poly(rng, V2, exp_lo=-2)
        assert (a + b).subst(images) == a.subst(images) + b.subst(images)
        assert (a * b).subst(images) == a.subst(images) * b.subst(images)


def test_subst_shared_powers_equal_pow():
    """Powers shared across the terms of one call, each made from the one
    below it or by `**` of the gap, give what `**` gives term by term: for
    all exponents up to 8, alone, contiguous, with gaps, and next to
    negative powers of a single-term image."""
    rng = random.Random(808)
    images = {"x1": LaurentPoly.monomial(V2, (-3, 0), Fraction(-2, 3)),
              "x2": X1 * X2 - X2 ** 2 + Fraction(1, 2)}

    def by_pow(p):
        return sum((c * images["x1"] ** a * images["x2"] ** b
                    for (a, b), c in p.terms.items()), LaurentPoly.zero(V2))

    singles = [LaurentPoly.monomial(V2, (a, b), 1 + a - b)
               for a in range(-2, 9) for b in range(9)]
    for p in singles:
        assert p.subst(images) == by_pow(p)
    total = sum(singles, LaurentPoly.zero(V2))
    assert total.subst(images) == by_pow(total)
    for _ in range(60):
        exps = rng.sample(range(-3, 9), rng.randint(1, 5))
        p = LaurentPoly(V2, {(a, rng.choice(range(9))): random_fraction(rng) or 1
                             for a in exps})
        assert p.subst(images) == by_pow(p)


def test_subst_identity_and_errors():
    ident = {"x1": X1, "x2": X2}
    p = X1 ** -2 + X1 * X2
    assert p.subst(ident) == p
    # a negative power needs a single-term image
    with pytest.raises(NotInvertible):
        (X1 ** -1).subst({"x1": X1 + 1, "x2": X2})
    with pytest.raises(VariableMismatch):
        p.subst({"x1": X1})  # missing image for x2


def test_with_vars_rehoming():
    vz = xz_vars(2)
    p = X1 ** 2 + X2
    q = p.with_vars(vz)
    assert q.vars == vz
    assert q.coeff((2, 0, 0)) == 1
    back = q.with_vars(V2)
    assert back == p
    z = LaurentPoly.variable(vz, "z")
    with pytest.raises(VariableMismatch):
        z.with_vars(V2)  # z really occurs, nowhere to put it


def test_mixed_varset_arithmetic_rejected():
    other = x_vars(3)
    with pytest.raises(VariableMismatch):
        X1 + LaurentPoly.variable(other, "x3")


def test_str_formatting():
    assert str(LaurentPoly.zero(V2)) == "0"
    assert str(X1 ** 2 - X2) == "x1^2 - x2"
    assert str(LaurentPoly.const(V2, Fraction(-3, 2))) == "-3/2"
    assert "x1^-1" in str(X1 ** -1)


def test_valuation():
    """order_in is the x-adic valuation: additive on products of nonzero
    polynomials (k[x2] is a domain), and bounded below on sums."""
    assert (X1 ** -3 + X1).order_in("x1") == -3
    assert X2.order_in("x2") == 1
    with pytest.raises(ZeroInput):
        LaurentPoly.zero(V2).order_in("x1")
    rng = random.Random(13)
    for _ in range(30):
        a = random_nonzero_poly(rng, V2, exp_lo=-3)
        b = random_nonzero_poly(rng, V2, exp_lo=-3)
        assert (a * b).order_in("x1") == a.order_in("x1") + b.order_in("x1")
        if a + b:
            assert (a + b).order_in("x1") >= min(a.order_in("x1"), b.order_in("x1"))


# -- exact division ------------------------------------------------------


def test_exact_div_recovers_random_factor():
    """a*b / b = a, also with negative powers of the Laurent-flagged x1."""
    rng = random.Random(808)
    for _ in range(40):
        a = random_poly(rng, V2, exp_lo=-2)
        b = random_nonzero_poly(rng, V2, exp_lo=-2)
        assert _exact_div(a * b, b) == a
    assert _exact_div(LaurentPoly.one(V2), X1) == X1 ** -1


def test_exact_div_refuses_what_does_not_divide():
    v1 = x_vars(1)
    x1 = LaurentPoly.variable(v1, "x1")
    with pytest.raises(NotDivisible):
        _exact_div(x1 ** 3, x1 ** 2 + 1)   # x1 is Laurent-flagged
    with pytest.raises(NotDivisible):
        _exact_div(X1 * X2 + 1, X1 + X2)
    with pytest.raises(NotDivisible):
        _exact_div(LaurentPoly.one(V2), X2)  # x2 is not invertible
    with pytest.raises(ZeroInput):
        _exact_div(X1, LaurentPoly.zero(V2))


def test_exact_div_over_a_laurent_variable_returns():
    """Elimination from the top never reaches the bottom of a Laurent
    variable's exponents; the division must still end, and refuse."""
    src = os.path.dirname(os.path.dirname(h14cert.__file__))
    code = ("from h14cert import LaurentPoly, NotDivisible, x_vars\n"
            "from h14cert.algebra import _exact_div\n"
            "x1 = LaurentPoly.variable(x_vars(1), 'x1')\n"
            "try:\n"
            "    _exact_div(x1 ** 3, x1 ** 2 + 1)\n"
            "except NotDivisible:\n"
            "    print('refused')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=10)
    assert proc.stdout == "refused\n", proc.stderr


def test_coeffs_in_and_horner_evaluation():
    x1, x2 = X1.with_vars(VT), X2.with_vars(VT)
    A = in_t(X2, X1, 1)  # x2 + x1*T + T^2
    assert coeffs_in(A, "T") == [x2, x1, LaurentPoly.one(VT)]
    val = x1 + x2
    horner = LaurentPoly.zero(VT)
    for c in reversed(coeffs_in(A, "T")):
        horner = horner * val + c
    assert A.subst({"x1": x1, "x2": x2, "T": val}) == horner == x2 + x1 * val + val * val
    with pytest.raises(VariableMismatch):
        coeffs_in(X1 ** -1, "x1")
    with pytest.raises(ZeroInput):
        coeffs_in(LaurentPoly.zero(VT), "T")


# -- determinants and resultants ---------------------------------------


def test_determinant_small_cases():
    one = LaurentPoly.one(V2)
    zero = LaurentPoly.zero(V2)
    assert determinant_fraction_free([[X1]], V2) == X1
    assert determinant_fraction_free([[one, zero], [zero, one]], V2) == one
    assert determinant_fraction_free([[X1, X2], [X1, X2]], V2).is_zero()
    got = determinant_fraction_free([[zero, one], [one, zero]], V2)
    assert got == -one  # pivoting keeps track of the sign


def test_determinant_matches_naive_oracle():
    rng = random.Random(4001)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[random_poly(rng, V2, max_terms=2, exp_hi=2) for _ in range(n)]
             for _ in range(n)]
        assert determinant_fraction_free(m, V2) == naive_determinant(m)


def test_resultant_matches_unskipped_elimination_on_banded_matrices():
    """Skipping products with a zero factor and zero numerators leaves the
    determinant of a Sylvester matrix, zero bands and all, unchanged."""
    rng = random.Random(4002)
    for _ in range(40):
        a, b = (in_t(*[random_poly(rng, V2, max_terms=2, exp_lo=-1, exp_hi=2)
                       if rng.random() < 0.7 else 0
                       for _ in range(rng.randint(2, 5))])
                for _ in range(2))
        if not (a and b) or a.degree_in("T") < 1 or b.degree_in("T") < 1:
            continue
        m = sylvester_matrix(a, b, "T")
        want = reference_determinant(m, VT)
        assert determinant_fraction_free(m, VT) == want
        assert resultant(a, b, "T") == want


def test_sylvester_shape():
    A = in_t(1, 0, 1)
    B = in_t(2, 1)
    m = sylvester_matrix(A, B, "T")
    assert len(m) == 3 and all(len(row) == 3 for row in m)
    assert m[0] == [LaurentPoly.one(VT), LaurentPoly.zero(VT), LaurentPoly.one(VT)]
    with pytest.raises(ZeroInput):
        sylvester_matrix(A, in_t(5), "T")


def test_resultant_linear_pair():
    # res(T - a, T - b) = a - b
    a, b = X1, X2
    assert resultant(in_t(-a, 1), in_t(-b, 1), "T") == (a - b).with_vars(VT)


def test_resultant_classic_cusp():
    # res(T^2 - W, T^3 - Z) = Z^2 - W^3
    vars = plain_vars("Z", "W", "T")
    Z, W, T3 = (LaurentPoly.variable(vars, name) for name in vars.names)
    assert resultant(T3 ** 2 - W, T3 ** 3 - Z, "T") == Z * Z - W ** 3


def test_resultant_degenerate_conventions():
    c = in_t(3)
    A = in_t(1, 0, 1)
    assert resultant(c, A, "T") == LaurentPoly.const(VT, 9)
    assert resultant(A, c, "T") == LaurentPoly.const(VT, 9)
    assert resultant(c, c, "T") == LaurentPoly.one(VT)
    with pytest.raises(ZeroInput):
        resultant(A, LaurentPoly.zero(VT), "T")


def test_resultant_vanishes_iff_common_root():
    """res(A, B) with A, B sharing the factor (T - x1) must vanish;
    perturbing one root away from the other must not."""
    rng = random.Random(909)
    for _ in range(20):
        r1 = random_poly(rng, V2, max_terms=2, exp_hi=2)
        r2 = random_poly(rng, V2, max_terms=2, exp_hi=2)
        shared = in_t(-X1, 1)
        A = in_t(-r1, 1) * shared
        B = in_t(-r2, 1) * shared
        assert resultant(A, B, "T").is_zero()
        B_moved = in_t(-r2, 1) * in_t(-(X1 + 1), 1)
        assert not resultant(A, B_moved, "T").is_zero()


def test_resultant_against_naive_sylvester():
    rng = random.Random(321)
    for _ in range(25):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        A = in_t(*[random_poly(rng, V2, max_terms=2, exp_hi=2) for _ in range(da)],
                 random_nonzero_poly(rng, V2, max_terms=2, exp_hi=2))
        B = in_t(*[random_poly(rng, V2, max_terms=2, exp_hi=2) for _ in range(db)],
                 random_nonzero_poly(rng, V2, max_terms=2, exp_hi=2))
        assert resultant(A, B, "T") == naive_determinant(sylvester_matrix(A, B, "T"))
