"""sympy as an outside oracle for the two eliminations of the pipeline:
`resultant` on seeded random univariate pairs, and `build_annihilator`
on the swap and 3-cycle packs.  Skipped when sympy is not installed; the
package itself does not use it."""

import random

import pytest

from h14cert import (
    LaurentPoly,
    PermGroupSpec,
    UniPoly,
    axis_map,
    build_annihilator,
    invariant_witness_pack,
    resultant,
    to_univar,
    x_vars,
)
from genutil import random_poly

sympy = pytest.importorskip("sympy")

V2 = x_vars(2)
T = sympy.Symbol("T")


def to_sympy(p: LaurentPoly):
    """The polynomial as a sympy expression in symbols named like its
    variables; coefficients stay exact rationals."""
    syms = [sympy.Symbol(name) for name in p.vars.names]
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(s ** k for s, k in zip(syms, e)))
        for e, c in p.terms.items()
    ))


def upoly_to_sympy(P: UniPoly):
    return sympy.Add(*(to_sympy(c) * T ** i for i, c in enumerate(P.coeffs)))


def sympy_resultant(A: UniPoly, B: UniPoly):
    """res(A, B), asking sympy with the higher degree first.  sympy 1.14
    returns res(B, A) when A has the lower degree: it gives 26 for
    res(T + 3, T^3 + 1), which is (T^3 + 1) at T = -3, that is -26.  The
    swap res(A, B) = (-1)^(deg A * deg B) * res(B, A) is applied here."""
    if A.degree >= B.degree:
        return sympy.resultant(upoly_to_sympy(A), upoly_to_sympy(B), T)
    sign = -1 if A.degree * B.degree % 2 else 1
    return sign * sympy.resultant(upoly_to_sympy(B), upoly_to_sympy(A), T)


def test_resultant_matches_sympy():
    linear = UniPoly(V2, [LaurentPoly.const(V2, c) for c in (3, 1)])
    cubic = UniPoly(V2, [LaurentPoly.const(V2, c) for c in (1, 0, 0, 1)])
    assert resultant(linear, cubic) == LaurentPoly.const(V2, -26)
    assert sympy_resultant(linear, cubic) == -26
    rng = random.Random(5150)
    for trial in range(30):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        scalar = trial % 2 == 1          # then the resultant is a rational number

        def coeff(nonzero=False):
            while True:
                c = (LaurentPoly.const(V2, rng.randint(-9, 9)) if scalar
                     else random_poly(rng, V2, max_terms=2, exp_hi=2))
                if c or not nonzero:
                    return c

        A = UniPoly(V2, [coeff() for _ in range(da)] + [coeff(nonzero=True)])
        B = UniPoly(V2, [coeff() for _ in range(db)] + [coeff(nonzero=True)])
        ours = to_sympy(resultant(A, B))
        theirs = sympy_resultant(A, B)
        assert sympy.expand(ours - theirs) == 0, trial


@pytest.mark.parametrize("generators, n", [
    (((2, 1),), 2),          # the swap on two letters
    (((2, 3, 1),), 3),       # the 3-cycle on three letters
])
def test_annihilator_matches_sympy(generators, n):
    """Ann is the monic polynomial in T over k[G] with Ann(eps(f)) = 0 at
    G = eps(g); sympy eliminates x1 from T - eps(f), G - eps(g)."""
    pack = invariant_witness_pack(PermGroupSpec(n=n, generators=generators))
    ann = build_annihilator(pack.f, pack.g)
    x1, G = sympy.symbols("x1 G")
    ef = sum(sympy.Rational(c.numerator, c.denominator) * x1 ** k
             for k, c in to_univar(axis_map(pack.f), "x1").items())
    eg = sum(sympy.Rational(c.numerator, c.denominator) * x1 ** k
             for k, c in to_univar(axis_map(pack.g), "x1").items())
    res = sympy.Poly(sympy.resultant(T - ef, G - eg, x1), T)
    expected = sympy.expand(res.as_expr() / res.LC())
    ours = sympy.expand(upoly_to_sympy(ann))
    assert ann.degree == res.degree() == sympy.degree(eg, x1)
    assert sympy.expand(ours - expected) == 0
