"""sympy as an outside oracle for the two eliminations of the pipeline:
`resultant` on seeded random pairs of polynomials in T, and
`build_annihilator` on seeded random univariate pairs and on the swap and
3-cycle packs; and the relation element pi of the certificates of the five
pinned packs beyond Pi = T^2 - G^3.  Skipped when sympy is not installed;
the package itself does not use it."""

import random

import pytest

from h14cert import (
    LaurentPoly,
    PermGroupSpec,
    VarSet,
    axis_map,
    build_annihilator,
    build_certificate,
    invariant_witness_pack,
    resultant,
    x_vars,
)
from genutil import random_poly, random_univar
from test_family import MORE_PACKS, WIDE_PACKS

sympy = pytest.importorskip("sympy")

V2 = x_vars(2)
# V2 with T appended: polynomials in T whose coefficients lie over V2
VT = VarSet(("x1", "x2", "T"), (True, False, False))
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


def sympy_resultant(A: LaurentPoly, B: LaurentPoly):
    """res_T(A, B), asking sympy with the higher degree first.  sympy 1.14
    returns res(B, A) when A has the lower degree: it gives 26 for
    res(T + 3, T^3 + 1), which is (T^3 + 1) at T = -3, that is -26.  The
    swap res(A, B) = (-1)^(deg A * deg B) * res(B, A) is applied here."""
    da, db = A.degree_in("T"), B.degree_in("T")
    if da >= db:
        return sympy.resultant(to_sympy(A), to_sympy(B), T)
    sign = -1 if da * db % 2 else 1
    return sign * sympy.resultant(to_sympy(B), to_sympy(A), T)


def in_t(coeffs):
    """sum coeffs[i] * T^i over VT, the coefficients lying over V2."""
    tvar = LaurentPoly.variable(VT, "T")
    return sum((c.with_vars(VT) * tvar ** i for i, c in enumerate(coeffs)),
               LaurentPoly.zero(VT))


def test_resultant_matches_sympy():
    linear = in_t([LaurentPoly.const(V2, c) for c in (3, 1)])
    cubic = in_t([LaurentPoly.const(V2, c) for c in (1, 0, 0, 1)])
    assert resultant(linear, cubic, "T") == LaurentPoly.const(VT, -26)
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

        A = in_t([coeff() for _ in range(da)] + [coeff(nonzero=True)])
        B = in_t([coeff() for _ in range(db)] + [coeff(nonzero=True)])
        ours = to_sympy(resultant(A, B, "T"))
        theirs = sympy_resultant(A, B)
        assert sympy.expand(ours - theirs) == 0, trial


def sympy_annihilator(ef: LaurentPoly, eg: LaurentPoly):
    """The monic res_x1(T - ef, G - eg) in T, for ef, eg in k[x1]."""
    x1, G = sympy.symbols("x1 G")
    res = sympy.Poly(sympy.resultant(T - to_sympy(ef), G - to_sympy(eg), x1), T)
    return res.degree(), sympy.expand(res.as_expr() / res.LC())


def test_annihilator_matches_sympy_on_random_pairs():
    """Ann against sympy's elimination on 30 seeded univariate pairs, with
    eps(f) of degree 0 to 4 and eps(g) of degree 1 to 4."""
    v1 = x_vars(1)
    rng = random.Random(27182)
    for trial in range(30):
        fbar = random_univar(rng, v1, rng.randint(0, 4))
        gbar = random_univar(rng, v1, rng.randint(1, 4))
        ann = build_annihilator(fbar, gbar)
        degree, expected = sympy_annihilator(fbar, gbar)
        assert ann.degree_in("T") == degree == gbar.degree_in("x1"), trial
        assert sympy.expand(to_sympy(ann) - expected) == 0, trial


@pytest.mark.parametrize("generators, n", [
    (((2, 1),), 2),          # the swap on two letters
    (((2, 3, 1),), 3),       # the 3-cycle on three letters
])
def test_annihilator_matches_sympy(generators, n):
    """Ann is the monic polynomial in T over k[G] with Ann(eps(f)) = 0 at
    G = eps(g); sympy eliminates x1 from T - eps(f), G - eps(g)."""
    pack = invariant_witness_pack(PermGroupSpec(n=n, generators=generators))
    ann = build_annihilator(pack.f, pack.g)
    ef, eg = axis_map(pack.f), axis_map(pack.g)
    degree, expected = sympy_annihilator(ef, eg)
    assert ann.degree_in("T") == degree == eg.degree_in("x1")
    assert sympy.expand(to_sympy(ann) - expected) == 0


@pytest.mark.parametrize("pack", [pack for pack, _ in WIDE_PACKS]
                         + [pack for pack, *_ in MORE_PACKS],
                         ids=["wide-T3-G4", "wide-T3-G5", "T3-G5", "T4-G5", "T3-G4"])
def test_certificate_pi_matches_sympy(pack):
    """The certificate's pi, built at l_max 3, is sympy's monic
    res_x1(T - eps(f), G - eps(g)) evaluated at T = f, G = g."""
    cert = build_certificate(pack, l_max=3)
    _, ann = sympy_annihilator(axis_map(pack.f), axis_map(pack.g))
    G = sympy.Symbol("G")
    expected = ann.subs({T: to_sympy(pack.f), G: to_sympy(pack.g)}, simultaneous=True)
    assert cert.rel and sympy.expand(to_sympy(cert.rel) - expected) == 0
