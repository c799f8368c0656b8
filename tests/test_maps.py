"""The two ring maps: the axis collapse (a term filter) and the x1-inversion
twist (a monomial map plus a translation of z), with the preslice
involution as a further instance of the twist's map class."""

import random

import pytest

from h14cert import (
    LaurentPoly,
    RingMap,
    VarSet,
    VariableMismatch,
    axis_map,
    inversion_map,
    plain_vars,
    preslice_involution,
    x_vars,
    xz_vars,
)
from genutil import random_poly, random_univar

V2 = x_vars(2)
VZ = xz_vars(2)
X1 = LaurentPoly.variable(V2, "x1")


def test_apply_is_a_homomorphism():
    """Every map is a homomorphism and agrees with substituting its images."""
    rng = random.Random(40)
    maps = [inversion_map((5,), LaurentPoly.variable(VZ, "x1"))]
    for n in (2, 3):
        vz = xz_vars(n)
        theta = inversion_map(tuple(rng.randint(-6, 6) for _ in range(n - 1)),
                              random_univar(rng, vz, rng.randint(0, 3)))
        maps += [theta, theta.inverse(),
                 preslice_involution(LaurentPoly.variable(vz, "x2"))]
    for m in maps:
        images = {name: m.image_of(name) for name in m.vars.names}
        for _ in range(15):
            a = random_poly(rng, m.vars, exp_lo=-2, exp_hi=4)
            b = random_poly(rng, m.vars, exp_lo=-2, exp_hi=4)
            assert m.apply(a * b) == m.apply(a) * m.apply(b)
            assert m.apply(a + b) == m.apply(a) + m.apply(b)
            assert m.apply(a) == a.subst(images)


def test_apply_takes_only_its_own_varset():
    theta = inversion_map((3,), LaurentPoly.zero(xz_vars(2)))
    assert theta.apply(LaurentPoly.variable(VZ, "x2") + 1) \
        == LaurentPoly.monomial(VZ, (3, 1, 0)) + 1
    strict = plain_vars("x1", "x2", "z")
    with pytest.raises(VariableMismatch):
        theta.apply(LaurentPoly.variable(strict, "x2"))  # only the flags differ
    with pytest.raises(VariableMismatch):
        theta.apply(X1)  # different variable names entirely


def test_ringmap_guards():
    with pytest.raises(VariableMismatch):
        RingMap(V2, "x1", (0,))  # one weight short
    with pytest.raises(VariableMismatch):
        RingMap(V2, "x1", (1, 2))  # the pivot carries a weight
    with pytest.raises(VariableMismatch):
        RingMap(VZ, "x1", (0, 2, 1))  # so does z
    with pytest.raises(VariableMismatch):
        RingMap(VZ, "z", (0, 0, 0))  # z as the pivot
    z = LaurentPoly.variable(VZ, "z")
    with pytest.raises(VariableMismatch):
        RingMap(VZ, "x1", (0, 2, 0), z)  # shift involves z


def matrix_image(m, p):
    """The image of p by the exponent matrix of (pivot, weights): row i is
    the exponent of the monomial that variable i goes to (the pivot's row
    is -1 at the pivot, row i has w_i there), a term goes to
    sum_i e_i * rows[i] over the x's, times the e_z-th power of z's image
    when the map shifts z."""
    vars, width = m.vars, len(m.vars)
    piv = vars.index(m.pivot)
    rows = [[int(i == j) for j in range(width)] for i in range(width)]
    for i, w in enumerate(m.weights):
        rows[i][piv] = -1 if i == piv else w
    z = vars.index("z") if m.shift is not None else None
    z_image = (LaurentPoly.monomial(vars, tuple(rows[z])) + m.shift
               if z is not None else None)
    for i, name in enumerate(vars.names):
        img = LaurentPoly.monomial(vars, tuple(rows[i]))
        assert m.image_of(name) == (z_image if i == z else img)
    out = LaurentPoly.zero(vars)
    for e, c in p.terms.items():
        mono = [sum(e[i] * rows[i][j] for i in range(width) if i != z)
                for j in range(width)]
        term = LaurentPoly.monomial(vars, tuple(mono), c)
        out = out + (term * z_image ** e[z] if z is not None else term)
    return out


def test_pivot_inversion_matches_matrix_route():
    """Over 2 to 4 variables, with and without z and a z-shift, `apply`
    equals the exponent-matrix image, and the inverse undoes it."""
    rng = random.Random(42)
    for trial in range(60):
        width = rng.randint(2, 4)
        with_z = trial % 3 != 0
        names = tuple(f"x{i}" for i in range(1, width + 1 - with_z)) + ("z",) * with_z
        xs = names[:len(names) - with_z]
        pivot = rng.choice(xs)
        vars = VarSet(names, tuple(name == pivot for name in names))
        weights = tuple(0 if name in (pivot, "z") else rng.randint(-4, 4)
                        for name in names)
        shift = None
        if with_z and trial % 3 == 2:
            raw = random_poly(rng, vars, exp_lo=-2)
            shift = LaurentPoly(vars, {e: c for e, c in raw.terms.items() if not e[-1]})
        m = RingMap(vars, pivot, weights, shift)
        for _ in range(5):
            p = random_poly(rng, vars, exp_lo=-2)
            image = m.apply(p)
            assert image == matrix_image(m, p)
            assert m.inverse().apply(image) == p


def test_axis_map_images():
    v3 = x_vars(3)
    x1 = LaurentPoly.variable(v3, "x1")
    x3 = LaurentPoly.variable(v3, "x3")
    assert axis_map(x1 ** 3 - 2 * x3 + x1 * x3 + 5) == x1 ** 3 + 5
    p = LaurentPoly.variable(VZ, "x1") ** 3 + LaurentPoly.variable(VZ, "x2") * 7
    assert axis_map(p) == LaurentPoly.variable(VZ, "x1") ** 3
    z = LaurentPoly.variable(VZ, "z")
    assert axis_map(z * p) == z * LaurentPoly.variable(VZ, "x1") ** 3
    # the filter is the substitution x2..xn -> 0
    rng = random.Random(41)
    for vars in (x_vars(2), x_vars(3), xz_vars(2), xz_vars(3)):
        images = {name: LaurentPoly.variable(vars, name) for name in vars.names}
        for name in vars.names:
            if name not in ("x1", "z"):
                images[name] = LaurentPoly.zero(vars)
        for _ in range(10):
            p = random_poly(rng, vars, exp_lo=-2, exp_hi=4)
            assert axis_map(p) == p.subst(images)


def test_inversion_map_frozen_images():
    h = LaurentPoly.variable(VZ, "x1")
    theta = inversion_map((5,), h)
    x1 = LaurentPoly.variable(VZ, "x1")
    x2 = LaurentPoly.variable(VZ, "x2")
    z = LaurentPoly.variable(VZ, "z")
    assert theta.image_of("x1") == x1 ** -1
    assert theta.image_of("x2") == x1 ** 5 * x2
    assert theta.image_of("z") == z + x1 ** -1
    back = theta.inverse()
    assert back.image_of("z") == z - x1
    assert back.image_of("x2") == x1 ** 5 * x2


def test_inversion_map_roundtrip():
    h = LaurentPoly.variable(VZ, "x1") ** 2 + 3
    theta = inversion_map((4,), h)
    anti = theta.inverse()
    for name in VZ.names:
        coord = LaurentPoly.variable(VZ, name)
        assert anti.apply(theta.image_of(name)) == coord
        assert theta.apply(anti.image_of(name)) == coord
    rng = random.Random(91)
    for _ in range(20):
        p = random_poly(rng, VZ)
        assert anti.apply(theta.apply(p)) == p
        assert theta.apply(anti.apply(p)) == p


def test_inversion_map_shift_must_be_plain_x1():
    with pytest.raises(VariableMismatch):
        inversion_map((2,), LaurentPoly.variable(VZ, "x2"))
    with pytest.raises(VariableMismatch):
        inversion_map((2,), LaurentPoly.variable(VZ, "x1") ** -1)


def test_axis_commutes_with_inversion():
    """Collapsing to the axis before or after the twist agrees: the weight
    rescalings die with x2 and the x1, z images only involve x1 and z."""
    h = LaurentPoly.variable(VZ, "x1") ** 3 - 2 * LaurentPoly.variable(VZ, "x1")
    theta = inversion_map((7,), h)
    for name in VZ.names:
        coord = LaurentPoly.variable(VZ, name)
        assert axis_map(theta.apply(coord)) == theta.apply(axis_map(coord))
    rng = random.Random(12)
    for _ in range(20):
        p = random_poly(rng, VZ, exp_lo=-2)
        assert axis_map(theta.apply(p)) == theta.apply(axis_map(p))


def test_apply_rf():
    """apply_rf maps a (numerator, denominator) pair entrywise."""
    theta = inversion_map((5,), LaurentPoly.variable(VZ, "x1"))
    x1 = LaurentPoly.variable(VZ, "x1")
    x2 = LaurentPoly.variable(VZ, "x2")
    assert theta.apply_rf((x2, x1 + 1)) == (x1 ** 5 * x2, x1 ** -1 + 1)
