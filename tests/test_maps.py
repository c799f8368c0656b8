"""The two ring maps: the axis collapse (a term filter) and the x1-inversion
twist (a monomial map plus a translation of z), with the preslice
involution as a further instance of the twist's map class."""

import random

import pytest

from h14cert import (
    LaurentPoly,
    RingMap,
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
    """Every map is a homomorphism and agrees with substituting its images;
    for z-free inputs the x1-order read off the exponents is that of the
    image."""
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
            flat = LaurentPoly(m.vars, {e: c for e, c in a.terms.items() if e[-1] == 0})
            if flat:
                assert m.x1_order(flat) == m.apply(flat).order_in("x1")


def test_apply_accepts_subset_flags():
    theta = inversion_map((3,), LaurentPoly.zero(xz_vars(2)))
    strict = plain_vars("x1", "x2", "z")
    p = LaurentPoly.variable(strict, "x2") + 1
    got = theta.apply(p)
    assert got == LaurentPoly.monomial(VZ, (3, 1, 0)) + 1
    with pytest.raises(VariableMismatch):
        theta.apply(X1)  # different variable names entirely


def test_ringmap_guards():
    with pytest.raises(VariableMismatch):
        RingMap(V2, [(1, 0)])  # one row short
    with pytest.raises(VariableMismatch):
        RingMap(V2, [(1, 1), (0, 1)])  # x1 -> x1*x2 is not an involution
    z = LaurentPoly.variable(VZ, "z")
    with pytest.raises(VariableMismatch):
        RingMap(VZ, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], z)  # shift involves z
    with pytest.raises(VariableMismatch):
        inversion_map((2,), LaurentPoly.one(VZ)).x1_order(z)


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
