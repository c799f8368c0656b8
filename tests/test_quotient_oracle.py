"""`axis_quotient` against the univariate long division it replaces: the
oracle below divides the coefficient dicts of the axis images from the
top, as the package did before the quotient became one exact division of
polynomials.  Both must give the same quotient, or fail with the same
message."""

import random
from fractions import Fraction

from h14cert import LaurentPoly, WitnessInvalid, axis_map, axis_quotient, x_vars
from genutil import random_fraction, random_poly, random_univar, univar, univar_coeffs

V2 = x_vars(2)
X2 = LaurentPoly.variable(V2, "x2")


# -- the oracle: long division of {exponent: coefficient} dicts -----------


def oracle_axis_quotient(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    ef = univar_coeffs(axis_map(f))
    eg = univar_coeffs(axis_map(g))
    if not eg:
        raise WitnessInvalid("axis image of g is zero")
    quot: dict[int, Fraction] = {}
    dg = max(eg)
    lead = eg[dg]
    work = dict(ef)
    while work:
        top = max(work)
        if top < dg:
            raise WitnessInvalid("axis image of g does not divide that of f")
        c = work[top] / lead
        quot[top - dg] = c
        for k, v in eg.items():
            pos = top - dg + k
            s = work.get(pos, Fraction(0)) - c * v
            if s == 0:
                work.pop(pos, None)
            else:
                work[pos] = s
    if any(k < 0 for k in quot):
        raise WitnessInvalid("axis quotient has a pole at x1 = 0")
    return univar(f.vars, quot)


def outcome(fn, f, g):
    try:
        return fn(f, g)
    except WitnessInvalid as exc:
        return str(exc)


def lift(rng, axis):
    """A polynomial with the given axis image: add terms divisible by x2."""
    return axis + X2 * random_poly(rng, V2, max_terms=2, exp_hi=2)


def random_pairs(rng):
    """Seeded (f, g) pairs of five kinds: eps(g) divides eps(f); a
    perturbed eps(f) that it does not divide; eps(f) of lower degree;
    eps(g) = 0; and a constant eps(g)."""
    for _ in range(40):
        g_axis = random_univar(rng, V2, rng.randint(1, 3))
        h = random_univar(rng, V2, rng.randint(0, 3))
        yield lift(rng, g_axis * h), lift(rng, g_axis)
        bump = univar(V2, {rng.randint(0, 2): random_fraction(rng) or Fraction(1)})
        yield lift(rng, g_axis * h + bump), lift(rng, g_axis)
        yield lift(rng, random_univar(rng, V2, rng.randint(0, 2))), \
            lift(rng, random_univar(rng, V2, 3))
        yield lift(rng, g_axis * h), X2 * random_poly(rng, V2, max_terms=2, exp_hi=2)
        yield lift(rng, random_univar(rng, V2, rng.randint(0, 3))), \
            lift(rng, univar(V2, {0: random_fraction(rng) or Fraction(2)}))


def test_axis_quotient_matches_long_division():
    rng = random.Random(7331)
    seen = set()
    for f, g in random_pairs(rng):
        want = outcome(oracle_axis_quotient, f, g)
        assert outcome(axis_quotient, f, g) == want, (f, g)
        seen.add(want if isinstance(want, str) else "quotient")
    assert seen == {"quotient", "axis image of g is zero",
                    "axis image of g does not divide that of f"}
