"""The order-semigroup scan, which reduces primitive integer rows
fraction-free, against the same scan over rows of Fractions with pivot
coefficient 1: the orders and the messages of the guards must agree.  The
integer scan reads the generators through `generator_rows`.  Membership
on its table must never refute an h that the reference level scan spans at
the bound, and an h it refutes must be spanned neither at B nor at 2B."""

import random
from fractions import Fraction

from h14cert import (
    LaurentPoly,
    VariableMismatch,
    WitnessInvalid,
    generator_rows,
    semigroup_orders,
    subalgebra_member,
    x_vars,
)
from genutil import (
    reference_semigroup_orders,
    reference_subalgebra_member,
    univar,
)

V2 = x_vars(2)

#: denominators that share no factor with each other or with small numerators
PRIMES = (1_000_000_007, 998_244_353, 2 ** 61 - 1, 2 ** 89 - 1)


def outcome(fn, *args):
    """The answer of fn, or the type and message of the error it raises."""
    try:
        return ("value", fn(*args))
    except (WitnessInvalid, VariableMismatch) as exc:
        return ("raises", type(exc).__name__, str(exc))


def integer_table(gens, bound):
    return semigroup_orders(generator_rows(gens), bound)


def integer_orders(gens, bound):
    table = integer_table(gens, bound)
    return table.bound, table.orders


def integer_member(h, gens, bound):
    return subalgebra_member(h, integer_table(gens, bound))


def degree(p):
    return p.degree_in("x1") if p else 0


def random_coeff(rng):
    kind = rng.random()
    if kind < 0.4:
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 6]))
    if kind < 0.7:
        return Fraction(rng.choice([-5, -1, 1, 4, 7]), rng.randint(1, 12))
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 15), rng.choice(PRIMES))


def random_generator(rng):
    """A polynomial in x1 of degree 1..12, often with a constant part, rarely
    a constant, with a pole, or involving x2 (which the scans collapse)."""
    deg = rng.randint(1, 12)
    order = rng.randint(1, min(deg, 4))
    coeffs = {order: random_coeff(rng), deg: random_coeff(rng)}
    for k in range(order + 1, deg):
        if rng.random() < 0.3:
            coeffs[k] = random_coeff(rng)
    if rng.random() < 0.5:
        coeffs[0] = random_coeff(rng)
    gen = univar(V2, coeffs)
    kind = rng.random()
    if kind < 0.04:
        return univar(V2, {0: random_coeff(rng)})
    if kind < 0.07:
        return gen + univar(V2, {-rng.randint(1, 2): random_coeff(rng)})
    if kind < 0.11:
        return gen + LaurentPoly.variable(V2, "x2")
    return gen


def random_generator_set(rng):
    """One to four generators; some are scalar multiples of another, with
    or without a changed constant part."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        if gens and rng.random() < 0.3:
            twin = rng.choice(gens) * random_coeff(rng)
            if rng.random() < 0.5:
                twin = twin + univar(V2, {0: random_coeff(rng)})
            gens.append(twin)
        else:
            gens.append(random_generator(rng))
    return gens


def random_candidate(rng, gens, bound):
    """A random polynomial, the zero polynomial, or a combination of
    products of generators plus a constant (so that members occur)."""
    kind = rng.random()
    if kind < 0.05:
        return LaurentPoly.zero(V2)
    if kind < 0.4:
        deg = rng.randint(0, bound + 2)
        return univar(V2, {k: random_coeff(rng)
                           for k in range(deg + 1) if rng.random() < 0.5})
    cand = univar(V2, {0: random_coeff(rng)})
    for _ in range(rng.randint(1, 2)):
        prod = univar(V2, {0: random_coeff(rng)})
        for _ in range(rng.randint(1, 3)):
            gen = rng.choice(gens)
            if degree(prod) + degree(gen) <= bound:
                prod = prod * gen
        cand = cand + prod
    return cand


def test_integer_scans_match_fraction_rows():
    rng = random.Random(20261019)
    seen = {"orders": 0, "below-degree": 0, "pole": 0, "collapsed-x2": 0,
            "member": 0, "refuted": 0, "candidate-guard": 0, "above-bound": 0}
    for trial in range(150):
        gens = random_generator_set(rng)
        top = max(degree(g) for g in gens)
        bound = rng.randint(max(top - 4, 0), top - 1) if rng.random() < 0.1 and top \
            else rng.randint(top, 30)
        orders = outcome(reference_semigroup_orders, gens, bound)
        assert outcome(integer_orders, gens, bound) == orders, (trial, gens, bound)
        seen["collapsed-x2"] += any(any(e[1:]) for g in gens for e in g.terms)
        if orders[0] == "value":
            seen["orders"] += 1
        else:
            seen["below-degree"] += "below a generator degree" in orders[2]
            seen["pole"] += "pole" in orders[2]
        for _ in range(3):
            h = random_candidate(rng, gens, bound)
            got = outcome(integer_member, h, gens, bound)
            want = outcome(reference_subalgebra_member, h, gens, bound)
            if orders[0] == "raises":           # the generators fail a guard
                assert got == orders, (trial, h, gens, bound)
            elif got[0] == "raises":            # h has a pole or involves x2
                assert got == want, (trial, h, gens, bound)
                seen["candidate-guard"] += 1
            else:
                seen["above-bound"] += degree(h) > bound
                assert want[0] == "value" or "candidate degree" in want[2]
                if want == ("value", True):
                    assert got[1], (trial, h, gens, bound)
                    seen["member"] += 1
                if not got[1]:
                    assert want != ("value", True)
                    assert not reference_subalgebra_member(h, gens, 2 * bound), \
                        (trial, h, gens, bound)
                    seen["refuted"] += 1
    assert all(count >= 5 for count in seen.values()), seen


def test_scalar_multiples_and_constant_parts_span_the_same_algebra():
    x1 = LaurentPoly.variable(V2, "x1")
    big = Fraction(2 ** 89 - 1, 1_000_000_007)
    base = [x1 ** 2 + x1 ** 3, x1 ** 3]
    twins = base + [(x1 ** 2 + x1 ** 3) * -big + 5, x1 ** 3 * big]
    assert integer_orders(twins, 12) == integer_orders(base, 12) \
        == reference_semigroup_orders(twins, 12)
    for h, member in ((x1, False), (x1 ** 5 * big + x1 ** 6 * big, True), (x1 ** 4 - 3, True)):
        assert integer_member(h, twins, 12) == integer_member(h, base, 12) == member
        assert reference_subalgebra_member(h, twins, 12) <= member   # a scan member is one
        assert member or not reference_subalgebra_member(h, twins, 24)
