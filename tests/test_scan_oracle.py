"""The order-semigroup scan and membership on its table against the
monomial enumeration: every generator monomial up to the bound, reduced
into a dense row echelon form over Q.  The oracle below is that
enumeration; it is exponential in the bound, so it runs on small bounds.
The orders must agree.  Membership must never refute an h that the
enumeration spans, and an h it refutes must be spanned at no bound: not
at B by the enumeration, nor at 2B by the polynomial-time level scan."""

import random
from fractions import Fraction
from typing import Sequence

import pytest

from h14cert import (
    LaurentPoly,
    PermGroupSpec,
    WitnessInvalid,
    axis_map,
    generator_rows,
    invariant_witness_pack,
    semigroup_orders,
    subalgebra_member,
    x_vars,
)
from genutil import (
    _reference_mul_trunc,
    reference_subalgebra_member,
    univar,
    univar_coeffs,
)

V2 = x_vars(2)


# -- the oracle: monomial enumeration into a dense echelon ----------------


def _univar_nonneg(gen: LaurentPoly, what: str) -> dict[int, Fraction]:
    u = univar_coeffs(gen)
    if any(k < 0 for k in u):
        raise WitnessInvalid(f"{what} has a pole at x1 = 0")
    return u


class _RowBasis:
    """Incremental row echelon over Q; pivot = first nonzero column."""

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, list[Fraction]] = {}

    def insert(self, vec: Sequence[Fraction]):
        v = [Fraction(c) for c in vec]
        while True:
            lead = next((i for i, c in enumerate(v) if c != 0), None)
            if lead is None:
                return None
            if lead not in self.rows:
                inv = Fraction(1) / v[lead]
                self.rows[lead] = [c * inv for c in v]
                return lead
            row = self.rows[lead]
            c = v[lead]
            v = [a - c * b for a, b in zip(v, row)]

    def reduces_to_zero(self, vec: Sequence[Fraction]) -> bool:
        v = [Fraction(c) for c in vec]
        while True:
            lead = next((i for i, c in enumerate(v) if c != 0), None)
            if lead is None:
                return True
            if lead not in self.rows:
                return False
            c = v[lead]
            v = [a - c * b for a, b in zip(v, self.rows[lead])]


def _vec(u, width):
    return [u.get(i, Fraction(0)) for i in range(width)]


def oracle_orders(gens, bound):
    units = []
    for gen in gens:
        u = _univar_nonneg(gen, "generator")
        u.pop(0, None)
        if u:
            units.append(u)
    if units and bound < max(max(u) for u in units):
        raise WitnessInvalid(
            f"semigroup bound {bound} is below a generator degree"
        )
    width = bound + 1
    basis = _RowBasis(width)
    one = {0: Fraction(1)}
    basis.insert(_vec(one, width))

    def grow(start, current, order_sum):
        for idx in range(start, len(units)):
            step = min(units[idx])
            if order_sum + step > bound:
                continue
            nxt = _reference_mul_trunc(current, units[idx], bound)
            basis.insert(_vec(nxt, width))
            grow(idx, nxt, order_sum + step)

    grow(0, one, 0)
    return sorted(basis.rows)


def oracle_member(h, gens, bound):
    units = []
    for gen in gens:
        u = _univar_nonneg(gen, "generator")
        if u and max(u) >= 1:
            units.append(u)
    hu = _univar_nonneg(h, "membership candidate")
    if hu and max(hu) > bound:
        raise WitnessInvalid(f"candidate degree exceeds the bound {bound}")
    width = bound + 1
    basis = _RowBasis(width)
    one = {0: Fraction(1)}
    basis.insert(_vec(one, width))

    def grow(start, current, deg_sum):
        for idx in range(start, len(units)):
            step = max(units[idx])
            if deg_sum + step > bound:
                continue
            nxt = _reference_mul_trunc(current, units[idx], bound)
            basis.insert(_vec(nxt, width))
            grow(idx, nxt, deg_sum + step)

    grow(0, one, 0)
    return basis.reduces_to_zero(_vec(hu, width))


# -- helpers --------------------------------------------------------------


def outcome(fn, *args):
    """The answer of fn, or the message of the WitnessInvalid it raises."""
    try:
        return ("value", fn(*args))
    except WitnessInvalid as exc:
        return ("raises", str(exc))


def new_orders(gens, bound):
    return semigroup_orders(generator_rows(gens), bound).sorted_orders()


def new_member(h, gens, bound):
    return subalgebra_member(h, semigroup_orders(generator_rows(gens), bound))


def check_member(h, gens, bound):
    """Assert the two implications between `new_member` and the bounded
    scans on h; return "member" for an h the enumeration spans at the
    bound, "refuted" for one `new_member` refutes, else "open"."""
    got = new_member(h, gens, bound)
    spanned = degree(h) <= bound and oracle_member(h, gens, bound)
    if spanned:
        assert got, (h, gens, bound)
        return "member"
    if not got:
        assert not reference_subalgebra_member(h, gens, max(2 * bound, degree(h))), \
            (h, gens, bound)
        return "refuted"
    return "open"


def degree(p):
    return max(univar_coeffs(p), default=0)


def random_coeff(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 3))


def random_generator(rng):
    """A polynomial in x1 of degree 1..5 and order 1..3, sometimes with a
    constant part, rarely a constant or with a pole."""
    deg = rng.randint(1, 5)
    order = rng.randint(1, min(deg, 3))
    coeffs = {order: random_coeff(rng), deg: random_coeff(rng)}
    for k in range(order + 1, deg):
        if rng.random() < 0.4:
            coeffs[k] = random_coeff(rng)
    if rng.random() < 0.4:
        coeffs[0] = random_coeff(rng)
    kind = rng.random()
    if kind < 0.05:
        coeffs = {0: random_coeff(rng)}
    elif kind < 0.09:
        coeffs[-rng.randint(1, 2)] = random_coeff(rng)
    return univar(V2, coeffs)


def random_generator_set(rng):
    gens = []
    for _ in range(rng.randint(1, 4)):
        if gens and rng.random() < 0.25:
            gens.append(rng.choice(gens))  # a duplicate
        else:
            gens.append(random_generator(rng))
    return gens


def random_candidate(rng, gens, bound):
    """The zero polynomial, a random polynomial, or a combination of
    products of generators plus a constant (so that members occur)."""
    kind = rng.random()
    if kind < 0.05:
        return LaurentPoly.zero(V2)
    if kind < 0.4:
        deg = rng.randint(0, max(bound, 0) + 1)
        return univar(V2, {k: random_coeff(rng)
                                      for k in range(deg + 1) if rng.random() < 0.6})
    cand = univar(V2, {0: random_coeff(rng)}) if rng.random() < 0.5 \
        else LaurentPoly.zero(V2)
    for _ in range(rng.randint(1, 2)):
        prod = univar(V2, {0: random_coeff(rng)})
        for _ in range(rng.randint(1, 3)):
            gen = rng.choice(gens)
            if degree(prod) + degree(gen) <= bound:
                prod = prod * gen
        cand = cand + prod
    return cand


# -- tests ----------------------------------------------------------------


def test_scans_match_enumeration_on_random_generator_sets():
    rng = random.Random(20261018)
    seen = {"orders": 0, "orders-raise": 0, "member": 0, "refuted": 0, "open": 0,
            "above-bound": 0, "below-degree": 0, "pole": 0}
    for trial in range(320):
        gens = random_generator_set(rng)
        top = max(degree(g) for g in gens)
        bound = rng.randint(top - 3, top - 1) if rng.random() < 0.1 \
            else rng.randint(max(top, 1), 9)
        old = outcome(oracle_orders, gens, bound)
        assert outcome(new_orders, gens, bound) == old, (trial, gens, bound)
        if old[0] == "value":
            seen["orders"] += 1
        else:
            seen["orders-raise"] += 1
            seen["below-degree"] += "below a generator degree" in old[1]
            seen["pole"] += "pole" in old[1]
        for _ in range(3):
            h = random_candidate(rng, gens, bound)
            if old[0] == "raises":      # the generators fail a guard of the closure
                assert outcome(new_member, h, gens, bound) == old, (trial, h, gens, bound)
                continue
            seen[check_member(h, gens, bound)] += 1
            seen["above-bound"] += degree(h) > bound
    assert all(count >= 10 for count in seen.values()), seen


@pytest.mark.parametrize("group", [
    PermGroupSpec(2, ((2, 1),)),
    PermGroupSpec(3, ((2, 3, 1),)),
    PermGroupSpec(3, ((2, 1, 3),)),
])
def test_scans_match_enumeration_on_collapsed_invariant_generators(group):
    pack = invariant_witness_pack(group)
    images = [axis_map(gen) for gen in pack.gens]
    ef = axis_map(pack.f)  # a product of generators: a member
    x1 = LaurentPoly.variable(images[0].vars, "x1")
    for bound in (6, 9, 12):
        assert new_orders(images, bound) == oracle_orders(images, bound)
        assert [check_member(cand, images, bound) for cand in (x1, ef, x1 ** 5 + x1)] \
            == ["refuted", "member", "refuted"]


def test_scans_at_a_large_bound():
    """The closures are polynomial in the bound; the enumeration is not."""
    pack = invariant_witness_pack(PermGroupSpec(2, ((2, 1),)))
    images = [axis_map(gen) for gen in pack.gens]
    x1 = LaurentPoly.variable(V2, "x1")
    assert new_orders(images, 200) == [0] + list(range(2, 201))
    assert not new_member(x1, images, 200)
    assert new_member(x1 ** 200 - x1 ** 3, images, 200)


# -- members whose monomials all lie above the bound ------------------------


def cancelling_member(rng, u, v, bound):
    """h = P(u, v), a combination of the monomials u^a * v^b of degree in
    (bound, 3 * bound], taken in a random order, whose terms above x1^bound
    cancel: a member of Q[u, v] of degree <= bound with no monomial of
    degree <= bound in P, or None when none comes out."""
    du, dv = degree(u), degree(v)
    monomials = [u ** a * v ** b for a in range(3 * bound // du + 1)
                 for b in range(3 * bound // dv + 1) if bound < a * du + b * dv <= 3 * bound]
    rng.shuffle(monomials)
    rows = {}       # top exponent -> a combination with coefficient 1 there
    for p in monomials:
        while p and degree(p) > bound:
            top = degree(p)
            lead = univar_coeffs(p)[top]
            if top not in rows:
                rows[top] = p * (1 / lead)
                break
            p = p - rows[top] * lead
        else:
            if p:
                return p
    return None


def test_members_above_the_bound_are_never_refuted():
    """Members built only from monomials of degree above B, whose top terms
    cancel: membership on the table never refutes one, while the bounded
    enumeration misses some of them (the hole the table closes)."""
    rng = random.Random(20261020)
    tried = missed = 0
    while tried < 30:
        u = univar(V2, {rng.randint(1, 2): random_coeff(rng), rng.randint(3, 4): random_coeff(rng),
                        0: random_coeff(rng)})
        v = univar(V2, {rng.randint(1, 3): random_coeff(rng), rng.randint(4, 5): random_coeff(rng)})
        bound = rng.randint(5, 9)
        h = cancelling_member(rng, u, v, bound)
        if h is None:
            continue
        tried += 1
        assert new_member(h, [u, v], bound), (h, u, v, bound)
        missed += not oracle_member(h, [u, v], bound)
    assert missed >= 1, missed
