"""Witness-level derivations: axis quotient, annihilator, relation element,
order semigroup, membership on its table, weights, and full pack validation."""

import random
import time
from fractions import Fraction

import pytest

from h14cert import (
    LaurentPoly,
    PermGroupSpec,
    RingMap,
    SemigroupTable,
    VariableMismatch,
    WitnessInvalid,
    WitnessPack,
    axis_map,
    axis_quotient,
    build_annihilator,
    build_certificate,
    check_twist,
    choose_weights,
    clearing_exponent,
    format_report,
    generator_rows,
    invariant_witness_pack,
    is_normal,
    realize_annihilator,
    semigroup_orders,
    subalgebra_member,
    validate_pack,
    verify_certificate,
    x_vars,
)
from h14cert.witness import ANN_VARS, SCAN_BOUND, monic_degree, scan_bound
from genutil import (random_pipeline_data, random_poly, random_univar,
                     reference_validate_pack, univar)

V2 = x_vars(2)
X1 = LaurentPoly.variable(V2, "x1")
X2 = LaurentPoly.variable(V2, "x2")

# the running example pair: f = x1^3 + x1*x2 + x2, g = x1^2 + x2, with the
# invariant generators of the order-two action behind them
DEMO_F = X1 ** 3 + X1 * X2 + X2
DEMO_G = X1 ** 2 + X2
DEMO_GENS = [
    X1 ** 2 + X2,
    X1 ** 4 - 2 * X1 ** 3 + 2 * X1 ** 2 * X2 + 2 * X1 ** 2 - 2 * X1 * X2 + X2 ** 2,
    X1 ** 3 - X1 ** 2 + X1 * X2,
]
DEMO_REL = (
    -(X1 ** 4) * X2 + 2 * X1 ** 3 * X2 - 2 * X1 ** 2 * X2 ** 2
    + 2 * X1 * X2 ** 2 - X2 ** 3 + X2 ** 2
)


def u1(coeffs):
    return univar(V2, {k: Fraction(v) for k, v in coeffs.items()})


# -- axis quotient ------------------------------------------------------


def test_axis_quotient_demo():
    assert axis_quotient(DEMO_F, DEMO_G) == X1


def test_axis_quotient_trivial_and_errors():
    assert axis_quotient(DEMO_G, DEMO_G) == LaurentPoly.one(V2)
    with pytest.raises(WitnessInvalid):
        axis_quotient(X1, X1 ** 2)  # degree drops below the divisor
    with pytest.raises(WitnessInvalid):
        axis_quotient(X1, X2)  # eps(g) = 0
    with pytest.raises(WitnessInvalid):
        axis_quotient(X1 ** 2 + X1, X1 ** 2)  # quotient would need 1/x1
    with pytest.raises(WitnessInvalid, match="pole at x1 = 0"):
        axis_quotient(X1 ** -1 + X1, X1)  # an axis image with a pole


def test_axis_quotient_recovers_random_factor():
    rng = random.Random(1234)
    for _ in range(30):
        g_axis = random_univar(rng, V2, rng.randint(1, 3))
        h = random_univar(rng, V2, rng.randint(0, 3))
        f = g_axis * h + X2 * random_poly(rng, V2, max_terms=2, exp_hi=2)
        g = g_axis + X2 * random_poly(rng, V2, max_terms=2, exp_hi=2)
        assert axis_quotient(f, g) == h


# -- annihilator and relation element -----------------------------------


ANN_T, ANN_G = (LaurentPoly.variable(ANN_VARS, name) for name in ("T", "G"))


def test_annihilator_linear_case():
    # eps(g) = x1 of degree one: Ann(T) = T - (eps f rewritten in G)
    f = X1 ** 2 + X2
    g = X1 + 5 * X2
    ann = build_annihilator(f, g)
    assert monic_degree(ann) == 1
    assert ann == ANN_T - ANN_G ** 2
    # the same pair as itself: Ann(T) = T - G
    assert build_annihilator(g, g) == ANN_T - ANN_G


def test_annihilator_demo_is_t2_minus_g3():
    ann = build_annihilator(DEMO_F, DEMO_G)
    assert ann.vars == ANN_VARS
    assert monic_degree(ann) == 2
    assert ann == ANN_T ** 2 - ANN_G ** 3


def test_annihilator_kills_the_axis_image():
    """Defining property on random pipeline pairs: substituting eps(f) for
    T and eps(g) for G gives the zero polynomial."""
    rng = random.Random(500)
    for _ in range(15):
        rw = random_pipeline_data(rng)
        got = rw.ann.subst({"T": axis_map(rw.f), "G": axis_map(rw.g)})
        assert got.is_zero()
        assert monic_degree(rw.ann) == axis_map(rw.g).degree_in("x1")


def test_realize_annihilator_demo():
    ann = build_annihilator(DEMO_F, DEMO_G)
    rel = realize_annihilator(ann, DEMO_F, DEMO_G)
    assert rel == DEMO_REL
    assert rel == DEMO_F ** 2 - DEMO_G ** 3
    assert axis_map(rel).is_zero()


# -- semigroup of x1-orders ---------------------------------------------


def test_semigroup_orders_two_generators():
    table = semigroup_orders(generator_rows([u1({2: 1}), u1({3: 1})]), 12)
    assert table.sorted_orders() == [0] + list(range(2, 13))
    assert not is_normal(table)


def test_semigroup_orders_single_generator_is_normal():
    table = semigroup_orders(generator_rows([u1({2: 1})]), 8)
    assert table.sorted_orders() == [0, 2, 4, 6, 8]
    assert is_normal(table)


def test_semigroup_orders_binomial_generator():
    # k[x1^2 + x1^3] realizes only the even orders below 9
    table = semigroup_orders(generator_rows([u1({2: 1, 3: 1})]), 8)
    assert table.sorted_orders() == [0, 2, 4, 6, 8]
    assert is_normal(table)


def test_semigroup_demo_generators_not_normal():
    table = semigroup_orders(generator_rows([axis_map(g) for g in DEMO_GENS]), 12)
    orders = table.sorted_orders()
    assert 2 in orders and 3 in orders
    assert not is_normal(table)


def test_semigroup_constant_parts_do_not_matter():
    with_const = semigroup_orders(generator_rows([u1({0: 5, 2: 1})]), 8)
    without = semigroup_orders(generator_rows([u1({2: 1})]), 8)
    assert with_const.orders == without.orders


def test_semigroup_bound_guards():
    with pytest.raises(WitnessInvalid):
        semigroup_orders(generator_rows([u1({3: 1})]), 2)  # bound below a generator degree
    table = semigroup_orders(generator_rows([u1({4: 1, 5: 1})]), 6)
    with pytest.raises(WitnessInvalid):
        is_normal(table)  # bound 6 cannot probe 2 * min-order = 8
    with pytest.raises(WitnessInvalid, match="^generator has a pole at x1 = 0$"):
        generator_rows([X1 ** -1])  # poles rejected


def test_is_normal_trivial_cases():
    assert is_normal(semigroup_orders(generator_rows([]), 4))
    assert is_normal(semigroup_orders(generator_rows([u1({0: 3})]), 4))  # constants only


def test_generator_rows_read_the_axis_images():
    """The rows keep each generator's terms free of x2 (the axis collapse),
    drop constant parts, and keep one primitive integer row per Q-line."""
    assert generator_rows(DEMO_GENS) == generator_rows([axis_map(g) for g in DEMO_GENS]) \
        == [{2: 1}, {2: 2, 3: -2, 4: 1}, {2: -1, 3: 1}]
    assert generator_rows([X2, u1({0: 3}), X1 * X2]) == []
    assert generator_rows([u1({2: Fraction(1, 2), 3: 3}), u1({0: 5, 2: -1, 3: -6})]) \
        == [{2: 1, 3: 6}]


# -- membership, decided on the semigroup table ---------------------------


def test_subalgebra_member_positive():
    table = semigroup_orders(generator_rows([u1({2: 1}), u1({3: 1})]), 12)
    assert subalgebra_member(u1({2: 1, 3: 1}), table)
    assert subalgebra_member(u1({6: 1}), table)
    assert subalgebra_member(u1({0: 7}), table)
    assert subalgebra_member(LaurentPoly.zero(V2), table)


def test_subalgebra_member_negative():
    table = semigroup_orders(generator_rows([u1({2: 1}), u1({3: 1})]), 12)
    assert not subalgebra_member(X1, table)
    assert not subalgebra_member(u1({5: 1}), semigroup_orders(generator_rows([u1({2: 1})]), 12))


def test_table_is_its_echelon():
    """A table's orders are its echelon's pivots, so tables that compare
    equal answer membership alike; a table built from orders alone had an
    empty echelon and refuted every h, 1 included."""
    table = semigroup_orders(generator_rows([u1({2: 1}), u1({3: 1})]), 12)
    assert table.orders == frozenset(table.echelon)
    twin = SemigroupTable(bound=12, echelon=dict(table.echelon))
    assert twin == table
    for t in (table, twin):
        assert subalgebra_member(LaurentPoly.one(V2), t)
        assert subalgebra_member(X1 ** 2, t)
        assert not subalgebra_member(X1, t)
    with pytest.raises(TypeError):
        SemigroupTable(bound=12, orders=table.orders)
    with pytest.raises(TypeError):
        SemigroupTable(bound=12)


def test_subalgebra_member_demo_quotient_outside():
    collapsed = [axis_map(g) for g in DEMO_GENS]
    table = semigroup_orders(generator_rows(DEMO_GENS), 12)
    assert not subalgebra_member(X1, table)
    for g in collapsed:
        assert subalgebra_member(g, table)


def test_subalgebra_member_guards():
    """A pole or a second variable is refused; a candidate above the bound
    is truncated, not refused, since truncation is sound at any bound."""
    table = semigroup_orders(generator_rows([u1({2: 1})]), 12)
    with pytest.raises(WitnessInvalid):
        subalgebra_member(X1 ** -1, table)
    with pytest.raises(VariableMismatch):
        subalgebra_member(X2, table)
    assert subalgebra_member(u1({13: 1}), table)
    assert not subalgebra_member(u1({3: 1, 13: 1}), table)


def test_scans_at_large_bound():
    """The closure at bound 200 on the demo's axis images, and membership
    on its table, finish well inside 30 s; a scan that enumerates generator
    monomials does not."""
    rows = generator_rows(DEMO_GENS)
    start = time.perf_counter()
    table = semigroup_orders(rows, 200)
    outside = not subalgebra_member(X1, table)
    assert time.perf_counter() - start < 30
    assert table.sorted_orders()[:4] == [0, 2, 3, 4]
    assert outside


# -- the scan bound ---------------------------------------------------------


def test_scan_bound_is_the_least_at_which_no_guard_fires():
    assert scan_bound(generator_rows(DEMO_GENS), X1) == SCAN_BOUND == 12
    assert scan_bound([], LaurentPoly.zero(V2)) == 12
    cases = [  # (generators, B): each one raised by a single guard
        ([u1({2: 1, 20: 1})], 20),       # a generator degree
        ([u1({0: 1, 9: 1})], 18),        # twice the least positive order
    ]
    for gens, bound in cases:
        rows = generator_rows(gens)
        assert scan_bound(rows, X1) == bound
        is_normal(semigroup_orders(rows, bound))       # no guard fires at B
        with pytest.raises(WitnessInvalid):            # one fires below B
            is_normal(semigroup_orders(rows, bound - 1))
    # deg h raises B too, so that h is compared whole: x1^13 is refuted at
    # B = 13, and truncated to zero, so not refuted, one below
    rows, h = generator_rows([u1({2: 1})]), u1({13: 1})
    assert scan_bound(rows, h) == 13
    assert not subalgebra_member(h, semigroup_orders(rows, 13))
    assert subalgebra_member(h, semigroup_orders(rows, 12))


# -- weights, twist conditions, clearing exponent -------------------------


def twist(t):
    """The pipeline's twist over x1, x2: x1 -> 1/x1, x2 -> x1^t * x2."""
    return RingMap(V2, "x1", (0, t))


def test_check_twist_demo_weights():
    h = X1
    assert check_twist(twist(5), DEMO_F - DEMO_G * h, DEMO_REL) == ""


def test_check_twist_insufficient_weight():
    h = X1
    failing = check_twist(twist(4), DEMO_F - DEMO_G * h, DEMO_REL)
    assert failing == "twist(relation) term -1*x2"


def test_check_twist_wrong_quotient():
    zero = LaurentPoly.zero(V2)
    failing = check_twist(twist(5), DEMO_F - DEMO_G * zero, DEMO_REL)
    assert failing.startswith("twist(f - g*h) term ")


def test_choose_weights_demo():
    assert choose_weights(DEMO_F - DEMO_G * X1, DEMO_REL) == (5,)


def test_choose_weights_guards():
    with pytest.raises(WitnessInvalid):
        choose_weights(DEMO_F, DEMO_REL)  # h = 0
    with pytest.raises(WitnessInvalid):
        choose_weights(DEMO_F - DEMO_G * X1, LaurentPoly.zero(V2))


def test_choose_weights_random_pipeline():
    rng = random.Random(808)
    for _ in range(10):
        rw = random_pipeline_data(rng)
        assert len(rw.weights) == rw.n - 1
        assert all(w >= 1 for w in rw.weights)
        assert check_twist(rw.twist, rw.f - rw.g * rw.h, rw.rel) == ""


def test_clearing_exponent_demo():
    e = clearing_exponent(twist(5), DEMO_REL, DEMO_F, 2)
    assert e == 3
    # with d = 1 no mixed term occurs, so e = 1 suffices
    assert clearing_exponent(twist(5), DEMO_REL, DEMO_F, 1) == 1


def test_clearing_exponent_matches_the_search():
    """The closed form equals the least-e search it replaced.  Under the
    zero-weight twist x1^-k goes to x1^k, so monomials set ord(twist(rel))
    to 1..24 and ord(twist(f)) to -60..60, for d = 0..8.  The reference
    validation calls `clearing_exponent` itself, so only this test checks
    the formula against the definition."""
    theta = twist(0)
    for op in range(1, 25):
        for of in range(-60, 61):
            for d in range(9):
                e = 1
                while any(e * op + i * of < 0 for i in range(d)):
                    e += 1
                assert clearing_exponent(theta, X1 ** -op, X1 ** -of, d) == e, (op, of, d)


def test_clearing_exponent_requires_divisible_relation():
    # x2 twists to x1*x2 (order 1); x1^2*x2 twists to order -1: not in x1*k[x]
    with pytest.raises(WitnessInvalid):
        clearing_exponent(twist(1), X1 ** 2 * X2, DEMO_F, 2)
    with pytest.raises(WitnessInvalid):
        clearing_exponent(twist(1), LaurentPoly.zero(V2), DEMO_F, 2)


# -- full pack validation --------------------------------------------------


def demo_pack(**kw):
    return WitnessPack(n=2, gens=list(DEMO_GENS), f=DEMO_F, g=DEMO_G, **kw)


def test_validate_pack_demo_passes():
    resolved, rep = validate_pack(demo_pack())
    assert rep.ok, format_report(rep)
    assert resolved is not None
    assert resolved.h == X1
    assert resolved.d == 2
    assert resolved.weights == (5,)
    assert resolved.clearing == 3
    assert resolved.rel == DEMO_REL
    names = [c.name for c in rep.checks]
    assert names[0] == "pack-shape"
    assert "semigroup-non-normal" in names
    assert "quotient-outside-subring" in names


@pytest.mark.parametrize("n", [2, 3])
def test_validate_pack_twists_over_x_only(n):
    """The pipeline twists z-free data: the resolved twist is the monomial
    map over x1..xn, with no z and no z-shift."""
    group = PermGroupSpec(n=n, generators=(tuple([2, 1] + list(range(3, n + 1))),))
    resolved, rep = validate_pack(invariant_witness_pack(group))
    assert rep.ok, format_report(rep)
    assert resolved.twist.vars == x_vars(n)
    assert resolved.twist.shift is None
    assert resolved.twist.weights == (0, *resolved.weights)


def test_validate_pack_stored_fields_checked():
    resolved, rep = validate_pack(demo_pack(h=X1))
    assert rep.ok
    bad, rep = validate_pack(demo_pack(h=X1 + 1))
    assert bad is None
    assert not rep["axis-quotient"].ok
    # a stored clearing exponent must be the minimum, 3: neither above it
    # (which would make every member grow for nothing) nor below it
    ok, rep = validate_pack(demo_pack(clearing=3))
    assert ok is not None and ok.clearing == 3
    assert rep["clearing-exponent"].detail == "e = 3 (minimum 3)"
    bad, rep = validate_pack(demo_pack(clearing=5))
    assert bad is None
    assert rep["clearing-exponent"].detail == "stored clearing exponent 5 exceeds the minimum 3"
    bad, rep = validate_pack(demo_pack(clearing=2))
    assert bad is None
    assert not rep["clearing-exponent"].ok


def test_stored_annihilator_is_checked_not_compared():
    """A stored Pi is any monic annihilator of eps(f) over k[eps(g)] of
    degree deg eps(g), not only the resultant's: with eps(f) = x1^4 and
    eps(g) = x1^2 the built Pi is (T - G^2)^2, and the stored
    (T - G^2)(T - G^2 - G) passes every line too and gives another rel."""
    gens = [X1 ** 3 + X2, X1 ** 5 + X1 * X2, X2]
    pack = WitnessPack(n=2, gens=gens, f=X1 ** 4 + X1 * X2, g=X1 ** 2 + X2)
    other = (ANN_T - ANN_G ** 2) * (ANN_T - ANN_G ** 2 - ANN_G)
    built, rep = validate_pack(pack)
    assert rep.ok, format_report(rep)
    assert built.ann == (ANN_T - ANN_G ** 2) ** 2
    stored_pack = WitnessPack(n=2, gens=gens, f=pack.f, g=pack.g, ann=other)
    stored, rep = validate_pack(stored_pack)
    assert rep.ok, format_report(rep)
    assert rep["annihilator"].detail == "degree 2"
    assert rep["clearing-exponent"].detail == "e = 4 (minimum 4)"
    assert stored.ann == other and stored.rel != built.rel
    assert format_report(reference_validate_pack(stored_pack)[1]) == format_report(rep)
    for p in (pack, stored_pack):
        cert, _ = build_certificate(p, l_max=3)
        assert verify_certificate(cert).ok


def test_validate_pack_weight_override_fails_cleanly():
    resolved, rep = validate_pack(demo_pack(weights=(4,)))
    assert resolved is None
    assert not rep["weights-twist"].ok
    assert rep["weights-twist"].detail != ""


def test_validate_pack_degenerate_pair_rejected():
    # f = g forces a vanishing relation element
    pack = WitnessPack(n=2, gens=list(DEMO_GENS), f=DEMO_G, g=DEMO_G)
    resolved, rep = validate_pack(pack)
    assert resolved is None
    assert not rep["relation-nonzero"].ok


def test_validate_pack_shape_gate():
    pack = WitnessPack(n=1, gens=[X1], f=X1, g=X1)
    resolved, rep = validate_pack(pack)
    assert resolved is None
    assert not rep["pack-shape"].ok
    assert len(rep.checks) == 1


def test_validate_pack_normal_subring_rejected():
    # a single even generator collapses to a normal subring: no witness
    pack = WitnessPack(n=2, gens=[DEMO_G], f=DEMO_F, g=DEMO_G)
    resolved, rep = validate_pack(pack)
    assert resolved is None
    assert not rep["semigroup-non-normal"].ok
