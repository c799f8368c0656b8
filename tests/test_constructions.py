"""Input factories: permutation-invariant witness packs and the locally
nilpotent derivation helpers with the preslice involution."""

import random
from fractions import Fraction

import pytest

from h14cert import (
    Derivation,
    LaurentPoly,
    PermGroupSpec,
    UnsupportedCase,
    VariableMismatch,
    WitnessInvalid,
    apply_derivation,
    axis_map,
    build_certificate,
    find_preslice,
    invariant_generators,
    invariant_witness_pack,
    orbit_sum,
    preslice_involution,
    validate_pack,
    verify_certificate,
    x_vars,
)
from genutil import (
    benchmark_groups,
    random_poly,
    reference_invariant_generators,
    reference_orbit_sum,
)

V2 = x_vars(2)
X1 = LaurentPoly.variable(V2, "x1")
X2 = LaurentPoly.variable(V2, "x2")

SWAP = PermGroupSpec(2, ((2, 1),))
CYCLE3 = PermGroupSpec(3, ((2, 3, 1),))
SYM3 = PermGroupSpec(3, ((2, 1, 3), (1, 3, 2)))


# -- permutation groups ----------------------------------------------------


def test_group_spec_validation():
    with pytest.raises(VariableMismatch):
        PermGroupSpec(2, ((1, 1),))
    with pytest.raises(VariableMismatch):
        PermGroupSpec(3, ((2, 1),))


def test_orbits():
    assert SWAP.orbit((1, 0)) == {(1, 0), (0, 1)}
    assert SWAP.orbit((1, 1)) == {(1, 1)}
    assert CYCLE3.orbit((1, 0, 0)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert CYCLE3.orbit((2, 1, 0)) == {(2, 1, 0), (0, 2, 1), (1, 0, 2)}
    assert SYM3.orbit((2, 1, 0)) == {
        (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2)
    }


# -- the coordinate change and orbit sums ----------------------------------


def test_orbit_sum_frozen():
    # orbit of y1 under the swap: y1 + y2 = x1^2 + x2
    assert orbit_sum(SWAP, (1, 0)) == X1 ** 2 + X2
    # singleton orbit of y1*y2: x1^3 - x1^2 + x1*x2
    assert orbit_sum(SWAP, (1, 1)) == X1 ** 3 - X1 ** 2 + X1 * X2
    assert orbit_sum(SWAP, (0, 0)) == LaurentPoly.one(V2)
    for exps in ((1, 0, 0), (-1, 0)):
        with pytest.raises(VariableMismatch,
                           match="^monomial exponents must be nonnegative, length n$"):
            orbit_sum(SWAP, exps)
    # one letter has no y2: no orbit sum, but the empty generator list
    one_letter = PermGroupSpec(1, ())
    assert invariant_generators(one_letter, 0) == []
    for call in (lambda: invariant_generators(one_letter, 1),
                 lambda: orbit_sum(one_letter, (1,))):
        with pytest.raises(VariableMismatch, match="^need at least two variables$"):
            call()


def test_orbit_sums_are_invariant():
    """Written back in y-coordinates (x2 -> x2 + x1 - x1^2 undoes the
    coordinate change), an orbit sum is fixed by every group generator."""
    rng = random.Random(19)
    v3 = x_vars(3)
    to_y = {name: LaurentPoly.variable(v3, name) for name in v3.names}
    to_y["x2"] = to_y["x2"] + to_y["x1"] - to_y["x1"] ** 2
    for grp in (CYCLE3, SYM3):
        for gen in grp.generators:
            for _ in range(5):
                exps = tuple(rng.randint(0, 2) for _ in range(3))
                in_y = orbit_sum(grp, exps).subst(to_y).terms
                assert in_y == {e: 1 for e in grp.orbit(exps)}
                assert {grp.apply(gen, e): c for e, c in in_y.items()} == in_y


def test_invariant_generators_swap():
    gens = invariant_generators(SWAP, 2)
    assert gens == [
        X1 ** 2 + X2,
        X1 ** 4 - 2 * X1 ** 3 + 2 * X1 ** 2 * X2 + 2 * X1 ** 2
        - 2 * X1 * X2 + X2 ** 2,
        X1 ** 3 - X1 ** 2 + X1 * X2,
    ]


BENCH_GROUPS = benchmark_groups()


def assert_same_terms(got, want):
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert p.vars == q.vars
        assert p.terms == q.terms
        assert all(type(c) is Fraction for c in p.terms.values())


@pytest.mark.parametrize("name", BENCH_GROUPS)
def test_generators_match_substitution_on_benchmark_groups(name):
    """The power-table orbit sums equal one substitution per orbit, and the
    pack takes g and the y1*y2 orbit sum from the generator list."""
    n, gens = BENCH_GROUPS[name]
    group = PermGroupSpec(n, tuple(map(tuple, gens)))
    want = reference_invariant_generators(group, n)
    assert_same_terms(invariant_generators(group, n), want)
    pack = invariant_witness_pack(group)
    assert_same_terms(pack.gens, want)
    g = reference_orbit_sum(group, (1,) + (0,) * (n - 1))
    pair = reference_orbit_sum(group, (1, 1) + (0,) * (n - 2))
    idx_g, idx_pair = want.index(g), want.index(pair)
    assert pack.g == g and pack.f == g + pair
    assert pack.g_expr.terms == {tuple(int(i == idx_g) for i in range(len(want))): 1}
    assert pack.f_expr.terms == {tuple(int(i == idx) for i in range(len(want))): 1
                                 for idx in (idx_g, idx_pair)}


def test_generators_match_substitution_on_random_subgroups():
    """Seeded subgroups of S_n (n <= 6) by 0-3 random generators, bounds up
    to 6: the trivial group reaches y2^6 itself."""
    rng = random.Random(1906)
    cases = [PermGroupSpec(n, ()) for n in (2, 6)]
    while len(cases) < 40:
        n = rng.randint(2, 6)
        perms = tuple(tuple(rng.sample(range(1, n + 1), n))
                      for _ in range(rng.randint(0, 3)))
        cases.append(PermGroupSpec(n, perms))
    for group in cases:
        bound = 6 if not group.generators else rng.randint(0, 6)
        want = reference_invariant_generators(group, bound)
        assert_same_terms(invariant_generators(group, bound), want)
        for _ in range(3):
            exps = tuple(rng.randint(0, 6 // group.n + 1) for _ in range(group.n))
            assert_same_terms([orbit_sum(group, exps)], [reference_orbit_sum(group, exps)])


def test_each_orbit_is_walked_once(monkeypatch):
    walks = []
    walk = PermGroupSpec.orbit
    monkeypatch.setattr(PermGroupSpec, "orbit",
                        lambda self, exps: walks.append(exps) or walk(self, exps))
    n, gens = BENCH_GROUPS["swap-cycle5"]
    group = PermGroupSpec(n, tuple(map(tuple, gens)))
    generators = invariant_generators(group, 5)
    assert len(walks) == len(generators) == 65
    assert all(exps == max(walk(group, exps)) for exps in walks)


def test_orbit_sums_make_no_substitution(monkeypatch):
    def refuse(self, images):
        raise AssertionError("LaurentPoly.subst called")

    monkeypatch.setattr(LaurentPoly, "subst", refuse)
    orbit_sum(SYM3, (2, 1, 0))
    invariant_generators(SYM3, 4)
    invariant_witness_pack(CYCLE3)


# -- witness packs from invariant rings -------------------------------------


def test_invariant_witness_pack_swap():
    pack = invariant_witness_pack(SWAP)
    assert pack.n == 2
    assert pack.g == X1 ** 2 + X2
    assert pack.f == X1 ** 3 + X1 * X2 + X2
    assert pack.f_expr is not None and pack.g_expr is not None
    assert axis_map(pack.g) == X1 ** 2
    assert axis_map(pack.f) == X1 ** 3
    resolved, rep = validate_pack(pack)
    assert rep.ok
    assert resolved.weights == (5,) and resolved.clearing == 3


def test_invariant_witness_pack_three_coordinates():
    for grp, n_gens in ((CYCLE3, 7), (SYM3, 6)):
        pack = invariant_witness_pack(grp)
        assert len(pack.gens) == n_gens
        resolved, rep = validate_pack(pack)
        assert rep.ok
        assert resolved.weights == (6, 6)
        assert resolved.d == 2 and resolved.clearing == 3


def test_invariant_witness_pack_guards():
    with pytest.raises(WitnessInvalid):
        invariant_witness_pack(PermGroupSpec(2, ()))  # nothing maps 1 to 2


def test_three_coordinate_certificate():
    """The full pipeline also runs on a three-variable invariant ring."""
    cert, report = build_certificate(invariant_witness_pack(CYCLE3), l_max=2)
    assert report.ok and verify_certificate(cert).ok
    assert [e.l for e in cert.entries] == [0, 1, 2]


# -- derivations --------------------------------------------------------------


def test_apply_derivation_leibniz():
    D = Derivation(2, (LaurentPoly.zero(V2), X1))
    assert apply_derivation(D, X2 ** 2) == 2 * X1 * X2
    assert apply_derivation(D, X1 ** 5).is_zero()
    rng = random.Random(88)
    for _ in range(25):
        a = random_poly(rng, V2, exp_lo=0)
        b = random_poly(rng, V2, exp_lo=0)
        lhs = apply_derivation(D, a * b)
        rhs = apply_derivation(D, a) * b + a * apply_derivation(D, b)
        assert lhs == rhs


def test_derivation_shape_guard():
    with pytest.raises(VariableMismatch):
        Derivation(2, (X1,))
    with pytest.raises(VariableMismatch):
        Derivation(2, (X1, LaurentPoly.variable(x_vars(3), "x3")))


def test_find_preslice():
    D = Derivation(2, (LaurentPoly.zero(V2), X1))
    assert find_preslice(D, [X1, X2]) == X2
    # D(x2^2) = 2 x1 x2, and a second application gives 2 x1^2 != 0
    assert find_preslice(D, [X2 ** 2, X2]) == X2
    with pytest.raises(UnsupportedCase):
        find_preslice(D, [X1, X1 ** 2])


def test_preslice_involution():
    iota = preslice_involution(X2)
    assert iota.vars.laurent == (True, True)
    x2_l = LaurentPoly.variable(iota.vars, "x2")
    assert iota.image_of("x2") == x2_l ** -1
    assert iota.image_of("x1") == LaurentPoly.variable(iota.vars, "x1")
    for name in iota.vars.names:
        coord = LaurentPoly.variable(iota.vars, name)
        assert iota.apply(iota.apply(coord)) == coord
    # a polynomial over x1, x2 is moved onto the map's VarSet first
    p = (X1 ** 2 + 3 * X1).with_vars(iota.vars)
    assert iota.apply(iota.apply(p)) == p
    for bad in (X1 + X2, 2 * X2, X1 * X2, LaurentPoly.one(V2)):
        with pytest.raises(UnsupportedCase):
            preslice_involution(bad)
