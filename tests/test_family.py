"""The coefficient ring k[f, rel, g, 1/g] as Laurent polynomials over
FG_VARS, the tail-coefficient recursion, the polynomial family, and
certificate build/verify."""

import hashlib
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from h14cert import (
    CertEntry,
    Certificate,
    ConstructionFailure,
    LaurentPoly,
    PermGroupSpec,
    VariableMismatch,
    WitnessInvalid,
    WitnessPack,
    axis_map,
    build_annihilator,
    build_certificate,
    certificate_to_json,
    decompose,
    dumps,
    format_report,
    invariant_witness_pack,
    realize_annihilator,
    reduce_by_annihilator,
    tail_coefficients,
    validate_pack,
    verify_certificate,
    witness_poly,
    x_vars,
    xz_vars,
)
from h14cert import family
from h14cert.family import FG_VARS, _assemble_witness_poly, is_fg
from genutil import (
    benchmark_groups,
    fg_realize_oracle,
    g_clearing,
    is_negative_tail,
    max_f_exponent,
    random_fraction,
    random_pipeline_data,
    theta_over_xz,
)

V2 = x_vars(2)
X1 = LaurentPoly.variable(V2, "x1")
X2 = LaurentPoly.variable(V2, "x2")

DEMO_F = X1 ** 3 + X1 * X2 + X2
DEMO_G = X1 ** 2 + X2
DEMO_GENS = [
    X1 ** 2 + X2,
    X1 ** 4 - 2 * X1 ** 3 + 2 * X1 ** 2 * X2 + 2 * X1 ** 2 - 2 * X1 * X2 + X2 ** 2,
    X1 ** 3 - X1 ** 2 + X1 * X2,
]
DEMO_ANN = build_annihilator(DEMO_F, DEMO_G)
DEMO_REL = realize_annihilator(DEMO_ANN, DEMO_F, DEMO_G)
ONE = LaurentPoly.one(FG_VARS)


def fg(a, b, m, coeff=1):
    """The single term coeff * f^a * rel^b * g^m."""
    return LaurentPoly.monomial(FG_VARS, (a, b, m), coeff)


def demo_oracle(*ps):
    """Each element realized on the demo pair times one common power of g."""
    k = g_clearing(*ps)
    return [fg_realize_oracle(p, DEMO_F, DEMO_G, DEMO_REL, k) for p in ps]


def demo_resolved():
    pack = WitnessPack(n=2, gens=list(DEMO_GENS), f=DEMO_F, g=DEMO_G)
    resolved, rep = validate_pack(pack)
    assert resolved is not None, format_report(rep)
    return resolved


def random_fgpoly(rng, max_terms=4, lo=(0, 0, -3), hi=(3, 2, 3)):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = tuple(rng.randint(a, b) for a, b in zip(lo, hi))
        c = random_fraction(rng)
        if c:
            terms[key] = terms.get(key, Fraction(0)) + c
    return LaurentPoly(FG_VARS, terms)


# -- the ring of tails -----------------------------------------------------


def test_fgpoly_construction():
    p = LaurentPoly(FG_VARS, {(1, 0, 0): 1, (0, 0, 0): 0})
    assert p.terms == {(1, 0, 0): Fraction(1)}
    assert LaurentPoly.zero(FG_VARS).is_zero()
    assert ONE.terms == {(0, 0, 0): Fraction(1)}
    assert fg(2, 1, -3, Fraction(1, 2)).terms == {(2, 1, -3): Fraction(1, 2)}
    with pytest.raises(VariableMismatch):
        LaurentPoly(FG_VARS, {(-1, 0, 0): 1})
    with pytest.raises(VariableMismatch):
        LaurentPoly(FG_VARS, {(0, -1, 0): 1})


def test_fgpoly_arithmetic():
    rng = random.Random(3)
    for _ in range(40):
        a = random_fgpoly(rng)
        b = random_fgpoly(rng)
        c = random_fgpoly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert a * ONE == a
    assert fg(1, 0, 0) * 3 == fg(1, 0, 0, 3)
    assert fg(1, 0, 2) * fg(0, 1, -3) == fg(1, 1, -1)


def test_fgpoly_shape_predicates():
    assert is_fg(fg(2, 0, 3))
    assert not is_fg(fg(2, 0, -1))
    assert not is_fg(fg(2, 1, 3))
    assert is_negative_tail(fg(1, 1, -2), 2)
    assert not is_negative_tail(fg(2, 1, -2), 2)  # f-exponent too big
    assert not is_negative_tail(fg(1, 1, 0), 2)   # g-power not negative
    p = LaurentPoly(FG_VARS, {(2, 0, 0): 1, (0, 1, 5): 1})
    assert max_f_exponent(p) == 2
    assert (p * fg(1, 2, -1, 3)).terms == {
        (3, 2, -1): Fraction(3), (1, 3, 4): Fraction(3)
    }


def test_fgpoly_sorted_and_str():
    p = LaurentPoly(FG_VARS, {(0, 0, 1): Fraction(-1, 2), (2, 0, 0): 1})
    keys = [k for k, _ in p.terms_sorted()]
    assert keys == sorted(keys, reverse=True)
    assert "g" in str(p) and "f^2" in str(p)
    assert str(LaurentPoly.zero(FG_VARS)) == "0"


# -- rewriting against the annihilator -----------------------------------


def test_realize_annihilator_over_fg_vars_demo():
    # Ann(T) = T^2 - G^3 written out: f^2 - g^3
    f, g = (LaurentPoly.variable(FG_VARS, name) for name in ("f", "g"))
    p = realize_annihilator(DEMO_ANN, f, g)
    assert p.terms == {(2, 0, 0): Fraction(1), (0, 0, 3): Fraction(-1)}


def dict_loop_reduce(p, ann):
    """The rule-by-rule rewriting of the earlier releases, kept as an
    oracle: each step trades every term of the top f-degree a >= d for
    f^(a-d) * rel minus the (s, u, gamma) replacement triples of
    f^d = rel - sum gamma * g^u * f^s, in a dict of terms."""
    d = ann.degree_in("T")
    rules = [(s, u, gamma) for (s, u), gamma in ann.terms.items() if s < d]
    terms = dict(p.terms)
    while True:
        top = max((a for (a, _, _) in terms if a >= d), default=None)
        if top is None:
            break
        for key in [k for k in terms if k[0] == top]:
            c = terms.pop(key)
            _, b, m = key
            updates = [((top - d, b + 1, m), c)]
            for s, u, gamma in rules:
                updates.append(((top - d + s, b, m + u), -gamma * c))
            for k, v in updates:
                s2 = terms.get(k, Fraction(0)) + v
                if s2 == 0:
                    terms.pop(k, None)
                else:
                    terms[k] = s2
    return terms


def dict_loop_decompose(p, ann):
    """The earlier `decompose` as an oracle: rel^b expanded from a list of
    powers of the written-out relation element, term by term."""
    rel_fg = LaurentPoly(FG_VARS, [((s, 0, u), gamma) for (s, u), gamma in ann.terms.items()])
    rel_pows = [ONE]
    poly_part, neg = LaurentPoly.zero(FG_VARS), {}
    for (a, b, m), c in sorted(dict_loop_reduce(p, ann).items()):
        if m < 0:
            neg[(a, b, m)] = c
            continue
        while len(rel_pows) <= b:
            rel_pows.append(rel_pows[-1] * rel_fg)
        poly_part = poly_part + rel_pows[b] * fg(a, 0, m, c)
    return poly_part.terms, neg


def test_reduce_and_decompose_match_the_dict_loops():
    """The pass-wise reduction and the Horner expansion give the term maps
    of the rule-by-rule loops, on the demo annihilator and on 24 random
    ones, for inputs with rel-powers and negative g-powers."""
    rng = random.Random(1515)
    anns = [DEMO_ANN] + [random_pipeline_data(rng, n=2 + i % 2).ann for i in range(24)]
    degrees = set()
    for ann in anns:
        d = ann.degree_in("T")
        degrees.add(d)
        for _ in range(6):
            p = random_fgpoly(rng, max_terms=6, lo=(0, 0, -3), hi=(2 * d + 2, 2, 3))
            assert reduce_by_annihilator(p, ann).terms == dict_loop_reduce(p, ann)
            poly_part, tail = decompose(p, ann)
            assert (poly_part.terms, tail.terms) == dict_loop_decompose(p, ann)
    assert degrees >= {1, 2}


def test_reduce_by_annihilator_demo():
    # f^2 -> rel + g^3
    red = reduce_by_annihilator(fg(2, 0, 0), DEMO_ANN)
    assert red.terms == {(0, 1, 0): Fraction(1), (0, 0, 3): Fraction(1)}
    # f^3 -> f*rel + f*g^3
    red3 = reduce_by_annihilator(fg(3, 0, 0), DEMO_ANN)
    assert red3.terms == {(1, 1, 0): Fraction(1), (1, 0, 3): Fraction(1)}
    # already reduced elements pass through
    low = fg(1, 2, -1, 7)
    assert reduce_by_annihilator(low, DEMO_ANN) == low


def test_reduce_preserves_value():
    rng = random.Random(44)
    for _ in range(20):
        p = random_fgpoly(rng, hi=(4, 1, 2))
        red = reduce_by_annihilator(p, DEMO_ANN)
        assert max_f_exponent(red) < DEMO_ANN.degree_in("T")
        lhs, rhs = demo_oracle(p, red)
        assert lhs == rhs


def test_decompose_fixes_fg_elements():
    rng = random.Random(9)
    for _ in range(15):
        p = random_fgpoly(rng, lo=(0, 0, 0), hi=(3, 0, 3))
        poly_part, tail = decompose(p, DEMO_ANN)
        assert tail.is_zero()
        assert poly_part == p


def test_decompose_splits_value():
    rng = random.Random(10)
    for _ in range(15):
        p = random_fgpoly(rng)
        poly_part, tail = decompose(p, DEMO_ANN)
        assert is_fg(poly_part)
        assert tail.is_zero() or is_negative_tail(tail, DEMO_ANN.degree_in("T"))
        real_poly, real_tail, real_p = demo_oracle(poly_part, tail, p)
        assert real_poly + real_tail == real_p


def test_decompose_pure_pole():
    poly_part, tail = decompose(fg(0, 0, -2), DEMO_ANN)
    assert poly_part.is_zero()
    assert tail == fg(0, 0, -2)


# -- the tail-coefficient recursion ----------------------------------------


def test_tail_coefficients_frozen():
    rw = demo_resolved()
    tails = tail_coefficients(8, rw)
    expected = [
        LaurentPoly.zero(FG_VARS),                       # f_1
        fg(0, 0, 1, Fraction(-1, 2)),                    # f_2
        fg(1, 0, 0, Fraction(1, 3)),                     # f_3
        fg(0, 0, 2, Fraction(-1, 8)),                    # f_4
        fg(1, 0, 1, Fraction(1, 30)),                    # f_5
        fg(2, 0, 0, Fraction(-2, 45)) + fg(0, 0, 3, Fraction(3, 80)),      # f_6
        fg(1, 0, 2, Fraction(1, 840)),                   # f_7
        fg(2, 0, 1, Fraction(11, 630)) + fg(0, 0, 4, Fraction(-79, 4480)),  # f_8
    ]
    assert tails == expected
    assert all(is_fg(t) for t in tails)


def exact_tail_order(tail, rw):
    """x1-order of twist(rel^e * tail), with cleared denominators:
    rel^e * tail = num / g^K, so the order is that of twist(num) less that
    of twist(g^K).  None for a zero value."""
    k = g_clearing(tail)
    num = fg_realize_oracle(tail * fg(0, rw.clearing, 0), rw.f, rw.g, rw.rel, k)
    if num.is_zero():
        return None
    return (rw.twist.apply(num).order_in("x1")
            - rw.twist.apply(rw.g ** k).order_in("x1"))


def at_ratio(i, tails):
    """P_i(f/g) = sum_w f_(i-w) * (f/g)^w / w! (f_0 = 1) over FG_VARS."""
    fs = [ONE] + list(tails)
    return sum((fs[i - w] * fg(w, 0, -w, Fraction(1, math.factorial(w)))
                for w in range(i + 1)), LaurentPoly.zero(FG_VARS))


def test_every_step_remainder_twists_to_positive_order():
    """The lemma that `tail_coefficients` leaves to validation: at every
    step s, the remainder (the negative tail of P_s(f/g)) times rel^e twists
    to a function of x1-order at least 1.  Checked on the demo and the seven
    benchmark groups at l_max 8 and on 20 random data sets at l_max 5."""
    cases = []
    for pack in [demo_pack()] + [
            invariant_witness_pack(PermGroupSpec(n=n, generators=tuple(map(tuple, gens))))
            for n, gens in benchmark_groups().values()]:
        rw, rep = validate_pack(pack)
        assert rw is not None, format_report(rep)
        cases.append((rw, 8))
    rng = random.Random(1414)
    cases += [(random_pipeline_data(rng, n=2 + i % 2), 5) for i in range(20)]
    orders = []
    for rw, l_max in cases:
        tails = tail_coefficients(l_max, rw)
        for step in range(1, l_max + 1):
            _, rest = decompose(at_ratio(step, tails), rw.ann)
            order = exact_tail_order(rest, rw) if rest else None
            if order is not None:
                orders.append(order)
    assert len(orders) >= 100
    assert min(orders) >= 1


# -- the polynomial family ---------------------------------------------------


def test_witness_poly_base_member():
    rw = demo_resolved()
    tails = tail_coefficients(0, rw)
    q0 = witness_poly(0, rw, tails)
    theta, _, _, _, rel = theta_over_xz(rw)
    assert q0 == theta.apply(rel) ** rw.clearing
    assert q0.is_polynomial()


def test_witness_poly_members_are_polynomials():
    rw = demo_resolved()
    tails = tail_coefficients(5, rw)
    for l in range(6):
        q = witness_poly(l, rw, tails)
        assert q.is_polynomial()
        assert axis_map(q).is_constant()
        if l >= 1:
            assert q.degree_in("z") == l


def test_witness_poly_detects_broken_tails():
    rw = demo_resolved()
    tails = tail_coefficients(4, rw)
    mut = list(tails)
    mut[3] = fg(0, 0, 2, Fraction(-1, 4))  # wrong coefficient
    with pytest.raises(ConstructionFailure) as err:
        witness_poly(4, rw, mut)
    assert "member l=4" in str(err.value)


def direct_member(l, tails, rw):
    """q_l = sum_i theta(rel^e * f_{l-i}) * theta(z)^i / i!, multiplied out."""
    theta, f, g, _, rel = theta_over_xz(rw)
    rel_e = rel ** rw.clearing
    z_img = theta.image_of("z")
    q = LaurentPoly.zero(theta.vars)
    for i in range(l + 1):
        fj = tails[l - i - 1] if l - i >= 1 else ONE
        c = theta.apply(rel_e * fg_realize_oracle(fj, f, g, rel, 0))
        q = q + c * z_img ** i * Fraction(1, math.factorial(i))
    return q


def test_assembly_matches_direct_route():
    rng = random.Random(808)
    compared = non_monomial = 0
    for n in (2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3):
        rw = random_pipeline_data(rng, n=n, max_hdeg=2)
        non_monomial += len(rw.h.terms) > 1
        tails = tail_coefficients(5, rw)
        for l in range(6):
            assert _assemble_witness_poly(l, tails, rw) == direct_member(l, tails, rw)
            compared += 1
    assert compared == 72
    assert non_monomial >= 6


def test_members_are_z_derivatives_of_the_top_member():
    """The family is an Appell sequence, d/dz q_l = q_(l-1), which is what
    lets `build_certificate` assemble only q_(l_max): the top member
    differentiated L - l times in z equals the independently assembled q_l."""
    rng = random.Random(909)
    L = 5
    compared = non_monomial = 0
    for n in (2, 2, 2, 2, 2, 3, 3, 3, 3, 3):
        rw = random_pipeline_data(rng, n=n, max_hdeg=2)
        non_monomial += len(rw.h.terms) > 1
        tails = tail_coefficients(L, rw)
        q = witness_poly(L, rw, tails)
        for l in range(L, -1, -1):
            assert q == witness_poly(l, rw, tails), (n, l)
            compared += 1
            q = q.deriv("z")
        assert q.is_zero()
    assert compared == 60
    assert non_monomial >= 5


def test_taylor_shift_identity():
    """q_l against the Taylor expansion around the shifted variable,

        q_l = sum_i twist(rel^e * P_(l-i)(f/g)) / i! * (z - twist(f - g*h)/twist(g))^i,

    with cleared denominators: rel^e * P_j(f/g) * g^j realizes to a
    polynomial N_j, so multiplying by twist(g)^l leaves the polynomial
    identity q_l * twist(g)^l = sum_i twist(N_(l-i)) * (z*twist(g) - twist(f - g*h))^i / i!."""
    rw = demo_resolved()
    tails = tail_coefficients(3, rw)
    theta, f, g, h, rel = theta_over_xz(rw)
    vz = theta.vars
    tg = theta.apply(g)
    w = LaurentPoly.variable(vz, "z") * tg - theta.apply(f - g * h)
    for l in range(4):
        lhs = witness_poly(l, rw, tails) * tg ** l
        rhs = LaurentPoly.zero(vz)
        for i in range(l + 1):
            j = l - i
            num = fg_realize_oracle(at_ratio(j, tails) * fg(0, rw.clearing, 0),
                                    f, g, rel, j)
            rhs = rhs + theta.apply(num) * w ** i * Fraction(1, math.factorial(i))
        assert lhs == rhs


# -- certificates -------------------------------------------------------------


def demo_pack():
    return WitnessPack(n=2, gens=list(DEMO_GENS), f=DEMO_F, g=DEMO_G)


def pair_pack(g, f):
    return WitnessPack(n=2, gens=[g, f], f=f, g=g)


# Two packs beyond Pi = T^2 - G^3, each built at l_max 3, with the sha256
# of its certificate's canonical bytes:
#   Pi = T^3 - G^4, h = x1, t = 10, e = 8;
#   Pi = T^3 - 3*T*G^3 - G^5 - G^4, h = x1^2 + x1, t = 13, e = 10.
WIDE_PACKS = [
    (pair_pack(X1 ** 3 + X2, X1 ** 4 + X1 * X2 + X2 ** 2),
     "2f3e22f07fe1cba15d20f6dc2f0be262bac417709a8d7d6d57148450cd98119c"),
    (pair_pack(X1 ** 3 + X2, X1 ** 3 * (X1 ** 2 + X1) + X1 * X2),
     "d8b9414f2250732fe5d795ddfdbbcf38ce89a920464eef323bc3f523c86b9944"),
]

# Three more packs, each built at l_max 3 and kept out of the per-line
# mutation loop for its build time: the pack, Pi over T, G, h, e, and the
# sha256 of its certificate's canonical bytes.
T, G = (LaurentPoly.variable(DEMO_ANN.vars, name) for name in ("T", "G"))
MORE_PACKS = [
    (pair_pack(X1 ** 3 + X1 * X2 + X2, X1 ** 5 + X1 ** 2 * X2 + X2),
     T ** 3 - G ** 5, X1 ** 2, 10,
     "d07c84b6ae27f719fa14432f87b12d958a234f3bd20a495e5bd544f314644c95"),
    (pair_pack(X1 ** 4 + X2, X1 ** 5 + X1 * X2 + X2 ** 2),
     T ** 4 - G ** 5, X1, 15,
     "0f28d152ecbe65e1a0f6c2171ed94a13b98e9e7a3880e57cf2c1fe1cfa3c9843"),
    (pair_pack(X1 ** 3 + X1 ** 2 + X2,
               (X1 ** 3 + X1 ** 2) * (X1 + 1) + X1 * X2 + X2 ** 2),
     T ** 3 - 2 * T ** 2 * G + T * G ** 2 - G ** 4, X1 + 1, 8,
     "7c5894b7ef457946e709582f5b24b04b92b99bef70dcb54c96a26fdd46991866"),
]


def test_build_certificate_demo():
    cert, report = build_certificate(demo_pack(), l_max=4)
    assert [e.l for e in cert.entries] == [0, 1, 2, 3, 4]
    assert cert.d == 2 and cert.clearing == 3
    assert cert.rel == DEMO_REL
    assert cert.pack.h == X1
    assert cert.pack.weights == (5,)
    assert report.ok and verify_certificate(cert).ok
    # each entry carries the tail prefix it needs
    assert cert.entries[0].tails == []
    assert len(cert.entries[4].tails) == 4


def test_build_certificate_rejects_bad_pack():
    bad = WitnessPack(n=2, gens=list(DEMO_GENS), f=DEMO_G, g=DEMO_G)
    with pytest.raises(WitnessInvalid) as err:
        build_certificate(bad, l_max=2)
    assert err.value.report is not None
    assert not err.value.report["relation-nonzero"].ok


def test_verify_certificate_clean():
    cert, _ = build_certificate(demo_pack(), l_max=3)
    rep = verify_certificate(cert)
    assert rep.ok, format_report(rep)
    names = [c.name for c in rep.checks]
    assert "relation-matches" in names
    assert "member-3-leading" in names
    assert "member-3-degree-drop" in names


def test_verify_certificate_flags_tampered_member():
    cert, _ = build_certificate(demo_pack(), l_max=3)
    entries = [
        CertEntry(l=e.l, tails=list(e.tails),
                  q=e.q + 1 if e.l == 2 else e.q)
        for e in cert.entries
    ]
    tampered = Certificate(pack=cert.pack, rel=cert.rel, d=cert.d,
                           clearing=cert.clearing, entries=entries)
    rep = verify_certificate(tampered)
    assert not rep.ok
    assert not rep["member-2-recomputed"].ok
    assert rep["member-3-recomputed"].ok


def whole_member_checks(cert):
    """The member-* report lines as `verify_certificate` once computed
    them: leading and degree-drop checks on whole-member products (l! * q_l,
    minus twist(rel)^e * z^l, cleaned).  The reference for the verifier,
    which reads the z^l block and the top z-degree off the stored terms."""
    rw, _ = validate_pack(cert.pack)
    theta, _, _, _, rel = theta_over_xz(rw)
    vz = theta.vars
    rel_t_pow = theta.apply(rel) ** cert.clearing
    lines = []
    for entry in cert.entries:
        l, tag = entry.l, f"member-{entry.l}"
        lines.append((f"{tag}-tails-in-fg", all(is_fg(t) for t in entry.tails),
                      "tail coefficients lie in k[f, g]"))
        lines.append((f"{tag}-recomputed",
                      _assemble_witness_poly(l, entry.tails, rw) == entry.q,
                      "stored member equals the recomputed twist image"))
        poly_ok = entry.q.is_polynomial()
        lines.append((f"{tag}-polynomial", poly_ok, "member lies in k[x1..xn, z]"))
        if not poly_ok:
            continue
        scaled = entry.q * math.factorial(l)
        if l == 0:
            lines.append((f"{tag}-leading", scaled == rel_t_pow,
                          "member 0 equals the twisted relation power"))
        else:
            lead = LaurentPoly.monomial(vz, [0] * (len(vz) - 1) + [l])
            diff = scaled - rel_t_pow * lead
            lead_coeff = LaurentPoly(
                vz, {e[:-1] + (0,): c for e, c in scaled.terms.items() if e[-1] == l})
            lines.append((f"{tag}-leading", lead_coeff == rel_t_pow,
                          "z^l coefficient of l! * member equals the twisted relation power"))
            lines.append((f"{tag}-degree-drop",
                          diff.is_zero() or diff.degree_in("z") < l,
                          "l! * member minus the leading block has z-degree < l"))
        lines.append((f"{tag}-axis-constant", axis_map(entry.q).is_constant(),
                      "axis image of the member is a constant"))
    return lines


def test_member_checks_match_whole_member_route():
    seen = set()
    for pack, l_max in [(demo_pack(), 4)] + [(pack, 3) for pack, _ in WIDE_PACKS]:
        cert, _ = build_certificate(pack, l_max=l_max)
        vz = cert.entries[0].q.vars

        def edited(l, edit):
            terms = dict(cert.entries[l].q.terms)
            edit(terms)
            entries = [CertEntry(l=e.l, tails=list(e.tails),
                                 q=LaurentPoly(vz, terms) if e.l == l else e.q)
                       for e in cert.entries]
            return replace(cert, entries=entries)

        def bump(z_deg):
            def edit(terms):
                e = max(k for k in terms if k[-1] == z_deg)
                terms[e] += 1
            return edit

        def extra(exps):
            return lambda terms: terms.__setitem__(exps, Fraction(3))

        cases = {
            "untouched": cert,
            "z^l coefficient": edited(2, bump(2)),
            "extra z^(l+1) term": edited(2, extra((1, 0, 3))),
            "lower z-degree coefficient": edited(2, bump(1)),
            "member set to zero": edited(3, dict.clear),
            "member 0 coefficient": edited(0, bump(0)),
            "member 0 with a z term": edited(0, extra((0, 0, 1))),
            "top member coefficient": edited(l_max, bump(l_max)),
            "negative x1 exponent": edited(1, extra((-1, 0, 0))),
            "extra x1-only term": edited(2, extra((1, 0, 0))),
        }
        for name, tampered in cases.items():
            lines = [(c.name, c.ok, c.detail) for c in verify_certificate(tampered).checks
                     if c.name.startswith("member-")]
            assert lines == whole_member_checks(tampered), (cert.clearing, name)
            seen.update((n.split("-", 2)[2], ok) for n, ok, _ in lines)
        drop = verify_certificate(cases["extra z^(l+1) term"])
        assert drop["member-2-leading"].ok and not drop["member-2-degree-drop"].ok
    # both outcomes of the three rewritten checks occur
    assert {("leading", True), ("leading", False),
            ("degree-drop", True), ("degree-drop", False),
            ("axis-constant", True), ("axis-constant", False)} <= seen


def test_verifier_catches_builder_dropping_a_factorial(monkeypatch):
    """The verify shares no code with the assembly: an assembler that
    doubles the z^2 block of q_l for l >= 3 (drops its 1/2!) builds a
    certificate that fails verification instead of confirming itself."""
    original = family._assemble_witness_poly

    def doubled(l, tails, rw):
        q = original(l, tails, rw)
        if l < 3:
            return q
        return LaurentPoly(q.vars, {e: c * 2 if e[-1] == 2 else c
                                    for e, c in q.terms.items()})

    monkeypatch.setattr("h14cert.family._assemble_witness_poly", doubled)
    cert, report = build_certificate(demo_pack(), l_max=4)
    assert report.ok
    # q_4 is assembled and the rest are its z-derivatives, so the doubled
    # block reaches q_3 and q_2 too; q_1 and q_0 lie below it
    assert [c.name for c in verify_certificate(cert).failures()] == [
        "member-2-recomputed", "member-3-recomputed", "member-4-recomputed"]


def test_verify_reports_an_unrealizable_tail():
    cert, _ = build_certificate(demo_pack(), l_max=3)
    entries = [CertEntry(l=e.l, tails=list(e.tails), q=e.q) for e in cert.entries]
    entries[3].tails[2] = fg(0, 0, -1)                # the last tail only
    rep = verify_certificate(replace(cert, entries=entries))
    assert rep["tails-prefix-consistency"].ok
    assert rep["member-2-recomputed"].ok
    assert not rep["member-3-tails-in-fg"].ok
    failed = rep["member-3-recomputed"]
    assert (failed.ok, failed.detail) == (
        False, "stored member equals the recomputed twist image")


def test_verify_does_not_realize_a_tail_outside_fg():
    """f_3 + rel - Pi(f, g) realizes to the value of f_3, but the verifier
    realizes tails from powers of f and g only: a member whose tails leave
    k[f, g] fails its recomputation as well as its tails-in-fg line."""
    cert, _ = build_certificate(demo_pack(), l_max=3)
    _, pi = family._relation(cert.pack.ann)
    entries = [CertEntry(l=e.l, tails=list(e.tails), q=e.q) for e in cert.entries]
    entries[3].tails[2] = entries[3].tails[2] + fg(0, 1, 0) - pi
    rep = verify_certificate(replace(cert, entries=entries))
    assert [c.name for c in rep.failures()] == [
        "member-3-tails-in-fg", "member-3-recomputed"]
    assert rep["member-3-recomputed"].detail == (
        "stored member equals the recomputed twist image")


def test_verify_does_not_reach_the_builder(monkeypatch):
    cert, _ = build_certificate(demo_pack(), l_max=4)

    def unreachable(*args, **kwargs):
        raise AssertionError("the verify reached the builder")

    monkeypatch.setattr("h14cert.family._assemble_witness_poly", unreachable)
    assert verify_certificate(cert).ok


def report_lines(report):
    return [(c.name, c.ok, c.detail) for c in report.checks]


def test_build_report_equals_fresh_verify():
    """The build returns the validation of the pack it was given; a fresh
    `verify_certificate` of what it built passes, and its pack lines (those
    after resolved-fields) are that report line for line: the stored pack,
    with its derived fields filled in, validates the same."""
    built = [build_certificate(invariant_witness_pack(
                 PermGroupSpec(n=n, generators=tuple(map(tuple, gens)))), l_max=3)
             for n, gens in benchmark_groups().values()]
    built.append(build_certificate(replace(demo_pack(), weights=(6,)), l_max=3))
    assert built[-1][0].pack.weights == (6,)
    for pack, sha in WIDE_PACKS:
        built.append(build_certificate(pack, l_max=3))
        data = dumps(certificate_to_json(built[-1][0])).encode()
        assert hashlib.sha256(data).hexdigest() == sha
    assert [cert.clearing for cert, _ in built[-2:]] == [8, 10]
    assert len(built) == 10
    for cert, report in built:
        rep = verify_certificate(cert)
        assert report.ok and rep.ok
        assert report_lines(rep)[1:len(report.checks) + 1] == report_lines(report)


@pytest.mark.parametrize("pack, pi, h, e, sha", MORE_PACKS, ids=["T3-G5", "T4-G5", "T3-G4"])
def test_more_packs_build_verify_and_catch_a_changed_tail(pack, pi, h, e, sha):
    cert, _ = build_certificate(pack, l_max=3)
    assert (cert.pack.ann, cert.pack.h, cert.clearing) == (pi, h, e)
    assert hashlib.sha256(dumps(certificate_to_json(cert)).encode()).hexdigest() == sha
    assert verify_certificate(cert).ok
    # f_3 + 1 still lies in k[f, g]; only the top member's recomputation sees it
    entries = [CertEntry(l=e.l, tails=list(e.tails), q=e.q) for e in cert.entries]
    entries[3].tails[2] = entries[3].tails[2] + 1
    rep = verify_certificate(replace(cert, entries=entries))
    assert [c.name for c in rep.failures()] == ["member-3-recomputed"]


def test_witness_poly_names_the_lowest_negative_term(monkeypatch):
    """The unsorted scan only detects a negative exponent; the message
    still names the z-degree of the first offending term in sorted order."""
    rw = demo_resolved()
    vz = xz_vars(rw.n)
    bad = LaurentPoly(vz, {(-1, 0, 2): 1, (-2, 0, 1): 1, (0, 0, 0): 1})
    monkeypatch.setattr("h14cert.family._assemble_witness_poly",
                        lambda l, tails, rw: bad)
    with pytest.raises(ConstructionFailure,
                       match=r"member l=2: coefficient of z\^1 has a negative exponent"):
        witness_poly(2, rw, [])


def test_verify_certificate_flags_tampered_relation():
    cert, _ = build_certificate(demo_pack(), l_max=2)
    tampered = Certificate(pack=cert.pack, rel=cert.rel + 1, d=cert.d,
                           clearing=cert.clearing, entries=cert.entries)
    rep = verify_certificate(tampered)
    assert not rep["relation-matches"].ok


def test_verify_certificate_flags_missing_entry():
    cert, _ = build_certificate(demo_pack(), l_max=3)
    tampered = Certificate(pack=cert.pack, rel=cert.rel, d=cert.d,
                           clearing=cert.clearing,
                           entries=[cert.entries[0], cert.entries[2]])
    rep = verify_certificate(tampered)
    assert not rep["entries-contiguous"].ok


def test_verify_certificate_flags_inconsistent_tails():
    cert, _ = build_certificate(demo_pack(), l_max=3)
    for edit in (
        lambda tails: tails.__setitem__(0, fg(1, 0, 0)),   # breaks the shared prefix
        lambda tails: tails.pop(),                         # the last entry one tail short
        lambda tails: tails.append(ONE),                   # the last entry one tail long
    ):
        entries = [CertEntry(l=e.l, tails=list(e.tails), q=e.q) for e in cert.entries]
        edit(entries[3].tails)
        tampered = Certificate(pack=cert.pack, rel=cert.rel, d=cert.d,
                               clearing=cert.clearing, entries=entries)
        rep = verify_certificate(tampered)
        assert not rep["tails-prefix-consistency"].ok


def test_verify_certificate_requires_resolved_pack():
    cert, _ = build_certificate(demo_pack(), l_max=1)
    stripped = Certificate(pack=replace(cert.pack, h=None), rel=cert.rel,
                           d=cert.d, clearing=cert.clearing, entries=cert.entries)
    rep = verify_certificate(stripped)
    assert not rep.ok
    assert not rep["resolved-fields"].ok
    assert len(rep.checks) == 1
