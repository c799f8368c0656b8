"""Acceptance gate: the seven headline properties of the engine.

Each test prints exactly one pass/fail line (visible under ``pytest -s``)
and folds its runtime budget into the verdict, so a slow pass is a fail.
All arithmetic is exact; every comparison is term-map equality.
"""

import copy
import random
import time
from fractions import Fraction

from h14cert import (
    AlgebraError,
    Derivation,
    FormatError,
    LaurentPoly,
    PermGroupSpec,
    axis_map,
    build_annihilator,
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    decompose,
    find_preslice,
    generator_rows,
    inversion_map,
    invariant_witness_pack,
    is_normal,
    orbit_sum,
    plain_vars,
    preslice_involution,
    realize_annihilator,
    resultant,
    semigroup_orders,
    sylvester_matrix,
    tail_coefficients,
    validate_pack,
    verify_certificate,
    witness_poly,
    x_vars,
)
from h14cert.family import FG_VARS, is_fg
from h14cert.witness import ANN_VARS, monic_degree
from genutil import (
    g_clearing,
    is_negative_tail,
    naive_determinant,
    random_pipeline_data,
    random_poly,
    random_univar,
    theta_over_xz,
)

SWAP = PermGroupSpec(n=2, generators=((2, 1),))


def finish(num, label, started, budget, failures):
    elapsed = time.perf_counter() - started
    if budget is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s over the {budget}s budget")
    verdict = "PASS" if not failures else "FAIL"
    print(f"[{verdict}] criterion {num}: {label} ({elapsed:.2f}s)")
    assert not failures, "; ".join(failures)


def demo_resolved():
    resolved, report = validate_pack(invariant_witness_pack(SWAP))
    assert report.ok
    return resolved


def test_criterion_1_twisted_generator_identities():
    started = time.perf_counter()
    failures = []
    x1 = LaurentPoly.variable(x_vars(2), "x1")
    theta = inversion_map((5,), x1)
    xz = theta.vars

    def expect(*terms):
        return LaurentPoly(xz, {e: Fraction(c) for e, c in terms})

    cases = [
        ("orbit(y1)", orbit_sum(SWAP, (1, 0)),
         expect(((5, 1, 0), 1), ((-2, 0, 0), 1))),
        ("orbit(y1*y2)", orbit_sum(SWAP, (1, 1)),
         expect(((4, 1, 0), 1), ((-2, 0, 0), -1), ((-3, 0, 0), 1))),
    ]
    for label, source, expected in cases:
        got = theta.apply(source.with_vars(xz))
        if got != expected:
            failures.append(f"image of {label} is {got}, expected {expected}")
    z_image = expect(((0, 0, 1), 1), ((-1, 0, 0), 1))
    if theta.image_of("z") != z_image:
        failures.append(f"image of z is {theta.image_of('z')}")
    finish(1, "twist images of the invariant generators", started, 1.0, failures)


def test_criterion_2_axis_images_and_order_semigroup():
    started = time.perf_counter()
    failures = []
    vars = x_vars(2)
    gens = [orbit_sum(SWAP, (1, 0)), orbit_sum(SWAP, (1, 1))]
    images = [axis_map(p) for p in gens]
    if images[0] != LaurentPoly.monomial(vars, (2, 0)):
        failures.append(f"axis image of orbit(y1) is {images[0]}")
    cubic = (LaurentPoly.monomial(vars, (3, 0))
             - LaurentPoly.monomial(vars, (2, 0)))
    if images[1] != cubic:
        failures.append(f"axis image of orbit(y1*y2) is {images[1]}")
    table = semigroup_orders(generator_rows(images), 12)
    if table.sorted_orders() != [0] + list(range(2, 13)):
        failures.append(f"order table is {table.sorted_orders()}")
    if is_normal(table):
        failures.append("order table reads as normal; 1 is missing but 2, 3 occur")
    finish(2, "collapsed generators and their non-normal order semigroup",
           started, 1.0, failures)


def test_criterion_3_annihilator_construction():
    started = time.perf_counter()
    failures = []
    v1 = x_vars(1)
    x1 = LaurentPoly.variable(v1, "x1")
    ann = build_annihilator(x1 ** 3, x1 ** 2)
    tvar, gvar = (LaurentPoly.variable(ANN_VARS, name) for name in ("T", "G"))
    if ann != tvar ** 2 - gvar ** 3:
        failures.append(f"annihilator of (x1^3, x1^2) is {ann}")

    rw = demo_resolved()
    rel = realize_annihilator(rw.ann, rw.f, rw.g)
    if rel != rw.f ** 2 - rw.g ** 3:
        failures.append("realized relation differs from f^2 - g^3")
    if rel.is_zero():
        failures.append("realized relation is zero")
    if not axis_map(rel).is_zero():
        failures.append("realized relation does not vanish on the axis")

    rng = random.Random(14003)
    xtg = plain_vars("x1", "T", "G")

    def lifted(p, head):
        return LaurentPoly.variable(xtg, head) - p.with_vars(xtg)

    for trial in range(50):
        fbar = random_univar(rng, v1, rng.randint(1, 4))
        gbar = random_univar(rng, v1, rng.randint(1, 4))
        ann = build_annihilator(fbar, gbar)
        if monic_degree(ann) != gbar.degree_in("x1"):
            failures.append(f"trial {trial}: wrong shape {ann}")
            break
        plugged = ann.subst({"T": fbar, "G": gbar})
        if not plugged.is_zero():
            failures.append(f"trial {trial}: annihilator misses its target")
            break
        A, B = lifted(fbar, "T"), lifted(gbar, "G")
        if resultant(A, B, "x1") != naive_determinant(sylvester_matrix(A, B, "x1")):
            failures.append(f"trial {trial}: resultant disagrees with the "
                            "Sylvester determinant oracle")
            break
    finish(3, "monic annihilator; 50 random pairs against the determinant oracle",
           started, None, failures)


def test_criterion_4_witness_family_through_l_8():
    started = time.perf_counter()
    failures = []
    rw = demo_resolved()
    if rw.weights != (5,):
        failures.append(f"weights resolved to {rw.weights}")
    theta, _, _, _, rel = theta_over_xz(rw)
    xz = theta.vars
    rel_pow = theta.apply(rel) ** rw.clearing
    try:
        tails = tail_coefficients(8, rw)
        factorial = 1
        for l in range(1, 9):
            factorial *= l
            q = witness_poly(l, rw, tails)
            if not q.is_polynomial():
                failures.append(f"member {l} has a negative exponent")
                continue
            scaled = q * factorial
            lead = LaurentPoly(xz, {e[:-1] + (0,): c
                                    for e, c in scaled.terms.items() if e[-1] == l})
            if lead != rel_pow:
                failures.append(f"member {l}: z^{l} coefficient is not the "
                                "twisted relation power")
            diff = scaled - rel_pow * LaurentPoly.monomial(xz, (0, 0, l))
            if not (diff.is_zero() or diff.degree_in("z") < l):
                failures.append(f"member {l}: degree drop fails")
            if not axis_map(q).is_constant():
                failures.append(f"member {l}: axis image is not a constant")
    except AlgebraError as exc:
        failures.append(f"family construction raised: {exc}")
    finish(4, "family members l = 1..8 with exact leading data", started,
           60.0, failures)


def test_criterion_5_decomposition_oracle():
    started = time.perf_counter()
    failures = []
    rng = random.Random(14005)
    datasets = [demo_resolved()]
    while len(datasets) < 8:
        datasets.append(random_pipeline_data(rng, max_gdeg=3, max_hdeg=2))
    checked = 0
    for rw in datasets:
        if rw.d > 3:
            failures.append(f"dataset degree {rw.d} out of range")
            break
        images = {"f": rw.f, "rel": rw.rel, "g": rw.g}
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                key = (rng.randint(0, 6), 0, rng.randint(-6, 6))
                terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            p = LaurentPoly(FG_VARS, terms)
            poly_part, tail = decompose(p, rw.ann)
            if not is_fg(poly_part):
                failures.append(f"polynomial part {poly_part} leaves k[f, g]")
                break
            if not (tail.is_zero() or is_negative_tail(tail, rw.d)):
                failures.append(f"tail {tail} is not reduced with negative "
                                "g-powers")
                break
            # the equality in k[f, g, 1/g], times g^K: g is nonzero, so
            # it holds iff the realized polynomials agree
            clear = LaurentPoly.monomial(FG_VARS, (0, 0, g_clearing(p, tail)))
            real = [(x * clear).subst(images) for x in (poly_part, tail, p)]
            if real[0] + real[1] != real[2]:
                failures.append("decomposition changes the realized value")
                break
            checked += 1
        if failures:
            break
    if not failures and checked != 200:
        failures.append(f"only {checked} elements checked")
    finish(5, "200 random splits k[f,g,1/g] = k[f,g] + N", started, 30.0,
           failures)


def test_criterion_6_automorphism_round_trips():
    started = time.perf_counter()
    failures = []
    rng = random.Random(14006)

    for trial in range(20):
        n = 2 + trial % 2
        vars = x_vars(n)
        weights = tuple(rng.randint(-10, 10) for _ in range(n - 1))
        h = random_univar(rng, vars, rng.randint(0, 5))
        theta = inversion_map(weights, h)
        inv = theta.inverse()
        # the round trips hold for any translation of z, so pin this one:
        # theta(z) - z = theta(h) = h(1/x1)
        z = LaurentPoly.variable(theta.vars, "z")
        if theta.image_of("z") - z != theta.apply(h.with_vars(theta.vars)):
            failures.append(f"trial {trial}: z is not translated by h(1/x1)")
        for name in theta.vars.names:
            coord = LaurentPoly.variable(theta.vars, name)
            if inv.apply(theta.image_of(name)) != coord:
                failures.append(f"trial {trial}: inverse misses {name}")
            if theta.apply(inv.image_of(name)) != coord:
                failures.append(f"trial {trial}: forward misses {name}")
        if failures:
            break

    for trial in range(50):
        n = 2 + trial % 2
        weights = tuple(rng.randint(-10, 10) for _ in range(n - 1))
        h = random_univar(rng, x_vars(n), rng.randint(0, 5))
        theta = inversion_map(weights, h)
        p = random_poly(rng, theta.vars, max_terms=6, exp_lo=-3, exp_hi=3)
        if axis_map(theta.apply(p)) != theta.apply(axis_map(p)):
            failures.append(f"trial {trial}: collapse and twist do not commute")
            break

    zero2 = LaurentPoly.zero(x_vars(2))
    x1_2 = LaurentPoly.variable(x_vars(2), "x1")
    x1_3 = LaurentPoly.variable(x_vars(3), "x1")
    x2_3 = LaurentPoly.variable(x_vars(3), "x2")
    derivations = [
        Derivation(n=2, images=(zero2, x1_2)),
        Derivation(n=3, images=(LaurentPoly.zero(x_vars(3)), x1_3, x2_3)),
    ]
    for D in derivations:
        coords = [LaurentPoly.variable(D.vars, name) for name in D.vars.names]
        iota = preslice_involution(find_preslice(D, coords))
        for name in iota.vars.names:
            coord = LaurentPoly.variable(iota.vars, name)
            if iota.apply(iota.image_of(name)) != coord:
                failures.append(f"involution moves {name}")
        for _ in range(10):
            p = random_poly(rng, iota.vars, max_terms=5, exp_lo=-2, exp_hi=3)
            if iota.apply(iota.apply(p)) != p:
                failures.append("involution squared moves a polynomial")
                break
    finish(6, "twist round-trips, collapse commutation, involution squares",
           started, 5.0, failures)


def poly_mutation_sites(obj):
    witness = obj["witness"]
    sites = [witness[k] for k in ("f", "g", "h", "f_expr", "g_expr") if k in witness]
    sites.extend(witness["Pi"])
    sites.append(obj["pi"])
    for entry in obj["entries"]:
        sites.append(entry["q"])
        sites.extend(entry["fvec"])
    return sites


def mutate_one_term(rng, site):
    terms = site["terms"]
    names = site.get("vars")
    width = len(names) if names is not None else 3
    laurent = set(site.get("laurent", ()))
    op = rng.choice(["coeff", "exp", "insert", "delete"]) if terms else "insert"
    if op == "coeff":
        item = rng.choice(terms)
        delta = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
        item["c"] = str(Fraction(item["c"]) + delta)
    elif op == "exp":
        item = rng.choice(terms)
        j = rng.randrange(width)
        new = item["e"][j] + rng.choice([-1, 1, 2])
        plain = (names is not None and names[j] not in laurent) or \
            (names is None and j < 2)
        if plain and new < 0:
            new = item["e"][j] + 1
        item["e"][j] = new
    elif op == "insert":
        taken = [t["e"] for t in terms]
        for _ in range(20):
            e = [rng.randint(0, 3) for _ in range(width)]
            if names is None:
                e[2] = rng.randint(-3, 3)
            if e not in taken:
                break
        else:
            e = [max(t["e"][0] for t in terms) + 1] + [0] * (width - 1)
        terms.append({"e": e, "c": str(Fraction(rng.choice([-2, 1, 1, 3])))})
    else:
        terms.pop(rng.randrange(len(terms)))


def test_criterion_7_certificate_mutation_resistance():
    started = time.perf_counter()
    failures = []
    rng = random.Random(14007)
    cert = build_certificate(invariant_witness_pack(SWAP), l_max=8)
    base = certificate_to_json(cert)
    if not verify_certificate(certificate_from_json(copy.deepcopy(base))).ok:
        failures.append("pristine certificate does not verify")

    def rejected(obj):
        try:
            report = verify_certificate(certificate_from_json(obj))
        except (FormatError, AlgebraError):
            return True
        return not report.ok

    survivors = 0
    attempts = 0
    for _ in range(110):
        mutated = copy.deepcopy(base)
        mutate_one_term(rng, rng.choice(poly_mutation_sites(mutated)))
        if mutated == base:
            continue
        attempts += 1
        if not rejected(mutated):
            survivors += 1

    def scalar(path, value):
        mutated = copy.deepcopy(base)
        target = mutated
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return mutated

    scalar_cases = [
        scalar(("d",), cert.d + 1),
        scalar(("e",), cert.clearing + 1),
        scalar(("e",), 10),
        scalar(("witness", "e"), 2),
        scalar(("witness", "t"), [4]),
        scalar(("witness", "t"), [6]),
        scalar(("witness", "n"), 3),
        scalar(("entries", 3, "l"), 7),
    ]
    for i, mutated in enumerate(scalar_cases):
        attempts += 1
        if not rejected(mutated):
            survivors += 1
            failures.append(f"scalar mutation {i} accepted")

    if attempts < 100:
        failures.append(f"only {attempts} effective mutations")
    if survivors:
        failures.append(f"{survivors} of {attempts} mutations accepted")
    finish(7, f"{attempts} single-field mutations all rejected", started,
           60.0, failures)
