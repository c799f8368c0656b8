"""Shared helpers for the test suite: seeded random data, shape tests on
tails, the benchmark's groups, and independent oracles (the per-pair
product, naive Sylvester determinant, the unskipped Bareiss elimination,
the Fraction-row scans, pack validation as one hand-written block per
check over them, orbit sums by substitution, realization of an element of
k[f, rel, g, 1/g] times a clearing power of g)."""

import importlib.util
import sys
from fractions import Fraction
from itertools import product
from operator import add
from pathlib import Path

from h14cert import (
    LaurentPoly,
    Report,
    Resolved,
    RingMap,
    VariableMismatch,
    WitnessInvalid,
    axis_map,
    axis_quotient,
    build_annihilator,
    check_twist,
    choose_weights,
    clearing_exponent,
    inversion_map,
    realize_annihilator,
    x_vars,
)
from h14cert.algebra import _exact_div
from h14cert.family import FG_VARS
from h14cert.witness import SCAN_BOUND, monic_degree


def random_fraction(rng, max_num=9, max_den=4):
    num = rng.randint(-max_num, max_num)
    den = rng.randint(1, max_den)
    return Fraction(num, den)


def random_poly(rng, vars, max_terms=5, exp_lo=0, exp_hi=3):
    """Random polynomial; negative exponents only on Laurent-flagged slots."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = []
        for flag in vars.laurent:
            lo = exp_lo if flag else max(exp_lo, 0)
            exps.append(rng.randint(lo, exp_hi))
        c = random_fraction(rng)
        if c:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + c
    return LaurentPoly(vars, terms)


def random_nonzero_poly(rng, vars, **kw):
    while True:
        p = random_poly(rng, vars, **kw)
        if not p.is_zero():
            return p


def reference_product(p, q):
    """p * q by the per-pair convolution: one tuple sum and one Fraction
    product per pair of terms, terms in order of first appearance."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return LaurentPoly(p.vars, {e: c for e, c in out.items() if c}, _clean=False)


def reference_deriv(p, name):
    """d/d(name) of p with one Fraction product c * k per term."""
    i = p.vars.index(name)
    return LaurentPoly(p.vars, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                                for e, c in p.terms.items() if e[i]}, _clean=False)


def univar(vars, coeffs):
    """The polynomial sum of c * x1^k over {k: c}; x1 is the first of
    `vars`."""
    rest = (0,) * (len(vars) - 1)
    return LaurentPoly(vars, {(k,) + rest: c for k, c in coeffs.items()})


def univar_coeffs(p):
    """{k: c} of a polynomial in x1 alone, x1 being its first variable."""
    assert not any(any(e[1:]) for e in p.terms), p
    return {e[0]: c for e, c in p.terms.items()}


def random_univar(rng, vars, degree, nonzero_lead=True):
    coeffs = {k: random_fraction(rng) for k in range(degree + 1)}
    if nonzero_lead:
        while coeffs[degree] == 0:
            coeffs[degree] = random_fraction(rng)
    return univar(vars, {k: c for k, c in coeffs.items() if c})


def naive_determinant(matrix):
    """Minor expansion along the first remaining row, memoized on column
    sets — an oracle independent of the fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    memo = {}

    def minor(row, cols):
        if len(cols) == 1:
            return matrix[row][cols[0]]
        got = memo.get((row, cols))
        if got is not None:
            return got
        total = None
        sign = 1
        for k, col in enumerate(cols):
            entry = matrix[row][col]
            if not entry.is_zero():
                rest = cols[:k] + cols[k + 1:]
                piece = entry * minor(row + 1, rest)
                piece = piece if sign == 1 else -piece
                total = piece if total is None else total + piece
            sign = -sign
        if total is None:
            total = LaurentPoly.zero(matrix[row][cols[0]].vars)
        memo[(row, cols)] = total
        return total

    return minor(0, tuple(range(n)))


def reference_determinant(matrix, vars):
    """Bareiss one-step elimination computing every product and every
    exact division, zero or not."""
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one(vars)
    a = [row[:] for row in matrix]
    sign = 1
    prev = LaurentPoly.one(vars)
    for k in range(n - 1):
        if a[k][k].is_zero():
            for r in range(k + 1, n):
                if not a[r][k].is_zero():
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero(vars)
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * pivot - a[i][k] * a[k][j]
                a[i][j] = _exact_div(num, prev)
            a[i][k] = LaurentPoly.zero(vars)
        prev = pivot
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


# -- orbit sums by one substitution per orbit ------------------------------


def perfbench_module(name):
    """The module perfbench/<name>.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def benchmark_workloads():
    """The module perfbench/workloads.py: the benchmark's groups, workloads
    and pack writer."""
    return perfbench_module("workloads")


def benchmark_groups():
    """{name: (n, generators)} of the benchmark's packs."""
    return benchmark_workloads().GROUPS


def reference_orbit_sum(group, exps):
    """The orbit sum of y^exps, written as the formal sum over the orbit and
    substituted into y1 = x1, y2 = x2 - x1 + x1^2, y_i = x_i (i >= 3)."""
    vars = x_vars(group.n)
    formal = LaurentPoly(vars, {e: Fraction(1) for e in group.orbit(exps)})
    coords = {name: LaurentPoly.variable(vars, name) for name in vars.names}
    x1 = coords["x1"]
    coords["x2"] = coords["x2"] - x1 + x1 ** 2
    return formal.subst(coords)


def reference_invariant_generators(group, max_degree):
    """One reference orbit sum per orbit of the monomials of degree
    1..max_degree, by degree, then by descending exponents; an orbit is
    taken at its lex-largest point."""
    gens = []
    for degree in range(1, max_degree + 1):
        monomials = sorted((e for e in product(range(degree + 1), repeat=group.n)
                            if sum(e) == degree), reverse=True)
        for exps in monomials:
            if exps == max(group.orbit(exps)):
                gens.append(reference_orbit_sum(group, exps))
    return gens


# -- the order-semigroup and membership scans over Fraction rows ----------


def _reference_univar(p, what):
    if any(any(e[1:]) for e in p.terms):
        raise VariableMismatch(f"{p} involves a variable other than 'x1'")
    u = {e[0]: c for e, c in p.terms.items()}
    if min(u, default=0) < 0:
        raise WitnessInvalid(f"{what} has a pole at x1 = 0")
    return u


def _reference_units(gens):
    """The axis images of the generators (their terms free of x2..xn)
    without constant parts, one per distinct row."""
    units = {}
    for gen in gens:
        u = {e[0]: c for e, c in gen.terms.items() if not any(e[1:])}
        if min(u, default=0) < 0:
            raise WitnessInvalid("generator has a pole at x1 = 0")
        u.pop(0, None)
        if u:
            units[frozenset(u.items())] = u
    return list(units.values())


def _reference_mul_trunc(u, v, bound):
    out = {}
    for a, ca in u.items():
        for b, cb in v.items():
            k = a + b
            if k > bound:
                continue
            s = out.get(k, Fraction(0)) + ca * cb
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _reference_reduce(v, rows, lead):
    """Reduce v against echelon rows with coefficient 1 at their pivot."""
    while v:
        p = lead(v)
        row = rows.get(p)
        if row is None:
            break
        c = v[p]
        for k, r in row.items():
            s = v.get(k, 0) - c * r
            if s:
                v[k] = s
            else:
                del v[k]
    return v


def _reference_add_row(v, rows, lead):
    v = _reference_reduce(v, rows, lead)
    if not v:
        return None
    p = lead(v)
    c = v[p]
    rows[p] = row = {k: a / c for k, a in v.items()}
    return row


def reference_semigroup_orders(gens, bound):
    """`semigroup_orders` of `generator_rows(gens)` over rows of Fractions
    with pivot coefficient 1, the same guards raising the same messages:
    the bound and the orders, the pivots of those rows."""
    units = _reference_units(gens)
    if units and bound < max(max(u) for u in units):
        raise WitnessInvalid(
            f"semigroup bound {bound} is below a generator degree"
        )
    rows = {}
    fresh = [_reference_add_row({0: Fraction(1)}, rows, min)] if bound >= 0 else []
    while fresh:
        row = fresh.pop()
        for u in units:
            new = _reference_add_row(_reference_mul_trunc(row, u, bound), rows, min)
            if new is not None:
                fresh.append(new)
    return bound, frozenset(rows)


def reference_subalgebra_member(h, gens, bound):
    """`subalgebra_member` of h over `generator_rows(gens)` over rows of
    Fractions with pivot coefficient 1, the same guards raising the same
    messages (the generators are read first)."""
    units = [(max(u), u) for u in _reference_units(gens)]
    hu = _reference_univar(h, "membership candidate")
    if hu and max(hu) > bound:
        raise WitnessInvalid(f"candidate degree exceeds the bound {bound}")
    rows = {}
    levels = [[_reference_add_row({0: Fraction(1)}, rows, max)]]
    for d in range(1, bound + 1):
        level = []
        for deg, u in units:
            for row in levels[d - deg] if deg <= d else ():
                new = _reference_add_row(_reference_mul_trunc(row, u, bound), rows, max)
                if new is not None:
                    level.append(new)
        levels.append(level)
    return not _reference_reduce(hu, rows, max)


# -- pack validation, one hand-written block per check ---------------------


def _reference_expr_value(expr, gens):
    if len(expr.vars) != len(gens):
        raise WitnessInvalid("expression arity does not match the generators")
    return expr.subst({name: gen for name, gen in zip(expr.vars.names, gens)})


def reference_validate_pack(pack):
    """`validate_pack` as one hand-written try/compute/add-line block per
    check, each followed by its own early return, over a list of axis
    images that both reference scans read on their own.  A stored h over
    other variables, an empty stored Pi and an f_expr that needs the
    inverse of a generator raise an AlgebraError here (VariableMismatch,
    ZeroInput, NotInvertible) instead of failing their lines."""
    rep = Report()
    vars = x_vars(pack.n) if 2 <= pack.n == len(pack.f.vars) else None
    shape_ok = (
        vars is not None
        and len(pack.gens) >= 1
        and pack.f.vars == vars
        and pack.g.vars == vars
        and all(gen.vars == vars for gen in pack.gens)
    )
    rep.add("pack-shape", shape_ok, f"n={pack.n}, {len(pack.gens)} generators")
    if not shape_ok:
        return None, rep

    poly_ok = (pack.f.is_polynomial() and not pack.f.is_zero()
               and pack.g.is_polynomial() and not pack.g.is_zero()
               and all(gen.is_polynomial() for gen in pack.gens))
    rep.add("f-g-polynomial", poly_ok)
    if not poly_ok:
        return None, rep

    if pack.f_expr is not None or pack.g_expr is not None:
        try:
            expr_ok = (pack.f_expr is None
                       or _reference_expr_value(pack.f_expr, pack.gens) == pack.f) and \
                      (pack.g_expr is None
                       or _reference_expr_value(pack.g_expr, pack.gens) == pack.g)
            detail = ""
        except (WitnessInvalid, VariableMismatch) as exc:
            expr_ok, detail = False, str(exc)
        rep.add("generator-expressions", expr_ok, detail)
        if not expr_ok:
            return None, rep

    eg = axis_map(pack.g)
    eg_ok = not eg.is_zero() and not eg.is_constant()
    rep.add("axis-image-of-g", eg_ok, f"eps(g) = {eg}")
    if not eg_ok:
        return None, rep

    try:
        h = axis_quotient(pack.f, pack.g)
        h_ok, h_note = True, f"h = {h}"
        if pack.h is not None and pack.h.with_vars(vars) != h:
            h_ok, h_note = False, "stored h disagrees with eps(f)/eps(g)"
    except WitnessInvalid as exc:
        h, h_ok, h_note = None, False, str(exc)
    rep.add("axis-quotient", h_ok, h_note)
    if not h_ok:
        return None, rep

    try:
        if pack.ann is not None:
            ann = pack.ann
            d = ann.degree_in("T")
            if monic_degree(ann) is None:
                raise WitnessInvalid("stored annihilator is not monic over k[G]")
            if d != eg.degree_in("x1"):
                raise WitnessInvalid("stored annihilator degree differs from deg eps(g)")
            if not realize_annihilator(ann, axis_map(pack.f), eg).is_zero():
                raise WitnessInvalid("stored annihilator does not annihilate eps(f)")
        else:
            ann = build_annihilator(pack.f, pack.g)
            d = ann.degree_in("T")
        ann_ok, ann_note = True, f"degree {d}"
    except WitnessInvalid as exc:
        ann, d, ann_ok, ann_note = None, None, False, str(exc)
    rep.add("annihilator", ann_ok, ann_note)
    if not ann_ok:
        return None, rep

    rel = realize_annihilator(ann, pack.f, pack.g)
    rel_ok = not rel.is_zero()
    rep.add("relation-nonzero", rel_ok,
            "" if rel_ok else "Ann(f) vanishes identically; pair rejected")
    if not rel_ok:
        return None, rep

    kernel_ok = axis_map(pack.f - pack.g * h).is_zero() and axis_map(rel).is_zero()
    rep.add("kernel-membership", kernel_ok,
            "f - g*h and the relation element vanish on the axis")
    if not kernel_ok:
        return None, rep

    try:
        if pack.weights is not None:
            weights = tuple(int(w) for w in pack.weights)
        else:
            weights = choose_weights(pack.f, pack.g, h, rel)
        if len(weights) != pack.n - 1:
            raise WitnessInvalid(f"weight vector must have length {pack.n - 1}")
        twist = RingMap(x_vars(pack.n), "x1", (0, *weights))
        failing = check_twist(twist, pack.f, pack.g, h, rel)
        w_ok = not failing
        w_note = failing or f"t = {list(weights)}"
    except WitnessInvalid as exc:
        weights, twist, w_ok, w_note = None, None, False, str(exc)
    rep.add("weights-twist", w_ok, w_note)
    if not w_ok:
        return None, rep

    try:
        e_min = clearing_exponent(twist, rel, pack.f, d)
        if pack.clearing is not None:
            e = int(pack.clearing)
            if e < e_min:
                raise WitnessInvalid(
                    f"stored clearing exponent {e} violates the order conditions "
                    f"(minimum is {e_min})"
                )
            if e > e_min:
                raise WitnessInvalid(f"stored clearing exponent {e} exceeds the minimum {e_min}")
        else:
            e = e_min
        e_ok, e_note = True, f"e = {e} (minimum {e_min})"
    except WitnessInvalid as exc:
        e, e_ok, e_note = None, False, str(exc)
    rep.add("clearing-exponent", e_ok, e_note)
    if not e_ok:
        return None, rep

    axis_gens = [axis_map(gen) for gen in pack.gens]
    degs = [e[0] for gen in axis_gens for e in gen.terms if e[0] > 0]
    bound = max(SCAN_BOUND, h.degree_in("x1") if h else 0,
                max(degs, default=0), 2 * min(degs, default=0))
    try:
        _, orders = reference_semigroup_orders(axis_gens, bound)
        # bound >= 2 * min(degs), and min(degs) is the least positive order
        least = min(orders - {0}, default=0)
        nonnormal = bool(least) and orders != set(range(0, bound + 1, least))
        sg_note = f"orders up to {bound}: {sorted(orders)}"
    except WitnessInvalid as exc:
        nonnormal, sg_note = False, str(exc)
    rep.add("semigroup-non-normal", nonnormal, sg_note)

    try:
        outside = not reference_subalgebra_member(h, axis_gens, bound)
        mem_note = f"h not spanned by generator monomials up to degree {bound}"
        if not outside:
            mem_note = f"h agrees with an element of the collapsed subring modulo x1^{bound + 1}"
    except WitnessInvalid as exc:
        outside, mem_note = False, str(exc)
    rep.add("quotient-outside-subring", outside, mem_note)

    if not rep.ok:
        return None, rep
    return Resolved(n=pack.n, f=pack.f, g=pack.g, h=h, ann=ann, rel=rel, d=d,
                    weights=weights, clearing=e, twist=twist), rep


# -- tails in k[f, rel, g, 1/g] and random pipeline data -------------------


def g_clearing(*ps) -> int:
    """The least K >= 0 for which every p * g^K over FG_VARS has only
    nonnegative g-powers."""
    return max([0] + [-m for p in ps for (_, _, m) in p.terms])


def fg_realize_oracle(p: LaurentPoly, f, g, rel, k: int) -> LaurentPoly:
    """The polynomial p * g^k with f, rel and g substituted by a plain
    `subst`.  Identities in k[f, rel, g, 1/g] are compared through it with
    one k for both sides."""
    cleared = p * LaurentPoly.monomial(FG_VARS, (0, 0, k))
    return cleared.subst({"f": f, "rel": rel, "g": g})


def is_negative_tail(p: LaurentPoly, d: int) -> bool:
    """True when reduced (f-degree < d) with only negative g-powers."""
    return all(a < d and m < 0 for (a, _, m) in p.terms)


def max_f_exponent(p: LaurentPoly) -> int:
    return max((a for (a, _, _) in p.terms), default=-1)


def theta_over_xz(rw):
    """The paper's inversion theta over x1..xn, z for resolved data (z ->
    z + h(1/x1)), with f, g, h and rel over its variables: the route of
    the tests that move z, against which the pipeline's z-free twist and
    its z-free blocks are compared."""
    theta = inversion_map(rw.weights, rw.h)
    return (theta, *(p.with_vars(theta.vars) for p in (rw.f, rw.g, rw.h, rw.rel)))


def random_pipeline_data(rng, n=2, max_gdeg=2, max_hdeg=2):
    """Random data on which every derived construction is well defined:
    pick the axis images first (so divisibility holds by construction),
    then lift with terms that vanish on the axis.  The invariant-ring
    evidence checks are irrelevant here, so the Resolved record is built
    from the individual public operations."""
    vars = x_vars(n)
    while True:
        gdeg = rng.randint(1, max_gdeg)
        g_axis = random_univar(rng, vars, gdeg)
        hdeg = rng.randint(0, max_hdeg)
        h_axis = random_univar(rng, vars, hdeg)
        x2 = LaurentPoly.variable(vars, "x2")
        f = g_axis * h_axis + x2 * random_poly(rng, vars, max_terms=2, exp_hi=2)
        g = g_axis + x2 * random_poly(rng, vars, max_terms=2, exp_hi=2)
        if f.is_zero() or g.is_zero() or not f.is_polynomial() or not g.is_polynomial():
            continue
        try:
            h = axis_quotient(f, g)
            ann = build_annihilator(f, g)
            rel = realize_annihilator(ann, f, g)
            if rel.is_zero():
                continue
            weights = choose_weights(f, g, h, rel)
            twist = RingMap(vars, "x1", (0, *weights))
            e = clearing_exponent(twist, rel, f, ann.degree_in("T"))
        except WitnessInvalid:
            continue
        return Resolved(n=n, f=f, g=g, h=h, ann=ann, rel=rel, d=ann.degree_in("T"),
                        weights=weights, clearing=e, twist=twist)
