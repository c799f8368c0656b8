"""Shared helpers for the test suite: seeded random data and independent
oracles (naive Sylvester determinant, rational-function realization)."""

from fractions import Fraction

from h14cert import (
    FGPoly,
    LaurentPoly,
    RatFunc,
    Resolved,
    WitnessInvalid,
    axis_quotient,
    build_annihilator,
    choose_weights,
    clearing_exponent,
    from_univar,
    inversion_map,
    realize_annihilator,
    x_vars,
)


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


def random_univar(rng, vars, degree, nonzero_lead=True):
    coeffs = {k: random_fraction(rng) for k in range(degree + 1)}
    if nonzero_lead:
        while coeffs[degree] == 0:
            coeffs[degree] = random_fraction(rng)
    return from_univar(vars, "x1", {k: c for k, c in coeffs.items() if c})


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


def fg_realize_oracle(p: FGPoly, f, g, rel) -> RatFunc:
    """Term-by-term realization with RatFunc arithmetic only (no shared
    clearing denominator; independent of family.realize)."""
    total = RatFunc.from_poly(LaurentPoly.zero(f.vars))
    rf_f = RatFunc.from_poly(f)
    rf_g = RatFunc.from_poly(g)
    rf_rel = RatFunc.from_poly(rel)
    for (a, b, m), c in p.terms.items():
        term = RatFunc.from_poly(LaurentPoly.const(f.vars, c))
        if a:
            term = term * rf_f ** a
        if b:
            term = term * rf_rel ** b
        if m:
            term = term * rf_g ** m
        total = total + term
    return total


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
            twist = inversion_map(weights, h)
            e = clearing_exponent(twist, rel, f, ann.degree)
        except WitnessInvalid:
            continue
        return Resolved(n=n, f=f, g=g, h=h, ann=ann, rel=rel, d=ann.degree,
                        weights=weights, clearing=e, twist=twist)
