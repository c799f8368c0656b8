"""Witness data and its decidable validity checks.

A witness pack carries generators of an invariant subring together with a
distinguished pair f, g.  This module derives everything the certificate
pipeline needs from that pair — the quotient h of the axis images, the
monic annihilator of eps(f) over k[eps(g)], the weight vector for the
inversion twist, and the clearing exponent — and runs the decidable parts
of the validity conditions: the semigroup of x1-orders of the collapsed
subring (non-normality evidence), non-membership of h in that subring, and
the polynomiality conditions on the twisted images.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .algebra import LaurentPoly, _exact_div, plain_vars, resultant, x_vars
from .errors import NotDivisible, NotInvertible, VariableMismatch, WitnessInvalid
from .maps import RingMap, axis_map
from .report import Report

#: the annihilator's variables: T, and G for the coefficients in k[G]
ANN_VARS = plain_vars("T", "G")

#: the least bound of the validation scan (see `scan_bound`)
SCAN_BOUND = 12


@dataclass
class WitnessPack:
    """Raw witness data; optional fields are resolved by validation."""

    n: int
    gens: list[LaurentPoly]
    f: LaurentPoly
    g: LaurentPoly
    h: LaurentPoly | None = None
    ann: LaurentPoly | None = None
    weights: tuple[int, ...] | None = None
    clearing: int | None = None
    f_expr: LaurentPoly | None = None
    g_expr: LaurentPoly | None = None


@dataclass
class Resolved:
    """A witness pack with every derived object computed and validated,
    all over x1..xn: `twist` is x1 -> 1/x1, xi -> x1^(t_i) * xi, the
    inversion on z-free data; z enters only as members are laid out."""

    n: int
    f: LaurentPoly
    g: LaurentPoly
    h: LaurentPoly
    ann: LaurentPoly
    rel: LaurentPoly
    d: int
    weights: tuple[int, ...]
    clearing: int
    twist: RingMap               # over x1..xn, no z and no shift


# ---------------------------------------------------------------------------
# axis data: h and the annihilator


def axis_quotient(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """The unique h in k[x1] with eps(f) = eps(g) * h, where eps collapses
    every variable except x1.  Rejects the pair when eps(g) = 0, an axis
    image has a negative power of x1, or the division leaves k[x1]."""
    ef, eg = axis_map(f), axis_map(g)
    if eg.is_zero():
        raise WitnessInvalid("axis image of g is zero")
    if not (ef.is_polynomial() and eg.is_polynomial()):
        raise WitnessInvalid("axis quotient has a pole at x1 = 0")
    plain = plain_vars(*f.vars.names)
    try:
        h = _exact_div(ef.with_vars(plain), eg.with_vars(plain))
    except NotDivisible:
        raise WitnessInvalid("axis image of g does not divide that of f") from None
    return h.with_vars(f.vars)


def monic_degree(ann: LaurentPoly) -> int | None:
    """The T-degree d of an annihilator over ANN_VARS whose T^d coefficient
    is 1, or None when it is not of that shape."""
    if ann.vars != ANN_VARS or ann.is_zero():
        return None
    d = ann.degree_in("T")
    top = [e for e in ann.terms if e[0] == d]
    return d if top == [(d, 0)] and ann.terms[(d, 0)] == 1 else None


def realize_annihilator(ann: LaurentPoly, f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Evaluate Ann at T -> f, G -> g: the relation element of the pair."""
    return ann.subst({"T": f, "G": g})


def build_annihilator(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Res_x1(T - eps(f), G - eps(g)) over its T^m coefficient, m = deg(eps(g)):
    a constant times the product of T - eps(f)(b) over the roots b of
    eps(g) = G, so monic of degree m in T over ANN_VARS and zero at
    (eps(f), eps(g)); `validate_pack` checks it as it checks a stored one.
    Requires eps(g) to be nonconstant."""
    ef, eg = axis_map(f), axis_map(g)
    m = eg.degree_in("x1") if eg else 0
    if m < 1:
        raise WitnessInvalid("axis image of g is constant; no annihilator")
    xtg = plain_vars("x1", "T", "G")
    res = resultant(LaurentPoly.variable(xtg, "T") - ef.with_vars(xtg),
                    LaurentPoly.variable(xtg, "G") - eg.with_vars(xtg), "x1")
    res = res.with_vars(ANN_VARS)
    return res / res.terms[(m, 0)]


# ---------------------------------------------------------------------------
# the semigroup of x1-orders of a collapsed subring


@dataclass(frozen=True)
class SemigroupTable:
    """The echelon that spans a collapsed subring's truncated image mod
    x1^(bound+1): {pivot: primitive integer row}, pivot = lowest exponent.
    Its pivots are the subring's x1-orders up to `bound`."""

    bound: int
    echelon: dict[int, dict[int, int]]

    @property
    def orders(self) -> frozenset[int]:
        return frozenset(self.echelon)

    def sorted_orders(self) -> list[int]:
        return sorted(self.echelon)


def _content_free(v: dict[int, int], lead) -> dict[int, int]:
    """The nonzero integer row v over its content, signed so that its entry
    at the `lead` of its exponents is positive."""
    g = gcd(*v.values())
    if v[lead(v)] < 0:
        g = -g
    return {k: a // g for k, a in v.items()} if g != 1 else v


def _primitive(u: dict[int, Fraction]) -> dict[int, int]:
    """The nonzero row u as the integer row on its Q-line with coprime
    entries and a positive entry at its highest exponent."""
    den = lcm(*(c.denominator for c in u.values()))
    return _content_free({k: c.numerator * (den // c.denominator)
                          for k, c in u.items()}, max)


def generator_rows(gens: Sequence[LaurentPoly]) -> list[dict[int, int]]:
    """The one reading of the generators that `scan_bound` and the scan
    take: each generator's axis image (its terms free of x2..xn, x1 being
    its first variable) without its constant part, as a primitive integer
    row {x1-exponent: coefficient}; one row per Q-line, and none for a
    generator whose image is constant."""
    rows: dict[frozenset, dict[int, int]] = {}
    for gen in gens:
        u = {e[0]: c for e, c in gen.terms.items() if e[0] and not any(e[1:])}
        if u:
            if min(u) < 0:
                raise WitnessInvalid("generator has a pole at x1 = 0")
            u = _primitive(u)
            rows[frozenset(u.items())] = u
    return list(rows.values())


def _mul_trunc(u: dict[int, int], v: dict[int, int], bound: int) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    for a, ca in u.items():
        for b, cb in v.items():
            k = a + b
            if k <= bound:
                out[k] = get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _reduce(v: dict[int, int], rows: dict[int, dict[int, int]]) -> dict[int, int]:
    """Reduce the integer row v in place against sparse echelon rows of
    primitive integers, each keyed by its pivot (its lowest exponent),
    fraction-free: v <- b*v - a*row, with a and b the pivot entries of v
    and the row over their gcd.  Return the remainder, a nonzero multiple
    of the one over Q, empty when v lies in the rows' span."""
    while v:
        p = min(v)
        row = rows.get(p)
        if row is None:
            break
        a, b = v[p], row[p]
        g = gcd(a, b)
        a, b = a // g, b // g
        if b != 1:
            for k in v:
                v[k] *= b
        for k, r in row.items():
            s = v.get(k, 0) - a * r
            if s:
                v[k] = s
            else:
                del v[k]
    return v


def _add_row(v: dict[int, int], rows: dict[int, dict[int, int]]) -> dict[int, int] | None:
    """Insert the remainder of the integer row v, divided by its content,
    as a new row; return it, or None if v lies in the span of the rows
    already there."""
    v = _reduce(v, rows)
    if not v:
        return None
    rows[min(v)] = row = _content_free(v, min)
    return row


def semigroup_orders(rows: Sequence[dict[int, int]], bound: int) -> SemigroupTable:
    """All x1-orders realized by the subalgebra of k[x1] that the generator
    rows (`generator_rows`) generate, up to the bound.  Truncation mod
    x1^(bound+1) is a ring map, so the space computed is the truncated image
    of that algebra: the closure of span{1} under multiplication by each
    row, built as a sparse row echelon form of primitive integer rows with
    pivot = lowest exponent; each row spans the Q-line of the row over Q,
    so the answer stays exact.  The orders are its pivots, and the table
    keeps the echelon for `subalgebra_member`."""
    if rows and bound < max(max(u) for u in rows):
        raise WitnessInvalid(
            f"semigroup bound {bound} is below a generator degree"
        )
    echelon: dict[int, dict[int, int]] = {}
    fresh = [_add_row({0: 1}, echelon)] if bound >= 0 else []
    while fresh:
        row = fresh.pop()
        for u in rows:
            new = _add_row(_mul_trunc(row, u, bound), echelon)
            if new is not None:
                fresh.append(new)
    return SemigroupTable(bound=bound, echelon=echelon)


def is_normal(table: SemigroupTable) -> bool:
    """Decide, from the order data up to the bound, whether the collapsed
    subring could be normal: a normal one realizes exactly the multiples of
    its minimal positive order.  A False answer is a proof of non-normality;
    True only means normality was not refuted below the bound."""
    nonzero = [o for o in table.sorted_orders() if o > 0]
    if not nonzero:
        return True
    m = nonzero[0]
    if table.bound < 2 * m:
        raise WitnessInvalid(
            f"bound {table.bound} too small to probe normality (need >= {2 * m})"
        )
    expected = set(range(0, table.bound + 1, m))
    return table.orders == expected


def subalgebra_member(h: LaurentPoly, table: SemigroupTable) -> bool:
    """Could h lie in the collapsed subring whose table `semigroup_orders`
    built?  h is truncated mod x1^(bound+1) and reduced against the table's
    echelon, which spans the subring's truncated image.  Truncation is a
    ring map, so False is a proof that h is not in the subring; True only
    means that h agrees with one of its elements up to x1^bound."""
    if any(any(e[1:]) for e in h.terms):
        raise VariableMismatch(f"{h} involves a variable other than 'x1'")
    hu = {e[0]: c for e, c in h.terms.items()}
    if min(hu, default=0) < 0:
        raise WitnessInvalid("membership candidate has a pole at x1 = 0")
    hu = {k: c for k, c in hu.items() if k <= table.bound}
    return not hu or not _reduce(_primitive(hu), table.echelon)


def scan_bound(rows: Sequence[dict[int, int]], h: LaurentPoly) -> int:
    """The one bound B of the scan, worked out from the pack: the least
    B >= SCAN_BOUND that is at least every generator degree
    (`semigroup_orders`), twice the least positive order of a generator,
    which is that of k[gens] (`is_normal`), and deg h, so that
    `subalgebra_member` compares h whole; the first two are read off the
    exponents of the generator rows."""
    return max(SCAN_BOUND, h.degree_in("x1") if h else 0,
               max((max(u) for u in rows), default=0),
               2 * min((min(u) for u in rows), default=0))


# ---------------------------------------------------------------------------
# twist conditions


def _offending_term(p: LaurentPoly, need_x1: int) -> str:
    for e in sorted(p.terms):
        if any(k < 0 for k in e) or e[0] < need_x1:
            return f"{p.terms[e]}*{p._format_monomial(e) or '1'}"
    return ""


def check_twist(twist: RingMap, fgh: LaurentPoly, rel: LaurentPoly) -> str:
    """The two polynomiality conditions on the twisted data: the image of
    fgh = f - g*h must be a polynomial, and the image of the relation
    element must be a polynomial divisible by x1.  Returns "" when both
    hold, else the first failing condition with its offending term."""
    a = twist.apply(fgh)
    if not a.is_polynomial():
        return f"twist(f - g*h) term {_offending_term(a, 0)}"
    b = twist.apply(rel)
    if b.is_zero() or not b.is_polynomial() or b.order_in("x1") < 1:
        return f"twist(relation) term {_offending_term(b, 1)}"
    return ""


def choose_weights(fgh: LaurentPoly, rel: LaurentPoly) -> tuple[int, ...]:
    """The uniform weight vector t_i = 1 + max(deg_x1(fgh), deg_x1(rel), 0)
    for fgh = f - g*h.

    Both fgh and rel must vanish under the axis substitution; then every
    term of either contains some xi (i >= 2), so the chosen weight pushes
    every twisted term into x1 * k[x].  `validate_pack` checks the twist
    conditions on these weights.
    """
    if not axis_map(fgh).is_zero():
        raise WitnessInvalid("f - g*h does not vanish on the axis")
    if rel.is_zero() or not axis_map(rel).is_zero():
        raise WitnessInvalid("relation element must be nonzero and vanish on the axis")
    t = 1 + max(rel.degree_in("x1"), fgh.degree_in("x1") if fgh else 0, 0)
    return (t,) * (len(fgh.vars) - 1)


def clearing_exponent(twist: RingMap, rel: LaurentPoly, f: LaurentPoly, d: int) -> int:
    """The least e >= 1 with op*e + of*i >= 0 for all 0 <= i < d, where op >= 1
    and of are the x1-orders of twist(rel) and twist(f): i = d - 1 binds, so
    it is max(1, ceil(-min(0, (d-1)*of) / op)), or 1 when d = 0."""
    if rel.is_zero():
        raise WitnessInvalid("twisted relation element is zero")
    op = twist.apply(rel).order_in("x1")
    if op < 1:
        raise WitnessInvalid("twisted relation element is not divisible by x1")
    of = twist.apply(f).order_in("x1") if not f.is_zero() else 0
    return max(1, -(min(0, (d - 1) * of) // op)) if d else 1


# ---------------------------------------------------------------------------
# full pack validation


def _expr_value(expr: LaurentPoly, gens: Sequence[LaurentPoly]) -> LaurentPoly:
    """Evaluate an expression in formal generator variables u0,u1,... at the
    actual generators."""
    if len(expr.vars) != len(gens):
        raise WitnessInvalid("expression arity does not match the generators")
    images = {name: gen for name, gen in zip(expr.vars.names, gens)}
    return expr.subst(images)


def _require(ok, message: str) -> None:
    if not ok:
        raise WitnessInvalid(message)


class _Line:
    """One stage of `validate_pack`: a `with` block that adds its report
    line, passing with the `detail` the block sets, or failing with the
    message of the WitnessInvalid the block raises, which goes on up."""

    def __init__(self, rep: Report, name: str):
        self.rep, self.name, self.detail = rep, name, ""

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is None:
            self.rep.add(self.name, True, self.detail)
        elif issubclass(kind, WitnessInvalid):
            self.rep.add(self.name, False, str(exc))


def validate_pack(pack: WitnessPack) -> tuple[Resolved | None, Report]:
    """Run every decidable check on a pack and resolve its derived fields.

    Returns (resolved, report); `resolved` is None when a check fails.
    Checks appear in a stable order so reports can be compared verbatim.
    Each stage adds one line, and the first failing one ends validation,
    except that the last two lines always both run.  They read one table
    of `semigroup_orders`, built once from the generator rows to the bound
    `scan_bound` works out from the pack, so the report depends on the
    pack alone.
    """
    rep = Report()
    try:
        with _Line(rep, "pack-shape") as line:
            vars = x_vars(pack.n) if 2 <= pack.n == len(pack.f.vars) else None
            line.detail = f"n={pack.n}, {len(pack.gens)} generators"
            _require(vars is not None and pack.gens and all(
                p.vars == vars for p in (pack.f, pack.g, *pack.gens)), line.detail)

        with _Line(rep, "f-g-polynomial"):
            _require(pack.f and pack.g and all(
                p.is_polynomial() for p in (pack.f, pack.g, *pack.gens)), "")

        if pack.f_expr is not None or pack.g_expr is not None:
            with _Line(rep, "generator-expressions"):
                try:
                    same = all(expr is None or _expr_value(expr, pack.gens) == value
                               for expr, value in ((pack.f_expr, pack.f),
                                                   (pack.g_expr, pack.g)))
                except (VariableMismatch, NotInvertible) as exc:
                    raise WitnessInvalid(str(exc)) from None
                _require(same, "")

        with _Line(rep, "axis-image-of-g") as line:
            eg = axis_map(pack.g)
            line.detail = f"eps(g) = {eg}"
            _require(not eg.is_constant(), line.detail)

        with _Line(rep, "axis-quotient") as line:
            h = axis_quotient(pack.f, pack.g)
            try:
                same = pack.h is None or pack.h.with_vars(vars) == h
            except VariableMismatch:            # a stored h over other variables
                same = False
            _require(same, "stored h disagrees with eps(f)/eps(g)")
            line.detail = f"h = {h}"

        with _Line(rep, "annihilator") as line:
            ann = build_annihilator(pack.f, pack.g) if pack.ann is None else pack.ann
            d = monic_degree(ann)
            _require(d is not None, "stored annihilator is not monic over k[G]")
            _require(d == eg.degree_in("x1"),
                     "stored annihilator degree differs from deg eps(g)")
            _require(realize_annihilator(ann, axis_map(pack.f), eg).is_zero(),
                     "stored annihilator does not annihilate eps(f)")
            line.detail = f"degree {d}"

        with _Line(rep, "relation-nonzero"):
            rel = realize_annihilator(ann, pack.f, pack.g)
            _require(not rel.is_zero(), "Ann(f) vanishes identically; pair rejected")

        with _Line(rep, "weights-twist") as line:
            fgh = pack.f - pack.g * h
            weights = (choose_weights(fgh, rel) if pack.weights is None
                       else tuple(int(w) for w in pack.weights))
            _require(len(weights) == pack.n - 1,
                     f"weight vector must have length {pack.n - 1}")
            twist = RingMap(vars, "x1", (0, *weights))
            failing = check_twist(twist, fgh, rel)
            _require(not failing, failing)
            line.detail = f"t = {list(weights)}"

        with _Line(rep, "clearing-exponent") as line:
            e_min = clearing_exponent(twist, rel, pack.f, d)
            e = e_min if pack.clearing is None else int(pack.clearing)
            _require(e >= e_min, f"stored clearing exponent {e} violates the order "
                                 f"conditions (minimum is {e_min})")
            _require(e == e_min, f"stored clearing exponent {e} exceeds the minimum {e_min}")
            line.detail = f"e = {e} (minimum {e_min})"
    except WitnessInvalid:
        return None, rep

    rows = generator_rows(pack.gens)
    table = semigroup_orders(rows, scan_bound(rows, h))
    with suppress(WitnessInvalid), _Line(rep, "semigroup-non-normal") as line:
        line.detail = f"orders up to {table.bound}: {table.sorted_orders()}"
        _require(not is_normal(table), line.detail)
    with suppress(WitnessInvalid), _Line(rep, "quotient-outside-subring") as line:
        _require(not subalgebra_member(h, table), "h agrees with an element of the "
                 f"collapsed subring modulo x1^{table.bound + 1}")
        line.detail = f"h not spanned by generator monomials up to degree {table.bound}"
    if not rep.ok:
        return None, rep
    return Resolved(n=pack.n, f=pack.f, g=pack.g, h=h, ann=ann, rel=rel, d=d,
                    weights=weights, clearing=e, twist=twist), rep


def resolve_pack_fields(pack: WitnessPack, resolved: Resolved) -> WitnessPack:
    """A copy of the pack with every derived field filled in."""
    return replace(pack, h=resolved.h, ann=resolved.ann,
                   weights=resolved.weights, clearing=resolved.clearing)
