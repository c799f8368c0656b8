"""The certified polynomial family and its certificates.

Everything here works inside the localized algebra generated by a pair
f, g, their relation element rel = Ann(f)|_{G=g}, and 1/g.  Elements are
kept symbolically as Laurent polynomials over FG_VARS, whose term (a, b, m)
stands for f^a * rel^b * g^m; the monic annihilator gives the rewriting
rule

    f^d  =  rel - sum_{s<d} c_s(g) * f^s  =  rel - (Pi(f, g) - f^d)

which normalizes every element to f-degree < d.  The rule is applied by
kernel products with Pi(f, g) = `realize_annihilator(ann, f, g)`, and
rel is expanded back by Horner's rule in Pi(f, g).  On top of that sit:

* `decompose`      — split an element into its polynomial part (in f, g)
                     and a tail with only negative g-powers,
* `tail_coefficients` — the recursion producing the correction terms f_1,
                     f_2, ... that complete scaled powers of z to elements
                     whose twisted images are polynomial,
* `witness_poly`   — the l-th member q_l of the certified family,
* `build_certificate` — the family as a serialize-ready bundle,
* `verify_certificate` — every recomputable check of such a bundle.

The family is an Appell sequence in z: q_(l-1) = d/dz q_l.  The builder
therefore assembles only the top member q_(l_max) and differentiates down;
the verifier checks every stored member against blocks of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import countOf, itemgetter, mul

from .algebra import LaurentPoly, VarSet, coeffs_in, xz_vars
from .errors import ConstructionFailure, VariableMismatch, WitnessInvalid
from .report import Report
from .witness import (
    Resolved,
    WitnessPack,
    monic_degree,
    realize_annihilator,
    resolve_pack_fields,
    validate_pack,
)

#: the ring of tails: f, rel and g, where only g may carry a negative power;
#: an element is kept as a LaurentPoly over these three variables
FG_VARS = VarSet(("f", "rel", "g"), (False, False, True))


def is_fg(p: LaurentPoly) -> bool:
    """True when an element over FG_VARS visibly lies in k[f, g]."""
    return all(b == 0 and m >= 0 for (_, b, m) in p.terms)


# ---------------------------------------------------------------------------
# rewriting against the annihilator


def _relation(ann: LaurentPoly) -> tuple[int, LaurentPoly]:
    """The degree d of the annihilator and Pi(f, g) = f^d + sum_{s<d}
    c_s(g) * f^s over FG_VARS, which rel stands for."""
    d = monic_degree(ann)
    if d is None:
        raise VariableMismatch("annihilator must be monic")
    if d < 1:
        raise VariableMismatch("annihilator must have positive degree")
    f, g = (LaurentPoly.variable(FG_VARS, name) for name in ("f", "g"))
    return d, realize_annihilator(ann, f, g)


def _reduce(p: LaurentPoly, d: int, pi: LaurentPoly) -> LaurentPoly:
    """p rewritten by f^d = rel - (Pi(f, g) - f^d) in passes: adding H / f^d
    times rel - Pi(f, g), for H the part of f-degree >= d, replaces H by
    (H / f^d) * (rel - (Pi(f, g) - f^d)) and lowers the top f-degree."""
    step = LaurentPoly.variable(FG_VARS, "rel") - pi
    while high := {(a - d, b, m): c for (a, b, m), c in p.terms.items() if a >= d}:
        p = p + LaurentPoly(FG_VARS, high, _clean=False) * step
    return p


def reduce_by_annihilator(p: LaurentPoly, ann: LaurentPoly) -> LaurentPoly:
    """Rewrite until every f-exponent is below the annihilator degree d.

    Pi(f, g) - rel is monic of degree d in f over k[rel, g, 1/g], so the
    result is the unique normal form over the basis f^a (a < d) of p modulo
    Pi(f, g) = rel: no order of rewriting can change it, nor the tails and
    certificate bytes built from it."""
    return _reduce(p, *_relation(ann))


def decompose(p: LaurentPoly, ann: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Split p into (polynomial part, negative tail): the first lies in
    k[f, g] with all rel-powers expanded back out, the second is reduced
    with strictly negative g-powers.  Their sum equals p in the localized
    algebra; the tests check this by realizing both sides times a power
    of g that clears every denominator."""
    return _split(p, *_relation(ann))


def _split(p: LaurentPoly, d: int, pi: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """`decompose` with Pi(f, g) realized; rel is expanded back by Horner."""
    parts: tuple[dict, dict] = ({}, {})
    for e, c in _reduce(p, d, pi).terms.items():
        parts[e[2] < 0][e] = c
    pos, neg = (LaurentPoly(FG_VARS, t, _clean=False) for t in parts)
    poly_part = LaurentPoly.zero(FG_VARS)
    for coeff in reversed(coeffs_in(pos, "rel") if pos else []):
        poly_part = poly_part * pi + coeff
    return poly_part, neg


# ---------------------------------------------------------------------------
# the tail-coefficient recursion


def _factorials(n: int) -> list[int]:
    return [math.factorial(i) for i in range(n + 1)]


def tail_coefficients(l_max: int, rw: Resolved) -> list[LaurentPoly]:
    """The correction coefficients f_1, ..., f_{l_max}.

    Step l forms p = sum_{j=1}^{l} f_{l-j} * (f/g)^j / j!  (with f_0 = 1),
    reduces it against the annihilator, splits off the part that lies in
    k[f, g], and negates it to obtain f_l.  What remains of p is a sum of
    terms f^a * rel^b * g^m with a < d, b >= 0 and m <= -1, and rel^e times
    it twists to a function of x1-order at least 1.  No step checks this:
    `validate_pack` has proved it once for every step.  With v the x1-order
    after the twist, a valuation on the z-free Laurent polynomials,

    * the clearing-exponent line gives e*v(rel) + a*v(f) >= 0 for a < d;
    * the weights-twist line gives v(rel) >= 1, so b*v(rel) >= 0;
    * the axis-image-of-g line gives a nonconstant eps(g), whose top axis
      term twists to a negative power of x1 that no other term of g
      cancels, so v(g) <= -1 and m*v(g) >= 1.

    So every term of rel^e * remainder has order at least 1, and so has
    their sum.  The recursion itself reads only rw.ann, and realizes
    Pi(f, g) from it once for all steps.
    """
    if l_max < 0:
        raise VariableMismatch("l_max must be nonnegative")
    fact = _factorials(max(l_max, 1))
    one = LaurentPoly.one(FG_VARS)
    d, pi = _relation(rw.ann)
    tails: list[LaurentPoly] = []
    for step in range(1, l_max + 1):
        p = LaurentPoly.zero(FG_VARS)
        for j in range(1, step + 1):
            prev = tails[step - j - 1] if step - j >= 1 else one
            p = p + prev * LaurentPoly.monomial(FG_VARS, (j, 0, -j), Fraction(1, fact[j]))
        poly_part, _ = _split(p, d, pi)
        tails.append(-poly_part)
    return tails


def _assemble_witness_poly(l: int, tails: list[LaurentPoly], rw: Resolved) -> LaurentPoly:
    """q_l = theta(P_l(z)) as one kernel product; no validity checks.

    With theta = `inversion_map(t, h)`, c_j = theta(rel^e * f_j) (f_0 = 1)
    and theta(z) = z + s, q_l = sum_i c_{l-i} * (z + s)^i / i!.  Expanding
    (z + s)^i regroups it as q_l = sum_k r_{l-k} * z^k / k!, where the block
    r_j = sum_m c_{j-m} * s^m / m! does not depend on l.  theta is a ring
    map, s = theta(h), and on z-free data theta is rw.twist, so
    r_j = twist(rel^e) * twist(P_j) with P_j = sum_m f_{j-m} * h^m / m!.
    The P_j are made in one pass, realizing each tail by substitution, and
    q_l = twist(rel^e) * sum_j twist(P_j) * z^(l-j) / (l-j)! is one product.
    Since the blocks do not depend on l, the lower members are derivatives,
    q_{l-1} = d/dz q_l, and `build_certificate` assembles only q_{l_max}.

    Only the builder assembles members.  `verify_certificate` checks each
    stored member against `_appell_blocks`, which realizes the tails from
    its own powers of f and g, uses the pack's h and twists by the weights,
    so a fault here, or in the derivatives, fails that verification instead
    of confirming itself.
    """
    vars, twist = rw.twist.vars, rw.twist.apply
    fact = _factorials(l)
    images = {"f": rw.f, "rel": rw.rel, "g": rw.g}
    plain = [fj.subst(images) for fj in [LaurentPoly.one(FG_VARS), *tails[:l]]]
    hpow = [LaurentPoly.one(vars)]                     # h^m / m!
    laid: dict = {}
    for j in range(l + 1):
        if j:
            hpow.append(hpow[-1] * rw.h * Fraction(1, j))
        pulled = LaurentPoly.zero(vars)
        for m in range(j + 1):
            pulled = pulled + plain[j - m] * hpow[m]
        laid.update({e + (l - j,): c for e, c in twist(pulled / fact[l - j]).terms.items()})
    vz = xz_vars(rw.n)
    lead = {e + (0,): c for e, c in twist(rw.rel ** rw.clearing).terms.items()}
    return LaurentPoly(vz, lead, _clean=False) * LaurentPoly(vz, laid, _clean=False)


def witness_poly(l: int, rw: Resolved, tails: list[LaurentPoly]) -> LaurentPoly:
    """The l-th member of the family; guaranteed (and checked) to be an
    honest polynomial in x1, ..., xn, z."""
    q = _assemble_witness_poly(l, tails, rw)
    if not q.is_polynomial():
        bad = next(e for e in sorted(q.terms) if min(e) < 0)
        raise ConstructionFailure(
            f"member l={l}: coefficient of z^{bad[-1]} has a negative exponent"
        )
    return q


# ---------------------------------------------------------------------------
# certificates


@dataclass
class CertEntry:
    l: int
    tails: list[LaurentPoly]     # f_1 ... f_l for this member, over FG_VARS
    q: LaurentPoly


@dataclass
class Certificate:
    pack: WitnessPack            # with all derived fields resolved
    rel: LaurentPoly
    d: int
    clearing: int
    entries: list[CertEntry]


def build_certificate(pack: WitnessPack, l_max: int) -> tuple[Certificate, Report]:
    """Validate the pack once, run the recursion to l_max, assemble q_(l_max)
    and differentiate it down to q_0.  Returns the certificate, whose pack
    has the resolved h, annihilator, weights and clearing exponent filled
    in, and the pack's validation report.  Raises WitnessInvalid (with the
    report attached) when the pack fails validation.

    The build does not verify what it built: `verify_certificate`
    recomputes every member apart from the assembly."""
    resolved, report = validate_pack(pack)
    if resolved is None:
        failures = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        raise WitnessInvalid(f"witness rejected ({failures})", report=report)
    tails = tail_coefficients(l_max, resolved)
    members = [witness_poly(l_max, resolved, tails)]
    for _ in range(l_max):
        members.append(members[-1].deriv("z"))     # q_(l-1) = d/dz q_l
    entries = [CertEntry(l=l, tails=list(tails[:l]), q=q)
               for l, q in enumerate(reversed(members))]
    cert = Certificate(pack=resolve_pack_fields(pack, resolved),
                       rel=resolved.rel, d=resolved.d,
                       clearing=resolved.clearing, entries=entries)
    return cert, report


def _appell_blocks(tails: list[LaurentPoly], rw: Resolved) -> tuple[list[dict], int]:
    """The blocks B_j = twist(rel^e * sum_m F_(j-m) * h^m / m!) for j = 0..
    len(tails), as maps from twisted x-exponents to integer numerators, and
    their common denominator.

    The members satisfy q_l = sum_k B_(l-k) * z^k / k!.  Everything here is
    over x1..xn and apart from the builder: F_j (F_0 = 1) lies in k[f, g]
    and is realized from power lists of f and g made for this call, h is
    the pack's own h (so no shift is twisted), and the twist of a z-free
    polynomial is the exponent map x1 -> 1/x1, xi -> x1^(t_i) * xi read off
    the weights: additive, so all blocks are one `mul_numerators` of twisted
    rel^e by the twisted sums, laid out along a marker variable at j."""
    vars, weights = rw.f.vars, rw.weights
    def twist(e):
        return (sum(map(mul, weights, e[1:])) - e[0],) + e[1:]
    bases = (rw.f, rw.g)
    pows = [[LaurentPoly.one(vars)] for _ in bases]
    hpow = [LaurentPoly.one(vars)]                     # h^m / m!
    values: list[LaurentPoly] = []
    laid: dict = {}
    for j, fj in enumerate([LaurentPoly.one(FG_VARS), *tails]):
        value = LaurentPoly.zero(vars)
        for (a, _, m), c in fj.terms.items():
            term = LaurentPoly.const(vars, c)
            for base, pw, k in zip(bases, pows, (a, m)):
                if k:
                    while len(pw) <= k:
                        pw.append(pw[-1] * base)
                    term = term * pw[k]
            value = value + term
        values.append(value)
        if j:
            hpow.append(hpow[-1] * rw.h * Fraction(1, j))
        pulled = LaurentPoly.zero(vars)
        for m in range(j + 1):
            pulled = pulled + values[j - m] * hpow[m]
        laid.update({twist(e) + (j,): c for e, c in pulled.terms.items()})
    marked = VarSet(vars.names + ("j",), vars.laurent + (False,))
    lead = {twist(e) + (0,): c for e, c in (rw.rel ** rw.clearing).terms.items()}
    num, den = LaurentPoly(marked, lead, _clean=False).mul_numerators(
        LaurentPoly(marked, laid, _clean=False))
    blocks: list[dict] = [{} for _ in values]
    for e, v in num.items():
        blocks[e[-1]][e[:-1]] = v
    return blocks, den


def _block_matches(got: dict, block: dict, scale: int) -> bool:
    """True iff the z-free block `got`, exponents to (numerator, denominator),
    equals block / scale, exponents to numerators, by cross-multiplication."""
    if len(got) != len(block):
        return False
    for e, (n, d) in got.items():
        v = block.get(e)
        if v is None or n * scale != v * d:
            return False
    return True


def verify_certificate(cert: Certificate) -> Report:
    """Recompute every checkable claim of a certificate from its raw data.

    The report is deterministic: pack-level checks first (shared with
    validation), then the stored relation element and degree, then one
    block per entry.  Members are checked against the Appell blocks of
    `_appell_blocks`, which share no code with the builder's assembly.
    Tampering with any single field flips at least one line, except in
    `witness.R_gens`: every passing pack line is a proof about
    the generators the certificate carries, so changing one that f_expr
    and g_expr do not use can give a valid certificate for a different
    subalgebra instead of a failing one.

    The tails f_1..f_L are read once, from the last entry (l = L), and
    every entry must carry their prefix f_1..f_l.  Member l lies in k[f, g]
    iff its tails do, that is iff l is at most the number of leading tails
    in k[f, g]; only those are realized, and a member past them fails its
    recomputed line.
    """
    pack = cert.pack
    resolved_fields = all(x is not None for x in (pack.h, pack.ann, pack.weights, pack.clearing))
    rep = Report()
    rep.add("resolved-fields", resolved_fields,
            "pack carries h, annihilator, weights, clearing exponent")
    if not resolved_fields:
        return rep
    resolved, pack_rep = validate_pack(pack)
    rep.checks.extend(pack_rep.checks)
    if resolved is None:
        return rep

    rep.add("relation-matches", cert.rel == resolved.rel,
            "stored relation element equals Ann(f)|_{G=g}")
    rep.add("degree-matches", cert.d == resolved.d,
            f"stored degree {cert.d}")
    rep.add("clearing-matches", cert.clearing == resolved.clearing,
            f"stored clearing exponent {cert.clearing}")

    ls = [entry.l for entry in cert.entries]
    contiguous = ls == list(range(len(ls))) and len(ls) >= 1
    rep.add("entries-contiguous", contiguous, f"members l = {ls}")
    if not contiguous:
        return rep

    tails = cert.entries[-1].tails
    rep.add("tails-prefix-consistency",
            len(tails) == ls[-1] and all(e.tails == tails[:e.l] for e in cert.entries),
            "each member extends the previous member's tail coefficients")

    if not rep.ok:
        return rep

    run = next((i for i, t in enumerate(tails) if not is_fg(t)), len(tails))
    blocks, den = _appell_blocks(tails[:run], resolved)
    fact = _factorials(max(len(cert.entries), 1))
    vars = xz_vars(resolved.n)
    zero, x2_xn = (0,) * len(vars), itemgetter(slice(1, -1))
    for entry in cert.entries:
        l = entry.l
        tag = f"member-{l}"
        rep.add(f"{tag}-tails-in-fg", l <= run, "tail coefficients lie in k[f, g]")
        # the stored terms as (numerator, denominator) in z^k blocks (z is the
        # last variable); the axis image (terms free of x2..xn) is a constant
        same_vars = entry.q.vars == vars
        terms = entry.q.terms if same_vars else {}
        by_z = {}
        for e, c in terms.items():
            by_z.setdefault(e[-1], {})[e[:-1]] = c.as_integer_ratio()
        poly_ok = same_vars and entry.q.is_polynomial()
        axis_ok = countOf(map(x2_xn, terms), x2_xn(zero)) == (zero in terms)
        # the z^l block of l! * q_l is B_0 = twist(rel^e), the relation power
        lead_ok = _block_matches(by_z.get(l, {}), blocks[0], den * fact[l])
        rep.add(f"{tag}-recomputed",
                l <= run and same_vars and lead_ok and by_z.keys() <= set(range(l + 1))
                and all(_block_matches(by_z.get(k, {}), blocks[l - k], den * fact[k])
                        for k in range(l)),
                "stored member equals the recomputed twist image")
        rep.add(f"{tag}-polynomial", poly_ok, "member lies in k[x1..xn, z]")
        if not poly_ok:
            continue
        top = max(by_z, default=0)
        if l == 0:
            rep.add(f"{tag}-leading", lead_ok and top == 0,
                    "member 0 equals the twisted relation power")
        else:
            rep.add(f"{tag}-leading", lead_ok,
                    "z^l coefficient of l! * member equals the twisted relation power")
            rep.add(f"{tag}-degree-drop", lead_ok and top <= l,
                    "l! * member minus the leading block has z-degree < l")
        rep.add(f"{tag}-axis-constant", axis_ok, "axis image of the member is a constant")
    return rep
