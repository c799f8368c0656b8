"""The certified polynomial family and its certificates.

Everything here works inside the localized algebra generated by a pair
f, g, their relation element rel = Ann(f)|_{G=g}, and 1/g.  Elements are
kept symbolically as maps {(a, b, m): coefficient} standing for
f^a * rel^b * g^m; the monic annihilator gives the rewriting rule

    f^d  =  rel - sum_{s<d} c_s(g) * f^s

which normalizes every element to f-degree < d.  On top of that sit:

* `decompose`      — split an element into its polynomial part (in f, g)
                     and a tail with only negative g-powers,
* `tail_coefficients` — the recursion producing the correction terms f_1,
                     f_2, ... that complete scaled powers of z to elements
                     whose twisted images are polynomial,
* `witness_poly`   — the l-th member q_l of the certified family,
* `build_certificate` / `verify_certificate` — serialize-ready bundles of
                     the family plus every recomputable check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .algebra import LaurentPoly, RatFunc, UniPoly, qq, to_univar
from .errors import (
    AlgebraError,
    ConstructionFailure,
    VariableMismatch,
    WitnessInvalid,
)
from .maps import axis_map
from .report import Report
from .witness import (
    DEFAULT_MEMBER_BOUND,
    DEFAULT_SEMIGROUP_BOUND,
    Resolved,
    WitnessPack,
    resolve_pack_fields,
    validate_pack,
)

Triple = tuple[int, int, int]


class FGPoly:
    """An exact element of k[f, g, rel, 1/g] in exponent-triple form.

    Keys are (a, b, m): the exponents of f, rel, and g (m may be negative).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=(), *, _clean: bool = True):
        items = terms.items() if hasattr(terms, "items") else terms
        if _clean:
            clean: dict[Triple, Fraction] = {}
            for key, coeff in items:
                c = coeff if type(coeff) is Fraction else qq(coeff)
                if not c:
                    continue
                a, b, m = key
                if a < 0 or b < 0:
                    raise VariableMismatch("negative f- or rel-exponent")
                k = (int(a), int(b), int(m))
                if k in clean:
                    c += clean[k]
                    if not c:
                        del clean[k]
                        continue
                clean[k] = c
            object.__setattr__(self, "terms", clean)
        else:
            object.__setattr__(self, "terms", dict(items))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("FGPoly is immutable")

    @classmethod
    def zero(cls) -> "FGPoly":
        return cls({}, _clean=False)

    @classmethod
    def one(cls) -> "FGPoly":
        return cls({(0, 0, 0): Fraction(1)}, _clean=False)

    @classmethod
    def single(cls, a: int, b: int, m: int, coeff=1) -> "FGPoly":
        return cls({(a, b, m): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FGPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "FGPoly") -> "FGPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, Fraction(0)) + c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return FGPoly(out, _clean=False)

    def __neg__(self) -> "FGPoly":
        return FGPoly({k: -c for k, c in self.terms.items()}, _clean=False)

    def __sub__(self, other: "FGPoly") -> "FGPoly":
        return self + (-other)

    def __mul__(self, other) -> "FGPoly":
        if not isinstance(other, FGPoly):
            c = qq(other)
            if c == 0:
                return FGPoly.zero()
            return FGPoly({k: v * c for k, v in self.terms.items()}, _clean=False)
        out: dict[Triple, Fraction] = {}
        for (a1, b1, m1), c1 in self.terms.items():
            for (a2, b2, m2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2, m1 + m2)
                s = out.get(k, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        return FGPoly(out, _clean=False)

    __rmul__ = __mul__

    def shifted(self, da: int, db: int, dm: int, scale=1) -> "FGPoly":
        """Multiply by f^da * rel^db * g^dm and a scalar, in one pass."""
        c0 = qq(scale)
        if c0 == 0:
            return FGPoly.zero()
        return FGPoly(
            {(a + da, b + db, m + dm): c * c0 for (a, b, m), c in self.terms.items()},
            _clean=False,
        )

    def max_f_exponent(self) -> int:
        return max((a for (a, _, _) in self.terms), default=-1)

    def is_fg(self) -> bool:
        """True when the element visibly lies in k[f, g]."""
        return all(b == 0 and m >= 0 for (_, b, m) in self.terms)

    def is_negative_tail(self, d: int) -> bool:
        """True when reduced (f-degree < d) with only negative g-powers."""
        return all(a < d and m < 0 for (a, _, m) in self.terms)

    def key(self) -> tuple:
        return tuple(sorted(self.terms.items()))

    def terms_sorted(self) -> list[tuple[Triple, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, b, m), c in self.terms_sorted():
            names = []
            if a:
                names.append(f"f^{a}" if a != 1 else "f")
            if b:
                names.append(f"rel^{b}" if b != 1 else "rel")
            if m:
                names.append(f"g^{m}" if m != 1 else "g")
            body = "*".join(names) or "1"
            bits.append(f"({c})*{body}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"<FGPoly {self}>"


# ---------------------------------------------------------------------------
# rewriting against the annihilator


def _ann_rules(ann: UniPoly) -> tuple[int, list[tuple[int, int, Fraction]]]:
    """Degree d plus the replacement data for f^d = rel - sum c_s(g) f^s,
    flattened to (s, g-power, coefficient) triples."""
    if ann.is_zero() or not ann.is_monic():
        raise VariableMismatch("annihilator must be monic")
    d = ann.degree
    if d < 1:
        raise VariableMismatch("annihilator must have positive degree")
    rules = []
    for s in range(d):
        for u, gamma in to_univar(ann.coeff(s), "G").items():
            rules.append((s, u, gamma))
    return d, rules


def annihilator_in_fg(ann: UniPoly) -> FGPoly:
    """The relation element written out in k[f, g]: Ann evaluated at f."""
    d, rules = _ann_rules(ann)
    terms: dict[Triple, Fraction] = {(d, 0, 0): Fraction(1)}
    for s, u, gamma in rules:
        k = (s, 0, u)
        terms[k] = terms.get(k, Fraction(0)) + gamma
    return FGPoly(terms)


def reduce_by_annihilator(p: FGPoly, ann: UniPoly) -> FGPoly:
    """Rewrite until every f-exponent is below the annihilator degree.

    Each application of the rule trades f^d for one rel-power plus strictly
    smaller f-powers, so the multiset of f-exponents descends and the loop
    terminates.
    """
    d, rules = _ann_rules(ann)
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
    return FGPoly(terms, _clean=False)


def decompose(p: FGPoly, ann: UniPoly) -> tuple[FGPoly, FGPoly]:
    """Split p into (polynomial part, negative tail): the first lies in
    k[f, g] with all rel-powers expanded back out, the second is reduced
    with strictly negative g-powers.  Their sum equals p in the localized
    algebra (an identity certified by `realize`)."""
    red = reduce_by_annihilator(p, ann)
    pos = {k: c for k, c in red.terms.items() if k[2] >= 0}
    neg = {k: c for k, c in red.terms.items() if k[2] < 0}
    rel_fg = annihilator_in_fg(ann)
    powers = {0: FGPoly.one()}

    def rel_power(b: int) -> FGPoly:
        if b not in powers:
            powers[b] = rel_power(b - 1) * rel_fg
        return powers[b]

    poly_part = FGPoly.zero()
    for (a, b, m), c in sorted(pos.items()):
        poly_part = poly_part + rel_power(b).shifted(a, 0, m, c)
    return poly_part, FGPoly(neg, _clean=False)


# ---------------------------------------------------------------------------
# realization into actual (rational) functions


def realize_fg(p: FGPoly, f: LaurentPoly, g: LaurentPoly,
               rel: LaurentPoly | None = None,
               _cache: dict | None = None) -> LaurentPoly:
    """Evaluate an element with only nonnegative g-powers to a polynomial."""
    if any(m < 0 for (_, _, m) in p.terms):
        raise VariableMismatch("element has negative g-powers; use realize()")
    if rel is None and any(b > 0 for (_, b, _) in p.terms):
        raise VariableMismatch("element has rel-powers but no rel value given")
    cache = _cache if _cache is not None else {}

    def power(tag: str, base: LaurentPoly, k: int) -> LaurentPoly:
        pows = cache.setdefault(tag, [LaurentPoly.one(base.vars), base])
        while len(pows) <= k:
            pows.append(pows[-1] * base)
        return pows[k]

    acc = LaurentPoly.zero(f.vars)
    for (a, b, m), c in p.terms.items():
        term = LaurentPoly.const(f.vars, c)
        if a:
            term = term * power("f", f, a)
        if b:
            term = term * power("rel", rel, b)
        if m:
            term = term * power("g", g, m)
        acc = acc + term
    return acc


def realize(p: FGPoly, f: LaurentPoly, g: LaurentPoly, rel: LaurentPoly) -> RatFunc:
    """Evaluate any element to a rational function num / g^K."""
    if p.is_zero():
        return RatFunc.from_poly(LaurentPoly.zero(f.vars))
    k_clear = max(0, -min(m for (_, _, m) in p.terms))
    shifted = p.shifted(0, 0, k_clear)
    num = realize_fg(shifted, f, g, rel)
    return RatFunc(num, g ** k_clear)


# ---------------------------------------------------------------------------
# the tail-coefficient recursion


def _factorials(n: int) -> list[int]:
    return [math.factorial(i) for i in range(n + 1)]


def _tail_order_bound(tail: FGPoly, rw: Resolved) -> int:
    """A lower bound on the x1-order of twist(rel^e * tail), for nonzero
    f, g and rel.

    The x1-order v of a z-free Laurent polynomial over the domain
    k[x2..xn] is a valuation, so v(twist(f^a rel^b g^m)) is the sum of the
    orders of the factors and a sum of terms has at least the smallest
    order among them; the minimum over the terms of the tail bounds the
    order from below without realizing anything."""
    vf, vr, vg = (rw.twist.x1_order(p) for p in (rw.f_xz, rw.rel_xz, rw.g_xz))
    return min(a * vf + (b + rw.clearing) * vr + m * vg
               for (a, b, m) in tail.terms)


def tail_coefficients(l_max: int, rw: Resolved, verify: bool = True) -> list[FGPoly]:
    """The correction coefficients f_1, ..., f_{l_max}.

    Step l forms p = sum_{j=1}^{l} f_{l-j} * (f/g)^j / j!  (with f_0 = 1),
    reduces it against the annihilator, splits off the part that lies in
    k[f, g], and negates it to obtain f_l.  What remains of p then has only
    negative g-powers, and multiplying by rel^e makes its twisted image a
    function with nonnegative x1-order — that is checked here for every
    step when `verify` is set.  The step passes at once when the
    valuation bound of `_tail_order_bound` is nonnegative; only otherwise
    is rel^e * remainder * g^K realized and its exact order compared.
    """
    if l_max < 0:
        raise VariableMismatch("l_max must be nonnegative")
    fact = _factorials(max(l_max, 1))
    tails: list[FGPoly] = []
    powers: dict = {}
    for step in range(1, l_max + 1):
        p = FGPoly.zero()
        for j in range(1, step + 1):
            prev = tails[step - j - 1] if step - j >= 1 else FGPoly.one()
            p = p + prev.shifted(j, 0, -j, Fraction(1, fact[j]))
        poly_part, neg_tail = decompose(p, rw.ann)
        tail = -poly_part
        if verify and neg_tail and _tail_order_bound(neg_tail, rw) < 0:
            # rel^e * neg_tail = num / g^K with num realized in k[x]
            k_clear = -min(m for (_, _, m) in neg_tail.terms)
            num = realize_fg(neg_tail.shifted(0, rw.clearing, k_clear),
                             rw.f_xz, rw.g_xz, rw.rel_xz, _cache=powers)
            if num and (rw.twist.x1_order(num)
                        - k_clear * rw.twist.x1_order(rw.g_xz)) < 0:
                raise ConstructionFailure(
                    f"step {step}: twisted remainder has negative x1-order"
                )
        tails.append(tail)
    return tails


def tail_upoly(i: int, tails: list[FGPoly], clearing: int) -> list[FGPoly]:
    """Coefficient list (ascending powers of the abstract variable) of the
    i-th scaled polynomial rel^e * (T^i/i! + f_1 T^{i-1}/(i-1)! + ... + f_i).
    """
    if i > len(tails):
        raise VariableMismatch(f"need {i} tail coefficients, have {len(tails)}")
    fact = _factorials(max(i, 1))
    coeffs = []
    for w in range(i + 1):
        fj = tails[i - w - 1] if i - w >= 1 else FGPoly.one()
        coeffs.append(fj.shifted(0, clearing, 0, Fraction(1, fact[w])))
    return coeffs


def tail_at_ratio(i: int, tails: list[FGPoly], clearing: int) -> FGPoly:
    """The i-th scaled polynomial evaluated at the ratio f/g."""
    coeffs = tail_upoly(i, tails, clearing)
    acc = FGPoly.zero()
    for w, c in enumerate(coeffs):
        acc = acc + c.shifted(w, 0, -w)
    return acc


def _assemble_witness_poly(l: int, tails: list[FGPoly], rw: Resolved,
                           caches: dict) -> LaurentPoly:
    """q_l = twist(P_l(z)) assembled from z-free blocks; no validity checks.

    With c_j = twist(rel^e * f_j) (f_0 = 1) and twist(z) = z + s, the
    member is q_l = sum_i c_{l-i} * (z + s)^i / i!.  Expanding (z + s)^i
    regroups it as q_l = sum_k r_{l-k} * z^k / k!, where the block
    r_j = sum_m c_{j-m} * s^m / m! does not depend on l.  The twist is a
    ring map and its exponent part an involution, so with h = twist(s)
    (the z-free preimage of s) r_j = twist(rel^e * sum_m f_{j-m} * h^m / m!):
    the sum runs over the small realized tails, and each block costs one
    product with rel^e and one twist.  Every r_j is z-free, so q_l is laid
    out by placing r_{l-k} / k! at z-degree k: no product with z, and
    nothing to cancel.  Realized tails are cached by the content of f_j and
    blocks by that of f_0..f_j, so one `caches` dict stays right across
    members and across differing tail lists.

    Only the builder assembles members.  `verify_certificate` checks each
    stored member against `_appell_blocks`, which realizes the tails from
    its own powers, uses the pack's h and twists by the weights, so a fault
    here fails the build's verification instead of confirming itself.
    """
    vz = rw.twist.vars
    fact = _factorials(max(l, 1))
    shift = rw.twist.shift
    h = rw.twist.apply(shift) if shift is not None else LaurentPoly.zero(vz)
    hpow = caches.setdefault("hpow", [LaurentPoly.one(vz)])
    while len(hpow) <= l:
        m = len(hpow)
        hpow.append(hpow[-1] * h * Fraction(1, m))      # h^m / m!
    rel_pow = caches.setdefault("relpow", {})
    if rw.clearing not in rel_pow:
        rel_pow[rw.clearing] = rw.rel_xz ** rw.clearing
    rel_e = rel_pow[rw.clearing]
    realized = caches.setdefault("realized", {})
    block_cache = caches.setdefault("blocks", {})
    mul_cache = caches.setdefault("mulcache", {})
    fs = [FGPoly.one()] + [tails[j] for j in range(l)]
    keys = [fj.key() for fj in fs]

    def plain(j: int) -> LaurentPoly:
        if keys[j] not in realized:
            realized[keys[j]] = realize_fg(fs[j], rw.f_xz, rw.g_xz, rw.rel_xz,
                                           _cache=mul_cache)
        return realized[keys[j]]

    z = vz.index("z")
    terms: dict = {}
    for k in range(l + 1):
        j = l - k
        block_key = tuple(keys[:j + 1])
        block = block_cache.get(block_key)
        if block is None:
            pulled = LaurentPoly.zero(vz)
            for m in range(j + 1):
                pulled = pulled + plain(j - m) * hpow[m]
            block = block_cache[block_key] = rw.twist.apply(rel_e * pulled)
        scale = Fraction(1, fact[k])
        for e, c in block.terms.items():
            terms[e[:z] + (k,) + e[z + 1:]] = c * scale if k > 1 else c
    return LaurentPoly(vz, terms, _clean=False)


def witness_poly(l: int, rw: Resolved, tails: list[FGPoly],
                 caches: dict | None = None) -> LaurentPoly:
    """The l-th member of the family; guaranteed (and checked) to be an
    honest polynomial in x1, ..., xn, z."""
    q = _assemble_witness_poly(l, tails, rw, caches if caches is not None else {})
    if not q.is_polynomial():
        bad = next(e for e in sorted(q.terms) if min(e) < 0)
        raise ConstructionFailure(
            f"member l={l}: coefficient of z^{bad[-1]} has a negative exponent"
        )
    return q


def taylor_shift_check(l: int, rw: Resolved, tails: list[FGPoly]) -> bool:
    """Certify q_l against the Taylor expansion around the shifted variable:

        q_l = sum_i  twist(P_{l-i}(f/g)) / i!  *  (z - twist(f - g*h)/twist(g))^i

    — an identity of rational functions, compared by cross-multiplication.
    """
    vz = rw.twist.vars
    lhs = RatFunc.from_poly(witness_poly(l, rw, tails))
    tg = rw.twist.apply(rw.g_xz)
    tfgh = rw.twist.apply(rw.f_xz - rw.g_xz * rw.h_xz)
    zvar = LaurentPoly.variable(vz, "z")
    w = RatFunc(zvar * tg - tfgh, tg)
    fact = _factorials(max(l, 1))
    rhs = RatFunc.from_poly(LaurentPoly.zero(vz))
    wpow = RatFunc.from_poly(LaurentPoly.one(vz))
    for i in range(l + 1):
        block = tail_at_ratio(l - i, tails, rw.clearing)
        value = realize(block, rw.f_xz, rw.g_xz, rw.rel_xz)
        twisted = rw.twist.apply_rf(value)
        rhs = rhs + twisted * wpow * Fraction(1, fact[i])
        if i < l:
            wpow = wpow * w
    return lhs == rhs


# ---------------------------------------------------------------------------
# certificates


@dataclass
class CertEntry:
    l: int
    tails: list[FGPoly]          # f_1 ... f_l for this member
    q: LaurentPoly


@dataclass
class Certificate:
    pack: WitnessPack            # with all derived fields resolved
    rel: LaurentPoly
    d: int
    clearing: int
    entries: list[CertEntry]
    report: Report | None = None


def build_certificate(pack: WitnessPack, l_max: int = 8, *,
                      weights_override=None,
                      semigroup_bound: int = DEFAULT_SEMIGROUP_BOUND,
                      member_bound: int = DEFAULT_MEMBER_BOUND) -> Certificate:
    """Validate the pack, run the recursion to l_max, and bundle the family
    with a verification report.  Raises WitnessInvalid (with the report
    attached) when the pack fails validation.

    The pack is validated once.  The stored pack must carry exactly the
    resolved h, annihilator, weights and clearing exponent (all that a
    second validation of it could catch); the family is then checked by the
    same verify as `verify_certificate`, so the report equals that of a
    fresh `verify_certificate` of the certificate."""
    resolved, report = validate_pack(
        pack, weights_override=weights_override,
        semigroup_bound=semigroup_bound, member_bound=member_bound,
    )
    if resolved is None:
        failures = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        raise WitnessInvalid(f"witness rejected ({failures})", report=report)
    tails = tail_coefficients(l_max, resolved)
    caches: dict = {}
    entries = [
        CertEntry(l=l, tails=list(tails[:l]),
                  q=witness_poly(l, resolved, tails, caches))
        for l in range(l_max + 1)
    ]
    stored = resolve_pack_fields(pack, resolved)
    if (stored.h, stored.ann, stored.weights, stored.clearing) != (
            resolved.h, resolved.ann, resolved.weights, resolved.clearing):
        raise ConstructionFailure(
            "stored pack fields differ from the validated h, annihilator, "
            "weights and clearing exponent"
        )
    cert = Certificate(pack=stored, rel=resolved.rel, d=resolved.d,
                       clearing=resolved.clearing, entries=entries)
    cert.report = _verify_resolved(cert, resolved, report)
    if not cert.report.ok:
        raise ConstructionFailure(
            "freshly built certificate failed verification: "
            + "; ".join(c.name for c in cert.report.failures())
        )
    return cert


_RESOLVED_NOTE = "pack carries h, annihilator, weights, clearing exponent"


def verify_certificate(cert: Certificate, *,
                       semigroup_bound: int = DEFAULT_SEMIGROUP_BOUND,
                       member_bound: int = DEFAULT_MEMBER_BOUND) -> Report:
    """Recompute every checkable claim of a certificate from its raw data.

    The report is deterministic: pack-level checks first (shared with
    validation), then the stored relation element and degree, then one
    block per entry.  Members are checked against the Appell blocks of
    `_appell_blocks`, which share no code with the builder's assembly.
    Tampering with any single field flips at least one line, except in
    `witness.R_gens`: a generator unused by f_expr/g_expr enters only
    through the semigroup and membership scans of its axis image, which a
    changed coefficient can leave as they were.
    """
    pack = cert.pack
    if any(x is None for x in (pack.h, pack.ann, pack.weights, pack.clearing)):
        rep = Report()
        rep.add("resolved-fields", False, _RESOLVED_NOTE)
        return rep
    resolved, pack_rep = validate_pack(
        pack, semigroup_bound=semigroup_bound, member_bound=member_bound,
    )
    return _verify_resolved(cert, resolved, pack_rep)


def _appell_blocks(tails: list[FGPoly],
                   rw: Resolved) -> tuple[list[dict], AlgebraError | None]:
    """The blocks B_j = twist(rel^e * sum_m F_(j-m) * h^m / m!), each as a
    map from twisted x-exponents to coefficients, for j = 0, 1, ... up to
    len(tails) or up to the first F_j that cannot be realized, whose
    AlgebraError comes second.

    The members satisfy q_l = sum_k B_(l-k) * z^k / k!.  Everything here is
    recomputed apart from the builder: F_j (F_0 = 1) is realized from
    power lists of f, rel and g made for this call, h is the pack's own h
    (so no shift is twisted), and the twist of a z-free block is the
    exponent map x1 -> 1/x1, xi -> x1^(t_i) * xi read off the weights."""
    vz = rw.f_xz.vars
    n, weights = rw.n, rw.weights
    bases = (rw.f_xz, rw.rel_xz, rw.g_xz)
    pows = [[LaurentPoly.one(vz)] for _ in bases]
    rel_e = rw.rel_xz ** rw.clearing
    hpow = [LaurentPoly.one(vz)]                       # h^m / m!
    values: list[LaurentPoly] = []
    blocks: list[dict] = []
    for j, fj in enumerate([FGPoly.one()] + list(tails)):
        if any(m < 0 for (_, _, m) in fj.terms):       # worded as realize_fg's
            return blocks, VariableMismatch("element has negative g-powers; use realize()")
        value = LaurentPoly.zero(vz)
        for exps, c in fj.terms.items():
            term = LaurentPoly.const(vz, c)
            for base, pw, k in zip(bases, pows, exps):
                if k:
                    while len(pw) <= k:
                        pw.append(pw[-1] * base)
                    term = term * pw[k]
            value = value + term
        values.append(value)
        if j:
            hpow.append(hpow[-1] * rw.h_xz * Fraction(1, j))
        pulled = LaurentPoly.zero(vz)
        for m in range(j + 1):
            pulled = pulled + values[j - m] * hpow[m]
        blocks.append({
            (sum(map(mul, weights, e[1:n])) - e[0],) + e[1:n]: c
            for e, c in (rel_e * pulled).terms.items()
        })
    return blocks, None


def _member_matches(q: LaurentPoly, l: int, blocks: list[dict], fact: list[int]) -> bool:
    """True iff every z^k block of q equals B_(l-k) / k! and no term lies
    above z^l; coefficients are compared by integer cross-multiplication."""
    counts = [0] * (l + 1)
    for e, c in q.terms.items():
        k = e[-1]                                      # z is the last variable
        if not 0 <= k <= l:
            return False
        b = blocks[l - k].get(e[:-1])
        if b is None:
            return False
        if k < 2:
            if c != b:
                return False
        elif c.numerator * fact[k] * b.denominator != b.numerator * c.denominator:
            return False
        counts[k] += 1
    return all(counts[k] == len(blocks[l - k]) for k in range(l + 1))


def _verify_resolved(cert: Certificate, resolved: Resolved | None,
                     pack_rep: Report) -> Report:
    """The verify of a certificate whose pack carries its resolved fields,
    given the pack's validation: `resolved` and its report `pack_rep`."""
    rep = Report()
    rep.add("resolved-fields", True, _RESOLVED_NOTE)
    rep.checks.extend(pack_rep.checks)
    if resolved is None:
        return rep

    rep.add("relation-matches", cert.rel == resolved.rel,
            "stored relation element equals Ann(f)|_{G=g}")
    rep.add("degree-matches", cert.d == resolved.d,
            f"stored degree {cert.d}")
    rep.add("clearing-matches", cert.clearing == resolved.clearing,
            f"stored clearing exponent {cert.clearing}")
    twisted_rel = resolved.twist.apply(resolved.rel_xz)
    rep.add("relation-x1-witness",
            (not twisted_rel.is_zero()) and twisted_rel.is_polynomial()
            and twisted_rel.order_in("x1") >= 1,
            "twisted relation element is a nonzero polynomial divisible by x1")

    ls = [entry.l for entry in cert.entries]
    contiguous = ls == list(range(len(ls))) and len(ls) >= 1
    rep.add("entries-contiguous", contiguous, f"members l = {ls}")
    if not contiguous:
        return rep

    prefix_ok = all(
        cert.entries[i].tails == cert.entries[i + 1].tails[: len(cert.entries[i].tails)]
        for i in range(len(cert.entries) - 1)
    ) and all(len(entry.tails) == entry.l for entry in cert.entries)
    rep.add("tails-prefix-consistency", prefix_ok,
            "each member extends the previous member's tail coefficients")

    if not rep.ok:
        return rep

    # the tails are prefix-consistent, so the last entry's serve every member
    blocks, failure = _appell_blocks(cert.entries[-1].tails, resolved)
    vz = resolved.f_xz.vars
    fact = _factorials(max(len(cert.entries), 1))
    rel_t_pow = twisted_rel ** cert.clearing
    for entry in cert.entries:
        l = entry.l
        tag = f"member-{l}"
        shape_ok = all(t.is_fg() for t in entry.tails)
        rep.add(f"{tag}-tails-in-fg", shape_ok,
                "tail coefficients lie in k[f, g]")
        same_vars = entry.q.vars == vz
        if l >= len(blocks):
            recompute_ok, recompute_note = False, f"recomputation failed: {failure}"
        else:
            recompute_ok = same_vars and _member_matches(entry.q, l, blocks, fact)
            recompute_note = "stored member equals the recomputed twist image"
        rep.add(f"{tag}-recomputed", recompute_ok, recompute_note)
        poly_ok = same_vars and entry.q.is_polynomial()
        rep.add(f"{tag}-polynomial", poly_ok, "member lies in k[x1..xn, z]")
        if not poly_ok:
            continue
        # z is the last variable.  l! * q_l - rel_t_pow * z^l has z-degree
        # < l exactly when the z^l block matches and no term goes past z^l.
        lead_ok = rel_t_pow.terms == {e[:-1] + (0,): c * fact[l]
                                      for e, c in entry.q.terms.items() if e[-1] == l}
        top = max((e[-1] for e in entry.q.terms), default=0)
        if l == 0:
            rep.add(f"{tag}-leading", lead_ok and top == 0,
                    "member 0 equals the twisted relation power")
        else:
            rep.add(f"{tag}-leading", lead_ok,
                    "z^l coefficient of l! * member equals the twisted relation power")
            rep.add(f"{tag}-degree-drop", lead_ok and top <= l,
                    "l! * member minus the leading block has z-degree < l")
        rep.add(f"{tag}-axis-constant", axis_map(entry.q).is_constant(),
                "axis image of the member is a constant")

    sizes = [len(cert.entries[-1].tails[i].terms) for i in range(len(cert.entries[-1].tails))]
    rep.add("tail-growth", True, f"tail term counts by step: {sizes}")
    return rep
