"""Exact sparse arithmetic for multivariate Laurent polynomials over Q.

A polynomial is a map {exponent tuple -> Fraction} over a fixed, ordered
variable set.  Per-variable flags record which variables may carry negative
exponents; everything else is an ordinary polynomial variable.  All values
are immutable by convention (operations return fresh objects), coefficients
are `fractions.Fraction`, and equality is exact equality of term maps.
No floating point appears anywhere in this package.

Every product of two multi-term operands is one packed convolution over
integer numerators, `_convolve`: `__mul__` makes a Fraction per term, and
`mul_numerators` keeps the integers, for callers that cross-multiply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import add, lshift, sub
from typing import Mapping, Sequence

from .errors import (
    NotDivisible,
    NotInvertible,
    VariableMismatch,
    ZeroInput,
)

Expo = tuple[int, ...]


def qq(value) -> Fraction:
    """Coerce an int or Fraction to an exact rational.

    A float is rejected, since converting it would smuggle binary rounding
    into an exact computation; so is text, read only by `frac_from_str`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class VarSet:
    """An ordered tuple of variable names plus per-variable Laurent flags."""

    names: tuple[str, ...]
    laurent: tuple[bool, ...]

    def __post_init__(self):
        if len(self.names) != len(self.laurent):
            raise VariableMismatch("names and laurent flags differ in length")
        if len(set(self.names)) != len(self.names):
            raise VariableMismatch(f"duplicate variable names: {self.names}")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise VariableMismatch(f"unknown variable {name!r} in {self.names}") from None


def x_vars(n: int) -> VarSet:
    """x1,...,xn with only x1 allowed negative exponents."""
    if n < 1:
        raise VariableMismatch("need at least one variable")
    names = tuple(f"x{i}" for i in range(1, n + 1))
    return VarSet(names, (True,) + (False,) * (n - 1))


def xz_vars(n: int) -> VarSet:
    """x1,...,xn,z with only x1 allowed negative exponents."""
    base = x_vars(n)
    return VarSet(base.names + ("z",), base.laurent + (False,))


def plain_vars(*names: str) -> VarSet:
    """Ordinary polynomial variables, no negative exponents anywhere."""
    return VarSet(tuple(names), (False,) * len(names))


class LaurentPoly:
    """Sparse exact Laurent polynomial over a fixed VarSet."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarSet, terms=(), *, _clean: bool = True):
        items = terms.items() if hasattr(terms, "items") else terms
        if _clean:
            clean: dict[Expo, Fraction] = {}
            width = len(vars)
            strict = [pos for pos, flag in enumerate(vars.laurent) if not flag]
            for exps, coeff in items:
                c = coeff if type(coeff) is Fraction else qq(coeff)
                if not c:
                    continue
                e = tuple(exps)
                if len(e) != width:
                    raise VariableMismatch(
                        f"exponent tuple {e} has wrong width for {vars.names}"
                    )
                for pos in strict:
                    if e[pos] < 0:
                        raise VariableMismatch(
                            f"negative exponent on non-Laurent variable "
                            f"{vars.names[pos]!r}"
                        )
                if e in clean:
                    c += clean[e]
                    if not c:
                        del clean[e]
                        continue
                clean[e] = c
            object.__setattr__(self, "terms", clean)
        else:
            object.__setattr__(self, "terms", dict(items))
        object.__setattr__(self, "vars", vars)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: VarSet) -> "LaurentPoly":
        return cls(vars, {}, _clean=False)

    @classmethod
    def const(cls, vars: VarSet, value) -> "LaurentPoly":
        c = qq(value)
        if c == 0:
            return cls.zero(vars)
        return cls(vars, {(0,) * len(vars): c}, _clean=False)

    @classmethod
    def one(cls, vars: VarSet) -> "LaurentPoly":
        return cls.const(vars, 1)

    @classmethod
    def variable(cls, vars: VarSet, name: str) -> "LaurentPoly":
        exps = [0] * len(vars)
        exps[vars.index(name)] = 1
        return cls(vars, {tuple(exps): Fraction(1)}, _clean=False)

    @classmethod
    def monomial(cls, vars: VarSet, exps: Sequence[int], coeff=1) -> "LaurentPoly":
        return cls(vars, {tuple(exps): qq(coeff)})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        zero = (0,) * len(self.vars)
        return set(self.terms) == {zero}

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def coeff(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def is_polynomial(self) -> bool:
        """No negative exponents on any variable (Laurent-flagged or not)."""
        return min(chain.from_iterable(self.terms), default=0) >= 0

    def terms_sorted(self) -> list[tuple[Expo, Fraction]]:
        """Terms in lexicographically descending order (keys sorted alone: int-tuple compares)."""
        return [(e, self.terms[e]) for e in sorted(self.terms, reverse=True)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.vars != self.vars:
                raise VariableMismatch(
                    f"mixed variable sets {self.vars.names} vs {other.vars.names}"
                )
            return other
        return LaurentPoly.const(self.vars, other)

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPoly(self.vars, out, _clean=False)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.vars, {e: -c for e, c in self.terms.items()}, _clean=False)

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        a = self.terms
        if isinstance(other, LaurentPoly):
            b = self._coerce(other).terms
        else:                                   # a scalar is a constant term
            c = qq(other)
            b = {(0,) * len(self.vars): c} if c else {}
        if not a or not b:
            return LaurentPoly.zero(self.vars)
        if len(a) == 1 or len(b) == 1:
            # a shift keeps distinct exponents distinct: nothing accumulates
            (e0, c0), = (b if len(b) == 1 else a).items()
            many = a if len(b) == 1 else b
            n0, d0 = c0.numerator, c0.denominator
            if any(e0):
                many = {tuple(map(add, e, e0)): c for e, c in many.items()}
            if n0 != d0:
                many = {e: Fraction(c.numerator * n0, c.denominator * d0)
                        for e, c in many.items()}
            return LaurentPoly(self.vars, many, _clean=False)
        exps, nums, den = _convolve(a, b)
        return LaurentPoly(self.vars, dict(zip(exps, map(Fraction, nums, repeat(den)))),
                           _clean=False)

    def mul_numerators(self, other: "LaurentPoly") -> tuple[dict[Expo, int], int]:
        """self * other as ({exponent: numerator}, denominator), no Fraction made."""
        a, b = self.terms, self._coerce(other).terms
        exps, nums, den = _convolve(a, b) if a and b else ((), (), 1)
        return dict(zip(exps, nums)), den

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "LaurentPoly":
        c = qq(scalar)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (Fraction(1) / c)

    def invert_term(self) -> "LaurentPoly":
        """Inverse of a single-term polynomial, when the representation
        allows it (all non-Laurent exponents must be zero)."""
        if len(self.terms) != 1:
            raise NotInvertible(f"not a single term: {self}")
        (e, c), = self.terms.items()
        for pos, k in enumerate(e):
            if k != 0 and not self.vars.laurent[pos]:
                raise NotInvertible(
                    f"cannot invert {self}: {self.vars.names[pos]!r} is not Laurent"
                )
        inv = tuple(-k for k in e)
        return LaurentPoly(self.vars, {inv: Fraction(1) / c}, _clean=False)

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int):
            raise TypeError("exponent must be an int")
        if k < 0:
            return self.invert_term() ** (-k)
        result = LaurentPoly.one(self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- degrees, orders, derivatives ----------------------------------

    def degree_in(self, name: str) -> int:
        if not self.terms:
            raise ZeroInput("degree of the zero polynomial")
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def order_in(self, name: str) -> int:
        """Smallest exponent of `name` across all terms (x1-adic order
        when name='x1')."""
        if not self.terms:
            raise ZeroInput("order of the zero polynomial")
        i = self.vars.index(name)
        return min(e[i] for e in self.terms)

    def deriv(self, name: str) -> "LaurentPoly":
        # e -> e - 1 on one coordinate is injective: no two terms collide;
        # a factor of 1 is skipped, and any other scales the numerator alone
        i = self.vars.index(name)
        return LaurentPoly(self.vars, {e[:i] + (e[i] - 1,) + e[i + 1:]:
                                       c if e[i] == 1 else
                                       Fraction(c.numerator * e[i], c.denominator)
                                       for e, c in self.terms.items() if e[i]},
                           _clean=False)

    # -- substitution ---------------------------------------------------

    def subst(self, images: Mapping[str, "LaurentPoly"]) -> "LaurentPoly":
        """Evaluate at polynomial images of the variables.

        Every variable must have an image and all images must share one
        target VarSet.  A variable occurring with negative exponents needs
        an invertible (single-term) image; otherwise NotInvertible.

        Powers are shared by all terms of the call: each positive one is
        made from the next lower one that occurs (the k-th from the
        (k-1)-th, a gap by `**`); negative powers go through `**`.
        """
        names = self.vars.names
        for name in names:
            if name not in images:
                raise VariableMismatch(f"no image supplied for {name!r}")
        targets = {images[name].vars for name in names}
        if len(targets) != 1:
            raise VariableMismatch("images live over different variable sets"
                                   if targets else "empty variable set")
        target = targets.pop()
        if not self.terms:
            return LaurentPoly.zero(target)

        powers: list[dict[int, LaurentPoly]] = []
        for idx, name in enumerate(names):
            img, got, last, last_k = images[name], {}, None, 0
            for k in sorted({e[idx] for e in self.terms if e[idx] > 0}):
                step = img if k - last_k == 1 else img ** (k - last_k)
                last = got[k] = step if last is None else last * step
                last_k = k
            powers.append(got)

        acc: dict[Expo, Fraction] = {}
        for e, c in self.terms.items():
            prod = LaurentPoly.const(target, c)
            for idx, k in enumerate(e):
                if not k:
                    continue
                got = powers[idx].get(k)
                if got is None:                        # a negative power
                    got = powers[idx][k] = images[names[idx]] ** k
                prod = prod * got
                if prod.is_zero():
                    break
            for ee, cc in prod.terms.items():
                s = acc.get(ee, Fraction(0)) + cc
                if s == 0:
                    acc.pop(ee, None)
                else:
                    acc[ee] = s
        return LaurentPoly(target, acc, _clean=False)

    # -- moving between variable sets ------------------------------------

    def with_vars(self, target: VarSet) -> "LaurentPoly":
        """Re-home onto a VarSet with the same names (possibly laxer flags),
        a superset of names, or a subset that still covers every variable
        actually occurring; exponents are validated against the target."""
        if target == self.vars:
            return self
        pos = {
            name: target.index(name)
            for i, name in enumerate(self.vars.names)
            if name in target.names or any(e[i] for e in self.terms)
        }
        width = len(target)
        out: dict[Expo, Fraction] = {}
        for e, c in self.terms.items():
            ne = [0] * width
            for name, k in zip(self.vars.names, e):
                if k:
                    ne[pos[name]] = k
            out[tuple(ne)] = c
        return LaurentPoly(target, out)

    # -- display ----------------------------------------------------------

    def _format_monomial(self, exps: Expo) -> str:
        parts = []
        for name, k in zip(self.vars.names, exps):
            if k == 0:
                continue
            parts.append(name if k == 1 else f"{name}^{k}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, c in self.terms_sorted():
            mono = self._format_monomial(exps)
            mag = abs(c)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"<LaurentPoly {self}>"


def _convolve(a: dict[Expo, Fraction], b: dict[Expo, Fraction]) -> tuple:
    """The product of two nonempty term maps as (exponents, nonzero
    numerators, denominator).  Each exponent tuple is packed into one int,
    less its operand's minima, variable i in a field of (span_a + span_b).
    bit_length() bits (span: max - min exponent of i): a field holds any
    sum, so no key sum carries across fields.  Keys are unbounded ints."""
    cols_a, cols_b = list(zip(*a)), list(zip(*b))
    lo_a, lo_b = list(map(min, cols_a)), list(map(min, cols_b))
    shifts, fields, at = [], [], 0
    for lo, hi in zip(map(add, lo_a, lo_b), map(add, map(max, cols_a), map(max, cols_b))):
        bits = (hi - lo).bit_length()
        shifts.append(at)
        fields.append((at, (1 << bits) - 1, lo))
        at += bits
    base_a, base_b = sum(map(lshift, lo_a, shifts)), sum(map(lshift, lo_b, shifts))
    da = math.lcm(*(c.denominator for c in a.values()))
    db = math.lcm(*(c.denominator for c in b.values()))
    ia = [(sum(map(lshift, e, shifts)) - base_a, c.numerator * (da // c.denominator))
          for e, c in a.items()]
    ib = [(sum(map(lshift, e, shifts)) - base_b, c.numerator * (db // c.denominator))
          for e, c in b.items()]
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in ia:
        for k2, c2 in ib:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    keys = [k for k, v in out.items() if v]
    cols = [[(k >> s & m) + lo for k in keys] for s, m, lo in fields]   # unpacked by column
    return zip(*cols) if cols else [()] * len(keys), [v for v in out.values() if v], da * db


def _exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division of multivariate polynomials by leading-term elimination
    (lexicographically largest term).  Raises NotDivisible when the quotient
    would leave the ring.

    Monomials in the Laurent-flagged variables are units, so both operands
    are first divided by their lowest power of each such variable; the
    quotient of the two results is then a polynomial in every variable, and
    the elimination runs over the well-ordered exponents of a polynomial
    ring, which makes it terminate."""
    if b.is_zero():
        raise ZeroInput("division by the zero polynomial")
    if b.is_constant():
        return a / b.constant_term()
    if a.is_zero():
        return a
    flags = list(enumerate(a.vars.laurent))
    low_a = [min(e[i] for e in a.terms) if flag else 0 for i, flag in flags]
    low_b = [min(e[i] for e in b.terms) if flag else 0 for i, flag in flags]
    b_terms = {tuple(map(sub, e, low_b)): c for e, c in b.terms.items()}
    lead_b = max(b_terms)
    cb = b_terms[lead_b]
    rem = {tuple(map(sub, e, low_a)): c for e, c in a.terms.items()}
    quot: dict[Expo, Fraction] = {}
    while rem:
        lead_r = max(rem)
        qe = tuple(map(sub, lead_r, lead_b))
        if min(qe) < 0:
            raise NotDivisible(f"{b} does not divide {a}")
        qc = rem[lead_r] / cb
        quot[qe] = qc
        for e, c in b_terms.items():
            ne = tuple(map(add, qe, e))
            s = rem.get(ne, Fraction(0)) - qc * c
            if s == 0:
                rem.pop(ne, None)
            else:
                rem[ne] = s
    shift = tuple(map(sub, low_a, low_b))
    return LaurentPoly(a.vars, {tuple(map(add, e, shift)): c for e, c in quot.items()},
                       _clean=False)


def coeffs_in(p: LaurentPoly, name: str) -> list[LaurentPoly]:
    """The coefficients of p as a polynomial in `name`, lowest power first;
    each lies on p's VarSet with the exponent of `name` set to 0."""
    i = p.vars.index(name)
    parts: list[dict[Expo, Fraction]] = [{} for _ in range(p.degree_in(name) + 1)]
    for e, c in p.terms.items():
        if e[i] < 0:
            raise VariableMismatch(f"{p} has a negative power of {name!r}")
        parts[e[i]][e[:i] + (0,) + e[i + 1:]] = c
    return [LaurentPoly(p.vars, t, _clean=False) for t in parts]


def sylvester_matrix(a: LaurentPoly, b: LaurentPoly, name: str) -> list[list[LaurentPoly]]:
    """The (deg a + deg b)-square Sylvester matrix of a and b as polynomials
    in `name`, coefficients descending."""
    if a.is_zero() or b.is_zero():
        raise ZeroInput("Sylvester matrix of a zero polynomial")
    a_desc = coeffs_in(a, name)[::-1]
    b_desc = coeffs_in(b, name)[::-1]
    m, n = len(a_desc) - 1, len(b_desc) - 1
    if m == 0 or n == 0:
        raise ZeroInput("Sylvester matrix needs two positive-degree inputs")
    size = m + n
    zero = LaurentPoly.zero(a.vars)
    rows = []
    for i in range(n):
        rows.append([zero] * i + a_desc + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + b_desc + [zero] * (size - n - 1 - i))
    return rows


def determinant_fraction_free(matrix: list[list[LaurentPoly]], vars: VarSet) -> LaurentPoly:
    """Bareiss one-step fraction-free elimination; every division is exact."""
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one(vars)
    a = [row[:] for row in matrix]
    sign = 1
    prev = LaurentPoly.one(vars)
    zero = LaurentPoly.zero(vars)
    for k in range(n - 1):
        if a[k][k].is_zero():
            for r in range(k + 1, n):
                if not a[r][k].is_zero():
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                # a banded (Sylvester) matrix has many zero entries: a product
                # with a zero factor, or a zero numerator, is skipped
                num = a[i][j] * pivot if a[i][j] else zero
                if aik and a[k][j]:
                    num = num - aik * a[k][j]
                a[i][j] = _exact_div(num, prev) if num else num
            a[i][k] = zero
        prev = pivot
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def resultant(a: LaurentPoly, b: LaurentPoly, name: str) -> LaurentPoly:
    """Resultant of a and b as polynomials in the variable `name`: a
    polynomial on their common VarSet in which `name` does not occur.

    Degenerate degrees follow the usual conventions: res(a0, b) = a0^deg(b),
    res(a, b0) = b0^deg(a), and res of two constants is 1.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroInput("resultant of a zero polynomial")
    if a.vars != b.vars:
        raise VariableMismatch("resultant operands over different variable sets")
    m, n = a.degree_in(name), b.degree_in(name)
    if m == 0 and n == 0:
        return LaurentPoly.one(a.vars)
    if m == 0:
        return a ** n
    if n == 0:
        return b ** m
    return determinant_fraction_free(sylvester_matrix(a, b, name), a.vars)
