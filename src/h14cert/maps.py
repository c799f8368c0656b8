"""The two ring maps the pipeline uses: the axis collapse and the twist.

The axis collapse eps fixes x1 (and z) and sends x2, ..., xn to zero; it
is a term filter.  The twist theta is an automorphism of the form

    x_i -> monomial (an invertible integer map on exponents),
    z   -> z + shift   (shift a Laurent polynomial in x1),

and a RingMap is exactly that.  Distinct monomials have distinct images,
so applying one maps terms one by one and nothing cancels; only the
z-part is multiplied out.  The inversion twist, its inverse and the
preslice involution are the instances.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import Expo, LaurentPoly, VarSet, xz_vars
from .errors import VariableMismatch, ZeroInput


class RingMap:
    """The automorphism sending each variable to the monomial with exponent
    vector rows[i] (coefficient 1), and z additionally to z + shift.

    The exponent map must be an involution, as for every instance here, so
    the inverse has the same rows and the shift -apply(shift)."""

    __slots__ = ("vars", "rows", "shift", "_cols", "_z")

    def __init__(self, vars: VarSet, rows: Sequence[Expo],
                 shift: LaurentPoly | None = None):
        rows = tuple(tuple(int(k) for k in row) for row in rows)
        width = len(vars)
        if len(rows) != width or any(len(row) != width for row in rows):
            raise VariableMismatch("one exponent row per variable required")
        if any(sum(rows[i][j] * rows[j][k] for j in range(width)) != (i == k)
               for i in range(width) for k in range(width)):
            raise VariableMismatch("the exponent map is not an involution")
        z = vars.index("z") if shift is not None else None
        if z is not None and (shift.vars != vars or any(e[z] for e in shift.terms)):
            raise VariableMismatch(
                "the z-shift must be a z-free polynomial over the map's variables"
            )
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "_z", z)
        # per output position, the (input position, multiplier) pairs of the
        # exponent map; with a translated z the map covers the x-part only and
        # powers of z are expanded as powers of its image
        object.__setattr__(self, "_cols", tuple(
            tuple((i, row[j]) for i, row in enumerate(rows) if row[j] and i != z)
            for j in range(width)
        ))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("RingMap is immutable")

    def _mono(self, e: Expo) -> Expo:
        return tuple(sum(e[i] * m for i, m in col) for col in self._cols)

    def _accept(self, p: LaurentPoly):
        if p.vars != self.vars and not self.vars.accepts(p.vars):
            raise VariableMismatch(
                f"map over {self.vars.names} applied to {p.vars.names}"
            )

    def image_of(self, name: str) -> LaurentPoly:
        img = LaurentPoly.monomial(self.vars, self.rows[self.vars.index(name)])
        return img + self.shift if name == "z" and self.shift is not None else img

    def apply(self, p: LaurentPoly) -> LaurentPoly:
        """Apply to a polynomial over the same variable names; the input's
        Laurent flags must be a subset of the map's own."""
        self._accept(p)
        mono, z = self._mono, self._z
        by_z: dict[int, dict] = {}
        for e, c in p.terms.items():
            by_z.setdefault(e[z] if z is not None else 0, {})[mono(e)] = c
        out = LaurentPoly(self.vars, by_z.pop(0, {}), _clean=False)
        step = self.image_of("z") if by_z else None
        power = LaurentPoly.one(self.vars)
        for k in range(1, max(by_z, default=0) + 1):
            power = power * step
            if k in by_z:
                out = out + LaurentPoly(self.vars, by_z[k], _clean=False) * power
        return out

    # No caller: perfbench/spans.py wraps RingMap.apply_rf by name, and
    # without it `perfbench/run.py --trace 1` stops in `Tracer.install` with
    # KeyError: 'apply_rf'.  Drop the method and that span together.
    def apply_rf(self, pair: tuple[LaurentPoly, LaurentPoly]) -> tuple[LaurentPoly, LaurentPoly]:
        return self.apply(pair[0]), self.apply(pair[1])

    def x1_order(self, p: LaurentPoly) -> int:
        """The x1-order of the image of a nonzero z-free polynomial, read off
        the exponents: min over terms of the image's x1-exponent."""
        self._accept(p)
        if not p.terms:
            raise ZeroInput("order of the zero polynomial")
        if self._z is not None and any(e[self._z] for e in p.terms):
            raise VariableMismatch("x1_order needs a z-free polynomial")
        col = self._cols[self.vars.index("x1")]
        return min(sum(e[i] * m for i, m in col) for e in p.terms)

    def inverse(self) -> "RingMap":
        if self.shift is None:
            return self
        return RingMap(self.vars, self.rows, -self.apply(self.shift))


def axis_map(p: LaurentPoly) -> LaurentPoly:
    """The axis collapse eps: x2, ..., xn -> 0, fixing x1 (and z), over
    x1..xn or x1..xn, z.  A term filter: keeps the terms free of x2..xn."""
    killed = [i for i, name in enumerate(p.vars.names) if name not in ("x1", "z")]
    return LaurentPoly(
        p.vars, {e: c for e, c in p.terms.items() if not any(e[i] for i in killed)},
        _clean=False,
    )


def inversion_map(weights: Sequence[int], shift: LaurentPoly) -> RingMap:
    """The twist over x1..xn, z that inverts x1, rescales each further
    variable by a weight power of x1, and translates z by the shift
    evaluated at 1/x1:

        x1 -> 1/x1,   xi -> x1^{w_i} * xi  (i >= 2),   z -> z + shift(1/x1).

    Its inverse (same weights) translates z by -shift(x1) instead.
    """
    n = len(weights) + 1
    vars = xz_vars(n)
    x1 = shift.vars.index("x1")
    if any(k and (pos != x1 or k < 0) for e in shift.terms for pos, k in enumerate(e)):
        raise VariableMismatch("shift polynomial must lie in k[x1]")
    rows = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    rows[0][0] = -1
    for i, w in enumerate(weights, start=1):
        rows[i][0] = int(w)
    at_inv = LaurentPoly(vars, {(-e[x1],) + (0,) * n: c for e, c in shift.terms.items()},
                         _clean=False)
    return RingMap(vars, rows, at_inv)
