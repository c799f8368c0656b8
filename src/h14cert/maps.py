"""The two ring maps the pipeline uses: the axis collapse and the twist.

The axis collapse eps fixes x1 (and z) and sends x2, ..., xn to zero; it
is a term filter.  The twist is a RingMap, the inversion of one pivot:

    pivot -> 1/pivot,   xi -> pivot^{w_i} * xi,   z -> z + shift.

On exponents only the pivot's entry changes, to sum_i w_i*e_i - e_pivot:
an involution under which distinct monomials have distinct images, so
terms map one by one and z is translated by `subst`.  The
pipeline's twist (pivot x1 over x1..xn, no shift), `inversion_map`, its
inverse and the preslice involution (all weights 0, no shift) are the
instances.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .algebra import Expo, LaurentPoly, VarSet, xz_vars
from .errors import VariableMismatch


class RingMap:
    """The automorphism sending the pivot to 1/pivot, every other variable
    xi to pivot^{weights[i]} * xi (coefficient 1), and z to z + shift.
    The pivot and z carry weight 0, so the monomial part fixes z and the
    shift is a translation of z alone.

    The exponent map is an involution, so the inverse has the same weights
    and the shift -apply(shift)."""

    __slots__ = ("vars", "pivot", "weights", "shift", "_p", "_z")

    def __init__(self, vars: VarSet, pivot: str, weights: Sequence[int],
                 shift: LaurentPoly | None = None):
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(vars):
            raise VariableMismatch("one weight per variable required")
        if pivot == "z":
            raise VariableMismatch("z cannot be the pivot")
        p = vars.index(pivot)
        if weights[p] or ("z" in vars.names and weights[vars.index("z")]):
            raise VariableMismatch("the pivot and z must have weight 0")
        z = vars.index("z") if shift is not None else None
        if z is not None and (shift.vars != vars or any(e[z] for e in shift.terms)):
            raise VariableMismatch(
                "the z-shift must be a z-free polynomial over the map's variables"
            )
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "_p", p)
        object.__setattr__(self, "_z", z)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("RingMap is immutable")

    def _mono(self, e: Expo) -> Expo:
        out = list(e)
        out[self._p] = sum(map(mul, self.weights, e)) - e[self._p]
        return tuple(out)

    def image_of(self, name: str) -> LaurentPoly:
        return self.apply(LaurentPoly.variable(self.vars, name))

    def apply(self, p: LaurentPoly) -> LaurentPoly:
        """Apply to a polynomial over the map's own VarSet: the same names
        and the same Laurent flags.  Terms map one by one; with a shift,
        z is then translated by one `subst` call, z -> z + shift."""
        if p.vars != self.vars:
            raise VariableMismatch(f"map over {self.vars.names} applied to {p.vars.names}")
        mono, z = self._mono, self._z
        out = LaurentPoly(self.vars, {mono(e): c for e, c in p.terms.items()},
                          _clean=False)
        if z is None or not any(e[z] for e in out.terms):
            return out
        images = {name: LaurentPoly.variable(self.vars, name) for name in self.vars.names}
        images["z"] = images["z"] + self.shift
        return out.subst(images)

    # No caller: perfbench/spans.py wraps RingMap.apply_rf by name, and
    # without it `perfbench/run.py --trace 1` stops in `Tracer.install` with
    # KeyError: 'apply_rf'.  Drop the method and that span together.
    def apply_rf(self, pair: tuple[LaurentPoly, LaurentPoly]) -> tuple[LaurentPoly, LaurentPoly]:
        return self.apply(pair[0]), self.apply(pair[1])

    def inverse(self) -> "RingMap":
        if self.shift is None:
            return self
        return RingMap(self.vars, self.pivot, self.weights, -self.apply(self.shift))


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

    Its inverse (same weights) translates z by -shift(x1) instead.  The
    pipeline twists z-free data only; this map serves `demo` and the tests.
    """
    n = len(weights) + 1
    vars = xz_vars(n)
    x1 = shift.vars.index("x1")
    if any(k and (pos != x1 or k < 0) for e in shift.terms for pos, k in enumerate(e)):
        raise VariableMismatch("shift polynomial must lie in k[x1]")
    at_inv = LaurentPoly(vars, {(-e[x1],) + (0,) * n: c for e, c in shift.terms.items()},
                         _clean=False)
    return RingMap(vars, "x1", (0, *weights, 0), at_inv)
