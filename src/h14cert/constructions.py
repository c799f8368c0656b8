"""Ready-made inputs for the pipeline.

Two families are provided: witness packs built from permutation-invariant
rings (orbit sums of monomials under a subgroup of the symmetric group,
expressed through a triangular coordinate change), and the small locally
nilpotent derivation toolkit (apply, preslice search, and the preslice
inversion involution).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement

from .algebra import Expo, LaurentPoly, VarSet, x_vars
from .errors import UnsupportedCase, VariableMismatch, WitnessInvalid
from .maps import RingMap
from .witness import WitnessPack


@dataclass(frozen=True)
class PermGroupSpec:
    """A permutation group on n letters, by one-line generators (1-based)."""

    n: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise VariableMismatch(f"n must be at least 1, got {self.n}")
        for gen in self.generators:
            if sorted(gen) != list(range(1, self.n + 1)):
                raise VariableMismatch(
                    f"{gen} is not a permutation of 1..{self.n}"
                )

    def apply(self, perm: tuple[int, ...], exps: Expo) -> Expo:
        """Push a monomial exponent vector through y_i -> y_{perm(i)}."""
        out = [0] * self.n
        for i, k in enumerate(exps):
            out[perm[i] - 1] = k
        return tuple(out)

    def orbit(self, exps: Expo) -> set[Expo]:
        seen = {tuple(exps)}
        frontier = [tuple(exps)]
        while frontier:
            cur = frontier.pop()
            for gen in self.generators:
                nxt = self.apply(gen, cur)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


def orbit_sum(group: PermGroupSpec, exps: Expo) -> LaurentPoly:
    """The sum over the orbit of a monomial in the y-coordinates, written
    out in x-coordinates: y1 = x1, y2 = x2 - x1 + x1^2, y_i = x_i (i >= 3).

    Each orbit point y^e is the e2-th power of the y2 image shifted by
    x1^e1 * x3^e3 * ...; the powers come from one table, each made from the
    one below, and the shifted copies are summed by one constructor call.
    """
    if len(exps) != group.n or any(k < 0 for k in exps):
        raise VariableMismatch("monomial exponents must be nonnegative, length n")
    return _orbit_sum(group.orbit(exps), _y2_powers(group.n, max(exps)))


def _y2_powers(n: int, top: int) -> list[LaurentPoly]:
    """(x2 - x1 + x1^2)^k over x1..xn for k = 0..top."""
    if n < 2:
        raise VariableMismatch("need at least two variables")
    vars = x_vars(n)
    x1 = LaurentPoly.variable(vars, "x1")
    y2 = LaurentPoly.variable(vars, "x2") - x1 + x1 * x1
    powers = [LaurentPoly.one(vars)]
    for _ in range(top):
        powers.append(powers[-1] * y2)
    return powers


def _orbit_sum(orbit: set[Expo], powers: list[LaurentPoly]) -> LaurentPoly:
    """Sum of y^e over the orbit, from the powers of the y2 image."""
    vars = powers[0].vars
    one = Fraction(1)
    return LaurentPoly(vars, chain.from_iterable(
        (powers[e[1]] * LaurentPoly(vars, {(e[0], 0) + e[2:]: one}, _clean=False)
         ).terms.items() for e in orbit))


def invariant_generators(group: PermGroupSpec, max_degree: int) -> list[LaurentPoly]:
    """Orbit sums of all monomials of total degree 1..max_degree, one per
    orbit, in a deterministic order (degree, then descending exponents)."""
    return _invariant_generators(group, max_degree)[1]


def _invariant_generators(group: PermGroupSpec, max_degree: int
                          ) -> tuple[list[Expo], list[LaurentPoly]]:
    """The lex-largest point of each orbit that `invariant_generators`
    enumerates and, in the same order, its orbit sum."""
    reps, orbits = [], []
    for degree in range(1, max_degree + 1):
        seen: set[Expo] = set()
        for exps in _monomials(group.n, degree):
            # the monomials come in descending order, so the first point
            # met of an orbit is its lex-largest; the orbit is walked once
            if exps not in seen:
                orbit = group.orbit(exps)
                seen |= orbit
                reps.append(exps)
                orbits.append(orbit)
    powers = _y2_powers(group.n, max_degree) if orbits else []
    return reps, [_orbit_sum(orbit, powers) for orbit in orbits]


def _monomials(n: int, degree: int):
    """All exponent tuples of the given total degree, descending lex: the
    multisets of `degree` letters in lex order, as counts per letter."""
    for letters in combinations_with_replacement(range(n), degree):
        exps = [0] * n
        for i in letters:
            exps[i] += 1
        yield tuple(exps)


def invariant_witness_pack(group: PermGroupSpec) -> WitnessPack:
    """The standard witness pack of an invariant ring: generators are orbit
    sums up to degree n, and the distinguished pair is

        f = orbit(y1) + orbit(y1*y2),    g = orbit(y1).

    Requires some group element to send coordinate 1 to coordinate 2.  Then
    y2 is in the orbit of y1, so eps(g) = x1 + (x1^2 - x1) = x1^2 and
    eps(f) = x1^2 + x1*(x1^2 - x1) = x1^3, and the quotient is h = x1;
    `validate_pack` checks both again.
    """
    n = group.n
    if n < 2:
        raise WitnessInvalid("need at least two coordinates")
    e1 = (1,) + (0,) * (n - 1)
    if (0, 1) + (0,) * (n - 2) not in group.orbit(e1):
        raise WitnessInvalid(
            "no group element sends the first coordinate to the second"
        )
    reps, gens = _invariant_generators(group, n)
    # e1 and e12 are the lex-largest points of their orbits: both generators
    idx_g = reps.index(e1)
    idx_pair = reps.index((1, 1) + (0,) * (n - 2))
    g = gens[idx_g]
    f = g + gens[idx_pair]

    u_vars = VarSet(tuple(f"u{i}" for i in range(len(gens))),
                    (False,) * len(gens))
    f_expr = (LaurentPoly.variable(u_vars, f"u{idx_g}")
              + LaurentPoly.variable(u_vars, f"u{idx_pair}"))
    g_expr = LaurentPoly.variable(u_vars, f"u{idx_g}")
    return WitnessPack(n=n, gens=gens, f=f, g=g,
                       f_expr=f_expr, g_expr=g_expr)


# ---------------------------------------------------------------------------
# locally nilpotent derivations and the preslice involution


@dataclass(frozen=True)
class Derivation:
    """A k-derivation of k[x1..xn], determined by the images of the
    variables."""

    n: int
    images: tuple[LaurentPoly, ...]

    def __post_init__(self):
        vars = x_vars(self.n)
        if len(self.images) != self.n:
            raise VariableMismatch("one image per variable required")
        for p in self.images:
            if p.vars != vars:
                raise VariableMismatch("derivation data over the wrong variables")

    @property
    def vars(self) -> VarSet:
        return x_vars(self.n)


def apply_derivation(D: Derivation, p: LaurentPoly) -> LaurentPoly:
    """D(p) = sum_i D(x_i) * dp/dx_i (the Leibniz extension)."""
    out = LaurentPoly.zero(D.vars)
    for name, image in zip(D.vars.names, D.images):
        if image.is_zero():
            continue
        out = out + image * p.deriv(name)
    return out


def find_preslice(D: Derivation, candidates) -> LaurentPoly:
    """First candidate s with D(s) != 0 and D(D(s)) = 0."""
    for s in candidates:
        ds = apply_derivation(D, s)
        if not ds.is_zero() and apply_derivation(D, ds).is_zero():
            return s
    raise UnsupportedCase("no preslice among the candidates")


def preslice_involution(s: LaurentPoly) -> RingMap:
    """The involution inverting a coordinate preslice: s -> 1/s, all other
    variables fixed.  Only a plain coordinate is supported; the result acts
    on the VarSet where that coordinate is Laurent-flagged."""
    if len(s.terms) != 1:
        raise UnsupportedCase("preslice is not a coordinate")
    (exps, coeff), = s.terms.items()
    if coeff != 1 or sum(exps) != 1 or max(exps) != 1:
        raise UnsupportedCase("preslice is not a coordinate")
    idx = exps.index(1)
    lax = VarSet(s.vars.names,
                 tuple(flag or (i == idx) for i, flag in enumerate(s.vars.laurent)))
    return RingMap(lax, s.vars.names[idx], (0,) * len(lax))
