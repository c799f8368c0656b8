"""Checks on the program's outputs, apart from the program's own verifier.

`structural_problems` reads a certificate's JSON with this file's own code.
`oracle_problems` recomputes the relation element and the leading blocks
with sympy, which the h14cert package does not use.  Each returns a list
of problems; an empty list means the certificate passed.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _is_x1(poly: dict, n: int) -> bool:
    return (poly["vars"] == [f"x{i}" for i in range(1, n + 1)]
            and [(t["e"], Fraction(t["c"])) for t in poly["terms"]]
            == [([1] + [0] * (n - 1), 1)])


def _univariate(poly: dict) -> dict[int, Fraction]:
    return {t["e"][0]: Fraction(t["c"]) for t in poly["terms"]}


def structural_problems(cert: dict, lmax: int) -> list[str]:
    """Entries run 0..lmax; each q_l is a polynomial in x1..xn, z of
    z-degree exactly l whose axis image (x2..xn -> 0) is constant; and,
    since every pack here is an invariant pack, h = x1, d = 2 and
    Pi = T^2 - G^3."""
    problems = []
    wit = cert["witness"]
    n = wit["n"]
    ls = [entry["l"] for entry in cert["entries"]]
    if ls != list(range(lmax + 1)):
        problems.append(f"entries run {ls}, expected 0..{lmax}")
    xz = [f"x{i}" for i in range(1, n + 1)] + ["z"]
    for entry in cert["entries"]:
        l, q = entry["l"], entry["q"]
        if q["vars"] != xz:
            problems.append(f"q_{l} is over {q['vars']}")
            continue
        exps = [t["e"] for t in q["terms"]]
        if any(k < 0 for e in exps for k in e):
            problems.append(f"q_{l} has a negative exponent")
        if max((e[n] for e in exps), default=None) != l:
            problems.append(f"q_{l} does not have z-degree {l}")
        if any(e[0] or e[n] for e in exps if not any(e[1:n])):
            problems.append(f"axis image of q_{l} is not constant")
        if len(entry["fvec"]) != l:
            problems.append(f"entry {l} carries {len(entry['fvec'])} tail coefficients")
    if not _is_x1(wit["h"], n):
        problems.append("h is not x1")
    if cert["d"] != 2:
        problems.append(f"d = {cert['d']}, expected 2")
    pi_coeffs = [_univariate(c) for c in wit["Pi"]]
    if pi_coeffs != [{3: Fraction(-1)}, {}, {0: Fraction(1)}]:
        problems.append("Pi is not T^2 - G^3")
    return problems


def _sympy_poly(poly: dict, gens, sympy):
    terms = {tuple(t["e"]): sympy.Rational(t["c"]) for t in poly["terms"]}
    return sympy.Poly.from_dict(terms, *gens, domain="QQ")


def _as_fractions(mapping) -> dict[tuple, Fraction]:
    return {tuple(e): Fraction(int(c.p), int(c.q)) for e, c in mapping.items() if c}


def oracle_problems(cert: dict) -> list[str]:
    """pi = f^2 - g^3, and l! * [z^l] q_l = theta(pi)^e for every member,
    where theta sends x1 -> 1/x1 and xi -> x1^t_i * xi."""
    import sympy

    wit = cert["witness"]
    n = wit["n"]
    xs = sympy.symbols(" ".join(f"x{i}" for i in range(1, n + 1)))
    xs = xs if isinstance(xs, tuple) else (xs,)
    f = _sympy_poly(wit["f"], xs, sympy)
    g = _sympy_poly(wit["g"], xs, sympy)
    pi = _sympy_poly(cert["pi"], xs, sympy)
    problems = []
    if f ** 2 - g ** 3 != pi:
        problems.append("pi differs from f^2 - g^3")

    images = {xs[0]: 1 / xs[0]}
    images.update({x: xs[0] ** t * x for x, t in zip(xs[1:], wit["t"])})
    twisted = sympy.expand(pi.as_expr().subs(images, simultaneous=True))
    try:
        lead = sympy.Poly(twisted, *xs, domain="QQ") ** cert["e"]
    except sympy.PolynomialError:
        return problems + ["theta(pi) is not a polynomial"]
    want = _as_fractions(lead.as_dict())
    for entry in cert["entries"]:
        l = entry["l"]
        block = {tuple(t["e"][:n]): Fraction(t["c"]) * math.factorial(l)
                 for t in entry["q"]["terms"] if t["e"][n] == l}
        if block != want:
            problems.append(f"l! * [z^{l}] q_{l} differs from theta(pi)^e")
    return problems
