"""Canonical JSON encoding for every value the pipeline exchanges.

Encoding rules: rationals as "num/den" strings (plain integers allowed),
terms in lexicographically descending exponent order, dictionaries built
in a fixed key order.  Round-tripping any value reproduces it exactly,
and serializing twice yields byte-identical text.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter
from typing import Any

from .algebra import LaurentPoly, VarSet, coeffs_in
from .constructions import PermGroupSpec
from .errors import FormatError, VariableMismatch
from .family import FG_VARS, CertEntry, Certificate
from .witness import ANN_VARS, WitnessPack


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

#: the most digits a numerator or denominator may have: CPython's default
#: limit on int-string conversion, checked before `int()` so that a longer
#: one is an input error whatever limit the interpreter is set to
_MAX_DIGITS = 4300


def frac_from_str(s) -> Fraction:
    if isinstance(s, str):
        m = _RATIONAL.fullmatch(s)
        if m is None:
            raise FormatError(f"bad rational {s!r}: expected 'num' or 'num/den'")
        num, den = m.groups()
        if max(len(num.lstrip("-")), len(den or "")) > _MAX_DIGITS:
            raise FormatError(
                f"bad rational {s[:20]!r}...: more than {_MAX_DIGITS} digits"
            )
        if den is None:
            return Fraction(int(num))
        den = int(den)
        if den == 0:
            raise FormatError(f"bad rational {s!r}: zero denominator")
        return Fraction(int(num), den)
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    raise FormatError(f"rational must be a string or int, got {type(s).__name__}")


def _require(cond: bool, message: str):
    if not cond:
        raise FormatError(message)


def _get(obj: dict, key: str, kind, where: str):
    _require(isinstance(obj, dict), f"{where}: expected an object")
    _require(key in obj, f"{where}: missing key {key!r}")
    value = obj[key]
    if kind is int:
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"{where}.{key}: expected an integer")
    elif kind is not None:
        _require(isinstance(value, kind), f"{where}.{key}: wrong type")
    return value


def _all_ints(values) -> bool:
    return all(isinstance(v, int) and not isinstance(v, bool) for v in values)


def _terms_from_json(items: list, width: int, shape: str, where: str, table: dict) -> dict:
    """{exponent tuple: Fraction} from a JSON term list, read item by item;
    `table` holds the Fraction of each str or int coefficient read so far
    from the file (the type is tested first: a bool or a float would find
    an equal int's entry).  Any irregularity reruns `_terms_by_item`."""
    ints = (int,) * width
    terms = {}
    for item in items:
        e, c = (item.get("e"), item.get("c")) if type(item) is dict else (None, None)
        if type(e) is not list or tuple(map(type, e)) != ints or type(c) not in (str, int):
            break
        frac = table.get(c)
        if frac is None:
            try:
                frac = table[c] = frac_from_str(c)
            except FormatError:
                break
        terms[tuple(e)] = frac
    else:
        if len(terms) == len(items):    # else a duplicate exponent
            return terms
    return _terms_by_item(items, width, shape, where)


def _terms_by_item(items: list, width: int, shape: str, where: str) -> dict:
    """The field-by-field reading of `_terms_from_json`, whose messages
    and their order it gives."""
    terms = {}
    for i, item in enumerate(items):
        at = f"{where}.terms[{i}]"
        e = _get(item, "e", list, at)
        _require(len(e) == width and _all_ints(e), f"{at}.e: {shape}")
        c = frac_from_str(_get(item, "c", None, at))
        _require(tuple(e) not in terms, f"{at}: duplicate exponent {e}")
        terms[tuple(e)] = c
    return terms


# -- polynomials -------------------------------------------------------------


class _Terms(list):
    """A term list made by `_terms_to_json`, written from one `%` template."""


def _terms_to_json(p: LaurentPoly) -> _Terms:
    """The "terms" of `p`, coefficients as `str(Fraction)`."""
    return _Terms([{"e": list(e), "c": str(c)} for e, c in p.terms_sorted()])


def poly_to_json(p: LaurentPoly) -> dict:
    return {
        "vars": list(p.vars.names),
        "laurent": [n for n, flag in zip(p.vars.names, p.vars.laurent) if flag],
        "terms": _terms_to_json(p),
    }


def _poly_from_terms(vars: VarSet, terms: dict, where: str) -> LaurentPoly:
    """The polynomial of a term map read by `_terms_from_json`, zero
    coefficients dropped.  A negative exponent on a variable that is not
    Laurent fails on the first such term in JSON order."""
    if not all(terms.values()):
        terms = {e: c for e, c in terms.items() if c}
    if terms and not all(vars.laurent) and min(map(min, terms)) < 0:
        strict = [pos for pos, flag in enumerate(vars.laurent) if not flag]
        cols = list(zip(*terms))
        if min(min(cols[pos]) for pos in strict) < 0:
            e = next(e for e in terms if min(e[pos] for pos in strict) < 0)
            name = next(vars.names[pos] for pos in strict if e[pos] < 0)
            raise FormatError(f"{where}: negative exponent on non-Laurent variable {name!r}")
    return LaurentPoly(vars, terms, _clean=False)


def poly_from_json(obj: Any, where: str = "poly") -> LaurentPoly:
    return _poly_from_json(obj, where, {})


def _poly_from_json(obj: Any, where: str, table: dict) -> LaurentPoly:
    """`poly_from_json` through `table`, which also holds each passed
    ("vars", "laurent") pair's VarSet."""
    names = _get(obj, "vars", list, where)
    flagged = obj.get("laurent", [])
    key = (tuple(names), tuple(flagged)) if isinstance(flagged, list) else None
    try:
        vars = table.get(key)
    except TypeError:                   # an unhashable name, refused below
        vars = None
    if vars is None:
        _require(all(isinstance(n, str) for n in names), f"{where}.vars: names must be strings")
        _require(isinstance(flagged, list), f"{where}.laurent: expected a list")
        _require(all(isinstance(n, str) for n in flagged), f"{where}.laurent: names must be strings")
        _require(set(flagged) <= set(names), f"{where}.laurent: unknown variable name")
        try:
            vars = table[key] = VarSet(tuple(names), tuple(n in flagged for n in names))
        except VariableMismatch as exc:
            raise FormatError(f"{where}: {exc}") from None
    terms = _terms_from_json(_get(obj, "terms", list, where), len(names),
                             f"expected {len(names)} integers", where, table)
    return _poly_from_terms(vars, terms, where)


def unipoly_to_json(P: LaurentPoly) -> list:
    """Pi, whose first variable is T, as the list of its T-coefficients,
    each over the remaining variables."""
    cvars = VarSet(P.vars.names[1:], P.vars.laurent[1:])
    return [poly_to_json(c.with_vars(cvars)) for c in coeffs_in(P, "T")] if P else []


def unipoly_from_json(obj: Any, where: str = "unipoly") -> LaurentPoly:
    return _unipoly_from_json(obj, where, {})


def _unipoly_from_json(obj: Any, where: str, table: dict) -> LaurentPoly:
    """Pi from the list of its T-coefficients: a polynomial over T followed
    by the coefficients' variables."""
    _require(isinstance(obj, list), f"{where}: expected a list of coefficients")
    coeffs = [_poly_from_json(c, f"{where}[{i}]", table) for i, c in enumerate(obj)]
    if not coeffs:
        return LaurentPoly.zero(ANN_VARS)
    cvars = coeffs[0].vars
    _require(all(c.vars == cvars for c in coeffs),
             f"{where}: coefficient over the wrong variable set")
    try:
        vars = VarSet(("T",) + cvars.names, (False,) + cvars.laurent)
    except VariableMismatch as exc:
        raise FormatError(f"{where}: {exc}") from None
    return LaurentPoly(vars, {(s,) + e: c for s, coeff in enumerate(coeffs)
                              for e, c in coeff.terms.items()}, _clean=False)


def fgpoly_to_json(p: LaurentPoly) -> dict:
    """A tail over FG_VARS: its terms only, the variables being implied."""
    return {"terms": _terms_to_json(p)}


def fgpoly_from_json(obj: Any, where: str = "fgpoly") -> LaurentPoly:
    return _fgpoly_from_json(obj, where, {})


def _fgpoly_from_json(obj: Any, where: str, table: dict) -> LaurentPoly:
    terms = _terms_from_json(_get(obj, "terms", list, where), 3,
                             "expected three integers", where, table)
    return _poly_from_terms(FG_VARS, terms, where)


# -- witness packs and certificates -------------------------------------------


def pack_to_json(pack: WitnessPack) -> dict:
    out: dict[str, Any] = {
        "n": pack.n,
        "R_gens": [poly_to_json(p) for p in pack.gens],
        "f": poly_to_json(pack.f),
        "g": poly_to_json(pack.g),
    }
    if pack.h is not None:
        out["h"] = poly_to_json(pack.h)
    if pack.ann is not None:
        out["Pi"] = unipoly_to_json(pack.ann)
    if pack.weights is not None:
        out["t"] = list(pack.weights)
    if pack.clearing is not None:
        out["e"] = pack.clearing
    if pack.f_expr is not None:
        out["f_expr"] = poly_to_json(pack.f_expr)
    if pack.g_expr is not None:
        out["g_expr"] = poly_to_json(pack.g_expr)
    return out


def pack_from_json(obj: Any, where: str = "witness") -> WitnessPack:
    return _pack_from_json(obj, where, {})


def _pack_from_json(obj: Any, where: str, table: dict) -> WitnessPack:
    pack = WitnessPack(
        n=_get(obj, "n", int, where),
        gens=[_poly_from_json(p, f"{where}.R_gens[{i}]", table)
              for i, p in enumerate(_get(obj, "R_gens", list, where))],
        f=_poly_from_json(_get(obj, "f", dict, where), f"{where}.f", table),
        g=_poly_from_json(_get(obj, "g", dict, where), f"{where}.g", table),
    )
    if "h" in obj:
        pack.h = _poly_from_json(obj["h"], f"{where}.h", table)
    if "Pi" in obj:
        pack.ann = _unipoly_from_json(obj["Pi"], f"{where}.Pi", table)
    if "t" in obj:
        t = obj["t"]
        _require(isinstance(t, list) and _all_ints(t),
                 f"{where}.t: expected a list of integers")
        pack.weights = tuple(t)
    if "e" in obj:
        pack.clearing = _get(obj, "e", int, where)
    if "f_expr" in obj:
        pack.f_expr = _poly_from_json(obj["f_expr"], f"{where}.f_expr", table)
    if "g_expr" in obj:
        pack.g_expr = _poly_from_json(obj["g_expr"], f"{where}.g_expr", table)
    return pack


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "witness": pack_to_json(cert.pack),
        "pi": poly_to_json(cert.rel),
        "d": cert.d,
        "e": cert.clearing,
        "entries": [
            {
                "l": entry.l,
                "fvec": [fgpoly_to_json(t) for t in entry.tails],
                "q": poly_to_json(entry.q),
            }
            for entry in cert.entries
        ],
    }


def certificate_from_json(obj: Any, where: str = "certificate") -> Certificate:
    """The certificate of a JSON object.  A "report" key, which older
    builds wrote, is ignored like any other unknown key.  The pack and
    every entry are read through one table of `_terms_from_json`."""
    table: dict = {}
    pack = _pack_from_json(_get(obj, "witness", dict, where), f"{where}.witness", table)
    entries = []
    for i, item in enumerate(_get(obj, "entries", list, where)):
        entries.append(CertEntry(
            l=_get(item, "l", int, f"{where}.entries[{i}]"),
            tails=[_fgpoly_from_json(t, f"{where}.entries[{i}].fvec[{j}]", table)
                   for j, t in enumerate(_get(item, "fvec", list, f"{where}.entries[{i}]"))],
            q=_poly_from_json(_get(item, "q", dict, f"{where}.entries[{i}]"),
                              f"{where}.entries[{i}].q", table),
        ))
    return Certificate(
        pack=pack,
        rel=_poly_from_json(_get(obj, "pi", dict, where), f"{where}.pi", table),
        d=_get(obj, "d", int, where),
        clearing=_get(obj, "e", int, where),
        entries=entries,
    )


# -- constructions -------------------------------------------------------------


def group_from_json(obj: Any, where: str = "group") -> PermGroupSpec:
    n = _get(obj, "n", int, where)
    gens = []
    for i, g in enumerate(_get(obj, "generators", list, where)):
        _require(isinstance(g, list) and _all_ints(g),
                 f"{where}.generators[{i}]: expected a list of integers")
        gens.append(tuple(g))
    try:
        return PermGroupSpec(n=n, generators=tuple(gens))
    except VariableMismatch as exc:
        raise FormatError(f"{where}: {exc}") from None


# -- file helpers ---------------------------------------------------------------


def dumps(obj: Any) -> str:
    """The canonical text of a JSON value: the bytes of
    `json.dumps(obj, indent=2) + "\\n"`, written in one pass.  Values are
    dicts with string keys, lists, strings, ints, bools and None; anything
    else raises TypeError.  A term list made by the codec is written from
    one `%` template if its exponents are exact ints of one width (see
    `_write_terms`); every other list takes the generic path."""
    parts: list[str] = []
    _write(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write(o: Any, nl: str, out) -> None:
    """Append the indent-2 text of `o` to `out`; `nl` is a newline plus
    the indentation of the line `o` starts on."""
    if isinstance(o, str):
        out(_encode_str(o))
    elif o is None:
        out("null")
    elif o is True:
        out("true")
    elif o is False:
        out("false")
    elif isinstance(o, int):
        out(int.__repr__(o))
    elif isinstance(o, list):
        if not o:
            out("[]")
            return
        if type(o) is _Terms and _write_terms(o, nl, out):
            return
        inner = nl + "  "
        if all(type(v) is int for v in o):
            out("[" + inner + ("," + inner).join(map(int.__repr__, o)) + nl + "]")
            return
        sep = "[" + inner
        for v in o:
            out(sep)
            _write(v, inner, out)
            sep = "," + inner
        out(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in o.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out(sep + _encode_str(k) + ": ")
            _write(v, inner, out)
            sep = "," + inner
        out(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write_terms(o: _Terms, nl: str, out) -> bool:
    """Write a codec-made term list from `_item_template`, a `%d` per exponent
    and a `%s` for the coefficient, and return True; its items must keep the
    keys "e" then "c", each "e" a list.  Every exponent must be an exact int
    (`%d` writes a bool as 1), every "e" of the first one's width, at least 1,
    and every "c" a str, or nothing is written and False is returned."""
    try:
        es = list(map(itemgetter("e"), o))
        width = len(es[0])
        if not width or {*map(type, chain.from_iterable(es))} != {int}:
            return False
        item, inner = _item_template(nl, width), nl + "  "
        text = ("," + inner).join([item % (*e, _encode_str(c))
                                   for e, c in zip(es, map(itemgetter("c"), o))])
    except (KeyError, TypeError):
        return False
    out("[" + inner + text + nl + "]")
    return True


@cache
def _item_template(nl: str, width: int) -> str:
    """The `%` template of a term item of `width` exponents after `nl`."""
    inner2, inner3 = nl + "    ", nl + "      "
    return ("{" + inner2 + '"e": [' + inner3 + ("," + inner3).join(["%d"] * width)
            + inner2 + "]," + inner2 + '"c": %s' + nl + "  }")


def decode_json(text: str | bytes, source: str) -> Any:
    """The value of JSON `text` (bytes are read as UTF-8): the one place
    where a decode error becomes a FormatError, which names `source`."""
    try:
        return json.loads(text if isinstance(text, str) else str(text, "utf-8"))
    except ValueError as exc:   # JSONDecodeError, bad UTF-8, over-long integers
        raise FormatError(f"{source} is not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{source} is nested too deeply") from None


def load_json_file(path: str) -> Any:
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    return decode_json(text, path)


def write_json_file(path: str, obj: Any):
    text = dumps(obj)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None
