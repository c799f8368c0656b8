"""Property test of the canonical writer on the codec's own term lists: for
polynomials over 1 to 7 variables and for tails over (f, rel, g), the text
of `dumps` equals the standard library's, and `terms_sorted` gives the
order of the sorted items.  The term template is made per exponent width,
so every width from 1 to 7 is drawn."""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from h14cert import LaurentPoly, VarSet, dumps, fgpoly_to_json, poly_to_json
from h14cert.family import FG_VARS

EXPONENTS = st.one_of(st.integers(0, 3), st.integers(0, 2 ** 70))
COEFFS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2 ** 80), 2 ** 80),
    st.fractions(max_denominator=10 ** 6),
    st.builds(Fraction, st.integers(-(2 ** 70), 2 ** 70), st.integers(1, 2 ** 70)),
)


@st.composite
def polys(draw, vars=None):
    """A polynomial over `vars`, or over 1 to 7 variables with random
    Laurent flags; a Laurent variable may carry a negative exponent.  Some
    are zero, and small exponents make clashing terms, summed on input."""
    if vars is None:
        width = draw(st.integers(1, 7))
        vars = VarSet(tuple(f"v{i}" for i in range(width)),
                      tuple(draw(st.lists(st.booleans(), min_size=width, max_size=width))))
    exponent = [st.one_of(EXPONENTS, st.integers(-(2 ** 66), -1)) if flag else EXPONENTS
                for flag in vars.laurent]
    terms = draw(st.lists(st.tuples(st.tuples(*exponent), COEFFS), max_size=12))
    return LaurentPoly(vars, terms)


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(polys(), polys(FG_VARS))
def test_codec_term_lists_match_stdlib(p, tail):
    for obj in (poly_to_json(p), {"terms": [poly_to_json(p)]}, fgpoly_to_json(tail)):
        assert dumps(obj) == stdlib(obj)
    for q in (p, tail):
        assert q.terms_sorted() == sorted(q.terms.items(), reverse=True)
