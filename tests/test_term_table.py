"""Property test of the term-list reader: read through a table of the
coefficients already met in the file, it gives what the field-by-field
reading `_terms_by_item` gives, the same dict or the same error message."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from h14cert import FormatError, frac_from_str
from h14cert.serialize import _terms_by_item, _terms_from_json

VALID_COEFFS = st.one_of(st.sampled_from(["1", "-1", "3/4", "6/8", "0", "-0", "7"]),
                         st.integers(-3, 3))
BAD_COEFFS = st.one_of(st.booleans(), st.sampled_from([1.0, 0.5, 0.0]), st.none(),
                       st.sampled_from(["x", "1/0", "1.5", "", "٣"]))
VALID_EXPONENTS = st.integers(-2, 2)
BAD_EXPONENTS = st.one_of(st.booleans(), st.sampled_from([1.0, "1", None]))


@st.composite
def term_lists(draw, width):
    """A term list mostly of well-formed items, with bad widths, exponents,
    coefficients and items mixed in; small exponent ranges make duplicate
    exponents common."""
    items = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            items.append(draw(st.sampled_from([5, "x", None, [[0], "1"]])))
            continue
        size = width if kind > 1 else draw(st.integers(0, width + 1))
        e = draw(st.lists(VALID_EXPONENTS if kind > 2 else
                          st.one_of(VALID_EXPONENTS, BAD_EXPONENTS),
                          min_size=size, max_size=size))
        c = draw(VALID_COEFFS if kind > 3 else st.one_of(VALID_COEFFS, BAD_COEFFS))
        item = {"e": e, "c": c}
        if kind == 4:
            del item[draw(st.sampled_from(["e", "c"]))]
        items.append(item)
    return items


def read(reader, items, width, *table):
    try:
        return reader(items, width, f"expected {width} integers", "poly", *table)
    except FormatError as exc:
        return exc


def assert_same_reading(got, want, items):
    if isinstance(want, FormatError):
        assert isinstance(got, FormatError), items
        assert str(got) == str(want), items
    else:
        assert got == want and list(got) == list(want), items
        assert all(type(c) is Fraction for c in got.values())


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3).flatmap(lambda w: st.tuples(st.just(w), term_lists(w), term_lists(w))))
def test_table_reader_matches_field_by_field(case):
    """Each case is read with a fresh table, and again with the table left
    by an earlier list of the same file; the table holds only correct
    parses of a str or an int."""
    width, earlier, items = case
    want = read(_terms_by_item, items, width)
    assert_same_reading(read(_terms_from_json, items, width, {}), want, items)
    table: dict = {}
    read(_terms_from_json, earlier, width, table)
    assert_same_reading(read(_terms_from_json, items, width, table), want, items)
    for c, frac in table.items():
        assert type(c) in (str, int) and frac == frac_from_str(c), (c, frac)
