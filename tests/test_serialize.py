"""Canonical JSON encoding: exact round trips, byte-stable output, and
strict validation errors on malformed input."""

import json
import random
import sys
from fractions import Fraction

import pytest

from h14cert import (
    FormatError,
    LaurentPoly,
    PermGroupSpec,
    VarSet,
    WitnessPack,
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    dumps,
    fgpoly_from_json,
    fgpoly_to_json,
    frac_from_str,
    group_from_json,
    invariant_witness_pack,
    load_json_file,
    pack_from_json,
    pack_to_json,
    poly_from_json,
    poly_to_json,
    unipoly_from_json,
    unipoly_to_json,
    validate_pack,
    verify_certificate,
    write_json_file,
    x_vars,
    xz_vars,
)
from h14cert import serialize
from h14cert.cli import main
from h14cert.family import FG_VARS
from h14cert.witness import ANN_VARS, resolve_pack_fields
from genutil import random_poly

V2 = x_vars(2)
X1 = LaurentPoly.variable(V2, "x1")
X2 = LaurentPoly.variable(V2, "x2")

SWAP = PermGroupSpec(2, ((2, 1),))


def test_fraction_strings():
    assert str(Fraction(3, 4)) == "3/4"
    assert str(Fraction(-5)) == "-5"
    assert frac_from_str("3/4") == Fraction(3, 4)
    assert frac_from_str("-5") == Fraction(-5)
    assert frac_from_str(7) == Fraction(7)
    for bad in ("abc", "1/0", "1.5", "1/-2", "\u0663/\u0664", None, 2.5):
        with pytest.raises(FormatError):
            frac_from_str(bad)


def test_fraction_digit_limit():
    """4300 digits in a numerator or denominator load; 4301 are an input
    error, checked before int() and so whatever the interpreter's own
    limit on int-string conversion is set to."""
    nines = "9" * 4300
    assert frac_from_str("1/" + nines) == Fraction(1, int(nines))
    assert frac_from_str("-" + nines) == -int(nines)
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    old = sys.get_int_max_str_digits() if set_limit else None
    try:
        for limit in ((old, 0) if set_limit else (None,)):
            if set_limit:
                set_limit(limit)
            for bad in ("1/9" + nines, "-9" + nines, "9" + nines + "/1"):
                with pytest.raises(FormatError, match="more than 4300 digits"):
                    frac_from_str(bad)
    finally:
        if set_limit:
            set_limit(old)


def _past_the_digit_limit(tree, field):
    """The demo pack with a 4,300-digit stored weight, or, without its
    generator expressions, a 4,300-digit coefficient of f."""
    if field == "exponent":
        return dict(tree, t=[9 * 10 ** 4299])
    del tree["f_expr"], tree["g_expr"]
    tree["f"]["terms"][1]["c"] = "9" * 4300
    return tree


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on int-string conversion")
@pytest.mark.parametrize("field", ["exponent", "coefficient"])
def test_cert_build_with_a_number_past_the_digit_limit_exits_3(tmp_path, capsys, field):
    """The pack loads and validates, but a certificate exponent or
    coefficient outgrows the interpreter's limit on int-string conversion:
    `cert build` exits 3 with one input-error line, no traceback and no
    file."""
    pack = invariant_witness_pack(PermGroupSpec(n=2, generators=((2, 1),)))
    path, out = tmp_path / "pack.json", tmp_path / "cert.json"
    path.write_text(json.dumps(_past_the_digit_limit(pack_to_json(pack), field)))
    assert main(["cert", "build", str(path), "--lmax", "1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "result: PASS (" in captured.out
    assert captured.err == (f"input error: cannot write {out}: a number has more "
                            f"than {sys.get_int_max_str_digits():,} digits\n")
    assert not out.exists()


def test_poly_roundtrip_random():
    rng = random.Random(12)
    for vars in (V2, xz_vars(2), x_vars(3)):
        for _ in range(25):
            p = random_poly(rng, vars, exp_lo=-2)
            obj = poly_to_json(p)
            assert poly_from_json(obj) == p
            # byte-stable: encode(decode(encode)) == encode
            assert dumps(poly_to_json(poly_from_json(obj))) == dumps(obj)


def test_poly_terms_sorted_descending():
    p = X2 + X1 + X1 * X2
    obj = poly_to_json(p)
    assert [t["e"] for t in obj["terms"]] == [[1, 1], [1, 0], [0, 1]]
    assert obj["vars"] == ["x1", "x2"]
    assert obj["laurent"] == ["x1"]


def test_poly_from_json_rejects_malformed():
    good = poly_to_json(X1 + X2)
    fresh = lambda: json.loads(json.dumps(good))
    bad_e = "poly.terms[0].e: expected 2 integers"
    bad_c = "bad rational 'x': expected 'num' or 'num/den'"
    cases = []
    c = fresh(); del c["vars"]; cases.append((c, "poly: missing key 'vars'"))
    c = fresh(); c["terms"][0]["e"] = [1]; cases.append((c, bad_e))
    c = fresh(); c["terms"][0]["c"] = "x"; cases.append((c, bad_c))
    c = fresh(); c["terms"].append(c["terms"][0])
    cases.append((c, "poly.terms[2]: duplicate exponent [1, 0]"))
    c = fresh(); c["laurent"] = ["zz"]
    cases.append((c, "poly.laurent: unknown variable name"))
    c = fresh(); c["laurent"] = []; c["terms"][0]["e"] = [-1, 0]
    cases.append((c, "poly: negative exponent on non-Laurent variable 'x1'"))
    c = fresh(); c["terms"][0]["e"] = [1, True]; cases.append((c, bad_e))
    c = fresh(); del c["terms"][1]["c"]
    cases.append((c, "poly.terms[1]: missing key 'c'"))
    c = fresh(); c["terms"][1]["e"] = "11"
    cases.append((c, "poly.terms[1].e: wrong type"))
    c = fresh(); c["terms"][1] = 5
    cases.append((c, "poly.terms[1]: expected an object"))
    # the exponent is checked before the coefficient, both before duplicates
    c = fresh(); c["terms"][0]["e"] = [1]; del c["terms"][0]["c"]
    cases.append((c, bad_e))
    c = fresh(); c["terms"][1] = {"e": [1, 0], "c": "x"}; cases.append((c, bad_c))
    cases.append(([1, 2, 3], "poly: expected an object"))
    # signs are checked after every term is read, on the first offending
    # term in JSON order and its first offending variable; a "0" term is
    # dropped before that check
    neg_x1 = "poly: negative exponent on non-Laurent variable 'x1'"
    neg_x2 = "poly: negative exponent on non-Laurent variable 'x2'"
    c = fresh(); c["terms"][0]["c"] = "0"; c["terms"][1]["e"] = [0, -1]
    cases.append((c, neg_x2))
    c = fresh(); c["terms"][0]["e"] = [0, -1]; c["terms"][1]["c"] = "x"
    cases.append((c, bad_c))
    c = fresh(); c["laurent"] = []
    c["terms"][0]["e"] = [0, -1]; c["terms"][1]["e"] = [-1, 0]
    cases.append((c, neg_x2))
    c = fresh(); c["laurent"] = []; c["terms"][1]["e"] = [-1, -1]
    cases.append((c, neg_x1))
    for broken, message in cases:
        with pytest.raises(FormatError) as err:
            poly_from_json(broken)
        assert str(err.value) == message
    c = fresh(); c["terms"][0] = {"e": [0, -1], "c": "0"}
    assert poly_from_json(c) == X2
    assert poly_from_json(c).terms == {(0, 1): 1}


COEFFS = ["1", "-1", "3/4", "-5/7", "2", "1/3", "12345678901234567890123/7"]


def random_term_list(rng, width):
    """JSON-shaped terms over a few coefficient strings, so that most
    strings repeat."""
    n = min(rng.randrange(1, 10), 5 ** width)
    exps = set()
    while len(exps) < n:
        exps.add(tuple(rng.randrange(-2, 3) for _ in range(width)))
    return [{"e": list(e), "c": rng.choice(COEFFS)} for e in exps]


def term_mutations(rng, items):
    """Copies of `items` with one irregularity each, some of them still
    valid input."""
    n = len(items)
    fresh = lambda: [{"e": list(t["e"]), "c": t["c"]} for t in items]
    def at(i, **fields):
        out = fresh()
        out[i].update(fields)
        return out
    i, j = rng.randrange(n), rng.randrange(n)
    e = items[i]["e"]
    yield at(i, e=e[:-1] + [True])                   # a bool in e
    yield at(i, e=e[:-1] + [float(e[-1])])           # a float in e
    yield at(i, e=e + [0])                           # wrong width
    yield at(i, e=e[:-1])
    yield at(i, e="".join(map(str, e)))              # e not a list
    yield at(i, e={"0": 1})
    out = fresh(); out[i] = rng.choice([5, "x", [e, "1"], None]); yield out
    out = fresh(); del out[i]["c"]; yield out         # a missing c
    out = fresh(); del out[i]["e"]; yield out
    yield at(i, c=rng.randrange(-3, 4))              # an int c: valid
    yield at(i, c=True)                              # a bool c
    out = at(i, c=1); out[j]["c"] = True; yield out  # ... beside an int 1
    yield at(i, c=1.0)
    out = at(i, c="1/2"); out[j]["c"] = "2/4"; yield out  # valid
    yield at(i, c=rng.choice(["x", "1/0", "1.5", "1/-2", "", "\u0663"]))
    yield at(i, c="0")                               # valid: kept as 0
    if n >= 3:                                       # a duplicate exponent
        out = fresh()                                # before a bad rational
        out[1]["e"] = list(out[0]["e"])
        out[2]["c"] = "x"
        yield out
        out = fresh(); out[2]["e"] = list(out[0]["e"]); yield out


def read_terms(reader, items, width, *table):
    try:
        return reader(items, width, f"expected {width} integers", "poly", *table)
    except FormatError as exc:
        return exc


def test_batch_term_reader_matches_term_by_term(monkeypatch):
    """The table reader returns the term-by-term reading or its exact
    error, and hands to the term-by-term loop only input that raises."""
    reference = serialize._terms_by_item
    handed = []
    def spy(*args):
        handed.append(args)
        return reference(*args)
    monkeypatch.setattr(serialize, "_terms_by_item", spy)
    rng = random.Random(31)
    valid_mutants = 0
    for trial in range(300):
        width = rng.randrange(1, 4)
        items = random_term_list(rng, width)
        for k, case in enumerate([items, *term_mutations(rng, items)]):
            handed.clear()
            want = read_terms(reference, case, width)
            got = read_terms(serialize._terms_from_json, case, width, {})
            if isinstance(want, FormatError):
                assert isinstance(got, FormatError), case
                assert str(got) == str(want), case
            else:
                assert got == want and list(got) == list(want), case
                assert all(type(c) is Fraction for c in got.values())
                assert not handed, case
                valid_mutants += k > 0
            if handed:
                assert isinstance(got, FormatError), case
    assert valid_mutants > 300
    handed.clear()
    assert read_terms(serialize._terms_from_json, [], 2, {}) == {}
    assert not handed


@pytest.mark.parametrize("later", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("where", ["same-list", "later-generator"])
def test_a_read_int_lets_no_equal_bool_or_float_through(later, where):
    """True and 1.0 hash and compare equal to the int 1, so the table of
    coefficients read from a file must not answer for them."""
    obj = pack_to_json(invariant_witness_pack(SWAP))
    obj["R_gens"][0]["terms"][0]["c"] = 1
    gen, term = (0, 1) if where == "same-list" else (1, 0)
    obj["R_gens"][gen]["terms"][term]["c"] = later
    with pytest.raises(FormatError) as err:
        pack_from_json(obj)
    assert str(err.value) == f"rational must be a string or int, got {type(later).__name__}"


@pytest.mark.parametrize("laurent, message", [
    ({"x1": True}, "expected a list"),          # iterates as ["x1"] does
    ("x1", "expected a list"),
    (["x1", "zz"], "unknown variable name"),
    ([["x1"]], "names must be strings"),        # not hashable
])
def test_a_stored_header_does_not_pass_a_bad_laurent(laurent, message):
    """Each ("vars", "laurent") pair is checked once per file, but a later
    polynomial with the same "vars" and a bad "laurent" gets its own message."""
    obj = pack_to_json(invariant_witness_pack(SWAP))
    gens = obj["R_gens"]
    assert (gens[1]["vars"], gens[1]["laurent"]) == (gens[0]["vars"], ["x1"])
    gens[1]["laurent"] = laurent
    with pytest.raises(FormatError) as err:
        pack_from_json(obj)
    assert str(err.value) == f"witness.R_gens[1].laurent: {message}"
    gens[1]["vars"] = [["x1"], "x2"]
    with pytest.raises(FormatError) as err:
        pack_from_json(obj)
    assert str(err.value) == "witness.R_gens[1].vars: names must be strings"


def test_unipoly_roundtrip():
    """Pi is written as the list of its T-coefficients over G, zero ones
    included, and read back over T followed by their variables."""
    T, G = (LaurentPoly.variable(ANN_VARS, name) for name in ("T", "G"))
    P = T ** 3 + G * T - G ** 2 / 2
    obj = unipoly_to_json(P)
    assert len(obj) == 4
    assert obj[2] == {"vars": ["G"], "laurent": [], "terms": []}
    assert obj[0] == poly_to_json(LaurentPoly.monomial(VarSet(("G",), (False,)), (2,), Fraction(-1, 2)))
    assert unipoly_from_json(obj) == P
    wide = VarSet(("T", "x1", "x2"), (False, True, False))
    Q = LaurentPoly(wide, {(2, 0, 0): 1, (0, -1, 1): 3})
    assert [c["vars"] for c in unipoly_to_json(Q)] == [["x1", "x2"]] * 3
    assert unipoly_from_json(unipoly_to_json(Q)) == Q
    assert unipoly_from_json([]) == LaurentPoly.zero(ANN_VARS)
    with pytest.raises(FormatError):
        unipoly_from_json({"not": "a list"})
    mixed = [poly_to_json(X1), poly_to_json(LaurentPoly.variable(x_vars(3), "x3"))]
    with pytest.raises(FormatError, match="coefficient over the wrong variable set"):
        unipoly_from_json(mixed)
    named_t = [poly_to_json(LaurentPoly.variable(VarSet(("T",), (False,)), "T"))]
    with pytest.raises(FormatError, match="duplicate variable names"):
        unipoly_from_json(named_t)


def test_fgpoly_roundtrip():
    p = LaurentPoly(FG_VARS, {(2, 1, -3): Fraction(5, 7), (0, 0, 1): Fraction(-1)})
    obj = fgpoly_to_json(p)
    assert fgpoly_from_json(obj) == p
    assert [t["e"] for t in obj["terms"]] == [[2, 1, -3], [0, 0, 1]]
    with pytest.raises(FormatError):
        fgpoly_from_json({"terms": [{"e": [1, 0], "c": "1"}]})
    with pytest.raises(FormatError, match="negative exponent on non-Laurent variable 'f'"):
        fgpoly_from_json({"terms": [{"e": [-1, 0, 0], "c": "1"}]})
    with pytest.raises(FormatError, match="negative exponent on non-Laurent variable 'rel'"):
        fgpoly_from_json({"terms": [{"e": [0, -1, 0], "c": "1"}]})


def test_pack_roundtrip_wire_keys():
    pack = invariant_witness_pack(SWAP)
    resolved, _ = validate_pack(pack)
    full = resolve_pack_fields(pack, resolved)
    obj = pack_to_json(full)
    assert set(obj) == {"n", "R_gens", "f", "g", "h", "Pi", "t", "e",
                        "f_expr", "g_expr"}
    back = pack_from_json(obj)
    assert back == full
    assert dumps(pack_to_json(back)) == dumps(obj)
    # minimal pack: derived keys absent
    bare = pack_to_json(pack)
    assert "h" not in bare and "Pi" not in bare and "t" not in bare
    assert pack_from_json(bare) == pack


def test_pack_from_json_rejects_malformed():
    obj = pack_to_json(invariant_witness_pack(SWAP))
    c = json.loads(json.dumps(obj)); c["n"] = True
    with pytest.raises(FormatError):
        pack_from_json(c)
    c = json.loads(json.dumps(obj)); del c["R_gens"]
    with pytest.raises(FormatError):
        pack_from_json(c)
    c = json.loads(json.dumps(obj)); c["t"] = ["5"]
    with pytest.raises(FormatError):
        pack_from_json(c)


def test_certificate_roundtrip_byte_identical():
    """Load and write give back the written bytes; a legacy "report" key
    is not read, so a file with one writes back without it."""
    cert, _ = build_certificate(invariant_witness_pack(SWAP), l_max=2)
    obj = certificate_to_json(cert)
    text = dumps(obj)
    for loaded in (json.loads(text), dict(json.loads(text), report={"ok": False})):
        back = certificate_from_json(loaded)
        assert dumps(certificate_to_json(back)) == text
    assert back.pack == cert.pack
    assert back.rel == cert.rel
    assert [e.l for e in back.entries] == [0, 1, 2]
    assert back.entries[2].q == cert.entries[2].q
    assert verify_certificate(back).ok


def test_certificate_wire_keys():
    cert, _ = build_certificate(invariant_witness_pack(SWAP), l_max=1)
    obj = certificate_to_json(cert)
    assert list(obj) == ["witness", "pi", "d", "e", "entries"]
    assert obj["d"] == 2 and obj["e"] == 3
    assert {"l", "fvec", "q"} == set(obj["entries"][0])
    with pytest.raises(FormatError):
        certificate_from_json({"witness": obj["witness"]})


def test_group_roundtrip():
    grp = PermGroupSpec(3, ((2, 3, 1), (2, 1, 3)))
    assert group_from_json({"n": 3, "generators": [[2, 3, 1], [2, 1, 3]]}) == grp
    with pytest.raises(FormatError):
        group_from_json({"n": 3, "generators": [[1, 1, 2]]})


def test_file_helpers(tmp_path):
    path = tmp_path / "value.json"
    write_json_file(str(path), poly_to_json(X1 + X2))
    assert poly_from_json(load_json_file(str(path))) == X1 + X2
    assert path.read_text().endswith("\n")
    with pytest.raises(FormatError):
        load_json_file(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        load_json_file(str(bad))
