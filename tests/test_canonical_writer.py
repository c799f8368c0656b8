"""The canonical writer `dumps` against the standard library as oracle:
its text must equal `json.dumps(obj, indent=2) + "\\n"` byte for byte."""

import json
import random
from fractions import Fraction

from h14cert import (
    LaurentPoly,
    PermGroupSpec,
    VarSet,
    build_certificate,
    certificate_to_json,
    dumps,
    fgpoly_to_json,
    invariant_witness_pack,
    pack_to_json,
    poly_to_json,
    validate_pack,
    x_vars,
)
from h14cert.family import FG_VARS
from h14cert.serialize import _Terms
from h14cert.witness import resolve_pack_fields

SPECIAL_CHARS = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80é日 \ud800\U0001f600 a'


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def random_string(rng):
    return "".join(rng.choice(SPECIAL_CHARS) for _ in range(rng.randrange(6)))


def random_term(rng):
    e = [rng.choice([0, 1, -3, 12, 2 ** 70]) for _ in range(rng.randrange(1, 4))]
    return {"e": e, "c": rng.choice(["1", "-3/4", "0", "10/7", random_string(rng)])}


def near_miss(rng, term):
    """`term` changed so that it is no longer term-shaped."""
    kind = rng.randrange(7)
    if kind == 0:
        return {"c": term["c"], "e": term["e"]}          # c before e
    if kind == 1:
        return {**term, "d": None}                       # a third key
    if kind == 2:
        return {"e": [], "c": term["c"]}                 # empty e
    if kind == 3:
        return {"e": term["e"] + [True], "c": term["c"]}  # a bool in e
    if kind == 4:
        return {"e": term["e"], "c": rng.choice([3, None, ["1"]])}  # c not a str
    if kind == 5:
        return {"e": term["e"]}                          # no c
    return [term["e"], term["c"]]                        # not a dict


def random_terms(rng):
    """A term list, its last item or one at random sometimes a near miss."""
    terms = [random_term(rng) for _ in range(rng.randrange(1, 6))]
    if rng.randrange(3) == 0:
        i = rng.choice([len(terms) - 1, rng.randrange(len(terms))])
        terms[i] = near_miss(rng, terms[i])
    return terms


def random_tree(rng, depth):
    kind = rng.randrange(9 if depth else 5)
    if kind == 0:
        return random_string(rng)
    if kind == 1:
        return rng.choice([0, 1, -1, 7, -2 ** 70, 3 ** 90, rng.randrange(-999, 999)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return [rng.randrange(-5, 2 ** 65) for _ in range(rng.randrange(5))]
    if kind == 5:
        return {random_string(rng): random_tree(rng, depth - 1)
                for _ in range(rng.randrange(4))}
    if kind == 6:
        return random_terms(rng)
    return [random_tree(rng, depth - 1) for _ in range(rng.randrange(4))]


def test_random_trees_match_stdlib():
    rng = random.Random(2024)
    for _ in range(400):
        tree = random_tree(rng, rng.randrange(5))
        assert dumps(tree) == stdlib(tree), tree


def test_edge_values_match_stdlib():
    cases = [
        {}, [], "", 0, -0, True, False, None, 10 ** 400, -(10 ** 400),
        [[]], [{}], {"": {}}, {"a": []}, [[], {}, [[]]],
        [1, True, 0, False],       # bools among ints are not ints
        [1, None], [-3, 2 ** 64],
        {"é": "\x00", "\n": [1, 2], "k": {"k": {"k": None}}},
    ]
    for obj in cases:
        assert dumps(obj) == stdlib(obj), obj


def test_term_lists_match_stdlib():
    """The term lists of `poly_to_json` and `fgpoly_to_json` are written
    from one item template; a plain list of the same items, or with a near
    miss in any place, the last included, takes the generic path."""
    v3 = x_vars(3)
    poly = LaurentPoly(v3, {(-3, 1, 0): Fraction(-7, 2), (0, 0, 1): 1,
                            (2 ** 70, 1, 0): Fraction(10 ** 30, 3)})
    tail = LaurentPoly(FG_VARS, {(2, 0, -3): 5, (0, 1, 0): Fraction(-1, 4)})
    made = [poly_to_json(poly), fgpoly_to_json(tail),
            poly_to_json(LaurentPoly.zero(v3)), fgpoly_to_json(LaurentPoly.zero(FG_VARS))]
    for obj in made:
        assert type(obj["terms"]) is _Terms
    # the items keep their shape, so the template writes these escaped and
    # non-ASCII coefficients too
    special = poly_to_json(poly)
    for item, c in zip(special["terms"], (SPECIAL_CHARS, "\u00e9", "\ud800")):
        item["c"] = c
    made.append(special)
    # in no variable the exponents are empty, which the template declines
    const = poly_to_json(LaurentPoly.const(VarSet((), ()), 3))
    assert type(const["terms"]) is _Terms
    made.append(const)
    # a codec-made list changed as criterion 7 changes one: an exponent
    # made negative or past 64 bits, an item inserted or popped; and
    # changed past the template: a bool exponent (written `true`), an
    # exponent list of another width, a coefficient that is not a str, an
    # item without a key or not a dict
    changes = [
        lambda t: t[0]["e"].__setitem__(1, -5),
        lambda t: t[1]["e"].__setitem__(0, 2 ** 70),
        lambda t: t.insert(1, {"e": [7, 0, 2], "c": "-1/9"}),
        lambda t: t.append({"e": [0, 0, 0], "c": "4"}),
        lambda t: t.pop(0),
        lambda t: t.pop(),
        lambda t: t[0]["e"].__setitem__(1, True),
        lambda t: t[-1]["e"].__setitem__(2, False),
        lambda t: t[1]["e"].append(4),
        lambda t: t[0]["e"].pop(),
        lambda t: t.append({"e": [1, 2], "c": "1"}),
        lambda t: t[2].__setitem__("c", 3),
        lambda t: t[1].pop("c"),
        lambda t: t.insert(0, [[1, 2, 3], "1"]),
        lambda t: t.append(None),
    ]
    for change in changes:
        obj = poly_to_json(poly)
        change(obj["terms"])
        assert type(obj["terms"]) is _Terms
        made.append(obj)
    for bad in (0.5, 2.0):
        obj = poly_to_json(poly)
        obj["terms"][1]["e"][0] = bad
        try:
            dumps(obj)
        except TypeError:
            continue
        raise AssertionError(f"dumps wrote the exponent {bad!r}")
    good = [dict(item) for item in special["terms"]]
    misses = [
        {"c": "1", "e": [1]}, {"e": [1], "c": "1", "d": "1"}, {"e": [], "c": "1"},
        {"e": [1, True], "c": "1"}, {"e": "1", "c": "1"},
        {"e": [1], "c": 1}, {"e": [1], "c": None}, {"e": [1]}, [[1], "1"],
    ]
    cases = made + [[obj] for obj in made] + [{"a": [{"b": obj}]} for obj in made]
    cases += [good, [good], {"terms": good}, {"a": [{"terms": good}]}, [], {"terms": []}]
    cases += [good + [miss] for miss in misses] + [[miss] + good for miss in misses]
    for obj in cases:
        assert dumps(obj) == stdlib(obj), obj


def test_certificates_match_stdlib():
    swap = invariant_witness_pack(PermGroupSpec(2, ((2, 1),)))
    cycle = invariant_witness_pack(PermGroupSpec(3, ((2, 3, 1),)))
    resolved, _ = validate_pack(cycle)
    objs = [
        certificate_to_json(build_certificate(swap, l_max=8)[0]),   # the demo
        pack_to_json(cycle),
        pack_to_json(resolve_pack_fields(cycle, resolved)),
        certificate_to_json(build_certificate(cycle, l_max=3)[0]),
    ]
    # a JSON round trip turns every list plain, for the generic path
    for obj in objs:
        plain = json.loads(json.dumps(obj))
        assert dumps(obj) == dumps(plain) == stdlib(obj)


def test_other_types_rejected():
    for obj in (1.5, (1, 2), {1, 2}, {1: "a"}, {"a": [0.5]}, [b"x"], {"a": {(1,): 2}}):
        try:
            dumps(obj)
        except TypeError:
            continue
        raise AssertionError(f"dumps accepted {obj!r}")

