"""The canonical writer `dumps` against the standard library as oracle:
its text must equal `json.dumps(obj, indent=2) + "\\n"` byte for byte.

Needs no pytest, so it also checks other Python versions from a bare
interpreter:

    PYTHONPATH=src python tests/test_canonical_writer.py
"""

import json
import random
from fractions import Fraction

from h14cert import (
    PermGroupSpec,
    build_certificate,
    certificate_to_json,
    dumps,
    invariant_witness_pack,
    pack_to_json,
    validate_pack,
)
from h14cert.serialize import _write_terms, frac_to_str
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
    """A term list is written from one item template; a near miss in any
    place, the last included, makes the generic writer take the whole
    list, with nothing of the template written."""
    good = [
        {"e": [3, -1, 0], "c": "-7/2"},
        {"e": [0], "c": SPECIAL_CHARS},            # escaped and non-ASCII
        {"e": [2 ** 70, 1], "c": "\u00e9"},
    ]
    misses = [
        {"c": "1", "e": [1]}, {"e": [1], "c": "1", "d": "1"}, {"e": [], "c": "1"},
        {"e": [1, True], "c": "1"}, {"e": "1", "c": "1"},
        {"e": [1], "c": 1}, {"e": [1], "c": None}, {"e": [1]}, [[1], "1"],
    ]
    for nl in ("\n", "\n    "):
        parts = []
        assert _write_terms(good, nl, parts.append) and len(parts) == 1
        for miss in misses:
            for terms in (good + [miss], [miss] + good, [miss]):
                parts = []
                assert not _write_terms(terms, nl, parts.append) and not parts
    cases = [good, [good], {"terms": good}, {"a": [{"terms": good}]}, [], {"terms": []}]
    cases += [good + [miss] for miss in misses] + [[miss] + good for miss in misses]
    for obj in cases:
        assert dumps(obj) == stdlib(obj), obj


def test_fraction_str_is_frac_to_str():
    """The writer formats coefficients with str(Fraction)."""
    big = 10 ** 199 + 7                            # 200 digits
    for c in (Fraction(0), Fraction(-3, 4), Fraction(5), Fraction(-12),
              Fraction(big, 3), Fraction(-1, big), Fraction(-big)):
        assert str(c) == frac_to_str(c)


def test_certificates_match_stdlib():
    swap = invariant_witness_pack(PermGroupSpec(2, ((2, 1),)))
    cycle = invariant_witness_pack(PermGroupSpec(3, ((2, 3, 1),)))
    resolved, _ = validate_pack(cycle)
    objs = [
        certificate_to_json(build_certificate(swap, l_max=8)),   # the demo
        pack_to_json(cycle),
        pack_to_json(resolve_pack_fields(cycle, resolved)),
        certificate_to_json(build_certificate(cycle, l_max=3)),
    ]
    for obj in objs:
        assert dumps(obj) == stdlib(obj)


def test_other_types_rejected():
    for obj in (1.5, (1, 2), {1, 2}, {1: "a"}, {"a": [0.5]}, [b"x"], {"a": {(1,): 2}}):
        try:
            dumps(obj)
        except TypeError:
            continue
        raise AssertionError(f"dumps accepted {obj!r}")


if __name__ == "__main__":
    import sys

    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
