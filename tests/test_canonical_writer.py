"""The canonical writer `dumps` against the standard library as oracle:
its text must equal `json.dumps(obj, indent=2) + "\\n"` byte for byte.

Needs no pytest, so it also checks other Python versions from a bare
interpreter:

    PYTHONPATH=src python tests/test_canonical_writer.py
"""

import json
import random

from h14cert import (
    PermGroupSpec,
    build_certificate,
    certificate_to_json,
    dumps,
    invariant_witness_pack,
    pack_to_json,
    validate_pack,
)
from h14cert.witness import resolve_pack_fields

SPECIAL_CHARS = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80é日 \ud800\U0001f600 a'


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def random_string(rng):
    return "".join(rng.choice(SPECIAL_CHARS) for _ in range(rng.randrange(6)))


def random_tree(rng, depth):
    kind = rng.randrange(8 if depth else 5)
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
