"""`validate_pack` against `reference_validate_pack`, the hand-written
block-per-check validation it replaces: the report text and the resolved
fields must agree line for line on the benchmark's packs, stored-field
variants, the wide packs and seeded single-field mutations.  The only
allowed differences are three stored fields on which the reference raises
an AlgebraError and `validate_pack` fails the field's own line, and one
pack, `MEMBER_ABOVE_BOUND`, whose h the reference's bounded scan does not
span but `validate_pack` finds in the collapsed subring's truncated image."""

import json
import random
from fractions import Fraction

import pytest

import h14cert
from h14cert import (
    AlgebraError,
    FormatError,
    LaurentPoly,
    NotInvertible,
    PermGroupSpec,
    VariableMismatch,
    WitnessPack,
    ZeroInput,
    format_report,
    generator_rows,
    invariant_witness_pack,
    pack_from_json,
    pack_to_json,
    resolve_pack_fields,
    semigroup_orders,
    subalgebra_member,
    validate_pack,
    write_json_file,
    x_vars,
)
from h14cert.cli import main
from h14cert.witness import scan_bound
from genutil import benchmark_workloads, reference_validate_pack
from test_family import WIDE_PACKS

#: the line that fails where the reference raises, by the error it raises
RAISED_TO_LINE = {
    VariableMismatch: "axis-quotient",          # a stored h over other variables
    ZeroInput: "annihilator",                   # an empty stored Pi
    NotInvertible: "generator-expressions",     # f_expr with u0^-1
}


def resolved_fields(resolved):
    if resolved is None:
        return None
    twist = resolved.twist
    return (resolved.n, resolved.f, resolved.g, resolved.h, resolved.ann, resolved.rel,
            resolved.d, resolved.weights, resolved.clearing,
            (twist.vars, twist.pivot, twist.weights, twist.shift))


def compare(pack):
    """Assert that both validations agree on the pack; return the name of
    the line that fails in place of a reference error, or None."""
    got_resolved, got_rep = validate_pack(pack)
    try:
        want_resolved, want_rep = reference_validate_pack(pack)
    except AlgebraError as exc:
        line = RAISED_TO_LINE[type(exc)]
        assert [c.name for c in got_rep.failures()] == [line], format_report(got_rep)
        assert got_rep.checks[-1].name == line and got_resolved is None
        return line
    assert format_report(got_rep) == format_report(want_rep)
    assert resolved_fields(got_resolved) == resolved_fields(want_resolved)
    return None


def demo_json(group):
    pack = invariant_witness_pack(group)
    resolved, _ = validate_pack(pack)
    return pack_to_json(resolve_pack_fields(pack, resolved))


SWAP2 = PermGroupSpec(2, ((2, 1),))
SWAP3 = PermGroupSpec(3, ((2, 1, 3),))


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_packs(tmp_path, seed):
    workloads = benchmark_workloads()
    names = []
    for workload in workloads.WORKLOADS.values():
        for pf in workloads.write_packs(h14cert, workload, seed, tmp_path):
            pack = pack_from_json(json.loads(pf.path.read_text(encoding="utf-8")))
            assert compare(pack) is None
            failures = [c.name for c in validate_pack(pack)[1].failures()]
            assert pf.expect_fail in failures if pf.expect_fail else not failures
            names.append(pf.name)
    assert len(names) == 11


def test_wide_packs():
    for pack, _ in WIDE_PACKS:
        assert compare(pack) is None
        assert compare(resolve_pack_fields(pack, validate_pack(pack)[0])) is None


def member_above_bound_pack():
    """n = 2, R_gens = [u, g, f] with u = x1^2 - x1^9, g = x1^3 + x2 and
    f = g*(2*x1^4 - 2*x1^11) + x1*x2^2.  Its h = 2*x1^4 - 2*x1^11 is
    2*u^2 + 2*u*v^3 with v = x1^3 = eps(g): a member of the collapsed
    subring, though both monomials have degree 18, above the bound 14."""
    x1, x2 = (LaurentPoly.variable(x_vars(2), v) for v in ("x1", "x2"))
    u, g = x1 ** 2 - x1 ** 9, x1 ** 3 + x2
    f = g * (2 * x1 ** 4 - 2 * x1 ** 11) + x1 * x2 ** 2
    return WitnessPack(n=2, gens=[u, g, f], f=f, g=g)


MEMBER_ABOVE_BOUND = member_above_bound_pack()


def test_member_above_the_bound_fails_its_line():
    """The bounded scan of the reference passes this pack; `validate_pack`
    fails exactly `quotient-outside-subring`, every other line the same."""
    got_resolved, got_rep = validate_pack(MEMBER_ABOVE_BOUND)
    want_resolved, want_rep = reference_validate_pack(MEMBER_ABOVE_BOUND)
    assert want_rep.ok and want_resolved is not None
    assert got_resolved is None
    assert [c.name for c in got_rep.failures()] == ["quotient-outside-subring"]
    assert got_rep.checks[:-1] == want_rep.checks[:-1]
    assert got_rep["quotient-outside-subring"].detail == \
        "h agrees with an element of the collapsed subring modulo x1^15"
    rows = generator_rows(MEMBER_ABOVE_BOUND.gens)
    h = want_resolved.h
    assert scan_bound(rows, h) == 14
    assert subalgebra_member(h, semigroup_orders(rows, 14))


@pytest.mark.parametrize("argv", [["witness", "check"], ["cert", "build"]],
                         ids=["check", "build"])
def test_member_above_the_bound_exits_2(tmp_path, capsys, argv):
    pack = tmp_path / "pack.json"
    write_json_file(str(pack), pack_to_json(MEMBER_ABOVE_BOUND))
    out = tmp_path / "cert.json"
    extra = ["--lmax", "1", "--out", str(out)] if argv[0] == "cert" else []
    assert main([*argv, str(pack), *extra]) == 2
    captured = capsys.readouterr()
    assert "[FAIL] quotient-outside-subring" in captured.out
    assert argv[0] == "witness" or "quotient-outside-subring" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


def edited(obj, key, edit):
    obj = json.loads(json.dumps(obj))
    edit(obj) if key is None else edit(obj[key])
    return pack_from_json(obj)


def bump_first(poly, by=1):
    poly["terms"][0]["c"] = str(Fraction(poly["terms"][0]["c"]) + by)


STORED_VARIANTS = {
    # valid
    "as resolved": (None, lambda o: None),
    "larger weights": ("t", lambda t: t.__setitem__(0, t[0] + 3)),
    "no h": (None, lambda o: o.pop("h")),
    "no Pi": (None, lambda o: o.pop("Pi")),
    "no t, no e": (None, lambda o: (o.pop("t"), o.pop("e"))),
    # invalid
    "h bumped": ("h", bump_first),
    "h over other variables": ("h", lambda h: h.update(
        vars=[f"y{i}" for i in range(len(h["vars"]))], laurent=[])),
    "Pi constant coefficient bumped": ("Pi", lambda pi: bump_first(pi[0])),
    "Pi lead doubled": ("Pi", lambda pi: bump_first(pi[-1])),
    "Pi one degree short": ("Pi", lambda pi: pi.pop(0)),
    "Pi empty": ("Pi", lambda pi: pi.clear()),
    "t too small": ("t", lambda t: t.__setitem__(0, 1)),
    "t too long": ("t", lambda t: t.append(5)),
    "e too small": (None, lambda o: o.update(e=0)),
    "larger clearing": (None, lambda o: o.update(e=o["e"] + 2)),
    "f_expr needs u0^-1": ("f_expr", lambda x: (x.update(laurent=["u0"]),
                                                x["terms"][0]["e"].__setitem__(0, -1))),
}


@pytest.mark.parametrize("group", [SWAP2, SWAP3], ids=["swap2", "swap3"])
def test_stored_field_variants(group):
    base = demo_json(group)
    lines = {}
    for name, (key, edit) in STORED_VARIANTS.items():
        lines[name] = compare(edited(base, key, edit))
    assert {name: line for name, line in lines.items() if line} == {
        "h over other variables": "axis-quotient",
        "Pi empty": "annihilator",
        "f_expr needs u0^-1": "generator-expressions",
    }


def mutate(rng, obj):
    """Change one field of a pack JSON object in place."""
    key = rng.choice([key for key in ("R_gens", "f", "g", "h", "Pi", "t", "e",
                                      "f_expr", "g_expr") if key in obj])
    if key == "t":
        obj["t"] = [rng.randint(0, 8) for _ in range(rng.choice([len(obj["t"]), 1, 3]))]
        return
    if key == "e":
        obj["e"] = rng.randint(0, 6)
        return
    if key == "R_gens":
        polys = obj["R_gens"]
        i = rng.randrange(len(polys))
        if rng.random() < 0.2:
            polys.pop(i)
            return
        poly = polys[i]
    elif key == "Pi":
        poly = rng.choice(obj["Pi"])
    else:
        poly = obj[key]
    kind = rng.random()
    if kind < 0.4 and poly["terms"]:
        term = rng.choice(poly["terms"])
        term["c"] = str(Fraction(term["c"]) + rng.choice([-2, -1, 1, Fraction(1, 2)]))
    elif kind < 0.6 and poly["terms"]:
        poly["terms"].remove(rng.choice(poly["terms"]))
    else:
        width = len(poly["vars"])
        exps = [rng.randint(0, 3) for _ in range(width)]
        if not any(t["e"] == exps for t in poly["terms"]):
            poly["terms"].append({"e": exps, "c": str(rng.choice([-1, 1, 2]))})
            poly["terms"].sort(key=lambda t: t["e"], reverse=True)


def without_expressions(obj):
    return {key: value for key, value in obj.items() if key not in ("f_expr", "g_expr")}


def test_seeded_single_field_mutations():
    """Mutations of the resolved swap packs, with and without f_expr and
    g_expr (without them a changed generator reaches the later lines)."""
    rng = random.Random(2020)
    bases = [demo_json(SWAP2), demo_json(SWAP3)]
    bases += [without_expressions(obj) for obj in bases]
    compared, failing = 0, set()
    while compared < 50:
        obj = json.loads(json.dumps(rng.choice(bases)))
        mutate(rng, obj)
        try:
            pack = pack_from_json(obj)
        except FormatError:
            continue
        assert compare(pack) is None
        failing.update(c.name for c in validate_pack(pack)[1].failures())
        compared += 1
    assert len(failing) >= 6, failing
