"""The benchmark's workloads and the pack files they feed the CLI.

Every pack is an invariant witness pack of a permutation group, made with
`h14cert.invariant_witness_pack` and written as JSON.  The seed permutes
the order of each pack's generators (rewriting `f_expr` and `g_expr` to
match): the subalgebra, f, g and every family member stay the same, so the
amount of work does not depend on the seed, but the program sees a
different input file for each seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# name -> (n, group generators in one-line notation)
GROUPS = {
    "swap2": (2, [[2, 1]]),
    "swap3": (3, [[2, 1, 3]]),
    "cycle3": (3, [[2, 3, 1]]),
    "swap4": (4, [[2, 1, 3, 4]]),
    "double-swap4": (4, [[2, 1, 4, 3]]),
    "swap5": (5, [[2, 1, 3, 4, 5]]),
    "swap-cycle5": (5, [[2, 1, 3, 4, 5], [1, 2, 4, 5, 3]]),
}

# Packs that validation must reject: (name, base group, mutation, name of the
# check that must fail).  Each mutation changes one thing in a valid pack.
REJECTED = [
    ("g-not-dividing", "swap3", "g_plus_x1", "axis-quotient"),
    ("expr-mismatch", "swap3", "f_expr_is_g", "generator-expressions"),
    ("h-in-subring", "swap3", "add_x1_generator", "quotient-outside-subring"),
    ("weights-too-small", "swap3", "weights_one", "weights-twist"),
]


@dataclass(frozen=True)
class Workload:
    packs: tuple[str, ...]        # valid packs: check, build, verify
    lmax: int
    rejected: bool                # also run the REJECTED packs
    check_repeats: int            # `witness check` runs per pack and round


WORKLOADS = {
    "cycle3": Workload(("cycle3",), 8, False, 8),
    "witness-scan": Workload(
        ("swap2", "swap3", "swap4", "double-swap4", "swap-cycle5", "swap5"), 2, True, 2),
}


@dataclass(frozen=True)
class PackFile:
    name: str
    path: Path
    expect_fail: str | None       # None: valid; else the check that must fail


def _canonical_terms(poly: dict):
    poly["terms"].sort(key=lambda t: t["e"], reverse=True)


def _permute_generators(obj: dict, rng: random.Random):
    """Reorder R_gens; exponent vectors of f_expr/g_expr follow the new order."""
    k = len(obj["R_gens"])
    order = list(range(k))
    rng.shuffle(order)                          # new slot j holds old order[j]
    obj["R_gens"] = [obj["R_gens"][i] for i in order]
    for key in ("f_expr", "g_expr"):
        for term in obj[key]["terms"]:
            term["e"] = [term["e"][i] for i in order]
        _canonical_terms(obj[key])


def _x1(obj: dict) -> dict:
    """The polynomial x1, over the variables of the pack's g."""
    g = obj["g"]
    return {"vars": g["vars"], "laurent": g["laurent"],
            "terms": [{"e": [1] + [0] * (obj["n"] - 1), "c": "1"}]}


def _mutate(obj: dict, mutation: str):
    if mutation == "g_plus_x1":
        obj["g"]["terms"] += _x1(obj)["terms"]
        _canonical_terms(obj["g"])
        del obj["f_expr"], obj["g_expr"]
    elif mutation == "f_expr_is_g":
        obj["f_expr"] = json.loads(json.dumps(obj["g_expr"]))
    elif mutation == "add_x1_generator":
        obj["R_gens"].append(_x1(obj))
        del obj["f_expr"], obj["g_expr"]
    elif mutation == "weights_one":
        obj["t"] = [1] * (obj["n"] - 1)
    else:
        raise ValueError(mutation)


def write_packs(h14, workload: Workload, seed: int, workdir: Path) -> list[PackFile]:
    """Generate the workload's pack files with the freshly imported package
    `h14` and write them into `workdir`."""
    base: dict[str, dict] = {}
    names = list(workload.packs)
    if workload.rejected:
        names += [b for _, b, _, _ in REJECTED if b not in names]
    for name in names:
        n, gens = GROUPS[name]
        group = h14.PermGroupSpec(n=n, generators=tuple(tuple(g) for g in gens))
        base[name] = h14.pack_to_json(h14.invariant_witness_pack(group))

    out = []
    jobs = [(name, name, None, None) for name in workload.packs]
    if workload.rejected:
        jobs += [(name, b, m, check) for name, b, m, check in REJECTED]
    for name, b, mutation, check in jobs:
        obj = json.loads(json.dumps(base[b]))
        _permute_generators(obj, random.Random(f"{seed}:{name}"))
        if mutation is not None:
            _mutate(obj, mutation)
        path = workdir / f"{name}.pack.json"
        path.write_text(h14.dumps(obj), encoding="utf-8")
        out.append(PackFile(name, path, check))
    return out


# ---------------------------------------------------------------------------
# tampering: one field of a certificate, each flip detectable by verify

TAMPER_KINDS = ("member-coeff", "tail-coeff", "relation-coeff", "degree",
                "clearing", "f-coeff")


def _bump(term: dict):
    term["c"] = str(Fraction(term["c"]) + 1)


def tamper(cert: dict, kind: str):
    """Change exactly one field of a loaded certificate in place."""
    last = cert["entries"][-1]
    if kind == "member-coeff":
        _bump(last["q"]["terms"][0])
    elif kind == "tail-coeff":
        if not last["fvec"]:
            raise ValueError("certificate has no tail coefficients")
        _bump(last["fvec"][-1]["terms"][0])
    elif kind == "relation-coeff":
        _bump(cert["pi"]["terms"][0])
    elif kind == "degree":
        cert["d"] += 1
    elif kind == "clearing":
        cert["e"] += 1
    elif kind == "f-coeff":
        _bump(cert["witness"]["f"]["terms"][0])
    else:
        raise ValueError(kind)
