"""Span tracing of h14cert from outside the package.

`Tracer.install` replaces the public functions and methods named in
`SPANS` and `KERNELS` with timing wrappers, in every loaded `h14cert`
module that refers to them; `Tracer.uninstall` puts the originals back.
Nothing under `src/` is edited.

Stage functions record one span each: name, start, end and the index of
the enclosing span.  The two kernels `LaurentPoly.__mul__` (about 10^5
calls per `cycle3` build) and `__add__` would swamp memory as spans, so
their calls are aggregated into the enclosing span as call counts, time
and work counters.  A span's self time is its duration minus what its
child spans and its aggregated kernel calls cover.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (span name, module, attribute); a dotted attribute is a method.
SPANS = [
    ("cli.witness_check", "h14cert.cli", "cmd_witness_check"),
    ("cli.cert_build", "h14cert.cli", "cmd_cert_build"),
    ("cli.cert_verify", "h14cert.cli", "cmd_cert_verify"),
    ("algebra.subst", "h14cert.algebra", "LaurentPoly.subst"),
    ("algebra.resultant", "h14cert.algebra", "resultant"),
    ("maps.apply", "h14cert.maps", "RingMap.apply"),
    ("maps.apply_rf", "h14cert.maps", "RingMap.apply_rf"),
    ("witness.validate_pack", "h14cert.witness", "validate_pack"),
    ("witness.semigroup_orders", "h14cert.witness", "semigroup_orders"),
    ("witness.subalgebra_member", "h14cert.witness", "subalgebra_member"),
    ("witness.build_annihilator", "h14cert.witness", "build_annihilator"),
    ("witness.check_twist", "h14cert.witness", "check_twist"),
    ("family.build_certificate", "h14cert.family", "build_certificate"),
    ("family.tail_coefficients", "h14cert.family", "tail_coefficients"),
    ("family.witness_poly", "h14cert.family", "witness_poly"),
    # verify_certificate reaches member recomputation only through this
    # private helper, so the members stage has to wrap it too.
    ("family.assemble_witness_poly", "h14cert.family", "_assemble_witness_poly"),
    ("family.verify_certificate", "h14cert.family", "verify_certificate"),
    ("serialize.certificate_to_json", "h14cert.serialize", "certificate_to_json"),
    ("serialize.write_json_file", "h14cert.serialize", "write_json_file"),
    ("serialize.load_json_file", "h14cert.serialize", "load_json_file"),
    ("serialize.certificate_from_json", "h14cert.serialize", "certificate_from_json"),
    ("serialize.pack_from_json", "h14cert.serialize", "pack_from_json"),
    ("constructions.invariant_witness_pack", "h14cert.constructions",
     "invariant_witness_pack"),
]

# kernel name -> (module, class, method names sharing one wrapper)
KERNELS = {
    "mul": ("h14cert.algebra", "LaurentPoly", ("__mul__", "__rmul__")),
    "add": ("h14cert.algebra", "LaurentPoly", ("__add__", "__radd__")),
}

# kernel stats: [calls, seconds, work]; work is term pairs for mul and the
# largest coefficient bit length for add.
_CALLS, _TIME, _WORK = 0, 1, 2


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.terms.values()), default=0)


def _note(name, args, result) -> dict | None:
    """Work counters recorded on a span when its call returns."""
    if name == "maps.apply":
        return {"terms_in": len(args[1].terms), "terms_out": len(result.terms)}
    if name in ("family.witness_poly", "family.assemble_witness_poly"):
        return {"terms": len(result.terms)}
    if name == "family.tail_coefficients":
        return {"terms": max((len(t.terms) for t in result), default=0)}
    if name == "constructions.invariant_witness_pack":
        return {"generators": len(result.gens)}
    return None


class Tracer:
    """Spans kept in memory; one record per span:
    [name, start, end, parent index, kernel stats or None, note or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self.loose = {k: [0, 0.0, 0] for k in KERNELS}   # kernel calls outside spans
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            rec[5] = _note(name, args, result)
            return result

        return traced

    def _kernel_stats(self, kernel):
        if not self._stack:
            return self.loose[kernel]
        rec = self.spans[self._stack[-1]]
        if rec[4] is None:
            rec[4] = {}
        return rec[4].setdefault(kernel, [0, 0.0, 0])

    def _mul_wrapper(self, fn):
        def traced(a, b):
            t0 = perf_counter()
            result = fn(a, b)
            t1 = perf_counter()
            st = self._kernel_stats("mul")
            st[_CALLS] += 1
            st[_TIME] += t1 - t0
            other = getattr(b, "terms", None)
            st[_WORK] += len(a.terms) * (len(other) if other is not None else 1)
            return result
        return traced

    def _add_wrapper(self, fn):
        def traced(a, b):
            t0 = perf_counter()
            result = fn(a, b)
            t1 = perf_counter()
            st = self._kernel_stats("add")
            st[_CALLS] += 1
            st[_TIME] += t1 - t0
            st[_WORK] = max(st[_WORK], _coeff_bits(result))
            return result
        return traced

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced function in every h14cert module that holds
        a reference to it (modules import each other's names directly)."""
        modules = [m for name, m in sys.modules.items()
                   if name == "h14cert" or name.startswith("h14cert.")]
        for span_name, modname, attr in SPANS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth,
                            self._span_wrapper(span_name, cls.__dict__[meth]))
                continue
            orig = getattr(mod, attr)
            wrapped = self._span_wrapper(span_name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapped)
        for kernel, (modname, cls_name, meths) in KERNELS.items():
            cls = getattr(sys.modules[modname], cls_name)
            make = self._mul_wrapper if kernel == "mul" else self._add_wrapper
            wrapped = make(cls.__dict__[meths[0]])
            for meth in meths:
                self._patch(cls, meth, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def reset(self):
        self.spans.clear()
        self.loose = {k: [0, 0.0, 0] for k in KERNELS}


# ---------------------------------------------------------------------------
# reading a span list


def _has_ancestor(spans, rec, names) -> bool:
    parent = rec[3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def inclusive(spans, names, under=None, not_under=()) -> float:
    """Wall time covered by spans of the given names, counting a span only
    when no ancestor has one of those names (recursion and nesting between
    the names are counted once).  `under`/`not_under` filter by ancestry."""
    names = set(names)
    total = 0.0
    for rec in spans:
        if rec[0] not in names or _has_ancestor(spans, rec, names):
            continue
        if under is not None and not _has_ancestor(spans, rec, set(under)):
            continue
        if not_under and _has_ancestor(spans, rec, set(not_under)):
            continue
        total += rec[2] - rec[1]
    return total


def kernel_totals(spans, loose) -> dict[str, list]:
    out = {k: list(v) for k, v in loose.items()}
    for rec in spans:
        for kernel, st in (rec[4] or {}).items():
            tot = out[kernel]
            tot[_CALLS] += st[_CALLS]
            tot[_TIME] += st[_TIME]
            if kernel == "add":
                tot[_WORK] = max(tot[_WORK], st[_WORK])
            else:
                tot[_WORK] += st[_WORK]
    return out


def summary(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds (outermost spans only) and
    self seconds (duration minus child spans and aggregated kernel calls)."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    out: dict[str, dict] = {}
    for i, rec in enumerate(spans):
        row = out.setdefault(rec[0], {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        dur = rec[2] - rec[1]
        kern = sum(st[_TIME] for st in (rec[4] or {}).values())
        row["calls"] += 1
        row["self_s"] += dur - child_time[i] - kern
    for name, row in out.items():
        row["inclusive_s"] = inclusive(spans, [name])
    return out


def notes(spans, names, key):
    return [rec[5][key] for rec in spans if rec[0] in names and rec[5]]


def construction_metrics(spans) -> dict[str, float]:
    """The constructions layer, from one traced pass of pack generation."""
    name = ["constructions.invariant_witness_pack"]
    return {"constructions.pack_s": inclusive(spans, name),
            "constructions.generators": sum(notes(spans, name, "generators"))}


def layer_metrics(spans, loose) -> dict[str, float]:
    """The per-layer metrics of one traced round, but for constructions."""
    k = kernel_totals(spans, loose)
    cert_verify = ["cli.cert_verify"]
    members = ["family.witness_poly", "family.assemble_witness_poly"]
    return {
        "algebra.mul_s": k["mul"][_TIME],
        "algebra.mul_calls": k["mul"][_CALLS],
        "algebra.mul_term_pairs": k["mul"][_WORK],
        "algebra.add_s": k["add"][_TIME],
        "algebra.add_calls": k["add"][_CALLS],
        "algebra.max_coeff_bits": k["add"][_WORK],
        "algebra.subst_s": inclusive(spans, ["algebra.subst"]),
        "algebra.resultant_s": inclusive(spans, ["algebra.resultant"]),
        "maps.apply_s": inclusive(spans, ["maps.apply", "maps.apply_rf"]),
        "maps.apply_calls": sum(1 for rec in spans if rec[0] == "maps.apply"),
        "maps.terms_in": sum(notes(spans, ["maps.apply"], "terms_in")),
        "maps.terms_out": sum(notes(spans, ["maps.apply"], "terms_out")),
        "witness.validate_s": inclusive(spans, ["witness.validate_pack"]),
        "witness.validate_calls": sum(1 for rec in spans
                                      if rec[0] == "witness.validate_pack"),
        "witness.semigroup_s": inclusive(spans, ["witness.semigroup_orders"]),
        "witness.membership_s": inclusive(spans, ["witness.subalgebra_member"]),
        "witness.annihilator_s": inclusive(spans, ["witness.build_annihilator"]),
        "witness.twist_check_s": inclusive(spans, ["witness.check_twist"]),
        "family.tails_s": inclusive(spans, ["family.tail_coefficients"]),
        "family.members_s": inclusive(spans, members),
        "family.verify_s": inclusive(spans, ["family.verify_certificate"]),
        "family.max_member_terms": max(notes(spans, members, "terms"), default=0),
        "family.max_tail_terms": max(notes(spans, ["family.tail_coefficients"], "terms"),
                                     default=0),
        "serialize.cert_dump_s": inclusive(
            spans, ["serialize.certificate_to_json", "serialize.write_json_file"]),
        "serialize.cert_load_s": (
            inclusive(spans, ["serialize.load_json_file"], under=cert_verify)
            + inclusive(spans, ["serialize.certificate_from_json"])),
        "serialize.pack_load_s": (
            inclusive(spans, ["serialize.load_json_file"], not_under=cert_verify)
            + inclusive(spans, ["serialize.pack_from_json"],
                        not_under=["serialize.certificate_from_json"])),
    }
