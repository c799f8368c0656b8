"""The names that the benchmark's tracer wraps by name (`SPANS` and
`KERNELS` of perfbench/spans.py) exist in the package, so a rename fails
here and not only in a traced benchmark run."""

import importlib

from h14cert import LaurentPoly
from h14cert.family import _assemble_witness_poly, tail_coefficients, witness_poly
from genutil import perfbench_module
from test_family import demo_resolved

spans = perfbench_module("spans")


def test_every_span_name_resolves():
    for _, modname, attr in spans.SPANS:
        owner = importlib.import_module(modname)
        *path, last = attr.split(".")
        for name in path:
            owner = getattr(owner, name)
        # a method is patched through the class dict, so it must be defined there
        assert last in (vars(owner) if path else dir(owner)), (modname, attr)
        assert callable(getattr(owner, last)), (modname, attr)


def test_every_kernel_name_resolves():
    for modname, cls_name, meths in spans.KERNELS.values():
        cls = getattr(importlib.import_module(modname), cls_name)
        for meth in meths:
            assert callable(vars(cls).get(meth)), (modname, cls_name, meth)


def test_member_spans_read_terms_of_a_poly():
    """`spans._note` records `len(result.terms)` of the two member spans."""
    rw = demo_resolved()
    tails = tail_coefficients(2, rw)
    for got in (witness_poly(2, rw, tails), _assemble_witness_poly(2, tails, rw)):
        assert isinstance(got, LaurentPoly) and got.terms
