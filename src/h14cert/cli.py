"""Command-line front end.

Exit codes: 0 on success, 2 when a mathematical check fails, 3 on
malformed input: a bad command line, an unreadable or malformed input
file, or an --out path that cannot be written; 3 also when standard
output is closed before all of it is written.  All output is
deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .constructions import (
    PermGroupSpec,
    invariant_generators,
    invariant_witness_pack,
    orbit_sum,
)
from .errors import (
    AlgebraError,
    ConstructionFailure,
    FormatError,
    UnsupportedCase,
    WitnessInvalid,
)
from .family import build_certificate, verify_certificate
from .maps import inversion_map
from .report import format_report
from .serialize import (
    certificate_from_json,
    certificate_to_json,
    decode_json,
    dumps,
    group_from_json,
    load_json_file,
    pack_from_json,
    poly_to_json,
    write_json_file,
)
from .witness import validate_pack

DEFAULT_LMAX = 8

#: the most letters x monomials `invariants` enumerates, n * (C(n + D, D) - 1)
#: for n letters to degree D (2,250,000 for 1,500 letters at degree 1)
INVARIANTS_LIMIT = 5_000_000


def _build_and_write(pack, args, show=None) -> int:
    """Build to --lmax, print show(cert) and the report, write to --out,
    whose directory is checked before the build; exit 2 on a rejected pack."""
    if os.path.isdir(args.out):
        raise FormatError(f"cannot write {args.out}: it is a directory")
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FormatError(f"cannot write {args.out}: no such directory")
    try:
        cert = build_certificate(pack, l_max=args.lmax)
    except WitnessInvalid as exc:
        if exc.report is not None:
            print(format_report(exc.report))
        print(f"witness rejected: {exc}", file=sys.stderr)
        return 2
    if show is not None:
        show(cert)
    print(format_report(cert.report))
    write_json_file(args.out, certificate_to_json(cert))
    print(f"certificate written to {args.out}")
    return 0


def cmd_demo(args) -> int:
    group = PermGroupSpec(n=2, generators=((2, 1),))
    pack = invariant_witness_pack(group)

    def show_generators(cert):
        twist = inversion_map(cert.pack.weights, cert.pack.h)
        pair = orbit_sum(group, (1, 1)).with_vars(twist.vars)
        print("generators of the twisted invariant algebra:")
        print(f"  image of orbit(y1)    = {twist.apply(pack.g.with_vars(twist.vars))}")
        print(f"  image of orbit(y1*y2) = {twist.apply(pair)}")
        print(f"  image of z            = {twist.image_of('z')}")
        print()

    return _build_and_write(pack, args, show_generators)


def cmd_witness_check(args) -> int:
    pack = pack_from_json(load_json_file(args.file))
    _, report = validate_pack(pack)
    print(format_report(report))
    return 0 if report.ok else 2


def cmd_cert_build(args) -> int:
    return _build_and_write(pack_from_json(load_json_file(args.file)), args)


def cmd_cert_verify(args) -> int:
    cert = certificate_from_json(load_json_file(args.file))
    report = verify_certificate(cert)
    print(format_report(report))
    return 0 if report.ok else 2


def cmd_invariants(args) -> int:
    spec = args.group
    group = group_from_json(decode_json(spec, "inline group spec")
                            if spec.strip().startswith("{") else load_json_file(spec))
    n, degree = group.n, args.degree
    # n * max(n, D) <= the count for D >= 1: it bounds the work of math.comb
    if degree and (n * max(n, degree) > INVARIANTS_LIMIT
                   or n * (math.comb(n + degree, degree) - 1) > INVARIANTS_LIMIT):
        raise FormatError(f"{n} letters to degree {degree} exceed the limit of "
                          f"{INVARIANTS_LIMIT:,} letters x monomials")
    gens = invariant_generators(group, degree)
    if args.json:
        print(dumps([poly_to_json(p) for p in gens]), end="")
    else:
        for p in gens:
            print(p)
    return 0


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: it exits 3, not argparse's 2,
    which here means a failed check.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process and shared by every call."""
    parser = _Parser(
        prog="h14cert",
        description="Build and verify certificates for non-finitely-generated "
                    "intermediate invariant algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo", help="run the built-in two-variable example")
    p_demo.add_argument("--lmax", type=_nonnegative_int, default=DEFAULT_LMAX)
    p_demo.add_argument("--out", default="demo_certificate.json")
    p_demo.set_defaults(func="cmd_demo")

    p_witness = sub.add_parser("witness", help="witness pack operations")
    w_sub = p_witness.add_subparsers(dest="witness_command", required=True)
    p_wcheck = w_sub.add_parser("check", help="validate a witness pack file")
    p_wcheck.add_argument("file")
    p_wcheck.set_defaults(func="cmd_witness_check")

    p_cert = sub.add_parser("cert", help="certificate operations")
    c_sub = p_cert.add_subparsers(dest="cert_command", required=True)
    p_cbuild = c_sub.add_parser("build", help="build a certificate from a pack file")
    p_cbuild.add_argument("file")
    p_cbuild.add_argument("--lmax", type=_nonnegative_int, default=DEFAULT_LMAX)
    p_cbuild.add_argument("--out", default="certificate.json")
    p_cbuild.set_defaults(func="cmd_cert_build")
    p_cverify = c_sub.add_parser("verify", help="re-verify a certificate file")
    p_cverify.add_argument("file")
    p_cverify.set_defaults(func="cmd_cert_verify")

    p_inv = sub.add_parser("invariants",
                           help="orbit-sum generators of a permutation-invariant ring")
    p_inv.add_argument("--group", required=True,
                       help="path to a group spec file, or inline JSON")
    p_inv.add_argument("--degree", type=_nonnegative_int, required=True)
    p_inv.add_argument("--json", action="store_true",
                       help="emit the generator list as JSON")
    p_inv.set_defaults(func="cmd_invariants")
    return parser


def main(argv=None) -> int:
    """Run one command.  Its `cmd_*` function is looked up by name at each
    call, so that one replaced on this module after the parser was built
    (a timing wrapper, a test's recorder) is the one that runs."""
    args = build_parser().parse_args(argv)
    try:
        rc = globals()[args.func](args)
        sys.stdout.flush()      # a closed pipe fails here, not at exit
        return rc
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull,
        # so that the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("output error: standard output was closed", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (WitnessInvalid, ConstructionFailure, UnsupportedCase, AlgebraError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
