"""Command-line interface: exit codes, printed reports, and file output
for every subcommand, driven in-process through main()."""

import copy
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr

import pytest

import h14cert
from h14cert import (
    FormatError,
    LaurentPoly,
    PermGroupSpec,
    VarSet,
    WitnessPack,
    certificate_from_json,
    frac_from_str,
    invariant_generators,
    invariant_witness_pack,
    load_json_file,
    pack_to_json,
    poly_from_json,
    resolve_pack_fields,
    validate_pack,
    verify_certificate,
    write_json_file,
    x_vars,
)
from h14cert import cli
from h14cert.cli import main

SWAP = PermGroupSpec(n=2, generators=((2, 1),))
# 10,000 levels pass the JSON decoder's limit on every supported Python: from
# 3.12 on the C scanner counts depth against the C recursion limit (10,000 on
# Linux in 3.13, which decodes 9,998 levels), not sys.getrecursionlimit()
DEEP_JSON = "[" * 10_000 + "]" * 10_000

# a group on five letters whose `invariants --degree 5 --json` fills 85 kB
G5 = '{"n": 5, "generators": [[2, 1, 3, 4, 5], [1, 2, 4, 5, 3]]}'


def write_demo_pack(path, resolved=False):
    pack = invariant_witness_pack(SWAP)
    if resolved:
        rw, _ = validate_pack(pack)
        pack = resolve_pack_fields(pack, rw)
    write_json_file(str(path), pack_to_json(pack))
    return path


def test_demo_success(tmp_path, capsys):
    out = tmp_path / "demo.json"
    rc = main(["demo", "--lmax", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "generators of the twisted invariant algebra:" in captured.out
    assert "image of orbit(y1)    = x1^5*x2 + x1^-2" in captured.out
    assert "image of orbit(y1*y2) = x1^4*x2 - x1^-2 + x1^-3" in captured.out
    assert "image of z            = z + x1^-1" in captured.out
    assert "result: PASS" in captured.out
    assert f"members: 4\ncertificate written to {out}\n" in captured.out
    cert = certificate_from_json(load_json_file(str(out)))
    assert [entry.l for entry in cert.entries] == [0, 1, 2, 3]
    assert verify_certificate(cert).ok


def test_demo_default_output_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["demo", "--lmax", "0"])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "demo_certificate.json").exists()


def test_cert_build_bad_weight_rejected(tmp_path, capsys):
    """A pack whose "t" is too small to make the twisted data polynomial is
    rejected at validation, and nothing is written."""
    pack = tmp_path / "pack.json"
    obj = pack_to_json(invariant_witness_pack(SWAP))
    obj["t"] = [4]
    write_json_file(str(pack), obj)
    rc = main(["cert", "build", str(pack), "--out", str(tmp_path / "x.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "witness rejected" in captured.err
    assert "[FAIL] weights-twist" in captured.out
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["demo", "--lmax", "abc"], "argument --lmax: invalid int value: 'abc'"),
    (["demo", "--lmax", "-1"], "argument --lmax: must be nonnegative, got -1"),
    (["cert", "build", "pack.json", "--lmax", "-1"],
     "argument --lmax: must be nonnegative, got -1"),
    (["cert", "verify"], "the following arguments are required: file"),
    # the weights are the pack's "t" field
    (["cert", "build", "pack.json", "--t", "5"], "unrecognized arguments: --t 5"),
    (["demo", "--t2", "4"], "unrecognized arguments: --t2 4"),
    (["invariants", "--group", '{"n": 2, "generators": [[2, 1]]}', "--degree", "-1"],
     "argument --degree: must be nonnegative, got -1"),
] + [
    # the scan bound is worked out from the pack; no command takes it
    (command + [flag, "5"], f"unrecognized arguments: {flag} 5")
    for command in (["demo"], ["witness", "check", "pack.json"],
                    ["cert", "build", "pack.json"], ["cert", "verify", "cert.json"])
    for flag in ("--bound", "--member-bound")
], ids=["lmax-not-int", "demo-lmax-negative", "build-lmax-negative", "missing-file",
        "build-t", "demo-t2", "invariants-degree-negative"] + [
    f"{command}-{flag}" for command in ("demo", "check", "build", "verify")
    for flag in ("bound", "member-bound")
])
def test_usage_errors_exit_3(capsys, argv, message):
    """A bad command line is malformed input: exit 3 at parse time, with
    argparse's usage line and no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 3
    assert captured.err.startswith("usage: h14cert")
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_scan_bound_comes_from_the_pack(tmp_path, capsys):
    """The swap pack with generators up to degree 7 (bytes pinned) has
    axis degrees up to 14, above the least scan bound 12: it passes
    `witness check`, builds and verifies with no flags.  `cert build`
    prints the pack's validation report, the member count and the path,
    and `cert verify` prints the same pack lines after resolved-fields."""
    swap = invariant_witness_pack(SWAP)
    gens = invariant_generators(SWAP, 7)
    # orbit(y1) and orbit(y1*y2) keep their places, u0 and u2, among more u's
    u_vars = VarSet(tuple(f"u{i}" for i in range(len(gens))), (False,) * len(gens))
    wide = dataclasses.replace(swap, gens=gens, f_expr=swap.f_expr.with_vars(u_vars),
                               g_expr=swap.g_expr.with_vars(u_vars))
    pack = tmp_path / "pack.json"
    write_json_file(str(pack), pack_to_json(wide))
    assert hashlib.sha256(pack.read_bytes()).hexdigest() == (
        "62cb37bfc1cb820299b73f274edddca060b63122092e148abbe77f4250c9375d")
    out = tmp_path / "cert.json"
    assert main(["witness", "check", str(pack)]) == 0
    assert "orders up to 14: [0, 2, 3, 4," in capsys.readouterr().out
    assert main(["cert", "build", str(pack), "--lmax", "1", "--out", str(out)]) == 0
    built = capsys.readouterr().out.splitlines()
    assert built[-3].startswith("result: PASS (")
    assert built[-2:] == ["members: 2", f"certificate written to {out}"]
    assert main(["cert", "verify", str(out)]) == 0
    verified = capsys.readouterr().out.splitlines()
    assert verified[0].startswith("[ok ] resolved-fields")
    assert verified[1:len(built) - 2] == built[:-3]
    assert verified[-1].startswith("result: PASS (")


def test_cert_verify_ignores_the_stored_report(tmp_path, capsys):
    """Certificates carry no report.  A legacy "report" key, which older
    builds wrote, is not read: with any value, the file prints the same
    report, with exit 0, as the file without it."""
    out = tmp_path / "demo.json"
    assert main(["demo", "--lmax", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    obj = load_json_file(str(out))
    assert "report" not in obj
    assert main(["cert", "verify", str(out)]) == 0
    pristine = capsys.readouterr().out
    assert pristine.endswith("result: PASS (40 checks)\n")
    failing = {"ok": False, "checks": [{"name": "resolved-fields", "ok": False, "detail": ""}]}
    for legacy in (5, None, "x", [], {}, {"checks": "x"}, failing,
                   dict(failing, ok=True)):
        write_json_file(str(out), dict(obj, report=legacy))
        assert main(["cert", "verify", str(out)]) == 0, legacy
        assert capsys.readouterr().out == pristine


@pytest.mark.parametrize("target", ["missing/x.json", "."],
                         ids=["missing-directory", "directory"])
def test_unwritable_out_exits_3_before_the_build(tmp_path, capsys, monkeypatch, target):
    """An --out that cannot be written exits 3 before any work is done."""
    monkeypatch.chdir(tmp_path)
    pack = write_demo_pack(tmp_path / "pack.json")

    def no_build(*args, **kwargs):
        raise AssertionError("built a certificate that cannot be written")

    monkeypatch.setattr("h14cert.cli.build_certificate", no_build)
    for argv in (["demo", "--out", target],
                 ["cert", "build", str(pack), "--out", target]):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3, argv
        assert captured.out == ""
        assert captured.err.startswith(f"input error: cannot write {target}: ")
        assert "Traceback" not in captured.err


def test_write_json_file_oserror_is_format_error(tmp_path):
    with pytest.raises(FormatError, match="cannot write"):
        write_json_file(str(tmp_path / "missing" / "x.json"), {})
    with pytest.raises(FormatError, match="cannot write"):
        write_json_file(str(tmp_path), {})


def test_console_script_usage_error_exits_3():
    proc = subprocess.run(
        [sys.executable, "-m", "h14cert.cli", "demo", "--lmax", "-1"],
        capture_output=True, text=True, env=child_env(), timeout=30,
    )
    assert proc.returncode == 3
    assert "usage: h14cert demo" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_dispatch_finds_a_command_replaced_after_the_first_call(tmp_path, capsys,
                                                                monkeypatch):
    """The parser outlives a call, but each call looks its command up on
    the module, so a function put there later (a tracing wrapper, say) runs."""
    path = write_demo_pack(tmp_path / "pack.json")
    assert main(["witness", "check", str(path)]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_witness_check", lambda args: seen.append(args.file) or 0)
    assert main(["witness", "check", str(path)]) == 0
    assert seen == [str(path)]
    assert capsys.readouterr().out.count("result: PASS") == 1


def test_usage_error_then_a_command_in_one_process(tmp_path, capsys):
    """A usage error leaves nothing behind in the kept parser: a valid
    command after it prints and exits as in a fresh process, and each
    usage text goes to the standard error of its own call."""
    path = write_demo_pack(tmp_path / "pack.json")
    bad, good = ["witness", "check"], ["witness", "check", str(path)]
    fresh = [subprocess.run([sys.executable, "-m", "h14cert.cli", *argv],
                            capture_output=True, text=True, env=child_env(), timeout=30)
             for argv in (bad, good)]
    assert [proc.returncode for proc in fresh] == [3, 0]
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert (exc.value.code, capsys.readouterr()) == (3, ("", fresh[0].stderr))
        assert main(good) == 0
        assert capsys.readouterr() == (fresh[1].stdout, "")
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit):
        main(bad)
    assert err.getvalue() == fresh[0].stderr
    assert capsys.readouterr() == ("", "")


def test_witness_check_passes(tmp_path, capsys):
    path = write_demo_pack(tmp_path / "pack.json")
    rc = main(["witness", "check", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "result: PASS" in captured.out
    assert "[ok ] semigroup-non-normal" in captured.out


def test_witness_check_fails_on_bad_stored_field(tmp_path, capsys):
    path = write_demo_pack(tmp_path / "pack.json", resolved=True)
    obj = load_json_file(str(path))
    obj["h"]["terms"].append({"e": [0, 0], "c": "1"})
    write_json_file(str(path), obj)
    rc = main(["witness", "check", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "[FAIL] axis-quotient" in captured.out
    assert "result: FAIL" in captured.out


def test_witness_check_large_expression_exponent(tmp_path, capsys):
    """An f_expr power beyond the interpreter's recursion limit is evaluated
    and fails its check; it does not end in a traceback."""
    path = write_demo_pack(tmp_path / "pack.json")
    obj = load_json_file(str(path))
    exps = obj["f_expr"]["terms"][0]["e"]
    exps[exps.index(1)] = 1100
    write_json_file(str(path), obj)
    rc = main(["witness", "check", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "[FAIL] generator-expressions" in captured.out
    assert "Traceback" not in captured.err


def test_witness_check_coefficient_digit_limit(tmp_path, capsys):
    """A pack coefficient whose denominator has 4301 digits is an input
    error (exit 3), not a traceback from the interpreter's digit limit."""
    path = write_demo_pack(tmp_path / "pack.json")
    obj = load_json_file(str(path))
    obj["R_gens"][0]["terms"][0]["c"] = "1/" + "9" * 4301
    write_json_file(str(path), obj)
    rc = main(["witness", "check", str(path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "more than 4300 digits" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_over_long_json_integers_exit_3(tmp_path, capsys):
    """A JSON integer of 4301 digits, which json.load refuses with a plain
    ValueError, is an input error (exit 3): a pack's "n" under `witness
    check` and a member's exponent under `cert verify`."""
    pack = write_demo_pack(tmp_path / "pack.json")
    cert = tmp_path / "cert.json"
    assert main(["cert", "build", str(pack), "--lmax", "1", "--out", str(cert)]) == 0
    capsys.readouterr()
    placeholder = 987654321

    def put_long_int(path, keys):
        obj = load_json_file(str(path))
        inner = obj
        for key in keys[:-1]:
            inner = inner[key]
        inner[keys[-1]] = placeholder
        write_json_file(str(path), obj)
        path.write_text(path.read_text().replace(str(placeholder), "9" * 4301))

    put_long_int(pack, ["n"])
    put_long_int(cert, ["entries", 1, "q", "terms", 0, "e", 0])
    for argv in (["witness", "check", str(pack)], ["cert", "verify", str(cert)]):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3
        assert "is not valid JSON: Exceeds the limit (4300" in captured.err
        assert "Traceback" not in captured.out + captured.err


def test_cert_build_then_verify(tmp_path, capsys):
    pack = write_demo_pack(tmp_path / "pack.json")
    out = tmp_path / "cert.json"
    rc = main(["cert", "build", str(pack), "--lmax", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "result: PASS" in captured.out
    assert f"certificate written to {out}" in captured.out

    rc = main(["cert", "verify", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "result: PASS" in captured.out


def test_cert_verify_rejects_tampered_file(tmp_path, capsys):
    pack = write_demo_pack(tmp_path / "pack.json")
    out = tmp_path / "cert.json"
    assert main(["cert", "build", str(pack), "--lmax", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    obj = load_json_file(str(out))
    obj["pi"]["terms"][0]["c"] = "5"
    write_json_file(str(out), obj)
    rc = main(["cert", "verify", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "[FAIL] relation-matches" in captured.out


def test_cert_verify_negative_denominator_exits_3(tmp_path, capsys):
    pack = write_demo_pack(tmp_path / "pack.json")
    out = tmp_path / "cert.json"
    assert main(["cert", "build", str(pack), "--lmax", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    obj = load_json_file(str(out))
    obj["entries"][1]["q"]["terms"][0]["c"] = "1/-2"
    write_json_file(str(out), obj)
    rc = main(["cert", "verify", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "input error: bad rational '1/-2'" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_cert_verify_non_ascii_digits_exit_3(tmp_path, capsys):
    """Arabic-Indic digits are decimal digits to Python but not canonical
    certificate bytes; the loader rejects them as an input error."""
    pack = write_demo_pack(tmp_path / "pack.json")
    out = tmp_path / "cert.json"
    assert main(["cert", "build", str(pack), "--lmax", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    obj = load_json_file(str(out))
    obj["entries"][1]["q"]["terms"][0]["c"] = "\u0663/\u0664"
    write_json_file(str(out), obj)
    rc = main(["cert", "verify", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "input error: bad rational" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_cert_verify_member_without_variables_exits_2(tmp_path, capsys):
    """A member stored over no variables is not in k[x1..xn, z]: exit 2
    with its lines failing, not an IndexError on its empty exponents."""
    pack = write_demo_pack(tmp_path / "pack.json")
    out = tmp_path / "cert.json"
    assert main(["cert", "build", str(pack), "--lmax", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    obj = load_json_file(str(out))
    obj["entries"][0]["q"] = {"vars": [], "laurent": [], "terms": [{"e": [], "c": "1"}]}
    write_json_file(str(out), obj)
    rc = main(["cert", "verify", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "[FAIL] member-0-recomputed" in captured.out
    assert "[FAIL] member-0-polynomial" in captured.out
    assert "[ok ] member-1-recomputed" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_cert_build_weight_flag(tmp_path, capsys):
    """The weights are the pack's "t" field; `cert build` has no flag for them."""
    pack, out = tmp_path / "pack.json", tmp_path / "cert.json"
    obj = pack_to_json(invariant_witness_pack(SWAP))
    obj["t"] = [6]
    write_json_file(str(pack), obj)
    rc = main(["cert", "build", str(pack), "--lmax", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "t = [6]" in captured.out
    cert = certificate_from_json(load_json_file(str(out)))
    assert cert.pack.weights == (6,)

    obj["t"] = [4]
    write_json_file(str(pack), obj)
    rc = main(["cert", "build", str(pack), "--lmax", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "witness rejected" in captured.err


def dense_generator_pack(tmp_path):
    """The demo pack plus the dense generator sum_{k=2..200} (k mod 7 + 1)*x1^k,
    which raises the scan bound to 200."""
    pack = invariant_witness_pack(SWAP)
    dense = LaurentPoly(x_vars(2), {(k, 0): k % 7 + 1 for k in range(2, 201)})
    pack = dataclasses.replace(pack, gens=pack.gens + [dense], f_expr=None, g_expr=None)
    path = tmp_path / "dense.json"
    write_json_file(str(path), pack_to_json(pack))
    return ["witness", "check", str(path)]


def d3_certificate_with_bumped_lead(tmp_path):
    """A pack beyond Pi = T^2 - G^3 (d = 3, e = 8) builds and verifies at
    l_max 3; then one z^3 coefficient of q_3 is bumped."""
    x1, x2 = (LaurentPoly.variable(x_vars(2), v) for v in ("x1", "x2"))
    g, f = x1 ** 3 + x2, x1 ** 4 + x1 * x2 + x2 ** 2
    pack, cert = tmp_path / "d3.json", tmp_path / "d3-cert.json"
    write_json_file(str(pack), pack_to_json(WitnessPack(n=2, gens=[g, f], f=f, g=g)))
    assert main(["cert", "build", str(pack), "--lmax", "3", "--out", str(cert)]) == 0
    assert main(["cert", "verify", str(cert)]) == 0
    obj = load_json_file(str(cert))
    term = next(t for t in obj["entries"][3]["q"]["terms"] if t["e"][-1] == 3)
    term["c"] = str(frac_from_str(term["c"]) + 1)
    write_json_file(str(cert), obj)
    return ["cert", "verify", str(cert)]


def demo_certificate_with_tail_outside_fg(tmp_path):
    """The demo certificate at l_max 3 with a 1/g term added to the last tail."""
    cert = tmp_path / "demo.json"
    assert main(["demo", "--lmax", "3", "--out", str(cert)]) == 0
    obj = load_json_file(str(cert))
    obj["entries"][3]["fvec"][2]["terms"].append({"e": [0, 0, -1], "c": "1"})
    write_json_file(str(cert), obj)
    return ["cert", "verify", str(cert)]


@pytest.mark.parametrize("make, rc, failed", [
    (dense_generator_pack, 0, []),
    (d3_certificate_with_bumped_lead, 2,
     ["member-3-recomputed", "member-3-leading", "member-3-degree-drop"]),
    (demo_certificate_with_tail_outside_fg, 2,
     ["member-3-tails-in-fg", "member-3-recomputed"]),
], ids=["dense-generator", "d3-bumped-lead", "tail-outside-fg"])
def test_commands_on_made_inputs(tmp_path, capsys, make, rc, failed):
    """The command exits `rc` within 30 s, fails exactly the lines named,
    and prints no traceback."""
    argv = make(tmp_path)
    capsys.readouterr()
    start = time.perf_counter()
    assert main(argv) == rc
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()
            if line.startswith("[FAIL] ")] == [f"[FAIL] {name}" for name in failed]
    assert "Traceback" not in captured.out + captured.err
    assert elapsed < 30


def test_malformed_inputs_exit_3(tmp_path, capsys):
    rc = main(["witness", "check", str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert rc == 3
    assert "input error:" in captured.err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc = main(["cert", "verify", str(bad)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "input error:" in captured.err

    shallow = tmp_path / "shallow.json"
    shallow.write_text(json.dumps({"n": 2}))
    rc = main(["witness", "check", str(shallow)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "input error:" in captured.err

    # nested deeper than the JSON decoder's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    for argv in (["cert", "verify", str(deep)], ["witness", "check", str(deep)]):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3, argv
        assert captured.err.startswith("input error: ") and "nested too deeply" in captured.err
        assert "Traceback" not in captured.out + captured.err

    # a Laurent flag that is not a variable name
    obj = load_json_file(str(write_demo_pack(tmp_path / "pack.json")))
    obj["f"]["laurent"] = [[1]]
    flagged = tmp_path / "flagged.json"
    write_json_file(str(flagged), obj)
    rc = main(["witness", "check", str(flagged)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "input error: witness.f.laurent: names must be strings" in captured.err


def check_with_edited_field(tmp_path, capsys, key, edit):
    """`witness check` on the resolved demo pack after `edit` has changed
    its field `key` in place; returns (rc, out, err)."""
    path = write_demo_pack(tmp_path / "pack.json", resolved=True)
    obj = load_json_file(str(path))
    edit(obj[key])
    write_json_file(str(path), obj)
    rc = main(["witness", "check", str(path)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def check_with_stored_pi(tmp_path, capsys, edit):
    """`check_with_edited_field` on the stored Pi, the list of its
    T-coefficients."""
    return check_with_edited_field(tmp_path, capsys, "Pi", edit)


def _set_all(key, value):
    def edit(coeffs):
        for c in coeffs:
            c[key] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set_all("vars", ["H"]),                 # coefficients over H, not G
    _set_all("laurent", ["G"]),              # G flagged Laurent
], ids=["over-H", "G-laurent"])
def test_stored_pi_over_other_variables_fails_its_line(tmp_path, capsys, edit):
    rc, out, err = check_with_stored_pi(tmp_path, capsys, edit)
    assert rc == 2
    assert "[FAIL] annihilator: stored annihilator is not monic over k[G]" in out
    assert "result: FAIL" in out


def test_stored_pi_with_mixed_variable_sets_exits_3(tmp_path, capsys):
    rc, out, err = check_with_stored_pi(
        tmp_path, capsys, lambda coeffs: coeffs[0].update(vars=["H"]))
    assert rc == 3
    assert "input error: witness.Pi: coefficient over the wrong variable set" in err


def test_empty_stored_pi_exits_2(tmp_path, capsys):
    rc, out, err = check_with_stored_pi(tmp_path, capsys, lambda coeffs: coeffs.clear())
    assert rc == 2
    assert "[FAIL] annihilator: stored annihilator is not monic over k[G]" in out
    assert "result: FAIL (6 checks)" in out
    assert err == ""


def test_stored_h_over_other_variables_fails_its_line(tmp_path, capsys):
    rc, out, err = check_with_edited_field(
        tmp_path, capsys, "h", lambda h: h.update(vars=["y1", "y2"], laurent=[]))
    assert rc == 2
    assert "[FAIL] axis-quotient: stored h disagrees with eps(f)/eps(g)" in out
    assert "result: FAIL (5 checks)" in out
    assert err == ""


def test_f_expr_with_inverse_generator_fails_its_line(tmp_path, capsys):
    def invert_u0(expr):
        expr["laurent"] = ["u0"]
        expr["terms"][0]["e"][0] = -1      # u0^-1 + u2; u0 = x1^2 + x2
    rc, out, err = check_with_edited_field(tmp_path, capsys, "f_expr", invert_u0)
    assert rc == 2
    assert "[FAIL] generator-expressions: not a single term: x1^2 + x2" in out
    assert "result: FAIL (3 checks)" in out
    assert err == ""


def _drop_last_variable(poly):
    poly["vars"].pop()
    for term in poly["terms"]:
        term["e"].pop()


@pytest.mark.parametrize("edit, rc, line", [
    # f_expr over u0, u1 for the three generators u0, u1, u2
    (lambda obj: _drop_last_variable(obj["f_expr"]), 2,
     "[FAIL] generator-expressions: expression arity does not match the generators"),
    (lambda obj: obj["g"].update(vars=["x1", "x1"]), 3,
     "input error: witness.g: duplicate variable names"),
    # the stored e must be the least one, 3; a larger one is not raised to
    (lambda obj: obj.update(e=4), 2,
     "[FAIL] clearing-exponent: stored clearing exponent 4 exceeds the minimum 3"),
    (lambda obj: obj.update(e=120), 2,
     "[FAIL] clearing-exponent: stored clearing exponent 120 exceeds the minimum 3"),
], ids=["f-expr-arity", "g-duplicate-names", "e-above-minimum", "e-far-above-minimum"])
def test_hostile_pack_fields(tmp_path, capsys, edit, rc, line):
    """`witness check` on the resolved demo pack with one field made
    hostile: a failed line (exit 2) or one input error (exit 3)."""
    path = write_demo_pack(tmp_path / "pack.json", resolved=True)
    obj = load_json_file(str(path))
    edit(obj)
    write_json_file(str(path), obj)
    assert main(["witness", "check", str(path)]) == rc
    captured = capsys.readouterr()
    assert line in (captured.out if rc == 2 else captured.err)
    assert "Traceback" not in captured.out + captured.err


def test_stored_pi_coefficient_variable_named_t_exits_3(tmp_path, capsys):
    """Pi is read over T followed by its coefficients' variables, so a
    coefficient variable named T is an input error."""
    rc, out, err = check_with_stored_pi(tmp_path, capsys, _set_all("vars", ["T"]))
    assert rc == 3
    assert "input error: witness.Pi: duplicate variable names" in err


def test_invariants_inline_group(capsys):
    rc = main(["invariants", "--group", '{"n": 2, "generators": [[2, 1]]}',
               "--degree", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    assert lines == [str(p) for p in invariant_generators(SWAP, 2)]


def test_invariants_on_many_letters(capsys):
    """Monomials are enumerated by a loop, not one recursion per letter."""
    rc = main(["invariants", "--group", '{"n": 1500, "generators": []}',
               "--degree", "1"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1500
    assert lines[:3] == ["x1", "x1^2 - x1 + x2", "x3"] and lines[-1] == "x1500"


@pytest.mark.parametrize("n, degree", [(1500, 2), (2, 10 ** 8), (10 ** 11, 1)],
                         ids=["many-letters-degree-2", "huge-degree", "huge-n"])
def test_invariants_over_the_limit_exit_3_before_enumerating(capsys, monkeypatch,
                                                             n, degree):
    """letters x monomials is counted first; above INVARIANTS_LIMIT the
    command exits 3 without enumerating one monomial."""
    def unreachable(*args):
        raise AssertionError("enumerated the monomials")

    monkeypatch.setattr("h14cert.constructions._monomials", unreachable)
    rc = main(["invariants", "--group", '{"n": %d, "generators": []}' % n,
               "--degree", str(degree)])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == (f"input error: {n} letters to degree {degree} exceed the "
                            "limit of 5,000,000 letters x monomials\n")


def test_invariants_five_letters_byte_for_byte(capsys):
    """The orbit-sum generators of a five-letter group, pinned by sha256."""
    assert main(["invariants", "--group", G5, "--degree", "5", "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() \
        == "dc4c0b661f4d9626e2076f288a48978901420d9a954a1a3427766f916029d9d2"


def test_invariants_json_output(tmp_path, capsys):
    spec = tmp_path / "group.json"
    write_json_file(str(spec), {"n": 2, "generators": [[2, 1]]})
    rc = main(["invariants", "--group", str(spec), "--degree", "2", "--json"])
    captured = capsys.readouterr()
    assert rc == 0
    decoded = [poly_from_json(item) for item in json.loads(captured.out)]
    assert decoded == invariant_generators(SWAP, 2)


def test_invariants_bad_inline_json(capsys):
    for spec, detail in [("{oops", "is not valid JSON"),
                         ('{"n": ' + DEEP_JSON + "}", "is nested too deeply")]:
        rc = main(["invariants", "--group", spec, "--degree", "2"])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"input error: inline group spec {detail}" in captured.err


@pytest.mark.parametrize("spec, rc, message", [
    ('{"n": 2, "generators": [[2, 2]]}', 3, "input error: group: (2, 2) is not a permutation of 1..2"),
    ('{"n": 0, "generators": []}', 3, "input error: group: n must be at least 1, got 0"),
    ('{"n": -1, "generators": []}', 3, "input error: group: n must be at least 1, got -1"),
    # one letter is a well-formed group that has no witness pair
    ('{"n": 1, "generators": []}', 2, "check failed: need at least two variables"),
], ids=["not-a-permutation", "n-zero", "n-negative", "n-one"])
def test_invariants_bad_group_shape(capsys, spec, rc, message):
    assert main(["invariants", "--group", spec, "--degree", "2"]) == rc
    assert message in capsys.readouterr().err


def child_env():
    """The environment for a `python -m h14cert.cli` child that imports the
    same package as this process."""
    src = os.path.dirname(os.path.dirname(h14cert.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_closed_stdout_exits_3_without_traceback(tmp_path):
    """A reader that closes the pipe early ends the run with one line on
    stderr and exit 3; the 85 kB of output fill more than a pipe buffer,
    so the writer meets the closed pipe whatever the timing."""
    with open(tmp_path / "err", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "h14cert.cli", "invariants", "--group", G5,
             "--degree", "5", "--json"],
            stdout=subprocess.PIPE, stderr=err, env=child_env(),
        )
        proc.stdout.close()
        rc = proc.wait(timeout=60)
    assert rc == 3
    assert (tmp_path / "err").read_text() == "output error: standard output was closed\n"


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cert.json"
    proc = subprocess.run(
        [sys.executable, "-m", "h14cert.cli", "demo", "--lmax", "0",
         "--out", str(out)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert "certificate written to" in proc.stdout
    assert out.exists()


def test_pack_with_huge_n_fails_its_shape_fast(tmp_path):
    """A pack whose n disagrees with its polynomials' width fails
    `pack-shape` without first building n variable names."""
    path = write_demo_pack(tmp_path / "pack.json")
    obj = load_json_file(str(path))
    obj["n"] = 10_000_000
    write_json_file(str(path), obj)
    proc = subprocess.run(
        [sys.executable, "-m", "h14cert.cli", "witness", "check", str(path)],
        capture_output=True, text=True, env=child_env(), timeout=5,
    )
    assert proc.returncode == 2
    assert "[FAIL] pack-shape: n=10000000, 3 generators" in proc.stdout


#: the values a mutated field takes: small, and of every JSON type
MUTATION_VALUES = (0, 1, -1, 2, "1/0", "x", None, [], {}, 1.5, True, False,
                   [0], [1, -1], ["x"], [[0, 1]])


def mutated(rng, obj):
    """A copy of a JSON object with one or two fields changed to a value of
    MUTATION_VALUES, or deleted; each field is found by a random walk from
    the root that stops at each level with probability 1/3."""
    obj = json.loads(json.dumps(obj))
    for _ in range(rng.choice((1, 2))):
        parent, key = None, None
        node = obj
        while isinstance(node, (dict, list)) and node and (parent is None or rng.random() > 1 / 3):
            parent = node
            key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
            node = node[key]
        if parent is None:
            continue
        if rng.random() < 0.2:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(rng.choice(MUTATION_VALUES))
    return obj


def test_seeded_cli_mutations_exit_0_2_or_3(tmp_path, capsys):
    """Mutations of the resolved swap pack and of its certificate at l_max 2,
    run through `witness check`, `cert build` and `cert verify`: every run
    exits 0, 2 or 3, with no traceback, within 5 s."""
    pack = write_demo_pack(tmp_path / "pack.json", resolved=True)
    cert = tmp_path / "cert.json"
    assert main(["cert", "build", str(pack), "--lmax", "2", "--out", str(cert)]) == 0
    bases = {"pack": load_json_file(str(pack)), "cert": load_json_file(str(cert))}
    capsys.readouterr()
    rng = random.Random(23)
    seen = {}
    for case in range(200):
        kind = rng.choice(("pack", "cert"))
        path = tmp_path / f"mutated-{kind}.json"
        path.write_text(json.dumps(mutated(rng, bases[kind])), encoding="utf-8")
        commands = ([["witness", "check", str(path)],
                     ["cert", "build", str(path), "--lmax", "2",
                      "--out", str(tmp_path / "out.json")]]
                    if kind == "pack" else [["cert", "verify", str(path)]])
        for argv in commands:
            start = time.perf_counter()
            rc = main(argv)
            elapsed = time.perf_counter() - start
            captured = capsys.readouterr()
            assert rc in (0, 2, 3), (case, argv, path.read_text())
            assert "Traceback" not in captured.out + captured.err, (case, argv)
            assert elapsed < 5, (case, argv, path.read_text())
            seen[argv[1], rc] = seen.get((argv[1], rc), 0) + 1
    assert all(seen.get((command, rc)) for command in ("check", "build", "verify")
               for rc in (0, 2, 3)), seen
