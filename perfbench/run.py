"""Benchmark of the h14cert command line: cert build, cert verify, witness check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Set-up imports h14cert afresh and writes the workload's pack
files; it runs SETUP_FIRST times before the first round and SETUP_PER_ROUND
times after each round.

A round is, per valid pack, `witness check` (repeated: it is short),
`cert build` and `cert verify` through `h14cert.cli.main` with the argv a
user would type; then `witness check` and `cert build` of the packs that
must be rejected.  Rounds are whole and run for S seconds: none starts
that would, at the pace of the one before, end after S seconds.  After the
rounds, one `cert verify` of a one-field tampered certificate.  Every
output is checked (see checks.py); an operation whose output misses a
check counts as failed.

A time metric is the sum over the workload's packs of the trimmed mean of
that operation's wall times in all rounds (`setup_s`: of the set-ups),
scaled to the reference speed of the host gauge (see gauge.py), which is
sampled between operations throughout the run.  The unscaled times are
printed on the line that starts with `wall:`.

With --trace 1 rounds alternate between untraced and traced (see
spans.py).  The per-layer metrics are medians over the traced rounds,
times scaled as above; the tracing overhead is the traced minus the
untraced time of a round's operations (round 0, which pays first-call
costs, left out).  The spans of the last traced round are written to
perfbench/work/<workload>/trace.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import gauge
import spans as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_FIRST = 3          # set-ups before the first round
SETUP_PER_ROUND = 2      # set-ups after each round


def fresh_import():
    """Import h14cert and its CLI from scratch, so that set-up pays the import."""
    for name in [m for m in sys.modules if m == "h14cert" or m.startswith("h14cert.")]:
        del sys.modules[name]
    importlib.import_module("h14cert.cli")
    return sys.modules["h14cert"]


class Runner:
    def __init__(self, workload, seed: int, workdir: Path, host: gauge.Gauge):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}       # cert name -> sha256 of round 1
        self.cert_sizes: dict[str, int] = {}
        self.host = host

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = sys.modules["h14cert.cli"].main(argv)
            except SystemExit as exc:               # argparse usage errors
                rc = exc.code
        return rc, out.getvalue(), err.getvalue(), perf_counter() - t0

    def op(self, argv, ok_if) -> float:
        """Run one CLI operation; count it, and count it failed when it
        raises or its output misses `ok_if(rc, stdout, stderr)`."""
        self.attempted += 1
        self.host.tick()
        try:
            rc, out, err, dt = self.call(argv)
            problem = ok_if(rc, out, err)
        except Exception:                            # a crash is a failed op
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return 0.0
        if problem:
            print(f"FAILED {' '.join(argv)}: {problem}", file=sys.stderr)
            self.failed += 1
        return dt

    def check_certificate(self, name: str, path: Path, first_round: bool) -> str | None:
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if first_round:
            self.digests[name] = digest
            self.cert_sizes[name] = len(data)
        elif digest != self.digests[name]:
            return "certificate differs from the one built in round 1"
        problems = checks.structural_problems(json.loads(data), self.w.lmax)
        return "; ".join(problems) or None

    def round(self, r: int, packs) -> dict:
        """One round: returns {"ops": {(metric, pack): [seconds, ...]},
        "cert_bytes": bytes of certificates written}.  The `witness check`
        repeats of a pack are spread before, between and after its build
        and verify, so that they do not all fall in one slow stretch."""
        ops: dict[tuple[str, str], list[float]] = {}
        cert_bytes = 0
        lmax = str(self.w.lmax)
        k = self.w.check_repeats
        split = ((k + 2) // 3, (k + 1) // 3, k // 3)
        for pack in packs:
            expect = pack.expect_fail
            cert = self.workdir / f"{pack.name}.cert.json"
            if expect is None:
                def passed(rc, out, err):
                    return None if rc == 0 and "result: PASS (" in out else f"exit {rc}"

                def built(rc, out, err):
                    if rc != 0 or "result: PASS" not in out:
                        return f"exit {rc}"
                    return self.check_certificate(pack.name, cert, r == 0)
            else:
                def passed(rc, out, err):
                    return None if rc == 2 and f"[FAIL] {expect}" in out else (
                        f"exit {rc}, expected 2 with {expect} failing")

                def built(rc, out, err):
                    return None if rc == 2 and expect in err else (
                        f"exit {rc}, expected 2 naming {expect}")
            check_argv = ["witness", "check", str(pack.path)]
            check_times = ops["check_s", pack.name] = []

            def check(times):
                check_times.extend(self.op(check_argv, passed) for _ in range(times))

            if cert.exists():
                cert.unlink()
            check(split[0])
            ops["build_s", pack.name] = [self.op(
                ["cert", "build", str(pack.path), "--lmax", lmax, "--out", str(cert)],
                built)]
            check(split[1])
            if expect is None and cert.exists():
                cert_bytes += cert.stat().st_size
                ops["verify_s", pack.name] = [
                    self.op(["cert", "verify", str(cert)], passed)]
            check(split[2])
        return {"ops": ops, "cert_bytes": cert_bytes}

    def tamper_check(self):
        """`cert verify` of a certificate with one field changed, once per
        run; the certificate and the field rotate with the seed."""
        kinds = workloads.TAMPER_KINDS
        names = sorted(self.digests)
        if not names:                   # no build succeeded; already counted
            return
        name = names[self.seed % len(names)]
        cert = self.workdir / f"{name}.cert.json"
        kind = kinds[self.seed // len(names) % len(kinds)]
        obj = json.loads(cert.read_text(encoding="utf-8"))
        workloads.tamper(obj, kind)
        bad = self.workdir / f"{name}.tampered.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")

        def rejected(rc, out, err):
            return None if rc == 2 and "[FAIL]" in out else (
                f"tampered ({kind}) certificate: exit {rc}, expected 2")
        self.op(["cert", "verify", str(bad)], rejected)

    def oracle(self, rounds: int):
        """sympy recomputation on the certificates of the last round (all
        rounds built byte-identical certificates); a miss fails the build
        of that certificate in every round."""
        for name in self.digests:
            cert = json.loads((self.workdir / f"{name}.cert.json").read_text(encoding="utf-8"))
            problems = checks.oracle_problems(cert)
            if problems:
                print(f"FAILED oracle on {name}: {'; '.join(problems)}", file=sys.stderr)
                self.failed += rounds


def setup(workload, seed, workdir, host):
    """Import h14cert afresh and write the pack files; returns the packs
    and the seconds taken."""
    host.tick()
    t0 = perf_counter()
    h14 = fresh_import()
    packs = workloads.write_packs(h14, workload, seed, workdir)
    return packs, perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "h14cert" / "__init__.py").is_file():
        print(f"run.py: no h14cert sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / "perfbench" / "work" / args.workload
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    host = gauge.Gauge()
    setup_times = []
    for _ in range(SETUP_FIRST):
        packs, dt = setup(workload, args.seed, workdir, host)
        setup_times.append(dt)

    tracer = tracing.Tracer() if args.trace else None
    pack_layers = []
    if tracer:
        for _ in range(3):
            tracer.reset()
            tracer.install()
            try:
                workloads.write_packs(sys.modules["h14cert"], workload, args.seed, workdir)
            finally:
                tracer.uninstall()
            pack_layers.append(tracing.construction_metrics(tracer.spans))

    runner = Runner(workload, args.seed, workdir, host)
    untraced, traced = [], []
    start = perf_counter()
    r = 0
    while True:
        t_round = perf_counter()
        on = tracer is not None and r % 2 == 1
        if on:
            tracer.reset()
            tracer.install()
        try:
            times = runner.round(r, packs)
        finally:
            if on:
                tracer.uninstall()
        for _ in range(SETUP_PER_ROUND):
            packs, dt = setup(workload, args.seed, workdir, host)
            setup_times.append(dt)
        if on:
            times["layers"] = tracing.layer_metrics(tracer.spans, tracer.loose)
            last_spans = list(tracer.spans)
        (traced if on else untraced).append(times)
        print(f"round {r}{' traced' if on else ''}: " + " ".join(
            f"{k}={sum(v[0] for (m, _), v in times['ops'].items() if m == k):.4f}"
            for k in ("check_s", "build_s", "verify_s")), flush=True)
        r += 1
        now = perf_counter()
        enough = tracer is None or (traced and len(untraced) >= 2)
        if (now - start) + (now - t_round) > args.seconds and enough:
            break

    runner.tamper_check()
    host.tick()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.oracle(len(untraced) + len(traced))
    for name, digest in sorted(runner.digests.items()):
        print(f"certificate {name} sha256 {digest} bytes {runner.cert_sizes[name]}")

    def op_metric(rows, metric):
        """Sum over packs of the trimmed mean of the operation's times in
        all rounds."""
        keys = [k for k in rows[0]["ops"] if k[0] == metric]
        return sum(gauge.trimmed_mean(t for row in rows for t in row["ops"][k])
                   for k in keys)

    if tracer:
        values = {k: statistics.median(t["layers"][k] for t in traced)
                  for k in traced[0]["layers"]}
        values.update({k: statistics.median(p[k] for p in pack_layers)
                       for k in pack_layers[0]})
        e2e = ("check_s", "build_s", "verify_s")
        plain = sum(op_metric(untraced[1:], m) for m in e2e)
        overhead = sum(op_metric(traced, m) for m in e2e) - plain
        values["trace.overhead_s"] = overhead
        wanted = "per_layer"
        print(f"tracing overhead: {overhead:.3f} s per round "
              f"({overhead / plain:.1%} of the untraced check + build + verify)")
        out = workdir / "trace.json"
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "overhead_s": overhead,
            "summary": tracing.summary(last_spans),
            "spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                       "kernels": s[4], "note": s[5]} for s in last_spans],
        }, indent=1), encoding="utf-8")
    else:
        values = {k: op_metric(untraced, k) for k in ("build_s", "verify_s", "check_s")}
        values["cert_bytes"] = statistics.median(row["cert_bytes"] for row in untraced)
        values["setup_s"] = gauge.trimmed_mean(setup_times)
        values["peak_rss_mb"] = peak_rss_mb
        wanted = "end_to_end"

    # Times are reported in seconds at the gauge's reference speed (gauge.py).
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scale = host.scale()
    timed = [m["name"] for m in spec[wanted] if m["unit"] == "s"]
    print("wall: " + " ".join(f"{k}={values[k]:.4f}" for k in timed)
          + f" gauge={gauge.trimmed_mean(host.samples):.5f} scale={scale:.4f}"
          f" n={len(host.samples)}")
    metrics = {m["name"]: {"value": values[m["name"]] * (scale if m["unit"] == "s" else 1),
                           "unit": m["unit"]}
               for m in spec[wanted]}

    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
