"""The benchmark's seed-1 certificates, byte for byte.

Every pack that perfbench/workloads.py writes for seed 1 goes through
`cert build` at its workload's l_max.  Each valid pack's certificate must
have the size and sha256 of its row in seed1_certificates.txt, and each
rejected pack must exit 2 naming the check that fails."""

import hashlib
from pathlib import Path

import pytest

import h14cert
from genutil import benchmark_workloads
from h14cert.cli import main

workloads = benchmark_workloads()
TABLE = Path(__file__).with_name("seed1_certificates.txt")


def table_rows() -> dict:
    """{workload: {certificate name: (bytes, sha256)}} from the table."""
    rows: dict = {}
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            workload, name, size, sha = line.split()
            rows.setdefault(workload, {})[name] = (int(size), sha)
    return rows


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed1_certificates_match_the_table(tmp_path, capsys, name):
    workload = workloads.WORKLOADS[name]
    built = {}
    for pack in workloads.write_packs(h14cert, workload, 1, tmp_path):
        out = tmp_path / f"{pack.name}.cert.json"
        rc = main(["cert", "build", str(pack.path), "--lmax", str(workload.lmax),
                   "--out", str(out)])
        captured = capsys.readouterr()
        if pack.expect_fail is None:
            assert rc == 0 and "result: PASS (" in captured.out, pack.name
            data = out.read_bytes()
            built[pack.name] = (len(data), hashlib.sha256(data).hexdigest())
        else:
            assert rc == 2 and pack.expect_fail in captured.err, pack.name
            assert not out.exists(), pack.name
    assert built == table_rows()[name]
