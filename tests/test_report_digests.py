"""Report bytes outside meta are pinned: SHA-256 digests of
reports.comparable_body for three CLI scenarios, recorded before the 3x3
layer of linalg moved to Krylov intertwiners, the norm form of k[A] and
closed forms on native residues.  The cdk digest was re-recorded when the
finite-field decisions began to build their norm preimages instead of
taking the first lexicographic hit: its six pair witnesses changed, and
every verdict and every other field of the body stayed the same.  A change
to a verdict, a witness, an obstruction or a note changes the digest."""

import hashlib
import json

import pytest

from g2real import reports
from g2real.cli import main

PINNED = {
    ("cdk", "--q", "7", "--trials", "40", "--seed", "1"):
        "6564ca0a7086df76a9ad012f18e2669a6abb7f3f39003411ef0161f618e62b13",
    ("counterexample", "sl3", "--q", "13"):
        "5ecc22b29d02909cb1f00a2801676c687d622a96fb5616d3ecf476621e308405",
    ("counterexample", "su", "--q", "17", "--exhaustive"):
        "a349ee0d5c70e2dbe72edc58fd35988f2a445fb0bd55497ec2198c5a4d7b9d78",
}


@pytest.mark.parametrize("args", list(PINNED), ids=[" ".join(a) for a in PINNED])
def test_report_body_digest(args, tmp_path):
    out = tmp_path / "report.json"
    assert main([*args, "--json", str(out)]) == 0
    body = reports.comparable_body(json.loads(out.read_text()))
    assert hashlib.sha256(body.encode()).hexdigest() == PINNED[args]
