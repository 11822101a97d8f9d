import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from g2real import linalg, reports
from g2real.cli import main


def run(args):
    return main(args)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

def test_axioms_prime_field(tmp_path, capsys):
    out = tmp_path / "ax.json"
    assert run(["axioms", "--field", "7", "--samples", "5000", "--seed", "1",
                "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    reports.validate_report(data)
    assert all(v["status"] == "pass" for v in data["verdicts"])


@pytest.mark.parametrize("p", ["2147483647", "2000000011"])
def test_axioms_exact_past_the_int64_cap(p, tmp_path):
    # primes whose residue products overflow int64 sums: every law still
    # runs exactly (on Python ints) and passes
    out = tmp_path / "ax.json"
    assert run(["axioms", "--field", p, "--samples", "2000", "--seed", "1",
                "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [v["status"] for v in data["verdicts"]] == ["pass"] * 5


def test_axioms_rationals():
    assert run(["axioms", "--field", "Q", "--samples", "2000", "--seed", "2"]) == 0


def test_axioms_records_a_failed_frame_as_a_failed_check(monkeypatch, tmp_path):
    # a frame builder that raises is a failed theorem-level check (exit 1),
    # not a usage error (exit 2)
    from g2real import automorphisms
    from g2real.fields import FieldError

    def fails(alg, e):
        raise FieldError("split frame fails the pairing relations")

    monkeypatch.setattr(automorphisms, "split_frame_from_idempotent", fails)
    out = tmp_path / "ax.json"
    assert run(["axioms", "--field", "7", "--samples", "10", "--seed", "1",
                "--json", str(out)]) == 1
    statuses = {v["name"]: v["status"] for v in json.loads(out.read_text())["verdicts"]}
    assert statuses.pop("peirce") == "fail"
    assert set(statuses.values()) == {"pass"}


def test_axioms_rejects_characteristic_two(capsys):
    assert run(["axioms", "--field", "2", "--samples", "10"]) == 2
    assert "characteristic 2" in capsys.readouterr().err


def test_axioms_non_numeric_field_is_a_usage_error(capsys):
    assert run(["axioms", "--field", "abc", "--samples", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'abc'" in err


def test_axioms_negative_seed_is_a_usage_error(capsys):
    assert run(["axioms", "--field", "7", "--samples", "10", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--seed" in err


# ---------------------------------------------------------------------------
# counterexamples
# ---------------------------------------------------------------------------

def test_counterexample_sl3_q7(tmp_path):
    out = tmp_path / "ce.json"
    assert run(["counterexample", "sl3", "--q", "7", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["oracle_agreement"] is True
    assert data["obstruction"]["class_group_order"] == 3


def test_counterexample_budget_exhaustion_exits_3(tmp_path):
    # the oracle runs out of budget: its check is unknown, not failed, and
    # the run exits 3 even with assertions stripped
    import g2real

    out = tmp_path / "ce.json"
    src = str(Path(g2real.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "g2real.cli", "counterexample", "sl3",
         "--q", "7", "--budget", "10", "--json", str(out)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 3, proc.stdout + proc.stderr
    data = json.loads(out.read_text())
    assert data["oracle_agreement"] is None
    status = {v["name"]: v["status"] for v in data["verdicts"]}
    assert status["oracle_agreement"] == "unknown"
    assert "fail" not in status.values()


def test_counterexample_sl3_inadmissible(capsys):
    assert run(["counterexample", "sl3", "--q", "5"]) == 2
    err = capsys.readouterr().err
    assert "not admissible" in err and "cube root" in err


def test_counterexample_negative_budget_is_a_usage_error(capsys):
    # not exit 3: a negative budget is a bad flag, not an exhausted one
    assert run(["counterexample", "sl3", "--q", "7", "--budget", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --budget")


@pytest.mark.parametrize("argv, flag", [
    (["cdk", "--q", "7", "--trials", "-1"], "--trials"),
    (["companion", "--q", "5", "--trials", "-1"], "--trials"),
    (["axioms", "--field", "7", "--samples", "-5"], "--samples"),
])
def test_negative_counts_are_usage_errors(argv, flag, capsys):
    # not exit 1 with "0/-1" or a numpy traceback: the flag is bad
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be at least 0")


def test_counterexample_su_q17_default(tmp_path):
    out = tmp_path / "su.json"
    assert run(["counterexample", "su", "--q", "17", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["obstruction"] is not None
    assert data["oracle_agreement"] is None  # sweep not run without the flag


def test_counterexample_su_q17_exhaustive_runs_the_oracle(tmp_path, capsys):
    out = tmp_path / "su.json"
    assert run(["counterexample", "su", "--q", "17", "--exhaustive", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    detail = {v["name"]: v["detail"] for v in data["verdicts"]}
    assert detail["exhaustive_sweep"] == "24137569 candidates, 0 conjugators"
    assert data["oracle_agreement"] is True
    capsys.readouterr()
    assert run(["report", "--input", str(out), "--verify"]) == 0
    assert "witnesses re-verified: 1" in capsys.readouterr().out


def test_counterexample_su_exhaustive_budget_exhaustion_exits_3(tmp_path):
    out = tmp_path / "su.json"
    args = ["counterexample", "su", "--q", "17", "--exhaustive", "--budget", "10"]
    assert run(args + ["--json", str(out)]) == 3
    data = json.loads(out.read_text())
    assert data["oracle_agreement"] is None
    status = {v["name"]: v["status"] for v in data["verdicts"]}
    assert status == {
        "verdict_not_real": "pass",
        "b_squared_not_a_cube": "pass",
        "exhaustive_sweep": "unknown",
    }


def test_counterexample_su_inadmissible(capsys):
    assert run(["counterexample", "su", "--q", "5"]) == 2
    assert "square" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cdk and companion
# ---------------------------------------------------------------------------

def test_cdk_small(tmp_path):
    out = tmp_path / "cdk.json"
    assert run(["cdk", "--q", "5", "--trials", "8", "--seed", "4",
                "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert all(v["status"] == "pass" for v in data["verdicts"])
    assert reports.verify_witnesses(data) > 0


def test_cdk_zero_trials():
    assert run(["cdk", "--q", "7", "--trials", "0", "--seed", "0"]) == 0


def test_companion_cmd():
    assert run(["companion", "--q", "5", "--trials", "25", "--seed", "5"]) == 0


def test_solver_bug_exits_1_not_usage(monkeypatch, capsys):
    # a RealityError from a broken solver invariant is not a usage error
    from g2real import reality

    def broken(t, frame, report):
        raise reality.RealityError("witness maps are not involutions")

    monkeypatch.setattr(reality, "two_involution_witness", broken)
    assert run(["cdk", "--q", "5", "--trials", "2", "--seed", "0"]) == 1
    assert "are not involutions" in capsys.readouterr().err


def test_companion_counts_only_factorizations_that_check(monkeypatch):
    # a factorization whose identity fails is a failed trial, with or without -O
    from g2real import reality

    monkeypatch.setattr(reality, "companion_matrix", lambda L, chi: linalg.identity(L, 3))
    assert run(["companion", "--q", "5", "--trials", "5", "--seed", "2"]) == 1


def test_norms_cmd():
    assert run(["norms", "--q", "5"]) == 0


# ---------------------------------------------------------------------------
# report rendering, determinism, verification
# ---------------------------------------------------------------------------

def test_report_roundtrip_and_verify(tmp_path, capsys):
    out = tmp_path / "r.json"
    run(["cdk", "--q", "5", "--trials", "4", "--seed", "9", "--json", str(out)])
    capsys.readouterr()
    assert run(["report", "--input", str(out), "--verify"]) == 0
    text = capsys.readouterr().out
    assert "witnesses re-verified" in text


def test_tampered_report_fails_verify_without_asserts(tmp_path):
    # one entry of the first symmetric_pair changed: `report --verify` exits 1
    # and names the witness, with assertions stripped
    import g2real

    out = tmp_path / "r.json"
    assert run(["cdk", "--q", "5", "--trials", "3", "--seed", "3", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    index = next(i for i, w in enumerate(data["witnesses"]) if w["kind"] == "symmetric_pair")
    S1 = data["witnesses"][index]["S1"]
    S1[0][0] = str((int(S1[0][0]) + 1) % 5)
    out.write_text(json.dumps(data))
    src = str(Path(g2real.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "g2real.cli", "report", "--input", str(out), "--verify"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert f"witness {index} (symmetric_pair)" in proc.stderr
    assert "witnesses re-verified" not in proc.stdout


@pytest.mark.parametrize("kind, q", [("sl3", "7"), ("su", "17")])
def test_tampered_not_real_instance_fails_verify_without_asserts(tmp_path, kind, q):
    # one entry of the instance's B changed: the rebuilt construction no
    # longer matches, so `report --verify` exits 1, with assertions stripped
    import g2real

    out = tmp_path / "ce.json"
    assert run(["counterexample", kind, "--q", q, "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert reports.verify_witnesses(data) == 1
    B = data["witnesses"][0]["B"]
    B[0][1] = "0" if B[0][1] != "0" else "1"
    out.write_text(json.dumps(data))
    src = str(Path(g2real.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "g2real.cli", "report", "--input", str(out), "--verify"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "witness 0 (not_real_instance)" in proc.stderr
    assert "witnesses re-verified" not in proc.stdout


def _as_singular_conjugator(w):
    """A symmetric_pair rewritten as a conjugator_matrix witness of the zero
    matrix, whose coset sides need its inverse."""
    w.update(kind="conjugator_matrix", B=w.pop("S1"), coset=0, A=[["0"] * 3] * 3)
    del w["S2"]


_MALFORMED = {
    "unparsable S1 entry": ("symmetric_pair", lambda w: w["S1"][0].__setitem__(0, "x")),
    "unparsable A1 entry": ("unitary_pair", lambda w: w["A1"][0].__setitem__(0, "x")),
    "A1 missing a row": ("unitary_pair", lambda w: w["A1"].pop()),
    "S2 missing": ("symmetric_pair", lambda w: w.pop("S2")),
    # entries that make a matrix singular divide by zero in the re-check
    "zero H entry": ("unitary_pair", lambda w: w["H"].__setitem__(1, "0")),
    "singular conjugator A": ("symmetric_pair", _as_singular_conjugator),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_witness_fails_verify_without_asserts(tmp_path, case):
    # a witness that does not parse, or does not compute, is a failed
    # witness, not a traceback
    import g2real

    kind, tamper = _MALFORMED[case]
    out = tmp_path / "r.json"
    assert run(["cdk", "--q", "5", "--trials", "20", "--seed", "3", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    index = next(i for i, w in enumerate(data["witnesses"]) if w["kind"] == kind)
    tamper(data["witnesses"][index])
    kind = data["witnesses"][index]["kind"]
    out.write_text(json.dumps(data))
    src = str(Path(g2real.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "g2real.cli", "report", "--input", str(out), "--verify"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert f"verification failed: witness {index} ({kind}) fails" in proc.stderr
    assert "Traceback" not in proc.stderr


_CDK = ["cdk", "--q", "5", "--trials", "3", "--seed", "3"]
_NON_STRING = {
    "int A1 entry": (_CDK, 3, lambda w: w["A1"][0].__setitem__(0, 3)),
    "null S1 row": (_CDK, 0, lambda w: w["S1"].__setitem__(0, None)),
    "null field": (_CDK, 0, lambda w: w.__setitem__("field", None)),
    "int omega": (["counterexample", "su", "--q", "17"], 0, lambda w: w.__setitem__("omega", 3)),
}


@pytest.mark.parametrize("case", list(_NON_STRING))
def test_non_string_witness_entry_is_a_schema_error(tmp_path, case):
    # witness matrices and text fields are typed in the schema, so a
    # non-string entry is rejected at validation instead of escaping the
    # re-check as a traceback
    import g2real

    args, index, tamper = _NON_STRING[case]
    out = tmp_path / "r.json"
    assert run(args + ["--json", str(out)]) == 0
    data = json.loads(out.read_text())
    tamper(data["witnesses"][index])
    out.write_text(json.dumps(data))
    src = str(Path(g2real.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "g2real.cli", "report", "--input", str(out), "--verify"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert f"schema error at /witnesses/{index}/" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_not_real_instance_needs_the_oracle_verdict(tmp_path, monkeypatch):
    from g2real import reality

    out = tmp_path / "ce.json"
    assert run(["counterexample", "sl3", "--q", "7", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    monkeypatch.setattr(reality, "brute_force_reality_oracle", lambda t, frame: {"verdict": "real"})
    with pytest.raises(reports.VerificationError, match="oracle verdict not_real, got real"):
        reports.verify_witnesses(data)


def test_not_real_instance_re_derived_when_the_oracle_runs_out(tmp_path, monkeypatch):
    # an oracle out of budget leaves the decision on the rebuilt construction,
    # whose exact determinant-class test verifies the instance or fails it
    from g2real import reality

    out = tmp_path / "ce.json"
    assert run(["counterexample", "sl3", "--q", "7", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    monkeypatch.setattr(
        reality, "brute_force_reality_oracle", lambda t, frame: {"verdict": "unknown"}
    )
    assert reports.verify_witnesses(data) == 1
    assert run(["report", "--input", str(out), "--verify"]) == 0
    for verdict in ("real", "unknown"):
        monkeypatch.setattr(
            reality, "reality_sl3", lambda F, A, v=verdict: reality.RealityReport("sl3", v)
        )
        with pytest.raises(reports.VerificationError, match="determinant class obstructs"):
            reports.verify_witnesses(data)


@pytest.mark.parametrize(
    "kind, q, exit_code", [("su", 23, 0), ("sl3", 487, 3)], ids=["su-23", "sl3-487"]
)
def test_report_verifies_past_the_oracle_budget(tmp_path, kind, q, exit_code):
    # the su q = 23 swap coset has 529^3 candidates and the sl3 q = 487 one
    # 487^3, past the oracle's default budget: `report --verify` re-runs the
    # decision on the rebuilt construction and exits 0, and a tampered b
    # still exits 1, with assertions stripped.  The sl3 counterexample run
    # itself runs the oracle, which runs out, so it exits 3
    import g2real

    out = tmp_path / "u.json"
    src = str(Path(g2real.__file__).resolve().parents[1])

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-O", "-m", "g2real.cli", *args],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )

    proc = cli("counterexample", kind, "--q", str(q), "--json", str(out))
    assert proc.returncode == exit_code, proc.stdout + proc.stderr
    proc = cli("report", "--input", str(out), "--verify")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "witnesses re-verified: 1" in proc.stdout
    assert "left unverified" not in proc.stdout
    data = json.loads(out.read_text())
    w = data["witnesses"][0]
    assert w["kind"] == "not_real_instance"
    w["b"] = "1" if w["b"] != "1" else "0"
    out.write_text(json.dumps(data))
    proc = cli("report", "--input", str(out), "--verify")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "witness 0 (not_real_instance) fails: b is the construction's" in proc.stderr


def test_report_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "x"}))
    assert run(["report", "--input", str(bad)]) == 1
    assert "schema error" in capsys.readouterr().err


def test_determinism_modulo_meta(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["cdk", "--q", "5", "--trials", "5", "--seed", "12", "--json", str(a)])
    run(["cdk", "--q", "5", "--trials", "5", "--seed", "12", "--json", str(b)])
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    assert reports.comparable_body(da) == reports.comparable_body(db)


def test_different_seeds_differ(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["cdk", "--q", "5", "--trials", "5", "--seed", "1", "--json", str(a)])
    run(["cdk", "--q", "5", "--trials", "5", "--seed", "2", "--json", str(b)])
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    assert reports.comparable_body(da) != reports.comparable_body(db)


def test_budget_note_advises_only_the_budget(capsys):
    # --exhaustive is already set and the oracle shares the one budget
    args = ["counterexample", "su", "--q", "17", "--exhaustive", "--budget", "10"]
    assert run(args) == 3
    note = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note:")]
    assert note == [
        "note: 1 verdict(s) unknown (budget exhausted); rerun with a larger --budget"
    ]


def test_unknown_statuses_render_budget_note(capsys):
    rep = reports.new_report("demo", {}, 0)
    rep["verdicts"].append({"name": "thing", "status": "unknown", "detail": None})
    rep = reports.finalize(rep, 0.0)
    text = reports.render(rep)
    assert "budget" in text


# ---------------------------------------------------------------------------
# plain-text config files
# ---------------------------------------------------------------------------

def test_config_file_round(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("field=7\nsamples=3000\nseed=5\n")
    assert run(["axioms", "--config", str(cfg)]) == 0


def test_config_file_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q=5\ntrials=3\nseed=1\n")
    assert run(["cdk", "--config", str(cfg), "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "trials=2" in out


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q=5\nwibble=3\n")
    assert run(["cdk", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_config_file_bad_line_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q\n")
    assert run(["cdk", "--config", str(cfg)]) == 2
    assert "key=value" in capsys.readouterr().err


def test_report_truncated_json(tmp_path, capsys):
    bad = tmp_path / "trunc.json"
    bad.write_text('{"scenario": "x", "par')
    assert run(["report", "--input", str(bad)]) == 1
    assert "schema error" in capsys.readouterr().err


def test_report_missing_input_is_a_usage_error(tmp_path, capsys):
    assert run(["report", "--input", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read report")


def test_importing_the_cli_and_the_decisions_loads_no_numpy():
    # numpy is imported inside the functions that use it (only sweeps imports
    # it at module level), so starting the CLI or importing the decisions
    # does not pay for numpy's import before a verdict needs it
    import g2real

    src = str(Path(g2real.__file__).resolve().parents[1])
    for module in ("g2real.cli", "g2real.reality"):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; print('numpy' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False", module
