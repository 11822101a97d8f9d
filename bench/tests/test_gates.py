"""Every workload's correctness gate passes on the true expectation and fails
on a deliberately wrong one, also under ``python -O``."""

import random
import subprocess
import sys

import workloads
from conftest import BENCH
from g2real import automorphisms, composition, fields, linalg, reality


def _sl3_element(q, seed):
    k = fields.PrimeField(q)
    alg = composition.zorn_algebra(k)
    frame = automorphisms.zorn_split_frame(alg)
    A = automorphisms.random_sl3(k, random.Random(seed), avoid_eigenvalue_one=True,
                                 separable=True)
    return k, alg, frame, A, automorphisms.sl3_embed(A, frame)


def test_lift_gate_rejects_a_wrong_verdict():
    k, alg, frame, A, t = _sl3_element(7, 1)
    assert workloads.lift_item("ok", alg, t.matrix, 7, "real").run().error is None
    wrong = workloads.lift_item("wrong", alg, t.matrix, 7, "not_real").run()
    assert wrong.error == "verdict real, expected not_real"


def test_lift_gate_rechecks_the_witness():
    k, alg, frame, A, t = _sl3_element(7, 2)
    report = reality.reality_report_for(t)
    assert workloads.witness_error(report, t.matrix, 7) is None
    other = automorphisms.sl3_embed(reality.companion_matrix(k, (6, 1, 1)), frame)
    assert workloads.witness_error(report, other.matrix, 7) == "involution product is not t"
    report.witness = {"h": t}  # t does not invert itself
    assert workloads.witness_error(report, t.matrix, 7) == "conjugator witness does not invert t"


def test_lift_gate_rejects_an_uncertified_input():
    k, alg, frame, A, t = _sl3_element(7, 3)
    bad = [list(row) for row in t.matrix]
    bad[1][2] = (bad[1][2] + 1) % 7
    assert workloads.lift_item("bad", alg, bad, 7, "real").run().error == "input did not certify"


def _census_q7():
    k, companions, twists = workloads.census_sl3_matrices(7)
    matrices = companions + twists
    alg = composition.zorn_algebra(k)
    frame = automorphisms.zorn_split_frame(alg)
    items = [
        workloads.census_item(str(i), lambda A=A: reality.reality_sl3(k, A),
                              automorphisms.sl3_embed(A, frame), frame)
        for i, A in enumerate(matrices)
    ]
    return k, frame, matrices, items


def test_census_gate_checks_the_not_real_count():
    k, frame, matrices, items = _census_q7()
    # 7^2 - 7 companions with chi(1) != 0, plus two twists of each of the two
    # triple-root companions
    assert len(matrices) == 46
    outcomes = [item.run() for item in items]
    ops = workloads.census_check(items, outcomes, 4)
    assert [op for op, err in ops if err] == []
    wrong = workloads.census_check(items, outcomes, 5)
    assert [err for op, err in wrong if err] == ["4 not real, recorded 5"]


def test_census_gate_rejects_disagreement_with_the_oracle():
    k, frame, matrices, items = _census_q7()
    A = matrices[0]
    t = automorphisms.sl3_embed(A, frame)

    def wrong_decision():
        report = reality.reality_sl3(k, A)
        report.verdict = "not_real" if report.verdict == "real" else "real"
        return report

    out = workloads.census_item("flip", wrong_decision, t, frame).run()
    assert out.error is not None and out.error.startswith("decision ")


def _sweep_inputs():
    ce = reality.build_counterexample_su(workloads.SWEEP_Q)
    L, H = ce["L"], ce["frame"].H
    out = {}
    for name, A in (("nonreal", ce["B"]), ("real", ce["A"])):
        X0 = reality.unitary_base_conjugator(L, H, A, linalg.charpoly3(L, A))
        out[name] = (L, H, A, X0)
    return out


def test_sweep_gate_checks_hits_and_coverage():
    inputs = _sweep_inputs()
    span = workloads.SWEEP_SPAN
    items = [workloads.sweep_item("real/0", *inputs["real"], 0, span),
             workloads.sweep_item("nonreal/0", *inputs["nonreal"], 0, 1 << 16)]
    outcomes = [item.run() for item in items]
    recorded = workloads.SWEEP_REAL_HITS[0]
    ops = dict(workloads.sweep_check(
        items, outcomes, inputs, {"real": (span, recorded), "nonreal": (1 << 16, 0)}
    ))
    assert ops == {"real": None, "nonreal": None}
    ops = dict(workloads.sweep_check(
        items, outcomes, inputs, {"real": (span, recorded + 1), "nonreal": (1 << 17, 0)}
    ))
    assert ops["real"] == f"{recorded} hits, expected {recorded + 1}"
    assert ops["nonreal"] == f"swept {1 << 16} candidates of {1 << 17}"
    # the real matrix passed off as the non-real input is caught by its hits
    swapped = {"nonreal": inputs["real"]}
    ops = dict(workloads.sweep_check(
        [workloads.sweep_item("nonreal/0", *swapped["nonreal"], 0, span)],
        [outcomes[0]], swapped, {"nonreal": (span, 0)},
    ))
    assert ops["nonreal"] == f"{recorded} hits, expected 0"


def test_lift_gate_runs_under_optimize():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:4]\n"
        "import test_gates, workloads\n"
        "k, alg, frame, A, t = test_gates._sl3_element(7, 1)\n"
        "out = workloads.lift_item('w', alg, t.matrix, 7, 'not_real').run()\n"
        "sys.exit(0 if out.error == 'verdict real, expected not_real' else 1)\n"
    )
    tests, src = BENCH / "tests", BENCH.parent / "src"
    argv = [sys.executable, "-O", "-c", code, str(tests), str(BENCH), str(src)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
