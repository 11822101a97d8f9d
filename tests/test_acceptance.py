"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact (zero tolerance); the only approximations anywhere are
explicit runtime caps.  Run with `pytest -s tests/test_acceptance.py` to see
the per-criterion lines.
"""

import random
import time
from fractions import Fraction

# the package imports numpy where it is used; importing it with the module
# keeps the interpreter's first numpy import out of the timed criteria
import numpy  # noqa: F401
import pytest

from g2real import linalg
from g2real.automorphisms import (
    involution_conjugacy_classes,
    quadratic_subfield_frame,
    random_sl3,
    random_su,
    sl3_embed,
    su_embed,
    zorn_split_frame,
    zorn_swap,
)
from g2real.composition import (
    hermitian_space,
    law_failures,
    octonion_from_hermitian,
    pfister_octonion,
    zorn_algebra,
)
from g2real.fields import (
    CubicAlgebra,
    PrimeField,
    QuadraticEtale,
    RationalField,
    cubic_is_irreducible,
    norm_quotient_report,
)
from g2real.reality import (
    brute_force_reality_oracle,
    build_counterexample_sl3,
    build_counterexample_su,
    companion_factorization,
    min_equals_char3,
    reality_sl3,
    reality_su,
    symmetric_decomposition,
    two_involution_witness,
)

k5 = PrimeField(5)
k7 = PrimeField(7)


def report(n, name, detail=""):
    print(f"PASS criterion {n:2d} [{name}] {detail}")


def test_criterion_01_composition_law():
    start = time.perf_counter()
    fails = 0
    Q = RationalField()
    for F in (k5, k7, Q):
        fails += law_failures(zorn_algebra(F), 100000, 101, ("composition_law",))["composition_law"]
    # rationals with genuine denominators, scalar cross-check
    Z = zorn_algebra(Q)
    rng = random.Random(102)
    for _ in range(1000):
        x = tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in range(8))
        y = tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in range(8))
        if Z.norm(Z.mul(x, y)) != Z.norm(x) * Z.norm(y):
            fails += 1
    elapsed = time.perf_counter() - start
    assert fails == 0
    assert elapsed < 5.0
    report(1, "composition law", f"3x10^5 pairs + 10^3 fraction pairs, {elapsed:.2f}s")


def test_criterion_02_minimal_equation_three_models():
    L25 = QuadraticEtale(k5, 2)
    models = {
        "zorn": zorn_algebra(k7),
        "doubled": pfister_octonion(k5, (1, 2, 3)),
        "hermitian": octonion_from_hermitian(hermitian_space(L25, (1, 2, 2))),
    }
    for name, alg in models.items():
        for i in range(alg.dim):
            assert alg.minimal_equation_holds(alg.basis_vec(i))
        assert law_failures(alg, 10000, 201, ("minimal_equation",)) == {"minimal_equation": 0}
    report(2, "minimal equation", "8 basis + 10^4 random in zorn/doubled/hermitian")


def test_criterion_03_embedding_homomorphisms():
    Z = zorn_algebra(k7)
    fr = zorn_split_frame(Z)
    rng = random.Random(301)
    for _ in range(1000):
        A = random_sl3(k7, rng)
        B = random_sl3(k7, rng)
        tA, tB = sl3_embed(A, fr), sl3_embed(B, fr)  # certify internally
        assert tA.certified and tB.certified
        assert tA.compose(tB).eq(sl3_embed(linalg.mat_mul(k7, A, B), fr))

    L = QuadraticEtale(k5, 2)
    O = octonion_from_hermitian(hermitian_space(L, (1, 1, 1)))
    fru = quadratic_subfield_frame(O, O.basis_vec(1))
    for _ in range(1000):
        A = random_su(L, fru.H, rng)
        B = random_su(L, fru.H, rng)
        tA, tB = su_embed(A, fru), su_embed(B, fru)
        assert tA.certified and tB.certified
        assert tA.compose(tB).eq(su_embed(linalg.mat_mul(L, A, B), fru))
    report(3, "embedding homomorphisms", "10^3 pairs each, all images certified")


def test_criterion_04_rho_properties():
    Z = zorn_algebra(k7)
    fr = zorn_split_frame(Z)
    rho = zorn_swap(Z)
    assert rho.compose(rho).is_identity()
    # restriction to the diagonal is the swap of the idempotents
    assert Z.eq(rho.apply(Z.basis_vec(0)), Z.basis_vec(7))
    assert Z.eq(rho.apply(Z.basis_vec(7)), Z.basis_vec(0))
    rng = random.Random(401)
    for _ in range(100):
        A = random_sl3(k7, rng)
        lhs = rho.compose(sl3_embed(A, fr)).compose(rho)
        rhs = sl3_embed(linalg.transpose(linalg.inverse3(k7, A)), fr)
        assert lhs.eq(rhs)
    report(4, "rho properties", "square, restriction, 100 conjugations")


def test_criterion_05_sl3_counterexample_q7():
    start = time.perf_counter()
    ce = build_counterexample_sl3(7)
    k = ce["field"]
    assert ce["omega"] == 2 and ce["b"] == 2
    rep = reality_sl3(k, ce["B"])
    assert rep.verdict == "not_real"
    orc = brute_force_reality_oracle(ce["t"], ce["frame"], level="matrix")
    assert orc["verdict"] == "not_real"
    assert orc["checked"][1] == 343  # the full coset sweep
    T = ((k.zero, k.zero, k.one), (k.zero, k.neg(k.one), k.zero), (k.one, k.zero, k.zero))
    assert linalg.mat_eq(
        k, linalg.mat_mul(k, T, ce["A"]), linalg.mat_mul(k, linalg.transpose(ce["A"]), T)
    )
    assert not symmetric_decomposition(k, ce["B"])["ok"]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(5, "q=7 non-real element", f"criterion+oracle agree, {elapsed:.2f}s")


def test_criterion_06_su_counterexample_q17():
    start = time.perf_counter()
    ce = build_counterexample_su(17)
    L = ce["L"]
    # construction checks: A in SU(3) and minimal polynomial (X - omega)^3
    # are asserted inside the builder; reproduce the obstruction here
    rep = reality_su(L, ce["B"], ce["frame"].H)
    assert rep.verdict == "not_real"
    assert rep.obstruction["excluded_class"] == "cubes of L*"
    fast = time.perf_counter() - start
    assert fast < 1.0
    start2 = time.perf_counter()
    orc = brute_force_reality_oracle(ce["t"], ce["frame"])
    sweep = time.perf_counter() - start2
    assert orc["verdict"] == "not_real"
    assert orc["checked"][1] == 289**3
    assert sweep < 120.0
    report(
        6,
        "q=17 non-real element",
        f"obstruction {fast:.2f}s; sweep of {289**3} candidates {sweep:.1f}s",
    )


def test_criterion_07_semisimple_two_involutions():
    trials = 200
    rng = random.Random(701)
    for q in (5, 7):
        k = PrimeField(q)
        Z = zorn_algebra(k)
        fr = zorn_split_frame(Z)
        done = 0
        for _ in range(trials):
            A = random_sl3(k, rng, avoid_eigenvalue_one=True, separable=True)
            rep = reality_sl3(k, A)
            assert rep.verdict == "real"
            t = sl3_embed(A, fr)
            i1, i2 = two_involution_witness(t, fr, rep)
            assert i1.compose(i1).is_identity()
            assert i2.compose(i2).is_identity()
            assert i1.compose(i2).eq(t)
            done += 1
        assert done == trials

    L = QuadraticEtale(k5, 2)
    O = octonion_from_hermitian(hermitian_space(L, (1, 1, 1)))
    fru = quadratic_subfield_frame(O, O.basis_vec(1))
    done = 0
    for _ in range(trials):
        A = random_su(L, fru.H, rng, separable=True)
        rep = reality_su(L, A, fru.H)
        assert rep.verdict == "real"
        t = su_embed(A, fru)
        i1, i2 = two_involution_witness(t, fru, rep)
        assert i1.compose(i1).is_identity()
        assert i2.compose(i2).is_identity()
        assert i1.compose(i2).eq(t)
        done += 1
    assert done == trials
    report(7, "semisimple bireflections", "200/200 in each of SL3(F5), SL3(F7), SU3(F25/F5)")


def test_criterion_08_companion_factorization():
    L = QuadraticEtale(k5, 2)
    rng = random.Random(801)
    for _ in range(100):
        a = L.random(rng)
        chi = (L.neg(L.one), a, L.neg(L.sigma(a)))
        A1, A2 = companion_factorization(L, chi)  # identities asserted inside
    report(8, "companion factorization", "100 self-dual cubics over F25")


def test_criterion_09_criterion_vs_oracle():
    Z = zorn_algebra(k7)
    fr = zorn_split_frame(Z)
    rng = random.Random(901)
    matched = 0
    trials = 0
    irreducible = reducible = nonreal = 0
    # a few engineered triple-root elements guarantee both verdicts appear
    engineered = []
    ce = build_counterexample_sl3(7)
    engineered.append(ce["B"])
    engineered.append(ce["A"])
    while trials < 200:
        if engineered:
            A = engineered.pop()
        else:
            A = random_sl3(k7, rng, avoid_eigenvalue_one=True)
            if not min_equals_char3(k7, A):
                continue
        chi = linalg.charpoly3(k7, A)
        if cubic_is_irreducible(k7, chi):
            irreducible += 1
        else:
            reducible += 1
        rep = reality_sl3(k7, A)
        t = sl3_embed(A, fr)
        orc = brute_force_reality_oracle(t, fr, level="matrix")
        assert rep.verdict == orc["verdict"], (A, rep.verdict, orc["verdict"])
        if rep.verdict == "not_real":
            nonreal += 1
        matched += 1
        trials += 1
    assert matched == 200
    assert irreducible and reducible and nonreal
    report(
        9,
        "criterion vs oracle",
        f"200/200 identical ({irreducible} irreducible, {reducible} reducible, "
        f"{nonreal} non-real)",
    )


def test_criterion_10_norm_quotients():
    for q in (5, 7):
        k = PrimeField(q)
        L = QuadraticEtale(k, k.nonsquare())
        chi = None
        for a1 in range(q):
            for a0 in range(1, q):
                if cubic_is_irreducible(k, (a0, a1, 0)):
                    chi = (a0, a1, 0)
                    break
            if chi:
                break
        E = CubicAlgebra(L, chi)
        assert norm_quotient_report(E) == (1, 1)
    report(10, "norm quotient triviality", "(1, 1) for q = 5 and q = 7 by enumeration")


def test_criterion_11_unipotent_bireflections():
    Z = zorn_algebra(k5)
    fr = zorn_split_frame(Z)
    count = 0
    for a in range(5):
        for b in range(5):
            for c in range(5):
                if (a, b, c) == (0, 0, 0):
                    continue
                A = (
                    (k5.one, k5.element(a), k5.element(b)),
                    (k5.zero, k5.one, k5.element(c)),
                    (k5.zero, k5.zero, k5.one),
                )
                dec = symmetric_decomposition(k5, A)
                assert dec["ok"], (a, b, c)
                rep = reality_sl3(k5, A)
                assert rep.verdict == "real"
                t = sl3_embed(A, fr)
                i1, i2 = two_involution_witness(t, fr, rep)
                assert i1.compose(i1).is_identity()
                assert i2.compose(i2).is_identity()
                assert i1.compose(i2).eq(t)
                count += 1
    assert count == 124
    report(11, "unipotent bireflections", f"{count} unipotent elements, all witnessed")


def test_criterion_12_involution_classes():
    for q in (5, 7):
        alg = zorn_algebra(PrimeField(q))
        n, wit = involution_conjugacy_classes(alg)
        assert n == 1
        conj = wit["conjugator"]
        assert conj.certified
        assert conj.compose(wit["iota1"]).compose(conj.inverse()).eq(wit["iota2"])
    report(12, "involution classes", "single class over F5 and F7, conjugator verified")
