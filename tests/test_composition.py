import random
from fractions import Fraction

import pytest

from g2real import linalg
from g2real.automorphisms import split_frame_from_idempotent
from g2real.composition import (
    LAWS,
    Algebra,
    base_algebra,
    cayley_dickson_double,
    find_proper_idempotent,
    hermitian_space,
    law_failures,
    law_verdicts,
    octonion_from_hermitian,
    orthogonal_complement,
    pfister_octonion,
    quaternion_from_quadratic,
    subalgebra_closed,
    zorn_algebra,
    zorn_mul_coords,
)
from g2real.fields import FieldError, PrimeField, QuadraticEtale, RationalField

k3 = PrimeField(3)
k5 = PrimeField(5)
k7 = PrimeField(7)
Q = RationalField()


def vec(F, *coords):
    return tuple(F.element(c) for c in coords)


# ---------------------------------------------------------------------------
# Zorn model
# ---------------------------------------------------------------------------

def test_zorn_idempotent():
    Z = zorn_algebra(k7)
    e = vec(k7, 1, 0, 0, 0, 0, 0, 0, 0)
    assert Z.eq(Z.mul(e, e), e)


def test_zorn_vector_square_is_minus_one():
    Z = zorn_algebra(k7)
    # x = (0, e1; e1, 0): norm 1, trace 0, x^2 = -1
    x = vec(k7, 0, 1, 0, 0, 1, 0, 0, 0)
    assert k7.eq(Z.norm(x), k7.one)
    assert k7.eq(Z.trace(x), k7.zero)
    assert Z.eq(Z.mul(x, x), Z.neg(Z.one))
    assert Z.minimal_equation_holds(x)


def test_zorn_identity_element():
    Z = zorn_algebra(k5)
    rng = random.Random(0)
    for _ in range(20):
        x = Z.random(rng)
        assert Z.eq(Z.mul(Z.one, x), x)
        assert Z.eq(Z.mul(x, Z.one), x)


def test_zorn_composition_sampled():
    Z = zorn_algebra(k7)
    assert law_failures(Z, 3000, 11, ("composition_law",)) == {"composition_law": 0}


def test_zorn_fast_path_matches_table_path():
    Z = zorn_algebra(k5)
    rng = random.Random(1)
    generic = Z.__class__.mul  # the table-driven general product

    for _ in range(100):
        x, y = Z.random(rng), Z.random(rng)
        fast = zorn_mul_coords(k5, x, y)
        Z.model = "generic"  # force the table route
        slow = generic(Z, x, y)
        Z.model = "zorn"
        assert Z.eq(fast, slow)


def _zorn_product_reference(x, y):
    # [a v; w b][a' v'; w' b'] = [aa' - <v,w'>, av' + b'v + w^w';
    #                             bw' + a'w + v^v', bb' - <w,v'>]
    # on whole (n, 8) arrays, written out independently of zorn_mul_coords
    import numpy as np

    a, v, w, b = x[:, 0], x[:, 1:4], x[:, 4:7], x[:, 7]
    a2, v2, w2, b2 = y[:, 0], y[:, 1:4], y[:, 4:7], y[:, 7]

    def cross(u, t):
        return np.stack([u[:, 1] * t[:, 2] - u[:, 2] * t[:, 1],
                         u[:, 2] * t[:, 0] - u[:, 0] * t[:, 2],
                         u[:, 0] * t[:, 1] - u[:, 1] * t[:, 0]], axis=1)

    ra = a * a2 - (v * w2).sum(axis=1)
    rb = b * b2 - (w * v2).sum(axis=1)
    rv = a[:, None] * v2 + b2[:, None] * v + cross(w, w2)
    rw = b[:, None] * w2 + a2[:, None] * w + cross(v, v2)
    return np.concatenate([ra[:, None], rv, rw, rb[:, None]], axis=1)


@pytest.mark.parametrize("spec", [5, 31, 2**31 - 1, "Q"])
def test_zorn_mul_coords_matches_the_vectorized_product(spec):
    # an explicit whole-array Zorn formula: int64 residues at p = 5, 31,
    # Python ints at 2^31 - 1 (int64 would overflow), integer and Fraction
    # vectors over Q; the integer structure tensor of lattice_forms, which
    # certification and the law batch read, must contract to the same products
    import numpy as np

    rng = random.Random(f"zorn-np/{spec}")
    if spec == "Q":
        F, p = Q, None
        ints = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(400)]
        fracs = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
                 for _ in range(400)]
        batches = [(np.array(ints[:200], dtype=np.int64), np.array(ints[200:], dtype=np.int64)),
                   (np.array(fracs[:200], dtype=object), np.array(fracs[200:], dtype=object))]
    else:
        F, p = PrimeField(spec), spec
        rows = [[rng.randrange(p) for _ in range(8)] for _ in range(400)]
        rows[0], rows[200] = [p - 1] * 8, [p - 1] * 8
        dtype = np.int64 if p < 2**20 else object
        batches = [(np.array(rows[:200], dtype=dtype), np.array(rows[200:], dtype=dtype))]
    (T, s), _ = zorn_algebra(F).lattice_forms()
    assert s == 1 and T.dtype == (np.int64 if spec in (5, 31) else object)
    for x, y in batches:
        want = _zorn_product_reference(x, y)
        via_T = (np.tensordot(x, T, axes=(1, 0)) * y[:, :, None]).sum(axis=1)
        if p:
            want, via_T = want % p, via_T % p
        assert (via_T == want).all()
        xs = [tuple(F.element(c) for c in r) for r in x.tolist()]
        ys = [tuple(F.element(c) for c in r) for r in y.tolist()]
        for a, b, w in zip(xs, ys, want.tolist()):
            assert zorn_mul_coords(F, a, b) == tuple(w)


def _flip_one_constant(alg):
    # the same table with the sign of the first coefficient of e_1 e_4 flipped
    table = [list(row) for row in alg.table]
    (m, c), *rest = table[1][4]
    table[1][4] = ((m, alg.field.neg(c)), *rest)
    return Algebra("flipped", alg.field, tuple(map(tuple, table)), alg.one,
                   alg.norm_diag, alg.bil)


@pytest.mark.parametrize("build", [
    lambda: zorn_algebra(k7),
    lambda: octonion_from_hermitian(hermitian_space(QuadraticEtale(k5, 2), (1, 2, 2))),
    # split L over Q: the structure tensor has denominators (s_T = 4)
    lambda: octonion_from_hermitian(hermitian_space(QuadraticEtale(Q), (1, 2, 2))),
    # doubling by 1/4, 2/3, -1/5: s_T = 60 and s_B = 30
    lambda: cayley_dickson_double(cayley_dickson_double(cayley_dickson_double(
        base_algebra(Q), Fraction(1, 4)), Fraction(2, 3)), Fraction(-1, 5)),
], ids=["zorn-F7", "hermitian-F25", "hermitian-split-Q", "doubled-Q"])
def test_law_batch_detects_a_flipped_structure_constant(build):
    import numpy as np

    good = build()
    bad = _flip_one_constant(good)
    assert law_failures(good, 2000, 1) == {law: 0 for law in LAWS}
    counts = law_failures(bad, 2000, 1)
    assert counts["composition_law"] > 0 and counts["minimal_equation"] > 0
    # per-row verdicts against the one-element references on the same rows
    F = bad.field
    lo, hi = (0, F.p) if F.kind == "prime" else (-9, 10)
    X, Y = np.random.default_rng(2).integers(lo, hi, size=(2, 200, bad.dim))
    verdicts = law_verdicts(bad, X, Y)
    for r, (x, y) in enumerate(zip(X.tolist(), Y.tolist())):
        x, y = tuple(map(F.element, x)), tuple(map(F.element, y))
        assert verdicts["minimal_equation"][r] == (not bad.minimal_equation_holds(x))
        composes = F.eq(bad.norm(bad.mul(x, y)), F.mul(bad.norm(x), bad.norm(y)))
        assert verdicts["composition_law"][r] == (not composes)
    assert verdicts["minimal_equation"].any() and not verdicts["minimal_equation"].all()
    if F.kind != "prime":
        # the laws are homogeneous: the same rows times 2^16, past the int64
        # bound, must run on Python ints and give the same verdicts (int64
        # would wrap mod 2^64 and lose every composition-law failure)
        big = law_verdicts(bad, X.astype(object) << 16, Y.astype(object) << 16)
        assert all((big[law] == verdicts[law]).all() for law in LAWS)


def test_law_batch_on_every_dimension():
    # dimensions 1, 2, 4 and 8, over F_p and Q, with denominators in T and B
    for alg in (base_algebra(k7), base_algebra(Q), cayley_dickson_double(base_algebra(k7), 3),
                cayley_dickson_double(base_algebra(Q), Fraction(1, 4)),
                quaternion_from_quadratic(k5, (1, 2, 2)),
                quaternion_from_quadratic(Q, (1, 2, 2)), pfister_octonion(Q, (1, 2, 3))):
        assert law_failures(alg, 1000, 3) == {law: 0 for law in LAWS}


def test_f3_exhaustive_composition_in_diagonal_subalgebra():
    Z = zorn_algebra(k3)
    elems = []
    for a in range(3):
        for b in range(3):
            elems.append(vec(k3, a, 0, 0, 0, 0, 0, 0, b))
    for x in elems:
        for y in elems:
            assert k3.eq(Z.norm(Z.mul(x, y)), k3.mul(Z.norm(x), Z.norm(y)))


def test_conjugation():
    Z = zorn_algebra(k5)
    assert Z.eq(Z.conj(Z.one), Z.one)
    assert k5.eq(Z.trace(Z.one), k5.element(2))
    rng = random.Random(2)
    for _ in range(200):
        x = Z.random(rng)
        assert Z.eq(Z.conj(Z.conj(x)), x)
        assert Z.eq(Z.mul(x, Z.conj(x)), Z.scale(Z.norm(x), Z.one))
        # conjugation is an anti-automorphism
        y = Z.random(rng)
        assert Z.eq(Z.conj(Z.mul(x, y)), Z.mul(Z.conj(y), Z.conj(x)))


def test_minimal_equation_on_basis_and_sample():
    for alg in (zorn_algebra(k7), pfister_octonion(k5, (1, 2, 3))):
        for i in range(alg.dim):
            assert alg.minimal_equation_holds(alg.basis_vec(i))
        rng = random.Random(3)
        for _ in range(300):
            assert alg.minimal_equation_holds(alg.random(rng))


def test_alternative_laws():
    for alg in (zorn_algebra(k5), pfister_octonion(k7, (1, 1, 1))):
        assert law_failures(alg, 300, 4, ("alternative_laws",)) == {"alternative_laws": 0}


# ---------------------------------------------------------------------------
# Cayley-Dickson doubling
# ---------------------------------------------------------------------------

def test_double_base_matches_quadratic_algebra():
    c = 3
    D = cayley_dickson_double(base_algebra(k7), c)
    L = QuadraticEtale(k7, c)
    rng = random.Random(5)
    for _ in range(100):
        x, y = L.random(rng), L.random(rng)
        prod = D.mul(x, y)
        assert L.eq(prod, L.mul(x, y))
        assert k7.eq(D.norm(x), L.norm(x))


def test_double_twice_gives_split_quaternions_over_f7():
    D = cayley_dickson_double(cayley_dickson_double(base_algebra(k7), 1), 1)
    assert D.dim == 4
    assert law_failures(D, 2000, 6, ("composition_law",)) == {"composition_law": 0}
    # split: a proper idempotent e has N(e) = 0
    e = find_proper_idempotent(D)
    assert k7.is_zero(D.norm(e))
    # independent exhaustive confirmation over F7^4
    found = False
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    x = (a, b, c, d)
                    if x != (0, 0, 0, 0) and k7.is_zero(D.norm(x)):
                        found = True
                        break
    assert found


def test_three_doublings_give_a_composition_octonion():
    O = pfister_octonion(k5, (1, 2, 3))
    assert O.dim == 8
    assert law_failures(O, 10000, 7, ("composition_law",)) == {"composition_law": 0}


def test_doubling_norm_is_pfister_form():
    lams = (1, 2, 3)
    O = pfister_octonion(k7, lams)
    # diagonal of the doubled norm: products of -lam_i over subsets
    expect = []
    for mask in range(8):
        v = k7.one
        for i in range(3):
            if mask >> i & 1:
                v = k7.mul(v, k7.neg(k7.element(lams[i])))
        expect.append(v)
    assert sorted(O.norm_diag) == sorted(expect)


def test_doubling_rejects_bad_input():
    with pytest.raises(FieldError):
        cayley_dickson_double(base_algebra(k7), 0)
    with pytest.raises(FieldError):
        cayley_dickson_double(pfister_octonion(k7, (1, 1, 1)), 1)


# ---------------------------------------------------------------------------
# quaternions from quadratic spaces
# ---------------------------------------------------------------------------

def test_quaternion_from_trace_form_diag():
    # B = <1, 2, 2> (the trace form of a cyclic cubic): N_Q = <1, 1, 2, 2>
    Qa = quaternion_from_quadratic(Q, (1, 2, 2))
    assert [str(d) for d in Qa.norm_diag] == ["1", "1", "2", "2"]
    assert law_failures(Qa, 500, 8, ("composition_law",)) == {"composition_law": 0}


def test_quaternion_identity_idempotent():
    Qa = quaternion_from_quadratic(k5, (1, 2, 2))
    e = Qa.one
    assert Qa.eq(Qa.mul(e, e), e)


def test_quaternion_is_associative_and_split_over_f5():
    Qa = quaternion_from_quadratic(k5, (1, 2, 2))
    rng = random.Random(9)
    for _ in range(200):
        x, y, z = Qa.random(rng), Qa.random(rng), Qa.random(rng)
        assert Qa.eq(Qa.mul(Qa.mul(x, y), z), Qa.mul(x, Qa.mul(y, z)))
    e = find_proper_idempotent(Qa)
    assert Qa.eq(Qa.mul(e, e), e) and k5.is_zero(Qa.norm(e))


def test_quaternion_rejects_nontrivial_discriminant():
    with pytest.raises(FieldError):
        quaternion_from_quadratic(Q, (1, 1, 2))  # disc 2 is not a square


# ---------------------------------------------------------------------------
# octonions from hermitian spaces
# ---------------------------------------------------------------------------

def test_hermitian_identity():
    L = QuadraticEtale(k5, 2)
    O = octonion_from_hermitian(hermitian_space(L, (1, 1, 1)))
    assert O.eq(O.mul(O.one, O.one), O.one)
    assert law_failures(O, 5000, 10, ("composition_law",)) == {"composition_law": 0}


def test_hermitian_norm_diagonal_over_Q():
    # Gram <1, 2, 2> over L = Q(g), g^2 = c: multiset <1,1,2,2,-c,-c,-2c,-2c>
    c = 3
    L = QuadraticEtale(Q, c)
    O = octonion_from_hermitian(hermitian_space(L, (1, 2, 2)))
    got = sorted(str(d) for d in O.norm_diag)
    expect = sorted(map(str, [1, -c, 1, 2, 2, -c, -2 * c, -2 * c]))
    assert got == expect
    assert law_failures(O, 300, 11, ("composition_law",)) == {"composition_law": 0}


def test_hermitian_psi_independence_structural():
    # two admissible trivializations give algebras with the same composition
    # behavior and norm isotropy
    L = QuadraticEtale(k7, 3)
    s1 = hermitian_space(L, (1, 2, 2))
    psis = []
    for x in L.elements():
        if k7.eq(L.norm(x), k7.element(4)):  # disc = 1*2*2
            psis.append(x)
        if len(psis) == 2:
            break
    algs = [octonion_from_hermitian(s1, psi) for psi in psis]
    for O in algs:
        assert law_failures(O, 3000, 12, ("composition_law",)) == {"composition_law": 0}
        assert k7.is_zero(O.norm(find_proper_idempotent(O)))
    assert sorted(algs[0].norm_diag) == sorted(algs[1].norm_diag)


def test_hermitian_L_embeds_as_composition_subalgebra():
    L = QuadraticEtale(k5, 2)
    O = octonion_from_hermitian(hermitian_space(L, (1, 1, 1)))
    rng = random.Random(13)
    from g2real.composition import _hermitian_coords

    zero3 = (L.zero, L.zero, L.zero)
    for _ in range(100):
        a, b = L.random(rng), L.random(rng)
        xa = _hermitian_coords(O.meta["L"], a, zero3)
        xb = _hermitian_coords(O.meta["L"], b, zero3)
        assert O.eq(O.mul(xa, xb), _hermitian_coords(O.meta["L"], L.mul(a, b), zero3))
        assert k5.eq(O.norm(xa), L.norm(a))


def test_hermitian_split_L():
    L = QuadraticEtale(k5)
    O = octonion_from_hermitian(hermitian_space(L, (1, 1, 1)))
    assert law_failures(O, 3000, 14, ("composition_law",)) == {"composition_law": 0}


def test_hermitian_rejects_bad_psi():
    L = QuadraticEtale(k5, 2)
    with pytest.raises(FieldError):
        octonion_from_hermitian(hermitian_space(L, (1, 1, 1)), psi=(2, 0))


# ---------------------------------------------------------------------------
# isotropy
# ---------------------------------------------------------------------------

def test_division_octonions_over_Q():
    # L = Q(i), Gram <1,2,2>: the hermitian construction of a division algebra
    L = QuadraticEtale(Q, -1)
    O = octonion_from_hermitian(hermitian_space(L, (1, 2, 2)))
    # the polar form diagonalizes to eight positive entries: a definite
    # form, so the norm is anisotropic
    _, diag = linalg.diagonalize_form(Q, O.bil)
    assert len(diag) == 8 and all(d > 0 for d in diag)


# ---------------------------------------------------------------------------
# Peirce decomposition
# ---------------------------------------------------------------------------

def test_peirce_frame_zorn_beta_idempotent():
    Z = zorn_algebra(k7)
    fr = split_frame_from_idempotent(Z, Z.basis_vec(7))
    # U is the v-block, W the w-block
    for u in fr.U:
        assert all(k7.is_zero(u[i]) for i in (0, 4, 5, 6, 7))
    for w in fr.W:
        assert all(k7.is_zero(w[i]) for i in (0, 1, 2, 3, 7))


def test_peirce_frame_alpha_idempotent_swaps_blocks():
    # with the other idempotent the defining equations put the w-block in U
    Z = zorn_algebra(k7)
    fr = split_frame_from_idempotent(Z, Z.basis_vec(0))
    for u in fr.U:
        assert all(k7.is_zero(u[i]) for i in (0, 1, 2, 3, 7))
    for w in fr.W:
        assert all(k7.is_zero(w[i]) for i in (0, 4, 5, 6, 7))


def test_peirce_dimensions_over_f5():
    Z = zorn_algebra(k5)
    fr = split_frame_from_idempotent(Z, Z.basis_vec(7))
    assert linalg.rank(k5, linalg.mat(fr.U)) == 3
    assert linalg.rank(k5, linalg.mat(fr.W)) == 3


def test_peirce_multiplication_closure():
    Z = zorn_algebra(k5)
    fr = split_frame_from_idempotent(Z, Z.basis_vec(7))
    W_span = linalg.mat(fr.W)
    r = linalg.rank(k5, W_span)
    for u in fr.U:
        for u2 in fr.U:
            p = Z.mul(u, u2)
            assert linalg.rank(k5, W_span + (p,)) == r


def test_peirce_rejects_non_idempotent():
    Z = zorn_algebra(k5)
    with pytest.raises(FieldError):
        split_frame_from_idempotent(Z, Z.one)


def test_find_proper_idempotent_doubled_model():
    O = pfister_octonion(k5, (1, 1, 1))
    e = find_proper_idempotent(O)
    assert O.eq(O.mul(e, e), e)
    assert not O.eq(e, O.one) and not O.is_zero(e)


# ---------------------------------------------------------------------------
# subalgebra utilities
# ---------------------------------------------------------------------------

def test_subalgebra_closure_check():
    Z = zorn_algebra(k5)
    g = Z.sub(Z.basis_vec(0), Z.basis_vec(7))
    a = Z.add(Z.basis_vec(1), Z.basis_vec(4))
    D = (Z.one, g, a, Z.mul(g, a))
    assert subalgebra_closed(Z, D)
    bad = (Z.one, g, a, Z.basis_vec(2))
    assert not subalgebra_closed(Z, bad)


@pytest.mark.parametrize("F", [k5, k7, RationalField()], ids=str)
def test_orthogonal_complement_matches_the_polar_form_loop(F):
    """The rows v bil give the basis of the per-basis-vector loop
    N(v, e_j), on the Zorn, Pfister and hermitian models."""
    L = QuadraticEtale(F, F.nonsquare() if F.kind == "prime" else -1)
    models = (
        zorn_algebra(F),
        pfister_octonion(F, (F.element(-1), F.element(2), F.element(3))),
        octonion_from_hermitian(hermitian_space(L, (1, 1, 1))),
    )
    rng = random.Random(f"complement/{F!r}")
    for alg in models:
        for n in (1, 2, 3, 4):
            vectors = [tuple(F.element(rng.randrange(-3, 4)) for _ in range(8)) for _ in range(n)]
            rows = tuple(
                tuple(alg.bilinear_norm(v, alg.basis_vec(j)) for j in range(8)) for v in vectors
            )
            assert orthogonal_complement(alg, vectors) == linalg.nullspace(F, rows)


# ---------------------------------------------------------------------------
# batched products on the structure tensor
# ---------------------------------------------------------------------------

BIG = PrimeField(2**31 - 1)


def _every_model(F):
    """One algebra of every model and dimension over F: k itself, the Zorn
    model, doublings of dimension 2, 4 and 8 (denominators in T and B over
    Q), a quaternion algebra from a quadratic space and an octonion algebra
    from a hermitian space."""
    half = F.inv(F.element(2))
    L = QuadraticEtale(F, F.nonsquare() if F.kind == "prime" else -1)
    return (
        base_algebra(F),
        zorn_algebra(F),
        cayley_dickson_double(base_algebra(F), half),
        cayley_dickson_double(cayley_dickson_double(base_algebra(F), F.element(-1)), half),
        pfister_octonion(F, (F.element(-1), half, F.element(3))),
        quaternion_from_quadratic(F, (1, 2, 2)),
        octonion_from_hermitian(hermitian_space(L, (1, 1, 1))),
    )


@pytest.mark.parametrize("F", [k7, BIG, Q], ids=str)
def test_batched_products_match_mul(F):
    """Algebra.products and left_mul_matrix, one contraction with T each,
    give the vectors of the one-pair product mul, on every model and
    dimension; past 2^30 the residues run on Python ints."""
    rng = random.Random(f"products/{F!r}")
    models = _every_model(F)
    assert {alg.dim for alg in models} == {1, 2, 4, 8}
    for alg in models:
        xs = [alg.random(rng) for _ in range(7)] + [alg.one, alg.zero_vec()]
        ys = [alg.random(rng) for _ in range(7)] + [alg.basis_vec(alg.dim - 1), alg.one]
        assert alg.products(xs, ys) == tuple(alg.mul(x, y) for x, y in zip(xs, ys))
        x = xs[0]
        reference = linalg.transpose([alg.mul(x, alg.basis_vec(j)) for j in range(alg.dim)])
        assert alg.left_mul_matrix(x) == reference
        if F is BIG:
            assert alg.lattice_products(xs, ys).N.dtype == object


@pytest.mark.parametrize("F", [k5, BIG, Q], ids=str)
def test_subalgebra_closed_matches_the_rank_reference(F):
    """The null-space test of subalgebra_closed agrees with rank(span +
    products) == rank(span) on closed and open spans, degenerate ones too."""
    Z = zorn_algebra(F)
    g = Z.sub(Z.basis_vec(0), Z.basis_vec(7))
    a = Z.add(Z.basis_vec(1), Z.basis_vec(4))
    rng = random.Random(f"closed/{F!r}")
    spans = [
        (Z.one, g, a, Z.mul(g, a)),  # split quaternions
        (Z.basis_vec(0), Z.basis_vec(7), Z.basis_vec(1), Z.basis_vec(5)),  # closed, rank-2 Gram
        (Z.one, g),
        (Z.one, g, a, Z.basis_vec(2)),
        tuple(Z.basis_vec(i) for i in range(8)),
    ] + [tuple(Z.random(rng) for _ in range(n)) for n in (1, 2, 3)]
    for span in spans:
        products = tuple(Z.mul(x, y) for x in span for y in span)
        rank = linalg.rank(F, linalg.mat(span))
        assert subalgebra_closed(Z, span) == (linalg.rank(F, span + products) == rank)
    assert [subalgebra_closed(Z, s) for s in spans[:5]] == [True, True, True, False, True]
