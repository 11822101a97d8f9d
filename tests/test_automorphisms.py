import itertools
import math
import random
from fractions import Fraction

import pytest

from g2real import linalg
from g2real.automorphisms import (
    AutMap,
    _in_frame_basis,
    certify_automorphism,
    extract_frame_matrix,
    frame_swap,
    in_su,
    in_unitary,
    involution_conjugacy_classes,
    involution_from_quaternion,
    quadratic_subfield_frame,
    quaternion_frame,
    random_sl3,
    random_su,
    sigma_h,
    sl3_embed,
    split_frame_from_idempotent,
    SplitFrame,
    stab_map,
    su_embed,
    swapped_embed,
    zorn_split_frame,
    zorn_swap,
)
from g2real.composition import (
    _dot,
    base_algebra,
    cayley_dickson_double,
    find_proper_idempotent,
    hermitian_row,
    hermitian_space,
    octonion_from_hermitian,
    orthogonal_complement,
    pfister_octonion,
    subalgebra_closed,
    zorn_algebra,
)
from g2real.fields import FieldError, PrimeField, QuadraticEtale, RationalField
from g2real.reality import companion_matrix

k5 = PrimeField(5)
k7 = PrimeField(7)
Q = RationalField()


def hermitian_form(frame, x, y):
    """The reference h(x, y) = N(x, y) + g^-1 N(g x, y) on the orthogonal
    complement of L, returned as an element of L: linear in x, sesquilinear
    in y, from the algebra's own product and polar form."""
    alg = frame.alg
    n1 = alg.bilinear_norm(x, y)
    n2 = alg.bilinear_norm(alg.mul(frame.g, x), y)
    return (n1, alg.field.div(n2, frame.L.c))


@pytest.fixture(scope="module")
def zorn7():
    return zorn_algebra(k7)


@pytest.fixture(scope="module")
def frame7(zorn7):
    return zorn_split_frame(zorn7)


@pytest.fixture(scope="module")
def su_setup():
    L = QuadraticEtale(k5, 2)
    O = octonion_from_hermitian(hermitian_space(L, (1, 1, 1)))
    fr = quadratic_subfield_frame(O, O.basis_vec(1))
    return L, O, fr


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_identity_certifies(zorn7):
    out = certify_automorphism(linalg.identity(k7, 8), zorn7)
    assert out.certified


def test_minus_identity_fails_at_one(zorn7):
    M = linalg.scalar_mat(k7, k7.neg(k7.one), linalg.identity(k7, 8))
    out = certify_automorphism(M, zorn7)
    assert not out.certified
    assert out.failure == "one"


def test_non_multiplicative_map_reports_first_bad_pair(zorn7):
    M = [list(r) for r in linalg.identity(k7, 8)]
    M[1][1] = k7.element(2)  # scaling one coordinate breaks multiplicativity
    out = certify_automorphism(linalg.mat(M), zorn7)
    assert not out.certified
    assert isinstance(out.failure, tuple)


def test_sl3_embed_certifies_random(zorn7, frame7):
    rng = random.Random(1)
    for _ in range(10):
        A = random_sl3(k7, rng)
        t = sl3_embed(A, frame7)
        assert t.certified


def test_certified_maps_preserve_norm_and_trace_zero_space(zorn7, frame7):
    rng = random.Random(2)
    A = random_sl3(k7, rng)
    t = sl3_embed(A, frame7)
    for _ in range(300):
        x = zorn7.random(rng)
        assert k7.eq(zorn7.norm(t.apply(x)), zorn7.norm(x))
        assert k7.eq(zorn7.trace(t.apply(x)), zorn7.trace(x))


def _first_bad_pair(alg, M):
    """The first (i, j) with M(e_i e_j) != M(e_i) M(e_j), by plain algebra
    products: an oracle independent of the vectorized check."""
    F = alg.field
    for i in range(alg.dim):
        for j in range(alg.dim):
            ei, ej = alg.basis_vec(i), alg.basis_vec(j)
            lhs = linalg.mat_vec(F, M, alg.mul(ei, ej))
            rhs = alg.mul(linalg.mat_vec(F, M, ei), linalg.mat_vec(F, M, ej))
            if not alg.eq(lhs, rhs):
                return (i, j)
    return None


def _tamper_fixing_one(alg, M, col):
    """M with 1 added to entry (col, col); M(1) is unchanged when e_col is
    not in the support of 1."""
    F = alg.field
    assert F.is_zero(alg.one[col])
    T = [list(r) for r in M]
    T[col][col] = F.add(T[col][col], F.one)
    out = linalg.mat(T)
    assert alg.eq(linalg.mat_vec(F, out, alg.one), alg.one)
    return out


def _check_certify_pair(alg, t, col):
    assert t.certified
    assert _first_bad_pair(alg, t.matrix) is None
    bad = _tamper_fixing_one(alg, t.matrix, col)
    out = certify_automorphism(bad, alg)
    assert not out.certified
    assert isinstance(out.failure, tuple)
    assert out.failure == _first_bad_pair(alg, bad)


def test_certify_rational_path():
    Q = RationalField()
    alg = zorn_algebra(Q)
    frame = zorn_split_frame(alg)
    A = ((Q.zero, Q.zero, Q.one), (Q.one, Q.zero, Q.element(-3)), (Q.zero, Q.one, Q.element(2)))
    t = sl3_embed(A, frame)
    assert all(f.dtype == object for f, _ in alg.lattice_forms())
    _check_certify_pair(alg, t, 1)


def test_certify_hermitian_model(su_setup):
    L, O, fr = su_setup
    A = random_su(L, fr.H, random.Random(21), separable=True)
    _check_certify_pair(O, su_embed(A, fr), 3)


def test_certify_past_int64_cap():
    # primes past the int64 cap take the object path, which must still
    # compare residues mod p
    k = PrimeField(2**31 - 1)
    alg = zorn_algebra(k)
    t = sl3_embed(random_sl3(k, random.Random(22)), zorn_split_frame(alg))
    _check_certify_pair(alg, t, 1)


def test_certify_norm_net_rejects_non_injective_endomorphism():
    # on the split etale algebra k x k (not simple), 1 -> 1, i -> 1 is
    # unital and multiplicative but does not preserve the norm
    alg = cayley_dickson_double(base_algebra(k7), 1)
    assert alg.eq(alg.mul(alg.basis_vec(1), alg.basis_vec(1)), alg.one)
    M = linalg.transpose(linalg.mat([alg.one, alg.one]))
    out = certify_automorphism(M, alg)
    assert not out.certified
    assert out.failure == "norm"


def test_certify_norm_net_with_rational_structure_constants():
    # i^2 = 1/4 and B = diag(2, -1/2): the structure constants and the polar
    # form both have denominators, and 1 -> 1, i -> 1/2 (denominator 2) is
    # unital and multiplicative but not injective, so only the Gram net
    # N^T B N = d^2 B rejects it
    Q = RationalField()
    alg = cayley_dickson_double(base_algebra(Q), Fraction(1, 4))
    assert alg.eq(alg.mul(alg.basis_vec(1), alg.basis_vec(1)), alg.scalar(Fraction(1, 4)))
    M = linalg.transpose(linalg.mat([alg.one, alg.scalar(Fraction(1, 2))]))
    assert _first_bad_pair(alg, M) is None
    out = certify_automorphism(M, alg)
    assert not out.certified
    assert out.failure == "norm"


def test_certify_rational_identities_run_in_integers(monkeypatch):
    # beyond the M(1) = 1 check, certification over Q does no Fraction
    # arithmetic: M, the structure constants and B are cleared of their
    # denominators before the contractions
    Q = RationalField()
    alg = cayley_dickson_double(cayley_dickson_double(base_algebra(Q), Fraction(1, 4)), -3)
    half = Fraction(1, 2)
    M = linalg.mat([
        [Q.one, 0, 0, 0], [0, half, 0, 0], [0, 0, Q.one, 0], [0, 0, 0, half],
    ])
    counts = {"ops": 0}
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        op = getattr(Fraction, name)

        def counted(a, b, op=op):
            counts["ops"] += 1
            return op(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    linalg.mat_vec(Q, M, alg.one)
    one_check = counts["ops"]
    out = certify_automorphism(M, alg)
    assert (out.certified, out.failure) == (False, (1, 1))
    assert counts["ops"] == 2 * one_check


def _reference_certify(alg, M):
    """(certified, failure) by plain algebra products and a linalg Gram
    check, independent of the vectorized integer check."""
    F = alg.field
    if not alg.eq(linalg.mat_vec(F, M, alg.one), alg.one):
        return (False, "one")
    bad = _first_bad_pair(alg, M)
    if bad is not None:
        return (False, bad)
    gram = linalg.mat_mul(F, linalg.transpose(M), linalg.mat_mul(F, alg.bil, M))
    if not linalg.mat_eq(F, gram, alg.bil):
        return (False, "norm")
    return (True, None)


def _denominator_lcm(M):
    return math.lcm(*(x.denominator for row in M for x in row))


def test_certify_rational_matches_reference_past_int64():
    # twists D C D^-1, C a companion matrix of det 1 and D = diag(b, 1, 1),
    # embedded on the standard frame and on one off it; b a ratio of Mersenne
    # primes puts the lcm d of the image's denominators past 2^63 and 2^127,
    # and a tamper adds 1/q (q a fresh prime) off the support of 1
    Q = RationalField()
    alg = zorn_algebra(Q)
    frames = (
        zorn_split_frame(alg),
        split_frame_from_idempotent(alg, alg.add(alg.basis_vec(0), alg.basis_vec(4))),
    )
    rng = random.Random(31)
    bs = (
        Fraction(3),
        Fraction(2**31 - 1, 2**61 - 1),
        Fraction(2**89 - 1, 2**127 - 1),
        Fraction(rng.randint(2, 99), rng.randint(2, 99)),
    )
    fresh_primes = iter((10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079))
    off_one = [c for c in range(alg.dim) if Q.is_zero(alg.one[c])]
    lcms = []
    for k, b in enumerate(bs):
        c1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        c2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        C = companion_matrix(Q, (Q.element(-1), c1, c2))  # det C = 1
        D = ((b, 0, 0), (0, 1, 0), (0, 0, 1))
        D_inv = ((1 / b, 0, 0), (0, 1, 0), (0, 0, 1))
        A = linalg.mat_mul(Q, linalg.mat_mul(Q, D, C), D_inv)
        t = sl3_embed(A, frames[k % 2])
        col = rng.choice(off_one)
        bad = [list(r) for r in t.matrix]
        bad[col][col] += Fraction(1, next(fresh_primes))
        bad = linalg.mat(bad)
        for M in (t.matrix, bad):
            out = certify_automorphism(M, alg)
            assert (out.certified, out.failure) == _reference_certify(alg, M)
            lcms.append(_denominator_lcm(M))
        assert isinstance(out.failure, tuple)  # the tamper breaks multiplicativity
    assert any(2**63 < d < 2**127 for d in lcms)
    assert max(lcms) > 2**127


def test_certify_does_not_depend_on_global_random_state(zorn7, frame7):
    good = sl3_embed(random_sl3(k7, random.Random(23)), frame7).matrix
    bad = _tamper_fixing_one(zorn7, good, 1)

    def verdicts():
        return [
            (out.certified, out.failure)
            for out in (certify_automorphism(M, zorn7) for M in (good, bad))
        ]

    saved = random.getstate()
    try:
        random.seed(12345)
        state = random.getstate()
        seeded = verdicts()
        assert random.getstate() == state
        random.seed()
        assert verdicts() == seeded == [(True, None), (False, _first_bad_pair(zorn7, bad))]
    finally:
        random.setstate(saved)


def _integer_form_cases(F):
    """AutMaps over F with their tuple references: maps certify built from a
    chain Lattice (sl3_embed, frame_swap), the same maps certified again
    from their tuples, products of compose, and uncertified scalar maps."""
    Z = zorn_algebra(F)
    frame = zorn_split_frame(Z)
    if F.kind == "prime":
        rng = random.Random(f"integer-form/{F.p}")
        As = [random_sl3(F, rng) for _ in range(2)]
    else:
        As = [companion_matrix(F, (Fraction(-1), Fraction(3, 2), Fraction(-2, 5))),
              companion_matrix(F, (Fraction(-1), Fraction(-7, 3), Fraction(1, 4)))]
    chain = [sl3_embed(A, frame) for A in As] + [frame_swap(frame)]
    tuples = [certify_automorphism(t.matrix, Z) for t in chain]
    maps = chain + tuples + [chain[0].compose(chain[1]), chain[2].compose(tuples[2]),
                             chain[0].compose(chain[0].inverse()), tuples[0].compose(chain[2])]
    two, half = F.add(F.one, F.one), F.inv(F.add(F.one, F.one))
    maps += [AutMap(linalg.scalar_mat(F, c, linalg.identity(F, 8)), Z, False) for c in (two, half)]
    return maps


@pytest.mark.parametrize("F", [k7, PrimeField(2**31 - 1), Q], ids=str)
def test_compose_eq_and_is_identity_match_the_tuple_references(F):
    """compose, eq and is_identity run on the Lattices and agree with
    linalg.mat_mul and mat_eq on the matrices, over F_7, F_(2^31 - 1) (object
    arrays) and Q; each map's Lattice stands for its matrix."""
    maps = _integer_form_cases(F)
    if F.kind == "prime" and F.p > 2**31 - 2:
        assert all(t.lattice.N.dtype == object for t in maps)
    I = linalg.identity(F, 8)
    identities = []
    for a in maps:
        assert linalg.from_lattice(F, a.lattice) == a.matrix
        assert a.is_identity() == linalg.mat_eq(F, a.matrix, I)
        identities.append(a.is_identity())
        for b in maps:
            ab = a.compose(b)
            assert ab.matrix == linalg.mat_mul(F, a.matrix, b.matrix)
            assert ab.certified == (a.certified and b.certified)
            assert a.eq(b) == linalg.mat_eq(F, a.matrix, b.matrix)
    # the swap squared and t t^-1 are the identity, the scalar maps 2 and 1/2
    # are not, and the chain maps equal their tuple copies
    assert identities == [False] * 7 + [True, True] + [False] * 3
    assert all(c.eq(t) and t.eq(c) for c, t in zip(maps[:3], maps[3:6]))


def test_sl3_embed_rejects_det_not_one(frame7):
    A = ((k7.element(2), k7.zero, k7.zero), (k7.zero, k7.one, k7.zero), (k7.zero, k7.zero, k7.one))
    with pytest.raises(FieldError):
        sl3_embed(A, frame7)


# ---------------------------------------------------------------------------
# SL(3) embedding
# ---------------------------------------------------------------------------

def test_sl3_identity(frame7):
    I = linalg.identity(k7, 3)
    assert sl3_embed(I, frame7).is_identity()


def test_sl3_homomorphism(frame7):
    rng = random.Random(3)
    for _ in range(50):
        A = random_sl3(k7, rng)
        B = random_sl3(k7, rng)
        lhs = sl3_embed(A, frame7).compose(sl3_embed(B, frame7))
        rhs = sl3_embed(linalg.mat_mul(k7, A, B), frame7)
        assert lhs.eq(rhs)


def test_sl3_fixed_subalgebra_is_diagonal(frame7):
    rng = random.Random(4)
    A = random_sl3(k7, rng, avoid_eigenvalue_one=True)
    t = sl3_embed(A, frame7)
    fixed = t.fixed_space()
    assert len(fixed) == 2
    # all fixed vectors are diagonal: only coordinates 0 and 7 nonzero
    for v in fixed:
        assert all(k7.is_zero(v[i]) for i in range(1, 7))


def test_sl3_injective(frame7):
    rng = random.Random(5)
    A = random_sl3(k7, rng)
    B = random_sl3(k7, rng)
    if not linalg.mat_eq(k7, A, B):
        assert not sl3_embed(A, frame7).eq(sl3_embed(B, frame7))


def test_sl3_on_nonstandard_frame(zorn7):
    fr = split_frame_from_idempotent(zorn7, zorn7.basis_vec(0))
    rng = random.Random(6)
    A = random_sl3(k7, rng)
    B = random_sl3(k7, rng)
    lhs = sl3_embed(A, fr).compose(sl3_embed(B, fr))
    assert lhs.eq(sl3_embed(linalg.mat_mul(k7, A, B), fr))


def test_extract_roundtrip(frame7):
    rng = random.Random(7)
    A = random_sl3(k7, rng)
    t = sl3_embed(A, frame7)
    assert linalg.mat_eq(k7, extract_frame_matrix(_in_frame_basis(t, frame7), frame7), A)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def _reference_split_frame(alg, e):
    """(e, f, U, W) from both Peirce equations, without the builder's trace
    row: U from the 16x8 null space of L_e stacked with R_e - 1, then u3
    rescaled so that u3 (u1 u2) = -f, and W from the wedge products."""
    F = alg.field

    def mul_matrix(mul):
        cols = [mul(alg.basis_vec(j)) for j in range(alg.dim)]
        return linalg.transpose(linalg.mat(cols))

    Le = mul_matrix(lambda x: alg.mul(e, x))
    Re = mul_matrix(lambda x: alg.mul(x, e))
    u1, u2, u3 = linalg.nullspace(F, Le + linalg.mat_sub(F, Re, linalg.identity(F, alg.dim)))
    f = alg.sub(alg.one, e)
    pairing = alg.mul(u3, alg.mul(u1, u2))
    idx = next(i for i in range(alg.dim) if not F.is_zero(f[i]))
    u3 = alg.scale(F.div(F.neg(f[idx]), pairing[idx]), u3)
    return e, f, (u1, u2, u3), (alg.mul(u2, u3), alg.mul(u3, u1), alg.mul(u1, u2))


def _moved_idempotents(F, seed):
    """t(e_7) and t(e_0) for a seeded automorphism t of the Zorn model over F
    that moves both: unitriangular embeddings around a non-standard swap."""
    Z = zorn_algebra(F)
    std = zorn_split_frame(Z)
    rng = random.Random(seed)

    def unitriangular(upper):
        def entry(i, j):
            if i == j:
                return F.one
            return F.element(rng.randrange(-3, 4)) if (i < j) == upper else F.zero

        return tuple(tuple(entry(i, j) for j in range(3)) for i in range(3))

    swap = frame_swap(split_frame_from_idempotent(Z, Z.add(Z.basis_vec(0), Z.basis_vec(4))))
    t = sl3_embed(unitriangular(True), std).compose(swap).compose(
        sl3_embed(unitriangular(False), std))
    es = [t.apply(Z.basis_vec(7)), t.apply(Z.basis_vec(0))]
    assert not Z.eq(es[0], Z.basis_vec(7)) and not Z.eq(es[1], Z.basis_vec(0))
    return Z, es


def _reference_cases():
    for F in (PrimeField(3), k7, PrimeField(31), RationalField()):
        for seed in range(3):
            Z, es = _moved_idempotents(F, seed)
            yield from ((Z, e) for e in es)
    O = pfister_octonion(k5, (1, 1, 1))
    e = find_proper_idempotent(O)
    yield from ((O, e), (O, O.sub(O.one, e)))


def test_split_frame_matches_the_peirce_reference():
    """The builder gives the reference frame exactly, so the same C, 3x3
    matrices and witnesses, on moved idempotents of the Zorn model over F_3,
    F_7, F_31 and Q and on a Pfister model over F_5."""
    cases = list(_reference_cases())
    assert len(cases) == 4 * 3 * 2 + 2
    for alg, e in cases:
        fr = split_frame_from_idempotent(alg, e)
        assert (fr.e, fr.f, fr.U, fr.W) == _reference_split_frame(alg, e)


def test_frame_carries_its_basis_matrix(frame7, other_frame7, su_setup):
    """C is the Lattice of the matrix with the frame's vectors as columns and
    Cinv the Lattice of its inverse, for each of the three constructors."""
    _, _, fu = su_setup
    g = fu.g
    mul = fu.alg.mul
    field_cols = (fu.one, g) + tuple(c for v in fu.fs for c in (v, mul(g, v)))
    for fr, cols in (
        (frame7, (frame7.f, *frame7.U, *frame7.W, frame7.e)),
        (other_frame7, (other_frame7.f, *other_frame7.U, *other_frame7.W, other_frame7.e)),
        (fu, field_cols),
    ):
        F = fr.alg.field
        C, Cinv = linalg.from_lattice(F, fr.C), linalg.from_lattice(F, fr.Cinv)
        assert C == linalg.transpose(linalg.mat(cols))
        assert linalg.mat_eq(F, linalg.mat_mul(F, C, Cinv), linalg.identity(F, 8))
    assert linalg.from_lattice(k7, frame7.C) == linalg.identity(k7, 8)


BIG = PrimeField(2**31 - 1)


def _field_frames(F):
    """Field frames over F on the hermitian model (g its generator s) and on
    a Pfister model (g the first doubling vector, g^2 = lam1 a nonsquare),
    with denominators in the polar form over Q."""
    c = F.nonsquare() if F.kind == "prime" else F.element(-1)
    O = octonion_from_hermitian(hermitian_space(QuadraticEtale(F, c), (1, 2, 5)))
    P = pfister_octonion(F, (c, F.inv(F.element(3)), F.element(5)))
    return [quadratic_subfield_frame(O, O.basis_vec(1)), quadratic_subfield_frame(P, P.basis_vec(1))]


def _split_frames(F):
    Z, es = _moved_idempotents(F, 1)
    frames = [split_frame_from_idempotent(Z, e) for e in es] + [zorn_split_frame(Z)]
    if F.kind == "prime":
        O = pfister_octonion(F, (1, 1, 1))
        frames.append(split_frame_from_idempotent(O, find_proper_idempotent(O)))
    return frames


@pytest.mark.parametrize("F", [k7, PrimeField(31), BIG, Q], ids=str)
def test_frame_inverses_and_hermitian_gram_match_the_references(F):
    """C^-1 = G^-1 C^T B from the Gram matrix equals the elimination inverse
    of C, and C C^-1 = 1, for split frames from seeded idempotents, field
    frames and quaternion frames, each read from its Lattices; H read off G
    equals the hermitian_form reference, and the field frame's C has the
    doubling basis as columns."""
    split, field = _split_frames(F), _field_frames(F)
    Z = zorn_algebra(F)
    D, b = _quaternion_data(Z)
    # N(3 b) = 9 N(b) puts a scale on the D a half of G
    quaternion = [quaternion_frame(Z, D, a) for a in (None, b, Z.scale(F.element(3), b))]
    assert not F.eq(Z.norm(quaternion[2].a), F.one)
    for fr in split + field + quaternion:
        C, Cinv = linalg.from_lattice(F, fr.C), linalg.from_lattice(F, fr.Cinv)
        assert Cinv == linalg.inverse(F, C)
        assert linalg.mat_mul(F, C, Cinv) == linalg.identity(F, 8)
    for fr in field:
        g, mul = fr.g, fr.alg.mul
        cols = (fr.one, g) + tuple(c for v in fr.fs for c in (v, mul(g, v)))
        assert linalg.from_lattice(F, fr.C) == linalg.transpose(linalg.mat(cols))
        assert fr.fs[2] == mul(fr.fs[0], fr.fs[1])
        for i, fi in enumerate(fr.fs):
            assert hermitian_form(fr, fi, fi) == (fr.H[i], F.zero)
            for fj in fr.fs[i + 1:]:
                assert hermitian_form(fr, fi, fj) == (F.zero, F.zero)
    if F.kind == "rationals":
        # the inverses carry the scales of C and of B: both are past 1 here
        assert any(fr.C.s > 1 for fr in split + field)
        assert any(fr.alg.lattice_forms()[1][1] > 1 for fr in field)


def _tamper_gram(monkeypatch, tamper, size=8):
    """Make automorphisms._gram return tamper(G) for each size x size Gram
    matrix G, as a list of lists; tamper=(i, j) adds 1 to entry (i, j)."""
    from g2real import automorphisms

    gram = automorphisms._gram
    if isinstance(tamper, tuple):
        i, j = tamper

        def tamper(G, F):
            G[i][j] = F.add(G[i][j], F.one)
            return G

    def tampered(alg, cols):
        G, *lattices = gram(alg, cols)
        if len(G) == size:
            G = linalg.mat(tamper([list(r) for r in G], alg.field))
        return (G, *lattices)

    monkeypatch.setattr(automorphisms, "_gram", tampered)


def test_frame_constructors_refuse_bad_input_with_their_texts(monkeypatch):
    """A non-idempotent e, a tampered product and a tampered Gram matrix
    raise each constructor's own FieldError text."""
    Z = zorn_algebra(k7)
    for e in (Z.basis_vec(1), Z.one, Z.zero_vec()):
        with pytest.raises(FieldError, match="^e is not a proper idempotent$"):
            split_frame_from_idempotent(Z, e)
    e = Z.add(Z.basis_vec(0), Z.basis_vec(4))
    products = Z.products

    def one_bad_relation(xs, ys):
        out = products(xs, ys)
        if len(out) == 9:  # the pairing relations u_i w_j
            out = out[:1] + (Z.add(out[1], Z.basis_vec(3)),) + out[2:]
        return out

    with monkeypatch.context() as m:
        m.setattr(Z, "products", one_bad_relation)
        with pytest.raises(FieldError, match="^split frame fails the pairing relations$"):
            split_frame_from_idempotent(Z, e)
    for entry in ((0, 7), (3, 4), (2, 2)):
        with monkeypatch.context() as m:
            _tamper_gram(m, entry)
            with pytest.raises(FieldError, match="^split frame fails the pairing relations$"):
                split_frame_from_idempotent(Z, e)
    O = _field_frames(k7)[0].alg
    for entry, text in (((2, 4), "doubling frame is not orthogonal"),
                        ((5, 6), "doubling frame is not orthogonal"),
                        ((3, 2), "hermitian diagonal is not in k"),
                        ((0, 1), "doubling frame is not orthogonal"),
                        ((7, 0), "doubling frame is not orthogonal")):
        with monkeypatch.context() as m:
            _tamper_gram(m, entry)
            with pytest.raises(FieldError, match=f"^{text}$"):
                quadratic_subfield_frame(O, O.basis_vec(1))
    D, b = _quaternion_data(Z)
    for entry in ((0, 5), (6, 7), (4, 4)):
        with monkeypatch.context() as m:
            _tamper_gram(m, entry)
            with pytest.raises(FieldError, match="^doubling vector must be anisotropic and orthogonal to D$"):
                quaternion_frame(Z, D, b)
    degenerate = "^need 4 vectors with a nondegenerate norm Gram matrix$"
    with monkeypatch.context() as m:
        _tamper_gram(m, lambda G, F: [r[:3] + [F.zero] for r in G], size=4)
        with pytest.raises(FieldError, match=degenerate):
            quaternion_frame(Z, D, b)
    for bad in (D[:3], D[:3] + (Z.basis_vec(2),)):
        with pytest.raises(FieldError, match=degenerate):
            quaternion_frame(Z, bad, b)
    # a nondegenerate span that is not closed: (u1 + w1)(u2 + w2) leaves it
    x = Z.add(Z.basis_vec(2), Z.basis_vec(5))
    with pytest.raises(FieldError, match="^the span is not closed under multiplication$"):
        quaternion_frame(Z, D[:3] + (x,))


# ---------------------------------------------------------------------------
# the swap and the conjugation extension
# ---------------------------------------------------------------------------

def test_swap_is_an_involution(zorn7):
    rho = zorn_swap(zorn7)
    assert rho.certified
    assert rho.compose(rho).is_identity()


def test_swap_conjugation_identity(zorn7, frame7):
    rho = zorn_swap(zorn7)
    rng = random.Random(8)
    for _ in range(25):
        A = random_sl3(k7, rng)
        lhs = rho.compose(sl3_embed(A, frame7)).compose(rho)
        At_inv = linalg.transpose(linalg.inverse3(k7, A))
        assert lhs.eq(sl3_embed(At_inv, frame7))


def test_rho_restricted_to_diagonal_swaps(zorn7):
    rho = zorn_swap(zorn7)
    e0 = zorn7.basis_vec(0)
    e7 = zorn7.basis_vec(7)
    assert zorn7.eq(rho.apply(e0), e7)
    assert zorn7.eq(rho.apply(e7), e0)


def test_rho_normalizes_the_pointwise_stabilizer(zorn7, frame7):
    rho = zorn_swap(zorn7)
    rng = random.Random(9)
    for _ in range(20):
        A = random_sl3(k7, rng)
        g = rho.compose(sl3_embed(A, frame7)).compose(rho)
        # conjugate still fixes the diagonal pointwise
        assert zorn7.eq(g.apply(zorn7.basis_vec(0)), zorn7.basis_vec(0))
        assert zorn7.eq(g.apply(zorn7.basis_vec(7)), zorn7.basis_vec(7))


# ---------------------------------------------------------------------------
# involutions
# ---------------------------------------------------------------------------

def test_involution_from_quaternion(zorn7):
    g = zorn7.sub(zorn7.basis_vec(0), zorn7.basis_vec(7))
    a = zorn7.add(zorn7.basis_vec(1), zorn7.basis_vec(4))
    D = (zorn7.one, g, a, zorn7.mul(g, a))
    iota = involution_from_quaternion(zorn7, D)
    assert iota.certified
    assert iota.compose(iota).is_identity()
    fixed = iota.fixed_space()
    assert len(fixed) == 4
    assert linalg.rank(k7, linalg.mat(tuple(fixed) + D)) == 4


def test_involution_from_quaternion_rejects_degenerate(zorn7, frame7):
    bad = (zorn7.one, zorn7.basis_vec(1), zorn7.basis_vec(2), zorn7.basis_vec(3))
    with pytest.raises(FieldError):
        involution_from_quaternion(zorn7, bad)
    # closed but degenerate: span(e, f, u1, w2) is a subalgebra whose norm
    # Gram has rank 2, so D + D a is no basis for any a
    fr = frame7
    closed = (fr.e, fr.f, fr.U[0], fr.W[1])
    assert subalgebra_closed(zorn7, closed)
    with pytest.raises(FieldError):
        involution_from_quaternion(zorn7, closed)


@pytest.fixture(scope="module")
def other_frame7(zorn7):
    # a split frame whose idempotent is not the standard one
    e = zorn7.add(zorn7.basis_vec(0), zorn7.basis_vec(4))
    return split_frame_from_idempotent(zorn7, e)


def _doubling_swap_reference(fr):
    """C D C^-1 with C the doubling basis 1, g, a, ga, b, gb, ab, g(ab) of a
    field frame and D = diag(+,-,+,-,...), built and certified here."""
    O = fr.alg
    F = O.field
    cols = [fr.one, fr.g]
    for v in fr.fs:
        cols += [v, O.mul(fr.g, v)]
    C = linalg.transpose(linalg.mat(cols))
    D = [[F.zero] * 8 for _ in range(8)]
    for i in range(8):
        D[i][i] = F.one if i % 2 == 0 else F.neg(F.one)
    M = linalg.mat_mul(F, linalg.mat_mul(F, C, D), linalg.inverse(F, C))
    out = certify_automorphism(M, O)
    assert out.certified
    return out


def test_frame_swap_matches_reference_swaps(frame7, su_setup):
    assert frame_swap(frame7).eq(zorn_swap(frame7.alg))
    _, _, fr = su_setup
    assert frame_swap(fr).eq(_doubling_swap_reference(fr))


def test_frame_swap_on_nonstandard_frame(other_frame7):
    fr = other_frame7
    rho = frame_swap(fr)
    assert rho.compose(rho).is_identity()
    alg = fr.alg
    assert alg.eq(rho.apply(fr.e), fr.f) and alg.eq(rho.apply(fr.f), fr.e)


def test_nonsymmetric_composition_is_not_an_involution(frame7):
    # (sl3(S) rho)^2 = sl3(S tS^-1): not the identity when S is asymmetric
    S = ((k7.one, k7.one, k7.zero), (k7.zero, k7.one, k7.zero), (k7.zero, k7.zero, k7.one))
    rho = zorn_swap(frame7.alg)
    m = sl3_embed(S, frame7).compose(rho)
    assert not m.compose(m).is_identity()


def test_sl3_rho_composition_identity(frame7):
    # (sl3(P) rho)(sl3(Q) rho) = sl3(P tQ^-1)
    rng = random.Random(12)
    rho = zorn_swap(frame7.alg)
    for _ in range(25):
        P = random_sl3(k7, rng)
        Qm = random_sl3(k7, rng)
        lhs = sl3_embed(P, frame7).compose(rho).compose(sl3_embed(Qm, frame7)).compose(rho)
        rhs = sl3_embed(
            linalg.mat_mul(k7, P, linalg.transpose(linalg.inverse3(k7, Qm))), frame7
        )
        assert lhs.eq(rhs)


# ---------------------------------------------------------------------------
# the quaternion frame and its Stab(D) map
# ---------------------------------------------------------------------------

def _quaternion_data(alg):
    from g2real.automorphisms import _orthogonal_anisotropic

    g = alg.sub(alg.basis_vec(0), alg.basis_vec(7))
    a = alg.add(alg.basis_vec(1), alg.basis_vec(4))
    D = (alg.one, g, a, alg.mul(g, a))
    b = _orthogonal_anisotropic(alg, D)
    return D, b


def _norm_one_action(alg, D, b, p):
    """The Stab(D) map of (1, p): x + y b -> x + (p y) b."""
    return stab_map(quaternion_frame(alg, D, b), alg.one, p)


def _random_norm_one(alg, D, rng):
    F = alg.field
    while True:
        coeffs = [F.random(rng) for _ in D]
        p = alg.zero_vec()
        for c, d in zip(coeffs, D):
            p = alg.add(p, alg.scale(c, d))
        n = alg.norm(p)
        if F.is_zero(n):
            continue
        if F.is_square(F.inv(n)):
            s = F.sqrt(F.inv(n))
            return alg.scale(s, p)


def _random_in_span(alg, D, rng):
    """A random element of span(D) with nonzero norm."""
    F = alg.field
    while True:
        x = alg.zero_vec()
        for d in D:
            x = alg.add(x, alg.scale(F.random(rng), d))
        if not F.is_zero(alg.norm(x)):
            return x


def _equal_norm_pair(alg, D, rng):
    """(x, y) in D with N(x) = N(y) != 0, over any field: y = n w conj(x) w^-1
    with n = s e + s^-1 f of norm 1, for the idempotents e = basis_vec(7) and
    f = basis_vec(0) of the Zorn model, which lie in D = (1, g, a, ga)."""
    F = alg.field
    x, w = _random_in_span(alg, D, rng), _random_in_span(alg, D, rng)
    s = F.zero
    while F.is_zero(s):
        s = F.random(rng)
    n = alg.add(alg.scale(s, alg.basis_vec(7)), alg.scale(F.inv(s), alg.basis_vec(0)))
    winv = alg.scale(F.inv(alg.norm(w)), alg.conj(w))
    y = alg.mul(n, alg.mul(alg.mul(w, alg.conj(x)), winv))
    assert F.eq(alg.norm(x), alg.norm(y))
    return x, y


@pytest.mark.parametrize("F", [k5, Q], ids=["F5", "Q"])
def test_stab_map_matches_its_formula_on_the_frame(F):
    Z = zorn_algebra(F)
    D, b = _quaternion_data(Z)
    fr = quaternion_frame(Z, D, b)
    rng = random.Random(31)
    for _ in range(6):
        x, y = _equal_norm_pair(Z, D, rng)
        m = stab_map(fr, x, y)
        assert m.certified
        xinv = Z.scale(F.inv(Z.norm(x)), Z.conj(x))
        for d in D:
            # u + v a -> x u x^-1 + (y v x^-1) a on u = d and on v = d
            assert Z.eq(m.apply(d), Z.mul(Z.mul(x, d), xinv))
            assert Z.eq(m.apply(Z.mul(d, b)), Z.mul(Z.mul(Z.mul(y, d), xinv), b))


@pytest.mark.parametrize("F", [k5, Q], ids=["F5", "Q"])
def test_stab_map_homomorphism(F):
    Z = zorn_algebra(F)
    D, b = _quaternion_data(Z)
    fr = quaternion_frame(Z, D, b)
    rng = random.Random(32)
    for _ in range(8):
        (x, y), (x2, y2) = _equal_norm_pair(Z, D, rng), _equal_norm_pair(Z, D, rng)
        lhs = stab_map(fr, x, y).compose(stab_map(fr, x2, y2))
        assert lhs.eq(stab_map(fr, Z.mul(x, x2), Z.mul(y, y2)))


@pytest.mark.parametrize("F", [k5, Q], ids=["F5", "Q"])
def test_stab_map_refuses_unequal_norms(F):
    Z = zorn_algebra(F)
    D, b = _quaternion_data(Z)
    fr = quaternion_frame(Z, D, b)
    with pytest.raises(FieldError):
        stab_map(fr, Z.one, Z.scale(F.element(2), Z.one))  # N = 1 and 4
    with pytest.raises(FieldError):
        stab_map(fr, Z.basis_vec(7), Z.basis_vec(7))  # N = 0


def test_quaternion_frame_refuses_a_bad_doubling_vector():
    Z = zorn_algebra(k5)
    D, b = _quaternion_data(Z)
    with pytest.raises(FieldError):
        quaternion_frame(Z, D, Z.one)  # not orthogonal to D
    with pytest.raises(FieldError):
        quaternion_frame(Z, D, Z.basis_vec(2))  # isotropic


def test_sl1_identity_and_minus_one():
    Z = zorn_algebra(k5)
    D, b = _quaternion_data(Z)
    t1 = _norm_one_action(Z, D, b, Z.one)
    assert t1.is_identity()
    tm = _norm_one_action(Z, D, b, Z.neg(Z.one))
    assert tm.eq(involution_from_quaternion(Z, D))


def test_sl1_homomorphism():
    Z = zorn_algebra(k5)
    D, b = _quaternion_data(Z)
    rng = random.Random(13)
    for _ in range(25):
        p = _random_norm_one(Z, D, rng)
        q = _random_norm_one(Z, D, rng)
        lhs = _norm_one_action(Z, D, b, p).compose(_norm_one_action(Z, D, b, q))
        rhs = _norm_one_action(Z, D, b, Z.mul(p, q))
        assert lhs.eq(rhs)


def test_sl1_commutes_with_quaternion_involution():
    Z = zorn_algebra(k5)
    D, b = _quaternion_data(Z)
    iota = involution_from_quaternion(Z, D)
    rng = random.Random(14)
    for _ in range(10):
        p = _random_norm_one(Z, D, rng)
        t = _norm_one_action(Z, D, b, p)
        assert t.compose(iota).eq(iota.compose(t))


def test_sl1_rejects_non_norm_one():
    Z = zorn_algebra(k5)
    D, b = _quaternion_data(Z)
    with pytest.raises(FieldError):
        _norm_one_action(Z, D, b, Z.scale(k5.element(2), Z.one))


# ---------------------------------------------------------------------------
# SU(3) embedding
# ---------------------------------------------------------------------------

def test_su_identity(su_setup):
    L, O, fr = su_setup
    assert su_embed(linalg.identity(L, 3), fr).is_identity()


def test_frame_hermitian_values(su_setup):
    # direct evaluation of the form on the doubling frame: h(f_i, f_i) = 2 N(f_i)
    L, O, fr = su_setup
    k = O.field
    for i, fv in enumerate(fr.fs):
        hv = hermitian_form(fr, fv, fv)
        assert L.in_base(hv)
        assert k.eq(L.to_base(hv), k.mul(k.element(2), O.norm(fv)))
        assert k.eq(fr.H[i], L.to_base(hv))
    # off-diagonal values vanish: the frame is orthogonal
    for i in range(3):
        for j in range(i + 1, 3):
            assert L.is_zero(hermitian_form(fr, fr.fs[i], fr.fs[j]))


def test_su_homomorphism(su_setup):
    L, O, fr = su_setup
    rng = random.Random(15)
    for _ in range(25):
        A = random_su(L, fr.H, rng)
        B = random_su(L, fr.H, rng)
        lhs = su_embed(A, fr).compose(su_embed(B, fr))
        rhs = su_embed(linalg.mat_mul(L, A, B), fr)
        assert lhs.eq(rhs)


def test_su_rejects_non_unitary(su_setup):
    L, O, fr = su_setup
    A = linalg.scalar_mat(L, L.embed(k5.element(2)), linalg.identity(L, 3))
    with pytest.raises(FieldError):
        su_embed(A, fr)


def test_su_extract_roundtrip(su_setup):
    L, O, fr = su_setup
    rng = random.Random(16)
    A = random_su(L, fr.H, rng)
    t = su_embed(A, fr)
    assert linalg.mat_eq(L, extract_frame_matrix(_in_frame_basis(t, fr), fr), A)


def test_frame_rho_properties(su_setup):
    L, O, fr = su_setup
    rho = frame_swap(fr)
    assert rho.certified
    assert rho.compose(rho).is_identity()
    # restriction to L is sigma: the generator is negated
    assert O.eq(rho.apply(fr.g), O.neg(fr.g))
    assert O.eq(rho.apply(fr.one), fr.one)
    # conjugation by rho applies sigma to the matrix entries
    rng = random.Random(17)
    A = random_su(L, fr.H, rng)
    Abar = linalg.map_entries(L.sigma, A)
    assert rho.compose(su_embed(A, fr)).compose(rho).eq(su_embed(Abar, fr))


def _embed_then_swap(A, fr):
    """The witness map as it was built before the one conjugation: the
    certified embedding composed with the certified frame swap."""
    embed = sl3_embed if isinstance(fr, SplitFrame) else su_embed
    return embed(A, fr).compose(frame_swap(fr))


def test_swapped_embed_is_embed_then_swap(frame7, other_frame7, su_setup):
    rng = random.Random(19)
    L, _, fr = su_setup
    cases = [(fr, random_su(L, fr.H, rng)) for _ in range(4)]
    cases += [(f, random_sl3(k7, rng)) for f in (frame7, other_frame7) for _ in range(4)]
    Q = RationalField()
    frQ = zorn_split_frame(zorn_algebra(Q))
    cases.append((frQ, companion_matrix(Q, (Fraction(-1), Fraction(-1), Fraction(0)))))
    for f, A in cases:
        got = swapped_embed(A, f)
        assert got.certified
        assert got.matrix == _embed_then_swap(A, f).matrix


def test_lifted_witnesses_equal_embed_then_swap(frame7, other_frame7, su_setup):
    """iota1, iota2 and a coset-1 h are the same matrices as the embedding
    composed with the frame swap, on the standard and a non-standard split
    frame and on a field frame."""
    from g2real.reality import (
        brute_force_reality_oracle,
        reality_sl3,
        reality_su,
        two_involution_witness,
    )

    rng = random.Random(20)
    L, _, fr = su_setup
    seen_h = 0
    for f in (frame7, other_frame7, fr):
        for _ in range(3):
            if f is fr:
                A = random_su(L, fr.H, rng, separable=True, avoid_eigenvalue_one=True)
                t = su_embed(A, f)
                rep = reality_su(L, extract_frame_matrix(_in_frame_basis(t, f), f), fr.H)
                m1, m2 = rep.witness["A1"], rep.witness["C"]
            else:
                A = random_sl3(k7, rng, avoid_eigenvalue_one=True, separable=True)
                t = sl3_embed(A, f)
                rep = reality_sl3(k7, extract_frame_matrix(_in_frame_basis(t, f), f))
                m1, m2 = rep.witness["S1"], linalg.inverse3(k7, rep.witness["S2"])
            i1, i2 = two_involution_witness(t, f, rep)
            assert i1.matrix == _embed_then_swap(m1, f).matrix
            assert i2.matrix == _embed_then_swap(m2, f).matrix
            out = brute_force_reality_oracle(t, f, level="octonion")
            if out["verdict"] == "real" and out["coset"] == 1:
                seen_h += 1
                assert out["h"].matrix == _embed_then_swap(out["B"], f).matrix
    assert seen_h >= 3


def _nullity_by_sympy(F, M):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    if F.kind == "prime":
        dom = sympy.GF(F.p)
        rows = [[dom(int(x)) for x in r] for r in M]
    else:
        dom = sympy.QQ
        rows = [[dom(x.numerator, x.denominator) for x in r] for r in M]
    return len(M[0]) - DomainMatrix(rows, (len(M), len(M[0])), dom).rank()


def _eighth_power(F, N):
    """N^8 as seven plain products, the reference for ker N^8."""
    P = N
    for _ in range(7):
        P = linalg.mat_mul(F, P, N)
    return P


def _chain_cases(F):
    """(t, r) for the identity, a unipotent element (r = 7, Jordan block of
    size 3 on U), a mixed element fixing a quaternion subalgebra (r = 3) and
    a regular element without eigenvalue 1 (r = 1), on the Zorn split frame."""
    fr = zorn_split_frame(zorn_algebra(F))
    o, z, m = F.one, F.zero, F.neg(F.one)
    mats = [
        (linalg.identity(F, 3), 7),
        (((o, o, z), (z, o, o), (z, z, o)), 7),
        (((o, z, z), (z, m, o), (z, z, m)), 3),
        (companion_matrix(F, (m, m, z)), 1),  # X^3 - X - 1
    ]
    return [(sl3_embed(A, fr), r) for A, r in mats]


@pytest.mark.parametrize("F", [PrimeField(3), k5, k7, RationalField()], ids=str)
def test_fixed_spaces_kernel_chain(F):
    from g2real.reality import classify

    for t, r in _chain_cases(F):
        fixed, V = t.fixed_spaces()
        N = linalg.mat_sub(F, t.matrix, linalg.identity(F, 8))
        assert fixed == t.fixed_space() == linalg.nullspace(F, N)
        assert V == linalg.nullspace(F, _eighth_power(F, N))
        case, fixed = classify(t)
        assert case["r"] == r and fixed == t.fixed_space()


def _gram_cases(F):
    """(name, t, products) with `products` whether fixed_spaces must form
    N^2: the _chain_cases, a field semisimple element, a quaternion-fixing
    involution and an uncertified matrix.  Only the unipotent element
    (degenerate kernel) and the uncertified matrix take the chain."""
    names = ("identity", "unipotent", "mixed", "split")
    out = [(name, t, name == "unipotent") for name, (t, _) in zip(names, _chain_cases(F))]
    o, z, m = F.one, F.zero, F.neg(F.one)
    # u = (1 + g)/(1 - g) has norm one and is not +-1, so diag(u, u, u^-2)
    # lies in SU(3) without eigenvalue 1
    L = QuadraticEtale(F, F.nonsquare() if F.kind == "prime" else -1)
    u = L.div(L.add(L.one, (z, o)), L.sub(L.one, (z, o)))
    D = ((u, L.zero, L.zero), (L.zero, u, L.zero), (L.zero, L.zero, L.inv(L.mul(u, u))))
    O = octonion_from_hermitian(hermitian_space(L, (1, 1, 1)))
    out.append(("field", su_embed(D, quadratic_subfield_frame(O, O.basis_vec(1))), False))
    alg = zorn_algebra(F)
    g = alg.sub(alg.basis_vec(0), alg.basis_vec(7))
    a = alg.add(alg.basis_vec(1), alg.basis_vec(4))
    iota = involution_from_quaternion(alg, (alg.one, g, a, alg.mul(g, a)))
    out.append(("quaternion", iota, False))
    # 1 + E_01 on a diagonal norm: ker N = span(e_0, e_2, ..., e_7) is
    # nondegenerate, yet N^2 = 0; only certification rules the shortcut out
    M = [list(r) for r in linalg.identity(F, 8)]
    M[0][1] = o
    uncertified = certify_automorphism(M, pfister_octonion(F, (m, m, m)))
    assert not uncertified.certified
    out.append(("uncertified", uncertified, True))
    return out


@pytest.mark.parametrize("F", [k5, k7, RationalField()], ids=str)
def test_fixed_spaces_match_the_plain_chain(F, monkeypatch):
    """(fixed, V) is (nullspace N, nullspace N^8) whichever way it is found,
    and a nondegenerate kernel of a certified map forms no N^2."""
    products = []
    mat_mul = linalg.mat_mul

    def counted(*args):
        products.append(args)
        return mat_mul(*args)

    dims = {}
    for name, t, chain in _gram_cases(F):
        monkeypatch.setattr(linalg, "mat_mul", counted)
        products.clear()
        fixed, V = t.fixed_spaces()
        monkeypatch.undo()
        assert bool(products) == chain, name
        N = linalg.mat_sub(F, t.matrix, linalg.identity(F, 8))
        assert fixed == linalg.nullspace(F, N), name
        assert V == linalg.nullspace(F, _eighth_power(F, N)), name
        dims[name] = (len(fixed), len(V))
    assert dims == {"identity": (8, 8), "unipotent": (4, 8), "mixed": (4, 4),
                    "split": (2, 2), "field": (2, 2), "quaternion": (4, 4),
                    "uncertified": (7, 8)}


@pytest.mark.parametrize("F", [PrimeField(3), k5, k7, RationalField()], ids=str)
def test_fixed_spaces_dimensions_match_sympy(F):
    for t, _ in _chain_cases(F):
        fixed, V = t.fixed_spaces()
        N = linalg.mat_sub(F, t.matrix, linalg.identity(F, 8))
        assert len(fixed) == _nullity_by_sympy(F, N)
        assert len(V) == _nullity_by_sympy(F, _eighth_power(F, N))


def test_su_random_sampler_members(su_setup):
    L, O, fr = su_setup
    rng = random.Random(18)
    for _ in range(20):
        A = random_su(L, fr.H, rng)
        assert in_su(A, L, fr.H)


# the definitions, with H as a full diagonal matrix: tA H conj(A) = H,
# H^-1 conj(X)^t H and h(u, v) = sum H_i u_i sigma(v_i)

def _gram(L, H):
    return tuple(
        tuple(L.embed(H[i]) if i == j else L.zero for j in range(3)) for i in range(3)
    )


def _unitary_by_definition(L, H, A):
    Hm = _gram(L, H)
    prod = linalg.mat_mul(
        L, linalg.mat_mul(L, linalg.transpose(A), Hm), linalg.map_entries(L.sigma, A)
    )
    return linalg.mat_eq(L, prod, Hm)


def _adjoint_by_definition(L, H, X):
    Hinv = _gram(L, tuple(L.base.inv(h) for h in H))
    Xt = linalg.transpose(linalg.map_entries(L.sigma, X))
    return linalg.mat_mul(L, linalg.mat_mul(L, Hinv, Xt), _gram(L, H))


_PREDICATE_CASES = [
    pytest.param(5, 2, (1, 1, 1), id="F25 unit Gram"),
    pytest.param(5, 2, (1, 2, 3), id="F25 Gram 1,2,3"),
    pytest.param(7, 3, (1, 1, 1), id="F49 unit Gram"),
    pytest.param(7, 3, (2, 1, 5), id="F49 Gram 2,1,5"),
    pytest.param(5, None, (1, 1, 1), id="F5xF5 unit Gram"),
    pytest.param(5, None, (1, 2, 3), id="F5xF5 Gram 1,2,3"),
]


@pytest.mark.parametrize("p, c, gram", _PREDICATE_CASES)
def test_unitary_predicates_match_the_definition(p, c, gram):
    # seeded members of SU(H), their single-entry perturbations and their
    # multiples by a norm-one scalar (unitary, not always of det 1)
    k = PrimeField(p)
    L = QuadraticEtale(k, c)
    H = tuple(k.element(h) for h in gram)
    rng = random.Random(p * 100 + sum(gram))
    norm_one = [x for x in L.elements() if k.eq(L.norm(x), k.one)]
    seen = {True: 0, False: 0}
    for _ in range(12):
        A = random_su(L, H, rng)
        lam = rng.choice(norm_one)
        inputs = [A, tuple(tuple(L.mul(lam, x) for x in row) for row in A)]
        for i, j in itertools.product(range(3), repeat=2):
            B = [list(row) for row in A]
            B[i][j] = L.add(B[i][j], L.random(rng))
            inputs.append(linalg.mat(B))
        for B in inputs:
            unitary = _unitary_by_definition(L, H, B)
            det_one = L.eq(linalg.det3(L, B), L.one)
            assert in_unitary(B, L, H) == unitary
            assert in_su(B, L, H) == (unitary and det_one)
            seen[unitary] += 1
    assert seen[True] >= 24 and seen[False] > 0


@pytest.mark.parametrize("p, c, gram", _PREDICATE_CASES)
def test_adjoint_and_hermitian_row_match_the_definition(p, c, gram):
    k = PrimeField(p)
    L = QuadraticEtale(k, c)
    H = tuple(k.element(h) for h in gram)
    rng = random.Random(p * 1000 + sum(gram))
    for _ in range(30):
        X = tuple(tuple(L.random(rng) for _ in range(3)) for _ in range(3))
        assert linalg.mat_eq(L, sigma_h(L, H, X), _adjoint_by_definition(L, H, X))
        u, v = X[0], X[1]
        schoolbook = L.zero
        for h, a, b in zip(H, u, v):
            schoolbook = L.add(schoolbook, L.mul(L.embed(h), L.mul(a, L.sigma(b))))
        assert L.eq(_dot(L, u, hermitian_row(L, H, v)), schoolbook)


# ---------------------------------------------------------------------------
# involution conjugacy classes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7])
def test_involution_classes_single(p):
    alg = zorn_algebra(PrimeField(p))
    count, wit = involution_conjugacy_classes(alg)
    assert count == 1
    conj, i1, i2 = wit["conjugator"], wit["iota1"], wit["iota2"]
    assert conj.certified
    assert conj.compose(i1).compose(conj.inverse()).eq(i2)
    assert not i1.eq(i2)
