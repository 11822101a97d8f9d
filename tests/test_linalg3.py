"""The 3x3 layer of linalg: the closed forms on native residues, the cyclic
vectors, the Krylov intertwiner space and the norm form of k[A].

References: the generic loops through the field handle (a wrapper whose kind
is neither "prime" nor "rationals"), the 9x9 elimination that
solve_sylvester_space used to run, det3 of c0 I + c1 A + c2 A^2, and, where
installed, sympy.
"""

import itertools
import random
from fractions import Fraction

import pytest

from g2real import linalg
from g2real.fields import PrimeField, QuadraticEtale, RationalField

Q = RationalField()
F3, F5, F13, F31 = (PrimeField(p) for p in (3, 5, 13, 31))
L25 = QuadraticEtale(F5, 2)
MERSENNE_31 = 2**31 - 1


class Generic:
    """The handle F under another kind: linalg takes its generic loop."""

    kind = "generic"

    def __init__(self, F):
        self.F = F

    def __getattr__(self, name):
        return getattr(self.F, name)


def _entry(F, rng):
    if F.kind == "rationals":
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
    return F.random(rng)


def _matrix(F, rng):
    return tuple(tuple(_entry(F, rng) for _ in range(3)) for _ in range(3))


def _regular(F, rng):
    A = _matrix(F, rng)
    while not linalg.min_equals_char3(F, A):
        A = _matrix(F, rng)
    return A


def _invertible(F, rng):
    P = _matrix(F, rng)
    while F.is_zero(linalg.det3(F, P)):
        P = _matrix(F, rng)
    return P


def _krylov_rows(F, A, v):
    Av = linalg.mat_vec(F, A, v)
    return v, Av, linalg.mat_vec(F, A, Av)


def _cyclic(F, A, v):
    return not F.is_zero(linalg.det3(F, _krylov_rows(F, A, v)))


def _seven_candidate_misses(F, zero_rows=0):
    """Every regular 3x3 matrix over F whose first zero_rows rows vanish and
    that none of e_i, e_i + e_j, e_1 + e_2 + e_3 is a cyclic vector of."""
    first = list(itertools.islice(linalg._cyclic_candidates(F), 7))
    out = []
    for e in itertools.product(list(F.elements()), repeat=9 - 3 * zero_rows):
        A = ((F.zero,) * 3,) * zero_rows + linalg.flat_to_matrix(e, 3 - zero_rows, 3)
        cyclic = any(_cyclic(F, A, v) for v in first)
        if not cyclic and linalg.min_equals_char3(F, A):
            out.append(A)
    return out


@pytest.fixture(scope="module")
def f3_misses():
    return _seven_candidate_misses(F3)


# ---------------------------------------------------------------------------
# closed forms on native residues
# ---------------------------------------------------------------------------

def _big_entry(F, rng):
    if F.kind == "prime":
        return rng.randrange(-3 * F.p, 3 * F.p)  # unreduced inputs too
    return Fraction(rng.randrange(-(2**130), 2**130), rng.randrange(2**127, 2**131))


@pytest.mark.parametrize("F", [PrimeField(7), PrimeField(MERSENNE_31), Q], ids=["F7", "F_2^31-1", "Q"])
def test_closed_forms_match_the_generic_loop(F):
    G = Generic(F)
    rng = random.Random(f"closed/{F!r}")
    plain = int if F.kind == "prime" else Fraction
    for _ in range(40):
        a, b = ([[_big_entry(F, rng) for _ in range(3)] for _ in range(3)] for _ in range(2))
        a, b = linalg.mat(a), linalg.mat(b)
        v = tuple(_big_entry(F, rng) for _ in range(3))
        c = tuple(_big_entry(F, rng) for _ in range(3))
        pairs = [
            (linalg.det3(F, a), linalg.det3(G, a)),
            (linalg.charpoly3(F, a), linalg.charpoly3(G, a)),
            (linalg.adjugate3(F, a), linalg.adjugate3(G, a)),
            (linalg.mat_mul(F, a, b), linalg.mat_mul(G, a, b)),
            (linalg.mat_add(F, a, b), linalg.mat_add(G, a, b)),
            (linalg.mat_sub(F, a, b), linalg.mat_sub(G, a, b)),
            (linalg.mat_vec(F, a, v), linalg.mat_vec(G, a, v)),
            (linalg.combination(F, c, (a, b, a)), linalg.combination(G, c, (a, b, a))),
        ]
        if not F.is_zero(linalg.det3(F, a)):
            pairs.append((linalg.inverse3(F, a), linalg.inverse3(G, a)))
        for got, want in pairs:
            flat = [got] if not isinstance(got, tuple) else \
                got if not isinstance(got[0], tuple) else [x for r in got for x in r]
            assert got == want and all(type(x) is plain for x in flat)
        assert linalg.mat_eq(F, a, a)
        assert linalg.mat_eq(F, a, b) == linalg.mat_eq(G, a, b)
        if F.kind == "prime":
            shifted = linalg.map_entries(lambda x: x + F.p, a)
            assert linalg.mat_eq(F, a, shifted) and linalg.mat_eq(G, a, shifted)


@pytest.mark.parametrize("F", [PrimeField(31), PrimeField(MERSENNE_31), Q], ids=["F31", "F_2^31-1", "Q"])
def test_mat_vec_at_every_length_matches_the_generic_loop(F):
    G = Generic(F)
    rng = random.Random(f"mat_vec/{F!r}")
    plain = int if F.kind == "prime" else Fraction
    for n, m in ((1, 1), (2, 5), (4, 4), (8, 8), (8, 3), (3, 8), (6, 2)):
        for _ in range(10):
            a = linalg.mat([[_big_entry(F, rng) for _ in range(m)] for _ in range(n)])
            v = tuple(_big_entry(F, rng) for _ in range(m))
            got = linalg.mat_vec(F, a, v)
            assert got == linalg.mat_vec(G, a, v) and len(got) == n
            assert all(type(x) is plain for x in got)
    if F.kind == "rationals":  # integer entries still give Fractions
        assert all(type(x) is Fraction for x in linalg.mat_vec(F, ((1, 2), (3, 4)), (5, 6)))


def _handle_mat_mul(L, a, b):
    """The 3x3 product as sums of L.mul through the field handle."""
    return tuple(
        tuple(
            L.add(L.add(L.mul(a[i][0], b[0][j]), L.mul(a[i][1], b[1][j])), L.mul(a[i][2], b[2][j]))
            for j in range(3)
        )
        for i in range(3)
    )


@pytest.mark.parametrize("p", [3, 5, 31, MERSENNE_31])
def test_mat_mul_over_L_on_native_pairs_matches_the_handle(p):
    k = PrimeField(p)
    L = QuadraticEtale(k, k.nonsquare())
    rng = random.Random(f"mat_mul_L/{p}")
    big = lambda: (rng.randrange(p), rng.randrange(p))
    for entry in (lambda: L.random(rng), big, lambda: (p - 1, p - 1)):
        for _ in range(30):
            a, b = ([[entry() for _ in range(3)] for _ in range(3)] for _ in range(2))
            got = linalg.mat_mul(L, linalg.mat(a), linalg.mat(b))
            assert got == _handle_mat_mul(L, a, b)
            assert all(type(x) is int and 0 <= x < p for row in got for e in row for x in e)


@pytest.mark.parametrize("p", [3, 5, 31, MERSENNE_31])
def test_det3_over_L_on_native_pairs_matches_the_generic_loop(p):
    k = PrimeField(p)
    L = QuadraticEtale(k, k.nonsquare())
    G = Generic(L)
    rng = random.Random(f"det3_L/{p}")
    corners = [(0, 0), (p - 1, 0), (0, p - 1), (p - 1, p - 1)]
    for entry in (lambda: L.random(rng), lambda: rng.choice(corners)):
        for _ in range(30):
            a = linalg.mat([[entry() for _ in range(3)] for _ in range(3)])
            got = linalg.det3(L, a)
            assert got == linalg.det3(G, a)
            assert all(type(x) is int and 0 <= x < p for x in got)


def test_sweep_L_handle_takes_the_det3_closed_form():
    # the coset sweep's array handle over L has the kind of L, so det3 runs
    # the closed form over L on its (a, b) arrays
    import numpy as np

    from g2real import sweeps

    rng = random.Random("sweep-handles")
    for L in (L25, QuadraticEtale(PrimeField(17), 3)):
        ar = sweeps._LArrays(L.base, L.c)
        assert linalg._quadratic(ar) == (L.base.p, L.c)
        mats = [_matrix(L, rng) for _ in range(40)]
        arrays = np.array(mats, dtype=np.int64).transpose(1, 2, 3, 0)
        got = linalg.det3(ar, [[(arrays[r, s, 0], arrays[r, s, 1]) for s in range(3)] for r in range(3)])
        assert list(zip(*(x.tolist() for x in got))) == [linalg.det3(L, M) for M in mats]


# ---------------------------------------------------------------------------
# cyclic vectors
# ---------------------------------------------------------------------------

def _companion(F, chi):
    c0, c1, c2 = chi
    z, o = F.zero, F.one
    return ((z, z, F.neg(c0)), (o, z, F.neg(c1)), (z, o, F.neg(c2)))


def _check_similarity(F, A):
    K = linalg.krylov_similarity(F, A)
    C = _companion(F, linalg.charpoly3(F, A))
    assert linalg.mat_eq(F, linalg.mat_mul(F, A, K), linalg.mat_mul(F, K, C))
    return K


def test_krylov_similarity_past_the_candidates_over_L():
    # regular, yet none of the ten candidates over L = F_5(g), g^2 = 2 is
    # cyclic; v = (1, 4, 1) is
    L = L25
    A = tuple(tuple(L.element(x) for x in r) for r in ((0, 1, 1), (1, 0, 1), (0, 0, 3)))
    assert linalg.min_equals_char3(L, A)
    assert not any(_cyclic(L, A, v) for v in linalg._cyclic_candidates(L))
    v = tuple(L.element(x) for x in (1, 4, 1))
    assert _cyclic(L, A, v)
    K = _check_similarity(L, A)
    assert not L.is_zero(linalg.det3(L, K))


def test_krylov_similarity_past_the_candidates_over_prime_fields(f3_misses):
    assert len(f3_misses) == 18
    for A in f3_misses:
        _check_similarity(F3, A)
    misses5 = _seven_candidate_misses(F5, zero_rows=1)
    assert len(misses5) >= 12
    for A in misses5:
        _check_similarity(F5, A)


def test_krylov_similarity_keeps_the_first_candidate():
    # a matrix that a candidate serves keeps that candidate's Krylov matrix
    rng = random.Random("first-candidate")
    for F in (F5, F13, L25, Q):
        for _ in range(20):
            A = _regular(F, rng)
            v = next(v for v in linalg._cyclic_candidates(F) if _cyclic(F, A, v))
            assert linalg.krylov_similarity(F, A) == linalg.transpose(_krylov_rows(F, A, v))


def test_krylov_similarity_over_Q_scans_the_curve():
    # regular over Q with none of the seven candidates cyclic: the scan of
    # (1, s, s^2), s = 1, 2, ... finds one
    for e in ((-1, -1, 2, -1, -1, 2, 0, 0, 2), (-1, 0, 0, -1, 2, -1, -1, -1, 2)):
        A = linalg.flat_to_matrix(tuple(map(Fraction, e)), 3, 3)
        assert linalg.min_equals_char3(Q, A)
        assert not any(_cyclic(Q, A, v) for v in linalg._cyclic_candidates(Q))
        K = _check_similarity(Q, A)
        s = K[1][0]
        assert s.denominator == 1 and s >= 1 and K[0][0] == 1 and K[2][0] == s * s


def test_krylov_similarity_scans_the_curve_first_over_a_large_field():
    # every one of the seven candidates lies in an invariant plane of this A
    # (eigenvectors e1 + e2, e1 - e2, e1 + e2 + 2 e3); in lexicographic order
    # F^3 would reach a cyclic vector only after the p vectors (0, 0, z)
    for F in (F5, F13, PrimeField(MERSENNE_31)):
        P = tuple(tuple(map(F.element, r)) for r in ((1, 1, 1), (1, -1, 1), (0, 0, 2)))
        D = tuple(tuple(F.element(i + 1 if i == j else 0) for j in range(3)) for i in range(3))
        A = linalg.mat_mul(F, linalg.mat_mul(F, P, D), linalg.inverse3(F, P))
        assert linalg.min_equals_char3(F, A)
        assert not any(_cyclic(F, A, v) for v in linalg._cyclic_candidates(F))
        K = _check_similarity(F, A)
        s = K[1][0]
        assert K[0][0] == 1 and K[2][0] == F.mul(s, s) and s < 7


@pytest.mark.parametrize("F", [F3, F13, L25, Q], ids=["F3", "F13", "F25", "Q"])
def test_krylov_similarity_rejects_non_regular(F):
    z, o = F.zero, F.one
    two = F.add(o, o)
    for A in (linalg.identity(F, 3), ((o, z, z), (z, o, z), (z, z, two)), ((z, o, z), (z, z, z), (z, z, z))):
        assert not linalg.min_equals_char3(F, A)
        with pytest.raises(ValueError):
            linalg.krylov_similarity(F, A)


# ---------------------------------------------------------------------------
# the regularity test
# ---------------------------------------------------------------------------

def _regular_by_rank(F, A):
    """The definition: I, A, A^2 independent."""
    flat = linalg.vectors_matrix_to_flat
    return linalg.rank(F, (flat(linalg.identity(F, 3)), flat(A), flat(linalg.mat_mul(F, A, A)))) == 3


def _shaped(F, rng):
    """P S P^-1 for an invertible P and S scalar, diag(a, a, b), a Jordan
    block of a beside b, diag(a, a, a) plus a nilpotent of rank 1 or 2, or a
    matrix of seeded entries: regular and non-regular matrices alike."""
    a, b = _entry(F, rng), _entry(F, rng)
    o, z = F.one, F.zero
    S = rng.choice([
        ((a, z, z), (z, a, z), (z, z, a)),
        ((a, z, z), (z, a, z), (z, z, b)),
        ((a, o, z), (z, a, z), (z, z, b)),
        ((a, o, z), (z, a, z), (z, z, a)),
        ((a, o, z), (z, a, o), (z, z, a)),
        _matrix(F, rng),
    ])
    P = _invertible(F, rng)
    return linalg.mat_mul(F, linalg.mat_mul(F, P, S), linalg.inverse3(F, P))


def test_regularity_matches_the_rank_definition_on_every_matrix_over_F3(f3_misses):
    regular = 0
    for e in itertools.product(range(3), repeat=9):
        A = linalg.flat_to_matrix(e, 3, 3)
        want = _regular_by_rank(F3, A)
        assert linalg.min_equals_char3(F3, A) == want, A
        regular += want
    # the others: 3 scalars, the 3 * 2 * 117 conjugates of diag(a, a, b)
    # with a != b, and the 3 * 104 matrices a + N, N^2 = 0 of rank 1
    assert 3**9 - regular == 3 + 3 * 2 * 117 + 3 * 104
    assert all(linalg.min_equals_char3(F3, A) for A in f3_misses)


@pytest.mark.parametrize("F, count", [(L25, 1500), (Q, 600)], ids=["F25", "Q"])
def test_regularity_matches_the_rank_definition_on_seeded_samples(F, count):
    rng = random.Random(f"regular/{F!r}")
    seen = set()
    for _ in range(count):
        A = _shaped(F, rng)
        want = _regular_by_rank(F, A)
        assert linalg.min_equals_char3(F, A) == want, A
        seen.add(want)
    assert seen == {True, False}


def test_krylov_similarity_scans_the_candidates_once(f3_misses, monkeypatch):
    # past a miss it checks regularity by rank, not by the candidates again
    calls = []
    candidates = linalg._cyclic_candidates

    def counted(F):
        calls.append(F)
        return candidates(F)

    monkeypatch.setattr(linalg, "_cyclic_candidates", counted)
    for A in f3_misses[:3]:
        calls.clear()
        _check_similarity(F3, A)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# the intertwiner space
# ---------------------------------------------------------------------------

def _reference_sylvester(F, left, right):
    """The 9x9 elimination solve_sylvester_space ran before the Krylov form."""
    n = len(left)
    rows = []
    for i in range(n):
        for j in range(n):
            coeff = [F.zero] * (n * n)
            for k in range(n):
                coeff[k * n + j] = F.add(coeff[k * n + j], left[i][k])
                coeff[i * n + k] = F.sub(coeff[i * n + k], right[k][j])
            rows.append(tuple(coeff))
    basis = linalg.nullspace(F, tuple(rows))
    return tuple(linalg.flat_to_matrix(v, n, n) for v in basis)


def _free_columns(F, space):
    """The free columns of the 9x9 system: the last nonzero coordinate of
    each basis matrix, where it has its 1."""
    flat = [linalg.vectors_matrix_to_flat(X) for X in space]
    return tuple(max(i for i, x in enumerate(v) if not F.is_zero(x)) for v in flat)


def _self_dual(F, rng):
    """A regular det-1 matrix whose inverse has the same characteristic
    polynomial: P C P^-1 for C the companion of X^3 + c X^2 - c X - 1."""
    c = _entry(F, rng)
    C = _companion(F, (F.neg(F.one), F.neg(c), c))
    P = _invertible(F, rng)
    return linalg.mat_mul(F, linalg.mat_mul(F, P, C), linalg.inverse3(F, P))


def _pairs(F, rng, count):
    for i in range(count):
        kind = i % 3
        if kind == 0:
            A = _regular(F, rng)
            yield linalg.transpose(A), A
        elif kind == 1:
            A = _self_dual(F, rng)
            yield linalg.inverse3(F, A), A
        else:
            A, P = _regular(F, rng), _invertible(F, rng)
            yield linalg.mat_mul(F, linalg.mat_mul(F, P, A), linalg.inverse3(F, P)), A


SYLVESTER_FIELDS = [(F3, 300), (F5, 400), (F13, 400), (F31, 400), (L25, 300), (Q, 240)]


def test_sylvester_space_matches_the_9x9_elimination(f3_misses):
    checked, other_free = 0, 0
    cases = []
    for F, count in SYLVESTER_FIELDS:
        rng = random.Random(f"sylvester/{F!r}")
        cases += [(F, left, right) for left, right in _pairs(F, rng, count)]
    rng = random.Random("sylvester/misses")
    for A in f3_misses:
        P = _invertible(F3, rng)
        cases.append((F3, linalg.transpose(A), A))
        cases.append((F3, A, linalg.mat_mul(F3, linalg.mat_mul(F3, P, A), linalg.inverse3(F3, P))))
    for F, left, right in cases:
        got = linalg.solve_sylvester_space(F, left, right)
        assert got == _reference_sylvester(F, left, right)
        checked += 1
        other_free += _free_columns(F, got) != (6, 7, 8)
    assert checked >= 2000
    # bases whose free columns are not the last three are covered too
    assert other_free >= 20, other_free


def test_sylvester_space_rejects_sides_not_similar_and_regular():
    rng = random.Random("sylvester/raise")
    for F in (F3, F13, L25, Q):
        z, o = F.zero, F.one
        two = F.add(o, o)
        A = _regular(F, rng)
        shifted = linalg.mat_add(F, A, linalg.identity(F, 3))
        with pytest.raises(ValueError, match="^the sides are not similar$"):
            linalg.solve_sylvester_space(F, A, shifted)
        N = ((o, z, z), (z, o, z), (z, z, two))
        with pytest.raises(ValueError):
            linalg.solve_sylvester_space(F, N, N)
        I = linalg.identity(F, 3)
        with pytest.raises(ValueError):
            linalg.solve_sylvester_space(F, I, I)


# ---------------------------------------------------------------------------
# the norm form of k[A]
# ---------------------------------------------------------------------------

def _det_of_polynomial(F, A, c):
    G = Generic(F)
    I, A2 = linalg.identity(G, 3), linalg.mat_mul(G, A, A)
    return linalg.det3(G, linalg.combination(G, c, (I, A, A2)))


def _special_matrices(F):
    z, o = F.zero, F.one
    two = F.add(o, o)
    return [
        linalg.scalar_mat(F, two, linalg.identity(F, 3)),  # scalar
        ((o, z, z), (z, o, z), (z, z, two)),  # non-regular, semisimple
        ((z, o, z), (z, z, z), (z, z, z)),  # non-regular nilpotent
        ((z, o, z), (z, z, o), (z, z, z)),  # regular nilpotent
        ((two, o, z), (z, two, o), (z, z, two)),  # triple root
        linalg.zeros(F, 3, 3),
    ]


def test_norm_form_is_the_determinant_on_every_coefficient():
    rng = random.Random("norm/F5")
    for A in _special_matrices(F5) + [_matrix(F5, rng) for _ in range(20)]:
        N = linalg.norm_form3(F5, linalg.charpoly3(F5, A))
        for c in itertools.product(range(5), repeat=3):
            assert N(c) == _det_of_polynomial(F5, A, c)


def test_norm_form_over_L():
    # a seeded sample of 800 of the 15,625 c in L^3 for each matrix
    L = L25
    rng = random.Random("norm/F25")
    everything = list(itertools.product(list(L.elements()), repeat=3))
    for A in _special_matrices(L) + [_matrix(L, rng) for _ in range(6)]:
        N = linalg.norm_form3(L, linalg.charpoly3(L, A))
        for c in rng.sample(everything, 800):
            assert L.eq(N(c), _det_of_polynomial(L, A, c))


def test_norm_form_on_the_rational_grid():
    rng = random.Random("norm/Q")
    grid = [Fraction(x) for x in (0, 1, -1, 2, -2, 3, -3)]
    for A in _special_matrices(Q) + [_matrix(Q, rng) for _ in range(4)]:
        N = linalg.norm_form3(Q, linalg.charpoly3(Q, A))
        for c in itertools.product(grid, repeat=3):
            assert N(c) == _det_of_polynomial(Q, A, c)


class SympyRing:
    """Polynomials in sympy symbols, as a ring handle for the generic loops."""

    kind = "sympy"

    def __init__(self, sympy):
        self.s = sympy
        self.zero, self.one = sympy.Integer(0), sympy.Integer(1)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def element(self, n):
        return self.s.Integer(n)


def test_closed_forms_as_polynomial_identities():
    sympy = pytest.importorskip("sympy")
    R = SympyRing(sympy)
    entries = sympy.symbols("a0:9")
    x, y, z, X = sympy.symbols("x y z X")
    A = linalg.flat_to_matrix(entries, 3, 3)
    M = sympy.Matrix(A)
    expand = sympy.expand
    assert expand(linalg.det3(R, A) - M.det()) == 0
    c0, c1, c2 = linalg.charpoly3(R, A)
    assert expand(X**3 + c2 * X**2 + c1 * X + c0 - M.charpoly(X).as_expr()) == 0
    adj = sympy.Matrix(linalg.adjugate3(R, A))
    assert (adj - M.adjugate()).expand() == sympy.zeros(3, 3)
    N = linalg.norm_form3(R, (c0, c1, c2))((x, y, z))
    assert expand(N - (x * sympy.eye(3) + y * M + z * M**2).det()) == 0


# ---------------------------------------------------------------------------
# lazy coefficient vectors over large fields
# ---------------------------------------------------------------------------

def test_lex_vectors_read_the_coefficients_lazily():
    drawn = []

    def coeffs():
        for x in range(MERSENNE_31):
            drawn.append(x)
            yield x

    first = list(itertools.islice(linalg.lex_vectors(3, coeffs), 5))
    assert first == [(0, 0, x) for x in range(5)]
    assert len(drawn) == 7  # c_0 = 0, c_1 = 0, then c_2 = 0..4
    assert list(linalg.lex_vectors(2, lambda: range(3), ("h",))) == [
        ("h", a, b) for a in range(3) for b in range(3)
    ]


def _peak_kib(run):
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def test_decisions_over_large_fields_stay_small():
    # the decisions at q = 10007 (SU) and p = 2^31 - 1 (SL3) build their
    # norm preimages, so a budget of 30 decides them, and their short
    # non-cube scans list no coefficient set
    from g2real.automorphisms import random_sl3, random_su
    from g2real.reality import reality_sl3, reality_su

    rng = random.Random("large-fields")
    k = PrimeField(10007)
    L = QuadraticEtale(k, 5)  # 5 is not a square mod 10007
    H = (1, 1, 1)
    M = PrimeField(MERSENNE_31)
    reports = []
    for _ in range(3):
        A = random_su(L, H, rng)
        assert _peak_kib(lambda: reports.append(reality_su(L, A, H, budget=30))) < 1024
        B = random_sl3(M, rng)
        assert _peak_kib(lambda: reports.append(reality_sl3(M, B, budget=30))) < 1024
    assert all(r.verdict in ("real", "not_real") for r in reports)
