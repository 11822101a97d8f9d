import random
from fractions import Fraction

import pytest

from g2real import linalg
from g2real.fields import (
    CubicAlgebra,
    FieldError,
    PrimeField,
    QuadraticEtale,
    RationalField,
    cubic_is_irreducible,
    norm_one_elements,
)
from g2real.tori import (
    trace_form_gram,
    trace_hermitian_space,
    unit_trace_hermitian_space,
)

k5 = PrimeField(5)
k7 = PrimeField(7)


@pytest.fixture(scope="module")
def field_E():
    L = QuadraticEtale(k5, 2)
    return CubicAlgebra(L, (1, 1, 0))  # X^3 + X + 1, irreducible over F5


@pytest.fixture(scope="module")
def split_E():
    L = QuadraticEtale(k5, 2)
    return CubicAlgebra(L, (2, -2, -1))  # (X - 1)(X^2 - 2)


def trace_form(E, x, y):
    """The trace hermitian form tr_{E/L}(x sigma(y)) of E = F.L."""
    return E.trace(E.mul(x, E.sigma(y)))


def is_regular(E, a):
    """Whether 1, a, a^2 span E over the field L."""
    return not E.L.is_zero(linalg.det3(E.L, (E.one, a, E.mul(a, a))))


def norm_one_torus(E):
    """T^1 = {x : x sigma(x) = 1, N_{E/L}(x) = 1}."""
    return [x for x in norm_one_elements(E) if E.L.eq(E.norm(x), E.L.one)]


# ---------------------------------------------------------------------------
# the trace hermitian form on E
# ---------------------------------------------------------------------------

def test_form_at_one_is_the_trace(field_E):
    E = field_E
    assert E.L.eq(trace_form(E, E.one, E.one), E.L.embed(3))


def test_form_is_hermitian(field_E):
    E = field_E
    rng = random.Random(1)
    for _ in range(300):
        x, y = E.random(rng), E.random(rng)
        lhs = trace_form(E, y, x)
        rhs = E.L.sigma(trace_form(E, x, y))
        assert E.L.eq(lhs, rhs)
        # L-linearity in the first slot
        lam = E.L.random(rng)
        assert E.L.eq(
            trace_form(E, E.scalar_mul(lam, x), y),
            E.L.mul(lam, trace_form(E, x, y)),
        )


def test_form_invariance_under_full_torus_exhaustive(field_E):
    # h(ax, ay) = h(x, y) for every a with a sigma(a) = 1, all pairs from a
    # fixed small set of vectors
    E = field_E
    rng = random.Random(2)
    vectors = [E.random(rng) for _ in range(4)]
    for a in norm_one_elements(E):
        for x in vectors:
            for y in vectors:
                lhs = trace_form(E, E.mul(a, x), E.mul(a, y))
                assert E.L.eq(lhs, trace_form(E, x, y))


def test_form_with_nontrivial_unit(field_E):
    # twisting by a sigma-fixed unit u keeps tr(u x sigma(y)) hermitian
    E = field_E
    u = E.add(E.one, E.gen)  # 1 + t is sigma-fixed (k-coefficients)
    rng = random.Random(3)
    for _ in range(100):
        x, y = E.random(rng), E.random(rng)
        assert E.L.eq(
            trace_form(E, E.mul(u, y), x),
            E.L.sigma(trace_form(E, E.mul(u, x), y)),
        )


# ---------------------------------------------------------------------------
# norm-one elements
# ---------------------------------------------------------------------------

def test_torus_one_contains_identity(field_E):
    E = field_E
    assert any(E.eq(x, E.one) for x in norm_one_torus(E))


def test_torus_one_count_is_q_squared_minus_q_plus_one(field_E):
    # the norm-one elements of E = F_{5^6} with N_{E/L} = 1: 21 = q^2 - q + 1
    # for q = 5
    E = field_E
    q = 5
    assert len(norm_one_torus(E)) == q * q - q + 1 == 21


def test_torus_one_elements_act_unitarily(field_E):
    # multiplication by an element of T^1 is in SU of the trace hermitian
    # form: tM G sigma(M) = G for its (non-diagonal) Gram G, and det M = 1
    E = field_E
    L = E.L
    basis = (E.one, E.gen, E.mul(E.gen, E.gen))
    G = linalg.mat([[trace_form(E, x, y) for y in basis] for x in basis])
    for a in norm_one_torus(E):
        M = E.mult_matrix(a)
        lhs = linalg.mat_mul(
            L, linalg.mat_mul(L, linalg.transpose(M), G), linalg.map_entries(L.sigma, M)
        )
        assert linalg.mat_eq(L, lhs, G)
        assert L.eq(linalg.det3(L, M), L.one)


# ---------------------------------------------------------------------------
# multiplication matrices
# ---------------------------------------------------------------------------

def test_left_homothety_identity(field_E):
    E = field_E
    assert linalg.mat_eq(E.L, E.mult_matrix(E.one), linalg.identity(E.L, 3))


def test_left_homothety_of_generator_is_companion_shaped():
    L = QuadraticEtale(k7, 3)
    c = 4
    E = CubicAlgebra(L, (-c, 0, 0))  # X^3 - 4, irreducible over F7
    M = E.mult_matrix(E.gen)
    chi = linalg.charpoly3(L, M)
    assert L.eq(chi[0], L.embed(k7.neg(c)))
    assert L.is_zero(chi[1]) and L.is_zero(chi[2])
    # companion shape: first column is e2
    assert L.eq(M[1][0], L.one) and L.is_zero(M[0][0]) and L.is_zero(M[2][0])


def test_left_homothety_multiplicative(field_E):
    E = field_E
    rng = random.Random(4)
    for _ in range(300):
        a, b = E.random(rng), E.random(rng)
        lhs = linalg.mat_mul(E.L, E.mult_matrix(a), E.mult_matrix(b))
        assert linalg.mat_eq(E.L, lhs, E.mult_matrix(E.mul(a, b)))


def test_characteristic_polynomial_is_minimal_for_regular(field_E):
    E = field_E
    rng = random.Random(5)
    a = E.random(rng)
    while not is_regular(E, a):
        a = E.random(rng)
    chi = linalg.charpoly3(E.L, E.mult_matrix(a))
    # a satisfies its characteristic polynomial, and being regular no quadratic
    val = E.add(
        E.add(E.pow(a, 3), E.scalar_mul(chi[2], E.mul(a, a))),
        E.add(E.scalar_mul(chi[1], a), E.scalar_mul(chi[0], E.one)),
    )
    assert E.is_zero(val)


# ---------------------------------------------------------------------------
# indecomposability
# ---------------------------------------------------------------------------

def test_field_torus_is_indecomposable(field_E):
    # E is a field, so every regular element of T^1 has an irreducible
    # characteristic polynomial over L
    E = field_E
    regular = [a for a in norm_one_torus(E) if is_regular(E, a)]
    assert regular
    for a in regular:
        assert cubic_is_irreducible(E.L, linalg.charpoly3(E.L, E.mult_matrix(a)))


def test_split_torus_is_decomposable(split_E):
    E = split_E
    a = next(x for x in norm_one_torus(E) if is_regular(E, x))
    assert not cubic_is_irreducible(E.L, linalg.charpoly3(E.L, E.mult_matrix(a)))


def test_orbit_of_any_vector_spans_for_field_E(field_E):
    # E is irreducible under the cyclic group of a regular a: v, av, a^2 v
    # have rank 3
    E = field_E
    L = E.L
    rng = random.Random(6)
    a = E.random(rng)
    while not is_regular(E, a):
        a = E.random(rng)
    for _ in range(20):
        v = E.random(rng)
        if E.is_zero(v):
            continue
        rows = (v, E.mul(a, v), E.mul(a, E.mul(a, v)))
        assert not L.is_zero(linalg.det3(L, rows))


def test_split_E_has_invariant_nondegenerate_line(split_E):
    # the idempotent component span is invariant under multiplication and the
    # form restricted to it is nondegenerate
    E = split_E
    # idempotent: (X^2 - 2)/(1 - 2) evaluated structure; find by scan
    eps = None
    for x in E.fixed_elements():
        if E.eq(E.mul(x, x), x) and not E.is_zero(x) and not E.eq(x, E.one):
            eps = x
            break
    assert eps is not None
    h = trace_form(E, eps, eps)
    assert E.L.is_unit(h)
    for a in list(norm_one_elements(E))[:20]:
        prod = E.mul(a, eps)
        # the orbit stays in the L-line through eps: prod = (prod component) eps
        assert E.eq(E.mul(prod, eps), prod)


def test_centralizer_verification(field_E):
    # the centralizer of the multiplication matrix of a regular a inside the
    # 3x3 matrices over L is exactly the image of E (dimension 3)
    E = field_E
    L = E.L
    rng = random.Random(7)
    a = E.random(rng)
    while not is_regular(E, a):
        a = E.random(rng)
    m = E.mult_matrix(a)
    space = linalg.solve_sylvester_space(L, m, m)
    assert len(space) == 3
    img = [linalg.vectors_matrix_to_flat(E.mult_matrix(x)) for x in (E.one, a, E.mul(a, a))]
    combined = tuple(img) + tuple(linalg.vectors_matrix_to_flat(s) for s in space)
    assert linalg.rank(L, linalg.mat(combined)) == 3


# ---------------------------------------------------------------------------
# trace hermitian spaces
# ---------------------------------------------------------------------------

def test_trace_gram_newton_sums():
    # F = Q[X]/(X^3 - 3X - 1): power sums 3, 0, 6, 3, 18
    Q = RationalField()
    G = trace_form_gram(Q, (-1, -3, 0))
    expect = ((3, 0, 6), (0, 6, 3), (6, 3, 18))
    for i in range(3):
        for j in range(3):
            assert G[i][j] == Fraction(expect[i][j])


def test_totally_real_cubic_has_exact_1_2_2_basis():
    # a verified orthogonal basis of Q[X]/(X^3 - 3X - 1) with trace-form
    # diagonal exactly <1, 2, 2>: f1 = (1 + t - t^2)/3, f2 = (4 + t - t^2)/3,
    # f3 = (-2 + t + t^2)/3.  The cubic is totally real, so the octonion
    # algebra built from it over L = Q(i) is a division algebra.
    Q = RationalField()
    G = trace_form_gram(Q, (-1, -3, 0))
    basis = [
        tuple(Fraction(c) for c in row)
        for row in (("1/3", "1/3", "-1/3"), ("4/3", "1/3", "-1/3"), ("-2/3", "1/3", "1/3"))
    ]
    diag = (1, 2, 2)
    for i in range(3):
        for j in range(3):
            got = linalg.bilinear_eval(Q, G, basis[i], basis[j])
            want = Fraction(diag[i]) if i == j else Fraction(0)
            assert got == want


def test_trace_hermitian_space_discriminant_trivial_over_f7():
    L = QuadraticEtale(k7, 3)
    diag, space = trace_hermitian_space(k7, (-4, 0, 0), L)
    assert space.diag == diag
    d = k7.mul(diag[0], k7.mul(diag[1], diag[2]))
    # the discriminant is a norm from L (here: any nonzero value is)
    assert not k7.is_zero(d)


def test_trace_gram_nondegenerate_random_cubics():
    rng = random.Random(8)
    L = QuadraticEtale(k5, 2)
    found = 0
    while found < 10:
        chi = (k5.random(rng), k5.random(rng), k5.random(rng))
        G = trace_form_gram(k5, chi)
        if k5.is_zero(linalg.det3(k5, G)):
            continue  # non-separable cubic
        diag, space = trace_hermitian_space(k5, chi, L)
        assert all(not k5.is_zero(d) for d in diag)
        found += 1


def test_trace_hermitian_degenerate_rejected():
    L = QuadraticEtale(k7, 3)
    with pytest.raises(FieldError):
        trace_hermitian_space(k7, (-8, 12, -6), L)  # (X - 2)^3 is inseparable


def test_unit_trace_hermitian_space():
    k17 = PrimeField(17)
    L = QuadraticEtale(k17, 3)
    space = unit_trace_hermitian_space(k17, (1, 1, 0), L)
    assert space.diag == (k17.one, k17.one, k17.one)
