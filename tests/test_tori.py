import random
from fractions import Fraction

import pytest

from g2real import linalg
from g2real.automorphisms import in_su
from g2real.fields import (
    CubicAlgebra,
    FieldError,
    PrimeField,
    QuadraticEtale,
    RationalField,
    norm_one_elements,
)
from g2real.tori import (
    TOTALLY_REAL_CUBIC,
    centralizer_matches_torus_algebra,
    element_order,
    is_indecomposable,
    is_regular,
    left_homothety,
    orbit_spans_E,
    torus_invariant_form,
    torus_one_elements,
    torus_spec,
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


# ---------------------------------------------------------------------------
# the invariant hermitian form
# ---------------------------------------------------------------------------

def test_form_at_one_is_the_trace(field_E):
    E = field_E
    spec = torus_spec(E, E.one)
    assert E.L.eq(torus_invariant_form(spec, E.one, E.one), E.L.embed(3))


def test_form_is_hermitian(field_E):
    E = field_E
    spec = torus_spec(E, E.one)
    rng = random.Random(1)
    for _ in range(300):
        x, y = E.random(rng), E.random(rng)
        lhs = torus_invariant_form(spec, y, x)
        rhs = E.L.sigma(torus_invariant_form(spec, x, y))
        assert E.L.eq(lhs, rhs)
        # L-linearity in the first slot
        lam = E.L.random(rng)
        assert E.L.eq(
            torus_invariant_form(spec, E.scalar_mul(lam, x), y),
            E.L.mul(lam, torus_invariant_form(spec, x, y)),
        )


def test_form_invariance_under_full_torus_exhaustive(field_E):
    # h(ax, ay) = h(x, y) for every a with a sigma(a) = 1, all pairs from a
    # fixed small set of vectors
    E = field_E
    spec = torus_spec(E, E.one)
    rng = random.Random(2)
    vectors = [E.random(rng) for _ in range(4)]
    for a in norm_one_elements(E):
        for x in vectors:
            for y in vectors:
                lhs = torus_invariant_form(spec, E.mul(a, x), E.mul(a, y))
                assert E.L.eq(lhs, torus_invariant_form(spec, x, y))


def test_form_with_nontrivial_unit(field_E):
    E = field_E
    u = E.add(E.one, E.gen)  # 1 + t is sigma-fixed (k-coefficients)
    spec = torus_spec(E, u)
    rng = random.Random(3)
    for _ in range(100):
        x, y = E.random(rng), E.random(rng)
        assert E.L.eq(
            torus_invariant_form(spec, y, x),
            E.L.sigma(torus_invariant_form(spec, x, y)),
        )


def test_torus_spec_rejects_bad_units(field_E):
    E = field_E
    with pytest.raises(FieldError):
        torus_spec(E, E.scalar_mul(E.L.gen(), E.one))  # not sigma-fixed
    with pytest.raises(FieldError):
        torus_spec(E, E.zero)


# ---------------------------------------------------------------------------
# torus element enumeration
# ---------------------------------------------------------------------------

def test_torus_one_contains_identity(field_E):
    E = field_E
    spec = torus_spec(E, E.one)
    assert any(E.eq(x, E.one) for x in torus_one_elements(spec))


def test_torus_one_count_is_q_squared_minus_q_plus_one(field_E):
    # enumeration oracle: 21 elements for q = 5, matching the cyclic-group
    # index (q^6 - 1)/lcm-structure count q^2 - q + 1
    E = field_E
    spec = torus_spec(E, E.one)
    count = sum(1 for _ in torus_one_elements(spec))
    q = 5
    assert count == q * q - q + 1 == 21


def test_torus_one_elements_act_unitarily(field_E):
    E = field_E
    spec = torus_spec(E, E.one)
    gram = [
        [torus_invariant_form(spec, x, y) for y in (E.one, E.gen, E.mul(E.gen, E.gen))]
        for x in (E.one, E.gen, E.mul(E.gen, E.gen))
    ]
    # the form Gram here is diagonal? not necessarily; use the general
    # unitarity condition tM G sigma(M) = G
    L = E.L
    G = linalg.mat(gram)
    for a in torus_one_elements(spec):
        M = left_homothety(E, a)
        lhs = linalg.mat_mul(
            L, linalg.mat_mul(L, linalg.transpose(M), G), linalg.map_entries(L.sigma, M)
        )
        assert linalg.mat_eq(L, lhs, G)
        assert L.eq(linalg.det3(L, M), L.one)


# ---------------------------------------------------------------------------
# left homothety
# ---------------------------------------------------------------------------

def test_left_homothety_identity(field_E):
    E = field_E
    assert linalg.mat_eq(E.L, left_homothety(E, E.one), linalg.identity(E.L, 3))


def test_left_homothety_of_generator_is_companion_shaped():
    L = QuadraticEtale(k7, 3)
    c = 4
    E = CubicAlgebra(L, (-c, 0, 0))  # X^3 - 4, irreducible over F7
    M = left_homothety(E, E.gen)
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
        lhs = linalg.mat_mul(E.L, left_homothety(E, a), left_homothety(E, b))
        assert linalg.mat_eq(E.L, lhs, left_homothety(E, E.mul(a, b)))


def test_characteristic_polynomial_is_minimal_for_regular(field_E):
    E = field_E
    rng = random.Random(5)
    a = E.random(rng)
    while not is_regular(E, a):
        a = E.random(rng)
    chi = linalg.charpoly3(E.L, left_homothety(E, a))
    # a satisfies its characteristic polynomial and no quadratic
    val = E.add(
        E.add(E.pow(a, 3), E.scalar_mul(chi[2], E.mul(a, a))),
        E.add(E.scalar_mul(chi[1], a), E.scalar_mul(chi[0], E.one)),
    )
    assert E.is_zero(val)


# ---------------------------------------------------------------------------
# indecomposability
# ---------------------------------------------------------------------------

def test_field_torus_is_indecomposable(field_E):
    E = field_E
    spec = torus_spec(E, E.one)
    gen = None
    t1 = list(torus_one_elements(spec))
    for a in t1:
        if is_regular(E, a) and element_order(E, a) == len(t1):
            gen = a
            break
    assert gen is not None
    assert is_indecomposable(spec, gen)


def test_split_torus_is_decomposable(split_E):
    E = split_E
    spec = torus_spec(E, E.one)
    a = next(x for x in torus_one_elements(spec) if is_regular(E, x))
    assert not is_indecomposable(spec, a)


def test_non_regular_element_rejected(field_E):
    E = field_E
    spec = torus_spec(E, E.one)
    with pytest.raises(FieldError):
        is_indecomposable(spec, E.embed(E.L.one))


def test_orbit_of_any_vector_spans_for_field_E(field_E):
    E = field_E
    rng = random.Random(6)
    a = E.random(rng)
    while not is_regular(E, a):
        a = E.random(rng)
    for _ in range(20):
        v = E.random(rng)
        if E.is_zero(v):
            continue
        assert orbit_spans_E(E, a, v)


def test_split_E_has_invariant_nondegenerate_line(split_E):
    # the idempotent component span is invariant under multiplication and the
    # form restricted to it is nondegenerate
    E = split_E
    spec = torus_spec(E, E.one)
    # idempotent: (X^2 - 2)/(1 - 2) evaluated structure; find by scan
    eps = None
    for x in E.fixed_elements():
        if E.eq(E.mul(x, x), x) and not E.is_zero(x) and not E.eq(x, E.one):
            eps = x
            break
    assert eps is not None
    h = torus_invariant_form(spec, eps, eps)
    assert E.L.is_unit(h)
    for a in list(norm_one_elements(E))[:20]:
        prod = E.mul(a, eps)
        # the orbit stays in the L-line through eps: prod = (prod component) eps
        assert E.eq(E.mul(prod, eps), prod)


def test_centralizer_verification(field_E):
    E = field_E
    rng = random.Random(7)
    a = E.random(rng)
    while not is_regular(E, a):
        a = E.random(rng)
    assert centralizer_matches_torus_algebra(E, a)


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
    # the carried orthogonal basis of Q[X]/(X^3 - 3X - 1) realizes the trace
    # form diagonal <1, 2, 2> on the nose
    Q = RationalField()
    G = trace_form_gram(Q, TOTALLY_REAL_CUBIC["chi"])
    basis = [
        tuple(Fraction(c) for c in row) for row in TOTALLY_REAL_CUBIC["orthogonal_basis"]
    ]
    for i in range(3):
        for j in range(3):
            got = linalg.bilinear_eval(Q, G, basis[i], basis[j])
            want = Fraction(TOTALLY_REAL_CUBIC["diag"][i]) if i == j else Fraction(0)
            assert got == want


def test_trace_hermitian_space_discriminant_trivial_over_f7():
    L = QuadraticEtale(k7, 3)
    data, space = trace_hermitian_space(k7, (-4, 0, 0), L)
    assert data.disc_trivial
    d = k7.mul(data.diag[0], k7.mul(data.diag[1], data.diag[2]))
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
        data, space = trace_hermitian_space(k5, chi, L)
        assert all(not k5.is_zero(d) for d in data.diag)
        # Gram of the diagonalizing basis is symmetric by construction
        found += 1


def test_trace_hermitian_degenerate_rejected():
    L = QuadraticEtale(k7, 3)
    with pytest.raises(FieldError):
        trace_hermitian_space(k7, (-8, 12, -6), L)  # (X - 2)^3 is inseparable


def test_unit_trace_hermitian_space():
    k17 = PrimeField(17)
    L = QuadraticEtale(k17, 3)
    data, space = unit_trace_hermitian_space(k17, (1, 1, 0), L)
    assert space.diag == (k17.one, k17.one, k17.one)


def test_torus_spec_serialization(field_E):
    from g2real.tori import torus_spec_json

    E = field_E
    spec = torus_spec(E, E.add(E.one, E.gen))
    js = torus_spec_json(spec)
    assert js["field"] == "5"
    assert js["chi"] == ["1", "1", "0"]
    assert "u" in js and js["L"] == {"c": "2"}
