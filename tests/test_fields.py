import itertools
import random
from fractions import Fraction

import pytest

from g2real import linalg
from g2real.fields import (
    CubicAlgebra,
    EnumerationError,
    FieldError,
    PrimeField,
    QuadraticEtale,
    RationalField,
    cubic_is_irreducible,
    norm_one_elements,
    norm_quotient_report,
)

k7 = PrimeField(7)
k5 = PrimeField(5)


# ---------------------------------------------------------------------------
# ground fields
# ---------------------------------------------------------------------------

def test_prime_field_rejects_bad_moduli():
    with pytest.raises(FieldError):
        PrimeField(6)
    with pytest.raises(FieldError):
        PrimeField(2)
    with pytest.raises(FieldError):
        PrimeField(2**31 + 11)


def test_prime_field_arithmetic():
    assert k7.mul(3, 5) == 1
    assert k7.inv(3) == 5
    assert k7.sqrt(2) in (3, 4)
    with pytest.raises(FieldError):
        k7.sqrt(3)


@pytest.mark.parametrize("p", [7, 31, 2**31 - 1])
def test_prime_field_inverse_is_the_fermat_power(p):
    """inv agrees with a^(p - 2) on every unit of F_7 and F_31 and on a seeded
    sample at 2^31 - 1, reduces its argument first, and rejects 0."""
    F = PrimeField(p)
    units = range(1, p) if p < 100 else random.Random(5).sample(range(1, p), 200)
    for a in units:
        assert F.inv(a) == pow(a, p - 2, p)
        assert F.inv(a + 3 * p) == F.inv(a - p) == F.inv(a)
    for zero in (0, p, -2 * p):
        with pytest.raises(ZeroDivisionError):
            F.inv(zero)


def test_tonelli_shanks_large_prime():
    p = PrimeField(2**31 - 1)
    for a in (2, 5, 1234567):
        sq = p.mul(a, a)
        r = p.sqrt(sq)
        assert p.mul(r, r) == sq


def test_rationals_lowest_terms():
    Q = RationalField()
    x = Q.div(Q.element(6), Q.element(4))
    assert Q.to_text(x) == "3/2"
    assert Q.is_square(Q.element(4) / 9)
    assert not Q.is_square(Q.element(-4))


# ---------------------------------------------------------------------------
# quadratic etale algebras
# ---------------------------------------------------------------------------

def test_sigma_field_case():
    L = QuadraticEtale(k7, 3)
    assert L.sigma((1, 2)) == (1, 5)


def test_sigma_split_case_swaps():
    L = QuadraticEtale(k7)
    assert L.sigma((4, 1)) == (1, 4)


def test_sigma_is_an_involution():
    L = QuadraticEtale(k7, 3)
    rng = random.Random(1)
    for _ in range(100):
        x = L.random(rng)
        assert L.eq(L.sigma(L.sigma(x)), x)


def test_sigma_fixed_set_is_exactly_k():
    for L in (QuadraticEtale(k7, 3), QuadraticEtale(k7)):
        fixed = [x for x in L.elements() if L.eq(L.sigma(x), x)]
        assert len(fixed) == 7
        assert all(L.in_base(x) for x in fixed)


def test_sigma_is_multiplicative():
    L = QuadraticEtale(k5, 2)
    rng = random.Random(2)
    for _ in range(100):
        x, y = L.random(rng), L.random(rng)
        assert L.eq(L.sigma(L.mul(x, y)), L.mul(L.sigma(x), L.sigma(y)))


def test_norm_and_trace():
    L = QuadraticEtale(k7, 3)
    assert L.norm((1, 2)) == 3  # 1 - 4*3 = -11 = 3 mod 7
    assert L.trace((1, 2)) == 2
    Ls = QuadraticEtale(k7)
    assert Ls.norm((3, 4)) == 5  # split norm is the product
    assert L.norm(L.one) == 1


def test_norm_is_multiplicative_and_onto():
    L = QuadraticEtale(k7, 3)
    rng = random.Random(3)
    for _ in range(100):
        x, y = L.random(rng), L.random(rng)
        assert k7.eq(L.norm(L.mul(x, y)), k7.mul(L.norm(x), L.norm(y)))
    image = {L.norm(x) for x in L.elements() if L.is_unit(x)}
    assert image == set(range(1, 7))


def test_split_algebra_needs_square_c():
    with pytest.raises(FieldError):
        QuadraticEtale(k7, 2)  # 2 = 3^2 mod 7 is a square
    QuadraticEtale(k7, 3)  # fine


# ---------------------------------------------------------------------------
# cubic algebras
# ---------------------------------------------------------------------------

def test_cubic_norm_of_generator_is_constant_term():
    # E = L[t]/(t^3 - a) has N(t) = a
    L = QuadraticEtale(k7, 3)
    E = CubicAlgebra(L, (-4, 0, 0))
    assert L.eq(E.norm(E.gen), L.embed(4))


def test_cubic_norm_of_scalar_is_cube():
    L = QuadraticEtale(k5, 2)
    E = CubicAlgebra(L, (1, 1, 0))
    rng = random.Random(4)
    for _ in range(20):
        lam = L.random(rng)
        assert L.eq(E.norm(E.embed(lam)), L.pow(lam, 3))


def test_cubic_norm_multiplicative_on_units():
    L = QuadraticEtale(k5, 2)
    E = CubicAlgebra(L, (1, 1, 0))
    rng = random.Random(5)
    count = 0
    while count < 1000:
        x, y = E.random(rng), E.random(rng)
        if not (E.is_unit(x) and E.is_unit(y)):
            continue
        assert L.eq(E.norm(E.mul(x, y)), L.mul(E.norm(x), E.norm(y)))
        count += 1


def test_cubic_norm_surjective_on_units():
    # exhaustive over E = F_{5^6}: the norm image on units is all of L*
    L = QuadraticEtale(k5, 2)
    E = CubicAlgebra(L, (1, 1, 0))
    image = set()
    for x in E.elements():
        if E.is_unit(x):
            image.add(E.norm(x))
    units = {x for x in L.elements() if L.is_unit(x)}
    assert image == units


def test_sigma_E_is_an_involution_extending_sigma():
    L = QuadraticEtale(k5, 2)
    E = CubicAlgebra(L, (1, 1, 0))
    rng = random.Random(6)
    for _ in range(100):
        x, y = E.random(rng), E.random(rng)
        assert E.eq(E.sigma(E.sigma(x)), x)
        assert E.eq(E.sigma(E.mul(x, y)), E.mul(E.sigma(x), E.sigma(y)))
    lam = L.random(rng)
    assert E.eq(E.sigma(E.embed(lam)), E.embed(L.sigma(lam)))


def test_sigma_E_fixed_set_is_the_k_coefficient_subalgebra():
    L = QuadraticEtale(k5, 2)
    E = CubicAlgebra(L, (1, 1, 0))
    fixed = sum(1 for x in E.elements() if E.eq(E.sigma(x), x))
    assert fixed == 5**3


def test_cubic_is_irreducible_examples():
    # cubes mod 7 are {1, 6}: X^3 - 4 has no root
    assert cubic_is_irreducible(k7, (-4, 0, 0))
    assert not cubic_is_irreducible(k7, (-1, 0, 0))  # root 1
    # (X - 2)^3 = X^3 - 6X^2 + 12X - 8
    assert not cubic_is_irreducible(k7, (-8, 12, -6))


def test_cubic_is_irreducible_over_rationals():
    Q = RationalField()
    assert cubic_is_irreducible(Q, (Q.element(-1), Q.element(-3), Q.zero))
    assert not cubic_is_irreducible(Q, (Q.element(-8), Q.zero, Q.zero))  # root 2


def test_cubic_is_irreducible_large_prime():
    p = PrimeField(1000003)
    assert p.p % 3 == 1
    # find a non-cube quickly and check the binomial criterion matches
    e = (p.p - 1) // 3
    a = next(x for x in range(2, 50) if pow(x, e, p.p) != 1)
    assert cubic_is_irreducible(p, (p.neg(a), 0, 0))


def _has_root(R, chi):
    """Whether chi = (a0, a1, a2) has a root in R, by trying every element."""
    a0, a1, a2 = chi
    return any(
        R.is_zero(R.add(R.mul(R.add(R.mul(R.add(x, a2), x), a1), x), a0))
        for x in R.elements()
    )


@pytest.mark.parametrize("p", [5, 7])
def test_cubic_is_irreducible_matches_root_enumeration_on_every_cubic(p):
    k = PrimeField(p)
    for chi in itertools.product(range(p), repeat=3):
        assert cubic_is_irreducible(k, chi) == (not _has_root(k, chi)), chi


@pytest.mark.parametrize(
    "L",
    [QuadraticEtale(PrimeField(3), 2), QuadraticEtale(k5, 2), QuadraticEtale(k5)],
    ids=["F9", "F25", "F5xF5"],
)
def test_cubic_is_irreducible_matches_root_enumeration_over_L(L):
    # over k x k the answer is for the two component cubics over k: both
    # irreducible, so that L[X]/chi is a product of two cubic fields
    rng = random.Random(f"roots/{L!r}")
    outcomes = set()
    for _ in range(200):
        chi = tuple(L.random(rng) for _ in range(3))
        if L.kind == "split":
            components = [tuple(a[i] for a in chi) for i in (0, 1)]
            expected = not any(_has_root(L.base, c) for c in components)
        else:
            expected = not _has_root(L, chi)
        irreducible = cubic_is_irreducible(L, chi)
        assert irreducible == expected, chi
        outcomes.add(irreducible)
    assert outcomes == {True, False}


def _schoolbook_mod(E, x, y):
    """x y in E by the full polynomial product and long division by chi."""
    L = E.L
    prod = [L.zero] * 5
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            prod[i + j] = L.add(prod[i + j], L.mul(xi, yj))
    chi = [L.embed(a) for a in E.chi]
    for d in (4, 3):
        lead = prod[d]
        for i in range(3):
            prod[d - 3 + i] = L.sub(prod[d - 3 + i], L.mul(lead, chi[i]))
        prod[d] = L.zero
    return tuple(prod[:3])


@pytest.mark.parametrize(
    "L", [QuadraticEtale(k5, 2), QuadraticEtale(k7, 3), QuadraticEtale(k7)],
    ids=["F25", "F49", "F7xF7"],
)
def test_cubic_mul_and_pow_match_schoolbook_arithmetic(L):
    rng = random.Random(f"schoolbook/{L!r}")
    for chi in ((1, 0, 0), (2, 1, 0), (3, 4, 1), (0, 1, 2), (-8, 12, -6)):
        E = CubicAlgebra(L, chi)
        for _ in range(30):
            x, y = E.random(rng), E.random(rng)
            assert E.mul(x, y) == _schoolbook_mod(E, x, y)
            power = E.one
            for n in range(13):
                assert E.pow(x, n) == power
                power = E.mul(power, x)
            if E.is_unit(x):
                assert E.mul(E.pow(x, -5), E.pow(x, 5)) == E.one


def test_quadratic_pow_matches_repeated_mul():
    rng = random.Random(11)
    for L in (QuadraticEtale(k7, 3), QuadraticEtale(k7)):
        for _ in range(30):
            x = L.random(rng)
            power = L.one
            for n in range(13):
                assert L.pow(x, n) == power
                power = L.mul(power, x)
            if L.is_unit(x):
                assert L.mul(L.pow(x, -4), L.pow(x, 4)) == L.one


def _handle_ops(L):
    """The ring operations of L written through the base handle, one k-op per
    step: the reference for the native coordinate arithmetic of L."""
    k = L.base

    def mul(x, y):
        if L.kind == "split":
            return (k.mul(x[0], y[0]), k.mul(x[1], y[1]))
        return (
            k.add(k.mul(x[0], y[0]), k.mul(L.c, k.mul(x[1], y[1]))),
            k.add(k.mul(x[0], y[1]), k.mul(x[1], y[0])),
        )

    def sigma(x):
        return (x[1], x[0]) if L.kind == "split" else (x[0], k.neg(x[1]))

    return {
        "add": lambda x, y: (k.add(x[0], y[0]), k.add(x[1], y[1])),
        "sub": lambda x, y: (k.sub(x[0], y[0]), k.sub(x[1], y[1])),
        "mul": mul,
        "eq": lambda x, y: k.eq(x[0], y[0]) and k.eq(x[1], y[1]),
        "neg": lambda x, y: (k.neg(x[0]), k.neg(x[1])),
        "sigma": lambda x, y: sigma(x),
    }


def _assert_native_ops_match_handle(L, pairs):
    ref = _handle_ops(L)
    for x, y in pairs:
        for name, op in ref.items():
            want = op(x, y)
            got = getattr(L, name)(x) if name in ("neg", "sigma") else getattr(L, name)(x, y)
            assert got == want and type(got) is type(want), (L, name, x, y)
            if isinstance(want, tuple):
                assert tuple(map(type, got)) == tuple(map(type, want)), (L, name, x, y)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("split", [False, True], ids=["field", "split"])
def test_quadratic_native_ops_match_handle_on_every_pair(p, split):
    k = PrimeField(p)
    L = QuadraticEtale(k) if split else QuadraticEtale(k, k.nonsquare())
    elems = list(L.elements())
    _assert_native_ops_match_handle(L, itertools.product(elems, elems))


def test_quadratic_native_ops_match_handle_at_the_prime_cap():
    k = PrimeField(2**31 - 1)
    rng = random.Random("native/2^31-1")
    for L in (QuadraticEtale(k, k.nonsquare()), QuadraticEtale(k)):
        pairs = [(L.random(rng), L.random(rng)) for _ in range(500)]
        pairs += [(x, x) for x, _ in pairs[:20]]
        pairs += [((k.p - 1, k.p - 1), (k.p - 1, k.p - 1))]
        _assert_native_ops_match_handle(L, pairs)


def test_quadratic_native_ops_match_handle_over_Q():
    Q = RationalField()
    rng = random.Random("native/Q")
    for L in (QuadraticEtale(Q, 2), QuadraticEtale(Q, -3), QuadraticEtale(Q, Fraction(5, 3)),
              QuadraticEtale(Q)):
        pairs = [(L.random(rng), L.random(rng)) for _ in range(300)]
        pairs += [(x, x) for x, _ in pairs[:20]] + [(L.zero, L.one), (L.one, L.gen())]
        _assert_native_ops_match_handle(L, pairs)


def _mat_pow(F, a, n):
    return linalg.power(lambda x, y: linalg.mat_mul(F, x, y), linalg.identity(F, len(a)), a, n)


def test_power_matches_repeated_products_and_stops_at_the_top_bit():
    # the one square-and-multiply, on 8x8 matrices: x^n equals n products,
    # and x^8 costs three squares, no product by the identity
    rng = random.Random(12)
    M = tuple(tuple(k7.random(rng) for _ in range(8)) for _ in range(8))
    power = linalg.identity(k7, 8)
    for n in range(10):
        assert _mat_pow(k7, M, n) == power
        power = linalg.mat_mul(k7, power, M)
    products = []

    def mul(a, b):
        products.append((a, b))
        return linalg.mat_mul(k7, a, b)

    assert linalg.power(mul, linalg.identity(k7, 8), M, 8) == _mat_pow(k7, M, 8)
    assert len(products) == 3


def test_cubic_is_irreducible_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("X")

    def sympy_irreducible(p, chi):
        a0, a1, a2 = chi
        return sympy.Poly(X**3 + a2 * X**2 + a1 * X + a0, X, modulus=p).is_irreducible

    for p in (5, 7):
        k = PrimeField(p)
        for chi in itertools.product(range(p), repeat=3):
            assert cubic_is_irreducible(k, chi) == sympy_irreducible(p, chi), (p, chi)
    rng = random.Random(1000003)
    big = PrimeField(1000003)
    for _ in range(50):
        chi = tuple(big.random(rng) for _ in range(3))
        assert cubic_is_irreducible(big, chi) == sympy_irreducible(big.p, chi), chi


def test_non_etale_cubic_accepted_with_flag():
    L = QuadraticEtale(k7, 3)
    E = CubicAlgebra(L, (-8, 12, -6))  # (X - 2)^3
    assert not E.etale


# ---------------------------------------------------------------------------
# norm-one groups and quotients
# ---------------------------------------------------------------------------

def test_norm_one_count_quadratic_field():
    L = QuadraticEtale(k7, 3)
    assert sum(1 for _ in norm_one_elements(L)) == 8  # q + 1


def test_norm_one_split():
    L = QuadraticEtale(k7)
    elems = list(norm_one_elements(L))
    assert len(elems) == 6  # q - 1
    assert all(k7.eq(k7.mul(a, b), k7.one) for a, b in elems)


def test_norm_one_cubic_algebra():
    L = QuadraticEtale(k5, 2)
    E = CubicAlgebra(L, (1, 1, 0))
    elems = list(norm_one_elements(E))
    assert len(elems) == 5**3 + 1  # kernel of the norm to the fixed field
    for x in elems[:10]:
        assert E.eq(E.mul(x, E.sigma(x)), E.one)


def test_norm_one_rejects_rationals():
    Q = RationalField()
    L = QuadraticEtale(Q, -1)
    with pytest.raises(EnumerationError):
        list(norm_one_elements(L))


def test_norm_quotient_report_f5():
    L = QuadraticEtale(k5, 2)
    E = CubicAlgebra(L, (1, 1, 0))
    assert norm_quotient_report(E) == (1, 1)


def test_norm_quotient_report_reducible_chi():
    # E not a field: quotients on the unit group of the etale algebra
    L = QuadraticEtale(k5, 2)
    E = CubicAlgebra(L, (2, -2, -1))  # (X - 1)(X^2 - 2)
    assert norm_quotient_report(E) == (1, 1)


def test_norm_quotient_rejects_rationals():
    Q = RationalField()
    L = QuadraticEtale(Q, -1)
    E = CubicAlgebra(L, (-1, -3, 0))
    with pytest.raises(EnumerationError):
        norm_quotient_report(E)


# ---------------------------------------------------------------------------
# exact ring axioms (seeded sample)
# ---------------------------------------------------------------------------

def test_ring_axioms_sampled():
    L = QuadraticEtale(k7, 3)
    E = CubicAlgebra(L, (-4, 0, 0))
    rng = random.Random(7)
    for _ in range(200):
        x, y, z = E.random(rng), E.random(rng), E.random(rng)
        assert E.eq(E.mul(E.add(x, y), z), E.add(E.mul(x, z), E.mul(y, z)))
        assert E.eq(E.mul(x, E.mul(y, z)), E.mul(E.mul(x, y), z))
        assert E.eq(E.mul(x, y), E.mul(y, x))
        assert E.eq(E.mul(x, E.one), x)


def test_norm_equation_solver_large_prime():
    from g2real.composition import _solve_norm

    p = PrimeField(1000003)
    L = QuadraticEtale(p, p.nonsquare())
    for target in (2, 3, 999983):
        s = _solve_norm(L, p.element(target))
        assert s is not None
        assert p.eq(L.norm(s), p.element(target))
