"""Maximal tori of SU(3) from cubic algebras with involution.

A torus is carried concretely as (E, sigma_E, u): a cubic algebra over L
whose involution extends sigma, together with a sigma-fixed unit u.  The
invariant hermitian form is (x, y) -> tr_{E/L}(u x sigma(y)); the norm-one,
determinant-one elements act on E by left homothety and land in SU of that
form.
"""

from collections import namedtuple

from . import linalg
from .fields import FieldError, cubic_is_irreducible, norm_one_elements

TorusSpec = namedtuple("TorusSpec", ["E", "u"])


def torus_spec(E, u):
    if not E.eq(E.sigma(u), u):
        raise FieldError("u must be fixed by the involution")
    if not E.is_unit(u):
        raise FieldError("u must be a unit")
    spec = TorusSpec(E, u)
    if not form_is_nondegenerate(spec):
        raise FieldError("the twisted trace form is degenerate")
    return spec


def torus_spec_json(spec):
    """Serialization of a torus: the field data, the cubic modulus, and the
    representative of the twisting unit."""
    E = spec.E
    L = E.L
    k = L.base
    return {
        "field": "Q" if k.kind == "rationals" else str(k.p),
        "L": "split" if L.kind == "split" else {"c": k.to_text(L.c)},
        "chi": [k.to_text(a) for a in E.chi],
        "u": E.to_text(spec.u),
    }


def torus_invariant_form(spec, x, y):
    """h(x, y) = tr_{E/L}(u x sigma(y)), an element of L; sigma-hermitian,
    L-linear in x, and invariant under multiplication by norm-one elements."""
    E = spec.E
    return E.trace(E.mul(spec.u, E.mul(x, E.sigma(y))))


def form_gram(spec):
    E = spec.E
    basis = (E.one, E.gen, E.mul(E.gen, E.gen))
    return tuple(
        tuple(torus_invariant_form(spec, x, y) for y in basis) for x in basis
    )


def form_is_nondegenerate(spec):
    L = spec.E.L
    return L.is_unit(linalg.det3(L, form_gram(spec)))


def left_homothety(E, a):
    """Matrix over L of x -> a x on the basis 1, t, t^2 of E."""
    return E.mult_matrix(a)


def torus_one_elements(spec):
    """Enumerate T^1 = {x in E* : x sigma(x) = 1, N_{E/L}(x) = 1}."""
    E = spec.E
    for x in norm_one_elements(E):
        if E.L.eq(E.norm(x), E.L.one):
            yield x


def element_order(E, a):
    if not E.is_unit(a):
        raise FieldError("order of a non-unit")
    x = a
    n = 1
    while not E.eq(x, E.one):
        x = E.mul(x, a)
        n += 1
        if n > 10**7:
            raise FieldError("order computation exceeded the cap")
    return n


def is_regular(E, a):
    """Whether 1, a, a^2 span E over L (characteristic = minimal polynomial).

    The rows of coefficient triples form a 3x3 matrix over L; spanning is
    det being a unit, checked componentwise when L is split."""
    L = E.L
    rows = (E.one, a, E.mul(a, a))
    if L.kind == "split":
        k = L.base
        for comp in (0, 1):
            mc = tuple(tuple(entry[comp] for entry in row) for row in rows)
            if k.is_zero(linalg.det3(k, mc)):
                return False
        return True
    return not L.is_zero(linalg.det3(L, rows))


def is_indecomposable(spec, a):
    """Whether the torus through the regular element a is indecomposable,
    i.e. whether its characteristic polynomial over L is irreducible (the
    associated cubic algebra is a field).

    Non-regular inputs (1, a, a^2 dependent) cannot generate and are
    rejected; when E is a field over a finite base the cyclic-generator
    property is cross-checked by an order computation.
    """
    E = spec.E
    L = E.L
    if not is_regular(E, a):
        raise FieldError("a is not a generating element (non-regular)")
    chi = linalg.charpoly3(L, left_homothety(E, a))
    verdict = cubic_is_irreducible(L, chi)
    if E.order is not None and E.is_field():
        in_torus = E.eq(E.mul(a, E.sigma(a)), E.one) and L.eq(E.norm(a), L.one)
        if in_torus:
            t1 = sum(1 for _ in torus_one_elements(spec))
            if element_order(E, a) != t1:
                raise FieldError("a lies in the torus but does not generate it")
    return verdict


def orbit_spans_E(E, a, v):
    """Rank-3 test for {v, av, a^2 v}: irreducibility of E under the cyclic
    group generated by a."""
    L = E.L
    if L.kind == "split":
        raise FieldError("orbit span test needs a field L")
    rows = (v, E.mul(a, v), E.mul(a, E.mul(a, v)))
    return not L.is_zero(linalg.det3(L, rows))


def centralizer_matches_torus_algebra(E, a):
    """Verification that the centralizer of the left homothety of a regular a
    inside the 3x3 matrices over L is exactly the image of E (dimension 3)."""
    L = E.L
    if L.kind == "split":
        raise FieldError("centralizer check needs a field L")
    m = left_homothety(E, a)
    space = linalg.solve_sylvester_space(L, m, m)
    if len(space) != 3:
        return False
    img = [linalg.vectors_matrix_to_flat(left_homothety(E, x)) for x in (E.one, a, E.mul(a, a))]
    combined = tuple(img) + tuple(linalg.vectors_matrix_to_flat(s) for s in space)
    return linalg.rank(L, linalg.mat(combined)) == 3


# -- trace hermitian spaces ---------------------------------------------------

TraceFormData = namedtuple(
    "TraceFormData", ["chi", "gram", "basis", "diag", "disc_trivial"]
)


def trace_form_gram(k, chi):
    """Gram matrix of (x, y) -> tr_{F/k}(x y) on the basis 1, t, t^2 of
    F = k[X]/(chi), via Newton power sums."""
    c0, c1, c2 = (k.element(c) for c in chi)
    e1 = k.neg(c2)
    e2 = c1
    e3 = k.neg(c0)
    s = [k.element(3), e1]
    s.append(k.sub(k.mul(e1, s[1]), k.mul(k.element(2), e2)))
    s.append(
        k.add(k.sub(k.mul(e1, s[2]), k.mul(e2, s[1])), k.mul(k.element(3), e3))
    )
    s.append(k.add(k.sub(k.mul(e1, s[3]), k.mul(e2, s[2])), k.mul(e3, s[1])))
    return tuple(tuple(s[i + j] for j in range(3)) for i in range(3))


def trace_hermitian_space(k, chi, L):
    """Diagonalize the trace form of the cubic etale algebra F = k[X]/(chi)
    in an orthogonal basis (deterministic Gram-Schmidt with first-nonzero
    pivoting) and check that its discriminant is a norm from L.

    The same diagonal is the Gram of the trace hermitian form
    (x, y) -> tr_{E/L}(x sigma(y)) on E = F.L in that basis.
    """
    from .composition import _solve_norm, hermitian_space

    gram = trace_form_gram(k, chi)
    if k.is_zero(linalg.det3(k, gram)):
        raise FieldError("trace form is degenerate (chi is not separable)")
    basis, diag = linalg.diagonalize_form(k, gram)
    disc = k.mul(diag[0], k.mul(diag[1], diag[2]))
    trivial = _solve_norm(L, disc) is not None
    if not trivial:
        raise FieldError("trace form discriminant is not a norm from L")
    space = hermitian_space(L, diag)
    return TraceFormData(tuple(chi), gram, basis, diag, True), space


def unit_trace_hermitian_space(k, chi, L):
    """The trace hermitian space rescaled to Gram <1, 1, 1> by L-scalings
    (possible over finite fields, where the norm is onto k*)."""
    from .composition import _solve_norm, hermitian_space

    data, _ = trace_hermitian_space(k, chi, L)
    for d in data.diag:
        if _solve_norm(L, k.inv(d)) is None:
            raise FieldError("cannot rescale the trace form to a unit diagonal")
    return data, hermitian_space(L, (k.one, k.one, k.one))


# A verified orthogonal basis of Q[X]/(X^3 - 3X - 1) with trace-form diagonal
# exactly <1, 2, 2>: f1 = (1 + t - t^2)/3, f2 = (4 + t - t^2)/3,
# f3 = (-2 + t + t^2)/3.  Carried as data; the cubic is totally real, so the
# octonion algebra built from it over L = Q(i) is a division algebra.
TOTALLY_REAL_CUBIC = {
    "chi": (-1, -3, 0),
    "orthogonal_basis": (
        ("1/3", "1/3", "-1/3"),
        ("4/3", "1/3", "-1/3"),
        ("-2/3", "1/3", "1/3"),
    ),
    "diag": (1, 2, 2),
}
