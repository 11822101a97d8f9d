"""The trace hermitian space of a cubic extension.

For a cubic etale algebra F = k[X]/(chi) and a quadratic extension L/k, the
trace hermitian form (x, y) -> tr_{E/L}(x sigma(y)) on E = F.L has the same
diagonal Gram as the trace form tr_{F/k}(x y) in an orthogonal basis of F.
Over a finite field that space rescales to Gram <1, 1, 1>; its octonion
algebra hosts the quadratic-field non-real element of
`reality.build_counterexample_su`.
"""

from . import linalg
from .fields import FieldError


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
    pivoting) and check that its discriminant is a norm from L.  Returns the
    diagonal and the hermitian space over L with that Gram.

    The same diagonal is the Gram of the trace hermitian form
    (x, y) -> tr_{E/L}(x sigma(y)) on E = F.L in that basis.
    """
    from .composition import _solve_norm, hermitian_space

    gram = trace_form_gram(k, chi)
    if k.is_zero(linalg.det3(k, gram)):
        raise FieldError("trace form is degenerate (chi is not separable)")
    _, diag = linalg.diagonalize_form(k, gram)
    disc = k.mul(diag[0], k.mul(diag[1], diag[2]))
    if _solve_norm(L, disc) is None:
        raise FieldError("trace form discriminant is not a norm from L")
    return diag, hermitian_space(L, diag)


def unit_trace_hermitian_space(k, chi, L):
    """The trace hermitian space rescaled to Gram <1, 1, 1> by L-scalings
    (possible over finite fields, where the norm is onto k*)."""
    from .composition import _solve_norm, hermitian_space

    diag, _ = trace_hermitian_space(k, chi, L)
    for d in diag:
        if _solve_norm(L, k.inv(d)) is None:
            raise FieldError("cannot rescale the trace form to a unit diagonal")
    return hermitian_space(L, (k.one, k.one, k.one))
