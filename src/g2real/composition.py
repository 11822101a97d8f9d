"""Composition algebras with exact structure constants.

Four constructions feed one representation: the Zorn vector-matrix model of
the split octonions, Cayley-Dickson doubling, quaternion algebras from rank-3
quadratic spaces, and octonion algebras from rank-3 hermitian spaces over a
quadratic etale algebra.  An Algebra carries a dense-indexed sparse
multiplication table, the norm data, and the identity, so automorphism
checking downstream is construction-agnostic.  Its integer structure tensor
and polar form (Algebra.lattice_forms) serve certification, the batched
products of the frames (Algebra.products, left_mul_matrix and the closure
test) and one batch of the octonion laws (law_failures): the composition
law, the minimal equation and the two alternative laws, for every model and
dimension, exact over Q and over F_p for every accepted prime.
"""

import operator
from collections import namedtuple

from . import linalg
from .fields import FieldError


class Algebra:
    """A finite dimensional k-algebra with a quadratic norm form.

    table[i][j] is a tuple of (index, coeff) pairs giving e_i * e_j.
    norm_diag[i] = N(e_i); bil[i][j] = N(e_i + e_j) - N(e_i) - N(e_j).
    k is F_p or Q, so the coordinate helpers (eq, is_zero, add, sub, neg,
    scale, trace) run on Python's operators, reduced mod p once per
    coordinate over F_p.
    """

    def __init__(self, model, field, table, one, norm_diag, bil, meta=None):
        self.model = model
        self.field = field
        self.table = table
        self.dim = len(table)
        self.one = tuple(one)
        self.norm_diag = tuple(norm_diag)
        self.bil = linalg.mat(bil)
        self.meta = meta or {}
        # the trace as a row: tr x = N(x, 1) = trace_row . x
        self.trace_row = tuple(_dot(field, self.bil[i], self.one) for i in range(self.dim))
        self._lattice_forms = None
        self._p = field.p if field.kind == "prime" else 0  # 0: no reduction over Q

    def __repr__(self):
        return f"Algebra({self.model}, dim={self.dim}, k={self.field!r})"

    # -- element helpers ---------------------------------------------------

    def zero_vec(self):
        return tuple(self.field.zero for _ in range(self.dim))

    def basis_vec(self, i):
        F = self.field
        return tuple(F.one if j == i else F.zero for j in range(self.dim))

    def scalar(self, a):
        a = self.field.element(a)
        return tuple(self.field.mul(a, c) for c in self.one)

    def eq(self, x, y):
        p = self._p
        if p:
            return all((a - b) % p == 0 for a, b in zip(x, y))
        return all(a == b for a, b in zip(x, y))

    def is_zero(self, x):
        p = self._p
        return all(a % p == 0 for a in x) if p else all(a == 0 for a in x)

    def add(self, x, y):
        p = self._p
        return tuple([(a + b) % p for a, b in zip(x, y)] if p else [a + b for a, b in zip(x, y)])

    def sub(self, x, y):
        p = self._p
        return tuple([(a - b) % p for a, b in zip(x, y)] if p else [a - b for a, b in zip(x, y)])

    def neg(self, x):
        p = self._p
        return tuple([-a % p for a in x] if p else [-a for a in x])

    def scale(self, c, x):
        p = self._p
        return tuple([c * a % p for a in x] if p else [c * a for a in x])

    def mul(self, x, y):
        if self.model == "zorn":
            return zorn_mul_coords(self.field, x, y)
        F = self.field
        out = [F.zero] * self.dim
        for i, xi in enumerate(x):
            if F.is_zero(xi):
                continue
            row = self.table[i]
            for j, yj in enumerate(y):
                if F.is_zero(yj):
                    continue
                c = F.mul(xi, yj)
                for m, t in row[j]:
                    out[m] = F.add(out[m], F.mul(c, t))
        return tuple(out)

    def norm(self, x):
        F = self.field
        n = F.zero
        for i, xi in enumerate(x):
            if F.is_zero(xi):
                continue
            n = F.add(n, F.mul(self.norm_diag[i], F.mul(xi, xi)))
            for j in range(i + 1, self.dim):
                if not F.is_zero(x[j]):
                    n = F.add(n, F.mul(self.bil[i][j], F.mul(xi, x[j])))
        return n

    def bilinear_norm(self, x, y):
        F = self.field
        n = F.zero
        for i, xi in enumerate(x):
            if F.is_zero(xi):
                continue
            row = self.bil[i]
            for j, yj in enumerate(y):
                if not F.is_zero(yj):
                    n = F.add(n, F.mul(row[j], F.mul(xi, yj)))
        return n

    def trace(self, x):
        t = sum(map(operator.mul, self.trace_row, x), self.field.zero)
        return t % self._p if self._p else t

    def conj(self, x):
        t = self.trace(x)
        return tuple(
            self.field.sub(self.field.mul(t, o), a) for o, a in zip(self.one, x)
        )

    def left_mul_matrix(self, x):
        """L_x, whose column j is x e_j: the contraction of x with T."""
        n = self.dim
        xT = self._left_contraction((x,))
        return linalg.from_lattice(self.field, linalg.Lattice(xT.N.reshape(n, n).T, xT.s))

    def products(self, xs, ys):
        """The products x y of the pairs (x, y) of xs and ys, the vectors that
        mul gives, from one batched contraction with T (lattice_products)."""
        return linalg.from_lattice(self.field, self.lattice_products(xs, ys))

    def lattice_products(self, xs, ys):
        """The Lattice of the rows x y for the pairs (x, y) of xs and ys, as
        one batched contraction with the structure tensor T of lattice_forms:
        z_km = sum_ij x_ki y_kj T[i, j, m]."""
        F, n = self.field, self.dim
        xT = self._left_contraction(xs)
        Y = linalg.lattice(F, ys)
        z = (Y.N[:, None, :] @ xT.N.reshape(-1, n, n))[:, 0, :]
        return linalg.Lattice(z % F.p if F.kind == "prime" else z, Y.s * xT.s)

    def _left_contraction(self, xs):
        """The Lattice of the rows sum_i x_i T[i, j, m], indexed (j, m), for
        the vectors x of xs: one integer product with T as n x n^2."""
        F, n = self.field, self.dim
        (T, sT), _ = self.lattice_forms()
        return linalg.lattice_mul(F, linalg.lattice(F, xs), linalg.Lattice(T.reshape(n, n * n), sT))

    def random(self, rng):
        return tuple(self.field.random(rng) for _ in range(self.dim))

    def minimal_equation_holds(self, x):
        """x^2 - N(x,1) x + N(x) 1 = 0, the defining quadratic identity."""
        sq = self.mul(x, x)
        t = self.trace(x)
        n = self.norm(x)
        lhs = self.add(self.sub(sq, self.scale(t, x)), self.scale(n, self.one))
        return self.is_zero(lhs)

    def lattice_forms(self):
        """((T, s_T), (B, s_B)): the structure tensor (T[i, j, m] is the
        coefficient of e_m in e_i e_j) and the polar form on the integer
        lattice of linalg.lattice, with their scales; built once."""
        if self._lattice_forms is None:
            F, n = self.field, self.dim
            T = [[[F.zero] * n for _ in range(n)] for _ in range(n)]
            for i, row in enumerate(self.table):
                for j, entries in enumerate(row):
                    for m, c in entries:
                        T[i][j][m] = c
            self._lattice_forms = (linalg.lattice(F, T), linalg.lattice(F, self.bil))
        return self._lattice_forms


def _dot(F, u, v):
    s = F.zero
    for a, b in zip(u, v):
        s = F.add(s, F.mul(a, b))
    return s


# -- Zorn vector matrices ---------------------------------------------------

def _cross(F, u, v):
    return (
        F.sub(F.mul(u[1], v[2]), F.mul(u[2], v[1])),
        F.sub(F.mul(u[2], v[0]), F.mul(u[0], v[2])),
        F.sub(F.mul(u[0], v[1]), F.mul(u[1], v[0])),
    )


def zorn_mul_coords(F, x, y):
    """Product of Zorn vector matrices in coordinates (a, v1..v3, w1..w3, b).

    [a v; w b][a' v'; w' b'] = [aa' - <v,w'>, av' + b'v + w^w';
                                bw' + a'w + v^v', bb' - <w,v'>].

    F is F_p or Q (the only fields zorn_algebra is built over): the formula
    runs on the native operators, on residues reduced once per coordinate
    over F_p and on Fractions over Q.
    """
    a, v1, v2, v3, w1, w2, w3, b = x
    c, s1, s2, s3, t1, t2, t3, d = y
    out = (
        a * c - (v1 * t1 + v2 * t2 + v3 * t3),
        a * s1 + d * v1 + (w2 * t3 - w3 * t2),
        a * s2 + d * v2 + (w3 * t1 - w1 * t3),
        a * s3 + d * v3 + (w1 * t2 - w2 * t1),
        b * t1 + c * w1 + (v2 * s3 - v3 * s2),
        b * t2 + c * w2 + (v3 * s1 - v1 * s3),
        b * t3 + c * w3 + (v1 * s2 - v2 * s1),
        b * d - (w1 * s1 + w2 * s2 + w3 * s3),
    )
    if F.kind == "prime":
        p = F.p
        return tuple(e % p for e in out)
    return out


def zorn_algebra(k):
    """The split octonions over k as Zorn vector matrices."""
    F = k
    dim = 8
    table = []
    for i in range(dim):
        ei = tuple(F.one if t == i else F.zero for t in range(dim))
        row = []
        for j in range(dim):
            ej = tuple(F.one if t == j else F.zero for t in range(dim))
            prod = zorn_mul_coords(F, ei, ej)
            row.append(tuple((m, c) for m, c in enumerate(prod) if not F.is_zero(c)))
        table.append(tuple(row))
    one = (F.one,) + (F.zero,) * 6 + (F.one,)
    # N = a*b + <v, w>: basis vectors are all isotropic; the pairing couples
    # (a, b) and (v_i, w_i).
    norm_diag = (F.zero,) * 8
    bil = [[F.zero] * 8 for _ in range(8)]
    bil[0][7] = bil[7][0] = F.one
    for i in range(3):
        bil[1 + i][4 + i] = bil[4 + i][1 + i] = F.one
    return Algebra("zorn", F, tuple(table), one, norm_diag, bil)


# -- Cayley-Dickson doubling -------------------------------------------------

def base_algebra(k):
    """k itself as a 1-dimensional composition algebra with N(x) = x^2."""
    F = k
    two = F.add(F.one, F.one)
    table = ((((0, F.one),),),)
    return Algebra("base", F, table, (F.one,), (F.one,), ((two,),))


def cayley_dickson_double(alg, lam):
    """Double a composition algebra of dimension 1, 2 or 4 with parameter lam.

    (x + ya)(u + va) = (xu + lam (conj v) y) + (vx + y (conj u)) a,
    N(x + ya) = N(x) - lam N(y).
    """
    F = alg.field
    lam = F.element(lam)
    if F.is_zero(lam):
        raise FieldError("doubling parameter must be nonzero")
    if alg.dim not in (1, 2, 4):
        raise FieldError(f"cannot double an algebra of dimension {alg.dim}")
    n = alg.dim
    dim = 2 * n

    conj_cols = [alg.conj(alg.basis_vec(j)) for j in range(n)]

    def embed(vec, half):
        out = [F.zero] * dim
        for t, c in enumerate(vec):
            out[half * n + t] = c
        return out

    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            ih, it = divmod(i, n)
            jh, jt = divmod(j, n)
            ei = alg.basis_vec(it)
            ej = alg.basis_vec(jt)
            if ih == 0 and jh == 0:
                res = embed(alg.mul(ei, ej), 0)
            elif ih == 0 and jh == 1:
                res = embed(alg.mul(ej, ei), 1)  # x (va) = (v x) a
            elif ih == 1 and jh == 0:
                res = embed(alg.mul(ei, conj_cols[jt]), 1)  # (ya) u = (y conj u) a
            else:
                res = embed(alg.scale(lam, alg.mul(conj_cols[jt], ei)), 0)
            table[i][j] = tuple((m, c) for m, c in enumerate(res) if not F.is_zero(c))

    one = tuple(alg.one) + (F.zero,) * n
    norm_diag = tuple(alg.norm_diag) + tuple(
        F.neg(F.mul(lam, d)) for d in alg.norm_diag
    )
    bil = [[F.zero] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            bil[i][j] = alg.bil[i][j]
            bil[n + i][n + j] = F.neg(F.mul(lam, alg.bil[i][j]))
    meta = {"parent": alg, "lam": lam}
    return Algebra("doubled", F, tuple(tuple(r) for r in table), one, norm_diag, bil, meta)


def pfister_octonion(k, lams):
    """Three successive doublings of k with the given parameters."""
    alg = base_algebra(k)
    for lam in lams:
        alg = cayley_dickson_double(alg, lam)
    return alg


# -- quaternions from rank-3 quadratic spaces --------------------------------

def quaternion_from_quadratic(k, diag, psi=None):
    """Quaternion algebra k + V for a rank-3 quadratic space with diagonal
    bilinear form B = <b1, b2, b3>; requires trivial discriminant
    (b1 b2 b3 a square).  Product:
    (a, v)(b, w) = (ab - B(v, w), aw + bv + v x w) with
    B(u, v x w) = psi det(u, v, w).

    The trivialization is an isometry of the discriminant line, so psi must
    satisfy psi^2 = b1 b2 b3; the default takes the square root.
    """
    F = k
    b = tuple(F.element(d) for d in diag)
    if any(F.is_zero(d) for d in b):
        raise FieldError("degenerate quadratic space")
    disc = F.mul(b[0], F.mul(b[1], b[2]))
    if not F.is_square(disc):
        raise FieldError("discriminant of the quadratic space is not trivial")
    psi = F.sqrt(disc) if psi is None else F.element(psi)
    if not F.eq(F.mul(psi, psi), disc):
        raise FieldError("trivialization must square to the discriminant")

    binv = tuple(F.inv(d) for d in b)

    def vmul(a, v, c, w):
        # (a, v)(c, w)
        s = F.sub(F.mul(a, c), _dot3w(F, b, v, w))
        cr = _cross(F, v, w)
        vec = tuple(
            F.add(
                F.add(F.mul(a, w[i]), F.mul(c, v[i])),
                F.mul(psi, F.mul(binv[i], cr[i])),
            )
            for i in range(3)
        )
        return s, vec

    dim = 4
    table = [[None] * dim for _ in range(dim)]
    basis = [(F.one, (F.zero,) * 3)]
    for i in range(3):
        basis.append((F.zero, tuple(F.one if t == i else F.zero for t in range(3))))
    for i, (ai, vi) in enumerate(basis):
        for j, (aj, vj) in enumerate(basis):
            s, vec = vmul(ai, vi, aj, vj)
            coords = (s,) + vec
            table[i][j] = tuple(
                (m, c) for m, c in enumerate(coords) if not F.is_zero(c)
            )
    one = (F.one, F.zero, F.zero, F.zero)
    norm_diag = (F.one,) + b
    two = F.add(F.one, F.one)
    bil = [[F.zero] * 4 for _ in range(4)]
    bil[0][0] = two
    for i in range(3):
        bil[1 + i][1 + i] = F.mul(two, b[i])
    meta = {"diag": b, "psi": psi}
    return Algebra("quadratic", F, tuple(tuple(r) for r in table), one, norm_diag, bil, meta)


def _dot3w(F, weights, u, v):
    s = F.zero
    for d, a, bb in zip(weights, u, v):
        s = F.add(s, F.mul(d, F.mul(a, bb)))
    return s


# -- octonions from rank-3 hermitian spaces ----------------------------------

HermitianSpace3 = namedtuple("HermitianSpace3", ["L", "diag"])


def hermitian_space(L, diag):
    k = L.base
    d = tuple(k.element(x) for x in diag)
    if any(k.is_zero(x) for x in d):
        raise FieldError("degenerate hermitian space")
    return HermitianSpace3(L, d)


def hermitian_row(L, H, x):
    """The row of h(., x) = sum H_i (.)_i sigma(x_i) for the diagonal Gram H,
    so that h(u, x) = _dot(L, u, hermitian_row(L, H, x))."""
    return tuple(L.scalar_mul(h, L.sigma(b)) for h, b in zip(H, x))


def _solve_norm(L, target):
    """An element of L with N_{L/k} equal to target, or None.

    The norm is onto k* for quadratic extensions of finite fields and for the
    split algebra.  Over the rationals only a bounded search is attempted, so
    None there means "could not verify", not a proof of failure.
    """
    k = L.base
    if k.is_zero(target):
        return None
    if L.kind == "split":
        return (target, k.one)
    if k.is_square(target):
        return (k.sqrt(target), k.zero)
    if k.kind == "prime":
        # solve x0^2 - c x1^2 = target; about half the x1 values work
        for x1 in range(1, k.p):
            rem = k.add(target, k.mul(L.c, k.mul(x1, x1)))
            if k.is_square(rem):
                return (k.sqrt(rem), x1)
        return None
    from fractions import Fraction

    for n0 in range(-20, 21):
        for d0 in range(1, 8):
            x0 = Fraction(n0, d0)
            rem = (x0 * x0 - target) / L.c
            if rem != 0 and k.is_square(rem):
                return (x0, k.sqrt(rem))
    return None


def octonion_from_hermitian(space, psi=None):
    """Octonion algebra L + V for a rank-3 hermitian space (V, h) over L with
    diagonal Gram <l1, l2, l3>; requires trivial discriminant:
    l1 l2 l3 in N_{L/k}(L*).  Product:
    (a, v)(b, w) = (ab - h(v, w), aw + sigma(b) v + v x w) with
    h(u, v x w) = psi * det(u, v, w).

    The trivialization is an isometry of the discriminant line, so psi must
    satisfy N_{L/k}(psi) = l1 l2 l3; the default solves for one.
    """
    L, lam = space
    k = L.base
    disc = k.mul(lam[0], k.mul(lam[1], lam[2]))
    psi = _solve_norm(L, disc) if psi is None else psi
    if psi is None:
        raise FieldError(
            "discriminant of the hermitian space is not trivial (or could not "
            "be verified over this base field)"
        )
    if not k.eq(L.norm(psi), disc):
        raise FieldError("trivialization must have norm equal to the discriminant")
    lam_inv = tuple(k.inv(d) for d in lam)
    spsi = L.sigma(psi)

    def crossh(v, w):
        cr = _cross(L, v, w)
        return tuple(
            L.scalar_mul(lam_inv[i], L.mul(spsi, L.sigma(cr[i]))) for i in range(3)
        )

    def pmul(a, v, b, w):
        s = L.sub(L.mul(a, b), _dot(L, v, hermitian_row(L, lam, w)))
        ch = crossh(v, w)
        sb = L.sigma(b)
        vec = tuple(
            L.add(L.add(L.mul(a, w[i]), L.mul(sb, v[i])), ch[i]) for i in range(3)
        )
        return s, vec

    # k-basis: 1, s, e1, s e1, e2, s e2, e3, s e3 with s the standard generator
    one_L = L.one
    s_L = L.gen()
    basis = []
    zero3 = (L.zero, L.zero, L.zero)
    basis.append((one_L, zero3))
    basis.append((s_L, zero3))
    for i in range(3):
        for sc in (one_L, s_L):
            v = tuple(sc if t == i else L.zero for t in range(3))
            basis.append((L.zero, v))

    dim = 8
    table = [[None] * dim for _ in range(dim)]
    for i, (ai, vi) in enumerate(basis):
        for j, (aj, vj) in enumerate(basis):
            s, vec = pmul(ai, vi, aj, vj)
            coords = _hermitian_coords(L, s, vec)
            table[i][j] = tuple(
                (m, c) for m, c in enumerate(coords) if not k.is_zero(c)
            )

    one = _hermitian_coords(L, one_L, zero3)
    # N(a, v) = N_{L/k}(a) + h(v, v); with basis {1, s} of L the L-part
    # diagonalizes as <1, -s^2> (field: <1, -c>; split: <1, -1>).
    norm_diag_list = []
    bil = [[k.zero] * 8 for _ in range(8)]
    for idx, (a, v) in enumerate(basis):
        nv = L.norm(a)
        for d, comp in zip(lam, v):
            nv = k.add(nv, k.mul(d, L.norm(comp)))
        norm_diag_list.append(nv)
    two = k.add(k.one, k.one)
    for i in range(8):
        for j in range(8):
            if i == j:
                bil[i][j] = k.mul(two, norm_diag_list[i])
                continue
            ai, vi = basis[i]
            aj, vj = basis[j]
            # polarization: B = tr_L(a_i sigma(a_j)) + tr_L(h(v_i, v_j))
            val = L.trace(L.mul(ai, L.sigma(aj)))
            val = k.add(val, L.trace(_dot(L, vi, hermitian_row(L, lam, vj))))
            bil[i][j] = val
    meta = {"L": L, "diag": lam, "psi": psi}
    return Algebra(
        "hermitian", k, tuple(tuple(r) for r in table), one, norm_diag_list, bil, meta
    )


def _hermitian_coords(L, a, v):
    """k-coordinates of (a, v) in the basis 1, s, e1, s e1, e2, s e2, e3, s e3
    of a hermitian-model algebra, each L-entry written x = u + w s with s the
    standard generator (split: s = (1, -1), so u, w = (x0 +- x1) / 2)."""
    if L.kind == "field":
        return tuple(c for x in (a, *v) for c in x)
    k = L.base
    two_inv = k.inv(k.add(k.one, k.one))
    return tuple(k.mul(two_inv, op(x[0], x[1])) for x in (a, *v) for op in (k.add, k.sub))


# -- the octonion laws, batched on the structure tensor -----------------------

LAWS = ("composition_law", "minimal_equation", "alternative_laws")


def law_failures(alg, n, seed, laws=LAWS):
    """{law: how many of n seeded sample pairs (x, y) break it}, for the laws
    of law_verdicts.  Coordinates are residues over F_p and integers in
    [-9, 9] over Q: every law is homogeneous, so integer vectors decide it."""
    import numpy as np

    F = alg.field
    lo, hi = (0, F.p) if F.kind == "prime" else (-9, 10)
    X, Y = np.random.default_rng(seed).integers(lo, hi, size=(2, n, alg.dim))
    return {law: int(bad.sum()) for law, bad in law_verdicts(alg, X, Y, laws).items()}


def law_verdicts(alg, X, Y, laws=LAWS):
    """{law: boolean array, True on each row (x, y) of the integer arrays X
    and Y that breaks it}: N(xy) = N(x) N(y) (composition_law), x^2 - T(x) x
    + N(x) 1 = 0 (minimal_equation) and x(xy) = (xx)y, (yx)x = y(xx)
    (alternative_laws).  Products run term by term through the T and B of
    Algebra.lattice_forms, reduced mod p after each one over F_p.  Over Q,
    z = T(x, y) = s_T xy and b(x) = B(x, x) = 2 s_B N(x), so the laws read
    2 s_B b(z) = s_T^2 b(x) b(y) and, for u = s_1 1, 2 s_B s_1 T(x, x)
    - 2 s_T B(x, u) x + s_T b(x) u = 0; the alternative laws are linear in T.
    """
    import numpy as np

    F = alg.field
    (T, sT), (B, sB) = alg.lattice_forms()
    (u,), s1 = linalg.lattice(F, [alg.one])
    if F.kind == "prime":
        # int64 for every p < 2^31: reduced products are below p^2 < 2^62,
        # constants lie in (-p/2, p/2], and at most 64 reduced terms are summed
        p, dtype = F.p, np.int64
    else:
        # every intermediate is at most (c a)^6 in absolute value, for a the
        # largest |coordinate| and c the largest of 2, the scales, |u|, the
        # sum of |B| and the largest sum of |T| into one output coordinate
        a = max(1, int(np.abs(X).max(initial=0)), int(np.abs(Y).max(initial=0)))
        c = max(2, sT, sB, s1, *map(abs, u), int(np.abs(B).sum()),
                int(np.abs(T).sum(axis=(0, 1)).max()))
        p, dtype = None, np.int64 if (c * a) ** 6 < 2**63 else object
    x, y, u = X.T.astype(dtype), Y.T.astype(dtype), u.astype(dtype)[:, None]

    def red(v):
        return v if p is None else v % p

    def bilinear(tensor):
        # (x, y) -> the columns sum_ij tensor[i, j, m] x_i y_j; a residue c
        # past p/2 is taken as c - p, so that +-1 costs no product
        terms = [(m, i, j, int(c) - p if p and c > p // 2 else int(c))
                 for (i, j, m), c in np.ndenumerate(tensor) if c]

        def apply(v, w):
            out = np.zeros((tensor.shape[2], v.shape[1]), dtype=dtype)
            for m, i, j, c in terms:
                t = red(v[i] * w[j])
                out[m] += t if c == 1 else -t if c == -1 else red(c * t)
            return red(out)

        return apply

    mul, polar = bilinear(T), bilinear(B[:, :, None])

    def b(v):
        return polar(v, v)[0]

    out = {}
    if "composition_law" in laws:
        out["composition_law"] = red(2 * sB * b(mul(x, y))) != red(red(sT * sT * b(x)) * b(y))
    if "minimal_equation" in laws:
        lhs = (red(2 * sB * s1 * mul(x, x)) - red(red(2 * sT * polar(x, u)[0]) * x)
               + red(red(sT * b(x)) * u))
        out["minimal_equation"] = (red(lhs) != 0).any(axis=0)
    if "alternative_laws" in laws:
        xx = mul(x, x)
        out["alternative_laws"] = ((mul(x, mul(x, y)) != mul(xx, y)).any(axis=0)
                                   | (mul(mul(y, x), x) != mul(y, xx)).any(axis=0))
    return out


def find_proper_idempotent(alg):
    """A proper idempotent, if one can be found.

    For the Zorn model the diagonal idempotent is returned directly; otherwise
    two-dimensional subalgebras k[y] are scanned for a split one, whose
    idempotent is written down in closed form.
    """
    import random

    F = alg.field
    if alg.model == "zorn":
        e = [F.zero] * 8
        e[7] = F.one
        return tuple(e)
    rng = random.Random(20230917)
    two = F.add(F.one, F.one)
    four = F.mul(two, two)
    for _ in range(500):
        y = alg.random(rng)
        t = alg.trace(y)
        n = alg.norm(y)
        d = F.sub(F.mul(t, t), F.mul(four, n))
        if F.is_zero(d) or not F.is_square(d):
            continue
        b = F.inv(F.sqrt(d))
        a = F.div(F.sub(F.one, F.mul(t, b)), two)
        e = alg.add(alg.scale(a, alg.one), alg.scale(b, y))
        if alg.eq(alg.mul(e, e), e) and not alg.is_zero(e) and not alg.eq(e, alg.one):
            return e
    raise FieldError("no proper idempotent found (division algebra?)")


def subalgebra_closed(alg, vectors):
    """Whether the span of `vectors` is closed under multiplication: a vector
    lies in the span exactly when the right null space K of the matrix of
    `vectors` annihilates it, so every product x y must have (x y) K = 0.
    The products are one batch on T and the test one integer product."""
    F = alg.field
    K = linalg.nullspace(F, linalg.mat(vectors))
    if not K:
        return True
    products = alg.lattice_products([x for x in vectors for _ in vectors],
                                    [y for _ in vectors for y in vectors])
    K = linalg.lattice(F, K)
    return not linalg.lattice_mul(F, products, linalg.Lattice(K.N.T, K.s)).N.any()


def orthogonal_complement(alg, vectors):
    """Basis of the orthogonal complement of span(vectors) for the norm form:
    the null space of the rows v B, B the polar form of lattice_forms."""
    F = alg.field
    rows = linalg.lattice_mul(F, linalg.lattice(F, vectors), alg.lattice_forms()[1])
    return linalg.nullspace(F, linalg.from_lattice(F, rows))
