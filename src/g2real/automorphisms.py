"""Automorphisms of an octonion algebra as certified 8x8 matrices.

Certification checks M(1) = 1 and multiplicativity on all 64 basis pairs;
bilinearity makes that a complete proof, and the exact Gram identity
M^T B M = B (norm preservation, B the polar form of N) is kept as a
redundant net.  Both run in integers: on residues over F_p, and over Q on
d*M, d a common denominator of M.  On top sit the subgroup
embeddings: SL(3) acting through a split frame, SU(3) through a quadratic
field frame, the stabilizer of a quaternion subalgebra D acting through the
quaternion frame D + D a, and the order-2 map extending the conjugation of a
quadratic subalgebra.

The integer form of an 8x8 map, its linalg.Lattice, lives in this module.
An AutMap carries both forms of its map: the matrix over k and its Lattice,
which certification already holds and on which compose, eq and is_identity
run, so callers use the AutMap API and never convert.  Each frame comes from
one constructor, which builds every vector once and sets the Lattices C and
Cinv of the frame's basis matrix and of its inverse.
Frame work runs on the integer T and B of Algebra.lattice_forms, which
certification reads too: products are batches on T (Algebra.products), and
C^-1 = G^-1 C^T B comes from the exact Gram matrix G = C^T B C, checked
against the frame's pattern and inverted in closed form, so no frame does an
8x8 elimination.  Each map on a frame is one certified product with C^-1
(C D C^-1 for a block D, images C^-1 for the Stab(D) map), an integer chain
whose Lattice goes straight to certification, and each 3x3 matrix read off
a frame comes from the chain C^-1 t C on t's Lattice.  An involution pair
(iota1, iota2) with product t takes one such conjugation,
iota2 = swapped_embed(m2, frame): iota1 = t iota2 is certified as a product
of certified maps.  Nothing here is cached: every linalg call runs, so that
counting passes over the same work agree.
"""

import itertools
import random
from collections import namedtuple

from . import linalg
from .composition import _dot, hermitian_row, orthogonal_complement, subalgebra_closed
from .fields import FieldError, QuadraticEtale, _cubic_separable, _has_eigenvalue_one


class AutMap:
    """An 8x8 map over k in both of its forms, with its certification state:
    `matrix`, rows of field elements (read by apply, inverse and the fixed
    spaces), and `lattice`, its linalg.Lattice, on which compose, eq and
    is_identity run.  The Lattice is computed from `matrix` unless it is
    given: certification passes in the one it already holds."""

    def __init__(self, matrix, algebra, certified, failure=None, lattice=None):
        F = algebra.field
        self.matrix = linalg.mat(matrix)
        self.lattice = linalg.lattice(F, self.matrix) if lattice is None else lattice
        self.algebra = algebra
        self.certified = certified
        self.failure = failure

    def __repr__(self):
        tag = "certified" if self.certified else f"uncertified({self.failure})"
        return f"AutMap({self.algebra.model}, {tag})"

    def apply(self, x):
        return linalg.mat_vec(self.algebra.field, self.matrix, x)

    def compose(self, other):
        F = self.algebra.field
        lat = linalg.lattice_mul(F, self.lattice, other.lattice)
        return AutMap(linalg.from_lattice(F, lat), self.algebra,
                      self.certified and other.certified, lattice=lat)

    def inverse(self):
        m = linalg.inverse(self.algebra.field, self.matrix)
        return AutMap(m, self.algebra, self.certified)

    def eq(self, other):
        """Whether both stand for the same matrix: N_a s_b = N_b s_a for the
        Lattices (N, s), or over F_p (s = 1, N the residues) N_a = N_b."""
        (a, s), (b, t) = self.lattice, other.lattice
        if self.algebra.field.kind == "prime":
            return not (a != b).any()
        return not (a * t != b * s).any()

    def is_identity(self):
        """Whether the Lattice (N, s) has s on its diagonal and no other
        nonzero entry."""
        import numpy as np

        N, s = self.lattice
        return bool(np.count_nonzero(N) == len(N) and (N.diagonal() == s).all())

    def fixed_space(self):
        """Basis of ker(M - 1): the subalgebra fixed pointwise."""
        F = self.algebra.field
        I = linalg.identity(F, self.algebra.dim)
        return linalg.nullspace(F, linalg.mat_sub(F, self.matrix, I))

    def fixed_spaces(self):
        """(ker N, ker N^dim) for N = M - 1: the pointwise-fixed space and the
        generalized one.

        A certified M is an isometry of the polar form B (certification
        checks M^T B M = B), so im N = (ker N)^perp: B(My - y, z) =
        B(My, Mz) - B(y, z) = 0 for z in ker N, and the dimensions agree.
        Hence ker N^2 = ker N, and V = ker N, exactly when B is nondegenerate
        on ker N: the Gram matrix of B on ker N has full rank.  Otherwise (a
        degenerate kernel, as for unipotent types; the identity, where the
        chain stops at once; or an uncertified M) V comes from the chain
        ker N, ker N^2, ker N^4, ..., which stops at the first kernel that
        does not grow (ker N^2j = ker N^j means the chain is stable from j
        on).  The null space basis depends only on the subspace, so V is the
        basis of nullspace(N^dim)."""
        F = self.algebra.field
        n = self.algebra.dim
        N = linalg.mat_sub(F, self.matrix, linalg.identity(F, n))
        fixed = V = linalg.nullspace(F, N)
        if self.certified and 0 < len(fixed) < n:
            gram = [[self.algebra.bilinear_norm(u, v) for v in fixed] for u in fixed]
            if linalg.rank(F, gram) == len(fixed):
                return fixed, fixed
        j = 1
        while j < n and len(V) < n:
            N, j = linalg.mat_mul(F, N, N), 2 * j
            grown = linalg.nullspace(F, N)
            if len(grown) == len(V):
                break
            V = grown
        return fixed, V


def certify_automorphism(matrix, alg):
    """Certify that `matrix` is a k-algebra automorphism of alg.

    Checks M(1) = 1 and M(e_i e_j) = M(e_i) M(e_j) for all basis pairs, which
    is complete by bilinearity: a unital multiplicative map of an octonion
    algebra is injective (the algebra is simple), and the minimal equation
    then forces it to preserve the norm.  The exact Gram identity
    M^T B M = B, with B the polar form of N, is checked as a redundant net
    (failure "norm").  On failure the AutMap is returned uncertified with
    the first failing basis pair recorded.

    Both identities run in exact integers: over F_p on residues, and over Q
    on N = d*M, with d a common denominator of M, as
    d*N(e_i e_j) = N(e_i) N(e_j) and N^T B N = d^2 B (the structure constants
    and B cleared of their own denominators).  `matrix` is a matrix over k
    (d the lcm of its denominators) or the linalg.Lattice (N, d) of an
    integer chain, which is read as it is.
    """
    import numpy as np

    F = alg.field
    lat = matrix if isinstance(matrix, linalg.Lattice) else None
    matrix = linalg.mat(matrix) if lat is None else linalg.from_lattice(F, lat)
    n = alg.dim
    if len(matrix) != n or any(len(r) != n for r in matrix):
        raise FieldError("matrix shape does not match the algebra")
    if lat is None:
        lat = linalg.lattice(F, matrix)
    one_img = linalg.mat_vec(F, matrix, alg.one)
    if not all(F.eq(a, b) for a, b in zip(one_img, alg.one)):
        return AutMap(matrix, alg, False, failure="one", lattice=lat)

    # T and B are scaled by their own lcms, which cancel: each identity is
    # linear in T and in B.  With N = d*M the identities are those for M times
    # nonzero constants, so the verdict and the first failing pair are the same.
    M, d = lat
    (T, _), (B, _) = alg.lattice_forms()
    p = F.p if F.kind == "prime" else None

    def red(a):
        # reduce each factor of a later product (keeps int64 in range) and
        # each compared difference (the object path compares residues)
        return a if p is None else a % p

    # three integer products: (i, j, m) -> d*N(e_i e_j) from T as n^2 x n,
    # and N(e_i) N(e_j) from M^T (T as n x n^2), then M^T on each (b, m)
    # slice; each side is one product of reduced factors (d = 1 over F_p),
    # so only their difference is reduced
    lhs = (T.reshape(n * n, n) @ M.T).reshape(n, n, n)
    if d != 1:
        lhs = d * lhs
    tmp = red(M.T @ T.reshape(n, n * n)).reshape(n, n, n)  # (i, b, m)
    diff = red(lhs - M.T @ tmp) != 0  # (i, j, m)
    if diff.any():
        i, j, _ = np.argwhere(diff)[0]
        return AutMap(matrix, alg, False, failure=(int(i), int(j)), lattice=lat)
    if (red(M.T @ red(B @ M)) != d * d * B).any():
        return AutMap(matrix, alg, False, failure="norm", lattice=lat)
    return AutMap(matrix, alg, True, lattice=lat)


# -- frames -------------------------------------------------------------------

# C is the linalg.Lattice of the frame's basis matrix, its columns f, U, W, e
# (split), the doubling basis 1, g, a, ga, b, gb, ab, g(ab) (field) or D, D a
# (quaternion), and Cinv the Lattice of its inverse: the integer chains of
# _in_frame_basis and _conjugate_certified start from them
SplitFrame = namedtuple("SplitFrame", ["alg", "e", "f", "U", "W", "C", "Cinv"])
FieldFrame = namedtuple("FieldFrame", ["alg", "L", "one", "g", "fs", "H", "C", "Cinv"])
QuaternionFrame = namedtuple("QuaternionFrame", ["alg", "D", "a", "C", "Cinv"])

# the frame swap on the split frame basis f, U, W, e: column j of B P is
# column _SPLIT_SWAP[j] of B
_SPLIT_SWAP = (7, 4, 5, 6, 1, 2, 3, 0)
# P itself, the Gram matrix of the polar form on that basis
_SPLIT_GRAM = tuple(tuple(int(j == _SPLIT_SWAP[i]) for j in range(8)) for i in range(8))


def _gram(alg, cols):
    """(G, Lattice of C, Lattice of C^T B) for the matrix C with columns
    `cols`: the Gram matrix G = C^T B C of the polar form B on them, over k,
    from one integer chain on the B of Algebra.lattice_forms."""
    F = alg.field
    X = linalg.lattice(F, cols)  # C^T
    CL = linalg.Lattice(X.N.T, X.s)
    CtB = linalg.lattice_mul(F, X, alg.lattice_forms()[1])
    return linalg.from_lattice(F, linalg.lattice_mul(F, CtB, CL)), CL, CtB


def _basis(F, CL, CtB, Ginv):
    """The frame fields: C, the Lattice CL of _gram, and Cinv, the Lattice of
    G^-1 C^T B for the inverse Ginv of the Gram matrix G = C^T B C of _gram:
    G^-1 C^T B C = 1, so C is invertible with that inverse."""
    return {"C": CL, "Cinv": linalg.lattice_mul(F, linalg.lattice(F, Ginv), CtB)}


def _split_frame(alg, e, f, U, W):
    """The SplitFrame on f, U, W, e.  Its Gram matrix must be the hyperbolic
    permutation P pairing f with e and u_i with w_i (N(e, f) = tr f = 1 and
    N(u_i, w_j) = -tr(u_i w_j) = delta_ij), which is its own inverse, so
    C^-1 = P C^T B."""
    F = alg.field
    G, CL, CtB = _gram(alg, (f, *U, *W, e))
    if not linalg.mat_eq(F, G, _SPLIT_GRAM):
        raise FieldError("split frame fails the pairing relations")
    return SplitFrame(alg, e, f, U, W, **_basis(F, CL, CtB, _SPLIT_GRAM))


def zorn_split_frame(alg):
    """The standard frame of the Zorn model: e the beta idempotent, U the
    v-coordinates, W the w-coordinates."""
    if alg.model != "zorn":
        raise FieldError("zorn_split_frame needs the Zorn model")
    e = alg.basis_vec(7)
    f = alg.basis_vec(0)
    U = tuple(alg.basis_vec(1 + i) for i in range(3))
    W = tuple(alg.basis_vec(4 + i) for i in range(3))
    return _split_frame(alg, e, f, U, W)


def split_frame_from_idempotent(alg, e):
    """A split frame with the standard relations, built from a proper
    idempotent e (Peirce decomposition, f = 1 - e).  ker L_e = k f + U with
    U = {x : ex = 0, xe = x}, and tr f = 1 while U has trace zero, so U is
    the null space of L_e stacked with the trace row.  u3 is rescaled by the
    lam with lam u3 (u1 u2) = -f, and W is read off the wedge products
    w1 = u2 u3, w2 = u3 u1, w3 = u1 u2.  The wedges and then the nine
    pairing relations u_i w_j = -delta_ij f are two batches of products on
    the u3 of the null space: the rescaling multiplies w1 and w2 by lam as
    well, so it multiplies each diagonal product u_i w_i by lam and each
    other one by a power of lam != 0, which keeps it zero or nonzero."""
    F = alg.field
    if not alg.eq(alg.mul(e, e), e) or alg.is_zero(e) or alg.eq(e, alg.one):
        raise FieldError("e is not a proper idempotent")
    f = alg.sub(alg.one, e)
    U = linalg.nullspace(F, alg.left_mul_matrix(e) + (alg.trace_row,))
    if len(U) != 3:
        raise FieldError("Peirce spaces are not 3-dimensional (input not split?)")
    u1, u2, u3 = U
    W = alg.products((u2, u3, u1), (u3, u1, u2))
    pairs = tuple(itertools.product(range(3), repeat=2))
    R = alg.products([U[i] for i, _ in pairs], [W[j] for _, j in pairs])
    # u_i w_j = -delta_ij f and w_i u_j = -delta_ij e in a standard frame
    pairing = R[-1]  # u3 (u1 u2)
    idx = next(i for i in range(alg.dim) if not F.is_zero(f[i]))
    if F.is_zero(pairing[idx]):
        raise FieldError("frame completion failed")
    lam = F.div(F.neg(f[idx]), pairing[idx])
    minus_f, zero = alg.neg(f), alg.zero_vec()
    if not linalg.mat_eq(F, tuple(alg.scale(lam, r) if i == j else r for (i, j), r in zip(pairs, R)),
                         tuple(minus_f if i == j else zero for i, j in pairs)):
        raise FieldError("split frame fails the pairing relations")
    U = (u1, u2, alg.scale(lam, u3))
    W = (alg.scale(lam, W[0]), alg.scale(lam, W[1]), W[2])
    return _split_frame(alg, e, f, U, W)


def _conjugate_certified(frame, D, failure):
    """The automorphism C D C^-1 of the frame's algebra, certified on the
    Lattice of one integer chain from the frame's C and Cinv; raises
    FieldError with the text `failure` and the certification failure when it
    does not certify."""
    F = frame.alg.field
    M = linalg.lattice_mul(F, linalg.lattice_mul(F, frame.C, linalg.lattice(F, D)), frame.Cinv)
    out = certify_automorphism(M, frame.alg)
    if not out.certified:
        raise FieldError(f"{failure}: {out.failure}")
    return out


def _in_frame_basis(t, frame):
    """The 8x8 matrix of t in the frame basis: C^-1 t C, one integer chain
    from the frame's Cinv, t's Lattice and the frame's C."""
    F = frame.alg.field
    return linalg.from_lattice(
        F, linalg.lattice_mul(F, linalg.lattice_mul(F, frame.Cinv, t.lattice), frame.C))


def _frame_block(A, frame):
    """The 8x8 matrix in the frame basis of the map that sl3_embed (split
    frame) or su_embed (field frame) makes of A, without their checks on A."""
    F = frame.alg.field
    B = [[F.zero] * 8 for _ in range(8)]
    if isinstance(frame, SplitFrame):
        At_inv = linalg.transpose(linalg.inverse3(F, A))
        B[0][0] = B[7][7] = F.one
        for i in range(3):
            for j in range(3):
                B[1 + i][1 + j] = A[i][j]
                B[4 + i][4 + j] = At_inv[i][j]
        return B
    c = frame.L.c
    B[0][0] = B[1][1] = F.one
    for j in range(3):
        for i in range(3):
            x0, x1 = A[i][j]
            # column of f_j gets (x0, x1) in the (f_i, g f_i) slots,
            # column of g f_j gets (c x1, x0).
            B[2 + 2 * i][2 + 2 * j] = x0
            B[3 + 2 * i][2 + 2 * j] = x1
            B[2 + 2 * i][3 + 2 * j] = F.mul(c, x1)
            B[3 + 2 * i][3 + 2 * j] = x0
    return B


def _swapped(B, frame):
    """B P for the frame's swap P in the frame basis, as an operation on the
    columns of B: the permutation exchanging f with e and U with W on a
    split frame, the signs +,-,+,-,... on the doubling basis 1, g, a, ga,
    b, gb, ab, g(ab) of a field frame (sigma on L, fixing a, b and ab)."""
    if isinstance(frame, SplitFrame):
        return [[row[i] for i in _SPLIT_SWAP] for row in B]
    neg = frame.alg.field.neg
    return [[neg(x) if j % 2 else x for j, x in enumerate(row)] for row in B]


def sl3_embed(A, frame):
    """The automorphism acting as the identity on L = span(e, f), as A on U
    and as transpose(A)^-1 on W, for A in SL(3, k)."""
    F = frame.alg.field
    if not F.eq(linalg.det3(F, A), F.one):
        raise FieldError("sl3_embed needs det A = 1")
    return _conjugate_certified(
        frame, _frame_block(A, frame),
        "sl3_embed produced an uncertified map",
    )


def swapped_embed(A, frame):
    """embed(A, frame).compose(frame_swap(frame)), embed = sl3_embed on a
    split frame and su_embed on a field frame, as the one conjugation
    C (B P) C^-1 of the frame block B of A and the frame's swap P, certified
    once.  A is not checked to lie in SL(3) or SU(H): certification decides
    whether the map is an automorphism."""
    return _conjugate_certified(
        frame, _swapped(_frame_block(A, frame), frame),
        "the swapped embedding failed to certify",
    )


def zorn_swap(alg):
    """The order-2 automorphism of the Zorn model swapping the diagonal and
    exchanging the off-diagonal vectors."""
    if alg.model != "zorn":
        raise FieldError("zorn_swap needs the Zorn model")
    F = alg.field
    perm = [7, 4, 5, 6, 1, 2, 3, 0]
    M = [[F.zero] * 8 for _ in range(8)]
    for j, i in enumerate(perm):
        M[i][j] = F.one
    out = certify_automorphism(M, alg)
    if not out.certified:
        raise FieldError(f"the Zorn swap failed to certify: {out.failure}")
    return out


def frame_swap(frame):
    """The order-2 automorphism of a frame that leaves L invariant and acts
    on it by its nontrivial involution, C P C^-1 for the swap P of _swapped:
    on a split frame it exchanges e with f and U with W (the Zorn swap on
    the standard Zorn frame), on a field frame it acts as sigma on L and
    fixes a, b and ab."""
    P = _swapped(linalg.identity(frame.alg.field, 8), frame)
    return _conjugate_certified(frame, P, "the frame swap failed to certify")


def quadratic_subfield_frame(alg, g_vec):
    """FieldFrame for L = k(g) inside alg: completes g to a doubling basis
    a, b, ab of the orthogonal complement and reads the hermitian Gram off
    the frame's Gram matrix G.

    g must be trace zero with g^2 = c a nonsquare in k.  The hermitian form
    h(x, y) = N(x, y) + g^-1 N(g x, y) on L^perp, N(., .) the polar form, has
    h(f_i, f_j) = (G[2i+2][2j+2], G[2i+3][2j+2] / c) on the basis vectors
    f = a, b, ab, since column 2i + 3 of C is g f_i.  So G is diagonal
    exactly when the f_i are h-orthogonal with h(f_i, f_i) in k and the
    doubling basis is orthogonal, and then H_i = G[2i+2][2i+2] and
    C^-1 = G^-1 C^T B.
    """
    F = alg.field
    c = _square_scalar(alg, g_vec)
    if c is None or F.is_square(c):
        raise FieldError("g must generate a quadratic field subalgebra")
    L = QuadraticEtale(F, c)
    one = alg.one
    span_L = (one, g_vec)
    a = _orthogonal_anisotropic(alg, span_L)
    ga = alg.mul(g_vec, a)
    b = _orthogonal_anisotropic(alg, span_L + (a, ga))
    ab = alg.mul(a, b)
    gb, gab = alg.products((g_vec, g_vec), (b, ab))
    G, CL, CtB = _gram(alg, (one, g_vec, a, ga, b, gb, ab, gab))
    H = []
    for i in range(3):
        r = 2 + 2 * i
        if any(not F.is_zero(G[q][2 + 2 * j]) for j in range(i + 1, 3) for q in (r, r + 1)):
            raise FieldError("doubling frame is not orthogonal")
        if not F.is_zero(G[r + 1][r]):
            raise FieldError("hermitian diagonal is not in k")
        H.append(G[r][r])
    diag = [G[i][i] for i in range(8)]
    if not linalg.mat_eq(F, G, _block_diagonal(F, *(((x,),) for x in diag))):
        raise FieldError("doubling frame is not orthogonal")
    Ginv = _block_diagonal(F, *(((F.inv(x),),) for x in diag))
    return FieldFrame(alg, L, one, g_vec, (a, b, ab), tuple(H), **_basis(F, CL, CtB, Ginv))


def _square_scalar(alg, x):
    """s with x^2 = s 1, or None when x^2 is not a scalar."""
    F = alg.field
    sq = alg.mul(x, x)
    s = next(F.div(sq[i], alg.one[i]) for i in range(alg.dim) if not F.is_zero(alg.one[i]))
    return s if alg.eq(sq, alg.scale(s, alg.one)) else None


def first_anisotropic(alg, vectors):
    """The first of v_i, then of v_i + v_j (i < j), with nonzero norm, or None.
    In characteristic not 2, None means the norm vanishes on the whole span:
    its polar form N(v + w) - N(v) - N(w) is then zero on the v_i."""
    F = alg.field
    sums = (alg.add(v, w) for i, v in enumerate(vectors) for w in vectors[i + 1 :])
    return next(
        (v for v in itertools.chain(vectors, sums) if not F.is_zero(alg.norm(v))), None
    )


def _orthogonal_anisotropic(alg, span):
    """A vector orthogonal to `span` (norm form) with nonzero norm."""
    v = first_anisotropic(alg, list(orthogonal_complement(alg, span)))
    if v is None:
        raise FieldError("no anisotropic vector in the orthogonal complement")
    return v


def su_embed(A, frame):
    """The automorphism fixing L pointwise whose restriction to the
    orthogonal complement, as an L-space in the frame basis, is A in SU(H)."""
    if not in_su(A, frame.L, frame.H):
        raise FieldError("su_embed needs A in SU(H)")
    return _conjugate_certified(
        frame, _frame_block(A, frame),
        "su_embed produced an uncertified map",
    )


def sigma_h(L, H, X):
    """The adjoint X -> H^-1 conj(X)^t H for the diagonal Gram H over k:
    entry (i, j) is (H_j / H_i) sigma(X[j][i])."""
    k = L.base
    return tuple(
        tuple(L.scalar_mul(k.div(H[j], H[i]), L.sigma(X[j][i])) for j in range(3))
        for i in range(3)
    )


def in_unitary(A, L, H):
    """Whether sigma_h(A) A = 1, i.e. tA H conj(A) = H for the diagonal
    hermitian Gram H over k."""
    return linalg.mat_eq(L, linalg.mat_mul(L, sigma_h(L, H, A), A), linalg.identity(L, 3))


def in_su(A, L, H):
    return L.eq(linalg.det3(L, A), L.one) and in_unitary(A, L, H)


def extract_frame_matrix(B, frame):
    """The 3x3 matrix on the frame of a map t fixing the frame algebra
    pointwise, read off its frame block B = C^-1 t C (`_in_frame_basis`):
    over k on U for a split frame, over L on the f_i for a field frame."""
    if isinstance(frame, SplitFrame):
        return tuple(tuple(B[1 + i][1 + j] for j in range(3)) for i in range(3))
    return tuple(
        tuple((B[2 + 2 * i][2 + 2 * j], B[3 + 2 * i][2 + 2 * j]) for j in range(3))
        for i in range(3)
    )


def quaternion_frame(alg, D, a=None):
    """QuaternionFrame for the quaternion subalgebra spanned by the 4 vectors
    D, with the basis D, D a of alg.  D must be closed with a nondegenerate
    norm (its Gram matrix has rank 4), and the doubling vector a orthogonal
    to D with N(a) != 0, by default `_orthogonal_anisotropic`'s; then D a is
    the orthogonal complement of D, so the 8 columns are a basis.  The
    frame's Gram matrix is then G = diag(G_D, N(a) G_D) for the Gram matrix
    G_D of D (N(u a, v a) = N(a) N(u, v)): G_D is inverted once, which is
    the rank test, and C^-1 = G^-1 C^T B."""
    F = alg.field
    D = tuple(D)
    gram_inv = None
    if len(D) == 4:
        gram = _gram(alg, D)[0]
        try:
            gram_inv = linalg.inverse(F, gram)
        except ZeroDivisionError:
            pass
    if gram_inv is None:
        raise FieldError("need 4 vectors with a nondegenerate norm Gram matrix")
    if not subalgebra_closed(alg, D):
        raise FieldError("the span is not closed under multiplication")
    if a is None:
        a = _orthogonal_anisotropic(alg, D)
    elif F.is_zero(alg.norm(a)) or not all(F.is_zero(alg.bilinear_norm(d, a)) for d in D):
        raise FieldError("doubling vector must be anisotropic and orthogonal to D")
    G, CL, CtB = _gram(alg, D + alg.products(D, (a,) * 4))
    na = alg.norm(a)
    if not linalg.mat_eq(F, G, _block_diagonal(F, gram, linalg.scalar_mat(F, na, gram))):
        raise FieldError("doubling vector must be anisotropic and orthogonal to D")
    Ginv = _block_diagonal(F, gram_inv, linalg.scalar_mat(F, F.inv(na), gram_inv))
    return QuaternionFrame(alg, D, a, **_basis(F, CL, CtB, Ginv))


def _block_diagonal(F, *blocks):
    """The block diagonal matrix of the square matrices `blocks`."""
    n, rows = sum(map(len, blocks)), []
    for b in blocks:
        z = (F.zero,) * len(rows)
        rows += [z + tuple(r) + (F.zero,) * (n - len(z) - len(b)) for r in b]
    return tuple(rows)


def stab_map(frame, x, y):
    """The automorphism u + v a -> x u x^-1 + (y v x^-1) a of the stabilizer
    of D (Springer-Veldkamp, ch. 2) for x, y in D with N(x) = N(y) != 0, as
    the one certified product of its images of the frame basis with C^-1.
    (1, p) with N(p) = 1 fixes D pointwise, (1, -1) is the involution fixing
    D, and (u, u) extends conjugation by u."""
    alg = frame.alg
    F = alg.field
    n = alg.norm(x)
    if F.is_zero(n) or not F.eq(n, alg.norm(y)):
        raise FieldError("the Stab(D) map needs N(x) = N(y) != 0")
    xinv = alg.scale(F.inv(n), alg.conj(x))
    # x d x^-1 and (y d) x^-1 for d in D, then the second four times a
    D = frame.D
    images = alg.products(alg.products((x,) * 4 + (y,) * 4, D + D), (xinv,) * 8)
    images = images[:4] + alg.products(images[4:], (frame.a,) * 4)
    out = certify_automorphism(
        linalg.lattice_mul(F, linalg.lattice(F, linalg.transpose(images)), frame.Cinv), alg
    )
    if not out.certified:
        raise FieldError(f"the Stab(D) map failed to certify: {out.failure}")
    return out


def involution_from_quaternion(alg, D_basis):
    """The involution fixing the quaternion subalgebra spanned by D_basis
    pointwise and acting as -1 on its orthogonal complement: the Stab(D) map
    of (1, -1)."""
    return stab_map(quaternion_frame(alg, D_basis), alg.one, alg.neg(alg.one))


def involution_conjugacy_classes(alg):
    """Over a finite field all quaternion algebras are split, so involutions
    form a single conjugacy class.  Returns (1, witness) where the witness
    carries two independently built involutions and a certified conjugator:
    the map C2 C1^-1 between the quaternion frames of two triples g, a, b with
    the same norm data.
    """
    F = alg.field
    if F.kind != "prime":
        raise FieldError("involution class count is implemented for finite fields")
    rng = random.Random(7)
    one, minus_one = alg.one, alg.neg(alg.one)
    g = _trace_zero_split_generator(alg)
    spanL = (one, g)
    a1 = _orthogonal_anisotropic(alg, spanL)
    D1 = (one, g, a1, alg.mul(g, a1))
    frame1 = quaternion_frame(alg, D1)

    # a second, randomly found triple with the same norm data
    na, nb = alg.norm(a1), alg.norm(frame1.a)
    for _ in range(2000):
        a2 = _random_orthogonal_with_norm(alg, spanL, na, rng)
        if a2 is None:
            continue
        D2 = (one, g, a2, alg.mul(g, a2))
        if linalg.rank(F, linalg.mat(D1 + (a2,))) == 4:
            continue  # same quaternion subalgebra; want an independent one
        b2 = _random_orthogonal_with_norm(alg, D2, nb, rng)
        if b2 is None:
            continue
        frame2 = quaternion_frame(alg, D2, b2)
        conj = certify_automorphism(linalg.lattice_mul(F, frame2.C, frame1.Cinv), alg)
        if not conj.certified:
            continue
        i1 = stab_map(frame1, one, minus_one)
        i2 = stab_map(frame2, one, minus_one)
        check = conj.compose(i1).compose(conj.inverse())
        if not check.eq(i2):
            raise FieldError("transported involution mismatch")
        return 1, {"iota1": i1, "iota2": i2, "conjugator": conj}
    raise FieldError("no independent second triple found")


def _trace_zero_split_generator(alg):
    """A trace-zero vector with square +1 (generates a split quadratic
    subalgebra).  For the Zorn model this is the diagonal difference."""
    F = alg.field
    if alg.model == "zorn":
        v = [F.zero] * 8
        v[0] = F.neg(F.one)
        v[7] = F.one
        return tuple(v)
    from .composition import find_proper_idempotent

    e = find_proper_idempotent(alg)
    return alg.sub(alg.one, alg.add(e, e))  # 1 - 2e squares to 1


def _random_orthogonal_with_norm(alg, span, target, rng):
    F = alg.field
    comp = orthogonal_complement(alg, span)
    for _ in range(50):
        coeffs = [F.random(rng) for _ in comp]
        v = alg.zero_vec()
        for cf, w in zip(coeffs, comp):
            v = alg.add(v, alg.scale(cf, w))
        nv = alg.norm(v)
        if F.is_zero(nv):
            continue
        r = F.div(target, nv)
        if F.is_square(r):
            return alg.scale(F.sqrt(r), v)
    return None


# -- seeded samplers ----------------------------------------------------------

def random_sl3(F, rng, avoid_eigenvalue_one=False, separable=None):
    """A seeded random element of SL(3, k) over a finite field, optionally
    filtered on chi(1) != 0 and/or separability of the characteristic
    polynomial."""
    while True:
        A = tuple(tuple(F.random(rng) for _ in range(3)) for _ in range(3))
        d = linalg.det3(F, A)
        if F.is_zero(d):
            continue
        # scale one row to make det 1 when possible: det(sA row) scales by s
        s = F.inv(d)
        A = (tuple(F.mul(s, x) for x in A[0]),) + A[1:]
        chi = linalg.charpoly3(F, A)
        if avoid_eigenvalue_one and _has_eigenvalue_one(F, chi):
            continue
        if separable is not None and _cubic_separable(F, chi) != separable:
            continue
        return A


def random_su(L, H, rng, separable=None, avoid_eigenvalue_one=False):
    """A seeded random element of SU(H) over L = F_{q^2}, via hermitian
    Gram-Schmidt on a random invertible matrix followed by a determinant fix.
    """
    k = L.base
    while True:
        P = tuple(tuple(L.random(rng) for _ in range(3)) for _ in range(3))
        U = _unitary_from_columns(L, H, P)
        if U is None:
            continue
        d = linalg.det3(L, U)
        dinv = L.inv(d)
        # scale the first column by 1/d; valid since N(d) = 1
        U = linalg.transpose(U)
        U = (tuple(L.mul(dinv, x) for x in U[0]),) + U[1:]
        A = linalg.transpose(U)
        chi = linalg.charpoly3(L, A)
        if avoid_eigenvalue_one and _has_eigenvalue_one(L, chi):
            continue
        if separable is not None and _cubic_separable(L, chi) != separable:
            continue
        return A


def _unitary_from_columns(L, H, P):
    """Hermitian Gram-Schmidt of the columns of P against diag(H), rescaled so
    that h(c_i, c_i) = H[i]; returns a matrix in U(H) or None."""
    from .composition import _solve_norm

    k = L.base
    out = []
    for v in linalg.transpose(P):
        for w in out:
            row = hermitian_row(L, H, w)
            coef = L.div(_dot(L, v, row), _dot(L, w, row))
            v = tuple(L.sub(x, L.mul(coef, y)) for x, y in zip(v, w))
        if L.is_zero(_dot(L, v, hermitian_row(L, H, v))):
            return None
        out.append(v)
    # rescale: h(s v, s v) = N(s) h(v, v); need N(s) = H[i] / h(v, v)
    fixed = []
    for i, v in enumerate(out):
        hv = _dot(L, v, hermitian_row(L, H, v))  # sigma-fixed, so an element of k
        target = k.div(H[i], L.to_base(hv))
        s = _solve_norm(L, target)
        if s is None:
            return None
        fixed.append(tuple(L.mul(s, x) for x in v))
    return linalg.transpose(linalg.mat(fixed))
