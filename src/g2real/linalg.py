"""Exact linear algebra over a field handle.

Matrices are immutable tuples of tuples of raw field elements.  Over F_p and
Q the 3x3 closed forms (det3, adjugate3, inverse3, charpoly3, the 3x3
mat_mul, combination), mat_vec at every length and the entrywise mat_add,
mat_sub and mat_eq run on Python's operators, reduced mod p once per entry
over F_p; larger products run on numpy integer arrays, the Lattice (N, s)
of a matrix (int64 residues when no sum can overflow, Python ints
otherwise; over Q the common-denominator numerators, divided back once by
from_lattice), which also carry chains of products (lattice_mul) that
convert each operand once (automorphisms.AutMap and the frames hold the
Lattices of their 8x8 maps); and _echelon (inverse, rank, nullspace, solve)
runs on plain residues or Fractions with the operators inlined.  Over
L = F_p(g) the 3x3 mat_mul and det3 run on the coordinate pairs, reduced
mod p once per coordinate.  For the rest of L, for k x k and for the cubic algebras
the field handle supplies the arithmetic.  Either way the entries returned
are plain ints, Fractions or tuples of those.  Gaussian elimination requires an honest field
(division), so callers must not pass split quadratic algebras to it.
The 3x3 closed forms and norm_form3 use ring operations only, so they hold
over any commutative ring: the cubic algebras of fields.py take their norms
with det3, and det3 also runs on the numpy arrays of the coset sweep: on
the add, sub and mul of its F_p handle, and on the closed form of L for
its L handle, which has the kind of L.
krylov_similarity gives K = [v, Av, A^2 v] for a cyclic vector v of a
regular 3x3 A, whose search always ends for a regular matrix; the product
K_left K_right^-1 of two similar regular matrices' Krylov matrices is an
invertible intertwiner.  solve_sylvester_space, which only the decisions
over Q use, returns the whole intertwiner space in the echelon basis of
its 9x9 linear system.  min_equals_char3 decides regularity by the same
fixed candidates for a cyclic vector first, and by the rank of I, A, A^2
only when they all miss.
lex_vectors runs coefficient vectors lazily, so a large field costs
nothing before its elements are reached.  krylov_similarity chains it
after its curve scan on every finite field (it is reached only on a field
of fewer than seven elements), and reality._Search runs the rational grid
on it, handing each vector to the caller to test on a closed form (such as
the norm form of k[A]) and forming a matrix only when it needs one
(combination).
Nothing here draws random numbers.
"""

import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction


def mat(rows):
    return tuple(tuple(r) for r in rows)


def identity(F, n):
    z = F.zero
    return tuple([(z,) * i + (F.one,) + (z,) * (n - 1 - i) for i in range(n)])


def zeros(F, n, m):
    return tuple(tuple(F.zero for _ in range(m)) for _ in range(n))


def transpose(a):
    return tuple(zip(*a))


def _modulus(F):
    """p over F_p, 0 over Q and None for every other handle (and for the
    sweep's array handles): over F_p and Q the closed
    forms run on Python's operators, reduced mod p once per entry over F_p."""
    kind = getattr(F, "kind", None)
    return F.p if kind == "prime" else 0 if kind == "rationals" else None


def _quadratic(F):
    """(p, c) over L = F_p(g), g^2 = c, whose 3x3 closed forms run on the
    coordinate pairs, and None for every other handle."""
    if getattr(F, "kind", None) == "field" and F.base.kind == "prime":
        return F.base.p, F.c
    return None


def mat_add(F, a, b):
    p = _modulus(F)
    if p:
        return tuple([tuple([(x + y) % p for x, y in zip(ra, rb)]) for ra, rb in zip(a, b)])
    return tuple(tuple(F.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(F, a, b):
    p = _modulus(F)
    if p:
        return tuple([tuple([(x - y) % p for x, y in zip(ra, rb)]) for ra, rb in zip(a, b)])
    return tuple(tuple(F.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scalar_mat(F, c, a):
    return tuple(tuple(F.mul(c, x) for x in r) for r in a)


# an integer matrix or tensor N with its scale s: the array s*a of a matrix a
# over F_p (s = 1, N the residues) or Q (s a common denominator)
Lattice = namedtuple("Lattice", ["N", "s"])


def lattice(F, a):
    """The Lattice (N, s) with N = s*a an integer numpy array, for a matrix
    or tensor a over F_p or Q.  Over F_p, s = 1 and N holds the residues:
    int64 when n*(p - 1)**2 < 2**63 for n the longer of the first two sides,
    so that sums of n products stay in range, and Python ints otherwise.
    Over Q, s is the lcm of the entries' denominators and N holds Python
    ints."""
    import numpy as np

    if F.kind == "prime":
        small = max(len(a), len(a[0])) * (F.p - 1) ** 2 < 2**63
        return Lattice(np.array(a, dtype=np.int64 if small else object) % F.p, 1)
    a = np.asarray(a, dtype=object)
    s = math.lcm(*(x.denominator for x in a.flat))
    N = np.array([x.numerator * (s // x.denominator) for x in a.flat], dtype=object)
    return Lattice(N.reshape(a.shape), s)


def lattice_mul(F, a, b):
    """The Lattice of the product of two Lattices: (N_a N_b, s_a s_b), the
    residues reduced after the product over F_p.  Each sum runs over the
    shared side, at most the length that lattice chose int64 for."""
    N = a.N @ b.N
    return Lattice(N % F.p if F.kind == "prime" else N, a.s * b.s)


def from_lattice(F, a):
    """The matrix N / s of a Lattice with 2-dimensional N, as rows of plain
    residues over F_p and of Fractions over Q."""
    rows = a.N.tolist()
    if F.kind == "prime":
        return tuple(map(tuple, rows))
    s = a.s
    return tuple(tuple(Fraction(x, s) for x in r) for r in rows)


def mat_mul(F, a, b):
    p = _modulus(F)
    if p is not None and len(a) == 3 and len(b) == 3 and len(b[0]) == 3:
        (i, j, k), (l, m, n), (o, q, g) = a
        (x, y, z), (u, v, w), (r, s, t) = b
        if p:
            return (
                ((i * x + j * u + k * r) % p, (i * y + j * v + k * s) % p, (i * z + j * w + k * t) % p),
                ((l * x + m * u + n * r) % p, (l * y + m * v + n * s) % p, (l * z + m * w + n * t) % p),
                ((o * x + q * u + g * r) % p, (o * y + q * v + g * s) % p, (o * z + q * w + g * t) % p),
            )
        return (
            (i * x + j * u + k * r, i * y + j * v + k * s, i * z + j * w + k * t),
            (l * x + m * u + n * r, l * y + m * v + n * s, l * z + m * w + n * t),
            (o * x + q * u + g * r, o * y + q * v + g * s, o * z + q * w + g * t),
        )
    pc = _quadratic(F) if p is None else None
    if pc and len(a) == 3 and len(b) == 3 and len(b[0]) == 3:
        return _mat_mul3_quadratic(*pc, a, b)
    if p is not None and a and b:
        return from_lattice(F, lattice_mul(F, lattice(F, a), lattice(F, b)))
    bt = transpose(b)
    out = []
    for row in a:
        orow = []
        for col in bt:
            s = F.zero
            for x, y in zip(row, col):
                s = F.add(s, F.mul(x, y))
            orow.append(s)
        out.append(tuple(orow))
    return tuple(out)


def _mat_mul3_quadratic(p, c, a, b):
    """The 3x3 product over L = F_p(g), g^2 = c, on the coordinate pairs:
    each entry sum_k (x0 + x1 g)(y0 + y1 g) is (sum x0 y0 + c sum x1 y1,
    sum x0 y1 + x1 y0), reduced mod p once per coordinate."""
    b0, b1, b2 = b
    out = []
    for (x0, x1), (y0, y1), (z0, z1) in a:
        row = []
        for (u0, u1), (v0, v1), (w0, w1) in zip(b0, b1, b2):
            row.append((
                (x0 * u0 + y0 * v0 + z0 * w0 + c * (x1 * u1 + y1 * v1 + z1 * w1)) % p,
                (x0 * u1 + x1 * u0 + y0 * v1 + y1 * v0 + z0 * w1 + z1 * w0) % p,
            ))
        out.append(tuple(row))
    return tuple(out)


def mat_vec(F, a, v):
    p = _modulus(F)
    if p is not None and len(v) == 3:
        x, y, z = v
        if p:
            return tuple([(i * x + j * y + k * z) % p for i, j, k in a])
        return tuple([i * x + j * y + k * z for i, j, k in a])
    if p:
        return tuple([sum(map(operator.mul, row, v)) % p for row in a])
    if p is not None:
        return tuple([sum(map(operator.mul, row, v), F.zero) for row in a])
    out = []
    for row in a:
        s = F.zero
        for x, y in zip(row, v):
            s = F.add(s, F.mul(x, y))
        out.append(s)
    return tuple(out)


def power(mul, one, x, n):
    """x^n for n >= 0 by square-and-multiply with the product mul, without a
    product by `one` or a square past the top bit: x^8 takes three products."""
    r = None
    while n:
        if n & 1:
            r = x if r is None else mul(r, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if r is None else r


def mat_eq(F, a, b):
    p = _modulus(F)
    if p is not None and a == b:
        return True
    if p:
        return all((x - y) % p == 0 for ra, rb in zip(a, b) for x, y in zip(ra, rb))
    return all(F.eq(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def map_entries(f, a):
    return tuple(tuple(f(x) for x in r) for r in a)


def _echelon(F, a):
    """Row-reduce; returns (reduced rows as lists, pivot column list).  Over
    F_p the rows hold plain residues and over Q Fractions, updated with the
    operators inlined: the same pivots and rows as through the handle.  The
    pivot row is zero left of its column c, so each scale and each row
    operation runs on the entries from c on and keeps the ones before."""
    if F.kind == "prime":
        p = F.p
        rows = [[x % p for x in r] for r in a]
        scale = lambda c, u: [c * x % p for x in u]
        axpy = lambda f, u, v: [(x - f * y) % p for x, y in zip(u, v)]
        nonzero = bool
    elif F.kind == "rationals":
        rows = [list(r) for r in a]
        scale = lambda c, u: [c * x for x in u]
        axpy = lambda f, u, v: [x - f * y for x, y in zip(u, v)]
        nonzero = bool
    else:
        rows = [list(r) for r in a]
        scale = lambda c, u: [F.mul(c, x) for x in u]
        axpy = lambda f, u, v: [F.sub(x, F.mul(f, y)) for x, y in zip(u, v)]
        nonzero = lambda x: not F.is_zero(x)
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if nonzero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row = rows[r]
        tail = scale(F.inv(row[c]), row[c:])
        rows[r] = row[:c] + tail
        for i in range(n):
            u = rows[i]
            if i != r and nonzero(u[c]):
                rows[i] = u[:c] + axpy(u[c], u[c:], tail)
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def rank(F, a):
    if not a:
        return 0
    _, pivots = _echelon(F, a)
    return len(pivots)


def nullspace(F, a):
    """Basis (tuple of vectors) of the right null space of a."""
    if not a:
        return ()
    rows, pivots = _echelon(F, a)
    m = len(a[0])
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero] * m
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(rows[r][fc])
        basis.append(tuple(v))
    return tuple(basis)


def solve(F, a, b):
    """One solution x of a x = b, or None when inconsistent."""
    n = len(a)
    m = len(a[0])
    aug = [list(r) + [bv] for r, bv in zip(a, b)]
    rows, pivots = _echelon(F, aug)
    for r in rows:
        if all(F.is_zero(x) for x in r[:m]) and not F.is_zero(r[m]):
            return None
    x = [F.zero] * m
    for r, pc in enumerate(pivots):
        if pc < m:
            x[pc] = rows[r][m]
    return tuple(x)


def inverse(F, a):
    n = len(a)
    aug = [list(r) + [F.one if i == j else F.zero for j in range(n)] for i, r in enumerate(a)]
    rows, pivots = _echelon(F, aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def charpoly3(F, a):
    """Characteristic polynomial X^3 - tr X^2 + s2 X - det of a 3x3 matrix,
    returned low-first as (c0, c1, c2) with X^3 + c2 X^2 + c1 X + c0."""
    p = _modulus(F)
    if p is not None:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
        m00 = a11 * a22 - a12 * a21
        d = a00 * m00 + a01 * (a12 * a20 - a10 * a22) + a02 * (a10 * a21 - a11 * a20)
        s2 = m00 + a00 * a22 - a02 * a20 + a00 * a11 - a01 * a10
        tr = a00 + a11 + a22
        return ((-d) % p, s2 % p, (-tr) % p) if p else (-d, s2, -tr)
    tr = F.add(F.add(a[0][0], a[1][1]), a[2][2])
    m00 = F.sub(F.mul(a[1][1], a[2][2]), F.mul(a[1][2], a[2][1]))
    m11 = F.sub(F.mul(a[0][0], a[2][2]), F.mul(a[0][2], a[2][0]))
    m22 = F.sub(F.mul(a[0][0], a[1][1]), F.mul(a[0][1], a[1][0]))
    s2 = F.add(F.add(m00, m11), m22)
    d = det3(F, a)
    return (F.neg(d), s2, F.neg(tr))


def det3(F, a):
    p = _modulus(F)
    if p is not None:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
        d = a00 * (a11 * a22 - a12 * a21) + a01 * (a12 * a20 - a10 * a22) + a02 * (a10 * a21 - a11 * a20)
        return d % p if p else d
    pc = _quadratic(F)
    if pc:
        return _det3_quadratic(*pc, a)
    t1 = F.mul(a[0][0], F.sub(F.mul(a[1][1], a[2][2]), F.mul(a[1][2], a[2][1])))
    t2 = F.mul(a[0][1], F.sub(F.mul(a[1][2], a[2][0]), F.mul(a[1][0], a[2][2])))
    t3 = F.mul(a[0][2], F.sub(F.mul(a[1][0], a[2][1]), F.mul(a[1][1], a[2][0])))
    return F.add(F.add(t1, t2), t3)


def _det3_quadratic(p, c, a):
    """det3 over L = F_p(g), g^2 = c, on the coordinate pairs: the cofactor
    expansion along the first row, with each 2x2 minor and each product
    (x0 + x1 g)(y0 + y1 g) = (x0 y0 + c x1 y1, x0 y1 + x1 y0) left
    unreduced and the two coordinates reduced mod p once, at the end.  On
    residues and for 1 <= c < p no partial sum passes 3 (1 + 3c) (p - 1)^3."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    d0 = d1 = 0
    # (x0, x1) times the minor (y0, y1)(z0, z1) - (u0, u1)(v0, v1)
    for (x0, x1), (y0, y1), (z0, z1), (u0, u1), (v0, v1) in (
        (a00, a11, a22, a12, a21), (a01, a12, a20, a10, a22), (a02, a10, a21, a11, a20)
    ):
        m0 = y0 * z0 + c * (y1 * z1) - u0 * v0 - c * (u1 * v1)
        m1 = y0 * z1 + y1 * z0 - u0 * v1 - u1 * v0
        d0 = d0 + x0 * m0 + c * (x1 * m1)
        d1 = d1 + x0 * m1 + x1 * m0
    return (d0 % p, d1 % p)


def adjugate3(F, a):
    p = _modulus(F)
    if p is not None:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
        adj = (
            (a11 * a22 - a12 * a21, a02 * a21 - a01 * a22, a01 * a12 - a02 * a11),
            (a12 * a20 - a10 * a22, a00 * a22 - a02 * a20, a02 * a10 - a00 * a12),
            (a10 * a21 - a11 * a20, a01 * a20 - a00 * a21, a00 * a11 - a01 * a10),
        )
        return tuple((x % p, y % p, z % p) for x, y, z in adj) if p else adj
    c = [[None] * 3 for _ in range(3)]
    idx = ((1, 2), (0, 2), (0, 1))
    for i in range(3):
        for j in range(3):
            r0, r1 = idx[i]
            c0, c1 = idx[j]
            minor = F.sub(F.mul(a[r0][c0], a[r1][c1]), F.mul(a[r0][c1], a[r1][c0]))
            c[j][i] = minor if (i + j) % 2 == 0 else F.neg(minor)
    return mat(c)


def inverse3(F, a):
    """adj(a) / det a, with det a expanded along the first row against the
    first column of the adjugate."""
    adj = adjugate3(F, a)
    p = _modulus(F)
    if p is not None:
        d = a[0][0] * adj[0][0] + a[0][1] * adj[1][0] + a[0][2] * adj[2][0]
        d = d % p if p else d
    else:
        d = F.add(F.add(F.mul(a[0][0], adj[0][0]), F.mul(a[0][1], adj[1][0])), F.mul(a[0][2], adj[2][0]))
    if F.is_zero(d):
        raise ZeroDivisionError("matrix is singular")
    dinv = F.inv(d)
    if p:
        return tuple((dinv * x % p, dinv * y % p, dinv * z % p) for x, y, z in adj)
    return scalar_mat(F, dinv, adj)


def norm_form3(F, chi):
    """The cubic form N(c) = det(c0 I + c1 A + c2 A^2) for every 3x3 A with
    characteristic polynomial chi = charpoly3(F, A): the norm from k[A] of
    c0 + c1 theta + c2 theta^2.  In the elementary symmetric functions e1,
    e2, e3 of the roots theta_i (chi = X^3 - e1 X^2 + e2 X - e3),
        N = c0^3 + e1 c0^2 c1 + (e1^2 - 2 e2) c0^2 c2 + e2 c0 c1^2
            + (e1 e2 - 3 e3) c0 c1 c2 + (e2^2 - 2 e1 e3) c0 c2^2
            + e3 c1^3 + e1 e3 c1^2 c2 + e2 e3 c1 c2^2 + e3^2 c2^3,
    an identity of polynomials in the entries of A, so it holds over any
    commutative ring.  Returns N as a function of the coefficient vector c."""
    e3, e2, e1 = F.neg(chi[0]), chi[1], F.neg(chi[2])
    two, three = F.element(2), F.element(3)
    add, mul = F.add, F.mul
    k002 = F.sub(mul(e1, e1), mul(two, e2))
    k111 = F.sub(mul(e1, e2), mul(three, e3))
    k102 = F.sub(mul(e2, e2), mul(two, mul(e1, e3)))
    k021, k012, k003 = mul(e1, e3), mul(e2, e3), mul(e3, e3)
    p = _modulus(F)
    if p is not None:  # reduced once, at the end
        add, mul = operator.add, operator.mul

    def N(c):
        x, y, z = c
        zz = mul(z, z)
        d = add(add(mul(x, add(add(x, mul(e1, y)), mul(k002, z))), mul(y, add(mul(e2, y), mul(k111, z)))),
                mul(k102, zz))
        d = add(mul(x, d), mul(y, add(mul(y, add(mul(e3, y), mul(k021, z))), mul(k012, zz))))
        d = add(d, mul(k003, mul(zz, z)))
        return d % p if p else d

    return N


def combination(F, c, basis):
    """sum c_i basis[i] for coefficients c and matrices basis of one shape;
    three terms over F_p and Q run on Python's operators."""
    p = _modulus(F)
    if p is not None and len(c) == 3:
        x, y, z = c
        rows = zip(*basis)
        if p:
            return tuple([tuple([(x * a + y * b + z * d) % p for a, b, d in zip(*r)]) for r in rows])
        return tuple([tuple([x * a + y * b + z * d for a, b, d in zip(*r)]) for r in rows])
    out = None
    for ci, b in zip(c, basis):
        term = scalar_mat(F, ci, b)
        out = term if out is None else mat_add(F, out, term)
    return out


def vectors_matrix_to_flat(a):
    return tuple(x for row in a for x in row)


def flat_to_matrix(v, n, m):
    return tuple([tuple(v[i:i + m]) for i in range(0, n * m, m)])


def min_equals_char3(F, A):
    """A 3x3 A is regular (minimal polynomial = characteristic polynomial)
    exactly when it has a cyclic vector: a candidate of _cyclic_candidates
    settles most matrices, and _powers_independent the rest."""
    return _first_cyclic(F, A, _cyclic_candidates(F)) is not None or _powers_independent(F, A)


def _powers_independent(F, A):
    """Whether I, A, A^2 are independent, the definition of a regular 3x3 A."""
    flat = vectors_matrix_to_flat
    return rank(F, (flat(identity(F, 3)), flat(A), flat(mat_mul(F, A, A)))) == 3


def _cyclic_candidates(F):
    """The vectors tried first as cyclic vectors, in order: e_1, e_2, e_3,
    e_i + e_j, e_1 + e_2 + e_3, then (s, 1, 0), (1, s, 0), (1, 1, s) for
    s = F.gen() on a quadratic L."""
    z, o = F.zero, F.one
    e = ((o, z, z), (z, o, z), (z, z, o))
    yield from e
    for i, j in ((0, 1), (0, 2), (1, 2)):
        yield tuple(map(F.add, e[i], e[j]))
    yield (o, o, o)
    if hasattr(F, "gen"):
        s = F.gen()
        yield from ((s, o, z), (o, s, z), (o, o, s))


def _first_cyclic(F, A, vectors):
    """(v, Av, A^2 v), the transpose of the Krylov matrix, for the first
    cyclic vector v of A among vectors, or None."""
    for v in vectors:
        Av = mat_vec(F, A, v)
        rows = (v, Av, mat_vec(F, A, Av))
        if not F.is_zero(det3(F, rows)):
            return rows
    return None


def krylov_similarity(F, A):
    """K = [v, Av, A^2 v] for the first cyclic vector v of a regular 3x3 A,
    so that A = K C K^-1 for the companion matrix C of A.  The candidates of
    _cyclic_candidates come first; when all of them miss, A is checked to be
    regular by rank (_powers_independent, not by the same candidates again)
    and then the curve (1, s, s^2) is scanned, for s over F.elements()
    on a finite field and s = 1, 2, ... over Q.  The vectors that are not
    cyclic lie in the maximal proper invariant subspaces of a regular A (at
    most three planes or lines), and each meets the curve at most twice, so
    the scan ends within seven points; only a field of fewer elements goes
    on to scan F^3 in lexicographic order.  Raises ValueError for an A that
    is not regular."""
    rows = _first_cyclic(F, A, _cyclic_candidates(F))
    if rows is None:
        if not _powers_independent(F, A):
            raise ValueError("no cyclic vector: the matrix is not regular")
        finite = F.order is not None
        s_values = F.elements() if finite else map(F.element, itertools.count(1))
        scan = ((F.one, s, F.mul(s, s)) for s in s_values)
        if finite:
            scan = itertools.chain(scan, lex_vectors(3, F.elements))
        rows = _first_cyclic(F, A, scan)
    return transpose(rows)


def solve_sylvester_space(F, left, right):
    """Basis of {X : left X = X right} for similar regular 3x3 sides over F:
    the basis that nullspace gives for the 9x9 linear system in the entries
    of X, row-major, without forming that system.

    With Krylov matrices K_left, K_right (krylov_similarity) both sides are
    conjugate to one companion matrix, so X0 = K_left K_right^-1 is an
    intertwiner and the space is X0 k[right], spanned by X0, X0 right and
    X0 right^2.  The free columns of the 9x9 system are the last coordinates
    on which the space projects one-to-one, so nullspace's basis is the
    reduced echelon form of that span over the reversed coordinates.  Raises
    ValueError when the characteristic polynomials differ or the sides are
    not regular."""
    if not all(map(F.eq, charpoly3(F, left), charpoly3(F, right))):
        raise ValueError("the sides are not similar")
    X0 = mat_mul(F, krylov_similarity(F, left), inverse3(F, krylov_similarity(F, right)))
    X1 = mat_mul(F, X0, right)
    span = (X0, X1, mat_mul(F, X1, right))
    rows, _ = _echelon(F, [vectors_matrix_to_flat(X)[::-1] for X in span])
    return tuple(flat_to_matrix(r[::-1], 3, 3) for r in reversed(rows))


def bilinear_eval(F, gram, u, w):
    s = F.zero
    for i, ui in enumerate(u):
        if F.is_zero(ui):
            continue
        row = gram[i]
        for j, wj in enumerate(w):
            if not F.is_zero(wj):
                s = F.add(s, F.mul(ui, F.mul(row[j], wj)))
    return s


def diagonalize_form(F, gram):
    """Orthogonal basis for a symmetric bilinear form given by its Gram matrix.

    Returns (basis, diag) with diag[i] = B(v_i, v_i).  Characteristic != 2.
    Isotropic pivots are repaired with u + w when B(u, w) != 0; a totally
    isotropic tail (degenerate form) is emitted with zero diagonal entries.
    """
    n = len(gram)
    remaining = [
        tuple(F.one if j == i else F.zero for j in range(n)) for i in range(n)
    ]
    basis, diag = [], []
    while remaining:
        v = None
        for u in remaining:
            if not F.is_zero(bilinear_eval(F, gram, u, u)):
                v = u
                break
        if v is None:
            found = None
            for a in range(len(remaining)):
                for b in range(a + 1, len(remaining)):
                    if not F.is_zero(bilinear_eval(F, gram, remaining[a], remaining[b])):
                        found = tuple(
                            F.add(x, y) for x, y in zip(remaining[a], remaining[b])
                        )
                        break
                if found:
                    break
            if found is None:
                for u in remaining:
                    basis.append(u)
                    diag.append(F.zero)
                break
            v = found
        d = bilinear_eval(F, gram, v, v)
        basis.append(v)
        diag.append(d)
        dinv = F.inv(d)
        sel = []
        for u in remaining:
            c = F.mul(dinv, bilinear_eval(F, gram, u, v))
            u2 = tuple(F.sub(x, F.mul(c, y)) for x, y in zip(u, v))
            if all(F.is_zero(x) for x in u2):
                continue
            if rank(F, tuple(sel) + (u2,)) > len(sel):
                sel.append(u2)
        remaining = sel
    return tuple(basis), tuple(diag)


def lex_vectors(n, coeffs, head=()):
    """The vectors head + c for c of length n >= 1 in lexicographic order,
    c_0 slowest, each c_i over coeffs() (a callable returning the
    coefficient set in order, such as F.elements).  coeffs() is called anew
    each time a level is entered and read lazily, so a large field costs
    nothing until its elements are reached."""
    if n == 1:
        for x in coeffs():
            yield head + (x,)
    else:
        for x in coeffs():
            yield from lex_vectors(n - 1, coeffs, head + (x,))
