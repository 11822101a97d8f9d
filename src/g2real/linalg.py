"""Exact linear algebra over a field handle.

Matrices are immutable tuples of tuples of raw field elements.  Over F_p and
Q the products and the eliminations run on the integer lattice: mat_mul on
numpy integer arrays (int64 residues when no sum can overflow, Python ints
otherwise; over Q the common-denominator numerators, divided back once), and
_echelon (inverse, rank, nullspace, solve) on plain residues or Fractions
with the operators inlined.  For the other handles (L = k(g), k x k and the
cubic algebras) the field handle supplies the arithmetic.  Either way the
entries returned are plain ints, Fractions or tuples of those.  Gaussian
elimination requires an honest field (division), so callers must not pass
split quadratic algebras to it.
The 3x3 closed forms det3, adjugate3 and charpoly3 use ring operations
only, so they hold over any commutative ring: the cubic algebras of fields.py
take their norms with det3, and det3, which needs only add, sub and mul, also
runs on the numpy arrays of the SU coset sweep.
span_search is the one enumerator of matrix spans under a candidate budget.
Nothing here draws random numbers.  The decisions write the witnesses of
non-regular matrices down and take invertible basis matrices as base points,
visiting no candidate; only a span without one is searched, under the budget.
"""

import math
from fractions import Fraction


def mat(rows):
    return tuple(tuple(r) for r in rows)


def identity(F, n):
    return tuple(
        tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n)
    )


def zeros(F, n, m):
    return tuple(tuple(F.zero for _ in range(m)) for _ in range(n))


def transpose(a):
    return tuple(zip(*a))


def mat_add(F, a, b):
    return tuple(tuple(F.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

def mat_sub(F, a, b):
    return tuple(tuple(F.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scalar_mat(F, c, a):
    return tuple(tuple(F.mul(c, x) for x in r) for r in a)


def lattice(F, a):
    """(N, s) with N = s*a an integer numpy array, for a matrix or tensor a
    over F_p or Q.  Over F_p, s = 1 and N holds the residues: int64 when
    n*(p - 1)**2 < 2**63 for n the longer of the first two sides, so that
    sums of n products stay in range, and Python ints otherwise.  Over Q, s
    is the lcm of the entries' denominators and N holds Python ints."""
    import numpy as np

    if F.kind == "prime":
        small = max(len(a), len(a[0])) * (F.p - 1) ** 2 < 2**63
        return np.array(a, dtype=np.int64 if small else object) % F.p, 1
    a = np.asarray(a, dtype=object)
    s = math.lcm(*(x.denominator for x in a.flat))
    N = np.array([x.numerator * (s // x.denominator) for x in a.flat], dtype=object)
    return N.reshape(a.shape), s


def mat_mul(F, a, b):
    if F.kind in ("prime", "rationals") and a and b:
        (A, s), (B, t) = lattice(F, a), lattice(F, b)
        if F.kind == "prime":
            return tuple(map(tuple, ((A @ B) % F.p).tolist()))
        return tuple(tuple(Fraction(x, s * t) for x in r) for r in (A @ B).tolist())
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


def mat_vec(F, a, v):
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


def mat_pow(F, a, n):
    return power(lambda x, y: mat_mul(F, x, y), identity(F, len(a)), a, n)


def mat_eq(F, a, b):
    return all(F.eq(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def map_entries(f, a):
    return tuple(tuple(f(x) for x in r) for r in a)


def _echelon(F, a):
    """Row-reduce; returns (reduced rows as lists, pivot column list).  Over
    F_p the rows hold plain residues and over Q Fractions, updated with the
    operators inlined: the same pivots and rows as through the handle."""
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
        rows[r] = scale(F.inv(rows[r][c]), rows[r])
        for i in range(n):
            if i != r and nonzero(rows[i][c]):
                rows[i] = axpy(rows[i][c], rows[i], rows[r])
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
    tr = F.add(F.add(a[0][0], a[1][1]), a[2][2])
    m00 = F.sub(F.mul(a[1][1], a[2][2]), F.mul(a[1][2], a[2][1]))
    m11 = F.sub(F.mul(a[0][0], a[2][2]), F.mul(a[0][2], a[2][0]))
    m22 = F.sub(F.mul(a[0][0], a[1][1]), F.mul(a[0][1], a[1][0]))
    s2 = F.add(F.add(m00, m11), m22)
    d = det3(F, a)
    return (F.neg(d), s2, F.neg(tr))


def det3(F, a):
    t1 = F.mul(a[0][0], F.sub(F.mul(a[1][1], a[2][2]), F.mul(a[1][2], a[2][1])))
    t2 = F.mul(a[0][1], F.sub(F.mul(a[1][2], a[2][0]), F.mul(a[1][0], a[2][2])))
    t3 = F.mul(a[0][2], F.sub(F.mul(a[1][0], a[2][1]), F.mul(a[1][1], a[2][0])))
    return F.add(F.add(t1, t2), t3)


def adjugate3(F, a):
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
    d = det3(F, a)
    if F.is_zero(d):
        raise ZeroDivisionError("matrix is singular")
    dinv = F.inv(d)
    return scalar_mat(F, dinv, adjugate3(F, a))


def vectors_matrix_to_flat(a):
    return tuple(x for row in a for x in row)


def flat_to_matrix(v, n, m):
    return tuple(tuple(v[i * m + j] for j in range(m)) for i in range(n))


def solve_sylvester_space(F, left, right):
    """Basis of {X : left X = X right} for n x n matrices over F, n = len(left).

    Returns a tuple of n x n matrices spanning the solution space.
    """
    n = len(left)
    # unknowns X[i][j] flattened row-major; equations (left X - X right)[i][j] = 0
    rows = []
    for i in range(n):
        for j in range(n):
            coeff = [F.zero] * (n * n)
            for k in range(n):
                coeff[k * n + j] = F.add(coeff[k * n + j], left[i][k])
                coeff[i * n + k] = F.sub(coeff[i * n + k], right[k][j])
            rows.append(tuple(coeff))
    basis = nullspace(F, tuple(rows))
    return tuple(flat_to_matrix(v, n, n) for v in basis)


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


class BudgetExhausted(Exception):
    """A span search needed more candidates than its budget allowed."""


def span_search(F, basis, coeffs, accept, budget):
    """The first non-None accept(M) over M = sum c_i basis[i], and the number
    of candidates visited: (hit or None, visited).

    Coefficient vectors run in lexicographic order, c_0 slowest, each c_i
    over coeffs() (a callable returning the coefficient set in order, such
    as F.elements).  Running partial sums make each candidate cost one
    scalar_mat and one mat_add, and scalar multiples are formed only when
    needed, so nothing is tabulated before the first candidate.  The budget
    is checked before each visit: BudgetExhausted is raised instead of
    visiting candidate budget + 1.  An empty basis spans no candidates.
    """
    last = len(basis) - 1
    visited = 0

    def level(i, partial):
        nonlocal visited
        for c in coeffs():
            if i == last:
                if visited == budget:
                    raise BudgetExhausted(f"span search budget {budget} exhausted")
                visited += 1
            term = scalar_mat(F, c, basis[i])
            M = term if partial is None else mat_add(F, partial, term)
            got = accept(M) if i == last else level(i + 1, M)
            if got is not None:
                return got
        return None

    hit = level(0, None) if basis else None
    return hit, visited
