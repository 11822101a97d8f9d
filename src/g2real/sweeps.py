"""Vectorized exact verifications (int64 residue arithmetic, no floats).

Two jobs live here: the bulk composition/minimal-equation property suites,
and the SU coset sweep, the one enumerator of conjugator cosets over
L = F_p(g).  The brute-force oracle runs each field-frame coset through it,
which confirms the quadratic-field non-real element without trusting the
norm-class shortcut.  The sweep reads every matrix entry off
per-coefficient lookup tables, so a candidate costs int64 additions, table
lookups and residues mod p; the full q = 17 coset of 24,137,569 candidates
takes about 1 s on one core (acceptance criterion 06).  No 3x3 formula is
repeated here: _LArrays gives arrays of L-elements the add, sub and mul of a
field handle, so the determinant test is linalg.det3 on those arrays.
"""

import numpy as np

from . import linalg


def _rng(seed):
    return np.random.default_rng(seed)


# -- Zorn batch ----------------------------------------------------------------

def _zorn_product_np(x, y, reduce_mod=None):
    """Vectorized Zorn product of (n, 8) coordinate arrays."""
    a, v, w, b = x[:, 0], x[:, 1:4], x[:, 4:7], x[:, 7]
    a2, v2, w2, b2 = y[:, 0], y[:, 1:4], y[:, 4:7], y[:, 7]

    def cross(u, t):
        return np.stack(
            [
                u[:, 1] * t[:, 2] - u[:, 2] * t[:, 1],
                u[:, 2] * t[:, 0] - u[:, 0] * t[:, 2],
                u[:, 0] * t[:, 1] - u[:, 1] * t[:, 0],
            ],
            axis=1,
        )

    ra = a * a2 - (v * w2).sum(axis=1)
    rb = b * b2 - (w * v2).sum(axis=1)
    rv = a[:, None] * v2 + b2[:, None] * v + cross(w, w2)
    rw = b[:, None] * w2 + a2[:, None] * w + cross(v, v2)
    out = np.concatenate([ra[:, None], rv, rw, rb[:, None]], axis=1)
    if reduce_mod is not None:
        out %= reduce_mod
    return out


def _zorn_norm_np(x, reduce_mod=None):
    n = x[:, 0] * x[:, 7] + (x[:, 1:4] * x[:, 4:7]).sum(axis=1)
    if reduce_mod is not None:
        n %= reduce_mod
    return n


def batch_zorn_composition(field_spec, n, seed):
    """Number of failures of N(xy) = N(x) N(y) over n seeded random pairs of
    Zorn octonions.  field_spec is a prime p (residue arithmetic mod p) or
    "Q" (integer coordinates in [-9, 9]; the identity over the rationals is
    scale-invariant, so integer vectors decide it exactly)."""
    rng = _rng(seed)
    if field_spec == "Q":
        x = rng.integers(-9, 10, size=(n, 8)).astype(np.int64)
        y = rng.integers(-9, 10, size=(n, 8)).astype(np.int64)
        p = None
    else:
        p = int(field_spec)
        x = rng.integers(0, p, size=(n, 8)).astype(np.int64)
        y = rng.integers(0, p, size=(n, 8)).astype(np.int64)
    xy = _zorn_product_np(x, y, reduce_mod=p)
    lhs = _zorn_norm_np(xy, reduce_mod=p)
    rhs = _zorn_norm_np(x, reduce_mod=p) * _zorn_norm_np(y, reduce_mod=p)
    if p is not None:
        rhs %= p
    return int((lhs != rhs).sum())


def batch_minimal_equation(alg, n, seed):
    """Number of failures of x^2 - N(x,1) x + N(x) 1 = 0 over n seeded random
    elements of a prime-field algebra (vectorized through the structure
    tensor)."""
    F = alg.field
    if F.kind != "prime":
        raise ValueError("vectorized minimal-equation check needs a prime field")
    p = F.p
    rng = _rng(seed)
    T = alg.numpy_table().astype(np.int64)
    X = rng.integers(0, p, size=(n, alg.dim)).astype(np.int64)
    # x^2 coordinates
    tmp = np.tensordot(X, T, axes=([1], [0])) % p  # (n, j, m)
    sq = np.einsum("njm,nj->nm", tmp, X) % p
    tvec = np.array(alg._trace_vec, dtype=np.int64)
    B = np.array([[int(c) for c in row] for row in alg.bil], dtype=np.int64)
    inv2 = F.inv(F.element(2))
    tr = X @ tvec % p
    nrm = ((X @ B % p) * X).sum(axis=1) % p * inv2 % p
    one = np.array([int(c) for c in alg.one], dtype=np.int64)
    lhs = (sq - tr[:, None] * X + nrm[:, None] * one[None, :]) % p
    return int((lhs != 0).any(axis=1).sum())


# -- exhaustive SU coset sweep ---------------------------------------------------

# candidates per vectorized slice of a sweep
_CHUNK = 1 << 18


class _LArrays:
    """Arithmetic on arrays of elements of L = F_p(g), g^2 = c, as (a, b);
    enough of a field handle for linalg.det3."""

    def __init__(self, p, c):
        self.p = p
        self.c = c

    def mul(self, x, y):
        a, b = x
        u, v = y
        p, c = self.p, self.c
        return ((a * u + c * (b * v % p)) % p, (a * v + b * u) % p)

    def add(self, x, y):
        p = self.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def sub(self, x, y):
        p = self.p
        return ((x[0] - y[0]) % p, (x[1] - y[1]) % p)

    def sigma(self, x):
        return (x[0], (-x[1]) % self.p)

    def scale_int(self, x, m):
        p = self.p
        return (x[0] * m % p, x[1] * m % p)


def su_coset_sweep(L, H, A, X0, start=0, stop=None):
    """Count SU(H) members among all X = X0 (c0 + c1 conj(A) + c2 conj(A)^2),
    (c0, c1, c2) ranging over L^3.  When X0 is an invertible intertwiner,
    left X0 = X0 conj(A), and conj(A) is regular, these are all the
    intertwiners {X : left X = X conj(A)}: a whole conjugator coset (the
    swap coset for X0 a unitary base conjugator of conj(A) to A^-1).
    Returns (hits, example): the number of candidates that are unitary with
    determinant 1 and the first hit's coefficient triple, or None.

    start/stop restrict the flattened candidate index range, so disjoint
    partitions can run on separate workers and their counts add up.

    X = c0 M0 + c1 M1 + c2 M2 with M_t = X0 conj(A)^t, so each entry of X is
    a sum of three lookups in per-coefficient tables of c M_t[r][s] over the
    Q = p^2 elements c, built once per call (about 430 p^2 bytes).  Candidate
    (i0 Q + i1) Q + i2 has c_t = i_t // p + (i_t % p) g, so a run of Q
    consecutive candidates shares (c0, c1) and column 0 is one broadcast sum
    of a per-run head and the c2 table.  The diagonal entries of X* H X are
    the norm forms sum_r H_r N(X[r][j]), looked up in a table: (0, 0) filters
    every candidate, (1, 1) the about 1/p left, and the rest take the full
    unitarity test and then linalg.det3 on the arrays.
    """
    if L.kind != "field" or L.base.kind != "prime":
        raise ValueError("sweep needs L = F_p(g)")
    p = L.base.p
    c = int(L.c)
    ar = _LArrays(p, c)

    Abar = linalg.map_entries(L.sigma, A)
    M1 = linalg.mat_mul(L, X0, Abar)
    M2 = linalg.mat_mul(L, M1, Abar)
    Hints = [int(h) for h in H]

    Q = p * p
    # T_t[r][s][i] = c_i M_t[r][s] coded as 3p re + im, re, im < p: a
    # sum of three codes still has re, im < 3p, so it decodes exactly
    coeff = np.divmod(np.arange(Q, dtype=np.int64), p)

    def table(m):
        re, im = ar.mul(coeff, (int(m[0]), int(m[1])))
        return 3 * p * re + im

    T0, T1, T2 = ([[table(m) for m in row] for row in M] for M in (X0, M1, M2))
    # hnorm[r][e] = H_r N(re + im g) mod p for the sum coded e
    re3, im3 = np.divmod(np.arange(9 * Q, dtype=np.int64), 3 * p)
    norm = (re3 * re3 % p - c * (im3 * im3 % p) % p) % p
    hnorm = [h * norm % p for h in Hints]

    def entry(r, s, j0, j1, j2):
        return T0[r][s][j0] + T1[r][s][j1] + T2[r][s][j2]

    total = Q**3 if stop is None else stop
    hits = 0
    example = None

    for lo in range(start, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        first = lo // Q
        off = lo - first * Q
        i0, i1 = np.divmod(np.arange(first, (hi - 1) // Q + 1, dtype=np.int64), Q)
        # the (0, 0) norm form, column 0 built run by run
        p00 = 0
        for r in range(3):
            col = (T0[r][0][i0] + T1[r][0][i1])[:, None] + T2[r][0][None, :]
            p00 = p00 + hnorm[r][col.ravel()[off:off + hi - lo]]
        idx = lo + np.flatnonzero(p00 % p == Hints[0] % p)
        j0, rem = np.divmod(idx, Q * Q)
        j1, j2 = np.divmod(rem, Q)
        # the (1, 1) norm form on the survivors
        p11 = sum(hnorm[r][entry(r, 1, j0, j1, j2)] for r in range(3))
        keep = p11 % p == Hints[1] % p
        if not keep.any():
            continue
        idx, j0, j1, j2 = idx[keep], j0[keep], j1[keep], j2[keep]
        X = [
            [
                tuple(x % p for x in np.divmod(entry(r, s, j0, j1, j2), 3 * p))
                for s in range(3)
            ]
            for r in range(3)
        ]
        ok = np.ones(len(idx), dtype=bool)
        # full unitarity: sum_r X[r][i] H[r] sigma(X[r][j]) = H[i][j]
        for i in range(3):
            for j in range(3):
                acc = None
                for r in range(3):
                    term = ar.mul(X[r][i], ar.sigma(X[r][j]))
                    term = ar.scale_int(term, Hints[r])
                    acc = term if acc is None else ar.add(acc, term)
                want = Hints[i] % p if i == j else 0
                ok &= (acc[0] == want) & (acc[1] == 0)
        if not ok.any():
            continue
        # determinant = 1 on the survivors
        Xs = [[(e[0][ok], e[1][ok]) for e in row] for row in X]
        d = linalg.det3(ar, Xs)
        ok2 = (d[0] == 1) & (d[1] == 0)
        hits += int(ok2.sum())
        if example is None and ok2.any():
            comp0, rem = divmod(int(idx[ok][ok2][0]), Q * Q)
            comp1, comp2 = divmod(rem, Q)
            example = tuple(
                (int(cmp // p), int(cmp % p)) for cmp in (comp0, comp1, comp2)
            )
    return hits, example

