"""Vectorized exact verifications (int64 residue arithmetic, no floats).

Two jobs live here: the bulk composition/minimal-equation property suites,
and the exhaustive swap-coset conjugator sweep used to confirm the
quadratic-field non-real element without trusting the norm-class shortcut.
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

class _LArrays:
    """Arithmetic on arrays of elements of L = F_p(g), g^2 = c, as (a, b)."""

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


def su_coset_sweep(L, H, A, X0, chunk=1 << 18, start=0, stop=None):
    """Count SU(H) members among all X = X0 (c0 + c1 conj(A) + c2 conj(A)^2),
    (c0, c1, c2) ranging over L^3: the full swap-coset conjugator candidate
    space for a regular A.  Returns (hits, example): the number of candidates
    that are unitary with determinant 1 (each such X conjugates conj(A) to
    A^-1 by construction) and the first hit's coefficient triple, or None.

    start/stop restrict the flattened candidate index range, so disjoint
    partitions can run on separate workers and their counts add up.
    """
    if L.kind != "field" or L.base.kind != "prime":
        raise ValueError("sweep needs L = F_p(g)")
    p = L.base.p
    c = int(L.c)
    ar = _LArrays(p, c)

    Abar = linalg.map_entries(L.sigma, A)
    M0 = X0
    M1 = linalg.mat_mul(L, X0, Abar)
    M2 = linalg.mat_mul(L, M1, Abar)
    Ms = [M0, M1, M2]
    Hints = [int(h) for h in H]

    Q = p * p
    total = Q**3 if stop is None else stop
    hits = 0
    example = None

    def decode(idx):
        i0, rem = np.divmod(idx, Q * Q)
        i1, i2 = np.divmod(rem, Q)
        out = []
        for comp in (i0, i1, i2):
            a, b = np.divmod(comp, p)
            out.append((a.astype(np.int64), b.astype(np.int64)))
        return out

    def entry(cs, r, s):
        acc = None
        for t in range(3):
            term = ar.mul(cs[t], (int(Ms[t][r][s][0]), int(Ms[t][r][s][1])))
            acc = term if acc is None else ar.add(acc, term)
        return acc

    for lo in range(start, total, chunk):
        hi = min(lo + chunk, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        cs = decode(idx)
        # column 0 of X, then the first unitarity entry as a cheap filter
        col0 = [entry(cs, r, 0) for r in range(3)]
        p00 = None
        for r in range(3):
            term = ar.mul(col0[r], ar.sigma(col0[r]))
            term = ar.scale_int(term, Hints[r])
            p00 = term if p00 is None else ar.add(p00, term)
        mask = (p00[0] == Hints[0] % p) & (p00[1] == 0)
        if not mask.any():
            continue
        sel = [tuple(comp[mask] for comp in pair) for pair in cs]
        X = [[entry(sel, r, s) for s in range(3)] for r in range(3)]
        ok = np.ones(len(sel[0][0]), dtype=bool)
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
        d = _det3_np(ar, Xs)
        ok2 = (d[0] == 1) & (d[1] == 0)
        hits += int(ok2.sum())
        if example is None and ok2.any():
            flat = np.flatnonzero(mask)[ok][ok2][0]
            i0 = int(idx[flat])
            comp0, rem = divmod(i0, Q * Q)
            comp1, comp2 = divmod(rem, Q)
            example = tuple(
                (int(cmp // p), int(cmp % p)) for cmp in (comp0, comp1, comp2)
            )
    return hits, example


def _det3_np(ar, m):
    def mul(x, y):
        return ar.mul(x, y)

    t1 = mul(m[0][0], ar.sub(mul(m[1][1], m[2][2]), mul(m[1][2], m[2][1])))
    t2 = mul(m[0][1], ar.sub(mul(m[1][2], m[2][0]), mul(m[1][0], m[2][2])))
    t3 = mul(m[0][2], ar.sub(mul(m[1][0], m[2][1]), mul(m[1][1], m[2][0])))
    return ar.add(ar.add(t1, t2), t3)
