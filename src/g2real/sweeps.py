"""Vectorized exact verifications (int64 residue arithmetic, no floats).

Two jobs live here: the bulk composition/minimal-equation property suites,
and the coset sweep, the one enumerator of conjugator cosets over finite
fields.  The brute-force oracle runs each of its cosets over F_p through
it: determinant 1 over F_p on a split frame, SU(H) over L = F_p(g) on a
field frame.  That confirms both non-real constructions without trusting
the norm-class shortcut.  The sweep reads every matrix entry off
per-coefficient lookup tables, so a candidate costs int64 additions, table
lookups and residues mod p; the full q = 17 SU coset of 24,137,569
candidates takes about 1 s on one core (acceptance criterion 06).  No 3x3
formula is repeated here: _PArrays and _LArrays give arrays of residues and
of L-elements the add, sub and mul of a field handle, so the determinant
test is linalg.det3 on those arrays.
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


# -- exhaustive coset sweep -----------------------------------------------------

class _PArrays:
    """Arrays of residues mod p, each its own code: a field handle for linalg.det3."""

    # candidates per vectorized slice; each decodes all nine entries (2^18: +40 MB at q = 97)
    chunk = 1 << 14

    def __init__(self, p):
        self.p = p
        self.coefficients = np.arange(p, dtype=np.int64)

    def mul(self, x, y):
        return x * y % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def code(self, x):
        return x

    def decode(self, e):
        return e % self.p

    def is_one(self, x):
        return x == 1

    def element(self, i):
        return int(i)


class _LArrays:
    """Arithmetic on arrays of elements of L = F_p(g), g^2 = c, as (a, b),
    coded as 3p a + b; enough of a field handle for linalg.det3."""

    # candidates per vectorized slice; each builds only column 0
    chunk = 1 << 18

    def __init__(self, p, c):
        self.p = p
        self.c = c
        self.coefficients = np.divmod(np.arange(p * p, dtype=np.int64), p)

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

    def code(self, x):
        return 3 * self.p * x[0] + x[1]

    def decode(self, e):
        return tuple(x % self.p for x in np.divmod(e, 3 * self.p))

    def is_one(self, x):
        return (x[0] == 1) & (x[1] == 0)

    def element(self, i):
        return (int(i // self.p), int(i % self.p))


def coset_sweep(K, basis, H=None, start=0, stop=None):
    """Count the members of determinant 1, and given H of U(H), of the span
    c0 M0 + c1 M1 + c2 M2 of basis = (M0, M1, M2), (c0, c1, c2) over K^3 in
    span_search's order (c0 slowest).  K is F_p without H, or L = F_p(g)
    with H.  Returns (hits, example): the count and the first hit's
    coefficient triple, or None.  start/stop restrict the flattened
    candidate index range; the counts of disjoint partitions add up.

    Each entry of X is a sum of three lookups in per-coefficient tables of
    c M_t[r][s] over the Q = |K| elements c, built once per call (residues
    over F_p; codes 3p re + im over L, so that a sum of three decodes
    exactly).  A run of Q consecutive candidates shares (c0, c1), so a
    column is one broadcast sum of a per-run head and the c2 table.  Over
    F_p every candidate takes linalg.det3 on the arrays.  Given H, the norm
    forms sum_r H_r N(X[r][j]) on the diagonal of X* H X are table lookups:
    (0, 0) filters every candidate, (1, 1) the about 1/p left, and the rest
    take the full unitarity test, then linalg.det3.
    """
    if K.kind == "prime" and H is None:
        ar = _PArrays(K.p)
    elif K.kind == "field" and K.base.kind == "prime" and H is not None:
        ar = _LArrays(K.base.p, int(K.c))
    else:
        raise ValueError("sweep needs F_p without H, or L = F_p(g) with H")
    p = ar.p
    Q = K.order
    T0, T1, T2 = ([[ar.code(ar.mul(ar.coefficients, m)) for m in row] for row in M] for M in basis)
    if H is not None:
        Hints = [int(h) for h in H]
        # hnorm[r][e] = H_r N(re + im g) mod p for the sum coded e
        re3, im3 = np.divmod(np.arange(9 * Q, dtype=np.int64), 3 * p)
        norm = (re3 * re3 % p - ar.c * (im3 * im3 % p) % p) % p
        hnorm = [h * norm % p for h in Hints]

    def entry(r, s, j0, j1, j2):
        return T0[r][s][j0] + T1[r][s][j1] + T2[r][s][j2]

    total = Q**3 if stop is None else stop
    hits = 0
    example = None

    for lo in range(start, total, ar.chunk):
        hi = min(lo + ar.chunk, total)
        first = lo // Q
        off = lo - first * Q
        i0, i1 = np.divmod(np.arange(first, (hi - 1) // Q + 1, dtype=np.int64), Q)

        def column(r, s):
            # entry (r, s) of every candidate in the window, built run by run
            col = (T0[r][s][i0] + T1[r][s][i1])[:, None] + T2[r][s][None, :]
            return col.ravel()[off:off + hi - lo]

        if H is None:
            idx = np.arange(lo, hi, dtype=np.int64)
            X = [[ar.decode(column(r, s)) for s in range(3)] for r in range(3)]
        else:
            # the (0, 0) norm form
            p00 = sum(hnorm[r][column(r, 0)] for r in range(3))
            idx = lo + np.flatnonzero(p00 % p == Hints[0] % p)
            j0, rem = np.divmod(idx, Q * Q)
            j1, j2 = np.divmod(rem, Q)
            # the (1, 1) norm form on the survivors
            p11 = sum(hnorm[r][entry(r, 1, j0, j1, j2)] for r in range(3))
            keep = p11 % p == Hints[1] % p
            if not keep.any():
                continue
            idx, j0, j1, j2 = idx[keep], j0[keep], j1[keep], j2[keep]
            X = [[ar.decode(entry(r, s, j0, j1, j2)) for s in range(3)] for r in range(3)]
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
            idx = idx[ok]
            X = [[(e[0][ok], e[1][ok]) for e in row] for row in X]
        # determinant = 1
        good = np.flatnonzero(ar.is_one(linalg.det3(ar, X)))
        hits += len(good)
        if example is None and len(good):
            i = int(idx[good[0]])
            example = tuple(ar.element(c) for c in (i // (Q * Q), i // Q % Q, i % Q))
    return hits, example


def su_coset_sweep(L, H, A, X0, start=0, stop=None):
    """coset_sweep over the basis X0, X0 conj(A), X0 conj(A)^2: the SU(H)
    members X = X0 (c0 + c1 conj(A) + c2 conj(A)^2), (c0, c1, c2) in L^3.
    For X0 an invertible intertwiner, left X0 = X0 conj(A), and conj(A)
    regular, this is a whole conjugator coset {X : left X = X conj(A)} (the
    swap coset for X0 a unitary base conjugator of conj(A) to A^-1).
    """
    Abar = linalg.map_entries(L.sigma, A)
    M1 = linalg.mat_mul(L, X0, Abar)
    return coset_sweep(L, (X0, M1, linalg.mat_mul(L, M1, Abar)), H, start, stop)
