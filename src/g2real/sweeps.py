"""The exhaustive coset sweep (int64 and int32 residue arithmetic, no floats).

The sweep is the one enumerator of conjugator cosets over finite fields.
The brute-force oracle runs each of its cosets over F_p through it:
determinant 1 over F_p on a split frame, SU(H) over L = F_p(g) on a
field frame.  That confirms both non-real constructions without trusting
the norm-class shortcut.  Over F_p the determinant of c0 M0 + c1 M1 +
c2 M2 is a cubic form whose 10 coefficients each call builds first, and
each chunk of candidates is two small integer products with tables of
powers mod p, shared by every call at p while they are small; the q = 97
coset of 912,673 candidates takes about 0.01 s on one core.  Over L the
sweep reads every matrix entry off per-coefficient lookup tables, built
once per coset and shared by the calls on it.  Three forms of X* H X
filter first: the norm forms of columns 0 and 1 and the real part of entry
(0, 1), which a member of U(H) takes to H_0, H_1 and 0.  Each is split into
a part fixed per run of Q = p^2 candidates and a part in c2 alone, and an
inverted table of p^4 entries lists, for each value of the fixed part of
the (0, 0) form, the c2 that solve it.  The fixed parts of all three are
read off per-coset tables too, one key per run, so each run costs two
lookups and only its about p + 1 solutions are visited; the (1, 1) and
(0, 1) forms filter those by one lookup each in a table of p^4 residues,
and the full unitarity test and the determinant see about 1/p^3 of the
candidates.  (The (2, 2) norm form would filter nothing more: on the q = 17
swap cosets it holds on every candidate that passes the (1, 1) form.)  The
full q = 17 SU coset of 24,137,569 candidates takes about 0.04 s on one
core, its tables included (acceptance criterion 06).  The determinant
formula is not repeated here: the determinants are linalg.det3 on arrays,
of the column mixes over F_p through the add, sub and mul of _PArrays, and
of the candidates that pass the unitarity test over L through its closed
form on the coordinate pairs of _LArrays, which has the kind of L.
"""

import functools
import itertools

import numpy as np

from . import linalg


def _frozen(a):
    a.flags.writeable = False
    return a


class _PArrays:
    """Arrays of residues mod p: a field handle for linalg.det3."""

    # candidates per vectorized slice; it also bounds the power tables that
    # coset_sweep keeps per p (p^2 <= chunk)
    chunk = 1 << 14

    def __init__(self, p):
        self.p = p

    def mul(self, x, y):
        return x * y % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def is_one(self, x):
        return x == 1

    def element(self, i):
        return int(i)


class _LArrays:
    """Arithmetic on arrays of elements of L = F_p(g), g^2 = c, as (a, b),
    coded as 3p a + b; with the kind of L over the F_p handle base, so that
    linalg.det3 takes its closed form over L on the coordinate pairs."""

    # candidates per vectorized slice; the filters work per run of p^2 and
    # per listed candidate, about p + 1 of each run
    chunk = 1 << 18

    def __init__(self, base, c):
        p = self.p = base.p
        self.c = c
        self.base = base
        # det3's unreduced sums stay below 9 p^4, inside int64 for any p
        # whose tables fit
        self.kind = "field"
        self.coefficients = tuple(map(_frozen, np.divmod(np.arange(p * p, dtype=np.int64), p)))
        # (a, b) of every sum of up to three codes, so that decoding is a lookup
        self.parts = tuple(_frozen(x % p) for x in np.divmod(np.arange(9 * p * p), 3 * p))

    def mul(self, x, y):
        a, b = x
        u, v = y
        p, c = self.p, self.c
        return ((a * u + c * (b * v % p)) % p, (a * v + b * u) % p)

    def entries(self, basis):
        e = np.array(basis, dtype=np.int64)
        return (e[..., :1], e[..., 1:])

    def code(self, x):
        return 3 * self.p * x[0] + x[1]

    def decode(self, e):
        return self.parts[0][e], self.parts[1][e]

    def is_one(self, x):
        return (x[0] == 1) & (x[1] == 0)

    def element(self, i):
        return (int(i // self.p), int(i % self.p))


# the ten monomials c0^e0 c1^e1 c2^e2 of a cubic form, rows (e0, e1, e2),
# ordered by the degree e2 of c2
_MONOMIALS = np.array(sorted(
    (e for e in itertools.product(range(4), repeat=3) if sum(e) == 3), key=lambda e: e[::-1]
))
# _BY_C2[m, e] = 1 when monomial m has c2^e: form-weighted, it groups the
# cubic form by the power of c2
_BY_C2 = np.equal.outer(_MONOMIALS[:, 2], np.arange(4)).astype(np.int64)
# the 27 column mixes, rows (t0, t1, t2): column s of a mix is column s of
# M_{t_s}, so its determinant adds to the coefficient of c_t0 c_t1 c_t2,
# the monomial whose exponents count the 0s, 1s and 2s of the mix;
# _MIX_SUM[m, mix] = 1 when that is monomial m
_MIXES = np.array(list(itertools.product(range(3), repeat=3)))
_MIX_SUM = np.array([
    [[t.count(i) for i in range(3)] == e for t in _MIXES.tolist()] for e in _MONOMIALS.tolist()
], dtype=np.int64)


def _cubic_form(ar, basis):
    """The cubic form det(c0 M0 + c1 M1 + c2 M2) of basis over F_p, for the
    _PArrays handle ar: entry m is the coefficient of the monomial
    _MONOMIALS[m].  Column s of the candidate is sum_t c_t M_t[:, s], so by
    multilinearity the determinant is the sum over the 27 column mixes
    (t0, t1, t2) of c_t0 c_t1 c_t2 det(M_t0[:, 0], M_t1[:, 1], M_t2[:, 2]);
    one linalg.det3 call on the arrays gives the 27 determinants, and the
    indicator product _MIX_SUM adds each to the coefficient of its
    monomial."""
    # entry (r, s) of every mix, indexed [r, s, mix]
    rs = np.arange(3)
    mixed = np.array(basis, dtype=np.int64)[_MIXES.T, rs[:, None, None], rs[:, None]]
    return _MIX_SUM @ linalg.det3(ar, mixed) % ar.p


def _powers(c, p):
    """The (4, len(c)) table of c^e mod p, e = 0..3, for residues c."""
    c2 = c * c % p
    return np.stack((np.ones_like(c), c, c2, c2 * c % p))


def _run_monomials(runs, p):
    """The (len(runs), 10) table of c0^e0 c1^e1 mod p, e0, e1 the first two
    exponents of each monomial, for the runs c0 p + c1 over F_p."""
    w0, w1 = (_powers(c, p).T for c in np.divmod(runs, p))
    return w0[:, _MONOMIALS[:, 0]] * w1[:, _MONOMIALS[:, 1]] % p


@functools.lru_cache(maxsize=8)
def _power_tables(p):
    """(R, V) over F_p: R = _run_monomials of all p^2 runs and V = _powers
    of all p residues, read-only, shared by every coset_sweep call at p
    while _PArrays.chunk bounds their size (p^2 <= chunk).  Pure numpy, so
    that a cache hit skips no counted linalg call."""
    c = np.arange(p, dtype=np.int64)
    return _frozen(_run_monomials(np.arange(p * p, dtype=np.int64), p)), _frozen(_powers(c, p))


# runs per slice of the key tables' build, so that its temporaries stay small
_KEY_RUNS = 1 << 11
# the columns (s, s') of the three forms, the real parts of the entries
# (0, 0), (1, 1) and (0, 1) of X* H X, one form per column of this array
_FORMS = np.array([[0, 1, 0], [0, 1, 1]])


@functools.lru_cache(maxsize=4)
def _tables(K, basis, H):
    """(ar, T, form_tables): the lookup tables of coset_sweep over L for one
    coset, built once per (K, basis, H), so that the windows of a coset
    share them.  Every array is read-only.

    T[t, r, s, j] is the code of c_j M_t[r][s] for the j-th element c_j of
    K, and form_tables = (J, starts, key0, key1, key01, S, S01) serve three
    forms of X* H X: the real parts of B(X_s, X_s') = sum_r H_r X[r][s]
    sigma(X[r][s']) for (s, s') = (0, 0), (1, 1), (0, 1), which a member of
    U(H) takes to H_0, H_1 and 0.  Column s < 2 is h_s + c2 m_s with the run
    head h_s = c0 M_0[:, s] + c1 M_1[:, s] and m_s = M_2[:, s], so by
    sesquilinearity the form is delta + alpha N(c2) + Tr(sigma(c2) gamma),
    where delta = Re B(h_s, h_s'), alpha = Re B(m_s, m_s') and gamma =
    (B(h_s, m_s') + B(h_s', m_s)) / 2 (B(h_s, m_s) on the diagonal, where
    the form is the norm form sum_r H_r N(X[r][s])).  gamma is c0 g_0 + c1
    g_1 with g_t = (B(M_t[:, s], m_s') + B(M_t[:, s'], m_s)) / 2.  For c2 = c_j
    = x + y g and gamma = u + v g the trace is 2 (x u - c y v), so with the
    rows XU[k, u, j] = alpha N(c_j) + 2 x u and YV[v, j] = -2 c y v, mod p,
    form k takes its target exactly when XU[k, u, j] + YV[v, j] = f mod p
    for f = target - delta; only alpha depends on the form.  The run r = c0
    Q + c1 fixes gamma and f, and key0[r], key1[r], key01[r] are the keys (u
    p + v) p + f of the three forms.  The inverted table J, starts lists the
    solutions of the (0, 0) form: J[starts[k]:starts[k + 1]] holds, in
    ascending order, every j with XU[0, u, j] + YV[v, j] = f mod p, for the
    key k = (u p + v) p + f.  The other two are read forwards: S[(u p + v) Q
    + j] = XU[1, u, j] + YV[v, j] and S01[(u p + v) Q + j] = XU[2, u, j] +
    YV[v, j], mod p.  Each (u, v) splits the Q = p^2 values of j among the p
    values of f, so J, S, S01 and the three key tables each have p^4
    entries (83,521 at p = 17); the oracle asks for them only on a coset its
    budget admits whole.
    """
    if not (K.kind == "field" and K.base.kind == "prime" and H is not None):
        raise ValueError("sweep needs F_p without H, or L = F_p(g) with H")
    ar = _LArrays(K.base, int(K.c))
    entries = ar.entries(basis)
    T = _frozen(ar.code(ar.mul(ar.coefficients, entries)))
    p, c, Q = ar.p, ar.c, K.order
    s0, s1 = _FORMS
    Hr = np.array([int(h) % p for h in H], dtype=np.int64)[:, None, None]

    def sym(X, Y):
        """B(X_s, Y_s') + B(X_s', Y_s) for the three forms (s, s'), on the
        entries X, Y of columns 0 and 1 indexed [..., r, s, 1]; a pair
        indexed [..., k, 1]."""
        Yc = (Hr * Y[0] % p, -Hr * Y[1] % p)
        x, y = (ar.mul((X[0][..., i, :], X[1][..., i, :]), (Yc[0][..., j, :], Yc[1][..., j, :]))
                for i, j in ((s0, s1), (s1, s0)))
        return tuple((a + b).sum(axis=-3) % p for a, b in zip(x, y))

    # the columns of M_0, M_1 (indexed [t, r, s, 1]) and of m = M_2; g_t is
    # half a sym, and so are alpha and beta, as Re B(y, x) = Re B(x, y); p
    # is odd, as F_p has the nonsquare c
    half = (p + 1) // 2
    M = tuple(e[:2, :, :2] for e in entries)
    m = tuple(e[2, :, :2] for e in entries)
    # G[t, k, j] is the code of c_j g_t of form k
    G = ar.code(ar.mul(ar.coefficients, tuple(z * half % p for z in sym(M, m))))
    alpha = sym(m, m)[0] * half % p
    # delta of the run (c0, c1) is N(c0) beta_0 + N(c1) beta_1 + Re(c0
    # sigma(c1) w), for beta_t = Re B(M_t[:, s], M_t[:, s']) and w = B(M_0[:, s],
    # M_1[:, s']) + B(M_0[:, s'], M_1[:, s])
    beta = sym(M, M)[0] * half % p
    x, y = ar.coefficients
    norms = (x * x - c * (y * y % p)) % p
    steps = np.arange(p, dtype=np.int64)[:, None]
    # int32 rows: the sum of two stays below 2p
    XU = ((alpha[:, None] * norms + steps * (2 * x)) % p).astype(np.int32)
    YV = (steps * (-2 * c * y % p) % p).astype(np.int32)
    # one u at a time, so that the int64 argsort output stays p^3 long
    J = np.empty((p, p * Q), dtype=np.min_scalar_type(Q - 1))
    S = np.empty((2, p, p, Q), dtype=np.min_scalar_type(p - 1))
    counts = np.empty((p, p * p), dtype=np.int64)
    vp = np.arange(0, p * p, p, dtype=np.int32)[:, None]
    for u in range(p):
        f = (XU[0, u] + YV) % p
        J[u] = np.argsort(f, axis=1, kind="stable").ravel()
        counts[u] = np.bincount((vp + f).ravel(), minlength=p * p)
        S[:, u] = (XU[1:, u, None] + YV) % p
    starts = np.zeros(p**3 + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    # f = target - delta, against the targets H_0, H_1 and 0, as F0[k, c0] +
    # F1[k, c1] + x0 P[k, c1] + y0 R[k, c1] mod p, for c0 = x0 + y0 g and
    # sigma(c1) w = a + b g, so that Re(c0 sigma(c1) w) = x0 a + c y0 b
    target = np.append(Hr[:2, 0, 0], 0)[:, None]
    F0 = -beta[0] * norms % p
    F1 = (target - beta[1] * norms) % p
    a, b = ar.mul((x, -y % p), sym(tuple(z[0] for z in M), tuple(z[1] for z in M)))
    P, R = -a % p, -c * b % p
    # the keys of the three forms, for a block of c0 at a time
    keys = np.empty((3, Q, Q), dtype=np.min_scalar_type(p**3 - 1))
    G0, G1 = G[0][:, :, None], G[1][:, None]
    rows = max(1, _KEY_RUNS // Q)
    for i0 in range(0, Q, rows):
        block = slice(i0, i0 + rows)
        u, v = ar.decode(G0[:, block] + G1)
        x0, y0 = x[block, None], y[block, None]
        f = (F0[:, block, None] + F1[:, None] + x0 * P[:, None] + y0 * R[:, None]) % p
        keys[:, block] = (u * p + v) * p + f
    key0, key1, key01 = keys.reshape(3, Q * Q)
    S, S01 = S.reshape(2, p**4)
    return ar, T, tuple(map(_frozen, (J.ravel(), starts, key0, key1, key01, S, S01)))


def _windows(start, stop, chunk, run):
    """The [lo, hi) slices of [start, stop), in order, of at most chunk
    candidates; when a run is longer than chunk, no slice crosses a run
    head."""
    lo = start
    while lo < stop:
        hi = min(lo + chunk, stop)
        if run > chunk:
            hi = min(hi, (lo // run + 1) * run)
        yield lo, hi
        lo = hi


def coset_sweep(K, basis, H=None, start=0, stop=None):
    """Count the members of determinant 1, and given H of U(H), of the span
    c0 M0 + c1 M1 + c2 M2 of basis = (M0, M1, M2), (c0, c1, c2) over K^3 in
    the order of linalg.lex_vectors (c0 slowest).  K is F_p without H, or
    L = F_p(g) with H.  Returns (hits, example): the count and the first hit's
    coefficient triple, or None.  start/stop restrict the flattened
    candidate index range, 0 <= start <= stop <= |K|^3 (ValueError
    otherwise); the counts of disjoint partitions add up.

    A run of Q = |K| consecutive candidates shares (c0, c1).  Over F_p the
    determinant is the cubic form of the basis (_cubic_form), grouped by the
    power of c2 into a (10, 4) matrix.  The (runs, 10) rows of run monomials
    c0^e0 c1^e1 times that matrix give the coefficients a_e of c2^e per run,
    and those times the (4, columns) table of c2^e give every candidate's
    determinant, each product reduced mod p, so no sum passes 4 p^2.  The
    rows and the table come from _run_monomials and _powers: memoized per p
    while p^2 <= _PArrays.chunk (_power_tables), built for the chunk's runs
    and c2 columns otherwise.  A run longer than the chunk is cut into
    windows of that one run, which take only their own c2 columns.  Over L
    each entry of X is a sum of three lookups in per-coefficient tables of
    c M_t[r][s] over the elements c (codes 3p re + im, so that a sum of
    three decodes exactly), built once per coset.  Three forms of X* H X
    filter first: the norm forms sum_r H_r N(X[r][s]) of columns 0 and 1
    and the real part of entry (0, 1), sum_r H_r Re(X[r][0] sigma(X[r][1])).
    Each splits into delta + alpha N(c2) + Tr(sigma(c2) gamma) with delta
    and gamma fixed within a run and alpha within the coset, and the
    per-coset tables hold each run's keys (gamma, target - delta) of the
    three forms (_tables).  So the (0, 0) form equals H_0 exactly for the c2
    that the inverted table lists at the run's key, about p + 1 of the Q,
    and no other candidate is visited.  The (1, 1) form takes one lookup per
    listed candidate and leaves about 1/p of them, and the (0, 1) form one
    lookup per survivor, which leaves about 1/p of those; they take the full
    unitarity test, all nine entries of X* H X as batched integer 3x3
    products, then linalg.det3.
    """
    basis = tuple(linalg.mat(M) for M in basis)
    if K.kind == "prime" and H is None:
        ar = _PArrays(K.p)
        by_c2 = _BY_C2 * _cubic_form(ar, basis)[:, None]
    else:
        ar, (T0, T1, T2), (J, starts, key0, key1, key01, S, S01) = _tables(
            K, basis, None if H is None else tuple(H)
        )
        Hints = np.array([int(h) % ar.p for h in H], dtype=np.int64)
        Hdiag = np.diag(Hints)
    p = ar.p
    Q = K.order
    total = Q**3
    stop = total if stop is None else stop
    if not 0 <= start <= stop <= total:
        raise ValueError(f"sweep window [{start}, {stop}) is not within [0, {total}]")
    memo = H is None and Q * Q <= ar.chunk
    if memo:
        R, V = _power_tables(p)

    hits = 0
    example = None

    for lo, hi in _windows(start, stop, ar.chunk, Q):
        first, last = lo // Q, (hi - 1) // Q
        off = lo - first * Q
        runs = np.arange(first, last + 1, dtype=np.int64)

        if H is None:
            # per run: the coefficients a_e of c2^e; then every candidate of
            # the runs, or, in a window of one run, the window's c2 columns
            a = (R[first:last + 1] if memo else _run_monomials(runs, p)) @ by_c2 % p
            c2 = slice(0, Q) if last > first else slice(off, off + hi - lo)
            Vc = V[:, c2] if memo else _powers(np.arange(c2.start, c2.stop, dtype=np.int64), p)
            d = (a @ Vc % p).ravel()[off - c2.start:][: hi - lo]
            found = lo + np.flatnonzero(ar.is_one(d))
        else:
            # (0, 0): each run's slice of the inverted table at its key,
            # flattened in order
            key = key0[first:last + 1]
            begin = starts[key]
            count = starts[key + 1] - begin
            j2 = J[np.arange(count.sum()) + np.repeat(begin - np.cumsum(count) + count, count)]
            idx = np.repeat(runs * Q, count) + j2
            # only the first and last runs can stick out of [lo, hi)
            cut = slice(*np.searchsorted(idx, (lo, hi)))
            j2, idx = j2[cut], idx[cut]
            # (1, 1): the column-1 table at the run's (u, v) against its f,
            # split once per run and repeated over its listed candidates, the
            # index formed in int64 (u p + v times Q passes the keys' dtype)
            uv1, f1 = np.divmod(key1[first:last + 1].astype(np.int64), p)
            keep = np.flatnonzero(S[np.repeat(uv1 * Q, count)[cut] + j2] == np.repeat(f1, count)[cut])
            if not len(keep):
                continue
            idx, j2 = idx[keep], j2[keep]
            # (0, 1): the same read in its own table, at the survivor's run
            run = idx // Q
            uv01, f01 = np.divmod(key01[run].astype(np.int64), p)
            keep = S01[uv01 * Q + j2] == f01
            if not keep.any():
                continue
            idx, j2 = idx[keep], j2[keep]
            j0, j1 = np.divmod(run[keep], Q)
            A, B = ar.decode((T0[:, :, j0] + T1[:, :, j1] + T2[:, :, j2]).transpose(2, 0, 1))
            # full unitarity: X^T H conj(X) = H in all nine entries, from A^T H A,
            # B^T H B and M = B^T H A (the g part is M - M^T), on the integer
            # lattice with one residue per entry (the sums stay below 6 p^4, inside
            # int64 for any p whose tables fit)
            At, Bt = A.transpose(0, 2, 1), B.transpose(0, 2, 1)
            HA = Hints[:, None] * A
            M = Bt @ HA % p
            re = (At @ HA - ar.c * (Bt @ (Hints[:, None] * B))) % p
            ok = ((re == Hdiag) & (M == M.transpose(0, 2, 1))).all(axis=(1, 2))
            if not ok.any():
                continue
            idx, A, B = idx[ok], A[ok], B[ok]
            X = [[(A[:, r, s], B[:, r, s]) for s in range(3)] for r in range(3)]
            # determinant = 1
            found = idx[ar.is_one(linalg.det3(ar, X))]
        hits += len(found)
        if example is None and len(found):
            i = int(found[0])
            example = tuple(ar.element(c) for c in (i // (Q * Q), i // Q % Q, i % Q))
    return hits, example


@functools.lru_cache(maxsize=4)
def _su_basis(L, A, X0):
    """X0, X0 conj(A), X0 conj(A)^2, formed once per coset."""
    Abar = linalg.map_entries(L.sigma, A)
    M1 = linalg.mat_mul(L, X0, Abar)
    return X0, M1, linalg.mat_mul(L, M1, Abar)


def su_coset_sweep(L, H, A, X0, start=0, stop=None):
    """coset_sweep over the basis X0, X0 conj(A), X0 conj(A)^2: the SU(H)
    members X = X0 (c0 + c1 conj(A) + c2 conj(A)^2), (c0, c1, c2) in L^3.
    For X0 an invertible intertwiner, left X0 = X0 conj(A), and conj(A)
    regular, this is a whole conjugator coset {X : left X = X conj(A)} (the
    swap coset for X0 a unitary base conjugator of conj(A) to A^-1).  The
    calls on one coset share its basis.
    """
    return coset_sweep(L, _su_basis(L, linalg.mat(A), linalg.mat(X0)), H, start, stop)
