"""Reality decision procedures for octonion-algebra automorphisms.

An element t is real when some h conjugates it to its inverse.  The engine
classifies t by its fixed subalgebra, reduces to a 3x3 matrix problem over k
(split fixed algebra) or over a quadratic extension L (field case), decides
by norm-class arithmetic in the centralizer algebra, and produces verifiable
witnesses: either an exact two-involution factorization or an explicit
conjugator.  Every real verdict passes check_witness, the same exact check
`report --verify` runs on a saved report.  A brute-force coset enumeration
serves as an independent oracle, and the finite-field non-real constructions
are built and checked exactly.  Internal identities are checked with explicit
raises, never `assert`, so they hold under python -O too.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .automorphisms import (
    AutMap,
    SplitFrame,
    _square_scalar,
    first_anisotropic,
    _in_frame_basis,
    certify_automorphism,  # re-exported: the bench span tests read reality.certify_automorphism
    extract_frame_matrix,
    in_su,
    in_unitary,
    quadratic_subfield_frame,
    quaternion_frame,
    sigma_h,
    sl3_embed,
    split_frame_from_idempotent,
    stab_map,
    su_embed,
    swapped_embed,
    zorn_split_frame,
)
from .composition import hermitian_row, octonion_from_hermitian, zorn_algebra
from .fields import (
    FieldError,
    PrimeField,
    QuadraticEtale,
    _first_irreducible_cubic,
    _has_eigenvalue_one,
    cubic_is_irreducible,
)
from .linalg import min_equals_char3

DEFAULT_BUDGET = 10**8


class RealityError(FieldError):
    pass


@dataclass
class RealityReport:
    family: str
    verdict: str  # "real" | "not_real" | "unknown"
    char_poly: str = ""
    case: dict = field(default_factory=dict)
    witness: dict | None = None
    obstruction: dict | None = None
    notes: list = field(default_factory=list)


def poly_text(F, chi):
    c0, c1, c2 = (F.to_text(c) if not isinstance(c, tuple) else str(c) for c in chi)
    return f"X^3 + ({c2})*X^2 + ({c1})*X + ({c0})"


# -- classification -----------------------------------------------------------

def classify(t):
    """Fixed-subalgebra classification of a certified automorphism: returns
    (case, fixed), the case dict and the basis of ker(t - 1) it computed.

    Computes ker(t - 1) and V_t = ker(t - 1)^8 by AutMap.fixed_spaces (V_t
    is ker(t - 1) itself when the norm form is nondegenerate on it, as for
    every semisimple t), r = dim(V_t meet trace-zero), and the case
    tag: r = 3 means a quaternion subalgebra is left invariant (fixed
    pointwise for the semisimple elements handled downstream), r = 7 covers
    the identity and unipotent-type maps, r = 1 means the fixed subalgebra is
    a two-dimensional etale algebra (split or a field), k 1 + k x with its
    trace-zero generator x and x^2 = s 1 recorded as etale_generator and
    etale_square.
    """
    if not t.certified:
        raise RealityError("classify needs a certified automorphism")
    alg = t.algebra
    F = alg.field
    fixed, V = t.fixed_spaces()
    # dim(V meet C0) = dim V - rank of the trace functional restricted to V
    tr_vals = [alg.trace(v) for v in V]
    r = len(V) - (0 if all(F.is_zero(x) for x in tr_vals) else 1)
    out = {"r": r, "dim_V": len(V), "dim_fixed_pointwise": len(fixed)}
    if r == 3:
        out["tag"] = "fixes_quaternion"
    elif r == 7:
        out["tag"] = "full"
    elif r == 1:
        out["tag"] = "fixes_etale"
        # V = k.1 + k.x with x trace zero; the algebra is split iff x^2 = s.1
        # with s a nonzero square
        x = _trace_zero_part(alg, V)
        s = _square_scalar(alg, x)
        if s is None:
            raise RealityError("fixed-line generator does not square to a scalar")
        out["etale_generator"], out["etale_square"] = x, s
        out["etale_split"] = F.is_square(s)
        # fixed lies in V, so equal dimensions make them equal
        out["fixed_is_pointwise"] = len(fixed) == len(V)
    else:
        raise RealityError(f"unexpected fixed-space dimension data: r = {r}")
    return out, fixed


def _trace_zero_part(alg, V):
    F = alg.field
    base = None
    for v in V:
        tv = alg.trace(v)
        if base is None and not F.is_zero(tv):
            base = (v, tv)
    if base is None:
        return V[0]
    v0, t0 = base
    for v in V:
        tv = alg.trace(v)
        w = alg.sub(alg.scale(t0, v), alg.scale(tv, v0))
        if not alg.is_zero(w):
            return w
    raise RealityError("no trace-zero vector in the fixed algebra")


# -- witness checks -----------------------------------------------------------

def _require(ok, what):
    """Raise AssertionError(what) unless ok: an internal identity that must
    hold, checked explicitly so that it also runs under python -O."""
    if not ok:
        raise AssertionError(what)


def _coset_sides(K, A, coset, H=None):
    """(left, right) with coset = {B : left B = B right}: coset 0 conjugates A
    to A^-1, coset 1 goes through the frame swap, {B : A B = B tA} on a split
    frame (H None), {X : A^-1 X = X conj(A)} on a quadratic-field frame."""
    if coset == 1 and H is None:
        return A, linalg.transpose(A)
    Ainv = linalg.inverse3(K, A)
    return (Ainv, A) if coset == 0 else (Ainv, _sigma_mat(K, A))


def check_witness(K, A, witness, H=None):
    """Re-check a symmetric_pair, unitary_pair or conjugator_matrix witness
    of A exactly; raises AssertionError naming the first identity that fails.
    On a quadratic-field frame (H given) a conjugator must also lie in U(H)."""
    kind = witness["type"]
    if kind == "symmetric_pair":
        S1, S2 = witness["S1"], witness["S2"]
        for name, S in (("S1", S1), ("S2", S2)):
            _require(linalg.mat_eq(K, S, linalg.transpose(S)), f"{name} symmetric")
            _require(K.eq(linalg.det3(K, S), K.one), f"det {name} = 1")
        _require(linalg.mat_eq(K, linalg.mat_mul(K, S1, S2), A), "S1 S2 = A")
    elif kind == "unitary_pair":
        A1, A2 = witness["A1"], witness["A2"]
        I = linalg.identity(K, 3)
        for name, Ai in (("A1", A1), ("A2", A2)):
            _require(in_su(Ai, K, H), f"{name} in SU(H)")
            prod = linalg.mat_mul(K, _sigma_mat(K, Ai), Ai)
            _require(linalg.mat_eq(K, prod, I), f"conj({name}) {name} = 1")
        _require(linalg.mat_eq(K, linalg.mat_mul(K, A1, A2), A), "A1 A2 = A")
    elif kind == "conjugator_matrix":
        B = witness["B"]
        _require(witness["coset"] in (0, 1), "coset is 0 or 1")
        left, right = _coset_sides(K, A, witness["coset"], H)
        _require(
            linalg.mat_eq(K, linalg.mat_mul(K, left, B), linalg.mat_mul(K, B, right)),
            "B conjugates A to its inverse",
        )
        _require(K.eq(linalg.det3(K, B), K.one), "det B = 1")
        if H is not None:
            _require(in_unitary(B, K, H), "B in U(H)")
    else:
        raise RealityError(f"witness type {kind} has no matrix check")


def _real(report, K, A, witness, H=None):
    """Record the verdict real with its witness, once check_witness holds."""
    check_witness(K, A, witness, H)
    report.verdict = "real"
    report.witness = witness
    return report


# -- shared matrix helpers ----------------------------------------------------

_RATIONAL_GRID = tuple(Fraction(x) for x in (0, 1, -1, 2, -2, 3, -3))


class _Undecided(Exception):
    """A search that cannot settle the question; the message is the note that
    goes with the verdict unknown."""


class _Search:
    """The searches of one top-level call, sharing one candidate budget: the
    rational-grid searches of the decisions and of the oracle's split cosets
    over Q and the scans of norm_preimage for a non-cube over a finite
    field, whose candidates first charges one at a time, and the oracle's
    finite-field coset sweeps, charged whole.  charge is the one place the
    budget runs out.

    Running out of budget and missing on the rational grid both raise
    _Undecided; so does a span over an infinite extension of Q, which is not
    searched.
    """

    def __init__(self, budget):
        self.left = budget

    def __call__(self, F, n, accept):
        """The first non-None accept(c) over the coefficient vectors c in
        _RATIONAL_GRID^n of a span of n >= 1 matrices over Q, in the
        lexicographic order of linalg.lex_vectors."""
        if F.kind != "rationals":
            raise _Undecided("spans over an infinite extension of Q are not searched")
        hit = self.first(linalg.lex_vectors(n, lambda: _RATIONAL_GRID), accept)
        if hit is None:
            raise _Undecided("no determinant-1 combination on the rational grid")
        return hit

    def charge(self, n):
        """Spend n candidates of the budget, or all that is left if n is more."""
        if n > self.left:
            self.left = 0
            raise _Undecided("budget exhausted")
        self.left -= n

    def first(self, xs, accept):
        """The first non-None accept(x) over xs, charging one candidate
        before each visit, so candidate budget + 1 is drawn but not visited;
        None when xs runs out."""
        for x in xs:
            self.charge(1)
            got = accept(x)
            if got is not None:
                return got
        return None


def _powers(F, A):
    """The basis I, A, A^2 of k[A]: c is the f(A) = combination(F, c, _powers(F, A))."""
    return (linalg.identity(F, 3), A, linalg.mat_mul(F, A, A))


def _cyclic_pair(F, A):
    """(v, Av, m1, c) for a non-regular A, or None when A is scalar: A^2 v =
    -m0 v - m1 Av for the minimal polynomial X^2 + m1 X + m0, c = tr A + m1
    is the eigenvalue of the eigenplane, and v is the first of the six
    cyclic candidates e_i, e_i + e_j with v, Av independent (a plane holds
    at most three of them and a line one, so only a scalar A has none)."""
    for v in itertools.islice(linalg._cyclic_candidates(F), 6):
        Av = linalg.mat_vec(F, A, v)
        if linalg.rank(F, (v, Av)) == 2:
            _, minus_m1 = linalg.solve(F, linalg.transpose((v, Av)), linalg.mat_vec(F, A, Av))
            trace = F.neg(linalg.charpoly3(F, A)[2])
            return v, Av, F.neg(minus_m1), F.sub(trace, minus_m1)
    return None


def triple_root(F, chi):
    """The triple root when chi = (X - m)^3, else None."""
    c0, c1, c2 = chi
    three = F.element(3)
    if F.is_zero(three):
        if not (F.is_zero(c1) and F.is_zero(c2)):
            return None
        # characteristic 3: X^3 - m^3; cube roots are unique
        m = None
        for x in F.elements():
            if F.eq(F.pow(x, 3), F.neg(c0)):
                m = x
                break
        return m
    m = F.neg(F.div(c2, three))
    ok = F.eq(c1, F.mul(three, F.mul(m, m))) and F.eq(c0, F.neg(F.pow(m, 3)))
    return m if ok else None


def _in_power_class(F, x, g):
    """Membership of x in (K*)^g for a finite field K (F_p or L = F_{q^2}):
    x^((|K| - 1)/gcd(g, |K| - 1)) = 1."""
    if F.is_zero(x):
        return False
    if g == 1:
        return True
    n = F.order - 1
    return F.eq(F.pow(x, n // math.gcd(g, n)), F.one)


def det_image_exponent(F, chi):
    """The image {det f(A)} for regular A with characteristic polynomial chi
    over a finite field is (k*)^g; returns g (3 for a triple root, else 1)."""
    return 3 if triple_root(F, chi) is not None else 1


def _non_cube(R, x):
    return not R.is_zero(x) and not _in_power_class(R, x, 3)


def _first_non_cube(R, search):
    """The first non-cube of R* among R.elements() over F_p, and among 1 + b g
    (b in F_q) over L = F_q(g), where k* and k* g are all cubes when
    3 | q + 1; each visit is charged to search."""
    if hasattr(R, "gen"):
        g = R.gen()
        candidates = (R.add(R.one, R.scalar_mul(b, g)) for b in R.base.elements())
    else:
        candidates = R.elements()
    x = search.first(candidates, lambda x: x if _non_cube(R, x) else None)
    if x is None:
        raise RealityError("no non-cube found; 9 | |R| - 1 guarantees one")
    return x


def _cube_root(R, x, non_cube):
    """A cube root of the cube x of R* (R = F_p or L = F_{q^2}), n = |R| - 1:
    x^e for e = 3^-1 mod n when 3 does not divide n, or mod n/3 when 9 does
    not (x^(n/3) = 1); else Adleman-Manders-Miller on the 3-Sylow subgroup,
    generated by z = non_cube()^t for n = 3^s t, 3 not dividing t."""
    n = R.order - 1
    if n % 9:
        root = R.pow(x, pow(3, -1, n // 3 if n % 3 == 0 else n))
    else:
        s, t = 0, n
        while t % 3 == 0:
            s, t = s + 1, t // 3
        # root^3 h = x with h = x^(1 - 3u) in the subgroup of order 3^(s-1)
        root = R.pow(x, pow(3, -1, t))
        h = R.div(x, R.pow(root, 3))
        z = R.pow(non_cube(), t)
        omega, zinv = R.pow(z, 3 ** (s - 1)), R.inv(z)
        # e with z^e = h, one base-3 digit at a time; 3 | e
        e = 0
        for i in range(1, s):
            d = R.pow(R.mul(h, R.pow(zinv, e)), 3 ** (s - 1 - i))
            e += 3**i * (0 if R.eq(d, R.one) else 1 if R.eq(d, omega) else 2)
        root = R.mul(root, R.pow(z, e // 3))
    _require(R.eq(R.pow(root, 3), x), "cube root")
    return root


def norm_preimage(R, chi, target, search=None):
    """Coefficients (c0, c1, c2) of f = c0 + c1 theta + c2 theta^2 in
    E = R[X]/chi, theta the class of X, with N_{E/R}(f) = target, for R = F_p
    or L = F_{q^2}, a monic cubic chi with chi(0) != 0 and target in (R*)^g,
    g = det_image_exponent(R, chi).  A cube target takes f = c, c^3 = target
    (always so for g = 3).  Otherwise f = c (a - theta)^j for the first a of
    R.elements() whose N(a - theta) = chi(a) = nu is a non-cube and the
    j in {1, 2} with target / nu^j = c^3.  The scans for a and for the
    non-cube of _cube_root are charged to search (a _Search; unbounded at
    the default budget when None).  By the Weil bound on the cubic character
    sum of chi (not a cube), a non-cube value exists once |R| >= 11, so a
    miss raises RealityError."""
    if search is None:
        search = _Search(DEFAULT_BUDGET)
    z = R.zero
    if _in_power_class(R, target, 3):
        return _cube_root(R, target, lambda: _first_non_cube(R, search)), z, z
    c0, c1, c2 = chi

    def value(a):
        return R.add(R.mul(R.add(R.mul(R.add(a, c2), a), c1), a), c0)

    # a = 0 is a hit: a miss is None, not a falsy a
    a = search.first(R.elements(), lambda a: a if _non_cube(R, value(a)) else None)
    if a is None:
        raise RealityError("chi takes no non-cube value; its norm preimage is not built")
    nu = value(a)
    rest = R.div(target, nu)
    if _in_power_class(R, rest, 3):
        c = _cube_root(R, rest, lambda: nu)
        return R.mul(c, a), R.neg(c), z
    c = _cube_root(R, R.div(rest, nu), lambda: nu)
    ca = R.mul(c, a)
    return R.mul(ca, a), R.neg(R.add(ca, ca)), c


# -- SL(3) side ---------------------------------------------------------------

def symmetric_decomposition(F, A, budget=DEFAULT_BUDGET):
    """A = S1 S2 with S1, S2 symmetric of determinant 1, or a failure record.

    Looks for a symmetric determinant-1 solution S of S A = tA S and returns
    (S^-1, S A).  For regular A every solution of the linear system is
    automatically symmetric and the solutions form T0 k[A]; over a finite
    field S = T0 f(A) is built (_regular_coset_conjugator), over Q f is
    searched for on the rational grid.  A non-regular A has S written down.
    The searches and the non-cube scans visit at most `budget` candidates;
    when that is not enough, or a search over the rationals misses its grid,
    the record carries the reason under "unknown".
    """
    if not F.eq(linalg.det3(F, A), F.one):
        raise RealityError("need det A = 1")
    try:
        dec = _symmetric_decomposition(F, A, min_equals_char3(F, A), _Search(budget))
    except _Undecided as exc:
        return {"ok": False, "obstruction": None, "unknown": str(exc)}
    if dec["ok"]:
        check_witness(F, A, {"type": "symmetric_pair", "S1": dec["S1"], "S2": dec["S2"]})
    return dec


def _symmetric_decomposition(F, A, regular, search):
    """symmetric_decomposition for an A already known to have det 1, with
    regular = min_equals_char3(F, A)."""
    if not regular:
        return _symmetric_pair(F, A, _non_regular_intertwiner(F, A))
    S, obstruction = _regular_coset_conjugator(F, linalg.transpose(A), A, search)
    if S is None:
        return {"ok": False, "obstruction": obstruction}
    if not linalg.mat_eq(F, S, linalg.transpose(S)):
        raise RealityError("intertwiner is not symmetric; solver invariant broken")
    return _symmetric_pair(F, A, S)


def _regular_coset_conjugator(F, left, A, search):
    """(B, None) with B of determinant 1 in the coset {B : left B = B A} of a
    regular A similar to left, or (None, obstruction) when the determinant
    class rules it out.  The coset is X0 k[A] for any invertible intertwiner
    X0, and det X0 f(A) = det X0 N(f) for the norm N from k[A].  Over a
    finite field X0 = K_left K_A^-1 from the Krylov matrices, N(f) runs over
    (k*)^g, g = det_image_exponent, so the coset holds determinant 1 exactly
    when 1/det X0 lies in (k*)^g; past that test norm_preimage builds f,
    charging only its short scans for a non-cube.  Over Q, X0 is the first
    invertible matrix of solve_sylvester_space's basis, else the first
    invertible combination on the rational grid, and f the first on the
    grid."""
    chi = linalg.charpoly3(F, A)
    if F.order is None:
        space = linalg.solve_sylvester_space(F, left, A)

        def invertible(M):
            return None if F.is_zero(linalg.det3(F, M)) else M

        # det is a nonzero cubic form on the span, so some grid point avoids
        # its zeros
        X0 = next(filter(None, map(invertible, space)), None) or search(
            F, 3, lambda c: invertible(linalg.combination(F, c, space))
        )
        target = F.inv(linalg.det3(F, X0))
        # det f(A) is the norm form of k[A] on f's coefficients
        N = linalg.norm_form3(F, chi)
        c = search(F, 3, lambda c: c if F.eq(N(c), target) else None)
    else:
        K_left, K_A = linalg.krylov_similarity(F, left), linalg.krylov_similarity(F, A)
        X0 = linalg.mat_mul(F, K_left, linalg.inverse3(F, K_A))
        target = F.inv(linalg.det3(F, X0))
        g = det_image_exponent(F, chi)
        if not _in_power_class(F, target, g):
            value = F.to_text(target)
            return None, {"value": value, "excluded_class": f"(k*)^{g}", "class_group_order": g}
        c = norm_preimage(F, chi, target, search)
    return linalg.mat_mul(F, X0, linalg.combination(F, c, _powers(F, A))), None


def _non_regular_intertwiner(F, A):
    """The symmetric S of determinant 1 with S A = tA S for a non-regular A.

    Scalar A takes S = I.  Otherwise P = [v, Av, w], with w an eigenvector
    for c outside span(v, Av), gives A = P (C_m + (c)) P^-1 for the
    companion matrix C_m of X^2 + m1 X + m0.  S0 = [[0, 1], [1, -m1]] is
    symmetric with S0 C_m = tC_m S0 (Taussky-Zassenhaus), so S = P^-T
    (S0 + (-(det P)^2)) P^-1 is symmetric with S A = tA S and det S = 1."""
    I = linalg.identity(F, 3)
    cyclic = _cyclic_pair(F, A)
    if cyclic is None:
        return I
    v, Av, m1, c = cyclic
    eigen = linalg.nullspace(F, linalg.mat_sub(F, A, linalg.scalar_mat(F, c, I)))
    for w in eigen:
        P = linalg.transpose((v, Av, w))
        d = linalg.det3(F, P)
        if not F.is_zero(d):
            break
    else:
        raise RealityError("no eigenvector outside span(v, Av)")
    z = F.zero
    S0 = ((z, F.one, z), (F.one, F.neg(m1), z), (z, z, F.neg(F.mul(d, d))))
    Pinv = linalg.inverse3(F, P)
    return linalg.mat_mul(F, linalg.transpose(Pinv), linalg.mat_mul(F, S0, Pinv))


def _symmetric_pair(F, A, S):
    """(S^-1, S A) for a symmetric determinant-1 S with S A = tA S."""
    return {"ok": True, "S1": linalg.inverse3(F, S), "S2": linalg.mat_mul(F, S, A)}


def reality_sl3(F, A, budget=DEFAULT_BUDGET):
    """Reality of the automorphism acting as A in SL(3, k) on a split frame.

    Decides whether A is conjugate to tA in SL(3) (the swap coset; equivalent
    to a symmetric determinant-1 factorization) or A to A^-1 in SL(3) (the
    identity coset), which together exhaust the conjugators when the fixed
    subalgebra is exactly the split quadratic algebra L.  Over a finite
    field both cosets of a regular A are decided by the determinant class
    of their Krylov base point, and the conjugator of determinant 1 is built
    by norm_preimage (_regular_coset_conjugator), visiting no span
    candidate; the identity coset is tried only when the swap coset is
    obstructed and A, A^-1 share their characteristic polynomial.  Only the
    non-cube scans of norm_preimage, and over Q the rational grid, spend
    the budget: at most `budget` candidates together, past which the verdict
    is unknown.  A non-regular A is real by a written-down symmetric pair.
    """
    if not F.eq(linalg.det3(F, A), F.one):
        raise RealityError("need det A = 1")
    chi = linalg.charpoly3(F, A)
    report = RealityReport(family="sl3", verdict="unknown", char_poly=poly_text(F, chi))
    I = linalg.identity(F, 3)
    if linalg.mat_eq(F, A, I):
        report.notes.append("identity element")
        return _real(report, F, A, {"type": "symmetric_pair", "S1": I, "S2": I})

    regular = report.case["regular"] = min_equals_char3(F, A)
    search = _Search(budget)
    try:
        dec = _symmetric_decomposition(F, A, regular, search)
        if dec["ok"]:
            witness = {"type": "symmetric_pair", "S1": dec["S1"], "S2": dec["S2"]}
            return _real(report, F, A, witness)
        # the swap coset is obstructed, so A is regular over a finite field
        if _identity_coset_possible(F, chi):
            B, _ = _regular_coset_conjugator(F, linalg.inverse3(F, A), A, search)
            if B is not None:
                return _real(report, F, A, {"type": "conjugator_matrix", "B": B, "coset": 0})
        report.verdict = "not_real"
        report.obstruction = dec["obstruction"]
        report.notes.append(
            "no symmetric determinant-1 intertwiner, and the identity coset "
            "is ruled out or obstructed"
        )
        return report
    except _Undecided as exc:
        report.notes.append(str(exc))
    if _has_eigenvalue_one(F, chi):
        report.notes.append(
            "fixed subalgebra exceeds L (eigenvalue 1); only the two-involution "
            "route applies and it found nothing"
        )
    if F.kind == "rationals":
        report.notes.append(
            "norm-class membership over the rationals is not decided here"
        )
    return report


# -- SU(3) side ---------------------------------------------------------------

def companion_matrix(L, chi):
    c0, c1, c2 = chi
    z, o = L.zero, L.one
    return (
        (z, z, L.neg(c0)),
        (o, z, L.neg(c1)),
        (z, o, L.neg(c2)),
    )


def _self_dual_anti_diagonal(L, chi):
    """The anti-diagonal (-1, -1, -1), the constant factor of the companion
    matrix of a self-dual cubic chi = X^3 - sigma(a) X^2 + a X - 1; raises
    RealityError for any other chi."""
    c0, c1, c2 = chi
    z, mone = L.zero, L.neg(L.one)
    if not L.eq(c0, mone):
        raise RealityError("constant coefficient must be -1 (determinant 1)")
    if not L.eq(L.neg(c2), L.sigma(c1)):
        raise RealityError("coefficients violate the self-duality -c2 = sigma(c1)")
    return ((z, z, mone), (z, mone, z), (mone, z, z))


def companion_factorization(L, chi):
    """The two displayed factors of the companion matrix of a self-dual cubic
    chi = X^3 - sigma(a) X^2 + a X - 1: A1 depends on the coefficients and
    A2 is the anti-diagonal (-1, -1, -1); both satisfy conj(Ai) Ai = 1."""
    A2 = _self_dual_anti_diagonal(L, chi)
    _, c1, c2 = chi
    z, mone = L.zero, L.neg(L.one)
    A1 = (
        (mone, z, z),
        (c1, z, mone),
        (c2, mone, z),
    )
    Ach = companion_matrix(L, chi)
    _require(linalg.mat_eq(L, linalg.mat_mul(L, A1, A2), Ach), "A1 A2 = companion matrix")
    for name, Ai in (("A1", A1), ("A2", A2)):
        prod = linalg.mat_mul(L, linalg.map_entries(L.sigma, Ai), Ai)
        _require(linalg.mat_eq(L, prod, linalg.identity(L, 3)), f"conj({name}) {name} = 1")
    return A1, A2


def _sigma_mat(L, M):
    return linalg.map_entries(L.sigma, M)


def unitary_base_conjugator(L, H, A, chi):
    """X0 = T J sigma(T)^-1 in U(H) with X0 conj(A) X0^-1 = A^-1 and
    conj(X0) X0 = 1, for T = krylov_similarity(L, A) (A = T C T^-1, C the
    companion matrix of chi) and J the anti-diagonal (-1, -1, -1), the
    constant factor of companion_factorization (needs min poly = char
    poly)."""
    J = _self_dual_anti_diagonal(L, chi)
    T = linalg.krylov_similarity(L, A)
    X0 = linalg.mat_mul(L, linalg.mat_mul(L, T, J), linalg.inverse3(L, _sigma_mat(L, T)))
    Abar = _sigma_mat(L, A)
    Ainv = linalg.inverse3(L, A)
    _require(in_unitary(X0, L, H), "companion conjugator in U(H)")
    lhs = linalg.mat_mul(L, X0, Abar)
    rhs = linalg.mat_mul(L, Ainv, X0)
    _require(linalg.mat_eq(L, lhs, rhs), "X0 conj(A) X0^-1 = A^-1")
    w = linalg.mat_mul(L, _sigma_mat(L, X0), X0)
    _require(linalg.mat_eq(L, w, linalg.identity(L, 3)), "conj(X0) X0 = 1")
    return X0


def reality_su(L, A, H, budget=DEFAULT_BUDGET):
    """Reality of the automorphism acting as A in SU(H) on a quadratic-field
    frame.  In the swap coset, conjugacy of t and t^-1 is conjugacy of
    conj(A) and A^-1 inside SU(H).  For a regular A over a finite field one
    class test decides it: det X0 of the unitary base conjugator against
    (L*)^g, g = det_image_exponent, after which the centralizer element of
    the admitted determinant is built (_reality_su_regular), visiting no
    span candidate.  A non-regular A is real by a written-down base
    conjugator.  Only the non-cube scans of norm_preimage spend the budget,
    at most `budget` candidates together; past it the verdict is unknown."""
    if not in_su(A, L, H):
        raise RealityError("A must lie in SU(H)")
    chi = linalg.charpoly3(L, A)
    report = RealityReport(
        family="su",
        verdict="unknown",
        char_poly=poly_text(L, chi),
    )
    I = linalg.identity(L, 3)
    if linalg.mat_eq(L, A, I):
        report.notes.append("identity element")
        return _real(report, L, A, {"type": "unitary_pair", "A1": I, "A2": I, "C": I}, H)
    regular = min_equals_char3(L, A)
    report.case["regular"] = regular
    if not regular:
        return _finish_su(L, H, A, _non_regular_base_conjugator(L, H, A), I, report)
    try:
        return _reality_su_regular(L, A, H, chi, report, _Search(budget))
    except _Undecided as exc:
        report.notes.append(str(exc))
        return report


def _reality_su_regular(L, A, H, chi, report, search):
    """The swap coset of a regular A is X0 times the unitary centralizer,
    whose determinants det y / sigma(det y), y in L[conj(A)], form L^1 meet
    (L*)^g over a finite field, g = det_image_exponent (Hilbert 90).  As
    N(det X0) = 1, the coset holds a conjugator of determinant 1 exactly
    when det X0 lies in (L*)^g, and past that test
    _find_unitary_centralizer_with_det builds the centralizer element of
    determinant 1 / det X0.  Only a triple root (g = 3) can fail the test;
    the identity coset is not searched, so that verdict is not_real only
    when the identity coset is empty."""
    X0 = unitary_base_conjugator(L, H, A, chi)
    d = linalg.det3(L, X0)
    _require(L.base.eq(L.norm(d), L.base.one), "det X0 has norm 1")
    if L.order is None:
        report.notes.append("rational base: centralizer norm classes not decided")
        return report
    g = det_image_exponent(L, chi)
    if not _in_power_class(L, d, g):
        report.verdict = "not_real"
        report.obstruction = {
            "value": L.to_text(d),
            "excluded_class": "cubes of L*",
            "class_group_order": math.gcd(3, L.order - 1),
        }
        if _identity_coset_possible(L, chi):
            report.notes.append("identity coset needs a separate scan")
            report.verdict = "unknown"
        else:
            report.notes.append(
                "identity coset ruled out: characteristic polynomials of A "
                "and A^-1 differ"
            )
        return report
    z = _find_unitary_centralizer_with_det(L, H, A, L.inv(d), g, search)
    return _finish_su(L, H, A, X0, z, report)


def _identity_coset_possible(F, chi):
    """A and A^-1 (det 1) share the characteristic polynomial chi: c2 = -c1."""
    c0, c1, c2 = chi
    return F.eq(c2, F.neg(c1))


def _hilbert90(L, w):
    """u with u / sigma(u) = w for w of norm 1: 1 + w, or g when w = -1."""
    u = L.add(L.one, w)
    return L.gen() if L.is_zero(u) else u


def _find_unitary_centralizer_with_det(L, H, A, target, g, search):
    """z = y sigma_h(y)^-1 for y in L[conj(A)], unitary by construction, with
    det z = det y / sigma(det y) = target, for a target w in L^1 meet (L*)^g,
    g = det_image_exponent, over a finite L.  Hilbert 90 writes w = u /
    sigma(u), and y = f(conj(A)) with N(f) = u from norm_preimage.  A triple
    root (g = 3) takes the scalar y = u' for u' / sigma(u') = v, v in L^1
    with v^3 = w: v = (c / sigma(c))^2 sigma(w) for any cube root c of w."""
    Abar = _sigma_mat(L, A)
    if g == 3:
        c = _cube_root(L, target, lambda: _first_non_cube(L, search))
        v = L.mul(L.pow(L.div(c, L.sigma(c)), 2), L.sigma(target))
        coeffs = (_hilbert90(L, v), L.zero, L.zero)
    else:
        coeffs = norm_preimage(L, linalg.charpoly3(L, Abar), _hilbert90(L, target), search)
    y = linalg.combination(L, coeffs, _powers(L, Abar))
    return linalg.mat_mul(L, y, linalg.inverse3(L, sigma_h(L, H, y)))


def _finish_su(L, H, A, X0, z, report):
    """The pair (A C, C^-1), C = X0 z; checking A2 = C^-1 checks C."""
    C = linalg.mat_mul(L, X0, z)
    A1 = linalg.mat_mul(L, A, C)
    A2 = linalg.inverse3(L, C)
    return _real(report, L, A, {"type": "unitary_pair", "A1": A1, "A2": A2, "C": C}, H)


def _non_regular_base_conjugator(L, H, A):
    """X in U(H) of determinant 1 with A^-1 X = X conj(A) and conj(X) X = 1
    for a non-regular A in SU(H), so that (A X, X^-1) is a unitary pair.
    X = P diag(1, 1, sigma(d)/d) sigma(P)^-1, d = det P, for P = [w1, w2, y]
    with y an anisotropic eigenvector and (w1, w2) a basis of y^perp with a
    k-valued Gram matrix; A acts on both blocks by J with conj(J) = J^-1.
    A - c (c of the eigenplane) has rank 1 and image k z.  If z is
    anisotropic, A is semisimple and y^perp = z^perp is the eigenplane;
    else w1 = z.  w2 then makes h(w2, w1) 0 or 1.  Scalar A takes X = I."""
    I = linalg.identity(L, 3)
    cyclic = _cyclic_pair(L, A)
    if cyclic is None:
        return I
    N = linalg.mat_sub(L, A, linalg.scalar_mat(L, cyclic[3], I))
    z = next(col for col in linalg.transpose(N) if not all(map(L.is_zero, col)))
    if L.is_zero(linalg.mat_vec(L, (z,), hermitian_row(L, H, z))[0]):
        u, w = z, next(e for e, x in zip(I, z) if not L.is_zero(x))
    else:
        u, w = linalg.nullspace(L, N)
    huu, hwu = linalg.mat_vec(L, (u, w), hermitian_row(L, H, u))
    if L.is_zero(huu):
        w2 = tuple(L.div(x, hwu) for x in w)
    else:
        w2 = tuple(L.sub(a, L.mul(L.div(hwu, huu), b)) for a, b in zip(w, u))
    # y spans {u, w2}^perp: h(y, u) = h(y, w2) = 0 is linear in y
    (y,) = linalg.nullspace(L, (hermitian_row(L, H, u), hermitian_row(L, H, w2)))
    P = linalg.transpose((u, w2, y))
    d = linalg.det3(L, P)
    PD = linalg.transpose((u, w2, tuple(L.mul(L.div(L.sigma(d), d), x) for x in y)))
    return linalg.mat_mul(L, PD, linalg.inverse3(L, _sigma_mat(L, P)))


# -- witnesses at the octonion level -------------------------------------------

def two_involution_witness(t, frame, report):
    """Lift a matrix-level real verdict to two exact involutions with
    iota1 iota2 = t; raises when the verification fails (solver bug).

    iota2 = embed(m2) frame_swap is one certified conjugation, with m2 =
    S2^-1 for a symmetric pair S1 S2 = A and m2 = C for a unitary pair.
    iota1 = t iota2 is certified as a product of certified maps, and it is
    the matrix embed(m1) frame_swap for m1 = A m2 (S1, or A1), since t acts
    as embed(A) on the frame.  With iota1^2 = iota2^2 = 1 checked,
    iota1 iota2 = t holds by construction."""
    if not t.certified:
        raise RealityError("two_involution_witness needs a certified automorphism")
    if report.verdict != "real" or report.witness is None:
        raise RealityError("need a real verdict with a matrix witness")
    w = report.witness
    if w["type"] == "symmetric_pair":
        m2 = linalg.inverse3(frame.alg.field, w["S2"])
    elif w["type"] == "unitary_pair":
        m2 = w["C"]
    else:
        raise RealityError(f"witness type {w['type']} has no involution lift")
    i2 = swapped_embed(m2, frame)
    i1 = t.compose(i2)
    if not i1.compose(i1).is_identity() or not i2.compose(i2).is_identity():
        raise RealityError("witness maps are not involutions")
    return i1, i2


def conjugator_witness(t, frame, report):
    """Lift a matrix-level conjugator to the octonion level and verify
    h t h^-1 = t^-1 exactly (as t h t = h)."""
    if report.witness is None or report.witness["type"] != "conjugator_matrix":
        raise RealityError("no conjugator witness present")
    return _lift_conjugator(t, frame, report.witness["B"], report.witness["coset"])


def _lift_conjugator(t, frame, B, coset):
    """h = embedding of B, times the frame swap in coset 1 (one certified
    conjugation either way); raises unless h t h^-1 = t^-1 holds exactly,
    checked as t h t = h (h is certified, so invertible)."""
    if coset == 1:
        h = swapped_embed(B, frame)
    else:
        h = (sl3_embed if isinstance(frame, SplitFrame) else su_embed)(B, frame)
    if not t.compose(h).compose(t).eq(h):
        raise RealityError("conjugator witness fails at the octonion level")
    return h


# -- independent oracle ---------------------------------------------------------

def brute_force_reality_oracle(t, frame, budget=DEFAULT_BUDGET, level="matrix"):
    """Decide reality of t by enumerating conjugator candidates over both
    cosets of the subgroup preserving L, independent of the norm-class logic.

    A coset {B : left B = B right} is empty unless its regular sides share
    the characteristic polynomial.  Then it is B0 k[right] for any invertible
    intertwiner B0, the span of B0, B0 right, B0 right^2.  The oracle takes
    B0 = K_left K_right^-1 (linalg.krylov_similarity) and checks exactly
    that it is invertible and intertwines (else RealityError), so no helper
    is trusted for the coset it enumerates.  Over F_p each
    coset is one sweeps.coset_sweep call over that basis (determinant 1 on
    a split frame, SU(H) on a field frame), and its first hit is rebuilt and
    re-checked exactly: det 1, left B = B right and, on a field frame, B in
    U(H).  Over Q a split coset is a _Search of the rational grid, which
    stops at its first hit, and a field coset is not searched.  Only a
    finite-field coset is enumerated in full, so there `checked` counts every
    candidate of every coset visited.  All cosets together visit at most
    `budget` candidates; past it, or when the rational grid misses, the
    verdict is unknown.

    Preconditions, raised as RealityError: t is certified, its fixed
    subalgebra is exactly the frame's quadratic algebra L, and the induced
    3x3 matrix A is regular.  The first two are read off the frame block
    B = C^-1 t C.  A certified t that fixes the basis of L (the columns of
    f and e, or of 1 and g, are unit columns of B) keeps L^perp.  On a split
    frame it fixes e and f, so it keeps the Peirce spaces U and W, acting as
    A on U and, since it keeps the pairing U x W -> k f, as A^-T on W.  On a
    field frame it is L-linear on L^perp (t(g x) = g t(x)), with L-matrix A.
    So ker(t - 1) is L + ker(A - 1) (+ its dual on W): it is exactly L iff
    det(A - I) != 0, and t = 1 iff A = I.  At level "octonion" a found
    witness is re-verified as an 8x8 conjugation.
    """
    if not t.certified:
        raise RealityError("the oracle needs a certified automorphism")
    alg = frame.alg
    F = alg.field
    split = isinstance(frame, SplitFrame)
    B8 = _in_frame_basis(t, frame)
    if not all(
        F.eq(B8[i][j], F.one if i == j else F.zero)
        for j in ((0, 7) if split else (0, 1))
        for i in range(8)
    ):
        raise RealityError("fixed subalgebra of t is not the frame algebra")
    K = F if split else frame.L
    A = extract_frame_matrix(B8, frame)
    I = linalg.identity(K, 3)
    if linalg.mat_eq(K, A, I):
        return {
            "verdict": "real",
            "checked": {0: 1, 1: 0},
            "coset": 0,
            "h": AutMap(linalg.identity(F, alg.dim), alg, True),
        }
    if K.is_zero(linalg.det3(K, linalg.mat_sub(K, A, I))):
        raise RealityError("fixed subalgebra of t is not 2-dimensional")
    if not min_equals_char3(K, A):
        raise RealityError("oracle needs a regular matrix")
    Ainv = linalg.inverse3(K, A)
    # coset: {B : left B = B right}; the swap coset of a split frame is
    # {B : A B = B tA}, of a field frame {X : A^-1 X = X conj(A)}
    if split:
        cosets = ((0, Ainv, A), (1, A, linalg.transpose(A)))
    else:
        cosets = ((0, Ainv, A), (1, Ainv, _sigma_mat(K, A)))
    search = _Search(budget)
    checked = {0: 0, 1: 0}
    for coset, left, right in cosets:
        if not all(map(K.eq, linalg.charpoly3(K, left), linalg.charpoly3(K, right))):
            continue

        def intertwines(B):
            return linalg.mat_eq(K, linalg.mat_mul(K, left, B), linalg.mat_mul(K, B, right))

        K_left, K_right = linalg.krylov_similarity(K, left), linalg.krylov_similarity(K, right)
        B0 = linalg.mat_mul(K, K_left, linalg.inverse3(K, K_right))
        if K.is_zero(linalg.det3(K, B0)) or not intertwines(B0):
            raise RealityError("Krylov base point is not an invertible intertwiner")
        B0R = linalg.mat_mul(K, B0, right)
        basis = (B0, B0R, linalg.mat_mul(K, B0R, right))

        def conjugates(B):
            return K.eq(linalg.det3(K, B), K.one) and intertwines(B)

        def accept(c):
            B = linalg.combination(K, c, basis)
            return B if conjugates(B) else None

        before = search.left
        try:
            if K.order is None:
                hit = search(K, 3, accept)
            else:
                search.charge(K.order**3)
                from .sweeps import coset_sweep

                _, example = coset_sweep(K, basis, None if split else frame.H)
                hit = None
                if example is not None:
                    hit = linalg.combination(K, example, basis)
                    if not (conjugates(hit) and (split or in_unitary(hit, K, frame.H))):
                        raise RealityError("coset sweep hit fails the exact re-check")
            undecided = False
        except _Undecided:
            undecided = True
        checked[coset] += before - search.left
        if undecided:
            return {"verdict": "unknown", "checked": checked}
        if hit is not None:
            out = {"verdict": "real", "checked": checked, "coset": coset, "B": hit}
            if level == "octonion":
                out["h"] = _lift_conjugator(t, frame, hit, coset)
            return out
    return {"verdict": "not_real", "checked": checked}


# -- finite-field counterexample constructions ---------------------------------

def build_counterexample_sl3(q):
    """The split-frame non-real element over F_q: t acts as D A D^-1 with A
    the omega-triangular matrix and D = diag(b, 1, 1) for b with X^3 - b^2
    irreducible; needs a primitive cube root of unity in F_q."""
    k = PrimeField(q)
    if q % 3 != 1:
        raise RealityError(f"q = {q} has no primitive cube root of unity (q % 3 != 1)")
    omega = None
    for x in range(2, q):
        if pow(x, 3, q) == 1:
            omega = x
            break
    if omega is None:
        raise RealityError("no cube root found")
    b = None
    for cand in range(2, q):
        if not _in_power_class(k, k.mul(cand, cand), 3):
            b = cand
            break
    if b is None:
        raise RealityError(f"no b with X^3 - b^2 irreducible over F_{q}")
    one, zero = k.one, k.zero
    A = ((omega, k.neg(one), zero), (zero, omega, one), (zero, zero, omega))
    D = ((b, zero, zero), (zero, one, zero), (zero, zero, one))
    Dinv = linalg.inverse3(k, D)
    B = linalg.mat_mul(k, linalg.mat_mul(k, D, A), Dinv)
    alg = zorn_algebra(k)
    fr = zorn_split_frame(alg)
    t = sl3_embed(B, fr)
    # dim ker(t - 1) = 2 iff B has no eigenvalue 1 (brute_force_reality_oracle)
    chi_B = linalg.charpoly3(k, B)
    _require(not _has_eigenvalue_one(k, chi_B), "fixed subalgebra must be exactly L")
    return {
        "alg": alg,
        "frame": fr,
        "t": t,
        "A": A,
        "B": B,
        "D": D,
        "omega": omega,
        "b": b,
        "field": k,
    }


def build_counterexample_su(q):
    """The quadratic-field non-real element over F_{q^2}/F_q, built inside the
    octonion algebra of the unit trace hermitian space of a cubic extension;
    needs 2 a square mod q and no primitive cube root of unity in F_q."""
    from .tori import unit_trace_hermitian_space

    k = PrimeField(q)
    if q % 3 != 2:
        raise RealityError(
            f"q = {q} admits a primitive cube root of unity in F_q (need q % 3 == 2)"
        )
    if not k.is_square(k.element(2)):
        raise RealityError(f"2 is not a square mod {q}")
    c = k.nonsquare()
    L = QuadraticEtale(k, c)
    # primitive cube root in L: an element of multiplicative order 3
    omega = None
    for x in L.elements():
        if L.is_unit(x) and not L.eq(x, L.one):
            if L.eq(L.pow(x, 3), L.one):
                omega = x
                break
    _require(omega is not None, "L has a primitive cube root of unity")  # 3 | q^2 - 1
    # b in the norm-one circle with b^2 not a cube of L*
    b = None
    for x in L.elements():
        if not L.is_unit(x):
            continue
        if not k.eq(L.norm(x), k.one):
            continue
        if not _in_power_class(L, L.mul(x, x), 3):
            b = x
            break
    if b is None:
        raise RealityError("no norm-one b with X^3 - b^2 irreducible over L")
    _require(cubic_is_irreducible(L, (L.neg(L.mul(b, b)), L.zero, L.zero)),
             "X^3 - b^2 irreducible over L")
    alpha = None
    for x in L.elements():
        if k.eq(L.norm(x), k.neg(k.one)):
            alpha = x
            break
    _require(alpha is not None, "some alpha has norm -1")

    half = L.embed(k.inv(k.element(2)))
    quarter = L.embed(k.inv(k.element(4)))
    w2 = L.mul(omega, omega)
    ab = L.sigma(alpha)
    A = (
        (
            L.add(omega, quarter),
            half,
            L.neg(L.mul(quarter, alpha)),
        ),
        (
            L.neg(L.mul(half, w2)),
            omega,
            L.mul(half, L.mul(alpha, w2)),
        ),
        (
            L.neg(L.mul(quarter, ab)),
            L.neg(L.mul(half, ab)),
            L.sub(omega, quarter),
        ),
    )
    Hunit = (k.one, k.one, k.one)
    if not in_su(A, L, Hunit):
        raise RealityError("displayed matrix failed the SU(3) check")
    # minimal polynomial must be (X - omega)^3
    wI = linalg.scalar_mat(L, omega, linalg.identity(L, 3))
    N = linalg.mat_sub(L, A, wI)
    N2 = linalg.mat_mul(L, N, N)
    N3 = linalg.mat_mul(L, N2, N)
    _require(not all(L.is_zero(x) for row in N2 for x in row), "(A - omega)^2 != 0")
    _require(all(L.is_zero(x) for row in N3 for x in row), "(A - omega)^3 = 0")

    # a cubic etale F over k whose unit-diagonal trace hermitian space hosts it
    chi = _first_irreducible_cubic(k)
    space = unit_trace_hermitian_space(k, chi, L)
    alg = octonion_from_hermitian(space)
    gvec = alg.basis_vec(1)
    frame = quadratic_subfield_frame(alg, gvec)

    D = (
        (b, L.zero, L.zero),
        (L.zero, L.one, L.zero),
        (L.zero, L.zero, L.one),
    )
    Dinv = linalg.inverse3(L, D)
    B = linalg.mat_mul(L, linalg.mat_mul(L, D, A), Dinv)
    _require(in_su(B, L, frame.H), "B in SU(H)")
    t = su_embed(B, frame)
    # dim ker(t - 1) = 2 iff B has no eigenvalue 1 (brute_force_reality_oracle)
    chi_B = linalg.charpoly3(L, B)
    _require(not _has_eigenvalue_one(L, chi_B), "fixed subalgebra must be exactly L")
    return {
        "alg": alg,
        "frame": frame,
        "t": t,
        "A": A,
        "B": B,
        "omega": omega,
        "b": b,
        "alpha": alpha,
        "L": L,
        "field": k,
        "chi": chi,
    }


# -- end-to-end pipeline --------------------------------------------------------

def reality_report_for(t, budget=DEFAULT_BUDGET):
    """Classify t, extract the 3x3 matrix through a freshly built frame, run
    the matching decision procedure, and lift witnesses back to certified
    automorphisms."""
    alg = t.algebra
    F = alg.field
    case, fixed = classify(t)
    if case["tag"] == "full":
        if t.is_identity():
            rep = RealityReport(family="identity", verdict="real", case=case)
            rep.witness = {"type": "conjugator", "h": AutMap(
                linalg.identity(F, alg.dim), alg, True)}
            return rep
        rep = RealityReport(family="unipotent_type", verdict="unknown", case=case)
        rep.notes.append(
            "generalized fixed space is everything; drive the split-frame "
            "factorization directly for unipotent elements"
        )
        return rep
    if case["tag"] == "fixes_quaternion":
        return _reality_quaternion_case(t, case, fixed)
    # fixes_etale
    x = case["etale_generator"]
    if case["etale_split"]:
        root = F.sqrt(case["etale_square"])
        e = alg.scale(F.inv(F.add(F.one, F.one)), alg.add(alg.one, alg.scale(F.inv(root), x)))
        frame = split_frame_from_idempotent(alg, e)
        rep = reality_sl3(F, extract_frame_matrix(_in_frame_basis(t, frame), frame), budget)
    else:
        frame = quadratic_subfield_frame(alg, x)
        A = extract_frame_matrix(_in_frame_basis(t, frame), frame)
        rep = reality_su(frame.L, A, frame.H, budget)
    rep.case.update(case)
    # a symmetric or unitary pair lifts to two involutions, a conjugator to h
    if rep.verdict == "real" and rep.witness["type"] == "conjugator_matrix":
        rep.witness = dict(rep.witness, h=conjugator_witness(t, frame, rep))
    elif rep.verdict == "real":
        i1, i2 = two_involution_witness(t, frame, rep)
        rep.witness = dict(rep.witness, iota1=i1, iota2=i2)
    return rep


def _reality_quaternion_case(t, case, D):
    """t fixes a quaternion subalgebra D pointwise (D the basis of
    ker(t - 1) from classify), so it is x + ya -> x + (py)a for the
    norm-one p = t(a) a^-1; conjugating p to its quaternion conjugate by a
    u in D* yields the conjugator h, the Stab(D) map of (u, u), involutive
    when u has trace zero."""
    alg = t.algebra
    F = alg.field
    rep = RealityReport(family="quaternion", verdict="unknown", case=case)
    if len(D) != 4:
        rep.notes.append("pointwise-fixed space is not a quaternion subalgebra")
        return rep
    if t.compose(t).is_identity():
        rep.verdict = "real"
        i2 = AutMap(linalg.identity(F, alg.dim), alg, True)
        rep.witness = {"type": "two_involutions", "iota1": t, "iota2": i2}
        return rep
    frame = quaternion_frame(alg, D)
    a = frame.a
    ta = t.apply(a)
    abar = alg.conj(a)
    p = alg.scale(F.inv(alg.norm(a)), alg.mul(ta, abar))
    pbar = alg.conj(p)
    # W = {u in D : u p = pbar u, tr u = 0}; u p = pbar u already forces
    # tr u = 0 (p is not central, char != 2), so the trace row changes no basis
    prods = alg.products(D + (pbar,) * 4, (p,) * 4 + D)
    rows = [alg.sub(dp, pd) for dp, pd in zip(prods[:4], prods[4:])]
    M = linalg.transpose(linalg.mat(rows)) + (tuple(alg.trace(dj) for dj in D),)
    W = []
    for coefs in linalg.nullspace(F, M):
        u = alg.zero_vec()
        for c, dj in zip(coefs, D):
            u = alg.add(u, alg.scale(c, dj))
        W.append(u)
    u = first_anisotropic(alg, W)
    if u is None:
        rep.notes.append("no invertible conjugating element found in D")
        return rep
    h = stab_map(frame, u, u)
    if not t.compose(h).compose(t).eq(h):  # h t h^-1 = t^-1, h invertible
        rep.notes.append("inner conjugation did not invert t")
        return rep
    rep.verdict = "real"
    if h.compose(h).is_identity():
        # h t h^-1 = t^-1 with h^2 = 1: (h, h t) are involutions with product t
        ht = h.compose(t)
        if not ht.compose(ht).is_identity():
            raise RealityError("h t is not an involution")
        rep.witness = {"type": "two_involutions", "iota1": h, "iota2": ht}
    else:
        rep.witness = {"type": "conjugator", "h": h}
    return rep
