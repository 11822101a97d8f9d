"""The benchmark's workloads.

Each workload builds its inputs from the seed (set-up), then a round calls
g2real's public functions once per element and checks every output with
explicit comparisons, so the gates also run under ``python -O``.  Calls go
through module attributes (``reality.reality_sl3``), so the functions that
``spans.Rebinder`` installs are the ones called.

- lift: certify raw 8x8 matrices and lift each verdict to an octonion-level
  witness, which the benchmark re-checks with its own exact 8x8 arithmetic.
- census: every fourth regular class of SL3(F_13) without eigenvalue 1 (the
  seed picks which quarter) with all the non-real ones, in an order the seed
  picks, plus a seeded regular SU3(F_25/F_5) element, each decided and
  checked against the brute-force oracle.  The seed changes which elements
  and their order, never the amount of work.
- sweep: one seeded span of 2^22 candidates of the q = 17 swap coset, swept
  for the non-real counterexample (no hits) and for its untwisted real
  matrix (the recorded hits), in windows of 2^17 candidates.

A round is kept to a few seconds so that a run holds several, because each
element is timed by its fastest round.
"""

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from g2real import automorphisms, composition, fields, linalg, reality, sweeps

LIFT_PER_SLICE = 20
# (c0, c1, c2) of X^3 + c2 X^2 + c1 X + c0: separable, det 1, chi(1) != 0,
# and decided real over Q by a symmetric factorization.  One element, as it
# takes about as long as the 60 elements over finite fields together.
LIFT_Q_CHARPOLYS = ((-1, 3, -2),)

CENSUS_Q = 13
CENSUS_PARTS = 4
CENSUS_SU = 1
# the diag(b, 1, 1) twists of the companions of (X - 3)^3 and (X - 9)^3 for
# b = 2, 4; every other class of the census is real
CENSUS_NOT_REAL = 4

SWEEP_Q = 17
SWEEP_WINDOW = 1 << 17
SWEEP_SPAN = 1 << 22
# hits of the untwisted real matrix in the spans [s 2^22, (s + 1) 2^22)
SWEEP_REAL_HITS = (153, 149, 150, 145, 152)


@dataclass
class Outcome:
    seconds: float  # time inside g2real calls, checks excluded
    error: str | None = None
    data: dict = field(default_factory=dict)


@dataclass
class Item:
    ident: str
    run: object  # () -> Outcome


@dataclass
class Prepared:
    items: list
    check: object  # [Outcome] -> [(operation, error or None)]
    samples: dict  # fields and matrices of the workload, for per-call costs


def interleave(*groups):
    """Merge the groups so that each group's items, in their order, are spread
    evenly over the round: a slow phase of the machine then hits every group
    alike instead of one block of them."""
    keyed = [
        ((i + 0.5) / len(group), g, item)
        for g, group in enumerate(groups)
        for i, item in enumerate(group)
    ]
    return [item for _, _, item in sorted(keyed, key=lambda k: k[:2])]


def _failure(start, exc):
    return Outcome(time.perf_counter() - start, f"{type(exc).__name__}: {exc}")


def _element_errors(items, outcomes):
    return [(item.ident, out.error) for item, out in zip(items, outcomes)]


# -- exact 8x8 arithmetic, independent of g2real.linalg ------------------------

def _reduce(x, p):
    return x % p if p else x


def mat_mul(a, b, p):
    cols = list(zip(*b))
    return tuple(
        tuple(_reduce(sum(x * y for x, y in zip(row, col)), p) for col in cols)
        for row in a
    )


def mat_equal(a, b, p):
    return all(
        _reduce(x - y, p) == 0 for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def is_identity(a, p):
    n = len(a)
    return mat_equal(a, [[int(i == j) for j in range(n)] for i in range(n)], p)


def invertible(a, p):
    """Full rank by Gaussian elimination over F_p, or over Q when p is None."""
    rows = [[Fraction(x) if p is None else x % p for x in row] for row in a]
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col] if p is None else pow(rows[col][col], -1, p)
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            rows[r] = [_reduce(x - f * y, p) for x, y in zip(rows[r], rows[col])]
    return True


def witness_error(report, t, p):
    """Re-check an octonion-level witness of a real verdict for the 8x8
    matrix t: iota1^2 = iota2^2 = 1 and iota1 iota2 = t, or h invertible with
    t h t = h (that is, h t h^-1 = t^-1)."""
    w = report.witness or {}
    if "iota1" in w and "iota2" in w:
        i1, i2 = w["iota1"].matrix, w["iota2"].matrix
        if not (is_identity(mat_mul(i1, i1, p), p) and is_identity(mat_mul(i2, i2, p), p)):
            return "witness maps are not involutions"
        if not mat_equal(mat_mul(i1, i2, p), t, p):
            return "involution product is not t"
        return None
    if "h" in w:
        h = w["h"].matrix
        if not invertible(h, p):
            return "conjugator witness is singular"
        if not mat_equal(mat_mul(mat_mul(t, h, p), t, p), h, p):
            return "conjugator witness does not invert t"
        return None
    return "real verdict without an octonion-level witness"


# -- lift -----------------------------------------------------------------------

def lift_item(ident, alg, matrix, p, expected):
    def run():
        start = time.perf_counter()
        try:
            t = automorphisms.certify_automorphism(matrix, alg)
            report = reality.reality_report_for(t) if t.certified else None
        except Exception as exc:  # a failing element is counted; the run goes on
            return _failure(start, exc)
        seconds = time.perf_counter() - start
        if report is None:
            return Outcome(seconds, "input did not certify")
        if report.verdict != expected:
            return Outcome(seconds, f"verdict {report.verdict}, expected {expected}")
        return Outcome(seconds, witness_error(report, matrix, p))

    return Item(ident, run)


def _su_frame(q):
    k = fields.PrimeField(q)
    L = fields.QuadraticEtale(k, k.nonsquare())
    alg = composition.octonion_from_hermitian(composition.hermitian_space(L, (1, 1, 1)))
    return L, automorphisms.quadratic_subfield_frame(alg, alg.basis_vec(1))


def prepare_lift(seed):
    samples = {"prime": [], "L": [], "Q": [], "mat3": [], "mat8": []}
    slices = []

    def add_slice(name, alg, p, matrices3, embed):
        matrices8 = [embed(A).matrix for A in matrices3]
        slices.append([
            lift_item(f"{name}/{i}", alg, M, p, "real") for i, M in enumerate(matrices8)
        ])
        return matrices8

    for q in (7, 31):
        k = fields.PrimeField(q)
        alg = composition.zorn_algebra(k)
        frame = automorphisms.zorn_split_frame(alg)
        rng = random.Random(f"lift/sl3-{q}/{seed}")
        As = [
            automorphisms.random_sl3(k, rng, avoid_eigenvalue_one=True, separable=True)
            for _ in range(LIFT_PER_SLICE)
        ]
        Ms = add_slice(f"sl3-{q}", alg, q, As, lambda A: automorphisms.sl3_embed(A, frame))
        samples["prime"].append(k)
        samples["mat3"] += [(k, A) for A in As]
        samples["mat8"] += [(k, M) for M in Ms]
    # separable but eigenvalue 1 allowed: those draws fix a quaternion subalgebra
    L, frame = _su_frame(5)
    rng = random.Random(f"lift/su-25/{seed}")
    As = [automorphisms.random_su(L, frame.H, rng, separable=True) for _ in range(LIFT_PER_SLICE)]
    Ms = add_slice("su-25", frame.alg, 5, As, lambda A: automorphisms.su_embed(A, frame))
    samples["prime"].append(L.base)
    samples["L"].append(L)
    samples["mat3"] += [(L, A) for A in As]
    samples["mat8"] += [(L.base, M) for M in Ms]
    Q = fields.RationalField()
    alg = composition.zorn_algebra(Q)
    frame = automorphisms.zorn_split_frame(alg)
    As = [reality.companion_matrix(Q, tuple(map(Fraction, chi))) for chi in LIFT_Q_CHARPOLYS]
    add_slice("sl3-Q", alg, None, As, lambda A: automorphisms.sl3_embed(A, frame))
    samples["Q"].append(Q)
    items = interleave(*slices)

    def check(outcomes):
        return _element_errors(items, outcomes)

    return Prepared(items, check, samples)


# -- census ---------------------------------------------------------------------

def census_sl3_matrices(q):
    """One element of every regular class of SL3(F_q) without eigenvalue 1:
    the companion matrix of each chi with det 1 and chi(1) != 0, and the
    diag(b, 1, 1) twists of the triple-root companions, for b running over
    representatives of the non-trivial classes of k*/(k*)^3.  Returns the
    field, the companions and the twists."""
    k = fields.PrimeField(q)
    mone = q - 1
    companions = [
        reality.companion_matrix(k, (mone, c1, c2))
        for c1 in range(q)
        for c2 in range(q)
        if (c1 + c2) % q
    ]
    cubes = {pow(x, 3, q) for x in range(1, q)}
    reps, seen = [], set()
    for b in range(1, q):
        coset = frozenset(b * c % q for c in cubes)
        if coset not in seen:
            seen.add(coset)
            reps.append(b)
    twists = []
    for m in range(2, q):
        if pow(m, 3, q) != 1:
            continue
        C = reality.companion_matrix(k, (-pow(m, 3, q) % q, 3 * m * m % q, -3 * m % q))
        for b in reps[1:]:
            binv = pow(b, -1, q)
            twists.append(tuple(
                tuple(
                    C[i][j] * (b if i == 0 else 1) * (binv if j == 0 else 1) % q
                    for j in range(3)
                )
                for i in range(3)
            ))
    return k, companions, twists


def census_item(ident, decide, t, frame):
    def run():
        start = time.perf_counter()
        try:
            report = decide()
            oracle = reality.brute_force_reality_oracle(t, frame, level="matrix")
        except Exception as exc:  # a failing element is counted; the run goes on
            return _failure(start, exc)
        seconds = time.perf_counter() - start
        data = {"verdict": report.verdict, "candidates": sum(oracle["checked"].values())}
        error = None
        if report.verdict == "unknown":
            error = "decision unknown over a finite field"
        elif report.verdict != oracle["verdict"]:
            error = f"decision {report.verdict}, oracle {oracle['verdict']}"
        return Outcome(seconds, error, data)

    return Item(ident, run)


def census_check(items, outcomes, expected_not_real):
    ops = _element_errors(items, outcomes)
    not_real = sum(out.data.get("verdict") == "not_real" for out in outcomes)
    error = None
    if not_real != expected_not_real:
        error = f"{not_real} not real, recorded {expected_not_real}"
    return ops + [("not-real count", error)]


def su_census_element(L, H, rng):
    """A seeded regular semisimple element of SU(H), so real, whose
    characteristic polynomial is not defined over the base field.  That of
    A^-1 is its conjugate, so no element of SU(H) conjugates A to A^-1 and
    the oracle enumerates only the other coset: every draw costs the same
    q^6 candidates, where a polynomial over the base field may cost twice
    as many."""
    while True:
        A = automorphisms.random_su(L, H, rng, separable=True, avoid_eigenvalue_one=True)
        if not all(L.eq(L.sigma(c), c) for c in linalg.charpoly3(L, A)):
            return A


def prepare_census(seed):
    sl3_items, su_items = [], []
    k, companions, twists = census_sl3_matrices(CENSUS_Q)
    # A quarter of the companions, chosen by the seed, plus every twist, so
    # the not-real count is fixed.  Each of them costs the oracle the same q^3
    # candidates, so every quarter is the same work, and the short rounds let
    # a run time every element in about ten rounds (its fastest is kept).
    matrices = companions[seed % CENSUS_PARTS::CENSUS_PARTS] + twists
    random.Random(f"census/order/{seed}").shuffle(matrices)
    alg = composition.zorn_algebra(k)
    frame = automorphisms.zorn_split_frame(alg)
    samples = {"prime": [k], "L": [], "Q": [], "mat3": [], "mat8": []}
    for i, A in enumerate(matrices):
        t = automorphisms.sl3_embed(A, frame)
        sl3_items.append(census_item(
            f"sl3-{CENSUS_Q}/{i}", lambda A=A: reality.reality_sl3(k, A), t, frame
        ))
        samples["mat3"].append((k, A))
        samples["mat8"].append((k, t.matrix))
    L, su_frame = _su_frame(5)
    samples["prime"].append(L.base)
    samples["L"].append(L)
    rng = random.Random(f"census/su-25/{seed}")
    for i in range(CENSUS_SU):
        A = su_census_element(L, su_frame.H, rng)
        t = automorphisms.su_embed(A, su_frame)
        su_items.append(census_item(
            f"su-25/{i}", lambda A=A: reality.reality_su(L, A, su_frame.H), t, su_frame
        ))
        samples["mat3"].append((L, A))
    items = interleave(sl3_items, su_items)

    def check(outcomes):
        return census_check(items, outcomes, CENSUS_NOT_REAL)

    return Prepared(items, check, samples)


# -- sweep ----------------------------------------------------------------------

def sweep_item(ident, L, H, A, X0, start, stop):
    def run():
        t0 = time.perf_counter()
        try:
            hits, example = sweeps.su_coset_sweep(L, H, A, X0, start=start, stop=stop)
        except Exception as exc:  # a failing window fails its input; the run goes on
            return _failure(t0, exc)
        data = {"hits": hits, "example": example, "candidates": stop - start}
        return Outcome(time.perf_counter() - t0, None, data)

    return Item(ident, run)


def rebuild_hit(L, A, X0, example):
    """X = X0 (c0 + c1 conj(A) + c2 conj(A)^2) for a sweep hit (c0, c1, c2)."""
    Abar = linalg.map_entries(L.sigma, A)
    powers = (linalg.identity(L, 3), Abar, linalg.mat_mul(L, Abar, Abar))
    z = linalg.zeros(L, 3, 3)
    for c, P in zip(example, powers):
        z = linalg.mat_add(L, z, linalg.scalar_mat(L, c, P))
    return linalg.mat_mul(L, X0, z)


def sweep_check(items, outcomes, inputs, expected):
    """``expected`` maps each input to (candidates to sweep, hits)."""
    by_input = {name: [] for name in inputs}
    for item, out in zip(items, outcomes):
        by_input[item.ident.split("/")[0]].append(out)
    ops = []
    for name, outs in by_input.items():
        L, H, A, X0 = inputs[name]
        want_swept, want_hits = expected[name]
        errors = [out.error for out in outs if out.error]
        hits = sum(out.data["hits"] for out in outs if not out.error)
        swept = sum(out.data["candidates"] for out in outs if not out.error)
        error = None
        if errors:
            error = errors[0]
        elif swept != want_swept:
            error = f"swept {swept} candidates of {want_swept}"
        elif hits != want_hits:
            error = f"{hits} hits, expected {want_hits}"
        elif hits:
            first = next(out.data["example"] for out in outs if out.data["example"])
            if not automorphisms.in_su(rebuild_hit(L, A, X0, first), L, H):
                error = "first hit is not in SU(H)"
        ops.append((name, error))
    return ops


def prepare_sweep(seed):
    ce = reality.build_counterexample_su(SWEEP_Q)
    L, H = ce["L"], ce["frame"].H
    inputs = {}
    for name, A in (("nonreal", ce["B"]), ("real", ce["A"])):
        X0 = reality.unitary_base_conjugator(L, H, A, linalg.charpoly3(L, A))
        inputs[name] = (L, H, A, X0)
    # the same seeded span of each input's candidates; no hit anywhere for
    # the non-real element, and the recorded count for the real one
    span = seed % len(SWEEP_REAL_HITS)
    lo = span * SWEEP_SPAN
    items = interleave(*(
        [
            sweep_item(f"{name}/{start}", *inputs[name], start, start + SWEEP_WINDOW)
            for start in range(lo, lo + SWEEP_SPAN, SWEEP_WINDOW)
        ]
        for name in inputs
    ))
    expected = {"nonreal": (SWEEP_SPAN, 0), "real": (SWEEP_SPAN, SWEEP_REAL_HITS[span])}
    samples = {
        "prime": [L.base],
        "L": [L],
        "Q": [],
        "mat3": [(L, ce["A"]), (L, ce["B"])],
        "mat8": [(L.base, ce["t"].matrix)],
    }

    def check(outcomes):
        return sweep_check(items, outcomes, inputs, expected)

    return Prepared(items, check, samples)


WORKLOADS = {"lift": prepare_lift, "census": prepare_census, "sweep": prepare_sweep}
