"""Differential tests of the integer-lattice backend of linalg.

Over F_p and Q, mat_mul runs on numpy integer arrays and _echelon on plain
residues or Fractions.  The reference is the generic loop through the field
handle, reached with a wrapper whose kind is neither "prime" nor "rationals",
and, where installed, sympy.
"""

import random
from fractions import Fraction

import pytest

from g2real import linalg
from g2real.automorphisms import sl3_embed, zorn_split_frame
from g2real.composition import zorn_algebra
from g2real.fields import PrimeField, QuadraticEtale, RationalField
from g2real.reality import companion_matrix, reality_report_for

MERSENNE_31 = 2**31 - 1  # 8 (p - 1)^2 passes 2^63: the Python-int path


class Generic:
    """The handle F under another kind: linalg takes its generic loop."""

    kind = "generic"

    def __init__(self, F):
        self.F = F

    def __getattr__(self, name):
        return getattr(self.F, name)


def _random_entry(F, rng):
    if F.kind == "prime":
        return rng.randrange(F.p)
    # numerators and denominators past 2^127
    return Fraction(rng.randrange(-(2**130), 2**130), rng.randrange(2**127, 2**131))


def _random_matrix(F, rng, n, m):
    return tuple(tuple(_random_entry(F, rng) for _ in range(m)) for _ in range(n))


def _cases(F, seed):
    """Seeded 8x8 matrices: an invertible draw a, a draw b and a product of
    rank 5."""
    rng = random.Random(f"lattice/{F!r}/{seed}")
    a = _random_matrix(F, rng, 8, 8)
    while linalg.rank(Generic(F), a) < 8:
        a = _random_matrix(F, rng, 8, 8)
    b = _random_matrix(F, rng, 8, 8)
    low = linalg.mat_mul(Generic(F), _random_matrix(F, rng, 8, 5), _random_matrix(F, rng, 5, 8))
    return rng, a, b, low


FIELDS = [PrimeField(7), PrimeField(MERSENNE_31), RationalField()]
IDS = ["F7", "F_2^31-1", "Q"]


def _plain(F, value):
    """Every entry of a nested tuple is a Python int (F_p) or Fraction (Q)."""
    want = int if F.kind == "prime" else Fraction
    if isinstance(value, tuple):
        return all(_plain(F, v) for v in value)
    return type(value) is want


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
@pytest.mark.parametrize("seed", range(2))
def test_backend_matches_the_generic_loop(F, seed):
    G = Generic(F)
    rng, a, b, low = _cases(F, seed)
    for x, y in ((a, b), (b, a), (low, a), (a[:3], b)):
        got = linalg.mat_mul(F, x, y)
        assert got == linalg.mat_mul(G, x, y) and _plain(F, got)
    for m in (a, b, low):
        got = linalg._echelon(F, m)
        assert got == linalg._echelon(G, m)
        assert linalg.rank(F, m) == linalg.rank(G, m)
        null = linalg.nullspace(F, m)
        assert null == linalg.nullspace(G, m) and _plain(F, null)
    assert linalg.rank(F, low) == 5 and len(linalg.nullspace(F, low)) == 3
    inv = linalg.inverse(F, a)
    assert inv == linalg.inverse(G, a) and _plain(F, inv)
    assert linalg.mat_mul(F, a, inv) == linalg.identity(F, 8)
    with pytest.raises(ZeroDivisionError):
        linalg.inverse(F, low)
    x0 = tuple(_random_entry(F, rng) for _ in range(8))
    rhs = linalg.mat_vec(F, low, x0)
    x = linalg.solve(F, low, rhs)
    assert x == linalg.solve(G, low, rhs) and _plain(F, x)
    assert linalg.mat_vec(F, low, x) == rhs
    off = tuple(F.add(v, F.one) for v in rhs)
    assert linalg.solve(F, low, off) is None and linalg.solve(G, low, off) is None


def _full_row_echelon(F, a):
    """Reference elimination through the handle with every scale and row
    operation over the whole row."""
    rows = [[F.add(x, F.zero) for x in r] for r in a]
    n, m = len(rows), len(rows[0])
    pivots, r = [], 0
    for c in range(m):
        pr = next((i for i in range(r, n) if not F.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(n):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


@pytest.mark.parametrize(
    "F", [PrimeField(31), RationalField(), QuadraticEtale(PrimeField(31), 3)], ids=["F31", "Q", "L"]
)
def test_echelon_from_the_pivot_column_matches_the_full_row_reference(F):
    """_echelon, which starts each scale and row operation at the pivot
    column, gives the rows and pivots of full-row elimination on seeded
    8x8 and 3x9 inputs: full rank, rank deficient, and with a zero column
    that a pivot skips."""
    rng = random.Random(f"echelon/{F!r}")
    draw = (lambda: _random_entry(F, rng)) if F.kind != "field" else (lambda: F.random(rng))
    G = Generic(F)
    cases = []
    for n, m, k in ((8, 8, 5), (3, 9, 2)):
        full = tuple(tuple(draw() for _ in range(m)) for _ in range(n))
        low = linalg.mat_mul(G, tuple(tuple(draw() for _ in range(k)) for _ in range(n)),
                             tuple(tuple(draw() for _ in range(m)) for _ in range(k)))
        cases += [full, low, tuple((F.zero,) + r[1:] for r in full)]
    ranks = []
    for a in cases:
        rows, pivots = linalg._echelon(F, a)
        assert (rows, pivots) == _full_row_echelon(F, a)
        ranks.append(len(pivots))
    assert ranks == [8, 5, 7, 3, 2, 3]


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
def test_backend_matches_sympy(F):
    sympy = pytest.importorskip("sympy")
    _, a, b, low = _cases(F, 0)
    S = lambda m: sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in m])
    if F.kind == "prime":
        back = lambda m: tuple(tuple(int(x) % F.p for x in r) for r in m.tolist())
        assert linalg.mat_mul(F, a, b) == back(S(a) * S(b))
        assert linalg.inverse(F, a) == back(S(a).inv_mod(F.p))
    else:
        back = lambda m: tuple(tuple(Fraction(int(x.p), int(x.q)) for x in r) for r in m.tolist())
        assert linalg.mat_mul(F, a, b) == back(S(a) * S(b))
        assert linalg.inverse(F, a) == back(S(a).inv())
        assert linalg.rank(F, low) == S(low).rank() == 5
        ref = [back(v.T)[0] for v in S(low).nullspace()]
        assert list(linalg.nullspace(F, low)) == ref


def test_rational_lift_report_serialises():
    Q = RationalField()
    alg = zorn_algebra(Q)
    A = companion_matrix(Q, (Fraction(-1), Fraction(3), Fraction(-2)))
    rep = reality_report_for(sl3_embed(A, zorn_split_frame(alg)))
    assert rep.verdict == "real"
    i1, i2 = rep.witness["iota1"], rep.witness["iota2"]
    assert _plain(Q, i1.matrix) and _plain(Q, i2.matrix)
