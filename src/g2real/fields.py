"""Exact arithmetic in the tower k < L < E.

k is an odd prime field F_p (p < 2**31) or the rationals.  L is a quadratic
etale algebra over k: either k(g) with g**2 = c a nonsquare, or the split
algebra k x k.  E is a cubic algebra L[X]/(chi) for a monic cubic chi with
coefficients in k, which makes the coefficient-wise extension of the standard
involution of L well defined on E.

Elements are plain values (ints, Fractions, or tuples of those); all
operations go through the algebra handle.  Everything is exact; there is no
floating point anywhere.
"""

from fractions import Fraction

from . import linalg


PRIME_CAP = 2**31


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldError(ValueError):
    pass


class EnumerationError(FieldError):
    """Raised when an operation needs a finite field but got the rationals."""


class PrimeField:
    """The field F_p for an odd prime p < 2**31.  Elements are ints in [0, p)."""

    kind = "prime"

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if p == 2:
            raise FieldError("characteristic 2 is excluded")
        if p >= PRIME_CAP:
            raise FieldError(f"prime {p} exceeds the cap {PRIME_CAP}")
        self.p = p
        self.zero = 0
        self.one = 1

    def __repr__(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    @property
    def order(self):
        return self.p

    def element(self, n):
        if isinstance(n, Fraction):
            if n.denominator % self.p == 0:
                raise FieldError(f"{n} has no image in F_{self.p}")
            return self.mul(n.numerator % self.p, self.inv(n.denominator % self.p))
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a % self.p, n, self.p)

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def is_zero(self, a):
        return a % self.p == 0

    def is_square(self, a):
        a %= self.p
        if a == 0:
            return True
        return pow(a, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, a):
        """A square root of a (Tonelli-Shanks; deterministic nonresidue scan)."""
        p = self.p
        a %= p
        if a == 0:
            return 0
        if pow(a, (p - 1) // 2, p) != 1:
            raise FieldError(f"{a} is not a square mod {p}")
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r

    def elements(self):
        return range(self.p)

    def units(self):
        return range(1, self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def nonsquare(self):
        for x in range(2, self.p):
            if not self.is_square(x):
                return x
        raise FieldError("no nonsquare found")  # impossible for p > 2

    def to_text(self, a):
        return str(a % self.p)

    def from_text(self, s):
        return int(s) % self.p


class RationalField:
    """The rationals; elements are Fractions (lowest terms, positive denominator)."""

    kind = "rationals"

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    @property
    def order(self):
        return None

    def element(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def pow(self, a, n):
        return Fraction(a) ** n

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def is_square(self, a):
        a = Fraction(a)
        if a < 0:
            return False
        from math import isqrt

        rn, rd = isqrt(a.numerator), isqrt(a.denominator)
        return rn * rn == a.numerator and rd * rd == a.denominator

    def sqrt(self, a):
        a = Fraction(a)
        if not self.is_square(a):
            raise FieldError(f"{a} is not a rational square")
        from math import isqrt

        return Fraction(isqrt(a.numerator), isqrt(a.denominator))

    def elements(self):
        raise EnumerationError("cannot enumerate the rationals")

    def units(self):
        raise EnumerationError("cannot enumerate the rationals")

    def random(self, rng):
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))

    def to_text(self, a):
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def from_text(self, s):
        return Fraction(s)


def ground_field(spec):
    """Build a ground field from an int (prime) or the string 'Q'."""
    if spec == "Q" or isinstance(spec, RationalField):
        return RationalField()
    if isinstance(spec, PrimeField):
        return spec
    return PrimeField(int(spec))


class QuadraticEtale:
    """Quadratic etale algebra L over k with its standard involution sigma.

    Field case: L = k(g), g**2 = c with c a verified nonsquare; elements are
    pairs (x0, x1) meaning x0 + x1*g and sigma sends g to -g.  Split case:
    L = k x k with componentwise operations; elements are ordered pairs and
    sigma swaps the components.
    """

    def __init__(self, base, c=None):
        self.base = base
        self._p = base.p if base.kind == "prime" else None
        if c is None:
            self.kind = "split"
            self.c = None
            self.zero = (base.zero, base.zero)
            self.one = (base.one, base.one)
        else:
            c = base.element(c)
            if base.is_zero(c):
                raise FieldError("c must be nonzero")
            if base.is_square(c):
                raise FieldError(f"c = {c} is a square; use the split algebra")
            self.kind = "field"
            self.c = c
            self.zero = (base.zero, base.zero)
            self.one = (base.one, base.zero)

    def __repr__(self):
        if self.kind == "split":
            return f"{self.base!r}x{self.base!r}"
        return f"{self.base!r}(g), g^2={self.base.to_text(self.c)}"

    @property
    def order(self):
        n = self.base.order
        return None if n is None else n * n

    def embed(self, a):
        """The image of a in L under the diagonal/k-linear embedding."""
        a = self.base.element(a)
        if self.kind == "split":
            return (a, a)
        return (a, self.base.zero)

    def element(self, n):
        return self.embed(n)

    # g denotes the generator (field case) or the split unit (1, -1); both
    # square to an element of k and are negated (resp. swapped) by sigma.
    def gen(self):
        if self.kind == "split":
            return (self.base.one, self.base.neg(self.base.one))
        return (self.base.zero, self.base.one)

    # add, sub, neg, mul, sigma and eq run on the coordinates with the native
    # operators: Fractions over Q, residues over F_p reduced once per
    # coordinate (self._p is None over Q).
    def add(self, x, y):
        a, b, p = x[0] + y[0], x[1] + y[1], self._p
        return (a, b) if p is None else (a % p, b % p)

    def sub(self, x, y):
        a, b, p = x[0] - y[0], x[1] - y[1], self._p
        return (a, b) if p is None else (a % p, b % p)

    def neg(self, x):
        a, b, p = -x[0], -x[1], self._p
        return (a, b) if p is None else (a % p, b % p)

    def mul(self, x, y):
        x0, x1 = x
        y0, y1 = y
        if self.kind == "split":
            a, b = x0 * y0, x1 * y1
        else:
            a, b = x0 * y0 + self.c * x1 * y1, x0 * y1 + x1 * y0
        p = self._p
        return (a, b) if p is None else (a % p, b % p)

    def scalar_mul(self, a, x):
        return (self.base.mul(a, x[0]), self.base.mul(a, x[1]))

    def sigma(self, x):
        if self.kind == "split":
            return (x[1], x[0])
        p = self._p
        return (x[0], -x[1] if p is None else -x[1] % p)

    def norm(self, x):
        """N_{L/k}(x) = x * sigma(x), as an element of k."""
        k = self.base
        if self.kind == "split":
            return k.mul(x[0], x[1])
        return k.sub(k.mul(x[0], x[0]), k.mul(self.c, k.mul(x[1], x[1])))

    def trace(self, x):
        k = self.base
        if self.kind == "split":
            return k.add(x[0], x[1])
        return k.add(x[0], x[0])

    def is_zero(self, x):
        return self.base.is_zero(x[0]) and self.base.is_zero(x[1])

    def eq(self, x, y):
        a, b, p = x[0] - y[0], x[1] - y[1], self._p
        return (a == 0 and b == 0) if p is None else (a % p == 0 and b % p == 0)

    def is_unit(self, x):
        return not self.base.is_zero(self.norm(x))

    def inv(self, x):
        k = self.base
        n = self.norm(x)
        if k.is_zero(n):
            raise ZeroDivisionError(f"{x} is not a unit")
        if self.kind == "split":
            return (k.inv(x[0]), k.inv(x[1]))
        ninv = k.inv(n)
        return (k.mul(x[0], ninv), k.neg(k.mul(x[1], ninv)))

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def pow(self, x, n):
        if n < 0:
            return self.pow(self.inv(x), -n)
        return linalg.power(self.mul, self.one, x, n)

    def in_base(self, x):
        """True when x is sigma-fixed, i.e. lies in the embedded copy of k."""
        return self.eq(x, self.sigma(x))

    def to_base(self, x):
        if not self.in_base(x):
            raise FieldError(f"{x} is not in the ground field")
        return x[0]

    def elements(self):
        for a in self.base.elements():
            for b in self.base.elements():
                yield (a, b)

    def units(self):
        for x in self.elements():
            if self.is_unit(x):
                yield x

    def random(self, rng):
        return (self.base.random(rng), self.base.random(rng))

    def to_text(self, x):
        t = self.base.to_text
        if self.kind == "split":
            return f"({t(x[0])},{t(x[1])})"
        return f"{t(x[0])}+{t(x[1])}*g"

    def from_text(self, s):
        s = s.strip()
        if self.kind == "split":
            a, b = s.strip("()").split(",")
            return (self.base.from_text(a), self.base.from_text(b))
        head, _, tail = s.partition("+")
        if tail:
            return (self.base.from_text(head), self.base.from_text(tail.replace("*g", "")))
        return (self.base.from_text(head), self.base.zero)


class CubicAlgebra:
    """E = L[X]/(chi) for a monic cubic chi with coefficients in k.

    The involution sigma_E acts coefficient-wise through sigma of L and fixes
    the class of X; it is well defined exactly because chi has k-coefficients.
    Elements are triples (c0, c1, c2) of L-elements, meaning c0 + c1*t + c2*t^2.
    """

    kind = "cubic"

    def __init__(self, L, chi):
        # chi given as (a0, a1, a2) in k: chi = X^3 + a2 X^2 + a1 X + a0.
        self.L = L
        k = L.base
        a0, a1, a2 = (k.element(a) for a in chi)
        self.chi = (a0, a1, a2)
        self.zero = (L.zero, L.zero, L.zero)
        self.one = (L.one, L.zero, L.zero)
        self.gen = (L.zero, L.one, L.zero)
        self._reduction = _cubic_reduction(L, tuple(L.embed(a) for a in self.chi))
        self.etale = _cubic_separable(k, self.chi)

    def __repr__(self):
        k = self.L.base
        a0, a1, a2 = (k.to_text(a) for a in self.chi)
        return f"{self.L!r}[t]/(t^3+{a2}t^2+{a1}t+{a0})"

    @property
    def order(self):
        n = self.L.order
        return None if n is None else n**3

    def embed(self, x):
        """Image of an L-element in E."""
        return (x, self.L.zero, self.L.zero)

    def add(self, x, y):
        L = self.L
        return tuple(L.add(a, b) for a, b in zip(x, y))

    def sub(self, x, y):
        L = self.L
        return tuple(L.sub(a, b) for a, b in zip(x, y))

    def neg(self, x):
        return tuple(self.L.neg(a) for a in x)

    def scalar_mul(self, a, x):
        return tuple(self.L.mul(a, c) for c in x)

    def mul(self, x, y):
        return _cubic_mul(self.L, self._reduction, x, y)

    def pow(self, x, n):
        if n < 0:
            return self.pow(self.inv(x), -n)
        return linalg.power(self.mul, self.one, x, n)

    def sigma(self, x):
        return tuple(self.L.sigma(c) for c in x)

    def eq(self, x, y):
        return all(self.L.eq(a, b) for a, b in zip(x, y))

    def is_zero(self, x):
        return all(self.L.is_zero(a) for a in x)

    def mult_matrix(self, x):
        """Matrix over L of left multiplication by x on the basis 1, t, t^2."""
        cols = [x, self.mul(x, self.gen), self.mul(x, self.mul(self.gen, self.gen))]
        return tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))

    def norm(self, x):
        """N_{E/L}(x): determinant of multiplication by x."""
        return linalg.det3(self.L, self.mult_matrix(x))

    def trace(self, x):
        L = self.L
        m = self.mult_matrix(x)
        return L.add(L.add(m[0][0], m[1][1]), m[2][2])

    def is_unit(self, x):
        return self.L.is_unit(self.norm(x))

    def inv(self, x):
        # adjugate of the multiplication matrix applied to 1
        L = self.L
        m = self.mult_matrix(x)
        n = self.norm(x)
        if not L.is_unit(n):
            raise ZeroDivisionError(f"{x} is not a unit")
        ninv = L.inv(n)
        adj0 = (
            L.sub(L.mul(m[1][1], m[2][2]), L.mul(m[1][2], m[2][1])),
            L.sub(L.mul(m[1][2], m[2][0]), L.mul(m[1][0], m[2][2])),
            L.sub(L.mul(m[1][0], m[2][1]), L.mul(m[1][1], m[2][0])),
        )
        return tuple(L.mul(ninv, a) for a in adj0)

    def fixed_elements(self):
        """Enumerate F = E^sigma (k-coefficient representatives)."""
        k = self.L.base
        for a in k.elements():
            for b in k.elements():
                for c in k.elements():
                    yield (self.L.embed(a), self.L.embed(b), self.L.embed(c))

    def elements(self):
        for a in self.L.elements():
            for b in self.L.elements():
                for c in self.L.elements():
                    yield (a, b, c)

    def random(self, rng):
        return (self.L.random(rng), self.L.random(rng), self.L.random(rng))

    def to_text(self, x):
        t = self.L.to_text
        return f"{t(x[0])} + ({t(x[1])})*t + ({t(x[2])})*t^2"


def _cubic_reduction(R, chi):
    """(X^3, X^4) reduced mod the monic cubic chi = (a0, a1, a2) over the ring
    R, as coefficient triples (c0, c1, c2) meaning c0 + c1 X + c2 X^2."""
    x3 = tuple(R.neg(a) for a in chi)
    # X^4 = X * X^3: shift up and reduce the X^3 term
    x4 = tuple(R.add(w, R.mul(x3[2], m)) for w, m in zip((R.zero, x3[0], x3[1]), x3))
    return x3, x4


def _cubic_mul(R, reduction, x, y):
    """The product of coefficient triples x, y mod the monic cubic whose
    _cubic_reduction is `reduction`."""
    conv = [R.zero] * 5
    for i in range(3):
        if R.is_zero(x[i]):
            continue
        for j in range(3):
            conv[i + j] = R.add(conv[i + j], R.mul(x[i], y[j]))
    r = conv[:3]
    for d, deg in zip(conv[3:], reduction):
        if not R.is_zero(d):
            r = [R.add(a, R.mul(d, m)) for a, m in zip(r, deg)]
    return tuple(r)


def _poly_gcd_is_one(k, f, g):
    """gcd test for k[X] polynomials given as low-first coefficient tuples."""

    def degree(p):
        d = len(p) - 1
        while d >= 0 and k.is_zero(p[d]):
            d -= 1
        return d

    f, g = list(f), list(g)
    while True:
        df, dg = degree(f), degree(g)
        if dg < 0:
            return df == 0
        if df < dg:
            f, g = g, f
            continue
        # f -= lead(f)/lead(g) * X^(df-dg) * g
        c = k.div(f[df], g[dg])
        shift = df - dg
        for i in range(dg + 1):
            f[i + shift] = k.sub(f[i + shift], k.mul(c, g[i]))


def _cubic_separable(F, chi):
    """Whether the monic cubic chi = (c0, c1, c2) over the field or ring F
    (k or L) is separable: gcd(chi, chi') = 1."""
    c0, c1, c2 = chi
    two = F.add(F.one, F.one)
    three = F.add(two, F.one)
    return _poly_gcd_is_one(F, (c0, c1, c2, F.one), (c1, F.mul(two, c2), three))


def _has_eigenvalue_one(F, chi):
    """Whether chi(1) = 1 + c2 + c1 + c0 vanishes for chi = (c0, c1, c2)."""
    c0, c1, c2 = chi
    return F.is_zero(F.add(F.add(F.one, c2), F.add(c1, c0)))


def cubic_is_irreducible(R, chi):
    """Whether the monic cubic chi (coefficients in R, low first, degree
    coefficients (a0, a1, a2)) has no root in R.  A cubic is irreducible over
    a field exactly when it has no root there.  Over a split R = k x k the
    answer is for the two component cubics: whether both are irreducible
    over k, so that R[X]/chi is a product of two cubic fields.

    For prime fields and quadratic extensions this computes gcd(X^|R| - X, chi)
    by modular exponentiation, so large fields stay cheap.  For the rationals
    it uses the rational root test.
    """
    a0, a1, a2 = chi

    if isinstance(R, QuadraticEtale) and R.kind == "split":
        k = R.base
        c1 = cubic_is_irreducible(k, (a0[0], a1[0], a2[0]))
        c2 = cubic_is_irreducible(k, (a0[1], a1[1], a2[1]))
        return c1 and c2

    if getattr(R, "order", None) is not None:
        # X^q mod chi by square-and-multiply on coefficient triples
        reduction = _cubic_reduction(R, chi)
        result = linalg.power(
            lambda u, v: _cubic_mul(R, reduction, u, v),
            (R.one, R.zero, R.zero),
            (R.zero, R.one, R.zero),
            R.order,
        )
        # chi has a root in R iff gcd(X^q - X, chi) != 1 iff X^q == X mod chi
        # is not needed in full: gcd != 1 iff the map X -> X^q - X mod chi is
        # singular on some root; simplest exact test: X^q - X shares a factor.
        diff = (result[0], R.sub(result[1], R.one), result[2])
        if all(R.is_zero(c) for c in diff):
            return False  # chi divides X^q - X: splits into linear factors
        # gcd(chi, diff) over the field R
        f = [a0, a1, a2, R.one]
        g = list(diff)
        return _poly_gcd_is_one(R, f, g)

    # rationals: rational root test on a scaled integer polynomial
    fa0, fa1, fa2 = (Fraction(a) for a in (a0, a1, a2))
    from math import lcm

    m = lcm(fa0.denominator, fa1.denominator, fa2.denominator)
    c0, c1, c2, c3 = int(fa0 * m), int(fa1 * m), int(fa2 * m), m
    if c0 == 0:
        return False  # root 0

    def divisors(n):
        n = abs(n)
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.extend((d, n // d))
            d += 1
        return out

    for pnum in divisors(c0):
        for pden in divisors(c3):
            for s in (1, -1):
                r = Fraction(s * pnum, pden)
                if ((c3 * r + c2) * r + c1) * r + c0 == 0:
                    return False
    return True


def _first_irreducible_cubic(k):
    """(a0, a1, 0) for the first irreducible X^3 + a1 X + a0 over the prime
    field k, a1 running slowest and a0 over the units; None if there is none."""
    for a1 in range(k.p):
        for a0 in range(1, k.p):
            if cubic_is_irreducible(k, (a0, a1, 0)):
                return (a0, a1, 0)


def norm_one_elements(A):
    """Enumerate {x : x * sigma(x) = 1} in a QuadraticEtale or CubicAlgebra.

    Over L = F_{q^2}/F_q this is the norm-one circle of size q + 1; for split
    L = k x k it is {(a, 1/a)} of size q - 1.  Requires a finite base field.
    """
    if isinstance(A, QuadraticEtale):
        if A.order is None:
            raise EnumerationError("norm-one enumeration needs a finite base field")
        k = A.base
        if A.kind == "split":
            for a in k.units():
                yield (a, k.inv(a))
            return
        for x in A.elements():
            if k.eq(A.norm(x), k.one):
                yield x
        return
    if isinstance(A, CubicAlgebra):
        if A.order is None:
            raise EnumerationError("norm-one enumeration needs a finite base field")
        for x in A.elements():
            if A.eq(A.mul(x, A.sigma(x)), A.one):
                yield x
        return
    raise TypeError(f"unsupported algebra {A!r}")


def norm_quotient_report(E):
    """Cardinalities (|L^1 / N(E^1)|, |k* / N(F*)|) for a cubic algebra E.

    Both quotients are computed by exhaustive enumeration, so the base field
    must be finite.  Over finite fields both are 1; rational bases are
    rejected because no finite procedure decides the norm images there.
    """
    if E.order is None:
        raise EnumerationError("norm quotients over the rationals are not decided")
    L = E.L
    k = L.base

    l_one = set()
    for x in norm_one_elements(L):
        l_one.add(x)
    norms_e1 = set()
    for x in norm_one_elements(E):
        norms_e1.add(E.norm(x))
    # N(E^1) is a subgroup of L^1; the quotient size is the index
    q1 = len(l_one) // len(norms_e1)

    k_units = set(k.units())
    norms_f = set()
    for x in E.fixed_elements():
        if E.is_unit(x):
            n = E.norm(x)  # lies in the sigma-fixed part of L, i.e. in k
        else:
            continue
        norms_f.add(L.to_base(n))
    q2 = len(k_units) // len(norms_f)
    return (q1, q2)
