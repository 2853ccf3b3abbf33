"""Integer polynomials and certified real root arithmetic.

Every sign decision here is exact: evaluation at a rational point reduces
to integer arithmetic, root counting uses Descartes bounds under Mobius
transforms, and isolating intervals shrink by bisection with exact
endpoint signs.  Floats never participate in a certified decision; they
only appear when a caller asks for an approximate value of an
already-certified root.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

_MAX_ISOLATE_DEPTH = 400


def _strip(coeffs: Sequence[int]) -> tuple[int, ...]:
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def _sign(coeffs: Sequence[int], p: int, q: int) -> int:
    """Exact sign of the polynomial at p / q, q > 0, by one integer Horner:
    value * q^deg = sum_i c_i p^i q^(deg - i) has the same sign."""
    total = 0
    qpow = 1
    for c in reversed(coeffs):
        total = total * p + c * qpow
        qpow *= q
    return (total > 0) - (total < 0)


class IntPolynomial:
    """Univariate polynomial with integer coefficients, constant term first."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        c = tuple(int(x) for x in coeffs)
        if not c:
            c = (0,)
        object.__setattr__(self, "_coeffs", _strip(c))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self._coeffs == (0,)

    def __call__(self, x):
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: Fraction) -> int:
        """Exact sign of the value at a rational point (integer arithmetic)."""
        x = Fraction(x)
        return _sign(self._coeffs, x.numerator, x.denominator)

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial((0,))
        return IntPolynomial(tuple(i * c for i, c in enumerate(self._coeffs))[1:])

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self._coeffs, other._coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IntPolynomial", self._coeffs))

    def divides(self, other: "IntPolynomial") -> bool:
        """Exact divisibility over the rationals (by Gauss's lemma, that of
        the primitive part of self over the integers)."""
        if self.is_zero:
            return other.is_zero
        return _exact_quotient(other._coeffs, _primitive(self._coeffs)) is not None

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        quo = _exact_quotient(self._coeffs, other._coeffs)
        if quo is None:
            raise ValueError("not an exact division with integer quotient")
        return IntPolynomial(quo)

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)})"


def poly_str(p: IntPolynomial) -> str:
    """Human form with descending powers, e.g. 'x^5-2x^4+x^2-1'."""
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            body = xpow if mag == 1 else f"{mag}{xpow}"
        parts.append(sign + body)
    return "".join(parts)


def _exact_quotient(num: Sequence[int], den: Sequence[int]):
    """Coefficients of num / den when den divides num in Z[x], otherwise
    None (constant term first)."""
    if den[-1] == 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem, dden = list(num), len(den) - 1
    quo = [0] * max(len(rem) - dden, 1)
    while len(rem) > dden:
        coef, r = divmod(rem.pop(), den[-1])
        if r:
            return None
        shift = len(rem) - dden
        quo[shift] = coef
        for i in range(dden):
            rem[shift + i] -= coef * den[i]
    return None if any(rem) else tuple(quo)


def _content(coeffs: Sequence[int]) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    return g or 1


def _primitive(coeffs: Sequence[int]) -> tuple[int, ...]:
    c = _strip(coeffs)
    if c == (0,):
        return c
    g = _content(c)
    if c[-1] < 0:
        g = -g
    return tuple(x // g for x in c)


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """A pseudo-remainder of a by b (sign not normalized; fine for gcd)."""
    r = list(_strip(a))
    b = list(_strip(b))
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db and any(r):
        top = r[-1]
        r = [lb * c for c in r]
        shiftn = len(r) - 1 - db
        for i, c in enumerate(b):
            r[shiftn + i] -= top * c
        r.pop()
        while len(r) > 1 and r[-1] == 0:
            r.pop()
    return tuple(r) if r else (0,)


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over the integers via the primitive remainder sequence."""
    A = _primitive(a.coeffs)
    B = _primitive(b.coeffs)
    if A == (0,):
        return IntPolynomial(B)
    if B == (0,):
        return IntPolynomial(A)
    if len(A) < len(B):
        A, B = B, A
    while B != (0,):
        R = _primitive(_pseudo_rem(A, B))
        A, B = B, R
    return IntPolynomial(A)


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p with repeated factors collapsed; same root set, all roots simple."""
    if p.degree <= 1:
        return IntPolynomial(_primitive(p.coeffs))
    # the gcd is primitive, so by Gauss's lemma the quotient is integral
    return IntPolynomial(_primitive(p.exact_div(poly_gcd(p, p.derivative())).coeffs))


def _sign_variations(coeffs: Sequence[int]) -> int:
    signs = [c for c in coeffs if c != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if (x < 0) != (y < 0))


def _taylor_shift(coeffs: Sequence[int], alpha: int) -> list[int]:
    """Coefficients of P(x + alpha), in place synthetic additions."""
    c = list(coeffs)
    d = len(c) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] += alpha * c[j + 1]
    return c


def _map_unit_interval(p: IntPolynomial, a: Fraction, b: Fraction) -> list[int]:
    """Integer coefficients of a polynomial whose roots in (0,1) are
    exactly the roots of p in (a, b): den^deg * p(a + (b - a) t), where
    a = alpha / den and b - a = dnum / den."""
    a, b = Fraction(a), Fraction(b)
    delta = b - a
    den = lcm(a.denominator, delta.denominator)
    alpha = a.numerator * (den // a.denominator)
    dnum = delta.numerator * (den // delta.denominator)
    # sum c_i den^(d-i) x^i at x = alpha + y, then y = dnum t
    d = p.degree
    c = _taylor_shift([ci * den ** (d - i) for i, ci in enumerate(p.coeffs)], alpha)
    return [ci * dnum ** i for i, ci in enumerate(c)]


def _descartes_bound(p: IntPolynomial, a: Fraction, b: Fraction) -> int:
    """Upper bound (exact when 0 or 1) on roots of p in the open (a, b)."""
    unit = _strip(_map_unit_interval(p, a, b))
    rev = list(reversed(unit))
    return _sign_variations(_taylor_shift(rev, 1))


def isolate_roots(p: IntPolynomial, lo: Fraction, hi: Fraction):
    """Disjoint isolating intervals for all real roots of p in (lo, hi).

    p must be squarefree (see squarefree_part) and must not vanish at
    the endpoints.  Each returned pair (a, b) holds exactly one root of
    p, and it is simple; a == b marks an exact rational root.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if p.sign_at(lo) == 0 or p.sign_at(hi) == 0:
        raise ValueError("polynomial vanishes at an isolation endpoint")
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        if depth > _MAX_ISOLATE_DEPTH:
            raise RuntimeError("root isolation did not converge")
        v = _descartes_bound(p, a, b)
        if v == 0:
            continue
        if v == 1:
            out.append((a, b))
            continue
        m = (a + b) / 2
        if p.sign_at(m) == 0:
            out.append((m, m))
            p = p.exact_div(IntPolynomial((-m.numerator, m.denominator)))
            # after deflation the endpoints stay nonzero for the reduced poly
        stack.append((a, m, depth + 1))
        stack.append((m, b, depth + 1))
    out.sort()
    return out


class CertifiedRoot:
    """A real algebraic number: polynomial plus certified isolating interval.

    Invariant: `_sq` is a primitive integer polynomial that vanishes at
    the number; `_sq` has exactly one root in the interval, and it is
    simple.  When the given polynomial has a single Descartes sign
    variation on the interval, its primitive part serves as `_sq` as it
    stands; only otherwise is its squarefree part computed and isolated.

    The interval is held as integers over one common denominator: `_iv`
    is (a, b, den) for [a/den, b/den], den > 0.  den starts at the lcm of
    the endpoint denominators and doubles at each bisection, so every
    decision is integer arithmetic; a Fraction is built only on the way
    out.  Each bisection replaces the whole tuple in one assignment with
    a half of the interval it read, so a concurrent reader always sees
    an isolating interval of the same number, never a torn one.
    """

    __slots__ = ("poly", "_sq", "_iv", "_sign_lo", "_float")

    def __init__(self, poly: IntPolynomial, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo <= hi:
            raise ValueError("empty interval")
        self.poly = poly
        self._float = None
        if lo == hi:
            self._sq = squarefree_part(poly)
            if self._sq.sign_at(lo) != 0:
                raise ValueError("point interval is not a root")
        else:
            sq = IntPolynomial(_primitive(poly.coeffs))
            if sq.sign_at(lo) and sq.sign_at(hi) and _descartes_bound(sq, lo, hi) == 1:
                # one sign variation: exactly one root, and it is simple
                self._sq = sq
            else:
                self._sq = squarefree_part(poly)
                ivals = isolate_roots(self._sq, lo, hi)
                if len(ivals) != 1:
                    raise ValueError(f"expected exactly one root in ({lo}, {hi}), "
                                     f"found {len(ivals)}")
                lo, hi = ivals[0]
        den = lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
        self._iv = (a, b, den)
        self._sign_lo = _sign(self._sq.coeffs, a, den)

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        a, b, den = self._iv
        return Fraction(a, den), Fraction(b, den)

    def _bisect(self) -> None:
        a, b, den = self._iv
        if a == b:
            return
        mid = a + b
        s = _sign(self._sq.coeffs, mid, 2 * den)
        if s == 0:
            self._iv = (mid, mid, 2 * den)
        elif s == self._sign_lo:
            self._iv = (mid, 2 * b, 2 * den)
        else:
            self._iv = (2 * a, mid, 2 * den)

    def refine(self, width) -> "CertifiedRoot":
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        wn, wd = width.numerator, width.denominator
        while True:
            a, b, den = self._iv
            if (b - a) * wd < wn * den:
                return self
            self._bisect()

    def vanishes(self, r: IntPolynomial) -> bool:
        """Whether r is zero at this root, decided exactly without bisection.

        Away from a point interval, r vanishes at the root exactly when
        gcd(_sq, r) changes sign across the interval: the gcd's roots in
        the interval are roots of _sq, so at most the one simple root.
        """
        if r.is_zero:
            return True
        a, b, den = self._iv
        if a == b:
            return _sign(r.coeffs, a, den) == 0
        g = poly_gcd(self._sq, r).coeffs
        return len(g) > 1 and _sign(g, a, den) * _sign(g, b, den) < 0

    def sign_at_root(self, r: IntPolynomial) -> int:
        """Exact sign of r evaluated at this root.

        The enclosure of r over the interval decides first; only when it
        straddles 0 is vanishing tested, once, by one gcd (vanishes).
        Then bisection shrinks the interval until the enclosure excludes 0.
        An enclosure that decides at once moves no interval.
        """
        checked = False
        while True:
            a, b, den = self._iv
            vlo, vhi = _interval_eval(r, a, b, den)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            if not checked:
                if self.vanishes(r):
                    return 0
                checked = True
            self._bisect()

    def compare(self, other: "CertifiedRoot") -> int:
        """Exact three-way comparison with another certified root.

        Bisection separates distinct roots, tested for disjointness by
        integer cross-multiplication; equality is proved once, by whether
        other's polynomial vanishes at this root.
        """
        if self is other:
            return 0
        a2, b2, _ = other._iv
        a1, b1, _ = self._iv
        if a2 == b2 and a1 < b1:
            # the point's polynomial may vanish at another root in this
            # interval, so test equality from the point's side
            return -other.compare(self)
        equal = None
        while True:
            a1, b1, d1 = self._iv
            a2, b2, d2 = other._iv
            if b1 * d2 < a2 * d1:
                return -1
            if b2 * d1 < a1 * d2:
                return 1
            if equal is None:
                equal = self.vanishes(other._sq)
            if equal and (a1 == b1 or a2 * d1 < a1 * d2 and b1 * d2 < b2 * d1):
                return 0
            self._bisect()
            if not equal:
                other._bisect()

    def cmp_rational(self, x) -> int:
        """Sign of (root - x) for rational x = p/q: the sign of qX - p at the root."""
        x = Fraction(x)
        return self.sign_at_root(IntPolynomial((-x.numerator, x.denominator)))

    def __float__(self) -> float:
        if self._float is None:
            self.refine(Fraction(1, 2 ** 60))
            a, b, den = self._iv
            self._float = float(Fraction(a + b, 2 * den))
        return self._float


def _interval_eval(p: IntPolynomial, lo: int, hi: int, den: int):
    """Exact enclosure of p(x) * den^deg over x in [lo/den, hi/den], den > 0,
    by interval Horner on integers.  It is the rational interval Horner
    enclosure of p scaled by den^deg, so it decides the same signs."""
    coeffs = p.coeffs
    vlo = vhi = coeffs[-1]
    dpow = 1
    for c in reversed(coeffs[:-1]):
        dpow *= den
        prods = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(prods), max(prods)
        vlo += c * dpow
        vhi += c * dpow
    return vlo, vhi
