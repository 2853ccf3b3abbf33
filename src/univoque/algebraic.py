"""Integer polynomials and certified real root arithmetic.

Every sign decision here is exact: evaluation at a rational point reduces
to integer arithmetic, root counting uses Descartes bounds under Mobius
transforms, and isolating intervals shrink to the cells that bisection
with exact endpoint signs reaches; a secant step or a float root may
propose a cell of the bisection grid, which is taken only when the exact
signs at its ends show that it holds the root.  Floats never decide
anything: a float may propose a cell, but only exact signs take it.
Each root computes its Newton float at most once and keeps it for every
later descent, since it only ever proposes.  Otherwise floats appear
only when a caller asks for an approximate value of an already-certified
root.

Coefficients are checked once, where they enter: the public IntPolynomial
constructor reads each with operator.index and refuses anything that is
not a whole number.  Every polynomial built inside the package, from
coefficients that are already ints, takes IntPolynomial._trusted, which
only strips trailing zeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, isfinite, lcm
from operator import index
from typing import Iterable, Sequence

from .errors import PreconditionViolated, UndecidedError

_MAX_ISOLATE_DEPTH = 400
_SEPARATION_LEVELS = 256   # compare may wait this many levels for its gcd (less at a point)
_JUMP_MIN = 4              # shorter descents only bisect (a chosen value, not measured)
_FLOAT_BITS = 44           # a float root proposes cells at most this many bits below the root (of 53)
_NEWTON_STEPS = 64         # a float root not settled within this many steps proposes nothing
_NEWTON_TOL = 2.0 ** -(_FLOAT_BITS + 3)  # a Newton step this small (relative) settles it
_UNSET = object()          # a root's Newton float before it is first computed


def _strip(coeffs: Iterable[int]) -> tuple[int, ...]:
    """The coefficients as a tuple without trailing zeros; (0,) for none."""
    c = tuple(coeffs)
    n = len(c)
    while n > 1 and not c[n - 1]:
        n -= 1
    return c[:n] if n < len(c) else c or (0,)


def _value(coeffs: Sequence[int], p: int, q: int) -> int:
    """The polynomial's value at p / q, q > 0, times q^deg, by one integer
    Horner: sum_i c_i p^i q^(deg - i)."""
    total = 0
    if q & (q - 1):
        qpow = 1
        for c in reversed(coeffs):
            total = total * p + c * qpow
            qpow *= q
    else:  # q = 2^e, as on the bisection grid from integer ends: powers are shifts
        e, shift = q.bit_length() - 1, 0
        for c in reversed(coeffs):
            total = total * p + (c << shift)
            shift += e
    return total


def _sign(coeffs: Sequence[int], p: int, q: int) -> int:
    """Exact sign of the polynomial at p / q, q > 0."""
    total = _value(coeffs, p, q)
    return (total > 0) - (total < 0)


class IntPolynomial:
    """Univariate polynomial with integer coefficients, constant term first."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        c = []
        for x in coeffs:
            try:
                c.append(index(x))
            except TypeError:
                raise PreconditionViolated(
                    f"coefficient must be a whole number, got {x!r}") from None
        self._coeffs = _strip(c)

    @classmethod
    def _trusted(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        """A polynomial on coefficients already known to be ints."""
        p = object.__new__(cls)
        p._coeffs = _strip(coeffs)
        return p

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
            return IntPolynomial._trusted((0,))
        return IntPolynomial._trusted([i * c for i, c in enumerate(self._coeffs)][1:])

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self._coeffs, other._coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial._trusted(out)

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
        return IntPolynomial._trusted(quo)

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
    if c == (0,) or c[-1] == 1:  # a leading 1 leaves content 1
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
        return IntPolynomial._trusted(B)
    if B == (0,):
        return IntPolynomial._trusted(A)
    if len(A) < len(B):
        A, B = B, A
    while B != (0,):
        R = _primitive(_pseudo_rem(A, B))
        A, B = B, R
    return IntPolynomial._trusted(A)


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p with repeated factors collapsed; same root set, all roots simple."""
    if p.degree <= 1:
        return IntPolynomial._trusted(_primitive(p.coeffs))
    # the gcd is primitive, so by Gauss's lemma the quotient is integral
    return IntPolynomial._trusted(_primitive(p.exact_div(poly_gcd(p, p.derivative())).coeffs))


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
    p, and it is simple; a == b marks an exact rational root, and p is
    nonzero at both ends of a < b.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if p.sign_at(lo) == 0 or p.sign_at(hi) == 0:
        raise ValueError("polynomial vanishes at an isolation endpoint")
    out: list[tuple[Fraction, Fraction]] = []
    found: set[Fraction] = set()  # roots hit at a midpoint, divided out of p
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        if depth > _MAX_ISOLATE_DEPTH:
            raise UndecidedError(f"root isolation did not converge within depth "
                                 f"{_MAX_ISOLATE_DEPTH}", _MAX_ISOLATE_DEPTH)
        v = _descartes_bound(p, a, b)
        if v == 0:
            continue
        if v == 1 and a not in found and b not in found:
            out.append((a, b))
            continue
        # a cell that ends at a root found earlier is split again, as if it
        # had more variations, until the cell of its own root no longer
        # touches that end
        m = (a + b) / 2
        if p.sign_at(m) == 0:
            out.append((m, m))
            found.add(m)
            p = p.exact_div(IntPolynomial._trusted((-m.numerator, m.denominator)))
            # after deflation the endpoints stay nonzero for the reduced poly
        stack.append((a, m, depth + 1))
        stack.append((m, b, depth + 1))
    out.sort()
    return out


def _ancestor(start: tuple[int, int, int], iv: tuple[int, int, int],
              level: int) -> tuple[int, int, int]:
    """The cell at `level` below start that holds iv, a cell or point of
    the grid of _descend below start; iv itself at its own level, which
    the denominators give, and below (a point stays a point)."""
    a, b, den = start
    depth = (iv[2] // den).bit_length() - 1
    if level >= depth:
        return iv
    w = b - a
    lo = (a << level) + ((iv[0] - (a << depth)) // w >> (depth - level)) * w
    return lo, lo + w, den << level


def _float_root(coeffs: Sequence[int], lo, hi, s_lo: int):
    """A float near the one root in (lo, hi) of the polynomial with these
    coefficients, whose sign at lo is s_lo, or None.

    It only proposes a point: _descend takes the cell around it only when
    exact signs confirm it.  Newton's method runs on the reversed
    polynomial y^d f(1/y) = sum c_i y^(d-i) in y = 1/x, from the end of
    the bracket at x = hi, and each float sign shrinks the bracket; a step
    that would leave it halves the bracket instead.  From (1, 2) every
    threshold up to period 1024 settles in 4 or 5 steps; Newton on f
    itself, from x = 2, takes 38 at period 256.  None when lo <= 0, when a
    coefficient or an end does not fit a float, on a polynomial value that
    is not finite, or when no step settles.
    """
    if lo <= 0:
        return None
    try:
        c = list(map(float, coeffs))
        ylo, yhi = 1 / float(hi), 1 / float(lo)
    except OverflowError:
        return None
    y = ylo
    for _ in range(_NEWTON_STEPS):
        g = dg = 0.0
        for ci in c:
            dg = dg * y + g
            g = g * y + ci
        if not isfinite(g):
            return None
        # y^d f(1/y) has the sign of f(1/y), which is s_lo below the root
        if (g > 0) == (s_lo > 0):
            yhi = y
        else:
            ylo = y
        step = g / dg if dg else inf if g else 0.0
        if abs(step) <= y * _NEWTON_TOL:
            return 1 / (y - step)
        y -= step
        if not ylo < y < yhi:  # out of the bracket, or no slope: halve it
            y = (ylo + yhi) / 2
    return None


def _cell(coeffs: Sequence[int], s: int, a: int, w: int, den: int, t: int, num: int, qden: int):
    """The cell of the level-t grid below (a, a + w, den) (see _descend)
    beside grid point i = floor(num / qden), clamped to the grid, on the
    side of the root that the exact sign at i shows.  It is returned as
    (lo, hi, den 2^t, value at lo, value at hi) when the exact signs at
    its ends are s and -s; 0 when a sign checked is 0, otherwise None."""
    if qden < 0:
        num, qden = -num, -qden
    i = min(max(num // qden, 0), 1 << t)
    base, dt = a << t, den << t
    vi = _value(coeffs, base + i * w, dt)
    j = i + 1 if (vi > 0) == (s > 0) else i - 1
    vj = _value(coeffs, base + j * w, dt) if vi else 0
    if not vj:
        return 0
    if (vi > 0) == (vj > 0):
        return None
    if i > j:
        i, j, vi, vj = j, i, vj, vi
    return base + i * w, base + j * w, dt, vi, vj


class CertifiedRoot:
    """A real algebraic number: polynomial plus certified isolating interval.

    Invariant: `_sq` is a primitive integer polynomial that vanishes at
    the number; `_sq` has exactly one root in the interval, and it is
    simple.  When the given polynomial has a single Descartes sign
    variation on the interval, its primitive part serves as `_sq` as it
    stands; only otherwise is its squarefree part computed and isolated.
    On an interval in [0, oo) with a sign change, one sign variation of
    the coefficients themselves settles this in O(d), before the O(d^2)
    Descartes transform.

    The interval is held as integers over one common denominator: `_iv`
    is (a, b, den) for [a/den, b/den], den > 0.  den starts at the lcm of
    the endpoint denominators and doubles at each bisection, so every
    decision is integer arithmetic; a Fraction is built only on the way
    out.  refine and compare leave the interval in exactly the cell that
    bisection one level at a time reaches, but get there by verified
    jumps over the bisection grid (_descend, _separate).  compare runs
    one gcd, whether other's polynomial vanishes at this root, and when
    it does only this root descends.  The gcd runs at once, except for
    roots of two different polynomials in [0, oo), other's with one sign
    variation: then only after _SEPARATION_LEVELS levels or at the first
    point interval.  Each bisection or jump replaces the whole tuple in
    one assignment with a cell of an isolating interval of the root, so
    a concurrent reader always sees an isolating interval of the same
    number, never a torn one.

    `_newton` keeps the Newton float root (_float_root) once the first
    long descent has computed it, _UNSET before: every later descent,
    and the copy that float() refines, reuses it.  It only proposes a
    cell, which exact signs take or refuse, so keeping it changes no
    interval.  `_float` is float()'s answer, kept likewise.
    """

    __slots__ = ("poly", "_sq", "_iv", "_sign_lo", "_newton", "_float")

    def __init__(self, poly: IntPolynomial, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo <= hi:
            raise ValueError("empty interval")
        if poly.is_zero:
            raise ValueError("the zero polynomial isolates no root")
        self.poly = poly
        self._newton = _UNSET
        self._float = None
        if lo == hi:
            self._sq = squarefree_part(poly)
            if self._sq.sign_at(lo) != 0:
                raise ValueError("point interval is not a root")
            s_lo = 0
        else:
            sq = IntPolynomial._trusted(_primitive(poly.coeffs))
            s_lo, s_hi = sq.sign_at(lo), sq.sign_at(hi)
            if s_lo and s_hi and (lo >= 0 and s_lo != s_hi and _sign_variations(sq.coeffs) == 1
                                  or _descartes_bound(sq, lo, hi) == 1):
                # one sign variation: exactly one root, and it is simple.
                # With lo >= 0 and a sign change, one variation of the
                # coefficients already says so: Descartes gives one simple
                # positive root, and since the bound is subadditive the
                # bound on (lo, hi) is 1 as well
                self._sq = sq
            else:
                self._sq = squarefree_part(poly)
                ivals = isolate_roots(self._sq, lo, hi)
                if len(ivals) != 1:
                    raise ValueError(f"expected exactly one root in ({lo}, {hi}), "
                                     f"found {len(ivals)}")
                lo, hi = ivals[0]
                s_lo = self._sq.sign_at(lo)
        den = lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
        self._iv = (a, b, den)
        self._sign_lo = s_lo

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        a, b, den = self._iv
        return Fraction(a, den), Fraction(b, den)

    def refine(self, width) -> "CertifiedRoot":
        """Shrink the interval to the first cell narrower than width that
        bisection reaches, jumping there (_descend)."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        iv = self._iv
        a, b, den = iv
        # bisection keeps b - a and doubles den: it stops after the least
        # k with (b - a) * wd < wn * den * 2^k
        self._descend(iv, ((b - a) * width.denominator // (width.numerator * den)).bit_length())
        return self

    def _descend(self, iv: tuple[int, int, int], k: int, ends=(None, None)):
        """Move the interval from iv to where k bisections would leave it,
        and return that interval with `ends`, the exact values (times
        den^deg) at its two ends, each None when not computed; `ends`
        passes in those of iv.  A bisection keeps the half whose ends
        have opposite exact signs, or the midpoint when its sign is 0.

        The grid at level t below (a, b, den) holds the points
        (a 2^t + i (b - a)) / (den 2^t), 0 <= i <= 2^t.  k bisections end
        in the cell of the level-k grid that holds the root, or at a grid
        point that is the root.  Jumps find that cell without the levels
        in between: a proposal names a grid point i at a level t <= k,
        and the exact sign there picks the neighbour on the side of the
        root (_cell).  The cell is taken only when the exact signs at its
        ends are _sign_lo and -_sign_lo: then it holds the root, and no
        coarser midpoint is the root, so bisection reaches it too.

        The first proposal may come from a float: on entry, a float root
        (_float_root) names the point at level t = min(k, _FLOAT_BITS
        less the bits already known), when that is deeper than the first
        secant jump.  The root computes that float on the first such
        entry and keeps it in `_newton` for every later one.  A float only
        proposes; if exact signs refuse its cell, the descent goes on as
        if it had made none.  After that, Abbott's secant step on the
        exact end values proposes, and a rejected proposal costs one
        bisection.  As in Abbott's quadratic
        interval refinement (2006) the secant jump doubles after a success
        and halves after a failure; it starts at about the bits already
        known.  A zero sign hands the rest to plain bisection.
        """
        a, b, den = iv
        if a == b:
            return iv, ends
        coeffs, s = self._sq.coeffs, self._sign_lo
        shift = len(coeffs) - 1
        w = b - a
        fa, fb = ends
        # the secant misses by about w^2 f''/f', so a cell 2^-p wide, p bits
        # below the root's magnitude, gains about p less the degree's bits
        dbits = shift.bit_length()
        step = 0
        if k >= _JUMP_MIN:
            known = max(abs(a), abs(b)).bit_length() - w.bit_length()
            step = max(2, known - dbits)
            t = min(k, _FLOAT_BITS - known)
            r = None
            if t > step:
                r = self._newton
                if r is _UNSET:
                    try:  # float ends, without building Fractions
                        r = _float_root(coeffs, a / den, b / den, s)
                    except OverflowError:  # an end that does not fit a float
                        r = None
                    self._newton = r
            if r is not None and isfinite(r):
                p, q = r.as_integer_ratio()
                # the grid point nearest r: (r - a/den) den 2^t / w, rounded
                cell = _cell(coeffs, s, a, w, den, t, ((p * den - q * a) << (t + 1)) + q * w,
                             2 * q * w)
                if cell:
                    a, b, den, fa, fb = cell
                    self._iv = (a, b, den)
                    k -= t
                    step = max(2 * step, max(abs(a), abs(b)).bit_length() - w.bit_length() - dbits)
        while k > 0:
            if step >= 2 and k >= 2:
                t = min(k, step)
                if fa is None or fb is None:
                    fa, fb = _value(coeffs, a, den), _value(coeffs, b, den)
                # the grid point nearest the secant root a + w fa / (fa - fb)
                cell = _cell(coeffs, s, a, w, den, t, (fa << t) * 2 + fa - fb, 2 * (fa - fb))
                if cell:
                    a, b, den, fa, fb = cell
                    self._iv = (a, b, den)
                    k -= t
                    step = max(2 * step, max(abs(a), abs(b)).bit_length() - w.bit_length() - dbits)
                    continue
                step = 0 if cell == 0 else step // 2
            elif step:
                step = 2
            # one bisection, keeping the end values
            mid = a + b
            vm = _value(coeffs, mid, 2 * den)
            if not vm:
                self._iv = (mid, mid, 2 * den)
                return self._iv, (0, 0)
            if (vm > 0) == (s > 0):
                a, b, fa, fb = mid, 2 * b, vm, None if fb is None else fb << shift
            else:
                a, b, fa, fb = 2 * a, mid, None if fa is None else fa << shift, vm
            den *= 2
            self._iv = (a, b, den)
            k -= 1
        return (a, b, den), (fa, fb)

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
            self._descend(self._iv, 1)

    def compare(self, other: "CertifiedRoot") -> int:
        """Exact three-way comparison with another certified root.

        Disjoint intervals decide at once, by integer cross-multiplication.
        Overlapping ones go to _separate, which leaves both intervals where
        bisection would: at the first level at which they are disjoint,
        or at which this one, at a root of other's polynomial, is a point
        or lies strictly inside other's.
        """
        if self is other:
            return 0
        a1, b1, d1 = self._iv
        a2, b2, d2 = other._iv
        if b1 * d2 < a2 * d1:
            return -1
        if b2 * d1 < a1 * d2:
            return 1
        if a2 == b2 and a1 < b1:
            # the point's polynomial may vanish at another root in this
            # interval, so test equality from the point's side
            return -other.compare(self)
        return self._separate(other)

    def _separate(self, other: "CertifiedRoot") -> int:
        """Compare two roots whose intervals overlap, leaving both where
        bisection one level at a time leaves them.  It bisects both until
        their intervals are disjoint, or, when other's polynomial vanishes
        at this root (shared, one gcd), this one alone until its interval
        is a point, lies strictly inside other's or is disjoint from it.
        Here they descend (_descend) in rounds that double after the first
        _JUMP_MIN single levels, and are set to their ancestor cells at
        the first level at which bisection stops.

        The gcd is put off only when other's polynomial differs and has
        one sign variation, and both intervals lie in [0, oo), not points:
        then shared means equal roots, which never separate.  If the gcd
        finds shared after _SEPARATION_LEVELS levels or at a point
        interval, both intervals go back and this root descends alone.
        """
        saved = iv1, iv2 = self._iv, other._iv
        shared = None
        if not (0 <= iv1[0] < iv1[1] and 0 <= iv2[0] < iv2[1] and self._sq != other._sq
                and _sign_variations(other._sq.coeffs) == 1):
            shared = self.vanishes(other._sq)
        while True:
            iv1, iv2 = start1, start2 = saved
            ends1 = ends2 = (None, None)
            step = levels = 0
            low = 0 if shared else 1  # alone, the loop may stop before its first bisection
            while True:
                for level in range(low, step + 1):
                    lo1, hi1, e1 = cell1 = _ancestor(start1, iv1, level)
                    lo2, hi2, e2 = cell2 = _ancestor(start2, iv2, level)
                    side = -1 if hi1 * e2 < lo2 * e1 else 1 if hi2 * e1 < lo1 * e2 else 0
                    if side or shared and (lo1 == hi1
                                           or lo2 * e1 < lo1 * e2 and hi1 * e2 < hi2 * e1):
                        self._iv, other._iv = cell1, cell2
                        return side
                if shared is None and levels >= _SEPARATION_LEVELS:
                    shared = self.vanishes(other._sq)
                    if shared:
                        break
                step, low = levels if levels >= _JUMP_MIN else 1, 1
                start1, start2 = iv1, iv2
                iv1, ends1 = self._descend(iv1, step, ends1)
                if not shared:
                    iv2, ends2 = other._descend(iv2, step, ends2)
                levels += step
                if shared is None and (iv1[0] == iv1[1] or iv2[0] == iv2[1]):
                    shared = self.vanishes(other._sq)
                    if shared:
                        break
            self._iv, other._iv = saved

    def cmp_rational(self, x) -> int:
        """Sign of (root - x) for rational x = p/q: the sign of qX - p at the root."""
        x = Fraction(x)
        return self.sign_at_root(IntPolynomial._trusted((-x.numerator, x.denominator)))

    def __float__(self) -> float:
        """The midpoint of the cell that refine(2^-60) reaches from the
        current interval, found on a copy: this root's interval stays as
        it was."""
        if self._float is None:
            copy = CertifiedRoot.__new__(CertifiedRoot)
            copy._sq, copy._iv, copy._sign_lo = self._sq, self._iv, self._sign_lo
            copy._newton = self._newton
            a, b, den = copy.refine(Fraction(1, 2 ** 60))._iv
            self._newton = copy._newton
            self._float = float(Fraction(a + b, 2 * den))
        return self._float


def _interval_eval(p: IntPolynomial, lo: int, hi: int, den: int):
    """Exact enclosure of p(x) * den^deg over x in [lo/den, hi/den], den > 0,
    by interval Horner on integers.  It is the rational interval Horner
    enclosure of p scaled by den^deg, so it decides the same signs.

    With lo >= 0 the extremes of [vlo, vhi] * [lo, hi] are known by sign,
    two products instead of the min and max of four: vlo times lo when
    vlo >= 0, else times hi; vhi times hi when vhi >= 0, else times lo."""
    coeffs = p.coeffs
    vlo = vhi = coeffs[-1]
    dpow = 1
    if lo >= 0:
        for c in reversed(coeffs[:-1]):
            dpow *= den
            cd = c * dpow
            vlo = vlo * (lo if vlo >= 0 else hi) + cd
            vhi = vhi * (hi if vhi >= 0 else lo) + cd
        return vlo, vhi
    for c in reversed(coeffs[:-1]):
        dpow *= den
        prods = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(prods), max(prods)
        vlo += c * dpow
        vhi += c * dpow
    return vlo, vhi
