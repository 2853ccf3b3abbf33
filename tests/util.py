"""Shared helpers for the test suite: seeded generators and small
exhaustive enumerations used by both the unit tests and the acceptance
gate."""

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from operator import xor

from univoque.algebraic import IntPolynomial
from univoque.errors import (BoundaryAmbiguityError, MiddleGapError, OutOfDomainError,
                             UndecidableDigitError, UndecidedError)
from univoque.words import (EQUAL, GREATER, LESS, BinaryWord, PeriodicSeq, is_extremal,
                             primitive_necklaces, thue_morse)
from univoque.expansions import (DEFAULT_DIGIT_BUDGET, as_beta, d_of_beta, expansion_value,
                                 is_parry_admissible)
from univoque.trapezoid import BOUNDARY_TOL, Itinerary, decode_itinerary

SEED = 20260810

# Minimal polynomials of the first thresholds as the paper's table lists
# them (constant term first).
PAPER_MINIMAL_POLYS = {
    2: IntPolynomial([-1, -1, 1]),
    3: IntPolynomial([-1, -1, -1, 1]),
    4: IntPolynomial([-1, 1, -2, 1]),
    5: IntPolynomial([-1, -1, 0, -1, -1, 1]),
    6: IntPolynomial([-1, 0, -1, 0, -1, -1, 1]),
    7: IntPolynomial([-1, 0, 0, -1, 1, -2, 1]),
    8: IntPolynomial([-1, 0, 1, 0, -2, 1]),
}


def random_purely_periodic(rng: random.Random, max_period: int) -> PeriodicSeq:
    q = rng.randint(1, max_period)
    return PeriodicSeq((), tuple(rng.randint(0, 1) for _ in range(q)))


def random_seq(rng: random.Random, max_pre: int, max_period: int) -> PeriodicSeq:
    p = rng.randint(0, max_pre)
    q = rng.randint(1, max_period)
    return PeriodicSeq(tuple(rng.randint(0, 1) for _ in range(p)),
                       tuple(rng.randint(0, 1) for _ in range(q)))


@lru_cache(maxsize=None)
def primitive_words(n: int) -> tuple[tuple[int, ...], ...]:
    """All primitive binary words of length exactly n."""
    return tuple(w for w in product((0, 1), repeat=n)
                 if len(kmp_primitive_root(w)) == n)


@lru_cache(maxsize=None)
def extremal_members(max_period: int) -> tuple[PeriodicSeq, ...]:
    """All purely periodic extremal-set members with primitive period
    at most max_period."""
    out = []
    for q in range(1, max_period + 1):
        for w in primitive_words(q):
            s = PeriodicSeq((), w)
            if is_extremal(s):
                out.append(s)
    return tuple(out)


@lru_cache(maxsize=None)
def admissible_words(max_len: int) -> tuple[BinaryWord, ...]:
    """Finite words w such that w followed by zeros is a valid greedy
    expansion of 1 (every proper shift strictly below the whole)."""
    out = []
    for n in range(1, max_len + 1):
        for w in product((0, 1), repeat=n - 1):
            word = w + (1,)
            if is_parry_admissible(PeriodicSeq(word, (0,))):
                out.append(BinaryWord(word))
    return tuple(out)


def lcm_bound_cmp(a: PeriodicSeq, b: PeriodicSeq) -> int:
    """Reference comparison on the first |pre_a| + |pre_b| +
    lcm(|per_a|, |per_b|) symbols, a longer bound than the Fine-Wilf
    length the package uses."""
    n = (len(a.preperiod) + len(b.preperiod)
         + math.lcm(len(a.period), len(b.period)))
    wa, wb = _prefix_bits(a, n), _prefix_bits(b, n)
    return (wa > wb) - (wa < wb)


@lru_cache(maxsize=None)
def _prefix_bits(s: PeriodicSeq, n: int) -> tuple[int, ...]:
    return s.prefix(n).bits


@lru_cache(maxsize=None)
def lr_necklace_words(n: int) -> tuple[str, ...]:
    """The largest rotation of each primitive word of length n over
    L < R, in ascending order."""
    words = ("".join("R" if b else "L" for b in w) for w in primitive_words(n))
    return tuple(sorted(w for w in words
                        if w == max(w[i:] + w[:i] for i in range(n))))


def affine_lr_cycles(b: float, n: int) -> list[str]:
    """Reference for find_lr_cycles at an unclipped float base: the
    affine solver it replaced.  For each candidate word, compose the
    branch formulas, solve the fixed-point equation in floats and keep
    the orbit when every point sits in its branch, BOUNDARY_TOL clear of
    the plateau edges."""
    c = b / (b - 1.0)
    l_hi, r_lo, r_hi = 1.0 / b, 1.0 / (b * (b - 1.0)), 1.0 / (b - 1.0)
    found = []
    for word in lr_necklace_words(n):
        amul, badd = 1.0, 0.0
        for sym in word:
            amul, badd = (b * amul, b * badd) if sym == "L" else (-b * amul, c - b * badd)
        x = x0 = badd / (1.0 - amul)
        for sym in word:
            if sym == "L":
                if not -1e-12 <= x < l_hi - BOUNDARY_TOL:
                    break
                x = b * x
            else:
                if not r_lo + BOUNDARY_TOL < x <= r_hi + 1e-12:
                    break
                x = c - b * x
        else:
            if abs(x - x0) < 1e-8:
                found.append(f"({word})^w")
    return found


def float_extension_map(b: float, x: float) -> float:
    """Reference for extension_map at a float base and a point of its
    domain: the float formula it replaced, with float literals."""
    l_hi = 1.0 / b
    g_hi = 1.0 / (b * (b - 1.0))
    if x < l_hi:
        return b * x
    if x <= g_hi:
        y0, y1 = 1.0, (2.0 - b) / (b - 1.0)
        return y0 + (x - l_hi) * (y1 - y0) / (g_hi - l_hi)
    return b * x - 1.0


def plateau_reference(params) -> tuple[float, float, float]:
    """Reference for TrapezoidParams.plateau: the geometry worked out
    again from float(params.beta) at each call, as it was."""
    b = float(params.beta)
    top = 1.0 / (b - 1.0)
    if params.clip is None:
        return 1.0 / b, 1.0 / (b * (b - 1.0)), 1.0
    side, x1 = params.clip
    if side == "left":
        return x1, top - x1, b * x1
    return top - x1, x1, b / (b - 1.0) - b * x1


def classify_reference(params, x: float) -> str:
    """Reference for the branch symbol of the trapezoid step: the
    classifier it replaced, which every caller ran on its own."""
    top = 1.0 / (float(params.beta) - 1.0)
    lo_c, hi_c, _ = plateau_reference(params)
    if x < -BOUNDARY_TOL or x > top + BOUNDARY_TOL:
        raise OutOfDomainError(f"x={x} outside [0, {top}]")
    for edge in (lo_c, hi_c):
        if 0.0 < abs(x - edge) < BOUNDARY_TOL:
            raise BoundaryAmbiguityError(
                f"x={x} within {BOUNDARY_TOL} of branch boundary {edge}")
    if x < lo_c:
        return "L"
    if x <= hi_c:
        return "C"
    return "R"


def trapezoid_map_reference(params, x: float) -> float:
    """Reference for trapezoid_map: classify, then apply the branch."""
    b = float(params.beta)
    sym = classify_reference(params, x)
    if sym == "L":
        return b * x
    if sym == "C":
        return plateau_reference(params)[2]
    return b / (b - 1.0) - b * x


def shift_map_reference(beta, x: float) -> float:
    """Reference for shift_map: the float gap map it was before it shared
    one definition with the continuous extension."""
    b = float(as_beta(beta))
    dom_hi = 1.0 / (b - 1.0)
    if x < 0.0 or x > dom_hi:
        raise OutOfDomainError(f"x={x} outside [0, {dom_hi}]")
    if x < 1.0 / b:
        return b * x
    if x <= 1.0 / (b * (b - 1.0)):
        raise MiddleGapError(
            f"x={x} lies in the middle gap [{1.0/b}, {1.0/(b*(b-1.0))}]")
    return b * x - 1.0


def bisection_three_cycle(beta) -> float:
    """Reference for extension_three_cycle: the float bisection it
    replaced.  The third iterate minus x changes sign between the values
    of (0011)^w and (0110)^w; bisect for up to 200 steps."""
    beta = as_beta(beta)
    b = float(beta)

    def g(x: float) -> float:
        y = x
        for _ in range(3):
            y = float_extension_map(b, y)
        return y - x

    lo = expansion_value(beta, PeriodicSeq.parse("(0011)^w"))
    hi = expansion_value(beta, PeriodicSeq.parse("(0110)^w"))
    if not g(lo) > 0.0 > g(hi):
        raise ValueError("no sign change for the third iterate")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(gm) < 1e-12 and hi - lo < 1e-13:
            break
        if gm > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def kmp_primitive_root(word: tuple) -> tuple:
    """Reference for words._primitive_root: the shortest u with
    word = u^m, via the classic border (failure) array."""
    n = len(word)
    if n <= 1:
        return word
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and word[i] != word[k]:
            k = fail[k - 1]
        if word[i] == word[k]:
            k += 1
        fail[i] = k
    p = n - fail[-1]
    return word[:p] if n % p == 0 else word


def symbolwise_canonical(pre: tuple, per: tuple) -> tuple[tuple, tuple]:
    """Reference for words._canonical: the primitive root of the period,
    then one trailing preperiod symbol at a time moved into the period
    while it matches the period's last symbol."""
    per = kmp_primitive_root(per)
    pre = list(pre)
    per = list(per)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per.insert(0, per.pop())
    return tuple(pre), tuple(per)


def reference_encode(s: PeriodicSeq) -> tuple[tuple, tuple]:
    """Reference for encode_itinerary, as the canonical (preperiod,
    period) pair of the run-start image, read through the public
    accessors."""
    p, q = len(s.preperiod), len(s.period)
    bits = (0,) + s.prefix(p + q + 1).bits
    syms = ["R" if a != b else "L" for a, b in zip(bits, bits[1:])]
    return symbolwise_canonical(tuple(syms[:p + 1]), tuple(syms[p + 1:]))


def reference_decode(it: Itinerary) -> tuple[tuple, tuple]:
    """Reference for decode_itinerary on periodic {L, R} itineraries, as
    the canonical (preperiod, period) pair of the R-parity word."""
    bits = tuple(accumulate((int(sym == "R") for sym in it.preperiod + it.period * 2), xor))
    p = len(it.preperiod)
    return symbolwise_canonical(bits[:p], bits[p:])


@lru_cache(maxsize=None)
def small_itineraries() -> tuple[Itinerary, ...]:
    """Every finite itinerary over {L, C, R} of length at most 3 and every
    eventually periodic one with preperiod at most 2 and period at most 3."""
    out = {Itinerary(w, ()) for n in range(4) for w in product("LCR", repeat=n)}
    for p, q in product(range(3), range(1, 4)):
        for w in product("LCR", repeat=p + q):
            out.add(Itinerary(w[:p], w[p:]))
    return tuple(sorted(out, key=str))


def symbolwise_unimodal_cmp(a: Itinerary, b: Itinerary) -> int:
    """Reference for unimodal_cmp: the symbol-by-symbol loop it replaced,
    reading at(i) up to the same bound and counting Rs as it goes."""
    if a.is_periodic and b.is_periodic:
        bound = max(len(a.preperiod), len(b.preperiod)) + len(a.period) + len(b.period)
    else:
        bound = max(len(a.preperiod), len(b.preperiod)) + 1
    flips = 0
    for i in range(bound):
        x, y = a.at(i), b.at(i)
        if x is None or y is None:
            if x is None and y is None:
                return EQUAL
            raise ValueError("one finite itinerary is a strict prefix of the other")
        if x != y:
            base = LESS if "LCR".index(x) < "LCR".index(y) else GREATER
            return -base if flips % 2 else base
        if x == "R":
            flips += 1
    return EQUAL


def bisect(root) -> None:
    """One bisection step of a certified root: keep the half of the
    interval whose ends have opposite exact signs, or the midpoint when
    it is the root."""
    a, b, den = root._iv
    if a == b:
        return
    mid = a + b
    s = root._sq.sign_at(Fraction(mid, 2 * den))
    if s == 0:
        root._iv = (mid, mid, 2 * den)
    elif s == root._sign_lo:
        root._iv = (mid, 2 * b, 2 * den)
    else:
        root._iv = (2 * a, mid, 2 * den)


def bisection_refine(root, width) -> None:
    """Reference for CertifiedRoot.refine: the loop it replaced, one
    bisection at a time until the interval is narrower than width."""
    width = Fraction(width)
    wn, wd = width.numerator, width.denominator
    while True:
        a, b, den = root._iv
        if (b - a) * wd < wn * den:
            return
        bisect(root)


def bisection_compare(r1, r2) -> int:
    """Reference for CertifiedRoot.compare: the loop it replaced.  On the
    first overlap it tests whether r2's polynomial vanishes at r1 (one
    gcd); then it bisects r1, and r2 as well unless it does, until the
    intervals are disjoint or r1's lies inside r2's."""
    if r1 is r2:
        return 0
    a2, b2, _ = r2._iv
    a1, b1, _ = r1._iv
    if a2 == b2 and a1 < b1:
        return -bisection_compare(r2, r1)
    equal = None
    while True:
        a1, b1, d1 = r1._iv
        a2, b2, d2 = r2._iv
        if b1 * d2 < a2 * d1:
            return -1
        if b2 * d1 < a1 * d2:
            return 1
        if equal is None:
            equal = r1.vanishes(r2._sq)
        if equal and (a1 == b1 or a2 * d1 < a1 * d2 and b1 * d2 < b2 * d1):
            return 0
        bisect(r1)
        if not equal:
            bisect(r2)


def series_kl_sign(x: Fraction) -> int:
    """Reference for thresholds._kl_sign: the exact sign of (sum of
    Thue-Morse weighted powers x^-k) - 1, the series it replaced.

    Truncates the series at N terms and bounds the rest by the geometric
    tail x^-N / (x - 1); N doubles until the bound is decisive, which it
    always becomes at rational x since the root is irrational.
    """
    n = 64
    while True:
        tm = thue_morse(n + 1).bits
        acc = Fraction(0)
        for k in range(n, 0, -1):
            acc = (acc + tm[k]) / x
        tail = x ** -n / (x - 1)
        if acc - 1 > 0:
            return 1
        if acc - 1 + tail < 0:
            return -1
        n *= 2
        if n > 1 << 16:
            raise RuntimeError("series sign did not stabilize")


def float_orbit_reference(b: float, tol: float, t: float, n: int):
    """Reference for expansions._FloatOrbit.extend: the per-step loop it
    replaced.  Returns (digits, error, t, err), where error is the
    UndecidableDigitError of the failed digit or None, and (t, err) is the
    orbit state after the last good digit.
    """
    err = 0.0
    digits = []
    for _ in range(n):
        v = b * t
        e = err * b + 1e-15 * max(1.0, v)
        band = max(tol, e)
        if abs(v - 1.0) <= band:
            return digits, UndecidableDigitError(
                f"orbit point {v/b!r} within {band:.3g} of branch point 1/b; "
                "use an algebraic base for an exact decision"), t, err
        digit = 1 if v > 1.0 else 0
        t, err = v - digit, e
        digits.append(digit)
    return digits, None, t, err


class EagerBoundPrefix:
    """Reference for expansions._BoundPrefix: the prefix read whole up
    front.  The expansion's verdict is read first (up to its digit
    budget, or to the failed float digit); without an exact bound, every
    digit of 1 certified within the prefix budget is read at once, and a
    tie on all of them is undecided."""

    def __init__(self, beta, q: int, digit_budget=None):
        budget = digit_budget or 4 * q + 64
        exp = d_of_beta(beta)
        bound = exp.bound if exp.finiteness[0] != "unknown" else None
        self.undecided = None
        if bound is not None:
            self.top = bound.prefix(len(bound.preperiod) + len(bound.period) + q).bits
        else:
            self.top = tuple(exp._certified_prefix(budget))
            n = len(self.top)
            if n < budget:
                self.undecided = (UndecidableDigitError, (exp._failed,))
            else:
                self.undecided = (UndecidedError, (
                    f"no strict difference within {n} digits; raise the "
                    "budget or use an algebraic base", n))
        self.low = tuple(1 - d for d in self.top)

    def admits(self, period: tuple[int, ...], count: int) -> bool:
        n = len(self.top)
        head = period * ((count + n) // len(period) + 1)
        for j in range(count):
            t = head[j:j + n]
            if self.low < t < self.top:
                continue
            if self.undecided is not None and t in (self.top, self.low):
                error, args = self.undecided
                raise error(*args)
            return False
        return True


def eager_unique(beta, s: PeriodicSeq, digit_budget=None) -> bool:
    """Reference for is_unique_expansion on the eager prefix."""
    q = len(s.period)
    return EagerBoundPrefix(as_beta(beta), q, digit_budget).admits(s.period.bits, q)


def eager_exists(beta, n: int, digit_budget=None) -> bool:
    """Reference for exists_period_n_unique: every primitive necklace
    against one eager prefix; an undecided necklace is raised only when
    none passes."""
    bound = EagerBoundPrefix(as_beta(beta), n, digit_budget)
    undecided = None
    for neck in primitive_necklaces(n):
        try:
            if bound.admits(neck.representative.bits, n):
                return True
        except (UndecidedError, UndecidableDigitError) as exc:
            undecided = exc
    if undecided is not None:
        raise undecided
    return False


def eager_lr_cycles(beta, n: int) -> list[Itinerary]:
    """Reference for find_lr_cycles: each necklace w (R for 1) decoded by
    decode_itinerary, its first n shifts against one eager prefix for
    period 2n."""
    bound = EagerBoundPrefix(as_beta(beta), 2 * n, None)
    found = []
    for neck in primitive_necklaces(n):
        word = ["R" if bit else "L" for bit in neck.representative.bits]
        per = decode_itinerary(Itinerary((), word)).period.bits
        if word == ["L"] or bound.admits(per * (2 * n // len(per)), n):
            found.append(Itinerary((), word))
    return found


class FractionOrbit:
    """Reference for expansions._AlgebraicOrbit: the exact orbit it
    replaced, with Fraction coefficients reduced modulo the root's `_sq`
    and one lcm over the denominators per digit."""

    def __init__(self, beta, t0: Fraction):
        self.beta = beta
        self._sq = beta.root._sq
        self.coeffs = self._reduce([Fraction(t0)])

    def _reduce(self, c: list) -> tuple:
        sq = self._sq.coeffs
        d = len(sq) - 1
        lead = sq[-1]
        while len(c) > d:
            top = c.pop()
            if top:
                k = len(c) - d
                f = top / lead
                for i in range(d):
                    c[k + i] -= f * sq[i]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return tuple(c)

    @staticmethod
    def _as_int_poly(coeffs) -> IntPolynomial:
        den = 1
        for f in coeffs:
            den = den * f.denominator // math.gcd(den, f.denominator)
        return IntPolynomial(tuple(int(f * den) for f in coeffs))

    def step(self) -> int:
        """Next digit; the state is (0,) once b*t - 1 vanishes at the base."""
        u = self._reduce([Fraction(0), *self.coeffs])
        shifted = list(u)
        shifted[0] -= 1
        s = self.beta.sign_at_root(self._as_int_poly(shifted))
        if s < 0:
            self.coeffs = u
            return 0
        self.coeffs = (Fraction(0),) if s == 0 else tuple(shifted)
        return 1


def fraction_orbit_digits(beta, x, n: int):
    """n digits of x from FractionOrbit, one step each, and the verdict
    its caller drew from the states: ("finite", i) when the state after
    i digits is 0, ("infinite", (p, q)) when the state after p + q digits
    is the one after p, the first of either within DEFAULT_DIGIT_BUDGET
    digits, or None."""
    orbit = FractionOrbit(beta, Fraction(x))
    seen = {orbit.coeffs: 0}
    digits, verdict = [], None
    for i in range(1, n + 1):
        digits.append(orbit.step())
        if verdict is None and i <= DEFAULT_DIGIT_BUDGET:
            if orbit.coeffs == (0,):
                verdict = ("finite", i)
            else:
                p = seen.setdefault(orbit.coeffs, i)
                if p < i:
                    verdict = ("infinite", (p, i - p))
    return tuple(digits), verdict
