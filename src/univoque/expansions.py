"""Expansions of reals in a non-integer base from (1, 2) with digits {0, 1}.

Provides the greedy digit algorithm, the lazily computed expansion of 1
and its quasi-greedy periodic form, evaluation of digit sequences, the
inverse problem (solving exactly for the base that makes an eventually
periodic digit sequence expand 1), Parry admissibility, the two-sided
lexicographic uniqueness criterion, and the gap map realizing the digit
shift on values, with its continuous extension across the gap.

Bases come in two flavours.  A float base carries a tolerance: any
decision that lands inside the accumulated uncertainty raises instead of
guessing.  An algebraic base is a certified polynomial root: the orbit
of 1 is tracked as exact polynomial remainders, integers over one
denominator, so digits, finiteness of the expansion of 1, and all
lexicographic decisions are exact.
"""

from __future__ import annotations

import math
import re
import threading
from fractions import Fraction
from operator import lshift
from typing import Optional

from .algebraic import CertifiedRoot, IntPolynomial
from .errors import (
    MiddleGapError,
    NotParryError,
    OutOfDomainError,
    PreconditionViolated,
    UndecidableDigitError,
    UndecidedError,
)
from .words import BinaryWord, PeriodicSeq, _MIRROR

DEFAULT_TOLERANCE = 1e-12
DEFAULT_DIGIT_BUDGET = 256


class BetaValue:
    """A base in (1, 2); see FloatBeta and AlgebraicBeta."""

    def __float__(self) -> float:
        raise NotImplementedError

    @staticmethod
    def parse(text: str) -> "BetaValue":
        """Parse 'float:1.9' or 'poly:[-1,-1,1]@(1,2)' (constant term first)."""
        text = text.strip()
        try:
            if text.startswith("float:"):
                return FloatBeta(float(text[len("float:"):]))
            m = re.fullmatch(r"poly:\[([^\]]*)\]@\(([^,]+),([^)]+)\)", text)
            if m:
                coeffs = [int(c) for c in m.group(1).split(",")]
                lo, hi = Fraction(m.group(2).strip()), Fraction(m.group(3).strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in base: {text!r}") from None
        except ValueError:  # a number that int, float or Fraction rejects
            raise ValueError(f"cannot parse base: {text!r}") from None
        if not m:
            raise ValueError(f"cannot parse base: {text!r}")
        try:
            return AlgebraicBeta(IntPolynomial(coeffs), lo, hi)
        except (ValueError, PreconditionViolated) as exc:  # no single root, or not in [1, 2]
            raise type(exc)(f"base {text!r}: {exc}") from None


class FloatBeta(BetaValue):
    """A base given by a float, trusted only up to a tolerance band."""

    def __init__(self, value: float, tolerance: float = DEFAULT_TOLERANCE):
        value = float(value)
        if not 1.0 < value < 2.0:
            raise PreconditionViolated(f"base must lie strictly inside (1, 2), got {value}")
        if not tolerance > 0:  # NaN too: it would switch off every band check
            raise ValueError("tolerance must be positive")
        self.value = value
        self.tolerance = tolerance

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        return f"float:{self.value!r}"

    def __repr__(self) -> str:
        return f"FloatBeta({self.value!r})"


class AlgebraicBeta(BetaValue):
    """A base certified as the unique root of an integer polynomial in an interval."""

    def __init__(self, poly: IntPolynomial, lo=1, hi=2):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo < 1 or hi > 2:
            raise PreconditionViolated("isolating interval must lie inside [1, 2]")
        self.root = CertifiedRoot(poly, lo, hi)
        # CertifiedRoot refuses a zero at either end of a wider interval,
        # so the root is 1 or 2 only as the exact zero of a point interval
        if lo == hi and lo in (1, 2):
            raise PreconditionViolated(
                f"base must lie strictly inside (1, 2), got {float(lo)}")

    @property
    def poly(self) -> IntPolynomial:
        return self.root.poly

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return self.root.interval

    def refine(self, eps) -> "AlgebraicBeta":
        self.root.refine(eps)
        return self

    def sign_at_root(self, r: IntPolynomial) -> int:
        return self.root.sign_at_root(r)

    def __float__(self) -> float:
        return float(self.root)

    def __str__(self) -> str:
        lo, hi = self.root.interval
        coeffs = ",".join(str(c) for c in self.poly.coeffs)
        return f"poly:[{coeffs}]@({lo},{hi})"

    def __repr__(self) -> str:
        return f"AlgebraicBeta({self.poly!r})"


def as_beta(x) -> BetaValue:
    if isinstance(x, BetaValue):
        return x
    if isinstance(x, str):
        return BetaValue.parse(x)
    return FloatBeta(float(x))


class _FloatOrbit:
    """Greedy digit orbit t -> b*t - digit, with roundoff tracking.

    The base is taken as the exact real equal to the float; roundoff
    grows by a factor b per step.  A digit whose branch decision falls
    inside the tolerance or inside the accumulated roundoff band raises
    rather than guesses.  ``extend`` runs the whole orbit in one loop on
    local variables and writes the state back at the last good digit, so
    a failed digit leaves the state as it was.
    """

    __slots__ = ("b", "tol", "t", "err")
    finite_at = cycle = None  # no exact state: it never ends or repeats

    def __init__(self, b: float, tol: float, t0: float):
        self.b = b
        self.tol = tol
        self.t = t0
        self.err = 0.0

    def extend(self, digits: list[int], n: int) -> None:
        """Append greedy digits to `digits` until it holds n of them."""
        b, tol, t, err = self.b, self.tol, self.t, self.err
        append = digits.append
        for _ in range(n - len(digits)):
            v = b * t
            e = err * b + 1e-15 * (v if v > 1.0 else 1.0)
            band = e if e > tol else tol
            if -band <= v - 1.0 <= band:
                self.t, self.err = t, err
                raise UndecidableDigitError(
                    f"orbit point {v/b!r} within {band:.3g} of branch point 1/b; "
                    "use an algebraic base for an exact decision")
            if v > 1.0:
                append(1)
                t = v - 1.0
            else:
                append(0)
                t = v
            err = e
        self.t, self.err = t, err


class _AlgebraicOrbit:
    """Exact greedy digit orbit t -> b*t - digit: t is a polynomial
    remainder modulo the root's `_sq`, which vanishes at the base, so
    reduction never changes the value.  `_sq` need not be squarefree or
    minimal; it has exactly one root in the interval, and it is simple.

    The remainder is held as integer numerators over q L^k, with q the
    start point's denominator and L > 0 the leading coefficient of the
    primitive `_sq`: a reduction multiplies it by L, and L is divided
    out again while it divides every numerator and k > 0.  So k is the
    least that serves, and states are equal exactly when their rational
    coefficients are, with no gcd taken.  States are kept, and an end
    (`finite_at`: the digit count when b*t - 1 vanishes at the base) or
    a repeat (`cycle` = (p, q): the state after p + q digits is the one
    after p) recorded, only within the first DEFAULT_DIGIT_BUDGET
    digits, where the verdict on the expansion of 1 is read; from an
    end or a repeat on, `extend` copies digits instead of stepping.
    """

    __slots__ = ("_sign", "_sq", "_num", "_den", "_k", "_seen", "finite_at", "cycle")

    def __init__(self, beta: AlgebraicBeta, t0: Fraction):
        self._sign = beta.root.sign_at_root
        self._sq = beta.root._sq.coeffs
        self._num, self._den, self._k = [t0.numerator], t0.denominator, 0
        self._seen = {(0, t0.numerator): 0}
        self.finite_at = self.cycle = None

    def extend(self, digits: list[int], n: int) -> None:
        """Append greedy digits to `digits` until it holds n of them."""
        sq, sign, seen, append = self._sq, self._sign, self._seen, digits.append
        d, lead = len(sq) - 1, sq[-1]
        num, den, k = self._num, self._den, self._k
        i = len(digits)
        while i < n and self.finite_at is None and self.cycle is None:
            u = [0, *num]  # b*t, of degree at most d
            top = u.pop() if len(u) > d else 0
            if top:
                u = [lead * c - top * s for c, s in zip(u, sq)]
                den *= lead
                k += lead > 1  # a monic `_sq` keeps k at 0
            while len(u) > 1 and not u[-1]:
                u.pop()
            while k and not any(c % lead for c in u):
                u = [c // lead for c in u]
                den //= lead
                k -= 1
            v = [u[0] - den, *u[1:]]  # b*t - 1, reduced too: k > 0 makes L divide den
            s = sign(IntPolynomial._trusted(v))
            append(int(s >= 0))
            i += 1
            # at 0 (a reducible `_sq` can leave a nonzero remainder there)
            # the next step divides den back to q
            num = u if s < 0 else v if s > 0 else [0]
            if i <= DEFAULT_DIGIT_BUDGET:
                if s == 0:
                    self.finite_at = i
                else:
                    j = seen.setdefault((k, *num), i)
                    if j < i:
                        self.cycle = (j, i - j)
        self._num, self._den, self._k = num, den, k
        p, q = self.cycle or (i, 0)
        for i in range(i, n):  # past an end or a repeat
            append(digits[p + (i - p) % q] if q else 0)


class GreedyExpansion:
    """Lazily extensible greedy digits of 1, with a finiteness verdict.

    Digits never change once produced; extension is internally locked so
    concurrent readers are safe.  ``finiteness`` is one of
    ``("finite", n)`` (digit n is the last 1), ``("infinite", (p, q))``
    (the digit sequence is eventually periodic, detected from an exact
    orbit repeat), or ``("unknown", budget)``, decided once within the
    first ``budget`` digits.  ``bound`` is the uniqueness criterion's
    bound, kept once the verdict is known.
    """

    budget = DEFAULT_DIGIT_BUDGET

    def __init__(self, beta: BetaValue):
        # a flag, not the base: the base keeps its expansion (d_of_beta),
        # and a reference back would make a cycle
        self._exact = isinstance(beta, AlgebraicBeta)
        self._digits: list[int] = []
        self._lock = threading.RLock()
        self._bound: Optional[PeriodicSeq] = None
        # message of the float digit that failed; the orbit state did not move
        self._failed: Optional[str] = None
        if self._exact:
            self._orbit = _AlgebraicOrbit(beta, Fraction(1))
        else:
            self._orbit = _FloatOrbit(beta.value, beta.tolerance, 1.0)

    def _extend_to(self, n: int) -> None:
        with self._lock:
            self._orbit.extend(self._digits, n)

    def digit(self, i: int) -> int:
        """0-based digit access."""
        if i < 0:
            raise ValueError("digit index must be nonnegative")
        self._extend_to(i + 1)
        return self._digits[i]

    def prefix(self, n: int) -> BinaryWord:
        if n < 0:
            raise ValueError("digit count must be nonnegative")
        self._extend_to(n)
        return BinaryWord._trusted(bytes(self._digits[:n]))

    def _certify(self, n: int) -> None:
        """Extend to n digits, or up to the first undecidable one; the
        caller holds the lock.  Once a digit has failed, later calls do
        not step again: the orbit state is unchanged, so the step would
        fail the same way."""
        if self._failed is None:
            try:
                self._orbit.extend(self._digits, n)
            except UndecidableDigitError as exc:
                self._failed = str(exc)

    def _certified_prefix(self, n: int) -> bytes:
        """Up to n digits, ending before the first undecidable one."""
        with self._lock:
            self._certify(n)
            return bytes(self._digits[:n])

    @property
    def finiteness(self):
        with self._lock:
            if self._orbit.finite_at is None and self._orbit.cycle is None:
                self._certify(self.budget)
            if self._orbit.finite_at is not None:
                return ("finite", self._orbit.finite_at)
            if self._orbit.cycle is not None:
                return ("infinite", self._orbit.cycle)
            return ("unknown", self.budget)

    @property
    def bound(self) -> Optional[PeriodicSeq]:
        """The bound of the uniqueness criterion: the quasi-greedy
        expansion of 1 when the digits end, the greedy digits when they
        repeat, None while the verdict is unknown.  Kept once known; an
        unknown verdict is not kept, as a longer prefix may end it when
        the budget is below DEFAULT_DIGIT_BUDGET.
        A float base is never finite or periodic, so its bound is None
        at once, without reading a digit: the bound prefix then reads
        the digits of 1 lazily, as deep as a comparison needs."""
        if self._bound is None and self._exact:
            kind, at = self.finiteness
            if kind == "finite":
                self._bound = PeriodicSeq._trusted(b"", bytes(self._digits[:at - 1]) + b"\0")
            elif kind == "infinite":
                p, q = at
                self._bound = PeriodicSeq._trusted(bytes(self._digits[:p]),
                                                   bytes(self._digits[p:p + q]))
        return self._bound


def greedy_digits(beta, x, n: int) -> BinaryWord:
    """First n greedy digits of x in the given base.

    Exact for an algebraic base and rational x; for a float base the
    digits are certified only while branch decisions stay outside the
    accumulated error band (UndecidableDigitError otherwise).
    """
    beta = as_beta(beta)
    if n < 0:
        raise ValueError("digit count must be nonnegative")
    exact = isinstance(beta, AlgebraicBeta)
    x = Fraction(x) if exact else float(x)
    if not 0 <= x <= 1:
        shown = str(x) if len(str(x)) <= 40 else f"a value {'below 0' if x < 0 else 'above 1'}"
        raise PreconditionViolated(f"x must lie in [0, 1], got {shown}")
    orbit = _AlgebraicOrbit(beta, x) if exact else _FloatOrbit(beta.value, beta.tolerance, x)
    digits = bytearray()
    orbit.extend(digits, n)
    return BinaryWord._trusted(bytes(digits))


def d_of_beta(beta) -> GreedyExpansion:
    """The greedy expansion of 1 in the given base, computed lazily and
    kept on the base: one expansion, one verdict and one bound per base."""
    beta = as_beta(beta)
    exp = getattr(beta, "_greedy_one", None)
    if exp is None:
        exp = beta._greedy_one = GreedyExpansion(beta)
    return exp


def quasi_greedy(beta) -> PeriodicSeq:
    """The purely periodic quasi-greedy expansion of 1.

    Defined when the expansion of 1 is finite, say with last 1 at
    position n: the result repeats the first n digits with that final 1
    turned into a 0.
    """
    exp = d_of_beta(beta)
    kind = exp.finiteness
    if kind[0] != "finite":
        raise NotParryError(
            f"expansion of 1 is not known to be finite (status: {kind[0]})")
    return exp.bound


def expansion_value(beta, s: PeriodicSeq) -> float:
    """Value of the digit sequence: sum of s_k * b^-k (closed form)."""
    b = float(as_beta(beta))
    pre, per = s._pre, s._per
    head = 0.0
    for i, bit in enumerate(pre):
        if bit:
            head += b ** -(i + 1)
    tail = 0.0
    for j, bit in enumerate(per):
        if bit:
            tail += b ** -(j + 1)
    return head + b ** -len(pre) * tail / (1.0 - b ** -len(per))


def _base_poly(s: PeriodicSeq) -> IntPolynomial:
    """Integer polynomial whose root in (1, 2) is the base in which s
    expands 1.

    With preperiod a_1..a_p and period c_1..c_q, clearing denominators
    in sum a_i x^-i + x^-p sum c_j x^-j / (1 - x^-q) = 1 gives
    x^p (x^q - 1) - (x^q - 1) sum a_i x^(p-i) - sum c_j x^(q-j), of
    degree p + q.  The all-zero period keeps the shorter x^p - sum
    a_i x^(p-i): the general form would gain a root at 1 there.
    """
    pre, per = s._pre, s._per
    p, q = len(pre), len(per)
    if per == b"\0":
        coeffs = [0] * (p + 1)
        coeffs[p] = 1
        for i, a in enumerate(pre, 1):
            coeffs[p - i] -= a
        return IntPolynomial._trusted(coeffs)
    coeffs = [0] * (p + q + 1)
    coeffs[p + q] = 1
    coeffs[p] -= 1
    for i, a in enumerate(pre, 1):
        coeffs[p + q - i] -= a
        coeffs[p - i] += a
    for j, c in enumerate(per, 1):
        coeffs[q - j] -= c
    return IntPolynomial._trusted(coeffs)


def solve_base(s: PeriodicSeq) -> AlgebraicBeta:
    """The unique base in (1, 2) whose expansion of the sequence s is 1.

    Exact for every eventually periodic s: the equation clears to an
    integer polynomial (see _base_poly), and the base is returned as its
    certified root in (1, 2).
    """
    pre, per = s._pre, s._per
    zeros = pre.count(0) + (math.inf if 0 in per else 0)
    ones = pre.count(1) + (math.inf if 1 in per else 0)
    if zeros < 1 or ones < 2:
        raise PreconditionViolated(
            "sequence must contain at least one 0 and at least two 1s")
    return AlgebraicBeta(_base_poly(s), 1, 2)


def is_parry_admissible(s: PeriodicSeq) -> bool:
    """Whether every proper shift of s is lexicographically below s.

    These are exactly the digit sequences arising as greedy expansions
    of 1.  Shifts repeat after n = preperiod + period steps, and windows
    of length n of one prefix decide each comparison (see is_extremal).
    """
    n = len(s._pre) + len(s._per)
    head = s._head(2 * n)
    return all(head[j:j + n] < head[:n] for j in range(1, n + 1))


def is_unique_expansion(beta, s: PeriodicSeq,
                        digit_budget: Optional[int] = None) -> bool:
    """Two-sided criterion for s being the only expansion of its value.

    Holds exactly when every shift of s lies strictly between the
    mirrored bound and the bound itself, where the bound is the
    quasi-greedy expansion of 1 when that exists and the greedy
    expansion of 1 otherwise.  This characterizes unique expansions
    whose value lies in the attractor core; the two constant sequences
    (the expansions of the domain endpoints) are unique as expansions
    but always fail the criterion.
    """
    beta = as_beta(beta)
    if not s.is_purely_periodic:
        raise PreconditionViolated("sequence must be purely periodic")
    q = len(s._per)
    return _BoundPrefix(beta, q, digit_budget).admits(s._per, q)


class _BoundPrefix:
    """The prefix `top` of the bound that decides its comparison with
    every shift of a period-q sequence, and its mirror `low`.  When the
    bound is eventually periodic, `top` is its first p_b + q_b + q
    symbols (Fine-Wilf).  Otherwise (at a float base, or at a base whose
    verdict is unknown) `top` holds the certified digits of 1 read so
    far: min(q, budget) of them at first, and more, doubling up to the
    budget, only when a shift ties with the prefix read, so each
    comparison reads up to its first strict difference.  Where the
    digits run out equality is undecided.  The prefix depends only on
    the base, q and the budget, so one serves a scan."""

    __slots__ = ("top", "low", "_exp", "_budget", "_undecided")

    def __init__(self, beta: BetaValue, q: int, digit_budget: Optional[int]):
        if digit_budget is not None and digit_budget < 1:
            raise PreconditionViolated(f"digit budget must be at least 1, got {digit_budget}")
        exp = d_of_beta(beta)
        bound = exp.bound
        self._exp = self._budget = self._undecided = None
        if bound is not None:
            self.top = bound._head(len(bound._pre) + len(bound._per) + q)
            self.low = self.top.translate(_MIRROR)
        else:
            self._exp, self._budget = exp, digit_budget or 4 * q + 64
            self._read(min(q, self._budget))

    def _read(self, n: int) -> None:
        """Make `top` the first n certified digits of 1.  The prefix is
        complete, and the expansion let go, once n is the budget or a
        digit before n has failed."""
        exp = self._exp
        self.top = top = exp._certified_prefix(n)
        self.low = top.translate(_MIRROR)
        if len(top) < n:  # digit len(top) failed: a tie rests on it
            self._exp, self._undecided = None, (UndecidableDigitError, (exp._failed,))
        elif n == self._budget:
            self._exp, self._undecided = None, (UndecidedError, (
                f"no strict difference within {n} digits; raise the "
                "budget or use an algebraic base", n))

    @property
    def undecided(self):
        """The error class and arguments a tie on the complete prefix
        raises, None when the bound is exact.  Reading it completes the
        prefix."""
        if self._exp is not None:
            self._read(self._budget)
        return self._undecided

    def admits(self, period: bytes, count: int) -> bool:
        """Whether the first count shifts of the purely periodic word
        (period)^w, read as windows of length len(top) of one prefix,
        lie strictly between mirror(top) and top.  A shift that ties
        with the prefix read so far extends it and is compared again."""
        start = 0
        while True:
            top, low, n = self.top, self.low, len(self.top)
            head = period * ((count + n) // len(period) + 1)
            for j in range(start, count):
                t = head[j:j + n]
                if not low < t < top:
                    break
            else:
                return True
            if t != top and t != low:
                return False
            if self._exp is None:  # the prefix is complete
                if self._undecided is None:
                    return False
                error, args = self._undecided
                raise error(*args)
            self._read(min(2 * n, self._budget))
            start = j


def _pruned_necklaces(bound: _BoundPrefix, n: int, decode: bool):
    """Yield, largest first, the primitive period-n words, each as its
    largest rotation, that survive the cut below; the caller runs
    bound.admits on the tested word, which is the word itself, or with
    decode its R-parity decoding (symbol t the parity of the 1s in
    w[0..t]).  The one necklace search of the package, after Ruskey and
    Sawada's necklaces with forbidden substrings.

    The words grow symbol by symbol (FKM, alphabet reversed: the next
    symbol copies the one p back, p the length of the longest prefix
    that is strictly its own largest rotation, or is a 0 below a copied
    1; the word is primitive when p reaches n).  For every started
    shift of the tested prefix, bit masks over shift ages (bit k for the
    shift started k symbols ago, whose next symbol meets position k)
    keep whether it still ties with the first n symbols of `top` or of
    its mirror `low`, and whether it lies strictly outside; a position
    past the symbols read ties with both.  admits reads the first n
    shifts in order and fails at the first one not strictly inside, so
    a prefix is cut once that shift lies strictly outside: every word
    below it fails without raising.  The cut test is one compare,
    outside <= ties with top | ties with low: a shift leaves a tie
    outside only at a position where top and low differ (top starts
    with 1, the first digit of 1), so it ties with neither from then
    on, the masks share no bit, and the larger holds the oldest shift.
    The search runs in one frame, so it holds no closure that refers to
    itself (see oracle); the current node's state stays in locals while
    it descends, and a backtrack reads it back from `states`."""
    top = bound.top
    ones = sum(map(lshift, top, range(n)))  # the 1s of top below n
    ones, zeros = ones | -1 << len(top), ~ones
    word = bytearray(n) + b"\1"  # word[-1] = 1 is the symbol FKM copies at t = 0
    # before symbol t: p, the tested symbol t - 1 (parity), the ties with
    # top and with low and the shifts strictly outside
    states = [(1, 0, 0, 0, 0)] * n
    p, r, tops, lows, out = states[0]
    t, c = 0, 1
    while True:
        word[t] = c
        q = p if c == word[t - p] else t + 1
        if q == n or t + 1 < n and word[0]:  # else a power of a shorter word
            e = r ^ c if decode else c  # tested symbol t
            tt, ll = tops << 1 | 1, lows << 1 | 1  # shift t starts
            # a 1 leaving top lies above it, a 0 leaving low below it; low
            # is the mirror of top, so a 1 ties on with top at its 1s and
            # with low at its 0s, and a 0 the other way round
            if e:
                tops_e, lows_e = tt & ones, ll & zeros
                out_e = out << 1 | (tt ^ tops_e)
            else:
                tops_e, lows_e = tt & zeros, ll & ones
                out_e = out << 1 | (ll ^ lows_e)
            # unless the oldest shift not strictly inside lies outside
            if out_e <= tops_e | lows_e:
                if t + 1 < n:
                    t += 1
                    p, r, tops, lows, out = states[t] = q, e, tops_e, lows_e, out_e
                    c = word[t - q]
                    continue
                yield bytes(word[:n])
        # the next prefix: the last 1 becomes a 0
        while not word[t]:
            t -= 1
            if t < 0:
                return
        p, r, tops, lows, out = states[t]
        c = 0


def shift_map(beta, x: float) -> float:
    """The map realizing the digit shift on values: b*x left of the gap,
    b*x - 1 right of it.  Undefined on the middle gap [1/b, 1/(b(b-1))],
    which values with a unique expansion never visit."""
    return _gap_map(float(as_beta(beta)), x, bridge=False)


def _gap_map(b, x, bridge: bool = True):
    """The gap map at b in b's own arithmetic: float in, float out;
    Fraction in, exact Fraction out.  On the middle gap it raises
    MiddleGapError, or by default follows the continuous extension:
    the straight line from (1/b, 1) down to (1/(b(b-1)), (2-b)/(b-1))."""
    l_hi = 1 / b
    g_hi = 1 / (b * (b - 1))
    top = 1 / (b - 1)
    if x < 0 or x > top:
        raise OutOfDomainError(f"x={x} outside [0, {top}]")
    if x < l_hi:
        return b * x
    if x <= g_hi:
        if not bridge:
            raise MiddleGapError(f"x={x} lies in the middle gap [{l_hi}, {g_hi}]")
        y0, y1 = 1, (2 - b) / (b - 1)
        return y0 + (x - l_hi) * (y1 - y0) / (g_hi - l_hi)
    return b * x - 1
