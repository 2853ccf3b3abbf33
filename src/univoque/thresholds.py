"""Sharkovskii ordering, extremal periodic sequences, and base thresholds.

For each period k >= 2 there is a smallest base above which a unique
periodic expansion of primitive period k exists.  That threshold is the
root in (1, 2) of an integer polynomial built from the lexicographically
least extremal sequence of period k, which this module constructs in two
independent ways: by iterating the doubling map, and in closed form from
Thue-Morse fragments.  Its reduced form divides out the cyclotomic factor
C_k = (x^(2^(n-1)) - 1) / (x - 1) of k = 2^n * odd and, at k = 7 only,
x + 1; that is the minimal polynomial for every k <= 96 by a one-off
factorisation, not certified at run time.  The thresholds are certified
polynomial roots and their order matches the Sharkovskii order on
periods; the accumulation point of the power-of-two thresholds is the
Komornik-Loreti constant, bracketed here by an exact bisection and
compared with each threshold exactly; both decide on words, by the first
difference between a quasi-greedy expansion of 1 and Thue-Morse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebraic import IntPolynomial
from .errors import PreconditionViolated, TooLargeError
from .expansions import AlgebraicBeta, FloatBeta, _base_poly, solve_base
from .words import (
    EQUAL,
    GREATER,
    LESS,
    PeriodicSeq,
    doubling_map,
    thue_morse,
)


# the longest period built: `beta-n 1024 --eps 5e-324` takes about 3 s
# on a 2-CPU Xeon, and at period 2048 about 13 s
THRESHOLD_LIMIT = 1024


def _check_period(k: int) -> None:
    """Refuse k > THRESHOLD_LIMIT before any word is built."""
    if k > THRESHOLD_LIMIT:
        raise TooLargeError(f"period {k} exceeds THRESHOLD_LIMIT = {THRESHOLD_LIMIT}")


@dataclass(frozen=True)
class SharkovskiiKey:
    """Unique decomposition k = 2^n * (2m + 1)."""

    n: int
    m: int

    @property
    def k(self) -> int:
        return (1 << self.n) * (2 * self.m + 1)


def decompose(k: int) -> SharkovskiiKey:
    if k < 1:
        raise PreconditionViolated("k must be a positive integer")
    n = (k & -k).bit_length() - 1
    return SharkovskiiKey(n, ((k >> n) - 1) // 2)


def sharkovskii_cmp(k: int, l: int) -> int:
    """LESS means k comes before l in the Sharkovskii order.

    Rows of 2^n * odd are ordered by ascending n and, within a row, by
    ascending odd part; the pure powers of two form the final tail in
    descending order.
    """
    if k == l:
        return EQUAL
    a, b = decompose(k), decompose(l)
    if a.m == 0 and b.m == 0:
        return LESS if k > l else GREATER
    if a.m == 0:
        return GREATER
    if b.m == 0:
        return LESS
    if a.n != b.n:
        return LESS if a.n < b.n else GREATER
    return LESS if a.m < b.m else GREATER


def min_extremal_recursive(k: int) -> PeriodicSeq:
    """Least extremal sequence of primitive period k, by doubling.

    Period 1 is the all-ones sequence; for k = 2^n the construction
    iterates the doubling map on the all-zeros sequence, and for
    k = 2^n (2m + 1) with m >= 1 on the period word 1(10)^m.
    """
    _check_period(k)
    key = decompose(k)
    if k == 1:
        return PeriodicSeq._trusted(b"", b"\1")
    if key.m == 0:
        s = PeriodicSeq._trusted(b"", b"\0")
    else:
        s = PeriodicSeq._trusted(b"", b"\1" + b"\1\0" * key.m)
    for _ in range(key.n):
        s = doubling_map(s)
    return s


def min_extremal_explicit(k: int) -> PeriodicSeq:
    """Least extremal sequence of primitive period k, in closed form.

    The period word consists of Thue-Morse fragments (1-indexed symbols):
    for k = 2^n the first 2^n - 1 symbols followed by the complement of
    symbol 2^n; for k = 2^n (2m + 1), m >= 1, the first 3 * 2^n symbols
    followed by m - 1 copies of the first 2^(n+1) symbols with the last
    one complemented.
    """
    _check_period(k)
    key = decompose(k)
    if k == 1:
        return PeriodicSeq._trusted(b"", b"\1")
    tm = thue_morse(3 * (1 << key.n) + 1)._bits  # tm[i] is the i-th symbol
    if key.m == 0:
        size = 1 << key.n
        block = tm[1:size] + bytes([1 - tm[size]])
    else:
        head = tm[1:3 * (1 << key.n) + 1]
        rep_size = 1 << (key.n + 1)
        rep = tm[1:rep_size] + bytes([1 - tm[rep_size]])
        block = head + rep * (key.m - 1)
    return PeriodicSeq._trusted(b"", block)


def threshold_poly(k: int) -> IntPolynomial:
    """Defining polynomial of the k-th threshold: the base polynomial of
    the least extremal sequence of period k, that is x^k minus the terms
    weighted by its period word (whose last symbol is 0), minus 1.
    Monic, not necessarily irreducible."""
    if k < 2:
        raise PreconditionViolated("threshold polynomials start at k = 2")
    return _base_poly(min_extremal_recursive(k))


def threshold_beta(k: int, eps: float = 1e-8) -> AlgebraicBeta:
    """The k-th threshold as a certified root in (1, 2), refined below eps."""
    beta = AlgebraicBeta(threshold_poly(k), 1, 2)
    beta.refine(Fraction(eps))
    return beta


def reduced_poly(k: int) -> IntPolynomial:
    """The defining polynomial of the k-th threshold with its known
    cyclotomic and linear factors divided out.

    For k = 2^n * odd with n >= 2, threshold_poly(k) is divisible by
    C_k = (x^(2^(n-1)) - 1) / (x - 1) = 1 + x + ... + x^(2^(n-1) - 1);
    the division is exact and raises if that ever fails.  The constant
    term is then -1, so x + 1 and x - 1 are the only possible linear
    factors.  x - 1 never divides: the value at 1 is minus the number of
    ones in the period word, divided by C_k(1).  x + 1 is removed while
    it divides, which happens only at k = 7.  The result is the minimal
    polynomial for every k <= 96, by a one-off factorisation;
    irreducibility is not certified at run time."""
    p = threshold_poly(k)
    n = decompose(k).n
    if n >= 2:
        p = p.exact_div(IntPolynomial._trusted((1,) * (1 << (n - 1))))
    while p(-1) == 0:
        p = p.exact_div(IntPolynomial._trusted((1, 1)))
    return p


def _kl_sign(x: Fraction) -> int:
    """+1 if the rational x in (1, 2) lies below the Komornik-Loreti
    constant, else -1: the word rule of below_komornik_loreti on the
    greedy digits of 1 at x = p/q, from the orbit n/d with n <- n p and
    d <- d q per digit, the exact orbit's degree-1 case: kl_bracket(2^-100)
    took 4-5 times as long through the orbit in expansions (0.10 s against
    0.02 s, 2-CPU Xeon).  The digits never end, as base polynomials are
    monic, so they are quasi-greedy; L doubles until t_1 ... t_L differs
    from them, as it must: the constant is transcendental (Allouche-Cosnard 2000)."""
    p, q = x.numerator, x.denominator
    n = d = 1
    digits = []
    while True:
        for _ in range(max(64, len(digits))):
            n, d = n * p, d * q
            digits.append(int(n >= d))
            n -= digits[-1] * d
        word, tm = bytes(digits), thue_morse(len(digits) + 1)._bits[1:]
        if word != tm:
            return 1 if word < tm else -1


def kl_bracket(eps) -> tuple[Fraction, Fraction]:
    """Certified rational bracket of the Komornik-Loreti constant,
    narrower than eps >= 2^-100: bisection of (3/2, 2), the same for
    every call with the same eps."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    # each halving needs more digits of 1, of larger integers: on a 2-CPU
    # Xeon 16 ms at 2^-100, 0.25 s at 2^-200 and 6-8 s at 2^-400
    if eps < Fraction(1, 2 ** 100):
        raise PreconditionViolated(f"eps must be at least 2^-100 (about 7.9e-31), "
                                   f"got {float(eps):.3g}")
    lo, hi = Fraction(3, 2), Fraction(2)
    while hi - lo >= eps:
        mid = (lo + hi) / 2
        if _kl_sign(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def komornik_loreti(eps: float = 1e-5) -> FloatBeta:
    """The Komornik-Loreti constant as a float base: the midpoint of
    kl_bracket(eps), which is the certified bracket.  The base keeps the
    default tolerance, a band on orbit points, not the bracket's width."""
    lo, hi = kl_bracket(eps)
    return FloatBeta(float((lo + hi) / 2))


def below_komornik_loreti(k: int) -> bool:
    """Whether the k-th threshold lies below the Komornik-Loreti constant.

    Quasi-greedy expansions of 1 increase strictly with the base (de
    Vries-Komornik 2009): at the k-th threshold it is the least extremal
    sequence of period k, at the constant the shifted Thue-Morse sequence
    t_1 t_2 t_3 ... (Komornik-Loreti 1998).  Their first difference
    decides; it comes within 2k + 1 symbols, as a factor of that length
    with period k is an overlap and Thue-Morse has none (Thue 1912).
    """
    if k < 2:
        raise PreconditionViolated("thresholds start at k = 2")
    return min_extremal_recursive(k)._per * 3 < thue_morse(3 * k + 1)._bits[1:]


def greedy_threshold(n: int, eps: float = 1e-8) -> AlgebraicBeta:
    """Root in (1, 2) of x^n = x^(n-1) + 1, the base in which 1 0^(n-2) 1
    expands 1: the onset base for plain greedy (not necessarily unique)
    periodic expansions of period n."""
    if n < 2:
        raise PreconditionViolated("defined for n >= 2")
    _check_period(n)
    beta = solve_base(PeriodicSeq._trusted(b"\1" + b"\0" * (n - 2) + b"\1", b"\0"))
    beta.refine(Fraction(eps))
    return beta
