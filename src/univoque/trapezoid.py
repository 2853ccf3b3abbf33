"""Trapezoidal interval maps and their symbolic dynamics.

The trapezoidal map rises linearly, holds a flat plateau at height 1,
then falls linearly.  Orbits are described by itineraries over {L, C, R}
(left branch, plateau, right branch).  The encoding of 0-1 sequences as
plateau-avoiding itineraries is the run-start rule: symbol i is R exactly
when s_i differs from s_(i-1), with s_(-1) = 0, so every block 1^a 0^b
becomes R L^(a-1) R L^(b-1).  Its inverse is the R-parity that the
unimodal order already counts: s_i is the parity of the Rs at positions
0..i.  The encoding preserves the position of every symbol, halves the
period exactly on half-mirror squares (there the shifted sequence is the
mirror, so the run starts repeat after half the period), and is an order
isomorphism onto the unimodal order.  An itinerary holds its symbols as
one str (its public ``preperiod`` and ``period`` are tuples of one-letter
str), a 0-1 sequence as bytes (see words); the encoding translates them.

The map is evaluated in floats at float(beta).  One step gives a point's
symbol and image; it refuses a point outside the domain or within the
fixed BOUNDARY_TOL = 1e-10 of a plateau edge, and decides every other
point as the float falls.  That band tracks no roundoff, which grows
like b^k * 1e-16 over k steps, so the symbols of trapezoid_map,
itinerary, `orbit --map T` and the plateau column of `conjecture-2n` are
not certified (ROADMAP item 9).  The LR cycles below do not use it.

Also here: the plateau-avoiding (LR) cycles, found as the decoded
periodic unique expansions (the link between the two families on which
the paper's second proof of the threshold order rests) by the one
membership loop of the package (expansions._unique_necklaces) run on
R-parity decodings, by the rule decode_itinerary uses (words._r_parity).
Its search drops a prefix once the oldest decoded shift not strictly
inside the bound lies strictly outside it, so its cost follows the
cycles it finds rather than the number of necklaces, and like every
request path (see oracle) it builds no reference cycle; clipped
trapezoid variants with a lowered plateau, and the continuous-extension
demonstration producing a genuine 3-periodic point above the period-4
threshold, solved as one linear equation and certified by exact
evaluation of the extension, which shares one definition with the gap
map (expansions._gap_map).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import xor
from typing import Optional

from .errors import (
    BoundaryAmbiguityError,
    NotInImageError,
    OutOfDomainError,
    PreconditionViolated,
    TooLargeError,
)
from .expansions import BetaValue, _BoundPrefix, _gap_map, _unique_necklaces, as_beta
from .thresholds import threshold_beta
from .words import (
    EQUAL,
    GREATER,
    LESS,
    NECKLACE_LIMIT,
    PeriodicSeq,
    _EventuallyPeriodic,
    _r_parity,
    _whole,
)

BOUNDARY_TOL = 1e-10

_SYMBOLS = ("L", "C", "R")
_RANK = {"L": 0, "C": 1, "R": 2}
_LR_OF_BITS = bytes.maketrans(b"\0\1", b"LR")  # R for a run start, or for 1 in a cycle
_BITS_OF_LR = bytes.maketrans(b"LR", b"\0\1")


class Itinerary(_EventuallyPeriodic):
    """Finite or eventually periodic word over {L, C, R}.

    An empty period marks a finite word; otherwise the representation is
    canonical exactly as for 0-1 sequences, with which it shares its
    core (``words._EventuallyPeriodic``).  Text forms: ``RLLR``,
    ``(RL)^w``, ``L(RL)^w``.
    """

    __slots__ = ()
    _PATTERN = re.compile(r"([LCR]*)(?:\(([LCR]+)\)\^w)?")
    _SYMBOLS_OF = _TEXT_OF = staticmethod(str)
    _NOUN = "itinerary"

    def __init__(self, preperiod=(), period=()):
        pre, per = tuple(preperiod), tuple(period)
        for out in (pre, per):
            if any(s not in _SYMBOLS for s in out):
                raise ValueError(f"symbols must be L, C or R: {out!r}")
        super().__init__("".join(pre), "".join(per))

    @property
    def preperiod(self) -> tuple[str, ...]:
        return tuple(self._pre)

    @property
    def period(self) -> tuple[str, ...]:
        return tuple(self._per)

    @property
    def is_periodic(self) -> bool:
        return bool(self._per)


@dataclass
class TrapezoidParams:
    """Map parameters: the base, plus an optional clipped plateau.

    A clip saws the top off at level b*x1 (side 'left', x1 inside the
    rising branch) or b/(b-1) - b*x1 (side 'right', x1 inside the
    falling branch), widening the plateau symmetrically.  The domain
    top and the plateau are worked out once, in floats at float(beta),
    when the parameters are built.
    """

    beta: BetaValue
    clip: Optional[tuple[str, float]] = None

    def __post_init__(self):
        self.beta = as_beta(self.beta)
        b = self._b = float(self.beta)
        top = self._top = 1.0 / (b - 1.0)
        self._fall = b / (b - 1.0)  # the falling branch is fall - b*x
        l_hi, r_lo = 1.0 / b, 1.0 / (b * (b - 1.0))
        self._plateau = l_hi, r_lo, 1.0
        if self.clip is None:
            return
        side, x1 = self.clip
        if side not in ("left", "right"):
            raise ValueError("clip side must be 'left' or 'right'")
        if side == "left":
            if not 0.0 < x1 < l_hi:
                raise PreconditionViolated("left clip point must lie in the rising branch")
            self._plateau = x1, top - x1, b * x1
        else:
            if not r_lo < x1 < top:
                raise PreconditionViolated("right clip point must lie in the falling branch")
            self._plateau = top - x1, x1, self._fall - b * x1

    def domain_top(self) -> float:
        return self._top

    def plateau(self) -> tuple[float, float, float]:
        """(left edge, right edge, level) of the flat part."""
        return self._plateau

    def _step(self, x) -> tuple[str, float]:
        """Branch symbol and image of a point, in floats.  Points within
        BOUNDARY_TOL of a plateau edge raise, except exact hits, which
        go to the closed side (the plateau is closed, the outer branches
        open at its edges)."""
        top = self._top
        lo_c, hi_c, level = self._plateau
        if x < -BOUNDARY_TOL or x > top + BOUNDARY_TOL:
            raise OutOfDomainError(f"x={x} outside [0, {top}]")
        for edge in (lo_c, hi_c):
            if 0.0 < abs(x - edge) < BOUNDARY_TOL:
                raise BoundaryAmbiguityError(
                    f"x={x} within {BOUNDARY_TOL} of branch boundary {edge}")
        if x < lo_c:
            return "L", self._b * x
        if x <= hi_c:
            return "C", level
        return "R", self._fall - self._b * x


def as_params(p) -> TrapezoidParams:
    if isinstance(p, TrapezoidParams):
        return p
    return TrapezoidParams(as_beta(p))


def trapezoid_map(params, x: float) -> float:
    """One step of the trapezoidal map (clipped variant included)."""
    return as_params(params)._step(x)[1]


def itinerary(params, x: float, n: int) -> Itinerary:
    """First n branch symbols of the orbit of x, as a finite itinerary."""
    params = as_params(params)
    if n < 1:
        raise PreconditionViolated("need at least one symbol")
    syms = []
    for _ in range(n):
        sym, x = params._step(x)
        syms.append(sym)
    return Itinerary._trusted("".join(syms), "")


def encode_itinerary(s: PeriodicSeq) -> Itinerary:
    """Run-start image of a 0-1 sequence as a plateau-avoiding itinerary.

    Symbol i is R exactly when s_i != s_(i-1), with s_(-1) = 0; a block
    1^a 0^b thus maps to R L^(a-1) R L^(b-1).  For input with preperiod
    p and period q the image repeats with period q from position p + 1,
    and canonicalization may halve that.
    """
    p = len(s._pre)
    bits = s._head(p + len(s._per) + 1)
    syms = bytes(map(xor, b"\0" + bits, bits)).translate(_LR_OF_BITS).decode()
    return Itinerary._trusted(syms[:p + 1], syms[p + 1:])


def decode_itinerary(it: Itinerary) -> PeriodicSeq:
    """Inverse of encode_itinerary on plateau-free eventually periodic
    itineraries: s_i is the parity of the Rs at positions 0..i.  With
    preperiod p and period q the result repeats with period 2q from
    position p (period q when the period holds an even number of Rs).
    """
    pre, per = it._pre, it._per
    if not per:
        raise NotInImageError("finite itineraries do not determine a sequence")
    if "C" in pre or "C" in per:
        raise NotInImageError("plateau symbol C is outside the encoding's image")
    bits = _r_parity((pre + per * 2).encode().translate(_BITS_OF_LR))
    p = len(pre)
    return PeriodicSeq._trusted(bits[:p], bits[p:])


def unimodal_cmp(a: Itinerary, b: Itinerary) -> int:
    """Itinerary order for maps with one increasing and one decreasing
    branch: compare at the first difference with L < C < R, flipping the
    direction when the common prefix contains an odd number of Rs.

    Two periodic words are equal once they agree on their Fine-Wilf
    length max(p_a, p_b) + q_a + q_b; otherwise a finite word ends
    within max(p_a, p_b) + 1 symbols.  Both are compared on one prefix
    of that length."""
    n = max(len(a._pre), len(b._pre))
    n += len(a._per) + len(b._per) if a.is_periodic and b.is_periodic else 1
    wa, wb = a._head(n), b._head(n)
    i = next((i for i, (x, y) in enumerate(zip(wa, wb)) if x != y), None)
    if i is None:
        if len(wa) != len(wb):
            raise ValueError("one finite itinerary is a strict prefix of the other")
        return EQUAL
    base = LESS if _RANK[wa[i]] < _RANK[wb[i]] else GREATER
    return -base if wa[:i].count("R") % 2 else base


def find_lr_cycles(params, n: int) -> list[Itinerary]:
    """All primitive period-n cycles of the unclipped map avoiding the
    plateau, each as its largest rotation, in ascending order.

    A word w over {L, R} is such a cycle exactly when w = L (the fixed
    point 0) or decode_itinerary(w) is a unique expansion: decoding
    conjugates the map with the digit shift there.  Verdicts are exact,
    or raise as is_unique_expansion does at period 2n when the expansion
    of 1 is not known to be eventually periodic (at any float).

    The candidates are the primitive necklaces (R for 1), so n <=
    NECKLACE_LIMIT, checked before any digit of 1 is read.  The
    membership loop (expansions._unique_necklaces) tests their R-parity
    decodings, so the cycles and the first undecided error are those of
    a scan over all necklaces, at a cost that follows the cycles found.
    A clip is checked only on TrapezoidParams; a bare base builds no map
    and reads no float of the base.
    """
    if isinstance(params, TrapezoidParams):
        if params.clip is not None:
            raise PreconditionViolated("the cycle criterion holds for the unclipped map only")
        beta = params.beta
    else:
        beta = as_beta(params)  # no map geometry, so no float of the base
    n = _whole(n, "period")
    if n < 1:
        raise PreconditionViolated("cycle length must be positive")
    if n > NECKLACE_LIMIT:
        raise TooLargeError(
            f"necklace enumeration capped at n <= NECKLACE_LIMIT = {NECKLACE_LIMIT}")
    # a decoded word has period n or 2n, and its shifts by n or more mirror
    # those below n, which the two-sided criterion treats alike
    found = [Itinerary._trusted("", bits.translate(_LR_OF_BITS).decode())
             for bits in _unique_necklaces(_BoundPrefix(beta, 2 * n, None), n, True)]
    return found[::-1]


def extension_map(beta, x: float) -> float:
    """Continuous extension of the gap map: the gap is bridged by the
    straight line from (1/b, 1) down to (1/(b(b-1)), (2-b)/(b-1))."""
    return _gap_map(float(as_beta(beta)), x)


def extension_three_cycle(beta) -> float:
    """A genuine 3-periodic point of the continuous extension, as the
    float nearest the exact point at the float of the base.

    Above the period-4 threshold the cycle visits the left branch, the
    right branch and the bridge, whose slope is s = b(3-2b)/(2-b).  Along
    that word the third iterate is x -> s(b^2 x - 1 - 1/b) + 1, so the
    point solves one linear equation.  It is solved in Fraction at the
    dyadic value b of the float base, where extension_map evaluates, and
    certified there by exact evaluation of the map: three steps return
    to x and one does not, so its least period is 3.  The threshold is
    a precondition, checked exactly against b, not derived here.
    """
    b = Fraction(float(as_beta(beta)))
    if threshold_beta(4, 1e-12).root.cmp_rational(b) >= 0:
        raise PreconditionViolated("base must exceed the period-4 threshold")
    s = b * (3 - 2 * b) / (2 - b)
    x = (1 - s * (1 + 1 / b)) / (1 - s * b * b)
    y = _gap_map(b, x)
    if y == x or _gap_map(b, _gap_map(b, y)) != x:
        raise PreconditionViolated(
            f"no 3-cycle through L, R and the bridge at base {float(b)!r}")
    return float(x)
