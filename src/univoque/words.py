"""Binary words and eventually periodic 0-1 sequences.

This is the combinatorial core of the package: exact lexicographic
comparison of eventually periodic sequences, shifting, mirroring, the
Thue-Morse sequence and its generating morphism, the doubling map that
interleaves complement pairs, membership in the two-sided extremal set
(sequences dominating every shift while their mirror is dominated by
every shift), detection of half-mirror squares u = v mirror(v), and
enumeration of primitive necklaces (rotation classes of aperiodic words)
by Duval's algorithm over the reversed alphabet, which yields each
class's largest rotation directly.

Sequences are stored in canonical form: the period word is primitive and
the preperiod is as short as possible.  Equality, hashing and printing
all operate on that canonical form, so the primitive period of a purely
periodic sequence is simply ``len(s.period)``.  That form, with parsing,
symbol access, prefixes and the text form, lives in one private base
class shared with the {L, C, R} itineraries of ``trapezoid``; words of
different types are never equal.  The symbols are held as bytes of the
values 0 and 1 (one str over L, C, R in an itinerary), so a mirror or a
text is one translate and a window compare one bytes compare; the public
``BinaryWord.bits`` converts them to a tuple of ints.

Symbols are checked once, where caller data enters: in the public
constructors of ``BinaryWord``, ``PeriodicSeq`` and ``Itinerary``, and by
the pattern of ``parse``.  Words built from symbols the package already
holds take the ``_trusted`` constructors, which still canonicalise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator, Optional, Union

from .errors import PreconditionViolated, TooLargeError

LESS, EQUAL, GREATER = -1, 0, 1
NECKLACE_LIMIT = 24

_BitsLike = Union["BinaryWord", str, Iterable[int]]
_BITS_OF_DIGITS = bytes.maketrans(b"01", b"\0\1")
_DIGITS_OF_BITS = bytes.maketrans(b"\0\1", b"01")
_MIRROR = bytes.maketrans(b"\0\1", b"\1\0")


def _coerce_bits(bits: _BitsLike) -> bytes:
    if isinstance(bits, BinaryWord):
        return bits._bits
    if isinstance(bits, str):
        if bits.count("0") + bits.count("1") != len(bits):
            raise ValueError(f"not a binary word: {bits!r}")
        return PeriodicSeq._SYMBOLS_OF(bits)
    out = tuple(map(int, bits))
    if out.count(0) + out.count(1) != len(out):
        raise ValueError(f"symbols must be 0 or 1, got {out}")
    return bytes(out)


class BinaryWord:
    """Immutable finite word over {0, 1}."""

    __slots__ = ("_bits",)

    def __init__(self, bits: _BitsLike = ()):
        self._bits = _coerce_bits(bits)

    @classmethod
    def _trusted(cls, bits: bytes) -> "BinaryWord":
        """A word on bytes already known to be 0s and 1s."""
        word = object.__new__(cls)
        word._bits = bits
        return word

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self._bits)

    def mirror(self) -> "BinaryWord":
        return BinaryWord._trusted(self._bits.translate(_MIRROR))

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BinaryWord._trusted(self._bits[i])
        return self._bits[i]

    def __add__(self, other: _BitsLike) -> "BinaryWord":
        return BinaryWord._trusted(self._bits + _coerce_bits(other))

    def __mul__(self, n: int) -> "BinaryWord":
        return BinaryWord._trusted(self._bits * n)

    def __eq__(self, other) -> bool:
        if isinstance(other, (BinaryWord, str)):
            return self._bits == _coerce_bits(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("BinaryWord", self._bits))

    def __str__(self) -> str:
        return PeriodicSeq._TEXT_OF(self._bits)

    def __repr__(self) -> str:
        return f"BinaryWord({str(self)!r})"


def _primitive_root(word):
    """Shortest u with word = u^m: its length is the least p > 0 at which
    word occurs in word + word (a bytes or str search)."""
    return word[:(word + word).find(word, 1)] if word else word


def _canonical(pre, per):
    """Minimal preperiod, primitive period.  This form is unique: the
    k trailing symbols of pre that match the period read backwards move
    into it, which rotates the period right by k."""
    per = _primitive_root(per)
    q, k, i = len(per), 0, len(pre) - 1
    while k <= i and pre[i - k] == per[-1 - k % q]:
        k += 1
    if not k:
        return pre, per
    r = k % q
    return pre[:i + 1 - k], per[q - r:] + per[:q - r]


class _EventuallyPeriodic:
    """Shared core of the eventually periodic word types: the canonical
    (preperiod, period) pair of symbol strings, bytes or str.  An empty
    period marks a finite word.  Subclasses check their symbols before
    calling this constructor and name their text pattern, the converters
    between its matched text and their symbols, and their noun."""

    __slots__ = ("_pre", "_per")
    _PATTERN: re.Pattern
    _SYMBOLS_OF: staticmethod
    _TEXT_OF: staticmethod
    _NOUN: str

    def __init__(self, pre, per):
        if per:
            pre, per = _canonical(pre, per)
        self._pre = pre
        self._per = per

    @classmethod
    def _trusted(cls, pre, per):
        """A word on symbol strings already known to be valid, put in
        canonical form."""
        word = object.__new__(cls)
        _EventuallyPeriodic.__init__(word, pre, per)
        return word

    @classmethod
    def parse(cls, text: str):
        m = cls._PATTERN.fullmatch(text.strip())
        if not m:
            raise ValueError(f"cannot parse {cls._NOUN}: {text!r}")
        pre, per = m.groups("")
        return cls._trusted(cls._SYMBOLS_OF(pre), cls._SYMBOLS_OF(per))

    @property
    def is_purely_periodic(self) -> bool:
        return bool(self._per) and not self._pre

    def at(self, i: int):
        """Symbol at 0-based position i, or None past the end of a finite word."""
        p = len(self._pre)
        if i < p:
            return self._pre[i]
        if not self._per:
            return None
        return self._per[(i - p) % len(self._per)]

    def _head(self, n: int):
        """The first n symbols (fewer if the word is finite), as stored."""
        p, per = self._pre, self._per
        if n <= len(p) or not per:
            return p[:n]
        reps, tail = divmod(n - len(p), len(per))
        return p + per * reps + per[:tail]

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self._pre == other._pre and self._per == other._per
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._pre, self._per))

    def __str__(self) -> str:
        pre = self._TEXT_OF(self._pre)
        if not self._per:
            return pre
        return f"{pre}({self._TEXT_OF(self._per)})^w"

    def __repr__(self) -> str:
        return f"{type(self).__name__}.parse({str(self)!r})"


class PeriodicSeq(_EventuallyPeriodic):
    """Eventually periodic infinite sequence over {0, 1}, kept canonical.

    ``PeriodicSeq(pre, per)`` represents pre followed by per repeated
    forever.  Text form is ``PRE(PER)^w``, e.g. ``11(0)^w`` or
    ``(1100)^w``.
    """

    __slots__ = ()
    _PATTERN = re.compile(r"([01]*)\(([01]+)\)\^w")
    _SYMBOLS_OF = staticmethod(lambda digits: digits.encode().translate(_BITS_OF_DIGITS))
    _TEXT_OF = staticmethod(lambda bits: bits.translate(_DIGITS_OF_BITS).decode())
    _NOUN = "periodic sequence"

    def __init__(self, preperiod: _BitsLike = (), period: _BitsLike = (1,)):
        pre = _coerce_bits(preperiod)
        per = _coerce_bits(period)
        if not per:
            raise ValueError("period must be nonempty")
        super().__init__(pre, per)

    @property
    def preperiod(self) -> BinaryWord:
        return BinaryWord._trusted(self._pre)

    @property
    def period(self) -> BinaryWord:
        return BinaryWord._trusted(self._per)

    def prefix(self, n: int) -> BinaryWord:
        return BinaryWord._trusted(self._head(n))


def lex_cmp(a, b) -> int:
    """Exact lexicographic comparison; returns LESS, EQUAL or GREATER.

    Eventually periodic sequences are compared on their first
    max(|pre_a|, |pre_b|) + |per_a| + |per_b| symbols, the Fine-Wilf
    length: past both preperiods, tails that agree on |per_a| + |per_b|
    symbols are equal (Fine and Wilf, 1965), so this is exact.  Finite
    words are compared positionwise and must have equal length.
    """
    if isinstance(a, PeriodicSeq) and isinstance(b, PeriodicSeq):
        n = max(len(a._pre), len(b._pre)) + len(a._per) + len(b._per)
        wa, wb = a._head(n), b._head(n)
    else:
        wa, wb = _coerce_bits(a), _coerce_bits(b)
        if len(wa) != len(wb):
            raise ValueError("finite words must have equal length to compare")
    if wa == wb:
        return EQUAL
    return LESS if wa < wb else GREATER


def shift(s: PeriodicSeq, j: int) -> PeriodicSeq:
    """Drop the first j symbols."""
    if j < 0:
        raise ValueError("shift distance must be nonnegative")
    p, q = len(s._pre), len(s._per)
    if j <= p:
        return PeriodicSeq._trusted(s._pre[j:], s._per)
    d = (j - p) % q
    return PeriodicSeq._trusted(b"", s._per[d:] + s._per[:d])


def mirror(s):
    """Complement every symbol."""
    if isinstance(s, PeriodicSeq):
        return PeriodicSeq._trusted(s._pre.translate(_MIRROR), s._per.translate(_MIRROR))
    return BinaryWord(s).mirror()


def thue_morse(n: int) -> BinaryWord:
    """First n symbols of the Thue-Morse sequence (index 0 onward).

    The k-th symbol is the parity of the binary digit sum of k, so the
    sequence begins 0110 1001 1001 0110 ...
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    tm = b"\0"
    while len(tm) < n:  # the first 2^(k+1) symbols: the first 2^k, then their mirror
        tm += tm.translate(_MIRROR)
    return BinaryWord._trusted(tm[:n])


def _pairs(bits: bytes) -> bytes:
    """Each symbol followed by its complement: b_1 (1-b_1) b_2 (1-b_2) ..."""
    out = bytearray(2 * len(bits))
    out[::2] = bits
    out[1::2] = bits.translate(_MIRROR)
    return bytes(out)


def tm_morphism(w: _BitsLike) -> BinaryWord:
    """Apply the substitution 0 -> 01, 1 -> 10 to a finite word."""
    return BinaryWord._trusted(_pairs(_coerce_bits(w)))


def doubling_prefix(bits: _BitsLike, n: int) -> BinaryWord:
    """First n symbols of the doubling map's image, from a plain prefix.

    The image starts with 1 and continues with the pair (b, 1-b) for each
    input symbol b, so n output symbols consume ceil((n-1)/2) input ones.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    src = _coerce_bits(bits)
    need = n // 2
    if len(src) < need:
        raise ValueError(f"need {need} input symbols for {n} output symbols")
    return BinaryWord._trusted((b"\1" + _pairs(src[:need]))[:n])


def doubling_map(s: PeriodicSeq) -> PeriodicSeq:
    """Interleaving doubling map: 1, then (s_1, 1-s_1), (s_2, 1-s_2), ...

    Computed symbolwise from the definition and recanonicalized.  On a
    purely periodic input with primitive period T ending in 0 the image
    is purely periodic with primitive period 2T; in general the image of
    a (p, q) sequence repeats with period 2q from position 2p + 1 onward.
    """
    p, q = len(s._pre), len(s._per)
    out = b"\1" + _pairs(s._head(p + 2 * q))
    cut = 2 * p + 1
    return PeriodicSeq._trusted(out[:cut], out[cut:cut + 2 * q])


def is_extremal(s: PeriodicSeq) -> bool:
    """Whether mirror(s) <= shift^k(s) <= s holds for every k >= 0.

    With preperiod p and period q, shifts repeat from k = p on, so
    k < n = p + q is exhaustive.  All these sequences have period q from
    position p on, so n symbols, the Fine-Wilf length p + 2q - gcd(q, q),
    decide each comparison: the check compares windows of one prefix.
    """
    n = len(s._pre) + len(s._per)
    head = s._head(2 * n)
    top = head[:n]
    low = top.translate(_MIRROR)
    return all(low <= head[k:k + n] <= top for k in range(n))


def split_halfmirror(u: _BitsLike) -> Optional[BinaryWord]:
    """Return v if u = v · mirror(v), else None."""
    bits = _coerce_bits(u)
    n = len(bits)
    if n == 0 or n % 2:
        return None
    half = bits[:n // 2]
    if bits[n // 2:] == half.translate(_MIRROR):
        return BinaryWord._trusted(half)
    return None


@dataclass(frozen=True, slots=True)
class Necklace:
    """A rotation class of primitive binary words, anchored at the
    lexicographically largest rotation."""

    representative: BinaryWord
    period: int


def _period(n) -> int:
    """A period as an int: a whole number, read with operator.index, so
    True reads as 1 and a float is refused."""
    try:
        return index(n)
    except TypeError:
        raise PreconditionViolated(f"period must be a whole number, got {n!r}") from None


def primitive_necklaces(n: int) -> list[Necklace]:
    """The largest rotation of each primitive period-n word class, in
    ascending order: the words of _necklace_words read backwards, each
    built the trusted way (object.__new__ and the slot descriptors, as
    BinaryWord._trusted), without the dataclass __init__ per necklace."""
    n = _period(n)
    words = _necklace_words(n)
    new = object.__new__
    # the slot descriptors' setters: the frozen __setattr__ refuses a store
    set_rep, set_period = Necklace.representative.__set__, Necklace.period.__set__
    out = []
    append = out.append
    for w in reversed(words):
        rep = new(BinaryWord)
        rep._bits = w
        neck = new(Necklace)
        set_rep(neck, rep)
        set_period(neck, n)
        append(neck)
    return out


def _necklace_words(n: int) -> list[bytes]:
    """The symbols of the words of primitive_necklaces(n), largest first.

    Duval's algorithm over the reversed alphabet (1 before 0) yields
    exactly these words, in whole-word steps from the word 1: a word of
    length n is one of them, and a shorter one is first extended
    periodically to length n (one repeat and slice); then the word is
    cut at its last 1 (rfind), which turns into a 0, and the walk ends
    when no 1 is left.  The limits are checked first.
    """
    if n < 1:
        raise PreconditionViolated("period must be positive")
    if n > NECKLACE_LIMIT:
        raise TooLargeError(
            f"necklace enumeration capped at n <= NECKLACE_LIMIT = {NECKLACE_LIMIT}")
    out = []
    w = b"\1"
    while w:
        m = len(w)
        if m == n:
            out.append(w)
        else:
            w = (w * (n // m + 1))[:n]
        i = w.rfind(1)
        w = w[:i] + b"\0" if i >= 0 else b""
    return out
