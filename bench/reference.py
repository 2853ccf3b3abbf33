"""Reference answers for the benchmark's checks.

Everything here is computed outside the timed region and, except where a
docstring says otherwise, without the univoque code path being timed:
plain tuples, integers and Fractions implementing the definitions.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

# The published threshold table for n = 2..8: expansion of 1, minimal
# polynomial (constant term first), beta_n to five places, below the
# Komornik-Loreti constant.
PAPER_TABLE = {
    2: ("11", (-1, -1, 1), "1.61803", True),
    3: ("111", (-1, -1, -1, 1), "1.83929", False),
    4: ("1101", (-1, 1, -2, 1), "1.75488", True),
    5: ("11011", (-1, -1, 0, -1, -1, 1), "1.81240", False),
    6: ("110101", (-1, 0, -1, 0, -1, -1, 1), "1.78854", False),
    7: ("1101011", (-1, 0, 0, -1, 1, -2, 1), "1.80509", False),
    8: ("11010011", (-1, 0, 1, 0, -2, 1), "1.78460", True),
}

def sharkovskii_key(k: int) -> tuple:
    """Sort key of the Sharkovskii order 3, 5, 7, ..., 2*3, 2*5, ...,
    ..., 8, 4, 2, 1."""
    a = 0
    while k % 2 == 0:
        k //= 2
        a += 1
    return (0, a, k) if k > 1 else (1, -a)


def expected_compare(k: int, m: int) -> int:
    """Sign of beta_k - beta_m: thresholds decrease along the Sharkovskii
    order."""
    return -1 if sharkovskii_key(m) < sharkovskii_key(k) else 1


def chain_order(n_max: int) -> list:
    """Periods 2..n_max sorted by increasing threshold."""
    return sorted(range(2, n_max + 1), key=sharkovskii_key, reverse=True)


def thue_morse_bit(i: int) -> int:
    return bin(i).count("1") & 1


def min_extremal_word(k: int) -> tuple:
    """Period word of the least extremal sequence of period k, from its
    Thue-Morse description (k = 2^n * odd)."""
    n, odd = 0, k
    while odd % 2 == 0:
        odd //= 2
        n += 1
    if k == 1:
        return (1,)
    tm = [thue_morse_bit(i) for i in range(3 * (1 << n) + 2)]
    if odd == 1:
        size = 1 << n
        return tuple(tm[1:size]) + (1 - tm[size],)
    head = tuple(tm[1:3 * (1 << n) + 1])
    rep_size = 1 << (n + 1)
    rep = tuple(tm[1:rep_size]) + (1 - tm[rep_size],)
    return head + rep * ((odd - 3) // 2)


def threshold_coeffs(k: int) -> tuple:
    """x^k minus the extremal word's weighted powers minus 1, constant first."""
    alpha = min_extremal_word(k)
    coeffs = [0] * (k + 1)
    coeffs[k], coeffs[0] = 1, -1
    for i in range(1, k):
        coeffs[k - i] = -alpha[i - 1]
    return tuple(coeffs)


def threshold_bracket(k: int, bits: int) -> tuple:
    """Rational bracket of beta_k narrower than 2^-bits.  The threshold
    polynomial has a single positive root and is negative below it."""
    lo, hi = Fraction(1), Fraction(2)
    coeffs = threshold_coeffs(k)
    while hi - lo > Fraction(1, 2 ** bits):
        mid = (lo + hi) / 2
        if horner_sign(coeffs, mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _kl_series_sign(x: Fraction, terms: int = 160) -> int:
    """Sign of sum_{k>=1} t_k x^-k - 1 (t the Thue-Morse sequence), which
    decreases in x and vanishes at the Komornik-Loreti constant.  The
    truncation error is below x^-terms / (x - 1); 0 means undecided."""
    acc = Fraction(0)
    for k in range(terms, 0, -1):
        acc = (acc + thue_morse_bit(k)) / x
    tail = x ** -terms / (x - 1)
    if acc - 1 > 0:
        return 1
    if acc - 1 + tail < 0:
        return -1
    return 0


def below_komornik_loreti(k: int) -> bool:
    lo, hi = threshold_bracket(k, 80)
    if _kl_series_sign(hi) > 0:
        return True
    if _kl_series_sign(lo) < 0:
        return False
    raise ValueError(f"beta_{k} not separated from the Komornik-Loreti constant")


def necklace_count(n: int) -> int:
    """Number of primitive binary necklaces of length n (Moebius formula)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _moebius(d) * 2 ** (n // d)
    return total // n


def _moebius(d: int) -> int:
    out, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        p += 1
    return -out if d > 1 else out


def horner_sign(coeffs, x: Fraction) -> int:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def poly_divides(d, p) -> bool:
    """Whether the integer polynomial d divides p over the rationals
    (coefficient tuples, constant term first)."""
    rem = [Fraction(c) for c in p]
    while len(rem) >= len(d) and any(rem):
        f = rem[-1] / d[-1]
        shift = len(rem) - len(d)
        for i, c in enumerate(d):
            rem[shift + i] -= f * c
        rem.pop()
    return not any(rem)


def prefix(pre: tuple, per: tuple, n: int) -> tuple:
    out = list(pre[:n])
    while len(out) < n:
        out.extend(per)
    return tuple(out[:n])


def lex_sign(a, b) -> int:
    """Lexicographic sign of two eventually periodic sequences, each
    given as (preperiod, period) tuples."""
    n = len(a[0]) + len(b[0]) + len(a[1]) * len(b[1]) // gcd(len(a[1]), len(b[1]))
    x, y = prefix(*a, n), prefix(*b, n)
    return (x > y) - (x < y)


def shifts(pre: tuple, per: tuple):
    for j in range(len(pre)):
        yield pre[j:], per
    for j in range(len(per)):
        yield (), per[j:] + per[:j]


def is_extremal(pre: tuple, per: tuple) -> bool:
    mir = (tuple(1 - b for b in pre), tuple(1 - b for b in per))
    return all(lex_sign(mir, t) <= 0 and lex_sign(t, (pre, per)) <= 0
               for t in shifts(pre, per))


def unique_at_threshold(k: int, per: tuple) -> bool:
    """Uniqueness of the purely periodic sequence (per)^w at beta_k: every
    shift lies strictly between the mirrored quasi-greedy expansion of 1
    and that expansion, which at beta_k is the least extremal word of
    period k repeated."""
    alpha = min_extremal_word(k)
    if alpha[-1] != 0:
        raise ValueError(f"extremal word of period {k} does not end in 0")
    bound = ((), alpha)
    mir = ((), tuple(1 - b for b in alpha))
    return all(lex_sign(mir, t) < 0 and lex_sign(t, bound) < 0
               for t in shifts((), per))


def primitive_root(per: tuple) -> tuple:
    q = len(per)
    for d in range(1, q + 1):
        if q % d == 0 and per[:d] * (q // d) == per:
            return per[:d]


@lru_cache(maxsize=None)
def _expansion_of_one(b: Fraction, budget: int) -> tuple:
    """Greedy digits of 1 in base b, at most budget of them, and whether
    the expansion ends there."""
    p, q = b.numerator, b.denominator
    num, den, digits = 1, 1, []
    while len(digits) < budget and (not digits or num):
        num, den = num * p, den * q
        digits.append(1 if num >= den else 0)
        num -= digits[-1] * den
    return tuple(digits), not num


def unique_in_base(b: Fraction, per: tuple, budget: int = 256) -> bool:
    """is_unique_expansion for the purely periodic (per)^w in the exact
    rational base b, from the definition: when the greedy expansion of 1
    ends within budget digits, every shift lies strictly between the
    mirrored quasi-greedy expansion and that expansion; otherwise every
    shift differs from the greedy digits, and from their mirror, within
    4 q + 64 digits on the correct side."""
    per = primitive_root(per)
    digits, ends = _expansion_of_one(b, budget)
    if ends:
        bound = ((), tuple(digits[:-1]) + (0,))
        mir = ((), tuple(1 - d for d in bound[1]))
        return all(lex_sign(mir, t) < 0 and lex_sign(t, bound) < 0
                   for t in shifts((), per))
    n = 4 * len(per) + 64
    d = tuple(digits[:n])
    mir = tuple(1 - v for v in d)
    for t in shifts((), per):
        t = prefix(*t, n)
        if t == d or t == mir:
            raise ValueError("undecided within the digit budget")
        if not mir < t < d:
            return False
    return True


def greedy_digits(b: Fraction, x: Fraction, n: int) -> tuple:
    """First n greedy digits of x in the rational base b, in integers:
    x = num / den throughout, without reducing the fraction."""
    p, q = b.numerator, b.denominator
    num, den = x.numerator, x.denominator
    out = []
    for _ in range(n):
        num, den = num * p, den * q
        d = 1 if num >= den else 0
        num -= d * den
        out.append(d)
    return tuple(out)


def lr_cycles(b: Fraction, n: int, tol: Fraction) -> list:
    """Plateau-avoiding primitive n-cycles of the trapezoidal map in the
    exact rational base b, as max-rotation words over L < R.  An orbit
    point must stay tol clear of the plateau edges."""
    c = b / (b - 1)
    l_hi, r_lo, r_hi = 1 / b, 1 / (b * (b - 1)), 1 / (b - 1)
    found = []
    for mask in range(1 << n):
        word = tuple("R" if (mask >> i) & 1 else "L" for i in range(n))
        rots = [word[i:] + word[:i] for i in range(n)]
        if word != max(rots) or rots.count(word) > 1:
            continue
        amul, badd = Fraction(1), Fraction(0)
        for sym in word:
            amul, badd = (b * amul, b * badd) if sym == "L" else (-b * amul, c - b * badd)
        x = badd / (1 - amul)
        ok = True
        for sym in word:
            if sym == "L":
                ok = 0 <= x < l_hi - tol
                x = b * x
            else:
                ok = r_lo + tol < x <= r_hi
                x = c - b * x
            if not ok:
                break
        if ok:
            found.append(word)
    return sorted(found)
