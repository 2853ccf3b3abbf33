"""Independent brute-force verification layer.

Everything here deliberately avoids the closed-form constructions it is
meant to check: periods are searched by a depth-first walk over
primitive necklaces that cuts every prefix no unique word extends,
thresholds are recovered by bisecting a membership predicate over the
base, and the ordering of thresholds is verified pairwise on certified
intervals, with no base perturbed and no fallback to a construction.
Agreement between this module and the direct constructions is the
package's main correctness evidence.

The walk is the one necklace search of the package
(expansions._pruned_necklaces, which find_lr_cycles runs on decoded
words), with one cut rule: a prefix goes once the oldest shift not
strictly inside the bound lies strictly outside it.  Request paths
build no reference cycles, so reference counting frees what a call
builds when it returns and leaves the cycle collector nothing to find:
garbage in cycles would set the collector off, and a replayed sequence
of operations would pay for it inside the same requests every time.
"""

from __future__ import annotations

import random
import warnings
from functools import cmp_to_key
from typing import Optional

from .errors import (
    PreconditionViolated,
    TooLargeError,
    UndecidableDigitError,
    UndecidedError,
)
from .expansions import (
    FloatBeta,
    _BoundPrefix,
    _pruned_necklaces,
    as_beta,
    is_parry_admissible,
    solve_base,
)
from .thresholds import min_extremal_recursive, sharkovskii_cmp, threshold_beta
from .trapezoid import decode_itinerary, encode_itinerary, unimodal_cmp
from .words import (  # noqa: F401  (Necklace, primitive_necklaces re-exported)
    EQUAL,
    GREATER,
    LESS,
    Necklace,
    PeriodicSeq,
    _MIRROR,
    lex_cmp,
    primitive_necklaces,
    shift,
)

# Largest period the membership search and the bisection oracle accept.
PERIOD_LIMIT = 32
# Largest n_max whose threshold pairs verify_ordering compares as roots.
ORDER_LIMIT = 30


def extremal_rotation(s: PeriodicSeq) -> PeriodicSeq:
    """Largest sequence among all shifts of s and of its mirror.  They all
    have the period length q of s, so it is the largest length-q window
    of the period word, or of its mirror, doubled."""
    if not s.is_purely_periodic:
        raise PreconditionViolated("defined for purely periodic sequences")
    per, q = s._per, len(s._per)
    best = max(w[j:j + q] for w in (per * 2, per.translate(_MIRROR) * 2) for j in range(q))
    return PeriodicSeq._trusted(b"", best)


def exists_period_n_unique(beta, n: int,
                           digit_budget: Optional[int] = None) -> bool:
    """Whether some purely periodic sequence of primitive period n is a
    unique expansion in the given base, by a pruned search over
    necklaces that stops at the first unique one.

    The search grows the largest rotation of each primitive period-n
    word and cuts a prefix once its oldest shift not strictly inside the
    bound lies strictly outside; a shift above `top` needs no rule of
    its own, as shift 0 of a largest rotation then lies above it too.
    Every word left runs the test of is_unique_expansion(beta, (w)^w,
    digit_budget) against one bound prefix shared by the search, and
    every word cut would have returned False without raising, so
    verdicts and undecided errors are those of a scan over all
    necklaces.  A word left undecided does not stop the search; only
    when no word passes is the error raised, made from the bound's
    `undecided`, the one error `admits` raises.
    """
    beta = as_beta(beta)
    if n < 1:
        raise PreconditionViolated("period must be positive")
    if n > PERIOD_LIMIT:
        raise TooLargeError(
            f"membership search capped at n <= PERIOD_LIMIT = {PERIOD_LIMIT}")
    bound = _BoundPrefix(beta, n, digit_budget)
    undecided = False
    for word in _pruned_necklaces(bound, n, False):
        try:
            if bound.admits(word, n):
                return True
        except (UndecidedError, UndecidableDigitError):
            undecided = True
    if undecided:  # the one error admits raises, kept on the bound
        error, args = bound.undecided
        raise error(*args)
    return False


def min_beta_for_period(n: int, eps: float = 1e-6) -> FloatBeta:
    """Infimum of bases admitting a unique expansion of primitive period
    n, recovered by bisection over the base without using the extremal
    sequence construction.

    Each point runs exists_period_n_unique, whose pruned search keeps
    n up to PERIOD_LIMIT affordable; its candidates share one float
    base per point, which is never perturbed: an undecided point raises
    UndecidedError.  eps >= 2^-50 keeps every midpoint strictly inside
    its bracket.  The predicate is monotone because the bases admitting
    period n form an upward-closed interval; a spot check still samples
    it at 8 points and warns on any anomaly rather than trusting
    silently.
    """
    if n < 2:
        raise PreconditionViolated("periods start at 2")
    if n > PERIOD_LIMIT:
        raise TooLargeError(
            f"bisection oracle capped at n <= PERIOD_LIMIT = {PERIOD_LIMIT}")
    if not eps >= 2.0 ** -50:
        raise PreconditionViolated(f"eps must be at least 2^-50, got {eps}")
    budget = 4 * n + 96

    def predicate(bv: float) -> bool:
        try:
            return exists_period_n_unique(FloatBeta(bv), n, budget)
        except UndecidableDigitError as exc:
            raise UndecidedError(
                f"membership at base {bv!r} undecided: {exc}", budget) from exc

    samples = []
    for i in range(8):
        try:
            samples.append(predicate(1.05 + 0.9 * i / 7))
        except UndecidedError:
            samples.append(None)
    decided = [val for val in samples if val is not None]
    if decided != sorted(decided):
        warnings.warn(f"membership predicate for period {n} is not "
                      f"monotone on the sample grid: {samples}")

    lo, hi = 1.0 + 1e-9, 2.0 - 1e-9
    if not predicate(hi):
        raise RuntimeError(f"period {n} not admitted just below 2")
    while hi - lo >= eps:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return FloatBeta(0.5 * (lo + hi), tolerance=0.5 * (hi - lo))


def verify_ordering(n_max: int) -> dict:
    """Check that certified pairwise order of the thresholds matches the
    Sharkovskii order on periods, for all pairs 2 <= k, m <= n_max.

    Returns a report with any violations (expected none) and the full
    chain sorted by threshold value.
    """
    if n_max < 2:
        raise PreconditionViolated("need n_max >= 2")
    if n_max > ORDER_LIMIT:
        raise TooLargeError(
            f"all-pairs verification capped at n_max <= ORDER_LIMIT = {ORDER_LIMIT}")
    ks = list(range(2, n_max + 1))
    betas = {k: threshold_beta(k, 1e-9) for k in ks}
    violations = []
    for i, k in enumerate(ks):
        for m in ks[i + 1:]:
            numeric = betas[k].root.compare(betas[m].root)
            expected = LESS if sharkovskii_cmp(m, k) == LESS else GREATER
            if numeric != expected:
                violations.append({"k": k, "m": m, "numeric": numeric,
                                   "expected": expected})
    order = sorted(ks, key=cmp_to_key(lambda a, b: betas[a].root.compare(betas[b].root)))
    chain = []
    for pos, k in enumerate(order):
        lo, hi = betas[k].interval
        chain.append({
            "n": k,
            "beta_lo": float(lo),
            "beta_hi": float(hi),
            "witness_sequence": str(min_extremal_recursive(k)),
            "chain_position": pos,
        })
    return {"n_max": n_max, "violations": violations, "chain": chain}


def _random_periodic(rng: random.Random, max_period: int) -> PeriodicSeq:
    q = rng.randint(1, max_period)
    bits = bytes(rng.randint(0, 1) for _ in range(q))
    return PeriodicSeq._trusted(b"", bits)


def lemma_report(seed: int = 0, cases: int = 200) -> dict:
    """Seeded random spot checks of the constructive lemmas; the full
    strength versions live in the test suite."""
    if cases < 1:
        raise PreconditionViolated(f"cases must be >= 1, got {cases}")
    rng = random.Random(seed)
    checks: dict[str, dict] = {}

    def record(name: str, ran: int, failed: int):
        checks[name] = {"cases": ran, "failures": failed}

    # total order on random triples
    fails = 0
    for _ in range(cases):
        a, b, c = (_random_periodic(rng, 8) for _ in range(3))
        ab, ba = lex_cmp(a, b), lex_cmp(b, a)
        if ab != -ba:
            fails += 1
        if lex_cmp(a, b) != GREATER and lex_cmp(b, c) != GREATER:
            if lex_cmp(a, c) == GREATER:
                fails += 1
    record("lex-total-order", cases, fails)

    # doubling map strict monotonicity
    fails = 0
    from .words import doubling_map
    for _ in range(cases):
        a, b = _random_periodic(rng, 8), _random_periodic(rng, 8)
        if lex_cmp(a, b) == EQUAL:
            continue
        if lex_cmp(a, b) == GREATER:
            a, b = b, a
        if lex_cmp(doubling_map(a), doubling_map(b)) != LESS:
            fails += 1
        if lex_cmp(shift(doubling_map(a), 1), shift(doubling_map(b), 1)) != LESS:
            fails += 1
    record("doubling-monotone", cases, fails)

    # encode/decode round trip and order isomorphism
    fails = 0
    for _ in range(cases):
        s = _random_periodic(rng, 10)
        if decode_itinerary(encode_itinerary(s)) != s:
            fails += 1
        t = _random_periodic(rng, 10)
        if lex_cmp(s, t) != unimodal_cmp(encode_itinerary(s), encode_itinerary(t)):
            fails += 1
    record("encode-order-isomorphism", cases, fails)

    # base monotonicity on admissible words
    fails = 0
    ran = 0
    for _ in range(cases):
        bits = bytes(rng.randint(0, 1) for _ in range(rng.randint(2, 10)))
        w = PeriodicSeq._trusted(bits + b"\1", b"\0")
        if not is_parry_admissible(w) or w._pre.count(1) < 2:
            continue
        bits2 = bytes(rng.randint(0, 1) for _ in range(rng.randint(2, 10)))
        w2 = PeriodicSeq._trusted(bits2 + b"\1", b"\0")
        if not is_parry_admissible(w2) or w2._pre.count(1) < 2:
            continue
        if w == w2:
            continue
        ran += 1
        b1, b2 = solve_base(w), solve_base(w2)
        numeric = b1.root.compare(b2.root)
        lexical = lex_cmp(w, w2)
        if numeric != lexical:
            fails += 1
    record("greedy-monotonicity", ran, fails)

    ok = all(v["failures"] == 0 for v in checks.values())
    return {"seed": seed, "ok": ok, "checks": checks}
