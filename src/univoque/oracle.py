"""Independent brute-force verification layer.

Everything here deliberately avoids the closed-form constructions it is
meant to check: periods are searched by a depth-first walk over
primitive necklaces that cuts every prefix no unique word extends,
thresholds are recovered by bisecting a membership predicate over the
base, and the ordering of thresholds is verified pairwise on certified
intervals, with no base perturbed and no fallback to a construction.
Agreement between this module and the direct constructions is the
package's main correctness evidence.

The four lemmas behind the order proofs (lex order, the monotone
doubling map, the run-start encoding as an order isomorphism, greedy
expansions of 1 growing with the base) are checked on every word of a
stated finite range, never on samples: lemma_report lists each range
once in lex order and checks each neighbour pair.

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

import warnings
from functools import cmp_to_key
from itertools import pairwise, product
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
    GREATER,
    LESS,
    Necklace,
    PeriodicSeq,
    _MIRROR,
    _period,
    doubling_map,
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
    n = _period(n)
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
    n = _period(n)
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


def _lex_chain(n: int, finite: bool = False) -> list[PeriodicSeq]:
    """Every sequence (w)^w, or w(0)^w when finite, over the 0-1 words w
    of length 1..n, each once, in lex order.  Two of them that agree on
    their first 2n symbols are equal (Fine-Wilf), so sorting those
    prefixes as bytes sorts the sequences."""
    seqs = {PeriodicSeq._trusted(w, b"\0") if finite else PeriodicSeq._trusted(b"", w)
            for k in range(1, n + 1) for w in map(bytes, product(b"\0\1", repeat=k))}
    return sorted(seqs, key=lambda s: s._head(2 * n))


def lemma_report() -> dict:
    """Exhaustive checks of the lemmas behind the order proofs, each over
    the finite set of words its range names.  A chain lists its set in
    lex order and the order it is checked against is total, so a strict
    increase between neighbours covers every pair; `ok` means that no
    case failed."""
    checks: dict[str, dict] = {}

    def record(name: str, covered: str, cases: int, failed: int):
        checks[name] = {"range": covered, "cases": cases, "failures": failed}

    chain = _lex_chain(7)
    failed = sum(lex_cmp(a, b) != (i > j) - (i < j)
                 for i, a in enumerate(chain) for j, b in enumerate(chain))
    record("lex-total-order", f"every ordered pair of the {len(chain)} purely "
           "periodic words of period <= 7", len(chain) ** 2, failed)

    chain = _lex_chain(8)
    images = [doubling_map(s) for s in chain]
    failed = sum(lex_cmp(a, b) != LESS or lex_cmp(shift(a, 1), shift(b, 1)) != LESS
                 for a, b in pairwise(images))
    record("doubling-monotone", f"every neighbour pair in lex order of the "
           f"{len(chain)} purely periodic words of period <= 8", len(chain) - 1, failed)

    chain = _lex_chain(10)
    codes = [encode_itinerary(s) for s in chain]
    failed = sum(decode_itinerary(c) != s for s, c in zip(chain, codes))
    failed += sum(unimodal_cmp(a, b) != LESS for a, b in pairwise(codes))
    record("encode-order-isomorphism", f"each of the {len(chain)} purely periodic "
           "words of period <= 10 and each neighbour pair in lex order",
           2 * len(chain) - 1, failed)

    chain = [s for s in _lex_chain(10, finite=True)
             if s._pre.count(1) >= 2 and is_parry_admissible(s)]
    roots = [solve_base(s).root for s in chain]
    failed = sum(a.compare(b) != LESS for a, b in pairwise(roots))
    record("greedy-monotonicity", f"every neighbour pair in lex order of the "
           f"{len(chain)} Parry words w(0)^w, w of length <= 10 with two or more 1s",
           len(chain) - 1, failed)

    return {"ok": all(v["failures"] == 0 for v in checks.values()), "checks": checks}
