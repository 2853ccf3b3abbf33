"""The benchmark's three workloads.

Each builder turns a seed into plain inputs (integers, floats and
sequence text), builds what a caller would hold before its first
request, and returns the operations of one repetition.  An operation
pairs the call to time with a check of its result against reference.py;
the worker runs every check after the timed loop.

Calls into univoque go through ``tr.span(...)`` so that a traced run
attributes their time to a layer; work counts are derived from public
state only, and only when tracing.
"""

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from typing import Any, Callable

from univoque import cli
from univoque.errors import UndecidableDigitError, UndecidedError
from univoque.expansions import (
    AlgebraicBeta,
    FloatBeta,
    d_of_beta,
    greedy_digits,
    is_unique_expansion,
)
from univoque.oracle import (
    exists_period_n_unique,
    min_beta_for_period,
    primitive_necklaces,
    verify_ordering,
)
from univoque.thresholds import (
    below_komornik_loreti,
    min_extremal_explicit,
    min_extremal_recursive,
    reduced_poly,
    threshold_beta,
    threshold_poly,
)
from univoque.trapezoid import (
    BOUNDARY_TOL,
    decode_itinerary,
    encode_itinerary,
    find_lr_cycles,
    unimodal_cmp,
)
from univoque.words import PeriodicSeq, is_extremal, lex_cmp

import reference as ref


class CliUndecided(Exception):
    """The command exited with status 2: a decision ran out of budget."""


# Outcomes that are explicitly undecided rather than wrong.
UNDECIDED = (UndecidedError, UndecidableDigitError, CliUndecided)


@dataclass
class Op:
    cls: str                          # request class, for undecided counts
    run: Callable[[], Any]            # the timed call
    check: Callable[[Any], bool]      # True when the result agrees with the reference


@dataclass
class Work:
    ops: list
    after: Callable[[], None] = lambda: None   # traced counts once the loop is done


# ---------------------------------------------------------------- helpers

def _width(beta) -> Fraction:
    lo, hi = beta.interval
    return hi - lo


def _halvings(before: Fraction, after: Fraction) -> int:
    """Bisections between two widths of one interval.  Each bisection
    halves the width exactly, so the ratio is a power of two."""
    if after == 0:
        return 0
    return (before / after).numerator.bit_length() - 1


def _endpoint_bits(beta) -> int:
    lo, hi = beta.interval
    return max(lo.numerator.bit_length(), lo.denominator.bit_length(),
               hi.numerator.bit_length(), hi.denominator.bit_length())


@lru_cache(maxsize=None)
def _threshold_float(k: int) -> float:
    return float(ref.threshold_bracket(k, 64)[0])


def _seq_text(pre: tuple, per: tuple) -> str:
    return "".join(map(str, pre)) + "(" + "".join(map(str, per)) + ")^w"


def _bits(rng: random.Random, lo: int, hi: int) -> tuple:
    return tuple(rng.randint(0, 1) for _ in range(rng.randint(lo, hi)))


def _parse(tr, text: str) -> PeriodicSeq:
    with tr.span("words.parse"):
        return PeriodicSeq.parse(text)


def _float_bases(rng: random.Random, count: int, lo: float, hi: float,
                 periods: range) -> list:
    """Floats in (lo, hi) at least 1e-6 from every threshold in periods."""
    thresholds = [_threshold_float(k) for k in periods]
    out = []
    while len(out) < count:
        b = rng.uniform(lo, hi)
        if all(abs(b - t) > 1e-6 for t in thresholds):
            out.append(b)
    return out


# ---------------------------------------------------------------- certify

COMPARE_MAX = 64                       # all pairs of periods 2..COMPARE_MAX
LARGE_PERIODS = (160, 192, 224, 256)   # the costliest isolations up to 256
TABLE_ROWS = range(2, 25)
CERTIFY_EPS = Fraction(1, 2 ** 34)


def build_certify(seed: int, tr) -> Work:
    """The thresholds are canonical, so every seed does the same work in
    the same order.  Shuffling the order by seed moved the median
    operation (a compare decided by disjoint intervals) by up to 1.8x
    from seed to seed through memory layout alone."""
    eps = CERTIFY_EPS
    small = range(2, COMPARE_MAX + 1)
    betas = {}

    def threshold(k):
        with tr.span("thresholds.poly"):
            poly = threshold_poly(k)
        with tr.span("algebraic.isolate"):
            beta = AlgebraicBeta(poly, 1, 2)
        w0 = _width(beta) if tr.on else None
        with tr.span("algebraic.refine"):
            beta.refine(eps)
        if tr.on:
            tr.add("algebraic.refine_bisections", _halvings(w0, _width(beta)))
        betas[k] = beta
        return poly.coeffs, beta.interval

    def check_threshold(k, result):
        coeffs, (lo, hi) = result
        own = ref.threshold_coeffs(k)
        ok = (coeffs == own and 1 < lo < hi < 2 and hi - lo < eps
              and ref.horner_sign(own, lo) < 0 < ref.horner_sign(own, hi))
        if k in ref.PAPER_TABLE:
            ok = ok and f"{float((lo + hi) / 2):.5f}" == ref.PAPER_TABLE[k][2]
        return ok

    def row(k):
        beta = betas[k]
        with tr.span("expansions.alg_orbit"):
            exp = d_of_beta(beta)
            kind = exp.finiteness
            digits = exp.prefix(kind[1]).bits if kind[0] == "finite" else None
        if tr.on:
            tr.add("expansions.alg_orbit_digits", _digit_count(kind))
        with tr.span("thresholds.extremal"):
            word = min_extremal_recursive(k).period.bits
        with tr.span("thresholds.reduced_poly"):
            red = reduced_poly(k).coeffs
        with tr.span("thresholds.below_kl"):
            below = below_komornik_loreti(k)
        return kind, digits, word, red, below, beta.interval

    def check_row(k, result):
        kind, digits, word, red, below, (lo, hi) = result
        alpha = ref.min_extremal_word(k)
        ok = (kind == ("finite", k) and digits == alpha[:-1] + (1,)
              and word == alpha == min_extremal_explicit(k).period.bits
              and ref.poly_divides(red, ref.threshold_coeffs(k))
              and ref.horner_sign(red, lo) * ref.horner_sign(red, hi) < 0)
        if k in ref.PAPER_TABLE:
            d_text, minimal, _, below_ref = ref.PAPER_TABLE[k]
            return (ok and "".join(map(str, digits)) == d_text
                    and ref.poly_divides(minimal, red) and below == below_ref)
        return ok and below == ref.below_komornik_loreti(k)

    def order():
        with tr.span("oracle.verify_ordering"):
            report = verify_ordering(30)
        return report["violations"], [c["n"] for c in report["chain"]]

    def check_order(result):
        violations, chain = result
        return not violations and chain == ref.chain_order(30)

    def compare(k, m):
        a, b = betas[k], betas[m]
        if tr.on:
            wa, wb = _width(a), _width(b)
        with tr.span("algebraic.compare"):
            sign = a.root.compare(b.root)
        if tr.on:
            tr.add("algebraic.compare_bisections",
                   _halvings(wa, _width(a)) + _halvings(wb, _width(b)))
        return sign

    def after():
        for beta in betas.values():
            tr.peak("algebraic.endpoint_bits_max", _endpoint_bits(beta))

    ops = [Op("threshold", partial(threshold, k), partial(check_threshold, k))
           for k in (*small, *LARGE_PERIODS)]
    ops += [Op("row", partial(row, k), partial(check_row, k)) for k in TABLE_ROWS]
    ops.append(Op("order", order, check_order))
    ops += [Op("compare", partial(compare, k, m),
               partial(lambda k, m, r: r == ref.expected_compare(k, m), k, m))
            for k, m in combinations(small, 2)]
    return Work(ops, after)


def _digit_count(kind) -> int:
    status, detail = kind
    if status == "finite":
        return detail
    if status == "infinite":
        return detail[0] + detail[1]
    return detail  # the budget that was spent


# ---------------------------------------------------------------- oracle

MIN_BETA_PERIODS = range(8, 12)
MIN_BETA_EPS = 1e-6
EXISTS_PERIODS = (2, 10)
EXISTS_PER_SIDE = 96                   # bases per period on each side of beta_n
NECKLACE_PERIODS = range(14, 18)       # each enumerated once


def build_oracle(seed: int, tr) -> Work:
    rng = random.Random(seed)
    thresholds = {k: _threshold_float(k) for k in range(EXISTS_PERIODS[0],
                                                          EXISTS_PERIODS[1] + 1)}
    # The same number of bases below and above each threshold, one in each
    # of EXISTS_PER_SIDE equal slices, so every seed asks for the same mix
    # of early exits and exhaustive searches.
    queries = []
    for n, t in thresholds.items():
        for lo, hi in ((1.55, t - 1e-9), (t + 1e-9, 1.99)):
            step = (hi - lo) / EXISTS_PER_SIDE
            queries += [(lo + (i + rng.random()) * step, n)
                        for i in range(EXISTS_PER_SIDE)]
    reference = {}

    def exact_threshold(n):
        if n not in reference:
            reference[n] = threshold_beta(n, 1e-12)
        return reference[n]

    def min_beta(n):
        if tr.on:
            tr.add("oracle.necklaces", ref.necklace_count(n))
        with tr.span("oracle.min_beta"):
            return min_beta_for_period(n, MIN_BETA_EPS).value

    def check_min_beta(n, value):
        root = exact_threshold(n).root
        return (root.cmp_rational(Fraction(value) - Fraction(MIN_BETA_EPS)) > 0
                and root.cmp_rational(Fraction(value) + Fraction(MIN_BETA_EPS)) < 0)

    def exists(b, n):
        if tr.on:
            tr.add("oracle.necklaces", ref.necklace_count(n))
        with tr.span("oracle.exists"):
            return exists_period_n_unique(FloatBeta(b), n)

    def check_exists(b, n, found):
        return found == (exact_threshold(n).root.cmp_rational(Fraction(b)) < 0)

    def necklaces(n):
        with tr.span("oracle.necklaces"):
            count = len(primitive_necklaces(n))
        if tr.on:
            tr.add("oracle.necklaces", count)
        return count

    ops = [Op("min_beta", partial(min_beta, n), partial(check_min_beta, n))
           for n in MIN_BETA_PERIODS]
    ops += [Op("exists", partial(exists, b, n), partial(check_exists, b, n))
            for b, n in queries]
    ops += [Op("necklaces", partial(necklaces, n),
               partial(lambda n, c: c == ref.necklace_count(n), n))
            for n in NECKLACE_PERIODS]
    rng.shuffle(ops)
    return Work(ops)


# ---------------------------------------------------------------- queries

# Requests per class in one repetition of the closed loop.
QUERY_MIX = {
    "unique_float": 1200,  # reused pool of float bases, warm expansion cache
    "unique_alg": 600,     # certified thresholds
    "unique_near": 200,    # floats within 1e-13 of a threshold: undecided path
    "greedy": 600,
    "words": 600,          # is_extremal and lex_cmp
    "trapezoid": 480,      # encode/decode round trip and unimodal_cmp
    "lr_cycles": 120,      # on the first LR_POOL float bases
    "cli": 200,            # in-process univoque.cli.main, output captured
}
# Classes whose cost depends strongly on a parameter cycle through fixed
# values, so every seed asks for the same amount of work.
QUERY_VARIANTS = {
    "lr_cycles": tuple(range(1, 11)),                  # cycle length n
    "cli": ("check",) * 10 + ("expand",) * 4 + ("lr",) * 3 + ("beta",) * 3,
}
FLOAT_POOL = 8
LR_POOL = 3
ALG_BANDS = (range(2, 7), range(7, 12), range(12, 17))   # two thresholds from each
NEAR_PERIODS = range(2, 7)                               # one near-threshold base each


def build_queries(seed: int, tr) -> Work:
    rng = random.Random(seed)
    floats = [FloatBeta(b) for b in
              _float_bases(rng, FLOAT_POOL, 1.55, 1.98, range(2, 13))]
    near = [FloatBeta(_threshold_float(k) + rng.choice((-1, 1)) * rng.uniform(1e-14, 1e-13))
            for k in NEAR_PERIODS]
    alg = {}
    for k in sorted(k for band in ALG_BANDS for k in rng.sample(band, 2)):
        with tr.span("thresholds.poly"):
            poly = threshold_poly(k)
        with tr.span("algebraic.isolate"):
            alg[k] = AlgebraicBeta(poly, 1, 2)
    # Warm-up: every pooled base computes its expansion of 1 once, as a
    # long-lived caller's bases would have by the time requests arrive.
    for beta in alg.values():
        with tr.span("expansions.alg_orbit"):
            kind = d_of_beta(beta).finiteness
        if tr.on:
            tr.add("expansions.alg_orbit_digits", _digit_count(kind))
    for beta in floats + near:
        with tr.span("expansions.float_orbit"):
            d_of_beta(beta).finiteness

    def unique_float(beta, text):
        s = _parse(tr, text)
        with tr.span("expansions.unique_float"):
            try:
                return is_unique_expansion(beta, s)
            except UNDECIDED:
                tr.add("expansions.undecided")
                raise

    def unique_alg(k, text):
        s = _parse(tr, text)
        with tr.span("expansions.unique_alg"):
            try:
                return is_unique_expansion(alg[k], s)
            except UNDECIDED:
                tr.add("expansions.undecided")
                raise

    def greedy(beta, x, n):
        with tr.span("expansions.greedy_digits"):
            try:
                return greedy_digits(beta, float(x), n).bits
            except UNDECIDED:
                tr.add("expansions.undecided")
                raise

    def words(ta, tb):
        a, b = _parse(tr, ta), _parse(tr, tb)
        with tr.span("words.is_extremal"):
            ext = is_extremal(a)
        with tr.span("words.lex_cmp"):
            sign = lex_cmp(a, b)
        return ext, sign

    def trapezoid(ts, t1, t2):
        s, p1, p2 = _parse(tr, ts), _parse(tr, t1), _parse(tr, t2)
        with tr.span("trapezoid.encode_decode"):
            back = decode_itinerary(encode_itinerary(s))
            e1, e2 = encode_itinerary(p1), encode_itinerary(p2)
        with tr.span("trapezoid.unimodal_cmp"):
            sign = unimodal_cmp(e1, e2)
        return (back.preperiod.bits, back.period.bits), sign

    def lr_cycles(beta, n):
        with tr.span("trapezoid.lr_cycles"):
            return [c.period for c in find_lr_cycles(beta, n)]

    def run_cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with tr.span("cli.main"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        if code == 2:
            tr.add("cli.exit2")
            raise CliUndecided(err.getvalue())
        return code, out.getvalue()

    lr_reference = {}

    def lr_expected(beta, n):
        key = (beta.value, n)
        if key not in lr_reference:
            lr_reference[key] = ref.lr_cycles(Fraction(beta.value), n,
                                              Fraction(BOUNDARY_TOL))
        return lr_reference[key]

    def cli_request(kind):
        if kind == "check":
            beta = rng.choice(floats + near)
            per = _bits(rng, 2, 12)
            argv = ["check-unique", "--beta", str(beta), "--seq", _seq_text((), per)]
            want = lambda: "true\n" if ref.unique_in_base(
                Fraction(beta.value), per) else "false\n"
        elif kind == "expand":
            beta, x, n = rng.choice(floats), rng.random(), rng.randint(8, 30)
            argv = ["expand", "--beta", str(beta), "--x", repr(x), "--digits", str(n)]
            want = lambda: "".join(map(str, ref.greedy_digits(
                Fraction(beta.value), Fraction(x), n))) + "\n"
        elif kind == "lr":
            beta, n = rng.choice(floats[:LR_POOL]), rng.randint(1, 6)
            argv = ["lr-cycles", "--beta", str(beta), "--n", str(n)]
            want = lambda: "".join(f"({''.join(w)})^w\n"
                                   for w in lr_expected(beta, n)) or "none\n"
        else:
            k = rng.randint(2, 20)
            argv = ["beta-n", str(k)]
            want = lambda: f"{_threshold_float(k):.5f}\n"
        return Op("cli", partial(run_cli, argv), lambda r: r == (0, want()))

    def request(cls, variant):
        if cls == "unique_float" or cls == "unique_near":
            beta = rng.choice(floats if cls == "unique_float" else near)
            per = _bits(rng, 2, 12)
            return Op(cls, partial(unique_float, beta, _seq_text((), per)),
                      lambda v: v == ref.unique_in_base(Fraction(beta.value), per))
        if cls == "unique_alg":
            k = rng.choice(sorted(alg))
            per = _bits(rng, 2, 12)
            return Op(cls, partial(unique_alg, k, _seq_text((), per)),
                      lambda v: v == ref.unique_at_threshold(k, per))
        if cls == "greedy":
            beta, x, n = rng.choice(floats), repr(rng.random()), rng.randint(16, 40)
            return Op(cls, partial(greedy, beta, x, n),
                      lambda d: d == ref.greedy_digits(Fraction(beta.value),
                                                       Fraction(float(x)), n))
        if cls == "words":
            a = (_bits(rng, 0, 4), _bits(rng, 1, 10))
            b = (_bits(rng, 0, 4), _bits(rng, 1, 10))
            return Op(cls, partial(words, _seq_text(*a), _seq_text(*b)),
                      lambda r: r == (ref.is_extremal(*a), ref.lex_sign(a, b)))
        if cls == "trapezoid":
            s = (_bits(rng, 0, 4), _bits(rng, 1, 10))
            p1, p2 = ((), _bits(rng, 1, 10)), ((), _bits(rng, 1, 10))
            return Op(cls, partial(trapezoid, _seq_text(*s), _seq_text(*p1), _seq_text(*p2)),
                      lambda r: ref.lex_sign(r[0], s) == 0 and r[1] == ref.lex_sign(p1, p2))
        if cls == "lr_cycles":
            beta, n = rng.choice(floats[:LR_POOL]), variant
            return Op(cls, partial(lr_cycles, beta, n), lambda r: r == lr_expected(beta, n))
        return cli_request(variant)

    plan = []
    for cls, count in QUERY_MIX.items():
        variants = QUERY_VARIANTS.get(cls, (None,))
        plan += [(cls, variants[i % len(variants)]) for i in range(count)]
    rng.shuffle(plan)
    return Work([request(cls, variant) for cls, variant in plan])


BUILDERS = {
    "certify": build_certify,
    "oracle": build_oracle,
    "queries": build_queries,
}
