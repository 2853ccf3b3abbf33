import math
import random
from fractions import Fraction
from itertools import product

import pytest

from univoque.algebraic import IntPolynomial, poly_str
from univoque.errors import (
    MiddleGapError,
    NotParryError,
    OutOfDomainError,
    PreconditionViolated,
    UndecidableDigitError,
    UndecidedError,
)
from univoque.expansions import (
    AlgebraicBeta,
    BetaValue,
    FloatBeta,
    GreedyExpansion,
    _AlgebraicOrbit,
    _BoundPrefix,
    _FloatOrbit,
    d_of_beta,
    expansion_value,
    greedy_digits,
    is_parry_admissible,
    is_unique_expansion,
    quasi_greedy,
    shift_map,
    solve_base,
)
from univoque.oracle import exists_period_n_unique
from univoque.thresholds import threshold_beta
from univoque.trapezoid import find_lr_cycles
from univoque.words import GREATER, LESS, BinaryWord, PeriodicSeq, lex_cmp, mirror, shift
from util import (SEED, admissible_words, eager_exists, eager_lr_cycles, eager_unique,
                  float_orbit_reference, fraction_orbit_digits, lcm_bound_cmp, primitive_words,
                  random_purely_periodic)

GOLDEN = "poly:[-1,-1,1]@(1,2)"
B4 = "poly:[-1,1,-2,1]@(1,2)"  # x^3 - 2x^2 + x - 1


class TestBetaValue:
    def test_parse_print_roundtrip(self):
        for text in [GOLDEN, "float:1.9", "poly:[-1,-1,-1,1]@(1,2)"]:
            assert str(BetaValue.parse(text)) == text

    def test_fraction_endpoints(self):
        b = BetaValue.parse("poly:[-1,-1,1]@(3/2,2)")
        assert abs(float(b) - 1.6180339887) < 1e-9

    def test_rejects_outside_unit_band(self):
        with pytest.raises(PreconditionViolated):
            FloatBeta(2.5)
        with pytest.raises(PreconditionViolated):
            FloatBeta(1.0)
        with pytest.raises(PreconditionViolated):
            AlgebraicBeta(IntPolynomial([-1, -1, 1]), 0, 3)

    @pytest.mark.parametrize("coeffs, end", [([-1, 1], 1), ([-2, 1], 2), ([2, -3, 1], 1),
                                             ([-6, 5, -1], 2)])
    def test_rejects_a_root_at_either_end(self, coeffs, end):
        # the same domain and message as FloatBeta; a wider interval that
        # ends at a root is refused by the isolation already
        with pytest.raises(PreconditionViolated) as float_exc:
            FloatBeta(end)
        with pytest.raises(PreconditionViolated) as exc:
            AlgebraicBeta(IntPolynomial(coeffs), end, end)
        assert str(exc.value) == str(float_exc.value)
        with pytest.raises(ValueError, match="vanishes at an isolation endpoint"):
            AlgebraicBeta(IntPolynomial(coeffs), 1, 2)
        assert float(AlgebraicBeta(IntPolynomial([-3, 2]), "3/2", "3/2")) == 1.5

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            BetaValue.parse("sqrt:2")

    def test_rejects_nan_tolerance(self):
        # a NaN band would make every undecidable-digit check pass
        with pytest.raises(ValueError, match="tolerance must be positive"):
            FloatBeta(1.6180339887498949, tolerance=math.nan)


class TestGreedyDigits:
    def test_golden_expansion_of_one(self):
        assert str(greedy_digits(BetaValue.parse(GOLDEN), 1, 4)) == "1100"

    def test_cubic_expansion_of_one(self):
        assert str(greedy_digits(BetaValue.parse(B4), 1, 6)) == "110100"

    def test_zero_expands_to_zeros(self):
        assert str(greedy_digits(FloatBeta(1.7), 0, 5)) == "00000"
        assert str(greedy_digits(BetaValue.parse(GOLDEN), 0, 5)) == "00000"

    def test_exact_rational_point(self):
        # x = 1/2 at the golden base: digits are decided exactly and the
        # partial sums approach x from below within the geometric tail
        beta = BetaValue.parse(GOLDEN)
        word = greedy_digits(beta, Fraction(1, 2), 24)
        b = float(beta)
        val = sum(bit * b ** -(i + 1) for i, bit in enumerate(word))
        assert 0 <= 0.5 - val < b ** -24 / (b - 1)

    def test_float_orbit_raises_at_branch_point(self):
        # the float golden ratio puts the orbit of 1 onto the branch point
        with pytest.raises(UndecidableDigitError):
            greedy_digits(FloatBeta(1.6180339887498949), 1, 40)

    def test_float_value_derived_digits(self):
        assert str(greedy_digits(FloatBeta(1.9), 1, 8)) == "11101001"


def _float_orbit_cases(count: int):
    """Seeded (base, tolerance, x, n); every fifth base sits within 1e-11
    of a threshold, where the orbit of 1 meets the branch point early."""
    rng = random.Random(SEED)
    near = [float(threshold_beta(k, 1e-15)) for k in range(2, 9)]
    for i in range(count):
        if i % 5 == 0:
            b = rng.choice(near) + rng.uniform(-1e-11, 1e-11)
        else:
            b = rng.uniform(1.0 + 1e-9, 2.0 - 1e-9)
        tol = rng.choice((1e-6, 1e-9, 1e-12, 1e-15))
        x = rng.choice((0.0, 1.0, rng.random()))
        yield b, tol, x, rng.randint(0, 300)


class TestFloatOrbitLoop:
    """The one-loop float orbit against the per-step loop it replaced."""

    def test_digits_errors_and_state_match_per_step_loop(self):
        kinds = set()
        for b, tol, x, n in _float_orbit_cases(2000):
            want, error, t, err = float_orbit_reference(b, tol, x, n)
            kinds.add(error is None)
            try:
                got = greedy_digits(FloatBeta(b, tol), x, n).bits
            except UndecidableDigitError as exc:
                assert type(exc) is type(error) and str(exc) == str(error), (b, tol, x, n)
            else:
                assert error is None and got == tuple(want), (b, tol, x, n)
            orbit, digits = _FloatOrbit(b, tol, x), []
            try:
                orbit.extend(digits, n)
            except UndecidableDigitError as exc:
                assert type(exc) is type(error) and str(exc) == str(error)
            else:
                assert error is None
            assert digits == want and (orbit.t, orbit.err) == (t, err), (b, tol, x, n)
        assert kinds == {True, False}

    def test_certified_prefix_of_one_matches_per_step_loop(self):
        kinds = set()
        for b, tol, _, n in _float_orbit_cases(2000):
            want, error, t, err = float_orbit_reference(b, tol, 1.0, n)
            kinds.add(error is None)
            exp = d_of_beta(FloatBeta(b, tol))
            assert exp._certified_prefix(n) == bytes(want), (b, tol, n)
            assert exp._failed == (None if error is None else str(error))
            assert (exp._orbit.t, exp._orbit.err) == (t, err), (b, tol, n)
            if error is not None:
                with pytest.raises(UndecidableDigitError) as info:
                    exp.digit(len(want))
                assert str(info.value) == str(error)
        assert kinds == {True, False}


class TestIntegerOrbit:
    """The integer orbit against the Fraction orbit it replaced."""

    BASES = {
        "19/10": lambda: BetaValue.parse("poly:[-19,10]@(1,2)"),
        "187/100": lambda: BetaValue.parse("poly:[-187,100]@(1,2)"),
        # reducible, with leading coefficients 2 and 3
        "cubic*(2x-5)": lambda: AlgebraicBeta(
            IntPolynomial([1, -2, -1, 1]) * IntPolynomial([-5, 2]), 1, 2),
        "golden*(3x-7)": lambda: AlgebraicBeta(
            IntPolynomial([-1, -1, 1]) * IntPolynomial([-7, 3]), 1, 2),
        # the orbit of 1 repeats: 1(10)^w
        "cubic": lambda: AlgebraicBeta(IntPolynomial([1, -2, -1, 1]), 1, 2),
    }

    @staticmethod
    def _verdict(orbit):
        if orbit.finite_at is not None:
            return ("finite", orbit.finite_at)
        if orbit.cycle is not None:
            return ("infinite", orbit.cycle)
        return None

    def test_digits_of_one_at_thresholds(self):
        for k in range(2, 25):
            want, verdict = fraction_orbit_digits(threshold_beta(k), 1, 300)
            exp = d_of_beta(threshold_beta(k))
            assert exp.finiteness == verdict, k
            assert exp.prefix(300).bits == want, k

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_greedy_digits_and_verdicts(self, name):
        make = self.BASES[name]
        for x in (0, 1, Fraction(1, 3), Fraction(2, 7), Fraction(5, 8)):
            want, verdict = fraction_orbit_digits(make(), x, 300)
            assert greedy_digits(make(), x, 300).bits == want, (name, x)
            # in two calls, so the second starts from the state the first left
            orbit, digits = _AlgebraicOrbit(make(), Fraction(x)), []
            orbit.extend(digits, 137)
            orbit.extend(digits, 300)
            assert tuple(digits) == want, (name, x)
            if x:  # 0 is a fixed point, which the reference reads as an end
                assert self._verdict(orbit) == verdict, (name, x)


class TestExpansionOfOne:
    def test_finite_cases(self):
        exp = d_of_beta(BetaValue.parse(GOLDEN))
        assert exp.finiteness == ("finite", 2)
        assert str(exp.prefix(4)) == "1100"
        exp3 = d_of_beta(BetaValue.parse("poly:[-1,-1,-1,1]@(1,2)"))
        assert exp3.finiteness == ("finite", 3)
        assert str(exp3.prefix(3)) == "111"
        exp4 = d_of_beta(BetaValue.parse(B4))
        assert exp4.finiteness == ("finite", 4)
        assert str(exp4.prefix(4)) == "1101"
        # (x^2 - x - 1)(x^2 + x + 1): the orbit of 1 ends at x^2 - x - 1,
        # a nonzero remainder of degree 2 that vanishes at the golden ratio
        reducible = IntPolynomial([-1, -1, 1]) * IntPolynomial([1, 1, 1])
        assert d_of_beta(AlgebraicBeta(reducible, 1, 2)).finiteness == ("finite", 2)

    def test_float_budget_unknown(self):
        exp = d_of_beta(FloatBeta(1.9))
        assert exp.finiteness == ("unknown", exp.budget)
        assert exp.bound is None
        assert str(exp.prefix(5)) == "11101"

    def test_unknown_verdict_is_read_again_without_stepping(self, monkeypatch):
        calls = []
        extend = _FloatOrbit.extend

        def counting(orbit, digits, n):
            calls.append(n)
            return extend(orbit, digits, n)

        monkeypatch.setattr(_FloatOrbit, "extend", counting)
        exp = d_of_beta(FloatBeta(1.87))
        assert exp.finiteness == ("unknown", exp.budget)
        assert calls == [exp.budget]  # the first read does enter the loop
        digits = list(exp._digits)
        assert 0 < len(digits) < exp.budget
        calls.clear()
        assert exp.finiteness == ("unknown", exp.budget)
        assert calls == []
        assert exp._digits == digits

    def test_unknown_bound_is_not_kept(self, monkeypatch):
        # a prefix longer than the budget can still end the digits of an
        # exact base, and the bound follows
        monkeypatch.setattr(GreedyExpansion, "budget", 3)
        beta = threshold_beta(5)
        exp = d_of_beta(beta)
        assert exp.finiteness == ("unknown", 3) and exp.bound is None
        exp.prefix(5)
        assert exp.finiteness == ("finite", 5)
        assert exp.bound == quasi_greedy(beta) == PeriodicSeq.parse("(11010)^w")

    def test_verdict_does_not_depend_on_call_order(self):
        # the digits of 1 at the 260th threshold end at digit 260, past the
        # budget of 256: reading them first must not turn the verdict that
        # a fresh expansion gives, unknown, to finite
        exp = d_of_beta(threshold_beta(260))
        bits = exp.prefix(300).bits
        assert bits[259] == 1 and not any(bits[260:])
        assert exp.finiteness == ("unknown", exp.budget) == ("unknown", 256)
        assert exp.bound is None

    @pytest.mark.parametrize("text", [GOLDEN, "float:1.9"])
    def test_negative_count_or_index_raises(self, text):
        exp = d_of_beta(BetaValue.parse(text))
        for _ in range(2):  # on a fresh expansion, then after digits were read
            with pytest.raises(ValueError, match="nonnegative"):
                exp.prefix(-1)
            with pytest.raises(ValueError, match="nonnegative"):
                exp.digit(-1)
            exp.prefix(5)

    def test_infinite_detected_by_orbit_cycle(self):
        # base with expansion of one equal to 1 then 10 repeating
        beta = AlgebraicBeta(IntPolynomial([1, -2, -1, 1]), 1, 2)
        exp = d_of_beta(beta)
        assert exp.finiteness == ("infinite", (1, 2))
        assert exp.bound == PeriodicSeq("1", "10")
        # cross-check against the exact solver for the same sequence
        approx = solve_base(PeriodicSeq("1", "10"))
        assert abs(float(approx) - float(beta)) < 1e-9

    def test_digits_never_change(self):
        exp = d_of_beta(FloatBeta(1.85))
        first = exp.prefix(10)
        exp.prefix(40)
        assert exp.prefix(10) == first

    def test_rational_base_matches_float_orbit(self):
        # 19/10 as an exact root of a linear polynomial: the exact digit
        # stream must agree with the float orbit while the latter is sound
        exact = AlgebraicBeta(IntPolynomial([-19, 10]), 1, 2)
        approx = FloatBeta(1.9)
        assert d_of_beta(exact).prefix(48) == d_of_beta(approx).prefix(48)
        assert d_of_beta(exact).finiteness[0] == "unknown"

    def test_concurrent_readers_see_one_stream(self):
        import threading
        exp = d_of_beta(FloatBeta(1.87))
        results = []

        def reader():
            results.append(tuple(exp.digit(i) for i in range(40)))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4 and len(set(results)) == 1

    def test_long_float_streams_refuse_to_guess(self):
        # roundoff compounds by a factor b per digit, so deep digits of a
        # float base are not certifiable and must raise instead
        exp = d_of_beta(FloatBeta(1.87))
        with pytest.raises(UndecidableDigitError):
            exp.prefix(120)

    def test_failed_float_digit_leaves_the_orbit_unchanged(self):
        # a digit that cannot be decided raises again with the same band,
        # rather than widening it by a factor b on every retry
        exp = d_of_beta(FloatBeta(1.87))
        exp.finiteness
        messages = []
        for _ in range(2):
            with pytest.raises(UndecidableDigitError) as err:
                exp.digit(200)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestQuasiGreedy:
    def test_examples(self):
        assert quasi_greedy(BetaValue.parse(GOLDEN)) == PeriodicSeq.parse("(10)^w")
        assert quasi_greedy(BetaValue.parse(B4)) == PeriodicSeq.parse("(1100)^w")

    def test_not_parry_for_float(self):
        with pytest.raises(NotParryError):
            quasi_greedy(FloatBeta(1.9))

    def test_expands_one(self):
        for text in [GOLDEN, B4, "poly:[-1,-1,-1,1]@(1,2)"]:
            beta = BetaValue.parse(text)
            assert abs(expansion_value(beta, quasi_greedy(beta)) - 1.0) < 1e-12


class TestExpansionValue:
    def test_closed_forms(self):
        b = FloatBeta(1.9)
        assert expansion_value(b, PeriodicSeq.parse("(0)^w")) == 0.0
        assert abs(expansion_value(b, PeriodicSeq.parse("(1)^w")) - 1 / 0.9) < 1e-12
        assert abs(expansion_value(b, PeriodicSeq.parse("(01)^w")) - 1 / (1.9 ** 2 - 1)) < 1e-12

    def test_matches_partial_sums(self):
        rng = random.Random(SEED)
        for _ in range(200):
            s = random_purely_periodic(rng, 8)
            b = rng.uniform(1.2, 1.95)
            direct = sum(s.at(k) * b ** -(k + 1) for k in range(120))
            assert abs(expansion_value(FloatBeta(b), s) - direct) < 1e-9


class TestSolveBase:
    def test_purely_periodic_is_algebraic(self):
        cases = {
            "(10)^w": 1.61803,
            "(110)^w": 1.83929,
            "(11010)^w": 1.81240,
        }
        for text, value in cases.items():
            beta = solve_base(PeriodicSeq.parse(text))
            assert isinstance(beta, AlgebraicBeta)
            assert abs(float(beta) - value) < 1e-5

    def test_finite_support_is_algebraic(self):
        beta = solve_base(PeriodicSeq("11", "0"))
        assert isinstance(beta, AlgebraicBeta)
        assert abs(float(beta) - 1.6180339887) < 1e-9

    def test_mixed_is_algebraic(self):
        beta = solve_base(PeriodicSeq("1", "10"))
        assert isinstance(beta, AlgebraicBeta)
        assert poly_str(beta.poly) == "x^3-x^2-2x+1"
        assert abs(expansion_value(beta, PeriodicSeq("1", "10")) - 1.0) < 1e-9

    def test_solution_expands_one(self):
        rng = random.Random(SEED + 1)
        for _ in range(100):
            s = random_purely_periodic(rng, 8)
            bits = s.period.bits
            if 0 not in bits or 1 not in bits or bits.count(1) < 1:
                continue
            if bits.count(1) == 1 and len(bits) == 1:
                continue
            try:
                beta = solve_base(s)
            except PreconditionViolated:
                continue
            assert abs(expansion_value(beta, s) - 1.0) < 1e-9

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            solve_base(PeriodicSeq.parse("(1)^w"))  # no zero
        with pytest.raises(PreconditionViolated):
            solve_base(PeriodicSeq("1", "0"))  # single one


class TestParryAdmissible:
    def test_examples(self):
        assert is_parry_admissible(PeriodicSeq("11", "0"))
        assert not is_parry_admissible(PeriodicSeq.parse("(10)^w"))
        assert not is_parry_admissible(PeriodicSeq.parse("(0)^w"))

    def test_purely_periodic_never_admissible(self):
        rng = random.Random(SEED + 2)
        for _ in range(100):
            assert not is_parry_admissible(random_purely_periodic(rng, 8))

    def test_roundtrip_all_admissible_words(self):
        words = admissible_words(10)
        assert len(words) > 100
        for w in words:
            if w.bits.count(1) < 2:
                continue
            beta = solve_base(PeriodicSeq(w, (0,)))
            exp = d_of_beta(beta)
            assert exp.finiteness == ("finite", len(w)), w
            assert exp.prefix(len(w)) == w


class TestUniqueness:
    def test_above_golden_alternating_is_unique(self):
        assert is_unique_expansion(FloatBeta(1.9), PeriodicSeq.parse("(01)^w")) is True

    def test_below_golden_alternating_is_not(self):
        assert is_unique_expansion(FloatBeta(1.5), PeriodicSeq.parse("(01)^w")) is False

    def test_period_four_threshold(self):
        assert is_unique_expansion(FloatBeta(1.8), PeriodicSeq.parse("(0011)^w")) is True
        assert is_unique_expansion(FloatBeta(1.7), PeriodicSeq.parse("(0011)^w")) is False

    def test_exact_base_paths(self):
        tribo = BetaValue.parse("poly:[-1,-1,-1,1]@(1,2)")
        assert is_unique_expansion(tribo, PeriodicSeq.parse("(0011)^w")) is True
        golden = BetaValue.parse(GOLDEN)
        assert is_unique_expansion(golden, PeriodicSeq.parse("(01)^w")) is False
        # at the threshold itself the bound is hit with equality, not strictly
        b4 = BetaValue.parse(B4)
        assert is_unique_expansion(b4, PeriodicSeq.parse("(1100)^w")) is False

    def test_infinite_exact_bound(self):
        beta = AlgebraicBeta(IntPolynomial([1, -2, -1, 1]), 1, 2)
        assert is_unique_expansion(beta, PeriodicSeq.parse("(01)^w")) is True

    def test_requires_purely_periodic(self):
        with pytest.raises(PreconditionViolated):
            is_unique_expansion(FloatBeta(1.9), PeriodicSeq("1", "10"))

    @pytest.mark.parametrize("budget", [0, -5])
    def test_rejects_budget_below_one(self, budget):
        with pytest.raises(PreconditionViolated):
            is_unique_expansion(FloatBeta(1.9), PeriodicSeq.parse("(01)^w"), budget)

    def test_undecided_at_threshold_float(self):
        golden_float = FloatBeta(1.6180339887498949)
        with pytest.raises((UndecidedError, UndecidableDigitError)):
            is_unique_expansion(golden_float, PeriodicSeq.parse("(10)^w"))

    def test_agrees_with_overlap_region_oracle(self):
        # independent check: an expansion is forced at every step exactly
        # when no tail value falls into the closed digit-overlap region
        # [1/b, 1/(b(b-1))]; sample away from the region's edges
        rng = random.Random(SEED + 6)
        agree = 0
        while agree < 3000:
            bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(2, 10)))
            if 0 not in bits or 1 not in bits:
                continue
            s = PeriodicSeq((), bits)
            b = rng.uniform(1.05, 1.98)
            beta = FloatBeta(b)
            lo, hi = 1 / b, 1 / (b * (b - 1))
            vals = [expansion_value(beta, shift(s, k))
                    for k in range(len(s.period))]
            if min(min(abs(v - lo), abs(v - hi)) for v in vals) < 1e-6:
                continue
            oracle = all(not (lo <= v <= hi) for v in vals)
            assert is_unique_expansion(beta, s) == oracle, (s, b)
            agree += 1

    def test_constant_sequences_fail_criterion(self):
        # the endpoints have unique expansions but sit outside the
        # attractor core the criterion describes
        for b in (1.3, 1.7, 1.95):
            assert is_unique_expansion(FloatBeta(b), PeriodicSeq.parse("(0)^w")) is False
            assert is_unique_expansion(FloatBeta(b), PeriodicSeq.parse("(1)^w")) is False


def _cmp_seq_vs_digits(t: PeriodicSeq, exp, budget: int, mirrored: bool = False) -> int:
    """Reference: compare t with the digits of 1 (or their mirror) one
    digit at a time, reading digits only as far as the first difference."""
    for i in range(budget):
        a = t.at(i)
        b = exp.digit(i)
        if mirrored:
            b = 1 - b
        if a != b:
            return LESS if a < b else GREATER
    raise UndecidedError(
        f"no strict difference within {budget} digits; raise the budget "
        "or use an algebraic base", budget)


def _unique_digit_by_digit(beta, s: PeriodicSeq, budget: int) -> bool:
    """Reference criterion for a bound known only digit by digit."""
    exp = d_of_beta(beta)
    assert exp.finiteness[0] == "unknown"
    for j in range(len(s.period)):
        t = shift(s, j)
        if _cmp_seq_vs_digits(t, exp, budget) != LESS:
            return False
        if _cmp_seq_vs_digits(t, exp, budget, mirrored=True) != GREATER:
            return False
    return True


def _derived_bound(exp):
    """The criterion's bound derived from the expansion's verdict: the
    quasi-greedy word when the digits end, the greedy periodic word
    when they repeat, None when unknown."""
    kind = exp.finiteness
    if kind[0] == "finite":
        return PeriodicSeq((), exp.prefix(kind[1]).bits[:-1] + (0,))
    if kind[0] == "infinite":
        p, q = kind[1]
        bits = exp.prefix(p + q).bits
        return PeriodicSeq(bits[:p], bits[p:])
    return None


def _outcome(f, *args):
    try:
        return f(*args)
    except (UndecidedError, UndecidableDigitError) as exc:
        return type(exc), str(exc), getattr(exc, "budget", None)


class TestUniquenessNearThresholds:
    def test_windowed_criterion_matches_digit_by_digit(self):
        # float bases within 1e-13 of a threshold: the orbit of 1 stops
        # being certified near the threshold's last digit, so small
        # budgets and the undecidable digit both come into play
        seqs = [PeriodicSeq((), w) for q in range(1, 7) for w in primitive_words(q)]
        seen = set()
        for k in range(2, 7):
            center = float(threshold_beta(k, 1e-15))
            for offset in (-1e-13, -2e-14, 0.0, 2e-14, 1e-13):
                b = center + offset
                new, ref = FloatBeta(b), FloatBeta(b)
                for budget in range(1, 9):
                    for s in seqs:
                        got = _outcome(is_unique_expansion, new, s, budget)
                        want = _outcome(_unique_digit_by_digit, ref, s, budget)
                        assert got == want, (b, s, budget)
                        seen.add(want if isinstance(want, bool) else want[0])
        assert seen == {True, False, UndecidedError, UndecidableDigitError}

    def test_fresh_float_bound_extends_the_orbit_at_most_twice(self, monkeypatch):
        # each extension steps into the undecidable digit once more
        calls = []
        extend = GreedyExpansion._extend_to

        def counting(exp, n):
            calls.append(n)
            return extend(exp, n)

        monkeypatch.setattr(GreedyExpansion, "_extend_to", counting)
        beta = FloatBeta(1.87)
        bound = _BoundPrefix(beta, 2, None)
        assert len(calls) <= 2
        assert bound.undecided is not None and d_of_beta(beta).finiteness[0] == "unknown"

    def test_exact_bounds_match_lcm_bound_reference(self):
        # exact bases whose expansion of 1 is finite (the thresholds) or
        # eventually periodic with a preperiod (solved from admissible words)
        bases = [threshold_beta(k) for k in range(2, 9)]
        words = {PeriodicSeq(pre, per)
                 for p in range(1, 4) for pre in product((0, 1), repeat=p)
                 for q in range(1, 4) for per in product((0, 1), repeat=q)}
        for w in sorted(words, key=str):
            if w.preperiod and w.period != BinaryWord("0") and is_parry_admissible(w):
                bases.append(solve_base(w))
        seqs = [PeriodicSeq((), w) for q in range(1, 8) for w in primitive_words(q)]
        kinds = set()
        for beta in bases:
            kinds.add(d_of_beta(beta).finiteness[0])
            bound = _derived_bound(d_of_beta(beta))
            low = mirror(bound)
            for s in seqs:
                ref = all(lcm_bound_cmp(low, shift(s, j)) < 0 < lcm_bound_cmp(bound, shift(s, j))
                          for j in range(len(s.period)))
                assert is_unique_expansion(beta, s) == ref, (beta, s)
        assert kinds == {"finite", "infinite"} and len(bases) > 15


def _base_factories():
    """Zero-argument builders of fresh bases of every kind the bound
    takes: floats at three tolerances and within 1e-13 of thresholds,
    finite and eventually periodic exact expansions, a rational base
    whose expansion of 1 stays unknown, and a reducible polynomial."""
    rng = random.Random(SEED + 7)
    makers = []
    for tol in (1e-6, 1e-9, 1e-12):
        for b in (rng.uniform(1.05, 1.98) for _ in range(3)):
            makers.append(lambda b=b, tol=tol: FloatBeta(b, tol))
    for k in range(2, 7):
        b = float(threshold_beta(k, 1e-15)) + rng.uniform(-1e-13, 1e-13)
        makers.append(lambda b=b: FloatBeta(b))
    makers += [lambda k=k: threshold_beta(k) for k in range(2, 11)]
    for text in ("1(10)^w", "11(0110)^w", "110(10)^w", "1(1100)^w"):
        w = PeriodicSeq.parse(text)
        assert w.preperiod and is_parry_admissible(w)
        makers.append(lambda w=w: solve_base(w))
    makers.append(lambda: BetaValue.parse("poly:[-19,10]@(1,2)"))
    reducible = IntPolynomial([-1, -1, 1]) * IntPolynomial([1, 1, 1])
    makers.append(lambda: AlgebraicBeta(reducible, 1, 2))
    return makers


class TestKeptBound:
    def test_shared_base_answers_like_fresh_bases(self):
        rng = random.Random(SEED + 8)
        seqs = [PeriodicSeq((), w) for q in range(1, 7) for w in primitive_words(q)]
        queries = [(s, budget) for s in seqs for budget in (None, 1, 5, 40)]
        seen, kinds = set(), set()
        for make in _base_factories():
            shared = make()
            for s, budget in rng.sample(queries, 40):
                got = _outcome(is_unique_expansion, shared, s, budget)
                want = _outcome(is_unique_expansion, make(), s, budget)
                assert got == want, (shared, s, budget)
                seen.add(want if isinstance(want, bool) else want[0])
            exp = d_of_beta(shared)
            kinds.add(exp.finiteness[0])
            assert exp.bound == _derived_bound(exp) == _derived_bound(d_of_beta(make())), shared
            assert exp.bound is exp.bound  # kept, not derived again
        assert seen == {True, False, UndecidedError, UndecidableDigitError}
        assert kinds == {"finite", "infinite", "unknown"}

    @pytest.mark.parametrize("budget, error", [(None, UndecidableDigitError),
                                               (1, UndecidedError)])
    def test_each_tie_raises_a_fresh_error(self, budget, error):
        beta = FloatBeta(1.87)
        bound = _BoundPrefix(beta, 2, budget)
        # the whole certified prefix ties at every length the bound reads
        tie = d_of_beta(beta)._certified_prefix(4 * 2 + 64)
        raised = []
        for _ in range(2):
            with pytest.raises(error) as info:
                bound.admits(tie, 1)
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert str(raised[0]) == str(raised[1])
        assert getattr(raised[0], "budget", None) == getattr(raised[1], "budget", None)

    def test_warm_base_reads_the_verdict_once_at_most(self, monkeypatch):
        calls = []
        finiteness = GreedyExpansion.finiteness

        def counting(exp):
            calls.append(exp)
            return finiteness.fget(exp)

        monkeypatch.setattr(GreedyExpansion, "finiteness", property(counting))
        s = PeriodicSeq.parse("(0011)^w")
        for make in _base_factories():
            beta = make()
            _outcome(is_unique_expansion, beta, s)
            calls.clear()
            _outcome(is_unique_expansion, beta, s)
            assert len(calls) <= 1, beta


class TestLazyBound:
    """The bound prefix reads the digits of 1 as deep as a comparison
    needs; every verdict and error is that of the prefix read whole."""

    BUDGETS = (None, 1, 5, 40)

    @staticmethod
    def bases():
        """_base_factories() and a float within its tolerance of 1, whose
        first digit of 1 fails, so the prefix read is empty."""
        return _base_factories() + [lambda: FloatBeta(1 + 1e-13)]

    def test_unique_expansion_matches_eager_prefix(self):
        seqs = [PeriodicSeq((), w) for q in range(1, 7) for w in primitive_words(q)]
        seen = set()
        for make in self.bases():
            lazy, eager = make(), make()
            for budget in self.BUDGETS:
                for s in seqs:
                    got = _outcome(is_unique_expansion, lazy, s, budget)
                    want = _outcome(eager_unique, eager, s, budget)
                    assert got == want, (lazy, s, budget)
                    seen.add(want if isinstance(want, bool) else want[0])
        assert seen == {True, False, UndecidedError, UndecidableDigitError}

    def test_membership_search_matches_eager_prefix(self):
        seen = set()
        for make in self.bases():
            for budget in self.BUDGETS:
                for n in range(1, 9):
                    got = _outcome(exists_period_n_unique, make(), n, budget)
                    want = _outcome(eager_exists, make(), n, budget)
                    assert got == want, (make(), n, budget)
                    seen.add(want if isinstance(want, bool) else want[0])
        assert seen == {True, False, UndecidedError, UndecidableDigitError}

    def test_lr_cycles_match_eager_prefix(self):
        # floats within 1e-13 of beta_3..beta_12 on either side, where
        # the pruned search cuts subtrees before a word that raises
        floats = [lambda b=float(threshold_beta(k, 1e-15)) + d: FloatBeta(b)
                  for k in range(3, 13) for d in (-1e-13, 1e-13)]
        # floats of bases whose expansion of 1 is finite: the orbit of 1
        # fails within a few digits, so a word raises on a shift that ties
        # the short prefix while a later shift already lies outside
        floats += [lambda b=float(solve_base(PeriodicSeq.parse(f"{u}(0)^w"))): FloatBeta(b)
                   for u in ("101", "10001", "110001")]
        seen = set()
        for make in self.bases() + floats:
            for n in range(1, 13):
                got = _outcome(find_lr_cycles, make(), n)
                want = _outcome(eager_lr_cycles, make(), n)
                assert got == want, (make(), n)
                seen.add(type(want) if isinstance(want, list) else want[0])
        assert seen == {list, UndecidableDigitError}

    def test_membership_search_reads_few_digits(self):
        beta = FloatBeta(1.8)
        n = 9
        exists_period_n_unique(beta, n)
        assert 0 < len(d_of_beta(beta)._digits) <= 2 * n


class TestShiftMap:
    def test_fixed_points(self):
        b = FloatBeta(1.9)
        assert shift_map(b, 0.0) == 0.0
        top = 1 / 0.9
        assert abs(shift_map(b, top) - top) < 1e-12

    def test_middle_gap(self):
        b = FloatBeta(1.9)
        with pytest.raises(MiddleGapError):
            shift_map(b, 1 / 1.9)
        with pytest.raises(MiddleGapError):
            shift_map(b, 0.55)
        with pytest.raises(OutOfDomainError):
            shift_map(b, 1.2)

    def test_conjugates_the_shift(self):
        rng = random.Random(SEED + 3)
        checked = 0
        for _ in range(800):
            s = random_purely_periodic(rng, 8)
            b = FloatBeta(rng.uniform(1.1, 1.95))
            x = expansion_value(b, s)
            try:
                fx = shift_map(b, x)
            except (MiddleGapError, OutOfDomainError):
                continue
            checked += 1
            assert abs(fx - expansion_value(b, shift(s, 1))) < 1e-12
        assert checked > 300


class TestMonotonicity:
    def test_base_order_matches_expansion_order(self):
        rng = random.Random(SEED + 4)
        words = [w for w in admissible_words(9) if w.bits.count(1) >= 2]
        pairs = 0
        while pairs < 100:
            w1, w2 = rng.sample(words, 2)
            b1, b2 = solve_base(PeriodicSeq(w1, (0,))), solve_base(PeriodicSeq(w2, (0,)))
            numeric = b1.root.compare(b2.root)
            if numeric == 0:
                continue
            # compare the freshly computed digit streams at first difference
            e1, e2 = d_of_beta(b1), d_of_beta(b2)
            lexical = 0
            for i in range(64):
                x, y = e1.digit(i), e2.digit(i)
                if x != y:
                    lexical = -1 if x < y else 1
                    break
            assert lexical == numeric, (w1, w2)
            pairs += 1


class TestNoRoom:
    def test_no_greedy_expansion_between_quasi_and_greedy(self):
        rng = random.Random(SEED + 5)
        table = ["(10)^w", "(110)^w", "(1100)^w", "(11010)^w", "(110100)^w",
                 "(1101010)^w", "(11010010)^w"]
        bases = [solve_base(PeriodicSeq.parse(t)) for t in table]
        for beta in bases:
            dprime = quasi_greedy(beta)
            dword = d_of_beta(beta)
            n = dword.finiteness[1]
            dexact = PeriodicSeq(dword.prefix(n), (0,))
            for _ in range(100):
                other = FloatBeta(rng.uniform(1.05, 1.95))
                stream = d_of_beta(other)
                # first differences against both bounds
                def cmp_stream(bound):
                    for i in range(96):
                        x, y = stream.digit(i), bound.at(i)
                        if x != y:
                            return -1 if x < y else 1
                    return 0
                above_quasi = cmp_stream(dprime) > 0
                below_greedy = cmp_stream(dexact) < 0
                assert not (above_quasi and below_greedy), (beta, other.value)


class TestQuasiGreedyFromShiftCondition:
    def test_strict_max_rotations_are_quasi_greedy(self):
        # purely periodic s with every proper shift strictly below it:
        # the last period digit is 0 and s arises as the quasi-greedy
        # form of the base whose expansion of 1 is the prefix ending in 1
        from univoque.oracle import primitive_necklaces
        for n in range(2, 11):
            for neck in primitive_necklaces(n):
                rep = neck.representative.bits
                s = PeriodicSeq((), rep)
                assert rep[-1] == 0, rep
                finite_word = rep[:-1] + (1,)
                beta = solve_base(PeriodicSeq(finite_word, (0,)))
                assert quasi_greedy(beta) == s, rep
