import dataclasses
import gc
import math
import random
import types
import warnings
from fractions import Fraction

import pytest

from univoque import oracle, words
from univoque.errors import (
    PreconditionViolated,
    TooLargeError,
    UndecidableDigitError,
    UndecidedError,
)
from univoque.expansions import (BetaValue, FloatBeta, _pruned_necklaces, d_of_beta,
                                 is_unique_expansion)
from univoque.oracle import (
    Necklace,
    exists_period_n_unique,
    extremal_rotation,
    lemma_report,
    min_beta_for_period,
    primitive_necklaces,
    verify_ordering,
)
from univoque.thresholds import sharkovskii_cmp, threshold_beta
from univoque.trapezoid import find_lr_cycles
from univoque.words import (GREATER, LESS, BinaryWord, PeriodicSeq, is_extremal, lex_cmp, mirror,
                            shift)
from util import SEED, primitive_words


def _mobius(n: int) -> int:
    res, d, m = 1, 2, n
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            res = -res
        d += 1
    if m > 1:
        res = -res
    return res


def _necklace_count(n: int) -> int:
    return sum(_mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


class TestNecklaces:
    def test_small_cases(self):
        assert [str(x.representative) for x in primitive_necklaces(1)] == ["0", "1"]
        two = primitive_necklaces(2)
        assert len(two) == 1 and str(two[0].representative) == "10"
        assert len(primitive_necklaces(6)) == 9

    def test_counts_match_mobius_formula(self):
        for n in range(1, 17):
            assert len(primitive_necklaces(n)) == _necklace_count(n), n

    def test_representative_is_max_rotation_and_primitive(self):
        for n in (5, 8, 10):
            reps = []
            for neck in primitive_necklaces(n):
                bits = neck.representative.bits
                rots = {bits[i:] + bits[:i] for i in range(n)}
                assert len(rots) == n  # primitive
                assert bits == max(rots)
                reps.append(bits)
            assert all(a < b for a, b in zip(reps, reps[1:]))

    def test_full_lists_match_brute_force(self):
        # the largest rotation of each class of primitive words, ascending
        for n in range(1, 17):
            want = sorted({max(w[i:] + w[:i] for i in range(n)) for w in primitive_words(n)})
            got = primitive_necklaces(n)
            assert [neck.representative.bits for neck in got] == want, n
            assert all(neck.period == n for neck in got)

    def test_representatives_are_plain_binary_words(self):
        # built without re-validation, they must still behave as BinaryWord(bits)
        for n in (1, 7, 12):
            for neck in primitive_necklaces(n):
                rep = neck.representative
                assert type(rep) is BinaryWord and type(rep.bits) is tuple
                assert all(type(b) is int for b in rep.bits)
                assert rep == BinaryWord(rep.bits) and hash(rep) == hash(BinaryWord(rep.bits))

    def test_necklace_is_slotted_and_frozen(self):
        neck = primitive_necklaces(3)[0]
        assert not hasattr(neck, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            neck.period = 4
        assert neck == Necklace(BinaryWord("100"), 3)
        assert hash(neck) == hash(Necklace(BinaryWord("100"), 3))

    def test_guard(self):
        with pytest.raises(TooLargeError):
            primitive_necklaces(25)


class TestNecklaceWalkers:
    def test_uncut_search_yields_every_necklace(self):
        # a stand-in bound with an empty prefix ties every shift with both
        # sides, so no cut fires and the pruned search walks all necklaces
        uncut = types.SimpleNamespace(top=b"")
        for n in range(1, 13):
            want = [neck.representative._bits for neck in reversed(primitive_necklaces(n))]
            for decode in (False, True):
                assert list(_pruned_necklaces(uncut, n, decode)) == want, (n, decode)

    def test_counts_and_trusted_necklaces_at_large_periods(self):
        for n in range(17, 21):
            got = primitive_necklaces(n)
            assert len(got) == _necklace_count(n), n
        reps = [neck.representative._bits for neck in got]
        assert all(a < b for a, b in zip(reps, reps[1:]))
        for neck in primitive_necklaces(17):
            plain = Necklace(BinaryWord(neck.representative.bits), 17)
            assert neck == plain and hash(neck) == hash(plain)
            with pytest.raises(dataclasses.FrozenInstanceError):
                neck.representative = plain.representative

    @pytest.mark.parametrize("n", [3.0, "3", None])
    def test_periods_must_be_whole_numbers(self, n):
        calls = (lambda: primitive_necklaces(n),
                 lambda: exists_period_n_unique(FloatBeta(1.9), n),
                 lambda: find_lr_cycles(FloatBeta(1.9), n),
                 lambda: min_beta_for_period(n))
        for call in calls:
            with pytest.raises(PreconditionViolated, match=f"got {n!r}"):
                call()

    def test_a_bool_period_reads_as_an_int(self):
        necks = primitive_necklaces(True)
        assert [(str(neck.representative), neck.period) for neck in necks] == [("0", 1), ("1", 1)]
        assert all(type(neck.period) is int for neck in necks)
        assert exists_period_n_unique(FloatBeta(1.9), True) is False


class TestExistence:
    def test_period_two_above_golden(self):
        assert exists_period_n_unique(FloatBeta(1.7), 2) is True

    def test_period_three_below_tribonacci(self):
        assert exists_period_n_unique(FloatBeta(1.8), 3) is False

    def test_period_three_above_tribonacci(self):
        assert exists_period_n_unique(FloatBeta(1.9), 3) is True

    def test_openness_at_thresholds(self):
        for n in range(2, 9):
            ref = float(threshold_beta(n, 1e-10))
            assert exists_period_n_unique(FloatBeta(ref - 1e-7), n) is False, n
            assert exists_period_n_unique(FloatBeta(ref + 1e-7), n) is True, n

    @staticmethod
    def by_definition(beta, n, budget):
        """One is_unique_expansion per necklace; an undecided necklace is
        remembered and raised only when none passes."""
        undecided = None
        for neck in primitive_necklaces(n):
            try:
                if is_unique_expansion(beta, PeriodicSeq((), neck.representative), budget):
                    return True
            except (UndecidedError, UndecidableDigitError) as exc:
                undecided = exc
        if undecided is not None:
            raise undecided
        return False

    @staticmethod
    def outcome(fn, *args):
        try:
            return fn(*args)
        except (UndecidedError, UndecidableDigitError) as exc:
            return type(exc), str(exc)

    def test_matches_per_necklace_definition_near_thresholds(self):
        undecided = 0
        for k in range(2, 7):
            ref = float(threshold_beta(k, 1e-15))
            for b in (ref - 1e-13, ref + 1e-13):
                for n in range(2, 9):
                    for budget in range(1, 9):
                        got = self.outcome(exists_period_n_unique, FloatBeta(b), n, budget)
                        want = self.outcome(self.by_definition, FloatBeta(b), n, budget)
                        assert got == want, (b, n, budget)
                        undecided += isinstance(got, tuple)
        assert undecided > 0

    def test_matches_per_necklace_definition_at_exact_thresholds(self):
        for k in range(2, 7):
            beta = threshold_beta(k, 1e-12)
            for n in range(2, 9):
                for budget in (None, 1, 8):
                    assert (exists_period_n_unique(beta, n, budget)
                            == self.by_definition(beta, n, budget)), (k, n, budget)

    def test_matches_per_necklace_definition_at_random_bases(self):
        rng = random.Random(SEED)
        outcomes = set()
        for _ in range(120):
            b, n = rng.uniform(1.5, 2.0), rng.randint(1, 14)
            budget = rng.choice((None, 1, 4, 12, 40))
            got = self.outcome(exists_period_n_unique, FloatBeta(b), n, budget)
            want = self.outcome(self.by_definition, FloatBeta(b), n, budget)
            assert got == want, (b, n, budget)
            outcomes.add(got if isinstance(got, bool) else got[0])
        assert {True, False} <= outcomes and len(outcomes) > 2

    def test_guards_name_the_cap(self):
        with pytest.raises(PreconditionViolated):
            exists_period_n_unique(FloatBeta(1.9), 0)
        with pytest.raises(TooLargeError, match="PERIOD_LIMIT = 32"):
            exists_period_n_unique(FloatBeta(1.9), 33)
        assert exists_period_n_unique(FloatBeta(1.9), 32) is True


class TestFastPaths:
    """Fail at once if the oracle goes back to listing every necklace."""

    def test_membership_never_lists_necklaces(self, monkeypatch):
        def refuse(n):
            raise AssertionError("the oracle listed all primitive necklaces")

        monkeypatch.setattr(oracle, "primitive_necklaces", refuse)
        monkeypatch.setattr(words, "primitive_necklaces", refuse)
        assert exists_period_n_unique(FloatBeta(1.8), 3) is False
        assert exists_period_n_unique(FloatBeta(1.9), 20) is True
        assert abs(min_beta_for_period(5, 1e-7).value - 1.8124) < 1e-4


class TestMinBeta:
    def test_golden_for_period_two(self):
        mb = min_beta_for_period(2, 1e-7)
        assert abs(mb.value - 1.6180339887) < 1e-6

    def test_matches_construction_for_small_periods(self):
        for n in range(2, 9):
            mb = min_beta_for_period(n, 1e-7)
            ref = float(threshold_beta(n, 1e-9))
            assert abs(mb.value - ref) < 1e-6, n

    def test_no_monotonicity_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            min_beta_for_period(5, 1e-6)

    def test_guards(self):
        with pytest.raises(PreconditionViolated):
            min_beta_for_period(1)
        with pytest.raises(TooLargeError, match="PERIOD_LIMIT = 32"):
            min_beta_for_period(33)

    @pytest.mark.parametrize("n", [17, 24, 31, 32])
    def test_brackets_the_certified_threshold_up_to_the_cap(self, n):
        mb = min_beta_for_period(n, 1e-6)
        value, eps = Fraction(mb.value), Fraction(1e-6)
        root = threshold_beta(n, 1e-12).root
        assert root.cmp_rational(value - eps) > 0 and root.cmp_rational(value + eps) < 0

    @pytest.mark.parametrize("eps", [0.0, 1e-17, math.nan])
    def test_rejects_eps_too_fine_for_float_midpoints(self, eps):
        with pytest.raises(PreconditionViolated):
            min_beta_for_period(2, eps)

    def test_bracket_contains_the_certified_threshold(self):
        for n in range(2, 13):
            mb = min_beta_for_period(n, 1e-9)
            value, tol = Fraction(mb.value), Fraction(mb.tolerance)
            root = threshold_beta(n, 1e-12).root
            assert root.cmp_rational(value - tol) > 0, n
            assert root.cmp_rational(value + tol) < 0, n

    @pytest.mark.parametrize("n, eps", [(2, 2.0 ** -50), (12, 1e-11)])
    def test_undecided_point_raises_without_perturbing(self, n, eps):
        # float bases this close to the threshold cannot be decided within
        # the roundoff band; the oracle says so instead of nudging the base
        with pytest.raises(UndecidedError):
            min_beta_for_period(n, eps)


class TestNoCyclicGarbage:
    """Request paths build no reference cycles, so reference counting
    frees what a call built when it returns.  A replayed operation
    sequence would otherwise put the collector on the same requests
    each time."""

    def test_request_mix_leaves_no_cyclic_garbage(self):
        def outcome(fn, *args):
            try:
                return fn(*args)
            except (UndecidedError, UndecidableDigitError):
                return None

        gc.collect()
        gc.disable()
        try:
            undecided = 0
            for k in (3, 5, 6):
                ref = float(threshold_beta(k, 1e-15))
                for b in (ref - 1e-13, ref + 1e-13, ref + 1e-3):
                    for n, budget in ((k, None), (6, 1), (6, 2), (6, 3), (8, None)):
                        undecided += outcome(exists_period_n_unique, FloatBeta(b), n,
                                             budget) is None
                    for n in (2, 3, 4, 6):
                        undecided += outcome(find_lr_cycles, FloatBeta(b), n) is None
                for n in (2, k, 6):
                    exists_period_n_unique(threshold_beta(k, 1e-12), n)
                    find_lr_cycles(threshold_beta(k, 1e-12), n)
                # beta_4 lies below beta_k
                assert is_unique_expansion(threshold_beta(k, 1e-12),
                                           PeriodicSeq.parse("(1100)^w"))
            assert undecided > 0
            assert min_beta_for_period(6).value == pytest.approx(1.78854, abs=1e-5)
            assert is_unique_expansion(FloatBeta(1.8), PeriodicSeq.parse("(0011)^w"))
            assert d_of_beta(FloatBeta(1.87)).finiteness[0] == "unknown"
            assert d_of_beta(threshold_beta(5)).finiteness[0] == "finite"
            assert d_of_beta(BetaValue.parse("poly:[-1,-1,1]@(1,2)")).finiteness[0] == "finite"
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestExtremalReduction:
    def test_max_rotation_of_unique_cycles_is_extremal(self):
        beta = FloatBeta(1.95)
        tested = 0
        for n in range(1, 11):
            for neck in primitive_necklaces(n):
                s = PeriodicSeq((), neck.representative.bits)
                try:
                    member = is_unique_expansion(beta, s)
                except Exception:
                    continue
                if not member:
                    continue
                tested += 1
                a = extremal_rotation(s)
                assert is_extremal(a), s
        assert tested > 50

    def test_extremal_rotation_dominates(self):
        rng = random.Random(SEED)
        for _ in range(300):
            q = rng.randint(1, 10)
            s = PeriodicSeq((), tuple(rng.randint(0, 1) for _ in range(q)))
            a = extremal_rotation(s)
            for j in range(len(s.period)):
                assert lex_cmp(shift(s, j), a) != GREATER
                assert lex_cmp(shift(mirror(s), j), a) != GREATER


class TestVerifyOrdering:
    def test_no_violations_to_12(self):
        report = verify_ordering(12)
        assert report["violations"] == []
        assert report["n_max"] == 12

    def test_chain_fields_and_order(self):
        report = verify_ordering(10)
        chain = report["chain"]
        assert [c["chain_position"] for c in chain] == list(range(len(chain)))
        assert all(set(c) == {"n", "beta_lo", "beta_hi", "witness_sequence",
                              "chain_position"} for c in chain)
        values = [c["beta_lo"] for c in chain]
        assert values == sorted(values)
        # adjacent entries obey the Sharkovskii order reversed
        ns = [c["n"] for c in chain]
        for a, b in zip(ns, ns[1:]):
            assert sharkovskii_cmp(b, a) == LESS

    def test_guards(self):
        with pytest.raises(TooLargeError):
            verify_ordering(31)
        with pytest.raises(PreconditionViolated):
            verify_ordering(1)


def test_lemma_report_is_clean_and_exhaustive():
    report = lemma_report()
    assert report == lemma_report()
    assert report["ok"] is True
    assert {name: (check["cases"], check["failures"])
            for name, check in report["checks"].items()} == {
        "lex-total-order": (232 ** 2, 0), "doubling-monotone": (472 - 1, 0),
        "encode-order-isomorphism": (2 * 1966 - 1, 0), "greedy-monotonicity": (224 - 1, 0)}


@pytest.mark.parametrize("check, name, broken", [
    ("lex-total-order", "lex_cmp", lambda a, b: 0),
    ("doubling-monotone", "doubling_map", lambda s: s),
    ("encode-order-isomorphism", "unimodal_cmp",
     lambda a, b, cmp=oracle.unimodal_cmp: -cmp(a, b)),
    ("greedy-monotonicity", "is_parry_admissible", lambda s: True),
])
def test_lemma_report_fails_on_a_broken_lemma(monkeypatch, check, name, broken):
    """Each check can fail: with the function it relies on broken, it
    counts failures and the report is not ok."""
    monkeypatch.setattr(oracle, name, broken)
    report = lemma_report()
    assert report["checks"][check]["failures"] > 0
    assert report["ok"] is False
