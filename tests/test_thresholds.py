import random
from fractions import Fraction

import pytest

from univoque import algebraic
from univoque.algebraic import IntPolynomial, poly_str
from univoque.errors import PreconditionViolated, TooLargeError
from univoque.expansions import d_of_beta, quasi_greedy, solve_base
from univoque.thresholds import (
    THRESHOLD_LIMIT,
    SharkovskiiKey,
    _kl_sign,
    below_komornik_loreti,
    decompose,
    greedy_threshold,
    kl_bracket,
    komornik_loreti,
    min_extremal_explicit,
    min_extremal_recursive,
    reduced_poly,
    sharkovskii_cmp,
    threshold_beta,
    threshold_poly,
)
from univoque.words import EQUAL, GREATER, LESS, PeriodicSeq, is_extremal, lex_cmp
from util import PAPER_MINIMAL_POLYS, SEED, series_kl_sign

TABLE_VALUES = {2: 1.61803, 3: 1.83929, 4: 1.75488, 5: 1.81240,
                6: 1.78854, 7: 1.80509, 8: 1.78460}
TABLE_EXPANSIONS = {2: "11", 3: "111", 4: "1101", 5: "11011",
                    6: "110101", 7: "1101011", 8: "11010011"}
TABLE_BELOW_KL = {2: True, 3: False, 4: True, 5: False,
                  6: False, 7: False, 8: True}


class TestSharkovskii:
    def test_decompose_examples(self):
        assert decompose(12) == SharkovskiiKey(2, 1)
        assert decompose(1) == SharkovskiiKey(0, 0)
        assert decompose(8) == SharkovskiiKey(3, 0)

    def test_decompose_is_a_bijection(self):
        seen = {}
        for k in range(1, 4097):
            key = decompose(k)
            assert key.k == k
            assert key not in seen
            seen[key] = k

    def test_cmp_examples(self):
        assert sharkovskii_cmp(3, 5) == LESS
        assert sharkovskii_cmp(8, 4) == LESS
        assert sharkovskii_cmp(6, 12) == LESS
        assert sharkovskii_cmp(7, 7) == EQUAL

    def test_canonical_chain_segments(self):
        chain = [3, 5, 7, 9, 2 * 3, 2 * 5, 2 * 7, 4 * 3, 4 * 5, 8 * 3, 16, 8, 4, 2, 1]
        for a, b in zip(chain, chain[1:]):
            assert sharkovskii_cmp(a, b) == LESS, (a, b)

    def test_total_order(self):
        ks = range(1, 61)
        for a in ks:
            for b in ks:
                ab = sharkovskii_cmp(a, b)
                assert ab == -sharkovskii_cmp(b, a)
                assert (ab == EQUAL) == (a == b)
        import functools
        ordered = sorted(ks, key=functools.cmp_to_key(sharkovskii_cmp))
        for a, b in zip(ordered, ordered[1:]):
            assert sharkovskii_cmp(a, b) == LESS


class TestExtremalSequences:
    def test_recursive_examples(self):
        assert str(min_extremal_recursive(1)) == "(1)^w"
        assert str(min_extremal_recursive(2)) == "(10)^w"
        assert str(min_extremal_recursive(4)) == "(1100)^w"
        assert str(min_extremal_recursive(6)) == "(110100)^w"

    def test_explicit_examples(self):
        assert str(min_extremal_explicit(4)) == "(1100)^w"
        assert str(min_extremal_explicit(3)) == "(110)^w"
        assert str(min_extremal_explicit(12)) == "(110100110010)^w"

    def test_constructions_agree_to_64(self):
        for k in range(1, 65):
            a = min_extremal_recursive(k)
            b = min_extremal_explicit(k)
            assert a == b, k
            if k >= 2:
                assert a.is_purely_periodic
                assert len(a.period) == k
            assert is_extremal(a), k

    def test_first_column_matches_quasi_greedy_rule(self):
        for n, digits in TABLE_EXPANSIONS.items():
            a = min_extremal_recursive(n)
            assert str(a.period) == digits[:-1] + "0"


class TestThresholdPolynomials:
    def test_examples(self):
        assert poly_str(threshold_poly(2)) == "x^2-x-1"
        assert poly_str(threshold_poly(3)) == "x^3-x^2-x-1"
        assert poly_str(threshold_poly(4)) == "x^4-x^3-x^2-1"

    def test_factorization_of_k4(self):
        assert IntPolynomial([1, 1]) * PAPER_MINIMAL_POLYS[4] == threshold_poly(4)

    def test_reduced_poly_is_the_paper_minimal_poly(self):
        for n, minimal in PAPER_MINIMAL_POLYS.items():
            assert reduced_poly(n) == minimal, n

    def test_matches_base_equation_of_extremal_sequence(self):
        for k in range(2, 20):
            direct = threshold_poly(k)
            via_equation = solve_base(min_extremal_recursive(k)).poly
            assert direct == via_equation, k

    def test_reduced_poly(self):
        assert poly_str(reduced_poly(4)) == "x^3-2x^2+x-1"
        assert poly_str(reduced_poly(7)) == "x^6-2x^5+x^4-x^3-1"
        for k in range(2, 16):
            red = threshold_beta(k, 1e-6)
            assert red.sign_at_root(reduced_poly(k)) == 0, k

    def test_requires_k_at_least_2(self):
        with pytest.raises(PreconditionViolated):
            threshold_poly(1)


class TestReducedPoly:
    def test_minimal_degrees(self):
        degrees = {k: reduced_poly(k).degree for k in (8, 16, 24, 32, 40)}
        assert degrees == {8: 5, 16: 9, 24: 21, 32: 17, 40: 37}

    def test_cyclotomic_factorization(self):
        # threshold_poly(k) = C_k * M_k with C_k = (x^(2^(n-1)) - 1) / (x - 1)
        # for k = 2^n * odd, n >= 2; M_7 alone keeps a factor x + 1
        for k in range(2, 65):
            n = decompose(k).n
            product = IntPolynomial([1] * (1 << (n - 1)) if n >= 2 else [1])
            if k == 7:
                product = product * IntPolynomial([1, 1])
            assert product * reduced_poly(k) == threshold_poly(k), k

    def test_takes_no_gcd(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("reduced_poly took a gcd")

        monkeypatch.setattr(algebraic, "squarefree_part", refuse)
        monkeypatch.setattr(algebraic, "poly_gcd", refuse)
        with pytest.raises(PreconditionViolated):
            reduced_poly(1)
        for k in range(2, 41):
            assert reduced_poly(k).degree >= 2, k


class TestThresholdValues:
    def test_table_numerics(self):
        for n, value in TABLE_VALUES.items():
            beta = threshold_beta(n, 1e-8)
            assert abs(float(beta) - value) < 1e-5, n

    def test_expansion_of_one_matches_table(self):
        from univoque.expansions import d_of_beta
        for n, digits in TABLE_EXPANSIONS.items():
            exp = d_of_beta(threshold_beta(n, 1e-8))
            assert exp.finiteness == ("finite", n)
            assert str(exp.prefix(n)) == digits

    def test_exact_orbit_confirms_the_word_rule_to_64(self):
        # the table reads d_beta_n from a_n alone: a_n is extremal, so the
        # greedy expansion of 1 at beta_n is a_n with its last 0 raised
        for n in range(2, 65):
            word = min_extremal_recursive(n).period.bits
            exp = d_of_beta(threshold_beta(n, 1e-8))
            assert exp.finiteness == ("finite", n), n
            assert exp.prefix(n).bits == word[:-1] + (1,), n

    def test_quasi_greedy_identity(self):
        for k in range(2, 13):
            assert quasi_greedy(threshold_beta(k, 1e-8)) == min_extremal_recursive(k), k

    def test_interval_width_honors_eps(self):
        beta = threshold_beta(5, 1e-10)
        lo, hi = beta.interval
        assert hi - lo < Fraction(1, 10 ** 10)

    def test_extremal_chain_matches_sharkovskii(self):
        seqs = {k: min_extremal_recursive(k) for k in range(2, 31)}
        for k in range(2, 31):
            for m in range(2, 31):
                if k == m:
                    continue
                # earlier in the Sharkovskii order means larger sequence
                expected = GREATER if sharkovskii_cmp(k, m) == LESS else LESS
                assert lex_cmp(seqs[k], seqs[m]) == expected, (k, m)

    def test_power_of_two_thresholds_increase(self):
        prev = None
        for j in range(1, 5):
            beta = threshold_beta(2 ** j, 1e-8)
            if prev is not None:
                assert prev.root.compare(beta.root) == -1
            prev = beta


class TestKomornikLoreti:
    def test_value(self):
        kl = komornik_loreti(1e-5)
        assert abs(float(kl) - 1.78723) < 1e-5

    def test_brackets_nest(self):
        coarse = kl_bracket(Fraction(1, 100))
        fine = kl_bracket(Fraction(1, 10 ** 7))
        assert coarse[0] <= fine[0] <= fine[1] <= coarse[1]
        # a bracket depends on eps alone, not on earlier calls: bisection
        # from (3/2, 2) stops at the first width below eps
        assert kl_bracket(Fraction(1, 100)) == coarse
        assert Fraction(1, 200) <= coarse[1] - coarse[0] < Fraction(1, 100)

    def test_word_sign_matches_the_series(self):
        """The bisection's word sign equals the truncated series with its
        tail bound at the series' own bisection midpoints down to 2^-60,
        at fractions of small denominator next to the constant and at
        seeded dyadic and non-dyadic p/q in (3/2, 2)."""
        def series_bisection(width):
            lo, hi, mids = Fraction(3, 2), Fraction(2), []
            while hi - lo >= width:
                mids.append((lo + hi) / 2)
                if series_kl_sign(mids[-1]) > 0:
                    lo = mids[-1]
                else:
                    hi = mids[-1]
            return (lo, hi), mids

        assert kl_bracket(Fraction(1, 2 ** 40)) == series_bisection(Fraction(1, 2 ** 40))[0]
        (lo, _), points = series_bisection(Fraction(1, 2 ** 60))
        points += [lo.limit_denominator(10 ** k) for k in range(1, 16)]
        rng = random.Random(SEED)
        for _ in range(80):
            j = rng.randint(2, 60)
            points.append(Fraction(rng.randrange(3 << (j - 1), 1 << (j + 1)) | 1, 1 << j))
            q = rng.randrange(3, 10 ** 6, 2)
            points.append(Fraction(rng.randrange(3 * q // 2 + 1, 2 * q), q))
        points = set(points)
        assert len(points) >= 200
        assert all(Fraction(3, 2) < x < 2 for x in points)
        for x in points:
            assert _kl_sign(x) == series_kl_sign(x), x

    def test_below_flags(self):
        for n, flag in TABLE_BELOW_KL.items():
            assert below_komornik_loreti(n) == flag, n

    def test_word_criterion_matches_series_bracket(self):
        klo, khi = kl_bracket(Fraction(1, 10 ** 12))
        for k in range(2, 25):
            blo, bhi = threshold_beta(k, 1e-12).interval
            assert bhi < klo or khi < blo, k
            assert below_komornik_loreti(k) == (bhi < klo), k

    def test_large_periods_below_exactly_at_powers_of_two(self):
        for k in (256, 512, 768, 1000, 1024):
            assert below_komornik_loreti(k) == (k & (k - 1) == 0), k

    def test_below_requires_k_at_least_2(self):
        with pytest.raises(PreconditionViolated):
            below_komornik_loreti(1)

    def test_kl_sits_between_6_and_8(self):
        lo, hi = kl_bracket(Fraction(1, 10 ** 7))
        b6 = threshold_beta(6, 1e-8)
        b8 = threshold_beta(8, 1e-8)
        assert b8.interval[1] < lo
        assert hi < b6.interval[0]


class TestGreedyThreshold:
    def test_golden_for_period_2(self):
        assert abs(float(greedy_threshold(2)) - 1.61803) < 1e-5

    def test_supergolden_for_period_3(self):
        assert abs(float(greedy_threshold(3)) - 1.46557) < 1e-5

    def test_quasi_greedy_form(self):
        for n in range(2, 9):
            q = greedy_threshold(n)
            expected = PeriodicSeq((), (1,) + (0,) * (n - 1))
            assert quasi_greedy(q) == expected, n

    def test_strictly_decreasing_in_n(self):
        prev = None
        for n in range(2, 9):
            q = greedy_threshold(n)
            if prev is not None:
                assert q.root.compare(prev.root) == -1
            prev = q

    def test_requires_n_at_least_2(self):
        with pytest.raises(PreconditionViolated):
            greedy_threshold(1)


class TestPeriodCap:
    @pytest.mark.parametrize("build", [min_extremal_recursive, min_extremal_explicit,
                                       greedy_threshold, threshold_beta])
    @pytest.mark.parametrize("k", [THRESHOLD_LIMIT + 1, 99999999999999])
    def test_refused_before_any_word_is_built(self, build, k):
        # the huge period would ask for a word of 10^14 symbols
        with pytest.raises(TooLargeError, match=f"period {k} exceeds THRESHOLD_LIMIT = 1024"):
            build(k)
