import random
import re
from fractions import Fraction
from math import lcm, nan

import pytest

from univoque import algebraic, oracle
from univoque.errors import PreconditionViolated
from univoque.algebraic import (
    CertifiedRoot,
    IntPolynomial,
    isolate_roots,
    poly_gcd,
    poly_str,
    squarefree_part,
    _descartes_bound,
    _interval_eval,
    _map_unit_interval,
    _primitive,
    _sign_variations,
)
from univoque.expansions import AlgebraicBeta, d_of_beta, greedy_digits
from univoque.thresholds import sharkovskii_cmp, threshold_beta, threshold_poly
from util import SEED, bisection_compare, bisection_refine

GOLDEN = IntPolynomial([-1, -1, 1])  # x^2 - x - 1


def _random_poly(rng, max_deg=6, max_coeff=9):
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randint(-max_coeff, max_coeff) for _ in range(deg)]
    coeffs.append(rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c]))
    return IntPolynomial(coeffs)


def _count_values(monkeypatch) -> list:
    """The arguments of every exact evaluation (algebraic._value) from
    here until the patch is undone."""
    calls = []
    value = algebraic._value

    def counting(*args):
        calls.append(args)
        return value(*args)

    monkeypatch.setattr(algebraic, "_value", counting)
    return calls


def _record_events(monkeypatch) -> list:
    """The levels each CertifiedRoot._descend asks for, and "gcd" for each
    CertifiedRoot.vanishes, in order, until the patches are undone."""
    events = []
    descend, vanishes = CertifiedRoot._descend, CertifiedRoot.vanishes

    def descending(self, iv, k, ends=(None, None)):
        events.append(k)
        return descend(self, iv, k, ends)

    def testing(self, r):
        events.append("gcd")
        return vanishes(self, r)

    monkeypatch.setattr(CertifiedRoot, "_descend", descending)
    monkeypatch.setattr(CertifiedRoot, "vanishes", testing)
    return events


class TestIntPolynomial:
    def test_normalization(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial([]).is_zero
        assert IntPolynomial([0]).degree == 0

    @pytest.mark.parametrize("coeffs", [(), [], (0,), (0, 0), [0, 0, 0], (-1, -1, 1),
                                        [-1, -1, 1], (1, 2, 0, 0), [1, 2, 0, 0], (5,),
                                        [0, 3, 0], (-(2 ** 100), 0, 7, 0)])
    def test_trusted_build_is_the_checked_one(self, coeffs):
        trusted, checked = IntPolynomial._trusted(coeffs), IntPolynomial(coeffs)
        assert trusted == checked and hash(trusted) == hash(checked)
        assert trusted.coeffs == checked.coeffs
        assert type(trusted.coeffs) is tuple
        assert trusted.is_zero == (not any(coeffs))

    @pytest.mark.parametrize("bad", [1.9, "1", None, Fraction(1, 2), 2.0])
    def test_refuses_a_coefficient_that_is_not_a_whole_number(self, bad):
        with pytest.raises(PreconditionViolated, match=re.escape(f"got {bad!r}")):
            IntPolynomial([-1, bad, 1])

    def test_whole_numbers_read_as_they_are(self):
        coeffs = IntPolynomial([True, False, -1]).coeffs
        assert coeffs == (1, 0, -1) and {type(c) for c in coeffs} == {int}
        with pytest.raises(PreconditionViolated, match="-1.7"):
            IntPolynomial([-1.7, -1, 1])
        # truncated to 1, the leading 1.9 would certify the golden mean
        with pytest.raises(PreconditionViolated, match="1.9"):
            AlgebraicBeta(IntPolynomial([-1, -1, 1.9]))

    def test_eval_and_sign(self):
        p = IntPolynomial([-1, -1, 1])  # x^2 - x - 1
        assert p(2) == 1
        assert p(Fraction(3, 2)) == Fraction(-1, 4)
        assert p.sign_at(Fraction(3, 2)) == -1
        assert p.sign_at(2) == 1
        assert p.sign_at(Fraction(1)) == -1

    def test_sign_matches_eval(self):
        rng = random.Random(SEED)
        for _ in range(300):
            p = _random_poly(rng)
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            v = p(x)
            assert p.sign_at(x) == (v > 0) - (v < 0)

    def test_integer_horner_on_either_kind_of_denominator(self):
        """_value is sum c_i p^i q^(d-i) for odd, even and power-of-two q."""
        rng = random.Random(SEED + 9)
        for _ in range(300):
            p = _random_poly(rng, 12)
            num = rng.randint(-10 ** 6, 10 ** 6)
            q = rng.choice([2 ** rng.randint(0, 80), rng.randint(1, 10 ** 6)])
            d = p.degree
            assert algebraic._value(p.coeffs, num, q) == sum(
                c * num ** i * q ** (d - i) for i, c in enumerate(p.coeffs))

    def test_derivative(self):
        assert IntPolynomial([-1, -1, 1]).derivative().coeffs == (-1, 2)
        assert IntPolynomial([5]).derivative().is_zero

    def test_mul_and_divides(self):
        rng = random.Random(SEED + 1)
        for _ in range(100):
            a, b = _random_poly(rng, 4), _random_poly(rng, 4)
            prod = a * b
            assert a.divides(prod) and b.divides(prod)
            assert prod.exact_div(a) == b
        assert not IntPolynomial([1, 1]).divides(IntPolynomial([-1, -1, 1]))
        # 2x + 2 divides x + 1 over the rationals, not over the integers
        assert IntPolynomial([2, 2]).divides(IntPolynomial([1, 1]))
        with pytest.raises(ValueError):
            IntPolynomial([1, 1]).exact_div(IntPolynomial([2, 2]))

    def test_str(self):
        assert poly_str(IntPolynomial([-1, -1, 1])) == "x^2-x-1"
        assert poly_str(IntPolynomial([-1, 0, 1, 0, -2, 1])) == "x^5-2x^4+x^2-1"
        assert poly_str(IntPolynomial([-1, 1, -2, 1])) == "x^3-2x^2+x-1"
        assert poly_str(IntPolynomial([3])) == "3"
        assert poly_str(IntPolynomial([0, 1])) == "x"


class TestGcdSquarefree:
    def test_gcd_of_product(self):
        rng = random.Random(SEED + 2)
        for _ in range(60):
            a, b, c = (_random_poly(rng, 3) for _ in range(3))
            g = poly_gcd(a * c, b * c)
            # c divides the gcd (up to content)
            sq_c = squarefree_part(c)
            assert poly_gcd(g, sq_c).degree >= 0
            assert c.degree <= g.degree or poly_gcd(a, b).degree > 0 or c.degree == 0 or \
                poly_gcd(a * c, b * c).degree >= c.degree

    def test_squarefree_collapses_powers(self):
        p = IntPolynomial([-1, -1, 1])
        assert squarefree_part(p * p) == p
        assert squarefree_part(p * p * p) == p
        q = IntPolynomial([1, 1])
        assert squarefree_part(p * p * q) == p * q

    def test_squarefree_keeps_squarefree(self):
        quartic = IntPolynomial([-1, 0, -1, -1, 1])
        assert squarefree_part(quartic) == quartic


class TestIsolation:
    def test_simple_cases(self):
        sqrt2 = IntPolynomial([-2, 0, 1])
        ivals = isolate_roots(sqrt2, 0, 3)
        assert len(ivals) == 1
        lo, hi = ivals[0]
        assert lo <= Fraction(141421356, 100000000) <= hi or lo <= hi

    def test_counts_all_roots(self):
        # (x-1)(x-2)(x-3) has three roots in (0, 4)
        p = IntPolynomial([-6, 11, -6, 1])
        ivals = isolate_roots(p, Fraction(1, 2), 4)
        assert len(ivals) == 3

    def test_rational_root_detected(self):
        p = IntPolynomial([-3, 2])  # root 3/2
        (lo, hi), = isolate_roots(p, 1, 2)
        assert lo <= Fraction(3, 2) <= hi
        # a root hit exactly by a bisection midpoint is deflated out
        p3 = IntPolynomial([-3, 2]) * IntPolynomial([-1, 1]) * IntPolynomial([-2, 1])
        ivals = isolate_roots(p3, Fraction(1, 2), Fraction(5, 2))
        assert len(ivals) == 3
        assert (Fraction(3, 2), Fraction(3, 2)) in ivals

    def test_random_products_of_linear_factors(self):
        rng = random.Random(SEED + 3)
        for _ in range(50):
            roots = sorted(rng.sample(range(1, 40), rng.randint(1, 4)))
            p = IntPolynomial([1])
            for r in roots:
                p = p * IntPolynomial([-r, 1])
            ivals = isolate_roots(p, Fraction(1, 2), 41)
            assert len(ivals) == len(roots)
            for (lo, hi), r in zip(ivals, roots):
                assert lo <= r <= hi

    @pytest.mark.parametrize("third", [1, 3])
    def test_no_interval_ends_at_a_root_found_at_a_midpoint(self, third):
        """1 + 2^-59 is a bisection midpoint and a root; the cell (1, 1 +
        2^-59) left of it holds one root of the deflated polynomial, and
        is split on until it no longer ends at 1 + 2^-59.  With third = 1
        the split lands on the other root, with third = 3 it does not."""
        t = 2 ** 60
        p = IntPolynomial([-(third * t + 1), third * t]) * IntPolynomial([-(t + 2), t])
        ivals = isolate_roots(p, 1, 2)
        assert len(ivals) == 2 and (1 + Fraction(2, t),) * 2 in ivals
        for a, b in ivals:
            if a < b:
                assert p.sign_at(a) != 0 and p.sign_at(b) != 0
                assert CertifiedRoot(p, a, b).interval == (a, b)
            else:
                assert p.sign_at(a) == 0


class TestCertifiedRoot:
    def test_refine_and_float(self):
        r = CertifiedRoot(IntPolynomial([-1, -1, 1]), 1, 2)
        r.refine(Fraction(1, 10 ** 15))
        assert abs(float(r) - 1.6180339887498949) < 1e-14

    def test_float_moves_no_interval(self):
        # float() reads the cell that refine(2^-60) reaches, found on a copy
        r = CertifiedRoot(IntPolynomial([-1, -1, 1]), 1, 2)
        value = float(r)
        assert r.interval == (1, 2)
        a, b = r.refine(Fraction(1, 2 ** 60)).interval
        assert value == float((a + b) / 2)

    def test_interval_only_shrinks(self):
        r = CertifiedRoot(IntPolynomial([-1, -1, -1, 1]), 1, 2)
        lo0, hi0 = r.interval
        r.refine(Fraction(1, 10 ** 6))
        lo1, hi1 = r.interval
        assert lo0 <= lo1 < hi1 <= hi0

    def test_rejects_no_or_many_roots(self):
        with pytest.raises(ValueError):
            CertifiedRoot(IntPolynomial([-6, 11, -6, 1]), 0, 4)  # three roots
        with pytest.raises(ValueError):
            CertifiedRoot(IntPolynomial([1, 0, 1]), 0, 4)  # no real roots
        # one sign variation alone: it counts positive roots only, and only
        # a sign change across the interval puts one in it
        with pytest.raises(ValueError, match="found 0"):
            CertifiedRoot(IntPolynomial([-3, 1]), 1, 2)  # x - 3
        with pytest.raises(ValueError, match="found 2"):
            # (x + 1)^2 (x - 1) has one variation and roots -1, -1, 1
            CertifiedRoot(IntPolynomial([-1, -1, 1, 1]), -2, 2)

    def test_sign_at_root(self):
        golden = CertifiedRoot(IntPolynomial([-1, -1, 1]), 1, 2)
        assert golden.sign_at_root(IntPolynomial([-1, -1, 1])) == 0
        # (x^2 - x - 1) * (x + 7) also vanishes
        assert golden.sign_at_root(IntPolynomial([-1, -1, 1]) * IntPolynomial([7, 1])) == 0
        assert golden.sign_at_root(IntPolynomial([-3, 2])) == 1   # 2x - 3
        assert golden.sign_at_root(IntPolynomial([-17, 10])) == -1  # 10x - 17
        assert golden.sign_at_root(IntPolynomial([0])) == 0

    def test_compare(self):
        golden = CertifiedRoot(IntPolynomial([-1, -1, 1]), 1, 2)
        tribo = CertifiedRoot(IntPolynomial([-1, -1, -1, 1]), 1, 2)
        quartic = CertifiedRoot(IntPolynomial([-1, 0, -1, -1, 1]), 1, 2)
        cubic = CertifiedRoot(IntPolynomial([-1, 1, -2, 1]), 1, 2)
        assert golden.compare(tribo) == -1
        assert tribo.compare(golden) == 1
        assert quartic.compare(cubic) == 0  # same number, different polynomials
        assert golden.compare(golden) == 0

    def test_cmp_rational(self):
        golden = CertifiedRoot(IntPolynomial([-1, -1, 1]), 1, 2)
        assert golden.cmp_rational(Fraction(8, 5)) == 1
        assert golden.cmp_rational(Fraction(17, 10)) == -1
        half = CertifiedRoot(IntPolynomial([-3, 2]), 1, 2)
        assert half.cmp_rational(Fraction(3, 2)) == 0

    def test_repeated_factors_isolate_the_simple_root(self):
        golden_poly = IntPolynomial([-1, -1, 1])
        r = CertifiedRoot(golden_poly * golden_poly * IntPolynomial([7, 1]), 1, 2)
        assert r.compare(CertifiedRoot(golden_poly, 1, 2)) == 0
        assert r.cmp_rational(Fraction(8, 5)) == 1
        assert r.cmp_rational(1) == 1
        assert r.cmp_rational(2) == -1

    def test_close_roots_separate(self):
        # roots of (10x - 16) and (100x - 161) are 0.0006 apart
        a = CertifiedRoot(IntPolynomial([-16, 10]), 1, 2)
        b = CertifiedRoot(IntPolynomial([-161, 100]), 1, 2)
        assert a.compare(b) == -1


class TestConstructionPaths:
    """A polynomial with one Descartes sign variation on the interval
    serves as its own `_sq`, squarefree or not; any other is reduced to
    its squarefree part and isolated.  Both must give the same number."""

    SHORTCUT = GOLDEN * IntPolynomial([1, 1]) * IntPolynomial([1, 1])  # g (x+1)^2
    FALLBACK = GOLDEN * GOLDEN  # g^2

    def test_each_polynomial_takes_its_path(self):
        assert _descartes_bound(self.SHORTCUT, 1, 2) == 1
        r = CertifiedRoot(self.SHORTCUT, 1, 2)
        assert r._sq == self.SHORTCUT != squarefree_part(self.SHORTCUT)
        assert r.interval == (1, 2)
        assert _descartes_bound(self.FALLBACK, 1, 2) == 2
        assert CertifiedRoot(self.FALLBACK, 1, 2)._sq == GOLDEN

    @pytest.mark.parametrize("poly", [SHORTCUT, FALLBACK], ids=["shortcut", "fallback"])
    def test_same_number_as_the_squarefree_root(self, poly):
        golden = CertifiedRoot(GOLDEN, 1, 2)
        r = CertifiedRoot(poly, 1, 2)
        assert r.compare(golden) == 0 and golden.compare(r) == 0
        for x in (1, Fraction(8, 5), Fraction(1618, 1000), Fraction(1619, 1000), 2):
            assert r.cmp_rational(x) == golden.cmp_rational(x)
        for q in (GOLDEN, GOLDEN * IntPolynomial([7, 1]), IntPolynomial([-3, 2]),
                  IntPolynomial([-17, 10]), IntPolynomial([1, 1]), IntPolynomial([0])):
            assert r.sign_at_root(q) == golden.sign_at_root(q)
        beta, ref = AlgebraicBeta(poly), AlgebraicBeta(GOLDEN)
        assert d_of_beta(beta).finiteness == d_of_beta(ref).finiteness
        assert greedy_digits(beta, 1, 40) == greedy_digits(ref, 1, 40)
        assert greedy_digits(beta, Fraction(2, 3), 40) == greedy_digits(ref, Fraction(2, 3), 40)


class TestFastPaths:
    """Fail at once if a slow path returns to where it was removed."""

    def test_threshold_compare_never_bisects_for_signs(self, monkeypatch):
        betas = {k: threshold_beta(k) for k in range(2, 41)}

        def refuse(*args):
            raise AssertionError("compare ran the interval sign loop")

        monkeypatch.setattr(algebraic, "_interval_eval", refuse)
        for k in betas:
            for m in betas:
                assert betas[k].root.compare(betas[m].root) == sharkovskii_cmp(m, k), (k, m)
        # the guard holds only while sign_at_root looks the name up
        with pytest.raises(AssertionError, match="interval sign loop"):
            betas[2].root.cmp_rational(Fraction(3, 2))

    def test_threshold_expansion_of_one_runs_no_gcd(self, monkeypatch):
        """The last digit's remainder is the zero polynomial, and every
        other digit is decided by the enclosure alone."""
        betas = {k: threshold_beta(k, 2 ** -34) for k in range(2, 25)}

        def refuse(*args):
            raise AssertionError("poly_gcd ran in the orbit of 1")

        monkeypatch.setattr(algebraic, "poly_gcd", refuse)
        for k, beta in betas.items():
            assert d_of_beta(beta).finiteness == ("finite", k)

    def test_squarefree_threshold_skips_the_gcd(self, monkeypatch):
        def refuse(p):
            raise AssertionError("squarefree_part ran on a simple root")

        monkeypatch.setattr(algebraic, "squarefree_part", refuse)
        lo, hi = threshold_beta(1024).interval
        poly = threshold_poly(1024)
        assert poly.sign_at(lo) * poly.sign_at(hi) < 0

    def test_threshold_builds_with_four_exact_values(self, monkeypatch):
        """Two end signs when the root is made, the one at lo kept, and the
        two ends of the cell a float root proposes: the secant jumps alone
        take 15 or more."""
        calls = _count_values(monkeypatch)
        for k in (*range(2, 257), 1024):
            calls.clear()
            threshold_beta(k, 2 ** -34)
            assert len(calls) <= 4, (k, len(calls))

    @pytest.mark.parametrize("eps", [1e-8, 2 ** -6])
    def test_each_root_computes_one_newton_float(self, monkeypatch, eps):
        """At either width a threshold computes its float root once, to
        build; at 2^-6 the copy that float() refines is deep enough to
        propose, and it reuses that float instead of computing another."""
        calls = []
        float_root = algebraic._float_root

        def counting(coeffs, lo, hi, s_lo):
            calls.append(coeffs)
            return float_root(coeffs, lo, hi, s_lo)

        monkeypatch.setattr(algebraic, "_float_root", counting)
        betas = {k: threshold_beta(k, eps) for k in range(2, 65)}
        assert calls
        for beta in betas.values():
            float(beta)
        for k in betas:
            for m in betas:
                assert betas[k].root.compare(betas[m].root) == sharkovskii_cmp(m, k)
        # each threshold polynomial is a different one
        assert len(set(calls)) == len(calls) <= len(betas)


class TestPointIntervals:
    """A root refined onto a bisection midpoint becomes a point interval;
    comparing it must still end."""

    def test_point_against_interval_and_point(self):
        half = IntPolynomial([-3, 2])
        point = CertifiedRoot(half, 1, 2).refine(Fraction(1, 10))
        assert point.interval == (Fraction(3, 2), Fraction(3, 2))
        assert CertifiedRoot(half, 1, 2).compare(point) == 0
        assert point.compare(CertifiedRoot(half, 1, 2)) == 0
        assert point.compare(CertifiedRoot(half, Fraction(3, 2), Fraction(3, 2))) == 0
        # the point's polynomial also vanishes at the other root, 5/4
        five_quarters = CertifiedRoot(IntPolynomial([-5, 4]), 1, 2)
        pair = CertifiedRoot(half * IntPolynomial([-5, 4]), Fraction(3, 2), Fraction(3, 2))
        assert five_quarters.compare(pair) == -1 and pair.compare(five_quarters) == 1
        assert CertifiedRoot(GOLDEN, 1, 2).compare(point) == 1


def _twins(poly, lo, hi):
    return CertifiedRoot(poly, lo, hi), CertifiedRoot(poly, lo, hi)


def _same_state(r, ref):
    return r._iv == ref._iv and r._sign_lo == ref._sign_lo and r._sq == ref._sq


class TestVerifiedJumps:
    """refine and compare jump over bisection levels, and must leave every
    interval exactly where the bisection loops they replaced leave it
    (tests/util.py keeps those loops as the reference)."""

    WIDTHS = (Fraction(1, 2 ** 34), 1e-8, 1e-20, Fraction(1, 2 ** 60), Fraction(1, 3 ** 50))

    def test_threshold_refine_matches_bisection(self):
        for k in (*range(2, 81), 128, 256):
            poly = threshold_poly(k)
            for width in self.WIDTHS:
                r, ref = _twins(poly, 1, 2)
                r.refine(width)
                bisection_refine(ref, width)
                assert _same_state(r, ref), (k, width)

    @pytest.mark.parametrize("width", [Fraction(1, 2 ** 34), 1e-8, Fraction(1, 2 ** 20)])
    def test_threshold_compare_matches_bisection(self, width):
        """All pairs of 2..69 in turn, so each compare starts from the
        intervals that the earlier ones left."""
        roots = {k: _twins(threshold_poly(k), 1, 2) for k in range(2, 70)}
        for r, ref in roots.values():
            r.refine(width)
            bisection_refine(ref, width)
        for k in range(2, 70):
            for m in range(k + 1, 70):
                (r1, ref1), (r2, ref2) = roots[k], roots[m]
                assert r1.compare(r2) == bisection_compare(ref1, ref2), (k, m)
                assert _same_state(r1, ref1) and _same_state(r2, ref2), (k, m)

    def test_random_roots_match_bisection(self):
        """Rational roots that a bisection midpoint hits (point intervals),
        rational roots none hits, quadratic irrationals, repeated factors
        and equal roots of different polynomials, on intervals either
        side of 0, through seeded refines and compares."""
        rng = random.Random(SEED + 7)
        targets = [IntPolynomial([-3, 2]), IntPolynomial([-5, 4]), IntPolynomial([-11, 8]),
                   IntPolynomial([-4, 3]), IntPolynomial([-7, 5]), IntPolynomial([-1, -1, 1]),
                   IntPolynomial([-2, 0, 1]), IntPolynomial([-3, 0, 1])]
        pool = []
        for _ in range(60):
            target = rng.choice(targets)
            poly = target * target if rng.random() < 0.2 else target
            for _ in range(rng.randint(0, 2)):  # cofactors with no root in [-2, 2]
                c = rng.choice([3, 4, 5, 7])
                poly = poly * rng.choice([IntPolynomial([c, 1]), IntPolynomial([-c, 1]),
                                          IntPolynomial([c, 0, 1])])
            if rng.random() < 0.3:  # the same roots mirrored into (-2, -1)
                poly = IntPolynomial(c * (-1) ** i for i, c in enumerate(poly.coeffs))
                pool.append(_twins(poly, -2, -1))
            else:
                pool.append(_twins(poly, 1, 2))
        for _ in range(400):
            if rng.random() < 0.4:
                (r, ref), width = rng.choice(pool), rng.choice(self.WIDTHS + (Fraction(1, 5),))
                r.refine(width)
                bisection_refine(ref, width)
                assert _same_state(r, ref)
            else:
                (r1, ref1), (r2, ref2) = rng.choice(pool), rng.choice(pool)
                assert r1.compare(r2) == bisection_compare(ref1, ref2)
                assert _same_state(r1, ref1) and _same_state(r2, ref2)
        assert any(r._iv[0] == r._iv[1] for r, _ in pool)

    def test_rejected_proposals_match_bisection(self):
        """Proposals that miss: a steep polynomial, far from linear where
        the secant starts, and a root 1/(3 2^60) from its neighbour."""
        big, n = 2 ** 1100, 3 * 2 ** 60
        steep = IntPolynomial([-(2 * big + 3)] + [0] * 19 + [big + 1])
        close = IntPolynomial([-n - 1, n]) * IntPolynomial([-n - 2, n])
        cases = [(steep, 1, 2)] + [(close, lo, hi) for lo, hi in isolate_roots(close, 1, 2)]
        assert len(cases) == 3
        for width in self.WIDTHS:
            twins = [_twins(*case) for case in cases]
            for r, ref in twins:
                r.refine(width)
                bisection_refine(ref, width)
                assert _same_state(r, ref), width
            (r1, ref1), (r2, ref2) = twins[1:]
            assert r1.compare(r2) == bisection_compare(ref1, ref2)
            assert _same_state(r1, ref1) and _same_state(r2, ref2)

    @pytest.mark.parametrize("proposal", ["none", "nan", "above", "below", "one cell off"])
    def test_wrong_float_proposals_match_bisection(self, monkeypatch, proposal):
        """A float only proposes: when it proposes nothing, NaN, a point
        outside the bracket or a point one cell of its level away from the
        root, every interval is still the cell that bisection reaches.
        Each root keeps its wrong float, and later refines and compares
        of the same twins propose it again."""
        float_root, descend = algebraic._float_root, CertifiedRoot._descend
        seen = {"proposals": 0, "uses": 0}

        class Proposal(float):
            """A float that counts the descents it proposes a cell in."""

            def as_integer_ratio(self):
                seen["uses"] += 1
                return super().as_integer_ratio()

        def entering(self, iv, k, ends=(None, None)):
            seen["iv"], seen["k"] = iv, k
            return descend(self, iv, k, ends)

        def wrong(coeffs, lo, hi, s_lo):
            seen["proposals"] += 1
            if proposal == "nan":
                return nan
            if proposal == "above":
                return Proposal(2 * hi - lo)
            if proposal == "below":
                return Proposal(2 * lo - hi)
            if proposal == "one cell off":
                a, b, den = seen["iv"]
                t = min(seen["k"], algebraic._FLOAT_BITS
                        - (max(abs(a), abs(b)).bit_length() - (b - a).bit_length()))
                return Proposal(float_root(coeffs, lo, hi, s_lo) + float((hi - lo) / 2 ** t))
            return None

        monkeypatch.setattr(CertifiedRoot, "_descend", entering)
        monkeypatch.setattr(algebraic, "_float_root", wrong)
        for k in (*range(2, 41), 128, 256):
            poly = threshold_poly(k)
            for width in self.WIDTHS:
                r, ref = _twins(poly, 1, 2)
                r.refine(width)
                bisection_refine(ref, width)
                assert _same_state(r, ref), (k, width)
        assert seen["proposals"] > 0

        # coarse roots compute their floats; compares and finer refines of
        # the same twins reuse them and compute none
        twins = {k: _twins(threshold_poly(k), 1, 2) for k in (3, 5, 6, 8, 12, 40, 128)}
        for r, ref in twins.values():
            r.refine(Fraction(1, 2 ** 6))
            bisection_refine(ref, Fraction(1, 2 ** 6))
            assert _same_state(r, ref)
        proposals, uses = seen["proposals"], seen["uses"]
        for k in twins:
            for m in twins:
                (r1, ref1), (r2, ref2) = twins[k], twins[m]
                assert r1.compare(r2) == bisection_compare(ref1, ref2) == sharkovskii_cmp(m, k)
                assert _same_state(r1, ref1) and _same_state(r2, ref2), (k, m)
        for width in self.WIDTHS:
            for k, (r, ref) in twins.items():
                r.refine(width)
                bisection_refine(ref, width)
                assert _same_state(r, ref), (k, width)
        assert seen["proposals"] == proposals
        if proposal in ("above", "below", "one cell off"):
            assert seen["uses"] > uses

    def test_roots_no_float_proposes(self):
        """10^400 x - (10^400 + 1) has coefficients beyond float range, so
        the float root declines; 2x - 3 has its root on the grid, where a
        proposed cell's sign is 0, and still becomes a point interval."""
        huge = IntPolynomial((-(10 ** 400) - 1, 10 ** 400))
        assert algebraic._float_root(huge.coeffs, 1, 2, -1) is None
        assert algebraic._float_root(GOLDEN.coeffs, 0, 2, -1) is None
        for poly in (huge, IntPolynomial((-3, 2))):
            for width in self.WIDTHS:
                r, ref = _twins(poly, 1, 2)
                r.refine(width)
                bisection_refine(ref, width)
                assert _same_state(r, ref), (poly, width)
        assert r.interval == (Fraction(3, 2), Fraction(3, 2))

    @pytest.mark.parametrize("width", [1, Fraction(1, 2 ** 34), 1e-20])
    def test_equal_roots_of_different_polynomials(self, width):
        cubic = GOLDEN * IntPolynomial([5, 1])
        quartic = GOLDEN * IntPolynomial([-7, 0, 1])
        for first, second in ((cubic, quartic), (quartic, cubic)):
            (r1, ref1), (r2, ref2) = _twins(first, 1, 2), _twins(second, 1, 2)
            for r, ref in ((r1, ref1), (r2, ref2)):
                r.refine(width)
                bisection_refine(ref, width)
            assert r1.compare(r2) == bisection_compare(ref1, ref2) == 0
            assert _same_state(r1, ref1) and _same_state(r2, ref2)

    def test_same_polynomial_goes_straight_to_the_loop(self, monkeypatch):
        """Two roots of one threshold polynomial are equal, so compare runs
        the gcd before any descent and then descends the first root alone,
        as the reference loop bisects it alone, instead of descending both
        to the separation cap first."""
        for k in (8, 64, 256):
            for widths in ((1e-8, 1e-9), (1e-8, 1e-30), (1e-30, 1e-8)):
                r1, r2, ref1, ref2 = (threshold_beta(k, w).root for w in widths + widths)
                events, calls = _record_events(monkeypatch), _count_values(monkeypatch)
                assert r1.compare(r2) == 0
                monkeypatch.undo()
                assert bisection_compare(ref1, ref2) == 0
                assert _same_state(r1, ref1) and _same_state(r2, ref2), (k, widths)
                assert events[0] == "gcd" and events.count("gcd") == 1, (k, widths)
                assert algebraic._SEPARATION_LEVELS not in events, (k, widths)
                if widths == (1e-8, 1e-30):
                    # one level at a time, as before, took 77-82
                    assert len(calls) <= 20, (k, len(calls))

    def test_point_interval_runs_the_gcd_at_once(self, monkeypatch):
        """3/2 is a root of both polynomials, and the first bisection hits
        it: the gcd runs right after that round, not 256 levels later, and
        the first root then descends alone."""
        both = IntPolynomial([-3, 2]) * IntPolynomial([5, 1])  # one sign variation
        (r1, ref1), (r2, ref2) = _twins(IntPolynomial([-3, 2]), 1, 2), _twins(both, 1, 2)
        events = _record_events(monkeypatch)
        assert r1.compare(r2) == 0
        monkeypatch.undo()
        assert events == [1, 1, "gcd", 1]
        assert bisection_compare(ref1, ref2) == 0
        assert _same_state(r1, ref1) and _same_state(r2, ref2)

    def test_midpoint_hit_during_a_descent(self):
        """1 + 2^-20 becomes a point interval at level 20, inside a round
        of the descent that separates it from a root 2^-29 above it."""
        dyadic = IntPolynomial([-(2 ** 20 + 1), 2 ** 20])
        near = IntPolynomial([-((2 ** 20 + 1) ** 2 + 2 ** 12), 0, 2 ** 40])
        for first, second in ((dyadic, near), (near, dyadic)):
            (r1, ref1), (r2, ref2) = _twins(first, 1, 2), _twins(second, 1, 2)
            assert r1.compare(r2) == bisection_compare(ref1, ref2)
            assert _same_state(r1, ref1) and _same_state(r2, ref2)
        assert r2._iv[0] == r2._iv[1]

    def test_other_polynomial_vanishing_at_a_distinct_root(self):
        """(x^2 - 2)(x + 1) has one sign variation but vanishes at -1 and
        at sqrt 2.  Its root on one side of 0 meets the other root on the
        other side, and the loop bisects only the first root."""
        both = IntPolynomial([-2, 0, 1]) * IntPolynomial([1, 1])
        pairs = [((IntPolynomial([-2, 0, 1]), 0, 2), (both, Fraction(-5, 4), Fraction(1, 2))),
                 ((IntPolynomial([1, 1]), Fraction(-5, 4), Fraction(1, 2)), (both, 0, 2))]
        for first, second in pairs:
            (r1, ref1), (r2, ref2) = _twins(*first), _twins(*second)
            assert r1.compare(r2) == bisection_compare(ref1, ref2)
            assert _same_state(r1, ref1) and _same_state(r2, ref2)
            assert r2.interval == (second[1], second[2])

    def test_roots_closer_than_the_separation_cap(self):
        """4/3 and 4/3 + 1/(3 2^1100) separate only past the level cap, so
        the gcd runs, finds them distinct, and bisection goes on."""
        near = IntPolynomial([-(4 * 2 ** 1100 + 1), 3 * 2 ** 1100])
        (r1, ref1), (r2, ref2) = _twins(IntPolynomial([-4, 3]), 1, 2), _twins(near, 1, 2)
        assert r1.compare(r2) == bisection_compare(ref1, ref2) == -1
        assert _same_state(r1, ref1) and _same_state(r2, ref2)
        assert r1._iv[2] > 2 ** algebraic._SEPARATION_LEVELS

    def test_roots_past_the_separation_cap_go_on_by_jumps(self, monkeypatch):
        """Past the cap, distinct roots go on descending in doubling
        rounds: one level at a time from there took 1,735 exact values."""
        near = IntPolynomial([-(4 * 2 ** 1100 + 1), 3 * 2 ** 1100])
        (r1, ref1), (r2, ref2) = _twins(IntPolynomial([-4, 3]), 1, 2), _twins(near, 1, 2)
        calls = _count_values(monkeypatch)
        assert r1.compare(r2) == -1
        assert len(calls) <= 100, len(calls)
        monkeypatch.undo()
        assert bisection_compare(ref1, ref2) == -1
        assert _same_state(r1, ref1) and _same_state(r2, ref2)

    def test_verify_ordering_matches_bisection(self, monkeypatch):
        report = oracle.verify_ordering(30)

        def refine(root, width):
            bisection_refine(root, width)
            return root

        monkeypatch.setattr(CertifiedRoot, "refine", refine)
        monkeypatch.setattr(CertifiedRoot, "compare", bisection_compare)
        assert oracle.verify_ordering(30) == report

    def test_thresholds_skip_the_descartes_transform(self, monkeypatch):
        """Every threshold polynomial up to 256 has one sign variation."""
        def refuse(*args):
            raise AssertionError("_taylor_shift ran for a threshold")

        monkeypatch.setattr(algebraic, "_taylor_shift", refuse)
        for k in range(2, 257):
            assert threshold_beta(k).root._sq == threshold_poly(k)

    def test_distinct_thresholds_compare_without_a_gcd(self, monkeypatch):
        betas = {k: threshold_beta(k, 2 ** -34) for k in range(2, 65)}

        def refuse(*args):
            raise AssertionError("poly_gcd ran in compare")

        monkeypatch.setattr(algebraic, "poly_gcd", refuse)
        for k in betas:
            for m in betas:
                if k != m:
                    assert betas[k].root.compare(betas[m].root) == sharkovskii_cmp(m, k)

    def test_one_variation_implies_one_descartes_variation(self):
        """The O(d) shortcut accepts only where the Descartes bound on the
        interval is 1, so it never changes _sq or the interval."""
        rng = random.Random(SEED + 8)
        accepted = 0
        while accepted < 300:
            p = _random_poly(rng, 9)
            sq = IntPolynomial(_primitive(p.coeffs))
            if _sign_variations(sq.coeffs) != 1:
                continue
            lo = Fraction(rng.randint(0, 40), rng.randint(1, 9))
            hi = lo + Fraction(rng.randint(1, 40), rng.randint(1, 9))
            s_lo, s_hi = sq.sign_at(lo), sq.sign_at(hi)
            if s_lo * s_hi < 0:
                accepted += 1
                assert _descartes_bound(sq, lo, hi) == 1, (p, lo, hi)
                r = CertifiedRoot(p, lo, hi)
                assert r._sq == sq and r.interval == (lo, hi)


def _common(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    den = lo.denominator * hi.denominator
    return int(lo * den), int(hi * den), den


def test_interval_eval_encloses_true_values():
    rng = random.Random(SEED + 4)
    for _ in range(200):
        p = _random_poly(rng, 5)
        lo = Fraction(rng.randint(0, 30), rng.randint(1, 7))
        hi = lo + Fraction(rng.randint(1, 9), rng.randint(1, 7))
        a, b, den = _common(lo, hi)
        vlo, vhi = _interval_eval(p, a, b, den)
        for t in range(5):
            x = lo + (hi - lo) * Fraction(t, 4)
            assert vlo <= p(x) * den ** p.degree <= vhi


def _rational_interval_eval(p, lo: Fraction, hi: Fraction):
    acc_lo = acc_hi = Fraction(p.coeffs[-1])
    for c in reversed(p.coeffs[:-1]):
        prods = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(prods) + c, max(prods) + c
    return acc_lo, acc_hi


def test_interval_eval_is_the_rational_enclosure_scaled():
    """The integer enclosure is the rational interval Horner enclosure
    times den^deg, on either side of 0, so both decide the same signs."""
    rng = random.Random(SEED + 5)
    for _ in range(200):
        p = _random_poly(rng, 6)
        lo = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
        hi = lo + Fraction(rng.randint(0, 9), rng.randint(1, 7))
        a, b, den = _common(lo, hi)
        scale = den ** p.degree
        rlo, rhi = _rational_interval_eval(p, lo, hi)
        assert _interval_eval(p, a, b, den) == (rlo * scale, rhi * scale)


def test_unit_interval_map_is_the_scaled_substitution():
    """_map_unit_interval(p, a, b) is den^deg * p(a + (b - a) t) with den
    the common denominator of a and b - a."""
    rng = random.Random(SEED + 6)
    for _ in range(100):
        p = _random_poly(rng, 8)
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        b = a + Fraction(rng.randint(1, 9), rng.randint(1, 9))
        den = lcm(a.denominator, (b - a).denominator)
        q = IntPolynomial(_map_unit_interval(p, a, b))
        for t in (0, 1, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5), Fraction(3, 11)):
            assert q(t) == den ** p.degree * p(a + (b - a) * t)
