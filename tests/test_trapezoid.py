import itertools
import math
import random

import pytest

from univoque.errors import (
    BoundaryAmbiguityError,
    MiddleGapError,
    NotInImageError,
    OutOfDomainError,
    PreconditionViolated,
    TooLargeError,
    UnivoqueError,
)
from univoque.expansions import (
    BetaValue,
    FloatBeta,
    _BoundPrefix,
    d_of_beta,
    expansion_value,
    is_unique_expansion,
    shift_map,
)
from univoque.thresholds import threshold_beta
from univoque.trapezoid import (
    Itinerary,
    TrapezoidParams,
    as_params,
    decode_itinerary,
    encode_itinerary,
    extension_map,
    extension_three_cycle,
    find_lr_cycles,
    itinerary,
    trapezoid_map,
    unimodal_cmp,
)
from univoque.words import (
    EQUAL,
    GREATER,
    LESS,
    NECKLACE_LIMIT,
    PeriodicSeq,
    lex_cmp,
    split_halfmirror,
)
from util import (
    SEED,
    affine_lr_cycles,
    bisection_three_cycle,
    classify_reference,
    float_extension_map,
    lr_necklace_words,
    plateau_reference,
    random_purely_periodic,
    random_seq,
    reference_decode,
    reference_encode,
    shift_map_reference,
    small_itineraries,
    symbolwise_unimodal_cmp,
    trapezoid_map_reference,
)


class TestItineraryType:
    def test_parse_print(self):
        for text in ["(RL)^w", "RLLR", "L(R)^w", "", "(RLRRRRL)^w"]:
            assert str(Itinerary.parse(text)) == text

    def test_canonicalization(self):
        assert str(Itinerary("L", "RL")) == "(LR)^w"
        assert str(Itinerary("", "RLRL")) == "(RL)^w"

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            Itinerary.parse("(RX)^w")
        with pytest.raises(ValueError):
            Itinerary((), ("X",))


class TestTrapezoidMap:
    def test_branch_values(self):
        p = as_params(1.7)
        assert abs(trapezoid_map(p, 1 / 1.7) - 1.0) < 1e-12
        assert abs(trapezoid_map(p, 1 / 0.7)) < 1e-12
        assert abs(trapezoid_map(p, 0.2) - 0.34) < 1e-12

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            trapezoid_map(as_params(1.7), 2.0)

    def test_boundary_ambiguity(self):
        p = as_params(1.7)
        with pytest.raises(BoundaryAmbiguityError):
            trapezoid_map(p, 1 / 1.7 + 1e-12)

    def test_clip_validation(self):
        with pytest.raises(PreconditionViolated):
            TrapezoidParams(FloatBeta(1.8), clip=("left", 0.9))
        with pytest.raises(PreconditionViolated):
            TrapezoidParams(FloatBeta(1.8), clip=("right", 0.1))

    def test_clipped_plateau_geometry(self):
        b = 1.8
        p = TrapezoidParams(FloatBeta(b), clip=("left", 0.4))
        lo, hi, level = p.plateau()
        assert (lo, hi) == (0.4, 1 / (b - 1) - 0.4)
        assert abs(level - b * 0.4) < 1e-12

    def test_repr_and_equality_read_the_fields(self):
        beta = FloatBeta(1.8)
        p = TrapezoidParams(beta, clip=("left", 0.4))
        assert repr(p) == "TrapezoidParams(beta=FloatBeta(1.8), clip=('left', 0.4))"
        assert p == TrapezoidParams(beta, clip=("left", 0.4))
        assert p != TrapezoidParams(beta)

    def test_an_exact_base_is_not_refined(self):
        # each call reads float(beta), which refines a copy of the root
        beta = BetaValue.parse("poly:[-1,-1,0,-1,-1,1]@(1,2)")
        before = str(beta)
        float(beta)
        as_params(beta)
        trapezoid_map(beta, 0.3)
        itinerary(beta, 0.3, 5)
        assert str(beta) == before


def _outcome(f, *args):
    """f(*args), or the type and message of the package error it raised."""
    try:
        return f(*args)
    except (UnivoqueError, ValueError) as exc:
        return type(exc), str(exc)


class TestOneStep:
    """The trapezoid step and the gap map against the code they replaced
    (tests/util.py): same symbol, same float image, same error type and
    message, at seeded bases and points on, near and off every edge."""

    @staticmethod
    def bases():
        rng = random.Random(SEED + 23)
        floats = [FloatBeta(rng.uniform(1.01, 1.99)) for _ in range(150)]
        return floats + [FloatBeta(1.7), FloatBeta(1.8),
                         BetaValue.parse("poly:[-1,-1,0,1]@(1,2)"),
                         threshold_beta(5, 1e-12)]

    @staticmethod
    def params_of(beta, rng):
        b = float(beta)
        top, l_hi, r_lo = 1.0 / (b - 1.0), 1.0 / b, 1.0 / (b * (b - 1.0))
        yield as_params(beta)
        yield TrapezoidParams(beta, clip=("left", l_hi * rng.uniform(0.05, 0.95)))
        yield TrapezoidParams(beta, clip=("right", r_lo + (top - r_lo) * rng.uniform(0.05, 0.95)))
        # the point 1e-10 left of this edge is exactly 1e-10 away in floats
        yield TrapezoidParams(beta, clip=("left", 2e-10))

    @staticmethod
    def points(edges, top, rng):
        near = (0.0, 1e-12, 5e-11, 9.999e-11, 1e-10, 1.0001e-10, 1e-9)
        out = [rng.uniform(0.0, top) for _ in range(8)]
        for edge in (*edges, 0.0, top):
            out += [edge + d for d in near] + [edge - d for d in near]
            out += [math.nextafter(edge, -1.0), math.nextafter(edge, 2.0 * top)]
        return out + [2.0 * top, -1.0]

    def test_symbol_and_image_as_before(self):
        rng = random.Random(SEED + 24)
        seen = set()
        for beta in self.bases():
            for params in self.params_of(beta, rng):
                lo_c, hi_c, level = plateau_reference(params)
                top = 1.0 / (float(beta) - 1.0)
                assert (params.plateau(), params.domain_top()) == ((lo_c, hi_c, level), top)
                for x in self.points((lo_c, hi_c), top, rng):
                    want = _outcome(classify_reference, params, x)
                    got = _outcome(lambda: itinerary(params, x, 1).preperiod[0])
                    assert got == want, (params, x)
                    want = _outcome(trapezoid_map_reference, params, x)
                    assert _outcome(trapezoid_map, params, x) == want, (params, x)
                    seen.add(want[0] if isinstance(want, tuple) else "image")
        assert seen == {"image", OutOfDomainError, BoundaryAmbiguityError}

    def test_orbits_as_before(self):
        rng = random.Random(SEED + 25)
        for beta in self.bases():
            for params in self.params_of(beta, rng):
                x0 = x = rng.uniform(0.0, params.domain_top())
                want = ""
                try:
                    for _ in range(40):
                        want += classify_reference(params, x)
                        x = trapezoid_map_reference(params, x)
                except UnivoqueError as exc:
                    want = type(exc), str(exc)
                got = _outcome(lambda: "".join(itinerary(params, x0, 40).preperiod))
                assert got == want, (params, x0)

    def test_gap_map_as_before(self):
        rng = random.Random(SEED + 26)
        seen = set()
        for beta in self.bases():
            b = float(beta)
            l_hi, g_hi, top = 1.0 / b, 1.0 / (b * (b - 1.0)), 1.0 / (b - 1.0)
            gap = [l_hi + (g_hi - l_hi) * rng.random() for _ in range(4)]
            for x in self.points((l_hi, g_hi), top, rng) + gap:
                want = _outcome(shift_map_reference, beta, x)
                assert _outcome(shift_map, beta, x) == want, (beta, x)
                seen.add(want[0] if isinstance(want, tuple) else "image")
        assert seen == {"image", OutOfDomainError, MiddleGapError}


class TestItineraries:
    def test_origin_is_fixed(self):
        assert str(itinerary(as_params(1.7), 0.0, 4)) == "LLLL"

    def test_plateau_point(self):
        it = itinerary(as_params(1.7), 1 / 1.7, 3)
        assert it.preperiod[0] == "C"

    def test_two_cycle_point(self):
        b = 1.8
        x = b ** 2 / ((b - 1) * (1 + b ** 2))  # solves the R-then-L loop
        it = itinerary(as_params(b), x, 6)
        assert "".join(it.preperiod) == "RLRLRL"


class TestEncoding:
    def test_published_pairs(self):
        assert str(encode_itinerary(PeriodicSeq.parse("(1100)^w"))) == "(RL)^w"
        assert str(encode_itinerary(
            PeriodicSeq.parse("(11010110010100)^w"))) == "(RLRRRRL)^w"

    def test_tails(self):
        assert str(encode_itinerary(PeriodicSeq.parse("(1)^w"))) == "R(L)^w"
        assert str(encode_itinerary(PeriodicSeq.parse("(0)^w"))) == "(L)^w"
        assert str(encode_itinerary(PeriodicSeq("111", "0"))) == "RLLR(L)^w"
        assert str(encode_itinerary(PeriodicSeq("00", "1"))) == "LLR(L)^w"

    def test_block_rules(self):
        # 1^2 0^3 then ones forever
        s = PeriodicSeq("11000", "1")
        assert str(encode_itinerary(s)) == "RLRLLR(L)^w"

    def test_decode_inverts(self):
        assert decode_itinerary(Itinerary.parse("(RL)^w")) == PeriodicSeq.parse("(1100)^w")
        assert decode_itinerary(Itinerary("R", "L")) == PeriodicSeq.parse("(1)^w")
        assert decode_itinerary(
            Itinerary.parse("(RLRRRRL)^w")) == PeriodicSeq.parse("(11010110010100)^w")

    def test_decode_rejects_plateau_and_finite(self):
        with pytest.raises(NotInImageError):
            decode_itinerary(Itinerary.parse("(RC)^w"))
        with pytest.raises(NotInImageError):
            decode_itinerary(Itinerary.parse("RL"))

    def test_roundtrip_random(self):
        rng = random.Random(SEED)
        for _ in range(4000):
            s = random_seq(rng, 4, 10)
            assert decode_itinerary(encode_itinerary(s)) == s

    def test_encode_after_decode(self):
        rng = random.Random(SEED + 1)
        for _ in range(1000):
            s = random_seq(rng, 3, 8)
            image = encode_itinerary(s)
            assert encode_itinerary(decode_itinerary(image)) == image
        # decoding is total: every plateau-free itinerary is an image
        for p in range(5):
            for q in range(1, 7):
                for pre in itertools.product("LR", repeat=p):
                    for per in itertools.product("LR", repeat=q):
                        it = Itinerary(pre, per)
                        assert encode_itinerary(decode_itinerary(it)) == it, it

    def test_matches_references_on_every_short_pair(self):
        """encode_itinerary and decode_itinerary agree with the symbolwise
        references on every pair with preperiod at most 4 and period at
        most 8, over {0, 1} and over {L, R}."""
        for p in range(5):
            for q in range(1, 9):
                for pre, per in itertools.product(itertools.product((0, 1), repeat=p),
                                                  itertools.product((0, 1), repeat=q)):
                    s = PeriodicSeq(pre, per)
                    image = encode_itinerary(s)
                    assert (tuple(image._pre), tuple(image._per)) == reference_encode(s), s
                    assert decode_itinerary(image) == s
                    it = Itinerary(["LR"[b] for b in pre], ["LR"[b] for b in per])
                    back = decode_itinerary(it)
                    assert (tuple(back._pre), tuple(back._per)) == reference_decode(it), it
                    assert encode_itinerary(back) == it

    def test_decode_matches_reference_on_seeded_lcr_words(self):
        rng = random.Random(SEED + 3)
        decoded = 0
        for _ in range(3000):
            it = Itinerary([rng.choice("LCR") for _ in range(rng.randint(0, 6))],
                           [rng.choice("LRLRC") for _ in range(rng.randint(1, 10))])
            if "C" in it.preperiod + it.period:
                with pytest.raises(NotInImageError):
                    decode_itinerary(it)
                continue
            back = decode_itinerary(it)
            assert (tuple(back._pre), tuple(back._per)) == reference_decode(it), it
            assert encode_itinerary(back) == it
            decoded += 1
        assert decoded > 200

    def test_period_transfer(self):
        rng = random.Random(SEED + 2)
        halved = 0
        for _ in range(3000):
            s = random_purely_periodic(rng, 12)
            p = len(s.period)
            image = encode_itinerary(s)
            q = len(image.period)
            if split_halfmirror(s.period) is not None:
                assert 2 * q == p, (s, image)
                halved += 1
            else:
                assert q == p, (s, image)
        assert halved > 50


class TestUnimodalOrder:
    def test_symbol_order(self):
        assert unimodal_cmp(Itinerary("L", ""), Itinerary("R", "")) == LESS
        assert unimodal_cmp(Itinerary("L", ""), Itinerary("C", "")) == LESS

    def test_parity_flip(self):
        assert unimodal_cmp(Itinerary.parse("(RL)^w"), Itinerary.parse("(RR)^w")) == GREATER

    def test_equal(self):
        assert unimodal_cmp(Itinerary.parse("(RL)^w"), Itinerary.parse("(RL)^w")) == EQUAL
        assert unimodal_cmp(Itinerary("RL", ""), Itinerary("RL", "")) == EQUAL

    def test_order_isomorphism_random(self):
        rng = random.Random(SEED + 3)
        for _ in range(3000):
            s = random_purely_periodic(rng, 10)
            t = random_purely_periodic(rng, 10)
            assert lex_cmp(s, t) == unimodal_cmp(encode_itinerary(s),
                                                 encode_itinerary(t))

    def test_matches_symbolwise_loop_on_all_small_pairs(self):
        def outcome(cmp, a, b):
            try:
                return cmp(a, b)
            except ValueError as exc:
                return str(exc)

        words = small_itineraries()
        assert len(words) == 337
        for a in words:
            for b in words:
                assert (outcome(unimodal_cmp, a, b)
                        == outcome(symbolwise_unimodal_cmp, a, b)), (a, b)


class TestLRCycles:
    def test_rl_cycle_above_period4_threshold(self):
        cycles = find_lr_cycles(FloatBeta(1.8), 2)
        assert [str(c) for c in cycles] == ["(RL)^w"]

    def test_no_plateau_free_2cycle_below(self):
        assert find_lr_cycles(FloatBeta(1.7), 2) == []

    def test_3cycles_above_tribonacci(self):
        assert len(find_lr_cycles(FloatBeta(1.9), 3)) > 0

    def test_fixed_points(self):
        cycles = find_lr_cycles(FloatBeta(1.8), 1)
        assert [str(c) for c in cycles] == ["(L)^w", "(R)^w"]

    def test_orbit_points_verify(self):
        b = 1.85
        for cyc in find_lr_cycles(FloatBeta(b), 4):
            word = cyc.period
            x = None
            # recover the cycle point by brute iteration of the word map
            amul, badd = 1.0, 0.0
            for sym in word:
                if sym == "L":
                    amul, badd = b * amul, b * badd
                else:
                    amul, badd = -b * amul, b / (b - 1) - b * badd
            x = badd / (1 - amul)
            pts = [x]
            params = as_params(b)
            for _ in range(len(word)):
                pts.append(trapezoid_map(params, pts[-1]))
            assert abs(pts[-1] - pts[0]) < 1e-9
            assert len(set(round(p, 9) for p in pts[:-1])) == len(word)

    def test_clipped_map_keeps_cycle(self):
        rng = random.Random(SEED + 4)
        checked = 0
        for _ in range(20):
            b = rng.uniform(1.76, 1.97)
            for m in (2, 3):
                cycles = find_lr_cycles(FloatBeta(b), m)
                if not cycles:
                    continue
                word = cycles[0].period
                amul, badd = 1.0, 0.0
                for sym in word:
                    if sym == "L":
                        amul, badd = b * amul, b * badd
                    else:
                        amul, badd = -b * amul, b / (b - 1) - b * badd
                x = badd / (1 - amul)
                pts = [x]
                for sym in word[:-1]:
                    pts.append(b * pts[-1] if sym == "L" else b / (b - 1) - b * pts[-1])
                base = as_params(b)
                lo_c, hi_c, _ = base.plateau()
                closest = min(pts, key=lambda p: min(abs(p - lo_c), abs(p - hi_c)))
                side = "left" if closest < 1 / b else "right"
                clipped = TrapezoidParams(FloatBeta(b), clip=(side, closest))
                z = pts[0]
                for _ in range(m):
                    z = trapezoid_map(clipped, z)
                assert abs(z - pts[0]) < 1e-8
                checked += 1
        assert checked >= 10


class TestLRCyclesByCriterion:
    """find_lr_cycles decides each word by the uniqueness criterion."""

    @staticmethod
    def by_definition(beta, n):
        return [f"({w})^w" for w in lr_necklace_words(n)
                if w == "L" or is_unique_expansion(
                    beta, decode_itinerary(Itinerary((), w)))]

    def test_matches_affine_solver_on_float_grid(self):
        for i in range(45):
            b = 1.55 + 0.01 * i
            for n in range(1, 11):
                got = [str(c) for c in find_lr_cycles(FloatBeta(b), n)]
                assert got == affine_lr_cycles(b, n), (b, n)

    @pytest.mark.parametrize("beta", [
        "float:1.58", "float:1.62", "float:1.7", "float:1.8", "float:1.87", "float:1.95",
        "poly:[-1,-1,-1,1]@(1,2)",          # tribonacci
        "poly:[-1,-1,0,-1,-1,1]@(1,2)",     # beta_5
        "poly:[-1,0,-1,-1,1]@(1,2)",        # beta_4
    ])
    def test_matches_per_necklace_definition(self, beta):
        beta = BetaValue.parse(beta)
        for n in range(1, 9):
            got = [str(c) for c in find_lr_cycles(beta, n)]
            assert got == self.by_definition(beta, n), (beta, n)

    # LR n-cycles appear at beta_n, except that the encoding halves the
    # period of half-mirror squares, so for n = 2, 4 they appear at beta_2n
    @pytest.mark.parametrize("n, m", [(2, 4), (3, 3), (4, 8), (5, 5), (6, 6),
                                      (7, 7), (9, 9), (10, 10)])
    def test_onset_at_the_threshold(self, n, m):
        exact = threshold_beta(m, 1e-12)
        assert find_lr_cycles(exact, n) == []
        assert find_lr_cycles(FloatBeta(float(exact) - 1e-7), n) == []
        assert find_lr_cycles(FloatBeta(float(exact) + 1e-7), n) != []

    def test_clipped_map_is_refused(self):
        clipped = TrapezoidParams(FloatBeta(1.8), clip=("left", 0.4))
        with pytest.raises(PreconditionViolated):
            find_lr_cycles(clipped, 2)

    def test_bare_base_is_not_refined(self):
        # the exact orbit of 1 refines the root as far as its signs need;
        # the search after it reads no float of the base
        beta = BetaValue.parse("poly:[-1,-1,0,-1,-1,1]@(1,2)")
        assert d_of_beta(beta).bound is not None
        before = str(beta)
        assert [str(c) for c in find_lr_cycles(beta, 3)] == []
        assert str(beta) == before

    def test_cap_refuses_before_reading_a_digit(self):
        beta = FloatBeta(1.8)
        with pytest.raises(TooLargeError, match="NECKLACE_LIMIT"):
            find_lr_cycles(beta, NECKLACE_LIMIT + 1)
        assert getattr(beta, "_greedy_one", None) is None

    def test_search_cost_follows_the_cycles_found(self, monkeypatch):
        # a scan tests each of the 698,870 primitive necklaces of length 24
        calls = []
        admits = _BoundPrefix.admits

        def counted(self, *args):
            calls.append(args)
            return admits(self, *args)

        monkeypatch.setattr(_BoundPrefix, "admits", counted)
        assert len(find_lr_cycles(FloatBeta(1.8), 24)) == 121
        assert len(calls) <= 1000


class TestConjugacySegment:
    def test_gap_map_matches_trapezoid_through_one_block(self):
        # for sequences opening with a ones-run then a zero, both maps
        # transport the value identically across the whole block
        rng = random.Random(SEED + 5)
        beta = FloatBeta(1.9)
        params = as_params(beta)
        checked = 0
        for _ in range(2000):
            ell = rng.randint(0, 8)
            tail = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 6)))
            s = PeriodicSeq((), (1,) * ell + (0,) + tail)
            if len(s.period) != ell + 1 + len(tail):
                continue
            try:
                if not is_unique_expansion(beta, s):
                    continue
            except Exception:
                continue
            x = expansion_value(beta, s)
            f = x
            for _ in range(ell + 1):
                f = shift_map(beta, f)
            t = x
            for _ in range(ell + 1):
                t = trapezoid_map(params, t)
            assert abs(f - t) < 1e-10, (s, f, t)
            checked += 1
        assert checked > 200


class TestExtensionDemo:
    def test_continuity_at_gap_edges(self):
        b = 1.8
        beta = FloatBeta(b)
        for edge in (1 / b, 1 / (b * (b - 1))):
            left = extension_map(beta, edge - 1e-12)
            right = extension_map(beta, edge + 1e-12)
            assert abs(left - right) < 1e-9

    def test_three_cycle_at_18(self):
        beta = FloatBeta(1.8)
        x = extension_three_cycle(beta)
        x1 = expansion_value(beta, PeriodicSeq.parse("(0011)^w"))
        x2 = expansion_value(beta, PeriodicSeq.parse("(0110)^w"))
        assert x1 < x < x2
        y = x
        for _ in range(3):
            y = extension_map(beta, y)
        assert abs(y - x) < 1e-10
        sx = extension_map(beta, x)
        assert sx > x and abs(sx - x) > 1e-6

    def test_just_above_threshold(self):
        assert extension_three_cycle(FloatBeta(1.76)) > 0

    def test_below_threshold_rejected(self):
        with pytest.raises(PreconditionViolated):
            extension_three_cycle(FloatBeta(1.7))
        with pytest.raises(PreconditionViolated):
            extension_three_cycle(threshold_beta(4, 1e-10))

    def test_three_cycle_matches_bisection(self):
        rng = random.Random(SEED)
        b4 = float(threshold_beta(4, 1e-12))
        bases = [FloatBeta(rng.uniform(b4, 2.0)) for _ in range(200)]
        bases += [FloatBeta(b) for b in (1.76, 1.8, 1.9, math.nextafter(b4, 2.0))]
        bases.append(BetaValue.parse("poly:[-1,-1,-1,1]@(1,2)"))
        for beta in bases:
            x = extension_three_cycle(beta)
            assert abs(x - bisection_three_cycle(beta)) <= 1e-12, beta

    def test_three_cycle_at_the_threshold_float(self):
        b4 = float(threshold_beta(4, 1e-12))
        beta = FloatBeta(math.nextafter(b4, 2.0))
        x = extension_three_cycle(beta)
        x1 = expansion_value(beta, PeriodicSeq.parse("(0011)^w"))
        x2 = expansion_value(beta, PeriodicSeq.parse("(0110)^w"))
        assert x1 < x < x2
        # float(beta_4) lies below beta_4
        with pytest.raises(PreconditionViolated):
            extension_three_cycle(FloatBeta(b4))

    def test_extension_map_matches_float_formula(self):
        rng = random.Random(SEED)
        for _ in range(2000):
            b = rng.uniform(1.01, 1.99)
            top = 1.0 / (b - 1.0)
            points = [rng.uniform(0.0, top), 0.0, 1.0 / b, 1.0 / (b * (b - 1.0)), top]
            for x in points:
                assert extension_map(FloatBeta(b), x).hex() == float_extension_map(b, x).hex()
