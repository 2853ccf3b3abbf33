import math
import random
from itertools import accumulate, product
from operator import xor

import pytest

from univoque.words import (
    EQUAL,
    GREATER,
    LESS,
    BinaryWord,
    PeriodicSeq,
    doubling_map,
    doubling_prefix,
    is_extremal,
    lex_cmp,
    mirror,
    primitive_necklaces,
    shift,
    split_halfmirror,
    thue_morse,
    tm_morphism,
    _canonical,
    _primitive_root,
)
from univoque.expansions import AlgebraicBeta, d_of_beta, is_parry_admissible, solve_base
from univoque.oracle import extremal_rotation
from univoque.thresholds import min_extremal_recursive, threshold_poly
from univoque.trapezoid import (
    Itinerary,
    decode_itinerary,
    encode_itinerary,
    find_lr_cycles,
    unimodal_cmp,
)
from util import (
    SEED,
    extremal_members,
    kmp_primitive_root,
    lcm_bound_cmp,
    primitive_words,
    random_purely_periodic,
    random_seq,
    symbolwise_canonical,
)


class TestBinaryWord:
    def test_basics(self):
        w = BinaryWord("0110")
        assert len(w) == 4
        assert str(w) == "0110"
        assert w == "0110"
        assert str(w.mirror()) == "1001"
        assert str(w + "1") == "01101"
        assert str(w[1:3]) == "11"
        assert str(BinaryWord("01") * 3) == "010101"

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            BinaryWord("012")
        with pytest.raises(ValueError):
            BinaryWord([0, 2])


class TestPeriodicSeq:
    def test_canonical_period_is_primitive(self):
        assert str(PeriodicSeq("", "110110")) == "(110)^w"
        assert str(PeriodicSeq("", "0101")) == "(01)^w"

    def test_canonical_preperiod_is_minimal(self):
        assert str(PeriodicSeq("1110", "10")) == "11(10)^w"
        assert str(PeriodicSeq("110", "0")) == "11(0)^w"
        # absorbing rotates the period: 01 110 110 ... equals 0 (110)-shifted
        s = PeriodicSeq("01", "101")
        assert [s.at(i) for i in range(8)] == [0, 1, 1, 0, 1, 1, 0, 1]
        assert len(s.preperiod) <= 1

    def test_equality_is_canonical(self):
        assert PeriodicSeq("", "10") == PeriodicSeq("10", "10")
        assert PeriodicSeq("", "10") != PeriodicSeq("", "01")
        assert hash(PeriodicSeq("", "1010")) == hash(PeriodicSeq("", "10"))

    def test_parse_print_roundtrip(self):
        for text in ["(1100)^w", "11(0)^w", "(0)^w", "1(10)^w", "(110100)^w"]:
            assert str(PeriodicSeq.parse(text)) == text

    def test_parse_rejects_garbage(self):
        for text in ["", "110", "(110)", "(110)^", "()^w", "(12)^w"]:
            with pytest.raises(ValueError):
                PeriodicSeq.parse(text)

    @pytest.mark.parametrize("pre, per", [((), (2,)), ("0", ""), ([0, 1], "1x")])
    def test_constructor_rejects_bad_input(self, pre, per):
        """Caller data is checked at the public constructor."""
        with pytest.raises(ValueError):
            PeriodicSeq(pre, per)

    def test_at_and_prefix(self):
        s = PeriodicSeq("11", "0")
        assert [s.at(i) for i in range(5)] == [1, 1, 0, 0, 0]
        assert str(s.prefix(5)) == "11000"
        assert str(PeriodicSeq("", "10").prefix(5)) == "10101"


class TestSharedWordCore:
    """PeriodicSeq and Itinerary share one canonical form and text form."""

    @pytest.mark.parametrize("word", [
        PeriodicSeq.parse("11(0)^w"), PeriodicSeq("0110", "011011"), PeriodicSeq(),
        Itinerary.parse("L(RL)^w"), Itinerary("RLLR", ()), Itinerary(), Itinerary("RL", "RLRL"),
    ])
    def test_repr_round_trips_through_parse(self, word):
        assert eval(repr(word), {type(word).__name__: type(word)}) == word

    def test_types_never_compare_equal(self):
        assert PeriodicSeq.parse("(01)^w") != Itinerary.parse("(RL)^w")
        assert Itinerary.parse("(RL)^w") != PeriodicSeq.parse("(01)^w")
        assert PeriodicSeq.parse("(0)^w") != Itinerary.parse("(L)^w")

    def test_each_type_names_itself_when_parsing_fails(self):
        with pytest.raises(ValueError, match=r"^cannot parse periodic sequence: '0101'$"):
            PeriodicSeq.parse("0101")
        with pytest.raises(ValueError, match=r"^cannot parse itinerary: '\(RX\)\^w'$"):
            Itinerary.parse("(RX)^w")
        assert not Itinerary.parse("RL").is_periodic


def _words_up_to(alphabet, max_pre: int, max_per: int):
    """Every (preperiod, period) pair of symbol tuples with the given
    length bounds and a nonempty period."""
    for p in range(max_pre + 1):
        for pre in product(alphabet, repeat=p):
            for q in range(1, max_per + 1):
                for per in product(alphabet, repeat=q):
                    yield pre, per


def _random_lcr_words(count: int):
    rng = random.Random(SEED)
    for _ in range(count):
        yield (tuple(rng.choice("LCR") for _ in range(rng.randint(0, 6))),
               tuple(rng.choice("LCR") for _ in range(rng.randint(1, 12))))


def _stored_bits(*words):
    """Tuples of 0s and 1s as the words layer stores them: bytes."""
    return tuple(map(bytes, words))


def _stored_lcr(*words):
    """Tuples over L, C, R as the words layer stores them: one str each."""
    return tuple(map("".join, words))


class TestCanonicalFormAgainstReferences:
    """The canonical form, on the stored symbols, agrees with the
    border-array primitive root and the symbol-at-a-time absorption of
    the preperiod it replaced, run on tuples."""

    def test_primitive_root_on_every_short_binary_word(self):
        for n in range(13):
            for w in product((0, 1), repeat=n):
                assert (_primitive_root(*_stored_bits(w))
                        == _stored_bits(kmp_primitive_root(w))[0])

    def test_primitive_root_on_seeded_lcr_words(self):
        rng = random.Random(SEED)
        for _ in range(3000):
            block = tuple(rng.choice("LCR") for _ in range(rng.randint(1, 5)))
            w = block * rng.randint(1, 4) + tuple(rng.choice("LCR")
                                                  for _ in range(rng.randint(0, 1)))
            assert (_primitive_root(*_stored_lcr(w))
                    == _stored_lcr(kmp_primitive_root(w))[0])

    def test_canonical_on_every_short_binary_pair(self):
        for pre, per in _words_up_to((0, 1), 4, 8):
            assert (_canonical(*_stored_bits(pre, per))
                    == _stored_bits(*symbolwise_canonical(pre, per)))

    def test_canonical_on_seeded_lcr_pairs(self):
        for pre, per in _random_lcr_words(3000):
            assert (_canonical(*_stored_lcr(pre, per))
                    == _stored_lcr(*symbolwise_canonical(pre, per)))
            # a period built as a repeated block with the preperiod's tail in it
            per2 = per * 2
            pre2 = pre + per2[len(per2) // 2:]
            assert (_canonical(*_stored_lcr(pre2, per2))
                    == _stored_lcr(*symbolwise_canonical(pre2, per2)))


def _assert_plain(word) -> None:
    """An internally built word holds its symbols as stored (bytes of the
    values 0 and 1; or one str over "L", "C", "R"), converts them to plain
    tuples at its public accessors (ints, never bools; or one-letter str),
    and equals, with the same hash, the word the public constructor
    builds from the same symbols."""
    pre, per = word._pre, word._per
    if isinstance(word, PeriodicSeq):
        assert type(pre) is bytes and type(per) is bytes
        assert all(b in (0, 1) for b in pre + per), (pre, per)
        for bits in (word.preperiod.bits, word.period.bits, word.prefix(3).bits):
            assert type(bits) is tuple and all(type(b) is int for b in bits), bits
        assert set(str(word)) <= set("01()^w")
    else:
        assert type(pre) is str and type(per) is str
        assert all(x in ("L", "C", "R") for x in pre + per), (pre, per)
        for syms in (word.preperiod, word.period):
            assert type(syms) is tuple and all(type(x) is str for x in syms), syms
    public = type(word)(list(pre), list(per))
    assert public == word and hash(public) == hash(word)


class TestInternalWordsHoldPlainSymbols:
    SEQS = ["(1100)^w", "1(01)^w", "0110(011)^w", "(0)^w", "(1)^w", "11(0)^w",
            "10101(10)^w", "(110100)^w"]

    @pytest.mark.parametrize("text", SEQS)
    def test_parse_shift_mirror(self, text):
        s = PeriodicSeq.parse(text)
        _assert_plain(s)
        _assert_plain(mirror(s))
        for j in range(len(s._pre) + 2 * len(s._per)):
            _assert_plain(shift(s, j))
        _assert_plain(Itinerary.parse(text.replace("0", "L").replace("1", "R")))

    @pytest.mark.parametrize("text", SEQS)
    def test_encode_decode(self, text):
        it = encode_itinerary(PeriodicSeq.parse(text))
        _assert_plain(it)
        _assert_plain(decode_itinerary(it))
        _assert_plain(decode_itinerary(Itinerary.parse("RLR(RRL)^w")))

    def test_lr_cycles(self):
        for n in range(1, 9):
            for cycle in find_lr_cycles(1.87, n):
                _assert_plain(cycle)

    def test_bounds_of_the_expansion_of_one(self):
        bases = [AlgebraicBeta(threshold_poly(k), 1, 2) for k in range(2, 8)]
        bases += [solve_base(PeriodicSeq.parse(t)) for t in ("1(10)^w", "111(01)^w")]
        kinds = set()
        for beta in bases:
            kinds.add(d_of_beta(beta).finiteness[0])
            _assert_plain(d_of_beta(beta).bound)
        assert kinds == {"finite", "infinite"}

    @pytest.mark.parametrize("k", range(1, 25))
    def test_least_extremal_sequences(self, k):
        _assert_plain(min_extremal_recursive(k))


# ---- tuple-of-ints definitions: the words layer as it was written on
# tuples, for the seeded equivalence test below.  A sequence is a
# (preperiod, period) pair of tuples; itineraries use one-letter str.

def _t_head(pre: tuple, per: tuple, n: int) -> tuple:
    out = list(pre[:n])
    while len(out) < n:
        out.append(per[(len(out) - len(pre)) % len(per)])
    return tuple(out)


def _t_cmp(a: tuple, b: tuple) -> int:
    """Lexicographic order on the lcm length, longer than Fine-Wilf."""
    n = len(a[0]) + len(b[0]) + math.lcm(len(a[1]), len(b[1]))
    wa, wb = _t_head(*a, n), _t_head(*b, n)
    return (wa > wb) - (wa < wb)


def _t_shift(s: tuple, j: int) -> tuple:
    """Symbols j.. of s: from position p on, s repeats with period q."""
    p, q = len(s[0]), len(s[1])
    head = _t_head(*s, j + p + q)
    return symbolwise_canonical(head[j:j + p], head[j + p:])


def _t_mirror(s: tuple) -> tuple:
    return tuple(1 - b for b in s[0]), tuple(1 - b for b in s[1])


def _t_is_extremal(s: tuple) -> bool:
    low = _t_mirror(s)
    return all(_t_cmp(low, _t_shift(s, k)) <= 0 <= _t_cmp(s, _t_shift(s, k))
               for k in range(len(s[0]) + len(s[1])))


def _t_is_parry_admissible(s: tuple) -> bool:
    return all(_t_cmp(_t_shift(s, k), s) < 0 for k in range(1, len(s[0]) + len(s[1]) + 1))


def _t_extremal_rotation(per: tuple) -> tuple:
    """Largest rotation of the period or of its mirror: all have length q."""
    q = len(per)
    words = (per, _t_mirror(((), per))[1])
    return (), max(w[j:] + w[:j] for w in words for j in range(q))


def _t_doubling(s: tuple) -> tuple:
    """1, then (s_i, 1 - s_i) for each symbol: preperiod 2p + 1, period 2q."""
    p, q = len(s[0]), len(s[1])
    image = (1,) + tuple(x for b in _t_head(*s, p + 2 * q) for x in (b, 1 - b))
    return symbolwise_canonical(image[:2 * p + 1], image[2 * p + 1:])


def _t_encode(s: tuple) -> tuple:
    """R exactly where a symbol differs from the one before (s_(-1) = 0)."""
    p, q = len(s[0]), len(s[1])
    bits = (0,) + _t_head(*s, p + q + 1)
    syms = tuple("R" if a != b else "L" for a, b in zip(bits, bits[1:]))
    return symbolwise_canonical(syms[:p + 1], syms[p + 1:])


def _t_decode(it: tuple) -> tuple:
    """Bit i is the parity of the Rs at positions 0..i."""
    p = len(it[0])
    bits = tuple(accumulate((int(x == "R") for x in it[0] + it[1] * 2), xor))
    return symbolwise_canonical(bits[:p], bits[p:])


def _t_unimodal_cmp(a: tuple, b: tuple) -> int:
    """First difference with L < C < R, flipped after an odd number of Rs."""
    n = len(a[0]) + len(b[0]) + math.lcm(len(a[1]), len(b[1]))
    wa, wb = _t_head(*a, n), _t_head(*b, n)
    for i, (x, y) in enumerate(zip(wa, wb)):
        if x != y:
            sign = 1 if "LCR".index(x) > "LCR".index(y) else -1
            return -sign if wa[:i].count("R") % 2 else sign
    return 0


def _t_text(s: tuple) -> str:
    return "".join(map(str, s[0])) + "(" + "".join(map(str, s[1])) + ")^w"


def _as_tuples(word) -> tuple:
    """A word's stored symbols as the (preperiod, period) pair of tuples."""
    return tuple(word._pre), tuple(word._per)


class TestAgainstTupleDefinitions:
    """Seeded words with preperiod at most 6 and period at most 12: every
    words-layer operation on the stored bytes and str gives what its
    definition on tuples of ints (or of one-letter str) gives, and the
    public accessors hand out those tuples."""

    @staticmethod
    def pairs(count: int = 3000):
        rng = random.Random(SEED + 11)
        for _ in range(count):
            yield tuple(tuple(rng.randint(0, 1) for _ in range(rng.randint(lo, hi)))
                        for lo, hi in ((0, 6), (1, 12), (0, 6), (1, 12)))

    def test_operations_match_tuple_definitions(self):
        for pre, per, pre2, per2 in self.pairs():
            s, t = PeriodicSeq(pre, per), PeriodicSeq(pre2, per2)
            a, b = symbolwise_canonical(pre, per), symbolwise_canonical(pre2, per2)
            assert _as_tuples(s) == a and _as_tuples(t) == b, (pre, per)
            assert _canonical(bytes(pre), bytes(per)) == (bytes(a[0]), bytes(a[1]))
            assert lex_cmp(s, t) == _t_cmp(a, b), (s, t)
            assert lex_cmp(s.prefix(9), t.prefix(9)) == _t_cmp((_t_head(*a, 9), (0,)),
                                                               (_t_head(*b, 9), (0,)))
            for j in (0, 1, len(pre), len(pre) + len(per) + 1):
                assert _as_tuples(shift(s, j)) == _t_shift(a, j), (s, j)
            assert _as_tuples(mirror(s)) == _t_mirror(a), s
            assert is_extremal(s) == _t_is_extremal(a), s
            assert is_parry_admissible(s) == _t_is_parry_admissible(a), s
            assert _as_tuples(doubling_map(s)) == _t_doubling(a), s
            periodic = PeriodicSeq((), per)
            assert _as_tuples(extremal_rotation(periodic)) == _t_extremal_rotation(periodic.period.bits)
            image = encode_itinerary(s)
            assert _as_tuples(image) == _t_encode(a), s
            assert _as_tuples(decode_itinerary(image)) == _t_decode(_t_encode(a)) == a, s
            assert unimodal_cmp(image, encode_itinerary(t)) == _t_unimodal_cmp(
                _t_encode(a), _t_encode(b)), (s, t)
            assert str(s) == _t_text(a) and PeriodicSeq.parse(_t_text((pre, per))) == s

    def test_public_accessors_hand_out_tuples(self):
        for pre, per, _, _ in self.pairs(200):
            s = PeriodicSeq(pre, per)
            for bits in (s.preperiod.bits, s.period.bits, s.prefix(7).bits, mirror(s).period.bits):
                assert type(bits) is tuple and all(type(x) is int for x in bits)
            it = encode_itinerary(s)
            for syms in (it.preperiod, it.period):
                assert type(syms) is tuple and all(type(x) is str and len(x) == 1 for x in syms)
            assert (it.preperiod, it.period) == _t_encode(symbolwise_canonical(pre, per))
        necklaces = primitive_necklaces(6)
        assert all(type(n.representative) is BinaryWord for n in necklaces)
        assert [n.representative.bits for n in necklaces] == sorted(
            {max(w[j:] + w[:j] for j in range(6)) for w in primitive_words(6)})


class TestLexCmp:
    def test_identity(self):
        assert lex_cmp(PeriodicSeq.parse("(01)^w"), PeriodicSeq.parse("(01)^w")) == EQUAL

    def test_first_symbol(self):
        assert lex_cmp(PeriodicSeq("0", "01"), PeriodicSeq("1", "10")) == LESS

    def test_difference_inside_period(self):
        # scanning 1100 1100 ... against 1101 0011 0100 ...: differs at position 4
        assert lex_cmp(PeriodicSeq.parse("(1100)^w"),
                       PeriodicSeq.parse("(110100)^w")) == LESS

    def test_total_order_on_random_triples(self):
        rng = random.Random(SEED)
        for _ in range(10_000):
            a = random_seq(rng, 4, 6)
            b = random_seq(rng, 4, 6)
            c = random_seq(rng, 4, 6)
            ab, ba = lex_cmp(a, b), lex_cmp(b, a)
            assert ab == -ba
            assert (ab == EQUAL) == (a == b)
            if lex_cmp(a, b) != GREATER and lex_cmp(b, c) != GREATER:
                assert lex_cmp(a, c) != GREATER

    def test_prefix_coherence(self):
        rng = random.Random(SEED + 1)
        hits = 0
        for _ in range(5000):
            a = random_seq(rng, 3, 6)
            b = random_seq(rng, 3, 6)
            ell = rng.randint(1, 12)
            pa, pb = a.prefix(ell), b.prefix(ell)
            if lex_cmp(pa, pb) == LESS:
                hits += 1
                assert lex_cmp(a, b) == LESS
            if lex_cmp(a, b) != GREATER:
                assert lex_cmp(pa, pb) != GREATER
        assert hits > 100

    def test_words_need_equal_length(self):
        with pytest.raises(ValueError):
            lex_cmp(BinaryWord("01"), BinaryWord("011"))


def _all_small_seqs(max_pre: int, max_period: int) -> list[PeriodicSeq]:
    """Every canonical sequence with preperiod <= max_pre and period
    <= max_period, each once."""
    seqs = {PeriodicSeq(pre, per)
            for p in range(max_pre + 1) for pre in product((0, 1), repeat=p)
            for q in range(1, max_period + 1) for per in primitive_words(q)}
    return sorted(seqs, key=str)


class TestFineWilfLength:
    SEQS = _all_small_seqs(3, 5)

    def test_lex_cmp_matches_lcm_bound_on_all_pairs(self):
        assert len(self.SEQS) > 400
        for a in self.SEQS:
            for b in self.SEQS:
                assert lex_cmp(a, b) == lcm_bound_cmp(a, b), (a, b)

    def test_is_extremal_matches_lcm_bound(self):
        for s in self.SEQS:
            m = mirror(s)
            ref = all(lcm_bound_cmp(m, shift(s, k)) <= 0 and lcm_bound_cmp(shift(s, k), s) <= 0
                      for k in range(len(s.preperiod) + len(s.period)))
            assert is_extremal(s) == ref, s

    def test_is_parry_admissible_matches_lcm_bound(self):
        for s in self.SEQS:
            ref = all(lcm_bound_cmp(shift(s, j), s) < 0
                      for j in range(1, len(s.preperiod) + len(s.period) + 1))
            assert is_parry_admissible(s) == ref, s

    def test_coprime_periods_agreeing_on_a_long_prefix(self):
        # a word of length 23 + 24 - 2 with periods 23 and 24 (gcd 1): its
        # period-23 and period-24 extensions agree on 45 symbols, one short
        # of the Fine-Wilf length 23 + 24 - 1, and then must differ
        p, q = 23, 24
        n = p + q - 2
        root = list(range(n))

        def find(i):
            while root[i] != i:
                i = root[i]
            return i
        for i in range(n):
            for d in (p, q):
                if i + d < n:
                    root[find(i + d)] = find(i)
        classes = sorted({find(i) for i in range(n)})
        assert len(classes) == 2
        w = tuple(classes.index(find(i)) for i in range(n))
        for pre in ((), (1, 0, 1)):
            a, b = PeriodicSeq(pre, w[:p]), PeriodicSeq(pre, w[:q])
            assert a.prefix(len(pre) + n) == b.prefix(len(pre) + n)
            assert a != b
            assert lex_cmp(a, b) == lcm_bound_cmp(a, b) == -lex_cmp(b, a) != EQUAL
            assert unimodal_cmp(encode_itinerary(a), encode_itinerary(b)) == lex_cmp(a, b)


class TestShiftMirror:
    def test_shift_examples(self):
        assert shift(PeriodicSeq.parse("(10)^w"), 1) == PeriodicSeq.parse("(01)^w")
        assert shift(PeriodicSeq.parse("11(0)^w"), 2) == PeriodicSeq.parse("(0)^w")
        assert shift(PeriodicSeq.parse("(1100)^w"), 4) == PeriodicSeq.parse("(1100)^w")

    def test_shift_composes(self):
        rng = random.Random(SEED + 2)
        for _ in range(500):
            s = random_seq(rng, 4, 6)
            i, j = rng.randint(0, 8), rng.randint(0, 8)
            assert shift(shift(s, i), j) == shift(s, i + j)

    def test_mirror_examples(self):
        assert mirror(PeriodicSeq.parse("(1100)^w")) == PeriodicSeq.parse("(0011)^w")
        assert mirror(PeriodicSeq.parse("(0)^w")) == PeriodicSeq.parse("(1)^w")

    def test_mirror_involution(self):
        rng = random.Random(SEED + 3)
        for _ in range(500):
            s = random_seq(rng, 4, 6)
            assert mirror(mirror(s)) == s


class TestThueMorse:
    def test_known_prefixes(self):
        assert str(thue_morse(8)) == "01101001"
        assert str(thue_morse(1)) == "0"
        assert str(thue_morse(16)) == "0110100110010110"

    def test_against_doubling_recurrence(self):
        # independent construction: t(2k) = t(k), t(2k+1) = 1 - t(k)
        n = 1 << 12
        rec = [0] * n
        for k in range(1, n):
            rec[k] = rec[k >> 1] if k % 2 == 0 else 1 - rec[k >> 1]
        assert list(thue_morse(n)) == rec

    def test_morphism_examples(self):
        assert str(tm_morphism("0")) == "01"
        assert str(tm_morphism("01")) == "0110"
        assert str(tm_morphism("0110")) == "01101001"

    def test_morphism_doubles_prefixes(self):
        for n in range(1, 11):
            assert tm_morphism(thue_morse(1 << (n - 1))) == thue_morse(1 << n)


class TestDoublingMap:
    def test_examples(self):
        assert doubling_map(PeriodicSeq.parse("(0)^w")) == PeriodicSeq.parse("(10)^w")
        assert doubling_map(PeriodicSeq.parse("(1)^w")) == PeriodicSeq.parse("1(10)^w")
        assert doubling_map(PeriodicSeq.parse("(10)^w")) == PeriodicSeq.parse("(1100)^w")

    def test_matches_symbolwise_definition(self):
        rng = random.Random(SEED + 4)
        for _ in range(300):
            s = random_seq(rng, 3, 6)
            image = doubling_map(s)
            direct = doubling_prefix(s.prefix(20), 40)
            assert image.prefix(40) == direct
        assert doubling_prefix("01", 0) == BinaryWord("")
        with pytest.raises(ValueError, match="nonnegative"):
            doubling_prefix("01", -1)

    def test_prefix_reads_only_the_symbols_it_needs(self):
        """n output symbols take n // 2 input ones: the leading 1, then
        one pair (b, 1 - b) per input symbol b."""
        assert doubling_prefix("0", 3) == BinaryWord("101")
        assert doubling_prefix("", 1) == BinaryWord("1")
        assert doubling_prefix("1", 2) == BinaryWord("11")
        with pytest.raises(ValueError, match="need 1 input symbols for 2 output"):
            doubling_prefix("", 2)

    def test_period_doubles_when_period_ends_in_zero(self):
        rng = random.Random(SEED + 5)
        checked = 0
        for _ in range(500):
            s = random_purely_periodic(rng, 8)
            q = len(s.period)
            if s.period[q - 1] != 0:
                continue
            checked += 1
            image = doubling_map(s)
            assert image.is_purely_periodic
            assert len(image.period) == 2 * q
        assert checked > 50

    def test_monotone(self):
        rng = random.Random(SEED + 6)
        for _ in range(1000):
            a = random_seq(rng, 3, 6)
            b = random_seq(rng, 3, 6)
            if lex_cmp(a, b) == EQUAL:
                continue
            if lex_cmp(a, b) == GREATER:
                a, b = b, a
            assert lex_cmp(doubling_map(a), doubling_map(b)) == LESS
            assert lex_cmp(shift(doubling_map(a), 1), shift(doubling_map(b), 1)) == LESS

    def test_shift_commutation(self):
        rng = random.Random(SEED + 7)
        for _ in range(200):
            s = random_seq(rng, 3, 6)
            for k in range(17):
                assert shift(doubling_map(s), 2 * k + 1) == shift(doubling_map(shift(s, k)), 1)

    def test_fixed_point_prefix(self):
        # the shifted Thue-Morse sequence is fixed, checked to length 2^14
        n = 1 << 14
        ell = BinaryWord(thue_morse(n + 1).bits[1:])
        assert doubling_prefix(ell, n) == ell[:n]

    def test_convergence_to_fixed_point(self):
        # k applications lock the first 2^k - 1 symbols to the fixed point
        rng = random.Random(SEED + 8)
        target = thue_morse((1 << 12) + 1).bits[1:]
        for _ in range(5):
            cur = random_seq(rng, 3, 6)
            for k in range(1, 13):
                cur = doubling_map(cur)
                got = cur.prefix((1 << k) - 1).bits
                assert got == target[:(1 << k) - 1]

    def test_morphism_bridge(self):
        # prefixing a zero turns doubling iterations into morphism iterations
        rng = random.Random(SEED + 9)
        for _ in range(30):
            s = random_seq(rng, 3, 6)
            for k in range(9):
                m = s
                for _ in range(k):
                    m = doubling_map(m)
                lhs = BinaryWord((0,)) + m.prefix((1 << k) * 4 - 1)
                rhs = BinaryWord((0,)) + s.prefix(3)
                for _ in range(k):
                    rhs = tm_morphism(rhs)
                assert lhs == rhs


class TestExtremalSet:
    def test_examples(self):
        assert is_extremal(PeriodicSeq.parse("(10)^w"))
        assert not is_extremal(PeriodicSeq.parse("(0)^w"))
        assert is_extremal(PeriodicSeq.parse("(1100)^w"))
        assert is_extremal(PeriodicSeq.parse("(1)^w"))

    def test_members_start_with_one(self):
        for s in extremal_members(10):
            assert s.at(0) == 1

    def test_member_starting_10_is_unique(self):
        for s in extremal_members(12):
            if s.at(0) == 1 and s.at(1) == 0:
                assert s == PeriodicSeq.parse("(10)^w")

    def test_closure_under_doubling(self):
        # membership transfers through the doubling map both ways
        for q in range(1, 13):
            for w in primitive_words(q):
                s = PeriodicSeq((), w)
                lhs = is_extremal(s)
                rhs = s.at(0) == 1 and is_extremal(doubling_map(s))
                assert lhs == rhs, s

    def test_fast_path_matches_generic(self):
        rng = random.Random(SEED + 10)
        for _ in range(300):
            s = random_purely_periodic(rng, 8)
            m = mirror(s)
            generic = all(
                lex_cmp(m, shift(s, k)) != GREATER and lex_cmp(shift(s, k), s) != GREATER
                for k in range(len(s.period)))
            assert is_extremal(s) == generic


class TestHalfMirror:
    def test_examples(self):
        assert split_halfmirror("1100") == "11"
        assert split_halfmirror("11010110010100") == "1101011"
        assert split_halfmirror("110") is None
        assert split_halfmirror("1101") is None

    def test_half_mirror_prefix_forces_periodicity(self):
        # an extremal sequence beginning w mirror(w) is exactly that square
        for s in extremal_members(12):
            q = len(s.period)
            for d in range(1, 7):
                half = split_halfmirror(s.prefix(2 * d))
                if half is not None:
                    assert s == PeriodicSeq((), s.prefix(2 * d).bits), (s, d)
