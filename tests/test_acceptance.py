"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion; any assertion failure marks the criterion red.
"""

import random
import time
from fractions import Fraction
from itertools import product

from univoque.algebraic import IntPolynomial, poly_str
from univoque.expansions import (
    FloatBeta,
    d_of_beta,
    expansion_value,
    is_parry_admissible,
    quasi_greedy,
    solve_base,
)
from univoque.oracle import min_beta_for_period, primitive_necklaces, verify_ordering
from univoque.thresholds import (
    below_komornik_loreti,
    kl_bracket,
    komornik_loreti,
    min_extremal_explicit,
    min_extremal_recursive,
    reduced_poly,
    threshold_beta,
)
from univoque.trapezoid import (
    Itinerary,
    decode_itinerary,
    encode_itinerary,
    extension_map,
    extension_three_cycle,
    find_lr_cycles,
    unimodal_cmp,
)
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
    shift,
    split_halfmirror,
    thue_morse,
)
from util import PAPER_MINIMAL_POLYS, SEED, extremal_members, primitive_words

TABLE = {
    2: ("11", 1.61803, True),
    3: ("111", 1.83929, False),
    4: ("1101", 1.75488, True),
    5: ("11011", 1.81240, False),
    6: ("110101", 1.78854, False),
    7: ("1101011", 1.80509, False),
    8: ("11010011", 1.78460, True),
}


def _pass(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_table_reproduction():
    t0 = time.time()
    for n, (digits, value, below) in TABLE.items():
        beta = threshold_beta(n, 1e-8)
        assert abs(float(beta) - value) < 1e-5, n
        exp = d_of_beta(beta)
        assert exp.finiteness == ("finite", len(digits)), n
        assert str(exp.prefix(len(digits))) == digits, n
        assert reduced_poly(n) == PAPER_MINIMAL_POLYS[n], n
        assert below_komornik_loreti(n) == below, n
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"table took {elapsed:.2f}s"
    _pass(f"table-reproduction ({elapsed:.2f}s)")


def test_komornik_loreti_bracket():
    kl = komornik_loreti(1e-5)
    lo, hi = kl_bracket(Fraction(1, 10 ** 5))
    assert hi - lo < Fraction(1, 10 ** 5)
    assert float(lo) - 1e-5 <= 1.78723 <= float(hi) + 1e-5
    assert abs(float(kl) - 1.78723) < 1e-5
    _pass("komornik-loreti-bracket")


def test_oracle_equivalence():
    t0 = time.time()
    for n in range(2, 13):
        recovered = min_beta_for_period(n, 1e-7)
        direct = float(threshold_beta(n, 1e-9))
        assert abs(recovered.value - direct) < 1e-6, n
    two = min_beta_for_period(2, 1e-7)
    assert abs(two.value - 1.6180339887) < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"oracle took {elapsed:.2f}s"
    _pass(f"oracle-equivalence ({elapsed:.2f}s)")


def test_construction_agreement():
    for k in range(1, 65):
        rec = min_extremal_recursive(k)
        exp = min_extremal_explicit(k)
        assert rec == exp, k
        assert rec.is_purely_periodic
        assert len(rec.period) == (k if k >= 2 else 1), k
    # exhaustive minimality over necklace enumeration
    for k in range(1, 15):
        members = []
        for neck in primitive_necklaces(k):
            s = PeriodicSeq((), neck.representative.bits)
            if is_extremal(s):
                members.append(s)
        assert members, k
        least = members[0]
        for s in members[1:]:
            if lex_cmp(s, least) == LESS:
                least = s
        assert least == min_extremal_recursive(k), k
    _pass("construction-agreement")


def test_ordering_theorem():
    t0 = time.time()
    report = verify_ordering(30)
    assert report["violations"] == []
    prev = None
    for j in range(1, 7):
        beta = threshold_beta(2 ** j, 1e-8)
        if prev is not None:
            assert prev.root.compare(beta.root) == -1, j
        assert below_komornik_loreti(2 ** j) is True, j
        prev = beta
    _pass(f"ordering-theorem ({time.time() - t0:.2f}s)")


def test_itinerary_conjugacy_suite():
    rng = random.Random(SEED)
    # golden pairs
    assert str(encode_itinerary(PeriodicSeq.parse("(1100)^w"))) == "(RL)^w"
    assert str(encode_itinerary(
        PeriodicSeq.parse("(11010110010100)^w"))) == "(RLRRRRL)^w"
    assert decode_itinerary(Itinerary.parse("(RL)^w")) == PeriodicSeq.parse("(1100)^w")
    assert decode_itinerary(
        Itinerary.parse("(RLRRRRL)^w")) == PeriodicSeq.parse("(11010110010100)^w")
    # round trip
    for _ in range(10_000):
        q = rng.randint(1, 12)
        s = PeriodicSeq((), tuple(rng.randint(0, 1) for _ in range(q)))
        assert decode_itinerary(encode_itinerary(s)) == s
    # period transfer: halved exactly on half-mirror squares
    halved = 0
    for _ in range(10_000):
        s = PeriodicSeq((), tuple(rng.randint(0, 1)
                                  for _ in range(rng.randint(1, 12))))
        p, q = len(s.period), len(encode_itinerary(s).period)
        if split_halfmirror(s.period) is not None:
            assert q * 2 == p, s
            halved += 1
        else:
            assert q == p, s
    assert halved > 100
    # order isomorphism
    for _ in range(10_000):
        s = PeriodicSeq((), tuple(rng.randint(0, 1)
                                  for _ in range(rng.randint(1, 10))))
        t = PeriodicSeq((), tuple(rng.randint(0, 1)
                                  for _ in range(rng.randint(1, 10))))
        assert lex_cmp(s, t) == unimodal_cmp(encode_itinerary(s),
                                             encode_itinerary(t)), (s, t)
    _pass("itinerary-conjugacy-suite")


def test_extension_demonstration():
    beta = FloatBeta(1.8)
    x = extension_three_cycle(beta)
    x1 = expansion_value(beta, PeriodicSeq.parse("(0011)^w"))
    x2 = expansion_value(beta, PeriodicSeq.parse("(0110)^w"))
    assert x1 < x < x2
    y = x
    for _ in range(3):
        y = extension_map(beta, y)
    assert abs(y - x) < 1e-10
    assert abs(extension_map(beta, x) - x) > 1e-6
    cycles = find_lr_cycles(FloatBeta(1.8), 2)
    assert any(str(c) == "(RL)^w" for c in cycles)
    assert find_lr_cycles(FloatBeta(1.7), 2) == []
    _pass("extension-demonstration")


def test_lemma_property_suites():
    rng = random.Random(SEED + 1)

    # monotonicity: base order matches expansion order, 100 pairs
    words = []
    for n in range(2, 10):
        for tail in product((0, 1), repeat=n - 1):
            w = tail + (1,)
            if w.count(1) >= 2 and is_parry_admissible(PeriodicSeq(w, (0,))):
                words.append(w)
    pairs = 0
    while pairs < 100:
        w1, w2 = rng.sample(words, 2)
        b1 = solve_base(PeriodicSeq(w1, (0,)))
        b2 = solve_base(PeriodicSeq(w2, (0,)))
        numeric = b1.root.compare(b2.root)
        if numeric == 0:
            continue
        e1, e2 = d_of_beta(b1), d_of_beta(b2)
        lexical = 0
        for i in range(64):
            a, b = e1.digit(i), e2.digit(i)
            if a != b:
                lexical = -1 if a < b else 1
                break
        assert lexical == numeric
        pairs += 1

    # Parry admissibility round trip, words up to length 10
    count = 0
    for n in range(1, 11):
        for tail in product((0, 1), repeat=n - 1):
            w = tail + (1,)
            if not is_parry_admissible(PeriodicSeq(w, (0,))):
                continue
            if w.count(1) < 2:
                continue
            beta = solve_base(PeriodicSeq(w, (0,)))
            exp = d_of_beta(beta)
            assert exp.finiteness == ("finite", n), w
            assert exp.prefix(n).bits == w, w
            count += 1
    assert count > 100

    # no greedy expansion fits between the quasi-greedy and greedy bounds
    for n in TABLE:
        beta = threshold_beta(n, 1e-8)
        dprime = quasi_greedy(beta)
        dword = d_of_beta(beta)
        dexact = PeriodicSeq(dword.prefix(dword.finiteness[1]), (0,))
        for _ in range(100):
            other = FloatBeta(rng.uniform(1.05, 1.95))
            stream = d_of_beta(other)

            def cmp_stream(bound):
                for i in range(96):
                    a, b = stream.digit(i), bound.at(i)
                    if a != b:
                        return -1 if a < b else 1
                return 0

            assert not (cmp_stream(dprime) > 0 and cmp_stream(dexact) < 0)

    # the quasi-greedy expansion evaluates to 1
    for n in TABLE:
        beta = threshold_beta(n, 1e-8)
        assert abs(expansion_value(beta, quasi_greedy(beta)) - 1.0) < 1e-12

    # extremal-set closure under the doubling map, all periods up to 12
    for q in range(1, 13):
        for w in primitive_words(q):
            s = PeriodicSeq((), w)
            assert is_extremal(s) == (s.at(0) == 1 and is_extremal(doubling_map(s)))

    # the shifted Thue-Morse sequence is fixed, prefix 2^14
    n = 1 << 14
    ell = BinaryWord(thue_morse(n + 1).bits[1:])
    assert doubling_prefix(ell, n) == ell[:n]

    # period halving square resolution for half words up to length 10
    resolved = 0
    for k in range(2, 11):
        for v in product((0, 1), repeat=k):
            square = v + tuple(1 - b for b in v)
            s = PeriodicSeq((), square)
            if len(s.period) != 2 * k or not is_extremal(s):
                continue
            assert v[-1] == 1, v
            shorter = PeriodicSeq((), v[:-1] + (0,))
            assert len(shorter.period) == k, v
            assert is_extremal(shorter), v
            assert lex_cmp(shorter, s) == LESS, v
            resolved += 1
    assert resolved > 50
    _pass("lemma-property-suites")
