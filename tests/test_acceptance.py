"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

from sturmkit.christoffel import (
    NotOfForm,
    RationalLimitClass,
    all_christoffel_lower,
    christoffel,
    classify_non_recurrent,
    limit_pair,
    pirillo_check,
    verify_limit_convergence,
)
from sturmkit.derive import (
    ClassificationResult,
    NotIndistinguishable,
    classify,
    derived_pair,
    substitution_preserves_check,
)
from sturmkit.language import (
    central_window_uniqueness,
    complexity_profile,
    toeplitz_pair,
    toeplitz_thue_morse_pair,
)
from sturmkit.patterns import (
    Pattern,
    certify_asymptotic,
    check_indistinguishable,
    discrepancy,
    reverse_pair,
    shift_pair,
    substitute_pair,
)
from sturmkit.sequences import (
    BINARY,
    EventuallyPeriodic,
    MechanicalLower,
    MechanicalUpper,
    Substitution,
    alphabet_of_size,
    shift,
    substitute,
)

from conftest import GOLDEN, GOLDEN_COMPL, SQRT2_HALF, one_minus, to_str, to_word

SLOPES = {
    "(sqrt5-1)/2": GOLDEN,
    "sqrt2/2": SQRT2_HALF,
    "(3-sqrt5)/2": GOLDEN_COMPL,
}


def report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion:>2} PASS  {detail}")


def test_criterion_01_christoffel_golden_values():
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        lower = christoffel(5, 8, "lower")
        upper = christoffel(5, 8, "upper")
        best = min(best, time.perf_counter() - t0)
    assert str(lower) == "0010010100101"
    assert str(upper) == "1010010100100"
    assert best < 0.001
    report(1, f"christoffel(5,8) byte-exact, best of 5: {best * 1e6:.0f}us")


def test_criterion_02_sturmian_indistinguishability():
    for name, alpha in SLOPES.items():
        t0 = time.perf_counter()
        pair = certify_asymptotic(MechanicalLower(alpha), MechanicalUpper(alpha), 4)
        assert pair.diff == frozenset({-1, 0})
        assert (pair.x.at(-1), pair.x.at(0)) == (1, 0)
        assert (pair.y.at(-1), pair.y.at(0)) == (0, 1)
        verdict = check_indistinguishable(pair, 25)
        elapsed = time.perf_counter() - t0
        assert verdict.passed and verdict.witness is None
        assert elapsed < 10
        report(2, f"alpha={name}: F={{-1,0}}, max_len=25 pass in {elapsed:.2f}s")


def test_criterion_03_complexity_law():
    profile = complexity_profile(MechanicalLower(GOLDEN), 30, (-30, 30))
    assert profile == list(range(2, 32))
    report(3, "complexity of c_alpha on [-30,30] equals [2..31]")


def test_criterion_04_compact_language():
    golden = certify_asymptotic(MechanicalLower(GOLDEN), MechanicalUpper(GOLDEN), 4)
    for n in range(1, 21):
        assert central_window_uniqueness(golden, n)
    # the 26-symbol display words arise from the limit pair at slope 5/13
    # (the golden pair passes uniqueness but has majority-1 windows); see the
    # decisions ledger for the attribution note
    form = limit_pair(5, 8, "above")
    assert central_window_uniqueness(form.pair, 13)
    assert to_str(form.pair.x.window(-13, 12)) == "1010010100101" + "0010010100101"
    assert to_str(form.pair.y.window(-13, 12)) == "1010010100100" + "1010010100101"
    report(4, "uniqueness n=1..20 on golden pair; display words byte-exact at 5/13 limit")


def test_criterion_05_pirillo_sweep():
    t0 = time.perf_counter()
    for total in range(2, 21):
        for p in range(1, total):
            q = total - p
            if math.gcd(p, q) == 1:
                assert pirillo_check(christoffel(p, q, "lower").word)
    christoffels = all_christoffel_lower(12)
    mismatches = 0
    for length in range(2, 13):
        for bits in range(2 ** (length - 2)):
            m = tuple((bits >> i) & 1 for i in range(length - 2))
            w = (0,) + m + (1,)
            if pirillo_check(w) != (w in christoffels):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 5
    report(5, f"all coprime p+q<=20 pass; 0m1 sweep <=12 zero mismatches in {elapsed:.2f}s")


CRITERION_6_TUPLES = [(0, 1), (1, 1), (1, 2), (2, 3), (5, 8)]


def valid_sides(p, q):
    sides = []
    if (p, q) != (1, 0):
        sides.append("above")
    if (p, q) != (0, 1):
        sides.append("below")
    return sides


def test_criterion_06_limit_formulas():
    for p, q in CRITERION_6_TUPLES:
        eps = Fraction(1, 10 * (p + q) ** 2)
        radius = 3 * (p + q) + 5
        for side in valid_sides(p, q):
            assert verify_limit_convergence(p, q, side, eps, radius)
            assert check_indistinguishable(limit_pair(p, q, side).pair, 20).passed
    report(6, "limit convergence and indistinguishability for all tuples/sides")


def test_criterion_07_non_recurrent_classification(remark_pair):
    for p, q in CRITERION_6_TUPLES:
        for side in valid_sides(p, q):
            out = classify_non_recurrent(limit_pair(p, q, side).pair)
            assert out == RationalLimitClass(p, q, side)
    out = classify_non_recurrent(remark_pair)
    assert isinstance(out, NotOfForm)
    # returned witness is the canonical shortest/lex-least failing word (00);
    # the illustrative pattern 00111 is verified as a witness as well (see
    # the decisions ledger on the witness identity)
    assert discrepancy(Pattern.from_word(out.witness), remark_pair) != 0
    assert to_str(out.witness) == "00"
    assert discrepancy(Pattern.from_word(to_word("00111")), remark_pair) == -1
    via_classify = classify(remark_pair, window=(-30, 30), max_len=8)
    assert isinstance(via_classify, NotIndistinguishable)
    report(7, "limit pairs classify to (p,q,side); remark pair rejected with verified witness")


def test_criterion_08_substitution_preservation():
    rng = random.Random(0x5708)
    pair = shift_pair(
        certify_asymptotic(MechanicalLower(GOLDEN), MechanicalUpper(GOLDEN), 4), -1
    )
    for trial in range(10):
        size = rng.randint(2, 4)
        images = {
            s: tuple(rng.randrange(size) for _ in range(rng.randint(1, 3)))
            for s in (0, 1)
        }
        phi = Substitution(images, BINARY, alphabet_of_size(size))
        assert substitution_preserves_check(phi, pair, 15), (trial, images)
    report(8, "10 randomized substitutions preserve indistinguishability at max_len=15")


def test_criterion_09_derived_pair_transport():
    rng = random.Random(0x5709)
    base = shift_pair(
        certify_asymptotic(MechanicalLower(GOLDEN), MechanicalUpper(GOLDEN), 4), -1
    )
    pairs = [base]
    while len(pairs) < 6:
        size = rng.randint(2, 3)
        images = {
            s: tuple(rng.randrange(size) for _ in range(rng.randint(1, 3)))
            for s in (0, 1)
        }
        if images[0] + images[1] == images[1] + images[0]:
            continue  # commuting images collapse to a periodic sequence
        phi = Substitution(images, BINARY, alphabet_of_size(size))
        image = substitute_pair(phi, base)
        lo, _ = image.span()
        pairs.append(shift_pair(image, lo))
    checked = 0
    for pair in pairs:
        lo, hi = pair.span()
        counts = {}
        for s in pair.x.window(0, hi):
            counts[s] = counts.get(s, 0) + 1
        a = min(counts, key=lambda s: (counts[s], s))
        d = derived_pair(pair, a, (-400, 400))
        rec = d.x.recoding()
        size = d.alphabet.size
        max_len = 8 if size == 2 else 5  # cap the enumeration, exact either way
        for length in range(1, max_len + 1):
            for word in product(range(size), repeat=length):
                assert discrepancy(Pattern.from_word(word), d) == discrepancy(
                    Pattern.from_word(rec(word)), pair
                )
                checked += 1
    report(9, f"discrepancy transport exact on {checked} words across 6 pairs")


def _random_noncommuting(rng, size):
    target = alphabet_of_size(size)
    while True:
        im0 = tuple(rng.randrange(size) for _ in range(rng.randint(1, 4)))
        im1 = tuple(rng.randrange(size) for _ in range(rng.randint(1, 4)))
        if im0 + im1 != im1 + im0:
            return Substitution({0: im0, 1: im1}, BINARY, target)


def test_criterion_10_theorem_c_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(0x5710)
    slope_pool = list(SLOPES.values())
    window = (-50, 50)

    for trial in range(13):  # recurrent constructions
        alpha = slope_pool[trial % 3]
        phi = _random_noncommuting(rng, rng.randint(2, 4))
        m0 = rng.randint(-6, 6)
        x = shift(substitute(phi, shift(MechanicalLower(alpha), 1)), m0)
        y = shift(substitute(phi, shift(MechanicalUpper(alpha), 1)), m0)
        swapped = rng.random() < 0.5
        if swapped:
            x, y = y, x
        pair = certify_asymptotic(x, y, 80)
        out = classify(pair, window=window, max_len=10)
        assert isinstance(out, ClassificationResult) and out.case == "recurrent", trial
        rx = shift(substitute(out.phi, shift(out.base.lower_oracle, 1)), out.m)
        ry = shift(substitute(out.phi, shift(out.base.upper_oracle, 1)), out.m)
        first, second = (pair.x, pair.y) if out.x_is_first else (pair.y, pair.x)
        assert first.window(*window) == rx.window(*window)
        assert second.window(*window) == ry.window(*window)
        # the base is the construction's own mechanical pair, read exactly off
        # the normal forms; with the members swapped x sits over upper(alpha),
        # which is the complement of lower(1 - alpha)
        assert out.base.slope == (one_minus(alpha) if swapped else alpha)

    for trial in range(8):  # recurrent constructions with letter relabels:
        # no derivation happens, so the construction slope itself is recovered
        alpha = slope_pool[trial % 3]
        swap = trial % 2 == 1
        phi = Substitution({0: (1,), 1: (0,)} if swap else {0: (0,), 1: (1,)}, BINARY, BINARY)
        m0 = rng.randint(-6, 6)
        x = shift(substitute(phi, shift(MechanicalLower(alpha), 1)), m0)
        y = shift(substitute(phi, shift(MechanicalUpper(alpha), 1)), m0)
        pair = certify_asymptotic(x, y, 80)
        out = classify(pair, window=window, max_len=10)
        assert isinstance(out, ClassificationResult) and out.case == "recurrent"
        rx = shift(substitute(out.phi, shift(out.base.lower_oracle, 1)), out.m)
        ry = shift(substitute(out.phi, shift(out.base.upper_oracle, 1)), out.m)
        first, second = (pair.x, pair.y) if out.x_is_first else (pair.y, pair.x)
        assert first.window(*window) == rx.window(*window)
        assert second.window(*window) == ry.window(*window)
        # x sits over the lower word, so even a complementing construction
        # recovers the original slope
        assert out.base.slope == alpha

    base_x = EventuallyPeriodic.from_strings("0", "", "10", "0")
    base_y = EventuallyPeriodic.from_strings("0", "", "010", "0")
    for trial in range(12):  # non-recurrent constructions
        phi = _random_noncommuting(rng, rng.randint(2, 4))
        m0 = rng.randint(-6, 6)
        x = shift(substitute(phi, base_x), m0)
        y = shift(substitute(phi, base_y), m0)
        if rng.random() < 0.5:
            x, y = y, x
        pair = certify_asymptotic(x, y, 80)
        out = classify(pair, window=window, max_len=10)
        assert isinstance(out, ClassificationResult) and out.case == "non_recurrent", trial
        rx = shift(substitute(out.phi, base_x), out.m)
        ry = shift(substitute(out.phi, base_y), out.m)
        first, second = (pair.x, pair.y) if out.x_is_first else (pair.y, pair.x)
        assert first.window(*window) == rx.window(*window)
        assert second.window(*window) == ry.window(*window)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(10, f"25 + 8 round trips byte-exact on [-50,50] in {elapsed:.1f}s")


def test_criterion_11_toeplitz_negative_control():
    plain = toeplitz_pair()
    verdict = check_indistinguishable(plain, 16)
    assert not verdict.passed
    assert verdict.lengths_checked == 1  # frozen regression constant
    tm = toeplitz_thue_morse_pair()
    assert tm.diff == frozenset({-1, 0})
    verdict_tm = check_indistinguishable(tm, 16)
    assert not verdict_tm.passed
    assert verdict_tm.lengths_checked == 2  # frozen regression constant
    report(11, "toeplitz fails at length 1; thue-morse variant at length 2")


def test_criterion_12_affine_invariance_suite():
    rng = random.Random(0x5712)
    pool = [
        certify_asymptotic(MechanicalLower(GOLDEN), MechanicalUpper(GOLDEN), 4),
        limit_pair(1, 2, "above").pair,
        limit_pair(2, 3, "below").pair,
        certify_asymptotic(
            EventuallyPeriodic.from_strings("100110", "100111", "", "000111"),
            EventuallyPeriodic.from_strings("100110", "", "100111", "000111"),
            4,
        ),
        toeplitz_pair(),
        substitute_pair(
            Substitution({0: (0, 1), 1: (1,)}, BINARY, BINARY),
            shift_pair(certify_asymptotic(
                MechanicalLower(SQRT2_HALF), MechanicalUpper(SQRT2_HALF), 4
            ), -1),
        ),
    ]
    for _ in range(500):
        pair = rng.choice(pool)
        support = sorted(rng.sample(range(-4, 5), rng.randint(1, 3)))
        p = Pattern.from_dict({s: rng.randint(0, 1) for s in support})
        n = rng.randint(-7, 7)
        base = discrepancy(p, pair)
        assert discrepancy(p, shift_pair(pair, n)) == base
        assert discrepancy(p.negated(), reverse_pair(pair)) == base
    report(12, "500 randomized triples satisfy the affine invariance exactly")
