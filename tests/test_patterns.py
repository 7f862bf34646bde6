import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import sturmkit as sk
from sturmkit.patterns import (
    AsymptoticPair,
    _deltas,
    Pattern,
    Verdict,
    certify_asymptotic,
    check_indistinguishable,
    discrepancy,
    ns_norm_lower_bound,
    occurrences_in,
    pattern_reduction_check,
    reverse_pair,
    shift_pair,
    substitute_pair,
)
from sturmkit.sequences import (
    Alphabet,
    BINARY,
    EventuallyPeriodic,
    MechanicalLower,
    MechanicalUpper,
    Substitution,
    alphabet_of_size,
    difference_set,
    shift,
    substitute,
)

from sturmkit.language import ToeplitzLimit, toeplitz_pair, toeplitz_thue_morse_pair

from conftest import GOLDEN, SQRT2_HALF, to_str, to_word

ABC = Alphabet(("a", "b", "c"))


@pytest.fixture(scope="module")
def abc_pair():
    # the flagship discrepancy example: x carries "abc" at the origin, y
    # carries "bca"; both are built over the same periodic background
    period = ABC.word_from_str("bcabcbcabcabc")
    pad = ABC.word_from_str("bcabc")
    x = EventuallyPeriodic(period, pad, ABC.word_from_str("abc"), period, ABC)
    y = EventuallyPeriodic(period, pad, ABC.word_from_str("bca"), period, ABC)
    return certify_asymptotic(x, y, radius=4)


def test_certify_examples(golden_pair):
    assert golden_pair.diff == frozenset({-1, 0})
    x = MechanicalLower(GOLDEN)
    assert certify_asymptotic(x, x, 5).diff == frozenset()
    a = EventuallyPeriodic.from_strings("0", "", "10", "0")
    b = EventuallyPeriodic.from_strings("0", "", "010", "0")
    assert certify_asymptotic(a, b, 5).diff == frozenset({0, 1})


def test_certify_errors():
    with pytest.raises(sk.NotAsymptoticError):
        certify_asymptotic(MechanicalLower(GOLDEN), MechanicalLower(SQRT2_HALF), 5)
    with pytest.raises(sk.UncertifiableError):
        certify_asymptotic(ToeplitzLimit(0), ToeplitzLimit(1), 5)
    with pytest.raises(ValueError):
        certify_asymptotic(
            shift(MechanicalLower(GOLDEN), 30), shift(MechanicalUpper(GOLDEN), 30), 5
        )  # differences exist but sit outside the radius


def test_pair_rejects_a_difference_set_with_a_hole():
    # the members differ at 0, 1 and 2; the listed positions alone agree with {0, 2}
    x = EventuallyPeriodic.from_strings("0", "", "111", "0")
    y = EventuallyPeriodic.from_strings("0", "", "000", "0")
    with pytest.raises(ValueError, match="hull"):
        AsymptoticPair(x, y, frozenset({0, 2}))
    assert AsymptoticPair(x, y, frozenset({0, 1, 2})).diff == difference_set(x, y)


def test_pair_checks_an_empty_difference_set(golden_pair):
    with pytest.raises(ValueError, match="hull"):
        AsymptoticPair(golden_pair.x, golden_pair.y, frozenset())
    # psi = 0->100, 1->00 over sigma lower/upper golden: the images differ at -5 and -3
    psi = Substitution({0: (1, 0, 0), 1: (0, 0)}, BINARY, BINARY)
    x, y = (substitute(psi, shift(cls(GOLDEN), 1)) for cls in (MechanicalLower, MechanicalUpper))
    with pytest.raises(ValueError, match="hull"):
        AsymptoticPair(x, y, frozenset())
    assert AsymptoticPair(x, substitute(psi, shift(MechanicalLower(GOLDEN), 1)), frozenset()).is_trivial
    # members without a normal form are compared on one bounded window
    assert AsymptoticPair(ToeplitzLimit(0), ToeplitzLimit(0), frozenset()).is_trivial
    with pytest.raises(ValueError, match="hull"):
        AsymptoticPair(ToeplitzLimit(0), ToeplitzLimit(1), frozenset())


def test_abc_discrepancy_is_zero(abc_pair):
    assert abc_pair.diff == frozenset({0, 1, 2})
    p = Pattern.from_word(ABC.word_from_str("abcabc"))
    assert discrepancy(p, abc_pair) == 0


def test_occurrences():
    x = MechanicalLower(Fraction(5, 13))
    p = Pattern.from_word(to_word("00"))
    assert occurrences_in(p, x, (0, 12)) == {0, 3, 8}
    single = Pattern.from_dict({0: x.at(0)})
    assert occurrences_in(single, x, (0, 0)) == {0}
    gapped = Pattern.from_dict({0: 0, 2: 0})
    evp = EventuallyPeriodic.from_strings("0", "", "010", "0")
    assert 0 in occurrences_in(gapped, evp, (0, 2))


def test_discrepancy_trivial_and_remark(golden_pair, remark_pair):
    trivial = certify_asymptotic(golden_pair.x, golden_pair.x, 3)
    p = Pattern.from_word(to_word("0110"))
    assert discrepancy(p, trivial) == 0
    # the pattern 00111 occurs in x meeting the difference set but not in y
    w = Pattern.from_word(to_word("00111"))
    assert discrepancy(w, remark_pair) == -1


def test_check_indistinguishable(golden_pair, remark_pair):
    assert check_indistinguishable(golden_pair, 20).passed
    verdict = check_indistinguishable(remark_pair, 5)
    assert not verdict.passed
    # shortest failing length is 2; the lexicographically least failing word
    # is 00 (the illustrative witness 00111 fails as well, see
    # test_discrepancy_trivial_and_remark)
    assert verdict.lengths_checked == 2
    assert to_str(verdict.witness) == "00"
    trivial = certify_asymptotic(golden_pair.x, golden_pair.x, 3)
    assert check_indistinguishable(trivial, 30).passed


def test_check_golden_pair_deep(golden_pair):
    assert check_indistinguishable(golden_pair, 300) == Verdict(True, None, 300)


# brute-force oracle: every window of the hull spelled out and counted as a
# tuple at every length; the probe-and-bisect search, which counts only some
# lengths, must agree with it exactly


def reference_word_discrepancies(pair, length):
    """Delta_w for every word of the given length occurring in x or y at a
    start in [min F - length + 1, max F]."""
    lo_f, hi_f = pair.span()
    lo, hi = lo_f - length + 1, hi_f + length - 1
    xs, ys = pair.x.window(lo, hi), pair.y.window(lo, hi)
    xwins = [xs[i:i + length] for i in range(hi_f - lo + 1)]
    ywins = [ys[i:i + length] for i in range(hi_f - lo + 1)]
    return {w: ywins.count(w) - xwins.count(w) for w in set(xwins) | set(ywins)}


def reference_check(pair, max_len):
    if pair.is_trivial:
        return Verdict(True, None, max_len)
    for length in range(1, max_len + 1):
        bad = [w for w, d in reference_word_discrepancies(pair, length).items() if d]
        if bad:
            return Verdict(False, min(bad), length)
    return Verdict(True, None, max_len)


def reference_norm(pair, max_support):
    if pair.is_trivial:
        return Fraction(0)
    return max(
        Fraction(sum(abs(d) for d in reference_word_discrepancies(pair, n).values()), n)
        for n in range(1, max_support + 1)
    )


@st.composite
def evp_pairs_differing_on_pads(draw):
    """Eventually periodic pairs on 2-4 letters sharing both tails; y is x
    with symbols changed at a random nonempty set of pad positions, which
    straddles the origin whenever both pads are changed."""
    alphabet = alphabet_of_size(draw(st.integers(2, 4)))
    sym = st.integers(0, alphabet.size - 1)
    u = tuple(draw(st.lists(sym, min_size=1, max_size=4)))
    w = tuple(draw(st.lists(sym, min_size=1, max_size=4)))
    pads = draw(st.lists(sym, min_size=1, max_size=10))
    split = draw(st.integers(0, len(pads)))
    changed = draw(st.sets(st.integers(0, len(pads) - 1), min_size=1))
    bumps = [draw(st.integers(1, alphabet.size - 1)) for _ in range(len(pads))]
    other = [(s + bumps[i]) % alphabet.size if i in changed else s
             for i, s in enumerate(pads)]
    x = EventuallyPeriodic(u, tuple(pads[:split]), tuple(pads[split:]), w, alphabet)
    y = EventuallyPeriodic(u, tuple(other[:split]), tuple(other[split:]), w, alphabet)
    pair = certify_asymptotic(x, y, radius=16)
    assert pair.diff == frozenset(i - split for i in changed)
    return pair


@st.composite
def substituted_sturmian_pairs(draw):
    """phi(x, y) for the golden or sqrt2/2 lower/upper pair moved to difference
    set {0, 1}, phi a non-commuting substitution onto 2-4 letters."""
    slope = draw(st.sampled_from([GOLDEN, SQRT2_HALF]))
    codomain = alphabet_of_size(draw(st.integers(2, 4)))
    image = st.lists(st.integers(0, codomain.size - 1), min_size=1, max_size=4).map(tuple)
    phi = Substitution({0: draw(image), 1: draw(image)}, BINARY, codomain)
    assume(phi.images[0] + phi.images[1] != phi.images[1] + phi.images[0])
    base = certify_asymptotic(MechanicalLower(slope), MechanicalUpper(slope), radius=4)
    return substitute_pair(phi, shift_pair(base, -1))


@settings(max_examples=100, deadline=None)
@given(st.one_of(evp_pairs_differing_on_pads(), substituted_sturmian_pairs()))
def test_engine_matches_brute_force(pair):
    for max_len in range(1, 13):
        assert check_indistinguishable(pair, max_len) == reference_check(pair, max_len)
        assert ns_norm_lower_bound(pair, max_len) == reference_norm(pair, max_len)


@settings(max_examples=60, deadline=None)
@given(st.one_of(evp_pairs_differing_on_pads(), substituted_sturmian_pairs()), st.integers(1, 40))
def test_probe_search_matches_brute_force(pair, max_len):
    """Discrepancies counted only at 1, 2, 4, ..., max_len and in the first
    failing bracket give the verdict of counting every length."""
    assert check_indistinguishable(pair, max_len) == reference_check(pair, max_len)


def test_deltas_compare_multiplicities_not_key_sets():
    # equal key sets, unequal counts: the slices 0, 0, 1 against 0, 1, 1
    assert _deltas(((0, 0, 1), (0, 1, 1)), 1, 1) == {(0,): -1, (1,): 1}
    # one multiset of slices in another order
    assert _deltas(((0, 1, 1, 0), (1, 0, 0, 1)), 1, 1) == {}


def test_first_failure_inside_a_probe_bracket():
    # ^inf0.010000(01)^inf against ^inf0.100000(01)^inf first fails at 7, strictly
    # between the probes 4 and 8; with max_len 7 only the final probe sees it
    pair = certify_asymptotic(EventuallyPeriodic.from_strings("0", "", "010000", "01"),
                              EventuallyPeriodic.from_strings("0", "", "100000", "01"), 8)
    assert check_indistinguishable(pair, 6) == Verdict(True, None, 6)
    for max_len in (7, 8, 200):
        verdict = check_indistinguishable(pair, max_len)
        assert verdict == Verdict(False, to_word("0000000"), 7) == reference_check(pair, max_len)
    # ^inf1.0^21 10 0^inf against ^inf1.0^21 01 0^inf differ on {21, 22} and first
    # fail at 23, between the probes 16 and 32: the bisection of (16, 32] finds it
    pair = certify_asymptotic(EventuallyPeriodic.from_strings("1", "", "0" * 21 + "10", "0"),
                              EventuallyPeriodic.from_strings("1", "", "0" * 21 + "01", "0"), 32)
    assert pair.diff == frozenset({21, 22})
    assert check_indistinguishable(pair, 22) == Verdict(True, None, 22)
    for max_len in (23, 24, 32, 1000):
        assert check_indistinguishable(pair, max_len) == Verdict(False, (0,) * 23, 23)
    for max_len in range(1, 41):
        assert check_indistinguishable(pair, max_len) == reference_check(pair, max_len)


@pytest.mark.parametrize("pair, first", [(toeplitz_pair(), 1), (toeplitz_thue_morse_pair(), 2)])
@pytest.mark.parametrize("max_len", [1, 2, 3, 150])
def test_toeplitz_controls_fail_at_their_first_length(pair, first, max_len):
    verdict = check_indistinguishable(pair, max_len)
    assert verdict == reference_check(pair, max_len)
    assert verdict.passed == (max_len < first)
    assert verdict.lengths_checked == (max_len if verdict.passed else first)


@settings(max_examples=60, deadline=None)
@given(st.one_of(evp_pairs_differing_on_pads(), substituted_sturmian_pairs()),
       st.integers(1, 11), st.integers(1, 11))
def test_discrepancy_is_monotone_in_length(pair, a, b):
    """For |u| = L - 1, sum_c Delta(uc) = Delta(u): a pass at L2 is a pass at
    every L1 < L2, and a first failure at L1 is the same failure at L2."""
    l1, l2 = min(a, b), max(a, b) + 1
    for length in range(2, l2 + 1):
        longer = reference_word_discrepancies(pair, length)
        for u, d in reference_word_discrepancies(pair, length - 1).items():
            assert sum(e for w, e in longer.items() if w[:-1] == u) == d
    short, long = check_indistinguishable(pair, l1), check_indistinguishable(pair, l2)
    if long.passed:
        assert short.passed
    if not short.passed:
        assert (long.witness, long.lengths_checked) == (short.witness, short.lengths_checked)


def brute_norm(pair, max_support):
    """Independent oracle: enumerate every binary word up to max_support and
    sum |Delta| over the full candidate position set."""
    best = Fraction(0)
    lo, hi = pair.span()
    for n in range(1, max_support + 1):
        total = 0
        for bits in range(2 ** n):
            w = tuple((bits >> i) & 1 for i in range(n))
            positions = {f - s for f in pair.diff for s in range(n)}
            d = sum(
                int(all(pair.y.at(m + i) == w[i] for i in range(n)))
                - int(all(pair.x.at(m + i) == w[i] for i in range(n)))
                for m in positions
            )
            total += abs(d)
        best = max(best, Fraction(total, n))
    return best


def test_ns_norm(golden_pair, remark_pair):
    assert ns_norm_lower_bound(golden_pair, 6) == 0
    trivial = certify_asymptotic(golden_pair.x, golden_pair.x, 3)
    assert ns_norm_lower_bound(trivial, 4) == 0
    value = ns_norm_lower_bound(remark_pair, 6)
    assert value == brute_norm(remark_pair, 6)
    assert value > 0


def test_ns_norm_regression_at_support_20(golden_pair, remark_pair):
    # pinned values; the hypothesis comparison above stops at max_len 12
    phi = Substitution({0: (0, 1, 2), 1: (3, 2)}, BINARY, alphabet_of_size(4))
    assert ns_norm_lower_bound(remark_pair, 20) == Fraction(5, 2)
    assert ns_norm_lower_bound(substitute_pair(phi, shift_pair(golden_pair, -1)), 20) == 0
    assert ns_norm_lower_bound(substitute_pair(phi, remark_pair), 20) == Fraction(13, 5)


def test_pattern_reduction(golden_pair, remark_pair):
    full = Pattern.from_word(to_word("010"))
    assert pattern_reduction_check(full, golden_pair)
    gapped = Pattern.from_dict({0: 0, 2: 0})
    assert pattern_reduction_check(gapped, golden_pair)
    rng = random.Random(5)
    for _ in range(10):
        support = sorted(rng.sample(range(-3, 4), rng.randint(1, 3)))
        cells = {s: rng.randint(0, 1) for s in support}
        assert pattern_reduction_check(Pattern.from_dict(cells), remark_pair)


def test_affine_invariance(golden_pair, remark_pair):
    rng = random.Random(99)
    pairs = [golden_pair, remark_pair]
    for _ in range(60):
        pair = rng.choice(pairs)
        support = sorted(rng.sample(range(-4, 5), rng.randint(1, 3)))
        p = Pattern.from_dict({s: rng.randint(0, 1) for s in support})
        n = rng.randint(-7, 7)
        base = discrepancy(p, pair)
        assert discrepancy(p, shift_pair(pair, n)) == base
        assert discrepancy(p.negated(), reverse_pair(pair)) == base


def test_limit_closure():
    # rational perturbations of the golden slope stay irrational; each pair
    # is indistinguishable and they converge to the golden pair on windows
    target = certify_asymptotic(MechanicalLower(GOLDEN), MechanicalUpper(GOLDEN), 3)
    for k in (10, 40, 160):
        alpha_k = sk.QuadraticIrrational(2 - k, k, 2 * k, 5)  # golden + 1/k
        pair_k = certify_asymptotic(
            MechanicalLower(alpha_k), MechanicalUpper(alpha_k), 3
        )
        assert pair_k.diff == frozenset({-1, 0})
        assert check_indistinguishable(pair_k, 10).passed
    wide = certify_asymptotic(
        MechanicalLower(sk.QuadraticIrrational(2 - 4000, 4000, 8000, 5)),
        MechanicalUpper(sk.QuadraticIrrational(2 - 4000, 4000, 8000, 5)),
        3,
    )
    assert wide.x.window(-25, 25) == target.x.window(-25, 25)
    assert check_indistinguishable(target, 25).passed


def test_substitute_pair_exact(golden_pair):
    moved = shift_pair(golden_pair, -1)  # difference set {0, 1}
    phi = Substitution({0: (0, 1), 1: (2,)}, BINARY, Alphabet(("a", "b", "c")))
    image = substitute_pair(phi, moved)
    brute = {n for n in range(-40, 41) if image.x.at(n) != image.y.at(n)}
    assert set(image.diff) == brute


def test_substitute_pair_anchors_at_block_of_min_difference(golden_pair):
    # F = {-1, 0} straddles 0: x's image keeps anchor 0, and y's image is
    # anchored so that the blocks of position -1 start together
    fib = Substitution({0: (0, 1), 1: (0,)}, BINARY, BINARY)
    image = substitute_pair(fib, golden_pair)
    assert image.diff == frozenset({0, 1})
    assert image.x.window(-40, 40) == substitute(fib, golden_pair.x).window(-40, 40)
    brute = {n for n in range(-60, 61) if image.x.at(n) != image.y.at(n)}
    assert set(image.diff) == brute
    assert check_indistinguishable(image, 20).passed
    # the same pair as the image of the pair shifted to F = {0, 1}, moved back by one
    moved = substitute_pair(fib, shift_pair(golden_pair, -1))
    assert moved.diff == frozenset({1, 2})
    assert shift_pair(moved, 1).y.window(-40, 40) == image.y.window(-40, 40)


def test_substitute_pair_trivial_and_tail_shifted():
    # ^inf0.10^inf against ^inf0.00^inf differ at {0} only
    x, y = (EventuallyPeriodic.from_strings("0", "", z, "0") for z in ("1", "0"))
    pair = certify_asymptotic(x, y, 4)
    assert pair.diff == frozenset({0})
    # 0 -> 0, 1 -> 01: the block of position 0 is longer in x, so the block
    # ends differ and the structural certifier decides: only 1 differs
    grow = Substitution({0: (0,), 1: (0, 1)}, BINARY, BINARY)
    assert substitute_pair(grow, pair).diff == frozenset({1})
    # 0 -> 0, 1 -> 00: the images are both ^inf0^inf
    flat = Substitution({0: (0,), 1: (0, 0)}, BINARY, BINARY)
    image = substitute_pair(flat, pair)
    assert image.is_trivial
    # a trivial pair stays trivial
    assert substitute_pair(grow, image).is_trivial


@pytest.mark.parametrize("chain", [1, 2])
def test_substitute_pair_over_image_pairs(chain):
    # members that are images themselves, under a psi whose two images share
    # a suffix of length 2: the block starts of the outer images are counted
    # over the members' own positions, so the difference set is exact
    psi = Substitution({0: (1, 0, 0), 1: (0, 0)}, BINARY, BINARY)
    x, y = (substitute(psi, shift(cls(GOLDEN), 1)) for cls in (MechanicalLower, MechanicalUpper))
    pair = certify_asymptotic(x, y, 40)
    assert pair.diff == frozenset({-5, -3})
    ident = Substitution({0: (0,), 1: (1,)}, BINARY, BINARY)
    fib = Substitution({0: (0, 1), 1: (0,)}, BINARY, BINARY)
    for phi in (ident, fib, psi):
        image = pair
        for _ in range(chain):
            image = substitute_pair(phi, image)
        brute = {n for n in range(-120, 121) if image.x.at(n) != image.y.at(n)}
        assert brute and set(image.diff) == brute
        assert difference_set(image.x, image.y) == image.diff


def test_symbol_counts_match_when_indistinguishable(golden_pair):
    lo, hi = golden_pair.span()
    xs = golden_pair.x.window(lo, hi)
    ys = golden_pair.y.window(lo, hi)
    assert sorted(xs) == sorted(ys)
