import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

import sturmkit as sk
from sturmkit.christoffel import RationalLimitClass, limit_pair
from sturmkit.derive import (
    ClassificationResult,
    GapError,
    Inconclusive,
    MechanicalBase,
    NonRecurrentBase,
    NotIndistinguishable,
    _classify_non_recurrent,
    _classify_structural,
    classify,
    derived_pair,
    derived_sequence,
    return_words,
    substitution_preserves_check,
)
from sturmkit.language import complexity_profile, toeplitz_thue_morse_pair
from sturmkit.patterns import (
    AsymptoticPair,
    Pattern,
    certify_asymptotic,
    check_indistinguishable,
    discrepancy,
    shift_pair,
    substitute_pair,
)
from sturmkit.sequences import (
    BINARY,
    DerivedView,
    EventuallyPeriodic,
    MechanicalLower,
    MechanicalUpper,
    SequenceOracle,
    Substitution,
    alphabet_of_size,
    is_recurrent,
    normal_form,
    oracles_equal,
    shift,
    substitute,
)

from conftest import GOLDEN, GOLDEN_COMPL, SQRT2_HALF, one_minus, to_str, to_word


# ---------------------------------------------------------------------------
# the window classifier, kept as the differential reference for classify:
# derived sequences peel a recurrent pair until its difference set fits in
# two positions, where it is a relabelled characteristic Sturmian pair; the
# rebuild is verified on the window only and the slope is an interval


@dataclass(frozen=True)
class WindowBase:
    """Binary base pair plus a slope interval estimated from symbol frequency."""

    window_word: tuple
    window: tuple[int, int]
    slope_low: Fraction
    slope_high: Fraction
    lower_oracle: SequenceOracle
    upper_oracle: SequenceOracle


def _reference_witness(pair, length, resource, steps):
    verdict = check_indistinguishable(pair, length)
    if verdict.passed:
        return Inconclusive(resource)
    witness = verdict.witness
    for phi in reversed(steps):
        witness = phi(witness)
    return NotIndistinguishable(witness)


def window_classify(pair, window, max_len):
    lo_w, hi_w = window
    work_window = (min(lo_w, -64), max(hi_w, 64))
    steps = []
    cur = pair
    for _ in range(64):
        lo, hi = cur.span()
        k = hi - lo + 1
        if k == 1:
            return _reference_witness(cur, 2, "difference set degenerated to one position", steps)
        if k == 2:
            break
        shifted = shift_pair(cur, lo)
        counts = {}
        for s in shifted.x.window(0, k - 1):
            counts[s] = counts.get(s, 0) + 1
        for a in sorted(counts, key=lambda s: (counts[s], s)):
            try:
                nxt = derived_pair(shifted, a, work_window)
            except (GapError, sk.NotAsymptoticError):
                continue
            if nxt.is_trivial:
                return Inconclusive("derived pair became trivial")
            nlo, nhi = nxt.span()
            if nhi - nlo + 1 < k:
                steps.append(nxt.x.recoding())
                cur = nxt
                break
        else:
            return Inconclusive("no marker symbol shrinks the difference interval")
    else:
        return Inconclusive("derivation did not terminate in 64 rounds")

    # base case: k = 2; move the difference set onto {-1, 0}
    base2 = shift_pair(cur, cur.span()[0] + 1)
    a_sym, b_sym = base2.x.at(-1), base2.x.at(0)
    if (base2.y.at(-1), base2.y.at(0)) != (b_sym, a_sym) or a_sym == b_sym:
        return _reference_witness(base2, 2, "base pair is not a two-letter exchange", steps)
    alphabet = base2.alphabet
    inv_images = {s: (0,) for s in range(alphabet.size)}
    inv_images[a_sym], inv_images[b_sym] = (1,), (0,)
    inv = Substitution(inv_images, alphabet, BINARY)
    lower_or, upper_or = substitute(inv, base2.x), substitute(inv, base2.y)
    steps.append(Substitution({1: (a_sym,), 0: (b_sym,)}, BINARY, alphabet))
    phi = steps[-1]
    for outer in reversed(steps[:-1]):
        phi = outer.compose(phi)

    base_pair = AsymptoticPair(lower_or, upper_or, frozenset({-1, 0}))
    resub = substitute_pair(phi, shift_pair(base_pair, 1))
    if resub.is_trivial:
        return Inconclusive("rebuilt pair is trivial")
    m = min(resub.diff) - min(pair.diff)  # pair = sigma^m(resub) moves F by -m
    if (pair.x.window(lo_w, hi_w) != resub.x.window(lo_w + m, hi_w + m)
            or pair.y.window(lo_w, hi_w) != resub.y.window(lo_w + m, hi_w + m)):
        return Inconclusive("round-trip verification failed on the window")
    est = (max(lo_w, -256), min(hi_w, 256))
    base_word = lower_or.window(*est)
    ones = sum(base_word)
    base = WindowBase(base_word, est, max(Fraction(0), Fraction(ones - 1, len(base_word))),
                      min(Fraction(1), Fraction(ones + 1, len(base_word))), lower_or, upper_or)
    return ClassificationResult(case="recurrent", phi=phi, m=m, x_is_first=True, base=base,
                                verified_to=max_len, verify_window=window)


def test_return_words_periodic():
    x = EventuallyPeriodic.from_strings("01", "", "", "01")
    rws = return_words(x, to_word("0"), (-20, 20))
    assert rws.returns == frozenset({to_word("01")})
    assert rws.complete_returns == frozenset({to_word("010")})


def test_return_words_golden():
    # above slope 1/2 the zeroes are isolated: returns are 01 and 011
    rws = return_words(MechanicalLower(GOLDEN), to_word("0"), (-30, 30))
    assert rws.returns == frozenset({to_word("01"), to_word("011")})
    # below 1/2 (complementary slope) they are 0 and 01
    rws2 = return_words(MechanicalLower(GOLDEN_COMPL), to_word("0"), (-30, 30))
    assert rws2.returns == frozenset({to_word("0"), to_word("01")})


def test_derivation_gaps_are_gap_errors():
    # too few markers in the window, and a return word the frozen catalog lacks
    x = EventuallyPeriodic.from_strings("0", "", "10", "0")
    with pytest.raises(GapError, match="occurs 0 time"):
        return_words(x, to_word("1"), (5, 30))
    ds = derived_sequence(EventuallyPeriodic.from_strings("01", "", "0101", "001"), 1, (-4, 4))
    assert ds.recoding.images == {0: to_word("10")}  # 100 returns from position 3 on
    with pytest.raises(GapError, match="not in the catalog"):
        ds.oracle.window(0, 20)
    # normal forms meet the same gaps: a periodic tail without the marker, and
    # return words 1 0^(10^9 - 1) ... longer than any in the catalog
    tailless = derived_sequence(EventuallyPeriodic.from_strings("0", "1", "1", "0"), 1, (-4, 4))
    with pytest.raises(GapError, match="periodic tail"):
        normal_form(tailless.oracle)
    n = 2 * 10 ** 9 - 1  # 1/(10^9 + golden) = 2 (n - sqrt5) / (n^2 - 5)
    view = DerivedView(MechanicalLower(sk.QuadraticIrrational(2 * n, -2, n * n - 5, 5)), 1,
                       {(1, 0): 0, (1, 0, 0): 1}, alphabet_of_size(2))
    with pytest.raises(GapError, match="outrun the catalog"):
        normal_form(view)


def test_return_words_overlapping_marker():
    x = EventuallyPeriodic.from_strings("001", "", "", "001")
    rws = return_words(x, to_word("00"), (-15, 15))
    assert rws.complete_returns == frozenset({to_word("00100")})


def test_return_words_errors():
    x = EventuallyPeriodic.from_strings("0", "", "10", "0")
    with pytest.raises(ValueError):
        return_words(x, to_word("1"), (5, 30))  # single occurrence overall


def test_derived_sequence_periodic():
    x = EventuallyPeriodic.from_strings("01", "", "", "01")
    ds = derived_sequence(x, 0, (-24, 24))
    assert set(ds.oracle.window(-5, 5)) == {0}
    assert ds.recoding.images[0] == to_word("01")


def test_derived_sequence_golden_is_sturmian_like():
    ds = derived_sequence(MechanicalLower(GOLDEN), 0, (-200, 200))
    assert ds.oracle.alphabet.size == 2
    assert complexity_profile(ds.oracle, 8, (-40, 40)) == list(range(2, 10))


def test_derived_anchor_and_recovery():
    rng = random.Random(3)
    x = MechanicalLower(GOLDEN)
    for _ in range(20):
        k = rng.randint(-30, 30)
        xs = shift(x, k)
        ds = derived_sequence(xs, rng.choice((0, 1)), (-160, 160))
        assert ds.i0 >= 0  # smallest occurrence above -|marker| = -1
        assert xs.at(ds.i0) == ds.marker[0]
        assert all(xs.at(n) != ds.marker[0] for n in range(0, ds.i0))
        # sigma^{-i0}(recoding(derived)) recovers the original
        rebuilt = shift(substitute(ds.recoding, ds.oracle), -ds.i0)
        assert rebuilt.window(-25, 25) == xs.window(-25, 25)


def test_derived_pair_trivial():
    x = MechanicalLower(GOLDEN)
    pair = certify_asymptotic(x, x, 2)
    out = derived_pair(pair, 0, (-80, 80))
    assert out.is_trivial


def test_derived_pair_golden():
    pair = certify_asymptotic(MechanicalLower(GOLDEN), MechanicalUpper(GOLDEN), 3)
    moved = shift_pair(pair, -1)  # difference set {0, 1}
    for a in (0, 1):
        d = derived_pair(moved, a, (-120, 120))
        assert not d.is_trivial
        lo, hi = d.span()
        # the difference interval never grows: at most floor(k/2) + 1 wide
        assert hi - lo + 1 <= 2
        assert check_indistinguishable(d, 10).passed


def test_derived_pair_requires_nonnegative_span():
    pair = certify_asymptotic(MechanicalLower(GOLDEN), MechanicalUpper(GOLDEN), 3)
    with pytest.raises(ValueError):
        derived_pair(pair, 0, (-60, 60))


def test_derived_pair_interval_bound_after_substitution():
    pair = shift_pair(
        certify_asymptotic(MechanicalLower(GOLDEN), MechanicalUpper(GOLDEN), 3), -1
    )
    phi = Substitution({0: (0, 1), 1: (1, 0)}, BINARY, BINARY)
    from sturmkit.patterns import substitute_pair

    image = substitute_pair(phi, pair)
    lo, hi = image.span()
    k = hi - lo + 1
    assert lo >= 0
    counts = {}
    for s in image.x.window(0, hi):
        counts[s] = counts.get(s, 0) + 1
    a = min(counts, key=lambda s: (counts[s], s))
    d = derived_pair(shift_pair(image, lo), a, (-160, 160))
    dlo, dhi = d.span()
    assert dhi - dlo + 1 <= k // 2 + 1


def test_substitution_preserves_identity(golden_pair):
    moved = shift_pair(golden_pair, -1)
    ident = Substitution({0: (0,), 1: (1,)}, BINARY, BINARY)
    assert substitution_preserves_check(ident, moved, 12)


def test_substitution_preserves_abc(golden_pair):
    moved = shift_pair(golden_pair, -1)
    abc = sk.Alphabet(("a", "b", "c"))
    phi = Substitution({0: (0, 1), 1: (2,)}, BINARY, abc)
    assert substitution_preserves_check(phi, moved, 15)


@pytest.mark.parametrize("error, propagates", [
    (ValueError("members differ outside the hull"), True),
    (sk.UncertifiableError("no certificate"), False),
    (sk.NotAsymptoticError("tails disagree"), False),
])
def test_substitution_preserves_check_surfaces_plain_errors(golden_pair, monkeypatch,
                                                            error, propagates):
    # a bare ValueError from building the image is a fault, not a "no"
    def fail(phi, pair):
        raise error

    monkeypatch.setattr("sturmkit.derive.substitute_pair", fail)
    moved = shift_pair(golden_pair, -1)
    ident = Substitution({0: (0,), 1: (1,)}, BINARY, BINARY)
    if propagates:
        with pytest.raises(ValueError, match="outside the hull"):
            substitution_preserves_check(ident, moved, 12)
    else:
        assert substitution_preserves_check(ident, moved, 12) is False


@pytest.mark.parametrize("error, propagates", [
    (ValueError("members differ outside the hull"), True),
    (GapError("marker 0 does not straddle the origin"), False),
    (sk.NotAsymptoticError("marker counts differ"), False),
])
def test_classify_surfaces_plain_errors_from_derivation(golden_pair, monkeypatch,
                                                        error, propagates):
    # a derived golden pair with difference interval [-1, 1] has a normal form,
    # so classify runs no derivation round; in the window reference, which
    # needs one more round, a gap or a count mismatch rejects a marker and a
    # bare ValueError is a fault
    psi = Substitution({0: (1, 0, 0), 1: (0, 0)}, BINARY, BINARY)
    image = substitute_pair(psi, shift_pair(golden_pair, -1))
    pair = derived_pair(shift_pair(image, min(image.diff)), 0, (-120, 120))
    assert pair.span() == (-1, 1)
    out = classify(pair, window=(-30, 30), max_len=8)
    assert isinstance(out.base, MechanicalBase) and out.verified_to is None
    assert isinstance(window_classify(pair, (-30, 30), 8).base, WindowBase)

    def fail(pair, a, window):
        raise error

    monkeypatch.setattr("sturmkit.derive.derived_pair", fail)
    monkeypatch.setitem(globals(), "derived_pair", fail)
    assert classify(pair, window=(-30, 30), max_len=8).base == out.base
    if propagates:
        with pytest.raises(ValueError, match="outside the hull"):
            window_classify(pair, (-30, 30), 8)
    else:
        out = window_classify(pair, (-30, 30), 8)
        assert out == Inconclusive("no marker symbol shrinks the difference interval")


def test_substitution_length_law(golden_pair):
    moved = shift_pair(golden_pair, -1)
    lo, hi = moved.span()
    phi = Substitution({0: (0, 1, 1), 1: (1,)}, BINARY, BINARY)
    kx = sum(phi.image_len(s) for s in moved.x.window(0, hi))
    ky = sum(phi.image_len(s) for s in moved.y.window(0, hi))
    assert kx == ky  # equal symbol counts across the difference interval


def test_discrepancy_transport(golden_pair):
    moved = shift_pair(golden_pair, -1)
    d = derived_pair(moved, 0, (-200, 200))
    rec = d.x.recoding()
    alphabet = d.alphabet
    lo, hi = d.span()
    for length in range(1, 7):
        for word in product(range(alphabet.size), repeat=length):
            lhs = discrepancy(Pattern.from_word(word), d)
            rhs = discrepancy(Pattern.from_word(rec(word)), moved)
            assert lhs == rhs, (word, lhs, rhs)


def test_classify_golden_construction():
    phi = Substitution({0: (0, 1, 0), 1: (1, 1)}, BINARY, BINARY)
    c, cu = MechanicalLower(GOLDEN), MechanicalUpper(GOLDEN)
    x = shift(substitute(phi, shift(c, 1)), 2)
    y = shift(substitute(phi, shift(cu, 1)), 2)
    pair = certify_asymptotic(x, y, 40)
    out = classify(pair, window=(-40, 40), max_len=12)
    assert isinstance(out, ClassificationResult) and out.case == "recurrent"
    rx = shift(substitute(out.phi, shift(out.base.lower_oracle, 1)), out.m)
    ry = shift(substitute(out.phi, shift(out.base.upper_oracle, 1)), out.m)
    first, second = (pair.x, pair.y) if out.x_is_first else (pair.y, pair.x)
    assert first.window(-40, 40) == rx.window(-40, 40)
    assert second.window(-40, 40) == ry.window(-40, 40)
    assert out.base.slope == GOLDEN


def test_classify_degenerate_non_recurrent():
    x = EventuallyPeriodic.from_strings("0", "", "10", "0")
    y = EventuallyPeriodic.from_strings("0", "", "010", "0")
    pair = certify_asymptotic(x, y, 4)
    out = classify(pair, window=(-30, 30), max_len=10)
    assert isinstance(out, ClassificationResult) and out.case == "non_recurrent"
    assert out.m == 0 and out.x_is_first
    assert out.phi.images == {0: (0,), 1: (1,)}


@pytest.mark.parametrize("side", ["above", "below"])
@pytest.mark.parametrize("p, q", [(3, 5), (40, 31)])
def test_classify_limit_pair_in_both_orders(p, q, side):
    pair = limit_pair(p, q, side).pair
    for x, y in ((pair.x, pair.y), (pair.y, pair.x)):
        out = classify(AsymptoticPair(x, y, pair.diff), window=(-30, 30), max_len=10)
        assert isinstance(out, ClassificationResult) and out.case == "non_recurrent"
        assert out.base.rational_class == RationalLimitClass(p, q, side)
        # x comes first when x = sigma^s y with s > 0: the 10 member above the slope
        assert out.x_is_first == ((x is pair.x) == (side == "above"))


def test_classify_members_not_shifts():
    # equal counts of 0 and 1 across {-1, 0}: the length-1 check passes, and
    # since no shift relates the members the deeper check finds the witness
    x = EventuallyPeriodic.from_strings("0", "01", "0", "1")
    y = EventuallyPeriodic.from_strings("0", "0", "1", "1")
    out = classify(certify_asymptotic(x, y, 4), window=(-30, 30), max_len=1)
    assert isinstance(out, NotIndistinguishable) and to_str(out.witness) == "00"


def test_classify_derived_non_recurrent_pair():
    # derived views of eventually periodic words are eventually periodic, so
    # the shift relation is read off their normal forms
    phi = Substitution({0: (0, 1), 1: (0, 0, 1)}, BINARY, BINARY)
    x, y = (substitute(phi, EventuallyPeriodic.from_strings("0", "", z, "0")) for z in ("10", "010"))
    pair = certify_asymptotic(x, y, 20)
    derived = derived_pair(shift_pair(pair, min(pair.diff)), 0, (-64, 64))
    out = classify(derived, window=(-30, 30), max_len=8)
    assert isinstance(out, ClassificationResult) and out.case == "non_recurrent"
    assert out.verified_to is None


def test_classify_rejects_toeplitz():
    out = classify(toeplitz_thue_morse_pair(), window=(-40, 40), max_len=16)
    assert isinstance(out, NotIndistinguishable)
    assert to_str(out.witness) == "00"


def test_classify_remark(remark_pair):
    out = classify(remark_pair, window=(-30, 30), max_len=10)
    assert isinstance(out, NotIndistinguishable)
    assert to_str(out.witness) == "00"


def test_classify_dichotomy():
    # classification branch agrees with the recurrence of the input
    phi = Substitution({0: (1, 0), 1: (0, 0, 1)}, BINARY, BINARY)
    rec_pair = certify_asymptotic(
        substitute(phi, shift(MechanicalLower(GOLDEN), 1)),
        substitute(phi, shift(MechanicalUpper(GOLDEN), 1)),
        30,
    )
    nonrec_pair = certify_asymptotic(
        substitute(phi, EventuallyPeriodic.from_strings("0", "", "10", "0")),
        substitute(phi, EventuallyPeriodic.from_strings("0", "", "010", "0")),
        30,
    )
    for pair, expected in ((rec_pair, True), (nonrec_pair, False)):
        out = classify(pair, window=(-40, 40), max_len=10)
        assert isinstance(out, ClassificationResult)
        assert (out.case == "recurrent") == expected == bool(is_recurrent(pair.x))


def test_classify_requires_non_trivial(golden_pair):
    trivial = certify_asymptotic(golden_pair.x, golden_pair.x, 2)
    with pytest.raises(ValueError):
        classify(trivial)


def _rebuild(out):
    """sigma^m phi(sigma lower), sigma^m phi(sigma upper) of a classification."""
    return tuple(shift(substitute(out.phi, shift(b, 1)), out.m)
                 for b in (out.base.lower_oracle, out.base.upper_oracle))


def test_classify_derived_pair_in_both_orders(golden_pair):
    # derived views have normal forms: the rebuild holds on all of Z, x first
    pair = derived_pair(shift_pair(golden_pair, -1), 0, (-120, 120))
    for x, y in ((pair.x, pair.y), (pair.y, pair.x)):
        out = classify(AsymptoticPair(x, y, pair.diff), window=(-30, 30), max_len=8)
        assert isinstance(out, ClassificationResult) and isinstance(out.base, MechanicalBase)
        assert out.x_is_first and out.verified_to is None
        rx, ry = _rebuild(out)
        assert oracles_equal(rx, x) and oracles_equal(ry, y)
        assert rx.window(-30, 30) == x.window(-30, 30) and ry.window(-30, 30) == y.window(-30, 30)


def _images(size, max_len):
    return st.lists(st.integers(0, size - 1), min_size=1, max_size=max_len).map(tuple)


@st.composite
def recurrent_constructions(draw):
    """sigma^m0 psi(sigma lower(alpha), sigma upper(alpha)) for a non-commuting
    psi (a relabel, or random onto 2-4 letters), the first member possibly
    written as (psi o swap)(sigma upper(1 - alpha)), possibly under a second
    image and with the members possibly swapped; also says if psi relabels."""
    relabel = draw(st.booleans())
    if relabel:
        images = draw(st.sampled_from([((0,), (1,)), ((1,), (0,))]))
        size = 2
    else:
        size = draw(st.integers(2, 4))
        images = (draw(_images(size, 4)), draw(_images(size, 4)))
    psi = Substitution(dict(enumerate(images)), BINARY, alphabet_of_size(size))
    alpha = draw(st.sampled_from([GOLDEN, SQRT2_HALF, GOLDEN_COMPL]))
    x, y = (substitute(psi, shift(cls(alpha), 1)) for cls in (MechanicalLower, MechanicalUpper))
    if draw(st.booleans()):  # the same x written over the complementary word
        swap = Substitution({0: (1,), 1: (0,)}, BINARY, BINARY)
        x = substitute(psi.compose(swap), shift(MechanicalUpper(one_minus(alpha)), 1))
    if not relabel and draw(st.booleans()):
        outer_size = draw(st.integers(2, 3))
        outer = Substitution({s: draw(_images(outer_size, 2)) for s in range(size)},
                             psi.codomain, alphabet_of_size(outer_size))
        x, y = substitute(outer, x), substitute(outer, y)
        psi = outer.compose(psi)
    assume(psi.images[0] + psi.images[1] != psi.images[1] + psi.images[0])
    m0 = draw(st.integers(-6, 6))
    x, y = shift(x, m0), shift(y, m0)
    if draw(st.booleans()):
        x, y = y, x
    return x, y, relabel


@settings(max_examples=30, deadline=None)
@given(recurrent_constructions())
def test_structural_classification_matches_derived_views(construction):
    """The normal-form decomposition rebuilds the pair exactly on all of Z; the
    window reference rebuilds it from derived views on the window."""
    x, y, relabel = construction
    window = (-40, 40)
    pair = certify_asymptotic(x, y, 200)
    out = classify(pair, window=window, max_len=8)
    assert isinstance(out, ClassificationResult) and out.case == "recurrent"
    assert isinstance(out.base, MechanicalBase) and out.x_is_first
    rx, ry = _rebuild(out)
    assert oracles_equal(pair.x, rx) and oracles_equal(pair.y, ry)

    slow = window_classify(pair, window, 8)
    assert isinstance(slow, ClassificationResult) and isinstance(slow.base, WindowBase)
    assert slow.x_is_first
    sx, sy = _rebuild(slow)
    assert sx.window(*window) == pair.x.window(*window)
    assert sy.window(*window) == pair.y.window(*window)
    # the window base's slope interval has width 2/|window word| and holds the
    # frequency of 1s on a wider window of its own lower word
    low, high = slow.base.slope_low, slow.base.slope_high
    assert high - low == Fraction(2, len(slow.base.window_word))
    f = Fraction(sum(slow.base.lower_oracle.window(-128, 127)), 256)
    assert low - Fraction(1, 256) <= f <= high + Fraction(1, 256)
    if relabel:  # no derivation happens, so both paths find the same decomposition
        assert slow.phi.images == out.phi.images and slow.m == out.m
        assert slow.base.window_word == out.base.lower_oracle.window(*slow.base.window)
        assert out.base.slope.compare_fraction(low) >= 0 >= out.base.slope.compare_fraction(high)


@settings(max_examples=20, deadline=None)
@given(recurrent_constructions())
def test_structural_recurrent_pairs_pass_long_checks(construction):
    """The "if" direction: a pair rebuilt from its normal forms is
    indistinguishable at every length, so it passes the bounded engine far
    beyond any max_len that classify would have checked."""
    x, y, _ = construction
    pair = certify_asymptotic(x, y, 200)
    out = classify(pair, window=(-40, 40), max_len=8)
    assert isinstance(out.base, MechanicalBase) and out.verified_to is None
    assert check_indistinguishable(pair, 300).passed


@st.composite
def non_recurrent_constructions(draw):
    """sigma^m0 phi(^inf0.10^inf, ^inf0.010^inf) for a non-commuting phi onto
    2-4 letters, with the members possibly swapped."""
    size = draw(st.integers(2, 4))
    images = (draw(_images(size, 4)), draw(_images(size, 4)))
    assume(images[0] + images[1] != images[1] + images[0])
    phi = Substitution(dict(enumerate(images)), BINARY, alphabet_of_size(size))
    m0 = draw(st.integers(-6, 6))
    x, y = (shift(substitute(phi, EventuallyPeriodic.from_strings("0", "", z, "0")), m0)
            for z in ("10", "010"))
    return (y, x) if draw(st.booleans()) else (x, y)


@settings(max_examples=20, deadline=None)
@given(non_recurrent_constructions())
def test_structural_non_recurrent_pairs_pass_long_checks(construction):
    pair = certify_asymptotic(*construction, 200)
    out = classify(pair, window=(-40, 40), max_len=8)
    assert isinstance(out, ClassificationResult) and out.case == "non_recurrent"
    assert out.verified_to is None
    assert check_indistinguishable(pair, 300).passed


def _classify_check_first(pair, window, max_len):
    """classify in its former order: the bounded check at max_len ran before
    any structural rebuild, and the window reference took recurrent pairs
    without one."""
    verdict = check_indistinguishable(pair, max_len)
    if not verdict.passed:
        return NotIndistinguishable(verdict.witness)
    recurrent = is_recurrent(pair.x)
    if recurrent is None:
        return Inconclusive("recurrence undecidable for this oracle class")
    if recurrent:
        return (_classify_structural(pair, window)
                or window_classify(pair, window, max_len))
    return _classify_non_recurrent(pair, window, max_len)


def _outcome_key(out):
    if isinstance(out, ClassificationResult):  # window bases hold fresh oracles
        base = out.base if isinstance(out.base, NonRecurrentBase) else type(out.base)
        return out.case, out.phi.images, out.m, out.x_is_first, base, out.verified_to
    return out


@st.composite
def eventually_periodic_pairs(draw):
    """Two eventually periodic words on 2-3 letters with common periodic
    tails, the second possibly the first with its pad cut elsewhere (a shift
    when the cut moves by a common multiple of the periods)."""
    size = draw(st.integers(2, 3))
    alphabet = alphabet_of_size(size)
    u, w = draw(_images(size, 3)), draw(_images(size, 3))
    pads = [draw(st.lists(st.integers(0, size - 1), max_size=8).map(tuple)) for _ in range(2)]
    if draw(st.booleans()):
        pads[1] = pads[0]
    cuts = [draw(st.integers(0, len(pad))) for pad in pads]
    return tuple(EventuallyPeriodic(u, pad[:cut], pad[cut:], w, alphabet)
                 for pad, cut in zip(pads, cuts))


@settings(max_examples=150, deadline=None)
@given(eventually_periodic_pairs(), st.sampled_from([3, 6, 10, 20]))
def test_structural_first_keeps_the_check_first_outcome(members, max_len):
    try:
        pair = certify_asymptotic(*members, 40)
    except sk.NotAsymptoticError:
        assume(False)
    assume(not pair.is_trivial)
    window = (-30, 30)
    assert _outcome_key(classify(pair, window, max_len)) == \
        _outcome_key(_classify_check_first(pair, window, max_len))
