from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sturmkit as sk
from sturmkit.language import (
    central_window_uniqueness,
    complete_factor_window,
    complexity_bounds_check,
    complexity_profile,
    factors,
    special_factors,
    toeplitz_pair,
    toeplitz_thue_morse_pair,
)
from sturmkit.patterns import certify_asymptotic, check_indistinguishable, shift_pair, substitute_pair
from sturmkit.sequences import (
    BINARY,
    EventuallyPeriodic,
    MechanicalLower,
    MechanicalUpper,
    Substitution,
    alphabet_of_size,
    is_recurrent,
)

from conftest import GOLDEN, GOLDEN_COMPL, to_str, to_word


def test_factors_examples():
    x = MechanicalLower(Fraction(5, 13))
    assert factors(x, 1, (0, 12)).words == frozenset({(0,), (1,)})
    c = MechanicalLower(GOLDEN)
    # the window c_{-2}..c_1 reads 1101 (the slope exceeds 1/2, so 00 never
    # occurs); it carries the three length-2 factors
    assert to_str(c.window(-2, 1)) == "1101"
    assert factors(c, 2, (-2, 1)).words == frozenset({to_word("11"), to_word("10"), to_word("01")})
    const = EventuallyPeriodic.from_strings("0", "", "", "0")
    for n in (1, 3, 7):
        assert factors(const, n, (-10, 10)).words == frozenset({(0,) * n})
    with pytest.raises(ValueError):
        factors(x, 5, (0, 3))


def test_complexity_profiles():
    c = MechanicalLower(GOLDEN)
    assert complexity_profile(c, 10, (-12, 12)) == list(range(2, 12))
    periodic = EventuallyPeriodic.from_strings("01", "", "", "01")
    assert complexity_profile(periodic, 6, (-12, 12)) == [2] * 6
    spike = EventuallyPeriodic.from_strings("0", "", "10", "0")
    assert complexity_profile(spike, 8, (-20, 20)) == list(range(2, 10))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda k: st.tuples(
           st.just(k), st.lists(st.integers(0, k - 1), min_size=1, max_size=4),
           st.lists(st.integers(0, k - 1), max_size=6), st.lists(st.integers(0, k - 1), max_size=6),
           st.lists(st.integers(0, k - 1), min_size=1, max_size=4))),
       st.integers(-30, 30), st.integers(0, 40), st.integers(0, 12))
def test_complexity_profile_matches_slice_count(parts, lo, extra, max_n):
    k, u, y, z, w = parts
    x = EventuallyPeriodic(tuple(u), tuple(y), tuple(z), tuple(w), alphabet_of_size(k))
    hi = lo + max_n + extra
    text = x.window(lo, hi)
    expected = [len({text[i:i + n] for i in range(len(text) - n + 1)}) for n in range(1, max_n + 1)]
    assert complexity_profile(x, max_n, (lo, hi)) == expected


def test_special_factors():
    c = MechanicalLower(GOLDEN)
    window = (-22, 22)
    for n in range(1, 10):
        assert len(special_factors(c, n, window, "right")) == 1
        assert len(special_factors(c, n, window, "left")) == 1
    # for a slope above 1/2 both 01 and 11 occur, so 1 is the left special
    # letter; below 1/2 the roles of the letters swap
    assert special_factors(c, 1, window, "left") == {to_word("1")}
    low = MechanicalLower(GOLDEN_COMPL)
    assert special_factors(low, 1, window, "left") == {to_word("0")}
    const = EventuallyPeriodic.from_strings("0", "", "", "0")
    assert special_factors(const, 2, (-10, 10), "left") == set()


def test_central_window_uniqueness(golden_pair, remark_pair):
    for n in (1, 5, 13, 20):
        assert central_window_uniqueness(golden_pair, n)
    assert not central_window_uniqueness(remark_pair, 6)
    moved = shift_pair(golden_pair, 2)
    with pytest.raises(ValueError):
        central_window_uniqueness(moved, 4)


def test_display_words_of_rational_limit():
    # the two 26-symbol central windows with the same 14 length-13 factors
    # arise from the limit pair at slope 5/13
    form = sk.limit_pair(5, 8, "above")
    assert to_str(form.pair.x.window(-13, 12)) == "1010010100101" + "0010010100101"
    assert to_str(form.pair.y.window(-13, 12)) == "1010010100100" + "1010010100101"
    assert central_window_uniqueness(form.pair, 13)


def test_complexity_bounds(golden_pair):
    assert complexity_bounds_check(golden_pair, 12)
    # a substitution image pushes the difference set into a wider interval
    moved = shift_pair(golden_pair, -1)
    phi = Substitution({0: (0, 1), 1: (1, 0)}, BINARY, BINARY)
    image = substitute_pair(phi, moved)
    lo, hi = image.span()
    assert hi - lo + 1 >= 2
    assert complexity_bounds_check(image, 8)
    trivial = certify_asymptotic(golden_pair.x, golden_pair.x, 2)
    with pytest.raises(ValueError):
        complexity_bounds_check(trivial, 4)
    # a non-trivial but distinguishable pair violates the precondition too
    with pytest.raises(ValueError):
        complexity_bounds_check(
            certify_asymptotic(
                EventuallyPeriodic.from_strings("0", "", "11", "0"),
                EventuallyPeriodic.from_strings("0", "", "00", "0"),
                4,
            ),
            4,
        )


def test_occurrence_lemma(golden_pair):
    # every factor of x occurring anywhere also occurs meeting the
    # difference set of a non-trivial indistinguishable pair
    lo, hi = golden_pair.span()
    for n in (1, 3, 6):
        seen = factors(golden_pair.x, n, (-12, 12)).words
        near = factors(golden_pair.x, n, (lo - n + 1, hi + n - 1)).words
        assert seen <= near


def test_left_special_forces_complexity_growth():
    c = MechanicalLower(GOLDEN)
    window = (-25, 25)
    profile = complexity_profile(c, 9, window)
    for n in range(1, 9):
        if special_factors(c, n, window, "left"):
            assert profile[n] - profile[n - 1] >= 1


def test_monotone_windows():
    c = MechanicalLower(GOLDEN)
    small = factors(c, 4, (-8, 8)).words
    large = factors(c, 4, (-30, 30)).words
    assert small <= large
    # for the indistinguishable pair the lemma window is already complete
    pair = certify_asymptotic(MechanicalLower(GOLDEN), MechanicalUpper(GOLDEN), 3)
    for n in (3, 6):
        win = complete_factor_window(pair, n)
        assert factors(pair.x, n, win).words == factors(pair.x, n, (-60, 60)).words


def test_toeplitz_fixture():
    pair = toeplitz_pair()
    assert pair.diff == frozenset({0})
    assert is_recurrent(pair.x) is True
    # same language on a window, yet distinguishable
    assert factors(pair.x, 6, (-300, 300)).words == factors(pair.y, 6, (-300, 300)).words
    verdict = check_indistinguishable(pair, 16)
    assert not verdict.passed and verdict.lengths_checked == 1

    tm = toeplitz_thue_morse_pair()
    assert tm.diff == frozenset({-1, 0})
    v2 = check_indistinguishable(tm, 16)
    assert not v2.passed and v2.lengths_checked == 2


def test_toeplitz_not_sturmian_complexity_witness():
    # frozen regression constants: the first length where the complexity
    # exceeds n+1 is 3 for the plain fixture and 2 for its Thue-Morse image
    plain = toeplitz_pair().x
    prof = complexity_profile(plain, 6, (-2048, 2048))
    assert next(n for n, c in enumerate(prof, start=1) if c != n + 1) == 3
    tm = toeplitz_thue_morse_pair().x
    prof_tm = complexity_profile(tm, 6, (-2048, 2048))
    assert next(n for n, c in enumerate(prof_tm, start=1) if c != n + 1) == 2
