from fractions import Fraction

import pytest

from sturmkit.christoffel import (
    NotOfForm,
    RationalLimitClass,
    all_christoffel_lower,
    christoffel,
    classify_non_recurrent,
    limit_pair,
    palindrome_factorization,
    pirillo_check,
    verify_limit_convergence,
)
from sturmkit.patterns import Pattern, certify_asymptotic, check_indistinguishable, discrepancy, shift_pair
from sturmkit.sequences import EventuallyPeriodic, oracles_equal, shift
from sturmkit.words import are_conjugate

from conftest import to_str, to_word


def test_christoffel_golden_values():
    assert str(christoffel(5, 8, "lower")) == "0010010100101"
    assert str(christoffel(5, 8, "upper")) == "1010010100100"
    assert str(christoffel(0, 1, "lower")) == "0"
    assert str(christoffel(1, 0, "upper")) == "1"


def test_christoffel_validation():
    with pytest.raises(ValueError):
        christoffel(2, 4)
    with pytest.raises(ValueError):
        christoffel(0, 0)
    with pytest.raises(ValueError):
        christoffel(-1, 2)


def test_pirillo_examples():
    assert pirillo_check(to_word("01"))
    assert pirillo_check(to_word("0010010100101"))
    assert not pirillo_check(to_word("0011"))
    assert not pirillo_check(to_word("10"))  # wrong endpoints


def test_pirillo_exhaustive():
    christoffels = all_christoffel_lower(12)
    for length in range(2, 13):
        for bits in range(2 ** (length - 2)):
            middle = tuple((bits >> i) & 1 for i in range(length - 2))
            w = (0,) + middle + (1,)
            assert pirillo_check(w) == (w in christoffels), w


def test_palindrome_factorization():
    left, right = palindrome_factorization(christoffel(5, 8, "lower"))
    assert (to_str(left), to_str(right)) == ("00100", "10100101")
    assert palindrome_factorization(christoffel(1, 1, "lower")) == (to_word("0"), to_word("1"))
    assert palindrome_factorization(christoffel(1, 2, "lower")) == (to_word("00"), to_word("1"))


def test_conjugacy_bridge():
    for p, q in [(1, 1), (2, 3), (5, 8), (3, 7)]:
        lower = christoffel(p, q, "lower").word
        upper = christoffel(p, q, "upper").word
        left, right = palindrome_factorization(christoffel(p, q, "lower"))
        assert are_conjugate(lower, upper)
        cut = len(left)
        assert lower[cut:] + lower[:cut] == upper


def test_limit_pair_shapes():
    form = limit_pair(0, 1, "above")
    assert to_str(form.pair.x.window(-3, 3)) == "0010000"
    assert to_str(form.pair.y.window(-3, 3)) == "0001000"
    form = limit_pair(1, 0, "below")
    assert to_str(form.pair.x.window(-3, 3)) == "1110111"
    assert to_str(form.pair.y.window(-3, 3)) == "1101111"
    # p = q = 1 has empty central word: blocks 10,11,01
    form = limit_pair(1, 1, "above")
    assert to_str(form.pair.x.window(-4, 3)) == "10110101"
    with pytest.raises(ValueError):
        limit_pair(1, 0, "above")
    with pytest.raises(ValueError):
        limit_pair(0, 1, "below")


def test_limit_pairs_are_indistinguishable():
    for p, q, side in [(0, 1, "above"), (1, 1, "above"), (1, 1, "below"),
                       (2, 3, "above"), (3, 5, "below")]:
        form = limit_pair(p, q, side)
        assert form.pair.diff == frozenset({-1, 0})
        assert check_indistinguishable(form.pair, 20).passed


def test_limit_pair_shift_relation():
    above = limit_pair(2, 3, "above").pair
    assert oracles_equal(above.x, shift(above.y, 5))
    below = limit_pair(2, 3, "below").pair
    assert oracles_equal(below.y, shift(below.x, 5))


def test_verify_limit_convergence():
    assert verify_limit_convergence(1, 1, "above", Fraction(1, 100), 20)
    assert verify_limit_convergence(5, 8, "above", Fraction(1, 10000), 30)
    assert verify_limit_convergence(5, 8, "below", Fraction(1, 10000), 30)
    # stepping past the Farey neighbour of 1/2 destroys the window agreement
    assert not verify_limit_convergence(1, 1, "above", Fraction(1, 3), 20)


def test_classify_non_recurrent_round_trip():
    for p, q, side in [(0, 1, "above"), (1, 1, "above"), (1, 2, "below"),
                       (5, 8, "above"), (1, 0, "below")]:
        out = classify_non_recurrent(limit_pair(p, q, side).pair)
        assert out == RationalLimitClass(p, q, side)


def test_classify_shifted_degenerate_pair():
    x = EventuallyPeriodic.from_strings("0", "", "10", "0")
    y = EventuallyPeriodic.from_strings("0", "", "010", "0")
    pair = shift_pair(certify_asymptotic(x, y, 4), 1)  # difference set {-1, 0}
    out = classify_non_recurrent(pair)
    assert out == RationalLimitClass(0, 1, "above")


def test_classify_remark_pair(remark_pair):
    out = classify_non_recurrent(remark_pair)
    assert isinstance(out, NotOfForm)
    # the returned witness genuinely distinguishes the pair
    assert discrepancy(Pattern.from_word(out.witness), remark_pair) != 0
    # the upper Christoffel word 1m0 witnesses the failure as well
    assert discrepancy(Pattern.from_word(to_word("100110")), remark_pair) == 1


@pytest.mark.parametrize("side", ["above", "below"])
def test_classify_non_recurrent_beyond_64_shifts(side):
    # the shift p + q = 71 is computed from the normal forms, not searched
    assert classify_non_recurrent(limit_pair(40, 31, side).pair) == RationalLimitClass(40, 31, side)


def test_classify_members_not_shifts():
    # ^inf0 01.0 1^inf and ^inf0 0.1 1^inf share both tails, but no shift relates them
    x = EventuallyPeriodic.from_strings("0", "01", "0", "1")
    y = EventuallyPeriodic.from_strings("0", "0", "1", "1")
    pair = certify_asymptotic(x, y, 4)
    out = classify_non_recurrent(pair)
    assert isinstance(out, NotOfForm) and len(out.witness) == 2
    assert discrepancy(Pattern.from_word(out.witness), pair) != 0


def test_classify_non_recurrent_preconditions(golden_pair):
    with pytest.raises(ValueError):
        classify_non_recurrent(golden_pair)  # recurrent input
    bad = shift_pair(limit_pair(1, 2, "above").pair, 3)
    with pytest.raises(ValueError):
        classify_non_recurrent(bad)  # difference set not {-1, 0}
