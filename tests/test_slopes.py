import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from sturmkit.sequences import MechanicalLower, MechanicalUpper
from sturmkit.slopes import (
    QuadraticIrrational,
    ceil_mul_add,
    continued_fraction,
    floor_mul_add,
    floor_ratio,
    format_slope,
    is_rational,
    parse_slope,
)

from conftest import GOLDEN, GOLDEN_COMPL, SQRT2_HALF


def pinned_floor(a, b, c, d, n, digits=40):
    """Independent oracle: floor((a+b*sqrt(d))/c * n) by interval refinement.

    Brackets sqrt(d) between isqrt-based rationals until the floor of the
    two endpoint values agrees.
    """
    while True:
        scale = 10 ** digits
        lo = Fraction(math.isqrt(d * scale * scale), scale)
        hi = lo + Fraction(1, scale)
        vlo = (Fraction(a) + b * (lo if b > 0 else hi)) / c * n
        vhi = (Fraction(a) + b * (hi if b > 0 else lo)) / c * n
        if math.floor(vlo) == math.floor(vhi):
            return math.floor(vlo)
        digits *= 2


def euclid_cf(num, den):
    out = []
    while den:
        q, r = divmod(num, den)
        out.append(q)
        num, den = den, r
    return out


def test_floor_examples():
    assert floor_mul_add(Fraction(0), 7) == 0
    assert floor_mul_add(Fraction(5, 13), 13) == 5
    assert floor_mul_add(GOLDEN, 10) == pinned_floor(-1, 1, 2, 5, 10) == 6


def test_ceil_examples():
    assert ceil_mul_add(Fraction(0), 7) == 0
    assert ceil_mul_add(Fraction(5, 13), 1) == 1
    # alpha*10 is irrational, so ceil = floor + 1
    assert ceil_mul_add(GOLDEN, 10) == pinned_floor(-1, 1, 2, 5, 10) + 1 == 7


def test_floor_with_intercept():
    rho = Fraction(3, 7)
    for n in range(-25, 26):
        assert floor_mul_add(Fraction(5, 13), n, rho) == math.floor(Fraction(5, 13) * n + rho)


def test_continued_fraction_rational():
    assert continued_fraction(Fraction(5, 13), 10) == euclid_cf(5, 13) == [0, 2, 1, 1, 2]
    assert continued_fraction(Fraction(1), 5) == [1]
    assert continued_fraction(Fraction(0), 3) == [0]


def test_continued_fraction_quadratic():
    # x = (sqrt5-1)/2 satisfies x = 1/(1+x): all partial quotients 1 after the 0
    assert continued_fraction(GOLDEN, 5) == [0, 1, 1, 1, 1]
    assert continued_fraction(GOLDEN, 9) == [0] + [1] * 8
    assert continued_fraction(SQRT2_HALF, 6) == [0, 1, 2, 2, 2, 2]


def test_is_rational():
    assert is_rational(Fraction(5, 13))
    assert not is_rational(GOLDEN)
    assert is_rational(Fraction(0))


def test_quadratic_canonicalization():
    assert QuadraticIrrational(0, 1, 1, 8) == QuadraticIrrational(0, 2, 1, 2)
    assert QuadraticIrrational(-2, 2, 4, 5) == QuadraticIrrational(-1, 1, 2, 5)
    with pytest.raises(ValueError):
        QuadraticIrrational(0, 1, 1, 9)  # perfect square
    with pytest.raises(ValueError):
        QuadraticIrrational(1, 0, 2, 5)  # rational in disguise


def test_compare_fraction():
    assert GOLDEN.compare_fraction(Fraction(1, 2)) > 0
    assert GOLDEN.compare_fraction(Fraction(2, 3)) < 0
    assert GOLDEN_COMPL.compare_fraction(Fraction(38, 100)) > 0


@given(st.integers(-200, 200))
def test_ceil_minus_floor_quadratic(n):
    f = floor_mul_add(GOLDEN, n)
    c = ceil_mul_add(GOLDEN, n)
    assert c - f == (1 if n != 0 else 0)


@given(st.integers(-100, 100), st.fractions(min_value=0, max_value=1))
def test_ceil_minus_floor_rational(n, rho):
    alpha = Fraction(5, 13)
    gap = ceil_mul_add(alpha, n, rho) - floor_mul_add(alpha, n, rho)
    exact = alpha * n + rho
    assert gap == (0 if exact.denominator == 1 else 1)


@given(st.integers(-100, 100))
def test_rational_periodicity(n):
    alpha = Fraction(5, 13)
    assert floor_mul_add(alpha, n + 13) == floor_mul_add(alpha, n) + 5


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(5, 13), Fraction(1), GOLDEN, SQRT2_HALF])
def test_floor_monotone_steps(alpha):
    values = [floor_mul_add(alpha, n) for n in range(-40, 41)]
    for a, b in zip(values, values[1:]):
        assert b - a in (0, 1)


@pytest.mark.parametrize("text,back", [
    ("5/13", "5/13"),
    ("0", "0/1"),
    ("1", "1/1"),
    ("(-1+1*sqrt(5))/2", "(-1+1*sqrt(5))/2"),
    ("( 0 + 1*sqrt(2) ) / 2", "(0+1*sqrt(2))/2"),
    ("(3-1*sqrt(5))/2", "(3-1*sqrt(5))/2"),
])
def test_parse_format(text, back):
    assert format_slope(parse_slope(text)) == back


@st.composite
def unit_slopes(draw):
    """Rational or quadratic slopes in [0, 1], with either sign of b."""
    if draw(st.booleans()):
        q = draw(st.integers(1, 200))
        return Fraction(draw(st.integers(0, q)), q)
    d = draw(st.sampled_from([2, 3, 5, 6, 7, 8, 12, 13]))
    b = draw(st.integers(-9, 9).filter(bool))
    c = draw(st.integers(1, 60))
    alpha = QuadraticIrrational(draw(st.integers(-60, 60)), b, c, d)
    assume(alpha.compare_fraction(Fraction(0)) >= 0 and alpha.compare_fraction(Fraction(1)) <= 0)
    return alpha


@given(unit_slopes())
def test_format_parse_round_trip(alpha):
    assert parse_slope(format_slope(alpha)) == alpha


def test_parse_rejects():
    with pytest.raises(ValueError):
        parse_slope("7/5")  # outside [0, 1]
    with pytest.raises(ValueError):
        parse_slope("sqrt(2)")


QUADRATIC_SLOPES = [GOLDEN, SQRT2_HALF, GOLDEN_COMPL, QuadraticIrrational(-2, 1, 1, 7),
                    QuadraticIrrational(1, 1, 4, 3)]


@given(st.sampled_from(QUADRATIC_SLOPES), st.integers(-10 ** 30, 10 ** 30))
def test_floor_mul_add_far_matches_pinned(alpha, n):
    assert floor_mul_add(alpha, n) == pinned_floor(alpha.a, alpha.b, alpha.c, alpha.d, n)


def pinned_ratio(m, u, v, alpha, digits=40):
    """floor(m / (u + v*alpha)) from isqrt brackets of sqrt(d), refined until
    both ends agree."""
    while True:
        scale = 10 ** digits
        root_lo = Fraction(math.isqrt(alpha.d * scale * scale), scale)
        ends = [m / (u + v * (alpha.a + alpha.b * r) / alpha.c)
                for r in (root_lo, root_lo + Fraction(1, scale))]
        if math.floor(ends[0]) == math.floor(ends[1]):
            return math.floor(ends[0])
        digits *= 2


@given(st.sampled_from(QUADRATIC_SLOPES + [Fraction(5, 13), Fraction(0), Fraction(1)]),
       st.integers(-10 ** 40, 10 ** 40), st.integers(1, 4), st.integers(1, 4))
def test_floor_ratio(alpha, m, l0, l1):
    # u + v*alpha is the mean block length l0 + (l1 - l0)*alpha > 0
    got = floor_ratio(m, l0, l1 - l0, alpha)
    if isinstance(alpha, Fraction):
        assert got == math.floor(Fraction(m) / (l0 + (l1 - l0) * alpha))
    else:
        assert got == pinned_ratio(m, l0, l1 - l0, alpha)


# the quadratic slopes of the benchmark's oracle reads
READS_SLOPES = [QuadraticIrrational(a, b, c, d) for a, b, c, d in (
    (-1, 1, 2, 5), (0, 1, 2, 2), (3, -1, 2, 5), (-1, 1, 1, 2), (1, 1, 4, 3), (-2, 1, 1, 7),
    (5, -1, 4, 5))]


def reciprocal_plus(k, x):
    """1/(k + x) for a quadratic irrational x, whose continued fraction is
    that of x behind one more partial quotient k."""
    A = x.a + k * x.c  # k + x = (A + b*sqrt(d))/c
    return QuadraticIrrational(x.c * A, -x.c * x.b, A * A - x.b * x.b * x.d, x.d)


# partial quotients near 10^12 to 10^15 at the first or second Gauss level,
# and next to 0 or 1
HUGE_QUOTIENT_SLOPES = [
    Fraction(1, 10 ** 15), Fraction(10 ** 12, 2 * 10 ** 12 + 1), Fraction(10 ** 15 - 1, 10 ** 15),
    reciprocal_plus(10 ** 12, GOLDEN), reciprocal_plus(2, reciprocal_plus(10 ** 12, GOLDEN)),
    reciprocal_plus(1, reciprocal_plus(10 ** 12, GOLDEN)), QuadraticIrrational(-1, 1, 2 * 10 ** 9, 5),
]
SLOPES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)] + READS_SLOPES + HUGE_QUOTIENT_SLOPES),
    unit_slopes(),
)
INTERCEPTS = st.one_of(
    st.just(Fraction(0)), st.integers(-4, 4).map(Fraction), st.fractions(-20, 20, max_denominator=60),
)


@settings(max_examples=300, deadline=None)
@given(SLOPES, INTERCEPTS, st.sampled_from([0, 10 ** 50, -10 ** 50]), st.integers(-3000, 3000),
       st.integers(1, 2000))
def test_mechanical_window_matches_exact_floors(alpha, rho, far, offset, length):
    """Both kinds of window, read by Gauss-map desubstitution, agree with
    per-symbol exact floor and ceil differences."""
    lo, hi = far + offset, far + offset + length - 1
    lower = [floor_mul_add(alpha, n, rho) for n in range(lo, hi + 2)]
    upper = [ceil_mul_add(alpha, n, rho) for n in range(lo, hi + 2)]
    assert list(MechanicalLower(alpha, rho).window(lo, hi)) == [y - x for x, y in zip(lower, lower[1:])]
    assert list(MechanicalUpper(alpha, rho).window(lo, hi)) == [y - x for x, y in zip(upper, upper[1:])]
