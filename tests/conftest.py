import pytest

import sturmkit as sk
from sturmkit.sequences import BINARY, EventuallyPeriodic

GOLDEN = sk.QuadraticIrrational(-1, 1, 2, 5)        # (sqrt5 - 1)/2
SQRT2_HALF = sk.QuadraticIrrational(0, 1, 2, 2)     # sqrt2 / 2
GOLDEN_COMPL = sk.QuadraticIrrational(3, -1, 2, 5)  # (3 - sqrt5)/2


@pytest.fixture(scope="session")
def golden_pair():
    return sk.certify_asymptotic(
        sk.MechanicalLower(GOLDEN), sk.MechanicalUpper(GOLDEN), radius=4
    )


@pytest.fixture(scope="session")
def remark_pair():
    # eventually periodic pair built on the central word m = 0011; it is
    # asymptotic with difference set {-1, 0} but not indistinguishable
    x = EventuallyPeriodic.from_strings("100110", "100111", "", "000111")
    y = EventuallyPeriodic.from_strings("100110", "", "100111", "000111")
    return sk.certify_asymptotic(x, y, radius=4)


def one_minus(alpha):
    """1 - alpha for a quadratic irrational alpha = (a + b*sqrt(d))/c."""
    return sk.QuadraticIrrational(alpha.c - alpha.a, -alpha.b, alpha.c, alpha.d)


def to_word(text):
    return BINARY.word_from_str(text)


def to_str(word):
    return BINARY.word_to_str(word)
