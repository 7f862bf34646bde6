"""Christoffel words, the conjugacy characterization, palindromic structure,
and the four eventually periodic forms that arise as limits of characteristic
mechanical words at a rational slope.

Christoffel words are read directly off the exact rational mechanical
oracle, so this module and ``sequences`` share one source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .patterns import AsymptoticPair, certify_asymptotic, check_indistinguishable
from .sequences import (
    BINARY,
    EventuallyPeriodic,
    MechanicalLower,
    MechanicalUpper,
    SequenceOracle,
    is_recurrent,
    oracles_equal,
    shift_relation,
)
from .words import Word, are_conjugate, is_palindrome


@dataclass(frozen=True)
class ChristoffelWord:
    p: int
    q: int
    kind: str  # 'lower' | 'upper'
    word: Word

    def __str__(self) -> str:
        return BINARY.word_to_str(self.word)


def christoffel(p: int, q: int, kind: str = "lower") -> ChristoffelWord:
    """The length p+q window [0, p+q-1] of the mechanical word of slope p/(p+q).

    The word has p ones and q zeros; (0,1) gives "0" and (1,0) gives "1".
    """
    if kind not in ("lower", "upper"):
        raise ValueError("kind must be 'lower' or 'upper'")
    if p < 0 or q < 0 or (p, q) == (0, 0):
        raise ValueError("need nonnegative p, q, not both zero")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p}, q={q} are not coprime")
    alpha = Fraction(p, p + q)
    oracle = MechanicalLower(alpha) if kind == "lower" else MechanicalUpper(alpha)
    return ChristoffelWord(p, q, kind, oracle.window(0, p + q - 1))


def pirillo_check(w: Word) -> bool:
    """True iff w = 0m1 and 0m1, 1m0 are conjugate; equivalently w is lower Christoffel."""
    if len(w) < 2 or w[0] != 0 or w[-1] != 1:
        return False
    swapped = (1,) + w[1:-1] + (0,)
    return are_conjugate(w, swapped)


def all_christoffel_lower(max_length: int) -> set[Word]:
    """Every lower Christoffel word of length 2..max_length (exhaustive)."""
    out: set[Word] = set()
    for total in range(2, max_length + 1):
        for p in range(1, total):
            q = total - p
            if math.gcd(p, q) == 1:
                out.add(christoffel(p, q, "lower").word)
    return out


def palindrome_factorization(cw: ChristoffelWord) -> tuple[Word, Word]:
    """The unique split w = P1 * P2 into palindromes with upper word = P2 * P1.

    Also checks that the central word m (w = 0m1) is a palindrome.
    """
    if cw.kind != "lower":
        raise ValueError("factorization is defined on lower Christoffel words")
    if cw.p < 1 or cw.q < 1:
        raise ValueError("degenerate slopes 0 and infinity have no factorization")
    if not is_palindrome(cw.word[1:-1]):
        raise ValueError("central word is not a palindrome; not a Christoffel word?")
    upper = christoffel(cw.p, cw.q, "upper").word
    splits = [
        (cw.word[:i], cw.word[i:])
        for i in range(1, len(cw.word))
        if is_palindrome(cw.word[:i])
        and is_palindrome(cw.word[i:])
        and cw.word[i:] + cw.word[:i] == upper
    ]
    if len(splits) != 1:
        raise ValueError(f"expected exactly one palindromic split, found {len(splits)}")
    return splits[0]


@dataclass(frozen=True)
class LimitPairForm:
    """Eventually periodic pair arising as the one-sided limit at slope p/(p+q)."""

    p: int
    q: int
    side: str  # 'above' | 'below'
    pair: AsymptoticPair


def limit_pair(p: int, q: int, side: str) -> LimitPairForm:
    """The pair of eventually periodic sequences obtained by letting the slope
    of the characteristic mechanical words tend to p/(p+q) from one side.

    For p, q >= 1 with lower word 0m1 and upper word 1m0:

        above:  x = ^inf(1m0)(1m1).(0m1)^inf     below:  x = ^inf(0m1).(0m0)(1m0)^inf
                y = ^inf(1m0).(1m1)(0m1)^inf             y = ^inf(0m1)(0m0).(1m0)^inf

    Degenerate slopes: (0,1,above) gives (^inf(01).(0)^inf, ^inf(00).10(0)^inf)
    and (1,0,below) gives (^inf(11).01(1)^inf, ^inf(10).(1)^inf).
    """
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    if math.gcd(p, q) != 1 or p < 0 or q < 0 or (p, q) == (0, 0):
        raise ValueError("need coprime nonnegative p, q, not both zero")
    if side == "above" and (p, q) == (1, 0):
        raise ValueError("no slopes above 1")
    if side == "below" and (p, q) == (0, 1):
        raise ValueError("no slopes below 0")

    def evp(u: str, ypad: str, zpad: str, w: str) -> SequenceOracle:
        return EventuallyPeriodic.from_strings(u, ypad, zpad, w, BINARY)

    if (p, q) == (0, 1):
        # slope -> 0+: a single 1 at -1 (lower) resp. at 0 (upper)
        x, y = evp("0", "1", "", "0"), evp("0", "", "10", "0")
    elif (p, q) == (1, 0):
        # slope -> 1-: a single 0 at 0 (lower) resp. at -1 (upper)
        x, y = evp("1", "", "01", "1"), evp("1", "0", "", "1")
    else:
        m = BINARY.word_to_str(christoffel(p, q, "lower").word[1:-1])
        lower, upper = f"0{m}1", f"1{m}0"
        ones, zeros = f"1{m}1", f"0{m}0"
        if side == "above":
            x = evp(upper, ones, "", lower)
            y = evp(upper, "", ones, lower)
        else:
            x = evp(lower, "", zeros, upper)
            y = evp(lower, zeros, "", upper)
    pair = certify_asymptotic(x, y, radius=2)
    if pair.diff != frozenset({-1, 0}):
        raise AssertionError("limit pair must differ exactly on {-1, 0}")
    return LimitPairForm(p, q, side, pair)


def verify_limit_convergence(p: int, q: int, side: str, eps: Fraction,
                             radius: int) -> bool:
    """Window test: do the mechanical words at slope p/(p+q) +- eps agree with
    the limit pair on [-radius, radius]?"""
    if eps <= 0:
        raise ValueError("eps must be positive")
    target = Fraction(p, p + q)
    alpha = target + eps if side == "above" else target - eps
    if not (0 < alpha < 1):
        raise ValueError(f"perturbed slope {alpha} leaves (0, 1)")
    form = limit_pair(p, q, side)
    lower, upper = MechanicalLower(alpha), MechanicalUpper(alpha)
    return (lower.window(-radius, radius) == form.pair.x.window(-radius, radius)
            and upper.window(-radius, radius) == form.pair.y.window(-radius, radius))


@dataclass(frozen=True)
class RationalLimitClass:
    p: int
    q: int
    side: str


@dataclass(frozen=True)
class NotOfForm:
    witness: Word


def classify_non_recurrent(pair: AsymptoticPair) -> Union[RationalLimitClass, NotOfForm]:
    """Recognize a non-recurrent pair with difference set {-1,0} as a limit pair.

    The limit pair at p/(p+q) has x = sigma^s y, |s| = p + q, s > 0 above the
    slope.  The shift comes from ``shift_relation``; the central word is
    extracted, the conjugacy characterization checked, and the candidate
    (p, q, side) confirmed by exact comparison with the constructed limit
    pair.  Any other pair, shifted or not, gets a distinguishability witness
    from the bounded check at length max(16, 2|s| + 8).
    """
    x, y = pair.x, pair.y
    if pair.diff != frozenset({-1, 0}):
        raise ValueError("classification requires difference set {-1, 0}")
    if (x.at(-1), x.at(0)) != (1, 0) or (y.at(-1), y.at(0)) != (0, 1):
        raise ValueError("expected x_{-1}x_0 = 10 and y_{-1}y_0 = 01")
    if is_recurrent(x) is not False:
        raise ValueError("pair is recurrent or of undecided recurrence; use the general classifier")

    s = shift_relation(x, y) or 0
    limit = _limit_class(x, y, s)
    if limit is not None:
        return limit

    verdict = check_indistinguishable(pair, max_len=max(16, 2 * abs(s) + 8))
    if verdict.passed:
        raise ValueError(
            f"pair is not a limit pair, yet passes the check up to length {verdict.lengths_checked}"
        )
    return NotOfForm(verdict.witness)


def _limit_class(x: SequenceOracle, y: SequenceOracle, s: int) -> Optional[RationalLimitClass]:
    """The limit class of x, y with x = sigma^s y (s = 0: no shift relation),
    x reading 10 and y reading 01 on {-1, 0}: the central word read off x
    gives the one candidate (p, q, side), which exact comparison with the
    constructed limit pair confirms or rejects (None)."""
    shift_k, side = abs(s), "above" if s > 0 else "below"
    if shift_k == 0:
        return None
    w0 = x.window(0, shift_k - 1)
    lower = w0 if side == "above" else w0[:-1] + (1,)
    # at shift 1, x_0 = 0 makes lower the word 0 (above) or 1 (below)
    if shift_k > 1 and not (lower[0] == 0 and lower[-1] == 1 and pirillo_check(lower)):
        return None
    p = sum(lower)
    form = limit_pair(p, shift_k - p, side)
    if oracles_equal(x, form.pair.x) and oracles_equal(y, form.pair.y):
        return RationalLimitClass(p, shift_k - p, side)
    return None
