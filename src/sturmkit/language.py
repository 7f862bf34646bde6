"""Factor sets, complexity profiles, special factors and window tests.

All results are relative to an explicitly recorded window.  Completeness of
a window is only relied upon where a structural argument guarantees it: for
a non-trivial indistinguishable pair every factor of length n occurs at a
position meeting the difference set, so the window
[min F - n + 1, max F + n - 1] witnesses the full factor set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .patterns import AsymptoticPair, check_indistinguishable, shift_pair, substitute_pair
from .sequences import BINARY, SequenceOracle, Substitution
from .words import Word, factor_classes


@dataclass(frozen=True)
class FactorSet:
    n: int
    words: frozenset[Word]
    window: tuple[int, int]


def _slices(text: Word, n: int) -> frozenset[Word]:
    return frozenset(text[i:i + n] for i in range(len(text) - n + 1))


def factors(x: SequenceOracle, n: int, window: tuple[int, int]) -> FactorSet:
    """All length-n factors of x witnessed inside the window."""
    lo, hi = window
    if n < 1:
        raise ValueError("factor length must be >= 1")
    if hi - lo + 1 < n:
        raise ValueError(f"window {window} shorter than factor length {n}")
    return FactorSet(n, _slices(x.window(lo, hi), n), window)


def complexity_profile(x: SequenceOracle, max_n: int, window: tuple[int, int]) -> list[int]:
    """[#L_1, ..., #L_max_n] as witnessed by the window.

    The window is read once and its factors are counted by class refinement
    (:func:`words.factor_classes`) in O(max_n * window length).
    """
    lo, hi = window
    if hi - lo + 1 < max_n:
        raise ValueError(f"window {window} shorter than factor length {max_n}")
    if max_n < 1:
        return []
    text = x.window(lo, hi)
    return [count for _, count in factor_classes((text,), len(text), x.alphabet.size, max_n)]


def special_factors(x: SequenceOracle, n: int, window: tuple[int, int],
                    side: str) -> set[Word]:
    """Length-n factors with at least two one-symbol extensions on the given side."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    longer = factors(x, n + 1, window).words
    ext: dict[Word, set[int]] = {}
    for f in longer:
        if side == "right":
            ext.setdefault(f[:-1], set()).add(f[-1])
        else:
            ext.setdefault(f[1:], set()).add(f[0])
    return {w for w, symbols in ext.items() if len(symbols) >= 2}


def central_window_uniqueness(pair: AsymptoticPair, n: int) -> bool:
    """Do x_{-n}..x_{n-1} and y_{-n}..y_{n-1} each hold every length-n factor exactly once?

    Only meaningful for pairs with difference set {-1, 0}; for those the two
    length-2n central windows are optimal representations of the language.
    """
    if pair.diff != frozenset({-1, 0}):
        raise ValueError("central windows require difference set {-1, 0}")
    xs = pair.x.window(-n, n - 1)
    ys = pair.y.window(-n, n - 1)
    xf = [xs[i:i + n] for i in range(n + 1)]
    yf = [ys[i:i + n] for i in range(n + 1)]
    return (len(set(xf)) == n + 1 and len(set(yf)) == n + 1
            and set(xf) == set(yf))


def complete_factor_window(pair: AsymptoticPair, n: int) -> tuple[int, int]:
    """A window guaranteed to witness all of L_n(x) for an indistinguishable pair."""
    lo, hi = pair.span()
    return (lo - n + 1, hi + n - 1)


def complexity_bounds_check(pair: AsymptoticPair, max_n: int) -> bool:
    """n+1 <= #L_n <= n + #I - 1 where I is the interval hull of the difference set.

    Precondition: the pair is non-trivial and passes the indistinguishability
    check up to max_n (the bounds are a statement about such pairs).
    """
    if pair.is_trivial:
        raise ValueError("bounds apply to non-trivial pairs")
    verdict = check_indistinguishable(pair, max_n)
    if not verdict.passed:
        raise ValueError(
            f"pair is distinguishable at length {verdict.lengths_checked}; bounds do not apply"
        )
    lo, hi = pair.span()
    interval = hi - lo + 1
    # the widest complete window is read once; the one for n starts at index max_n - n
    wlo, whi = complete_factor_window(pair, max_n)
    text = pair.x.window(wlo, whi)
    levels = factor_classes((text,), len(text), pair.alphabet.size, max_n)
    for n, ((classes,), _) in enumerate(levels, start=1):
        count = len(set(classes[max_n - n:hi - lo + max_n]))
        if not (n + 1 <= count <= n + interval - 1):
            return False
    return True


# ---------------------------------------------------------------------------
# negative-control fixture: limits of Toeplitz sequences


class ToeplitzLimit(SequenceOracle):
    """Binary limit-of-Toeplitz sequence; the origin symbol is a free choice.

    Away from the origin the symbol at n is (v+1) mod 2 where 2^v is the
    largest power of two dividing n.  The two origin choices give a uniformly
    recurrent asymptotic pair with the same language that is nevertheless
    distinguishable.
    """

    known_recurrent = True

    def __init__(self, origin_symbol: int):
        super().__init__(BINARY)
        if origin_symbol not in (0, 1):
            raise ValueError("origin symbol must be 0 or 1")
        self.origin_symbol = origin_symbol

    def _at(self, n: int) -> int:
        if n == 0:
            return self.origin_symbol
        return (n & -n).bit_length() % 2

    def __repr__(self) -> str:
        return f"toeplitz({self.origin_symbol})"


def toeplitz_pair() -> AsymptoticPair:
    """The fixture pair differing exactly at the origin."""
    return AsymptoticPair(ToeplitzLimit(0), ToeplitzLimit(1), frozenset({0}))


def toeplitz_thue_morse_pair() -> AsymptoticPair:
    """Thue-Morse image of the fixture, shifted to difference set {-1, 0}."""
    tm = Substitution({0: (0, 1), 1: (1, 0)}, BINARY, BINARY)
    return shift_pair(substitute_pair(tm, toeplitz_pair()), 1)
