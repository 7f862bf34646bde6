"""Patterns, discrepancy and the bounded indistinguishability checker.

The discrepancy of a pattern p with support S against an asymptotic pair
(x, y) with difference set F is the number of occurrences of p in y meeting
F minus the number in x; only positions in F - S can contribute, which makes
it a finite exact computation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .sequences import (
    Alphabet,
    NotAsymptoticError,
    SequenceOracle,
    Substitution,
    UncertifiableError,
    difference_set,
    oracles_equal,
    reverse,
    shift,
    substitute,
    window_difference,
)
from .words import Word, factor_classes

__all__ = [
    "Pattern",
    "AsymptoticPair",
    "Verdict",
    "certify_asymptotic",
    "occurrences_in",
    "discrepancy",
    "check_indistinguishable",
    "ns_norm_lower_bound",
    "pattern_reduction_check",
    "shift_pair",
    "reverse_pair",
    "substitute_pair",
    "NotAsymptoticError",
    "UncertifiableError",
]


@dataclass(frozen=True)
class Pattern:
    """Finitely supported map from integer positions to symbols."""

    cells: tuple[tuple[int, int], ...]  # sorted (position, symbol)

    def __post_init__(self) -> None:
        cells = tuple(sorted(self.cells))
        if not cells:
            raise ValueError("pattern support must be nonempty")
        if len({p for p, _ in cells}) != len(cells):
            raise ValueError("repeated support position")
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_dict(cls, values: dict[int, int]) -> "Pattern":
        return cls(tuple(sorted(values.items())))

    @classmethod
    def from_word(cls, word: Word, start: int = 0) -> "Pattern":
        return cls(tuple((start + i, s) for i, s in enumerate(word)))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.cells)

    def value(self, position: int) -> int:
        return dict(self.cells)[position]

    def negated(self) -> "Pattern":
        """The pattern -p with support -S and (-p)(-s) = p(s)."""
        return Pattern(tuple((-p, s) for p, s in self.cells))

    def translated(self, k: int) -> "Pattern":
        return Pattern(tuple((p + k, s) for p, s in self.cells))

    @property
    def extent(self) -> tuple[int, int]:
        """Smallest and largest support position."""
        return self.cells[0][0], self.cells[-1][0]

    def matches_in(self, word: Word, i: int) -> bool:
        """Does the pattern match the word placed so that index i is its origin?"""
        return all(word[i + p] == s for p, s in self.cells)


@dataclass(frozen=True)
class AsymptoticPair:
    """Two oracles plus their exact, certified difference set; construction
    checks that the members differ exactly there on the set's hull, and that
    members given no difference set are equal: on all of Z where normal forms
    decide it, else on one bounded window."""

    x: SequenceOracle
    y: SequenceOracle
    diff: frozenset[int]

    def __post_init__(self) -> None:
        if self.x.alphabet != self.y.alphabet:
            raise ValueError("pair members use different alphabets")
        if self.diff:
            exact = self.diff == window_difference(self.x, self.y, *self.span())
        else:
            try:
                exact = oracles_equal(self.x, self.y)
            except UncertifiableError:  # members outside the closed algebra
                exact = not window_difference(self.x, self.y, -64, 64)
        if not exact:
            raise ValueError(f"members do not differ exactly on {sorted(self.diff)} over its hull")

    @property
    def alphabet(self) -> Alphabet:
        return self.x.alphabet

    @property
    def is_trivial(self) -> bool:
        return not self.diff

    def span(self) -> tuple[int, int]:
        """Smallest interval [lo, hi] containing the difference set."""
        if not self.diff:
            raise ValueError("trivial pair has no difference span")
        return min(self.diff), max(self.diff)


def certify_asymptotic(x: SequenceOracle, y: SequenceOracle, radius: int) -> AsymptoticPair:
    """Certified difference set of (x, y), which must lie within [-radius, radius].

    Raises :class:`NotAsymptoticError` when the oracles provably differ at
    infinitely many positions and :class:`UncertifiableError` when no
    structural certificate of agreement outside a finite set exists.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    diff = difference_set(x, y)
    if diff and not (-radius <= min(diff) and max(diff) <= radius):
        raise ValueError(
            f"certified differences {sorted(diff)} exceed radius {radius}"
        )
    return AsymptoticPair(x, y, diff)


def shift_pair(pair: AsymptoticPair, k: int) -> AsymptoticPair:
    """(sigma^k x, sigma^k y); the difference set moves to F - k."""
    return AsymptoticPair(shift(pair.x, k), shift(pair.y, k),
                          frozenset(f - k for f in pair.diff))


def reverse_pair(pair: AsymptoticPair) -> AsymptoticPair:
    """(x^R, y^R); the difference set moves to -F."""
    return AsymptoticPair(reverse(pair.x), reverse(pair.y),
                          frozenset(-f for f in pair.diff))


def substitute_pair(phi: Substitution, pair: AsymptoticPair) -> AsymptoticPair:
    """(phi(x), phi(y)) with an exact difference set.

    phi(x) is anchored at 0: the block of x_0 starts at position 0.  phi(y)
    is anchored so that its block of position min F starts where that of
    phi(x) does, which for F inside [0, inf) is anchor 0 as well.  Left of
    those blocks the two images are then the same string at the same
    positions, and so are they right of the blocks of max F when the two
    block ends meet, which happens exactly when each symbol's image length
    sums to the same over the difference interval in x and in y.  Otherwise
    the images are tail-shifted copies and the structural certifier decides
    the rest.
    """
    ix, iy = substitute(phi, pair.x), substitute(phi, pair.y)
    if pair.is_trivial:
        return AsymptoticPair(ix, iy, frozenset())
    lo, hi = pair.span()
    lx, rx = ix.block_start(lo), ix.block_start(hi + 1)
    k = iy.block_start(lo) - lx
    ry = iy.block_start(hi + 1) - k
    iy = shift(iy, k)
    if rx != ry:
        return AsymptoticPair(ix, iy, difference_set(ix, iy))
    return AsymptoticPair(ix, iy, window_difference(ix, iy, lx, rx - 1))


def occurrences_in(p: Pattern, x: SequenceOracle, window: tuple[int, int]) -> set[int]:
    """{n in [lo, hi] : the pattern matches x at n}; x is read once."""
    lo, hi = window
    if lo > hi:
        return set()
    plo, phi = p.extent
    text = x.window(lo + plo, hi + phi)
    return {n for n in range(lo, hi + 1) if p.matches_in(text, n - lo - plo)}


def discrepancy(p: Pattern, pair: AsymptoticPair) -> int:
    """Occurrences of p in y meeting F minus occurrences in x meeting F.

    Reads x and y once, over the hull of the candidate placements.
    """
    if pair.is_trivial:
        return 0
    positions = {f - s for f in pair.diff for s in p.support}
    plo, phi = p.extent
    lo, hi = min(positions) + plo, max(positions) + phi
    xs, ys = pair.x.window(lo, hi), pair.y.window(lo, hi)
    return sum(int(p.matches_in(ys, n - lo)) - int(p.matches_in(xs, n - lo)) for n in positions)


def _hull(pair: AsymptoticPair, max_len: int) -> tuple[Word, Word]:
    lo, hi = pair.span()[0] - max_len + 1, pair.span()[1] + max_len - 1
    return pair.x.window(lo, hi), pair.y.window(lo, hi)


def _deltas(hull: tuple[Word, Word], max_len: int, n: int) -> dict[Word, int]:
    """{w: Delta_w} for the length-n words w with Delta_w != 0, {} if none,
    from the slices at the starts [min F - n + 1, max F] of a hull read with
    max_len >= n; a start whose window misses F sees one word in both and cancels.
    """
    first, last = max_len - n, len(hull[0]) - max_len  # the starts min F - n + 1 and max F
    windows = [slice(i, i + n) for i in range(first, last + 1)]
    in_x, in_y = (Counter(map(text.__getitem__, windows)) for text in hull)
    same = dict.__eq__(in_x, in_y)  # counting leaves no zero counts, so this is Counter ==, in C
    return {} if same else {w: d for w in in_x.keys() | in_y.keys() if (d := in_y[w] - in_x[w])}


@dataclass(frozen=True)
class Verdict:
    passed: bool
    witness: Optional[Word]
    lengths_checked: int


def check_indistinguishable(pair: AsymptoticPair, max_len: int) -> Verdict:
    """Delta_w = 0 for every word w with 1 <= |w| <= max_len?

    On failure the witness is the shortest failing word, ties broken by
    lexicographically smallest symbol ids.  A pass certifies nothing beyond
    max_len except for pairs matched by the classification theorems.

    Reads the hull [min F - max_len + 1, max F + max_len - 1] of x and y once, |F| the
    width of the difference interval.  Failure is upward-closed in length, so the
    length-n slices of both are counted only at n = 1, 2, 4, ..., max_len; on the first
    failing probe q the bracket (p, q], p the last passing probe, is bisected down to
    the first failing length.  A probe compares the two slice Counters by dict equality,
    in C (Counter.__eq__ loops in Python): O(max_len * (|F| + max_len)) symbol
    operations and O(|F| log max_len + max_len) interpreter steps in all.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if pair.is_trivial:
        return Verdict(True, None, max_len)
    hull = _hull(pair, max_len)
    p, q = 0, 1
    while not (deltas := _deltas(hull, max_len, q)):
        if q == max_len:
            return Verdict(True, None, max_len)
        p, q = q, min(2 * q, max_len)
    while q - p > 1:  # every length <= p passes and q fails
        mid = (p + q) // 2
        if failing := _deltas(hull, max_len, mid):
            q, deltas = mid, failing
        else:
            p = mid
    return Verdict(False, min(deltas), q)


def ns_norm_lower_bound(pair: AsymptoticPair, max_support: int) -> Fraction:
    """Certified lower bound for the asymptotic-pair norm.

    Maximizes (1/n) * sum over all length-n words of |Delta_w| for n <= max_support;
    interval supports only, so this bounds the supremum over all finite supports
    from below.  It reads the hull as check_indistinguishable does but refines
    classes (:func:`words.factor_classes`) at every length and compares their
    Counters by dict inequality in C, not by the Python loop of Counter.__ne__:
    O(max_support * (|F| + max_support)) time and O(|F| + max_support) memory.
    """
    if max_support < 1:
        raise ValueError("max_support must be >= 1")
    if pair.is_trivial:
        return Fraction(0)
    hull = _hull(pair, max_support)
    levels = factor_classes(hull, len(hull[0]) - max_support + 1, pair.alphabet.size, max_support)
    counts = ((n, Counter(cx[max_support - n:]), Counter(cy[max_support - n:]))
              for n, ((cx, cy), _) in enumerate(levels, start=1))  # starts min F - n + 1 .. max F
    return max((Fraction(sum(abs(in_y[c] - in_x[c]) for c in in_x.keys() | in_y.keys()), n)
                for n, in_x, in_y in counts if dict.__ne__(in_x, in_y)), default=Fraction(0))


def pattern_reduction_check(p: Pattern, pair: AsymptoticPair) -> bool:
    """Test Delta_p == sum of Delta_w over words w completing p.

    The completions run over the full interval [min S, max S] with w
    agreeing with p on S; the identity holds for every asymptotic pair.
    """
    lo = min(p.support)
    q = p.translated(-lo)  # support now starts at 0; Delta is translation invariant
    n = max(q.support) + 1
    fixed = dict(q.cells)
    free = [i for i in range(n) if i not in fixed]
    sigma = range(pair.alphabet.size)
    total = 0
    for fill in product(sigma, repeat=len(free)):
        w = list(0 for _ in range(n))
        for i, s in fixed.items():
            w[i] = s
        for i, s in zip(free, fill):
            w[i] = s
        total += discrepancy(Pattern.from_word(tuple(w)), pair)
    return total == discrepancy(p, pair)
