"""Small utilities on finite words (tuples of symbol ids)."""

from __future__ import annotations

from typing import Iterator, Sequence

Word = tuple[int, ...]


def failure_function(w: Word) -> list[int]:
    """KMP failure table; f[i] = length of longest proper border of w[:i+1]."""
    f = [0] * len(w)
    k = 0
    for i in range(1, len(w)):
        while k and w[i] != w[k]:
            k = f[k - 1]
        if w[i] == w[k]:
            k += 1
        f[i] = k
    return f


def smallest_period(w: Word) -> int:
    """Smallest p such that w[i] == w[i+p] for all valid i."""
    if not w:
        raise ValueError("empty word has no period")
    return len(w) - failure_function(w)[-1]


def primitive_root(w: Word) -> Word:
    """The primitive word u with w = u**k; w itself if w is primitive."""
    p = smallest_period(w)
    if len(w) % p == 0:
        return w[:p]
    return w


def is_primitive(w: Word) -> bool:
    return primitive_root(w) == w


def is_palindrome(w: Word) -> bool:
    return w == w[::-1]


def are_conjugate(u: Word, v: Word) -> bool:
    """True iff u and v are rotations of one another."""
    if len(u) != len(v):
        return False
    if not u:
        return True
    return any(u[i:] + u[:i] == v for i in range(len(u)))


def occurrences(w: Word, text: Word) -> list[int]:
    """All start positions of w inside text (overlaps allowed).

    Knuth-Morris-Pratt: O(len(w) + len(text)) symbol comparisons.
    """
    m = len(w)
    if not m:
        return list(range(len(text) + 1))
    f = failure_function(w)
    out = []
    k = 0  # length of the longest prefix of w ending at the current symbol
    for i, s in enumerate(text):
        while k and s != w[k]:
            k = f[k - 1]
        if s == w[k]:
            k += 1
        if k == m:
            out.append(i - m + 1)
            k = f[k - 1]
    return out


def factor_classes(texts: Sequence[Word], starts: int, size: int,
                   max_len: int) -> Iterator[tuple[list[list[int]], int]]:
    """Class ids of the factors of several texts, one length at a time.

    For n = 1..max_len yields (classes, count): classes[t][i] identifies the
    length-n factor of texts[t] at i, for i < min(starts, len(texts[t]) - n + 1),
    and count is the number of distinct ids.  Equal factors get equal ids
    across all the texts.  The id at length n+1 is looked up by (id at n,
    next symbol) in one dict, so no word is hashed and each length costs
    O(starts) per text.  Symbols must lie in range(size).
    """
    classes = [[0] * starts for _ in texts]  # length 0: every start holds the empty word
    for n in range(1, max_len + 1):
        ids: dict[int, int] = {}  # setdefault(key, len(ids)) numbers new keys 0, 1, ...
        classes = [[ids.setdefault(c * size + s, len(ids)) for c, s in zip(cs, text[n - 1:])]
                   for cs, text in zip(classes, texts)]
        yield classes, len(ids)
