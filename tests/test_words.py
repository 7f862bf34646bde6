from hypothesis import given, settings, strategies as st

from sturmkit.words import (
    are_conjugate,
    is_palindrome,
    is_primitive,
    occurrences,
    primitive_root,
    smallest_period,
)


def test_primitive_root():
    assert primitive_root((0, 1, 0, 1)) == (0, 1)
    assert primitive_root((0, 1, 0)) == (0, 1, 0)
    assert primitive_root((1,)) == (1,)
    assert is_primitive((0, 0, 1))
    assert not is_primitive((0, 1, 0, 1, 0, 1))


def test_smallest_period():
    assert smallest_period((0, 1, 0, 1, 0)) == 2
    assert smallest_period((0, 0, 0)) == 1
    assert smallest_period((0, 1, 1)) == 3


def test_conjugacy_and_palindromes():
    assert are_conjugate((0, 1, 1), (1, 1, 0))
    assert not are_conjugate((0, 1, 1), (1, 0, 1, 1))
    assert is_palindrome((0, 1, 0))
    assert not is_palindrome((0, 1, 1))


def reference_occurrences(w, text):
    """The naive scan: compare w with every slice of text."""
    n, m = len(text), len(w)
    return [i for i in range(n - m + 1) if text[i:i + m] == w]


def test_occurrences_overlapping():
    assert occurrences((0, 0), (0, 0, 0, 1, 0, 0)) == [0, 1, 4]
    assert occurrences((0, 1, 0), (0, 1, 0, 1, 0, 0, 1, 0)) == [0, 2, 5]
    assert occurrences((), (1, 2)) == [0, 1, 2]
    assert occurrences((1, 1, 1), (1, 1)) == []


@settings(max_examples=150)
@given(st.integers(1, 3).flatmap(
    lambda k: st.tuples(st.lists(st.integers(0, k - 1), max_size=6),
                        st.lists(st.integers(0, k - 1), max_size=40))))
def test_occurrences_matches_naive_scan(case):
    w, text = map(tuple, case)
    assert occurrences(w, text) == reference_occurrences(w, text)
    # overlapping copies of w exercise the failure links
    if w:
        glued = w + w[len(w) // 2:] + w
        assert occurrences(w, glued) == reference_occurrences(w, glued)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
def test_primitive_root_reconstructs(word):
    w = tuple(word)
    root = primitive_root(w)
    assert root * (len(w) // len(root)) == w
    assert is_primitive(root)
