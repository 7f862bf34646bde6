import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import sturmkit as sk
from sturmkit import sequences
from sturmkit.christoffel import limit_pair
from sturmkit.derive import derived_sequence
from sturmkit.language import ToeplitzLimit
from sturmkit.sequences import (
    _SCAN_CAP,
    BINARY,
    DerivedView,
    EventuallyPeriodic,
    GapError,
    Mechanical,
    MechanicalLower,
    MechanicalUpper,
    Reversal,
    Shift,
    SubstImage,
    Substitution,
    alphabet_of_size,
    difference_set,
    identity_substitution,
    is_recurrent,
    normal_form,
    NFEvp,
    NFMech,
    NFSubst,
    oracles_equal,
    render_window,
    render_word,
    reverse,
    shift,
    shift_relation,
    substitute,
)
from sturmkit.slopes import floor_mul_add, ceil_mul_add

from conftest import GOLDEN, GOLDEN_COMPL, SQRT2_HALF, one_minus, to_str, to_word

TM = Substitution({0: (0, 1), 1: (1, 0)}, BINARY, BINARY)
FIB = Substitution({0: (0, 1), 1: (0,)}, BINARY, BINARY)


def evp(u, y, z, w):
    return EventuallyPeriodic.from_strings(u, y, z, w)


def test_mechanical_at_paper_values():
    c = MechanicalLower(GOLDEN)
    cu = MechanicalUpper(GOLDEN)
    assert (c.at(-1), c.at(0)) == (1, 0)
    assert (cu.at(-1), cu.at(0)) == (0, 1)


def test_eventually_periodic_at():
    x = evp("0", "", "10", "0")  # ^inf0.10^inf
    assert x.at(0) == 1
    assert x.at(5) == 0 and x.at(-5) == 0


def test_window_periods():
    assert to_str(MechanicalLower(Fraction(5, 13)).window(0, 12)) == "0010010100101"
    assert to_str(MechanicalUpper(Fraction(5, 13)).window(0, 12)) == "1010010100100"
    x = evp("0", "", "10", "0")
    assert x.window(3, 3) == (0,)


def test_mechanical_identity():
    for alpha in (Fraction(5, 13), GOLDEN, SQRT2_HALF):
        lower, upper = MechanicalLower(alpha), MechanicalUpper(alpha)
        for n in range(-30, 30):
            assert lower.at(n) == floor_mul_add(alpha, n + 1) - floor_mul_add(alpha, n)
            assert upper.at(n) == ceil_mul_add(alpha, n + 1) - ceil_mul_add(alpha, n)


def test_rational_mechanical_period():
    # slope p/(p+q) in lowest terms gives a (p+q)-periodic sequence
    for p, q in [(5, 8), (1, 2), (3, 4)]:
        x = MechanicalLower(Fraction(p, p + q))
        assert x.window(0, p + q - 1) * 3 == x.window(0, 3 * (p + q) - 1)
        assert x.window(-(p + q), -1) == x.window(0, p + q - 1)


def test_shift_laws():
    x = MechanicalLower(GOLDEN)
    assert shift(x, 0) is x
    s = shift(shift(x, 2), 3)
    assert s.window(-10, 10) == x.window(-5, 15)
    # shifting a rational mechanical word moves the intercept by k*alpha mod 1
    a = Fraction(5, 13)
    left = shift(MechanicalLower(a), 3)
    right = MechanicalLower(a, Fraction(2, 13))  # 3*5/13 mod 1
    assert left.window(-20, 20) == right.window(-20, 20)


def test_reverse_laws():
    x = evp("01", "1", "0011", "10")
    assert reverse(reverse(x)) is x
    r = reverse(x)
    for n in range(-12, 13):
        assert r.at(n) == x.at(-n)
    # the reversal swaps and reverses the periodic parts; the pads move with
    # the origin since position 0 maps to itself
    rr = evp("01", "110", "01", "10")
    assert r.window(-10, 10) == rr.window(-10, 10)


def test_reversal_relates_lower_and_upper():
    # c(n) = c'(-n-1), so the upper word is the reversal of the lower word
    # advanced by one
    c, cu = MechanicalLower(GOLDEN), MechanicalUpper(GOLDEN)
    left = shift(reverse(c), 1)
    assert left.window(-20, 20) == cu.window(-20, 20)


def test_substitute_identity():
    x = evp("0", "", "10", "0")
    ident = identity_substitution(BINARY)
    assert substitute(ident, x).window(-9, 9) == x.window(-9, 9)


def test_substitute_thue_morse():
    x = evp("0", "", "10", "0")
    image = substitute(TM, x)
    # direct expansion: blocks phi(x_i) laid out from the image of x_0
    expected = {}
    pos = 0
    for i in range(0, 6):
        for s in TM.images[x.at(i)]:
            expected[pos] = s
            pos += 1
    pos = 0
    for i in range(-1, -7, -1):
        for s in reversed(TM.images[x.at(i)]):
            pos -= 1
            expected[pos] = s
    for n in range(-8, 9):
        assert image.at(n) == expected[n]
    assert to_str(image.window(-4, 3)) == "01011001"


def test_substitute_concatenation_length():
    x = MechanicalLower(GOLDEN)
    phi = Substitution({0: (0, 1, 0), 1: (1, 1)}, BINARY, BINARY)
    image = substitute(phi, x)
    k = 9
    total = sum(phi.image_len(x.at(i)) for i in range(k))
    assert image.window(0, total - 1) == phi(x.window(0, k - 1))


def test_substitute_alphabet_mismatch():
    x = evp("0", "", "10", "0")
    three = sk.Alphabet(("a", "b", "c"))
    phi = Substitution({0: (0,), 1: (1,), 2: (2,)}, three, three)
    with pytest.raises(ValueError):
        substitute(phi, x)


def test_is_recurrent():
    assert is_recurrent(MechanicalLower(GOLDEN)) is True
    assert is_recurrent(evp("0", "", "10", "0")) is False
    assert is_recurrent(evp("01", "", "", "01")) is True
    assert is_recurrent(MechanicalLower(Fraction(5, 13))) is True
    assert is_recurrent(substitute(TM, MechanicalLower(GOLDEN))) is True
    assert is_recurrent(shift(reverse(evp("01", "1", "", "01")), 5)) is False


def test_render_window():
    assert render_window(MechanicalLower(Fraction(5, 13)), 0, 12) == ".0010010100101"
    assert render_window(evp("0", "", "10", "0"), -3, 3) == "000.1000"


@given(st.sampled_from([2, 4, 100, 300]).flatmap(
    lambda k: st.tuples(st.just(alphabet_of_size(k)), st.lists(st.integers(0, k - 1), max_size=300))),
    st.integers(-350, 50))
def test_glyph_strings_match_the_join(case, lo):
    alphabet, word = case
    word = tuple(word)
    glyphs = [alphabet.glyph(s) for s in word]
    assert alphabet.word_to_str(word) == "".join(glyphs)
    if lo <= 0 < lo + len(word):
        glyphs.insert(-lo, ".")
    assert render_word(word, alphabet, lo) == "".join(glyphs)


def test_difference_set_mechanical():
    c, cu = MechanicalLower(GOLDEN), MechanicalUpper(GOLDEN)
    assert difference_set(c, cu) == frozenset({-1, 0})
    assert difference_set(c, c) == frozenset()
    assert difference_set(shift(c, 5), shift(cu, 5)) == frozenset({-6, -5})
    with pytest.raises(sk.NotAsymptoticError):
        difference_set(c, MechanicalLower(SQRT2_HALF))
    with pytest.raises(sk.NotAsymptoticError):
        difference_set(c, shift(c, 3))
    # nonzero rational intercept kills the integer hit: lower equals upper
    assert difference_set(
        MechanicalLower(GOLDEN, Fraction(1, 3)), MechanicalUpper(GOLDEN, Fraction(1, 3))
    ) == frozenset()


def test_difference_set_of_an_image_against_a_mechanical_word():
    # tau_2(upper(sqrt2/2)) is lower((4 - sqrt2)/7), which differs from
    # upper((4 - sqrt2)/7) at {-1, 0}; the mechanical side is compared as an image
    tau2 = substitute(Substitution({0: (0, 1), 1: (0, 0, 1)}, BINARY, BINARY),
                      MechanicalUpper(SQRT2_HALF))
    mech = MechanicalUpper(sk.QuadraticIrrational(4, -1, 7, 2))
    assert isinstance(normal_form(tau2), NFSubst) and isinstance(normal_form(mech), NFMech)
    assert difference_set(tau2, mech) == difference_set(mech, tau2) == frozenset({-1, 0})


def test_images_with_different_letter_frequencies_are_not_asymptotic():
    def image(im0, im1, base=MechanicalLower(GOLDEN), size=2):
        return substitute(Substitution({0: im0, 1: im1}, BINARY, alphabet_of_size(size)), base)

    cases = [
        # 0 has frequency 1/(2 - alpha) and (2 - alpha)/(3 - 2 alpha)
        (image((0, 1), (0,)), image((0, 0, 1), (0,))),
        # 1 has frequency (1 - alpha)/(2 - alpha) and alpha/(2 - alpha)
        (image((0, 1), (2,), size=3), image((0, 2), (1,), size=3)),
        # the first base is written as upper(1 - alpha) under 0 -> 0, 1 -> 01
        (image((0, 1), (0,)), image((0, 1), (0,), MechanicalLower(GOLDEN_COMPL))),
    ]
    for x, y in cases:
        with pytest.raises(sk.NotAsymptoticError, match="letter frequencies"):
            difference_set(x, y)
    # every letter has frequency 1/2 in both: no certificate either way
    with pytest.raises(sk.UncertifiableError):
        difference_set(image((0, 0, 1, 1), (0, 1)), image((0, 1, 1, 0), (0, 1)))


def test_difference_set_evp():
    x = evp("0", "", "10", "0")
    y = evp("0", "", "010", "0")
    assert difference_set(x, y) == frozenset({0, 1})
    with pytest.raises(sk.NotAsymptoticError):
        difference_set(x, evp("01", "", "", "01"))
    with pytest.raises(sk.NotAsymptoticError):
        difference_set(x, MechanicalLower(GOLDEN))


def test_normal_form_collapses():
    # commuting images produce a periodic sequence regardless of the base
    phi = Substitution({0: (0, 1), 1: (0, 1, 0, 1)}, BINARY, BINARY)
    nf = normal_form(substitute(phi, MechanicalLower(GOLDEN)))
    assert isinstance(nf, NFEvp)
    # a one-letter relabel of a mechanical word stays mechanical
    swap = Substitution({0: (1,), 1: (0,)}, BINARY, BINARY)
    nf2 = normal_form(substitute(swap, MechanicalLower(GOLDEN)))
    assert isinstance(nf2, NFMech)
    comp = substitute(swap, MechanicalLower(GOLDEN))
    expected = MechanicalUpper(sk.QuadraticIrrational(3, -1, 2, 5))  # 1 - alpha
    assert comp.window(-20, 20) == expected.window(-20, 20)


def test_normal_form_reads_match_oracle():
    phi = Substitution({0: (0, 1, 0), 1: (1, 1)}, BINARY, BINARY)
    three = sk.Alphabet(("a", "b", "c"))
    inner = Substitution({0: (2,), 1: (0,)}, BINARY, three)
    outer = Substitution({0: (1,), 1: (0,), 2: (0,)}, three, BINARY)
    oracles = [
        shift(substitute(phi, shift(MechanicalLower(GOLDEN), 1)), -3),
        reverse(substitute(phi, MechanicalUpper(GOLDEN))),
        shift(reverse(evp("011", "0", "11", "010")), 4),
        substitute(phi, evp("01", "", "1", "10")),
        # relabel collapse over a reversed (offset-carrying) mechanical base
        substitute(outer, reverse(substitute(inner, MechanicalLower(GOLDEN)))),
        shift(substitute(outer, shift(substitute(inner, MechanicalLower(GOLDEN)), 2)), -1),
    ]
    for x in oracles:
        nf = normal_form(x)
        for n in range(-15, 16):
            assert nf.oracle.at(n) == x.at(n), (x, n)


SWAP = Substitution({0: (1,), 1: (0,)}, BINARY, BINARY)


def test_reversed_image_equals_its_direct_construction():
    # rev(lower) = shift(upper, -1), so rev(phi(lower)) is the reversed-image
    # substitution over that shifted upper word; the normal form of a reversed
    # image puts its base at offset 0 like every other image, so the two
    # constructions are recognised as one sequence
    phi = Substitution({0: (0, 1, 1), 1: (1, 0)}, BINARY, BINARY)
    x = reverse(substitute(phi, MechanicalLower(GOLDEN)))
    y = SubstImage(shift(MechanicalUpper(GOLDEN), -1), phi.reversed_images(), -2)
    assert x.window(-200, 200) == y.window(-200, 200)
    assert oracles_equal(x, y) and difference_set(y, x) == frozenset()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple),
       st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple),
       st.sampled_from([GOLDEN, SQRT2_HALF, GOLDEN_COMPL]),
       st.booleans(), st.booleans(),
       st.integers(-5, 5), st.integers(-5, 5), st.integers(-2, 2), st.integers(-2, 2))
def test_swap_rewrite_matches_windows(im0, im1, beta, x_upper, y_lower, k, s, dk, ds):
    """psi(upper(beta)) is (psi o swap)(lower(1 - beta)) and psi(lower(beta))
    is (psi o swap)(upper(1 - beta)): images over a word and over its
    complement are compared exactly, in either orientation, and the answer
    agrees with a wide window."""
    psi = Substitution({0: im0, 1: im1}, BINARY, alphabet_of_size(3))
    x_cls, y_cls = ((MechanicalUpper if x_upper else MechanicalLower),
                    (MechanicalLower if y_lower else MechanicalUpper))
    x = shift(substitute(psi, shift(x_cls(beta), k)), s)
    y = shift(substitute(psi.compose(SWAP), shift(y_cls(one_minus(beta)), k + dk)), s + ds)
    same = (dk, ds) == (0, 0) and x_upper == y_lower  # two constructions of one sequence
    try:
        diff = difference_set(x, y)
    except sk.NotAsymptoticError:
        assert not same
        assert sum(x.at(n) != y.at(n) for n in range(-250, 251)) >= 10
        return
    assert set(diff) == {n for n in range(-120, 121) if x.at(n) != y.at(n)}
    if same:
        assert diff == frozenset()


def test_images_of_complementary_words_in_mixed_orientation():
    # (psi o swap)(sigma upper(1 - golden)) is psi(sigma lower(golden)), so
    # against psi(sigma upper(golden)) it is the non-trivial Sturmian image pair
    psi = Substitution({0: (0, 1, 1), 1: (1, 0)}, BINARY, BINARY)
    x = substitute(psi, shift(MechanicalUpper(GOLDEN), 1))
    y = substitute(psi.compose(SWAP), shift(MechanicalUpper(GOLDEN_COMPL), 1))
    assert y.window(-200, 200) == substitute(psi, shift(MechanicalLower(GOLDEN), 1)).window(-200, 200)
    assert difference_set(x, y) == frozenset({-5, -4, -3, -1})
    assert difference_set(x, y) == {n for n in range(-200, 201) if x.at(n) != y.at(n)}


CONJUGATE_BASES = (shift(MechanicalLower(GOLDEN), 1), MechanicalUpper(SQRT2_HALF),
                   reverse(MechanicalLower(GOLDEN)), ToeplitzLimit(0))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=3).map(tuple),
       st.lists(st.integers(0, 2), max_size=3).map(tuple),
       st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
       st.sampled_from(CONJUGATE_BASES), st.integers(-4, 4))
def test_conjugate_images_share_one_normal_form(u0, u1, v, base, s):
    """(0 -> u0 v, 1 -> u1 v) and its conjugate (0 -> v u0, 1 -> v u1) spell
    one sequence |v| positions apart; both writings normalize to the one
    conjugate whose images do not all end with one letter."""
    three = alphabet_of_size(3)
    psi = Substitution({0: u0 + v, 1: u1 + v}, BINARY, three)
    conj = Substitution({0: v + u0, 1: v + u1}, BINARY, three)
    x = shift(substitute(psi, base), s)
    y = shift(substitute(conj, base), s + len(v))
    assert x.window(-30, 30) == y.window(-30, 30)
    assert oracles_equal(x, y)
    nx, ny = normal_form(x), normal_form(y)
    if isinstance(nx, NFSubst):
        assert (nx.phi.image_key(), nx.anchor) == (ny.phi.image_key(), ny.anchor)
        assert len({im[-1] for im in nx.phi.images.values()}) == 2
        assert nx.oracle.window(-30, 30) == x.window(-30, 30)


def test_reversed_image_over_an_opaque_base_takes_the_kept_conjugate():
    # the reversed images 001, 01 share the last letter, and so do 100, 10
    x = reverse(substitute(Substitution({0: (1, 0, 0), 1: (1, 0)}, BINARY, BINARY), ToeplitzLimit(0)))
    nf = normal_form(x)
    assert isinstance(nf, NFSubst) and nf.phi.images == {0: (0, 1, 0), 1: (0, 1)}
    assert nf.oracle.window(-40, 40) == x.window(-40, 40)


def test_oracles_equal_through_constructions():
    c = MechanicalLower(GOLDEN)
    assert oracles_equal(shift(shift(c, 3), -3), c)
    assert oracles_equal(reverse(reverse(evp("01", "", "1", "10"))), evp("01", "", "1", "10"))
    assert not oracles_equal(c, MechanicalUpper(GOLDEN))


@st.composite
def evp_pairs(draw):
    sym = st.integers(0, 1)
    word = st.lists(sym, min_size=1, max_size=3)
    u = draw(word)
    w = draw(word)
    y1 = draw(st.lists(sym, max_size=3))
    z1 = draw(st.lists(sym, max_size=3))
    y2 = draw(st.lists(sym, max_size=3))
    z2 = draw(st.lists(sym, max_size=3))
    a = EventuallyPeriodic(tuple(u), tuple(y1), tuple(z1), tuple(w), BINARY)
    b = EventuallyPeriodic(tuple(u), tuple(y2), tuple(z2), tuple(w), BINARY)
    return a, b


@settings(max_examples=150, deadline=None)
@given(evp_pairs())
def test_evp_difference_matches_brute_force(pair):
    """Exact difference sets agree with wide-window comparison for sequences
    sharing both periodic tails."""
    a, b = pair
    try:
        diff = difference_set(a, b)
    except sk.NotAsymptoticError:
        # tails misaligned: verify many differences in a wide window
        count = sum(a.at(n) != b.at(n) for n in range(-64, 65))
        assert count > 8
        return
    brute = {n for n in range(-64, 65) if a.at(n) != b.at(n)}
    assert set(diff) == brute


def test_difference_set_fuzz_composed_pairs():
    """Seeded fuzz: random shift/reverse/substitute chains over asymptotic
    leaf pairs; every decided difference set must match brute force and every
    infinite-difference claim must be visibly justified."""
    import random

    rng = random.Random(98765)

    def rand_word(n):
        return tuple(rng.randrange(2) for _ in range(n))

    def rand_subst():
        return Substitution(
            {0: rand_word(rng.randint(1, 3)), 1: rand_word(rng.randint(1, 3))},
            BINARY, BINARY,
        )

    def leaf_pair():
        r = rng.random()
        if r < 0.5:
            alpha = rng.choice([GOLDEN, SQRT2_HALF])
            return MechanicalLower(alpha), MechanicalUpper(alpha)
        u, w = rand_word(rng.randint(1, 3)), rand_word(rng.randint(1, 3))
        y = rand_word(rng.randint(0, 3))
        return (
            EventuallyPeriodic(u, y, rand_word(rng.randint(0, 3)), w, BINARY),
            EventuallyPeriodic(u, y, rand_word(rng.randint(0, 3)), w, BINARY),
        )

    decided = 0
    for _ in range(120):
        x, y = leaf_pair()
        for _ in range(rng.randint(0, 3)):
            r = rng.random()
            if r < 0.35:
                k = rng.randint(-6, 6)
                x, y = shift(x, k), shift(y, k)
            elif r < 0.6:
                x, y = reverse(x), reverse(y)
            else:
                phi = rand_subst()
                x, y = substitute(phi, x), substitute(phi, y)
        try:
            diff = difference_set(x, y)
        except sk.NotAsymptoticError:
            assert sum(x.at(n) != y.at(n) for n in range(-250, 251)) >= 10
            continue
        decided += 1
        assert set(diff) == {n for n in range(-120, 121) if x.at(n) != y.at(n)}
    assert decided > 60  # the fuzz must actually exercise the decided path


# ---------------------------------------------------------------------------
# window reads against the per-symbol evaluators they replaced: differences
# of exact floors for mechanical words, and a running prefix-sum walk over the
# blocks of a substitution image


def reference_mechanical(x, lo, hi):
    """Differences of exact floors (lower) or ceilings (upper), position by position."""
    rounding = floor_mul_add if x.kind == "lower" else ceil_mul_add
    heights = [rounding(x.alpha, n, x.rho) for n in range(lo, hi + 2)]
    return [b - a for a, b in zip(heights, heights[1:])]


def reference_evp(x, n):
    if n >= 0:
        return x.z[n] if n < len(x.z) else x.w[(n - len(x.z)) % len(x.w)]
    j = -n  # distance to the left of the point, j >= 1
    if j <= len(x.y):
        return x.y[len(x.y) - j]
    return x.u[len(x.u) - 1 - (j - len(x.y) - 1) % len(x.u)]


def reference_image(x, lo, hi):
    """Blocks laid out one by one from the anchor: rightward for positions
    >= anchor, leftward below it."""
    out = {}
    if hi >= x.anchor:
        base = reference_window(x.base, 0, hi - x.anchor)  # every block has >= 1 symbol
        pos = x.anchor
        for s in base:
            for g in x.phi.images[s]:
                if lo <= pos <= hi:
                    out[pos] = g
                pos += 1
            if pos > hi:
                break
    if lo < x.anchor:
        base = reference_window(x.base, -(x.anchor - lo), -1)
        pos = x.anchor
        for s in reversed(base):
            for g in reversed(x.phi.images[s]):
                pos -= 1
                if lo <= pos <= hi:
                    out[pos] = g
            if pos <= lo:
                break
    return [out[n] for n in range(lo, hi + 1)]


def reference_derived(x, lo, hi):
    """Marker occurrences found by scanning the base outward from 0."""
    radius = 64
    while True:
        text = reference_window(x.base, -radius, radius)
        occ = [i - radius for i, s in enumerate(text) if s == x.marker]
        right = [i for i in occ if i >= 0]
        left = [i for i in occ if i < 0][::-1]
        if len(right) > hi + 1 and len(left) >= -lo:
            break
        radius *= 2
    position = {k: i for k, i in enumerate(right)}
    position.update({-k - 1: i for k, i in enumerate(left)})
    return [x.catalog[tuple(text[position[k] + radius:position[k + 1] + radius])]
            for k in range(lo, hi + 1)]


def reference_toeplitz(x, n):
    """(v + 1) mod 2 for the largest power 2^v dividing n; the free symbol at 0."""
    if n == 0:
        return x.origin_symbol
    v = 0
    while n % 2 == 0:
        n, v = n // 2, v + 1
    return (v + 1) % 2


def reference_window(x, lo, hi):
    if isinstance(x, Mechanical):
        return reference_mechanical(x, lo, hi)
    if isinstance(x, EventuallyPeriodic):
        return [reference_evp(x, n) for n in range(lo, hi + 1)]
    if isinstance(x, Shift):
        return reference_window(x.base, lo + x.k, hi + x.k)
    if isinstance(x, Reversal):
        return reference_window(x.base, -hi, -lo)[::-1]
    if isinstance(x, SubstImage):
        return reference_image(x, lo, hi)
    if isinstance(x, DerivedView):
        return reference_derived(x, lo, hi)
    if isinstance(x, ToeplitzLimit):
        return [reference_toeplitz(x, n) for n in range(lo, hi + 1)]
    raise TypeError(x)


def reference_block_starts(x, radius=300):
    """Block starts of an image for base indices -radius..radius, walked
    outward from the anchor one image length at a time."""
    symbols = reference_window(x.base, -radius, radius - 1)
    walk = {0: x.anchor}
    for i in range(radius):
        walk[i + 1] = walk[i] + x.phi.image_len(symbols[radius + i])
        walk[-i - 1] = walk[-i] - x.phi.image_len(symbols[radius - 1 - i])
    return walk


def small_fraction(draw, lo, hi):
    return Fraction(draw(st.integers(lo, hi)), draw(st.integers(1, 12)))


@st.composite
def mechanical_words(draw):
    if draw(st.booleans()):
        alpha = draw(st.sampled_from([GOLDEN, SQRT2_HALF, GOLDEN_COMPL,
                                      sk.QuadraticIrrational(-2, 1, 1, 7)]))
    else:
        q = draw(st.integers(1, 40))
        alpha = Fraction(draw(st.integers(0, q)), q)
    rho = small_fraction(draw, -20, 20) if draw(st.booleans()) else Fraction(0)
    cls = draw(st.sampled_from([MechanicalLower, MechanicalUpper]))
    return cls(alpha, rho)


def evps():
    word = st.lists(st.integers(0, 1), max_size=4).map(tuple)
    nonempty = st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple)
    return st.builds(EventuallyPeriodic, nonempty, word, word, nonempty, st.just(BINARY))


@st.composite
def wrapped(draw, base):
    x = draw(base)
    for _ in range(draw(st.integers(0, 3))):
        x = shift(x, draw(st.integers(-50, 50))) if draw(st.booleans()) else reverse(x)
    return x


@st.composite
def images(draw, base):
    """Substitution image of a binary base onto 2-3 letters, any anchor."""
    size = draw(st.integers(2, 3))
    image = st.lists(st.integers(0, size - 1), min_size=1, max_size=4).map(tuple)
    phi = Substitution({0: draw(image), 1: draw(image)}, BINARY, alphabet_of_size(size))
    return SubstImage(draw(base), phi, draw(st.integers(-20, 20)))


def binary_images(base):
    """Binary image of a binary base, to nest under another image."""
    image = st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple)
    return st.builds(lambda x, a, b, anchor: SubstImage(x, Substitution({0: a, 1: b}, BINARY, BINARY), anchor),
                     base, image, image, st.integers(-5, 5))


ORACLES = st.one_of(
    wrapped(mechanical_words()),
    wrapped(evps()),
    images(mechanical_words()),
    images(wrapped(mechanical_words())),
    images(evps()),
    images(binary_images(mechanical_words())),
    images(binary_images(evps())),
    wrapped(images(mechanical_words())),
)


@settings(max_examples=120, deadline=None)
@given(ORACLES, st.integers(-150, 150), st.integers(0, 40))
def test_window_matches_reference(x, lo, length):
    hi = lo + length
    word = x.window(lo, hi)
    assert list(word) == reference_window(x, lo, hi)
    assert x.at(lo) == word[0] and x.at(hi) == x.window(hi, hi)[0] == word[-1]


@settings(max_examples=40, deadline=None)
@given(wrapped(mechanical_words()), st.sampled_from([1, -1]), st.integers(-10 ** 6, 10 ** 6),
       st.integers(0, 80))
def test_far_mechanical_window_matches_reference(x, sign, offset, length):
    lo = sign * 10 ** 50 + offset
    word = x.window(lo, lo + length)
    assert list(word) == reference_window(x, lo, lo + length)
    assert x.at(lo + length) == word[-1]


def test_far_image_window_matches_reference():
    three = alphabet_of_size(3)
    cases = [
        (SubstImage(MechanicalLower(GOLDEN, Fraction(2, 7)),
                    Substitution({0: (0, 2), 1: (1, 1, 0)}, BINARY, three), 5), 10 ** 5),
        (SubstImage(reverse(shift(MechanicalUpper(SQRT2_HALF), 9)),
                    Substitution({0: (1,), 1: (0, 1, 1, 0)}, BINARY, BINARY), -3), -10 ** 5),
        (SubstImage(shift(MechanicalUpper(Fraction(7, 19)), -4),
                    Substitution({0: (2, 1, 0, 0), 1: (1,)}, BINARY, three), 0), -2 * 10 ** 4 + 17),
        (substitute(FIB, substitute(FIB, MechanicalLower(GOLDEN))), 10 ** 5),
    ]
    for x, lo in cases:
        word = x.window(lo, lo + 40)
        assert list(word) == reference_window(x, lo, lo + 40)
        assert x.at(lo + 40) == word[-1]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([MechanicalLower(GOLDEN), MechanicalUpper(SQRT2_HALF),
                        substitute(TM, MechanicalLower(GOLDEN)),
                        substitute(Substitution({0: (0, 1, 0), 1: (1, 1)}, BINARY, BINARY),
                                   shift(MechanicalUpper(GOLDEN), 3))]),
       st.integers(0, 1), st.integers(-60, 60), st.integers(0, 30))
def test_derived_view_window_matches_reference(base, marker, lo, length):
    view = derived_sequence(base, marker, (-200, 200)).oracle
    word = view.window(lo, lo + length)
    assert list(word) == reference_window(view, lo, lo + length)
    assert view.at(lo) == word[0]


# ---------------------------------------------------------------------------
# Sturmian morphisms folded into the mechanical base, and derived views read
# through their normal forms


def gauss_inverse(k, beta):
    """1/(k + beta) for a quadratic irrational beta = (a + b*sqrt(d))/c."""
    s = k * beta.c + beta.a
    return sk.QuadraticIrrational(beta.c * s, -beta.c * beta.b, s * s - beta.b ** 2 * beta.d, beta.d)


def tau(k, mirrored):
    """tau_k: 0 -> 0^(k-1)1, 1 -> 0^k1, or its mirror 0 -> 10^(k-1), 1 -> 10^k."""
    images = {0: (0,) * (k - 1) + (1,), 1: (0,) * k + (1,)}
    return Substitution({s: im[::-1] if mirrored else im for s, im in images.items()}, BINARY, BINARY)


SWAP_BINARY = Substitution({0: (1,), 1: (0,)}, BINARY, BINARY)
FAR = 10 ** 6


@st.composite
def sturmian_slopes(draw):
    """1/(k + beta) or its complement, with a first partial quotient k up to 10^9."""
    beta = draw(st.sampled_from([GOLDEN, SQRT2_HALF, GOLDEN_COMPL, sk.QuadraticIrrational(-2, 1, 1, 7)]))
    alpha = gauss_inverse(draw(st.one_of(st.integers(1, 5), st.integers(10 ** 8, 10 ** 9))), beta)
    return one_minus(alpha) if draw(st.booleans()) else alpha


def characteristic_words():
    return st.builds(lambda cls, alpha, k: shift(cls(alpha), k),
                     st.sampled_from([MechanicalLower, MechanicalUpper]), sturmian_slopes(), st.integers(-5, 5))


@st.composite
def folded_images(draw):
    """sigma^m (psi o f_1 o ... o f_j)(sigma^k s) for Sturmian factors f_i
    (tau_k, its mirror or the swap), psi the identity or non-commuting onto
    2-3 letters; with the fold of its normal form."""
    if draw(st.booleans()):
        psi = identity_substitution(BINARY)
    else:
        size = draw(st.integers(2, 3))
        image = st.lists(st.integers(0, size - 1), min_size=1, max_size=3).map(tuple)
        psi = Substitution({0: draw(image), 1: draw(image)}, BINARY, alphabet_of_size(size))
        assume(psi.images[0] + psi.images[1] != psi.images[1] + psi.images[0])
    phi = psi
    for _ in range(draw(st.integers(1, 3))):
        factor = draw(st.sampled_from(["tau", "mirror", "swap"]))
        phi = phi.compose(SWAP_BINARY if factor == "swap" else tau(draw(st.integers(1, 4)), factor == "mirror"))
    x = shift(substitute(phi, draw(characteristic_words())), draw(st.integers(-20, 20)))
    nf = sequences._fold(sequences._as_image(normal_form(x), x.alphabet))
    if psi.image_key() == identity_substitution(BINARY).image_key():
        # every factor is peeled: the image is a shifted characteristic word
        assert all(len(im) == 1 for im in nf.phi.images.values()) and nf.base.rho == 0
    return x, nf.oracle, x


@st.composite
def derived_views(draw):
    """A derived view, possibly of a view, of a shifted characteristic word,
    of its image or of an eventually periodic word; with its normal form's
    reader and an oracle that reads the view's base far out."""
    x = draw(st.one_of(characteristic_words(), images(characteristic_words()), evps()))
    for _ in range(draw(st.integers(1, 2))):
        try:
            x = derived_sequence(x, draw(st.integers(0, x.alphabet.size - 1)), (-200, 200)).oracle
            nf = normal_form(x)
        except GapError:  # the marker is too rare for the window
            assume(False)
    base = x.base
    far_base = normal_form(base).oracle if isinstance(base, DerivedView) else base
    return x, nf.oracle, far_base


@settings(max_examples=60, deadline=None)
@given(st.one_of(folded_images(), derived_views()), st.integers(-30, 30))
def test_folded_and_derived_normal_forms_read_like_their_oracles(case, lo):
    """Near 0 a normal form reads as its oracle does.  At +-10^6 a folded
    image is read directly; a view, whose marker scan stops at 10^6 base
    positions, is checked through sigma^-i0 recoding(view) = base, which
    holds for one derived word only, since each return word holds the
    marker at its start and nowhere else.  Over periodic tails that
    identity is decided exactly on all of Z."""
    x, reader, far_base = case
    assert reader.window(lo, lo + 40) == x.window(lo, lo + 40)
    if isinstance(x, DerivedView):
        rebuilt = shift(substitute(x.recoding(), reader), -x.i0)
        if isinstance(normal_form(x), NFEvp):
            assert oracles_equal(rebuilt, far_base)
            return
        reader, x = normal_form(rebuilt).oracle, far_base
    for far in (FAR, -FAR - 40):
        assert reader.window(far, far + 40) == x.window(far, far + 40)


def test_nested_normal_form_reads_like_the_composed_image_far_out():
    # both are anchored at 0, so they are the same sequence
    x = substitute(FIB, substitute(FIB, MechanicalLower(GOLDEN)))
    composed = substitute(FIB.compose(FIB), MechanicalLower(GOLDEN))
    for lo in (10 ** 30, -10 ** 30):
        assert normal_form(x).oracle.window(lo, lo + 40) == composed.window(lo, lo + 40)


# ---------------------------------------------------------------------------
# lazily grown two-sided indexes: block starts of images over bases without a
# closed form, and marker occurrences of derived views


LAZY_IMAGE_BASES = st.one_of(evps(), binary_images(evps()), wrapped(binary_images(evps())),
                             st.builds(ToeplitzLimit, st.integers(0, 1)))
DERIVED_BASES = [MechanicalLower(GOLDEN), MechanicalUpper(SQRT2_HALF),
                 substitute(TM, MechanicalLower(GOLDEN)), ToeplitzLimit(0),
                 evp("01", "1", "0", "001")]


@st.composite
def lazy_oracles(draw):
    """An image that grows its block starts lazily, or a derived view, which
    grows its marker occurrences lazily."""
    if draw(st.booleans()):
        return derived_sequence(draw(st.sampled_from(DERIVED_BASES)), draw(st.integers(0, 1)),
                                (-200, 200)).oracle
    return draw(images(LAZY_IMAGE_BASES))


@settings(max_examples=60, deadline=None)
@given(lazy_oracles(),
       st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(0, 700), st.integers(0, 30)),
                min_size=2, max_size=6))
def test_lazy_index_reads_in_any_order(x, reads):
    # far left, far right or straddling the anchor, in the drawn order
    anchor = getattr(x, "anchor", 0)
    for side, far, length in reads:
        lo = side * (300 + far) if side else anchor - length // 2 - 1
        assert list(x.window(lo, lo + length)) == reference_window(x, lo, lo + length)


@settings(max_examples=40, deadline=None)
@given(images(LAZY_IMAGE_BASES), st.lists(st.integers(-300, 300), min_size=1, max_size=12))
def test_lazy_block_starts_match_walk(x, indices):
    walk = reference_block_starts(x)
    assert [x.block_start(i) for i in indices] == [walk[i] for i in indices]


def test_far_shifted_periodic_base_reads_locally():
    # a read near 0 builds no normal form, whose periodic parts begin near
    # block -10^6, neither for a single image nor for a nested one
    inner = substitute(FIB, shift(evp("01", "", "1", "001"), 10 ** 6))
    for x in (inner, substitute(FIB, inner)):
        assert list(x.window(0, 40)) == reference_window(x, 0, 40)
        assert x._normal_form is None and inner._normal_form is None


def test_derived_view_scan_cap_on_each_side():
    # marker 1 occurs only at -1: there is no i_0 and no i_-2
    view = DerivedView(evp("0", "1", "", "0"), 1, {(1,): 0}, alphabet_of_size(1))
    with pytest.raises(GapError):
        view.occurrences(0, 0)
    assert view.occurrences(-1, -1) == [-1]
    with pytest.raises(GapError):
        view.occurrences(-2, -1)
    start, end = view._scanned
    assert start < -_SCAN_CAP and end > _SCAN_CAP
    # the base has no marker in its right tail, so no normal form reads past the cap
    with pytest.raises(GapError, match="periodic tail"):
        view.window(0, 0)


def test_derived_view_reads_past_the_scan_cap_through_its_normal_form():
    # i_700000 lies near 1.13 * 10^6: the scan runs into the cap first
    view = derived_sequence(MechanicalLower(GOLDEN), 1, (-50, 50)).oracle
    far = view.window(7 * 10 ** 5, 7 * 10 ** 5 + 40)
    assert far == normal_form(view).oracle.window(7 * 10 ** 5, 7 * 10 ** 5 + 40)
    assert view._scanned[1] > _SCAN_CAP
    # computing this view's normal form reads its window past the cap: the read
    # raises instead of asking for the normal form again, and the failure stays
    gap = "0" * (_SCAN_CAP + 1000)  # i_1 lies past the last chunk the scan reads
    view = DerivedView(evp("1", "", "1" + gap, "1"), 1, {(1,): 0, to_word("1" + gap): 1}, BINARY)
    for _ in range(2):
        with pytest.raises(GapError, match="scanned base range"):
            normal_form(view)


def test_derived_view_skips_a_scan_that_cannot_reach_its_index():
    # i_k >= k for k >= 0 and i_k <= k for k < 0: these reads need occurrences
    # past the scan cap, so they go to the normal form without scanning
    for lo in (10 ** 6, -3 * 10 ** 6):
        view = derived_sequence(MechanicalLower(GOLDEN), 1, (-64, 64)).oracle
        assert view.window(lo, lo + 40) == normal_form(view).oracle.window(lo, lo + 40)
        assert len(view._occ) < 2000
    # a view of an opaque base still scans and fails
    view = DerivedView(ToeplitzLimit(0), 0, {}, BINARY)
    with pytest.raises(GapError, match="scanned base range"):
        view.window(10 ** 6, 10 ** 6)


def test_block_start_closed_form_matches_walk():
    phi = Substitution({0: (0, 1, 0), 1: (1,)}, BINARY, BINARY)
    for base in (MechanicalLower(GOLDEN, Fraction(1, 3)), shift(MechanicalUpper(GOLDEN_COMPL), -7),
                 shift(MechanicalLower(Fraction(5, 13)), 4)):
        image = SubstImage(base, phi, 3)
        assert all(image.block_start(i) == s for i, s in reference_block_starts(image).items())
        # far out, consecutive starts still differ by the image length of the base symbol
        for i in (10 ** 50, -10 ** 50 + 3):
            blocks = [image.block_start(i + t) for t in range(6)]
            base_word = base.window(i, i + 4)
            assert [b - a for a, b in zip(blocks, blocks[1:])] == [phi.image_len(s) for s in base_word]
            assert image.window(blocks[0], blocks[-1] - 1) == phi(base_word)
            assert image.at(blocks[2]) == phi.images[base_word[2]][0]


# ---------------------------------------------------------------------------
# normal forms of nested images: composed in closed form, kept on the oracle


NESTED_BASES = [MechanicalLower(GOLDEN), MechanicalUpper(SQRT2_HALF),
                shift(MechanicalLower(GOLDEN_COMPL), 3), MechanicalLower(Fraction(5, 13)),
                evp("01", "1", "0", "110"),
                derived_sequence(MechanicalUpper(GOLDEN), 1, (-50, 50)).oracle]


@st.composite
def nested_images(draw):
    """phi(sigma^K psi(base)) for K in [-2000, 2000] under a few shifts and
    reversals, with the position where the block of psi(base)_0 lands."""
    base = draw(st.sampled_from(NESTED_BASES))
    inner = st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple)
    psi = Substitution({0: draw(inner), 1: draw(inner)}, base.alphabet, BINARY)
    size = draw(st.integers(2, 3))
    outer = st.lists(st.integers(0, size - 1), min_size=1, max_size=3).map(tuple)
    phi = Substitution({0: draw(outer), 1: draw(outer)}, BINARY, alphabet_of_size(size))
    k = draw(st.integers(-2000, 2000))
    inner_image = SubstImage(base, psi, draw(st.integers(-5, 5)))
    x = SubstImage(shift(inner_image, k), phi, draw(st.integers(-5, 5)))
    far = x.block_start(inner_image.anchor - k)
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            t = draw(st.integers(-50, 50))
            x, far = shift(x, t), far - t
        else:
            x, far = reverse(x), -far
    return x, far


@settings(max_examples=80, deadline=None)
@given(nested_images(), st.booleans(), st.integers(-30, 30), st.integers(0, 30))
def test_nested_normal_form_reads_like_the_oracle(case, at_far, lo, length):
    # x reads through lazy prefix sums, its normal form through one image of
    # the base, and the reference walks blocks
    x, far = case
    lo += far if at_far else 0
    word = reference_window(x, lo, lo + length)
    assert list(normal_form(x).oracle.window(lo, lo + length)) == word == list(x.window(lo, lo + length))


def test_normal_form_is_computed_once():
    x = shift(substitute(TM, shift(substitute(TM, MechanicalLower(GOLDEN)), 7)), -2)
    assert normal_form(x) is normal_form(x)
    assert normal_form(x).base.oracle is normal_form(x).base.oracle


def far_nested_pair(k):
    phi = Substitution({0: (0, 1, 1), 1: (1, 0)}, BINARY, BINARY)
    return [substitute(phi, shift(substitute(FIB, shift(cls(GOLDEN), 1)), k))
            for cls in (MechanicalLower, MechanicalUpper)]


def test_far_shifted_nested_images_difference_set():
    # the difference block sits near -2.7 k; its place comes from O(1) exact
    # floors, so k = 10^30 costs what k = 10^4 does, and the members differ
    # in the same shape: phi o fib of 10 against 01
    def shape(diff):
        return sorted(n - min(diff) for n in diff)

    near = difference_set(*far_nested_pair(10 ** 4))
    assert shape(near) == [0, 1, 2, 4]
    for k in (10 ** 30, -10 ** 30):
        assert shape(difference_set(*far_nested_pair(k))) == shape(near)


def test_far_shifted_nested_images_match_windows():
    x, y = far_nested_pair(10 ** 6)
    diff = difference_set(x, y)
    lo, hi = min(diff) - 50, max(diff) + 50
    assert diff == {n for n, a, b in zip(range(lo, hi + 1), x.window(lo, hi), y.window(lo, hi))
                    if a != b}


# ---------------------------------------------------------------------------
# shift relations against the search loops they replaced


def reference_shift_relation(x, y, radius=40):
    """The search loop: try s = 1, 2, ... in both directions, two exact
    comparisons each."""
    for s in range(1, radius + 1):
        if oracles_equal(x, shift(y, s)):
            return s
        if oracles_equal(y, shift(x, s)):
            return -s
    return None


def reference_purely_periodic(nf):
    """The window check that decided full periodicity of an eventually
    periodic normal form: one window compared with itself shifted by pu."""
    hi = nf.rb + nf.pw + math.lcm(nf.pu, nf.pw)
    text = nf.oracle.window(nf.lb - nf.pu, hi + nf.pu)
    return text[nf.pu:] == text[:-nf.pu]


@st.composite
def noncommuting(draw, size):
    image = st.lists(st.integers(0, size - 1), min_size=1, max_size=4).map(tuple)
    im0, im1 = draw(image), draw(image)
    assume(im0 + im1 != im1 + im0)
    return Substitution({0: im0, 1: im1}, BINARY, alphabet_of_size(size))


@st.composite
def non_recurrent_constructions(draw):
    """sigma^m phi(^inf0.10^inf, ^inf0.010^inf) for a non-commuting phi."""
    phi = draw(st.integers(2, 3).flatmap(noncommuting))
    m = draw(st.integers(-6, 6))
    return tuple(shift(substitute(phi, evp("0", "", z, "0")), m) for z in ("10", "010"))


LIMIT_FORMS = [(p, q, side) for p in range(9) for q in range(9) for side in ("above", "below")
               if math.gcd(p, q) == 1 and (p, q, side) not in ((1, 0, "above"), (0, 1, "below"))]


def limit_pairs():
    return st.sampled_from(LIMIT_FORMS).map(lambda form: limit_pair(*form).pair).map(
        lambda pair: (pair.x, pair.y))


@st.composite
def recurrent_constructions(draw):
    phi = draw(st.integers(2, 3).flatmap(noncommuting))
    alpha = draw(st.sampled_from([GOLDEN, SQRT2_HALF, GOLDEN_COMPL]))
    m = draw(st.integers(-6, 6))
    return tuple(shift(substitute(phi, shift(cls(alpha), 1)), m)
                 for cls in (MechanicalLower, MechanicalUpper))


@settings(max_examples=150, deadline=None)
@given(st.one_of(non_recurrent_constructions(), limit_pairs(), evp_pairs(),
                 recurrent_constructions()),
       st.booleans())
def test_shift_relation_matches_search(pair, swap):
    x, y = pair[::-1] if swap else pair
    s = shift_relation(x, y)
    if is_recurrent(x) or is_recurrent(y):
        # purely periodic members are shifts by every period; no single s
        assert s is None
        return
    assert s == reference_shift_relation(x, y)
    if s is not None:
        assert s != 0 and oracles_equal(x, shift(y, s))
        assert shift_relation(y, x) == -s


def test_shift_relation_far_out():
    # p + q = 71 shifts, beyond the 64 that the christoffel search tried
    for side, sign in (("above", 1), ("below", -1)):
        pair = limit_pair(40, 31, side).pair
        assert shift_relation(pair.x, pair.y) == 71 * sign
    far = evp("01", "", "1" * 300 + "0", "10")
    assert shift_relation(shift(far, -1000), far) == -1000
    # shared tails, but not shifts of one another
    assert shift_relation(evp("0", "01", "0", "1"), evp("0", "0", "1", "1")) is None


@settings(max_examples=150, deadline=None)
@given(st.one_of(wrapped(evps()), images(evps()), images(binary_images(evps())),
                 wrapped(images(evps())), wrapped(mechanical_words())))
def test_departure_decides_periodicity(x):
    nf = normal_form(x)
    assume(isinstance(nf, NFEvp))
    d = nf.departure
    assert (d is None) == reference_purely_periodic(nf)
    p = nf.pu
    if d is None:
        text = x.window(-200 - p, 200)
        assert text[p:] == text[:-p]
    else:
        text = x.window(d - 60 - p, d)
        assert text[p:-1] == text[:-p - 1] and text[-1] != text[-1 - p]
