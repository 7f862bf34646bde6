"""Biinfinite sequences as finite oracle descriptions with exact queries.

The oracle algebra is closed under the constructions used throughout the
library: mechanical words (rational or quadratic-irrational slope),
eventually periodic sequences ``^inf(u) y . z (w)^inf``, shifts, reversals,
substitution images and derived views.  Every oracle answers
``window(lo, hi)`` and ``at(n)`` for any integers without approximation.
The window is the primitive read: each oracle builds its window from one
window of what it is built on, so a read costs

* O(log(hi - lo)) exact floors plus O(hi - lo) byte operations for a
  mechanical word,
* slicing and tiling for an eventually periodic sequence,
* one window of the base for a shift or a reversal,
* for a substitution image, O(1) exact floors to find its first and last
  block over a (possibly shifted) mechanical base, or one bisection in
  prefix sums that grow lazily at whichever end a read needs over any other
  base, plus one window of the base over those blocks.

Symbol reads use no cache.

A private normalization pass reduces any oracle in the algebra to one of
three normal forms (eventually periodic / irrational mechanical /
substitution image of one of those).  Each oracle computes its normal form
once and keeps it, and each normal form holds an oracle that reads it.
Equality, recurrence, shift relations and difference sets of pairs are
decided exactly on normal forms; ``patterns`` builds its certification on
top of this.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from typing import Optional, Union

from .slopes import (
    QuadraticIrrational,
    Slope,
    _gauss,
    _sign_a_plus_b_sqrt,
    ceil_mul_add,
    check_slope,
    floor_mul_add,
    floor_ratio,
    floor_steps,
    format_slope,
    is_rational,
)
from .words import Word, primitive_root

@dataclass(frozen=True)
class Alphabet:
    """Registry mapping symbol ids 0..n-1 to display glyphs."""

    glyphs: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.glyphs)) != len(self.glyphs):
            raise ValueError("duplicate glyphs")
        object.__setattr__(self, "_table", dict(enumerate(self.glyphs)))  # for str.translate

    @property
    def size(self) -> int:
        return len(self.glyphs)

    def glyph(self, symbol: int) -> str:
        return self.glyphs[symbol]

    def index(self, glyph: str) -> int:
        return self.glyphs.index(glyph)

    def word_from_str(self, text: str) -> Word:
        return tuple(self.index(ch) for ch in text)

    def word_to_str(self, word: Word) -> str:
        if self.size > 256:  # symbols past one byte
            return "".join(map(self.glyphs.__getitem__, word))
        return bytes(word).decode("latin-1").translate(self._table)


BINARY = Alphabet(("0", "1"))


def alphabet_of_size(n: int) -> Alphabet:
    """Default glyphs: digits, then letters."""
    pool = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if n <= len(pool):
        return Alphabet(tuple(pool[:n]))
    return Alphabet(tuple(f"s{i}" for i in range(n)))


class Substitution:
    """Map from symbols of one alphabet to nonempty words over another."""

    def __init__(self, images: dict[int, Word], domain: Alphabet, codomain: Alphabet):
        if set(images) != set(range(domain.size)):
            raise ValueError("images must cover the whole domain alphabet")
        for s, im in images.items():
            if len(im) == 0:
                raise ValueError(f"empty image for symbol {s}")
            if any(not (0 <= g < codomain.size) for g in im):
                raise ValueError(f"image of {s} leaves the codomain alphabet")
        self.images = {s: tuple(im) for s, im in images.items()}
        self.domain = domain
        self.codomain = codomain

    @classmethod
    def from_strings(cls, images: dict[str, str], domain: Alphabet, codomain: Alphabet) -> "Substitution":
        return cls(
            {domain.index(k): codomain.word_from_str(v) for k, v in images.items()},
            domain,
            codomain,
        )

    def __call__(self, word: Word) -> Word:
        return tuple(chain.from_iterable(map(self.images.__getitem__, word)))

    def image_len(self, symbol: int) -> int:
        return len(self.images[symbol])

    def compose(self, inner: "Substitution") -> "Substitution":
        """self after inner (apply inner first)."""
        if inner.codomain != self.domain:
            raise ValueError("alphabet mismatch in composition")
        return Substitution(
            {s: self(im) for s, im in inner.images.items()},
            inner.domain,
            self.codomain,
        )

    def reversed_images(self) -> "Substitution":
        return Substitution(
            {s: im[::-1] for s, im in self.images.items()}, self.domain, self.codomain
        )

    def image_key(self) -> tuple:
        return tuple(sorted(self.images.items()))

    def __repr__(self) -> str:
        body = ",".join(
            f"{self.domain.glyph(s)}:{self.codomain.word_to_str(im)}"
            for s, im in sorted(self.images.items())
        )
        return f"Substitution({body})"


def identity_substitution(alphabet: Alphabet) -> Substitution:
    return Substitution({s: (s,) for s in range(alphabet.size)}, alphabet, alphabet)


# ---------------------------------------------------------------------------
# oracles


class SequenceOracle:
    """Base class of the oracle algebra.  Instances are immutable.

    ``window(lo, hi)`` is the primitive read and ``at(n)`` is
    ``window(n, n)[0]``; subclasses do not override either.  An oracle of the
    algebra implements ``_window(lo, hi)`` (called with lo <= hi) and reads
    whatever it is built on through one ``window`` of that oracle.  An oracle
    outside the algebra whose symbols are computed one by one may implement
    ``_at(n)`` instead.
    """

    alphabet: Alphabet

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    def _at(self, n: int) -> int:
        raise NotImplementedError

    def _window(self, lo: int, hi: int) -> Word:
        return tuple(self._at(n) for n in range(lo, hi + 1))

    def at(self, n: int) -> int:
        return self._window(n, n)[0]

    def window(self, lo: int, hi: int) -> Word:
        """The word x_lo ... x_hi (inclusive)."""
        if lo > hi:
            raise ValueError("window requires lo <= hi")
        return self._window(lo, hi)

    # recurrence metadata for oracles outside the closed algebra
    known_recurrent: Optional[bool] = None
    _normal_form: Optional["NormalForm"] = None  # set once by normal_form


class Mechanical(SequenceOracle):
    """Mechanical word of slope alpha in [0, 1] and intercept rho, binary alphabet.

    A window of length L costs O(log L) exact floors plus O(L) byte
    operations at any position, for either slope kind
    (:func:`slopes.floor_steps`, which desubstitutes the window along the
    Gauss map); an upper window is a lower one read backwards.
    """

    kind: str  # 'lower' | 'upper'

    def __init__(self, alpha: Slope, rho: Fraction = Fraction(0)):
        super().__init__(BINARY)
        self.alpha = check_slope(alpha)
        self.rho = Fraction(rho)

    def height(self, n: int) -> int:
        """floor (lower) or ceil (upper) of alpha*n + rho; x_0 + ... + x_{n-1} = height(n) - height(0)."""
        rounding = floor_mul_add if self.kind == "lower" else ceil_mul_add
        return rounding(self.alpha, n, self.rho)

    def _window(self, lo: int, hi: int) -> Word:
        if self.kind == "lower":
            return floor_steps(self.alpha, lo, hi, self.rho)
        # ceil(alpha*(n+1)+rho) - ceil(alpha*n+rho) = floor(-alpha*n-rho) - floor(-alpha*(n+1)-rho)
        # is the lower step of (alpha, -rho) at -n-1
        return floor_steps(self.alpha, -hi - 1, -lo - 1, -self.rho)[::-1]

    def __repr__(self) -> str:
        return f"{self.kind}({format_slope(self.alpha)},{self.rho})"


class MechanicalLower(Mechanical):
    """n -> floor(alpha*(n+1)+rho) - floor(alpha*n+rho)."""

    kind = "lower"


class MechanicalUpper(Mechanical):
    """n -> ceil(alpha*(n+1)+rho) - ceil(alpha*n+rho)."""

    kind = "upper"


def _tile(period: Word, start: int, count: int) -> Word:
    """count symbols of period^inf, from index start (taken mod the period)."""
    start %= len(period)
    return (period * ((start + count) // len(period) + 1))[start:start + count]


class EventuallyPeriodic(SequenceOracle):
    """``^inf(u) y . z (w)^inf``: u repeats to the left, w to the right.

    Position 0 is the first symbol of z (or of w when z is empty).  A window
    is cut from the pads and tiled from the periods.
    """

    def __init__(self, left_period: Word, left_pad: Word, right_pad: Word,
                 right_period: Word, alphabet: Alphabet):
        if not left_period or not right_period:
            raise ValueError("periodic parts must be nonempty")
        super().__init__(alphabet)
        self.u = tuple(left_period)
        self.y = tuple(left_pad)
        self.z = tuple(right_pad)
        self.w = tuple(right_period)

    @classmethod
    def from_strings(cls, u: str, y: str, z: str, w: str,
                     alphabet: Alphabet = BINARY) -> "EventuallyPeriodic":
        f = alphabet.word_from_str
        return cls(f(u), f(y), f(z), f(w), alphabet)

    def _window(self, lo: int, hi: int) -> Word:
        ly, lz = len(self.y), len(self.z)
        out: Word = ()
        if lo < -ly:  # x_n = u[(n + |y|) mod |u|] left of the pads
            out += _tile(self.u, lo + ly, min(hi, -ly - 1) - lo + 1)
        a, b = max(lo, -ly), min(hi, lz - 1)
        if a <= b:
            out += (self.y + self.z)[a + ly:b + ly + 1]
        if hi >= lz:  # x_n = w[(n - |z|) mod |w|] right of the pads
            a = max(lo, lz)
            out += _tile(self.w, a - lz, hi - a + 1)
        return out

    def __repr__(self) -> str:
        g = self.alphabet.word_to_str
        return f"evp({g(self.u)}|{g(self.y)}.{g(self.z)}|{g(self.w)})"


class Shift(SequenceOracle):
    """at(n) = base.at(n + k); use :func:`shift` which flattens nests."""

    def __init__(self, base: SequenceOracle, k: int):
        super().__init__(base.alphabet)
        self.base = base
        self.k = k
        self.known_recurrent = base.known_recurrent  # shifting preserves recurrence

    def _window(self, lo: int, hi: int) -> Word:
        return self.base.window(lo + self.k, hi + self.k)

    def __repr__(self) -> str:
        return f"shift({self.base!r},{self.k})"


class Reversal(SequenceOracle):
    """at(n) = base.at(-n); use :func:`reverse` which cancels double reversals."""

    def __init__(self, base: SequenceOracle):
        super().__init__(base.alphabet)
        self.base = base
        self.known_recurrent = base.known_recurrent

    def _window(self, lo: int, hi: int) -> Word:
        return self.base.window(-hi, -lo)[::-1]

    def __repr__(self) -> str:
        return f"rev({self.base!r})"


class SubstImage(SequenceOracle):
    """Image of a sequence under a substitution.

    With anchor a, position a of the image is the first symbol of
    phi(base_0): block i occupies [block_start(i), block_start(i+1)).  A
    window expands the blocks it meets from one window of the base.

    Over a mechanical base, possibly shifted, block starts have a closed
    form in one exact floor, and the block holding a position is found from
    an exact estimate and a few corrections, so a window costs O(1) exact
    floors plus its length.  Over any other base the block starts are prefix
    sums in one list that grows at whichever end a read needs, at least
    doubling that side of block 0, by one ``base.window`` each time.
    """

    def __init__(self, base: SequenceOracle, phi: Substitution, anchor: int = 0):
        if base.alphabet != phi.domain:
            raise ValueError("substitution domain does not match the base alphabet")
        super().__init__(phi.codomain)
        self.base = base
        self.phi = phi
        self.anchor = anchor
        self._lens = [phi.image_len(s) for s in range(phi.domain.size)]
        mech, k = (base.base, base.k) if isinstance(base, Shift) else (base, 0)
        # closed form: (mechanical word, its offset k, height at k), else None
        self._mech = (mech, k, mech.height(k)) if isinstance(mech, Mechanical) else None
        self._starts = [anchor]  # block_start(first + j) for j = 0, 1, ...
        self._first = 0

    def block_start(self, i: int) -> int:
        """Image position where the block of base symbol i begins."""
        if self._mech is not None:
            # |phi(0)| per block plus the excess |phi(1)| - |phi(0)| per 1 in base [0, i)
            mech, k, h0 = self._mech
            l0, l1 = self._lens
            return self.anchor + i * l0 + (l1 - l0) * (mech.height(k + i) - h0)
        if not self._first <= i < self._first + len(self._starts):
            self._grow(i)
        return self._starts[i - self._first]

    def _grow(self, i: int) -> None:
        """Cache block_start(i) from one base window that at least doubles
        the cached blocks on i's side of block 0 (so growth stays linear)."""
        starts, first = self._starts, self._first
        last = first + len(starts) - 1
        lo, hi = (last, max(i, 2 * last)) if i > last else (min(i, 2 * first), first)
        sums = list(accumulate((self._lens[s] for s in self.base.window(lo, hi - 1)), initial=0))
        if i > last:
            starts += [starts[-1] + t for t in sums[1:]]
        else:
            starts[:0] = [starts[0] - sums[-1] + t for t in sums[:-1]]
            self._first = lo

    def _block_of(self, n: int) -> tuple[int, int, int]:
        """(i, block_start(i), block_start(i+1)) for the block i holding position n."""
        if self._mech is not None:
            l0, l1 = self._lens
            # start(i) is within |l1 - l0| of anchor + i*(l0 + (l1 - l0)*alpha)
            i = floor_ratio(n - self.anchor, l0, l1 - l0, self._mech[0].alpha)
            start, end = self.block_start(i), self.block_start(i + 1)
            while start > n:
                i, start, end = i - 1, self.block_start(i - 1), start
            while end <= n:
                i, start, end = i + 1, end, self.block_start(i + 2)
            return i, start, end
        starts, shortest = self._starts, min(self._lens)
        # every block is at least `shortest` long, so one growth covers n
        if n < starts[0]:
            self._grow(self._first + (n - starts[0]) // shortest)
        elif n >= starts[-1]:
            self._grow(self._first + len(starts) + (n - starts[-1]) // shortest)
        j = bisect_right(starts, n) - 1
        return self._first + j, starts[j], starts[j + 1]

    def _window(self, lo: int, hi: int) -> Word:
        i, start, end = self._block_of(lo)
        j = i if hi < end else self._block_of(hi)[0]
        cut = lo - start
        return self.phi(self.base.window(i, j))[cut:cut + hi - lo + 1]

    def __repr__(self) -> str:
        return f"sub({self.phi!r},{self.base!r},@{self.anchor})"


_SCAN_CHUNK = 512
_SCAN_CAP = 1_000_000


class GapError(ValueError):
    """The marker or its return words are missing where a derivation needs
    them: in the window, in the scanning budget or in the frozen catalog."""


class DerivedView(SequenceOracle):
    """Oracle for the derived sequence of ``base`` at a one-symbol marker.

    Position k holds the return word between marker occurrences i_k and
    i_{k+1}, recoded through a fixed catalog; i_0 is the smallest occurrence
    >= 0.  The occurrences sit in one list that grows at whichever end a read
    needs, by one chunk of the base to the right or by at least doubling the
    scanned left side, so the view stays exact for positions far beyond the
    construction window.  A window [lo, hi] reads the base once, over
    [i_lo, i_{hi+1}).  A view has a normal form unless its base is opaque or
    an image over an intercept rho != 0; a read whose scan passes _SCAN_CAP
    base positions, or that needs an index past it, goes through that normal form.
    """

    def __init__(self, base: SequenceOracle, marker: int,
                 catalog: dict[Word, int], alphabet):
        super().__init__(alphabet)
        self.base = base
        self.marker = marker
        self.catalog = dict(catalog)
        self._occ: list[int] = []  # i_first, i_(first+1), ...: all occurrences scanned
        self._first = 0
        self._scanned = (0, 0)     # base positions [lo, hi) seen

    @property
    def known_recurrent(self) -> Optional[bool]:
        return is_recurrent(self.base)

    def recoding(self) -> Substitution:
        images = {sid: word for word, sid in self.catalog.items()}
        return Substitution(images, self.alphabet, self.base.alphabet)

    @property
    def i0(self) -> int:
        return self.occurrences(0, 0)[0]

    def occurrences(self, lo: int, hi: int) -> list[int]:
        """The marker occurrences i_lo, ..., i_hi (lo <= hi)."""
        occ = self._occ
        while lo < self._first or hi >= self._first + len(occ):
            left = lo < self._first
            start, end = self._scanned
            if (-start if left else end) > _SCAN_CAP:
                raise GapError(f"marker {self.marker} lacks occurrences {lo}..{hi} "
                               f"in the scanned base range [{start}, {end})")
            # a prepend copies the list, so a left scan doubles the left side
            a, b = (start - max(_SCAN_CHUNK, -start), start) if left else (end, end + _SCAN_CHUNK)
            found = [a + i for i, s in enumerate(self.base.window(a, b - 1)) if s == self.marker]
            if left:
                occ[:0] = found
                self._first -= len(found)
            else:
                occ += found
            self._scanned = (min(start, a), max(end, b))
        return occ[lo - self._first:hi - self._first + 1]

    def code(self, word: Word) -> int:
        """The catalog id of a return word."""
        sid = self.catalog.get(word)
        if sid is None:
            raise GapError(f"return word {word} not in the catalog; rebuild with a larger window")
        return sid

    def _window(self, lo: int, hi: int) -> Word:
        # i_k >= k for k >= 0 and i_k <= k for k < 0, so the occurrence such a
        # read needs lies past _SCAN_CAP: skip the scan that would go past it
        if hi >= _SCAN_CAP or lo < -_SCAN_CAP:
            nf = normal_form(self)
            if not isinstance(nf, NFOpaque):
                return nf.oracle.window(lo, hi)
        try:
            occ = self.occurrences(lo, hi + 1)
        except GapError:  # past the scan cap, a normal form still reads the window
            nf = normal_form(self)
            if isinstance(nf, NFOpaque):
                raise
            return nf.oracle.window(lo, hi)
        first = occ[0]
        text = self.base.window(first, occ[-1] - 1)
        return tuple(self.code(text[a - first:b - first]) for a, b in zip(occ, occ[1:]))

    def __repr__(self) -> str:
        return f"derived({self.base!r}, marker={self.marker})"


def shift(x: SequenceOracle, k: int) -> SequenceOracle:
    """Oracle with at(n) = x.at(n + k), i.e. the k-th shift power of x."""
    if k == 0:
        return x
    if isinstance(x, Shift):
        return shift(x.base, x.k + k)
    return Shift(x, k)


def reverse(x: SequenceOracle) -> SequenceOracle:
    """Oracle with at(n) = x.at(-n)."""
    if isinstance(x, Reversal):
        return x.base
    return Reversal(x)


def substitute(phi: Substitution, x: SequenceOracle) -> SubstImage:
    """Image oracle with anchor 0: the image of x_0 starts at position 0."""
    return SubstImage(x, phi, 0)


def render_word(word: Word, alphabet: Alphabet, lo: int) -> str:
    """Glyph string of a word read from position lo, the origin marked before x_0."""
    if not lo <= 0 < lo + len(word):
        return alphabet.word_to_str(word)
    return alphabet.word_to_str(word[:-lo]) + "." + alphabet.word_to_str(word[-lo:])


def render_window(x: SequenceOracle, lo: int, hi: int) -> str:
    """Glyph string of x_lo..x_hi with the origin point marked before x_0."""
    return render_word(x.window(lo, hi), x.alphabet, lo)


def window_difference(x: SequenceOracle, y: SequenceOracle, lo: int, hi: int) -> frozenset[int]:
    """Positions in [lo, hi] where x and y differ, from one window of each."""
    return frozenset(n for n, a, b in zip(range(lo, hi + 1), x.window(lo, hi), y.window(lo, hi))
                     if a != b)


# ---------------------------------------------------------------------------
# normal forms (private): the basis for exact equality / difference decisions


@dataclass
class NFEvp:
    """Eventually periodic: x_n = x_{n+pu} for n < lb, x_n = x_{n+pw} for n >= rb."""

    oracle: SequenceOracle
    pu: int
    lb: int
    pw: int
    rb: int

    @cached_property
    def departure(self) -> Optional[int]:
        """The first n with x_n != x_{n-pu}, where x leaves the periodic
        extension of its left tail (None: x is purely periodic).  No n < lb + pu
        departs and for n - pu >= rb the test has period pw, so
        [lb, max(lb, rb) + pu + pw] decides.  Every multiple of the left period
        gives the same departure."""
        lo, p = self.lb, self.pu
        text = self.oracle.window(lo, max(lo, self.rb) + p + self.pw)
        return next((lo + i for i in range(p, len(text)) if text[i] != text[i - p]), None)


@dataclass
class NFMech:
    """n -> mechanical(kind, alpha, rho) evaluated at n + offset; alpha irrational.

    Canonical: rho in [0,1); kind is 'lower' whenever rho != 0 (the two kinds
    coincide pointwise when alpha*n + rho never hits an integer).
    """

    kind: str  # 'lower' | 'upper'
    alpha: QuadraticIrrational
    rho: Fraction
    offset: int

    @cached_property
    def oracle(self) -> SequenceOracle:
        cls = MechanicalLower if self.kind == "lower" else MechanicalUpper
        return shift(cls(self.alpha, self.rho), self.offset)


@dataclass
class NFSubst:
    """Substitution image of an irrational mechanical word or an opaque oracle.

    A mechanical base sits at offset 0, so the anchor is where the block of
    the mechanical word's symbol 0 begins.  Of the conjugates of phi that
    spell the same sequence, the one kept has images that do not all end
    with one letter.
    """

    phi: Substitution
    base: Union[NFMech, "NFOpaque"]
    anchor: int

    @cached_property
    def oracle(self) -> SubstImage:
        """The image of the base; it serves reads and block starts."""
        return SubstImage(self.base.oracle, self.phi, self.anchor)


@dataclass
class NFOpaque:
    """No structural description; only window reads are available."""

    oracle: SequenceOracle


NormalForm = Union[NFEvp, NFMech, NFSubst, NFOpaque]


def _make_nfmech(kind: str, alpha: QuadraticIrrational, rho: Fraction, offset: int) -> NFMech:
    if rho:
        rho = rho - math.floor(rho)  # intercepts equal mod 1 give equal words
    if rho != 0:
        kind = "lower"  # alpha*n + rho never integral, so lower == upper
    return NFMech(kind, alpha, rho, offset)


@lru_cache(maxsize=64)  # normal forms flip the few slopes in use over and over
def _one_minus(alpha: QuadraticIrrational) -> QuadraticIrrational:
    return QuadraticIrrational(alpha.c - alpha.a, -alpha.b, alpha.c, alpha.d)


def _common_root_collapse(phi: Substitution) -> Optional[Word]:
    """If every image of phi is a power of one primitive word, return it."""
    root = primitive_root(next(iter(phi.images.values())))
    for im in phi.images.values():
        if primitive_root(im) != root:
            return None
        if im != root * (len(im) // len(root)):
            return None
    return root


def normal_form(x: SequenceOracle) -> NormalForm:
    """x's normal form, computed once and kept on x (NFOpaque while being computed)."""
    if x._normal_form is None:
        x._normal_form = NFOpaque(x)
        try:
            x._normal_form = _normalize(x)
        except BaseException:
            x._normal_form = None
            raise
    return x._normal_form


def _normalize(x: SequenceOracle) -> NormalForm:
    if isinstance(x, Mechanical):
        if is_rational(x.alpha):
            q = x.alpha.denominator  # x is purely q-periodic
            return NFEvp(x, q, 0, q, 0)
        return _make_nfmech(x.kind, x.alpha, x.rho, 0)

    if isinstance(x, EventuallyPeriodic):
        return NFEvp(x, len(x.u), -len(x.y) - len(x.u), len(x.w), len(x.z))

    if isinstance(x, Shift):
        nf = normal_form(x.base)
        if isinstance(nf, NFEvp):
            return NFEvp(x, nf.pu, nf.lb - x.k, nf.pw, nf.rb - x.k)
        if isinstance(nf, NFMech):
            return NFMech(nf.kind, nf.alpha, nf.rho, nf.offset + x.k)
        if isinstance(nf, NFSubst):
            return NFSubst(nf.phi, nf.base, nf.anchor - x.k)
        return NFOpaque(x)

    if isinstance(x, Reversal):
        nf = normal_form(x.base)
        if isinstance(nf, NFEvp):
            return NFEvp(x, nf.pw, -nf.rb - nf.pw + 1, nf.pu, -nf.lb - nf.pu + 1)
        if isinstance(nf, NFMech):
            return _reverse_mech(nf)
        if isinstance(nf, NFSubst):
            # block i of the image, [start(i), start(i+1)), lands on
            # [-start(i+1) + 1, -start(i)]; base symbol i moves to -i
            anchor = -nf.oracle.block_start(1) + 1
            rev_phi = nf.phi.reversed_images()
            if isinstance(nf.base, NFMech):
                return _subst_over_mech(rev_phi, _reverse_mech(nf.base), anchor, x)
            return _collapse_or_keep(NFSubst(rev_phi, NFOpaque(Reversal(nf.base.oracle)), anchor), x)
        return NFOpaque(x)

    if isinstance(x, SubstImage):
        nf = normal_form(x.base)
        phi, anchor = x.phi, x.anchor

        if isinstance(nf, NFEvp):
            # the periodic parts of the base map to the periodic parts of the image
            start = x.block_start
            return NFEvp(x, start(nf.lb) - start(nf.lb - nf.pu), start(nf.lb - nf.pu),
                         start(nf.rb + nf.pw) - start(nf.rb), start(nf.rb))
        if isinstance(nf, NFSubst):
            # x's base is psi(B); its position 0 lies in block i of B, which
            # begins at s <= 0.  Under phi o psi that block begins |phi(x.base
            # [s, 0))| before the block of x.base_0, which begins at anchor
            i, s, _ = nf.oracle._block_of(0)
            head = len(phi(nf.oracle.window(s, -1))) if s < 0 else 0
            composed = phi.compose(nf.phi)
            offset = SubstImage(nf.base.oracle, composed).block_start(i)
            return _collapse_or_keep(NFSubst(composed, nf.base, anchor - head - offset), x)
        if isinstance(nf, NFMech):
            return _subst_over_mech(phi, nf, anchor, x)
        # opaque base
        return _collapse_or_keep(NFSubst(phi, NFOpaque(x.base), anchor), x)

    if isinstance(x, DerivedView):
        nf = normal_form(x.base)
        if isinstance(nf, NFEvp):
            return _derived_evp(x, nf)
        image = _as_image(nf, x.base.alphabet)
        if image is not None and not image.base.rho:
            return _derived_image(x, image)

    return NFOpaque(x)


def _reverse_mech(base: NFMech) -> NFMech:
    # s(alpha,rho)(m) = s'(alpha,-rho)(-m-1) and symmetrically
    other = "upper" if base.kind == "lower" else "lower"
    return _make_nfmech(other, base.alpha, -base.rho, -base.offset - 1)


def _oriented(phi: Substitution, mech: NFMech, anchor: int) -> NFSubst:
    """The image of ``mech`` with block 0 at ``anchor``, its mechanical
    offset absorbed into the anchor (the base sits at offset 0) and its base
    slope below 1/2."""
    mech0 = NFMech(mech.kind, mech.alpha, mech.rho, 0)
    if mech0.alpha.compare_fraction(_HALF) > 0:
        # one orientation per image: the base slope is below 1/2, so two
        # images of one word compare base to base under equal image keys
        phi, mech0 = swap_base(phi, mech0)
    # the swapped pair spells the same blocks, so it gives the same start
    adj = SubstImage(mech0.oracle, phi).block_start(mech.offset)
    return NFSubst(phi, mech0, anchor - adj)


def _subst_over_mech(phi: Substitution, mech: NFMech, anchor: int,
                     x: SequenceOracle) -> NormalForm:
    """Normal form of the image of ``mech`` with block 0 at ``anchor``."""
    return _collapse_or_keep(_oriented(phi, mech, anchor), x)


_HALF = Fraction(1, 2)


def swap_base(phi: Substitution, mech: NFMech) -> tuple[Substitution, NFMech]:
    """(phi o swap, the complementary word) with the same image: pointwise
    1 - s(alpha, rho) = s'(1 - alpha, -rho), s' the other kind, so for
    instance phi(upper(alpha)) = (phi o swap)(lower(1 - alpha))."""
    other = "upper" if mech.kind == "lower" else "lower"
    swapped = Substitution({0: phi.images[1], 1: phi.images[0]}, BINARY, phi.codomain)
    return swapped, _make_nfmech(other, _one_minus(mech.alpha), -mech.rho, mech.offset)


def _as_image(nf: NormalForm, alphabet: Alphabet) -> Optional[NFSubst]:
    """nf as an image of an irrational mechanical word at offset 0, or None;
    a mechanical normal form is its image under 0 -> 0, 1 -> 1 into the
    alphabet, with anchor -offset."""
    if isinstance(nf, NFMech):
        base = NFMech(nf.kind, nf.alpha, nf.rho, 0)
        return NFSubst(Substitution({0: (0,), 1: (1,)}, BINARY, alphabet), base, -nf.offset)
    if isinstance(nf, NFSubst) and isinstance(nf.base, NFMech):
        return nf
    return None


def mechanical_images(x: SequenceOracle, y: SequenceOracle) -> Optional[tuple[NFSubst, NFSubst]]:
    """x and y as images of irrational mechanical words at offset 0, with
    Sturmian morphisms folded into the bases when the substitutions differ;
    None unless both normal forms are such images."""
    ix, iy = _as_image(normal_form(x), x.alphabet), _as_image(normal_form(y), y.alphabet)
    return None if ix is None or iy is None else _folded(ix, iy)


def _folded(nx: NFSubst, ny: NFSubst) -> tuple[NFSubst, NFSubst]:
    if nx.phi.image_key() == ny.phi.image_key():
        return nx, ny
    return _fold(nx), _fold(ny)


def _fold(nf: NFSubst) -> NFSubst:
    """nf with the Sturmian morphisms it admits on the right folded into its
    base, if that is lower(beta) or upper(beta) (rho = 0).

    A kept conjugate phi (not every image ends with one letter), possibly
    after the swap 0 <-> 1, is (v, phi(0)) o m for m: 0 -> 1, 1 -> 10 when
    phi(1) = phi(0) v.  With alpha = 1/(1 + beta) and (sigma z)_n = z_(n+1),
    m(lower beta) = upper alpha and m(upper beta) = sigma^-1 lower alpha.
    Every tau_k: 0 -> 0^(k-1)1, 1 -> 0^k1 and its mirror peel in such steps,
    and each step shortens the images.
    """
    if not isinstance(nf.base, NFMech) or nf.base.rho:
        return nf
    nf = _kept_conjugate(_oriented(nf.phi, nf.base, nf.anchor))
    while True:
        for phi, mech in ((nf.phi, nf.base), swap_base(nf.phi, nf.base)):
            p0, p1 = phi.images[0], phi.images[1]
            if len(p0) < len(p1) and p1[:len(p0)] == p0:
                break
        else:
            return nf
        psi = Substitution({0: p1[len(p0):], 1: p0}, BINARY, phi.codomain)
        a, b, c, d = mech.alpha.a, mech.alpha.b, mech.alpha.c, mech.alpha.d
        alpha = QuadraticIrrational(c * (c + a), -c * b, (c + a) ** 2 - b * b * d, d)
        kind, offset = ("upper", 0) if mech.kind == "lower" else ("lower", -1)
        nf = _kept_conjugate(_oriented(psi, NFMech(kind, alpha, Fraction(0), offset), nf.anchor))


def _derived_evp(view: DerivedView, nf: NFEvp) -> NormalForm:
    """The view of an eventually periodic word: a tail period holding c
    markers repeats every c return words, so exact marker counts over the
    pads and one period of each tail give the periodic parts."""
    a = view.marker
    lo = min(nf.lb - nf.pu, 0)
    text = view.base.window(lo, max(nf.lb, nf.rb + nf.pw, 0))
    occ = [lo + i for i, s in enumerate(text) if s == a]
    zero = bisect_right(occ, -1)

    def index(q: int) -> int:  # the derived index of the first occurrence >= q
        return bisect_right(occ, q - 1) - zero

    left, right = index(nf.lb) - index(nf.lb - nf.pu), index(nf.rb + nf.pw) - index(nf.rb)
    if not left or not right:
        raise GapError(f"marker {a} is missing from a periodic tail of {view.base!r}")
    lb, rb = min(index(nf.lb) - left, 0), max(index(nf.rb), 0)
    word = view.window(lb - left, rb + right - 1)
    mid, end = left - lb, left - lb + rb  # where derived indices 0 and rb sit in word
    parts = word[:left], word[left:mid], word[mid:end], word[end:]
    return normal_form(EventuallyPeriodic(*parts, view.alphabet))


def _derived_image(view: DerivedView, image: NFSubst) -> NormalForm:
    """The view of psi(s), s = lower(alpha) or upper(alpha), is theta(s').

    upper(alpha) = m(lower beta) and lower(alpha) = sigma m(upper beta) for
    m: 0 -> 10^(k-1), 1 -> 10^k, k = floor(1/alpha), beta = {1/alpha}.  With
    the images swapped so that psi(1) holds the marker a (and k = 1 when both
    do), those of psi o m are h a u_b, h free of a, so the return words of
    block b are h a u_b h cut before each a.  Block 0's first one has the
    derived index of its marker, counted from the block holding position 0
    with one exact height.
    """
    a, phi, mech, anchor = view.marker, image.phi, image.base, image.anchor
    p0, p1 = phi.images[0], phi.images[1]
    if a not in p1 or (a in p0 and mech.alpha.compare_fraction(_HALF) < 0):
        phi, mech = swap_base(phi, mech)
        p0, p1 = p1, p0
    alpha = mech.alpha
    k, *beta = _gauss(alpha.a, alpha.b, alpha.c, alpha.d)
    if (k - 1) * len(p0) >= max(map(len, view.catalog)):
        raise GapError(f"return words of {view.base!r} at marker {a} outrun the catalog")
    kind, anchor = ("upper", anchor - len(p1)) if mech.kind == "lower" else ("lower", anchor)
    mech = NFMech(kind, QuadraticIrrational(*beta, alpha.d), Fraction(0), 0)
    p0, p1 = p1 + p0 * (k - 1), p1 + p0 * k
    head = p1[:p1.index(a)]

    def returns(im: Word) -> Word:
        word = im[len(head):] + head
        cuts = [i for i, s in enumerate(word) if s == a] + [len(word)]
        return tuple(view.code(word[i:j]) for i, j in zip(cuts, cuts[1:]))

    theta = Substitution({0: returns(p0), 1: returns(p1)}, BINARY, view.alphabet)
    image = SubstImage(mech.oracle, Substitution({0: p0, 1: p1}, BINARY, phi.codomain), anchor)
    i, start, _ = image._block_of(0)
    q = start + len(head)  # the first marker of block i
    n_q = image.window(0, q - 1).count(a) if q > 0 else -image.window(q, -1).count(a) if q < 0 else 0
    t0, t1 = p0.count(a), p1.count(a)
    ones = mech.oracle.height(i) - mech.oracle.height(0)
    return _subst_over_mech(theta, mech, n_q - i * t0 - (t1 - t0) * ones, view)


def _collapse_or_keep(nf: NFSubst, x: SequenceOracle) -> NormalForm:
    """Collapse images of mechanical bases that are secretly periodic or
    mechanical; bring any other image to one conjugate of its substitution."""
    root = _common_root_collapse(nf.phi)
    if root is not None:
        # every block is a power of the same primitive word: the image is the
        # periodic sequence root^inf regardless of the base
        return NFEvp(x, len(root), nf.anchor, len(root), nf.anchor)
    if (
        isinstance(nf.base, NFMech)
        and nf.phi.codomain == nf.phi.domain  # a relabel within the binary alphabet
        and all(nf.phi.image_len(s) == 1 for s in nf.phi.images)
    ):
        im0, im1 = nf.phi.images[0][0], nf.phi.images[1][0]
        if {im0, im1} == {0, 1}:
            mech = nf.base if im0 == 0 else swap_base(nf.phi, nf.base)[1]
            # an identity relabel of the base, possibly its complement: a shift
            return NFMech(mech.kind, mech.alpha, mech.rho, mech.offset - nf.anchor)
    return _kept_conjugate(nf)


def _kept_conjugate(nf: NFSubst) -> NFSubst:
    """While every image ends with one letter c, the conjugate c psi c^-1
    spells the same sequence with each block one position to the left;
    images that agree so |psi(0)| + |psi(1)| times commute (Fine-Wilf)."""
    images, anchor = nf.phi.images, nf.anchor
    while len({im[-1] for im in images.values()}) == 1:
        images = {s: im[-1:] + im[:-1] for s, im in images.items()}
        anchor -= 1
    if anchor == nf.anchor:
        return nf
    return NFSubst(Substitution(images, nf.phi.domain, nf.phi.codomain), nf.base, anchor)


# ---------------------------------------------------------------------------
# exact difference analysis


class NotAsymptoticError(ValueError):
    """Structural analysis shows the two sequences differ at infinitely many positions."""


class UncertifiableError(ValueError):
    """No structural certificate of agreement outside a finite set is available."""


def _evp_difference(nx: NFEvp, ny: NFEvp) -> frozenset[int]:
    pl = math.lcm(nx.pu, ny.pu)
    pr = math.lcm(nx.pw, ny.pw)
    t0 = min(nx.lb, ny.lb) - pl  # both sides pl-periodic at every n < t0 + pl
    s0 = max(nx.rb, ny.rb)
    if nx.oracle.window(t0 - pl, t0 - 1) != ny.oracle.window(t0 - pl, t0 - 1):
        raise NotAsymptoticError("left periodic tails disagree")
    if nx.oracle.window(s0, s0 + pr - 1) != ny.oracle.window(s0, s0 + pr - 1):
        raise NotAsymptoticError("right periodic tails disagree")
    return window_difference(nx.oracle, ny.oracle, t0 - pl, s0 + pr - 1)


def _mech_difference(nx: NFMech, ny: NFMech) -> frozenset[int]:
    if nx.alpha != ny.alpha:
        raise NotAsymptoticError("different irrational slopes")
    if nx.offset != ny.offset or nx.rho != ny.rho:
        raise NotAsymptoticError("mechanical words on different rotation orbits")
    if nx.kind == ny.kind:
        return frozenset()
    # lower vs upper with integral intercept: they disagree exactly where the
    # rotation hits the integers, i.e. at base positions -1 and 0
    return frozenset({-1 - nx.offset, -nx.offset})


def _frequencies_differ(phi: Substitution, psi: Substitution, alpha: QuadraticIrrational) -> bool:
    """Whether some letter is not equally frequent in phi(s) and psi(s), s a
    mechanical word of slope alpha.  In phi(s) letter c has frequency
    (|phi(0)|_c (1 - alpha) + |phi(1)|_c alpha) / (|phi(0)| (1 - alpha) + |phi(1)| alpha);
    two such ratios differ by the sign of P + Q alpha + R alpha^2, decided exactly."""
    letters = range(max(phi.codomain.size, psi.codomain.size))

    def forms(images: dict[int, Word]) -> list[tuple[int, int]]:
        """(u, v) with |images[0]|_c (1 - alpha) + |images[1]|_c alpha = u + v alpha, per letter c."""
        w0, w1 = images[0], images[1]
        return [(w0.count(e), w1.count(e) - w0.count(e)) for e in letters]

    fx, fy = forms(phi.images), forms(psi.images)
    Ux, Vx = map(sum, zip(*fx))  # the image lengths, counted over all letters
    Uy, Vy = map(sum, zip(*fy))
    a, b, c, d = alpha.a, alpha.b, alpha.c, alpha.d
    for (ux, vx), (uy, vy) in zip(fx, fy):
        # (ux + vx alpha)(Uy + Vy alpha) - (uy + vy alpha)(Ux + Vx alpha), times c^2
        P, Q, R = ux * Uy - uy * Ux, ux * Vy + vx * Uy - uy * Vx - vy * Ux, vx * Vy - vy * Vx
        if _sign_a_plus_b_sqrt(P * c * c + Q * a * c + R * (a * a + b * b * d),
                               Q * b * c + 2 * R * a * b, d):
            return True
    return False


def _subst_difference(nx: NFSubst, ny: NFSubst) -> frozenset[int]:
    if nx.phi.image_key() != ny.phi.image_key():
        if (isinstance(nx.base, NFMech) and isinstance(ny.base, NFMech)
                and nx.base.alpha == ny.base.alpha
                and _frequencies_differ(nx.phi, ny.phi, nx.base.alpha)):
            raise NotAsymptoticError("images with different letter frequencies")
        nx, ny = _folded(nx, ny)
        if nx.phi.image_key() != ny.phi.image_key():
            raise UncertifiableError("substitution images under different substitutions")
    base_diff = _nf_difference(nx.base, ny.base)
    if not base_diff:
        if nx.anchor == ny.anchor:
            return frozenset()
        if isinstance(nx.base, NFMech):
            raise NotAsymptoticError("misaligned images of the same aperiodic word")
        raise UncertifiableError("misaligned images of an opaque word")
    lo, hi = min(base_diff), max(base_diff)
    lx, rx = nx.oracle.block_start(lo), nx.oracle.block_start(hi + 1)
    ly, ry = ny.oracle.block_start(lo), ny.oracle.block_start(hi + 1)
    if lx != ly or rx != ry:  # a non-empty base_diff comes from two NFMech bases
        raise NotAsymptoticError("image tails shifted against each other")
    return window_difference(nx.oracle, ny.oracle, lx, rx - 1)


def _nf_difference(nx: NormalForm, ny: NormalForm) -> frozenset[int]:
    """Exact difference set of two normal forms, or raise."""
    if isinstance(nx, NFOpaque) and isinstance(ny, NFOpaque):
        if nx.oracle is ny.oracle:
            return frozenset()
        raise UncertifiableError("cannot compare opaque oracles structurally")
    if isinstance(nx, NFEvp) and isinstance(ny, NFEvp):
        return _evp_difference(nx, ny)
    if isinstance(nx, NFMech) and isinstance(ny, NFMech):
        return _mech_difference(nx, ny)
    if isinstance(nx, NFSubst) and isinstance(ny, NFSubst):
        return _subst_difference(nx, ny)
    kinds = {type(nx), type(ny)}
    if kinds == {NFEvp, NFMech}:
        raise NotAsymptoticError("eventually periodic vs aperiodic mechanical word")
    if kinds == {NFSubst, NFMech}:
        alphabet = (nx if isinstance(nx, NFSubst) else ny).phi.codomain
        if (ix := _as_image(nx, alphabet)) and (iy := _as_image(ny, alphabet)):
            return _subst_difference(ix, iy)
    raise UncertifiableError(
        f"no structural certificate for {type(nx).__name__} vs {type(ny).__name__}"
    )


def difference_set(x: SequenceOracle, y: SequenceOracle) -> frozenset[int]:
    """Exact difference set of two oracles in the closed algebra.

    Raises :class:`NotAsymptoticError` when the sequences provably differ at
    infinitely many positions, :class:`UncertifiableError` when no structural
    certificate exists.
    """
    if x is y:
        return frozenset()
    if x.alphabet != y.alphabet:
        raise NotAsymptoticError("different alphabets")
    return _nf_difference(normal_form(x), normal_form(y))


def oracles_equal(x: SequenceOracle, y: SequenceOracle) -> bool:
    """Exact pointwise equality over all of Z (within the closed algebra)."""
    try:
        return not difference_set(x, y)
    except NotAsymptoticError:
        return False


def is_recurrent(x: SequenceOracle) -> Optional[bool]:
    """True/False when decidable for the oracle class, None otherwise.

    Mechanical words of irrational slope are recurrent; an eventually
    periodic sequence is recurrent iff it is fully periodic; substitution
    images of recurrent sequences are recurrent.
    """
    return _nf_recurrent(normal_form(x))


def _nf_recurrent(nf: NormalForm) -> Optional[bool]:
    if isinstance(nf, NFMech):
        return True
    if isinstance(nf, NFEvp):
        return nf.departure is None  # fully periodic
    if isinstance(nf, NFSubst):
        base = True if isinstance(nf.base, NFMech) else nf.base.oracle.known_recurrent
        return True if base else None
    return nf.oracle.known_recurrent


def shift_relation(x: SequenceOracle, y: SequenceOracle) -> Optional[int]:
    """The s != 0 with x = sigma^s y for eventually periodic members that are
    not purely periodic; None otherwise.  The departure of sigma^s y is that
    of y minus s, so departure(y) - departure(x) is the one candidate, and
    one exact comparison confirms it."""
    nx, ny = normal_form(x), normal_form(y)
    if not (isinstance(nx, NFEvp) and isinstance(ny, NFEvp)):
        return None
    ax, ay = nx.departure, ny.departure
    if ax is None or ay is None or ax == ay or not oracles_equal(x, shift(y, ay - ax)):
        return None
    return ay - ax
