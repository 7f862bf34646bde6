"""Return words, derived sequences, and the constructive classification of
indistinguishable asymptotic pairs.

The normal forms of a recurrent pair in the closed oracle algebra show its
decomposition: the members are images psi(lower(alpha)) and
psi(upper(alpha)) of one irrational slope, and their anchors give the
shift.  Derived views have normal forms, and Sturmian morphisms fold into
the mechanical base when the members' substitutions differ, so this one
rebuild serves every recurrent pair the algebra can describe.  It is proved
equal to the input on all of Z, which holds at every length and so comes
before any bounded check; the slope is exact.  Non-recurrent pairs are
shifts of one another, x = sigma^s y, with s read off the eventually periodic
normal forms (``shift_relation``).  They reduce to (^inf0.10^inf,
^inf0.010^inf) through a two-letter substitution built from the length-|s|
eventual periods, proved equal to the input on all of Z.  When no shift
relation is shown, a deeper bounded check supplies the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .christoffel import RationalLimitClass, _limit_class
from .patterns import (
    AsymptoticPair,
    NotAsymptoticError,
    UncertifiableError,
    check_indistinguishable,
    substitute_pair,
)
from .sequences import (
    BINARY,
    DerivedView,
    EventuallyPeriodic,
    GapError,
    MechanicalLower,
    MechanicalUpper,
    SequenceOracle,
    Substitution,
    alphabet_of_size,
    is_recurrent,
    mechanical_images,
    oracles_equal,
    shift,
    shift_relation,
    substitute,
    swap_base,
    window_difference,
)
from .slopes import QuadraticIrrational
from .words import Word, occurrences


@dataclass(frozen=True)
class ReturnWordSet:
    marker: Word
    returns: frozenset[Word]
    complete_returns: frozenset[Word]
    window: tuple[int, int]


def return_words(x: SequenceOracle, w: Word, window: tuple[int, int]) -> ReturnWordSet:
    """Return words and complete return words to w witnessed inside the window.

    A complete return word starts and ends with an occurrence of w and
    contains no other; occurrences of w may overlap.
    """
    lo, hi = window
    text = x.window(lo, hi)
    occ = [lo + i for i in occurrences(w, text)]
    if len(occ) < 2:
        raise GapError(f"marker occurs {len(occ)} time(s) in window {window}")
    rets, crets = set(), set()
    for a, b in zip(occ, occ[1:]):
        rets.add(text[a - lo:b - lo])
        if b + len(w) - 1 <= hi:
            crets.add(text[a - lo:b - lo + len(w)])
    return ReturnWordSet(tuple(w), frozenset(rets), frozenset(crets), window)


@dataclass(frozen=True)
class DerivedSequence:
    base: SequenceOracle
    marker: Word
    oracle: DerivedView
    recoding: Substitution
    i0: int


def _derived_views(bases: Sequence[SequenceOracle], marker: int,
                   window: tuple[int, int]) -> list[DerivedView]:
    """Views of the bases at ``marker`` over one catalog of their return
    words, ordered by first occurrence from each anchor: derived positions
    0, 1, 2, ... then -1, -2, ... per base."""
    lo, hi = window
    catalog: dict[Word, int] = {}
    for base in bases:
        text = base.window(lo, hi)
        occ = [lo + i for i, s in enumerate(text) if s == marker]
        nonneg = [i for i in occ if i >= 0]
        neg = [i for i in occ if i < 0]
        if not nonneg or not neg:
            raise GapError(
                f"marker {marker} does not straddle the origin in window {window}"
            )
        ordered = [text[a - lo:b - lo] for a, b in zip(nonneg, nonneg[1:])]
        # derived positions -1, -2, ...: walk occurrences leftward from i_0
        leftward = [nonneg[0]] + list(reversed(neg))
        ordered += [text[a - lo:b - lo] for b, a in zip(leftward, leftward[1:])]
        for word in ordered:
            catalog.setdefault(word, len(catalog))
    alphabet = alphabet_of_size(len(catalog))
    return [DerivedView(base, marker, catalog, alphabet) for base in bases]


def derived_sequence(x: SequenceOracle, a: int, window: tuple[int, int]) -> DerivedSequence:
    """Derived sequence of x at the marker symbol a, with its recoding.

    Applying the recoding to the derived oracle and shifting by -i_0
    recovers x; the catalog of return words is frozen from the window.
    """
    view, = _derived_views((x,), a, window)
    return DerivedSequence(x, (a,), view, view.recoding(), view.i0)


def derived_pair(pair: AsymptoticPair, a: int, window: tuple[int, int]) -> AsymptoticPair:
    """The pair of derived sequences at marker a, with exact difference set.

    Requires the difference set inside [0, k-1] (shift first) and equal
    marker counts across it on both sides; the derived difference set then
    lies within [-1, N_a - 1] and is computed by direct block comparison.
    """
    if not pair.is_trivial:
        lo, hi = pair.span()
        if lo < 0:
            raise ValueError("shift the pair so its difference set starts at 0")
        n_a, n_b = (m.window(0, hi).count(a) for m in (pair.x, pair.y))
        if n_a != n_b:
            raise NotAsymptoticError(
                f"marker {a} occurs {n_a} vs {n_b} times across the difference interval"
            )
    dx, dy = _derived_views((pair.x, pair.y), a, window)
    diff = frozenset() if pair.is_trivial else window_difference(dx, dy, -1, max(n_a, 1) - 1)
    return AsymptoticPair(dx, dy, diff)


def substitution_preserves_check(phi: Substitution, pair: AsymptoticPair,
                                 max_len: int) -> bool:
    """Does applying phi preserve indistinguishability with the expected
    difference bound [0, K-1], K the image length of the difference interval?

    Precondition: the difference set sits in [0, k-1] and the input pair
    itself passes the check at max_len.
    """
    lo, hi = pair.span()
    if lo < 0:
        raise ValueError("shift the pair so its difference set starts at 0")
    base = check_indistinguishable(pair, max_len)
    if not base.passed:
        raise ValueError(f"input pair fails at length {base.lengths_checked}")
    try:
        image = substitute_pair(phi, pair)
    except (NotAsymptoticError, UncertifiableError):
        return False
    big_k = sum(phi.image_len(s) for s in pair.x.window(0, hi))
    if image.diff and not (0 <= min(image.diff) and max(image.diff) <= big_k - 1):
        return False
    return check_indistinguishable(image, max_len).passed


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class NotIndistinguishable:
    witness: Word


@dataclass(frozen=True)
class Inconclusive:
    resource: str


@dataclass(frozen=True)
class MechanicalBase:
    """The characteristic pair (lower(slope), upper(slope)) of an exact irrational slope."""

    slope: QuadraticIrrational

    @property
    def lower_oracle(self) -> SequenceOracle:
        return MechanicalLower(self.slope)

    @property
    def upper_oracle(self) -> SequenceOracle:
        return MechanicalUpper(self.slope)


@dataclass(frozen=True)
class NonRecurrentBase:
    """The pair (^inf0.10^inf, ^inf0.010^inf); optionally its rational limit class."""

    rational_class: Optional[RationalLimitClass]


@dataclass(frozen=True)
class ClassificationResult:
    """verified_to: None if proved on all of Z (every length), else the max_len checked."""
    case: str  # 'recurrent' | 'non_recurrent'
    phi: Substitution
    m: int
    x_is_first: bool  # pair.x matches sigma^m phi(sigma c) resp. sigma^m phi(^inf0.10^inf)
    base: Union[MechanicalBase, NonRecurrentBase]
    verified_to: Optional[int]
    verify_window: tuple[int, int]


ClassifyOutcome = Union[ClassificationResult, NotIndistinguishable, Inconclusive]


def classify(pair: AsymptoticPair, window: tuple[int, int] = (-64, 64),
             max_len: int = 20) -> ClassifyOutcome:
    """Decompose a non-trivial pair per the classification dichotomy.

    Either produces a substitution phi, shift m and base pair that rebuild (x, y),
    or a distinguishability witness, or an explicit inconclusive outcome naming the
    exhausted resource.  Structural certificates come first: a pair rebuilt from its
    normal forms as sigma^m psi(sigma lower(alpha), sigma upper(alpha)) (with a
    :class:`MechanicalBase` of exact slope) or sigma^m phi(^inf0.10^inf,
    ^inf0.010^inf) is proved equal to the input on all of Z, hence indistinguishable
    at every length by the theorem, whose hypotheses hold: psi and phi are
    non-erasing (``Substitution`` rejects empty images), psi is non-commuting (a
    commuting psi has a periodic normal form) and alpha is irrational (``NFMech``
    holds irrational slopes only).  Derived views and images under Sturmian
    morphisms have such normal forms; images over an intercept rho != 0 and
    opaque oracles (Toeplitz limits, views of them) do not.  Those pairs are
    checked up to max_len: a failure gives the witness, a pass is Inconclusive.
    """
    if pair.is_trivial:
        raise ValueError("classification requires a non-trivial pair")
    recurrent = is_recurrent(pair.x)
    if recurrent is False:
        return _classify_non_recurrent(pair, window, max_len)
    if recurrent and (structural := _classify_structural(pair, window)):
        return structural
    verdict = check_indistinguishable(pair, max_len)
    if not verdict.passed:
        return NotIndistinguishable(verdict.witness)
    if recurrent is None:
        return Inconclusive("recurrence undecidable for this oracle class")
    return Inconclusive("no normal form shows the members as psi(lower(alpha)), psi(upper(alpha))")


def certified_all_lengths(pair: AsymptoticPair) -> bool:
    """Is the pair trivial or rebuilt exactly from its normal forms, as in
    :func:`classify`, hence indistinguishable at every length?  Runs no check."""
    if pair.is_trivial:
        return True
    recurrent = is_recurrent(pair.x)
    if recurrent:
        return _classify_structural(pair, (0, 0)) is not None
    return recurrent is False and isinstance(
        _classify_non_recurrent(pair, (0, 0), None), ClassificationResult)


def _classify_structural(pair: AsymptoticPair,
                         window: tuple[int, int]) -> Optional[ClassificationResult]:
    """Read (psi, alpha, m) off the normal forms, or None when they do not
    show psi(lower(alpha)) and psi(upper(alpha)) with equal images, after
    Sturmian morphisms are folded into the bases when the members'
    substitutions differ (images over rho != 0 stay as they are).

    The member over the lower word, anchored at A, is sigma^m psi(sigma
    lower(alpha)) with m = -|psi(0)| - A, because lower(alpha)_0 = 0.  The
    rebuild is checked by exact equality in the input's orientation; when x
    sits over upper(alpha) the result is rewritten as psi o swap over
    lower(1 - alpha), so that x always comes first.
    """
    images = mechanical_images(pair.x, pair.y)
    if images is None or images[0].phi.image_key() != images[1].phi.image_key():
        return None
    ix, iy = images
    bx, by = ix.base, iy.base
    if bx.alpha != by.alpha or bx.rho or by.rho or {bx.kind, by.kind} != {"lower", "upper"}:
        return None
    psi, alpha = ix.phi, bx.alpha
    lower_first = bx.kind == "lower"
    m = -psi.image_len(0) - (ix if lower_first else iy).anchor
    rebuilt = [shift(substitute(psi, shift(cls(alpha), 1)), m)
               for cls in (MechanicalLower, MechanicalUpper)]
    first, second = (pair.x, pair.y) if lower_first else (pair.y, pair.x)
    if not (oracles_equal(first, rebuilt[0]) and oracles_equal(second, rebuilt[1])):
        raise RuntimeError(f"normal forms of {pair.x!r} and {pair.y!r} do not rebuild the pair")
    phi, base = (psi, bx) if lower_first else swap_base(psi, bx)
    return ClassificationResult(
        case="recurrent",
        phi=phi,
        m=m,
        x_is_first=True,
        base=MechanicalBase(base.alpha),
        verified_to=None,
        verify_window=window,
    )


def _witness_or_inconclusive(pair: AsymptoticPair, depth: Optional[int],
                             resource: str) -> ClassifyOutcome:
    """The shortest witness up to ``depth``, else Inconclusive(resource); a
    first failure at any shorter length is the first failure at depth."""
    verdict = None if depth is None else check_indistinguishable(pair, depth)
    if verdict is None or verdict.passed:
        return Inconclusive(resource)
    return NotIndistinguishable(verdict.witness)


def _classify_non_recurrent(pair: AsymptoticPair, window: tuple[int, int],
                            max_len: Optional[int]) -> ClassifyOutcome:
    """sigma^m phi(^inf0.10^inf, ^inf0.010^inf), phi non-erasing: |w| = |s| >= 1, |v| >= 1.
    Else one check, at least max_len deep, for a witness (none if max_len is None)."""
    lo_f, hi_f = pair.span()
    s = shift_relation(pair.x, pair.y)
    shift_s = abs(s or 0)
    k = max(hi_f - lo_f + 1, shift_s + 1)
    depth = None if max_len is None else max(max_len, 2 * (k + shift_s) + 4)
    if s is None:
        return _witness_or_inconclusive(pair, depth, "members are not shown to be shifts of one another")
    x, y = (pair.x, pair.y) if s > 0 else (pair.y, pair.x)

    xp = shift(x, lo_f)
    # full length-s period words; taking primitive roots here would break the
    # common-shift property whenever the eventual period divides s properly
    u = xp.window(k, k + shift_s - 1)
    w = xp.window(-shift_s, -1)

    # |w| = |u|, so the first occurrence of w in u + u is at some off < |u|
    # and spells u[off:] + u[:off]: w is that conjugate of u
    off = next(iter(occurrences(w, u + u)), None)
    if off is None:
        return _witness_or_inconclusive(pair, depth, "conjugacy construction failed without a witness")
    v = xp.window(0, k - shift_s - 1)
    phi = Substitution({0: w, 1: v + u[:off]}, BINARY, pair.alphabet)

    # the base pair (^inf0.10^inf, ^inf0.010^inf)
    rx, ry = (shift(substitute(phi, EventuallyPeriodic.from_strings("0", "", z, "0")), -lo_f)
              for z in ("10", "010"))
    if not (oracles_equal(x, rx) and oracles_equal(y, ry)):
        return _witness_or_inconclusive(pair, depth, "rebuilt pair does not match the input")

    # the limit classification wants the member reading 10 on {-1, 0} first
    rational = None
    if (pair.alphabet == BINARY and pair.diff == frozenset({-1, 0})
            and (ends := pair.x.window(-1, 0)) in ((1, 0), (0, 1))):
        rational = (_limit_class(pair.x, pair.y, s) if ends == (1, 0)
                    else _limit_class(pair.y, pair.x, -s))

    return ClassificationResult(
        case="non_recurrent",
        phi=phi,
        m=-lo_f,
        x_is_first=s > 0,
        base=NonRecurrentBase(rational),
        verified_to=None,
        verify_window=window,
    )
