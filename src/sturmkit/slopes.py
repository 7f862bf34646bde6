"""Exact slope arithmetic for mechanical words.

A slope is either a ``fractions.Fraction`` or a :class:`QuadraticIrrational`
``(a + b*sqrt(d)) / c``.  Every floor/ceil decision reduces to integer
comparisons (via ``math.isqrt``), so no symbol of a mechanical word ever
depends on floating point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

Rational = Fraction


def _square_part(d: int) -> tuple[int, int]:
    # d = s*s * f with f squarefree; trial division is fine for the small
    # discriminants this library works with.
    s, f, q = 1, 1, d
    p = 2
    while p * p <= q:
        e = 0
        while q % p == 0:
            q //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            f *= p
        p += 1 if p == 2 else 2
    return s, f * q


@dataclass(frozen=True)
class QuadraticIrrational:
    """The real number (a + b*sqrt(d)) / c, guaranteed irrational.

    Canonical form: d squarefree and > 1, b != 0, c > 0, gcd(a, b, c) = 1.
    Two values are equal iff their canonical fields coincide, so dataclass
    equality is value equality.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        a, b, c, d = self.a, self.b, self.c, self.d
        if c == 0:
            raise ValueError("zero denominator")
        if b == 0:
            raise ValueError("b = 0 would make the value rational")
        if d <= 0:
            raise ValueError("d must be positive")
        s, f = _square_part(d)
        if f == 1:
            raise ValueError(f"sqrt({d}) is an integer; use Fraction instead")
        b, d = b * s, f
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        object.__setattr__(self, "a", a // g)
        object.__setattr__(self, "b", b // g)
        object.__setattr__(self, "c", c // g)
        object.__setattr__(self, "d", d)

    def __float__(self) -> float:
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def __str__(self) -> str:
        return f"({self.a}{self.b:+d}*sqrt({self.d}))/{self.c}"

    def compare_fraction(self, r: Fraction) -> int:
        """Sign of self - r, decided in integer arithmetic."""
        # (a + b*sqrt(d))/c - p/q  ~  (a*q - p*c) + b*q*sqrt(d)   (c, q > 0)
        A = self.a * r.denominator - r.numerator * self.c
        B = self.b * r.denominator
        return _sign_a_plus_b_sqrt(A, B, self.d)


Slope = Union[Fraction, QuadraticIrrational]


def _sign_a_plus_b_sqrt(A: int, B: int, d: int) -> int:
    """Sign of A + B*sqrt(d) for integers A, B and non-square d > 1."""
    if B == 0:
        return (A > 0) - (A < 0)
    if B > 0:
        if A >= 0:
            return 1
        # compare B*sqrt(d) with -A > 0
        lhs, rhs = B * B * d, A * A
        return (lhs > rhs) - (lhs < rhs)
    return -_sign_a_plus_b_sqrt(-A, -B, d)


def _floor_quadratic(A: int, B: int, C: int, d: int) -> int:
    """floor((A + B*sqrt(d)) / C) with C > 0, exactly."""
    if B == 0:
        return A // C
    # s < |B|*sqrt(d) < s+1 (the root is irrational), so floor(A + B*sqrt(d))
    # is A + s or A - s - 1, and floor(x / C) = floor(floor(x) / C)
    s = math.isqrt(B * B * d)
    return (A + (s if B > 0 else -(s + 1))) // C


def is_rational(alpha: Slope) -> bool:
    return isinstance(alpha, Fraction)


def check_slope(alpha: Slope) -> Slope:
    """Validate alpha in [0, 1] and return it."""
    if isinstance(alpha, Fraction):
        if not (0 <= alpha <= 1):
            raise ValueError(f"slope {alpha} outside [0, 1]")
        return alpha
    if isinstance(alpha, QuadraticIrrational):
        if alpha.compare_fraction(Fraction(0)) < 0 or alpha.compare_fraction(Fraction(1)) > 0:
            raise ValueError(f"slope {alpha} outside [0, 1]")
        return alpha
    raise TypeError(f"not a slope: {alpha!r}")


def floor_mul_add(alpha: Slope, n: int, rho: Fraction = Fraction(0)) -> int:
    """Exact floor(alpha*n + rho)."""
    if not isinstance(alpha, QuadraticIrrational):
        return math.floor(alpha * n + rho)
    # (a + b sqrt d)/c * n + p/q = ((a n q + p c) + (b n q) sqrt d) / (c q)
    p, q = rho.numerator, rho.denominator
    A = alpha.a * n * q + p * alpha.c
    B = alpha.b * n * q
    return _floor_quadratic(A, B, alpha.c * q, alpha.d)


def ceil_mul_add(alpha: Slope, n: int, rho: Fraction = Fraction(0)) -> int:
    """Exact ceil(alpha*n + rho)."""
    if not isinstance(alpha, QuadraticIrrational):
        return math.ceil(alpha * n + rho)
    p, q = rho.numerator, rho.denominator
    A = alpha.a * n * q + p * alpha.c
    B = alpha.b * n * q
    return -_floor_quadratic(-A, -B, alpha.c * q, alpha.d)


_FIXED_BITS = 128  # any window fits far below 2^127 symbols


@lru_cache(maxsize=64)
def _fixed_point(alpha: QuadraticIrrational) -> int:
    """floor(alpha * 2^_FIXED_BITS), the per-step increment of floor_steps."""
    return _floor_quadratic(alpha.a << _FIXED_BITS, alpha.b << _FIXED_BITS, alpha.c, alpha.d)


def floor_steps(alpha: Slope, lo: int, hi: int, rho: Fraction = Fraction(0)) -> tuple[int, ...]:
    """The steps floor(alpha*(n+1) + rho) - floor(alpha*n + rho) for n = lo..hi.

    Each step is 0 or 1 because 0 <= alpha <= 1, so a run costs O(hi - lo)
    integer operations.  A rational slope p/q carries the remainder of the
    numerator modulo the common denominator through one period of q steps,
    which then repeats.  A quadratic slope is followed in fixed point with
    K = 128 fractional bits from one exact floor at lo: the running value
    under-estimates (alpha*n + rho)*2^K by less than 1 + (n - lo), so its
    integer part is exact unless the fraction sits that close to a carry;
    there, which practically never happens, the value is re-anchored with one
    exact floor.
    """
    count = hi - lo + 1
    if count <= 0:
        return ()
    r, t = rho.numerator, rho.denominator
    if not isinstance(alpha, QuadraticIrrational):
        # floor(alpha*n + rho) = (p*t*n + r*q) // (q*t)
        p, q = alpha.numerator, alpha.denominator
        den, inc = q * t, p * t
        rem = (inc * lo + r * q) % den
        period = []
        for _ in range(min(q, count)):
            rem += inc
            if rem >= den:
                rem -= den
                period.append(1)
            else:
                period.append(0)
        return tuple((period * (count // q + 1))[:count])
    # (alpha*n + rho) * 2^K = (A + B*sqrt(d)) / (c*t) with A = (a*t*n + r*c) << K, B = (b*t*n) << K
    a, b, c, d = alpha.a, alpha.b, alpha.c, alpha.d
    bits, ct = _FIXED_BITS, c * t
    one = 1 << bits

    def anchor(n: int) -> tuple[int, int]:
        """floor(alpha*n + rho) and the fractional part in fixed point, both exact."""
        return divmod(_floor_quadratic((a * t * n + r * c) << bits, (b * t * n) << bits, ct, d), one)

    step = _fixed_point(alpha)
    limit = one - 1 - count  # below this the carry of the running value is exact
    whole, frac = anchor(lo)
    prev, out = whole, []
    for n in range(lo + 1, hi + 2):
        frac += step
        if frac >= one:
            frac -= one
            whole += 1
        if frac > limit:
            whole, frac = anchor(n)
        out.append(whole - prev)
        prev = whole
    return tuple(out)


def floor_ratio(m: int, u: int, v: int, alpha: Slope) -> int:
    """Exact floor(m / (u + v*alpha)); requires u + v*alpha > 0."""
    if not isinstance(alpha, QuadraticIrrational):
        p, q = alpha.numerator, alpha.denominator
        return (m * q) // (u * q + v * p)
    # u + v*alpha = (P + Q*sqrt(d)) / c, and c / (P + Q*sqrt(d)) = c*(P - Q*sqrt(d)) / N
    d = alpha.d
    P, Q = u * alpha.c + v * alpha.a, v * alpha.b
    N = P * P - Q * Q * d
    A, B = m * alpha.c * P, -m * alpha.c * Q
    if N < 0:
        A, B, N = -A, -B, -N
    return _floor_quadratic(A, B, N, d)


def continued_fraction(alpha: Slope, k: int) -> list[int]:
    """First k partial quotients of alpha (all of them if alpha is rational)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(alpha, Fraction):
        out = []
        p, q = alpha.numerator, alpha.denominator
        while q and len(out) < k:
            a, r = divmod(p, q)
            out.append(a)
            p, q = q, r
        return out
    # iterate x -> 1/(x - floor(x)) on exact (A + B*sqrt(d)) / C states
    A, B, C, d = alpha.a, alpha.b, alpha.c, alpha.d
    out = []
    for _ in range(k):
        a = _floor_quadratic(A, B, C, d)
        out.append(a)
        A -= a * C
        # invert: C / (A + B sqrt d) = C*(A - B sqrt d) / (A^2 - B^2 d)
        A, B, C = C * A, -C * B, A * A - B * B * d
        if C < 0:
            A, B, C = -A, -B, -C
        g = math.gcd(math.gcd(abs(A), abs(B)), C)
        A, B, C = A // g, B // g, C // g
    return out


_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")
_QUADRATIC_RE = re.compile(
    r"^\(([+-]?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/([+-]?\d+)$"
)


def parse_slope(text: str) -> Slope:
    """Parse ``p/q`` or ``(a+b*sqrt(d))/c``; whitespace-insensitive."""
    s = re.sub(r"\s+", "", text)
    m = _RATIONAL_RE.match(s)
    if m:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        return check_slope(Fraction(num, den))
    m = _QUADRATIC_RE.match(s)
    if m:
        a, b, d, c = (int(m.group(i)) for i in (1, 2, 3, 4))
        return check_slope(QuadraticIrrational(a, b, c, d))
    raise ValueError(f"cannot parse slope {text!r} (expected p/q or (a+b*sqrt(d))/c)")


def format_slope(alpha: Slope) -> str:
    if isinstance(alpha, Fraction):
        return f"{alpha.numerator}/{alpha.denominator}"
    return str(alpha)
