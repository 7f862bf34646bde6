"""Exact slope arithmetic for mechanical words.

A slope is either a ``fractions.Fraction`` or a :class:`QuadraticIrrational`
``(a + b*sqrt(d)) / c``.  Every floor/ceil decision reduces to integer
comparisons (via ``math.isqrt``), so no symbol of a mechanical word ever
depends on floating point, nor does a window read along the Gauss map.
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


def _fraction_part(r: int, s: int, t: int, d: int) -> tuple[int, int, int]:
    """(r + s*sqrt(d))/t mod 1, in lowest terms (t > 0)."""
    r -= _floor_quadratic(r, s, t, d) * t
    g = math.gcd(r, s, t)
    return r // g, s // g, t // g


@lru_cache(maxsize=256)  # the Gauss-map orbits of the slopes in use
def _gauss(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """floor(1/alpha) and {1/alpha} = (A + B*sqrt(d))/C as (k, A, B, C), for
    alpha = (a + b*sqrt(d))/c > 0."""
    # c / (a + b sqrt d) = c*(a - b sqrt d) / (a^2 - b^2 d)
    A, B, C = c * a, -c * b, a * a - b * b * d
    if C < 0:
        A, B, C = -A, -B, -C
    return (_floor_quadratic(A, B, C, d), *_fraction_part(A, B, C, d))


def _lower_bytes(n: int, a: int, b: int, c: int, r: int, s: int, t: int, d: int,
                 zero: bytes, one: bytes) -> bytes:
    """Steps 0..n-1 of lower(alpha, rho), spelled with the bytes zero and one,
    for alpha = (a + b*sqrt(d))/c in [0, 1] and rho = (r + s*sqrt(d))/t in
    [0, 1), c, t > 0: a desubstitution along the Gauss map.

    For alpha <= 1/2 with k = floor(1/alpha), the symbol at m lies in block
    floor(alpha*m + rho), and block j, which starts at ceil((j - rho)/alpha),
    reads tau_k(upper({1/alpha}, -rho/alpha)_j) with tau_k: 0 -> 0^(k-1)1,
    1 -> 0^k1.  For alpha > 1/2 the word is the complement of
    upper(1 - alpha, -rho).  Upper words are mirrored lower words, and each
    intercept is brought back into [0, 1), so every level reads a window that
    starts at 0; a tau_k level at least halves it, down to slope 0 (all
    zeros) or a handful of blocks, whose starts are read by direct floors
    whatever k is.  A rational word repeats with period c.  Every intercept
    stays in Q(sqrt(d)), so every symbol is decided by exact floors.
    """
    if a == 0 and b == 0:
        return zero * n
    if b == 0 and c < n:
        return (_lower_bytes(c, a, b, c, r, s, t, d, zero, one) * (n // c + 1))[:n]
    if _sign_a_plus_b_sqrt(2 * a - c, 2 * b, d) > 0:
        # lower(alpha, rho)_m = 1 - lower(1 - alpha, rho - (1 - alpha)*n)_(n-1-m)
        a, b = c - a, -b
        r, s, t = _fraction_part(r * c - t * a * n, s * c - t * b * n, t * c, d)
        return _lower_bytes(n, a, b, c, r, s, t, d, one, zero)[::-1]
    # blocks 0..ones cover the window, and its ones end blocks 0..ones - 1
    ones = _floor_quadratic(a * n * t + r * c, b * n * t + s * c, c * t, d)
    k, a, b, c = _gauss(a, b, c, d)
    # 1/alpha = (ka + b*sqrt(d))/c for beta = {1/alpha} = (a + b*sqrt(d))/c,
    # and rho/alpha = (p + q*sqrt(d))/u
    ka = a + k * c
    p, q, u = r * ka + s * b * d, r * b + s * ka, t * c
    if ones <= 8:  # a one before each block start -floor((rho - j)/alpha)
        word = bytearray(zero * n)
        for j in range(1, ones + 1):
            word[-_floor_quadratic(p - j * t * ka, q - j * t * b, u, d) - 1] = one[0]
        return bytes(word)
    # blocks 0..ones read upper(beta, -rho/alpha), which is lower(beta,
    # rho/alpha - beta*(ones + 1)) backwards; spelled with the other pair of
    # bytes, it expands by tau_k in two passes, and block 0 starts at -head
    head = _floor_quadratic(p, q, u, d)
    r, s, t = _fraction_part(p - t * (ones + 1) * a, q - t * (ones + 1) * b, u, d)
    z, o = (b"\x02", b"\x03") if zero < b"\x02" else (b"\x00", b"\x01")
    base = _lower_bytes(ones + 1, a, b, c, r, s, t, d, z, o)[::-1]
    return base.replace(z, zero * (k - 1) + one).replace(o, zero * k + one)[head:head + n]


def floor_steps(alpha: Slope, lo: int, hi: int, rho: Fraction = Fraction(0)) -> tuple[int, ...]:
    """The steps floor(alpha*(n+1) + rho) - floor(alpha*n + rho), each 0 or 1,
    for n = lo..hi: O(log(hi - lo)) exact floors plus O(hi - lo) byte
    operations at any position and for either slope kind (``_lower_bytes``)."""
    if isinstance(alpha, QuadraticIrrational):
        a, b, c, d = alpha.a, alpha.b, alpha.c, alpha.d
    else:
        a, b, c, d = alpha.numerator, 0, alpha.denominator, 0
    # lower(alpha, rho) on [lo, hi] is lower(alpha, {rho + alpha*lo}) on [0, hi - lo]
    q = rho.denominator
    r, s, t = _fraction_part(a * lo * q + rho.numerator * c, b * lo * q, c * q, d)
    return tuple(_lower_bytes(hi - lo + 1, a, b, c, r, s, t, d, b"\x00", b"\x01"))


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
    # the Gauss map x -> {1/x} on exact (A + B*sqrt(d)) / C states
    A, B, C, d = alpha.a, alpha.b, alpha.c, alpha.d
    out = [_floor_quadratic(A, B, C, d)]
    A -= out[0] * C
    while len(out) < k:
        a, A, B, C = _gauss(A, B, C, d)
        out.append(a)
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
