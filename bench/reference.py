"""Independent reference evaluation of benchmark inputs.

The benchmark checks every answer against this module, which shares no code
with the library: mechanical words are evaluated by the integer formula
floor(p(n+1)/q) - floor(pn/q) (rational slopes) or with one ``math.isqrt``
per floor (quadratic slopes), and substitution images are expanded block by
block from position 0.  Inputs are plain tuples ("specs"):

    ("mech", kind, slope, rho)    kind 'lower' | 'upper'; slope is (p, q) for
                                  p/q or (a, b, c, d) for (a + b*sqrt(d))/c;
                                  rho is (num, den)
    ("evp", u, y, z, w)           ^inf(u) y . z (w)^inf, words as int tuples
    ("shift", spec, k)            n -> spec(n + k)
    ("rev", spec)                 n -> spec(-n)
    ("sub", images, spec)         images: tuple of int tuples, anchor 0
"""

from __future__ import annotations

import math

_CHUNK = 4096


def floor_div(num: int, b: int, d: int, den: int) -> int:
    """floor((num + b*sqrt(d)) / den) for den > 0 and non-square d."""
    if b == 0:
        return num // den
    root = math.isqrt(b * b * d)  # b*sqrt(d) is irrational, so never equal
    return (num + (root if b > 0 else -root - 1)) // den


def _mech_floor(slope: tuple, rho: tuple, n: int, kind: str) -> int:
    """floor(alpha*n + rho) for 'lower', ceil(alpha*n + rho) for 'upper'."""
    rn, rd = rho
    sign = 1 if kind == "lower" else -1
    if len(slope) == 2:
        p, q = slope
        return sign * ((sign * (p * n * rd + rn * q)) // (q * rd))
    a, b, c, d = slope
    num = a * n * rd + rn * c
    return sign * floor_div(sign * num, sign * b * n * rd, d, c * rd)


def window(spec: tuple, lo: int, hi: int) -> list[int]:
    """Symbols of the spec at positions lo..hi inclusive."""
    tag = spec[0]
    if tag == "mech":
        _, kind, slope, rho = spec
        floors = [_mech_floor(slope, rho, n, kind) for n in range(lo, hi + 2)]
        return [b - a for a, b in zip(floors, floors[1:])]
    if tag == "evp":
        return [_evp_at(spec, n) for n in range(lo, hi + 1)]
    if tag == "shift":
        return window(spec[1], lo + spec[2], hi + spec[2])
    if tag == "rev":
        return window(spec[1], -hi, -lo)[::-1]
    if tag == "sub":
        return _sub_window(spec[1], spec[2], lo, hi)
    raise ValueError(f"unknown spec {tag!r}")


def _evp_at(spec: tuple, n: int) -> int:
    _, u, y, z, w = spec
    if n >= 0:
        return z[n] if n < len(z) else w[(n - len(z)) % len(w)]
    j = -n - 1  # 0 is the symbol just left of the origin
    return y[len(y) - 1 - j] if j < len(y) else u[len(u) - 1 - (j - len(y)) % len(u)]


def _sub_window(images: tuple, base: tuple, lo: int, hi: int) -> list[int]:
    out: list[int] = []
    if hi >= 0:  # blocks 0, 1, 2, ... start at 0 and grow rightward
        pos, i = 0, 0
        right: list[int] = []
        while pos <= hi:
            for s in window(base, i, i + _CHUNK - 1):
                block = images[s]
                if pos + len(block) > lo:
                    right.extend(block[max(0, lo - pos):hi - pos + 1])
                pos += len(block)
                if pos > hi:
                    break
            i += _CHUNK
        out = right
    if lo < 0:  # blocks -1, -2, ... end at -1 and grow leftward
        pos, i = 0, -1
        left: list[int] = []  # reversed symbols
        while pos > lo:
            for s in reversed(window(base, i - _CHUNK + 1, i)):
                block = images[s]
                start = pos - len(block)
                for k in range(len(block) - 1, -1, -1):
                    if lo <= start + k <= hi:
                        left.append(block[k])
                pos = start
                if pos <= lo:
                    break
            i -= _CHUNK
        out = left[::-1] + out
    return out


def factor_counts(word: list[int], max_n: int) -> list[int]:
    """Number of distinct length-n factors of word for n = 1..max_n."""
    text = "".join(map(str, word))
    return [len({text[i:i + n] for i in range(len(text) - n + 1)})
            for n in range(1, max_n + 1)]


def lower_christoffel(p: int, q: int) -> list[int]:
    """Lower Christoffel word with p ones and q zeros (slope p/(p+q))."""
    return window(("mech", "lower", (p, p + q), (0, 1)), 0, p + q - 1)


def limit_pair_specs(p: int, q: int, side: str) -> tuple[tuple, tuple]:
    """The one-sided limit pair at slope p/(p+q), p, q >= 1, from its formulas."""
    m = tuple(lower_christoffel(p, q)[1:-1])
    lower, upper = (0,) + m + (1,), (1,) + m + (0,)
    ones, zeros = (1,) + m + (1,), (0,) + m + (0,)
    if side == "above":
        return ("evp", upper, ones, (), lower), ("evp", upper, (), ones, lower)
    return ("evp", lower, (), zeros, upper), ("evp", lower, zeros, (), upper)
