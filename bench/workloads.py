"""Seeded workloads: each builds a list of ops from a seed.

An op runs one library call and a separate check compares its answer with
``reference`` (or with the verdict known by construction).  Ops are grouped
into blocks that each hold the workload's whole mix, and blocks are shuffled
internally, so any prefix of whole blocks is a balanced sample; the traced
run uses the first ``trace_blocks`` blocks.

Library functions are looked up through their modules at call time so that
the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import reference as ref
from sturmkit import cli, derive, language, patterns, sequences
from sturmkit.patterns import Pattern
from sturmkit.sequences import (
    BINARY,
    EventuallyPeriodic,
    MechanicalLower,
    MechanicalUpper,
    Substitution,
    alphabet_of_size,
)
from sturmkit.slopes import QuadraticIrrational

# the package re-exports a function named christoffel over the module name
christoffel = importlib.import_module("sturmkit.christoffel")

SLOPES = {
    "golden": (-1, 1, 2, 5),        # (sqrt5 - 1)/2
    "sqrt2/2": (0, 1, 2, 2),
    "(3-sqrt5)/2": (3, -1, 2, 5),
}
ZERO = (0, 1)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, Optional[BaseException]], bool]


@dataclass
class Workload:
    blocks: list[list[Op]]
    trace_blocks: int

    @property
    def ops(self) -> list[Op]:
        return [op for block in self.blocks for op in block]

    def trace_ops(self) -> list[Op]:
        return [op for block in self.blocks[:self.trace_blocks] for op in block]


def slope_value(slope: tuple):
    return Fraction(*slope) if len(slope) == 2 else QuadraticIrrational(*slope)


def build_oracle(spec: tuple):
    """Library oracle for a reference spec (see ``reference``)."""
    tag = spec[0]
    if tag == "mech":
        _, kind, slope, rho = spec
        cls = MechanicalLower if kind == "lower" else MechanicalUpper
        return cls(slope_value(slope), Fraction(*rho))
    if tag == "evp":
        return EventuallyPeriodic(*spec[1:], BINARY)
    if tag == "shift":
        return sequences.shift(build_oracle(spec[1]), spec[2])
    if tag == "rev":
        return sequences.reverse(build_oracle(spec[1]))
    if tag == "sub":
        _, images, base_spec, size = spec
        base = build_oracle(base_spec)
        phi = Substitution(dict(enumerate(images)), base.alphabet, alphabet_of_size(size))
        return sequences.substitute(phi, base)
    raise ValueError(f"unknown spec {tag!r}")


def mech(kind: str, slope_name: str, rho: tuple = ZERO) -> tuple:
    return ("mech", kind, SLOPES[slope_name], rho)


# image shapes (letters, |phi(0)|, |phi(1)|); workloads cover them evenly so
# that seeds vary the letters, not the mix of image lengths
SHAPES = [(size, n0, n1) for size in (2, 3, 4) for n0 in range(1, 5) for n1 in range(1, 5)]


def random_noncommuting(rng: random.Random, shape: tuple) -> tuple:
    """Non-commuting images of 0 and 1 with the given shape, letters drawn from rng."""
    size, n0, n1 = shape
    while True:
        im0 = tuple(rng.randrange(size) for _ in range(n0))
        im1 = tuple(rng.randrange(size) for _ in range(n1))
        if im0 + im1 != im1 + im0:
            return (im0, im1)


def _shuffled_blocks(rng: random.Random, blocks: list[list[Op]]) -> list[list[Op]]:
    for block in blocks:
        rng.shuffle(block)
    rng.shuffle(blocks)
    return blocks


# ---------------------------------------------------------------------------
# indist-deep: check_indistinguishable on pairs certified during set-up

# one control and four checks per pair, so the median op is an L=100 check and
# the tail an L=150 one: both spend their time where the long checks do
INDIST_LENGTHS = (25, 100, 150, 150)
# half of all image shapes, chequered over the lengths: enough pairs that the
# median and tail do not hinge on the letters one seed happens to draw
INDIST_SHAPES = [shape for shape in SHAPES if (shape[1] + shape[2]) % 2 == 0]
CONTROL_LENGTHS = (25, 150)


def _check_op(label: str, pair, length: int, frozen: Optional[int] = None) -> Op:
    """check_indistinguishable(pair, length); the pair passes by construction,
    or is a control that first fails at the frozen length."""
    def run():
        return patterns.check_indistinguishable(pair, length)

    def check(verdict, err):
        if err is not None:
            return False
        if frozen is None:
            return verdict.passed and verdict.witness is None and verdict.lengths_checked == length
        if verdict.passed or verdict.lengths_checked != frozen:
            return False
        return patterns.discrepancy(Pattern.from_word(verdict.witness), pair) != 0

    return Op(f"{label}/L{length}", run, check)


def _certified_mech_pair(slope_name: str):
    return patterns.certify_asymptotic(
        build_oracle(mech("lower", slope_name)), build_oracle(mech("upper", slope_name)), 4
    )


def _anchored_image(images: tuple, size: int, base):
    """Image of a pair with difference set {0, 1}, shifted to start at 0."""
    phi = Substitution(dict(enumerate(images)), BINARY, alphabet_of_size(size))
    image = patterns.substitute_pair(phi, base)
    return patterns.shift_pair(image, min(image.diff))


def indist_deep(seed: int) -> Workload:
    rng = random.Random(seed)
    pairs = [(name, _certified_mech_pair(name)) for name in SLOPES]
    for i, shape in enumerate(INDIST_SHAPES):
        name = list(SLOPES)[i % len(SLOPES)]
        images = random_noncommuting(rng, shape)
        base = patterns.shift_pair(_certified_mech_pair(name), -1)
        pairs.append((f"image{i}", _anchored_image(images, shape[0], base)))
    fib = Substitution({0: (0, 1), 1: (0,)}, BINARY, BINARY)
    fib5 = fib
    for _ in range(4):
        fib5 = fib.compose(fib5)
    golden = patterns.shift_pair(_certified_mech_pair("golden"), -1)
    pairs.append(("fib5", _anchored_image(tuple(fib5.images[s] for s in (0, 1)), 2, golden)))

    evp = EventuallyPeriodic.from_strings
    remark = patterns.certify_asymptotic(
        evp("100110", "100111", "", "000111"), evp("100110", "", "100111", "000111"), 4
    )
    # frozen first failing lengths of the distinguishable controls
    controls = [
        ("toeplitz", language.toeplitz_pair(), 1),
        ("toeplitz-tm", language.toeplitz_thue_morse_pair(), 2),
        ("remark", remark, 2),
    ]
    blocks = []
    for i, (label, pair) in enumerate(pairs):
        block = [_check_op(label, pair, length) for length in INDIST_LENGTHS]
        length = CONTROL_LENGTHS[(i // len(controls)) % len(CONTROL_LENGTHS)]
        c_label, c_pair, frozen = controls[i % len(controls)]
        block.append(_check_op(c_label, c_pair, length, frozen))
        blocks.append(block)
    return Workload(_shuffled_blocks(rng, blocks), trace_blocks=2)


# ---------------------------------------------------------------------------
# classify-suite: certify_asymptotic then classify, on freshly built oracles

CLASSIFY_WINDOWS = ((-50, 50), (-400, 400))
CLASSIFY_MAX_LEN = 10
# each block: CLASSIFY_RECURRENT recurrent ops, half on each window, and four
# cheap ones, so the median op is the middle recurrent op on the short window
CLASSIFY_RECURRENT = 8
CLASSIFY_ROUNDS = 6  # every (shape, window) meets each slope twice
LIMIT_SLOPES = [(p, q) for p in range(1, 9) for q in range(1, 9) if math.gcd(p, q) == 1]
BASE_X = ("evp", (0,), (), (1, 0), (0,))    # ^inf0 . 10 ^inf0
BASE_Y = ("evp", (0,), (), (0, 1, 0), (0,))  # ^inf0 . 010 ^inf0


def _reference_pair(x_spec: tuple, y_spec: tuple, window: tuple[int, int]) -> Callable:
    """Reference windows of an input pair, computed on first use."""
    return functools.cache(lambda: tuple(tuple(ref.window(s, *window)) for s in (x_spec, y_spec)))


def _rebuilt_matches(out, rx, ry, expected: Callable, window: tuple[int, int]) -> bool:
    want_x, want_y = expected()
    first, second = (want_x, want_y) if out.x_is_first else (want_y, want_x)
    return rx.window(*window) == first and ry.window(*window) == second


def _classify_op(kind: str, x_spec: tuple, y_spec: tuple, window, radius: int,
                 verify: Callable) -> Op:
    expected = _reference_pair(x_spec, y_spec, window)

    def run():
        pair = patterns.certify_asymptotic(build_oracle(x_spec), build_oracle(y_spec), radius)
        return derive.classify(pair, window=window, max_len=CLASSIFY_MAX_LEN)

    def check(out, err):
        return err is None and verify(out, expected, window)

    return Op(f"{kind}/w{window[1]}", run, check)


def _verify_recurrent(out, expected, window) -> bool:
    if not isinstance(out, derive.ClassificationResult) or out.case != "recurrent":
        return False
    s, sub = sequences.shift, sequences.substitute
    rx = s(sub(out.phi, s(out.base.lower_oracle, 1)), out.m)
    ry = s(sub(out.phi, s(out.base.upper_oracle, 1)), out.m)
    return _rebuilt_matches(out, rx, ry, expected, window)


def _verify_non_recurrent(out, expected, window, rational=None) -> bool:
    if not isinstance(out, derive.ClassificationResult) or out.case != "non_recurrent":
        return False
    rc = out.base.rational_class
    if rational is not None and (rc is None or (rc.p, rc.q, rc.side) != rational):
        return False
    s, sub = sequences.shift, sequences.substitute
    rx = s(sub(out.phi, build_oracle(BASE_X)), out.m)
    ry = s(sub(out.phi, build_oracle(BASE_Y)), out.m)
    return _rebuilt_matches(out, rx, ry, expected, window)


def _recurrent_op(rng: random.Random, slope_name: str, shape: tuple, window) -> Op:
    size = shape[0]
    images = random_noncommuting(rng, shape)
    m0 = rng.randint(-6, 6)
    x, y = (("shift", ("sub", images, ("shift", mech(kind, slope_name), 1), size), m0)
            for kind in ("lower", "upper"))
    if rng.random() < 0.5:
        x, y = y, x
    return _classify_op("recurrent", x, y, window, 80, _verify_recurrent)


def _non_recurrent_op(rng: random.Random, shape: tuple, window) -> Op:
    size = shape[0]
    images = random_noncommuting(rng, shape)
    m0 = rng.randint(-6, 6)
    x, y = (("shift", ("sub", images, base, size), m0) for base in (BASE_X, BASE_Y))
    if rng.random() < 0.5:
        x, y = y, x
    return _classify_op("non-recurrent", x, y, window, 80, _verify_non_recurrent)


def _limit_op(rng: random.Random, slope: tuple, window) -> Op:
    p, q = slope
    side = rng.choice(("above", "below"))
    expected = _reference_pair(*ref.limit_pair_specs(p, q, side), window)

    def run():
        form = christoffel.limit_pair(p, q, side)
        pair = patterns.certify_asymptotic(form.pair.x, form.pair.y, 4)
        return derive.classify(pair, window=window, max_len=CLASSIFY_MAX_LEN)

    def check(out, err):
        return err is None and _verify_non_recurrent(out, expected, window, (p, q, side))

    return Op(f"limit/w{window[1]}", run, check)


def _toeplitz_op(window) -> Op:
    # limit-of-Toeplitz oracles are outside the closed algebra, so this pair
    # comes certified by construction instead of through certify_asymptotic
    def run():
        pair = language.toeplitz_pair()
        return pair, derive.classify(pair, window=window, max_len=CLASSIFY_MAX_LEN)

    def check(answer, err):
        if err is not None or not isinstance(answer[1], derive.NotIndistinguishable):
            return False
        pair, out = answer
        return patterns.discrepancy(Pattern.from_word(out.witness), pair) != 0

    return Op(f"toeplitz/w{window[1]}", run, check)


def _not_asymptotic_op(rng: random.Random) -> Op:
    first, second = rng.sample(list(SLOPES) + ["rational"], 2)
    specs = [("mech", rng.choice(("lower", "upper")),
              (rng.randint(1, 12), 13) if name == "rational" else SLOPES[name], ZERO)
             for name in (first, second)]

    def run():
        return patterns.certify_asymptotic(build_oracle(specs[0]), build_oracle(specs[1]), 80)

    def check(answer, err):
        return isinstance(err, patterns.NotAsymptoticError)

    return Op("not-asymptotic", run, check)


def classify_suite(seed: int) -> Workload:
    rng = random.Random(seed)
    slopes = list(SLOPES)
    recurrent = [(slopes[r % len(slopes)], shape, window) for r in range(CLASSIFY_ROUNDS)
                 for shape in SHAPES for window in CLASSIFY_WINDOWS]
    rng.shuffle(recurrent)
    blocks = []
    for b in range(len(recurrent) // CLASSIFY_RECURRENT):
        chunk = recurrent[b * CLASSIFY_RECURRENT:(b + 1) * CLASSIFY_RECURRENT]
        block = [_recurrent_op(rng, *args) for args in chunk]
        window = CLASSIFY_WINDOWS[b % 2]
        block.append(_non_recurrent_op(rng, SHAPES[b % len(SHAPES)], window))
        block.append(_limit_op(rng, LIMIT_SLOPES[b % len(LIMIT_SLOPES)], window))
        block.append(_toeplitz_op(CLASSIFY_WINDOWS[b // 2 % 2]))
        block.append(_not_asymptotic_op(rng))
        blocks.append(block)
    return Workload(_shuffled_blocks(rng, blocks), trace_blocks=6)


# ---------------------------------------------------------------------------
# oracle-reads: CLI generate / complexity, run in-process

MEMO_CAP = 4096
FAR_MECH = 10 ** 50
READS_BLOCKS = 32
QUADRATIC_POOL = ((-1, 1, 2, 5), (0, 1, 2, 2), (3, -1, 2, 5), (-1, 1, 1, 2), (1, 1, 4, 3),
                  (-2, 1, 1, 7), (5, -1, 4, 5))


def expr(spec: tuple) -> str:
    """CLI oracle expression for a spec."""
    tag = spec[0]
    if tag == "mech":
        _, kind, slope, (rn, rd) = spec
        if len(slope) == 2:
            text = f"{slope[0]}/{slope[1]}"
        else:
            a, b, c, d = slope
            text = f"({a}{b:+d}*sqrt({d}))/{c}"
        rho = "" if rn == 0 else f",{rn}/{rd}"
        return f"{kind}({text}{rho})"
    if tag == "shift":
        return f"shift({expr(spec[1])},{spec[2]})"
    if tag == "rev":
        return f"rev({expr(spec[1])})"
    if tag == "sub":
        mapping = ";".join(f"{s}:{''.join(map(str, im))}" for s, im in enumerate(spec[1]))
        return f"sub({mapping},{expr(spec[2])})"
    raise ValueError(f"no expression for {tag!r}")


def _random_mech(rng: random.Random, rational: bool) -> tuple:
    if rational:
        q = rng.randint(5, 40)
        slope = (rng.randint(1, q - 1), q)
    else:
        slope = rng.choice(QUADRATIC_POOL)
    rho = ZERO if rng.random() < 0.5 else (rng.randint(-9, 9), rng.randint(10, 19))
    return ("mech", rng.choice(("lower", "upper")), slope, rho)


def _random_images(rng: random.Random, shape: tuple) -> tuple:
    """Non-commuting binary-domain images of the given shape that use every letter."""
    while True:
        images = random_noncommuting(rng, shape)
        if set(images[0] + images[1]) == set(range(shape[0])):
            return images


# substitution shapes for the CLI: 2-3 letters, all of them used
CLI_SHAPES = [shape for shape in SHAPES if shape[0] <= 3 and shape[1] + shape[2] >= shape[0]]


def _glyphs(word) -> str:
    return "".join(map(str, word))


def _cli_op(kind: str, argv: list[str], expected: Callable[[], str]) -> Op:
    expected = functools.cache(expected)

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(answer, err):
        return err is None and answer == (0, expected())

    return Op(kind, run, check)


def _generate_op(kind: str, spec: tuple, lo: int, length: int) -> Op:
    hi = lo + length - 1

    def expected() -> str:
        word = _glyphs(ref.window(spec, lo, hi))
        if lo <= 0 <= hi:
            word = word[:-lo] + "." + word[-lo:]
        return word + "\n"

    return _cli_op(kind, ["generate", "--expr", expr(spec), f"--window={lo}:{hi}"], expected)


def _complexity_op(spec: tuple, lo: int, length: int, max_n: int) -> Op:
    hi = lo + length - 1

    def expected() -> str:
        counts = ref.factor_counts(ref.window(spec, lo, hi), max_n)
        return " ".join(map(str, counts)) + "\n"

    argv = ["complexity", "--x", expr(spec), "--max-n", str(max_n), f"--window={lo}:{hi}"]
    return _cli_op("complexity", argv, expected)


def _strata(rng: random.Random, lo: int, hi: int, step: int) -> list[int]:
    """One value from each of READS_BLOCKS equal slices of [lo, hi]; block b gets
    slice b * step mod READS_BLOCKS, so every seed reads the same spread of sizes
    and positions and different kinds of op are not big in the same block."""
    n = READS_BLOCKS
    return [lo + int(((b * step) % n + rng.random()) * (hi - lo) / n) for b in range(n)]


def oracle_reads(seed: int) -> Workload:
    rng = random.Random(seed)
    below = {r: _strata(rng, 500, MEMO_CAP - 500, 5 + 2 * r) for r in (True, False)}
    above = {r: _strata(rng, MEMO_CAP + 2000, 4 * MEMO_CAP, 11 + 2 * r) for r in (True, False)}
    far_len = {r: _strata(rng, 1000, 3000, 17 + 2 * r) for r in (True, False)}
    sub_far = _strata(rng, 10 ** 4, 10 ** 5, 1)
    blocks = []
    for b in range(READS_BLOCKS):
        block = []
        for rational in (True, False):
            tag = "rational" if rational else "quadratic"
            n = below[rational][b]
            block.append(_generate_op(f"{tag}/below-memo", _random_mech(rng, rational),
                                      rng.randint(-n, 0), n))
            n = above[rational][b]
            block.append(_generate_op(f"{tag}/above-memo", _random_mech(rng, rational),
                                      rng.randint(-n, 0), n))
            far = FAR_MECH * rng.choice((1, -1)) + rng.randint(-10 ** 6, 10 ** 6)
            block.append(_generate_op(f"{tag}/far", _random_mech(rng, rational),
                                      far, far_len[rational][b]))
        wrapped = ("shift", _random_mech(rng, False), rng.randint(-10 ** 4, 10 ** 4))
        if b % 2:
            wrapped = ("rev", wrapped)
        block.append(_generate_op("shift-rev", wrapped, rng.randint(-3000, 0), 3000))
        shape = CLI_SHAPES[b % len(CLI_SHAPES)]
        image = ("sub", _random_images(rng, shape), _random_mech(rng, False), shape[0])
        block.append(_generate_op("sub/near", image, rng.randint(-2000, 0), 2000))
        shape = CLI_SHAPES[(b + len(CLI_SHAPES) // 2) % len(CLI_SHAPES)]
        image = ("sub", _random_images(rng, shape), _random_mech(rng, False), shape[0])
        block.append(_generate_op("sub/far", image, sub_far[b] * (1 if b % 4 < 2 else -1), 1000))
        block.append(_complexity_op(_random_mech(rng, b % 2 == 0),
                                    rng.randint(-1500, 0), 1500, 10 + b % 11))
        blocks.append(block)
    return Workload(_shuffled_blocks(rng, blocks), trace_blocks=2)


WORKLOADS = {
    "indist-deep": indist_deep,
    "classify-suite": classify_suite,
    "oracle-reads": oracle_reads,
}
