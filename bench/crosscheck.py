#!/usr/bin/env python3
"""Time single library calls at the sizes of the ROADMAP baseline table.

    python3 bench/crosscheck.py

Prints one JSON line per call with the ROADMAP figure, the measured time and
their ratio; ``flag`` marks a ratio outside [0.1, 10].  The 66 s L=800 check
and the 3.8 s at(10^6) read are left out to keep the run short.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(Path(__file__).resolve().parent), str(ROOT / "src")]

from fractions import Fraction  # noqa: E402

from sturmkit import derive, patterns  # noqa: E402
from sturmkit.sequences import BINARY, MechanicalLower, Substitution, substitute  # noqa: E402
from workloads import SLOPES, _anchored_image, _certified_mech_pair, slope_value  # noqa: E402

GOLDEN = slope_value(SLOPES["golden"])
FIB = Substitution({0: (0, 1), 1: (0,)}, BINARY, BINARY)


def fib5_pair():
    fib5 = FIB
    for _ in range(4):
        fib5 = FIB.compose(fib5)
    base = patterns.shift_pair(_certified_mech_pair("golden"), -1)
    return _anchored_image((fib5.images[0], fib5.images[1]), 2, base)


def cli_generate():
    subprocess.run([sys.executable, "-m", "sturmkit.cli", "generate", "--expr", "lower(5/13)",
                    "--window", "0:12"], cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")},
                   check=True, capture_output=True)


CASES = [
    ("check_indistinguishable(golden, 50)", 0.03,
     lambda: patterns.check_indistinguishable(_certified_mech_pair("golden"), 50)),
    ("check_indistinguishable(golden, 200)", 1.4,
     lambda: patterns.check_indistinguishable(_certified_mech_pair("golden"), 200)),
    ("SubstImage(fib, lower(golden)).at(10^4)", 0.04,
     lambda: substitute(FIB, MechanicalLower(GOLDEN)).at(10 ** 4)),
    ("SubstImage(fib, lower(golden)).at(10^5)", 0.65,
     lambda: substitute(FIB, MechanicalLower(GOLDEN)).at(10 ** 5)),
    ("MechanicalLower(golden).at(10^50)", 30e-6,
     lambda: MechanicalLower(GOLDEN).at(10 ** 50)),
    ("20k-symbol window, rational 5/13", 0.21,
     lambda: MechanicalLower(Fraction(5, 13)).window(0, 19999)),
    ("20k-symbol window, golden", 0.09,
     lambda: MechanicalLower(GOLDEN).window(0, 19999)),
    ("classify(Fibonacci^5 image, +-64)", 0.015,
     lambda: derive.classify(fib5_pair(), window=(-64, 64))),
    ("classify(Fibonacci^5 image, +-400, max_len 60)", 0.13,
     lambda: derive.classify(fib5_pair(), window=(-400, 400), max_len=60)),
    ("CLI generate (subprocess wall)", 0.2, cli_generate),
]


def main() -> int:
    for name, roadmap_s, call in CASES:
        t0 = perf_counter()
        call()
        measured = perf_counter() - t0
        ratio = measured / roadmap_s
        print(json.dumps({"call": name, "roadmap_s": roadmap_s, "measured_s": measured,
                          "ratio": ratio, "flag": not 0.1 <= ratio <= 10}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
