"""Command-line front end.

Commands: generate, check-indist, classify, complexity, christoffel,
limit-pair, derive.  Each command returns its document and its text and
prints nothing.  ``main`` stamps the document with ``schema_version`` (5)
and ``command``, prints it as deterministic JSON (``--json``, ``generate
--format json``) or prints the text, and takes the exit code from the
document's status in ``EXIT_CODES`` (a document without a status exits 0):

    pass, classified                          0
    fail, not_indistinguishable (witness)     1
    not_asymptotic                            1
    inconclusive                              2

A pass or classification is ``certified`` "all_lengths" or "up_to_max_len".
One handler in ``main`` turns an outcome raised by any command into
``{"status", "reason"}`` through ``OUTCOMES``: a pair that provably differs
at infinitely many positions is not asymptotic; a pair without a structural
certificate, or a derivation gap, is inconclusive.  Any other ``ValueError``
is an argument or expression error: exit 3, message on stderr.  Derived
views and Sturmian-morphism images have normal forms; images over rho != 0
have none.

Oracle expression grammar::

    lower(<slope>[,<rho>])   upper(<slope>[,<rho>])
    evp(<u>|<y>.<z>|<w>)     shift(<expr>,<k>)
    rev(<expr>)              sub(<g>:<word>;...,<expr>)

Slopes are ``p/q`` or ``(a+b*sqrt(d))/c``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import derive as derive_mod
from .christoffel import (
    christoffel as christoffel_word,
    limit_pair as make_limit_pair,
    palindrome_factorization,
)
from .language import complexity_profile
from .patterns import (
    AsymptoticPair,
    NotAsymptoticError,
    UncertifiableError,
    Verdict,
    check_indistinguishable,
)
from .sequences import (
    Alphabet,
    BINARY,
    EventuallyPeriodic,
    GapError,
    MechanicalLower,
    MechanicalUpper,
    SequenceOracle,
    Substitution,
    difference_set,
    render_window,
    render_word,
    reverse,
    shift,
    substitute,
)
from .slopes import format_slope, parse_slope
from .words import Word

SCHEMA_VERSION = 5

EXIT_CODES = {"pass": 0, "classified": 0, "fail": 1, "not_indistinguishable": 1,
              "not_asymptotic": 1, "inconclusive": 2}
EXIT_USAGE = 3

OUTCOMES = {NotAsymptoticError: "not_asymptotic", UncertifiableError: "inconclusive",
            GapError: "inconclusive"}


class ExprError(ValueError):
    """Oracle expression parse error; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ExprError:
        return ExprError(message, self.pos)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if not self.eof() else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def take_name(self) -> str:
        start = self.pos
        while not self.eof() and self.text[self.pos].isalpha():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an oracle name")
        return self.text[start:self.pos]

    def take_balanced_until(self, stops: str) -> str:
        """Consume text up to a top-level stop character (not consumed)."""
        start = self.pos
        depth = 0
        while not self.eof():
            ch = self.text[self.pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break
                depth -= 1
            elif ch in stops and depth == 0:
                break
            self.pos += 1
        if self.pos == start:
            raise self.error("empty argument")
        return self.text[start:self.pos]

    def parse_expr(self) -> SequenceOracle:
        name = self.take_name()
        self.expect("(")
        if name in ("lower", "upper"):
            slope_text = self.take_balanced_until(",)")
            rho = Fraction(0)
            if self.peek() == ",":
                self.pos += 1
                rho_text = self.take_balanced_until(")")
                rho = _parse_fraction(rho_text, self)
            self.expect(")")
            cls = MechanicalLower if name == "lower" else MechanicalUpper
            try:
                return cls(parse_slope(slope_text), rho)
            except ValueError as exc:
                raise self.error(str(exc))
        if name == "evp":
            body = self.take_balanced_until(")")
            self.expect(")")
            return _parse_evp(body, self)
        if name == "shift":
            base = self.parse_expr()
            self.expect(",")
            amount = self.take_balanced_until(")")
            self.expect(")")
            try:
                return shift(base, int(amount))
            except ValueError:
                raise self.error(f"bad shift amount {amount!r}")
        if name == "rev":
            base = self.parse_expr()
            self.expect(")")
            return reverse(base)
        if name == "sub":
            mapping = self.take_balanced_until(",")
            self.expect(",")
            base = self.parse_expr()
            self.expect(")")
            return substitute(_parse_substitution(mapping, base.alphabet, self), base)
        raise self.error(f"unknown oracle {name!r}")


def _alphabet_for(chars: str) -> Alphabet:
    distinct = sorted(set(chars))
    if set(distinct) <= {"0", "1"}:
        return BINARY
    return Alphabet(tuple(distinct))


def _parse_fraction(text: str, parser: _Parser) -> Fraction:
    try:
        if "/" in text:
            a, b = text.split("/")
            return Fraction(int(a), int(b))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise parser.error(f"bad rational {text!r}")


def _parse_evp(body: str, parser: _Parser) -> EventuallyPeriodic:
    parts = body.split("|")
    if len(parts) == 3:
        u, middle, w = parts
        if "." not in middle:
            raise parser.error("evp middle section needs a '.'")
        y, z = middle.split(".", 1)
    elif len(parts) == 4:
        u, ydot, z, w = parts
        if not ydot.endswith(".") and ydot != ".":
            raise parser.error("evp with four sections needs 'y.' second")
        y = ydot.rstrip(".")
    else:
        raise parser.error("evp wants u|y.z|w")
    alphabet = _alphabet_for(u + y + z + w)
    try:
        return EventuallyPeriodic.from_strings(u, y, z, w, alphabet)
    except ValueError as exc:
        raise parser.error(str(exc))


def _parse_substitution(mapping: str, domain: Alphabet, parser: _Parser) -> Substitution:
    entries = {}
    for item in mapping.split(";"):
        if ":" not in item:
            raise parser.error(f"substitution entry {item!r} wants glyph:word")
        key, image = item.split(":", 1)
        if len(key) != 1 or not image:
            raise parser.error(f"bad substitution entry {item!r}")
        entries[key] = image
    codomain = _alphabet_for("".join(entries.values()))
    try:
        return Substitution.from_strings(entries, domain, codomain)
    except ValueError as exc:
        raise parser.error(str(exc))


def parse_oracle(text: str) -> SequenceOracle:
    parser = _Parser(text.replace(" ", ""))
    oracle = parser.parse_expr()
    if not parser.eof():
        raise parser.error("trailing characters")
    return oracle


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"window {text!r} wants lo:hi")
    if lo_i > hi_i:
        raise ValueError(f"window {text!r} is empty")
    return lo_i, hi_i


def staircase(word: Word) -> str:
    """Monospace lattice path: each 0 is a step right, each 1 a step up."""
    cells: dict[tuple[int, int], str] = {}
    row = col = 0
    for symbol in word:
        if symbol == 0:
            cells[(row, col)] = "_"
            col += 1
        else:
            cells[(row, col)] = "|"
            row += 1
    if not cells:
        return ""
    max_row = max(r for r, _ in cells)
    max_col = max(c for _, c in cells)
    lines = []
    for r in range(max_row, -1, -1):
        line = "".join(cells.get((r, c), " ") for c in range(max_col + 1))
        lines.append(line.rstrip())
    return "\n".join(lines)


def _word_str(alphabet: Alphabet, word) -> str:
    return alphabet.word_to_str(tuple(word))


def cmd_generate(args) -> tuple[dict, str]:
    x = parse_oracle(args.expr)
    lo, hi = _parse_window(args.window)
    word = x.window(lo, hi)
    if args.format == "staircase":
        return {}, staircase(word)
    rendered = render_word(word, x.alphabet, lo)
    if args.format == "text":
        return {}, rendered
    return {"window": [lo, hi], "symbols": _word_str(x.alphabet, word),
            "rendered": rendered}, rendered


def _verdict_doc(verdict: Verdict, pair) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "check-indist",
        "status": "pass" if verdict.passed else "fail",
        "lengths_checked": verdict.lengths_checked,
        "difference_set": sorted(pair.diff),
    }
    if verdict.witness is not None:
        doc["witness"] = _word_str(pair.alphabet, verdict.witness)
    else:
        doc["certified"] = ("all_lengths" if derive_mod.certified_all_lengths(pair)
                            else "up_to_max_len")
    return doc


def _pair(args) -> AsymptoticPair:
    x, y = parse_oracle(args.x), parse_oracle(args.y)
    return AsymptoticPair(x, y, difference_set(x, y))


def cmd_check_indist(args) -> tuple[dict, str]:
    pair = _pair(args)
    doc = _verdict_doc(check_indistinguishable(pair, args.max_len), pair)
    return doc, ("pass" if doc["status"] == "pass"
                 else f"fail witness={doc.get('witness', '')}")


def _classification_doc(outcome, alphabet: Alphabet) -> tuple[dict, str, int]:
    doc: dict = {"schema_version": SCHEMA_VERSION, "command": "classify"}
    if isinstance(outcome, derive_mod.NotIndistinguishable):
        text = _word_str(alphabet, outcome.witness)
        doc.update(status="not_indistinguishable", witness=text)
    elif isinstance(outcome, derive_mod.Inconclusive):
        doc.update(status="inconclusive", resource=outcome.resource)
        text = f"inconclusive: {outcome.resource}"
    else:
        phi_doc = {
            outcome.phi.domain.glyph(s): _word_str(outcome.phi.codomain, im)
            for s, im in sorted(outcome.phi.images.items())
        }
        doc.update(
            status="classified",
            case=outcome.case,
            substitution=phi_doc,
            m=outcome.m,
            x_is_first=outcome.x_is_first,
            certified="all_lengths" if outcome.verified_to is None else "up_to_max_len",
            verified_to=outcome.verified_to,
            verify_window=list(outcome.verify_window),
        )
        if isinstance(outcome.base, derive_mod.MechanicalBase):
            doc["base"] = {"kind": "mechanical", "slope": format_slope(outcome.base.slope)}
        else:
            base_doc: dict = {"kind": "non_recurrent"}
            if outcome.base.rational_class is not None:
                rc = outcome.base.rational_class
                base_doc["rational_class"] = {"p": rc.p, "q": rc.q, "side": rc.side}
            doc["base"] = base_doc
        text = f"classified case={outcome.case} m={outcome.m} phi={phi_doc}"
    return doc, text, EXIT_CODES[doc["status"]]


def cmd_classify(args) -> tuple[dict, str]:
    window = _parse_window(args.window)
    pair = _pair(args)
    outcome = derive_mod.classify(pair, window=window, max_len=args.max_len)
    doc, text, _ = _classification_doc(outcome, pair.alphabet)
    return doc, text


def cmd_complexity(args) -> tuple[dict, str]:
    x = parse_oracle(args.x)
    lo, hi = _parse_window(args.window)
    profile = complexity_profile(x, args.max_n, (lo, hi))
    doc = {"max_n": args.max_n, "window": [lo, hi], "profile": profile}
    return doc, " ".join(str(c) for c in profile)


def cmd_christoffel(args) -> tuple[dict, str]:
    kind = "upper" if args.upper else "lower"
    cw = christoffel_word(args.p, args.q, kind)
    doc = {"p": args.p, "q": args.q, "kind": kind, "word": str(cw)}
    text = str(cw)
    if args.factorize:
        left, right = palindrome_factorization(cw)
        doc["palindromes"] = [_word_str(BINARY, left), _word_str(BINARY, right)]
        text = " ".join(doc["palindromes"])
    return doc, text


def cmd_limit_pair(args) -> tuple[dict, str]:
    form = make_limit_pair(args.p, args.q, args.side)
    lo, hi = _parse_window(args.window)
    xw = render_window(form.pair.x, lo, hi)
    yw = render_window(form.pair.y, lo, hi)
    doc = {"p": args.p, "q": args.q, "side": args.side, "window": [lo, hi], "x": xw, "y": yw}
    return doc, f"x: {xw}\ny: {yw}"


def cmd_derive(args) -> tuple[dict, str]:
    x = parse_oracle(args.x)
    lo, hi = _parse_window(args.window)
    marker_word = x.alphabet.word_from_str(args.marker)
    rws = derive_mod.return_words(x, marker_word, (lo, hi))
    doc = {
        "marker": args.marker,
        "window": [lo, hi],
        "return_words": sorted(_word_str(x.alphabet, w) for w in rws.returns),
        "complete_return_words": sorted(
            _word_str(x.alphabet, w) for w in rws.complete_returns
        ),
    }
    lines = [
        "returns: " + " ".join(doc["return_words"]),
        "complete: " + " ".join(doc["complete_return_words"]),
    ]
    if len(marker_word) == 1:
        ds = derive_mod.derived_sequence(x, marker_word[0], (lo, hi))
        derived_word = ds.oracle.window(0, max(1, (hi - lo) // 8) - 1)
        doc["derived_window"] = _word_str(ds.oracle.alphabet, derived_word)
        doc["recoding"] = {
            ds.oracle.alphabet.glyph(s): _word_str(x.alphabet, im)
            for s, im in sorted(ds.recoding.images.items())
        }
        doc["i0"] = ds.i0
        lines.append("derived: " + doc["derived_window"])
        lines.append(f"i0: {ds.i0}")
    return doc, "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sturmkit",
        description="Exact Sturmian/Christoffel toolkit: generation, discrepancy checks, classification.",
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON document")

    p = sub.add_parser("generate", help="print a window of an oracle expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--window", required=True, help="lo:hi")
    p.add_argument("--format", choices=("text", "json", "staircase"), default="text")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check-indist", help="bounded indistinguishability check")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--max-len", type=int, default=20, dest="max_len")
    add_common(p)
    p.set_defaults(func=cmd_check_indist)

    p = sub.add_parser("classify", help="classify an indistinguishable pair")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--window", default="-64:64")
    p.add_argument("--max-len", type=int, default=20, dest="max_len")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("complexity", help="factor complexity profile over a window")
    p.add_argument("--x", required=True)
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--window", required=True)
    add_common(p)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("christoffel", help="Christoffel word of slope p/q")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--upper", action="store_true")
    p.add_argument("--factorize", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_christoffel)

    p = sub.add_parser("limit-pair", help="limit of characteristic words at p/(p+q)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--side", choices=("above", "below"), required=True)
    p.add_argument("--window", default="-12:12")
    add_common(p)
    p.set_defaults(func=cmd_limit_pair)

    p = sub.add_parser("derive", help="return words and derived sequence at a marker")
    p.add_argument("--x", required=True)
    p.add_argument("--marker", required=True)
    p.add_argument("--window", default="-64:64")
    add_common(p)
    p.set_defaults(func=cmd_derive)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        doc, text = args.func(args)
    except tuple(OUTCOMES) as exc:  # before ValueError: the outcomes subclass it
        status = OUTCOMES[type(exc)]
        doc, text = {"status": status, "reason": str(exc)}, f"{status}: {exc}"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    doc.update(schema_version=SCHEMA_VERSION, command=args.cmd)
    as_json = getattr(args, "json", False) or getattr(args, "format", None) == "json"
    print(json.dumps(doc, sort_keys=True) if as_json else text)
    return EXIT_CODES[doc["status"]] if "status" in doc else 0


if __name__ == "__main__":
    sys.exit(main())
