import json

import pytest
from jsonschema import validate

from sturmkit import derive
from sturmkit.christoffel import christoffel
from sturmkit.cli import _classification_doc, _verdict_doc, main, parse_oracle
from sturmkit.derive import derived_pair
from sturmkit.language import toeplitz_thue_morse_pair
from sturmkit.patterns import AsymptoticPair, certify_asymptotic, check_indistinguishable, shift_pair
from sturmkit.sequences import MechanicalLower, MechanicalUpper, SequenceOracle
from sturmkit.slopes import QuadraticIrrational, parse_slope

from conftest import GOLDEN, to_str

GOLDEN_EXPR = "lower((-1+1*sqrt(5))/2)"
GOLDEN_UPPER_EXPR = "upper((-1+1*sqrt(5))/2)"

CERTIFIED = {"enum": ["all_lengths", "up_to_max_len"]}

BASE_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command"],
    "properties": {
        "schema_version": {"const": 5},
        "command": {"type": "string"},
    },
}

SCHEMAS = {
    "generate": {
        "allOf": [BASE_SCHEMA],
        "required": ["window", "symbols", "rendered"],
        "properties": {
            "window": {"type": "array", "items": {"type": "integer"}},
            "symbols": {"type": "string"},
            "rendered": {"type": "string"},
        },
    },
    "check-indist": {
        "allOf": [BASE_SCHEMA],
        "required": ["status"],
        "properties": {
            "status": {"enum": ["pass", "fail", "not_asymptotic", "inconclusive"]},
            "lengths_checked": {"type": "integer"},
            "difference_set": {"type": "array", "items": {"type": "integer"}},
            "witness": {"type": "string"},
            "reason": {"type": "string"},
            "certified": CERTIFIED,
        },
        "if": {"properties": {"status": {"enum": ["pass", "fail"]}}},
        "then": {"required": ["lengths_checked", "difference_set"]},
        "else": {"required": ["reason"]},
        "oneOf": [
            {"properties": {"status": {"const": "pass"}}, "required": ["certified"],
             "not": {"required": ["witness"]}},
            {"properties": {"status": {"not": {"const": "pass"}}},
             "not": {"required": ["certified"]}},
        ],
    },
    "classify": {
        "allOf": [BASE_SCHEMA],
        "required": ["status"],
        "properties": {
            "status": {"enum": ["classified", "not_indistinguishable", "inconclusive",
                                "not_asymptotic"]},
            "reason": {"type": "string"},
            "case": {"enum": ["recurrent", "non_recurrent"]},
            "substitution": {"type": "object"},
            "m": {"type": "integer"},
            "witness": {"type": "string"},
            "resource": {"type": "string"},
            "certified": CERTIFIED,
            "verified_to": {"type": ["integer", "null"]},
            "base": {"oneOf": [
                {
                    "type": "object",
                    "required": ["kind", "slope"],
                    "additionalProperties": False,
                    "properties": {"kind": {"const": "mechanical"}, "slope": {"type": "string"}},
                },
                {
                    "type": "object",
                    "required": ["kind"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"const": "non_recurrent"},
                        "rational_class": {
                            "type": "object",
                            "required": ["p", "q", "side"],
                        },
                    },
                },
            ]},
        },
        "if": {"properties": {"status": {"const": "classified"}}},
        "then": {
            "required": ["certified", "verified_to"],
            "oneOf": [
                {"properties": {"certified": {"const": "all_lengths"},
                                "verified_to": {"type": "null"}}},
                {"properties": {"certified": {"const": "up_to_max_len"},
                                "verified_to": {"type": "integer"}}},
            ],
        },
        "else": {"not": {"required": ["certified"]}},
    },
    "complexity": {
        "allOf": [BASE_SCHEMA],
        "required": ["profile", "max_n", "window"],
        "properties": {
            "profile": {"type": "array", "items": {"type": "integer"}},
        },
    },
    "christoffel": {
        "allOf": [BASE_SCHEMA],
        "required": ["p", "q", "kind", "word"],
        "properties": {
            "word": {"type": "string"},
            "palindromes": {"type": "array"},
        },
    },
    "limit-pair": {
        "allOf": [BASE_SCHEMA],
        "required": ["p", "q", "side", "x", "y"],
    },
    "derive": {
        "allOf": [BASE_SCHEMA],
        "if": {"required": ["status"]},
        "then": {
            "required": ["reason"],
            "properties": {"status": {"const": "inconclusive"}, "reason": {"type": "string"}},
        },
        "else": {"required": ["marker", "return_words", "complete_return_words"]},
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    validate(doc, SCHEMAS[doc["command"]])
    return code, doc


def test_generate_period(capsys):
    code, out, _ = run(capsys, "generate", "--expr", "lower(5/13)", "--window", "0:12")
    assert code == 0 and out.strip() == ".0010010100101"


def test_generate_evp_forms(capsys):
    for expr in ("evp(0|.10|0)", "evp(0|.|10|0)"):
        code, out, _ = run(capsys, "generate", "--expr", expr, "--window=-3:3")
        assert code == 0 and out.strip() == "000.1000"


def test_generate_json(capsys):
    code, doc = run_json(
        capsys, "generate", "--expr", "lower(5/13)", "--window", "0:12", "--format", "json"
    )
    assert code == 0 and doc["symbols"] == "0010010100101"


def test_generate_staircase(capsys):
    code, out, _ = run(
        capsys, "generate", "--expr", "lower(1/2)", "--window", "0:5", "--format", "staircase"
    )
    assert code == 0
    assert out.rstrip("\n") == "  _|\n _|\n_|"


def test_parse_oracle_composites():
    x = parse_oracle("shift(rev(sub(0:01;1:10,evp(0|.10|0))),2)")
    assert len(x.window(-5, 5)) == 11
    with pytest.raises(ValueError):
        parse_oracle("lower(5/13")
    with pytest.raises(ValueError) as err:
        parse_oracle("frob(1)")
    assert "position" in str(err.value)


def test_check_indist_exit_codes(capsys):
    code, doc = run_json(
        capsys, "check-indist", "--x", GOLDEN_EXPR, "--y", GOLDEN_UPPER_EXPR,
        "--max-len", "15", "--json",
    )
    assert code == 0 and doc["status"] == "pass" and doc["certified"] == "all_lengths"
    code, doc = run_json(
        capsys, "check-indist",
        "--x", "evp(100110|100111.|000111)", "--y", "evp(100110|.100111|000111)",
        "--max-len", "6", "--json",
    )
    assert code == 1 and doc["status"] == "fail" and doc["witness"] == "00"


def test_pair_outcomes_are_not_usage_errors(capsys):
    # eventually periodic against aperiodic: provably not asymptotic
    for command in ("check-indist", "classify"):
        code, doc = run_json(
            capsys, command, "--x", "lower(1/2)", "--y", GOLDEN_EXPR, "--json",
        )
        assert code == 1 and doc["status"] == "not_asymptotic"
        assert doc["reason"] == "eventually periodic vs aperiodic mechanical word"
    code, out, err = run(capsys, "check-indist", "--x", "lower(1/2)", "--y", GOLDEN_EXPR)
    assert code == 1 and out.startswith("not_asymptotic:") and not err
    # 0->10, 1->0 is a conjugate of 0->01, 1->0: the second member is the
    # first shifted by one, so the two differ at infinitely many positions
    for command in ("check-indist", "classify"):
        code, doc = run_json(
            capsys, command,
            "--x", f"sub(0:01;1:0,{GOLDEN_EXPR})", "--y", f"sub(0:10;1:0,{GOLDEN_EXPR})",
            "--json",
        )
        assert code == 1 and doc["status"] == "not_asymptotic"
        assert doc["reason"] == "misaligned images of the same aperiodic word"
    # images under substitutions that are not conjugate: 0 has frequency
    # 1/(2 - alpha) in the first and (2 - alpha)/(3 - 2 alpha) in the second member
    for command in ("check-indist", "classify"):
        code, doc = run_json(
            capsys, command,
            "--x", f"sub(0:01;1:0,{GOLDEN_EXPR})", "--y", f"sub(0:001;1:0,{GOLDEN_EXPR})",
            "--json",
        )
        assert code == 1 and doc["status"] == "not_asymptotic"
        assert doc["reason"] == "images with different letter frequencies"
    # equal letter frequencies (1/2 each) under substitutions that are not
    # conjugate: no certificate either way
    for command in ("check-indist", "classify"):
        code, doc = run_json(
            capsys, command,
            "--x", f"sub(0:0011;1:01,{GOLDEN_EXPR})", "--y", f"sub(0:0110;1:01,{GOLDEN_EXPR})",
            "--json",
        )
        assert code == 2 and doc["status"] == "inconclusive"
        assert doc["reason"] == "substitution images under different substitutions"


def test_images_under_conjugate_substitutions_certify(capsys):
    # 0->10, 1->0 is 0^-1 (0->01, 1->0) 0, so the second member is the image
    # of sigma upper under 0->01, 1->0 and the pair is certified on all of Z
    x = f"sub(0:01;1:0,shift({GOLDEN_EXPR},1))"
    y = f"shift(sub(0:10;1:0,shift({GOLDEN_UPPER_EXPR},1)),-1)"
    code, doc = run_json(capsys, "check-indist", "--x", x, "--y", y, "--json")
    assert code == 0 and doc["status"] == "pass" and doc["certified"] == "all_lengths"
    assert doc["difference_set"] == [-2, -1]
    code, doc = run_json(capsys, "classify", "--x", x, "--y", y, "--json")
    assert code == 0 and doc["certified"] == "all_lengths" and doc["m"] == 0
    assert doc["substitution"] == {"0": "01", "1": "0"}
    assert doc["base"] == {"kind": "mechanical", "slope": "(-1+1*sqrt(5))/2"}


def test_far_shifted_pair_is_certified_without_a_radius(capsys):
    # sigma^99 of (sigma lower, sigma upper), which differ at {-2, -1}
    x, y = (f"shift({expr},100)" for expr in (GOLDEN_EXPR, GOLDEN_UPPER_EXPR))
    code, doc = run_json(capsys, "check-indist", "--x", x, "--y", y, "--json")
    assert code == 0 and doc["status"] == "pass" and doc["difference_set"] == [-101, -100]
    assert doc["certified"] == "all_lengths"
    code, doc = run_json(capsys, "classify", "--x", x, "--y", y, "--json")
    assert code == 0 and doc["status"] == "classified" and doc["m"] == 99
    assert doc["certified"] == "all_lengths" and doc["verified_to"] is None
    assert run(capsys, "classify", "--x", x, "--y", y, "--radius", "64")[0] == 3


def test_classify_remark_exit_1(capsys):
    code, doc = run_json(
        capsys, "classify",
        "--x", "evp(100110|100111.|000111)", "--y", "evp(100110|.100111|000111)",
        "--max-len", "8", "--json",
    )
    assert code == 1 and doc["status"] == "not_indistinguishable"
    assert doc["witness"] == "00"


def test_classify_non_recurrent_failure_keeps_its_shortest_witness(capsys):
    # no shift relates the members: the pair is checked at max_len, then deeper
    code, doc = run_json(
        capsys, "classify", "--x", "evp(0|.010000|01)", "--y", "evp(0|.100000|01)", "--json",
    )
    assert code == 1 and doc["status"] == "not_indistinguishable"
    assert doc["witness"] == "0000000"


def test_classify_limit_pair(capsys):
    code, doc = run_json(
        capsys, "classify",
        "--x", "evp(110|111.|011)", "--y", "evp(110|.111|011)",
        "--max-len", "12", "--json",
    )
    assert code == 0 and doc["status"] == "classified"
    assert doc["case"] == "non_recurrent"
    assert doc["base"]["rational_class"] == {"p": 2, "q": 1, "side": "above"}


@pytest.mark.parametrize("side", ["above", "below"])
def test_classify_limit_pair_beyond_64_shifts(capsys, side):
    m = to_str(christoffel(40, 31).word[1:-1])
    lower, upper = f"0{m}1", f"1{m}0"
    if side == "above":
        x, y = f"evp({upper}|1{m}1.|{lower})", f"evp({upper}|.1{m}1|{lower})"
    else:
        x, y = f"evp({lower}|.0{m}0|{upper})", f"evp({lower}|0{m}0.|{upper})"
    for args in (("--x", x, "--y", y), ("--x", y, "--y", x)):
        code, doc = run_json(capsys, "classify", *args, "--json")
        assert code == 0 and doc["status"] == "classified"
        assert doc["base"]["rational_class"] == {"p": 40, "q": 31, "side": side}


def test_classify_sturmian(capsys):
    code, doc = run_json(
        capsys, "classify", "--x", GOLDEN_EXPR, "--y", GOLDEN_UPPER_EXPR,
        "--max-len", "12", "--json",
    )
    assert code == 0 and doc["case"] == "recurrent"
    assert doc["base"] == {"kind": "mechanical", "slope": "(-1+1*sqrt(5))/2"}
    assert doc["m"] == -1 and doc["x_is_first"]
    # x over the upper word: the base is lower(1 - golden), printed parseably
    code, doc = run_json(
        capsys, "classify", "--x", GOLDEN_UPPER_EXPR, "--y", GOLDEN_EXPR,
        "--max-len", "12", "--json",
    )
    assert code == 0 and doc["base"] == {"kind": "mechanical", "slope": "(3-1*sqrt(5))/2"}
    assert doc["substitution"] == {"0": "1", "1": "0"} and doc["x_is_first"]
    assert parse_slope(doc["base"]["slope"]) == QuadraticIrrational(3, -1, 2, 5)


def test_classify_derived_view_schema():
    # derived views have normal forms, so the structural rebuild certifies
    # them; the CLI cannot spell a derived view, so the document is built
    # from a classification directly
    pair = derived_pair(
        shift_pair(certify_asymptotic(parse_oracle(GOLDEN_EXPR), parse_oracle(GOLDEN_UPPER_EXPR), 4), -1),
        0, (-120, 120),
    )
    outcome = derive.classify(pair, window=(-30, 30), max_len=8)
    assert isinstance(outcome.base, derive.MechanicalBase) and outcome.verified_to is None
    doc, _, code = _classification_doc(outcome, pair.alphabet)
    validate(doc, SCHEMAS["classify"])
    assert code == 0 and doc["base"]["kind"] == "mechanical"
    assert doc["certified"] == "all_lengths" and doc["verified_to"] is None
    # check-indist on the same pair is certified at every length
    doc = _verdict_doc(check_indistinguishable(pair, 8), pair)
    validate(doc, SCHEMAS["check-indist"])
    assert doc["status"] == "pass" and doc["certified"] == "all_lengths"


class Opaque(SequenceOracle):
    """A mechanical word read through ``_window``: it has no normal form."""

    def __init__(self, base, known_recurrent):
        super().__init__(base.alphabet)
        self.base, self.known_recurrent = base, known_recurrent

    def _window(self, lo, hi):
        return self.base.window(lo, hi)


@pytest.mark.parametrize("known_recurrent, resource", [
    (True, "no normal form shows the members as psi(lower(alpha)), psi(upper(alpha))"),
    (None, "recurrence undecidable for this oracle class"),
])
def test_classify_opaque_pair_is_inconclusive(known_recurrent, resource):
    pair = AsymptoticPair(Opaque(MechanicalLower(GOLDEN), known_recurrent),
                          Opaque(MechanicalUpper(GOLDEN), known_recurrent), frozenset({-1, 0}))
    outcome = derive.classify(pair, max_len=12)
    assert outcome == derive.Inconclusive(resource)
    doc, text, code = _classification_doc(outcome, pair.alphabet)
    validate(doc, SCHEMAS["classify"])
    assert code == 2 and doc["resource"] == resource and text == f"inconclusive: {resource}"


def test_check_indist_certificates():
    # the characteristic golden pair is rebuilt from its normal forms
    golden = certify_asymptotic(parse_oracle(GOLDEN_EXPR), parse_oracle(GOLDEN_UPPER_EXPR), 4)
    doc = _verdict_doc(check_indistinguishable(golden, 12), golden)
    validate(doc, SCHEMAS["check-indist"])
    assert doc["status"] == "pass" and doc["certified"] == "all_lengths"
    # the Toeplitz pair is outside the closed algebra and keeps its witness
    toeplitz = toeplitz_thue_morse_pair()
    doc = _verdict_doc(check_indistinguishable(toeplitz, 16), toeplitz)
    validate(doc, SCHEMAS["check-indist"])
    assert doc["status"] == "fail" and doc["witness"] == "00" and "certified" not in doc


def test_complexity(capsys):
    code, doc = run_json(
        capsys, "complexity", "--x", GOLDEN_EXPR, "--max-n", "8",
        "--window=-10:10", "--json",
    )
    assert code == 0 and doc["profile"] == list(range(2, 10))


def test_christoffel_factorize(capsys):
    code, out, _ = run(capsys, "christoffel", "--p", "5", "--q", "8", "--factorize")
    assert code == 0 and out.strip() == "00100 10100101"
    code, doc = run_json(capsys, "christoffel", "--p", "5", "--q", "8", "--json")
    assert doc["word"] == "0010010100101"


def test_limit_pair_cmd(capsys):
    code, doc = run_json(
        capsys, "limit-pair", "--p", "0", "--q", "1", "--side", "above",
        "--window=-3:3", "--json",
    )
    assert code == 0 and doc["x"] == "001.0000"


def test_derive_cmd(capsys):
    code, doc = run_json(
        capsys, "derive", "--x", GOLDEN_EXPR, "--marker", "0",
        "--window=-40:40", "--json",
    )
    assert code == 0
    assert doc["return_words"] == ["01", "011"]


def test_derive_gaps_are_inconclusive(capsys):
    # too few markers for a return word, and markers on one side of the origin only
    for expr, window, reason in (
        ("evp(0|.|0)", "-10:10", "marker occurs 0 time(s) in window (-10, 10)"),
        (GOLDEN_EXPR, "0:40", "marker 1 does not straddle the origin in window (0, 40)"),
    ):
        code, doc = run_json(capsys, "derive", "--x", expr, "--marker", "1",
                             f"--window={window}", "--json")
        assert code == 2 and doc == {"schema_version": 5, "command": "derive",
                                     "status": "inconclusive", "reason": reason}
        code, out, err = run(capsys, "derive", "--x", expr, "--marker", "1", f"--window={window}")
        assert code == 2 and out == f"inconclusive: {reason}\n" and not err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "generate", "--expr", "lower(7/5)", "--window", "0:5")
    assert code == 3 and "error" in err
    code, _, _ = run(capsys, "generate", "--expr", "lower(1/2)", "--window", "5:1")
    assert code == 3
    assert main(["no-such-command"]) == 3


@pytest.mark.parametrize("expr", ["lower(1/0)", "upper(3/0)"])
def test_zero_denominator_is_a_usage_error(capsys, expr):
    code, out, err = run(capsys, "generate", "--expr", expr, "--window", "0:3")
    assert code == 3 and not out
    assert err.startswith("error: ") and "zero denominator" in err and "Traceback" not in err


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_library_bugs_are_not_usage_errors(monkeypatch, error):
    # only ValueError is an argument or expression error (exit 3); anything
    # else raised inside a command surfaces
    def broken(*args, **kwargs):
        raise error("bug")

    monkeypatch.setattr(derive, "classify", broken)
    with pytest.raises(error):
        main(["classify", "--x", GOLDEN_EXPR, "--y", GOLDEN_UPPER_EXPR])


def test_determinism(capsys):
    args = ["check-indist", "--x", GOLDEN_EXPR, "--y", GOLDEN_UPPER_EXPR,
            "--max-len", "10", "--json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second
