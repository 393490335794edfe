"""End-to-end command-line behavior: examples, formats, exit codes."""

import csv
import hashlib
import io
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from aswcurves.cli import _build_parser, _emit, _json_text, _Table, main
from aswcurves.curves import (
    DEFAULT_BUDGET,
    CurveSpec,
    brute_count,
    classify_twists,
    count,
    extremal_search,
    format_curve_spec,
    hd_check,
    parse_curve_spec,
    zeta,
    zeta_report,
)
from aswcurves.curves.base import weil_class
from aswcurves.gf2field import parse_field_spec
from aswcurves.witt2 import GaussInt


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def digit_limit_4300():
    """The interpreter's default limit on the digits of a printed int."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


class TestAnalyze:
    def test_cubic_report(self, capsys):
        code, data = run_json(capsys, "analyze", "q=F4; R=1,0")
        assert code == 0
        assert data["curve"] == "q=F4; R=1,0"
        assert data["genus"] == 1
        assert data["counts"] == {"1": 9}
        assert data["L_roots"] == ["-2+0i", "-2+0i"]
        assert data["twist_class"] == "maximal"
        assert all(data["verdicts"].values())
        assert data["period_parity"] == [2, -1]
        assert data["warnings"] == []

    def test_no_extensions_means_no_counts(self, capsys):
        code, data = run_json(capsys, "analyze", "q=F4; R=1,0", "--extensions", "")
        assert code == 0
        assert data["counts"] == {}

    def test_formula_carries_past_the_budget(self, capsys):
        code, data = run_json(
            capsys,
            "analyze", "q=F4; R=1,0", "--extensions", "1,4", "--budget", "16",
        )
        assert code == 0
        assert data["counts"]["1"] == 9
        assert data["counts"]["4"] == 4**4 + 1 - 2 * (-2) ** 4
        assert data["warnings"]

    def test_formula_carries_past_the_ambient(self, capsys, monkeypatch):
        """A degree past F_{2^32} but within the budget degrades to the
        eigenvalue route; it is never handed to the direct count."""
        asked = []
        original = count.brute_count

        def recorded(spec, m=1, *args, **kwargs):
            asked.append(m)
            return original(spec, m, *args, **kwargs)

        monkeypatch.setattr(count, "brute_count", recorded)
        code, data = run_json(
            capsys,
            "analyze", "q=F4; R=1,0", "--extensions", "1,17", "--budget", str(1 << 35),
        )
        assert code == 0
        assert data["counts"] == {"1": 9, "17": 17180131329}
        assert data["warnings"] == [
            "extension 17: size 17179869184 over the 32-bit ambient; eigenvalue route only"
        ]
        assert 17 not in asked

    def test_degree_past_the_printable_digits_exits_one(self, capsys, digit_limit_4300):
        """4^7200 has more decimal digits than the interpreter prints;
        the degree is refused before the first count."""
        code, data = run_json(capsys, "analyze", "q=F4; R=1,0", "--extensions", "1,7200")
        assert code == 1
        assert data == {
            "error": "DomainError",
            "detail": "extension 7200: 4^7200 has more than 4300 decimal digits",
        }

    def test_large_prime_field_answers_from_bases(self, capsys):
        """Over F_q = F_p with p = 2^16, flags 2 and 3 are read on bases:
        listing ker(R + R*) would take 2^32 elements."""
        code, data = run_json(capsys, "analyze", "q=F65536:p=65536; R=1,0")
        assert code == 0
        assert data["verdicts"] == dict.fromkeys(data["verdicts"], False)
        assert data["counts"] == {"1": 65537}

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_presentation_past_the_ambient_is_a_warning(self, capsys, command):
        """Over F_{2^17} the quadratic helper extension needs degree 34,
        past the 32-bit ambient: the report still comes, with a warning."""
        code, data = run_json(capsys, command, "q=F131072; R=1,0", "--extensions", "1")
        assert code == 0
        assert data["counts"] == {"1": 131073}
        assert data["warnings"] == [
            "presentation conditions unavailable: the quadratic extension needs degree 34 > 32"
        ]

    def test_malformed_curve_exits_two(self, capsys):
        code, data = run_json(capsys, "analyze", "nonsense")
        assert code == 2
        assert data["error"] == "ParseError"

    def test_csv_rejected_for_structured_report(self, capsys):
        code, data = run_json(capsys, "analyze", "q=F4; R=1,0", "--format", "csv")
        assert code == 2

    def test_oversized_field_exits_three(self, capsys):
        code, data = run_json(capsys, "analyze", f"q=F{1 << 33}; R=1,0")
        assert code == 3
        assert data["error"] == "AmbientTooSmall"


class TestTwists:
    def test_quadratic_head_table(self, capsys):
        code, out = run(capsys, "twists", "q=F4; R=1")
        assert code == 0
        assert out.splitlines() == [
            "a,class,count",
            "0,max,9",
            "1,zero,5",
            "2,zero,5",
            "3,zero,5",
        ]

    def test_row_count_equals_field_size(self, capsys):
        code, out = run(capsys, "twists", "q=F16; R=1")
        rows = out.splitlines()[1:]
        assert code == 0
        assert len(rows) == 16
        classes = [row.split(",")[1] for row in rows]
        assert classes.count("max") == 3
        assert classes.count("min") == 1
        assert classes.count("zero") == 12

    def test_json_rendering(self, capsys):
        code, data = run_json(capsys, "twists", "q=F4; R=1", "--format", "json")
        assert code == 0
        assert data["head"] == "q=F4; R=1,0"
        assert data["rows"][0] == {"a": "0", "class": "max", "count": 9}
        assert data["counting_checked"] is True

    def test_non_rational_kernel_error_record(self, capsys):
        code, data = run_json(capsys, "twists", "q=F4; R=1,0")
        assert code == 1
        assert data["error"] == "KernelNotRational"

    def test_over_budget_degrades_with_warning(self, capsys):
        full = run(capsys, "twists", "q=F16; R=1")[1]
        code, data = run_json(
            capsys, "twists", "q=F16; R=1", "--format", "json", "--budget", "8"
        )
        assert code == 0
        assert data["counting_checked"] is False
        assert data["warnings"]
        kept = [f'{r["a"]},{r["class"]},{r["count"]}' for r in data["rows"]]
        assert kept == full.splitlines()[1:]

    def test_one_short_of_the_field_keeps_its_warning_and_bytes(self, capsys):
        code, out = run(
            capsys, "twists", "q=F4096; R=1,0", "--budget", "4095", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["warnings"] == [
            "field size 4096 over budget 4095; classes from the eigenvalue route only"
        ]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5e3ce3b5da8ce2ed0c4ac6a7e19869574f402e030c3786f2af213c10b827b390"
        )


class TestConstruct:
    def test_recipe_line_subspace(self, capsys):
        code, data = run_json(
            capsys, "construct", "--family", "recipe", "--field", "F16",
            "--space", "1",
        )
        assert code == 0
        assert data["curve"] == "q=F16; R=1,1"
        assert data["class"] == "maximal"
        assert data["counting_checked"] is True

    def test_recipe_explicit_parameter(self, capsys):
        auto = run_json(
            capsys, "construct", "--family", "recipe", "--field", "F16",
            "--space", "1",
        )[1]
        code, data = run_json(
            capsys, "construct", "--family", "recipe", "--field", "F16",
            "--space", "1", "--t", auto["parameter"],
        )
        assert code == 0
        assert data == auto

    def test_hermitian_zero_trace(self, capsys):
        code, data = run_json(
            capsys, "construct", "--family", "hermitian", "--field", "F16:p=4",
            "--a", "0",
        )
        assert code == 0
        assert data["class"] == "maximal"
        assert data["eigenvalues"] == ["-4+0i"]

    def test_palindromic_linear(self, capsys):
        code, data = run_json(
            capsys, "construct", "--family", "palindromic", "--field", "F16",
            "--poly", "1,1",
        )
        assert code == 0
        assert data["head"] == "q=F16; R=1,0"
        assert data["tower"] == 2
        assert data["maximal_twists"] == ["1", "6", "7"]
        assert data["minimal_twists"] == ["0"]

    def test_palindromic_coefficients_in_fp_above_p(self, capsys):
        # F_4 inside F4096:p=4 is {0, 1, 0x48, 0x49}
        code, data = run_json(
            capsys, "construct", "--family", "palindromic", "--field", "F4096:p=4",
            "--poly", "1,48,49",
        )
        assert code == 0
        assert (data["order"], data["tower"]) == (6, 1)
        assert len(data["maximal_twists"]) == 10

    def test_recipe_without_a_parameter_is_no_solution(self, capsys):
        # Q is real on the basis of span{1, 2, 4}, but no t matches it on the span
        code, data = run_json(
            capsys, "construct", "--family", "recipe", "--field", "F16", "--space", "4,2,1"
        )
        assert code == 1
        assert data == {
            "error": "NoSolution",
            "detail": "no parameter matches the quadratic character on the subspace",
        }

    def test_missing_family_argument_exits_two(self, capsys):
        code, data = run_json(
            capsys, "construct", "--family", "recipe", "--field", "F16"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, code, error",
        [
            (("recipe", "F16", "--space", "2"), 1, "HypothesisFailed"),
            (("palindromic", "F16", "--poly", "1"), 1, "HypothesisFailed"),
            (("palindromic", "F16:p=4", "--poly", "2,3"), 1, "DegreeMismatch"),
            (("hermitian", "F16", "--a", "5", "--q-deg", "2"), 1, "DegreeMismatch"),
            (("hermitian", "F16", "--a", "1", "--q-deg", "0"), 2, "ParseError"),
            (("hermitian", "F16", "--a", "1", "--q-deg", "-2"), 2, "ParseError"),
        ],
        ids=[
            "recipe-space-without-1",
            "palindromic-degree-0",
            "palindromic-outside-Fp",
            "hermitian-a-outside-Fq",
            "hermitian-q-deg-0",
            "hermitian-q-deg-negative",
        ],
    )
    def test_bad_input_is_an_error_record(self, capsys, argv, code, error):
        family, field, *rest = argv
        got, data = run_json(
            capsys, "construct", "--family", family, "--field", field, *rest
        )
        assert got == code
        assert data["error"] == error
        assert data["detail"]

    @pytest.mark.parametrize("q_deg", ["0", "-2"])
    def test_q_deg_below_one_is_a_parse_error(self, capsys, q_deg):
        argv = ("construct", "--family", "hermitian", "--field", "F16", "--a", "1")
        code, out = run(capsys, *argv, "--q-deg", q_deg)
        assert code == 2
        assert out == (
            '{\n  "error": "ParseError",\n'
            f'  "detail": "--q-deg {q_deg} must be >= 1"\n}}\n'
        )


class TestPeriod:
    def test_quadratic_example(self, capsys):
        code, data = run_json(capsys, "period", "p=2; R=1,0")
        assert code == 0
        assert (data["mu"], data["delta"]) == (2, -1)

    def test_even_tower_example(self, capsys):
        code, data = run_json(capsys, "period", "p=2; R=1,0,1,0", "--budget", str(1 << 20))
        assert code == 0
        assert (data["mu"], data["delta"]) == (8, 1)

    def test_quartic_example_for_p_four(self, capsys):
        code, data = run_json(capsys, "period", "p=4; R=1,1")
        assert code == 0
        assert (data["mu"], data["delta"]) == (4, 1)

    def test_curve_form_accepted_when_over_prime_field(self, capsys):
        code, data = run_json(capsys, "period", "q=F2; R=1,0")
        assert code == 0
        assert (data["mu"], data["delta"]) == (2, -1)

    def test_larger_field_rejected(self, capsys):
        code, data = run_json(capsys, "period", "q=F4; R=1,0")
        assert code == 2

    def test_small_cap_exits_five(self, capsys):
        code, data = run_json(capsys, "period", "p=2; R=1,0,1,0", "--cap", "7")
        assert code == 5
        assert data["error"] == "CapExceeded"


class TestVerify:
    def test_quartic_head_audit(self, capsys):
        code, data = run_json(capsys, "verify", "q=F16; R=1,0,0")
        assert code == 0
        assert data["ok"] is True
        assert data["checks"]["flags"] == [True, True, True, True]
        assert data["checks"]["routes_compared"] >= 2
        assert data["counts"]["1"] == 33

    def test_curve_without_presentation_still_audited(self, capsys):
        code, data = run_json(capsys, "verify", "q=F4; R=1,0,0")
        assert code == 0
        assert data["checks"]["flags"][0] is False
        assert data["checks"]["weil_bound_checked"] >= 1

    @pytest.mark.parametrize(
        "curve, compared, counts, warnings",
        [
            ("q=F4; R=1,0", 1, {"1": 9, "17": 17180131329}, []),
            ("q=F4; R=1,0,0", 0, {"1": 5},
             ["extension 17: no route within the 32-bit ambient"]),
        ],
        ids=["witnessed", "unwitnessed"],
    )
    def test_past_the_ambient_within_budget(self, capsys, curve, compared, counts, warnings):
        code, data = run_json(
            capsys, "verify", curve, "--extensions", "1,17", "--budget", str(1 << 35)
        )
        assert code == 0
        assert data["checks"]["routes_compared"] == compared
        assert data["counts"] == counts
        assert data["warnings"] == warnings

    def test_degree_past_the_printable_digits_exits_one(self, capsys, digit_limit_4300):
        code, data = run_json(capsys, "verify", "q=F4; R=1,0", "--extensions", "7200")
        assert code == 1
        assert data["error"] == "DomainError"
        assert data["detail"].startswith("extension 7200: ")


class TestSearch:
    def test_f4_maximal_is_exactly_the_cubic_class(self, capsys):
        code, data = run_json(
            capsys, "search", "--field", "F4", "--e-max", "1",
            "--predicate", "maximal",
        )
        assert code == 0
        assert data == [{"curve": "q=F4; R=1,0", "count": 9, "class": "maximal"}]

    def test_odd_degree_field_yields_empty_array(self, capsys):
        code, data = run_json(
            capsys, "search", "--field", "F8", "--e-max", "1",
            "--predicate", "extremal",
        )
        assert code == 0
        assert data == []

    def test_csv_rendering(self, capsys):
        code, out = run(
            capsys, "search", "--field", "F4", "--e-max", "1",
            "--predicate", "extremal", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "curve,count,class"
        assert '"q=F4; R=1,0",9,maximal' in lines

    def test_field_over_budget_exits_five(self, capsys):
        code, data = run_json(
            capsys, "search", "--field", "F16", "--e-max", "1",
            "--predicate", "maximal", "--budget", "8",
        )
        assert code == 5
        assert data["error"] == "BudgetExceeded"

    def test_reports_identical_across_thread_counts(self, capsys):
        single = run(
            capsys, "search", "--field", "F16", "--e-max", "2",
            "--predicate", "extremal",
        )
        threaded = run(
            capsys, "search", "--field", "F16", "--e-max", "2",
            "--predicate", "extremal", "--threads", "4",
        )
        assert single == threaded

    def test_cross_check_of_a_curve_past_the_helper_ambient_returns(self):
        """The first extremal tuple of `search --field F262144` is
        y^2 + y = x^3, whose quadratic extension needs 36 bits: it has no
        presentation to replay, so the cross-check returns without one."""
        spec = CurveSpec(parse_field_spec("F262144"), 18, (0, 1))
        counted = brute_count(spec)
        assert weil_class(spec, 1, counted) == "maximal"
        assert zeta_report(spec, []).presentation is None
        assert zeta._formula_cross_check(spec, counted) is None


class TestHdCheck:
    def test_closed_form_matches_up_to_twelve(self, capsys):
        code, data = run_json(capsys, "hd-check", "--cap", "12")
        assert code == 0
        assert len(data["rows"]) == 12
        assert all(r["sum"] == r["closed_form"] for r in data["rows"])

    def test_csv_rendering(self, capsys):
        code, out = run(capsys, "hd-check", "--cap", "4", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "1,-1-1i,-1-1i"

    def test_budget_gate_exits_five(self, capsys):
        code, data = run_json(capsys, "hd-check", "--cap", "10", "--budget", "16")
        assert code == 5

    @pytest.mark.parametrize(
        "cap, budget, code, record",
        [
            ("19", "131072", 5, {
                "error": "BudgetExceeded",
                "detail": "summing over F_{2^18} exceeds the budget 131072",
            }),
            ("33", "100000000000", 3, {
                "error": "AmbientTooSmall",
                "detail": "degree 33 exceeds the ambient cap 32",
            }),
        ],
        ids=["budget", "ambient"],
    )
    def test_gates_fail_before_any_sum(self, capsys, monkeypatch, cap, budget, code, record):
        calls = []

        def closed_form(s):  # stands in for the enumeration, counting calls
            calls.append(s)
            return GaussInt(-1, -1) ** s

        monkeypatch.setattr("aswcurves.curves.zeta.hd_sum", closed_form)
        got, data = run_json(capsys, "hd-check", "--cap", cap, "--budget", budget)
        assert (got, data, calls) == (code, record, [])


@pytest.mark.parametrize(
    "argv",
    [
        ("hd-check", "--cap", "-1"),
        ("hd-check", "--cap", "0"),
        ("search", "--field", "F4", "--e-max", "-1", "--predicate", "maximal"),
        ("period", "p=2; R=1,0,1", "--cap", "-3"),
        ("analyze", "q=F4; R=1,0", "--threads", "-2"),
        ("analyze", "q=F4; R=1,0", "--threads", "0"),
        ("analyze", "q=F4; R=1,0", "--budget", "-5"),
    ],
)
def test_out_of_range_integer_is_a_parse_error(capsys, argv):
    code, data = run_json(capsys, *argv)
    assert (code, data["error"]) == (2, "ParseError")
    assert data["detail"].startswith("--")


LONG = "1" + "0" * 4999  # more decimal digits than the interpreter converts


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "q=F16:013; R=1,0"),
        ("analyze", f"q=F{LONG}; R=1,0"),
        ("search", "--field", f"F16:{LONG}", "--predicate", "maximal"),
        ("period", f"p={LONG}; R=1,0"),
    ],
    ids=["leading-zero-modulus", "long-field-order", "long-modulus", "long-base-order"],
)
def test_unreadable_number_is_a_parse_error(capsys, digit_limit_4300, argv):
    code, data = run_json(capsys, *argv)
    assert (code, data["error"]) == (2, "ParseError")
    assert "leading zeros or too many digits" in data["detail"]
    assert len(data["detail"]) < 100


def _option(prog, flag):
    prefix = f"aswcurves {prog}: argument {flag}: "
    return prefix, prefix + "invalid int value: {!r}"


_EXTENSION = "", "extension degree {!r} is not an integer"

# (argv before the value, text before the value, prefix of the digit-limit
# record, record of a value that is no integer)
INTEGER_READERS = [
    (("analyze", "q=F4; R=1,0", "--extensions"), "", *_EXTENSION),
    (("analyze", "q=F4; R=1,0", "--extensions"), "1,", *_EXTENSION),
    (("verify", "q=F4; R=1,0", "--extensions"), "", *_EXTENSION),
    (("analyze", "q=F4; R=1,0", "--budget"), "", *_option("analyze", "--budget")),
    (("analyze", "q=F4; R=1,0", "--threads"), "", *_option("analyze", "--threads")),
    (("period", "p=2; R=1,0", "--cap"), "", *_option("period", "--cap")),
    (("hd-check", "--cap"), "", *_option("hd-check", "--cap")),
    (("search", "--field", "F4", "--predicate", "maximal", "--e-max"), "",
     *_option("search", "--e-max")),
    (("construct", "--family", "hermitian", "--field", "F16", "--a", "1", "--q-deg"), "",
     *_option("construct", "--q-deg")),
]
READER_IDS = ["analyze-extension", "second-extension", "verify-extension", "budget", "threads",
              "period-cap", "hd-check-cap", "e-max", "q-deg"]


@pytest.mark.parametrize("argv, lead, prefix, refusal", INTEGER_READERS, ids=READER_IDS)
@pytest.mark.parametrize(
    "text, shown",
    [(LONG, "10000000... (5000 digits)"), ("1_" + LONG[1:], "1_000000... (5001 digits)")],
)
def test_integer_past_the_digit_limit_is_a_short_record(
    capsys, digit_limit_4300, argv, lead, prefix, refusal, text, shown
):
    detail = f"{prefix}number {shown} has leading zeros or too many digits"
    assert run_json(capsys, *argv, lead + text) == (2, {"error": "ParseError", "detail": detail})


@pytest.mark.parametrize("argv, lead, prefix, refusal", INTEGER_READERS, ids=READER_IDS)
@pytest.mark.parametrize("text", ["abc", "0x10", "1 2"])
def test_integer_that_is_no_integer_keeps_its_record(capsys, argv, lead, prefix, refusal, text):
    record = {"error": "ParseError", "detail": refusal.format(text)}
    assert run_json(capsys, *argv, lead + text) == (2, record)


@pytest.mark.parametrize(
    "argv, detail",
    [
        (("construct", "--family", "hermitian", "--field", "F16", "--a", "zz"),
         "'zz' is not a hex literal"),
        (("construct", "--family", "hermitian", "--field", "F16", "--a", "1f"),
         "1f does not fit in the field"),
        (("construct", "--family", "recipe", "--field", "F16", "--space", "1, zz "),
         "'zz' is not a hex literal"),
        (("construct", "--family", "palindromic", "--field", "F16", "--poly", "1,1f"),
         "1f does not fit in the field"),
        (("analyze", "q=F16; R=1, zz"), "coefficient 'zz' is not a hex literal"),
        (("analyze", "q=F16; R=1f,1"), "coefficient 1f does not fit in the field"),
    ],
    ids=["option-not-hex", "option-too-big", "list-not-hex", "list-too-big", "curve-not-hex",
         "curve-too-big"],
)
def test_hex_literal_records(capsys, argv, detail):
    assert run_json(capsys, *argv) == (2, {"error": "ParseError", "detail": detail})


@pytest.mark.parametrize(
    "argv, detail",
    [
        (("analyze", "q=F4; R=1,0", "--budget", "abc"), "--budget: invalid int value: 'abc'"),
        (("analyze", "q=F4; R=1,0", "--format", "xml"), "--format: invalid choice: 'xml'"),
        (("search", "--field", "F16"), "required: --predicate"),
        ((), "required: command"),
        (("construct", "--family", "recipe", "--field", "F16", "--space", "-1,7"),
         "--space: expected one argument"),
    ],
    ids=["not-an-int", "unknown-format", "missing-option", "missing-subcommand", "dash-value"],
)
def test_usage_error_is_a_parse_error_record(capsys, argv, detail):
    code = main(list(argv))
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert (code, data["error"]) == (2, "ParseError")
    assert detail in data["detail"]
    assert captured.err == ""  # no usage text beside the record


@pytest.mark.parametrize("argv", [("--help",), ("search", "--help")])
def test_help_still_prints_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: aswcurves")


# -- grammar fuzz over the seven subcommands --------------------------------

# At most 16 elements, so that every direct count a fuzzed run can ask
# for stays small; each list is (well-formed, malformed).
FUZZ_FIELDS = (
    ["F2", "F4", "F8", "F16", "F16:0x19", "F16:0x1f", "F4:p=4", "F16:p=4", "F8:p=8",
     "F16:0x19:p=4"],
    ["F16:0x11", "F3", "F16:p=3", "F4:p=8", "G16", "F16:013"],
)
FUZZ_BAD_HEX = ["zz", "", "-1", "1.5", "100"]
# q^m stays within 2^17, passes the 32-bit ambient or, at 15000, has more
# decimal digits than the interpreter prints, for every fuzz field
FUZZ_EXTENSIONS = (
    ["1", "2", "3", "17", "40", "1,2", "2,1,17", "1,15000", ""], ["0", "-1", "x", "1,,2"]
)
FUZZ_BUDGETS = ["0", "1", "15", "16", "256", "65536", str(1 << 35), str(1 << 64)]


def fuzz_argv(rng):
    """One command line of a random subcommand with edge-case values,
    and the rendering it asks for."""

    def pick(choices):
        good, bad = choices
        return rng.choice(bad if rng.random() < 0.1 else good)

    def hexes(k, order=16):
        """k hex values below order, the leading one first and nonzero."""
        values = [rng.randrange(1, order)] + [rng.randrange(order) for _ in range(k - 1)]
        forms = ["{:x}", "0x{:x}", "{:X}"]
        return ",".join(
            rng.choice(FUZZ_BAD_HEX) if rng.random() < 0.05 else rng.choice(forms).format(v)
            for v in values
        )

    def order(field):
        return int(field[1:].split(":")[0])

    def curve(least=2):
        field = pick(FUZZ_FIELDS)
        return f"q={field}; R={hexes(rng.randint(least, 3), order(field))}"

    command = rng.choice(
        ["analyze", "twists", "construct", "period", "verify", "search", "hd-check"]
    )
    budget = rng.choice(FUZZ_BUDGETS)
    if command == "analyze":
        # analyze also searches a period, which counts up to F_{2^32}
        budget = rng.choice(FUZZ_BUDGETS[:6])
        argv = ["analyze", curve(), "--extensions", pick(FUZZ_EXTENSIONS)]
    elif command == "verify":
        argv = ["verify", curve()]
        if rng.random() < 0.7:
            argv += ["--extensions", pick(FUZZ_EXTENSIONS)]
    elif command == "twists":
        argv = ["twists", curve(least=1)]
    elif command == "construct":
        family = rng.choice(["recipe", "hermitian", "palindromic"])
        field = pick(FUZZ_FIELDS)
        argv = ["construct", "--family", family, "--field", field]
        for flag in ("--space", "--t", "--a", "--poly"):
            if rng.random() < 0.5:  # "=" keeps a leading "-" a value
                argv.append(f"{flag}={hexes(rng.randint(1, 3), order(field))}")
        if rng.random() < 0.3:
            argv += ["--q-deg", rng.choice(["-1", "0", "1", "2", "4"])]
    elif command == "period":
        p = pick((["2", "4"], ["3", "0"]))
        cap = rng.choice(["-1", "0", "1", "4", "8"])  # p^cap <= 2^16
        argv = ["period", f"p={p}; R={hexes(rng.randint(2, 3), max(int(p), 2))}", "--cap", cap]
    elif command == "search":
        field = pick((["F2", "F4", "F8", "F4:p=4", "F8:p=8", "F16:0x19"], ["F5", "F16:0x11"]))
        e_max = rng.choice(["-1", "0", "1"] + (["2"] if "16" not in field else []))
        predicate = rng.choice(["maximal", "minimal", "extremal"])
        argv = ["search", "--field", field, "--e-max", e_max, "--predicate", predicate]
    else:
        argv = ["hd-check", "--cap", rng.choice(["-1", "0", "1", "5", "12", "33"])]
    fmt = "csv" if command == "twists" else "json"
    if rng.random() < 0.3:
        fmt = rng.choice(["json", "csv"])
        argv += ["--format", fmt]
    return argv + ["--budget", budget], fmt


def test_fuzzed_command_lines_give_one_record_and_a_stable_code(capsys):
    rng = random.Random(20261018)
    codes = set()
    for _ in range(1500):
        argv, fmt = fuzz_argv(rng)
        code, out = run(capsys, *argv)
        assert 0 <= code <= 5, argv
        codes.add(code)
        if code == 0 and fmt == "csv":
            header, *rows = list(csv.reader(io.StringIO(out)))
            assert header and all(len(row) == len(header) for row in rows), argv
        else:
            assert isinstance(json.loads(out), (dict, list)), argv
    assert codes == {0, 1, 2, 3, 5}  # 4 would be a route disagreement


class TestOutputFile:
    def test_report_written_to_path(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run(capsys, "analyze", "q=F4; R=1,0", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["counts"] == {"1": 9}

    @pytest.mark.parametrize(
        "where, error",
        [("missing/report.json", "FileNotFoundError"), (".", "IsADirectoryError")],
    )
    def test_unwritable_path_is_an_error_record(self, capsys, tmp_path, where, error):
        target = tmp_path / where
        code, data = run_json(capsys, "analyze", "q=F4; R=1,0", "--output", str(target))
        assert (code, data["error"]) == (1, error)
        assert str(target) in data["detail"]


# -- twist tables and least-parameter recipes, pinned by sha256 -------------

# (field, head a_e..a_1): p = 2, 4 and 8, moduli 0x19 and 0x211 (odd
# degree), rational heads and KernelNotRational records
PINNED_TWIST_HEADS = [
    ("F4", "1"), ("F16", "1"), ("F16", "8"), ("F16", "1,0"),
    ("F16:0x19", "3"), ("F16:0x19", "1,0"), ("F16:p=4", "1"), ("F16:p=4", "5"),
    ("F64:p=8", "1"), ("F64:p=8", "2a"), ("F256", "53"), ("F256", "1,0"),
    ("F256:p=4", "2"), ("F512:0x211", "1"), ("F1024", "1"), ("F4096", "1"),
]
# (field, --space): the least admissible parameter, spaces without one
# (NoSolution), without 1 (HypothesisFailed) and odd degree (OddDegree)
PINNED_RECIPES = [
    ("F16", "1"), ("F16", "1,6"), ("F16", "1,a"), ("F16", "2"),
    ("F64", "1"), ("F64", "1,a"), ("F256", "1"), ("F256", "1,f"),
    ("F16:p=4", "1"), ("F16:p=4", "1,2"), ("F256:p=4", "1,6"),
    ("F256:p=4", "1,f"), ("F8", "1"), ("F8", "2"),
]
PINNED_COMMANDS_SHA256 = "de5277ae823182f2b4fdd5596ac71360a6e9372bcb0401accc0520b82a1348d1"


def pinned_commands():
    for field, head in PINNED_TWIST_HEADS:
        for fmt in ("json", "csv"):
            for budget in ((), ("--budget", "1000")):
                yield ("twists", f"q={field}; R={head}", "--format", fmt, *budget)
    for field, space in PINNED_RECIPES:
        yield ("construct", "--family", "recipe", "--field", field, "--space", space)


def test_twists_and_recipe_output_is_pinned(capsys):
    records = [[list(argv), *run(capsys, *argv)] for argv in pinned_commands()]
    assert len(records) == 78
    text = json.dumps(records, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED_COMMANDS_SHA256


# -- reports, periods, searches and constructions, pinned by sha256 ---------

# p = 2, 4 and 8, moduli 0x19 and 0x211, small budgets that push counts
# onto the eigenvalue route alone, and error records
PINNED_CURVES = [
    ("q=F4; R=1,0", "1,2,3", None), ("q=F4; R=1,1", "1,2", "16"),
    ("q=F16; R=1,0", "1,2", "16"), ("q=F16; R=1,6", "1,2", None),
    ("q=F16; R=1,0,0", "1", None), ("q=F16:0x19; R=3,0", "1,2,3", "256"),
    ("q=F16:0x19; R=1,0,1", "1,2", "16"), ("q=F16:p=4; R=1,0", "1,2", None),
    ("q=F16:p=4; R=1,5", "1,2", "16"), ("q=F64:p=8; R=1,0", "1,2", "256"),
    ("q=F64:p=8; R=2a,3", "1", "16"), ("q=F256; R=1,0,0", "1,2", "256"),
    ("q=F256:p=4; R=2,7", "1", None), ("q=F512:0x211; R=1,0", "1", None),
    ("q=F512:0x211; R=1,1", "1,2", "16"),
]
PINNED_PERIODS = [
    ("p=2; R=1,0,1", "8", None), ("p=2; R=1,1,1", "16", "256"),
    ("p=2; R=1,0,0,1", "4", "16"), ("p=4; R=1,1", "4", "16"),
    ("p=4; R=3,2,1", "8", None), ("p=4; R=1,0,2", "16", "4096"),
    ("p=8; R=1,0", "4", None), ("p=8; R=5,3", "2", "64"),
]
PINNED_SEARCHES = [
    ("F4", "2", "maximal"), ("F16", "1", "extremal"), ("F16:p=4", "1", "minimal"),
    ("F16:0x19", "1", "maximal"), ("F8", "2", "extremal"), ("F64:p=8", "1", "extremal"),
]
PINNED_HERMITIAN = [
    ("F16", "0", None), ("F16", "6", None), ("F16:0x19", "3", None),
    ("F16:p=4", "0", None), ("F16:p=4", "5", None), ("F64:p=8", "0", None),
    ("F64:p=8", "2", None), ("F256", "3", "256"), ("F256:p=4", "0", "256"),
    ("F512:0x211", "1", None), ("F256", "1", "4"),
]
PINNED_RECIPES_WITH_T = [
    ("F16", "1", "6"), ("F16", "1,6", "5"), ("F16:p=4", "1", "2"),
    ("F64:p=8", "1", "3"), ("F256:p=4", "1,6", "1"),
]
PINNED_REPORTS_SHA256 = "43c314281c4a1c751c45742fb72c6894cda2cf284aae5c4c847cf7bc29769460"


def pinned_reports():
    for curve, extensions, budget in PINNED_CURVES:
        tail = ("--budget", budget) if budget else ()
        yield ("analyze", curve, "--extensions", extensions, *tail)
        yield ("verify", curve, "--extensions", extensions, *tail)
    for curve, cap, budget in PINNED_PERIODS:
        yield ("period", curve, "--cap", cap, *(("--budget", budget) if budget else ()))
    for field, e_max, predicate in PINNED_SEARCHES:
        yield ("search", "--field", field, "--e-max", e_max, "--predicate", predicate)
    for field, a, budget in PINNED_HERMITIAN:
        tail = ("--budget", budget) if budget else ()
        yield ("construct", "--family", "hermitian", "--field", field, "--a", a, *tail)
    for field, space, t in PINNED_RECIPES_WITH_T:
        yield ("construct", "--family", "recipe", "--field", field, "--space", space, "--t", t)


def test_reports_and_constructions_are_pinned(capsys):
    records = [[list(argv), *run(capsys, *argv)] for argv in pinned_reports()]
    assert len(records) == 60
    text = json.dumps(records, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED_REPORTS_SHA256


# -- one column set per table: CSV and JSON from `cli._Table` ---------------

def dict_row_renderings(header, rows, payload=lambda records: records):
    """The CSV and the `json.dumps(..., indent=2)` text of a table built
    row by row, with its records placed in the payload by `payload`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    records = [dict(zip(header, row)) for row in rows]
    return buffer.getvalue(), json.dumps(payload(records), indent=2) + "\n"


def twists_renderings(head_text, budget):
    head = parse_curve_spec(f"{head_text},0")
    tc = classify_twists(head, budget=budget)
    short = {"maximal": "max", "minimal": "min", "neutral": "zero"}
    rows = [(f"{a:x}", short[tc.twist_class(a)], tc.twist_count(a)) for a in range(head.q)]
    warnings = [] if tc.counting_checked else [
        f"field size {head.q} over budget {budget}; classes from the eigenvalue route only"
    ]
    return dict_row_renderings(("a", "class", "count"), rows, lambda records: {
        "head": format_curve_spec(head),
        "rows": records,
        "counting_checked": tc.counting_checked,
        "warnings": warnings,
    })


@pytest.mark.parametrize(
    "head", ["q=F256:p=4; R=1", "q=F64:p=8; R=1", "q=F16:0x19; R=1,0", "q=F64:0x5b; R=1"]
)
def test_twists_bytes_equal_the_dict_row_rendering(capsys, head):
    csv_text, json_text = twists_renderings(head, 0)
    assert '"warnings": [\n    "field size' in json_text
    assert run(capsys, "twists", head, "--budget", "0") == (0, csv_text)
    assert run(capsys, "twists", head, "--budget", "0", "--format", "json") == (0, json_text)


def test_empty_search_bytes_equal_the_dict_row_rendering(capsys):
    argv = ("search", "--field", "F8", "--e-max", "2", "--predicate", "maximal")
    assert extremal_search(parse_field_spec("F8"), 2, "maximal") == []
    csv_text, json_text = dict_row_renderings(("curve", "count", "class"), [])
    assert (csv_text, json_text) == ("curve,count,class\n", "[]\n")
    assert run(capsys, *argv) == (0, json_text)
    assert run(capsys, *argv, "--format", "csv") == (0, csv_text)


def test_search_bytes_equal_the_dict_row_rendering(capsys):
    argv = ("search", "--field", "F16:p=4", "--e-max", "2", "--predicate", "extremal")
    found = extremal_search(parse_field_spec("F16:p=4"), 2, "extremal")
    rows = [(format_curve_spec(spec), n, label) for spec, n, label in found]
    csv_text, json_text = dict_row_renderings(("curve", "count", "class"), rows)
    assert run(capsys, *argv) == (0, json_text)
    assert run(capsys, *argv, "--format", "csv") == (0, csv_text)


def test_hd_check_json_bytes_equal_the_dict_row_rendering(capsys):
    rows = [(s, str(total), str(closed)) for s, total, closed in hd_check(7, 1 << 7)]
    csv_text, json_text = dict_row_renderings(
        ("degree", "sum", "closed_form"), rows, lambda records: {"max_degree": 7, "rows": records}
    )
    assert run(capsys, "hd-check", "--cap", "7", "--format", "json") == (0, json_text)
    assert run(capsys, "hd-check", "--cap", "7", "--format", "csv") == (0, csv_text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_file_bytes_equal_the_dict_row_rendering(capsys, tmp_path, fmt):
    path = tmp_path / f"table.{fmt}"
    code, out = run(capsys, "twists", "q=F16:0x19; R=1,0", "--format", fmt, "--output", str(path))
    assert (code, out) == (0, "")
    expected = twists_renderings("q=F16:0x19; R=1,0", DEFAULT_BUDGET)[fmt == "json"]
    assert path.read_bytes() == expected.encode()


# Cells that json escapes: quotes, backslashes, control characters,
# braces (the row template's own syntax) and text past ASCII, surrogates
# included; ints past 64 bits of either sign.
TRICKY_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\n\t\x00\x1f\x7f{}:,é€😀 '), st.characters(exclude_categories=())
    ),
    max_size=6,
)
WIDE_INTS = st.one_of(st.integers(-300, 300), st.integers(-(1 << 200), 1 << 200))
CELLS = st.sampled_from([TRICKY_TEXT, WIDE_INTS])


@st.composite
def tables(draw):
    header = draw(st.lists(TRICKY_TEXT, max_size=4, unique=True))
    size = draw(st.integers(0, 4))
    columns = [
        draw(st.lists(draw(CELLS), min_size=size, max_size=size))
        for _ in header
    ]
    return header, columns


@seed(20261022)
@settings(max_examples=300, deadline=None, database=None)
@given(tables())
def test_table_json_equals_json_dumps_of_dict_rows(case):
    header, columns = case
    table, rows = _Table(header, columns), list(zip(*columns))
    records = [dict(zip(header, row)) for row in rows]
    assert _json_text(table, "\n") == json.dumps(records, indent=2)
    nested = {"max_degree": -1, "rows": table, "warnings": ['"\\\n']}
    expected = json.dumps({**nested, "rows": records}, indent=2)
    assert _json_text(nested, "\n") == expected
    assert table.csv_text() == dict_row_renderings(header, rows)[0]


class Label(str):
    pass


@pytest.mark.parametrize(
    "column",
    [[1, True], [True], [False, 0], ["a", 1], [1, "a"], [1.0], [None], [b"a"], ["a", Label("b")]],
)
def test_table_refuses_a_column_not_all_str_or_all_int(column):
    with pytest.raises(TypeError):
        _Table(("k",), (column,))


@pytest.mark.parametrize(
    "header, columns",
    [(("k",), ([1], [2])), (("k", "k"), ([1], [2])), (("k", "v"), ([1], [2, 3]))],
)
def test_table_refuses_a_header_that_does_not_fit_its_columns(header, columns):
    with pytest.raises(ValueError):
        _Table(header, columns)


class LengthSink:
    """A stdout that keeps only how many characters it was given."""

    written = 0

    def write(self, text):
        self.written += len(text)


def test_twist_table_json_peak_stays_near_its_length(monkeypatch):
    """The rendering holds about two copies of the text: the row strings
    and their join.  The per-row dicts and the pure-Python encoder the
    table replaced peaked at 9.5 times the output here."""
    args = _build_parser().parse_args(["twists", "q=F4096; R=1,0", "--format", "json"])
    out, sink = args.func(args), LengthSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        _emit(out, args.format, args.output)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written == 302_671
    assert peak < 5 * sink.written
