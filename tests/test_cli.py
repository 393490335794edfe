"""End-to-end command-line behavior: examples, formats, exit codes."""

import hashlib
import json

import pytest

from aswcurves.cli import main
from aswcurves.witt2 import GaussInt


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


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

        monkeypatch.setattr("aswcurves.cli.hd_sum", closed_form)
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
