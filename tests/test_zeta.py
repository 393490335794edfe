"""The route meetings of `curves.zeta`: `zeta_report` holds the
eigenvalue route against direct counts, and every command that prints or
replays its counts fails on a planted eigenvalue fault; `extremal_search`
and `hd_check` give a library caller the rows `search` and `hd-check`
print."""

import dataclasses
import json

import pytest

from aswcurves.cli import main
from aswcurves.curves import (
    LPolynomial,
    count,
    extremal_search,
    format_curve_spec,
    hd_check,
    parse_curve_spec,
    zeta,
    zeta_report,
)
from aswcurves.errors import BudgetExceeded, DomainError, OracleMismatch
from aswcurves.gf2field import parse_field_spec
from aswcurves.witt2 import GaussInt

CUBIC = "q=F4; R=1,0"  # maximal: eigenvalues -2, -2 and 9 points over F_4


@pytest.fixture
def direct_degrees(monkeypatch):
    """The extension degrees handed to the direct count, in call order."""
    asked = []
    original = count.brute_count

    def recorded(spec, m=1, *args, **kwargs):
        asked.append(m)
        return original(spec, m, *args, **kwargs)

    monkeypatch.setattr(count, "brute_count", recorded)
    return asked


@pytest.fixture
def negated_root(monkeypatch):
    """`l_polynomial` with its first eigenvalue negated: same norms, so
    a valid LPolynomial, but 5 points over F_4 for the cubic."""
    original = zeta.l_polynomial

    def planted(*witness):
        lp = original(*witness)
        return LPolynomial(lp.q, lp.multiplicity, (-lp.roots[0],) + lp.roots[1:])

    monkeypatch.setattr(zeta, "l_polynomial", planted)


def test_both_routes_run_within_the_budget(direct_degrees):
    report = zeta_report(parse_curve_spec(CUBIC), [1, 2])
    assert report.presentation.flags == (True, True, True, True)
    assert report.unavailable is None
    assert report.lpoly.format_roots() == ["-2+0i", "-2+0i"]
    assert report.counts == {1: 9, 2: 9}
    assert report.compared == (1, 2)
    assert report.skipped == ()
    assert direct_degrees == [1, 2]


def test_planted_root_fault_raises_without_the_cli(negated_root):
    with pytest.raises(OracleMismatch, match="eigenvalue count 5 != direct count 9"):
        zeta_report(parse_curve_spec(CUBIC), [1])


@pytest.mark.parametrize(
    "curve, extensions, budget, counts, skipped",
    [
        (CUBIC, [1, 2], 1, {1: 9, 2: 9}, ((1, "budget"), (2, "budget"))),
        ("q=F4; R=1,0,0", [1], 1, {}, ((1, "budget"),)),
        (CUBIC, [1, 17], 1 << 35, {1: 9, 17: 17180131329}, ((17, "the 32-bit ambient"),)),
        ("q=F4; R=1,0,0", [1, 17], 1 << 35, {1: 5}, ((17, "the 32-bit ambient"),)),
    ],
    ids=["budget", "budget-unwitnessed", "ambient", "ambient-unwitnessed"],
)
def test_degrees_past_a_limit_are_never_counted_directly(
    direct_degrees, curve, extensions, budget, counts, skipped
):
    report = zeta_report(parse_curve_spec(curve), extensions, budget)
    assert report.counts == counts
    assert report.skipped == skipped
    assert direct_degrees == [m for m in extensions if m not in dict(skipped)]


@pytest.mark.parametrize(
    "m, budget, reason",
    [
        (1, 16, None),
        (2, 15, "budget"),
        (17, 1 << 35, "the 32-bit ambient"),
        (17, 1 << 33, "budget"),
    ],
    ids=["in-range", "budget", "ambient", "budget-and-ambient"],
)
def test_skip_reason_is_the_rule_of_checked_count(direct_degrees, m, budget, reason):
    spec = parse_curve_spec(CUBIC)
    assert count.skip_reason(spec, m, budget) == reason
    counted = count.checked_count(spec, m, None, budget)
    assert (counted is None) == (reason is not None)
    assert direct_degrees == ([] if reason else [m])


def test_presentation_past_the_ambient_leaves_the_direct_count():
    report = zeta_report(parse_curve_spec("q=F131072; R=1,0"), [1])
    assert report.presentation is None and report.lpoly is None
    assert report.unavailable == "the quadratic extension needs degree 34 > 32"
    assert report.counts == {1: 131073}
    assert report.compared == report.skipped == ()


def run_record(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", CUBIC],
        ["verify", CUBIC],
        ["search", "--field", "F4", "--predicate", "maximal"],
    ],
    ids=["analyze", "verify", "search"],
)
def test_planted_root_fault_fails_every_command(capsys, negated_root, argv):
    assert run_record(capsys, argv) == (
        4,
        {
            "error": "OracleMismatch",
            "detail": f"eigenvalue count 5 != direct count 9 over extension 1 of {CUBIC}",
        },
    )


def test_search_refuses_an_extremal_curve_without_a_witness(capsys, monkeypatch):
    original = zeta.presentation_conditions
    monkeypatch.setattr(
        zeta,
        "presentation_conditions",
        lambda spec: dataclasses.replace(original(spec), witness=None),
    )
    argv = ["search", "--field", "F4", "--predicate", "maximal"]
    assert run_record(capsys, argv) == (
        4,
        {
            "error": "OracleMismatch",
            "detail": f"{CUBIC} meets the bound without a presentation",
        },
    )


# The bound-attaining curves of `search --predicate extremal`, as printed.
SEARCH_ROWS = {
    ("F16", 2): [
        ("q=F16; R=1,0", 9, "minimal"),
        ("q=F16; R=1,1", 25, "maximal"),
        ("q=F16; R=1,0,0", 33, "maximal"),
    ],
    ("F256:p=4", 1): [
        ("q=F256:p=4; R=1,0", 65, "minimal"),
        ("q=F256:p=4; R=1,1", 65, "minimal"),
        ("q=F256:p=4; R=bc,1", 449, "maximal"),
        ("q=F256:p=4; R=bd,1", 449, "maximal"),
    ],
    ("F64:p=8", 1): [("q=F64:p=8; R=1,0", 513, "maximal")],
}


def search_rows(field, e_max, predicate):
    return [
        (format_curve_spec(spec), n, label)
        for spec, n, label in extremal_search(parse_field_spec(field), e_max, predicate)
    ]


@pytest.mark.parametrize("field, e_max", list(SEARCH_ROWS))
def test_extremal_search_returns_the_rows_search_prints(capsys, field, e_max):
    rows = search_rows(field, e_max, "extremal")
    assert rows == SEARCH_ROWS[field, e_max]
    argv = ["search", "--field", field, "--e-max", str(e_max), "--predicate", "extremal"]
    printed = run_record(capsys, argv)
    assert printed == (0, [dict(zip(("curve", "count", "class"), row)) for row in rows])


@pytest.mark.parametrize("predicate", ["maximal", "minimal"])
def test_extremal_search_keeps_the_class_asked_for(predicate):
    expected = [row for row in SEARCH_ROWS["F16", 2] if row[2] == predicate]
    assert search_rows("F16", 2, predicate) == expected


def test_extremal_search_budget_edge():
    ctx = parse_field_spec("F16")
    assert extremal_search(ctx, 1, "extremal", budget=16) == extremal_search(ctx, 1, "extremal")
    with pytest.raises(BudgetExceeded) as exc:
        extremal_search(ctx, 1, "extremal", budget=15)
    assert str(exc.value) == "searching F_16 needs direct counts of size 16 > budget 15"


def test_extremal_search_refuses_an_unknown_predicate():
    with pytest.raises(DomainError) as exc:
        extremal_search(parse_field_spec("F4"), 1, "neutral")
    assert str(exc.value) == "predicate 'neutral' is not maximal, minimal or extremal"


def closed_form(cap):
    """(s, re, im) of (-1-i)^s for s = 1..cap, by (a + bi)(-1 - i) =
    (b - a) - (a + b)i."""
    rows, re, im = [], -1, -1
    for s in range(1, cap + 1):
        rows.append((s, re, im))
        re, im = im - re, -re - im
    return rows


def test_hd_check_rows_are_the_closed_form():
    rows = hd_check(12, 1 << 12)
    assert [(s, total.re, total.im) for s, total, _ in rows] == closed_form(12)
    assert [(s, closed.re, closed.im) for s, _, closed in rows] == closed_form(12)


def test_hd_check_names_the_degree_of_a_planted_sum(monkeypatch):
    original = zeta.hd_sum
    summed = []

    def planted(s):
        summed.append(s)
        return original(s) + GaussInt(2, 0) if s == 7 else original(s)

    monkeypatch.setattr(zeta, "hd_sum", planted)
    with pytest.raises(OracleMismatch, match=r"^degree 7: enumerated sum "):
        hd_check(12, 1 << 12)
    assert summed == list(range(1, 8))
