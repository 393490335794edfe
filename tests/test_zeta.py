"""The two-route contract: `curves.zeta_report` holds the eigenvalue
route against direct counts, and every command that prints or replays
its counts fails on a planted eigenvalue fault."""

import dataclasses
import json

import pytest

from aswcurves.cli import main
from aswcurves.curves import LPolynomial, count, parse_curve_spec, zeta, zeta_report
from aswcurves.errors import OracleMismatch

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
