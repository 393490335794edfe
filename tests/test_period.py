"""Period search and the exhaustive impossibility scan."""

import pytest

from aswcurves.curves import (
    CurveSpec,
    PeriodParity,
    brute_count,
    forbidden_pairs,
    impossibility_scan,
    period_parity,
)
from aswcurves.curves import period
from aswcurves.curves.period import coefficient_range
from aswcurves.errors import (
    AmbientTooSmall,
    BudgetExceeded,
    CapExceeded,
    DomainError,
    NoTwistParameter,
    OracleMismatch,
)
from aswcurves.gf2field import make_field

F2 = make_field(1)
F4 = make_field(2)
F4_P4 = make_field(2, None, 2)


class TestPeriodParity:
    def test_cubic_is_maximal_at_degree_two(self):
        spec = CurveSpec(F2, 1, (0, 1))
        assert period_parity(spec, cap=4) == PeriodParity(2, -1)

    def test_frobenius_powers_are_maximal_at_twice_their_degree(self):
        for m in range(1, 5):
            spec = CurveSpec(F2, 1, (0,) * m + (1,))
            found = period_parity(spec, cap=2 * m, budget=1 << 20)
            assert found == PeriodParity(2 * m, -1)

    def test_even_tower_sum_is_minimal_at_degree_eight(self):
        spec = CurveSpec(F2, 1, (0, 1, 0, 1))
        assert period_parity(spec, cap=8, budget=1 << 20) == PeriodParity(8, 1)

    def test_zero_relative_trace_quartic_is_minimal_for_p_four(self):
        spec = CurveSpec(F4_P4, 2, (1, 1))
        assert period_parity(spec, cap=4) == PeriodParity(4, 1)

    def test_first_attainment_confirmed_by_direct_count(self):
        spec = CurveSpec(F2, 1, (0, 1, 0, 1))
        found = period_parity(spec, cap=8, budget=1 << 20)
        big = make_field(found.mu)
        lifted = CurveSpec(big, found.mu, (0, 1, 0, 1))
        gap = 2 * lifted.genus * (1 << (found.mu // 2))
        assert brute_count(lifted, 1) == lifted.q + 1 - found.delta * gap

    def test_cap_exceeded_when_period_is_out_of_reach(self):
        spec = CurveSpec(F2, 1, (0, 1, 0, 1))
        with pytest.raises(CapExceeded):
            period_parity(spec, cap=7)

    def test_ambient_too_small_when_no_route_can_decide(self):
        spec = CurveSpec(F2, 1, (0,) * 9 + (1,))
        assert spec.e_skew().kernel_splitting_degree() == 18
        with pytest.raises(AmbientTooSmall):
            period_parity(spec, cap=18, budget=1 << 10)

    def test_degree_past_the_helper_ambient_is_decided_by_count(self, monkeypatch):
        """At n = 18 the quadratic helper extension needs degree 36 > 32,
        so the direct count alone decides, without datum recovery."""
        spec = CurveSpec(F2, 1, (0,) * 9 + (1,))
        monkeypatch.setattr(period, "_formula_class", lambda *args: pytest.fail("formula"))
        found = period_parity(spec, cap=18)
        assert found == PeriodParity(18, -1)
        lifted = CurveSpec(make_field(18), 18, spec.coeffs)
        gap = 2 * lifted.genus * (1 << 9)
        assert brute_count(lifted, 1) == lifted.q + 1 - found.delta * gap

    def test_rejects_coefficients_beyond_the_base_field(self):
        with pytest.raises(ValueError):
            period_parity(CurveSpec(F4, 2, (0, 1)), cap=4)

    @pytest.mark.parametrize("coeffs,attains", [((3, 5, 9), False), ((0, 1), True)])
    def test_a_failed_parameter_search_is_refuted_by_count(self, monkeypatch, coeffs, attains):
        """Without a twist parameter the class is None once a direct
        count shows the curve off the bound (y^2 + y = x*R(x) over F16,
        R = 3x + 5x^2 + 9x^4 is neutral); a count on the bound (R = x^2
        is minimal) contradicts the failed search."""

        def no_parameter(spec):
            raise NoTwistParameter("patched: no twist parameter")

        monkeypatch.setattr(period, "recover_datum", no_parameter)
        spec = CurveSpec(make_field(4), 4, coeffs)
        if attains:
            with pytest.raises(OracleMismatch, match="without a twist presentation"):
                period._formula_class(spec, 1 << 10)
        else:
            assert period._formula_class(spec, 1 << 10) is None


class TestForbiddenPairs:
    def test_odd_degrees_forbidden_with_both_signs(self):
        pairs = forbidden_pairs(1, 9)
        for n in (1, 3, 5, 7, 9):
            assert (n, 1) in pairs and (n, -1) in pairs

    def test_minimal_quadratic_always_forbidden(self):
        assert (2, 1) in forbidden_pairs(1, 4)
        assert (2, 1) in forbidden_pairs(2, 4)

    def test_minimal_quartic_forbidden_only_for_p_two(self):
        assert (4, 1) in forbidden_pairs(1, 4)
        assert (4, 1) not in forbidden_pairs(2, 4)

    def test_minimal_sextic_needs_a_cube_root_of_unity(self):
        assert (6, 1) in forbidden_pairs(2, 6)
        assert (6, 1) not in forbidden_pairs(1, 12)

    def test_pairs_beyond_the_range_are_dropped(self):
        assert forbidden_pairs(1, 1) == frozenset({(1, 1), (1, -1)})

    def test_rejects_p_log_below_one(self):
        with pytest.raises(DomainError, match="p_log >= 1"):
            forbidden_pairs(0, 4)


class TestImpossibilityScan:
    def test_base_range_over_f2_avoids_forbidden_pairs(self):
        report = impossibility_scan(1, 2, n_max=10, budget=1 << 10)
        assert report.excludes(2, 1)
        assert report.excludes(4, 1)
        periods = dict(report.periods)
        assert len(periods) == 6
        assert periods[(0, 1)] == PeriodParity(2, -1)
        assert periods[(0, 0, 1)] == PeriodParity(4, -1)
        assert periods[(1, 0, 1)] == PeriodParity(8, 1)

    def test_minimal_sextic_is_attained_over_f2(self):
        report = impossibility_scan(1, 2, n_max=6, budget=1 << 6)
        assert dict(report.periods)[(1, 1, 1)] == PeriodParity(6, 1)
        assert not report.excludes(6, 1)
        assert (6, 1) not in report.forbidden

    def test_base_range_over_f4_avoids_minimal_sextic(self):
        report = impossibility_scan(2, 1, n_max=6, budget=1 << 12)
        assert (6, 1) in report.forbidden
        assert report.excludes(6, 1)
        periods = dict(report.periods)
        assert len(periods) == 12
        assert periods[(0, 1)] == PeriodParity(2, -1)
        assert periods[(1, 1)] == PeriodParity(4, 1)

    def test_rescaled_quartics_share_the_minimal_period(self):
        report = impossibility_scan(2, 1, n_max=4, budget=1 << 8)
        periods = dict(report.periods)
        minimal = {c for c, pp in periods.items() if pp == PeriodParity(4, 1)}
        assert minimal == {(1, 1), (2, 2), (3, 3)}

    def test_default_range_follows_the_budget(self):
        report = impossibility_scan(1, 1, budget=1 << 8)
        assert report.n_max == 8

    def test_budget_gate(self):
        with pytest.raises(BudgetExceeded):
            impossibility_scan(1, 1, n_max=11, budget=1 << 10)

    def test_excludes_only_inside_the_scanned_range(self):
        report = impossibility_scan(1, 1, n_max=4, budget=1 << 4)
        assert not report.excludes(6, 1)

    @pytest.mark.parametrize("args", [(0,), (1, 0), (1, 2, 0), (1, 2, -3)])
    def test_rejects_ranges_that_decide_nothing(self, args):
        with pytest.raises(DomainError, match="a scan needs p_log, e_max and n_max >= 1"):
            impossibility_scan(*args)


def test_coefficient_range_order():
    # scan order of impossibility_scan and of `aswcurves search`
    assert list(coefficient_range(2, 2)) == [
        (0, 1), (1, 1), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1),
    ]
    assert list(coefficient_range(4, 1))[:5] == [
        (0, 1), (0, 2), (0, 3), (1, 1), (1, 2),
    ]
    assert len(list(coefficient_range(4, 3))) == 3 * (4 + 16 + 64)
