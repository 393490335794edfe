"""Tests of the benchmark's own arithmetic, on synthetic data.

Run with: python3 -m pytest bench/test_stats.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


def span(name, start, end, parent=None, job=0):
    return [name, start, end, parent, job]


class TestSelfTime:
    def test_leaf_self_time_is_its_duration(self):
        assert stats.self_times([span("a", 1.0, 3.5)]) == [2.5]

    def test_nested_children_are_subtracted_once(self):
        spans = [
            span("job", 0.0, 10.0),
            span("count", 1.0, 4.0, parent=0),
            span("mul", 1.5, 2.0, parent=1),
            span("mul", 2.5, 3.0, parent=1),
            span("count", 5.0, 9.0, parent=0),
        ]
        assert stats.self_times(spans) == pytest.approx([3.0, 2.0, 0.5, 0.5, 4.0])

    def test_overlapping_children_count_their_union(self):
        # children from worker threads may overlap; the parent loses the union
        spans = [span("count", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 7.0, 0)]
        assert stats.self_times(spans)[0] == pytest.approx(4.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span("p", 2.0, 4.0), span("c", 1.0, 3.0, 0)]
        assert stats.self_times(spans)[0] == pytest.approx(1.0)

    def test_covered_merges_touching_intervals(self):
        assert stats.covered([(0, 1), (1, 2), (5, 6), (5.5, 7)]) == pytest.approx(4.0)
        assert stats.covered([]) == 0.0


class TestTailPercentile:
    @pytest.mark.parametrize("n, pct", [(11, 9), (20, 50), (40, 75), (51, 80), (100, 90), (242, 95), (1000, 99)])
    def test_highest_percentile_with_ten_beyond(self, n, pct):
        assert stats.tail_percentile(n) == pct
        assert n - math.ceil(pct / 100 * n) >= 10
        assert n - math.ceil((pct + 1) / 100 * n) < 10 or pct == 99

    def test_too_few_jobs(self):
        with pytest.raises(ValueError):
            stats.tail_percentile(10)

    def test_nearest_rank(self):
        values = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
        assert stats.nearest_rank(values, 50) == 5
        assert stats.nearest_rank(values, 90) == 9
        assert stats.nearest_rank(values, 1) == 1
        assert stats.nearest_rank(values, 100) == 10

    def test_tail_value_leaves_ten_jobs_beyond(self):
        times = [float(i) for i in range(40)]
        pct = stats.tail_percentile(len(times))
        tail = stats.nearest_rank(times, pct)
        assert sum(t > tail for t in times) == 10


class TestDerivations:
    def test_repeat_share(self):
        keys = [("F4096", 1)] * 4 + [("F256", 1), ("F256", 1), ("F16", 1)]
        # 7 calls, 3 distinct keys: 4 calls repeat a key already seen
        assert stats.repeat_share(keys) == pytest.approx(4 / 7)
        assert stats.repeat_share([]) == 0.0
        assert stats.repeat_share([1, 2, 3]) == 0.0

    def test_scanned_is_rank_plus_one(self):
        elements = [0, 1, 6, 7, 10, 11, 12, 13]  # a subfield, ascending
        assert stats.scanned(elements, 0) == 1
        assert stats.scanned(elements, 10) == 5
        assert stats.scanned(elements, None) == len(elements)

    def test_scanned_rejects_foreign_parameter(self):
        with pytest.raises(ValueError):
            stats.scanned([0, 1, 6, 7], 5)

    def test_degree_sum(self):
        assert stats.degree_sum([1, 4, 4, 12]) == 21
        assert stats.degree_sum([]) == 0


class TestInputs:
    def test_same_seed_same_jobs(self):
        for workload in jobs.WORKLOADS:
            assert jobs.build(workload, 3) == jobs.build(workload, 3)
            assert jobs.build(workload, 3) != jobs.build(workload, 4)

    def test_every_workload_has_a_tail_percentile(self):
        for workload in jobs.WORKLOADS:
            stats.tail_percentile(len(jobs.build(workload, 0)))

    def test_scaling_is_a_field_automorphism_of_the_monomials(self):
        # x -> s*x multiplies the coefficient of x^(1+p^i) by s^(1+p^i)
        n, poly, _ = jobs.FIELDS["F256"]
        s = 0x53
        base = (0x00, 0x01)
        assert jobs.rescaled(base, s, "F256") == (0, jobs.gf_pow(s, 3, n, poly))
        assert jobs.gf_mul(s, jobs.gf_pow(s, 254, n, poly), n, poly) == 1  # s^(q-1) = 1


class TestChecks:
    def test_weil_bound(self):
        # genus 1 over F_4: counts 1..9 are allowed, 0 and 10 are not
        assert checks.weil_ok(4, 1, 1, 9) and checks.weil_ok(4, 1, 1, 1)
        assert not checks.weil_ok(4, 1, 1, 10) and not checks.weil_ok(4, 1, 1, 0)

    def test_curve_params(self):
        assert checks.curve_params("q=F4; R=1,0") == (4, 2, 1)
        assert checks.curve_params("q=F256:0x11b:p=4; R=1,0,0") == (256, 4, 24)

    def test_forbidden_pairs(self):
        assert checks.forbidden(2, (3, -1)) and checks.forbidden(2, (2, 1)) and checks.forbidden(2, (4, 1))
        assert not checks.forbidden(4, (4, 1)) and not checks.forbidden(2, (2, -1))
        assert checks.forbidden(4, (6, 1))  # m = 3 divides p - 1 = 3

    def test_count_from_roots(self):
        # y^2 + y = x^3 over F_4: both eigenvalues -2, count 9
        assert checks._count_from_roots(4, 2, [(-2, 0), (-2, 0)], 1) == 9

    def test_dropped_route_fails_a_verify_job(self):
        job = jobs.Job("v", argv=("verify", "q=F16; R=1,0,0", "--extensions", "1,2"), extensions=(1, 2))
        record = {
            "curve": "q=F16; R=1,0,0",
            "checks": {"flags": [True] * 4, "flags_agree": True, "witness_degree_matches_genus": True,
                       "routes_compared": 2, "weil_bound_checked": 2},
            "counts": {"1": 33, "2": 193},
            "warnings": [],
            "ok": True,
        }
        reason, totals = checks.check_cli(job, 0, json.dumps(record))
        assert reason is None and totals["routes_compared"] == 2
        record["checks"]["routes_compared"] = 1  # one count was not replayed
        assert "routes compared" in checks.check_cli(job, 0, json.dumps(record))[0]
        assert checks.check_cli(job, 4, "{}")[0].startswith("CheckFailed: exit code 4")


class TestJudge:
    job_list = [jobs.Job("a"), jobs.Job("b")]
    routes = {"a": {"count.calls": 2, "count.elements": 512}, "b": {"lpoly.calls": 0}}

    def result(self, reason_b=None, count_calls=2):
        took = {"count.calls": count_calls, "count.elements": 256 * count_calls}
        return {"jobs": [["a", 0.1, None, "d-a", took], ["b", 0.2, reason_b, "d-b", {}]]}

    def test_clean_passes(self):
        assert run.judge([self.result(), self.result()], self.job_list, None, self.routes) == (4, 0, [])

    def test_golden_mismatch_and_check_failure_count_as_failed(self):
        attempted, failed, reasons = run.judge(
            [self.result(reason_b="bad count")], self.job_list, {"a": "other", "b": "d-b"}, None
        )
        assert (attempted, failed) == (2, 2)
        assert reasons == ["a: output differs from its golden digest", "b: bad count"]

    def test_dead_worker_fails_every_job_of_its_pass(self):
        assert run.judge([self.result(), None], self.job_list, None, None)[:2] == (4, 2)

    def test_skipped_route_fails_the_job(self):
        # same output bytes, one direct count fewer
        attempted, failed, reasons = run.judge([self.result(count_calls=1)], self.job_list, None, self.routes)
        assert (attempted, failed) == (2, 1)
        assert reasons == ["a: route skipped: count.calls 1 < 2"]

    def test_extra_route_calls_pass(self):
        assert run.judge([self.result(count_calls=3)], self.job_list, None, self.routes)[1] == 0

    def test_job_without_a_recorded_tally_fails(self):
        reasons = run.judge([self.result()], self.job_list, None, {"a": self.routes["a"]})[2]
        assert reasons == ["b: no route tally recorded"]


class TestReference:
    def test_job_scale_is_nominal_over_median_of_nearby_units(self, monkeypatch):
        monkeypatch.setattr(run.reference, "WINDOW", 1)
        nominal = run.reference.NOMINAL_S
        # the machine halves its speed during the fourth job
        units = [nominal] * 4 + [2 * nominal] * 4
        assert run.reference.job_scales(units) == pytest.approx([1, 1, 1, 2 / 3, 0.5, 0.5, 0.5])

    def test_setup_is_scaled_by_its_paired_start_up(self):
        nominal = run.reference.NOMINAL_START_S
        # the machine slows by half for the last pair; the ratio holds
        pairs = [(0.3, nominal), (0.3, nominal), (0.45, 1.5 * nominal)]
        assert run.reference.setup_seconds(pairs) == pytest.approx(0.3)

    def test_pass_times_scale_each_job_and_the_wall(self):
        nominal = run.reference.NOMINAL_S
        p = {"wall_s": 3.5, "units": [2 * nominal] * 4, "jobs": [["a", 1.0], ["b", 2.0], ["c", 0.0]]}
        assert run._pass_times(p, True) == pytest.approx((1.75, [0.5, 1.0, 0.0]))
        assert run._pass_times(p, False) == (3.5, [1.0, 2.0, 0.0])
