"""Twist classification and quadratic-extension maximality."""

import pytest

from aswcurves.curves import (
    CurveSpec,
    TwistDatum,
    brute_count,
    build_curve,
    classify_twists,
    quadratic_extension_maximal,
    recover_head,
)
from aswcurves.curves import count
from aswcurves.errors import (
    BudgetExceeded,
    ConditionViolated,
    KernelNotRational,
    OracleMismatch,
)
from aswcurves.gf2field import FieldCtx, Fp2Subspace, make_field
from aswcurves.skew import SkewPoly, factor_through_symmetric

F4 = make_field(2)
F16 = make_field(4)
F16_P4 = make_field(4, None, 2)
W = 0b10

RATIONAL_HEADS_16 = [(0, 1), (0, 8), (0, 10), (0, 12), (0, 15), (0, 0, 1), (0, 0, 6), (0, 0, 7)]


class TestClassifyAnchor:
    def test_square_head_over_f4(self):
        tc = classify_twists(CurveSpec(F4, 2, (0, 1)))
        assert tc.extremal_parameters == (W, W ^ 1)
        assert tc.maximal_parameters == (W, W ^ 1)
        assert tc.minimal_parameters == ()
        assert tc.neutral_parameters == (0, 1)
        assert tc.maximal_twists == (0,)
        assert tc.minimal_twists == ()
        assert tc.neutral_twists == (1, W, W ^ 1)
        assert tc.counting_checked

    def test_twist_class_lookup(self):
        tc = classify_twists(CurveSpec(F4, 2, (0, 1)))
        assert tc.twist_class(0) == "maximal"
        assert tc.twist_class(1) == "neutral"
        with pytest.raises(ValueError):
            tc.twist_class(4)

    def test_square_head_over_f16(self):
        tc = classify_twists(CurveSpec(F16, 4, (0, 1)))
        assert tc.maximal_twists == (1, 6, 7)
        assert tc.minimal_twists == (0,)
        assert len(tc.extremal_parameters) == 8

    def test_p4_hermitian_head(self):
        tc = classify_twists(CurveSpec(F16_P4, 4, (0, 1)))
        assert tc.extremal_parameters == (2, 3, 4, 5)
        assert tc.maximal_twists == (0,)
        assert tc.minimal_twists == ()
        assert len(tc.neutral_twists) == 15


def twist_class_by_scan(tc, a):
    for label in ("maximal", "minimal", "neutral"):
        if a in getattr(tc, f"{label}_twists"):
            return label
    return None


class TestClassifyLargeField:
    """One direct count per twist, and the label lookup, over F_256."""

    @pytest.mark.parametrize(
        "ctx,coeffs", [(make_field(8), (0, 0, 1)), (make_field(8, None, 2), (0, 1))]
    )
    def test_one_count_per_twist(self, monkeypatch, ctx, coeffs):
        calls = []
        original = count.trace_zero_count

        def counted(spec, *args, **kwargs):
            calls.append(spec.coeffs[0])
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(count, "trace_zero_count", counted)
        tc = classify_twists(CurveSpec(ctx, 8, coeffs))
        assert sorted(calls) == list(range(256))
        assert tc.maximal_twists or tc.minimal_twists
        for a in range(256):
            assert tc.twist_class(a) == twist_class_by_scan(tc, a)
        with pytest.raises(ValueError):
            tc.twist_class(256)

    @pytest.mark.parametrize(
        "ctx,coeffs", [(make_field(8), (0, 0, 1)), (make_field(8, None, 2), (0, 1))]
    )
    def test_head_forms_set_up_once(self, monkeypatch, ctx, coeffs):
        """The q counts evaluate R at the unit vectors once, not per twist."""
        head = CurveSpec(ctx, 8, coeffs)
        r_images, counts = [], []
        linear_images = FieldCtx.linear_images
        original = count.trace_zero_count

        def recording_images(self, fn):
            if fn == head.r_skew():
                r_images.append(fn)
            return linear_images(self, fn)

        def counted(spec, *args, **kwargs):
            counts.append(spec.coeffs[0])
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(FieldCtx, "linear_images", recording_images)
        monkeypatch.setattr(count, "trace_zero_count", counted)
        count._head_tables.cache_clear()
        classify_twists(head)
        assert sorted(counts) == list(range(256))
        assert len(r_images) == 1


class TestClassifyInvariants:
    @pytest.mark.parametrize("coeffs", RATIONAL_HEADS_16)
    def test_parameter_set_is_image_coset(self, coeffs):
        head = CurveSpec(F16, 4, coeffs)
        tc = classify_twists(head, counting=False)
        image = {tc.datum.F(u) for u in F16.subfield_elements(4)}
        base = tc.extremal_parameters[0]
        assert {base ^ t for t in tc.extremal_parameters} == image

    @pytest.mark.parametrize("coeffs", RATIONAL_HEADS_16)
    def test_partitions_cover_the_field(self, coeffs):
        head = CurveSpec(F16, 4, coeffs)
        tc = classify_twists(head, counting=False)
        everything = sorted(F16.subfield_elements(4))
        assert sorted(
            tc.extremal_parameters + tc.neutral_parameters
        ) == everything
        assert sorted(
            tc.maximal_twists + tc.minimal_twists + tc.neutral_twists
        ) == everything
        assert sorted(tc.maximal_parameters + tc.minimal_parameters) == list(
            tc.extremal_parameters
        )

    def test_extremal_parameters_hit_the_bound(self):
        head = CurveSpec(F16, 4, (0, 1))
        tc = classify_twists(head)
        gap = (head.p - 1) * head.p**head.e * 4
        for t in tc.maximal_parameters:
            spec = build_curve(tc.datum, t)
            assert brute_count(spec, 1) - 1 == 16 + gap

    def test_datum_choice_does_not_move_twist_sets(self):
        # every one-dimensional subspace of F_4 carries a valid datum
        # for the head x^2; the parameter sets move, the twist sets not
        head = CurveSpec(F4, 2, (0, 1))
        reference = classify_twists(head)
        for v in (1, W, W ^ 1):
            space = Fp2Subspace.from_vectors(F4, [v])
            F = factor_through_symmetric(head.e_skew(), space)
            tc = classify_twists(head, datum=TwistDatum(F, 2))
            assert tc.maximal_twists == reference.maximal_twists
            assert tc.minimal_twists == reference.minimal_twists
            assert tc.neutral_twists == reference.neutral_twists

    def test_formula_only_matches_counted(self):
        head = CurveSpec(F16, 4, (0, 12))
        counted = classify_twists(head)
        formula = classify_twists(head, counting=False)
        assert not formula.counting_checked
        assert formula.maximal_twists == counted.maximal_twists
        assert formula.minimal_twists == counted.minimal_twists
        assert formula.extremal_parameters == counted.extremal_parameters


class TestClassifyErrors:
    def test_non_head_rejected(self):
        with pytest.raises(ValueError):
            classify_twists(CurveSpec(F4, 2, (1, 1)))

    def test_kernel_not_rational(self):
        with pytest.raises(KernelNotRational):
            classify_twists(CurveSpec(make_field(2), 1, (0, 1)))

    def test_kernel_not_rational_e2_over_f4(self):
        # |ker(R + R*)| = p^(2e) = 16 can never fit inside F_4
        with pytest.raises(KernelNotRational):
            classify_twists(CurveSpec(F4, 2, (0, 0, 1)))

    def test_explicit_datum_must_match_head(self):
        fd = recover_head(CurveSpec(F16, 4, (0, 1)))
        with pytest.raises(ValueError):
            classify_twists(CurveSpec(F16, 4, (0, 8)), datum=fd)

    def test_explicit_datum_kernel_checked(self):
        fd_bad = TwistDatum(SkewPoly.from_coeffs(F4, [1, 1]), 1)
        with pytest.raises(KernelNotRational):
            classify_twists(CurveSpec(F4, 1, (0, 1)), datum=fd_bad)

    def test_budget_gate(self):
        head = CurveSpec(F16, 4, (0, 1))
        with pytest.raises(BudgetExceeded):
            classify_twists(head, budget=8)
        tc = classify_twists(head, budget=8, counting=False)
        assert not tc.counting_checked


class TestQuadraticExtension:
    def test_anchor_t_w_is_not_maximal(self):
        fd = recover_head(CurveSpec(F4, 2, (0, 1)))
        assert quadratic_extension_maximal(fd, W) is False

    def test_anchor_t_zero_is_maximal(self):
        # eigenvalues +-2i square to -4: 25 points over F_16
        fd = recover_head(CurveSpec(F4, 2, (0, 1)))
        assert quadratic_extension_maximal(fd, 0) is True
        assert brute_count(build_curve(fd, 0), 2) == 25

    def test_depends_on_trace_only(self):
        fd = recover_head(CurveSpec(F16, 4, (0, 1)))
        verdicts = {}
        for t in sorted(F16.subfield_elements(4)):
            verdicts.setdefault(F16.trace(t, 4, 1), set()).add(
                quadratic_extension_maximal(fd, t)
            )
        assert all(len(v) == 1 for v in verdicts.values())
        assert verdicts[0] != verdicts[1]

    def test_requires_composite_kernel(self):
        fd_bad = TwistDatum(SkewPoly.from_coeffs(F4, [1, 1]), 1)
        with pytest.raises(ConditionViolated):
            quadratic_extension_maximal(fd_bad, 0)

    def test_parameter_outside_subfield(self):
        big = make_field(4)
        fd = TwistDatum(SkewPoly.from_coeffs(big, [1, 1]), 2)
        with pytest.raises(ValueError):
            quadratic_extension_maximal(fd, 4)
