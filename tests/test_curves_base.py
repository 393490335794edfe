"""Curve/datum types, eigenvalue formulas, and the counting oracle."""

import hashlib
import json
import os
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from aswcurves import bitvec
from aswcurves.curves import (
    CurveSpec,
    TwistDatum,
    brute_count,
    build_curve,
    classify_twists,
    extremal_from_subspace,
    format_curve_spec,
    head_curve,
    hermitian_twist,
    l_polynomial,
    parse_curve_spec,
    period_parity,
    psi_sum,
    quadratic_extension_maximal,
)
from aswcurves.curves.base import weil_class, weil_gap
from aswcurves.curves import count
from aswcurves.curves.count import checked_count, trace_zero_count
from aswcurves.curves.lpoly import LPolynomial
from aswcurves.curves.period import coefficient_range
from aswcurves.curves.presentation import presentation_conditions, recover_head
from aswcurves.curves.twists import least_admissible_parameter
from aswcurves.errors import (
    AmbientTooSmall,
    BudgetExceeded,
    CapExceeded,
    Char2Error,
    ConditionViolated,
    CtxMismatch,
    DegreeMismatch,
    DomainError,
    KernelNotRational,
    OracleMismatch,
    ParseError,
    ZeroDivisor,
)
from aswcurves.gf2field import Fp2Subspace, make_field, parse_field_spec
from aswcurves.skew import SkewPoly
from aswcurves.witt2 import GaussInt

F4 = make_field(2)
F16 = make_field(4)
W = 2  # generator of F_4 with w^2 = w + 1


def datum_tau_plus_one():
    return TwistDatum(SkewPoly.from_coeffs(F4, [1, 1]), 2)


def test_reprs_name_their_values():
    fd = datum_tau_plus_one()
    assert repr(fd) == "TwistDatum('0x1*t^1 + 0x1*t^0', q_deg=2)"
    assert repr(l_polynomial(fd, W)) == "LPolynomial(q=4, mult=1, [-2+0i, -2+0i])"
    subspace = Fp2Subspace.from_vectors(make_field(4, None, 2), [1, 6])
    assert repr(subspace) == "Fp2Subspace(p=2^2, [0x6, 0x1])"
    assert repr(GaussInt(3, -2)) == "GaussInt(3, -2)"


class TestCurveSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CurveSpec(F4, 2, (1,))  # needs e >= 1
        with pytest.raises(ValueError):
            CurveSpec(F4, 2, (1, 0))  # leading coefficient zero
        with pytest.raises(ValueError):
            CurveSpec(F16, 2, (0, W))  # w generates F_4 under the F_16
            # modulus only at mask 6; raw 2 generates F_16 itself
        with pytest.raises(ValueError):
            CurveSpec(F4, 3, (0, 1))  # 3 does not divide 2

    def test_with_a0_is_the_validated_spec(self):
        # only a0 is checked; the tail was checked when the head was built
        K = make_field(8, 0x11D, 2)
        sub = K.subfield_elements(4)
        head = CurveSpec(K, 4, (0, sub[5], sub[3]))
        for a in sub:
            twist = head.with_a0(a)
            built = CurveSpec(K, 4, (a,) + head.coeffs[1:])
            assert twist == built and hash(twist) == hash(built)
            assert (twist.ctx, twist.q_deg, twist.coeffs) == (built.ctx, built.q_deg, built.coeffs)
            assert format_curve_spec(twist) == format_curve_spec(built)
        for a in (a for a in range(K.order) if a not in sub):
            with pytest.raises(DomainError, match="outside the declared subfield"):
                head.with_a0(a)
        for a in (K.order, K.order + 1, -1):
            with pytest.raises(CtxMismatch):
                head.with_a0(a)

    def test_genus_and_sizes(self):
        spec = CurveSpec(F4, 2, (0, 1))
        assert (spec.p, spec.q, spec.e, spec.genus) == (2, 4, 1, 1)
        p4 = make_field(4, None, 2)
        spec4 = CurveSpec(p4, 4, (0, 1))
        assert (spec4.p, spec4.q, spec4.e, spec4.genus) == (4, 16, 1, 6)

    def test_evaluate_matches_skew(self):
        spec = CurveSpec(F16, 4, (3, 5, 9))
        r = spec.r_skew()
        for x in range(16):
            assert spec.evaluate(x) == r(x)

    def test_symmetrization_drops_linear_term(self):
        spec = CurveSpec(F16, 4, (7, 5, 9))
        e = spec.e_skew()
        assert e == spec.head().e_skew()
        assert e[0] == 0

    def test_transport_round_trip(self):
        spec = CurveSpec(F4, 2, (1, W))
        big = make_field(4)
        moved = spec.transport_to(big)
        assert moved.q_deg == 2
        assert moved.transport_to(F4) == spec

    def test_over_declares_the_curve_over_the_extension(self):
        spec = CurveSpec(F4, 2, (1, W))
        assert spec.over(1) is spec
        wide = spec.transport_to(make_field(4, 0x19))
        assert wide.over(2) == CurveSpec(wide.ctx, 4, wide.coeffs)  # re-declared
        assert wide.over(1) == spec  # F_q itself, in its default context
        f64 = make_field(6)
        assert spec.over(3) == CurveSpec(f64, 6, spec.transport_to(f64).coeffs)
        with pytest.raises(AmbientTooSmall):
            spec.over(17)

    def test_text_round_trip(self):
        spec = CurveSpec(F4, 2, (1, W))
        text = format_curve_spec(spec)
        assert text == "q=F4; R=2,1"
        assert parse_curve_spec(text) == spec
        assert parse_curve_spec("q=F4; R=0x2,0x1") == spec

    def test_parse_errors(self):
        for bad in ["", "q=F4", "q=F4; R=", "q=F4; R=zz", "q=F4; R=0x9,0x1"]:
            with pytest.raises(ParseError):
                parse_curve_spec(bad)


class TestTwistDatum:
    def test_flags_for_good_datum(self):
        fd = datum_tau_plus_one()
        assert fd.conditions == (True, True, True, True)
        assert fd.adjoint_kernel.elements() == [0, 1]
        assert fd.composite_kernel.dim_p == 2

    def test_adjoint_must_kill_one(self):
        fd = TwistDatum(SkewPoly.from_coeffs(F4, [W, 1]), 2)
        assert fd.separable
        assert not fd.adjoint_kills_one
        with pytest.raises(ConditionViolated):
            fd.head_coefficients()

    def test_zero_polynomial_has_no_flag(self):
        fd = TwistDatum(SkewPoly.zero(F16), 4)
        assert fd.conditions == (False, False, False, False)
        assert fd.adjoint_splitting == fd.composite_splitting == 0
        assert fd.adjoint_kernel is fd.kernel is fd.composite_kernel is None
        with pytest.raises(ConditionViolated):
            fd.require(1)

    @pytest.mark.parametrize("ctx", [F16, make_field(4, None, 2)], ids=["F16", "F16:p=4"])
    def test_positive_valuation_is_not_separable(self, ctx):
        # F = t^2 + t = t*(t + 1): F*(1) = 0, and ker F*, ker F*F lie in F_16
        fd = TwistDatum(SkewPoly(ctx, {2: 1, 1: 1}), 4)
        assert fd.conditions == (False, True, True, True)
        # in 2-Frobenius degrees: ker F* = F_p, ker F*F = F_{p^2}
        assert (fd.adjoint_splitting, fd.composite_splitting) == (ctx.p_log, 2 * ctx.p_log)
        assert fd.adjoint_kernel.dim_p == 1 and fd.composite_kernel.dim_p == 2
        assert fd.kernel is None
        with pytest.raises(ConditionViolated):
            fd.require(1)

    def test_offset_and_twist_coefficient(self):
        fd = datum_tau_plus_one()
        # offset = sum over i < j of b_i^(p^-i) b_j^(p^-j) = 1 * 1 = 1
        assert fd.twist_coefficient(0) == 1
        assert fd.twist_coefficient(W) == 0

    def test_head_coefficients_tau_plus_one(self):
        assert datum_tau_plus_one().head_coefficients() == (1,)

    def test_head_coefficients_tau_sq_plus_one(self):
        fd = TwistDatum(SkewPoly.from_coeffs(F4, [1, 0, 1]), 2)
        assert fd.head_coefficients() == (0, 1)

    def test_result_checks_raise_oracle_mismatch(self, monkeypatch):
        # explicit checks, so they also run under python -O
        fd = datum_tau_plus_one()
        fd._composite = SkewPoly.one(F4)
        with pytest.raises(OracleMismatch, match=r"R \+ R\*"):
            fd.head_coefficients()
        monkeypatch.setattr(SkewPoly, "kernel", lambda self, ambient=None: Fp2Subspace(F4, ()))
        with pytest.raises(OracleMismatch, match=r"ker F\*F"):
            datum_tau_plus_one()

    def test_fiber_is_kernel_coset(self):
        fd = datum_tau_plus_one()
        assert fd.twist_fiber(W) == sorted([W, W ^ 1])
        for t in fd.twist_fiber(W):
            assert fd.twist_coefficient(t) == fd.twist_coefficient(W)

    def test_build_curve(self):
        fd = datum_tau_plus_one()
        assert build_curve(fd, W).coeffs == (0, 1)
        assert build_curve(fd, 0).coeffs == (1, 1)
        assert head_curve(fd).coeffs == (0, 1)


class TestLPolynomial:
    def test_maximal_anchor(self):
        lp = l_polynomial(datum_tau_plus_one(), W)
        assert lp.roots == (GaussInt(-2), GaussInt(-2))
        assert lp.poly_coeffs() == (1, 4, 4)  # (1 + 2T)^2
        assert lp.is_maximal and lp.is_extremal and not lp.is_minimal
        assert lp.point_count(1) == 9

    def test_non_extremal_anchor(self):
        lp = l_polynomial(datum_tau_plus_one(), 0)
        assert lp.roots == (GaussInt(0, -2), GaussInt(0, 2))
        assert not lp.is_extremal
        assert lp.point_count(1) == 5

    def test_root_norms_checked(self):
        with pytest.raises(ValueError):
            from aswcurves.curves.lpoly import LPolynomial

            LPolynomial(4, 1, (GaussInt(1, 0),))

    def test_degree_is_twice_genus(self):
        fd = TwistDatum(SkewPoly.from_coeffs(F4, [1, 0, 1]), 2)
        lp = l_polynomial(fd, 0)
        assert lp.degree == 2 * build_curve(fd, 0).genus
        assert lp.genus == build_curve(fd, 0).genus

    def test_eigenvalue_count_checked_against_the_degree(self, monkeypatch):
        # an explicit check, so it also runs under python -O
        fd = recover_head(CurveSpec(F16, 4, (0, 0, 1)))
        monkeypatch.setattr(fd, "adjoint_kernel", Fp2Subspace.from_vectors(F16, [1]))
        with pytest.raises(OracleMismatch, match="2 eigenvalues for a datum of degree 2"):
            l_polynomial(fd, 0)


class TestWeilClass:
    def test_classes_over_f4(self):
        spec = CurveSpec(F4, 2, (0, 1))  # genus 1, bound 5 +- 4
        assert weil_gap(spec) == 4
        assert weil_class(spec, 1, 9) == "maximal"
        assert weil_class(spec, 1, 1) == "minimal"
        assert weil_class(spec, 1, 5) == "neutral"
        assert weil_class(spec, 1, 7) == "interior"
        assert weil_class(spec, 1, 3) == "interior"
        assert weil_class(spec, 1, brute_count(spec)) == "maximal"

    def test_counts_outside_the_bound_raise(self):
        spec = CurveSpec(F4, 2, (0, 1))
        for count in (0, 10, 100):
            with pytest.raises(OracleMismatch):
                weil_class(spec, 1, count)
        with pytest.raises(OracleMismatch):
            weil_class(spec, 2, 17 + 9)

    def test_non_square_field_never_attains(self):
        F8 = make_field(3)
        spec = CurveSpec(F8, 3, (1, 1))  # genus 1, |deviation| <= 5.65
        assert weil_gap(spec) is None
        assert weil_class(spec, 1, 9) == "neutral"
        for count in (4, 5, 14):
            assert weil_class(spec, 1, count) == "interior"
        with pytest.raises(OracleMismatch):
            weil_class(spec, 1, 15)
        assert weil_class(spec, 1, brute_count(spec)) in ("neutral", "interior")
        assert weil_gap(spec, 2) == 16  # F_64 is a square again

    def test_extension_degrees(self):
        spec = CurveSpec(F4, 2, (0, 1))  # eigenvalues -2, -2
        assert weil_gap(spec, 2) == 8 and weil_gap(spec, 3) == 16
        assert weil_class(spec, 2, brute_count(spec, 2)) == "minimal"  # 17 - 8
        assert weil_class(spec, 3, brute_count(spec, 3)) == "maximal"  # 65 + 16
        assert weil_class(spec, 2, 17) == "neutral"

    def test_p_four(self):
        p4 = make_field(4, None, 2)
        spec = CurveSpec(p4, 4, (0, 1))  # y^4 + y = x^5, genus 6
        assert weil_gap(spec) == 48
        assert brute_count(spec) == 65
        assert weil_class(spec, 1, 65) == "maximal"
        assert weil_class(spec, 1, 17) == "neutral"
        assert weil_class(spec, 1, 33) == "interior"
        with pytest.raises(OracleMismatch):
            weil_class(spec, 1, 66)
        assert weil_gap(spec, 2) == 12 * 16


class TestBruteCount:
    def test_hermitian_anchor(self):
        spec = CurveSpec(F4, 2, (0, 1))  # y^2 + y = x^3
        assert brute_count(spec) == 9

    def test_five_point_anchor(self):
        spec = CurveSpec(F4, 2, (1, 1))  # y^2 + y = x^3 + x^2
        assert brute_count(spec) == 5

    def test_count_mod_p(self):
        p4 = make_field(4, None, 2)
        for coeffs in [(0, 1), (5, 9), (2, 3)]:
            spec = CurveSpec(p4, 4, coeffs)
            assert brute_count(spec) % spec.p == 1

    def test_extension_counts(self):
        spec = CurveSpec(F4, 2, (0, 1))
        lp = l_polynomial(datum_tau_plus_one(), W)
        for m in (1, 2, 3):
            assert brute_count(spec, m) == lp.point_count(m)

    def test_threads_bit_identical(self):
        spec = CurveSpec(F16, 4, (3, 5, 9))
        assert brute_count(spec, 2, threads=4) == brute_count(spec, 2)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two threads need two cores")
    def test_threads_over_two_chunks(self):
        # 2^21 elements are two chunks, so the thread pool really runs.
        spec = CurveSpec(make_field(7), 7, (3, 5, 9))
        assert 1 << 21 == 2 * bitvec.CHUNK
        assert brute_count(spec, 3, threads=2) == brute_count(spec, 3, threads=1)

    def test_budget_and_ambient_guards(self):
        spec = CurveSpec(F4, 2, (0, 1))
        with pytest.raises(BudgetExceeded):
            brute_count(spec, 16, budget=1 << 10)
        with pytest.raises(AmbientTooSmall):
            brute_count(spec, 17, budget=1 << 40)

    def test_affine_count_vs_character_sum(self):
        # p * zero-traces = q + (p-1) * full character sum, over both
        # characteristics; this ties the two enumeration targets together.
        p4 = make_field(4, None, 2)
        for spec in [
            CurveSpec(F4, 2, (1, W)),
            CurveSpec(F16, 4, (6, 7, 3)),
            CurveSpec(p4, 4, (5, 9)),
        ]:
            q = spec.q
            affine = brute_count(spec) - 1
            assert affine == q + (spec.p - 1) * psi_sum(spec)

    def test_character_sum_matches_eigenvalues(self):
        fd = datum_tau_plus_one()
        for t in range(4):
            total = GaussInt(0)
            for r in l_polynomial(fd, t).roots:
                total = total + r
            assert psi_sum(build_curve(fd, t)) == (-total).as_int()


class TestCheckedCount:
    def test_disagreement_raises_the_single_message(self):
        spec = CurveSpec(F4, 2, (0, 1))
        with pytest.raises(OracleMismatch) as exc:
            checked_count(spec, 2, 18, budget=1 << 10)
        assert str(exc.value) == (
            "eigenvalue count 18 != direct count 9 over extension 2 of q=F4; R=1,0"
        )

    def test_agreement_returns_the_direct_count(self):
        spec = CurveSpec(F4, 2, (0, 1))
        lp = l_polynomial(datum_tau_plus_one(), W)
        for m in (1, 2, 3):
            assert checked_count(spec, m, lp.point_count(m)) == lp.point_count(m)

    def test_over_budget_returns_none_without_counting(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("trace_zero_count called over budget")

        monkeypatch.setattr("aswcurves.curves.count.trace_zero_count", refuse)
        spec = CurveSpec(F16, 4, (3, 5, 9))
        assert checked_count(spec, 2, 1, budget=255) is None
        assert checked_count(spec, 1, None, budget=15) is None

    def test_no_formula_returns_the_plain_count(self):
        spec = CurveSpec(F16, 4, (3, 5, 9))
        for m in (1, 2):
            assert checked_count(spec, m, None) == brute_count(spec, m)

    def test_past_the_ambient_returns_none_without_counting(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("brute_count called past the ambient")

        monkeypatch.setattr(count, "brute_count", refuse)
        assert checked_count(CurveSpec(F4, 2, (0, 1)), 17, 1, budget=1 << 40) is None
        assert checked_count(CurveSpec(F16, 2, (0, 6)), 17, None, budget=1 << 64) is None
        assert checked_count(CurveSpec(F16, 4, (3, 5, 9)), 9, None, budget=1 << 64) is None


# Contexts with non-default moduli, ambients wider than F_q, and p = 2, 4, 8.
WIDE_AMBIENTS = ["F16:0x19", "F16:0x1f", "F16", "F64", "F16:p=4", "F256:p=4", "F64:p=8"]


@st.composite
def curves_with_degree(draw):
    """A curve of degree e <= 3 over some F_q inside one of WIDE_AMBIENTS,
    and an m with q^m <= 2^16.  Each coefficient between the linear and
    the leading one is zero half the time, so that sparse curves, which
    more often have a presentation, are drawn often."""
    ctx = parse_field_spec(draw(st.sampled_from(WIDE_AMBIENTS)))
    q_deg = draw(st.sampled_from(
        [d for d in range(ctx.p_log, ctx.n + 1, ctx.p_log) if ctx.n % d == 0]
    ))
    field = ctx.subfield_elements(q_deg)
    coeffs = [draw(st.sampled_from(field))]
    for _ in range(draw(st.integers(0, 2))):
        coeffs.append(draw(st.sampled_from(field)) if draw(st.booleans()) else 0)
    coeffs.append(draw(st.sampled_from(field[1:])))
    m = draw(st.sampled_from([m for m in (1, 2, 3) if q_deg * m <= 16]))
    return CurveSpec(ctx, q_deg, tuple(coeffs)), m


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(curves_with_degree())
def test_count_is_independent_of_the_ambient(case):
    """Every route that applies to the drawn curve gives one answer, in
    its own context and in the canonical context of F_q."""
    spec, m = case
    report = presentation_conditions(spec)
    assert_routes_agree(
        flags_in_context=report.flags,
        flags_canonical=presentation_conditions(spec.canonical()).flags,
    )
    direct = {k: brute_count(spec, k) for k in {1, m}}
    over_m = {
        "direct_in_context": direct[m],
        "direct_canonical": brute_count(spec.canonical(), m),
    }
    if report.witness is not None:
        over_m["l_polynomial"] = l_polynomial(*report.witness).point_count(m)
    assert_routes_agree(**over_m)

    try:
        classes = classify_twists(spec.head(), budget=0)
        twists = classes.maximal_twists + classes.minimal_twists + classes.neutral_twists
    except KernelNotRational:
        twists = ()
    a0 = spec.coeffs[0]
    if a0 in twists:
        assert_routes_agree(direct_over_q=direct[1], twist_count=classes.twist_count(a0))

    if report.witness is not None and all(report.witness[0].conditions):
        assert_routes_agree(
            quadratic_extension_maximal=quadratic_extension_maximal(*report.witness),
            direct_over_q2_maximal=weil_class(spec, 2, brute_count(spec, 2)) == "maximal",
        )


def assert_routes_agree(**routes):
    """Every route gives the first route's answer; a failure names the
    two routes that disagree."""
    (first, value), *rest = routes.items()
    for name, other in rest:
        assert other == value, f"{first} gives {value} but {name} gives {other}"


def period_outcome(spec):
    try:
        return period_parity(spec, cap=8, budget=1 << 12)
    except (CapExceeded, AmbientTooSmall) as exc:
        return type(exc).__name__, str(exc)


@seed(20261018)
@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(WIDE_AMBIENTS), st.data())
def test_period_is_independent_of_the_ambient(field, data):
    """A curve over F_p in a wider context reaches each F_{p^n} that is
    its context by re-declaring it, and elsewhere by moving."""
    wide = parse_field_spec(field)
    base = make_field(wide.p_log, None, wide.p_log)
    p = base.order
    tail = [data.draw(st.integers(0, p - 1)) for _ in range(data.draw(st.integers(1, 3)))]
    spec = CurveSpec(base, base.n, (*tail, data.draw(st.integers(1, p - 1))))
    assert period_outcome(spec.transport_to(wide)) == period_outcome(spec)


def test_bit_patterns_past_the_field_lie_in_no_subfield():
    fd = recover_head(CurveSpec(F16, 4, (0, 1)))
    assert not F16.in_subfield(16, 4)
    with pytest.raises(DegreeMismatch):
        F16.trace(16, 4, 1)
    for call in (fd.twist_coefficient, lambda t: l_polynomial(fd, t),
                 lambda t: quadratic_extension_maximal(fd, t)):
        with pytest.raises(DomainError):
            call(16)


WIDE_DATUM = TwistDatum(SkewPoly.from_coeffs(F16, [1, 1]), 2)  # F_4 inside F_16


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: CurveSpec(F4, 3, (0, 1)), DomainError, id="CurveSpec-degree"),
        pytest.param(lambda: CurveSpec(F4, 2, (1,)), DomainError, id="CurveSpec-e"),
        pytest.param(lambda: CurveSpec(F4, 2, (1, 0)), DomainError, id="CurveSpec-lead"),
        pytest.param(lambda: CurveSpec(F16, 2, (0, 2)), DomainError, id="CurveSpec-subfield"),
        pytest.param(
            lambda: TwistDatum(SkewPoly.from_coeffs(F4, [1, 1]), 3), DomainError,
            id="TwistDatum-degree",
        ),
        pytest.param(
            lambda: TwistDatum(SkewPoly.from_coeffs(F16, [2, 1]), 2), DomainError,
            id="TwistDatum-subfield",
        ),
        pytest.param(
            lambda: LPolynomial(4, 0, (GaussInt(2),)), DomainError, id="LPolynomial-mult"
        ),
        pytest.param(
            lambda: LPolynomial(4, 1, (GaussInt(1),)), DomainError, id="LPolynomial-norm"
        ),
        pytest.param(
            lambda: LPolynomial(4, 1, (GaussInt(2),)).point_count(0), DomainError,
            id="point_count",
        ),
        pytest.param(lambda: l_polynomial(WIDE_DATUM, 4), DomainError, id="l_polynomial"),
        pytest.param(
            lambda: trace_zero_count(CurveSpec(F4, 2, (0, 1)), 0), DomainError,
            id="trace_zero_count",
        ),
        pytest.param(
            lambda: period_parity(CurveSpec(F4, 2, (0, 1))), DomainError, id="period_parity"
        ),
        pytest.param(
            lambda: recover_head(CurveSpec(F4, 2, (1, 1))), DomainError, id="recover_head"
        ),
        pytest.param(lambda: GaussInt(1) ** -1, DomainError, id="GaussInt-pow"),
        pytest.param(lambda: F4.inv(0), ZeroDivisor, id="inv"),
    ],
)
def test_errors_are_typed(call, error):
    with pytest.raises(Char2Error) as info:
        call()
    assert type(info.value) is error


# -- every extremality verdict on one fixed-seed draw, pinned by sha256 ------

VERDICT_FIELDS = ["F16", "F16:p=4", "F64:p=8", "F256", "F256:p=4"]
VERDICT_GRID_SHA256 = "fd950e0760680fcc4f05716f3b5ab662b02df2513f26920b46418cdbe344404a"


def outcome(call):
    """The call's result, or the name of the package error it raised."""
    try:
        return call()
    except Char2Error as exc:
        return type(exc).__name__


def lp_flags(lp):
    return [lp.is_extremal, lp.is_maximal, lp.is_minimal]


def verdict_grid():
    """Periods of every F_2 and F_4 tuple with e <= 2 at three cap/budget
    pairs; hermitian twists, recipes and F_{q^2} verdicts on a draw over
    each field; and the flags of every L-polynomial met on the way."""
    rows = []
    for p_log in (1, 2):
        ctx = make_field(p_log, None, p_log)
        for coeffs in coefficient_range(1 << p_log, 2):
            spec = CurveSpec(ctx, p_log, coeffs)
            for cap, budget in ((16, 1 << 16), (8, 256), (4, 16)):
                pp = outcome(lambda: period_parity(spec, cap, budget))
                pp = pp if isinstance(pp, str) else [pp.mu, pp.delta]
                rows.append(["period", list(coeffs), cap, budget, pp])
    rng = random.Random(12)
    for text in VERDICT_FIELDS:
        ctx = parse_field_spec(text)
        field = ctx.subfield_elements(ctx.n)
        for a in [0] + sorted(rng.sample(field, 6)):
            rep = outcome(lambda: hermitian_twist(ctx, a, budget=1 << 12))
            if not isinstance(rep, str):
                rep = [
                    rep.relative_trace, rep.is_extremal, rep.is_maximal,
                    [str(z) for z in rep.eigenvalues], lp_flags(rep.lpoly),
                    rep.counting_checked,
                ]
            rows.append(["hermitian", text, a, rep])
        for _ in range(6):
            space = Fp2Subspace.from_vectors(ctx, [1] + rng.sample(field, rng.randint(0, 1)))
            least = least_admissible_parameter(space, ctx.n)
            for t in sorted(rng.sample(field, 2)) + [least or 0]:
                rec = outcome(lambda: extremal_from_subspace(space, t, ctx.n, budget=1 << 12))
                if isinstance(rec, str):
                    rows.append(["recipe", text, list(space.basis), t, rec])
                    continue
                rows.append([
                    "recipe", text, list(space.basis), t, format_curve_spec(rec.curve),
                    rec.is_maximal, lp_flags(rec.lpoly), rec.counting_checked,
                ])
                for u in sorted(rng.sample(field, 3)):
                    verdict = outcome(
                        lambda: quadratic_extension_maximal(rec.datum, u, budget=1 << 12)
                    )
                    flags = lp_flags(l_polynomial(rec.datum, u))
                    rows.append(["quadratic", text, list(space.basis), u, verdict, flags])
    for q, mult, roots in (  # hand-built, each with an integer count
        (4, 1, ((-2, 0), (-2, 0))), (4, 1, ((2, 0), (2, 0))), (4, 1, ((-2, 0), (2, 0))),
        (4, 3, ((0, 2), (0, -2))), (16, 1, ((-4, 0),) * 4),
        (16, 2, ((4, 0), (0, 4), (0, -4), (-4, 0))), (2, 1, ((1, 1), (1, -1))),
    ):
        lp = LPolynomial(q, mult, tuple(GaussInt(*r) for r in roots))
        rows.append(["lpoly", q, mult, lp.format_roots(), lp_flags(lp)])
    return rows


def test_verdict_grid_is_pinned():
    rows = verdict_grid()
    assert len(rows) > 350
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == VERDICT_GRID_SHA256
