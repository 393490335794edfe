"""Existence flags for a datum behind a given curve, and recovery."""

import itertools
import random

import pytest

from aswcurves.curves import CurveSpec, TwistDatum, build_curve, head_curve, l_polynomial, presentation
from aswcurves.curves.presentation import (
    parameter_search,
    presentation_conditions,
    recover_datum,
    recover_head,
)
from aswcurves.errors import (
    ConditionViolated,
    CtxMismatch,
    KernelNotRational,
    NoTwistParameter,
    OracleMismatch,
)
from aswcurves.gf2field import make_field, parse_field_spec
from aswcurves.skew import SkewPoly
from aswcurves.symplectic import PairingCtx
from reference import quotient_curve

F2 = make_field(1)
F4 = make_field(2)
F16 = make_field(4)
W = 2


class TestPresentationConditions:
    def test_kernel_in_subfield_all_flags_hold(self):
        report = presentation_conditions(CurveSpec(F4, 2, (0, 1)))
        assert report.flags == (True,) * 4
        fd, t = report.witness
        assert fd.F == SkewPoly.from_coeffs(F4, [1, 1])
        assert t == W

    def test_quadratic_kernel_but_trace_fails(self):
        # x^2 over F_2: the kernel is all of F_4, inside the quadratic
        # extension, but the trace form is nonzero on the radical.
        report = presentation_conditions(CurveSpec(F2, 1, (0, 1)))
        assert report.flags == (False,) * 4
        assert report.witness is None

    def test_kernel_outside_quadratic_extension(self):
        # x^4 over F_2: the kernel splits only over degree 4.
        report = presentation_conditions(CurveSpec(F2, 1, (0, 0, 1)))
        assert report.flags == (False,) * 4

    def test_every_family_member_witnessed_when_kernel_rational(self):
        # With ker(R + R*) inside F_q, every linear coefficient admits
        # a witness, though possibly through different Lagrangians.
        for a0 in range(4):
            report = presentation_conditions(CurveSpec(F4, 2, (a0, 1)))
            assert report.flags == (True,) * 4
            fd, t = report.witness
            assert build_curve(fd, t) == CurveSpec(F4, 2, (a0, 1))

    def test_exhaustive_agreement_small_field(self):
        # Flags must agree (the op raises otherwise) on every curve
        # over F_4 with e <= 2; witnesses must rebuild exactly.
        seen = {True: 0, False: 0}
        for coeffs in itertools.product(range(4), repeat=3):
            if coeffs[-1] == 0:
                continue
            spec = CurveSpec(F4, 2, coeffs)
            report = presentation_conditions(spec)
            seen[report.witnessed] += 1
            if report.witnessed:
                fd, t = report.witness
                assert build_curve(fd, t) == spec
        assert seen[True] > 0 and seen[False] > 0

    def test_basis_reading_equals_every_element(self):
        """Flags 2 and 3 read on a basis equal the same forms evaluated at
        every element of V and of the radical, written out here."""
        rng = random.Random(20261019)
        seen = set()
        for field in ("F16", "F64", "F16:p=4", "F256:p=4", "F64:p=8"):
            ctx = parse_field_spec(field)
            for q_deg in range(ctx.p_log, ctx.n + 1, ctx.p_log):
                if ctx.n % q_deg:
                    continue
                field_q = ctx.subfield_elements(q_deg)
                for _ in range(12):
                    e = rng.randint(1, 3)
                    coeffs = [rng.choice(field_q) for _ in range(e)]
                    spec = CurveSpec(ctx, q_deg, (*coeffs, rng.choice(field_q[1:])))
                    expected = every_element_flags(spec)
                    if expected is None:
                        continue  # V is not inside the quadratic extension
                    report = presentation_conditions(spec)
                    got = (report.extension_trace_vanishes, report.radical_trace_vanishes)
                    assert got == expected, spec
                    seen.add(expected)
        assert seen == {(True, True), (False, False)}

    def test_degenerate_radical_case_over_f4(self):
        # e = 2 with kernel of the symmetrization meeting F_4 in a
        # proper subspace exercises the radical handling.
        spec = CurveSpec(F4, 2, (0, 0, 1))
        report = presentation_conditions(spec)
        assert report.flags[0] == report.flags[1] == report.flags[2]


def every_element_flags(spec):
    """(flag 2, flag 3) from every element of V = ker(R + R*) and of the
    radical of V cap F_q, or None when V is not inside F_{q^2}."""
    q_deg = spec.q_deg
    if (2 * q_deg) % spec.e_skew().kernel_splitting_degree():
        return None
    ctx = make_field(2 * q_deg, None, spec.ctx.p_log)
    pspec = spec.transport_to(ctx)
    pc = PairingCtx(pspec.e_skew())
    radical = pc.orthogonal_complement(pc.W.intersect_subfield(q_deg))
    q_power = q_deg // ctx.p_log
    flag2 = all(
        ctx.trace(ctx.mul(ctx.frob_p(u, q_power) ^ u, pspec.evaluate(u)), 2 * q_deg, ctx.p_log)
        == 0
        for u in pc.W.elements()
    )
    flag3 = all(
        ctx.trace(ctx.mul(u, pspec.evaluate(u)), q_deg, ctx.p_log) == 0
        for u in radical.elements()
    )
    return flag2, flag3


class TestRecovery:
    def test_recover_head_anchor(self):
        fd = recover_head(CurveSpec(F4, 2, (0, 1)))
        assert fd.F == SkewPoly.from_coeffs(F4, [1, 1])
        assert fd.conditions == (True,) * 4

    def test_recover_datum_anchor(self):
        fd, t = recover_datum(CurveSpec(F4, 2, (0, 1)))
        assert t == W
        assert build_curve(fd, t) == CurveSpec(F4, 2, (0, 1))

    def test_round_trip_from_datum(self):
        # p^(2e) elements must fit in F_q, so e = 2 needs q >= 16.
        for head in [(0, 1), (0, 0, 1)]:
            fd = recover_head(CurveSpec(F16, 4, head))
            for t in range(16):
                spec = build_curve(fd, t)
                fd2, t2 = recover_datum(spec)
                assert build_curve(fd2, t2) == spec

    def test_no_twist_parameter(self):
        # The twist image of the recovered datum for head x^2 over F_4
        # is {0, 1}; the other two linear coefficients have witnesses
        # only through other Lagrangians.
        for a0 in (W, W ^ 1):
            with pytest.raises(NoTwistParameter):
                recover_datum(CurveSpec(F4, 2, (a0, 1)))

    def test_kernel_not_rational(self):
        with pytest.raises(KernelNotRational):
            recover_head(CurveSpec(F2, 1, (0, 1)))

    def test_head_required(self):
        with pytest.raises(ValueError):
            recover_head(CurveSpec(F4, 2, (1, 1)))

    def test_recovered_head_matches(self):
        hit = 0
        for coeffs in [(0, 1), (0, W), (0, 1, W), (0, 0, 1)]:
            for ctx, q_deg in [(F4, 2), (F16, 4)]:
                spec = CurveSpec(ctx, q_deg, coeffs)
                try:
                    fd = recover_head(spec)
                except KernelNotRational:
                    continue
                hit += 1
                assert head_curve(fd) == spec
        assert hit >= 3

    def test_kernel_sizes_multiply(self):
        fd = recover_head(CurveSpec(F16, 4, (0, 0, 1)))
        assert (
            fd.composite_kernel.dim_p
            == fd.kernel.dim_p + fd.adjoint_kernel.dim_p
        )

    def test_ambient_independence(self):
        # Recovery canonicalizes internally, so the datum coefficients
        # agree no matter which ambient holds the input.
        from aswcurves.gf2field import transport

        big_ctx = make_field(8)
        small = recover_head(CurveSpec(F16, 4, (0, 0, 1)))
        big = recover_head(CurveSpec(F16, 4, (0, 0, 1)).transport_to(big_ctx))
        lifted = {i: transport(F16, c, big_ctx, 4) for i, c in small.F.coeffs.items()}
        assert big.F == SkewPoly(big_ctx, lifted)


def scanned_parameter(fd, a0):
    """Reference: least t in F_q with twist coefficient a0, by scanning."""
    for t in sorted(fd.ctx.subfield_elements(fd.q_deg)):
        if fd.twist_coefficient(t) == a0:
            return t
    return None


def adjoint_killing_one(ctx, q_deg, rng, e):
    """A random datum over F_q with F*(1) = 0 (flags 1 and 2)."""
    sub = ctx.subfield_elements(q_deg)
    while True:
        tail = [rng.choice(sub) for _ in range(e - 1)] + [rng.choice(sub[1:])]
        b0 = 0
        for i, b in enumerate(tail, start=1):
            b0 ^= ctx.frob_p(b, -i)
        if b0:
            coeffs = {i: b for i, b in enumerate([b0] + tail) if b}
            return TwistDatum(SkewPoly(ctx, coeffs), q_deg)


class TestParameterSearch:
    @pytest.mark.parametrize(
        "ambient, q_deg, p_log", [(4, 4, 1), (8, 4, 1), (8, 8, 2), (12, 6, 1), (12, 4, 2)]
    )
    def test_matches_the_scan(self, ambient, q_deg, p_log):
        ctx = make_field(ambient, None, p_log)
        rng = random.Random(ambient * 100 + q_deg * 10 + p_log)
        sub = ctx.subfield_elements(q_deg)
        outside = [a for a in range(ctx.order) if a not in set(sub)]
        for e in (1, 2):
            fd = adjoint_killing_one(ctx, q_deg, rng, e)
            image = [fd.twist_coefficient(t) for t in rng.sample(sub, 4)]
            full_image = {fd.twist_coefficient(t) for t in sub}
            missed = [a for a in sub if a not in full_image]
            targets = image + rng.sample(missed, 4) + rng.sample(outside, min(2, len(outside)))
            for a0 in targets:
                assert parameter_search(fd, a0) == scanned_parameter(fd, a0)
            assert all(parameter_search(fd, a0) is not None for a0 in image)
            assert all(parameter_search(fd, a0) is None for a0 in targets[4:])

    @pytest.mark.parametrize("a0", [0x10, 1 << 40])
    def test_coefficient_outside_the_field_is_rejected(self, a0):
        # the square root would drop the bits past the field and answer
        # for another coefficient
        fd = recover_head(CurveSpec(F16, 4, (0, 1)))
        assert parameter_search(fd, a0 & 0xF) == 6
        with pytest.raises(CtxMismatch, match="is not an element of F_"):
            parameter_search(fd, a0)

    def test_adjoint_not_killing_one_is_rejected(self):
        fd = TwistDatum(SkewPoly(F16, {0: 1, 1: 2}), 4)
        assert fd.conditions[:2] == (True, False)
        with pytest.raises(ConditionViolated):
            parameter_search(fd, 0)


class TestResultChecks:
    """Explicit OracleMismatch raises, so they also run under python -O."""

    SPEC = CurveSpec(F4, 2, (0, 1))

    def test_parameter_must_exist_past_the_lagrangian(self, monkeypatch):
        monkeypatch.setattr(presentation, "parameter_search", lambda fd, a0: None)
        with pytest.raises(OracleMismatch, match="past its Lagrangian"):
            presentation_conditions(self.SPEC)

    def test_witness_must_rebuild_the_curve(self, monkeypatch):
        monkeypatch.setattr(presentation, "build_curve", lambda fd, t: None)
        with pytest.raises(OracleMismatch, match="witness of .* rebuilds another curve"):
            presentation_conditions(self.SPEC)

    def test_radical_must_be_the_frobenius_image(self, monkeypatch):
        monkeypatch.setattr(presentation, "_frobenius_image", lambda ctx, V, q_deg: None)
        with pytest.raises(OracleMismatch, match="image of u\\^q \\+ u"):
            presentation_conditions(self.SPEC)

    def test_recovered_datum_must_keep_the_head(self, monkeypatch):
        monkeypatch.setattr(presentation, "head_curve", lambda fd: None)
        with pytest.raises(OracleMismatch, match="has another head"):
            recover_head(self.SPEC)

    def test_recovered_datum_must_rebuild_the_curve(self, monkeypatch):
        monkeypatch.setattr(presentation, "build_curve", lambda fd, t: None)
        with pytest.raises(OracleMismatch, match="recovered for .* rebuilds another curve"):
            recover_datum(self.SPEC)


# (ambient degree, q_deg, p_log, modulus): p = 4 and p = 8, the moduli
# 0x19, 0x1f and 0x11d, and ambients wider than F_q
QUOTIENT_CONTEXTS = [
    (4, 4, 2, 0x19),
    (4, 4, 2, 0x1F),
    (8, 4, 2, 0x11D),
    (8, 8, 2, 0x11D),
    (6, 6, 3, None),
    (12, 6, 3, None),
    (12, 3, 3, None),
]


def _quotient_draws(n, q_deg, p_log, poly):
    """Fixed-seed curves with e <= 2: ten with random coefficients, mostly
    unwitnessed, then curves of random data F with F*(1) = 0 and a
    rational adjoint kernel, which all are, until three of those."""
    ctx = make_field(n, poly, p_log)
    elements = ctx.subfield_elements(q_deg)
    rng = random.Random(n * 100 + q_deg * 10 + p_log)
    for k in range(10):
        coeffs = [rng.choice(elements) for _ in range(1 + k % 2)] + [rng.choice(elements[1:])]
        yield CurveSpec(ctx, q_deg, tuple(coeffs))
    built = 0
    for k in range(200):
        tail = [rng.choice(elements) for _ in range(k % 2)] + [rng.choice(elements[1:])]
        b0 = 0  # F*(1) = b0 + sum b_i^(p^-i)
        for i, b in enumerate(tail, 1):
            b0 ^= ctx.frob_p(b, -i)
        if b0:
            fd = TwistDatum(SkewPoly.from_coeffs(ctx, [b0, *tail]), q_deg)
            if all(fd.conditions[:3]):
                yield build_curve(fd, rng.choice(elements))
                built += 1
                if built == 3:
                    return
    raise AssertionError("fewer than three data with flags 1..3")


@pytest.mark.parametrize("n,q_deg,p_log,poly", QUOTIENT_CONTEXTS)
def test_flags_and_l_polynomial_match_the_quotient_over_f2(n, q_deg, p_log, poly):
    """C: y^p - y = x*R(x) and its quotient C_1 over F_2 (`quotient_curve`)
    have the same four flags, and L_C = L_{C_1}^(p - 1): the same roots,
    each with multiplicity p - 1 against 1."""
    witnessed = 0
    for spec in _quotient_draws(n, q_deg, p_log, poly):
        report, quotient = presentation_conditions(spec), presentation_conditions(quotient_curve(spec))
        assert report.flags == quotient.flags, spec
        if report.witnessed:
            lp, lq = l_polynomial(*report.witness), l_polynomial(*quotient.witness)
            assert lp.roots == lq.roots, spec
            assert (lp.multiplicity, lq.multiplicity) == (spec.p - 1, 1), spec
            witnessed += 1
    assert witnessed >= 3
