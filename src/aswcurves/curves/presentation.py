"""Deciding whether a curve family comes from a datum, and recovering one.

Write E = R + R* for the symmetrization of the defining polynomial and
V = ker E.  Four conditions turn out to be equivalent.  This module
evaluates conditions 2-4 each on its own and checks condition 1
constructively: its witness is built from the Lagrangian that
condition 4 finds, so it holds exactly when 4 does, and a witness that
fails to rebuild R raises OracleMismatch.

  1. witnessed: a datum F with flags 1..3 and a parameter t rebuild R
     exactly (constructive, includes the verification);
  2. extension_trace_vanishes: V lies in the quadratic extension of F_q
     and Tr((u^q + u) * R(u)) down to F_p vanishes on all of V;
  3. radical_trace_vanishes: same subfield condition, and the form
     Tr(u * R(u)) vanishes on the radical of V cap F_q;
  4. lagrangian_in_subfield: some half-dimension totally isotropic
     subspace of V sits inside F_q with Tr(u * R(u)) vanishing on it.

A disagreement between the four is a proven impossibility, so it is
raised loudly as OracleMismatch rather than reconciled.  Recovery
(`recover_head` / `recover_datum`) is the special case V inside F_q,
where a datum always exists; the Lagrangian search runs in the
canonical context of F_q itself, so the choice is reproducible no
matter which ambient the caller used.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import (
    AmbientTooSmall,
    DomainError,
    KernelNotRational,
    NoSolution,
    NotIsotropic,
    NoTwistParameter,
    OracleMismatch,
)
from ..gf2field import MAX_DEGREE, Element, FieldCtx, Fp2Subspace, make_field
from ..skew import factor_through_symmetric
from ..symplectic import PairingCtx, maximal_isotropic
from .base import CurveSpec, TwistDatum, build_curve, head_curve

__all__ = [
    "PresentationReport",
    "parameter_search",
    "presentation_conditions",
    "recover_datum",
    "recover_head",
]


@dataclass(frozen=True)
class PresentationReport:
    """The four equivalent conditions, each evaluated on its own."""

    witnessed: bool
    extension_trace_vanishes: bool
    radical_trace_vanishes: bool
    lagrangian_in_subfield: bool
    witness: tuple[TwistDatum, Element] | None

    @property
    def flags(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.witnessed,
            self.extension_trace_vanishes,
            self.radical_trace_vanishes,
            self.lagrangian_in_subfield,
        )


def _form_sqrt(spec: CurveSpec, u: Element) -> Element:
    """sqrt(Tr(u * R(u))) to F_p at a subfield point u, the F_p-linear form
    of flag 3 and of the isotropic search."""
    ctx = spec.ctx
    return ctx.sqrt(ctx.trace(ctx.mul(u, spec.evaluate(u)), spec.q_deg, ctx.p_log))


def _datum_through(
    pc: PairingCtx, lagrangian: Fp2Subspace, dst: FieldCtx, q_deg: int
) -> TwistDatum:
    """Factor the pairing's E = R + R* as F*F with ker F the Lagrangian.

    F has coefficients in F_q, so it transports into dst, the caller's
    context, which need not contain the pairing's field; the datum is
    built there.
    """
    F = factor_through_symmetric(pc.F, lagrangian)
    return TwistDatum(F.transport_to(dst, q_deg), q_deg)


def _witness_from_lagrangian(
    spec: CurveSpec, pc: PairingCtx, lagrangian: Fp2Subspace
) -> tuple[TwistDatum, Element]:
    """Factor E through the Lagrangian and search the twist parameter.

    The parameter search cannot fail when the Lagrangian satisfied the
    trace constraint.
    """
    fd = _datum_through(pc, lagrangian, spec.ctx, spec.q_deg)
    fd.require(3)
    t = parameter_search(fd, spec.coeffs[0])
    if t is None:
        raise OracleMismatch(f"no twist parameter of {spec!r} past its Lagrangian")
    if build_curve(fd, t) != spec:
        raise OracleMismatch(f"the witness of {spec!r} rebuilds another curve")
    return fd, t


def parameter_search(fd: TwistDatum, a0: Element) -> Element | None:
    """Least t in F_q with twist coefficient a0, in bit-pattern order.

    The coefficient of t is gamma + F*(t)^2, gamma that of t = 0, so t
    solves F*(t) = sqrt(a0 + gamma) in F_q; None when nothing does.
    ConditionViolated unless the datum has flags 1 and 2, CtxMismatch
    when a0 is not an element of the field.
    """
    ctx = fd.ctx
    target = ctx.sqrt(fd.twist_coefficient(0) ^ ctx.check(a0))
    try:
        return ctx.solve_additive(fd.F.adjoint(), target, fd.q_deg)
    except NoSolution:
        return None


def presentation_conditions(spec: CurveSpec) -> PresentationReport:
    """Evaluate all four conditions independently and compare them.

    Raises AmbientTooSmall when the quadratic extension of F_q cannot
    be represented, and OracleMismatch if the computed flags disagree
    (they provably cannot).
    """
    q_deg = spec.q_deg
    E = spec.e_skew()
    if (2 * q_deg) % E.kernel_splitting_degree() != 0:
        return PresentationReport(False, False, False, False, None)
    if 2 * q_deg > MAX_DEGREE:
        raise AmbientTooSmall(
            f"the quadratic extension needs degree {2 * q_deg} > {MAX_DEGREE}"
        )

    probe = make_field(2 * q_deg, None, spec.ctx.p_log)
    pspec = spec.transport_to(probe)
    pc = PairingCtx(pspec.e_skew())
    V = pc.W

    flag2 = _quadratic_trace_vanishes(pspec, V)

    Vq = V.intersect_subfield(q_deg)
    radical = pc.orthogonal_complement(Vq)
    if radical != _frobenius_image(probe, V, q_deg):
        raise OracleMismatch(f"radical of {spec!r} is not the image of u^q + u")
    flag3 = not any(_form_sqrt(pspec, u) for u in radical.basis)  # F_p-linear

    try:
        lagrangian = maximal_isotropic(
            pc, phi=lambda u: _form_sqrt(pspec, u), radical=radical, within=Vq
        )
        flag4 = True
    except NotIsotropic:
        lagrangian = None
        flag4 = False

    witness = None
    if flag4:
        witness = _witness_from_lagrangian(spec, pc, lagrangian)
    flag1 = witness is not None

    if not flag1 == flag2 == flag3 == flag4:
        raise OracleMismatch(
            f"equivalent conditions disagree on {spec!r}: "
            f"{(flag1, flag2, flag3, flag4)}"
        )
    return PresentationReport(flag1, flag2, flag3, flag4, witness)


def _quadratic_trace_vanishes(pspec: CurveSpec, V: Fp2Subspace) -> bool:
    """Tr((u^q + u) * R(u)) from the quadratic extension, on all of V.
    The form is additive on V, as its cross terms cancel (R + R* kills V,
    R has coefficients in F_q, Tr(y^q) = Tr(y)), so a basis decides."""
    ctx, q_deg = pspec.ctx, pspec.q_deg
    return all(
        ctx.trace(
            ctx.mul(ctx.frob_p(u, q_deg // ctx.p_log) ^ u, pspec.evaluate(u)),
            2 * q_deg,
            ctx.p_log,
        )
        == 0
        for u in V.basis
    )


def _frobenius_image(ctx: FieldCtx, V: Fp2Subspace, q_deg: int) -> Fp2Subspace:
    """Image of u -> u^q + u on V; equals the radical of V cap F_q."""
    steps = q_deg // ctx.p_log
    images = [ctx.frob_p(b, steps) ^ b for b in V.fp_basis()]
    return Fp2Subspace.from_vectors(ctx, images)


def recover_head(head: CurveSpec) -> TwistDatum:
    """A datum with flags 1..4 whose family tail equals the given head.

    Requires ker(R + R*) inside F_q (KernelNotRational otherwise); the
    datum then always exists.  The Lagrangian is chosen by the same
    deterministic search as presentation_conditions, run in the
    canonical context of F_q.
    """
    if not head.is_head:
        raise DomainError("recovery of a datum starts from a zero linear term")
    q_deg = head.q_deg
    if q_deg % head.e_skew().kernel_splitting_degree() != 0:
        raise KernelNotRational(
            "the symmetrization kernel does not lie in the declared subfield"
        )
    hspec = head.canonical()
    pc = PairingCtx(hspec.e_skew())
    lagrangian = maximal_isotropic(
        pc, phi=lambda u: _form_sqrt(hspec, u), radical=Fp2Subspace(pc.ctx, ())
    )
    fd = _datum_through(pc, lagrangian, head.ctx, q_deg)
    fd.require(4)
    if head_curve(fd) != head:
        raise OracleMismatch(f"the datum recovered from {head!r} has another head")
    return fd


def recover_datum(spec: CurveSpec) -> tuple[TwistDatum, Element]:
    """A datum and parameter reproducing the full curve, verified.

    Raises NoTwistParameter when the linear coefficient is outside the
    image of the twist map for the recovered datum: the curve is then
    not a twist of this datum's family.
    """
    fd = recover_head(spec.head())
    t = parameter_search(fd, spec.coeffs[0])
    if t is None:
        raise NoTwistParameter(
            f"linear coefficient {spec.coeffs[0]:#x} is outside the twist image"
        )
    if build_curve(fd, t) != spec:
        raise OracleMismatch(f"the datum recovered for {spec!r} rebuilds another curve")
    return fd, t
