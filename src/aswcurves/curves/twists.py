"""Classification of the twist family R + a*x over its base field.

For a fixed head R the curves y^p - y = x(R(x) + ax) fall into three
classes as a runs over F_q: neutral twists with exactly q affine points,
maximal twists, and minimal twists.  The extremal parameters of a datum
F are empty or one coset t0 + im F, and `image_classification` is the
one classifier; its callers differ only in the shift t0.  Three routes
must agree:

  * eigenvalues: t0 solves psi(t0*v) = Q(v) on ker F*, Q(t0) fixes the
    sign, and t0 + F(u) is maximal or minimal by one quadratic-form bit,
  * trace form: the extremal twists solve an affine system on
    ker(R + R*), and the two cosets are compared by size and membership,
  * brute point counts: each twist's `twist_count` through
    `checked_count`, which decides whether the count runs.

The forms are those of van der Geer-van der Vlugt (Reed-Muller codes
and supersingular curves I, Compositio Math. 84, 1992).  The module
also decides maximality over F_{q^2} from the trace of t alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

from ..errors import DomainError, KernelNotRational, OracleMismatch
from ..gf2field import Element, FieldCtx, Fp2Subspace, kernel_basis, span_contains
from ..witt2 import psi_char, q_char
from .base import CurveSpec, TwistDatum, build_curve, head_curve, weil_class, weil_gap
from .count import DEFAULT_BUDGET, checked_count
from .lpoly import l_polynomial
from .presentation import recover_head

__all__ = ["TwistClassification", "classify_twists", "quadratic_extension_maximal"]


@dataclass(frozen=True)
class TwistClassification:
    """Partition of twist coefficients and parameters, all sorted tuples.

    Parameters t are classified by the eigenvalue they induce; twist
    coefficients a by the point count of their curve.  `maximal_twists`
    is exactly the image of `maximal_parameters` under the coefficient
    map of `datum`, and likewise for minimal; `counting_checked` records
    whether a brute count confirmed the `twist_count` of every twist.
    """

    head: CurveSpec
    datum: TwistDatum
    extremal_parameters: tuple[Element, ...]
    maximal_parameters: tuple[Element, ...]
    minimal_parameters: tuple[Element, ...]
    neutral_parameters: tuple[Element, ...]
    maximal_twists: tuple[Element, ...]
    minimal_twists: tuple[Element, ...]
    neutral_twists: tuple[Element, ...]
    counting_checked: bool

    @cached_property
    def _labels(self) -> dict[Element, str]:
        labels = dict.fromkeys(self.neutral_twists, "neutral")
        labels.update(dict.fromkeys(self.minimal_twists, "minimal"))
        labels.update(dict.fromkeys(self.maximal_twists, "maximal"))
        return labels

    def twist_class(self, a: Element) -> str:
        """Class label of a single twist coefficient."""
        try:
            return self._labels[a]
        except KeyError:
            raise DomainError(f"{a:#x} is not a twist coefficient of this family") from None

    @cached_property
    def class_counts(self) -> dict[str, int]:
        """Projective count over F_q of a twist in each class: q + 1, plus
        or minus the Weil gap when the twist is maximal or minimal."""
        middle, gap = self.head.q + 1, weil_gap(self.head)
        return {"maximal": middle + gap, "minimal": middle - gap, "neutral": middle}

    def twist_count(self, a: Element) -> int:
        """Projective count over F_q of the twist a (`class_counts`)."""
        return self.class_counts[self.twist_class(a)]


def eigenvalue_targets(q_deg: int) -> tuple[int, int]:
    """i-exponents of Q at maximal resp. minimal parameters, i.e. of -+i^(s/2)."""
    if q_deg % 2:
        raise OracleMismatch(f"eigenvalue targets need an even degree, not {q_deg}")
    half = q_deg // 2
    return (half + 2) % 4, half % 4


def _datum_for(head: CurveSpec, datum: TwistDatum | None) -> TwistDatum:
    if datum is None:
        return recover_head(head)
    datum.require(2)
    if not datum.conditions[2] or not datum.conditions[3]:
        raise KernelNotRational(
            f"the supplied datum does not split over F_{{2^{head.q_deg}}}"
        )
    if head_curve(datum) != head:
        raise DomainError("the supplied datum does not produce this head")
    return datum


def _trace_pairing(ctx: FieldCtx, ws: Sequence[Element], q_deg: int) -> Callable[[Element], int]:
    """x -> (Tr_{q/2}(x*w_j))_j, bit j for the j-th of `ws`; additive."""
    return lambda x: sum(ctx.trace(ctx.mul(x, w), q_deg, 1) << j for j, w in enumerate(ws))


def least_admissible_parameter(space: Fp2Subspace, q_deg: int) -> Element | None:
    """Least t in F_q, as a bit pattern, with psi(t*v) = Q(v) on `space`.

    On the F_2-basis v_j of the subspace the conditions
    Tr(t*v_j) = [Q(v_j) = -1] are one additive system, onto because the
    v_j are F_2-independent in F_q and the trace form is nondegenerate;
    its least solution is checked at every point.  The admissible t are
    empty or that solution plus the annihilator of `space`, so None
    means none: Q is non-real on the basis, or the check fails.
    """
    ctx, basis = space.ctx, space.basis
    values = {v: q_char(ctx, v, q_deg) for v in space.elements() if v}  # i-exponents
    if any(values[v] % 2 for v in basis):
        return None

    target = sum(values[v] // 2 << j for j, v in enumerate(basis))
    t = ctx.solve_additive(_trace_pairing(ctx, basis, q_deg), target, q_deg)
    if any(psi_char(ctx, ctx.mul(t, v), q_deg) != value for v, value in values.items()):
        return None
    return t


def classify_twists(
    head: CurveSpec,
    datum: TwistDatum | None = None,
    budget: int = DEFAULT_BUDGET,
) -> TwistClassification:
    """Classify every twist of a head curve over its base field.

    When `datum` is omitted one is recovered from the head.  The shift
    is the least admissible parameter on ker F*, and Q at the shift
    says which value of the bit is maximal.  Every twist count is
    confirmed through `checked_count` within `budget`, and
    `counting_checked` says whether the counts ran.  Raises
    KernelNotRational when ker(R + R*) does not lie in F_q and
    OracleMismatch when any two routes disagree.
    """
    if not head.is_head:
        raise DomainError("expected a head curve (zero linear coefficient)")
    fd = _datum_for(head, datum)
    ctx, s = head.ctx, head.q_deg
    if s % (2 * ctx.p_log):
        raise OracleMismatch(f"rational kernels over F_{{2^{s}}}, an odd power of p")
    shift = least_admissible_parameter(fd.adjoint_kernel, s)
    target_bit = 0
    if shift is not None:  # Q(shift) is -i^(s/2) when the shift is maximal
        value, targets = q_char(ctx, shift, s), eigenvalue_targets(s)
        if value not in targets:
            raise OracleMismatch(
                f"extremal parameter {shift:#x} has non-real eigenvalue ratio i^{value}"
            )
        target_bit = targets.index(value)
    return image_classification(fd, shift, target_bit, budget)


def image_classification(
    fd: TwistDatum, shift: Element | None, target_bit: int, budget: int
) -> TwistClassification:
    """Classification from the image parametrisation t = shift + F(u).

    The extremal parameters are the coset shift + im F (none when
    `shift` is None), and t = shift + F(u) is maximal exactly when
    Tr_{q/2}(u(R(u) + a0*u)) = `target_bit`, a0 the twist of the shift;
    its twist is a0 + E(u)^2, E = R + R*.  u walks F_q in Gray-code
    order over an F_2-basis b_j, each step adding F(b_j) to t, E(b_j)^2
    to a, and to the bit its value at b_j plus Tr_{q/2}(u*E(b_j)).  The
    twists are checked against the trace route, then each twist's
    `twist_count` through `checked_count` in field order; every twist
    lives over F_q, so the first count declined declines them all.
    """
    ctx, q_deg = fd.ctx, fd.q_deg
    head = head_curve(fd)
    params, twists = (set(), set()), (set(), set())  # maximal, minimal
    if shift is not None:
        a0 = fd.twist_coefficient(shift)
        basis = ctx.subfield_basis(q_deg)
        E = head.e_skew()
        steps = [(fd.F(b), ctx.sqr(E(b))) for b in basis]
        bits = [
            ctx.trace(ctx.mul(b, head.evaluate(b) ^ ctx.mul(a0, b)), q_deg, 1) for b in basis
        ]
        pairing = _trace_pairing(ctx, basis, q_deg)
        polar = [pairing(E(c)) for c in basis]
        t, a, bit, coords = shift, a0, 0, 0
        for k in range(1 << q_deg):
            if k:
                j = (k & -k).bit_length() - 1
                bit ^= bits[j] ^ ((coords & polar[j]).bit_count() & 1)
                coords ^= 1 << j
                t, a = t ^ steps[j][0], a ^ steps[j][1]
            params[bit ^ target_bit].add(t)
            twists[bit ^ target_bit].add(a)
    (minus_params, plus_params), (maximal, minimal) = params, twists
    if minus_params & plus_params or maximal & minimal:
        raise OracleMismatch("closed-form classes overlap")
    extremal = minus_params | plus_params
    if shift is not None and len(extremal) * ctx.p**fd.e != 1 << q_deg:
        raise OracleMismatch("extremal parameter set has the wrong size")
    if shift is not None and len(maximal | minimal) * ctx.p ** (2 * fd.e) != 1 << q_deg:
        raise OracleMismatch("extremal coefficient set has the wrong size")
    _check_trace_route(head, fd.composite_kernel, maximal | minimal)
    field = ctx.subfield_elements(q_deg)
    tc = TwistClassification(
        head=head,
        datum=fd,
        extremal_parameters=tuple(sorted(extremal)),
        maximal_parameters=tuple(sorted(minus_params)),
        minimal_parameters=tuple(sorted(plus_params)),
        neutral_parameters=tuple(t for t in field if t not in extremal),
        maximal_twists=tuple(sorted(maximal)),
        minimal_twists=tuple(sorted(minimal)),
        neutral_twists=tuple(a for a in field if a not in maximal and a not in minimal),
        counting_checked=False,
    )
    counted = all(
        checked_count(head.with_a0(a), 1, tc.twist_count(a), budget) is not None for a in field
    )
    return replace(tc, counting_checked=counted)


def _trace_coset(head: CurveSpec, kernel: Fp2Subspace) -> tuple[Element, tuple]:
    """Twists a with Tr_{q/p}(u(R(u) + au)) = 0 on kernel = ker(R + R*).

    There u -> Tr_{q/2}(u(R(u) + au)) is additive and u -> cu, c in
    F_p, scales its argument by c^2, so an F_2-basis u_j of the kernel
    gives the whole condition: Tr_{q/2}(u_j^2 * a) = Tr_{q/2}(u_j*R(u_j)).
    The u_j^2 are F_2-independent in F_q, so the system is onto; returns
    its least solution and a basis of its kernel.
    """
    ctx, s = head.ctx, head.q_deg
    lhs = _trace_pairing(ctx, [ctx.sqr(u) for u in kernel.basis], s)
    rhs = [ctx.trace(ctx.mul(u, head.evaluate(u)), s, 1) for u in kernel.basis]
    offset = ctx.solve_additive(lhs, sum(r << j for j, r in enumerate(rhs)), s)
    basis = ctx.subfield_basis(s)
    return offset, kernel_basis([lhs(b) for b in basis], basis)


def _check_trace_route(head: CurveSpec, kernel: Fp2Subspace, twists: set[Element]) -> None:
    """The trace route's coset must be the eigenvalue route's extremal twists."""
    offset, basis = _trace_coset(head, kernel)
    if len(twists) != 1 << len(basis) or not all(span_contains(basis, a ^ offset) for a in twists):
        raise OracleMismatch("trace-form extremality disagrees with the eigenvalue route")


def quadratic_extension_maximal(
    fd: TwistDatum, t: Element, budget: int = DEFAULT_BUDGET
) -> bool:
    """Whether the curve of (fd, t) is maximal over F_{q^2}.

    Reads the verdict off Tr_{q/2}(t) alone, re-derives it from the
    eigenvalue count over F_{q^2}, which must be maximal or minimal, and
    confirms with `checked_count` over F_{q^2}, which counts when it
    can.  Requires all four datum conditions.
    """
    fd.require(4)
    s = fd.q_deg
    if s % 2:
        raise OracleMismatch(f"a rational composite kernel over odd degree {s}")
    lp = l_polynomial(fd, t)  # DomainError for t outside F_q
    verdict = fd.ctx.trace(t, s, 1) == (s // 2 + 1) % 2

    if weil_class(lp, 2, lp.point_count(2)) != ("maximal" if verdict else "minimal"):
        raise OracleMismatch("the count over F_{q^2} disagrees with the trace verdict")

    checked_count(build_curve(fd, t), 2, lp.point_count(2), budget)
    return verdict
