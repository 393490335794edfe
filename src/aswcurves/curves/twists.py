"""Classification of the twist family R + a*x over its base field.

For a fixed head R the curves y^p - y = x(R(x) + ax) fall into three
classes as a runs over F_q: neutral twists with exactly q affine points,
maximal twists, and minimal twists.  This module computes the partition
three independent ways and insists they agree:

  * through the eigenvalue sign of each extremal parameter t (the sets
    of parameters whose curves are maximal resp. minimal, pushed along
    a = gamma + F*(t)^2),
  * through the vanishing of the trace form u -> Tr(u(R(u) + au)) on
    the kernel of R + R*,
  * by brute point counts, when a budget allows enumerating F_q.

The module also decides maximality over the quadratic extension from
the trace of the twist parameter alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import BudgetExceeded, KernelNotRational, OracleMismatch
from ..gf2field import MAX_DEGREE, Element
from ..witt2 import GaussInt, GaussUnit, psi_char, q_char
from .base import CurveSpec, TwistDatum, build_curve, head_curve, weil_class
from .count import DEFAULT_BUDGET, brute_count, checked_count
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
    whether the brute-count route confirmed the partition.
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
            raise ValueError(f"{a:#x} is not a twist coefficient of this family") from None


def eigenvalue_targets(q_deg: int) -> tuple[GaussUnit, GaussUnit]:
    """Values of Q at maximal resp. minimal parameters, i.e. -+i^(s/2)."""
    assert q_deg % 2 == 0
    half = q_deg // 2
    return GaussUnit(half + 2), GaussUnit(half)


def _datum_for(head: CurveSpec, datum: TwistDatum | None) -> TwistDatum:
    if datum is None:
        return recover_head(head)
    datum.require(2)
    if not datum.conditions[2] or not datum.conditions[3]:
        raise KernelNotRational(
            f"the supplied datum does not split over F_{{2^{head.q_deg}}}"
        )
    if head_curve(datum) != head:
        raise ValueError("the supplied datum does not produce this head")
    return datum


def extremal_parameter_set(fd: TwistDatum) -> list[Element]:
    """Parameters t with Q(v) = psi(tv) on all of ker F*, ascending.

    These are exactly the t whose curve meets the Weil bound over F_q.
    The set is empty or a coset of the image of F, so its size is
    checked against q / |ker F*|.
    """
    ctx, s = fd.ctx, fd.q_deg
    kernel_values = [
        (v, q_char(ctx, v, s)) for v in fd.adjoint_kernel.elements() if v
    ]
    hits = [
        t
        for t in sorted(ctx.subfield_elements(s))
        if all(qv == psi_char(ctx, ctx.mul(t, v), s) for v, qv in kernel_values)
    ]
    if len(hits) not in (0, (1 << s) >> (fd.e * ctx.p_log)):
        raise OracleMismatch(
            f"{len(hits)} extremal parameters for {fd!r}: neither 0 nor q/|ker F*|"
        )
    return hits


def classify_twists(
    head: CurveSpec,
    datum: TwistDatum | None = None,
    budget: int = DEFAULT_BUDGET,
    counting: bool = True,
) -> TwistClassification:
    """Classify every twist of a head curve over its base field.

    When `datum` is omitted one is recovered from the head.  Raises
    KernelNotRational when ker(R + R*) does not lie in F_q,
    OracleMismatch when any two routes disagree, and BudgetExceeded
    when the counting route is requested but F_q exceeds the budget
    (pass counting=False to classify by formula alone).
    """
    if not head.is_head:
        raise ValueError("expected a head curve (zero linear coefficient)")
    fd = _datum_for(head, datum)
    ctx, s = head.ctx, head.q_deg
    assert s % (2 * ctx.p_log) == 0  # rational kernel forces even degree
    elements = sorted(ctx.subfield_elements(s))

    extremal = extremal_parameter_set(fd)
    minus_target, plus_target = eigenvalue_targets(s)
    s_minus, s_plus = [], []
    for t in extremal:
        value = q_char(ctx, t, s)
        if value == minus_target:
            s_minus.append(t)
        elif value == plus_target:
            s_plus.append(t)
        else:
            raise OracleMismatch(
                f"extremal parameter {t:#x} has non-real eigenvalue ratio {value}"
            )
    extremal_set = set(extremal)
    neutral_params = [t for t in elements if t not in extremal_set]

    t_max = {fd.twist_coefficient(t) for t in s_minus}
    t_min = {fd.twist_coefficient(t) for t in s_plus}
    if t_max & t_min:
        raise OracleMismatch("a twist coefficient is both maximal and minimal")
    t_neutral = {a for a in elements if a not in t_max and a not in t_min}
    for t in neutral_params:
        if fd.twist_coefficient(t) not in t_neutral:
            raise OracleMismatch(
                f"non-extremal parameter {t:#x} lands on an extremal coefficient"
            )

    _check_trace_route(head, fd, elements, t_max | t_min)
    if counting:
        check_counting_route(head, elements, t_max, t_min, budget)

    return TwistClassification(
        head=head,
        datum=fd,
        extremal_parameters=tuple(extremal),
        maximal_parameters=tuple(s_minus),
        minimal_parameters=tuple(s_plus),
        neutral_parameters=tuple(neutral_params),
        maximal_twists=tuple(sorted(t_max)),
        minimal_twists=tuple(sorted(t_min)),
        neutral_twists=tuple(sorted(t_neutral)),
        counting_checked=counting,
    )


def _check_trace_route(
    head: CurveSpec,
    fd: TwistDatum,
    elements: list[Element],
    extremal_twists: set[Element],
) -> None:
    """Extremal coefficients are those killing the trace form on ker(R+R*)."""
    ctx, s = head.ctx, head.q_deg
    points = [(u, head.evaluate(u)) for u in fd.composite_kernel.elements()]
    via_trace = {
        a
        for a in elements
        if all(
            ctx.trace(ctx.mul(u, r_u ^ ctx.mul(a, u)), s, ctx.p_log) == 0
            for u, r_u in points
        )
    }
    if via_trace != extremal_twists:
        raise OracleMismatch(
            "trace-form extremality disagrees with the eigenvalue route"
        )


def check_counting_route(
    head: CurveSpec,
    elements: list[Element],
    t_max: set[Element],
    t_min: set[Element],
    budget: int,
) -> None:
    """Re-derive the coefficient partition from brute point counts."""
    q = head.q
    if q > budget:
        raise BudgetExceeded(
            f"counting {q} twists over F_{q} exceeds the budget {budget}; "
            "pass counting=False for a formula-only classification"
        )
    counted_max, counted_min = set(), set()
    for a in elements:
        twist = head.with_a0(a)
        count = brute_count(twist, 1, budget=budget)
        label = weil_class(twist, 1, count)
        if label == "maximal":
            counted_max.add(a)
        elif label == "minimal":
            counted_min.add(a)
        elif label == "interior":
            raise OracleMismatch(
                f"twist {a:#x} has affine count {count - 1}, outside the trichotomy"
            )
    if counted_max != t_max or counted_min != t_min:
        raise OracleMismatch("point counts disagree with the eigenvalue route")


def quadratic_extension_maximal(
    fd: TwistDatum, t: Element, budget: int = DEFAULT_BUDGET
) -> bool:
    """Whether the curve of (fd, t) is maximal over F_{q^2}.

    Reads the verdict off Tr_{q/2}(t) alone, re-derives it from the
    squared eigenvalues, and confirms with a brute count over F_{q^2}
    when that fits the budget and the ambient field.  Requires all four
    datum conditions.
    """
    fd.require(4)
    ctx, s = fd.ctx, fd.q_deg
    if not ctx.in_subfield(t, s):
        raise ValueError(f"twist parameter {t:#x} is outside the subfield")
    assert s % 2 == 0
    verdict = ctx.trace(t, s, 1) == (s // 2 + 1) % 2

    q = 1 << s
    lp = l_polynomial(fd, t)
    squares = {r * r for r in lp.roots}
    if squares != ({GaussInt(-q)} if verdict else {GaussInt(q)}):
        raise OracleMismatch(
            "squared eigenvalues disagree with the trace verdict"
        )

    if 2 * s <= MAX_DEGREE:
        checked_count(build_curve(fd, t), 2, lp.point_count(2), budget)
    return verdict
