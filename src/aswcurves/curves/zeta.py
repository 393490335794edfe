"""Every route meeting outside `checked_count`: one curve's two-route
report, the search that replays its hits through it, and the hd-check."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ..errors import AmbientTooSmall, BudgetExceeded, DomainError, OracleMismatch
from ..gf2field import MAX_DEGREE, Element, FieldCtx
from ..witt2 import GaussInt, hd_sum
from .base import CurveSpec, format_curve_spec, weil_class, weil_gap
from .count import DEFAULT_BUDGET, check_count, checked_count, skip_reason
from .lpoly import LPolynomial, l_polynomial
from .period import coefficient_range
from .presentation import PresentationReport, presentation_conditions

__all__ = ["ZetaReport", "extremal_search", "hd_check", "zeta_report"]


@dataclass(frozen=True)
class ZetaReport:
    """Presentation, eigenvalues and counts of one curve.

    `presentation` is None, with the AmbientTooSmall text in
    `unavailable`, when the quadratic extension of F_q does not fit the
    ambient field; `lpoly` is None when the curve has no witness.
    `counts` maps each requested degree that has a count to it,
    `compared` lists the degrees where both routes ran, and `skipped`
    the degrees with no direct count, each with the limit it exceeds.
    """

    presentation: PresentationReport | None
    unavailable: str | None
    lpoly: LPolynomial | None
    counts: dict[int, int]
    compared: tuple[int, ...]
    skipped: tuple[tuple[int, str], ...]


def zeta_report(
    spec: CurveSpec,
    extensions: list[int],
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> ZetaReport:
    """Point counts over the given extension degrees, by both routes.

    The eigenvalue count (when a witness exists) and the direct count
    (when `checked_count` runs one) must agree, else OracleMismatch, and
    every count must lie within the Weil bound.  Past the budget or the
    ambient field a degree is counted by the eigenvalue route alone, or
    not at all without a witness.  Every degree is gated before the
    first count: DomainError when q^m, and so its count, has more
    decimal digits than the interpreter will print
    (`sys.get_int_max_str_digits()`, 0 for no limit).
    """
    report, unavailable, lp = None, None, None
    try:
        report = presentation_conditions(spec)
    except AmbientTooSmall as exc:
        unavailable = str(exc)
    if report is not None and report.witness is not None:
        lp = l_polynomial(*report.witness)
    digits = sys.get_int_max_str_digits()
    for m in extensions:
        if digits and int(spec.q_deg * m * math.log10(2)) + 1 > digits:
            raise DomainError(
                f"extension {m}: {spec.q}^{m} has more than {digits} decimal digits"
            )
    counts: dict[int, int] = {}
    compared = []
    skipped = []
    for m in extensions:
        formula = lp.point_count(m) if lp is not None else None
        value = checked_count(spec, m, formula, budget, threads)
        if value is None:
            skipped.append((m, skip_reason(spec, m, budget)))
            if formula is None:
                continue
            value = formula
        elif formula is not None:
            compared.append(m)
        weil_class(spec, m, value)
        counts[m] = value
    return ZetaReport(report, unavailable, lp, counts, tuple(compared), tuple(skipped))


def extremal_search(
    ctx: FieldCtx, e_max: int, predicate: str, budget: int = DEFAULT_BUDGET, threads: int = 1
) -> list[tuple[CurveSpec, int, str]]:
    """(curve, count, class) of each least rescaled curve over F_q = ctx
    whose direct count is `predicate` ("extremal": either bound)."""
    if predicate not in ("maximal", "minimal", "extremal"):
        raise DomainError(f"predicate {predicate!r} is not maximal, minimal or extremal")
    q = ctx.order
    if q > budget:
        raise BudgetExceeded(
            f"searching F_{q} needs direct counts of size {q} > budget {budget}"
        )
    scales = [  # x -> a*x multiplies a_i by a^(1+p^i), for each a != 0 in F_q
        tuple(ctx.pow(a, 1 + ctx.p**i) for i in range(e_max + 1)) for a in range(1, q)
    ]
    wanted = ("maximal", "minimal") if predicate == "extremal" else (predicate,)
    rows = []
    for coeffs in coefficient_range(q, e_max):
        if not _least_rescaling(ctx, coeffs, scales):
            continue  # a smaller representative covers this class
        spec = CurveSpec(ctx, ctx.n, coeffs)
        if weil_gap(spec) is None:
            continue  # the bound is unattainable over this field
        count = checked_count(spec, 1, None, budget, threads)
        label = weil_class(spec, 1, count)
        if label in wanted:
            _formula_cross_check(spec, count)
            rows.append((spec, count, label))
    return rows


def _least_rescaling(
    ctx: FieldCtx, coeffs: tuple[Element, ...], scales: list[tuple[Element, ...]]
) -> bool:
    """Whether no rescaling of coeffs is a smaller tuple.  Each rescaling
    is compared one product at a time, up to its first coefficient that
    differs from coeffs."""
    for factors in scales:
        for c, f in zip(coeffs, factors):
            scaled = ctx.mul(c, f)
            if scaled != c:
                if scaled < c:
                    return False
                break
    return True


def _formula_cross_check(spec: CurveSpec, count: int) -> None:
    """Replay a count through the eigenvalue route when it exists."""
    zeta = zeta_report(spec, [])
    if zeta.presentation is None:
        return  # the quadratic extension does not fit the ambient field
    if zeta.lpoly is None:
        raise OracleMismatch(
            f"{format_curve_spec(spec)} meets the bound without a presentation"
        )
    check_count(spec, 1, zeta.lpoly.point_count(1), count)


def hd_check(cap: int, budget: int) -> list[tuple[int, GaussInt, GaussInt]]:
    """(s, hd_sum(s), (-1-i)^s) for s = 1..cap; the two must agree."""
    for s in range(1, cap + 1):  # every degree is gated before the first sum
        if s > MAX_DEGREE:
            raise AmbientTooSmall(f"degree {s} exceeds the ambient cap {MAX_DEGREE}")
        if (1 << s) > budget:
            raise BudgetExceeded(
                f"summing over F_{{2^{s}}} exceeds the budget {budget}"
            )
    rows = []
    for s in range(1, cap + 1):
        total = hd_sum(s)
        closed = GaussInt(-1, -1) ** s
        if total != closed:
            raise OracleMismatch(
                f"degree {s}: enumerated sum {total} != closed form {closed}"
            )
        rows.append((s, total, closed))
    return rows
