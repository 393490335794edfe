"""The two-route contract for one curve: point counts from the
eigenvalues of a presentation witness, held against direct counts."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ..errors import AmbientTooSmall, DomainError
from .base import CurveSpec, weil_class
from .count import DEFAULT_BUDGET, checked_count, skip_reason
from .lpoly import LPolynomial, l_polynomial
from .presentation import PresentationReport, presentation_conditions

__all__ = ["ZetaReport", "zeta_report"]


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
