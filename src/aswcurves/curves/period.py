"""Least extension degree at which a curve meets the Weil bound.

Two questions are answered for curves whose coefficients lie in F_p
itself.  `period_parity` finds the first extension degree n such that
the point count over F_{p^n} attains the Weil bound, together with the
sign of that first attainment.  `impossibility_scan` sweeps a small
exhaustive coefficient range and certifies, by direct counting, that no
curve in the range attains a (degree, sign) pair from the forbidden
list; every decided period is replayed through the eigenvalue route as
a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import (
    AmbientTooSmall,
    BudgetExceeded,
    CapExceeded,
    DomainError,
    NoTwistParameter,
    OracleMismatch,
)
from ..gf2field import MAX_DEGREE, Element, make_field
from .base import CurveSpec, weil_class
from .count import DEFAULT_BUDGET, checked_count
from .lpoly import l_polynomial
from .presentation import recover_datum

__all__ = [
    "PeriodParity",
    "ScanReport",
    "forbidden_pairs",
    "impossibility_scan",
    "period_parity",
]


@dataclass(frozen=True)
class PeriodParity:
    """First extension degree attaining the Weil bound, with its sign.

    `mu` is the least n such that the curve, viewed over F_{p^n},
    attains the bound; `delta` is -1 when that first attainment is
    maximal and +1 when it is minimal.
    """

    mu: int
    delta: int


# PeriodParity.delta of each Weil class that attains the bound
_DELTA = {"maximal": -1, "minimal": 1}


def _refute_by_count(spec: CurveSpec, m: int, budget: int) -> None:
    """Confirm by direct count over F_{q^m}, if affordable, that the bound is not met."""
    count = checked_count(spec, m, None, budget)
    if count is not None and weil_class(spec, m, count) in _DELTA:
        raise OracleMismatch(f"{spec.over(m)} meets the bound without a twist presentation")


def _formula_class(spec_n: CurveSpec, budget: int) -> str | None:
    """Weil class over F_q via datum recovery; None without a parameter.

    A bound-attaining curve is always a twist of its own head with a
    parameter in the declared field, so a failed parameter search
    refutes attainment; within `budget` the refutation, and every
    eigenvalue count, is confirmed by a direct count.
    """
    try:
        fd, t = recover_datum(spec_n)
    except NoTwistParameter:
        _refute_by_count(spec_n, 1, budget)
        return None
    count = l_polynomial(fd, t).point_count(1)
    checked_count(spec_n, 1, count, budget)
    return weil_class(spec_n, 1, count)


def period_parity(
    spec: CurveSpec, cap: int = 32, budget: int = DEFAULT_BUDGET
) -> PeriodParity:
    """Search n = 1..cap for the first bound-attaining extension.

    The curve must be declared over F_p itself.  Odd values of n * p_log
    are skipped outright (the bound needs an integer square root of the
    field size), and degrees where the symmetrization kernel is not yet
    rational are refuted by a direct count when affordable.  Remaining
    candidates of degree deg are decided through datum recovery and
    `l_polynomial` while 2*deg <= MAX_DEGREE, a bound on the F_{2^deg}
    enumeration of its `hd_sum(deg)` (recovery needs F_{2^deg} alone),
    and through a direct count otherwise; whichever route decides, the
    other confirms it when the field size is within `budget`.

    Raises CapExceeded when no n <= cap attains the bound, and
    AmbientTooSmall when a candidate can be decided by neither route.
    """
    ctx = spec.ctx
    if spec.q_deg != ctx.p_log:
        raise DomainError("period search needs coefficients declared over F_p itself")
    splitting = spec.e_skew().kernel_splitting_degree()
    for n in range(1, cap + 1):
        deg = n * ctx.p_log
        if deg % 2:
            continue
        if deg % splitting:
            _refute_by_count(spec, n, budget)
            continue
        if deg > MAX_DEGREE:
            raise AmbientTooSmall(
                f"extension degree {n} needs ambient degree {deg} > {MAX_DEGREE}"
            )
        spec_n = spec.over(n)
        # hd_sum(deg) enumerates F_{2^deg}; recovery needs no wider field
        if 2 * deg <= MAX_DEGREE:
            label = _formula_class(spec_n, budget)
        else:
            count = checked_count(spec_n, 1, None, budget)
            if count is None:
                raise AmbientTooSmall(
                    f"extension degree {n} needs ambient degree {2 * deg} for the "
                    f"eigenvalue route and its field size exceeds budget {budget}"
                )
            label = weil_class(spec_n, 1, count)
        if label in _DELTA:
            return PeriodParity(n, _DELTA[label])
    raise CapExceeded(f"no extension degree up to {cap} attains the bound")


def forbidden_pairs(p_log: int, n_max: int) -> frozenset[tuple[int, int]]:
    """(mu, delta) pairs no curve over F_p may attain, up to n_max.

    Odd degrees never carry a first attainment; a first attainment at
    degree 2 is never minimal; one at degree 4 is never minimal when
    p = 2; and for odd m > 1 dividing p - 1 a first attainment at
    degree 2m is never minimal.  DomainError unless p_log >= 1.
    """
    if p_log < 1:
        raise DomainError(f"p = 2^{p_log} needs p_log >= 1")
    p = 1 << p_log
    pairs: set[tuple[int, int]] = set()
    for n in range(1, n_max + 1, 2):
        pairs.add((n, 1))
        pairs.add((n, -1))
    pairs.add((2, 1))
    if p == 2:
        pairs.add((4, 1))
    for m in range(3, n_max // 2 + 1, 2):
        if (p - 1) % m == 0:
            pairs.add((2 * m, 1))
    return frozenset(pair for pair in pairs if pair[0] <= n_max)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of an exhaustive period search over a coefficient range.

    `periods` pairs each ascending coefficient tuple with its
    PeriodParity, or with None when no extension degree within the
    scanned range attains the bound.
    """

    p_log: int
    e_max: int
    n_max: int
    periods: tuple[tuple[tuple[Element, ...], PeriodParity | None], ...]
    forbidden: frozenset[tuple[int, int]]

    @property
    def observed(self) -> frozenset[tuple[int, int]]:
        """All (mu, delta) pairs attained by some curve in the range."""
        return frozenset((pp.mu, pp.delta) for _, pp in self.periods if pp is not None)

    def excludes(self, mu: int, delta: int) -> bool:
        """Whether the scan rules out (mu, delta) for the whole range."""
        return mu <= self.n_max and (mu, delta) not in self.observed


def coefficient_range(q: int, e_max: int) -> Iterator[tuple[Element, ...]]:
    """All ascending coefficient tuples a_0..a_e over the bit patterns
    0..q-1, 1 <= e <= e_max, with a_e != 0.

    By e, then by the lower coefficients read as base-q digits of a
    counter (a_0 least significant), then by a_e.
    """
    for e in range(1, e_max + 1):
        for packed in range(q**e):
            lower = [packed // q**i % q for i in range(e)]
            for lead in range(1, q):
                yield (*lower, lead)


def _cross_check(
    spec: CurveSpec, found: PeriodParity | None, n_max: int, budget: int
) -> None:
    """Replay a counted period through the eigenvalue route."""
    try:
        replay = period_parity(spec, cap=found.mu if found else n_max, budget=budget)
    except CapExceeded:
        replay = None
    if replay != found:
        raise OracleMismatch(
            f"count route found {found} but the eigenvalue route found "
            f"{replay} for {spec}"
        )


def impossibility_scan(
    p_log: int = 1,
    e_max: int = 2,
    n_max: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ScanReport:
    """Exhaustively confirm that no curve in range attains a forbidden pair.

    Scans every curve with coefficients in F_p and skew degree between 1
    and `e_max`, deciding each extension degree n <= `n_max` by a direct
    count; the whole scanned range must therefore satisfy p^n <= `budget`
    (BudgetExceeded otherwise; `n_max` defaults to the largest degree the
    budget allows).  Each curve's decided period, or its absence, is then
    replayed through `period_parity` as an independent route.  A
    forbidden pair attained by any curve raises OracleMismatch, and a
    range that decides nothing (p_log, e_max or a given n_max below 1)
    raises DomainError.
    """
    if min(p_log, e_max, 1 if n_max is None else n_max) < 1:
        raise DomainError(
            f"a scan needs p_log, e_max and n_max >= 1, not {p_log}, {e_max}, {n_max}"
        )
    p = 1 << p_log
    if n_max is None:
        n_max = max(1, (budget.bit_length() - 1) // p_log)
    if p**n_max > budget:
        raise BudgetExceeded(
            f"scanning to extension degree {n_max} needs counts over fields "
            f"of size {p**n_max} > budget {budget}"
        )
    if n_max * p_log > MAX_DEGREE:
        raise AmbientTooSmall(
            f"extension degree {n_max} needs ambient degree "
            f"{n_max * p_log} > {MAX_DEGREE}"
        )
    ctx = make_field(p_log, None, p_log)
    periods: list[tuple[tuple[Element, ...], PeriodParity | None]] = []
    for coeffs in coefficient_range(p, e_max):
        spec = CurveSpec(ctx, p_log, coeffs)
        found: PeriodParity | None = None
        for n in range(1, n_max + 1):
            if (n * p_log) % 2:
                continue
            label = weil_class(spec, n, checked_count(spec, n, None, budget))
            if label in _DELTA:
                found = PeriodParity(n, _DELTA[label])
                break
        _cross_check(spec, found, n_max, budget)
        periods.append((coeffs, found))
    report = ScanReport(p_log, e_max, n_max, tuple(periods), forbidden_pairs(p_log, n_max))
    attained = report.observed & report.forbidden
    if attained:
        raise OracleMismatch(f"forbidden pairs attained in range: {sorted(attained)}")
    return report
