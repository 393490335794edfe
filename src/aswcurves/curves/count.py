"""Exhaustive point counting, the independent oracle for every formula.

Counts never go through the eigenvalue machinery: the fiber of
y^p - y = c has p points exactly when the trace of c to F_p vanishes,
so the affine count is p times the number of zero traces of x*R(x),
plus the single point at infinity of the smooth model.  Enumeration is
vectorized over uint64 chunks and can be partitioned across threads;
partial sums are plain integers, so the result is identical for every
thread count.  An eigenvalue count to compare arrives as a plain integer.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..bitvec import apply_linear, field_mul
from ..errors import AmbientTooSmall, BudgetExceeded, OracleMismatch
from ..gf2field import MAX_DEGREE, FieldCtx, make_field
from .base import CurveSpec, format_curve_spec

__all__ = [
    "DEFAULT_BUDGET",
    "brute_count",
    "check_count",
    "checked_count",
    "psi_sum",
    "trace_zero_count",
]

DEFAULT_BUDGET = 1 << 24

_CHUNK = 1 << 20


def _extension_spec(spec: CurveSpec, m: int) -> CurveSpec:
    """The same curve viewed over a context of exactly F_{q^m}."""
    deg = spec.q_deg * m
    if deg > MAX_DEGREE:
        raise AmbientTooSmall(
            f"counting over 2^{deg} needs a field wider than {MAX_DEGREE} bits"
        )
    if spec.ctx.n == deg:
        return spec
    return spec.transport_to(make_field(deg, None, spec.ctx.p_log))


def _count_chunk(
    ctx: FieldCtx,
    r_images: list[int],
    tr_images: list[int],
    lo: int,
    hi: int,
) -> int:
    xs = np.arange(lo, hi, dtype=np.uint64)
    rx = apply_linear(r_images, xs)
    prod = field_mul(ctx, xs, rx)
    traces = apply_linear(tr_images, prod)
    return int(np.count_nonzero(traces == 0))


def trace_zero_count(
    spec: CurveSpec,
    m: int = 1,
    to_deg: int | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> int:
    """#{x in F_{q^m} : Tr(x*R(x)) = 0}, trace taken down to degree to_deg.

    The default target is F_p.  This is the single enumeration core
    behind brute_count and psi_sum.
    """
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    size = 1 << (spec.q_deg * m)
    if size > budget:
        raise BudgetExceeded(
            f"enumerating {size} elements exceeds the budget of {budget}"
        )
    full = _extension_spec(spec, m)
    ctx = full.ctx
    if to_deg is None:
        to_deg = ctx.p_log
    r_images = ctx.linear_images(full.r_skew())
    tr_images = ctx.linear_images(lambda x: ctx.trace(x, ctx.n, to_deg))
    bounds = list(range(0, size, _CHUNK)) + [size]
    jobs = list(zip(bounds[:-1], bounds[1:]))
    if threads <= 1 or len(jobs) <= 1:
        return sum(_count_chunk(ctx, r_images, tr_images, lo, hi) for lo, hi in jobs)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = pool.map(
            lambda b: _count_chunk(ctx, r_images, tr_images, b[0], b[1]), jobs
        )
        return sum(parts)


def brute_count(
    spec: CurveSpec,
    m: int = 1,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> int:
    """Projective point count over F_{q^m} by full enumeration."""
    zeros = trace_zero_count(spec, m, spec.ctx.p_log, budget, threads)
    return spec.p * zeros + 1


def check_count(spec: CurveSpec, m: int, formula: int | None, counted: int) -> int:
    """`counted`, the direct count over F_{q^m}, once it equals the
    eigenvalue count `formula` (None: no eigenvalue route to compare)."""
    if formula is not None and formula != counted:
        raise OracleMismatch(
            f"eigenvalue count {formula} != direct count {counted} "
            f"over extension {m} of {format_curve_spec(spec)}"
        )
    return counted


def checked_count(
    spec: CurveSpec,
    m: int,
    formula: int | None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> int | None:
    """brute_count over F_{q^m} held against `formula` by check_count.

    None, without counting, when q^m exceeds the budget.
    """
    if spec.q**m > budget:
        return None
    return check_count(spec, m, formula, brute_count(spec, m, budget, threads))


def psi_sum(
    spec: CurveSpec,
    m: int = 1,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> int:
    """Character sum sum_x (-1)^(Tr_{q^m/2}(x*R(x))) as an exact integer."""
    zeros = trace_zero_count(spec, m, 1, budget, threads)
    return 2 * zeros - (1 << (spec.q_deg * m))
