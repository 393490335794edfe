"""Exhaustive point counting, the independent oracle for every formula.

Counts never go through the eigenvalue machinery: the fiber of
y^p - y = c has p points exactly when the trace of c to F_p vanishes,
so the affine count is p times the number of zero traces of x*R(x),
plus the single point at infinity of the smooth model.

Each trace is read off quadratic forms over F_2.  A bit pattern x is
the sum of the t^j over its set bits j, t the root of the modulus, so
Tr_{Q/2}(x*y) = parity(x & M y) where bit j of M y is Tr_{Q/2}(t^j*y):
M is the symmetric matrix of the traces Tr(t^(j+k)), which are power
sums of the roots of the modulus.  For every w, then,
Tr_{Q/2}(w*x*R(x)) = parity(x & U_w x) with U_w x = M(w*R(x)).  As the
trace form of F_P/F_2 is nondegenerate, Tr_{Q/P}(z) vanishes exactly
when Tr_{Q/2}(w*z) does for every w in an F_2-basis of F_P.  Counting
the x at which all these forms are 0 is thus the same count as
evaluating x*R(x) and its trace; the count covers every element of
F_Q, with each form's value either evaluated at x or derived from its
values at smaller elements by the polar identity (`bitvec`).  An
eigenvalue count to compare arrives as a plain integer.

`checked_count` is the one entry from the formula routes into this
oracle, where every formula count meets its direct count, and its rule,
`skip_reason`, alone decides whether a confirming count runs and names
the limit when none does.  A curve reaches F_{q^m} through `CurveSpec.over`.

The twists R + a*x of one head share all of this set-up.  As
Tr(y^2) = Tr(y), Tr_{Q/2}(w*a*x^2) = Tr_{Q/2}(sqrt(w*a)*x) =
parity(x & l_w) with l_w = M sqrt(w*a), so the twist's form is the
head's quadratic part plus a linear term: parity(x & U_w x) XOR
parity(x & l_w).  The head's images u_k = U_w e_k are kept for the
latest two (context, q_deg, tail, to_deg) keys, which cost a twist no
validated head to build.  Each twist is its own count over the whole
universe, in one of two regimes, with every array left to `bitvec`:

- bit-sliced, for every count over at most 2^16 elements and from the
  second count of a head on up to one chunk (`bitvec.CHUNK`): the
  entry keeps each parity(x & U_w x) as one int P_w, bit x the parity
  at x (`bitvec.quadratic_bits`).  The XOR L_w of the universe's
  columns (`bitvec.bit_columns`) at the set bits of l_w has bit x equal
  to parity(x & l_w), so the twist's zeros are the size of the universe
  less the popcount of the OR of the P_w ^ L_w.
- `bitvec.fused_count` otherwise, from the u_k and l_w: the first count
  of a head over more than 2^16 elements, and every count above one
  chunk, chunk by chunk and across threads when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable

from .. import bitvec
from ..errors import BudgetExceeded, DomainError, OracleMismatch
from ..gf2field import MAX_DEGREE, FieldCtx, linear_map
from .base import CurveSpec, format_curve_spec

__all__ = [
    "DEFAULT_BUDGET",
    "brute_count",
    "check_count",
    "checked_count",
    "psi_sum",
    "skip_reason",
    "trace_zero_count",
]

DEFAULT_BUDGET = 1 << 24

# Universes of at most this many elements are bit-sliced from their
# first count.  Raising it waits for a re-tune of the traced `oracle`
# benchmark workload, whose isolation claim rests on its fused first
# counts of 2^18..2^24 elements.
_SMALL = 1 << 16


def _power_traces(ctx: FieldCtx, length: int) -> int:
    """Bit k, for k < length, is Tr_{Q/2}(t^k), t the root of the modulus
    that the bit patterns are written in.

    These are the power sums of the roots of the modulus
    X^n + c_{n-1} X^{n-1} + ... + c_0, so Newton's identities over F_2
    give them: s_0 = n, and s_k is the sum of c_{n-i} s_{k-i} over
    1 <= i <= min(k - 1, n), plus k*c_{n-k} while k <= n.
    """
    n, c = ctx.n, ctx.poly
    s = n & 1
    for k in range(1, length):
        i_max = min(k - 1, n)
        # c_{n-i} and s_{k-i} both sit at bit i_max - i of their window.
        window = (c >> (n - i_max)) & (s >> (k - i_max)) & ((1 << i_max) - 1)
        bit = window.bit_count() & 1
        if k <= n:
            bit ^= k & (c >> (n - k)) & 1
        s |= bit << k
    return s


@cache
def _trace_matrix(ctx: FieldCtx) -> Callable[[int], int]:
    """M as a map on ints: bit j of M y is Tr_{Q/2}(t^j*y)."""
    n = ctx.n
    # M is the Hankel matrix of Tr(t^i), i < 2n - 1: M e_k is bits k..k+n-1.
    hankel = _power_traces(ctx, 2 * n - 1)
    return linear_map([(hankel >> k) & ((1 << n) - 1) for k in range(n)])


@dataclass(slots=True)
class _Head:
    """The count set-up of one head, shared by its twists: `images`, the
    images u_k = U_w e_k for each w; `counted`, whether a fused pass has
    counted the head; and, once the head is bit-sliced, `parities`, the
    bitsets of parity(x & U_w x) over the whole universe."""

    images: tuple[tuple[int, ...], ...]
    counted: bool = False
    parities: tuple[int, ...] | None = None


@lru_cache(maxsize=2)
def _head_tables(ctx: FieldCtx, q_deg: int, tail: tuple[int, ...], to_deg: int) -> _Head:
    """The head's entry, with the images of U_w, x -> M(w*R(x)), for w in
    the F_2-basis of the degree-to_deg subfield: parity(x & U_w x) =
    Tr_{Q/2}(w*x*R(x)), R the head over F_{2^q_deg} with coefficients
    (0,) + tail.

    Two entries, not one: `hermitian_twist` and `verify` count one curve
    over F_q and F_{q^2} in turn, two keys that would evict each other.
    """
    m = _trace_matrix(ctx)
    r_images = ctx.linear_images(CurveSpec(ctx, q_deg, (0,) + tail).r_skew())
    return _Head(
        tuple(tuple(m(ctx.mul(w, r)) for r in r_images) for w in ctx.subfield_basis(to_deg))
    )


def _count_sliced(head: _Head, ells: list[int], size: int) -> int:
    """The zeros of the twist with linear terms `ells`, bit-sliced over
    the head's parities P_w, built at its first bit-sliced count."""
    columns = bitvec.bit_columns(size.bit_length() - 1)
    if head.parities is None:
        head.parities = tuple(bitvec.quadratic_bits(u, columns) for u in head.images)
    nonzero = 0
    for form, ell in zip(head.parities, ells):
        while ell:
            low = ell & -ell
            form ^= columns[low.bit_length() - 1]
            ell ^= low
        nonzero |= form
    return size - nonzero.bit_count()


def trace_zero_count(
    spec: CurveSpec,
    m: int = 1,
    to_deg: int | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> int:
    """#{x in F_{q^m} : Tr(x*R(x)) = 0}, trace taken down to degree to_deg.

    The default target is F_p.  This is the single enumeration core
    behind brute_count and psi_sum; every element of F_{q^m} is
    counted on the quadratic forms of the module docstring, in the
    regime that its universe and the head's earlier counts select.
    """
    if m < 1:
        raise DomainError("extension degree must be >= 1")
    size = 1 << (spec.q_deg * m)
    if size > budget:
        raise BudgetExceeded(
            f"enumerating {size} elements exceeds the budget of {budget}"
        )
    full = spec.over(m)
    ctx, a = full.ctx, full.coeffs[0]
    to_deg = ctx.p_log if to_deg is None else to_deg
    head = _head_tables(ctx, full.q_deg, full.coeffs[1:], to_deg)
    matrix = _trace_matrix(ctx)
    ells = [matrix(ctx.sqrt(ctx.mul(w, a))) for w in ctx.subfield_basis(to_deg)]
    if size <= _SMALL or (head.counted and size <= bitvec.CHUNK):
        return _count_sliced(head, ells, size)
    head.counted = True
    return bitvec.fused_count(head.images, ells, size, threads)


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
    """brute_count over F_{q^m} held against `formula` by check_count,
    or None, without counting, when `skip_reason` names a limit."""
    if skip_reason(spec, m, budget) is not None:
        return None
    return check_count(spec, m, formula, brute_count(spec, m, budget, threads))


def skip_reason(spec: CurveSpec, m: int, budget: int = DEFAULT_BUDGET) -> str | None:
    """The one count rule: the limit that F_{q^m} exceeds, or None if it is counted."""
    if spec.q**m <= budget and spec.q_deg * m <= MAX_DEGREE:
        return None
    return "budget" if spec.q**m > budget else f"the {MAX_DEGREE}-bit ambient"


def psi_sum(
    spec: CurveSpec,
    m: int = 1,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> int:
    """Character sum sum_x (-1)^(Tr_{q^m/2}(x*R(x))) as an exact integer."""
    zeros = trace_zero_count(spec, m, 1, budget, threads)
    return 2 * zeros - (1 << (spec.q_deg * m))
