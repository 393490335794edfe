"""Closed-form constructions of extremal curves and their twist sets.

`classify_twists` settles any admissible datum from the shift it solves
for on ker F*; the functions here take the shift from exact formulas on
structured inputs and classify through the same image classifier, with
its trace route and, through `checked_count` (the closed-form
classifiers excepted), point counts as cross-checks that set
`counting_checked`:

  * `extremal_from_subspace` builds a certified extremal curve from an
    F_p-subspace of F_q containing 1 together with a parameter whose
    additive character matches the quadratic character on the subspace.
  * `classify_small_kernel` classifies the twist family of a datum
    whose adjoint kernel lies in the fourth-root subfield of F_q.
  * `classify_subfield_kernel` classifies around a pivot solution of
    x^q1 + x = 1 when the kernel lies in F_q1 and q1^2 divides q.
  * `palindromic_family` takes the datum F = f(t) of a polynomial f
    over F_p with f(1) = 0 and simple roots; the palindrome
    x^deg(f) f(x) f(1/x) = t^deg(f) F*F prescribes, through its
    splitting degree over F_p, the fields that carry the extremal
    twists of the head of F.
  * `hermitian_twist` settles the family R = x^p + ax completely,
    splitting on the relative trace of a down to F_{p^2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import xor

from ..errors import (
    CapExceeded,
    DegreeMismatch,
    DomainError,
    FieldTooSmall,
    FOneNonzero,
    HypothesisFailed,
    NoSolution,
    OddDegree,
    OracleMismatch,
    PairingConditionFailed,
    RootsNotSimple,
)
from ..gf2field import Element, FieldCtx, Fp2Subspace
from ..skew import SkewPoly
from ..witt2 import GaussInt, i_power, psi_char, q_char
from .base import CurveSpec, TwistDatum, build_curve, head_curve, weil_class
from .count import DEFAULT_BUDGET, checked_count
from .lpoly import LPolynomial, l_polynomial
from .presentation import recover_datum
from .twists import (
    TwistClassification,
    eigenvalue_targets,
    image_classification,
    least_admissible_parameter,
)

__all__ = [
    "ExtremalRecipe",
    "HermitianReport",
    "PalindromicFamily",
    "classify_small_kernel",
    "classify_subfield_kernel",
    "extremal_from_subspace",
    "hermitian_twist",
    "palindromic_family",
]


# -- recipe: extremal curve from a prescribed kernel -----------------------


@dataclass(frozen=True)
class ExtremalRecipe:
    """A certified extremal curve with a prescribed adjoint kernel."""

    curve: CurveSpec
    datum: TwistDatum
    parameter: Element
    lpoly: LPolynomial
    is_maximal: bool
    counting_checked: bool


def extremal_from_subspace(
    space: Fp2Subspace,
    t: Element | None,
    q_deg: int,
    budget: int = DEFAULT_BUDGET,
) -> ExtremalRecipe:
    """Build an extremal curve whose datum has adjoint kernel `space`.

    `space` must contain 1 and lie in F_q, [F_q : F_p] must be even,
    and `t` must match the quadratic character against the additive
    character everywhere on `space`.  The datum is the adjoint of the
    subspace annihilator composed with the Frobenius power of the
    subspace dimension; its twist by `t` is provably extremal.
    Maximality is read off the quadratic character of `t`,
    cross-checked against the eigenvalues and, within budget, against
    a brute count.  t = None takes the least admissible parameter
    after the input checks, and raises NoSolution when there is none.
    """
    ctx = space.ctx
    if t is not None:
        ctx.check(t)
    if (q_deg // ctx.p_log) % 2:
        raise OddDegree(f"[F_q : F_p] = {q_deg // ctx.p_log} must be even")
    if not space.contains(1):
        raise HypothesisFailed("the subspace must contain 1")
    if not space.in_subfield(q_deg) or t is not None and not ctx.in_subfield(t, q_deg):
        raise DomainError("subspace and parameter must lie in F_q")
    if t is None:
        t = least_admissible_parameter(space, q_deg)
        if t is None:
            raise NoSolution("no parameter matches the quadratic character on the subspace")
    for v in space.elements():
        if v and q_char(ctx, v, q_deg) != psi_char(ctx, ctx.mul(t, v), q_deg):
            raise PairingConditionFailed(
                f"characters disagree at {v:#x}: the pair is not admissible"
            )
    annihilator = SkewPoly.from_subspace(space)
    F = annihilator.adjoint() * SkewPoly(ctx, {space.dim_p: 1})
    fd = TwistDatum(F, q_deg)
    fd.require(3)
    if fd.adjoint_kernel != space:
        raise OracleMismatch("recipe datum's adjoint kernel is not the subspace")
    lp = l_polynomial(fd, t)
    label = weil_class(lp, 1, lp.point_count(1))
    if label not in ("maximal", "minimal"):
        raise OracleMismatch("recipe produced a non-extremal curve")
    minus, _ = eigenvalue_targets(q_deg)
    verdict = q_char(ctx, t, q_deg) == minus
    if verdict != (label == "maximal"):
        raise OracleMismatch("character sign disagrees with the eigenvalues")
    curve = build_curve(fd, t)
    checked = _brute_against(curve, lp, budget)
    return ExtremalRecipe(curve, fd, t, lp, verdict, checked)


def _brute_against(spec: CurveSpec, lp: LPolynomial, budget: int) -> bool:
    """Checked counts over F_q and F_{q^2}; whether any ran."""
    counts = [checked_count(spec, m, lp.point_count(m), budget) for m in (1, 2)]
    return any(c is not None for c in counts)


# -- closed-form classifications around an image shift ---------------------


def classify_small_kernel(fd: TwistDatum) -> TwistClassification:
    """Closed-form twist classification for a fourth-root-sized kernel.

    Requires [F_q : F_p] divisible by 4 and the whole adjoint kernel
    inside the fourth-root subfield of F_q; the extremal parameters are
    then exactly the image of F and the zero shift classifies them.
    Raises HypothesisFailed when either hypothesis fails and
    ConditionViolated when the datum itself is inadmissible.
    """
    fd.require(4)
    ctx, q_deg = fd.ctx, fd.q_deg
    if (q_deg // ctx.p_log) % 4:
        raise HypothesisFailed(
            f"[F_q : F_p] = {q_deg // ctx.p_log} is not divisible by 4"
        )
    quarter = q_deg // 4
    if not fd.adjoint_kernel.in_subfield(quarter):
        raise HypothesisFailed("adjoint kernel exceeds the fourth-root subfield")
    return image_classification(fd, 0, (quarter + 1) % 2, 0)


def _pivot(ctx: FieldCtx, q1_deg: int) -> Element:
    """Least t, as a bit pattern, with t^q1 + t = 1.

    The map x -> x^q1 + x sends F_{q1^2} onto F_q1, so a solution
    always exists and every ambient solution lies in F_{q1^2}, where
    `solve_additive` picks the least one.
    """
    step = q1_deg // ctx.p_log
    try:
        return ctx.solve_additive(lambda b: ctx.frob_p(b, step) ^ b, 1, 2 * q1_deg)
    except NoSolution as exc:
        raise OracleMismatch("pivot equation has no root") from exc


def _check_pivot(ctx: FieldCtx, t0: Element, q1_deg: int) -> None:
    """Pivot identities: norm trace 1 and the prescribed character value.

    The norm of t0 to F_q1 must have absolute trace 1, and the Witt
    vector (t0, 0) must trace to log2(q1) copies of (1, 0) plus one
    (0, 1), so the quadratic character Q(t0) over F_{q1^2} is
    i^(log2(q1) + 2).
    """
    step = q1_deg // ctx.p_log
    if ctx.frob_p(t0, step) ^ t0 != 1:
        raise OracleMismatch("pivot does not solve x^q1 + x = 1")
    norm = ctx.mul(ctx.frob_p(t0, step), t0)
    if not ctx.in_subfield(norm, q1_deg):
        raise OracleMismatch("pivot norm leaves F_q1")
    if ctx.trace(norm, q1_deg, 1) != 1:
        raise OracleMismatch("pivot norm has absolute trace 0")
    if q_char(ctx, t0, 2 * q1_deg) != (q1_deg + 2) % 4:
        raise OracleMismatch("pivot Witt trace misses the prescribed unit")


def classify_subfield_kernel(
    fd: TwistDatum, q1_deg: int
) -> tuple[TwistClassification, Element]:
    """Closed-form classification when the kernel fits in F_q1, q1^2 | q.

    Solves x^q1 + x = 1 for the pivot parameter, verifies the pivot
    identities, and classifies by the image parametrisation around the
    pivot with target bit n + 1 where q = q1^(2n).  Returns the
    classification together with the pivot.  Raises DegreeMismatch when
    q1_deg < 1, and HypothesisFailed when q1 is not a power of p,
    F_{q1^2} does not divide F_q, or the kernel leaves F_q1.
    """
    fd.require(4)
    ctx, q_deg = fd.ctx, fd.q_deg
    if q1_deg < 1:
        raise DegreeMismatch(f"subfield degrees need 1 <= {q1_deg}")
    if q1_deg % ctx.p_log:
        raise HypothesisFailed(f"subfield degree {q1_deg} is not a power of p")
    if q_deg % (2 * q1_deg):
        raise HypothesisFailed(
            f"F_q is not an even tower over the degree-{q1_deg} subfield"
        )
    if not fd.adjoint_kernel.in_subfield(q1_deg):
        raise HypothesisFailed("adjoint kernel exceeds the pivot subfield")
    n = q_deg // (2 * q1_deg)
    t0 = _pivot(ctx, q1_deg)
    _check_pivot(ctx, t0, q1_deg)
    return image_classification(fd, t0, (n + 1) % 2, 0), t0


# -- heads prescribed by an ordinary polynomial over F_p --------------------


@dataclass(frozen=True)
class PalindromicFamily:
    """Classified twist family of a head built from a polynomial over F_p.

    `order` is the multiplicative order of x modulo the palindromic
    product, `power` the tower height with q = p^(order * power), and
    `pivot` the parameter around which the classification is centred.
    """

    classification: TwistClassification
    pivot: Element
    order: int
    power: int

    @property
    def head(self) -> CurveSpec:
        return self.classification.head

    @property
    def datum(self) -> TwistDatum:
        return self.classification.datum


def _order(poly: SkewPoly) -> int:
    """Multiplicative order of x modulo poly in F_p[t], if at most 4096.

    x^k = 1 modulo poly exactly when ker poly lies in F_{p^k}, so the
    order is the kernel splitting degree over F_p.
    """
    p_log, cap = poly.ctx.p_log, 4096
    try:
        return poly.kernel_splitting_degree(cap * p_log) // p_log
    except CapExceeded:
        raise CapExceeded(f"order of x modulo the palindrome exceeds {cap}") from None


def palindromic_family(
    ctx: FieldCtx,
    q_deg: int,
    f_coeffs: tuple[Element, ...],
    budget: int = DEFAULT_BUDGET,
) -> PalindromicFamily:
    """Head and extremal twists prescribed by f over F_p with f(1) = 0.

    Coefficients in F_p commute with t, so F = f(t) lies in the subring
    F_p[t] = F_p[x] of the Frobenius ring, and F*F = t^-deg(f) g(t) for
    the palindrome g = x^deg(f) f(x) f(1/x).  The head is that of the
    datum F (the off-diagonal convolutions of f, checked against F*F).
    F_q must contain the splitting field of g: its degree over F_p is
    the order of x modulo g, twice an odd number, which is the kernel
    splitting degree of F*F over F_p.  f has simple roots exactly when
    the order of x modulo f is odd (Lidl-Niederreiter, Finite Fields,
    Thm 3.8).  Raises HypothesisFailed unless f has degree >= 1 and
    nonzero ends, FOneNonzero, RootsNotSimple, FieldTooSmall when the
    order does not divide [F_q : F_p], and CapExceeded when an order
    exceeds 4096.  The classification enumerates F_q and confirms every
    twist count through `checked_count` within `budget`.
    """
    f = [ctx.check(c) for c in f_coeffs]
    if len(f) < 2 or f[0] == 0 or f[-1] == 0:
        raise HypothesisFailed("f needs degree >= 1 and nonzero ends")
    if not all(ctx.in_subfield(c, ctx.p_log) for c in f):
        raise DegreeMismatch("f must have coefficients in F_p")
    F = SkewPoly.from_coeffs(ctx, f)
    if F(1):
        raise FOneNonzero(f"f(1) = {F(1):#x} must vanish")
    if _order(F) % 2 == 0:
        raise RootsNotSimple("f shares a root with its derivative")
    adjoint = F.adjoint()
    order = _order(adjoint * F)
    if order % 4 != 2:
        raise OracleMismatch(f"palindrome order {order} is not twice an odd number")
    if q_deg % (order * ctx.p_log):
        raise FieldTooSmall(
            f"extremal twists need the degree-{order * ctx.p_log} subfield inside F_q"
        )
    tower = q_deg // (order * ctx.p_log)
    fd = TwistDatum(F, q_deg)
    if not all(fd.conditions):
        raise OracleMismatch("the datum of f fails a presentation condition")
    head = head_curve(fd)
    half = (order // 2) * ctx.p_log
    if not fd.adjoint_kernel.in_subfield(half):
        raise OracleMismatch("ker F* leaves the half-order subfield")
    t0 = _pivot(ctx, ctx.p_log)
    _check_pivot(ctx, t0, ctx.p_log)
    deriv_one = reduce(xor, f[1::2])
    if adjoint(t0) != deriv_one:
        raise OracleMismatch("F* of the pivot misses f'(1)")
    r_one = head.evaluate(1)
    if fd.twist_coefficient(t0) != r_one ^ ctx.sqr(deriv_one):
        raise OracleMismatch("pivot coefficient misses R(1) + f'(1)^2")
    tc = image_classification(fd, t0, (tower + 1) % 2, budget)
    return PalindromicFamily(tc, t0, order, tower)


# -- the family x^p + a x ---------------------------------------------------


@dataclass(frozen=True)
class HermitianReport:
    """Complete verdict for the family R = x^p + ax over F_q.

    `relative_trace` is the trace of a down to F_{p^2}; the curve is
    extremal exactly when it vanishes, and `is_maximal` is None
    otherwise.  `eigenvalues` lists the distinct Frobenius eigenvalues.
    """

    curve: CurveSpec
    relative_trace: Element
    is_extremal: bool
    is_maximal: bool | None
    eigenvalues: tuple[GaussInt, ...]
    lpoly: LPolynomial
    counting_checked: bool


def hermitian_twist(
    ctx: FieldCtx,
    a: Element,
    q_deg: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> HermitianReport:
    """Settle y^p - y = x^(p+1) + ax^2 by the relative trace of a.

    With vanishing trace the curve is extremal and maximality is the
    parity of [F_q : F_{p^2}] plus the absolute trace of an explicit
    F_p-quadratic expression in a; the verdict is cross-checked through
    a recovered presentation.  With trace alpha != 0 the eigenvalues
    are +-i^tb sqrt(q), tb the absolute trace of the norm of alpha, so
    the count over F_q is q + 1; a witness datum built from the fourth
    root of alpha^(p-1) reproduces them exactly.  Counts are brute
    verified within budget.  Raises OddDegree when [F_q : F_p] is odd.
    """
    if q_deg is None:
        q_deg = ctx.n
    ctx.check(a)
    if not ctx.in_subfield(a, q_deg):
        raise DegreeMismatch(f"coefficient {a:#x} is outside F_q")
    m = q_deg // ctx.p_log
    if m % 2:
        raise OddDegree(f"[F_q : F_p] = {m} must be even")
    spec = CurveSpec(ctx, q_deg, (a, 1))
    alpha = ctx.trace(a, q_deg, 2 * ctx.p_log)
    if alpha == 0:
        beta = 0
        for j in range(0, m, 2):
            for i in range(1, j, 2):
                beta ^= ctx.mul(ctx.frob_p(a, i), ctx.frob_p(a, j))
        if not ctx.in_subfield(beta, ctx.p_log):
            raise OracleMismatch("parity expression leaves F_p")
        verdict = (m // 2 + ctx.trace(beta, ctx.p_log, 1)) % 2 == 1
        fd, t = recover_datum(spec)
        lp = l_polynomial(fd, t)
        if weil_class(spec, 1, lp.point_count(1)) != ("maximal" if verdict else "minimal"):
            raise OracleMismatch("parity formula disagrees with the eigenvalues")
        checked = _brute_against(spec, lp, budget)  # extremal: all eigenvalues agree
        return HermitianReport(spec, 0, True, verdict, lp.roots[:1], lp, checked)
    z = ctx.mul(ctx.frob_p(alpha, 1), ctx.inv(alpha))
    group = (1 << (2 * ctx.p_log)) - 1
    y = ctx.pow(z, pow(4, -1, group))
    if ctx.sqr(ctx.sqr(y)) != z or y != ctx.sqrt(ctx.sqrt(z)):
        raise OracleMismatch("fourth root fails its defining identity")
    fd = TwistDatum(SkewPoly(ctx, {1: y, 0: ctx.inv(y)}), q_deg)
    if not all(fd.conditions):
        raise OracleMismatch("witness datum fails a presentation condition")
    if fd.adjoint_kernel != Fp2Subspace.from_vectors(ctx, [1]):
        raise OracleMismatch("witness datum's adjoint kernel is not F_p")
    if head_curve(fd) != spec.head():
        raise OracleMismatch("witness datum misses the head")
    w = ctx.sqrt(ctx.mul(a, ctx.sqrt(z)))
    try:
        t = ctx.solve_additive(lambda b: ctx.frob_p(b, m - 1) ^ b, w ^ 1, q_deg)
    except NoSolution as exc:
        raise OracleMismatch("twist parameter equation has no root") from exc
    if fd.twist_coefficient(t) != a:
        raise OracleMismatch("closed-form parameter misses its coefficient")
    lp = l_polynomial(fd, t)
    norm = ctx.mul(ctx.frob_p(alpha, 1), alpha)
    if not ctx.in_subfield(norm, ctx.p_log):
        raise OracleMismatch("norm of the relative trace leaves F_p")
    tb = ctx.trace(norm, ctx.p_log, 1)
    lam = (1 << (q_deg // 2)) * i_power(tb)
    expected = tuple(
        sorted([lam] * (ctx.p // 2) + [-lam] * (ctx.p // 2), key=lambda r: (r.re, r.im))
    )
    if lp.roots != expected:
        raise OracleMismatch("eigenvalues miss the prescribed pair")
    if weil_class(spec, 1, lp.point_count(1)) != "neutral":
        raise OracleMismatch("nonzero relative trace leaves the count off q + 1")
    if weil_class(spec, 2, lp.point_count(2)) != ("minimal", "maximal")[tb]:
        raise OracleMismatch("count over F_{q^2} misses the prescribed sign")
    checked = _brute_against(spec, lp, budget)
    return HermitianReport(spec, alpha, False, None, (lam, -lam), lp, checked)
