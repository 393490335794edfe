"""Independent references that the tests check the package against.

No route of the package runs these, so they live beside the tests, not
in `src/`:

- the Heisenberg group of a linearized polynomial R, whose commutator
  pairing is checked against `PairingCtx.omega` (acceptance gate 09),
  with `NotOnCurve` for the points that fail its equations;
- `factor_complement_check`, the kernel of a cofactor's adjoint, checked
  against `PairingCtx.orthogonal_complement`;
- `bq_char`, the bilinear defect of the quadratic character, checked
  against `q_char`;
- the ring of length-2 Witt vectors `WittPair`, its trace `witt_trace`
  and its order-4 character `xi2`: `xi2(witt_trace((x, 0)))` is the
  quadratic character that `q_char` reads off the explicit shape of
  the trace;
- `right_divides`, divisibility as a yes/no, checked against kernel
  containment (acceptance gate 08);
- `subfield_generator_by_scan`, the least root of a default modulus by
  an ascending scan of the subfield, checked against the trace
  splitting of `FieldCtx.subfield_generator`;
- `quotient_curve`, the Artin-Schreier curve over F_2 below a curve
  over F_p, whose count checks the several trace forms that
  `brute_count` evaluates for p > 2.
"""

from __future__ import annotations

from aswcurves.curves import CurveSpec
from aswcurves.errors import (
    Char2Error,
    CtxMismatch,
    DegreeMismatch,
    NotDivisible,
    OracleMismatch,
)
from aswcurves.gf2field import Element, FieldCtx, Fp2Subspace, default_modulus, make_field
from aswcurves.skew import SkewPoly
from aswcurves.witt2 import psi_char


def right_divides(g: SkewPoly, f: SkewPoly) -> bool:
    """Whether g right-divides f."""
    try:
        f.right_divide(g)
        return True
    except NotDivisible:
        return False


def factor_complement_check(E: SkewPoly, f: SkewPoly) -> Fp2Subspace:
    """Kernel of h* for the cofactor h with E = h*f.

    This equals the orthogonal complement of ker f under the pairing of
    E; the test suite asserts that equality.
    """
    h = E.right_divide(f)
    return h.adjoint().kernel()


def subfield_generator_by_scan(ctx: FieldCtx, deg: int) -> Element:
    """Least root of the default degree-deg modulus in ctx: the first
    element of the degree-deg subfield, in ascending order, at which the
    modulus vanishes by Horner's rule."""
    m = default_modulus(deg)
    for cand in ctx.subfield_elements(deg):
        acc = 0
        for bit in range(m.bit_length() - 1, -1, -1):
            acc = ctx.mul(acc, cand) ^ ((m >> bit) & 1)
        if acc == 0:
            return cand
    raise OracleMismatch(f"no root of {m:#x} in the degree-{deg} subfield")


def bq_char(ctx: FieldCtx, x: Element, y: Element, deg: int) -> int:
    """i-exponent of the bilinear defect of Q: B(x, y) = Q(x+y)/Q(x)Q(y)
    = psi(x*y)."""
    return psi_char(ctx, ctx.mul(x, y), deg)


# ---------------------------------------------------------------------------
# Length-2 Witt vectors: (a, b) + (c, d) = (a + c, b + d + a*c) and
# (a, b) * (c, d) = (a*c, a^2*d + c^2*b), which over F_2 is the ring Z/4
# with (1, 0) as 1.


class WittPair:
    """Length-2 Witt vector over a field context."""

    __slots__ = ("ctx", "a", "b")

    def __init__(self, ctx: FieldCtx, a: Element, b: Element):
        self.ctx = ctx
        self.a = ctx.check(a)
        self.b = ctx.check(b)

    def __repr__(self) -> str:
        return f"WittPair({self.a:#x}, {self.b:#x})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WittPair)
            and self.ctx == other.ctx
            and (self.a, self.b) == (other.a, other.b)
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.a, self.b))

    def _peer(self, other: "WittPair") -> None:
        if not isinstance(other, WittPair):
            raise TypeError("expected a WittPair")
        if self.ctx != other.ctx:
            raise CtxMismatch("Witt pairs over different contexts")

    def __add__(self, other: "WittPair") -> "WittPair":
        self._peer(other)
        K = self.ctx
        return WittPair(
            K, self.a ^ other.a, self.b ^ other.b ^ K.mul(self.a, other.a)
        )

    def __neg__(self) -> "WittPair":
        return WittPair(self.ctx, self.a, self.b ^ self.ctx.sqr(self.a))

    def __sub__(self, other: "WittPair") -> "WittPair":
        return self + (-other)

    def __mul__(self, other: "WittPair") -> "WittPair":
        self._peer(other)
        K = self.ctx
        return WittPair(
            K,
            K.mul(self.a, other.a),
            K.mul(K.sqr(self.a), other.b) ^ K.mul(K.sqr(other.a), self.b),
        )

    def frob(self, j: int) -> "WittPair":
        """Componentwise 2-power Frobenius."""
        K = self.ctx
        return WittPair(K, K.frob(self.a, j), K.frob(self.b, j))


def witt_trace(x: WittPair, from_deg: int, to_deg: int) -> WittPair:
    """Witt-vector trace from the degree-from_deg subfield down to to_deg:
    the sum of the conjugates of x in the Witt ring."""
    K = x.ctx
    K.check_degrees(from_deg, to_deg)
    if not (K.in_subfield(x.a, from_deg) and K.in_subfield(x.b, from_deg)):
        raise DegreeMismatch("components outside the source subfield")
    acc = WittPair(K, 0, 0)
    y = x
    for _ in range(from_deg // to_deg):
        acc = acc + y
        y = y.frob(to_deg)
    if not (K.in_subfield(acc.a, to_deg) and K.in_subfield(acc.b, to_deg)):
        raise OracleMismatch(f"Witt trace of {x!r} lands outside the degree-{to_deg} subfield")
    return acc


def xi2(pair: WittPair) -> int:
    """The order-4 character on length-2 Witt vectors over F_2, as an
    i-exponent: (a, b) is a + 2b in Z/4."""
    if not (pair.a in (0, 1) and pair.b in (0, 1)):
        raise DegreeMismatch("xi2 needs components in F_2")
    return pair.a + 2 * pair.b


# ---------------------------------------------------------------------------
# Heisenberg group of a linearized polynomial with exponents 0..e


class NotOnCurve(Char2Error, ValueError):
    """A point does not satisfy the group's defining equations."""


def _check_heisenberg_shape(R: SkewPoly) -> int:
    if not R or R.val < 0 or R.degree < 1:
        raise DegreeMismatch("group data needs exponents 0..e with e >= 1")
    return R.degree


def heisenberg_ambient(R: SkewPoly) -> SkewPoly:
    """t^e * (R + R*): the map whose kernel carries the group."""
    e = _check_heisenberg_shape(R)
    return SkewPoly.tau(R.ctx, e) * (R + R.adjoint())


def f_r_eval(R: SkewPoly, x: Element, y: Element) -> Element:
    """The cocycle of the group law; solves f^p + f = xR(y) + yR(x) on ker."""
    e = _check_heisenberg_shape(R)
    ctx = R.ctx
    xr = ctx.mul(x, R(y))
    out = 0
    for i in range(e):
        inner = ctx.frob_p(xr, i)
        if R[i]:
            base = ctx.mul(ctx.mul(R[i], ctx.frob_p(x, i)), y)
            for j in range(e - i):
                inner ^= ctx.frob_p(base, j)
        out ^= inner
    return out


def omega_r_eval(R: SkewPoly, x: Element, y: Element) -> Element:
    """f_R(x,y) + f_R(y,x); the commutator pairing of the group."""
    return f_r_eval(R, x, y) ^ f_r_eval(R, y, x)


class HeisenbergElt:
    """A point (a, b) with E_R-membership for a and b^p + b = a*R(a)."""

    __slots__ = ("R", "a", "b")

    def __init__(self, R: SkewPoly, a: Element, b: Element):
        ctx = R.ctx
        if heisenberg_ambient(R)(a) != 0:
            raise NotOnCurve(f"{a:#x} is not in the kernel of t^e*(R + R*)")
        if ctx.frob_p(b, 1) ^ b != ctx.mul(a, R(a)):
            raise NotOnCurve(f"({a:#x}, {b:#x}) fails b^p + b = a*R(a)")
        self.R = R
        self.a = a
        self.b = b

    def __repr__(self) -> str:
        return f"HeisenbergElt({self.a:#x}, {self.b:#x})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HeisenbergElt)
            and (self.R, self.a, self.b) == (other.R, other.a, other.b)
        )

    def __hash__(self) -> int:
        return hash((self.R, self.a, self.b))

    def __mul__(self, other: "HeisenbergElt") -> "HeisenbergElt":
        if self.R != other.R:
            raise CtxMismatch("group elements belong to different groups")
        a, b = self.a, self.b
        c, d = other.a, other.b
        return HeisenbergElt(self.R, a ^ c, b ^ d ^ f_r_eval(self.R, a, c))

    def inverse(self) -> "HeisenbergElt":
        a, b = self.a, self.b
        return HeisenbergElt(self.R, a, b ^ f_r_eval(self.R, a, a))


def commutator(g1: HeisenbergElt, g2: HeisenbergElt) -> HeisenbergElt:
    return g1 * g2 * g1.inverse() * g2.inverse()


def quotient_curve(spec: CurveSpec) -> CurveSpec:
    """y^2 - y = x*R(x) for the curve y^p - y = x*R(x), p = 2^k: the same
    coefficients, a_i now at exponent 2^(k*i), in the same modulus with
    p_log 1.

    Over F_{q^m} the two counts satisfy
    #C - (q^m + 1) = (p - 1) * (#C_1 - (q^m + 1)): the character sum of
    Tr(w*x*R(x)) is the same for every w in F_p^*, as x -> u*x with
    u in F_p and w*u^2 = 1 turns it into that of Tr(x*R(x)).
    """
    k = spec.ctx.p_log
    coeffs = [0] * (k * spec.e + 1)
    for i, a in enumerate(spec.coeffs):
        coeffs[k * i] = a
    ctx = make_field(spec.ctx.n, spec.ctx.poly, 1)
    return CurveSpec(ctx, spec.q_deg, tuple(coeffs))
