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
- `right_divides`, divisibility as a yes/no, checked against kernel
  containment (acceptance gate 08).
"""

from __future__ import annotations

from aswcurves.errors import Char2Error, CtxMismatch, DegreeMismatch, NotDivisible
from aswcurves.gf2field import Element, FieldCtx, Fp2Subspace
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


def bq_char(ctx: FieldCtx, x: Element, y: Element, deg: int) -> int:
    """i-exponent of the bilinear defect of Q: B(x, y) = Q(x+y)/Q(x)Q(y)
    = psi(x*y)."""
    return psi_char(ctx, ctx.mul(x, y), deg)


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
