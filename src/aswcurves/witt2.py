"""Length-2 Witt vectors over binary fields and their order-4 character.

A pair (a, b) of field elements adds and multiplies by

    (a, b) + (c, d) = (a + c, b + d + a*c)
    (a, b) * (c, d) = (a*c, a^2*d + c^2*b)

which over F_2 gives the ring Z/4 with (1, 0) as 1. The character xi
sends (1, 0) to the imaginary unit i, so every character value is a
power i^k and the characters return the exponent k in range(4); sums
of characters live in exact Gaussian integers, and no floating point
appears anywhere.

Down-to-earth consequences used constantly upstream: the length-2 trace
Tr(x, 0) of a pure first component has the explicit shape
(sum of conjugates, second elementary symmetric function of conjugates),
and the quadratic character Q(x) = xi(Tr(x, 0)) obeys
Q(x+y) = Q(x) Q(y) psi(xy) with psi the usual parity character.  In
F_2 terms the second component e2 is a quadratic form with polar form

    e2(x+y) = e2(x) + e2(y) + Tr(x)Tr(y) + Tr(xy)

(van der Geer and van der Vlugt, Reed-Muller codes and supersingular
curves I, 1992), so `q_exponent_table` runs the explicit shape only at
the unit vectors and takes every other value from this identity.
"""

from __future__ import annotations

import numpy as np

from . import bitvec
from .errors import (
    CtxMismatch,
    DegreeMismatch,
    DomainError,
    NonRealCount,
    OracleMismatch,
)
from .gf2field import Element, FieldCtx, make_field


class GaussInt:
    """Exact Gaussian integer re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        self.re = re
        self.im = im

    def __repr__(self) -> str:
        return f"GaussInt({self.re}, {self.im})"

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussInt(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussInt(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __pow__(self, e: int):
        if e < 0:
            raise DomainError("negative powers stay outside Z[i]")
        r, b = GaussInt(1), self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def abs2(self) -> int:
        """Norm re^2 + im^2."""
        return self.re * self.re + self.im * self.im

    def as_int(self) -> int:
        """The integer value; NonRealCount if the imaginary part is nonzero."""
        if self.im != 0:
            raise NonRealCount(f"{self} is not a rational integer")
        return self.re


def _coerce(x) -> GaussInt:
    if isinstance(x, GaussInt):
        return x
    if isinstance(x, int):
        return GaussInt(x)
    return NotImplemented


def i_power(k: int) -> GaussInt:
    """The unit i^k; only k mod 4 matters."""
    return GaussInt(*((1, 0), (0, 1), (-1, 0), (0, -1))[k & 3])


# ---------------------------------------------------------------------------


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


def witt_zero(ctx: FieldCtx) -> WittPair:
    return WittPair(ctx, 0, 0)


def witt_trace(x: WittPair, from_deg: int, to_deg: int) -> WittPair:
    """Witt-vector trace from the degree-from_deg subfield down to to_deg."""
    K = x.ctx
    K.check_degrees(from_deg, to_deg)
    if not (K.in_subfield(x.a, from_deg) and K.in_subfield(x.b, from_deg)):
        raise DegreeMismatch("components outside the source subfield")
    acc = witt_zero(K)
    y = x
    for _ in range(from_deg // to_deg):
        acc = acc + y
        y = y.frob(to_deg)
    if not (K.in_subfield(acc.a, to_deg) and K.in_subfield(acc.b, to_deg)):
        raise OracleMismatch(f"Witt trace of {x!r} lands outside the degree-{to_deg} subfield")
    return acc


# ---------------------------------------------------------------------------
# Characters. All of them take the working-subfield degree explicitly, so
# one ambient context serves every subfield level, and all of them return
# the exponent k in range(4) of their value i^k, the form of
# `q_exponent_table`; `i_power` turns an exponent into its Gaussian integer.


def xi2(pair: WittPair) -> int:
    """The order-4 character on length-2 Witt vectors over F_2, as an
    i-exponent: (a, b) is a + 2b in Z/4."""
    if not (pair.a in (0, 1) and pair.b in (0, 1)):
        raise DegreeMismatch("xi2 needs components in F_2")
    return pair.a + 2 * pair.b


def xi_q(pair: WittPair, deg: int) -> int:
    """xi composed with the Witt trace from the degree-deg subfield."""
    return xi2(witt_trace(pair, deg, 1))


def q_char(ctx: FieldCtx, x: Element, deg: int) -> int:
    """i-exponent of the quadratic character Q(x) = xi(Tr(x, 0))."""
    return xi_q(WittPair(ctx, x, 0), deg)


def psi_char(ctx: FieldCtx, x: Element, deg: int) -> int:
    """i-exponent of the parity character psi(x) = (-1)^Tr(x) = xi(Tr(0, x))."""
    return 2 * ctx.trace(x, deg, 1)


def q_exponent_table(deg: int) -> np.ndarray:
    """i-exponents of Q over all of F_{2^deg}, as a uint8 array.

    Index j is the exponent of Q at the element with bit pattern j in
    the dedicated degree-deg context: Tr(x) + 2*e2(x), by the explicit
    shape of the length-2 trace (first component the field trace, second
    the second elementary symmetric function e2 of the Frobenius
    conjugates).  The trace is F_2-linear and e2 is an F_2 quadratic
    form with polar form

        e2(x+y) = e2(x) + e2(y) + Tr(x)Tr(y) + Tr(xy),

    so both are fixed by their values at the unit vectors e_i, and only
    those go through the explicit shape, in the scalar arithmetic of the
    context.  The trace is then parity(x & tau) with bit i of tau equal
    to Tr(e_i), and e2 is the quadratic form parity(x & U x), where U
    carries e2(e_j) on its diagonal and B(e_i, e_j) = Tr(e_i)Tr(e_j) +
    Tr(t^(i+j)) above it, t the root of the modulus (e_i = t^i).
    Every element of the field is evaluated through these two forms.
    """
    K = make_field(deg)
    mul, sqr = K.mul, K.sqr
    tau, diag = 0, []
    for i in range(deg):
        conj, s, e2 = 1 << i, 0, 0  # conjugate, running sum, running e2
        for _ in range(deg):
            e2 ^= mul(s, conj)
            s ^= conj
            conj = sqr(conj)
        if (s | e2) > 1:
            raise OracleMismatch(f"trace or e2 over F_{{2^{deg}}} lands outside F_2")
        tau |= s << i
        diag.append(e2)
    powers = [1]  # t^k for k <= 2*deg - 2
    for _ in range(2 * deg - 2):
        powers.append(mul(powers[-1], 2))
    tr = [(y & tau).bit_count() & 1 for y in powers]
    images = [
        diag[j] << j | sum(((tr[i] & tr[j]) ^ tr[i + j]) << i for i in range(j))
        for j in range(deg)
    ]
    full = bitvec.arange_field(K)
    trace = np.bitwise_count(full & np.uint64(tau)) & np.uint8(1)
    return trace + 2 * bitvec.quadratic_parity(images, full)


def hd_sum(deg: int) -> GaussInt:
    """Minus the full-field sum of Q over F_{2^deg}, exactly.

    Equals (-1-i)^deg; the closed form is checked against this sum in the
    acceptance suite rather than assumed here.
    """
    counts = np.bincount(q_exponent_table(deg), minlength=4)
    total = GaussInt(int(counts[0]) - int(counts[2]), int(counts[1]) - int(counts[3]))
    return -total
