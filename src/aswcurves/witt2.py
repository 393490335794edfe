"""The order-4 character Q of binary fields, and exact character sums.

Q(x) = xi(Tr(x, 0)) is the order-4 character xi of the length-2 Witt
vectors over F_2 (the ring Z/4, with xi((1, 0)) = i) composed with the
length-2 trace of the pure first component (x, 0).  That trace has the
explicit shape (Tr(x), e2(x)): the sum of the Frobenius conjugates of x
and their second elementary symmetric function.  So every value of Q is
a power i^k, and the characters return the exponent k = Tr(x) + 2*e2(x)
in range(4), read off that shape; sums of characters live in exact
Gaussian integers, and no floating point appears anywhere.  The Witt
ring itself is not needed here; it lives in `tests/reference.py`, the
independent reference that `q_char` is checked against.

Q obeys Q(x+y) = Q(x) Q(y) psi(xy) with psi the usual parity character.
In F_2 terms e2 is a quadratic form with polar form

    e2(x+y) = e2(x) + e2(y) + Tr(x)Tr(y) + Tr(xy)

(van der Geer and van der Vlugt, Reed-Muller codes and supersingular
curves I, 1992), so `q_exponent_table` runs the explicit shape only at
the unit vectors and takes every other value from this identity;
`bitvec` evaluates the two forms over the field and counts the values.
"""

from __future__ import annotations

from . import bitvec
from .errors import (
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
# Characters. All of them take the working-subfield degree explicitly, so
# one ambient context serves every subfield level, and all of them return
# the exponent k in range(4) of their value i^k, the form of
# `q_exponent_table`; `i_power` turns an exponent into its Gaussian integer.


def _length2_trace(ctx: FieldCtx, x: Element, deg: int) -> tuple[int, int]:
    """(Tr(x), e2(x)) for x in the degree-deg subfield: the length-2 trace
    Tr(x, 0) down to F_2, in its explicit shape.

    A running sum and a running e2 over the conjugates x^(2^j), j < deg;
    DegreeMismatch when x is outside the subfield, OracleMismatch when
    either part lands outside F_2.
    """
    if not ctx.in_subfield(ctx.check(x), deg):
        raise DegreeMismatch(f"{x:#x} is outside the degree-{deg} subfield")
    conj, s, e2 = x, 0, 0
    for _ in range(deg):
        e2 ^= ctx.mul(s, conj)
        s ^= conj
        conj = ctx.sqr(conj)
    if (s | e2) > 1:
        raise OracleMismatch(f"length-2 trace of {x:#x} from degree {deg} lands outside F_2")
    return s, e2


def q_char(ctx: FieldCtx, x: Element, deg: int) -> int:
    """i-exponent of the quadratic character Q(x) = xi(Tr(x, 0)) = Tr(x) + 2*e2(x)."""
    s, e2 = _length2_trace(ctx, x, deg)
    return s + 2 * e2


def psi_char(ctx: FieldCtx, x: Element, deg: int) -> int:
    """i-exponent of the parity character psi(x) = (-1)^Tr(x) = xi(Tr(0, x))."""
    return 2 * ctx.trace(x, deg, 1)


def q_exponent_table(deg: int):
    """i-exponents of Q over all of F_{2^deg}, as a uint8 numpy array.

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
    Every element of the field is evaluated through these two forms,
    2*e2(x) + Tr(x), by `bitvec.two_form_table`.
    """
    K = make_field(deg)
    tau, diag = 0, []
    for i in range(deg):
        s, e2 = _length2_trace(K, 1 << i, deg)
        tau |= s << i
        diag.append(e2)
    powers = [1]  # t^k for k <= 2*deg - 2
    for _ in range(2 * deg - 2):
        powers.append(K.mul(powers[-1], 2))
    tr = [(y & tau).bit_count() & 1 for y in powers]
    images = [
        diag[j] << j | sum(((tr[i] & tr[j]) ^ tr[i + j]) << i for i in range(j))
        for j in range(deg)
    ]
    return bitvec.two_form_table(images, tau, deg)


def hd_sum(deg: int) -> GaussInt:
    """Minus the full-field sum of Q over F_{2^deg}, exactly.

    Equals (-1-i)^deg; the closed form is checked against this sum in the
    acceptance suite rather than assumed here.
    """
    c0, c1, c2, c3 = bitvec.value_counts(q_exponent_table(deg))
    return -GaussInt(c0 - c2, c1 - c3)
