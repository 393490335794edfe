"""Closed-form L-polynomials for the twisted curves.

For a datum F with flags 1..3 and a twist parameter t, the numerator of
the zeta function factors completely over Z[i]: every v in ker F*
contributes the eigenvalue

    tau_v = Q_q(t + v)^(-1) * (-1 - i)^[F_q : F_2]

with multiplicity p - 1.  Point counts over every extension follow by
the standard zeta identity, exactly and without any floating point.
"""

from __future__ import annotations

from ..errors import DomainError, OracleMismatch
from ..gf2field import Element
from ..witt2 import GaussInt, hd_sum, i_power, q_char
from .base import TwistDatum, weil_class

__all__ = ["LPolynomial", "l_polynomial"]


class LPolynomial:
    """Zeta numerator as its multiset of eigenvalues in Z[i].

    `roots` lists one eigenvalue per kernel element (collisions kept),
    sorted by (re, im); each carries the same multiplicity p - 1.
    """

    __slots__ = ("q", "multiplicity", "roots")

    def __init__(self, q: int, multiplicity: int, roots: tuple[GaussInt, ...]):
        if multiplicity < 1 or not roots:
            raise DomainError("need at least one eigenvalue with multiplicity >= 1")
        for r in roots:
            if r.abs2() != q:
                raise DomainError(f"eigenvalue {r} has norm {r.abs2()}, expected {q}")
        self.q = q
        self.multiplicity = multiplicity
        self.roots = tuple(sorted(roots, key=lambda z: (z.re, z.im)))

    def __repr__(self) -> str:
        inside = ", ".join(str(r) for r in self.roots)
        return f"LPolynomial(q={self.q}, mult={self.multiplicity}, [{inside}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LPolynomial):
            return NotImplemented
        return (
            self.q == other.q
            and self.multiplicity == other.multiplicity
            and self.roots == other.roots
        )

    def __hash__(self) -> int:
        return hash((self.q, self.multiplicity, self.roots))

    @property
    def degree(self) -> int:
        """Total degree counting multiplicity; equals twice the genus."""
        return self.multiplicity * len(self.roots)

    @property
    def genus(self) -> int:
        """Genus of the curve, half the degree."""
        return self.degree // 2

    def point_count(self, m: int) -> int:
        """Projective point count over the degree-m extension of F_q."""
        if m < 1:
            raise DomainError("extension degree must be >= 1")
        acc = GaussInt(0)
        for r in self.roots:
            acc = acc + r**m
        total = self.q**m + 1 - acc * self.multiplicity
        return total.as_int()

    def common_root(self) -> GaussInt | None:
        """The single eigenvalue when all slots agree, else None."""
        first = self.roots[0]
        return first if all(r == first for r in self.roots) else None

    @property
    def is_extremal(self) -> bool:
        """Whether the count over F_q sits at the Weil bound (either sign)."""
        return self.is_maximal or self.is_minimal

    @property
    def is_maximal(self) -> bool:
        return weil_class(self, 1, self.point_count(1)) == "maximal"

    @property
    def is_minimal(self) -> bool:
        return weil_class(self, 1, self.point_count(1)) == "minimal"

    def poly_coeffs(self) -> tuple[int, ...]:
        """Coefficients of prod(1 - tau*T)^mult, ascending in T, as ints."""
        coeffs = [GaussInt(1)]
        for r in self.roots:
            for _ in range(self.multiplicity):
                nxt = [GaussInt(0)] * (len(coeffs) + 1)
                for k, c in enumerate(coeffs):
                    nxt[k] = nxt[k] + c
                    nxt[k + 1] = nxt[k + 1] - c * r
                coeffs = nxt
        return tuple(c.as_int() for c in coeffs)

    def format_roots(self) -> list[str]:
        return [str(r) for r in self.roots]


def l_polynomial(fd: TwistDatum, t: Element) -> LPolynomial:
    """Exact eigenvalue multiset of the curve of (fd, t) over F_q."""
    fd.require(3)
    ctx, s = fd.ctx, fd.q_deg
    if not ctx.in_subfield(t, s):
        raise DomainError(f"twist parameter {t:#x} is outside the subfield")
    base = hd_sum(s)  # (-1-i)^s; the root of v is Q(t + v)^-1 times it
    roots = tuple(i_power(-q_char(ctx, t ^ v, s)) * base for v in fd.adjoint_kernel.elements())
    lp = LPolynomial(1 << s, ctx.p - 1, roots)
    if lp.degree != 2 * ((ctx.p - 1) * ctx.p ** fd.e // 2):
        raise OracleMismatch(f"{len(roots)} eigenvalues for a datum of degree {fd.e}")
    return lp
