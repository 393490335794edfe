"""Twisted Laurent polynomials in the Frobenius of a binary field.

A skew polynomial sum(a_i * t^i) acts on field elements by
f(x) = sum(a_i * x^(p^i)), p = 2^ctx.p_log, with i allowed to be
negative (inverse Frobenius; every binary field is perfect).  The
multiplication rule is t*a = a^p*t, so these objects compose like the
maps they represent: (f*g)(x) = f(g(x)).

Coefficients are stored sparsely as {exponent: nonzero element}.
Instances are treated as immutable; all arithmetic returns new
objects.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import (
    AmbientTooSmall,
    CapExceeded,
    CtxMismatch,
    DegreeMismatch,
    NotDivisible,
    NotSelfAdjoint,
    OracleMismatch,
    ZeroDivisor,
    ZeroPolynomial,
)
from .gf2field import (
    Element,
    FieldCtx,
    Fp2Subspace,
    kernel_basis,
    make_field,
    transport,
)


class SkewPoly:
    """A twisted Laurent polynomial over a fixed field context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Mapping[int, Element]):
        self.ctx = ctx
        clean = {}
        for i, a in coeffs.items():
            ctx.check(a)
            if a:
                clean[int(i)] = a
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "SkewPoly":
        return cls(ctx, {})

    @classmethod
    def one(cls, ctx: FieldCtx) -> "SkewPoly":
        return cls(ctx, {0: 1})

    @classmethod
    def const(cls, ctx: FieldCtx, a: Element) -> "SkewPoly":
        return cls(ctx, {0: a})

    @classmethod
    def tau(cls, ctx: FieldCtx, k: int = 1) -> "SkewPoly":
        """The k-th power of the Frobenius x -> x^p as a polynomial."""
        return cls(ctx, {k: 1})

    @classmethod
    def from_coeffs(cls, ctx: FieldCtx, coeffs: Iterable[Element]) -> "SkewPoly":
        """Build sum(coeffs[i] * t^i) from an ascending coefficient list."""
        return cls(ctx, dict(enumerate(coeffs)))

    # -- basic structure ----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewPoly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ctx, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        return f"SkewPoly({format_skew(self)})"

    def __getitem__(self, i: int) -> Element:
        return self.coeffs.get(i, 0)

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no degree")
        return max(self.coeffs)

    @property
    def val(self) -> int:
        """Lowest exponent with a nonzero coefficient."""
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no valuation")
        return min(self.coeffs)

    @property
    def span(self) -> int:
        """degree - val; the p-degree of the separable part."""
        return self.degree - self.val

    def exponents(self) -> list[int]:
        return sorted(self.coeffs)

    def _peer(self, other: "SkewPoly") -> None:
        if self.ctx != other.ctx:
            raise CtxMismatch("operands live over different field contexts")

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._peer(other)
        out = dict(self.coeffs)
        for i, a in other.coeffs.items():
            out[i] = out.get(i, 0) ^ a
        return SkewPoly(self.ctx, out)

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        self._peer(other)
        ctx = self.ctx
        out: dict[int, Element] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                k = i + j
                out[k] = out.get(k, 0) ^ ctx.mul(a, ctx.frob_p(b, i))
        return SkewPoly(ctx, out)

    def adjoint(self) -> "SkewPoly":
        """sum(a_i^(p^-i) * t^-i); an anti-automorphism of the ring."""
        ctx = self.ctx
        return SkewPoly(
            ctx, {-i: ctx.frob_p(a, -i) for i, a in self.coeffs.items()}
        )

    def __call__(self, x: Element) -> Element:
        ctx = self.ctx
        out = 0
        for i, a in self.coeffs.items():
            out ^= ctx.mul(a, ctx.frob_p(x, i))
        return out

    # -- context changes ----------------------------------------------

    def transport_to(self, dst: FieldCtx, deg: int) -> "SkewPoly":
        """The same polynomial in dst, its coefficients carried from F_{2^deg}
        (DegreeMismatch outside it), which dst holds even without self's field."""
        if dst.p_log != self.ctx.p_log:
            raise CtxMismatch("target context has a different base field")
        src = self.ctx
        return SkewPoly(
            dst, {i: transport(src, a, dst, deg) for i, a in self.coeffs.items()}
        )

    def rebase(self) -> "SkewPoly":
        """Rewrite in the 2-Frobenius ring: t_p^i becomes t_2^(i*p_log)."""
        b = self.ctx.p_log
        ctx2 = make_field(self.ctx.n, self.ctx.poly, 1)
        return SkewPoly(ctx2, {b * i: a for i, a in self.coeffs.items()})

    # -- normal form and division -------------------------------------

    def normalize(self) -> tuple[Element, int, "SkewPoly"]:
        """Write self = const(a) * t^n * g with g monic of valuation 0.

        g is the monic separable part; its kernel in a splitting field
        equals the kernel of self.
        """
        if not self.coeffs:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        ctx, r = self.ctx, self.val
        a = self[self.degree]
        inv_a = ctx.inv(a)
        g = {
            i - r: ctx.frob_p(ctx.mul(inv_a, c), -r)
            for i, c in self.coeffs.items()
        }
        return a, r, SkewPoly(ctx, g)

    def right_divide(self, g: "SkewPoly") -> "SkewPoly":
        """Return h with self == h * g, or raise NotDivisible."""
        self._peer(g)
        if not g:
            raise ZeroDivisor("division by the zero polynomial")
        if not self:
            return SkewPoly.zero(self.ctx)
        m = g.val
        g1 = g * SkewPoly.tau(self.ctx, -m)
        f1 = self * SkewPoly.tau(self.ctx, -m)
        s = max(0, -f1.val)
        f2 = SkewPoly.tau(self.ctx, s) * f1
        h2, rem = _divmod_right(f2, g1)
        if rem:
            raise NotDivisible(
                f"{format_skew(g)} does not right-divide {format_skew(self)}"
            )
        return SkewPoly.tau(self.ctx, -s) * h2

    # -- kernels -------------------------------------------------------

    def kernel(self) -> Fp2Subspace:
        """Kernel of the evaluation map on the context, as an F_p-subspace.

        The context must contain the whole kernel (p-dimension span),
        else AmbientTooSmall; `transport_to` moves the polynomial into a
        larger one.
        """
        if not self.coeffs:
            raise ZeroPolynomial("the zero polynomial has full kernel")
        ctx = self.ctx
        images = ctx.linear_images(self)
        basis = kernel_basis(images)
        ker = Fp2Subspace(ctx, basis)
        if ker.dim_p != self.span:
            raise AmbientTooSmall(
                f"kernel has p-dimension {ker.dim_p} in F_{{2^{ctx.n}}}, "
                f"expected {self.span}"
            )
        return ker

    @classmethod
    def from_subspace(cls, space: Fp2Subspace) -> "SkewPoly":
        """The monic separable polynomial whose kernel is exactly space."""
        ctx = space.ctx
        if space.p_log != ctx.p_log:
            raise CtxMismatch("subspace base field differs from the context's")
        p_minus_1 = (1 << ctx.p_log) - 1
        f = cls.one(ctx)
        for v in space.fp_basis():
            u = f(v)
            if u == 0:
                raise OracleMismatch(
                    f"F_p-basis vector {v:#x} already in the kernel of {format_skew(f)}"
                )
            f = (cls.tau(ctx) + cls.const(ctx, ctx.pow(u, p_minus_1))) * f
        return f

    def kernel_splitting_degree(self, cap: int = 4096) -> int:
        """Least D with the full kernel inside F_{2^D}; CapExceeded past cap.

        Works entirely over the coefficient field: the separable part g,
        rewritten in the 2-Frobenius ring (t*a = a^2*t), monic of degree
        k and valuation 0, right-divides t^D + 1 exactly when its kernel
        lies in F_{2^D}, that is when t^D leaves the right remainder 1.
        No extension context is built.

        The remainder r_d of t^d is kept as its k coefficients and
        stepped by one left multiplication by t: t*r_d shifts them up
        one place and squares them, leaving the carry c = r[k-1]^2 at
        t^k, and taking off c*g leaves
        r_{d+1} = [c*g_0] + [r[i-1]^2 + c*g_i for i = 1..k-1].  Only
        the live terms are computed: the shift squares the nonzero
        coefficients alone, and c*g_i is added only when c != 0 and
        only at the taps i with g_i != 0, so no product has a zero
        factor (a rebased p = 4 polynomial has no odd taps at all).

        Only left multiples keep the class: t^d = h*g + r_d gives
        t^(d+1) = (t*h)*g + t*r_d.  Square-and-multiply on remainders
        is wrong in this ring: t^(2d) = t^d*r_d + (t^d*h)*g, and
        r_d*r_d differs from t^d*r_d by h*g*r_d, in general no left
        multiple of g, so (t^d mod g)^2 is not t^(2d) mod g.
        """
        _, _, g = self.rebase().normalize()
        k = g.degree
        if k == 0 and cap >= 1:  # the kernel is {0}
            return 1
        ctx = g.ctx
        sqr, mul = ctx.frob_map(1), ctx.mul
        taps = [(i, a) for i, a in g.coeffs.items() if i < k]
        one = [1] + [0] * (k - 1)
        r = one
        for d in range(1, cap + 1):
            c = r[-1]
            r = [0] + [sqr(x) if x else 0 for x in r[:-1]]
            if c:
                c = sqr(c)
                for i, a in taps:
                    r[i] ^= mul(c, a)
            if r == one:
                return d
        raise CapExceeded(f"kernel splitting degree exceeds {cap}")


def _divmod_right(f: SkewPoly, g: SkewPoly) -> tuple[SkewPoly, SkewPoly]:
    """Euclidean right division f = h*g + r, for g of valuation 0."""
    ctx = f.ctx
    gdeg = g.degree
    inv_lead = ctx.inv(g[gdeg])
    h = SkewPoly.zero(ctx)
    r = f
    while r and r.degree >= gdeg:
        d = r.degree - gdeg
        # Frobenius is a field automorphism: 1/lead^(p^d) = (1/lead)^(p^d)
        c = ctx.mul(r[r.degree], ctx.frob_p(inv_lead, d))
        term = SkewPoly(ctx, {d: c})
        h = h + term
        r = r + term * g
    return h, r


def factor_through_symmetric(E: SkewPoly, space: Fp2Subspace) -> SkewPoly:
    """Split a self-adjoint E as F.adjoint() * F with kernel(F) = space.

    The subspace must be contained in the kernel of E and have half its
    p-dimension; both divisions below fail with NotDivisible otherwise.
    """
    if not E:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if E.adjoint() != E:
        raise NotSelfAdjoint(f"{format_skew(E)} is not self-adjoint")
    if 2 * space.dim_p != E.span:
        raise DegreeMismatch(
            f"subspace p-dimension {space.dim_p} is not half of {E.span}"
        )
    fw = SkewPoly.from_subspace(space)
    G = E.right_divide(fw)
    A = G.adjoint().right_divide(fw)
    if A.exponents() != [0]:
        raise NotDivisible("the symmetric cofactor is not a scalar")
    F = SkewPoly.const(E.ctx, E.ctx.sqrt(A[0])) * fw
    if F.adjoint() * F != E:
        raise OracleMismatch(
            f"F*F != E for F = {format_skew(F)}, E = {format_skew(E)}"
        )
    return F


# ---------------------------------------------------------------------------
# text form: hex coefficients against powers of t, highest exponent first


def format_skew(f: SkewPoly) -> str:
    if not f:
        return "0"
    terms = [f"{f[i]:#x}*t^{i}" for i in sorted(f.coeffs, reverse=True)]
    return " + ".join(terms)

