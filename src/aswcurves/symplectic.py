"""The pairing between the kernels of a skew polynomial and its adjoint.

For F in the twisted ring, the function xF(y) + yF*(x) has a unique
bi-additive Artin-Schreier witness g with g(0,0) = 0, meaning
g^p + g = xF(y) + yF*(x).  Restricted to u in ker F and u* in ker F*,
the value omega(u, u*) := g(u*, u) lands in F_p and the resulting
pairing is nondegenerate; when F is self-adjoint it is alternating, so
ker F becomes a symplectic F_p-space.  This module computes g, the
pairing, orthogonal complements, maximal isotropic subspaces (grown one
vector at a time, on which an optional F_p-linear form vanishes), and
the finite Heisenberg group attached to a linearized polynomial R
(elements (a, b) with b^p + b = a*R(a)).

Everything is exact; pairing values are elements of the degree-p_log
subfield of the working context.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import (
    CtxMismatch,
    DegreeMismatch,
    NotInKernel,
    NotIsotropic,
    NotOnCurve,
    NotSubspaceOfW,
    NotSymplectic,
    OracleMismatch,
)
from .gf2field import Element, FieldCtx, Fp2Subspace, kernel_basis, rref_basis
from .skew import SkewPoly


def g_witness(F: SkewPoly, x: Element, y: Element) -> Element:
    """The unique bi-additive g with g^p + g = xF(y) + yF*(x), g(0,0) = 0.

    Built one exponent at a time: the term with coefficient b at t^i
    contributes the partial Artin-Schreier sum of z = y*(b*x)^(p^-i).
    """
    ctx = F.ctx
    ctx.check(x)
    ctx.check(y)
    g = 0
    for i, b in F.coeffs.items():
        if i == 0:
            continue
        z = ctx.mul(y, ctx.frob_p(ctx.mul(b, x), -i))
        if i < 0:
            z = ctx.frob_p(z, i)
        for j in range(abs(i)):
            g ^= ctx.frob_p(z, j)
    if ctx.frob_p(g, 1) ^ g != ctx.mul(x, F(y)) ^ ctx.mul(y, F.adjoint()(x)):
        raise OracleMismatch(f"g({x:#x}, {y:#x}) = {g:#x} fails g^p + g = xF(y) + yF*(x)")
    return g


class PairingCtx:
    """ker F paired with ker F* by omega(u, u*) = g(u*, u)."""

    __slots__ = ("F", "W", "Wstar", "gram")

    def __init__(self, F: SkewPoly):
        self.F = F
        self.W = F.kernel()
        self.Wstar = F.adjoint().kernel()
        if self.W.dim_p != self.Wstar.dim_p:
            raise OracleMismatch(f"dim ker F {self.W.dim_p} != dim ker F* {self.Wstar.dim_p}")
        rows = [
            [self.omega(u, v, check=False) for v in self.Wstar.fp_basis()]
            for u in self.W.fp_basis()
        ]
        self.gram = tuple(tuple(r) for r in rows)
        if _fp_rank(F.ctx, rows) != self.W.dim_p:
            raise OracleMismatch("pairing is degenerate")

    @property
    def ctx(self) -> FieldCtx:
        return self.F.ctx

    @property
    def is_symplectic(self) -> bool:
        """Whether F = F*, making omega an alternating form on W."""
        return self.F == self.F.adjoint()

    def omega(self, u: Element, ustar: Element, check: bool = True) -> Element:
        """Pairing value in F_p."""
        if check:
            if not self.W.contains(u):
                raise NotInKernel(f"{u:#x} is not in ker F")
            if not self.Wstar.contains(ustar):
                raise NotInKernel(f"{ustar:#x} is not in ker F*")
        value = g_witness(self.F, ustar, u)
        if not self.ctx.in_subfield(value, self.ctx.p_log):
            raise OracleMismatch(f"omega({u:#x}, {ustar:#x}) = {value:#x} is not in F_p")
        return value

    def orthogonal_complement(self, X: Fp2Subspace) -> Fp2Subspace:
        """{u* in W* : omega(u, u*) = 0 for all u in X}."""
        if not X.is_subspace_of(self.W):
            raise NotSubspaceOfW("X is not a subspace of ker F")
        perp = self._solve_perp(X.basis, self.Wstar)
        if perp.dim_p != self.W.dim_p - X.dim_p:
            raise OracleMismatch(f"complement of dim {perp.dim_p} for dim X {X.dim_p}")
        return perp

    def _solve_perp(
        self, conditions: Sequence[Element], inside: Fp2Subspace
    ) -> Fp2Subspace:
        """Vectors of inside pairing to 0 with every condition vector."""
        ctx, wb = self.ctx, inside.basis
        images = [
            sum(self.omega(u, w, check=False) << (k * ctx.n) for k, u in enumerate(conditions))
            for w in wb
        ]
        vecs = kernel_basis(images, wb)
        return Fp2Subspace.from_vectors(ctx, vecs, inside.p_log)

    def radical(self, within: Fp2Subspace) -> Fp2Subspace:
        """Radical of the form restricted to a subspace of W (F = F*)."""
        if not self.is_symplectic:
            raise NotSymplectic("radical needs a self-adjoint F")
        if not within.is_subspace_of(self.W):
            raise NotSubspaceOfW("subspace does not sit inside ker F")
        return self._solve_perp(within.basis, within)


def factor_complement_check(E: SkewPoly, f: SkewPoly) -> Fp2Subspace:
    """Kernel of h* for the cofactor h with E = h*f.

    This equals the orthogonal complement of ker f under the pairing of
    E; the test suite asserts that equality.
    """
    h = E.right_divide(f)
    return h.adjoint().kernel()


def maximal_isotropic(
    pc: PairingCtx,
    phi: Callable[[Element], Element] | None = None,
    within: Fp2Subspace | None = None,
) -> Fp2Subspace:
    """A maximal totally isotropic subspace of ker F, deterministically.

    Optional constraints: phi, an F_p-linear form that must vanish on
    the result; within, a subspace of ker F to work inside (the form may
    be degenerate there, and the result then contains its radical).
    As omega and phi are F_p-linear, a vector v extends an isotropic U
    on which phi vanishes exactly when phi(v), omega(v, v) and omega(u, v)
    vanish for u in an F_p-basis of U; that is the one test applied.
    The search walks candidate vectors in increasing order with full
    backtracking, so the outcome is reproducible and exists whenever
    any constrained maximal isotropic subspace exists.
    """
    if not pc.is_symplectic:
        raise NotSymplectic("maximal isotropic subspaces need F = F*")
    space = pc.W if within is None else within
    if within is not None and not within.is_subspace_of(pc.W):
        raise NotSubspaceOfW("within is not a subspace of ker F")
    rad = pc.radical(space)
    if (space.dim_p - rad.dim_p) % 2:
        raise OracleMismatch(f"alternating form of odd rank {space.dim_p - rad.dim_p}")
    target = rad.dim_p + (space.dim_p - rad.dim_p) // 2

    def extends(basis: list[Element], v: Element) -> bool:
        if phi is not None and phi(v) != 0:
            return False
        return all(pc.omega(u, v, check=False) == 0 for u in basis + [v])

    start = list(rad.fp_basis())
    if not all(extends(start[:k], v) for k, v in enumerate(start)):
        raise NotIsotropic("constraints fail on the radical")
    elements = space.elements()

    def extend(basis: list[Element], floor: Element) -> Fp2Subspace | None:
        current = Fp2Subspace.from_vectors(pc.ctx, basis, space.p_log)
        if current.dim_p == target:
            return current
        for v in elements:
            if v > floor and not current.contains(v) and extends(basis, v):
                found = extend(basis + [v], v)
                if found is not None:
                    return found
        return None

    result = extend(start, 0)
    if result is None:
        raise NotIsotropic("no maximal isotropic subspace meets the constraints")
    return result


def _fp_rank(ctx: FieldCtx, rows: list[list[Element]]) -> int:
    """Rank of a matrix over F_p, the degree-p_log subfield: the F_2-span
    of the rows (entry k at bit k*n) times an F_2-basis of F_p is their
    F_p-span, of F_2-dimension p_log times the rank."""
    scalars = ctx.subfield_basis(ctx.p_log)
    packed = [
        sum(ctx.mul(c, a) << (k * ctx.n) for k, a in enumerate(row))
        for row in rows for c in scalars
    ]
    return len(rref_basis(packed)) // ctx.p_log


# ---------------------------------------------------------------------------
# Heisenberg group of a linearized polynomial with exponents 0..e


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

    @classmethod
    def identity(cls, R: SkewPoly) -> "HeisenbergElt":
        return cls(R, 0, 0)


def commutator(g1: HeisenbergElt, g2: HeisenbergElt) -> HeisenbergElt:
    return g1 * g2 * g1.inverse() * g2.inverse()
