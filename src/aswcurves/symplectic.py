"""The alternating form on the kernel of a self-adjoint skew polynomial.

For F in the twisted ring, the function xF(y) + yF*(x) has a unique
bi-additive Artin-Schreier witness g with g(0,0) = 0, meaning
g^p + g = xF(y) + yF*(x).  For a self-adjoint E, such as E = R + R*,
the value omega(u, v) := g(v, u) on W = ker E lands in F_p, and omega
is a nondegenerate alternating form, so W is a symplectic F_p-space.
A Lagrangian of it is the kernel of a factor F in E = F*F (van der
Geer-van der Vlugt, Compositio Math. 84, 1992).  This module computes
g, the form, orthogonal complements, radicals and maximal isotropic
subspaces (grown one vector at a time, on which a given F_p-linear
form vanishes).

Everything is exact; pairing values are elements of the degree-p_log
subfield of the working context.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import NotIsotropic, NotSelfAdjoint, NotSubspaceOfW, OracleMismatch
from .gf2field import Element, FieldCtx, Fp2Subspace, kernel_basis, rref_basis
from .skew import SkewPoly, format_skew


def g_witness(F: SkewPoly, x: Element, y: Element, Fstar: SkewPoly) -> Element:
    """The unique bi-additive g with g^p + g = xF(y) + yF*(x), g(0,0) = 0.

    Built one exponent at a time: the term with coefficient b at t^i
    contributes the partial Artin-Schreier sum of z = y*(b*x)^(p^-i).
    Fstar is F.adjoint(), built once by the caller.
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
    if ctx.frob_p(g, 1) ^ g != ctx.mul(x, F(y)) ^ ctx.mul(y, Fstar(x)):
        raise OracleMismatch(f"g({x:#x}, {y:#x}) = {g:#x} fails g^p + g = xF(y) + yF*(x)")
    return g


class PairingCtx:
    """The alternating form omega(u, v) = g(v, u) on W = ker F, F = F*."""

    __slots__ = ("F", "W")

    def __init__(self, F: SkewPoly):
        if F != F.adjoint():
            raise NotSelfAdjoint(f"{format_skew(F)} is not self-adjoint")
        self.F = F
        self.W = F.kernel()
        basis = self.W.fp_basis()
        rows = [[self.omega(u, v) for v in basis] for u in basis]
        if _fp_rank(F.ctx, rows) != self.W.dim_p:
            raise OracleMismatch("pairing is degenerate")

    @property
    def ctx(self) -> FieldCtx:
        return self.F.ctx

    def omega(self, u: Element, v: Element) -> Element:
        """Pairing value in F_p."""
        value = g_witness(self.F, v, u, self.F)
        if not self.ctx.in_subfield(value, self.ctx.p_log):
            raise OracleMismatch(f"omega({u:#x}, {v:#x}) = {value:#x} is not in F_p")
        return value

    def orthogonal_complement(self, X: Fp2Subspace) -> Fp2Subspace:
        """{v in W : omega(u, v) = 0 for all u in X}."""
        if not X.is_subspace_of(self.W):
            raise NotSubspaceOfW("X is not a subspace of ker F")
        perp = self._solve_perp(X.basis, self.W)
        if perp.dim_p != self.W.dim_p - X.dim_p:
            raise OracleMismatch(f"complement of dim {perp.dim_p} for dim X {X.dim_p}")
        return perp

    def _solve_perp(
        self, conditions: Sequence[Element], inside: Fp2Subspace
    ) -> Fp2Subspace:
        """Vectors of inside pairing to 0 with every condition vector."""
        ctx, wb = self.ctx, inside.basis
        images = [
            sum(self.omega(u, w) << (k * ctx.n) for k, u in enumerate(conditions))
            for w in wb
        ]
        vecs = kernel_basis(images, wb)
        return Fp2Subspace.from_vectors(ctx, vecs)

    def radical(self, within: Fp2Subspace) -> Fp2Subspace:
        """Radical of the form restricted to a subspace of W."""
        if not within.is_subspace_of(self.W):
            raise NotSubspaceOfW("subspace does not sit inside ker F")
        return self._solve_perp(within.basis, within)


def maximal_isotropic(
    pc: PairingCtx,
    phi: Callable[[Element], Element],
    within: Fp2Subspace | None = None,
) -> Fp2Subspace:
    """A maximal totally isotropic subspace of ker F on which the
    F_p-linear form phi vanishes, deterministically.

    within, if given, is a subspace of ker F to work inside (the form
    may be degenerate there, and the result then contains its radical;
    NotSubspaceOfW if it is not inside ker F).
    As omega and phi are F_p-linear, a vector v extends an isotropic U
    on which phi vanishes exactly when phi(v), omega(v, v) and omega(u, v)
    vanish for u in an F_p-basis of U; that is the one test applied.

    One ascending pass from the radical adds every vector that passes
    the test and is not yet spanned, and it never ends short.  A phi
    that vanishes on the radical is omega(v0, .) on the nondegenerate
    quotient by it, for some v0.  An isotropic U inside ker phi that
    contains the radical is orthogonal to v0, and omega(v0, v0) = 0, so
    by Witt's extension theorem for alternating forms (E. Artin,
    Geometric Algebra, 1957) U + <v0> lies in a maximal isotropic L,
    which is orthogonal to v0 and so inside ker phi.  Below the target
    dimension, then, some vector of L extends U.  A vector rejected once
    stays rejected: phi(v) != 0, omega(u, v) != 0 for a chosen u, and v
    in the span all persist as vectors are added.  So that extension
    lies ahead in the scan, and the pass returns the least choice a
    backtracking search would find first.
    """
    space = pc.W if within is None else within
    rad = pc.radical(space)
    if (space.dim_p - rad.dim_p) % 2:
        raise OracleMismatch(f"alternating form of odd rank {space.dim_p - rad.dim_p}")
    target = rad.dim_p + (space.dim_p - rad.dim_p) // 2

    def extends(basis: list[Element], v: Element) -> bool:
        return phi(v) == 0 and all(pc.omega(u, v) == 0 for u in basis + [v])

    basis = list(rad.fp_basis())
    if not all(extends(basis[:k], v) for k, v in enumerate(basis)):
        raise NotIsotropic("constraints fail on the radical")
    current = Fp2Subspace.from_vectors(pc.ctx, basis)
    for v in space.elements():
        if current.dim_p == target:
            break
        if not current.contains(v) and extends(basis, v):
            basis.append(v)
            current = Fp2Subspace.from_vectors(pc.ctx, basis)
    if current.dim_p != target:
        raise OracleMismatch(f"isotropic pass ended at dim {current.dim_p} < {target}")
    return current


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
