"""The pairing between the kernels of a skew polynomial and its adjoint.

For F in the twisted ring, the function xF(y) + yF*(x) has a unique
bi-additive Artin-Schreier witness g with g(0,0) = 0, meaning
g^p + g = xF(y) + yF*(x).  Restricted to u in ker F and u* in ker F*,
the value omega(u, u*) := g(u*, u) lands in F_p and the resulting
pairing is nondegenerate; when F is self-adjoint it is alternating, so
ker F becomes a symplectic F_p-space.  This module computes g, the
pairing, orthogonal complements and maximal isotropic subspaces (grown
one vector at a time, on which an optional F_p-linear form vanishes).

Everything is exact; pairing values are elements of the degree-p_log
subfield of the working context.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import (
    NotInKernel,
    NotIsotropic,
    NotSubspaceOfW,
    NotSymplectic,
    OracleMismatch,
)
from .gf2field import Element, FieldCtx, Fp2Subspace, kernel_basis, rref_basis
from .skew import SkewPoly


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
    """ker F paired with ker F* by omega(u, u*) = g(u*, u)."""

    __slots__ = ("F", "Fstar", "W", "Wstar", "gram", "is_symplectic")

    def __init__(self, F: SkewPoly):
        self.F = F
        self.Fstar = F.adjoint()
        # F = F* makes omega an alternating form on W, and W* = W
        self.is_symplectic = F == self.Fstar
        self.W = F.kernel()
        self.Wstar = self.W if self.is_symplectic else self.Fstar.kernel()
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

    def omega(self, u: Element, ustar: Element, check: bool = True) -> Element:
        """Pairing value in F_p."""
        if check:
            if not self.W.contains(u):
                raise NotInKernel(f"{u:#x} is not in ker F")
            if not self.Wstar.contains(ustar):
                raise NotInKernel(f"{ustar:#x} is not in ker F*")
        value = g_witness(self.F, ustar, u, self.Fstar)
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
        return Fp2Subspace.from_vectors(ctx, vecs)

    def radical(self, within: Fp2Subspace) -> Fp2Subspace:
        """Radical of the form restricted to a subspace of W (F = F*)."""
        if not self.is_symplectic:
            raise NotSymplectic("radical needs a self-adjoint F")
        if not within.is_subspace_of(self.W):
            raise NotSubspaceOfW("subspace does not sit inside ker F")
        return self._solve_perp(within.basis, within)


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
