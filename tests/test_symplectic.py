"""Pairing, isotropic-subspace and group-law tests."""

import hashlib
import json
import random
from math import lcm

import pytest

from aswcurves.errors import (
    CapExceeded,
    Char2Error,
    CtxMismatch,
    NotSelfAdjoint,
    NotSubspaceOfW,
    OracleMismatch,
)
from aswcurves.gf2field import Fp2Subspace, make_field
from aswcurves.skew import SkewPoly
from aswcurves.symplectic import PairingCtx, _fp_rank, g_witness, maximal_isotropic
from reference import (
    HeisenbergElt,
    NotOnCurve,
    commutator,
    f_r_eval,
    factor_complement_check,
    heisenberg_ambient,
    omega_r_eval,
)

F4 = make_field(2)
F16 = make_field(4)
E4 = SkewPoly(F4, {1: 1, -1: 1})


def rand_poly(ctx, rng, lo=-2, hi=2, terms=3):
    return SkewPoly(
        ctx, {rng.randrange(lo, hi + 1): rng.randrange(ctx.order) for _ in range(terms)}
    )


def test_g_witness_identity_and_biadditivity():
    rng = random.Random(31)
    for n, p_log in ((4, 1), (12, 1), (8, 2)):
        K = make_field(n, p_log=p_log)
        for _ in range(40):
            F = rand_poly(K, rng)
            x, y, z = (rng.randrange(K.order) for _ in range(3))
            Fstar = F.adjoint()
            g = g_witness(F, x, y, Fstar)  # defining identity asserted inside
            assert g_witness(F, 0, y, Fstar) == 0 and g_witness(F, x, 0, Fstar) == 0
            assert g_witness(F, x ^ z, y, Fstar) == g ^ g_witness(F, z, y, Fstar)
            assert g_witness(F, x, y ^ z, Fstar) == g ^ g_witness(F, x, z, Fstar)


def test_pairing_builds_the_adjoint_once(monkeypatch):
    """omega passes the adjoint PairingCtx holds: one adjoint for the
    context, its Gram matrix and a maximal isotropic search, with the
    same values as g_witness given a fresh adjoint."""
    built = []
    adjoint = SkewPoly.adjoint
    monkeypatch.setattr(SkewPoly, "adjoint", lambda self: built.append(self) or adjoint(self))
    F256 = make_field(8)
    pc = PairingCtx(SkewPoly(F256, {1: 1, -1: 1}))
    lagrangian = maximal_isotropic(pc, phi=lambda u: 0)
    assert len(built) == 1 and lagrangian.dim_p == pc.W.dim_p // 2
    monkeypatch.undo()
    W = pc.W.elements()
    Fstar = pc.F.adjoint()
    assert [pc.omega(u, v) for u in W for v in W] == [g_witness(pc.F, v, u, Fstar) for u in W for v in W]


def test_g_symmetric_for_self_adjoint():
    rng = random.Random(32)
    K = make_field(12)
    for _ in range(40):
        F = rand_poly(K, rng)
        E = F + F.adjoint()
        x, y = rng.randrange(K.order), rng.randrange(K.order)
        Estar = E.adjoint()
        assert g_witness(E, x, y, Estar) == g_witness(E, y, x, Estar)


def test_pairing_anchor_f4():
    pc = PairingCtx(E4)
    assert pc.W.elements() == [0, 1, 2, 3]
    for u in range(4):
        for v in range(4):
            expected = 1 if (u != v and u and v) else 0
            assert pc.omega(u, v) == expected


def test_pairing_refuses_a_non_self_adjoint_polynomial(monkeypatch):
    built = []
    monkeypatch.setattr(SkewPoly, "kernel", lambda self, *args: built.append(self))
    for K in (F4, make_field(4, p_log=2)):  # p = 2 and p = 4
        F = SkewPoly(K, {1: 1, 0: 1})  # t + 1, whose adjoint is t^-1 + 1
        with pytest.raises(NotSelfAdjoint):
            PairingCtx(F)
    assert built == []  # refused before any kernel is built
    monkeypatch.undo()
    # a self-adjoint E transported into a wider ambient still pairs
    pc = PairingCtx(E4.transport_to(F16, deg=F4.n))
    assert pc.W.elements() == sorted(F16.subfield_elements(2))
    for u in pc.W.elements():
        for v in pc.W.elements():
            assert pc.omega(u, v) == (1 if u != v and u and v else 0)


def test_self_adjoint_pairing_builds_one_kernel(monkeypatch):
    built = []
    kernel = SkewPoly.kernel

    def counted(self, *args):
        built.append(self)
        return kernel(self, *args)

    monkeypatch.setattr(SkewPoly, "kernel", counted)
    E = SkewPoly(F16, {1: 1, -1: 1})
    pc = PairingCtx(E)
    assert built == [E]
    assert pc.W == E.adjoint().kernel()


def test_omega_galois_equivariance():
    # coefficients in the prime field: Frobenius preserves the pairing
    E = SkewPoly(F16, {2: 1, -2: 1})
    pc = PairingCtx(E)
    for u in pc.W.elements():
        for v in pc.W.elements():
            assert pc.omega(F16.sqr(u), F16.sqr(v)) == pc.omega(u, v)
    K = make_field(8, p_log=2)
    pc2 = PairingCtx(SkewPoly(K, {1: 1, -1: 1}))
    for u in pc2.W.elements():
        for v in pc2.W.elements():
            assert pc2.omega(K.frob_p(u, 1), K.frob_p(v, 1)) == pc2.omega(u, v)


def test_orthogonal_complement():
    pc = PairingCtx(E4)
    zero = Fp2Subspace.from_vectors(F4, [])
    assert pc.orthogonal_complement(zero) == pc.W
    assert pc.orthogonal_complement(pc.W) == zero
    line = Fp2Subspace.from_vectors(F4, [1])
    assert pc.orthogonal_complement(line).elements() == [0, 1]
    with pytest.raises(NotSubspaceOfW):
        PairingCtx(E4.transport_to(F16, deg=F4.n)).orthogonal_complement(
            Fp2Subspace.from_vectors(F16, [2])  # 2 generates F_16, not in ker
        )


def test_orthogonal_complement_dimension_random():
    rng = random.Random(33)
    E = SkewPoly(F16, {2: 1, -2: 1})
    pc = PairingCtx(E)
    for _ in range(20):
        X = Fp2Subspace.from_vectors(
            F16, [rng.choice(pc.W.elements()) for _ in range(rng.randrange(3))]
        )
        perp = pc.orthogonal_complement(X)
        assert perp.dim_p == pc.W.dim_p - X.dim_p
        assert all(pc.omega(u, v) == 0 for u in X.elements() for v in perp.elements())


@pytest.mark.parametrize("n, p_log", [(4, 1), (4, 2), (6, 3), (8, 2)])
def test_fp_rank_counts_the_row_span(n, p_log):
    # p^rank is the number of F_p-combinations of the rows
    K = make_field(n, p_log=p_log)
    fp = K.subfield_elements(p_log)
    rng = random.Random(n + p_log)
    for _ in range(25):
        nrows, ncols = rng.randrange(4), rng.randrange(1, 4)
        rows = [[rng.choice(fp) for _ in range(ncols)] for _ in range(nrows)]
        if rows and rng.random() < 0.5:  # a dependent row
            c = rng.choice(fp)
            rows.append([K.mul(c, a) ^ b for a, b in zip(rows[0], rows[-1])])
        span = {(0,) * ncols}
        for row in rows:
            span = {
                tuple(x ^ K.mul(c, a) for x, a in zip(v, row)) for v in span for c in fp
            }
        assert len(fp) ** _fp_rank(K, rows) == len(span)


def test_result_checks_raise_with_asserts_stripped(monkeypatch):
    big = SkewPoly(F16, {2: 1, -2: 1})  # self-adjoint, kernel all of F_16
    pc = PairingCtx(big)
    line = Fp2Subspace.from_vectors(F16, [1])
    # a pairing value outside F_p
    monkeypatch.setattr("aswcurves.symplectic.g_witness", lambda F, x, y, Fstar=None: 2)
    with pytest.raises(OracleMismatch):
        pc.omega(1, 1)
    # a zero pairing: degenerate Gram matrix, complements too large
    monkeypatch.setattr("aswcurves.symplectic.g_witness", lambda F, x, y, Fstar=None: 0)
    with pytest.raises(OracleMismatch):
        PairingCtx(big)
    with pytest.raises(OracleMismatch):
        pc.orthogonal_complement(line)
    monkeypatch.undo()
    # a radical of the wrong parity leaves an odd rank
    monkeypatch.setattr(PairingCtx, "radical", lambda self, within: line)
    with pytest.raises(OracleMismatch):
        maximal_isotropic(pc, phi=lambda u: 0)
    monkeypatch.undo()
    # a wrong adjoint breaks g's identity
    F = SkewPoly(F4, {1: 1, 0: 1})
    monkeypatch.setattr(SkewPoly, "adjoint", lambda self: SkewPoly.one(self.ctx))
    with pytest.raises(OracleMismatch):
        g_witness(F, 1, 2, F.adjoint())


def test_isotropic_pass_ending_short_is_a_mismatch(monkeypatch):
    # Witt's theorem rules out a pass that ends below half rank; force one
    # with a form that is nonzero on the diagonal: the radical is zero and
    # the rank even, but no vector is isotropic
    pc = PairingCtx(E4)
    monkeypatch.setattr(
        PairingCtx, "omega", lambda self, u, v: int(u == v != 0)
    )
    assert pc.radical(pc.W).dim_p == 0
    with pytest.raises(OracleMismatch, match="ended at dim 0 < 1"):
        maximal_isotropic(pc, phi=lambda u: 0)


def test_factor_complement_check():
    pc = PairingCtx(E4)
    f = SkewPoly(F4, {1: 1, 0: 1})
    got = factor_complement_check(E4, f)
    assert got == pc.orthogonal_complement(f.kernel())
    assert factor_complement_check(E4, SkewPoly.one(F4)) == pc.W
    full = SkewPoly.from_subspace(pc.W)
    assert factor_complement_check(E4, full).elements() == [0]


def test_factor_complement_random():
    rng = random.Random(34)
    E = SkewPoly(F16, {2: 1, -2: 1})
    pc = PairingCtx(E)
    for _ in range(15):
        X = Fp2Subspace.from_vectors(
            F16, [rng.choice(pc.W.elements()) for _ in range(rng.randrange(1, 3))]
        )
        f = SkewPoly.from_subspace(X)
        assert factor_complement_check(E, f) == pc.orthogonal_complement(X)


def test_maximal_isotropic_unconstrained():
    pc = PairingCtx(E4)
    got = maximal_isotropic(pc, phi=lambda u: 0)
    assert got.elements() == [0, 1]  # least deterministic choice
    big = PairingCtx(SkewPoly(F16, {2: 1, -2: 1}))
    W = maximal_isotropic(big, phi=lambda u: 0)
    assert W.dim_p == 2
    assert all(big.omega(u, v) == 0 for u in W.elements() for v in W.elements())
    assert maximal_isotropic(big, phi=lambda u: 0) == W  # deterministic


def test_maximal_isotropic_with_phi():
    pc = PairingCtx(E4)
    phi = lambda u: pc.omega(1, u)
    assert maximal_isotropic(pc, phi=phi).elements() == [0, 1]
    big = PairingCtx(SkewPoly(F16, {2: 1, -2: 1}))
    phi2 = lambda u: big.omega(6, u)
    W = maximal_isotropic(big, phi=phi2)
    assert W.dim_p == 2
    assert all(phi2(u) == 0 for u in W.elements())
    assert all(big.omega(u, v) == 0 for u in W.elements() for v in W.elements())


def test_maximal_isotropic_within_degenerate():
    big = PairingCtx(SkewPoly(F16, {2: 1, -2: 1}))
    sub = Fp2Subspace.from_vectors(F16, [1, 6])  # contains the F_4 part
    rad = big.radical(sub)
    W = maximal_isotropic(big, phi=lambda u: 0, within=sub)
    assert rad.is_subspace_of(W)
    assert all(big.omega(u, v) == 0 for u in W.elements() for v in W.elements())


def test_kernel_subfield_dimensions_match():
    # for any field k containing the coefficients of F, the k-rational
    # parts of ker F and ker F* have the same size
    rng = random.Random(35)
    checked = 0
    while checked < 15:
        K = make_field(rng.choice((1, 2, 3)))
        F = rand_poly(K, rng)
        if not F or F.span == 0:
            continue
        amb_deg = lcm(F.kernel_splitting_degree(), F.adjoint().kernel_splitting_degree(), K.n)
        if amb_deg > 24:
            continue
        amb = make_field(amb_deg)
        W = F.transport_to(amb, deg=K.n).kernel()
        Wstar = F.adjoint().transport_to(amb, deg=K.n).kernel()
        for d in range(K.n, amb_deg + 1, K.n):
            if amb_deg % d:
                continue
            assert (
                W.intersect_subfield(d).dim_p == Wstar.intersect_subfield(d).dim_p
            )
        checked += 1


# -- Heisenberg group -------------------------------------------------------


def _group_elements(R):
    ctx = R.ctx
    out = []
    for a in range(ctx.order):
        for b in range(ctx.order):
            try:
                out.append(HeisenbergElt(R, a, b))
            except NotOnCurve:
                continue
    return out


def test_heisenberg_group_f4():
    R = SkewPoly.tau(F4)
    els = _group_elements(R)
    assert len(els) == 8  # |V_R| * p with V_R = F_4
    e = HeisenbergElt(R, 0, 0)
    for g1 in els:
        assert g1 * e == g1 and e * g1 == g1
        assert g1 * g1.inverse() == e
        for g2 in els:
            c = commutator(g1, g2)
            assert c.a == 0 and c.b == omega_r_eval(R, g1.a, g2.a)
            for g3 in els:
                assert (g1 * g2) * g3 == g1 * (g2 * g3)


def test_heisenberg_center():
    R = SkewPoly.tau(F4)
    els = _group_elements(R)
    central = [g for g in els if all(g * h == h * g for h in els)]
    assert sorted((g.a, g.b) for g in central) == [(0, 0), (0, 1)]


def test_heisenberg_membership_errors():
    R = SkewPoly.tau(F4)
    with pytest.raises(NotOnCurve):
        HeisenbergElt(R, 1, 0)  # b^p + b = 0 but a*R(a) = 1
    R16 = R.transport_to(F16, deg=F4.n)
    assert heisenberg_ambient(R16)(2) != 0
    with pytest.raises(NotOnCurve):
        HeisenbergElt(R16, 2, 0)
    with pytest.raises(CtxMismatch):
        HeisenbergElt(R, 0, 0) * HeisenbergElt(R16, 0, 0)


def test_cocycle_identity_on_kernel():
    rng = random.Random(36)
    for R in (SkewPoly.tau(F4), SkewPoly(F16, {2: 1}), SkewPoly(F4, {1: 2, 0: 1})):
        ctx = R.ctx
        E_R = heisenberg_ambient(R)
        try:
            V = E_R.kernel()
        except Exception:
            continue
        for a in V.elements():
            for c in V.elements():
                f = f_r_eval(R, a, c)
                assert ctx.frob_p(f, 1) ^ f == ctx.mul(a, R(c)) ^ ctx.mul(c, R(a))


def test_omega_r_polynomial_identity():
    rng = random.Random(37)
    for n, p_log in ((4, 1), (12, 1), (8, 2)):
        K = make_field(n, p_log=p_log)
        for _ in range(30):
            e = rng.randrange(1, 4)
            R = SkewPoly(K, {i: rng.randrange(K.order) for i in range(e)} | {e: rng.randrange(1, K.order)})
            E_R = heisenberg_ambient(R)
            x, y = rng.randrange(K.order), rng.randrange(K.order)
            w = omega_r_eval(R, x, y)
            lhs = K.frob_p(w, 1) ^ w
            rhs = K.mul(K.frob_p(y, e), E_R(x)) ^ K.mul(K.frob_p(x, e), E_R(y))
            assert lhs == rhs


def test_omega_r_is_power_of_omega():
    cases = [
        (SkewPoly.tau(F4), None),
        (SkewPoly(F16, {2: 1}), None),
        (SkewPoly(F4, {1: 2}), make_field(6)),
    ]
    for R, ambient in cases:
        E = R + R.adjoint()
        pc = PairingCtx(E if ambient is None else E.transport_to(ambient, deg=E.ctx.n))
        Ramb = R if ambient is None else R.transport_to(ambient, deg=R.ctx.n)
        e = R.degree
        for u in pc.W.elements():
            for v in pc.W.elements():
                assert omega_r_eval(Ramb, u, v) == pc.ctx.frob_p(pc.omega(u, v), e)


# -- maximal isotropic subspaces on one fixed-seed draw, pinned by sha256 ---

LAGRANGIAN_GRID_SHA256 = "b92fcde68e8ab898681e22496ea825c1701efb213c444c4ac37f655636817810"


def self_adjoint_draws(rng, count):
    """`count` pairings of random E = R + R*, p from 2 to 16, with at most
    256 kernel elements, each in E's splitting field of at most 16 bits."""
    drawn = 0
    while drawn < count:
        p_log = rng.randint(1, 4)
        K = make_field(p_log * rng.randint(1, 2), None, p_log)
        e = rng.randint(1, 3 if p_log == 1 else 1)
        R = SkewPoly(K, {i: rng.randrange(K.order) for i in range(e + 1)})
        E = R + R.adjoint()
        if not E or (1 << (p_log * E.span)) > 256:
            continue
        try:
            n = lcm(E.kernel_splitting_degree(16), K.n)
        except CapExceeded:
            continue
        if n > 16:
            continue
        drawn += 1
        yield PairingCtx(E.transport_to(make_field(n, None, p_log), deg=K.n))


def lagrangian_grid():
    """maximal_isotropic, or its error, for phi in {0, omega(c, .)} and
    within in {None, a random subspace} on each drawn pairing."""
    rng = random.Random(12)
    rows = []
    for pc in self_adjoint_draws(rng, 520):
        W = pc.W.elements()
        c = rng.choice(W)
        sub = Fp2Subspace.from_vectors(pc.ctx, rng.sample(W, 2))
        for phi in (lambda u: 0, lambda u: pc.omega(c, u)):
            for within in (None, sub):
                try:
                    out = list(maximal_isotropic(pc, phi=phi, within=within).basis)
                except Char2Error as exc:
                    out = type(exc).__name__
                rows.append([pc.ctx.n, pc.ctx.p_log, c, list(sub.basis), out])
    return rows


def test_lagrangian_grid_is_pinned():
    rows = lagrangian_grid()
    assert len(rows) == 4 * 520
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == LAGRANGIAN_GRID_SHA256
