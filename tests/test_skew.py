"""Skew polynomial tests: ring laws, adjoints, kernels, division."""

import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from aswcurves.errors import (
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
from aswcurves.gf2field import FieldCtx, Fp2Subspace, make_field, transport
from aswcurves.skew import SkewPoly, factor_through_symmetric, format_skew
from reference import right_divides

F2 = make_field(1)
F4 = make_field(2)
F16 = make_field(4)


def rand_poly(ctx, rng, lo=-3, hi=3, terms=4):
    coeffs = {rng.randrange(lo, hi + 1): rng.randrange(ctx.order) for _ in range(terms)}
    return SkewPoly(ctx, coeffs)


def test_twist_rule():
    for a in range(4):
        t = SkewPoly.tau(F4)
        assert t * SkewPoly.const(F4, a) == SkewPoly.const(F4, F4.sqr(a)) * t


def test_ring_laws_exhaustive_f4():
    polys = [SkewPoly(F4, {0: a, 1: b}) for a in range(4) for b in range(4)]
    for f in polys:
        for g in polys:
            assert f + g == g + f
            assert (f * g).adjoint() == g.adjoint() * f.adjoint()
            for h in polys:
                assert (f * g) * h == f * (g * h)
                assert f * (g + h) == f * g + f * h
                assert (f + g) * h == f * h + g * h


def test_ring_laws_laurent_fuzz():
    K = make_field(12)
    rng = random.Random(21)
    for _ in range(150):
        f, g, h = (rand_poly(K, rng) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f * g).adjoint() == g.adjoint() * f.adjoint()
        assert f.adjoint().adjoint() == f
        x = rng.randrange(K.order)
        assert (f * g)(x) == f(g(x))
        assert f(x ^ g(0)) == f(x)  # g(0) = 0: evaluation is additive from 0


def test_evaluation_is_p_linear():
    K = make_field(8, p_log=2)
    rng = random.Random(22)
    for _ in range(60):
        f = rand_poly(K, rng, lo=-2, hi=2)
        x, y = rng.randrange(K.order), rng.randrange(K.order)
        assert f(x ^ y) == f(x) ^ f(y)
        for lam in K.subfield_elements(2):
            assert f(K.mul(lam, x)) == K.mul(lam, f(x))


def test_adjoint_trace_pairing():
    # Tr(f(x)*y) = Tr(x*f_adj(y)) characterizes the adjoint
    for n, p_log in ((6, 1), (8, 2)):
        K = make_field(n, p_log=p_log)
        rng = random.Random(23)
        for _ in range(40):
            f = rand_poly(K, rng, lo=-2, hi=2)
            fa = f.adjoint()
            x, y = rng.randrange(K.order), rng.randrange(K.order)
            lhs = K.trace(K.mul(f(x), y), n, p_log)
            rhs = K.trace(K.mul(x, fa(y)), n, p_log)
            assert lhs == rhs


def test_normalize():
    rng = random.Random(24)
    K = make_field(12)
    for _ in range(80):
        f = rand_poly(K, rng)
        if not f:
            continue
        a, n, g = f.normalize()
        assert g[g.degree] == 1 and g.val == 0
        assert SkewPoly.const(K, a) * SkewPoly.tau(K, n) * g == f
    with pytest.raises(ZeroPolynomial):
        SkewPoly.zero(K).normalize()


def test_right_divide_reconstructs():
    rng = random.Random(25)
    K = make_field(12)
    for _ in range(120):
        h, g = rand_poly(K, rng), rand_poly(K, rng)
        if not g:
            continue
        f = h * g
        assert f.right_divide(g) == h or not h
    with pytest.raises(ZeroDivisor):
        (SkewPoly.one(K)).right_divide(SkewPoly.zero(K))


def test_zero_right_divided_is_zero():
    g = SkewPoly(F16, {2: 3, -1: 1})
    assert SkewPoly.zero(F16).right_divide(g) == SkewPoly.zero(F16)


def test_right_divide_failure():
    # t^2 + t + 1 over F_2 has kernel of size 4 not containing F_2
    f = SkewPoly(F2, {2: 1, 1: 1, 0: 1})
    g = SkewPoly(F2, {1: 1, 0: 1})  # kernel F_2
    with pytest.raises(NotDivisible):
        f.right_divide(g)


def test_kernel_and_from_subspace_roundtrip():
    rng = random.Random(26)
    for n, p_log in ((4, 1), (6, 1), (8, 2)):
        K = make_field(n, p_log=p_log)
        for _ in range(30):
            vecs = [rng.randrange(K.order) for _ in range(rng.randrange(3))]
            W = Fp2Subspace.from_vectors(K, vecs)
            f = SkewPoly.from_subspace(W)
            assert f[f.degree] == 1 and f.val == 0
            assert f.degree == W.dim_p
            assert all(f(v) == 0 for v in W.elements())
            assert f.kernel() == W


def test_divisibility_iff_kernel_containment():
    rng = random.Random(27)
    K = F16
    spaces = [Fp2Subspace.from_vectors(K, []), Fp2Subspace.from_vectors(K, list(range(1, 16)))]
    while len(spaces) < 14:
        W = Fp2Subspace.from_vectors(
            K, [rng.randrange(16) for _ in range(rng.randrange(1, 3))]
        )
        if W not in spaces:
            spaces.append(W)
    for W1 in spaces:
        f1 = SkewPoly.from_subspace(W1)
        for W2 in spaces:
            f2 = SkewPoly.from_subspace(W2)
            assert right_divides(f1, f2) == W1.is_subspace_of(W2)


def test_kernel_needs_big_enough_ambient():
    f = SkewPoly(F2, {2: 1, 1: 1, 0: 1})  # kernel generated by roots of x^3+x+1
    with pytest.raises(AmbientTooSmall):
        f.kernel()
    with pytest.raises(AmbientTooSmall):
        f.transport_to(F16, deg=F2.n).kernel()
    ker = f.transport_to(make_field(6), deg=F2.n).kernel()
    assert ker.dim_p == 2
    assert f.kernel_splitting_degree() == 3


def test_kernel_splitting_degree_anchors():
    assert SkewPoly(F2, {1: 1, 0: 1}).kernel_splitting_degree() == 1
    for d in (1, 2, 3, 5, 8):
        f = SkewPoly(F2, {d: 1, 0: 1})  # kernel F_{2^d}
        assert f.kernel_splitting_degree() == d
    K = make_field(2, p_log=2)
    assert SkewPoly(K, {1: 1, 0: 1}).kernel_splitting_degree() == 2
    # a Laurent shift never changes the kernel of the separable part
    f = SkewPoly(F4, {3: 2, -1: 3})
    g = SkewPoly.tau(F4, 2) * f
    assert f.kernel_splitting_degree() == g.kernel_splitting_degree()


def ring_recurrence_degree(f, cap):
    """Reference kernel splitting degree: the scan rem <- (t*rem) mod g
    in SkewPoly arithmetic, g the monic separable part in the 2-Frobenius
    ring."""
    _, _, g = f.rebase().normalize()
    if g.degree == 0:
        return 1
    ctx = g.ctx
    t, one = SkewPoly.tau(ctx), SkewPoly.one(ctx)
    rem = one
    for d in range(1, cap + 1):
        rem = t * rem
        while rem and rem.degree >= g.degree:  # g is monic
            rem = rem + SkewPoly(ctx, {rem.degree - g.degree: rem[rem.degree]}) * g
        if rem == one:
            return d
    raise CapExceeded(f"kernel splitting degree exceeds {cap}")


# F16 under two non-default moduli (p = 2 and p = 4) and F64 with p = 8
KSD_CONTEXTS = tuple(make_field(4, poly, p_log) for poly in (0x19, 0x1F) for p_log in (1, 2))
KSD_CONTEXTS += (make_field(6, None, 3),)


@st.composite
def laurent_polys(draw):
    """Non-monic Laurent polynomials with splitting degree below 64.

    Half are binomials a*t^m + b*t^(m+s), whose rebased remainder runs
    through up to s*p_log - 1 zero carries in a row: 2-Frobenius degree
    <= 7 over F16 (<= 4 over F64, where t^6 + c splits only in degree
    378).  The rest have 2-Frobenius degree <= 4 and each interior
    coefficient zero half the time.  Rebasing p = 4 or 8 leaves every
    tap off the multiples of p_log zero."""
    ctx = draw(st.sampled_from(KSD_CONTEXTS))
    binomial = draw(st.booleans())
    top = 7 if binomial and ctx.n == 4 else 4
    span = draw(st.integers(0, top // ctx.p_log))
    lo = draw(st.integers(-2, 2))
    unit = st.integers(1, ctx.order - 1)
    coeffs = {lo: draw(unit), lo + span: draw(unit)}
    for i in range(lo + 1, lo + span):
        coeffs[i] = 0 if binomial or draw(st.booleans()) else draw(unit)
    return SkewPoly(ctx, coeffs)


# the fixed inputs (n, p_log, coefficients) of the splitting-degree
# micro timing in bench/micro.py
KSD_FIXED = (
    (4, 2, (1, 2, 3)),
    (4, 2, (5, 0, 7)),
    (4, 2, (9, 4, 1)),
    (4, 1, (3, 1, 6)),
    (4, 1, (7, 11)),
    (8, 1, (0x53, 0xCA)),
    (8, 2, (0x1B, 0x02, 0x8D)),
)


def forbid_zero_products(monkeypatch):
    """Make every FieldCtx.mul with a zero operand fail the test."""
    mul = FieldCtx.mul

    def nonzero_mul(self, a, b):
        if not a or not b:
            pytest.fail(f"product with a zero factor: {a:#x} * {b:#x}")
        return mul(self, a, b)

    monkeypatch.setattr(FieldCtx, "mul", nonzero_mul)


@seed(20261018)
@settings(max_examples=120, deadline=None, database=None)
@given(laurent_polys())
# over F16:p=4 both rebase to 2-Frobenius degree 6, five zero carries in a row
@example(SkewPoly(KSD_CONTEXTS[3], {3: 1, 0: 1}))
@example(SkewPoly(KSD_CONTEXTS[1], {1: 5, -2: 1}))
def test_kernel_splitting_degree_against_reference_and_definition(f):
    with pytest.MonkeyPatch.context() as mp:
        forbid_zero_products(mp)
        D = f.kernel_splitting_degree()
        assert f.kernel_splitting_degree(cap=D) == D
        with pytest.raises(CapExceeded):
            f.kernel_splitting_degree(cap=D - 1)
    assert D == ring_recurrence_degree(f, 4096)
    # the definition: g right-divides t^D + 1 and no t^d + 1 with d < D
    _, _, g = f.rebase().normalize()
    ctx = g.ctx
    assert right_divides(g, SkewPoly(ctx, {D: 1, 0: 1}))
    assert not any(right_divides(g, SkewPoly(ctx, {d: 1, 0: 1})) for d in range(1, D))


@pytest.mark.parametrize("n, p_log, coeffs", KSD_FIXED)
def test_kernel_splitting_degree_of_fixed_inputs_never_multiplies_by_zero(
    monkeypatch, n, p_log, coeffs
):
    f = SkewPoly.from_coeffs(make_field(n, None, p_log), coeffs)
    D = ring_recurrence_degree(f, 4096)
    forbid_zero_products(monkeypatch)
    assert f.kernel_splitting_degree() == D


@pytest.mark.parametrize("coeffs", [{3: 1}, {1: 1, 0: 1}], ids=["t^3", "t+1"])
def test_kernel_splitting_degree_cap_below_one_raises(coeffs):
    # both have D = 1: the monomial's separable part has degree 0
    f = SkewPoly(F4, coeffs)
    assert f.kernel_splitting_degree(cap=1) == 1
    with pytest.raises(CapExceeded):
        f.kernel_splitting_degree(cap=0)


@pytest.mark.parametrize("ctx", [make_field(4, 0x19), make_field(4, 0x1F)], ids=["F16:0x19", "F16:0x1f"])
def test_kernel_splitting_degree_of_linear_separable_part(ctx):
    # a*t^(m+1) + b*t^m normalizes to g = t + g_0 over F_2 (k = 1), whose
    # kernel {0, g_0} lies in F_{2^d} exactly when g_0 does
    for a in range(1, 16):
        for b in range(1, 16):
            for m in (-1, 0, 2):
                f = SkewPoly(ctx, {m + 1: a, m: b})
                g0 = f.normalize()[2][0]
                D = min(d for d in (1, 2, 4) if ctx.in_subfield(g0, d))
                assert f.kernel_splitting_degree() == D
                with pytest.raises(CapExceeded):
                    f.kernel_splitting_degree(cap=D - 1)


def test_result_checks_raise_with_asserts_stripped(monkeypatch):
    # a dependent F_p-basis reaches the kernel check of from_subspace
    W = Fp2Subspace.from_vectors(F16, [3])
    monkeypatch.setattr(Fp2Subspace, "fp_basis", lambda self: (3, 3))
    with pytest.raises(OracleMismatch):
        SkewPoly.from_subspace(W)
    monkeypatch.undo()
    # a wrong square root reaches the F*F == E check of the factorization
    K = make_field(4, p_log=2)
    W = Fp2Subspace.from_vectors(K, [1])
    F = SkewPoly.const(K, 2) * SkewPoly.from_subspace(W)
    E = F.adjoint() * F
    assert factor_through_symmetric(E, W) == F
    monkeypatch.setattr(FieldCtx, "sqrt", lambda self, a: a)
    with pytest.raises(OracleMismatch):
        factor_through_symmetric(E, W)


def test_adjoint_anchor_tau_plus_one():
    F = SkewPoly(F4, {1: 1, 0: 1})
    ker_adj = F.adjoint().kernel()
    assert ker_adj.elements() == [0, 1]


def test_factor_through_symmetric():
    rng = random.Random(28)
    for n, p_log in ((6, 1), (8, 2)):
        K = make_field(n, p_log=p_log)
        for _ in range(25):
            W = Fp2Subspace.from_vectors(
                K, [rng.randrange(K.order) for _ in range(rng.randrange(1, 3))]
            )
            c = rng.randrange(1, K.order)
            F = SkewPoly.const(K, c) * SkewPoly.from_subspace(W)
            E = F.adjoint() * F
            assert factor_through_symmetric(E, W) == F
    with pytest.raises(NotSelfAdjoint):
        factor_through_symmetric(SkewPoly.tau(F4), Fp2Subspace.from_vectors(F4, []))
    W1 = Fp2Subspace.from_vectors(F4, [1])
    E = SkewPoly.from_subspace(W1).adjoint() * SkewPoly.from_subspace(W1)
    with pytest.raises(DegreeMismatch):
        factor_through_symmetric(E, Fp2Subspace.from_vectors(F4, []))
    # over F_16 the kernel of t + t^-1 is the degree-2 subfield, so a
    # line through a generator of F_16 cannot carry the factorization
    E16 = SkewPoly(F16, {1: 1, -1: 1})
    assert not F16.in_subfield(2, 2)
    with pytest.raises(NotDivisible):
        factor_through_symmetric(E16, Fp2Subspace.from_vectors(F16, [2]))


def test_transport_commutes_with_evaluation():
    rng = random.Random(29)
    K, L = F4, make_field(8)
    for _ in range(40):
        f = rand_poly(K, rng, lo=-2, hi=2, terms=3)
        g = f.transport_to(L, deg=K.n)
        x = rng.randrange(4)
        assert transport(K, f(x), L, K.n) == g(transport(K, x, L, K.n))


def test_transport_into_a_field_without_the_source_field():
    # coefficients in F_16 move from a 2^8 context into a 2^12 one,
    # which holds F_16 but not F_256
    K, L = make_field(8), make_field(12)
    rng = random.Random(31)
    sub = [a for a in K.subfield_elements(4) if a]
    f = SkewPoly(K, {i: rng.choice(sub) for i in range(-1, 3)})
    g = f.transport_to(L, deg=4)
    assert g.coeffs == {i: transport(K, a, L, 4) for i, a in f.coeffs.items()}
    for x in K.subfield_elements(4):
        assert transport(K, f(x), L, 4) == g(transport(K, x, L, 4))
    outside = next(a for a in range(K.order) if not K.in_subfield(a, 4))
    with pytest.raises(DegreeMismatch):
        SkewPoly(K, {0: 1, 1: outside}).transport_to(L, deg=4)
    with pytest.raises(CtxMismatch):
        f.transport_to(make_field(12, None, 2), deg=4)


def test_rebase_preserves_evaluation():
    K = make_field(8, p_log=2)
    rng = random.Random(30)
    for _ in range(40):
        f = rand_poly(K, rng, lo=-2, hi=2)
        g = f.rebase()
        x = rng.randrange(K.order)
        assert f(x) == g(x)


def test_text_form():
    f = SkewPoly(F16, {2: 0xB, 0: 1, -1: 7})
    assert format_skew(f) == "0xb*t^2 + 0x1*t^0 + 0x7*t^-1"
    assert format_skew(SkewPoly.zero(F4)) == "0"


def test_ctx_mismatch():
    with pytest.raises(CtxMismatch):
        SkewPoly.one(F4) + SkewPoly.one(F16)
    with pytest.raises(CtxMismatch):
        SkewPoly.one(F4) * SkewPoly.one(F16)
