"""Acceptance suite: ten end-to-end gates, one test (and one report line) each.

Every gate confronts a closed-form route with an independent brute-force
oracle computed inside the test itself; frozen totals pin the size of
each enumerated universe so a silent scope regression cannot pass.

  01  nine-point anchor curve and its squared eigenvalue factor
  02  eigenvalue counts equal brute counts on the full small universe
  03  full-field character sums against the closed form
  04  twist partitions: eigenvalue route against exhaustive counting
  05  presentation flags mutually equal, witnesses rebuild their curve
  06  period/parity table and the excluded pairs
  07  quadratic-extension maximality: trace test against brute counts
  08  skew-algebra laws: adjoints, kernels, division
  09  symplectic pairing, complements, and the group commutator
  10  the family x^p + ax settled for every coefficient
"""

import random
from itertools import product
from math import isqrt, lcm

from aswcurves.curves import (
    CurveSpec,
    PeriodParity,
    TwistDatum,
    brute_count,
    build_curve,
    classify_twists,
    hermitian_twist,
    impossibility_scan,
    l_polynomial,
    period_parity,
    presentation_conditions,
    quadratic_extension_maximal,
    recover_head,
)
from aswcurves.errors import KernelNotRational
from aswcurves.gf2field import MAX_DEGREE, Fp2Subspace, make_field
from aswcurves.skew import SkewPoly
from aswcurves.symplectic import PairingCtx, g_witness
from aswcurves.witt2 import GaussInt, hd_sum
from reference import (
    HeisenbergElt,
    commutator,
    factor_complement_check,
    omega_r_eval,
    right_divides,
)

# the small universe: (q_deg, p_log) for F_4 and F_16 with p = 2 and p = 4
CASES = ((2, 1), (2, 2), (4, 1), (4, 2))


def _all_data(ctx, e_max, upto):
    """Every datum of p-degree <= e_max over F_q whose first flags hold."""
    out = []
    elements = sorted(ctx.subfield_elements(ctx.n))
    for e in range(1, e_max + 1):
        for coeffs in product(elements, repeat=e + 1):
            if coeffs[0] == 0 or coeffs[e] == 0:
                continue
            fd = TwistDatum(SkewPoly(ctx, dict(enumerate(coeffs))), ctx.n)
            if all(fd.conditions[:upto]):
                out.append(fd)
    return out


def test_criterion_01_nine_point_anchor():
    F4 = make_field(2)
    spec = CurveSpec(F4, 2, (0, 1))  # y^2 + y = x * x^2
    assert brute_count(spec, 1) == 9 == 4 + 1 + 2 * 1 * 2
    fd = TwistDatum(SkewPoly(F4, {1: 1, 0: 1}), 2)
    w = 0b10
    assert fd.twist_coefficient(w) == 0
    assert build_curve(fd, w) == spec
    lp = l_polynomial(fd, w)
    assert lp.poly_coeffs() == (1, 4, 4)  # (1 + 2T)^2
    assert lp.common_root() == GaussInt(-2)
    assert lp.point_count(1) == 9


def test_criterion_02_formula_count_equals_brute_count():
    pairs = 0
    for q_deg, p_log in CASES:
        ctx = make_field(q_deg, None, p_log)
        for fd in _all_data(ctx, 2, upto=3):
            for t in sorted(ctx.subfield_elements(q_deg)):
                lp = l_polynomial(fd, t)
                spec = build_curve(fd, t)
                for m in (1, 2):
                    assert lp.point_count(m) == brute_count(spec, m), (fd, t, m)
                pairs += 1
    assert pairs == 2436


def test_criterion_03_character_sum_closed_form():
    for s in range(1, 17):
        assert hd_sum(s) == GaussInt(-1, -1) ** s


def test_criterion_04_twist_partition_against_exhaustive_counts():
    heads = 0
    for q_deg, p_log in CASES:
        ctx = make_field(q_deg, None, p_log)
        elements = sorted(ctx.subfield_elements(q_deg))
        q = 1 << q_deg
        for e in (1, 2):
            for tail in product(elements, repeat=e):
                if tail[-1] == 0:
                    continue
                head = CurveSpec(ctx, q_deg, (0,) + tail)
                try:
                    fd = recover_head(head)
                except KernelNotRational:
                    continue
                tc = classify_twists(head, fd, budget=0)
                gap = 2 * head.genus * isqrt(q)
                t_max, t_min = set(), set()
                for a in elements:
                    n = brute_count(head.with_a0(a), 1)
                    if n == q + 1 + gap:
                        t_max.add(a)
                    elif n == q + 1 - gap:
                        t_min.add(a)
                    else:
                        assert n == q + 1, (head, a, n)
                assert set(tc.maximal_twists) == t_max, head
                assert set(tc.minimal_twists) == t_min, head
                heads += 1
    assert heads == 12


def _flags_agree_and_witness_rebuilds(spec):
    report = presentation_conditions(spec)
    w1, w2, w3, w4 = report.flags
    assert w2 == w3 == w4 == w1, spec
    if report.witnessed:
        fd, t = report.witness
        assert build_curve(fd, t) == spec
    return report.witnessed


def test_criterion_05_presentation_flags_and_witness():
    witnessed = 0
    for p_log in (1, 2):
        ctx = make_field(2, None, p_log)
        for e in (1, 2):
            for coeffs in product(range(4), repeat=e + 1):
                if coeffs[-1] == 0:
                    continue
                witnessed += _flags_agree_and_witness_rebuilds(
                    CurveSpec(ctx, 2, coeffs)
                )
    assert witnessed == 10
    rng = random.Random(20260816)
    witnessed = 0
    for i in range(1000):
        ctx = make_field(4, None, 1 if i % 2 == 0 else 2)
        e = rng.choice((1, 2))
        coeffs = tuple(rng.randrange(16) for _ in range(e)) + (rng.randrange(1, 16),)
        witnessed += _flags_agree_and_witness_rebuilds(CurveSpec(ctx, 4, coeffs))
    assert witnessed == 171


def test_criterion_06_period_parity_table():
    budget = 1 << 20
    F2 = make_field(1)
    for m in range(1, 5):
        spec = CurveSpec(F2, 1, (0,) * m + (1,))  # R = x^(2^m)
        assert period_parity(spec, budget=budget) == PeriodParity(2 * m, -1)
    assert period_parity(
        CurveSpec(F2, 1, (0, 1, 0, 1)), budget=budget
    ) == PeriodParity(8, 1)
    F4 = make_field(2, None, 2)
    assert period_parity(
        CurveSpec(F4, 2, (1, 1)), budget=budget
    ) == PeriodParity(4, 1)
    scan = impossibility_scan(p_log=1, e_max=2, budget=budget)
    assert scan.excludes(2, 1) and scan.excludes(4, 1)
    assert dict(scan.periods) == {
        (0, 1): PeriodParity(2, -1),
        (1, 1): PeriodParity(4, -1),
        (0, 0, 1): PeriodParity(4, -1),
        (1, 0, 1): PeriodParity(8, 1),
        (0, 1, 1): PeriodParity(12, -1),
        (1, 1, 1): PeriodParity(6, 1),
    }


def test_criterion_07_quadratic_extension_trace_test():
    pairs = 0
    for q_deg, p_log in CASES:
        ctx = make_field(q_deg, None, p_log)
        q = 1 << q_deg
        for fd in _all_data(ctx, 2, upto=4):
            for t in sorted(ctx.subfield_elements(q_deg)):
                spec = build_curve(fd, t)
                maximal = brute_count(spec, 2) == q * q + 1 + 2 * spec.genus * q
                assert quadratic_extension_maximal(fd, t) == maximal, (fd, t)
                pairs += 1
    assert pairs == 1212


def _all_f2_subspaces(ctx):
    """Every F_2-subspace of the context's field, by closure search."""
    zero = Fp2Subspace.from_vectors(ctx, [])
    seen = {frozenset(zero.elements()): zero}
    frontier = [zero]
    while frontier:
        W = frontier.pop()
        for v in range(1, ctx.order):
            if W.contains(v):
                continue
            bigger = Fp2Subspace.from_vectors(ctx, list(W.fp_basis()) + [v])
            key = frozenset(bigger.elements())
            if key not in seen:
                seen[key] = bigger
                frontier.append(bigger)
    return list(seen.values())


def test_criterion_08_skew_algebra_suite():
    F4 = make_field(2)
    F16 = make_field(4)
    # anti-involution laws, exhaustive on linear polynomials over F_4
    polys = [SkewPoly(F4, {0: a, 1: b}) for a in range(4) for b in range(4)]
    for f in polys:
        assert f.adjoint().adjoint() == f
        for g in polys:
            assert (f * g).adjoint() == g.adjoint() * f.adjoint()
    # kernel dimensions: separable polynomials of p-degree <= 2 over F_4
    for coeffs in product(range(4), repeat=3):
        if coeffs[0] == 0 or coeffs[2] == 0:
            continue
        f = SkewPoly(F4, dict(enumerate(coeffs)))
        amb = lcm(f.kernel_splitting_degree(), 2)
        if amb <= MAX_DEGREE:
            assert f.transport_to(make_field(amb), deg=F4.n).kernel().dim_p == f.degree
    # divisibility equals kernel containment, exhaustive over F_16
    spaces = _all_f2_subspaces(F16)
    assert len(spaces) == 67
    annihilators = [SkewPoly.from_subspace(W) for W in spaces]
    for W1, f1 in zip(spaces, annihilators):
        assert f1.kernel() == W1 and f1.degree == W1.dim_p
        for W2, f2 in zip(spaces, annihilators):
            assert right_divides(f1, f2) == W1.is_subspace_of(W2)
    # division round trips, fuzzed over a degree-12 field
    K = make_field(12)
    rng = random.Random(20260817)
    for _ in range(150):
        h, g = (
            SkewPoly(
                K,
                {rng.randrange(-3, 4): rng.randrange(K.order) for _ in range(4)},
            )
            for _ in range(2)
        )
        if not g:
            continue
        assert (h * g).right_divide(g) == h or not h
        x = rng.randrange(K.order)
        assert (h * g)(x) == h(g(x))


def test_criterion_09_symplectic_suite():
    F4 = make_field(2)
    F16 = make_field(4)
    rng = random.Random(20260818)
    # the witness identity and bi-additivity on random evaluations
    for n, p_log in ((4, 1), (12, 1), (8, 2)):
        K = make_field(n, p_log=p_log)
        for _ in range(25):
            F = SkewPoly(
                K,
                {rng.randrange(-2, 3): rng.randrange(K.order) for _ in range(3)},
            )
            x, y, z = (rng.randrange(K.order) for _ in range(3))
            Fstar = F.adjoint()
            g = g_witness(F, x, y, Fstar)  # defining identity asserted inside
            assert g_witness(F, x ^ z, y, Fstar) == g ^ g_witness(F, z, y, Fstar)
            assert g_witness(F, x, y ^ z, Fstar) == g ^ g_witness(F, x, z, Fstar)
    # the pairing: alternating, nondegenerate, Galois-equivariant
    pc = PairingCtx(SkewPoly(F16, {2: 1, -2: 1}))
    points = pc.W.elements()
    for u in points:
        assert pc.omega(u, u) == 0
        if u:
            assert any(pc.omega(u, v) for v in points)
        for v in points:
            assert pc.omega(u, v) == pc.omega(v, u)  # alternating = symmetric here
            assert pc.omega(F16.sqr(u), F16.sqr(v)) == pc.omega(u, v)
    # complement of a factor's kernel
    for _ in range(15):
        X = Fp2Subspace.from_vectors(
            F16, [rng.choice(points) for _ in range(rng.randrange(1, 3))]
        )
        f = SkewPoly.from_subspace(X)
        assert factor_complement_check(pc.F, f) == pc.orthogonal_complement(X)
    # the group commutator lands on the curve-level pairing
    R = SkewPoly.tau(F4)
    els = [
        HeisenbergElt(R, a, b)
        for a in range(4)
        for b in range(4)
        if F4.sqr(b) ^ b == F4.mul(a, R(a))
    ]
    assert len(els) == 8
    for g1 in els:
        for g2 in els:
            c = commutator(g1, g2)
            assert c.a == 0 and c.b == omega_r_eval(R, g1.a, g2.a)
    # that pairing is the Frobenius power of the symplectic one
    for Rbig, ambient in (
        (SkewPoly.tau(F4), None),
        (SkewPoly(F16, {2: 1}), None),
        (SkewPoly(F4, {1: 2}), make_field(6)),
    ):
        E = Rbig + Rbig.adjoint()
        pc2 = PairingCtx(E if ambient is None else E.transport_to(ambient, deg=E.ctx.n))
        Ramb = Rbig if ambient is None else Rbig.transport_to(ambient, deg=Rbig.ctx.n)
        e = Rbig.degree
        for u in pc2.W.elements():
            for v in pc2.W.elements():
                assert omega_r_eval(Ramb, u, v) == pc2.ctx.frob_p(pc2.omega(u, v), e)


def test_criterion_10_hermitian_family():
    for p_log, q_deg in ((1, 2), (1, 4), (2, 4), (2, 8)):
        ctx = make_field(q_deg, None, p_log)
        q = 1 << q_deg
        root = isqrt(q)
        for a in range(q):
            rep = hermitian_twist(ctx, a, q_deg)
            assert rep.counting_checked
            count1 = brute_count(rep.curve, 1)
            count2 = brute_count(rep.curve, 2)
            assert rep.lpoly.point_count(1) == count1, (p_log, q_deg, a)
            assert rep.lpoly.point_count(2) == count2, (p_log, q_deg, a)
            gap = 2 * rep.curve.genus * root
            assert rep.is_extremal == (rep.relative_trace == 0)
            if rep.is_extremal:
                assert count1 == q + 1 + (gap if rep.is_maximal else -gap)
                assert len(set(rep.eigenvalues)) == 1
            else:
                assert rep.is_maximal is None
                assert count1 == q + 1
                assert set(rep.eigenvalues) in (
                    {GaussInt(root), GaussInt(-root)},
                    {GaussInt(0, root), GaussInt(0, -root)},
                )
