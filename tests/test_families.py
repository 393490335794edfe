"""Closed-form constructions against the enumerative classifier."""

import hashlib
import itertools
import json

import pytest

from aswcurves.curves import (
    CurveSpec,
    brute_count,
    classify_small_kernel,
    classify_subfield_kernel,
    classify_twists,
    extremal_from_subspace,
    families,
    hermitian_twist,
    palindromic_family,
    recover_head,
)
from aswcurves.errors import (
    CapExceeded,
    Char2Error,
    DegreeMismatch,
    FieldTooSmall,
    FOneNonzero,
    HypothesisFailed,
    NoSolution,
    OddDegree,
    OracleMismatch,
    PairingConditionFailed,
    RootsNotSimple,
)
from aswcurves.gf2field import Fp2Subspace, clgcd, default_modulus, make_field, parse_field_spec
from aswcurves.witt2 import psi_char, q_char

F4 = make_field(2)
F8 = make_field(3)
F16 = make_field(4)
F64 = make_field(6)
F16_P4 = make_field(4, None, 2)
F256_P4 = make_field(8, None, 2)
W = 0b10

SINGLE_HEADS_16 = [(0, 1), (0, 8), (0, 10), (0, 12), (0, 15)]
DOUBLE_HEADS_16 = [(0, 0, 1), (0, 0, 6), (0, 0, 7)]


def param_sets(tc):
    return (tc.extremal_parameters, tc.maximal_parameters, tc.minimal_parameters)


def twist_sets(tc):
    return (tc.maximal_twists, tc.minimal_twists, tc.neutral_twists)


def admissible_parameters(ctx, space, q_deg):
    """Twist parameters matching the quadratic character on the subspace."""
    return [
        t
        for t in ctx.subfield_elements(q_deg)
        if all(
            not v or q_char(ctx, v, q_deg) == psi_char(ctx, ctx.mul(t, v), q_deg)
            for v in space.elements()
        )
    ]


# (field spec, q_deg, largest degree of f): default and other moduli,
# p from 2 to 16, and ambients wider than F_q
PALINDROMIC_GRID = [
    ("F64", 6, 6),
    ("F16:0x19", 4, 6),
    ("F256:0x163", 8, 6),
    ("F4096", 4, 6),
    ("F4096", 6, 6),
    ("F4096", 12, 6),
    ("F1024", 10, 6),
    ("F16:0x1f:p=4", 4, 3),
    ("F256:p=4", 8, 3),
    ("F4096:p=4", 4, 3),
    ("F4096:p=4", 12, 2),
    ("F64:0x5b:p=8", 6, 2),
    ("F4096:p=8", 6, 2),
    ("F4096:p=8", 12, 2),
    ("F256:p=16", 8, 1),
]
PALINDROMIC_GRID_SHA256 = "ad50d4eee651e5bd7dd12043aa5ea4a7ee62af838591fcd7b84f91408b369225"


def palindromic_outcome(ctx, q_deg, f):
    """What `palindromic_family` returns for f, or the error it raises."""
    try:
        fam = palindromic_family(ctx, q_deg, f, budget=1 << 8)
    except Char2Error as exc:
        return [type(exc).__name__, str(exc)]
    tc = fam.classification
    return [
        fam.order,
        fam.power,
        fam.pivot,
        list(tc.head.coeffs),
        *map(list, param_sets(tc)),
        *map(list, twist_sets(tc)),
        tc.counting_checked,
    ]


def polys_with_nonzero_ends(ctx, max_degree):
    """Every f over F_p of degree 1..max_degree with nonzero ends."""
    fp = ctx.subfield_elements(ctx.p_log)
    for d in range(1, max_degree + 1):
        for mid in itertools.product(fp, repeat=d - 1):
            for lo, hi in itertools.product(fp[1:], repeat=2):
                yield (lo, *mid, hi)


def test_equal_reports_hash_equal():
    """Frozen reports hash by value, their L-polynomial included."""
    space = Fp2Subspace.from_vectors(F4, [1])
    first, second = (extremal_from_subspace(space, W, 2) for _ in range(2))
    assert first == second and first is not second
    assert hash(first.lpoly) == hash(second.lpoly)
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    reports = [hermitian_twist(F16, a) for a in (1, 1, 2)]
    assert hash(reports[0]) == hash(reports[1])
    assert len(set(reports)) == 2


class TestRecipe:
    def test_span_one_over_f4(self):
        rec = extremal_from_subspace(Fp2Subspace.from_vectors(F4, [1]), W, 2)
        assert rec.curve == CurveSpec(F4, 2, (0, 1))
        assert rec.parameter == W
        assert rec.is_maximal
        assert rec.lpoly.point_count(1) == 9
        assert rec.counting_checked

    def test_span_one_over_f16_hits_both_signs(self):
        space = Fp2Subspace.from_vectors(F16, [1])
        admissible = admissible_parameters(F16, space, 4)
        assert len(admissible) == 8
        verdicts = set()
        for t in admissible:
            rec = extremal_from_subspace(space, t, 4)
            assert rec.lpoly.is_extremal
            assert rec.counting_checked
            verdicts.add(rec.is_maximal)
        assert verdicts == {True, False}

    def test_parameters_agree_with_classifier(self):
        space = Fp2Subspace.from_vectors(F16, [1])
        admissible = admissible_parameters(F16, space, 4)
        rec = extremal_from_subspace(space, admissible[0], 4)
        tc = classify_twists(rec.curve.head(), datum=rec.datum)
        assert tuple(admissible) == tc.extremal_parameters
        maximal = [
            t for t in admissible if extremal_from_subspace(space, t, 4).is_maximal
        ]
        assert tuple(maximal) == tc.maximal_parameters

    def test_two_dimensional_subspace(self):
        hits = 0
        for v in range(2, 16):
            space = Fp2Subspace.from_vectors(F16, [1, v])
            if space.dim_p != 2:
                continue
            for t in admissible_parameters(F16, space, 4):
                rec = extremal_from_subspace(space, t, 4)
                assert rec.datum.e == 2
                assert rec.curve.genus == 2
                assert rec.counting_checked
                hits += 1
        assert hits > 0

    def test_rescaling_reaches_every_maximal_twist(self):
        target = CurveSpec(F16, 4, (4, 8))
        assert classify_twists(target.head()).twist_class(4) == "maximal"
        space = recover_head(target.head()).adjoint_kernel
        found = False
        for t in admissible_parameters(F16, space, 4):
            rec = extremal_from_subspace(space, t, 4)
            for c in range(1, 16):
                scaled = tuple(
                    F16.mul(F16.pow(c, 1 + F16.p**i), r)
                    for i, r in enumerate(rec.curve.coeffs)
                )
                if scaled == target.coeffs:
                    found = True
        assert found

    @pytest.mark.parametrize(
        "ctx, vectors",
        [(F16, [1]), (F16, [1, 6]), (F16, [1, 3]), (make_field(8, None, 2), [1])],
        ids=["F16 1", "F16 1,6", "F16 1,3", "F256:p=4 1"],
    )
    def test_omitted_parameter_is_the_least_admissible(self, ctx, vectors):
        space = Fp2Subspace.from_vectors(ctx, vectors)
        least = admissible_parameters(ctx, space, ctx.n)[0]
        rec = extremal_from_subspace(space, None, ctx.n)
        assert rec == extremal_from_subspace(space, least, ctx.n)

    def test_omitted_parameter_is_checked_once(self, monkeypatch):
        # least_admissible_parameter tests psi(t*v) = Q(v) at every point
        # itself, so the recipe's own loop runs only for a supplied t
        space = Fp2Subspace.from_vectors(F16, [1, 6])
        checked = []
        monkeypatch.setattr(families, "psi_char", lambda *a: checked.append(a) or psi_char(*a))
        rec = extremal_from_subspace(space, None, 4)
        assert checked == []
        assert extremal_from_subspace(space, rec.parameter, 4) == rec
        assert len(checked) == 3

    @pytest.mark.parametrize("vectors", [[1, 8], [1, 2, 4]], ids=["F16 1,8", "F16 1,2,4"])
    def test_omitted_parameter_with_none_admissible(self, vectors):
        space = Fp2Subspace.from_vectors(F16, vectors)
        assert admissible_parameters(F16, space, 4) == []
        with pytest.raises(NoSolution) as exc:
            extremal_from_subspace(space, None, 4)
        assert str(exc.value) == "no parameter matches the quadratic character on the subspace"

    @pytest.mark.parametrize(
        "ctx, vectors, error",
        [(make_field(5), [1], OddDegree), (F16, [3], HypothesisFailed)],
        ids=["F32 1", "F16 3"],
    )
    def test_omitted_parameter_after_the_input_checks(self, monkeypatch, ctx, vectors, error):
        searched = []
        monkeypatch.setattr(families, "least_admissible_parameter", lambda *a: searched.append(a))
        with pytest.raises(error):
            extremal_from_subspace(Fp2Subspace.from_vectors(ctx, vectors), None, ctx.n)
        assert searched == []

    def test_pairing_failure(self):
        with pytest.raises(PairingConditionFailed):
            extremal_from_subspace(Fp2Subspace.from_vectors(F4, [1]), 0, 2)

    def test_odd_degree(self):
        with pytest.raises(OddDegree):
            extremal_from_subspace(Fp2Subspace.from_vectors(F4, [1]), 0, 1)

    def test_subspace_must_contain_one(self):
        with pytest.raises(ValueError):
            extremal_from_subspace(Fp2Subspace.from_vectors(F4, [W]), W, 2)

    def test_subspace_must_fit_the_field(self):
        with pytest.raises(ValueError):
            extremal_from_subspace(Fp2Subspace.from_vectors(F16, [1, W]), 0, 2)


class TestSmallKernel:
    def test_matches_classifier_on_all_single_heads(self):
        for coeffs in SINGLE_HEADS_16:
            head = CurveSpec(F16, 4, coeffs)
            fd = recover_head(head)
            tc = classify_small_kernel(fd)
            ref = classify_twists(head, datum=fd)
            assert param_sets(tc) == param_sets(ref), coeffs
            assert twist_sets(tc) == twist_sets(ref), coeffs
            assert not tc.counting_checked

    def test_zero_shift_is_maximal_when_quarter_odd(self):
        fd = recover_head(CurveSpec(F16, 4, (0, 1)))
        tc = classify_small_kernel(fd)
        assert 0 in tc.extremal_parameters
        assert (0 in tc.maximal_parameters) == ((4 // 4) % 2 == 1)

    def test_degree_not_divisible_by_four(self):
        with pytest.raises(HypothesisFailed):
            classify_small_kernel(recover_head(CurveSpec(F4, 2, (0, 1))))
        with pytest.raises(HypothesisFailed):
            classify_small_kernel(recover_head(CurveSpec(F16_P4, 4, (0, 1))))

    def test_kernel_outside_quarter_subfield(self):
        for coeffs in DOUBLE_HEADS_16:
            fd = recover_head(CurveSpec(F16, 4, coeffs))
            with pytest.raises(HypothesisFailed):
                classify_small_kernel(fd)


class TestSubfieldKernel:
    def test_pivot_anchor_over_f4(self):
        head = CurveSpec(F4, 2, (0, 1))
        fd = recover_head(head)
        tc, pivot = classify_subfield_kernel(fd, 1)
        assert pivot == W
        assert F4.sqr(pivot) ^ pivot == 1
        ref = classify_twists(head, datum=fd)
        assert param_sets(tc) == param_sets(ref)
        assert twist_sets(tc) == twist_sets(ref)

    def test_matches_classifier_for_both_subfields(self):
        for coeffs in SINGLE_HEADS_16:
            head = CurveSpec(F16, 4, coeffs)
            fd = recover_head(head)
            ref = classify_twists(head, datum=fd)
            for q1_deg in (1, 2):
                tc, _ = classify_subfield_kernel(fd, q1_deg)
                assert param_sets(tc) == param_sets(ref), (coeffs, q1_deg)
                assert twist_sets(tc) == twist_sets(ref), (coeffs, q1_deg)

    def test_half_degree_pivot_is_maximal(self):
        cases = [
            (CurveSpec(F4, 2, (0, 1)), 1),
            (CurveSpec(F16, 4, (0, 8)), 2),
            (CurveSpec(F16_P4, 4, (0, 1)), 2),
        ]
        for head, q1_deg in cases:
            tc, pivot = classify_subfield_kernel(recover_head(head), q1_deg)
            assert pivot in tc.maximal_parameters, head

    def test_p4_anchor(self):
        fd = recover_head(CurveSpec(F16_P4, 4, (0, 1)))
        tc, pivot = classify_subfield_kernel(fd, 2)
        assert pivot == W
        assert tc.maximal_twists == (0,)
        assert tc.minimal_twists == ()

    def test_subfield_degree_not_a_power_of_p(self):
        fd = recover_head(CurveSpec(F16_P4, 4, (0, 1)))
        with pytest.raises(HypothesisFailed):
            classify_subfield_kernel(fd, 1)

    def test_tower_not_even(self):
        fd = recover_head(CurveSpec(F16, 4, (0, 1)))
        with pytest.raises(HypothesisFailed):
            classify_subfield_kernel(fd, 3)

    def test_kernel_outside_subfield(self):
        fd = recover_head(CurveSpec(F16, 4, (0, 0, 1)))
        with pytest.raises(HypothesisFailed):
            classify_subfield_kernel(fd, 1)

    @pytest.mark.parametrize("q1_deg", [0, -2])
    def test_subfield_degrees_below_one_are_rejected(self, q1_deg):
        fd = recover_head(CurveSpec(F16, 4, (0, 1)))
        with pytest.raises(DegreeMismatch, match="subfield degrees need 1 <="):
            classify_subfield_kernel(fd, q1_deg)


def _shifted_q_char(ctx, x, deg):
    return (q_char(ctx, x, deg) + 1) % 4


def test_pivot_character_check_fires(monkeypatch):
    # a character one quarter-turn off misses the prescribed unit
    # i^(log2(q1) + 2) at every pivot, also under python -O
    monkeypatch.setattr(families, "q_char", _shifted_q_char)
    with pytest.raises(OracleMismatch, match="pivot Witt trace misses the prescribed unit"):
        classify_subfield_kernel(recover_head(CurveSpec(F16, 4, (0, 1))), 1)
    with pytest.raises(OracleMismatch, match="pivot Witt trace misses the prescribed unit"):
        palindromic_family(F16_P4, 4, (1, 1))


class TestPalindromic:
    def test_linear_anchor_over_f4(self):
        fam = palindromic_family(F4, 2, (1, 1))
        assert fam.order == 2
        assert fam.power == 1
        assert fam.pivot == W
        assert fam.head == CurveSpec(F4, 2, (0, 1))
        assert fam.classification.maximal_twists == (0,)
        assert fam.classification.minimal_twists == ()
        assert fam.classification.counting_checked

    def test_linear_polynomial_tower_two(self):
        fam = palindromic_family(F16, 4, (1, 1))
        assert fam.power == 2
        assert fam.classification.maximal_twists == (1, 6, 7)
        assert fam.classification.minimal_twists == (0,)

    def test_cubic_over_f64(self):
        fam = palindromic_family(F64, 6, (1, 0, 0, 1))
        assert fam.order == 6
        assert fam.head == CurveSpec(F64, 6, (0, 0, 0, 1))
        ref = classify_twists(fam.head, datum=fam.datum)
        assert param_sets(fam.classification) == param_sets(ref)
        assert twist_sets(fam.classification) == twist_sets(ref)

    def test_p4_linear_polynomial(self):
        fam = palindromic_family(F16_P4, 4, (1, 1))
        assert fam.order == 2
        assert fam.head == CurveSpec(F16_P4, 4, (0, 1))
        ref = classify_twists(fam.head, datum=fam.datum)
        assert param_sets(fam.classification) == param_sets(ref)
        assert twist_sets(fam.classification) == twist_sets(ref)

    def test_quartic_order_fourteen(self):
        ctx = make_field(14)
        fam = palindromic_family(ctx, 14, (1, 0, 1, 1, 1), budget=0)
        assert fam.order == 14
        assert fam.power == 1
        assert not fam.classification.counting_checked
        tc = fam.classification
        assert len(tc.extremal_parameters) * 16 == 1 << 14
        a_max = tc.maximal_twists[0]
        gap = (2 - 1) * 2**4 * 2**7
        head = fam.head
        assert brute_count(head.with_a0(a_max), 1) == (1 << 14) + gap + 1
        a_neutral = tc.neutral_twists[0]
        assert brute_count(head.with_a0(a_neutral), 1) == (1 << 14) + 1

    def test_rejects_nonvanishing_at_one(self):
        with pytest.raises(FOneNonzero):
            palindromic_family(F64, 6, (1, 1, 1))

    def test_rejects_repeated_roots(self):
        with pytest.raises(RootsNotSimple):
            palindromic_family(F64, 6, (1, 0, 1))

    def test_rejects_small_field(self):
        with pytest.raises(FieldTooSmall):
            palindromic_family(F4, 2, (1, 0, 0, 1))

    def test_grid_outcomes_are_pinned(self):
        rows = []
        for spec, q_deg, max_degree in PALINDROMIC_GRID:
            ctx = parse_field_spec(spec)
            for f in polys_with_nonzero_ends(ctx, max_degree):
                rows.append([spec, q_deg, list(f), palindromic_outcome(ctx, q_deg, f)])
        assert len(rows) == 2601
        text = json.dumps(rows, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == PALINDROMIC_GRID_SHA256

    def test_cap_bounds_the_palindrome_order(self):
        # f = (x + 1) m(x), m irreducible of degree 13: x has order 8191 > 4096
        m = default_modulus(13)
        product = m ^ (m << 1)
        f = tuple((product >> i) & 1 for i in range(product.bit_length()))
        with pytest.raises(CapExceeded) as err:
            palindromic_family(F64, 6, f)
        assert str(err.value) == "order of x modulo the palindrome exceeds 4096"
        assert palindromic_family(F64, 6, (1, 0, 0, 1)).order == 6

    def test_simple_roots_match_the_derivative_gcd(self):
        # over F_2, f is squarefree exactly when gcd(f, f') = 1
        checked = 0
        for bits in range(3, 1 << 9, 2):
            if bin(bits).count("1") % 2:
                continue  # f(1) != 0
            deriv = (bits >> 1) & 0x55
            try:
                palindromic_family(F4, 2, [(bits >> i) & 1 for i in range(bits.bit_length())])
                simple = True
            except RootsNotSimple:
                simple = False
            except FieldTooSmall:
                simple = True
            assert simple == (clgcd(bits, deriv) == 1), bin(bits)
            checked += 1
        assert checked == 128

    def test_pivot_check_survives_python_O(self, monkeypatch):
        monkeypatch.setattr(families, "_pivot", lambda ctx, q1_deg: 0)
        with pytest.raises(OracleMismatch, match="pivot"):
            palindromic_family(F4, 2, (1, 1))

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            palindromic_family(F4, 2, (0, 1))
        with pytest.raises(ValueError):
            palindromic_family(F4, 2, (1,))
        with pytest.raises(ValueError):
            palindromic_family(F16_P4, 4, (1, W))


class TestHermitian:
    def test_zero_coefficient_over_f4(self):
        rep = hermitian_twist(F4, 0)
        assert rep.relative_trace == 0
        assert rep.is_extremal
        assert rep.is_maximal
        assert rep.lpoly.point_count(1) == 9
        assert rep.counting_checked

    @pytest.mark.parametrize("q_deg", [0, -2])
    def test_degrees_below_one_are_rejected(self, q_deg):
        with pytest.raises(DegreeMismatch, match="subfield degrees need 1 <="):
            hermitian_twist(F16, 0, q_deg)

    def test_only_zero_is_extremal_over_f4(self):
        extremal = [a for a in range(4) if hermitian_twist(F4, a).is_extremal]
        assert extremal == [0]

    def test_nonzero_trace_over_f16(self):
        seen = 0
        for a in range(16):
            rep = hermitian_twist(F16, a)
            if rep.relative_trace == 0:
                assert rep.is_extremal
                continue
            seen += 1
            assert not rep.is_extremal
            assert rep.is_maximal is None
            assert rep.lpoly.point_count(1) == 17
            assert rep.eigenvalues[1] == -rep.eigenvalues[0]
        assert seen == 12

    def test_zero_trace_over_f16(self):
        kernel = [a for a in range(16) if F16.trace(a, 4, 2) == 0]
        assert len(kernel) == 4
        for a in kernel:
            rep = hermitian_twist(F16, a)
            assert rep.is_extremal
            assert rep.counting_checked
            sign = -1 if rep.is_maximal else 1
            root = rep.eigenvalues[0]
            assert (root.re, root.im) == (sign * 4, 0)

    def test_p4_both_branches(self):
        rep = hermitian_twist(F16_P4, 0)
        assert rep.is_maximal
        assert rep.lpoly.point_count(1) == 65
        rep = hermitian_twist(F16_P4, W)
        assert rep.relative_trace == W
        assert not rep.is_extremal
        assert rep.lpoly.point_count(1) == 17

    def test_p4_zero_trace_tower(self):
        kernel = [
            a for a in F256_P4.subfield_elements(8) if F256_P4.trace(a, 8, 4) == 0
        ]
        assert len(kernel) == 16
        for a in kernel[:4]:
            rep = hermitian_twist(F256_P4, a)
            assert rep.is_extremal
            assert rep.counting_checked

    def test_odd_degree(self):
        with pytest.raises(OddDegree):
            hermitian_twist(F8, 0)
        with pytest.raises(OddDegree):
            hermitian_twist(make_field(6, None, 2), 0)

    def test_coefficient_outside_field(self):
        with pytest.raises(ValueError):
            hermitian_twist(F16, W, q_deg=2)
