"""Twist classification and quadratic-extension maximality."""

import hashlib
import json
import random

import pytest

from aswcurves import bitvec
from aswcurves.curves import (
    CurveSpec,
    TwistDatum,
    brute_count,
    build_curve,
    classify_small_kernel,
    classify_subfield_kernel,
    classify_twists,
    extremal_from_subspace,
    head_curve,
    palindromic_family,
    quadratic_extension_maximal,
    recover_head,
)
from aswcurves.curves import count, twists
from aswcurves.curves.twists import least_admissible_parameter
from aswcurves.errors import (
    Char2Error,
    ConditionViolated,
    DomainError,
    HypothesisFailed,
    KernelNotRational,
    OracleMismatch,
)
from aswcurves.gf2field import FieldCtx, Fp2Subspace, make_field, parse_field_spec
from aswcurves.skew import SkewPoly, factor_through_symmetric
from aswcurves.witt2 import psi_char, q_char
from reference import quotient_curve

F4 = make_field(2)
F16 = make_field(4)
F16_P4 = make_field(4, None, 2)
W = 0b10

RATIONAL_HEADS_16 = [(0, 1), (0, 8), (0, 10), (0, 12), (0, 15), (0, 0, 1), (0, 0, 6), (0, 0, 7)]


class TestClassifyAnchor:
    def test_square_head_over_f4(self):
        tc = classify_twists(CurveSpec(F4, 2, (0, 1)))
        assert tc.extremal_parameters == (W, W ^ 1)
        assert tc.maximal_parameters == (W, W ^ 1)
        assert tc.minimal_parameters == ()
        assert tc.neutral_parameters == (0, 1)
        assert tc.maximal_twists == (0,)
        assert tc.minimal_twists == ()
        assert tc.neutral_twists == (1, W, W ^ 1)
        assert tc.counting_checked

    def test_twist_class_lookup(self):
        tc = classify_twists(CurveSpec(F4, 2, (0, 1)))
        assert tc.twist_class(0) == "maximal"
        assert tc.twist_class(1) == "neutral"
        with pytest.raises(ValueError):
            tc.twist_class(4)

    def test_twist_count_follows_the_class(self):
        tc = classify_twists(CurveSpec(F16, 4, (0, 1)))
        gap = {"maximal": 8, "minimal": -8, "neutral": 0}
        for a in range(16):
            assert tc.twist_count(a) == 17 + gap[tc.twist_class(a)] == brute_count(
                CurveSpec(F16, 4, (a, 1))
            )
        with pytest.raises(DomainError):
            tc.twist_count(16)

    def test_square_head_over_f16(self):
        tc = classify_twists(CurveSpec(F16, 4, (0, 1)))
        assert tc.maximal_twists == (1, 6, 7)
        assert tc.minimal_twists == (0,)
        assert len(tc.extremal_parameters) == 8

    def test_p4_hermitian_head(self):
        tc = classify_twists(CurveSpec(F16_P4, 4, (0, 1)))
        assert tc.extremal_parameters == (2, 3, 4, 5)
        assert tc.maximal_twists == (0,)
        assert tc.minimal_twists == ()
        assert len(tc.neutral_twists) == 15


def twist_class_by_scan(tc, a):
    for label in ("maximal", "minimal", "neutral"):
        if a in getattr(tc, f"{label}_twists"):
            return label
    return None


class TestClassifyLargeField:
    """One direct count per twist, and the label lookup, over F_256."""

    @pytest.mark.parametrize(
        "ctx,coeffs", [(make_field(8), (0, 0, 1)), (make_field(8, None, 2), (0, 1))]
    )
    def test_one_count_per_twist(self, monkeypatch, ctx, coeffs):
        calls = []
        original = count.trace_zero_count

        def counted(spec, *args, **kwargs):
            calls.append(spec.coeffs[0])
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(count, "trace_zero_count", counted)
        tc = classify_twists(CurveSpec(ctx, 8, coeffs))
        assert sorted(calls) == list(range(256))
        assert tc.maximal_twists or tc.minimal_twists
        for a in range(256):
            assert tc.twist_class(a) == twist_class_by_scan(tc, a)
        with pytest.raises(ValueError):
            tc.twist_class(256)

    @pytest.mark.parametrize(
        "ctx,coeffs", [(make_field(8), (0, 0, 1)), (make_field(8, None, 2), (0, 1))]
    )
    def test_head_forms_set_up_once(self, monkeypatch, ctx, coeffs):
        """The q counts evaluate R at the unit vectors once, not per twist."""
        head = CurveSpec(ctx, 8, coeffs)
        r_images, counts = [], []
        linear_images = FieldCtx.linear_images
        original = count.trace_zero_count

        def recording_images(self, fn):
            if fn == head.r_skew():
                r_images.append(fn)
            return linear_images(self, fn)

        def counted(spec, *args, **kwargs):
            counts.append(spec.coeffs[0])
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(FieldCtx, "linear_images", recording_images)
        monkeypatch.setattr(count, "trace_zero_count", counted)
        count._head_tables.cache_clear()
        classify_twists(head)
        assert sorted(counts) == list(range(256))
        assert len(r_images) == 1


class TestRepeatedCounts:
    """A twist reads the head's stored parities from the first count of a
    head when its universe is small, and from the second count on when
    it fits one chunk."""

    @pytest.fixture(autouse=True)
    def fresh_head_tables(self):
        count._head_tables.cache_clear()
        yield
        count._head_tables.cache_clear()  # no corrupted entry outlives its test

    @staticmethod
    def head_entry(head):
        return count._head_tables(head.ctx, head.q_deg, head.coeffs[1:], head.ctx.p_log)

    @pytest.mark.parametrize("field", ["F16", "F16:0x19", "F16:p=4", "F64:p=8", "F256:p=4"])
    def test_classification_counts_equal_the_fused_pass(self, monkeypatch, field):
        ctx = parse_field_spec(field)
        head = CurveSpec(ctx, ctx.n, (0, 1))
        fused = {}
        with monkeypatch.context() as patch:
            patch.setattr(count, "_SMALL", 0)  # every first count by the fused pass
            for a in ctx.subfield_elements(ctx.n):
                count._head_tables.cache_clear()
                fused[a] = brute_count(head.with_a0(a))
        count._head_tables.cache_clear()
        tc = classify_twists(head)  # checks each count against twist_count
        assert {a: tc.twist_count(a) for a in fused} == fused
        entry = self.head_entry(head)
        assert entry.parities is not None and not entry.counted

    def test_a_multi_chunk_universe_stores_no_parities(self, monkeypatch):
        """With a small universe and a chunk of 2^8, a head of 2^8
        elements is bit-sliced from its first count and one of 2^10
        elements counts every twist by the fused pass."""
        monkeypatch.setattr(count, "_SMALL", 1 << 8)
        monkeypatch.setattr(bitvec, "CHUNK", 1 << 8)
        one_chunk = CurveSpec(make_field(8), 8, (0, 0, 1))
        several = CurveSpec(make_field(10), 10, (0, 1))
        for head in (one_chunk, several):
            assert classify_twists(head).counting_checked
        entry = self.head_entry(one_chunk)
        assert entry.parities is not None and not entry.counted
        entry = self.head_entry(several)
        assert entry.counted and entry.parities is None

    @pytest.mark.parametrize("field,flip", [("F16", "one"), ("F16:0x19", "one"), ("F256:p=4", "all")])
    def test_a_corrupted_parity_stops_the_counting_route(self, field, flip):
        ctx = parse_field_spec(field)
        head = CurveSpec(ctx, ctx.n, (0, 1))
        brute_count(head)  # a small universe: the first count stores parities
        entry = self.head_entry(head)
        first = entry.parities[0] ^ (2 if flip == "one" else (1 << head.q) - 1)
        entry.parities = (first, *entry.parities[1:])
        with pytest.raises(OracleMismatch, match="eigenvalue count .* != direct count"):
            classify_twists(head)


# (ambient degree, q_deg, p_log, modulus) of the quotient classification:
# p = 4 and p = 8, the moduli 0x19 and 0x11d, and ambients wider than F_q
QUOTIENT_CONTEXTS = [
    (4, 4, 2, 0x19),
    (8, 8, 2, 0x11D),
    (8, 4, 2, None),
    (6, 6, 3, None),
    (12, 6, 3, None),
    (16, 8, 2, None),
]


@pytest.mark.parametrize("n,q_deg,p_log,poly", QUOTIENT_CONTEXTS)
def test_classification_matches_the_quotient_over_f2(n, q_deg, p_log, poly):
    """The twist a of y^p - y = x*R(x) and of its quotient over F_2
    (`quotient_curve`) lie on the same side of q + 1, so the two heads
    classify every a alike, with every twist counted: each count of the
    first ORs p_log forms, each count of the quotient reads one.  Heads
    R = c*x^p in a fixed-seed order until two of them classify; a head
    without a rational kernel must be refused for both curves."""
    ctx = make_field(n, poly, p_log)
    elements = ctx.subfield_elements(q_deg)
    rng = random.Random(n * 100 + q_deg * 10 + p_log)
    classified, extremal = 0, False
    for c in rng.sample(elements[1:], len(elements) - 1):
        head = CurveSpec(ctx, q_deg, (0, c))
        outcomes = []
        for spec in (head, quotient_curve(head)):
            try:
                tc = classify_twists(spec)
            except KernelNotRational:
                outcomes.append(None)
            else:
                assert tc.counting_checked
                outcomes.append([tc.twist_class(a) for a in elements])
        assert outcomes[0] == outcomes[1], c
        if outcomes[0] is not None:
            classified += 1
            extremal |= set(outcomes[0]) != {"neutral"}
        if classified == 2:
            break
    assert classified == 2 and extremal


class TestClassifyInvariants:
    @pytest.mark.parametrize("coeffs", RATIONAL_HEADS_16)
    def test_parameter_set_is_image_coset(self, coeffs):
        head = CurveSpec(F16, 4, coeffs)
        tc = classify_twists(head, budget=0)
        image = {tc.datum.F(u) for u in F16.subfield_elements(4)}
        base = tc.extremal_parameters[0]
        assert {base ^ t for t in tc.extremal_parameters} == image
        assert base == least_admissible_parameter(tc.datum.adjoint_kernel, 4)

    @pytest.mark.parametrize("coeffs", RATIONAL_HEADS_16)
    def test_partitions_cover_the_field(self, coeffs):
        head = CurveSpec(F16, 4, coeffs)
        tc = classify_twists(head, budget=0)
        everything = sorted(F16.subfield_elements(4))
        assert sorted(
            tc.extremal_parameters + tc.neutral_parameters
        ) == everything
        assert sorted(
            tc.maximal_twists + tc.minimal_twists + tc.neutral_twists
        ) == everything
        assert sorted(tc.maximal_parameters + tc.minimal_parameters) == list(
            tc.extremal_parameters
        )

    def test_extremal_parameters_hit_the_bound(self):
        head = CurveSpec(F16, 4, (0, 1))
        tc = classify_twists(head)
        gap = (head.p - 1) * head.p**head.e * 4
        for t in tc.maximal_parameters:
            spec = build_curve(tc.datum, t)
            assert brute_count(spec, 1) - 1 == 16 + gap

    def test_datum_choice_does_not_move_twist_sets(self):
        # every one-dimensional subspace of F_4 carries a valid datum
        # for the head x^2; the parameter sets move, the twist sets not
        head = CurveSpec(F4, 2, (0, 1))
        reference = classify_twists(head)
        for v in (1, W, W ^ 1):
            space = Fp2Subspace.from_vectors(F4, [v])
            F = factor_through_symmetric(head.e_skew(), space)
            tc = classify_twists(head, datum=TwistDatum(F, 2))
            assert tc.maximal_twists == reference.maximal_twists
            assert tc.minimal_twists == reference.minimal_twists
            assert tc.neutral_twists == reference.neutral_twists

    def test_formula_only_matches_counted(self):
        head = CurveSpec(F16, 4, (0, 12))
        counted = classify_twists(head)
        formula = classify_twists(head, budget=0)
        assert not formula.counting_checked
        assert formula.maximal_twists == counted.maximal_twists
        assert formula.minimal_twists == counted.minimal_twists
        assert formula.extremal_parameters == counted.extremal_parameters


class TestClassifyErrors:
    def test_non_head_rejected(self):
        with pytest.raises(ValueError):
            classify_twists(CurveSpec(F4, 2, (1, 1)))

    def test_kernel_not_rational(self):
        with pytest.raises(KernelNotRational):
            classify_twists(CurveSpec(make_field(2), 1, (0, 1)))

    def test_kernel_not_rational_e2_over_f4(self):
        # |ker(R + R*)| = p^(2e) = 16 can never fit inside F_4
        with pytest.raises(KernelNotRational):
            classify_twists(CurveSpec(F4, 2, (0, 0, 1)))

    def test_explicit_datum_must_match_head(self):
        fd = recover_head(CurveSpec(F16, 4, (0, 1)))
        with pytest.raises(ValueError):
            classify_twists(CurveSpec(F16, 4, (0, 8)), datum=fd)

    def test_explicit_datum_kernel_checked(self):
        fd_bad = TwistDatum(SkewPoly.from_coeffs(F4, [1, 1]), 1)
        with pytest.raises(KernelNotRational):
            classify_twists(CurveSpec(F4, 1, (0, 1)), datum=fd_bad)

    def test_budget_gate(self):
        tc = classify_twists(CurveSpec(F16, 4, (0, 1)), budget=8)
        assert not tc.counting_checked


class TestCountRule:
    """`checked_count` alone decides whether the twists are counted."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        original = count.trace_zero_count

        def recorded(*args, **kwargs):
            made.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(count, "trace_zero_count", recorded)
        return made

    @pytest.mark.parametrize(
        "budget, made, checked", [(0, 0, False), (15, 0, False), (16, 16, True)]
    )
    @pytest.mark.parametrize(
        "classify",
        [
            lambda budget: classify_twists(CurveSpec(F16, 4, (0, 1)), budget=budget),
            lambda budget: palindromic_family(F16, 4, (1, 1), budget=budget).classification,
        ],
        ids=["classify_twists", "palindromic_family"],
    )
    def test_budget_zero_q_minus_one_and_q(self, calls, classify, budget, made, checked):
        tc = classify(budget)
        assert len(calls) == made
        assert tc.counting_checked is checked

    def test_closed_forms_make_no_count(self, calls):
        fd = recover_head(CurveSpec(F16, 4, (0, 1)))
        assert not classify_small_kernel(fd).counting_checked
        assert not classify_subfield_kernel(fd, 1)[0].counting_checked
        assert calls == []


class TestQuadraticExtension:
    def test_anchor_t_w_is_not_maximal(self):
        fd = recover_head(CurveSpec(F4, 2, (0, 1)))
        assert quadratic_extension_maximal(fd, W) is False

    def test_anchor_t_zero_is_maximal(self):
        # eigenvalues +-2i square to -4: 25 points over F_16
        fd = recover_head(CurveSpec(F4, 2, (0, 1)))
        assert quadratic_extension_maximal(fd, 0) is True
        assert brute_count(build_curve(fd, 0), 2) == 25

    def test_depends_on_trace_only(self):
        fd = recover_head(CurveSpec(F16, 4, (0, 1)))
        verdicts = {}
        for t in sorted(F16.subfield_elements(4)):
            verdicts.setdefault(F16.trace(t, 4, 1), set()).add(
                quadratic_extension_maximal(fd, t)
            )
        assert all(len(v) == 1 for v in verdicts.values())
        assert verdicts[0] != verdicts[1]

    def test_requires_composite_kernel(self):
        fd_bad = TwistDatum(SkewPoly.from_coeffs(F4, [1, 1]), 1)
        with pytest.raises(ConditionViolated):
            quadratic_extension_maximal(fd_bad, 0)

    def test_parameter_outside_subfield(self):
        big = make_field(4)
        fd = TwistDatum(SkewPoly.from_coeffs(big, [1, 1]), 2)
        with pytest.raises(ValueError):
            quadratic_extension_maximal(fd, 4)


# -- every classifier on one fixed-seed draw, pinned by sha256 --------------

# (ambient, q_deg): default and other moduli, p from 2 to 16, and
# ambients wider than F_q
GRID_FIELDS = [
    (parse_field_spec("F16"), 4),
    (parse_field_spec("F16:0x19"), 4),
    (parse_field_spec("F16:0x1f"), 4),
    (parse_field_spec("F16:p=4"), 4),
    (parse_field_spec("F64:p=8"), 6),
    (parse_field_spec("F256"), 8),
    (parse_field_spec("F256:p=4"), 8),
    (parse_field_spec("F256:p=16"), 8),
    (parse_field_spec("F1024"), 10),
    (parse_field_spec("F4096:p=4"), 12),
    (make_field(8), 4),
    (make_field(12, None, 2), 4),
]
CLASSIFICATION_GRID_SHA256 = "4b3e8c6b3972a30d002132c2e36c5b04e7da2542e2ea7fb4e93b1dede3925a74"


def grid_heads(rng, ctx, q_deg, e):
    """24 random heads of p-degree e and 6 heads of recipe data, whose
    adjoint kernel is a random F_p-span of 1 and e - 1 elements."""
    elements = ctx.subfield_elements(q_deg)
    for _ in range(24):
        tail = [rng.choice(elements) for _ in range(e - 1)]
        yield CurveSpec(ctx, q_deg, (0, *tail, rng.choice(elements[1:])))
    for _ in range(6):
        space = Fp2Subspace.from_vectors(
            ctx, [1] + [rng.choice(elements) for _ in range(e - 1)]
        )
        if space.dim_p == e:
            F = SkewPoly.from_subspace(space).adjoint() * SkewPoly(ctx, {e: 1})
            yield head_curve(TwistDatum(F, q_deg))


def seven_tuples(tc):
    return [
        list(tc.extremal_parameters),
        list(tc.maximal_parameters),
        list(tc.minimal_parameters),
        list(tc.neutral_parameters),
        list(tc.maximal_twists),
        list(tc.minimal_twists),
        list(tc.neutral_twists),
    ]


def classification_grid():
    """One row per rational head of the draw: the formula-only
    classification, and the closed forms wherever their hypotheses hold."""
    rng = random.Random(11)
    rows = []
    for ctx, q_deg in GRID_FIELDS:
        for e in (1, 2):
            for head in grid_heads(rng, ctx, q_deg, e):
                try:
                    tc = classify_twists(head, budget=0)
                except KernelNotRational:
                    continue
                fd = tc.datum
                try:
                    small = seven_tuples(classify_small_kernel(fd))
                except HypothesisFailed:
                    small = None
                pivots = {}
                for q1_deg in range(ctx.p_log, q_deg // 2 + 1, ctx.p_log):
                    try:
                        sub, pivot = classify_subfield_kernel(fd, q1_deg)
                    except HypothesisFailed:
                        continue
                    pivots[q1_deg] = [pivot, seven_tuples(sub)]
                rows.append(
                    [repr(ctx), q_deg, list(head.coeffs), seven_tuples(tc), small, pivots]
                )
            f_p = ctx.subfield_elements(ctx.p_log)
            for _ in range(4):
                f = [rng.choice(f_p[1:])] + [rng.choice(f_p) for _ in range(e)]
                f[-1] = f[-1] or 1
                try:
                    fam = palindromic_family(ctx, q_deg, tuple(f), budget=0)
                except Char2Error:
                    continue
                rows.append(
                    [repr(ctx), q_deg, f, fam.pivot, fam.order, fam.power,
                     seven_tuples(fam.classification)]
                )
    return rows


class TestPinnedClassificationGrid:
    def test_grid_is_pinned(self):
        rows = classification_grid()
        text = json.dumps(rows, separators=(",", ":"), sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert (len(rows), sum(len(r) == 6 for r in rows)) == (171, 147)
        assert digest == CLASSIFICATION_GRID_SHA256


# -- the shift solve and the trace-route coset ------------------------------


def least_admissible_by_scan(ctx, space, q_deg):
    """Reference: the first t in ascending order matching Q on the space."""
    for t in sorted(ctx.subfield_elements(q_deg)):
        if all(
            not v or q_char(ctx, v, q_deg) == psi_char(ctx, ctx.mul(t, v), q_deg)
            for v in space.elements()
        ):
            return t
    return None


def recorded_systems(monkeypatch):
    """Every (ctx, fn, deg) handed to `FieldCtx.solve_additive`."""
    systems = []
    solve = FieldCtx.solve_additive

    def recorded(ctx, fn, target, deg):
        systems.append((ctx, fn, deg))
        return solve(ctx, fn, target, deg)

    monkeypatch.setattr(FieldCtx, "solve_additive", recorded)
    return systems


# (field, q_deg, head): p = 2, 4, 16, e = 1 and 2, an ambient wider than F_q
SHIFT_HEADS = [
    ("F16", 4, (0, 1)),
    ("F16", 4, (0, 0, 7)),
    ("F16:p=4", 4, (0, 1)),
    ("F256", 8, (0, 0, 1)),
    ("F256:p=4", 8, (0, 1)),
    ("F256:p=16", 8, (0, 1)),
    ("F256", 4, (0, 1)),
]


class TestShiftSolve:
    @pytest.mark.parametrize("field,q_deg,coeffs", SHIFT_HEADS)
    def test_few_quadratic_character_calls(self, monkeypatch, field, q_deg, coeffs):
        ctx = parse_field_spec(field)
        head = CurveSpec(ctx, q_deg, coeffs)
        calls = []

        def counted(*args):
            calls.append(args)
            return q_char(*args)

        monkeypatch.setattr(twists, "q_char", counted)
        tc = classify_twists(head, budget=0)
        assert tc.extremal_parameters
        assert len(calls) <= 2 * ctx.p ** head.e + 2

    @pytest.mark.parametrize(
        "field", ["F16", "F64", "F256", "F16:p=4", "F256:p=4", "F64:p=8"]
    )
    def test_least_parameter_matches_ascending_scan(self, field):
        ctx = parse_field_spec(field)
        spaces = {Fp2Subspace.from_vectors(ctx, [1, w]) for w in ctx.subfield_elements(ctx.n)}
        assert {space.dim_p for space in spaces} == {1, 2}
        found = set()
        for space in sorted(spaces, key=lambda space: space.basis):
            want = least_admissible_by_scan(ctx, space, ctx.n)
            assert least_admissible_parameter(space, ctx.n) == want, space
            found.add(want is None)
        assert found == {True, False}

    def test_a_check_failed_at_every_point_is_no_parameter(self, monkeypatch):
        # Q is real on the basis of span{1, 2, 4}, so the system is solved,
        # but no solution matches Q at every point of the span
        space = Fp2Subspace.from_vectors(F16, [1, 2, 4])
        systems = recorded_systems(monkeypatch)
        assert least_admissible_parameter(space, 4) is None
        assert len(systems) == 1
        assert least_admissible_by_scan(F16, space, 4) is None

    @pytest.mark.parametrize(
        "classify",
        [
            lambda fd: classify_twists(head_curve(fd), datum=fd, budget=0),
            classify_small_kernel,
            lambda fd: classify_subfield_kernel(fd, 2)[0],
        ],
        ids=["classify_twists", "small_kernel", "subfield_kernel"],
    )
    def test_wrong_trace_offset_is_a_mismatch(self, monkeypatch, classify):
        fd = recover_head(CurveSpec(F16, 4, (0, 1)))
        neutral = classify(fd).neutral_twists[0]
        solve = twists._trace_coset
        monkeypatch.setattr(
            twists, "_trace_coset", lambda head, kernel: (neutral, solve(head, kernel)[1])
        )
        with pytest.raises(OracleMismatch, match="trace-form"):
            classify(fd)

    @pytest.mark.parametrize(
        "field,q_deg,coeffs", [("F16", 4, (0, 1)), ("F256:p=4", 8, (0, 1))]
    )
    def test_non_admissible_shift_is_a_mismatch(self, monkeypatch, field, q_deg, coeffs):
        head = CurveSpec(parse_field_spec(field), q_deg, coeffs)
        neutral = classify_twists(head, budget=0).neutral_parameters[0]
        monkeypatch.setattr(twists, "least_admissible_parameter", lambda *args: neutral)
        with pytest.raises(OracleMismatch):
            classify_twists(head, budget=0)

    def test_palindromic_family_checks_the_trace_route(self, monkeypatch):
        neutral = palindromic_family(F16, 4, (1, 1), budget=0).classification.neutral_twists[0]
        solve = twists._trace_coset
        monkeypatch.setattr(
            twists, "_trace_coset", lambda head, kernel: (neutral, solve(head, kernel)[1])
        )
        with pytest.raises(OracleMismatch, match="trace-form"):
            palindromic_family(F16, 4, (1, 1), budget=0)


# -- the two trace systems are onto: neither solve can raise NoSolution -----


def assert_onto(system, k):
    """Every target in F_2^k has a solution in the subfield."""
    ctx, fn, deg = system
    assert {fn(x) for x in ctx.subfield_elements(deg)} == set(range(1 << k))


# (field, q_deg): p = 2, 4 and 8, moduli 0x19, 0x11d and 0x211, and
# ambients wider than F_q
PREMISE_FIELDS = [
    ("F16:0x19", 4), ("F16:0x19:p=4", 4), ("F256:0x11d", 8), ("F256:0x11d:p=4", 8),
    ("F256:0x11d", 4), ("F64:p=8", 6), ("F512:0x211:p=8", 9), ("F512:0x211", 3),
]


@pytest.mark.parametrize("field,q_deg", PREMISE_FIELDS)
def test_the_trace_systems_are_onto(monkeypatch, field, q_deg):
    """The shift system Tr(t*v_j) on a subspace of F_q, and the coset
    system Tr(u_j^2 * a) on ker(R + R*) of a recovered head, reach every
    target: the v_j and u_j^2 are F_2-independent in F_q."""
    ctx = parse_field_spec(field)
    rng = random.Random(27)
    systems = recorded_systems(monkeypatch)
    elements = ctx.subfield_elements(q_deg)
    spaces = [
        Fp2Subspace.from_vectors(ctx, rng.sample(elements, rng.randint(1, 3)))
        for _ in range(12)
    ]
    solved = kernels = 0
    for e in (1, 2):
        for head in grid_heads(rng, ctx, q_deg, e):
            try:
                fd = recover_head(head)
            except KernelNotRational:
                continue
            spaces.append(fd.adjoint_kernel)
            systems.clear()
            twists._trace_coset(head, fd.composite_kernel)
            (system,) = systems
            assert_onto(system, fd.composite_kernel.dim2)
            kernels += 1
    for space in spaces:
        systems.clear()
        least_admissible_parameter(space, q_deg)
        if systems:
            (system,) = systems
            assert_onto(system, space.dim2)
            solved += 1
    assert solved and (kernels or q_deg % 2)


class TestChecksSurvivePythonO:
    """The result checks of the module raise OracleMismatch, not assert."""

    def test_eigenvalue_targets_need_an_even_degree(self):
        with pytest.raises(OracleMismatch, match="even"):
            twists.eigenvalue_targets(3)

    def test_classify_needs_an_even_power_of_p(self, monkeypatch):
        monkeypatch.setattr(twists, "_datum_for", lambda head, datum: None)
        with pytest.raises(OracleMismatch, match="odd power"):
            classify_twists(CurveSpec(make_field(3), 3, (0, 1)))

    @pytest.mark.parametrize(
        "field,coeffs", [("F16", (0, 1)), ("F16:0x19", (0, 1)), ("F256:p=4", (0, 1))]
    )
    def test_a_moved_twist_count_stops_the_counting_route(self, monkeypatch, field, coeffs):
        ctx = parse_field_spec(field)
        head = CurveSpec(ctx, ctx.n, coeffs)
        moved = classify_twists(head, budget=0).maximal_twists[-1]
        true_count = twists.TwistClassification.twist_count
        monkeypatch.setattr(
            twists.TwistClassification, "twist_count",
            lambda tc, a: true_count(tc, a) + (a == moved),
        )
        counted = []
        original = count.trace_zero_count

        def recording(spec, *args, **kwargs):
            counted.append(spec.coeffs[0])
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(count, "trace_zero_count", recording)
        with pytest.raises(OracleMismatch, match="eigenvalue count .* != direct count"):
            classify_twists(head)
        field = ctx.subfield_elements(ctx.n)
        assert counted == field[: field.index(moved) + 1]  # stops at the moved twist

    def test_quadratic_extension_needs_an_even_degree(self, monkeypatch):
        monkeypatch.setattr(TwistDatum, "require", lambda self, upto: None)
        fd = TwistDatum(SkewPoly.from_coeffs(make_field(3), [1, 1]), 3)
        with pytest.raises(OracleMismatch, match="odd degree"):
            quadratic_extension_maximal(fd, 0)


def test_domain_errors_at_every_site():
    """Arguments outside an operation's domain raise DomainError, which
    is still a ValueError."""
    head = CurveSpec(F16, 4, (0, 1))
    fd = recover_head(head)
    wide = TwistDatum(SkewPoly.from_coeffs(F16, [1, 1]), 2)
    sites = [
        lambda: classify_twists(head, budget=0).twist_class(16),
        lambda: classify_twists(CurveSpec(F16, 4, (0, 8)), datum=fd),
        lambda: classify_twists(CurveSpec(F16, 4, (1, 1))),
        lambda: quadratic_extension_maximal(wide, 4),
        lambda: extremal_from_subspace(Fp2Subspace.from_vectors(F16, [1, W]), 0, 2),
        lambda: wide.twist_coefficient(4),
    ]
    for site in sites:
        with pytest.raises(DomainError):
            site()
    assert issubclass(DomainError, ValueError)
