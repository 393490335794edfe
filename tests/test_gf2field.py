"""Field-layer tests: contexts, subfields, linear algebra, subspaces."""

import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from aswcurves.errors import (
    AmbientTooSmall,
    CtxMismatch,
    DegreeMismatch,
    NoSolution,
    OracleMismatch,
    ParseError,
    ReduciblePolynomial,
    ZeroDivisor,
)
from aswcurves import bitvec, gf2field
from aswcurves.gf2field import (
    FieldCtx,
    Fp2Subspace,
    clmod,
    clmul,
    default_modulus,
    format_field_spec,
    intersect_spans,
    kernel_basis,
    linear_map,
    make_field,
    parse_field_spec,
    poly_is_irreducible,
    rref_basis,
    span_contains,
    span_elements,
    transport,
)
from reference import subfield_generator_by_scan

# Frozen modulus table: least irreducible bit pattern with constant term 1.
MODULI = {
    1: 0x3, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021,
    15: 0x8003, 16: 0x1002B, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x100001B,
    25: 0x2000009, 26: 0x400001B, 27: 0x8000027, 28: 0x10000003,
    29: 0x20000005, 30: 0x40000003, 31: 0x80000009, 32: 0x10000008D,
}


def test_modulus_table_frozen():
    for n, f in MODULI.items():
        assert default_modulus(n) == f


def test_modulus_table_matches_trial_division():
    # regenerate the small end of the table by plain trial division
    for n in range(1, 13):
        for f in range((1 << n) | 1, 1 << (n + 1), 2):
            if all(
                clmod(f, g) != 0
                for g in range(2, 1 << (n // 2 + 1))
                if g.bit_length() >= 2
            ):
                assert f == default_modulus(n)
                break


def test_irreducibility_edge_cases():
    assert poly_is_irreducible(0b111)
    assert not poly_is_irreducible(0b101)  # (x+1)^2
    assert not poly_is_irreducible(1)
    assert not poly_is_irreducible(0)
    with pytest.raises(ReduciblePolynomial):
        FieldCtx(2, poly=0b101)
    with pytest.raises(DegreeMismatch):
        FieldCtx(2, poly=0b1011)
    with pytest.raises(AmbientTooSmall):
        FieldCtx(33)
    with pytest.raises(DegreeMismatch):
        FieldCtx(4, p_log=3)


def test_field_axioms_exhaustive_small():
    for n in (1, 2, 3, 4):
        K = make_field(n)
        q = K.order
        for a in range(q):
            assert K.mul(a, 1) == a
            assert K.mul(a, 0) == 0
            if a:
                assert K.mul(a, K.inv(a)) == 1
            for b in range(q):
                assert K.mul(a, b) == K.mul(b, a)
                for c in range(q):
                    assert K.mul(a, K.mul(b, c)) == K.mul(K.mul(a, b), c)
                    assert K.mul(a, b ^ c) == K.mul(a, b) ^ K.mul(a, c)


def test_field_axioms_random_larger():
    rng = random.Random(1)
    for n in (8, 12, 16, 24, 32):
        K = make_field(n)
        for _ in range(200):
            a, b, c = (rng.randrange(K.order) for _ in range(3))
            assert K.mul(a, K.mul(b, c)) == K.mul(K.mul(a, b), c)
            assert K.mul(a, b ^ c) == K.mul(a, b) ^ K.mul(a, c)
            if a:
                assert K.mul(a, K.inv(a)) == 1
            assert K.sqr(a) == K.mul(a, a)
            assert K.sqrt(K.sqr(a)) == a


def test_frobenius():
    rng = random.Random(2)
    K = make_field(12)
    for _ in range(100):
        a, b = rng.randrange(K.order), rng.randrange(K.order)
        j = rng.randrange(-15, 16)
        assert K.frob(a ^ b, j) == K.frob(a, j) ^ K.frob(b, j)
        assert K.frob(K.frob(a, j), -j) == a
        assert K.frob(a, 1) == K.sqr(a)
    # fixed points of frob(d) are exactly the degree-d subfield
    for d in (1, 2, 3, 4, 6):
        fixed = [a for a in range(K.order) if K.frob(a, d) == a]
        assert fixed == K.subfield_elements(d)
        assert len(fixed) == 1 << d


@pytest.mark.parametrize(
    "n,poly,p_log",
    [(4, 0x13, 1), (4, 0x19, 1), (4, 0x1F, 1), (9, 0x211, 1), (32, None, 1),
     (8, None, 2), (12, None, 2), (6, None, 3), (12, None, 3)],
)
def test_frob_tables_match_repeated_squaring(n, poly, p_log):
    K = FieldCtx(n, poly, p_log)  # a fresh context: no table built yet
    rng = random.Random(n * 7 + p_log)
    samples = list(range(K.order)) if n <= 9 else [rng.randrange(K.order) for _ in range(20)]
    samples += [0, 1, K.order - 1]
    def squarings(a, j):
        for _ in range(j % n):
            a = clmod(clmul(a, a), K.poly)
        return a

    for j in range(2 * n, -2 * n - 1, -1):  # the first tables built are for large j
        for a in samples:
            assert K.frob(a, j) == squarings(a, j), (j, a)
    for i in range(-3, 4):
        for a in samples[:10]:
            assert K.frob_p(a, i) == squarings(a, i * p_log), (i, a)


@pytest.mark.parametrize("n,p_log", [(1, 1), (4, 1), (9, 1), (12, 2)])
def test_frob_map_is_the_cached_frobenius(n, p_log):
    K = FieldCtx(n, None, p_log)
    samples = range(K.order) if n <= 9 else random.Random(n).sample(range(K.order), 50)
    for j in (-n, -1, 0, 1, n - 1, n, n + 1, 2 * n):
        fmap = K.frob_map(j)
        assert fmap is K.frob_map(j + n)  # one map per class of j mod n
        for a in samples:
            assert fmap(a) == K.frob(a, j)
            if j % n == 0:
                assert fmap(a) == a  # F_2 contexts ask for j = 1 = n


def test_frob_p():
    K = make_field(8, p_log=2)
    rng = random.Random(3)
    for _ in range(50):
        a = rng.randrange(K.order)
        assert K.frob_p(a, 1) == K.pow(a, 4)
        assert K.frob_p(K.frob_p(a, -1), 1) == a


def test_trace_anchors():
    K = make_field(2)
    w = 2
    assert K.trace(w, 2, 1) == 1
    assert K.trace(1, 2, 1) == 0  # 1 + 1
    assert K.trace(0, 2, 1) == 0
    assert K.trace(3, 2, 1) == 1


def test_trace_properties():
    K = make_field(8)
    q = K.order
    rng = random.Random(4)
    # transitivity, codomain, linearity, kernel size
    seen = set()
    for a in range(q):
        t = K.trace(a, 8, 1)
        assert t in (0, 1)
        assert t == K.trace(K.trace(a, 8, 4), 4, 1)
        assert t == K.trace(K.trace(a, 8, 2), 2, 1)
        seen.add(t)
    assert seen == {0, 1}
    assert sum(1 for a in range(q) if K.trace(a, 8, 1) == 0) == q // 2
    for _ in range(50):
        a, b = rng.randrange(q), rng.randrange(q)
        assert K.trace(a ^ b, 8, 2) == K.trace(a, 8, 2) ^ K.trace(b, 8, 2)
        assert K.in_subfield(K.trace(a, 8, 2), 2)
    with pytest.raises(DegreeMismatch):
        K.trace(1, 8, 3)
    with pytest.raises(DegreeMismatch):
        K.trace(2, 4, 2)  # x is not in the degree-4 subfield of F_256


def frobenius_sum_trace(K, a, from_deg, to_deg):
    """The trace as the sum of the conjugates, squaring one step at a time."""
    t = 0
    for _ in range(from_deg // to_deg):
        t ^= a
        for _ in range(to_deg):
            a = clmod(clmul(a, a), K.poly)
    return t


@pytest.mark.parametrize(
    "n,poly,p_log",
    [(4, 0x13, 1), (4, 0x13, 2), (4, 0x19, 1), (4, 0x1F, 2), (9, 0x211, 1), (9, 0x211, 3),
     (32, None, 1), (32, None, 2)],
)
def test_trace_tables_match_the_frobenius_sum(n, poly, p_log):
    K = FieldCtx(n, poly, p_log)  # a fresh context: no table built yet
    rng = random.Random(n * 11 + p_log)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for from_deg in reversed(divisors):  # the first tables built are for large degrees
        for to_deg in (d for d in divisors if from_deg % d == 0):
            for a in subfield_samples(K, from_deg, rng):
                expected = frobenius_sum_trace(K, a, from_deg, to_deg)
                assert K.trace(a, from_deg, to_deg) == expected, (from_deg, to_deg, a)


def subfield_samples(K, deg, rng):
    """Every element of a subfield of degree <= 9, else 0, 1 and 40 random
    sums of its basis."""
    if deg <= 9:
        return K.subfield_elements(deg)
    basis = K.subfield_basis(deg)
    samples = [0, 1]
    for _ in range(40):
        v = 0
        for b in basis:
            v ^= b * rng.getrandbits(1)
        samples.append(v)
    return samples


@pytest.mark.parametrize("n,poly", [(4, 0x19), (9, 0x211), (32, None)])
def test_table_trace_keeps_its_degree_checks(n, poly):
    K = FieldCtx(n, poly)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for from_deg in divisors[:-1]:
        K.trace(1, from_deg, 1)  # build the tables, then leave the subfield
        outside = next(a for a in range(2, K.order) if not K.in_subfield(a, from_deg))
        with pytest.raises(DegreeMismatch):
            K.trace(outside, from_deg, 1)
    bad_pairs = [(from_deg, to_deg) for from_deg in range(1, n + 2) for to_deg in range(1, n + 2)
                 if from_deg % to_deg or n % from_deg]
    assert bad_pairs
    for from_deg, to_deg in bad_pairs:
        with pytest.raises(DegreeMismatch):
            K.trace(0, from_deg, to_deg)


# Fresh contexts of degree 1..9 under the default moduli and 0x19, 0x1f,
# 0x11b, 0x11d and 0x211, with every p_log that divides the degree: the
# cached Frobenius and trace maps are one byte table up to 8 bits and the
# byte-table closure at 9.
TABLE_PATH_CONTEXTS = [
    (n, poly, p_log)
    for n, poly in [*((n, None) for n in range(1, 10)),
                    (4, 0x19), (4, 0x1F), (8, 0x11B), (8, 0x11D), (9, 0x211)]
    for p_log in range(1, n + 1)
    if n % p_log == 0
]


@pytest.mark.parametrize("n,poly,p_log", TABLE_PATH_CONTEXTS)
def test_frobenius_and_trace_maps_match_squaring_at_every_element(n, poly, p_log):
    K = FieldCtx(n, poly, p_log)  # a fresh context: no map built yet
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    chains = [(f, t) for f in divisors for t in divisors if f % t == 0]
    steps = 2 * n // p_log
    for a in range(K.order):
        conj = [a]  # conj[k] = a^(2^k) for k < n
        for _ in range(n - 1):
            conj.append(clmod(clmul(conj[-1], conj[-1]), K.poly))
        for j in range(-2 * n, 2 * n + 1):
            assert K.frob(a, j) == conj[j % n], (a, j)
            assert K.frob_map(j)(a) == conj[j % n], (a, j)
        for i in range(-steps, steps + 1):
            assert K.frob_p(a, i) == conj[i * p_log % n], (a, i)
        assert (K.sqr(a), K.sqrt(a)) == (conj[1 % n], conj[-1]), a
        for d in divisors:
            assert K.in_subfield(a, d) == (conj[d % n] == a), (a, d)
        for from_deg, to_deg in chains:
            if conj[from_deg % n] == a:
                expected = 0
                for k in range(0, from_deg, to_deg):
                    expected ^= conj[k]
                assert K.trace(a, from_deg, to_deg) == expected, (a, from_deg, to_deg)


@pytest.mark.parametrize("n,poly,p_log", TABLE_PATH_CONTEXTS)
def test_table_path_keeps_the_element_domain(n, poly, p_log):
    K = FieldCtx(n, poly, p_log)
    ops = {
        **{f"frob {j}": lambda a, j=j: K.frob(a, j) for j in range(-2 * n, 2 * n + 1)},
        **{f"frob_p {i}": lambda a, i=i: K.frob_p(a, i) for i in range(-3, 4)},
        "sqr": K.sqr,
        "sqrt": K.sqrt,
    }
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for _ in range(2):  # before any map is built, then after
        for a in (1 << n, (1 << n) + 1, -1):
            for name, op in ops.items():
                with pytest.raises(CtxMismatch):
                    op(a)
                    pytest.fail(f"{name}({a:#x}) returned")
            assert not any(K.in_subfield(a, d) for d in divisors), a
        for op in ops.values():
            op(1)
        for d in divisors:
            K.in_subfield(1, d)


def _python_frames(fn, *args):
    """Names of the Python functions that run in fn(*args), fn first."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return names


@pytest.mark.parametrize("n,p_log", [(4, 2), (8, 1)])
def test_warm_scalar_frobenius_runs_in_one_python_frame(n, p_log):
    # F16:p=4 and F256: each op reads its cached map itself, and the map
    # is a byte table's lookup, which runs no Python code
    K, a = FieldCtx(n, None, p_log), 7
    calls = {"frob": (K.frob, a, 3), "frob_p": (K.frob_p, a, 1), "sqr": (K.sqr, a), "sqrt": (K.sqrt, a)}
    for name, (fn, *args) in calls.items():
        fn(*args)  # builds the map
        assert _python_frames(fn, *args) == [name]
    K.in_subfield(a, 2)
    assert _python_frames(K.in_subfield, a, 2) == ["in_subfield", "check_degrees"]
    assert _python_frames(K.frob_map(1), a) == []


@pytest.mark.parametrize("n,p_log", [(4, 2), (8, 1)])
def test_warm_trace_checks_its_degrees_once(n, p_log):
    # membership reads the cached Frobenius map inline, so only the one
    # degree check opens a frame besides `trace`
    K = FieldCtx(n, None, p_log)
    for a, deg in ((7, n), (1, 2)):
        K.trace(a, deg, 1)
        assert _python_frames(K.trace, a, deg, 1) == ["trace", "check_degrees"]
    with pytest.raises(DegreeMismatch, match="0x2 not in the degree-2 subfield"):
        K.trace(2, 2, 1)


F16 = make_field(4)
SUBFIELD_SITES = {
    "in_subfield": lambda d: F16.in_subfield(1, d),
    "subfield_basis": F16.subfield_basis,
    "subfield_elements": F16.subfield_elements,
    "trace-from": lambda d: F16.trace(0, d, 1),
    "trace-to": lambda d: F16.trace(0, 4, d),
    "solve_additive": lambda d: F16.solve_additive(lambda x: x, 0, d),
    "transport": lambda d: transport(F16, 1, make_field(8), d),
    "Fp2Subspace.in_subfield": lambda d: Fp2Subspace(F16, ()).in_subfield(d),
}


@pytest.mark.parametrize("deg", [0, -2])
@pytest.mark.parametrize("site", sorted(SUBFIELD_SITES))
def test_subfield_degrees_below_one_are_rejected(site, deg):
    # -2 divides 4 and a Frobenius step of -2 fixes F_4: only the check rejects it
    with pytest.raises(DegreeMismatch, match="subfield degrees need 1 <="):
        SUBFIELD_SITES[site](deg)


def test_subfield_structure():
    K = make_field(12)
    for d in (1, 2, 3, 4, 6, 12):
        elems = K.subfield_elements(d)
        assert len(elems) == 1 << d
        assert elems == sorted(elems)
        g = K.subfield_generator(d)
        # generator is a root of the default degree-d modulus
        m = default_modulus(d)
        acc = 0
        for bit in range(m.bit_length() - 1, -1, -1):
            acc = K.mul(acc, g) ^ ((m >> bit) & 1)
        assert acc == 0
    # subfield lattice: F_4 and F_8 inside F_4096 intersect in F_2
    f4 = set(K.subfield_elements(2))
    f8 = set(K.subfield_elements(3))
    assert f4 & f8 == {0, 1}


# (ambient degree, modulus) of the generator pins: every default modulus
# up to degree 16, three non-default ones, and F_{2^24}, whose degree-12
# subfield the `verify` jobs over F4096:0x1053 reach
GENERATOR_FIELDS = [(n, None) for n in range(1, 17)] + [(4, 0x19), (9, 0x211), (12, 0x1053)]


@pytest.mark.parametrize("n,poly", GENERATOR_FIELDS)
def test_subfield_generator_is_the_least_root(n, poly):
    for d in (d for d in range(1, n + 1) if n % d == 0):
        assert FieldCtx(n, poly).subfield_generator(d) == subfield_generator_by_scan(
            FieldCtx(n, poly), d
        ), (n, poly, d)


def test_subfield_generator_of_degree_12_in_f_2_24():
    assert FieldCtx(24).subfield_generator(12) == subfield_generator_by_scan(FieldCtx(24), 12)


def test_subfield_generator_raises_when_the_split_fails(monkeypatch):
    # one trace of a basis cannot tell six conjugates apart
    basis = FieldCtx.subfield_basis
    monkeypatch.setattr(FieldCtx, "subfield_basis", lambda self, deg: basis(self, deg)[:1])
    with pytest.raises(OracleMismatch, match="trace splitting left a degree-"):
        FieldCtx(12).subfield_generator(6)


def test_rref_canonical():
    rng = random.Random(5)
    for _ in range(100):
        vecs = [rng.randrange(1 << 10) for _ in range(rng.randrange(1, 6))]
        basis = rref_basis(vecs)
        # canonical: reduced, ordered, and stable under re-running
        assert rref_basis(basis) == basis
        assert list(basis) == sorted(basis, reverse=True)
        leads = [v.bit_length() - 1 for v in basis]
        assert len(set(leads)) == len(leads)
        for i, v in enumerate(basis):
            for j, w in enumerate(basis):
                if i != j:
                    assert not (w >> (v.bit_length() - 1)) & 1
        # same span
        assert set(span_elements(basis)) == set(span_elements(rref_basis(vecs * 2)))
        for v in vecs:
            assert span_contains(basis, v)


def test_solve_linear_lexmin():
    rng = random.Random(6)
    nbits = 6
    for _ in range(50):
        images = [rng.randrange(1 << nbits) for _ in range(nbits)]

        def apply(x):
            acc = 0
            for j in range(nbits):
                if (x >> j) & 1:
                    acc ^= images[j]
            return acc

        K = make_field(nbits)  # its degree-nbits subfield is all of F_2^nbits
        targets = {apply(x) for x in range(1 << nbits)}
        for t in range(1 << nbits):
            if t in targets:
                sol = K.solve_additive(apply, t, nbits)
                assert apply(sol) == t
                # lexicographically least over the whole solution set
                best = min(x for x in range(1 << nbits) if apply(x) == t)
                assert sol == best
            else:
                with pytest.raises(NoSolution):
                    K.solve_additive(apply, t, nbits)
        ker = kernel_basis(images)
        assert set(span_elements(ker)) == {x for x in range(1 << nbits) if apply(x) == 0}


def test_solve_additive_in_subfield():
    K = make_field(8)
    for deg, step in ((4, 2), (8, 4), (8, 1)):
        fn = lambda x: K.frob(x, step) ^ x  # noqa: E731
        sub = K.subfield_elements(deg)
        image = {fn(x) for x in sub}
        for target in range(K.order):
            if target in image:
                least = min(x for x in sub if fn(x) == target)
                assert K.solve_additive(fn, target, deg) == least
            else:
                with pytest.raises(NoSolution):
                    K.solve_additive(fn, target, deg)
    F16 = make_field(4)
    fn = lambda x: F16.frob(x, 2) ^ x  # noqa: E731
    assert F16.solve_additive(fn, fn(2), 4) == 2


def test_intersect_spans():
    rng = random.Random(7)
    for _ in range(100):
        a = rref_basis(rng.randrange(1, 1 << 8) for _ in range(rng.randrange(4)))
        b = rref_basis(rng.randrange(1, 1 << 8) for _ in range(rng.randrange(4)))
        got = set(span_elements(intersect_spans(a, b)))
        want = set(span_elements(a)) & set(span_elements(b))
        assert got == want


def test_intersect_spans_of_dependent_lists():
    # Zero, repeated and dependent vectors, lists longer than the width.
    rng = random.Random(8)
    for _ in range(100):
        a = [rng.randrange(1 << 6) for _ in range(rng.randrange(9))]
        b = [rng.randrange(1 << 6) for _ in range(rng.randrange(9))]
        if a and rng.random() < 0.3:
            b.append(a[0])
        got = intersect_spans(a, b)
        want = set(span_elements(rref_basis(a))) & set(span_elements(rref_basis(b)))
        assert got == rref_basis(got)
        assert set(span_elements(got)) == want


@pytest.mark.parametrize("nimages", [0, 1, 5, 8, 9, 13, 16, 31, 32])
def test_linear_map_is_the_sum_of_images(nimages):
    rng = random.Random(nimages)
    images = [rng.getrandbits(40) for _ in range(nimages)]
    fmap = linear_map(images)

    def bit_serial(x):
        out = 0
        for j, img in enumerate(images):
            if (x >> j) & 1:
                out ^= img
        return out

    # Inputs reach 8 bits past the last image, in and past its last byte.
    width = nimages + 8
    xs = [0, (1 << width) - 1, 1 << nimages, (1 << width) - (1 << nimages)]
    xs += [rng.getrandbits(width) for _ in range(200)]
    for x in xs:
        assert fmap(x) == bit_serial(x), x


def test_result_checks_raise_with_asserts_stripped(monkeypatch):
    K = make_field(4, p_log=2)
    # one vector, not closed under F_4: F_p-dimension 0
    with pytest.raises(OracleMismatch):
        Fp2Subspace(K, (1,)).fp_basis()
    # scalars spanning only F_2 leave an odd F_2-dimension
    monkeypatch.setattr(FieldCtx, "subfield_basis", lambda self, deg: (1,))
    with pytest.raises(OracleMismatch):
        Fp2Subspace.from_vectors(K, [1])


def test_fp2subspace_f2():
    K = make_field(4)
    V = Fp2Subspace.from_vectors(K, [2, 3])
    assert V.dim2 == 2 and V.dim_p == 2
    assert V.elements() == [0, 1, 2, 3]
    assert V.contains(1) and not V.contains(4)
    W = Fp2Subspace.from_vectors(K, [4])
    S = V.add(W)
    assert S.dim2 == 3
    assert V.intersect(W).dim2 == 0
    assert V.is_subspace_of(S) and not S.is_subspace_of(V)


def test_fp2subspace_f4_closure():
    # over p = 4 a single vector spans a 2-dimensional F_2 space
    K = make_field(8, p_log=2)
    v = 57
    V = Fp2Subspace.from_vectors(K, [v])
    assert V.dim_p == 1 and V.dim2 == 2
    f4 = K.subfield_elements(2)
    assert sorted(K.mul(c, v) for c in f4) == V.elements()
    # F_p-closure holds for the basis of any from_vectors result
    rng = random.Random(8)
    for _ in range(20):
        vecs = [rng.randrange(K.order) for _ in range(2)]
        W = Fp2Subspace.from_vectors(K, vecs)
        assert W.dim2 == 2 * W.dim_p
        for b in W.basis:
            for c in f4:
                assert W.contains(K.mul(c, b))
        fb = W.fp_basis()
        assert len(fb) == W.dim_p
        regen = Fp2Subspace.from_vectors(K, fb)
        assert regen == W


def test_fp2subspace_ctx_mismatch():
    K1, K2 = make_field(4), make_field(8)
    V1 = Fp2Subspace.from_vectors(K1, [2])
    V2 = Fp2Subspace.from_vectors(K2, [2])
    with pytest.raises(CtxMismatch):
        V1.intersect(V2)
    with pytest.raises(CtxMismatch):
        V1.add(V2)


def test_fp2subspace_rejects_non_elements():
    K = make_field(4)
    with pytest.raises(CtxMismatch, match="0x10 is not an element of F_"):
        Fp2Subspace.from_vectors(K, [0x10])
    with pytest.raises(CtxMismatch):
        Fp2Subspace.from_vectors(make_field(4, None, 2), [1, -1])


def test_subspace_subfield_helpers():
    K = make_field(8)
    V = Fp2Subspace.from_vectors(K, K.subfield_basis(4))
    assert V.in_subfield(4) and not V.in_subfield(2)
    W = Fp2Subspace.from_vectors(K, list(range(1, 9)))
    inter = W.intersect_subfield(2)
    assert all(K.in_subfield(v, 2) for v in inter.elements())


def test_transport_is_field_embedding():
    src = make_field(4)
    for dst_n in (4, 8, 12):
        dst = make_field(dst_n)
        rng = random.Random(9)
        for _ in range(30):
            a, b = rng.randrange(16), rng.randrange(16)
            fa = transport(src, a, dst, 4)
            fb = transport(src, b, dst, 4)
            assert transport(src, a ^ b, dst, 4) == fa ^ fb
            assert transport(src, src.mul(a, b), dst, 4) == dst.mul(fa, fb)
        assert transport(src, 0, dst, 4) == 0
        assert transport(src, 1, dst, 4) == 1
    # whole-field transport into the same context is the identity
    assert transport(src, 7, make_field(4), 4) == 7
    with pytest.raises(DegreeMismatch):
        transport(src, 7, make_field(6), 4)


def test_transport_subfield_roundtrip():
    big, small = make_field(8), make_field(4)
    for a in big.subfield_elements(4):
        down = transport(big, a, small, 4)
        assert transport(small, down, big, 4) == a


def test_parse_format_field_spec():
    ctx = parse_field_spec("F16")
    assert ctx.n == 4 and ctx.poly == 0x13 and ctx.p_log == 1
    ctx = parse_field_spec("F16:0x13:p=4")
    assert ctx.n == 4 and ctx.p_log == 2
    assert format_field_spec(ctx) == "F16:p=4"
    ctx = parse_field_spec("F256:0x11d")
    assert ctx.poly == 0x11D
    assert format_field_spec(ctx) == "F256:0x11d"
    assert parse_field_spec(format_field_spec(ctx)) == ctx
    for bad in ("F15", "G16", "F16:p=3", "F16:0x14", "F0", "F16:0x1b:p=4"):
        with pytest.raises((ParseError, ReduciblePolynomial, DegreeMismatch)):
            parse_field_spec(bad)


def test_check_rejects_out_of_range():
    K = make_field(4)
    assert K.check(15) == 15
    with pytest.raises(CtxMismatch):
        K.check(16)
    with pytest.raises(CtxMismatch):
        K.check(-1)


@pytest.mark.parametrize(
    "n,poly",
    [(4, 0x13), (4, 0x19), (4, 0x1F), (8, None), (9, 0x211), (12, None), (16, 0x1100B), (24, None), (32, None)],
)
def test_mul_and_sqr_reduce_the_carryless_product(n, poly):
    # Dense moduli (0x1f) take many reduction rounds, sparse ones few.
    K = make_field(n, poly)
    rng = random.Random(n)
    for _ in range(400):
        a, b = rng.getrandbits(n), rng.getrandbits(n)
        assert K.mul(a, b) == clmod(clmul(a, b), K.poly)
        assert K.sqr(a) == clmod(clmul(a, a), K.poly)
    assert K.sqr((1 << n) - 1) == K.mul((1 << n) - 1, (1 << n) - 1)


def fermat_inverse(K, a):
    """a^(2^n - 2) by square-and-multiply on the carry-less product."""
    r, e = 1, K.order - 2
    while e:
        if e & 1:
            r = clmod(clmul(r, a), K.poly)
        a = clmod(clmul(a, a), K.poly)
        e >>= 1
    return r


@pytest.mark.parametrize(
    "n,poly",
    [(1, None), (2, None), (3, None), (4, 0x13), (4, 0x19), (4, 0x1F), (9, 0x211),
     (16, None), (31, None), (32, None)],
)
def test_inv_matches_fermat(n, poly):
    K = FieldCtx(n, poly)  # a fresh context: the Frobenius maps are built here
    rng = random.Random(n)
    samples = range(1, K.order) if n <= 9 else [rng.randrange(1, K.order) for _ in range(200)]
    for a in [*samples, K.order - 1]:
        assert K.inv(a) == fermat_inverse(K, a), a
        assert K.mul(a, K.inv(a)) == 1
    with pytest.raises(ZeroDivisor):
        K.inv(0)


# -- log/antilog tables up to degree 16 ----------------------------------------

# x generates F_q^* modulo 0x13 and 0x19 but not modulo 0x1f (order 5)
# or 0x11b (order 51), where the tables take the least primitive element
@pytest.mark.parametrize("n,poly", [(n, None) for n in range(1, 9)] + [(4, 0x19), (4, 0x1F)])
def test_table_mul_is_the_carryless_product_on_every_pair(n, poly):
    K = make_field(n, poly)
    for a in range(K.order):
        for b in range(K.order):
            assert K.mul(a, b) == clmod(clmul(a, b), K.poly), (a, b)


@pytest.mark.parametrize(
    "n,poly", [(9, 0x211), (12, 0x1053), (16, None), (16, 0x1100B), (24, None), (32, None)]
)
def test_mul_is_the_carryless_product_on_random_pairs(n, poly):
    K = make_field(n, poly)  # above degree 16 the product stays bit-serial
    rng = random.Random(n ^ K.poly)
    for _ in range(20_000):
        a, b = rng.getrandbits(n), rng.getrandbits(n)
        assert K.mul(a, b) == clmod(clmul(a, b), K.poly), (a, b)


@pytest.mark.parametrize("n,poly", [(n, None) for n in range(1, 13)] + [(8, 0x11D), (12, 0x1053)])
def test_exp_inverts_log(n, poly):
    K = make_field(n, poly)
    log, exp = K._load_tables()
    assert (len(log), len(exp)) == (K.order, 2 * (K.order - 1))
    assert [exp[log[a]] for a in range(1, K.order)] == list(range(1, K.order))


@pytest.mark.parametrize("n,poly", [(1, None), (4, 0x1F), (8, None), (9, 0x211), (16, None), (24, None)])
def test_pow_matches_square_and_multiply(n, poly):
    K = make_field(n, poly)
    rng = random.Random(n)
    for a in [0, 1, K.order - 1] + [rng.randrange(K.order) for _ in range(20)]:
        for e in (0, 1, 2, 5, K.order - 1, K.order, 3 * K.order + 7, -1, -6):
            if a == 0 and e < 0:
                with pytest.raises(ZeroDivisor):
                    K.pow(a, e)
                continue
            base, r = (a if e >= 0 else fermat_inverse(K, a)), 1
            for bit in bin(abs(e))[2:]:
                r = clmod(clmul(r, r), K.poly)
                if bit == "1":
                    r = clmod(clmul(r, base), K.poly)
            assert K.pow(a, e) == r, (a, e)


@pytest.mark.parametrize("n", [1, 4, 8, 16, 24])
def test_operands_outside_the_field_fail_check(n):
    # one element domain: no operation reduces, truncates or wraps an int
    # outside [0, 2^n), whether mul reads tables or not
    K = make_field(n)
    calls = {
        "mul": lambda a: K.mul(a, 1),
        "mul (right)": lambda a: K.mul(1, a),
        "inv": K.inv,
        "pow": lambda a: K.pow(a, 3),
        "pow 0": lambda a: K.pow(a, 0),
        "pow -2": lambda a: K.pow(a, -2),
        "frob": lambda a: K.frob(a, 1),
        "sqr": K.sqr,
        "sqrt": K.sqrt,
        "frob_p": lambda a: K.frob_p(a, 1),
    }
    for a in (1 << n, (1 << n) | 1, (1 << (n + 8)) - 1, -1):
        for name, call in calls.items():
            with pytest.raises(CtxMismatch, match=f"is not an element of F_{{2\\^{n}}}"):
                call(a)
                pytest.fail(f"{name}({a:#x}) returned")
        assert not K.in_subfield(a, n)
    assert K.mul((1 << n) - 1, K.inv((1 << n) - 1)) == 1


@pytest.mark.parametrize("n", [8, 24])
@pytest.mark.parametrize("call", ["mul(3, -1)", "inv(-1)"])
def test_negative_operand_fails_check_instead_of_looping(n, call):
    # clmul never returns on a negative multiplier, so the call runs in a
    # child interpreter, where a hang fails at the timeout
    program = (
        "from aswcurves.errors import CtxMismatch\n"
        "from aswcurves.gf2field import make_field\n"
        "try:\n"
        f"    make_field({n}).{call}\n"
        "except CtxMismatch as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    run = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=10
    )
    assert run.stdout == f"-0x1 is not an element of F_{{2^{n}}}\n", run.stderr


def test_contexts_with_one_modulus_share_their_tables():
    K, K4 = FieldCtx(16), FieldCtx(16, None, 4)
    assert K._tables is None  # built on the first product
    assert K.mul(3, 5) == 15 and K4.inv(1) == 1
    assert K._tables is K4._tables is make_field(16)._load_tables()


def test_building_the_degree_16_tables_stays_compact():
    # log and exp take 2 * 2^16 + 4 * (2^16 - 1) bytes
    tracemalloc.start()
    try:
        gf2field._log_tables.__wrapped__(16, default_modulus(16))  # uncached
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 450_000


@pytest.mark.parametrize(
    "name,fake",
    [("_prime_divisors", lambda n: []), ("_clpowmod", lambda a, e, m: 1)],
    ids=["1 passes the order test", "nothing passes it"],
)
def test_table_build_raises_without_a_generator(monkeypatch, name, fake):
    monkeypatch.setattr(gf2field, name, fake)
    with pytest.raises(OracleMismatch, match="no generator of F_q"):
        gf2field._log_tables.__wrapped__(8, 0x11B)


def test_repeated_transport_builds_no_second_eliminator(monkeypatch):
    built = []

    class Counted(gf2field._Eliminator):
        def __init__(self, images, sources):
            built.append(len(images))
            super().__init__(images, sources)

    monkeypatch.setattr(gf2field, "_Eliminator", Counted)
    src, dst = make_field(6), make_field(12, 0x1053)
    a, b = src.subfield_elements(3)[5:7]
    fa, fb = transport(src, a, dst, 3), transport(src, b, dst, 3)
    before = len(built)
    assert (transport(src, a, dst, 3), transport(src, b, dst, 3)) == (fa, fb)
    assert transport(src, a ^ b, dst, 3) == fa ^ fb
    assert len(built) == before
    with pytest.raises(DegreeMismatch):
        transport(src, 2, dst, 3)


def test_bitvec_matches_scalar():
    import numpy as np

    for n, p_log in ((4, 1), (8, 2), (12, 1)):
        K = make_field(n, p_log=p_log)
        rng = random.Random(10)
        size = min(K.order, 1 << 10)
        a = np.array([rng.randrange(K.order) for _ in range(size)], dtype=np.uint64)
        b = np.array([rng.randrange(K.order) for _ in range(size)], dtype=np.uint64)
        prod = bitvec.field_mul(K, a, b)
        for i in range(0, size, 37):
            assert int(prod[i]) == K.mul(int(a[i]), int(b[i]))
        images = K.linear_images(lambda v: K.frob(v, 1))
        sq = bitvec.apply_linear(bitvec.byte_tables(images), 0, size)
        for i in range(0, size, 41):
            assert int(sq[i]) == clmod(clmul(i, i), K.poly)
