"""The byte-table quadratic-form oracles against the per-element kernels.

The references below are the straightforward evaluations: a linear map
one bit at a time, x*R(x) by vectorized field multiplication followed
by the sum of its conjugates, and the explicit shape of the length-2
trace over the whole field.  The fast kernels must reproduce them exactly.
"""

import hashlib
import random
import sys
import tracemalloc

import numpy as np
import pytest

from aswcurves import bitvec
from aswcurves.curves import CurveSpec, brute_count, count, psi_sum, trace_zero_count
from aswcurves.gf2field import make_field
from aswcurves.witt2 import q_exponent_table
from reference import quotient_curve


def apply_linear_bitloop(images, x):
    out = np.zeros_like(x)
    one = np.uint64(1)
    for j, img in enumerate(images):
        if img:
            out ^= ((x >> np.uint64(j)) & one) * np.uint64(img)
    return out


def byte_tables_by_concatenation(images):
    padded = list(images) + [0] * (-len(images) % 8)
    tables = []
    for lo in range(0, len(padded), 8):
        table = np.zeros(1, dtype=np.uint64)
        for img in padded[lo : lo + 8]:
            table = np.concatenate((table, table ^ np.uint64(img)))
        tables.append(table)
    return tables


def trace_zeros_by_products(spec, m, to_degs):
    """{to_deg: #{x : Tr(x*R(x)) = 0}} by multiplying out x*R(x)."""
    deg = spec.q_deg * m
    full = spec
    if spec.ctx.n != deg:
        full = spec.transport_to(make_field(deg, None, spec.ctx.p_log))
    ctx = full.ctx
    xs = np.arange(1 << ctx.n, dtype=np.uint64)
    prod = bitvec.field_mul(ctx, xs, apply_linear_bitloop(ctx.linear_images(full.r_skew()), xs))
    zeros = {}
    for to_deg in to_degs:
        tr_images = ctx.linear_images(lambda x: conjugate_sum(ctx, x, to_deg))
        zeros[to_deg] = int(np.count_nonzero(apply_linear_bitloop(tr_images, prod) == 0))
    return zeros


def conjugate_sum(ctx, x, to_deg):
    """Tr_{Q/2^to_deg}(x) as x + x^(2^to_deg) + ..., one squaring at a time."""
    t = 0
    for _ in range(ctx.n // to_deg):
        t ^= x
        for _ in range(to_deg):
            x = ctx.sqr(x)
    return t


def q_exponent_table_by_shape(deg):
    K = make_field(deg)
    x = np.arange(1 << deg, dtype=np.uint64)
    conj = x.copy()
    s = np.zeros_like(x)
    e2 = np.zeros_like(x)
    for _ in range(deg):
        e2 ^= bitvec.field_mul(K, s, conj)
        s ^= conj
        conj = bitvec.field_mul(K, conj, conj)
    assert int((s | e2).max()) <= 1
    return (s + 2 * e2).astype(np.uint8)


def parity_bitloop(x):
    out = np.zeros(x.shape, dtype=np.uint64)
    for j in range(64):
        out ^= (x >> np.uint64(j)) & np.uint64(1)
    return out.astype(np.uint8)


def kernel_ranges(n, rng):
    """[lo, hi) ranges of F_{2^n} that the range kernel accepts: lo a
    multiple of 256, above 0 where the field has room, and widths under
    256 as well as multiples of 256."""
    size = 1 << n
    ranges = [(0, min(size, 1 << 12)), (0, min(size, 37)), (0, 1)]
    if size > 256:
        lo = rng.randrange(1, size >> 8) << 8
        ranges += [(lo, lo + 1), (lo, lo + 200), (lo, min(size, lo + 3 * 256)), (size - 256, size)]
    return ranges


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 24, 32])
def test_apply_linear_matches_bitloop(n):
    """Linear and affine maps (l XORed into every entry of table 0, as
    the fused count pass builds them) on ranges of the field."""
    rng = random.Random(n)
    images = [rng.getrandbits(32) | (1 << 31) for _ in range(n)]
    images[n // 2] = 0
    tables = bitvec.byte_tables(images)
    ell = rng.getrandbits(32)
    affine = [tables[0] ^ np.uint64(ell), *tables[1:]]
    for lo, hi in kernel_ranges(n, rng):
        x = np.arange(lo, hi, dtype=np.uint64)
        expected = apply_linear_bitloop(images, x)
        assert np.array_equal(bitvec.apply_linear(tables, lo, hi), expected), (lo, hi)
        assert np.array_equal(bitvec.apply_linear(affine, lo, hi), expected ^ np.uint64(ell)), (lo, hi)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 24, 32])
def test_quadratic_and_linear_parity_match_bitloop(n):
    rng = random.Random(50 + n)
    images = [rng.getrandbits(n) for _ in range(n)]
    tables = bitvec.byte_tables(images)
    ell = rng.getrandbits(n)
    affine = [tables[0] ^ np.uint64(ell), *tables[1:]]
    for lo, hi in kernel_ranges(n, rng):
        x = np.arange(lo, hi, dtype=np.uint64)
        ux = apply_linear_bitloop(images, x)
        for got, expected in (
            (bitvec.quadratic_parity(tables, lo, hi), parity_bitloop(x & ux)),
            (bitvec.quadratic_parity(affine, lo, hi), parity_bitloop(x & (ux ^ np.uint64(ell)))),
            (bitvec.linear_parity(ell, lo, hi), parity_bitloop(x & np.uint64(ell))),
        ):
            assert got.dtype == np.uint8 and got.shape == (hi - lo,)
            assert np.array_equal(got, expected), (lo, hi)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 17, 24, 32, 64])
def test_byte_tables_match_concatenation(n):
    rng = random.Random(100 + n)
    images = [rng.getrandbits(64) | (1 << 63) for _ in range(n)]
    if n:
        images[n // 2] = 0
    fast = bitvec.byte_tables(images)
    reference = byte_tables_by_concatenation(images)
    assert fast.dtype == np.uint64
    assert len(fast) == len(reference)
    for row, table in zip(fast, reference):
        assert np.array_equal(row, table)


def test_apply_linear_ignores_bits_past_the_images():
    tables = bitvec.byte_tables([1, 2, 4])
    for lo in (0, 0x100, 1 << 40):
        assert bitvec.apply_linear(tables, lo, lo + 256).tolist() == [x & 7 for x in range(256)]


def test_quadratic_parity_is_x_transpose_u_x():
    rng = random.Random(5)
    n = 11
    images = [rng.getrandbits(n) for _ in range(n)]
    tables = bitvec.byte_tables(images)
    expected = [
        sum((v >> i) & (v >> j) & (images[j] >> i) for i in range(n) for j in range(n)) & 1
        for v in range(1 << n)
    ]
    assert bitvec.quadratic_parity(tables, 0, 1 << n).tolist() == expected
    for lo, hi in ((512, 768), (1280, 1300), (0, 5)):
        assert bitvec.quadratic_parity(tables, lo, hi).tolist() == expected[lo:hi]


def test_q_exponent_table_peak_memory_stays_near_its_output():
    # the 2^20-entry table is 1 MB; the 2^16-element slices add the rest
    q_exponent_table(20)  # maps built once per context stay out of the peak
    tracemalloc.start()
    try:
        q_exponent_table(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000


# (ambient degree, q_deg, p_log, modulus): non-default moduli, p = 4 and
# p = 8, and ambient fields wider than F_q.
CONTEXTS = [
    (4, 4, 1, 0x19),
    (9, 9, 1, 0x211),
    (8, 8, 2, None),
    (6, 6, 3, None),
    (8, 4, 1, None),
    (12, 6, 1, None),
    (12, 4, 2, None),
    (16, 8, 2, None),
]


def _random_specs(n, q_deg, p_log, poly, how_many):
    ctx = make_field(n, poly, p_log)
    elements = ctx.subfield_elements(q_deg)
    rng = random.Random(n * 1000 + q_deg * 10 + p_log)
    specs = []
    for k in range(how_many):
        e = 1 + k % 3
        coeffs = [rng.choice(elements) for _ in range(e)] + [rng.choice(elements[1:])]
        specs.append(CurveSpec(ctx, q_deg, tuple(coeffs)))
    return specs


@pytest.mark.parametrize("n,q_deg,p_log,poly", CONTEXTS)
def test_trace_zero_count_matches_products(n, q_deg, p_log, poly):
    for spec in _random_specs(n, q_deg, p_log, poly, 10):
        for m in (1, 2):
            to_degs = sorted({1, p_log, q_deg * m})
            expected = trace_zeros_by_products(spec, m, to_degs)
            got = {d: trace_zero_count(spec, m, d, budget=1 << 18) for d in to_degs}
            assert got == expected, (spec, m)


def _two_heads(n, q_deg, p_log, poly):
    """Two head curves with different tails and 8 linear coefficients
    (0 among them) of the degree-q_deg subfield."""
    ctx = make_field(n, poly, p_log)
    elements = ctx.subfield_elements(q_deg)
    rng = random.Random(n * 100 + q_deg * 7 + p_log)
    tails = [(rng.choice(elements[1:]),), (rng.choice(elements), rng.choice(elements[1:]))]
    heads = [CurveSpec(ctx, q_deg, (0,) + tail) for tail in tails]
    coefficients = [0] + rng.sample(elements[1:], 7)
    return heads, coefficients


@pytest.mark.parametrize("n,q_deg,p_log,poly", CONTEXTS)
def test_twist_family_counts_match_products(n, q_deg, p_log, poly):
    """The twists of one head share its forms: counts of head A, B, A
    twists in turn, with m and to_deg changing between the runs, each
    against the product reference."""
    (head_a, head_b), coefficients = _two_heads(n, q_deg, p_log, poly)
    expected = {}
    for m in (1, 2):
        to_degs = sorted({1, p_log, q_deg * m})
        for which, head in (("A", head_a), ("B", head_b)):
            for a in coefficients:
                expected[which, m, a] = trace_zeros_by_products(head.with_a0(a), m, to_degs)
    runs = [(m, d) for m in (1, 2) for d in sorted({1, p_log, q_deg * m})]
    for m, to_deg in runs + [(1, 1)]:  # and back from m = 2 to m = 1
        for which, head in (("A", head_a), ("B", head_b), ("A", head_a)):
            for a in coefficients:
                got = trace_zero_count(head.with_a0(a), m, to_deg, budget=1 << 18)
                assert got == expected[which, m, a][to_deg], (which, m, to_deg, a)


# (ambient degree, q_deg, p_log, modulus) of the multi-form counts: p = 4
# and p = 8, the moduli 0x19 and 0x11d and default ones, and ambients
# wider than F_q
QUOTIENT_CONTEXTS = [
    (4, 4, 2, 0x19),
    (8, 8, 2, 0x11D),
    (8, 4, 2, 0x11D),
    (6, 6, 3, None),
    (12, 6, 3, None),
    (12, 4, 2, None),
]


@pytest.mark.parametrize("n,q_deg,p_log,poly", QUOTIENT_CONTEXTS)
def test_multi_form_counts_match_the_quotient_over_f2(n, q_deg, p_log, poly):
    """For p > 2 a count reads several trace forms, one per w in an
    F_2-basis of F_p; the curve over F_2 below it reads one, and the two
    counts differ by the factor p - 1 (`quotient_curve`)."""
    for spec in _random_specs(n, q_deg, p_log, poly, 8):
        quotient = quotient_curve(spec)
        for m in (1, 2):
            middle = spec.q**m + 1
            got = brute_count(spec, m) - middle
            assert got == (spec.p - 1) * (brute_count(quotient, m) - middle), (spec, m)


# (ambient degree, q_deg, p_log, modulus, m, chunk, threads) of the
# fused first-count kernel (run here below its least universe, 2^16 + 1),
# which splits each x into high bytes | low byte:
# universes of 2^1..2^7 elements, below one 256-entry low byte; chunks of
# 2^8 (None: the module's) over 2^10 and 2^12 universes; p = 4 and p = 8,
# where each count has several forms; ambients wider than F_q; and two
# threads over several chunks
KERNEL_CASES = [
    *[(d, d, 1, None, 1, None, 1) for d in range(1, 8)],
    (3, 3, 1, 0xD, 2, None, 1),
    (10, 10, 1, None, 1, 1 << 8, 1),
    (12, 12, 1, None, 1, 1 << 8, 2),
    (6, 6, 2, None, 2, 1 << 8, 2),
    (12, 4, 2, None, 2, None, 1),
    (12, 6, 3, None, 1, None, 1),
    (9, 3, 3, 0x211, 2, 1 << 8, 2),
    (12, 6, 1, 0x1053, 1, 1 << 8, 2),
]


@pytest.mark.parametrize("n,q_deg,p_log,poly,m,chunk,threads", KERNEL_CASES)
def test_first_count_kernel_matches_products(
    monkeypatch, n, q_deg, p_log, poly, m, chunk, threads
):
    """Each spec with a0 = 0 and with a0 != 0, whose l_w sits in entry 0
    of table 0; every count is the first of its head."""
    monkeypatch.setattr(count, "_SMALL", 0)
    if chunk is not None:
        monkeypatch.setattr(count, "_CHUNK", chunk)
    rng = random.Random(n * 31 + q_deg * 7 + m)
    elements = make_field(n, poly, p_log).subfield_elements(q_deg)
    to_degs = sorted({1, p_log, q_deg * m})
    for head in _random_specs(n, q_deg, p_log, poly, 4):
        for spec in (head.with_a0(0), head.with_a0(rng.choice(elements[1:]))):
            expected = trace_zeros_by_products(spec, m, to_degs)
            for to_deg in to_degs:
                count._head_tables.cache_clear()
                got = trace_zero_count(spec, m, to_deg, budget=1 << 18, threads=threads)
                assert got == expected[to_deg], (spec, m, to_deg)


# tracemalloc peak, in bytes, of one first count over F_{2^20} with the
# kernel that looked up every byte table at every x (its 2^20-element
# temporaries: the chunk, the image and a fancy-index temporary)
PER_BYTE_KERNEL_PEAK = 26_293_577


def test_first_count_peak_memory_stays_below_the_per_byte_kernel():
    spec = CurveSpec(make_field(20), 20, (0x5, 0, 0x3))
    trace_zero_count(spec)  # maps built once per context stay out of the peak
    count._head_tables.cache_clear()
    tracemalloc.start()
    try:
        trace_zero_count(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PER_BYTE_KERNEL_PEAK


# (ambient degree, q_deg, p_log, modulus) of the repeated-count checks:
# p = 2 under a non-default modulus, p = 4 and p = 8, and a non-default
# ambient wider than F_q
REPEAT_CONTEXTS = [(4, 4, 1, 0x19), (4, 4, 2, None), (6, 6, 3, None), (8, 4, 1, 0x11D)]


def _head_entry(spec, m, to_deg):
    """The head entry of spec's count over F_{q^m} to degree to_deg."""
    full = spec.over(m)
    return count._head_tables(full.ctx, full.q_deg, full.coeffs[1:], to_deg)


def _stored_parities(spec, m, to_deg):
    return _head_entry(spec, m, to_deg).parities


def fused_count(spec, m, to_deg):
    """spec's count over F_{q^m} to degree to_deg by the fused pass of a
    first count, whatever the size of its universe."""
    count._head_tables.cache_clear()
    small, count._SMALL = count._SMALL, 0
    try:
        return trace_zero_count(spec, m, to_deg)
    finally:
        count._SMALL = small
        count._head_tables.cache_clear()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n,q_deg,p_log,poly", REPEAT_CONTEXTS)
def test_repeated_twist_counts_match_the_fused_pass(n, q_deg, p_log, poly, m):
    """Every twist of two heads, counted in field order, reversed and
    with the heads interleaved, so that every count reads the head's
    stored parities: each equals the fused pass and the product
    reference."""
    (head_a, head_b), _ = _two_heads(n, q_deg, p_log, poly)
    heads = {"A": head_a, "B": head_b}
    field = make_field(n, poly, p_log).subfield_elements(q_deg)
    to_degs = sorted({1, p_log})
    products = {
        (which, a): trace_zeros_by_products(head.with_a0(a), m, to_degs)
        for which, head in heads.items()
        for a in field
    }
    runs = [("A", a) for a in field] + [("A", a) for a in reversed(field)]
    runs += [(which, a) for a in field for which in "BA"]
    for to_deg in to_degs:
        fused = {}
        for which, a in products:
            fused[which, a] = fused_count(heads[which].with_a0(a), m, to_deg)
            assert fused[which, a] == products[which, a][to_deg], (which, a, to_deg)
        for which, a in runs:
            got = trace_zero_count(heads[which].with_a0(a), m, to_deg)
            assert got == fused[which, a], (which, a, to_deg)
        for head in heads.values():
            assert _stored_parities(head, m, to_deg) is not None


@pytest.mark.parametrize("n", range(13))
def test_bit_columns_match_a_bit_loop(n):
    expected = [sum(1 << x for x in range(1 << n) if x >> k & 1) for k in range(n)]
    assert list(bitvec.bit_columns(n)) == expected


def quadratic_bits_by_bitloop(images, n):
    """parity(x & U x) at each x of [0, 2^n), one element at a time."""
    bits = 0
    for x in range(1 << n):
        ux = 0
        for j in range(n):
            if x >> j & 1:
                ux ^= images[j]
        bits |= ((x & ux).bit_count() & 1) << x
    return bits


@pytest.mark.parametrize("n", range(13))
def test_quadratic_bits_match_a_bit_loop(n):
    """A random U, not symmetric, with diagonal bits both set and clear
    and images wider than the universe (bits at or past n are ignored)."""
    rng = random.Random(300 + n)
    images = [rng.getrandbits(n + 3) for _ in range(n)]
    for k in range(n):  # diagonal U_kk = 1 at even k, 0 at odd k
        images[k] = images[k] & ~(1 << k) | (1 - k % 2) << k
    if n >= 2:  # U_10 = 1 != U_01 = 0
        images[0] |= 2
        images[1] &= ~1
    got = bitvec.quadratic_bits(images, bitvec.bit_columns(n))
    assert got == quadratic_bits_by_bitloop(images, n)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} reached by a count")


def _refuse(*args, **kwargs):
    raise AssertionError("a numpy kernel reached by a count")


# (ambient degree, q_deg, p_log, m) of the numpy-free counts: universes of
# 2^1, 2^8 and 2^16 elements, p = 4 and p = 8, m = 2 and an ambient
# wider than F_q
NUMPY_FREE_CASES = [(1, 1, 1, 1), (8, 8, 1, 1), (16, 16, 1, 1), (8, 8, 2, 2), (6, 6, 3, 2), (12, 4, 2, 2)]


def test_counts_over_at_most_2_16_elements_make_no_numpy_call(monkeypatch):
    """With the byte tables, the range kernel and the count's numpy
    patched to raise, first and repeated counts of universes up to 2^16
    elements, to F_p and through `psi_sum`, still equal the fused pass;
    a first count over 2^17 elements reaches the patches."""
    runs = []
    for n, q_deg, p_log, m in NUMPY_FREE_CASES:
        ctx = make_field(n, None, p_log)
        head = CurveSpec(ctx, q_deg, (0, 1, ctx.subfield_elements(q_deg)[-1]))
        for a in ctx.subfield_elements(q_deg)[:3]:
            spec = head.with_a0(a)
            runs.append((spec, m, fused_count(spec, m, p_log), fused_count(spec, m, 1)))
    monkeypatch.setattr(count, "byte_tables", _refuse)
    monkeypatch.setattr(count, "quadratic_parity", _refuse)
    monkeypatch.setattr(bitvec, "quadratic_parity", _refuse)
    monkeypatch.setattr(count, "np", _NoNumpy())
    count._head_tables.cache_clear()
    try:
        for spec, m, zeros, zeros_f2 in runs:
            assert trace_zero_count(spec, m) == zeros, (spec, m)
            assert psi_sum(spec, m) == 2 * zeros_f2 - (1 << (spec.q_deg * m)), (spec, m)
        with pytest.raises(AssertionError, match="numpy kernel"):
            trace_zero_count(CurveSpec(make_field(17), 17, (0, 0, 1)), budget=1 << 17)
    finally:
        count._head_tables.cache_clear()  # no entry built under the patches outlives the test


# (ambient degree, q_deg, p_log, modulus, m) of the bit-sliced counts:
# universes of 2^1..2^16 elements, p = 4 and p = 8, the moduli 0x19,
# 0x211 and 0x1053, ambients wider than F_q, and m = 2 through `over`,
# in the curve's context or carried to the default one
BITSLICE_CASES = [
    *[(d, d, 1, None, 1) for d in range(1, 17)],
    (4, 4, 1, 0x19, 1),
    (9, 9, 1, 0x211, 1),
    (12, 6, 1, 0x1053, 2),
    (4, 4, 2, 0x19, 2),
    (8, 8, 2, None, 1),
    (16, 8, 2, None, 2),
    (6, 6, 3, None, 2),
    (12, 12, 3, None, 1),
    (8, 4, 1, None, 2),
    (12, 4, 2, None, 2),
]


@pytest.mark.parametrize("n,q_deg,p_log,poly,m", BITSLICE_CASES)
def test_bit_sliced_repeats_equal_the_fused_pass(n, q_deg, p_log, poly, m):
    """Up to 16 twists of one head, each counted by the fused pass and
    the first against the product reference, then all in a row with the
    cache cleared, so that the first count builds the head's bitsets and
    the rest read them; with to_deg = 1 the row runs through `psi_sum`.
    No stored bitset has a bit at or past the universe."""
    ctx = make_field(n, poly, p_log)
    elements = ctx.subfield_elements(q_deg)
    rng = random.Random(n * 10 + q_deg + p_log * 100 + m)
    head = CurveSpec(ctx, q_deg, (0, rng.choice(elements), rng.choice(elements[1:])))
    twists = elements if len(elements) <= 16 else [0, *rng.sample(elements[1:], 15)]
    size = 1 << (q_deg * m)
    to_degs = sorted({1, p_log})
    products = trace_zeros_by_products(head.with_a0(twists[-1]), m, to_degs)
    for to_deg in to_degs:
        fused = {a: fused_count(head.with_a0(a), m, to_deg) for a in twists}
        assert fused[twists[-1]] == products[to_deg]
        for a in twists:
            if to_deg == 1:
                assert psi_sum(head.with_a0(a), m) == 2 * fused[a] - size, (a, to_deg)
            else:
                assert trace_zero_count(head.with_a0(a), m, to_deg) == fused[a], (a, to_deg)
        entry = _head_entry(head, m, to_deg)
        assert len(entry.parities) == to_deg and len(entry.columns) == q_deg * m
        assert all(0 <= b < 1 << size for b in entry.parities + entry.columns)
        assert entry.tables == ()  # no fused pass ran


def test_bitsets_are_stored_up_to_one_chunk(monkeypatch):
    """With a small universe of 2^8 and a chunk of 2^9: a universe of at
    most 2^8 elements stores its bitsets at its first count, one of a
    chunk at its second, after one fused pass, and one of two chunks
    counts every twist by the fused pass."""
    monkeypatch.setattr(count, "_SMALL", 1 << 8)
    monkeypatch.setattr(count, "_CHUNK", 1 << 9)
    for n, stored in ((8, (True, True)), (9, (False, True)), (10, (False, False))):
        head = CurveSpec(make_field(n), n, (0, 0, 1))
        fused = [fused_count(head.with_a0(a), 1, 1) for a in (1, 2)]
        got = []
        for i, a in enumerate((1, 2)):
            got.append(trace_zero_count(head.with_a0(a)))
            assert (_stored_parities(head, 1, 1) is not None) == stored[i], (n, a)
        assert got == fused
        assert bool(_head_entry(head, 1, 1).tables) == (n > 8), n  # a fused pass ran
    count._head_tables.cache_clear()  # no entry of the small chunk outlives the test


def test_a_stored_form_packs_about_one_bit_per_element():
    head = CurveSpec(make_field(16), 16, (0, 0x1234, 1))
    count._head_tables.cache_clear()
    for a in (0, 1):
        trace_zero_count(head.with_a0(a))
    (form,) = _stored_parities(head, 1, 1)
    assert sys.getsizeof(form) * 8 <= 1.1 * (1 << 16)


@pytest.mark.parametrize("deg", range(1, 19))
def test_q_exponent_table_matches_the_explicit_shape(deg):
    fast = q_exponent_table(deg)
    assert fast.dtype == np.uint8
    assert fast.tobytes() == q_exponent_table_by_shape(deg).tobytes()


# sha256 of q_exponent_table(deg).tobytes() past the degrees the
# reference above covers, recorded from a set-up that pushed every pair
# sum e_i + e_j through the explicit shape, not the polar form
TABLE_SHA256 = {
    19: "8746963794c59a851cd57374067caeed67cbc79155aedeb4034f23236959cfb0",
    20: "c7497e1d34c2a068b9f7d991f5c7ed4f9a7987eb5e2eb7a9acaabd3f30296b49",
    21: "60d2ae95eb110ba16749a6b25f65f8bbb56c995fab3420222ba4e70d4b804809",
    22: "74b5b8913d06c7a8011b4e790757cdb15306a32c4f968a8bc21d313459b4a6e3",
}


@pytest.mark.parametrize("deg", sorted(TABLE_SHA256))
def test_q_exponent_table_pinned_past_the_explicit_shape(deg):
    digest = hashlib.sha256(q_exponent_table(deg).tobytes()).hexdigest()
    assert digest == TABLE_SHA256[deg]
