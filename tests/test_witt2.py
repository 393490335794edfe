"""Witt layer tests: the characters and character sums of the package,
and the ring laws and traces of the Witt-ring reference they are checked
against."""

import random

import numpy as np
import pytest

from aswcurves import witt2
from aswcurves.errors import CtxMismatch, DegreeMismatch, NonRealCount, OracleMismatch
from aswcurves.curves.twists import eigenvalue_targets
from aswcurves.gf2field import FieldCtx, make_field, transport
from aswcurves.witt2 import (
    GaussInt,
    hd_sum,
    i_power,
    psi_char,
    q_char,
    q_exponent_table,
)
from reference import WittPair, bq_char, witt_trace, xi2

F2 = make_field(1)
F4 = make_field(2)
W = 2  # the generator of F_4, w^2 = w + 1


def test_gauss_int_ring():
    a, b = GaussInt(3, -2), GaussInt(-1, 5)
    assert a + b == GaussInt(2, 3)
    assert a - b == GaussInt(4, -7)
    assert a * b == GaussInt(7, 17)
    assert -a == GaussInt(-3, 2)
    assert a.abs2() == 13
    assert GaussInt(-1, -1) ** 2 == GaussInt(0, 2)
    assert GaussInt(-1, -1) ** 4 == GaussInt(-4, 0)
    assert GaussInt(5, 0).as_int() == 5
    with pytest.raises(NonRealCount):
        GaussInt(5, 1).as_int()
    assert str(GaussInt(-1, -1)) == "-1-1i"


def test_gauss_int_hashes_like_the_int_it_equals():
    assert GaussInt(2) == 2
    assert hash(GaussInt(2)) == hash(2)
    assert len({GaussInt(2), 2}) == 1
    assert len({GaussInt(-1, 0), -1, GaussInt(0, -1)}) == 2
    assert {GaussInt(3, 4): "a"}[GaussInt(3, 4)] == "a"


def test_i_power():
    i = GaussInt(0, 1)
    assert [i_power(k) for k in range(4)] == [1, i, -1, -i]
    for k in range(-8, 9):
        assert i_power(k) == i ** (k % 4)
        assert i_power(k) * i_power(-k) == 1
    assert i_power(1) * GaussInt(1, 1) == GaussInt(-1, 1)


def test_witt_ring_over_f2_is_z4():
    one = WittPair(F2, 1, 0)
    powers = [WittPair(F2, 0, 0)]
    for _ in range(4):
        powers.append(powers[-1] + one)
    assert powers[1] == one
    assert powers[2] == WittPair(F2, 0, 1)
    assert powers[3] == WittPair(F2, 1, 1)
    assert powers[4] == powers[0]
    # multiplication matches Z/4 via the same generator
    assert powers[2] * powers[2] == powers[0]
    assert powers[3] * powers[3] == powers[1]  # 3*3 = 9 = 1
    assert powers[2] * powers[3] == powers[2]  # 2*3 = 6 = 2


def test_witt_ring_laws_exhaustive_f4():
    pairs = [WittPair(F4, a, b) for a in range(4) for b in range(4)]
    zero, one = WittPair(F4, 0, 0), WittPair(F4, 1, 0)
    for x in pairs:
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero
        for y in pairs:
            assert x + y == y + x
            assert x * y == y * x
            for z in pairs:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


def test_witt_ring_laws_random_f256():
    K = make_field(8)
    rng = random.Random(11)
    rand = lambda: WittPair(K, rng.randrange(256), rng.randrange(256))
    for _ in range(300):
        x, y, z = rand(), rand(), rand()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - x == WittPair(K, 0, 0)
        assert (x + y).frob(3) == x.frob(3) + y.frob(3)
        assert (x * y).frob(5) == x.frob(5) * y.frob(5)


def test_witt_ctx_mismatch():
    with pytest.raises(CtxMismatch):
        WittPair(F2, 1, 0) + WittPair(F4, 1, 0)


def test_witt_trace_anchors():
    assert witt_trace(WittPair(F4, W, 0), 2, 1) == WittPair(F4, 1, 1)
    assert witt_trace(WittPair(F4, 1, 0), 2, 1) == WittPair(F4, 0, 1)
    assert witt_trace(WittPair(F4, 0, 0), 2, 1) == WittPair(F4, 0, 0)


def test_witt_trace_additive_and_transitive():
    K = make_field(8)
    rng = random.Random(12)
    for _ in range(100):
        x = WittPair(K, rng.randrange(256), rng.randrange(256))
        y = WittPair(K, rng.randrange(256), rng.randrange(256))
        assert witt_trace(x + y, 8, 1) == witt_trace(x, 8, 1) + witt_trace(y, 8, 1)
        assert witt_trace(x, 8, 1) == witt_trace(witt_trace(x, 8, 2), 2, 1)
        assert witt_trace(x, 8, 1) == witt_trace(witt_trace(x, 8, 4), 4, 1)
    with pytest.raises(DegreeMismatch):
        witt_trace(WittPair(K, 2, 0), 4, 1)  # x outside the subfield


def test_witt_trace_checks_its_result(monkeypatch):
    # with Frobenius broken to the identity, the "trace" of (t, 0) over
    # F_8 is 3*(t, 0), whose first component t is outside F_2: the check
    # must fire, also under python -O
    K = make_field(3)
    assert witt_trace(WittPair(K, 2, 0), 3, 1) == WittPair(K, 0, 1)
    monkeypatch.setattr(WittPair, "frob", lambda self, j: self)
    with pytest.raises(OracleMismatch):
        witt_trace(WittPair(K, 2, 0), 3, 1)


def test_q_exponent_table_checks_its_components(monkeypatch):
    # with squaring broken to the identity the conjugates of e_i all equal
    # e_i, and their sum over an odd degree is e_i itself, outside F_2 for
    # i > 0: the check must fire, also under python -O
    monkeypatch.setattr(FieldCtx, "sqr", lambda self, a: a)
    with pytest.raises(OracleMismatch):
        q_exponent_table(5)


def test_q_exponent_table_needs_no_vectorised_product(monkeypatch):
    # only the unit vectors go through the explicit shape, in scalar
    # arithmetic; bitvec.field_mul is the tests' reference, not a step
    expected = q_exponent_table(12).tobytes()

    def refuse(*args):
        raise AssertionError("bitvec.field_mul called")

    monkeypatch.setattr(witt2.bitvec, "field_mul", refuse)
    assert q_exponent_table(12).tobytes() == expected


def test_xi2_table():
    assert xi2(WittPair(F2, 0, 0)) == 0
    assert xi2(WittPair(F2, 1, 0)) == 1
    assert xi2(WittPair(F2, 0, 1)) == 2
    assert xi2(WittPair(F2, 1, 1)) == 3
    with pytest.raises(DegreeMismatch):
        xi2(WittPair(F4, W, 0))


def test_xi2_of_witt_trace_is_additive_character():
    K = make_field(8)
    rng = random.Random(13)
    xi_q = lambda pair: xi2(witt_trace(pair, 8, 1))
    for _ in range(100):
        x = WittPair(K, rng.randrange(256), rng.randrange(256))
        y = WittPair(K, rng.randrange(256), rng.randrange(256))
        assert xi_q(x + y) == (xi_q(x) + xi_q(y)) % 4


def test_q_char_anchor_table_f4():
    assert q_char(F4, 0, 2) == 0
    assert q_char(F4, 1, 2) == 2  # -1
    assert q_char(F4, W, 2) == 3  # -i
    assert q_char(F4, W ^ 1, 2) == 3


def test_psi_char():
    assert psi_char(F4, 0, 2) == 0
    assert psi_char(F4, 1, 2) == 0
    assert psi_char(F4, W, 2) == 2
    K = make_field(12)
    rng = random.Random(14)
    for _ in range(50):
        x, y = rng.randrange(K.order), rng.randrange(K.order)
        assert psi_char(K, x ^ y, 12) == (psi_char(K, x, 12) + psi_char(K, y, 12)) % 4


def test_q_squares_to_psi_and_galois_invariance():
    for deg in (1, 2, 4, 8):
        K = make_field(deg)
        for x in range(K.order):
            qx = q_char(K, x, deg)
            assert 2 * qx % 4 == psi_char(K, x, deg)
            assert q_char(K, K.sqr(x), deg) == qx


def test_bq_identity_exhaustive_small():
    for deg in (1, 2, 4):
        K = make_field(deg)
        for x in range(K.order):
            for y in range(K.order):
                lhs = q_char(K, x ^ y, deg)
                rhs = (q_char(K, x, deg) + q_char(K, y, deg) + bq_char(K, x, y, deg)) % 4
                assert lhs == rhs


def _factorize(n):
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return sorted(set(out))


def _generator(K):
    order = K.order - 1
    primes = _factorize(order)
    for g in range(2, K.order):
        if all(K.pow(g, order // ell) != 1 for ell in primes):
            return g
    raise AssertionError("no generator found")


def test_bq_identity_exhaustive_4096():
    # all pairs over F_{2^12}, via exponent/log tables
    deg = 12
    K = make_field(deg)
    q = K.order
    k = q_exponent_table(deg).astype(np.int64)
    g = _generator(K)
    exp = np.empty(q - 1, dtype=np.int64)
    cur = 1
    for j in range(q - 1):
        exp[j] = cur
        cur = K.mul(cur, g)
    log = np.empty(q, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    tr = np.array([K.trace(x, deg, 1) for x in range(q)], dtype=np.int64)
    xs = np.arange(1, q, dtype=np.int64)
    lx = log[xs]
    for y in range(1, q):
        prod = exp[(lx + log[y]) % (q - 1)]
        lhs = k[xs ^ y]
        rhs = (k[xs] + k[y] + 2 * tr[prod]) & 3
        assert np.array_equal(lhs, rhs & 3)
    # the zero row is the trivial case of the identity
    assert np.array_equal(k[0 ^ np.arange(q)], (k[0] + k + 2 * tr[0]) & 3)


def test_q_exponent_table_matches_scalar():
    for deg in (1, 2, 4, 6, 10):
        K = make_field(deg)
        tab = q_exponent_table(deg)
        for x in range(K.order):
            assert int(tab[x]) == q_char(K, x, deg)


# (n, modulus, p_log, deg): non-default moduli, p = 2, 4, 8, and ambients
# wider than the degree-deg field the characters work in.
CHARACTER_CONTEXTS = [
    (4, 0x19, 1, 4),
    (4, 0x1F, 1, 4),
    (4, 0x19, 2, 2),
    (8, None, 2, 4),
    (8, 0x11D, 2, 8),
    (6, None, 3, 6),
    (12, None, 3, 6),
    (12, None, 2, 4),
]


@pytest.mark.parametrize("n, poly, p_log, deg", CHARACTER_CONTEXTS)
def test_characters_return_i_exponents(n, poly, p_log, deg):
    K = FieldCtx(n, poly, p_log)
    tab = q_exponent_table(deg)
    field = K.subfield_elements(deg)
    assert len(field) == 1 << deg
    exponents = []
    for x in field:
        qx = q_char(K, x, deg)
        exponents += [qx, psi_char(K, x, deg)]
        assert qx == tab[transport(K, x, make_field(deg), deg)]
    if deg % 2 == 0:
        exponents += eigenvalue_targets(deg)
    assert {type(k) for k in exponents} == {int}
    assert set(exponents) <= set(range(4))


@pytest.mark.parametrize("n, poly, p_log, deg", CHARACTER_CONTEXTS)
def test_q_char_matches_the_witt_ring_reference(n, poly, p_log, deg):
    # every subfield degree d | n, every element of F_{2^d}: the explicit
    # shape (Tr, e2) against the sum of conjugates in the Witt ring
    K = FieldCtx(n, poly, p_log)
    for d in range(1, n + 1):
        if n % d:
            continue
        for x in K.subfield_elements(d):
            assert q_char(K, x, d) == xi2(witt_trace(WittPair(K, x, 0), d, 1)), (d, x)


def test_q_char_checks_its_input_and_its_parts(monkeypatch):
    K = make_field(4)
    with pytest.raises(DegreeMismatch, match="outside the degree-2 subfield"):
        q_char(K, 2, 2)
    with pytest.raises(CtxMismatch):
        q_char(K, 0x10, 4)
    for deg in (0, -2):
        with pytest.raises(DegreeMismatch, match="subfield degrees need 1 <="):
            q_char(K, 1, deg)
    # with squaring broken to the identity the sum of the three
    # "conjugates" of t over F_8 is t itself, outside F_2: the check must
    # fire, also under python -O
    K = make_field(3)
    monkeypatch.setattr(FieldCtx, "sqr", lambda self, a: a)
    with pytest.raises(OracleMismatch, match="lands outside F_2"):
        q_char(K, 2, 3)


def test_witt_trace_rejects_degrees_below_one():
    K = make_field(4)
    pair = WittPair(K, 1, 0)
    for deg in (0, -2):
        with pytest.raises(DegreeMismatch, match="subfield degrees need 1 <="):
            witt_trace(pair, deg, 1)
        with pytest.raises(DegreeMismatch, match="subfield degrees need 1 <="):
            witt_trace(pair, 4, deg)


def test_hd_sum_anchors():
    assert hd_sum(1) == GaussInt(-1, -1)
    assert hd_sum(2) == GaussInt(0, 2)
    assert hd_sum(4) == GaussInt(-4, 0)


def test_hd_sum_closed_form_medium():
    for s in range(1, 13):
        assert hd_sum(s) == GaussInt(-1, -1) ** s
