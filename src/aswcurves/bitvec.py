"""Field arithmetic over whole ranges of bit patterns, vectorized on
numpy arrays or bit-sliced into Python ints.

The one module that enumerates a universe: the direct count and the
character table evaluate their forms at every x of a range [lo, hi) of
bit patterns (LSB convention of gf2field) with `apply_linear`,
`quadratic_parity` and `linear_parity`, or hold a whole universe
[0, 2^n) as bitsets from `quadratic_bits` and `bit_columns`; each is
checked bit for bit against per-element references in the tests.

An F_2-linear map is applied byte by byte: the image of x is the XOR,
over the bytes of x, of a 256-entry table lookup, each table holding
the XOR of the unit-vector images for every pattern of its eight bits.
A quadratic form over F_2 is x -> parity(x & U x) for a linear U (x^T U x
with the products x_i x_j read off bitwise), so an exhaustive count of
its zeros is one linear map and one popcount per element.

A range is laid out in rows of 256: x = high | low, low its low byte,
so U x = U(high) XOR t0[low] XOR t0[0], t0 table 0, where U(high) XOR
t0[0] XORs the other tables at the bytes of high: one lookup per row,
then one broadcast XOR per x.  With l XORed into every entry of t0 the
rows give the affine x -> U x XOR l, a twist's form in the direct count.

A form over a whole universe [0, 2^n) can also be kept as one Python
int, bit x holding its value at x.  Beside it, the n columns of the
universe (`bit_columns`: bit x of column k is bit k of x) give every
linear form bit-parallel: parity(x & l) at every x is the XOR of the
columns at the set bits of l.  `quadratic_bits` builds a quadratic
form's int by doubling, from the form's values on [0, 2^k) and one
such linear form, with no value computed element by element.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf2field import FieldCtx

_U64 = np.uint64

_FLIPS = np.array([8] + [(k & -k).bit_length() - 1 for k in range(1, 256)])
_ORDER = np.array(sorted(range(256), key=lambda k: k ^ (k >> 1)))


def byte_tables(images: Sequence[int]) -> np.ndarray:
    """One 256-entry table per byte of the input, as the rows of one array:
    entry b is the XOR of the images of the bits set in b (bits past the
    last image map to 0).  In Gray-code order step k > 0 flips one bit,
    bit ctz(k) (_FLIPS; step 0 reads column 8, a zero), so a running XOR
    of the images of the flipped bits gives every entry, and _ORDER[b],
    the step that reaches pattern b, puts it in place."""
    padded = list(images) + [0] * (-len(images) % 8)
    rows = np.array([padded[i : i + 8] + [0] for i in range(0, len(padded), 8)], dtype=_U64)
    steps = np.bitwise_xor.accumulate(rows.reshape(-1, 9).take(_FLIPS, axis=1), axis=1)
    return steps.take(_ORDER, axis=1)


def apply_linear(tables: Sequence[np.ndarray], lo: int, hi: int) -> np.ndarray:
    """U x for every x in [lo, hi) in order, U given by its byte tables
    (table 0 may be affine), by the row broadcast of the module docstring.

    lo is a multiple of 256, and hi - lo is a multiple of 256 or less
    than 256.  Bytes of x past the last table are ignored.
    """
    width = min(256, hi - lo)
    highs = np.arange(lo, hi, width, dtype=_U64)
    octets = highs.view(np.uint8).reshape(-1, 8)
    row = np.zeros(len(highs), dtype=_U64)
    for k in range(1, len(tables)):
        row ^= tables[k][octets[:, k]]
    return (row[:, None] ^ tables[0][:width]).ravel()


def quadratic_parity(tables: Sequence[np.ndarray], lo: int, hi: int) -> np.ndarray:
    """parity(x & U x) for every x in [lo, hi) in order, as a uint8 array
    of 0s and 1s; U and the range as for `apply_linear`."""
    ux = apply_linear(tables, lo, hi)
    ux &= np.arange(lo, hi, dtype=_U64)
    return np.bitwise_count(ux) & np.uint8(1)


def linear_parity(mask: int, lo: int, hi: int) -> np.ndarray:
    """parity(x & mask) for every x in [lo, hi) in order, as a uint8
    array of 0s and 1s."""
    masked = np.arange(lo, hi, dtype=_U64)
    masked &= _U64(mask)
    return np.bitwise_count(masked) & np.uint8(1)


def bit_columns(n: int) -> tuple[int, ...]:
    """The n columns of the universe [0, 2^n) as ints: bit x of column k
    is bit k of x.  By doubling: the columns of [0, 2^(k+1)) are those of
    [0, 2^k) repeated twice, and a new top column of 2^k zeros then 2^k
    ones."""
    columns: list[int] = []
    for k in range(n):
        width = 1 << k
        columns = [c | c << width for c in columns]
        columns.append(((1 << width) - 1) << width)
    return tuple(columns)


def quadratic_bits(images: Sequence[int], columns: Sequence[int]) -> int:
    """parity(x & U x) for every x in [0, 2^n) as one int, bit x the
    parity at x, U given by its images u_k = U e_k and the universe by
    its n columns (`bit_columns(n)`).

    By the polar identity of x^T U x, for y < 2^k

        Q(y + e_k) = Q(y) XOR parity(y & v_k) XOR U_kk,

    v_k the bits below k of u_k XOR row k of U (bit j of row k is bit
    k of u_j).  So the bits of Q over [2^k, 2^(k+1)) are its bits over
    [0, 2^k) XOR the linear form v_k there, complemented when U_kk = 1:
    each step touches only the 2^k bits built so far, and the linear
    form is the XOR of the columns at the set bits of v_k, cut to their
    low 2^k bits.
    """
    bits = 0
    for k in range(len(columns)):
        width = 1 << k
        low = (1 << width) - 1
        u = v = images[k]
        for j in range(k):  # row k of U
            v ^= (images[j] >> k & 1) << j
        v &= width - 1
        form = low if u >> k & 1 else 0
        while v:
            bit = v & -v
            form ^= columns[bit.bit_length() - 1] & low
            v ^= bit
        bits |= (bits ^ form) << width
    return bits


def field_mul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise field product of two arrays of bit patterns.

    Nothing in the package calls it: it is the vectorised reference the
    tests check the enumeration oracles against (the explicit shape of
    the length-2 trace over a whole field), bit-serial and independent
    of the scalar `FieldCtx.mul`.
    """
    n, poly = ctx.n, ctx.poly
    acc = np.zeros_like(a)
    one = _U64(1)
    for j in range(n):
        acc ^= ((b >> _U64(j)) & one) * (a << _U64(j))
    for hi in range(2 * n - 2, n - 1, -1):
        acc ^= ((acc >> _U64(hi)) & one) * _U64(poly << (hi - n))
    return acc
