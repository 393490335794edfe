"""Vectorized field arithmetic on numpy arrays of bit patterns.

These helpers exist for the exhaustive enumerations (point counts,
character tables), where evaluating one element at a time in Python is
too slow. Everything operates on uint64 arrays of bit patterns with the
same LSB convention as gf2field and produces bit-identical results to
the scalar methods, which the tests check directly.

An F_2-linear map is applied byte by byte: the image of x is the XOR,
over the bytes of x, of a 256-entry table lookup, each table holding
the XOR of the unit-vector images for every pattern of its eight bits.
By linearity that is exactly the sum of the images of the set bits.
A quadratic form over F_2 is x -> parity(x & U x) for a linear U (x^T U x
with the products x_i x_j read off bitwise), so every exhaustive count
of a quadratic form's zeros is one linear map and one popcount per
element.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf2field import FieldCtx

_U64 = np.uint64


def arange_field(ctx: FieldCtx) -> np.ndarray:
    """All 2^n elements of the field as a uint64 array."""
    return np.arange(1 << ctx.n, dtype=_U64)


def byte_tables(images: Sequence[int]) -> np.ndarray:
    """One 256-entry table per byte of the input, as the rows of one array:
    entry b is the XOR of the images of the bits set in b (bits past the
    last image map to 0).  Entries 2^i..2^(i+1)-1 are entries 0..2^i-1
    XOR the image of bit i, so eight slice steps fill every table."""
    padded = list(images) + [0] * (-len(images) % 8)
    images8 = np.array(padded, dtype=_U64).reshape(-1, 8)
    tables = np.zeros((images8.shape[0], 256), dtype=_U64)
    for i in range(8):
        tables[:, 1 << i : 2 << i] = tables[:, : 1 << i] ^ images8[:, i : i + 1]
    return tables


def apply_tables(tables: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """XOR over the bytes k of every entry of x of tables[k][byte k].

    With the tables of byte_tables this is the linear map itself; bytes
    of x past the last table are ignored.
    """
    octets = np.ascontiguousarray(x, dtype="<u8").view(np.uint8).reshape(-1, 8)
    out = np.zeros(octets.shape[0], dtype=_U64)
    for k, table in enumerate(tables):
        out ^= table[octets[:, k]]
    return out


def apply_linear(images: Sequence[int], x: np.ndarray) -> np.ndarray:
    """Apply an additive map given by unit-vector images to every entry.

    Bits of x at or above len(images) are ignored.
    """
    return apply_tables(byte_tables(images), x)


def quadratic_parity(images: Sequence[int], x: np.ndarray) -> np.ndarray:
    """parity(x & U x) for every entry, U given by unit-vector images,
    as a uint8 array of 0s and 1s."""
    return np.bitwise_count(x & apply_linear(images, x)) & np.uint8(1)


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
