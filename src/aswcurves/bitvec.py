"""Vectorized field arithmetic on numpy arrays of bit patterns.

These helpers exist for the exhaustive enumerations (point counts,
character tables), where evaluating one element at a time in Python is
too slow. Everything operates on uint64 arrays of bit patterns with the
same LSB convention as gf2field and produces bit-identical results to
the scalar methods, which the tests check directly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf2field import FieldCtx

_U64 = np.uint64


def arange_field(ctx: FieldCtx) -> np.ndarray:
    """All 2^n elements of the field as a uint64 array."""
    return np.arange(1 << ctx.n, dtype=_U64)


def apply_linear(images: Sequence[int], x: np.ndarray) -> np.ndarray:
    """Apply an additive map given by unit-vector images to every entry."""
    out = np.zeros_like(x)
    one = _U64(1)
    for j, img in enumerate(images):
        if img:
            out ^= ((x >> _U64(j)) & one) * _U64(img)
    return out


def field_mul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise field product of two arrays of bit patterns."""
    n, poly = ctx.n, ctx.poly
    acc = np.zeros_like(a)
    one = _U64(1)
    for j in range(n):
        acc ^= ((b >> _U64(j)) & one) * (a << _U64(j))
    for hi in range(2 * n - 2, n - 1, -1):
        acc ^= ((acc >> _U64(hi)) & one) * _U64(poly << (hi - n))
    return acc
