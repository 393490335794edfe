"""
Binary fields, length-2 Witt vectors, and exact character sums
==============================================================

The ground layer of the package: ambient fields F_{2^N} on int bit
patterns, the ring of length-2 Witt vectors over them, and the order-4
character that turns Witt arithmetic into exact Gaussian integers.
"""

from aswcurves.gf2field import make_field
from aswcurves.skew import SkewPoly, format_skew
from aswcurves.witt2 import GaussInt, WittPair, hd_sum, witt_trace, xi2

# F_16 with its frozen defining polynomial; elements are ints 0..15.
K = make_field(4)
print(f"F_{K.order} mod {K.poly:#x}")
x = 0b0010  # the class of x itself
print(f"x * x^-1 = {K.mul(x, K.inv(x))}")
print(f"x^5      = {K.pow(x, 5)}  (order of x is 15)")
print(f"Tr to F_2 of every element: {[K.trace(a, 4, 1) for a in range(16)]}")

# The degree-2 subfield sits inside F_16 as specific bit patterns.
print(f"F_4 inside F_16: {sorted(K.subfield_elements(2))}")

# Length-2 Witt vectors add with a carry; over F_2 they realize Z/4.
one = WittPair(make_field(1), 1, 0)
acc = one
for k in range(2, 5):
    acc = acc + one
    print(f"{k} * (1,0) = ({acc.a}, {acc.b})")

# xi2 maps Witt pairs to exponents of i; summing the induced quadratic
# character over a whole field gives an exact Gaussian integer that
# matches the closed form (-1-i)^s.
for s in range(1, 9):
    total = hd_sum(s)
    assert total == GaussInt(-1, -1) ** s
    print(f"s={s:2d}  sum = {total}")

# Witt traces feed the same character from any subfield level.
t = witt_trace(WittPair(K, 0b0110, 0), 4, 1)
print(f"witt trace of (0b0110, 0) down to F_2: ({t.a}, {t.b}) -> i^{xi2(t)}")

# Skew polynomials twist by the p-power Frobenius; the adjoint reverses
# composition order and its kernel drives everything downstream.
F = SkewPoly(K, {1: 1, 0: 1})
print(f"F = {format_skew(F)}")
print(f"F* = {format_skew(F.adjoint())}")
print(f"ker F* = {F.adjoint().kernel().elements()}")
