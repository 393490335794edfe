"""
Binary fields, the order-4 character, and exact character sums
==============================================================

The ground layer of the package: ambient fields F_{2^N} on int bit
patterns, and the order-4 character Q that the length-2 Witt trace
induces on them, whose sums are exact Gaussian integers.
"""

from aswcurves.gf2field import make_field
from aswcurves.skew import SkewPoly, format_skew
from aswcurves.witt2 import GaussInt, hd_sum, q_char

# F_16 with its frozen defining polynomial; elements are ints 0..15.
K = make_field(4)
print(f"F_{K.order} mod {K.poly:#x}")
x = 0b0010  # the class of x itself
print(f"x * x^-1 = {K.mul(x, K.inv(x))}")
print(f"x^5      = {K.pow(x, 5)}  (order of x is 15)")
print(f"Tr to F_2 of every element: {[K.trace(a, 4, 1) for a in range(16)]}")

# The degree-2 subfield sits inside F_16 as specific bit patterns.
print(f"F_4 inside F_16: {sorted(K.subfield_elements(2))}")

# The quadratic character Q returns exponents of i; summing it over a
# whole field gives an exact Gaussian integer that matches the closed
# form (-1-i)^s.
for s in range(1, 9):
    total = hd_sum(s)
    assert total == GaussInt(-1, -1) ** s
    print(f"s={s:2d}  sum = {total}")

# Q(x) = i^(Tr(x) + 2*e2(x)): the length-2 Witt trace of (x, 0) down to
# F_2 is the pair (Tr(x), e2(x)), the sum and the second elementary
# symmetric function of the conjugates of x.
k = q_char(K, 0b0110, 4)
print(f"Q(0b0110) over F_16: (Tr, e2) = ({k & 1}, {k >> 1}) -> i^{k}")

# Skew polynomials twist by the p-power Frobenius; the adjoint reverses
# composition order and its kernel drives everything downstream.
F = SkewPoly(K, {1: 1, 0: 1})
print(f"F = {format_skew(F)}")
print(f"F* = {format_skew(F.adjoint())}")
print(f"ker F* = {F.adjoint().kernel().elements()}")
