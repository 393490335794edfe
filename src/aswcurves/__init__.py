"""Exact zeta data for Artin-Schreier curves y^p - y = x*R(x) over binary fields.

The layers, bottom up:

- gf2field: ambient fields F_{2^N}, subfields, F_2/F_p linear algebra;
- witt2: the order-4 character of the length-2 Witt trace, character sums;
- skew: twisted Laurent polynomials in the p-power Frobenius;
- symplectic: the residue pairing between adjoint kernels, orthogonal
  complements, and maximal isotropic subspaces;
- curves: curve construction, L-polynomials, exhaustive counts, twist
  classification, maximality criteria, period/parity scans;
- cli: the aswcurves command-line front end.
"""

from .errors import Char2Error
from .gf2field import FieldCtx, Fp2Subspace, make_field, parse_field_spec

__all__ = [
    "Char2Error",
    "FieldCtx",
    "Fp2Subspace",
    "make_field",
    "parse_field_spec",
]

__version__ = "0.1.0"
