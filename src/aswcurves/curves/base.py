"""Core data for curves of the form y^p - y = x*R(x) in characteristic 2.

R is an F_p-linearized polynomial sum(a_i * x^(p^i), i = 0..e) with
e >= 1 and a_e != 0, held as a CurveSpec: an ambient field context, the
degree over F_2 of the working subfield F_q, and the coefficient tuple
a_0..a_e (all elements of F_q).  Curves in the same family share the
tail a_1..a_e and differ in the linear coefficient a_0.

A TwistDatum wraps a skew polynomial F = sum(b_i * tau^i, i = 0..e)
whose symmetrization F*F produces such a family: the tail of the family
is read off F*F, and each twist parameter t in F_q contributes the
linear coefficient offset + F*(t)^2.  The datum records four structural
flags (separability, the adjoint killing 1, and rationality of the two
kernels) that gate which operations are defined.
"""

from __future__ import annotations

import re
from math import isqrt

from ..errors import ConditionViolated, DomainError, OracleMismatch, ParseError
from ..gf2field import (
    Element,
    FieldCtx,
    format_field_spec,
    make_field,
    parse_field_spec,
    transport,
)
from ..skew import SkewPoly, format_skew

__all__ = [
    "CurveSpec",
    "TwistDatum",
    "build_curve",
    "format_curve_spec",
    "head_curve",
    "parse_curve_spec",
]


def _check_subfield_degree(ctx: FieldCtx, q_deg: int) -> None:
    """Raise DomainError unless F_{2^q_deg} is a subfield of ctx over F_p."""
    if q_deg <= 0 or ctx.n % q_deg or q_deg % ctx.p_log:
        raise DomainError(
            f"subfield degree {q_deg} must divide {ctx.n} and be a multiple of {ctx.p_log}"
        )


def _check_coefficient(ctx: FieldCtx, q_deg: int, c: Element) -> None:
    """CtxMismatch unless c is an element of ctx, DomainError unless it
    lies in F_{2^q_deg}."""
    ctx.check(c)
    if not ctx.in_subfield(c, q_deg):
        raise DomainError(f"coefficient {c:#x} is outside the declared subfield")


class CurveSpec:
    """The curve y^p - y = x*R(x) with R given by its coefficients."""

    __slots__ = ("ctx", "q_deg", "coeffs")

    def __init__(self, ctx: FieldCtx, q_deg: int, coeffs: tuple[Element, ...]):
        _check_subfield_degree(ctx, q_deg)
        coeffs = tuple(coeffs)
        if len(coeffs) < 2:
            raise DomainError("the defining polynomial needs degree e >= 1")
        if coeffs[-1] == 0:
            raise DomainError("the leading coefficient must be nonzero")
        for c in coeffs:
            _check_coefficient(ctx, q_deg, c)
        self.ctx = ctx
        self.q_deg = q_deg
        self.coeffs = coeffs

    def __repr__(self) -> str:
        return f"CurveSpec({format_curve_spec(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurveSpec):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.q_deg == other.q_deg
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.q_deg, self.coeffs))

    @property
    def q(self) -> int:
        return 1 << self.q_deg

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def e(self) -> int:
        return len(self.coeffs) - 1

    @property
    def genus(self) -> int:
        """Genus of the smooth projective model, (p - 1) * p^e / 2."""
        return (self.p - 1) * self.p**self.e // 2

    @property
    def is_head(self) -> bool:
        """Whether the linear coefficient is zero."""
        return self.coeffs[0] == 0

    def r_skew(self) -> SkewPoly:
        """R as a skew polynomial (includes the linear term)."""
        return SkewPoly.from_coeffs(self.ctx, self.coeffs)

    def e_skew(self) -> SkewPoly:
        """The symmetrization R + R*; the linear terms cancel."""
        r = self.r_skew()
        return r + r.adjoint()

    def evaluate(self, x: Element) -> Element:
        return self.r_skew()(x)

    def with_a0(self, a: Element) -> "CurveSpec":
        """The family member with linear coefficient a.  The tail was
        checked when self was built, so only a is checked here."""
        _check_coefficient(self.ctx, self.q_deg, a)
        spec = object.__new__(CurveSpec)
        spec.ctx, spec.q_deg, spec.coeffs = self.ctx, self.q_deg, (a,) + self.coeffs[1:]
        return spec

    def head(self) -> "CurveSpec":
        return self.with_a0(0)

    def transport_to(self, dst: FieldCtx) -> "CurveSpec":
        """The same curve with coefficients carried into dst."""
        moved = tuple(transport(self.ctx, c, dst, self.q_deg) for c in self.coeffs)
        return CurveSpec(dst, self.q_deg, moved)

    def canonical(self) -> "CurveSpec":
        """The curve moved to the default context of F_q itself."""
        return self.transport_to(make_field(self.q_deg, None, self.ctx.p_log))

    def over(self, m: int) -> "CurveSpec":
        """The curve declared over F_{q^m}, in its own context when that is
        F_{q^m} and in the default context of F_{q^m} otherwise."""
        deg = self.q_deg * m
        if self.ctx.n == deg:
            return self if m == 1 else CurveSpec(self.ctx, deg, self.coeffs)
        dst = make_field(deg, None, self.ctx.p_log)
        return CurveSpec(dst, deg, self.transport_to(dst).coeffs)


class TwistDatum:
    """A skew polynomial F together with the flags gating curve building.

    The four flags, in gate order: `separable` (F has valuation 0,
    degree >= 1, and nonzero outer coefficients), `adjoint_kills_one`
    (F*(1) = 0), `adjoint_kernel_rational` (ker F* inside F_q), and
    `composite_kernel_rational` (ker F*F inside F_q).  Kernels are
    stored only when the corresponding flag holds; splitting degrees
    are always recorded.
    """

    __slots__ = (
        "F",
        "q_deg",
        "separable",
        "adjoint_kills_one",
        "adjoint_kernel_rational",
        "composite_kernel_rational",
        "adjoint_kernel",
        "kernel",
        "composite_kernel",
        "adjoint_splitting",
        "composite_splitting",
        "_offset",
        "_adjoint",
        "_composite",
    )

    def __init__(self, F: SkewPoly, q_deg: int):
        ctx = F.ctx
        _check_subfield_degree(ctx, q_deg)
        for c in F.coeffs.values():
            _check_coefficient(ctx, q_deg, c)
        self.F = F
        self.q_deg = q_deg
        self._adjoint = adjoint = F.adjoint()
        self._composite = composite = adjoint * F
        nonzero = bool(F)
        self.separable = nonzero and F.val == 0 and F.degree >= 1
        self.adjoint_kills_one = nonzero and adjoint(1) == 0
        self.adjoint_splitting = self.composite_splitting = 0
        if nonzero:
            self.adjoint_splitting = adjoint.kernel_splitting_degree()
            self.composite_splitting = composite.kernel_splitting_degree()
        self.adjoint_kernel_rational = (
            nonzero and q_deg % self.adjoint_splitting == 0
        )
        self.composite_kernel_rational = (
            nonzero and q_deg % self.composite_splitting == 0
        )
        self.adjoint_kernel = self.kernel = self.composite_kernel = self._offset = None
        if self.adjoint_kernel_rational:
            self.adjoint_kernel = adjoint.kernel()
            if self.separable:
                if q_deg % F.kernel_splitting_degree():
                    raise self._mismatch("ker F* lies in F_q but ker F does not")
                self.kernel = F.kernel()
                if self.kernel.dim_p != self.adjoint_kernel.dim_p:
                    raise self._mismatch("ker F and ker F* differ in dimension")
        if self.composite_kernel_rational:
            self.composite_kernel = composite.kernel()
            if self.composite_kernel.dim_p != 2 * F.span:
                raise self._mismatch("ker F*F does not have dimension 2*span(F)")
        if self.separable:
            parts = [ctx.frob_p(F[i], -i) for i in range(F.degree + 1)]
            acc = 0
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    acc ^= ctx.mul(parts[i], parts[j])
            self._offset = acc

    def _mismatch(self, what: str) -> OracleMismatch:
        return OracleMismatch(f"{what} for {format_skew(self.F)} over F_{{2^{self.q_deg}}}")

    def __repr__(self) -> str:
        return f"TwistDatum({format_skew(self.F)!r}, q_deg={self.q_deg})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwistDatum):
            return NotImplemented
        return self.F == other.F and self.q_deg == other.q_deg

    def __hash__(self) -> int:
        return hash((self.F, self.q_deg))

    @property
    def ctx(self) -> FieldCtx:
        return self.F.ctx

    @property
    def e(self) -> int:
        return self.F.degree

    @property
    def conditions(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.separable,
            self.adjoint_kills_one,
            self.adjoint_kernel_rational,
            self.composite_kernel_rational,
        )

    def require(self, upto: int) -> None:
        """Raise ConditionViolated unless the first `upto` flags hold."""
        names = (
            "valuation 0 with degree >= 1 and nonzero outer coefficients",
            "the adjoint must kill 1",
            "the adjoint kernel must lie in the declared subfield",
            "the composite kernel must lie in the declared subfield",
        )
        for k in range(upto):
            if not self.conditions[k]:
                raise ConditionViolated(names[k])

    def twist_coefficient(self, t: Element) -> Element:
        """Linear coefficient attached to the twist parameter t."""
        self.require(2)
        if not self.ctx.in_subfield(t, self.q_deg):
            raise DomainError(f"twist parameter {t:#x} is outside the subfield")
        return self._offset ^ self.ctx.sqr(self._adjoint(t))

    def head_coefficients(self) -> tuple[Element, ...]:
        """Tail a_1..a_e of the curve family produced by F."""
        self.require(2)
        ctx, F, e = self.ctx, self.F, self.F.degree
        out = []
        for i in range(1, e + 1):
            acc = 0
            for j in range(0, e - i + 1):
                acc ^= ctx.frob_p(ctx.mul(F[j], F[j + i]), -j)
            out.append(acc)
        r = SkewPoly.from_coeffs(ctx, [0] + out)
        if r + r.adjoint() != self._composite:
            raise self._mismatch("R + R* of the head coefficients is not F*F")
        return tuple(out)

    def twist_fiber(self, t: Element) -> list[Element]:
        """All parameters giving the same curve as t: the coset t + ker F*."""
        self.require(3)
        return sorted(t ^ v for v in self.adjoint_kernel.elements())


def weil_gap(spec: CurveSpec, m: int = 1) -> int | None:
    """2g*sqrt(q^m), the distance of a bound-attaining count from q^m + 1.

    None when q^m is not a square, so that no count attains the bound.
    """
    size = spec.q**m
    root = isqrt(size)
    if root * root != size:
        return None
    return 2 * spec.genus * root


def weil_class(spec: CurveSpec, m: int, count: int) -> str:
    """Class of a projective count over F_{q^m}: maximal, minimal,
    neutral (exactly q^m + 1) or interior.

    This is the package's one extremality verdict.  Like weil_gap it
    reads only `spec.q` and `spec.genus`, so `spec` may also be an
    LPolynomial.  Raises OracleMismatch for a count outside the Weil
    bound, which no correct route can produce.
    """
    deviation = count - spec.q**m - 1
    if deviation * deviation > 4 * spec.genus**2 * spec.q**m:
        raise OracleMismatch(
            f"count {count} over extension {m} of {spec!r} violates the Weil bound"
        )
    if deviation == 0:
        return "neutral"
    if abs(deviation) == weil_gap(spec, m):
        return "maximal" if deviation > 0 else "minimal"
    return "interior"


def head_curve(fd: TwistDatum) -> CurveSpec:
    """The curve family tail of a datum, with zero linear coefficient."""
    return CurveSpec(fd.ctx, fd.q_deg, (0,) + fd.head_coefficients())


def build_curve(fd: TwistDatum, t: Element) -> CurveSpec:
    """The curve of the datum twisted by the parameter t."""
    fd.require(3)
    return CurveSpec(
        fd.ctx, fd.q_deg, (fd.twist_coefficient(t),) + fd.head_coefficients()
    )


# ---------------------------------------------------------------------------
# text form: "q=<fieldspec>; R=<hex a_e>,...,<hex a_0>"

_CURVE_RE = re.compile(r"^\s*q\s*=\s*([^;]+?)\s*;\s*R\s*=\s*(.+?)\s*$")
_HEX_RE = re.compile(r"(?:0[xX])?[0-9a-fA-F]+")


def parse_hex(text: str, order: int, label: str = "") -> int:
    """The hex literal `text`, blanks around it ignored, as an element of
    a field with `order` elements; `label` leads the ParseError detail."""
    item = text.strip()
    if not _HEX_RE.fullmatch(item):
        raise ParseError(f"{label}{item!r} is not a hex literal")
    value = int(item, 16)
    if value >= order:
        raise ParseError(f"{label}{item} does not fit in the field")
    return value


def format_curve_spec(spec: CurveSpec) -> str:
    """Render a curve as text, normalizing the ambient to F_q itself."""
    fq = spec if spec.ctx.n == spec.q_deg else spec.canonical()
    hexes = ",".join(f"{c:x}" for c in reversed(fq.coeffs))
    return f"q={format_field_spec(fq.ctx)}; R={hexes}"


def parse_curve_spec(text: str) -> CurveSpec:
    """Parse the text form of a curve; raise ParseError on bad input."""
    m = _CURVE_RE.match(text)
    if not m:
        raise ParseError("expected 'q=<fieldspec>; R=<hex>,...,<hex>'")
    ctx = parse_field_spec(m.group(1))
    coeffs = [parse_hex(part, ctx.order, "coefficient ") for part in m.group(2).split(",")]
    try:
        return CurveSpec(ctx, ctx.n, tuple(reversed(coeffs)))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
