"""Arithmetic in ambient binary fields F_{2^N} with marked subfields.

All field elements are plain Python ints holding the bit pattern of a
polynomial residue: bit i is the coefficient of x^i, so 0 and 1 are the
additive and multiplicative identities of every field and addition is
xor. A FieldCtx fixes the ambient degree N (<= 32), the defining
polynomial, and p_log, the log2 of the semilinear base field
F_p = F_{2^p_log}; the context is passed around explicitly alongside the
raw ints rather than wrapping every element in an object.

Defining polynomials come from a frozen table: for each degree N the
modulus is the least bit pattern with constant term 1 that is
irreducible over F_2. That makes contexts reproducible from scratch
(F_4 uses 0b111, F_16 uses 0x13, and so on) and keeps x invertible in
the quotient.

Up to degree TABLE_MAX_DEGREE, products, inverses and powers are lookups
in log/antilog tables shared per modulus and built on the first product;
above it, and off the field, products stay carry-less and reduced.

F_2-linear algebra on bit-pattern vectors (canonical reduced bases,
kernels, lexicographically least solutions) lives here too, since
F_p-subspaces of the field are the main currency of the higher layers.
"""

from __future__ import annotations

import re
from array import array
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .errors import (
    AmbientTooSmall,
    CtxMismatch,
    DegreeMismatch,
    NoSolution,
    OracleMismatch,
    ParseError,
    ReduciblePolynomial,
    ZeroDivisor,
)

# Elements are bare ints; the alias only documents intent in signatures.
Element = int

MAX_DEGREE = 32
TABLE_MAX_DEGREE = 16


def _check_field_degree(n: int) -> None:
    if n > MAX_DEGREE:
        raise AmbientTooSmall(f"field degree {n} exceeds the ambient cap {MAX_DEGREE}")
    if n < 1:
        raise DegreeMismatch(f"field degree {n} must be >= 1")


# ---------------------------------------------------------------------------
# GF(2)[x] on int bit patterns (no field object needed).


def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] bit patterns."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def clmod(a: int, m: int) -> int:
    """Remainder of a modulo m in GF(2)[x]."""
    mn = m.bit_length()
    while a.bit_length() >= mn:
        a ^= m << (a.bit_length() - mn)
    return a


def clgcd(a: int, b: int) -> int:
    """GCD of two GF(2)[x] bit patterns."""
    while b:
        a, b = b, clmod(a, b)
    return a


def _clpowmod(a: int, e: int, m: int) -> int:
    """a^e modulo m in GF(2)[x], by square-and-multiply."""
    r = 1
    for bit in bin(e)[2:]:
        r = clmod(clmul(r, r), m)
        if bit == "1":
            r = clmod(clmul(r, a), m)
    return r


def poly_is_irreducible(f: int) -> bool:
    """Test irreducibility of f over F_2 (Rabin's test on bit patterns)."""
    n = f.bit_length() - 1
    if n <= 0:
        return False
    if _clpowmod(2, 1 << n, f) != clmod(2, f):  # x^(2^n) == x mod f
        return False
    for ell in _prime_divisors(n):
        if clgcd(_clpowmod(2, 1 << (n // ell), f) ^ 2, f) != 1:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def default_modulus(n: int) -> int:
    """Least irreducible degree-n bit pattern with constant term 1."""
    _check_field_degree(n)
    f = (1 << n) | 1
    while not poly_is_irreducible(f):
        f += 2  # keep the constant term
    return f


@lru_cache(maxsize=None)
def _log_tables(n: int, poly: int) -> tuple[array, array]:
    """16-bit (log, exp) arrays for F_2[x]/(poly) and its least primitive g:
    exp[i] = g^i for i < 2(q - 1), so a sum of two logs indexes exp."""
    q1 = (1 << n) - 1
    cofactors = [q1 // ell for ell in _prime_divisors(q1)]  # g is primitive iff no g^c is 1
    g = next((g for g in range(1, q1 + 1) if all(_clpowmod(g, c, poly) != 1 for c in cofactors)), 0)
    # x -> x*g is F_2-linear: one lookup for the low byte of x, one for the high
    lo, hi = ([clmod(clmul(b << s, g), poly) for b in range(min(256, (q1 >> s) + 1))]
              for s in (0, 8))
    exp, log = array("H", [0]) * (2 * q1), array("H", [0]) * (q1 + 1)
    x = 1
    for i in range(q1):
        exp[i] = exp[i + q1] = x
        log[x] = i
        x = lo[x & 255] ^ hi[x >> 8]
    if log.count(0) != 2:  # log[a] = 0 for a = 0, 1 only: the powers are F_q*
        raise OracleMismatch(f"no generator of F_q* modulo {poly:#x} (tried {g:#x})")
    return log, exp


# ---------------------------------------------------------------------------
# F_2-linear algebra on bit-pattern vectors.
#
# A linear map F_2^nbits -> F_2^m is given by the list of images of the
# unit vectors: images[j] is where bit j goes. A subspace is a tuple of
# basis vectors in canonical reduced form: distinct leading bits, each
# leading bit cleared in all the other vectors, sorted by decreasing
# leading bit. That form is unique per subspace, which the higher layers
# rely on for deterministic tie-breaking.


def rref_basis(vectors: Iterable[int]) -> tuple[int, ...]:
    """Canonical reduced basis of the span of the given bit vectors."""
    # invariant: each pivot bit occurs in exactly one stored vector, so a
    # single pass of xors fully reduces any incoming vector
    pivots: dict[int, int] = {}
    for v in vectors:
        for b, w in pivots.items():
            if (v >> b) & 1:
                v ^= w
        if v:
            b = v.bit_length() - 1
            for b2, w in pivots.items():
                if (w >> b) & 1:
                    pivots[b2] = w ^ v
            pivots[b] = v
    return tuple(sorted(pivots.values(), reverse=True))


def reduce_vector(basis: Sequence[int], v: int) -> int:
    """Reduce v by a canonical basis; 0 means v is in the span."""
    for w in basis:
        if (v >> (w.bit_length() - 1)) & 1:
            v ^= w
    return v


def span_contains(basis: Sequence[int], v: int) -> bool:
    """Whether v lies in the span of a canonical basis."""
    return reduce_vector(basis, v) == 0


def _byte_tables(images: Sequence[int]) -> list[list[int]]:
    """One 256-entry table per byte of the input of the F_2-linear map
    bit j -> images[j]: entry b of table k is the XOR of the images of
    the bits set in b << 8k."""
    tables = []
    for lo in range(0, len(images), 8):
        table = [0]
        for img in images[lo : lo + 8]:
            table += [v ^ img for v in table]
        tables.append(table * (256 // len(table)))  # repeats ignore the missing bits
    return tables


def linear_map(images: Sequence[int]) -> Callable[[int], int]:
    """The F_2-linear map bit j -> images[j] as a function on ints: the
    image of x is the XOR over its bytes of one `_byte_tables` lookup
    each.  Bits past the last image map to 0."""
    tables = _byte_tables(images)

    def apply(x: int) -> int:
        out = 0
        for table in tables:
            out ^= table[x & 0xFF]
            x >>= 8
        return out

    return apply


def span_elements(basis: Sequence[int]) -> list[int]:
    """All elements of the span, ascending (2^len(basis) of them)."""
    out = [0]
    for w in basis:
        out += [x ^ w for x in out]
    out.sort()
    return out


class _Eliminator:
    """Elimination for the F_2-linear map sources[j] -> images[j]; kernel
    and solutions are sums of sources, and solve() picks the least one."""

    def __init__(self, images: Sequence[int], sources: Sequence[int]):
        self.pivots: dict[int, tuple[int, int]] = {}
        kernel = []
        for img, src in zip(images, sources):
            while img:
                b = img.bit_length() - 1
                if b not in self.pivots:
                    self.pivots[b] = (img, src)
                    break
                pimg, psrc = self.pivots[b]
                img ^= pimg
                src ^= psrc
            else:
                kernel.append(src)
        self.kernel = rref_basis(kernel)

    def solve(self, target: int) -> int:
        sol = 0
        while target:
            b = target.bit_length() - 1
            if b not in self.pivots:
                raise NoSolution(f"target bit {b} outside the image")
            img, src = self.pivots[b]
            target ^= img
            sol ^= src
        return reduce_vector(self.kernel, sol)  # least in the coset


def kernel_basis(
    images: Sequence[int], sources: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Canonical basis of the kernel of the F_2-linear map sources[j] ->
    images[j], as sums of sources (default: the unit vectors 1 << j)."""
    if sources is None:
        sources = [1 << j for j in range(len(images))]
    return _Eliminator(images, sources).kernel


def intersect_spans(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Canonical basis of span(a) & span(b): the a-parts of the kernel
    of (x, y) -> x + y on span(a) x span(b), which is {(v, v) : v in both}."""
    return kernel_basis([*a, *b], [*a, *[0] * len(b)])


# ---------------------------------------------------------------------------


class FieldCtx:
    """Ambient field F_{2^n} with a marked semilinear base F_{2^p_log}.

    Elements are ints in range(2^n), and `mul`, `inv`, `pow`, `frob`,
    `frob_p`, `sqr` and `sqrt` fail `check` on any other int. All
    methods take and return those ints; nothing here allocates wrappers.
    Instances are immutable and hash/compare by (n, poly, p_log).

    Each Frobenius power and each trace is an F_2-linear map, cached the
    first time it is used (`_field_map`).  Up to 8 bits an element is one
    byte, so the map is the lookup of one byte table and applying it opens
    no Python frame; `frob`, `frob_p`, `sqr`, `sqrt` and `in_subfield`
    read the cached Frobenius maps themselves, without calling each other.
    """

    __slots__ = (
        "n", "poly", "p_log", "_hash", "_poly_bits", "_frob_maps", "_trace_maps",
        "_sub_basis", "_sub_elems", "_sub_gen", "_tables",
    )

    def __init__(self, n: int, poly: int | None = None, p_log: int = 1):
        _check_field_degree(n)
        if poly is None:
            poly = default_modulus(n)
        if poly.bit_length() - 1 != n:
            raise DegreeMismatch(f"modulus degree {poly.bit_length() - 1} != {n}")
        if not poly_is_irreducible(poly):
            raise ReduciblePolynomial(f"modulus {poly:#x} is reducible")
        if p_log < 1 or n % p_log != 0:
            raise DegreeMismatch(f"p_log {p_log} must divide the degree {n}")
        self.n = n
        self.poly = poly
        self.p_log = p_log
        self._hash = hash((n, poly, p_log))
        self._poly_bits = tuple(k for k in range(n + 1) if (poly >> k) & 1)
        self._frob_maps: list[Callable[[int], int] | None] = [None] * n  # by j mod n
        self._trace_maps: dict[tuple[int, int], Callable[[int], int]] = {}
        self._sub_basis: dict[int, tuple[int, ...]] = {}
        self._sub_elems: dict[int, list[int]] = {}
        self._sub_gen: dict[int, int] = {}
        self._tables: tuple[array, array] | None = None

    # -- identity ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldCtx(n={self.n}, poly={self.poly:#x}, p_log={self.p_log})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldCtx)
            and (self.n, self.poly, self.p_log) == (other.n, other.poly, other.p_log)
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return 1 << self.n

    @property
    def p(self) -> int:
        """The semilinear base field order 2^p_log."""
        return 1 << self.p_log

    def check(self, a: Element) -> Element:
        """Validate that a is a legal bit pattern for this field."""
        if not 0 <= a < (1 << self.n):
            raise CtxMismatch(f"{a:#x} is not an element of F_{{2^{self.n}}}")
        return a

    # -- ring operations ----------------------------------------------------

    def mul(self, a: Element, b: Element) -> Element:
        """Up to degree TABLE_MAX_DEGREE, 0 or exp[log a + log b] from
        `_log_tables`.  Else the carry-less product, reduced: each round
        adds high * modulus, high = r >> n, and leaves high times the
        lower terms, so a sparse modulus takes few rounds.  An operand
        outside [0, 2^n), negative ones included, fails `check`.
        """
        n = self.n
        if (a | b) >> n:
            self.check(a)
            self.check(b)
        if n <= TABLE_MAX_DEGREE:
            if not (a and b):
                return 0
            log, exp = self._tables or self._load_tables()
            return exp[log[a] + log[b]]
        r = clmul(a, b)
        while r >> n:
            high = r >> n
            for k in self._poly_bits:
                r ^= high << k
        return r

    def _load_tables(self) -> tuple[array, array]:
        self._tables = _log_tables(self.n, self.poly)
        return self._tables

    def sqr(self, a: Element) -> Element:
        if a >> self.n:
            self.check(a)
        return (self._frob_maps[1 % self.n] or self.frob_map(1))(a)

    def pow(self, a: Element, e: int) -> Element:
        if a >> self.n:
            self.check(a)
        if a and self.n <= TABLE_MAX_DEGREE:
            log, exp = self._tables or self._load_tables()
            return exp[log[a] * e % ((1 << self.n) - 1)]
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.sqr(a)
            e >>= 1
        return r

    def inv(self, a: Element) -> Element:
        """a^(2^n - 2) by Itoh-Tsujii: b_k = a^(2^k - 1) satisfies
        b_2k = b_k^(2^k) * b_k and b_(k+1) = b_k^2 * a, so b_(n-1)
        follows the bits of n - 1 in about 2*log2(n) products, and
        a^-1 = b_(n-1)^2.  The squarings reuse `frob_map(1)`, the map
        `sqr` builds in every context, so inversion builds no map of its
        own.  Where `mul` reads tables, a^-1 = exp[(q - 1) - log a]."""
        if a == 0:
            raise ZeroDivisor("inverting 0")
        if a >> self.n:
            self.check(a)
        if self.n <= TABLE_MAX_DEGREE:
            log, exp = self._tables or self._load_tables()
            return exp[(1 << self.n) - 1 - log[a]]
        sqr = self.frob_map(1)
        b, k = a, 1  # b = b_k; for n = 1 only a = 1 is left
        for bit in bin(self.n - 1)[3:]:
            c = b
            for _ in range(k):
                c = sqr(c)
            b, k = self.mul(c, b), 2 * k
            if bit == "1":
                b, k = self.mul(sqr(b), a), k + 1
        return sqr(b)

    def sqrt(self, a: Element) -> Element:
        """The unique square root (Frobenius is bijective): a^(2^(n-1))."""
        if a >> self.n:
            self.check(a)
        return (self._frob_maps[-1] or self.frob_map(-1))(a)

    def frob(self, a: Element, j: int) -> Element:
        """a^(2^j) for any integer j; negative j inverts Frobenius.

        x -> x^(2^j) is F_2-linear, so a^(2^j) is its `frob_map`.
        """
        if a >> self.n:
            self.check(a)
        j %= self.n
        return (self._frob_maps[j] or self.frob_map(j))(a) if j else a

    def frob_map(self, j: int) -> Callable[[int], int]:
        """x -> x^(2^j) on the elements of the field, as a `_field_map`
        built the first time j mod n is used; for j a multiple of n it is
        the identity.  It is defined on field elements only and checks
        nothing: an int outside [0, 2^n) gets no defined answer."""
        j %= self.n
        fmap = self._frob_maps[j]
        if fmap is None:
            fmap = self._frob_maps[j] = self._field_map(self._frob_images(j))
        return fmap

    def _field_map(self, images: list[int]) -> Callable[[int], int]:
        """The F_2-linear map t^k -> images[k] on the field's elements.
        Up to 8 bits, one byte, it is the lookup of the single table of
        `_byte_tables`, which runs no Python code; above, `linear_map`."""
        if self.n > 8:
            return linear_map(images)
        (table,) = _byte_tables(images)
        return table.__getitem__

    def _frob_images(self, j: int) -> list[int]:
        """(t^k)^(2^j) for k < n, t the root of the modulus: the powers of
        t^(2^j)."""
        g = 2
        for _ in range(j):
            g = self.mul(g, g)
        images = [1]
        for _ in range(self.n - 1):
            images.append(self.mul(images[-1], g))
        return images

    def frob_p(self, a: Element, i: int) -> Element:
        """a^(p^i) for any integer i, p = 2^p_log: `frob` at j = i*p_log."""
        if a >> self.n:
            self.check(a)
        j = i * self.p_log % self.n
        return (self._frob_maps[j] or self.frob_map(j))(a) if j else a

    # -- subfields and traces ------------------------------------------------

    def check_degrees(self, deg: int, sub: int = 1) -> None:
        """Raise DegreeMismatch unless 1 <= sub | deg | n: deg is the
        degree of a subfield, and sub of a subfield inside it."""
        if not 1 <= sub <= deg or deg % sub or self.n % deg:
            chain = f"{sub} | {deg}" if sub != 1 else str(deg)
            raise DegreeMismatch(f"subfield degrees need 1 <= {chain} | {self.n}")

    def in_subfield(self, a: Element, deg: int) -> bool:
        """Whether a lies in the subfield of degree deg over F_2, that is
        a^(2^deg) == a; never for an int outside [0, 2^n)."""
        self.check_degrees(deg)
        return a >> self.n == 0 and (
            deg == self.n or (self._frob_maps[deg] or self.frob_map(deg))(a) == a
        )

    def trace(self, a: Element, from_deg: int, to_deg: int) -> Element:
        """Additive trace from the degree-from_deg subfield down to to_deg.

        On that subfield the trace is the F_2-linear map
        x -> x + x^(2^to_deg) + ... (from_deg/to_deg terms), so it is the
        `_field_map` of the images of the unit vectors, built the first
        time the pair is used.
        """
        self.check_degrees(from_deg, to_deg)
        fmap = from_deg < self.n and (self._frob_maps[from_deg] or self.frob_map(from_deg))
        if a >> self.n or fmap and fmap(a) != a:  # `in_subfield` without its degree check
            raise DegreeMismatch(f"{a:#x} not in the degree-{from_deg} subfield")
        tmap = self._trace_maps.get((from_deg, to_deg))
        if tmap is None:
            tmap = self._trace_maps[from_deg, to_deg] = self._field_map(
                self._trace_images(from_deg, to_deg)
            )
        return tmap(a)

    def _trace_images(self, from_deg: int, to_deg: int) -> list[int]:
        """t^k + (t^k)^(2^to_deg) + ... (from_deg/to_deg terms) for k < n."""
        images = []
        for k in range(self.n):
            x, t = 1 << k, 0
            for _ in range(from_deg // to_deg):
                t ^= x
                x = self.frob(x, to_deg)
            images.append(t)
        return images

    def subfield_basis(self, deg: int) -> tuple[int, ...]:
        """Canonical F_2-basis of the degree-deg subfield."""
        if deg not in self._sub_basis:
            self.check_degrees(deg)
            images = [self.frob(1 << j, deg) ^ (1 << j) for j in range(self.n)]
            self._sub_basis[deg] = kernel_basis(images)
        return self._sub_basis[deg]

    def subfield_elements(self, deg: int) -> list[int]:
        """All elements of the degree-deg subfield, ascending."""
        if deg not in self._sub_elems:
            self._sub_elems[deg] = span_elements(self.subfield_basis(deg))
        return self._sub_elems[deg]

    def subfield_generator(self, deg: int) -> int:
        """Least root of the default degree-deg modulus m in this field.

        This pins down one canonical copy of F_{2^deg} inside every
        context, which is what makes cross-context transport of subfield
        elements well defined.  The roots of m are the deg conjugates of
        any one root, so one root is found by trace splitting (von zur
        Gathen-Gerhard, Modern Computer Algebra, ch. 14): for beta in
        the subfield, Tr(beta*X) mod m is the sum of the beta^(2^i) times
        the F_2 patterns X^(2^i) mod m, and gcd(f, Tr(beta*X)) keeps the
        roots r of f with Tr(beta*r) = 0.  The trace form is
        nondegenerate, so an F_2-basis of betas leaves one linear factor.
        """
        if deg not in self._sub_gen:
            m = default_modulus(deg)
            powers = [clmod(2, m)]  # X^(2^i) mod m
            for _ in range(deg - 1):
                powers.append(clmod(clmul(powers[-1], powers[-1]), m))
            f = [(m >> k) & 1 for k in range(deg, -1, -1)]  # leading first
            for beta in self.subfield_basis(deg):
                if len(f) == 2:
                    break
                tr = [0] * deg  # Tr(beta*X) mod m, leading first
                for power in powers:
                    tr = [c ^ beta * (power >> k & 1) for c, k in zip(tr, range(deg - 1, -1, -1))]
                    beta = self.sqr(beta)
                f = g if len(g := self._poly_gcd(f, tr)) > 1 else f
            if len(f) != 2:
                raise OracleMismatch(f"trace splitting left a degree-{len(f) - 1} factor of {m:#x}")
            root = self.mul(f[1], self.inv(f[0]))
            # root^(2^i) for i = 1..deg, the last one root again
            self._sub_gen[deg] = min([root := self.sqr(root) for _ in range(deg)])
        return self._sub_gen[deg]

    def _poly_gcd(self, a: list[int], b: list[int]) -> list[int]:
        """A gcd in F_{2^n}[X] of two coefficient lists, leading
        coefficient first; a's leading coefficient is nonzero."""
        while b := b[next((i for i, c in enumerate(b) if c), len(b)) :]:
            lead = self.inv(b[0])
            while len(a) >= len(b):
                c = self.mul(a[0], lead)
                a = [x ^ self.mul(c, y) for x, y in zip(a[1:], b[1:])] + a[len(b) :]
                a = a[next((i for i, c in enumerate(a) if c), len(a)) :]
            a, b = b, a
        return a

    # -- linear-map helpers ---------------------------------------------------

    def linear_images(self, fn: Callable[[Element], Element]) -> list[int]:
        """Images of the F_2 unit vectors under an additive map."""
        return [fn(1 << j) for j in range(self.n)]

    def solve_additive(
        self, fn: Callable[[Element], Element], target: Element, deg: int
    ) -> Element:
        """The least x in the degree-deg subfield with fn(x) == target.

        fn must be additive; x is least as a bit pattern among all
        solutions in the subfield (a coset of the kernel of fn there).
        Raises NoSolution when target is outside the image.
        """
        basis = self.subfield_basis(deg)
        return _Eliminator([fn(b) for b in basis], basis).solve(target)


@lru_cache(maxsize=None)
def make_field(n: int, poly: int | None = None, p_log: int = 1) -> FieldCtx:
    """Shared, cached context for F_{2^n} (default modulus unless given)."""
    return FieldCtx(n, poly, p_log)


def transport(src: FieldCtx, a: Element, dst: FieldCtx, deg: int) -> Element:
    """Carry an element of the degree-deg subfield of src into dst.

    Both contexts must contain F_{2^deg}; the canonical embedding sends
    the least root of the default degree-deg modulus in src to the least
    root in dst, so transports compose consistently across contexts.
    """
    dst.check_degrees(deg)
    if not src.in_subfield(a, deg):
        raise DegreeMismatch(f"{a:#x} not in the degree-{deg} subfield")
    if src.n == dst.n and src.poly == dst.poly:
        return a
    return _transport_eliminator(src, dst, deg).solve(a)


@lru_cache(maxsize=None)
def _transport_eliminator(src: FieldCtx, dst: FieldCtx, deg: int) -> _Eliminator:
    g_src, g_dst = src.subfield_generator(deg), dst.subfield_generator(deg)
    images, sources = [1], [1]
    for _ in range(deg - 1):  # a in powers of g_src, read back in powers of g_dst
        images.append(src.mul(images[-1], g_src))
        sources.append(dst.mul(sources[-1], g_dst))
    return _Eliminator(images, sources)


# ---------------------------------------------------------------------------


class Fp2Subspace:
    """An F_p-subspace of the ambient field, p = 2^p_log of its context.

    Stored as the canonical reduced F_2-basis of the underlying
    F_2-space; construction closes the span under multiplication by
    F_p, so the F_2 dimension is always p_log times the F_p dimension.
    """

    __slots__ = ("ctx", "basis")

    def __init__(self, ctx: FieldCtx, basis: tuple[int, ...]):
        self.ctx = ctx
        self.basis = basis

    @property
    def p_log(self) -> int:
        return self.ctx.p_log

    @classmethod
    def from_vectors(cls, ctx: FieldCtx, vecs: Iterable[Element]) -> "Fp2Subspace":
        scalars = ctx.subfield_basis(ctx.p_log)
        closed = [ctx.mul(c, v) for v in map(ctx.check, vecs) for c in scalars]
        basis = rref_basis(closed)
        if len(basis) % ctx.p_log:
            raise OracleMismatch(f"an F_p-span of F_2-dimension {len(basis)}, p = 2^{ctx.p_log}")
        return cls(ctx, basis)

    def __repr__(self) -> str:
        vecs = ", ".join(f"{v:#x}" for v in self.basis)
        return f"Fp2Subspace(p=2^{self.p_log}, [{vecs}])"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Fp2Subspace)
            and self.ctx == other.ctx
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.basis))

    def _check_peer(self, other: "Fp2Subspace") -> None:
        if self.ctx != other.ctx:
            raise CtxMismatch("subspaces live over different contexts")

    @property
    def dim2(self) -> int:
        """Dimension over F_2."""
        return len(self.basis)

    @property
    def dim_p(self) -> int:
        """Dimension over F_p."""
        return len(self.basis) // self.p_log

    def contains(self, v: Element) -> bool:
        return span_contains(self.basis, v)

    def elements(self) -> list[int]:
        """All p^dim_p elements, ascending."""
        return span_elements(self.basis)

    def fp_basis(self) -> tuple[int, ...]:
        """A deterministic F_p-basis: greedy scan of the reduced basis."""
        ctx, picked = self.ctx, []
        scalars = ctx.subfield_basis(self.p_log)
        spanned: tuple[int, ...] = ()
        for v in self.basis:
            if not span_contains(spanned, v):
                picked.append(v)
                spanned = rref_basis(
                    list(spanned) + [ctx.mul(c, v) for c in scalars]
                )
        if len(picked) != self.dim_p:
            raise OracleMismatch(f"{len(picked)} vectors in an F_p-basis of dim {self.dim_p}")
        return tuple(picked)

    def intersect(self, other: "Fp2Subspace") -> "Fp2Subspace":
        self._check_peer(other)
        inter = intersect_spans(self.basis, other.basis)
        return Fp2Subspace(self.ctx, inter)

    def add(self, other: "Fp2Subspace") -> "Fp2Subspace":
        self._check_peer(other)
        return Fp2Subspace(self.ctx, rref_basis(self.basis + other.basis))

    def is_subspace_of(self, other: "Fp2Subspace") -> bool:
        self._check_peer(other)
        return all(other.contains(v) for v in self.basis)

    def in_subfield(self, deg: int) -> bool:
        """Whether every element lies in the degree-deg subfield."""
        self.ctx.check_degrees(deg)
        return all(self.ctx.in_subfield(v, deg) for v in self.basis)

    def intersect_subfield(self, deg: int) -> "Fp2Subspace":
        """Intersection with the degree-deg subfield (an F_p-space again)."""
        sub = self.ctx.subfield_basis(deg)
        inter = intersect_spans(self.basis, sub)
        return Fp2Subspace(self.ctx, inter)


# ---------------------------------------------------------------------------
# Field spec strings: "F<2^N>[:<modulus>][:p=<2^k>]", e.g. "F16:0x13:p=4".

_FIELD_RE = re.compile(r"^F(\d+)(?::(0[xX][0-9a-fA-F]+|\d+))?(?::p=(\d+))?$")


def parse_int(digits: str, base: int = 10) -> int:
    """int(digits, base), with a ParseError for what int() refuses: a
    leading-zero decimal under base 0, or too many decimal digits."""
    try:
        return int(digits, base)
    except ValueError:
        shown = digits if len(digits) <= 20 else f"{digits[:8]}... ({len(digits)} digits)"
        raise ParseError(f"number {shown} has leading zeros or too many digits") from None


def parse_field_spec(text: str) -> FieldCtx:
    """Parse a field spec string into a (cached) context."""
    m = _FIELD_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad field spec {text!r}")
    order = parse_int(m.group(1))
    n = order.bit_length() - 1
    if order <= 1 or (1 << n) != order:
        raise ParseError(f"field order {order} is not a power of 2")
    poly = parse_int(m.group(2), 0) if m.group(2) else None
    p_log = 1
    if m.group(3):
        p = parse_int(m.group(3))
        p_log = p.bit_length() - 1
        if p <= 1 or (1 << p_log) != p:
            raise ParseError(f"base order {p} is not a power of 2")
        if n % p_log:
            raise ParseError(f"base field F_{p} does not sit inside F_{order}")
    return make_field(n, poly, p_log)


def format_field_spec(ctx: FieldCtx) -> str:
    """Canonical field spec string for a context."""
    s = f"F{1 << ctx.n}"
    if ctx.poly != default_modulus(ctx.n):
        s += f":{ctx.poly:#x}"
    if ctx.p_log != 1:
        s += f":p={1 << ctx.p_log}"
    return s
