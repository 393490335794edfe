"""Exception taxonomy shared by all modules.

Every failure mode that callers may want to branch on gets its own class;
the CLI maps a few of them to fixed exit codes, everything else is a
plain error. All of them derive from Char2Error so library users can
catch the whole family at once.
"""


class Char2Error(Exception):
    """Base class for every error raised by this package."""


class ParseError(Char2Error, ValueError):
    """Malformed text input (field specs, polynomials, curve specs)."""


class CtxMismatch(Char2Error, ValueError):
    """Objects built over different field contexts were combined."""


class DegreeMismatch(Char2Error, ValueError):
    """A subfield degree does not divide, or an element is outside it."""


class NoSolution(Char2Error, ValueError):
    """A linear system has no solution."""


class ReduciblePolynomial(Char2Error, ValueError):
    """A defining polynomial is not irreducible."""


class ZeroPolynomial(Char2Error, ValueError):
    """The zero polynomial was passed where a nonzero one is required."""


class ZeroDivisor(Char2Error, ZeroDivisionError):
    """Division by the zero polynomial or zero element."""


class NotDivisible(Char2Error, ValueError):
    """Right division left a nonzero remainder."""


class AmbientTooSmall(Char2Error, ValueError):
    """A kernel or splitting field does not fit inside the ambient field."""


class NotSelfAdjoint(Char2Error, ValueError):
    """An operator expected to equal its adjoint does not."""


class NotIsotropic(Char2Error, ValueError):
    """A subspace is not totally isotropic for the pairing in play."""


class NotInKernel(Char2Error, ValueError):
    """An element expected to lie in an operator kernel does not."""


class NotSubspaceOfW(Char2Error, ValueError):
    """A subspace argument is not contained in the pairing's kernel space."""


class NotSymplectic(Char2Error, ValueError):
    """A pairing expected to be alternating/nondegenerate is not."""


class DomainError(Char2Error, ValueError):
    """An argument lies outside the domain of the operation it is given to."""


class ConditionViolated(Char2Error, ValueError):
    """A required operator condition (coefficients, kernels) fails."""


class KernelNotRational(Char2Error, ValueError):
    """A kernel is not contained in the requested rational subfield."""


class NoTwistParameter(Char2Error, ValueError):
    """No twist parameter t produces the requested constant term."""


class HypothesisFailed(Char2Error, ValueError):
    """An operation's mathematical hypothesis does not hold for the input."""


class RootsNotSimple(Char2Error, ValueError):
    """A polynomial required to be squarefree has repeated roots."""


class FOneNonzero(Char2Error, ValueError):
    """A polynomial required to vanish at 1 does not."""


class FieldTooSmall(Char2Error, ValueError):
    """The working field does not contain a required subfield."""


class CapExceeded(Char2Error, RuntimeError):
    """An iteration cap was reached before the answer was found."""


class BudgetExceeded(Char2Error, RuntimeError):
    """An enumeration would exceed the configured element budget."""


class NonRealCount(Char2Error, ArithmeticError):
    """A point count came out non-real or non-integral; internal bug."""


class PairingConditionFailed(Char2Error, ValueError):
    """The character/pairing compatibility condition fails for the input."""


class OddDegree(Char2Error, ValueError):
    """A field degree that must be even is odd."""


class OracleMismatch(Char2Error, AssertionError):
    """Closed-form and exhaustive routes disagree; hard failure."""
