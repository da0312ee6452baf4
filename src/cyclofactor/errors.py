"""Exception hierarchy shared by all modules.

Every mathematical precondition failure derives from MathDomainError so the
command line interface can map them to a single exit code.  ParseError stays
outside that branch because it gets its own code.  InvariantViolated stays
outside it too: a broken internal identity is not a domain error, so the CLI
maps it, like every other CyclofactorError, to the internal-error code 4.
A failed verify() raises nothing: it is a report, and the CLI exits 1
through it.
"""


class CyclofactorError(Exception):
    pass


class MathDomainError(CyclofactorError, ValueError):
    """Input outside the mathematical domain of an operation."""


class ParseError(CyclofactorError, ValueError):
    """Malformed textual input (CLI arguments, field or element syntax)."""


class InvariantViolated(CyclofactorError):
    """An identity the paper proves failed at run time: a bug, not bad input.

    Raised instead of a bare assert so that the check survives python -O.
    """


# -- number theory / field construction --------------------------------------

class NotPrime(MathDomainError):
    pass


class NotCoprime(MathDomainError):
    pass


class PNotDividing(MathDomainError):
    pass


class ReducibleModulus(MathDomainError):
    pass


class DegreeMismatch(MathDomainError):
    pass


class ZeroElement(MathDomainError):
    pass


class OrderNotDividing(MathDomainError):
    pass


class NoRoot(MathDomainError):
    pass


class NotASubfield(MathDomainError):
    pass


# -- polynomials --------------------------------------------------------------

class CtxMismatch(MathDomainError):
    pass


class DivByZero(MathDomainError):
    pass


class BaseNotSubfield(MathDomainError):
    pass


class ImproperCoefficients(MathDomainError):
    pass


class NotIrreducible(MathDomainError):
    pass


class RootAtZero(MathDomainError):
    pass


# -- factorizer ----------------------------------------------------------------

class PreconditionViolated(MathDomainError):
    pass


class RadicalNotDividing(MathDomainError):
    pass


class FourDividesConflict(MathDomainError):
    pass


class NotCoprimeToChar(MathDomainError):
    pass


# -- oracle --------------------------------------------------------------------

class DegreeGuard(MathDomainError):
    """Requested computation exceeds the configured degree budget."""
