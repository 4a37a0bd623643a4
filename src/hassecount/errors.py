"""Exception types shared across the package.

Domain errors (bad inputs, out-of-scope fields) derive from HasseCountError.
InternalInvariantError marks conditions that are mathematically impossible
unless the library itself is buggy; it is never raised for bad user input.
"""


class HasseCountError(Exception):
    """Base class for all library errors."""


class NotPrime(HasseCountError, ValueError):
    """The claimed characteristic is not a prime number."""


class NotPrimePower(HasseCountError, ValueError):
    """The claimed field size is not a prime power."""


class ReduciblePolynomial(HasseCountError, ValueError):
    """A supplied modulus polynomial is not irreducible (or not monic of the right degree)."""


class SpecMismatch(HasseCountError, ValueError):
    """Operands belong to different field specs."""


class NotASquare(HasseCountError, ValueError):
    """Square root requested of a non-square element."""


class SingularCurve(HasseCountError, ValueError):
    """The Weierstrass coefficients have vanishing discriminant.

    Raised as SingularCurve((a1, a2, a3, a4, a6), q).  The message,
    "discriminant vanishes for (a1, a2, a3, a4, a6) over F_q", is formatted
    only when read: the sweeps raise and catch one per singular vector."""

    @property
    def coefficients(self) -> tuple:
        return self.args[0]

    @property
    def q(self) -> int:
        return self.args[1]

    def __str__(self):
        return f"discriminant vanishes for {self.coefficients} over F_{self.q}"


class PointNotOnCurve(HasseCountError, ValueError):
    """Affine coordinates do not satisfy the curve equation."""


class FieldTooLarge(HasseCountError, ValueError):
    """The field is above the supported q <= 2^62, or the operation's exhaustive
    code path is guarded to smaller fields."""


class ExcludedField(HasseCountError, ValueError):
    """Point-order counting was forced on a field size where trace uniqueness can fail."""


class IterationCapExceeded(HasseCountError, RuntimeError):
    """The Las Vegas sampling loop hit its safety cap (indicates a bug off the excluded set)."""


class IncompatibleCongruence(HasseCountError, ValueError):
    """CRT merge of contradictory congruences (an arithmetic bug when it happens while counting)."""


class InternalInvariantError(HasseCountError, RuntimeError):
    """A mathematically guaranteed invariant failed; the library is at fault."""
