"""Exception types shared across the package.

Every error that a caller can provoke with legal-but-rejected input loops
through one of these classes, so the command line driver can map them to
stable exit codes.
"""

from __future__ import annotations

__all__ = [
    "GridFormatError",
    "IllegalCommutation",
    "NotDestabilizable",
    "NonIntegralAlexander",
    "ResourceLimit",
    "OverflowGuard",
    "UnsatisfiableSigns",
    "InexactDivision",
    "InvalidDifferential",
    "AsymmetryDetected",
    "InvalidHomology",
    "EmptyInterval",
]


class GridFormatError(ValueError):
    """Raised when grid text cannot be parsed or fails validation.

    Carries a human-readable location (line number or field name) so the
    CLI can point at the offending token.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IllegalCommutation(ValueError):
    """Requested commutation interchanges linked marking pairs."""


class NotDestabilizable(ValueError):
    """The indicated corner does not match any destabilization picture."""


class NonIntegralAlexander(ValueError):
    """The grid presents a multi-component link, not a knot.

    With an even number of components the Alexander grading is
    half-integral; with an odd number it is integral, and the component
    count refuses the grid.
    """


class ResourceLimit(RuntimeError):
    """A configured size or memory ceiling would be exceeded."""


class OverflowGuard(ResourceLimit):
    """Integer workload outgrew its memory ceiling during elimination.

    Entries are promoted to arbitrary precision automatically, so this
    only fires when the configured memory cap is reached.
    """


class UnsatisfiableSigns(RuntimeError):
    """No sign assignment satisfies the constraint system.

    ``certificate`` says what failed, for diagnosis: a violated constraint
    (its variables and the required parity), a malformed composite or
    annulus, an unreached generator, or an unknown left undetermined.
    """

    def __init__(self, message: str, certificate=None):
        self.certificate = certificate
        super().__init__(message)


class InexactDivision(ArithmeticError):
    """Polynomial division that must be exact left a remainder."""


class InvalidDifferential(ArithmeticError):
    """A differential breaks a property the grid complex must have.

    A term leaves its (M-1, A) block, d^2 is not zero, or two poset
    elements joined by a chain of covers (differential terms) have no
    positive domain between them.
    """


class AsymmetryDetected(ArithmeticError):
    """A quantity that must be symmetric under t -> 1/t is not."""


class InvalidHomology(ArithmeticError):
    """A hat table breaks a property every knot's has.

    The hat homology of a knot is nonzero, its top Alexander grading is
    at least the degree of the Alexander polynomial, and its graded Euler
    characteristic is that polynomial up to sign.
    """


class EmptyInterval(ValueError):
    """Interval endpoints are not related in the partial order."""
