"""Exception types shared across the package."""


class DualDrazinError(Exception):
    """Base class for all library-specific errors."""


class NotAppreciable(DualDrazinError):
    """The standard part of a dual number is zero where a unit is required."""


class NotDualDrazinInvertible(DualDrazinError):
    """The dual matrix admits no dual Drazin inverse."""


class IndexTooLarge(DualDrazinError):
    """An operation requiring index at most 1 received a matrix of higher index."""


class ShapeMismatch(DualDrazinError, ValueError):
    """Block or operand shapes are incompatible."""


class NonFiniteEntries(DualDrazinError, ValueError):
    """A matrix entry is NaN or infinite."""


class CrossCheckFailed(DualDrazinError, ArithmeticError):
    """Two routes to the same quantity disagree beyond tolerance."""


class HypothesisViolated(DualDrazinError):
    """A closed-form theorem was invoked on inputs violating its hypotheses."""


class SpecInvalid(DualDrazinError):
    """A digraph description is malformed (zero vector, bad sizes, missing unit)."""


class GenerationFailed(DualDrazinError):
    """The instance generator could not produce a valid instance."""


class InexactInput(DualDrazinError):
    """Exact-arithmetic routines received entries that are not Gaussian integers."""


class SchemaError(DualDrazinError):
    """A JSON document does not match the expected file format."""
