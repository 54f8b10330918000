"""Exception types shared across the toolkit.

Everything derives from OpKernelError through exactly one of two bases, so
callers (and the CLI) map failures to exit codes by class:

  * InputError: bad descriptors, grids, measures, points  -> exit 2
  * negative verdicts are not exceptions at all           -> exit 3
  * NumericalError: ill conditioning, broken invariants   -> exit 4
"""


class OpKernelError(Exception):
    """Base class for all toolkit errors."""


class InputError(OpKernelError):
    """The input is malformed or out of range (exit 2)."""


class NumericalError(OpKernelError):
    """A computation on valid input failed a numerical guard (exit 4)."""


# --- input-side errors -------------------------------------------------


class InvalidMatrix(InputError):
    """Matrix input is not square / finite / the expected shape."""


class InvalidMeasure(InputError):
    """Measure atoms violate an invariant (negative weight, non-PSD matrix...)."""


class InvalidVector(InputError):
    """Vector input is zero, wrong length, or non-finite."""


class InvalidPoint(InputError):
    """Evaluation point has the wrong dimension or non-finite entries."""


class InvalidGrid(InputError):
    """Grid is too coarse / not increasing / incompatible with the stencil."""


class InvalidParameter(InputError):
    """A scalar parameter is out of its documented range."""


class SchemaError(InputError):
    """JSON descriptor violates the documented schema (unknown or missing fields)."""


class NotRadial(InputError):
    """A radial-only operation was applied to a plane-wave kernel."""


class DuplicatePoints(InputError):
    """Point set contains (nearly) coincident points."""


class UnsupportedJet(InputError):
    """Derivative jets are not available for this family / order."""


# --- numerical-side errors ---------------------------------------------


class NotPSD(NumericalError):
    """Matrix failed a positive-semidefiniteness requirement.

    pivot_index is set when the failure came from a Cholesky pivot.
    """

    def __init__(self, message, pivot_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index


class IllConditioned(NumericalError):
    """Linear system too ill-conditioned at the requested ridge."""


class NumericalFailure(NumericalError):
    """An internal numerical invariant (decomposition residual, dual-route
    agreement) was violated beyond tolerance."""
