"""Exception types shared across the toolkit.

Everything derives from OpKernelError so callers (and the CLI) can map
failures to exit codes without fishing for individual classes:

  * input problems (bad descriptors, bad grids, bad measures) -> exit 2
  * negative verdicts are not exceptions at all               -> exit 3
  * numerical failures (ill conditioning, broken invariants)  -> exit 4
"""


class OpKernelError(Exception):
    """Base class for all toolkit errors."""


# --- input-side errors -------------------------------------------------


class InvalidMatrix(OpKernelError):
    """Matrix input is not square / finite / the expected shape."""


class InvalidMeasure(OpKernelError):
    """Measure atoms violate an invariant (negative weight, non-PSD matrix...)."""


class InvalidVector(OpKernelError):
    """Vector input is zero, wrong length, or non-finite."""


class InvalidPoint(OpKernelError):
    """Evaluation point has the wrong dimension or non-finite entries."""


class InvalidGrid(OpKernelError):
    """Grid is too coarse / not increasing / incompatible with the stencil."""


class InvalidParameter(OpKernelError):
    """A scalar parameter is out of its documented range."""


class SchemaError(OpKernelError):
    """JSON descriptor violates the documented schema (unknown or missing fields)."""


class NotRadial(OpKernelError):
    """A radial-only operation was applied to a plane-wave kernel."""


class DuplicatePoints(OpKernelError):
    """Point set contains (nearly) coincident points."""


class UnsupportedJet(OpKernelError):
    """Derivative jets are not available for this family / order."""


# --- numerical-side errors ---------------------------------------------


class NotPSD(OpKernelError):
    """Matrix failed a positive-semidefiniteness requirement.

    pivot_index is set when the failure came from a Cholesky pivot,
    witness when it came from an eigenvector certificate.
    """

    def __init__(self, message, pivot_index=None, witness=None):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.witness = witness


class IllConditioned(OpKernelError):
    """Linear system too ill-conditioned at the requested ridge."""


class NumericalFailure(OpKernelError):
    """An internal numerical invariant (decomposition residual, dual-route
    agreement) was violated beyond tolerance."""
