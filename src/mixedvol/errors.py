"""Exception types shared across the toolkit."""


class MixedVolError(Exception):
    """Base class for all toolkit errors."""


class DegenerateInput(MixedVolError):
    """Input spans too small an affine dimension for the requested operation."""


class DimensionError(MixedVolError):
    """A body of the wrong affine dimension for the lower-dimensional pipeline."""


class BadSpec(MixedVolError):
    """Invalid parameters for a test-body constructor."""


class BadParam(MixedVolError):
    """Parameter outside its admissible range."""


class BadMesh(MixedVolError):
    """Mesh size that is not a positive number."""


class NegativeMass(MixedVolError):
    """A measure that must be nonnegative has a significantly negative atom."""


class QuadratureFailure(MixedVolError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class NumericalFailure(MixedVolError):
    """Linear-algebra backend failure (e.g. Cholesky on a non-SPD mass matrix)."""


class InsufficientSpectrum(MixedVolError):
    """Not enough eigenpairs were computed to answer the query reliably."""


class SingularGM(MixedVolError):
    """The covariance matrix G_M is numerically singular."""


class ZeroDenominator(MixedVolError):
    """A mixed-volume denominator that must be positive vanished."""
