"""Exception types shared across the toolkit."""


class MixedVolError(Exception):
    """Base class for all toolkit errors."""


class DegenerateInput(MixedVolError):
    """Input spans too small an affine dimension for the requested operation."""


class DimensionError(MixedVolError):
    """A body of the wrong affine dimension for the lower-dimensional pipeline."""


class BadSpec(MixedVolError):
    """Invalid input to a body constructor or a vector check: a point array
    of the wrong shape, empty or not finite (hull, affine_dim), a vector
    that is near zero (unit) or not a unit 3-vector (as_unit_vector), or a
    scale factor that is not positive (Polytope.scaled)."""


class BadParam(MixedVolError):
    """Parameter outside its admissible range."""


class BadMesh(MixedVolError):
    """Mesh size that is not a positive number."""


class QuadratureFailure(MixedVolError):
    """An arc whose ends coincide or are antipodal, so no unique shortest
    geodesic joins them (Arcs.between)."""


class NumericalFailure(MixedVolError):
    """A numerical step broke an invariant it relies on: a hull table that
    Qhull laid out unexpectedly, assembled matrices that are not symmetric,
    a mass matrix that is not positive definite, a singular factorization or
    an eigensolver that did not converge."""


class InsufficientSpectrum(MixedVolError):
    """Not enough eigenpairs were computed to answer the query reliably."""


class SingularGM(MixedVolError):
    """The covariance matrix G_M is numerically singular."""


class ZeroDenominator(MixedVolError):
    """A mixed-volume denominator that must be positive vanished."""
