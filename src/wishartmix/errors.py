"""Exception hierarchy shared across the package.

Everything raised here signals invalid input or parameters, so the CLI maps
the whole hierarchy to a single validation exit code.
"""


class ValidationError(ValueError):
    """Base class for input and parameter validation failures."""


class NotPsd(ValidationError):
    """A matrix required to be positive (semi)definite fails the eigenvalue test."""


class UnsupportedDof(ValidationError):
    """Noncentral sampling requested with a degree-of-freedom it cannot support."""


class OutsideDomain(ValidationError):
    """A moment generating function was evaluated outside its convergence domain."""


class UnbalancedDesign(ValidationError):
    """Cells of a factorial layout do not all hold the same number of responses."""


class DegenerateDesign(ValidationError):
    """Design cannot support its tests: fewer than two replicates per cell, or too few factor degrees of freedom."""


class SingularErrorMatrix(ValidationError):
    """The residual sum-of-outer-products matrix is not positive definite."""


class MissingColumn(ValidationError):
    """A required CSV column is absent."""


class UnparseableValue(ValidationError):
    """A CSV response value cannot be parsed as a finite real number."""


class EmptyFile(ValidationError):
    """The CSV input holds no data rows."""


class InsufficientCell(ValidationError):
    """A factor-level cell holds fewer rows than the requested subsample size."""
