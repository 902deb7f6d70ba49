"""Exception types shared across the package."""


class EbsplinesError(ValueError):
    """Base class for input and domain errors raised by this package."""


class DegenerateDataError(EbsplinesError):
    """Raised when data leave a likelihood or quadratic form undefined,
    e.g. all spectral coefficients beyond the null space are zero."""

