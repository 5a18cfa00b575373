"""Exception types shared across the package."""


class DesignBoundsError(Exception):
    """Base class for all package errors."""


class RangeError(DesignBoundsError):
    """A parameter is outside its admissible range."""


class ConvergenceError(DesignBoundsError):
    """An iterative solver failed to reach its tolerance."""


class InternalConsistencyError(DesignBoundsError):
    """A constructed object failed its own validation check."""


class InfeasibleRange(RangeError):
    """Inner-product constraints have empty intersection. The package no
    longer raises it; it is kept for code that imports it."""
