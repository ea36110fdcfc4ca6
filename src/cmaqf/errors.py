"""Exception hierarchy shared across the package, and the one rule for model parameters."""

import math

import numpy as np


class CmaqfError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(CmaqfError, ValueError):
    """A model or configuration parameter is outside its admissible domain."""


class StabilityError(CmaqfError, ValueError):
    """An autoregressive polynomial has a root with non-negative real part."""


class ConventionError(CmaqfError, ValueError):
    """Moving-average coefficients violate the normalisation convention."""


class NonStationaryError(CmaqfError, ValueError):
    """A delay-equation characteristic function vanishes in the closed left half-plane."""


class GridError(CmaqfError, ValueError):
    """Incompatible grid geometry (step does not divide the sampling spacing, etc.)."""


class ConvergenceError(CmaqfError, ArithmeticError):
    """A truncated infinite sum or integral has a divergent or unbounded tail."""


class TruncationError(CmaqfError, ArithmeticError):
    """Kernel mass outside the simulation window exceeds the disclosed bias budget."""


class ConditionsRefutedError(CmaqfError, RuntimeError):
    """A computation was requested whose condition check came back refuted."""


class ConfigError(CmaqfError, ValueError):
    """A run configuration fails schema validation."""


# An infinite parameter would pass a plain ``> 0`` test and then stall every lag
# sum that depends on it, and a NaN passes no test that raises: so every model
# parameter is checked finite, and a scale, rate or spacing also > 0.
def _check_positive(name: str, value) -> None:
    if not 0 < value < math.inf:
        raise ParameterError(f"{name} must be finite and > 0, got {value}")


def _check_finite(name: str, values) -> None:
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ParameterError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
