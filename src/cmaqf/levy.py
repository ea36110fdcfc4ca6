"""Parametric mean-zero Levy drivers with exact cumulants and increment laws.

Every driver has mean zero and a finite fourth moment by construction, so for
second- and fourth-order limit theory a model enters only through its
cumulants ``(sigma2, kappa4)``.  Three families cover the ``kappa4 == 0`` and
``kappa4 > 0`` regimes with closed forms:

* :class:`BrownianMotion` -- ``kappa4 = 0``.
* :class:`CompoundPoissonNormal` -- Poisson number of centered Gaussian jumps;
  the m-th cumulant is ``rate * E[J**m]``.
* :class:`BilateralGamma` -- difference of two independent gamma subordinators;
  odd cumulants cancel, even ones double.

Increment sampling is exact in law for all three families (no Euler error in
the driver), and randomness comes from counter-based streams derived from a
64-bit master seed so replicated experiments are reproducible regardless of
scheduling.  Compound-Poisson increments are drawn jump by jump: a Poisson
total number of jumps, each put in a uniformly chosen cell (Poisson splitting
makes the cell counts iid ``Poisson(rate * dt)``), so time and memory follow
the number of jumps, ``rate * dt * count``, rather than the number of cells.

Integrability of a deterministic kernel against these drivers is never
checked numerically: every shipped kernel is square integrable (and fourth
power integrable where the fourth-moment machinery needs it) and every driver
has a finite fourth moment, which together guarantee the defining integrals
exist.  This is documented, not computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox  # loads numpy.random with cmaqf, not in the first draw

from .errors import ParameterError, _check_positive

__all__ = [
    "BrownianMotion",
    "CompoundPoissonNormal",
    "BilateralGamma",
    "LevyModel",
    "stream",
    "check_key",
]


def stream(seed: int, index: int) -> Generator:
    """Deterministic counter-based stream ``index`` derived from ``seed``.

    Distinct ``(seed, index)`` pairs key distinct Philox counters, so streams
    are statistically independent and reproducible independent of the order in
    which they are consumed.  Both must be integers in ``[0, 2**64)``: any
    other value would wrap onto, or truncate to, another pair's key.
    """
    check_key("seed", seed)
    check_key("index", index)
    key = np.array([np.uint64(seed), np.uint64(index)])
    return Generator(Philox(key=key))


def check_key(name: str, value) -> None:
    """Raise :class:`ParameterError` unless ``value`` is an integer in ``[0, 2**64)``."""
    if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < 2**64:
        raise ParameterError(f"{name} must be an integer in [0, 2**64), got {value!r}")


@dataclass(frozen=True)
class BrownianMotion:
    """Brownian motion with ``Var(L_1) = variance``."""

    variance: float

    def __post_init__(self):
        _check_positive("variance", self.variance)
        _check_cumulants(self)

    def cumulants(self) -> tuple[float, float]:
        return float(self.variance), 0.0

    def sample_increments(self, count: int, dt: float, rng: Generator) -> np.ndarray:
        _check_sampling_args(count, dt)
        return rng.standard_normal(count) * np.sqrt(self.variance * dt)


@dataclass(frozen=True)
class CompoundPoissonNormal:
    """Compound Poisson process with N(0, jump_variance) jumps at ``rate``."""

    rate: float
    jump_variance: float

    def __post_init__(self):
        _check_positive("rate", self.rate)
        _check_positive("jump_variance", self.jump_variance)
        _check_cumulants(self)

    def cumulants(self) -> tuple[float, float]:
        # kappa_m = rate * E[J**m]; E[J**2] = tau2, E[J**4] = 3 tau2**2
        return float(self.rate * self.jump_variance), float(3.0 * self.rate * self.jump_variance**2)

    def sample_increments(self, count: int, dt: float, rng: Generator) -> np.ndarray:
        _check_sampling_args(count, dt)
        try:
            jumps = rng.poisson(self.rate * dt * count)
        except ValueError as exc:  # numpy refuses a Poisson mean beyond int64
            raise ParameterError(f"rate * dt * count = {self.rate * dt * count} jumps is too many to draw") from exc
        # Poisson splitting: uniformly placed jumps give iid Poisson(rate dt) cell counts
        cells = rng.integers(0, count, jumps)
        sizes = rng.standard_normal(jumps) * np.sqrt(self.jump_variance)
        # bincount of no jumps is int64, whatever the weights
        return np.bincount(cells, sizes, minlength=count).astype(np.float64, copy=False)


@dataclass(frozen=True)
class BilateralGamma:
    """Difference of two independent Gamma(shape, rate) subordinators."""

    shape: float
    rate: float

    def __post_init__(self):
        _check_positive("shape", self.shape)
        _check_positive("rate", self.rate)
        _check_cumulants(self)

    def cumulants(self) -> tuple[float, float]:
        # gamma cumulant kappa_m = shape * (m-1)! / rate**m; difference doubles even orders
        return float(2.0 * self.shape / self.rate**2), float(12.0 * self.shape / self.rate**4)

    def sample_increments(self, count: int, dt: float, rng: Generator) -> np.ndarray:
        _check_sampling_args(count, dt)
        a, scale = self.shape * dt, 1.0 / self.rate
        return rng.gamma(a, scale, size=count) - rng.gamma(a, scale, size=count)


LevyModel = BrownianMotion | CompoundPoissonNormal | BilateralGamma


def _check_cumulants(model: LevyModel) -> None:
    # finite parameters can still overflow (or underflow) in the cumulants
    try:
        sigma2, kappa4 = model.cumulants()
    except (OverflowError, ZeroDivisionError):  # raised by float ** and /, where * gives inf
        sigma2 = kappa4 = math.inf
    if not (0 < sigma2 < math.inf and math.isfinite(kappa4)):
        raise ParameterError(f"cumulants (sigma2, kappa4) = ({sigma2}, {kappa4}) must be finite with sigma2 > 0")


def _check_sampling_args(count: int, dt: float) -> None:
    if count < 0 or int(count) != count:
        raise ParameterError(f"count must be a non-negative integer, got {count}")
    _check_positive("dt", dt)

