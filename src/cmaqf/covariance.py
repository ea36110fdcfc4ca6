"""Star convolution and (cross-)covariance quadrature.

The covariance of two moving averages driven by the same noise is
``gamma_12(h) = sigma2 * int phi_1(t) phi_2(t + h) dt``; everything in this
module reduces to such product integrals, their values on the sampling
lattice ``h = s * Delta``, and the mixed discrete/continuous convolution
``(b * phi)(t) = sum_s b(s) phi(t - s Delta)`` of a kernel with an even
coefficient sequence.

A combination of lattice-shifted copies of one base kernel (the convolved
kernels of :func:`star_conv_kernel`, their absolute companions, the
least-squares kernel pair) is never integrated as a whole:
:func:`covariance_lags` writes its lag covariances as an exact double sum of
base covariances at shifted lags, so quadrature only ever sees base kernels.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .kernels import Kernel, LinComboKernel, PowAbsKernel
from .quadrature import QuadResult, product_integral
from .tails import (
    CompactTail,
    PowerTail,
    TailModel,
    fit_tail,
    lattice_tail_sum,
    sparse_tail_sum_estimate,
    tail_sup,
)

__all__ = [
    "FiniteSupport",
    "PowerDecay",
    "CoefficientSeq",
    "COV_STEPS_PER_DELTA",
    "star_conv_kernel",
    "autocovariance",
    "crosscovariance",
    "covariance_lags",
    "b_star_gamma",
    "BStarGamma",
]

#: Default quadrature steps per sampling interval of :func:`covariance_lags` and
#: :func:`b_star_gamma`: the lag covariances behind the limit variances, the
#: exact means and the Yule-Walker point.
COV_STEPS_PER_DELTA = 256


@dataclass(frozen=True)
class FiniteSupport:
    """Even coefficient sequence with finite support, stored one-sided.

    ``values[k]`` is ``b(k) = b(-k)``; evenness holds by construction.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ParameterError("values must be non-empty (b(0) at least)")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_two_sided(cls, values) -> "FiniteSupport":
        """Build from values on ``-K..K``; raises unless the array is even."""
        values = [float(v) for v in values]
        if len(values) % 2 != 1:
            raise ParameterError("two-sided values must have odd length 2K+1")
        K = len(values) // 2
        left, right = values[:K][::-1], values[K + 1 :]
        if any(l != r for l, r in zip(left, right)):
            raise ParameterError("coefficient sequence must be even: b(-s) == b(s)")
        return cls(values=tuple(values[K:]))

    @classmethod
    def delta0(cls) -> "FiniteSupport":
        return cls(values=(1.0,))

    @property
    def radius(self) -> int:
        return len(self.values) - 1

    def weight(self, s) -> np.ndarray:
        s = np.abs(np.asarray(s, dtype=int))
        out = np.zeros(s.shape, dtype=float)
        inside = s <= self.radius
        out[inside] = np.asarray(self.values)[s[inside]]
        return out if out.ndim else float(out)

    def weights(self, radius: int) -> np.ndarray:
        """Two-sided weight array on ``-radius..radius``."""
        return self.weight(np.arange(-radius, radius + 1))

    def lq_member(self, q: float) -> bool:
        return True

    def seq_tail(self) -> TailModel:
        return CompactTail(end=float(self.radius))


@dataclass(frozen=True)
class PowerDecay:
    """Even sequence ``b(s) = c * |s|**-rho`` for ``s != 0`` with ``b(0) = b0``."""

    c: float
    rho: float
    b0: float

    def __post_init__(self):
        if not self.c > 0 or not self.rho > 0:
            raise ParameterError("c and rho must be > 0")

    def weight(self, s) -> np.ndarray:
        s = np.abs(np.asarray(s, dtype=float))
        out = np.where(s == 0, self.b0, self.c * np.maximum(s, 1.0) ** -self.rho)
        return out if out.ndim else float(out)

    def weights(self, radius: int) -> np.ndarray:
        return self.weight(np.arange(-radius, radius + 1))

    def lq_member(self, q: float) -> bool:
        """Exact membership in the q-summable class: ``q * rho > 1``."""
        return q * self.rho > 1.0

    def seq_tail(self) -> TailModel:
        return PowerTail(constant=self.c, exponent=self.rho, start=1.0, lower=self.c)


CoefficientSeq = FiniteSupport | PowerDecay


# ---------------------------------------------------------------------------
# star convolution (b * phi)(t) = sum_s b(s) phi(t - s Delta)
# ---------------------------------------------------------------------------


def star_conv_kernel(b: CoefficientSeq, kernel: Kernel, Delta: float, *, absolute: bool = False) -> Kernel:
    """Kernel object evaluating ``(b * phi)(t)`` exactly (finite support) or
    with a controlled truncation (power decay).

    The absolute companion evaluates ``(|b| * |phi|)(t)``.
    """
    base = PowAbsKernel(kernel, 1.0) if absolute else kernel
    tail_dropped = 0.0
    if isinstance(b, FiniteSupport):
        radius = b.radius
    else:
        radius, tail_dropped = _power_star_radius(b, kernel, Delta)
    s_vals = np.arange(-radius, radius + 1)
    coeffs = b.weights(radius)
    if absolute:
        coeffs = np.abs(coeffs)
    keep = coeffs != 0.0
    if not np.any(keep):
        keep = s_vals == 0
    return LinComboKernel(
        base=base,
        shifts=tuple(s_vals[keep] * Delta),
        coeffs=tuple(coeffs[keep]),
        truncation_bound=tail_dropped,
    )


def _power_star_radius(b: PowerDecay, kernel: Kernel, Delta: float, rel_tol: float = 1e-10, cap: int = 4096):
    """Truncation radius for a power-decay coefficient convolution.

    Power tails rarely meet fine tolerances by direct summation, so the radius
    caps at ``cap`` and the estimated dropped tail travels with the kernel as a
    disclosed truncation diagnostic.
    """
    decay = kernel.decay
    if isinstance(decay, PowerTail):
        if b.rho + decay.exponent <= 1.0:
            raise ConvergenceError(
                f"sum b(s) phi(t - s Delta) diverges: rho_b + rho_phi = {b.rho + decay.exponent:g} <= 1"
            )
    scale = abs(b.b0) + b.c
    radius = 64
    while radius < cap:
        tail = _star_tail_estimate(b, kernel, Delta, radius)
        if tail <= rel_tol * scale:
            return radius, tail
        radius *= 2
    return cap, _star_tail_estimate(b, kernel, Delta, cap)


def _star_tail_estimate(b: PowerDecay, kernel: Kernel, Delta: float, radius: int) -> float:
    # estimate of sum_{|s| > radius} |b(s) phi(t - s Delta)| uniformly over a
    # window of width ~ radius/2 * Delta around the origin; only the s -> -inf
    # side survives for causal kernels but both sides are treated the same way.
    return sparse_tail_sum_estimate(lambda s: b.c * s**-b.rho * tail_sup(kernel.decay, s * Delta / 2.0), radius)


# ---------------------------------------------------------------------------
# covariance quadrature
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=100_000)
def _cached_product(k1: Kernel, k2: Kernel, shift: float, base_step: float) -> QuadResult:
    return product_integral(k1, k2, shift, base_step=base_step)


def crosscovariance(
    k1: Kernel,
    k2: Kernel,
    sigma2: float,
    h: float,
    *,
    base_step: float = 1.0 / 64.0,
) -> float:
    """``sigma2 * int phi_1(t) phi_2(t + h) dt`` by breakpoint-aware quadrature.

    Emits a warning when the decay-model tail bound beyond the integration
    window exceeds 1% of the value.
    """
    r = _cached_product(k1, k2, float(h), base_step)
    value = sigma2 * r.value
    tail = sigma2 * r.tail_bound
    if tail > 0.01 * abs(value) and abs(value) > 0:
        warnings.warn(
            f"covariance tail bound {tail:.3g} exceeds 1% of value {value:.3g}", RuntimeWarning, stacklevel=2
        )
    return value


def autocovariance(kernel: Kernel, sigma2: float, h: float, *, base_step: float = 1.0 / 64.0) -> float:
    """Autocovariance at lag ``h``; even in ``h`` by direct symmetrisation."""
    return crosscovariance(kernel, kernel, sigma2, abs(h), base_step=base_step)


def covariance_lags(
    k1: Kernel,
    k2: Kernel,
    sigma2: float,
    Delta: float,
    s_min: int,
    s_max: int,
    *,
    base_step: float | None = None,
) -> np.ndarray:
    """Array of ``sigma2 * int phi_1(t) phi_2(t + s Delta) dt`` for ``s_min <= s <= s_max``
    (quadrature step ``base_step``, by default ``Delta / COV_STEPS_PER_DELTA``).

    A kernel that is a combination of lattice-shifted copies of a base kernel
    is never integrated as a whole.  That is a :class:`LinComboKernel` whose
    every shift is an exact multiple of ``Delta``, or ``PowAbsKernel(., 1)``
    of one with non-negative coefficients over a ``PowAbsKernel`` base.  With
    ``phi_1 = sum_j c_j B_1(. - a_j Delta)`` and ``phi_2 = sum_k d_k B_2(. - b_k Delta)``,
    ``gamma_12(h) = sum_j sum_k c_j d_k gamma_{B_1 B_2}(h + (a_j - b_k) Delta)``
    exactly, so the base lags are integrated once over the widened range and
    correlated with the convolved coefficients.  Any other pair takes one
    quadrature per lag.
    """
    base_step = Delta / COV_STEPS_PER_DELTA if base_step is None else base_step
    base1, a, c = _lattice_combo(k1, Delta)
    base2, b, d = _lattice_combo(k2, Delta)
    if base1 is not k1 or base2 is not k2:
        # w[n] is the summed c_j d_k with a_j - b_k = a.min() - b.max() + n
        w = np.convolve(np.bincount(a - a.min(), weights=c), np.bincount(b.max() - b, weights=d))
        lo, hi = s_min + a.min() - b.max(), s_max + a.max() - b.min()
        g = covariance_lags(base1, base2, sigma2, Delta, int(lo), int(hi), base_step=base_step)
        return np.correlate(g, w, mode="valid")
    same = k1 is k2 or k1 == k2
    out = np.empty(s_max - s_min + 1)
    for i, s in enumerate(range(s_min, s_max + 1)):
        shift = s * Delta
        if same and s < 0 and -s <= s_max:
            shift = -shift  # symmetric: reuse the positive-lag cache entry
        out[i] = sigma2 * _cached_product(k1, k2, float(shift), base_step).value
    return out


def _lattice_combo(kernel: Kernel, Delta: float) -> tuple[Kernel, np.ndarray, np.ndarray]:
    """``(base, offsets, coeffs)`` with ``kernel(t) = sum_j coeffs[j] base(t - offsets[j] Delta)``.

    Reduces a :class:`LinComboKernel` whose every shift is an exact multiple of
    ``Delta``, and the absolute value (``PowAbsKernel(., 1)``) of one that adds
    non-negative multiples of an absolute value, which equals the combination
    itself.  Any other kernel is its own base, at offset 0 with coefficient 1.
    """
    combo = kernel
    if isinstance(kernel, PowAbsKernel) and kernel.power == 1.0:
        inner = kernel.base
        if isinstance(inner, LinComboKernel) and isinstance(inner.base, PowAbsKernel) and min(inner.coeffs) >= 0.0:
            combo = inner
    if isinstance(combo, LinComboKernel):
        shifts = np.asarray(combo.shifts)
        offsets = np.round(shifts / Delta)
        if np.array_equal(offsets * Delta, shifts):
            return combo.base, offsets.astype(int), np.asarray(combo.coeffs)
    return kernel, np.zeros(1, dtype=int), np.ones(1)


def gamma_seq_exponent(kernel: Kernel, other: Kernel | None = None) -> float | None:
    """Analytic power-decay exponent of the lag covariance when both kernels
    have exact power tails; ``None`` for exponential decay."""
    d1, d2 = kernel.decay, (other or kernel).decay
    if isinstance(d1, PowerTail) and isinstance(d2, PowerTail) and d1.exact and d2.exact:
        a, b = d1.exponent, d2.exponent
        return min(a, b, a + b - 1.0)
    return None


@dataclass(frozen=True)
class BStarGamma:
    """Lag sequence ``(b * gamma)(s Delta)`` on ``-radius..radius`` with tail data."""

    values: np.ndarray
    radius: int
    tail: TailModel
    l2_sq: float
    l2_sq_tail: float
    capped: bool


_BSG_REL_TOL = 1e-8
_BSG_S_CAP = 10**6


def b_star_gamma(
    b: CoefficientSeq,
    kernel: Kernel,
    sigma2: float,
    Delta: float,
    *,
    base_step: float | None = None,
) -> BStarGamma:
    """Sequence ``s -> sum_u b(u) gamma((s - u) Delta)`` with its squared l2 norm.

    The truncation radius doubles adaptively until the extrapolated tail of
    the squared-norm is below 1e-8 (relative), capping at ``10**6`` with
    ``capped=True``.  A tail that provably diverges raises
    :class:`ConvergenceError`.  ``base_step`` is as in :func:`covariance_lags`.
    """
    gamma_exp = _gamma_power_exponent_or_check(b, kernel)

    if isinstance(b, FiniteSupport):
        b_radius = b.radius
    else:
        b_radius = None  # grows with S below

    S = 32
    while True:
        ub = b_radius if b_radius is not None else max(64, 4 * S)
        g_lo, g_hi = -(S + ub), S + ub
        gam = covariance_lags(kernel, kernel, sigma2, Delta, g_lo, g_hi, base_step=base_step)
        w = b.weights(ub)
        # full convolution, then crop to [-S, S]
        conv = np.convolve(gam, w, mode="same")
        mid = len(gam) // 2
        vals = conv[mid - S : mid + S + 1]
        tail = fit_tail(np.arange(-S, S + 1), vals, S / 10, known_exponent=_bsg_exponent(b, gamma_exp)).as_tail()
        head = float(np.sum(vals**2))
        _, tail_sq = lattice_tail_sum(tail, S + 1, 2.0)
        if not np.isfinite(tail_sq) and S >= _BSG_S_CAP:
            raise ConvergenceError("squared-norm tail of (b * gamma) diverges or cannot be bounded")
        if tail_sq <= _BSG_REL_TOL * max(head, 1e-300):
            capped = False
            break
        if S >= _BSG_S_CAP:
            capped = True
            break
        S *= 2
    return BStarGamma(values=vals, radius=S, tail=tail, l2_sq=head + tail_sq / 2.0, l2_sq_tail=tail_sq, capped=capped)


def _gamma_power_exponent_or_check(b: CoefficientSeq, kernel: Kernel) -> float | None:
    ge = gamma_seq_exponent(kernel)
    if isinstance(b, PowerDecay) and ge is not None and b.rho + ge <= 1.0:
        raise ConvergenceError(
            f"(b * gamma) diverges termwise: rho_b + rho_gamma = {b.rho + ge:g} <= 1"
        )
    return ge


def _bsg_exponent(b: CoefficientSeq, gamma_exp: float | None) -> float | None:
    if gamma_exp is None:
        return None
    if isinstance(b, FiniteSupport):
        return gamma_exp
    return min(b.rho, gamma_exp)
