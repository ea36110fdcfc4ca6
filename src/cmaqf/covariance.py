"""Star convolution and (cross-)covariance quadrature.

The covariance of two moving averages driven by the same noise is
``gamma_12(h) = sigma2 * int phi_1(t) phi_2(t + h) dt``; everything in this
module reduces to such product integrals, their values on the sampling
lattice ``h = s * Delta``, and the mixed discrete/continuous convolution
``(b * phi)(t) = sum_s b(s) phi(t - s Delta)`` of a kernel with an even
coefficient sequence.

Every lag covariance is read through :func:`covariance_lags`, whose one-lag calls at spacing
``|h|`` are :func:`crosscovariance` and :func:`autocovariance`.  A combination of lattice-shifted
copies of one base kernel (the convolved kernels of :func:`star_conv_kernel`, the envelopes of
the condition checks, the least-squares kernel pair) is read through its base: its lag
covariances are exact double sums of base covariances at shifted lags, unless its offsets lie
far apart, and its period integrals sum its lattice rows from base rows.  Base kernels that are
sums of exponential modes (OU, CARMA; see :attr:`Kernel.modes`) have closed-form lag
covariances; any other pair takes one quadrature per lag, which warns above a 1% tail bound.
Decay exponents and their arithmetic (``conv_exponent``) live in :mod:`cmaqf.tails`.

Discrete convolutions of lag sequences go through one real FFT product,
:func:`_fft_convolve` (``numpy.fft`` at a 5-smooth length), which the simulated
paths and ``compute_qn`` share.
:func:`b_star_gamma` uses it for power weights, whose ``b * gamma`` decays like
a power and so stays far above the FFT's rounding; a finite support keeps the
direct product, because its ``b * gamma`` can decay exponentially below it.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft  # loads numpy.fft with cmaqf, not in the first convolution

from .errors import ConvergenceError, ParameterError, _check_finite, _check_positive
from .kernels import Kernel, LinComboKernel, _lattice_combo
from .quadrature import QuadResult, product_integral
from .tails import (
    CompactTail,
    PowerTail,
    TailModel,
    conv_exponent,
    decay_exponent,
    grow_lags,
    grow_radius,
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
        _check_finite("values", vals)
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
        _check_positive("c", self.c)
        _check_positive("rho", self.rho)
        _check_finite("b0", self.b0)

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


def star_conv_kernel(b: CoefficientSeq, kernel: Kernel, Delta: float) -> LinComboKernel:
    """Kernel object evaluating ``(b * phi)(t)`` exactly (finite support) or
    truncated at :func:`_power_star_radius` (power decay)."""
    _check_positive("Delta", Delta)
    radius = b.radius if isinstance(b, FiniteSupport) else _power_star_radius(b, kernel, Delta)
    s_vals = np.arange(-radius, radius + 1)
    coeffs = b.weights(radius)
    keep = coeffs != 0.0
    if not np.any(keep):
        keep = s_vals == 0
    return LinComboKernel(base=kernel, shifts=tuple(s_vals[keep] * Delta), coeffs=tuple(coeffs[keep]))


def _power_star_radius(b: PowerDecay, kernel: Kernel, Delta: float) -> int:
    """Truncation radius for a power-decay coefficient convolution: the first
    of ``64, 128, ...`` (:func:`~cmaqf.tails.grow_radius`) whose dropped tail
    is at most ``1e-10 (|b0| + c)``, or 4096, where power tails rarely meet it."""
    decay = kernel.decay
    if (total := b.rho + decay_exponent(decay)) <= 1.0:
        raise ConvergenceError(f"sum b(s) phi(t - s Delta) diverges: rho_b + rho_phi = {total:g} <= 1")

    def dropped(radius):
        # sparse_tail_sum_estimate (not a bound) of sum_{|s| > radius} |b(s) phi(t - s Delta)| over
        # |t| <~ radius/2 * Delta; only the s -> -inf side survives for causal kernels, but both
        # sides are treated the same way.
        return sparse_tail_sum_estimate(lambda s: b.c * s**-b.rho * tail_sup(decay, s * Delta / 2.0), radius)

    return grow_radius(dropped, 64, 4096, 1e-10 * (abs(b.b0) + b.c))[0]


# ---------------------------------------------------------------------------
# covariance quadrature
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=100_000)
def _cached_product(k1: Kernel, k2: Kernel, shift: float, base_step: float) -> QuadResult:
    return product_integral(k1, k2, shift, base_step=base_step)


def crosscovariance(k1: Kernel, k2: Kernel, sigma2: float, h: float, *, base_step: float = 1.0 / 64.0) -> float:
    """``sigma2 * int phi_1(t) phi_2(t + h) dt``: the one-lag call of :func:`covariance_lags`
    at spacing ``|h|`` (1 at ``h = 0``) and lag ``sgn h``, so it warns, reads closed forms
    and reduces lattice combinations as that does.  A non-finite ``h`` raises
    :class:`ParameterError`."""
    _check_finite("h", h)
    s = int(np.sign(h))
    return float(covariance_lags(k1, k2, sigma2, abs(h) or 1.0, s, s, base_step=base_step)[0])


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

    A combination of lattice-shifted copies of a base kernel, a :class:`LinComboKernel`
    whose every shift is an exact multiple of ``Delta``, is read through its base.  With
    ``phi_1 = sum_j c_j B_1(. - a_j Delta)`` and ``phi_2 = sum_k d_k B_2(. - b_k Delta)``,
    ``gamma_12(h) = sum_j sum_k c_j d_k gamma_{B_1 B_2}(h + (a_j - b_k) Delta)``
    exactly, so the base lags are integrated once over the widened range and
    correlated with the convolved coefficients, unless offsets far apart on a fine
    lattice (shifts ``(0, 1)`` at ``Delta = 1e-4``) widen it beyond ``(J + K)**2``
    base lags per lag, about the base terms that integrating the pair whole
    evaluates (``J`` and ``K`` terms): then the pair is integrated whole.

    Two bases with exponential modes (:attr:`Kernel.modes`), such as OU and
    CARMA kernels in any pairing, take the closed form of :func:`_mode_lags`
    and ``base_step`` is unused.  Any other pair takes one quadrature per lag,
    equal kernels at ``|s|``, and one :class:`RuntimeWarning` per call when some
    lag's tail bound beyond the integration window exceeds 1% of its value.
    An empty range (``s_min > s_max``), or a ``Delta`` that is not finite and > 0, raises
    :class:`ParameterError`.
    """
    _check_positive("Delta", Delta)
    if s_min > s_max:
        raise ParameterError(f"empty lag range: s_min = {s_min} > s_max = {s_max}")
    base_step = Delta / COV_STEPS_PER_DELTA if base_step is None else base_step
    base1, a, c = _lattice_combo(k1, Delta)
    base2, b, d = _lattice_combo(k2, Delta)
    count = s_max - s_min + 1
    if (base1 is not k1 or base2 is not k2) and count + int(np.ptp(a)) + int(np.ptp(b)) <= (len(a) + len(b)) ** 2 * count:
        # w[n] is the summed c_j d_k with a_j - b_k = a.min() - b.max() + n
        w = np.convolve(np.bincount(a - a.min(), weights=c), np.bincount(b.max() - b, weights=d))
        lo, hi = s_min + a.min() - b.max(), s_max + a.max() - b.min()
        g = covariance_lags(base1, base2, sigma2, Delta, int(lo), int(hi), base_step=base_step)
        return np.correlate(g, w, mode="valid")
    if k1.modes is not None and k2.modes is not None:
        return sigma2 * _mode_lags(k1.modes, k2.modes, Delta, s_min, s_max)
    lags = np.arange(s_min, s_max + 1)
    shifts = (np.abs(lags) if k1 is k2 or k1 == k2 else lags) * Delta  # equal kernels: gamma(-h) = gamma(h)
    quads = [_cached_product(k1, k2, float(shift), base_step) for shift in shifts]
    values, tails = sigma2 * np.array([[r.value for r in quads], [r.tail_bound for r in quads]])
    over = (tails > 0.01 * np.abs(values)) & (np.abs(values) >= np.finfo(float).tiny)  # a subnormal has no 1%
    if over.any():
        i = int(np.argmax(over))
        msg = f"covariance tail bound {tails[i]:.3g} exceeds 1% of value {values[i]:.3g} at lag {lags[i]} ({over.sum()} of {len(lags)} lags)"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return values


def _lag_start(pairs, Delta: float) -> int:
    """Start radius ``max(32, 2 reach)`` of a lag sum, ``reach`` the farthest offset difference ``|a_j - b_k|``
    that :func:`covariance_lags` reads for the kernel pairs: no tail is fitted inside a combination's gap."""
    offsets = [(_lattice_combo(k1, Delta)[1], _lattice_combo(k2, Delta)[1]) for k1, k2 in pairs]
    return max(32, 2 * int(max(max(a.max() - b.min(), b.max() - a.min()) for a, b in offsets)))


def _mode_lags(modes1, modes2, Delta: float, s_min: int, s_max: int) -> np.ndarray:
    """``int phi_1(t) phi_2(t + s Delta) dt`` for ``s_min <= s <= s_max`` in closed form.

    With ``phi_1 = sum_i c_i e^{mu_i t}`` and ``phi_2 = sum_j d_j e^{nu_j t}`` on
    ``t >= 0`` and ``h = s Delta``, the integral is
    ``sum_ij c_i d_j e^{nu_j h} / -(mu_i + nu_j)`` for ``h >= 0`` and ``sum_ij c_i d_j e^{-mu_i h} / -(mu_i + nu_j)`` for ``h < 0``.
    The mode pairs accumulate into one vector, never an array per pair.
    """
    (c, mu), (d, nu) = modes1, modes2
    h = np.arange(s_min, s_max + 1) * Delta
    k = int(np.searchsorted(h, 0.0))  # h[:k] < 0 <= h[k:]
    out = np.zeros(len(h))
    for ci, mi in zip(c, mu):
        for dj, nj in zip(d, nu):
            w = ci * dj / -(mi + nj)
            out[:k] += (w * np.exp(-mi * h[:k])).real
            out[k:] += (w * np.exp(nj * h[k:])).real
    return out


def gamma_seq_exponent(kernel: Kernel, other: Kernel | None = None) -> float | None:
    """Exact decay exponent of the lag covariance (``inf`` when it decays faster
    than any power); ``None`` when a kernel's tail is fitted."""
    d1, d2 = kernel.decay, (other or kernel).decay
    return conv_exponent(decay_exponent(d1), decay_exponent(d2)) if d1.exact and d2.exact else None


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


@functools.lru_cache(maxsize=64)
def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth ``2^a 3^b 5^c >= n``, the length ``scipy.fft.next_fast_len(n, real=True)`` picks."""
    # each odd 3^i 5^j, doubled up to n; an odd p >= 2n cannot win, as the power of two is below 2n
    odd = (3**i * 5**j for i in range(n.bit_length() + 1) for j in range(n.bit_length() + 1))
    return min(p << (-(-n // p) - 1).bit_length() for p in odd if p < 2 * n)


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real sequences by one ``numpy.fft`` real product at a 5-smooth length."""
    size = len(a) + len(b) - 1
    nfft = _next_fast_len(size)
    return irfft(rfft(a, nfft) * rfft(b, nfft), nfft)[:size]


def b_star_gamma(
    b: CoefficientSeq,
    kernel: Kernel,
    sigma2: float,
    Delta: float,
    *,
    base_step: float | None = None,
) -> BStarGamma:
    """Sequence ``s -> sum_u b(u) gamma((s - u) Delta)`` with its squared l2 norm.

    The truncation radius doubles adaptively (:func:`~cmaqf.tails.grow_lags`, from twice a
    finite support's radius, at least 32) until the extrapolated tail of the squared norm is
    below 1e-8 (relative), capping at ``10**6`` with ``capped=True``.  A tail that provably diverges raises
    :class:`ConvergenceError`.  ``base_step`` is as in :func:`covariance_lags`.

    Power weights take one FFT product per radius (:func:`_fft_convolve`): their
    ``8S + 1`` weights make the direct product cost ~16 S^2, and ``b * gamma``
    decays like a power, so the FFT's rounding (a few ulps of the largest value)
    stays far below every kept lag.  A finite support keeps the direct product:
    against an exponential kernel its ``b * gamma`` decays exponentially, and FFT
    rounding would swamp the far lags whose tail :func:`~cmaqf.tails.grow_lags` fits.
    """

    def rows_at(S):
        finite = isinstance(b, FiniteSupport)
        ub = b.radius if finite else max(64, 4 * S)
        gam = covariance_lags(kernel, kernel, sigma2, Delta, -(S + ub), S + ub, base_step=base_step)
        w = b.weights(ub)
        if finite:
            return (np.convolve(gam, w, mode="valid"),)
        return (_fft_convolve(gam, w)[len(w) - 1 : len(gam)],)

    start = max(32, 2 * b.radius) if isinstance(b, FiniteSupport) else 32  # rows reach past the farthest weight
    lag = grow_lags(rows_at, p=2.0, rel_tol=_BSG_REL_TOL, cap=_BSG_S_CAP, exponent=_bsg_exponent(b, kernel), start=start)
    if lag.capped and not np.isfinite(lag.bracket):
        raise ConvergenceError("squared-norm tail of (b * gamma) diverges or cannot be bounded")
    (vals,), (tail,), (head,) = lag.rows, lag.tails, lag.heads
    return BStarGamma(vals, lag.radius, tail, l2_sq=head + lag.bracket / 2.0, l2_sq_tail=lag.bracket, capped=lag.capped)


def _bsg_exponent(b: CoefficientSeq, kernel: Kernel) -> float | None:
    """Exact decay exponent of ``b * gamma`` (``None`` for a fitted kernel tail), after
    refusing by exponent arithmetic one that diverges termwise or is not square summable."""
    ge = gamma_seq_exponent(kernel)
    if ge is None:
        return None
    rho_b = decay_exponent(b.seq_tail())
    if rho_b + ge <= 1.0:
        raise ConvergenceError(f"(b * gamma) diverges termwise: rho_b + rho_gamma = {rho_b + ge:g} <= 1")
    bsg = conv_exponent(rho_b, ge)
    if 2.0 * bsg <= 1.0:
        raise ConvergenceError(f"(b * gamma) is not square summable: decay exponent {bsg:g} <= 1/2")
    return bsg
