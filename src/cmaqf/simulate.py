"""Discretised simulation of sampled moving averages and their statistics.

Paths are generated by Riemann discretisation of the stochastic convolution
on a fine grid of ``fine_steps`` cells per sampling interval: exact driver
increments, kernel evaluated at the cell midpoint, and only the ``n`` sampled
values computed from one long increment sequence, by a polyphase block product
(or one FFT convolution when the kernel window is so wide that it is cheaper).
Midpoint evaluation makes the second-order error of the simulated process
O(step^2) instead of the O(step) of an edge rule, which is what lets desk-scale
runs meet the Gaussian-limit tolerances with the analytic centering.  The kernel
mass outside the truncation window is a disclosed bias budget; when the
relative squared mass exceeds the budget the simulation refuses with the
offending number rather than silently truncating.

:func:`stochastic_integrals_joint` deliberately uses the *left-endpoint* cell rule
on kernel grids instead: it is the sampling twin of
:func:`cmaqf.variance.fourth_moment`, and the two sides of that moment
cross-check must discretise identically.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.signal

from .covariance import CoefficientSeq, FiniteSupport
from .errors import ParameterError, TruncationError
from .kernels import Kernel, grid_cells
from .levy import LevyModel, check_key, stream
from .quadrature import product_integral
from .tails import PowerTail, tail_integral

__all__ = [
    "PathConfig",
    "SamplePath",
    "simulate_path",
    "simulate_pair",
    "stochastic_integrals_joint",
    "compute_sn",
    "compute_qn",
    "sample_autocov",
    "ls_derivative",
    "normalized_statistic",
    "resolve_horizon",
]

_POWER_HORIZON_CAP = 1024  # multiples of delta; power-tail truncation is disclosed, not silent
_INTEGRAL_CHUNK = 100_000  # replicates per increment matrix in stochastic_integrals_joint
_GEMM_CALLING_THREAD = 262_144  # OpenBLAS runs a gemm with m*n*k at most this without its thread pool
# block-product multiply-adds that cost as much as one unit of N log2 N in an
# FFT convolution of length N: about 0.14 ns against 2.8 ns on a Xeon vCPU with
# OpenBLAS's Haswell kernels, where at n = 4000, fine_steps = 64 the block
# product is faster up to P = 257 weight rows and slower from P = 513
_FFT_OPS_PER_NLOGN = 20.0


@dataclass(frozen=True)
class PathConfig:
    """Geometry and seeding of one simulated path.

    ``horizon`` (kernel truncation window, a multiple of ``delta``) may be
    left ``None`` to let :func:`resolve_horizon` pick the smallest window
    meeting the ``tail_mass_budget``.
    """

    delta: float
    n: int
    fine_steps: int = 64
    horizon: float | None = None
    seed: int = 0
    stream_index: int = 0
    tail_mass_budget: float = 1e-4

    def __post_init__(self):
        if not self.delta > 0:
            raise ParameterError("delta must be > 0")
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if self.fine_steps < 1:
            raise ParameterError("fine_steps must be >= 1")
        check_key("seed", self.seed)
        check_key("stream_index", self.stream_index)
        if self.horizon is not None:
            ratio = self.horizon / self.delta
            if not self.horizon > 0 or abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
                raise ParameterError("horizon must be a positive multiple of delta")

    def spec_dict(self) -> dict:
        return {
            "delta": self.delta,
            "n": self.n,
            "fine_steps": self.fine_steps,
            "horizon": self.horizon,
            "seed": self.seed,
            "stream_index": self.stream_index,
            "tail_mass_budget": self.tail_mass_budget,
        }


@dataclass(frozen=True)
class SamplePath:
    """Sampled values ``X_delta, ..., X_{n delta}`` with provenance hashes."""

    values: np.ndarray
    delta: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ParameterError("path values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)


def _hash_dict(d: dict) -> str:
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]


def resolve_horizon(kernel: Kernel, cfg: PathConfig) -> float:
    """Truncation window for ``kernel``: the configured one, or the smallest
    power-of-two multiple of ``delta`` (64 by default, up to 1024 for
    power-law tails) whose relative squared tail mass meets the budget."""
    if cfg.horizon is not None:
        _check_tail_mass(kernel, cfg.horizon, cfg.tail_mass_budget)
        return cfg.horizon
    if isinstance(kernel.decay, PowerTail):
        T = 64 * cfg.delta
        while True:
            try:
                _check_tail_mass(kernel, T, cfg.tail_mass_budget)
                return T
            except TruncationError:
                if T >= _POWER_HORIZON_CAP * cfg.delta:
                    raise
                T *= 2.0
    T = 64 * cfg.delta
    _check_tail_mass(kernel, T, cfg.tail_mass_budget)
    return T


def _check_tail_mass(kernel: Kernel, horizon: float, budget: float) -> float:
    total = product_integral(kernel, kernel, 0.0).value
    out = tail_integral(kernel.decay, horizon, power=2.0)
    lo = kernel.support_lo
    if lo < -horizon:
        out = math.inf  # window must cover the support start
    rel = out / max(total, 1e-300)
    if not rel <= budget:
        raise TruncationError(
            f"kernel squared mass outside [-{horizon:g}, {horizon:g}] is {rel:.3g} of the total, "
            f"exceeding the budget {budget:g}"
        )
    return rel


def _weights(kernel: Kernel, lo: float, horizon: float, step: float) -> np.ndarray:
    # midpoint rule: weight j multiplies the increment of the cell whose
    # midpoint sits at kernel argument lo + (j - 1/2) step
    j = np.arange(0, int(round((horizon - lo) / step)) + 1)
    return np.asarray(kernel.eval(lo + (j - 0.5) * step), dtype=float)


def _increment_count(cfg: PathConfig, horizon: float, lo: float) -> int:
    step = cfg.delta / cfg.fine_steps
    u_min = cfg.delta - horizon
    u_max = cfg.n * cfg.delta - lo
    return int(round((u_max - u_min) / step)) + 1


def _fast_route(n: int, fine_steps: int, width: int) -> str:
    """``"blocked"`` when the block product's multiply-adds undercut the FFT's
    modelled cost, else ``"fft"``; both depend only on the geometry."""
    phases = -(-width // fine_steps)
    size = (n - 1) * fine_steps + 2 * width - 1  # full convolution length
    blocked_ops = (n + phases - 1) * phases * fine_steps
    return "blocked" if blocked_ops < _FFT_OPS_PER_NLOGN * size * math.log2(size) else "fft"


def _blocked_samples(w: np.ndarray, dL: np.ndarray, n: int, fine_steps: int) -> np.ndarray:
    """Polyphase block product computing only the ``n`` kept outputs.

    With ``D[r] = dL[r F : (r + 1) F]`` and the reversed weights cut into
    ``P = ceil(L / F)`` zero-padded rows ``R[q]``, the kept output is
    ``X_i = sum_q (D R^T)[i + q, q]``.  Rows of ``D R^T`` are produced in
    gemm calls small enough to stay on the calling thread, and each output is
    one diagonal sum over a window of ``P - 1 + b`` product rows whose first
    ``P - 1`` rows carry over from the previous window.
    """
    F = fine_steps
    P = -(-len(w) // F)
    R = np.zeros((P, F))
    R.reshape(-1)[: len(w)] = w[::-1]
    gemm_rows = max(1, _GEMM_CALLING_THREAD // (P * F))
    block = gemm_rows * -(-P // gemm_rows)  # >= P, so the carried rows never overlap their source
    window = np.empty((P - 1 + block, P))
    row_stride, col_stride = window.strides
    out = np.empty(n)
    filled = 0
    for t0 in range(0, n, block):
        b = min(block, n - t0)
        for z in range(filled, b + P - 1, gemm_rows):
            m = min(gemm_rows, b + P - 1 - z)
            seg = dL[(t0 + z) * F : (t0 + z + m) * F]
            if len(seg) < m * F:  # the last row of D runs past the increments
                seg = np.concatenate([seg, np.zeros(m * F - len(seg))])
            np.matmul(seg.reshape(m, F), R.T, out=window[z : z + m])
        diagonals = np.lib.stride_tricks.as_strided(window, (b, P), (row_stride, row_stride + col_stride))
        out[t0 : t0 + b] = diagonals.sum(axis=1)
        window[: P - 1] = window[b : b + P - 1]
        filled = P - 1
    return out


def _convolve_paths(weights_list, dL, n: int, fine_steps: int, method: str):
    """Sampled values ``X_i = sum_m w[L - 1 - m] dL[i F + m]`` for each weight
    vector (all of length ``L``), and the route that computed them.

    Each kernel gets its own product, so a pair of equal kernels reproduces
    the single path bit for bit.
    """
    width = len(weights_list[0])
    if method == "direct":
        route = "direct"
    elif method == "fast":
        route = _fast_route(n, fine_steps, width)
    else:
        raise ParameterError(f"unknown method {method!r}")
    idx = np.arange(n) * fine_steps
    out = []
    for w in weights_list:
        if route == "blocked":
            out.append(_blocked_samples(w, dL, n, fine_steps))
        elif route == "fft":
            out.append(scipy.signal.fftconvolve(dL, w)[width - 1 + idx])
        else:
            rev = w[::-1]
            out.append(np.array([float(np.dot(dL[k : k + width], rev)) for k in idx]))
    return out, route


def simulate_path(kernel: Kernel, model: LevyModel, cfg: PathConfig, *, method: str = "fast") -> SamplePath:
    """Simulate ``X_delta, ..., X_{n delta}`` for one kernel.

    ``method="fast"`` computes only the ``n`` kept samples, by a polyphase
    block product or, for wide windows where that costs more, by one FFT
    convolution of all increments; ``provenance["route"]`` names the one
    used.  ``method="direct"`` computes every sampled value by an explicit
    window dot product; it is the slow reference the fast routes are checked
    against.
    """
    (path,) = _simulate((kernel,), model, cfg, method)
    return path


def simulate_pair(k1: Kernel, k2: Kernel, model: LevyModel, cfg: PathConfig, *, method: str = "fast"):
    """Two sampled paths driven by the *same* increments (common driver).

    Each path is computed exactly as :func:`simulate_path` computes it, so
    ``simulate_pair(k, k)`` returns two copies of ``simulate_path(k)``.
    """
    return _simulate((k1, k2), model, cfg, method)


def _simulate(kernels, model: LevyModel, cfg: PathConfig, method: str):
    horizon = max(resolve_horizon(k, cfg) for k in kernels)
    step = cfg.delta / cfg.fine_steps
    lo = min(math.floor(k.support_lo / step + 1e-12) * step for k in kernels)
    weights = [_weights(k, lo, horizon, step) for k in kernels]
    count = _increment_count(cfg, horizon, lo)
    rng = stream(cfg.seed, cfg.stream_index)
    dL = model.sample_increments(count, step, rng)
    values_list, route = _convolve_paths(weights, dL, cfg.n, cfg.fine_steps, method)
    cfg_res = replace(cfg, horizon=horizon)
    paths = []
    for k, values in zip(kernels, values_list):
        prov = {
            "config": _hash_dict(cfg_res.spec_dict()),
            "kernel": _hash_dict(k.spec_dict()),
            "model": _hash_dict(model.spec_dict()),
            "tail_mass_rel": _check_tail_mass(k, horizon, cfg.tail_mass_budget),
            "route": route,
        }
        paths.append(SamplePath(values=values, delta=cfg.delta, provenance=prov))
    return tuple(paths)


def stochastic_integrals_joint(grids, model: LevyModel, count: int, rng) -> list[np.ndarray]:
    """Joint draws of several stochastic integrals sharing one driver realization.

    All grids must share step and window; each replicate draws one increment
    vector and dots it against every grid's left-endpoint cell values, the
    discretisation of :func:`cmaqf.variance.fourth_moment`.
    """
    step, cells = grid_cells(grids)
    out = np.empty((len(grids), count))
    done = 0
    while done < count:
        k = min(_INTEGRAL_CHUNK, count - done)
        dL = model.sample_increments(k * cells.shape[1], step, rng).reshape(k, cells.shape[1])
        out[:, done : done + k] = cells @ dL.T
        done += k
    return [out[i] for i in range(len(grids))]


# ---------------------------------------------------------------------------
# statistics of sampled paths
# ---------------------------------------------------------------------------


def compute_sn(x1: SamplePath, x2: SamplePath) -> float:
    """Inner product ``sum_t X^1_t X^2_t`` of two equally long paths."""
    if x1.n != x2.n:
        raise ParameterError(f"length mismatch: {x1.n} vs {x2.n}")
    return float(np.dot(x1.values, x2.values))


def compute_qn(x: SamplePath, b: CoefficientSeq) -> float:
    """Quadratic form ``sum_{t,s} b(t-s) X_t X_s`` via lag inner products.

    Finite-support coefficients use the O(n K) sliding dot products; power
    decay uses one FFT autocorrelation over all lags below ``n``.
    """
    v = x.values
    n = len(v)
    if isinstance(b, FiniteSupport):
        total = b.weight(0) * float(np.dot(v, v))
        for u in range(1, min(b.radius, n - 1) + 1):
            w = b.weight(u)
            if w != 0.0:
                total += 2.0 * w * float(np.dot(v[:-u], v[u:]))
        return total
    corr = scipy.signal.fftconvolve(v, v[::-1])[n - 1 :]
    weights = b.weight(np.arange(n))
    return float(weights[0] * corr[0] + 2.0 * np.dot(weights[1:], corr[1:]))


def sample_autocov(x: SamplePath, m: int) -> np.ndarray:
    """Biased-normalisation sample autocovariances at lags ``1..m`` (``m < n-1``)."""
    v = x.values
    n = len(v)
    if not m < n - 1:
        raise ParameterError(f"lag count m = {m} must satisfy m < n - 1 = {n - 1}")
    if m < 1:
        raise ParameterError("m must be >= 1")
    return np.array([float(np.dot(v[: n - j], v[j:])) / n for j in range(1, m + 1)])


def ls_derivative(x: SamplePath, v, vp, theta: float, k: int) -> float:
    """Derivative of the least-squares objective at ``theta``.

    ``-2 sum_{t=k+1}^n (X_t - v(theta)^T X(t)) vp(theta)^T X(t)`` with
    ``X(t) = (X_{t-1}, ..., X_{t-k})``.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    vals = x.values
    n = len(vals)
    if n <= k:
        raise ParameterError(f"need n > k, got n = {n}, k = {k}")
    vv = np.atleast_1d(np.asarray(v(theta), dtype=float))
    vpv = np.atleast_1d(np.asarray(vp(theta), dtype=float))
    if len(vv) != k or len(vpv) != k:
        raise ParameterError(f"v(theta) and vp(theta) must have length k = {k}")
    lagged = np.stack([vals[k - j : n - j] for j in range(1, k + 1)])  # rows: lags 1..k
    resid = vals[k:] - vv @ lagged
    return float(-2.0 * np.dot(resid, vpv @ lagged))


def normalized_statistic(raw: float, expected: float, n: int) -> float:
    """Centered and root-n normalised: ``(raw - expected) / sqrt(n)``."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    return (raw - expected) / math.sqrt(n)
