"""Discretised simulation of sampled moving averages and their statistics.

Paths are generated by Riemann discretisation of the stochastic convolution
on a fine grid of ``fine_steps`` cells per sampling interval: exact driver
increments, kernel evaluated at the cell midpoint, and only the ``n`` sampled
values computed from one long increment sequence.  The phase matrix (the
reversed weights cut into one row per sampling interval) picks the route,
named in ``provenance["route"]``: when its numerical rank is at most 4
(recorded in ``provenance["rank"]``), a low-rank product through its row
basis; otherwise a polyphase block product of the increments with the phase
matrix, or one FFT convolution when the window is so wide that the block
product costs more.  Kernels that are sums of ``p`` exponential modes, OU and
CARMA, have rank ``p``: each row is the same ``p`` exponentials over one
sampling interval, scaled per mode.

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

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .covariance import CoefficientSeq, FiniteSupport, _fft_convolve
from .errors import ParameterError, TruncationError, _check_count, _check_positive
from .kernels import Kernel, grid_cells
from .levy import LevyModel, check_key, stream
from .quadrature import product_integral
from .specs import _hash, spec
from .tails import decay_exponent, grow_radius, tail_integral

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
# the block product costs F multiply-adds for each of its (n + P - 1) P window
# cells plus about 22 more for writing the cell and reading it into a diagonal
# sum, and one unit of N log2 N of an FFT convolution of length N about 28: on
# a 2-vCPU Xeon with OpenBLAS's Haswell kernels, 0.06 ns per multiply-add,
# 1.3 ns per cell and 1.7 ns per N log2 N (n = 50-4000, P = 9-1025,
# fine_steps 1-64).  At 32 the choice is within 1.25x or 0.02 ms of the faster
# route at every point measured.
_WINDOW_CELL_OPS = 22.0
_FFT_OPS_PER_NLOGN = 32.0
_LOWRANK_MAX = 4  # phase-matrix rank up to which the low-rank product is taken
_LOWRANK_TOL = 1e-13  # relative Frobenius residual of the row basis the low-rank route keeps


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
        _check_positive("delta", self.delta)
        _check_positive("tail_mass_budget", self.tail_mass_budget)
        _check_count("n", self.n, 1)
        _check_count("fine_steps", self.fine_steps, 1)
        check_key("seed", self.seed)
        check_key("stream_index", self.stream_index)
        if self.horizon is not None:
            _check_positive("horizon", self.horizon)
            ratio = self.horizon / self.delta
            if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
                raise ParameterError("horizon must be a positive multiple of delta")


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


def resolve_horizon(kernel: Kernel, cfg: PathConfig) -> float:
    """Truncation window for ``kernel``: the configured one, or the first of
    ``64 delta, 128 delta, ...`` (:func:`~cmaqf.tails.grow_radius`, past 64
    delta only for power-law tails, up to 1024 delta) whose relative squared
    tail mass meets the budget; one that misses it raises :class:`TruncationError`."""
    total = product_integral(kernel, kernel, 0.0).value
    start = cfg.horizon if cfg.horizon is not None else 64 * cfg.delta
    cap = _POWER_HORIZON_CAP * cfg.delta if cfg.horizon is None and decay_exponent(kernel.decay) < math.inf else start
    T, rel, met = grow_radius(lambda h: _tail_mass_rel(kernel, h, total), start, cap, cfg.tail_mass_budget)
    if not met:
        raise TruncationError(
            f"kernel squared mass outside [-{T:g}, {T:g}] is {rel:.3g} of the total, "
            f"exceeding the budget {cfg.tail_mass_budget:g}"
        )
    return T


def _tail_mass_rel(kernel: Kernel, horizon: float, total: float) -> float:
    """Squared kernel mass outside ``[-horizon, horizon]`` relative to ``total``."""
    out = tail_integral(kernel.decay, horizon, power=2.0)
    if kernel.support_lo < -horizon:
        out = math.inf  # window must cover the support start
    return out / max(total, 1e-300)


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
    """``"blocked"`` when the block product's modelled cost, in multiply-adds,
    undercuts the FFT's, else ``"fft"``; both depend only on the geometry."""
    phases = -(-width // fine_steps)
    size = (n - 1) * fine_steps + 2 * width - 1  # full convolution length
    blocked_ops = (n + phases - 1) * phases * (fine_steps + _WINDOW_CELL_OPS)
    fft_ops = _FFT_OPS_PER_NLOGN * size * math.log2(size)
    return "blocked" if blocked_ops < fft_ops else "fft"


def _phase_matrix(w: np.ndarray, fine_steps: int) -> np.ndarray:
    """The reversed weights cut into ``P = ceil(L / F)`` zero-padded rows."""
    R = np.zeros((-(-len(w) // fine_steps), fine_steps))
    R.reshape(-1)[: len(w)] = w[::-1]
    return R


def _row_basis(R: np.ndarray) -> np.ndarray | None:
    """Orthonormal rows ``B`` with ``||R - (R B^T) B||_F <= _LOWRANK_TOL ||R||_F``,
    or ``None`` when that takes more than ``_LOWRANK_MAX`` rows.

    Gram-Schmidt on the rows of ``R``, each step taking the row with the
    largest residual; an all-zero ``R`` has rank 0.
    """
    resid = R.copy()
    norms = np.einsum("ij,ij->i", resid, resid)
    limit = _LOWRANK_TOL**2 * norms.sum()
    basis = np.empty((0, R.shape[1]))
    while norms.sum() > limit:
        if len(basis) == _LOWRANK_MAX:
            return None
        b = resid[np.argmax(norms)]
        b = b - (basis @ b) @ basis  # second pass: orthogonality lost to cancellation in resid
        basis = np.vstack([basis, b / np.linalg.norm(b)])
        resid -= np.outer(resid @ basis[-1], basis[-1])
        norms = np.einsum("ij,ij->i", resid, resid)
    return basis


def _blocked_samples(R: np.ndarray, dL: np.ndarray, n: int) -> np.ndarray:
    """Polyphase block product computing only the ``n`` kept outputs.

    With ``D[r] = dL[r F : (r + 1) F]`` and the phase matrix ``R`` (the
    reversed weights cut into ``P`` rows of ``F``), the kept output is
    ``X_i = sum_q (D R^T)[i + q, q]``.  Rows of ``D R^T`` are produced in
    gemm calls small enough to stay on the calling thread, and each output is
    one diagonal sum over a window of ``P - 1 + b`` product rows whose first
    ``P - 1`` rows carry over from the previous window.
    """
    P, F = R.shape
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


def _lowrank_samples(R: np.ndarray, basis: np.ndarray, dL: np.ndarray, n: int) -> np.ndarray:
    """The block product's ``n`` outputs through the factorisation ``R = C B``.

    ``(D R^T)[i + q, q] = sum_k (D B^T)[i + q, k] C[q, k]``, so each kept
    output is ``X_i = sum_k sum_q Y[i + q, k] C[q, k]`` with ``Y = D B^T``:
    one correlation of length ``n`` per basis row.  ``Y`` comes from gemm
    calls small enough to stay on the calling thread; the last row of ``D``,
    which may run past the increments, is done on its own.
    """
    P, F = R.shape
    rank = len(basis)
    coeffs = R @ basis.T
    basis_t = np.ascontiguousarray(basis.T)
    rows = n + P - 1
    full = min(rows, len(dL) // F)
    Y = np.empty((rows, rank))
    chunk = max(1, _GEMM_CALLING_THREAD // (F * max(rank, 1)))
    for z in range(0, full, chunk):
        m = min(chunk, full - z)
        np.matmul(dL[z * F : (z + m) * F].reshape(m, F), basis_t, out=Y[z : z + m])
    for z in range(full, rows):
        seg = dL[z * F : (z + 1) * F]
        Y[z] = seg @ basis_t[: len(seg)]
    out = np.zeros(n)
    for k in range(rank):
        out += np.correlate(Y[:, k], coeffs[:, k], "valid")
    return out


def _convolve_paths(weights_list, dL, n: int, fine_steps: int, method: str):
    """Sampled values ``X_i = sum_m w[L - 1 - m] dL[i F + m]`` for each weight
    vector (all of length ``L``), each with the route that computed it and the
    rank of its phase matrix when that route was ``"lowrank"`` (else ``None``).

    Each kernel gets its own product and its own choice of route, so a pair
    of equal kernels reproduces the single path bit for bit.
    """
    width = len(weights_list[0])
    if method == "direct":
        idx = np.arange(n) * fine_steps
        out = []
        for w in weights_list:
            rev = w[::-1]
            out.append(np.array([float(np.dot(dL[k : k + width], rev)) for k in idx]))
        return out, [("direct", None)] * len(out)
    if method != "fast":
        raise ParameterError(f"unknown method {method!r}")
    route = _fast_route(n, fine_steps, width)
    out, routes = [], []
    for w in weights_list:
        R = _phase_matrix(w, fine_steps)
        basis = _row_basis(R)
        if basis is not None:
            out.append(_lowrank_samples(R, basis, dL, n))
            routes.append(("lowrank", len(basis)))
        elif route == "blocked":
            out.append(_blocked_samples(R, dL, n))
            routes.append(("blocked", None))
        else:
            out.append(_fft_convolve(dL, w)[width - 1 + np.arange(n) * fine_steps])
            routes.append(("fft", None))
    return out, routes


def simulate_path(kernel: Kernel, model: LevyModel, cfg: PathConfig, *, method: str = "fast") -> SamplePath:
    """Simulate ``X_delta, ..., X_{n delta}`` for one kernel.

    ``method="fast"`` computes only the ``n`` kept samples: by a low-rank
    product when the phase matrix has rank at most 4, else by a polyphase
    block product or, for wide windows where that costs more, by one FFT
    convolution of all increments; ``provenance["route"]`` names the one
    used and ``provenance["rank"]`` the rank on the low-rank route (else
    ``None``).  ``method="direct"`` computes every sampled value by an
    explicit window dot product; it is the slow reference the fast routes
    are checked against.
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
    values_list, routes = _convolve_paths(weights, dL, cfg.n, cfg.fine_steps, method)
    cfg_res = replace(cfg, horizon=horizon)
    paths = []
    for k, values, (route, rank) in zip(kernels, values_list, routes):
        prov = {
            "config": _hash(asdict(cfg_res)),
            "kernel": _hash(spec(k)),
            "model": _hash(spec(model)),
            "tail_mass_rel": _tail_mass_rel(k, horizon, product_integral(k, k, 0.0).value),
            "route": route,
            "rank": rank,
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
    corr = _fft_convolve(v, v[::-1])[n - 1 :]
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


def ls_derivative(x: SamplePath, v, vp, theta: float) -> float:
    """Derivative of the least-squares objective at ``theta``.

    ``-2 sum_{t=k+1}^n (X_t - v(theta)^T X(t)) vp(theta)^T X(t)`` with
    ``X(t) = (X_{t-1}, ..., X_{t-k})``, ``k`` the length of ``v(theta)``.
    """
    vv = np.atleast_1d(np.asarray(v(theta), dtype=float))
    vpv = np.atleast_1d(np.asarray(vp(theta), dtype=float))
    k = len(vv)
    if k < 1 or len(vpv) != k:
        raise ParameterError(f"v(theta) and vp(theta) must share one length >= 1, got {k} and {len(vpv)}")
    vals = x.values
    n = len(vals)
    if n <= k:
        raise ParameterError(f"need n > k, got n = {n}, k = {k}")
    lagged = np.stack([vals[k - j : n - j] for j in range(1, k + 1)])  # rows: lags 1..k
    resid = vals[k:] - vv @ lagged
    return float(-2.0 * np.dot(resid, vpv @ lagged))


def normalized_statistic(raw: float, expected: float, n: int) -> float:
    """Centered and root-n normalised: ``(raw - expected) / sqrt(n)``."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    return (raw - expected) / math.sqrt(n)
