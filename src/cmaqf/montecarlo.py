"""Replicated experiments testing the Gaussian limits against the analytic variance.

One experiment simulates ``replicates`` independent paths (counter-based
streams ``0 .. R-1`` of the master seed), computes the centered and root-n
normalised statistic for each, and compares the sample of normalised values
to the centered normal law with the analytic limit variance: empirical
moments, variance ratio, and the Kolmogorov-Smirnov distance.

Replicates are embarrassingly parallel and their randomness is keyed by the
stream index, so reports are bit-identical regardless of the thread count.
"""

from __future__ import annotations

import copy
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .covariance import CoefficientSeq, covariance_lags
from .errors import ParameterError, _check_count, _check_finite
from .inference import ls_kernel_pair, poly_map, yule_walker
from .kernels import Kernel
from .levy import LevyModel
from .simulate import (
    PathConfig,
    compute_qn,
    compute_sn,
    ls_derivative,
    normalized_statistic,
    sample_autocov,
    simulate_pair,
    simulate_path,
)
from .variance import _gate_conditions, autocov_clt_sigma, eta2_qn, eta2_sn, expected_qn, expected_sn

__all__ = ["ExperimentConfig", "LsSpec", "McReport", "run_experiment", "ks_distance", "run_replicates"]

STATISTICS = ("sn", "qn", "autocov_contrast", "ls_derivative")


@dataclass(frozen=True)
class LsSpec:
    """Least-squares derivative specification: a map ``theta -> R^k`` with its
    derivative, and the expansion point (which must satisfy the projection property).

    The order ``k`` is the length of ``v(theta)``.  ``v`` and ``vp`` are given
    together or not at all: left out, they mean the identity map
    ``v(theta) = theta``.  ``theta0`` left as ``None`` means the lag-1
    Yule-Walker value, the projection point of a map of length 1; a longer map
    needs ``theta0``, whose projection property is the caller's claim.
    """

    v: object = None
    vp: object = None
    theta0: float | None = None

    def __post_init__(self):
        if (self.v is None) != (self.vp is None):
            raise ParameterError("v and vp must be given together or not at all")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one replicated experiment: the lag count of
    ``contrast`` is its length, and the least-squares order that of the ``ls`` map."""

    statistic: str
    kernel: Kernel
    model: LevyModel
    delta: float
    n: int
    replicates: int
    seed: int = 0
    kernel2: Kernel | None = None
    b: CoefficientSeq | None = None
    contrast: tuple[float, ...] | None = None
    ls: LsSpec | None = None
    fine_steps: int = 64
    horizon: float | None = None
    tail_mass_budget: float = 1e-4
    conditions: str = "auto"  # "auto" | "waive"

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ParameterError(f"statistic must be one of {STATISTICS}, got {self.statistic!r}")
        _check_count("replicates", self.replicates, 2)
        _check_count("n", self.n, 2)
        if self.statistic == "qn" and self.b is None:
            raise ParameterError("qn experiments need a coefficient sequence b")
        if self.statistic == "autocov_contrast":
            if self.contrast is None:
                raise ParameterError("autocov_contrast experiments need a contrast")
            _check_finite("contrast", self.contrast)
            if not any(c != 0.0 for c in self.contrast):
                raise ParameterError("contrast must be non-zero")
            if not len(self.contrast) < self.n - 1:
                raise ParameterError(f"contrast length m = {len(self.contrast)} must satisfy m < n - 1")
        if self.statistic == "ls_derivative" and self.ls is None:
            raise ParameterError("ls_derivative experiments need ls, an LsSpec")
        if self.conditions not in ("auto", "waive"):
            raise ParameterError("conditions must be 'auto' or 'waive'")
        self.path_config(0)  # path geometry and seed, checked before any set-up

    def path_config(self, stream_index: int) -> PathConfig:
        """The path geometry and seed of replicate ``stream_index``: every other field of
        :class:`PathConfig` is the experiment's field of the same name."""
        shared = {f.name: getattr(self, f.name) for f in fields(PathConfig) if f.name != "stream_index"}
        return PathConfig(stream_index=stream_index, **shared)


@dataclass(frozen=True)
class McReport:
    """Per-replicate normalised statistics and their comparison to the limit law."""

    statistics: np.ndarray
    replicates: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    eta2: float
    variance_ratio: float
    ks: float
    degenerate: bool = False
    conditions_note: str = ""
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field but ``statistics``, shallow copies."""
        return {f.name: copy.copy(getattr(self, f.name)) for f in fields(self) if f.name != "statistics"}


def _normal_cdf(x: float) -> float:
    """Standard normal CDF in the branch form of ``scipy.special.ndtr``: ``erf`` near 0, else ``erfc``."""
    z = x * math.sqrt(0.5)
    if abs(z) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(z)
    tail = 0.5 * math.erfc(abs(z))
    return 1.0 - tail if z > 0 else tail


def ks_distance(samples, variance: float) -> float:
    """Sup distance between the empirical law and the centered normal with ``variance``."""
    samples = np.sort(np.asarray(samples, dtype=float))
    if samples.size < 1:
        raise ParameterError("need at least one sample")
    if not variance > 0:
        raise ParameterError(f"variance must be > 0, got {variance}")
    R = samples.size
    cdf = np.array([_normal_cdf(x) for x in (samples / math.sqrt(variance)).tolist()])
    upper = np.max(np.arange(1, R + 1) / R - cdf)
    lower = np.max(cdf - np.arange(0, R) / R)
    return float(max(upper, lower))


def _shape_moments(values: np.ndarray) -> tuple[float, float]:
    """Biased sample skewness and excess kurtosis (Fisher), ``nan`` for a constant sample."""
    mean = values.mean()
    d = values - mean
    d2 = d**2
    m2 = d2.mean()
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return math.nan, math.nan
    return float((d2 * d).mean() / m2**1.5), float((d2**2).mean() / m2**2.0 - 3.0)


def run_replicates(replicate_fn, count: int, threads: int | None = None) -> np.ndarray:
    """Evaluate ``replicate_fn(r)`` for ``r = 0..count-1``, optionally threaded.

    Results land in stream-index order, and workers take the caller's numpy error
    state, so the output, or the error raised, is identical for any thread count.
    """
    out = np.empty(count)
    if threads is None or threads <= 1:
        for r in range(count):
            out[r] = replicate_fn(r)
        return out
    with ThreadPoolExecutor(threads, initializer=functools.partial(np.seterr, **np.geterr())) as pool:
        for r, val in zip(range(count), pool.map(replicate_fn, range(count))):
            out[r] = val
    return out


def _sn_setup(cfg: ExperimentConfig):
    k2 = cfg.kernel2 if cfg.kernel2 is not None else cfg.kernel
    check = "auto" if cfg.conditions == "auto" else "skip"
    rep = eta2_sn(cfg.kernel, k2, cfg.model, cfg.delta, check=check)
    expected = expected_sn(cfg.kernel, k2, cfg.model, cfg.delta, cfg.n)

    def one(r: int) -> float:
        x1, x2 = simulate_pair(cfg.kernel, k2, cfg.model, cfg.path_config(r))
        return normalized_statistic(compute_sn(x1, x2), expected, cfg.n)

    return rep.eta2, rep.conditions_note, one, {}


def _qn_setup(cfg: ExperimentConfig):
    check = "auto" if cfg.conditions == "auto" else "skip"
    rep = eta2_qn(cfg.kernel, cfg.b, cfg.model, cfg.delta, check=check)
    expected = expected_qn(cfg.b, cfg.kernel, cfg.model, cfg.delta, cfg.n)

    def one(r: int) -> float:
        x = simulate_path(cfg.kernel, cfg.model, cfg.path_config(r))
        return normalized_statistic(compute_qn(x, cfg.b), expected, cfg.n)

    return rep.eta2, rep.conditions_note, one, {}


def _autocov_gate(cfg: ExperimentConfig):
    """The kernel's autocov condition check, run once and gated as the limit
    variances gate theirs (refuted raises unless conditions are waived): the
    report to pass on as ``check`` and a note naming the verdict."""
    check = "auto" if cfg.conditions == "auto" else "skip"
    report, note = _gate_conditions("autocov", cfg.kernel, None, cfg.delta, cfg.model, check, False)
    return ("skip", note) if report is None else (report, f"autocov conditions {report.overall}")


def _autocov_setup(cfg: ExperimentConfig):
    alpha = np.asarray(cfg.contrast, dtype=float)
    m = len(alpha)
    check, note = _autocov_gate(cfg)
    sigma = autocov_clt_sigma(cfg.kernel, cfg.model, cfg.delta, m, check=check)
    target = float(alpha @ sigma @ alpha)
    sigma2, _ = cfg.model.cumulants()
    gam = covariance_lags(cfg.kernel, cfg.kernel, sigma2, cfg.delta, 1, m)
    js = np.arange(1, m + 1)
    finite_mean = (1.0 - js / cfg.n) * gam  # exact finite-n mean of each lag
    # the deterministic per-replicate shift of centering at the finite-n mean
    # instead of the limit lags, and a bound on it
    extra = {
        "centering_shift": math.sqrt(cfg.n) * float(np.dot(alpha, (js / cfg.n) * gam)),
        "centering_shift_bound": float(np.sum(3.0 * np.abs(alpha) * js * np.abs(gam))) / math.sqrt(cfg.n),
    }

    def one(r: int) -> float:
        x = simulate_path(cfg.kernel, cfg.model, cfg.path_config(r))
        ghat = sample_autocov(x, m)
        return math.sqrt(cfg.n) * float(alpha @ (ghat - finite_mean))

    return target, f"{note}; centering at the exact finite-n mean (1 - j/n) gamma(j Delta)", one, extra


def _ls_setup(cfg: ExperimentConfig):
    _, note = _autocov_gate(cfg)  # the base kernel's autocovariance conditions license the limit
    spec = cfg.ls
    v, vp = (spec.v, spec.vp) if spec.v is not None else poly_map([[0.0, 1.0]])
    theta0 = spec.theta0 if spec.theta0 is not None else float(yule_walker(cfg.kernel, cfg.model, cfg.delta, 1)[0])
    k1, k2 = ls_kernel_pair(cfg.kernel, v, vp, theta0, cfg.delta)
    if spec.theta0 is None and len(k2.shifts) != 1:
        raise ParameterError(f"theta0 must be given for a map of length {len(k2.shifts)} > 1")
    rep = eta2_sn(k1, k2, cfg.model, cfg.delta, check="skip")

    def one(r: int) -> float:
        x = simulate_path(cfg.kernel, cfg.model, cfg.path_config(r))
        return normalized_statistic(ls_derivative(x, v, vp, theta0), 0.0, cfg.n)

    return rep.eta2, note, one, {"theta0": theta0}


def run_experiment(cfg: ExperimentConfig, *, threads: int | None = None) -> McReport:
    """Run all replicates of the configured experiment and summarise them.

    ``extra`` of the report holds what the statistic adds to the common
    summary: ``centering_shift`` and ``centering_shift_bound`` for
    ``autocov_contrast``, the expansion point ``theta0`` for ``ls_derivative``.
    """
    setup = {"sn": _sn_setup, "qn": _qn_setup, "autocov_contrast": _autocov_setup, "ls_derivative": _ls_setup}
    eta2, note, one, extra = setup[cfg.statistic](cfg)
    values = run_replicates(one, cfg.replicates, threads=threads)

    degenerate = not (eta2 > 0.0) or bool(np.all(values == values[0]))
    variance = float(np.var(values, ddof=1))
    skewness, excess_kurtosis = _shape_moments(values)
    report = McReport(
        statistics=values,
        replicates=cfg.replicates,
        mean=float(np.mean(values)),
        variance=variance,
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        eta2=float(eta2),
        variance_ratio=(variance / eta2 if eta2 > 0 else math.nan),
        ks=(ks_distance(values, eta2) if eta2 > 0 else math.nan),
        degenerate=degenerate,
        conditions_note=note,
        extra=extra,
    )
    return report
