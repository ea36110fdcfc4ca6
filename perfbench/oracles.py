"""Independent references and statistical gates, in numpy and the standard library only.

Nothing here imports ``cmaqf``: each reference recomputes a library output
from closed-form covariances of the workload's kernels, so a gate fails when
the library's number changes, not when both sides change together.
"""

from __future__ import annotations

import math

import numpy as np

# --- covariances -------------------------------------------------------------


def exp_sum_crosscov(c1, a1, c2, a2, sigma2: float, h) -> np.ndarray:
    """``sigma2 * int phi_1(t) phi_2(t + h) dt`` for causal exponential sums
    ``phi_i(t) = sum_k c_ik exp(-a_ik t)`` on ``t >= 0``."""
    h = np.asarray(h, dtype=float)
    out = np.zeros(h.shape)
    for ci, ai in zip(c1, a1):
        for cj, aj in zip(c2, a2):
            out += ci * cj * np.where(h >= 0, np.exp(-aj * np.abs(h)), np.exp(-ai * np.abs(h))) / (ai + aj)
    return sigma2 * out


def ou_autocov(lam: float, sigma2: float, h) -> np.ndarray:
    """``gamma(h) = sigma2 exp(-lam |h|) / (2 lam)`` of the OU kernel ``exp(-lam t)``."""
    return sigma2 * np.exp(-lam * np.abs(np.asarray(h, dtype=float))) / (2.0 * lam)


def fractional_noise_autocov(d: float, sigma2: float, h) -> np.ndarray:
    """``sigma2 V_H (|h+1|^2H - 2|h|^2H + |h-1|^2H) / 2`` with ``H = d + 1/2`` and
    ``V_H = Gamma(2-2H) cos(pi H) / (pi H (1-2H))``, for the kernel
    ``(t_+^d - (t-1)_+^d) / Gamma(1+d)`` at integer lags ``h``."""
    H = d + 0.5
    v = math.gamma(2.0 - 2.0 * H) * math.cos(math.pi * H) / (math.pi * H * (1.0 - 2.0 * H))
    h = np.abs(np.asarray(h, dtype=float))
    return sigma2 * v * (np.abs(h + 1) ** (2 * H) - 2 * h ** (2 * H) + np.abs(h - 1) ** (2 * H)) / 2.0


# --- eta2 and means ------------------------------------------------------------


def sn_eta2_exp_sums(c1, a1, c2, a2, sigma2: float, radius: int = 2000) -> float:
    """Brownian-driven ``eta2`` of ``S_n``: ``sum_s g11 g22 + sum_s g12(s) g12(-s)``
    for exponential-sum kernels with unit sampling step."""
    s = np.arange(-radius, radius + 1)
    g11 = exp_sum_crosscov(c1, a1, c1, a1, sigma2, s)
    g22 = exp_sum_crosscov(c2, a2, c2, a2, sigma2, s)
    g12 = exp_sum_crosscov(c1, a1, c2, a2, sigma2, s)
    return float(np.sum(g11 * g22) + np.sum(g12 * g12[::-1]))


def qn_eta2_ou_finite(
    lam: float, sigma2: float, kappa4: float, b_one_sided, radius: int = 400, nodes: int = 48
) -> float:
    """``eta2`` of ``Q_n`` for the OU kernel, even finite weights and unit step.

    ``2 ||b * gamma||^2`` from the closed-form ``gamma``, plus ``kappa4`` times
    ``int_0^1 F(t)^2 dt`` with ``F(t) = sum_s phi(t+s) psi(t+s)`` summed on the
    lattice, ``psi = sum_u b(u) phi(. - u)``, by Gauss-Legendre on (0, 1) where
    every lattice term is smooth.
    """
    K = len(b_one_sided) - 1
    u = np.arange(-K, K + 1)
    b = np.asarray(b_one_sided, dtype=float)[np.abs(u)]
    s = np.arange(-radius, radius + 1)
    bsg = sum(bu * ou_autocov(lam, sigma2, s - uu) for bu, uu in zip(b, u))
    l2_doubled = 2.0 * float(np.sum(bsg**2))

    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (x + 1.0)
    lattice = t[:, None] + np.arange(0, radius + K + 1)[None, :]  # phi vanishes for t + s < 0

    def phi(v):
        return np.where(v >= 0.0, np.exp(-lam * np.maximum(v, 0.0)), 0.0)

    psi = sum(bu * phi(lattice - uu) for bu, uu in zip(b, u))
    F = np.sum(phi(lattice) * psi, axis=1)
    return kappa4 * 0.5 * float(np.dot(w, F**2)) + l2_doubled


def power_weighted_l2_doubled(
    lam: float, sigma2: float, c: float, rho: float, b0: float, log2_lags: int = 20
) -> float:
    """``2 ||b * gamma||^2`` for ``b(s) = c |s|^-rho`` (``b(0) = b0``) and the OU
    ``gamma``, by one FFT convolution over ``2^log2_lags`` lags on each side.

    The sum is taken over ``|s| <= 2^(log2_lags-1)``, where the truncation of
    ``b`` does not reach, plus the leading-order tail ``2 (c sum gamma)^2
    sum_{s>S} s^-2rho``.
    """
    L = 2**log2_lags
    G = 64  # exp(-lam * G) is below double precision relative to gamma(0) for lam >= 1
    lags = np.arange(-L, L + 1)
    b = np.where(lags == 0, b0, c * np.maximum(np.abs(lags), 1).astype(float) ** -rho)
    g = ou_autocov(lam, sigma2, np.arange(-G, G + 1))
    size = 1 << int(math.ceil(math.log2(len(b) + len(g) - 1)))
    conv = np.fft.irfft(np.fft.rfft(b, size) * np.fft.rfft(g, size), size)[G : G + len(b)]
    S = L // 2
    head = float(np.sum(conv[L - S : L + S + 1] ** 2))
    tail = 2.0 * (c * float(np.sum(g))) ** 2 * S ** (1.0 - 2.0 * rho) / (2.0 * rho - 1.0)
    return 2.0 * (head + tail)


def autocov_sigma_brownian(gamma, m: int, radius: int) -> np.ndarray:
    """``Sigma[j, k] = sum_{|s| <= radius} (g(s+j) + g(j-s)) g(s+k)`` for a
    Brownian driver, ``gamma`` evaluating the autocovariance at integer lags."""
    s = np.arange(-radius, radius + 1)
    out = np.empty((m, m))
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            out[j - 1, k - 1] = float(np.sum((gamma(s + j) + gamma(j - s)) * gamma(s + k)))
    return out


# --- Monte Carlo gates ----------------------------------------------------------


def normal_cdf(x, variance: float) -> np.ndarray:
    z = np.asarray(x, dtype=float) / math.sqrt(2.0 * variance)
    return 0.5 * (1.0 + np.vectorize(math.erf)(z))


def ks_statistic(values, variance: float) -> float:
    v = np.sort(np.asarray(values, dtype=float))
    R = len(v)
    cdf = normal_cdf(v, variance)
    return float(max(np.max(np.arange(1, R + 1) / R - cdf), np.max(cdf - np.arange(R) / R)))


def ks_critical(R: int, alpha: float = 0.001) -> float:
    """Kolmogorov critical distance with Stephens' finite-sample correction."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c / (math.sqrt(R) + 0.12 + 0.11 / math.sqrt(R))


def mc_gates(values, eta2: float, z: float = 5.0) -> dict:
    """Gates on replicated ``(stat - E stat) / sqrt(n)`` against ``N(0, eta2)``.

    Mean within ``z`` standard errors of 0; variance ratio within ``z``
    delta-method standard errors of 1, ``Var(s^2)/sigma^4 = kurt/R + 2/(R-1)``
    with the sample excess kurtosis; KS distance below its 0.1% critical value.
    """
    v = np.asarray(values, dtype=float)
    R = len(v)
    mean = float(np.mean(v))
    var = float(np.var(v, ddof=1))
    centred = v - mean
    kurt = float(np.mean(centred**4) / np.mean(centred**2) ** 2 - 3.0)
    ratio = var / eta2
    ratio_se = math.sqrt(kurt / R + 2.0 / (R - 1))  # kurt >= -2, so this is positive
    ks = ks_statistic(v, eta2)
    ks_crit = ks_critical(R)
    return {
        "mean": mean,
        "mean_se": math.sqrt(var / R),
        "variance_ratio": ratio,
        "variance_ratio_se": ratio_se,
        "ks": ks,
        "ks_critical": ks_crit,
        "mean_ok": abs(mean) <= z * math.sqrt(var / R),
        "variance_ok": abs(ratio - 1.0) <= z * ratio_se,
        "ks_ok": ks <= ks_crit,
    }
