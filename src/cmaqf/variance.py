"""Asymptotic variances of the sampled bilinear and quadratic statistics.

Every limit variance computed here has the same anatomy: a fourth-cumulant
term (an integral over one sampling period of a squared lattice sum) plus
covariance-product lag sums.  The quadratic-form variance is computed twice,
once directly from its weighted-covariance form and once by reducing to the
bilinear form with the coefficient-convolved kernel as second factor; the two
routes agreeing to near machine precision is the module's flagship
cross-check.

:func:`fourth_moment` is the moment oracle for products of four stochastic
integrals.  It integrates grid values with the left-endpoint cell rule, the
same discretisation the path simulator uses, so its Monte Carlo cross-check
compares identical discretised objects (and is exact for cell-aligned
indicator kernels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conditions import ConditionReport, check_conditions
from .covariance import (
    CoefficientSeq,
    FiniteSupport,
    b_star_gamma,
    covariance_lags,
    star_conv_kernel,
)
from .errors import ConditionsRefutedError, ParameterError
from .kernels import Kernel, KernelGrid, LinComboKernel, grid_cells
from .levy import LevyModel
from .quadrature import _simpson, lattice_s_range, phase_integral, phase_product_sum
from .tails import ZeroSeqTail, fit_seq_tail, seq_tail_power_sum

__all__ = [
    "VarianceReport",
    "fourth_moment",
    "eta2_sn",
    "eta2_qn",
    "autocov_clt_sigma",
    "expected_qn",
    "expected_sn",
]


@dataclass(frozen=True)
class VarianceReport:
    """Limit variance with its per-term breakdown and truncation diagnostics.

    ``eta2`` always equals ``kappa4_term`` plus the sum of
    ``covariance_terms``; ``kappa4_term`` is exactly zero for a Brownian
    driver.  ``eta2_alt`` carries the value of the independent second route
    when one exists (quadratic form via the bilinear reduction).
    """

    eta2: float
    kappa4_term: float
    covariance_terms: dict[str, float]
    diagnostics: dict[str, float] = field(default_factory=dict)
    condition_set: str | None = None
    conditions: ConditionReport | None = None
    conditions_note: str = ""
    eta2_alt: float | None = None

    def to_dict(self) -> dict:
        out = {
            "eta2": self.eta2,
            "kappa4_term": self.kappa4_term,
            "covariance_terms": dict(self.covariance_terms),
            "diagnostics": dict(self.diagnostics),
            "condition_set": self.condition_set,
            "conditions_note": self.conditions_note,
            "eta2_alt": self.eta2_alt,
        }
        if self.conditions is not None:
            out["conditions"] = self.conditions.to_dict()
        return out


_NODES_PER_PERIOD = 512  # Simpson nodes (a multiple of 4) per sampling period of the fourth-cumulant integrals


# ---------------------------------------------------------------------------
# fourth-moment oracle
# ---------------------------------------------------------------------------


def fourth_moment(g1: KernelGrid, g2: KernelGrid, g3: KernelGrid, g4: KernelGrid, model: LevyModel) -> float:
    """Expected product of the four stochastic integrals of the gridded kernels.

    Fourth-cumulant term plus the three pairing products, each integral taken
    with the left-endpoint cell rule on the shared grid.
    """
    sigma2, kappa4 = model.cumulants()
    step, (v1, v2, v3, v4) = grid_cells((g1, g2, g3, g4))
    i4 = step * float(np.sum(v1 * v2 * v3 * v4))
    i12, i34 = step * float(np.sum(v1 * v2)), step * float(np.sum(v3 * v4))
    i13, i24 = step * float(np.sum(v1 * v3)), step * float(np.sum(v2 * v4))
    i14, i23 = step * float(np.sum(v1 * v4)), step * float(np.sum(v2 * v3))
    return kappa4 * i4 + sigma2**2 * (i12 * i34 + i13 * i24 + i14 * i23)


# ---------------------------------------------------------------------------
# condition gating shared by the eta2 computations
# ---------------------------------------------------------------------------


def _gate_conditions(condition_set, kernels, b, Delta, model, check, force):
    if check == "skip":
        return None, "unverified (check skipped)"
    if isinstance(check, ConditionReport):
        report = check
    elif check == "auto":
        report = check_conditions(condition_set, kernels, b=b, Delta=Delta, model=model)
    else:
        raise ParameterError(f"check must be 'auto', 'skip' or a ConditionReport, got {check!r}")
    if report.overall == "refuted":
        if not force:
            raise ConditionsRefutedError(
                f"{condition_set} conditions refuted; pass force=True to compute anyway"
            )
        return report, "overridden (refuted)"
    if report.overall == "indeterminate":
        return report, "conditions unverified (indeterminate)"
    return report, "supported"


# ---------------------------------------------------------------------------
# covariance-product lag sums
# ---------------------------------------------------------------------------


def _product_sum_with_tail(lags, prod):
    head = float(np.sum(prod))
    tail = fit_seq_tail(lags, prod)
    if isinstance(tail, ZeroSeqTail):
        return head, 0.0
    _, up = seq_tail_power_sum(tail, lags.max() + 1, 1.0)
    return head, 2.0 * up if np.isfinite(up) else math.inf


def _cov_product_sums(k1, k2, sigma2, Delta, rel_tol=1e-9, s_cap=2**14):
    S = 32
    while True:
        g11 = covariance_lags(k1, k1, sigma2, Delta, -S, S)
        g22 = covariance_lags(k2, k2, sigma2, Delta, -S, S)
        g12 = covariance_lags(k1, k2, sigma2, Delta, -S, S)
        lags = np.arange(-S, S + 1)
        t_auto, tail_a = _product_sum_with_tail(lags, g11 * g22)
        t_cross, tail_c = _product_sum_with_tail(lags, g12 * g12[::-1])
        scale = max(abs(t_auto) + abs(t_cross), 1e-300)
        if (tail_a + tail_c) <= rel_tol * scale or S >= s_cap:
            capped = (tail_a + tail_c) > rel_tol * scale
            return t_auto, t_cross, {"cov_radius": float(S), "cov_tail_bound": tail_a + tail_c, "cov_capped": float(capped)}
        S *= 2


# ---------------------------------------------------------------------------
# limit variances
# ---------------------------------------------------------------------------


def _kappa4_term(kernels, kappa4, Delta):
    """``kappa4`` times the period integral of the squared lattice sum, with its diagnostics."""
    if kappa4 == 0.0:
        return 0.0, {}
    ph = phase_integral(kernels, Delta, nodes_per_period=_NODES_PER_PERIOD)
    return kappa4 * ph.value, {"phase_disc_estimate": ph.disc_estimate, "phase_tail_bound": ph.tail_bound}


def eta2_sn(
    k1: Kernel,
    k2: Kernel,
    model: LevyModel,
    Delta: float,
    *,
    check="auto",
    force: bool = False,
) -> VarianceReport:
    """Limit variance of the normalised bilinear statistic of two kernels.

    Fourth-cumulant period integral plus the two covariance-product lag sums
    (auto x auto and cross x reversed-cross).
    """
    report, note = _gate_conditions("sn_general", (k1, k2), None, Delta, model, check, force)
    sigma2, kappa4 = model.cumulants()
    k4_term, diagnostics = _kappa4_term([k1, k2], kappa4, Delta)
    t_auto, t_cross, diag = _cov_product_sums(k1, k2, sigma2, Delta)
    diagnostics.update(diag)
    return VarianceReport(
        eta2=k4_term + t_auto + t_cross,
        kappa4_term=k4_term,
        covariance_terms={"auto_products": t_auto, "cross_products": t_cross},
        diagnostics=diagnostics,
        condition_set="sn_general",
        conditions=report,
        conditions_note=note,
    )


def eta2_qn(
    kernel: Kernel,
    b: CoefficientSeq,
    model: LevyModel,
    Delta: float,
    *,
    check="auto",
    force: bool = False,
) -> VarianceReport:
    """Limit variance of the normalised quadratic form with even weights ``b``.

    Computed two ways: directly (fourth-cumulant period integral plus twice
    the squared lag-sequence norm of the coefficient-convolved covariance) and
    through the bilinear route with the convolved kernel as second factor; the
    second value is stored in ``eta2_alt``.
    """
    report, note = _gate_conditions("qn_general", kernel, b, Delta, model, check, force)
    sigma2, kappa4 = model.cumulants()
    conv = star_conv_kernel(b, kernel, Delta)
    k4_term, diagnostics = _kappa4_term([kernel, conv], kappa4, Delta)

    bsg = b_star_gamma(b, kernel, sigma2, Delta)
    direct = 2.0 * bsg.l2_sq
    diagnostics.update({"bsg_radius": float(bsg.radius), "bsg_l2_tail": bsg.l2_sq_tail, "bsg_capped": float(bsg.capped)})

    t_auto, t_cross, diag = _cov_product_sums(kernel, conv, sigma2, Delta)
    diagnostics.update(diag)

    return VarianceReport(
        eta2=k4_term + direct,
        kappa4_term=k4_term,
        covariance_terms={"weighted_covariance_l2_sq_doubled": direct},
        diagnostics=diagnostics,
        condition_set="qn_general",
        conditions=report,
        conditions_note=note,
        eta2_alt=k4_term + t_auto + t_cross,
    )


def autocov_clt_sigma(
    kernel: Kernel,
    model: LevyModel,
    Delta: float,
    m: int,
    *,
    check="auto",
    force: bool = False,
    lag_radius: int = 512,
) -> np.ndarray:
    """Asymptotic covariance matrix of the first ``m`` scaled sample autocovariances.

    Fourth-cumulant term ``int_0^Delta K(t) K(t)^T dt`` with
    ``K_j(t) = sum_s phi(t + s Delta) phi(t + (s + j) Delta)`` plus the lag sum
    ``sum_s (gamma_s + gamma_{-s}) gamma_s^T``; symmetric positive
    semidefinite up to rounding.
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    _gate_conditions("autocov", kernel, None, Delta, model, check, force)
    sigma2, kappa4 = model.cumulants()

    if kappa4 == 0.0:
        k4_block = np.zeros((m, m))
    else:
        shifted = [LinComboKernel(base=kernel, shifts=(float(-j * Delta),), coeffs=(1.0,)) for j in range(1, m + 1)]
        # one lag range wide enough for the four-factor lattice sum of every pair
        ranges = [lattice_s_range([kernel, ki, kj], Delta) for i, ki in enumerate(shifted) for kj in shifted[i:]]
        s_lo, s_hi = min(r[0] for r in ranges), max(r[1] for r in ranges)
        nodes = np.linspace(0.0, Delta, _NODES_PER_PERIOD + 1)
        # K[j - 1] is K_j at the nodes; int_0^Delta K_i K_j dt by Simpson
        K = [phase_product_sum([kernel, kj], nodes, s_lo, s_hi, Delta) for kj in shifted]
        k4_block = kappa4 * np.array([[_simpson(Ki * Kj, 0.0, Delta) for Kj in K] for Ki in K])

    S = lag_radius
    gam = covariance_lags(kernel, kernel, sigma2, Delta, -(S + m), S + m)
    # G[j - 1, s + S] = gamma(s + j) and R[j - 1, s + S] = gamma(j - s), |s| <= S
    js, ss = np.arange(1, m + 1)[:, None], np.arange(-S, S + 1)[None, :]
    G, R = gam[js + ss + S + m], gam[js - ss + S + m]
    sigma = k4_block + (G + R) @ G.T
    return 0.5 * (sigma + sigma.T)


def expected_sn(k1: Kernel, k2: Kernel, model: LevyModel, Delta: float, n: int) -> float:
    """Exact mean of the bilinear statistic: ``n`` times the lag-0 crosscovariance."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    sigma2, _ = model.cumulants()
    return n * covariance_lags(k1, k2, sigma2, Delta, 0, 0)[0]


def expected_qn(b: CoefficientSeq, kernel: Kernel, model: LevyModel, Delta: float, n: int) -> float:
    """Exact mean of the quadratic form, collapsed to a single lag sum.

    ``E Q_n = n * sum_{|u| < n} (1 - |u|/n) b(u) gamma(u Delta)``; lags whose
    covariance is below the floating floor are dropped.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    sigma2, _ = model.cumulants()
    u_max = n - 1
    if isinstance(b, FiniteSupport):
        u_max = min(u_max, b.radius)
    gam0 = covariance_lags(kernel, kernel, sigma2, Delta, 0, 0)[0]
    total = b.weight(0) * gam0
    floor, dead = abs(gam0) * 1e-18, 0
    for u in range(1, u_max + 1):
        g = covariance_lags(kernel, kernel, sigma2, Delta, u, u)[0]
        total += 2.0 * (1.0 - u / n) * b.weight(u) * g
        dead = dead + 1 if abs(g) < floor else 0
        if dead >= 8:
            break
    return n * total
