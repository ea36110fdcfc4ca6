"""Asymptotic variances of the sampled bilinear and quadratic statistics.

Every limit variance computed here has the same anatomy: a fourth-cumulant
term (a period integral of lattice sums through quadrature's one piece loop)
plus covariance-product lag sums.  The quadratic-form variance is computed twice,
once directly from its weighted-covariance form and once as the bilinear reduction of
the same sum, with the coefficient-convolved kernel as second factor.  The two agree to
near machine precision for finite weights; for power weights the bilinear route cuts ``b`` at
the star radius R (64 for OU) and reads ~R^-2 low (5.97e-5 relative for OU with ``|s|^-1.5``).

:func:`fourth_moment` is the moment oracle for products of four stochastic
integrals.  It integrates grid values with the left-endpoint cell rule, the
same discretisation the path simulator uses, so its Monte Carlo cross-check
compares identical discretised objects (and is exact for cell-aligned
indicator kernels).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields

import numpy as np

from .conditions import ConditionReport, check_conditions
from .covariance import (
    CoefficientSeq,
    FiniteSupport,
    _bsg_exponent,
    _lag_start,
    b_star_gamma,
    covariance_lags,
    star_conv_kernel,
)
from .errors import ConditionsRefutedError, ParameterError
from .kernels import Kernel, KernelGrid, grid_cells
from .levy import LevyModel
from .quadrature import lag_gram, phase_integral
from .tails import grow_lags

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
    driver.  ``eta2_alt`` carries the quadratic form's bilinear reduction of the same sum, with ``b`` cut
    at the star radius R (~R^-2 low for power weights), when one exists.
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
        """Every field, shallow copies, with ``conditions`` by its own ``to_dict`` and left out when ``None``."""
        out = {f.name: copy.copy(getattr(self, f.name)) for f in fields(self) if f.name != "conditions"}
        if self.conditions is not None:
            out["conditions"] = self.conditions.to_dict()
        return out


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
        if check.condition_set != condition_set:
            raise ParameterError(f"check reports {check.condition_set!r} conditions, not {condition_set!r}")
        report = check
    elif check == "auto":
        report = check_conditions(condition_set, kernels, b=b, Delta=Delta, model=model)
    else:
        raise ParameterError(f"check must be 'auto', 'skip' or a ConditionReport, got {check!r}")
    if report.overall == "refuted":
        if not force:
            raise ConditionsRefutedError(
                f"{condition_set} conditions refuted; to compute anyway pass force=True (eta2_*), "
                "check='skip' (autocov_clt_sigma), conditions='waive' (an experiment) or --force (the CLI)"
            )
        return report, "overridden (refuted)"
    if report.overall == "indeterminate":
        return report, "conditions unverified (indeterminate)"
    return report, "supported"


# ---------------------------------------------------------------------------
# covariance-product lag sums
# ---------------------------------------------------------------------------


def _cov_product_sums(k1, k2, sigma2, Delta):
    """Auto and cross covariance-product lag sums, with their truncation diagnostics."""

    def rows_at(S):
        g11 = covariance_lags(k1, k1, sigma2, Delta, -S, S)
        g22 = covariance_lags(k2, k2, sigma2, Delta, -S, S)
        g12 = covariance_lags(k1, k2, sigma2, Delta, -S, S)
        return g11 * g22, g12 * g12[::-1]

    lag = grow_lags(rows_at, p=1, rel_tol=1e-9, cap=2**14, start=_lag_start([(k1, k1), (k2, k2), (k1, k2)], Delta))
    t_auto, t_cross = lag.heads
    return t_auto, t_cross, {"cov_radius": float(lag.radius), "cov_tail_bound": lag.bracket, "cov_capped": float(lag.capped)}


# ---------------------------------------------------------------------------
# limit variances
# ---------------------------------------------------------------------------


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
    k4_term, diagnostics = 0.0, {}
    if kappa4 != 0.0:
        ph = phase_integral([k1, k2], Delta)
        k4_term = kappa4 * ph.value
        diagnostics = {"phase_disc_estimate": ph.disc_estimate, "phase_tail_bound": ph.tail_bound}
    t_auto, t_cross, diag = _cov_product_sums(k1, k2, sigma2, Delta)
    diagnostics.update(diag)
    return VarianceReport(
        eta2=k4_term + (t_auto + t_cross),  # equals kappa4_term + sum(covariance_terms) exactly
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
    through the bilinear route, :func:`eta2_sn` with the convolved kernel as
    second factor; the second value is stored in ``eta2_alt``.
    """
    report, note = _gate_conditions("qn_general", kernel, b, Delta, model, check, force)
    _bsg_exponent(b, kernel)  # refuse a divergent b * gamma before the slow lag sums
    conv = star_conv_kernel(b, kernel, Delta)
    bilinear = eta2_sn(kernel, conv, model, Delta, check="skip")
    bsg = b_star_gamma(b, kernel, model.cumulants()[0], Delta)
    direct = 2.0 * bsg.l2_sq
    diagnostics = {**bilinear.diagnostics, "bsg_radius": float(bsg.radius), "bsg_l2_tail": bsg.l2_sq_tail,
                   "bsg_capped": float(bsg.capped)}
    return VarianceReport(
        eta2=bilinear.kappa4_term + direct,
        kappa4_term=bilinear.kappa4_term,
        covariance_terms={"weighted_covariance_l2_sq_doubled": direct},
        diagnostics=diagnostics,
        condition_set="qn_general",
        conditions=report,
        conditions_note=note,
        eta2_alt=bilinear.eta2,
    )


def autocov_clt_sigma(
    kernel: Kernel,
    model: LevyModel,
    Delta: float,
    m: int,
    *,
    check="auto",
    lag_radius: int = 512,
) -> np.ndarray:
    """Asymptotic covariance matrix of the first ``m`` scaled sample autocovariances.

    Fourth-cumulant term ``int_0^Delta K(t) K(t)^T dt`` with
    ``K_j(t) = sum_s phi(t + s Delta) phi(t + (s + j) Delta)`` (:func:`~cmaqf.quadrature.lag_gram`), plus the lag sum
    ``sum_s (gamma_s + gamma_{-s}) gamma_s^T``; symmetric positive
    semidefinite up to rounding.  A refuted condition check raises.

    The lag sum runs over ``|s| <= lag_radius`` only, with no tail bound: for
    ``FractionalNoise(0.1)``, a Brownian driver and ``m = 4`` the diagonal
    moves by 1.0e-3 to 1.1e-3 relative between radius 512 and 2048.
    """
    if m < 1 or lag_radius < 0:
        raise ParameterError(f"m must be >= 1 and lag_radius >= 0, got m = {m}, lag_radius = {lag_radius}")
    _gate_conditions("autocov", kernel, None, Delta, model, check, False)
    sigma2, kappa4 = model.cumulants()

    k4_block = kappa4 * lag_gram(kernel, m, Delta) if kappa4 != 0.0 else np.zeros((m, m))
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

    ``E Q_n = n * sum_{|u| < n} (1 - |u|/n) b(u) gamma(u Delta)``.  A finite
    support is summed whole; power-decay weights are summed to the first
    radius of :func:`~cmaqf.tails.grow_lags` whose fitted tail is below
    rounding (``1e-16`` relative), or to ``n - 1``.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    sigma2, _ = model.cumulants()
    u_max = min(n - 1, b.radius) if isinstance(b, FiniteSupport) else n - 1

    def rows_at(S):
        gam = np.zeros(S + 1)  # zero past u_max
        gam[: min(S, u_max) + 1] = covariance_lags(kernel, kernel, sigma2, Delta, 0, min(S, u_max))
        u = np.abs(np.arange(-S, S + 1))
        return ((1.0 - u / n) * b.weight(u) * gam[u],)

    if isinstance(b, FiniteSupport):  # whole: a fitted tail cannot see weights past a run of zero weights
        return n * float(np.sum(rows_at(u_max)[0]))
    return n * grow_lags(rows_at, p=1, rel_tol=1e-16, cap=u_max).heads[0]
