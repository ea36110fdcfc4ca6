"""Least-squares building blocks for the bilinear limit.

The least-squares objective's derivative at the projection point has the
bilinear shape with two lag-combination kernels, so its normality rides on
the same machinery as ``S_n``.  Its Monte Carlo check, like the
sample-autocovariance contrast's, is an experiment of
:func:`cmaqf.montecarlo.run_experiment` (statistics ``ls_derivative`` and
``autocov_contrast``); this module supplies the projection point, the
polynomial maps and the kernel pair.
"""

from __future__ import annotations

import numpy as np

from .covariance import covariance_lags
from .errors import ParameterError, _check_positive
from .kernels import Kernel, LinComboKernel
from .levy import LevyModel

__all__ = ["yule_walker", "ls_kernel_pair", "poly_map"]


def yule_walker(kernel: Kernel, model: LevyModel, delta: float, k: int) -> np.ndarray:
    """Coefficients of the best linear predictor of ``X_{(k+1) delta}`` from the
    previous ``k`` sampled values (Toeplitz solve)."""
    import scipy.linalg  # loaded on first use, so ``import cmaqf`` stays numpy only

    if k < 1:
        raise ParameterError("k must be >= 1")
    sigma2, _ = model.cumulants()
    gam = covariance_lags(kernel, kernel, sigma2, delta, 0, k)
    col = gam[:k]
    rhs = gam[1 : k + 1]
    return scipy.linalg.solve_toeplitz((col, col), rhs)


def poly_map(coeff_rows) -> tuple:
    """Build ``(v, vp)`` callables from polynomial coefficient rows.

    Row ``j`` holds the ascending coefficients of the polynomial giving
    component ``j`` of ``v(theta)``; derivatives are taken termwise.
    """
    rows = [np.asarray(r, dtype=float) for r in coeff_rows]

    def v(theta: float) -> np.ndarray:
        return np.array([np.polynomial.polynomial.polyval(theta, r) for r in rows])

    def vp(theta: float) -> np.ndarray:
        return np.array([np.polynomial.polynomial.polyval(theta, np.polynomial.polynomial.polyder(r)) for r in rows])

    return v, vp


def ls_kernel_pair(kernel: Kernel, v, vp, theta0: float, k: int, delta: float) -> tuple[Kernel, Kernel]:
    """The two lag-combination kernels whose bilinear form is the objective derivative.

    First factor ``-phi(t) + sum_j v_j phi(t - j delta)``, second
    ``sum_j 2 vp_j phi(t - j delta)``.
    """
    _check_positive("Delta", delta)
    vv = np.atleast_1d(np.asarray(v(theta0), dtype=float))
    vpv = np.atleast_1d(np.asarray(vp(theta0), dtype=float))
    if len(vv) != k or len(vpv) != k:
        raise ParameterError(f"v(theta0) and vp(theta0) must have length k = {k}")
    shifts1 = (0.0,) + tuple(j * delta for j in range(1, k + 1))
    coeffs1 = (-1.0,) + tuple(float(c) for c in vv)
    shifts2 = tuple(j * delta for j in range(1, k + 1))
    coeffs2 = tuple(2.0 * float(c) for c in vpv)
    return (
        LinComboKernel(base=kernel, shifts=shifts1, coeffs=coeffs1),
        LinComboKernel(base=kernel, shifts=shifts2, coeffs=coeffs2),
    )
