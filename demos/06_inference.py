"""Sample autocovariances and least-squares estimation ride the same limit.

The scaled sample autocovariance vector converges to a centered Gaussian with
an explicitly computable covariance matrix, and the derivative of the
least-squares objective at the projection point is asymptotically normal --
both are instances of the bilinear statistic machinery, and both run as
experiments of the same engine as S_n and Q_n.
"""

import math
import os

import numpy as np

from cmaqf import ExperimentConfig, LsSpec, autocov_clt_sigma, run_experiment, yule_walker
from cmaqf.kernels import ExponentialOU
from cmaqf.levy import BrownianMotion

threads = os.cpu_count() or 1
kernel, model = ExponentialOU(1.0), BrownianMotion(2.0)

print("== Limit covariance matrix of the first three scaled sample autocovariances")
sigma = autocov_clt_sigma(kernel, model, 1.0, 3)
print(np.array_str(sigma, precision=5))
print(f"   eigenvalues: {np.round(np.linalg.eigvalsh(sigma), 5)} (positive semidefinite)")

print("\n== Contrast experiment at lag 1")
common = dict(kernel=kernel, model=model, delta=1.0, n=1500, replicates=400)
cfg = ExperimentConfig(statistic="autocov_contrast", contrast=(1.0,), seed=2, **common)
rep = run_experiment(cfg, threads=threads)
print(f"   target variance {rep.eta2:.5f}, empirical ratio {rep.variance_ratio:.3f}, KS {rep.ks:.3f}")
print(f"   exact finite-n centering shift per replicate: {rep.extra['centering_shift']:+.5f}")

print("\n== Least-squares derivative at the projection point")
theta0 = yule_walker(kernel, model, 1.0, 1)[0]
print(f"   projection coefficient: {theta0:.6f} (lag-1 autocorrelation e^-1 = {math.exp(-1):.6f})")
# LsSpec() is the identity map v(theta) = theta expanded at the lag-1 Yule-Walker value
rep = run_experiment(ExperimentConfig(statistic="ls_derivative", ls=LsSpec(), seed=3, **common), threads=threads)
print(f"   replicate mean {rep.mean:+.4f} (should vanish), variance ratio {rep.variance_ratio:.3f}")
