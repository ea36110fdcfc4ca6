"""Quadratic forms of discretely sampled Levy-driven moving averages.

Library layout:

* :mod:`cmaqf.levy` -- parametric mean-zero drivers and seeded streams.
* :mod:`cmaqf.kernels` -- moving-average kernels and grid sampling.
* :mod:`cmaqf.covariance` -- star convolution and covariance quadrature.
* :mod:`cmaqf.conditions` -- numerical checks of the limit-theorem assumptions.
* :mod:`cmaqf.variance` -- asymptotic variances and the fourth-moment oracle.
* :mod:`cmaqf.simulate` -- path simulation and the empirical statistics.
* :mod:`cmaqf.montecarlo` -- replicated Gaussian-limit experiments of all four statistics.
* :mod:`cmaqf.inference` -- least-squares projection point, maps and kernel pair.
* :mod:`cmaqf.specs` -- the config schema, read from the dataclasses, and provenance specs.
* :mod:`cmaqf.cli` -- config-driven batch front door.
"""

from .levy import BilateralGamma, BrownianMotion, CompoundPoissonNormal, stream
from .kernels import (
    CarmaKernel,
    ExponentialOU,
    FractionalNoise,
    KernelGrid,
    LinComboKernel,
    PowAbsKernel,
    SddeKernel,
    TabulatedKernel,
    build_carma,
    grid_sample,
)
from .covariance import (
    BStarGamma,
    FiniteSupport,
    PowerDecay,
    autocovariance,
    b_star_gamma,
    covariance_lags,
    crosscovariance,
    star_conv_kernel,
)
from .conditions import CONDITION_SETS, AssumptionCheck, ConditionReport, NormEstimate, check_conditions, lp_norm_sequence
from .variance import VarianceReport, autocov_clt_sigma, eta2_qn, eta2_sn, expected_qn, expected_sn, fourth_moment
from .simulate import (
    PathConfig,
    SamplePath,
    compute_qn,
    compute_sn,
    ls_derivative,
    normalized_statistic,
    sample_autocov,
    simulate_pair,
    simulate_path,
    stochastic_integrals_joint,
)
from .montecarlo import ExperimentConfig, LsSpec, McReport, ks_distance, run_experiment
from .inference import poly_map, yule_walker

__version__ = "0.1.0"
