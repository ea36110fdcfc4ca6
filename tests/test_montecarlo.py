import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from cmaqf.covariance import FiniteSupport
from cmaqf.errors import ParameterError
from cmaqf.kernels import ExponentialOU
from cmaqf.levy import BrownianMotion, CompoundPoissonNormal
from cmaqf.montecarlo import ExperimentConfig, _normal_cdf, ks_distance, run_experiment
from cmaqf.simulate import PathConfig


def test_ks_quantile_construction():
    R = 999
    samples = norm.ppf(np.arange(1, R + 1) / (R + 1))
    assert ks_distance(samples, 1.0) <= 1.0 / (R + 1) + 1e-9


def test_ks_point_mass():
    assert ks_distance(np.zeros(2), 1.0) == pytest.approx(0.5, abs=1e-12)


def test_ks_matched_scaling_invariance():
    xs = np.random.default_rng(0).normal(size=400)
    c = 2.5
    assert ks_distance(xs, 1.0) == ks_distance(c * xs, c**2)


def test_normal_cdf_matches_ndtr_to_the_last_bit_in_absolute_terms():
    # both branch edges |x| = 1 with their neighbours, 0, and a grid over +-40 into the underflow
    edges = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
    xs = np.concatenate([np.linspace(-40.0, 40.0, 80_001), [0.0], edges, np.negative(edges)])
    cdf = np.array([_normal_cdf(x) for x in xs.tolist()])
    assert np.max(np.abs(cdf - ndtr(xs))) <= 2.3e-16


def test_ks_validation():
    with pytest.raises(ParameterError):
        ks_distance(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(ParameterError):
        ks_distance(np.array([]), 1.0)


def test_config_validation():
    ou = ExponentialOU(1.0)
    bm = BrownianMotion(1.0)
    with pytest.raises(ParameterError):
        ExperimentConfig(statistic="qn", kernel=ou, model=bm, delta=1.0, n=10, replicates=4)  # b missing
    with pytest.raises(ParameterError):
        ExperimentConfig(statistic="sn", kernel=ou, model=bm, delta=1.0, n=10, replicates=1)
    with pytest.raises(ParameterError):
        ExperimentConfig(statistic="bogus", kernel=ou, model=bm, delta=1.0, n=10, replicates=4)
    with pytest.raises(ParameterError):
        ExperimentConfig(statistic="sn", kernel=ou, model=bm, delta=1.0, n=10, replicates=4, seed=-1)
    with pytest.raises(ParameterError):
        ExperimentConfig(
            statistic="autocov_contrast", kernel=ou, model=bm, delta=1.0, n=10, replicates=4,
            contrast=(0.0,), lags=1,
        )


def test_config_checks_path_geometry_when_built():
    # these used to pass construction and fail in replicate 0, after the whole set-up
    ou, bm = ExponentialOU(1.0), BrownianMotion(1.0)
    with pytest.raises(ParameterError, match="fine_steps"):
        ExperimentConfig(statistic="sn", kernel=ou, model=bm, delta=1.0, n=10, replicates=4, fine_steps=0)
    with pytest.raises(ParameterError, match="horizon"):
        ExperimentConfig(statistic="sn", kernel=ou, model=bm, delta=1.0, n=10, replicates=4, horizon=1.5)


@pytest.mark.parametrize("budget", [-1.0, 0.0, math.nan, math.inf])
def test_config_requires_a_finite_positive_tail_mass_budget(budget):
    # a budget of -1 or 0 was taken, and every path then failed as a truncation (CLI exit 4)
    ou, bm = ExponentialOU(1.0), BrownianMotion(1.0)
    with pytest.raises(ParameterError, match="tail_mass_budget must be finite and > 0"):
        PathConfig(delta=1.0, n=10, tail_mass_budget=budget)
    with pytest.raises(ParameterError, match="tail_mass_budget must be finite and > 0"):
        ExperimentConfig(statistic="sn", kernel=ou, model=bm, delta=1.0, n=10, replicates=4, tail_mass_budget=budget)


@pytest.mark.parametrize("horizon", [math.nan, math.inf])
def test_config_rejects_a_horizon_that_is_not_finite(horizon):
    # round() of the horizon's ratio to delta raised OverflowError or ValueError
    with pytest.raises(ParameterError, match="horizon must be finite and > 0"):
        PathConfig(delta=1.0, n=10, horizon=horizon)


def test_sn_experiment_matches_limit_at_moderate_scale():
    cfg = ExperimentConfig(
        statistic="sn", kernel=ExponentialOU(1.0), model=BrownianMotion(2.0),
        delta=1.0, n=1000, replicates=400, seed=11,
    )
    rep = run_experiment(cfg, threads=4)
    assert 0.8 < rep.variance_ratio < 1.2
    assert abs(rep.mean) < 4 * math.sqrt(rep.eta2 / rep.replicates)
    assert rep.ks < 0.1
    assert not rep.degenerate


def test_qn_delta0_replicates_equal_sn_replicates():
    common = dict(kernel=ExponentialOU(1.0), model=CompoundPoissonNormal(1.0, 1.0), delta=1.0, n=300, replicates=50, seed=4)
    sn = run_experiment(ExperimentConfig(statistic="sn", **common))
    qn = run_experiment(ExperimentConfig(statistic="qn", b=FiniteSupport.delta0(), **common))
    assert np.array_equal(sn.statistics, qn.statistics)


def test_two_seeds_differ_but_both_calibrate():
    base = dict(statistic="sn", kernel=ExponentialOU(1.0), model=BrownianMotion(2.0), delta=1.0, n=800, replicates=300)
    r1 = run_experiment(ExperimentConfig(seed=1, **base), threads=4)
    r2 = run_experiment(ExperimentConfig(seed=2, **base), threads=4)
    assert not np.array_equal(r1.statistics, r2.statistics)
    for r in (r1, r2):
        assert 0.8 < r.variance_ratio < 1.2


def test_thread_count_does_not_change_results():
    cfg = ExperimentConfig(
        statistic="qn", kernel=ExponentialOU(1.0), model=BrownianMotion(2.0),
        b=FiniteSupport(values=(0.0, 1.0)), delta=1.0, n=200, replicates=60, seed=8,
    )
    a = run_experiment(cfg, threads=1)
    b = run_experiment(cfg, threads=8)
    assert np.array_equal(a.statistics, b.statistics)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize(
    "extra",
    [
        dict(statistic="qn", model=CompoundPoissonNormal(1.0, 1.0), b=FiniteSupport(values=(0.0, 1.0, 0.5))),
        dict(statistic="sn", model=BrownianMotion(1.0), kernel2=ExponentialOU(0.5)),
    ],
    ids=["qn_compound_poisson", "sn_pair"],
)
def test_thread_count_invariance_beyond_brownian_qn(extra):
    cfg = ExperimentConfig(kernel=ExponentialOU(1.0), delta=1.0, n=300, replicates=24, seed=5, **extra)
    reports = [run_experiment(cfg, threads=t) for t in (1, 2, 4)]
    for rep in reports[1:]:
        assert np.array_equal(rep.statistics, reports[0].statistics)
        assert rep.to_dict() == reports[0].to_dict()


def test_ks_shrinks_with_sample_length():
    # finite-n footprint of the limit: median KS over seed groups falls as n grows
    def median_ks(n, seeds, reps=150):
        vals = []
        for s in seeds:
            cfg = ExperimentConfig(
                statistic="sn", kernel=ExponentialOU(1.0), model=CompoundPoissonNormal(1.0, 1.0),
                delta=1.0, n=n, replicates=reps, seed=s,
            )
            vals.append(run_experiment(cfg, threads=4).ks)
        return float(np.median(vals))

    seeds = (101, 102, 103, 104, 105)
    assert median_ks(1024, seeds) < median_ks(16, seeds)
