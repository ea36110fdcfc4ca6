import math
from dataclasses import replace

import numpy as np
import pytest

from cmaqf import variance
from cmaqf.conditions import AssumptionCheck, ConditionReport
from cmaqf.inference import ls_kernel_pair, poly_map, yule_walker
from cmaqf.errors import ConditionsRefutedError, ParameterError
from cmaqf.kernels import ExponentialOU
from cmaqf.levy import BrownianMotion, CompoundPoissonNormal
from cmaqf.montecarlo import ExperimentConfig, LsSpec, run_experiment
from cmaqf.variance import autocov_clt_sigma, eta2_sn


def test_yule_walker_order_one_is_lag_one_autocorrelation():
    theta = yule_walker(ExponentialOU(1.0), BrownianMotion(2.0), 1.0, 1)
    assert theta.shape == (1,)
    assert theta[0] == pytest.approx(math.exp(-1.0), rel=1e-8)


def test_yule_walker_matches_dense_solve():
    kernel, model = ExponentialOU(1.3), CompoundPoissonNormal(1.0, 1.0)
    k = 3
    coef = yule_walker(kernel, model, 1.0, k)
    from cmaqf.covariance import covariance_lags

    gam = covariance_lags(kernel, kernel, 1.0, 1.0, 0, k, base_step=1 / 256)
    G = np.array([[gam[abs(i - j)] for j in range(k)] for i in range(k)])
    rhs = gam[1 : k + 1]
    assert np.allclose(coef, np.linalg.solve(G, rhs), rtol=1e-10)


def test_poly_map_values_and_derivatives():
    v, vp = poly_map([[0.0, 1.0], [1.0, 0.0, 2.0]])  # (theta, 1 + 2 theta^2)
    assert np.allclose(v(0.5), [0.5, 1.5])
    assert np.allclose(vp(0.5), [1.0, 2.0])


def test_ls_kernel_pair_shapes():
    v, vp = poly_map([[0.0, 1.0]])
    k1, k2 = ls_kernel_pair(ExponentialOU(1.0), v, vp, 0.3, 1, 1.0)
    # first factor: -phi(t) + theta0 phi(t - Delta); second: 2 phi(t - Delta)
    t = np.array([0.5, 1.5, 3.0])
    ou = ExponentialOU(1.0)
    assert np.allclose(k1.eval(t), -ou.eval(t) + 0.3 * ou.eval(t - 1.0))
    assert np.allclose(k2.eval(t), 2.0 * ou.eval(t - 1.0))


def test_autocov_contrast_calibrates_and_reports_centering():
    cfg = ExperimentConfig(
        statistic="autocov_contrast", kernel=ExponentialOU(1.0), model=BrownianMotion(2.0), delta=1.0,
        lags=1, contrast=(1.0,), n=1000, replicates=300, seed=6,
    )
    rep = run_experiment(cfg, threads=4)
    assert rep.conditions_note.startswith("autocov conditions supported; centering")
    assert 0.75 < rep.variance_ratio < 1.25
    assert abs(rep.extra["centering_shift"]) <= rep.extra["centering_shift_bound"]
    sig = autocov_clt_sigma(ExponentialOU(1.0), BrownianMotion(2.0), 1.0, 1)
    assert rep.eta2 == pytest.approx(float(sig[0, 0]), rel=1e-12)


AUTOCOV_GATED = {"autocov_contrast": {"lags": 1, "contrast": (1.0,)}, "ls_derivative": {"ls": LsSpec()}}


@pytest.mark.parametrize("statistic", sorted(AUTOCOV_GATED))
def test_autocov_gated_experiments_run_one_check_and_name_its_verdict(monkeypatch, statistic):
    cfg = ExperimentConfig(
        statistic=statistic, kernel=ExponentialOU(1.0), model=BrownianMotion(1.0), delta=1.0,
        n=50, replicates=10, seed=0, **AUTOCOV_GATED[statistic],
    )
    calls, verdict = [], "indeterminate"

    def stub(condition_set, *args, **kwargs):
        calls.append(condition_set)
        return ConditionReport(condition_set, {}, (AssumptionCheck(name="stub", verdict=verdict),))

    monkeypatch.setattr(variance, "check_conditions", stub)
    rep = run_experiment(cfg)
    assert calls == ["autocov"]
    assert rep.conditions_note.startswith("autocov conditions indeterminate")
    verdict = "refuted"
    with pytest.raises(ConditionsRefutedError):
        run_experiment(cfg)
    waived = run_experiment(replace(cfg, conditions="waive"))
    assert calls == ["autocov", "autocov"]
    assert waived.conditions_note.startswith("unverified (check skipped)")


def test_autocov_contrast_calibrates_with_kappa4_block():
    # The kappa4 block is about a quarter of eta2 = 0.351 here, so dropping it would
    # read a variance ratio near 1.34; the delta-method standard error of the ratio
    # is about 0.045, so the bounds below sit about 4.4 standard errors out.
    model = CompoundPoissonNormal(1.0, 1.0)
    contrast = (1.0, -0.5)
    cfg = ExperimentConfig(
        statistic="autocov_contrast", kernel=ExponentialOU(1.0), model=model, delta=1.0,
        lags=2, contrast=contrast, n=1000, replicates=1000, seed=8,
    )
    rep = run_experiment(cfg, threads=2)
    a = np.array(contrast)
    sig = autocov_clt_sigma(ExponentialOU(1.0), model, 1.0, 2)
    assert rep.eta2 == pytest.approx(float(a @ sig @ a), rel=1e-12)
    assert 0.8 < rep.variance_ratio < 1.2, f"variance ratio {rep.variance_ratio}"


def test_contrast_scaling_bilinearity():
    common = dict(
        statistic="autocov_contrast", kernel=ExponentialOU(1.0), model=BrownianMotion(2.0), delta=1.0,
        lags=1, n=400, replicates=80, seed=3,
    )
    r1 = run_experiment(ExperimentConfig(contrast=(1.0,), **common))
    r2 = run_experiment(ExperimentConfig(contrast=(2.0,), **common))
    assert r2.eta2 == pytest.approx(4.0 * r1.eta2, rel=1e-12)
    assert np.allclose(r2.statistics, 2.0 * r1.statistics, rtol=1e-12)
    assert r2.ks == pytest.approx(r1.ks, abs=1e-12)


def test_cramer_wold_parallelogram_on_sigma():
    sig = autocov_clt_sigma(ExponentialOU(1.0), CompoundPoissonNormal(1.0, 1.0), 1.0, 3)
    rng = np.random.default_rng(0)
    a = rng.standard_normal(3)
    b = rng.standard_normal(3)
    v = lambda x: float(x @ sig @ x)
    assert v(a + b) + v(a - b) == pytest.approx(2 * v(a) + 2 * v(b), rel=1e-12)


def test_ls_clt_mean_zero_at_projection_point():
    cfg = ExperimentConfig(
        statistic="ls_derivative", kernel=ExponentialOU(1.0), model=BrownianMotion(2.0), delta=1.0,
        n=1000, replicates=300, seed=14, ls=LsSpec(),
    )
    rep = run_experiment(cfg, threads=4)
    se = math.sqrt(rep.eta2 / rep.replicates)
    assert abs(rep.mean) < 4 * se
    assert 0.75 < rep.variance_ratio < 1.25
    assert rep.extra["theta0"] == pytest.approx(math.exp(-1.0), rel=1e-8)


def test_ls_clt_brownian_eta2_has_no_kappa4_term():
    v, vp = poly_map([[0.0, 1.0]])
    theta0 = math.exp(-1.0)
    k1, k2 = ls_kernel_pair(ExponentialOU(1.0), v, vp, theta0, 1, 1.0)
    rep = eta2_sn(k1, k2, BrownianMotion(2.0), 1.0, check="skip")
    assert rep.kappa4_term == 0.0
    repc = eta2_sn(k1, k2, CompoundPoissonNormal(1.0, 1.0), 1.0, check="skip")
    assert repc.kappa4_term > 0.0


def test_ls_clt_degenerate_derivative_map():
    v, vp = poly_map([[0.0, 1.0]])
    vp0 = lambda th: np.array([0.0])
    cfg = ExperimentConfig(
        statistic="ls_derivative", kernel=ExponentialOU(1.0), model=BrownianMotion(1.0), delta=1.0,
        n=50, replicates=10, seed=0, ls=LsSpec(v=v, vp=vp0, theta0=0.5),
    )
    rep = run_experiment(cfg)
    assert rep.degenerate
    assert np.all(rep.statistics == 0.0)


def test_experiment_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig(
            statistic="autocov_contrast", kernel=ExponentialOU(1.0), model=BrownianMotion(1.0), delta=1.0,
            lags=9, contrast=(1.0,) * 9, n=10, replicates=5,
        )
    with pytest.raises(ParameterError):
        LsSpec(k=2)
    v, vp = poly_map([[0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ParameterError):
        LsSpec(v=v, vp=vp, k=2)
