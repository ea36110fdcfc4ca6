"""Each reference against the library on a tiny case, and the gates on synthetic samples."""

import numpy as np
import pytest

import cmaqf
import oracles

CARMA = ((2.0, -1.0), (1.0, 2.0))  # build_carma((3, 2), (3, 1), 1) = 2 e^-t - e^-2t
OU_HALF = ((1.0,), (0.5,))


def test_exp_sum_crosscov_matches_quadrature():
    k1, k2 = cmaqf.build_carma((3.0, 2.0), (3.0, 1.0), 1), cmaqf.ExponentialOU(0.5)
    for h in (-2.0, 0.0, 1.5):
        ref = float(oracles.exp_sum_crosscov(*CARMA, *OU_HALF, 1.3, h))
        assert cmaqf.crosscovariance(k1, k2, 1.3, h, base_step=1.0 / 256.0) == pytest.approx(ref, rel=1e-9)
    assert cmaqf.autocovariance(cmaqf.ExponentialOU(1.7), 2.0, 3.0, base_step=1.0 / 256.0) == pytest.approx(
        float(oracles.ou_autocov(1.7, 2.0, 3.0)), rel=1e-9
    )


def test_fractional_noise_autocov_matches_quadrature():
    lib = cmaqf.covariance_lags(cmaqf.FractionalNoise(0.1), cmaqf.FractionalNoise(0.1), 1.0, 1.0, 0, 3,
                                base_step=1.0 / 256.0)
    assert lib == pytest.approx(oracles.fractional_noise_autocov(0.1, 1.0, np.arange(4)), rel=1e-6)


def test_qn_eta2_matches_library_on_ou_with_finite_weights():
    rep = cmaqf.eta2_qn(cmaqf.ExponentialOU(1.0), cmaqf.FiniteSupport((0.5, 1.0)),
                        cmaqf.CompoundPoissonNormal(2.0, 0.5), 1.0, check="skip")
    ref = oracles.qn_eta2_ou_finite(1.0, 1.0, 3.0 * 2.0 * 0.25, (0.5, 1.0))
    assert rep.eta2 == pytest.approx(ref, rel=1e-8)


def test_sn_eta2_matches_library_on_exponential_sums():
    rep = cmaqf.eta2_sn(cmaqf.build_carma((3.0, 2.0), (3.0, 1.0), 1), cmaqf.ExponentialOU(0.5),
                        cmaqf.BrownianMotion(1.0), 1.0, check="skip")
    assert rep.eta2 == pytest.approx(oracles.sn_eta2_exp_sums(*CARMA, *OU_HALF, 1.0), rel=1e-8)


def test_power_weighted_l2_matches_library_on_fast_decay():
    b = cmaqf.PowerDecay(1.0, 3.0, 0.5)
    bsg = cmaqf.b_star_gamma(b, cmaqf.ExponentialOU(1.0), 1.0, 1.0, base_step=1.0 / 256.0)
    ref = oracles.power_weighted_l2_doubled(1.0, 1.0, 1.0, 3.0, 0.5, log2_lags=14)
    assert 2.0 * bsg.l2_sq == pytest.approx(ref, rel=1e-7)


def test_autocov_sigma_matches_library_for_brownian_ou():
    sigma = cmaqf.autocov_clt_sigma(cmaqf.ExponentialOU(1.0), cmaqf.BrownianMotion(1.0), 1.0, 2,
                                    check="skip", lag_radius=64)
    ref = oracles.autocov_sigma_brownian(lambda h: oracles.ou_autocov(1.0, 1.0, h), 2, 64)
    assert sigma == pytest.approx(ref, rel=1e-8)


def test_mc_gates_pass_a_matching_sample_and_fail_wrong_ones():
    rng = np.random.default_rng(0)
    x = rng.normal(scale=2.0, size=2000)
    good = oracles.mc_gates(x, 4.0)
    assert good["mean_ok"] and good["variance_ok"] and good["ks_ok"]
    assert not oracles.mc_gates(x, 8.0)["variance_ok"]
    assert not oracles.mc_gates(x, 8.0)["ks_ok"]
    assert not oracles.mc_gates(x + 1.0, 4.0)["mean_ok"]


def test_ks_critical_matches_the_tabulated_asymptotic_value():
    assert oracles.ks_critical(10**8) * 10**4 == pytest.approx(1.9495, abs=1e-4)
