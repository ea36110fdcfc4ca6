import itertools
import math

import numpy as np
import pytest

from cmaqf.conditions import AssumptionCheck, ConditionReport, check_conditions
from cmaqf.covariance import FiniteSupport, covariance_lags
from cmaqf.errors import ConditionsRefutedError, GridError, ParameterError
from cmaqf.kernels import ExponentialOU, FractionalNoise, LinComboKernel, TabulatedKernel, grid_sample
from cmaqf import variance
from cmaqf.levy import BilateralGamma, BrownianMotion, CompoundPoissonNormal, stream
from cmaqf.quadrature import lattice_s_range, phase_integral
from cmaqf.simulate import stochastic_integrals_joint
from cmaqf.variance import autocov_clt_sigma, eta2_qn, eta2_sn, expected_qn, expected_sn, fourth_moment


def box_grid(a, b, step=0.125, horizon=4.0):
    """Grid of the indicator of [a, b) on cell edges (node at b is 0)."""
    ts = np.arange(-int(horizon / step), int(horizon / step) + 1) * step
    vals = ((ts >= a) & (ts < b)).astype(float)
    kernel = TabulatedKernel(t0=float(ts[0]), step=step, values=vals)
    return grid_sample(kernel, 1.0, int(round(1.0 / step)), horizon)


def geometric_eta2(sigma2, lam, Delta):
    """sum_s gamma(s Delta)^2 doubled, gamma(h) = sigma2 e^{-lam h} / (2 lam)."""
    g0 = sigma2 / (2 * lam)
    q = math.exp(-2 * lam * Delta)
    return 2.0 * g0**2 * (1 + q) / (1 - q)


def kappa4_phase_ou(lam, Delta):
    """int_0^Delta (sum_{s>=0} e^{-2 lam (t + s Delta)})^2 dt in closed form."""
    return (1 - math.exp(-4 * lam * Delta)) / (4 * lam * (1 - math.exp(-2 * lam * Delta)) ** 2)


# ---------------------------------------------------------------------------
# fourth_moment
# ---------------------------------------------------------------------------


def test_fourth_moment_indicator_brownian_isserlis():
    g = box_grid(0.0, 1.0)
    assert fourth_moment(g, g, g, g, BrownianMotion(1.0)) == pytest.approx(3.0, abs=1e-12)


def test_fourth_moment_indicator_compound_poisson():
    g = box_grid(0.0, 1.0)
    # kappa4 * 1 + 3 sigma4 = 3 + 3
    assert fourth_moment(g, g, g, g, CompoundPoissonNormal(1.0, 1.0)) == pytest.approx(6.0, abs=1e-12)


def test_fourth_moment_disjoint_supports():
    g01 = box_grid(0.0, 1.0)
    g23 = box_grid(2.0, 3.0)
    # only the (1,3)x(2,4) pairing survives
    assert fourth_moment(g01, g23, g01, g23, BrownianMotion(1.0)) == pytest.approx(1.0, abs=1e-12)
    assert fourth_moment(g01, g23, g23, g01, BrownianMotion(1.0)) == pytest.approx(1.0, abs=1e-12)
    assert fourth_moment(g01, g01, g23, g23, BrownianMotion(1.0)) == pytest.approx(1.0, abs=1e-12)


def test_fourth_moment_collapse_identity():
    g = grid_sample(ExponentialOU(1.0), 1.0, 16, 16.0)
    model = CompoundPoissonNormal(2.0, 0.5)
    sigma2, kappa4 = model.cumulants()
    cells = g.values[:-1]
    l2 = g.step * float(np.sum(cells**2))
    l4 = g.step * float(np.sum(cells**4))
    expect = kappa4 * l4 + 3 * sigma2**2 * l2**2
    assert fourth_moment(g, g, g, g, model) == pytest.approx(expect, rel=1e-14)


def test_fourth_moment_permutation_invariant():
    g1 = box_grid(0.0, 1.0)
    g2 = box_grid(0.5, 1.5)
    g3 = grid_sample(ExponentialOU(1.0), 1.0, 8, 4.0)
    g4 = box_grid(1.0, 2.5)
    model = BilateralGamma(2.0, 1.0)
    base = fourth_moment(g1, g2, g3, g4, model)
    for perm in itertools.permutations((g1, g2, g3, g4)):
        assert fourth_moment(*perm, model) == pytest.approx(base, rel=1e-12)


def test_fourth_moment_grid_mismatch():
    g1 = box_grid(0.0, 1.0, horizon=4.0)
    g2 = box_grid(0.0, 1.0, horizon=8.0)
    with pytest.raises(GridError):
        fourth_moment(g1, g1, g1, g2, BrownianMotion(1.0))


def test_fourth_moment_monte_carlo_consistency():
    # empirical mean of the product of four joint stochastic integrals
    g1 = box_grid(0.0, 1.0)
    g2 = box_grid(1.0, 2.0)
    model = CompoundPoissonNormal(1.0, 1.0)
    target = fourth_moment(g1, g2, g1, g2, model)
    n = 200_000
    i1, i2, i3, i4 = stochastic_integrals_joint((g1, g2, g1, g2), model, n, stream(17, 0))
    prods = i1 * i2 * i3 * i4
    se = float(np.std(prods, ddof=1)) / math.sqrt(n)
    assert abs(float(np.mean(prods)) - target) < 4 * se


# ---------------------------------------------------------------------------
# eta2 for the bilinear statistic
# ---------------------------------------------------------------------------


def test_eta2_sn_ou_brownian_geometric_series():
    rep = eta2_sn(ExponentialOU(1.0), ExponentialOU(1.0), BrownianMotion(2.0), 1.0)
    assert rep.eta2 == pytest.approx(geometric_eta2(2.0, 1.0, 1.0), rel=1e-8)
    assert rep.kappa4_term == 0.0
    assert rep.conditions_note == "supported"


def test_eta2_sn_compound_poisson_adds_kappa4_term():
    lam, Delta = 1.0, 1.0
    rep = eta2_sn(ExponentialOU(lam), ExponentialOU(lam), CompoundPoissonNormal(1.0, 1.0), Delta)
    assert rep.kappa4_term == pytest.approx(3.0 * kappa4_phase_ou(lam, Delta), rel=1e-8)
    cov = sum(rep.covariance_terms.values())
    assert cov == pytest.approx(geometric_eta2(1.0, lam, Delta), rel=1e-8)
    assert rep.eta2 == rep.kappa4_term + cov


def test_eta2_sn_symmetric_in_kernels():
    k1, k2 = ExponentialOU(1.0), ExponentialOU(2.0)
    model = CompoundPoissonNormal(1.0, 1.0)
    a = eta2_sn(k1, k2, model, 1.0)
    b = eta2_sn(k2, k1, model, 1.0)
    assert a.eta2 == pytest.approx(b.eta2, rel=1e-10)


def test_eta2_sn_shift_invariant():
    k = ExponentialOU(1.0)
    shifted = LinComboKernel(base=k, shifts=(3.0,), coeffs=(1.0,))
    model = CompoundPoissonNormal(1.0, 1.0)
    a = eta2_sn(k, k, model, 1.0)
    b = eta2_sn(shifted, shifted, model, 1.0, check="skip")
    assert b.eta2 == pytest.approx(a.eta2, rel=1e-9)


def test_eta2_nonnegative_and_sum_of_terms():
    for model in (BrownianMotion(2.0), CompoundPoissonNormal(1.0, 1.0), BilateralGamma(2.0, 1.0)):
        rep = eta2_sn(ExponentialOU(1.0), ExponentialOU(2.0), model, 1.0)
        assert rep.eta2 >= 0.0
        assert rep.eta2 == rep.kappa4_term + sum(rep.covariance_terms.values())
        if isinstance(model, BrownianMotion):
            assert rep.kappa4_term == 0.0
        else:
            assert rep.kappa4_term > 0.0


# ---------------------------------------------------------------------------
# eta2 for the quadratic form
# ---------------------------------------------------------------------------


def test_eta2_qn_delta0_reduces_to_sn():
    sn = eta2_sn(ExponentialOU(1.0), ExponentialOU(1.0), BrownianMotion(2.0), 1.0)
    qn = eta2_qn(ExponentialOU(1.0), FiniteSupport.delta0(), BrownianMotion(2.0), 1.0)
    assert qn.eta2 == pytest.approx(sn.eta2, rel=1e-10)
    assert qn.eta2 == pytest.approx(geometric_eta2(2.0, 1.0, 1.0), rel=1e-8)


@pytest.mark.parametrize("model", [BrownianMotion(2.0), CompoundPoissonNormal(1.0, 1.0)])
def test_eta2_qn_two_routes_agree(model):
    b = FiniteSupport(values=(0.0, 1.0))
    rep = eta2_qn(ExponentialOU(1.0), b, model, 1.0)
    assert rep.eta2_alt is not None
    assert abs(rep.eta2 - rep.eta2_alt) <= 1e-8 * abs(rep.eta2)


def test_eta2_qn_refuted_conditions_gate():
    refuted = ConditionReport(
        condition_set="qn_general",
        exponents={},
        assumptions=(AssumptionCheck(name="stub", verdict="refuted"),),
    )
    with pytest.raises(ConditionsRefutedError):
        eta2_qn(ExponentialOU(1.0), FiniteSupport.delta0(), BrownianMotion(1.0), 1.0, check=refuted)
    rep = eta2_qn(ExponentialOU(1.0), FiniteSupport.delta0(), BrownianMotion(1.0), 1.0, check=refuted, force=True)
    assert rep.conditions_note == "overridden (refuted)"
    clean = eta2_qn(ExponentialOU(1.0), FiniteSupport.delta0(), BrownianMotion(1.0), 1.0)
    assert rep.eta2 == clean.eta2  # force never changes numbers


def test_a_condition_report_of_another_set_is_refused():
    # eta2_qn took an autocov report and noted "supported"; eta2_sn called a refuted qn_decay
    # report "sn_general conditions refuted"; autocov_clt_sigma took an sn_general report
    ou, bm = ExponentialOU(1.0), BrownianMotion(1.0)
    with pytest.raises(ParameterError, match="'autocov' conditions, not 'qn_general'"):
        eta2_qn(ou, FiniteSupport((1.0, 0.5)), bm, 1.0, check=check_conditions("autocov", ou))
    refuted = ConditionReport(condition_set="qn_decay", exponents={}, assumptions=(AssumptionCheck("stub", "refuted"),))
    with pytest.raises(ParameterError, match="'qn_decay' conditions, not 'sn_general'"):
        eta2_sn(ou, ou, bm, 1.0, check=refuted)
    with pytest.raises(ParameterError, match="'sn_general' conditions, not 'autocov'"):
        autocov_clt_sigma(ou, bm, 1.0, 2, check=check_conditions("sn_general", (ou, ou)))
    sigma = autocov_clt_sigma(ou, bm, 1.0, 2, check=check_conditions("autocov", ou))  # the matching set is taken
    assert np.array_equal(sigma, autocov_clt_sigma(ou, bm, 1.0, 2))


# ---------------------------------------------------------------------------
# autocovariance limit matrix
# ---------------------------------------------------------------------------


def sigma11_oracle(lam, sigma2, Delta):
    """m = 1 entry for a Brownian driver, by geometric series."""
    g = lambda u: sigma2 / (2 * lam) * math.exp(-lam * abs(u) * Delta)
    first = sum(g(u) ** 2 for u in range(-200, 201))
    second = sum(g(2 - u) * g(u) for u in range(-200, 201))
    return first + second


def test_autocov_sigma_m1_brownian():
    sig = autocov_clt_sigma(ExponentialOU(1.0), BrownianMotion(2.0), 1.0, 1)
    assert sig.shape == (1, 1)
    assert sig[0, 0] == pytest.approx(sigma11_oracle(1.0, 2.0, 1.0), rel=1e-8)


def test_autocov_sigma_symmetric_psd_and_embedding():
    for model in (BrownianMotion(2.0), CompoundPoissonNormal(1.0, 1.0)):
        sig3 = autocov_clt_sigma(ExponentialOU(1.0), model, 1.0, 3)
        assert np.array_equal(sig3, sig3.T)
        assert np.min(np.linalg.eigvalsh(sig3)) > -1e-10
    # lag-wise diagonal consistency: entry (j, j) only involves gamma at lags around j
    sig1 = autocov_clt_sigma(ExponentialOU(1.0), BrownianMotion(2.0), 1.0, 1)
    sig2 = autocov_clt_sigma(ExponentialOU(1.0), BrownianMotion(2.0), 1.0, 2)
    assert sig2[0, 0] == pytest.approx(sig1[0, 0], rel=1e-10)
    g = lambda u: math.exp(-abs(u))
    d22 = sum(g(u) ** 2 for u in range(-300, 301)) + sum(g(4 - u) * g(u) for u in range(-300, 301))
    assert sig2[1, 1] == pytest.approx(d22, rel=1e-8)


def test_autocov_sigma_kappa4_block_ou_closed_form():
    # Same sigma2 for both drivers, so the difference is the kappa4 block alone.
    # For OU, K_j(t) = e^{-lam (2t + j Delta)} / (1 - e^{-2 lam Delta}) on [0, Delta), hence
    # int_0^Delta K_i K_j dt = e^{-lam (i + j) Delta} * kappa4_phase_ou(lam, Delta).
    lam, Delta, m = 1.0, 1.0, 3
    kappa4 = 3.0  # CompoundPoissonNormal(1, 1): rate * 3 tau2^2
    block = autocov_clt_sigma(ExponentialOU(lam), CompoundPoissonNormal(1.0, 1.0), Delta, m) - autocov_clt_sigma(
        ExponentialOU(lam), BrownianMotion(1.0), Delta, m
    )
    ij = np.arange(1, m + 1)
    expect = kappa4 * np.exp(-lam * (ij[:, None] + ij[None, :]) * Delta) * kappa4_phase_ou(lam, Delta)
    assert block == pytest.approx(expect, rel=1e-7)


def test_autocov_sigma_kappa4_block_of_long_memory_is_the_period_integral_of_k1():
    # K_1(t) = sum_s phi(t + s) phi(t + s + 1) is a two-factor lattice sum, so its lag range
    # is that of [phi, phi(. + Delta)]; a three-factor range stops ~1e-3 short for d = 0.1
    k = FractionalNoise(0.1)
    kwargs = dict(check="skip", lag_radius=1)
    block = autocov_clt_sigma(k, CompoundPoissonNormal(1.0, 1.0), 1.0, 1, **kwargs) - autocov_clt_sigma(
        k, BrownianMotion(1.0), 1.0, 1, **kwargs
    )
    shifted = LinComboKernel(base=k, shifts=(-1.0,), coeffs=(1.0,))
    expect = 3.0 * phase_integral([k, shifted], 1.0, nodes_per_period=512).value  # kappa4 = 3
    assert block[0, 0] == pytest.approx(expect, rel=1e-12)


def test_autocov_sigma_kappa4_block_splits_the_period_at_breakpoint_phases():
    # At Delta = 0.7 the kink of FractionalNoise at t = 1 falls at phase 0.3, where phase_integral
    # cuts the period; the kappa4 block cuts there too.  The two lattice ranges differ slightly.
    k = FractionalNoise(0.1)
    kwargs = dict(check="skip", lag_radius=1)
    block = autocov_clt_sigma(k, CompoundPoissonNormal(1.0, 1.0), 0.7, 1, **kwargs) - autocov_clt_sigma(
        k, BrownianMotion(1.0), 0.7, 1, **kwargs
    )
    shifted = LinComboKernel(base=k, shifts=(-0.7,), coeffs=(1.0,))
    assert block[0, 0] == pytest.approx(3.0 * phase_integral([k, shifted], 0.7).value, abs=1e-5)


def test_autocov_sigma_kappa4_block_samples_one_base_lattice_per_chunk(monkeypatch):
    # K_1..K_m are products of rows s and s + j of one base lattice, so each lag chunk samples
    # the base once on its rows widened by m, plus the closing left-limit column, not once per K_j
    k, m, Delta = FractionalNoise(0.1), 4, 1.0
    monkeypatch.setattr(variance, "covariance_lags", lambda *args, **kw: np.zeros(2 * (1 + m) + 1))
    points, real_eval = [], FractionalNoise.eval
    monkeypatch.setattr(FractionalNoise, "eval", lambda self, t: points.append(np.size(t)) or real_eval(self, t))
    autocov_clt_sigma(k, CompoundPoissonNormal(1.0, 1.0), Delta, m, check="skip", lag_radius=1)
    s_lo, s_hi = lattice_s_range([k, k], Delta)
    chunks = -(-(s_hi - s_lo + 1) // 8192)
    assert chunks > 1
    assert len(points) == 2 * chunks
    assert sum(points) == (s_hi - s_lo + 1 + m * chunks) * (513 + 1)  # 513 nodes, one left-limit column


@pytest.mark.parametrize("radius", [40, 100, 600])
@pytest.mark.parametrize("w", [0.5, 1e-3])
def test_eta2_qn_sees_the_far_weight_of_a_finite_support_with_a_gap(radius, w):
    # b = delta_0 + w (delta_R + delta_-R) and gamma(u) = e^{-|u|} / 2: the three shifted copies of
    # gamma overlap by ~R e^{-R}, so eta2 = 2 sum (b * gamma)^2 = (1 + 2 w^2) coth(1) / 2
    b = FiniteSupport((1.0,) + (0.0,) * (radius - 1) + (w,))
    rep = eta2_qn(ExponentialOU(1.0), b, BrownianMotion(1.0), 1.0, check="skip")
    assert rep.eta2 == pytest.approx(0.5 * (1 + 2 * w * w) / math.tanh(1.0), rel=1e-8)
    # the bilinear reduction's lag sums start past the farthest offset, not blind inside the gap
    assert rep.eta2_alt == pytest.approx(0.5 * (1 + 2 * w * w) / math.tanh(1.0), rel=1e-8)


@pytest.mark.parametrize("radius", [800, 2000])
def test_eta2_qn_of_weights_shifted_past_the_exponent_range(radius):
    # the star kernel's shifts e^{rate s} overflow past s ~ 709; its envelope lowers its rate instead
    b = FiniteSupport((1.0,) + (0.0,) * (radius - 1) + (0.5,))
    rep = eta2_qn(ExponentialOU(1.0), b, BrownianMotion(1.0), 1.0, check="skip")
    assert rep.eta2 == pytest.approx(0.75 / math.tanh(1.0), rel=1e-12)


def test_autocov_sigma_off_diagonal_ou_closed_form():
    # Brownian driver: Sigma[j, k] = sum_s (gamma(s + j) + gamma(j - s)) gamma(s + k), with
    # the OU closed form gamma(u) = sigma2 e^{-lam |u| Delta} / (2 lam) = e^{-|u|} here
    m = 3
    sig = autocov_clt_sigma(ExponentialOU(1.0), BrownianMotion(2.0), 1.0, m)
    s = np.arange(-2000, 2001)
    g = lambda u: np.exp(-np.abs(u))
    ref = np.array([[np.sum((g(s + j) + g(j - s)) * g(s + k)) for k in range(1, m + 1)] for j in range(1, m + 1)])
    assert sig == pytest.approx(ref, rel=1e-9)


def test_autocov_sigma_lag_sum_matches_loop_reference():
    # The lag sum one term at a time, from the same lag covariances; the library
    # sums in another order, so the two agree to rounding (2S + 1 terms), not bitwise.
    kernel, m, S = FractionalNoise(0.1), 3, 32
    sig = autocov_clt_sigma(kernel, BrownianMotion(1.0), 1.0, m, check="skip", lag_radius=S)
    gam = covariance_lags(kernel, kernel, 1.0, 1.0, -(S + m), S + m, base_step=1.0 / 256.0)
    g = lambda u: float(gam[u + S + m])
    ref = np.empty((m, m))
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            tot = 0.0
            for s in range(-S, S + 1):
                tot += (g(s + j) + g(j - s)) * g(s + k)
            ref[j - 1, k - 1] = tot
    ref = 0.5 * (ref + ref.T)
    assert np.max(np.abs(sig - ref)) <= 1e-13 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# expected values
# ---------------------------------------------------------------------------


def test_expected_qn_delta0():
    # E Q_n = n gamma(0)
    val = expected_qn(FiniteSupport.delta0(), ExponentialOU(1.0), BrownianMotion(2.0), 1.0, 50)
    assert val == pytest.approx(50 * 1.0, rel=1e-8)


def test_expected_qn_n2_hand_expansion():
    c = 0.3
    b = FiniteSupport(values=(1.0, c))
    val = expected_qn(b, ExponentialOU(1.0), BrownianMotion(2.0), 1.0, 2)
    # 2 gamma(0) + 2 c gamma(Delta)
    assert val == pytest.approx(2 * 1.0 + 2 * c * math.exp(-1.0), rel=1e-8)


def test_expected_qn_cesaro_limit():
    b = FiniteSupport(values=(1.0, 0.5, 0.25))
    kernel = ExponentialOU(1.0)
    model = BrownianMotion(2.0)
    limit = sum(
        b.weight(u) * math.exp(-abs(u)) for u in range(-2, 3)
    )
    n = 4000
    val = expected_qn(b, kernel, model, 1.0, n)
    slack = sum(abs(u * b.weight(u)) * math.exp(-abs(u)) for u in range(-2, 3))
    assert abs(val / n - limit) <= slack / n + 1e-10


def test_expected_sn_lag0():
    val = expected_sn(ExponentialOU(1.0), ExponentialOU(2.0), BrownianMotion(1.0), 1.0, 100)
    assert val == pytest.approx(100.0 / 3.0, rel=1e-8)


def test_expected_qn_power_decay_against_double_sum():
    from cmaqf.covariance import PowerDecay

    b = PowerDecay(c=0.5, rho=1.2, b0=1.0)
    n = 50
    val = expected_qn(b, ExponentialOU(1.0), BrownianMotion(2.0), 1.0, n)
    # direct double sum over the sampled indices with the closed-form covariance
    oracle = sum(b.weight(t - s) * math.exp(-abs(t - s)) for t in range(n) for s in range(n))
    assert val == pytest.approx(oracle, rel=1e-7)


def _ou_mean_double_sum(b, lam, n):
    """``sum_{i,j < n} b(i - j) gamma(i - j)`` with the closed-form OU covariance
    ``gamma(h) = e^{-lam |h|} / (2 lam)`` of a unit Brownian driver, Delta = 1."""
    d = np.subtract.outer(np.arange(n), np.arange(n))
    return float(np.sum(b.weight(d) * np.exp(-lam * np.abs(d)) / (2.0 * lam)))


def test_expected_qn_sums_a_finite_support_whole():
    # radius 99 with OU(0.3): gamma(99) is 1e-13 of gamma(0), far above rounding, and
    # a support with a gap past lag 32 (b = delta_50) leaves nothing for a fitted tail to see
    lam, n = 0.3, 400
    for b in (FiniteSupport(tuple(1.0 / (1 + k) for k in range(100))), FiniteSupport((0.0,) * 50 + (1.0,))):
        val = expected_qn(b, ExponentialOU(lam), BrownianMotion(1.0), 1.0, n)
        assert val == pytest.approx(_ou_mean_double_sum(b, lam, n), rel=1e-13)


def test_expected_qn_grows_power_weights_until_rounding(monkeypatch):
    from cmaqf import variance
    from cmaqf.covariance import PowerDecay

    asked = []
    lags = variance.covariance_lags
    monkeypatch.setattr(variance, "covariance_lags", lambda *a, **kw: asked.append(a[5]) or lags(*a, **kw))
    lam, n, b = 0.3, 400, PowerDecay(c=1.0, rho=1.5, b0=1.0)
    val = expected_qn(b, ExponentialOU(lam), BrownianMotion(1.0), 1.0, n)
    # more than one doubling, and stopped by the tail bracket before the n - 1 cap
    assert asked == [32, 64, 128]
    assert val == pytest.approx(_ou_mean_double_sum(b, lam, n), rel=1e-13)


def test_eta2_qn_routes_agree_within_their_bounds_off_unit_spacing():
    # Whittle score of the sampled OU at a non-dyadic spacing: the bilinear route's
    # lag covariances put quadrature edges at jumps shifted by multiples of 0.7;
    # the closed form is 4 gamma(0)^2 (1 - a^2) with gamma(0) = 1
    lam, delta = 0.5, 0.7
    a = math.exp(-lam * delta)
    rep = eta2_qn(ExponentialOU(lam), FiniteSupport((2.0 * a, -1.0)), BrownianMotion(1.0), delta, check="skip")
    assert abs(rep.eta2 - rep.eta2_alt) <= rep.diagnostics["bsg_l2_tail"] + rep.diagnostics["cov_tail_bound"]
    exact = 4.0 * (1.0 - a * a)
    assert rep.eta2 == pytest.approx(exact, rel=1e-8)
    assert rep.eta2_alt == pytest.approx(exact, rel=1e-8)


def test_whittle_score_kappa4_term_vanishes_under_compound_poisson():
    # the sampled OU is an AR(1); its Whittle score has Var ~ (1 - a^2)/n for any iid
    # noise, so the fourth-cumulant period integral must cancel and both routes keep
    # the Gaussian value
    lam, delta = 0.5, 0.7
    a = math.exp(-lam * delta)
    rep = eta2_qn(ExponentialOU(lam), FiniteSupport((2.0 * a, -1.0)), CompoundPoissonNormal(1.0, 1.0), delta, check="skip")
    assert abs(rep.kappa4_term) <= 1e-15
    exact = 4.0 * (1.0 - a * a)
    assert rep.eta2 == pytest.approx(exact, rel=1e-8)
    assert rep.eta2_alt == pytest.approx(exact, rel=1e-8)


# ---------------------------------------------------------------------------
# the sampling spacing
# ---------------------------------------------------------------------------


def _delta_entries():
    from cmaqf.conditions import check_conditions
    from cmaqf.covariance import PowerDecay, b_star_gamma, star_conv_kernel
    from cmaqf.inference import ls_kernel_pair, poly_map, yule_walker
    from cmaqf.quadrature import lag_gram

    ou, bm, finite = ExponentialOU(1.0), BrownianMotion(1.0), FiniteSupport((0.0, 1.0, 0.5))
    return {
        "check_conditions": lambda d: check_conditions("autocov", ou, Delta=d),
        "check_conditions_decay": lambda d: check_conditions("sn_decay", ou, Delta=d),  # reads no Delta itself
        "covariance_lags": lambda d: covariance_lags(ou, ou, 1.0, d, 0, 3),
        "star_conv_kernel": lambda d: star_conv_kernel(PowerDecay(1.0, 1.5, 1.0), ou, d),
        "b_star_gamma": lambda d: b_star_gamma(finite, ou, 1.0, d),
        "phase_integral": lambda d: phase_integral([ou, ou], d),
        "lattice_s_range": lambda d: lattice_s_range([ou], d),
        "lag_gram": lambda d: lag_gram(ou, 2, d),
        "eta2_sn": lambda d: eta2_sn(ou, ou, bm, d, check="skip"),
        "eta2_qn": lambda d: eta2_qn(ou, finite, bm, d, check="skip"),
        "autocov_clt_sigma": lambda d: autocov_clt_sigma(ou, bm, d, 2, check="skip"),
        "expected_sn": lambda d: expected_sn(ou, ou, bm, d, 4),
        "expected_qn": lambda d: expected_qn(finite, ou, bm, d, 4),
        "yule_walker": lambda d: yule_walker(ou, bm, d, 2),
        "ls_kernel_pair": lambda d: ls_kernel_pair(ou, *poly_map([[0.5, 0.3], [0.1, -0.2]]), 0.4, d),
    }


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(_delta_entries()))
def test_every_analytic_entry_rejects_a_spacing_that_is_not_finite_and_positive(entry, delta):
    # these once returned inf, a matrix of inf, gamma(0) on every lag or a supported verdict
    with pytest.raises(ParameterError, match="Delta must be finite and > 0"):
        _delta_entries()[entry](delta)


def test_autocov_sigma_rejects_a_negative_lag_radius():
    with pytest.raises(ParameterError, match="lag_radius"):
        autocov_clt_sigma(ExponentialOU(1.0), BrownianMotion(1.0), 1.0, 2, check="skip", lag_radius=-1)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
def test_the_samplers_reject_a_spacing_that_is_not_finite_and_positive(delta):
    # an infinite spacing once gave a one-point grid at t = nan, and a path configuration
    from cmaqf.simulate import PathConfig

    with pytest.raises(GridError, match="finite and > 0"):
        grid_sample(ExponentialOU(1.0), delta, 4, 4.0)
    with pytest.raises(ParameterError, match="finite and > 0"):
        PathConfig(delta=delta, n=4)


VARIANCE_REFUSALS = {
    "eta2_sn_check": (lambda ou, bm: eta2_sn(ou, ou, bm, 1.0, check="bogus"), "check must be"),
    "expected_sn_n": (lambda ou, bm: expected_sn(ou, ou, bm, 1.0, 0), "n must be >= 1"),
    "expected_qn_n": (lambda ou, bm: expected_qn(FiniteSupport((1.0,)), ou, bm, 1.0, 0), "n must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(VARIANCE_REFUSALS))
def test_refused_variance_inputs_name_the_input(case):
    call, name = VARIANCE_REFUSALS[case]
    with pytest.raises(ParameterError, match=name):
        call(ExponentialOU(1.0), BrownianMotion(1.0))
