import math

import numpy as np
import pytest
from scipy.integrate import quad

from cmaqf.covariance import (
    FiniteSupport,
    PowerDecay,
    autocovariance,
    b_star_gamma,
    covariance_lags,
    crosscovariance,
    star_conv_kernel,
)
from cmaqf.errors import ConvergenceError, ParameterError
from cmaqf.kernels import ExponentialOU, FractionalNoise, LinComboKernel, TabulatedKernel, build_carma, grid_sample
from cmaqf.quadrature import phase_lattice, product_integral


def fn_gamma_oracle(d):
    """Closed-form fractional-noise autocovariance ratio plus an independently
    integrated lag-0 value: gamma(h) = gamma(0) (|h+1|^a - 2|h|^a + |h-1|^a)/2."""
    g = math.gamma(1 + d)
    phi = lambda t: (max(t, 0.0) ** d - max(t - 1.0, 0.0) ** d) / g
    f = lambda t: phi(t) ** 2
    g0 = (
        quad(f, 0, 1, points=[0, 1], limit=200)[0]
        + quad(f, 1, 1e3, limit=400)[0]
        + quad(f, 1e3, 1e7, limit=400)[0]
    )
    a = 2 * d + 1

    def gamma(h):
        return g0 * (abs(h + 1) ** a - 2 * abs(h) ** a + abs(h - 1) ** a) / 2.0

    return gamma


def test_coefficients_evenness_and_membership():
    b = FiniteSupport.from_two_sided([0.5, 1.0, 2.0, 1.0, 0.5])
    assert b.values == (2.0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        FiniteSupport.from_two_sided([1.0, 2.0, 3.0])  # not even
    with pytest.raises(ParameterError):
        FiniteSupport.from_two_sided([1.0, 2.0])  # even length
    pd = PowerDecay(c=1.0, rho=0.6, b0=2.0)
    assert pd.lq_member(2.0)  # 1.2 > 1
    assert not pd.lq_member(1.0)  # 0.6 <= 1
    assert pd.weight(0) == 2.0
    assert pd.weight(3) == pytest.approx(3.0**-0.6)
    assert pd.weight(-3) == pd.weight(3)


def test_autocovariance_ou_closed_form():
    ou = ExponentialOU(1.0)
    assert autocovariance(ou, 2.0, 0.0) == pytest.approx(1.0, rel=1e-6)
    assert autocovariance(ou, 2.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-6)
    assert autocovariance(ou, 2.0, 1.5) == autocovariance(ou, 2.0, -1.5)


def test_crosscovariance_closed_forms_and_symmetry():
    ou1, ou2 = ExponentialOU(1.0), ExponentialOU(2.0)
    # int_0^inf e^{-t} e^{-2t} dt = 1/3
    assert crosscovariance(ou1, ou2, 1.0, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-6)
    assert crosscovariance(ou1, ou1, 1.0, 0.7) == autocovariance(ou1, 1.0, 0.7)
    fn = FractionalNoise(0.1)
    for h in (0.0, 1.0, 2.0):
        a = crosscovariance(ou1, fn, 1.0, h)
        b = crosscovariance(fn, ou1, 1.0, -h)
        assert a == pytest.approx(b, rel=1e-8, abs=1e-12)


def test_quadrature_change_bounded_by_error_estimate():
    for kernel in (ExponentialOU(1.0), build_carma((3.0, 2.0), (3.0, 1.0), 1)):
        for h in (0.0, 1.0):
            d1 = product_integral(kernel, kernel, h, base_step=1 / 64)
            d2 = product_integral(kernel, kernel, h, base_step=1 / 128)
            v1, v2 = 2.0 * d1.value, 2.0 * d2.value
            budget = 2.0 * (d1.disc_estimate + d2.disc_estimate + d1.tail_bound + d2.tail_bound)
            assert abs(v1 - v2) <= budget + 1e-15


def test_isometry_anchor_against_grid_trapezoid():
    # independent quadrature route: plain trapezoid on the sampled grid,
    # starting at the support so the jump at 0 is not straddled
    kernel = build_carma((3.0, 2.0), (3.0, 1.0), 1)
    g = grid_sample(kernel, 1.0, 64, 64.0)
    start = len(g.values) // 2  # index of t = 0
    l2_grid = float(np.trapezoid(g.values[start:] ** 2, dx=g.step))
    sigma2 = 2.0
    assert autocovariance(kernel, sigma2, 0.0) == pytest.approx(sigma2 * l2_grid, rel=1e-3)


def test_fractional_autocovariance_matches_closed_form():
    d = 0.1
    fn = FractionalNoise(d)
    gamma = fn_gamma_oracle(d)
    for h in (0.0, 0.5, 1.0, 2.5, 10.0):
        assert autocovariance(fn, 1.0, h) == pytest.approx(gamma(h), rel=2e-4)


def test_fractional_long_memory_ratio_stabilizes():
    d = 0.1
    fn = FractionalNoise(d)
    r200 = autocovariance(fn, 1.0, 200.0) / 200.0 ** (2 * d - 1)
    r400 = autocovariance(fn, 1.0, 400.0) / 400.0 ** (2 * d - 1)
    assert abs(r400 / r200 - 1.0) < 0.02


def test_fractional_lag_sums_diverge_in_l1_converge_in_l2():
    # module values agree with the closed form on a lag subsample; the partial
    # sums of the (exact) closed form then show the l1 blow-up (sums grow like
    # S^(2d): successive decades contribute ever more) against l2 stability
    d = 0.1
    fn = FractionalNoise(d)
    gamma = fn_gamma_oracle(d)
    for s in (1, 10, 100, 1000, 10000):
        assert autocovariance(fn, 1.0, float(s)) == pytest.approx(gamma(s), rel=1e-3)
    s = np.arange(1, 10**4 + 1, dtype=float)
    vals = gamma(0) * (np.abs(s + 1) ** (2 * d + 1) - 2 * s ** (2 * d + 1) + np.abs(s - 1) ** (2 * d + 1)) / 2
    abs_partial = gamma(0) + 2 * np.cumsum(np.abs(vals))
    sq_partial = gamma(0) ** 2 + 2 * np.cumsum(vals**2)
    assert abs_partial[-1] / abs_partial[99] > 0.8 * 100.0 ** (2 * d)  # unbounded growth law
    decades = [abs_partial[99] - abs_partial[9], abs_partial[999] - abs_partial[99], abs_partial[-1] - abs_partial[999]]
    assert decades[2] > decades[1] > decades[0] > 0
    assert (sq_partial[-1] - sq_partial[99]) < 0.01 * sq_partial[99]


def test_star_conv_identity_element():
    g = grid_sample(ExponentialOU(1.0), 1.0, 8, 8.0)
    out = star_conv_kernel(FiniteSupport.delta0(), g.kernel, g.Delta).eval(g.times())
    assert np.array_equal(out, g.values)


def test_star_conv_two_shifted_indicators():
    vals = np.ones(9)
    vals[-1] = 0.0
    box = TabulatedKernel(t0=0.0, step=0.125, values=vals)  # indicator of [0, 1)
    out = grid_sample(star_conv_kernel(FiniteSupport(values=(0.0, 1.0)), box, 1.0), 1.0, 8, 4.0)
    ts = out.times()
    expect = ((ts >= -1) & (ts < 0)).astype(float) + ((ts >= 1) & (ts < 2)).astype(float)
    assert np.array_equal(out.values, expect)


def test_star_conv_absolute_companion():
    ou = ExponentialOU(1.0)
    b = FiniteSupport(values=(0.0, -1.0))  # sign flips under the absolute companion
    ts = grid_sample(ou, 1.0, 4, 8.0).times()
    signed = star_conv_kernel(b, ou, 1.0).eval(ts)
    absolute = star_conv_kernel(b, ou, 1.0, absolute=True).eval(ts)
    assert np.allclose(np.abs(signed), absolute, rtol=0, atol=1e-15)
    assert np.any(signed < 0)
    assert np.all(absolute >= 0)


def test_b_star_gamma_delta0_reduces_to_lags():
    ou = ExponentialOU(1.0)
    res = b_star_gamma(FiniteSupport.delta0(), ou, 2.0, 1.0, base_step=1 / 64)
    lags = covariance_lags(ou, ou, 2.0, 1.0, -res.radius, res.radius, base_step=1 / 64)
    assert np.array_equal(res.values, lags)


def test_b_star_gamma_geometric_l2():
    ou = ExponentialOU(1.0)
    res = b_star_gamma(FiniteSupport.delta0(), ou, 2.0, 1.0, base_step=1 / 256)
    exact = (1 + math.exp(-2)) / (1 - math.exp(-2))  # sum_s e^{-2|s|}
    assert res.l2_sq == pytest.approx(exact, rel=1e-8)
    assert not res.capped


def test_b_star_gamma_even_output():
    ou = ExponentialOU(1.0)
    res = b_star_gamma(FiniteSupport(values=(0.5, 1.0, 0.25)), ou, 2.0, 1.0)
    assert np.allclose(res.values, res.values[::-1], rtol=1e-12, atol=1e-14)


def test_b_star_gamma_divergence_raises():
    # power-decay weights against a long-memory covariance: rho_b + rho_gamma <= 1
    fn = FractionalNoise(0.1)  # gamma exponent 1 - 2d = 0.8
    with pytest.raises(ConvergenceError):
        b_star_gamma(PowerDecay(c=1.0, rho=0.15, b0=1.0), fn, 1.0, 1.0)


def test_product_integral_covers_negative_support():
    # combination shifted left of the origin: the window between its
    # breakpoints and the dyadic extension must not be skipped
    from cmaqf.kernels import LinComboKernel

    k = LinComboKernel(base=ExponentialOU(1.0), shifts=(-5.0,), coeffs=(1.0,))
    r = product_integral(k, k, 0.0)
    assert r.value == pytest.approx(0.5, rel=1e-6)


def test_phase_lattice_closes_on_left_limits():
    # rows are lags s = -2..1; the OU kernel jumps where t + s = 0
    V = phase_lattice(ExponentialOU(1.0), np.linspace(0.0, 1.0, 5), -2, 1, 1.0)
    assert V[1, -1] == 0.0  # s = -1 at the closing node t = 1: left limit
    assert V[2, 0] == 1.0  # s = 0 at the opening node t = 0: right value


def test_tail_warning_when_bound_exceeds_one_percent():
    from cmaqf.kernels import PowAbsKernel

    slow = PowAbsKernel(FractionalNoise(0.1), 0.58)  # decays like t^-0.52; pair sum barely converges
    with pytest.warns(RuntimeWarning, match="tail bound"):
        crosscovariance(slow, slow, 1.0, 0.0)


def test_star_conv_kernel_power_decay_truncation():
    ou = ExponentialOU(1.0)
    pd = PowerDecay(c=1.0, rho=1.5, b0=1.0)
    k = star_conv_kernel(pd, ou, 1.0)
    # oracle at t = 0.5: sum_s b(s) e^{-(0.5 - s)} over s <= 0 (causality)
    s = np.arange(0, -4000, -1)
    w = np.abs(np.where(s == 0, 1.0, s)) ** -1.5
    oracle = float(np.sum(w * np.exp(-(0.5 - s))))
    assert k.eval(0.5) == pytest.approx(oracle, rel=1e-9)


from hypothesis import example, given, settings
from hypothesis import strategies as st


def _carma_gamma(h):
    # phi = 2 e^{-t} - e^{-2t} of build_carma((3, 2), (3, 1), 1): int phi(t) phi(t + |h|) dt
    h = abs(h)
    return 4.0 / 3.0 * math.exp(-h) - 5.0 / 12.0 * math.exp(-2.0 * h)


@given(delta=st.floats(0.1, 2.0), s=st.integers(-3, 3), family=st.sampled_from(["ou", "carma"]))
@example(delta=0.7, s=-2, family="ou")  # -1.4 + 1.4 misses 0.7 + 0.7 by one ulp: a Simpson end weight off
@settings(max_examples=60, deadline=None)
def test_shifted_combination_covariances_match_closed_forms(delta, s, family):
    # lag s*Delta of a kernel against its combination at shifts Delta and 2 Delta: the
    # quadrature edges at the combination's jumps are shifted breakpoints
    if family == "ou":
        base, gamma = ExponentialOU(0.5), lambda h: math.exp(-0.5 * abs(h))
    else:
        base, gamma = build_carma((3.0, 2.0), (3.0, 1.0), 1), _carma_gamma
    combo = LinComboKernel(base, shifts=(delta, 2.0 * delta), coeffs=(1.0, -0.5))
    h = s * delta
    exact = gamma(h - delta) - 0.5 * gamma(h - 2.0 * delta)
    assert product_integral(base, combo, h).value == pytest.approx(exact, abs=1e-8)
