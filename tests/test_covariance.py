import math
import time

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad

from cmaqf import covariance, quadrature
from cmaqf.conditions import _envelope
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
from cmaqf.inference import ls_kernel_pair, poly_map
from cmaqf.kernels import (
    ExponentialOU,
    FractionalNoise,
    LinComboKernel,
    PowAbsKernel,
    TabulatedKernel,
    _lattice_combo,
    build_carma,
    grid_sample,
)
from cmaqf.quadrature import _lattice_sums, lag_gram, lattice_s_range, phase_integral, product_integral


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
    absolute = _envelope(b, ou, 1.0).eval(ts)
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


def test_b_star_gamma_of_power_weights_matches_a_direct_sum():
    # each kept lag s is sum_{|u| <= max(64, 4 S)} b(u) gamma((s - u) Delta), summed here lag by lag
    ou, b = ExponentialOU(1.0), PowerDecay(c=1.0, rho=1.5, b0=1.0)
    res = b_star_gamma(b, ou, 2.0, 1.0)
    S = res.radius
    ub = max(64, 4 * S)
    gam = covariance_lags(ou, ou, 2.0, 1.0, -(S + ub), S + ub)
    u = np.arange(-ub, ub + 1)
    assert res.values.shape == (2 * S + 1,)
    for s in (-S, -S + 1, -1, 0, 1, S // 3, S):
        assert res.values[s + S] == pytest.approx(np.sum(b.weight(u) * gam[s - u + S + ub]), rel=1e-12), s


@pytest.mark.parametrize("Delta", [1.0, 0.7])
@pytest.mark.parametrize("rho", [1.5, 3.0, 6.0])
@pytest.mark.parametrize(
    "kernel", [ExponentialOU(1.0), ExponentialOU(5.0), build_carma((3.0, 2.0), (3.0, 1.0), 1)], ids=["ou1", "ou5", "carma21"]
)
def test_b_star_gamma_of_power_weights_by_fft_matches_the_direct_product(kernel, rho, Delta, monkeypatch):
    b = PowerDecay(c=1.0, rho=rho, b0=1.0)
    fft = b_star_gamma(b, kernel, 1.0, Delta)
    # the same lags with np.convolve in place of the FFT product: its "full" part sliced as "valid"
    monkeypatch.setattr(covariance, "_fft_convolve", lambda a, w: np.convolve(a, w))
    direct = b_star_gamma(b, kernel, 1.0, Delta)
    assert (fft.radius, fft.capped) == (direct.radius, direct.capped)
    scale = np.max(np.abs(fft.values))
    assert np.max(np.abs(fft.values - direct.values)) <= 1e-14 * scale


def test_b_star_gamma_of_slowly_decaying_power_weights_matches_an_fft_oracle():
    # rho = 1.3 against OU(1): gamma(h) = exp(-|h|) / 2, and b * gamma ~ C s^-1.3 with C = sum_u gamma(u)
    rho, N, ub = 1.3, 2**19, 2**20
    b = PowerDecay(c=1.0, rho=rho, b0=1.0)
    res = b_star_gamma(b, ExponentialOU(1.0), 1.0, 1.0)
    assert not res.capped
    gam = 0.5 * np.exp(-np.abs(np.arange(-64, 65)))
    w = b.weights(ub)
    size = len(gam) + len(w) - 1
    full = np.fft.irfft(np.fft.rfft(gam, size) * np.fft.rfft(w, size), size)  # lag s sits at s + 64 + ub
    head = float(np.sum(full[ub + 64 - N : ub + 64 + N + 1] ** 2))
    tail = 2.0 * float(np.sum(gam)) ** 2 * (N + 0.5) ** (1.0 - 2.0 * rho) / (2.0 * rho - 1.0)
    assert abs(res.l2_sq - (head + tail)) <= res.l2_sq_tail


def test_next_fast_len_is_the_5_smooth_length_scipy_picks():
    for n in [*range(1, 20_001), 10**6 + 1, 2**20 + 1, 5 * 10**6 + 7]:
        assert covariance._next_fast_len(n) == scipy.fft.next_fast_len(n, real=True), n


@pytest.mark.parametrize(
    "la, lb", [(1, 1), (1, 2), (2, 2), (5, 3), (17, 64), (100, 101), (729, 1000), (4097, 4096), (50_001, 3), (131_073, 131_073)]
)
def test_fft_convolve_is_bit_equal_to_the_scipy_fft_product(la, lb):
    # numpy.fft at the same 5-smooth length: every convolution keeps the bits it had under scipy.fft
    rng = np.random.default_rng(la + lb)
    a, b = rng.standard_normal(la), rng.standard_normal(lb)
    size = la + lb - 1
    nfft = scipy.fft.next_fast_len(size, real=True)
    expected = scipy.fft.irfft(scipy.fft.rfft(a, nfft) * scipy.fft.rfft(b, nfft), nfft)[:size]
    assert covariance._fft_convolve(a, b).tobytes() == expected.tobytes()


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


def _fgn_autocov(d, h):
    # int FN_d(t) FN_d(t + h) dt = V_H (|h+1|^2H - 2|h|^2H + |h-1|^2H) / 2, H = d + 1/2, for every real h
    H = d + 0.5
    v = math.gamma(2.0 - 2.0 * H) * math.cos(math.pi * H) / (math.pi * H * (1.0 - 2.0 * H))
    return v * (abs(h + 1) ** (2 * H) - 2 * abs(h) ** (2 * H) + abs(h - 1) ** (2 * H)) / 2.0


@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("delta", [1.0, 0.7])
@pytest.mark.parametrize("d", [0.05, 0.1])
def test_period_integral_grades_the_kinks_of_fractional_noise(d, delta, j):
    # sum_s FN(t + s delta) FN(t + (s + j) delta) over one period is the line integral at lag j delta;
    # ungraded pieces at the kink phases were ~1e-3 off, what is left is lattice truncation
    k = FractionalNoise(d)
    shifted = LinComboKernel(k, shifts=(-j * delta,), coeffs=(1.0,))
    r = phase_integral([k, shifted], delta, power=1, nodes_per_period=128)
    assert r.value == pytest.approx(_fgn_autocov(d, j * delta), abs=1e-5)


@pytest.mark.parametrize("h", [0.0, 1.0, 2.5])
def test_product_integral_grades_each_kink_in_one_block(h, monkeypatch):
    calls = []
    evaluate = FractionalNoise.eval
    monkeypatch.setattr(FractionalNoise, "eval", lambda self, t: calls.append(1) or evaluate(self, t))
    k = FractionalNoise(0.1)
    r = product_integral(k, k, h)
    assert len(calls) <= 64
    assert abs(r.value - _fgn_autocov(0.1, h)) <= r.disc_estimate + r.tail_bound


@pytest.mark.parametrize("delta", [1.0, 0.7])
@pytest.mark.parametrize("d", [0.05, 0.1, 0.2, 0.24])
def test_fractional_noise_lags_match_the_closed_form(d, delta):
    # the power tail is one block in ln t out to where its bound is 1e-10 of the value, and a graded
    # piece's estimate is |fine - coarse|: Simpson reaches its fourth order there only asymptotically
    k = FractionalNoise(d)
    exact = np.array([_fgn_autocov(d, s * delta) for s in range(601)])
    assert np.max(np.abs(covariance_lags(k, k, 1.0, delta, 0, 600) - exact)) <= 1e-8
    for s, want in enumerate(exact):
        r = product_integral(k, k, s * delta)
        assert abs(r.value - want) <= r.disc_estimate + r.tail_bound


@pytest.mark.parametrize("h", [0.0, 1.0, 2.5, 100.0])
def test_fractional_noise_product_integral_work_is_bounded(h, monkeypatch):
    points = []
    evaluate = FractionalNoise.eval
    monkeypatch.setattr(FractionalNoise, "eval", lambda self, t: points.append(np.size(t)) or evaluate(self, t))
    k = FractionalNoise(0.1)
    product_integral(k, k, h)
    assert sum(points) <= 20_000  # per kernel: the graded core and one 4096-node block in ln t


def test_power_pair_tail_capped_or_divergent():
    capped = PowAbsKernel(FractionalNoise(0.1), 0.58)  # pair exponent 1.044: the tail at 2**80 is not negligible
    r = product_integral(capped, capped, 0.0)
    assert 0.01 * r.value < r.tail_bound < math.inf
    divergent = PowAbsKernel(FractionalNoise(0.1), 0.5)  # pair exponent 0.9
    with pytest.raises(ConvergenceError, match="diverges"):
        product_integral(divergent, divergent, 0.0)


def _lattice(kernel, nodes, s_lo, s_hi, delta):
    # rows s_lo..s_hi of the kernel's lattice, as single-factor products lagged by s on the one-row range 0..0
    return _lattice_sums([[(kernel, s)] for s in range(s_lo, s_hi + 1)], nodes, 0, 0, delta)


def test_lattice_sums_close_on_left_limits():
    # rows are lags s = -2..1; the OU kernel jumps where t + s = 0
    V = _lattice(ExponentialOU(1.0), np.linspace(0.0, 1.0, 5), -2, 1, 1.0)
    assert V[1, -1] == 0.0  # s = -1 at the closing node t = 1: left limit
    assert V[2, 0] == 1.0  # s = 0 at the opening node t = 0: right value


_LATTICE_BASES = {
    "ou": ExponentialOU(1.0),
    "carma21": build_carma((3.0, 2.0), (3.0, 1.0), 1),
    "fn01": FractionalNoise(0.1),
}


def _lattice_combinations(base, delta, power_weights):
    finite = FiniteSupport((0.5, -0.8, 0.3))
    out = {
        "star_finite": star_conv_kernel(finite, base, delta),
        "star_finite_abs": _envelope(finite, base, delta),
        "ls_first": ls_kernel_pair(base, *poly_map([[0.5, 0.3], [0.1, -0.2]]), 0.4, delta)[0],
        "shifted": LinComboKernel(base, shifts=(-delta,), coeffs=(1.0,)),
    }
    if power_weights:
        out["star_power"] = star_conv_kernel(PowerDecay(1.0, 1.5, 1.0), base, delta)
        out["star_power_abs"] = _envelope(PowerDecay(1.0, 1.5, 1.0), base, delta)
    return out


def _pointwise_lattice(kernel, nodes, s_lo, s_hi, delta):
    # the lattice of the kernel's own eval, with left limits in the closing column
    args = nodes[None, :] + np.arange(s_lo, s_hi + 1)[:, None] * delta
    V = np.asarray(kernel.eval(args.ravel())).reshape(args.shape)
    V[:, -1] = kernel.left_limit(args[:, -1])
    return V


@pytest.mark.parametrize("delta", [1.0, 0.7])
@pytest.mark.parametrize("family", sorted(_LATTICE_BASES))
def test_lattice_rows_of_a_lattice_combination_match_its_pointwise_values(family, delta):
    # power weights only at delta = 1, and not over fractional noise, whose star has 8193
    # offsets to evaluate point by point: at 0.7 the pointwise closing column takes the
    # wrong side of the base's jump (next test)
    base = _LATTICE_BASES[family]
    nodes = np.linspace(0.0, delta, 65)
    for name, k in _lattice_combinations(base, delta, power_weights=delta == 1.0 and family != "fn01").items():
        s_lo, s_hi = lattice_s_range([base, k], delta)
        s_hi = min(s_hi, 256)
        ref = _pointwise_lattice(k, nodes, s_lo, s_hi, delta)
        got = _lattice(k, nodes, s_lo, s_hi, delta)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("family", ["ou", "carma21"])
def test_lattice_rows_close_a_power_star_on_its_left_limits_off_unit_spacing(family):
    # row s of the closing column holds sum_j c_j B(Delta + (s - a_j) Delta) from the left;
    # for s - a_j = -1 the base's argument is exactly 0, its jump, so that term is 0.  The
    # kernel's own left_limit sees (Delta + s Delta) - a_j Delta, a rounding away from 0,
    # and can take the value after the jump (3.8e-2 of the largest entry for OU).
    delta = 0.7
    base = _LATTICE_BASES[family]
    nodes = np.linspace(0.0, delta, 65)
    for make in (star_conv_kernel, _envelope):
        k = make(PowerDecay(1.0, 1.5, 1.0), base, delta)
        s_lo, s_hi = lattice_s_range([base, k], delta)
        got = _lattice(k, nodes, s_lo, s_hi, delta)
        inside = k.eval(delta * (1.0 - 1e-12) + np.arange(s_lo, s_hi + 1) * delta)
        assert np.max(np.abs(got[:, -1] - inside)) <= 1e-9 * np.max(np.abs(got))
        np.testing.assert_allclose(got[:, :-1], _pointwise_lattice(k, nodes, s_lo, s_hi, delta)[:, :-1],
                                   rtol=0, atol=1e-13 * np.max(np.abs(got)))


@pytest.mark.parametrize("alpha", [None, 1.0, 0.7])
@pytest.mark.parametrize("delta", [1.0, 0.7])
@pytest.mark.parametrize("family", sorted(_LATTICE_BASES))
def test_lattice_sums_match_their_definition(family, delta, alpha, monkeypatch):
    # sum_s prod_(k, lag) k(t + (s + lag) Delta) by each kernel's own eval, on interior phases (no jump
    # there, so the closing left limits equal the values), over chunks of 7 lags that end ragged; the
    # products share the base through views, stars and lagged copies, and |.|**alpha alters none twice
    monkeypatch.setattr(quadrature, "_LATTICE_CHUNK", 7)
    base = _LATTICE_BASES[family]
    ks = _lattice_combinations(base, delta, power_weights=family != "fn01")
    star, star_abs = ks.get("star_power", ks["star_finite"]), ks.get("star_power_abs", ks["star_finite_abs"])
    products = [
        [(base, 0)],
        [(base, 0), (base, 0)],
        [(base, 0), (ks["star_finite"], 0)],
        [(base, 2), (ks["star_finite_abs"], -1)],
        [(star, 0), (base, 1), (star_abs, 0)],
        [(ks["shifted"], 0), (base, 3), (ks["ls_first"], 1)],
    ]
    nodes = delta * np.linspace(0.03, 0.97, 9)
    s_lo, s_hi = -3, 40
    got = _lattice_sums(products, nodes, s_lo, s_hi, delta, alpha)
    for row, product in zip(got, products):
        ref = np.zeros_like(nodes)
        for s in range(s_lo, s_hi + 1):
            vals = [np.asarray(k.eval(nodes + (s + lag) * delta)) for k, lag in product]
            ref += math.prod(vals if alpha is None else [np.abs(v) ** alpha for v in vals])
        np.testing.assert_allclose(row, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))


@pytest.mark.parametrize("call", ["base_star", "base_base", "lag_gram"])
def test_period_integrals_sample_each_base_once_per_chunk(call, monkeypatch):
    # phi and b * phi, phi twice, and the m lagged copies of lag_gram all read one base lattice per
    # lag chunk, over the union of their rows, plus its closing left-limit column
    k, delta, m = FractionalNoise(0.1), 1.0, 4
    star = star_conv_kernel(FiniteSupport((0.5, -0.8, 0.3)), k, delta)
    points, real_eval = [], FractionalNoise.eval
    monkeypatch.setattr(FractionalNoise, "eval", lambda self, t: points.append(np.size(t)) or real_eval(self, t))
    if call == "lag_gram":
        s_lo, s_hi = lattice_s_range([k, k], delta)
        spread = m
        lag_gram(k, m, delta)
    else:
        ks = [k, star] if call == "base_star" else [k, k]
        s_lo, s_hi = lattice_s_range(ks, delta)
        offsets = _lattice_combo(ks[1], delta)[1]
        spread = offsets.max() - offsets.min()
        phase_integral(ks, delta)
    chunks = -(-(s_hi - s_lo + 1) // 8192)
    assert chunks > 1
    assert len(points) == 2 * chunks
    assert sum(points) == (s_hi - s_lo + 1 + spread * chunks) * (513 + 1)  # 513 nodes, one left-limit column


def test_combination_kernels_are_never_evaluated_point_by_point(monkeypatch):
    # every call reads its lattice combinations through the base kernel, with
    # values equal bit for bit to an unpatched run
    from cmaqf.conditions import check_conditions
    from cmaqf.levy import CompoundPoissonNormal
    from cmaqf.variance import autocov_clt_sigma, eta2_qn, eta2_sn

    ou, cpn, power = ExponentialOU(1.0), CompoundPoissonNormal(1.0, 1.0), PowerDecay(1.0, 1.5, 1.0)
    pair = ls_kernel_pair(ou, *poly_map([[0.5, 0.3], [0.1, -0.2]]), 0.4, 1.0)
    calls = {
        "eta2_qn": lambda: eta2_qn(ou, power, cpn, 1.0).to_dict(),
        "qn_general": lambda: check_conditions("qn_general", ou, b=power, Delta=0.7, model=cpn).to_dict(),
        # the sn_general check takes |signed combination|, which has no lattice reading
        "ls_eta2_sn": lambda: eta2_sn(*pair, cpn, 1.0, check="skip").to_dict(),
        "autocov": lambda: autocov_clt_sigma(ou, cpn, 1.0, 3).tolist(),
    }
    expect = {name: call() for name, call in calls.items()}

    def refuse(self, t):
        raise AssertionError("a lattice combination was evaluated point by point")

    monkeypatch.setattr(LinComboKernel, "eval", refuse)
    monkeypatch.setattr(LinComboKernel, "left_limit", refuse)
    covariance._cached_product.cache_clear()
    assert {name: call() for name, call in calls.items()} == expect


def test_tail_warning_when_bound_exceeds_one_percent():
    slow = PowAbsKernel(FractionalNoise(0.1), 0.58)  # decays like t^-0.52; pair sum barely converges
    with pytest.warns(RuntimeWarning, match="tail bound"):
        crosscovariance(slow, slow, 1.0, 0.0)


def _power_tailed_table():
    step = 1.0 / 16.0
    ts = np.arange(0, 1025) * step
    return TabulatedKernel(t0=0.0, step=step, values=np.where(ts >= 1.0, np.maximum(ts, 1.0) ** -0.7, 1.0))


ONE_LAG_PAIRS = {
    "ou": (ExponentialOU(1.0), ExponentialOU(1.0)),
    "carma21_ou": (build_carma((3.0, 2.0), (3.0, 1.0), 1), ExponentialOU(1.0)),
    "fn": (FractionalNoise(0.1), FractionalNoise(0.1)),
    "fn_ou": (FractionalNoise(0.1), ExponentialOU(1.0)),
    "table": (_power_tailed_table(), _power_tailed_table()),
}


@pytest.mark.parametrize("pair", sorted(ONE_LAG_PAIRS))
def test_crosscovariance_is_the_one_lag_call_of_covariance_lags(pair):
    k1, k2 = ONE_LAG_PAIRS[pair]
    for h in (-2.5, 0.0, 0.7, 3.0):
        s = int(np.sign(h))
        lags = covariance_lags(k1, k2, 1.3, abs(h) or 1.0, s, s, base_step=1.0 / 64.0)
        assert crosscovariance(k1, k2, 1.3, h) == lags[0], h
        if k1 == k2:
            assert autocovariance(k1, 1.3, h) == crosscovariance(k1, k2, 1.3, abs(h)), h


def test_one_lag_covariances_of_exponential_modes_take_the_closed_form():
    ou, carma = ExponentialOU(1.0), build_carma((3.0, 2.0), (3.0, 1.0), 1)  # carma: 2 e^-t - e^-2t
    for h in (-2.5, 0.0, 0.7, 3.0):
        a = abs(h)
        assert crosscovariance(ou, ou, 1.3, h) == pytest.approx(0.65 * math.exp(-a), rel=1e-15, abs=0.0)
        exact = 2.0 / 3.0 * math.exp(-a) if h >= 0 else math.exp(-a) - math.exp(-2.0 * a) / 3.0
        assert crosscovariance(carma, ou, 1.3, h) == pytest.approx(1.3 * exact, rel=1e-15, abs=0.0)
    assert autocovariance(ou, 2.0, 1.5) == math.exp(-1.5)


def test_a_lag_that_is_not_finite_is_refused():
    for h in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="h must be finite"):
            crosscovariance(ExponentialOU(1.0), ExponentialOU(1.0), 1.0, h)
        with pytest.raises(ParameterError, match="h must be finite"):
            autocovariance(FractionalNoise(0.1), 1.0, h)


@pytest.mark.parametrize("h", [1e-4, -1e-4, 2.0**-1000])
def test_a_lattice_combination_at_a_tiny_lag_is_integrated_whole(h):
    # offsets 0 and 1/|h| would widen the base range as 1/|h|; at 2**-1000 they overflow an int64
    k = LinComboKernel(ExponentialOU(1.0), (0.0, 1.0), (1.0, -0.5))
    start = time.perf_counter()
    assert crosscovariance(k, k, 1.3, h) == 1.3 * product_integral(k, k, abs(h), base_step=1.0 / 64.0).value
    assert time.perf_counter() - start < 0.5


def test_per_lag_quadrature_warns_once_per_call_when_it_cuts_a_tail():
    slow = PowAbsKernel(FractionalNoise(0.1), 0.58)  # every lag's tail bound exceeds 1% of its value
    with pytest.warns(RuntimeWarning, match="tail bound") as caught:
        covariance_lags(slow, slow, 1.0, 1.0, 0, 2)
    assert len(caught) == 1


def test_star_conv_kernel_power_decay_truncation():
    ou = ExponentialOU(1.0)
    pd = PowerDecay(c=1.0, rho=1.5, b0=1.0)
    k = star_conv_kernel(pd, ou, 1.0)
    # oracle at t = 0.5: sum_s b(s) e^{-(0.5 - s)} over s <= 0 (causality)
    s = np.arange(0, -4000, -1)
    w = np.abs(np.where(s == 0, 1.0, s)) ** -1.5
    oracle = float(np.sum(w * np.exp(-(0.5 - s))))
    assert k.eval(0.5) == pytest.approx(oracle, rel=1e-9)


from hypothesis import assume, example, given, settings
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


_COMBO_BASES = {
    "ou": (ExponentialOU(0.8), lambda h: math.exp(-0.8 * abs(h)) / 1.6),
    "carma": (build_carma((3.0, 2.0), (3.0, 1.0), 1), _carma_gamma),
}
_lattice_terms = st.lists(
    st.tuples(st.integers(-6, 6), st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 0.05)), min_size=1, max_size=4
)


@given(
    family=st.sampled_from(sorted(_COMBO_BASES)),
    delta=st.floats(0.1, 2.0),
    terms1=_lattice_terms,
    terms2=st.one_of(st.none(), _lattice_terms),
    absolute=st.booleans(),
)
@example(family="ou", delta=0.7, terms1=[(-2, 1.0), (-2, -0.4), (3, 0.5)], terms2=[(1, 2.0), (-6, -1.0)],
         absolute=False)
@settings(max_examples=40, deadline=None)
def test_lattice_combination_lags_are_double_sums_of_base_covariances(family, delta, terms1, terms2, absolute):
    # both bases are non-negative, so the absolute companion of a combination
    # with |coefficients| has the same closed form
    base, gamma = _COMBO_BASES[family]
    sigma2 = 1.3

    def combo(terms):
        if terms is None:
            return base, [(0, 1.0)]
        if absolute:
            terms = [(a, abs(c)) for a, c in terms]
            inner = LinComboKernel(PowAbsKernel(base, 1.0), [a * delta for a, _ in terms], [c for _, c in terms])
            return PowAbsKernel(inner, 1.0), terms
        return LinComboKernel(base, [a * delta for a, _ in terms], [c for _, c in terms]), terms

    (k1, t1), (k2, t2) = combo(terms1), combo(terms2)
    lags = np.arange(-3, 4)
    got = covariance_lags(k1, k2, sigma2, delta, -3, 3)
    exact = [sigma2 * sum(c * d * gamma((s + a - b) * delta) for a, c in t1 for b, d in t2) for s in lags]
    scale = sigma2 * sum(abs(c * d) for _, c in t1 for _, d in t2) * gamma(0.0)
    quad = [sigma2 * product_integral(k1, k2, s * delta, base_step=delta / 256).value for s in lags]
    np.testing.assert_allclose(got, exact, rtol=1e-9, atol=1e-9 * scale)
    np.testing.assert_allclose(got, quad, rtol=1e-9, atol=1e-9 * scale)


def test_off_lattice_and_signed_absolute_combinations_stay_on_per_lag_quadrature():
    ou = ExponentialOU(1.0)
    off_lattice = LinComboKernel(ou, shifts=(0.0, 0.35), coeffs=(1.0, -0.5))
    # |sum c phi| differs from sum |c| |phi| once a coefficient is negative
    signed_abs = PowAbsKernel(LinComboKernel(PowAbsKernel(ou, 1.0), shifts=(0.0, 1.0), coeffs=(1.0, -0.5)), 1.0)
    for k1, k2 in ((ou, off_lattice), (PowAbsKernel(ou, 1.0), signed_abs)):
        got = covariance_lags(k1, k2, 1.0, 1.0, -3, 3)
        per_lag = [product_integral(k1, k2, float(s), base_step=1.0 / 256).value for s in range(-3, 4)]
        assert got.tolist() == per_lag


def test_eta2_qn_integrates_no_combination_kernel(monkeypatch):
    # a work bound, not a wall clock: the convolved kernel (29 lattice shifts
    # each way) and its absolute companion reach quadrature only through their base
    from cmaqf import covariance
    from cmaqf.levy import CompoundPoissonNormal
    from cmaqf.variance import eta2_qn

    seen = []
    real = covariance.product_integral

    def spy(k1, k2, *args, **kwargs):
        seen.extend((k1, k2))
        return real(k1, k2, *args, **kwargs)

    monkeypatch.setattr(covariance, "product_integral", spy)
    covariance._cached_product.cache_clear()
    b = FiniteSupport(tuple((-0.8) ** k for k in range(30)))
    eta2_qn(ExponentialOU(1.0), b, CompoundPoissonNormal(1.0, 1.0), 1.0)
    combos = [k for k in seen if isinstance(k, LinComboKernel) or isinstance(getattr(k, "base", None), LinComboKernel)]
    assert seen and not combos


@st.composite
def _modal_kernels(draw):
    # OU, or a CARMA(p <= 3) with separated real roots or a complex pair, any MA order up to full
    if draw(st.booleans()):
        return ExponentialOU(draw(st.floats(0.2, 2.5)))
    rates = st.floats(0.3, 1.0)
    if draw(st.booleans()):
        r1 = draw(rates)
        roots = [-r1, -(r1 + draw(rates))]
    else:
        alpha, beta = draw(rates), draw(st.floats(0.3, 1.5))
        roots = [complex(-alpha, beta), complex(-alpha, -beta)]
    if draw(st.booleans()):
        roots.append(min(r.real for r in roots) - draw(rates))
    p = len(roots)
    q = draw(st.integers(0, p - 1))
    b = [draw(st.floats(-1.0, 1.0)) for _ in range(q)] + [1.0] + [0.0] * (p - 1 - q)
    return build_carma(tuple(np.poly(roots)[1:].real), tuple(b), q)


@given(k1=_modal_kernels(), k2=_modal_kernels(), delta=st.floats(0.1, 2.0))
@settings(max_examples=40, deadline=None)
def test_modal_closed_form_matches_per_lag_quadrature(k1, k2, delta):
    assert k1.modes is not None and k2.modes is not None
    # Simpson's relative error is about (rate * step)^4 / 180: a fixed fine step keeps the
    # reference well below 1e-9 for every drawn rate (|mu_i + nu_j| <= 5.5)
    sigma2 = 0.7
    got = covariance_lags(k1, k2, sigma2, delta, -4, 4)
    quad = np.array([sigma2 * product_integral(k1, k2, s * delta, base_step=1.0 / 512).value for s in range(-4, 5)])
    np.testing.assert_allclose(got, quad, rtol=1e-9, atol=1e-9 * np.abs(quad).max())


def test_kernels_without_modes_stay_on_per_lag_quadrature():
    repeated = build_carma((2.0, 1.0), (1.0, 0.0), 0)  # (z + 1)^2: a defective A takes the expm fallback
    ou_abs = PowAbsKernel(ExponentialOU(1.0), 1.0)
    assert repeated.modes is None and ou_abs.modes is None
    # one side with modes is not enough; the fallback evaluates point by point, so few lags
    for k1, k2 in ((repeated, ExponentialOU(0.5)), (ou_abs, ou_abs)):
        got = covariance_lags(k1, k2, 1.0, 2.0, 0, 1)
        per_lag = [product_integral(k1, k2, s * 2.0, base_step=2.0 / 256).value for s in (0, 1)]
        assert got.tolist() == per_lag


def test_eta2_qn_of_ou_makes_no_quadrature_call(monkeypatch):
    from cmaqf import covariance
    from cmaqf.levy import CompoundPoissonNormal
    from cmaqf.variance import eta2_qn

    calls = []
    monkeypatch.setattr(covariance, "product_integral", lambda *args, **kwargs: calls.append(args))
    covariance._cached_product.cache_clear()
    rep = eta2_qn(ExponentialOU(1.0), PowerDecay(1.0, 1.5, 1.0), CompoundPoissonNormal(1.0, 1.0), 1.0, check="skip")
    assert calls == [] and np.isfinite(rep.eta2)


@pytest.mark.parametrize("kernels", [(ExponentialOU(1.0),) * 2, (ExponentialOU(1.0), PowAbsKernel(ExponentialOU(1.0), 1.0))])
def test_empty_lag_range_raises(kernels):
    k1, k2 = kernels
    with pytest.raises(ParameterError, match="empty lag range"):
        covariance_lags(k1, k2, 1.0, 1.0, 3, 1)
    combo = star_conv_kernel(FiniteSupport((1.0, 0.5)), k1, 1.0)
    with pytest.raises(ParameterError, match="empty lag range"):
        covariance_lags(combo, k2, 1.0, 1.0, 3, 1)


@given(a=st.floats(0.55, 0.8) | st.floats(1.2, 1.6), b=st.floats(0.55, 0.8) | st.floats(1.2, 1.6))
@example(a=0.8, b=0.6)  # gamma of FractionalNoise(0.1) against PowerDecay rho 0.6: rule 0.4, min(a, b) 0.6
@example(a=0.6, b=0.7)
@example(a=0.6, b=1.2)
@example(a=0.8, b=1.5)
@settings(max_examples=12, deadline=None)
def test_conv_exponent_matches_log_log_slope_of_a_convolution(a, b):
    from cmaqf.covariance import conv_exponent

    assume(a + b >= 1.2)
    N = 2**16
    s = np.maximum(np.abs(np.arange(-N, N + 1)), 1.0)
    n = 1 << (4 * N).bit_length()
    conv = np.fft.irfft(np.fft.rfft(s**-a, n) * np.fft.rfft(s**-b, n), n)[2 * N : 3 * N + 1]  # lags 0..N
    k = np.arange(2**8, 2**11 + 1)
    slope = -np.polyfit(np.log(k), np.log(conv[k]), 1)[0]
    # truncation at N and lower-order terms bias the slope by up to ~0.06 on this range;
    # where both exponents are below 1 the old rule min(a, b) is off by 1 - max(a, b) >= 0.2
    assert conv_exponent(a, b) == pytest.approx(slope, abs=0.08)


@pytest.mark.parametrize("d, rho", [(0.2, 0.7), (0.1, 0.6)])
def test_eta2_qn_refuses_a_b_star_gamma_outside_l2_at_once(d, rho):
    from cmaqf.levy import BrownianMotion
    from cmaqf.variance import eta2_qn

    t0 = time.perf_counter()
    with pytest.raises(ConvergenceError, match="not square summable"):
        eta2_qn(FractionalNoise(d), PowerDecay(1.0, rho, 1.0), BrownianMotion(1.0), 1.0, check="skip")
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("make, error, name", [
    (lambda: FiniteSupport(()), ParameterError, "values"),
    (lambda: star_conv_kernel(PowerDecay(1.0, 0.05, 1.0), FractionalNoise(0.1), 1.0), ConvergenceError, "rho_b"),
], ids=["empty_finite_support", "divergent_star_sum"])
def test_refused_coefficient_inputs_name_the_input(make, error, name):
    with pytest.raises(error, match=name):
        make()


def test_star_conv_of_all_zero_weights_keeps_the_zero_shift_term():
    conv = star_conv_kernel(FiniteSupport((0.0, 0.0)), ExponentialOU(1.0), 1.0)
    assert conv.shifts == (0.0,) and conv.coeffs == (0.0,)
