from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmaqf import simulate
from cmaqf.covariance import FiniteSupport, PowerDecay
from cmaqf.errors import GridError, ParameterError, TruncationError
from cmaqf.kernels import (
    ExponentialOU,
    FractionalNoise,
    LinComboKernel,
    PowAbsKernel,
    TabulatedKernel,
    build_carma,
    grid_sample,
)
from cmaqf.levy import BilateralGamma, BrownianMotion, CompoundPoissonNormal, stream
from cmaqf.quadrature import product_integral
from cmaqf.simulate import (
    PathConfig,
    SamplePath,
    compute_qn,
    compute_sn,
    ls_derivative,
    normalized_statistic,
    resolve_horizon,
    sample_autocov,
    simulate_pair,
    simulate_path,
    stochastic_integrals_joint,
)


def path_of(values):
    return SamplePath(values=np.asarray(values, dtype=float), delta=1.0)


def test_zero_kernel_gives_zero_path():
    zero = TabulatedKernel(t0=0.0, step=0.25, values=np.zeros(16))
    p = simulate_path(zero, BrownianMotion(1.0), PathConfig(delta=1.0, n=32, fine_steps=4, horizon=4.0))
    assert np.all(p.values == 0.0)


def test_simulation_deterministic_and_provenance():
    cfg = PathConfig(delta=1.0, n=64, fine_steps=16, seed=9, stream_index=2)
    a = simulate_path(ExponentialOU(1.0), BrownianMotion(2.0), cfg)
    b = simulate_path(ExponentialOU(1.0), BrownianMotion(2.0), cfg)
    assert np.array_equal(a.values, b.values)
    assert a.provenance == b.provenance
    c = simulate_path(ExponentialOU(1.0), BrownianMotion(2.0), PathConfig(delta=1.0, n=64, fine_steps=16, seed=9, stream_index=3))
    assert not np.array_equal(a.values, c.values)
    assert (a.provenance["route"], a.provenance["rank"]) == ("lowrank", 1)
    assert simulate_path(ExponentialOU(1.0), BrownianMotion(2.0), cfg, method="direct").provenance["route"] == "direct"
    wide = simulate_path(FractionalNoise(0.1), BrownianMotion(1.0), PathConfig(delta=1.0, n=300, fine_steps=8, horizon=1024.0))
    assert wide.provenance["route"] == "fft"
    with pytest.raises(ParameterError):
        simulate_path(ExponentialOU(1.0), BrownianMotion(2.0), cfg, method="fft")


def test_ou_sample_variance_near_stationary_value():
    cfg = PathConfig(delta=1.0, n=50_000, fine_steps=64, seed=21)
    p = simulate_path(ExponentialOU(1.0), BrownianMotion(2.0), cfg)
    assert abs(np.var(p.values) - 1.0) < 0.05


def test_fft_matches_direct_window_sums():
    cfg = PathConfig(delta=1.0, n=128, fine_steps=64, seed=3)
    fast = simulate_path(ExponentialOU(1.0), BrownianMotion(2.0), cfg)
    slow = simulate_path(ExponentialOU(1.0), BrownianMotion(2.0), cfg, method="direct")
    rel = np.max(np.abs(fast.values - slow.values) / np.maximum(np.abs(slow.values), 1e-30))
    assert rel < 1e-10


def test_fft_matches_direct_for_noncausal_combo():
    combo = LinComboKernel(base=ExponentialOU(1.0), shifts=(-2.0, 1.0), coeffs=(0.5, 1.0))
    cfg = PathConfig(delta=1.0, n=64, fine_steps=16, seed=5, horizon=32.0)
    fast = simulate_path(combo, BrownianMotion(1.0), cfg)
    slow = simulate_path(combo, BrownianMotion(1.0), cfg, method="direct")
    assert np.allclose(fast.values, slow.values, rtol=1e-10, atol=1e-12)


NONCAUSAL = LinComboKernel(base=ExponentialOU(1.0), shifts=(-1.3, 0.7), coeffs=(0.5, -1.0))
CARMA_COMPLEX = build_carma((1.0, 2.0), (0.5, 1.0), 1)  # roots (-1 +- i sqrt 7) / 2
# |phi| of the oscillating CARMA kernel kinks at each zero, so its phase matrix has rank above 4
ABS_CARMA = PowAbsKernel(CARMA_COMPLEX, 1.0)
LOW_RANK = (ExponentialOU(1.0), ExponentialOU(2.0), NONCAUSAL)


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.sampled_from(LOW_RANK),
    fine_steps=st.integers(1, 64),
    n=st.integers(1, 300),
    horizon=st.sampled_from([8.0, 16.0, 32.0, 64.0]),
    seed=st.integers(0, 2**32),
)
@example(kernel=ExponentialOU(1.0), fine_steps=64, n=300, horizon=64.0, seed=0)  # low-rank product
@example(kernel=ABS_CARMA, fine_steps=8, n=40, horizon=16.0, seed=0)  # block product
@example(kernel=FractionalNoise(0.1), fine_steps=8, n=300, horizon=1024.0, seed=0)  # FFT
def test_fast_routes_match_direct_property(kernel, fine_steps, n, horizon, seed):
    cfg = PathConfig(delta=1.0, n=n, fine_steps=fine_steps, horizon=horizon, seed=seed)
    fast = simulate_path(kernel, CompoundPoissonNormal(1.0, 1.0), cfg)
    slow = simulate_path(kernel, CompoundPoissonNormal(1.0, 1.0), cfg, method="direct")
    assert fast.provenance["route"] in ("lowrank", "blocked", "fft")
    assert (fast.provenance["route"] == "lowrank") == (kernel in LOW_RANK)
    assert np.max(np.abs(fast.values - slow.values)) <= 1e-12 * np.max(np.abs(slow.values))


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.sampled_from([ExponentialOU(1.0), CARMA_COMPLEX, NONCAUSAL]),
    delta=st.sampled_from([0.7, 1.0]),
    fine_steps=st.integers(1, 64),
    n=st.integers(1, 300),
    periods=st.sampled_from([8, 32, 64]),
    model=st.sampled_from([BrownianMotion(1.0), CompoundPoissonNormal(1.0, 1.0), BilateralGamma(1.0, 2.0)]),
    seed=st.integers(0, 2**32),
)
def test_lowrank_route_matches_direct_property(kernel, delta, fine_steps, n, periods, model, seed):
    # a phase matrix of rank at most 4 takes the low-rank route at every size
    cfg = PathConfig(delta=delta, n=n, fine_steps=fine_steps, horizon=periods * delta, seed=seed, tail_mass_budget=1.0)
    fast = simulate_path(kernel, model, cfg)
    slow = simulate_path(kernel, model, cfg, method="direct")
    assert fast.provenance["route"] == "lowrank" and 1 <= fast.provenance["rank"] <= 4
    assert np.max(np.abs(fast.values - slow.values)) <= 1e-12 * np.max(np.abs(slow.values))


def test_zero_phase_matrix_has_rank_zero():
    zero = TabulatedKernel(t0=0.0, step=0.25, values=np.zeros(16))
    p = simulate_path(zero, BrownianMotion(1.0), PathConfig(delta=1.0, n=32, fine_steps=4, horizon=4.0))
    assert (p.provenance["route"], p.provenance["rank"]) == ("lowrank", 0)
    assert np.all(p.values == 0.0)


def test_route_and_rank_follow_the_phase_matrix():
    # exponential-mode kernels have one basis row per mode; fractional noise needs 9 > 4,
    # so after one failed detection it takes the block product
    cfg = PathConfig(delta=1.0, n=400, fine_steps=64, seed=2)
    carma = build_carma((3.0, 2.0), (3.0, 1.0), 1)
    for kernel, rank in ((ExponentialOU(1.0), 1), (carma, 2)):
        p = simulate_path(kernel, BrownianMotion(1.0), cfg)
        assert (p.provenance["route"], p.provenance["rank"]) == ("lowrank", rank)
    wide = replace(cfg, horizon=64.0, tail_mass_budget=1.0)
    fn = simulate_path(FractionalNoise(0.1), BrownianMotion(1.0), wide)
    assert (fn.provenance["route"], fn.provenance["rank"]) == ("blocked", None)
    slow = simulate_path(FractionalNoise(0.1), BrownianMotion(1.0), wide, method="direct")
    assert np.max(np.abs(fn.values - slow.values)) <= 1e-12 * np.max(np.abs(slow.values))
    x1, x2 = simulate_pair(carma, ExponentialOU(0.5), BrownianMotion(1.0), cfg)
    assert [(x.provenance["route"], x.provenance["rank"]) for x in (x1, x2)] == [("lowrank", 2), ("lowrank", 1)]
    s1, s2 = simulate_pair(carma, ExponentialOU(0.5), BrownianMotion(1.0), cfg, method="direct")
    for fast, slow in ((x1, s1), (x2, s2)):
        assert np.max(np.abs(fast.values - slow.values)) <= 1e-12 * np.max(np.abs(slow.values))


@pytest.mark.parametrize("fine_steps", [1, 4, 8])
def test_exponential_mode_kernels_take_the_lowrank_route_at_every_fine_step(fine_steps):
    # the rank alone picks the low-rank product, also where the block product needs few multiply-adds
    cfg = PathConfig(delta=1.0, n=4000, fine_steps=fine_steps, seed=3)
    for kernel, rank in ((ExponentialOU(1.0), 1), (build_carma((3.0, 2.0), (3.0, 1.0), 1), min(2, fine_steps))):
        fast = simulate_path(kernel, BrownianMotion(1.0), cfg)
        slow = simulate_path(kernel, BrownianMotion(1.0), cfg, method="direct")
        assert (fast.provenance["route"], fast.provenance["rank"]) == ("lowrank", rank)
        assert np.max(np.abs(fast.values - slow.values)) <= 1e-12 * np.max(np.abs(slow.values))


def test_block_or_fft_choice_counts_the_window_cells():
    # (n, fine_steps, weights): n = 4000 with P = 257 phase rows is faster by FFT at every
    # fine_steps; with P = 65 at fine_steps 8 the block product is faster
    assert simulate._fast_route(4000, 1, 257) == "fft"
    assert simulate._fast_route(4000, 8, 257 * 8 - 7) == "fft"
    assert simulate._fast_route(4000, 8, 65 * 8 - 7) == "blocked"


def test_power_tail_horizon_search_integrates_the_squared_mass_once(monkeypatch):
    calls = []
    monkeypatch.setattr(simulate, "product_integral", lambda *a, **kw: calls.append(a) or product_integral(*a, **kw))
    p = simulate_path(FractionalNoise(0.1), BrownianMotion(1.0), PathConfig(delta=1.0, n=10, fine_steps=8))
    assert len(calls) == 2  # the horizon search (64 to 1024 delta) and the provenance's tail mass
    assert p.provenance["tail_mass_rel"] <= 1e-4


def test_discretization_second_order_and_within_budget():
    # deterministic second-moment of the discretised process: sigma2 * step * sum w^2
    lam, sigma2 = 1.0, 2.0
    kernel = ExponentialOU(lam)

    def discrete_var(m):
        step = 1.0 / m
        j = np.arange(0, 64 * m + 1)
        w = kernel.eval((j - 0.5) * step)
        return sigma2 * step * float(np.sum(w**2))

    errs = [abs(discrete_var(m) - 1.0) for m in (16, 32, 64)]
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert errs[2] < errs[1] < errs[0]
    assert errs[0] / errs[1] > 3.0  # O(step^2) halving signature


def test_paired_simulation_common_driver_crosscovariance():
    k1, k2 = ExponentialOU(1.0), ExponentialOU(2.0)
    cfg = PathConfig(delta=1.0, n=100_000, fine_steps=32, seed=13)
    x1, x2 = simulate_pair(k1, k2, BrownianMotion(2.0), cfg)
    emp = float(np.mean(x1.values * x2.values))
    assert abs(emp - 2.0 / 3.0) < 0.05 * (2.0 / 3.0)


def test_pair_with_same_kernel_reproduces_single_path():
    cases = (
        (ExponentialOU(1.0), PathConfig(delta=1.0, n=64, fine_steps=8, seed=1), "lowrank"),
        (ABS_CARMA, PathConfig(delta=1.0, n=64, fine_steps=8, horizon=16.0, seed=1), "blocked"),
        (FractionalNoise(0.1), PathConfig(delta=1.0, n=300, fine_steps=8, horizon=1024.0, seed=1), "fft"),
    )
    for kernel, cfg, route in cases:
        x1, x2 = simulate_pair(kernel, kernel, BrownianMotion(1.0), cfg)
        single = simulate_path(kernel, BrownianMotion(1.0), cfg)
        assert single.provenance["route"] == route
        assert np.array_equal(x1.values, x2.values)
        assert np.array_equal(x1.values, single.values)


def test_truncation_budget_enforced():
    fn = FractionalNoise(0.1)
    with pytest.raises(TruncationError) as err:
        resolve_horizon(fn, PathConfig(delta=1.0, n=10, fine_steps=8, horizon=64.0))
    assert "budget" in str(err.value)
    assert resolve_horizon(fn, PathConfig(delta=1.0, n=10, fine_steps=8)) == 1024.0
    with pytest.raises(ParameterError):
        PathConfig(delta=1.0, n=10, horizon=3.5)


def test_path_config_rejects_keys_outside_64_bits():
    with pytest.raises(ParameterError):
        PathConfig(delta=1.0, n=10, seed=2**64)
    with pytest.raises(ParameterError):
        PathConfig(delta=1.0, n=10, stream_index=-1)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_compute_sn_examples():
    assert compute_sn(path_of([1, 2, 3]), path_of([1, 2, 3])) == 14.0
    assert compute_sn(path_of([1, 2, 3]), path_of([0, 0, 0])) == 0.0
    assert compute_sn(path_of([1, -1]), path_of([1, 1])) == 0.0
    with pytest.raises(ParameterError):
        compute_sn(path_of([1, 2]), path_of([1, 2, 3]))


def test_compute_qn_examples():
    assert compute_qn(path_of([1, 2, 3]), FiniteSupport.delta0()) == 14.0
    c = 0.7
    x1, x2 = 1.3, -0.4
    val = compute_qn(path_of([x1, x2]), FiniteSupport(values=(1.0, c)))
    assert val == pytest.approx(x1**2 + x2**2 + 2 * c * x1 * x2, rel=1e-14)


def brute_force_qn(x, b):
    n = len(x)
    return float(sum(b.weight(t - s) * x[t] * x[s] for t in range(n) for s in range(n)))


@pytest.mark.parametrize("b", [FiniteSupport.delta0(), FiniteSupport(values=(0.2, 1.0, 0.0, 0.5)), PowerDecay(c=0.8, rho=1.3, b0=1.0)])
def test_compute_qn_against_double_loop(b):
    rng = np.random.default_rng(7)
    for n in (17, 100, 256):
        x = rng.standard_normal(n)
        fast = compute_qn(path_of(x), b)
        slow = brute_force_qn(x, b)
        assert fast == pytest.approx(slow, rel=1e-12)


def test_sample_autocov_examples_and_oracle():
    ones = path_of(np.ones(10))
    assert sample_autocov(ones, 1)[0] == pytest.approx(9.0 / 10.0, rel=1e-15)
    x = path_of([1.0, 0.0, -1.0, 0.0, 2.0])
    assert sample_autocov(x, 3)[2] == pytest.approx((1 * 0 + 0 * 2) / 5.0, abs=1e-15)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(64)
    got = sample_autocov(path_of(v), 5)
    for j in range(1, 6):
        oracle = sum(v[t] * v[t + j] for t in range(64 - j)) / 64.0
        assert got[j - 1] == pytest.approx(oracle, rel=1e-12)
    with pytest.raises(ParameterError):
        sample_autocov(path_of(v), 63)


def test_ls_derivative_examples():
    v = lambda th: np.array([th])
    vp = lambda th: np.array([1.0])
    assert ls_derivative(path_of([1, 2, 3]), v, vp, 1.0, 1) == -6.0
    vp0 = lambda th: np.array([0.0])
    assert ls_derivative(path_of([1, 2, 3]), v, vp0, 1.0, 1) == 0.0
    # k = 2 hand expansion on a length-4 path
    v2 = lambda th: np.array([th, 0.5])
    vp2 = lambda th: np.array([1.0, 0.0])
    x = [1.0, 2.0, -1.0, 0.5]
    th = 0.3
    expect = 0.0
    for t in (3, 4):
        res = x[t - 1] - (th * x[t - 2] + 0.5 * x[t - 3])
        expect += -2.0 * res * x[t - 2]
    assert ls_derivative(path_of(x), v2, vp2, th, 2) == pytest.approx(expect, rel=1e-14)


def test_normalized_statistic():
    assert normalized_statistic(5.0, 5.0, 9) == 0.0
    assert normalized_statistic(5.0 + 3.0, 5.0, 9) == 1.0
    a = normalized_statistic(2.0, 0.5, 4)
    b = normalized_statistic(4.0, 0.5, 4)
    c = normalized_statistic(6.0, 0.5, 4)
    assert b - a == pytest.approx(c - b, rel=1e-15)  # linear in raw


def test_fractional_path_smoke_and_disclosed_bias():
    fn = FractionalNoise(0.1)
    cfg = PathConfig(delta=1.0, n=2000, fine_steps=16, seed=2)
    p = simulate_path(fn, BrownianMotion(1.0), cfg)
    assert np.all(np.isfinite(p.values))
    assert 0.0 < p.provenance["tail_mass_rel"] < 1e-4  # power-tail bias disclosed, within budget
    # crude stationary-variance sanity at 10%
    from cmaqf.covariance import autocovariance

    assert abs(np.var(p.values) - autocovariance(fn, 1.0, 0.0)) < 0.1


def test_stochastic_integrals_deterministic():
    g = grid_sample(ExponentialOU(1.0), 1.0, 8, 8.0)
    a = stochastic_integrals_joint((g,), CompoundPoissonNormal(1.0, 1.0), 1000, stream(3, 1))[0]
    b = stochastic_integrals_joint((g,), CompoundPoissonNormal(1.0, 1.0), 1000, stream(3, 1))[0]
    assert np.array_equal(a, b)


def test_stochastic_integrals_reject_mismatched_grids():
    ou = ExponentialOU(1.0)
    with pytest.raises(GridError):
        stochastic_integrals_joint((grid_sample(ou, 1.0, 8, 8.0), grid_sample(ou, 1.0, 4, 8.0)), BrownianMotion(1.0), 10, stream(0, 0))
