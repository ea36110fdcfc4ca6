import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmaqf.errors import ParameterError
from cmaqf.levy import BilateralGamma, BrownianMotion, CompoundPoissonNormal, stream


def batch_se(values, stat, batches=100):
    """Monte Carlo standard error of a statistic via batch means."""
    chunks = np.array_split(values, batches)
    ests = np.array([stat(c) for c in chunks])
    return float(np.mean(ests)), float(np.std(ests, ddof=1) / math.sqrt(batches))


def test_cumulants_brownian():
    assert BrownianMotion(2.0).cumulants() == (2.0, 0.0)


def test_cumulants_compound_poisson_normal():
    # kappa_m = rate * E[J^m] with J ~ N(0, tau2): kappa2 = rate*tau2, kappa4 = 3*rate*tau2^2
    assert CompoundPoissonNormal(1.0, 1.0).cumulants() == (1.0, 3.0)
    assert CompoundPoissonNormal(2.0, 3.0).cumulants() == (6.0, 54.0)


def test_cumulants_bilateral_gamma():
    # gamma cumulant a*(m-1)!/b^m; the independent difference doubles even orders
    assert BilateralGamma(2.0, 1.0).cumulants() == (4.0, 24.0)
    a, b = 1.5, 2.0
    assert BilateralGamma(a, b).cumulants() == (2 * a / b**2, 12 * a / b**4)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: BrownianMotion(0.0),
        lambda: BrownianMotion(-1.0),
        lambda: CompoundPoissonNormal(0.0, 1.0),
        lambda: CompoundPoissonNormal(1.0, -2.0),
        lambda: BilateralGamma(-1.0, 1.0),
        lambda: BilateralGamma(1.0, 0.0),
        lambda: BrownianMotion(math.inf),
        lambda: BrownianMotion(math.nan),
        lambda: CompoundPoissonNormal(math.inf, 1.0),
        lambda: CompoundPoissonNormal(1.0, math.inf),
        lambda: BilateralGamma(math.inf, 1.0),
        lambda: BilateralGamma(1.0, math.inf),
        # finite parameters whose cumulants overflow or underflow
        lambda: CompoundPoissonNormal(1e200, 1e100),
        lambda: BilateralGamma(1.0, 1e-100),
        lambda: BilateralGamma(1e-300, 1e200),
    ],
)
def test_invalid_parameters_raise(bad):
    with pytest.raises(ParameterError):
        bad()


@pytest.mark.parametrize(
    "model",
    # at dt = 0.5, CompoundPoissonNormal(1, 1) expects fewer jumps than cells and (4, 1) more
    [BrownianMotion(2.0), CompoundPoissonNormal(1.0, 1.0), BilateralGamma(2.0, 1.0), CompoundPoissonNormal(4.0, 1.0)],
)
def test_sampling_deterministic(model):
    a = model.sample_increments(1000, 0.5, stream(123, 4))
    b = model.sample_increments(1000, 0.5, stream(123, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, model.sample_increments(1000, 0.5, stream(123, 5)))
    assert not np.array_equal(a, model.sample_increments(1000, 0.5, stream(124, 4)))


def test_sampling_edge_cases():
    # CompoundPoissonNormal(1e-9, 1) draws no jump in 16 cells, where bincount alone gives int64
    models = (
        BrownianMotion(1.0), CompoundPoissonNormal(1.0, 1.0), CompoundPoissonNormal(1e-9, 1.0), BilateralGamma(2.0, 1.0)
    )
    for model in models:
        empty = model.sample_increments(0, 1.0, stream(0, 0))
        assert empty.shape == (0,) and empty.dtype == np.float64, model
        assert model.sample_increments(16, 1.0, stream(0, 0)).dtype == np.float64, model
        for dt in (0.0, math.inf, math.nan):
            with pytest.raises(ParameterError):
                model.sample_increments(10, dt, stream(0, 0))
        with pytest.raises(ParameterError):
            model.sample_increments(-1, 1.0, stream(0, 0))
    assert not CompoundPoissonNormal(1e-9, 1.0).sample_increments(16, 1.0, stream(0, 0)).any()
    # finite cumulants, but a Poisson mean of 1e301 jumps, beyond what numpy can draw
    with pytest.raises(ParameterError):
        CompoundPoissonNormal(1e300, 1e-300).sample_increments(10, 1.0, stream(0, 0))


# from 1/64 to 2 expected jumps per cell
@pytest.mark.parametrize(
    "rate, dt", [(1.0, 1.0 / 64.0), (2.0, 1.0 / 64.0), (1.0, 1.0), (8.0, 0.25), (1.0 + 2.0**-20, 1.0)]
)
def test_cpn_increment_law(rate, dt):
    # every bound is 4 standard errors, computed from the sample before comparing
    tau2 = 0.5
    model = CompoundPoissonNormal(rate, tau2)
    sigma2, kappa4 = model.cumulants()
    n = 10**6
    x = model.sample_increments(n, dt, stream(21, 2))

    # a cell is exactly zero iff it holds no jump: P = exp(-rate dt), in every
    # quarter of the array, as jumps fall uniformly over the cells
    p0 = math.exp(-rate * dt)
    for quarter in np.split(x, 4):
        assert abs(np.mean(quarter == 0.0) - p0) < 4 * math.sqrt(p0 * (1 - p0) / quarter.size)

    m2, se2 = batch_se(x, lambda c: np.mean(c**2))
    assert abs(m2 - sigma2 * dt) < 4 * se2
    k4, se4 = batch_se(x, lambda c: np.mean(c**4) - 3 * np.mean(c**2) ** 2)
    assert abs(k4 - kappa4 * dt) < 4 * se4

    # cells are independent: lag-1 correlation within 4 / sqrt(n) of zero
    corr = float(np.mean(x[:-1] * x[1:]) / np.mean(x**2))
    assert abs(corr) < 4.0 / math.sqrt(n)


@pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64), (1.5, 0), (0, 1.0)])
def test_stream_rejects_keys_outside_64_bits(seed, index):
    # modulo 2**64, (-1, 0) would collide with (2**64 - 1, 0) and (2**64, 0) with (0, 0)
    with pytest.raises(ParameterError):
        stream(seed, index)


def test_brownian_mean_within_four_se():
    x = BrownianMotion(1.0).sample_increments(10**6, 1.0, stream(7, 0))
    assert abs(x.mean()) < 4.0 / math.sqrt(10**6)


def test_cpn_fourth_moment_within_5pct():
    # E L_1^4 = kappa4 + 3 sigma2^2 = 3 + 3 = 6
    x = CompoundPoissonNormal(1.0, 1.0).sample_increments(10**6, 1.0, stream(8, 0))
    m4 = float(np.mean(x**4))
    assert abs(m4 - 6.0) < 0.05 * 6.0


@pytest.mark.parametrize(
    "model",
    [BrownianMotion(2.0), CompoundPoissonNormal(1.0, 1.0), BilateralGamma(2.0, 1.0)],
)
def test_empirical_cumulants_within_four_se(model):
    sigma2, kappa4 = model.cumulants()
    x = model.sample_increments(10**6, 1.0, stream(42, 1))

    m2, se2 = batch_se(x, lambda c: np.mean(c**2))
    assert abs(m2 - sigma2) < 4 * se2

    k4, se4 = batch_se(x, lambda c: np.mean(c**4) - 3 * np.mean(c**2) ** 2)
    assert abs(k4 - kappa4) < 4 * se4


@pytest.mark.parametrize(
    "model",
    [BrownianMotion(1.5), CompoundPoissonNormal(2.0, 0.5), BilateralGamma(1.0, 2.0)],
)
def test_variance_scales_linearly_in_dt(model):
    sigma2, _ = model.cumulants()
    n = 400_000
    for dt in (0.25, 1.0, 2.0):
        x = model.sample_increments(n, dt, stream(5, 3))
        v, se = batch_se(x, lambda c: np.mean(c**2))
        assert abs(v - sigma2 * dt) < 4 * se


def test_distinct_streams_uncorrelated():
    n = 10**6
    x = BrownianMotion(1.0).sample_increments(n, 1.0, stream(11, 0))
    y = BrownianMotion(1.0).sample_increments(n, 1.0, stream(11, 1))
    assert not np.array_equal(x, y)
    corr = float(np.mean(x * y)) / math.sqrt(np.mean(x**2) * np.mean(y**2))
    assert abs(corr) < 4.0 / math.sqrt(n)


@given(
    rate=st.floats(0.1, 5.0),
    tau2=st.floats(0.1, 5.0),
    a=st.floats(0.1, 5.0),
    b=st.floats(0.1, 5.0),
)
@settings(max_examples=50, deadline=None)
def test_cumulant_signs(rate, tau2, a, b):
    for model in (CompoundPoissonNormal(rate, tau2), BilateralGamma(a, b)):
        s2, k4 = model.cumulants()
        assert s2 > 0 and k4 > 0
    s2, k4 = BrownianMotion(rate).cumulants()
    assert s2 > 0 and k4 == 0.0
