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
    ],
)
def test_invalid_parameters_raise(bad):
    with pytest.raises(ParameterError):
        bad()


@pytest.mark.parametrize(
    "model",
    [BrownianMotion(2.0), CompoundPoissonNormal(1.0, 1.0), BilateralGamma(2.0, 1.0)],
)
def test_sampling_deterministic(model):
    a = model.sample_increments(1000, 0.5, stream(123, 4))
    b = model.sample_increments(1000, 0.5, stream(123, 4))
    assert np.array_equal(a, b)


def test_sampling_edge_cases():
    model = BrownianMotion(1.0)
    assert model.sample_increments(0, 1.0, stream(0, 0)).size == 0
    with pytest.raises(ParameterError):
        model.sample_increments(10, 0.0, stream(0, 0))
    with pytest.raises(ParameterError):
        model.sample_increments(-1, 1.0, stream(0, 0))


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
