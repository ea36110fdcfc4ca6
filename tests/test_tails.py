import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmaqf import simulate
from cmaqf.covariance import PowerDecay, star_conv_kernel
from cmaqf.errors import TruncationError
from cmaqf.kernels import ExponentialOU, FractionalNoise, build_carma
from cmaqf.quadrature import lattice_s_range
from cmaqf.tails import (
    CompactTail,
    ExpTail,
    PowerTail,
    conv_exponent,
    decay_exponent,
    fit_tail,
    grow_lags,
    grow_radius,
    lattice_tail_sum,
    shifted_sum_tail,
)


@given(
    kind=st.sampled_from(["exp", "power"]),
    decay=st.floats(0.05, 3.0),
    spacing=st.floats(0.1, 4.0).filter(lambda h: h != 1.0),
    start=st.integers(1, 40),
    p=st.sampled_from([1.0, 1.5, 2.0]),
)
@example(kind="power", decay=0.05, spacing=0.1, start=1, p=1.0)
@example(kind="exp", decay=0.05, spacing=0.1, start=1, p=1.0)
@settings(max_examples=60, deadline=None)
def test_lattice_sums_bracket_the_directly_summed_tail(kind, decay, spacing, start, p):
    # envelopes upper = 2 g(t), lower = g(t) / 2 of the model, sampled at s * spacing
    # for |s| >= start and summed directly; the closed-form bracket must contain both
    s = np.arange(start, start + 200_000, dtype=float)
    t = s * spacing
    if kind == "exp":
        tail = ExpTail(constant=2.0, rate=decay, lower=0.5)
        g = np.exp(-decay * t)
        remainder = 0.0  # decay * spacing * p >= 0.005: beyond 2e5 terms the sum is below e**-1000
    else:
        exponent = (1.0 + decay) / p  # exponent * p > 1: the p-th powers are summable
        tail = PowerTail(constant=2.0, exponent=exponent, start=spacing, lower=0.5)
        g = t**-exponent
        a = exponent * p
        remainder = spacing**-a * s[-1] ** (1.0 - a) / (a - 1.0)  # integral bound beyond the last term
    lo, up = lattice_tail_sum(tail, start, p, spacing)
    upper_direct = 2.0 * float(np.sum((2.0 * g) ** p))
    lower_direct = 2.0 * float(np.sum((0.5 * g) ** p))
    assert upper_direct <= up * (1 + 1e-12)
    assert lo <= (lower_direct + 2.0 * 0.5**p * remainder) * (1 + 1e-12)
    assert lo <= up


def test_lattice_sums_honour_start_and_support():
    power = PowerTail(constant=1.0, exponent=2.0, start=8.0)
    assert lattice_tail_sum(power, 3, 1.0, 2.0) == (0.0, math.inf)  # 3 * 2 < 8: outside the model
    assert np.isfinite(lattice_tail_sum(power, 4, 1.0, 2.0)[1])
    compact = CompactTail(end=10.0)
    assert lattice_tail_sum(compact, 5, 1.0, 2.0) == (0.0, math.inf)
    assert lattice_tail_sum(compact, 6, 1.0, 2.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        lattice_tail_sum(compact, 0)


@pytest.mark.parametrize("constant, start", [(1e4, 4097), (np.float64(1e4), 4097), (1e4, 10**7)])
def test_power_lattice_sums_stay_finite_when_the_direct_product_overflows(constant, start):
    # c**p = 1e404 overflows a float, and at start = 1e7 the power start**(1 - a) also underflows to 0
    p, exponent = 101, 0.5
    a = exponent * p
    tail = PowerTail(constant=constant, exponent=exponent, start=1.0, lower=constant)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, up = lattice_tail_sum(tail, start, p)
    for value, at in ((lo, start + 1), (up, start - 1)):
        log_half = p * math.log(1e4) + (1.0 - a) * math.log(at) - math.log(a - 1.0)
        assert math.isfinite(value)
        assert math.log(value / 2.0) == pytest.approx(log_half, rel=1e-14)


def test_finite_power_lattice_sums_keep_the_direct_product():
    c, l, exponent, p, start = 2.0, 0.5, 1.5, 2.0, 10
    a = exponent * p
    lo = (l**p) * (start + 1) ** (1.0 - a) / (a - 1.0)
    up = (c**p) * (start - 1) ** (1.0 - a) / (a - 1.0)
    assert lattice_tail_sum(PowerTail(c, exponent, 1.0, lower=l), start, p) == (2.0 * lo, 2.0 * up)
    assert lattice_tail_sum(PowerTail(c, exponent, 1.0, lower=l), 1, p)[1] == 2.0 * ((c**p) * a / (a - 1.0))


def test_fit_tail_vanishes_without_three_usable_samples():
    lags = np.arange(-40, 41)
    fit = fit_tail(lags, np.where(np.abs(lags) <= 1, 1.0, 0.0), 4.0)
    assert fit.constant == 0.0 and fit.points == 0
    assert fit.as_tail() == CompactTail(end=40.0, exact=False)
    assert lattice_tail_sum(fit.as_tail(), 41) == (0.0, 0.0)


def _geometric(q, scale=1.0):
    """Rows ``scale * q**|s|`` on ``-S..S``, counting the radii asked for."""
    asked = []

    def rows_at(S):
        asked.append(S)
        return (scale * q ** np.abs(np.arange(-S, S + 1)),)

    return rows_at, asked


@pytest.mark.parametrize("p", [1, 2])
def test_grow_lags_stops_at_the_first_bracketed_radius(p):
    # a geometric row is fitted exactly, so the bracket is 2 r**(S + 1) / (1 - r)
    # with r = q**p, against the head (1 + r) / (1 - r): the radius follows in closed form
    q, tol = 0.8, 1e-9
    r = q**p
    expected = next(S for S in (32, 64, 128, 256) if 2 * r ** (S + 1) / (1 + r) <= tol)
    rows_at, asked = _geometric(q)
    lag = grow_lags(rows_at, p=p, rel_tol=tol, cap=10**6)
    assert expected > 32 and asked == [S for S in (32, 64, 128) if S <= expected]
    assert lag.radius == expected and not lag.capped
    assert lag.bracket == pytest.approx(2 * r ** (expected + 1) / (1 - r), rel=1e-9)
    assert lag.heads[0] == pytest.approx((1 + r) / (1 - r), rel=1e-12)
    assert lag.rows[0].shape == (2 * expected + 1,)


def test_grow_lags_caps_a_divergent_power_row():
    asked = []

    def rows_at(S):
        asked.append(S)
        s = np.abs(np.arange(-S, S + 1))
        return (np.maximum(s, 1.0) ** -0.5,)

    lag = grow_lags(rows_at, p=1, rel_tol=1e-3, cap=100)
    assert asked == [32, 64, 128]  # the first radius at or past the cap
    assert lag.radius == 128 and lag.capped and lag.bracket == math.inf
    assert isinstance(lag.tails[0], PowerTail) and lag.tails[0].exponent == pytest.approx(0.5, abs=0.05)


def test_grow_lags_scales_by_the_summed_absolute_heads():
    q, tol = 0.8, 1e-9
    for second in (-1.0, -3.0):
        # signed heads H and second * H: their sum would be 0 for second = -1,
        # but the scale is (1 + |second|) H against a bracket (1 + |second|) times one row's
        def rows_at(S, second=second):
            row = q ** np.abs(np.arange(-S, S + 1))
            return row, second * row

        lag = grow_lags(rows_at, p=1, rel_tol=tol, cap=10**6)
        single = grow_lags(_geometric(q)[0], p=1, rel_tol=tol, cap=10**6)
        assert lag.radius == single.radius == 128 and not lag.capped
        assert lag.heads[1] == pytest.approx(second * lag.heads[0], rel=1e-15) and lag.heads[1] < 0
        assert lag.bracket == pytest.approx((1 - second) * single.bracket, rel=1e-12)


def test_grow_lags_fits_an_infinite_exponent_freely():
    # inf is the exponent of a tail faster than any power: the same fit as no exponent at all
    free = grow_lags(_geometric(0.8)[0], p=2, rel_tol=1e-9, cap=10**6)
    inf = grow_lags(_geometric(0.8)[0], p=2, rel_tol=1e-9, cap=10**6, exponent=math.inf)
    assert isinstance(inf.tails[0], ExpTail)
    assert (inf.radius, inf.tails, inf.heads, inf.bracket, inf.capped) == (free.radius, free.tails, free.heads, free.bracket, free.capped)
    assert np.array_equal(inf.rows[0], free.rows[0])


@pytest.mark.parametrize("exponent", [None, 1.5])
def test_grow_lags_brackets_the_heavier_side_of_an_uneven_row(exponent):
    # exp(-s) for s >= 0 and |s|^-1.5 for s < 0: only the negative side shows the power tail,
    # and the bracket must cover that side's sum beyond the radius
    def rows_at(S):
        s = np.arange(-S, S + 1)
        return (np.where(s >= 0, np.exp(-np.abs(s)), np.maximum(np.abs(s), 1.0) ** -1.5),)

    lag = grow_lags(rows_at, p=1, rel_tol=0.05, cap=4096, exponent=exponent)
    assert not lag.capped
    S = lag.radius
    s = np.arange(S + 1, 10**7, dtype=float)
    negative_tail = float(np.sum(s**-1.5)) + 2.0 / math.sqrt(1e7)  # integral bound beyond the last term
    assert negative_tail <= lag.bracket
    assert isinstance(lag.tails[0], PowerTail) and lag.tails[0].exponent == pytest.approx(1.5, abs=1e-6)


def test_decay_exponent_of_each_tail_model():
    assert decay_exponent(PowerTail(constant=2.0, exponent=0.7, start=1.0)) == 0.7
    assert decay_exponent(PowerTail(constant=2.0, exponent=0.7, start=1.0, exact=False)) == 0.7
    assert decay_exponent(ExpTail(constant=1.0, rate=0.5)) == math.inf
    assert decay_exponent(CompactTail(end=3.0)) == math.inf
    assert decay_exponent(ExponentialOU(1.0).decay) == math.inf
    assert decay_exponent(FractionalNoise(0.1).decay) == pytest.approx(0.9)
    assert decay_exponent(PowerDecay(c=1.0, rho=0.3, b0=1.0).seq_tail()) == 0.3


def test_conv_exponent_passes_an_infinite_exponent_through():
    assert conv_exponent(0.3, math.inf) == conv_exponent(math.inf, 0.3) == 0.3
    assert conv_exponent(1.5, math.inf) == 1.5
    assert conv_exponent(math.inf, math.inf) == math.inf
    assert conv_exponent(0.7, 0.8) == pytest.approx(0.5)


def _halving(first, asked):
    """Bound ``first / S`` at radius ``S``, recording the radii asked for."""

    def bound(S):
        asked.append(S)
        return first / S

    return bound


def test_grow_radius_stops_at_a_start_that_meets_the_tolerance():
    asked = []
    assert grow_radius(_halving(8.0, asked), 4, 64, 2.0) == (4, 2.0, True)
    assert asked == [4]


def test_grow_radius_doubles_to_the_first_radius_that_meets_the_tolerance():
    asked = []
    assert grow_radius(_halving(100.0, asked), 3, 10**6, 5.0) == (24, 100.0 / 24, True)
    assert asked == [3, 6, 12, 24]


def test_grow_radius_stops_unmet_at_the_first_radius_past_the_cap():
    asked = []
    assert grow_radius(_halving(100.0, asked), 3, 20, 1.0) == (24, 100.0 / 24, False)
    assert asked == [3, 6, 12, 24]
    asked.clear()
    assert grow_radius(_halving(100.0, asked), 3, 24, 1.0) == (24, 100.0 / 24, False)  # the cap itself
    assert asked == [3, 6, 12, 24]


def test_grow_radius_evaluates_once_from_the_cap_on():
    for start, cap in ((64, 64), (128, 64)):
        asked = []
        assert grow_radius(_halving(1.0, asked), start, cap, 0.0) == (start, 1.0 / start, False)
        assert asked == [start]


# Radii that decay models decide, pinned: the lattice range of a period integral,
# the star radius of power weights (PowerDecay(1, 1.5, 1), then (2, 3, 0.5)), the
# lattice range of each star kernel against its kernel, and the default simulation
# horizon (None: the kernel misses the squared-mass budget at its 64 delta cap).
RADII = [
    (ExponentialOU(1.0), 1.0, 18, (64, 64), (72, 72), 64.0),
    (ExponentialOU(0.05), 1.0, 288, (1024, 512), (1152, 576), None),
    (FractionalNoise(0.1), 1.0, 36_864, (4096, 512), (147_456, 147_456), 1024.0),
    (build_carma((3.0, 2.0), (3.0, 1.0), 1), 0.7, 18, (64, 64), (72, 72), 44.8),
]


@pytest.mark.parametrize("kernel, Delta, lattice, star, star_lattice, horizon", RADII, ids=["ou1", "ou005", "fn01", "carma"])
def test_model_driven_radii_are_pinned(kernel, Delta, lattice, star, star_lattice, horizon):
    assert lattice_s_range([kernel, kernel], Delta) == (-1, lattice)
    stars = [star_conv_kernel(b, kernel, Delta) for b in (PowerDecay(1.0, 1.5, 1.0), PowerDecay(2.0, 3.0, 0.5))]
    assert tuple((len(k.shifts) - 1) // 2 for k in stars) == star
    assert tuple(lattice_s_range([kernel, k], Delta)[1] for k in stars) == star_lattice
    assert all(lattice_s_range([kernel, k], Delta)[0] == -1 for k in stars)
    cfg = simulate.PathConfig(delta=Delta, n=8, seed=1)
    if horizon is None:
        with pytest.raises(TruncationError, match=r"outside \[-64, 64\] is 0.00166 of the total, exceeding the budget 0.0001"):
            simulate.resolve_horizon(kernel, cfg)
    else:
        assert simulate.resolve_horizon(kernel, cfg) == horizon


def test_an_exponential_tail_shifted_past_the_exponent_range_stays_a_representable_envelope():
    # e^{rate s} overflows past s ~ 709: the model then lowers its rate so that the constant is
    # finite, and still bounds sum_j |c_j| e^{-(t - s_j)} on t >= start; smaller shifts keep theirs
    shifts, coeffs = (-800.0, 0.0, 800.0), (0.5, -1.0, 0.5)
    model = shifted_sum_tail(ExpTail(constant=1.0, rate=1.0), shifts, coeffs)
    assert math.isfinite(model.constant) and model.start == 800.0 and 0.0 < model.rate < 1.0
    for t in (800.0, 850.0, 1200.0, 1500.0):
        log_sum = math.log(sum(abs(c) * math.exp(-(t - s)) for s, c in zip(shifts, coeffs)))
        assert log_sum <= math.log(model.constant) - model.rate * t + 1e-12
    near = shifted_sum_tail(ExpTail(constant=1.0, rate=1.0), (0.0, 700.0), (1.0, 0.5))
    assert near == ExpTail(constant=1.0 + 0.5 * math.exp(700.0), rate=1.0, start=700.0)
