import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmaqf.tails import CompactTail, ExpTail, PowerTail, fit_tail, lattice_tail_sum


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


def test_fit_tail_vanishes_without_three_usable_samples():
    lags = np.arange(-40, 41)
    fit = fit_tail(lags, np.where(np.abs(lags) <= 1, 1.0, 0.0), 4.0)
    assert fit.constant == 0.0 and fit.points == 0
    assert fit.as_tail() == CompactTail(end=40.0, exact=False)
    assert lattice_tail_sum(fit.as_tail(), 41) == (0.0, 0.0)
