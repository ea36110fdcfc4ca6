import math

import numpy as np
import pytest
import scipy.linalg

from cmaqf.errors import ConventionError, GridError, NonStationaryError, ParameterError, StabilityError
from cmaqf.kernels import (
    ExponentialOU,
    FractionalNoise,
    LinComboKernel,
    PowAbsKernel,
    TabulatedKernel,
    build_carma,
    grid_sample,
    solve_sdde_kernel,
)


def residue_kernel(a_coeffs, b_coeffs):
    """Partial-fraction oracle: phi(t) = sum_i Q(l_i)/P'(l_i) exp(l_i t) over simple roots."""
    P = np.polynomial.polynomial.Polynomial([*a_coeffs[::-1], 1.0])
    roots = P.roots()
    Pp = P.deriv()
    Q = np.polynomial.polynomial.Polynomial(b_coeffs)

    def phi(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t, dtype=complex)
        for r in roots:
            out += Q(r) / Pp(r) * np.exp(r * np.maximum(t, 0.0))
        return np.where(t >= 0, out.real, 0.0)

    return phi


def test_carma_order_one_is_exponential():
    k = build_carma((1.0,), (1.0,), 0)
    t = np.linspace(0.0, 10.0, 101)
    assert np.allclose(k.eval(t), np.exp(-t), rtol=0, atol=1e-14)


def test_carma_2_1_matches_residue_oracle():
    k = build_carma((3.0, 2.0), (3.0, 1.0), 1)
    oracle = residue_kernel((3.0, 2.0), (3.0, 1.0))
    t = np.linspace(0.0, 10.0, 2001)
    assert np.max(np.abs(k.eval(t) - oracle(t))) < 1e-12
    # roots -1, -2 give phi(t) = 2 exp(-t) - exp(-2t)
    assert k.eval(0.0) == pytest.approx(1.0, abs=1e-12)
    assert k.eval(1.0) == pytest.approx(2 * math.exp(-1) - math.exp(-2), abs=1e-12)


def test_carma_unstable_raises():
    with pytest.raises(StabilityError):
        build_carma((-1.0,), (1.0,), 0)


def test_carma_convention_errors():
    with pytest.raises(ConventionError):
        build_carma((3.0, 2.0), (3.0, 1.0), 2)  # q >= p
    with pytest.raises(ConventionError):
        build_carma((3.0, 2.0), (3.0, 2.0), 1)  # b[q] != 1
    with pytest.raises(ConventionError):
        build_carma((6.0, 11.0, 6.0), (1.0, 1.0, 1.0), 1)  # b above q nonzero


def test_carma_repeated_root_falls_back_to_expm():
    # (z+1)^2: defective companion matrix
    k = build_carma((2.0, 1.0), (0.5, 1.0), 1)
    A = np.array([[0.0, 1.0], [-1.0, -2.0]])
    b = np.array([0.5, 1.0])
    e2 = np.array([0.0, 1.0])
    for t in (0.0, 0.3, 1.0, 2.5, 7.0):
        oracle = float(b @ scipy.linalg.expm(A * t) @ e2)
        assert k.eval(t) == pytest.approx(oracle, abs=1e-10)


def test_eval_kernel_closed_forms():
    fn = FractionalNoise(0.1)
    assert fn.eval(-0.5) == 0.0
    assert fn.eval(0.5) == pytest.approx(0.5**0.1 / math.gamma(1.1), rel=1e-14)
    assert fn.eval(2.0) == pytest.approx((2.0**0.1 - 1.0) / math.gamma(1.1), rel=1e-14)
    ou = ExponentialOU(1.0)
    assert ou.eval(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert ou.eval(-1e-9) == 0.0


def test_fractional_noise_domain():
    with pytest.raises(ParameterError):
        FractionalNoise(0.25)
    with pytest.raises(ParameterError):
        FractionalNoise(0.0)


def test_fractional_noise_asymptotic_ratio():
    # phi(t) ~ d t^(d-1) / Gamma(1+d); at t = 1e3 the ratio is within 1e-2 of 1
    d = 0.1
    fn = FractionalNoise(d)
    t = 1e3
    ratio = fn.eval(t) * math.gamma(1 + d) / (d * t ** (d - 1))
    assert abs(ratio - 1.0) < 1e-2


def test_sdde_ou_reduction():
    k = solve_sdde_kernel([(0.0, -1.0)], 10.0, 1e-3)
    ts = np.linspace(0.0, 10.0, 5001)
    assert np.max(np.abs(k.eval(ts) - np.exp(-ts))) < 1e-4
    assert k.eval(0.0) == 1.0


def test_sdde_nonstationary_cases():
    with pytest.raises(NonStationaryError):
        solve_sdde_kernel([(0.0, 0.0)], 10.0, 1e-3)  # characteristic function z, root at 0
    with pytest.raises(NonStationaryError):
        solve_sdde_kernel([(0.0, 1.0)], 10.0, 1e-3)  # z + 1, root at -1


def test_sdde_delayed_atom_matches_method_of_steps():
    # dX = -0.5 X_{t-1} dt: phi = 1 on [0,1); 1 - (t-1)/2 on [1,2); quadratic on [2,3)
    k = solve_sdde_kernel([(1.0, -0.5)], 8.0, 1e-3)

    def oracle(t):
        if t < 1.0:
            return 1.0
        if t < 2.0:
            return 1.0 - 0.5 * (t - 1.0)
        u = t - 2.0
        return 0.5 - 0.5 * u + 0.125 * u * u

    for t in (0.0, 0.5, 0.999, 1.0, 1.5, 2.0, 2.5, 2.999):
        assert k.eval(t) == pytest.approx(oracle(t), abs=5e-4)


def test_sdde_halving_step_improves_at_least_threefold():
    ts = np.linspace(0.0, 10.0, 2001)
    errs = []
    for step in (2e-3, 1e-3):
        k = solve_sdde_kernel([(0.0, -1.0)], 10.0, step)
        errs.append(np.max(np.abs(k.eval(ts) - np.exp(-ts))))
    assert errs[0] / errs[1] >= 3.0


def test_grid_sample_ou_values():
    g = grid_sample(ExponentialOU(1.0), 1.0, 1, 3.0)
    expect = np.array([0.0, 0.0, 0.0, 1.0, math.exp(-1), math.exp(-2), math.exp(-3)])
    assert np.allclose(g.values, expect, rtol=0, atol=1e-15)
    assert np.array_equal(g.times(), np.arange(-3, 4, dtype=float))


def test_grid_values_match_eval_exactly():
    for k in (ExponentialOU(0.7), FractionalNoise(0.12), build_carma((3.0, 2.0), (3.0, 1.0), 1)):
        g = grid_sample(k, 1.0, 8, 16.0)
        assert np.array_equal(g.values, np.asarray(k.eval(g.times())))


def test_grid_sample_errors():
    ou = ExponentialOU(1.0)
    with pytest.raises(GridError):
        grid_sample(ou, 1.0, 8, 3.5)  # horizon not a multiple of Delta
    with pytest.raises(GridError):
        grid_sample(ou, 1.0, 0, 4.0)
    sd = solve_sdde_kernel([(0.0, -1.0)], 4.0, 0.3)
    with pytest.raises(GridError):
        grid_sample(sd, 1.0, 2, 4.0)  # native step 0.3 does not divide Delta = 1


def test_fractional_tail_exponent_fit():
    g = grid_sample(FractionalNoise(0.1), 1.0, 8, 512.0)
    assert abs(g.tail.exponent - 0.9) < 0.05


def test_carma_tail_is_exponential():
    g = grid_sample(build_carma((3.0, 2.0), (3.0, 1.0), 1), 1.0, 8, 32.0)
    assert g.tail.preferred == "exponential"
    assert g.tail.exp_rate > 0  # negative log-linear slope


def test_tail_fit_envelope_holds_on_fitted_range():
    g = grid_sample(FractionalNoise(0.15), 1.0, 4, 256.0)
    ts = g.times()
    lo, hi = g.tail.fit_range
    sel = (ts >= lo) & (ts <= hi)
    bound = g.tail.constant * math.exp(g.tail.residual) * ts[sel] ** -g.tail.exponent
    assert np.all(np.abs(g.values[sel]) <= bound * (1 + 1e-12))


def test_carma_order_one_equals_ou_pointwise():
    ou = ExponentialOU(0.8)
    ca = build_carma((0.8,), (1.0,), 0)
    t = np.linspace(-1.0, 40.0, 500)
    assert np.max(np.abs(ou.eval(t) - ca.eval(t))) < 1e-13


def test_tabulated_roundtrip_is_identical():
    base = grid_sample(ExponentialOU(1.0), 1.0, 8, 4.0)
    tk = TabulatedKernel(t0=-4.0, step=0.125, values=base.values)
    again = grid_sample(tk, 1.0, 8, 4.0)
    assert np.array_equal(again.values, base.values)


def test_tabulated_csv_roundtrip(tmp_path):
    tk = TabulatedKernel(t0=0.0, step=0.25, values=np.array([1.0, 0.7, 0.5, 0.35, 0.25]))
    path = tmp_path / "k.csv"
    tk.to_csv(path)
    assert path.read_text().splitlines()[0] == "t,phi"
    back = TabulatedKernel.from_csv(path)
    assert back.t0 == tk.t0 and back.step == tk.step
    assert np.array_equal(back.values, tk.values)


def test_lincombo_eval_and_support():
    ou = ExponentialOU(1.0)
    k = LinComboKernel(base=ou, shifts=(-1.0, 1.0), coeffs=(1.0, 2.0))
    assert k.support_lo == -1.0
    t = np.array([-2.0, -0.5, 0.0, 2.0])
    expect = ou.eval(t + 1.0) + 2.0 * ou.eval(t - 1.0)
    assert np.allclose(k.eval(t), expect, rtol=0, atol=1e-15)


def test_left_limit_at_jump():
    ou = ExponentialOU(1.0)
    assert ou.left_limit(np.array([0.0]))[0] == 0.0
    assert ou.eval(np.array([0.0]))[0] == 1.0
    assert ou.left_limit(np.array([0.5]))[0] == ou.eval(0.5)
    # a shifted copy jumps by its coefficient inside the combination's support
    k = LinComboKernel(ou, shifts=(0.0, 1.0), coeffs=(1.0, 2.0))
    assert k.left_limit(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert k.eval(1.0) == pytest.approx(math.exp(-1.0) + 2.0, rel=1e-15)
    p = PowAbsKernel(k, 2.0)
    assert p.left_limit(1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert p.eval(1.0) == pytest.approx((math.exp(-1.0) + 2.0) ** 2, rel=1e-15)


from decimal import Decimal, localcontext

from hypothesis import example, given, settings
from hypothesis import strategies as st


def fractional_noise_oracle(d, t):
    """``(t^d - (t-1)_+^d) / Gamma(1+d)`` for ``t >= 0``, the difference taken at 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        D, T = Decimal(d), Decimal(t)
        diff = T**D - max(T - 1, Decimal(0)) ** D
        return float(diff / Decimal(math.gamma(1.0 + d)))


def full_order_residue_sum(roots, t):
    """``sum_i r_i^(p-1) e^(r_i t) / prod_(j != i) (r_i - r_j)`` at 60 digits, from the roots themselves."""
    with localcontext() as ctx:
        ctx.prec = 60
        rs = [Decimal(r) for r in roots]
        T = Decimal(t)
        total = Decimal(0)
        for i, ri in enumerate(rs):
            denom = Decimal(1)
            for j, rj in enumerate(rs):
                if j != i:
                    denom *= ri - rj
            total += ri ** (len(rs) - 1) * (ri * T).exp() / denom
        return float(total)


@given(lam=st.floats(0.05, 10.0), d=st.floats(0.01, 0.24), t=st.floats(-50.0, 50.0))
@example(lam=1.0, d=0.01, t=48.0)
@settings(max_examples=100, deadline=None)
def test_causality_and_values_property(lam, d, t):
    ou = ExponentialOU(lam)
    fn = FractionalNoise(d)
    if t < 0:
        assert ou.eval(t) == 0.0
        assert fn.eval(t) == 0.0
    else:
        assert ou.eval(t) == pytest.approx(math.exp(-lam * t), rel=1e-14, abs=0.0)
        assert fn.eval(t) == pytest.approx(fractional_noise_oracle(d, t), rel=1e-12, abs=1e-300)
        assert fn.eval(t) >= 0.0


@given(
    roots=st.lists(st.floats(-4.0, -0.1), min_size=1, max_size=4),
    t=st.floats(0.0, 20.0),
)
@example(roots=[-1.0, -2.0, -1.875, -1.9375], t=0.0)
@settings(max_examples=60, deadline=None)
def test_carma_full_order_matches_residue_sum(roots, t):
    # distinct stable roots; full-order convention q = p - 1
    roots = sorted(set(round(r, 3) for r in roots))
    poly = np.polynomial.polynomial.polyfromroots(roots)  # ascending, monic up to sign
    p = len(roots)
    a = tuple(float(c) for c in poly[:-1][::-1])  # a1..ap of z^p + a1 z^{p-1} + ...
    b = (0.0,) * (p - 1) + (1.0,)
    k = build_carma(a, b, p - 1)
    # the oracle starts from the generated roots: recovering them from the coefficients
    # is ill-conditioned for clustered roots
    assert k.eval(t) == pytest.approx(full_order_residue_sum(roots, t), rel=1e-8, abs=1e-10)
