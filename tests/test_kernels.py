import math

import numpy as np
import pytest
import scipy.linalg

from cmaqf.errors import ConventionError, GridError, NonStationaryError, ParameterError, StabilityError
from cmaqf.kernels import (
    CarmaKernel,
    ExponentialOU,
    FractionalNoise,
    LinComboKernel,
    PowAbsKernel,
    SddeKernel,
    TabulatedKernel,
    build_carma,
    grid_sample,
)
from cmaqf.tails import fit_tail


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


def test_carma_expm_fallback_evaluates_a_stack_as_it_does_each_point():
    # one stacked expm over all points gives the per-point exponentials bit for bit
    k = build_carma((2.0, 1.0), (1.0, 0.0), 0)
    _, A, b, e_p = k._eig

    def pointwise(t):
        return float(b @ scipy.linalg.expm(A * t) @ e_p) if t >= 0.0 else 0.0

    t = np.linspace(-1.0, 40.0, 10_001)
    assert k.eval(t).tolist() == [pointwise(s) for s in t]
    assert [k.eval(s) for s in t[::1000]] == [pointwise(s) for s in t[::1000]]
    # the decay constant samples the same exponentials on 200 points of 10 / rate, with rate 1 here
    ts = np.linspace(0.0, 10.0, 200)
    assert k.decay.constant == 2.0 * max(abs(pointwise(s)) * math.exp(0.99 * 1.0 * s) for s in ts)


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
    k = SddeKernel(atoms=[(0.0, -1.0)], horizon=10.0, step=1e-3)
    ts = np.linspace(0.0, 10.0, 5001)
    assert np.max(np.abs(k.eval(ts) - np.exp(-ts))) < 1e-4
    assert k.eval(0.0) == 1.0


def test_sdde_nonstationary_cases():
    with pytest.raises(NonStationaryError):
        SddeKernel(atoms=[(0.0, 0.0)], horizon=10.0, step=1e-3)  # characteristic function z, root at 0
    with pytest.raises(NonStationaryError):
        SddeKernel(atoms=[(0.0, 1.0)], horizon=10.0, step=1e-3)  # z + 1, root at -1


def test_sdde_delayed_atom_matches_method_of_steps():
    # dX = -0.5 X_{t-1} dt: phi = 1 on [0,1); 1 - (t-1)/2 on [1,2); quadratic on [2,3)
    k = SddeKernel(atoms=[(1.0, -0.5)], horizon=8.0, step=1e-3)

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
        k = SddeKernel(atoms=[(0.0, -1.0)], horizon=10.0, step=step)
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
    sd = SddeKernel(atoms=[(0.0, -1.0)], horizon=4.0, step=0.3)
    with pytest.raises(GridError):
        grid_sample(sd, 1.0, 2, 4.0)  # native step 0.3 does not divide Delta = 1


def test_fractional_tail_exponent_fit():
    g = grid_sample(FractionalNoise(0.1), 1.0, 8, 512.0)
    assert abs(g.tail.exponent - 0.9) < 0.05


def test_carma_tail_is_exponential():
    g = grid_sample(build_carma((3.0, 2.0), (3.0, 1.0), 1), 1.0, 8, 32.0)
    assert g.tail.preferred == "exponential"
    assert g.tail.exp_rate > 0  # negative log-linear slope


def _sampled_tail(kind):
    """``(x, y, fit)``: samples and their tail fit, for each kind of window ``fit_tail`` serves."""
    if kind == "grid":
        g = grid_sample(FractionalNoise(0.15), 1.0, 4, 256.0)
        return g.times(), g.values, g.tail
    if kind == "table":
        ts = np.arange(0, 1025) / 16.0
        k = TabulatedKernel(t0=0.0, step=1.0 / 16.0, values=(1.0 + ts) ** -0.8 * (1.0 + 0.05 * np.cos(ts)))
        return ts, k.values, k.tail_fit
    lags = np.arange(-128, 129)
    vals = (1.0 + np.abs(lags)) ** -1.5 * (1.0 + 0.1 * np.cos(lags))
    return lags, vals, fit_tail(lags, vals, 12.8, known_exponent=1.5)


@pytest.mark.parametrize("kind", ["grid", "table", "lag_sequence"])
def test_tail_fit_envelope_holds_on_fitted_range(kind):
    ts, values, fit = _sampled_tail(kind)
    lo, hi = fit.fit_range
    sel = (ts >= lo) & (ts <= hi)
    bound = fit.constant * math.exp(fit.residual) * ts[sel] ** -fit.exponent
    assert np.all(np.abs(values[sel]) <= bound * (1 + 1e-12))
    # the power envelope of as_tail is two-sided on the fitted range
    env = fit.as_tail()
    assert np.all(np.abs(values[sel]) >= env.lower * ts[sel] ** -env.exponent * (1 - 1e-12))


def test_table_too_short_for_a_tail_fit_raises():
    # two nodes at t > 0: the fit must not fall back onto t = 0, where log|t| is -inf
    with pytest.raises(ParameterError, match="it has 2"):
        TabulatedKernel(t0=0.0, step=0.5, values=[1.0, 0.5, 0.2])


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


_FN = FractionalNoise(0.1)
_KINKED = {
    "fn005": FractionalNoise(0.05),
    "fn01": _FN,
    "fn024": FractionalNoise(0.24),
    "fn01_squared": PowAbsKernel(_FN, 2.0),
    "fn01_pow07": PowAbsKernel(_FN, 0.7),
    "fn01_combination": LinComboKernel(_FN, shifts=(0.0, 0.5, -2.0), coeffs=(1.0, -0.8, 0.3)),
    "fn01_abs_combination": PowAbsKernel(LinComboKernel(PowAbsKernel(_FN, 1.0), (0.0, 0.5), (1.0, 0.4)), 1.0),
    "fn01_pow07_of_combination": PowAbsKernel(LinComboKernel(_FN, (0.0, 0.5), (1.0, 0.5)), 0.7),
}


@pytest.mark.parametrize("name", sorted(_KINKED))
def test_singular_points_are_kinks_from_the_right(name):
    # quadrature grades only the piece that starts at a singular point: the kernel must be
    # smooth just left of it and scale like e**exponent just right of it
    k = _KINKED[name]
    assert k.singular_points
    for loc, ex in k.singular_points:
        for e in (1e-2, 1e-3, 1e-4):
            second = k.eval(loc - e) - 2.0 * k.eval(loc - 2.0 * e) + k.eval(loc - 3.0 * e)
            assert abs(second) / e**2 < 10.0, (loc, e)
        rise = [abs(k.eval(loc + e) - k.eval(loc)) for e in (1e-4, 1e-8)]
        assert math.log(rise[0] / rise[1]) / math.log(1e4) == pytest.approx(ex, abs=0.02), loc


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


KERNEL_REFUSALS = {
    "carma_no_a": (lambda d: CarmaKernel((), (), 0), ParameterError, "a must be non-empty"),
    "carma_short_b": (lambda d: CarmaKernel((3.0, 2.0), (1.0,), 0), ConventionError, "b must have length"),
    "one_value_table": (lambda d: TabulatedKernel(0.0, 1.0, (1.0,)), ParameterError, "values"),
    "one_column_csv": (lambda d: TabulatedKernel.from_csv(d / "one_column.csv"), ParameterError, "one_column.csv"),
    "non_uniform_csv": (lambda d: TabulatedKernel.from_csv(d / "non_uniform.csv"), GridError, "non_uniform.csv"),
    "negative_atom": (lambda d: SddeKernel(((-1.0, 0.5),), 4.0, 0.01), ParameterError, "atom"),
    "combo_lengths": (lambda d: LinComboKernel(ExponentialOU(1.0), (0.0, 1.0), (1.0,)), ParameterError, "shifts and coeffs"),
}


@pytest.mark.parametrize("case", sorted(KERNEL_REFUSALS))
def test_refused_kernel_inputs_name_the_input(tmp_path, case):
    (tmp_path / "one_column.csv").write_text("t,phi\n0.0\n1.0\n2.0\n")
    (tmp_path / "non_uniform.csv").write_text("t,phi\n0.0,1.0\n1.0,0.5\n3.0,0.1\n")
    make, error, name = KERNEL_REFUSALS[case]
    with pytest.raises(error, match=name):
        make(tmp_path)
