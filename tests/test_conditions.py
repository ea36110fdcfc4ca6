import math
import time
import warnings

import numpy as np
import pytest

import cmaqf.conditions as conditions
from cmaqf.conditions import check_conditions, lp_norm_sequence
from cmaqf.covariance import FiniteSupport, PowerDecay
from cmaqf.errors import ConvergenceError, ParameterError
from cmaqf.kernels import ExponentialOU, FractionalNoise, PowAbsKernel, TabulatedKernel, build_carma
from cmaqf.levy import BrownianMotion, CompoundPoissonNormal
from cmaqf.quadrature import product_integral
from cmaqf.tails import CompactTail, ExpTail, PowerTail, conv_exponent, decay_exponent
from cmaqf.variance import eta2_qn


def tail07_kernel(exponent=0.7):
    """Tabulated kernel with a pure power tail, whose fitted exponent is ``exponent``."""
    step = 1.0 / 16.0
    ts = np.arange(0, 1025) * step
    vals = np.where(ts >= 1.0, np.maximum(ts, 1.0) ** -exponent, 1.0)
    return TabulatedKernel(t0=0.0, step=step, values=vals)


# ---------------------------------------------------------------------------
# lp_norm_sequence
# ---------------------------------------------------------------------------


def test_lp_norm_geometric_series():
    S = 25
    vals = np.exp(-np.abs(np.arange(-S, S + 1)))
    # lower == constant: the tail model is the sequence itself, so the bracket has zero width
    norm, bound = lp_norm_sequence(vals, ExpTail(constant=1.0, rate=1.0, lower=1.0), 1.0)
    exact = (1 + math.exp(-1)) / (1 - math.exp(-1))
    assert norm == pytest.approx(exact, rel=1e-12)
    assert bound == pytest.approx(0.0, abs=1e-12)


def test_lp_norm_sup():
    vals = np.array([0.5, -3.0, 0.5])
    norm, _ = lp_norm_sequence(vals, CompactTail(end=1.0), math.inf)
    assert norm == 3.0
    norm, _ = lp_norm_sequence(np.array([0.1]), ExpTail(constant=9.0, rate=math.log(2.0)), math.inf)
    assert norm == 4.5  # tail sup dominates


def test_lp_norm_divergent_power_tail():
    S = 10
    s = np.arange(-S, S + 1, dtype=float)
    vals = np.where(s == 0, 1.0, np.abs(np.where(s == 0, 1.0, s)) ** -0.9)
    norm, bound = lp_norm_sequence(vals, PowerTail(constant=1.0, exponent=0.9, start=1.0, lower=1.0), 1.0)
    assert norm == math.inf and bound == math.inf
    # same sequence is square-summable
    norm2, _ = lp_norm_sequence(vals, PowerTail(constant=1.0, exponent=0.9, start=1.0, lower=1.0), 2.0)
    assert np.isfinite(norm2)


def test_lp_norm_input_validation():
    with pytest.raises(ParameterError):
        lp_norm_sequence(np.ones(4), CompactTail(end=2.0), 2.0)  # even length
    with pytest.raises(ParameterError):
        lp_norm_sequence(np.ones(3), CompactTail(end=1.0), 0.5)


# ---------------------------------------------------------------------------
# condition sets on the calibration cases
# ---------------------------------------------------------------------------


def test_qn_exponent_ou_finite_support_supported_at_one_one():
    rep = check_conditions("qn_exponent", ExponentialOU(1.0), b=FiniteSupport(values=(1.0, 0.5)), Delta=1.0)
    assert rep.overall == "supported"
    assert rep.exponents == {"alpha": 1.0, "beta": 1.0}


def test_qn_exponent_carma_supported():
    k = build_carma((3.0, 2.0), (3.0, 1.0), 1)
    rep = check_conditions("qn_exponent", k, b=FiniteSupport(values=(0.0, 1.0)), Delta=1.0)
    assert rep.overall == "supported"


def test_sn_decay_fractional_pair_supported_at_09():
    fn = FractionalNoise(0.1)
    rep = check_conditions("sn_decay", (fn, fn), Delta=1.0)
    assert rep.overall == "supported"
    assert rep.exponents == {"alpha1": 0.9, "alpha2": 0.9}


def test_sn_decay_tail07_pair_refuted():
    k = tail07_kernel()
    assert abs(k.tail_fit.exponent - 0.7) < 0.02
    rep = check_conditions("sn_decay", (k, k), Delta=1.0)
    assert rep.overall == "refuted"


def test_power_tailed_table_squared_matches_its_exact_integral():
    # linear cells integrate exactly, h/3 (v_i^2 + v_i v_i+1 + v_i+1^2), and the fitted tail c t^-rho
    # past the table end T in closed form; the capped window at 2**80 leaves out 1.7e-10 of it
    k = tail07_kernel()
    v, T, c, rho = k.values, k.breakpoints[-1], k.tail_fit.constant, k.tail_fit.exponent
    cells = k.step / 3.0 * np.sum(v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2)
    exact = cells + c**2 * T ** (1.0 - 2.0 * rho) / (2.0 * rho - 1.0)
    assert product_integral(k, k, 0.0).value == pytest.approx(exact, rel=1e-8)


def _decay_verdict(rep):
    last = rep.assumptions[-1]
    assert last.name == "decay_exponents" and rep.overall == last.verdict and rep.exponents == {}
    return last.verdict, last.note


@pytest.mark.parametrize(
    "condition_set, kernel, b, pin, best",
    [
        ("sn_decay", FractionalNoise(0.1), None, (0.95, 0.95), (0.9, 0.9)),
        ("sn_decay", FractionalNoise(0.1), None, (0.6, 0.6), (0.9, 0.9)),
        ("qn_decay", ExponentialOU(1.0), FiniteSupport((1.0, 0.5)), (0.3, 0.3), (0.01, 0.01)),
    ],
)
def test_a_pinned_decay_pair_that_misses_leaves_a_feasible_set_indeterminate(condition_set, kernel, b, pin, best):
    # the best achievable pair meets the hypotheses (auto finds it), so only the pin fails them
    auto = check_conditions(condition_set, kernel, b=b, Delta=1.0)
    assert auto.overall == "supported" and tuple(auto.exponents.values()) == best
    verdict, note = _decay_verdict(check_conditions(condition_set, kernel, b=b, Delta=1.0, exponents=pin))
    assert verdict == "indeterminate"
    assert note == f"pinned exponents {pin} miss the hypotheses, which {best} meets"


def test_a_pinned_decay_pair_on_an_infeasible_kernel_stays_refuted():
    for pin in ((0.7, 0.7), (0.6, 0.95)):
        rep = check_conditions("sn_decay", PowAbsKernel(FractionalNoise(0.1), 0.8), Delta=1.0, exponents=pin)
        assert _decay_verdict(rep) == ("refuted", "best achievable alpha1 + alpha2 = 1.44 <= 3/2")
    for pin in ((0.2, 0.2), (0.01, 0.01)):
        rep = check_conditions("qn_decay", FractionalNoise(0.1), b=PowerDecay(1.0, 0.6, 1.0), Delta=1.0, exponents=pin)
        assert _decay_verdict(rep) == ("refuted", "alpha + beta >= 0.6 >= 1/2 for every admissible pair")


def test_qn_exponent_pins_are_checked_by_their_arithmetic():
    ou, finite = ExponentialOU(1.0), FiniteSupport((1.0, 0.5))
    ok = check_conditions("qn_exponent", ou, b=finite, Delta=1.0, exponents=(1.0, 1.0))
    assert ok.overall == "supported" and ok.exponents == {"alpha": 1.0, "beta": 1.0}
    # 2/2 + 1/2 < 5/2 for the pin, while the best pair (1, 1) gives 3: the pin misses, the set is feasible
    missed = check_conditions("qn_exponent", ou, b=finite, Delta=1.0, exponents=(2.0, 2.0))
    assert missed.overall == "indeterminate" and missed.exponents == {}
    # 2 rho_phi + rho_b = 1.8 + 0.6 < 5/2 caps every pair, with the kernel's exponent exact
    refuted = check_conditions("qn_exponent", FractionalNoise(0.1), b=PowerDecay(1.0, 0.6, 1.0), Delta=1.0,
                               exponents=(1.2, 1.8))
    assert refuted.overall == "refuted"
    assert refuted.assumptions[0].note == "best achievable 2/alpha + 1/beta = 2.4 < 5/2"


def test_decay_sets_refute_a_kernel_outside_l4_by_arithmetic():
    k = tail07_kernel(0.2)  # |k|**4 decays like t**-0.8: the L^4 quadrature would diverge
    for rep, l4_names in (
        (check_conditions("sn_decay", k, Delta=1.0), ("kernel_in_l4[1]", "kernel_in_l4[2]")),
        (check_conditions("qn_decay", k, b=FiniteSupport(values=(1.0, 0.5)), Delta=1.0), ("kernel_in_l4",)),
    ):
        assert rep.overall == "refuted"
        l4 = [a for a in rep.assumptions if a.name.startswith("kernel_in_l4")]
        assert tuple(a.name for a in l4) == l4_names
        assert all(a.verdict == "refuted" and a.norms == () and "<= 1/4" in a.note for a in l4)


def test_sn_exponent_ou_supported_once_per_norm(monkeypatch):
    calls = []
    phase_integral = conditions.phase_integral
    monkeypatch.setattr(conditions, "phase_integral", lambda *a, **kw: calls.append(a) or phase_integral(*a, **kw))
    rep = check_conditions("sn_exponent", ExponentialOU(1.0), Delta=1.0)
    assert rep.overall == "supported"
    assert rep.exponents == {"alpha1": 1.0, "alpha2": 1.0}
    assert len(calls) == 2  # grid_sum(1) and grid_sum(2), shared by both kernels
    first, second = rep.assumptions
    assert (first.name, second.name) == ("grid_sums_square_integrable[1]", "grid_sums_square_integrable[2]")
    assert [n.name for n in first.norms] == ["grid_sum(1)[1]", "grid_sum(2)[1]"]
    assert [(n.name.replace("[1]", "[2]"), n.value, n.tail_bound) for n in first.norms] == [
        (n.name, n.value, n.tail_bound) for n in second.norms
    ]


def test_sn_general_single_kernel_builds_one_lag_sequence(monkeypatch):
    calls = []
    lags = conditions._abs_lag_sequence
    monkeypatch.setattr(conditions, "_abs_lag_sequence", lambda *a, **kw: calls.append(a) or lags(*a, **kw))
    rep = check_conditions("sn_general", ExponentialOU(1.0), Delta=1.0, model=BrownianMotion(1.0))
    assert rep.overall == "supported"
    assert len(calls) == 1


@pytest.mark.parametrize("condition_set", ["sn_general", "sn_exponent", "sn_decay"])
def test_equal_kernel_pair_reports_like_one_kernel(condition_set):
    k = ExponentialOU(1.0)
    pair = check_conditions(condition_set, (k, ExponentialOU(1.0)), Delta=1.0)
    assert pair == check_conditions(condition_set, k, Delta=1.0)


def test_sn_exponent_refutes_only_on_exact_exponents():
    # fitted exponent 0.7: the cap 1/a1 + 1/a2 <= 1.4 < 3/2 is no proof
    tab = check_conditions("sn_exponent", tail07_kernel(), Delta=1.0, exponents=(1.2, 1.2))
    assert tab.overall == "indeterminate"
    assert check_conditions("qn_exponent", tail07_kernel(), b=FiniteSupport.delta0(), Delta=1.0).overall == "indeterminate"
    # exact exponent 0.9 * 0.7 = 0.63
    exact = check_conditions("sn_exponent", PowAbsKernel(FractionalNoise(0.1), 0.7), Delta=1.0, exponents=(1.2, 1.2))
    assert exact.overall == "refuted"
    assert "1.26 < 3/2" in exact.assumptions[0].note


def test_pinned_exponents_must_be_a_list_of_real_numbers():
    ou, b = ExponentialOU(1.0), FiniteSupport(values=(1.0, 0.5))
    for condition_set, pins in (
        ("sn_exponent", [1.3]),
        ("sn_exponent", "1.3"),
        ("sn_decay", (0.8, 0.9, 0.9)),
        ("sn_general", (2.0, "2")),
        ("qn_exponent", (1.0, math.nan)),
        ("qn_decay", (0.1, True)),
        ("qn_envelope", ()),
        ("qn_envelope", (math.inf,)),
        ("sn_exponent", np.array([1.0, 1.0])),
    ):
        with pytest.raises(ParameterError, match="exponents"):
            check_conditions(condition_set, ou, b=b, Delta=1.0, exponents=pins)
    # values pass on as given; autocov has no exponents and refuses pins
    pinned = check_conditions("sn_general", ou, Delta=1.0, exponents=[2, 2], model=BrownianMotion(1.0))
    assert pinned.exponents == {"alpha1": 2, "alpha2": 2}
    assert all(type(v) is int for v in pinned.exponents.values())
    assert check_conditions("qn_envelope", ou, b=b, Delta=1.0, exponents=[1.5]).exponents == {"beta": 1.5, "alpha": 3.0}
    with pytest.raises(ParameterError, match="exponents"):
        check_conditions("autocov", ou, Delta=1.0, exponents=[1.3])


def test_coefficient_norms_cover_the_whole_finite_support():
    b = FiniteSupport(values=(1.0,) * 101)  # wider than the 64 lags the norms start from
    rep = check_conditions("qn_exponent", ExponentialOU(1.0), b=b, Delta=1.0)
    (coeff,) = next(a for a in rep.assumptions if a.name == "coefficients_summable").norms
    assert (coeff.name, coeff.value, coeff.tail_bound, coeff.radius) == ("coeff_lq(1)", 201.0, 0.0, 100)
    rep = check_conditions("qn_decay", ExponentialOU(1.0), b=b, Delta=1.0)
    _, sup_b = next(a for a in rep.assumptions if a.name == "decay_exponents").norms
    assert sup_b.value == 100.0 ** (1.0 - rep.exponents["beta"])


def test_qn_general_norms_of_a_support_with_a_gap_match_closed_form_sums():
    # b = delta_0 + (delta_R + delta_-R) / 2 over OU(1): the |OU| lag covariances are g(s) = e^{-|s|} / 2,
    # and psi = |b| * |phi| reads them at the offsets u - v of b's support
    R = 100
    b = FiniteSupport((1.0,) + (0.0,) * (R - 1) + (0.5,))
    rep = check_conditions("qn_general", ExponentialOU(1.0), b=b, Delta=1.0, model=BrownianMotion(1.0))
    s = np.arange(-4000, 4001)
    support = {0: 1.0, R: 0.5, -R: 0.5}
    g = lambda s: np.exp(-np.abs(s)) / 2.0
    seqs = {
        "[1]": g(s),
        "[2]": sum(bu * bv * g(s + u - v) for u, bu in support.items() for v, bv in support.items()),
        "cross": sum(bu * g(s - u) for u, bu in support.items()),
    }
    norms = [n for a in rep.assumptions for n in a.norms]
    assert "lag_cross_products(2)" in {n.name for n in norms}
    for n in norms:
        p = float(n.name[n.name.index("(") + 1 : n.name.index(")")])
        seq = seqs["cross" if n.name.startswith("lag_cross") else n.name[-3:]]
        exact = np.max(seq) if p == math.inf else np.sum(seq**p) ** (1.0 / p)
        assert abs(n.value - exact) <= n.tail_bound + 1e-7 * exact, n.name


def test_power_decay_membership_sweep_matches_exact_arithmetic():
    qs = (1.0, 1.25, 1.5, 2.0)
    rhos = (0.4, 0.55, 0.7, 0.9, 1.1)
    radius = 48
    count = 0
    for q in qs:
        for rho in rhos:
            b = PowerDecay(c=1.0, rho=rho, b0=1.0)
            norm, _ = lp_norm_sequence(b.weights(radius), b.seq_tail(), q)
            assert np.isfinite(norm) == b.lq_member(q) == (q * rho > 1.0)
            count += 1
    assert count == 20


def test_sn_general_ou_pair_supported():
    rep = check_conditions("sn_general", (ExponentialOU(1.0), ExponentialOU(2.0)), Delta=1.0)
    assert rep.overall == "supported"
    assert rep.exponents["alpha1"] in (1.0, math.inf)


def test_sn_general_brownian_skips_period_condition():
    rep = check_conditions("sn_general", ExponentialOU(1.0), Delta=1.0, model=BrownianMotion(2.0))
    assert rep.overall == "supported"
    assert any("Brownian" in note for note in rep.skipped)
    assert all(a.name != "period_square_integrable" for a in rep.assumptions)


def test_monotonicity_less_demanding_pair_not_refuted():
    # supported at the auto pair; the strictly easier (2, 2) pin must not refute
    ks = (ExponentialOU(1.0), ExponentialOU(1.0))
    auto = check_conditions("sn_general", ks, Delta=1.0)
    assert auto.overall == "supported"
    pinned = check_conditions("sn_general", ks, Delta=1.0, exponents=(2.0, 2.0))
    assert pinned.overall != "refuted"


def test_envelope_implies_general_assumptions():
    # whenever the envelope condition holds at beta, the general set with the
    # induced conjugate pair is supported as well
    ou = ExponentialOU(1.0)
    b = FiniteSupport(values=(1.0, 0.5))
    env = check_conditions("qn_envelope", ou, b=b, Delta=1.0)
    assert env.overall == "supported"
    beta = env.exponents["beta"]
    alpha = env.exponents["alpha"]
    gen = check_conditions("qn_general", ou, b=b, Delta=1.0, exponents=(alpha, beta))
    assert gen.overall == "supported"


@pytest.mark.parametrize("condition_set", ["qn_general", "qn_envelope"])
@pytest.mark.parametrize("d, rho", [(0.2, 0.7), (0.1, 0.6)])
def test_envelope_of_long_memory_refuted_by_convolution_exponent(condition_set, d, rho):
    # |b| * |phi| decays like t^-(rho + (1 - d) - 1) = t^-0.5 here, not like t^-min(rho, 1 - d):
    # its lag self-products diverge, and the arithmetic says so at once
    t0 = time.perf_counter()
    rep = check_conditions(condition_set, FractionalNoise(d), b=PowerDecay(c=1.0, rho=rho, b0=1.0), Delta=1.0)
    assert time.perf_counter() - t0 < 1.0
    assert rep.overall == "refuted"
    assert "t^-0.5;" in rep.assumptions[0].note


@pytest.mark.parametrize("d, rho", [(0.2, 1.2), (0.1, 1.5)])
def test_envelope_of_gaussian_side_long_memory_not_short_circuited(d, rho):
    # exponents min(rho, 1 - d, rho - d) = 1 - d > 1/2: the envelope's lag products may converge
    kernel, b = FractionalNoise(d), PowerDecay(c=1.0, rho=rho, b0=1.0)
    assert conditions._qn_envelope_divergence(kernel, b, "qn_general", "auto") is None


_SOUNDNESS_KERNELS = {
    "ou": ExponentialOU(1.0),
    "carma": build_carma((3.0, 2.0), (3.0, 1.0), 1),
    **{f"fn{d:g}": FractionalNoise(d) for d in (0.05, 0.1, 0.2)},
}

def _b_star_gamma_exponent(kernel, rho_b):
    """Decay exponent of ``b * gamma``: ``gamma`` decays like ``s^-conv(rho_phi, rho_phi)``."""
    rho_phi = decay_exponent(kernel.decay)
    return conv_exponent(rho_b, conv_exponent(rho_phi, rho_phi))


# cells where b * gamma is not square summable, so eta2 of Q_n is infinite
_INFINITE_ETA2 = [
    (name, rho_b)
    for name, kernel in _SOUNDNESS_KERNELS.items()
    for rho_b in (0.2, 0.3, 0.4, 0.5, 0.55, 0.6, 0.7, 0.8)
    if 2.0 * _b_star_gamma_exponent(kernel, rho_b) <= 1.0
]


def test_soundness_grid_has_29_cells():
    assert len(_INFINITE_ETA2) == 29


@pytest.mark.parametrize("name, rho_b", _INFINITE_ETA2)
def test_infinite_eta2_is_refuted_and_refused(name, rho_b):
    # the Gaussian limit needs b * gamma in l^2; where exponent arithmetic shows it is not, no
    # check may say supported and eta2_qn must refuse at once instead of summing a divergent tail
    kernel, b = _SOUNDNESS_KERNELS[name], PowerDecay(c=1.0, rho=rho_b, b0=1.0)
    for condition_set in ("qn_general", "qn_envelope"):
        t0 = time.perf_counter()
        rep = check_conditions(condition_set, kernel, b=b, Delta=1.0, model=BrownianMotion(1.0))
        assert rep.overall == "refuted", (condition_set, rep.assumptions)
        assert time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceError):
        eta2_qn(kernel, b, BrownianMotion(1.0), 1.0, check="skip")
    assert time.perf_counter() - t0 < 1.0


def test_envelope_lag_products_outside_every_candidate_are_refuted():
    # OU with rho_b = 0.55: psi decays like t^-0.55 and its self products like s^-0.1, in no
    # l^beta with beta <= 2; eta2 is finite (b * gamma ~ s^-0.55), so qn_general is not refuted
    kernel, b = ExponentialOU(1.0), PowerDecay(c=1.0, rho=0.55, b0=1.0)
    t0 = time.perf_counter()
    rep = check_conditions("qn_envelope", kernel, b=b, Delta=1.0)
    assert time.perf_counter() - t0 < 1.0
    assert rep.overall == "refuted"
    assert "s^-0.1: in no l^beta, beta <= 2" in rep.assumptions[0].note
    assert conditions._qn_envelope_divergence(kernel, b, "qn_general", "auto") is None
    # a pinned candidate large enough for s^-0.1 is not refuted by arithmetic
    assert conditions._qn_envelope_divergence(kernel, b, "qn_envelope", (2.0, 11.0)) is None


@pytest.mark.parametrize("condition_set", ["qn_general", "qn_envelope"])
def test_fitted_kernel_tail_never_refutes_the_envelope(condition_set):
    b = PowerDecay(c=1.0, rho=0.3, b0=1.0)
    assert conditions._qn_envelope_divergence(tail07_kernel(), b, condition_set, "auto") is None


def test_conjugate_pair_condition_follows_from_the_cross_condition():
    # once psi's lag products converge (2 rho_psi > 1), no conjugate pair for the self products
    # (e11 + e22 <= 1) implies cross products outside l^2 (2 e12 <= 1): one rule refutes both
    exponents = [*np.round(np.arange(0.05, 2.0, 0.05), 2), math.inf]
    checked = 0
    for rho_phi in exponents:
        for rho_b in exponents:
            rho_psi = conv_exponent(rho_b, rho_phi)
            if rho_b + rho_phi <= 1.0 or 2.0 * rho_psi <= 1.0:
                continue
            e11, e22 = conv_exponent(rho_phi, rho_phi), conv_exponent(rho_psi, rho_psi)
            assert e11 + e22 > 1.0 or 2.0 * conv_exponent(rho_phi, rho_psi) <= 1.0 + 1e-12, (rho_phi, rho_b)
            checked += 1
    assert checked > 800


@pytest.mark.parametrize("model", [BrownianMotion(1.0), CompoundPoissonNormal(rate=1.0, jump_variance=1.0)], ids=["brownian", "cpn"])
@pytest.mark.parametrize("condition_set", ["autocov", "sn_general", "qn_general", "qn_envelope"])
def test_divergent_lag_integrals_are_reported_not_raised(condition_set, model):
    # a fitted tail exponent 0.2: every lag product int |k(t) k(t + s)| dt and every lattice
    # sum of the period norms diverges (0.2 + 0.2 <= 1); a fitted exponent cannot refute, so
    # each assumption is indeterminate by arithmetic, with no quadrature
    kernel = tail07_kernel(0.2)
    b = PowerDecay(c=1.0, rho=1.5, b0=1.0) if condition_set.startswith("qn") else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t0 = time.perf_counter()
        rep = check_conditions(condition_set, kernel, b=b, Delta=1.0, model=model)
        assert time.perf_counter() - t0 < 1.0
    assert rep.overall == "indeterminate"
    for a in rep.assumptions:
        assert a.verdict == "indeterminate", a.name
        assert a.note.startswith("infinite ") and "fitted tail exponents give alpha * sum rho = 0.4 <= 1" in a.note, a
        assert all(n.value == math.inf for n in a.norms)


def test_divergence_by_exact_exponents_refutes():
    class Exact:
        decay = PowerTail(constant=1.0, exponent=0.4, start=1.0)

    assert conditions._divergence((Exact(), Exact()), 1.0) == (pytest.approx(0.8), True)
    assert conditions._divergence((Exact(),), 2.0) == (pytest.approx(0.8), True)
    assert conditions._divergence((Exact(),), 3.0) is None  # 3 * 0.4 > 1
    assert conditions._divergence((Exact(), ExponentialOU(1.0)), 1.0) is None
    norms = (conditions.NormEstimate("lag_products(2)", math.inf, math.inf),)
    check = conditions._judged("lag_products_square_summable", norms, conditions._divergence((Exact(), Exact()), 1.0))
    assert check.verdict == "refuted"
    assert check.note == "infinite lag_products(2): exact tail exponents give alpha * sum rho = 0.8 <= 1"


def test_autocov_conditions_supported_for_ou():
    rep = check_conditions("autocov", ExponentialOU(1.0), Delta=1.0)
    assert rep.overall == "supported"


def test_qn_decay_power_kernel_arithmetic():
    # fractional kernel: alpha >= 2(1 - rho_phi) = 2d; power b needs beta >= 1 - rho_b
    fn = FractionalNoise(0.05)
    ok = check_conditions("qn_decay", fn, b=PowerDecay(c=1.0, rho=0.95, b0=1.0), Delta=1.0)
    assert ok.overall == "supported"  # 0.1 + 0.05 < 1/2
    bad = check_conditions("qn_decay", fn, b=PowerDecay(c=1.0, rho=0.45, b0=1.0), Delta=1.0)
    assert bad.overall == "refuted"  # 0.1 + 0.55 >= 1/2


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    vals=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=15),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    q=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
)
@settings(max_examples=80, deadline=None)
def test_lp_norm_nonincreasing_in_p(vals, p, q):
    # classical embedding: for p <= q the sequence norm can only shrink
    if p > q:
        p, q = q, p
    two_sided = np.array(vals[::-1] + [1.0] + vals)
    zero = CompactTail(end=float(len(vals)))
    np_norm, _ = lp_norm_sequence(two_sided, zero, p)
    nq_norm, _ = lp_norm_sequence(two_sided, zero, q)
    assert nq_norm <= np_norm * (1 + 1e-12)


@given(rho=st.floats(0.2, 2.0), q=st.floats(1.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_power_decay_verdict_matches_arithmetic_property(rho, q):
    b = PowerDecay(c=1.0, rho=rho, b0=1.0)
    norm, _ = lp_norm_sequence(b.weights(32), b.seq_tail(), q)
    assert np.isfinite(norm) == (q * rho > 1.0)


def test_report_shape_and_errors():
    rep = check_conditions("qn_exponent", ExponentialOU(1.0), b=FiniteSupport.delta0(), Delta=1.0)
    doc = rep.to_dict()
    assert doc["condition_set"] == "qn_exponent"
    assert doc["overall"] == "supported"
    assert all(a["verdict"] in ("supported", "refuted", "indeterminate") for a in doc["assumptions"])
    for entry in doc["assumptions"]:
        for nrm in entry["norms"]:
            assert "tail_bound" in nrm
    with pytest.raises(ParameterError):
        check_conditions("qn_exponent", ExponentialOU(1.0), Delta=1.0)  # b missing
    with pytest.raises(ParameterError):
        check_conditions("nonsense", ExponentialOU(1.0), Delta=1.0)


def test_qn_general_period_norm_samples_one_base_lattice(monkeypatch):
    # the period norm takes (|phi|, psi), and psi is a combination over that same |phi|
    from cmaqf import quadrature

    bases, real = [], quadrature._lattice_chunk

    def spy(products, factors, *args):
        bases.append(len({id(base) for base, _, _, _ in factors.values()}))
        return real(products, factors, *args)

    monkeypatch.setattr(quadrature, "_lattice_chunk", spy)
    rep = check_conditions("qn_general", ExponentialOU(1.0), b=FiniteSupport((1.0, 0.5)), Delta=1.0,
                           model=CompoundPoissonNormal(1.0, 1.0))
    assert rep.overall == "supported" and [a.name for a in rep.assumptions][-1] == "period_square_integrable"
    assert bases and set(bases) == {1}


@pytest.mark.parametrize("condition_set, count", [("sn_general", 3), ("autocov", 2)])
def test_a_wrong_kernel_count_is_refused(condition_set, count):
    with pytest.raises(ParameterError, match=f"kernels?, got {count}"):
        check_conditions(condition_set, (ExponentialOU(1.0),) * count)
