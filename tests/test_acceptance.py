"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``-rA``) to see the
per-criterion lines.  Tolerances and runtime limits are asserted, not logged.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from cmaqf.cli import run as cli_run
from cmaqf.conditions import check_conditions, lp_norm_sequence
from cmaqf.covariance import FiniteSupport, PowerDecay, autocovariance
from cmaqf.kernels import ExponentialOU, FractionalNoise, SddeKernel, TabulatedKernel, build_carma, grid_sample
from cmaqf.levy import BrownianMotion, CompoundPoissonNormal, stream
from cmaqf.montecarlo import ExperimentConfig, run_experiment
from cmaqf.simulate import PathConfig, simulate_path, stochastic_integrals_joint
from cmaqf.variance import autocov_clt_sigma, eta2_qn, fourth_moment

THREADS = os.cpu_count() or 1


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def box_grid(a, b, step=0.125, horizon=4.0):
    ts = np.arange(-int(horizon / step), int(horizon / step) + 1) * step
    vals = ((ts >= a) & (ts < b)).astype(float)
    kernel = TabulatedKernel(t0=float(ts[0]), step=step, values=vals)
    return grid_sample(kernel, 1.0, int(round(1.0 / step)), horizon)


def test_criterion_01_fourth_moment_oracle():
    t0 = time.time()
    model = CompoundPoissonNormal(1.0, 1.0)
    g1 = box_grid(0.0, 1.0)
    g2 = box_grid(1.0, 2.0)
    R = 10**6
    cases = {
        "all-equal indicator": (g1, g1, g1, g1, stream(2024, 0)),
        "two disjoint indicators": (g1, g2, g1, g2, stream(2024, 1)),
    }
    for name, (a, b, c, d, rng) in cases.items():
        target = fourth_moment(a, b, c, d, model)
        i1, i2, i3, i4 = stochastic_integrals_joint((a, b, c, d), model, R, rng)
        prods = i1 * i2 * i3 * i4
        mean = float(np.mean(prods))
        se = float(np.std(prods, ddof=1)) / math.sqrt(R)
        assert abs(mean - target) < 4 * se, f"{name}: {mean} vs {target} (4se={4*se})"
    elapsed = time.time() - t0
    assert elapsed < 60
    report(1, f"fourth-moment oracle matches 1e6-replicate Monte Carlo within 4 SE ({elapsed:.1f}s)")


def test_criterion_02_ou_autocovariance_closed_form():
    t0 = time.time()
    ou = ExponentialOU(1.0)
    for h in (0.0, 1.0, 2.0, 5.0):
        got = autocovariance(ou, 2.0, h)
        exact = math.exp(-h)
        assert abs(got - exact) < 1e-6 * exact, f"h={h}: {got} vs {exact}"
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, f"exponential-kernel autocovariance within 1e-6 relative at default grid ({elapsed:.2f}s)")


def test_criterion_03_carma_residue_oracle():
    t0 = time.time()
    k = build_carma((3.0, 2.0), (3.0, 1.0), 1)
    t = np.linspace(0.0, 10.0, 10001)
    oracle = 2.0 * np.exp(-t) - np.exp(-2.0 * t)  # residues over roots -1, -2
    assert np.max(np.abs(k.eval(t) - oracle)) < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(3, f"state-space kernel matches partial-fraction oracle within 1e-8 ({elapsed:.2f}s)")


def test_criterion_04_variance_identity_two_routes():
    t0 = time.time()
    b = FiniteSupport(values=(0.0, 1.0, 0.5))
    rep = eta2_qn(ExponentialOU(1.0), b, BrownianMotion(2.0), 1.0)
    assert rep.eta2_alt is not None
    rel = abs(rep.eta2 - rep.eta2_alt) / abs(rep.eta2)
    assert rel < 1e-8, f"direct {rep.eta2} vs bilinear route {rep.eta2_alt} (rel {rel:.2e})"
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(4, f"quadratic-form variance identical through both routes (rel diff {rel:.1e}, {elapsed:.1f}s)")


@pytest.mark.parametrize(
    "model,label",
    [(BrownianMotion(2.0), "brownian"), (CompoundPoissonNormal(1.0, 1.0), "compound-poisson")],
)
def test_criterion_05_qn_gaussian_limit(model, label):
    t0 = time.time()
    cfg = ExperimentConfig(
        statistic="qn",
        kernel=ExponentialOU(1.0),
        model=model,
        b=FiniteSupport.delta0(),
        delta=1.0,
        n=4000,
        replicates=2000,
        seed=20240809,
    )
    rep = run_experiment(cfg, threads=THREADS)

    sigma2, kappa4 = model.cumulants()
    g0 = sigma2 / 2.0
    cov_sum = 2.0 * g0**2 * (1 + math.exp(-2)) / (1 - math.exp(-2))
    phase = (1 - math.exp(-4)) / (4 * (1 - math.exp(-2)) ** 2)
    eta2_exact = kappa4 * phase + cov_sum
    assert abs(rep.eta2 - eta2_exact) < 1e-6 * eta2_exact

    assert 0.9 < rep.variance_ratio < 1.1, f"variance ratio {rep.variance_ratio}"
    assert rep.ks < 0.05, f"KS {rep.ks}"
    elapsed = time.time() - t0
    assert elapsed < 600
    report(
        5,
        f"{label} driver: variance ratio {rep.variance_ratio:.3f}, KS {rep.ks:.3f} "
        f"against eta2 = {eta2_exact:.6f} ({elapsed:.0f}s)",
    )


def test_criterion_06_condition_checker_calibration():
    t0 = time.time()
    # (a) exponential kernel + finite-support coefficients
    rep_a = check_conditions("qn_exponent", ExponentialOU(1.0), b=FiniteSupport(values=(1.0, 0.5)), Delta=1.0)
    assert rep_a.overall == "supported"
    # (b) fractional pair at d = 0.1 under the decay-style conditions
    fn = FractionalNoise(0.1)
    rep_b = check_conditions("sn_decay", (fn, fn), Delta=1.0)
    assert rep_b.overall == "supported"
    assert rep_b.exponents["alpha1"] == pytest.approx(0.9) and rep_b.exponents["alpha2"] == pytest.approx(0.9)
    # (c) tabulated tail-exponent-0.7 pair refutes: best sum 1.4 < 3/2
    step = 1.0 / 16.0
    ts = np.arange(0, 1025) * step
    vals = np.where(ts >= 1.0, np.maximum(ts, 1.0) ** -0.7, 1.0)
    tk = TabulatedKernel(t0=0.0, step=step, values=vals)
    rep_c = check_conditions("sn_decay", (tk, tk), Delta=1.0)
    assert rep_c.overall == "refuted"
    # (d) 20-point power-decay sweep: verdicts equal exact q-summability arithmetic
    count = 0
    for q in (1.0, 1.25, 1.5, 2.0):
        for rho in (0.4, 0.55, 0.7, 0.9, 1.1):
            b = PowerDecay(c=1.0, rho=rho, b0=1.0)
            norm, _ = lp_norm_sequence(b.weights(48), b.seq_tail(), q)
            assert np.isfinite(norm) == (q * rho > 1.0) == b.lq_member(q)
            count += 1
    assert count == 20
    elapsed = time.time() - t0
    assert elapsed < 60
    report(6, f"checker calibration: supported/supported(0.9)/refuted + 20/20 sweep agreement ({elapsed:.1f}s)")


def test_criterion_07_simulation_isometry_and_convolution():
    t0 = time.time()
    cfg = PathConfig(delta=1.0, n=100_000, fine_steps=64, seed=77)
    p = simulate_path(ExponentialOU(1.0), BrownianMotion(2.0), cfg)
    var = float(np.var(p.values))
    assert abs(var - 1.0) < 0.05, f"sample variance {var}"

    cfg_small = PathConfig(delta=1.0, n=128, fine_steps=64, seed=78)
    fast = simulate_path(ExponentialOU(1.0), BrownianMotion(2.0), cfg_small)
    slow = simulate_path(ExponentialOU(1.0), BrownianMotion(2.0), cfg_small, method="direct")
    rel = np.max(np.abs(fast.values - slow.values) / np.maximum(np.abs(slow.values), 1e-30))
    assert rel < 1e-10, f"fast vs naive rel {rel}"
    elapsed = time.time() - t0
    assert elapsed < 60
    report(7, f"sample variance {var:.4f} within 5%; fast vs naive rel {rel:.1e} ({elapsed:.1f}s)")


def test_criterion_08_autocovariance_gaussian_limit():
    t0 = time.time()
    kernel, model = ExponentialOU(1.0), BrownianMotion(2.0)
    sigma = autocov_clt_sigma(kernel, model, 1.0, 1)
    assert np.array_equal(sigma, sigma.T)
    assert np.min(np.linalg.eigvalsh(sigma)) > -1e-12
    cfg = ExperimentConfig(
        statistic="autocov_contrast",
        kernel=kernel,
        model=model,
        delta=1.0,
        n=4000,
        replicates=1000,
        seed=31,
        contrast=(1.0,),
    )
    rep = run_experiment(cfg, threads=THREADS)
    assert rep.eta2 == pytest.approx(float(sigma[0, 0]), rel=1e-12)
    assert 0.85 < rep.variance_ratio < 1.15, f"variance ratio {rep.variance_ratio}"
    elapsed = time.time() - t0
    assert elapsed < 600
    report(8, f"autocovariance contrast variance ratio {rep.variance_ratio:.3f}; Sigma symmetric PSD ({elapsed:.0f}s)")


def test_criterion_09_delay_kernel_reduction():
    t0 = time.time()
    ts = np.linspace(0.0, 10.0, 4001)
    errs = {}
    for step in (1e-3, 5e-4):
        k = SddeKernel(atoms=[(0.0, -1.0)], horizon=10.0, step=step)
        errs[step] = float(np.max(np.abs(k.eval(ts) - np.exp(-ts))))
    assert errs[1e-3] < 1e-4, f"max error {errs[1e-3]}"
    assert errs[1e-3] / errs[5e-4] >= 3.0, f"halving ratio {errs[1e-3] / errs[5e-4]}"
    elapsed = time.time() - t0
    assert elapsed < 10
    report(9, f"delay kernel within {errs[1e-3]:.2e} of exp(-t); halving ratio {errs[1e-3]/errs[5e-4]:.1f} ({elapsed:.1f}s)")


def test_criterion_10_cli_manifest_determinism(tmp_path):
    t0 = time.time()
    base = {
        "levy": {"type": "brownian_motion", "variance": 2.0},
        "kernel": {"type": "exponential_ou", "lam": 1.0},
        "delta": 1.0,
        "seed": 7,
        "path": {"fine_steps": 16},
        "threads": 2,
    }
    runs = {
        "check": dict(base, b={"type": "finite_support", "values": [1.0, 0.5]}, check={"condition_set": "qn_exponent"}),
        "variance": dict(base, statistic="qn", b={"type": "finite_support", "values": [1.0, 0.5]}),
        "simulate": dict(base, n=64),
        "mc": dict(base, statistic="sn", n=200, replicates=30),
        "autocov-clt": dict(base, n=200, replicates=30, contrast=[1.0]),
        "ls-clt": dict(base, n=200, replicates=30, ls={"poly": [[0.0, 1.0]]}),
        "kernel-export": dict(base, grid={"m": 4, "horizon": 4.0}),
    }
    for command, doc in runs.items():
        cfg_path = tmp_path / f"{command}.json"
        out1 = tmp_path / f"{command}-out1"
        out2 = tmp_path / f"{command}-out2"
        doc = dict(doc, output_dir=str(out1))
        cfg_path.write_text(json.dumps(doc))
        assert cli_run([command, "--config", str(cfg_path)]) == 0, command
        assert cli_run([command, "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0, command
        files1 = {p.name: p.read_bytes() for p in sorted(out1.iterdir()) if p.suffix in (".csv", ".json")}
        files2 = {p.name: p.read_bytes() for p in sorted(out2.iterdir()) if p.suffix in (".csv", ".json")}
        assert set(files1) == set(files2)
        for name in files1:
            if name == "manifest.json":
                continue  # differs only in its embedded output_dir
            assert files1[name] == files2[name], f"{command}/{name} not byte-identical"
    elapsed = time.time() - t0
    report(10, f"all seven subcommands reproduce bit-identical outputs from their manifests ({elapsed:.0f}s)")
