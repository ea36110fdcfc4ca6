"""The benchmark's workloads: inputs built from the seed, the timed public calls
and the values each call's correctness gate and fingerprint read.

``build`` runs in the set-up phase, ``call`` is the timed region and
``readout`` runs after it, untimed and untraced.  Only public ``cmaqf`` names
are used, looked up at call time so that traced runs see the wrappers.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

QN_MC = dict(n=4000, replicates=600, fine_steps=64, threads=2, b=(0.0, 1.0, 0.5))
SN_MC = dict(n=50_000, replicates=12, threads=1)
POWER_B = dict(c=1.0, rho=1.5, b0=1.0)
FRACTIONAL_D = 0.1
AUTOCOV_LAGS = 4
AUTOCOV_LAG_RADIUS = 512  # default lag_radius of autocov_clt_sigma


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], object]
    call: Callable[[object], object]
    readout: Callable[[object, object], dict]


# --- mc_qn_cpn: the CLI `mc` command, many short paths, two threads ---------


def _qn_build(seed: int, workdir: Path):
    import cmaqf.cli  # noqa: F401

    out = workdir / "mc_qn_cpn"
    config = {
        "levy": {"type": "compound_poisson_normal", "rate": 1.0, "jump_variance": 1.0},
        "kernel": {"type": "exponential_ou", "lam": 1.0},
        "b": {"type": "finite_support", "values": list(QN_MC["b"])},
        "statistic": "qn",
        "delta": 1.0,
        "n": QN_MC["n"],
        "replicates": QN_MC["replicates"],
        "seed": seed,
        "threads": QN_MC["threads"],
        "path": {"fine_steps": QN_MC["fine_steps"]},
        "output_dir": str(out),
    }
    path = workdir / "mc_qn_cpn.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return {"argv": ["mc", "--config", str(path)], "out": out}


def _qn_call(inputs):
    import cmaqf.cli

    code = cmaqf.cli.run(inputs["argv"])
    if code != 0:
        raise RuntimeError(f"cmaqf mc exited with code {code}")


def _qn_readout(inputs, result) -> dict:
    with open(inputs["out"] / "replicates.csv", newline="", encoding="utf-8") as fh:
        values = [float(row["statistic"]) for row in csv.DictReader(fh)]
    report = json.loads((inputs["out"] / "report.json").read_text(encoding="utf-8"))
    return {"replicates": values, "eta2": report["eta2"]}


# --- mc_sn_pair_long: run_experiment, few long paths, one thread ------------


def _sn_build(seed: int, workdir: Path):
    import cmaqf

    return cmaqf.ExperimentConfig(
        statistic="sn",
        kernel=cmaqf.build_carma((3.0, 2.0), (3.0, 1.0), 1),
        kernel2=cmaqf.ExponentialOU(0.5),
        model=cmaqf.BrownianMotion(1.0),
        delta=1.0,
        n=SN_MC["n"],
        replicates=SN_MC["replicates"],
        seed=seed,
    )


def _sn_call(cfg):
    import cmaqf

    return cmaqf.run_experiment(cfg, threads=SN_MC["threads"])


def _sn_readout(cfg, report) -> dict:
    import cmaqf

    expected = cmaqf.expected_sn(cfg.kernel, cfg.kernel2, cfg.model, cfg.delta, cfg.n)
    return {"replicates": [float(v) for v in report.statistics], "eta2": report.eta2, "expected_sn": expected}


# --- analytic_long_memory: eta2_qn with power weights, and Sigma of fractional noise


def _eta2_build(seed: int, workdir: Path):
    import cmaqf

    return (
        cmaqf.ExponentialOU(1.0),
        cmaqf.PowerDecay(**POWER_B),
        cmaqf.CompoundPoissonNormal(1.0, 1.0),
        1.0,
    )


def _eta2_call(args):
    import cmaqf

    return cmaqf.eta2_qn(*args)


def _eta2_readout(args, report) -> dict:
    return {
        "eta2": report.eta2,
        "eta2_alt": report.eta2_alt,
        "kappa4_term": report.kappa4_term,
        "covariance_terms": dict(report.covariance_terms),
        "diagnostics": dict(report.diagnostics),
        "conditions_note": report.conditions_note,
    }


def _sigma_build(seed: int, workdir: Path):
    import cmaqf

    return cmaqf.FractionalNoise(FRACTIONAL_D), cmaqf.BrownianMotion(1.0)


def _sigma_call(args):
    import cmaqf

    kernel, model = args
    # checks skipped: the autocov condition check alone costs far more than Sigma
    return cmaqf.autocov_clt_sigma(kernel, model, 1.0, AUTOCOV_LAGS, check="skip")


def _sigma_readout(args, sigma) -> dict:
    return {"sigma": [[float(v) for v in row] for row in sigma]}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_qn_cpn", _qn_build, _qn_call, _qn_readout),
        Workload("mc_sn_pair_long", _sn_build, _sn_call, _sn_readout),
        Workload("analytic_long_memory_qn", _eta2_build, _eta2_call, _eta2_readout),
        Workload("analytic_long_memory_sigma", _sigma_build, _sigma_call, _sigma_readout),
    )
}
