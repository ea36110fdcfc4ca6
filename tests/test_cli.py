import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cmaqf import cli, specs
from cmaqf.cli import _block_keys, run


def write_config(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def base_config(**extra):
    doc = {
        "levy": {"type": "brownian_motion", "variance": 2.0},
        "kernel": {"type": "exponential_ou", "lam": 1.0},
        "delta": 1.0,
        "seed": 5,
    }
    doc.update(extra)
    return doc


def read_all_outputs(outdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}


def test_check_supported_exit_zero(tmp_path, capsys):
    cfg = base_config(
        b={"type": "finite_support", "values": [1.0, 0.5]},
        check={"condition_set": "qn_exponent"},
        output_dir=str(tmp_path / "out"),
    )
    code = run(["check", "--config", str(write_config(tmp_path, "c.json", cfg))])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["overall"] == "supported"
    assert report["exponents"] == {"alpha": 1.0, "beta": 1.0}
    assert "supported" in capsys.readouterr().out


def test_check_refuted_exit_three_and_force(tmp_path):
    step = 1.0 / 16.0
    ts = np.arange(0, 513) * step
    vals = np.where(ts >= 1.0, np.maximum(ts, 1.0) ** -0.7, 1.0)
    cfg = base_config(
        kernel={"type": "tabulated", "t0": 0.0, "step": step, "values": [float(v) for v in vals]},
        check={"condition_set": "sn_decay"},
        output_dir=str(tmp_path / "out"),
    )
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["check", "--config", str(path)]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["overall"] == "refuted"
    assert run(["check", "--config", str(path), "--force"]) == 0


def test_variance_qn_report(tmp_path):
    cfg = base_config(
        b={"type": "finite_support", "values": [1.0]},
        statistic="qn",
        output_dir=str(tmp_path / "out"),
    )
    code = run(["variance", "--config", str(write_config(tmp_path, "c.json", cfg))])
    assert code == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    exact = 2 * (1 + math.exp(-2)) / (1 - math.exp(-2))
    assert abs(rep["eta2"] - exact) < 1e-6 * exact
    assert rep["kappa4_term"] == 0.0


def test_malformed_and_schema_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["variance", "--config", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"

    cfg = base_config(statistic="qn", bogus_key=1, output_dir=str(tmp_path / "o"))
    assert run(["variance", "--config", str(write_config(tmp_path, "u.json", cfg))]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "bogus_key" in err["error"]["message"]

    cfg = base_config(statistic="qn", output_dir=str(tmp_path / "o"))  # b missing for qn
    assert run(["variance", "--config", str(write_config(tmp_path, "m.json", cfg))]) == 2


def test_simulate_outputs_and_sidecar(tmp_path):
    cfg = base_config(n=32, path={"fine_steps": 8}, output_dir=str(tmp_path / "out"))
    code = run(["simulate", "--config", str(write_config(tmp_path, "c.json", cfg))])
    assert code == 0
    lines = (tmp_path / "out" / "path.csv").read_text().splitlines()
    assert lines[0] == "x" and len(lines) == 33
    sidecar = json.loads((tmp_path / "out" / "path.json").read_text())
    assert {"config", "kernel", "model"} <= set(sidecar["provenance"])
    assert sidecar["provenance"]["tail_mass_rel"] < 1e-4
    assert (sidecar["provenance"]["route"], sidecar["provenance"]["rank"]) == ("lowrank", 1)


def test_mc_round_trip_bit_identical(tmp_path):
    cfg = base_config(
        statistic="sn",
        n=200,
        replicates=40,
        path={"fine_steps": 16},
        threads=2,
        output_dir=str(tmp_path / "out1"),
    )
    code = run(["mc", "--config", str(write_config(tmp_path, "c.json", cfg))])
    assert code == 0
    first = read_all_outputs(tmp_path / "out1")
    assert set(first) == {"manifest.json", "replicates.csv", "report.json"}
    csv_lines = first["replicates.csv"].decode().splitlines()
    assert csv_lines[0] == "replicate,statistic" and len(csv_lines) == 41

    code = run(["mc", "--config", str(tmp_path / "out1" / "manifest.json"), "--out", str(tmp_path / "out2")])
    assert code == 0
    second = read_all_outputs(tmp_path / "out2")
    assert first["replicates.csv"] == second["replicates.csv"]
    assert first["report.json"] == second["report.json"]


def test_seed_override_changes_outputs(tmp_path):
    cfg = base_config(statistic="sn", n=100, replicates=10, path={"fine_steps": 8}, output_dir=str(tmp_path / "a"))
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["mc", "--config", str(path)]) == 0
    assert run(["mc", "--config", str(path), "--seed", "99", "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "replicates.csv").read_bytes()
    b = (tmp_path / "b" / "replicates.csv").read_bytes()
    assert a != b


def test_kernel_export_format(tmp_path):
    cfg = base_config(grid={"m": 2, "horizon": 2.0}, output_dir=str(tmp_path / "out"))
    code = run(["kernel-export", "--config", str(write_config(tmp_path, "c.json", cfg))])
    assert code == 0
    lines = (tmp_path / "out" / "kernel.csv").read_text().splitlines()
    assert lines[0] == "t,phi"
    assert len(lines) == 10  # nodes from -2 to 2 at step 1/2
    t0, v0 = lines[1].split(",")
    assert float(t0) == -2.0 and float(v0) == 0.0


def test_wrong_command_in_manifest_rejected(tmp_path):
    cfg = base_config(statistic="qn", b={"type": "finite_support", "values": [1.0]}, command="variance",
                      output_dir=str(tmp_path / "out"))
    p = write_config(tmp_path, "c.json", cfg)
    assert run(["variance", "--config", str(p)]) == 0
    assert run(["simulate", "--config", str(tmp_path / "out" / "manifest.json")]) == 2


def test_convergence_error_exits_four(tmp_path, capsys):
    # long-memory kernel with weights decaying too slowly: the conditions are
    # refuted by decay arithmetic (exit 3); forcing past them runs into the
    # termwise-divergent weighted covariance convolution (exit 4)
    cfg = base_config(
        kernel={"type": "fractional_noise", "d": 0.1},
        b={"type": "power_decay", "c": 1.0, "rho": 0.15, "b0": 1.0},
        statistic="qn",
        output_dir=str(tmp_path / "out"),
    )
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["variance", "--config", str(path)]) == 3
    capsys.readouterr()
    assert run(["variance", "--config", str(path), "--force"]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "numerical"


def test_autocov_and_ls_clt_commands(tmp_path):
    cfg = base_config(
        n=300, replicates=30, contrast=[1.0], path={"fine_steps": 8},
        output_dir=str(tmp_path / "a"),
    )
    assert run(["autocov-clt", "--config", str(write_config(tmp_path, "a.json", cfg))]) == 0
    rep = json.loads((tmp_path / "a" / "report.json").read_text())
    assert rep["replicates"] == 30 and rep["eta2"] > 0

    cfg = base_config(
        n=300, replicates=30, ls={"poly": [[0.0, 1.0]]}, path={"fine_steps": 8},
        output_dir=str(tmp_path / "b"),
    )
    assert run(["ls-clt", "--config", str(write_config(tmp_path, "b.json", cfg))]) == 0
    rep = json.loads((tmp_path / "b" / "report.json").read_text())
    assert "theta0" in rep["extra"]


def test_experiment_commands_honour_tail_mass_budget(tmp_path, capsys):
    # an 8-unit window leaves e^{-16} of the OU kernel's squared mass outside, far above 1e-9
    common = dict(n=100, replicates=4, path={"fine_steps": 8, "horizon": 8.0, "tail_mass_budget": 1e-9})
    runs = {
        "mc": base_config(statistic="sn", **common),
        "autocov-clt": base_config(contrast=[1.0], **common),
        "ls-clt": base_config(ls={}, **common),
    }
    for command, cfg in runs.items():
        cfg["output_dir"] = str(tmp_path / command)
        assert run([command, "--config", str(write_config(tmp_path, f"{command}.json", cfg))]) == 4, command
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "numerical", command


def test_seed_outside_64_bits_rejected(tmp_path, capsys):
    cfg = base_config(statistic="sn", n=50, replicates=4, path={"fine_steps": 8}, output_dir=str(tmp_path / "out"))
    assert run(["mc", "--config", str(write_config(tmp_path, "c.json", cfg)), "--seed", "-1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "seed" in err["error"]["message"]


def test_seed_checked_before_the_analytic_setup(tmp_path, capsys):
    # the conditions of this config are refuted (exit 3 once the set-up runs),
    # so exit 2 shows the seed is rejected before any set-up work
    cfg = base_config(
        levy={"type": "compound_poisson_normal", "rate": 1.0, "jump_variance": 1.0},
        kernel={"type": "fractional_noise", "d": 0.1},
        b={"type": "power_decay", "c": 1.0, "rho": 0.3, "b0": 1.0},
        statistic="qn", n=50, replicates=4, output_dir=str(tmp_path / "out"),
    )
    assert run(["mc", "--config", str(write_config(tmp_path, "c.json", cfg)), "--seed", "-1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "seed" in err["error"]["message"]


def _refuted_qn_config(tmp_path, **extra):
    # conditions refuted: exit 3 once the analytic set-up runs, so exit 2 shows
    # a rejection before any set-up work
    return base_config(
        levy={"type": "compound_poisson_normal", "rate": 1.0, "jump_variance": 1.0},
        kernel={"type": "fractional_noise", "d": 0.1},
        b={"type": "power_decay", "c": 1.0, "rho": 0.3, "b0": 1.0},
        statistic="qn", n=50, replicates=4, output_dir=str(tmp_path / "out"), **extra,
    )


def test_path_geometry_checked_before_the_analytic_setup(tmp_path, capsys):
    for path in ({"fine_steps": 0}, {"horizon": 1.5}):
        cfg = _refuted_qn_config(tmp_path, path=path)
        assert run(["mc", "--config", str(write_config(tmp_path, "c.json", cfg))]) == 2, path
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "config" and next(iter(path)) in err["error"]["message"]


def test_kernel_export_rejects_a_table_too_short_for_a_tail_fit(tmp_path, capsys):
    cfg = base_config(
        kernel={"type": "tabulated", "t0": 0.0, "step": 0.5, "values": [1.0, 0.5, 0.2]},
        grid={"m": 2, "horizon": 2.0},
        output_dir=str(tmp_path / "out"),
    )
    assert run(["kernel-export", "--config", str(write_config(tmp_path, "c.json", cfg))]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config" and "usable" in err["error"]["message"]


def test_bad_thread_count_from_environment_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CMAQF_THREADS", "abc")
    assert run(["mc", "--config", str(write_config(tmp_path, "c.json", _refuted_qn_config(tmp_path)))]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config" and "CMAQF_THREADS" in err["error"]["message"]


def test_bad_thread_count_from_config_rejected(tmp_path, capsys):
    cfg = _refuted_qn_config(tmp_path, threads="2")
    assert run(["mc", "--config", str(write_config(tmp_path, "c.json", cfg))]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config" and "$.threads" in err["error"]["message"]
    assert run(["mc", "--config", str(write_config(tmp_path, "c.json", dict(cfg, threads=2))), "--threads", "0"]) == 2
    assert "--threads" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_check_rejects_malformed_pinned_exponents(tmp_path, capsys):
    # autocov has no exponents: its pins were once dropped, with exit 0 and the pins echoed in the manifest
    for i, (condition_set, pins) in enumerate((("sn_exponent", [1.3]), ("sn_exponent", "1.3"), ("autocov", [0.3, 0.3]))):
        cfg = base_config(check={"condition_set": condition_set, "exponents": pins}, output_dir=str(tmp_path / "out"))
        assert run(["check", "--config", str(write_config(tmp_path, f"c{i}.json", cfg))]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "config"
        assert "exponents" in err["error"]["message"]


def test_check_refutes_a_kernel_outside_l4(tmp_path):
    # tail exponent 0.2: refuted by decay arithmetic, not a divergent L^4 quadrature (exit 4)
    step = 1.0 / 16.0
    ts = np.arange(0, 1025) * step
    vals = np.where(ts >= 1.0, np.maximum(ts, 1.0) ** -0.2, 1.0)
    cfg = base_config(
        kernel={"type": "tabulated", "t0": 0.0, "step": step, "values": [float(v) for v in vals]},
        check={"condition_set": "sn_decay"},
        output_dir=str(tmp_path / "out"),
    )
    assert run(["check", "--config", str(write_config(tmp_path, "c.json", cfg))]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [a["verdict"] for a in report["assumptions"]] == ["refuted"] * 3


def test_check_reports_divergent_lag_integrals_as_indeterminate(tmp_path, capsys):
    # the same 0.2 tail under autocov: its lag products diverge, which a fitted exponent
    # cannot refute, so the report says indeterminate (exit 0) instead of raising (exit 4)
    step = 1.0 / 16.0
    ts = np.arange(0, 1025) * step
    vals = np.where(ts >= 1.0, np.maximum(ts, 1.0) ** -0.2, 1.0)
    cfg = base_config(
        kernel={"type": "tabulated", "t0": 0.0, "step": step, "values": [float(v) for v in vals]},
        check={"condition_set": "autocov"},
        output_dir=str(tmp_path / "out"),
    )
    assert run(["check", "--config", str(write_config(tmp_path, "c.json", cfg))]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["overall"] == "indeterminate"
    assert [a["verdict"] for a in report["assumptions"]] == ["indeterminate"] * 2
    assert "indeterminate" in capsys.readouterr().out


def test_non_finite_driver_parameters_rejected(tmp_path, capsys):
    # an infinite parameter once passed the `> 0` checks and then stalled the eta^2 lag sums
    for i, levy in enumerate(
        (
            {"type": "brownian_motion", "variance": math.inf},
            {"type": "compound_poisson_normal", "rate": math.inf, "jump_variance": 1.0},
            {"type": "bilateral_gamma", "shape": math.inf, "rate": 1.0},
        )
    ):
        cfg = base_config(levy=levy, statistic="qn", n=50, replicates=4, output_dir=str(tmp_path / "out"))
        assert run(["mc", "--config", str(write_config(tmp_path, f"c{i}.json", cfg))]) == 2, levy
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "config" and "finite" in err["error"]["message"], levy


# allowed keys besides "type" of each typed block, per block kind and type: the public config schema
CONFIG_SCHEMA = {
    "levy": {
        "brownian_motion": {"variance"},
        "compound_poisson_normal": {"rate", "jump_variance"},
        "bilateral_gamma": {"shape", "rate"},
    },
    "kernel": {
        "exponential_ou": {"lam"},
        "carma": {"a", "b", "q"},
        "fractional_noise": {"d"},
        "sdde": {"atoms", "horizon", "step"},
        "tabulated": {"path", "t0", "step", "values"},
    },
    "b": {
        "finite_support": {"values"},
        "power_decay": {"c", "rho", "b0"},
    },
}


def test_config_schema_is_pinned():
    schema = {kind: {name: set(_block_keys(cls)) for name, cls in specs.TYPES[kind].items()} for kind in CONFIG_SCHEMA}
    assert schema == CONFIG_SCHEMA


def test_malformed_block_values_exit_two(tmp_path, capsys):
    carma = {"type": "carma", "a": [3.0, 2.0], "b": [3.0, 1.0]}
    cases = {
        "missing": ({"type": "exponential_ou"}, "$.kernel.lam"),
        "non_integer_q": (dict(carma, q=1.5), "q must be an integer"),
        "string": ({"type": "exponential_ou", "lam": "x"}, "$.kernel.lam"),
        "bool": ({"type": "exponential_ou", "lam": True}, "$.kernel.lam"),
        "list_for_number": ({"type": "exponential_ou", "lam": [1.0]}, "$.kernel"),
        "nested_string": ({"type": "sdde", "atoms": [[0.0, "-1"]], "horizon": 4.0, "step": 0.25}, "$.kernel.atoms"),
    }
    for name, (kernel, message) in cases.items():
        cfg = base_config(kernel=kernel, statistic="sn", output_dir=str(tmp_path / name))
        assert run(["variance", "--config", str(write_config(tmp_path, f"{name}.json", cfg))]) == 2, name
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "config" and message in err["error"]["message"], (name, err)


def test_malformed_scalar_values_exit_two(tmp_path, capsys):
    # each of these ended in a TypeError traceback before the scalars were checked
    cases = {
        "float_n": ("simulate", {"n": 10.5}, "$.n"),
        "string_fine_steps": ("simulate", {"n": 16, "path": {"fine_steps": "8"}}, "$.path.fine_steps"),
        "string_replicates": ("mc", {"n": 16, "replicates": "4", "statistic": "sn"}, "$.replicates"),
        "string_delta": ("variance", {"delta": "x", "statistic": "sn"}, "$.delta"),
    }
    for name, (command, extra, where) in cases.items():
        cfg = base_config(**extra, output_dir=str(tmp_path / name))
        assert run([command, "--config", str(write_config(tmp_path, f"{name}.json", cfg))]) == 2, name
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "config" and where in err["error"]["message"], (name, err)


def test_table_from_path_rejects_inline_fields(tmp_path, capsys):
    table = tmp_path / "k.csv"
    table.write_text("t,phi\n" + "".join(f"{0.25 * i!r},{0.5 ** i!r}\n" for i in range(40)))
    kernel = {"type": "tabulated", "path": str(table), "values": [1.0, 0.5, 0.25]}
    cfg = base_config(kernel=kernel, grid={"m": 4, "horizon": 4.0}, output_dir=str(tmp_path / "out"))
    assert run(["kernel-export", "--config", str(write_config(tmp_path, "c.json", cfg))]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config" and "values" in err["error"]["message"]
    del kernel["values"]
    assert run(["kernel-export", "--config", str(write_config(tmp_path, "c.json", cfg))]) == 0


def test_integral_carma_order_accepted_as_before(tmp_path):
    # a JSON 1.0 is an integer order: accepted, and the run is the run with q = 1
    outputs = []
    for i, q in enumerate((1, 1.0)):
        kernel = {"type": "carma", "a": [3.0, 2.0], "b": [3.0, 1.0], "q": q}
        cfg = base_config(kernel=kernel, n=16, path={"fine_steps": 4}, output_dir=str(tmp_path / str(i)))
        assert run(["simulate", "--config", str(write_config(tmp_path, f"{i}.json", cfg))]) == 0
        outputs.append((tmp_path / str(i) / "path.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_module_entry_point_exits_two_on_a_malformed_config(tmp_path):
    cfg = base_config(kernel={"type": "exponential_ou"}, statistic="sn", output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, "c.json", cfg)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run(
        [sys.executable, "-m", "cmaqf.cli", "variance", "--config", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr)["error"]["type"] == "config"


def _modules_loaded_by(calls: str) -> tuple[str, str]:
    """In a fresh interpreter, import ``cmaqf`` and run ``calls``: the ``scipy`` modules loaded by the
    end, and the ``numpy`` and ``scipy`` modules that ``calls`` loaded first."""
    code = f"""
import sys
import cmaqf, cmaqf.cli
before = set(sys.modules)
{calls}
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in ('numpy', 'scipy')))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(proc.stdout.strip().splitlines()[-2:])


def test_cli_import_loads_no_scipy():
    assert _modules_loaded_by("pass") == ("[]", "[]")


def test_benchmark_call_paths_load_no_scipy(tmp_path):
    # small versions of the calls the benchmark times: eta2_qn with power weights and checks on,
    # lag covariances of fractional noise, the CLI mc command and an S_n experiment. They load
    # no scipy, and no numpy submodule either: a module first loaded in a call adds its import to the call's time
    cfg = base_config(
        levy={"type": "compound_poisson_normal", "rate": 1.0, "jump_variance": 1.0},
        b={"type": "finite_support", "values": [0.0, 1.0, 0.5]},
        statistic="qn", n=64, replicates=8, threads=2, path={"fine_steps": 4}, output_dir=str(tmp_path / "mc"),
    )
    config = write_config(tmp_path, "mc.json", cfg)
    calls = f"""
cmaqf.eta2_qn(cmaqf.ExponentialOU(1.0), cmaqf.PowerDecay(c=1.0, rho=1.5, b0=1.0), cmaqf.CompoundPoissonNormal(1.0, 1.0), 1.0)
fn = cmaqf.FractionalNoise(0.1)
cmaqf.covariance_lags(fn, fn, 1.0, 1.0, 0, 3)
assert cmaqf.cli.run(["mc", "--config", {str(config)!r}]) == 0
cmaqf.run_experiment(cmaqf.ExperimentConfig(
    statistic="sn", kernel=cmaqf.build_carma((3.0, 2.0), (3.0, 1.0), 1), kernel2=cmaqf.ExponentialOU(0.5),
    model=cmaqf.BrownianMotion(1.0), delta=1.0, n=200, replicates=4, seed=1), threads=1)
"""
    assert _modules_loaded_by(calls) == ("[]", "[]")


def test_variance_sn_of_two_ou_kernels(tmp_path):
    # eta2 = sum_s g11 g22 + g12(s) g12(-s) = (1/2 + 1/2.25) / tanh(0.75) for OU(1), OU(1/2) and unit variance
    cfg = base_config(
        levy={"type": "brownian_motion", "variance": 1.0},
        kernel2={"type": "exponential_ou", "lam": 0.5},
        statistic="sn",
        output_dir=str(tmp_path / "out"),
    )
    assert run(["variance", "--config", str(write_config(tmp_path, "c.json", cfg))]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert (0.5 + 1 / 2.25) / math.tanh(0.75) == 1.4869652872678623
    assert abs(rep["eta2"] - 1.4869652872678623) <= 1e-9
    assert rep["condition_set"] == "sn_general" and rep["conditions"]["overall"] == "supported"


def test_schema_errors_exit_two_and_name_their_path(tmp_path, capsys):
    ou = {"type": "exponential_ou", "lam": 1.0}
    cases = {
        "block_not_object": ("variance", base_config(kernel=5, statistic="sn"), "$.kernel: expected an object"),
        "unknown_type": ("variance", base_config(kernel={"type": "bogus"}, statistic="sn"), "$.kernel.type: must be one of"),
        "key_of_another_type": ("variance", base_config(kernel=dict(ou, d=0.1), statistic="sn"), "$.kernel: keys ['d'] not allowed"),
        "schema_version": ("variance", base_config(schema_version=2, statistic="sn"), "$.schema_version: unsupported"),
        "missing_key": ("variance", {"kernel": ou, "delta": 1.0, "statistic": "sn"}, "$.levy: required for 'variance'"),
        "condition_set": ("check", base_config(check={"condition_set": "bogus"}), "$.check.condition_set: must be one of"),
        "statistic": ("variance", base_config(statistic="pn"), "$.statistic: must be 'sn' or 'qn'"),
        "not_object": ("variance", [base_config(statistic="sn")], "$: top-level config must be a JSON object"),
    }
    for name, (command, cfg, message) in cases.items():
        if isinstance(cfg, dict):
            cfg["output_dir"] = str(tmp_path / name)
        assert run([command, "--config", str(write_config(tmp_path, f"{name}.json", cfg))]) == 2, name
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "config" and err["error"]["message"].startswith(message), (name, err)
        assert not (tmp_path / name).exists(), name


def test_check_prints_the_skipped_assumption_of_a_brownian_driver(tmp_path, capsys):
    cfg = base_config(check={"condition_set": "sn_general"}, output_dir=str(tmp_path / "out"))
    assert run(["check", "--config", str(write_config(tmp_path, "c.json", cfg))]) == 0
    out = capsys.readouterr().out
    assert "skipped       : period_square_integrable: not needed for a Brownian driver (kappa4 = 0)\n" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["skipped"] == ["period_square_integrable: not needed for a Brownian driver (kappa4 = 0)"]


def test_a_spacing_that_is_not_finite_and_positive_exits_two(tmp_path, capsys):
    # autocov read "supported" at Delta = -1 (exit 0), and variance at Delta = 0 ended in a ZeroDivisionError traceback
    cases = {
        "check": base_config(delta=-1.0, check={"condition_set": "autocov"}),
        "variance": base_config(delta=0.0, statistic="sn"),
    }
    for command, cfg in cases.items():
        cfg["output_dir"] = str(tmp_path / command)
        assert run([command, "--config", str(write_config(tmp_path, f"{command}.json", cfg))]) == 2, command
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "config" and "Delta must be finite and > 0" in err["error"]["message"], command


# ---------------------------------------------------------------------------
# the schema table: every key is typed, and every malformed value exits 2 naming its path
# ---------------------------------------------------------------------------

# values of the wrong kind for each kind of the table; a kind the table gains must be added here
WRONG_VALUES = {
    cli._INTEGER: [1.5, True, "1", None],
    cli._NUMBER: [math.nan, math.inf, -math.inf, "x", True, [1.0], None],
    cli._STRING: [3, None],
    cli._SCHEMA["contrast"]: ["ab", 1.0, ["a", 1], [math.nan], [[1.0]], None],
    cli._SCHEMA["ls"]["poly"]: ["x", [1.0], [[math.inf]], [[[0.0, 1.0]]], None],
    cli._SCHEMA["force"]: ["no", 1, None],
    cli._SCHEMA["manifest_meta"]: [[], None],
    cli._SCHEMA["statistic"]: ["pn", 3, None],
    cli._SCHEMA["check"]["condition_set"]: ["bogus", [], None],
}


def _schema_keys(table=cli._SCHEMA, prefix=""):
    """``(dotted key, kind)`` of every key of the schema table, nested tables included."""
    for key, kind in table.items():
        yield prefix + key, kind
        if isinstance(kind, dict):
            yield from _schema_keys(kind, f"{prefix}{key}.")


def _with(cfg: dict, dotted: str, value) -> dict:
    """A copy of ``cfg`` with ``value`` at the dotted key, creating the tables on the way."""
    cfg = json.loads(json.dumps(cfg))
    *parents, last = dotted.split(".")
    block = cfg
    for key in parents:
        block = block.setdefault(key, {})
    block[last] = value
    return cfg


def _run_malformed(tmp_path, capsys, command: str, cfg: dict, name: str) -> str:
    """Run a config that must exit 2 without writing anything; the error message."""
    cfg = {"output_dir": str(tmp_path / name), **cfg}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity are written as Python's json reads them
    assert run([command, "--config", str(path)]) == 2, (name, cfg)
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config" and not (tmp_path / name).exists(), (name, err)
    return err["error"]["message"]


def test_every_key_of_the_wrong_kind_exits_two_and_names_its_path(tmp_path, capsys):
    cfg = base_config(check={"condition_set": "autocov"})
    for dotted, kind in _schema_keys():
        if kind is cli._LIBRARY:  # check_conditions validates check.exponents itself
            continue
        if isinstance(kind, (str, dict)):  # a typed block or a nested table
            wrong = [3, [], "x"] + ([None] if dotted not in cli._NULLABLE else [])
        else:
            assert kind in WRONG_VALUES, f"{dotted}: a kind with no wrong values to test"
            wrong = [v for v in WRONG_VALUES[kind] if not (v is None and dotted in cli._NULLABLE)]
        for i, value in enumerate(wrong):
            message = _run_malformed(tmp_path, capsys, "check", _with(cfg, dotted, value), f"{dotted}-{i}")
            assert message.startswith(f"$.{dotted}: "), (dotted, value, message)


def test_the_nullable_and_required_keys_are_keys_of_the_table():
    keys = {dotted for dotted, _ in _schema_keys()}
    assert cli._NULLABLE <= keys
    assert set().union(*cli._REQUIRED.values()) <= keys and set(cli._REQUIRED) == set(cli.COMMANDS)


def test_every_nullable_key_accepts_null(tmp_path):
    cfg = base_config(check={"condition_set": "autocov"})
    assert run(["check", "--config", str(write_config(tmp_path, "ref.json", dict(cfg, output_dir=str(tmp_path / "ref"))))]) == 0
    for dotted in sorted(cli._NULLABLE):
        doc = dict(_with(cfg, dotted, None), output_dir=str(tmp_path / dotted))
        assert run(["check", "--config", str(write_config(tmp_path, f"{dotted}.json", doc))]) == 0, dotted
        assert (tmp_path / dotted / "report.json").read_bytes() == (tmp_path / "ref" / "report.json").read_bytes()


def test_every_required_key_rejects_null(tmp_path, capsys):
    full = base_config(
        statistic="sn", n=50, replicates=4, contrast=[1.0], ls={},
        grid={"m": 4, "horizon": 4.0}, check={"condition_set": "autocov"},
    )
    for command, keys in cli._REQUIRED.items():
        for dotted in keys:
            message = _run_malformed(tmp_path, capsys, command, _with(full, dotted, None), f"{command}-{dotted}")
            assert message.startswith(f"$.{dotted}: "), (command, dotted, message)


def test_configs_that_crashed_or_were_misread_exit_two(tmp_path, capsys):
    # each ended in a traceback, exited 0 or misread its value before every key was typed
    table = {"type": "tabulated", "path": 3}
    experiment = dict(n=50, replicates=4)
    cases = {
        "grid_m_missing": ("kernel-export", base_config(grid={"horizon": 4.0}), "$.grid.m"),
        "grid_horizon_string": ("kernel-export", base_config(grid={"m": 4, "horizon": "x"}), "$.grid.horizon"),
        "poly_string": ("ls-clt", base_config(ls={"poly": "x"}, **experiment), "$.ls.poly"),
        "contrast_string": ("autocov-clt", base_config(contrast="ab", **experiment), "$.contrast"),
        "contrast_mixed": ("autocov-clt", base_config(contrast=["a", 1], **experiment), "$.contrast"),
        "theta0_string": ("ls-clt", base_config(ls={"theta0": "x"}, **experiment), "$.ls.theta0"),
        "ls_null": ("ls-clt", base_config(ls=None, **experiment), "$.ls"),
        "output_dir_number": ("variance", base_config(statistic="sn", output_dir=3), "$.output_dir"),
        "b0_nan": ("variance", base_config(statistic="qn", b={"type": "power_decay", "c": 1.0, "rho": 1.5, "b0": math.nan}), "$.b.b0"),
        "b0_list": ("variance", base_config(statistic="qn", b={"type": "power_decay", "c": 1.0, "rho": 1.5, "b0": [1.0]}), "$.b.b0"),
        "values_number": ("variance", base_config(statistic="qn", b={"type": "finite_support", "values": 1.0}), "$.b.values"),
        "seed_true": ("simulate", base_config(n=8, seed=True), "$.seed"),
        "schema_version_true": ("variance", base_config(statistic="sn", schema_version=True), "$.schema_version"),
        "force_one": ("check", base_config(check={"condition_set": "autocov"}, force=1), "$.force"),
        "ls_k_fraction": ("ls-clt", base_config(ls={"k": 1.5}, **experiment), "$.ls: unknown keys ['k']"),
        "table_path_number": ("kernel-export", base_config(kernel=table, grid={"m": 4, "horizon": 4.0}), "$.kernel.path"),
        "budget_negative": ("simulate", base_config(n=8, path={"tail_mass_budget": -1.0}), "tail_mass_budget"),
        "budget_zero": ("mc", base_config(statistic="sn", path={"tail_mass_budget": 0.0}, **experiment), "tail_mass_budget"),
        "budget_nan": ("simulate", base_config(n=8, path={"tail_mass_budget": math.nan}), "$.path.tail_mass_budget"),
    }
    for name, (command, cfg, where) in cases.items():
        assert where in _run_malformed(tmp_path, capsys, command, cfg, name), name


def test_force_must_be_true_or_false_on_a_refuted_check(tmp_path, capsys):
    # "force": "no" once overrode this refuted check: exit 0, with "no" in the manifest
    step = 1.0 / 16.0
    ts = np.arange(0, 513) * step
    vals = np.where(ts >= 1.0, np.maximum(ts, 1.0) ** -0.7, 1.0)
    kernel = {"type": "tabulated", "t0": 0.0, "step": step, "values": [float(v) for v in vals]}
    cfg = base_config(kernel=kernel, check={"condition_set": "sn_decay"}, force="no")
    message = _run_malformed(tmp_path, capsys, "check", cfg, "out")
    assert message == "$.force: must be true or false, got 'no'"


def test_an_infinite_kernel_parameter_exits_two_at_once(tmp_path, capsys):
    # Python's json reads Infinity, and OU(inf) once stalled the eta^2 lag sums
    cfg = base_config(kernel={"type": "exponential_ou", "lam": math.inf}, statistic="sn")
    start = time.perf_counter()
    message = _run_malformed(tmp_path, capsys, "variance", cfg, "out")
    assert time.perf_counter() - start < 1.0
    assert message.startswith("$.kernel.lam: must be a finite number")


def test_extreme_finite_block_values_end_in_one_json_error_or_succeed(tmp_path, capsys):
    # each ended in a traceback (exit 1): an overflow while a block is built exits 2 at the block's
    # path, one in the computation exits 4, and a JSON integer in a float field reaches numpy as a float
    grid = {"m": 4, "horizon": 4.0}
    table = {"type": "tabulated", "t0": 0.0, "step": 10**30, "values": [1.0, 0.5, 0.25, 0.125]}
    cases = {
        "sdde_horizon": ("kernel-export", dict(kernel={"type": "sdde", "atoms": [[0.0, -1.0]], "horizon": 1e308, "step": 0.25}, grid=grid), 2, "$.kernel: 'sdde' block"),
        "table_step": ("kernel-export", dict(kernel=table, grid=grid), 0, None),
        "jump_variance": ("simulate", dict(levy={"type": "compound_poisson_normal", "rate": 1.0, "jump_variance": 10**30}, n=8), 0, None),
        "rho": ("variance", dict(statistic="qn", b={"type": "power_decay", "c": 1.0, "rho": 10**30, "b0": 1.0}), 4, "OverflowError"),
        "b0": ("variance", dict(statistic="qn", b={"type": "power_decay", "c": 1.0, "rho": 1.5, "b0": 1e308}), 4, "FloatingPointError: overflow"),
    }
    for name, (command, extra, code, message) in cases.items():
        cfg = base_config(output_dir=str(tmp_path / name), **extra)
        assert run([command, "--config", str(write_config(tmp_path, f"{name}.json", cfg))]) == code, name
        err = capsys.readouterr().err
        if code == 0:
            assert err == "", name
            continue
        doc = json.loads(err)  # exactly one JSON object
        assert doc["error"]["type"] == ("config" if code == 2 else "numerical"), (name, doc)
        assert doc["error"]["message"].startswith(message), (name, doc)


def test_an_overflow_in_a_replicate_exits_four_at_any_thread_count(tmp_path, capsys, monkeypatch):
    # worker threads start from numpy's default error state: with two threads the overflow once gave inf and exit 0
    compute_qn = cli.montecarlo.compute_qn
    monkeypatch.setattr(cli.montecarlo, "compute_qn", lambda *args: compute_qn(*args) + np.float64(1e308) * 10.0)
    for threads in (1, 2):
        cfg = base_config(statistic="qn", b={"type": "finite_support", "values": [1.0, 0.5]}, n=64, replicates=4,
                          path={"fine_steps": 8}, threads=threads, output_dir=str(tmp_path / f"t{threads}"))
        assert run(["mc", "--config", str(write_config(tmp_path, f"t{threads}.json", cfg))]) == 4, threads
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"]["type"] == "numerical" and doc["error"]["message"].startswith("FloatingPointError"), doc


@pytest.mark.parametrize("written, invoked", [("mc", "variance"), ("ls-clt", "autocov-clt")])
def test_a_config_written_for_another_command_exits_two(tmp_path, capsys, written, invoked):
    cfg = base_config(command=written, statistic="sn", n=50, replicates=4, contrast=[1.0])
    assert _run_malformed(tmp_path, capsys, invoked, cfg, written).startswith(f"$.command: config is for '{written}'")
