import json
import math
from pathlib import Path

import numpy as np

from cmaqf.cli import run


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
    assert sidecar["provenance"]["route"] == "blocked"


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
        n=300, replicates=30, lags=1, contrast=[1.0], path={"fine_steps": 8},
        output_dir=str(tmp_path / "a"),
    )
    assert run(["autocov-clt", "--config", str(write_config(tmp_path, "a.json", cfg))]) == 0
    rep = json.loads((tmp_path / "a" / "report.json").read_text())
    assert rep["replicates"] == 30 and rep["eta2"] > 0

    cfg = base_config(
        n=300, replicates=30, ls={"poly": [[0.0, 1.0]], "k": 1}, path={"fine_steps": 8},
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
        "autocov-clt": base_config(lags=1, contrast=[1.0], **common),
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
