"""cmaqf benchmark: time public calls end to end, check their outputs, trace layers.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every measured call runs in a fresh interpreter (``perfbench/child.py``),
because ``cmaqf`` caches lag covariances process-wide and a repeated call in
one process would time cache hits.  With ``--trace 0`` the run starts two
set-up-only interpreters, then measured ones until their calls add up to
``--seconds`` (at least one), and reports medians of the end-to-end metrics.
With ``--trace 1`` it makes the same untraced calls and one traced call,
reports the per-layer metrics of the traced call and the tracing overhead,
and checks that tracing changed no output.

Each call is gated against independent references (``oracles.py``).  Lines
before the last give the machine and code stamp, the gates, the numerical
readouts and fingerprints, and a table of the metrics with units; the last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Full results and the traced spans are kept under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
from spans import PER_LAYER
from workloads import AUTOCOV_LAG_RADIUS, AUTOCOV_LAGS, FRACTIONAL_D, POWER_B, QN_MC, SN_MC, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SETUP_ONLY_RUNS = 2
DEADLINE_S = 170.0  # a run must end within 180 s

# relative tolerances of the reference gates, each well above the error the
# library shows on these inputs and far below a change in the method
QN_ETA2_TOL = 1e-6
SN_ETA2_TOL = 1e-6
SN_MEAN_TOL = 1e-8
POWER_L2_TOL = 1e-7
SIGMA_TOL = 1e-5


def stamp() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_commit": git_commit(ROOT),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout read from ``.git``, or ``None`` outside one."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# ---------------------------------------------------------------------------
# gates and fingerprints
# ---------------------------------------------------------------------------


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def gate(name: str, readout: dict) -> dict:
    """Check one call's readout against the references; ``ok`` is the verdict."""
    checks: dict = {}
    if name == "mc_qn_cpn":
        ref = oracles.qn_eta2_ou_finite(1.0, 1.0, 3.0, QN_MC["b"])
        checks["eta2_rel_err"] = rel_err(readout["eta2"], ref)
        checks["eta2_ok"] = checks["eta2_rel_err"] <= QN_ETA2_TOL
    elif name == "mc_sn_pair_long":
        carma, ou = ((2.0, -1.0), (1.0, 2.0)), ((1.0,), (0.5,))
        ref = oracles.sn_eta2_exp_sums(*carma, *ou, 1.0)
        mean_ref = SN_MC["n"] * float(oracles.exp_sum_crosscov(*carma, *ou, 1.0, 0.0))
        checks["eta2_rel_err"] = rel_err(readout["eta2"], ref)
        checks["eta2_ok"] = checks["eta2_rel_err"] <= SN_ETA2_TOL
        checks["expected_sn_rel_err"] = rel_err(readout["expected_sn"], mean_ref)
        checks["expected_sn_ok"] = checks["expected_sn_rel_err"] <= SN_MEAN_TOL
    elif name == "analytic_long_memory_qn":
        ref = oracles.power_weighted_l2_doubled(1.0, 1.0, **POWER_B)
        value = readout["covariance_terms"]["weighted_covariance_l2_sq_doubled"]
        checks["l2_doubled_rel_err"] = rel_err(value, ref)
        checks["l2_doubled_ok"] = checks["l2_doubled_rel_err"] <= POWER_L2_TOL
    elif name == "analytic_long_memory_sigma":
        ref = oracles.autocov_sigma_brownian(
            lambda h: oracles.fractional_noise_autocov(FRACTIONAL_D, 1.0, h), AUTOCOV_LAGS, AUTOCOV_LAG_RADIUS
        )
        err = float(np.max(np.abs(np.asarray(readout["sigma"]) - ref)) / np.max(np.abs(ref)))
        checks["sigma_rel_err"] = err
        checks["sigma_ok"] = err <= SIGMA_TOL
    if "replicates" in readout:
        checks.update(oracles.mc_gates(readout["replicates"], readout["eta2"]))
    checks["ok"] = all(v for k, v in checks.items() if k.endswith("_ok"))
    return checks


def fingerprint(readout: dict) -> dict:
    """Output identity and numerical-quality readouts; reported, not gated."""
    out = {"readout_sha256": hashlib.sha256(json.dumps(readout, sort_keys=True).encode()).hexdigest()}
    if "replicates" in readout:
        out["replicates_sha256"] = hashlib.sha256(np.asarray(readout["replicates"], dtype="<f8").tobytes()).hexdigest()
        out["eta2"] = readout["eta2"]
    if "eta2_alt" in readout:
        diag = readout["diagnostics"]
        gap = rel_err(readout["eta2_alt"], readout["eta2"])
        bounds = max(diag.get("bsg_l2_tail", 0.0), diag.get("cov_tail_bound", 0.0), diag.get("phase_tail_bound", 0.0))
        out.update(
            {
                "eta2": readout["eta2"],
                "eta2_alt": readout["eta2_alt"],
                "variance.route_gap_rel": gap,
                "variance.route_bound_rel": bounds / abs(readout["eta2"]),
                # known defect, left visible: the bilinear route misses the direct one by far more than its bounds
                "variance.route_gap_exceeds_bounds": gap > bounds / abs(readout["eta2"]),
                **{k: diag[k] for k in sorted(diag)},
            }
        )
    if "sigma" in readout:
        out["sigma_diag"] = [row[i] for i, row in enumerate(readout["sigma"])]
        out["sigma_lag_radius"] = AUTOCOV_LAG_RADIUS
    return out


# ---------------------------------------------------------------------------
# child interpreters
# ---------------------------------------------------------------------------


def child(name: str, seed: int, mode: str, trace: int, out: Path, deadline: float) -> dict | None:
    """Run one child interpreter; its JSON result, or ``None`` if it failed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed)]
    cmd += ["--mode", mode, "--trace", str(trace), "--out", str(out)]
    try:
        timeout = max(deadline - time.monotonic(), 1.0)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench {name}: child timed out ({mode}, trace={trace})", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.is_file():
        print(f"perfbench {name}: child failed ({mode}, trace={trace}):\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    return json.loads(out.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: int, machine: dict) -> tuple[dict, dict] | None:
    """Run one workload; ``(result line, full record)`` or ``None`` if it could not run."""
    deadline = time.monotonic() + DEADLINE_S
    rundir = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)

    setups = []
    if not trace:
        for k in range(SETUP_ONLY_RUNS):
            doc = child(name, seed, "setup", 0, rundir / f"setup-{k}.json", deadline)
            if doc is None:
                return None
            setups.append(doc["setup_s"])

    runs = []
    measured = 0.0
    while True:
        started = time.monotonic()
        doc = child(name, seed, "run", 0, rundir / f"run-{len(runs)}.json", deadline)
        runs.append(doc)
        if doc is None:
            break
        measured += doc["wall_s"]
        # stop once the calls have been timed for --seconds, or when another might miss the deadline
        if measured >= seconds or deadline - time.monotonic() < 2.0 * (time.monotonic() - started):
            break
    traced = None
    if trace and runs[-1] is not None:
        traced = child(name, seed, "run", 1, rundir / "traced.json", deadline)
        runs.append(traced)
    for d in rundir.glob("*.work"):
        shutil.rmtree(d, ignore_errors=True)

    done = [d for d in runs if d is not None]
    if not done:
        return None
    for doc in done:
        doc["gates"] = gate(name, doc["readout"])
        doc["fingerprint"] = fingerprint(doc["readout"])
    failed = len(runs) - sum(d["gates"]["ok"] for d in done)
    shas = {d["fingerprint"]["readout_sha256"] for d in done}
    same_outputs = len(shas) == 1  # untraced repeats and the traced call must agree bit for bit

    untraced = [d for d in done if "layers" not in d]
    if trace:
        if traced is None or not untraced:
            return None
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - statistics.median(d["wall_s"] for d in untraced)
        units = {k: PER_LAYER[k][0] for k in metrics}
    else:
        setups += [d["setup_s"] for d in untraced]
        metrics = {
            "wall_s": statistics.median(d["wall_s"] for d in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in untraced),
        }
        units = END_TO_END
    line = {
        "correct": failed == 0 and same_outputs,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "stamp": machine,
        "workload": name,
        "seed": seed,
        "trace": trace,
        "same_outputs": same_outputs,
        "setup_samples_s": setups,
        "wall_samples_s": [d["wall_s"] for d in untraced],
        "gates": done[0]["gates"],
        "fingerprint": done[0]["fingerprint"],
        "result": line,
    }
    (rundir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return line, record


def report(name: str, line: dict, record: dict) -> None:
    print(f"perfbench {name} gates {json.dumps(record['gates'])}")
    print(f"perfbench {name} readouts {json.dumps(record['fingerprint'])}")
    print(f"perfbench {name} samples wall_s={record['wall_samples_s']} setup_s={record['setup_samples_s']}")
    cells = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in line["metrics"].items()]
    cells.append(f"ops_failed_ratio {line['failed']}/{line['attempted']}")
    if name.startswith("mc_") and "wall_s" in line["metrics"]:
        reps = QN_MC["replicates"] if name == "mc_qn_cpn" else SN_MC["replicates"]
        cells.append(f"replicates_per_s {reps / line['metrics']['wall_s']['value']:.6g} 1/s")
    print(f"perfbench {name} | " + " | ".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=9.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cmaqf" / "__init__.py").is_file():
        print(f"perfbench: no cmaqf sources under {SRC}", file=sys.stderr)
        return 2

    machine = stamp()
    print(f"perfbench stamp {json.dumps(machine)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        got = run_workload(name, args.seed, args.seconds, args.trace, machine)
        if got is None:
            print(f"perfbench {name}: could not run", file=sys.stderr)
            return 1
        lines[name] = got[0]
        report(name, *got)
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{n}/{k}": m for n, l in lines.items() for k, m in l["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
