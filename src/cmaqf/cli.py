"""Config-driven batch front door.

Subcommands (``check``, ``variance``, ``simulate``, ``mc``, ``autocov-clt``,
``ls-clt``, ``kernel-export``) read one strict JSON config, write their
outputs plus a ``manifest.json`` echoing the fully resolved configuration and
content hashes, and signal through exit codes:

* 0 -- success, outputs written;
* 2 -- malformed or schema-violating configuration;
* 3 -- condition check refuted and ``--force`` absent;
* 4 -- numerical convergence/truncation failure.

Every error is also emitted as a JSON object on stderr.  A manifest fed back
as the config reproduces the outputs byte for byte; ``--force`` never changes
numbers, only gating.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import covariance, inference, kernels, levy, montecarlo, simulate, variance
from .conditions import CONDITION_SETS, check_conditions
from .errors import CmaqfError, ConditionsRefutedError, ConfigError, ConvergenceError, TruncationError

__all__ = ["main", "run"]

COMMANDS = ("check", "variance", "simulate", "mc", "autocov-clt", "ls-clt", "kernel-export")

_LEVY_FIELDS = {
    "brownian_motion": {"variance"},
    "compound_poisson_normal": {"rate", "jump_variance"},
    "bilateral_gamma": {"shape", "rate"},
}
_KERNEL_FIELDS = {
    "exponential_ou": {"lam"},
    "carma": {"a", "b", "q"},
    "fractional_noise": {"d"},
    "sdde": {"atoms", "horizon", "step"},
    "tabulated": {"path", "t0", "step", "values"},
}
_B_FIELDS = {
    "finite_support": {"values"},
    "power_decay": {"c", "rho", "b0"},
}

_TOP_KEYS = {
    "schema_version",
    "command",
    "seed",
    "output_dir",
    "levy",
    "kernel",
    "kernel2",
    "b",
    "delta",
    "n",
    "replicates",
    "statistic",
    "path",
    "check",
    "contrast",
    "lags",
    "ls",
    "grid",
    "threads",
    "force",
    "manifest_meta",
}
_PATH_KEYS = {"fine_steps", "horizon", "tail_mass_budget"}
_CHECK_KEYS = {"condition_set", "exponents"}
_LS_KEYS = {"poly", "theta0", "k"}
_GRID_KEYS = {"m", "horizon"}

_REQUIRED = {
    "check": ("kernel", "delta", "check"),
    "variance": ("kernel", "levy", "delta", "statistic"),
    "simulate": ("kernel", "levy", "delta", "n"),
    "mc": ("kernel", "levy", "delta", "n", "replicates", "statistic"),
    "autocov-clt": ("kernel", "levy", "delta", "n", "replicates", "lags", "contrast"),
    "ls-clt": ("kernel", "levy", "delta", "n", "replicates", "ls"),
    "kernel-export": ("kernel", "delta", "grid"),
}


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _check_keys(block: dict, allowed: set, path: str):
    if not isinstance(block, dict):
        _fail(path, f"expected an object, got {type(block).__name__}")
    unknown = set(block) - allowed
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _check_typed_block(block: dict, table: dict, path: str):
    _check_keys(block, {"type"} | set().union(*table.values()), path)
    t = block.get("type")
    if t not in table:
        _fail(f"{path}.type", f"must be one of {sorted(table)}, got {t!r}")
    extra = set(block) - {"type"} - table[t]
    if extra:
        _fail(path, f"keys {sorted(extra)} not allowed for type {t!r}")


def validate_config(cfg: dict, command: str) -> None:
    """Strict schema validation; raises :class:`ConfigError` with the offending path."""
    _check_keys(cfg, _TOP_KEYS, "$")
    if cfg.get("schema_version", 1) != 1:
        _fail("$.schema_version", f"unsupported schema version {cfg.get('schema_version')!r}")
    if "command" in cfg and cfg["command"] != command:
        _fail("$.command", f"config is for {cfg['command']!r}, invoked as {command!r}")
    for key in _REQUIRED[command]:
        if key not in cfg:
            _fail(f"$.{key}", f"required for {command!r}")
    if "levy" in cfg:
        _check_typed_block(cfg["levy"], _LEVY_FIELDS, "$.levy")
    for kk in ("kernel", "kernel2"):
        if kk in cfg and cfg[kk] is not None:
            _check_typed_block(cfg[kk], _KERNEL_FIELDS, f"$.{kk}")
    if "b" in cfg and cfg["b"] is not None:
        _check_typed_block(cfg["b"], _B_FIELDS, "$.b")
    if "path" in cfg:
        _check_keys(cfg["path"], _PATH_KEYS, "$.path")
    if "check" in cfg:
        _check_keys(cfg["check"], _CHECK_KEYS, "$.check")
        cs = cfg["check"].get("condition_set")
        if cs not in CONDITION_SETS:
            _fail("$.check.condition_set", f"must be one of {CONDITION_SETS}, got {cs!r}")
    if "ls" in cfg and cfg["ls"] is not None:
        _check_keys(cfg["ls"], _LS_KEYS, "$.ls")
    if "grid" in cfg:
        _check_keys(cfg["grid"], _GRID_KEYS, "$.grid")
    if "statistic" in cfg and cfg["statistic"] not in ("sn", "qn"):
        _fail("$.statistic", f"must be 'sn' or 'qn', got {cfg['statistic']!r}")


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------


def _build_levy(block: dict):
    t = block["type"]
    args = {k: v for k, v in block.items() if k != "type"}
    cls = {
        "brownian_motion": levy.BrownianMotion,
        "compound_poisson_normal": levy.CompoundPoissonNormal,
        "bilateral_gamma": levy.BilateralGamma,
    }[t]
    return cls(**args)


def _build_kernel(block: dict, base_dir: Path):
    t = block["type"]
    if t == "exponential_ou":
        return kernels.ExponentialOU(lam=block["lam"])
    if t == "carma":
        return kernels.build_carma(block["a"], block["b"], block["q"])
    if t == "fractional_noise":
        return kernels.FractionalNoise(d=block["d"])
    if t == "sdde":
        return kernels.solve_sdde_kernel(block["atoms"], block["horizon"], block["step"])
    if "path" in block:
        return kernels.TabulatedKernel.from_csv(base_dir / block["path"])
    return kernels.TabulatedKernel(t0=block["t0"], step=block["step"], values=np.asarray(block["values"], dtype=float))


def _build_b(block: dict):
    if block["type"] == "finite_support":
        return covariance.FiniteSupport(values=tuple(block["values"]))
    return covariance.PowerDecay(c=block["c"], rho=block["rho"], b0=block["b0"])


def _build(resolved: dict, base_dir: Path) -> tuple:
    """``(kernel, kernel2, model, b)`` of the config, ``None`` for each block it lacks."""
    return (
        _build_kernel(resolved["kernel"], base_dir),
        _build_kernel(resolved["kernel2"], base_dir) if resolved.get("kernel2") else None,
        _build_levy(resolved["levy"]) if "levy" in resolved else None,
        _build_b(resolved["b"]) if resolved.get("b") is not None else None,
    )


def _hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _resolve(cfg: dict, command: str, args) -> dict:
    out = dict(cfg)
    out["schema_version"] = 1
    out["command"] = command
    out.setdefault("seed", 0)
    out.setdefault("output_dir", "cmaqf-out")
    if args.seed is not None:
        out["seed"] = args.seed
    if args.out is not None:
        out["output_dir"] = args.out
    out.setdefault("force", False)
    if args.force:
        out["force"] = True
    path = dict(out.get("path", {}))
    path.setdefault("fine_steps", 64)
    path.setdefault("horizon", None)
    path.setdefault("tail_mass_budget", 1e-4)
    out["path"] = path
    env = os.environ.get("CMAQF_THREADS", "").strip()
    if args.threads is not None:
        source, threads = "--threads", args.threads
    elif out.get("threads") is not None:
        source, threads = "$.threads", out["threads"]
    elif env:
        source, threads = "CMAQF_THREADS", int(env) if env.isdecimal() else env
    else:
        source, threads = "cpu count", os.cpu_count() or 1
    if type(threads) is not int or threads < 1:  # a JSON true is a bool, not a count
        _fail(source, f"threads must be an integer >= 1, got {threads!r}")
    out["threads"] = threads
    out.pop("manifest_meta", None)
    return out


# ---------------------------------------------------------------------------
# deterministic serialisation
# ---------------------------------------------------------------------------


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n").encode()


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _replicates_csv(values) -> bytes:
    lines = ["replicate,statistic"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(values)]
    return ("\n".join(lines) + "\n").encode()


def _kernel_csv(ts, vals) -> bytes:
    lines = ["t,phi"]
    lines += [f"{float(t)!r},{float(v)!r}" for t, v in zip(ts, vals)]
    return ("\n".join(lines) + "\n").encode()


def _manifest(resolved: dict, hashes: dict) -> bytes:
    doc = dict(resolved)
    doc["manifest_meta"] = {"hashes": hashes}
    return _json_bytes(doc)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_check(resolved, outdir, built):
    kernel, kernel2, model, b = built
    spec = resolved["check"]
    report = check_conditions(
        spec["condition_set"],
        (kernel, kernel2) if kernel2 is not None else kernel,
        b=b,
        Delta=resolved["delta"],
        exponents=spec.get("exponents", "auto"),
        model=model,
    )
    _write(outdir / "report.json", _json_bytes(report.to_dict()))
    _print_check_table(report)
    if report.overall == "refuted" and not resolved["force"]:
        return 3
    return 0


def _print_check_table(report):
    print(f"condition set : {report.condition_set}")
    print(f"overall       : {report.overall}")
    if report.exponents:
        print(f"exponents     : {report.exponents}")
    for note in report.skipped:
        print(f"skipped       : {note}")
    for a in report.assumptions:
        print(f"  [{a.verdict:>13}] {a.name}" + (f"  ({a.note})" if a.note else ""))
        for n in a.norms:
            radius = f" radius={n.radius}" if n.radius is not None else ""
            print(f"      {n.name}: value={n.value:.6g} tail_bound={n.tail_bound:.3g}{radius}")


def _cmd_variance(resolved, outdir, built):
    kernel, kernel2, model, b = built
    force = resolved["force"]
    if resolved["statistic"] == "qn":
        if b is None:
            _fail("$.b", "required for statistic 'qn'")
        rep = variance.eta2_qn(kernel, b, model, resolved["delta"], force=force)
    else:
        k2 = kernel2 if kernel2 is not None else kernel
        rep = variance.eta2_sn(kernel, k2, model, resolved["delta"], force=force)
    _write(outdir / "report.json", _json_bytes(rep.to_dict()))
    print(f"eta2 = {rep.eta2!r}  ({rep.conditions_note})")
    return 0


def _path_config(resolved, stream_index=0):
    p = resolved["path"]
    return simulate.PathConfig(
        delta=resolved["delta"],
        n=resolved["n"],
        fine_steps=p["fine_steps"],
        horizon=p["horizon"],
        seed=resolved["seed"],
        stream_index=stream_index,
        tail_mass_budget=p["tail_mass_budget"],
    )


def _cmd_simulate(resolved, outdir, built):
    kernel, _, model, _ = built
    path = simulate.simulate_path(kernel, model, _path_config(resolved))
    lines = ["x"] + [f"{float(v)!r}" for v in path.values]
    _write(outdir / "path.csv", ("\n".join(lines) + "\n").encode())
    _write(outdir / "path.json", _json_bytes({"delta": path.delta, "n": path.n, "provenance": path.provenance}))
    print(f"wrote {path.n} samples")
    return 0


_EXPERIMENT_STATISTIC = {"autocov-clt": "autocov_contrast", "ls-clt": "ls_derivative"}


def _build_ls(block: dict) -> montecarlo.LsSpec:
    v, vp = inference.poly_map(block["poly"]) if block.get("poly") is not None else (None, None)
    return montecarlo.LsSpec(v=v, vp=vp, theta0=block.get("theta0"), k=block.get("k", 1))


def _cmd_experiment(resolved, outdir, built):
    """``mc``, ``autocov-clt`` and ``ls-clt``: one replicated experiment each."""
    kernel, kernel2, model, b = built
    statistic = _EXPERIMENT_STATISTIC.get(resolved["command"], resolved.get("statistic"))
    p = resolved["path"]
    cfg = montecarlo.ExperimentConfig(
        statistic=statistic,
        kernel=kernel,
        model=model,
        delta=resolved["delta"],
        n=resolved["n"],
        replicates=resolved["replicates"],
        seed=resolved["seed"],
        kernel2=kernel2,
        b=b,
        contrast=tuple(resolved["contrast"]) if resolved.get("contrast") is not None else None,
        lags=resolved.get("lags"),
        ls=_build_ls(resolved["ls"]) if statistic == "ls_derivative" else None,
        fine_steps=p["fine_steps"],
        horizon=p["horizon"],
        tail_mass_budget=p["tail_mass_budget"],
        conditions="waive" if resolved["force"] else "auto",
    )
    report = montecarlo.run_experiment(cfg, threads=resolved["threads"])
    _write(outdir / "replicates.csv", _replicates_csv(report.statistics))
    doc = report.to_dict()
    doc["csv_path"] = "replicates.csv"
    _write(outdir / "report.json", _json_bytes(doc))
    print(
        f"replicates={report.replicates} eta2={report.eta2:.6g} "
        f"variance_ratio={report.variance_ratio:.4f} ks={report.ks:.4f} mean={report.mean:.4f}"
    )
    return 0


def _cmd_kernel_export(resolved, outdir, built):
    g = resolved["grid"]
    grid = kernels.grid_sample(built[0], resolved["delta"], g["m"], g["horizon"])
    _write(outdir / "kernel.csv", _kernel_csv(grid.times(), grid.values))
    print(f"wrote {len(grid)} kernel samples")
    return 0


_DISPATCH = {
    "check": _cmd_check,
    "variance": _cmd_variance,
    "simulate": _cmd_simulate,
    "mc": _cmd_experiment,
    "autocov-clt": _cmd_experiment,
    "ls-clt": _cmd_experiment,
    "kernel-export": _cmd_kernel_export,
}


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"type": kind, "message": message}}), file=sys.stderr)


def run(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(prog="cmaqf", description="Quadratic forms of sampled moving averages")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--force", action="store_true", help="proceed past refuted condition checks")
        p.add_argument("--threads", type=int, default=None, help="worker threads (default: CMAQF_THREADS or cores)")
    args = parser.parse_args(argv)

    try:
        raw = Path(args.config).read_text(encoding="utf-8")
        cfg = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        _emit_error("config", f"cannot read config: {exc}")
        return 2

    try:
        if not isinstance(cfg, dict):
            _fail("$", "top-level config must be a JSON object")
        validate_config(cfg, args.command)
        resolved = _resolve(cfg, args.command, args)
        outdir = Path(resolved["output_dir"])
        base_dir = Path(args.config).resolve().parent
        hashes = {
            "config": _hash({k: v for k, v in resolved.items() if k != "output_dir"}),
            "kernel": _hash(resolved.get("kernel")),
            "levy": _hash(resolved.get("levy")),
            "b": _hash(resolved.get("b")),
        }
        code = _DISPATCH[args.command](resolved, outdir, _build(resolved, base_dir))
        _write(outdir / "manifest.json", _manifest(resolved, hashes))
        return code
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return 2
    except ConditionsRefutedError as exc:
        _emit_error("conditions_refuted", str(exc))
        return 3
    except (ConvergenceError, TruncationError) as exc:
        _emit_error("numerical", str(exc))
        return 4
    except CmaqfError as exc:
        _emit_error("config", str(exc))
        return 2


def main() -> None:
    raise SystemExit(run())
