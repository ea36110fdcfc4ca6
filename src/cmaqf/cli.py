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

One table, ``_SCHEMA``, types every config key.  The ``levy``, ``kernel``,
``kernel2`` and ``b`` blocks follow :mod:`cmaqf.specs`: the keys are the init
fields of the class ``type`` names, all required; a field annotated ``float``
or ``int`` holds one finite number, any other a list of finite numbers or of
such lists (a table may name a CSV ``path`` instead).  Run as ``cmaqf`` or
``python -m cmaqf.cli``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from pathlib import Path

from . import inference, kernels, montecarlo, simulate, specs, variance
from .conditions import CONDITION_SETS, check_conditions
from .errors import CmaqfError, ConditionsRefutedError, ConfigError, ConvergenceError, TruncationError

__all__ = ["main", "run"]

COMMANDS = ("check", "variance", "simulate", "mc", "autocov-clt", "ls-clt", "kernel-export")

# What a config key holds: a (description, test) pair, the kind of a typed block of
# specs.TYPES, or a nested table.  A JSON true is a bool, neither an integer nor a
# number, and a number is finite: Python's json reads NaN and Infinity.
def _finite(value) -> bool:
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _numbers(value) -> bool:
    return _finite(value) or type(value) is list and all(map(_numbers, value))


def _list_of(test):
    return lambda value: type(value) is list and all(map(test, value))


_INTEGER = ("an integer", lambda v: type(v) is int)
_NUMBER = ("a finite number", _finite)
_NESTED = ("a list of finite numbers or of such lists", _list_of(_numbers))  # a block field that is no scalar
_STRING = ("a string", lambda v: type(v) is str)
_LIBRARY = ("anything", lambda v: True)  # check_conditions validates check.exponents itself
_SCHEMA = {
    "schema_version": _INTEGER,
    "command": _STRING,
    "seed": _INTEGER,
    "output_dir": _STRING,
    "kernel": "kernel",  # the typed blocks, in the order _build returns them
    "kernel2": "kernel",
    "levy": "levy",
    "b": "b",
    "delta": _NUMBER,
    "n": _INTEGER,
    "replicates": _INTEGER,
    "statistic": ("'sn' or 'qn'", lambda v: v in ("sn", "qn")),
    "path": {"fine_steps": _INTEGER, "horizon": _NUMBER, "tail_mass_budget": _NUMBER},
    "check": {"condition_set": (f"one of {CONDITION_SETS}", lambda v: v in CONDITION_SETS), "exponents": _LIBRARY},
    "contrast": ("a list of finite numbers", _list_of(_finite)),
    "lags": _INTEGER,
    "ls": {"poly": ("a list of rows of finite numbers", _list_of(_list_of(_finite))), "theta0": _NUMBER, "k": _INTEGER},
    "grid": {"m": _INTEGER, "horizon": _NUMBER},
    "threads": _INTEGER,
    "force": ("true or false", lambda v: type(v) is bool),
    "manifest_meta": ("an object", lambda v: type(v) is dict),
}
# keys whose null means absent; any other null is a value of the wrong kind
_NULLABLE = {"kernel2", "b", "lags", "ls", "threads", "path.horizon", "ls.poly", "ls.theta0"}
# keys each command needs, non-null
_REQUIRED = {
    "check": ("kernel", "delta", "check", "check.condition_set"),
    "variance": ("kernel", "levy", "delta", "statistic"),
    "simulate": ("kernel", "levy", "delta", "n"),
    "mc": ("kernel", "levy", "delta", "n", "replicates", "statistic"),
    "autocov-clt": ("kernel", "levy", "delta", "n", "replicates", "lags", "contrast"),
    "ls-clt": ("kernel", "levy", "delta", "n", "replicates", "ls"),
    "kernel-export": ("kernel", "delta", "grid", "grid.m", "grid.horizon"),
}


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _check_keys(block: dict, allowed: set, path: str):
    if not isinstance(block, dict):
        _fail(path, f"expected an object, got {type(block).__name__}")
    unknown = set(block) - allowed
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _block_keys(cls) -> dict[str, bool]:
    """:func:`specs.fields` of ``cls``, and for a table the CSV file ``path`` that may replace them."""
    keys = specs.fields(cls)
    return {**keys, "path": False} if cls is kernels.TabulatedKernel else keys


def _check_typed_block(block: dict, kind: str, path: str):
    table = {name: _block_keys(cls) for name, cls in specs.TYPES[kind].items()}
    _check_keys(block, {"type"}.union(*table.values()), path)
    t = block.get("type")
    if type(t) is not str or t not in table:
        _fail(f"{path}.type", f"must be one of {sorted(table)}, got {t!r}")
    extra = set(block) - {"type"} - set(table[t])
    if extra:
        _fail(path, f"keys {sorted(extra)} not allowed for type {t!r}")
    if "path" in block and len(block) > 2:  # a table read from a CSV file, which supplies its fields
        _fail(path, f"a table read from 'path' takes no {sorted(set(block) - {'type', 'path'})}")
    for key, required in table[t].items():
        if required and key not in block and "path" not in block:
            _fail(f"{path}.{key}", f"required for type {t!r}")
    hints = {**typing.get_type_hints(specs.TYPES[kind][t]), "type": str, "path": str}
    for key, value in block.items():
        what, test = _STRING if hints[key] is str else _NUMBER if hints[key] in (float, int) else _NESTED
        if not test(value):
            _fail(f"{path}.{key}", f"must be {what}, got {value!r}")


def validate_config(cfg: dict, command: str) -> None:
    """Strict schema validation against :data:`_SCHEMA`; raises :class:`ConfigError` with the offending path."""
    required = {f"$.{key}" for key in _REQUIRED[command]}

    def walk(block: dict, table: dict, path: str):
        _check_keys(block, set(table), path)
        for key, kind in table.items():
            where, value = f"{path}.{key}", block.get(key)
            if value is None and (key not in block or where[2:] in _NULLABLE):  # absent
                if where in required:
                    _fail(where, f"required for {command!r}")
            elif isinstance(kind, dict):
                walk(value, kind, where)
            elif isinstance(kind, str):
                _check_typed_block(value, kind, where)
            elif not kind[1](value):
                _fail(where, f"must be {kind[0]}, got {value!r}")

    walk(cfg, _SCHEMA, "$")
    if cfg.get("schema_version", 1) != 1:
        _fail("$.schema_version", f"unsupported schema version {cfg.get('schema_version')!r}")
    if "command" in cfg and cfg["command"] != command:
        _fail("$.command", f"config is for {cfg['command']!r}, invoked as {command!r}")


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------


def _build_block(block: dict, kind: str, path: str, base_dir: Path):
    args = {k: v for k, v in block.items() if k != "type"}
    cls = specs.TYPES[kind][block["type"]]
    try:
        return cls.from_csv(base_dir / args["path"]) if "path" in args else cls(**args)
    except (OSError, TypeError, ValueError) as exc:  # also an unreadable table, or a list where a number belongs
        _fail(path, f"{block['type']!r} block: {exc}")


def _build(resolved: dict, base_dir: Path) -> tuple:
    """``(kernel, kernel2, model, b)`` of the config, ``None`` for each block it lacks."""
    return tuple(
        _build_block(resolved[key], _SCHEMA[key], f"$.{key}", base_dir) if resolved.get(key) is not None else None
        for key in ("kernel", "kernel2", "levy", "b")
    )


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
    defaults = {f.name: f.default for f in dataclasses.fields(simulate.PathConfig) if f.name in _SCHEMA["path"]}
    out["path"] = {**defaults, **out.get("path", {})}
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


def _cmd_simulate(resolved, outdir, built):
    kernel, _, model, _ = built
    cfg = simulate.PathConfig(delta=resolved["delta"], n=resolved["n"], seed=resolved["seed"], **resolved["path"])
    path = simulate.simulate_path(kernel, model, cfg)
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
        conditions="waive" if resolved["force"] else "auto",
        **resolved["path"],
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
            "config": specs._hash({k: v for k, v in resolved.items() if k != "output_dir"}),
            "kernel": specs._hash(resolved.get("kernel")),
            "levy": specs._hash(resolved.get("levy")),
            "b": specs._hash(resolved.get("b")),
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


if __name__ == "__main__":
    main()
