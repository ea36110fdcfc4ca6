"""Span recording around the public entry points of ``cmaqf``, from outside the library.

A :class:`Recorder` keeps spans in memory: ``[id, name, parent, thread, start,
end, attrs]``.  :func:`install` replaces each traced function or method with a
wrapper that opens a span, calls the original and closes the span; every
module attribute that refers to the original is replaced, because ``cmaqf``
binds names with ``from .x import y`` and callers look them up in their own
module.  :func:`layer_metrics` turns the spans into the per-layer metrics.

A layer's self time is its spans' durations minus the part of each interval
that child spans cover; children on other threads count through the union of
their intervals, so a parent waiting on a thread pool is not charged for it.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function) of every traced entry point; each binding of the function
# in any cmaqf module is patched.  Driver sampling and kernel evaluation are
# methods and are patched on their classes in install().
FUNCTIONS = (
    ("quadrature", "product_integral"),
    ("quadrature", "phase_integral"),
    ("covariance", "covariance_lags"),
    ("covariance", "b_star_gamma"),
    ("conditions", "check_conditions"),
    ("variance", "eta2_sn"),
    ("variance", "eta2_qn"),
    ("variance", "expected_sn"),
    ("variance", "expected_qn"),
    ("variance", "autocov_clt_sigma"),
    ("simulate", "simulate_path"),
    ("simulate", "simulate_pair"),
    ("simulate", "compute_sn"),
    ("simulate", "compute_qn"),
    ("montecarlo", "run_experiment"),
    ("montecarlo", "run_replicates"),
    ("cli", "run"),
)
LEVY_CLASSES = ("BrownianMotion", "CompoundPoissonNormal", "BilateralGamma")

REPLICATE = "montecarlo.replicate"

# per-layer metric -> (unit, better).  Shares are self time over the traced
# busy time (the self time of all spans, summed over threads); *_replicate_share
# are over the time spent inside replicates; conditions.check_share counts the
# whole check, children included.  Layers a workload does not exercise read 0,
# which is why their times are given as shares and rates.
PER_LAYER = {
    "kernels.eval_s": ("s", "lower"),
    "kernels.eval_points": ("count", "lower"),
    "kernels.self_share": ("ratio", "lower"),
    "quadrature.product_integral_s": ("s", "lower"),
    "quadrature.product_integral_calls": ("count", "lower"),
    "quadrature.phase_integral_calls": ("count", "lower"),
    "quadrature.phase_integral_share": ("ratio", "lower"),
    "quadrature.self_share": ("ratio", "lower"),
    "covariance.self_s": ("s", "lower"),
    "covariance.lags_served": ("count", "lower"),
    "covariance.quad_per_lag": ("ratio", "lower"),
    "covariance.lag_radius": ("count", "lower"),
    "conditions.check_share": ("ratio", "lower"),
    "conditions.norm_radius": ("count", "lower"),
    "variance.self_s": ("s", "lower"),
    "levy.increments": ("count", "lower"),
    "levy.replicate_share": ("ratio", "lower"),
    "levy.increments_per_s": ("1/s", "higher"),
    "simulate.path_replicate_share": ("ratio", "lower"),
    "simulate.statistic_replicate_share": ("ratio", "lower"),
    "simulate.conv_points": ("count", "lower"),
    "simulate.kept_ratio": ("ratio", "higher"),
    "simulate.quad_calls_per_replicate": ("ratio", "lower"),
    "montecarlo.setup_share": ("ratio", "lower"),
    "montecarlo.replicate_rate_p50": ("1/s", "higher"),
    "montecarlo.replicate_p90_over_p50": ("ratio", "lower"),
    "montecarlo.busy_ratio": ("ratio", "higher"),
    "cli.overhead_share": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Recorder:
    """In-memory span store shared by all threads of one traced run.

    Kernel evaluations are too many to keep one by one (over a million in one
    analytic call), so they are rolled up per parent span and thread:
    ``rollups[(name, parent, thread)] = [calls, seconds, points]``.  They are
    leaves, so their seconds count fully as the parent's covered time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.rollups: dict[tuple, list] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: int | None = None) -> list:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        span = [next(self._ids), name, parent, threading.get_ident(), perf_counter(), None, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[5] = perf_counter()
        self._stack().pop()

    def leaf(self, name: str, seconds: float, points: int) -> None:
        stack = self._stack()
        key = (name, stack[-1][0] if stack else None, threading.get_ident())
        roll = self.rollups.get(key)
        if roll is None:
            roll = self.rollups[key] = [0, 0.0, 0]
        roll[0] += 1
        roll[1] += seconds
        roll[2] += points

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "parent", "thread", "start", "end", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            for (name, parent, thread), (calls, seconds, points) in self.rollups.items():
                roll = {"rollup": name, "parent": parent, "thread": thread}
                roll.update(calls=calls, seconds=seconds, points=points)
                fh.write(json.dumps(roll) + "\n")


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------


def _lags_attrs(args, kwargs, out):
    s_min, s_max = (kwargs[k] if k in kwargs else args[i] for i, k in ((4, "s_min"), (5, "s_max")))
    return {"lags": s_max - s_min + 1, "radius": max(abs(s_min), abs(s_max))}


def _conditions_attrs(args, kwargs, out):
    radii = [n.radius for a in out.assumptions for n in a.norms if n.radius is not None]
    return {"norm_radius": max(radii, default=0)}


def _path_attrs(args, kwargs, out):
    paths = out if isinstance(out, tuple) else (out,)
    return {"kept": sum(p.n for p in paths)}


ATTRS = {
    "levy.sample_increments": lambda args, kwargs, out: {"count": len(out)},
    "covariance.covariance_lags": _lags_attrs,
    "conditions.check_conditions": _conditions_attrs,
    "simulate.simulate_path": _path_attrs,
    "simulate.simulate_pair": _path_attrs,
}


def _wrap(recorder: Recorder, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if attrs is not None:
            span[6] = attrs(args, kwargs, out)
        return out

    return wrapper


def _wrap_eval(recorder: Recorder, fn):
    local = recorder._local

    @functools.wraps(fn)
    def wrapper(self, t, *args, **kwargs):
        if getattr(local, "in_eval", False):  # a combination evaluating its base kernel
            return fn(self, t, *args, **kwargs)
        local.in_eval = True
        start = perf_counter()
        try:
            return fn(self, t, *args, **kwargs)
        finally:
            local.in_eval = False
            recorder.leaf("kernels.eval", perf_counter() - start, int(np.size(t)))

    return wrapper


def _wrap_replicates(recorder: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(replicate_fn, count, threads=None):
        span = recorder.begin("montecarlo.run_replicates")

        def one(r):
            inner = recorder.begin(REPLICATE, parent=span[0])
            try:
                return replicate_fn(r)
            finally:
                recorder.end(inner)

        try:
            return fn(one, count, threads=threads)
        finally:
            recorder.end(span)
            span[6] = {"replicates": int(count), "threads": int(threads or 1)}

    return wrapper


class Installed:
    """Undo record of :func:`install`; :meth:`remove` restores every original."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def install(recorder: Recorder) -> Installed:
    """Wrap every traced entry point of the imported ``cmaqf`` package."""
    import cmaqf.cli  # noqa: F401  (load every module whose bindings are patched)
    from cmaqf import kernels, levy

    done = Installed()
    modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "cmaqf" or n.startswith("cmaqf."))]
    for mod_name, fn_name in FUNCTIONS:
        original = getattr(sys.modules[f"cmaqf.{mod_name}"], fn_name)
        name = f"{mod_name}.{fn_name}"
        if name == "montecarlo.run_replicates":
            wrapper = _wrap_replicates(recorder, original)
        else:
            wrapper = _wrap(recorder, name, original, ATTRS.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    done.set(mod, attr, wrapper)
    for cls_name in LEVY_CLASSES:
        cls = getattr(levy, cls_name)
        name = "levy.sample_increments"
        done.set(cls, "sample_increments", _wrap(recorder, name, cls.__dict__["sample_increments"], ATTRS[name]))
    for cls in vars(kernels).values():
        if isinstance(cls, type) and issubclass(cls, kernels.Kernel) and "eval" in cls.__dict__:
            done.set(cls, "eval", _wrap_eval(recorder, cls.__dict__["eval"]))
    return done


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans, rollups=None) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children and
    by the rolled-up leaves recorded under it."""
    children = defaultdict(list)
    for s in spans:
        if s[2] is not None:
            children[s[2]].append((s[4], s[5]))
    leaves = defaultdict(float)
    for (_, parent, _), roll in (rollups or {}).items():
        leaves[parent] += roll[1]
    return {
        s[0]: (s[5] - s[4]) - covered(s[4], s[5], children.get(s[0], ())) - leaves[s[0]] for s in spans
    }


def layer_metrics(spans, rollups) -> dict[str, float]:
    """Per-layer metrics of one traced run (every key of PER_LAYER but the
    tracing overhead, which needs an untraced run)."""
    spans = [s for s in spans if s[5] is not None]
    own = self_times(spans, rollups)
    by_id = {s[0]: s for s in spans}
    evals = defaultdict(lambda: [0, 0.0, 0])  # parent -> [calls, seconds, points], threads merged
    for (name, parent, _), roll in rollups.items():
        if name == "kernels.eval":
            evals[parent] = [a + b for a, b in zip(evals[parent], roll)]
    eval_s = sum(roll[1] for roll in evals.values())
    busy = sum(own.values()) + eval_s

    def ancestor(span, names):
        p = span[2]
        while p is not None:
            if by_id[p][1] in names:
                return by_id[p]
            p = by_id[p][2]
        return None

    def named(name):
        return [s for s in spans if s[1] == name]

    def self_of(pred):
        return sum(own[s[0]] for s in spans if pred(s[1]))

    def share(x, base):
        return x / base if base > 0 else 0.0

    layer_self = defaultdict(float)
    kids_of = defaultdict(list)
    for s in spans:
        layer_self[s[1].split(".", 1)[0]] += own[s[0]]
        kids_of[s[2]].append(s)

    products = named("quadrature.product_integral")
    lag_spans = named("covariance.covariance_lags")
    lags = sum(s[6]["lags"] for s in lag_spans)
    quad_in_cov = sum(1 for s in products if ancestor(s, {"covariance.covariance_lags"}))
    checks = named("conditions.check_conditions")

    reps = named(REPLICATE)
    rep_busy = sum(s[5] - s[4] for s in reps)
    samples = named("levy.sample_increments")
    increments = sum(s[6]["count"] for s in samples)
    path_names = {"simulate.simulate_path", "simulate.simulate_pair"}
    sims = [s for s in spans if s[1] in path_names]
    conv_points = kept = 0
    for sim in sims:
        kids = kids_of[sim[0]]
        count = sum(s[6]["count"] for s in kids if s[1] == "levy.sample_increments")
        calls, _, weights = evals.get(sim[0], (0, 0.0, 0))  # one weight vector per kernel
        conv_points += calls * (count - 1) + weights
        kept += sim[6]["kept"]
    quad_in_sim = sum(1 for s in products if ancestor(s, path_names))

    phase_wall = 0.0
    threads = 1
    setup_share = 0.0
    for rr in named("montecarlo.run_replicates"):
        phase_wall += rr[5] - rr[4]
        threads = max(threads, rr[6]["threads"])
        exp = ancestor(rr, {"montecarlo.run_experiment"})
        if exp is not None:
            setup_share = share(rr[4] - exp[4], exp[5] - exp[4])
    rep_ms = [1e3 * (s[5] - s[4]) for s in reps]
    cli_runs = named("cli.run")
    cli_inner = sum(s[5] - s[4] for s in named("montecarlo.run_experiment") if ancestor(s, {"cli.run"}))
    cli_overhead = sum(s[5] - s[4] for s in cli_runs) - cli_inner if cli_runs else 0.0

    return {
        "kernels.eval_s": eval_s,
        "kernels.eval_points": float(sum(roll[2] for roll in evals.values())),
        "kernels.self_share": share(eval_s, busy),
        "quadrature.product_integral_s": sum(own[s[0]] for s in products),
        "quadrature.product_integral_calls": float(len(products)),
        "quadrature.phase_integral_calls": float(len(named("quadrature.phase_integral"))),
        "quadrature.phase_integral_share": share(self_of(lambda n: n == "quadrature.phase_integral"), busy),
        "quadrature.self_share": share(layer_self["quadrature"], busy),
        "covariance.self_s": layer_self["covariance"],
        "covariance.lags_served": float(lags),
        "covariance.quad_per_lag": share(quad_in_cov, lags),
        "covariance.lag_radius": float(max((s[6]["radius"] for s in lag_spans), default=0)),
        "conditions.check_share": share(sum(s[5] - s[4] for s in checks), busy),
        "conditions.norm_radius": float(max((s[6]["norm_radius"] for s in checks), default=0)),
        "variance.self_s": layer_self["variance"],
        "levy.increments": float(increments),
        "levy.replicate_share": share(layer_self["levy"], rep_busy),
        "levy.increments_per_s": share(increments, layer_self["levy"]),
        "simulate.path_replicate_share": share(
            self_of(lambda n: n in path_names), rep_busy
        ),
        "simulate.statistic_replicate_share": share(
            self_of(lambda n: n in ("simulate.compute_qn", "simulate.compute_sn")), rep_busy
        ),
        "simulate.conv_points": float(conv_points),
        "simulate.kept_ratio": share(kept, conv_points),
        "simulate.quad_calls_per_replicate": share(quad_in_sim, len(reps)),
        "montecarlo.setup_share": setup_share,
        "montecarlo.replicate_rate_p50": share(1e3, statistics.median(rep_ms)) if rep_ms else 0.0,
        # p90 only where at least ten samples lie beyond it
        "montecarlo.replicate_p90_over_p50": (
            statistics.quantiles(rep_ms, n=10, method="inclusive")[-1] / statistics.median(rep_ms)
            if len(rep_ms) >= 100
            else 0.0
        ),
        "montecarlo.busy_ratio": share(rep_busy, threads * phase_wall),
        "cli.overhead_share": share(cli_overhead, busy),
    }
