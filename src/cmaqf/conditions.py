"""Numerical verification of the Gaussian-limit assumption sets.

A run of :func:`check_conditions` produces a :class:`ConditionReport` with one
entry per assumption and a three-valued verdict each:

* ``supported`` -- every truncated norm is finite and the closed-form tail
  brackets are below tolerance;
* ``refuted`` -- a divergence is provable from closed-form decay arithmetic
  (exact kernel envelopes, or the fitted tail exponent of a tabulated kernel
  for the decay-style sets);
* ``indeterminate`` -- the numerics cannot resolve the tail (slowly
  convergent sums, fitted models with large residuals).

Condition sets, keyed by the statistic they license and the style of
hypothesis:

================  ================================================================
``sn_general``    summability of lag products of the two kernels plus one
                  period-square condition (the latter skipped for a Brownian
                  driver, whose fourth cumulant vanishes)
``sn_exponent``   grid-sum exponent conditions with ``1/a1 + 1/a2 >= 3/2``
``sn_decay``      pointwise decay exponents with ``a1 + a2 > 3/2``, ``a_i`` in
                  ``(1/2, 1)``
``qn_general``    same shape as ``sn_general`` with the second kernel replaced
                  by the absolute coefficient convolution
``qn_exponent``   grid-sum conditions with ``2/a + 1/b >= 5/2`` and summable
                  coefficients
``qn_decay``      decay exponents with ``a + b < 1/2``
``qn_envelope``   single summability condition on the absolute-convolution
                  self-products, sufficient for ``qn_general`` (i)-(ii)
``autocov``       the two conditions licensing the sample-autocovariance limit
================  ================================================================

Exponent searches walk a 0.01-step grid over the admissible rectangle and
report the first satisfying pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import (
    CoefficientSeq,
    FiniteSupport,
    PowerDecay,
    covariance_lags,
    gamma_seq_exponent,
    star_conv_kernel,
)
from .errors import ParameterError
from .kernels import Kernel, PowAbsKernel
from .levy import BrownianMotion, LevyModel
from .quadrature import phase_integral, product_integral
from .tails import (
    CompactTail,
    ExpTail,
    GeomSeqTail,
    SeqTail,
    ZeroSeqTail,
    fit_seq_tail,
    kernel_tail_to_seq,
    seq_tail_power_sum,
    seq_tail_sup,
)

__all__ = [
    "CONDITION_SETS",
    "NormEstimate",
    "AssumptionCheck",
    "ConditionReport",
    "lp_norm_sequence",
    "check_conditions",
]

CONDITION_SETS = (
    "sn_general",
    "sn_exponent",
    "sn_decay",
    "qn_general",
    "qn_exponent",
    "qn_decay",
    "qn_envelope",
    "autocov",
)

SUPPORTED, REFUTED, INDETERMINATE = "supported", "refuted", "indeterminate"

_EXP_GRID = np.round(np.arange(1.0, 2.0 + 1e-9, 0.01), 2)
_DECAY_GRID = np.round(np.arange(0.51, 1.0 - 1e-9, 0.01), 2)
_SMALL_GRID = np.round(np.arange(0.01, 0.5, 0.01), 2)

_TAIL_TOL = 1e-3  # largest relative tail bracket of a supported norm
_NODES_PER_PERIOD = 256  # Simpson nodes per sampling period of the period integrals
_NORM_STEPS_PER_DELTA = 64  # quadrature steps per sampling period of the absolute lag products


@dataclass(frozen=True)
class NormEstimate:
    """A computed norm with its truncation radius and tail bracket."""

    name: str
    value: float
    tail_bound: float
    radius: int | None = None

    def tail_rel(self) -> float:
        if not np.isfinite(self.value):
            return math.inf
        return self.tail_bound / max(abs(self.value), 1e-300)


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    verdict: str
    norms: tuple[NormEstimate, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    condition_set: str
    exponents: dict
    assumptions: tuple[AssumptionCheck, ...]
    skipped: tuple[str, ...] = ()

    @property
    def overall(self) -> str:
        verdicts = [a.verdict for a in self.assumptions]
        if any(v == REFUTED for v in verdicts):
            return REFUTED
        if all(v == SUPPORTED for v in verdicts):
            return SUPPORTED
        return INDETERMINATE

    def to_dict(self) -> dict:
        return {
            "condition_set": self.condition_set,
            "overall": self.overall,
            "exponents": self.exponents,
            "skipped": list(self.skipped),
            "assumptions": [
                {
                    "name": a.name,
                    "verdict": a.verdict,
                    "note": a.note,
                    "norms": [
                        {"name": n.name, "value": n.value, "tail_bound": n.tail_bound, "radius": n.radius}
                        for n in a.norms
                    ],
                }
                for a in self.assumptions
            ],
        }


# ---------------------------------------------------------------------------
# lp norms of lag sequences with tail models
# ---------------------------------------------------------------------------


def lp_norm_sequence(values: np.ndarray, tail: SeqTail, p: float) -> tuple[float, float]:
    """Norm of the two-sided infinite sequence: truncated part plus tail.

    ``values`` covers lags ``-S..S`` (odd length); ``tail`` bounds both sides
    beyond ``S``.  Returns ``(norm, tail_bound)`` where the norm includes the
    closed-form upper tail sum and ``tail_bound`` is the bracket width between
    the upper and lower tail completions.  A divergent tail yields
    ``(inf, inf)`` -- refutation evidence, not an error.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size % 2 != 1:
        raise ParameterError("values must be a one-dimensional array over lags -S..S")
    if not (p >= 1.0 or p == math.inf):
        raise ParameterError(f"p must be >= 1 or inf, got {p}")
    radius = values.size // 2
    if p == math.inf:
        head = float(np.max(np.abs(values)))
        t = seq_tail_sup(tail, radius + 1)
        return max(head, t), (0.0 if t <= head else t - head)
    head = float(np.sum(np.abs(values) ** p))
    lo, up = _two_sided_tail_power_sum(tail, radius + 1, p)
    if not np.isfinite(up):
        return math.inf, math.inf
    norm = (head + up) ** (1.0 / p)
    norm_lo = (head + lo) ** (1.0 / p)
    return norm, norm - norm_lo


def _two_sided_tail_power_sum(tail: SeqTail, start: int, p: float) -> tuple[float, float]:
    if isinstance(tail, ZeroSeqTail):
        return 0.0, 0.0
    lo, up = seq_tail_power_sum(tail, start, p)
    if isinstance(tail, GeomSeqTail) and tail.exact:
        lo = up  # geometric continuation is an exact sum, not a bracket
    return 2.0 * lo, 2.0 * up


# ---------------------------------------------------------------------------
# shared computations
# ---------------------------------------------------------------------------


def _power_exponent(kernel: Kernel) -> tuple[float, bool] | None:
    """Tail exponent ``(rho, exact)`` of the kernel, ``None`` when the decay is
    faster than any power (exponential or compactly supported)."""
    d = kernel.decay
    if isinstance(d, (ExpTail, CompactTail)):
        return None
    return float(d.exponent), bool(d.exact)


def _abs_lag_sequence(k1, k2, Delta, tail_tol=1e-6, s_cap=4096):
    """Sequence ``s -> int |k1(t) k2(t + s Delta)| dt`` with a fitted tail model."""
    known = gamma_seq_exponent(k1, k2)
    S = 32
    while True:
        vals = covariance_lags(k1, k2, 1.0, Delta, -S, S, base_step=Delta / _NORM_STEPS_PER_DELTA, absolute=True)
        lags = np.arange(-S, S + 1)
        tail = fit_seq_tail(lags, vals, known_exponent=known)
        _, up = _two_sided_tail_power_sum(tail, S + 1, 1.0)
        if up <= tail_tol * max(float(np.sum(np.abs(vals))), 1e-300) or S >= s_cap:
            return vals, tail, S
        S *= 2


def _norm_entry(name, values, tail, p, radius) -> NormEstimate:
    norm, bound = lp_norm_sequence(values, tail, p)
    return NormEstimate(name=name, value=norm, tail_bound=bound, radius=radius)


def _verdict_from_norms(norms) -> str:
    if any(not np.isfinite(n.value) for n in norms):
        return INDETERMINATE  # numerically unbounded; refutation needs arithmetic
    if all(n.tail_rel() <= _TAIL_TOL for n in norms):
        return SUPPORTED
    return INDETERMINATE


def _phase_tail_sup_fn(kernels, powers, Delta):
    seqs = [kernel_tail_to_seq(k.decay, Delta) for k in kernels]

    def fn(start):
        total = 0.0
        for seq, p in zip(seqs, powers):
            _, up = seq_tail_power_sum(seq, start, p)
            total += 2.0 * up
        return total

    return fn


def _conjugate(p: float) -> float:
    return math.inf if p <= 1.0 else p / (p - 1.0)


# ---------------------------------------------------------------------------
# condition sets
# ---------------------------------------------------------------------------


def check_conditions(
    condition_set: str,
    kernels,
    b: CoefficientSeq | None = None,
    Delta: float = 1.0,
    exponents="auto",
    model: LevyModel | None = None,
) -> ConditionReport:
    """Check one assumption set and return a three-valued report.

    ``kernels`` is a single kernel or a pair; coefficient-form sets require
    ``b``.  ``exponents="auto"`` searches the admissible grid (step 0.01) and
    reports the first satisfying combination; an explicit tuple pins the
    candidates.  Passing a Brownian ``model`` drops the period-square
    assumption from the general sets (it only feeds the fourth-cumulant term).
    """
    if condition_set not in CONDITION_SETS:
        raise ParameterError(f"unknown condition set {condition_set!r}; choose from {CONDITION_SETS}")
    ks = tuple(kernels) if isinstance(kernels, (tuple, list)) else (kernels,)
    brownian = isinstance(model, BrownianMotion)

    if condition_set in ("sn_general", "sn_exponent", "sn_decay"):
        if len(ks) == 1:
            ks = (ks[0], ks[0])
        if len(ks) != 2:
            raise ParameterError(f"{condition_set} needs one or two kernels, got {len(ks)}")
    else:
        if len(ks) != 1:
            raise ParameterError(f"{condition_set} takes a single kernel, got {len(ks)}")
    if condition_set.startswith("qn") and b is None:
        raise ParameterError(f"{condition_set} requires a coefficient sequence b")

    if condition_set == "sn_general":
        return _check_pair_general("sn_general", ks[0], ks[1], Delta, exponents, brownian)
    if condition_set == "qn_general":
        short = _qn_envelope_divergence(ks[0], b, "qn_general")
        if short is not None:
            return short
        psi = star_conv_kernel(b, ks[0], Delta, absolute=True)
        return _check_pair_general("qn_general", ks[0], psi, Delta, exponents, brownian)
    if condition_set == "sn_exponent":
        return _check_sn_exponent(ks[0], ks[1], Delta, exponents)
    if condition_set == "sn_decay":
        return _check_sn_decay(ks[0], ks[1], exponents)
    if condition_set == "qn_exponent":
        return _check_qn_exponent(ks[0], b, Delta, exponents)
    if condition_set == "qn_decay":
        return _check_qn_decay(ks[0], b, exponents)
    if condition_set == "qn_envelope":
        short = _qn_envelope_divergence(ks[0], b, "qn_envelope")
        if short is not None:
            return short
        psi = star_conv_kernel(b, ks[0], Delta, absolute=True)
        return _check_qn_envelope(psi, Delta, exponents)
    return _check_autocov(ks[0], Delta)


def _qn_envelope_divergence(kernel: Kernel, b: CoefficientSeq, tag: str) -> ConditionReport | None:
    """Arithmetic short-circuit: when the absolute coefficient convolution of a
    power kernel decays like ``t**-min(rho_b, rho_phi)`` with exponent <= 1/2,
    its lag self-products diverge for every lag and the set is refuted."""
    pe = _power_exponent(kernel)
    if not isinstance(b, PowerDecay) or pe is None or not pe[1]:
        return None
    rho_psi = min(b.rho, pe[0])
    if 2.0 * rho_psi > 1.0:
        return None
    note = f"envelope decays like t^-{rho_psi:g}; its lag products diverge (2 rho <= 1)"
    return ConditionReport(
        condition_set=tag,
        exponents={},
        assumptions=(AssumptionCheck("envelope_products_summable", REFUTED, (), note),),
    )


def _check_pair_general(tag, k1, k2, Delta, exponents, brownian):
    a1, t1, r1 = _abs_lag_sequence(k1, k1, Delta)
    a2, t2, r2 = _abs_lag_sequence(k2, k2, Delta)
    c12, tc, rc = _abs_lag_sequence(k1, k2, Delta)

    e1 = gamma_seq_exponent(k1, k1)
    e2 = gamma_seq_exponent(k2, k2)

    if exponents == "auto":
        candidates = []
        for p in _EXP_GRID:
            q = _conjugate(p)
            candidates.extend([(float(p), q), (q, float(p))])
    else:
        candidates = [tuple(exponents)]

    chosen, chosen_norms = None, None
    for al1, al2 in candidates:
        n1 = _norm_entry(f"lag_self_products({al1:g})[1]", a1, t1, al1, r1)
        n2 = _norm_entry(f"lag_self_products({al2:g})[2]", a2, t2, al2, r2)
        if _verdict_from_norms((n1, n2)) == SUPPORTED:
            chosen, chosen_norms = (al1, al2), (n1, n2)
            break
    if chosen is None:
        # provable infeasibility: both sequences have exact power exponents
        refutable = (
            e1 is not None
            and e2 is not None
            and k1.decay.exact
            and k2.decay.exact
            and e1 + e2 <= 1.0
        )
        first = AssumptionCheck(
            name="lag_self_products_summable",
            verdict=REFUTED if refutable else INDETERMINATE,
            norms=(
                _norm_entry("lag_self_products(2)[1]", a1, t1, 2.0, r1),
                _norm_entry("lag_self_products(2)[2]", a2, t2, 2.0, r2),
            ),
            note="no conjugate exponent pair with resolvable tails" if not refutable else "exponent arithmetic: e1 + e2 <= 1",
        )
        exps = {}
    else:
        first = AssumptionCheck(name="lag_self_products_summable", verdict=SUPPORTED, norms=chosen_norms)
        exps = {"alpha1": chosen[0], "alpha2": chosen[1]}

    ncross = _norm_entry("lag_cross_products(2)", c12, tc, 2.0, rc)
    second = AssumptionCheck(
        name="lag_cross_products_square_summable",
        verdict=_verdict_from_norms((ncross,)),
        norms=(ncross,),
    )

    assumptions = [first, second]
    skipped = ()
    if brownian:
        skipped = ("period_square_integrable: not needed for a Brownian driver (kappa4 = 0)",)
    else:
        ph = phase_integral(
            [k1, k2],
            Delta,
            transform=np.abs,
            power=2.0,
            nodes_per_period=_NODES_PER_PERIOD,
            tail_sup_fn=_phase_tail_sup_fn([k1, k2], (1.0, 1.0), Delta),
        )
        nph = NormEstimate(name="period_square(abs_products)", value=math.sqrt(max(ph.value, 0.0)), tail_bound=ph.tail_bound)
        assumptions.append(
            AssumptionCheck(name="period_square_integrable", verdict=_verdict_from_norms((nph,)), norms=(nph,))
        )
    return ConditionReport(condition_set=tag, exponents=exps, assumptions=tuple(assumptions), skipped=skipped)


def _grid_sum_entry(kernel, alpha, Delta, p_out, label):
    """Entry for ``(t -> sum_s |phi(t + s Delta)|**alpha) in L^{p_out}([0, Delta])``."""
    ph = phase_integral(
        [kernel],
        Delta,
        transform=lambda V: np.abs(V) ** alpha,
        power=p_out,
        nodes_per_period=_NODES_PER_PERIOD,
        tail_sup_fn=_phase_tail_sup_fn([kernel], (alpha,), Delta),
    )
    value = max(ph.value, 0.0) ** (1.0 / p_out)
    return NormEstimate(name=label, value=value, tail_bound=ph.tail_bound)


def _feasible_alpha_min(kernel, grid, need_square=True):
    """Smallest grid exponent with a convergent grid sum, by decay arithmetic."""
    pe = _power_exponent(kernel)
    if pe is None:
        return float(grid[0]), None
    rho, exact = pe
    if need_square and 2.0 * rho <= 1.0:
        return None, (rho, exact)
    feas = [float(a) for a in grid if a * rho > 1.0]
    return (feas[0] if feas else None), (rho, exact)


def _check_sn_exponent(k1, k2, Delta, exponents):
    if exponents != "auto":
        a1, a2 = (float(x) for x in exponents)
        pins = ((a1,), (a2,))
    else:
        pins = (None, None)

    alphas, infos, entries = [], [], []
    for i, (k, pin) in enumerate(zip((k1, k2), pins), start=1):
        grid = pin if pin is not None else _EXP_GRID
        amin, info = _feasible_alpha_min(k, grid)
        infos.append(info)
        chosen = None
        if amin is not None:
            if pin is not None:
                candidates = [float(a) for a in grid]
            else:
                # escalate from the arithmetically minimal exponent: larger
                # values weaken the pairing sum but converge faster
                candidates = sorted({round(min(amin + 0.1 * j, 2.0), 2) for j in range(6)} | {amin})
            for a in candidates:
                if a < amin:
                    continue
                e_a = _grid_sum_entry(k, float(a), Delta, 2.0, f"grid_sum({a:g})[{i}]")
                e_2 = _grid_sum_entry(k, 2.0, Delta, 2.0, f"grid_sum(2)[{i}]")
                if _verdict_from_norms((e_a, e_2)) == SUPPORTED:
                    chosen = (float(a), (e_a, e_2))
                    break
        alphas.append(chosen)
        entries.append(chosen[1] if chosen else ())

    if all(c is not None for c in alphas):
        a1c, a2c = alphas[0][0], alphas[1][0]
        if 1.0 / a1c + 1.0 / a2c >= 1.5:
            assumptions = (
                AssumptionCheck("grid_sums_square_integrable[1]", SUPPORTED, entries[0]),
                AssumptionCheck("grid_sums_square_integrable[2]", SUPPORTED, entries[1]),
            )
            return ConditionReport("sn_exponent", {"alpha1": a1c, "alpha2": a2c}, assumptions)
    # refuted when exact exponent arithmetic caps 1/a1 + 1/a2 below 3/2
    caps = []
    exact_all = True
    for info in infos:
        if info is None:
            caps.append(1.0)
        else:
            rho, exact = info
            caps.append(min(rho, 1.0))
            exact_all = exact_all and exact
    strict = any(info is not None and info[0] < 1.0 for info in infos)
    infeasible = sum(caps) < 1.5 or (strict and sum(caps) == 1.5)
    verdict = REFUTED if infeasible else INDETERMINATE
    note = (
        f"best achievable 1/a1 + 1/a2 = {sum(caps):g} < 3/2"
        if infeasible
        else "no exponent pair with resolvable tails on the search grid"
    )
    assumptions = (AssumptionCheck("grid_sums_square_integrable", verdict, (), note),)
    return ConditionReport("sn_exponent", {}, assumptions)


def _l4_entry(kernel, label) -> NormEstimate:
    sq = PowAbsKernel(kernel, 2.0)
    r = product_integral(sq, sq, 0.0)
    return NormEstimate(name=label, value=max(r.value, 0.0) ** 0.25, tail_bound=r.tail_bound)


def _decay_sup_entry(kernel, alpha, label) -> NormEstimate:
    ts = np.geomspace(1e-3, 1e4, 4001)
    vals = np.abs(np.asarray(kernel.eval(ts))) * ts**alpha
    return NormEstimate(name=label, value=float(np.max(vals)), tail_bound=0.0)


def _check_sn_decay(k1, k2, exponents):
    # decay-style: pure exponent arithmetic plus sups
    caps = []
    for k in (k1, k2):
        pe = _power_exponent(k)
        caps.append(1.0 if pe is None else min(pe[0], 1.0))

    if exponents != "auto":
        a1, a2 = (float(x) for x in exponents)
        pair_ok = 0.5 < a1 < 1.0 and 0.5 < a2 < 1.0 and a1 + a2 > 1.5 and a1 <= caps[0] and a2 <= caps[1]
        pair = (a1, a2) if pair_ok else None
    else:
        feas = [[float(a) for a in _DECAY_GRID if a <= cap] for cap in caps]
        pair = None
        if feas[0] and feas[1]:
            best = (feas[0][-1], feas[1][-1])
            if best[0] + best[1] > 1.5:
                pair = best

    assumptions = []
    for i, k in enumerate((k1, k2), start=1):
        l4 = _l4_entry(k, f"l4_norm[{i}]")
        pe = _power_exponent(k)
        l4_ok = pe is None or pe[0] > 0.25
        assumptions.append(
            AssumptionCheck(
                f"kernel_in_l4[{i}]",
                SUPPORTED if (l4_ok and np.isfinite(l4.value)) else REFUTED,
                (l4,),
            )
        )
    if pair is not None:
        for i, (k, a) in enumerate(zip((k1, k2), pair), start=1):
            sup = _decay_sup_entry(k, a, f"decay_sup({a:g})[{i}]")
            assumptions.append(AssumptionCheck(f"decay_exponent[{i}]", SUPPORTED, (sup,)))
        return ConditionReport("sn_decay", {"alpha1": pair[0], "alpha2": pair[1]}, tuple(assumptions))
    best_sum = sum(min(c, 1.0) for c in caps)
    note = f"best achievable alpha1 + alpha2 = {best_sum:g} <= 3/2"
    assumptions.append(AssumptionCheck("decay_exponents", REFUTED, (), note))
    return ConditionReport("sn_decay", {}, tuple(assumptions))


def _b_lq_entry(b: CoefficientSeq, q: float, radius: int = 64) -> NormEstimate:
    vals = b.weights(radius)
    norm, bound = lp_norm_sequence(vals, b.seq_tail(), q)
    return NormEstimate(name=f"coeff_lq({q:g})", value=norm, tail_bound=bound, radius=radius)


def _b_lq_feasible(b: CoefficientSeq, grid) -> float | None:
    for q in grid:
        if b.lq_member(float(q)):
            return float(q)
    return None


def _check_qn_exponent(kernel, b, Delta, exponents):
    if exponents != "auto":
        a_pin, b_pin = (float(x) for x in exponents)
        a_grid, b_grid = (a_pin,), (b_pin,)
    else:
        a_grid, b_grid = _EXP_GRID, _EXP_GRID

    amin, info = _feasible_alpha_min(kernel, a_grid)
    beta = _b_lq_feasible(b, b_grid)

    if amin is not None and beta is not None and 2.0 / amin + 1.0 / beta >= 2.5:
        e_a = _grid_sum_entry(kernel, amin, Delta, 4.0 / amin, f"grid_sum({amin:g})")
        e_2 = _grid_sum_entry(kernel, 2.0, Delta, 2.0, f"grid_sum(2)")
        kv = _verdict_from_norms((e_a, e_2))
        bq = _b_lq_entry(b, beta)
        assumptions = (
            AssumptionCheck("grid_sums_integrable", kv, (e_a, e_2)),
            AssumptionCheck("coefficients_summable", SUPPORTED, (bq,)),
        )
        if kv == SUPPORTED:
            return ConditionReport("qn_exponent", {"alpha": amin, "beta": beta}, assumptions)
        return ConditionReport("qn_exponent", {}, assumptions)

    cap_a = 2.0 if info is None else min(info[0], 1.0) * 2.0
    cap_b = 1.0 if isinstance(b, FiniteSupport) else min(b.rho, 1.0)
    best = cap_a + cap_b
    strict = (info is not None and info[0] < 1.0) or (isinstance(b, PowerDecay) and b.rho < 1.0)
    infeasible = best < 2.5 or (strict and best == 2.5)
    kernel_exact = info is None or info[1]
    verdict = REFUTED if (infeasible and kernel_exact) else INDETERMINATE
    note = f"best achievable 2/alpha + 1/beta = {best:g} < 5/2" if infeasible else "exponent search failed"
    return ConditionReport("qn_exponent", {}, (AssumptionCheck("exponent_pair", verdict, (), note),))


def _check_qn_decay(kernel, b, exponents):
    pe = _power_exponent(kernel)
    alpha_floor = 0.01 if pe is None else max(0.01, 2.0 * (1.0 - pe[0]))
    if isinstance(b, FiniteSupport):
        beta_floor = 0.01
    else:
        beta_floor = max(0.01, 1.0 - b.rho)

    if exponents != "auto":
        a, bb = (float(x) for x in exponents)
        ok = a >= alpha_floor and bb >= beta_floor and a + bb < 0.5 and a > 0 and bb > 0
        pair = (a, bb) if ok else None
    else:
        a = next((float(x) for x in _SMALL_GRID if x >= alpha_floor), None)
        bb = next((float(x) for x in _SMALL_GRID if x >= beta_floor), None)
        pair = (a, bb) if (a is not None and bb is not None and a + bb < 0.5) else None

    l4 = _l4_entry(kernel, "l4_norm")
    l4_ok = pe is None or pe[0] > 0.25
    assumptions = [AssumptionCheck("kernel_in_l4", SUPPORTED if l4_ok else REFUTED, (l4,))]
    if pair is not None:
        sup_k = _decay_sup_entry(kernel, 1.0 - pair[0] / 2.0, f"kernel_decay_sup({1.0 - pair[0] / 2.0:g})")
        bvals = b.weights(64)
        svals = np.abs(bvals) * np.maximum(np.abs(np.arange(-64, 65)), 1.0) ** (1.0 - pair[1])
        sup_b = NormEstimate(name=f"coeff_decay_sup({1.0 - pair[1]:g})", value=float(np.max(svals)), tail_bound=0.0)
        assumptions.append(AssumptionCheck("decay_exponents", SUPPORTED, (sup_k, sup_b)))
        return ConditionReport("qn_decay", {"alpha": pair[0], "beta": pair[1]}, tuple(assumptions))
    note = f"alpha + beta >= {alpha_floor + beta_floor:g} >= 1/2 for every admissible pair"
    assumptions.append(AssumptionCheck("decay_exponents", REFUTED, (), note))
    return ConditionReport("qn_decay", {}, tuple(assumptions))


def _check_qn_envelope(psi, Delta, exponents):
    g, tg, rg = _abs_lag_sequence(psi, psi, Delta)
    grid = _EXP_GRID if exponents == "auto" else tuple(float(x) for x in exponents)
    for beta in grid:
        n = _norm_entry(f"envelope_products({beta:g})", g, tg, float(beta), rg)
        if _verdict_from_norms((n,)) == SUPPORTED:
            return ConditionReport(
                "qn_envelope",
                {"beta": float(beta), "alpha": _conjugate(float(beta))},
                (AssumptionCheck("envelope_products_summable", SUPPORTED, (n,)),),
            )
    ge = gamma_seq_exponent(psi, psi)
    refutable = ge is not None and psi.decay.exact and 2.0 * ge <= 1.0
    n2 = _norm_entry("envelope_products(2)", g, tg, 2.0, rg)
    verdict = REFUTED if refutable else INDETERMINATE
    return ConditionReport("qn_envelope", {}, (AssumptionCheck("envelope_products_summable", verdict, (n2,)),))


def _check_autocov(kernel, Delta):
    a, ta, ra = _abs_lag_sequence(kernel, kernel, Delta)
    n1 = _norm_entry("lag_products(2)", a, ta, 2.0, ra)
    ph = phase_integral(
        [kernel],
        Delta,
        transform=lambda V: V * V,
        power=2.0,
        nodes_per_period=_NODES_PER_PERIOD,
        tail_sup_fn=_phase_tail_sup_fn([kernel], (2.0,), Delta),
    )
    n2 = NormEstimate(name="period_square(grid_sum_squares)", value=math.sqrt(max(ph.value, 0.0)), tail_bound=ph.tail_bound)
    assumptions = (
        AssumptionCheck("lag_products_square_summable", _verdict_from_norms((n1,)), (n1,)),
        AssumptionCheck("grid_square_sums_integrable", _verdict_from_norms((n2,)), (n2,)),
    )
    return ConditionReport("autocov", {}, assumptions)
