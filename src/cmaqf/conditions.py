"""Numerical verification of the Gaussian-limit assumption sets.

A run of :func:`check_conditions` produces a :class:`ConditionReport` with one
entry per assumption and a three-valued verdict each:

* ``supported`` -- every truncated norm is finite and the closed-form tail
  brackets are below tolerance;
* ``refuted`` -- a divergence is provable from closed-form decay arithmetic;
* ``indeterminate`` -- the numerics cannot resolve the tail (slowly
  convergent sums, fitted models with large residuals).

Refutation depends on the style of the set.  Exact exponent arithmetic (the
analytic envelopes of the kernel families) refutes in every set.  The fitted
tail exponent of a tabulated kernel refutes only in the decay-style sets
(``sn_decay``, ``qn_decay``), whose hypotheses are those exponents; in the
other sets a fitted exponent that caps the search leaves the set
indeterminate.  So does a fitted exponent sum that makes a lag product or a
period norm infinite, which an exact one refutes; that norm takes no quadrature.
A tail faster than any power has exponent ``inf`` (:func:`~cmaqf.tails.decay_exponent`),
so one arithmetic serves every family.  ``qn_general`` and ``qn_envelope`` first
refute by the exact exponents of ``psi = |b| * |phi|`` and its lag products.

Each norm is computed once per check: period norms go through one
:func:`~cmaqf.quadrature.phase_integral` each, lag sequences through one
quadrature each, and two equal kernels share theirs.  The absolute kernels the
norms read are built here, once: ``|phi|``, and ``psi`` over that same ``|phi|``
(:func:`_envelope`), which the lattice readings take as a plain combination.

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
import numbers
from dataclasses import asdict, dataclass, replace

import numpy as np

from .covariance import (
    CoefficientSeq,
    FiniteSupport,
    _lag_start,
    covariance_lags,
    gamma_seq_exponent,
    star_conv_kernel,
)
from .errors import ParameterError, _check_positive
from .kernels import Kernel, LinComboKernel, PowAbsKernel
from .levy import BrownianMotion, LevyModel
from .quadrature import phase_integral, product_integral
from .tails import TailModel, conv_exponent, decay_exponent, grow_lags, lattice_tail_sum, tail_sup

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
        """Every field, nested reports as dicts, plus ``overall``."""
        return {**asdict(self), "overall": self.overall}


# ---------------------------------------------------------------------------
# lp norms of lag sequences with tail models
# ---------------------------------------------------------------------------


def lp_norm_sequence(values: np.ndarray, tail: TailModel, p: float) -> tuple[float, float]:
    """Norm of the two-sided infinite sequence: truncated part plus tail.

    ``values`` covers lags ``-S..S`` (odd length); ``tail`` models ``|a_s|``
    as a function of ``|s|`` and bounds both sides beyond ``S``.  Returns
    ``(norm, tail_bound)`` where the norm includes the closed-form upper tail
    sum and ``tail_bound`` is the bracket width between the upper and lower
    tail completions.  A divergent tail yields ``(inf, inf)`` -- refutation
    evidence, not an error.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size % 2 != 1:
        raise ParameterError("values must be a one-dimensional array over lags -S..S")
    if not (p >= 1.0 or p == math.inf):
        raise ParameterError(f"p must be >= 1 or inf, got {p}")
    radius = values.size // 2
    if p == math.inf:
        head = float(np.max(np.abs(values)))
        t = tail_sup(tail, radius + 1)
        return max(head, t), (0.0 if t <= head else t - head)
    head = float(np.sum(np.abs(values) ** p))
    lo, up = lattice_tail_sum(tail, radius + 1, p)
    if not np.isfinite(up):
        return math.inf, math.inf
    norm = (head + up) ** (1.0 / p)
    norm_lo = (head + lo) ** (1.0 / p)
    return norm, norm - norm_lo


# ---------------------------------------------------------------------------
# shared computations
# ---------------------------------------------------------------------------


def _power_exponent(kernel: Kernel) -> tuple[float, bool]:
    """Tail exponent ``(rho, exact)`` of the kernel; ``rho`` is ``inf`` when the
    decay is faster than any power (exponential or compactly supported)."""
    d = kernel.decay
    return float(decay_exponent(d)), bool(d.exact)


def _rho_cap(kernel: Kernel) -> tuple[float, bool]:
    """``(min(rho, 1), exact)`` for the refutation arithmetic; ``(1, True)``
    when the decay is faster than any power, even by a fitted model."""
    rho, exact = _power_exponent(kernel)
    return min(rho, 1.0), exact or rho == math.inf


def _divergence(kernels, alpha) -> tuple[float, bool] | None:
    """``(alpha * sum_i rho_i, exact)`` of the kernels' tail exponents when it is
    <= 1: then ``sum_s prod_i |k_i(t + s Delta)|**alpha`` diverges, and for
    ``alpha = 1`` so does every ``int |k_1(t) k_2(t + s Delta)| dt``."""
    pes = [_power_exponent(k) for k in kernels]
    total = alpha * sum(rho for rho, _ in pes)
    return (total, all(exact for _, exact in pes)) if total <= 1.0 else None


def _judged(name, norms, divergence, verdict=None, note="") -> AssumptionCheck:
    """Assumption ``name`` on ``norms``: refuted by an exact :func:`_divergence`, indeterminate
    by a fitted one, else ``verdict`` with ``note``, else judged by the norms' tails."""
    if divergence is None:
        return AssumptionCheck(name, verdict or _verdict_from_norms(norms), norms, note)
    total, exact = divergence
    infinite = ", ".join(n.name for n in norms if n.value == math.inf)
    note = f"infinite {infinite}: {'exact' if exact else 'fitted'} tail exponents give alpha * sum rho = {total:g} <= 1"
    return AssumptionCheck(name, REFUTED if exact else INDETERMINATE, norms, note)


def _envelope(b: CoefficientSeq, kernel: Kernel, Delta: float) -> LinComboKernel:
    """``psi = |b| * |phi|``: the shifts of the signed star with ``|coefficients|``, over the one
    ``|phi|`` that the checks read, which is ``psi.base``."""
    star = star_conv_kernel(b, kernel, Delta)
    return LinComboKernel(PowAbsKernel(kernel, 1.0), star.shifts, np.abs(star.coeffs))


def _abs_lag_sequence(a1, a2, Delta):
    """``(values, tail, radius)`` of ``s -> int a1(t) a2(t + s Delta) dt`` for two non-negative kernels with
    a fitted tail model, or ``None`` when :func:`_divergence` shows the integrals diverge."""
    if _divergence((a1, a2), 1.0) is not None:
        return None

    def rows_at(S):
        return (covariance_lags(a1, a2, 1.0, Delta, -S, S, base_step=Delta / _NORM_STEPS_PER_DELTA),)

    start = _lag_start([(a1, a2)], Delta)
    lag = grow_lags(rows_at, p=1, rel_tol=1e-6, cap=4096, exponent=gamma_seq_exponent(a1, a2), start=start)
    return lag.rows[0], lag.tails[0], lag.radius


def _norm_entry(name, seq, p) -> NormEstimate:
    """l^p norm of a lag sequence ``(values, tail, radius)`` from :func:`_abs_lag_sequence`, or ``inf``."""
    if seq is None:
        return NormEstimate(name=name, value=math.inf, tail_bound=math.inf)
    values, tail, radius = seq
    norm, bound = lp_norm_sequence(values, tail, p)
    return NormEstimate(name=name, value=norm, tail_bound=bound, radius=radius)


def _period_norm(kernels, alpha, p_out, Delta, label) -> NormEstimate:
    """Norm of ``t -> sum_s prod_i |k_i(t + s Delta)|**alpha`` in ``L^{p_out}([0, Delta])``;
    infinite, with no quadrature, when :func:`_divergence` shows the sum diverges."""
    if _divergence(kernels, alpha) is not None:
        return NormEstimate(name=label, value=math.inf, tail_bound=math.inf)
    ph = phase_integral(kernels, Delta, alpha=alpha, power=p_out, nodes_per_period=_NODES_PER_PERIOD)
    return NormEstimate(name=label, value=max(ph.value, 0.0) ** (1.0 / p_out), tail_bound=ph.tail_bound)


def _verdict_from_norms(norms) -> str:
    if any(not np.isfinite(n.value) for n in norms):
        return INDETERMINATE  # numerically unbounded; refutation needs arithmetic
    if all(n.tail_rel() <= _TAIL_TOL for n in norms):
        return SUPPORTED
    return INDETERMINATE


def _conjugate(p: float) -> float:
    return math.inf if p <= 1.0 else p / (p - 1.0)


def _check_pins(condition_set: str, exponents) -> None:
    """Reject pinned exponents other than a list or tuple of real numbers: two
    of them, or one or more for ``qn_envelope``.  The general sets pin a
    conjugate pair, so one of them may be ``inf``; ``autocov`` has no exponents to pin."""
    if isinstance(exponents, str) and exponents == "auto":
        return
    if condition_set == "autocov":
        raise ParameterError(f"autocov exponents must be 'auto': the set has none to pin, got {exponents!r}")
    envelope = condition_set == "qn_envelope"
    allow_inf = condition_set in ("sn_general", "qn_general")
    ok = (
        isinstance(exponents, (list, tuple))
        and (len(exponents) >= 1 if envelope else len(exponents) == 2)
        and all(
            isinstance(x, numbers.Real)
            and not isinstance(x, bool)
            and (math.isfinite(x) or (allow_inf and x == math.inf))
            for x in exponents
        )
    )
    if not ok:
        count = "one or more" if envelope else "two"
        raise ParameterError(f"{condition_set} exponents must be 'auto' or a list of {count} real numbers, got {exponents!r}")


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
    reports the first satisfying combination; a list or tuple of numbers pins
    the candidates (two, or one or more for ``qn_envelope``; ``autocov`` has
    none).  Passing a Brownian ``model`` drops the period-square assumption
    from the general sets (it only feeds the fourth-cumulant term).  ``Delta`` must be finite
    and > 0.
    """
    _check_positive("Delta", Delta)
    if condition_set not in CONDITION_SETS:
        raise ParameterError(f"unknown condition set {condition_set!r}; choose from {CONDITION_SETS}")
    _check_pins(condition_set, exponents)
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
        abs_pair = tuple(PowAbsKernel(k, 1.0) for k in ks)
        return _check_pair_general("sn_general", abs_pair, ks, Delta, exponents, brownian)
    if condition_set in ("qn_general", "qn_envelope"):
        short = _qn_envelope_divergence(ks[0], b, condition_set, exponents)
        if short is not None:
            return short
        psi = _envelope(b, ks[0], Delta)
        if condition_set == "qn_general":
            return _check_pair_general("qn_general", (psi.base, psi), (psi.base, psi), Delta, exponents, brownian)
        return _check_qn_envelope(psi, Delta, exponents)
    if condition_set == "sn_exponent":
        return _check_sn_exponent(ks[0], ks[1], Delta, exponents)
    if condition_set == "sn_decay":
        return _check_sn_decay(ks[0], ks[1], exponents)
    if condition_set == "qn_exponent":
        return _check_qn_exponent(ks[0], b, Delta, exponents)
    if condition_set == "qn_decay":
        return _check_qn_decay(ks[0], b, exponents)
    return _check_autocov(ks[0], Delta)


def _qn_envelope_divergence(kernel: Kernel, b: CoefficientSeq, tag: str, exponents) -> ConditionReport | None:
    """Refuted report when exact exponents make a norm that ``tag`` needs infinite.

    ``psi = |b| * |phi|`` diverges termwise when ``rho_b + rho_phi <= 1``, else decays like
    ``t**-rho_psi``, ``rho_psi = conv(rho_b, rho_phi)``, which its decay model (``rho_phi``)
    does not show.  Lag products of ``f`` and ``g`` decay like ``s**-conv(rho_f, rho_g)``:
    ``psi``'s diverge when ``2 rho_psi <= 1``; ``qn_general`` needs ``phi x psi`` in ``l^2``
    (``2 e12 > 1``, then equal to ``e11 + e22 > 1``, a conjugate pair for the self products)
    and ``qn_envelope`` ``psi x psi`` in ``l^beta`` for a candidate (``beta_max e22 > 1``)."""
    rho_phi, exact = _power_exponent(kernel)
    if not exact:
        return None
    rho_b = decay_exponent(b.seq_tail())
    rho_psi = conv_exponent(rho_b, rho_phi)
    e22, e12 = conv_exponent(rho_psi, rho_psi), conv_exponent(rho_phi, rho_psi)
    beta_max = float(max(_EXP_GRID if exponents == "auto" else exponents))
    name = "envelope_products_summable"
    if rho_b + rho_phi <= 1.0:
        note = f"envelope diverges termwise: rho_b + rho_phi = {rho_b + rho_phi:g} <= 1"
    elif 2.0 * rho_psi <= 1.0:
        note = f"envelope decays like t^-{rho_psi:g}; its lag products diverge (2 rho <= 1)"
    elif tag == "qn_general" and 2.0 * e12 <= 1.0:
        name, note = "lag_cross_products_square_summable", f"cross lag products decay like s^-{e12:g} (2 e12 <= 1)"
    elif tag == "qn_envelope" and beta_max * e22 <= 1.0:
        note = f"envelope lag products decay like s^-{e22:g}: in no l^beta, beta <= {beta_max:g}"
    else:
        return None
    return ConditionReport(condition_set=tag, exponents={}, assumptions=(AssumptionCheck(name, REFUTED, (), note),))


def _check_pair_general(tag, abs_pair, period_pair, Delta, exponents, brownian):
    """The general set on the lag products of ``abs_pair = (|k1|, |k2|)`` and the period norm of
    ``period_pair``, which takes ``|.|`` in the lattice."""
    k1, k2 = abs_pair
    seq1 = _abs_lag_sequence(k1, k1, Delta)
    if k2 == k1:
        seq2 = cross = seq1
    else:
        seq2, cross = _abs_lag_sequence(k2, k2, Delta), _abs_lag_sequence(k1, k2, Delta)

    if exponents == "auto":
        candidates = []
        for p in _EXP_GRID:
            q = _conjugate(p)
            candidates.extend([(float(p), q), (q, float(p))])
    else:
        candidates = [tuple(exponents)]

    chosen, chosen_norms = None, None
    for al1, al2 in candidates:
        n1 = _norm_entry(f"lag_self_products({al1:g})[1]", seq1, al1)
        n2 = _norm_entry(f"lag_self_products({al2:g})[2]", seq2, al2)
        if _verdict_from_norms((n1, n2)) == SUPPORTED:
            chosen, chosen_norms = (al1, al2), (n1, n2)
            break
    name = "lag_self_products_summable"
    if chosen is None:
        norms = (_norm_entry("lag_self_products(2)[1]", seq1, 2.0), _norm_entry("lag_self_products(2)[2]", seq2, 2.0))
        # provable infeasibility: both sequences have exact power exponents
        e1, e2 = gamma_seq_exponent(k1, k1), gamma_seq_exponent(k2, k2)
        refutable = e1 is not None and e2 is not None and e1 + e2 <= 1.0
        first = _judged(
            name,
            norms,
            _divergence((k1, k1), 1.0) or _divergence((k2, k2), 1.0),
            REFUTED if refutable else INDETERMINATE,
            "exponent arithmetic: e1 + e2 <= 1" if refutable else "no conjugate exponent pair with resolvable tails",
        )
        exps = {}
    else:
        first = AssumptionCheck(name, SUPPORTED, chosen_norms)
        exps = {"alpha1": chosen[0], "alpha2": chosen[1]}

    ncross = _norm_entry("lag_cross_products(2)", cross, 2.0)
    second = _judged("lag_cross_products_square_summable", (ncross,), _divergence((k1, k2), 1.0))

    assumptions = [first, second]
    skipped = ()
    if brownian:
        skipped = ("period_square_integrable: not needed for a Brownian driver (kappa4 = 0)",)
    else:
        nph = _period_norm(period_pair, 1.0, 2.0, Delta, "period_square(abs_products)")
        assumptions.append(_judged("period_square_integrable", (nph,), _divergence((k1, k2), 1.0)))
    return ConditionReport(condition_set=tag, exponents=exps, assumptions=tuple(assumptions), skipped=skipped)


def _feasible_alpha_min(kernel, grid):
    """Smallest grid exponent with convergent grid sums of ``|phi|**alpha`` and
    ``|phi|**2``, by decay arithmetic; ``None`` when there is none."""
    rho = _power_exponent(kernel)[0]
    return next((float(a) for a in grid if a * rho > 1.0), None) if 2.0 * rho > 1.0 else None


def _grid_sum_search(kernel, pin, Delta):
    """``(alpha, (grid_sum(alpha), grid_sum(2)))`` for the first exponent whose
    grid sums are square integrable over a period, or ``None``.

    ``grid_sum(2)`` does not depend on ``alpha``, so it is computed once, and
    no exponent is tried when it is not supported.
    """
    amin = _feasible_alpha_min(kernel, _EXP_GRID if pin is None else (pin,))
    if amin is None:
        return None
    norms = {2.0: _period_norm([kernel], 2.0, 2.0, Delta, "grid_sum(2)")}
    if _verdict_from_norms((norms[2.0],)) != SUPPORTED:
        return None
    # escalate from the arithmetically minimal exponent: larger values weaken
    # the pairing sum but converge faster
    candidates = [amin] if pin is not None else sorted({round(min(amin + 0.1 * j, 2.0), 2) for j in range(6)} | {amin})
    for a in candidates:
        if a not in norms:
            norms[a] = _period_norm([kernel], a, 2.0, Delta, f"grid_sum({a:g})")
        if _verdict_from_norms((norms[a],)) == SUPPORTED:
            return a, (norms[a], norms[2.0])
    return None


def _check_sn_exponent(k1, k2, Delta, exponents):
    pins = (None, None) if exponents == "auto" else tuple(float(x) for x in exponents)
    first = _grid_sum_search(k1, pins[0], Delta)
    second = first if (k2 == k1 and pins[1] == pins[0]) else _grid_sum_search(k2, pins[1], Delta)

    if first is not None and second is not None and 1.0 / first[0] + 1.0 / second[0] >= 1.5:
        assumptions = tuple(
            AssumptionCheck(
                f"grid_sums_square_integrable[{i}]",
                SUPPORTED,
                tuple(replace(e, name=f"{e.name}[{i}]") for e in found[1]),
            )
            for i, found in ((1, first), (2, second))
        )
        return ConditionReport("sn_exponent", {"alpha1": first[0], "alpha2": second[0]}, assumptions)
    # refuted when exact exponent arithmetic caps 1/a1 + 1/a2 below 3/2
    caps = [_rho_cap(k) for k in (k1, k2)]
    best = sum(cap for cap, _ in caps)
    strict = any(cap < 1.0 for cap, _ in caps)
    infeasible = best < 1.5 or (strict and best == 1.5)
    verdict = REFUTED if (infeasible and all(exact for _, exact in caps)) else INDETERMINATE
    note = (
        f"best achievable 1/a1 + 1/a2 = {best:g} < 3/2"
        if infeasible
        else "no exponent pair with resolvable tails on the search grid"
    )
    assumptions = (AssumptionCheck("grid_sums_square_integrable", verdict, (), note),)
    return ConditionReport("sn_exponent", {}, assumptions)


def _l4_check(kernel, suffix: str = "") -> AssumptionCheck:
    """``kernel in L^4``: refuted by a tail exponent <= 1/4 (exact or fitted),
    otherwise measured by quadrature, which converges for every other exponent."""
    rho = _power_exponent(kernel)[0]
    if rho <= 0.25:
        return AssumptionCheck(f"kernel_in_l4{suffix}", REFUTED, (), f"tail exponent {rho:g} <= 1/4")
    sq = PowAbsKernel(kernel, 2.0)
    r = product_integral(sq, sq, 0.0)
    l4 = NormEstimate(name=f"l4_norm{suffix}", value=max(r.value, 0.0) ** 0.25, tail_bound=r.tail_bound)
    return AssumptionCheck(f"kernel_in_l4{suffix}", SUPPORTED if np.isfinite(l4.value) else REFUTED, (l4,))


def _decay_sup_entry(kernel, alpha, label) -> NormEstimate:
    ts = np.geomspace(1e-3, 1e4, 4001)
    vals = np.abs(np.asarray(kernel.eval(ts))) * ts**alpha
    return NormEstimate(name=label, value=float(np.max(vals)), tail_bound=0.0)


def _check_sn_decay(k1, k2, exponents):
    # decay-style: pure exponent arithmetic plus sups
    caps = [_rho_cap(k)[0] for k in (k1, k2)]
    feas = [[float(a) for a in _DECAY_GRID if a <= cap] for cap in caps]
    best = pair = (feas[0][-1], feas[1][-1]) if feas[0] and feas[1] and feas[0][-1] + feas[1][-1] > 1.5 else None
    if exponents != "auto":
        a1, a2 = (float(x) for x in exponents)
        pair_ok = 0.5 < a1 < 1.0 and 0.5 < a2 < 1.0 and a1 + a2 > 1.5 and a1 <= caps[0] and a2 <= caps[1]
        pair = (a1, a2) if pair_ok else None

    assumptions = [_l4_check(k, f"[{i}]") for i, k in enumerate((k1, k2), start=1)]
    if pair is not None:
        for i, (k, a) in enumerate(zip((k1, k2), pair), start=1):
            sup = _decay_sup_entry(k, a, f"decay_sup({a:g})[{i}]")
            assumptions.append(AssumptionCheck(f"decay_exponent[{i}]", SUPPORTED, (sup,)))
        return ConditionReport("sn_decay", {"alpha1": pair[0], "alpha2": pair[1]}, tuple(assumptions))
    assumptions.append(_no_decay_pair(exponents, best, f"best achievable alpha1 + alpha2 = {sum(caps):g} <= 3/2"))
    return ConditionReport("sn_decay", {}, tuple(assumptions))


def _no_decay_pair(pin, best, refutation) -> AssumptionCheck:
    """No admissible decay pair: refuted when there is no ``best`` achievable pair, else only the ``pin`` misses."""
    if best is None:
        return AssumptionCheck("decay_exponents", REFUTED, (), refutation)
    note = f"pinned exponents {tuple(pin)} miss the hypotheses, which {best} meets"
    return AssumptionCheck("decay_exponents", INDETERMINATE, (), note)


def _b_lq_entry(b: CoefficientSeq, q: float) -> NormEstimate:
    radius = _coeff_radius(b)
    vals = b.weights(radius)
    norm, bound = lp_norm_sequence(vals, b.seq_tail(), q)
    return NormEstimate(name=f"coeff_lq({q:g})", value=norm, tail_bound=bound, radius=radius)


def _coeff_radius(b: CoefficientSeq) -> int:
    """Radius of the coefficient norms: 64 lags, or the whole finite support."""
    return max(64, b.radius) if isinstance(b, FiniteSupport) else 64


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

    amin = _feasible_alpha_min(kernel, a_grid)
    beta = _b_lq_feasible(b, b_grid)

    if amin is not None and beta is not None and 2.0 / amin + 1.0 / beta >= 2.5:
        e_a = _period_norm([kernel], amin, 4.0 / amin, Delta, f"grid_sum({amin:g})")
        e_2 = _period_norm([kernel], 2.0, 2.0, Delta, "grid_sum(2)")
        kv = _verdict_from_norms((e_a, e_2))
        bq = _b_lq_entry(b, beta)
        assumptions = (
            AssumptionCheck("grid_sums_integrable", kv, (e_a, e_2)),
            AssumptionCheck("coefficients_summable", SUPPORTED, (bq,)),
        )
        if kv == SUPPORTED:
            return ConditionReport("qn_exponent", {"alpha": amin, "beta": beta}, assumptions)
        return ConditionReport("qn_exponent", {}, assumptions)

    cap, kernel_exact = _rho_cap(kernel)
    cap_b = min(decay_exponent(b.seq_tail()), 1.0)
    best = cap * 2.0 + cap_b
    strict = cap < 1.0 or cap_b < 1.0
    infeasible = best < 2.5 or (strict and best == 2.5)
    verdict = REFUTED if (infeasible and kernel_exact) else INDETERMINATE
    note = f"best achievable 2/alpha + 1/beta = {best:g} < 5/2" if infeasible else "exponent search failed"
    return ConditionReport("qn_exponent", {}, (AssumptionCheck("exponent_pair", verdict, (), note),))


def _check_qn_decay(kernel, b, exponents):
    alpha_floor = max(0.01, 2.0 * (1.0 - _power_exponent(kernel)[0]))
    beta_floor = max(0.01, 1.0 - decay_exponent(b.seq_tail()))

    a = next((float(x) for x in _SMALL_GRID if x >= alpha_floor), None)
    bb = next((float(x) for x in _SMALL_GRID if x >= beta_floor), None)
    best = pair = (a, bb) if (a is not None and bb is not None and a + bb < 0.5) else None
    if exponents != "auto":
        a, bb = (float(x) for x in exponents)
        ok = a >= alpha_floor and bb >= beta_floor and a + bb < 0.5 and a > 0 and bb > 0
        pair = (a, bb) if ok else None

    assumptions = [_l4_check(kernel)]
    if pair is not None:
        sup_k = _decay_sup_entry(kernel, 1.0 - pair[0] / 2.0, f"kernel_decay_sup({1.0 - pair[0] / 2.0:g})")
        r = _coeff_radius(b)
        svals = np.abs(b.weights(r)) * np.maximum(np.abs(np.arange(-r, r + 1)), 1.0) ** (1.0 - pair[1])
        sup_b = NormEstimate(name=f"coeff_decay_sup({1.0 - pair[1]:g})", value=float(np.max(svals)), tail_bound=0.0)
        assumptions.append(AssumptionCheck("decay_exponents", SUPPORTED, (sup_k, sup_b)))
        return ConditionReport("qn_decay", {"alpha": pair[0], "beta": pair[1]}, tuple(assumptions))
    note = f"alpha + beta >= {alpha_floor + beta_floor:g} >= 1/2 for every admissible pair"
    assumptions.append(_no_decay_pair(exponents, best, note))
    return ConditionReport("qn_decay", {}, tuple(assumptions))


def _check_qn_envelope(psi, Delta, exponents):
    seq = _abs_lag_sequence(psi, psi, Delta)
    grid = _EXP_GRID if exponents == "auto" else tuple(float(x) for x in exponents)
    for beta in grid:
        n = _norm_entry(f"envelope_products({beta:g})", seq, float(beta))
        if _verdict_from_norms((n,)) == SUPPORTED:
            return ConditionReport(
                "qn_envelope",
                {"beta": float(beta), "alpha": _conjugate(float(beta))},
                (AssumptionCheck("envelope_products_summable", SUPPORTED, (n,)),),
            )
    n2 = _norm_entry("envelope_products(2)", seq, 2.0)
    check = _judged("envelope_products_summable", (n2,), _divergence((psi, psi), 1.0), INDETERMINATE)
    return ConditionReport("qn_envelope", {}, (check,))


def _check_autocov(kernel, Delta):
    abs_k = PowAbsKernel(kernel, 1.0)
    n1 = _norm_entry("lag_products(2)", _abs_lag_sequence(abs_k, abs_k, Delta), 2.0)
    n2 = _period_norm([kernel], 2.0, 2.0, Delta, "period_square(grid_sum_squares)")
    assumptions = (
        _judged("lag_products_square_summable", (n1,), _divergence((kernel, kernel), 1.0)),
        _judged("grid_square_sums_integrable", (n2,), _divergence((kernel,), 2.0)),
    )
    return ConditionReport("autocov", {}, assumptions)
