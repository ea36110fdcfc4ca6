"""Decay models for kernels and lag sequences, with closed-form tail sums.

A tail model records how fast a function or sequence decays beyond a finite
window, so that truncated norms and sums can be completed (or refuted) in
closed form.  ``exact=True`` means the constants come from analysis of the
kernel family (two-sided envelopes hold pointwise); fitted models carry their
fit residual instead and are treated conservatively downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExpTail:
    """``|f(t)| <= constant * exp(-rate * t)`` for ``t >= start``."""

    constant: float
    rate: float
    start: float = 0.0
    exact: bool = True


@dataclass(frozen=True)
class PowerTail:
    """``lower * t**-exponent <= |f(t)| <= constant * t**-exponent`` for ``t >= start``.

    ``lower`` may be 0 when only an upper envelope is known.
    """

    constant: float
    exponent: float
    start: float
    lower: float = 0.0
    exact: bool = True


@dataclass(frozen=True)
class CompactTail:
    """``f(t) == 0`` for ``t > end``."""

    end: float
    exact: bool = True


TailModel = ExpTail | PowerTail | CompactTail


@dataclass(frozen=True)
class TailFit:
    """Power-law envelope fitted to the last decade of a sampled window.

    ``residual`` is the maximum absolute log-deviation of the samples from
    ``constant * t**-exponent`` over the fitted range, so the samples satisfy
    ``|phi(t)| <= constant * exp(residual) * t**-exponent`` there.  ``exp_rate``
    and ``exp_residual`` describe the competing log-linear (exponential) fit;
    ``preferred`` names whichever fit has the smaller residual.
    """

    exponent: float
    constant: float
    residual: float
    exp_rate: float
    exp_constant: float
    exp_residual: float
    preferred: str
    fit_range: tuple[float, float]

    def as_tail(self) -> TailModel:
        """Tail model implied by the better of the two fits (not exact)."""
        if self.constant == 0.0:
            return CompactTail(end=self.fit_range[1], exact=False)
        if self.preferred == "exponential":
            return ExpTail(
                constant=self.exp_constant * math.exp(self.exp_residual),
                rate=self.exp_rate,
                start=self.fit_range[0],
                exact=False,
            )
        return PowerTail(
            constant=self.constant * math.exp(self.residual),
            exponent=self.exponent,
            start=self.fit_range[0],
            exact=False,
        )


def fit_tail(ts: np.ndarray, values: np.ndarray) -> TailFit:
    """Fit power-law and exponential envelopes to ``|values|`` over ``ts``.

    Zero (or denormal) samples are dropped; an all-zero tail yields a
    degenerate fit with ``constant == 0``.
    """
    ts = np.asarray(ts, dtype=float)
    mags = np.abs(np.asarray(values, dtype=float))
    keep = mags > 1e-300
    lo, hi = (float(ts[0]), float(ts[-1])) if ts.size else (0.0, 0.0)
    if keep.sum() < 3:
        return TailFit(math.inf, 0.0, 0.0, math.inf, 0.0, 0.0, "power", (lo, hi))
    t, y = ts[keep], np.log(mags[keep])
    (slope_p, icept_p, res_p), (slope_e, icept_e, res_e) = _log_fits(t, y)
    preferred = "exponential" if res_e < res_p else "power"
    return TailFit(
        exponent=float(-slope_p),
        constant=float(np.exp(icept_p)),
        residual=res_p,
        exp_rate=float(-slope_e),
        exp_constant=float(np.exp(icept_e)),
        exp_residual=res_e,
        preferred=preferred,
        fit_range=(float(t[0]), float(t[-1])),
    )


def _log_fits(x: np.ndarray, y: np.ndarray):
    """Power (``y`` linear in ``log x``) and exponential (``y`` linear in ``x``)
    least-squares fits, each as ``(slope, intercept, max |residual|)``."""
    slope_p, icept_p = np.polyfit(np.log(x), y, 1)
    res_p = float(np.max(np.abs(np.log(x) * slope_p + icept_p - y)))
    slope_e, icept_e = np.polyfit(x, y, 1)
    res_e = float(np.max(np.abs(x * slope_e + icept_e - y)))
    return (slope_p, icept_p, res_p), (slope_e, icept_e, res_e)


def tail_sup(tail: TailModel, t: float) -> float:
    """Upper bound for ``|f|`` on ``[t, inf)``; ``inf`` left of the model's range."""
    if isinstance(tail, CompactTail):
        return 0.0 if t > tail.end else math.inf
    if t < tail.start:
        return math.inf
    if isinstance(tail, ExpTail):
        return tail.constant * math.exp(-tail.rate * t)
    return tail.constant * t ** -tail.exponent if t > 0 else math.inf


def tail_integral(tail: TailModel, t: float, power: float = 1.0) -> float:
    """Upper bound for ``int_t^inf |f(u)|**power du``; ``inf`` when divergent."""
    if isinstance(tail, CompactTail):
        return 0.0 if t > tail.end else math.inf
    if t < tail.start:
        return math.inf
    if isinstance(tail, ExpTail):
        r = tail.rate * power
        return (tail.constant**power) * math.exp(-r * t) / r
    a = tail.exponent * power
    if a <= 1.0 or t <= 0:
        return math.inf
    return (tail.constant**power) * t ** (1.0 - a) / (a - 1.0)


def product_tail_integral(tail1: TailModel, tail2: TailModel, t: float, shift: float) -> float:
    """Upper bound for ``int_t^inf |f1(u) f2(u + shift)| du``.

    Uses the slower factor's sup on the integration range against the other
    factor's integrable tail, whichever orientation gives a finite answer.
    """
    s1 = tail_sup(tail1, t)
    s2 = tail_sup(tail2, t + shift)
    cands = []
    i1 = tail_integral(tail1, t)
    i2 = tail_integral(tail2, t + shift)
    if np.isfinite(i1) and np.isfinite(s2):
        cands.append(i1 * s2)
    if np.isfinite(i2) and np.isfinite(s1):
        cands.append(i2 * s1)
    both = _joint_power_integral(tail1, tail2, t, shift)
    if both is not None:
        cands.append(both)
    return min(cands) if cands else math.inf


def _joint_power_integral(tail1, tail2, t, shift):
    # int_t^inf C1 u^-a * C2 (u+shift)^-b du <= C1 C2 max(t, t+shift)^... only
    # when both are power tails and a+b > 1; bound (u+shift) >= u/2 for u >= 2|shift|.
    if not (isinstance(tail1, PowerTail) and isinstance(tail2, PowerTail)):
        return None
    a, b = tail1.exponent, tail2.exponent
    if a + b <= 1.0:
        return math.inf
    lo = max(t, tail1.start, tail2.start - shift, 2.0 * abs(shift), 1e-12)
    c = tail1.constant * tail2.constant * 2.0**b
    head = 0.0
    if lo > t:
        # conservative: sup bounds on the skipped stretch [t, lo]
        head = (lo - t) * tail_sup(tail1, t) * tail_sup(tail2, t + shift)
    return head + c * lo ** (1.0 - a - b) / (a + b - 1.0)


# ---------------------------------------------------------------------------
# sequence tails (two-sided lag sequences, bound applies for |s| > radius)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeomSeqTail:
    """``|a_s| <= constant * ratio**|s|`` beyond the stored radius."""

    constant: float
    ratio: float
    exact: bool = True


@dataclass(frozen=True)
class PowerSeqTail:
    """``lower*|s|**-exponent <= |a_s| <= constant*|s|**-exponent`` beyond the radius."""

    constant: float
    exponent: float
    lower: float = 0.0
    exact: bool = True


@dataclass(frozen=True)
class ZeroSeqTail:
    """Sequence vanishes beyond the stored radius."""

    exact: bool = True


SeqTail = GeomSeqTail | PowerSeqTail | ZeroSeqTail


def fit_seq_tail(lags: np.ndarray, vals: np.ndarray, known_exponent: float | None = None) -> SeqTail:
    """Tail model for a lag sequence from its last computed decade.

    When ``known_exponent`` is given (analytic kernel decay), only the
    constant is fitted against it; otherwise both power and geometric fits
    compete.  Fitted models are conservative (constant inflated by the fit
    residual, ``exact=False``).
    """
    lags = np.asarray(lags, dtype=float)
    mags = np.abs(np.asarray(vals, dtype=float))
    keep = (mags > 1e-280) & (lags > 0)
    if keep.sum() < 3:
        return ZeroSeqTail(exact=False)
    lo = max(lags[keep].max() / 10.0, 1.0)
    sel = keep & (lags >= lo)
    if sel.sum() < 3:
        sel = keep
    x, y = lags[sel], np.log(mags[sel])
    if known_exponent is not None:
        shifted = y + known_exponent * np.log(x)
        return PowerSeqTail(
            constant=float(np.exp(np.max(shifted))),
            exponent=known_exponent,
            lower=float(np.exp(np.min(shifted))),
            exact=False,
        )
    (slope_p, icept_p, res_p), (slope_e, icept_e, res_e) = _log_fits(x, y)
    if res_e <= res_p and slope_e < 0:
        return GeomSeqTail(constant=float(np.exp(icept_e + res_e)), ratio=float(np.exp(slope_e)), exact=False)
    return PowerSeqTail(
        constant=float(np.exp(icept_p + res_p)),
        exponent=float(-slope_p),
        lower=float(np.exp(icept_p - res_p)),
        exact=False,
    )


def sparse_tail_sum_estimate(term, start: int) -> float:
    """Estimate ``sum_{s >= start} term(s)`` for a non-negative decreasing ``term``
    from samples on a ladder ``s -> 1.25 s``, doubled for the continuation.

    The ladder skips terms, so this is not an upper bound: for power-law terms
    it falls short of the true sum.
    """
    total = 0.0
    s = start
    while True:
        t = term(s)
        total += t
        if t <= total * 1e-3 or t == 0.0 or s > 64 * start:
            return total * 2.0 if t > 0 else total
        s = max(s + 1, int(s * 1.25))


def seq_tail_power_sum(tail: SeqTail, start: int, p: float) -> tuple[float, float]:
    """Bracket ``sum_{s >= start} |a_s|**p`` as ``(lower, upper)``.

    ``start`` must be >= 1.  Returns ``(inf, inf)`` when the upper bound
    diverges; the lower bound uses the model's ``lower`` constant when present.
    """
    if start < 1:
        raise ValueError("start must be >= 1")
    if isinstance(tail, ZeroSeqTail):
        return 0.0, 0.0
    if isinstance(tail, GeomSeqTail):
        q = tail.ratio**p
        if q >= 1.0:
            return (math.inf, math.inf) if tail.constant > 0 else (0.0, 0.0)
        up = (tail.constant**p) * (tail.ratio ** (start * p)) / (1.0 - q)
        return 0.0, up
    a = tail.exponent * p
    if a <= 1.0:
        lo = math.inf if tail.lower > 0 else 0.0
        return lo, math.inf
    up = (tail.constant**p) * (max(start - 1, 1)) ** (1.0 - a) / (a - 1.0)
    lo = (tail.lower**p) * (start + 1) ** (1.0 - a) / (a - 1.0)
    return lo, up


def seq_tail_sup(tail: SeqTail, start: int) -> float:
    """Upper bound for ``sup_{|s| >= start} |a_s|``."""
    if isinstance(tail, ZeroSeqTail):
        return 0.0
    if isinstance(tail, GeomSeqTail):
        return tail.constant * tail.ratio**start
    return tail.constant * start ** -tail.exponent


def kernel_tail_to_seq(tail: TailModel, spacing: float) -> SeqTail:
    """Sequence-tail model for ``s -> f(s * spacing)``."""
    if isinstance(tail, CompactTail):
        return ZeroSeqTail(exact=tail.exact)
    if isinstance(tail, ExpTail):
        return GeomSeqTail(constant=tail.constant, ratio=math.exp(-tail.rate * spacing), exact=tail.exact)
    return PowerSeqTail(
        constant=tail.constant * spacing**-tail.exponent,
        exponent=tail.exponent,
        lower=tail.lower * spacing**-tail.exponent,
        exact=tail.exact,
    )
