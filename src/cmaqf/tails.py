"""Decay models with closed-form tail sums, for kernels and lag sequences alike.

A tail model records how fast a function decays beyond a finite window, so
that truncated integrals, norms and lag sums can be completed (or refuted) in
closed form.  Lag sequences use the same models on the lag axis: a model of
``f`` bounds the sequence ``a_s = f(|s| * spacing)``, so a kernel's decay
model bounds its samples on the lattice ``s * Delta`` and a sequence's own
model has spacing 1.  ``exact=True`` means the constants come from analysis
of the kernel family; fitted models carry their fit residual instead and are
treated conservatively downstream.  A model whose ``lower`` envelope equals
its ``constant`` is the function itself, and its tail sums are exact.

How a tail is modelled, fitted and completed is decided here alone:
:func:`fit_tail` fits every sampled tail (kernel tables, kernel grids, lag
sequences), and :func:`lattice_tail_sum` completes every truncated two-sided
lag sum.  Two routines double every truncation radius: :func:`grow_lags`
that of every adaptive lag sum, by its data (``|b * gamma|^2``, the
covariance and absolute lag products, the mean of a quadratic form), and
:func:`grow_radius` every window that a decay model decides (the simulation
horizon, the lag range of a period integral, the star radius of power weights).
So is the decay algebra, and no other module looks at a model's class:
:func:`decay_exponent` (``inf`` for a tail faster than any power), :func:`conv_exponent`
and the kernel transforms :func:`shifted_sum_tail` and :func:`powered_tail`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExpTail:
    """``lower * exp(-rate * t) <= |f(t)| <= constant * exp(-rate * t)`` for ``t >= start``.

    ``lower`` may be 0 when only an upper envelope is known.
    """

    constant: float
    rate: float
    start: float = 0.0
    lower: float = 0.0
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


def decay_exponent(tail: TailModel) -> float:
    """Power exponent of ``tail``; ``inf`` for a tail faster than any power."""
    return tail.exponent if isinstance(tail, PowerTail) else math.inf


def conv_exponent(a: float, b: float) -> float:
    """Decay exponent of the convolution of two tails ``|s|^-a`` and ``|s|^-b``
    (``a + b > 1``): ``min(a, b, a + b - 1)``, and ``a`` when ``b`` is ``inf``.

    When both are below 1 the bulk term ``|s|^(1-a-b)`` leads; otherwise the
    heavier tail leads, scaled by the sum of the other sequence (assumed
    non-zero).
    """
    return min(a, b, a + b - 1.0)


def shifted_sum_tail(tail: TailModel, shifts, coeffs) -> TailModel:
    """Model of ``sum_j coeffs[j] f(t - shifts[j])`` for a function ``f`` with model ``tail``."""
    total = sum(abs(c) for c in coeffs)
    smax = max(shifts)
    if isinstance(tail, CompactTail):
        return CompactTail(end=tail.end + smax, exact=tail.exact)
    if isinstance(tail, ExpTail):
        start, rate = tail.start + smax, tail.rate
        try:
            const = tail.constant * sum(abs(c) * math.exp(rate * s) for s, c in zip(shifts, coeffs))
        except OverflowError:
            const = math.inf
        if not math.isfinite(const):
            # shifted past ~709/rate: from its value at start, decay at the fastest rate with a representable constant
            at_start = tail.constant * sum(abs(c) * math.exp(-rate * (start - s)) for s, c in zip(shifts, coeffs))
            rate = min(rate, (700.0 - math.log(at_start)) / start)
            const = at_start * math.exp(rate * start)
        return ExpTail(constant=const, rate=rate, start=start, exact=tail.exact)
    start = max(2.0 * abs(smax), 2.0 * (tail.start + max(smax, 0.0)), tail.start, 1.0)
    return PowerTail(
        constant=tail.constant * total * 2.0**tail.exponent,
        exponent=tail.exponent,
        start=start,
        lower=0.0,
        exact=tail.exact,
    )


def powered_tail(tail: TailModel, power: float) -> TailModel:
    """Model of ``|f|**power`` for a function ``f`` with model ``tail``."""
    if isinstance(tail, CompactTail):
        return tail
    if isinstance(tail, ExpTail):
        return ExpTail(
            constant=tail.constant**power,
            rate=tail.rate * power,
            start=tail.start,
            lower=tail.lower**power,
            exact=tail.exact,
        )
    return PowerTail(
        constant=tail.constant**power,
        exponent=tail.exponent * power,
        start=tail.start,
        lower=tail.lower**power,
        exact=tail.exact,
    )


@dataclass(frozen=True)
class TailFit:
    """Decay envelopes fitted to the last decade of a sampled window.

    ``residual`` is the maximum absolute log-deviation of the samples from
    ``constant * t**-exponent`` over the fitted range, so the samples satisfy
    ``constant * exp(-residual) <= |y| * t**exponent <= constant * exp(residual)``
    there.  ``exp_rate`` and ``exp_residual`` describe the competing log-linear
    (exponential) fit, absent (``nan`` rate) when the exponent was known;
    ``preferred`` names the fit :meth:`as_tail` uses.  ``points`` counts the
    samples fitted; below three the fit vanishes (``constant == 0``).
    """

    exponent: float
    constant: float
    residual: float
    exp_rate: float
    exp_constant: float
    exp_residual: float
    preferred: str
    fit_range: tuple[float, float]
    points: int = 0

    def as_tail(self) -> TailModel:
        """Envelope implied by the preferred fit (not exact).

        The power envelope is two-sided; the exponential one bounds from
        above only, which keeps its sums conservative.
        """
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
            lower=self.constant * math.exp(-self.residual),
            exact=False,
        )


def fit_tail(x, y, lo: float, known_exponent: float | None = None) -> TailFit:
    """Fit decay envelopes to ``|y|`` over the window ``x >= lo`` (``x`` ascending).

    Only ``x > 0`` counts; a window with fewer than three abscissae widens to
    every ``x > 0``.  Samples with ``|y| <= 1e-300`` are dropped, and fewer
    than three remaining give a vanishing fit (``constant == 0``, a compact
    tail).  With ``known_exponent`` (analytic decay) only the power constant
    is fitted, as the centre of the samples' log band; otherwise power and
    exponential least-squares fits compete.
    """
    x = np.asarray(x, dtype=float)
    mags = np.abs(np.asarray(y, dtype=float))
    window = (x > 0) & (x >= lo)
    if window.sum() < 3:
        window = x > 0
    sel = window & (mags > 1e-300)
    if sel.sum() < 3:
        span = (float(x[window][0]), float(x[window][-1])) if window.any() else (0.0, 0.0)
        return TailFit(math.inf, 0.0, 0.0, math.inf, 0.0, 0.0, "power", span, int(sel.sum()))
    t, logy = x[sel], np.log(mags[sel])
    span = (float(t[0]), float(t[-1]))
    if known_exponent is not None:
        shifted = logy + known_exponent * np.log(t)
        top, bottom = float(np.max(shifted)), float(np.min(shifted))
        centre, half = 0.5 * (top + bottom), 0.5 * (top - bottom)
        return TailFit(known_exponent, math.exp(centre), half, math.nan, 0.0, math.inf, "power", span, t.size)
    (slope_p, icept_p, res_p), (slope_e, icept_e, res_e) = _log_fits(t, logy)
    return TailFit(
        exponent=float(-slope_p),
        constant=float(np.exp(icept_p)) if icept_p < 709.0 else math.inf,  # past exp's range: the power fit loses
        residual=res_p,
        exp_rate=float(-slope_e),
        exp_constant=float(np.exp(icept_e)),
        exp_residual=res_e,
        preferred="exponential" if res_e < res_p and slope_e < 0 else "power",
        fit_range=span,
        points=int(t.size),
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


def lattice_tail_sum(tail: TailModel, start: int, p: float = 1.0, spacing: float = 1.0) -> tuple[float, float]:
    """Bracket ``sum_{|s| >= start} |a_s|**p`` as ``(lower, upper)``, where ``tail``
    bounds the two-sided sequence as ``|a_s| <= f(|s| * spacing)``.

    ``start`` must be >= 1.  The upper bound is ``inf`` when the sum diverges
    or when ``start * spacing`` lies before the model's range; the lower bound
    uses the model's ``lower`` envelope, so ``lower == constant`` gives a
    zero-width bracket.
    """
    if start < 1:
        raise ValueError("start must be >= 1")
    if isinstance(tail, CompactTail):
        return (0.0, 0.0) if start * spacing > tail.end else (0.0, math.inf)
    if start * spacing < tail.start:
        return 0.0, math.inf
    if isinstance(tail, ExpTail):
        ratio = math.exp(-tail.rate * spacing)
        q = ratio**p
        if q >= 1.0:
            return (math.inf if tail.lower > 0 else 0.0), (math.inf if tail.constant > 0 else 0.0)
        up = (tail.constant**p) * (ratio ** (start * p)) / (1.0 - q)
        lo = (tail.lower**p) * (ratio ** (start * p)) / (1.0 - q)
        return 2.0 * lo, 2.0 * up
    a = tail.exponent * p
    if a <= 1.0:
        return (math.inf if tail.lower > 0 else 0.0), math.inf
    scale = spacing**-tail.exponent
    c, l = tail.constant * scale, tail.lower * scale
    # integral test: the sum from start lies between the integrals from start + 1 and start - 1
    up = _power_product(c, p, start - 1, 1.0 - a, a - 1.0) if start > 1 else _power_product(c, p, a, 1.0, a - 1.0)
    lo = _power_product(l, p, start + 1, 1.0 - a, a - 1.0)
    return 2.0 * lo, 2.0 * up


def _power_product(k: float, p: float, x: float, e: float, d: float) -> float:
    """``k**p * x**e / d`` for ``k >= 0`` and ``x, d > 0``, through logs when the
    direct product is not finite (``k**p`` overflows, perhaps times an underflowed ``x**e``)."""
    k, p, x, e, d = float(k), float(p), float(x), float(e), float(d)
    try:
        value = (k**p) * x**e / d
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    try:
        return math.exp(p * math.log(k) + e * math.log(x) - math.log(d))
    except OverflowError:
        return math.inf


#: What :func:`grow_lags` returns: each row on ``-radius..radius``, its fitted tail and its
#: head ``sum_s a_s**p``, the rows' summed upper tail bracket, and whether it missed the tolerance.
LagSums = namedtuple("LagSums", "rows radius tails heads bracket capped")


def grow_lags(rows_at, *, p: float, rel_tol: float, cap: int, exponent: float | None = None, start: int = 32) -> LagSums:
    """Sums ``sum_s a_s**p`` of the rows ``rows_at(S)`` (lags ``-S..S``) at the
    first radius ``S = start, 2 start, ...`` whose tails, fitted to ``max(|a_s|, |a_-s|)``
    over the last decade (with power exponent ``exponent`` when finite), bracket
    at most ``rel_tol`` of the summed absolute heads, or at the first ``S >= cap``, marked ``capped``."""
    known = None if exponent == math.inf else exponent
    S = start
    while True:
        rows = tuple(rows_at(S))
        envelopes = (np.maximum(np.abs(row[S:]), np.abs(row[S::-1])) for row in rows)  # lags 0..S
        tails = tuple(fit_tail(np.arange(S + 1), env, S / 10, known_exponent=known).as_tail() for env in envelopes)
        heads = tuple(float(np.sum(row**p)) for row in rows)
        bracket = sum(lattice_tail_sum(tail, S + 1, p)[1] for tail in tails)
        met = bracket <= rel_tol * max(sum(abs(h) for h in heads), 1e-300)
        if met or S >= cap:
            return LagSums(rows, S, tails, heads, bracket, not met)
        S *= 2


def grow_radius(bound, start, cap, tol):
    """``(S, bound(S), met)`` at the first ``S = start, 2 start, ...`` with
    ``bound(S) <= tol`` (``met``), or at the first ``S >= cap``."""
    S = start
    while not (value := bound(S)) <= tol and S < cap:
        S *= 2
    return S, value, value <= tol
