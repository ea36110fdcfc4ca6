"""Quadrature for kernel products and grid-shift (phase) functionals.

Two geometries recur throughout the package:

* full-line integrals ``int k1(t) k2(t + shift) dt`` (covariances, norm
  sequences), handled by :func:`product_integral`;
* integrals over one sampling period of functionals of the lattice sums ``t -> sum_s prod_i
  k_i(t + (s + lag_i) * Delta)`` (fourth-cumulant terms, period norms), handled by
  :func:`phase_integral` and :func:`lag_gram`.  Both read their lattice sums from one sampler,
  :func:`_lattice_sums`, which samples every distinct base kernel once per lag chunk and reads a
  lattice combination only through its base.

Both split the domain at kernel breakpoints and run one piece loop, :func:`_pieces`: nested
composite Simpson rules (so a discretisation estimate comes for free), a piece that starts at
an algebraic kink taken in the graded variable ``u`` of ``t = a + (b - a) u**5``, a power-law
tail of a line integral taken in ``x = ln t``, and the truncated domain completed by closed-form
bounds from the kernels' decay models.  A Simpson piece that closes on a breakpoint takes
:meth:`Kernel.left_limit` at its last node, so a kernel that jumps there contributes its value
from inside the piece, not the value after the jump.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError, _check_positive
from .kernels import Kernel, _lattice_combo
from .tails import (
    decay_exponent, grow_radius, lattice_tail_sum, product_tail_integral, sparse_tail_sum_estimate, tail_sup
)

__all__ = ["QuadResult", "product_integral", "phase_integral", "lag_gram"]

_GRADE_POWER = 5
_MAX_NODES_PER_BLOCK = 4096
_MIN_NODES_PER_BLOCK = 8
_PRODUCT_REL_TOL = 1e-10
_PRODUCT_MAX_SPAN = float(2**80)
_LATTICE_REL_TOL = 1e-9
_LATTICE_S_CAP = 2**20
_NODES_PER_PERIOD = 512  # Simpson nodes (a multiple of 4) per sampling period of a period integral by default


@dataclass(frozen=True)
class QuadResult:
    """Value of a truncated integral with its accuracy diagnostics.

    ``disc_estimate`` estimates the discretisation error from fine vs. half-resolution
    Simpson: ``|fine - coarse| / 15`` (Richardson), and ``|fine - coarse|`` on a graded
    piece; ``tail_bound`` bounds the absolute mass of the integrand beyond the integration window.
    """

    value: float
    disc_estimate: float
    tail_bound: float


def _simpson(fvals: np.ndarray, a: float, b: float) -> float:
    n = len(fvals) - 1
    h = (b - a) / n
    return h / 3.0 * (fvals[0] + fvals[-1] + 4.0 * fvals[1:-1:2].sum(axis=0) + 2.0 * fvals[2:-2:2].sum(axis=0))


def _block(
    feval, a: float, b: float, n: int, fa: float | None = None, fb: float | None = None, richardson: float = 15.0
):
    """Nested Simpson on [a, b] of values along axis 0, with the end values ``fa``/``fb``
    in place of ``feval`` where given: returns (fine value, |fine - coarse| / richardson)."""
    n = max(_MIN_NODES_PER_BLOCK, min(int(n), _MAX_NODES_PER_BLOCK))
    n = 4 * ((n + 3) // 4)
    nodes = np.linspace(a, b, n + 1)
    vals = np.asarray(feval(nodes), dtype=float)
    if fa is not None:
        vals[0] = fa
    if fb is not None:
        vals[-1] = fb
    fine = _simpson(vals, a, b)
    coarse = _simpson(vals[::2], a, b)
    return fine, abs(fine - coarse) / richardson


def _graded(feval, a: float, b: float, n: int, fb: float | None = None):
    """:func:`_block` in ``u`` on [0, 1] with ``t = a + (b - a) u**q``, ``q = _GRADE_POWER``: a kink ``(t - a)**e``
    becomes ``u**(q (1 + e) - 1)`` times a smooth factor, smooth to fourth order for every ``e > 0``, an order that
    Simpson's error reaches only asymptotically: the estimate is ``|fine - coarse|`` without Richardson's 15."""
    w, q = b - a, _GRADE_POWER

    def geval(u):  # nodes ascend in t and end on b; values times dt/du, which vanishes at a
        t = np.append(a + w * u[:-1] ** q, b)
        return (np.asarray(feval(t), dtype=float).T * (q * w * u ** (q - 1))).T

    return _block(geval, 0.0, 1.0, n, fa=0.0, fb=None if fb is None else q * w * fb, richardson=1.0)


def _pieces(feval, edges, nodes_in, singular=frozenset(), close=None):
    """The one piece loop of every integral: each piece between ascending ``edges`` takes ``nodes_in(a, b)``
    nodes and the end values ``close(a, b) -> (fa, fb)`` when given, and is :func:`_graded` when it starts
    at a kink in ``singular`` (kinks come from the right, :attr:`Kernel.singular_points`).
    Returns (value, estimate)."""
    total, est = 0.0, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        fa, fb = close(a, b) if close else (None, None)
        if a in singular:
            v, e = _graded(feval, a, b, nodes_in(a, b), fb)
        else:
            v, e = _block(feval, a, b, nodes_in(a, b), fa, fb)
        total, est = total + v, est + e
    return total, est


def product_integral(
    k1: Kernel,
    k2: Kernel,
    shift: float = 0.0,
    *,
    base_step: float = 1.0 / 64.0,
) -> QuadResult:
    """Integrate ``k1(t) * k2(t + shift)`` over the line.

    The window grows in dyadic blocks, or in one block in ``ln t`` out to the
    first doubled radius when both decay models are power tails, until the
    closed-form tail bound drops below 1e-10 times the accumulated value (or
    the window passes 2**80); a divergent tail (by the decay models) raises
    :class:`ConvergenceError`.
    """

    def feval(ts):
        return np.asarray(k1.eval(ts)) * np.asarray(k2.eval(ts + shift))

    # an edge put at a breakpoint bp of k2 as bp - shift may miss bp by rounding
    # when shifted back, and so take the wrong side of a jump there: k2 is
    # evaluated at bp itself on such edges
    k2_bp = {bp - shift: bp for bp in k2.breakpoints if bp - shift + shift != bp}

    def edge(t, side):
        f1, f2 = getattr(k1, side), getattr(k2, side)
        return float(np.asarray(f1(np.array([t])))[0]) * float(np.asarray(f2(np.array([k2_bp.get(t, t + shift)])))[0])

    lo = max(k1.support_lo, k2.support_lo - shift)
    step = base_step
    for hint in (k1.quad_step_hint, k2.quad_step_hint):
        if hint is not None:
            step = min(step, hint)

    pts = {lo}
    pts.update(bp for bp in k1.breakpoints if bp > lo)
    pts.update(bp - shift for bp in k2.breakpoints if bp - shift > lo)
    singular = {loc for loc, ex in k1.singular_points if ex < 1.0}
    singular.update(loc - shift for loc, ex in k2.singular_points if ex < 1.0)
    core_end = max(pts) + 1.0
    edges = sorted(p for p in pts if p < core_end) + [core_end]

    total, est = _pieces(feval, edges, lambda a, b: int(math.ceil((b - a) / step)), singular,
                         lambda a, b: (edge(a, "eval") if a in k2_bp else None, edge(b, "left_limit")))

    # dyadic extension until the decay-model tail bound is negligible; a power pair's tail is one block in ln t,
    # once the unit steps of a window left of 1 have reached t >= 1
    tail_from = functools.partial(product_tail_integral, k1.decay, k2.decay, shift=shift)
    power_pair = max(decay_exponent(k1.decay), decay_exponent(k2.decay)) < math.inf
    u = core_end
    while True:
        tail, tol = tail_from(u), _PRODUCT_REL_TOL * max(abs(total), 1e-300)
        if tail <= tol or u > _PRODUCT_MAX_SPAN:
            break
        if power_pair and u >= 1.0:
            nxt, tail, _ = grow_radius(tail_from, 2.0 * u, _PRODUCT_MAX_SPAN, tol)
            if math.isfinite(tail):
                v, e = _block(lambda x: feval(t := np.exp(x)) * t, math.log(u), math.log(nxt), _MAX_NODES_PER_BLOCK)
                total, est = total + v, est + e
            break
        nxt = 2.0 * u if u >= 1.0 else u + 1.0
        n = int(math.ceil((nxt - u) / max(step, (nxt - u) / _MAX_NODES_PER_BLOCK)))
        v, e = _block(feval, u, nxt, n)
        total, est, u = total + v, est + e, nxt
    if not np.isfinite(tail):
        raise ConvergenceError(f"product integral tail diverges (decay models {k1.decay} x {k2.decay})")
    return QuadResult(value=float(total), disc_estimate=float(est), tail_bound=float(tail))


# ---------------------------------------------------------------------------
# phase (grid-shift) machinery
# ---------------------------------------------------------------------------


def lattice_s_range(kernels, Delta: float) -> tuple[int, int]:
    """Lag range ``[s_lo, s_hi]`` so the omitted product terms are negligible.

    The lower end is fixed by the supports; the upper end doubles from
    ``max(8, 8 - s_lo)`` (:func:`~cmaqf.tails.grow_radius`) until the summed
    product of the decay-model sups at ``s * Delta`` beyond it is at most 1e-9
    (a :func:`~cmaqf.tails.sparse_tail_sum_estimate`, not a bound), or to ``2**20``.
    A ``Delta`` that is not finite and > 0 raises :class:`ParameterError`.
    """
    _check_positive("Delta", Delta)
    support = max(k.support_lo for k in kernels)
    s_lo = int(math.floor(support / Delta)) - 1
    s_hi, _, _ = grow_radius(
        lambda S: _product_sup_tail_sum(kernels, Delta, S), max(8, -s_lo + 8), _LATTICE_S_CAP, _LATTICE_REL_TOL
    )
    return s_lo, s_hi


def _product_sup_tail_sum(kernels, Delta, S):
    # estimate of sum_{s >= S} prod_i sup |k_i(s Delta)|
    return sparse_tail_sum_estimate(lambda s: math.prod(tail_sup(k.decay, s * Delta) for k in kernels), S)


_LATTICE_CHUNK = 8192


def _lattice_sums(products, nodes, s_lo, s_hi, Delta, alpha: float | None = None) -> np.ndarray:
    """Row ``i`` is ``sum_{s_lo <= s <= s_hi} prod_{(k, lag) in products[i]} k(nodes + (s + lag) Delta)``,
    with factors ``|k|**alpha`` when ``alpha`` is given: the one lattice sampler of period integrals.

    ``nodes`` span one Simpson piece, so the last column, which closes it, carries left limits.  A factor
    ``sum_j c_j B(. - a_j Delta)`` (:func:`~cmaqf.kernels._lattice_combo`) reads rows ``s + lag - a_j`` of
    its base ``B``, and a factor of one unit term is a view of them.  Each lag chunk samples every distinct
    base once, over the rows all its factors read, so slowly decaying kernels (lag ranges in the hundreds
    of thousands) never materialise the full lattice.  ``|.|**alpha`` is taken in place, on a base lattice
    once for all its views, after the combinations have read it.
    """
    factors = {(id(k), lag): _lattice_combo(k, Delta) + (lag,) for product in products for k, lag in product}
    out = np.zeros((len(products), len(nodes)))
    for lo in range(s_lo, s_hi + 1, _LATTICE_CHUNK):
        out += _lattice_chunk(products, factors, nodes, lo, min(lo + _LATTICE_CHUNK - 1, s_hi), Delta, alpha)
    return out


def _lattice_chunk(products, factors, nodes, lo, hi, Delta, alpha):
    """The rows of :func:`_lattice_sums` summed over the lags ``lo..hi`` only; its lattices die with the call."""
    reach = {}  # base -> (first, last) row over its factors
    for base, offsets, _, lag in factors.values():
        first, last = reach.get(id(base), (math.inf, -math.inf))
        reach[id(base)] = min(first, lo + lag - offsets.max()), max(last, hi + lag - offsets.min())
    lattice = {}
    for base, _, _, _ in factors.values():
        if id(base) not in lattice:
            shifts = np.arange(reach[id(base)][0], reach[id(base)][1] + 1) * Delta
            B = np.asarray(base.eval((nodes[None, :] + shifts[:, None]).ravel()), dtype=float)
            lattice[id(base)] = B = B.reshape(len(shifts), len(nodes))
            B[:, -1] = np.asarray(base.left_limit(nodes[-1] + shifts), dtype=float)
    V, owned = {}, {}
    for key, (base, offsets, coeffs, lag) in factors.items():
        B, at = lattice[id(base)], lo + lag - reach[id(base)][0]
        if len(offsets) == 1 and coeffs[0] == 1.0:
            V[key] = B[at - offsets[0] : at - offsets[0] + hi - lo + 1]
            owned[id(base)] = B
        else:
            V[key] = owned[key] = sum(c * B[at - a : at - a + hi - lo + 1] for a, c in zip(offsets, coeffs))
    if alpha is not None:
        for v in owned.values():  # in place: the lattice is the largest array of a period integral
            np.abs(v, out=v)
            if alpha != 1.0:
                v **= alpha
    return [functools.reduce(operator.mul, (V[id(k), lag] for k, lag in product)).sum(axis=0) for product in products]


def _period(feval, kernels, Delta: float, nodes_per_period: int):
    """``_pieces`` over one period cut at the kernels' breakpoint phases and graded into their kink phases
    (a phase within rounding of a period end is 0); ``feval`` closes each piece on left limits, as
    :func:`_lattice_sums` does."""

    def phases(points):
        return {r if 1e-12 * Delta < (r := p % Delta) < Delta * (1.0 - 1e-12) else 0.0 for p in points}

    cuts = phases(bp for k in kernels for bp in k.breakpoints) | {0.0, Delta}
    kinks = phases(loc for k in kernels for loc, ex in k.singular_points if ex < 1.0)
    return _pieces(feval, sorted(cuts), lambda a, b: round(nodes_per_period * (b - a) / Delta), kinks)


def phase_integral(
    kernels,
    Delta: float,
    *,
    alpha: float | None = None,
    power: float = 2.0,
    nodes_per_period: int = _NODES_PER_PERIOD,
) -> QuadResult:
    """Integrate ``F(t) ** power`` over one period, ``F(t) = sum_s prod_i k_i(t + s Delta)``.

    With ``alpha`` the factors become ``|k_i|**alpha``: the absolute-value
    functionals of the condition checks.  The omitted lag terms from ``s`` on
    are then bounded on every phase by the closed-form lattice sums
    ``sum_i sum_{|s'| >= s} sup |k_i(s' Delta)|**alpha`` of the decay models;
    the plain product keeps the estimate of :func:`lattice_s_range`.  The
    period is split at interior breakpoint phases; the closing endpoint of
    each piece uses left limits so the jump of causal kernels at their support
    start is handled exactly.
    """
    s_lo, s_hi = lattice_s_range(kernels, Delta)
    fmax = []  # max |F| of each piece, for the tail bound

    def integrand(nodes):
        F = _lattice_sums([[(k, 0) for k in kernels]], nodes, s_lo, s_hi, Delta, alpha)[0]
        fmax.append(float(np.max(np.abs(F))))
        return F**power

    total, est = _period(integrand, kernels, Delta, nodes_per_period)

    # effect of the truncated lag sum on the integral
    if alpha is not None:
        sup_tail = sum(lattice_tail_sum(k.decay, s_hi + 1, alpha, Delta)[1] for k in kernels)
    else:
        sup_tail = _product_sup_tail_sum(kernels, Delta, s_hi + 1)
    tail = Delta * power * ((max(fmax) + sup_tail) ** (power - 1.0)) * sup_tail if sup_tail > 0 else 0.0
    return QuadResult(value=float(total), disc_estimate=float(est), tail_bound=float(tail))


def lag_gram(kernel: Kernel, m: int, Delta: float) -> np.ndarray:
    """The ``m x m`` matrix ``int_0^Delta K_i(t) K_j(t) dt`` of the lagged lattice sums
    ``K_j(t) = sum_s kernel(t + s Delta) kernel(t + (s + j) Delta)``, all taken from one base lattice per
    lag chunk over the lag range of ``[kernel, kernel]``: the fourth-cumulant block of the autocovariance CLT.
    """
    s_lo, s_hi = lattice_s_range([kernel, kernel], Delta)
    products = [[(kernel, 0), (kernel, j)] for j in range(1, m + 1)]

    def gram(nodes):
        K = _lattice_sums(products, nodes, s_lo, s_hi, Delta)
        return K.T[:, :, None] * K.T[:, None, :]

    return _period(gram, [kernel], Delta, _NODES_PER_PERIOD)[0]
