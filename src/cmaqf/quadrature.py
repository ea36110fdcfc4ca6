"""Quadrature for kernel products and grid-shift (phase) functionals.

Two geometries recur throughout the package:

* full-line integrals ``int k1(t) k2(t + shift) dt`` (covariances, norm
  sequences), handled by :func:`product_integral`;
* integrals over one sampling period of functionals of the lattice sums
  ``t -> sum_s prod_i k_i(t + s * Delta)``, handled by :func:`phase_lattice`
  and :func:`phase_integral`.

Both split the domain at kernel breakpoints, use composite Simpson rules on
the smooth pieces (nested so a discretisation estimate comes for free), grade
the mesh geometrically into algebraic kinks, and complete the truncated
domain with closed-form bounds from the kernels' decay models.  A Simpson
piece that closes on a breakpoint takes :meth:`Kernel.left_limit` at its last
node, so a kernel that jumps there contributes its value from inside the
piece, not the value after the jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .kernels import Kernel
from .tails import product_tail_integral, sparse_tail_sum_estimate, tail_sup

__all__ = ["QuadResult", "product_integral", "phase_lattice", "phase_product_sum", "phase_integral"]

_GRADE_RATIO = 0.5
_GRADE_LEVELS = 48
_MAX_NODES_PER_BLOCK = 4096
_MIN_NODES_PER_BLOCK = 8
_PRODUCT_REL_TOL = 1e-10
_PRODUCT_MAX_SPAN = float(2**24)
_LATTICE_REL_TOL = 1e-9
_LATTICE_S_CAP = 2**20


@dataclass(frozen=True)
class QuadResult:
    """Value of a truncated integral with its accuracy diagnostics.

    ``disc_estimate`` is a Richardson estimate of the discretisation error
    (fine vs. half-resolution Simpson); ``tail_bound`` bounds the absolute
    mass of the integrand beyond the integration window.
    """

    value: float
    disc_estimate: float
    tail_bound: float


def _simpson(fvals: np.ndarray, a: float, b: float) -> float:
    n = len(fvals) - 1
    h = (b - a) / n
    return h / 3.0 * (fvals[0] + fvals[-1] + 4.0 * fvals[1:-1:2].sum() + 2.0 * fvals[2:-2:2].sum())


def _block(feval, a: float, b: float, n: int, fb: float | None = None):
    """Nested Simpson on [a, b]: returns (fine value, |fine - coarse|/15)."""
    n = max(_MIN_NODES_PER_BLOCK, min(int(n), _MAX_NODES_PER_BLOCK))
    n = 4 * ((n + 3) // 4)
    nodes = np.linspace(a, b, n + 1)
    vals = np.asarray(feval(nodes), dtype=float)
    if fb is not None:
        vals[-1] = fb
    fine = _simpson(vals, a, b)
    coarse = _simpson(vals[::2], a, b)
    return fine, abs(fine - coarse) / 15.0


def _graded(feval, a: float, b: float, toward_left: bool):
    """Geometrically graded Simpson toward one endpoint with an algebraic kink."""
    total, est = 0.0, 0.0
    w = b - a
    edges = w * _GRADE_RATIO ** np.arange(_GRADE_LEVELS + 1)
    for k in range(_GRADE_LEVELS):
        if toward_left:
            lo, hi = a + edges[k + 1], a + edges[k]
        else:
            lo, hi = b - edges[k], b - edges[k + 1]
        v, e = _block(feval, lo, hi, 8)
        total += v
        est += e
    # innermost sliver: one-sided rectangle, negligible by construction
    sl = edges[-1]
    mid = a + 0.5 * sl if toward_left else b - 0.5 * sl
    total += float(feval(np.array([mid]))[0]) * sl
    return total, est


def product_integral(
    k1: Kernel,
    k2: Kernel,
    shift: float = 0.0,
    *,
    absolute: bool = False,
    base_step: float = 1.0 / 64.0,
) -> QuadResult:
    """Integrate ``k1(t) * k2(t + shift)`` (or its absolute value) over the line.

    The window grows in dyadic blocks until the closed-form tail bound drops
    below 1e-10 times the accumulated value (or the window passes 2**24); a
    divergent tail (by the decay models) raises :class:`ConvergenceError`.
    """

    def feval(ts):
        v = np.asarray(k1.eval(ts)) * np.asarray(k2.eval(ts + shift))
        return np.abs(v) if absolute else v

    def left_limit(t):
        v = float(np.asarray(k1.left_limit(np.array([t])))[0]) * float(
            np.asarray(k2.left_limit(np.array([t + shift])))[0]
        )
        return abs(v) if absolute else v

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

    total, est = 0.0, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 0:
            continue
        sing_left, sing_right = a in singular, b in singular
        aa, bb = a, b
        if sing_left:
            w = min(b - a, 0.5)
            v, e = _graded(feval, a, a + w, toward_left=True)
            total, est, aa = total + v, est + e, a + w
        if sing_right and bb > aa:
            w = min(bb - aa, 0.5)
            v, e = _graded(feval, bb - w, bb, toward_left=False)
            total, est, bb = total + v, est + e, bb - w
        if bb > aa:
            v, e = _block(feval, aa, bb, int(math.ceil((bb - aa) / step)), fb=left_limit(bb))
            total, est = total + v, est + e

    # dyadic extension until the decay-model tail bound is negligible
    u = core_end
    while True:
        tail = product_tail_integral(k1.decay, k2.decay, u, shift)
        if tail <= _PRODUCT_REL_TOL * max(abs(total), 1e-300) or tail == 0.0:
            break
        if u > _PRODUCT_MAX_SPAN:
            if not np.isfinite(tail):
                raise ConvergenceError(
                    f"product integral tail diverges (decay models {k1.decay} x {k2.decay})"
                )
            break
        nxt = 2.0 * u if u >= 1.0 else u + 1.0
        n = int(math.ceil((nxt - u) / max(step, (nxt - u) / _MAX_NODES_PER_BLOCK)))
        v, e = _block(feval, u, nxt, n)
        total, est, u = total + v, est + e, nxt
    tail = product_tail_integral(k1.decay, k2.decay, u, shift)
    if not np.isfinite(tail):
        raise ConvergenceError(f"product integral tail diverges (decay models {k1.decay} x {k2.decay})")
    return QuadResult(value=float(total), disc_estimate=float(est), tail_bound=float(tail))


# ---------------------------------------------------------------------------
# phase (grid-shift) machinery
# ---------------------------------------------------------------------------


def lattice_s_range(kernels, Delta: float) -> tuple[int, int]:
    """Lag range ``[s_lo, s_hi]`` so the omitted product terms are negligible.

    The lower end is fixed by the supports; the upper end doubles until the
    estimated sum of the product of the decay-model sups at ``s * Delta``
    beyond it is below 1e-9, up to ``2**20``.
    """
    support = max(k.support_lo for k in kernels)
    s_lo = int(math.floor(support / Delta)) - 1
    s_hi = max(8, -s_lo + 8)
    while s_hi < _LATTICE_S_CAP:
        sup = _product_sup_tail_sum(kernels, Delta, s_hi)
        if sup <= _LATTICE_REL_TOL or sup == 0.0:
            break
        s_hi *= 2
    return s_lo, s_hi


def _product_sup_tail_sum(kernels, Delta, S):
    # estimate of sum_{s >= S} prod_i sup |k_i(s Delta)|
    return sparse_tail_sum_estimate(lambda s: math.prod(tail_sup(k.decay, s * Delta) for k in kernels), S)


def phase_lattice(kernel: Kernel, nodes: np.ndarray, s_lo: int, s_hi: int, Delta: float) -> np.ndarray:
    """Matrix ``V[i, j] = kernel(nodes[j] + (s_lo + i) * Delta)``.

    ``nodes`` span one Simpson piece, so the last column, which closes it,
    carries left limits instead of right-continuous values.
    """
    s_vals = np.arange(s_lo, s_hi + 1)
    args = nodes[None, :] + s_vals[:, None] * Delta
    V = np.asarray(kernel.eval(args.ravel()), dtype=float).reshape(args.shape)
    V[:, -1] = np.asarray(kernel.left_limit(args[:, -1]), dtype=float)
    return V


_LATTICE_CHUNK = 8192


def phase_product_sum(kernels, nodes, s_lo, s_hi, Delta, transform=None) -> np.ndarray:
    """``F(nodes) = sum_s prod_i transform(k_i(nodes + s Delta))``.

    Accumulates over lag chunks so slowly decaying kernels (lag ranges in the
    hundreds of thousands) never materialise the full lattice.
    """
    out = np.zeros(len(nodes))
    for lo in range(s_lo, s_hi + 1, _LATTICE_CHUNK):
        hi = min(lo + _LATTICE_CHUNK - 1, s_hi)
        prod = None
        for k in kernels:
            V = phase_lattice(k, nodes, lo, hi, Delta)
            if transform is not None:
                V = transform(V)
            prod = V if prod is None else prod * V
        out += prod.sum(axis=0)
    return out


def phase_integral(
    kernels,
    Delta: float,
    *,
    transform=None,
    power: float = 2.0,
    nodes_per_period: int = 512,
    tail_sup_fn=None,
) -> QuadResult:
    """Integrate ``F(t) ** power`` over one period, ``F(t) = sum_s prod_i k_i(t + s Delta)``.

    ``transform`` (applied to each factor's lattice values, e.g. ``np.abs``)
    turns the plain product into the absolute-value functionals used by the
    condition checks; ``tail_sup_fn(s)``, if given, replaces the plain
    product's bound on the phase-sup of the omitted lag terms from ``s`` on.
    The period is split at interior breakpoint phases; the closing endpoint of
    each piece uses left limits so the jump of causal kernels at their support
    start is handled exactly.
    """
    s_lo, s_hi = lattice_s_range(kernels, Delta)

    cuts = {0.0, Delta}
    for k in kernels:
        for bp in k.breakpoints:
            r = bp % Delta
            if 1e-12 * Delta < r < Delta * (1.0 - 1e-12):
                cuts.add(r)
    edges = sorted(cuts)

    total, est, fmax = 0.0, 0.0, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        n = max(_MIN_NODES_PER_BLOCK, int(round(nodes_per_period * (b - a) / Delta)))
        n = 4 * ((n + 3) // 4)
        nodes = np.linspace(a, b, n + 1)
        fnod = phase_product_sum(kernels, nodes, s_lo, s_hi, Delta, transform=transform)
        fmax = max(fmax, float(np.max(np.abs(fnod))))
        vals = fnod**power
        fine = _simpson(vals, a, b)
        coarse = _simpson(vals[::2], a, b)
        total += fine
        est += abs(fine - coarse) / 15.0

    # effect of the truncated lag sum on the integral
    if tail_sup_fn is not None:
        sup_tail = tail_sup_fn(s_hi + 1)
    else:
        sup_tail = _product_sup_tail_sum(kernels, Delta, s_hi + 1)
    tail = Delta * power * ((fmax + sup_tail) ** (power - 1.0)) * sup_tail if sup_tail > 0 else 0.0
    return QuadResult(value=float(total), disc_estimate=float(est), tail_bound=float(tail))
