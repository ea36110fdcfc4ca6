"""Moving-average kernels and their uniform grid sampling.

All shipped kernel families are causal (``phi(t) = 0`` for ``t < 0``) and
square integrable.  Each kernel knows how to evaluate itself anywhere on the
real line, reports a decay model for its tail (exact constants for the
analytic families, fitted envelopes for tabulated ones), and exposes the
locations where its smoothness breaks so quadrature can split there.

Derived kernels (:class:`LinComboKernel`, :class:`PowAbsKernel`) represent lag-shifted linear
combinations and pointwise powers of absolute values; they evaluate exactly through their base
kernel, and :func:`_lattice_combo` reads a lattice combination back as that base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConventionError, GridError, NonStationaryError, ParameterError, StabilityError
from .errors import _check_finite, _check_positive
from .tails import CompactTail, ExpTail, PowerTail, TailFit, TailModel, fit_tail, powered_tail, shifted_sum_tail

__all__ = [
    "Kernel",
    "ExponentialOU",
    "CarmaKernel",
    "FractionalNoise",
    "SddeKernel",
    "TabulatedKernel",
    "LinComboKernel",
    "PowAbsKernel",
    "KernelGrid",
    "build_carma",
    "grid_sample",
    "grid_cells",
]

_NODE_SNAP = 1e-9  # relative tolerance for snapping eval points onto table nodes


class Kernel:
    """Base class: a real kernel evaluable on all of R, right-continuous by
    :meth:`eval` and with left limits by :meth:`left_limit`, which quadrature
    takes at the closing node of each Simpson piece."""

    #: kernel vanishes for t < support_lo
    support_lo: float = 0.0
    #: decay model valid for large t
    decay: TailModel = CompactTail(end=0.0)
    #: native table step if the kernel is interpolated from a table
    quad_step_hint: float | None = None
    #: locations where the kernel itself jumps (left limit 0)
    jumps: tuple[float, ...] = ()

    def eval(self, t):
        """Kernel value, right-continuous at jump points."""
        raise NotImplementedError

    def left_limit(self, t):
        """Kernel value with left limits at jump points.

        Differs from :meth:`eval` only where an entry of ``t`` equals a jump
        location; the left limit there is 0 for every shipped family.
        """
        vals = self.eval(t)
        t = np.asarray(t, dtype=float)
        for j in self.jumps:
            vals = np.where(t == j, 0.0, vals)
        return vals

    __call__ = eval

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Locations where the kernel or its derivative is discontinuous."""
        return (self.support_lo,)

    @property
    def singular_points(self) -> tuple[tuple[float, float], ...]:
        """``(location, exponent)`` pairs of algebraic kinks with exponent < 1, kinks from the
        right: smooth just left of ``location``, ``|k(location + e) - k(location)| ~ e**exponent``."""
        return ()

    @property
    def modes(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Exponential modes ``(c, mu)`` with ``phi(t) = Re sum_i c_i exp(mu_i t)``
        on ``t >= 0`` (the kernel vanishes below), or ``None``.

        Complex modes come in conjugate pairs, so the sum is real before ``Re``.
        """
        return None


@dataclass(frozen=True)
class ExponentialOU(Kernel):
    """Ornstein-Uhlenbeck kernel ``exp(-lam * t)`` on ``t >= 0``."""

    lam: float

    def __post_init__(self):
        _check_positive("lam", self.lam)
        object.__setattr__(self, "decay", ExpTail(constant=1.0, rate=self.lam, start=0.0))

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t >= 0.0, np.exp(-self.lam * np.maximum(t, 0.0)), 0.0)
        return out if out.ndim else float(out)

    @property
    def jumps(self):
        return (0.0,)

    @property
    def modes(self):
        return np.ones(1), np.array([-self.lam])


@dataclass(frozen=True)
class CarmaKernel(Kernel):
    """State-space moving-average kernel ``b^T expm(A t) e_p`` on ``t >= 0``.

    ``A`` is the companion matrix of the monic autoregressive polynomial with
    coefficients ``a`` (all roots in the open left half-plane) and ``b`` holds
    the moving-average coefficients with ``b[q] == 1`` and zeros above ``q``.
    Evaluation goes through the eigendecomposition of ``A`` when it is
    well-conditioned and falls back to a scaling-and-squaring matrix
    exponential otherwise.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    q: int
    _eig: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        b = tuple(float(x) for x in self.b)
        _check_finite("a, b and q", (*a, *b, self.q))
        if not float(self.q).is_integer():
            raise ConventionError(f"q must be an integer, got {self.q}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", int(self.q))
        p = len(a)
        if p < 1:
            raise ParameterError("a must be non-empty: the autoregressive order p = len(a) must be >= 1")
        if len(b) != p:
            raise ConventionError(f"b must have length p = {p}, got {len(b)}")
        if not 0 <= self.q < p:
            raise ConventionError(f"q must satisfy 0 <= q < p, got q={self.q}, p={p}")
        if b[self.q] != 1.0:
            raise ConventionError(f"b[q] must equal 1, got {b[self.q]}")
        if any(b[k] != 0.0 for k in range(self.q + 1, p)):
            raise ConventionError("b[k] must vanish for q < k <= p-1")

        A = np.zeros((p, p))
        A[:-1, 1:] = np.eye(p - 1)
        A[-1, :] = -np.asarray(a)[::-1]
        eigvals, V = np.linalg.eig(A)
        if eigvals.real.max() >= -1e-12:
            raise StabilityError(
                f"autoregressive polynomial has a root with Re >= 0 (max Re = {eigvals.real.max():g})"
            )
        e_p = np.zeros(p)
        e_p[-1] = 1.0
        try:
            right = np.linalg.solve(V, e_p)
            diagonalizable = np.linalg.cond(V) < 1e8
        except np.linalg.LinAlgError:
            diagonalizable = False
            right = None
        if diagonalizable:
            coeffs = (np.asarray(b) @ V) * right
            object.__setattr__(self, "_eig", ("eig", eigvals, coeffs))
            const = float(np.sum(np.abs(coeffs)))
            exact = True
        else:
            object.__setattr__(self, "_eig", ("expm", A, np.asarray(b), e_p))
            rate = -eigvals.real.max()
            ts = np.linspace(0.0, 10.0 / rate, 200)
            const = 2.0 * max(abs(v) * math.exp(0.99 * rate * tt) for v, tt in zip(self._eval_expm(ts).tolist(), ts))
            exact = False
        rate = -float(eigvals.real.max())
        object.__setattr__(self, "decay", ExpTail(constant=const, rate=(rate if exact else 0.99 * rate), exact=exact))

    def _eval_expm(self, t: np.ndarray) -> np.ndarray:
        """``b^T expm(A t) e_p`` at each point of a 1-d ``t``, by one stacked matrix exponential."""
        import scipy.linalg  # only a repeated autoregressive root comes here; ``import cmaqf`` stays numpy only

        _, A, b, e_p = self._eig
        return b @ scipy.linalg.expm(A * t[:, None, None]) @ e_p

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.zeros_like(t)
        pos = t >= 0.0
        if np.any(pos):
            if self._eig[0] == "eig":
                _, eigvals, coeffs = self._eig
                out[pos] = (np.exp(np.outer(t[pos], eigvals)) @ coeffs).real
            else:
                out[pos] = self._eval_expm(t[pos])
        return float(out[0]) if scalar else out

    @property
    def jumps(self):
        # phi(0) = b[p-1], nonzero only in the full-order case q = p - 1
        return (0.0,) if self.b[-1] != 0.0 else ()

    @property
    def modes(self):
        # the scaling-and-squaring fallback (a defective A) has none
        if self._eig[0] != "eig":
            return None
        _, eigvals, coeffs = self._eig
        return coeffs, eigvals


build_carma = CarmaKernel  # ``build_carma(a, b, q)``: the constructor under its functional name


@dataclass(frozen=True)
class FractionalNoise(Kernel):
    """Long-memory kernel ``(t_+^d - (t-1)_+^d) / Gamma(1+d)`` with ``0 < d < 1/4``.

    Decays like ``d * t**(d-1) / Gamma(1+d)``; the two-sided envelope constants
    below follow from the mean value theorem and are exact for ``t >= 2``.
    """

    d: float

    def __post_init__(self):
        if not 0.0 < self.d < 0.25:
            raise ParameterError(f"d must lie in (0, 1/4), got {self.d}")
        g = math.gamma(1.0 + self.d)
        # mean value theorem: phi(t) <= d (t-1)^(d-1) / g, and for t >= start >= 2
        # (1 - 1/t)^(d-1) <= 1 + 2 (1-d)/t, so the envelope constant below is exact
        start = 16.0
        object.__setattr__(
            self,
            "decay",
            PowerTail(
                constant=self.d * (1.0 + 2.0 * (1.0 - self.d) / start) / g,
                exponent=1.0 - self.d,
                start=start,
                lower=self.d / g,
            ),
        )

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        d, g = self.d, math.gamma(1.0 + self.d)
        out = np.zeros_like(t)
        head = (t > 0.0) & (t <= 1.0)
        if np.any(head):
            out[head] = t[head] ** d / g
        tail = t > 1.0
        if np.any(tail):
            # t^d - (t-1)^d = -t^d expm1(d log1p(-1/t)); direct subtraction would
            # lose about log10(t/d) digits to cancellation
            x = t[tail]
            out[tail] = -(x**d) * np.expm1(d * np.log1p(-1.0 / x)) / g
        return float(out[0]) if scalar else out

    @property
    def breakpoints(self):
        return (0.0, 1.0)

    @property
    def singular_points(self):
        return ((0.0, self.d), (1.0, self.d))


class _TableKernel(Kernel):
    """Shared behaviour for kernels interpolated from a uniform table."""

    t0: float
    step: float
    values: np.ndarray
    tail_fit: TailFit

    def _table_end(self) -> float:
        return self.t0 + self.step * (len(self.values) - 1)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.zeros_like(t)
        end = self._table_end()
        idx_real = (t - self.t0) / self.step
        nearest = np.round(idx_real)
        on_node = (np.abs(idx_real - nearest) <= _NODE_SNAP) & (nearest >= 0) & (nearest < len(self.values))
        inside = (t >= self.t0) & (t <= end) & ~on_node
        if np.any(on_node):
            out[on_node] = self.values[nearest[on_node].astype(int)]
        if np.any(inside):
            lo = np.floor(idx_real[inside]).astype(int)
            frac = idx_real[inside] - lo
            hi = np.minimum(lo + 1, len(self.values) - 1)
            out[inside] = self.values[lo] * (1.0 - frac) + self.values[hi] * frac
        beyond = t > end
        if np.any(beyond):
            out[beyond] = self._tail_extension(t[beyond])
        return float(out[0]) if scalar else out

    def _tail_extension(self, t: np.ndarray) -> np.ndarray:
        # fitted envelope, never a hard zero, signed like the last table values
        fit = self.tail_fit
        if fit.constant == 0.0:
            return np.zeros_like(t)
        sign = math.copysign(1.0, self.values[np.nonzero(self.values)[0][-1]]) if np.any(self.values) else 1.0
        if fit.preferred == "exponential":
            return sign * fit.exp_constant * np.exp(-fit.exp_rate * t)
        return sign * fit.constant * t**-fit.exponent

    @property
    def quad_step_hint(self) -> float:
        return self.step

    @property
    def jumps(self):
        return (self.t0,) if self.values[0] != 0.0 else ()

    @property
    def breakpoints(self):
        return (self.t0, self._table_end())


@dataclass(frozen=True, eq=False)
class TabulatedKernel(_TableKernel):
    """Kernel given by values on a uniform grid, linearly interpolated inside
    the window and extended by the fitted power tail outside."""

    t0: float
    step: float
    values: np.ndarray
    tail_fit: TailFit = field(init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ParameterError("values must be a 1-d array with at least two entries")
        _check_positive("step", self.step)
        _check_finite("t0", self.t0)
        _check_finite("values", values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tail_fit", _fit_table_tail(self.t0, self.step, values))
        object.__setattr__(self, "support_lo", float(self.t0))
        object.__setattr__(self, "decay", self.tail_fit.as_tail())

    def to_csv(self, path) -> None:
        """Write the table as two-column CSV with header ``t,phi``."""
        ts = self.t0 + self.step * np.arange(len(self.values))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,phi\n")
            for t, v in zip(ts, self.values):
                fh.write(f"{float(t)!r},{float(v)!r}\n")

    @classmethod
    def from_csv(cls, path) -> "TabulatedKernel":
        """Read a two-column CSV ``t,phi`` on a uniform grid."""
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
            raise ParameterError(f"{path}: expected two columns t,phi with at least two rows")
        ts, vals = data[:, 0], data[:, 1]
        steps = np.diff(ts)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise GridError(f"{path}: grid is not uniform")
        return cls(t0=float(ts[0]), step=float(steps[0]), values=vals)


def _fit_table_tail(t0: float, step: float, values: np.ndarray) -> TailFit:
    end = t0 + step * (len(values) - 1)
    if values[-1] == 0.0:
        # table ends in zeros: compact support inside the window, no extension
        return TailFit(math.inf, 0.0, 0.0, math.inf, 0.0, 0.0, "power", (t0, end))
    fit = fit_tail(t0 + step * np.arange(len(values)), values, max(end / 10.0, t0 + step, step))
    if fit.points < 3:
        raise ParameterError(
            f"a table ending in a non-zero value needs three usable (non-zero) nodes at t > 0 "
            f"to fit its tail; it has {fit.points}"
        )
    return fit


@dataclass(frozen=True, eq=False)
class SddeKernel(_TableKernel):
    """Resolvent kernel of a linear delay equation driven by finitely many atoms.

    Solves ``phi(t) = 1 + int_0^t sum_i w_i phi(s - tau_i) ds`` by trapezoidal
    stepping on a uniform grid, with one-sided values where the integrand jumps
    (the kernel itself jumps from 0 to 1 at the origin).  Construction fails
    when the characteristic function ``z + sum_i w_i exp(z tau_i)`` has a zero
    with non-positive real part, which is checked by an argument-principle
    winding count over a half-disk large enough to contain every such zero.
    """

    atoms: tuple[tuple[float, float], ...]
    horizon: float
    step: float
    t0: float = field(default=0.0, init=False)
    values: np.ndarray = field(init=False, repr=False)
    tail_fit: TailFit = field(init=False, repr=False)

    def __post_init__(self):
        atoms = tuple((float(tau), float(w)) for tau, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "step", float(self.step))
        _check_finite("atoms", atoms)
        if any(tau < 0 for tau, _ in atoms):
            raise ParameterError("atom locations must be >= 0")
        _check_positive("horizon", self.horizon)
        _check_positive("step", self.step)
        roots, min_mod = _left_halfplane_roots(atoms)
        if min_mod < 1e-9 or roots > 0:
            raise NonStationaryError(
                "characteristic function z + sum w_i exp(z tau_i) vanishes for some Re(z) <= 0 "
                f"(winding count {roots}, min |h| on contour {min_mod:.3g})"
            )
        # a numerical verdict, not a proof: contour resolution is finite
        object.__setattr__(self, "stationarity", f"supported at horizon (min contour modulus {min_mod:.3g})")
        object.__setattr__(self, "values", _solve_sdde_table(atoms, self.horizon, self.step))
        object.__setattr__(self, "tail_fit", _fit_table_tail(0.0, self.step, self.values))
        object.__setattr__(self, "decay", self.tail_fit.as_tail())

    @property
    def breakpoints(self):
        return tuple(sorted({0.0, self._table_end(), *(tau for tau, _ in self.atoms)}))


def _left_halfplane_roots(atoms) -> tuple[int, float]:
    """Winding number of the characteristic function around the half-disk
    ``{Re z <= 0, |z| <= R}`` and the minimum modulus met on the contour.

    Zeros with ``Re z <= 0`` satisfy ``|z| <= sum |w_i|``, so ``R`` is chosen
    one unit larger and the count is exhaustive up to contour resolution.
    """
    wsum = sum(abs(w) for _, w in atoms)
    R = wsum + 1.0

    def h(z):
        out = np.asarray(z, dtype=complex).copy()
        for tau, w in atoms:
            out += w * np.exp(z * tau)
        return out

    samples = 4096
    ys = np.linspace(-R, R, samples + 1)  # odd count: the origin is sampled exactly
    seg1 = 1j * ys  # imaginary axis upward
    th = np.linspace(np.pi / 2.0, 3.0 * np.pi / 2.0, samples)
    seg2 = R * np.exp(1j * th)  # left semicircle back down
    contour = np.concatenate([seg1, seg2, seg1[:1]])
    vals = h(contour)
    min_mod = float(np.min(np.abs(vals)))
    if min_mod == 0.0:
        return 1, 0.0
    args = np.angle(vals)
    darg = np.diff(args)
    darg = (darg + np.pi) % (2.0 * np.pi) - np.pi
    winding = int(round(float(np.sum(darg)) / (2.0 * np.pi)))
    return abs(winding), min_mod


def _solve_sdde_table(atoms, horizon: float, step: float) -> np.ndarray:
    n_steps = int(round(horizon / step))
    phi = np.zeros(n_steps + 1)
    phi[0] = 1.0

    def val(x: float, side: str) -> float:
        # phi at x from the values computed so far; one-sided at 0
        if x < 0.0 or (x == 0.0 and side == "left"):
            return 0.0
        if x == 0.0:
            return 1.0
        idx = x / step
        i0 = int(math.floor(idx + 1e-12))
        frac = idx - i0
        if frac < 1e-12:
            return phi[i0]
        return phi[i0] * (1.0 - frac) + phi[i0 + 1] * frac

    for k in range(n_steps):
        t_next = (k + 1) * step
        f_right = sum(w * val(k * step - tau, "right") for tau, w in atoms)
        known = 0.0
        implicit = 0.0
        for tau, w in atoms:
            x = t_next - tau
            if x <= 0.0:
                continue  # left limit at or below the origin is 0
            if x <= k * step + 1e-12 * step:
                known += w * val(x, "left")
            else:
                theta = (x - k * step) / step
                known += w * (1.0 - theta) * phi[k]
                implicit += w * theta
        denom = 1.0 - 0.5 * step * implicit
        if abs(denom) < 1e-8:
            raise GridError(f"step {step} too large for the implicit update (denominator {denom:.3g})")
        phi[k + 1] = (phi[k] + 0.5 * step * (f_right + known)) / denom
    return phi


@dataclass(frozen=True)
class LinComboKernel(Kernel):
    """Finite linear combination of lag-shifted copies: ``sum_j c_j base(t - s_j)``.

    Evaluates exactly through the base kernel, so derived covariance integrals
    inherit the base kernel's accuracy.  Shifts may be negative (advanced
    lags), in which case the combination is no longer causal.
    """

    base: Kernel
    shifts: tuple[float, ...]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        shifts = tuple(float(s) for s in self.shifts)
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(shifts) != len(coeffs) or not shifts:
            raise ParameterError("shifts and coeffs must be equal-length non-empty sequences")
        _check_finite("shifts and coeffs", shifts + coeffs)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "support_lo", self.base.support_lo + min(shifts))
        object.__setattr__(self, "decay", shifted_sum_tail(self.base.decay, shifts, coeffs))

    def _combine(self, t, base_eval):
        t = np.asarray(t, dtype=float)
        shifts = np.asarray(self.shifts)
        coeffs = np.asarray(self.coeffs)
        flat = t.ravel()
        out = np.zeros_like(flat)
        # chunk the shift axis so large combinations stay vectorised without
        # blowing up memory
        chunk = max(1, int(4e6 // max(flat.size, 1)))
        for i in range(0, len(shifts), chunk):
            args = flat[None, :] - shifts[i : i + chunk, None]
            vals = np.asarray(base_eval(args.ravel())).reshape(args.shape)
            out += coeffs[i : i + chunk] @ vals
        out = out.reshape(t.shape)
        return out if out.ndim else float(out)

    def eval(self, t):
        return self._combine(t, self.base.eval)

    def left_limit(self, t):
        return self._combine(t, self.base.left_limit)

    @property
    def breakpoints(self):
        return tuple(sorted({bp + s for bp in self.base.breakpoints for s in self.shifts}))

    @property
    def singular_points(self):
        return tuple((loc + s, ex) for loc, ex in self.base.singular_points for s in self.shifts)

    @property
    def quad_step_hint(self):
        return self.base.quad_step_hint


@dataclass(frozen=True)
class PowAbsKernel(Kernel):
    """Pointwise power of the absolute value, ``|base(t)| ** power``."""

    base: Kernel
    power: float

    def __post_init__(self):
        _check_positive("power", self.power)
        object.__setattr__(self, "support_lo", self.base.support_lo)
        object.__setattr__(self, "decay", powered_tail(self.base.decay, self.power))

    def eval(self, t):
        return np.abs(self.base.eval(t)) ** self.power

    def left_limit(self, t):
        return np.abs(self.base.left_limit(t)) ** self.power

    @property
    def breakpoints(self):
        return self.base.breakpoints

    @property
    def singular_points(self):  # |f|**p keeps the exponent of f where f does not vanish
        return tuple((loc, ex * self.power if self.base.eval(loc) == 0.0 else ex) for loc, ex in self.base.singular_points)

    @property
    def quad_step_hint(self):
        return self.base.quad_step_hint


def _lattice_combo(kernel: Kernel, Delta: float) -> tuple[Kernel, np.ndarray, np.ndarray]:
    """``(base, offsets, coeffs)`` with ``kernel(t) = sum_j coeffs[j] base(t - offsets[j] Delta)``.

    Lag covariances and period integrals read a combination only through this.  It reduces a
    :class:`LinComboKernel` whose every shift is an exact multiple of ``Delta``, at offsets
    below ``2**62`` (their spans hold in an int64); any other kernel is its own base, at offset 0.
    """
    if isinstance(kernel, LinComboKernel):
        shifts = np.asarray(kernel.shifts)
        offsets = np.round(shifts / Delta)
        if np.array_equal(offsets * Delta, shifts) and np.abs(offsets).max() < 2.0**62:
            return kernel.base, offsets.astype(int), np.asarray(kernel.coeffs)
    return kernel, np.zeros(1, dtype=int), np.ones(1)


# ---------------------------------------------------------------------------
# uniform grid sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """Kernel values on the uniform grid ``k * (Delta/m)`` over ``[-horizon, horizon]``.

    ``tail`` is the power-law envelope fitted over the last decade of the
    window; the samples satisfy ``|phi(t)| <= constant * exp(residual) *
    t**-exponent`` on the fitted range.
    """

    kernel: Kernel
    Delta: float
    m: int
    horizon: float
    values: np.ndarray
    tail: TailFit

    @property
    def step(self) -> float:
        return self.Delta / self.m

    def times(self) -> np.ndarray:
        n = int(round(self.horizon / self.step))
        return np.arange(-n, n + 1) * self.step

    def __len__(self) -> int:
        return len(self.values)


def grid_sample(kernel: Kernel, Delta: float, m: int, horizon: float) -> KernelGrid:
    """Sample ``kernel`` on the grid with step ``Delta/m`` over ``[-horizon, horizon]``.

    ``horizon`` must be a positive multiple of ``Delta`` and, for table-backed
    kernels, the native table step must divide ``Delta``.
    """
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise GridError(f"m must be a positive integer, got {m}")
    if not (math.isfinite(Delta) and Delta > 0):
        raise GridError(f"Delta must be finite and > 0, got {Delta}")
    ratio = horizon / Delta
    if not horizon > 0 or abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
        raise GridError(f"horizon must be a positive multiple of Delta, got {horizon} / {Delta}")
    native = kernel.quad_step_hint
    if native is not None:
        r = Delta / native
        if abs(r - round(r)) > 1e-9 * max(1.0, r):
            raise GridError(f"native step {native} does not divide Delta = {Delta}")
    step = Delta / m
    n = int(round(horizon / step))
    times = np.arange(-n, n + 1) * step
    values = np.asarray(kernel.eval(times), dtype=float)
    tail = fit_tail(times, values, horizon / 10.0)
    return KernelGrid(kernel=kernel, Delta=float(Delta), m=int(m), horizon=float(horizon), values=values, tail=tail)


def grid_cells(grids) -> tuple[float, np.ndarray]:
    """Shared step and left-endpoint cell values (one row per grid) of grids
    that share step and window; raises :class:`GridError` otherwise."""
    g0 = grids[0]
    for g in grids[1:]:
        if (g.Delta, g.m, g.horizon, len(g)) != (g0.Delta, g0.m, g0.horizon, len(g0)):
            raise GridError("all grids must share step and window")
    return g0.step, np.stack([np.asarray(g.values[:-1], dtype=float) for g in grids])
