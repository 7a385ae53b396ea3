"""Singular two-parameter kernels on triangle domains.

A :class:`Kernel` is a nonnegative weight k(t, s) on one of the two open
triangles

* causal:      0 <= s < t <= T   (weights multiplying forward integrals),
* anticausal:  0 <= t < s <= T   (weights multiplying backward integrals),

allowed to blow up only on the boundary lines s = t, s = 0, t = 0, t = T.
The module provides constructors for the standard singular families
(fractional, doubly singular, convolution, fractional-Brownian,
exponential sums), product-integration cell weights, slice norms, the
square-integrability / partitionable-slice / bounded-sliding-slice
classifications, and JSON-serializable classification reports.

The forward and backward solvers take their (N+1, N) cell-weight tables
from one builder here.  A kernel of the lag |t - s| alone
(``Kernel.lag_only``: fractional, Riemann-Liouville, convolution,
exponential-sum, constant and doubly singular with beta = 0) is built from
one lag profile, which gives every hook in both orientations, and has a
Toeplitz table on the uniform tree grid, built from one row in O(N) work
and bytes; every other kernel is tabulated row by row.

Conventions
-----------
The "slice" at a point x always fixes the *smaller* time variable and
integrates the larger one: for anticausal kernels slice(x, b) integrates
k(x, s)^2 over s in (x, b]; for causal kernels it integrates k(t, x)^2
over t in (x, b].  All classification quantities are numerical estimates
on refined grids and are reported together with the grids and tolerances
used; they are falsifiable measurements, never certificates.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .special import gamma_fn, mittag_leffler  # noqa: F401 (re-export)

CAUSAL = "causal"
ANTICAUSAL = "anticausal"

DEFAULT_EPS_GRID = (1.0, 0.5, 0.25, 0.125)
DEFAULT_BREAKPOINT_CAP = 4096
_GROWTH_FACTOR = 1.5  # refinement growth ratio that flags a divergent integral
_BISECT_MARGIN = 1e-3  # relative shrink applied to greedy breakpoints
_BREAKPOINT_REL_TOL = 1e-6  # bisection resolution, relative to T or lag width
_K0_GRID = 33  # outer times of the K0 slice checks (66 when refined)
_K0_TOL = 1e-2  # sliding slices this small (relative) count as vanished
_K0_MIN_SLOPE = 0.05  # least log-log decay slope of the sliding slices


class KernelEvalError(RuntimeError):
    """Kernel evaluation failed strictly inside its domain."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the refinement trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class KernelClassWarning(UserWarning):
    pass


def _power_integral(q: float, lo, hi):
    """Exact integral of r^q dr over [lo, hi], 0 <= lo <= hi; inf if divergent.

    Vectorized over lo/hi; divergence happens exactly when lo = 0 and
    q <= -1.
    """
    lo_a = np.asarray(lo, dtype=float)
    hi_a = np.asarray(hi, dtype=float)
    scalar = lo_a.ndim == 0 and hi_a.ndim == 0
    lo_a, hi_a = np.broadcast_arrays(np.atleast_1d(lo_a), np.atleast_1d(hi_a))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if q == -1.0:
            out = np.where(lo_a <= 0.0, np.inf, np.log(hi_a / lo_a))
        else:
            p = q + 1.0
            hp = np.power(hi_a, p)
            lp = np.where(lo_a > 0.0, np.power(lo_a, p),
                          0.0 if p > 0.0 else np.inf)
            out = (hp - lp) / p
    out = np.where(hi_a <= lo_a, 0.0, out)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class Kernel:
    """Two-parameter nonnegative weight with singularity metadata.

    Parameters
    ----------
    label : str
        Identifier used in reports and configs.
    orientation : str
        ``"causal"`` (domain s < t) or ``"anticausal"`` (domain t < s).
    horizon : float
        Right endpoint T of the time interval.
    eval_fn : callable
        ``eval_fn(t, s)``, vectorized in ``s``; must be finite and
        nonnegative strictly inside the domain.
    singularity_hint : tuple, optional
        ``(diagonal_exponent, edge_exponent)``: the kernel behaves like
        ``|t - s|**-diagonal_exponent`` near the diagonal and like
        ``x**-edge_exponent`` near the zero edge of its smaller variable.
        Drives the product-integration rules.
    cell_fn, cell_sq_fn : callable, optional
        Closed-form ``int_a^b k(t, s) ds`` and ``int_a^b k(t, s)^2 ds``
        over inner-variable cells (may return ``inf``).
    cell_m1_fn : callable, optional
        Closed-form first moment ``int_a^b s * k(t, s) ds``.
    slice_sq_fn : callable, optional
        Closed-form slice integral (see module docstring); only needed for
        causal kernels, anticausal ones reuse ``cell_sq_fn``.
    meta : dict
        Family parameters.  A kernel built from a lag profile keeps it
        under ``lag``, so k(t, s) and every hook depend on the lag
        |t - s| alone (see :attr:`lag_only`).  A power kernel
        scale * lag**-a * x**-b, x the smaller time variable, keeps
        ``(scale, a, b)`` under ``power``, which gives its triangle norm
        in closed form (see :func:`triangle_l2_norm`).

    Batched evaluations (slice profiles, block masses, cell-weight tables)
    call a hook once on arrays: the slice hook (``slice_sq_fn``, or
    ``cell_sq_fn`` for an anticausal kernel) with arrays in all three
    arguments, the cell hooks with arrays in the cell ends (and in the
    outer time for the K0 check).  A hook that raises ``TypeError`` or
    ``ValueError`` on arrays, or returns the wrong shape, is called point
    by point with floats instead.
    """

    label: str
    orientation: str
    horizon: float
    eval_fn: Callable
    singularity_hint: Optional[tuple] = None
    cell_fn: Optional[Callable] = None
    cell_sq_fn: Optional[Callable] = None
    cell_m1_fn: Optional[Callable] = None
    slice_sq_fn: Optional[Callable] = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.orientation not in (CAUSAL, ANTICAUSAL):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(
                f"horizon must be positive and finite, got {self.horizon}")
        self._probe()

    def _probe(self):
        # nonnegativity / finiteness spot check strictly inside the domain
        T = self.horizon
        for x in np.array([0.13, 0.41, 0.77]) * T:
            inner = x + np.array([0.11, 0.47, 0.9]) * (T - x) \
                if self.orientation == ANTICAUSAL \
                else np.array([0.11, 0.47, 0.9]) * x
            vals = np.asarray(self.eval_fn(x, inner), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise KernelEvalError(
                    f"kernel {self.label!r} is not finite at interior points")
            if np.any(vals < 0):
                raise ValueError(f"kernel {self.label!r} takes negative values")

    def __call__(self, t, s):
        return self.eval_fn(t, s)

    @property
    def lag_only(self) -> bool:
        """True when the kernel depends on the lag |t - s| alone, so its
        cell weights on a uniform grid form a Toeplitz table."""
        return "lag" in self.meta

    @property
    def diag_exponent(self) -> float:
        return self.singularity_hint[0] if self.singularity_hint else 0.0

    @property
    def edge_exponent(self) -> float:
        return self.singularity_hint[1] if self.singularity_hint else 0.0

    # -- inner-variable cell integrals (product-integration building blocks) --

    def cell(self, t: float, a: float, b: float) -> float:
        """Exact-or-adaptive integral of k(t, s) ds over the cell [a, b]."""
        if b < a:
            raise ValueError("cell requires a <= b")
        if b == a:
            return 0.0
        if self.cell_fn is not None:
            return float(self.cell_fn(t, a, b))
        return self._numeric_cell(t, a, b, power=1)

    def cell_sq(self, t: float, a: float, b: float) -> float:
        if b < a:
            raise ValueError("cell_sq requires a <= b")
        if b == a:
            return 0.0
        if self.cell_sq_fn is not None:
            return float(self.cell_sq_fn(t, a, b))
        return self._numeric_cell(t, a, b, power=2)

    def cell_m1(self, t: float, a: float, b: float) -> float:
        """First moment int_a^b s k(t, s) ds, used by collocation solvers."""
        if self.cell_m1_fn is not None:
            return float(self.cell_m1_fn(t, a, b))
        return self._numeric_cell(t, a, b, power=1, moment=1)

    def _numeric_cell(self, t, a, b, power, moment=0):
        p = power * self.diag_exponent
        e = power * self.edge_exponent
        left_exp = right_exp = 0.0
        # the diagonal sits at s = t: left end of anticausal cells, right
        # end of causal ones; the zero edge can only touch a = 0
        if self.orientation == ANTICAUSAL:
            if a <= t:
                left_exp = p
        else:
            if b >= t:
                right_exp = p
            if a == 0.0:
                left_exp = e

        def f(s):
            v = float(self.eval_fn(t, s)) ** power
            return v * s ** moment

        return _quad_power_aware(f, a, b, left_exp, right_exp)

    # -- slice integrals (fix the smaller variable, integrate the larger) --

    @property
    def _slice_hook(self) -> Optional[Callable]:
        """Closed-form slice integral: ``slice_sq_fn``, else ``cell_sq_fn``
        for an anticausal kernel, else None (slices need quadrature)."""
        if self.slice_sq_fn is not None:
            return self.slice_sq_fn
        return self.cell_sq_fn if self.orientation == ANTICAUSAL else None

    def slice_sq(self, x: float, a: float, b: float) -> float:
        """Integral of the squared slice at x over [a, b] subset of (x, T]."""
        if b < a:
            raise ValueError("slice_sq requires a <= b")
        if b == a:
            return 0.0
        hook = self._slice_hook
        if hook is not None:
            return float(hook(x, a, b))
        if self.orientation == ANTICAUSAL:
            return self._numeric_cell(x, a, b, power=2)
        p = 2.0 * self.diag_exponent
        left_exp = p if a <= x else 0.0

        def f(tau):
            return float(self.eval_fn(tau, x)) ** 2

        return _quad_power_aware(f, a, b, left_exp, 0.0)

    def slice_l2_profile(self, xs: np.ndarray, b) -> np.ndarray:
        """L2 norms of the slices at x over (x, b], one per x in xs, b
        broadcast against xs; inf where divergent."""
        xs = np.asarray(xs, dtype=float)
        v = _on_arrays(self._slice_hook, self.slice_sq, xs, xs, b)
        v = np.where(np.isfinite(v), np.maximum(v, 0.0), np.inf)
        return np.sqrt(v)


def _on_arrays(hook: Optional[Callable], point: Callable, x, a,
               b) -> np.ndarray:
    """``hook(x, a, b)`` over the broadcast arrays in one call.

    Falls back to ``point(x, a, b)`` on floats, point by point, when there
    is no hook or it raises ``TypeError``/``ValueError`` or returns the
    wrong shape.
    """
    shape = np.broadcast(x, a, b).shape
    if hook is not None:
        try:
            out = np.asarray(hook(x, a, b), dtype=float)
            if out.shape == shape:
                return out
        except (TypeError, ValueError):
            pass
    pts = zip(*(v.flat for v in np.broadcast_arrays(x, a, b)))
    return np.array([float(point(float(p), float(q), float(r)))
                     for p, q, r in pts]).reshape(shape)


def _quad_power_aware(f, a, b, left_exp=0.0, right_exp=0.0):
    """Adaptive quadrature exact for endpoint power singularities.

    The integrand is assumed to behave like (x-a)^-left_exp near a and
    (b-x)^-right_exp near b; nonintegrable exponents return inf directly.
    Negative exponents describe algebraically *vanishing* factors, which
    the weighted rule also integrates exactly.
    """
    from scipy import integrate

    if left_exp >= 1.0 or right_exp >= 1.0:
        return math.inf
    if left_exp <= -1.0 or right_exp <= -1.0:
        raise ValueError("weight exponents must exceed -1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if left_exp != 0.0 or right_exp != 0.0:
            # f times the compensating powers is smooth up to the boundary;
            # evaluate it a hair inside, at least one ulp, so the quadrature
            # never forms inf * 0 at the endpoints themselves
            guard = (b - a) * 1e-15
            lo = float(max(a + guard, np.nextafter(a, b)))
            hi = float(min(b - guard, np.nextafter(b, a)))

            def phi(x):
                x = min(max(x, lo), hi)
                return f(x) * (x - a) ** left_exp * (b - x) ** right_exp

            val, _ = integrate.quad(phi, a, b, weight="alg",
                                    wvar=(-left_exp, -right_exp), limit=200)
        else:
            val, _ = integrate.quad(f, a, b, limit=200)
    if not math.isfinite(val):
        return math.inf
    return val


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _lag_kernel(label: str, orientation: str, horizon: float, h: Callable,
                hint: tuple, meta: dict, int1: Callable = None,
                int2: Callable = None, moment1: Callable = None) -> Kernel:
    """Kernel h(lag), lag = |t - s|, with every hook taken from the lag.

    ``int1(lo, hi)``, ``int2(lo, hi)`` and ``moment1(lo, hi)`` integrate
    h, h^2 and r h(r) over lag intervals [lo, hi], vectorized, and
    ``moment1`` is read only with ``int1``.  A cell [a, b] at outer time t
    covers the lags [a - t, b - t] (anticausal) or [t - b, t - a] (causal),
    and a slice at x covers [a - x, b - x] in both orientations.  A missing
    integral leaves its hooks to quadrature.  The profile is kept in
    ``meta["lag"]`` as this builder with h, hint and the integrals bound: it
    makes the kernel :attr:`Kernel.lag_only` and lets :func:`mirror_kernel`
    rebuild it in the other orientation.
    """
    anticausal = orientation == ANTICAUSAL

    def lags(t, a, b):
        if anticausal:
            return np.asarray(a) - t, np.asarray(b) - t
        return t - np.asarray(b), t - np.asarray(a)

    def ev(t, s):
        return h(np.asarray(s) - t if anticausal else t - np.asarray(s))

    def on_cells(integral):
        if integral is None:
            return None
        return lambda t, a, b: integral(*lags(t, a, b))

    def cell_m1(t, a, b):
        # s = t + lag (anticausal) or s = t - lag (causal)
        lo, hi = lags(t, a, b)
        m0 = t * int1(lo, hi)
        return m0 + moment1(lo, hi) if anticausal else m0 - moment1(lo, hi)

    def slice_sq(x, a, b):
        x_a = np.asarray(x, dtype=float)
        return int2(np.asarray(a) - x_a, np.asarray(b) - x_a)

    profile = partial(_lag_kernel, h=h, hint=hint, int1=int1, int2=int2,
                      moment1=moment1)
    return Kernel(label, orientation, horizon, ev, hint, on_cells(int1),
                  on_cells(int2), cell_m1 if moment1 else None,
                  slice_sq if int2 else None, dict(meta, lag=profile))


def _power_kernel(label: str, orientation: str, horizon: float,
                  scale: float, q: float, meta: dict) -> Kernel:
    """Lag kernel scale * lag**q with exact power integrals."""
    def h(r):
        with np.errstate(divide="ignore"):
            return scale * np.power(r, q)

    return _lag_kernel(
        label, orientation, horizon, h, (max(-q, 0.0), 0.0),
        dict(meta, power=(scale, -q, 0.0)),
        int1=lambda lo, hi: scale * _power_integral(q, lo, hi),
        int2=lambda lo, hi: scale ** 2 * _power_integral(2.0 * q, lo, hi),
        moment1=lambda lo, hi: scale * _power_integral(q + 1.0, lo, hi))


def make_fractional(alpha: float, orientation: str = CAUSAL,
                    horizon: float = 1.0, scale: float = 1.0,
                    label: str = None) -> Kernel:
    """Power kernel scale * lag**(alpha - 1) with lag = |t - s|.

    ``alpha`` may exceed 1, in which case the kernel is bounded.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    if not (math.isfinite(scale) and scale >= 0.0):
        raise ValueError(f"scale must be nonnegative and finite, "
                         f"got {scale!r}")
    return _power_kernel(label or f"fractional(alpha={alpha})", orientation,
                         horizon, scale, alpha - 1.0,
                         {"family": "fractional", "alpha": alpha,
                          "scale": scale})


def make_doubly_singular(alpha: float, beta: float,
                         orientation: str = ANTICAUSAL,
                         horizon: float = 1.0, label: str = None) -> Kernel:
    """Kernel lag**(-alpha) * x**(-beta) with x the smaller time variable."""
    if not (0.0 <= alpha < 1.0 and 0.0 <= beta < 1.0):
        raise ValueError("alpha, beta must lie in [0, 1)")
    label = label or f"doubly_singular(alpha={alpha},beta={beta})"
    meta = {"family": "doubly_singular", "alpha": alpha, "beta": beta}
    if beta == 0.0:
        return _power_kernel(label, orientation, horizon, 1.0, -alpha, meta)
    anticausal = orientation == ANTICAUSAL

    def ev(t, s):
        s = np.asarray(s, dtype=float)
        if anticausal:
            lag, edge = s - t, t
        else:
            lag, edge = t - s, s
        with np.errstate(divide="ignore"):
            return np.power(lag, -alpha) * np.power(edge, -beta)

    def slice_sq(x, a, b):
        # same closed form in both orientations: the edge factor is frozen
        x_a = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            edge = np.power(x_a, -2.0 * beta)
        return edge * _power_integral(-2.0 * alpha, np.asarray(a) - x_a,
                                      np.asarray(b) - x_a)

    kwargs = {}
    if anticausal:
        def cell(t, a, b):
            if t == 0.0:
                return math.inf
            return t ** -beta * _power_integral(-alpha, a - t, b - t)

        kwargs = dict(cell_fn=cell, cell_sq_fn=slice_sq)
    elif max(2.0 * alpha, 2.0 * beta) < 1.0:
        # incomplete-Beta closed forms for the causal variant
        from scipy import special as sps

        def cell(t, a, b):
            base = t ** (1.0 - alpha - beta) * sps.beta(1.0 - beta, 1.0 - alpha)
            return base * (sps.betainc(1.0 - beta, 1.0 - alpha, min(b / t, 1.0))
                           - sps.betainc(1.0 - beta, 1.0 - alpha, a / t))

        def cell_sq(t, a, b):
            base = t ** (1.0 - 2 * alpha - 2 * beta) \
                * sps.beta(1.0 - 2 * beta, 1.0 - 2 * alpha)
            return base * (sps.betainc(1 - 2 * beta, 1 - 2 * alpha,
                                       min(b / t, 1.0))
                           - sps.betainc(1 - 2 * beta, 1 - 2 * alpha, a / t))

        kwargs = dict(cell_fn=cell, cell_sq_fn=cell_sq)

    return Kernel(label, orientation, horizon, ev, (alpha, beta),
                  slice_sq_fn=slice_sq,
                  meta=dict(meta, power=(1.0, alpha, beta)), **kwargs)


def make_convolution(h: Callable, horizon: float = 1.0,
                     orientation: str = CAUSAL,
                     h_antiderivative: Callable = None,
                     h_sq_antiderivative: Callable = None,
                     diag_exponent: float = 0.0,
                     label: str = None) -> Kernel:
    """Convolution kernel h(lag) with lag = |t - s|.

    ``h_antiderivative(r)`` = int_0^r h(u) du and ``h_sq_antiderivative``
    its squared counterpart, when available, give exact cell weights and
    slice integrals (including exact divergence flags at the boundary);
    the squared one must accept numpy arrays.  ``diag_exponent`` hints the
    blow-up of h at lag 0 for the numeric path.
    """
    def between(H):
        if H is None:
            return None
        return lambda lo, hi: np.asarray(H(hi)) - np.asarray(H(lo))

    return _lag_kernel(label or "convolution", orientation, horizon, h,
                       (diag_exponent, 0.0), {"family": "convolution"},
                       int1=between(h_antiderivative),
                       int2=between(h_sq_antiderivative))


def make_exp_sum(weights, rates, horizon: float = 1.0,
                 orientation: str = CAUSAL, label: str = None) -> Kernel:
    """Completely monotone representative sum_i w_i exp(-rate_i * lag)."""
    w = np.asarray(weights, dtype=float)
    lam = np.asarray(rates, dtype=float)
    if w.shape != lam.shape or w.ndim != 1:
        raise ValueError("weights and rates must be 1-d of equal length")
    for name, v in (("weights", w), ("rates", lam)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite, got {v.tolist()}")
        if np.any(v < 0):
            raise ValueError(f"a completely monotone sum needs nonnegative "
                             f"{name}, got {v.tolist()}")

    def h(lag):
        lag = np.asarray(lag, dtype=float)
        return np.einsum("i,i...->...", w,
                         np.exp(-np.multiply.outer(lam, lag)))

    def _exp_integral(c, lo, hi):
        if c == 0.0:
            return hi - lo
        return (np.exp(-c * np.asarray(lo)) - np.exp(-c * np.asarray(hi))) / c

    def int1(lo, hi):
        return sum(w[i] * _exp_integral(lam[i], lo, hi) for i in range(len(w)))

    def int2(lo, hi):
        return sum(w[i] * w[j] * _exp_integral(lam[i] + lam[j], lo, hi)
                   for i in range(len(w)) for j in range(len(w)))

    return _lag_kernel(label or "exp_sum", orientation, horizon, h,
                       (0.0, 0.0),
                       {"family": "exp_sum", "weights": list(map(float, w)),
                        "rates": list(map(float, lam))},
                       int1=int1, int2=int2)


def make_constant(value: float, horizon: float = 1.0,
                  orientation: str = CAUSAL, label: str = None) -> Kernel:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"value must be nonnegative and finite, got {value}")
    return _lag_kernel(
        label or f"constant({value})", orientation, horizon,
        lambda r: np.full_like(np.asarray(r, dtype=float), value), (0.0, 0.0),
        {"family": "constant", "value": value},
        int1=lambda lo, hi: value * (hi - lo),
        int2=lambda lo, hi: value ** 2 * (hi - lo),
        moment1=lambda lo, hi: value * (hi * hi - lo * lo) / 2.0)


def make_counterexample_sup(horizon: float = 1.0) -> Kernel:
    """Anticausal kernel sqrt(2 / (T - t)): bounded slices, no partition.

    Every slice over (t, T] has squared norm exactly 2, so the sliced
    esssup is finite while no finite partition can push local slice norms
    below sqrt(2).
    """
    T = horizon

    def ev(t, s):
        return np.full_like(np.asarray(s, dtype=float),
                            math.sqrt(2.0 / (T - t)))

    def cell(t, a, b):
        return (b - a) * math.sqrt(2.0 / (T - t))

    def cell_sq(t, a, b):
        t_a = np.asarray(t, dtype=float)
        return (np.asarray(b) - np.asarray(a)) * 2.0 / (T - t_a)

    return Kernel("counterexample_sup", ANTICAUSAL, T, ev, None,
                  cell, cell_sq, meta={"family": "counterexample_sup"})


def _fbm_c(H: float) -> float:
    return math.sqrt(2.0 * H * gamma_fn(1.5 - H)
                     / (gamma_fn(H + 0.5) * gamma_fn(2.0 - 2.0 * H)))


@lru_cache(maxsize=4096)
def _fbm_F(u: float, H: float, method: str = "product") -> float:
    """F(u) = c_H (1/2 - H) int_1^u (r-1)^(H-3/2) (1 - r^(H-1/2)) dr.

    The integrand behaves like -(H - 1/2)(r-1)^(H-1/2) near r = 1, so the
    product rule integrates the (r-1)^(H-1/2) factor exactly; the
    "substitution" method maps r = 1 + x^2 and integrates adaptively,
    serving as the independent cross-check.
    """
    from scipy import integrate

    if u < 1.0:
        raise ValueError("F is defined for u >= 1")
    if u == 1.0 or H == 0.5:
        return 0.0
    pref = _fbm_c(H) * (0.5 - H)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if method == "product":
            def phi(r):
                rm1 = r - 1.0
                if rm1 <= 0.0:
                    return H - 0.5  # continuous limit of the quotient
                return (1.0 - r ** (H - 0.5)) / rm1
            val, _ = integrate.quad(phi, 1.0, u, weight="alg",
                                    wvar=(H - 0.5, 0.0), limit=200)
        elif method == "substitution":
            def g(x):
                r = 1.0 + x * x
                return 2.0 * x ** (2.0 * H - 2.0) * (1.0 - r ** (H - 0.5))
            val, _ = integrate.quad(g, 0.0, math.sqrt(u - 1.0), limit=200)
        else:
            raise ValueError(f"unknown method {method!r}")
    return pref * val


def make_fbm_rl(H: float, horizon: float = 1.0) -> Kernel:
    """Riemann-Liouville fractional kernel lag**(H - 1/2) / Gamma(H + 1/2)."""
    if not 0.0 < H < 1.0:
        raise ValueError("H must lie in (0, 1)")
    k = make_fractional(H + 0.5, CAUSAL, horizon,
                        scale=1.0 / gamma_fn(H + 0.5),
                        label=f"fbm_rl(H={H})")
    k.meta["H"] = H
    return k


def make_fbm_full(H: float, horizon: float = 1.0) -> Kernel:
    """Full fractional-Brownian kernel c_H lag**(H-1/2) + s**(H-1/2) F(t/s)."""
    if not 0.0 < H < 1.0:
        raise ValueError("H must lie in (0, 1)")
    cH = _fbm_c(H)

    def ev(t, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s1 = np.atleast_1d(s)
        out = np.empty_like(s1)
        for i, si in enumerate(s1):
            lag = t - si
            if lag <= 0.0 or si < 0.0:
                out[i] = math.inf
                continue
            first = cH * lag ** (H - 0.5)
            if si == 0.0:
                out[i] = math.inf if H != 0.5 else 1.0
                continue
            out[i] = first + si ** (H - 0.5) * _fbm_F(t / si, H)
        return out[0] if scalar else out

    hint = (max(0.5 - H, 0.0), abs(H - 0.5))
    return Kernel(f"fbm_full(H={H})", CAUSAL, horizon, ev, hint,
                  meta={"family": "fbm_full", "H": H, "c_H": cH})


# ---------------------------------------------------------------------------
# slice norms, sup estimation, triangle norms
# ---------------------------------------------------------------------------

def _grid_rows(a: np.ndarray, b: np.ndarray, n_uniform: int,
               n_cluster: int) -> np.ndarray:
    """One row of interior points on (a_r, b_r) per interval r, clustered
    geometrically toward both ends; rows are unsorted and may repeat points.
    """
    a, b = a[:, None], b[:, None]
    w = b - a
    offs = w * 2.0 ** -np.arange(1.0, n_cluster + 1.0)
    # np.linspace(a, b, n_uniform + 2)[1:-1] row by row, without its overhead
    uniform = np.arange(1.0, n_uniform + 1.0) * (w / (n_uniform + 1)) + a
    pad = 1e-14 * np.maximum(w, 1.0)
    return np.clip(np.concatenate([a + offs, b - offs, uniform], axis=1),
                   a + pad, b - pad)


def _sup_grid(a: float, b: float, n_uniform: int, n_cluster: int) -> np.ndarray:
    """Sorted interior grid on (a, b), geometrically clustered toward both ends."""
    return np.unique(_grid_rows(np.array([a]), np.array([b]), n_uniform,
                                n_cluster))


def _sup_slice(kernel: Kernel, a, b, upper, base_uniform: int = 9,
               base_cluster: int = 9) -> np.ndarray:
    """Estimated esssup over x in (a_r, b_r) of the slice L2 norm on
    (x, upper_r].

    ``a``, ``b`` and ``upper`` broadcast to one 1-d batch of intervals, and
    one estimate is returned per interval.  Each is the max over a
    clustered grid, refined once; one Richardson step corrects profiles
    still increasing under refinement, and growth beyond the divergence
    factor flags inf.  Both grids of the whole batch and, for a kernel
    with a closed-form slice or squared-cell hook, the left endpoints are
    measured in one profile call.
    """
    a, b, upper = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b, upper)))
    hi = np.minimum(b, upper - 1e-14 * np.maximum(upper, 1.0))
    est = np.zeros(a.shape)
    live = hi > a
    if not live.all():
        if not live.any():
            return est
        a, hi, upper = a[live], hi[live], upper[live]
    cols = [_grid_rows(a, hi, base_uniform, base_cluster),
            _grid_rows(a, hi, 2 * base_uniform, base_cluster + 8)]
    edge = kernel.slice_sq_fn is not None or kernel.cell_sq_fn is not None
    if edge:
        cols.append(a[:, None])
    v = kernel.slice_l2_profile(np.concatenate(cols, axis=1), upper[:, None])
    n1 = cols[0].shape[1]
    n2 = n1 + cols[1].shape[1]
    m1, m2 = v[:, :n1].max(axis=1), v[:, n1:n2].max(axis=1)
    diverged = np.isinf(m1) | np.isinf(m2) \
        | ((m1 > 0) & (m2 > _GROWTH_FACTOR * m1))
    rise = np.subtract(m2, m1, out=np.zeros_like(m2), where=~diverged)
    sup = m2 + np.maximum(0.0, rise)
    if edge:
        left = v[:, -1]
        diverged |= np.isinf(left)
        sup = np.fmax(sup, left)
    sup[diverged] = np.inf
    est[live] = sup
    return est


def script_norm(kernel: Kernel) -> float:
    """esssup over x of the slice L2 norm up to the horizon (condition 1)."""
    return float(_sup_slice(kernel, 0.0, kernel.horizon, kernel.horizon,
                            base_uniform=15, base_cluster=14)[0])


def triangle_l2_norm(kernel: Kernel) -> float:
    """L2 norm of the kernel over its whole triangle; inf on divergence.

    A power kernel (``meta["power"]``) takes the Beta closed form
    scale^2 T^(2-2a-2b) B(1-2b, 2-2a) / (1-2a) of the squared norm, with
    B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y), taken through log-gamma
    where Gamma(x + y) overflows; every other kernel goes to
    :func:`_quadrature_triangle_l2`.
    """
    if "power" not in kernel.meta:
        return _quadrature_triangle_l2(kernel)
    scale, a, b = kernel.meta["power"]
    if 2.0 * a >= 1.0 or 2.0 * b >= 1.0:
        return math.inf
    x, y = 1.0 - 2.0 * b, 2.0 - 2.0 * a
    gamma_xy = gamma_fn(x + y)
    if math.isinf(gamma_xy):  # past 171.6; a fractional alpha above ~86
        beta_xy = math.exp(math.lgamma(x) + math.lgamma(y)
                           - math.lgamma(x + y))
    else:
        beta_xy = gamma_fn(x) * gamma_fn(y) / gamma_xy
    return scale * math.sqrt(kernel.horizon ** (2.0 - 2.0 * a - 2.0 * b)
                             * beta_xy / (1.0 - 2.0 * a))


def _quadrature_triangle_l2(kernel: Kernel) -> float:
    """Triangle L2 norm by adaptive quadrature of the slice profile;
    inf on divergence.  :func:`classify` measures every kernel this way,
    power kernels included, so its report checks their closed form."""
    T = kernel.horizon
    if 2.0 * kernel.diag_exponent >= 1.0:
        return math.inf
    if 2.0 * kernel.edge_exponent >= 1.0:
        return math.inf
    e = 2.0 * kernel.edge_exponent
    # near x = T the slice profile vanishes like (T-x)^(1-2p)
    p = kernel.diag_exponent
    vanish = -(1.0 - 2.0 * p) if p > 0.0 else 0.0
    vanish = max(vanish, -0.999)

    def f(x):
        return kernel.slice_sq(x, x, T)

    val = _quad_power_aware(f, 0.0, T, left_exp=e, right_exp=vanish)
    if not math.isfinite(val):
        # refinement trace: shrink away from the zero edge and watch growth
        trace = []
        prev = None
        for delta in (1e-3, 1e-5, 1e-7):
            v = _quad_power_aware(f, delta * T, T, 0.0, 0.0)
            trace.append((delta, v))
            if prev is not None and v > _GROWTH_FACTOR * prev:
                return math.inf
            prev = v
        if prev is None or not math.isfinite(prev):
            raise QuadratureError(
                f"triangle norm quadrature failed for {kernel.label!r}", trace)
        return math.sqrt(max(prev, 0.0))
    return math.sqrt(max(val, 0.0))


# ---------------------------------------------------------------------------
# partitions (condition 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Strictly increasing breakpoints pinned to 0 and T."""

    breakpoints: tuple

    def __post_init__(self):
        bp = self.breakpoints
        if len(bp) < 2:
            raise ValueError("a partition needs at least two breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def intervals(self):
        return list(zip(self.breakpoints, self.breakpoints[1:]))

    def __len__(self):
        return len(self.breakpoints) - 1


@dataclass(frozen=True)
class PartitionInfeasible:
    """Witness that the greedy construction could not finish.

    ``reason`` is "mathematical" when probing shows no interval placement
    can satisfy the bound, "budget" when only the breakpoint cap stopped
    the construction.
    """

    eps: float
    reason: str
    witness_t: float
    measured_sup: float


def _block_sup(kernel: Kernel, a, b, fine: bool = False) -> np.ndarray:
    base, clus = (25, 16) if fine else (9, 9)
    return _sup_slice(kernel, a, b, b, base_uniform=base, base_cluster=clus)


def find_partition(kernel: Kernel, eps: float,
                   cap: int = DEFAULT_BREAKPOINT_CAP):
    """Partition of [0, T] with local slice norms below eps (condition 2).

    A lag kernel with an h^2 integral (:attr:`Kernel.lag_only` with
    ``slice_sq_fn``) has the sliced sup sqrt(H2(b - a)) on (a, b], with
    H2(w) = int_0^w h^2 nondecreasing, so its partition is uniform: the
    root of H2(w) = eps^2, bisected geometrically and shrunk by a small
    safety margin, is the width, and nothing is probed.  Any other kernel
    is partitioned greedily: each breakpoint is the (bisected) maximal
    extension of the current interval, shrunk by the same margin, or the
    previous width when that still works within a couple of percent.
    Returns a :class:`Partition` re-verified on a finer grid, or a
    :class:`PartitionInfeasible`: "mathematical" when no interval at the
    left edge works, "budget" when over ``cap`` intervals would be needed.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    T = kernel.horizon
    breakpoints = [0.0]
    prev_width = None
    min_step = 1e-9 * T

    def feasible(a, b):
        return bool(_block_sup(kernel, a, b)[0] < eps)

    def left_edge_infeasible(a):
        # no interval starting at a works at any length: blow-up witness
        g = max(2.0 * min_step, (T - a) * 2.0 ** -12)
        xs = _sup_grid(a, a + g, 9, 9)
        vals = kernel.slice_l2_profile(xs, a + g)
        idx = int(np.argmax(vals))
        return PartitionInfeasible(eps, "mathematical", float(xs[idx]),
                                   float(vals[idx]))

    def tail_classification(a):
        # extensions exist but the construction could not close at T:
        # probe whether *any* terminal interval (u, T] satisfies the bound
        g = T - a
        while g > min_step:
            if feasible(T - g, T):
                return PartitionInfeasible(eps, "budget", a,
                                           float(_block_sup(kernel, a, T)[0]))
            g /= 2.0
        xs = _sup_grid(T - max(2 * min_step, T * 2.0 ** -20), T, 15, 12)
        vals = kernel.slice_l2_profile(xs, T)
        best = np.flatnonzero(vals >= np.max(vals) - 1e-12)
        return PartitionInfeasible(eps, "mathematical", float(xs[best[-1]]),
                                   float(np.max(vals)))

    def extend(a, width):
        # bracket a feasible extension, then bisect; None when none exists
        guess = width if width else (T - a) / 2.0
        g = min(guess, (T - a) * 0.5)
        lo = None
        while g > min_step:
            if feasible(a, a + g):
                lo = a + g
                break
            g /= 2.0
        if lo is None:
            return None
        hi = min(a + 4.0 * (lo - a), T)
        if feasible(a, hi):
            lo, hi = hi, T
        tol = max(_BREAKPOINT_REL_TOL * T, 0.5e-3 * (lo - a))
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if feasible(a, mid):
                lo = mid
            else:
                hi = mid
        return a + (1.0 - _BISECT_MARGIN) * (lo - a)

    if kernel.lag_only and kernel.slice_sq_fn is not None:
        def short(w):
            return kernel.slice_sq_fn(0.0, 0.0, w) < eps * eps

        if not short(min_step):
            return left_edge_infeasible(0.0)
        lo, hi, w = min_step, T, T
        if not short(T):
            while hi - lo > _BREAKPOINT_REL_TOL * lo:
                mid = math.sqrt(lo * hi)
                lo, hi = (mid, hi) if short(mid) else (lo, mid)
            w = (1.0 - _BISECT_MARGIN) * lo
        n = math.ceil(T / w)
        if n > cap:
            return tail_classification(cap * w)
        breakpoints = [k * w for k in range(n) if k * w < T] + [T]

    while breakpoints[-1] < T:
        a = breakpoints[-1]
        if feasible(a, T):
            breakpoints.append(T)
            break
        if len(breakpoints) > cap:
            return tail_classification(a)
        # fast path: (a, a + w] passes and (a, a + 1.02 w] fails or reaches
        # past T
        w = prev_width
        fast = w is not None and a + w < T and feasible(a, a + w) and (
            a + 1.02 * w >= T or not feasible(a, a + 1.02 * w))
        b = a + w if fast else extend(a, w)
        if b is None:
            return left_edge_infeasible(a)
        if b - a < min_step:
            return tail_classification(a)
        breakpoints.append(b)
        prev_width = b - a

    part = Partition(tuple(breakpoints))
    bad = reverify_partition(kernel, part, eps)
    if bad is not None:
        # margin was too thin for the refined grid; shrink the offender once
        i, sup = bad
        bp = list(part.breakpoints)
        if i + 1 < len(bp) - 1:
            bp[i + 1] = bp[i] + 0.9 * (bp[i + 1] - bp[i])
            part = Partition(tuple(bp))
            if reverify_partition(kernel, part, eps) is None:
                return part
        raise QuadratureError(
            f"partition re-verification failed on interval {i} "
            f"(measured sup {sup:.6g} >= eps {eps:.6g})")
    return part


def reverify_partition(kernel: Kernel, part: Partition, eps: float):
    """Remeasure the intervals' sups on a finer grid, all in one batch.

    A :attr:`Kernel.lag_only` kernel's sup on (a, b] depends on the width
    b - a alone, so only the first interval of each distinct float width
    is measured, at its own position, and its sup stands for every
    interval of that width (measured elsewhere, the grid's rounding moves
    it by about 1e-14 relative); any other kernel has every interval
    measured.

    Returns None when all pass, else the first failing interval's index
    and its measured sup.
    """
    a, b = np.array(part.intervals).T
    if kernel.lag_only:
        _, first, width_of = np.unique(b - a, return_index=True,
                                       return_inverse=True)
        sups = _block_sup(kernel, a[first], b[first], fine=True)[width_of]
    else:
        sups = _block_sup(kernel, a, b, fine=True)
    bad = np.flatnonzero(~(sups < eps))
    if bad.size == 0:
        return None
    return int(bad[0]), float(sups[bad[0]])


def grid_blocks(slice_kernel: Optional[Kernel], mass_kernel: Optional[Kernel],
                budget: float, N: int, T: float, error: type) -> list:
    """Contraction blocks ``(lo, hi)`` on the grid of N steps over [0, T].

    The budget is split evenly: the blocks start from a partition whose
    sliced sup of ``slice_kernel`` stays below sqrt(budget / 2), are halved
    until the triangle mass of ``mass_kernel``^2 stays below budget / 2,
    and are snapped down to the grid keeping at least one step each.  A
    missing kernel constrains nothing.  Raises ``error`` when the partition
    does not exist or the mass diverges on arbitrarily small blocks.
    """
    half = budget / 2.0
    if slice_kernel is not None:
        part = find_partition(slice_kernel, math.sqrt(half))
        if not isinstance(part, Partition):
            raise error(
                f"kernel {slice_kernel.label!r} admits no partition at "
                f"eps^2 = {half}: {part.reason}, witness t = "
                f"{part.witness_t:.4g}")
        breakpoints = list(part.breakpoints)
    else:
        breakpoints = [0.0, T]

    def triangle_mass(a, b):
        # triangle mass of mass_kernel^2 over the block, inf when slices
        # diverge
        if mass_kernel is None:
            return 0.0
        xs = np.linspace(a, b, 33)[:-1]
        vals = _on_arrays(mass_kernel._slice_hook, mass_kernel.slice_sq, xs,
                          xs, b)
        if not np.all(np.isfinite(vals)):
            return math.inf
        return float(np.trapezoid(vals, xs))

    refined = [0.0]
    for a, b in zip(breakpoints, breakpoints[1:]):
        stack, out = [(a, b)], []
        while stack:
            lo, hi = stack.pop()
            mass = triangle_mass(lo, hi)
            if mass > half and hi - lo > 1e-6 * T:
                mid = 0.5 * (lo + hi)
                stack.extend([(mid, hi), (lo, mid)])
            elif not math.isfinite(mass):
                raise error(
                    f"kernel {mass_kernel.label!r} has a triangle mass that "
                    f"diverges on arbitrarily small blocks; it is not square "
                    f"integrable")
            else:
                out.append((lo, hi))
        out.sort()
        refined.extend(h for _, h in out)

    dt = T / N
    idx = sorted({min(max(int(math.floor(u / dt)), 0), N) for u in refined})
    if idx[0] != 0:
        idx.insert(0, 0)
    if idx[-1] != N:
        idx.append(N)
    return [(a, b) for a, b in zip(idx, idx[1:]) if b > a]


# ---------------------------------------------------------------------------
# Zhang-type bounded-sliding-slice class
# ---------------------------------------------------------------------------

def k0_membership(kernel: Kernel):
    """Bounded L1 slices plus vanishing sliding slices (numerical check).

    Measures ``sup_t int_0^t k(t, s) ds`` on grids of 33 and 66 outer
    times and at t = T * 2**-k, k = 0..20, and the sliding quantity
    ``max_t int_t^(t+eps) k(t+eps, s) ds`` on 33 outer times for
    eps = 0.1 T * 2**-k, k = 0..7.  Membership requires the first to grow
    by at most the divergence factor 1.5 under the refinement, with every
    dyadic value finite and at most 1.5 times the refined sup, and the
    second to decay: its last value at most 1e-2 times max(1, sup), or
    decreasing with fitted log-log slope at least 0.05.

    Returns ``(member, diagnostics)``.
    """
    if kernel.orientation != CAUSAL:
        raise ValueError("the bounded-sliding-slice class is defined for "
                         "causal kernels")
    T = kernel.horizon
    eps_sequence = T * 0.1 * 2.0 ** -np.arange(0.0, 8.0)

    def max_cell(t, a, b):
        return float(np.max(_on_arrays(kernel.cell_fn, kernel.cell, t, a, b)))

    def sup_l1(n):
        ts = np.linspace(T / n, T, n)
        return max_cell(ts, 0.0, ts)

    sup1 = sup_l1(_K0_GRID)
    sup2 = sup_l1(2 * _K0_GRID)
    # dyadic outer times toward 0 catch a slice diverging there too slowly
    # for the two grids to tell (nan fails the comparison)
    ts = T * 2.0 ** -np.arange(0.0, 21.0)
    dyadic = float(np.max(_on_arrays(kernel.cell_fn, kernel.cell, ts, 0.0,
                                     ts)))
    bounded = math.isfinite(sup2) and dyadic <= _GROWTH_FACTOR * sup2 \
        and (sup1 == 0.0 or sup2 <= _GROWTH_FACTOR * sup1)

    eps_max = float(np.max(eps_sequence))
    ts = np.linspace(T / _K0_GRID, T - eps_max, _K0_GRID)
    sliding = np.array([max_cell(ts + eps, ts, ts + eps)
                        for eps in eps_sequence])

    if sliding[-1] <= _K0_TOL * max(1.0, sup2):
        vanishes = True
        slope = math.inf
    else:
        decreasing = bool(np.all(np.diff(sliding) <= 1e-12))
        pos = sliding > 0
        if np.count_nonzero(pos) >= 3:
            slope = float(np.polyfit(np.log(np.asarray(eps_sequence)[pos]),
                                     np.log(sliding[pos]), 1)[0])
        else:
            slope = math.inf
        vanishes = decreasing and slope >= _K0_MIN_SLOPE

    member = bounded and vanishes
    diagnostics = {
        "sup_l1_slice": sup2,
        "sup_l1_slice_coarse": sup1,
        "sup_l1_slice_dyadic": dyadic,
        "sliding_eps": [float(e) for e in eps_sequence],
        "sliding_values": [float(v) for v in sliding],
        "decay_slope": slope if math.isfinite(slope) else None,
        "bounded": bounded,
        "vanishes": vanishes,
    }
    return member, diagnostics


# ---------------------------------------------------------------------------
# classification report
# ---------------------------------------------------------------------------

@dataclass
class KernelClassReport:
    label: str
    l2_triangle_norm: float
    script_norm: float
    partition_results: dict
    in_L2: bool
    in_scriptL2: bool
    in_K0: bool
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        # class inclusion on a finite horizon
        if self.in_scriptL2 and not self.in_L2:
            raise ValueError("inconsistent report: partitionable-slice "
                             "membership implies square integrability")

    def to_dict(self) -> dict:
        def enc_norm(v):
            return v if math.isfinite(v) else "inf"

        parts = {}
        for eps, res in self.partition_results.items():
            if isinstance(res, Partition):
                parts[repr(float(eps))] = {
                    "feasible": True,
                    "breakpoints": [float(b) for b in res.breakpoints],
                }
            else:
                parts[repr(float(eps))] = {
                    "feasible": False,
                    "reason": res.reason,
                    "witness_t": res.witness_t,
                    "measured_sup": enc_norm(res.measured_sup),
                }
        return {
            "label": self.label,
            "l2_triangle_norm": enc_norm(self.l2_triangle_norm),
            "script_norm": enc_norm(self.script_norm),
            "partition_results": parts,
            "in_L2": self.in_L2,
            "in_scriptL2": self.in_scriptL2,
            "in_K0": self.in_K0,
            "diagnostics": self.diagnostics,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)


def mirror_kernel(kernel: Kernel) -> Kernel:
    """Swap the time arguments, flipping the domain orientation."""
    other = CAUSAL if kernel.orientation == ANTICAUSAL else ANTICAUSAL
    T = kernel.horizon
    label = kernel.label + "|mirrored"
    if kernel.lag_only:
        return kernel.meta["lag"](label, other, T, meta=kernel.meta)
    if kernel.meta.get("family") == "doubly_singular":
        return make_doubly_singular(kernel.meta["alpha"],
                                    kernel.meta["beta"], other, T,
                                    label=label)

    def ev(t, s):
        s_arr = np.asarray(s, dtype=float)
        flat = np.asarray([kernel.eval_fn(float(si), t)
                           for si in np.atleast_1d(s_arr)], dtype=float)
        return flat.reshape(s_arr.shape) if s_arr.ndim else flat[0]

    return Kernel(label, other, T, ev, kernel.singularity_hint,
                  meta={"family": "mirrored"})


def classify(kernel: Kernel, eps_grid=DEFAULT_EPS_GRID,
             cap: int = DEFAULT_BREAKPOINT_CAP) -> KernelClassReport:
    """Measure both norms, build partitions for every eps, test all classes.

    Membership verdicts are relative to the grids, the eps grid and the
    breakpoint cap used; they are recorded in the diagnostics.
    """
    eps_grid = tuple(eps_grid)
    if not eps_grid:
        raise ValueError("eps_grid must be nonempty")
    l2 = _quadrature_triangle_l2(kernel)
    sup = script_norm(kernel)
    partitions = {}
    for eps in eps_grid:
        partitions[float(eps)] = find_partition(kernel, float(eps), cap=cap)
    feasible_all = all(isinstance(p, Partition) for p in partitions.values())
    in_script = math.isfinite(sup) and feasible_all
    in_l2 = math.isfinite(l2) or in_script

    causal_kernel = kernel if kernel.orientation == CAUSAL \
        else mirror_kernel(kernel)
    try:
        in_k0, k0_diag = k0_membership(causal_kernel)
    except (QuadratureError, KernelEvalError) as exc:
        in_k0, k0_diag = False, {"error": str(exc)}

    diagnostics = {
        "eps_grid": [float(e) for e in eps_grid],
        "breakpoint_cap": cap,
        "k0": k0_diag,
        "k0_on_mirror": kernel.orientation != CAUSAL,
        "note": "finite eps grid only; memberships are grid-relative "
                "measurements, not certificates",
    }
    return KernelClassReport(kernel.label, l2, sup, partitions,
                             in_l2, in_script, in_k0, diagnostics)


# ---------------------------------------------------------------------------
# product-integration weights
# ---------------------------------------------------------------------------

def _cell_table(kernel: Kernel, times, lower: bool,
                square: bool = False) -> np.ndarray:
    """(N+1, N) table of cell weights w[i, j] = cell(t_i, t_j, t_{j+1}),
    or of ``cell_sq`` when ``square``.

    ``lower`` fills the strictly lower triangle j < i (forward drift),
    otherwise the upper triangle with its diagonal j >= i (backward
    terms); the other triangle is zero.  ``times`` is the uniform grid
    t_0 < ... < t_N.  For a lag kernel w[i, j] = c[i - j], so one hook
    call on the row holding every lag (row N for the lower triangle, row 0
    for the upper) fills a zero-padded buffer of length 2N, and the table
    is a read-only strided view of it: O(N) work and bytes.  Any other
    kernel is evaluated row by row, O(N^2).
    """
    t = np.asarray(times, dtype=float)
    N = len(t) - 1
    hook, point = (kernel.cell_sq_fn, kernel.cell_sq) if square \
        else (kernel.cell_fn, kernel.cell)
    if kernel.lag_only:
        row = _on_arrays(hook, point, t[N] if lower else t[0], t[:-1], t[1:])
        # buf[N - 1 + i - j] = w[i, j]: lags i - j = 1..N come from row N's
        # cells j = N - 1..0, lags j - i = 0..N-1 from row 0's cells j
        buf = np.zeros(2 * N)
        start = N if lower else 0
        buf[start:start + N] = row[::-1]
        return np.lib.stride_tricks.sliding_window_view(buf, N)[:, ::-1]
    w = np.zeros((N + 1, N))
    for i in range(N + 1):
        lo, hi = (0, i) if lower else (i, N)
        if hi > lo:
            w[i, lo:hi] = _on_arrays(hook, point, t[i], t[lo:hi],
                                     t[lo + 1:hi + 1])
    return w


def _history_sum(kernel: Kernel, w: np.ndarray, F: np.ndarray) -> np.ndarray:
    """H[i] = sum_{j<i} w[i, j] F[j] for the lower table ``w`` of ``kernel``.

    ``w`` is ``_cell_table(kernel, times, lower=True)``, shape (N+1, N), and
    ``F`` has shape (N+1, d); its last row enters no sum.  For a lag kernel
    w[i, j] = c[i - j] with c = w[:, 0] and c[0] = 0, so H is the causal
    convolution c * F, taken with one real FFT of length >= 2N: O(N log N)
    work and O(N) bytes, with a summation order of its own.  Any other
    kernel's table is dense already, and H = w @ F.
    """
    N = w.shape[1]
    if not kernel.lag_only:
        return w @ F[:N]
    n = 1 << (2 * N - 1).bit_length()
    c_hat = np.fft.rfft(w[:, 0], n)[:, None]
    return np.fft.irfft(c_hat * np.fft.rfft(F[:N], n, axis=0), n,
                        axis=0)[:N + 1]


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _shifted_inverse_sqrt(T: float) -> Kernel:
    """Anticausal convolution (T - lag)**(-1/2): partitionable, esssup infinite."""
    def h(lag):
        lag = np.asarray(lag, dtype=float)
        with np.errstate(divide="ignore"):
            return np.power(T - lag, -0.5)

    def h2_anti(r):
        # int_0^r (T - u)^-1 du
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(r >= T, np.inf, np.log(T / (T - r)))

    return make_convolution(h, T, ANTICAUSAL, h_sq_antiderivative=h2_anti,
                            label="shifted_inverse_sqrt")


_KERNEL_BUILDERS = {
    "fractional": lambda p: make_fractional(
        p["alpha"], p.get("orientation", CAUSAL), p.get("T", 1.0),
        p.get("scale", 1.0)),
    "doubly_singular": lambda p: make_doubly_singular(
        p["alpha"], p["beta"], p.get("orientation", ANTICAUSAL),
        p.get("T", 1.0)),
    "constant": lambda p: make_constant(
        p.get("value", 1.0), p.get("T", 1.0), p.get("orientation", CAUSAL)),
    "counterexample_sup": lambda p: make_counterexample_sup(p.get("T", 1.0)),
    "fbm_rl": lambda p: make_fbm_rl(p["H"], p.get("T", 1.0)),
    "fbm_full": lambda p: make_fbm_full(p["H"], p.get("T", 1.0)),
    "exp_sum": lambda p: make_exp_sum(
        p["weights"], p["rates"], p.get("T", 1.0),
        p.get("orientation", CAUSAL)),
    "shifted_inverse_sqrt": lambda p: _shifted_inverse_sqrt(p.get("T", 1.0)),
}


def kernel_from_config(spec: dict) -> Kernel:
    """Build a kernel from a {"name": ..., parameters...} mapping."""
    if "name" not in spec:
        raise ValueError("kernel spec needs a 'name' field")
    name = spec["name"]
    if name not in _KERNEL_BUILDERS:
        raise ValueError(f"unknown kernel name {name!r}; known: "
                         f"{sorted(_KERNEL_BUILDERS)}")
    return _KERNEL_BUILDERS[name](spec)
