"""Maximum-principle toolkit for controlled forward Volterra systems.

State, variational, and adjoint solves on the scenario tree, wired so the
discrete adjoint is the literal transpose of the discrete variational
operator: the duality pairing

    E sum_t dt <forcing(t), Y(t)>  =  E sum_t dt <X1(t), cost_x(t)>

then holds to machine precision, turning the first-order optimality
machinery (directional derivatives, stationarity margins, projected
gradient search) into exactly checkable identities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .backward import MSolution, _linear_adjoint, solve_bsvie
from .forward import _linear_rows, _volterra_row
from .kernels import Kernel
from .lattice import AdaptedProcess, TerminalField, Tree, constant_process


# ---------------------------------------------------------------------------
# convex control regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxControlSet:
    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("bound dimensions differ")
        if any(l >= u for l, u in zip(self.lower, self.upper)):
            raise ValueError("need lower < upper componentwise")

    @property
    def dim(self):
        return len(self.lower)

    def project(self, u: np.ndarray) -> np.ndarray:
        return np.clip(u, np.asarray(self.lower), np.asarray(self.upper))

    def extreme_points(self) -> np.ndarray:
        lo, hi = np.asarray(self.lower), np.asarray(self.upper)
        corners = []
        for mask in range(1 << self.dim):
            corners.append([hi[k] if (mask >> k) & 1 else lo[k]
                            for k in range(self.dim)])
        return np.asarray(corners, dtype=float)

    def sample_interior(self, rng, count: int) -> np.ndarray:
        lo, hi = np.asarray(self.lower), np.asarray(self.upper)
        return lo + (hi - lo) * rng.uniform(size=(count, self.dim))


@dataclass(frozen=True)
class BallControlSet:
    center: tuple
    radius: float

    @property
    def dim(self):
        return len(self.center)

    def project(self, u: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)
        delta = u - c
        norm = np.linalg.norm(delta, axis=-1, keepdims=True)
        scale = np.minimum(1.0, self.radius / np.maximum(norm, 1e-300))
        return c + delta * scale

    def extreme_points(self) -> np.ndarray:
        c = np.asarray(self.center)
        pts = []
        for k in range(self.dim):
            for sign in (-1.0, 1.0):
                e = np.zeros(self.dim)
                e[k] = sign * self.radius
                pts.append(c + e)
        return np.asarray(pts)

    def sample_interior(self, rng, count: int) -> np.ndarray:
        raw = rng.normal(size=(count, self.dim))
        raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-12)
        radii = self.radius * rng.uniform(size=(count, 1)) ** (1.0 / self.dim)
        return np.asarray(self.center) + raw * radii


# ---------------------------------------------------------------------------
# problem data
# ---------------------------------------------------------------------------

def _fd_probe(fn, dfn, args, slot, step=1e-5, rtol=1e-4):
    """Central-difference consistency check of one derivative map, whose
    last axis differentiates along the last axis of ``args[slot]``."""
    base = list(args)
    x = np.asarray(base[slot], dtype=float)
    analytic = np.asarray(dfn(*base), dtype=float)
    for comp in range(x.shape[-1]):
        bump = np.zeros_like(x)
        bump[..., comp] = step
        base[slot] = x + bump
        up = np.asarray(fn(*base), dtype=float)
        base[slot] = x - bump
        dn = np.asarray(fn(*base), dtype=float)
        base[slot] = x
        fd = (up - dn) / (2.0 * step)
        ana = analytic[..., comp]
        scale = max(float(np.max(np.abs(ana))), 1.0)
        if float(np.max(np.abs(fd - ana))) > rtol * scale:
            return False
    return True


@dataclass
class ControlProblem:
    """Coefficients of the controlled Volterra state equation plus cost.

    All maps act on node arrays: ``b(t, s, x, u) -> (n, d)``,
    ``sigma -> (n, d, m)``, derivatives append the differentiation axis
    (``b_x -> (n, d, d)``, ``b_u -> (n, d, du)``, ``sigma_x ->
    (n, d, m, d)``, ``sigma_u -> (n, d, m, du)``); the running cost is
    scalar with gradients ``g_x -> (n, d)``, ``g_u -> (n, du)``.
    Derivative maps are finite-difference checked at construction.
    """

    horizon: float
    phi: Callable
    b: Callable
    sigma: Callable
    b_x: Callable
    b_u: Callable
    sigma_x: Callable
    sigma_u: Callable
    g: Callable
    g_x: Callable
    g_u: Callable
    control_set: object
    d: int = 1
    m: int = 1
    K1: Optional[Kernel] = None
    K2: Optional[Kernel] = None
    label: str = ""

    @property
    def du(self):
        return self.control_set.dim

    def __post_init__(self):
        rng = np.random.default_rng(12345)
        T = self.horizon
        for _ in range(3):
            s = rng.uniform(0.1, 0.8) * T
            t = rng.uniform(s + 0.05 * T, T)
            x = rng.normal(size=(1, self.d))
            u = np.atleast_2d(self.control_set.project(
                rng.normal(size=self.du)))
            checks = [
                (self.b, self.b_x, (t, s, x, u), 2),
                (self.b, self.b_u, (t, s, x, u), 3),
                (self.sigma, self.sigma_x, (t, s, x, u), 2),
                (self.sigma, self.sigma_u, (t, s, x, u), 3),
                (self.g, self.g_x, (t, x, u), 1),
                (self.g, self.g_u, (t, x, u), 2),
            ]
            for row in checks:
                if not _fd_probe(*row):
                    raise ValueError(
                        "a declared derivative map fails the finite-"
                        "difference consistency probe")


def constant_control(tree: Tree, value) -> AdaptedProcess:
    return constant_process(tree, lambda _t: value)


# ---------------------------------------------------------------------------
# state / cost / variational solves
# ---------------------------------------------------------------------------

def solve_state(cp: ControlProblem, u: AdaptedProcess,
                tree: Tree) -> AdaptedProcess:
    """Forward recursion of the controlled state equation (left-point
    quadrature, one dt weight per cell)."""
    t = tree.times
    X = []
    for i in range(tree.N + 1):
        def cell(j):
            return (tree.dt * np.asarray(cp.b(t[i], t[j], X[j], u[j]),
                                         dtype=float),
                    np.asarray(cp.sigma(t[i], t[j], X[j], u[j]),
                               dtype=float))

        X.append(_volterra_row(
            tree, i, np.asarray(cp.phi(t[i]), dtype=float).reshape(1, -1),
            cell))
    return AdaptedProcess(tree, X)


def cost(cp: ControlProblem, u: AdaptedProcess, tree: Tree,
         state: AdaptedProcess = None) -> float:
    """Expected running cost, left rule over the time cells."""
    X = state if state is not None else solve_state(cp, u, tree)
    total = 0.0
    for i in range(tree.N):
        vals = np.asarray(cp.g(tree.times[i], X[i], u[i]), dtype=float)
        total += tree.dt * float(tree.expectation(vals.reshape(-1)))
    return total


def _coefficient(deriv: Callable, X: AdaptedProcess, u: AdaptedProcess,
                 tree: Tree) -> Callable:
    """Cell coefficient (a, b) -> deriv(t_a, t_b, X(t_b), u(t_b)), frozen at
    the inner depth b; the variational rows and the adjoint read the same
    maps, one with (a, b) = (i, j), the other with (j, r)."""
    t = tree.times
    return lambda a, b: np.asarray(deriv(t[a], t[b], X[b], u[b]), dtype=float)


def _bumps(cp: ControlProblem, X: AdaptedProcess, u_bar: AdaptedProcess,
           v: AdaptedProcess, tree: Tree) -> Callable:
    """Forcing of cell (i, j): b_u (v - u_bar) and sigma_u (v - u_bar), with
    v - u_bar formed per cell, so no depth's difference outlives its cell."""
    b_u = _coefficient(cp.b_u, X, u_bar, tree)
    sigma_u = _coefficient(cp.sigma_u, X, u_bar, tree)

    def forcing(i, j):
        du = v[j] - u_bar[j]
        return (np.einsum("nau,nu->na", b_u(i, j), du),
                np.einsum("namu,nu->nam", sigma_u(i, j), du))

    return forcing


def solve_variational(cp: ControlProblem, u_bar: AdaptedProcess,
                      v: AdaptedProcess, tree: Tree,
                      state: AdaptedProcess = None) -> AdaptedProcess:
    """Directional state derivative along v - u_bar (linearized recursion)."""
    X = state if state is not None else solve_state(cp, u_bar, tree)
    return _linear_rows(tree, cp.d, _coefficient(cp.b_x, X, u_bar, tree),
                        _coefficient(cp.sigma_x, X, u_bar, tree),
                        _bumps(cp, X, u_bar, v, tree))


def variational_forcing(cp: ControlProblem, u_bar: AdaptedProcess,
                        v: AdaptedProcess, tree: Tree,
                        state: AdaptedProcess = None) -> AdaptedProcess:
    """The inhomogeneous part of the variational equation (control bumps)."""
    X = state if state is not None else solve_state(cp, u_bar, tree)
    return _linear_rows(tree, cp.d, None, None, _bumps(cp, X, u_bar, v, tree))


# ---------------------------------------------------------------------------
# adjoint and duality
# ---------------------------------------------------------------------------

def solve_adjoint(cp: ControlProblem, x_bar: AdaptedProcess,
                  u_bar: AdaptedProcess, tree: Tree,
                  tol: float = 1e-14) -> MSolution:
    """Adjoint backward Volterra equation with exact-transpose weights.

    Generator b_x(s, t)^T Y(s) + sigma_x(s, t)^T Z(s, t) with coefficients
    frozen at the outer time's state, built by ``backward._linear_adjoint``:
    the weight table excludes the diagonal cell because the discrete
    variational operator has no diagonal entry (so ``solve_bsvie`` takes
    one backward pass), and the diffusion weight matches the dt produced
    by squaring tree increments.  Every field stays at the depth where it
    is measurable: the free term g_x(t_r) at depth r, and the coefficients
    of cell (j, r) on the depth-r state and control, contracted there.
    The returned Z holds the below-diagonal integrands Z(t_j, t_r), j > r,
    the only ones the maximum principle reads (``mp_gradient``); the
    entries on and above the diagonal are released (None) once each row's
    residuals are checked.
    """
    N, t = tree.N, tree.times
    psi = TerminalField(
        tree, [np.asarray(cp.g_x(t[r], x_bar[r], u_bar[r]), dtype=float)
               for r in range(N + 1)], depths=list(range(N + 1)))
    problem = _linear_adjoint(psi, _coefficient(cp.b_x, x_bar, u_bar, tree),
                              _coefficient(cp.sigma_x, x_bar, u_bar, tree),
                              "adjoint")
    return solve_bsvie(problem, tree, tol=tol, keep_above=False)


def duality_gap(cp: ControlProblem, u_bar: AdaptedProcess,
                v: AdaptedProcess, tree: Tree, state: AdaptedProcess = None,
                adjoint: MSolution = None) -> float:
    """|E sum dt <forcing, Y> - E sum dt <X1, g_x>| for the pair of
    variational and adjoint solves (zero to machine precision under the
    transposed discretization); ``state`` and ``adjoint``, when given, are
    the state and adjoint solves at u_bar.

    The gap reads only the adjoint's Y, so the adjoint is solved first and
    only Y is kept: its Z table is released before X1 and the forcing are
    built, and those are not held during the adjoint solve.
    """
    X = state if state is not None else solve_state(cp, u_bar, tree)
    Y = (adjoint if adjoint is not None
         else solve_adjoint(cp, X, u_bar, tree)).Y
    X1 = solve_variational(cp, u_bar, v, tree, state=X)
    forcing = variational_forcing(cp, u_bar, v, tree, state=X)
    t = tree.times
    lhs = rhs = 0.0
    for i in range(tree.N):
        lhs += tree.dt * float(tree.expectation(
            (forcing[i] * Y[i]).sum(axis=1)))
        gx = np.asarray(cp.g_x(t[i], X[i], u_bar[i]), dtype=float)
        rhs += tree.dt * float(tree.expectation((X1[i] * gx).sum(axis=1)))
    return abs(lhs - rhs)


def mp_gradient(cp: ControlProblem, u_bar: AdaptedProcess, tree: Tree,
                state: AdaptedProcess = None,
                adjoint: MSolution = None) -> AdaptedProcess:
    """The variational-inequality gradient process.

    grad(t) = g_u(t) + E[ sum_{s > t} dt ( b_u(s,t)^T Y(s)
                                          + sigma_u(s,t)^T Z(s,t) ) | F_t ].
    """
    X = state if state is not None else solve_state(cp, u_bar, tree)
    adj = adjoint if adjoint is not None else solve_adjoint(cp, X, u_bar,
                                                            tree)
    t, dt = tree.times, tree.dt
    b_u = _coefficient(cp.b_u, X, u_bar, tree)
    sigma_u = _coefficient(cp.sigma_u, X, u_bar, tree)
    grads = []
    for r in range(tree.N):
        gu = np.asarray(cp.g_u(t[r], X[r], u_bar[r]), dtype=float)
        acc = gu.copy()
        for j in range(r + 1, tree.N):
            ce_y = tree.conditional_expectation(adj.Y[j], j, r)
            acc += dt * np.einsum("nau,na->nu", b_u(j, r), ce_y)
            acc += dt * np.einsum("namu,nam->nu", sigma_u(j, r),
                                  adj.Z.entry(j, r))
        grads.append(acc)
    grads.append(np.zeros((tree.node_count(tree.N), cp.du)))
    return AdaptedProcess(tree, grads)


def pair_with_direction(tree: Tree, grad: AdaptedProcess,
                        u: AdaptedProcess, u_bar: AdaptedProcess) -> float:
    """E sum_t dt <grad(t), u(t) - u_bar(t)>."""
    total = 0.0
    for i in range(tree.N):
        total += tree.dt * float(tree.expectation(
            (grad[i] * (u[i] - u_bar[i])).sum(axis=1)))
    return total


def _stationarity_margin(tree: Tree, grad: AdaptedProcess,
                         u_bar: AdaptedProcess, control_set,
                         probe_count: int, seed: int) -> float:
    """Min of :func:`pair_with_direction` over constant probe controls: all
    extreme points of the control region plus ``probe_count`` interior
    points drawn with ``seed``; a nonnegative minimum certifies discrete
    first-order optimality at u_bar."""
    rng = np.random.default_rng(seed)
    probes = list(control_set.extreme_points())
    probes.extend(control_set.sample_interior(rng, probe_count))
    return min(pair_with_direction(tree, grad, constant_control(tree, point),
                                   u_bar) for point in probes)


def check_stationarity(cp: ControlProblem, u_bar: AdaptedProcess,
                       tree: Tree, probe_count: int = 16,
                       seed: int = 0) -> float:
    """Stationarity margin of the variational-inequality gradient."""
    return _stationarity_margin(tree, mp_gradient(cp, u_bar, tree), u_bar,
                                cp.control_set, probe_count, seed)


def fd_cost_derivative(cp: ControlProblem, u_bar: AdaptedProcess,
                       v: AdaptedProcess, tree: Tree,
                       eps_list=(1e-2, 1e-3, 1e-4)) -> dict:
    """Finite-difference directional derivatives against the analytic
    pairing; the error column decays linearly in eps for smooth costs."""
    grad = mp_gradient(cp, u_bar, tree)
    analytic = pair_with_direction(tree, grad, v, u_bar)
    J0 = cost(cp, u_bar, tree)
    fd, errors = [], []
    for eps in eps_list:
        u_eps = AdaptedProcess(tree, [u_bar[i] + eps * (v[i] - u_bar[i])
                                      for i in range(tree.N + 1)])
        slope = (cost(cp, u_eps, tree) - J0) / eps
        fd.append(slope)
        errors.append(abs(slope - analytic))
    return {"eps": list(eps_list), "fd": fd, "analytic": analytic,
            "errors": errors}


def _descend(step: Callable, control_set, u0: AdaptedProcess, tree: Tree,
             steps: int, rate: float) -> tuple:
    """Projected gradient descent u <- project(u - rate * grad), where
    ``step(u)`` returns (gradient process, cost) at u; stops early once the
    gradient's dt-weighted L2 norm falls below 1e-12.  Returns (control,
    trace)."""
    u = AdaptedProcess(tree, [u0[i].copy() for i in range(tree.N + 1)])
    trace = {"cost": [], "grad_norm": []}
    for _ in range(steps):
        grad, value = step(u)
        gnorm = math.sqrt(grad.l2_norm_sq())
        trace["cost"].append(value)
        trace["grad_norm"].append(gnorm)
        u = AdaptedProcess(tree, [
            np.asarray(control_set.project(u[i] - rate * grad[i]),
                       dtype=float) for i in range(tree.N + 1)])
        if gnorm < 1e-12:
            break
    return u, trace


def projected_gradient_search(cp: ControlProblem, u0: AdaptedProcess,
                              tree: Tree, steps: int = 200,
                              rate: float = 0.5) -> tuple:
    """Plain projected gradient descent; returns (control, trace)."""
    def step(u):
        X = solve_state(cp, u, tree)
        return mp_gradient(cp, u, tree, state=X), cost(cp, u, tree, state=X)

    return _descend(step, cp.control_set, u0, tree, steps, rate)
