"""Forward stochastic Volterra equation solvers.

Solves X(t) = phi(t) + int_0^t A(t,s,X(s)) ds + int_0^t B(t,s,X(s)) dW(s)
on the scenario tree (explicit recursion or blockwise Picard iteration
mirroring the contraction construction) and by path Monte Carlo, with
product-integration weights so singular drift kernels are integrated
exactly over cells touching the diagonal.

Every forward recursion on the tree, here and in ``control`` and ``delay``,
computes its rows with ``_volterra_row``, the linear variational ones
through ``_linear_rows``; the Picard blocks come from
:func:`kernels.grid_blocks` and stop by ``backward._sweep_to_tolerance``,
as the block BSVIE method's do.  Every cell's
drift and diffusion, on the tree, the paths and in ``stability_gap``, come
from one cell map, ``_cell_map``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .backward import (BlockPartitionError, DivergenceError,
                       _sweep_to_tolerance)
from .kernels import (CAUSAL, Kernel, _cell_table, _history_sum, _on_arrays,
                      grid_blocks)
from .lattice import AdaptedProcess, Tree, _mean_square


class PartitionInfeasibleError(BlockPartitionError):
    """The contraction partition required by the Picard solver does not exist."""


class ContractionError(DivergenceError):
    """Measured Picard iteration failed to contract on ``block``."""


class LipschitzWarning(UserWarning):
    pass


@dataclass
class SVIEProblem:
    """Coefficients of a forward Volterra equation.

    The free term is a deterministic function ``t -> (d,)`` or an
    :class:`AdaptedProcess`.  Drift and diffusion are given either as raw
    maps ``A(t, s, x)`` / ``B(t, s, x)`` acting on node arrays, or in
    separable form ``kernel(t, s) * factor(s, x)`` which unlocks exact
    kernel cell weights (mandatory when the kernel blows up on the
    diagonal: point evaluation there is undefined).
    """

    horizon: float
    phi: Union[Callable, AdaptedProcess]
    d: int = 1
    m: int = 1
    drift: Optional[Callable] = None
    diffusion: Optional[Callable] = None
    drift_kernel: Optional[Kernel] = None
    drift_factor: Optional[Callable] = None
    diffusion_kernel: Optional[Kernel] = None
    diffusion_factor: Optional[Callable] = None
    lipschitz_K1: Optional[Kernel] = None
    lipschitz_K2: Optional[Kernel] = None
    l2_matched_diffusion: bool = False
    label: str = ""

    def __post_init__(self):
        if (self.drift_kernel is None) != (self.drift_factor is None):
            raise ValueError("separable drift needs kernel and factor")
        if (self.diffusion_kernel is None) != (self.diffusion_factor is None):
            raise ValueError("separable diffusion needs kernel and factor")
        if self.drift is not None and self.drift_kernel is not None:
            raise ValueError("give the drift either raw or separable")
        if self.diffusion is not None and self.diffusion_kernel is not None:
            raise ValueError("give the diffusion either raw or separable")
        self._probe_zero_coefficients()
        self._probe_lipschitz()

    # -- coefficient access ------------------------------------------------

    @property
    def has_diffusion(self):
        return self.diffusion is not None or self.diffusion_kernel is not None

    def free_term(self, tree: Tree, i: int) -> np.ndarray:
        """phi(t_i) where it is measurable: the depth-i field of an adapted
        phi, else one row."""
        if isinstance(self.phi, AdaptedProcess):
            return self.phi[i]
        return np.asarray(self.phi(tree.times[i]), dtype=float).reshape(1, -1)

    def phi_field(self, tree: Tree, i: int) -> np.ndarray:
        v = self.free_term(tree, i)
        return np.tile(v, (tree.node_count(i) // len(v), 1))

    def _probe_zero_coefficients(self):
        # values at x = 0 must be finite strictly inside the domain
        T = self.horizon
        zero = np.zeros((1, self.d))
        for (t, s) in [(0.9 * T, 0.3 * T), (0.5 * T, 0.1 * T)]:
            vals = []
            if self.drift is not None:
                vals.append(self.drift(t, s, zero))
            if self.drift_factor is not None:
                vals.append(self.drift_factor(s, zero))
            if self.diffusion is not None:
                vals.append(self.diffusion(t, s, zero))
            if self.diffusion_factor is not None:
                vals.append(self.diffusion_factor(s, zero))
            for v in vals:
                if not np.all(np.isfinite(np.asarray(v, dtype=float))):
                    raise ValueError(
                        f"coefficient not finite at x=0, (t,s)=({t},{s})")

    def _probe_lipschitz(self, n_probes: int = 8, seed: int = 0):
        # soft check: declared kernels should dominate difference quotients
        rng = np.random.default_rng(seed)
        T = self.horizon
        checks = []
        if self.lipschitz_K1 is not None and self.drift is not None:
            checks.append((self.drift, self.lipschitz_K1, "drift"))
        if self.lipschitz_K2 is not None and self.diffusion is not None:
            checks.append((self.diffusion, self.lipschitz_K2, "diffusion"))
        for fn, kern, name in checks:
            for _ in range(n_probes):
                s = rng.uniform(0.05, 0.85) * T
                t = rng.uniform(s + 0.05 * T, T)
                x = rng.normal(size=(1, self.d))
                y = rng.normal(size=(1, self.d))
                dx = np.linalg.norm(x - y)
                if dx < 1e-12:
                    continue
                quot = np.linalg.norm(
                    np.asarray(fn(t, s, x)) - np.asarray(fn(t, s, y))) / dx
                bound = float(kern(t, np.array(s)))
                if quot > bound * (1.0 + 1e-6) + 1e-12:
                    warnings.warn(
                        f"{name} difference quotient {quot:.4g} exceeds the "
                        f"declared Lipschitz kernel value {bound:.4g} at "
                        f"(t,s)=({t:.3g},{s:.3g})", LipschitzWarning)
                    break


@dataclass
class SVIESolution:
    X: AdaptedProcess
    diagnostics: dict = field(default_factory=dict)


def _drift_weights(problem: SVIEProblem, tree: Tree) -> np.ndarray:
    """Cell weights w[i, j] = integral of the drift kernel over cell j at t_i."""
    return _cell_table(problem.drift_kernel, tree.times, lower=True)


def _cell_tables(problem: SVIEProblem, times: np.ndarray) -> tuple:
    """The cell tables of one solve on the uniform grid ``times``: drift
    weights w[i, j] = cell(t_i, t_j, t_{j+1}) and diffusion coefficients
    c[i, j], the left-point kernel value k(t_i, t_j) or, for an L2-matched
    diffusion, sqrt(cell_sq / dt); each is None when the problem has no
    such kernel."""
    kd, ks = problem.drift_kernel, problem.diffusion_kernel
    w = _cell_table(kd, times, lower=True) if kd is not None else None
    c = None
    if ks is not None and problem.l2_matched_diffusion:
        c = np.sqrt(_cell_table(ks, times, lower=True, square=True)
                    / (times[1] - times[0]))
    elif ks is not None:
        c = np.zeros((len(times), len(times) - 1))
        for i in range(1, len(times)):
            c[i, :i] = ks(times[i], times[:i])
    return w, c


def _cell_map(problem: SVIEProblem, times: np.ndarray) -> Callable:
    """The forward cell rule on the uniform grid ``times``, read from its
    ``_cell_tables``: ``cell(i, j, x, factors)`` returns (drift, z) of cell j
    in row i for x = X(t_j) at any leading shape.  The drift is the cell
    weight times the factor, else dt times the raw drift; z is the diffusion
    coefficient times the factor, else the raw diffusion; either is None
    without that term.  ``factors`` caches the drift factor per depth j
    while X(t_j) stays fixed."""
    t, dt = times, times[1] - times[0]
    w, c = _cell_tables(problem, times)

    def cell(i, j, x, factors):
        drift = z = None
        if w is not None:
            if j not in factors:
                factors[j] = np.asarray(problem.drift_factor(t[j], x),
                                        dtype=float)
            drift = w[i, j] * factors[j]
        elif problem.drift is not None:
            drift = dt * np.asarray(problem.drift(t[i], t[j], x), dtype=float)
        if c is not None:
            z = np.asarray(c[i, j] * problem.diffusion_factor(t[j], x),
                           dtype=float)
        elif problem.diffusion is not None:
            z = np.asarray(problem.diffusion(t[i], t[j], x), dtype=float)
        return drift, z

    return cell


def _volterra_row(tree: Tree, i: int, start: np.ndarray,
                  cell: Callable) -> np.ndarray:
    """One forward Volterra row: start + sum_{j<i} drift_j + sum_{j<i} z_j dW_j.

    ``start`` is the free term at depth 0 (one row) or i; ``cell(j)``
    returns ``(drift_j, z_j)`` for the depth-j cell, either may be None.
    The drift sum is carried at the deepest depth added so far (a shallower
    drift enters through ``Tree.ancestor_view``), so each node still sums
    start, drift_0, ..., drift_{i-1} in order, at O((m+1)^i) per row; then
    the carry goes onto depth i and the integrands enter one integral.
    """
    acc = np.array(start, dtype=float)
    depth = 0 if len(acc) == 1 else i
    z_list = []
    for j in range(i):
        drift, z = cell(j)
        if drift is not None:
            if j > depth:
                acc, depth = tree.broadcast(acc, depth, j), j
            view = tree.ancestor_view(acc, depth, j)
            view += drift[:, None]
        if z is not None:
            z_list.append(z)
    if depth < i:
        acc = tree.broadcast(acc, depth, i)
    if z_list:
        acc += tree.stochastic_integral(z_list, 0, i)
    return acc


def _linear_rows(tree: Tree, d: int, coef_a: Optional[Callable],
                 coef_c: Optional[Callable],
                 forcing: Callable) -> AdaptedProcess:
    """Linear forward equation X(t_i) = sum_{j<i} dt (A(i, j) X_j + b(i, j))
    + sum_{j<i} (C(i, j) X_j + s(i, j)) dW_j, the forward twin of
    ``backward._linear_adjoint``.

    ``coef_a(i, j)`` (nodes, d, d) and ``coef_c(i, j)`` (nodes, d, m, d)
    act at depth j; both are None for the forcing alone.  ``forcing(i, j)``
    returns the pair (b, s) of cell j in row i as fresh arrays, which the
    row may write: the contractions take the forcing in place, and the
    drift is scaled by dt in place.
    """
    X = []
    for i in range(tree.N + 1):
        def cell(j):
            b, s = forcing(i, j)
            if coef_a is not None:
                ab = np.einsum("nab,nb->na", coef_a(i, j), X[j])
                ab += b
                cs = np.einsum("namb,nb->nam", coef_c(i, j), X[j])
                cs += s
                b, s = ab, cs
            b *= tree.dt
            return b, s

        X.append(_volterra_row(tree, i, np.zeros((1, d)), cell))
    return AdaptedProcess(tree, X)


def _rhs(problem: SVIEProblem, tree: Tree, cell: Callable, i: int, X,
         factors: dict) -> np.ndarray:
    """Right-hand side of the discrete equation at t_i from X(t_j), j < i.

    ``cell`` is ``_cell_map(problem, tree.times)``; ``factors`` carries the
    separable drift factor per depth across calls on the same X.
    """
    return _volterra_row(tree, i, problem.free_term(tree, i),
                         lambda j: cell(i, j, X[j], factors))


def solve_lattice(problem: SVIEProblem, tree: Tree) -> SVIESolution:
    """Explicit forward recursion on the tree.

    Only strictly earlier values enter each X(t_i), so no fixed point is
    needed; drift cells use exact kernel integrals, diffusion cells use
    left-point kernel values (or the L2-matched cell norm behind the
    ``l2_matched_diffusion`` flag).
    """
    if tree.m == 0 and not problem.has_diffusion:
        return _solve_lattice_deterministic(problem, tree)
    cell = _cell_map(problem, tree.times)
    X, factors = [], {}
    for i in range(tree.N + 1):
        X.append(_rhs(problem, tree, cell, i, X, factors))
    sol = AdaptedProcess(tree, X)
    res = _equation_residual(problem, tree, sol, cell)
    return SVIESolution(sol, {"method": "lattice", "residual": res})


def _solve_lattice_deterministic(problem: SVIEProblem,
                                 tree: Tree) -> SVIESolution:
    """Single-path recursion: the weighted history sum is one dot product.

    Each row reads phi(t_i) straight into P and, for a separable drift,
    the drift factor straight into F, one call each; X[i] is P[i] plus the
    row product ``w[i, :i] @ F[:i]``, added in place.  That product is the
    O(N^2) part and keeps its order, so X is the row-by-row recursion bit
    for bit.  The residual re-checks a separable drift through an
    independent history sum (``kernels._history_sum``, an FFT convolution
    for a lag kernel); a raw drift is re-evaluated, and without drift X is
    phi itself.
    """
    N, t = tree.N, tree.times
    d = problem.d
    w, _ = _cell_tables(problem, t)  # no diffusion here
    X = np.zeros((N + 1, d))
    F = np.zeros((N + 1, d))  # drift values along the path
    P = np.zeros((N + 1, d))  # phi(t_i), read once per row
    adapted = isinstance(problem.phi, AdaptedProcess)
    separable = problem.drift_kernel is not None

    def raw_history(i):
        return tree.dt * sum(
            np.asarray(problem.drift(t[i], t[j], X[j][None, :]),
                       dtype=float).reshape(d) for j in range(i))

    for i in range(N + 1):
        # a deterministic phi is read at t_i directly, not tiled onto a
        # one-node field first
        P[i] = problem.phi[i] if adapted else problem.phi(t[i])
        if separable:
            x = X[i]
            np.add(P[i], w[i, :i] @ F[:i], out=x)
            F[i] = problem.drift_factor(t[i], x[None, :])
        elif problem.drift is not None:
            X[i] = P[i] + raw_history(i)
        else:
            X[i] = P[i]
    if separable:
        H = _history_sum(problem.drift_kernel, w, F)
    else:
        H = np.zeros((N + 1, d))
        if problem.drift is not None:
            for i in range(N + 1):
                H[i] = raw_history(i)
    res = float(np.max(np.abs(X - P - H)))
    sol = AdaptedProcess.single_path(tree, X)
    return SVIESolution(sol, {"method": "lattice", "residual": res})


def _equation_residual(problem: SVIEProblem, tree: Tree,
                       X: AdaptedProcess, cell: Callable) -> float:
    """Max node-wise defect of the discrete equation (re-evaluation pass
    through the solve's cell map); nan when any row is nan."""
    worst, factors = 0.0, {}
    for i in range(tree.N + 1):
        rhs = _rhs(problem, tree, cell, i, X, factors)
        if X[i].size:
            worst = np.maximum(worst, np.max(np.abs(X[i] - rhs)))
    return float(worst)


def solve_picard(problem: SVIEProblem, tree: Tree, tol: float = 1e-10,
                 max_sweeps: int = 400) -> SVIESolution:
    """Blockwise Picard iteration on a contraction partition.

    The partition keeps, on every block, the drift kernel's triangle mass
    and the diffusion kernel's sliced sup below an even split of the 1/4
    contraction budget; earlier blocks are folded into the free term as
    the iteration advances.  A block that does not converge raises
    :class:`ContractionError` naming its (lo, hi) grid indices.
    """
    K1 = problem.lipschitz_K1 or problem.drift_kernel
    K2 = problem.lipschitz_K2 or problem.diffusion_kernel
    blocks = grid_blocks(K2, K1, 0.25, tree.N, tree.T,
                         PartitionInfeasibleError)
    t = tree.times
    cell = _cell_map(problem, t)
    X = [problem.phi_field(tree, i) for i in range(tree.N + 1)]
    ratios, sweeps_per_block = [], []

    for (lo, hi) in blocks:
        def updates():
            while True:
                update_sq, new_vals = 0.0, []
                for i in range(max(lo, 1), hi + 1):
                    new = _rhs(problem, tree, cell, i, X, {})
                    update_sq += tree.dt * _mean_square(new, X[i])
                    new_vals.append(new)
                X[max(lo, 1):hi + 1] = new_vals
                yield math.sqrt(update_sq)

        sweeps, block_ratios = _sweep_to_tolerance(
            updates(), tol * 1e-2, max_sweeps, (lo, hi), ContractionError)
        sweeps_per_block.append(sweeps)
        ratios.append(max(block_ratios) if block_ratios else 0.0)

    sol = AdaptedProcess(tree, X)
    res = _equation_residual(problem, tree, sol, cell)
    return SVIESolution(sol, {
        "method": "picard",
        "blocks": [(t[lo], t[hi]) for lo, hi in blocks],
        "contraction_ratios": ratios,
        "sweeps_per_block": sweeps_per_block,
        "residual": res,
    })


# ---------------------------------------------------------------------------
# Monte Carlo backend
# ---------------------------------------------------------------------------

@dataclass
class PathEnsemble:
    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    mean_stderr: np.ndarray
    n_paths: int
    seed: int


def solve_paths(problem: SVIEProblem, n_paths: int, n_steps: int,
                seed: int) -> PathEnsemble:
    """Euler-Maruyama over independent Gaussian paths.

    The cells follow the lattice solver's rule (``_cell_map``) on the
    path grid; the run is reproducible for a fixed seed.
    """
    if isinstance(problem.phi, AdaptedProcess):
        raise ValueError("path Monte Carlo needs a deterministic free term")
    t = np.linspace(0.0, problem.horizon, n_steps + 1)
    rng = np.random.default_rng(seed)
    dW = rng.normal(scale=math.sqrt(t[1]), size=(n_paths, n_steps, problem.m))
    # time-major, so each row X[i] is one contiguous block of paths
    X = np.zeros((n_steps + 1, n_paths, problem.d))
    X[:] = np.array([np.asarray(problem.phi(s), dtype=float).reshape(-1)
                     for s in t])[:, None]
    cell, factors = _cell_map(problem, t), {}
    for i in range(1, n_steps + 1):
        for j in range(i):
            drift, z = cell(i, j, X[j], factors)
            if drift is not None:
                X[i] += drift
            if z is not None:
                X[i] += np.einsum("ndk,nk->nd", z, dW[:, j])

    mean = X.mean(axis=1)
    var = X.var(axis=1, ddof=1) if n_paths > 1 else np.zeros_like(mean)
    stderr = np.sqrt(var / n_paths)
    return PathEnsemble(t, mean, var, stderr, n_paths, seed)


# ---------------------------------------------------------------------------
# stability and deterministic resolvents
# ---------------------------------------------------------------------------

def stability_gap(p: SVIEProblem, p2: SVIEProblem, tree: Tree) -> float:
    """Ratio of the solution gap to the coefficient gap (C = 1 normalized).

    Solves both problems and evaluates the two sides of the stability
    estimate, the coefficient gap on the cells the solves use
    (``_cell_map``); a 0/0 gap is reported as exactly zero.
    """
    X = solve_lattice(p, tree).X
    X2 = solve_lattice(p2, tree).X
    lhs_sq = sum(tree.dt * _mean_square(X[i], X2[i])
                 for i in range(tree.N + 1))

    cells = [(_cell_map(q, tree.times), {}) for q in (p, p2)]
    rhs_sq = 0.0
    for i in range(tree.N + 1):
        rhs_sq += tree.dt * _mean_square(p.phi_field(tree, i),
                                         p2.phi_field(tree, i))
        diff_gaps = []

        def gap(j):
            (a, z), (a2, z2) = (cell(i, j, X2[j], factors)
                                for cell, factors in cells)
            da, dz = _difference(a, a2), _difference(z, z2)
            if dz is not None:
                diff_gaps.append(tree.dt * _mean_square(dz))
            return None if da is None else np.linalg.norm(da, axis=-1), None

        # the drift gaps are summed on the forward rows' carry
        drift_gap = _volterra_row(tree, i, np.zeros(1), gap)
        rhs_sq += tree.dt * _mean_square(drift_gap)
        rhs_sq += tree.dt * sum(diff_gaps)
    if lhs_sq == 0.0:
        return 0.0
    if rhs_sq == 0.0:
        return math.inf
    return math.sqrt(lhs_sq) / math.sqrt(rhs_sq)


def _difference(a, b):
    """a - b for two cell values, either of which may be None (no term)."""
    if a is None:
        return None if b is None else -b
    return a if b is None else a - b


def resolvent_linear(kernel: Kernel, lam: float, grid) -> np.ndarray:
    """Deterministic linear Volterra solve x(t) = 1 + lam int_0^t k(t,s)x(s)ds.

    Product-trapezoidal collocation: x is piecewise linear on the grid and
    the kernel factor is integrated exactly on each cell (zeroth and first
    moments), with the last cell's right value treated implicitly.
    Returns the value table aligned with ``grid``.
    """
    if kernel.orientation != CAUSAL:
        raise ValueError("resolvent_linear expects a causal kernel")
    g = np.asarray(grid, dtype=float)
    n = len(g) - 1
    x = np.empty(n + 1)
    x[0] = 1.0
    for i in range(1, n + 1):
        ti = g[i]
        a, b = g[:i], g[1:i + 1]
        h = b - a
        I0 = _on_arrays(kernel.cell_fn, kernel.cell, ti, a, b)
        I1 = _on_arrays(kernel.cell_m1_fn, kernel.cell_m1, ti, a, b)
        w_left = (b * I0 - I1) / h
        w_right = (I1 - a * I0) / h
        acc = 1.0 + lam * float(w_left @ x[:i]) \
            + lam * float(w_right[:-1] @ x[1:i])
        x[i] = acc / (1.0 - lam * w_right[-1])
    return x


def graded_grid(T: float, n: int, exponent: float) -> np.ndarray:
    """Mesh T * (i/n)**exponent, clustered at 0 for singular solutions."""
    return T * (np.arange(n + 1) / n) ** exponent
