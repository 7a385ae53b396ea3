"""Backward stochastic Volterra equations and adapted M-solutions.

The discrete backward equation on the scenario tree reads, node-wise at
the leaves and for every outer index i,

    Y(t_i) = psi(t_i) + sum_{j >= i} w_ij g(t_i, t_j, Y(t_j), Z(t_i, t_j),
                                            Z(t_j, t_i))
                      - sum_{j >= i} Z(t_i, t_j) dW_j,

with Z below the diagonal pinned by the martingale-representation
identity Y(t_i) = E Y(t_i) + sum_{j < i} Z(t_i, t_j) dW_j.  Row i reads
later rows only through Y(t_j) and Z(t_j, t_i), j > i, which are fixed
once rows i+1..N are solved, so both solution routes work backward over
blocks of rows: a Fredholm pass folds the solved tail into each row's
free term and extends Z there, and a fixed point resolves the block's own
cells (the within-step integrand is pinned exactly by the tree
representation before the generator is applied).  ``fixed_point`` takes
one-step blocks, so its fixed point iterates only the diagonal cell of
one row (backward substitution, the terminal-first construction of the
M-solution); ``block`` takes the coarser blocks of a kernel contraction
partition, the paper's construction and an independent cross-check.
Both solve the same discrete system, so they agree to solver tolerance.

Every pass computes a cell's weighted generator drift, z2 rule included,
with ``_cell_drift``; the block partition comes from
:func:`kernels.grid_blocks`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .kernels import (Kernel, KernelClassWarning, _cell_table, grid_blocks,
                      script_norm, triangle_l2_norm)
from .lattice import (AdaptedProcess, TerminalField, Tree,
                      TwoParameterProcess, _mean_square)


class DivergenceError(RuntimeError):
    """Sweep iteration failed to contract on the (lo, hi) ``block`` of rows;
    ``ratios`` holds its successive update ratios up to the failure."""

    def __init__(self, message: str, block=None, ratios=()):
        super().__init__(message)
        self.block, self.ratios = block, list(ratios)


class BlockPartitionError(RuntimeError):
    """No contraction partition available for the block method."""


@dataclass
class GeneratorTerm:
    """One additive piece of the generator: weight[i, j] * fn(...).

    ``fn(i, j, y, z1, z2)`` receives the grid indices of the outer time
    t_i and of the cell [t_j, t_{j+1}], node arrays ``y`` of shape (n, d)
    and ``z1``, ``z2`` of shape (n, d, m) at depth j, and returns its value
    (n, d) at depth j, or at the outer depth i (node_count(i) rows), which
    the engine adds through :meth:`Tree.ancestor_view` without repeating
    it onto depth j; a term that needs times reads them from
    ``tree.times``.  It must be
    finite at j = i (the diagonal cell evaluates there).  The quadrature
    weight of cell j in row i is the exact cell integral of ``kernel``
    when given, the plain cell width when not, or the explicit
    ``weights[i, j]`` override (used by adjoint constructions that
    transpose a forward discretization).
    """

    fn: Callable
    kernel: Optional[Kernel] = None
    weights: Optional[np.ndarray] = None


@dataclass
class BSVIEProblem:
    """Free term plus generator terms, with Lipschitz kernel metadata.

    The state dimension ``d`` is the free term's and the noise dimension
    ``m`` the tree's.
    """

    psi: TerminalField
    terms: list
    L_y: Optional[Kernel] = None
    L_z1: Optional[Kernel] = None
    L_z2: Optional[Kernel] = None
    label: str = ""

    def __post_init__(self):
        self._probe_zero()
        self._verify_kernel_classes()

    @property
    def d(self) -> int:
        return self.psi.d

    @property
    def m(self) -> int:
        return self.psi.tree.m

    def _probe_zero(self):
        """Evaluate every term on zero fields at two grid cells of depth at
        most N // 2; a term that does not vanish there is rejected."""
        tree = self.psi.tree
        for (i, j) in [(tree.N // 4, tree.N // 2), (tree.N // 2, tree.N // 2)]:
            y = np.zeros((tree.node_count(j), self.d))
            z = np.zeros((tree.node_count(j), self.d, self.m))
            for term in self.terms:
                v = np.asarray(term.fn(i, j, y, z, z), dtype=float)
                if not np.allclose(v, 0.0, atol=1e-12):
                    raise ValueError(
                        "generator does not vanish at (y, z1, z2) = 0; "
                        "fold g(t, s, 0, 0, 0) into the free term first")

    def _verify_kernel_classes(self):
        def check(kernel, measure, message):
            if kernel is None:
                return
            try:
                value = measure(kernel)
            except Exception as exc:  # soft check: report, never block
                warnings.warn(f"{message}: measurement failed ({exc})",
                              KernelClassWarning)
                return
            if not math.isfinite(value):
                warnings.warn(message, KernelClassWarning)

        check(self.L_y, triangle_l2_norm,
              "declared y-Lipschitz kernel has divergent triangle norm")
        check(self.L_z1, script_norm,
              "declared z1-Lipschitz kernel has unbounded slice norms")
        check(self.L_z2, script_norm,
              "declared z2-Lipschitz kernel has unbounded slice norms")

    @property
    def tree(self) -> Tree:
        return self.psi.tree


@dataclass
class MSolution:
    """Adapted pair (Y, Z) with the below-diagonal Z pinned by
    martingale representation; diagnostics carry the method tag,
    iteration counts and residuals."""

    Y: AdaptedProcess
    Z: TwoParameterProcess
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# plain backward equations (the non-Volterra special case)
# ---------------------------------------------------------------------------

def solve_bsde(xi: np.ndarray, g: Callable, tree: Tree,
               y_scheme: str = "explicit"):
    """Backward recursion for Y(t) = xi + int g(s, Y, Z) ds - int Z dW.

    ``g(s, y, z)`` acts on node arrays; the step integrand Z comes from
    the exact one-step representation of Y(t_{j+1}).  The y input of the
    generator is the conditional mean ("explicit") or the current unknown
    resolved by a small fixed point, exact for affine generators
    ("implicit"); a fixed point whose 50th update exceeds its first, or is
    nan, raises :class:`DivergenceError` naming the step.
    """
    if y_scheme not in ("explicit", "implicit"):
        raise ValueError(f"unknown y_scheme {y_scheme!r}")
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        xi = xi[:, None]
    N = tree.N
    Y = [None] * (N + 1)
    Z = [None] * N
    Y[N] = xi
    for j in range(N - 1, -1, -1):
        mean, zs = tree.martingale_representation(Y[j + 1], j + 1, j)
        Z[j] = zs[0]
        t = tree.times[j]
        if y_scheme == "explicit":
            Y[j] = mean + tree.dt * np.asarray(g(t, mean, Z[j]), dtype=float)
        else:
            y, updates = mean.copy(), []
            for _ in range(50):
                y_new = mean + tree.dt * np.asarray(g(t, y, Z[j]),
                                                    dtype=float)
                updates.append(float(np.max(np.abs(y_new - y))))
                y = y_new
                if updates[-1] < 1e-15:
                    break
            else:
                if not updates[-1] <= updates[0]:
                    raise DivergenceError(
                        f"implicit step {j} diverges: 50 iterations took the "
                        f"update {updates[0]:.3e} to {updates[-1]:.3e}",
                        (j, j + 1))
            Y[j] = y
    return AdaptedProcess(tree, Y), Z


# ---------------------------------------------------------------------------
# the shared backward-pass engine
# ---------------------------------------------------------------------------

def _term_weights(terms: list, tree: Tree) -> list:
    """Per-term (N+1, N) cell weight tables."""
    N, t = tree.N, tree.times
    tables = []
    for term in terms:
        if term.weights is not None:
            w = np.asarray(term.weights, dtype=float)
            if w.shape != (N + 1, N):
                raise ValueError(f"weight override must have shape "
                                 f"{(N + 1, N)}, got {w.shape}")
        elif term.kernel is not None:
            w = _cell_table(term.kernel, t, lower=False)
            bad = np.argwhere(~np.isfinite(w))
            if bad.size:
                i, j = bad[0]
                raise ValueError(
                    f"generator kernel {term.kernel.label!r} has a divergent "
                    f"cell weight at outer time t={t[i]:.4g} (cell {j}); the "
                    f"kernel blows up on the outer boundary - clamp or shift "
                    f"it before solving")
        else:
            w = np.full((N + 1, N), tree.dt)
        tables.append(w)
    return tables


def strictly_upper_weights(tree: Tree) -> np.ndarray:
    """Weight table with the cell width on every cell after the outer index.

    This is the transpose of an explicit forward scheme, which has no
    diagonal cell; ``solve_bsvie`` solves such a table in one backward pass
    of one sweep per row.
    """
    return np.triu(np.full((tree.N + 1, tree.N), tree.dt), 1)


def _ancestor_contract(tree: Tree, spec: str, coef: np.ndarray,
                       values: np.ndarray, deep: int,
                       shallow: int) -> np.ndarray:
    """``np.einsum(spec, coef, values)`` for a depth-``shallow`` coefficient
    and a depth-``deep`` field, read through :meth:`Tree.ancestor_view`
    (``spec`` names the descendant axis k), so the coefficient is never
    repeated onto depth ``deep``; returns the depth-``deep`` result."""
    out = np.einsum(spec, coef, tree.ancestor_view(values, deep, shallow))
    return out.reshape((values.shape[0],) + out.shape[2:])


def _linear_adjoint(psi: TerminalField, coef_y: Callable, coef_z: Callable,
                    label: str) -> BSVIEProblem:
    """Linear adjoint equation with generator A(s, t)^T Y(s) + C(s, t)^T
    Z(s, t) on the :func:`strictly_upper_weights` table.

    ``coef_y(j, r)`` (nodes, d, d) and ``coef_z(j, r)`` (nodes, d, m, d)
    are the coefficients of cell j in row r at the outer depth r, and are
    contracted there: against Y(t_j) through the ancestor view, and
    against Z(t_j, t_r), which is F_{t_r}-measurable, on the first
    descendants of its depth-j repeat, the z-term returning that depth-r
    value for the engine to add through the ancestor view.
    """
    tree = psi.tree

    def fn_y(r, j, y, z1, z2):
        return _ancestor_contract(tree, "nab,nka->nkb", coef_y(j, r), y, j, r)

    def fn_z(r, j, y, z1, z2):
        first = tree.ancestor_view(z2, j, r)[:, 0]
        return np.einsum("namb,nam->nb", coef_z(j, r), first)

    weights = strictly_upper_weights(tree)
    return BSVIEProblem(psi, [GeneratorTerm(fn_y, weights=weights),
                              GeneratorTerm(fn_z, weights=weights)],
                        label=label)


def _cell_drift(tree: Tree, terms: list, tables, i: int, j: int, acc,
                y: Optional[np.ndarray], z1: np.ndarray,
                z2_below: Optional[Callable]):
    """The weighted generator drift of cell j in row i, summed in place.

    The generator reads y = Y(t_j), z1 = Z(t_i, t_j) and z2 = Z(t_j, t_i)
    at depth j: z1 itself on the diagonal cell, otherwise the depth-i field
    ``z2_below(j, i)`` repeated onto depth j (None when ``z2_below`` is
    None).  z2 is fetched once per cell, and only when some weight of the
    cell is nonzero.  The terms w * g are added one at a time into
    ``acc``, a depth-j array the caller owns, so a caller that carries a
    running sum keeps its summation order.  With ``acc`` None the sum
    starts from the first live term's w * g, a fresh array, so it is
    ((w_1 g_1 + w_2 g_2) + ...), and it is None when no weight of the cell
    is nonzero; unlike a sum started from +0.0, it keeps a -0.0 that every
    term gives.  A value with node_count(i) rows, at the outer depth i, is
    added through :meth:`Tree.ancestor_view`, elementwise the arithmetic
    of adding its repeat; any other row count than node_count(j) raises
    ValueError naming the cell.
    """
    live = [(table[i, j], term) for table, term in zip(tables, terms)
            if table[i, j] != 0.0]
    if not live:
        return acc
    if j == i:
        z2 = z1
    elif z2_below is not None:
        z2 = tree.broadcast(z2_below(j, i), i, j)
    else:
        z2 = None
    if not (0 <= i <= tree.N and 0 <= j <= tree.N):
        raise ValueError(f"cell ({i}, {j}) has a depth outside [0, {tree.N}]")
    counts = tree._node_counts
    deep, outer = counts[j], counts[i]
    for w, term in live:
        g = np.asarray(term.fn(i, j, y, z1, z2), dtype=float)
        rows = g.shape[0] if g.ndim else 0
        if rows not in (deep, outer):
            raise ValueError(
                f"generator term returned shape {g.shape} on cell ({i}, {j}); "
                f"expected {deep} rows (depth {j}) or {outer} (depth {i})")
        wg = w * g
        if acc is None:
            acc = wg if rows == deep else tree.broadcast(wg, i, j)
        elif rows == deep:
            acc += wg
        else:
            view = tree.ancestor_view(acc, j, i)
            view += wg[:, None]
    return acc


def _outer_pass(tree: Tree, terms: list, weight_tables, i: int,
                free: np.ndarray, free_depth: int, start_depth: int,
                stop_depth: int, y_at: Callable,
                z2_below: Optional[Callable], keep_levels: bool = False,
                first_step=None):
    """Backward recursion in the inner time for one outer index i.

    The free term ``free`` is measurable at ``free_depth`` <= ``start_depth``.
    The recursion starts from it at ``start_depth`` when the depths match;
    otherwise it starts from a zero field and adds the free term where it
    reaches ``free_depth`` (or, below ``stop_depth``, repeated onto
    ``stop_depth`` at the end).  This is exact: a field measurable at a
    shallower depth has zero integrands on the steps below it.  A field
    still zero is carried as the scalar 0.0, never represented: its step
    mean is 0.0, its integrand (z1 to the generator, and the returned
    mu_j) a read-only view ``np.broadcast_to(0.0, (nodes_j, d, m))`` of one
    +0.0 that holds no node bytes and raises on a write, and the first
    live drift plus 0.0 becomes the field; the returned field and every
    kept level are arrays.  Each step
    splits off the exact representation integrand mu_j, takes the weighted
    generator drift of :func:`_cell_drift` with z1 = mu_j (pinned before
    the generator applies) and z2 read through ``z2_below``, and adds the
    conditional mean into that fresh drift in place; a cell with no live
    weight passes the mean on.  ``first_step`` is the (mean, mu) of the
    first step when the caller already has it; its mean is never written.
    """
    d = free.shape[1]

    def field(lam, depth):  # the scalar 0.0 stands for a zero field
        return np.zeros((tree.node_count(depth), d)) if np.ndim(lam) == 0 \
            else lam

    lam = free if free_depth == start_depth else 0.0
    mu = {}
    levels = {start_depth: field(lam, start_depth)} if keep_levels else None
    for j in range(start_depth - 1, stop_depth - 1, -1):
        if first_step is not None and j == start_depth - 1:
            mean, mu_j = first_step
        elif np.ndim(lam) == 0:
            mean = 0.0
            mu_j = np.broadcast_to(0.0, (tree.node_count(j), d, tree.m))
        else:
            mean, zs = tree.martingale_representation(lam, j + 1, j)
            mu_j = zs[0]
        drift = _cell_drift(tree, terms, weight_tables, i, j, None, y_at(j),
                            mu_j, z2_below)
        lam = mean if drift is None else np.add(drift, mean, out=drift)
        if j == free_depth:
            lam = lam + free
        mu[j] = mu_j
        if keep_levels:
            levels[j] = field(lam, j)
    if free_depth < stop_depth:
        lam = lam + tree.broadcast(free, free_depth, stop_depth)
    return lam, mu, levels


def _sweep_to_tolerance(updates, tol: float, max_sweeps: int, block,
                        error=DivergenceError):
    """Draw one sweep per item of the iterator ``updates``, which yields each
    sweep's update norm, until an update is at most ``tol``; returns (sweeps,
    successive update ratios).  A non-finite update, three ratios >= 1 in a
    row or ``max_sweeps`` sweeps raise ``error(message, block, ratios)``
    naming the (lo, hi) ``block``.  A generator keeps each sweep's arrays
    alive into the next, as a loop does (a function freeing them on return
    doubled the page faults of an N = 16 block solve)."""
    lo, hi = block
    ratios, prev_update = [], math.nan
    for sweeps, update in zip(range(1, max_sweeps + 1), updates):
        if not math.isfinite(update):
            raise error(f"sweep produced non-finite values on block [{lo}, "
                        f"{hi}]; check the generator and its kernel weights",
                        block, ratios)
        if prev_update > 0.0:  # false before the second sweep
            ratios.append(update / prev_update)
            if len(ratios) >= 3 and all(r >= 1.0 for r in ratios[-3:]):
                raise error(f"sweep updates not contracting on block [{lo}, "
                            f"{hi}]: ratios {ratios[-3:]}", block, ratios)
        if update <= tol:
            return sweeps, ratios
        prev_update = update
    raise error(f"no convergence on block [{lo}, {hi}] within {max_sweeps} "
                f"sweeps (last update {prev_update:.3e})", block, ratios)


def _block_fixed_point(terms: list, tree: Tree, weight_tables,
                       lo: int, hi: int, free: dict, outers,
                       tol: float, max_sweeps: int):
    """Sweep iteration for the sub-system with outer indices ``outers``,
    inner cells [i, hi), free terms ``free[i]`` at depth ``hi``.

    Returns converged (Y, mu) fields plus iteration diagnostics.  The
    sweeps read ``below[j][i]`` = Z(t_j, t_i) for lo <= i < j < hi.  The
    free terms are fixed, so the first step of each row's outer pass (their
    representation from hi to hi - 1) is taken once per block, and its
    integrand is the same array on every sweep.
    """
    # initial guess: conditional expectations of the free terms and their
    # representation integrands
    y, first, below = {}, {}, {}
    for i in outers:
        y[i] = tree.conditional_expectation(free[i], hi, i)
        if i < hi:
            mean, zs = tree.martingale_representation(free[i], hi, hi - 1)
            first[i] = (mean, zs[0])
        if lo < i < hi:
            _, zs = tree.martingale_representation(mean, hi - 1, lo)
            below[i] = {l: zs[l - lo] for l in range(lo, i)}
    mu = {i: {} for i in outers}
    # The update differences of every sweep go to one scratch array per
    # field shape, alive until the block is solved.  A difference freed
    # right after its norm leaves the heap top free, glibc trims it, and
    # the next outer pass faults the pages back in: N = 16 fixed-point
    # solves then took 2-4x the minor faults in some benchmark passes and
    # none in others, and their time followed.
    scratch = {}

    def update_sq_of(new, old):
        out = scratch.get(new.shape)
        if out is None:
            out = scratch[new.shape] = np.empty_like(new)
        return _mean_square(new, old, out=out)

    # One generation is kept: row i's pass reads only rows j >= i of y and
    # the ``below`` table of the sweep's start, so with the rows in
    # ascending order, replacing y[i] and mu[i] right after row i's pass and
    # its update norm is still the Jacobi sweep, with the norm summed in
    # the same order.
    def updates():
        while True:
            update_sq = 0.0
            for i in outers:
                lam, mu_i, _ = _outer_pass(
                    tree, terms, weight_tables, i, free[i], hi, hi, i,
                    y_at=lambda j: y[j],
                    z2_below=lambda j, ii: below[j][ii],
                    first_step=first.get(i))
                update_sq += tree.dt * update_sq_of(lam, y[i])
                for j, m_val in mu_i.items():
                    # step hi - 1 keeps its integrand: an exact zero update
                    if j in mu[i] and j != hi - 1:
                        update_sq += tree.dt ** 2 * update_sq_of(m_val,
                                                                 mu[i][j])
                y[i], mu[i] = lam, mu_i
            for i in range(lo + 1, hi):
                _, zs = tree.martingale_representation(y[i], i, lo)
                below[i] = {l: zs[l - lo] for l in range(lo, i)}
            yield math.sqrt(update_sq)

    sweeps, ratios = _sweep_to_tolerance(updates(), tol, max_sweeps,
                                         (lo, hi))
    return y, mu, {"sweeps": sweeps, "ratios": ratios}


def solve_bsvie(problem: BSVIEProblem, tree: Tree = None,
                method: str = "fixed_point", tol: float = 1e-12,
                max_sweeps: int = 500, keep_above: bool = True) -> MSolution:
    """Adapted M-solution of the backward Volterra equation.

    Both methods solve the terminal block first and fold each solved
    tail into the earlier rows' free terms through stochastic Fredholm
    passes.  ``fixed_point`` does this row by row (one-step blocks), so
    each row's fixed point iterates only its diagonal cell, and a table
    without diagonal cells takes one sweep per row.  ``block`` partitions
    the horizon so the y/z2 coupling strength of each block stays below
    1/2 (split evenly between the two).  Both produce the
    same discrete solution.  ``max_sweeps`` caps the sweeps of each block;
    a block that does not converge raises :class:`DivergenceError` naming
    it.

    The rows are checked by :func:`m_condition_residual` and
    :func:`equation_residual`; the diagnostics hold the maxima.  Nothing
    reads row i's Z(t_i, t_j), j >= i, after its check, so with
    ``keep_above`` false each block's rows are checked as soon as they and
    every later row are final, and those entries are released (set to
    None) right after; the returned Z then holds the below-diagonal
    integrands only.  Otherwise every row is checked once, at the end
    (checks between blocks cost registry solves 3-6 % and release
    nothing).  Y(t_N) is a read-only view of psi(t_N) when the last row
    solves to the free term itself.
    """
    tree = tree or problem.tree
    if tree is not problem.tree:
        raise ValueError("problem free term lives on a different tree")
    N = tree.N
    weight_tables = _term_weights(problem.terms, tree)
    diag = {"method": method, "tol": tol}

    if method == "fixed_point":
        blocks = [(r, r + 1) for r in range(N)]
    elif method == "block":
        if problem.L_z2 is None and problem.L_y is None:
            raise BlockPartitionError("the block method needs declared "
                                      "Lipschitz kernels (L_y, L_z2)")
        blocks = grid_blocks(problem.L_z2, problem.L_y, 0.5,
                             N, tree.T, BlockPartitionError)
    else:
        raise ValueError(f"unknown method {method!r}")
    diag["blocks"] = blocks

    Y_fields = [None] * (N + 1)
    # Z is filled as it is computed: the Fredholm pass sets j >= hi, the
    # block fixed point i <= j < hi and the M-condition representation
    # j < i, so every entry is an array once its row is solved
    Z = TwoParameterProcess(tree, [[None] * N for _ in range(N + 1)])
    sweep_info, checks = [], []
    psi = problem.psi
    # the row checks read Y as this list until the solve returns
    sol = MSolution(Y_fields, Z, diag)

    def check(rows):
        checks.append((m_condition_residual(sol, tree, rows),
                       equation_residual(sol, problem, tree, weight_tables,
                                         rows)))

    for (lo, hi) in reversed(blocks):
        outers = list(range(lo, N + 1)) if hi == N else list(range(lo, hi))
        # Fredholm pass: fold the solved tail into free terms at depth hi,
        # bringing psi(t_i) in at its own depth, and record the tail
        # integrands Z(t_i, t_j), j >= hi
        free = {}
        for i in outers:
            free[i], mu_i, _ = _outer_pass(
                tree, problem.terms, weight_tables, i, psi[i], psi.depths[i],
                N, hi, y_at=lambda j: Y_fields[j], z2_below=Z.entry)
            for j, m_val in mu_i.items():
                Z.set_entry(i, j, m_val)
        y, mu, info = _block_fixed_point(
            problem.terms, tree, weight_tables, lo, hi, free, outers,
            tol, max_sweeps)
        sweep_info.append(info)
        for i in outers:
            Y_fields[i] = y[i]
            for j, m_val in mu[i].items():
                Z.set_entry(i, j, m_val)
            # full below-diagonal representation (the M-condition)
            _, zs = tree.martingale_representation(y[i], i, 0)
            for j in range(i):
                Z.set_entry(i, j, zs[j])
        if not keep_above:
            # rows lo..N are final now: check the block's, then drop what
            # no later pass reads (Y(t_j) and Z(t_j, t_i), j > i, only)
            check(outers)
            for i in outers:
                Z.values[i][i:] = [None] * (N - i)
    if keep_above:
        check(range(N + 1))

    if Y_fields[N] is psi[N]:  # the free term's own array: lend a view
        Y_fields[N] = psi[N].view()
        Y_fields[N].flags.writeable = False
    sol.Y = AdaptedProcess(tree, Y_fields)
    diag["sweeps"] = [s["sweeps"] for s in sweep_info]
    diag["contraction_ratios"] = [max(s["ratios"]) if s["ratios"] else 0.0
                                  for s in sweep_info]
    # read-only arrays (the zero views of a still-zero field, the view of
    # psi(t_N)) hold none of the solution's bytes, nor do released entries
    diag["bytes"] = sum(y.nbytes for y in Y_fields if y.flags.writeable) \
        + sum(z.nbytes for row in Z.values for z in row
              if z is not None and z.flags.owndata)
    # the maxima in ascending row order
    diag["m_condition_residual"] = _worst([m for m, _ in checks[::-1]])
    diag["equation_residual"] = _worst([eq for _, eq in checks[::-1]])
    return sol


# ---------------------------------------------------------------------------
# parameterized families and Fredholm equations
# ---------------------------------------------------------------------------

@dataclass
class ParamBSDEFamily:
    """Solution of the t-parameterized family of backward equations.

    ``lam[i][r]`` is the value field at inner depth r for outer index i;
    ``mu[i][j]`` the representation integrand on step j.
    """

    lam: dict
    mu: dict


def solve_param_bsde_family(psi: TerminalField, h: Callable, tree: Tree,
                            R_index: int, S_index: int) -> ParamBSDEFamily:
    """Family of backward equations parameterized by the outer time.

    For each outer index i in [S_index, N] the equation runs backward
    from the horizon to depth R_index with generator ``h(t, s, z)``; the
    within-step z is pinned by the exact tree representation, so a single
    pass solves each member.
    """
    if not 0 <= R_index <= S_index <= tree.N:
        raise ValueError("need 0 <= R_index <= S_index <= N")
    return _family_pass(psi, h, tree, range(S_index, tree.N + 1), R_index)


def _family_pass(psi: TerminalField, h: Callable, tree: Tree, outers,
                 stop: int) -> ParamBSDEFamily:
    """One backward pass from the horizon to depth ``stop`` per outer index
    in ``outers``, with the one generator term h(t_i, t_j, z1) on
    cell-width weights, keeping every level."""
    t = tree.times
    terms = [GeneratorTerm(fn=lambda i, j, y, z1, z2: h(t[i], t[j], z1))]
    tables = _term_weights(terms, tree)
    lam_all, mu_all = {}, {}
    for i in outers:
        _, mu_all[i], lam_all[i] = _outer_pass(
            tree, terms, tables, i, psi.at(i, tree.N), tree.N, tree.N, stop,
            y_at=lambda j: None, z2_below=None, keep_levels=True)
    return ParamBSDEFamily(lam_all, mu_all)


def solve_sfie(psi: TerminalField, h: Callable, tree: Tree,
               R_index: int, S_index: int):
    """Stochastic Fredholm pass over the window [t_S, T].

    For outer indices i in [R_index, S_index] returns the window-start
    fields psi_S(t_i) (measurable at depth S_index) and the integrands
    Z(t_i, t_j) for cells j in [S_index, N); the unknown left endpoint is
    only measurable at the window start, not adapted throughout.  Both are
    read from the family of these outer indices at level S_index.
    """
    if not 0 <= R_index <= S_index <= tree.N:
        raise ValueError("need 0 <= R_index <= S_index <= N")
    fam = _family_pass(psi, h, tree, range(R_index, S_index + 1), S_index)
    return {i: levels[S_index] for i, levels in fam.lam.items()}, fam.mu


# ---------------------------------------------------------------------------
# residuals and stability
# ---------------------------------------------------------------------------

def _worst(defects) -> float:
    """The largest row defect, nan when any is nan (``max`` alone drops a
    nan that is not its first argument)."""
    return math.nan if any(map(math.isnan, defects)) else max(defects)


def _m_condition_row(tree: Tree, Y, Z: TwoParameterProcess, i: int) -> float:
    """Max node defect of Y(t_i) = E Y(t_i) + sum_{j<i} Z(t_i,t_j) dW_j."""
    mean = tree.conditional_expectation(Y[i], i, 0)
    recon = tree.stochastic_integral([Z.entry(i, j) for j in range(i)], 0,
                                     i, start=mean)
    return float(np.max(np.abs(Y[i] - recon)))


def _equation_row(tree: Tree, problem: BSVIEProblem, tables, Y,
                  Z: TwoParameterProcess, i: int) -> float:
    """Max leaf defect of row i of the discrete backward equation; it
    reads Y(t_j), j >= i, row i's Z(t_i, t_j), j >= i, and Z(t_j, t_i),
    j > i."""
    N, psi = tree.N, problem.psi
    depth = psi.depths[i]
    carry = psi.at(i, i) - Y[i] if depth <= i else -Y[i]
    for j in range(i, N):
        z1 = Z.entry(i, j)
        carry = _cell_drift(tree, problem.terms, tables, i, j, carry, Y[j],
                            z1, Z.entry)
        if j == N - 1 and depth < N and not z1.any():
            break
        carry = tree.stochastic_integral([z1], j, j + 1, start=carry,
                                         subtract=True)
        if j + 1 == depth:
            carry += psi[i]
    return float(np.max(np.abs(carry, out=carry)))


def m_condition_residual(sol: MSolution, tree: Tree, rows=None) -> float:
    """Max node defect of Y(t_i) = E Y(t_i) + sum_{j<i} Z(t_i,t_j) dW_j
    over ``rows`` (default all), nan when any row's is."""
    rows = range(tree.N + 1) if rows is None else rows
    return _worst([_m_condition_row(tree, sol.Y, sol.Z, i) for i in rows])


def equation_residual(sol: MSolution, problem: BSVIEProblem, tree: Tree,
                      weight_tables=None, rows=None) -> float:
    """Max leaf defect of the discrete backward equation over ``rows``
    (default all), nan when any row's is.  A row's check needs its entries
    on and above the diagonal, which a solve with ``keep_above`` false
    releases (its diagnostics hold the value).

    For each outer index one field is carried from depth i to the leaves:
    it starts at psi(t_i) - Y(t_i) (or -Y(t_i), taking psi where the carry
    reaches its depth), and each level adds the cell drift into it in place
    and then steps down by minus the cell's stochastic integral,
    O((m+1)**N) node work per outer index.  When psi(t_i) sits above the
    leaves and the last integrand Z(t_i, t_{N-1}) is identically zero
    (tested, never assumed), the carry stops at depth N - 1, as the leaves
    would only repeat it.  ``weight_tables`` reuses the tables of the solve
    being checked; by default they are built from ``problem``.
    """
    rows = range(tree.N + 1) if rows is None else rows
    if any(z is None for i in rows for z in sol.Z.values[i][i:]):
        raise ValueError("the solution's Z table has released entries; "
                         "solve with keep_above=True to check it again")
    tables = _term_weights(problem.terms, tree) if weight_tables is None \
        else weight_tables
    return _worst([_equation_row(tree, problem, tables, sol.Y, sol.Z, i)
                   for i in rows])


def stability_gap_bsvie(p: BSVIEProblem, p2: BSVIEProblem,
                        tree: Tree) -> float:
    """Solution-gap to data-gap ratio for two backward problems (C = 1)."""
    s1 = solve_bsvie(p, tree)
    s2 = solve_bsvie(p2, tree)
    lhs_sq = 0.0
    for i in range(tree.N + 1):
        lhs_sq += tree.dt * _mean_square(s1.Y[i], s2.Y[i])
        for j in range(tree.N):
            lhs_sq += tree.dt ** 2 * _mean_square(s1.Z.entry(i, j),
                                                  s2.Z.entry(i, j))

    tables1 = _term_weights(p.terms, tree)
    tables2 = _term_weights(p2.terms, tree)
    rhs_sq = 0.0
    for i in range(tree.N + 1):
        depth = max(p.psi.depths[i], p2.psi.depths[i])
        rhs_sq += tree.dt * _mean_square(p.psi.at(i, depth),
                                         p2.psi.at(i, depth))
        gsum = np.zeros(tree.node_count(tree.N))
        for j in range(i, tree.N):
            g1, g2 = (_cell_drift(tree, q.terms, tables, i, j,
                                  np.zeros((tree.node_count(j), p.d)),
                                  s2.Y[j], s2.Z.entry(i, j), s2.Z.entry)
                      for q, tables in ((p, tables1), (p2, tables2)))
            gsum = gsum + tree.broadcast(
                np.linalg.norm(np.asarray(g1 - g2), axis=-1), j, tree.N)
        rhs_sq += tree.dt * _mean_square(gsum)
    if lhs_sq == 0.0:
        return 0.0
    if rhs_sq == 0.0:
        return math.inf
    return math.sqrt(lhs_sq / rhs_sq)
