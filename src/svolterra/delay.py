"""Maximum principle for controlled delay evolution systems.

The state carries a pointwise delay y(t) = x(t - delta) and an
exponentially weighted moving average z(t) over the trailing window; the
variational dynamics are rewritten as one Volterra system with a tripled
state (x-part, delayed part, window part), whose semigroup-shaped block
coefficients make the delayed component reproduce the direct delay-buffer
recursion cell by cell.  The adjoint system is the exact transpose of
that block discretization, and the scalar processes (p, q) aggregate its
components into the Hamiltonian gradient used by the maximum condition.

The delay must sit on the time grid (delta = k * dt); the window average
uses the left-point rule with exact exponential cell weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .backward import (MSolution, _ancestor_contract, _linear_adjoint,
                       solve_bsvie)
from .control import _descend, _fd_probe, _stationarity_margin
from .forward import _linear_rows, _volterra_row
from .lattice import AdaptedProcess, TerminalField, Tree
from .special import _expm


@dataclass
class DelayProblem:
    """Coefficients of the controlled delay evolution system.

    The drift/diffusion/running-cost maps receive the tuple
    (t, x, y, z, u, mu) as node arrays; derivative maps append the
    differentiation axis as in :class:`ControlProblem`.  ``xi`` is the
    deterministic initial state trajectory on [-delta, 0] and ``eta`` the
    initial control on [-delta, 0).
    """

    horizon: float
    M: np.ndarray
    delta: float
    lam: float
    b: Callable
    sigma: Callable
    b_x: Callable
    b_y: Callable
    b_z: Callable
    b_u: Callable
    b_mu: Callable
    sigma_x: Callable
    sigma_y: Callable
    sigma_z: Callable
    sigma_u: Callable
    sigma_mu: Callable
    l: Callable
    l_x: Callable
    l_y: Callable
    l_z: Callable
    l_u: Callable
    l_mu: Callable
    h: Callable
    h_x: Callable
    h_y: Callable
    h_z: Callable
    xi: Callable
    eta: Callable
    control_set: object
    d: int = 1
    m: int = 1
    label: str = ""

    @property
    def du(self):
        return self.control_set.dim

    def __post_init__(self):
        self.M = np.atleast_2d(np.asarray(self.M, dtype=float))
        if not 0.0 < self.delta < self.horizon:
            raise ValueError("need 0 < delta < horizon")
        rng = np.random.default_rng(777)
        t = 0.4 * self.horizon
        x = rng.normal(size=(1, self.d))
        y = rng.normal(size=(1, self.d))
        z = rng.normal(size=(1, self.d))
        u = np.atleast_2d(self.control_set.project(
            rng.normal(size=self.du)))
        mu = np.atleast_2d(self.control_set.project(
            rng.normal(size=self.du)))
        # each map f against each argument v, through the derivative f_v
        args = (t, x, y, z, u, mu)
        checks = [(getattr(self, f), getattr(self, f"{f}_{v}"), args, slot)
                  for f in ("b", "sigma", "l")
                  for slot, v in enumerate(("x", "y", "z", "u", "mu"), 1)]
        checks += [(self.h, getattr(self, f"h_{v}"), (x, y, z), slot)
                   for slot, v in enumerate(("x", "y", "z"))]
        for row in checks:
            if not _fd_probe(*row):
                raise ValueError("a delay-problem derivative map fails the "
                                 "finite-difference probe")

    def delay_steps(self, tree: Tree) -> int:
        k = self.delta / tree.dt
        if abs(k - round(k)) > 1e-9:
            raise ValueError(
                f"delta = {self.delta} is not a grid multiple of "
                f"dt = {tree.dt}; snap the delay to the grid first")
        return int(round(k))

    def semigroup(self, tree: Tree):
        """S(l * dt) for l = 0..N."""
        return [_expm(l * tree.dt * self.M) for l in range(tree.N + 1)]

    def window_weights(self, tree: Tree) -> np.ndarray:
        """Exact cell integrals of e^{lam * theta} over the window cells."""
        k = self.delay_steps(tree)
        edges = -self.delta + tree.dt * np.arange(k + 1)
        if self.lam == 0.0:
            return np.diff(edges)
        return (np.exp(self.lam * edges[1:])
                - np.exp(self.lam * edges[:-1])) / self.lam


@dataclass
class DelayTrajectory:
    x: AdaptedProcess
    y: AdaptedProcess
    z: AdaptedProcess
    u: AdaptedProcess
    mu: AdaptedProcess

    def theta(self, i):
        return (self.x[i], self.y[i], self.z[i], self.u[i], self.mu[i])


def _delayed(tree: Tree, values, i: int, k: int,
             before: Callable) -> np.ndarray:
    """values[i - k] repeated onto depth i, or ``before()`` while i < k."""
    if i < k:
        return before()
    return tree.broadcast(values[i - k], i - k, i)


def solve_delay_state(dp: DelayProblem, u: AdaptedProcess,
                      tree: Tree) -> DelayTrajectory:
    """Mild-form recursion with explicit delay buffers.

    x(t_i) = S(t_i) xi(0) + sum_{j<i} dt S(t_i - t_j) b_j
                          + sum_{j<i} S(t_i - t_j) sigma_j dW_j,
    with the delayed value and control read from the buffers (or the
    initial trajectories xi, eta) and the window average from the
    exact-weight rule.
    """
    k = dp.delay_steps(tree)
    S = dp.semigroup(tree)
    gamma = dp.window_weights(tree)
    t = tree.times
    x0 = np.asarray(dp.xi(0.0), dtype=float).reshape(-1)

    xs, ys, zs, mus = [], [], [], []

    def initial(fn, i):
        return lambda: np.tile(np.asarray(fn(t[i] - dp.delta),
                                          dtype=float).reshape(-1),
                               (tree.node_count(i), 1))

    def window(i):
        acc = np.zeros((tree.node_count(i), dp.d))
        for l in range(k):
            q = i - k + l
            if q >= 0:
                acc += gamma[l] * tree.broadcast(xs[q], q, i)
            else:
                acc += gamma[l] * np.asarray(dp.xi(t[i] - dp.delta
                                                   + l * tree.dt),
                                             dtype=float).reshape(1, -1)
        return acc

    drifts, diffs = [], []
    for i in range(tree.N + 1):
        def cell(j):
            return (tree.dt * np.einsum("ab,nb->na", S[i - j], drifts[j]),
                    np.einsum("ab,nbk->nak", S[i - j], diffs[j]))

        xs.append(_volterra_row(tree, i, (S[i] @ x0)[None], cell))
        ys.append(_delayed(tree, xs, i, k, initial(dp.xi, i)))
        zs.append(window(i))
        mus.append(_delayed(tree, u, i, k, initial(dp.eta, i)))
        theta = (t[i], xs[i], ys[i], zs[i], u[i], mus[i])
        drifts.append(np.asarray(dp.b(*theta), dtype=float))
        diffs.append(np.asarray(dp.sigma(*theta), dtype=float))
    return DelayTrajectory(AdaptedProcess(tree, xs), AdaptedProcess(tree, ys),
                           AdaptedProcess(tree, zs), u,
                           AdaptedProcess(tree, mus))


def cost_delay(dp: DelayProblem, u: AdaptedProcess, tree: Tree,
               traj: DelayTrajectory = None) -> float:
    traj = traj or solve_delay_state(dp, u, tree)
    total = 0.0
    for i in range(tree.N):
        vals = np.asarray(dp.l(tree.times[i], *traj.theta(i)), dtype=float)
        total += tree.dt * float(tree.expectation(vals.reshape(-1)))
    term = np.asarray(dp.h(traj.x[tree.N], traj.y[tree.N], traj.z[tree.N]),
                      dtype=float)
    return total + float(tree.expectation(term.reshape(-1)))


# ---------------------------------------------------------------------------
# augmented Volterra form of the variational dynamics
# ---------------------------------------------------------------------------

@dataclass
class AugmentedDelaySVIE:
    """Block coefficients of the tripled variational Volterra system.

    ``A(i, j)`` maps the depth-j tripled state through a (3d, 3d) block
    matrix per node; ``C(i, j)`` adds the noise axis; the forcing pair
    ``(Bvec, Dmat)`` carries the control variation ``du_field`` (None in
    the adjoint, which reads no forcing).  Solving is a plain forward
    recursion; the second block component coincides with the delayed
    first one and the third with the window average, cell by cell.  The
    adjoint's (p, q) is :meth:`_add_rows_transpose`, the transpose of
    :meth:`_rows`.
    """

    dp: DelayProblem
    tree: Tree
    traj: DelayTrajectory
    du_field: list

    def __post_init__(self):
        self.S = self.dp.semigroup(self.tree)
        self.gamma = self.dp.window_weights(self.tree)
        self.k = self.dp.delay_steps(self.tree)
        dp = self.dp
        # per depth, (b, sigma) with their (x, y, z) blocks side by side in
        # the last axis
        self._coef = [tuple(np.concatenate(self._at(j, *fns), axis=-1)
                            for fns in ((dp.b_x, dp.b_y, dp.b_z),
                                        (dp.sigma_x, dp.sigma_y, dp.sigma_z)))
                      for j in range(self.tree.N + 1)]
        self._forcing = {}

    def _at(self, j, *fns):
        """The maps ``fns`` evaluated along the trajectory at depth j."""
        theta = (self.tree.times[j],) + self.traj.theta(j)
        return [np.asarray(fn(*theta), dtype=float) for fn in fns]

    def _lags(self, i, j):
        """(block row, semigroup) pairs of row i for a depth-j cell: the x
        part through S(t_i - t_j) and, past the delay (i - j > k), the
        delayed part through S(t_i - t_j - delta)."""
        return [(0, self.S[i - j])] + (
            [(1, self.S[i - j - self.k])] if i - j > self.k else [])

    def _rows(self, i, j, value):
        """The tripled rows of a depth-j cell value."""
        d = self.dp.d
        out = np.zeros(value.shape[:1] + (3 * d,) + value.shape[2:])
        for row, S in self._lags(i, j):
            out[:, row * d:(row + 1) * d] = np.einsum("ab,nb...->na...", S,
                                                      value)
        return out

    def _add_rows_transpose(self, acc, i, j, value, weight=1.0,
                            depth=None):
        """acc += weight * (transpose of :meth:`_rows`) value, one lag at a
        time; a ``value`` at a deeper ``depth`` has each block row it reads
        conditioned down to depth j on its own."""
        d = self.dp.d
        for row, S in self._lags(i, j):
            part = value[:, row * d:(row + 1) * d]
            if depth is not None:
                part = self.tree.conditional_expectation(part, depth, j)
            acc += weight * np.einsum("ba,nb...->na...", S, part)

    def A(self, i: int, j: int) -> np.ndarray:
        d, tree = self.dp.d, self.tree
        out = self._rows(i, j, self._coef[j][0])
        # window row: exact cell weight over [t_j, t_{j+1}], scaled to a
        # dt-weighted Volterra entry
        if 0 < i - j <= self.k:
            w = self.gamma[self.k - (i - j)] / tree.dt
            out[:, 2 * d:3 * d, 0:d] = w * np.eye(d)
        return out

    def C(self, i: int, j: int) -> np.ndarray:
        return self._rows(i, j, self._coef[j][1])

    def forcing(self, i: int, j: int):
        if j not in self._forcing:
            # b_u du + b_mu dmu and sigma_u du + sigma_mu dmu once per
            # depth, dmu the variation arriving through the delayed channel
            dp, du = self.dp, self.du_field[j]
            dmu = _delayed(self.tree, self.du_field, j, self.k,
                           lambda: np.zeros((self.tree.node_count(j),
                                             dp.du)))
            bu, bmu, su, smu = self._at(j, dp.b_u, dp.b_mu, dp.sigma_u,
                                        dp.sigma_mu)
            self._forcing[j] = (
                np.einsum("nau,nu->na", bu, du)
                + np.einsum("nau,nu->na", bmu, dmu),
                np.einsum("namu,nu->nam", su, du)
                + np.einsum("namu,nu->nam", smu, dmu))
        db, ds = self._forcing[j]
        return self._rows(i, j, db), self._rows(i, j, ds)

    def solve(self) -> AdaptedProcess:
        return _linear_rows(self.tree, 3 * self.dp.d, self.A, self.C,
                            self.forcing)


def delay_to_svie(dp: DelayProblem, u_bar: AdaptedProcess,
                  v: AdaptedProcess, tree: Tree,
                  traj: DelayTrajectory = None) -> AugmentedDelaySVIE:
    """Augmented variational system along the direction v - u_bar."""
    traj = traj or solve_delay_state(dp, u_bar, tree)
    du_field = [v[i] - u_bar[i] for i in range(tree.N + 1)]
    return AugmentedDelaySVIE(dp, tree, traj, du_field)


def solve_delay_variational_direct(dp: DelayProblem, u_bar: AdaptedProcess,
                                   v: AdaptedProcess, tree: Tree,
                                   traj: DelayTrajectory = None
                                   ) -> AdaptedProcess:
    """Step-by-step linearized delay recursion with explicit buffers.

    Independent of the augmented rewrite: maintains its own delayed and
    window buffers for the first variational component.
    """
    traj = traj or solve_delay_state(dp, u_bar, tree)
    k = dp.delay_steps(tree)
    S = dp.semigroup(tree)
    gamma = dp.window_weights(tree)
    t = tree.times
    x1 = [np.zeros((1, dp.d))]
    drifts, diffs = [], []
    for i in range(tree.N + 1):
        if i > 0:
            acc = np.zeros((tree.node_count(i), dp.d))
            z_list = []
            for j in range(i):
                acc += tree.broadcast(
                    tree.dt * np.einsum("ab,nb->na", S[i - j], drifts[j]),
                    j, i)
                z_list.append(np.einsum("ab,nbk->nak", S[i - j], diffs[j]))
            acc += tree.stochastic_integral(z_list, 0, i)
            x1.append(acc)
        y1 = tree.broadcast(x1[i - k], i - k, i) if i >= k \
            else np.zeros((tree.node_count(i), dp.d))
        z1 = np.zeros((tree.node_count(i), dp.d))
        for l in range(k):
            q = i - k + l
            if q >= 0:
                z1 += gamma[l] * tree.broadcast(x1[q], q, i)
        du = v[i] - u_bar[i]
        dmu = tree.broadcast(v[i - k] - u_bar[i - k], i - k, i) if i >= k \
            else np.zeros((tree.node_count(i), dp.du))
        theta = (t[i],) + traj.theta(i)
        db = np.einsum("nab,nb->na", np.asarray(dp.b_x(*theta)), x1[i]) \
            + np.einsum("nab,nb->na", np.asarray(dp.b_y(*theta)), y1) \
            + np.einsum("nab,nb->na", np.asarray(dp.b_z(*theta)), z1) \
            + np.einsum("nau,nu->na", np.asarray(dp.b_u(*theta)), du) \
            + np.einsum("nau,nu->na", np.asarray(dp.b_mu(*theta)), dmu)
        ds = np.einsum("namb,nb->nam", np.asarray(dp.sigma_x(*theta)), x1[i]) \
            + np.einsum("namb,nb->nam", np.asarray(dp.sigma_y(*theta)), y1) \
            + np.einsum("namb,nb->nam", np.asarray(dp.sigma_z(*theta)), z1) \
            + np.einsum("namu,nu->nam", np.asarray(dp.sigma_u(*theta)), du) \
            + np.einsum("namu,nu->nam", np.asarray(dp.sigma_mu(*theta)), dmu)
        drifts.append(db)
        diffs.append(ds)
    return AdaptedProcess(tree, x1)


# ---------------------------------------------------------------------------
# adjoint system, p/q processes, Hamiltonian gradients
# ---------------------------------------------------------------------------

@dataclass
class DelayAdjoint:
    zeta: list                  # representation integrands of H_bar per step
    solution: MSolution         # tripled (Y, Z)
    p: AdaptedProcess
    q: list                     # per depth: (nodes, d, m) arrays
    H_bar: np.ndarray


def solve_delay_adjoint(dp: DelayProblem, traj: DelayTrajectory,
                        tree: Tree, tol: float = 1e-14) -> DelayAdjoint:
    """Adjoint of the augmented system with exact-transpose weights.

    The terminal field is represented first (its integrands feed the free
    term), then the tripled backward Volterra system is solved, and the
    (p, q) aggregates are assembled from semigroup-weighted sums of the
    components.  Those sums read Y and the below-diagonal Z(t_i, t_r),
    i > r, only, so the solution's Z holds just those integrands: the
    entries on and above the diagonal are released (None) once each row's
    residuals are checked.
    """
    N, dt, d = tree.N, tree.dt, dp.d
    aug = AugmentedDelaySVIE(dp, tree, traj, None)

    H_bar = np.concatenate([
        np.asarray(fn(traj.x[N], traj.y[N], traj.z[N]), dtype=float)
        for fn in (dp.h_x, dp.h_y, dp.h_z)], axis=1)
    _, zeta = tree.martingale_representation(H_bar, N, 0)

    # block coefficients of cell (N, r) stay at depth r and are contracted
    # there, as ``_linear_adjoint`` does for every cell: against H_bar
    # through the ancestor view, against zeta[r] itself
    psi_fields = []
    for r in range(N):
        L_bar = np.concatenate(aug._at(r, dp.l_x, dp.l_y, dp.l_z), axis=1)
        base = tree.broadcast(L_bar, r, N)
        base = base + _ancestor_contract(tree, "nab,nka->nkb", aug.A(N, r),
                                         H_bar, N, r)
        base = base + tree.broadcast(
            np.einsum("namb,nam->nb", aug.C(N, r), zeta[r]), r, N)
        psi_fields.append(base)
    psi_fields.append(np.zeros((tree.node_count(N), 3 * d)))
    psi = TerminalField(tree, psi_fields)

    problem = _linear_adjoint(psi, aug.A, aug.C, "delay_adjoint")
    sol = solve_bsvie(problem, tree, tol=tol, keep_above=False)

    # (p, q) is the transpose of the tripled rows applied to the adjoint:
    # the terminal pair (E[H_bar | F_r], zeta_r) is row N without its dt,
    # and each row i in (r, N) adds dt (E[Y(t_i) | F_r], Z(t_i, t_r)).
    # The sums start at -0.0, to which adding any float x gives x.
    p_fields, q_fields = [], []
    for r in range(N + 1):
        n = tree.node_count(r)
        p = np.full((n, d), -0.0)
        aug._add_rows_transpose(p, N, r, H_bar, depth=N)
        q = np.full((n, d, dp.m), -0.0 if r < N else 0.0)
        if r < N:
            aug._add_rows_transpose(q, N, r, zeta[r])
        for i in range(r + 1, N):
            aug._add_rows_transpose(p, i, r, sol.Y[i], dt, depth=i)
            aug._add_rows_transpose(q, i, r, sol.Z.entry(i, r), dt)
        p_fields.append(p)
        q_fields.append(q)
    return DelayAdjoint(zeta, sol, AdaptedProcess(tree, p_fields),
                        q_fields, H_bar)


def hamiltonian_gradients(dp: DelayProblem, traj: DelayTrajectory,
                          adjoint: DelayAdjoint, tree: Tree):
    """(G_u, G_mu) processes along the trajectory."""
    t = tree.times
    Gu, Gmu = [], []
    for r in range(tree.N + 1):
        theta = (t[r],) + traj.theta(r)
        p, q = adjoint.p[r], adjoint.q[r]
        gu = np.asarray(dp.l_u(*theta), dtype=float) \
            + np.einsum("nau,na->nu", np.asarray(dp.b_u(*theta)), p) \
            + np.einsum("namu,nam->nu", np.asarray(dp.sigma_u(*theta)), q)
        gm = np.asarray(dp.l_mu(*theta), dtype=float) \
            + np.einsum("nau,na->nu", np.asarray(dp.b_mu(*theta)), p) \
            + np.einsum("namu,nam->nu", np.asarray(dp.sigma_mu(*theta)), q)
        Gu.append(gu)
        Gmu.append(gm)
    return AdaptedProcess(tree, Gu), AdaptedProcess(tree, Gmu)


def delay_mp_check(dp: DelayProblem, u_star: AdaptedProcess, tree: Tree,
                   probe_count: int = 16, seed: int = 0,
                   traj: DelayTrajectory = None,
                   adjoint: DelayAdjoint = None) -> float:
    """Min over probes of the maximum-condition pairing.

    E int [<G_u, v - u*> + <G_mu, v(.-delta) - u*(.-delta)>] dt over probe
    controls that share the initial trajectory, so the delayed difference
    vanishes before the delay horizon; by the tower property this is the
    pairing of v - u* with :func:`delay_gradient`, to which ``traj`` and
    ``adjoint`` are passed.
    """
    return _stationarity_margin(
        tree, delay_gradient(dp, u_star, tree, traj=traj, adjoint=adjoint),
        u_star, dp.control_set, probe_count, seed)


def delay_gradient(dp: DelayProblem, u: AdaptedProcess, tree: Tree,
                   traj: DelayTrajectory = None,
                   adjoint: DelayAdjoint = None) -> AdaptedProcess:
    """Cost gradient in the control: the direct channel plus the delayed
    channel conditioned back to the decision time.  ``traj`` and
    ``adjoint``, when given, are the state and adjoint solves at u."""
    traj = traj or solve_delay_state(dp, u, tree)
    adjoint = adjoint or solve_delay_adjoint(dp, traj, tree)
    Gu, Gmu = hamiltonian_gradients(dp, traj, adjoint, tree)
    k = dp.delay_steps(tree)
    grads = []
    for r in range(tree.N + 1):
        g = Gu[r].copy() if r < tree.N else np.zeros_like(Gu[r])
        if r + k < tree.N:
            g += tree.conditional_expectation(Gmu[r + k], r + k, r)
        grads.append(g)
    return AdaptedProcess(tree, grads)


def delay_projected_gradient_search(dp: DelayProblem, u0: AdaptedProcess,
                                    tree: Tree, steps: int = 120,
                                    rate: float = 0.4) -> tuple:
    def step(u):
        traj = solve_delay_state(dp, u, tree)
        return (delay_gradient(dp, u, tree, traj=traj),
                cost_delay(dp, u, tree, traj=traj))

    return _descend(step, dp.control_set, u0, tree, steps, rate)
