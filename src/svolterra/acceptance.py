"""Oracle-based acceptance criteria, runnable from pytest or the CLI.

Each criterion returns a :class:`CriterionResult` with a pass flag, the
measured quantities, and its elapsed time; the stated runtime budget is
part of the pass condition.  The dense linear-system assembler used by
criterion 7 lives here so the experiment runner can invoke it without the
test tree.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import backward as bwd
from . import control as ctl
from . import delay as dly
from . import forward as fwd
from . import kernels as K
from . import registry as reg
from .lattice import Tree, ito_isometry_check, terminal_from_function
from .special import mittag_leffler

# frozen regression bounds for the stability-ratio criterion; the
# reference configuration measures ~0.62 (forward) and ~0.81 (backward)
# across all perturbation magnitudes
FORWARD_STABILITY_BOUND = 2.0
BACKWARD_STABILITY_BOUND = 2.0


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    elapsed: float
    budget_seconds: float
    details: dict = field(default_factory=dict)

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.index:2d} - {self.name} "
                f"({self.elapsed:.2f}s / budget {self.budget_seconds:.0f}s)")


def _c(index, name, budget):
    """Criterion ``index``: ``fn() -> (passed, details)`` timed against
    ``budget`` seconds into a :class:`CriterionResult`."""
    def deco(fn):
        def run():
            t0 = time.perf_counter()
            passed, details = fn()
            elapsed = time.perf_counter() - t0
            if elapsed >= budget:
                details["budget_exceeded"] = True
            return CriterionResult(index, name, passed and elapsed < budget,
                                   elapsed, budget, details)
        run.index, run.name = index, name
        return run
    return deco


@_c(1, "doubly singular classification table", 10.0)
def criterion_1():
    grid = (0.0, 0.1, 0.2, 0.3, 0.4)
    table = {}
    ok = True
    for a in grid:
        for b in grid:
            rep = K.classify(K.make_doubly_singular(a, b, horizon=1.0),
                             eps_grid=(2.0, 1.0))
            table[f"({a},{b})"] = (rep.in_L2, rep.in_scriptL2)
            ok = ok and rep.in_L2 and (rep.in_scriptL2 == (b == 0.0))
    return ok, {"table": {k: list(v) for k, v in table.items()},
                "eps_grid": [2.0, 1.0]}


@_c(2, "sliced-sup / partition counterexample pair", 5.0)
def criterion_2():
    k1 = K.make_counterexample_sup(1.0)
    sn_sq = K.script_norm(k1) ** 2
    part = K.find_partition(k1, 1.0)
    first_ok = (2.0 - 1e-3 <= sn_sq <= 2.0 + 1e-3) \
        and isinstance(part, K.PartitionInfeasible) \
        and part.reason == "mathematical"

    k2 = K._shifted_inverse_sqrt(1.0)
    rep = K.classify(k2, eps_grid=K.DEFAULT_EPS_GRID)
    second_ok = rep.script_norm == math.inf and all(
        isinstance(p, K.Partition) for p in rep.partition_results.values())
    details = {"script_norm_sq": sn_sq,
               "partition_reason": getattr(part, "reason", "feasible"),
               "witness_t": getattr(part, "witness_t", None),
               "divergent_script_norm": rep.script_norm == math.inf}
    return first_ok and second_ok, details


@_c(3, "fractional relaxation vs series oracle", 10.0)
def criterion_3():
    alpha, lam = 0.75, -1.0
    errs = []
    for N in (32, 64, 128, 256):
        tree = Tree(N=N, T=1.0, m=0)
        sol = fwd.solve_lattice(reg.fractional_relaxation(alpha, lam), tree)
        exact = [mittag_leffler(alpha, 1.0, lam * ti ** alpha)
                 for ti in tree.times]
        errs.append(max(abs(sol.X[i][0, 0] - exact[i])
                        for i in range(N + 1)))
    monotone = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    return errs[-1] <= 5e-3 and monotone, {
        "sup_errors": errs, "monotone": monotone}


@_c(4, "representation and isometry identities", 5.0)
def criterion_4():
    tree = Tree(N=8, T=1.0, m=1)
    worst_m = worst_iso = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        a, b, c = rng.uniform(-0.5, 0.5, size=3)
        psi = terminal_from_function(
            tree, lambda t, w: np.sin(w[:, 0] + t) + 0.3 * t)
        p = bwd.BSVIEProblem(psi, [bwd.GeneratorTerm(
            lambda i, j, y, z1, z2:
            a * y + b * z1[:, :, 0:1].reshape(y.shape)
            + c * z2[:, :, 0:1].reshape(y.shape))])
        sol = bwd.solve_bsvie(p, tree, tol=1e-13)
        worst_m = max(worst_m, bwd.m_condition_residual(sol, tree))
        z_row = [sol.Z.entry(tree.N, j) for j in range(tree.N)]
        worst_iso = max(worst_iso,
                        ito_isometry_check(tree, z_row, 0, tree.N))
        z_rand = [rng.normal(size=(tree.node_count(j), 1, 1))
                  for j in range(tree.N)]
        worst_iso = max(worst_iso,
                        ito_isometry_check(tree, z_rand, 0, tree.N))
    return worst_m <= 1e-12 and worst_iso <= 1e-12, {
        "m_condition_residual": worst_m, "isometry_residual": worst_iso}


@_c(5, "reduction to the plain backward equation", 5.0)
def criterion_5():
    tree = Tree(N=8, T=1.0, m=1)
    psi = terminal_from_function(tree, lambda t, w: np.sin(w[:, 0]))
    cy, cz1 = -0.5, 0.3
    p = bwd.BSVIEProblem(psi, [bwd.GeneratorTerm(
        lambda i, j, y, z1, z2: cy * y + cz1 * z1[:, :, 0:1].reshape(y.shape))])
    sol = bwd.solve_bsvie(p, tree, tol=1e-13)
    Yb, Zb = bwd.solve_bsde(
        psi[0], lambda s, y, z: cy * y + cz1 * z[:, :, 0:1].reshape(y.shape),
        tree, y_scheme="implicit")
    worst_y = max(float(np.max(np.abs(sol.Y[i] - Yb[i])))
                  for i in range(tree.N + 1))
    worst_z = max(float(np.max(np.abs(sol.Z.entry(i, j) - Zb[j])))
                  for i in range(tree.N + 1) for j in range(i, tree.N))
    return worst_y <= 1e-10 and worst_z <= 1e-10, {
        "max_Y_discrepancy": worst_y, "max_Z_discrepancy": worst_z}


@_c(6, "sweep vs blockwise method agreement", 30.0)
def criterion_6():
    tree = Tree(N=6, T=1.0, m=1)
    gaps = {}
    ok = True
    for name, builder in reg.BACKWARD_PROBLEMS.items():
        p = builder(tree)
        s_fp = bwd.solve_bsvie(p, tree, method="fixed_point", tol=1e-12)
        s_bl = bwd.solve_bsvie(p, tree, method="block", tol=1e-12)
        gap = max(float(np.max(np.abs(s_fp.Y[i] - s_bl.Y[i])))
                  for i in range(tree.N + 1))
        gap_z = max(float(np.max(np.abs(s_fp.Z.entry(i, j)
                                        - s_bl.Z.entry(i, j))))
                    for i in range(tree.N + 1) for j in range(tree.N))
        gaps[name] = max(gap, gap_z)
        ok = ok and gaps[name] <= 1e-8
    return ok, {"max_discrepancy": gaps}


def dense_linear_bsvie_solve(problem: bwd.BSVIEProblem, tree: Tree):
    """Assemble every leaf instance of the equation and the representation
    identity into one dense linear system and solve it by least squares.

    Scalar state, m >= 1 noise coordinates; generators must be affine in
    (y, z1, z2), with coefficients probed per coordinate.  A leaf's
    ancestors and increments come from the base-(m+1) digits of its code
    and ``tree.branches``, not from the tree's own integral.  Returns
    (Y fields, Z fields of shape (nodes_j, m), max fit residual).
    """
    N, m, nb = tree.N, tree.m, tree.m + 1
    L = tree.node_count(N)
    sizes_y = [tree.node_count(i) for i in range(N + 1)]
    sizes_z = [tree.node_count(j) for j in range(N)]
    yoff, off = {}, 0
    for i in range(N + 1):
        yoff[i] = off
        off += sizes_y[i]
    zoff = {}
    for i in range(N + 1):
        for j in range(N):
            zoff[(i, j)] = off
            off += sizes_z[j] * m

    def anc(leaf, depth):
        return leaf // nb ** (N - depth)

    def zs(cell, leaf, depth):
        start = zoff[cell] + anc(leaf, depth) * m
        return slice(start, start + m)

    # step j's increment is the simplex row of digit j of the leaf code
    dW = np.empty((N, L, m))
    for j in range(N):
        for leaf in range(L):
            dW[j, leaf] = tree.sqrt_dt * tree.branches[anc(leaf, j + 1) % nb]

    tables = bwd._term_weights(problem.terms, tree)
    one, zero = np.ones((1, 1)), np.zeros((1, 1))
    z_zero, units = np.zeros((1, 1, m)), np.eye(m).reshape(m, 1, 1, m)

    def coeffs(term, i, j):
        cy = np.asarray(term.fn(i, j, one, z_zero, z_zero)).item()
        cz1 = np.array([np.asarray(term.fn(i, j, zero, e, z_zero)).item()
                        for e in units])
        cz2 = np.array([np.asarray(term.fn(i, j, zero, z_zero, e)).item()
                        for e in units])
        return cy, cz1, cz2

    rows, rhs = [], []
    for i in range(N + 1):
        psi_i = problem.psi.at(i, N)
        cells = [(j, [(tables[idx][i, j], coeffs(term, i, j))
                      for idx, term in enumerate(problem.terms)
                      if tables[idx][i, j] != 0.0]) for j in range(i, N)]
        for leaf in range(L):
            row = np.zeros(off)
            row[yoff[i] + anc(leaf, i)] += 1.0
            for j, live in cells:
                target = (i, i) if j == i else (j, i)
                for w, (cy, cz1, cz2) in live:
                    row[yoff[j] + anc(leaf, j)] -= w * cy
                    row[zs((i, j), leaf, j)] -= w * cz1
                    row[zs(target, leaf, i)] -= w * cz2
                row[zs((i, j), leaf, j)] += dW[j, leaf]
            rows.append(row)
            rhs.append(float(psi_i[leaf, 0]))
        for leaf in range(L):
            row = np.zeros(off)
            row[yoff[i] + anc(leaf, i)] += 1.0
            row[yoff[i]:yoff[i] + sizes_y[i]] -= 1.0 / sizes_y[i]
            for j in range(i):
                row[zs((i, j), leaf, j)] -= dW[j, leaf]
            rows.append(row)
            rhs.append(0.0)

    A = np.asarray(rows)
    b = np.asarray(rhs)
    u = np.linalg.lstsq(A, b, rcond=None)[0]
    fit = float(np.max(np.abs(A @ u - b)))
    Y = [u[yoff[i]:yoff[i] + sizes_y[i]] for i in range(N + 1)]
    Z = {(i, j): u[zoff[(i, j)]:zoff[(i, j)] + sizes_z[j] * m].reshape(
        sizes_z[j], m) for i in range(N + 1) for j in range(N)}
    return Y, Z, fit


@_c(7, "dense linear-system oracle", 30.0)
def criterion_7():
    tree = Tree(N=6, T=1.0, m=1)
    worst = 0.0
    fits = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cy, cz1, cz2 = rng.uniform(-0.6, 0.6, size=3)
        psi = terminal_from_function(
            tree, lambda t, w: np.tanh(w[:, 0]) + 0.4 * t)
        p = bwd.BSVIEProblem(psi, [bwd.GeneratorTerm(
            lambda i, j, y, z1, z2:
            cy * y + cz1 * z1[:, :, 0:1].reshape(y.shape)
            + cz2 * z2[:, :, 0:1].reshape(y.shape))])
        sol = bwd.solve_bsvie(p, tree, tol=1e-13)
        Yd, Zd, fit = dense_linear_bsvie_solve(p, tree)
        fits.append(fit)
        for i in range(tree.N + 1):
            worst = max(worst, float(np.max(np.abs(sol.Y[i][:, 0] - Yd[i]))))
            for j in range(tree.N):
                worst = max(worst, float(np.max(np.abs(
                    sol.Z.entry(i, j)[:, 0] - Zd[(i, j)]))))
    return worst <= 1e-10, {"max_discrepancy": worst,
                            "assembler_fit": max(fits)}


@_c(8, "duality principle at machine precision", 20.0)
def criterion_8():
    tree = Tree(N=6, T=1.0, m=1)
    gaps = {}
    rng = np.random.default_rng(0)

    def rand_u(seed):
        r = np.random.default_rng(seed)
        return ctl.AdaptedProcess(tree, [0.5 * r.normal(
            size=(tree.node_count(i), 1)) for i in range(tree.N + 1)])

    lq = reg.lq_instance()
    gaps["lq"] = ctl.duality_gap(lq, rand_u(1), rand_u(2), tree)
    for seed in range(5):
        cp = reg.random_linear_instance(seed)
        gaps[f"random_{seed}"] = ctl.duality_gap(
            cp, rand_u(10 + seed), rand_u(20 + seed), tree)
    ok = all(v <= 1e-10 for v in gaps.values())
    return ok, {"gaps": gaps}


@_c(9, "first-order consistency and stationarity", 30.0)
def criterion_9():
    tree = Tree(N=6, T=1.0, m=1)
    lq = reg.lq_instance()
    u = ctl.constant_control(tree, [0.3])
    v = ctl.constant_control(tree, [-0.8])
    out = ctl.fd_cost_derivative(lq, u, v, tree, eps_list=(1e-2, 1e-3, 1e-4))
    e = out["errors"]
    ratios = [e[0] / e[1], e[1] / e[2]]
    slope_ok = all(5.0 <= r <= 20.0 for r in ratios)

    u0 = ctl.constant_control(tree, [1.0])
    u_bar, _ = ctl.projected_gradient_search(lq, u0, tree, steps=300,
                                             rate=0.5)
    margin = ctl.check_stationarity(lq, u_bar, tree, probe_count=16)
    return slope_ok and margin >= -1e-6, {
        "error_ratios": ratios, "stationarity_margin": margin,
        "fd_table": out}


@_c(10, "delay rewriting and delay-free reduction", 20.0)
def criterion_10():
    tree = Tree(N=8, T=1.0, m=1)
    dp = reg.delay_lq_instance(delta=0.25)
    u = ctl.constant_control(tree, [0.3])
    rng = np.random.default_rng(4)
    v = ctl.AdaptedProcess(tree, [0.4 * rng.normal(
        size=(tree.node_count(i), 1)) for i in range(tree.N + 1)])
    traj = dly.solve_delay_state(dp, u, tree)
    aug = dly.delay_to_svie(dp, u, v, tree, traj=traj)
    X = aug.solve()
    direct = dly.solve_delay_variational_direct(dp, u, v, tree, traj=traj)
    gap_var = max(float(np.max(np.abs(X[i][:, 0:1] - direct[i])))
                  for i in range(tree.N + 1))

    dp0 = reg.delay_lq_instance(with_delay_terms=False)
    cp0 = reg.matched_volterra_instance(dp0)
    traj0 = dly.solve_delay_state(dp0, u, tree)
    adj0 = dly.solve_delay_adjoint(dp0, traj0, tree)
    Gu, _ = dly.hamiltonian_gradients(dp0, traj0, adj0, tree)
    grad41 = ctl.mp_gradient(cp0, u, tree)
    gap_grad = max(float(np.max(np.abs(Gu[r] - grad41[r])))
                   for r in range(tree.N))
    return gap_var <= 1e-10 and gap_grad <= 1e-8, {
        "variational_gap": gap_var, "gradient_gap": gap_grad}


@_c(11, "stability-ratio regression bounds", 20.0)
def criterion_11():
    tree = Tree(N=6, T=1.0, m=1)
    fratios, bratios = [], []
    for delta in (1e-1, 1e-2, 1e-3):
        base = reg.fractional_relaxation(0.75, -1.0, m=1)
        pert = reg.fractional_relaxation(0.75, -1.0, m=1)
        pert.phi = lambda t, d=delta: np.array([1.0 + d])
        fratios.append(fwd.stability_gap(base, pert, tree))

        psi = terminal_from_function(tree, lambda t, w: np.sin(w[:, 0]))
        psi2 = terminal_from_function(
            tree, lambda t, w, d=delta: np.sin(w[:, 0]) + d)
        term = [bwd.GeneratorTerm(lambda i, j, y, z1, z2: -0.5 * y)]
        pb = bwd.BSVIEProblem(psi, list(term))
        pb2 = bwd.BSVIEProblem(psi2, list(term))
        bratios.append(bwd.stability_gap_bsvie(pb, pb2, tree))
    ok = max(fratios) <= FORWARD_STABILITY_BOUND \
        and max(bratios) <= BACKWARD_STABILITY_BOUND
    return ok, {"forward_ratios": fratios, "backward_ratios": bratios,
                "bounds": [FORWARD_STABILITY_BOUND,
                           BACKWARD_STABILITY_BOUND]}


@_c(12, "fractional-Brownian kernel bound", 10.0)
def criterion_12():
    fitted = {}
    ok = True
    for H in (0.3, 0.7):
        kern = K.make_fbm_full(H, horizon=1.0)
        ts = np.linspace(0.02, 0.99, 50)
        worst_ratio = 0.0
        vals = []
        for t in ts:
            ss = np.linspace(0.01, t * 0.98, 50)
            kv = np.asarray(kern(t, ss), dtype=float)
            shape = ss ** (-abs(H - 0.5)) \
                * (t - ss) ** (-max(0.5 - H, 0.0))
            ratio = kv / shape
            worst_ratio = max(worst_ratio, float(np.max(ratio)))
            vals.append((kv, shape))
        fitted[H] = worst_ratio
        for kv, shape in vals:
            if np.any(kv > worst_ratio * shape + 1e-9):
                ok = False
    # a single constant must also cover both Hurst values
    C = max(fitted.values())
    ok = ok and math.isfinite(C) and C > 0
    return ok, {"fitted_constants": fitted, "shared_constant": C}


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10, criterion_11, criterion_12]

