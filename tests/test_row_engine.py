"""The shared forward Volterra row against hand-written reference rows.

Each reference below spells out its recursion the way the solvers did before
they shared ``forward._volterra_row``: per cell, repeat the drift onto the
row's depth and collect the integrand, then add one stochastic integral.
Forward recursions do no martingale representation, so the comparison is
exact at m = 2 as well as at m = 1.  The row itself carries its drift sum
at the shallowest depth it can; the last tests compare it bit for bit, sign
bits included, with a row that repeats every drift onto its depth, and
bound the bytes it repeats.
"""
import dataclasses

import numpy as np
import pytest

from svolterra import control as C
from svolterra import delay as D
from svolterra import forward as F
from svolterra import kernels as K
from svolterra import registry as R
from svolterra.lattice import AdaptedProcess, Tree

N = 6


def identical(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y)
                                    for x, y in zip(a, b))


def random_control(tree, du, seed):
    rng = np.random.default_rng(seed)
    return AdaptedProcess(tree, [0.4 * rng.normal(size=(tree.node_count(i),
                                                       du))
                                 for i in range(tree.N + 1)])


# -- forward.solve_lattice (tree path) --------------------------------------

def ref_solve_lattice(problem, tree):
    t = tree.times
    w = F._drift_weights(problem, tree)
    X = [problem.phi_field(tree, 0)]
    for i in range(1, tree.N + 1):
        acc = problem.phi_field(tree, i).copy()
        z_list = []
        for j in range(i):
            factor = np.asarray(problem.drift_factor(t[j], X[j]),
                                dtype=float)
            acc += tree.broadcast(w[i, j] * factor, j, i)
            z_list.append(np.asarray(problem.diffusion(t[i], t[j], X[j]),
                                     dtype=float))
        acc += tree.stochastic_integral(z_list, 0, i)
        X.append(acc)
    return X


@pytest.mark.parametrize("m", [1, 2])
def test_solve_lattice_row(m):
    tree = Tree(N=N, T=1.0, m=m)
    loads = np.array([0.3, -0.2][:m])
    p = F.SVIEProblem(
        1.0, lambda t: np.array([1.0 + t]), m=m,
        drift_kernel=K.make_fractional(0.7, K.CAUSAL),
        drift_factor=lambda s, x: -0.8 * x,
        diffusion=lambda t, s, x: (x + 0.1 * (t - s))[:, :, None] * loads)
    sol = F.solve_lattice(p, tree)
    assert identical(sol.X.values, ref_solve_lattice(p, tree))


# -- control.solve_variational ----------------------------------------------

def ref_solve_variational(cp, u_bar, v, tree, X):
    t = tree.times
    X1 = [np.zeros((1, cp.d))]
    for i in range(1, tree.N + 1):
        acc = np.zeros((tree.node_count(i), cp.d))
        z_list = []
        for j in range(i):
            du = v[j] - u_bar[j]
            bx = np.asarray(cp.b_x(t[i], t[j], X[j], u_bar[j]), dtype=float)
            bu = np.asarray(cp.b_u(t[i], t[j], X[j], u_bar[j]), dtype=float)
            acc += tree.broadcast(
                tree.dt * (np.einsum("nab,nb->na", bx, X1[j])
                           + np.einsum("nau,nu->na", bu, du)), j, i)
            sx = np.asarray(cp.sigma_x(t[i], t[j], X[j], u_bar[j]),
                            dtype=float)
            su = np.asarray(cp.sigma_u(t[i], t[j], X[j], u_bar[j]),
                            dtype=float)
            z_list.append(np.einsum("namb,nb->nam", sx, X1[j])
                          + np.einsum("namu,nu->nam", su, du))
        acc += tree.stochastic_integral(z_list, 0, i)
        X1.append(acc)
    return X1


def noise_control_problem(m):
    """The lq instance with m noise coordinates of different loadings."""
    base = R.lq_instance()
    sx, su = np.array([0.2, -0.1][:m]), np.array([0.3, 0.15][:m])
    return dataclasses.replace(
        base, m=m,
        sigma=lambda t, s, x, u: (x[:, :, None] * sx
                                  + u[:, :, None] * su) * (1.0 + t - s),
        sigma_x=lambda t, s, x, u: np.broadcast_to(
            (sx * (1.0 + t - s))[None, None, :, None],
            (x.shape[0], 1, m, 1)).copy(),
        sigma_u=lambda t, s, x, u: np.broadcast_to(
            (su * (1.0 + t - s))[None, None, :, None],
            (x.shape[0], 1, m, 1)).copy())


@pytest.mark.parametrize("m", [1, 2])
def test_solve_variational_row(m):
    tree = Tree(N=N, T=1.0, m=m)
    cp = noise_control_problem(m)
    u, v = random_control(tree, 1, 1), random_control(tree, 1, 2)
    X = C.solve_state(cp, u, tree)
    X1 = C.solve_variational(cp, u, v, tree, state=X)
    assert identical(X1.values, ref_solve_variational(cp, u, v, tree, X))


# -- control.variational_forcing --------------------------------------------

def ref_variational_forcing(cp, u_bar, v, tree, X):
    t = tree.times
    out = [np.zeros((1, cp.d))]
    for i in range(1, tree.N + 1):
        acc = np.zeros((tree.node_count(i), cp.d))
        z_list = []
        for j in range(i):
            du = v[j] - u_bar[j]
            bu = np.asarray(cp.b_u(t[i], t[j], X[j], u_bar[j]), dtype=float)
            acc += tree.broadcast(
                tree.dt * np.einsum("nau,nu->na", bu, du), j, i)
            su = np.asarray(cp.sigma_u(t[i], t[j], X[j], u_bar[j]),
                            dtype=float)
            z_list.append(np.einsum("namu,nu->nam", su, du))
        acc += tree.stochastic_integral(z_list, 0, i)
        out.append(acc)
    return out


@pytest.mark.parametrize("m", [1, 2])
def test_variational_forcing_row(m):
    tree = Tree(N=N, T=1.0, m=m)
    cp = noise_control_problem(m)
    u, v = random_control(tree, 1, 5), random_control(tree, 1, 6)
    X = C.solve_state(cp, u, tree)
    forcing = C.variational_forcing(cp, u, v, tree, state=X)
    assert identical(forcing.values,
                     ref_variational_forcing(cp, u, v, tree, X))


# -- delay.AugmentedDelaySVIE.solve -----------------------------------------

def ref_augmented_solve(aug):
    tree = aug.tree
    X = [np.zeros((1, 3 * aug.dp.d))]
    for i in range(1, tree.N + 1):
        acc = np.zeros((tree.node_count(i), 3 * aug.dp.d))
        z_list = []
        for j in range(i):
            Bvec, Dmat = aug.forcing(i, j)
            acc += tree.broadcast(
                tree.dt * (np.einsum("nab,nb->na", aug.A(i, j), X[j])
                           + Bvec), j, i)
            z_list.append(np.einsum("namb,nb->nam", aug.C(i, j), X[j])
                          + Dmat)
        acc += tree.stochastic_integral(z_list, 0, i)
        X.append(acc)
    return X


def noise_delay_problem(m):
    """The delay_lq instance with m noise coordinates on x and u and the
    delay on the N = 6 grid."""
    base = R.delay_lq_instance(delta=1.0 / 3.0)
    sx, su = np.array([0.1, 0.05][:m]), np.array([0.25, -0.1][:m])

    def const(vals):
        return lambda t, x, y, z, u, mu: np.broadcast_to(
            vals[None, None, :, None], (x.shape[0], 1, m, 1)).copy()

    return dataclasses.replace(
        base, m=m,
        sigma=lambda t, x, y, z, u, mu: x[:, :, None] * sx
        + u[:, :, None] * su,
        sigma_x=const(sx), sigma_u=const(su), sigma_y=const(0.0 * sx),
        sigma_z=const(0.0 * sx), sigma_mu=const(0.0 * sx))


@pytest.mark.parametrize("m", [1, 2])
def test_augmented_delay_row(m):
    tree = Tree(N=N, T=1.0, m=m)
    dp = noise_delay_problem(m)
    u, v = random_control(tree, 1, 3), random_control(tree, 1, 4)
    aug = D.delay_to_svie(dp, u, v, tree)
    X = aug.solve()
    assert identical(X.values, ref_augmented_solve(aug))
    # the first block still matches the independent direct recursion
    direct = D.solve_delay_variational_direct(dp, u, v, tree,
                                              traj=aug.traj)
    gap = max(float(np.max(np.abs(X[i][:, 0:1] - direct[i])))
              for i in range(tree.N + 1))
    assert gap <= 1e-12


# -- delay.AugmentedDelaySVIE blocks at d = 2 --------------------------------

def linear_delay_problem(d=2, m=1):
    """A linear delay problem with constant coefficient matrices, the delay
    on the N = 6 grid and a quadratic cost."""
    rng = np.random.default_rng(8)
    bx, by, bz = (0.3 * rng.normal(size=(d, d)) for _ in range(3))
    bu, bmu = (0.3 * rng.normal(size=(d, 1)) for _ in range(2))
    sx, sy, sz = (0.2 * rng.normal(size=(d, m, d)) for _ in range(3))
    su, smu = (0.2 * rng.normal(size=(d, m, 1)) for _ in range(2))

    def const(mat):
        return lambda t, x, y, z, u, mu: np.broadcast_to(
            mat, (x.shape[0],) + mat.shape).copy()

    def b(t, x, y, z, u, mu):
        return x @ bx.T + y @ by.T + z @ bz.T + u @ bu.T + mu @ bmu.T

    def sigma(t, x, y, z, u, mu):
        return sum(np.einsum("amc,nc->nam", mat, arg) for mat, arg in
                   [(sx, x), (sy, y), (sz, z), (su, u), (smu, mu)])

    def zero(t, x, y, z, u, mu):
        return np.zeros_like(x)

    return D.DelayProblem(
        horizon=1.0, M=np.array([[-0.5, 0.2], [0.1, -0.3]]),
        delta=1.0 / 3.0, lam=0.3, b=b, sigma=sigma,
        b_x=const(bx), b_y=const(by), b_z=const(bz), b_u=const(bu),
        b_mu=const(bmu), sigma_x=const(sx), sigma_y=const(sy),
        sigma_z=const(sz), sigma_u=const(su), sigma_mu=const(smu),
        l=lambda t, x, y, z, u, mu: 0.5 * ((x ** 2).sum(axis=1)
                                           + (u ** 2).sum(axis=1)),
        l_x=lambda t, x, y, z, u, mu: x, l_y=zero, l_z=zero,
        l_u=lambda t, x, y, z, u, mu: u,
        l_mu=lambda t, x, y, z, u, mu: np.zeros_like(mu),
        h=lambda x, y, z: 0.5 * (x ** 2).sum(axis=1),
        h_x=lambda x, y, z: x, h_y=lambda x, y, z: 0.0 * y,
        h_z=lambda x, y, z: 0.0 * z,
        xi=lambda t: np.array([1.0 + 0.5 * t, -0.5 * t]),
        eta=lambda t: np.array([0.1]),
        control_set=C.BoxControlSet((-5.0,), (5.0,)), d=d, m=m)


def ref_augmented_blocks(aug, i, j):
    """A(i, j), C(i, j) and the forcing pair written one (d, d) block at a
    time."""
    dp, tree, d, k = aug.dp, aug.tree, aug.dp.d, aug.k
    n, m = tree.node_count(j), dp.m
    theta = (tree.times[j],) + aug.traj.theta(j)
    du = aug.du_field[j]
    dmu = tree.broadcast(aug.du_field[j - k], j - k, j) if j >= k \
        else np.zeros((n, dp.du))
    db = np.einsum("nau,nu->na", dp.b_u(*theta), du) \
        + np.einsum("nau,nu->na", dp.b_mu(*theta), dmu)
    ds = np.einsum("namu,nu->nam", dp.sigma_u(*theta), du) \
        + np.einsum("namu,nu->nam", dp.sigma_mu(*theta), dmu)
    A = np.zeros((n, 3 * d, 3 * d))
    Cm = np.zeros((n, 3 * d, m, 3 * d))
    B = np.zeros((n, 3 * d))
    Dm = np.zeros((n, 3 * d, m))
    lags = [(0, aug.S[i - j])]
    if i - j > k:
        lags.append((1, aug.S[i - j - k]))
    for row, lag in lags:
        r = slice(row * d, (row + 1) * d)
        for blk, (fb, fs) in enumerate([(dp.b_x, dp.sigma_x),
                                        (dp.b_y, dp.sigma_y),
                                        (dp.b_z, dp.sigma_z)]):
            c = slice(blk * d, (blk + 1) * d)
            A[:, r, c] = np.einsum("ab,nbc->nac", lag, fb(*theta))
            Cm[:, r, :, c] = np.einsum("ab,nbmc->namc", lag, fs(*theta))
        B[:, r] = np.einsum("ab,nb->na", lag, db)
        Dm[:, r] = np.einsum("ab,nbm->nam", lag, ds)
    if 0 < i - j <= k:
        A[:, 2 * d:3 * d, 0:d] = aug.gamma[k - (i - j)] / tree.dt * np.eye(d)
    return A, Cm, B, Dm


def test_augmented_delay_blocks_d2():
    tree = Tree(N=N, T=1.0, m=1)
    dp = linear_delay_problem()
    u, v = random_control(tree, 1, 7), random_control(tree, 1, 9)
    aug = D.delay_to_svie(dp, u, v, tree)
    for i in range(1, tree.N + 1):
        for j in range(i):
            built = (aug.A(i, j), aug.C(i, j)) + aug.forcing(i, j)
            for got, ref in zip(built, ref_augmented_blocks(aug, i, j)):
                np.testing.assert_allclose(got, ref, rtol=1e-15, atol=1e-15)
    X = aug.solve()
    direct = D.solve_delay_variational_direct(dp, u, v, tree, traj=aug.traj)
    gap = max(float(np.max(np.abs(X[i][:, 0:2] - direct[i])))
              for i in range(tree.N + 1))
    assert gap <= 1e-12


# -- forward._volterra_row: the drift sum carried at the shallowest depth ----

def ref_row(tree, i, start, cell):
    """The row with the free term and every drift repeated onto depth i."""
    acc = tree.broadcast(start, 0 if len(start) == 1 else i, i)
    z_list = []
    for j in range(i):
        drift, z = cell(j)
        if drift is not None:
            acc += tree.broadcast(drift, j, i)
        if z is not None:
            z_list.append(z)
    if z_list:
        acc += tree.stochastic_integral(z_list, 0, i)
    return acc


def same_bits(a, b):
    return np.array_equal(a, b) and \
        np.array_equal(np.signbit(a), np.signbit(b))


def signed_field(rng, shape):
    """Normal draws with every third entry a zero of the draw's sign."""
    x = rng.normal(size=shape).reshape(-1)
    x[::3] = np.copysign(0.0, x[::3])
    return x.reshape(shape)


@pytest.mark.parametrize("cells", ["all", "odd_drifts", "no_noise",
                                   "no_drift"])
@pytest.mark.parametrize("start_at", ["depth_0", "depth_i"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_carried_row_is_the_broadcast_row(m, d, start_at, cells):
    tree = Tree(N=5, T=1.0, m=m)
    rng = np.random.default_rng(100 * m + d)
    drifts = [signed_field(rng, (tree.node_count(j), d))
              for j in range(tree.N)]
    zs = [signed_field(rng, (tree.node_count(j), d, m))
          for j in range(tree.N)]

    def cell(j):
        drift = None if cells == "no_drift" or \
            (cells == "odd_drifts" and j % 2 == 0) else drifts[j]
        return drift, None if cells == "no_noise" else zs[j]

    for i in range(tree.N + 1):
        rows = 1 if start_at == "depth_0" else tree.node_count(i)
        start = signed_field(rng, (rows, d))
        kept = start.copy()
        row = F._volterra_row(tree, i, start, cell)
        assert row.shape == (tree.node_count(i), d)
        assert same_bits(row, ref_row(tree, i, start, cell))
        assert same_bits(start, kept)  # the free term is not written to


@pytest.mark.parametrize("N", [10, 14])
def test_solve_state_broadcasts_four_leaf_fields(monkeypatch, N):
    # each row repeats its carry one level at a time, about 2 (m+1)^i
    # nodes; repeating every drift onto depth i read 18 and 26 leaf fields
    tree, cp = Tree(N=N, T=1.0), R.lq_instance()
    u = C.constant_control(tree, [0.3])
    nbytes = []
    broadcast = Tree.broadcast

    def counted(self, *args):
        out = broadcast(self, *args)
        nbytes.append(out.nbytes)
        return out

    monkeypatch.setattr(Tree, "broadcast", counted)
    C.solve_state(cp, u, tree)
    assert sum(nbytes) <= 4 * tree.node_count(N) * cp.d * 8
