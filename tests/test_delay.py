import numpy as np
import pytest

from svolterra import control as C
from svolterra import delay as D
from svolterra import registry as R
from svolterra.lattice import AdaptedProcess, Tree
from test_row_engine import linear_delay_problem


@pytest.fixture
def tree():
    return Tree(N=8, T=1.0, m=1)


@pytest.fixture
def dp():
    return R.delay_lq_instance(delta=0.25)


def random_control(tree, seed, scale=0.4):
    rng = np.random.default_rng(seed)
    return AdaptedProcess(tree, [scale * rng.normal(
        size=(tree.node_count(i), 1)) for i in range(tree.N + 1)])


class TestDelayProblem:
    def test_off_grid_delay_rejected(self, dp):
        tree = Tree(N=7, T=1.0, m=1)  # dt = 1/7, delta = 1/4 off grid
        with pytest.raises(ValueError):
            dp.delay_steps(tree)

    def test_window_weights_sum(self, dp, tree):
        gamma = dp.window_weights(tree)
        expected = (1.0 - np.exp(-dp.lam * dp.delta)) / dp.lam
        assert gamma.sum() == pytest.approx(expected, rel=1e-13)

    def test_derivative_probe_rejects_bad_maps(self):
        good = R.delay_lq_instance()
        import dataclasses
        with pytest.raises(ValueError):
            dataclasses.replace(
                good, b_x=lambda *args: np.full(args[1].shape + (1,), 9.9))


class TestDelayState:
    def test_initial_trajectory_respected(self, dp, tree):
        u = C.constant_control(tree, [0.0])
        traj = D.solve_delay_state(dp, u, tree)
        k = dp.delay_steps(tree)
        # before the delay horizon the delayed value reads off xi
        for i in range(k):
            expected = dp.xi(tree.times[i] - dp.delta)
            assert np.allclose(traj.y[i], expected)
        # afterwards it is the buffered state
        for i in range(k, tree.N + 1):
            assert np.allclose(traj.y[i],
                               tree.broadcast(traj.x[i - k], i - k, i))

    def test_window_average_matches_manual_sum(self, dp, tree):
        u = random_control(tree, 1)
        traj = D.solve_delay_state(dp, u, tree)
        k = dp.delay_steps(tree)
        gamma = dp.window_weights(tree)
        i = tree.N
        manual = sum(gamma[l] * tree.broadcast(traj.x[i - k + l],
                                               i - k + l, i)
                     for l in range(k))
        assert np.allclose(traj.z[i], manual, atol=1e-14)

    def test_cost_finite(self, dp, tree):
        u = C.constant_control(tree, [0.2])
        assert np.isfinite(D.cost_delay(dp, u, tree))


class TestAugmentedReduction:
    def test_first_component_matches_direct_recursion(self, dp, tree):
        u = C.constant_control(tree, [0.3])
        v = random_control(tree, 7)
        traj = D.solve_delay_state(dp, u, tree)
        aug = D.delay_to_svie(dp, u, v, tree, traj=traj)
        X = aug.solve()
        direct = D.solve_delay_variational_direct(dp, u, v, tree, traj=traj)
        worst = max(float(np.max(np.abs(X[i][:, 0:1] - direct[i])))
                    for i in range(tree.N + 1))
        assert worst <= 1e-10

    def test_second_component_is_delayed_first(self, dp, tree):
        u = C.constant_control(tree, [0.3])
        v = random_control(tree, 11)
        aug = D.delay_to_svie(dp, u, v, tree)
        X = aug.solve()
        k = dp.delay_steps(tree)
        for i in range(tree.N + 1):
            if i > k:
                expected = tree.broadcast(X[i - k][:, 0:1], i - k, i)
            else:
                expected = np.zeros((tree.node_count(i), 1))
            assert np.allclose(X[i][:, 1:2], expected, atol=1e-12)

    def test_third_component_is_window_average(self, dp, tree):
        u = C.constant_control(tree, [0.1])
        v = random_control(tree, 13)
        aug = D.delay_to_svie(dp, u, v, tree)
        X = aug.solve()
        k = dp.delay_steps(tree)
        gamma = dp.window_weights(tree)
        for i in range(tree.N + 1):
            manual = np.zeros((tree.node_count(i), 1))
            for l in range(k):
                q = i - k + l
                if q >= 0:
                    manual += gamma[l] * tree.broadcast(X[q][:, 0:1], q, i)
            assert np.allclose(X[i][:, 2:3], manual, atol=1e-12)


class TestDelayAdjoint:
    def test_terminal_field_reconstruction_exact(self, dp, tree):
        u = C.constant_control(tree, [0.2])
        traj = D.solve_delay_state(dp, u, tree)
        adj = D.solve_delay_adjoint(dp, traj, tree)
        mean = tree.conditional_expectation(adj.H_bar, tree.N, 0)
        recon = tree.broadcast(mean, 0, tree.N) \
            + tree.stochastic_integral(adj.zeta, 0, tree.N)
        assert np.max(np.abs(recon - adj.H_bar)) < 1e-13

    def test_m_condition_of_tripled_solution(self, dp, tree):
        from svolterra.backward import m_condition_residual
        u = C.constant_control(tree, [0.2])
        traj = D.solve_delay_state(dp, u, tree)
        adj = D.solve_delay_adjoint(dp, traj, tree)
        assert m_condition_residual(adj.solution, tree) < 1e-12

    def test_no_coupling_margin_zero(self, tree):
        # l, b, sigma independent of (u, mu): every probe margin vanishes
        dp = R.delay_lq_instance()
        import dataclasses
        dp0 = dataclasses.replace(
            dp,
            b=lambda t, x, y, z, u, mu: 0.2 * x,
            sigma=lambda t, x, y, z, u, mu: (0.1 * x)[:, :, None],
            l=lambda t, x, y, z, u, mu: 0.5 * x[:, 0] ** 2,
            b_y=lambda *a: np.zeros(a[1].shape + (1,)),
            b_z=lambda *a: np.zeros(a[1].shape + (1,)),
            b_u=lambda *a: np.zeros(a[1].shape + (1,)),
            b_mu=lambda *a: np.zeros(a[1].shape + (1,)),
            sigma_u=lambda *a: np.zeros(a[1].shape + (1, 1)),
            sigma_mu=lambda *a: np.zeros(a[1].shape + (1, 1)),
            l_y=lambda *a: np.zeros(a[1].shape),
            l_u=lambda *a: np.zeros((a[1].shape[0], 1)),
            l_mu=lambda *a: np.zeros((a[1].shape[0], 1)))
        u = C.constant_control(tree, [0.4])
        margin = D.delay_mp_check(dp0, u, tree, probe_count=4)
        assert abs(margin) < 1e-12

    def test_optimizer_reaches_stationarity(self, dp, tree):
        u0 = C.constant_control(tree, [0.5])
        u_star, trace = D.delay_projected_gradient_search(
            dp, u0, tree, steps=120, rate=0.4)
        assert trace["cost"][-1] <= trace["cost"][0]
        margin = D.delay_mp_check(dp, u_star, tree, probe_count=8)
        assert margin >= -1e-6


class TestDelayAdjointSinglePass:
    def test_residuals_at_n10(self):
        tree = Tree(N=10, T=1.0, m=1)
        dp = R.delay_lq_instance(delta=0.2)
        traj = D.solve_delay_state(dp, random_control(tree, 3), tree)
        diag = D.solve_delay_adjoint(dp, traj, tree).solution.diagnostics
        assert diag["sweeps"] == [1] * tree.N
        assert diag["m_condition_residual"] <= 1e-13
        assert diag["equation_residual"] <= 1e-13


class TestZeroDelayReduction:
    def test_gradient_matches_delay_free_toolkit(self, tree):
        dp = R.delay_lq_instance(with_delay_terms=False)
        cp = R.matched_volterra_instance(dp)
        u = C.constant_control(tree, [0.3])

        traj = D.solve_delay_state(dp, u, tree)
        adj = D.solve_delay_adjoint(dp, traj, tree)
        Gu, _ = D.hamiltonian_gradients(dp, traj, adj, tree)

        grad41 = C.mp_gradient(cp, u, tree)
        worst = max(float(np.max(np.abs(Gu[r] - grad41[r])))
                    for r in range(tree.N))
        assert worst <= 1e-8

    def test_state_recursions_agree(self, tree):
        dp = R.delay_lq_instance(with_delay_terms=False)
        cp = R.matched_volterra_instance(dp)
        u = C.constant_control(tree, [0.25])
        traj = D.solve_delay_state(dp, u, tree)
        X = C.solve_state(cp, u, tree)
        worst = max(float(np.max(np.abs(traj.x[i] - X[i])))
                    for i in range(tree.N + 1))
        assert worst <= 1e-12


class TestPQAccessor:
    def test_adjoint_pq_shapes(self, dp, tree):
        u = C.constant_control(tree, [0.2])
        traj = D.solve_delay_state(dp, u, tree)
        adj = D.solve_delay_adjoint(dp, traj, tree)
        assert adj.p[0].shape == (1, dp.d)
        assert adj.q[0].shape == (1, dp.d, dp.m)


def two_channel_margin(dp, u_star, tree, probe_count, seed):
    """The maximum-condition margin summed channel by channel: G_u paired
    with v - u* plus G_mu paired with the delayed difference, r >= k."""
    traj = D.solve_delay_state(dp, u_star, tree)
    adjoint = D.solve_delay_adjoint(dp, traj, tree)
    Gu, Gmu = D.hamiltonian_gradients(dp, traj, adjoint, tree)
    k = dp.delay_steps(tree)
    rng = np.random.default_rng(seed)
    probes = list(dp.control_set.extreme_points())
    probes.extend(dp.control_set.sample_interior(rng, probe_count))

    def margin(point):
        total = 0.0
        for r in range(tree.N):
            dv = np.tile(point, (tree.node_count(r), 1)) - u_star[r]
            total += tree.dt * float(tree.expectation(
                (Gu[r] * dv).sum(axis=1)))
            if r >= k:
                dmu = tree.broadcast(
                    np.tile(point, (tree.node_count(r - k), 1))
                    - u_star[r - k], r - k, r)
                total += tree.dt * float(tree.expectation(
                    (Gmu[r] * dmu).sum(axis=1)))
        return total

    return min(margin(point) for point in probes)


class TestDelayMargin:
    """``delay_mp_check`` pairs v - u* with ``delay_gradient``, which by the
    tower property is the two-channel sum up to rounding."""

    @pytest.mark.parametrize("N, lam, seed", [(4, 0.3, 0), (8, 1.5, 1),
                                              (8, 0.0, 2), (12, 0.3, 3)])
    def test_matches_two_channel_sum(self, N, lam, seed):
        tree = Tree(N=N, T=1.0, m=1)
        dp = R.delay_lq_instance(delta=0.25, lam=lam, box=2.0)
        u = random_control(tree, seed)
        want = two_channel_margin(dp, u, tree, probe_count=4, seed=seed)
        got = D.delay_mp_check(dp, u, tree, probe_count=4, seed=seed)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


# the 11 instances the (p, q) assembly is pinned on: delay_lq on three grids
# and three window rates, the zero-delay instance, and the d = 2 linear
# problem with a full M
def pq_instances():
    cases = [(f"delay_lq N={N} lam={lam}",
              lambda lam=lam: R.delay_lq_instance(lam=lam, box=2.0), N)
             for N in (4, 8, 12) for lam in (0.0, 0.3, 1.5)]
    cases.append(("zero_delay N=8",
                  lambda: R.delay_lq_instance(with_delay_terms=False), 8))
    cases.append(("linear_d2 N=6", linear_delay_problem, 6))
    return [pytest.param(make, N, id=name) for name, make, N in cases]


def ref_pq(dp, tree, adjoint):
    """(p, q) as the four semigroup-weighted sums over the x and delayed
    parts, written out term by term."""
    N, dt, d = tree.N, tree.dt, dp.d
    k, S = dp.delay_steps(tree), dp.semigroup(tree)
    sol, zeta, H_bar = adjoint.solution, adjoint.zeta, adjoint.H_bar
    hx, hy = H_bar[:, 0:d], H_bar[:, d:2 * d]
    p_fields, q_fields = [], []
    for r in range(N + 1):
        p = np.einsum("ba,nb->na", S[N - r],
                      tree.conditional_expectation(hx, N, r))
        if r < N - k:
            p += np.einsum("ba,nb->na", S[N - k - r],
                           tree.conditional_expectation(hy, N, r))
        zeta_r = zeta[r] if r < N else None
        q = np.einsum("ba,nbm->nam", S[N - r],
                      zeta_r[:, 0:d]) if zeta_r is not None \
            else np.zeros((tree.node_count(r), d, dp.m))
        if r < N - k and zeta_r is not None:
            q += np.einsum("ba,nbm->nam", S[N - k - r], zeta_r[:, d:2 * d])
        for i in range(r + 1, N):
            y0 = tree.conditional_expectation(sol.Y[i][:, 0:d], i, r)
            p += dt * np.einsum("ba,nb->na", S[i - r], y0)
            z0 = sol.Z.entry(i, r)[:, 0:d]
            q += dt * np.einsum("ba,nbm->nam", S[i - r], z0)
            if i > r + k:
                y1 = tree.conditional_expectation(sol.Y[i][:, d:2 * d],
                                                  i, r)
                p += dt * np.einsum("ba,nb->na", S[i - k - r], y1)
                z1 = sol.Z.entry(i, r)[:, d:2 * d]
                q += dt * np.einsum("ba,nbm->nam", S[i - k - r], z1)
        p_fields.append(p)
        q_fields.append(q)
    return AdaptedProcess(tree, p_fields), q_fields


def same_bits(xs, ys):
    return len(xs) == len(ys) and all(
        np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
        for x, y in zip(xs, ys))


class TestPQReference:
    @pytest.mark.parametrize("make, N", pq_instances())
    def test_pq_and_gradients_match_reference(self, make, N):
        import dataclasses
        dp, tree = make(), Tree(N=N, T=1.0, m=1)
        traj = D.solve_delay_state(dp, random_control(tree, 1), tree)
        adj = D.solve_delay_adjoint(dp, traj, tree)
        p, q = ref_pq(dp, tree, adj)
        assert same_bits(adj.p.values, p.values)
        assert same_bits(adj.q, q)
        got = D.hamiltonian_gradients(dp, traj, adj, tree)
        want = D.hamiltonian_gradients(
            dp, traj, dataclasses.replace(adj, p=p, q=q), tree)
        for g, w in zip(got, want):
            assert same_bits(g.values, w.values)


class TestDelayGradientIsCostDerivative:
    """The delay gradient paired with v - u is the derivative of the
    discrete cost along v - u; the costs here are quadratic in the
    control, so the central difference has no truncation error."""

    @pytest.mark.parametrize("make, N", [
        pytest.param(lambda: R.delay_lq_instance(lam=0.3), 4,
                     id="delay_lq N=4 lam=0.3"),
        pytest.param(lambda: R.delay_lq_instance(lam=1.5), 8,
                     id="delay_lq N=8 lam=1.5"),
        pytest.param(lambda: R.delay_lq_instance(lam=0.0), 12,
                     id="delay_lq N=12 lam=0"),
        pytest.param(linear_delay_problem, 6, id="linear_d2"),
    ])
    def test_central_difference(self, make, N):
        dp, tree, eps = make(), Tree(N=N, T=1.0, m=1), 1e-2
        u, v = random_control(tree, 5), random_control(tree, 6)

        def cost_at(s):
            return D.cost_delay(dp, AdaptedProcess(tree, [
                u[i] + s * (v[i] - u[i]) for i in range(tree.N + 1)]), tree)

        fd = (cost_at(eps) - cost_at(-eps)) / (2 * eps)
        pairing = C.pair_with_direction(tree, D.delay_gradient(dp, u, tree),
                                        v, u)
        assert abs(fd - pairing) <= 1e-12 * max(1.0, abs(pairing))


class TestControlDerivativeReads:
    MAPS = ("b_u", "b_mu", "sigma_u", "sigma_mu")

    def counted(self, dp):
        calls = dict.fromkeys(self.MAPS, 0)
        for name in self.MAPS:
            def wrapped(*args, _fn=getattr(dp, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            setattr(dp, name, wrapped)
        return calls

    def test_adjoint_reads_none(self, dp, tree):
        traj = D.solve_delay_state(dp, random_control(tree, 2), tree)
        calls = self.counted(dp)
        D.solve_delay_adjoint(dp, traj, tree)
        assert calls == dict.fromkeys(self.MAPS, 0)

    def test_variational_solve_reads_each_once_per_depth(self, dp, tree):
        u, v = random_control(tree, 2), random_control(tree, 3)
        calls = self.counted(dp)
        D.delay_to_svie(dp, u, v, tree).solve()
        # the forcing of cells (i, j), j < i <= N, is formed at depths
        # 0..N-1, once each
        assert calls == dict.fromkeys(self.MAPS, tree.N)
