import tracemalloc

import numpy as np
import pytest

from svolterra import control as C
from svolterra import registry as R
from svolterra.lattice import AdaptedProcess, TerminalField, Tree


@pytest.fixture
def tree():
    return Tree(N=6, T=1.0, m=1)


@pytest.fixture
def lq():
    return R.lq_instance()


def random_control(tree, seed, du=1, scale=0.5):
    rng = np.random.default_rng(seed)
    return AdaptedProcess(tree, [scale * rng.normal(
        size=(tree.node_count(i), du)) for i in range(tree.N + 1)])


class TestControlSets:
    def test_box_projection_and_extremes(self):
        U = C.BoxControlSet((-1.0, 0.0), (1.0, 2.0))
        assert np.allclose(U.project(np.array([5.0, -3.0])), [1.0, 0.0])
        pts = U.extreme_points()
        assert pts.shape == (4, 2)

    def test_ball_projection(self):
        U = C.BallControlSet((0.0,), 2.0)
        assert U.project(np.array([5.0]))[0] == pytest.approx(2.0)
        assert U.project(np.array([1.0]))[0] == pytest.approx(1.0)

    def test_interior_samples_feasible(self):
        U = C.BoxControlSet((-1.0,), (1.0,))
        rng = np.random.default_rng(0)
        pts = U.sample_interior(rng, 50)
        assert np.all(pts >= -1.0) and np.all(pts <= 1.0)


class TestDerivativeProbe:
    def test_wrong_derivative_rejected(self):
        base = R.lq_instance()
        with pytest.raises(ValueError):
            C.ControlProblem(
                horizon=1.0, phi=base.phi, b=base.b, sigma=base.sigma,
                b_x=lambda t, s, x, u: np.full(x.shape + (1,), 99.0),
                b_u=base.b_u, sigma_x=base.sigma_x, sigma_u=base.sigma_u,
                g=base.g, g_x=base.g_x, g_u=base.g_u,
                control_set=base.control_set)


class TestStateAndCost:
    def test_zero_control_state_matches_uncontrolled(self, tree, lq):
        u = C.constant_control(tree, [0.0])
        X = C.solve_state(lq, u, tree)
        assert X[0][0, 0] == pytest.approx(1.0)
        assert np.all(np.isfinite(X[tree.N]))

    def test_cost_nonnegative_quadratic(self, tree, lq):
        u = C.constant_control(tree, [0.5])
        assert C.cost(lq, u, tree) > 0.0


class TestDuality:
    def test_gap_zero_when_control_free(self, tree):
        base = R.lq_instance()
        cp = C.ControlProblem(
            horizon=1.0, phi=base.phi,
            b=lambda t, s, x, u: 0.3 * x,
            sigma=lambda t, s, x, u: (0.2 * x)[:, :, None],
            b_x=lambda t, s, x, u: np.full(x.shape + (1,), 0.3),
            b_u=lambda t, s, x, u: np.zeros(x.shape + (1,)),
            sigma_x=lambda t, s, x, u: np.full(x.shape + (1, 1), 0.2),
            sigma_u=lambda t, s, x, u: np.zeros(x.shape + (1, 1)),
            g=base.g, g_x=base.g_x, g_u=base.g_u,
            control_set=base.control_set)
        u = C.constant_control(tree, [0.4])
        v = C.constant_control(tree, [-0.6])
        assert C.duality_gap(cp, u, v, tree) < 1e-14

    def test_lq_duality_gap_machine_precision(self, tree, lq):
        u = C.constant_control(tree, [0.4])
        v = random_control(tree, 5)
        assert C.duality_gap(lq, u, v, tree) <= 1e-10

    def test_random_linear_instances_five_seeds(self, tree):
        for seed in range(5):
            cp = R.random_linear_instance(seed)
            u = random_control(tree, 100 + seed)
            v = random_control(tree, 200 + seed)
            assert C.duality_gap(cp, u, v, tree) <= 1e-10


class TestAdjointSinglePass:
    def test_residuals_and_gap_at_n10(self, lq):
        tree = Tree(N=10, T=1.0, m=1)
        u = random_control(tree, 7)
        v = random_control(tree, 8)
        X = C.solve_state(lq, u, tree)
        adj = C.solve_adjoint(lq, X, u, tree)
        diag = adj.diagnostics
        assert diag["sweeps"] == [1] * tree.N
        assert diag["m_condition_residual"] <= 1e-13
        assert diag["equation_residual"] <= 1e-13
        assert C.duality_gap(lq, u, v, tree) <= 1e-12


class TestAdjointDepths:
    """The free term g_x(t_r) stays at depth r and the coefficients of cell
    (j, r) are contracted at depth r."""

    @pytest.mark.parametrize("instance", ["lq", "random"])
    def test_matches_leaf_repeated_free_term(self, monkeypatch, instance):
        tree = Tree(N=8, T=1.0, m=1)
        cp = R.lq_instance() if instance == "lq" \
            else R.random_linear_instance(7)
        u = random_control(tree, 3)
        X = C.solve_state(cp, u, tree)
        adj = C.solve_adjoint(cp, X, u, tree)

        def leaf_field(tree, values, depths):
            return TerminalField(tree, [tree.broadcast(v, p, tree.N)
                                        for v, p in zip(values, depths)])

        monkeypatch.setattr(C, "TerminalField", leaf_field)
        ref = C.solve_adjoint(cp, X, u, tree)
        # the adjoint returns Y and the below-diagonal Z
        for i in range(tree.N + 1):
            assert np.max(np.abs(adj.Y[i] - ref.Y[i])) <= 1e-14
            for j in range(i):
                assert np.max(np.abs(adj.Z.entry(i, j)
                                     - ref.Z.entry(i, j))) <= 1e-14
        for key in ("m_condition_residual", "equation_residual"):
            assert adj.diagnostics[key] <= 1e-14
            assert ref.diagnostics[key] <= 1e-14

    def test_traced_peak_at_n14(self, lq):
        # leaf copies of the free term and depth-j copies of the state put
        # this near 5 MB
        tree = Tree(N=14, T=1.0, m=1)
        u = random_control(tree, 4)
        X = C.solve_state(lq, u, tree)
        tracemalloc.start()
        try:
            C.solve_adjoint(lq, X, u, tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.6e6


class TestGradientConsistency:
    def test_fd_slope_decays_linearly(self, tree, lq):
        u = C.constant_control(tree, [0.3])
        v = C.constant_control(tree, [-0.8])
        out = C.fd_cost_derivative(lq, u, v, tree,
                                   eps_list=(1e-2, 1e-3, 1e-4))
        e = out["errors"]
        assert 5.0 <= e[0] / e[1] <= 20.0
        assert 5.0 <= e[1] / e[2] <= 20.0

    def test_cost_independent_of_state_and_control(self, tree):
        base = R.lq_instance()
        cp = C.ControlProblem(
            horizon=1.0, phi=base.phi, b=base.b, sigma=base.sigma,
            b_x=base.b_x, b_u=base.b_u, sigma_x=base.sigma_x,
            sigma_u=base.sigma_u,
            g=lambda t, x, u: np.full(x.shape[0], 2.0),
            g_x=lambda t, x, u: np.zeros_like(x),
            g_u=lambda t, x, u: np.zeros((x.shape[0], 1)),
            control_set=base.control_set)
        u = C.constant_control(tree, [0.3])
        v = C.constant_control(tree, [-0.5])
        out = C.fd_cost_derivative(cp, u, v, tree, eps_list=(1e-2,))
        assert abs(out["analytic"]) < 1e-14
        assert abs(out["fd"][0]) < 1e-10

    def test_control_free_dynamics_quadratic_cost_exact(self, tree):
        # with b, sigma control-free the gradient is g_u alone
        base = R.lq_instance()
        cp = C.ControlProblem(
            horizon=1.0, phi=base.phi,
            b=lambda t, s, x, u: 0.3 * x,
            sigma=lambda t, s, x, u: (0.2 * x)[:, :, None],
            b_x=lambda t, s, x, u: np.full(x.shape + (1,), 0.3),
            b_u=lambda t, s, x, u: np.zeros(x.shape + (1,)),
            sigma_x=lambda t, s, x, u: np.full(x.shape + (1, 1), 0.2),
            sigma_u=lambda t, s, x, u: np.zeros(x.shape + (1, 1)),
            g=base.g, g_x=base.g_x, g_u=base.g_u,
            control_set=base.control_set)
        u = random_control(tree, 3)
        grad = C.mp_gradient(cp, u, tree)
        for i in range(tree.N):
            assert np.allclose(grad[i], u[i], atol=1e-13)  # g_u = r*u, r=1


def vector_linear_instance(seed=0, d=2, du=2):
    """Vector state and control with dense random matrices."""
    rng = np.random.default_rng(seed)
    A = 0.4 * rng.normal(size=(d, d))
    B = 0.5 * rng.normal(size=(d, du))
    Sx = 0.3 * rng.normal(size=(d, d))
    Su = 0.3 * rng.normal(size=(d, du))

    def b(t, s, x, u):
        return x @ A.T + u @ B.T

    def sigma(t, s, x, u):
        return (x @ Sx.T + u @ Su.T)[:, :, None]

    return C.ControlProblem(
        horizon=1.0,
        phi=lambda t: np.ones(d),
        b=b, sigma=sigma,
        b_x=lambda t, s, x, u: np.tile(A, (x.shape[0], 1, 1)),
        b_u=lambda t, s, x, u: np.tile(B, (x.shape[0], 1, 1)),
        sigma_x=lambda t, s, x, u: np.tile(Sx[:, None, :],
                                           (x.shape[0], 1, 1, 1)),
        sigma_u=lambda t, s, x, u: np.tile(Su[:, None, :],
                                           (x.shape[0], 1, 1, 1)),
        g=lambda t, x, u: 0.5 * ((x ** 2).sum(axis=1)
                                 + (u ** 2).sum(axis=1)),
        g_x=lambda t, x, u: x,
        g_u=lambda t, x, u: u,
        control_set=C.BoxControlSet((-2.0,) * du, (2.0,) * du),
        d=d, m=1, label="vector_linear")


class TestVectorState:
    def test_duality_gap_vector_case(self):
        tree = Tree(N=5, T=1.0, m=1)
        cp = vector_linear_instance(3)
        u = random_control(tree, 31, du=2)
        v = random_control(tree, 32, du=2)
        assert C.duality_gap(cp, u, v, tree) <= 1e-10

    def test_fd_consistency_vector_case(self):
        tree = Tree(N=5, T=1.0, m=1)
        cp = vector_linear_instance(4)
        u = C.constant_control(tree, [0.2, -0.1])
        v = C.constant_control(tree, [-0.4, 0.3])
        out = C.fd_cost_derivative(cp, u, v, tree,
                                   eps_list=(1e-2, 1e-3))
        assert 5.0 <= out["errors"][0] / out["errors"][1] <= 20.0


class TestOptimizer:
    def test_projected_gradient_reaches_stationarity(self, tree, lq):
        u0 = C.constant_control(tree, [1.0])
        u_bar, trace = C.projected_gradient_search(lq, u0, tree,
                                                   steps=300, rate=0.5)
        assert trace["cost"][-1] <= trace["cost"][0]
        margin = C.check_stationarity(lq, u_bar, tree, probe_count=16)
        assert margin >= -1e-6

    def test_stationarity_fails_away_from_optimum(self, tree, lq):
        bad = C.constant_control(tree, [1.5])
        assert C.check_stationarity(lq, bad, tree) < -1e-3
