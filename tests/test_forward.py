import dataclasses
import math

import numpy as np
import pytest

from svolterra import forward as F
from svolterra import kernels as K
from svolterra import registry as R
from svolterra.lattice import Tree
from svolterra.special import gamma_fn, mittag_leffler


def fractional_relaxation(alpha, lam, T=1.0, m=0):
    kern = K.make_fractional(alpha, K.CAUSAL, T, scale=1.0 / gamma_fn(alpha))
    return F.SVIEProblem(T, lambda t: np.array([1.0]), d=1, m=m,
                         drift_kernel=kern,
                         drift_factor=lambda s, x: lam * x,
                         label="fractional_relaxation")


class TestSolveLattice:
    def test_zero_coefficients_reproduce_free_term(self):
        tree = Tree(N=6, T=1.0, m=1)
        p = F.SVIEProblem(1.0, lambda t: np.array([math.sin(t) + 2.0]))
        sol = F.solve_lattice(p, tree)
        for i in range(7):
            assert np.allclose(sol.X[i], math.sin(tree.times[i]) + 2.0)
        assert sol.diagnostics["residual"] == 0.0

    def test_mittag_leffler_oracle_sup_error(self):
        errs = []
        for N in (32, 64, 128, 256):
            tree = Tree(N=N, T=1.0, m=0)
            sol = F.solve_lattice(fractional_relaxation(0.75, -1.0), tree)
            exact = [mittag_leffler(0.75, 1.0, -ti ** 0.75)
                     for ti in tree.times]
            errs.append(max(abs(sol.X[i][0, 0] - exact[i])
                            for i in range(N + 1)))
        assert errs[-1] <= 5e-3
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        order = -np.polyfit(np.log([32, 64, 128, 256]), np.log(errs), 1)[0]
        assert order >= 0.75 - 0.2

    def test_linear_sde_vs_brute_force_recursion(self):
        # k = 1, A = a x, B = b x: compare with an independent naive
        # per-node recursion written directly against the tree layout
        a_c, b_c = 0.5, 0.3
        N = 8
        tree = Tree(N=N, T=1.0, m=1)
        p = F.SVIEProblem(
            1.0, lambda t: np.array([1.0]),
            drift=lambda t, s, x: a_c * x,
            diffusion=lambda t, s, x: (b_c * x)[:, :, None])
        sol = F.solve_lattice(p, tree)

        dt, sq = tree.dt, tree.sqrt_dt
        naive = [np.array([1.0])]
        for i in range(1, N + 1):
            prev = naive[-1]
            nxt = np.empty(2 ** i)
            for node in range(2 ** i):
                parent = node >> 1
                sign = 1.0 if node & 1 else -1.0
                # X_{i} at child = 1 + sum_{j<i} [a X_j dt + b X_j dW_j]
                # accumulate increments recursively
                nxt[node] = prev[parent] + a_c * prev[parent] * dt \
                    + b_c * prev[parent] * sign * sq
            naive.append(nxt)
        # the recursion above is the standard Euler SDE chain; with the
        # constant kernel the Volterra recursion telescopes to the same
        for i in range(N + 1):
            assert np.allclose(sol.X[i][:, 0], naive[i], atol=1e-12)

    def test_linearity_in_free_term(self):
        tree = Tree(N=6, T=1.0, m=1)
        kern = K.make_fractional(0.8, K.CAUSAL)

        def make(phi):
            return F.SVIEProblem(1.0, phi, drift_kernel=kern,
                                 drift_factor=lambda s, x: -x,
                                 diffusion=lambda t, s, x: 0.4 * x[:, :, None])

        s1 = F.solve_lattice(make(lambda t: np.array([1.0])), tree)
        s2 = F.solve_lattice(make(lambda t: np.array([t])), tree)
        s12 = F.solve_lattice(make(lambda t: np.array([1.0 + t])), tree)
        for i in range(7):
            assert np.allclose(s1.X[i] + s2.X[i], s12.X[i], atol=1e-12)

    def test_zero_diffusion_is_deterministic(self):
        tree = Tree(N=7, T=1.0, m=1)
        sol = F.solve_lattice(fractional_relaxation(0.75, -1.0, m=1), tree)
        for i in range(8):
            assert float(np.var(sol.X[i][:, 0])) < 1e-30

    @pytest.mark.parametrize("m", [0, 1])
    def test_nan_rows_give_a_nan_residual(self, m):
        # rows past t = 1/2 are nan; the residual reports nan on the tree
        # as on the single path, never 0
        p = F.SVIEProblem(1.0, lambda t: np.array([math.nan if t > 0.5
                                                   else 1.0]), m=m)
        sol = F.solve_lattice(p, Tree(N=4, T=1.0, m=m))
        assert math.isnan(sol.diagnostics["residual"])

    def test_adaptedness_by_storage(self):
        tree = Tree(N=5, T=1.0, m=1)
        p = F.SVIEProblem(1.0, lambda t: np.array([1.0]),
                          diffusion=lambda t, s, x: np.ones_like(x)[:, :, None])
        sol = F.solve_lattice(p, tree)
        for i in range(6):
            assert sol.X[i].shape == (tree.node_count(i), 1)


class TestDeterministicFreeTerm:
    def test_direct_phi_matches_tiled_field(self):
        # reference: the recursion reading phi through the one-node field
        # phi_field, as the deterministic path used to; the residual is
        # checked against a dense lower-triangular history product
        tree = Tree(N=64, T=1.0, m=0)
        p = fractional_relaxation(0.6, -1.0)
        calls = []
        phi = p.phi

        def counted_phi(t):
            calls.append(t)
            return phi(t) + t

        p.phi = counted_phi
        sol = F.solve_lattice(p, tree)
        assert len(calls) == tree.N + 1  # one read per row
        w, t = F._drift_weights(p, tree), tree.times
        X = np.zeros((tree.N + 1, 1))
        Fd = np.zeros((tree.N + 1, 1))
        for i in range(tree.N + 1):
            X[i] = p.phi_field(tree, i).reshape(1) + (
                w[i, :i] @ Fd[:i] if i else 0.0)
            Fd[i] = np.asarray(p.drift_factor(t[i], X[i][None, :]),
                               dtype=float).reshape(1)
        P = np.array([p.phi_field(tree, i).reshape(1)
                      for i in range(tree.N + 1)])
        W = np.tril(np.asarray(w), -1)
        res = float(np.max(np.abs(X - P - W @ Fd[:-1])))
        assert np.array_equal(np.concatenate(sol.X.values), X)
        assert abs(sol.diagnostics["residual"] - res) <= 1e-13


def reference_deterministic(problem, tree):
    """The m = 0 recursion row by row: phi(t_i) plus the weighted drift
    history w[i, :i] @ F[:i], or the raw drift summed over j < i."""
    N, t, d = tree.N, tree.times, problem.d
    w = F._drift_weights(problem, tree) \
        if problem.drift_kernel is not None else None
    X = np.zeros((N + 1, d))
    Fd = np.zeros((N + 1, d))
    for i in range(N + 1):
        phi = np.asarray(problem.phi(t[i]), dtype=float).reshape(d)
        if w is not None:
            X[i] = phi + w[i, :i] @ Fd[:i]
            Fd[i] = np.asarray(problem.drift_factor(t[i], X[i][None, :]),
                               dtype=float).reshape(d)
        elif problem.drift is not None:
            X[i] = phi + tree.dt * sum(
                np.asarray(problem.drift(t[i], t[j], X[j][None, :]),
                           dtype=float).reshape(d) for j in range(i))
        else:
            X[i] = phi
    return X


class TestDeterministicPaths:
    """One pass gives the row-by-row X bit for bit; the residual is an
    independent re-check at rounding level, and exactly 0 without drift."""

    @pytest.mark.parametrize("N", [8, 512, 4096])
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_separable_drift(self, alpha, N):
        tree = Tree(N=N, T=1.0, m=0)
        p = fractional_relaxation(alpha, -1.0)
        sol = F.solve_lattice(p, tree)
        assert np.array_equal(np.concatenate(sol.X.values),
                              reference_deterministic(p, tree))
        assert sol.diagnostics["residual"] <= 1e-13

    def test_raw_drift(self):
        tree = Tree(N=64, T=1.0, m=0)
        p = F.SVIEProblem(1.0, lambda t: np.array([1.0, t]), d=2, m=0,
                          drift=lambda t, s, x: np.sin(x) * (t - s + 0.5))
        sol = F.solve_lattice(p, tree)
        assert np.array_equal(np.concatenate(sol.X.values),
                              reference_deterministic(p, tree))
        assert sol.diagnostics["residual"] <= 1e-13

    def test_no_drift(self):
        tree = Tree(N=64, T=1.0, m=0)
        p = F.SVIEProblem(1.0, lambda t: np.array([math.cos(3 * t), -0.0]),
                          d=2, m=0)
        sol = F.solve_lattice(p, tree)
        assert np.array_equal(np.concatenate(sol.X.values),
                              reference_deterministic(p, tree))
        assert sol.diagnostics["residual"] == 0.0


class TestHistorySum:
    """kernels._history_sum against the dense lower-triangular product."""

    @pytest.mark.parametrize("N", [1, 2, 17, 512])
    @pytest.mark.parametrize("kern", [
        K.make_fractional(0.6, K.CAUSAL),
        K.make_exp_sum([1.0, 0.5], [2.0, 0.0]),
        K.make_fbm_full(0.3)], ids=lambda k: k.label)
    def test_matches_dense_product(self, kern, N):
        t = Tree(N=N, T=1.0, m=0).times
        rng = np.random.default_rng(N)
        if kern.lag_only or N <= 17:
            w = K._cell_table(kern, t, lower=True)
        else:
            # fbm_full's cells are scalar quadratures, minutes at this N;
            # the dense path reads any lower table the same way
            w = np.tril(rng.random((N + 1, N)), -1)
        W = np.tril(np.asarray(w), -1)
        for d in (1, 2):
            Fd = rng.normal(size=(N + 1, d))
            H = K._history_sum(kern, w, Fd)
            assert H.shape == (N + 1, d)
            np.testing.assert_allclose(H, W @ Fd[:-1], rtol=0, atol=1e-13)


class TestDriftWeights:
    @pytest.mark.parametrize("kern", [
        K.make_fractional(0.6, K.CAUSAL),
        K.make_exp_sum([1.0, 0.5], [2.0, 0.0]),
        K.make_fbm_full(0.3)], ids=lambda k: k.label)
    def test_rows_are_the_cell_integrals(self, kern):
        # a lag kernel's table reads lag k from row N, where t_N - t_{N-k}
        # differs from t_i - t_{i-k} by rounding; any other kernel's rows
        # are its own cell integrals, closed-form rows at once, others cell
        # by cell
        tree = Tree(N=6, T=1.0, m=1)
        p = F.SVIEProblem(1.0, lambda t: np.array([1.0]), drift_kernel=kern,
                          drift_factor=lambda s, x: -x)
        w = F._drift_weights(p, tree)
        t = tree.times
        for i in range(1, tree.N + 1):
            if kern.cell_fn is not None:
                row = kern.cell_fn(t[i], t[:i], t[1:i + 1])
            else:
                row = [kern.cell(t[i], t[j], t[j + 1]) for j in range(i)]
            if kern.lag_only:
                np.testing.assert_allclose(w[i, :i], row, rtol=1e-13, atol=0)
            else:
                assert np.array_equal(w[i, :i], row)
            assert not w[i, i:].any()


class TestSolvePicard:
    def test_zero_coefficients_single_sweep(self):
        tree = Tree(N=6, T=1.0, m=1)
        p = F.SVIEProblem(1.0, lambda t: np.array([1.0 + t]))
        sol = F.solve_picard(p, tree, tol=1e-12)
        assert all(n <= 2 for n in sol.diagnostics["sweeps_per_block"])
        for i in range(7):
            assert np.allclose(sol.X[i], 1.0 + tree.times[i])

    def test_fractional_drift_contracts(self):
        tree = Tree(N=8, T=1.0, m=1)
        # drift kernel lag^-0.4: its square lag^-0.8 has finite triangle
        # mass, which is what the blockwise contraction needs
        kern = K.make_fractional(0.6, K.CAUSAL)
        p = F.SVIEProblem(1.0, lambda t: np.array([1.0]),
                          drift_kernel=kern,
                          drift_factor=lambda s, x: -x,
                          lipschitz_K1=kern)
        sol = F.solve_picard(p, tree, tol=1e-12)
        assert all(r <= 0.5 for r in sol.diagnostics["contraction_ratios"])

    def test_non_square_integrable_drift_kernel_rejected(self):
        tree = Tree(N=4, T=1.0, m=1)
        kern = K.make_fractional(0.4, K.CAUSAL)  # squared slice diverges
        p = F.SVIEProblem(1.0, lambda t: np.array([1.0]),
                          drift_kernel=kern,
                          drift_factor=lambda s, x: -x,
                          lipschitz_K1=kern)
        with pytest.raises(F.PartitionInfeasibleError):
            F.solve_picard(p, tree)

    def test_agreement_with_lattice(self):
        tree = Tree(N=8, T=1.0, m=1)
        kern = K.make_fractional(0.7, K.CAUSAL)
        p = F.SVIEProblem(
            1.0, lambda t: np.array([1.0]),
            drift_kernel=kern, drift_factor=lambda s, x: -0.8 * x,
            diffusion=lambda t, s, x: (0.3 * x + 0.1)[:, :, None],
            lipschitz_K1=kern, lipschitz_K2=K.make_constant(0.3))
        direct = F.solve_lattice(p, tree)
        picard = F.solve_picard(p, tree, tol=1e-10)
        worst = max(float(np.max(np.abs(direct.X[i] - picard.X[i])))
                    for i in range(9))
        assert worst <= 1e-10

    def test_infeasible_partition_raises(self):
        tree = Tree(N=4, T=1.0, m=1)
        bad = K.make_counterexample_sup(1.0)
        p = F.SVIEProblem(1.0, lambda t: np.array([1.0]),
                          drift=lambda t, s, x: 0.0 * x,
                          lipschitz_K2=bad)
        with pytest.raises(F.PartitionInfeasibleError):
            F.solve_picard(p, tree)

    def test_errors_share_the_backward_classes(self):
        from svolterra import backward as B
        assert issubclass(F.ContractionError, B.DivergenceError)
        assert issubclass(F.PartitionInfeasibleError, B.BlockPartitionError)

    def test_non_finite_factor_stops_at_first_sweep(self):
        # the factor turns nan past t = 0.4, after the construction probes
        # (s = 0.1, 0.3); row 4 reads it at t_3 = 0.5, so block (3, 4)
        # fails on its first sweep instead of running out of sweeps
        calls = []

        def factor(s, x):
            calls.append(s)
            return np.full_like(x, np.nan) if s > 0.4 else -0.8 * x

        tree = Tree(N=6, T=1.0, m=1)
        kern = K.make_fractional(0.7, K.CAUSAL)
        p = F.SVIEProblem(1.0, lambda t: np.array([1.0]),
                          drift_kernel=kern, drift_factor=factor,
                          lipschitz_K1=kern)
        calls.clear()
        with pytest.raises(F.ContractionError,
                           match=r"non-finite values on block \[3, 4\]"
                           ) as info:
            F.solve_picard(p, tree)
        assert info.value.block == (3, 4)
        assert info.value.ratios == []
        assert len(calls) < 50  # 400 sweeps would make thousands

    def test_growing_updates_name_their_block(self):
        # a small declared kernel puts the whole horizon in one block, on
        # which the drift 1000 * 0.01 x makes the early updates grow
        tree = Tree(N=8, T=1.0, m=1)
        p = F.SVIEProblem(1.0, lambda t: np.array([1.0]),
                          drift_kernel=K.make_constant(0.01),
                          drift_factor=lambda s, x: 1000.0 * x)
        with pytest.raises(F.ContractionError,
                           match=r"not contracting on block \[0, 8\]"
                           ) as info:
            F.solve_picard(p, tree)
        assert info.value.block == (0, 8)
        assert len(info.value.ratios) == 3
        assert all(r >= 1.0 for r in info.value.ratios)

    def test_sweep_budget_names_its_block(self):
        tree = Tree(N=4, T=1.0, m=1)
        kern = K.make_fractional(0.7, K.CAUSAL)
        p = F.SVIEProblem(1.0, lambda t: np.array([1.0]),
                          drift_kernel=kern,
                          drift_factor=lambda s, x: -0.8 * x,
                          lipschitz_K1=kern)
        with pytest.raises(F.ContractionError,
                           match=r"within 1 sweeps") as info:
            F.solve_picard(p, tree, max_sweeps=1)
        assert info.value.block[0] == 0
        assert info.value.ratios == []


class TestSolvePaths:
    def test_reproducible_under_seed(self):
        p = F.SVIEProblem(
            1.0, lambda t: np.array([1.0]),
            drift=lambda t, s, x: -x,
            diffusion=lambda t, s, x: (0.4 * x)[:, :, None])
        e1 = F.solve_paths(p, 64, 16, seed=42)
        e2 = F.solve_paths(p, 64, 16, seed=42)
        assert np.array_equal(e1.mean, e2.mean)
        e3 = F.solve_paths(p, 64, 16, seed=43)
        assert not np.array_equal(e1.mean, e3.mean)

    def test_deterministic_problem_zero_variance(self):
        p = fractional_relaxation(0.75, -1.0, m=1)
        ens = F.solve_paths(p, 32, 16, seed=1)
        assert np.max(ens.variance) < 1e-28

    def test_moments_close_to_lattice(self):
        tree = Tree(N=8, T=1.0, m=1)
        p = F.SVIEProblem(
            1.0, lambda t: np.array([1.0]),
            drift=lambda t, s, x: -x,
            diffusion=lambda t, s, x: 0.5 * np.ones_like(x)[:, :, None])
        lat = F.solve_lattice(p, tree)
        ens = F.solve_paths(p, 4000, 8, seed=3)
        lat_mean = np.array([float(tree.expectation(lat.X[i][:, 0]))
                             for i in range(9)])
        assert np.max(np.abs(ens.mean[:, 0] - lat_mean)) < 0.05

    def test_l2_matched_diffusion_variance_matches_lattice(self):
        # for a linear problem the tree and the Gaussian Euler scheme share
        # their first two moments, so the path variance of X(1) estimates
        # the lattice variance (0.0163 with the L2-matched cells, 0.0083
        # with left-point kernel values)
        tree = Tree(N=8, T=1.0, m=1)
        p = caputo_l2_example()
        x1 = F.solve_lattice(p, tree).X[8][:, 0]
        lat_var = float(tree.expectation((x1 - tree.expectation(x1)) ** 2))
        ens = F.solve_paths(p, 4000, 8, seed=3)
        assert abs(ens.variance[-1, 0] - lat_var) < 0.1 * lat_var


def caputo_l2_example():
    return R.make_caputo_example(0.75, -1.0, lambda s, x: -0.5 * x,
                                 lambda s, x: (0.5 * x)[:, :, None], 1.0,
                                 m=1)


class TestStability:
    def test_identical_problems_zero_gap(self):
        tree = Tree(N=6, T=1.0, m=1)
        p = fractional_relaxation(0.75, -1.0, m=1)
        assert F.stability_gap(p, p, tree) == 0.0

    def test_free_term_perturbations_bounded(self):
        tree = Tree(N=6, T=1.0, m=1)
        base = fractional_relaxation(0.75, -1.0, m=1)
        ratios = []
        for delta in (1e-1, 1e-2, 1e-3):
            pert = fractional_relaxation(0.75, -1.0, m=1)
            pert.phi = lambda t, d=delta: np.array([1.0 + d])
            ratios.append(F.stability_gap(base, pert, tree))
        assert max(ratios) < 5.0
        assert max(ratios) / min(ratios) < 1.0 + 1e-6  # linear response

    def test_drift_perturbations_bounded(self):
        tree = Tree(N=6, T=1.0, m=1)
        kern = K.make_fractional(0.75, K.CAUSAL)
        ratios = []
        for delta in (1e-1, 1e-2, 1e-3):
            base = F.SVIEProblem(1.0, lambda t: np.array([1.0]),
                                 drift_kernel=kern,
                                 drift_factor=lambda s, x: -x)
            pert = F.SVIEProblem(1.0, lambda t: np.array([1.0]),
                                 drift_kernel=kern,
                                 drift_factor=lambda s, x, d=delta:
                                 -x + d * np.ones_like(x))
            ratios.append(F.stability_gap(base, pert, tree))
        assert max(ratios) < 5.0

    def test_l2_matched_diffusion_is_the_measured_coefficient(self):
        # the two problems differ only in the diffusion cells the solve
        # uses (L2-matched against left-point), so the coefficient gap is
        # that difference and the ratio is finite
        tree = Tree(N=6, T=1.0, m=1)
        p = caputo_l2_example()
        p_point = dataclasses.replace(p, l2_matched_diffusion=False)
        assert 0.0 < F.stability_gap(p, p_point, tree) < 5.0


class TestResolventLinear:
    def test_matches_series_at_spec_resolution(self):
        alpha, lam = 0.75, -1.0
        kern = K.make_fractional(alpha, K.CAUSAL,
                                 scale=1.0 / gamma_fn(alpha))
        grid = F.graded_grid(1.0, 512, 2.0 / alpha)
        x = F.resolvent_linear(kern, lam, grid)
        exact = np.array([mittag_leffler(alpha, 1.0, lam * t ** alpha)
                          for t in grid])
        assert np.max(np.abs(x - exact)) <= 1e-6

    def test_series_vs_solver_oracle_at_1e8(self):
        # independent high-order evaluation of E_{3/4}(-1): graded
        # product-trapezoidal solves at two resolutions plus one
        # Richardson step (the h^2 expansion is clean on this mesh)
        alpha, lam = 0.75, -1.0
        kern = K.make_fractional(alpha, K.CAUSAL,
                                 scale=1.0 / gamma_fn(alpha))
        vals = {}
        for n in (512, 1024):
            grid = F.graded_grid(1.0, n, 2.0 / alpha)
            vals[n] = F.resolvent_linear(kern, lam, grid)[-1]
        oracle = (4.0 * vals[1024] - vals[512]) / 3.0
        series = mittag_leffler(alpha, 1.0, lam)
        assert abs(oracle - series) <= 1e-8

    def test_exponential_kernel_reduces_to_ode(self):
        # k = 1: x' = lam x, x(0) = 1
        kern = K.make_constant(1.0)
        grid = np.linspace(0.0, 1.0, 257)
        x = F.resolvent_linear(kern, -2.0, grid)
        assert abs(x[-1] - math.exp(-2.0)) < 1e-4


class TestNamedExamples:
    def test_evolution_example_zero_coefficients(self):
        M = np.array([[-1.0, 0.3], [0.0, -0.5]])
        p = R.make_evolution_example(
            M, lambda s, x: np.zeros_like(x),
            lambda s, x: np.zeros(x.shape + (1,)), x0=[1.0, 2.0])
        tree = Tree(N=6, T=1.0, m=1)
        sol = F.solve_lattice(p, tree)
        from scipy.linalg import expm
        for i in (0, 3, 6):
            expected = expm(tree.times[i] * M) @ np.array([1.0, 2.0])
            assert np.allclose(sol.X[i], expected, atol=1e-12)

    def test_caputo_example_zero_coefficients_is_mittag_leffler(self):
        q, a = 0.75, -0.8
        p = R.make_caputo_example(q, a, None, None, x0=2.0)
        tree = Tree(N=16, T=1.0, m=0)
        sol = F.solve_lattice(p, tree)
        for i in (0, 8, 16):
            expected = 2.0 * mittag_leffler(q, 1.0, a * tree.times[i] ** q)
            assert sol.X[i][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_caputo_example_linear_drift_converges(self):
        q, a = 0.75, -0.5
        p = R.make_caputo_example(q, a, lambda s, x: 0.5 * x, None, x0=1.0,
                                  m=0)
        tree = Tree(N=128, T=1.0, m=0)
        sol = F.solve_lattice(p, tree)
        assert np.all(np.isfinite(sol.X[-1]))
        # mild solution stays positive for this data
        assert sol.X[-1][0, 0] > 0

    @pytest.mark.parametrize("N", [8, 10])
    def test_caputo_example_l2_matched_diffusion(self, N, monkeypatch):
        # the L2-matched coefficients come from one squared-cell table per
        # solve, which the residual reads again: a lag kernel takes one
        # cell_sq quadrature per lag, not one per cell and pass
        p = R.make_caputo_example(0.75, -1.0, lambda s, x: -0.5 * x,
                                  lambda s, x: (0.2 * x)[:, :, None],
                                  x0=1.0, m=1)
        kern, tree = p.diffusion_kernel, Tree(N=N, T=1.0, m=1)
        t = tree.times
        ref = np.zeros((N + 1, N))
        for i in range(N + 1):
            for j in range(i):
                ref[i, j] = kern.cell_sq(t[i], t[j], t[j + 1])
        got = K._cell_table(kern, t, lower=True, square=True)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        calls = []
        cell_sq = K.Kernel.cell_sq

        def counted(self, *args):
            calls.append(args)
            return cell_sq(self, *args)

        monkeypatch.setattr(K.Kernel, "cell_sq", counted)
        sol = F.solve_lattice(p, tree)
        assert len(calls) == N
        assert sol.diagnostics["residual"] <= 1e-12

    def test_lipschitz_warning_on_violation(self):
        small = K.make_constant(0.01)
        with pytest.warns(F.LipschitzWarning):
            F.SVIEProblem(1.0, lambda t: np.array([1.0]),
                          drift=lambda t, s, x: 5.0 * x,
                          lipschitz_K1=small)

    def test_strongly_singular_relaxation_still_converges(self):
        # exponent alpha - 1 = -0.7: the squared kernel is not integrable,
        # yet the explicit recursion with exact cell weights remains
        # well-defined and converges at roughly order alpha
        alpha = 0.3
        kern = K.make_fractional(alpha, K.CAUSAL,
                                 scale=1.0 / gamma_fn(alpha))
        errs = []
        for N in (64, 256, 512):
            tree = Tree(N=N, T=1.0, m=0)
            p = F.SVIEProblem(1.0, lambda t: np.array([1.0]), d=1, m=0,
                              drift_kernel=kern,
                              drift_factor=lambda s, x: -x)
            sol = F.solve_lattice(p, tree)
            errs.append(max(
                abs(sol.X[i][0, 0]
                    - mittag_leffler(alpha, 1.0, -tree.times[i] ** alpha))
                for i in range(N + 1)))
        assert errs[-1] < 0.05
        assert errs[0] > errs[1] > errs[2]
        order = -np.polyfit(np.log([64, 256, 512]), np.log(errs), 1)[0]
        assert order >= alpha - 0.2

    def test_two_kernel_fractional_brownian_state(self):
        # drift weighted by the full covariance kernel, diffusion by the
        # lower-limit power kernel
        tree = Tree(N=6, T=1.0, m=1)
        H = 0.7
        kd = K.make_fbm_full(H)
        ks = K.make_fbm_rl(H)
        p = F.SVIEProblem(
            1.0, lambda t: np.array([1.0]),
            drift_kernel=kd, drift_factor=lambda s, x: -0.5 * x,
            diffusion_kernel=ks, diffusion_factor=lambda s, x:
            (0.3 * x)[:, :, None])
        sol = F.solve_lattice(p, tree)
        assert all(np.all(np.isfinite(sol.X[i])) for i in range(7))
        # with the noise factor switched off the run is deterministic
        p0 = F.SVIEProblem(
            1.0, lambda t: np.array([1.0]),
            drift_kernel=kd, drift_factor=lambda s, x: -0.5 * x)
        sol0 = F.solve_lattice(p0, tree)
        for i in range(7):
            assert float(np.var(sol0.X[i][:, 0])) < 1e-30
