import dataclasses
import hashlib
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from svolterra import backward as B
from svolterra import control as C
from svolterra import delay as D
from svolterra import kernels as K
from svolterra import registry as R
from svolterra.acceptance import dense_linear_bsvie_solve
from svolterra.lattice import (AdaptedProcess, TerminalField, Tree,
                               TwoParameterProcess, terminal_from_function)
from svolterra.special import gamma_fn, mittag_leffler


def linear_problem(tree, c_y=-0.5, c_z1=0.0, c_z2=0.0, psi_fn=None,
                   kernel=None, L_y=None, L_z2=None):
    def fn(i, j, y, z1, z2):
        return c_y * y + c_z1 * z1[:, :, 0] + c_z2 * z2[:, :, 0]

    if psi_fn is None:
        psi = TerminalField(tree, [np.ones((tree.node_count(tree.N), 1))
                                   for _ in range(tree.N + 1)])
    else:
        psi = terminal_from_function(tree, psi_fn)
    return B.BSVIEProblem(psi, [B.GeneratorTerm(fn, kernel=kernel)],
                          L_y=L_y, L_z2=L_z2)


class TestSolveBSDE:
    def test_zero_generator_deterministic_terminal(self):
        tree = Tree(N=6, T=1.0, m=1)
        xi = np.full((64, 1), 3.0)
        Y, Z = B.solve_bsde(xi, lambda s, y, z: 0.0 * y, tree)
        for i in range(7):
            assert np.allclose(Y[i], 3.0)
        for zj in Z:
            assert np.allclose(zj, 0.0)

    def test_terminal_brownian_gives_unit_integrand(self):
        tree = Tree(N=6, T=1.0, m=1)
        xi = tree.brownian(6)
        Y, Z = B.solve_bsde(xi, lambda s, y, z: 0.0 * y, tree)
        for j in range(6):
            assert np.allclose(Y[j], tree.brownian(j), atol=1e-14)
            assert np.allclose(Z[j][:, 0, 0], 1.0, atol=1e-14)

    def test_linear_generator_closed_forms(self):
        tree = Tree(N=8, T=1.0, m=1)
        c = 0.7
        xi = np.ones((tree.node_count(8), 1))
        g = lambda s, y, z: -c * y
        Y_impl, _ = B.solve_bsde(xi, g, tree, y_scheme="implicit")
        assert Y_impl[0][0, 0] == pytest.approx(
            (1.0 + c * tree.dt) ** -8, abs=1e-12)
        Y_expl, _ = B.solve_bsde(xi, g, tree, y_scheme="explicit")
        assert Y_expl[0][0, 0] == pytest.approx(
            (1.0 - c * tree.dt) ** 8, abs=1e-12)

    def test_implicit_divergence_names_its_step(self):
        # g = 10 y at dt = 1/4: the implicit map y -> mean + 2.5 y moves
        # away from its fixed point mean / (1 - 2.5), so the 50 iterations
        # end far above it
        tree = Tree(N=4, T=1.0, m=1)
        xi = np.sin(tree.brownian(4))
        with pytest.raises(B.DivergenceError,
                           match=r"implicit step 3 diverges") as info:
            B.solve_bsde(xi, lambda s, y, z: 10.0 * y, tree,
                         y_scheme="implicit")
        assert info.value.block == (3, 4)

    def test_implicit_rounding_stall_is_not_divergence(self):
        # near 1e8 the fixed point stalls at rounding: its updates never
        # reach 1e-15, but the last (~1e-8) is far below the first (~1e7),
        # so the solve returns the 50th iterate of every step, as the
        # plain iteration below does
        tree = Tree(N=12, T=1.0, m=1)
        xi = 1e8 + np.sin(tree.brownian(12))
        g = lambda s, y, z: -3.0 * y
        Y, Z = B.solve_bsde(xi, g, tree, y_scheme="implicit")
        y_next, stalled = xi, 0
        for j in range(11, -1, -1):
            mean, zs = tree.martingale_representation(y_next, j + 1, j)
            y = mean.copy()
            for n in range(50):
                y_new = mean + tree.dt * g(None, y, zs[0])
                done = np.max(np.abs(y_new - y)) < 1e-15
                y = y_new
                if done:
                    break
            stalled += n == 49 and not done
            assert np.array_equal(Y[j], y) and np.array_equal(Z[j], zs[0])
            y_next = y
        assert stalled


class TestSolveBSVIETrivial:
    def test_zero_generator_deterministic_free_term(self):
        tree = Tree(N=5, T=1.0, m=1)
        psi = TerminalField(
            tree, [np.full((32, 1), float(i)) for i in range(6)])
        p = B.BSVIEProblem(psi, [])
        sol = B.solve_bsvie(p, tree)
        for i in range(6):
            assert np.allclose(sol.Y[i], float(i))
            for j in range(5):
                assert np.allclose(sol.Z.entry(i, j), 0.0)

    def test_terminal_brownian_free_term(self):
        tree = Tree(N=6, T=1.0, m=1)
        psi = terminal_from_function(tree, lambda t, w: w[:, 0])
        p = B.BSVIEProblem(psi, [])
        sol = B.solve_bsvie(p, tree)
        for i in range(7):
            assert np.allclose(sol.Y[i], tree.brownian(i), atol=1e-13)
            for j in range(6):
                assert np.allclose(sol.Z.entry(i, j), 1.0, atol=1e-13)

    def test_m_condition_is_machine_exact(self):
        tree = Tree(N=6, T=1.0, m=1)
        p = linear_problem(tree, c_y=-0.4, c_z1=0.2, c_z2=0.1,
                           psi_fn=lambda t, w: np.sin(w[:, 0] + t))
        sol = B.solve_bsvie(p, tree)
        assert B.m_condition_residual(sol, tree) < 1e-13

    def test_equation_residual_small_at_convergence(self):
        tree = Tree(N=5, T=1.0, m=1)
        p = linear_problem(tree, c_y=-0.4, c_z1=0.2, c_z2=0.1,
                           psi_fn=lambda t, w: np.cos(w[:, 0]) + t)
        sol = B.solve_bsvie(p, tree, tol=1e-13)
        assert B.equation_residual(sol, p, tree) < 1e-11


class TestResidualCheck:
    def test_detects_a_perturbed_value_field(self):
        tree = Tree(N=6, T=1.0, m=1)
        p = linear_problem(tree, c_y=-0.1, c_z1=0.2, c_z2=0.1,
                           psi_fn=lambda t, w: np.sin(w[:, 0]) + t)
        sol = B.solve_bsvie(p, tree, tol=1e-13)
        assert sol.diagnostics["equation_residual"] < 1e-11
        sol.Y.values[3] = sol.Y[3] + 1e-6
        assert B.equation_residual(sol, p, tree) == pytest.approx(
            1e-6, rel=0.1)

    def test_weight_tables_built_once_per_solve(self, monkeypatch):
        tree = Tree(N=6, T=1.0, m=1)
        rows = []
        fractional = K.make_fractional(0.7, K.ANTICAUSAL, tree.T)

        def counted_cell_fn(t, a, b):
            rows.append(np.size(a))
            return fractional.cell_fn(t, a, b)

        kern = dataclasses.replace(fractional, cell_fn=counted_cell_fn)
        p = linear_problem(tree, c_y=-0.4, c_z1=0.2, kernel=kern)
        builds, term_weights = [], B._term_weights

        def counted_weights(*args):
            builds.append(1)
            return term_weights(*args)

        monkeypatch.setattr(B, "_term_weights", counted_weights)
        sol = B.solve_bsvie(p, tree, tol=1e-13)
        assert len(builds) == 1
        # the lag kernel's cell hook is evaluated on one row per table
        assert rows == [tree.N]
        # the public check builds its own tables
        assert B.equation_residual(sol, p, tree) == \
            sol.diagnostics["equation_residual"]
        assert len(builds) == 2
        assert rows == [tree.N, tree.N]


class TestMultiNoiseExactness:
    """The simplex tree represents exactly at every m, so a multi-noise
    pair passes both of its own checks and nothing warns."""

    @pytest.mark.parametrize("m, N", [(2, 6), (3, 5)])
    def test_several_noise_coordinates_solve_to_rounding(self, m, N):
        tree = Tree(N=N, T=1.0, m=m)
        psi = terminal_from_function(
            tree, lambda t, w: np.sin(w[:, 0] * w[:, 1]) + t)
        p = B.BSVIEProblem(psi, [B.GeneratorTerm(
            lambda i, j, y, z1, z2: -0.5 * y)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = B.solve_bsvie(p, tree, tol=1e-13)
        diag = sol.diagnostics
        assert diag["m_condition_residual"] <= 1e-13
        assert diag["equation_residual"] <= 1e-13
        assert sol.Y[N].shape == (tree.node_count(N), 1) == ((m + 1) ** N, 1)

    def test_one_noise_coordinate_does_not_warn(self):
        tree = Tree(N=5, T=1.0, m=1)
        p = linear_problem(tree, c_y=-0.4, c_z1=0.2, c_z2=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            B.solve_bsvie(p, tree)


class TestDenseOracle:
    def test_linear_y_generator_matches_dense_solve(self):
        tree = Tree(N=6, T=1.0, m=1)
        p = linear_problem(tree, c_y=-0.7)
        sol = B.solve_bsvie(p, tree, tol=1e-13)
        Yd, Zd, fit = dense_linear_bsvie_solve(p, tree)
        assert fit < 1e-10
        for i in range(7):
            assert np.max(np.abs(sol.Y[i][:, 0] - Yd[i])) < 1e-10
        for i in range(7):
            for j in range(6):
                assert np.max(np.abs(sol.Z.entry(i, j)[:, 0]
                                     - Zd[(i, j)])) < 1e-10

    def test_full_coupling_matches_dense_solve_random_seeds(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            tree = Tree(N=5, T=1.0, m=1)
            cy, cz1, cz2 = rng.uniform(-0.6, 0.6, size=3)
            psi = terminal_from_function(
                tree, lambda t, w: np.tanh(w[:, 0]) + 0.5 * t)
            p = B.BSVIEProblem(
                psi, [B.GeneratorTerm(
                    lambda i, j, y, z1, z2:
                    cy * y + cz1 * z1[:, :, 0] + cz2 * z2[:, :, 0])])
            sol = B.solve_bsvie(p, tree, tol=1e-13)
            Yd, Zd, fit = dense_linear_bsvie_solve(p, tree)
            assert fit < 1e-10
            worst = max(float(np.max(np.abs(sol.Y[i][:, 0] - Yd[i])))
                        for i in range(6))
            worst_z = max(float(np.max(np.abs(sol.Z.entry(i, j)[:, 0]
                                              - Zd[(i, j)])))
                          for i in range(6) for j in range(5))
            assert worst < 1e-10 and worst_z < 1e-10


    def test_two_noise_coordinates_match_dense_solve(self):
        # per-coordinate z1 and z2 coefficients on the simplex tree; the
        # oracle reads ancestry and increments from base-3 leaf digits
        tree = Tree(N=3, T=1.0, m=2)
        psi = terminal_from_function(
            tree, lambda t, w: np.sin(w[:, 0] * w[:, 1]) + t)
        p = B.BSVIEProblem(psi, [B.GeneratorTerm(
            lambda i, j, y, z1, z2: -0.5 * y + 0.3 * z1[:, :, 0]
            - 0.2 * z1[:, :, 1] + 0.1 * z2[:, :, 1])])
        sol = B.solve_bsvie(p, tree, tol=1e-13)
        Yd, Zd, fit = dense_linear_bsvie_solve(p, tree)
        assert fit < 1e-10
        assert max(float(np.max(np.abs(sol.Y[i][:, 0] - Yd[i])))
                   for i in range(4)) < 1e-10
        assert Zd[(3, 2)].shape == (9, 2)
        assert max(float(np.max(np.abs(sol.Z.entry(i, j)[:, 0] - Zd[(i, j)])))
                   for i in range(4) for j in range(3)) < 1e-10


class TestBSDEReduction:
    def test_time_independent_data_reduces_to_plain_backward(self):
        tree = Tree(N=8, T=1.0, m=1)
        psi = terminal_from_function(tree, lambda t, w: np.sin(w[:, 0]))
        cy, cz1 = -0.5, 0.3
        p = B.BSVIEProblem(
            psi, [B.GeneratorTerm(
                lambda i, j, y, z1, z2: cy * y + cz1 * z1[:, :, 0])])
        sol = B.solve_bsvie(p, tree, tol=1e-13)
        Yb, Zb = B.solve_bsde(psi[0], lambda s, y, z:
                              cy * y + cz1 * z[:, :, 0], tree,
                              y_scheme="implicit")
        for i in range(9):
            assert np.max(np.abs(sol.Y[i] - Yb[i])) < 1e-10
        for i in range(9):
            for j in range(i, 8):
                assert np.max(np.abs(sol.Z.entry(i, j) - Zb[j])) < 1e-10


class TestVectorState:
    def test_vector_reduction_to_plain_backward(self):
        # 2-state system with a full coupling matrix
        tree = Tree(N=6, T=1.0, m=1)
        A = np.array([[-0.4, 0.2], [0.1, -0.3]])
        w = tree.brownian(6)
        xi = np.stack([np.sin(w[:, 0]), np.cos(w[:, 0])], axis=1)
        psi = TerminalField(tree, [xi.copy() for _ in range(7)])
        p = B.BSVIEProblem(
            psi, [B.GeneratorTerm(lambda i, j, y, z1, z2: y @ A.T)])
        sol = B.solve_bsvie(p, tree, tol=1e-13)
        Yb, Zb = B.solve_bsde(xi, lambda s, y, z: y @ A.T, tree,
                              y_scheme="implicit")
        worst = max(float(np.max(np.abs(sol.Y[i] - Yb[i])))
                    for i in range(7))
        assert worst < 1e-10
        assert B.m_condition_residual(sol, tree) < 1e-13


class TestKernelClassCheck:
    def test_divergent_declared_kernel_warns_with_kernels_category(self):
        tree = Tree(N=3, T=1.0, m=1)
        psi = TerminalField(tree, [np.ones((8, 1)) for _ in range(4)])
        with pytest.warns(K.KernelClassWarning, match="triangle norm"):
            B.BSVIEProblem(psi, [], L_y=K.make_fractional(
                0.4, K.ANTICAUSAL, tree.T))


class TestProblemConstruction:
    """Generator terms see grid indices; the zero probe evaluates them at
    two real grid cells and lets every failure through."""

    def test_dimensions_come_from_free_term_and_tree(self):
        tree = Tree(N=4, T=1.0, m=2)
        psi = TerminalField(tree, [np.zeros((tree.node_count(4), 2))] * 5)
        calls = []

        def fn(i, j, y, z1, z2):
            calls.append((i, j, y.shape, z1.shape, z2.shape))
            return -0.5 * y

        p = B.BSVIEProblem(psi, [B.GeneratorTerm(fn)])
        assert (p.d, p.m) == (2, 2)
        with pytest.raises(AttributeError):
            p.d = 1
        assert calls == [(1, 2, (9, 2), (9, 2, 2), (9, 2, 2)),
                         (2, 2, (9, 2), (9, 2, 2), (9, 2, 2))]

    def test_index_bound_term_that_does_not_vanish_is_rejected(self):
        tree = Tree(N=4, T=1.0, m=1)
        psi = TerminalField(tree, [np.ones((16, 1))] * 5)
        table = np.full((tree.N + 1, tree.N), 0.3)
        with pytest.raises(ValueError, match="does not vanish"):
            B.BSVIEProblem(psi, [B.GeneratorTerm(
                lambda i, j, y, z1, z2: y + table[i, j])])

    def test_generator_error_during_probe_propagates(self):
        tree = Tree(N=4, T=1.0, m=1)
        psi = TerminalField(tree, [np.ones((16, 1))] * 5)

        def fn(i, j, y, z1, z2):
            raise RuntimeError("generator failed")

        with pytest.raises(RuntimeError, match="generator failed"):
            B.BSVIEProblem(psi, [B.GeneratorTerm(fn)])


class TestLinearAdjointBuilder:
    """The control and delay adjoints share one builder, which contracts
    the cell (j, r) coefficients at the outer depth r."""

    @pytest.mark.parametrize("d", [1, 3])
    def test_contractions_equal_broadcast_contractions(self, d):
        tree = Tree(N=6, T=1.0, m=1)
        rng = np.random.default_rng(d)
        j, r = 5, 2
        coef_y = [rng.normal(size=(tree.node_count(q), d, d))
                  for q in range(tree.N + 1)]
        coef_z = [rng.normal(size=(tree.node_count(q), d, 1, d))
                  for q in range(tree.N + 1)]
        y = rng.normal(size=(tree.node_count(j), d))
        z2 = tree.broadcast(rng.normal(size=(tree.node_count(r), d, 1)), r, j)
        psi = TerminalField(tree, [np.zeros((tree.node_count(tree.N), d))]
                            * (tree.N + 1))
        p = B._linear_adjoint(psi, lambda jj, rr: coef_y[rr],
                              lambda jj, rr: coef_z[rr], "contractions")
        assert all(np.array_equal(term.weights, B.strictly_upper_weights(tree))
                   for term in p.terms)
        fn_y, fn_z = (term.fn for term in p.terms)
        assert np.array_equal(
            fn_y(r, j, y, None, None),
            np.einsum("nab,na->nb", tree.broadcast(coef_y[r], r, j), y))
        # the z-term returns its depth-r contraction, which the engine adds
        # through the ancestor view; repeated onto depth j it is the
        # contraction of the repeated coefficient
        got = fn_z(r, j, None, None, z2)
        assert got.shape == (tree.node_count(r), d)
        assert np.array_equal(
            tree.broadcast(got, r, j),
            np.einsum("namb,nam->nb", tree.broadcast(coef_z[r], r, j), z2))


def reference_cell_drift(tree, terms, tables, i, j, acc, y, z1, z2_below):
    """The cell drift as it read before the in-place sum: ``acc + w * g``
    per live term, a depth-i value repeated onto depth j first."""
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
    for w, term in live:
        g = np.asarray(term.fn(i, j, y, z1, z2), dtype=float)
        if g.shape[0] != tree.node_count(j):
            g = tree.broadcast(g, i, j)
        acc = acc + w * g
    return acc


def reference_outer_pass(tree, terms, weight_tables, i, free, free_depth,
                         start_depth, stop_depth, y_at, z2_below,
                         keep_levels=False, first_step=None):
    """The outer pass as it read before the in-place sum: the drift starts
    from zeros and the mean is added to it, ``mean + drift``."""
    if free_depth == start_depth:
        lam = free
    else:
        lam = np.zeros((tree.node_count(start_depth), free.shape[1]))
    mu = {}
    levels = {start_depth: lam} if keep_levels else None
    for j in range(start_depth - 1, stop_depth - 1, -1):
        if first_step is not None and j == start_depth - 1:
            mean, mu_j = first_step
        else:
            mean, zs = tree.martingale_representation(lam, j + 1, j)
            mu_j = zs[0]
        drift = reference_cell_drift(tree, terms, weight_tables, i, j,
                                     np.zeros_like(mean), y_at(j), mu_j,
                                     z2_below)
        lam = mean + drift
        if j == free_depth:
            lam = lam + free
        mu[j] = mu_j
        if keep_levels:
            levels[j] = lam
    if free_depth < stop_depth:
        lam = lam + tree.broadcast(free, free_depth, stop_depth)
    return lam, mu, levels


def assert_bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_same_msolution(a, b, tree):
    for i in range(tree.N + 1):
        assert_bits_equal(a.Y[i], b.Y[i])
        for j in range(tree.N):
            assert_bits_equal(a.Z.entry(i, j), b.Z.entry(i, j))
    for key in ("m_condition_residual", "equation_residual", "sweeps",
                "contraction_ratios"):
        assert_bits_equal(a.diagnostics[key], b.diagnostics[key])


def assert_same_kept(a, b, tree):
    """What an adjoint solve returns: Y, the below-diagonal Z and the
    diagnostics bit for bit, and nothing on or above the diagonal."""
    for i in range(tree.N + 1):
        assert_bits_equal(a.Y[i], b.Y[i])
        for j in range(tree.N):
            if j < i:
                assert_bits_equal(a.Z.entry(i, j), b.Z.entry(i, j))
            else:
                assert a.Z.entry(i, j) is None and b.Z.entry(i, j) is None
    for key in ("m_condition_residual", "equation_residual", "sweeps",
                "contraction_ratios", "bytes"):
        assert_bits_equal(a.diagnostics[key], b.diagnostics[key])


def capture_bsvie(monkeypatch, module):
    """Wrap ``module.solve_bsvie``; returns the list each call appends its
    (problem, tree, keyword arguments) to."""
    calls, solve = [], B.solve_bsvie

    def capture(problem, tree, **kwargs):
        calls.append((problem, tree, kwargs))
        return solve(problem, tree, **kwargs)

    monkeypatch.setattr(module, "solve_bsvie", capture)
    return calls


def solve_whole(call):
    """Solve a captured (problem, tree, kwargs) again, keeping every Z
    entry."""
    problem, tree, kwargs = call
    return B.solve_bsvie(problem, tree, **dict(kwargs, keep_above=True))


def with_reference_engine(monkeypatch, run):
    """``run()`` with the engine's drift sum, then with the reference."""
    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(B, "_cell_drift", reference_cell_drift)
        patch.setattr(B, "_outer_pass", reference_outer_pass)
        want = run()
    return got, want


def two_term_problem(tree):
    frac = R.bsvie_fractional(tree, 0.7)
    caputo = R.bsvie_caputo(tree, 0.8)
    return B.BSVIEProblem(caputo.psi, frac.terms + caputo.terms,
                          L_y=frac.L_y, L_z2=frac.L_z2, label="two_term")


class TestInPlaceDriftSum:
    """The drift sum allocates one array per cell and adds the remaining
    terms, the conditional mean and the residual carry in place; every
    output is the old out-of-place sum's bit for bit, signed zeros
    included."""

    @pytest.mark.parametrize("method", ["fixed_point", "block"])
    @pytest.mark.parametrize("m, N", [(1, 7), (2, 4)])
    @pytest.mark.parametrize("family", ["fractional_generator",
                                        "fbm_rl_generator", "caputo",
                                        "two_term"])
    def test_solve_matches_reference_sum(self, monkeypatch, family, m, N,
                                         method):
        tree = Tree(N=N, T=1.0, m=m)
        make = two_term_problem if family == "two_term" \
            else R.BACKWARD_PROBLEMS[family]
        p = make(tree)
        got, want = with_reference_engine(
            monkeypatch, lambda: B.solve_bsvie(p, tree, method=method))
        assert_same_msolution(got, want, tree)

    def test_stability_gap_matches_reference_sum(self, monkeypatch):
        tree = Tree(N=6, T=1.0, m=1)
        p1, p2 = R.bsvie_fractional(tree, 0.7), two_term_problem(tree)
        got, want = with_reference_engine(
            monkeypatch, lambda: B.stability_gap_bsvie(p1, p2, tree))
        assert_bits_equal(got, want)

    def test_control_adjoint_matches_reference_sum(self, monkeypatch):
        # the adjoint returns its below-diagonal Z; the engine is pinned on
        # its whole table, solving the captured problem again
        tree = Tree(N=7, T=1.0, m=1)
        rng = np.random.default_rng(3)
        u, v = (AdaptedProcess(tree, [0.5 * rng.normal(
            size=(tree.node_count(i), 1)) for i in range(tree.N + 1)])
            for _ in range(2))
        cp = R.lq_instance()

        def run():
            with monkeypatch.context() as patch:
                calls = capture_bsvie(patch, C)
                X = C.solve_state(cp, u, tree)
                adj = C.solve_adjoint(cp, X, u, tree)
            return (adj, solve_whole(calls[0]),
                    C.duality_gap(cp, u, v, tree))

        (adj, whole, gap), (adj_ref, whole_ref, gap_ref) = \
            with_reference_engine(monkeypatch, run)
        assert_same_kept(adj, adj_ref, tree)
        assert_same_msolution(whole, whole_ref, tree)
        assert_bits_equal(gap, gap_ref)

    def test_delay_adjoint_matches_reference_sum(self, monkeypatch):
        tree = Tree(N=8, T=1.0, m=1)
        dp = R.delay_lq_instance(delta=0.25, lam=0.3)
        traj = D.solve_delay_state(dp, C.constant_control(tree, [0.2]), tree)

        def run():
            with monkeypatch.context() as patch:
                calls = capture_bsvie(patch, D)
                adj = D.solve_delay_adjoint(dp, traj, tree)
            return adj, solve_whole(calls[0])

        (got, whole), (want, whole_ref) = with_reference_engine(
            monkeypatch, run)
        assert_same_kept(got.solution, want.solution, tree)
        assert_same_msolution(whole, whole_ref, tree)

    @pytest.mark.parametrize("outer_first", [True, False])
    @pytest.mark.parametrize("method", ["fixed_point", "block"])
    def test_outer_depth_value_equals_its_broadcast(self, method,
                                                    outer_first):
        # a term reading E[Y(t_j) | F_{t_i}] may return it at depth i; the
        # engine starts the sum from its repeat or adds it through the
        # ancestor view, the same arithmetic as adding its repeat
        tree = Tree(N=7, T=1.0, m=1)
        kern = K.make_fractional(0.7, K.ANTICAUSAL, tree.T)
        psi = terminal_from_function(tree, lambda t, w: np.cos(w[:, 0] + t))

        def problem(repeat):
            def fn(i, j, y, z1, z2):
                val = -0.3 * tree.conditional_expectation(y, j, i)
                return tree.broadcast(val, i, j) if repeat else val

            terms = [linear_problem(tree, c_y=-0.2, c_z1=0.1,
                                    c_z2=0.2).terms[0],
                     B.GeneratorTerm(fn, kernel=kern)]
            return B.BSVIEProblem(
                psi, terms[::-1] if outer_first else terms,
                L_y=K.make_fractional(0.7, K.ANTICAUSAL, tree.T, scale=0.5),
                L_z2=K.make_fractional(0.7, K.ANTICAUSAL, tree.T, scale=0.2))

        outer, repeated = problem(False), problem(True)
        got = B.solve_bsvie(outer, tree, method=method)
        want = B.solve_bsvie(repeated, tree, method=method)
        assert_same_msolution(got, want, tree)
        assert_bits_equal(B.equation_residual(want, outer, tree),
                          B.equation_residual(want, repeated, tree))

    def test_wrong_node_count_raises(self):
        tree = Tree(N=5, T=1.0, m=1)
        psi = TerminalField(tree, [np.ones((tree.node_count(tree.N), 1))]
                            * (tree.N + 1))
        # three rows match no depth of the binary tree; the zero probe
        # does not look at shapes
        p = B.BSVIEProblem(psi, [B.GeneratorTerm(
            lambda i, j, y, z1, z2: np.zeros((3, 1)))])
        with pytest.raises(ValueError,
                           match=r"shape \(3, 1\) on cell \(4, 4\)"):
            B.solve_bsvie(p, tree)

    @pytest.mark.parametrize("i, j", [(-1, 2), (1, -1), (5, 2), (1, 5)])
    def test_cell_outside_the_tree_raises(self, i, j):
        # the node counts come from a table, so a negative depth must be
        # refused before it wraps to the table's end
        tree = Tree(N=4, T=1.0, m=1)
        term = B.GeneratorTerm(lambda i, j, y, z1, z2: np.zeros_like(y))
        table = np.ones((tree.N + 2, tree.N + 2))
        y, z1 = np.zeros((4, 1)), np.zeros((4, 1, 1))
        with pytest.raises(ValueError, match=r"depth outside \[0, 4\]"):
            B._cell_drift(tree, [term], [table], i, j, None, y, z1, None)

    def test_generators_match_out_of_place_sums(self):
        tree = Tree(N=4, T=1.0, m=2)
        rng = np.random.default_rng(11)
        y = rng.normal(size=(9, 2))
        z1, z2 = rng.normal(size=(2, 9, 2, 2))
        y[0, 0], z1[0, 0, 0], z2[0, 0, 0] = -0.0, -0.0, -0.0
        term = R._affine_term(None, -0.4, 0.2, 0.7)
        assert_bits_equal(term.fn(1, 2, y, z1, z2),
                          -0.4 * y + 0.2 * z1[:, :, 0:1].reshape(y.shape)
                          + 0.7 * z2[:, :, 0:1].reshape(y.shape))
        # at m = 2 the caputo family's state has d = 2 and A = 0.3 I_2
        caputo = R.bsvie_caputo(tree, 0.8)
        t, alpha, A = tree.times, 0.8, 0.3 * np.eye(2)
        lagged = (t[2] - t[1]) ** (1.0 - alpha) * z1
        assert_bits_equal(caputo.terms[0].fn(1, 2, y, z1, z2),
                          -np.einsum("ab,nb->na", A, y)
                          + (0.25 * y
                             + 0.15 * lagged[:, :, 0:1].reshape(y.shape)))


class TestSinglePass:
    """Every fixed_point solve is one backward pass of one-step blocks;
    tables with no cell on or below the diagonal (the adjoint shape) need
    one sweep per block."""

    def strictly_upper_problem(self, tree, seed=0):
        rng = np.random.default_rng(seed)
        cy, cz1, cz2 = rng.uniform(-0.6, 0.6, size=3)
        weights = np.triu(rng.uniform(0.5, 1.5, size=(tree.N + 1, tree.N))
                          * tree.dt, 1)
        psi = terminal_from_function(
            tree, lambda t, w: np.tanh(w[:, 0]) + 0.5 * t)
        return B.BSVIEProblem(
            psi, [B.GeneratorTerm(
                lambda i, j, y, z1, z2:
                cy * y + cz1 * z1[:, :, 0] + cz2 * z2[:, :, 0],
                weights=weights)])

    def assert_matches_dense_solve(self, sol, p, tree):
        N = tree.N
        Yd, Zd, fit = dense_linear_bsvie_solve(p, tree)
        assert fit < 1e-10
        worst = max(float(np.max(np.abs(sol.Y[i][:, 0] - Yd[i])))
                    for i in range(N + 1))
        worst_z = max(float(np.max(np.abs(sol.Z.entry(i, j)[:, 0]
                                          - Zd[(i, j)])))
                      for i in range(N + 1) for j in range(N))
        assert worst <= 1e-10 and worst_z <= 1e-10

    def test_matches_dense_solve(self):
        tree = Tree(N=5, T=1.0, m=1)
        for seed in range(3):
            p = self.strictly_upper_problem(tree, seed)
            self.assert_matches_dense_solve(B.solve_bsvie(p, tree), p, tree)

    def test_one_sweep_per_one_step_block(self):
        tree = Tree(N=6, T=1.0, m=1)
        sol = B.solve_bsvie(self.strictly_upper_problem(tree), tree)
        diag = sol.diagnostics
        assert diag["blocks"] == [(r, r + 1) for r in range(6)]
        assert diag["sweeps"] == [1] * 6
        assert diag["m_condition_residual"] < 1e-13
        assert diag["equation_residual"] < 1e-13

    def test_shared_table_is_strictly_upper_cell_width(self):
        tree = Tree(N=4, T=1.0, m=1)
        w = B.strictly_upper_weights(tree)
        assert w.shape == (5, 4)
        for i in range(5):
            for j in range(4):
                assert w[i, j] == (tree.dt if j > i else 0.0)

    def test_diagonal_cells_solved_row_by_row(self):
        tree = Tree(N=5, T=1.0, m=1)
        p = linear_problem(tree, c_y=-0.4, c_z1=0.2, c_z2=0.1)
        sol = B.solve_bsvie(p, tree, tol=1e-13)
        assert sol.diagnostics["blocks"] == [(r, r + 1) for r in range(5)]
        # each row iterates its diagonal cell
        assert len(sol.diagnostics["sweeps"]) == 5
        assert min(sol.diagnostics["sweeps"]) > 1
        self.assert_matches_dense_solve(sol, p, tree)

    def test_one_diagonal_table_solved_row_by_row(self):
        tree = Tree(N=5, T=1.0, m=1)
        upper = self.strictly_upper_problem(tree)
        p = B.BSVIEProblem(upper.psi, upper.terms + [B.GeneratorTerm(
            lambda i, j, y, z1, z2: -0.3 * y)])
        sol = B.solve_bsvie(p, tree, tol=1e-13)
        assert sol.diagnostics["blocks"] == [(r, r + 1) for r in range(5)]
        assert sol.diagnostics["equation_residual"] < 1e-11
        self.assert_matches_dense_solve(sol, p, tree)

    def test_registry_solve_stays_row_by_row(self, monkeypatch):
        # a return to sweeps over the whole horizon costs about four times
        # the representation calls (1,144 against 294 here)
        from svolterra import registry
        calls = []
        original = Tree.martingale_representation

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Tree, "martingale_representation", counting)
        tree = Tree(N=10, T=1.0, m=1)
        B.solve_bsvie(
            registry.BACKWARD_PROBLEMS["fractional_generator"](tree, 0.77),
            tree)
        assert len(calls) <= 400

    @pytest.mark.parametrize("method,bound", [("fixed_point", 100),
                                              ("block", 200)])
    def test_block_free_terms_represented_once(self, monkeypatch, method,
                                               bound):
        # each sweep re-representing its block's fixed free terms and
        # refilling empty rows costs 294 / 352 calls here
        from svolterra import registry
        calls = []
        original = Tree.martingale_representation

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Tree, "martingale_representation", counting)
        tree = Tree(N=10, T=1.0, m=1)
        B.solve_bsvie(
            registry.BACKWARD_PROBLEMS["fractional_generator"](tree, 0.77),
            tree, method=method)
        assert len(calls) <= bound

    def test_max_sweeps_failure_names_its_block(self):
        tree = Tree(N=4, T=1.0, m=1)
        p = linear_problem(tree, c_y=-0.4, c_z1=0.2, c_z2=0.1)
        with pytest.raises(B.DivergenceError,
                           match=r"block \[3, 4\] within 1 sweeps") as info:
            B.solve_bsvie(p, tree, max_sweeps=1)
        assert info.value.block == (3, 4)
        assert info.value.ratios == []


class TestSweepExits:
    """The one sweep rule behind the block fixed point and the forward
    Picard blocks: it stops at the tolerance and raises, naming the block,
    on a non-finite update, on three ratios >= 1 or on the budget."""

    @pytest.mark.parametrize("updates, match, ratios", [
        ([1.0, np.nan], r"non-finite values on block \[2, 5\]", []),
        ([1.0, 1.0, 2.0, 2.0], r"not contracting on block \[2, 5\]",
         [1.0, 2.0, 1.0]),
        ([1.0, 0.9, 0.81, 0.9], r"block \[2, 5\] within 4 sweeps \(last "
                                r"update 9.000e-01\)", [0.9, 0.9, 0.9 / 0.81]),
    ], ids=["non_finite", "not_contracting", "budget"])
    def test_each_failure_raises_the_given_error(self, updates, match,
                                                 ratios):
        class Failure(B.DivergenceError):
            pass

        with pytest.raises(Failure, match=match) as info:
            B._sweep_to_tolerance(iter(updates), 1e-12, 4, (2, 5), Failure)
        assert info.value.block == (2, 5)
        assert info.value.ratios == ratios

    def test_stops_at_the_tolerance_and_budget(self):
        # no sweep is drawn past the one that converges, or past the budget
        drawn = []

        def updates(values):
            for v in values:
                drawn.append(v)
                yield v

        assert B._sweep_to_tolerance(updates([1.0, 0.5, 1e-13, 0.0]), 1e-12,
                                     10, (0, 1)) == (3, [0.5, 2e-13])
        assert drawn == [1.0, 0.5, 1e-13]
        drawn.clear()
        with pytest.raises(B.DivergenceError, match="within 2 sweeps"):
            B._sweep_to_tolerance(updates([1.0, 0.5, 0.25]), 1e-12, 2,
                                  (0, 1))
        assert drawn == [1.0, 0.5]

    def test_block_fixed_point_non_finite_sweep(self):
        # nan only on row 3, so the zero-field probe at rows 1 and 2 passes
        tree = Tree(N=4, T=1.0, m=1)
        kern = K.make_fractional(0.7, K.ANTICAUSAL, tree.T)

        def fn(i, j, y, z1, z2):
            return (np.nan if i == 3 else -0.4) * y

        psi = TerminalField(tree, [np.ones((16, 1))] * 5)
        p = B.BSVIEProblem(psi, [B.GeneratorTerm(fn, kernel=kern)])
        with pytest.raises(B.DivergenceError,
                           match=r"non-finite values on block \[3, 4\]"
                           ) as info:
            B.solve_bsvie(p, tree)
        assert info.value.block == (3, 4)
        assert info.value.ratios == []

    def test_block_fixed_point_growing_updates(self):
        # the diagonal cell weight 0.25**0.7 / 0.7 = 0.54 times c_y = 5
        # makes each sweep's update 2.7 times the last
        tree = Tree(N=4, T=1.0, m=1)
        p = linear_problem(tree, c_y=5.0, kernel=K.make_fractional(
            0.7, K.ANTICAUSAL, tree.T))
        with pytest.raises(B.DivergenceError,
                           match=r"not contracting on block \[3, 4\]"
                           ) as info:
            B.solve_bsvie(p, tree)
        assert info.value.block == (3, 4)
        assert len(info.value.ratios) == 3
        assert all(r == pytest.approx(5.0 * 0.25 ** 0.7 / 0.7)
                   for r in info.value.ratios)


class TestFreeTermDepth:
    """A free term measurable above the leaves enters the backward pass at
    its own depth, with the same solution as its repeat onto the leaves."""

    def problem(self, psi):
        tree = psi.tree
        kern = K.make_fractional(0.7, K.ANTICAUSAL, tree.T)
        ly = K.make_fractional(0.7, K.ANTICAUSAL, tree.T, scale=0.4)

        def fn(i, j, y, z1, z2):
            return -0.4 * y + 0.2 * z1[:, :, 0] + 0.1 * z2[:, :, 0]

        return B.BSVIEProblem(psi, [B.GeneratorTerm(fn, kernel=kern)],
                              L_y=ly)

    def shallow_and_leaf(self, tree, depth, seed=0):
        rng = np.random.default_rng(seed)
        shallow = TerminalField(
            tree, [rng.normal(size=(tree.node_count(depth), 1))
                   for _ in range(tree.N + 1)], depths=[depth] * (tree.N + 1))
        leaf = TerminalField(tree, [shallow.at(i, tree.N)
                                    for i in range(tree.N + 1)])
        return self.problem(shallow), self.problem(leaf)

    @pytest.mark.parametrize("method", ["fixed_point", "block"])
    def test_depth_two_free_term_matches_leaf_repeat(self, method):
        tree = Tree(N=4, T=1.0, m=1)
        p, p_leaf = self.shallow_and_leaf(tree, 2)
        sol = B.solve_bsvie(p, tree, method=method, tol=1e-13)
        ref = B.solve_bsvie(p_leaf, tree, method=method, tol=1e-13)
        assert sol.diagnostics["blocks"] == ref.diagnostics["blocks"]
        for i in range(tree.N + 1):
            assert np.max(np.abs(sol.Y[i] - ref.Y[i])) <= 1e-14
            for j in range(tree.N):
                assert np.max(np.abs(sol.Z.entry(i, j)
                                     - ref.Z.entry(i, j))) <= 1e-14
        assert sol.diagnostics["equation_residual"] < 1e-12
        assert B.equation_residual(sol, p, tree) < 1e-12

    def test_detects_a_perturbed_free_term_at_its_own_depth(self):
        tree = Tree(N=6, T=1.0, m=1)
        p, _ = self.shallow_and_leaf(tree, 3, seed=1)
        sol = B.solve_bsvie(p, tree, tol=1e-13)
        assert sol.diagnostics["equation_residual"] < 1e-11
        values = list(p.psi.values)
        values[2] = values[2] + 1e-6
        shifted = self.problem(TerminalField(tree, values, p.psi.depths))
        assert B.equation_residual(sol, shifted, tree) == pytest.approx(
            1e-6, rel=0.1)


def zeros_start_outer_pass(tree, terms, weight_tables, i, free, free_depth,
                           start_depth, stop_depth, y_at, z2_below,
                           keep_levels=False, first_step=None):
    """The outer pass as it read before a zero field was carried as the
    scalar 0.0: a shallow free term starts it from np.zeros, which each
    step represents."""
    if free_depth == start_depth:
        lam = free
    else:
        lam = np.zeros((tree.node_count(start_depth), free.shape[1]))
    mu = {}
    levels = {start_depth: lam} if keep_levels else None
    for j in range(start_depth - 1, stop_depth - 1, -1):
        if first_step is not None and j == start_depth - 1:
            mean, mu_j = first_step
        else:
            mean, zs = tree.martingale_representation(lam, j + 1, j)
            mu_j = zs[0]
        drift = B._cell_drift(tree, terms, weight_tables, i, j, None,
                              y_at(j), mu_j, z2_below)
        lam = mean if drift is None else np.add(drift, mean, out=drift)
        if j == free_depth:
            lam = lam + free
        mu[j] = mu_j
        if keep_levels:
            levels[j] = lam
    if free_depth < stop_depth:
        lam = lam + tree.broadcast(free, free_depth, stop_depth)
    return lam, mu, levels


def leaf_expanding_equation_residual(sol, problem, tree):
    """The residual check as it read before the depth-(N-1) stop: every
    row's carry is stepped down onto the leaves."""
    N, psi = tree.N, problem.psi
    tables = B._term_weights(problem.terms, tree)
    worst = 0.0
    for i in range(N + 1):
        depth = psi.depths[i]
        carry = psi.at(i, i) - sol.Y[i] if depth <= i else -sol.Y[i]
        for j in range(i, N):
            z1 = sol.Z.entry(i, j)
            carry = B._cell_drift(tree, problem.terms, tables, i, j, carry,
                                  sol.Y[j], z1, sol.Z.entry)
            carry = tree.stochastic_integral([z1], j, j + 1, start=carry,
                                             subtract=True)
            if j + 1 == depth:
                carry += psi[i]
        worst = max(worst, float(np.max(np.abs(carry))))
    return worst


def solved_adjoint(monkeypatch, cp, N, seed=3, whole=False):
    """(tree, problem, solution) of the adjoint of ``cp`` at a random
    control on an N-step binary tree: the solution ``solve_adjoint``
    returns, or with ``whole`` its problem solved again with every Z
    entry kept."""
    tree = Tree(N=N, T=1.0, m=1)
    rng = np.random.default_rng(seed)
    u = AdaptedProcess(tree, [0.5 * rng.normal(size=(tree.node_count(i), 1))
                              for i in range(N + 1)])
    X = C.solve_state(cp, u, tree)
    with monkeypatch.context() as patch:
        calls = capture_bsvie(patch, C)
        sol = C.solve_adjoint(cp, X, u, tree)
    return tree, calls[0][0], solve_whole(calls[0]) if whole else sol


def count_calls(monkeypatch, name, record=None):
    """Wrap ``Tree.<name>``; returns the list each call appends
    ``record(values)`` (by default None) to."""
    calls, orig = [], getattr(Tree, name)

    def spy(self, values, *args, **kwargs):
        calls.append(record(values) if record else None)
        return orig(self, values, *args, **kwargs)

    monkeypatch.setattr(Tree, name, spy)
    return calls


class TestZeroFieldStart:
    """A row whose free term sits above the leaves carries its still-zero
    field as absent: it is never represented, and the pass returns the
    zeros-start pass's arrays bit for bit."""

    @pytest.mark.parametrize("keep_levels", [True, False])
    @pytest.mark.parametrize("free_depth, stop_depth",
                             [(1, 2), (3, 2), (4, 4), (5, 2)])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("generator", ["linear", "signed_zero"])
    def test_matches_zeros_start_pass(self, generator, m, free_depth,
                                      stop_depth, keep_levels):
        tree, d, i = Tree(N=7, T=1.0, m=m), 2, 1
        rng = np.random.default_rng(5)
        cy, cz1, cz2 = rng.uniform(-0.6, 0.6, size=3)
        if generator == "linear":
            def fn(i, j, y, z1, z2):
                return cy * y + cz1 * z1[:, :, 0] + cz2 * z2[:, :, 0]
        else:  # -0.0 everywhere: the first live drift's zeros are signed
            def fn(i, j, y, z1, z2):
                return -0.0 * np.abs(y)
        # the last two cells carry no weight, so the zero field passes
        # two steps before the first live drift
        weights = rng.uniform(0.5, 1.5, size=(tree.N + 1, tree.N)) * tree.dt
        weights[:, tree.N - 2:] = 0.0
        terms = [B.GeneratorTerm(fn, weights=weights)]
        tables = B._term_weights(terms, tree)
        ys = {j: rng.normal(size=(tree.node_count(j), d))
              for j in range(tree.N + 1)}
        z2s = {j: rng.normal(size=(tree.node_count(i), d, m))
               for j in range(tree.N)}
        free = rng.normal(size=(tree.node_count(free_depth), d))
        args = (tree, terms, tables, i, free, free_depth, tree.N,
                stop_depth, ys.get, lambda j, ii: z2s[j])
        got = B._outer_pass(*args, keep_levels=keep_levels)
        want = zeros_start_outer_pass(*args, keep_levels=keep_levels)
        assert isinstance(got[0], np.ndarray)
        assert_bits_equal(got[0], want[0])
        assert got[1].keys() == want[1].keys()
        for j, mu_j in got[1].items():
            assert isinstance(mu_j, np.ndarray)
            assert_bits_equal(mu_j, want[1][j])
        if not keep_levels:
            assert got[2] is None and want[2] is None
            return
        assert got[2].keys() == want[2].keys()
        for j, level in got[2].items():
            assert isinstance(level, np.ndarray)
            assert_bits_equal(level, want[2][j])

    def test_adjoint_represents_no_zero_field(self, monkeypatch):
        cp, tree = R.lq_instance(), Tree(N=6, T=1.0, m=1)
        u = C.constant_control(tree, [0.3])
        X = C.solve_state(cp, u, tree)
        with monkeypatch.context() as patch:
            nonzero = count_calls(patch, "martingale_representation",
                                  lambda values: bool(np.any(values)))
            C.solve_adjoint(cp, X, u, tree)
        assert nonzero and all(nonzero)

    def test_adjoint_last_integrands_are_zero_arrays(self, monkeypatch):
        # rows r < N - 1 take step N - 1 from the zero field, so their
        # integrand there is the read-only zero view, which holds no node
        # bytes; row N - 1 takes it from its block's representation of the
        # repeated free term, a computed +0.0 array
        tree, _, sol = solved_adjoint(monkeypatch, R.lq_instance(), 6,
                                      whole=True)
        for r in range(tree.N):
            z = sol.Z.entry(r, tree.N - 1)
            assert isinstance(z, np.ndarray)
            assert z.shape == (tree.node_count(tree.N - 1), 1, tree.m)
            assert not z.any() and not np.signbit(z).any()
            if r == tree.N - 1:
                continue
            assert z.strides == (0, 0, 0)
            assert not z.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                z[0, 0, 0] = 1.0


def zero_arrays_outer_pass(tree, terms, weight_tables, i, free, free_depth,
                           start_depth, stop_depth, y_at, z2_below,
                           keep_levels=False, first_step=None):
    """The outer pass as it read before a zero integrand was a read-only
    view: each step of the scalar-0.0 field gets a fresh np.zeros array."""
    d = free.shape[1]

    def field(lam, depth):
        return np.zeros((tree.node_count(depth), d)) if np.ndim(lam) == 0 \
            else lam

    lam = free if free_depth == start_depth else 0.0
    mu = {}
    levels = {start_depth: field(lam, start_depth)} if keep_levels else None
    for j in range(start_depth - 1, stop_depth - 1, -1):
        if first_step is not None and j == start_depth - 1:
            mean, mu_j = first_step
        elif np.ndim(lam) == 0:
            mean, mu_j = 0.0, np.zeros((tree.node_count(j), d, tree.m))
        else:
            mean, zs = tree.martingale_representation(lam, j + 1, j)
            mu_j = zs[0]
        drift = B._cell_drift(tree, terms, weight_tables, i, j, None,
                              y_at(j), mu_j, z2_below)
        lam = mean if drift is None else np.add(drift, mean, out=drift)
        if j == free_depth:
            lam = lam + free
        mu[j] = mu_j
        if keep_levels:
            levels[j] = field(lam, j)
    if free_depth < stop_depth:
        lam = lam + tree.broadcast(free, free_depth, stop_depth)
    return lam, mu, levels


def adjoint_last_duality_gap(cp, u_bar, v, tree):
    """(gap, adjoint) with the duality gap as it read before the adjoint
    was solved first: X1 and the forcing are built, then the adjoint, and
    its whole solution is held to the end."""
    X = C.solve_state(cp, u_bar, tree)
    X1 = C.solve_variational(cp, u_bar, v, tree, state=X)
    forcing = C.variational_forcing(cp, u_bar, v, tree, state=X)
    adj = C.solve_adjoint(cp, X, u_bar, tree)
    t = tree.times
    lhs = rhs = 0.0
    for i in range(tree.N):
        lhs += tree.dt * float(tree.expectation(
            (forcing[i] * adj.Y[i]).sum(axis=1)))
        gx = np.asarray(cp.g_x(t[i], X[i], u_bar[i]), dtype=float)
        rhs += tree.dt * float(tree.expectation((X1[i] * gx).sum(axis=1)))
    return abs(lhs - rhs), adj


class TestAdjointFirstDualityGap:
    """duality_gap solves the adjoint first and keeps only its Y; the gap
    and the adjoint are those of the adjoint-last order on zero arrays,
    sign bits included."""

    def controls(self, tree, seed):
        rng = np.random.default_rng(seed)
        return [AdaptedProcess(tree, [0.5 * rng.normal(
            size=(tree.node_count(i), 1)) for i in range(tree.N + 1)])
            for _ in range(2)]

    @pytest.mark.parametrize("N", [6, 7, 8, 9, 10])
    @pytest.mark.parametrize("instance", ["lq", "random"])
    def test_matches_adjoint_last_order_on_zero_arrays(self, monkeypatch,
                                                       instance, N):
        cp = R.lq_instance() if instance == "lq" \
            else R.random_linear_instance(11)
        tree = Tree(N=N, T=1.0, m=1)
        u, v = self.controls(tree, N)
        adjoints, solve_adjoint = [], C.solve_adjoint

        def keep(*args, **kwargs):
            adjoints.append(solve_adjoint(*args, **kwargs))
            return adjoints[-1]

        with monkeypatch.context() as patch:
            patch.setattr(C, "solve_adjoint", keep)
            got = C.duality_gap(cp, u, v, tree)
        with monkeypatch.context() as patch:
            patch.setattr(B, "_outer_pass", zero_arrays_outer_pass)
            want, ref = adjoint_last_duality_gap(cp, u, v, tree)
        assert got <= 1e-12
        assert_bits_equal(got, want)
        assert_same_kept(adjoints[0], ref, tree)

    def test_adjoint_z_released_before_variational_solve(self, monkeypatch):
        tree = Tree(N=6, T=1.0, m=1)
        u, v = self.controls(tree, 0)
        refs, alive = [], []
        solve_adjoint, solve_variational = (C.solve_adjoint,
                                            C.solve_variational)

        def adjoint(*args, **kwargs):
            sol = solve_adjoint(*args, **kwargs)
            refs.extend([weakref.ref(sol), weakref.ref(sol.Z)])
            return sol

        def variational(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return solve_variational(*args, **kwargs)

        monkeypatch.setattr(C, "solve_adjoint", adjoint)
        monkeypatch.setattr(C, "solve_variational", variational)
        C.duality_gap(R.lq_instance(), u, v, tree)
        assert alive == [[False, False]]

    def test_traced_peak_at_n14(self):
        # the adjoint's entries on and above the diagonal held through its
        # residual checks put this at 2.2 MB; released, the forcing rows
        # (1.6 MB) set the peak
        tree = Tree(N=14, T=1.0, m=1)
        u, v = self.controls(tree, 14)
        tracemalloc.start()
        try:
            C.duality_gap(R.lq_instance(), u, v, tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.8e6

    def test_given_adjoint_is_read_as_passed(self):
        tree = Tree(N=6, T=1.0, m=1)
        u, v = self.controls(tree, 1)
        cp = R.lq_instance()
        X = C.solve_state(cp, u, tree)
        adj = C.solve_adjoint(cp, X, u, tree)
        assert_bits_equal(C.duality_gap(cp, u, v, tree, state=X,
                                        adjoint=adj),
                          C.duality_gap(cp, u, v, tree))
        shifted = dataclasses.replace(adj, Y=AdaptedProcess(
            tree, [y + 1.0 for y in adj.Y.values]))
        assert C.duality_gap(cp, u, v, tree, state=X, adjoint=shifted) > 1e-3


class TestResidualStopsAboveLeaves:
    """With psi(t_i) above the leaves and a zero last integrand, the
    residual carry stops at depth N - 1; the maximum is the leaf-expanding
    check's bit for bit, and a nonzero last integrand is still expanded."""

    @pytest.mark.parametrize("N", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("instance", ["lq", "random"])
    def test_matches_leaf_expanding_residual(self, monkeypatch, instance, N):
        cp = R.lq_instance() if instance == "lq" \
            else R.random_linear_instance(11)
        tree, problem, sol = solved_adjoint(monkeypatch, cp, N, whole=True)
        with monkeypatch.context() as patch:
            integrals = count_calls(patch, "stochastic_integral")
            got = B.equation_residual(sol, problem, tree)
            steps = len(integrals)
            want = leaf_expanding_equation_residual(sol, problem, tree)
        assert_bits_equal(got, want)
        assert_bits_equal(got, sol.diagnostics["equation_residual"])
        # rows 0..N-1 each skip their last step onto the leaves
        assert steps == N * (N - 1) // 2
        assert len(integrals) - steps == N * (N + 1) // 2

    def test_nonzero_last_integrand_is_expanded(self, monkeypatch):
        tree, problem, sol = solved_adjoint(monkeypatch, R.lq_instance(), 6,
                                            whole=True)
        assert sol.diagnostics["equation_residual"] < 1e-12
        z = np.zeros((tree.node_count(tree.N - 1), 1, 1))
        z[3, 0, 0] = 1e-3
        sol.Z.set_entry(2, tree.N - 1, z)
        got = B.equation_residual(sol, problem, tree)
        assert got == pytest.approx(1e-3 * tree.sqrt_dt, rel=1e-9)
        assert_bits_equal(got, leaf_expanding_equation_residual(
            sol, problem, tree))


def reference_update_norm(a, b):
    """One term of the block sweep's update norm as it read before the
    shared helper: the difference squared in place, summed per node, then
    ``tree.expectation`` (reference copy)."""
    diff = a - b
    diff *= diff
    tail = tuple(range(1, diff.ndim))
    return float(Tree(N=1, T=1.0).expectation(diff.sum(axis=tail)))


class TestSharedUpdateNorm:
    """The block sweep's update norm goes through the shared mean-square
    helper; sweeps, ratios, Y, Z and both residuals are those of the old
    norm bit for bit, and the residual check leaves its inputs alone."""

    @pytest.mark.parametrize("method", ["fixed_point", "block"])
    @pytest.mark.parametrize("m, N", [(1, 6), (1, 9), (2, 4)])
    @pytest.mark.parametrize("family", sorted(R.BACKWARD_PROBLEMS))
    def test_solve_matches_old_update_norm(self, monkeypatch, family, m, N,
                                           method):
        tree = Tree(N=N, T=1.0, m=m)
        p = R.BACKWARD_PROBLEMS[family](tree)
        got = B.solve_bsvie(p, tree, method=method)
        helper, calls = B._mean_square, []

        def reference(a, b, out):
            want = reference_update_norm(a, b)
            # the sweep hands in its scratch array of a's shape
            calls.append((a.ndim, out.shape == a.shape
                          and want.hex() == helper(a, b, out=out).hex()))
            return want

        with monkeypatch.context() as patch:
            patch.setattr(B, "_mean_square", reference)
            want = B.solve_bsvie(p, tree, method=method)
        assert len(calls) >= sum(want.diagnostics["sweeps"])
        # one-step blocks skip the kept step hi - 1, so only Y differences
        ndims = {ndim for ndim, _ in calls}
        assert 2 in ndims and ndims <= {2, 3}
        assert all(same for _, same in calls)
        assert_same_msolution(got, want, tree)

    def test_equation_residual_leaves_inputs_alone(self):
        tree = Tree(N=5, T=1.0, m=2)
        p = R.bsvie_fbm_rl(tree)
        sol = B.solve_bsvie(p, tree, method="block")
        before = ([y.copy() for y in sol.Y.values],
                  [[z.copy() for z in row] for row in sol.Z.values],
                  [v.copy() for v in p.psi.values])
        assert_bits_equal(B.equation_residual(sol, p, tree),
                          sol.diagnostics["equation_residual"])
        after = (sol.Y.values, sol.Z.values, p.psi.values)
        for old, new in zip(before[0] + before[2], after[0] + after[2]):
            assert_bits_equal(old, new)
        for old_row, new_row in zip(before[1], after[1]):
            for old, new in zip(old_row, new_row):
                assert_bits_equal(old, new)


def reference_block_fixed_point(terms, tree, weight_tables, lo, hi, free,
                                outers, tol, max_sweeps):
    """The block sweep as it read before it kept one generation: every row's
    pass of a sweep goes into ``new_y`` / ``new_mu``, then the update norm
    is summed and the old generation replaced (reference copy)."""
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
    scratch = {}

    def update_sq_of(new, old):
        out = scratch.get(new.shape)
        if out is None:
            out = scratch[new.shape] = np.empty_like(new)
        return B._mean_square(new, old, out=out)

    def updates():
        nonlocal y, mu
        while True:
            new_y, new_mu = {}, {}
            for i in outers:
                lam, mu_i, _ = B._outer_pass(
                    tree, terms, weight_tables, i, free[i], hi, hi, i,
                    y_at=lambda j: y[j],
                    z2_below=lambda j, ii: below[j][ii],
                    first_step=first.get(i))
                new_y[i] = lam
                new_mu[i] = mu_i
            update_sq = 0.0
            for i in outers:
                update_sq += tree.dt * update_sq_of(new_y[i], y[i])
                for j, m_val in new_mu[i].items():
                    if j in mu[i] and j != hi - 1:
                        update_sq += tree.dt ** 2 * update_sq_of(m_val,
                                                                 mu[i][j])
            y, mu = new_y, new_mu
            for i in range(lo + 1, hi):
                _, zs = tree.martingale_representation(y[i], i, lo)
                below[i] = {l: zs[l - lo] for l in range(lo, i)}
            yield math.sqrt(update_sq)

    sweeps, ratios = B._sweep_to_tolerance(updates(), tol, max_sweeps,
                                           (lo, hi))
    return y, mu, {"sweeps": sweeps, "ratios": ratios}


def solution_digest(sol, tree):
    """sha256 of Y, Z (shapes, bits and signs), sweeps, contraction ratios
    and both residuals, so two large solutions need not be held at once."""
    h = hashlib.sha256()
    arrays = list(sol.Y.values) + [sol.Z.entry(i, j)
                                   for i in range(tree.N + 1)
                                   for j in range(tree.N)]
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    for key in ("m_condition_residual", "equation_residual", "sweeps",
                "contraction_ratios"):
        h.update(repr(sol.diagnostics[key]).encode())
    return h.hexdigest()


class TestOneGenerationSweep:
    """The block sweep replaces each row as soon as its pass and update norm
    are taken; every sweep is still the two-generation Jacobi sweep, so the
    solution is the old one bit for bit."""

    @pytest.mark.parametrize("method", ["fixed_point", "block"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("N", [6, 9, 12])
    @pytest.mark.parametrize("family", sorted(R.BACKWARD_PROBLEMS))
    def test_solve_matches_two_generation_sweep(self, monkeypatch, family, N,
                                                m, method):
        tree = Tree(N=N, T=1.0, m=m)
        p = R.BACKWARD_PROBLEMS[family](tree)
        got = solution_digest(B.solve_bsvie(p, tree, method=method), tree)
        with monkeypatch.context() as patch:
            patch.setattr(B, "_block_fixed_point",
                          reference_block_fixed_point)
            want = solution_digest(B.solve_bsvie(p, tree, method=method),
                                   tree)
        assert got == want

    @pytest.mark.parametrize("family", ["caputo", "fbm_rl_generator"])
    def test_block_method_has_multi_row_blocks(self, family):
        # the case the ordering argument is about: rows of one block read
        # each other within a sweep
        tree = Tree(N=12, T=1.0, m=1)
        p = R.BACKWARD_PROBLEMS[family](tree)
        blocks = B.solve_bsvie(p, tree, method="block").diagnostics["blocks"]
        assert max(hi - lo for lo, hi in blocks) >= 3


def owned_bytes(sol):
    """Bytes of the writeable Y fields and of the Z entries that own their
    data; a read-only zero view holds no node bytes, and a read-only Y(t_N)
    is the free term's."""
    return sum(y.nbytes for y in sol.Y.values if y.flags.writeable) + sum(
        z.nbytes for row in sol.Z.values for z in row
        if z is not None and z.flags.owndata)


def traced_solve(problem, tree, **kwargs):
    """``solve_bsvie(problem, tree, **kwargs)`` and its traced peak over the
    bytes its solution reaches: :func:`owned_bytes` plus a read-only Y(t_N)
    (the ratio these bounds were set on)."""
    tracemalloc.start()
    try:
        sol = B.solve_bsvie(problem, tree, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    y = sol.Y[tree.N]
    return sol, peak / (owned_bytes(sol) + (0 if y.flags.writeable
                                            else y.nbytes))


class TestSolutionBytes:
    """A solve holds little more than the pair it returns: Z is filled as it
    is computed, and the block sweep keeps one generation.  With a zero Z
    table and two generations, the block method peaked at up to 2.05 times
    the solution's bytes at N = 12, and the lq adjoint at 2.0."""

    @pytest.mark.parametrize("method", ["fixed_point", "block"])
    @pytest.mark.parametrize("family", sorted(R.BACKWARD_PROBLEMS))
    def test_registry_peak_near_solution_bytes(self, family, method):
        tree = Tree(N=12, T=1.0, m=1)
        p = R.BACKWARD_PROBLEMS[family](tree)
        sol, ratio = traced_solve(p, tree, method=method)
        assert ratio <= 1.3
        assert sol.diagnostics["bytes"] == owned_bytes(sol)

    def test_adjoint_peak_near_solution_bytes(self, monkeypatch):
        # solve_adjoint's own tolerance
        tree, problem, _ = solved_adjoint(monkeypatch, R.lq_instance(), 12)
        _, ratio = traced_solve(problem, tree, tol=1e-14)
        assert ratio <= 1.7

    @pytest.mark.parametrize("method", ["fixed_point", "block"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("family", sorted(R.BACKWARD_PROBLEMS))
    def test_every_z_entry_is_an_array(self, family, m, method):
        tree = Tree(N=6, T=1.0, m=m)
        sol = B.solve_bsvie(R.BACKWARD_PROBLEMS[family](tree), tree,
                            method=method)
        for row in sol.Z.values:
            assert len(row) == tree.N
            assert all(isinstance(z, np.ndarray) for z in row)

    def test_bytes_count_adjoint_zero_views_as_nothing(self, monkeypatch):
        _, _, sol = solved_adjoint(monkeypatch, R.lq_instance(), 8,
                                   whole=True)
        zs = [z for row in sol.Z.values for z in row]
        assert all(isinstance(z, np.ndarray) for z in zs)
        views = [z for z in zs if z.strides == (0, 0, 0)]
        assert views and all(not z.flags.writeable and not z.any()
                             for z in views)
        assert not sol.Y[-1].flags.writeable  # the free term's g_x(t_N)
        want = sum(y.nbytes for y in sol.Y.values[:-1]) + sum(
            z.nbytes for z in zs if z.strides != (0, 0, 0))
        assert sol.diagnostics["bytes"] == want

    @pytest.mark.parametrize("instance", ["lq", "random"])
    def test_adjoint_bytes_count_held_entries(self, monkeypatch, instance):
        # Y(t_r) at depth r for r < N (Y(t_N) is the free term's) and the
        # below-diagonal integrands Z(t_i, t_j), j < i, at depth j
        cp = R.lq_instance() if instance == "lq" \
            else R.random_linear_instance(11)
        tree, _, sol = solved_adjoint(monkeypatch, cp, 8)
        N = tree.N
        nodes = sum(tree.node_count(r) for r in range(N)) + sum(
            tree.node_count(j) for i in range(N + 1) for j in range(i))
        assert sol.diagnostics["bytes"] == 8 * nodes == owned_bytes(sol)


def plant_nan(Y, Z, where):
    """Copies of the Y fields and of the Z table with a nan at node 0 of
    ``where``, ("Y", i) or ("Z", i, j), when that entry is set."""
    Y = list(Y)
    Z = TwoParameterProcess(Z.tree, [list(row) for row in Z.values])
    kind, i, *j = where
    field = Y[i] if kind == "Y" else Z.entry(i, j[0])
    if field is not None:
        field = field.copy()
        field.flat[0] = np.nan
        if kind == "Y":
            Y[i] = field
        else:
            Z.set_entry(i, j[0], field)
    return Y, Z


# a nan in Y reaches both checks; Z(t_2, t_4) is above the diagonal, so
# only the equation check reads it
PLANTS = {("Y", 0): (True, True), ("Y", 3): (True, True),
          ("Z", 2, 4): (False, True)}


class TestRowChecks:
    """``solve_bsvie`` checks each row once it and every later row are
    final, through the per-row helpers the public residuals loop over; the
    maxima are the standalone functions' bit for bit, a nan in any row
    makes them nan, and ``keep_above=False`` releases each row's entries
    on and above the diagonal after its check and changes nothing else."""

    @pytest.mark.parametrize("method", ["fixed_point", "block"])
    @pytest.mark.parametrize("m, N", [(1, 5), (1, 9), (2, 4), (2, 6)])
    @pytest.mark.parametrize("family", sorted(R.BACKWARD_PROBLEMS))
    def test_inline_checks_equal_standalone(self, family, m, N, method):
        tree = Tree(N=N, T=1.0, m=m)
        p = R.BACKWARD_PROBLEMS[family](tree)
        sol = B.solve_bsvie(p, tree, method=method)
        assert_bits_equal(sol.diagnostics["m_condition_residual"],
                          B.m_condition_residual(sol, tree))
        assert_bits_equal(sol.diagnostics["equation_residual"],
                          B.equation_residual(sol, p, tree))

    @pytest.mark.parametrize("method", ["fixed_point", "block"])
    @pytest.mark.parametrize("m, N", [(1, 5), (1, 9), (2, 4), (2, 6)])
    @pytest.mark.parametrize("family", sorted(R.BACKWARD_PROBLEMS))
    def test_released_rows_keep_every_other_output(self, family, m, N,
                                                   method):
        tree = Tree(N=N, T=1.0, m=m)
        p = R.BACKWARD_PROBLEMS[family](tree)
        kept = B.solve_bsvie(p, tree, method=method)
        lean = B.solve_bsvie(p, tree, method=method, keep_above=False)
        for i in range(N + 1):
            assert_bits_equal(lean.Y[i], kept.Y[i])
            for j in range(N):
                if j < i:
                    assert_bits_equal(lean.Z.entry(i, j), kept.Z.entry(i, j))
                else:
                    assert lean.Z.entry(i, j) is None
                    assert isinstance(kept.Z.entry(i, j), np.ndarray)
        for key in ("m_condition_residual", "equation_residual", "sweeps",
                    "contraction_ratios", "blocks"):
            assert_bits_equal(lean.diagnostics[key], kept.diagnostics[key])
        assert lean.diagnostics["bytes"] == owned_bytes(lean)
        assert lean.diagnostics["bytes"] < kept.diagnostics["bytes"]
        assert_bits_equal(B.m_condition_residual(lean, tree),
                          lean.diagnostics["m_condition_residual"])
        with pytest.raises(ValueError, match="keep_above=True"):
            B.equation_residual(lean, p, tree)

    @pytest.mark.parametrize("where", sorted(PLANTS))
    @pytest.mark.parametrize("family", sorted(R.BACKWARD_PROBLEMS))
    def test_standalone_residuals_keep_a_nan(self, family, where):
        tree = Tree(N=6, T=1.0, m=1)
        p = R.BACKWARD_PROBLEMS[family](tree)
        sol = B.solve_bsvie(p, tree)
        Y, Z = plant_nan(sol.Y.values, sol.Z, where)
        bad = dataclasses.replace(sol, Y=AdaptedProcess(tree, Y), Z=Z)
        got = (B.m_condition_residual(bad, tree),
               B.equation_residual(bad, p, tree))
        assert [math.isnan(v) for v in got] == list(PLANTS[where])
        assert all(v < 1e-12 for v in got if not math.isnan(v))

    @pytest.mark.parametrize("keep_above", [True, False])
    @pytest.mark.parametrize("where", sorted(PLANTS))
    @pytest.mark.parametrize("family", sorted(R.BACKWARD_PROBLEMS))
    def test_inline_residuals_keep_a_nan(self, monkeypatch, family, where,
                                         keep_above):
        # the nan goes into what each row's check reads, not into the
        # solve, so it reaches the checks and nothing else
        tree = Tree(N=6, T=1.0, m=1)
        p = R.BACKWARD_PROBLEMS[family](tree)
        m_row, eq_row = B._m_condition_row, B._equation_row
        monkeypatch.setattr(B, "_m_condition_row", lambda tree, Y, Z, i:
                            m_row(tree, *plant_nan(Y, Z, where), i))
        monkeypatch.setattr(B, "_equation_row",
                            lambda tree, problem, tables, Y, Z, i: eq_row(
                                tree, problem, tables,
                                *plant_nan(Y, Z, where), i))
        diag = B.solve_bsvie(p, tree, keep_above=keep_above).diagnostics
        got = (diag["m_condition_residual"], diag["equation_residual"])
        assert [math.isnan(v) for v in got] == list(PLANTS[where])


class TestFreeTermView:
    """When the last row solves to the free term's own array, Y(t_N) is a
    read-only view of it: the same memory and bits, no copy, not counted
    in the solution's bytes, and a write raises instead of changing the
    problem."""

    @pytest.mark.parametrize("method", ["fixed_point", "block"])
    @pytest.mark.parametrize("family", sorted(R.BACKWARD_PROBLEMS))
    def test_last_row_is_a_read_only_view(self, family, method):
        tree = Tree(N=5, T=1.0, m=1)
        p = R.BACKWARD_PROBLEMS[family](tree)
        free = p.psi[tree.N]
        before = free.copy()
        sol = B.solve_bsvie(p, tree, method=method)
        y = sol.Y[tree.N]
        assert y is not free and np.shares_memory(y, free)
        assert_bits_equal(y, free)
        assert not y.flags.writeable and free.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            y[0, 0] = 1.0
        assert_bits_equal(free, before)
        want = sum(sol.Y[i].nbytes for i in range(tree.N)) + sum(
            z.nbytes for row in sol.Z.values for z in row if z.flags.owndata)
        assert sol.diagnostics["bytes"] == want


class TestMethodAgreement:
    def make_fractional_problem(self, tree, alpha=0.7, z2_coeff=0.7):
        kern = K.make_fractional(alpha, K.ANTICAUSAL, tree.T,
                                 scale=1.0 / gamma_fn(alpha))
        psi = terminal_from_function(
            tree, lambda t, w: np.cos(w[:, 0] + 2.0 * t))

        def fn(i, j, y, z1, z2):
            return -0.4 * y + 0.2 * z1[:, :, 0] + z2_coeff * z2[:, :, 0]

        lz2 = K.make_fractional(alpha, K.ANTICAUSAL, tree.T,
                                scale=z2_coeff / gamma_fn(alpha))
        ly = K.make_fractional(alpha, K.ANTICAUSAL, tree.T,
                               scale=0.4 / gamma_fn(alpha))
        return B.BSVIEProblem(psi, [B.GeneratorTerm(fn, kernel=kern)],
                              L_y=ly, L_z2=lz2)

    def max_gap(self, a, b, tree):
        N = tree.N
        worst = max(float(np.max(np.abs(a.Y[i] - b.Y[i])))
                    for i in range(N + 1))
        return max(worst, max(float(np.max(np.abs(a.Z.entry(i, j)
                                                  - b.Z.entry(i, j))))
                              for i in range(N + 1) for j in range(N)))

    def test_fixed_point_vs_block(self):
        tree = Tree(N=6, T=1.0, m=1)
        p = self.make_fractional_problem(tree)
        s_fp = B.solve_bsvie(p, tree, method="fixed_point", tol=1e-13)
        s_bl = B.solve_bsvie(p, tree, method="block", tol=1e-13)
        assert len(s_bl.diagnostics["blocks"]) > 1
        assert self.max_gap(s_fp, s_bl, tree) <= 1e-8

    def test_block_handles_strong_transposed_coupling(self):
        # strong transposed coupling: the partition takes short blocks,
        # and each of them contracts
        tree = Tree(N=6, T=1.0, m=1)
        p = self.make_fractional_problem(tree, z2_coeff=1.5)
        sol = B.solve_bsvie(p, tree, method="block", tol=1e-12)
        assert B.m_condition_residual(sol, tree) < 1e-12
        assert B.equation_residual(sol, p, tree) < 1e-9

    def test_fixed_point_solves_coupling_beyond_block_partition(self):
        # row substitution needs no partition: only the diagonal cell
        # couples a row to itself
        tree = Tree(N=6, T=1.0, m=1)
        p = self.make_fractional_problem(tree, z2_coeff=3.0)
        with pytest.raises(B.BlockPartitionError):
            B.solve_bsvie(p, tree, method="block")
        sol = B.solve_bsvie(p, tree, method="fixed_point", tol=1e-12)
        assert sol.diagnostics["m_condition_residual"] < 1e-12
        assert sol.diagnostics["equation_residual"] < 1e-9
        p = self.make_fractional_problem(tree, z2_coeff=1.5)
        s_fp = B.solve_bsvie(p, tree, method="fixed_point", tol=1e-12)
        s_bl = B.solve_bsvie(p, tree, method="block", tol=1e-12)
        assert self.max_gap(s_fp, s_bl, tree) <= 1e-8

    def test_block_requires_declared_kernels(self):
        tree = Tree(N=4, T=1.0, m=1)
        p = linear_problem(tree, c_y=-0.2)
        with pytest.raises(B.BlockPartitionError):
            B.solve_bsvie(p, tree, method="block")

    @pytest.mark.parametrize("kernels", [
        {"L_z2": K.make_counterexample_sup()},
        {"L_y": K.make_fractional(0.4, K.CAUSAL)},
    ], ids=["z2_partition_infeasible", "y_mass_diverges"])
    def test_block_rejects_unusable_kernels(self, kernels):
        tree = Tree(N=4, T=1.0, m=1)
        with warnings.catch_warnings():
            # the construction's soft class check may flag the kernel
            warnings.simplefilter("ignore", K.KernelClassWarning)
            p = linear_problem(tree, c_y=-0.2, **kernels)
        with pytest.raises(B.BlockPartitionError):
            B.solve_bsvie(p, tree, method="block")

    def test_terminal_block_contraction_ratio(self):
        # at the 1/2 partition budget the terminal block's sweep ratio
        # stays at or below one half (plus measurement slack)
        tree = Tree(N=6, T=1.0, m=1)
        p = self.make_fractional_problem(tree)
        sol = B.solve_bsvie(p, tree, method="block", tol=1e-12)
        ratios = sol.diagnostics["contraction_ratios"]
        assert ratios[0] <= 0.5 + 0.1  # blocks are solved terminal-first


class TestParameterizedFamily:
    def test_zero_generator_gives_conditional_expectations(self):
        tree = Tree(N=6, T=1.0, m=1)
        psi = terminal_from_function(tree, lambda t, w: w[:, 0] ** 2 + t)
        fam = B.solve_param_bsde_family(psi, lambda t, s, z: 0.0 * z[:, :, 0],
                                        tree, R_index=1, S_index=3)
        for i in range(3, 7):
            for r in range(1, 7):
                if r in fam.lam[i]:
                    expected = tree.conditional_expectation(psi[i], 6, r)
                    assert np.allclose(fam.lam[i][r], expected, atol=1e-13)

    def test_sfie_window_start_measurability(self):
        tree = Tree(N=6, T=1.0, m=1)
        psi = terminal_from_function(tree, lambda t, w: np.sin(w[:, 0]) + t)
        psi_S, Z = B.solve_sfie(psi, lambda t, s, z: 0.3 * z[:, :, 0],
                                tree, R_index=0, S_index=3)
        for i in range(0, 4):
            assert psi_S[i].shape == (tree.node_count(3), 1)
            assert set(Z[i]) == {3, 4, 5}

    def test_index_validation(self):
        tree = Tree(N=4, T=1.0, m=1)
        psi = terminal_from_function(tree, lambda t, w: w[:, 0])
        with pytest.raises(ValueError):
            B.solve_param_bsde_family(psi, lambda t, s, z: 0.0 * z[:, :, 0],
                                      tree, R_index=3, S_index=1)

    def test_sfie_equals_family_at_window_start(self):
        # the Fredholm pass is the family evaluated at r = S
        tree = Tree(N=6, T=1.0, m=1)
        psi = terminal_from_function(tree, lambda t, w: np.cos(w[:, 0]) + t)
        h = lambda t, s, z: 0.4 * z[:, :, 0:1].reshape(z.shape[:1] + (1,))
        S_index = 3
        fam = B.solve_param_bsde_family(psi, h, tree, R_index=S_index,
                                        S_index=S_index)
        psi_S, Z = B.solve_sfie(psi, h, tree, R_index=0, S_index=S_index)
        for i in range(S_index, tree.N + 1):
            assert np.allclose(fam.lam[i][S_index], psi_S[i], atol=1e-14) \
                if i in psi_S else True
        # overlapping outer index: both views produce the same field
        assert np.allclose(fam.lam[S_index][S_index], psi_S[S_index],
                           atol=1e-14)


class TestCaputoBSVIE:
    def test_zero_data_gives_conditional_expectations(self):
        tree = Tree(N=6, T=1.0, m=1)
        xi = np.sin(tree.brownian(6))
        p = R.make_caputo_bsde(0.75, np.zeros((1, 1)), None, xi, tree)
        sol = B.solve_bsvie(p, tree)
        for i in range(7):
            expected = tree.conditional_expectation(xi, 6, i)
            assert np.allclose(sol.Y[i], expected, atol=1e-12)

    def test_f_that_does_not_vanish_is_rejected(self):
        # the same zero probe as for terms handed to BSVIEProblem directly
        tree = Tree(N=4, T=1.0, m=1)
        xi = np.sin(tree.brownian(4))
        with pytest.raises(ValueError, match="does not vanish"):
            R.make_caputo_bsde(0.75, [[0.3]], lambda s, y, z: y + 1.0, xi,
                               tree)

    def test_free_term_is_one_shared_array(self):
        # the solve reads the free term and never writes into it, so one
        # array serves every outer index and the solution matches a problem
        # built on separate copies bit for bit
        tree = Tree(N=5, T=1.0, m=2)
        xi = np.tanh(tree.brownian(5)[:, :1] - tree.brownian(5)[:, 1:])
        A = np.array([[0.3]])

        def f(s, y, z):
            return 0.25 * y + 0.15 * z[:, :, 0]

        p = R.make_caputo_bsde(0.75, A, f, xi, tree)
        assert all(p.psi[i] is p.psi[0] for i in range(tree.N + 1))
        assert not np.shares_memory(p.psi[0], xi)
        copies = B.BSVIEProblem(
            TerminalField(tree, [p.psi[0].copy() for _ in range(6)]),
            p.terms, L_y=p.L_y, L_z1=p.L_z1)
        for method in ("fixed_point", "block"):
            shared = B.solve_bsvie(p, tree, method=method)
            apart = B.solve_bsvie(copies, tree, method=method)
            for i in range(tree.N + 1):
                assert np.array_equal(shared.Y[i], apart.Y[i])
                for j in range(tree.N):
                    assert np.array_equal(shared.Z.entry(i, j),
                                          apart.Z.entry(i, j))
        assert np.array_equal(p.psi[0], xi)

    def test_alpha_near_one_matches_plain_backward(self):
        tree = Tree(N=8, T=1.0, m=1)
        xi = np.cos(tree.brownian(8))
        A = np.array([[0.4]])
        alpha = 0.999
        p = R.make_caputo_bsde(alpha, A, None, xi, tree)
        sol = B.solve_bsvie(p, tree, tol=1e-13)
        Yb, _ = B.solve_bsde(xi, lambda s, y, z: -0.4 * y, tree,
                             y_scheme="implicit")
        worst = max(float(np.max(np.abs(sol.Y[i] - Yb[i])))
                    for i in range(9))
        assert worst < 5e-3  # discretization-level agreement

    def test_linear_f_matches_dense_solve(self):
        tree = Tree(N=5, T=1.0, m=1)
        xi = np.tanh(tree.brownian(5))
        A = np.array([[0.3]])
        alpha = 0.75

        def f(s, y, z):
            return 0.25 * y + 0.15 * z[:, :, 0]

        p = R.make_caputo_bsde(alpha, A, f, xi, tree)
        sol = B.solve_bsvie(p, tree, tol=1e-13)
        # the z1 rescaling (s-t)^(1-alpha) makes coefficients time-paired
        # but still linear, which the dense assembler probes pointwise
        Yd, Zd, fit = dense_linear_bsvie_solve(p, tree)
        assert fit < 1e-10
        worst = max(float(np.max(np.abs(sol.Y[i][:, 0] - Yd[i])))
                    for i in range(6))
        assert worst < 1e-10

    def test_registry_problem_checks_its_declared_kernels(self, monkeypatch):
        # bsvie_caputo declares L_y and L_z2 at 1.2 and 0.15 times the
        # generator kernel; the kernel-class check must measure those, the
        # kernels grid_blocks partitions with
        measured = []

        def recording(norm):
            def measure(kernel):
                measured.append(kernel.meta["power"][0])
                return norm(kernel)
            return measure

        for name in ("triangle_l2_norm", "script_norm"):
            monkeypatch.setattr(B, name, recording(getattr(B, name)))
        p = R.bsvie_caputo(Tree(N=6, T=1.0, m=1), 0.75)
        scales = [1.2 / gamma_fn(0.75), 0.15 / gamma_fn(0.75)]
        assert [p.L_y.meta["power"][0], p.L_z2.meta["power"][0]] == scales
        for scale in scales:
            assert scale in measured


class TestCaputoBSVIEMultiNoise:
    """At m = 2 the registry's caputo problem has d = 2 and A = 0.3 I_2, so
    -A y acts component by component."""

    def test_term_value_per_component(self):
        tree = Tree(N=4, T=1.0, m=2)
        p = R.bsvie_caputo(tree)
        y = np.tile([1.0, 2.0], (tree.node_count(2), 1))
        z = np.zeros((tree.node_count(2), 2, 2))
        val = p.terms[0].fn(1, 2, y, z, z)
        assert np.allclose(val, [[-0.05, -0.10]] * tree.node_count(2),
                           atol=1e-15)

    @pytest.mark.parametrize("method", ["fixed_point", "block"])
    def test_solve_residuals(self, method):
        tree = Tree(N=4, T=1.0, m=2)
        p = R.bsvie_caputo(tree)
        assert p.d == 2
        diag = B.solve_bsvie(p, tree, method=method).diagnostics
        assert diag["m_condition_residual"] <= 1e-12
        assert diag["equation_residual"] <= 1e-12

    def test_mismatched_A_refused(self):
        tree = Tree(N=4, T=1.0, m=2)
        xi = np.tanh(tree.brownian(tree.N))
        with pytest.raises(ValueError, match=r"\(1, 1\).*\(2, 2\)"):
            R.make_caputo_bsde(0.75, [[0.3]], None, xi, tree)


class TestLinearAdjointConstructor:
    def test_semigroup_adjoint_solves(self):
        tree = Tree(N=5, T=1.0, m=1)
        psi = terminal_from_function(tree, lambda t, w: w[:, 0] + 1.0)
        M = np.array([[-0.5]])
        from scipy.linalg import expm
        p = R.make_linear_adjoint(
            lambda t: np.array([[0.3]]), lambda t: np.array([[0.2]]),
            lambda lag: expm(lag * M), psi)
        sol = B.solve_bsvie(p, tree, tol=1e-12)
        assert B.m_condition_residual(sol, tree) < 1e-13
        assert B.equation_residual(sol, p, tree) < 1e-10

    def test_fbm_kernel_adjoint(self):
        tree = Tree(N=5, T=1.0, m=1)
        psi = terminal_from_function(tree, lambda t, w: np.cos(w[:, 0]))
        kern_y = K.make_fractional(1.2, K.ANTICAUSAL)  # bounded lag^0.2
        kern_z = K.make_fractional(0.8, K.ANTICAUSAL)  # singular lag^-0.2
        p = R.make_linear_adjoint(
            lambda t: np.array([[0.4]]), lambda t: np.array([[0.3]]),
            lambda lag: np.eye(1), psi, kernel_y=kern_y, kernel_z2=kern_z)
        sol = B.solve_bsvie(p, tree, tol=1e-12)
        assert B.m_condition_residual(sol, tree) < 1e-13

    def test_outer_boundary_blowup_rejected_with_clear_error(self):
        # the mirrored full fractional-Brownian kernel diverges as the
        # outer time reaches 0, so its first weight row is infinite; the
        # solver must refuse instead of propagating non-finite values
        tree = Tree(N=5, T=1.0, m=1)
        psi = terminal_from_function(tree, lambda t, w: np.cos(w[:, 0]))
        ky = K.mirror_kernel(K.make_fbm_full(0.7))
        p = B.BSVIEProblem(
            psi, [B.GeneratorTerm(lambda i, j, y, z1, z2: 0.4 * y,
                                  kernel=ky)])
        with pytest.raises(ValueError, match="divergent cell weight"):
            B.solve_bsvie(p, tree, tol=1e-10)

    def test_clamped_full_fbm_kernel_adjoint_solves(self):
        # pulling the outer evaluation point off the boundary (and below
        # the inner time, respecting the domain) regularizes the edge
        # blow-up; the solve then goes through
        tree = Tree(N=5, T=1.0, m=1)
        base = K.make_fbm_full(0.7)
        floor = 0.5 * tree.dt

        def ev(t, s):
            s_arr = np.atleast_1d(np.asarray(s, dtype=float))
            out = np.array([
                float(base.eval_fn(float(si),
                                   min(max(t, floor), 0.9 * float(si))))
                for si in s_arr])
            return out if np.ndim(s) else out[0]

        ky = K.Kernel("fbm_full_mirror_clamped", K.ANTICAUSAL, 1.0, ev,
                      (0.0, 0.0))
        psi = terminal_from_function(tree, lambda t, w: np.cos(w[:, 0]))
        p = B.BSVIEProblem(
            psi, [B.GeneratorTerm(lambda i, j, y, z1, z2: 0.2 * y,
                                  kernel=ky)])
        sol = B.solve_bsvie(p, tree, tol=1e-11)
        assert B.m_condition_residual(sol, tree) < 1e-13
        assert B.equation_residual(sol, p, tree) < 1e-8

    def test_memory_resolvent_adjoint(self):
        # semigroup factor replaced by the scalar two-parameter
        # Mittag-Leffler resolvent, weighted by the fractional kernel
        tree = Tree(N=5, T=1.0, m=1)
        q = 0.75
        a = -0.6
        psi = terminal_from_function(tree, lambda t, w: np.sin(w[:, 0]) + 1)
        kern = K.make_fractional(q, K.ANTICAUSAL, scale=1.0 / gamma_fn(q))
        p = R.make_linear_adjoint(
            lambda t: np.array([[0.5]]), lambda t: np.array([[0.3]]),
            lambda lag: np.array([[mittag_leffler(q, q, a * lag ** q)]])
            if lag > 0 else np.array([[1.0 / gamma_fn(q)]]),
            psi, kernel_y=kern, kernel_z2=kern)
        sol = B.solve_bsvie(p, tree, tol=1e-12)
        assert B.m_condition_residual(sol, tree) < 1e-13
        assert B.equation_residual(sol, p, tree) < 1e-9


class TestStability:
    def test_identical_problems_zero_gap(self):
        tree = Tree(N=5, T=1.0, m=1)
        p = linear_problem(tree, c_y=-0.5,
                           psi_fn=lambda t, w: np.sin(w[:, 0]))
        p2 = linear_problem(tree, c_y=-0.5,
                            psi_fn=lambda t, w: np.sin(w[:, 0]))
        assert B.stability_gap_bsvie(p, p2, tree) == 0.0

    def test_free_term_perturbation_ratios_bounded(self):
        tree = Tree(N=5, T=1.0, m=1)
        base = linear_problem(tree, c_y=-0.5,
                              psi_fn=lambda t, w: np.sin(w[:, 0]))
        ratios = []
        for delta in (1e-1, 1e-2, 1e-3):
            pert = linear_problem(
                tree, c_y=-0.5,
                psi_fn=lambda t, w, d=delta: np.sin(w[:, 0]) + d)
            ratios.append(B.stability_gap_bsvie(base, pert, tree))
        assert max(ratios) < 5.0
