import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize

from svolterra import backward as B
from svolterra import forward as F
from svolterra import kernels as K
from svolterra import registry as R
from svolterra.lattice import TerminalField, Tree
from svolterra.special import gamma_fn


def doubly_slice_sq_exact(alpha, beta, t, T):
    """Closed form (1-2a)^-1 (T-t)^(1-2a) t^(-2b) of the squared slice."""
    return (T - t) ** (1 - 2 * alpha) / ((1 - 2 * alpha) * t ** (2 * beta))


def slice_norm(kernel, t, b):
    """The slice L2 norm over (t, b] at the one point t."""
    return float(kernel.slice_l2_profile(np.array([t]), b)[0])


class TestSliceL2:
    def test_doubly_singular_closed_form(self):
        T = 1.0
        for alpha, beta in [(0.3, 0.2), (0.1, 0.0), (0.45, 0.4)]:
            k = K.make_doubly_singular(alpha, beta, horizon=T)
            for t in (0.2, 0.5, 0.9):
                expected = doubly_slice_sq_exact(alpha, beta, t, T)
                assert slice_norm(k, t, T) ** 2 == pytest.approx(expected,
                                                                 rel=1e-12)

    def test_constant_kernel_full_slice(self):
        k = K.make_constant(1.0, horizon=1.0, orientation=K.ANTICAUSAL)
        assert slice_norm(k, 0.0, 1.0) == pytest.approx(math.sqrt(1.0),
                                                        rel=1e-14)

    def test_counterexample_sup_slice_is_sqrt_two(self):
        k = K.make_counterexample_sup(1.0)
        for t in (0.0, 0.3, 0.99):
            assert slice_norm(k, t, 1.0) ** 2 == pytest.approx(2.0, rel=1e-13)

    def test_divergent_slice_flagged(self):
        # squared fractional exponent -1.2 is not integrable at the diagonal
        k = K.make_fractional(0.4, K.ANTICAUSAL)
        assert slice_norm(k, 0.2, 1.0) == math.inf


class TestTriangleNorm:
    def test_steep_fractional_diverges(self):
        # lag^-0.6 squared diverges at the diagonal
        k = K.make_fractional(0.4, K.CAUSAL)
        assert K.triangle_l2_norm(k) == math.inf

    def test_unit_kernel_triangle_area(self):
        k = K.make_constant(1.0, horizon=1.0, orientation=K.ANTICAUSAL)
        assert K.triangle_l2_norm(k) ** 2 == pytest.approx(0.5, rel=1e-10)

    def test_doubly_singular_against_nested_adaptive_oracle(self):
        alpha = beta = 0.3
        k = K.make_doubly_singular(alpha, beta, horizon=1.0)
        got = K.triangle_l2_norm(k) ** 2

        def inner(t):
            val, _ = integrate.quad(
                lambda s: (s - t) ** (-2 * alpha) * t ** (-2 * beta),
                t, 1.0, limit=400, epsabs=1e-13, epsrel=1e-12)
            return val

        oracle = []
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            for epsrel in (1e-8, 1e-10):
                val, _ = integrate.quad(inner, 0.0, 1.0, limit=400,
                                        epsrel=epsrel, epsabs=1e-13)
                oracle.append(val)
        assert oracle[0] == pytest.approx(oracle[1], abs=1e-6)
        assert got == pytest.approx(oracle[1], abs=1e-6)
        # Beta-function closed form agrees too
        from scipy.special import beta as beta_fn
        closed = beta_fn(1 - 2 * beta, 2 - 2 * alpha) / (1 - 2 * alpha)
        assert got == pytest.approx(closed, rel=1e-8)


def beta_triangle_sq(scale, a, b, T):
    """Squared triangle norm of scale * lag^-a * x^-b on [0, T] (DLMF
    5.12.1): scale^2 T^(2-2a-2b) B(1-2b, 2-2a) / (1-2a)."""
    from scipy.special import beta as beta_fn
    return scale ** 2 * T ** (2 - 2 * a - 2 * b) \
        * beta_fn(1 - 2 * b, 2 - 2 * a) / (1 - 2 * a)


def nested_triangle_sq(scale, a, b, T):
    """Squared triangle norm of scale * lag^-a * x^-b on [0, T] by a tight
    nested quad in (x, lag), each singularity an exact algebraic weight."""
    def inner(x):
        return integrate.quad(lambda r: scale ** 2, 0.0, T - x,
                              weight="alg", wvar=(-2 * a, 0.0), epsabs=0.0,
                              epsrel=1e-13)[0]

    return integrate.quad(inner, 0.0, T, weight="alg", wvar=(-2 * b, 0.0),
                          epsabs=0.0, epsrel=1e-13, limit=200)[0]


def assert_power_form(k, scale, a, b):
    """k(t, s) = scale * lag^-a * x^-b at interior points of its triangle."""
    T = k.horizon
    for x, lag in [(0.1 * T, 0.3 * T), (0.45 * T, 0.5 * T),
                   (0.7 * T, 0.05 * T)]:
        t, s = (x + lag, x) if k.orientation == K.CAUSAL else (x, x + lag)
        assert float(k(t, s)) == pytest.approx(
            scale * abs(t - s) ** -a * x ** -b, rel=1e-13)


class TestTriangleNormClosedForm:
    """The power kernels take the Beta closed form, checked against an
    independent nested quadrature and the Beta formula."""

    @pytest.mark.parametrize("orientation", [K.CAUSAL, K.ANTICAUSAL])
    @pytest.mark.parametrize("alpha, T, scale", [
        (0.7, 1.0, 1.0), (0.55, 2.5, 0.4), (1.25, 1.0, 0.37),
        (2.5, 2.5, 1.3)])
    def test_fractional(self, orientation, alpha, T, scale):
        k = K.make_fractional(alpha, orientation, T, scale=scale)
        expected = nested_triangle_sq(scale, 1 - alpha, 0.0, T)
        assert expected == pytest.approx(
            beta_triangle_sq(scale, 1 - alpha, 0.0, T), rel=1e-12)
        for kern in (k, K.mirror_kernel(k)):
            assert_power_form(kern, scale, 1 - alpha, 0.0)
            assert K.triangle_l2_norm(kern) ** 2 == pytest.approx(
                expected, rel=1e-12)

    @pytest.mark.parametrize("orientation", [K.CAUSAL, K.ANTICAUSAL])
    @pytest.mark.parametrize("alpha, beta, T", [
        (0.3, 0.2, 1.0), (0.45, 0.0, 2.5), (0.0, 0.4, 2.5),
        (0.1, 0.45, 1.0)])
    def test_doubly_singular(self, orientation, alpha, beta, T):
        k = K.make_doubly_singular(alpha, beta, orientation, T)
        expected = nested_triangle_sq(1.0, alpha, beta, T)
        assert expected == pytest.approx(
            beta_triangle_sq(1.0, alpha, beta, T), rel=1e-12)
        for kern in (k, K.mirror_kernel(k)):
            assert_power_form(kern, 1.0, alpha, beta)
            assert K.triangle_l2_norm(kern) ** 2 == pytest.approx(
                expected, rel=1e-12)

    @pytest.mark.parametrize("T", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("orientation", [K.CAUSAL, K.ANTICAUSAL])
    def test_gamma_ratio_matches_scipy_beta(self, orientation, T):
        # the closed form takes B(x, y) as a ratio of gamma_fn values; on
        # every power kernel with a finite norm (lag exponent a in
        # [-0.9, 0.5), edge exponent b in [0, 0.5)) it stays within a few
        # ulp of the scipy.special.beta form
        cases = [(K.make_fractional(1.0 - a, orientation, T, scale=0.8),
                  0.8, a, 0.0) for a in np.linspace(-0.9, 0.45, 28)]
        cases += [(K.make_doubly_singular(a, b, orientation, T), 1.0, a, b)
                  for a in np.linspace(0.0, 0.45, 10)
                  for b in np.linspace(0.05, 0.45, 9)]
        for k, *power in cases:
            assert k.meta["power"] == pytest.approx(power, abs=1e-15)
            want = math.sqrt(beta_triangle_sq(*k.meta["power"], T))
            assert K.triangle_l2_norm(k) == pytest.approx(
                want, rel=5e-15, abs=0.0), power

    @pytest.mark.parametrize("alpha", [85.0, 86.0, 200.0])
    def test_beta_past_gamma_overflow(self, alpha):
        # Gamma(3 - 2a) overflows a double for alpha above ~86
        k = K.make_fractional(alpha, K.ANTICAUSAL, 1.0)
        assert K.triangle_l2_norm(k) == pytest.approx(
            math.sqrt(beta_triangle_sq(1.0, 1.0 - alpha, 0.0, 1.0)),
            rel=1e-12)

    def test_fbm_rl(self):
        H = 0.3
        got = K.triangle_l2_norm(K.make_fbm_rl(H, 2.5)) ** 2
        assert got == pytest.approx(beta_triangle_sq(
            1.0 / gamma_fn(H + 0.5), 0.5 - H, 0.0, 2.5), rel=1e-14)

    @pytest.mark.parametrize("make", [
        lambda o: K.make_fractional(0.5, o), lambda o: K.make_fractional(0.3, o),
        lambda o: K.make_doubly_singular(0.5, 0.1, o),
        lambda o: K.make_doubly_singular(0.2, 0.5, o),
        lambda o: K.mirror_kernel(K.make_fractional(0.45, o, 2.5))])
    @pytest.mark.parametrize("orientation", [K.CAUSAL, K.ANTICAUSAL])
    def test_divergent_exponents_are_infinite(self, make, orientation):
        assert K.triangle_l2_norm(make(orientation)) == math.inf

    @pytest.mark.parametrize("make", [
        lambda: K.make_doubly_singular(0.3, 0.2, K.CAUSAL, 2.5),
        lambda: K.make_doubly_singular(0.2, 0.0, K.ANTICAUSAL),
        lambda: K.mirror_kernel(K.make_doubly_singular(0.1, 0.3)),
        lambda: K.make_fractional(1.25, K.CAUSAL, scale=0.37)])
    def test_classify_measures_the_closed_form(self, make):
        # classify integrates the slice profile for every kernel, so its
        # measured norm is an independent check of the closed form
        kern = make()
        rep = K.classify(kern, eps_grid=(1.0,))
        assert rep.l2_triangle_norm == pytest.approx(
            K.triangle_l2_norm(kern), rel=2e-10)

    def test_registry_problems_build_without_quadrature(self, monkeypatch):
        # every declared kernel of the three families has a closed form, so
        # the kernel-class check on construction runs no adaptive quadrature
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("adaptive quadrature during the build")

        monkeypatch.setattr(integrate, "quad", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error", K.KernelClassWarning)
            for build in R.BACKWARD_PROBLEMS.values():
                build(Tree(N=8, T=1.0, m=1))
        assert calls == []


class TestFindPartition:
    def test_square_integrable_convolution_always_feasible(self):
        h = lambda r: np.power(np.maximum(r, 1e-300), -0.1)
        h2 = lambda r: np.maximum(r, 0.0) ** 0.8 / 0.8
        k = K.make_convolution(h, 1.0, K.CAUSAL, h_sq_antiderivative=h2,
                               diag_exponent=0.1)
        for eps in (1.0, 0.5, 0.25, 0.125):
            part = K.find_partition(k, eps)
            assert isinstance(part, K.Partition)
            assert part.breakpoints[0] == 0.0
            assert part.breakpoints[-1] == 1.0
            assert K.reverify_partition(k, part, eps) is None

    def test_counterexample_infeasible_below_sqrt2(self):
        k = K.make_counterexample_sup(1.0)
        res = K.find_partition(k, 1.0)
        assert isinstance(res, K.PartitionInfeasible)
        assert res.reason == "mathematical"
        assert res.witness_t > 0.9
        assert res.measured_sup >= 1.0

    def test_counterexample_feasible_above_sqrt2(self):
        k = K.make_counterexample_sup(1.0)
        part = K.find_partition(k, 1.5)
        assert isinstance(part, K.Partition)
        assert len(part) == 1

    def test_zero_kernel_single_interval(self):
        k = K.make_constant(0.0, horizon=2.0, orientation=K.ANTICAUSAL)
        part = K.find_partition(k, 0.01)
        assert part.breakpoints == (0.0, 2.0)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            K.find_partition(K.make_constant(1.0), 0.0)

    def test_budget_infeasibility_distinct_from_mathematical(self):
        # lag^-0.25 slices need ~16k subintervals at eps = 0.125, far over
        # the cap, while terminal intervals do shrink below the bound
        h = lambda r: np.power(np.maximum(r, 1e-300), -0.25)
        h2 = lambda r: np.maximum(r, 0.0) ** 0.5 / 0.5
        k = K.make_convolution(h, 1.0, K.CAUSAL, h_sq_antiderivative=h2,
                               diag_exponent=0.25)
        res = K.find_partition(k, 0.125, cap=512)
        assert isinstance(res, K.PartitionInfeasible)
        assert res.reason == "budget"

    def test_left_edge_blowup_is_mathematical(self):
        res = K.find_partition(K.make_doubly_singular(0.2, 0.3), 1.0)
        assert isinstance(res, K.PartitionInfeasible)
        assert res.reason == "mathematical"
        assert res.witness_t < 0.05


class TestClassify:
    def test_doubly_singular_sample(self):
        # in the square-integrable class always, partitionable only at beta=0
        rep = K.classify(K.make_doubly_singular(0.3, 0.0),
                         eps_grid=(1.0, 0.5))
        assert rep.in_L2 and rep.in_scriptL2
        rep = K.classify(K.make_doubly_singular(0.3, 0.2),
                         eps_grid=(1.0, 0.5))
        assert rep.in_L2 and not rep.in_scriptL2
        assert rep.script_norm == math.inf

    def test_shifted_inverse_sqrt_counterexample(self):
        # partition condition passes, esssup condition fails
        k = K._shifted_inverse_sqrt(1.0)
        rep = K.classify(k, eps_grid=(1.0, 0.5, 0.25))
        assert rep.script_norm == math.inf
        assert all(isinstance(p, K.Partition)
                   for p in rep.partition_results.values())
        assert not rep.in_scriptL2

    def test_unit_kernel_everything(self):
        rep = K.classify(K.make_constant(1.0, orientation=K.ANTICAUSAL),
                         eps_grid=(1.0, 0.5))
        assert rep.in_L2 and rep.in_scriptL2 and rep.in_K0

    def test_square_integrable_convolution_in_script_class(self):
        h = lambda r: np.power(np.maximum(r, 1e-300), -0.1)
        h2 = lambda r: np.maximum(r, 0.0) ** 0.8 / 0.8
        k = K.make_convolution(h, 1.0, K.CAUSAL, h_sq_antiderivative=h2,
                               diag_exponent=0.1)
        rep = K.classify(k, eps_grid=(1.0, 0.5, 0.25))
        assert rep.in_scriptL2 and rep.in_L2

    def test_completely_monotone_representative_all_classes(self):
        k = K.make_exp_sum([0.8, 0.4], [3.0, 0.5], orientation=K.ANTICAUSAL)
        rep = K.classify(k, eps_grid=(1.0, 0.5, 0.25))
        assert rep.in_L2 and rep.in_scriptL2 and rep.in_K0

    def test_borderline_log_kernel_in_script_class(self):
        # h(r) = 1/(sqrt(r) |log r|) is square integrable near 0 but in no
        # better power class; its convolution kernel still passes both
        # slice conditions (closed antiderivative -1/log r)
        T = 0.5

        def h(r):
            r = np.maximum(np.asarray(r, dtype=float), 1e-300)
            return 1.0 / (np.sqrt(r) * np.abs(np.log(r)))

        def h2(r):
            r = np.asarray(r, dtype=float)
            with np.errstate(divide="ignore"):
                return np.where(r <= 0.0, 0.0, -1.0 / np.log(r))

        k = K.make_convolution(h, T, K.ANTICAUSAL,
                               h_sq_antiderivative=h2, diag_exponent=0.5)
        rep = K.classify(k, eps_grid=(1.0, 0.7))
        assert rep.in_L2 and rep.in_scriptL2

    def test_inclusion_invariant(self):
        for kern in [K.make_doubly_singular(0.2, 0.0),
                     K.make_doubly_singular(0.2, 0.3),
                     K.make_counterexample_sup(1.0),
                     K._shifted_inverse_sqrt(1.0)]:
            rep = K.classify(kern, eps_grid=(1.0,))
            if rep.in_scriptL2:
                assert rep.in_L2

    def test_report_json_roundtrip(self):
        import json
        rep = K.classify(K.make_constant(1.0, orientation=K.ANTICAUSAL),
                         eps_grid=(1.0,))
        data = json.loads(rep.to_json())
        assert data["in_scriptL2"] is True
        assert set(data) >= {"label", "l2_triangle_norm", "script_norm",
                             "partition_results", "in_L2", "in_scriptL2",
                             "in_K0", "diagnostics"}


class TestK0Membership:
    def test_fractional_member_with_closed_form_sliding(self):
        alpha = 0.3
        k = K.make_fractional(alpha, K.CAUSAL)
        member, diag = K.k0_membership(k)
        assert member
        # sliding slice has closed form eps^alpha / alpha
        for eps, val in zip(diag["sliding_eps"], diag["sliding_values"]):
            assert val == pytest.approx(eps ** alpha / alpha, rel=1e-10)

    def test_gripenberg_style_member(self):
        def ev(t, s):
            return np.full_like(np.asarray(s, dtype=float), 1.0 / t)

        k = K.Kernel("gripenberg", K.CAUSAL, 1.0, ev, (0.0, 0.0),
                     cell_fn=lambda t, a, b: (b - a) / t)
        member, diag = K.k0_membership(k)
        assert member
        assert diag["sup_l1_slice"] == pytest.approx(1.0, rel=1e-12)

    def test_zero_kernel_member(self):
        member, _ = K.k0_membership(K.make_constant(0.0))
        assert member

    def test_quadrature_cells_at_the_singular_ends_stay_finite(self):
        # 2 beta >= 1 leaves the causal doubly singular kernel without a
        # closed-form cell; its sliding cells are quadratures whose clamp
        # must stay inside the cell, or they read inf and the check fails
        member, diag = K.k0_membership(
            K.make_doubly_singular(0.2, 0.6, K.CAUSAL))
        assert all(math.isfinite(v) for v in diag["sliding_values"])
        assert member

    def test_anticausal_rejected(self):
        with pytest.raises(ValueError):
            K.k0_membership(K.make_constant(1.0, orientation=K.ANTICAUSAL))

    @pytest.mark.parametrize("alpha, beta, bounded", [
        # sup_t int_0^t (t - s)^-alpha s^-beta ds grows like
        # t^(1 - alpha - beta) as t -> 0: unbounded once alpha + beta > 1,
        # however slowly
        (0.6, 0.6, False), (0.55, 0.5, False),
        (0.5, 0.5, True), (0.2, 0.6, True), (0.6, 0.2, True),
        (0.45, 0.45, True), (0.3, 0.3, True),
    ])
    def test_slowly_diverging_l1_slice_is_unbounded(self, alpha, beta,
                                                    bounded):
        member, diag = K.k0_membership(
            K.make_doubly_singular(alpha, beta, K.CAUSAL))
        assert diag["bounded"] is bounded
        if not bounded:
            assert not member


class TestFbmKernels:
    def test_half_hurst_reduces_to_unit_kernel(self):
        k = K.make_fbm_full(0.5)
        ss = np.array([0.1, 0.35, 0.7])
        assert np.allclose(k(0.9, ss), 1.0, atol=1e-12)
        assert K._fbm_F(2.0, 0.5) == 0.0
        assert K._fbm_c(0.5) == pytest.approx(1.0, rel=1e-14)

    def test_F_dual_quadrature_oracle(self):
        v1 = K._fbm_F(2.0, 0.3, method="product")
        v2 = K._fbm_F(2.0, 0.3, method="substitution")
        assert v1 == pytest.approx(v2, abs=1e-8)

    def test_rl_kernel_scaling(self):
        H = 0.7
        k = K.make_fbm_rl(H)
        lag = 0.3
        assert k(0.8, 0.5) == pytest.approx(
            lag ** (H - 0.5) / gamma_fn(H + 0.5), rel=1e-13)

    def test_full_kernel_positive_and_bounded_inside(self):
        for H in (0.3, 0.7):
            k = K.make_fbm_full(H)
            ts = np.linspace(0.15, 0.95, 7)
            for t in ts:
                vals = k(t, np.linspace(0.05, t - 0.05, 9))
                assert np.all(np.isfinite(vals))
                assert np.all(vals > 0)

    def test_full_kernel_cells_next_to_the_diagonal_are_finite(
            self, monkeypatch):
        # at t = 13/24 the guard of the diagonal cell's quadrature is below
        # half an ulp, so an unguarded clamp lands on the singular end and
        # reads inf; the N = 24 drift table then has 12 such cells
        kern = K.make_fbm_full(0.3)
        assert math.isfinite(kern.cell(13 / 24, 12 / 24, 13 / 24))
        tables = []

        def recorded(*args, **kwargs):
            tables.append(K._cell_table(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(F, "_cell_table", recorded)
        p = F.SVIEProblem(1.0, lambda t: np.array([1.0]), m=0,
                          drift_kernel=kern, drift_factor=lambda s, x: -x)
        sol = F.solve_lattice(p, Tree(N=24, T=1.0, m=0))
        assert len(tables) == 1 and tables[0].shape == (25, 24)
        assert np.all(np.isfinite(tables[0]))
        assert all(np.all(np.isfinite(sol.X[i])) for i in range(25))
        assert math.isfinite(sol.diagnostics["residual"])

    def test_full_kernel_against_lower_limit_integral_form(self):
        # for H > 1/2 the same kernel has the independent representation
        # c_H (H - 1/2) s^(1/2-H) int_s^t (u-s)^(H-3/2) u^(H-1/2) du: both
        # vanish at the diagonal and share the t-derivative, so agreement
        # validates the ratio-integral construction end to end
        import warnings
        from scipy import integrate

        H = 0.7
        k = K.make_fbm_full(H)
        cH = K._fbm_c(H)

        def reference(t, s):
            # weighted rule: weight (u-s)^(H-3/2), smooth factor u^(H-1/2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore",
                                      integrate.IntegrationWarning)
                val, _ = integrate.quad(lambda u: u ** (H - 0.5), s, t,
                                        weight="alg",
                                        wvar=(H - 1.5, 0.0), limit=200)
            return cH * (H - 0.5) * s ** (0.5 - H) * val

        for (t, s) in [(0.8, 0.2), (0.9, 0.5), (0.5, 0.45), (1.0, 0.1)]:
            ours = float(np.asarray(k(t, np.array(s))))
            assert ours == pytest.approx(reference(t, s), rel=1e-7)


def cell_row(kernel, t, grid):
    """Exact cell integrals of k(t, .) over consecutive grid cells, as one
    ``_cell_table`` row reads them."""
    return K._on_arrays(kernel.cell_fn, kernel.cell, t, grid[:-1], grid[1:])


class TestProductWeights:
    def test_fractional_weights_sum_exact(self):
        alpha = 0.6
        k = K.make_fractional(alpha, K.CAUSAL)
        t = 0.875
        grid = np.linspace(0.0, t, 17)
        w = cell_row(k, t, grid)
        assert w.sum() == pytest.approx(t ** alpha / alpha, rel=1e-12)

    def test_exp_sum_weights_sum_exact(self):
        k = K.make_exp_sum([1.0, 0.5], [2.0, 0.0])
        t = 0.75
        grid = np.linspace(0.0, t, 13)
        w = cell_row(k, t, grid)
        expected = (1.0 - math.exp(-2 * t)) / 2.0 + 0.5 * t
        assert w.sum() == pytest.approx(expected, rel=1e-12)

    def test_anticausal_orientation_guard(self):
        k = K.make_fractional(0.75, K.ANTICAUSAL)
        w = cell_row(k, 0.5, np.linspace(0.5, 1.0, 6))
        assert w.sum() == pytest.approx(0.5 ** 0.75 / 0.75, rel=1e-12)

    @pytest.mark.parametrize("kernel", [
        K.make_fractional(0.6, K.CAUSAL),
        K.make_doubly_singular(0.3, 0.2, K.CAUSAL),  # scalar-only hook
        K.make_exp_sum([1.0, 0.5], [2.0, 0.0])])
    def test_one_row_equals_scalar_cells(self, kernel):
        t, grid = 0.875, np.linspace(0.0, 0.875, 9)
        w = cell_row(kernel, t, grid)
        ref = [kernel.cell(t, a, b) for a, b in zip(grid[:-1], grid[1:])]
        assert w.shape == (8,)
        assert np.allclose(w, ref, rtol=1e-13, atol=0.0)


class TestConfigParsing:
    def test_known_names(self):
        k = K.kernel_from_config({"name": "fractional", "alpha": 0.75})
        assert k.meta["alpha"] == 0.75
        k = K.kernel_from_config({"name": "doubly_singular", "alpha": 0.2,
                                  "beta": 0.1, "T": 2.0})
        assert k.horizon == 2.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            K.kernel_from_config({"name": "nope"})
        with pytest.raises(ValueError):
            K.kernel_from_config({})


class TestFractionalArguments:
    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0, -0.5])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and "
                                             "finite"):
            K.make_fractional(alpha)

    @pytest.mark.parametrize("scale", [math.inf, math.nan, -1.0])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale must be nonnegative and "
                                             "finite"):
            K.make_fractional(0.7, scale=scale)

    def test_finite_edges_accepted(self):
        assert K.make_fractional(1e-3, scale=0.0).meta["scale"] == 0.0
        assert K.make_fractional(40.0).meta["alpha"] == 40.0


class TestExpSumArguments:
    @pytest.mark.parametrize("weights, rates, name", [
        ([1.0], [-800.0], "rates"),
        ([1.0, 0.5], [2.0, -1e-12], "rates"),
        ([-0.5, 1.0], [2.0, 0.0], "weights")])
    def test_negative_weight_or_rate_rejected(self, weights, rates, name):
        # a completely monotone sum needs both nonnegative, and a negative
        # rate would overflow the cell integrals
        with pytest.raises(ValueError, match=f"nonnegative {name}"):
            K.make_exp_sum(weights, rates)


class TestKernelInvariants:
    def test_negative_kernel_rejected(self):
        def ev(t, s):
            return np.asarray(s) - t - 10.0

        with pytest.raises(ValueError):
            K.Kernel("bad", K.ANTICAUSAL, 1.0, ev)

    def test_mirror_preserves_values(self):
        k = K.make_doubly_singular(0.3, 0.2)
        mk = K.mirror_kernel(k)
        assert mk.orientation == K.CAUSAL
        assert mk(0.7, 0.2) == pytest.approx(float(k(0.2, np.array(0.7))),
                                             rel=1e-13)


# ---------------------------------------------------------------------------
# batched partition probes against a one-interval-at-a-time reference
# ---------------------------------------------------------------------------

def ref_sup_grid(a, b, n_uniform, n_cluster):
    w = b - a
    offs = w * 2.0 ** -np.arange(1.0, n_cluster + 1.0)
    pts = np.concatenate([a + offs, b - offs,
                          np.linspace(a, b, n_uniform + 2)[1:-1]])
    lo = a + 1e-14 * max(w, 1.0)
    hi = b - 1e-14 * max(w, 1.0)
    return np.unique(np.clip(pts, lo, hi))


def ref_sup_slice(kernel, a, b, upper, base_uniform=9, base_cluster=9):
    """One interval per call, one profile call per grid."""
    hi = min(b, upper - 1e-14 * max(upper, 1.0))
    if hi <= a:
        return 0.0
    xs1 = ref_sup_grid(a, hi, base_uniform, base_cluster)
    xs2 = ref_sup_grid(a, hi, 2 * base_uniform, base_cluster + 8)
    m1 = float(np.max(kernel.slice_l2_profile(xs1, upper)))
    m2 = float(np.max(kernel.slice_l2_profile(xs2, upper)))
    if math.isinf(m1) or math.isinf(m2):
        return math.inf
    if m1 > 0 and m2 > K._GROWTH_FACTOR * m1:
        return math.inf
    est = m2 + max(0.0, m2 - m1)
    if kernel.slice_sq_fn is not None or kernel.cell_sq_fn is not None:
        try:
            edge = float(kernel.slice_sq(a, a, upper))
        except (ValueError, ZeroDivisionError, OverflowError):
            edge = None
        if edge is not None:
            if not math.isfinite(edge):
                return math.inf
            est = max(est, math.sqrt(max(edge, 0.0)))
    return est


def ref_block_sup(kernel, a, b, fine=False):
    base, clus = (25, 16) if fine else (9, 9)
    return ref_sup_slice(kernel, a, b, b, base, clus)


def ref_reverify(kernel, part, eps):
    for i, (a, b) in enumerate(part.intervals):
        sup = ref_block_sup(kernel, a, b, fine=True)
        if not sup < eps:
            return i, sup
    return None


def ref_find_partition(kernel, eps, cap=K.DEFAULT_BREAKPOINT_CAP,
                       breakpoint_rel_tol=1e-6):
    """The greedy loop probing one interval per call."""
    T = kernel.horizon
    breakpoints = [0.0]
    prev_width = None
    min_step = 1e-9 * T

    def feasible(a, b):
        return ref_block_sup(kernel, a, b) < eps

    def left_edge_infeasible(a):
        g = max(2.0 * min_step, (T - a) * 2.0 ** -12)
        xs = ref_sup_grid(a, a + g, 9, 9)
        vals = kernel.slice_l2_profile(xs, a + g)
        idx = int(np.argmax(vals))
        return K.PartitionInfeasible(eps, "mathematical", float(xs[idx]),
                                     float(vals[idx]))

    def tail_classification(a):
        g = T - a
        while g > min_step:
            if feasible(T - g, T):
                return K.PartitionInfeasible(
                    eps, "budget", a, float(ref_block_sup(kernel, a, T)))
            g /= 2.0
        xs = ref_sup_grid(T - max(2 * min_step, T * 2.0 ** -20), T, 15, 12)
        vals = kernel.slice_l2_profile(xs, T)
        best = np.flatnonzero(vals >= np.max(vals) - 1e-12)
        return K.PartitionInfeasible(eps, "mathematical", float(xs[best[-1]]),
                                     float(np.max(vals)))

    while True:
        a = breakpoints[-1]
        if feasible(a, T):
            breakpoints.append(T)
            break
        if len(breakpoints) > cap:
            return tail_classification(a)
        b = None
        if prev_width is not None and a + prev_width < T \
                and feasible(a, a + prev_width):
            if a + 1.02 * prev_width >= T \
                    or not feasible(a, a + 1.02 * prev_width):
                b = a + prev_width
        if b is None:
            guess = prev_width if prev_width else (T - a) / 2.0
            g = min(guess, (T - a) * 0.5)
            lo = None
            while g > min_step:
                if feasible(a, a + g):
                    lo = a + g
                    break
                g /= 2.0
            if lo is None:
                return left_edge_infeasible(a)
            hi = min(a + 4.0 * (lo - a), T)
            if feasible(a, hi):
                lo, hi = hi, T
            tol = max(breakpoint_rel_tol * T, 0.5e-3 * (lo - a))
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if feasible(a, mid):
                    lo = mid
                else:
                    hi = mid
            b = a + (1.0 - K._BISECT_MARGIN) * (lo - a)
        if b - a < min_step:
            return tail_classification(a)
        breakpoints.append(b)
        prev_width = b - a

    part = K.Partition(tuple(breakpoints))
    bad = ref_reverify(kernel, part, eps)
    if bad is not None:
        i, sup = bad
        bp = list(part.breakpoints)
        if i + 1 < len(bp) - 1:
            bp[i + 1] = bp[i] + 0.9 * (bp[i + 1] - bp[i])
            part = K.Partition(tuple(bp))
            if ref_reverify(kernel, part, eps) is None:
                return part
        raise K.QuadratureError("re-verification failed")
    return part


def ref_lag_partition(kernel, eps):
    """Closed-form breakpoints of a lag kernel with an H2 hook: the uniform
    width (1 - margin) w*, H2(w*) = eps^2 by Brent's method, closed at T."""
    T = kernel.horizon

    def excess(w):
        return float(kernel.slice_sq_fn(0.0, 0.0, w)) - eps * eps

    if excess(T) < 0.0:
        return (0.0, T)
    root = optimize.brentq(excess, 1e-9 * T, T, xtol=1e-15, rtol=1e-14)
    w = (1.0 - K._BISECT_MARGIN) * root
    return tuple(k * w for k in range(math.ceil(T / w))) + (T,)


def _scalar_hook_kernel():
    # closed-form slice hook that only accepts scalars
    frac = K.make_fractional(0.8, K.ANTICAUSAL)

    def slice_sq(x, a, b):
        if np.ndim(x) or np.ndim(b):
            raise TypeError("scalars only")
        return frac.slice_sq_fn(x, a, b)

    return K.Kernel("scalar_hook", K.ANTICAUSAL, 1.0, frac.eval_fn,
                    frac.singularity_hint, slice_sq_fn=slice_sq)


def _numeric_kernel():
    # no hooks at all: every slice is an adaptive quadrature
    def ev(t, s):
        return np.exp(-(np.asarray(s, dtype=float) - t))

    return K.Kernel("exp_numeric", K.ANTICAUSAL, 1.0, ev, (0.0, 0.0))


def _log_convolution():
    def h(r):
        r = np.maximum(np.asarray(r, dtype=float), 1e-300)
        return 1.0 / (np.sqrt(r) * np.abs(np.log(r)))

    def h2(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(r <= 0.0, 0.0, -1.0 / np.log(r))

    return K.make_convolution(h, 0.5, K.ANTICAUSAL, h_sq_antiderivative=h2,
                              diag_exponent=0.5)


SUP_KERNELS = [
    K.make_fractional(0.8, K.ANTICAUSAL),
    K.make_fractional(0.6, K.CAUSAL),
    K.make_fractional(0.4, K.ANTICAUSAL),
    K.make_doubly_singular(0.4, 0.0),
    K.make_doubly_singular(0.3, 0.2, K.CAUSAL),
    K.make_exp_sum([0.8, 0.4], [3.0, 0.5], orientation=K.ANTICAUSAL),
    K.make_constant(1.0, orientation=K.ANTICAUSAL),
    K.make_constant(0.0, horizon=2.0),
    K.make_counterexample_sup(1.0),
    K._shifted_inverse_sqrt(1.0),
    _scalar_hook_kernel(),
    _numeric_kernel(),
]


class TestBatchedPartitionProbes:
    @pytest.mark.parametrize("kern", SUP_KERNELS, ids=lambda k: k.label)
    def test_batched_sup_equals_one_interval_sup(self, kern):
        T = kern.horizon
        a = np.array([0.0, 0.0, 0.1, 0.3, 0.3, 0.5, 0.9, 0.99, 0.7]) * T
        b = np.array([1.0, 0.01, 0.2, 0.3001, 0.8, 1.0, 1.0, 1.0, 0.6]) * T
        for kw in ({}, {"base_uniform": 25, "base_cluster": 16},
                   {"base_uniform": 15, "base_cluster": 14}):
            got = K._sup_slice(kern, a, b, b, **kw)
            want = [ref_sup_slice(kern, x, y, y, **kw) for x, y in zip(a, b)]
            assert np.array_equal(got, want)
        assert K.script_norm(kern) == ref_sup_slice(kern, 0.0, T, T, 15, 14)

    def test_sorted_grid_equals_linspace_grid(self):
        for a, b in [(0.0, 1.0), (0.25, 0.2500001), (0.3, 7.5)]:
            for n, c in [(9, 9), (18, 17), (15, 12)]:
                assert np.array_equal(K._sup_grid(a, b, n, c),
                                      ref_sup_grid(a, b, n, c))

    @pytest.mark.parametrize("kern, eps", [
        (K.make_doubly_singular(0.3, 0.2), 1.0),    # fast path breaks
        (K.make_doubly_singular(0.3, 0.2), 2.0),
        (K.make_counterexample_sup(1.0), 1.0),
    ], ids=lambda v: getattr(v, "label", repr(v)))
    def test_partition_equals_one_interval_search(self, kern, eps):
        assert K.find_partition(kern, eps) == ref_find_partition(kern, eps)

    @pytest.mark.parametrize("kern, eps", [
        (K.make_doubly_singular(0.4, 0.0), 1.0),    # 3,129 intervals
        (K.make_fractional(0.8, K.ANTICAUSAL), 0.125),
        (_log_convolution(), 0.7),
    ], ids=lambda v: getattr(v, "label", repr(v)))
    def test_lag_partition_equals_closed_form(self, kern, eps):
        got = K.find_partition(kern, eps)
        want = ref_lag_partition(kern, eps)
        assert isinstance(got, K.Partition) and len(got) == len(want) - 1
        assert got.breakpoints[-1] == kern.horizon
        np.testing.assert_allclose(got.breakpoints, want, rtol=0.0,
                                   atol=1e-6 * kern.horizon)

    def test_small_cap_gives_budget_at_the_closed_form_width(self):
        kern = K.make_doubly_singular(0.4, 0.0)
        got = K.find_partition(kern, 1.0, cap=40)
        want = ref_lag_partition(kern, 1.0)
        assert isinstance(got, K.PartitionInfeasible)
        assert got.reason == "budget"
        assert got.witness_t == pytest.approx(want[40], rel=1e-5)
        assert got.measured_sup == ref_block_sup(kern, got.witness_t, 1.0)

    def test_perturbed_partition_same_first_failure(self):
        kern = K.make_doubly_singular(0.4, 0.0)
        bp = list(K.find_partition(kern, 1.0).breakpoints)
        assert len(bp) > 40
        bp[30] = bp[29] + 0.999 * (bp[31] - bp[29])   # widen interval 29
        bp[20] = bp[19] + 0.999 * (bp[21] - bp[19])   # and interval 19
        part = K.Partition(tuple(bp))
        got = K.reverify_partition(kern, part, 1.0)
        assert got is not None and got[0] == 19
        assert got == ref_reverify(kern, part, 1.0)

    def test_classify_profile_call_count(self, monkeypatch):
        calls = []
        profile = K.Kernel.slice_l2_profile

        def counted(self, xs, b):
            calls.append(1)
            return profile(self, xs, b)

        monkeypatch.setattr(K.Kernel, "slice_l2_profile", counted)
        K.classify(K.make_doubly_singular(0.4, 0.0), eps_grid=(2.0, 1.0))
        assert len(calls) <= 400


def _power_convolution():
    h = lambda r: np.power(np.maximum(r, 1e-300), -0.1)
    h2 = lambda r: np.maximum(r, 0.0) ** 0.8 / 0.8
    return K.make_convolution(h, 1.0, K.CAUSAL, h_sq_antiderivative=h2,
                              diag_exponent=0.1)


CLOSED_FORM_KERNELS = [
    K.make_fractional(0.9, K.CAUSAL),
    K.make_fractional(0.9, K.ANTICAUSAL),
    K.make_doubly_singular(0.15, 0.0),
    K.make_exp_sum([0.8, 0.4], [3.0, 0.5], orientation=K.ANTICAUSAL),
    K.make_constant(1.0),
    _power_convolution(),
    K._shifted_inverse_sqrt(1.0),
    K.make_fbm_rl(0.4),
]


class TestLagPartition:
    @pytest.mark.parametrize("kern", CLOSED_FORM_KERNELS,
                             ids=lambda k: f"{k.label}-{k.orientation}")
    def test_verified_and_close_to_greedy(self, kern):
        assert kern.lag_only and kern.slice_sq_fn is not None
        for eps in K.DEFAULT_EPS_GRID:
            part = K.find_partition(kern, eps)
            assert isinstance(part, K.Partition)
            assert K.reverify_partition(kern, part, eps) is None
            greedy = ref_find_partition(kern, eps)
            assert abs(len(part) - len(greedy)) <= 0.01 * len(greedy)

    def test_budget_without_probing(self, monkeypatch):
        calls = []
        profile = K.Kernel.slice_l2_profile

        def counted(self, xs, b):
            calls.append(1)
            return profile(self, xs, b)

        monkeypatch.setattr(K.Kernel, "slice_l2_profile", counted)
        res = K.find_partition(K.make_doubly_singular(0.4, 0.0), 0.5)
        assert isinstance(res, K.PartitionInfeasible)
        assert res.reason == "budget"
        assert len(calls) < 40

    def test_divergent_h2_is_mathematical(self):
        res = K.find_partition(K.make_fractional(0.5), 1.0)
        assert isinstance(res, K.PartitionInfeasible)
        assert res.reason == "mathematical"

    def test_lag_kernel_without_h2_stays_greedy(self):
        kern = K.make_convolution(lambda r: np.exp(-np.asarray(r)),
                                  h_antiderivative=lambda r: 1.0 - np.exp(-r))
        assert kern.lag_only and kern.slice_sq_fn is None
        assert K.find_partition(kern, 0.5) == ref_find_partition(kern, 0.5)


def _counted_block_sup(monkeypatch):
    """Record how many intervals each ``_block_sup`` batch measures."""
    sizes = []
    block_sup = K._block_sup

    def counted(kernel, a, b, fine=False):
        sizes.append(np.size(a))
        return block_sup(kernel, a, b, fine)

    monkeypatch.setattr(K, "_block_sup", counted)
    return sizes


class TestPerWidthReverify:
    """A lag kernel's partition is re-verified once per distinct width, with
    the result of :func:`ref_reverify`, which measures every interval."""

    @pytest.mark.parametrize("kern", CLOSED_FORM_KERNELS,
                             ids=lambda k: f"{k.label}-{k.orientation}")
    def test_closed_form_partitions(self, kern):
        for eps in K.DEFAULT_EPS_GRID:
            part = K.find_partition(kern, eps)
            for e in (eps, 0.999 * eps):    # at eps and just under it
                assert K.reverify_partition(kern, part, e) \
                    == ref_reverify(kern, part, e)

    def test_uniform_lag_partition_measures_each_width_once(self,
                                                            monkeypatch):
        kern = K.make_doubly_singular(0.4, 0.0)
        part = K.find_partition(kern, 1.0)
        assert len(part) == 3129
        sizes = _counted_block_sup(monkeypatch)
        for e in (1.0, 0.999):
            got = K.reverify_partition(kern, part, e)
            assert got == ref_reverify(kern, part, e)
        assert sizes and max(sizes) <= 20

    @pytest.mark.parametrize("i", [29, 3100])
    def test_widened_interval_with_a_width_of_its_own(self, i):
        # near T the sup measured at the interval's own position differs
        # in the last digits from the same width measured at 0
        kern = K.make_doubly_singular(0.4, 0.0)
        bp = list(K.find_partition(kern, 1.0).breakpoints)
        bp[i + 1] = bp[i] + 0.999 * (bp[i + 2] - bp[i])   # widen interval i
        part = K.Partition(tuple(bp))
        widths = np.diff(bp)
        assert np.count_nonzero(widths == widths[i]) == 1
        got = K.reverify_partition(kern, part, 1.0)
        assert got is not None and got[0] == i
        assert got == ref_reverify(kern, part, 1.0)

    def test_widened_intervals_sharing_a_width(self, monkeypatch):
        # dyadic breakpoints make every width exact: 2^-12 passes at
        # eps = 1, and merging two pairs gives two intervals of 2^-11,
        # which fail; the first of them is measured, at its own position
        kern = K.make_doubly_singular(0.4, 0.0)
        bp = [k * 2.0 ** -12 for k in range(4097)]
        del bp[30], bp[20]                  # merge 19 with 20, 28 with 29
        part = K.Partition(tuple(bp))
        widths = np.diff(bp)
        assert np.count_nonzero(widths == 2.0 ** -11) == 2
        assert len(np.unique(widths)) == 2
        sizes = _counted_block_sup(monkeypatch)
        got = K.reverify_partition(kern, part, 1.0)
        assert got is not None and got[0] == 19
        assert got == ref_reverify(kern, part, 1.0)
        assert sizes == [2]


# ---------------------------------------------------------------------------
# one blocking rule: reference copies of the two former per-solver rules
# ---------------------------------------------------------------------------

def ref_contraction_blocks(N, T, K1, K2, budget):
    """The forward Picard solver's former rule: K1 mass, K2 slice sup."""
    dt = T / N
    half = budget / 2.0
    if K2 is not None:
        part = K.find_partition(K2, math.sqrt(half))
        if isinstance(part, K.Partition):
            breakpoints = list(part.breakpoints)
        else:
            raise RuntimeError("infeasible")
    else:
        breakpoints = [0.0, T]

    def k1_mass(a, b):
        if K1 is None:
            return 0.0
        xs = np.linspace(a, b, 33)
        vals = np.array([K1.slice_sq(float(x), float(x), b)
                         for x in xs[:-1]])
        if not np.all(np.isfinite(vals)):
            return math.inf
        return float(np.trapezoid(vals, xs[:-1])) if len(xs) > 2 else 0.0

    refined = [breakpoints[0]]
    for a, b in zip(breakpoints, breakpoints[1:]):
        stack = [(a, b)]
        out = []
        while stack:
            lo, hi = stack.pop()
            mass = k1_mass(lo, hi)
            if mass > half and hi - lo > 1e-6 * T:
                mid = 0.5 * (lo + hi)
                stack.extend([(mid, hi), (lo, mid)])
            elif not math.isfinite(mass):
                raise RuntimeError("diverges")
            else:
                out.append((lo, hi))
        out.sort()
        refined.extend(h for _, h in out)
    idx = sorted({min(max(int(math.floor(u / dt)), 0), N) for u in refined})
    if idx[0] != 0:
        idx.insert(0, 0)
    if idx[-1] != N:
        idx.append(N)
    return [(a, b) for a, b in zip(idx, idx[1:]) if b > a]


def ref_bsvie_blocks(N, T, L_y, L_z2, budget):
    """The block BSVIE method's former rule: L_y mass, L_z2 slice sup."""
    dt = T / N
    half = budget / 2.0
    if L_z2 is not None:
        part = K.find_partition(L_z2, math.sqrt(half))
        if not isinstance(part, K.Partition):
            raise RuntimeError("infeasible")
        breakpoints = list(part.breakpoints)
    else:
        breakpoints = [0.0, T]

    def ly_mass(a, b):
        if L_y is None:
            return 0.0
        xs = np.linspace(a, b, 33)
        vals = np.array([L_y.slice_sq(float(x), float(x), b)
                         for x in xs[:-1]])
        if not np.all(np.isfinite(vals)):
            return math.inf
        return float(np.trapezoid(vals, xs[:-1]))

    refined = [0.0]
    for a, b in zip(breakpoints, breakpoints[1:]):
        stack, out = [(a, b)], []
        while stack:
            lo_t, hi_t = stack.pop()
            mass = ly_mass(lo_t, hi_t)
            if mass > half and hi_t - lo_t > 1e-6 * T:
                mid = 0.5 * (lo_t + hi_t)
                stack.extend([(mid, hi_t), (lo_t, mid)])
            elif not math.isfinite(mass):
                raise RuntimeError("diverges")
            else:
                out.append((lo_t, hi_t))
        out.sort()
        refined.extend(h for _, h in out)
    idx = sorted({min(max(int(math.floor(u / dt)), 0), N) for u in refined})
    if idx[0] != 0:
        idx.insert(0, 0)
    if idx[-1] != N:
        idx.append(N)
    return [(a, b) for a, b in zip(idx, idx[1:]) if b > a]


class TestGridBlocks:
    @pytest.mark.parametrize("N", [8, 16])
    def test_matches_forward_rule(self, N):
        mass, slice_ = K.make_fractional(0.7, K.CAUSAL), K.make_constant(0.3)
        for K1, K2 in [(mass, slice_), (mass, None), (None, slice_)]:
            got = K.grid_blocks(K2, K1, 0.25, N, 1.0, RuntimeError)
            assert got == ref_contraction_blocks(N, 1.0, K1, K2, 0.25)
        assert len(K.grid_blocks(slice_, mass, 0.25, N, 1.0,
                                 RuntimeError)) > 1

    @pytest.mark.parametrize("N", [8, 16])
    @pytest.mark.parametrize("name", ["fractional_generator",
                                      "fbm_rl_generator", "caputo"])
    def test_matches_block_method_rule(self, N, name):
        p = R.BACKWARD_PROBLEMS[name](Tree(N=N, T=1.0, m=1))
        got = K.grid_blocks(p.L_z2, p.L_y, 0.5, N, 1.0, RuntimeError)
        assert got == ref_bsvie_blocks(N, 1.0, p.L_y, p.L_z2, 0.5)


def lag_families(orientation):
    """One kernel of every family that declares ``lag_only``."""
    families = [
        K.make_fractional(0.6, orientation),
        K.make_exp_sum([1.0, 0.5], [2.0, 0.0], orientation=orientation),
        K.make_constant(0.3, orientation=orientation),
        K.make_convolution(lambda r: np.exp(-np.asarray(r)),
                           orientation=orientation,
                           h_antiderivative=lambda r: 1.0 - np.exp(-r)),
        K.make_doubly_singular(0.3, 0.0, orientation),
    ]
    if orientation == K.CAUSAL:
        families.append(K.make_fbm_rl(0.3))
    return families


LAG_KERNELS = lag_families(K.CAUSAL) + lag_families(K.ANTICAUSAL)
# every lag kernel in both triangles
LAG_TABLES = [pytest.param(k, lower, id=f"{k.label}-{k.orientation}-"
                                        f"{'lower' if lower else 'upper'}")
              for k in LAG_KERNELS for lower in (True, False)]


def cell_loop(kern, t, lower):
    """Per-cell Kernel.cell reference for one triangle of the table."""
    N = len(t) - 1
    w = np.zeros((N + 1, N))
    for i in range(N + 1):
        for j in (range(i) if lower else range(i, N)):
            w[i, j] = kern.cell(t[i], t[j], t[j + 1])
    return w


def outside(N, lower):
    """Mask of the cells a table of the given triangle leaves at zero."""
    strictly_lower = np.tri(N + 1, N, -1, dtype=bool)
    return ~strictly_lower if lower else strictly_lower


class TestCellTable:
    def test_lag_flags(self):
        assert all(k.lag_only for k in LAG_KERNELS)
        for k in (K.make_fbm_full(0.3), K.make_doubly_singular(0.3, 0.2),
                  K.make_counterexample_sup(),
                  K.mirror_kernel(K.make_fbm_full(0.3))):
            assert not k.lag_only
        assert K.mirror_kernel(K.make_fractional(0.6)).lag_only
        with pytest.raises(dataclasses.FrozenInstanceError):
            K.make_constant(1.0).lag_only = False

    @pytest.mark.parametrize("N", [8, 12])
    @pytest.mark.parametrize("kern, lower", LAG_TABLES)
    def test_lag_table_matches_cell_loop(self, kern, lower, N):
        # the table reads every lag from one row, so entries differ from
        # the per-cell loop by the rounding of t_i - t_j only; off the
        # kernel's own triangle both give the same nan pattern
        t = Tree(N=N, T=1.0, m=0).times
        with np.errstate(all="ignore"):
            got = K._cell_table(kern, t, lower)
            ref = cell_loop(kern, t, lower)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        assert not got[outside(N, lower)].any()

    @pytest.mark.parametrize("kern", [
        K.make_fbm_full(0.3), K.make_doubly_singular(0.3, 0.2),
        K.make_doubly_singular(0.3, 0.2, K.CAUSAL),
        K.make_counterexample_sup()], ids=lambda k: f"{k.label}-{k.orientation}")
    def test_other_kernels_match_cell_loop_exactly(self, kern):
        N = 6
        t = Tree(N=N, T=1.0, m=0).times
        lower = kern.orientation == K.CAUSAL
        with np.errstate(divide="ignore"):
            got = K._cell_table(kern, t, lower)
            ref = cell_loop(kern, t, lower)
        assert np.array_equal(got, ref)
        assert not got[outside(N, lower)].any()

    @pytest.mark.parametrize("lower", [True, False])
    def test_lag_tables_are_read_only(self, lower):
        w = K._cell_table(K.make_fractional(0.6), Tree(N=8, T=1.0).times, lower)
        assert w.flags.writeable is False
        with pytest.raises(ValueError):
            w[1, 0] = 1.0

    def test_divergent_lag_cell_still_raises(self):
        # h = 1 on lags below 1/2 and not integrable from there on: the
        # first divergent cell is the one the per-cell scan meets first
        tree = Tree(N=8, T=1.0, m=1)
        kern = K.make_convolution(
            lambda r: np.ones_like(np.asarray(r, dtype=float)), 1.0,
            K.ANTICAUSAL,
            h_antiderivative=lambda r: np.where(np.asarray(r) < 0.5, r,
                                                np.inf))
        assert kern.lag_only
        with np.errstate(invalid="ignore"):
            ref = cell_loop(kern, tree.times, lower=False)
        i, j = np.argwhere(~np.isfinite(ref))[0]
        assert (i, j) == (0, 3)
        psi = TerminalField(tree, [np.ones((tree.node_count(tree.N), 1))
                                   for _ in range(tree.N + 1)])
        p = B.BSVIEProblem(psi, [B.GeneratorTerm(
            lambda i, j, y, z1, z2: -0.1 * y, kernel=kern)])
        with pytest.raises(ValueError,
                           match=r"divergent cell weight at outer time "
                                 r"t=0 \(cell 3\)"), \
                np.errstate(invalid="ignore"):
            B.solve_bsvie(p, tree)

    def test_drift_table_memory_is_linear(self):
        # the dense (4097, 4096) table the rows used to fill took 134 MB
        tree = Tree(N=4096, T=1.0, m=0)
        problem = R.fractional_relaxation(0.6)
        assert len(tree.times) == 4097  # the grid is cached before tracing
        tracemalloc.start()
        try:
            w = F._drift_weights(problem, tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.shape == (4097, 4096)
        assert peak < 1 << 20


def hook_values(kern, N=8):
    """eval, cell, cell_sq and cell_m1 over the kernel's own triangle of
    the N-step grid, the cell tables of both triangles, slice profiles."""
    t = Tree(N=N, T=1.0, m=0).times
    anticausal = kern.orientation == K.ANTICAUSAL
    rows = [(t[i], t[i:N], t[i + 1:]) if anticausal
            else (t[i], t[:i], t[1:i + 1]) for i in range(N + 1)]
    vals = []
    with np.errstate(all="ignore"):
        for x, a, b in rows:
            vals.append(np.asarray(kern(x, b if anticausal else a),
                                   dtype=float))
            for hook, point in ((kern.cell_fn, kern.cell),
                                (kern.cell_sq_fn, kern.cell_sq),
                                (kern.cell_m1_fn, kern.cell_m1)):
                vals.append(K._on_arrays(hook, point, x, a, b))
        vals += [K._cell_table(kern, t, lower, square)
                 for lower in (True, False) for square in (False, True)]
        vals += [kern.slice_l2_profile(t[:-1], 1.0),
                 kern.slice_l2_profile(t[:-1], t[:-1] + 0.25)]
    return vals


class TestLagBuilder:
    @pytest.mark.parametrize(
        "kern, other",
        [(k, o) for pair in zip(lag_families(K.CAUSAL),
                                lag_families(K.ANTICAUSAL))
         for k, o in (pair, pair[::-1])],
        ids=lambda k: f"{k.label}-{k.orientation}")
    def test_mirror_is_the_other_orientation(self, kern, other):
        # a lag kernel's mirror is rebuilt from its stored profile, so it is
        # the same constructor called with the other orientation
        mirror = K.mirror_kernel(kern)
        assert mirror.orientation == other.orientation
        assert mirror.lag_only and other.lag_only
        assert mirror.meta["family"] == other.meta["family"]
        for got, want in zip(hook_values(mirror), hook_values(other),
                             strict=True):
            assert np.array_equal(got, want, equal_nan=True), kern.label


class TestVectorTriangleMass:
    @pytest.mark.parametrize("name", ["fractional_generator",
                                      "fbm_rl_generator", "caputo"])
    def test_one_slice_call_per_mass(self, name):
        p = R.BACKWARD_PROBLEMS[name](Tree(N=8, T=1.0, m=1))
        calls = []

        def counted(x, a, b):
            calls.append(np.size(x))
            return p.L_y.slice_sq_fn(x, a, b)

        mass = dataclasses.replace(p.L_y, slice_sq_fn=counted)
        for N in (8, 12, 16):
            calls.clear()
            got = K.grid_blocks(p.L_z2, mass, 0.5, N, 1.0, RuntimeError)
            assert got == ref_bsvie_blocks(N, 1.0, p.L_y, p.L_z2, 0.5)
            assert calls and set(calls) == {32}

    def test_vector_slices_equal_scalar_slices(self):
        def h(r):
            return np.exp(-np.asarray(r, dtype=float))

        def h_anti(r):
            return 1.0 - np.exp(-np.asarray(r, dtype=float))

        def h_sq_anti(r):
            return 0.5 * (1.0 - np.exp(-2.0 * np.asarray(r, dtype=float)))

        # (kernel, has a closed-form slice hook): every built-in
        # constructor in both orientations, then all of their mirrors
        cases = [(K.make_counterexample_sup(), True),
                 (K._shifted_inverse_sqrt(1.0), True),
                 (K.make_fbm_rl(0.3), True), (K.make_fbm_full(0.7), False)]
        for o in (K.CAUSAL, K.ANTICAUSAL):
            cases += [
                (K.make_fractional(0.7, o), True),
                (K.make_fractional(1.3, o), True),
                (K.make_doubly_singular(0.4, 0.0, o), True),
                (K.make_doubly_singular(0.3, 0.2, o), True),
                (K.make_doubly_singular(0.6, 0.1, o), True),
                (K.make_exp_sum([1.0, 0.5], [2.0, 0.0], orientation=o), True),
                (K.make_constant(0.5, orientation=o), True),
                (K.make_convolution(h, orientation=o,
                                    h_sq_antiderivative=h_sq_anti), True),
                (K.make_convolution(h, orientation=o,
                                    h_antiderivative=h_anti), False)]
        rebuilt = ("fractional", "doubly_singular", "constant", "exp_sum",
                   "convolution")
        cases += [(K.mirror_kernel(k), hook and k.meta["family"] in rebuilt)
                  for k, hook in cases]
        assert len(cases) == 44
        for kern, hook in cases:
            assert (kern._slice_hook is not None) == hook, kern.label
            xs = np.linspace(0.25, 0.5, 33 if hook else 5)[:-1]
            scalar = [kern.slice_sq(float(x), float(x), 0.5) for x in xs]
            if hook:
                on_arrays = kern._slice_hook(xs, xs, 0.5)
                assert np.array_equal(on_arrays, scalar), kern.label
            got = K._on_arrays(kern._slice_hook, kern.slice_sq, xs, xs, 0.5)
            assert np.array_equal(got, scalar), kern.label
        # a hook that takes scalars only is called point by point
        kern = _scalar_hook_kernel()
        xs = np.linspace(0.0, 0.5, 33)[:-1]
        assert np.array_equal(kern.slice_l2_profile(xs, 0.5), np.sqrt(
            [kern.slice_sq(float(x), float(x), 0.5) for x in xs]))
