import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svolterra.backward import DivergenceError, _sweep_to_tolerance
from svolterra.lattice import (AdaptedProcess, TerminalField, Tree,
                               TwoParameterProcess, _mean_square,
                               _write_table, constant_process,
                               ito_isometry_check, terminal_from_function)


@pytest.fixture
def tree():
    return Tree(N=6, T=1.0, m=1)


class TestTreeBasics:
    def test_node_counts(self, tree):
        assert [tree.node_count(i) for i in range(4)] == [1, 2, 4, 8]

    def test_times_cached_and_read_only(self, tree):
        t = tree.times
        assert np.array_equal(t, np.linspace(0.0, tree.T, tree.N + 1))
        assert tree.times is t
        with pytest.raises(ValueError):
            t[1] = 0.5

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            Tree(N=30, T=1.0, m=1)
        Tree(N=256, T=1.0, m=0)  # deterministic lattice is exempt

    @pytest.mark.parametrize("m, largest", [(1, 22), (2, 13), (3, 11)])
    def test_budget_counts_leaves(self, m, largest):
        # (m + 1)**N <= 2**22 leaves; nothing is allocated here
        assert Tree(N=largest, T=1.0, m=m).node_count(largest) <= 1 << 22
        with pytest.raises(ValueError, match="storage budget"):
            Tree(N=largest + 1, T=1.0, m=m)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_branches_form_a_centred_simplex(self, m):
        v = Tree(N=2, T=1.0, m=m).branches
        assert v.shape == (m + 1, m)
        assert np.max(np.abs(v.sum(axis=0))) <= 1e-15
        assert np.max(np.abs(v.T @ v - (m + 1) * np.eye(m))) <= 1e-14
        assert not np.tril(v, -2).any()  # branch b moves coordinates >= b
        assert np.all(v[0] < 0)
        if m == 1:
            assert np.array_equal(v, [[-1.0], [1.0]])

    def test_increment_moments(self, tree):
        for j in range(tree.N):
            dw = tree.increments(j)
            assert abs(dw.mean()) == 0.0
            assert dw.var() == pytest.approx(tree.dt, rel=1e-14)
            assert np.allclose(np.unique(np.abs(dw)), tree.sqrt_dt,
                               rtol=1e-15)

    def test_brownian_terminal_variance(self, tree):
        w = tree.brownian(tree.N)
        assert w.mean() == pytest.approx(0.0, abs=1e-15)
        assert (w ** 2).mean() == pytest.approx(1.0, rel=1e-12)


class TestConditionalExpectation:
    def test_constant_field(self, tree):
        x = np.full((tree.node_count(4), 1), 3.25)
        out = tree.conditional_expectation(x, 4, 1)
        assert np.allclose(out, 3.25)

    def test_centered_increment(self, tree):
        dw = tree.increments(2)  # depth-3 field
        out = tree.conditional_expectation(dw, 3, 2)
        assert np.allclose(out, 0.0)

    def test_squared_brownian_vs_enumeration_oracle(self):
        tree = Tree(N=5, T=1.0, m=1)
        b, a = 5, 2
        w2 = (tree.brownian(b) ** 2).sum(axis=1, keepdims=True)
        got = tree.conditional_expectation(w2, b, a)
        # independent brute-force enumeration of descendants
        span = tree.node_count(b) // tree.node_count(a)
        for node in range(tree.node_count(a)):
            desc = w2[node * span:(node + 1) * span]
            assert got[node, 0] == pytest.approx(float(np.mean(desc)),
                                                 rel=1e-14)
        # martingale identity W(t_b)^2 -> W(t_a)^2 + (b-a) dt
        wa2 = (tree.brownian(a) ** 2).sum(axis=1, keepdims=True)
        assert np.allclose(got, wa2 + (b - a) * tree.dt, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2), st.integers(3, 5), st.data())
    def test_tower_property(self, a, b, data):
        tree = Tree(N=5, T=2.0, m=1)
        c = data.draw(st.integers(a, b))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
        x = rng.normal(size=(tree.node_count(b), 2))
        via_c = tree.conditional_expectation(
            tree.conditional_expectation(x, b, c), c, a)
        direct = tree.conditional_expectation(x, b, a)
        # identical up to summation-order rounding
        assert np.allclose(via_c, direct, rtol=1e-13, atol=1e-14)


class TestMartingaleRepresentation:
    def test_single_increment(self, tree):
        j = 3
        dw = tree.increments(j)  # (nodes_{j+1}, 1)
        mean, z = tree.martingale_representation(dw, j + 1, j)
        assert np.allclose(mean, 0.0)
        assert np.allclose(z[0][:, 0, 0], 1.0)

    def test_constant_gives_zero_integrand(self, tree):
        x = np.full((tree.node_count(tree.N), 1), 7.0)
        mean, z = tree.martingale_representation(x, tree.N, 0)
        assert np.allclose(mean, 7.0)
        for zj in z:
            assert np.allclose(zj, 0.0)

    def test_cubic_brownian_reconstruction(self):
        tree = Tree(N=6, T=1.0, m=1)
        x = tree.brownian(6) ** 3
        mean, z = tree.martingale_representation(x, 6, 0)
        recon = tree.broadcast(mean, 0, 6) + tree.stochastic_integral(z, 0, 6)
        assert np.max(np.abs(recon - x)) < 1e-14

    def test_reconstruction_random_leaf_fields(self):
        tree = Tree(N=7, T=1.5, m=1)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(tree.node_count(7), 2))
        mean, z = tree.martingale_representation(x, 7, 0)
        recon = tree.broadcast(mean, 0, 7) + tree.stochastic_integral(z, 0, 7)
        assert np.max(np.abs(recon - x)) < 1e-13

    def test_multinoise_linear_field_exact(self):
        tree = Tree(N=3, T=1.0, m=2)
        w = tree.brownian(3)  # (27, 2)
        x = (2.0 * w[:, :1] - 3.0 * w[:, 1:])
        mean, z = tree.martingale_representation(x, 3, 0)
        recon = tree.broadcast(mean, 0, 3) + tree.stochastic_integral(z, 0, 3)
        assert np.max(np.abs(recon - x)) < 1e-13

    @pytest.mark.parametrize("m, N", [(2, 6), (3, 5)])
    def test_multinoise_nonlinear_field_exact(self, m, N):
        tree = Tree(N=N, T=1.0, m=m)
        w = tree.brownian(N)
        x = np.sin(w[:, 0] * w[:, 1])
        mean, z = tree.martingale_representation(x, N, 0)
        recon = tree.stochastic_integral(z, 0, N, start=mean)
        assert np.max(np.abs(recon[:, 0] - x)) <= 1e-13

    @pytest.mark.parametrize("m, N", [(2, 6), (3, 5)])
    def test_multinoise_random_leaf_fields_exact(self, m, N):
        tree = Tree(N=N, T=1.5, m=m)
        rng = np.random.default_rng(m)
        x = rng.normal(size=(tree.node_count(N), 3))
        for lo in (0, 2):
            mean, z = tree.martingale_representation(x, N, lo)
            recon = tree.stochastic_integral(z, lo, N, start=mean)
            assert np.max(np.abs(recon - x)) <= 1e-13


def reference_representation(tree, values, from_depth, to_depth):
    """Reshape/mean/einsum form of the one-step representation, kept here
    as the reference the strided branch form must reproduce."""
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    v = tree.branches
    nb = tree.m + 1
    z = []
    for j in range(from_depth - 1, to_depth - 1, -1):
        resh = x.reshape(tree.node_count(j), nb, x.shape[1])
        zj = np.einsum("nbd,bk->ndk", resh, v) / (nb * tree.sqrt_dt) \
            if tree.m > 0 else np.zeros((tree.node_count(j), x.shape[1], 0))
        z.append(zj)
        x = resh.mean(axis=1)
    z.reverse()
    return x, z


def reference_integral(tree, z_list, a, b):
    """Repeat/einsum form of the stochastic integral (reference copy)."""
    v = tree.branches
    d = z_list[0].shape[1] if z_list else 1
    acc = np.zeros((tree.node_count(a), d))
    for offset, zj in enumerate(z_list):
        j = a + offset
        contrib = tree.sqrt_dt * np.einsum("ndk,bk->nbd", zj, v)
        acc = (np.repeat(acc, tree.m + 1, axis=0)
               + contrib.reshape(tree.node_count(j + 1), d))
    return acc


class TestStridedBranchForm:
    """The strided branch slices x[b::m + 1] reproduce the reshape/einsum
    formulas: bit for bit at m <= 1, to the last bits at m >= 2."""

    DEPTHS = {0: 7, 1: 7, 2: 5, 3: 4}
    PAIRS = ((-1, 0), (-1, -2), (-2, 1), (2, 2), (2, 0))

    def cases(self):
        rng = np.random.default_rng(2024)
        for m, N in self.DEPTHS.items():
            tree = Tree(N=N, T=1.3, m=m)
            for d in (1, 3):
                for a, b in self.PAIRS:
                    hi, lo = a % (N + 1), b % (N + 1)
                    yield m, tree, d, hi, lo, rng

    @staticmethod
    def agree(m, got, want):
        if m <= 1:
            return np.array_equal(got, want)
        return got.shape == want.shape and \
            float(np.max(np.abs(got - want), initial=0.0)) <= 1e-14

    def test_representation_matches_reference(self):
        for m, tree, d, hi, lo, rng in self.cases():
            x = rng.normal(size=(tree.node_count(hi), d))
            mean, z = tree.martingale_representation(x, hi, lo)
            ref_mean, ref_z = reference_representation(tree, x, hi, lo)
            assert self.agree(m, mean, ref_mean), (m, d, hi, lo)
            assert len(z) == len(ref_z) == hi - lo
            for zj, rj in zip(z, ref_z):
                assert self.agree(m, zj, rj), (m, d, hi, lo)

    def test_integral_matches_reference(self):
        for m, tree, d, hi, lo, rng in self.cases():
            z = [rng.normal(size=(tree.node_count(j), d, m))
                 for j in range(lo, hi)]
            got = tree.stochastic_integral(z, lo, hi)
            assert self.agree(m, got, reference_integral(tree, z, lo, hi)), \
                (m, d, hi, lo)

    def test_inputs_left_unchanged(self):
        tree = Tree(N=4, T=1.0, m=2)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(tree.node_count(4), 2))
        z = [rng.normal(size=(tree.node_count(j), 2, 2)) for j in range(4)]
        x0, z0 = x.copy(), [zj.copy() for zj in z]
        tree.martingale_representation(x, 4, 0)
        tree.stochastic_integral(z, 0, 4)
        assert np.array_equal(x, x0)
        assert all(np.array_equal(a, b) for a, b in zip(z, z0))


def per_call_representation(tree, values, from_depth, to_depth):
    """The strided representation with its constants computed on every
    call, as it read before the tree cached them (reference copy)."""
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    nb = tree.m + 1
    scale = nb * math.sqrt(tree.T / tree.N)
    c = -tree.branches[0]
    z = []
    for _ in range(from_depth - to_depth):
        total = x[0::nb]
        zj = np.empty(total.shape + (tree.m,))
        for k in range(1, nb):
            xk, zk = x[k::nb], zj[:, :, k - 1]
            np.subtract(xk if k == 1 else np.multiply(xk, k, out=zk),
                        total, out=zk)
            np.divide(zk, scale / c[k - 1], out=zk)
            total = np.add(total, xk, out=total if k > 1 else None)
        z.append(zj)
        x = np.divide(total, nb, out=total if nb > 1 else None)
    z.reverse()
    return x, z


def per_call_integral(tree, z_list, a, b, start=None, subtract=False):
    """The strided stochastic integral with its signed steps computed on
    every call, as it read before the tree cached them (reference copy)."""
    nb = tree.m + 1
    if start is None:
        d = z_list[0].shape[1] if z_list else 1
        acc = np.zeros((tree.node_count(a), d))
    else:
        acc = start
        d = acc.shape[1]
    sign = 1.0 if subtract else -1.0
    steps = sign * math.sqrt(tree.T / tree.N) * tree.branches[0]
    work = np.empty((min(tree.m, 2), tree.node_count(max(b - 1, a)), d))
    for zj in z_list:
        n = acc.shape[0]
        out = np.empty((n * nb, d))
        suffix = 0.0
        for k in range(tree.m, 0, -1):
            ok = out[k::nb]
            w = np.multiply(zj[:, :, k - 1], steps[k - 1],
                            out=work[0 if k == tree.m else 1, :n])
            np.add(acc, w if k == 1 else np.multiply(w, k, out=ok), out=ok)
            if k == tree.m:
                suffix = w
            else:
                np.subtract(ok, suffix, out=ok)
                np.add(suffix, w, out=suffix)
        np.subtract(acc, suffix, out=out[0::nb])
        acc = out
    return acc


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestDepthPairChecks:
    """Each primitive checks its two depths with one chained comparison and
    raises what two per-depth checks and an order check raised: the range
    error of the first depth, then of the second, then the order error."""

    # primitive, its first and second depth arguments in a misordered pair,
    # order message
    PRIMITIVES = [
        ("broadcast", (2, 1), "broadcast goes from shallow to deep"),
        ("conditional_expectation", (1, 2),
         "conditioning goes from deep to shallow"),
        ("ancestor_view", (1, 2), "ancestors sit at a shallower depth"),
        ("martingale_representation", (1, 2),
         "representation goes from deep to shallow"),
        ("stochastic_integral", (2, 1),
         "need one integrand per step in [a, b)"),
    ]

    @pytest.mark.parametrize("name, misordered, order_message", PRIMITIVES)
    def test_messages(self, name, misordered, order_message):
        tree = Tree(N=3, T=1.0, m=1)
        call = getattr(tree, name)
        first = [] if name == "stochastic_integral" else np.zeros((2, 1))
        for pair, message in [((-1, 5), "depth -1 outside [0, 3]"),
                              ((2, 4), "depth 4 outside [0, 3]"),
                              ((5, 1), "depth 5 outside [0, 3]"),
                              ((0, -1), "depth -1 outside [0, 3]"),
                              (misordered, order_message)]:
            with pytest.raises(ValueError) as err:
                call(first, *pair)
            assert str(err.value) == message


class TestStepConstantsOncePerTree:
    """The step constants are computed once per tree; the primitives that
    read them give the per-call computation's outputs bit for bit, and a
    tree that has computed them still compares and hashes by its fields."""

    @pytest.mark.parametrize("m, N, T", [(0, 6, 1.0), (1, 6, 0.7),
                                         (2, 4, 1.3), (3, 3, 2.0)])
    def test_primitives_match_per_call_constants(self, m, N, T):
        tree = Tree(N=N, T=T, m=m)
        rng = np.random.default_rng(40 + m)
        for d in (1, 2):
            x = rng.normal(size=(tree.node_count(N), d))
            x[0, 0] = -0.0
            mean, z = tree.martingale_representation(x, N, 1)
            ref_mean, ref_z = per_call_representation(tree, x, N, 1)
            assert_same_bits(mean, ref_mean)
            assert len(z) == len(ref_z) == N - 1
            for zj, rj in zip(z, ref_z):
                assert_same_bits(zj, rj)
            zs = [rng.normal(size=(tree.node_count(j), d, m))
                  for j in range(1, N)]
            start = rng.normal(size=(tree.node_count(1), d))
            for subtract in (False, True):
                assert_same_bits(
                    tree.stochastic_integral(zs, 1, N, start=start.copy(),
                                             subtract=subtract),
                    per_call_integral(tree, zs, 1, N, start=start.copy(),
                                      subtract=subtract))
            assert_same_bits(tree.stochastic_integral(zs, 1, N),
                             per_call_integral(tree, zs, 1, N))

    def test_cached_constants_are_the_per_call_values(self):
        tree = Tree(N=7, T=1.3, m=3)
        dt = 1.3 / 7
        c = -tree.branches[0]
        assert tree.dt == dt and tree.sqrt_dt == math.sqrt(dt)
        assert tree._representation_divisors == tuple(
            4 * math.sqrt(dt) / c)
        assert tree._integral_steps == (
            tuple(-1.0 * math.sqrt(dt) * tree.branches[0]),
            tuple(1.0 * math.sqrt(dt) * tree.branches[0]))
        assert Tree(N=5, T=1.0, m=0)._integral_steps == ((), ())

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_node_counts_from_the_table(self, m):
        N = {0: 9, 1: 9, 2: 6, 3: 5}[m]
        tree = Tree(N=N, T=1.0, m=m)
        assert tree._node_counts == tuple((m + 1) ** k for k in range(N + 1))
        assert [tree.node_count(k) for k in range(N + 1)] == [
            (m + 1) ** k for k in range(N + 1)]
        # a negative depth must not wrap to the end of the table
        for depth in (-1, -N, N + 1):
            with pytest.raises(ValueError, match="outside"):
                tree.node_count(depth)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_broadcast_is_the_repeat(self, m):
        tree = Tree(N=3, T=1.0, m=m)
        rng = np.random.default_rng(m)
        for shape in ((1, 2), (1, 2, m + 1)):
            x = rng.normal(size=shape)
            x[0, 0] = -0.0
            for to_depth in range(tree.N + 1):
                want = np.repeat(x, (m + 1) ** to_depth, axis=0)
                assert_same_bits(tree.broadcast(x, 0, to_depth), want)
            # a nested list goes through np.asarray, as before
            assert_same_bits(tree.broadcast(x.tolist(), 0, tree.N),
                             np.repeat(x, (m + 1) ** tree.N, axis=0))
        with pytest.raises(ValueError, match="outside"):
            tree.broadcast(np.zeros((1, 1)), -1, 1)
        with pytest.raises(ValueError, match="shallow to deep"):
            tree.broadcast(np.zeros((m + 1, 1)), 1, 0)

    def test_tree_equal_and_hashable_after_reads(self):
        read, fresh = Tree(N=6, T=1.5, m=2), Tree(N=6, T=1.5, m=2)
        for name in ("dt", "sqrt_dt", "times", "_representation_divisors",
                     "_integral_steps", "_node_counts"):
            getattr(read, name)
        assert "_integral_steps" in vars(read)
        assert read == fresh and hash(read) == hash(fresh)
        assert {fresh: 1}[read] == 1
        assert read != Tree(N=6, T=1.5, m=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            read.N = 7


def old_mean_square(x):
    """E|x|^2 as every site computed it before the shared helper."""
    tail = tuple(range(1, np.ndim(x)))
    return float(Tree(N=1, T=1.0).expectation((x ** 2).sum(axis=tail)))


class TestMeanSquare:
    """One helper for E|x|^2 and E|a - b|^2 under the uniform node measure:
    bit for bit the per-node sums' ``tree.expectation``, and non-finite
    whenever an input is."""

    SHAPES = [(1,), (2,), (6,), (1, 1), (2, 1), (1, 2), (3, 2), (2, 3),
              (6, 1)]

    @pytest.mark.parametrize("tail", SHAPES)
    @pytest.mark.parametrize("n", [1, 2, 4096])
    def test_matches_expectation_of_node_sums(self, n, tail):
        rng = np.random.default_rng(n + len(tail))
        a = rng.normal(size=(n,) + tail) * rng.lognormal(size=(n,) + tail)
        b = a + rng.normal(size=a.shape)
        flat_a, flat_b = a.reshape(-1), b.reshape(-1)
        flat_a[::3] = -0.0
        flat_b[1::5] = 0.0
        flat_b[2::7] = flat_a[2::7]   # some exact zero differences
        got = _mean_square(a)
        assert got.hex() == old_mean_square(a).hex()
        diff = a - b
        diff *= diff
        tail_axes = tuple(range(1, a.ndim))
        want = float(Tree(N=1, T=1.0).expectation(diff.sum(axis=tail_axes)))
        assert _mean_square(a, b).hex() == want.hex()
        assert _mean_square(a, b).hex() == old_mean_square(a - b).hex()
        # a caller's scratch array, stale contents and all, gives the
        # same bits and ends holding the squared difference
        out = np.full_like(a, np.nan)
        assert _mean_square(a, b, out=out).hex() == want.hex()
        assert np.array_equal(out, diff)
        assert _mean_square(a, out=out).hex() == got.hex()

    def test_views_and_inputs_left_alone(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(64, 5, 2))
        strided = base[::2, 1:4]
        zero = np.broadcast_to(0.0, (32, 3, 2))
        for x in (strided, zero, base[:, 2:3, 0]):
            assert _mean_square(x).hex() == old_mean_square(x).hex()
        before = base.copy()
        _mean_square(strided, base[1::2, 1:4])
        assert np.array_equal(base, before)
        assert _mean_square(zero) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("tail", [(1,), (2, 3)])
    def test_non_finite_input_gives_non_finite_norm(self, bad, tail):
        # numpy warns on the overflow as the old sites did; only the value
        # is checked here
        x = np.ones((8,) + tail)
        x[3].flat[0] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            values = [_mean_square(x), _mean_square(x, np.zeros_like(x)),
                      _mean_square(np.zeros_like(x), x)]
            if np.isinf(bad):   # inf - inf is nan
                values.append(_mean_square(x, x))
                assert math.isnan(values[-1])
        for value in values:
            assert not math.isfinite(value)
            with pytest.raises(DivergenceError, match="non-finite"):
                _sweep_to_tolerance(iter([1.0, math.sqrt(0.1 * value)]),
                                    1e-12, 10, (0, 1))


class TestIntegralFromStartField:
    @pytest.mark.parametrize("m", [1, 2])
    def test_start_and_subtract(self, m):
        tree = Tree(N=4, T=1.0, m=m)
        rng = np.random.default_rng(40 + m)
        start = rng.normal(size=(tree.node_count(1), 2))
        z = [rng.normal(size=(tree.node_count(j), 2, m)) for j in range(1, 4)]
        plain = tree.stochastic_integral(z, 1, 4)
        base = tree.broadcast(start, 1, 4)
        added = tree.stochastic_integral(z, 1, 4, start=start)
        taken = tree.stochastic_integral(z, 1, 4, start=start, subtract=True)
        assert np.max(np.abs(added - (base + plain))) <= 1e-14
        assert np.max(np.abs(taken - (base - plain))) <= 1e-14
        assert tree.stochastic_integral([], 1, 1, start=start) is start

    @pytest.mark.parametrize("tree_m, z_m", [(0, 1), (2, 1), (1, 2)])
    def test_noise_dimension_mismatch_names_both(self, tree_m, z_m):
        # at m = 0 the noise was dropped silently, at m = 2 an m = 1
        # integrand ran out of coordinates
        tree = Tree(N=3, T=1.0, m=tree_m)
        z = [np.ones((tree.node_count(j), 1, z_m)) for j in range(3)]
        with pytest.raises(ValueError, match=rf"dimension {z_m} .* m = "
                                             rf"{tree_m}"):
            tree.stochastic_integral(z, 0, 3)


class TestAncestorView:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("d", [1, 3])
    def test_contraction_equals_broadcast_contraction(self, m, d):
        tree = Tree(N=4, T=1.0, m=m)
        rng = np.random.default_rng(10 * m + d)
        for deep, shallow in ((4, 1), (3, 0), (2, 2)):
            y = rng.normal(size=(tree.node_count(deep), d))
            z = rng.normal(size=(tree.node_count(deep), d, m))
            a = rng.normal(size=(tree.node_count(shallow), d, d))
            s = rng.normal(size=(tree.node_count(shallow), d, m, d))
            yv = tree.ancestor_view(y, deep, shallow)
            zv = tree.ancestor_view(z, deep, shallow)
            assert np.shares_memory(yv, y) and np.shares_memory(zv, z)
            got_y = np.einsum("nab,nka->nkb", a, yv).reshape(y.shape)
            want_y = np.einsum("nab,na->nb",
                               tree.broadcast(a, shallow, deep), y)
            got_z = np.einsum("namb,nkam->nkb", s, zv).reshape(y.shape)
            want_z = np.einsum("namb,nam->nb",
                               tree.broadcast(s, shallow, deep), z)
            assert np.array_equal(got_y, want_y), (deep, shallow)
            assert np.array_equal(got_z, want_z), (deep, shallow)

    def test_rejects_a_deeper_ancestor(self, tree):
        with pytest.raises(ValueError):
            tree.ancestor_view(np.zeros((4, 1)), 2, 3)


class TestTerminalFieldDepths:
    def test_default_depth_is_the_leaves(self, tree):
        psi = terminal_from_function(tree, lambda t, w: w[:, 0])
        assert psi.depths == [tree.N] * (tree.N + 1)
        assert psi.at(2, tree.N) is psi[2]

    def test_accessor_repeats_only_onto_deeper_levels(self, tree):
        rng = np.random.default_rng(6)
        psi = TerminalField(
            tree, [rng.normal(size=(tree.node_count(i), 1))
                   for i in range(tree.N + 1)], depths=range(tree.N + 1))
        for i in range(tree.N + 1):
            assert psi.at(i, i) is psi[i]
        assert np.array_equal(psi.at(2, 5), tree.broadcast(psi[2], 2, 5))
        with pytest.raises(ValueError):
            psi.at(4, 2)

    def test_wrong_node_count_names_its_index(self, tree):
        values = [np.zeros((tree.node_count(2), 1))
                  for _ in range(tree.N + 1)]
        values[3] = np.zeros((tree.node_count(3), 1))
        with pytest.raises(ValueError, match="outer index 3: expected 4 "
                                             "nodes at depth 2, got 8"):
            TerminalField(tree, values, depths=[2] * (tree.N + 1))


class TestItoIsometry:
    def test_residual_zero_for_random_integrands(self):
        tree = Tree(N=6, T=1.0, m=1)
        rng = np.random.default_rng(11)
        z = [rng.normal(size=(tree.node_count(j), 1, 1)) for j in range(6)]
        assert ito_isometry_check(tree, z, 0, 6) < 1e-13

    def test_conditional_mean_of_integral_is_zero(self):
        tree = Tree(N=5, T=1.0, m=1)
        rng = np.random.default_rng(3)
        z = [rng.normal(size=(tree.node_count(j), 1, 1)) for j in range(2, 5)]
        integral = tree.stochastic_integral(z, 2, 5)
        back = tree.conditional_expectation(integral, 5, 2)
        assert np.max(np.abs(back)) < 1e-14

    def test_residual_zero_for_two_noise_coordinates(self):
        # the simplex columns are orthogonal, E[dW dW^T] = dt I
        tree = Tree(N=4, T=1.0, m=2)
        rng = np.random.default_rng(9)
        z = [rng.normal(size=(tree.node_count(j), 2, 2)) for j in range(4)]
        assert ito_isometry_check(tree, z, 0, 4) < 1e-13

    @pytest.mark.parametrize("m, N", [(2, 6), (3, 5)])
    def test_residual_at_rounding_on_the_simplex_tree(self, m, N):
        tree = Tree(N=N, T=1.0, m=m)
        rng = np.random.default_rng(20 + m)
        z = [rng.normal(size=(tree.node_count(j), 2, m)) for j in range(N)]
        assert ito_isometry_check(tree, z, 0, N) <= 1e-14


class TestProcessContainers:
    def test_adapted_process_shape_guard(self, tree):
        with pytest.raises(ValueError):
            AdaptedProcess(tree, [np.zeros((5, 1))])

    def test_single_path_rows_are_views(self):
        tree = Tree(N=6, T=1.0, m=0)
        X = np.arange(14.0).reshape(7, 2)
        p = AdaptedProcess.single_path(tree, X)
        ref = AdaptedProcess(tree, list(X[:, None, :]))
        assert len(p) == 7 and p.d == 2
        for i in range(7):
            assert p[i].shape == (1, 2)
            assert np.array_equal(p[i], ref[i])
            assert np.shares_memory(p[i], X)

    @pytest.mark.parametrize("m, shape, dtype", [
        (1, (7, 1), float), (0, (6, 1), float), (0, (7,), float),
        (0, (7, 1), int)])
    def test_single_path_shape_guard(self, m, shape, dtype):
        tree = Tree(N=6, T=1.0, m=m)
        with pytest.raises(ValueError, match="path on an m = 0 tree"):
            AdaptedProcess.single_path(tree, np.zeros(shape, dtype=dtype))

    def test_constant_process(self, tree):
        p = constant_process(tree, lambda t: [t ** 2])
        assert p[3][0, 0] == pytest.approx(tree.times[3] ** 2)
        assert p[3].shape == (tree.node_count(3), 1)

    def test_terminal_from_function(self, tree):
        tf = terminal_from_function(tree, lambda t, w: t + w[:, 0])
        assert tf[2].shape == (tree.node_count(tree.N), 1)
        assert len(tf) == tree.N + 1

    def test_two_parameter_zeros(self, tree):
        z = TwoParameterProcess.zeros(tree)
        assert z.entry(2, 4).shape == (tree.node_count(4), 1, 1)

    def test_csv_dump(self, tree, tmp_path):
        p = constant_process(tree, lambda t: [1.0])
        path = tmp_path / "proc.csv"
        p.dump_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "depth,node,component,value"
        assert len(lines) == 1 + sum(tree.node_count(i)
                                     for i in range(tree.N + 1))


def csv_writer_adapted(p, path):
    """The csv.writer loop the adapted table was first written with."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth", "node", "component", "value"])
        for depth, v in enumerate(p.values):
            for node in range(v.shape[0]):
                for comp in range(v.shape[1]):
                    writer.writerow([depth, node, comp,
                                     repr(float(v[node, comp]))])


def csv_writer_two_parameter(p, path):
    """The csv.writer loop the two-parameter table was first written with."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["outer", "inner", "node", "component",
                         "noise", "value"])
        for i, row in enumerate(p.values):
            for j, z in enumerate(row):
                if z is None:
                    continue
                for node in range(z.shape[0]):
                    for comp in range(z.shape[1]):
                        for k in range(z.shape[2]):
                            writer.writerow([i, j, node, comp, k,
                                             repr(float(z[node, comp, k]))])


def reference_write_table(path, header, blocks):
    """The block writer that built one string per row, kept as the
    reference for ``_write_table``'s template substitution."""
    def index_text(shape):
        text = [""]
        for n in shape:
            digits = [f"{k}," for k in range(n)]
            text = [head + tail for head in text for tail in digits]
        return text

    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lead, a in blocks:
            a = np.ascontiguousarray(a, dtype=np.float64)
            if a.size == 0:
                continue
            bits, inverse = np.unique(a.reshape(-1).view(np.uint64),
                                      return_inverse=True)
            text = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                            dtype=object)
            prefix = "".join(f"{k}," for k in lead)
            fh.write(prefix + ("\r\n" + prefix).join(
                map(str.__add__, index_text(a.shape),
                    text[inverse].tolist())) + "\r\n")


class TestWriteTableTemplate:
    """_write_table writes the bytes of the per-row reference writer."""

    SPECIAL = np.array([-0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e16,
                        1e-5, 0.1, 1.0 / 3.0, 1e16, 1e-5, 0.0, -0.0])

    @staticmethod
    def nan_payloads(n):
        bits = np.uint64(0x7FF8000000000000) + np.arange(n, dtype=np.uint64)
        bits[1::2] |= np.uint64(1 << 63)  # negative NaN payloads too
        return bits.view(np.float64)

    def assert_same_bytes(self, tmp_path, header, blocks):
        _write_table(tmp_path / "table.csv", header, blocks)
        reference_write_table(tmp_path / "reference.csv", header, blocks)
        got = (tmp_path / "table.csv").read_bytes()
        assert got == (tmp_path / "reference.csv").read_bytes()
        return got

    def test_one_index_lead_and_special_values(self, tmp_path):
        rng = np.random.default_rng(11)
        values = np.concatenate([self.SPECIAL, self.nan_payloads(4)])
        blocks = [((depth,), rng.choice(values, (2 ** depth, 3)))
                  for depth in range(5)]
        blocks.insert(2, ((9,), np.empty((0, 3))))  # an empty block
        got = self.assert_same_bytes(
            tmp_path, ("depth", "node", "component", "value"), blocks)
        text = got.decode()
        for value in ("-0.0", "0.0", "nan", "inf", "-inf", "5e-324", "1e+16",
                      "1e-05"):
            assert f",{value}\r\n" in text
        assert "\r\n9," not in text

    def test_two_index_lead_with_noise_and_state_axes(self, tmp_path):
        rng = np.random.default_rng(12)
        values = np.concatenate([self.SPECIAL, self.nan_payloads(3)])
        blocks = [((i, j), rng.choice(values, (3 ** j, 2, 3)))
                  for i in range(3) for j in range(3)]
        blocks.append(((3, 0), np.full((1, 2, 3), 1e16)))  # one value
        blocks.append(((3, 1), np.zeros((0, 2, 3))))
        got = self.assert_same_bytes(
            tmp_path, ("outer", "inner", "node", "component", "noise",
                       "value"), blocks)
        assert got.count(b"\r\n") == 1 + sum(
            a.size for _, a in blocks)
        assert b"\r\n2,1,2,1,2," in got

    def test_repeated_shapes_with_different_leads(self, tmp_path):
        # one template per shape, reused with a new lead every block
        a = np.arange(12.0).reshape(4, 3)
        blocks = [((k,), a * (-1) ** k) for k in range(12)]
        got = self.assert_same_bytes(tmp_path, ("depth", "node",
                                                "component", "value"),
                                     blocks)
        assert got.startswith(b"depth,node,component,value\r\n0,0,0,0.0")
        assert got.endswith(b"11,3,2,-11.0\r\n")


class TestCsvBytes:
    """dump_csv writes the bytes of the csv.writer loops, value for value."""

    @staticmethod
    def assert_same_bytes(p, oracle, tmp_path):
        p.dump_csv(tmp_path / "table.csv")
        oracle(p, tmp_path / "oracle.csv")
        got = (tmp_path / "table.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()
        assert got.endswith(b"\r\n")
        assert got.count(b"\n") == got.count(b"\r\n")
        return got

    def test_solved_bsvie(self, tmp_path):
        from svolterra import backward, registry
        tree = Tree(N=6, T=1.0)
        sol = backward.solve_bsvie(
            registry.BACKWARD_PROBLEMS["fractional_generator"](tree), tree)
        self.assert_same_bytes(sol.Y, csv_writer_adapted, tmp_path)
        self.assert_same_bytes(sol.Z, csv_writer_two_parameter, tmp_path)

    def test_special_values_and_missing_entry(self, tmp_path):
        tree = Tree(N=3, T=1.0, m=2)
        special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324,
                            -5e-324, 1e-300, 0.1, 1.0 / 3.0])
        rng = np.random.default_rng(3)
        z = TwoParameterProcess.zeros(tree, 2)
        for i, row in enumerate(z.values):
            for j, cell in enumerate(row):
                z.set_entry(i, j, rng.choice(special, cell.shape))
        z.values[2][1] = None
        got = self.assert_same_bytes(z, csv_writer_two_parameter, tmp_path)
        text = got.decode()
        for value in ("-0.0", "nan", "inf", "-inf", "5e-324"):
            assert f",{value}\r\n" in text
        assert "\r\n2,1," not in text

    def test_no_noise_coordinates(self, tmp_path):
        z = TwoParameterProcess.zeros(Tree(N=3, T=1.0, m=0))
        got = self.assert_same_bytes(z, csv_writer_two_parameter, tmp_path)
        assert got == b"outer,inner,node,component,noise,value\r\n"

    def test_all_negative_zero(self, tree, tmp_path):
        p = AdaptedProcess(tree, [np.full((tree.node_count(i), 1), -0.0)
                                  for i in range(tree.N + 1)])
        got = self.assert_same_bytes(p, csv_writer_adapted, tmp_path)
        assert got.count(b",-0.0\r\n") == sum(
            tree.node_count(i) for i in range(tree.N + 1))


class TestDeterministicLattice:
    def test_m_zero_tree(self):
        tree = Tree(N=64, T=1.0, m=0)
        assert tree.node_count(10) == 1
        x = np.array([[4.2]])
        mean, z = tree.martingale_representation(x, 10, 0)
        assert mean[0, 0] == 4.2
        assert all(zj.shape == (1, 1, 0) for zj in z)
        assert np.allclose(tree.stochastic_integral(z, 0, 10), 0.0)
