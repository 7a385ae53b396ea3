import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st
from scipy import special as sps

from svolterra.lattice import Tree
from svolterra.registry import delay_lq_instance
from svolterra.special import (MittagLefflerBudgetError, _expm, _lgammas,
                               gamma_fn, mittag_leffler)


class TestGamma:
    def test_integers(self):
        for n in range(1, 20):
            assert gamma_fn(n) == pytest.approx(math.factorial(n - 1),
                                                rel=1e-14)

    def test_half_integer(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_fn(1.5) == pytest.approx(math.sqrt(math.pi) / 2,
                                              rel=1e-14)

    def test_against_scipy_on_contract_domain(self):
        xs = np.linspace(0.05, 50.0, 317)
        ours = np.array([gamma_fn(float(x)) for x in xs])
        assert np.allclose(ours, sps.gamma(xs), rtol=1e-12)

    def test_recurrence(self):
        for x in (0.3, 1.7, 9.2, 33.3):
            assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x),
                                                      rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_fn(0.0)
        with pytest.raises(ValueError):
            gamma_fn(-1.3)

    def test_overflow_returns_inf(self):
        assert gamma_fn(500.0) == math.inf


class TestMittagLeffler:
    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_exponential_reduction(self, z):
        assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z),
                                                            rel=1e-12)

    def test_value_at_zero_is_reciprocal_gamma(self):
        for alpha, beta in [(0.5, 1.0), (0.75, 0.75), (1.3, 2.2)]:
            assert mittag_leffler(alpha, beta, 0.0) == pytest.approx(
                1.0 / gamma_fn(beta), rel=1e-14)

    def test_cosh_reduction(self):
        # E_{2,1}(z^2) = cosh(z)
        for z in (0.3, 1.0, 2.5):
            assert mittag_leffler(2.0, 1.0, z * z) == pytest.approx(
                math.cosh(z), rel=1e-12)

    def test_derivative_identity(self):
        # E_{1,2}(z) = (e^z - 1)/z
        for z in (-3.0, 0.7, 4.0):
            assert mittag_leffler(1.0, 2.0, z) == pytest.approx(
                (math.exp(z) - 1.0) / z, rel=1e-12)

    def test_budget_error_on_catastrophic_cancellation(self):
        with pytest.raises(MittagLefflerBudgetError):
            mittag_leffler(0.3, 1.0, -40.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(0.5, -1.0, 1.0)


def reference_mittag_leffler(alpha, beta, z, rel_tol=1e-16, max_terms=2048,
                             term_budget=1e15):
    """The series loop as it read before the budget log and the term
    magnitude were computed once per call and once per term."""
    if z == 0.0:
        return 1.0 / gamma_fn(beta)
    if alpha == 1.0 and beta == 1.0:
        return math.exp(z)
    log_abs_z = math.log(abs(z))
    sign_z = 1.0 if z > 0 else -1.0
    total = comp = 0.0
    sign = 1.0
    prev_log_term = math.inf
    passed_peak = False
    for k in range(max_terms):
        log_term = k * log_abs_z - math.lgamma(alpha * k + beta)
        if log_term > math.log(term_budget):
            raise MittagLefflerBudgetError(
                f"series term ~exp({log_term:.1f}) exceeds the cancellation "
                f"budget at k={k}; reduce |z| (currently {abs(z):.3g})")
        if log_term < prev_log_term:
            passed_peak = True
        term = sign * math.exp(log_term)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if passed_peak and k > 0 and \
                math.exp(log_term) <= rel_tol * max(abs(total), 1e-300):
            return total
        prev_log_term = log_term
        sign *= sign_z
    raise MittagLefflerBudgetError(
        f"series did not converge within {max_terms} terms for "
        f"alpha={alpha}, beta={beta}, z={z}")


def assert_same_as_reference(*args, **kw):
    """Same value, or the same budget error, as the reference loop."""
    try:
        expected = reference_mittag_leffler(*args, **kw)
    except MittagLefflerBudgetError as exc:
        with pytest.raises(MittagLefflerBudgetError) as got:
            mittag_leffler(*args, **kw)
        assert str(got.value) == str(exc)
    else:
        assert mittag_leffler(*args, **kw) == expected


class TestMittagLefflerLoop:
    @pytest.mark.parametrize("alpha, beta", [(0.6, 1.0), (0.75, 0.75),
                                             (0.85, 1.85), (2.0, 1.0)])
    def test_bit_identical_to_reference_loop(self, alpha, beta):
        # the lattice check's arguments -t^alpha, then both signs further
        # out, where the positive ones run into the budget
        zs = np.concatenate([-np.linspace(0.0, 1.0, 513) ** alpha,
                             np.linspace(-40.0, 40.0, 161)])
        for z in zs:
            assert_same_as_reference(alpha, beta, float(z))

    @pytest.mark.parametrize("kw", [{}, {"max_terms": 5},
                                    {"term_budget": 10.0}])
    def test_budget_errors_identical_to_reference_loop(self, kw):
        with pytest.raises(MittagLefflerBudgetError):
            mittag_leffler(0.3, 1.0, -40.0, **kw)
        for args in [(0.3, 1.0, -40.0), (0.75, 1.0, -3.0)]:
            assert_same_as_reference(*args, **kw)


class TestLogGammaTable:
    """The per-(alpha, beta) lgamma tables change no value and no error."""

    CALLS = [
        (0.6, 1.0, -0.01),           # short series: the table of 32
        (0.6, 1.0, 5.0),             # long one, same pair: 64, then 128
        (0.6, 1.0, -0.01),           # short again after the long one
        (2.0, 1.0, 30.0),            # interleaved pairs
        (0.75, 0.75, -1.0),
        (2.0, 1.0, 0.2),
        (0.75, 0.75, 18.0),
        (0.6, 1.0, -0.5),
        (0.6, 1.6, -2.0),            # same alpha, another beta
        (0.75, 1.0, -1.0),
        (0.3, 1.0, -40.0),           # budget error on a cold table
        (0.3, 1.0, -0.1),
        (0.3, 1.0, -40.0),           # the same error on a warm table
        (0.6, 1.0, 60.0),            # budget error on a long table
    ]

    def test_warm_tables_match_reference_loop(self):
        _lgammas.cache_clear()
        assert_same_as_reference(*self.CALLS[0])
        assert _lgammas.cache_info().misses == 1
        assert_same_as_reference(*self.CALLS[1])
        assert _lgammas.cache_info().misses == 3  # extended twice
        for args in self.CALLS:
            assert_same_as_reference(*args)
        for kw in ({"max_terms": 5}, {"max_terms": 40},
                   {"term_budget": 10.0}, {"rel_tol": 1e-8}):
            for args in self.CALLS:
                assert_same_as_reference(*args, **kw)

    def test_cache_is_bounded(self):
        _lgammas.cache_clear()
        for k in range(100):
            assert_same_as_reference(0.5 + k / 200, 1.0, -0.5)
        info = _lgammas.cache_info()
        assert info.currsize <= info.maxsize == 32


class TestTableBoundaries:
    """The loop runs once per lgamma table (32, 64, 128, ... terms); a
    term cap at or next to a table's end changes no value and no error."""

    # (z, rel_tol, n): at alpha 0.6 the series stops at its n-th term, the
    # last or the first of a table
    AT_TABLE_ENDS = [(-1.0, 1e-16, 32), (-1.05, 1e-16, 33),
                     (-2.7, 1e-16, 64), (-2.75, 1e-16, 65),
                     (6.95, 1e-16, 129), (-1.35, 1e-12, 32),
                     (-1.4, 1e-12, 33), (-3.15, 1e-12, 64),
                     (-3.2, 1e-12, 65), (-6.0, 1e-12, 129)]
    ARGS = [(0.6, 1.0, z) for z in (
        -0.01, -0.5, -5.6, 2.0, 5.0, 7.85, 9.0)] \
        + [(0.6, 1.0, z) for z, _, _ in AT_TABLE_ENDS] \
        + [(0.75, 0.75, -3.0), (0.85, 1.85, -2.0), (2.0, 1.0, 30.0),
           (0.3, 1.0, -40.0)]

    @pytest.mark.parametrize("max_terms", [31, 32, 33, 63, 64, 65, 129])
    @pytest.mark.parametrize("rel_tol", [1e-16, 1e-12])
    def test_term_cap_at_table_ends(self, max_terms, rel_tol):
        _lgammas.cache_clear()
        for args in self.ARGS:
            assert_same_as_reference(*args, max_terms=max_terms,
                                     rel_tol=rel_tol)

    @pytest.mark.parametrize("z, rel_tol, n", AT_TABLE_ENDS)
    def test_series_lengths_sit_at_table_ends(self, z, rel_tol, n):
        # the caps above pin the boundaries only if these series need
        # exactly n terms
        mittag_leffler(0.6, 1.0, z, rel_tol=rel_tol, max_terms=n)
        with pytest.raises(MittagLefflerBudgetError, match="converge"):
            mittag_leffler(0.6, 1.0, z, rel_tol=rel_tol, max_terms=n - 1)


class TestNonFiniteArguments:
    @pytest.mark.parametrize("alpha, beta, z, name", [
        (math.nan, 1.0, -0.5, "alpha"),
        (math.inf, 1.0, -0.5, "alpha"),
        (0.7, math.nan, -0.5, "beta"),
        (0.7, math.inf, -0.5, "beta"),
        (0.7, 1.0, math.nan, "z"),
        (math.nan, 1.0, 0.0, "alpha"),    # before the z = 0 shortcut
    ])
    def test_value_error_names_the_argument(self, alpha, beta, z, name):
        with pytest.raises(ValueError, match=rf"\b{name}="):
            mittag_leffler(alpha, beta, z)

    @pytest.mark.parametrize("z", [math.inf, -math.inf])
    def test_infinite_z_stays_a_budget_error(self, z):
        with pytest.raises(MittagLefflerBudgetError):
            mittag_leffler(0.7, 1.0, z)
        assert_same_as_reference(0.7, 1.0, z)


class TestExpm:
    """``_expm`` gives ``scipy.linalg.expm``'s bits, and calls it only for
    an argument with a nonzero (or nan) entry off the diagonal."""

    DIAGONAL = [np.array([[-0.5]]), np.diag([-1.25, 0.0, 0.7]),
                np.zeros((3, 3)), -0.0 * np.eye(2), np.array([[np.nan]])]
    FULL = [np.array([[-1.0, 0.3], [0.0, -0.5]]),
            np.array([[-0.5, 0.2], [0.1, -0.3]]),
            np.array([[-0.5, np.nan], [0.0, -0.3]])]

    @pytest.fixture
    def scipy_calls(self, monkeypatch):
        calls = []
        expm = scipy.linalg.expm

        def counted(a):
            calls.append(a)
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counted)
        return calls

    @staticmethod
    def assert_scipy_bits(A, got):
        want = scipy.linalg.expm(A)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("A", DIAGONAL)
    def test_diagonal_skips_scipy(self, A, scipy_calls):
        got = _expm(A)
        assert scipy_calls == []
        self.assert_scipy_bits(A, got)

    @pytest.mark.parametrize("A", FULL)
    def test_off_diagonal_entry_calls_scipy(self, A, scipy_calls):
        got = _expm(A)
        assert len(scipy_calls) == 1
        self.assert_scipy_bits(A, got)

    def test_delay_semigroup_at_every_lag(self, scipy_calls):
        tree = Tree(N=12, T=1.0, m=1)
        dp = delay_lq_instance()
        S = dp.semigroup(tree)
        assert len(S) == tree.N + 1 and scipy_calls == []
        for lag, got in enumerate(S):
            self.assert_scipy_bits(lag * tree.dt * dp.M, got)
