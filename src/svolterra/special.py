"""Scalar special functions used as oracles by the kernel and solver modules.

Only two functions live here: the Gamma function (wrapping the platform
implementation behind a validated interface) and the two-parameter
Mittag-Leffler function evaluated by its defining power series with
compensated summation.
"""
from __future__ import annotations

import functools
import math


class MittagLefflerBudgetError(RuntimeError):
    """Raised when the Mittag-Leffler series cannot be summed reliably.

    The caller should reduce the horizon or the rate so that |z| shrinks.
    """


def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments.

    Relative error is below 1e-12 on (0, 50]; arguments large enough to
    overflow a double return ``inf``.
    """
    if not x > 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=32)
def _lgammas(alpha: float, beta: float, n: int) -> tuple:
    """lgamma(alpha * k + beta) for k < n: the series' log denominators.

    The series asks for n = 32, 64, 128, ... as it goes; each table extends
    the cached one of half its length, so a call reuses what every earlier
    call with the same (alpha, beta) computed.  The cache holds at most 32
    tables, each at most twice as long as the longest series that used it.
    """
    head = _lgammas(alpha, beta, n // 2) if n > 32 else ()
    return head + tuple(math.lgamma(alpha * k + beta)
                        for k in range(len(head), n))


def mittag_leffler(alpha: float, beta: float, z: float,
                   rel_tol: float = 1e-16, max_terms: int = 2048,
                   term_budget: float = 1e15) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Sums z^k / Gamma(alpha*k + beta) in log space (so large intermediate
    factorials never overflow) with Kahan compensation, stopping once the
    term magnitude falls below ``rel_tol`` relative to the partial sum.

    Raises
    ------
    MittagLefflerBudgetError
        If the largest term exceeds ``term_budget`` (the alternating sum
        would lose all precision) or ``max_terms`` is reached before the
        tail becomes negligible.
    """
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("mittag_leffler requires alpha > 0 and beta > 0")
    if z == 0.0:
        return 1.0 / gamma_fn(beta)
    if alpha == 1.0 and beta == 1.0:
        # exact exponential reduction; the alternating series would lose
        # exp(|z|) * eps of absolute precision for strongly negative z
        return math.exp(z)

    log_abs_z = math.log(abs(z))
    sign_z = 1.0 if z > 0 else -1.0

    total = 0.0
    comp = 0.0  # Kahan compensation
    sign = 1.0
    log_budget = math.log(term_budget)
    prev_log_term = math.inf
    passed_peak = False
    lgammas = ()
    for k in range(max_terms):
        if k == len(lgammas):
            lgammas = _lgammas(alpha, beta, max(32, 2 * k))
        log_term = k * log_abs_z - lgammas[k]
        if log_term > log_budget:
            raise MittagLefflerBudgetError(
                f"series term ~exp({log_term:.1f}) exceeds the cancellation "
                f"budget at k={k}; reduce |z| (currently {abs(z):.3g})")
        if log_term < prev_log_term:
            passed_peak = True
        magnitude = math.exp(log_term)
        y = sign * magnitude - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if passed_peak and k > 0 and \
                magnitude <= rel_tol * max(abs(total), 1e-300):
            return total
        prev_log_term = log_term
        sign *= sign_z
    raise MittagLefflerBudgetError(
        f"series did not converge within {max_terms} terms for "
        f"alpha={alpha}, beta={beta}, z={z}")
