"""Special functions used as oracles by the kernel and solver modules.

Three functions live here: the Gamma function (wrapping the platform
implementation behind a validated interface), the two-parameter
Mittag-Leffler function evaluated by its defining power series with
compensated summation, and the matrix exponential of the semigroup
builders, which loads ``scipy.linalg`` only for a non-diagonal argument.
"""
from __future__ import annotations

import functools
import math

import numpy as np


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
    Each lgamma table of :func:`_lgammas` (32, 64, ... terms) is fetched
    once, and a term's sign is read from the parity of k.

    Raises
    ------
    ValueError
        If alpha or beta is not a finite positive number, or z is nan.
    MittagLefflerBudgetError
        If the largest term exceeds ``term_budget`` (the alternating sum
        would lose all precision) or ``max_terms`` is reached before the
        tail becomes negligible; an infinite z ends here too.
    """
    for name, v in (("alpha", alpha), ("beta", beta)):
        if not 0.0 < v < math.inf:  # false for nan too
            raise ValueError(
                f"mittag_leffler requires a finite {name} > 0, got {name}={v}")
    if math.isnan(z):
        raise ValueError("mittag_leffler requires a number z, got z=nan")
    if z == 0.0:
        return 1.0 / gamma_fn(beta)
    if alpha == 1.0 and beta == 1.0:
        # exact exponential reduction; the alternating series would lose
        # exp(|z|) * eps of absolute precision for strongly negative z
        return math.exp(z)

    exp = math.exp
    log_abs_z = math.log(abs(z))
    alternating = z < 0

    total = 0.0
    comp = 0.0  # Kahan compensation
    log_budget = math.log(term_budget)
    lo = 0
    while lo < max_terms:
        lgammas = _lgammas(alpha, beta, max(32, 2 * lo))
        hi = min(len(lgammas), max_terms)
        for k in range(lo, hi):
            log_term = k * log_abs_z - lgammas[k]
            if log_term > log_budget:
                raise MittagLefflerBudgetError(
                    f"series term ~exp({log_term:.1f}) exceeds the "
                    f"cancellation budget at k={k}; reduce |z| (currently "
                    f"{abs(z):.3g})")
            magnitude = exp(log_term)
            y = (-magnitude if alternating and k & 1 else magnitude) - comp
            t = total + y
            comp = (t - total) - y
            total = t
            if k:
                floor = abs(total)
                if floor < 1e-300:
                    floor = 1e-300
                if magnitude <= rel_tol * floor:
                    return total
        lo = hi
    raise MittagLefflerBudgetError(
        f"series did not converge within {max_terms} terms for "
        f"alpha={alpha}, beta={beta}, z={z}")


def _expm(A) -> np.ndarray:
    """e^A of a real square matrix, bit for bit ``scipy.linalg.expm(A)``.

    An A with no nonzero entry off its diagonal takes scipy's own branch
    for a diagonal argument, the exponential of the diagonal, without
    loading scipy; every other A, a nan off the diagonal included, goes to
    ``scipy.linalg.expm``, imported here on first use.
    """
    a = np.asarray(A, dtype=float)
    if (a.ndim == 2 and a.shape[0] == a.shape[1]
            and np.count_nonzero(a) == np.count_nonzero(a.diagonal())):
        return np.diag(np.exp(np.diag(a)))
    from scipy.linalg import expm

    return expm(a)
