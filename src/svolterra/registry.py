"""Named example problems shared by the experiment runner and the tests;
the ``make_*`` builders are examples that no table lists by name."""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import backward as bwd
from . import control as ctl
from . import delay as dly
from . import forward as fwd
from . import kernels as K
from .lattice import TerminalField, Tree, terminal_from_function
from .special import _expm, gamma_fn, mittag_leffler


def _semigroup(M: np.ndarray) -> Callable:
    """lag -> e^{lag M}, each lag rounded to 12 digits and built once."""
    cache = {}

    def S(lag):
        key = round(float(lag), 12)
        if key not in cache:
            cache[key] = _expm(key * M)
        return cache[key]

    return S


# ---------------------------------------------------------------------------
# forward problems
# ---------------------------------------------------------------------------

def fractional_relaxation(alpha: float = 0.75, lam: float = -1.0,
                          horizon: float = 1.0, m: int = 0):
    """phi = 1, drift lam * lag^(alpha-1) x / Gamma(alpha), no noise."""
    kern = K.make_fractional(alpha, K.CAUSAL, horizon,
                             scale=1.0 / gamma_fn(alpha))
    return fwd.SVIEProblem(horizon, lambda t: np.array([1.0]), d=1, m=m,
                           drift_kernel=kern,
                           drift_factor=lambda s, x: lam * x,
                           label=f"fractional_relaxation(alpha={alpha})")


def linear_noisy(a: float = -0.8, b: float = 0.3, horizon: float = 1.0):
    kern = K.make_fractional(0.7, K.CAUSAL, horizon)
    return fwd.SVIEProblem(
        horizon, lambda t: np.array([1.0]), d=1, m=1,
        drift_kernel=kern, drift_factor=lambda s, x: a * x,
        diffusion=lambda t, s, x: (b * x)[:, :, None],
        lipschitz_K1=K.make_fractional(0.7, K.CAUSAL, horizon,
                                       scale=abs(a)),
        lipschitz_K2=K.make_constant(abs(b), horizon),
        label="linear_noisy")


FORWARD_PROBLEMS = {
    "fractional_relaxation": fractional_relaxation,
    "linear_noisy": linear_noisy,
}


def make_evolution_example(M: np.ndarray, Phi: Callable, Psi: Callable,
                           x0, horizon: float = 1.0,
                           m: int = 1) -> fwd.SVIEProblem:
    """Semigroup-driven evolution problem.

    X(t) = e^{tM} x0 + int_0^t e^{(t-s)M} Phi(s, X(s)) ds
                     + int_0^t e^{(t-s)M} Psi(s, X(s)) dW(s).
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    x0 = np.asarray(x0, dtype=float).reshape(d)
    S = _semigroup(M)

    def phi(t):
        return S(t) @ x0

    def drift(t, s, x):
        return np.einsum("ab,nb->na", S(t - s), Phi(s, x))

    def diffusion(t, s, x):
        return np.einsum("ab,nbk->nak", S(t - s), Psi(s, x))

    return fwd.SVIEProblem(horizon, phi, d=d, m=m, drift=drift,
                           diffusion=diffusion, label="evolution_semigroup")


def make_caputo_example(q: float, a: float, f: Optional[Callable],
                        g: Optional[Callable], x0: float,
                        horizon: float = 1.0, m: int = 1) -> fwd.SVIEProblem:
    """Scalar memory-derivative evolution problem in mild form.

    X(t) = E_q(a t^q) x0 + int_0^t (t-s)^{q-1} E_{q,q}(a (t-s)^q) f(s, X) ds
                         + int_0^t (t-s)^{q-1} E_{q,q}(a (t-s)^q) g(s, X) dW.

    The lag kernel has the closed antiderivative r^q E_{q,q+1}(a r^q), so
    its diagonal cells carry exact product weights.
    """
    if not 0.5 < q < 1.0:
        raise ValueError("q must lie in (1/2, 1)")

    def h(lag):
        lag = np.atleast_1d(np.asarray(lag, dtype=float))
        out = np.array([l ** (q - 1.0) * mittag_leffler(q, q, a * l ** q)
                        if l > 0 else math.inf for l in lag])
        return out if out.size > 1 else out[0]

    def H(r):
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.array([0.0 if x <= 0.0
                        else x ** q * mittag_leffler(q, q + 1.0, a * x ** q)
                        for x in arr])
        return out if np.ndim(r) else float(out[0])

    kern = K.make_convolution(h, horizon, K.CAUSAL, diag_exponent=1.0 - q,
                              h_antiderivative=H,
                              label=f"caputo_resolvent(q={q})")

    def phi(t):
        return np.array([mittag_leffler(q, 1.0, a * t ** q) * x0])

    return fwd.SVIEProblem(
        horizon, phi, d=1, m=m,
        drift_kernel=kern if f is not None else None,
        drift_factor=(lambda s, x: f(s, x)) if f is not None else None,
        diffusion_kernel=kern if g is not None else None,
        diffusion_factor=(lambda s, x: g(s, x)) if g is not None else None,
        l2_matched_diffusion=g is not None,
        label=f"caputo(q={q})")


# ---------------------------------------------------------------------------
# backward problems (criterion set: three singular generator families)
# ---------------------------------------------------------------------------

def _affine_term(kern, c_y, c_z1, c_z2):
    def fn(i, j, y, z1, z2):
        val = c_y * y
        term = np.multiply(c_z1, z1[:, :, 0:1].reshape(y.shape))
        val += term
        val += np.multiply(c_z2, z2[:, :, 0:1].reshape(y.shape), out=term)
        return val
    return bwd.GeneratorTerm(fn, kernel=kern)


def _need_noise(tree, label):
    """The registry generators read noise coordinate 0: refuse m < 1."""
    if tree.m < 1:
        raise ValueError(f"{label} reads noise coordinate 0, so it needs "
                         f"m >= 1; the tree has m = {tree.m}")


def _affine_problem(tree, alpha, psi_fn, coefs, lip_scale, label):
    """Affine generator with coefficients ``coefs`` = (c_y, c_z1, c_z2),
    weighted by the lag^(alpha-1) / Gamma(alpha) kernel, on the free term
    ``psi_fn(t, w)``; ``lip_scale(c)`` scales each Lipschitz kernel."""
    _need_noise(tree, label)
    kern = K.make_fractional(alpha, K.ANTICAUSAL, tree.T,
                             scale=1.0 / gamma_fn(alpha))
    L_y, L_z1, L_z2 = (K.make_fractional(alpha, K.ANTICAUSAL, tree.T,
                                         scale=lip_scale(c)) for c in coefs)
    return bwd.BSVIEProblem(terminal_from_function(tree, psi_fn),
                            [_affine_term(kern, *coefs)], L_y=L_y,
                            L_z1=L_z1, L_z2=L_z2, label=label)


def bsvie_fractional(tree: Tree, alpha: float = 0.7):
    """Affine generator weighted by the lag^(alpha-1) kernel."""
    return _affine_problem(tree, alpha,
                           lambda t, w: np.cos(w[:, 0] + 2.0 * t),
                           (-0.4, 0.2, 0.7),
                           lambda c: abs(c) / gamma_fn(alpha),
                           f"bsvie_fractional(alpha={alpha})")


def bsvie_fbm_rl(tree: Tree, H: float = 0.7):
    """Affine generator weighted by the lag^(H-1/2) kernel."""
    scale = 1.0 / gamma_fn(H + 0.5)
    return _affine_problem(tree, H + 0.5,
                           lambda t, w: np.sin(w[:, 0]) + 0.5 * t,
                           (-0.5, 0.25, 0.8), lambda c: abs(c) * scale,
                           f"bsvie_fbm_rl(H={H})")


def bsvie_caputo(tree: Tree, alpha: float = 0.75):
    """Memory-derivative BSDE with y- and z-Lipschitz kernels 1.2 and 0.15
    times its generator kernel."""
    _need_noise(tree, f"caputo_bsvie(alpha={alpha})")
    xi = np.tanh(tree.brownian(tree.N))
    A = 0.3 * np.eye(xi.shape[1])

    def f(s, y, z):
        return 0.25 * y + 0.15 * z[:, :, 0:1].reshape(y.shape)

    L_y, L_z2 = (K.make_fractional(alpha, K.ANTICAUSAL, tree.T,
                                   scale=c / gamma_fn(alpha))
                 for c in (1.2, 0.15))
    return _caputo_problem(alpha, A, f, xi, tree, L_y, L_z2)


BACKWARD_PROBLEMS = {
    "fractional_generator": bsvie_fractional,
    "fbm_rl_generator": bsvie_fbm_rl,
    "caputo": bsvie_caputo,
}


def _caputo_problem(alpha, A, f, xi, tree, L_y=None, L_z2=None):
    """The problem of :func:`make_caputo_bsde`; its L_y defaults to the
    generator kernel, which is also L_z1."""
    if not 0.5 < alpha < 1.0:
        raise ValueError("alpha must lie in (1/2, 1)")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        xi = xi[:, None]
    d = xi.shape[1]
    if A.shape != (d, d):
        raise ValueError(f"A has shape {A.shape}; the terminal value has "
                         f"d = {d} columns, so A must be {(d, d)}")
    kern = K.make_fractional(alpha, K.ANTICAUSAL, tree.T,
                             scale=1.0 / gamma_fn(alpha))
    t = tree.times

    def fn(i, j, y, z1, z2):
        val = np.einsum("ab,nb->na", A, y)
        np.negative(val, out=val)
        if f is not None:
            val += np.asarray(f(t[j], y, (t[j] - t[i]) ** (1.0 - alpha) * z1),
                              dtype=float)
        return val

    # one private array for every outer index: no code writes into a free
    # term, and the caller's xi stays theirs
    psi = TerminalField(tree, [xi.copy()] * (tree.N + 1))
    return bwd.BSVIEProblem(psi, [bwd.GeneratorTerm(fn, kernel=kern)],
                            L_y=L_y or kern, L_z1=kern, L_z2=L_z2,
                            label=f"caputo_bsvie(alpha={alpha})")


def make_caputo_bsde(alpha: float, A: np.ndarray, f: Optional[Callable],
                     xi, tree: Tree) -> bwd.BSVIEProblem:
    """Backward memory-derivative equation in Volterra form.

    The transformation absorbs the lag kernel into the integrand: the
    free term is the terminal value itself and the generator reads
    (s-t)^(alpha-1) [f(s, y, (s-t)^(1-alpha) z1) - A y] / Gamma(alpha);
    the rescaled z argument vanishes on the diagonal cell, where the
    kernel weight is an exact cell integral.
    """
    return _caputo_problem(alpha, A, f, xi, tree)


def make_linear_adjoint(M1: Callable, M2: Callable, S_kernel: Callable,
                        psi: TerminalField, kernel_y: K.Kernel = None,
                        kernel_z2: K.Kernel = None,
                        label: str = "linear_adjoint") -> bwd.BSVIEProblem:
    """Linear adjoint-type equation with semigroup-shaped coefficients.

    Generator M1(t)^T S(s-t)^T Y(s) + M2(t)^T S(s-t)^T Z(s, t); optional
    scalar kernels multiply the two pieces separately (used for the
    fractional-Brownian and memory-resolvent variants).
    """
    t = psi.tree.times

    def fn_y(i, j, y, z1, z2):
        P = (np.atleast_2d(S_kernel(t[j] - t[i])) @ np.atleast_2d(M1(t[i]))).T
        return np.einsum("ab,nb->na", P, y)

    def fn_z(i, j, y, z1, z2):
        # noise columns are contracted after the adjoint operator acts
        P = (np.atleast_2d(S_kernel(t[j] - t[i])) @ np.atleast_2d(M2(t[i]))).T
        return np.einsum("ab,nbk->na", P, z2)

    terms = [bwd.GeneratorTerm(fn_y, kernel=kernel_y),
             bwd.GeneratorTerm(fn_z, kernel=kernel_z2)]
    return bwd.BSVIEProblem(psi, terms, L_y=kernel_y, L_z2=kernel_z2,
                            label=label)


# ---------------------------------------------------------------------------
# control instances
# ---------------------------------------------------------------------------

def lq_instance(horizon: float = 1.0, a: float = 0.3, b0: float = 1.0,
                s0: float = 0.2, s1: float = 0.3, q: float = 1.0,
                r: float = 1.0, box: float = 2.0):
    """Scalar linear-quadratic instance with a box control region."""
    U = ctl.BoxControlSet((-box,), (box,))
    zeros = (0.0,)

    def b(t, s, x, u):
        return a * x + b0 * u

    def sigma(t, s, x, u):
        return (s0 * x + s1 * u)[:, :, None]

    return ctl.ControlProblem(
        horizon=horizon,
        phi=lambda t: np.array([1.0]),
        b=b, sigma=sigma,
        b_x=lambda t, s, x, u: np.full(x.shape + (1,), a),
        b_u=lambda t, s, x, u: np.full(x.shape + (1,), b0),
        sigma_x=lambda t, s, x, u: np.full(x.shape + (1, 1), s0),
        sigma_u=lambda t, s, x, u: np.full(x.shape + (1, 1), s1),
        g=lambda t, x, u: 0.5 * (q * x[:, 0] ** 2 + r * u[:, 0] ** 2),
        g_x=lambda t, x, u: q * x,
        g_u=lambda t, x, u: r * u,
        control_set=U, d=1, m=1,
        K1=K.make_constant(abs(a) + abs(b0), horizon),
        K2=K.make_constant(abs(s0) + abs(s1), horizon),
        label="lq")


def random_linear_instance(seed: int, horizon: float = 1.0):
    """Random linear coefficients with mild two-time dependence."""
    rng = np.random.default_rng(seed)
    a0, a1, b0, s0, s1, qx, ru = rng.uniform(-0.7, 0.7, size=7)
    ru = abs(ru) + 0.3
    qx = abs(qx) + 0.2

    def b(t, s, x, u):
        return (a0 + a1 * np.exp(-(t - s))) * x + b0 * u

    def b_x(t, s, x, u):
        return np.full(x.shape + (1,), a0 + a1 * np.exp(-(t - s)))

    return ctl.ControlProblem(
        horizon=horizon,
        phi=lambda t: np.array([1.0 + 0.5 * t]),
        b=b, sigma=lambda t, s, x, u: (s0 * x + s1 * u)[:, :, None],
        b_x=b_x,
        b_u=lambda t, s, x, u: np.full(x.shape + (1,), b0),
        sigma_x=lambda t, s, x, u: np.full(x.shape + (1, 1), s0),
        sigma_u=lambda t, s, x, u: np.full(x.shape + (1, 1), s1),
        g=lambda t, x, u: 0.5 * (qx * x[:, 0] ** 2 + ru * u[:, 0] ** 2),
        g_x=lambda t, x, u: qx * x,
        g_u=lambda t, x, u: ru * u,
        control_set=ctl.BoxControlSet((-3.0,), (3.0,)),
        d=1, m=1, label=f"random_linear(seed={seed})")


def delay_lq_instance(horizon: float = 1.0, delta: float = 0.25,
                      lam: float = 0.3, with_delay_terms: bool = True,
                      box: float = 50.0):
    """Scalar delay instance, quadratic cost, wide box (near-unconstrained).

    With ``with_delay_terms=False`` every delayed coupling (including the
    terminal cost) vanishes, which reduces the maximum condition to the
    delay-free one on the same data.
    """
    cy = 0.15 if with_delay_terms else 0.0
    cz = 0.1 if with_delay_terms else 0.0
    cmu = 0.2 if with_delay_terms else 0.0
    hy = 0.2 if with_delay_terms else 0.0
    # the delay-free counterpart is Lagrange-only, so its reduction
    # instance must drop the terminal cost altogether
    hx = 1.0 if with_delay_terms else 0.0
    M = np.array([[-0.5]])
    U = ctl.BoxControlSet((-box,), (box,))

    def b(t, x, y, z, u, mu):
        return 0.2 * x + cy * y + cz * z + 1.0 * u + cmu * mu

    def sigma(t, x, y, z, u, mu):
        return (0.1 * x + 0.25 * u)[:, :, None]

    def l(t, x, y, z, u, mu):
        return 0.5 * (x[:, 0] ** 2 + u[:, 0] ** 2) \
            + 0.5 * cy * y[:, 0] ** 2

    def h(x, y, z):
        return 0.5 * (hx * x[:, 0] ** 2 + hy * y[:, 0] ** 2)

    c = lambda v: (lambda *args: np.full(args[1].shape + (1,), v))
    cs = lambda v: (lambda *args: np.full(args[1].shape + (1, 1), v))

    return dly.DelayProblem(
        horizon=horizon, M=M, delta=delta, lam=lam,
        b=b, sigma=sigma,
        b_x=c(0.2), b_y=c(cy), b_z=c(cz), b_u=c(1.0), b_mu=c(cmu),
        sigma_x=cs(0.1), sigma_y=cs(0.0), sigma_z=cs(0.0),
        sigma_u=cs(0.25), sigma_mu=cs(0.0),
        l=l,
        l_x=lambda t, x, y, z, u, mu: x,
        l_y=lambda t, x, y, z, u, mu: cy * y,
        l_z=lambda t, x, y, z, u, mu: 0.0 * z,
        l_u=lambda t, x, y, z, u, mu: u,
        l_mu=lambda t, x, y, z, u, mu: 0.0 * mu,
        h=h,
        h_x=lambda x, y, z: hx * x,
        h_y=lambda x, y, z: hy * y,
        h_z=lambda x, y, z: 0.0 * z,
        xi=lambda t: np.array([1.0 + 0.5 * t]),
        eta=lambda t: np.array([0.0]),
        control_set=U, d=1, m=1,
        label="delay_lq" if with_delay_terms else "delay_lq_zero_delay")


def matched_volterra_instance(dp: dly.DelayProblem, horizon: float = 1.0):
    """The delay-free counterpart of a zero-delay-coefficient instance.

    State drift S(t-s) b(s, x, u) and the same running cost, posed as a
    plain controlled Volterra problem; used to cross-check the two
    maximum conditions on identical data.
    """
    S = _semigroup(dp.M)

    def frozen(fn):
        # fn(t, x, u) with the delayed state, window and control at zero
        def out(t, x, u):
            zn = np.zeros((x.shape[0], dp.d))
            return np.asarray(fn(t, x, zn, zn, u,
                                 np.zeros((x.shape[0], dp.du))), dtype=float)
        return out

    def lift(fn):
        # the mild-form Volterra coefficient S(t - s) fn(s, x, u)
        inner = frozen(fn)
        return lambda t, s, x, u: np.einsum("ab,nb...->na...", S(t - s),
                                            inner(s, x, u))

    return ctl.ControlProblem(
        horizon=horizon,
        phi=lambda t: (S(t) @ np.asarray(dp.xi(0.0),
                                         dtype=float).reshape(-1)),
        b=lift(dp.b), sigma=lift(dp.sigma), b_x=lift(dp.b_x),
        b_u=lift(dp.b_u), sigma_x=lift(dp.sigma_x), sigma_u=lift(dp.sigma_u),
        g=frozen(dp.l), g_x=frozen(dp.l_x), g_u=frozen(dp.l_u),
        control_set=dp.control_set, d=dp.d, m=dp.m,
        label="matched_volterra")


CONTROL_INSTANCES = {
    "lq": lq_instance,
    "delay_lq": delay_lq_instance,
}


# ---------------------------------------------------------------------------
# kernels by name (re-exported convenience)
# ---------------------------------------------------------------------------

kernel_from_config = K.kernel_from_config
