"""The four svolterra benchmark workloads.

Every workload is a closed loop with one client: a single process issues
the jobs of a *deck* one after another, each job starting when the previous
one has returned.  A deck is built from the seed and has a fixed size mix;
the seed only draws the problem parameters (alpha, H, cells, controls) and
the job order.  The timed loop runs whole decks, so every run measures the
stated mix.  A job's time includes its output check.  All jobs run at
m = 1 or m = 0; m = 2 is left out because tree representation is inexact
there and its checks would fail by construction.

Seeds: ``DEFAULT_SEED`` is the seed a run uses when none is given;
``HOLDOUT_SEED`` is the seed a performance change must also pass on without
having been tuned on it.

Workloads and why each was chosen
---------------------------------
Each deck's size mix is set so that the median and the 90th percentile of
job time over the deck fall inside one job class, not on a boundary between
classes, which keeps them steady across seeds.  Where they land is noted
below.

bsvie_mix (48 jobs a deck)
    ``solve_bsvie`` on the three ``registry.BACKWARD_PROBLEMS`` families,
    both methods on every instance at tol 1e-12, N from 8 to 16 with a
    thinning tail.  The tree's reduce primitives
    (``martingale_representation``, ``conditional_expectation``), the
    backward sweeps and the residual checks do nearly all the work.
    p50: N = 8-10 solves; p90: the N = 16 block solves.
control_adjoint (41 jobs a deck)
    ``control.duality_gap`` on ``lq_instance`` (N from 6 to 18) and
    ``random_linear_instance(seed)`` (N from 6 to 14) with seeded u and v,
    plus ``delay.solve_delay_state`` / ``solve_delay_adjoint`` /
    ``hamiltonian_gradients`` on ``delay_lq_instance`` (N a multiple of
    delta / dt).  The tree's expand primitives (``broadcast``,
    ``stochastic_integral``) carry the forward recursions and the adjoint
    coefficients, the adjoint sweeps are strictly upper triangular, and
    this workload holds the largest memory (the N = 18 job).  The N = 16
    jobs are all lq: the cost of a random instance depends on the seed, and
    p90 should not.
    p50: N = 8 duality gaps; p90: the N = 16 lq duality gaps.
kernel_det (20 jobs a deck)
    No tree nodes: ``kernels.classify`` on criterion-1 doubly-singular
    cells, ``kernels.find_partition`` on fractional kernels and the
    deterministic ``forward.solve_lattice`` (m = 0, N from 512 to 4096)
    checked against ``special.mittag_leffler``.  The bypass workload: a
    tree optimisation should predict no change here.  Heavy-tailed: the
    (0.4, 0) cell costs over a second, the other cells about 10 ms; it is
    run once a deck and lies beyond p90, so it shows in ``jobs_per_s``.
    p50: N = 512 lattice jobs; p90: N = 4096 lattice jobs.
cli_reports (28 jobs a deck)
    In-process ``cli.main`` on generated configs: ``backward`` with Y/Z CSV
    tables (N from 8 to 14), ``forward`` with tree dumps and ``N_list``
    studies, and ``kernel``.  Serialisation is a layer no other workload
    touches, so a solver gain should show here only diluted.
    p50: N = 8 backward runs; p90: N = 12 backward runs.

Layer -> end-to-end map
-----------------------
Which end-to-end metric each per-layer metric should move, and where:

=======================================================  ==================================
per-layer metric                                         end-to-end metric, workload
=======================================================  ==================================
lattice.martingale_representation.{calls,self_s,bytes}   job_s.p90, jobs_per_s: bsvie_mix;
lattice.conditional_expectation.{calls,self_s}           no change on kernel_det
lattice.broadcast.{calls,self_s,bytes}                   jobs_per_s, peak_rss_mb:
lattice.stochastic_integral.{calls,self_s,bytes}         control_adjoint
lattice.dump_csv.{calls,self_s}                          job_s.p50, job_s.p90: cli_reports
<layer>.self_s (module totals)                           wherever that layer's share is large
kernels.{cell,slice_sq,find_partition,classify}.*        jobs_per_s: kernel_det; block weights
                                                         and partitions in job_s.p90: bsvie_mix
special.mittag_leffler.{calls,self_s}                    job_s.p50, job_s.p90: kernel_det
forward.solve_lattice.{calls,self_s}                     all three: kernel_det
backward.solve_bsvie.{calls,self_s}                      job_s.p90, jobs_per_s: bsvie_mix
backward.equation_residual.{calls,self_s}                job_s.p90: bsvie_mix (28-35 % of a
                                                         block solve)
backward.m_condition_residual.{calls,self_s}             job_s.p90: bsvie_mix
backward.sweeps[.fixed_point|.block]                     bsvie_mix: sweeps at tol 1e-12
control.{solve_state,solve_variational,                  jobs_per_s, job_s.p90:
variational_forcing}.self_s, control.solve_adjoint.*,    control_adjoint
control.adjoint_sweeps                                   (a one-pass adjoint: 1 per block)
delay.{solve_delay_state,hamiltonian_gradients}.self_s,  jobs_per_s: control_adjoint
delay.solve_delay_adjoint.*, delay.adjoint_sweeps
registry.build_s                                         setup_s: every workload
cli.main.{calls,self_s}, cli.bytes_written               jobs_per_s, job_s.p50: cli_reports
trace.overhead                                           none: the cost of tracing itself
=======================================================  ==================================

``EXERCISED_BY`` names, for every per-layer metric but ``trace.overhead``,
the workload on which it must read above zero; ``selftest.py`` checks it.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

DEFAULT_SEED = 1
HOLDOUT_SEED = 2718

BSVIE_TOL = 1e-12
M_RESIDUAL_MAX = 1e-12
EQUATION_RESIDUAL_MAX = 1e-9
METHOD_AGREEMENT_MAX = 1e-8
DUALITY_GAP_MAX = 1e-10
MITTAG_LEFFLER_ERROR_MAX = 5e-3


class CheckFailed(Exception):
    """A job's output failed its correctness check."""


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    """One unit of client work.

    ``run()`` does the work and checks its output, raising on failure; it
    may return a dict of counters for the traced run.  ``cleanup()`` runs
    after the job's time was taken.
    """

    kind: str
    N: int
    label: str
    run: Callable[[], Optional[dict]]
    cleanup: Optional[Callable[[], None]] = None


def _stratified(rng, lo, hi, count):
    """One uniform draw per equal-width stratum of [lo, hi), shuffled."""
    edges = lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) \
        / count
    return [float(x) for x in rng.permutation(edges)]


def _expand(sizes):
    return [N for N, count in sizes.items() for _ in range(count)]


def _random_process(sv, tree, rng, scale):
    return sv.lattice.AdaptedProcess(tree, [
        scale * rng.normal(size=(tree.node_count(i), 1))
        for i in range(tree.N + 1)])


# ---------------------------------------------------------------------------
# bsvie_mix
# ---------------------------------------------------------------------------

# instances per family; each instance is solved by both methods
BSVIE_SIZES = {8: 3, 9: 1, 10: 2, 12: 1, 16: 1}
BSVIE_PARAMS = {
    "fractional_generator": (0.74, 0.80),   # alpha
    "fbm_rl_generator": (0.65, 0.75),       # H
    "caputo": (0.72, 0.82),                 # alpha
}


def _max_gap(a, b, tree):
    gap = max(float(np.max(np.abs(a.Y[i] - b.Y[i])))
              for i in range(tree.N + 1))
    return max(gap, max(float(np.max(np.abs(a.Z.entry(i, j)
                                            - b.Z.entry(i, j))))
                        for i in range(tree.N + 1) for j in range(tree.N)))


def _solve_bsvie(sv, problem, tree, method, pair):
    if method == "fixed_point":
        pair.clear()
    sol = sv.backward.solve_bsvie(problem, tree, method=method,
                                  tol=BSVIE_TOL)
    diag = sol.diagnostics
    _check(diag["m_condition_residual"] < M_RESIDUAL_MAX,
           f"m-condition residual {diag['m_condition_residual']:.2e}")
    _check(diag["equation_residual"] < EQUATION_RESIDUAL_MAX,
           f"equation residual {diag['equation_residual']:.2e}")
    if method == "fixed_point":
        pair["fixed_point"] = sol
    elif "fixed_point" in pair:
        gap = _max_gap(pair.pop("fixed_point"), sol, tree)
        _check(gap <= METHOD_AGREEMENT_MAX,
               f"fixed_point and block differ by {gap:.2e}")


def build_bsvie_mix(sv, seed, out_dir):
    rng = np.random.default_rng(seed)
    instances = []
    for family, (lo, hi) in BSVIE_PARAMS.items():
        sizes = _expand(BSVIE_SIZES)
        for N, param in zip(sizes, _stratified(rng, lo, hi, len(sizes))):
            tree = sv.lattice.Tree(N=N, T=1.0, m=1)
            problem = sv.registry.BACKWARD_PROBLEMS[family](tree, param)
            instances.append((family, param, tree, problem))
    jobs = []
    for k in rng.permutation(len(instances)):
        family, param, tree, problem = instances[k]
        pair = {}
        for method in ("fixed_point", "block"):
            jobs.append(Job(
                f"solve_bsvie.{method}", tree.N,
                f"{family}({param:.4f}) N={tree.N} {method}",
                partial(_solve_bsvie, sv, problem, tree, method, pair)))
    return jobs


# ---------------------------------------------------------------------------
# control_adjoint
# ---------------------------------------------------------------------------

# duality jobs per kind: sizes and their counts
DUALITY_SIZES = {
    "lq": {6: 4, 8: 8, 10: 1, 12: 1, 14: 1, 16: 4, 18: 1},
    "random": {6: 5, 8: 8, 10: 1, 12: 1, 14: 1},
}
DELAY_SIZES = {4: 3, 8: 1, 12: 1}  # N a multiple of delta / dt = 4
DELAY_DELTA = 0.25
DELAY_LAM = (0.2, 0.4)


def _duality(sv, cp, u, v, tree):
    gap = sv.control.duality_gap(cp, u, v, tree)
    _check(gap <= DUALITY_GAP_MAX, f"duality gap {gap:.2e}")


def _delay(sv, dp, u, tree):
    traj = sv.delay.solve_delay_state(dp, u, tree)
    adj = sv.delay.solve_delay_adjoint(dp, traj, tree)
    res = adj.solution.diagnostics["m_condition_residual"]
    _check(res < M_RESIDUAL_MAX, f"delay adjoint m-condition residual "
                                 f"{res:.2e}")
    Gu, Gmu = sv.delay.hamiltonian_gradients(dp, traj, adj, tree)
    _check(all(np.all(np.isfinite(Gu[r])) and np.all(np.isfinite(Gmu[r]))
               for r in range(tree.N + 1)), "non-finite Hamiltonian gradient")


def build_control_adjoint(sv, seed, out_dir):
    rng = np.random.default_rng(seed)
    jobs = []
    for kind, N in [(kind, N) for kind, sizes in DUALITY_SIZES.items()
                    for N in _expand(sizes)]:
        tree = sv.lattice.Tree(N=N, T=1.0, m=1)
        if kind == "lq":
            cp, label = sv.registry.lq_instance(), "lq"
        else:
            inst = int(rng.integers(1 << 16))
            cp = sv.registry.random_linear_instance(inst)
            label = f"random_linear({inst})"
        u = _random_process(sv, tree, rng, 0.5)
        v = _random_process(sv, tree, rng, 0.5)
        jobs.append(Job("duality_gap", N, f"{label} N={N}",
                        partial(_duality, sv, cp, u, v, tree)))
    lams = _stratified(rng, *DELAY_LAM, sum(DELAY_SIZES.values()))
    for N, lam in zip(_expand(DELAY_SIZES), lams):
        tree = sv.lattice.Tree(N=N, T=1.0, m=1)
        dp = sv.registry.delay_lq_instance(delta=DELAY_DELTA, lam=lam)
        u = _random_process(sv, tree, rng, 0.3)
        jobs.append(Job("delay_adjoint", N, f"delay_lq(lam={lam:.4f}) N={N}",
                        partial(_delay, sv, dp, u, tree)))
    return [jobs[k] for k in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# kernel_det
# ---------------------------------------------------------------------------

CLASSIFY_GRID = (0.0, 0.1, 0.2, 0.3, 0.4)
CLASSIFY_EPS = (2.0, 1.0)
CLASSIFY_HEAVY = (0.4, 0.0)     # the slow cell, once per deck
CLASSIFY_LIGHT_COUNT = 7        # other cells, drawn without replacement
PARTITION_ALPHA = (0.80, 0.95)
PARTITION_EPS = (0.5, 0.25)     # one job each
LATTICE_SIZES = {512: 6, 1024: 1, 2048: 1, 4096: 2}
LATTICE_ALPHA = (0.6, 0.9)
LATTICE_LAM = -1.0


def _classify(sv, alpha, beta):
    kernel = sv.kernels.make_doubly_singular(alpha, beta, horizon=1.0)
    rep = sv.kernels.classify(kernel, eps_grid=CLASSIFY_EPS)
    _check(rep.in_L2, f"({alpha}, {beta}) not in L2")
    _check(rep.in_scriptL2 == (beta == 0.0),
           f"({alpha}, {beta}) in_scriptL2 = {rep.in_scriptL2}")


def _partition(sv, kernel, eps):
    part = sv.kernels.find_partition(kernel, eps)
    _check(isinstance(part, sv.kernels.Partition),
           f"partition infeasible ({getattr(part, 'reason', '?')})")
    _check(part.breakpoints[0] == 0.0 and part.breakpoints[-1] == 1.0,
           "partition does not cover [0, T]")
    bad = sv.kernels.reverify_partition(kernel, part, eps)
    _check(bad is None, f"interval {bad} fails re-verification")


def _lattice(sv, alpha, N):
    tree = sv.lattice.Tree(N=N, T=1.0, m=0)
    problem = sv.registry.fractional_relaxation(alpha, LATTICE_LAM)
    sol = sv.forward.solve_lattice(problem, tree)
    ml = sv.special.mittag_leffler
    err = max(abs(sol.X[i][0, 0] - ml(alpha, 1.0,
                                      LATTICE_LAM * tree.times[i] ** alpha))
              for i in range(N + 1))
    _check(err <= MITTAG_LEFFLER_ERROR_MAX, f"sup error {err:.2e}")


def build_kernel_det(sv, seed, out_dir):
    rng = np.random.default_rng(seed)
    light = [(a, b) for a in CLASSIFY_GRID for b in CLASSIFY_GRID
             if (a, b) != CLASSIFY_HEAVY]
    cells = [CLASSIFY_HEAVY] + [
        light[k] for k in rng.choice(len(light), CLASSIFY_LIGHT_COUNT,
                                     replace=False)]
    jobs = [Job("classify.slow_cell" if cell == CLASSIFY_HEAVY
                else "classify", 0, f"doubly_singular{cell}",
                partial(_classify, sv, *cell)) for cell in cells]
    for eps, alpha in zip(PARTITION_EPS, _stratified(
            rng, *PARTITION_ALPHA, len(PARTITION_EPS))):
        kernel = sv.kernels.make_fractional(alpha, sv.kernels.ANTICAUSAL,
                                            1.0)
        jobs.append(Job("find_partition", 0,
                        f"fractional({alpha:.4f}) eps={eps}",
                        partial(_partition, sv, kernel, eps)))
    for N, count in LATTICE_SIZES.items():
        for alpha in _stratified(rng, *LATTICE_ALPHA, count):
            jobs.append(Job("solve_lattice", N,
                            f"fractional_relaxation({alpha:.4f}) N={N}",
                            partial(_lattice, sv, alpha, N)))
    return [jobs[k] for k in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# cli_reports
# ---------------------------------------------------------------------------

CLI_BACKWARD_SIZES = {8: 6, 10: 3, 12: 3, 14: 1}
CLI_METHODS = ("fixed_point", "block")
CLI_TREE_DUMP_SIZES = (6, 8, 9, 10, 11, 12)
CLI_N_LISTS = ([32, 64, 128], [64, 128, 256], [64, 128, 256, 512])
CLI_KERNEL_COUNT = 6


def _csv_rows(path):
    return path.read_bytes().count(b"\n") - 1    # minus the header line


def _cli(sv, config_path, job_dir, command, expect):
    shutil.rmtree(job_dir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = sv.cli.main(["--config", str(config_path), "--out",
                          str(job_dir), command])
    _check(rc == 0, f"exit code {rc}")
    for name in expect["reports"]:
        report = json.loads((job_dir / name).read_text())
        check = expect.get("report_check")
        if check is not None:
            check(report)
    for name, rows in expect["csv_rows"].items():
        got = _csv_rows(job_dir / name)
        _check(got == rows, f"{name}: {got} rows, expected {rows}")
    return {"cli.bytes_written": sum(p.stat().st_size
                                     for p in job_dir.iterdir())}


def _check_backward_report(report):
    res = report["residuals"]
    _check(res["m_condition"] < M_RESIDUAL_MAX,
           f"m-condition residual {res['m_condition']:.2e}")
    _check(res["equation"] < EQUATION_RESIDUAL_MAX,
           f"equation residual {res['equation']:.2e}")


def _check_kernel_report(beta, report):
    cls = report["outputs"]["classification"]
    _check(cls["in_L2"] and cls["in_scriptL2"] == (beta == 0.0),
           f"verdicts in_L2={cls['in_L2']} in_scriptL2={cls['in_scriptL2']}")


def build_cli_reports(sv, seed, out_dir):
    rng = np.random.default_rng(seed)
    base = Path(out_dir) / f"cli_reports-{seed}"
    shutil.rmtree(base, ignore_errors=True)
    (base / "configs").mkdir(parents=True)
    specs = []
    families = list(BSVIE_PARAMS)
    sizes = _expand(CLI_BACKWARD_SIZES)
    for k, N in enumerate(sizes):
        family = families[k % len(families)]
        method = CLI_METHODS[k % len(CLI_METHODS)]
        param = float(rng.uniform(*BSVIE_PARAMS[family]))
        key = "H" if family == "fbm_rl_generator" else "alpha"
        cfg = {"tree": {"N": N, "T": 1.0},
               "backward": {"problem": family, key: param,
                            "method": method, "tol": BSVIE_TOL}}
        expect = {"reports": [f"backward_{family}.json"],
                  "report_check": _check_backward_report,
                  "csv_rows": {f"backward_{family}_Y.csv": 2 ** (N + 1) - 1,
                               f"backward_{family}_Z.csv":
                                   (N + 1) * (2 ** N - 1)}}
        specs.append(("backward", N, f"{family}({param:.4f}) N={N} {method}",
                      cfg, expect))
    for N in CLI_TREE_DUMP_SIZES:
        cfg = {"tree": {"N": N, "T": 1.0},
               "forward": {"problem": "linear_noisy"}}
        expect = {"reports": ["forward_linear_noisy.json"],
                  "csv_rows": {"forward_linear_noisy_solution.csv":
                               2 ** (N + 1) - 1}}
        specs.append(("forward", N, f"linear_noisy N={N}", cfg, expect))
    for n_list in CLI_N_LISTS:
        alpha = float(rng.uniform(*LATTICE_ALPHA))
        cfg = {"tree": {"N": 8, "T": 1.0},
               "forward": {"problem": "fractional_relaxation",
                           "alpha": alpha, "lam": LATTICE_LAM,
                           "N_list": n_list}}
        expect = {"reports": ["forward_fractional_relaxation.json"],
                  "csv_rows": {"forward_fractional_relaxation_convergence"
                               ".csv": len(n_list)}}
        specs.append(("forward", max(n_list),
                      f"fractional_relaxation({alpha:.4f}) N_list={n_list}",
                      cfg, expect))
    light = [(a, b) for a in CLASSIFY_GRID for b in CLASSIFY_GRID
             if (a, b) != CLASSIFY_HEAVY]
    for k in rng.choice(len(light), CLI_KERNEL_COUNT, replace=False):
        alpha, beta = light[k]
        cfg = {"kernel": {"name": "doubly_singular", "alpha": alpha,
                          "beta": beta, "eps_grid": list(CLASSIFY_EPS)}}
        expect = {"reports": ["kernel_doubly_singular.json"],
                  "report_check": partial(_check_kernel_report, beta),
                  "csv_rows": {}}
        specs.append(("kernel", 0, f"doubly_singular({alpha}, {beta})",
                      cfg, expect))
    jobs = []
    for k in rng.permutation(len(specs)):
        command, N, label, cfg, expect = specs[k]
        config_path = base / "configs" / f"job{k}.json"
        config_path.write_text(json.dumps(cfg))
        job_dir = base / f"job{k}"
        jobs.append(Job(f"cli.{command}", N, label,
                        partial(_cli, sv, config_path, job_dir, command,
                                expect),
                        partial(shutil.rmtree, job_dir, True)))
    return jobs


WORKLOADS = {
    "bsvie_mix": build_bsvie_mix,
    "control_adjoint": build_control_adjoint,
    "kernel_det": build_kernel_det,
    "cli_reports": build_cli_reports,
}

# per-layer metric (or prefix of metric names) -> the workload that must
# move it; see the layer -> end-to-end map above
EXERCISED_BY = {
    "lattice.martingale_representation": "bsvie_mix",
    "lattice.conditional_expectation": "bsvie_mix",
    "lattice.broadcast": "control_adjoint",
    "lattice.stochastic_integral": "control_adjoint",
    "lattice.dump_csv": "cli_reports",
    "kernels.cell": "kernel_det",
    "kernels.slice_sq": "kernel_det",
    "kernels.find_partition": "kernel_det",
    "kernels.classify": "kernel_det",
    "special.mittag_leffler": "kernel_det",
    "forward.solve_lattice": "kernel_det",
    "backward.solve_bsvie": "bsvie_mix",
    "backward.equation_residual": "bsvie_mix",
    "backward.m_condition_residual": "bsvie_mix",
    "backward.sweeps": "bsvie_mix",
    "control.solve_state": "control_adjoint",
    "control.solve_variational": "control_adjoint",
    "control.variational_forcing": "control_adjoint",
    "control.solve_adjoint": "control_adjoint",
    "control.adjoint_sweeps": "control_adjoint",
    "delay.solve_delay_state": "control_adjoint",
    "delay.solve_delay_adjoint": "control_adjoint",
    "delay.adjoint_sweeps": "control_adjoint",
    "delay.hamiltonian_gradients": "control_adjoint",
    "cli.main": "cli_reports",
    "cli.bytes_written": "cli_reports",
    "registry.build_s": "bsvie_mix",
    "lattice.self_s": "bsvie_mix",
    "kernels.self_s": "kernel_det",
    "special.self_s": "kernel_det",
    "forward.self_s": "kernel_det",
    "backward.self_s": "bsvie_mix",
    "control.self_s": "control_adjoint",
    "delay.self_s": "control_adjoint",
    "registry.self_s": "kernel_det",
    "cli.self_s": "cli_reports",
}

# svolterra modules each workload imports besides the package itself
EXTRA_IMPORTS = {"cli_reports": ("svolterra.cli",)}


def mix(jobs):
    """The size mix of a deck: sorted (kind, N) pairs with their counts."""
    counts = {}
    for job in jobs:
        counts[(job.kind, job.N)] = counts.get((job.kind, job.N), 0) + 1
    return sorted(counts.items())
