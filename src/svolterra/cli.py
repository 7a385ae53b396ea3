"""Experiment runner: kernel reports, solver runs, acceptance suite.

Subcommands
-----------
kernel    classify a configured kernel and write the report JSON
forward   solve a named forward problem (plus a resolution study)
backward  solve a named backward problem, dump Y/Z tables and residuals
control   duality / stationarity / optimizer reports for named instances
suite     run the acceptance criteria and emit a summary

Configs are JSON documents; every run writes a report whose content is a
deterministic function of (config, seed) apart from the timing block.
Exit code 0 means every requested check passed, 2 a config error and 3 a
solver error.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import acceptance as acc
from . import backward as bwd
from . import control as ctl
from . import delay as dly
from . import forward as fwd
from . import kernels as K
from . import registry as reg
from .lattice import Tree
from .special import MittagLefflerBudgetError, mittag_leffler


class ConfigError(ValueError):
    pass


METHODS = ("fixed_point", "block")
_MISSING = object()


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")


def _require(cfg, path, typ, predicate=None, what="", default=_MISSING):
    """The config value at dotted ``path``, checked; ``default`` when the
    field is missing and a default is given."""
    node = cfg
    for part in path.split(".")[:-1]:
        node = node.get(part, {}) if isinstance(node, dict) else {}
    key = path.split(".")[-1]
    if not isinstance(node, dict) or key not in node:
        if default is not _MISSING:
            return default
        raise ConfigError(f"config.{path}: missing ({what or typ.__name__})")
    val = node[key]
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, typ) or isinstance(val, bool):
        raise ConfigError(f"config.{path}: expected {typ.__name__}, "
                          f"got {type(val).__name__}")
    if predicate is not None and not predicate(val):
        raise ConfigError(f"config.{path}: invalid value {val!r} ({what})")
    return val


@contextlib.contextmanager
def _config_block(name):
    """Turn a TypeError or ValueError raised while building objects from
    config block ``name`` into a ConfigError naming the block."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.{name}: {exc}") from exc


def _out_dir(path):
    """The output directory ``path``, created if needed; a path that cannot
    be one is a ConfigError naming ``--out``."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path}: {exc}") from exc
    return out


def _known_keys(cfg, block, known=("N", "T", "m")):
    """Refuse a key of the dict ``cfg[block]`` outside ``known``."""
    node = cfg.get(block)
    unknown = sorted(set(node) - set(known)) if isinstance(node, dict) else []
    if unknown:
        raise ConfigError(f"config.{block}: unknown field(s) {unknown}; "
                          f"known: {sorted(known)}")


def _tree_from_config(cfg):
    _known_keys(cfg, "tree")
    N = _require(cfg, "tree.N", int, lambda v: v >= 1, "positive step count")
    T = _require(cfg, "tree.T", float, lambda v: v > 0, "positive horizon")
    m = _require(cfg, "tree.m", int, lambda v: v >= 0, "noise count >= 0",
                 default=1)
    with _config_block("tree"):
        return Tree(N=N, T=T, m=m)


def _match_noise(m, tree, what, where="tree.m"):
    """A config error at ``where`` unless ``what``, whose noise has ``m``
    coordinates, runs on a tree with the same m."""
    if m != tree.m:
        raise ConfigError(f"config.{where}: {what} has m = {m} noise "
                          f"coordinates, the tree has m = {tree.m}")


def _config_hash(cfg) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _report_skeleton(cfg, seed):
    return {
        "tool_version": __version__,
        "config_hash": _config_hash(cfg),
        "seed": seed,
        "inputs": cfg,
        "outputs": {},
        "residuals": {},
        "timings": {},
    }


def _write_report(report, out_dir, name):
    path = out_dir / name
    path.write_text(json.dumps(report, indent=2, sort_keys=True,
                               default=_json_default) + "\n")
    return path


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class _Budget:
    def __init__(self, seconds):
        self.start = time.perf_counter()
        self.seconds = seconds

    @property
    def exceeded(self):
        return self.seconds is not None and \
            time.perf_counter() - self.start > self.seconds


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_kernel(cfg, args):
    spec = _require(cfg, "kernel.name", str)
    eps_grid = tuple(float(eps) for eps in _require(
        cfg, "kernel.eps_grid", list, lambda v: v and all(
            isinstance(eps, (int, float)) and not isinstance(eps, bool)
            and eps > 0 for eps in v),
        "non-empty list of numbers > 0", default=K.DEFAULT_EPS_GRID))
    cap = _require(cfg, "kernel.cap", int, lambda v: v >= 1, "int >= 1",
                   default=K.DEFAULT_BREAKPOINT_CAP)
    with _config_block("kernel"):
        kern = K.kernel_from_config(cfg["kernel"])
    report = _report_skeleton(cfg, args.seed)
    budget = _Budget(args.budget_seconds)
    t0 = time.perf_counter()
    rep = K.classify(kern, eps_grid=eps_grid, cap=cap)
    report["timings"]["classify_s"] = time.perf_counter() - t0
    report["outputs"]["classification"] = rep.to_dict()
    if budget.exceeded:
        report["outputs"]["partial"] = True
    path = _write_report(report, args.out, f"kernel_{spec}.json")
    print(f"wrote {path}")
    return 0


def cmd_forward(cfg, args):
    name = _require(cfg, "forward.problem", str,
                    lambda v: v in reg.FORWARD_PROBLEMS,
                    f"one of {sorted(reg.FORWARD_PROBLEMS)}")
    _known_keys(cfg, "tree")  # the N_list study reads only tree.T
    T = _require(cfg, "tree.T", float, lambda v: v > 0, "positive horizon")
    params = {k: v for k, v in cfg["forward"].items() if k != "problem"}
    n_list = params.pop("N_list", None)
    if n_list is not None and not (isinstance(n_list, list) and all(
            isinstance(N, int) and not isinstance(N, bool) and N >= 1
            for N in n_list)):
        raise ConfigError(f"config.forward.N_list: invalid value {n_list!r} "
                          f"(list of step counts >= 1)")
    params.setdefault("horizon", T)
    report = _report_skeleton(cfg, args.seed)
    budget = _Budget(args.budget_seconds)

    if n_list:
        # resolution study on the deterministic m = 0 lattice, which has no
        # noise for a diffusion; every solve must pass its residual check,
        # and the sup error against the Mittag-Leffler reference (nan
        # without one) must be finite and fall
        rows = []
        prev_err = None
        residuals, failures = [], []
        for N in n_list:
            if budget.exceeded:
                report["outputs"]["partial"] = True
                break
            tree = Tree(N=N, T=T, m=0)
            with _config_block("forward"):
                problem = reg.FORWARD_PROBLEMS[name](**params)
            if problem.has_diffusion:
                _match_noise(problem.m, tree, name, "forward.N_list")
            ref = None
            if name == "fractional_relaxation":
                # before the solve, so an argument the reference refuses
                # is a config error, not a failed study
                alpha = params.get("alpha", 0.75)
                lam = params.get("lam", -1.0)
                with _config_block("forward"):
                    ref = [mittag_leffler(alpha, 1.0, lam * t ** alpha)
                           for t in tree.times]
            sol = fwd.solve_lattice(problem, tree)
            res = sol.diagnostics["residual"]
            residuals.append(res)
            if not res <= 1e-10:
                failures.append(f"N={N}: equation residual {res:.3g} fails "
                                f"the 1e-10 bound")
            if ref is not None:
                err = float(np.max(np.abs(
                    np.array([x[0, 0] for x in sol.X]) - ref)))
                if not math.isfinite(err):
                    failures.append(f"N={N}: sup error {err}")
                elif prev_err is not None and not err < prev_err:
                    failures.append(f"N={N}: NOT monotone")
                prev_err = err
            else:
                err = float("nan")
            rows.append([N, err])
        _write_csv(args.out / f"forward_{name}_convergence.csv",
                   ["N", "sup_error"], rows)
        report["outputs"]["convergence"] = {str(n): e for n, e in rows}
        if residuals:
            report["residuals"]["equation"] = float(np.max(residuals))
        ok, failure = not failures, "; ".join(failures)
    else:
        tree = _tree_from_config(cfg)
        with _config_block("forward"):
            problem = reg.FORWARD_PROBLEMS[name](**params)
        if problem.has_diffusion:
            _match_noise(problem.m, tree, name)
        sol = fwd.solve_lattice(problem, tree)
        res = sol.diagnostics["residual"]
        report["residuals"]["equation"] = res
        t0 = time.perf_counter()
        sol.X.dump_csv(args.out / f"forward_{name}_solution.csv")
        report["timings"]["tables_s"] = time.perf_counter() - t0
        ok = res <= 1e-10  # false for a nan residual
        failure = f"equation residual {res:.3g} fails the 1e-10 bound"

    _write_report(report, args.out, f"forward_{name}.json")
    print(f"forward {name}: {'ok' if ok else failure}")
    return 0 if ok else 1


def cmd_backward(cfg, args):
    name = _require(cfg, "backward.problem", str,
                    lambda v: v in reg.BACKWARD_PROBLEMS,
                    f"one of {sorted(reg.BACKWARD_PROBLEMS)}")
    tree = _tree_from_config(cfg)
    params = {k: v for k, v in cfg["backward"].items()
              if k not in ("problem", "method", "tol")}
    method = args.method or _require(
        cfg, "backward.method", str, lambda v: v in METHODS,
        f"one of {list(METHODS)}", default="fixed_point")
    tol = args.tol or _require(cfg, "backward.tol", float, lambda v: v > 0,
                               "positive tolerance", default=1e-12)
    report = _report_skeleton(cfg, args.seed)
    budget = _Budget(args.budget_seconds)
    t0 = time.perf_counter()
    with _config_block("backward"):
        problem = reg.BACKWARD_PROBLEMS[name](tree, **params)
    t1 = time.perf_counter()
    sol = bwd.solve_bsvie(problem, tree, method=method, tol=tol)
    t2 = time.perf_counter()
    report["timings"]["build_s"] = t1 - t0
    report["timings"]["solve_s"] = t2 - t1
    if budget.exceeded:
        report["outputs"]["partial"] = True
    report["residuals"]["m_condition"] = \
        sol.diagnostics["m_condition_residual"]
    report["residuals"]["equation"] = sol.diagnostics["equation_residual"]
    report["outputs"]["sweeps"] = sol.diagnostics["sweeps"]
    report["outputs"]["blocks"] = sol.diagnostics["blocks"]
    report["outputs"]["method"] = method
    report["outputs"]["bytes"] = sol.diagnostics["bytes"]
    t0 = time.perf_counter()
    sol.Y.dump_csv(args.out / f"backward_{name}_Y.csv")
    sol.Z.dump_csv(args.out / f"backward_{name}_Z.csv")
    report["timings"]["tables_s"] = time.perf_counter() - t0
    _write_report(report, args.out, f"backward_{name}.json")
    res = report["residuals"]
    # false for a nan residual
    ok = res["m_condition"] < 1e-10 and res["equation"] <= 1e-10
    print(f"backward {name} [{method}]: m-residual {res['m_condition']:.2e}, "
          f"equation residual {res['equation']:.2e}")
    return 0 if ok else 1


def _adjoint_checks(report, diag):
    """Copy an adjoint solve's two residuals, its bytes and its per-block
    sweeps (all ones: the adjoint takes one pass) into the control
    report."""
    report["residuals"]["m_condition"] = diag["m_condition_residual"]
    report["residuals"]["equation"] = diag["equation_residual"]
    report["outputs"]["adjoint_bytes"] = diag["bytes"]
    report["outputs"]["adjoint_sweeps"] = diag["sweeps"]


def cmd_control(cfg, args):
    name = _require(cfg, "control.instance", str,
                    lambda v: v in reg.CONTROL_INSTANCES,
                    f"one of {sorted(reg.CONTROL_INSTANCES)}")
    tree = _tree_from_config(cfg)
    _known_keys(cfg, "control", ("instance", "u0", "steps", "rate", "probes")
                + (() if name == "lq" else ("delta",)))
    steps, rate, probes = (200, 0.5, 16) if name == "lq" else (120, 0.4, 8)
    u0 = _require(cfg, "control.u0", float, math.isfinite, "finite number",
                  default=0.3)
    steps = _require(cfg, "control.steps", int, lambda v: v >= 1, "int >= 1",
                     default=steps)
    rate = _require(cfg, "control.rate", float, lambda v: v > 0,
                    "positive rate", default=rate)
    probes = _require(cfg, "control.probes", int, lambda v: v >= 0,
                      "int >= 0", default=probes)
    if name == "lq":
        cp = reg.lq_instance()
    else:
        delta = _require(cfg, "control.delta", float, lambda v: v > 0,
                         "positive delay", default=0.25)
        with _config_block("control"):
            dp = reg.delay_lq_instance(delta=delta)
            dp.delay_steps(tree)  # delta must sit on the time grid
    _match_noise((cp if name == "lq" else dp).m, tree, name)
    report = _report_skeleton(cfg, args.seed)
    budget = _Budget(args.budget_seconds)
    rng = np.random.default_rng(args.seed)
    u = ctl.constant_control(tree, [u0])
    ok = True

    if name == "lq":
        v = ctl.AdaptedProcess(tree, [0.5 * rng.normal(
            size=(tree.node_count(i), 1)) for i in range(tree.N + 1)])
        X = ctl.solve_state(cp, u, tree)
        adj = ctl.solve_adjoint(cp, X, u, tree)
        gap = ctl.duality_gap(cp, u, v, tree, state=X, adjoint=adj)
        # only the residuals and bytes are read from here on: release the
        # adjoint before the descent
        _adjoint_checks(report, adj.diagnostics)
        del adj
        u_bar, trace = ctl.projected_gradient_search(cp, u, tree, steps=steps,
                                                     rate=rate)
        margin = ctl.check_stationarity(cp, u_bar, tree, probe_count=probes,
                                        seed=args.seed)
        report["outputs"].update({
            "duality_gap": gap,
            "stationarity_margin": margin,
            "final_cost": trace["cost"][-1],
            "gradient_norms": trace["grad_norm"][-5:],
        })
        ok = gap <= 1e-10 and margin >= -1e-6
    else:
        u_star, trace = dly.delay_projected_gradient_search(
            dp, u, tree, steps=steps, rate=rate)
        traj = dly.solve_delay_state(dp, u_star, tree)
        adj = dly.solve_delay_adjoint(dp, traj, tree)
        margin = dly.delay_mp_check(dp, u_star, tree, probe_count=probes,
                                    seed=args.seed, traj=traj, adjoint=adj)
        _adjoint_checks(report, adj.solution.diagnostics)
        report["outputs"].update({
            "stationarity_margin": margin,
            "final_cost": trace["cost"][-1],
        })
        ok = margin >= -1e-6
    res = report["residuals"]
    # false for a nan residual
    ok = ok and res["m_condition"] <= 1e-12 and res["equation"] <= 1e-9
    if budget.exceeded:
        report["outputs"]["partial"] = True
    _write_report(report, args.out, f"control_{name}.json")
    print(f"control {name}: margin {report['outputs'].get('stationarity_margin'):.2e}")
    return 0 if ok else 1


def cmd_suite(cfg, args):
    _known_keys(cfg, "suite", ("criteria",))
    indices = _require(cfg, "suite.criteria", list, default=None)
    budget = _Budget(args.budget_seconds)
    results = []
    for crit in acc.ALL_CRITERIA:
        if indices is not None and crit.index not in indices:
            continue
        if budget.exceeded:
            print("budget exhausted; remaining criteria skipped")
            break
        res = crit()
        results.append(res)
        print(res.line)
    report = _report_skeleton(cfg, args.seed)
    report["outputs"]["criteria"] = [
        {"index": r.index, "name": r.name, "passed": r.passed,
         "details": r.details} for r in results]
    report["timings"]["per_criterion_s"] = {
        str(r.index): r.elapsed for r in results}
    report["outputs"]["all_passed"] = all(r.passed for r in results)
    report["outputs"]["partial"] = budget.exceeded
    _write_report(report, args.out, "suite.json")
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    return 0 if report["outputs"]["all_passed"] and results else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="svolterra",
        description="singular stochastic Volterra equation toolkit")
    parser.add_argument("--config", required=False, default=None,
                        help="path to the JSON experiment config")
    parser.add_argument("--out", default="reports",
                        help="output directory for reports and CSV tables "
                             "(CSV columns: see each table header)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget-seconds", type=float, default=None,
                        help="soft runtime budget; runs exceeding it "
                             "emit partial-result reports")
    parser.add_argument("--method", choices=METHODS,
                        default=None, help="backward solver method")
    parser.add_argument("--tol", type=float, default=None,
                        help="solver tolerance override")
    parser.add_argument("command",
                        choices=["kernel", "forward", "backward",
                                 "control", "suite"])
    return parser


_COMMANDS = {
    "kernel": cmd_kernel,
    "forward": cmd_forward,
    "backward": cmd_backward,
    "control": cmd_control,
    "suite": cmd_suite,
}


# failures of a solver on a valid config, Picard's subclasses too: exit code 3
SOLVER_ERRORS = (bwd.DivergenceError, bwd.BlockPartitionError,
                 K.QuadratureError, K.KernelEvalError, MittagLefflerBudgetError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config is not None else {}
        # an unusable --out fails here, before any solve
        args.out = _out_dir(args.out)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
