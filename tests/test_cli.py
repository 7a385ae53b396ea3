import json
import math
import weakref

import numpy as np
import pytest

from svolterra import cli


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kernel": \n  nope}')
        with pytest.raises(cli.ConfigError, match=r":2:"):
            cli._load_config(str(path))

    def test_missing_field_path_precise(self, tmp_path):
        cfg = write_config(tmp_path, {"backward": {"problem": "caputo"}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "backward"])
        assert rc == 2

    def test_unknown_problem_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {
            "tree": {"N": 4, "T": 1.0},
            "backward": {"problem": "nope"}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "backward"])
        assert rc == 2

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["--config", str(tmp_path / "missing.json"),
                       "--out", str(tmp_path), "backward"])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err

    def test_tree_storage_budget_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "tree": {"N": 30, "T": 1.0},
            "backward": {"problem": "fractional_generator"}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "backward"])
        assert rc == 2
        assert "storage budget" in capsys.readouterr().err


    def test_forward_study_rejects_nonpositive_step_count(self, tmp_path,
                                                           capsys):
        cfg = write_config(tmp_path, {
            "tree": {"N": 8, "T": 1.0},
            "forward": {"problem": "fractional_relaxation",
                        "N_list": [16, 0]}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "forward"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "N_list" in err

    def test_solver_failure_exits_three(self, tmp_path, capsys):
        # the Mittag-Leffler reference of the resolution study runs out of
        # series budget at lam = -100
        cfg = write_config(tmp_path, {
            "tree": {"N": 8, "T": 1.0},
            "forward": {"problem": "fractional_relaxation", "alpha": 0.5,
                        "lam": -100, "N_list": [16, 32]}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "forward"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: MittagLefflerBudgetError: ")

    def test_forward_study_requires_tree_horizon(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "forward": {"problem": "fractional_relaxation",
                        "N_list": [16, 32]}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "forward"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "tree.T" in err


class TestConfigErrorsExitTwo:
    """Unusable --out paths and wrongly typed or unknown fields are config
    errors: exit 2 with a `config error:` line, not a traceback."""

    TREE = {"N": 4, "T": 1.0}

    @staticmethod
    def run(tmp_path, capsys, command, cfg, out=None):
        path = write_config(tmp_path, cfg)
        rc = cli.main(["--config", path, "--out", str(out or tmp_path),
                       command])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg", [
        ("backward", {"tree": TREE, "backward": {
            "problem": "fractional_generator", "alpha": "x"}}),
        ("backward", {"tree": TREE, "backward": {
            "problem": "fractional_generator", "bogus": 1}}),
        ("forward", {"tree": TREE, "forward": {
            "problem": "linear_noisy", "bogus": 1}}),
        ("forward", {"tree": TREE, "forward": {
            "problem": "fractional_relaxation", "alpha": math.inf,
            "N_list": [8, 16]}}),
        ("forward", {"tree": TREE, "forward": {
            "problem": "fractional_relaxation", "alpha": math.inf}}),
        ("forward", {"tree": TREE, "forward": {
            "problem": "fractional_relaxation", "alpha": math.nan}}),
        ("backward", {"tree": TREE, "backward": {
            "problem": "fractional_generator", "tol": "abc"}}),
        ("backward", {"tree": TREE, "backward": {
            "problem": "fractional_generator", "method": "zzz"}}),
        ("control", {"tree": TREE, "control": {
            "instance": "lq", "steps": "x"}}),
        ("control", {"tree": TREE, "control": {
            "instance": "delay_lq", "delta": "x"}}),
        ("kernel", {"kernel": {
            "name": "doubly_singular", "alpha": "x", "beta": 0.0}}),
        ("kernel", {"kernel": {
            "name": "doubly_singular", "alpha": 0.2, "beta": 0.0,
            "eps_grid": "x"}}),
        ("kernel", {"kernel": {
            "name": "doubly_singular", "alpha": 0.2, "beta": 0.0,
            "cap": "x"}}),
    ], ids=["backward.alpha", "backward.bogus", "forward.bogus",
            "forward.alpha_inf", "forward.alpha_inf_one_tree",
            "forward.alpha_nan_one_tree",
            "backward.tol", "backward.method", "control.steps",
            "control.delta", "kernel.alpha", "kernel.eps_grid",
            "kernel.cap"])
    def test_bad_field(self, tmp_path, capsys, command, cfg):
        rc, err = self.run(tmp_path, capsys, command, cfg)
        assert rc == 2
        assert err.startswith("config error:")
        assert f"config.{command}" in err

    @pytest.mark.parametrize("command, cfg, message", [
        ("backward", {"tree": {"N": 4, "T": 1.0, "bogus": 1},
                      "backward": {"problem": "fractional_generator"}},
         "config.tree: unknown field(s) ['bogus']"),
        ("forward", {"tree": {"N": 8, "T": 1.0, "bogus": 1},
                     "forward": {"problem": "fractional_relaxation",
                                 "N_list": [16, 32]}},
         "config.tree: unknown field(s) ['bogus']"),
        ("control", {"tree": TREE, "control": {
            "instance": "lq", "probes": 4, "stepz": 5}},
         "config.control: unknown field(s) ['stepz']"),
        ("suite", {"suite": {"criteria": [4], "bogus": 1}},
         "config.suite: unknown field(s) ['bogus']"),
        ("backward", {"tree": {"N": 4, "T": 1.0, "m": 1.5},
                      "backward": {"problem": "fractional_generator"}},
         "config.tree.m: expected int, got float"),
        ("backward", {"tree": {"N": 4, "T": 1.0, "m": -1},
                      "backward": {"problem": "fractional_generator"}},
         "config.tree.m: invalid value -1"),
        ("backward", {"tree": {"N": True, "T": 1.0},
                      "backward": {"problem": "fractional_generator"}},
         "config.tree.N: expected int, got bool"),
        ("control", {"tree": TREE, "control": {
            "instance": "lq", "delta": 0.5}},
         "config.control: unknown field(s) ['delta']"),
        ("suite", {"suite": {"criteria": "x"}},
         "config.suite.criteria: expected list, got str"),
        ("control", {"tree": TREE, "control": {
            "instance": "lq", "steps": 2.5, "probes": True}},
         "config.control.steps: expected int, got float"),
        ("control", {"tree": TREE, "control": {
            "instance": "lq", "probes": True}},
         "config.control.probes: expected int, got bool"),
        ("control", {"tree": TREE, "control": {
            "instance": "lq", "steps": 0}},
         "config.control.steps: invalid value 0"),
        ("control", {"tree": TREE, "control": {
            "instance": "lq", "probes": -1}},
         "config.control.probes: invalid value -1"),
        ("control", {"tree": TREE, "control": {
            "instance": "lq", "rate": 0}},
         "config.control.rate: invalid value 0.0"),
        ("control", {"tree": TREE, "control": {
            "instance": "lq", "u0": math.inf}},
         "config.control.u0: invalid value inf"),
        ("control", {"tree": TREE, "control": {
            "instance": "delay_lq", "delta": -0.25}},
         "config.control.delta: invalid value -0.25"),
        ("control", {"tree": TREE, "control": {
            "instance": "delay_lq", "delta": 0.3}},
         "config.control: delta = 0.3 is not a grid multiple"),
        ("kernel", {"kernel": {
            "name": "doubly_singular", "alpha": 0.2, "beta": 0.0,
            "cap": 7.9}},
         "config.kernel.cap: expected int, got float"),
        ("kernel", {"kernel": {
            "name": "doubly_singular", "alpha": 0.2, "beta": 0.0,
            "cap": 0}},
         "config.kernel.cap: invalid value 0"),
        ("kernel", {"kernel": {
            "name": "doubly_singular", "alpha": 0.2, "beta": 0.0,
            "eps_grid": [-1.0]}},
         "config.kernel.eps_grid: invalid value [-1.0]"),
        ("kernel", {"kernel": {
            "name": "doubly_singular", "alpha": 0.2, "beta": 0.0,
            "eps_grid": []}},
         "config.kernel.eps_grid: invalid value []"),
        ("kernel", {"kernel": {
            "name": "doubly_singular", "alpha": 0.2, "beta": 0.0,
            "eps_grid": [1.0, True]}},
         "config.kernel.eps_grid: invalid value [1.0, True]"),
        ("kernel", {"kernel": {
            "name": "exp_sum", "weights": [1.0], "rates": [math.nan]}},
         "config.kernel: rates must be finite, got [nan]"),
        ("kernel", {"kernel": {
            "name": "exp_sum", "weights": [math.inf], "rates": [1.0]}},
         "config.kernel: weights must be finite, got [inf]"),
        ("kernel", {"kernel": {
            "name": "exp_sum", "weights": [1.0], "rates": [-800]}},
         "config.kernel: a completely monotone sum needs nonnegative "
         "rates, got [-800.0]"),
        ("kernel", {"kernel": {"name": "constant", "value": math.nan}},
         "config.kernel: value must be nonnegative and finite, got nan"),
        ("kernel", {"kernel": {"name": "constant", "value": math.inf}},
         "config.kernel: value must be nonnegative and finite, got inf"),
        ("kernel", {"kernel": {
            "name": "fractional", "alpha": 0.6, "T": math.inf}},
         "config.kernel: horizon must be positive and finite, got inf"),
    ], ids=["tree.bogus", "tree.bogus_N_list", "control.stepz",
            "suite.bogus", "tree.m_float", "tree.m_negative", "tree.N_bool",
            "control.lq_delta", "suite.criteria_str", "control.steps_float",
            "control.probes_bool", "control.steps_zero",
            "control.probes_negative", "control.rate_zero",
            "control.u0_inf", "control.delta_negative",
            "control.delta_off_grid", "kernel.cap_float",
            "kernel.cap_zero", "kernel.eps_grid_negative",
            "kernel.eps_grid_empty", "kernel.eps_grid_bool",
            "kernel.exp_sum_rate_nan", "kernel.exp_sum_weight_inf",
            "kernel.exp_sum_rate_negative",
            "kernel.constant_nan", "kernel.constant_inf",
            "kernel.fractional_T_inf"])
    def test_unknown_or_invalid_block_field(self, tmp_path, capsys, command,
                                            cfg, message):
        # the tree, control and suite blocks refuse a key they do not
        # read, and the error names the block, not the subcommand
        rc, err = self.run(tmp_path, capsys, command, cfg)
        assert rc == 2
        assert err.startswith(f"config error: {message}")

    def test_out_naming_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        rc, err = self.run(tmp_path, capsys, "backward", {
            "tree": self.TREE,
            "backward": {"problem": "fractional_generator"}}, out=out)
        assert rc == 2
        assert err.startswith("config error:")
        assert "--out" in err

    @pytest.mark.parametrize("command", ["suite", "backward"])
    def test_out_naming_a_file_starts_no_solve(self, tmp_path, capsys,
                                               monkeypatch, command):
        # the unusable --out is found before the criteria or the solver run
        def boom(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(cli.acc, "ALL_CRITERIA", [boom])
        monkeypatch.setattr(cli.bwd, "solve_bsvie", boom)
        out = tmp_path / "taken"
        out.write_text("")
        cfg = write_config(tmp_path, {
            "tree": self.TREE,
            "backward": {"problem": "fractional_generator"}})
        rc = cli.main(["--config", cfg, "--out", str(out), command])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--out" in err


    @pytest.mark.parametrize("command, tree, block, where", [
        ("forward", {"N": 4, "T": 1.0, "m": 0},
         {"problem": "linear_noisy"}, "tree.m"),
        ("forward", {"N": 4, "T": 1.0, "m": 2},
         {"problem": "linear_noisy"}, "tree.m"),
        ("forward", {"N": 4, "T": 1.0},
         {"problem": "linear_noisy", "N_list": [4, 8]}, "forward.N_list"),
        ("control", {"N": 4, "T": 1.0, "m": 2}, {"instance": "lq"},
         "tree.m"),
        ("control", {"N": 4, "T": 1.0, "m": 0}, {"instance": "delay_lq"},
         "tree.m"),
    ], ids=["forward.m0", "forward.m2", "forward.N_list", "control.lq.m2",
            "control.delay_lq.m0"])
    def test_noise_dimension_mismatch(self, tmp_path, capsys, monkeypatch,
                                      command, tree, block, where):
        # the noise used to be dropped at m = 0 (exit 0) and to crash with
        # an IndexError at m = 2; now no solve starts
        def boom(*args, **kwargs):
            raise AssertionError("a solve started")

        for module, fn in [(cli.fwd, "solve_lattice"),
                           (cli.ctl, "solve_state"),
                           (cli.dly, "delay_projected_gradient_search")]:
            monkeypatch.setattr(module, fn, boom)
        rc, err = self.run(tmp_path, capsys, command,
                           {"tree": tree, command: block})
        assert rc == 2
        assert err.startswith(f"config error: config.{where}:")
        assert "has m = 1 noise coordinates" in err
        assert not list(tmp_path.glob("*_*.json"))


    @pytest.mark.parametrize("problem", ["fractional_generator",
                                         "fbm_rl_generator", "caputo"])
    def test_backward_on_noiseless_tree(self, tmp_path, capsys, problem):
        # the generators read noise coordinate 0: at m = 0 an IndexError or
        # a zero-size reduction used to escape as a traceback
        rc, err = self.run(tmp_path, capsys, "backward", {
            "tree": {"N": 4, "T": 1.0, "m": 0},
            "backward": {"problem": problem}})
        assert rc == 2
        assert err.startswith("config error: config.backward:")
        assert "needs m >= 1; the tree has m = 0" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*_*.json"))


class TestKernelCommand:
    def test_report_written(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": {"name": "doubly_singular", "alpha": 0.2, "beta": 0.0,
                       "eps_grid": [1.0, 0.5]}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "kernel"])
        assert rc == 0
        data = json.loads(
            (tmp_path / "kernel_doubly_singular.json").read_text())
        assert data["outputs"]["classification"]["in_scriptL2"] is True
        assert data["tool_version"]


class TestBackwardCommand:
    def test_solve_and_dump(self, tmp_path):
        cfg = write_config(tmp_path, {
            "tree": {"N": 4, "T": 1.0},
            "backward": {"problem": "fractional_generator",
                         "alpha": 0.7, "tol": 1e-11}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "backward"])
        assert rc == 0
        assert (tmp_path / "backward_fractional_generator_Y.csv").exists()
        assert (tmp_path / "backward_fractional_generator_Z.csv").exists()
        data = json.loads(
            (tmp_path / "backward_fractional_generator.json").read_text())
        assert data["residuals"]["m_condition"] < 1e-10
        timings = data["timings"]
        assert sorted(timings) == ["build_s", "solve_s", "tables_s"]
        assert all(v >= 0.0 for v in timings.values())
        # one row per block, with the sweeps of each
        assert data["outputs"]["blocks"] == [[r, r + 1] for r in range(4)]
        assert len(data["outputs"]["sweeps"]) == 4

    def test_report_records_solution_bytes(self, tmp_path, monkeypatch):
        solve, sols = cli.bwd.solve_bsvie, []

        def keep(*args, **kwargs):
            sols.append(solve(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(cli.bwd, "solve_bsvie", keep)
        cfg = write_config(tmp_path, {
            "tree": {"N": 5, "T": 1.0, "m": 2},
            "backward": {"problem": "caputo", "method": "block"}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "backward"])
        assert rc == 0
        data = json.loads((tmp_path / "backward_caputo.json").read_text())
        sol = sols[0]
        # Y(t_N) is a read-only view of the free term, not the solution's
        assert not sol.Y[-1].flags.writeable
        want = sum(y.nbytes for y in sol.Y.values[:-1]) + sum(
            z.nbytes for row in sol.Z.values for z in row)
        assert data["outputs"]["bytes"] == want

    def test_method_flag(self, tmp_path):
        cfg = write_config(tmp_path, {
            "tree": {"N": 4, "T": 1.0},
            "backward": {"problem": "fractional_generator"}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path),
                       "--method", "block", "backward"])
        assert rc == 0

    def test_nan_equation_residual_exits_one(self, tmp_path, monkeypatch,
                                             capsys):
        solve = cli.bwd.solve_bsvie

        def nan_residual(*args, **kwargs):
            sol = solve(*args, **kwargs)
            sol.diagnostics["equation_residual"] = float("nan")
            return sol

        monkeypatch.setattr(cli.bwd, "solve_bsvie", nan_residual)
        cfg = write_config(tmp_path, {
            "tree": {"N": 4, "T": 1.0},
            "backward": {"problem": "fractional_generator"}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "backward"])
        assert rc == 1
        assert "equation residual nan" in capsys.readouterr().out

    def test_two_noise_coordinates_pass_both_checks(self, tmp_path):
        cfg = write_config(tmp_path, {
            "tree": {"N": 4, "T": 1.0, "m": 2},
            "backward": {"problem": "fractional_generator"}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "backward"])
        assert rc == 0
        data = json.loads(
            (tmp_path / "backward_fractional_generator.json").read_text())
        assert data["residuals"]["m_condition"] <= 1e-12
        assert data["residuals"]["equation"] <= 1e-12
        rows = (tmp_path / "backward_fractional_generator_Y.csv"
                ).read_text().count("\n") - 1
        assert rows == sum(3 ** i for i in range(5))  # 121


class TestForwardCommand:
    def test_convergence_study(self, tmp_path):
        cfg = write_config(tmp_path, {
            "tree": {"N": 8, "T": 1.0},
            "forward": {"problem": "fractional_relaxation",
                        "alpha": 0.75, "lam": -1.0,
                        "N_list": [16, 32]}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "forward"])
        assert rc == 0
        lines = (tmp_path / "forward_fractional_relaxation_convergence.csv"
                 ).read_text().strip().splitlines()
        assert lines[0] == "N,sup_error"
        assert len(lines) == 3

    def test_single_tree_reports_table_time(self, tmp_path):
        cfg = write_config(tmp_path, {"tree": {"N": 4, "T": 1.0},
                                      "forward": {"problem": "linear_noisy"}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "forward"])
        assert rc == 0
        data = json.loads((tmp_path / "forward_linear_noisy.json").read_text())
        assert list(data["timings"]) == ["tables_s"]
        assert data["timings"]["tables_s"] >= 0.0

    def test_nan_residual_exits_one(self, tmp_path, monkeypatch, capsys):
        solve = cli.fwd.solve_lattice

        def nan_residual(problem, tree):
            sol = solve(problem, tree)
            sol.diagnostics["residual"] = float("nan")
            return sol

        monkeypatch.setattr(cli.fwd, "solve_lattice", nan_residual)
        cfg = write_config(tmp_path, {"tree": {"N": 4, "T": 1.0},
                                      "forward": {"problem": "linear_noisy"}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "forward"])
        assert rc == 1
        assert "equation residual nan" in capsys.readouterr().out

    @pytest.mark.parametrize("field, value, message", [
        ("last_row", float("nan"), "N=32: sup error nan"),
        ("residual", 1e-9, "N=16: equation residual 1e-09"),
        ("residual", float("nan"), "N=16: equation residual nan")])
    def test_study_fails_on_a_bad_solve(self, tmp_path, monkeypatch, capsys,
                                        field, value, message):
        # a nan after the first row must not vanish in the sup error
        solve = cli.fwd.solve_lattice

        def spoiled(problem, tree):
            sol = solve(problem, tree)
            if field == "residual":
                sol.diagnostics["residual"] = value
            elif tree.N == 32:
                sol.X[tree.N][:] = value
            return sol

        monkeypatch.setattr(cli.fwd, "solve_lattice", spoiled)
        cfg = write_config(tmp_path, {
            "tree": {"N": 8, "T": 1.0},
            "forward": {"problem": "fractional_relaxation",
                        "N_list": [16, 32]}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "forward"])
        assert rc == 1
        assert message in capsys.readouterr().out


class TestDeterminism:
    def test_reports_identical_modulo_timings(self, tmp_path):
        cfg = write_config(tmp_path, {
            "tree": {"N": 4, "T": 1.0},
            "backward": {"problem": "fbm_rl_generator"}})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["--config", cfg, "--out", str(out1), "--seed", "7",
                         "backward"]) == 0
        assert cli.main(["--config", cfg, "--out", str(out2), "--seed", "7",
                         "backward"]) == 0
        d1 = json.loads((out1 / "backward_fbm_rl_generator.json").read_text())
        d2 = json.loads((out2 / "backward_fbm_rl_generator.json").read_text())
        d1.pop("timings")
        d2.pop("timings")
        assert d1 == d2
        # and the CSV tables byte-identical
        assert (out1 / "backward_fbm_rl_generator_Y.csv").read_bytes() == \
            (out2 / "backward_fbm_rl_generator_Y.csv").read_bytes()


class TestControlCommand:
    def test_lq_report(self, tmp_path):
        cfg = write_config(tmp_path, {
            "tree": {"N": 5, "T": 1.0},
            "control": {"instance": "lq", "steps": 200, "rate": 0.5,
                        "probes": 8}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "control"])
        assert rc == 0
        data = json.loads((tmp_path / "control_lq.json").read_text())
        assert data["outputs"]["duality_gap"] <= 1e-10
        assert data["outputs"]["stationarity_margin"] >= -1e-6
        assert data["residuals"]["m_condition"] <= 1e-12
        assert data["residuals"]["equation"] <= 1e-9
        # Y(t_r), r < N, and the below-diagonal Z(t_i, t_j) at depth j
        N = 5
        nodes = (2 ** N - 1) + sum(2 ** i - 1 for i in range(N + 1))
        assert data["outputs"]["adjoint_bytes"] == 8 * nodes
        # one pass per one-step block
        assert data["outputs"]["adjoint_sweeps"] == [1] * N

    @pytest.mark.parametrize("key", ["m_condition_residual",
                                     "equation_residual"])
    def test_lq_nan_adjoint_residual_exits_one(self, tmp_path, monkeypatch,
                                               key):
        solve = cli.ctl.solve_adjoint

        def nan_residual(*args, **kwargs):
            adj = solve(*args, **kwargs)
            adj.diagnostics[key] = float("nan")
            return adj

        monkeypatch.setattr(cli.ctl, "solve_adjoint", nan_residual)
        cfg = write_config(tmp_path, {
            "tree": {"N": 4, "T": 1.0},
            "control": {"instance": "lq", "probes": 2}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "control"])
        assert rc == 1  # 0 with the residual left alone
        data = json.loads((tmp_path / "control_lq.json").read_text())
        assert math.isnan(data["residuals"][key.rsplit("_", 1)[0]])

    def test_lq_adjoint_released_before_descent(self, tmp_path,
                                                monkeypatch):
        # after duality_gap the report reads only the adjoint's two
        # residuals, so its Z table is not held through the descent
        solve, search = cli.ctl.solve_adjoint, \
            cli.ctl.projected_gradient_search
        refs, residuals, alive = [], [], []

        def adjoint(*args, **kwargs):
            adj = solve(*args, **kwargs)
            refs.extend([weakref.ref(adj), weakref.ref(adj.Z)])
            residuals.append([adj.diagnostics["m_condition_residual"],
                              adj.diagnostics["equation_residual"]])
            return adj

        def descent(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return search(*args, **kwargs)

        monkeypatch.setattr(cli.ctl, "solve_adjoint", adjoint)
        monkeypatch.setattr(cli.ctl, "projected_gradient_search", descent)
        cfg = write_config(tmp_path, {
            "tree": {"N": 6, "T": 1.0},
            "control": {"instance": "lq", "steps": 20, "probes": 2}})
        cli.main(["--config", cfg, "--out", str(tmp_path), "control"])
        assert alive == [[False, False]]
        data = json.loads((tmp_path / "control_lq.json").read_text())
        assert [data["residuals"]["m_condition"],
                data["residuals"]["equation"]] == residuals[0]

    def test_delay_report(self, tmp_path):
        cfg = write_config(tmp_path, {
            "tree": {"N": 4, "T": 1.0},
            "control": {"instance": "delay_lq", "steps": 60,
                        "rate": 0.4, "probes": 4}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "control"])
        assert rc == 0
        data = json.loads((tmp_path / "control_delay_lq.json").read_text())
        assert data["outputs"]["stationarity_margin"] >= -1e-6
        assert data["residuals"]["m_condition"] <= 1e-12
        assert data["residuals"]["equation"] <= 1e-9
        assert data["outputs"]["adjoint_bytes"] > 0
        assert data["outputs"]["adjoint_sweeps"] == [1] * 4

    def test_delay_reports_the_adjoint_at_the_descent_end(self, tmp_path,
                                                          monkeypatch):
        solve, search = cli.dly.solve_delay_adjoint, \
            cli.dly.delay_projected_gradient_search
        found, adjoints = [], []

        def descent(*args, **kwargs):
            found.append(search(*args, **kwargs)[0])
            return found[-1], {"cost": [0.0]}

        def adjoint(dp, traj, tree, **kwargs):
            adjoints.append((traj, solve(dp, traj, tree, **kwargs)))
            return adjoints[-1][1]

        monkeypatch.setattr(cli.dly, "delay_projected_gradient_search",
                            descent)
        monkeypatch.setattr(cli.dly, "solve_delay_adjoint", adjoint)
        cfg = write_config(tmp_path, {
            "tree": {"N": 4, "T": 1.0},
            "control": {"instance": "delay_lq", "steps": 5, "probes": 2}})
        # five steps stop short of the optimum: exit 1 on the margin
        cli.main(["--config", cfg, "--out", str(tmp_path), "control"])
        data = json.loads((tmp_path / "control_delay_lq.json").read_text())
        # the last solve is the reported one, at the descent's control
        traj, adj = adjoints[-1]
        assert all(np.array_equal(a, b)
                   for a, b in zip(traj.u.values, found[0].values))
        diag = adj.solution.diagnostics
        assert data["residuals"] == {
            "m_condition": diag["m_condition_residual"],
            "equation": diag["equation_residual"]}
        assert data["outputs"]["adjoint_bytes"] == diag["bytes"]
        assert data["outputs"]["adjoint_sweeps"] == diag["sweeps"]

    def test_delay_solves_once_after_the_descent(self, tmp_path,
                                                 monkeypatch):
        # the margin and the report's adjoint checks read one solve at u*
        counts = {"solve_delay_state": 0, "solve_delay_adjoint": 0}
        after = []

        def counting(name):
            solve = getattr(cli.dly, name)

            def wrapped(*args, **kwargs):
                counts[name] += 1
                return solve(*args, **kwargs)
            return wrapped

        search = cli.dly.delay_projected_gradient_search

        def descent(*args, **kwargs):
            found = search(*args, **kwargs)
            after.append(dict(counts))
            return found

        for name in counts:
            monkeypatch.setattr(cli.dly, name, counting(name))
        monkeypatch.setattr(cli.dly, "delay_projected_gradient_search",
                            descent)
        cfg = write_config(tmp_path, {
            "tree": {"N": 4, "T": 1.0},
            "control": {"instance": "delay_lq", "steps": 60,
                        "rate": 0.4, "probes": 4}})
        assert cli.main(["--config", cfg, "--out", str(tmp_path),
                         "control"]) == 0
        assert {name: counts[name] - after[0][name] for name in counts} \
            == {"solve_delay_state": 1, "solve_delay_adjoint": 1}

    @pytest.mark.parametrize("key", ["m_condition_residual",
                                     "equation_residual"])
    def test_delay_nan_adjoint_residual_exits_one(self, tmp_path,
                                                  monkeypatch, key):
        solve = cli.dly.solve_delay_adjoint

        def nan_residual(*args, **kwargs):
            adj = solve(*args, **kwargs)
            adj.solution.diagnostics[key] = float("nan")
            return adj

        monkeypatch.setattr(cli.dly, "solve_delay_adjoint", nan_residual)
        cfg = write_config(tmp_path, {
            "tree": {"N": 4, "T": 1.0},
            "control": {"instance": "delay_lq", "steps": 5, "probes": 2}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "control"])
        assert rc == 1  # 0 with the residual left alone
        data = json.loads((tmp_path / "control_delay_lq.json").read_text())
        assert math.isnan(data["residuals"][key.rsplit("_", 1)[0]])


class TestSuiteCommand:
    def test_selected_criteria(self, tmp_path):
        cfg = write_config(tmp_path, {"suite": {"criteria": [4, 5]}})
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "suite"])
        assert rc == 0
        data = json.loads((tmp_path / "suite.json").read_text())
        assert data["outputs"]["all_passed"] is True
        assert [c["index"] for c in data["outputs"]["criteria"]] == [4, 5]

    def test_exit_code_zero_only_when_passing(self, tmp_path):
        cfg = write_config(tmp_path, {"suite": {"criteria": [5]}})
        assert cli.main(["--config", cfg, "--out", str(tmp_path),
                         "suite"]) == 0
