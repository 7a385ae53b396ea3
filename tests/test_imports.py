"""Which scipy submodules each entry point loads.

``import svolterra``, a BSVIE solve, ``svolterra backward`` and the
delay problems of the registry, whose semigroup generators are diagonal,
load none of ``scipy.integrate``, ``scipy.special`` and ``scipy.linalg``.
The quadrature, the causal doubly singular cells and the exponential of a
non-diagonal matrix load theirs on first call.  Every case gives the
values it gives with all three loaded up front and every matrix
exponential taken by ``scipy.linalg.expm``.  Each check runs in a fresh
interpreter, since this test process has loaded scipy already.
"""
import hashlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
SCIPY_PARTS = ("scipy.integrate", "scipy.special", "scipy.linalg")


def digest(values):
    """sha256 of each value's float64 bytes, or of a string's UTF-8."""
    h = hashlib.sha256()
    for v in values:
        h.update(v.encode() if isinstance(v, str)
                 else np.ascontiguousarray(v, dtype=float).tobytes())
    return h.hexdigest()


# run first in every fresh interpreter
PRELUDE = f"""
import hashlib, json, sys
import numpy as np

def loaded():
    return [name for name in {SCIPY_PARTS!r} if name in sys.modules]

{inspect.getsource(digest)}
"""


def run_fresh(body):
    """Run ``PRELUDE + body`` under ``-W error`` in a new interpreter with
    this checkout's sources first on the path; return the JSON object on
    its last stdout line."""
    path = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         PRELUDE + textwrap.dedent(body)],
        capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bsvie_solves_and_backward_command_load_no_scipy(tmp_path):
    cfg = tmp_path / "backward.json"
    cfg.write_text(json.dumps({
        "tree": {"N": 6, "T": 1.0},
        "backward": {"problem": "fractional_generator"}}))
    got = run_fresh(f"""
        import svolterra
        after_import = loaded()
        from svolterra import backward as B, cli, registry as R
        from svolterra.lattice import Tree
        for family, build in sorted(R.BACKWARD_PROBLEMS.items()):
            for method in ("fixed_point", "block"):
                tree = Tree(N=6, T=1.0, m=1)
                B.solve_bsvie(build(tree), tree, method=method)
        after_solves = loaded()
        rc = cli.main(["--config", {str(cfg)!r}, "--out",
                       {str(tmp_path)!r}, "backward"])
        print(json.dumps({{"rc": rc, "import": after_import,
                          "solves": after_solves, "cli": loaded()}}))
    """)
    assert got == {"rc": 0, "import": [], "solves": [], "cli": []}


# Each case: the submodule it needs (None for none), and code that sets
# ``values`` to the arrays (or strings) it returns.  The same code runs
# here, with all three submodules loaded first and both semigroup builders
# calling ``scipy.linalg.expm`` itself.
CASES = {
    "classify": ("scipy.integrate", """
        from svolterra import kernels as K
        values = [K.classify(K.make_doubly_singular(0.2, 0.1)).to_json()]
    """),
    "causal_doubly_singular_cells": ("scipy.special", """
        from svolterra import kernels as K
        k = K.make_doubly_singular(0.2, 0.1, K.CAUSAL)
        values = [[k.cell_fn(t, a, b) for t, a, b in
                   ((0.5, 0.1, 0.3), (0.9, 0.0, 0.9), (1.0, 0.25, 0.5))],
                  [k.cell_sq_fn(0.5, 0.1, 0.3)]]
    """),
    "evolution_example": ("scipy.linalg", """
        from svolterra import forward as F, registry as R
        from svolterra.lattice import Tree
        M = np.array([[-1.0, 0.3], [0.0, -0.5]])
        p = R.make_evolution_example(
            M, lambda s, x: 0.2 * np.sin(x),
            lambda s, x: 0.1 * x[..., None], x0=[1.0, 2.0])
        tree = Tree(N=6, T=1.0, m=1)
        values = F.solve_lattice(p, tree).X.values
    """),
    "delay_adjoint": (None, """
        from svolterra import control as C, delay as D, registry as R
        from svolterra.lattice import Tree
        tree = Tree(N=8, T=1.0, m=1)
        dp = R.delay_lq_instance(delta=0.25, lam=0.3)
        traj = D.solve_delay_state(dp, C.constant_control(tree, [0.2]), tree)
        adj = D.solve_delay_adjoint(dp, traj, tree)
        Gu, Gmu = D.hamiltonian_gradients(dp, traj, adj, tree)
        gap = C.duality_gap(R.lq_instance(), C.constant_control(tree, [0.2]),
                            C.constant_control(tree, [-0.1]), tree)
        values = (dp.semigroup(tree) + adj.solution.Y.values
                  + [adj.solution.Z.entry(i, j)
                     for i in range(tree.N + 1) for j in range(i)]
                  + Gu.values + Gmu.values + [gap])
    """),
    "delay_adjoint_full_M": ("scipy.linalg", f"""
        import sys
        sys.path.insert(0, {str(TESTS)!r})
        from test_row_engine import linear_delay_problem
        from svolterra import control as C, delay as D
        from svolterra.lattice import Tree
        tree = Tree(N=6, T=1.0, m=1)
        dp = linear_delay_problem()
        traj = D.solve_delay_state(dp, C.constant_control(tree, [0.2]), tree)
        adj = D.solve_delay_adjoint(dp, traj, tree)
        values = (dp.semigroup(tree) + adj.solution.Y.values
                  + [adj.solution.Z.entry(i, j)
                     for i in range(tree.N + 1) for j in range(i)])
    """),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_scipy_loaded_on_first_call_with_unchanged_values(case, monkeypatch):
    needed, body = CASES[case]
    got = run_fresh(f"""
        import svolterra
        before = loaded()
        {textwrap.indent(textwrap.dedent(body), " " * 8).strip()}
        print(json.dumps({{"before": before, "after": loaded(),
                          "digest": digest(values)}}))
    """)
    assert got["before"] == []
    if needed is None:
        assert got["after"] == []
    else:
        assert needed in got["after"]
    for name in SCIPY_PARTS:
        __import__(name)
    from scipy.linalg import expm
    from svolterra import delay, registry

    monkeypatch.setattr(delay, "_expm", expm)
    monkeypatch.setattr(registry, "_expm", expm)
    scope = {"np": np}
    exec(textwrap.dedent(body), scope)
    assert got["digest"] == digest(scope["values"])
