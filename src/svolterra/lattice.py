"""Exact discrete filtered probability space on an (m+1)-branch scenario tree.

Each step splits every node into ``m + 1`` equally likely branches whose
Brownian increments are sqrt(dt) times the rows v_b of a centred regular
simplex (He 1990, the complete-market multinomial lattice): the Helmert
matrix whose column k (1-based) holds -c_k on branches b < k, k c_k on
branch k and 0 after it, c_k = sqrt((m + 1) / (k (k + 1))).  So
sum_b v_b = 0 and sum_b v_b v_b^T = (m + 1) I, the increments have mean 0
and covariance dt I, and the vectors (1, v_b) form a basis: every one-step
field is its mean plus a stochastic integral, exactly, for every ``m``.  At
``m = 1`` the branches are -+sqrt(dt), the binary tree.

Depth ``i`` carries ``(m + 1)**i`` nodes.  Nodes are path codes: the
children of code ``c`` are ``c * (m + 1) + b`` for branch ``b``, i.e. the
most recent step is the lowest base-(m + 1) digit.  Conditional expectation
is therefore a reshape-and-mean over descendants.  Because the simplex is
triangular, the one-step primitives work in place on the strided branch
slices ``x[b::m + 1]`` (branch ``b`` of every parent at once) with one
running prefix or suffix sum.

``m = 0`` gives the deterministic single-path lattice used for large-N
convergence studies where the node budget would be exceeded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

MAX_NODES = 1 << 22  # storage budget: trees with more leaves are refused


@dataclass(frozen=True)
class Tree:
    """Scenario tree parameters: N steps on [0, T], m noise coordinates.

    The tree is frozen, so its step constants (``dt``, ``sqrt_dt``, the
    representation divisors and the integral's signed steps), the node
    counts and ``times`` are ``cached_property`` values, computed once per
    tree on first read; equality and hashing still read only the fields.
    Mean squares E|x|^2 of node fields come from the module's one helper
    ``_mean_square``, bit for bit :meth:`expectation` of the per-node sums.
    """

    N: int
    T: float
    m: int = 1

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.m < 0:
            raise ValueError("need m >= 0")
        if (self.m + 1) ** self.N > MAX_NODES:
            raise ValueError(
                f"storage budget exceeded: (m+1)**N = {self.m + 1}**{self.N}"
                f" > {MAX_NODES} leaves")

    @cached_property
    def dt(self) -> float:
        return self.T / self.N

    @cached_property
    def sqrt_dt(self) -> float:
        return math.sqrt(self.dt)

    @cached_property
    def _representation_divisors(self) -> tuple:
        """(m + 1) sqrt(dt) / c_k for k = 1..m: the divisor of coordinate k
        in :meth:`martingale_representation`."""
        scale = (self.m + 1) * self.sqrt_dt
        return tuple(scale / c for c in (-self.branches[0]).tolist())

    @cached_property
    def _integral_steps(self) -> tuple:
        """The signed steps -+sqrt(dt) v_0 of :meth:`stochastic_integral`,
        indexed by ``subtract`` (row 0 of the simplex is -c)."""
        row = self.branches[0].tolist()
        return tuple(tuple(sign * self.sqrt_dt * v for v in row)
                     for sign in (-1.0, 1.0))

    @cached_property
    def times(self) -> np.ndarray:
        """Grid times t_i = i T / N, computed once per tree, read-only."""
        t = np.linspace(0.0, self.T, self.N + 1)
        t.setflags(write=False)
        return t

    @cached_property
    def _node_counts(self) -> tuple:
        """(m + 1) ** k for k = 0..N; read only after a depth check, since a
        negative index would wrap to the end of the tuple."""
        return tuple((self.m + 1) ** k for k in range(self.N + 1))

    def node_count(self, depth: int) -> int:
        self._check_depth(depth)
        return self._node_counts[depth]

    def _check_depth(self, depth):
        if not 0 <= depth <= self.N:
            raise ValueError(f"depth {depth} outside [0, {self.N}]")

    def _depth_pair_error(self, first, second, message):
        """Raise for a depth pair that failed a primitive's chained check:
        the range error of ``first``, else of ``second``, else ``message``
        for their order."""
        self._check_depth(first)
        self._check_depth(second)
        raise ValueError(message)

    @property
    def branches(self) -> np.ndarray:
        """(m + 1, m) simplex: unit increment of coordinate k on branch b."""
        return _simplex(self.m)

    # -- measure-preserving maps between depths --

    def broadcast(self, values: np.ndarray, from_depth: int,
                  to_depth: int) -> np.ndarray:
        """Repeat an adapted field onto its descendants at a deeper level."""
        if not 0 <= from_depth <= to_depth <= self.N:
            self._depth_pair_error(from_depth, to_depth,
                                   "broadcast goes from shallow to deep")
        reps = self._node_counts[to_depth - from_depth]
        return np.asarray(values).repeat(reps, axis=0)

    def conditional_expectation(self, values: np.ndarray, from_depth: int,
                                to_depth: int) -> np.ndarray:
        """Average over descendants: exact E[. | F_{t_a}] on the tree."""
        if not 0 <= to_depth <= from_depth <= self.N:
            self._depth_pair_error(from_depth, to_depth,
                                   "conditioning goes from deep to shallow")
        return self.ancestor_view(np.asarray(values, dtype=float),
                                  from_depth, to_depth).mean(axis=1)

    def ancestor_view(self, values: np.ndarray, deep: int,
                      shallow: int) -> np.ndarray:
        """A depth-``deep`` field as (nodes_shallow, (m+1)**(deep-shallow),
        ...): row c holds the descendants of depth-``shallow`` node c.

        Descendants of a node are contiguous because nodes are path codes,
        so this is a reshape, a view of a contiguous input.  Contracting a
        depth-``shallow`` coefficient against it gives what contracting
        the coefficient's :meth:`broadcast` would, without the copy.
        """
        if not 0 <= shallow <= deep <= self.N:
            self._depth_pair_error(deep, shallow,
                                   "ancestors sit at a shallower depth")
        x = np.asarray(values)
        counts = self._node_counts
        return x.reshape((counts[shallow], counts[deep - shallow])
                         + x.shape[1:])

    def increments(self, step: int) -> np.ndarray:
        """Brownian increment of the given step as a depth-(step+1) field."""
        if not 0 <= step < self.N:
            raise ValueError(f"step {step} outside [0, {self.N})")
        return np.tile(self.branches * self.sqrt_dt,
                       (self.node_count(step), 1))

    def brownian(self, depth: int) -> np.ndarray:
        """Brownian path values W(t_depth) indexed by node, shape (nodes, m)."""
        self._check_depth(depth)
        w = np.zeros((1, self.m))
        for j in range(depth):
            w = np.repeat(w, self.m + 1, axis=0) + self.increments(j)
        return w

    # -- martingale calculus --

    def martingale_representation(self, values: np.ndarray, from_depth: int,
                                  to_depth: int):
        """Split a field into conditional mean plus stochastic integral.

        Returns ``(mean, z)`` with ``mean`` at ``to_depth`` and ``z`` a list
        of per-step integrands, ``z[j - to_depth]`` of shape (nodes_j, d, m)
        for steps ``j`` in ``[to_depth, from_depth)``; reconstruction
        ``mean + sum_j z_j dW_j`` is exact.  One running prefix sum
        P_k = x_0 + ... + x_{k-1} of the branch slices gives coordinate k as
        (k x_k - P_k) c_k / ((m + 1) sqrt(dt)) and the step mean as
        P_{m+1} / (m + 1).
        """
        if not 0 <= to_depth <= from_depth <= self.N:
            self._depth_pair_error(from_depth, to_depth,
                                   "representation goes from deep to shallow")
        x = np.asarray(values, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        nb = self.m + 1
        divisors = self._representation_divisors
        z = []
        for _ in range(from_depth - to_depth):
            total = x[0::nb]
            zj = np.empty(total.shape + (self.m,))
            for k in range(1, nb):
                xk, zk = x[k::nb], zj[:, :, k - 1]
                np.subtract(xk if k == 1 else np.multiply(xk, k, out=zk),
                            total, out=zk)
                np.divide(zk, divisors[k - 1], out=zk)
                total = np.add(total, xk, out=total if k > 1 else None)
            z.append(zj)
            x = np.divide(total, nb, out=total if nb > 1 else None)
        z.reverse()
        return x, z

    def stochastic_integral(self, z_list, a: int, b: int, start=None,
                            subtract: bool = False) -> np.ndarray:
        """Accumulate sum_j z_j dW_j along each path from depth a to b.

        The sum starts from the depth-``a`` field ``start`` (zero when
        None, one column wide when there are no steps either), which is
        returned itself when there are no steps; each
        integrand's last axis must have the tree's ``m`` coordinates;
        ``subtract`` gives ``start - sum_j z_j dW_j``.  With
        w_k = +-sqrt(dt) c_k z_k, branch ``br`` of the next depth is the
        parent value plus br w_br minus the suffix sum of w_k over k > br.
        """
        message = "need one integrand per step in [a, b)"
        if not 0 <= a <= b <= self.N:
            self._depth_pair_error(a, b, message)
        if len(z_list) != b - a:
            raise ValueError(message)
        nb = self.m + 1
        if start is None:
            d = z_list[0].shape[1] if z_list else 1
            acc = np.zeros((self._node_counts[a], d))
        else:
            acc = start
            d = acc.shape[1]
        steps = self._integral_steps[1 if subtract else 0]
        # row 0 holds w_m and then the suffix sum, row 1 each w_k, k < m
        work = np.empty((min(self.m, 2), self._node_counts[max(b - 1, a)], d))
        for zj in z_list:
            if zj.shape[-1] != self.m:
                raise ValueError(
                    f"integrand noise dimension {zj.shape[-1]} does not "
                    f"match the tree's m = {self.m}")
            n = acc.shape[0]
            out = np.empty((n * nb, d))
            suffix = 0.0  # sum of w_k over k > br, from k = m down
            for k in range(self.m, 0, -1):
                ok = out[k::nb]
                w = np.multiply(zj[:, :, k - 1], steps[k - 1],
                                out=work[0 if k == self.m else 1, :n])
                np.add(acc, w if k == 1 else np.multiply(w, k, out=ok),
                       out=ok)
                if k == self.m:
                    suffix = w
                else:
                    np.subtract(ok, suffix, out=ok)
                    np.add(suffix, w, out=suffix)
            np.subtract(acc, suffix, out=out[0::nb])
            acc = out
        return acc

    def expectation(self, values: np.ndarray) -> np.ndarray:
        """Expectation under the uniform node measure (any depth)."""
        return np.asarray(values, dtype=float).mean(axis=0)


@lru_cache(maxsize=None)
def _simplex(m: int) -> np.ndarray:
    """(m + 1, m) Helmert simplex: column k - 1 holds -c_k above row k,
    k c_k on row k and 0 below it, so row 0 is -c."""
    v = np.zeros((m + 1, m))
    for k in range(1, m + 1):
        c = math.sqrt((m + 1) / (k * (k + 1)))
        v[:k, k - 1] = -c
        v[k, k - 1] = k * c
    v.setflags(write=False)
    return v


def _mean_square(a: np.ndarray, b: np.ndarray = None,
                 out: np.ndarray = None) -> float:
    """E|a|^2, or E|a - b|^2 when ``b`` is given, under the uniform node
    measure, |.|^2 summing over every axis after the node axis.

    One temporary is made and squared in place; numpy's pairwise sum over
    the nodes (of the per-node sums when a node holds more than one scalar)
    is divided by the node count, so the value is bit for bit
    ``tree.expectation((x ** 2).sum(axis=tail))``, and a nan or inf input
    gives a non-finite value.  ``out``, an array made by
    ``np.empty_like(a)``, takes the place of the temporary, so a caller
    that takes many norms of one shape can keep a single scratch array.
    """
    if b is None:
        x = np.multiply(a, a, out=out)
    else:
        x = np.subtract(a, b, out=out)
        np.multiply(x, x, out=x)
    n = x.shape[0]
    if x.size != n:
        x = np.add.reduce(x, axis=tuple(range(1, x.ndim)))
    return float(np.add.reduce(x.reshape(-1))) / n


def ito_isometry_check(tree: Tree, z_list, a: int, b: int) -> float:
    """Residual of E[(int z dW)^2] = E[sum |z_j|^2 dt]; exactly 0 on the tree."""
    lhs = _mean_square(tree.stochastic_integral(z_list, a, b))
    rhs = 0.0
    for zj in z_list:
        rhs += tree.dt * _mean_square(zj)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# node-indexed processes
# ---------------------------------------------------------------------------

@dataclass
class AdaptedProcess:
    """Per-depth arrays of d-vectors; values[i] has shape (nodes_i, d)."""

    tree: Tree
    values: list

    def __post_init__(self):
        for i, v in enumerate(self.values):
            v = np.asarray(v, dtype=float)
            if v.ndim == 1:
                v = v[:, None]
            if v.shape[0] != self.tree.node_count(i):
                raise ValueError(
                    f"depth {i}: expected {self.tree.node_count(i)} nodes, "
                    f"got {v.shape[0]}")
            self.values[i] = v

    @classmethod
    def single_path(cls, tree: Tree, X: np.ndarray) -> "AdaptedProcess":
        """The process of an ``m = 0`` tree from its (N + 1, d) float path
        array, whose rows become the (1, d) depth values as views; the
        shape is checked once instead of depth by depth."""
        if tree.m != 0 or X.dtype != float or X.ndim != 2 \
                or X.shape[0] != tree.N + 1:
            raise ValueError(f"need an (N + 1, d) float path on an m = 0 "
                             f"tree, got {X.shape} with m = {tree.m}")
        proc = cls.__new__(cls)
        proc.tree, proc.values = tree, list(X[:, None, :])
        return proc

    @property
    def d(self) -> int:
        return self.values[0].shape[1]

    def __getitem__(self, depth: int) -> np.ndarray:
        return self.values[depth]

    def __len__(self) -> int:
        return len(self.values)

    def l2_norm_sq(self) -> float:
        """dt-weighted squared norm sum_i dt E|Y_i|^2 (all stored depths)."""
        return sum(self.tree.dt * _mean_square(v) for v in self.values)

    def dump_csv(self, path):
        _write_table(path, ("depth", "node", "component", "value"),
                     (((depth,), v) for depth, v in enumerate(self.values)))


def constant_process(tree: Tree, fn, depths=None) -> AdaptedProcess:
    """Adapted process from a deterministic function of time."""
    depths = range(tree.N + 1) if depths is None else depths
    vals = []
    for i in depths:
        v = np.asarray(fn(tree.times[i]), dtype=float).reshape(-1)
        vals.append(np.tile(v, (tree.node_count(i), 1)))
    return AdaptedProcess(tree, vals)


@dataclass
class TwoParameterProcess:
    """Z(t_i, t_j) fields: values[i][j] adapted at depth j, shape (nodes_j, d, m).

    Outer index i runs over [0, N] and inner cell index j over [0, N); the
    entry (i, j) is tagged above-diagonal when j >= i, below otherwise.  An
    entry is None until it is set, and again once released (the adjoint
    solves release the entries on and above the diagonal, which the
    maximum principles never read); :meth:`norm_sq` and :meth:`dump_csv`
    skip it.
    """

    tree: Tree
    values: list

    @classmethod
    def zeros(cls, tree: Tree, d: int = 1) -> "TwoParameterProcess":
        vals = [[np.zeros((tree.node_count(j), d, tree.m))
                 for j in range(tree.N)] for _ in range(tree.N + 1)]
        return cls(tree, vals)

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.values[i][j]

    def set_entry(self, i: int, j: int, value: np.ndarray):
        self.values[i][j] = np.asarray(value, dtype=float)

    def norm_sq(self) -> float:
        """dt^2-weighted squared norm sum_{i,j} dt^2 E|Z_ij|^2."""
        tree = self.tree
        total = 0.0
        for row in self.values:
            for z in row:
                if z is not None:
                    total += tree.dt ** 2 * _mean_square(z)
        return total

    def dump_csv(self, path):
        _write_table(path, ("outer", "inner", "node", "component", "noise",
                            "value"),
                     (((i, j), z) for i, row in enumerate(self.values)
                      for j, z in enumerate(row) if z is not None))


def _write_table(path, header, blocks):
    """Write a CSV table: the header, then one row per scalar of each block.

    ``blocks`` yields ``(lead, array)``; the rows of a block are the
    leading indices, the scalar's index in the array and ``repr`` of its
    value, in C order, each ending in CR LF as ``csv.writer`` ends them.
    Each distinct bit pattern of a block is formatted once (so -0.0 stays
    apart from 0.0), and each block is one ``%`` substitution into its
    shape's row template, whose NUL marks take the leading indices, and
    one write.
    """
    templates = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lead, a in blocks:
            a = np.ascontiguousarray(a, dtype=np.float64)
            if a.size == 0:
                continue
            if a.shape not in templates:
                templates[a.shape] = _row_template(a.shape)
            bits, inverse = np.unique(a.reshape(-1).view(np.uint64),
                                      return_inverse=True)
            text = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                            dtype=object)
            fh.write((templates[a.shape] % tuple(text[inverse].tolist()))
                     .replace("\0", "".join(f"{k}," for k in lead)))


def _row_template(shape):
    """``"\\0i,j,...,%s\\r\\n"`` for every index of an array of ``shape``, in
    C order, as one string: each axis, innermost first, repeats the rows so
    far once per index with that index put after every NUL mark."""
    text = "\0%s\r\n"
    for n in reversed(shape):
        text = "".join(map(text.replace("\0", "\0{0},").format, range(n)))
    return text


@dataclass
class TerminalField:
    """Per-outer-time free terms psi(t_i); entry i is measurable at
    ``depths[i]`` (default: the leaves for every index)."""

    tree: Tree
    values: list
    depths: Optional[list] = None

    def __post_init__(self):
        if self.depths is None:
            self.depths = [self.tree.N] * len(self.values)
        self.depths = [int(p) for p in self.depths]
        if len(self.depths) != len(self.values):
            raise ValueError("need one depth per outer index")
        for i, (v, depth) in enumerate(zip(self.values, self.depths)):
            v = np.asarray(v, dtype=float)
            if v.ndim == 1:
                v = v[:, None]
            n = self.tree.node_count(depth)
            if v.shape[0] != n:
                raise ValueError(
                    f"outer index {i}: expected {n} nodes at depth "
                    f"{depth}, got {v.shape[0]}")
            self.values[i] = v

    @property
    def d(self) -> int:
        return self.values[0].shape[1]

    def __getitem__(self, i: int) -> np.ndarray:
        """psi(t_i) at its own depth ``depths[i]``."""
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)

    def at(self, i: int, depth: int) -> np.ndarray:
        """psi(t_i) on ``depth``, at or below its own depth: the stored
        array itself when the depths match, else repeated onto the
        deeper level."""
        own = self.depths[i]
        if depth == own:
            return self.values[i]
        return self.tree.broadcast(self.values[i], own, depth)


def terminal_from_function(tree: Tree, fn, d: int = None) -> TerminalField:
    """Terminal field psi(t_i) = fn(t_i, W_T) from a leaf-path functional.

    ``fn(t, w)`` receives the outer time and the (leaves, m) terminal
    Brownian values and returns (leaves, d) or (leaves,).
    """
    wT = tree.brownian(tree.N)
    vals = []
    for i in range(tree.N + 1):
        v = np.asarray(fn(tree.times[i], wT), dtype=float)
        if v.ndim == 0:
            v = np.full(tree.node_count(tree.N), float(v))
        vals.append(v)
    return TerminalField(tree, vals)
