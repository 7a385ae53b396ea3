"""Exact discrete filtered probability space on a binary scenario tree.

Each of the ``m`` noise coordinates moves by +-sqrt(dt) per step with
probability 1/2, independently across coordinates and steps, so depth ``i``
carries ``2**(m*i)`` equally likely nodes.  Nodes are path codes: the
children of code ``c`` are ``c * 2**m + b`` for branch ``b``, i.e. the most
recent step occupies the low bits.  Conditional expectation is therefore a
reshape-and-mean over descendants.  The one-step primitives work on the
strided branch slices ``x[b::2**m]`` (branch ``b`` of every parent at once):
martingale representation takes the step mean as the sum of the slices over
``2**m`` and the integrand of coordinate ``k`` as their signed sum over
``2**m * sqrt(dt)``, and the stochastic integral writes slice ``b`` of the
next depth as the parent value plus ``sqrt(dt)`` times the signed sum of the
integrand's coordinates.  Both are exact (representation exactness holds
for ``m <= 1``; for larger ``m`` the per-coordinate formula is the L2
projection onto the linear span of the step's increments).

``m = 0`` gives the deterministic single-path lattice used for large-N
convergence studies where the binary budget would be exceeded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

MAX_BITS = 22  # storage budget: trees with N * m above it are refused


@dataclass(frozen=True)
class Tree:
    """Scenario tree parameters: N steps on [0, T], m noise coordinates."""

    N: int
    T: float
    m: int = 1
    d: int = 1

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.m < 0 or self.d < 1:
            raise ValueError("need m >= 0 and d >= 1")
        if self.N * self.m > MAX_BITS:
            raise ValueError(
                f"storage budget exceeded: N*m = {self.N * self.m} "
                f"> {MAX_BITS}")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def sqrt_dt(self) -> float:
        return math.sqrt(self.dt)

    @cached_property
    def times(self) -> np.ndarray:
        """Grid times t_i = i T / N, computed once per tree, read-only."""
        t = np.linspace(0.0, self.T, self.N + 1)
        t.setflags(write=False)
        return t

    def node_count(self, depth: int) -> int:
        self._check_depth(depth)
        return 1 << (self.m * depth)

    def _check_depth(self, depth):
        if not 0 <= depth <= self.N:
            raise ValueError(f"depth {depth} outside [0, {self.N}]")

    @property
    def branch_signs(self) -> np.ndarray:
        """(2**m, m) matrix of +-1: sign of coordinate k on branch b."""
        return _branch_signs(self.m)

    # -- measure-preserving maps between depths --

    def broadcast(self, values: np.ndarray, from_depth: int,
                  to_depth: int) -> np.ndarray:
        """Repeat an adapted field onto its descendants at a deeper level."""
        self._check_depth(from_depth)
        self._check_depth(to_depth)
        if to_depth < from_depth:
            raise ValueError("broadcast goes from shallow to deep")
        reps = 1 << (self.m * (to_depth - from_depth))
        return np.repeat(np.asarray(values), reps, axis=0)

    def conditional_expectation(self, values: np.ndarray, from_depth: int,
                                to_depth: int) -> np.ndarray:
        """Average over descendants: exact E[. | F_{t_a}] on the tree."""
        self._check_depth(from_depth)
        self._check_depth(to_depth)
        if to_depth > from_depth:
            raise ValueError("conditioning goes from deep to shallow")
        return self.ancestor_view(np.asarray(values, dtype=float),
                                  from_depth, to_depth).mean(axis=1)

    def ancestor_view(self, values: np.ndarray, deep: int,
                      shallow: int) -> np.ndarray:
        """A depth-``deep`` field as (nodes_shallow, 2**(m*(deep-shallow)),
        ...): row c holds the descendants of depth-``shallow`` node c.

        Descendants of a node are contiguous because nodes are path codes,
        so this is a reshape, a view of a contiguous input.  Contracting a
        depth-``shallow`` coefficient against it gives what contracting
        the coefficient's :meth:`broadcast` would, without the copy.
        """
        self._check_depth(deep)
        self._check_depth(shallow)
        if shallow > deep:
            raise ValueError("ancestors sit at a shallower depth")
        x = np.asarray(values)
        return x.reshape((self.node_count(shallow),
                          1 << (self.m * (deep - shallow))) + x.shape[1:])

    def increments(self, step: int) -> np.ndarray:
        """Brownian increment of the given step as a depth-(step+1) field."""
        if not 0 <= step < self.N:
            raise ValueError(f"step {step} outside [0, {self.N})")
        return np.tile(self.branch_signs * self.sqrt_dt,
                       (self.node_count(step), 1))

    def brownian(self, depth: int) -> np.ndarray:
        """Brownian path values W(t_depth) indexed by node, shape (nodes, m)."""
        self._check_depth(depth)
        w = np.zeros((1, self.m))
        for j in range(depth):
            w = np.repeat(w, 1 << self.m, axis=0) + self.increments(j)
        return w

    # -- martingale calculus --

    def martingale_representation(self, values: np.ndarray, from_depth: int,
                                  to_depth: int):
        """Split a field into conditional mean plus stochastic integral.

        Returns ``(mean, z)`` with ``mean`` at ``to_depth`` and ``z`` a list
        of per-step integrands, ``z[j - to_depth]`` of shape (nodes_j, d, m)
        for steps ``j`` in ``[to_depth, from_depth)``; reconstruction
        ``mean + sum_j z_j dW_j`` is exact for m <= 1.
        """
        self._check_depth(from_depth)
        self._check_depth(to_depth)
        if to_depth > from_depth:
            raise ValueError("representation goes from deep to shallow")
        x = np.asarray(values, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        nb = 1 << self.m
        scale = nb * self.sqrt_dt
        coordinate_signs = _coordinate_signs(self.m)
        every = (True,) * nb
        z = []
        for _ in range(from_depth - to_depth):
            branches = [x[b::nb] for b in range(nb)]
            zj = np.empty(branches[0].shape + (self.m,))
            for k, positive in enumerate(coordinate_signs):
                zk = zj[:, :, k]
                np.divide(_signed_sum(branches, positive, zk), scale, out=zk)
            z.append(zj)
            x = np.empty_like(branches[0])
            np.divide(_signed_sum(branches, every, x), nb, out=x)
        z.reverse()
        return x, z

    def stochastic_integral(self, z_list, a: int, b: int, start=None,
                            subtract: bool = False) -> np.ndarray:
        """Accumulate sum_j z_j dW_j along each path from depth a to b.

        The sum starts from the depth-``a`` field ``start`` (zero when
        None), which is returned itself when there are no steps;
        ``subtract`` gives ``start - sum_j z_j dW_j``.  Branch ``br`` and
        its mirror ``2**m - 1 - br`` carry opposite signs on every
        coordinate, so each pair shares one signed sum.
        """
        self._check_depth(a)
        self._check_depth(b)
        if len(z_list) != b - a:
            raise ValueError("need one integrand per step in [a, b)")
        nb = 1 << self.m
        if start is None:
            d = z_list[0].shape[1] if z_list else self.d
            acc = np.zeros((self.node_count(a), d))
        else:
            acc = start
            d = acc.shape[1]
        pairs = list(enumerate(_branch_sign_rows(self.m)))[nb // 2:]
        work = np.empty((self.node_count(max(b - 1, a)), d))
        for zj in z_list:
            n = acc.shape[0]
            coords = [zj[:, :, k] for k in range(self.m)]
            out = np.empty((n * nb, d))
            step = work[:n]
            for br, positive in pairs:
                plus, minus = (nb - 1 - br, br) if subtract \
                    else (br, nb - 1 - br)
                np.multiply(_signed_sum(coords, positive, step), self.sqrt_dt,
                            out=step)
                np.add(acc, step, out=out[plus::nb])
                np.subtract(acc, step, out=out[minus::nb])
            acc = out
        return acc

    def expectation(self, values: np.ndarray) -> np.ndarray:
        """Expectation under the uniform node measure (any depth)."""
        return np.asarray(values, dtype=float).mean(axis=0)


@lru_cache(maxsize=None)
def _branch_signs(m: int) -> np.ndarray:
    signs = np.empty((1 << m, m))
    for b in range(1 << m):
        for k in range(m):
            signs[b, k] = 1.0 if (b >> k) & 1 else -1.0
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=None)
def _branch_sign_rows(m: int) -> tuple:
    """Per branch, per coordinate: True where the sign is +1."""
    return tuple(tuple(bool(s > 0) for s in row) for row in _branch_signs(m))


@lru_cache(maxsize=None)
def _coordinate_signs(m: int) -> tuple:
    """Per coordinate, per branch: True where the sign is +1."""
    return tuple(zip(*_branch_sign_rows(m)))


def _signed_sum(parts, positive, out):
    """sum_b +-parts[b], added left to right from zero; ``positive[b]``
    picks the sign of term b.

    A pending sign stands for the negation of the running sum, which is
    exact, so -p0 + p1 costs one subtraction p1 - p0.  Returns 0.0 for no
    parts and the part itself for one positive part; otherwise the sum is
    written into ``out``.
    """
    acc, negated = 0.0, False
    for b, (part, plus) in enumerate(zip(parts, positive)):
        if b == 0:
            acc, negated = part, not plus
        elif plus != negated:         # acc + p, or -(acc + p)
            acc = np.add(acc, part, out=out)
        elif plus:                    # -acc + p
            acc, negated = np.subtract(part, acc, out=out), False
        else:                         # acc - p
            acc = np.subtract(acc, part, out=out)
    if negated:
        # not np.negative: numpy 2.4 misreads strided inputs when ``out``
        # is strided too
        acc = np.multiply(acc, -1.0, out=out)
    return acc


def ito_isometry_check(tree: Tree, z_list, a: int, b: int) -> float:
    """Residual of E[(int z dW)^2] = E[sum |z_j|^2 dt]; exactly 0 on the tree."""
    integral = tree.stochastic_integral(z_list, a, b)
    lhs = float(tree.expectation((integral ** 2).sum(axis=1)))
    rhs = 0.0
    for zj in z_list:
        rhs += tree.dt * float(tree.expectation((zj ** 2).sum(axis=(1, 2))))
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

    @property
    def d(self) -> int:
        return self.values[0].shape[1]

    def __getitem__(self, depth: int) -> np.ndarray:
        return self.values[depth]

    def __len__(self) -> int:
        return len(self.values)

    def l2_norm_sq(self) -> float:
        """dt-weighted squared norm sum_i dt E|Y_i|^2 (all stored depths)."""
        return sum(self.tree.dt
                   * float(self.tree.expectation((v ** 2).sum(axis=1)))
                   for v in self.values)

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
    entry (i, j) is tagged above-diagonal when j >= i, below otherwise.
    """

    tree: Tree
    values: list

    @classmethod
    def zeros(cls, tree: Tree, d: int = None) -> "TwoParameterProcess":
        d = d or tree.d
        vals = [[np.zeros((tree.node_count(j), d, tree.m))
                 for j in range(tree.N)] for _ in range(tree.N + 1)]
        return cls(tree, vals)

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.values[i][j]

    def set_entry(self, i: int, j: int, value: np.ndarray):
        self.values[i][j] = np.asarray(value, dtype=float)

    @staticmethod
    def is_above_diagonal(i: int, j: int) -> bool:
        return j >= i

    def norm_sq(self) -> float:
        """dt^2-weighted squared norm sum_{i,j} dt^2 E|Z_ij|^2."""
        tree = self.tree
        total = 0.0
        for row in self.values:
            for z in row:
                if z is not None:
                    total += tree.dt ** 2 * float(
                        tree.expectation((z ** 2).sum(axis=(1, 2))))
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
    apart from 0.0), and each block is one write.
    """
    index_text = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lead, a in blocks:
            a = np.ascontiguousarray(a, dtype=np.float64)
            if a.size == 0:
                continue
            if a.shape not in index_text:
                index_text[a.shape] = _index_text(a.shape)
            bits, inverse = np.unique(a.reshape(-1).view(np.uint64),
                                      return_inverse=True)
            text = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                            dtype=object)
            prefix = "".join(f"{k}," for k in lead)
            fh.write(prefix + ("\r\n" + prefix).join(
                map(str.__add__, index_text[a.shape],
                    text[inverse].tolist())) + "\r\n")


def _index_text(shape):
    """``"i,j,...,"`` for every index of an array of ``shape``, in C order."""
    text = [""]
    for n in shape:
        digits = [f"{k}," for k in range(n)]
        text = [head + tail for head in text for tail in digits]
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
