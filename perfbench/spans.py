"""Span recorder for the traced benchmark run.

The recorder wraps svolterra's public functions from outside the library:
every public module-level function of each layer module, plus the tree,
process and kernel methods listed in ``METHODS``.  A wrapper replaces the
original wherever callers look the name up: in its own module, in every
svolterra module that imported it by name (``backward.find_partition`` is
the same object as ``kernels.find_partition``), in module-level registries
such as ``registry.BACKWARD_PROBLEMS``, and on the class for methods.

Each call records one span (name, start, end, parent span, job index) in
flat in-memory arrays.  ``save`` writes them out when the run ends, and
``summary`` derives the per-layer metrics: calls, self time (span time
minus the time of its child spans) and, for the tree primitives, the bytes
of the arrays they return.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("lattice", "kernels", "special", "forward", "backward", "control",
          "delay", "registry", "cli")

# class methods traced as "<layer>.<method>"
METHODS = {
    "lattice": {
        "Tree": ("broadcast", "conditional_expectation", "increments",
                 "brownian", "martingale_representation",
                 "stochastic_integral", "expectation"),
        "AdaptedProcess": ("dump_csv", "l2_norm_sq"),
        "TwoParameterProcess": ("dump_csv", "norm_sq"),
    },
    "kernels": {
        "Kernel": ("cell", "cell_sq", "cell_m1", "slice_sq",
                   "slice_l2_profile"),
    },
}

# spans whose returned arrays are measured
BYTES_OF = frozenset({"lattice.martingale_representation",
                      "lattice.conditional_expectation",
                      "lattice.broadcast", "lattice.stochastic_integral"})


def _nbytes(obj):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x) for x in obj)
    return 0


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _bsvie_sweeps(counters, sol):
    sweeps = sum(sol.diagnostics["sweeps"])
    _add(counters, "backward.sweeps", sweeps)
    _add(counters, f"backward.sweeps.{sol.diagnostics['method']}", sweeps)


def _control_sweeps(counters, sol):
    _add(counters, "control.adjoint_sweeps", sum(sol.diagnostics["sweeps"]))


def _delay_sweeps(counters, adjoint):
    _add(counters, "delay.adjoint_sweeps",
         sum(adjoint.solution.diagnostics["sweeps"]))


# counters read off the values that traced functions return
OBSERVERS = {
    "backward.solve_bsvie": _bsvie_sweeps,
    "control.solve_adjoint": _control_sweeps,
    "delay.solve_delay_adjoint": _delay_sweeps,
}


class SpanRecorder:
    """Wraps svolterra's public functions and records one span per call."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nbytes = array("q")
        self.counters = {}
        self.job_index = -1          # -1 while inputs are being built
        self._stack = []
        self._undo = []

    # -- installing and removing the wrappers --

    def _wrap(self, fn, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        measure = name in BYTES_OF
        observe = OBSERVERS.get(name)
        stack = self._stack
        clock = time.process_time    # the benchmark's clock (run.CLOCK)
        name_ids, parents, jobs = self.name_id, self.parent, self.job
        starts, ends, nbytes = self.start, self.end, self.nbytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_index)
            starts.append(0.0)
            ends.append(0.0)
            nbytes.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if measure:
                nbytes[idx] = _nbytes(out)
            if observe is not None:
                observe(self.counters, out)
            return out

        return traced

    def install(self):
        """Wrap the public functions of every layer module.

        Every layer is imported first, so the same names are wrapped
        whichever modules the workload loaded.
        """
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"svolterra.{layer}")
            for attr, val in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(val)
                        and val.__module__ == mod.__name__):
                    wrappers[val] = self._wrap(val, f"{layer}.{attr}")
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    self._undo.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(original,
                                                  f"{layer}.{meth}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "svolterra" and not modname.startswith(
                    "svolterra."):
                continue
            namespace = vars(mod)
            for attr, val in list(namespace.items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(val) and val in wrappers:
                    self._undo.append((namespace, attr, val))
                    namespace[attr] = wrappers[val]
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._undo.append((val, key, item))
                            val[key] = wrappers[item]

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- output --

    def _arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.job, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.nbytes, dtype=np.int64))

    def save(self, path):
        name, parent, job, start, end, nbytes = self._arrays()
        np.savez(path, names=np.array(json.dumps(self.names)), name=name,
                 parent=parent, job=job, start=start, end=end,
                 nbytes=nbytes)

    def summary(self):
        """Per-function and per-layer metrics of the traced jobs.

        Function metrics cover spans recorded while a job ran;
        ``registry.build_s`` also counts the registry builders called while
        the inputs were built.
        """
        name, parent, job, start, end, nbytes = self._arrays()
        dur = end - start
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner],
                            minlength=len(dur))
        self_time = dur - child
        in_job = job >= 0
        k = len(self.names)
        calls = np.bincount(name[in_job], minlength=k)
        self_s = np.bincount(name[in_job], weights=self_time[in_job],
                             minlength=k)
        out_bytes = np.bincount(name[in_job], weights=nbytes[in_job],
                                minlength=k)
        layer_of = np.array([LAYERS.index(n.split(".")[0])
                             for n in self.names] or [0], dtype=np.int64)
        out = {}
        for nid, fn_name in enumerate(self.names):
            out[f"{fn_name}.calls"] = int(calls[nid])
            out[f"{fn_name}.self_s"] = float(self_s[nid])
            if fn_name in BYTES_OF:
                out[f"{fn_name}.bytes"] = int(out_bytes[nid])
        layer_self = np.bincount(layer_of[name[in_job]],
                                 weights=self_time[in_job],
                                 minlength=len(LAYERS))
        for idx, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = float(layer_self[idx])
        # outermost registry spans, so nested builders count once
        reg = LAYERS.index("registry")
        span_layer = layer_of[name]
        outer = (span_layer == reg) & ~(
            inner & (span_layer[np.maximum(parent, 0)] == reg))
        out["registry.build_s"] = float(dur[outer].sum())
        out.update(self.counters)
        return out
