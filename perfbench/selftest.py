"""Self-tests of the benchmark itself (outside the library's test suite).

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
1. ``BENCHMARK.json`` names exactly the workloads and metrics (with units)
   that ``run.py`` prints;
2. two seeds give different job lists with the same stated size mix;
3. for one seed, two traced runs of every workload report identical
   per-layer counts (``.calls``, ``.bytes`` and sweeps).
   ``cli.bytes_written`` is left out: the CLI reports carry their own
   timings, whose printed length varies;
4. every per-layer metric but ``trace.overhead`` reads above zero on the
   workload that ``workloads.EXERCISED_BY`` assigns it, so a traced
   function that stops being called, or a counter that stops being
   filled, fails here instead of reading as a perfect gain.
"""
from __future__ import annotations

import json
import subprocess
import sys

import run


class SelfTestFailure(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise SelfTestFailure(message)


def test_declared_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]]
           == list(run.WORKLOAD_NAMES), "workload names differ")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]}
           == run.END_TO_END_UNITS, "end-to-end metrics differ")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]}
           == run.PER_LAYER_UNITS, "per-layer metrics differ")


def test_seeds_change_jobs_not_mix():
    sys.path.insert(0, str(run.SRC))
    import svolterra
    import svolterra.cli  # noqa: F401  (the cli_reports workload needs it)
    import workloads
    expect(tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES,
           "run.py and workloads.py list different workloads")
    for name, build in workloads.WORKLOADS.items():
        a = build(svolterra, workloads.DEFAULT_SEED, run.OUT)
        b = build(svolterra, workloads.HOLDOUT_SEED, run.OUT)
        expect([j.label for j in a] != [j.label for j in b],
               f"{name}: both seeds give the same jobs")
        expect(workloads.mix(a) == workloads.mix(b),
               f"{name}: the size mix depends on the seed")


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    expect(proc.returncode == 0, f"{workload}: traced run failed:\n"
                                 f"{proc.stderr[-2000:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()}


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".bytes")) or "sweeps" in k}


def _exercised_by(metric):
    import workloads
    for key, workload in workloads.EXERCISED_BY.items():
        if metric == key or metric.startswith(key + "."):
            return workload
    return None


def test_counts_repeat_and_layers_exercised():
    traced = {}
    for workload in run.WORKLOAD_NAMES:
        traced[workload] = _traced(workload, 5)
        first = _counts(traced[workload])
        second = _counts(_traced(workload, 5))
        diff = {k: (first[k], second[k]) for k in first
                if first[k] != second[k]}
        expect(not diff, f"{workload}: counts differ between runs: {diff}")
    for metric in run.PER_LAYER_UNITS:
        if metric == "trace.overhead":
            continue
        workload = _exercised_by(metric)
        expect(workload is not None, f"{metric}: no workload assigned")
        expect(traced[workload][metric] > 0,
               f"{metric} reads {traced[workload][metric]} on {workload}")


def main():
    failed = 0
    for test in (test_declared_metrics, test_seeds_change_jobs_not_mix,
                 test_counts_repeat_and_layers_exercised):
        try:
            test()
        except SelfTestFailure as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
