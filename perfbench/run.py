"""svolterra benchmark: seeded closed-loop workloads with checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload bsvie_mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one process each

The untimed part imports svolterra from ``src/`` once.  The timed loop
then runs the number of whole decks of jobs (see ``workloads.py``) that
ends closest to ``--seconds`` of wall time, but at least three, checking
every job's output.
Before each deck the workload is set up a few times (re-importing svolterra
and rebuilding the seeded inputs each time); the last deck built is run,
and the median set-up time is ``setup_s``.
Times are CPU seconds of the benchmark process (see ``CLOCK``), scaled
to the host's reference speed (see ``Reference``); the unscaled figures
are kept in the result file.
``job_s.p50`` and ``job_s.p90`` are quantiles over the deck's jobs of each
job's fastest time across the passes, and ``jobs_per_s`` is the deck's
checked jobs over the sum of those times.  ``peak_rss_mb`` is the
process's peak resident set (``ru_maxrss``) when the first deck ends: in
later passes glibc serves the same arrays from a heap that earlier passes
have fragmented, and the peak of one job then moved by 7 % from one run of
the same seed to the next.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run first times decks
untraced for half of ``--seconds``, then wraps svolterra's public functions
(``spans.py``), rebuilds the inputs and runs exactly one deck traced; the
last line then holds the per-layer metrics, whose counts repeat exactly for
a fixed seed.  Every result, with an environment stamp, is also written to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("bsvie_mix", "control_adjoint", "kernel_det", "cli_reports")
SETUPS_PER_DECK = 3
# Every job's fastest repeat is kept (``_job_best``); a run gives each job
# at least this many repeats, however long its deck takes on a slow host.
MIN_DECKS = 3
# Job, loop and set-up times are CPU seconds of this single-threaded process
# (user + system).  On a shared virtual machine the host takes the CPU away
# for bursts ("steal"), which wall time counts and CPU time does not.
CLOCK = time.process_time
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The reference work's time, in CLOCK seconds, at the fast end of the host
# the bounds were set on (Intel Xeon at 2.1 GHz, 2 vCPUs shared with other
# tenants); see ``Reference``.
REFERENCE_NOMINAL_S = 1.0e-3

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s.p50": "s",
                    "job_s.p90": "s", "peak_rss_mb": "MB"}


# traced functions and their metrics: c = .calls, s = .self_s, b = .bytes
TRACED_FUNCTIONS = (
    ("lattice.martingale_representation", "csb"),
    ("lattice.conditional_expectation", "cs"),
    ("lattice.broadcast", "csb"),
    ("lattice.stochastic_integral", "csb"),
    ("lattice.dump_csv", "cs"),
    ("kernels.cell", "cs"), ("kernels.slice_sq", "cs"),
    ("kernels.find_partition", "cs"), ("kernels.classify", "cs"),
    ("special.mittag_leffler", "cs"),
    ("forward.solve_lattice", "cs"),
    ("backward.solve_bsvie", "cs"),
    ("backward.equation_residual", "cs"),
    ("backward.m_condition_residual", "cs"),
    ("control.solve_state", "s"), ("control.solve_variational", "s"),
    ("control.variational_forcing", "s"),
    ("control.solve_adjoint", "cs"),
    ("delay.solve_delay_state", "s"),
    ("delay.solve_delay_adjoint", "cs"),
    ("delay.hamiltonian_gradients", "s"),
    ("cli.main", "cs"))


def _per_layer_units():
    units = {}
    for fn, parts in TRACED_FUNCTIONS:
        for part in parts:
            suffix, unit = {"c": ("calls", "count"), "s": ("self_s", "s"),
                            "b": ("bytes", "B")}[part]
            units[f"{fn}.{suffix}"] = unit
    for layer in ("lattice", "kernels", "special", "forward", "backward",
                  "control", "delay", "registry", "cli"):
        units[f"{layer}.self_s"] = "s"
    units.update({
        "backward.sweeps": "count", "backward.sweeps.fixed_point": "count",
        "backward.sweeps.block": "count", "control.adjoint_sweeps": "count",
        "delay.adjoint_sweeps": "count", "registry.build_s": "s",
        "cli.bytes_written": "B", "trace.overhead": "ratio"})
    return units


PER_LAYER_UNITS = _per_layer_units()


def _pin_blas_threads():
    """Pin BLAS/OpenMP pools before numpy is imported (<= nproc)."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _getconf_caches():
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True,
                              text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    caches = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
            caches[parts[0]] = int(parts[1])
    return caches


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment():
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "svolterra").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "caches": _getconf_caches(),
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# set-up and the timed loop
# ---------------------------------------------------------------------------

def _purge_svolterra():
    for name in [n for n in sys.modules
                 if n == "svolterra" or n.startswith("svolterra.")]:
        del sys.modules[name]


def _import_svolterra(workload):
    sv = importlib.import_module("svolterra")
    for name in workloads.EXTRA_IMPORTS.get(workload, ()):
        importlib.import_module(name)
    return sv


def set_up(workload, seed):
    """Import svolterra afresh and build the seeded deck; returns the time."""
    _purge_svolterra()
    gc.collect()
    t0 = CLOCK()
    sv = _import_svolterra(workload)
    jobs = workloads.WORKLOADS[workload](sv, seed, OUT)
    return CLOCK() - t0, sv, jobs


class Tally:
    """Job times, failures and counters of one pass over decks."""

    def __init__(self):
        self.cpu = []          # CLOCK seconds per job
        self.failures = []
        self.counters = {}
        self.decks = 0
        self.cpu_seconds = 0.0
        self.peak_rss_mb = None   # ru_maxrss at the end of the first deck
        self.wall_seconds = 0.0

    @property
    def attempted(self):
        return len(self.cpu)

    @property
    def attempted_per_s(self):
        return self.attempted / self.cpu_seconds


def fresh_decks(workload, seed, setups):
    """Yield a freshly set-up deck for every pass, recording set-up times.

    ``SETUPS_PER_DECK`` set-ups precede each pass and the last one's deck
    is run, so the set-ups are spread over the whole run: the host's speed
    changes in bursts of a second or more, and ``setup_s`` then samples it
    the way the jobs do.  Only one deck is resident at a time.
    """
    while True:
        for _ in range(SETUPS_PER_DECK):
            jobs = None
            elapsed, _sv, jobs = set_up(workload, seed)
            setups.append(elapsed)
        yield jobs
        del jobs


class Reference:
    """Fixed work that never calls svolterra, timed before every job.

    The host runs this process up to 1.7x slower for minutes at a time
    (other tenants), which no choice of repeats inside a run removes.  The
    timed run therefore scales its times by ``REFERENCE_NOMINAL_S`` over
    the reference's fast-end time in the same run (the 10th percentile of
    its samples, matching the fastest repeat kept of every job): a host
    that is slower for the whole run is slower for both.  The work mixes
    what the jobs do: an interpreter loop, many small numpy calls and
    passes over arrays that fit in L2, and no svolterra code, so no change
    to svolterra can change it.
    """

    def __init__(self):
        import numpy as np
        self.dot = np.dot
        self.a = np.linspace(0.0, 1.0, 1 << 15)
        self.b = self.a[::-1].copy()
        self.samples = []

    def __call__(self):
        a, b = self.a, self.b
        t0 = CLOCK()
        sum(i * i % 7 for i in range(5000))
        for k in range(250):
            float(self.dot(a[k:k + 64], b[k:k + 64]))
        for _ in range(10):
            float((a * b + a).sum())
        self.samples.append(CLOCK() - t0)

    def speed(self):
        """REFERENCE_NOMINAL_S over the reference's fast-end time."""
        return REFERENCE_NOMINAL_S / statistics.quantiles(self.samples,
                                                          n=10)[0]


def run_decks(decks, seconds, tally, recorder=None, reference=None):
    """Run the decks of ``decks`` in turn, stopping at the number of whole
    decks whose end lies closest to ``seconds`` of wall time, but not before
    ``MIN_DECKS`` (or the end of ``decks``).
    """
    w_start = time.perf_counter()
    for jobs in decks:
        c_start = CLOCK()
        for job in jobs:
            # untimed: no garbage of earlier jobs is freed inside this
            # one's time or RSS
            gc.collect()
            if reference is not None:
                reference()
            if recorder is not None:
                recorder.job_index = tally.attempted
            c0 = CLOCK()
            try:
                counters = job.run()
            except Exception as exc:   # a failed job is counted, not fatal
                counters = None
                tally.failures.append(f"{job.label}: "
                                      f"{type(exc).__name__}: {exc}")
            tally.cpu.append(CLOCK() - c0)
            if recorder is not None:
                recorder.job_index = -1
            if job.cleanup is not None:
                job.cleanup()
            for key, value in (counters or {}).items():
                tally.counters[key] = tally.counters.get(key, 0) + value
        tally.cpu_seconds += CLOCK() - c_start
        tally.decks += 1
        if tally.decks == 1:
            tally.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        del jobs, job               # freed before the next deck is built
        tally.wall_seconds = time.perf_counter() - w_start
        deck_s = tally.wall_seconds / tally.decks
        if (tally.decks >= MIN_DECKS
                and tally.wall_seconds + deck_s / 2 >= seconds):
            break
    return tally


def _p90(times):
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def _job_best(times, deck_size):
    """Each deck job's fastest time across the run's passes through the deck.

    On a shared host the CPU slows by up to about 1.5x for seconds at a
    time (other tenants); like ``timeit``, the benchmark keeps the fastest
    repeat of every job, which is the one the least disturbed.  Slowdowns
    that last the whole run are left to ``Reference``.
    """
    return [min(times[j::deck_size]) for j in range(deck_size)]


def measure(workload, seed, seconds):
    _import_svolterra(workload)           # untimed: loads numpy and scipy
    setups = []
    reference = Reference()
    tally = run_decks(fresh_decks(workload, seed, setups), seconds, Tally(),
                      reference=reference)
    deck_size = tally.attempted // tally.decks
    speed = reference.speed()
    best = [t * speed for t in _job_best(tally.cpu, deck_size)]
    p90 = _p90(best)
    ok_frac = 1.0 - len(tally.failures) / tally.attempted
    metrics = {
        "setup_s": statistics.median(setups) * speed,
        "jobs_per_s": ok_frac * deck_size / sum(best),
        "job_s.p50": statistics.median(best),
        "job_s.p90": p90,
        "peak_rss_mb": tally.peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "jobs_per_s": f"{tally.attempted} jobs, {tally.decks} decks of "
                      f"{deck_size}",
        "job_s.p50": f"{deck_size} jobs x {tally.decks} passes",
        "job_s.p90": f"{sum(t > p90 for t in best)} jobs x {tally.decks} "
                     f"passes beyond",
        "peak_rss_mb": "ru_maxrss after the first deck",
    }
    extra = {"speed": speed, "reference_samples": len(reference.samples),
             "unscaled": {"setup_s": metrics["setup_s"] / speed,
                          "jobs_per_s": metrics["jobs_per_s"] * speed,
                          "job_s.p50": metrics["job_s.p50"] / speed,
                          "job_s.p90": metrics["job_s.p90"] / speed},
             "setup_samples_s": setups, "decks": tally.decks,
             "deck_size": deck_size, "loop_cpu_s": tally.cpu_seconds,
             "loop_wall_s": tally.wall_seconds}
    return metrics, notes, tally, extra


def measure_traced(workload, seed, seconds):
    _elapsed, sv, jobs = set_up(workload, seed)
    plain = run_decks(itertools.repeat(jobs), seconds / 2.0, Tally())
    del jobs
    gc.collect()
    recorder = spans.SpanRecorder()
    recorder.install()
    missing = [fn for fn, _ in TRACED_FUNCTIONS if fn not in recorder.names]
    if missing:
        recorder.uninstall()
        sys.exit(f"perfbench: traced functions not found in svolterra: "
                 f"{', '.join(missing)}")
    try:
        jobs = workloads.WORKLOADS[workload](sv, seed, OUT)
        traced = run_decks([jobs], 0.0, Tally(), recorder=recorder)
    finally:
        recorder.uninstall()
    OUT.mkdir(parents=True, exist_ok=True)
    recorder.save(OUT / f"spans-{workload}-seed{seed}.npz")
    found = recorder.summary()
    found.update(traced.counters)
    found["trace.overhead"] = 1.0 - (traced.attempted_per_s
                                     / plain.attempted_per_s)
    # every traced function is present (checked above); a counter that the
    # workload never touches reads 0
    metrics = {name: found.get(name, 0) for name in PER_LAYER_UNITS}
    tally = Tally()
    tally.cpu = plain.cpu + traced.cpu
    tally.failures = plain.failures + traced.failures
    extra = {"untraced_jobs_per_s": plain.attempted_per_s,
             "traced_jobs_per_s": traced.attempted_per_s,
             "untraced_decks": plain.decks, "deck_size": len(jobs),
             "unlisted": {k: v for k, v in found.items()
                          if k not in PER_LAYER_UNITS}}
    return metrics, {}, tally, extra


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def run_one(workload, seed, seconds, trace):
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    if trace:
        metrics, notes, tally, extra = measure_traced(workload, seed, seconds)
    else:
        metrics, notes, tally, extra = measure(workload, seed, seconds)
    env = environment()
    failed = len(tally.failures)
    print(f"perfbench {workload} seed={seed} seconds={seconds} "
          f"trace={trace}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:>16.6g} {units[name]}{note}")
    print(f"  {'failed_frac':40s} {failed / tally.attempted:>16.6g} ratio"
          f"  ({failed} of {tally.attempted})")
    for line in tally.failures[:10]:
        print(f"  FAILED {line}")
    print("  env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": tally.attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, env=env, extra=extra,
                  failures=tally.failures)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Run every workload in its own process and print one summary table."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if lines:
            results[name] = json.loads(lines[-1])
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"{'metric':40s}" + "".join(f"{w:>17s}" for w in results))
    for metric in units:
        row = "".join(f"{results[w]['metrics'][metric]['value']:>17.6g}"
                      for w in results)
        print(f"{metric + ' [' + units[metric] + ']':40s}{row}")
    row = "".join(f"{r['failed'] / r['attempted']:>17.6g}"
                  for r in results.values())
    print(f"{'failed_frac [ratio]':40s}{row}")
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "svolterra" / "__init__.py").is_file():
        print(f"perfbench: no svolterra sources at {SRC}; run from the "
              f"root of a svolterra checkout", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    global workloads, spans      # both import numpy: after the BLAS pin
    import spans
    import workloads
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
