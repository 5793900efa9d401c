"""Benchmark of paritydistill design and simulation jobs.

Run from the root of a source checkout:

    python3 bench/run.py --workload mc_two_iterate --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each job starts after the previous
one returns.  ``--trace 0`` measures the end-to-end metrics (``job_s``,
``setup_s``, ``peak_rss_mb``; times scaled by a reference kernel timed
between jobs); ``--trace 1`` alternates untraced and traced jobs and
reports the per-layer metrics.  Human-readable lines and
a record of the environment come first; the last line of standard output
is the JSON result.  Spans and the full result are written under
``.bench_out/``.  See ``bench/NOTES.md``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is imported, here and in the
# set-up subprocesses that inherit this environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from jobs import WORKLOADS, Runner  # noqa: E402
from tracing import WORK_COUNTS, Tracer, summarize  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 11
# Wall time of _reference_kernel on the reference machine when quiet
# (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6; its 5th percentile
# there is 0.065 s and its median under load 0.087 s).  Timed figures are
# scaled by it over the kernel's time measured beside them, which cancels
# most of the machine-speed drift of a shared host; see NOTES.md.
REFERENCE_S = 0.07
SETUP_TIMEOUT_S = 60
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "t0 = time.perf_counter()\n"
    "import paritydistill.cli as cli\n"
    "cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def _reference_kernel() -> float:
    """Wall time of a fixed mix of interpreter work and small numpy ops.

    The mix resembles the jobs (Python loops over 2x2 to 4x4 complex
    matrices) and uses nothing from paritydistill, so program changes
    cannot move it; only the machine's speed at that moment can.
    """
    start = time.perf_counter()
    a = np.arange(16.0).reshape(4, 4) * (0.1 + 0.05j)
    acc = 0.0
    for _ in range(1500):
        acc += float((np.kron(a[:2, :2], a[2:, 2:]) @ a).trace().real) * 1e-6
        for i in range(20):
            acc += math.sin(i * acc * 1e-9) * i * 1e-12
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel diverged")
    return time.perf_counter() - start


def _scaled(times: list[float], refs: list[float]) -> list[float]:
    """Rescale each time to the reference machine's speed.

    ``refs`` holds one kernel run before the first time and one after
    each; a time is scaled by REFERENCE_S over the mean of the kernel
    runs on either side of it.
    """
    return [t * REFERENCE_S / (0.5 * (a + b)) for t, a, b in zip(times, refs, refs[1:])]


def _setup_seconds() -> tuple[list[float], list[float]]:
    """Import of paritydistill.cli plus build_parser(), in fresh interpreters.

    Returns the probe times and the kernel runs around them.  The first
    probe compiles bytecode and is later discarded.
    """
    probes, refs = [], [_reference_kernel()]
    for _ in range(SETUP_REPEATS + 1):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        probes.append(float(probe.stdout.strip().splitlines()[-1]))
        refs.append(_reference_kernel())
    return probes, refs


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(pd, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "paritydistill": pd.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "blas_threads": BLAS_THREADS,
    }


def _import_package():
    """Import paritydistill from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    pd = importlib.import_module("paritydistill")
    for sub in ("qstate", "photonics", "protocol", "analytics", "cli", "constants"):
        importlib.import_module(f"paritydistill.{sub}")
    if Path(pd.__file__).resolve().parent != (SRC / "paritydistill").resolve():
        raise ImportError(f"paritydistill resolved to {pd.__file__}, not this checkout")
    return pd


def _tail(samples: list[float]) -> str:
    """Highest of p99/p90 with at least ten samples beyond it."""
    for q in (99, 90):
        if len(samples) * (100 - q) >= 1000:
            cut = statistics.quantiles(samples, n=100)[q - 1]
            return f"p{q} {cut:.6f} s"
    return "no tail percentile (fewer than 10 samples beyond p90)"


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "paritydistill" / "cli.py").is_file():
        print(f"error: no paritydistill sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    setup, setup_refs = ([], []) if args.trace else _setup_seconds()
    pd = _import_package()
    env = _environment(pd, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer()
    try:
        runner = Runner(pd, args.workload, args.seed, workdir)
        ops = runner.run_job()  # warm-up: checked, not timed
        times: list[float] = []  # wall seconds per job; odd jobs are traced in --trace 1
        refs = [_reference_kernel()]
        layer_jobs: list[dict] = []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or len(times) < 2:
            gc.collect()
            job = len(times)
            if args.trace and job % 2 == 1:
                tracer.start_job(job)
                tracer.install(pd)
                try:
                    results = runner.run_job()
                finally:
                    tracer.uninstall()
                layer_jobs.append(tracer.job_metrics(sum(r.bytes_written for r in results)))
            else:
                results = runner.run_job()
            times.append(sum(r.seconds for r in results))
            refs.append(_reference_kernel())
            ops += results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"{r.name}: {msg}" for r in ops for msg in r.failures]
    failed = sum(1 for r in ops if r.failures)
    scaled = _scaled(times, refs)
    if args.trace:
        counts_differ = [
            key for key in WORK_COUNTS if len({jm[key] for jm in layer_jobs}) > 1
        ]
        if counts_differ:
            failures.append(f"work counts differ between identical jobs: {counts_differ}")
            failed += 1
        metrics = summarize(layer_jobs)
        # Pair each traced job with the untraced one before it.
        metrics["trace.overhead_s"] = statistics.median(
            scaled[k] - scaled[k - 1] for k in range(1, len(scaled), 2)
        )
        tracer.write_spans(OUT / f"spans-{tag}.csv.gz")
        timed = times[1::2]
    else:
        metrics = {
            "job_s": statistics.median(scaled),
            "setup_s": statistics.median(_scaled(setup, setup_refs)[1:]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        timed = times

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} not as declared")
    reported = {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()}
    attempted = len(ops)
    record = {
        "workload": args.workload,
        "environment": env,
        "job_wall_s": times,
        "reference_s": refs,
        "setup_s_samples": setup,
        "setup_reference_s": setup_refs,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "metrics": reported,
        "per_job_layer_metrics": layer_jobs,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("environment " + json.dumps(env, sort_keys=True))
    for msg in failures:
        print(f"FAILED {msg}")
    print(f"job wall time median {statistics.median(timed):.6f} s, n={len(timed)} "
          f"{'traced' if args.trace else 'untraced'} jobs; {_tail(timed)}")
    print(f"reference kernel median {statistics.median(refs):.6f} s (nominal {REFERENCE_S} s); "
          f"{'trace.overhead_s' if args.trace else 'job_s and setup_s'} scaled by their ratio")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for key, entry in reported.items():
        print(f"{key} {entry['value']!r} {entry['unit']}")
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
