"""tnbs benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload synth_cli --seed 0 --seconds 50 --trace 0

Workloads (see workloads.py for why each exists): ``synth_cli`` and
``tanks_cv``. The program is imported from ``src/`` of the same checkout;
BLAS thread settings are inherited, never pinned.

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics as means over the passes. Its ``setup_s`` is the median of
four set-ups, each a fresh-interpreter import of tnbs plus the workload's
input generation: two before the passes and two after, so that set-up is
sampled at both ends of the run. ``--trace 1`` sets up once, alternates
untraced and traced passes for half of ``--seconds``, reports the per-layer
self times and counts per traced pass and the tracing overhead (mean traced
minus mean untraced pass), then repeats the traced passes for the other half
in a child process with one BLAS thread, as a diagnostic (``blas1.*``).

Every run checks the program's outputs, prints each metric with its unit and
the environment fingerprint, writes a record to
``perfbench/out/BENCH_<workload>_seed<n>_trace<t>.json`` (plus the spans of a
traced run), and prints as its last line a JSON object with ``correct``,
``attempted``, ``failed`` (correctness checks) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Backstop for a hung one-thread child, which normally takes half of
# --seconds plus one set-up.
CHILD_TIMEOUT_S = 100

# name -> (unit, better); the end-to-end metrics every untraced run reports.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
# Printed and recorded where a workload has them, but kept off the last line:
# they do not apply to every workload, vary with the seed's data, or (the
# scoring rates of tanks_cv) are timed over a window too short to be steady.
STAGE_METRICS = {
    "synth_s": "s", "fit_s": "s", "cv_s": "s",
    "sim_us_per_step": "us", "predict_rows_per_s": "1/s",
    "pred_rmse": "y units", "sim_rmse": "y units",
}
# Diagnostic metrics carried over from the one-BLAS-thread traced child.
BLAS1_KEYS = ("wall_s", "solver.fallback_solves", "solver.fallback_ratio")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--one-thread-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fresh_import_s() -> float:
    """Time to import tnbs in a new interpreter, measured inside it."""
    code = ("import time; t = time.perf_counter(); import tnbs; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout.split()[-1])


def fingerprint(seed: int) -> dict:
    import numpy as np
    import scipy

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return {"name": dep.get("name"), "version": dep.get("version"),
                "config": dep.get("openblas configuration")}

    env = {var: os.environ.get(var) for var in THREAD_VARS}
    nproc = len(os.sched_getaffinity(0))
    # OpenBLAS runs one thread per available CPU unless told otherwise.
    threads = next((int(v) for v in (env["OPENBLAS_NUM_THREADS"], env["OMP_NUM_THREADS"])
                    if v and v.isdigit()), nproc)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tnbs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": threads,
        "thread_env": env,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def one_pass(workload, state, checks):
    start = perf_counter()
    stats = workload.iterate(state, checks)
    stats["wall_s"] = perf_counter() - start
    return stats


def keep_going(start, passes, seconds):
    """At least one pass; then another only if it is expected to end in time."""
    if not passes:
        return True
    return perf_counter() - start + passes[-1]["wall_s"] < seconds


def run_passes(workload, state, checks, seconds):
    """Repeat the workload for about ``seconds`` (at least once)."""
    passes = []
    start = perf_counter()
    while keep_going(start, passes, seconds):
        passes.append(one_pass(workload, state, checks))
    return passes


def run_traced(workload, state, checks, seconds, with_plain):
    """Traced passes for about ``seconds``.

    With ``with_plain``, each traced pass follows an untraced one, so that the
    two means (whose difference is the tracing overhead) see the same
    drift of the machine's speed. Returns (untraced, traced, tracer).
    """
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []
    start = perf_counter()
    while keep_going(start, traced, seconds):
        if with_plain:
            plain.append(one_pass(workload, state, checks))
        tracer.iteration = len(traced)
        tracer.install()
        try:
            traced.append(one_pass(workload, state, checks))
        finally:
            tracer.uninstall()
    return plain, traced, tracer


def mean_of(passes, key):
    # Means, not medians, over a run's passes: on a shared host the CPU can
    # switch between speed states lasting tens of seconds; a median then
    # reports whichever state held most of the run, the mean weighs each state
    # by the time it held.
    return sum(p[key] for p in passes) / len(passes)


def end_to_end(passes, setup_s, import_s):
    metrics = {
        "setup_s": setup_s,
        "wall_s": mean_of(passes, "wall_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    steps = sum(p["sim_steps"] for p in passes)
    extra = {name: mean_of(passes, name) for name in STAGE_METRICS if name in passes[0]}
    extra["sim_us_per_step"] = 1e6 * sum(p["simulate_s"] for p in passes) / steps if steps else math.nan
    extra["predict_rows_per_s"] = (sum(p["pred_rows"] for p in passes)
                                   / sum(p["predict_s"] for p in passes))
    extra["import_s"] = import_s
    extra["passes"] = len(passes)
    return metrics, extra


def one_thread_diagnostic(args, seconds):
    """Traced passes in a child process whose BLAS runs one thread."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "1",
           "--one-thread-child"]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"one-thread diagnostic failed ({out.returncode}): "
                           f"{out.stderr.strip()[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def report(lines, record, result):
    for line in lines:
        print(line)
    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / (f"BENCH_{record['workload']}_seed{record['seed']}"
                  f"_trace{record['trace']}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))


def metric_lines(metrics, units):
    return [f"  {name} = {value:.6g} {units[name]}" for name, value in metrics.items()]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tnbs" / "__init__.py").is_file():
        print(f"error: no tnbs package at {SRC}; run from a tnbs checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import tnbs  # noqa: F401  (timed: part of set-up)
    import_s = perf_counter() - start
    from workloads import WORKLOADS, Checks, timed

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    checks = Checks()
    try:
        if args.one_thread_child:
            state = workload.setup(args.seed, workdir)
            _, passes, tracer = run_traced(workload, state, checks, args.seconds, False)
            values, absent = tracer.metrics(len(passes))
            values["wall_s"] = mean_of(passes, "wall_s")
            print(json.dumps({"attempted": checks.attempted, "failed": len(checks.failures),
                              "failures": checks.failures, "metrics": values,
                              "absent": absent, "fingerprint": fingerprint(args.seed)}))
            return 0

        def set_up():
            fresh = fresh_import_s()
            state, t = timed(workload.setup, args.seed, workdir)
            return state, fresh + t

        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "fingerprint": fingerprint(args.seed)}
        if not args.trace:
            (state, first), (_, second) = set_up(), set_up()
            passes = run_passes(workload, state, checks, args.seconds)
            setups = [first, second] + [set_up()[1] for _ in range(2)]
            record["setup_repeats_s"] = setups
            metrics, extra = end_to_end(passes, statistics.median(setups), import_s)
            units = {**{k: v[0] for k, v in END_TO_END.items()}, **STAGE_METRICS,
                     "import_s": "s", "passes": "count"}
            extra["error_rate"] = len(checks.failures) / checks.attempted
            units["error_rate"] = "ratio"
            lines = [f"workload {args.workload} seed {args.seed}: end-to-end (mean of "
                     f"{len(passes)} passes)"] + metric_lines(metrics, units)
            lines += ["  other:"] + metric_lines(extra, units)
            record.update(metrics=metrics, other=extra, passes=passes)
        else:
            state = workload.setup(args.seed, workdir)
            half = args.seconds / 2.0
            plain, passes, tracer = run_traced(workload, state, checks, half, True)
            metrics, absent = tracer.metrics(len(passes))
            wall_plain = mean_of(plain, "wall_s")
            wall_traced = mean_of(passes, "wall_s")
            metrics["trace.overhead_s"] = wall_traced - wall_plain
            child = one_thread_diagnostic(args, half)
            checks.attempted += child["attempted"]
            checks.failures += [f"one-thread child: {f}" for f in child["failures"]]
            for name, value in child["metrics"].items():
                if name.endswith(".self_s") or name in BLAS1_KEYS:
                    metrics[f"blas1.{name}"] = value
            absent += [f"blas1.{name}" for name in child["absent"]
                       if f"blas1.{name}" in metrics]
            units = {name: ("s" if name.endswith("_s") else
                            "ratio" if name.endswith("ratio") else "count")
                     for name in metrics}
            lines = [f"workload {args.workload} seed {args.seed}: per-layer metrics per pass "
                     f"({len(passes)} traced passes, {len(plain)} untraced; blas1.* from a "
                     f"one-BLAS-thread child)"] + metric_lines(metrics, units)
            lines.append("  absent: " + (", ".join(absent) if absent else "none"))
            spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.json"
            spans_path.write_text(json.dumps(tracer.span_records()) + "\n", encoding="utf-8")
            record.update(metrics=metrics, absent=absent, missing_targets=tracer.missing_targets,
                          untraced_wall_s=wall_plain, traced_wall_s=wall_traced,
                          untraced_passes=plain, passes=passes,
                          one_thread_child=child, spans=str(spans_path.relative_to(ROOT)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(checks.failures)
    record.update(attempted=checks.attempted, failed=failed, failures=checks.failures)
    if failed:
        lines += ["  failed checks:"] + [f"    {f}" for f in checks.failures]
    result = {"correct": failed == 0, "attempted": checks.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    report(lines, record, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
