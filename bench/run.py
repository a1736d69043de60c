"""Benchmark of lame_tta: one workload per run, one process, closed loop.

Run from the root of a checkout::

    python3 bench/run.py --workload online-synth --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of that checkout. The run sets up its
inputs from ``--seed`` several times (``setup_s`` is the median plus the
import and a warm-up), then runs items of the workload one after another
until ``--seconds`` of timed work are done and every item of the pool ran
once. Each item's outputs are checked against the plain-numpy reference
outside the timed part.

With ``--trace 0`` the last line of standard output is the result with the
end-to-end metrics; with ``--trace 1`` every item runs twice, once with
only the two per-batch probes and once with spans around every layer
(alternating which goes first), and the result holds the per-layer metrics.
The line before the result is a JSON record of the environment. Results
and spans also go to ``.bench_out/`` in the checkout.

``--workload all`` runs the three workloads one after another, each in a
process of its own, and prints every metric by name with its unit.

Exit status: 0 after printing a result (``correct`` tells whether every
check passed), 2 when the checkout has no ``src/lame_tta``.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy loads
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("online-synth", "correct-k1000", "correct-rbf-pooled")
SETUP_REPEATS = 3
# Each item is timed this many times, a pass apart, and the median counts:
# other tenants of the machine slow it in phases of seconds to minutes.
REPEATS = 3
MAX_ERRORS_SHOWN = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="'all' runs each workload in its own process and prints a table")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the benchmark's own tests")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    threads = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_pinned": all(t == "1" for t in threads.values()),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None when the
    checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args, import_s: float) -> dict:
    from metrics import end_to_end, per_layer
    from spans import LAME_LAYERS, TRACED_LAYERS, Tracer
    from workloads import make_workload

    workload = make_workload(args.workload, tiny=args.size == "tiny")
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probe = Tracer(capture_z=workload.capture_z)
    full = Tracer(capture_z=workload.capture_z)
    try:
        # set-up, traced as a whole in the traced run
        rep_s = []
        for _ in range(SETUP_REPEATS):
            with full.installed(TRACED_LAYERS if args.trace else ()), full.span("bench.setup"):
                t0 = perf_counter()
                items = workload.setup(args.seed, workdir)
                rep_s.append(perf_counter() - t0)
        t0 = perf_counter()
        with probe.installed(LAME_LAYERS):
            workload.warm_up(items, workdir)
        warm_s = perf_counter() - t0
        probe.clear()
        setup_s = import_s + statistics.median(rep_s) + warm_s

        # The untraced run makes passes over the whole pool; its metrics
        # come from the first REPEATS passes. The traced run makes whole
        # passes over the head of the pool, each item with and without spans.
        pool = items[:workload.trace_items] if args.trace else items
        reps = [[] for _ in pool]
        attempted = failed = passes = 0
        errors, output_bytes = [], []
        timed = {False: 0.0, True: 0.0}
        finished = False
        while not finished:
            for idx, item in enumerate(pool):
                order = (False,)
                if args.trace:
                    order = (False, True) if (passes * len(pool) + idx) % 2 == 0 else (True, False)
                for traced in order:
                    tracer = full if traced else probe
                    prepared = workload.prepare(item)
                    n_solves = len(tracer.solves)
                    with tracer.installed(TRACED_LAYERS if traced else LAME_LAYERS):
                        with tracer.span("bench.item"):
                            t0 = perf_counter()
                            res = workload.run(item, prepared, tracer)
                            timed[traced] += perf_counter() - t0
                    workload.check(item, res, tracer.solves[n_solves:])
                    for solve in tracer.solves[n_solves:]:
                        solve.Z = None
                    if traced:
                        output_bytes.append(res.output_bytes)
                    else:
                        probe.clear()
                        if passes < REPEATS:
                            reps[idx].append(res)
                    attempted += res.attempted
                    failed += res.failed
                    errors += res.errors
                elapsed = timed[False] + timed[True]
                if not args.trace and passes >= REPEATS and elapsed >= args.seconds:
                    finished = True
                    break
            else:
                passes += 1
                finished = elapsed >= args.seconds and (args.trace or passes >= REPEATS)

        if args.trace:
            metrics = per_layer(full, timed[False], output_bytes, passes, SETUP_REPEATS)
            full.write(out_dir / f"spans-{args.workload}-s{args.seed}.json")
        else:
            metrics = end_to_end(reps, setup_s, attempted, failed)
        summary = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "passes": passes,
            "batches_per_pass": sum(len(r[0].batch_s) for r in reps),
            "timed_s": timed[False] + timed[True],
            "setup_repeats_s": rep_s,
            "import_s": import_s,
            "warm_up_s": warm_s,
            "errors": errors[:MAX_ERRORS_SHOWN],
        }
        return {
            "summary": summary,
            "result": {
                "correct": failed == 0 and not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            },
        }
    finally:
        probe.uninstall()
        full.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another; one
    table line per metric."""
    ok = True
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{workload}: exit status {done.returncode}")
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "lame_tta" / "__init__.py").is_file():
        print(f"bench: no lame_tta package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import lame_tta  # noqa: F401  (timed: part of set-up)
    import_s = perf_counter() - t0

    env = environment()
    if not env["blas_threads_pinned"]:
        print(f"bench: BLAS threads not pinned to 1: {env['blas_threads']}", file=sys.stderr)
    out = run(args, import_s)
    out["summary"]["environment"] = env
    for why in out["summary"]["errors"]:
        print(f"bench: check failed: {why}", file=sys.stderr)
    out_dir = ROOT / ".bench_out"
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    (out_dir / name).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
