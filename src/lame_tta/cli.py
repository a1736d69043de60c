"""Command-line entry point.

Subcommands bind config files to the library and write their artifacts
into an output directory together with a manifest that echoes the fully
resolved configuration and seed. Outputs are deterministic: re-running
with the same config and seed rewrites byte-identical files (stage wall
times live in a separate timings.json).

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__, csvrows
from .affinity import KERNEL_KINDS, KernelSpec
from .config import ConfigError, family_from_kv, parse_list, read_config, scenario_from_kv
from .harness import (
    METHOD_KINDS,
    SOLVER_COUNTERS,
    MethodSpec,
    Scenario,
    aggregate_report,
    batch_size_sweep,
    collapse_demo,
    csv_text,
    grid_search,
    matrix_from_rows,
    results_to_csv,
    rows_from_csv,
    timings_payload,
)
from .mapping import load_mapping
from .solver import lame_correct
from .streams import (
    ScenarioSpec,
    generate_toy2d,
    load_embeddings,
    load_source,
    make_stream,
    save_embeddings,
    source_probs,
    stream_order,
)


# header of the plot-data series files
XY = ("x", "y")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# parsed arguments the manifest leaves out: the subcommand is its own key,
# the handler, the output directory and the pool size change no output,
# and the config file, its overrides and --seed are folded into the
# resolved config
MANIFEST_EXCLUDED = frozenset(("subcommand", "func", "out", "workers", "config", "set", "seed"))


def _write_manifest(args, seed, kv: dict[str, str] | None = None) -> None:
    """manifest.json: the resolved config ``kv`` plus every parsed argument
    but the excluded ones, an unset or empty one as ``none``."""
    config = dict(kv or {})
    for key, value in vars(args).items():
        if key not in MANIFEST_EXCLUDED:
            config[key] = "none" if value is None or value == "" else value
    _write_json(
        Path(args.out) / "manifest.json",
        {
            "tool": "lame",
            "version": __version__,
            "subcommand": args.subcommand,
            "config": {k: str(v) for k, v in sorted(config.items())},
            "seed": seed,
        },
    )


def _read_config(args, seed_key: str) -> dict[str, str]:
    """The resolved config: the file, its ``--set`` overrides, and ``--seed``
    written into ``seed_key``."""
    kv = read_config(args.config, args.set)
    if args.seed is not None:
        kv[seed_key] = str(args.seed)
    return kv


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


# what `correct` writes into --out; a failed run leaves none of them, not
# even those of an earlier run into the same directory
CORRECT_OUTPUTS = ("corrected.csv", "diagnostics.json", "timings.json", "manifest.json")


def cmd_correct(args) -> None:
    out = Path(args.out)
    try:
        _correct(args, out)
    except BaseException:
        if out.is_dir():
            for name in CORRECT_OUTPUTS:
                (out / name).unlink(missing_ok=True)
        raise


def _correct(args, out: Path) -> None:
    if args.batch_size < 1:
        raise ValueError(f"--batch-size must be positive, got {args.batch_size}")
    t0 = perf_counter()
    data = load_embeddings(args.input)
    mapping = load_mapping(args.mapping, source_count=data.class_count) if args.mapping else None
    kernel = KernelSpec(kind=args.kernel, k=args.k)

    # file order is preserved: correction is a filter, not an evaluation
    probs = source_probs(data.logits, mapping)
    timings = {"load_s": perf_counter() - t0, "affinity_s": 0.0, "solve_s": 0.0,
               "csv_s": 0.0, "csv_wait_s": 0.0}

    # a one-worker pool formats and appends each solved batch while the
    # next one is solved. Before each submit, and after the last, the
    # solving thread awaits the previous write: at most one batch is in
    # flight, batches land in file order, and a failed write re-raises
    # here. The pool shuts down before the file closes. Every batch in
    # `diagnostics` was submitted.
    from concurrent.futures import ThreadPoolExecutor

    diagnostics = []
    written = None

    def wait() -> None:
        t = perf_counter()
        busy = written.result()
        timings["csv_wait_s"] += perf_counter() - t
        timings["csv_s"] += busy

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "corrected.csv", "wb") as fh, ThreadPoolExecutor(max_workers=1) as pool:
        csvrows.write_header(fh, probs.shape[1])
        for start in range(0, len(probs), args.batch_size):
            sl = slice(start, start + args.batch_size)
            t1 = perf_counter()
            W = kernel.build(data.features[sl])
            t2 = perf_counter()
            Z, diag = lame_correct(probs[sl], W)
            timings["affinity_s"] += t2 - t1
            timings["solve_s"] += perf_counter() - t2
            if written is not None:
                wait()
            written = pool.submit(_write_batch, fh, start, Z)
            diagnostics.append({"batch": len(diagnostics), "size": len(Z), **asdict(diag)})
        if written is not None:
            wait()
    _write_json(out / "diagnostics.json", diagnostics)
    _write_json(out / "timings.json", timings)
    _write_manifest(args, None)


def _write_batch(fh, start: int, Z: np.ndarray) -> float:
    """Append the rows of one solved batch of `correct`; its busy time."""
    t = perf_counter()
    csvrows.write_rows(fh, start, Z)
    return perf_counter() - t


def cmd_simulate(args) -> None:
    out = Path(args.out)
    kv = _read_config(args, "seed")
    spec = scenario_from_kv(kv)
    data, _ = load_source(spec.source, spec.seed)
    order = stream_order(data, spec).tolist()
    out.mkdir(parents=True, exist_ok=True)
    save_embeddings(data, out / "dataset.lame.bin")

    size = spec.batch_size
    counts = [min(size, len(order) - start) for start in range(0, len(order), size)]
    rows = ((i // size, row) for i, row in enumerate(order))
    _write_text(out / "stream.csv", csv_text(("batch_index", "sample_index"), rows))
    _write_json(
        out / "summary.json",
        {
            "n_samples_dataset": len(data),
            "n_samples_stream": len(order),
            "n_batches": len(counts),
            "batch_sizes": counts,
            "class_count": data.class_count,
        },
    )
    _write_manifest(args, spec.seed, kv)


def cmd_toy2d(args) -> None:
    for flag, value in (("--batches", args.batches), ("--batch-size", args.batch_size)):
        if value < 1:
            raise ValueError(f"{flag} must be positive, got {value}")
    n = args.batches * args.batch_size
    if n < 2:
        raise ValueError(f"--batches times --batch-size must be at least 2 samples, got {n}")
    out = Path(args.out)
    lrs = parse_list(args.lrs, float, "--lrs")
    seeds = parse_list(args.seeds, int, "--seeds")

    # per seed, {lr: (entropy series, accuracy series)}; lr 0 is the baseline
    runs = []
    for seed in seeds:
        data, model, stats = generate_toy2d(n, seed)
        spec = ScenarioSpec(
            source="toy2d", sampling="non_iid", prior_shift=None,
            batch_size=args.batch_size, seed=seed,
        )
        runs.append(collapse_demo(lrs + [0.0], make_stream(data, spec), model, stats))

    steps = np.arange(1, args.batches + 1)

    def write_seed_mean(name: str, lr: float, series: int) -> None:
        mean = np.mean([run[lr][series] for run in runs], axis=0)
        _write_text(out / f"toy2d_{name}.csv", csv_text(XY, zip(steps, mean)))

    for lr in lrs:
        write_seed_mean(f"entropy_lr{lr:g}", lr, 0)
        write_seed_mean(f"accuracy_lr{lr:g}", lr, 1)
    write_seed_mean("accuracy_baseline", 0.0, 1)
    _write_manifest(args, seeds[0])


def _family(args) -> tuple[dict[str, str], list[Scenario], list[int]]:
    """The resolved family config, its scenarios and its seeds (``--seed``
    replaces the list)."""
    if args.workers < 1:
        raise ValueError(f"--workers must be positive, got {args.workers}")
    kv = _read_config(args, "seeds")
    return kv, *family_from_kv(kv)


def cmd_grid(args) -> None:
    out = Path(args.out)
    kv, scenarios, seeds = _family(args)
    result = grid_search(
        scenarios, args.method, grid=None, seeds=seeds, workers=args.workers
    )
    _write_text(out / "grid_results.csv", results_to_csv(result.runs))
    table = [[spec.label(), *row] for spec, row in zip(result.grid, result.acc)]
    table.append(["baseline", *result.baseline_acc])
    _write_text(out / "grid_table.csv", csv_text(["method", *result.scenario_ids], table))
    best = result.best_spec.label()
    _write_json(
        out / "best.json",
        {
            "method": result.method_kind,
            "best": best,
            "best_index": result.best_index,
            "best_mean_accuracy": result.best_mean,
            "scenario_ids": result.scenario_ids,
            "per_scenario_accuracy": [float(v) for v in result.acc[result.best_index]],
            "tie_break": "declaration order",
            **{key: sum(getattr(r, key) for r in result.runs if r.method == best)
               for key in SOLVER_COUNTERS},
        },
    )
    _write_json(out / "timings.json", timings_payload(result.runs))
    _write_manifest(args, seeds, kv)


def cmd_matrix(args) -> None:
    out = Path(args.out)
    with open(args.grid_results, "r", encoding="utf-8") as fh:
        rows = rows_from_csv(fh.read())
    matrix = matrix_from_rows(rows)
    _write_text(
        out / "matrix.csv",
        csv_text(
            ["tuned_on\\eval_on", *matrix.scenarios],
            ([sid, *row] for sid, row in zip(matrix.scenarios, matrix.values)),
        ),
    )
    _write_json(
        out / "matrix_meta.json",
        {
            "scenarios": matrix.scenarios,
            "diagonal_column_max": matrix.check_diagonal_dominance(),
            "chosen_row_indices": matrix.chosen,
        },
    )
    _write_manifest(args, None)


def cmd_sweep(args) -> None:
    out = Path(args.out)
    kv, scenarios, seeds = _family(args)
    sizes = parse_list(args.sizes, int, "--sizes")
    method = MethodSpec("lame", kernel=KernelSpec("knn", args.k))
    points = batch_size_sweep(scenarios, method, sizes, seeds, workers=args.workers)
    _write_text(
        out / "sweep.csv",
        csv_text(
            ("batch_size", "lame_accuracy", "baseline_accuracy", "gain"),
            ((p.batch_size, p.method_acc, p.baseline_acc, p.gain) for p in points),
        ),
    )
    _write_text(
        out / "sweep_lame.csv", csv_text(XY, ((p.batch_size, p.method_acc) for p in points))
    )
    _write_text(
        out / "sweep_baseline.csv",
        csv_text(XY, ((p.batch_size, p.baseline_acc) for p in points)),
    )
    _write_manifest(args, seeds, kv)


def cmd_report(args) -> None:
    out = Path(args.out)
    with open(args.results, "r", encoding="utf-8") as fh:
        summary = aggregate_report(rows_from_csv(fh.read()))
    header = ("scenario", "method", "runs", "mean_accuracy", "std_accuracy",
              "min_accuracy", "max_accuracy")
    _write_text(out / "summary.csv", csv_text(header, (rec.values() for rec in summary)))
    _write_json(out / "summary.json", summary)
    _write_manifest(args, None)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lame",
        description="Batch-level output correction and its evaluation harness.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"lame {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # a prefix of an option is an error, so a mistyped or removed flag
    # cannot run as another one
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(p, config=False, workers=None):
        p.add_argument("--out", required=True, help="output directory")
        if workers:
            p.add_argument("--workers", type=int, default=os.cpu_count() or 1, help=workers)
        if config:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
            p.add_argument("--config", required=True)
            p.add_argument(
                "--set",
                action="append",
                default=[],
                metavar="KEY=VALUE",
                help="override a config entry (repeatable)",
            )

    p = add("correct", help="correct predictions in an embedding file")
    p.add_argument("--input", required=True)
    p.add_argument("--kernel", choices=KERNEL_KINDS, default="knn")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--mapping", default=None)
    p.add_argument("--batch-size", type=int, default=64)
    common(p)
    p.set_defaults(func=cmd_correct)

    p = add("simulate", help="materialize a scenario stream")
    common(p, config=True)
    p.set_defaults(func=cmd_simulate)

    p = add("toy2d", help="entropy-minimization collapse demo")
    p.add_argument("--lrs", default="0.001,0.01,0.1")
    p.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    p.add_argument("--batches", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=16)
    common(p)
    p.set_defaults(func=cmd_toy2d)

    p = add("grid", help="hyperparameter grid search over a scenario family")
    p.add_argument("--method", required=True, choices=METHOD_KINDS[1:])
    common(p, config=True, workers="process pool size for the grid cells")
    p.set_defaults(func=cmd_grid)

    p = add("matrix", help="cross-shift transfer matrix from grid results")
    p.add_argument("--grid-results", required=True)
    common(p)
    p.set_defaults(func=cmd_matrix)

    p = add("sweep", help="batch-size sweep for lame vs baseline")
    p.add_argument("--sizes", default="1,8,16,32,64,128")
    p.add_argument("--k", type=int, default=5)
    common(p, config=True, workers="process pool size for the sweep cells")
    p.set_defaults(func=cmd_sweep)

    p = add("report", help="aggregate a results CSV into mean/std summaries")
    p.add_argument("--results", required=True)
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        args.func(args)
    except (ValueError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
