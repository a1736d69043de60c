#!/usr/bin/env python3
"""Byte-identity snapshot: every `lame` subcommand on small inputs.

Writes a labeled container with task ids, a second container whose
features are points of the integer lattice {1,2,3}^6 with some rows (and
their logits) repeated, containers with 1,000 and 10,000 classes, one of
600 rows for dense batches of 512, one whose rows all coincide, one whose
third batch of 32 rows coincides, a superclass mapping and one that lists
4 of 6 classes, and scenario and family configs under --out, then runs
each subcommand in-process from inside that directory with relative
paths, one output directory per run (two runs share one), and records
every run's exit code in `exit_codes.txt`. Two snapshots of code with the
same outputs then compare clean with

    diff -r -x timings.json A B

The package comes from the import path, so the same script snapshots
another checkout:

    PYTHONPATH=<checkout>/src python scripts/snapshot_outputs.py --out A
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from lame_tta.cli import main as lame_main
from lame_tta.streams import Dataset, save_embeddings

SOURCE = "synthetic:K=4,d=6,n_per_class=30,spread=0.3,rotation=0.4,noise=0.25"
INPUTS = {
    # class 5 is unmapped: its samples leave the mapped stream
    "mapping.tsv": "0\ta\n1\ta\n2\tb\n3\tb\n4\tc\n5\t__null__\n",
    "mapping_partial.tsv": "0\ta\n1\tb\n2\tb\n3\tc\n",
    "scenario_mapped.cfg": (
        "source = data.lame.bin\nsampling = iid\nzipf_s = 1.0\nbatch_size = 16\n"
        "seed = 1\nmapping = mapping.tsv\n"
    ),
    "scenario_tasks.cfg": "source = data.lame.bin\nsampling = non_iid\nbatch_size = 12\nseed = 2\n",
    "scenario_synthetic.cfg": (
        f"source = {SOURCE}\nsampling = non_iid\nzipf_s = 1.0\nbatch_size = 16\nseed = 0\n"
    ),
    "scenario_repeated_param.cfg": f"source = {SOURCE},K=6\nbatch_size = 16\n",
    # scenarios out of sorted order: `matrix` sorts them, `grid` does not
    "family.cfg": f"source = {SOURCE}\nscenarios = D,A\nzipf_s = 1.0\nbatch_size = 16\nseeds = 0,1\n",
}
GRID_KINDS = ("lame", "entropy_min", "pseudo_label", "shot_im", "restandardize_only")
TOY2D = ("toy2d", "--batches", "8", "--batch-size", "8")
RUNS = [
    ("simulate_mapped", ["simulate", "--config", "scenario_mapped.cfg"]),
    ("simulate_tasks", ["simulate", "--config", "scenario_tasks.cfg"]),
    ("simulate_seed", ["simulate", "--config", "scenario_synthetic.cfg", "--seed", "5"]),
    *(
        (f"correct_{kernel}",
         ["correct", "--input", "data.lame.bin", "--kernel", kernel, "--k", "3",
          "--batch-size", "32"])
        for kernel in ("knn", "linear", "rbf")
    ),
    # lattice distances tie often and repeated rows coincide: kNN
    # tie-breaks and equal Q rows
    *(
        (f"correct_lattice_{kernel}",
         ["correct", "--input", "lattice.lame.bin", "--kernel", kernel, "--k", "3",
          "--batch-size", "32"])
        for kernel in ("knn", "linear", "rbf")
    ),
    ("correct_mapped",
     ["correct", "--input", "data.lame.bin", "--mapping", "mapping.tsv", "--batch-size", "40"]),
    # the mapping lists 4 of the 6 classes: `.over` unmaps the other two
    ("correct_mapped_partial",
     ["correct", "--input", "data.lame.bin", "--mapping", "mapping_partial.tsv",
      "--batch-size", "40"]),
    # 120 rows in batches of 17: the last batch holds one row
    ("correct_one_row_tail",
     ["correct", "--input", "data.lame.bin", "--batch-size", "17"]),
    # corrected.csv in chunks of a few rows, and of one row each
    ("correct_wide", ["correct", "--input", "wide.lame.bin", "--batch-size", "32"]),
    ("correct_wider", ["correct", "--input", "wider.lame.bin", "--batch-size", "32"]),
    # dense W at the benchmark's batch of 512 rows, then a tail of 88
    *(
        (f"correct_dense512_{kernel}",
         ["correct", "--input", "dense600.lame.bin", "--kernel", kernel,
          "--batch-size", "512"])
        for kernel in ("rbf", "linear")
    ),
    # a failed run into the --out of a good one leaves none of correct's outputs
    ("correct_reused",
     ["correct", "--input", "data.lame.bin", "--kernel", "rbf", "--k", "3", "--batch-size", "32"]),
    ("correct_reused_coincident",
     ["correct", "--input", "coincident.lame.bin", "--kernel", "rbf", "--k", "3",
      "--batch-size", "32", "--out", "correct_reused"]),
    # a run that fails after two batches went to the writer leaves no outputs
    ("correct_late_coincident",
     ["correct", "--input", "late_coincident.lame.bin", "--kernel", "rbf", "--k", "3",
      "--batch-size", "32"]),
    ("toy2d", [*TOY2D, "--lrs", "0.01,0.1", "--seeds", "0,1"]),
    # a listed lr 0 is also the baseline, run once
    ("toy2d_zero_lr", [*TOY2D, "--lrs", "0,0.1", "--seeds", "0,1"]),
    ("sweep", ["sweep", "--config", "family.cfg", "--sizes", "1,8,16", "--workers", "2"]),
    *(
        (f"grid_{kind}", ["grid", "--config", "family.cfg", "--method", kind, "--workers", "2"])
        for kind in GRID_KINDS
    ),
    ("matrix_lame", ["matrix", "--grid-results", "grid_lame/grid_results.csv"]),
    ("matrix_entropy_min", ["matrix", "--grid-results", "grid_entropy_min/grid_results.csv"]),
    ("report", ["report", "--results", "grid_entropy_min/grid_results.csv"]),
    # a repeated list value is an error, not a cell run twice
    ("sweep_repeated_size",
     ["sweep", "--config", "family.cfg", "--sizes", "8,8,16", "--workers", "1"]),
    ("toy2d_repeated_seed", [*TOY2D, "--lrs", "0.1", "--seeds", "0,1,1"]),
    # two lrs that would write one toy2d_*_lr0.1.csv are an error
    ("toy2d_colliding_lr", [*TOY2D, "--lrs", "0.1,0.1000001", "--seeds", "0"]),
    # a repeated inline synthetic parameter is an error, not the last one
    ("simulate_repeated_param", ["simulate", "--config", "scenario_repeated_param.cfg"]),
]


def write_inputs() -> None:
    rng = np.random.default_rng(0)
    N, K, d = 120, 6, 5
    labels = np.arange(N) % K
    data = Dataset(
        features=rng.standard_normal((N, d)) + labels[:, None],
        logits=rng.standard_normal((N, K)) + 2.0 * np.eye(K)[labels],
        labels=labels,
        class_count=K,
        task_ids=rng.integers(0, 4, N),
    )
    save_embeddings(data, "data.lame.bin")
    # every sixth row repeats the one before it, inside the same batch of 32
    rows = np.arange(96)
    rows[1::6] -= 1
    lattice = Dataset(
        features=rng.integers(1, 4, size=(96, 6)).astype(float)[rows],
        logits=rng.standard_normal((96, K))[rows],
        labels=(np.arange(96) % K)[rows],
        class_count=K,
    )
    save_embeddings(lattice, "lattice.lame.bin")
    # K above the formatter's chunk of values
    for name, rows, classes in (("wide", 64, 1000), ("wider", 3, 10_000)):
        save_embeddings(Dataset(
            features=rng.standard_normal((rows, d)),
            logits=3.0 * rng.standard_normal((rows, classes)),
            labels=None,
            class_count=classes,
        ), f"{name}.lame.bin")
    save_embeddings(Dataset(
        features=rng.standard_normal((600, 32)),
        logits=rng.standard_normal((600, K)),
        labels=None,
        class_count=K,
    ), "dense600.lame.bin")
    # the first batch of 32 rows is one point repeated: a zero rbf bandwidth
    save_embeddings(Dataset(
        features=np.repeat(data.features[:1], N, axis=0),
        logits=data.logits,
        labels=data.labels,
        class_count=K,
    ), "coincident.lame.bin")
    # the third batch of 32 rows is one point repeated
    features = data.features.copy()
    features[64:96] = features[64]
    save_embeddings(Dataset(features, data.logits, data.labels, K), "late_coincident.lame.bin")
    for name, text in INPUTS.items():
        Path(name).write_text(text, encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="a new or empty directory")
    out = Path(ap.parse_args().out)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"snapshot: {out} is not empty", file=sys.stderr)
        return 1
    os.chdir(out)
    write_inputs()
    # a run writes into the directory named after it, unless it names one
    codes = [f"{name} {lame_main(argv if '--out' in argv else [*argv, '--out', name])}\n"
             for name, argv in RUNS]
    Path("exit_codes.txt").write_text("".join(codes), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
