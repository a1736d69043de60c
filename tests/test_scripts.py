"""Smoke tests of the ``scripts/`` wrappers: each runs as a program with
tiny pass-through arguments and writes under its default output directory."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMALL_FAMILY = (
    "source = synthetic:K=4,d=6,n_per_class=50,spread=0.3,rotation=0.4,noise=0.25\n"
    "scenarios = A\nbatch_size = 16\nseeds = 0\n"
)


def run_script(tmp_path, name, *argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )


def test_collapse_demo_script(tmp_path):
    proc = run_script(tmp_path, "run_collapse_demo.py", "--lrs", "0.1", "--seeds", "0",
                      "--batches", "5")
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out" / "collapse_demo"
    assert (out / "toy2d_accuracy_lr0.1.csv").read_text().count("\n") == 6
    assert (out / "manifest.json").exists()


def test_batch_sweep_script(tmp_path):
    (tmp_path / "family.cfg").write_text(SMALL_FAMILY)
    proc = run_script(tmp_path, "run_batch_sweep.py", "--config", "family.cfg",
                      "--sizes", "8", "--workers", "1")
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "out" / "batch_sweep" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "batch_size,lame_accuracy,baseline_accuracy,gain"
    assert lines[1].startswith("8,")


def test_cross_shift_script(tmp_path):
    (tmp_path / "family.cfg").write_text(SMALL_FAMILY)
    proc = run_script(tmp_path, "run_cross_shift.py", "--config", "family.cfg",
                      "--workers", "1")
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out" / "cross_shift"
    for method in ("entropy_min", "lame"):
        assert (out / f"grid_{method}" / "grid_results.csv").exists()
        assert (out / f"matrix_{method}" / "matrix.csv").read_text().startswith(
            "tuned_on\\eval_on,A\n"
        )


def test_snapshot_outputs_script_is_byte_identical_across_runs(tmp_path):
    for name in ("a", "b"):
        proc = run_script(tmp_path, "snapshot_outputs.py", "--out", name)
        assert proc.returncode == 0, proc.stderr

    def files(root):
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "timings.json"
        }

    a, b = files(tmp_path / "a"), files(tmp_path / "b")
    assert sorted(a) == sorted(b)
    assert [name for name in a if a[name] != b[name]] == []
    codes = dict(line.split() for line in a["exit_codes.txt"].decode().splitlines())
    failing = {"sweep_repeated_size", "toy2d_repeated_seed", "simulate_repeated_param",
               "correct_reused_coincident", "correct_late_coincident", "toy2d_colliding_lr"}
    assert {name for name, code in codes.items() if code != "0"} == failing
    assert set(codes.values()) == {"0", "1"}
    for name in ("grid_shot_im/grid_results.csv", "matrix_lame/matrix.csv",
                 "simulate_tasks/stream.csv", "correct_mapped/corrected.csv",
                 "correct_wider/corrected.csv", "correct_mapped_partial/corrected.csv",
                 "correct_dense512_rbf/corrected.csv", "correct_dense512_linear/corrected.csv"):
        assert name in a
    # the failed run into correct_reused/ removed the good run's outputs
    assert not [name for name in a if name.startswith("correct_reused/")]
    # so did the run that failed on its third batch, after two were written
    assert not [name for name in a if name.startswith("correct_late_coincident/")]
