#!/usr/bin/env python3
"""Cross-shift hyperparameter-transfer matrices on the synthetic family.

Runs the declared grid for entropy minimization and for LAME over the
family's scenarios (A = i.i.d., B = non-i.i.d., C = i.i.d. + prior shift,
D = non-i.i.d. + prior shift), then derives the tune-on-i / evaluate-on-j
improvement matrix against the frozen baseline. Every other argument
(--workers, --seed, --set) goes to `lame grid`.
"""

import argparse
import sys
from pathlib import Path

from lame_tta.cli import main as lame_main

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic_family.cfg"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/cross_shift")
    ap.add_argument("--config", default=str(DEFAULT_CONFIG))
    args, rest = ap.parse_known_args()
    for method in ("entropy_min", "lame"):
        grid_dir = Path(args.out) / f"grid_{method}"
        code = lame_main(
            ["grid", "--config", args.config, "--method", method, "--out", str(grid_dir), *rest]
        ) or lame_main(
            ["matrix", "--grid-results", str(grid_dir / "grid_results.csv"),
             "--out", str(Path(args.out) / f"matrix_{method}")]
        )
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
