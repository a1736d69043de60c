#!/usr/bin/env python3
"""Batch-size ablation: correction gain over the baseline per batch size.

Reruns the configured scenario family at each size with the same seeds
and writes accuracy-vs-size plot data. Every other argument (--sizes,
--k, --workers, --seed, --set) goes to `lame sweep`.
"""

import argparse
import sys
from pathlib import Path

from lame_tta.cli import main as lame_main

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic_family.cfg"

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/batch_sweep")
    ap.add_argument("--config", default=str(DEFAULT_CONFIG))
    args, rest = ap.parse_known_args()
    sys.exit(lame_main(["sweep", "--config", args.config, "--out", args.out, *rest]))
