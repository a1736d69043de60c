#!/usr/bin/env python3
"""Online entropy-minimization failure demo on the sinusoidal toy stream.

Produces per-learning-rate entropy and online-accuracy curves (plot-data
CSV) for a class-grouped stream, plus the frozen-baseline curve. Every
other argument (--lrs, --seeds, --batches, --batch-size) goes to
`lame toy2d`.
"""

import argparse
import sys

from lame_tta.cli import main as lame_main

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/collapse_demo")
    args, rest = ap.parse_known_args()
    sys.exit(lame_main(["toy2d", "--out", args.out, *rest]))
