"""Rows of ``corrected.csv``, formatted in this process or in a helper.

A row is the sample index, the predicted class and the K corrected
probabilities, each float by its shortest ``repr``. ``repr`` costs about
1.2-1.7 µs per float, so ``lame correct`` hands contiguous shares of a
large output to helper interpreters running this file as a script, each
started as soon as its rows are solved, while earlier rows still are::

    python -I -S csvrows.py < job > rows

A job is one binary file: a header of three int64 (start, n, K), then n
int64 predictions and n*K float64 probabilities, all in native byte order
(the helper runs on the machine that wrote the job). The helper writes
the job's rows to stdout; an empty job gives empty output.

This module imports the standard library only. A helper that imported
numpy or the package would pay 100 ms or more of start-up before its
first row, against about 20 ms for a bare interpreter.
"""

from __future__ import annotations

import struct
import sys
from array import array

_HEADER = struct.Struct("=qqq")


def format_rows(start: int, preds, values, K: int):
    """Yield the CSV lines of rows ``start, start + 1, ...``: ``preds`` holds
    one int per row and ``values`` is a flat float64 buffer of the rows' K
    probabilities each (a 1-D numpy array or an ``array("d")``). Read
    through a memoryview, every value is a Python float, whose ``repr``
    is the shortest one, and one row's cells exist at a time."""
    values = memoryview(values)
    if values.ndim != 1 or values.format != "d":
        raise ValueError("values must be a flat float64 buffer")
    for i, pred in enumerate(preds):
        yield f"{start + i},{pred},{','.join(map(repr, values[i * K:(i + 1) * K]))}\n"


def write_job(fh, start: int, preds, values, K: int) -> None:
    """Write one job; ``preds`` and ``values`` are C-contiguous buffers of
    int64 and float64 (for example numpy arrays of those dtypes)."""
    preds, values = memoryview(preds), memoryview(values)
    if preds.itemsize != 8 or values.itemsize != 8 or values.nbytes != preds.nbytes * K:
        raise ValueError("a job needs n int64 predictions and n*K float64 values")
    fh.write(_HEADER.pack(start, len(preds), K))
    fh.write(preds)
    fh.write(values)


def read_job(fh):
    """(start, preds, values, K) of one job, or None for an empty file."""
    head = fh.read(_HEADER.size)
    if not head:
        return None
    start, n, K = _HEADER.unpack(head)
    preds, values = array("q"), array("d")
    preds.fromfile(fh, n)
    values.fromfile(fh, n * K)
    return start, preds.tolist(), values, K


def main() -> int:
    job = read_job(sys.stdin.buffer)
    if job is not None:
        sys.stdout.writelines(format_rows(*job))
    return 0


if __name__ == "__main__":
    sys.exit(main())
